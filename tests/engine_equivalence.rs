//! Engine equivalence over the full benchmark suite: the sparse and dense
//! bit-parallel engines must produce byte-identical report traces on
//! every suite workload. This is the correctness gate behind the
//! compile-time engine selector — which engine it picks must never change
//! what is reported, or when.

use sunder::sim::{EngineKind, TraceSink};
use sunder::{Benchmark, InputView, Scale};

/// Small enough to keep the 19 x 2 sweep in test time, large enough to
/// exercise start-period gating and padding.
const TEST_SCALE: Scale = Scale {
    state_fraction: 0.02,
    input_len: 4096,
};

#[test]
fn engines_agree_on_all_suite_benchmarks() {
    for bench in Benchmark::ALL {
        let w = bench.build(TEST_SCALE);
        let input = InputView::new(&w.input, 8, 1).expect("byte view");

        let mut reference = None;
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&w.nfa);
            let mut sink = TraceSink::new();
            engine.run(&input, &mut sink);
            match &reference {
                None => reference = Some((kind, sink.events)),
                Some((ref_kind, ref_events)) => assert_eq!(
                    ref_events,
                    &sink.events,
                    "{:?} and {:?} diverged on benchmark {}",
                    ref_kind,
                    kind,
                    bench.name()
                ),
            }
        }
        let (_, events) = reference.expect("at least one engine ran");
        assert!(
            events.iter().all(|e| (e.cycle as usize) < w.input.len()),
            "reports past end of input on {}",
            bench.name()
        );
    }
}

/// Every engine must also agree when driven cycle-by-cycle through the
/// `step` API (the suite above uses the batched `run` path).
#[test]
fn step_api_matches_run() {
    let bench = Benchmark::Dotstar03;
    let w = bench.build(TEST_SCALE);
    let input = InputView::new(&w.input, 8, 1).expect("byte view");

    for kind in EngineKind::ALL {
        let mut run_sink = TraceSink::new();
        kind.build(&w.nfa).run(&input, &mut run_sink);

        let mut engine = kind.build(&w.nfa);
        let mut step_sink = TraceSink::new();
        for v in input.iter_ref() {
            engine.step(v.symbols, v.valid, &mut step_sink);
        }
        assert_eq!(run_sink.events, step_sink.events, "{kind}");
    }
}
