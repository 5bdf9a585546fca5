//! Budgeted runs are unbudgeted runs, polled: each engine has one run
//! loop, which walks the input in segments of `Budget::poll_interval()`
//! cycles and polls the budget between them. These properties lock that
//! down for random rule sets under every pipeline configuration, both
//! engines, shard counts {1, 4} and random chunkings through
//! `ShardedEngine::run_chunk`:
//!
//! * a cancel budget that never trips yields exactly the unbudgeted
//!   trace and suspended states, for every poll interval;
//! * a token cancelled before the k-th poll interrupts at
//!   `k × interval` cycles into the run, and an interrupted chunk leaves
//!   the suspended state untouched;
//! * a budgeted sparse run over input that never hits the start LUT
//!   skips every cycle, so budgeted (served) chunks take the prefilter.
//!
//! Nothing here reads a clock.

use proptest::prelude::*;

use sunder_automata::regex::{compile_regex, compile_rule_set};
use sunder_automata::{InputView, Nfa};
use sunder_resilience::SplitMix64;
use sunder_sim::{
    Budget, CancelToken, Engine, EngineKind, EngineState, ReportEvent, ReportSink, RunOutcome,
    ShardedEngine, ShardedState, Simulator, StopReason, TraceSink,
};
use sunder_transform::{transform_to_rate, Rate};

/// The poll intervals under test: every cycle, an odd interval that never
/// lines up with strides or chunks, the daemon's, and the default (longer
/// than any generated input, so it never polls).
const INTERVALS: [u32; 4] = [1, 7, 64, 4096];

/// The four pipeline configurations: the automaton as compiled, then the
/// nibble transform at one, two and four nibbles per cycle.
const RATES: [Option<Rate>; 4] = [
    None,
    Some(Rate::Nibble1),
    Some(Rate::Nibble2),
    Some(Rate::Nibble4),
];

fn configured(nfa: &Nfa, rate: Option<Rate>) -> Nfa {
    match rate {
        None => nfa.clone(),
        Some(rate) => transform_to_rate(nfa, rate).expect("transform"),
    }
}

/// One regex atom over a small alphabet, so random inputs actually match.
fn atom() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => proptest::sample::select(vec!["a", "b", "c", "x"]).prop_map(str::to_string),
        1 => Just("[ab]".to_string()),
        1 => Just("[^a]".to_string()),
        1 => Just(".".to_string()),
        1 => Just("b+".to_string()),
        1 => Just("c?".to_string()),
    ]
}

/// One rule: a required literal, then 0–3 atoms, optionally anchored or
/// `.*`-prefixed (a `.*` prefix keeps the frontier alive, defeating the
/// prefilter). The required literal keeps every rule non-empty.
fn rule() -> impl Strategy<Value = String> {
    (
        0u8..6,
        proptest::sample::select(vec!["a", "b", "c", "x", "[ab]"]),
        proptest::collection::vec(atom(), 0..4),
    )
        .prop_map(|(prefix, first, atoms)| {
            let head = match prefix {
                0 => "^",
                1 => ".*",
                _ => "",
            };
            format!("{head}{first}{}", atoms.concat())
        })
}

/// Inputs dominated by bytes no rule starts with, so the prefilter has
/// idle stretches to skip, with enough rule bytes to light frontiers up.
fn input() -> impl Strategy<Value = Vec<u8>> {
    let bytes = vec![b'z', b'z', b'z', b' ', b'-', b'a', b'b', b'c', b'x'];
    proptest::collection::vec(proptest::sample::select(bytes), 0..400)
}

/// Splits a symbol stream into chunk views at cycle boundaries drawn from
/// `seed` — mostly a few cycles, sometimes up to 150, so chunks start and
/// end off the poll grid. Only the last chunk may hold a partial vector.
fn chunk_views(symbols: &[u16], stride: usize, seed: u64) -> Vec<InputView> {
    let mut rng = SplitMix64::new(seed);
    let mut views = Vec::new();
    let mut pos = 0;
    while pos < symbols.len() {
        let cycles = if rng.next().is_multiple_of(4) {
            1 + (rng.next() % 150) as usize
        } else {
            1 + (rng.next() % 6) as usize
        };
        let end = (pos + cycles * stride).min(symbols.len());
        views.push(InputView::from_symbols(symbols[pos..end].to_vec(), stride));
        pos = end;
    }
    views
}

/// Feeds every chunk under `budget`, which must never trip; returns the
/// concatenated trace and the suspended state after each chunk.
fn run_chunks(
    engine: &ShardedEngine,
    views: &[InputView],
    budget: &Budget,
) -> (Vec<ReportEvent>, Vec<ShardedState>) {
    let mut state = engine.initial_state();
    let mut trace = TraceSink::new();
    let mut states = Vec::with_capacity(views.len());
    for view in views {
        let outcome = engine.run_chunk(view, &mut trace, &mut state, budget);
        assert_eq!(
            outcome,
            RunOutcome::Completed,
            "an untripped budget completes"
        );
        states.push(state.clone());
    }
    (trace.events, states)
}

/// Records reports and cancels its token on the first one: the token is
/// then cancelled before the poll that ends that report's segment.
struct CancelOnReport {
    token: CancelToken,
    trace: TraceSink,
    first: Option<u64>,
}

impl ReportSink for CancelOnReport {
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[ReportEvent]) {
        self.trace.on_cycle_reports(cycle, reports);
        if self.first.is_none() {
            self.first = Some(cycle);
            self.token.cancel();
        }
    }

    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Never-tripping cancel budgets, every poll interval: chunked traces
    /// and suspended states equal the unbudgeted chunked run, which in
    /// turn equals one whole-input monolithic run.
    #[test]
    fn untripped_budgets_are_trace_identical(
        rules in proptest::collection::vec(rule(), 1..4),
        bytes in input(),
        chunk_seed in any::<u64>(),
    ) {
        let nfa = compile_rule_set(&rules).expect("rules compile");
        for rate in RATES {
            let nfa = configured(&nfa, rate);
            let whole = InputView::new(&bytes, nfa.symbol_bits(), nfa.stride()).expect("framing");
            let mut monolithic = TraceSink::new();
            Simulator::new(&nfa).run(&whole, &mut monolithic);
            let views = chunk_views(whole.symbols(), nfa.stride(), chunk_seed);
            for kind in EngineKind::ALL {
                for shards in [1usize, 4] {
                    let engine = ShardedEngine::with_shard_count(&nfa, shards, kind)
                        .expect("partition");
                    let (expected, expected_states) =
                        run_chunks(&engine, &views, &Budget::unlimited());
                    prop_assert_eq!(&expected, &monolithic.events, "{:?} {} {}", rate, kind, shards);
                    for interval in INTERVALS {
                        let budget = Budget::with_cancel(CancelToken::new()).check_every(interval);
                        let (got, states) = run_chunks(&engine, &views, &budget);
                        prop_assert_eq!(
                            &got, &expected,
                            "{:?} {} shards={} every={}", rate, kind, shards, interval
                        );
                        prop_assert_eq!(&states, &expected_states);
                    }
                }
            }
        }
    }

    /// A token cancelled before the first poll interrupts each chunk at
    /// one interval past the stream clock (or lets a chunk shorter than
    /// the interval complete), delivers nothing and leaves the suspended
    /// state as it was.
    #[test]
    fn cancelled_chunks_interrupt_on_the_poll_grid(
        rules in proptest::collection::vec(rule(), 1..4),
        bytes in input(),
        chunk_seed in any::<u64>(),
    ) {
        let nfa = compile_rule_set(&rules).expect("rules compile");
        for rate in RATES {
            let nfa = configured(&nfa, rate);
            let whole = InputView::new(&bytes, nfa.symbol_bits(), nfa.stride()).expect("framing");
            let views = chunk_views(whole.symbols(), nfa.stride(), chunk_seed);
            for kind in EngineKind::ALL {
                for shards in [1usize, 4] {
                    let engine = ShardedEngine::with_shard_count(&nfa, shards, kind)
                        .expect("partition");
                    for interval in INTERVALS {
                        let token = CancelToken::new();
                        token.cancel();
                        let cancelled = Budget::with_cancel(token).check_every(interval);
                        let mut state = engine.initial_state();
                        for view in &views {
                            let mut probe = state.clone();
                            let mut trace = TraceSink::new();
                            let outcome = engine.run_chunk(view, &mut trace, &mut probe, &cancelled);
                            if view.num_cycles() >= interval as usize {
                                prop_assert_eq!(
                                    outcome,
                                    RunOutcome::Interrupted {
                                        at_cycle: state.cycle() + u64::from(interval),
                                        reason: StopReason::Cancelled,
                                    },
                                    "{:?} {} shards={} every={}", rate, kind, shards, interval
                                );
                                prop_assert_eq!(&probe, &state, "interrupted chunk moved the state");
                                prop_assert!(trace.events.is_empty());
                            } else {
                                prop_assert_eq!(outcome, RunOutcome::Completed);
                            }
                            let advanced = engine.run_chunk(view, &mut TraceSink::new(), &mut state, &Budget::unlimited());
                            prop_assert!(advanced.is_complete());
                        }
                    }
                }
            }
        }
    }

    /// A token cancelled mid-run — by the sink, on the first report —
    /// trips at the next poll: the k-th, where the report's cycle falls in
    /// the k-th segment. The run stops at exactly `k × interval` cycles
    /// past where it began, with every earlier report delivered; if that
    /// poll would fall past the end of the input, the run completes.
    #[test]
    fn mid_run_cancel_interrupts_at_the_next_poll(
        rules in proptest::collection::vec(rule(), 1..4),
        bytes in input(),
        resume_at in 0usize..64,
    ) {
        let nfa = compile_rule_set(&rules).expect("rules compile");
        for rate in RATES {
            let nfa = configured(&nfa, rate);
            let whole = InputView::new(&bytes, nfa.symbol_bits(), nfa.stride()).expect("framing");
            // Resume mid-stream so the poll grid is relative to the run,
            // not the stream clock.
            let split = (resume_at * nfa.stride()).min(whole.num_symbols());
            let head = InputView::from_symbols(whole.symbols()[..split].to_vec(), nfa.stride());
            let tail = InputView::from_symbols(whole.symbols()[split..].to_vec(), nfa.stride());
            for kind in EngineKind::ALL {
                let mut reference = kind.build(&nfa);
                reference.run(&head, &mut TraceSink::new());
                let mut start = EngineState::initial();
                reference.suspend(&mut start);
                let mut expected = TraceSink::new();
                reference.run(&tail, &mut expected);
                for interval in INTERVALS {
                    let token = CancelToken::new();
                    let budget = Budget::with_cancel(token.clone()).check_every(interval);
                    let mut sink = CancelOnReport { token, trace: TraceSink::new(), first: None };
                    let mut engine = kind.build(&nfa);
                    engine.resume(&start);
                    let outcome = engine.run_budgeted(&tail, &mut sink, &budget);
                    let interval = u64::from(interval);
                    let stop = sink.first.map(|c| ((c - start.cycle) / interval + 1) * interval);
                    match stop {
                        Some(k_interval) if k_interval <= tail.num_cycles() as u64 => {
                            let at_cycle = start.cycle + k_interval;
                            prop_assert_eq!(
                                outcome,
                                RunOutcome::Interrupted { at_cycle, reason: StopReason::Cancelled },
                                "{:?} {} every={}", rate, kind, interval
                            );
                            prop_assert_eq!(engine.cycle(), at_cycle);
                            let before: Vec<ReportEvent> = expected
                                .events
                                .iter()
                                .filter(|e| e.cycle < at_cycle)
                                .copied()
                                .collect();
                            prop_assert_eq!(&sink.trace.events, &before);
                        }
                        _ => {
                            prop_assert_eq!(outcome, RunOutcome::Completed, "{:?} {}", rate, kind);
                            prop_assert_eq!(&sink.trace.events, &expected.events);
                        }
                    }
                }
            }
        }
    }
}

/// Budgeted sparse runs over input that never hits the start LUT step no
/// cycle at all: the prefilter skips all of them, through the same
/// `dyn Engine` entry point the server's chunks use, at stride 1 (the
/// slice loop) and stride 2 (the general prefiltered loop).
#[test]
fn budgeted_sparse_runs_take_the_prefilter() {
    let identity = compile_regex("ab", 0).expect("compile");
    let stride2 = transform_to_rate(&identity, Rate::Nibble2).expect("transform");
    let input = vec![b'x'; 4096];
    for nfa in [&identity, &stride2] {
        let view = InputView::new(&input, nfa.symbol_bits(), nfa.stride()).expect("framing");
        for interval in INTERVALS {
            let budget = Budget::with_cancel(CancelToken::new()).check_every(interval);
            let mut sim = Simulator::new(nfa);
            let engine: &mut dyn Engine = &mut sim;
            let outcome = engine.run_budgeted(&view, &mut TraceSink::new(), &budget);
            assert_eq!(outcome, RunOutcome::Completed);
            let cycles = view.num_cycles() as u64;
            assert_eq!(sim.cycle(), cycles);
            assert_eq!(
                sim.prefilter_skipped(),
                cycles,
                "stride {} every {interval}: every cycle skipped",
                nfa.stride()
            );
        }
    }
}
