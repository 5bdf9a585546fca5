//! Regression locks for the single-stream fast path.
//!
//! The prefilter's skip accounting is the foundation of the suite's
//! wall-clock numbers, so its telemetry counter must agree with a
//! hand-computed input exactly.
//!
//! The telemetry test owns the process-global recorder; keep it the only
//! test in this binary that calls `sunder_telemetry::init`.

use sunder_automata::regex::compile_regex;
use sunder_automata::InputView;
use sunder_sim::{EngineKind, TraceSink};

/// The `prefilter_skipped_total` counter must match the same hand
/// simulation that pins `Simulator::prefilter_skipped`, and the
/// build-time `state_encodings_total{kind}` histogram must reflect the
/// automaton's charsets.
#[test]
fn prefilter_and_encoding_telemetry_match_hand_computed_input() {
    // "ab" unanchored: the only all-input start accepts 'a', so the LUT
    // is exactly {'a'}. Hand simulation of b"xxxxabxxxa":
    //   cycles 0-3  'x' with empty frontier  -> skipped (4)
    //   cycle  4    'a' LUT hit              -> stepped
    //   cycle  5    'b', frontier non-empty  -> stepped, reports
    //   cycle  6    'x', frontier non-empty  -> stepped, frontier dies
    //   cycles 7-8  'x' with empty frontier  -> skipped (2)
    //   cycle  9    'a' LUT hit              -> stepped
    let nfa = compile_regex("ab", 0).expect("compile");
    let input = InputView::new(b"xxxxabxxxa", 8, 1).expect("framing");

    sunder_telemetry::init(sunder_telemetry::Config::metrics());
    let mut engine = EngineKind::Sparse.build(&nfa);
    let mut trace = TraceSink::new();
    engine.run(&input, &mut trace);
    let dump = sunder_telemetry::finish().expect("telemetry session");

    assert_eq!(trace.cycle_id_pairs(), vec![(5, 0)]);
    assert_eq!(
        dump.metrics.counter("prefilter_skipped_total", &[]),
        Some(6),
        "4 + 2 skipped cycles"
    );
    // Both states ('a' and 'b') hold single-symbol charsets.
    assert_eq!(
        dump.metrics
            .counter("state_encodings_total", &[("kind", "one")]),
        Some(2)
    );
}
