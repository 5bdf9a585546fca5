//! Fixed expectations for the compile-time engine selector on the suite
//! benchmarks whose winner is not in doubt. Dense measured 2.7–2.9×
//! faster on Levenshtein and the Dotstar sets; sparse measured 5–16×
//! faster on Bro217, ExactMatch and Brill, and 4.7× on Snort (see
//! `BENCH_engine.json`). The selector reads no clock, so these choices
//! hold on every host and at every scale the tests build.

use sunder_sim::{
    select, DenseEngine, DensityProfile, EngineChoice, EngineKind, SelectLimits, SelectReason,
};
use sunder_workloads::{Benchmark, Scale};

fn auto(bench: Benchmark, scale: Scale) -> (EngineKind, SelectReason, DensityProfile) {
    let nfa = bench.build(scale).nfa;
    let sel = select(&nfa, EngineChoice::Auto, &SelectLimits::default());
    (sel.kind, sel.reason, DensityProfile::of(&nfa))
}

#[test]
fn selector_picks_the_measured_winner() {
    for scale in [Scale::tiny(), Scale::small()] {
        for (bench, kind) in [
            (Benchmark::Levenshtein, EngineKind::Dense),
            (Benchmark::Dotstar03, EngineKind::Dense),
            (Benchmark::Bro217, EngineKind::Sparse),
            (Benchmark::ExactMatch, EngineKind::Sparse),
            (Benchmark::Snort, EngineKind::Sparse),
            (Benchmark::Brill, EngineKind::Sparse),
        ] {
            let (got, reason, profile) = auto(bench, scale);
            assert_eq!(got, kind, "{bench} at {scale:?}: {profile:?}");
            let expected_reason = match kind {
                EngineKind::Dense => SelectReason::DenseCheaper,
                EngineKind::Sparse => SelectReason::SparseCheaper,
            };
            assert_eq!(reason, expected_reason, "{bench}");
        }
    }
}

#[test]
fn over_budget_dense_winner_selects_sparse_with_its_reason() {
    let nfa = Benchmark::Levenshtein.build(Scale::small()).nfa;
    let limits = SelectLimits {
        table_budget_bytes: DenseEngine::classed_table_bytes(&nfa) / 2,
        fail_dense_build: false,
    };
    let sel = select(&nfa, EngineChoice::Auto, &limits);
    assert_eq!(sel.kind, EngineKind::Sparse);
    assert_eq!(sel.reason, SelectReason::DenseOverBudget);
}
