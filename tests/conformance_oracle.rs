//! Mutation smoke tests for the conformance oracle: deliberately corrupt
//! a transformed automaton and assert the checker catches every class of
//! injected bug. A conformance layer that cannot detect a planted
//! divergence is worse than none — these tests are the oracle's own
//! oracle.

use sunder::automata::regex::{compile_regex, compile_rule_set};
use sunder::automata::ReportInfo;
use sunder::oracle::check::check_workload;
use sunder::oracle::fuzz::{parse_reproducer, render_reproducer, run_fuzz, Failure, FuzzOptions};
use sunder::oracle::{
    check_pipelines, compare_transformed, oracle_trace, Divergence, PipelineConfig,
};
use sunder::sim::EngineKind;
use sunder::{Benchmark, Scale};

#[test]
fn clean_pipelines_conform() {
    let nfa = compile_rule_set(&["ab+c", "x[^a]y", "(ab|bc){2}"]).unwrap();
    check_pipelines(&nfa, b"abbc xby xay ababbcbc").unwrap();
}

#[test]
fn one_suite_workload_conforms_end_to_end() {
    // The full 19-benchmark sweep runs in the release-mode `conformance`
    // binary; one representative workload keeps debug test time bounded.
    let w = Benchmark::Bro217.build(Scale {
        state_fraction: 0.01,
        input_len: 1500,
    });
    check_workload(&w).unwrap();
}

/// Injected bug class 1: a report attached to a mid-symbol (high-nibble)
/// state. The checker must flag the misaligned position rather than
/// silently rounding it to an original symbol.
#[test]
fn detects_report_on_high_nibble_state() {
    let nfa = compile_regex("ab", 0).unwrap();
    let expected = oracle_trace(&nfa, b"abab").unwrap();
    let config = PipelineConfig::Nibble;
    let (mut transformed, map) = config.apply(&nfa).unwrap();

    // Find a state that never reports — in the nibble chain that is a
    // high-nibble state — and make it report.
    let victim = transformed
        .states()
        .find(|(_, s)| !s.is_reporting())
        .map(|(id, _)| id)
        .expect("nibble chains contain non-reporting states");
    transformed.state_mut(victim).add_report(ReportInfo::new(9));

    let err = compare_transformed(
        &expected,
        &transformed,
        map,
        config,
        EngineKind::Sparse,
        b"abab",
    )
    .unwrap_err();
    assert!(
        err.detail.contains("misaligned") || !err.spurious.is_empty(),
        "high-nibble report not caught: {err}"
    );
}

/// Injected bug class 2: a strided report offset shifted by one vector
/// lane — the exact mistake the striding transform's offset bookkeeping
/// guards against.
#[test]
fn detects_shifted_stride_offset() {
    let nfa = compile_regex("ab", 0).unwrap();
    let input = b"abab";
    let expected = oracle_trace(&nfa, input).unwrap();
    let config = PipelineConfig::Stride4;
    let (transformed, map) = config.apply(&nfa).unwrap();

    let mut caught = 0;
    for victim in transformed.report_states() {
        let mut mutant = transformed.clone();
        let reports: Vec<ReportInfo> = mutant.state(victim).reports().to_vec();
        mutant.state_mut(victim).clear_reports();
        for r in &reports {
            let shifted = if r.offset == 0 {
                r.offset + 1
            } else {
                r.offset - 1
            };
            mutant
                .state_mut(victim)
                .add_report(ReportInfo::at_offset(r.id, shifted));
        }
        for kind in EngineKind::ALL {
            if compare_transformed(&expected, &mutant, map, config, kind, input).is_err() {
                caught += 1;
            }
        }
    }
    assert!(caught > 0, "no engine caught any shifted report offset");
}

/// Injected bug class 3: dropped reports (a transform that loses a
/// reporting exit). The diff must list them as missing.
#[test]
fn detects_dropped_reports() {
    let nfa = compile_rule_set(&["abc", "bcd"]).unwrap();
    let input = b"abcd abcd";
    let expected = oracle_trace(&nfa, input).unwrap();
    let config = PipelineConfig::Stride2;
    let (mut transformed, map) = config.apply(&nfa).unwrap();

    for victim in transformed.report_states() {
        transformed.state_mut(victim).clear_reports();
    }
    let err = compare_transformed(
        &expected,
        &transformed,
        map,
        config,
        EngineKind::Dense,
        input,
    )
    .unwrap_err();
    assert_eq!(
        err.missing.len(),
        expected.len(),
        "all reports must be missing"
    );
    assert!(err.spurious.is_empty());
}

/// Injected bug class 4: a corrupted charset in the transformed automaton
/// (the nibble decomposition matching the wrong symbols), surfacing as
/// spurious and/or missing reports.
#[test]
fn detects_corrupted_charset() {
    let nfa = compile_regex("ab", 0).unwrap();
    let input = b"ab ax";
    let expected = oracle_trace(&nfa, input).unwrap();
    let config = PipelineConfig::Nibble;
    let (mut transformed, map) = config.apply(&nfa).unwrap();

    // Widen every charset to full: the mutant over-matches.
    let ids: Vec<_> = transformed.states().map(|(id, _)| id).collect();
    for id in ids {
        for cs in transformed.state_mut(id).charsets_mut() {
            *cs = sunder::SymbolSet::full(4);
        }
    }
    let err = compare_transformed(
        &expected,
        &transformed,
        map,
        config,
        EngineKind::Dense,
        input,
    )
    .unwrap_err();
    assert!(
        !err.spurious.is_empty(),
        "over-matching mutant not caught: {err}"
    );
}

/// The whole fuzz→shrink→reproduce loop on a planted divergence: the
/// checker wrapped by the fuzzer must catch a mutant automaton, and the
/// reproducer file must replay to the same verdict.
#[test]
fn reproducer_replays_to_same_verdict() {
    let (nfa, input) = {
        let nfa = compile_regex("abc", 2).unwrap();
        (nfa, b"abcabc".to_vec())
    };
    check_pipelines(&nfa, &input).unwrap();

    // Mutate the *original* automaton's report id after taking the
    // oracle trace of the unmutated one — equivalent to a transform that
    // renames report ids.
    let expected = oracle_trace(&nfa, &input).unwrap();
    let config = PipelineConfig::Identity;
    let (mut transformed, map) = config.apply(&nfa).unwrap();
    let victim = transformed.report_states()[0];
    transformed.state_mut(victim).clear_reports();
    transformed.state_mut(victim).add_report(ReportInfo::new(7));
    let divergence = compare_transformed(
        &expected,
        &transformed,
        map,
        config,
        EngineKind::Sparse,
        &input,
    )
    .unwrap_err();
    assert!(!divergence.missing.is_empty() && !divergence.spurious.is_empty());

    let failure = Failure {
        case: 0,
        nfa: transformed.clone(),
        input: input.clone(),
        divergence,
    };
    let text = render_reproducer(&failure);
    let (back_nfa, back_input) = parse_reproducer(&text).unwrap();
    assert_eq!(back_nfa, transformed);
    assert_eq!(back_input, input);
}

#[test]
fn fuzzer_smoke_runs_clean() {
    let outcome = run_fuzz(&FuzzOptions {
        seed: 7,
        cases: 25,
        ..FuzzOptions::default()
    });
    assert_eq!(outcome.cases, 25);
    assert!(
        outcome.failures.is_empty(),
        "pipeline divergence found by fuzzer: {}",
        outcome.failures[0].divergence
    );
}

#[test]
fn divergence_is_a_std_error() {
    fn assert_error<E: std::error::Error>() {}
    assert_error::<Divergence>();
}
