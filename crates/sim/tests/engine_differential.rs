//! Differential testing of the execution engines: on arbitrary homogeneous
//! NFAs — strided, start-period-gated, with reports at arbitrary offsets —
//! and arbitrary inputs (including a partial final vector, i.e. padding),
//! the sparse and dense bit-parallel engines, and whichever engine the
//! compile-time selector picks, must produce byte-identical report traces.

use proptest::prelude::*;

use sunder_automata::{InputView, Nfa, StartKind, Ste, SymbolSet};
use sunder_sim::{DenseEngine, EngineChoice, ShardedEngine, Simulator, TraceSink};

/// 4-bit symbols: a 16-symbol alphabet keeps random charsets dense enough
/// that frontiers actually light up (and the selector picks dense).
const BITS: u8 = 4;
const ALPHABET: u16 = 16;

/// One random state: charset shape per stride position, start kind,
/// report flag, and an edge target (modulo the final state count).
type StateSpec = (u8, u16, u16, u8, bool, u16);

fn state_spec() -> impl Strategy<Value = StateSpec> {
    (
        0u8..4,
        0u16..ALPHABET,
        0u16..ALPHABET,
        0u8..3,
        any::<bool>(),
        0u16..64,
    )
}

fn charset(kind: u8, a: u16, b: u16) -> SymbolSet {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match kind % 4 {
        0 => SymbolSet::full(BITS),
        1 => SymbolSet::singleton(BITS, a),
        2 => SymbolSet::range(BITS, lo, hi),
        _ => SymbolSet::from_symbols(BITS, [a, b, (a ^ b) % ALPHABET]),
    }
}

fn build_nfa(stride: usize, period: u32, specs: &[StateSpec]) -> Nfa {
    let mut nfa = Nfa::with_stride(BITS, stride);
    nfa.set_start_period(period);
    let mut ids = Vec::new();
    for (i, &(kind, a, b, start, report, _)) in specs.iter().enumerate() {
        // Vary the charset per stride position so positions are distinct.
        let charsets = (0..stride)
            .map(|j| charset(kind.wrapping_add(j as u8), (a + j as u16) % ALPHABET, b))
            .collect();
        let mut ste = Ste::with_charsets(charsets);
        ste = match start % 3 {
            0 => ste,
            1 => ste.start(StartKind::AllInput),
            _ => ste.start(StartKind::StartOfData),
        };
        if report {
            // Spread report offsets across the stride positions so the
            // engines' padding suppression is exercised.
            ste = ste.report_at(i as u32, (a as u8) % stride as u8);
        }
        ids.push(nfa.add_state(ste));
    }
    for (i, &(.., target)) in specs.iter().enumerate() {
        let t = target as usize % specs.len();
        nfa.add_edge(ids[i], ids[t]);
        // A second edge gives the graph real fan-out.
        if specs.len() > 1 {
            nfa.add_edge(ids[i], ids[(i + 1) % specs.len()]);
        }
    }
    nfa
}

fn traces(nfa: &Nfa, input: &InputView) -> [Vec<sunder_sim::ReportEvent>; 3] {
    let mut sparse = TraceSink::new();
    Simulator::new(nfa).run(input, &mut sparse);
    let mut dense = TraceSink::new();
    DenseEngine::new(nfa).run(input, &mut dense);
    let mut selected = TraceSink::new();
    ShardedEngine::with_shard_count(nfa, 1, EngineChoice::Auto)
        .unwrap()
        .run(input, &mut selected);
    [sparse.events, dense.events, selected.events]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_on_random_nfas(
        stride in 1usize..=3,
        period in 1u32..=4,
        specs in proptest::collection::vec(state_spec(), 1..40),
        input in proptest::collection::vec(0u16..ALPHABET, 0..300),
    ) {
        let nfa = build_nfa(stride, period, &specs);
        // `from_symbols` pads the final partial vector when the input
        // length is not a stride multiple.
        let view = InputView::from_symbols(input, stride);
        let [sparse, dense, selected] = traces(&nfa, &view);
        prop_assert_eq!(&sparse, &dense, "sparse vs dense diverged");
        prop_assert_eq!(&sparse, &selected, "sparse vs selected diverged");
    }
}

/// Deterministic regression: a strided automaton with a start period and a
/// partial final vector — every special path at once.
#[test]
fn strided_padded_periodic() {
    let specs: Vec<StateSpec> = vec![
        (0, 3, 9, 1, true, 1),
        (1, 7, 2, 0, false, 2),
        (2, 1, 12, 2, true, 0),
        (3, 5, 5, 1, true, 4),
        (1, 15, 0, 0, true, 3),
    ];
    let nfa = build_nfa(2, 3, &specs);
    // 11 symbols over stride 2: the sixth vector carries one valid symbol.
    let input = InputView::from_symbols(vec![3, 7, 1, 5, 15, 9, 2, 3, 3, 7, 1], 2);
    let [sparse, dense, selected] = traces(&nfa, &input);
    assert_eq!(sparse, dense);
    assert_eq!(sparse, selected);
}
