//! The reference executor: on-the-fly subset construction over the
//! original automaton.
//!
//! Everything else in this repository that *executes* automata — the
//! sparse and dense engines, and the cycle-level machine —
//! shares `sunder-sim`'s three-stage NFA cycle model, so a bug in that
//! shared semantics (or in the transformations feeding it) would pass
//! every differential test the engines run against each other. This
//! module is the independent second opinion: a deliberately simple,
//! deliberately slow executor that determinizes the *original* automaton
//! lazily (classic on-the-fly subset construction, memoizing one
//! transition at a time) and emits the canonical report trace the whole
//! pipeline must preserve.
//!
//! It deliberately shares no execution code with `sunder-sim`: the only
//! things it uses from the rest of the workspace are the [`Nfa`] data
//! model and the input-stream splitter.

use std::collections::HashMap;

use sunder_automata::input::InputView;
use sunder_automata::{AutomataError, Nfa, StartKind, StateId};

/// The canonical trace: sorted, deduplicated `(symbol position, report id)`
/// pairs over the original symbol stream.
pub type OracleTrace = Vec<(u64, u32)>;

/// A lazy subset-construction executor for one stride-1 automaton.
///
/// Interned subsets and memoized transitions persist across
/// [`ReferenceOracle::trace`] calls, so running many inputs over the same
/// automaton (the fuzzer's shrinking loop) amortizes the construction.
///
/// # Examples
///
/// ```
/// use sunder_automata::regex::compile_regex;
/// use sunder_oracle::ReferenceOracle;
///
/// let nfa = compile_regex("ab", 3)?;
/// let mut oracle = ReferenceOracle::new(&nfa)?;
/// assert_eq!(oracle.trace(b"xabab")?, vec![(2, 3), (4, 3)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ReferenceOracle<'a> {
    nfa: &'a Nfa,
    all_input: Vec<StateId>,
    sod: Vec<StateId>,
    start_period: u64,
    /// Interned active-state subsets (each sorted ascending).
    subsets: Vec<Vec<u32>>,
    /// Sorted, deduplicated report ids fired on entering each subset.
    subset_reports: Vec<Vec<u32>>,
    ids: HashMap<Vec<u32>, u32>,
    /// Memoized transitions: `(subset, start-aligned cycle?, symbol)`.
    trans: HashMap<(u32, bool, u16), u32>,
}

impl<'a> ReferenceOracle<'a> {
    /// Prepares the oracle for a stride-1 automaton of any symbol width.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::StrideMismatch`] for strided automata: the
    /// oracle's job is to pin down the semantics of the *original*
    /// automaton, before any transformation.
    pub fn new(nfa: &'a Nfa) -> Result<Self, AutomataError> {
        if nfa.stride() != 1 {
            return Err(AutomataError::StrideMismatch {
                expected: 1,
                found: nfa.stride(),
            });
        }
        let mut all_input = Vec::new();
        let mut sod = Vec::new();
        for (id, ste) in nfa.states() {
            match ste.start_kind() {
                StartKind::AllInput => all_input.push(id),
                StartKind::StartOfData => sod.push(id),
                StartKind::None => {}
            }
        }
        let mut oracle = ReferenceOracle {
            nfa,
            all_input,
            sod,
            start_period: u64::from(nfa.start_period()),
            subsets: Vec::new(),
            subset_reports: Vec::new(),
            ids: HashMap::new(),
            trans: HashMap::new(),
        };
        // Subset 0 is the empty active set (also the dead state).
        oracle.intern(Vec::new());
        Ok(oracle)
    }

    /// The automaton the oracle executes.
    pub fn nfa(&self) -> &Nfa {
        self.nfa
    }

    /// Number of subsets materialized so far (grows lazily with traced
    /// inputs; bounded by the full subset construction's state count).
    pub fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    fn intern(&mut self, set: Vec<u32>) -> u32 {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "subset must be sorted");
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.subsets.len() as u32;
        let mut reports: Vec<u32> = set
            .iter()
            .flat_map(|&s| self.nfa.state(StateId(s)).reports().iter().map(|r| r.id))
            .collect();
        reports.sort_unstable();
        reports.dedup();
        self.ids.insert(set.clone(), id);
        self.subsets.push(set);
        self.subset_reports.push(reports);
        id
    }

    /// Computes the subset reached from `current` on `symbol`, with
    /// all-input starts enabled iff `aligned` (and start-of-data starts
    /// iff `initial`). Memoized except for the one-off initial step.
    fn step(&mut self, current: u32, aligned: bool, initial: bool, symbol: u16) -> u32 {
        if !initial {
            if let Some(&next) = self.trans.get(&(current, aligned, symbol)) {
                return next;
            }
        }
        let mut enabled: Vec<u32> = Vec::new();
        for &s in &self.subsets[current as usize] {
            enabled.extend(self.nfa.successors(StateId(s)).iter().map(|t| t.0));
        }
        if aligned {
            enabled.extend(self.all_input.iter().map(|s| s.0));
        }
        if initial {
            enabled.extend(self.sod.iter().map(|s| s.0));
        }
        enabled.sort_unstable();
        enabled.dedup();
        enabled.retain(|&s| self.nfa.state(StateId(s)).charset().contains(symbol));
        let next = self.intern(enabled);
        if !initial {
            self.trans.insert((current, aligned, symbol), next);
        }
        next
    }

    /// Executes the automaton over `bytes` and returns the canonical
    /// trace: sorted, deduplicated `(symbol position, report id)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if the byte stream cannot be viewed at the
    /// automaton's symbol width (see [`InputView::new`]).
    pub fn trace(&mut self, bytes: &[u8]) -> Result<OracleTrace, AutomataError> {
        let view = InputView::new(bytes, self.nfa.symbol_bits(), 1)?;
        let mut out: OracleTrace = Vec::new();
        let mut current = 0u32; // empty set
        for (cycle, v) in view.iter_ref().enumerate() {
            let cycle = cycle as u64;
            let aligned = cycle.is_multiple_of(self.start_period);
            current = self.step(current, aligned, cycle == 0, v.symbols[0]);
            for &id in &self.subset_reports[current as usize] {
                out.push((cycle, id));
            }
        }
        // Already sorted by position, ids sorted and unique within a
        // position — the canonical form by construction.
        Ok(out)
    }
}

/// One-shot convenience: the canonical trace of `nfa` over `bytes`.
///
/// # Errors
///
/// See [`ReferenceOracle::new`] and [`ReferenceOracle::trace`].
pub fn oracle_trace(nfa: &Nfa, bytes: &[u8]) -> Result<OracleTrace, AutomataError> {
    ReferenceOracle::new(nfa)?.trace(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::{compile_regex, compile_rule_set};
    use sunder_automata::{Ste, SymbolSet};

    #[test]
    fn literal_positions() {
        let nfa = compile_regex("a", 1).unwrap();
        assert_eq!(
            oracle_trace(&nfa, b"aXaa").unwrap(),
            vec![(0, 1), (2, 1), (3, 1)]
        );
    }

    #[test]
    fn anchored_fires_once() {
        let nfa = compile_regex("^ab", 0).unwrap();
        assert_eq!(oracle_trace(&nfa, b"abab").unwrap(), vec![(1, 0)]);
        assert!(oracle_trace(&nfa, b"xab").unwrap().is_empty());
    }

    #[test]
    fn anchor_does_not_rearm_after_dead_state() {
        let nfa = compile_regex("^ab", 0).unwrap();
        assert!(oracle_trace(&nfa, b"x ab ab").unwrap().is_empty());
    }

    #[test]
    fn overlapping_and_multi_pattern() {
        let nfa = compile_rule_set(&["aa", "a"]).unwrap();
        assert_eq!(
            oracle_trace(&nfa, b"aaa").unwrap(),
            vec![(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        );
    }

    #[test]
    fn duplicate_report_ids_dedup_per_position() {
        // Two states reporting the same id active at the same cycle must
        // collapse to one trace entry.
        let nfa = compile_rule_set(&["ab", ".b"]).unwrap();
        let trace = oracle_trace(&nfa, b"ab").unwrap();
        assert_eq!(trace, vec![(1, 0), (1, 1)]);
    }

    #[test]
    fn start_period_gates_all_input_starts() {
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        nfa.add_state(
            Ste::new(SymbolSet::singleton(4, 1))
                .start(StartKind::AllInput)
                .report(0),
        );
        // Nibble stream of 0x11 0x11: symbol 1 at positions 0..4, but
        // starts are enabled only at even positions.
        let trace = oracle_trace(&nfa, &[0x11, 0x11]).unwrap();
        assert_eq!(trace, vec![(0, 0), (2, 0)]);
    }

    #[test]
    fn rejects_strided_automata() {
        let mut nfa = Nfa::with_stride(4, 2);
        nfa.add_state(Ste::with_charsets(vec![
            SymbolSet::full(4),
            SymbolSet::full(4),
        ]));
        assert!(ReferenceOracle::new(&nfa).is_err());
    }

    #[test]
    fn memoization_is_transparent() {
        let nfa = compile_regex("a[ab]*b", 5).unwrap();
        let mut oracle = ReferenceOracle::new(&nfa).unwrap();
        let first = oracle.trace(b"aabbaabb").unwrap();
        let warm = oracle.trace(b"aabbaabb").unwrap();
        assert_eq!(first, warm);
        assert!(oracle.num_subsets() >= 2);
    }

    #[test]
    fn empty_input_empty_trace() {
        let nfa = compile_regex("a", 0).unwrap();
        assert!(oracle_trace(&nfa, b"").unwrap().is_empty());
        assert_eq!(oracle_trace(&nfa, b"").unwrap(), OracleTrace::new());
    }

    #[test]
    fn agrees_with_simulator_on_regexes() {
        // Not the conformance gate itself (that is `check`), just a quick
        // self-check that the two independent semantics line up here too.
        for (pattern, input) in [
            ("a[0-9]+b", b"a123b a9 b ab a5b".as_slice()),
            (".*zz", b"azzbzzz"),
            ("(ab|bc)+", b"ababcbcab"),
            ("x.y", b"xay xxy x\xFFy"),
        ] {
            let nfa = compile_regex(pattern, 0).unwrap();
            let sim = sunder_sim::run_trace(&nfa, input)
                .unwrap()
                .position_id_pairs(1);
            assert_eq!(oracle_trace(&nfa, input).unwrap(), sim, "{pattern}");
        }
    }
}
