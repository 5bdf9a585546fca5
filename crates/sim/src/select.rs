//! Compile-time engine selection.
//!
//! The sparse engine's cycle cost grows with the frontier (every active
//! state and every successor edge it walks); the dense engine's with the
//! state-vector width in 64-bit words, however few states are lit. Cold
//! rule sets (ExactMatch, Bro217) favour sparse by 6–16×; meshes and
//! always-on `.*` loops (Levenshtein, Dotstar) favour dense by 2–3×.
//!
//! [`select`] resolves an [`EngineChoice`] to one [`EngineKind`] once,
//! before any input is seen, and records why as a [`SelectReason`]. It
//! reads structural stats ([`DensityProfile`]) plus the mean sparse work
//! per cycle over [`PROBE_CYCLES`] uniformly random symbol vectors from a
//! fixed seed; no clock is read, so an automaton selects the same engine
//! on every host. The degrade ladder is part of the decision: a dense
//! pick whose tables exceed [`SelectLimits::table_budget_bytes`], or
//! whose build fails, becomes sparse with the rung as its reason.

use std::sync::Arc;

use sunder_automata::{Nfa, StartKind};
use sunder_resilience::SplitMix64;

use crate::dense::DenseEngine;
use crate::engine::Simulator;
use crate::exec::EngineKind;
use crate::fastpath::SparseTables;
use crate::sink::NullSink;

/// Symbol vectors the density probe runs.
pub const PROBE_CYCLES: usize = 8192;

/// Seed of the probe's symbol stream.
const PROBE_SEED: u64 = 0x5EED_5E1E_C7ED_0001;

/// Dense is selected when the probe's sparse work per cycle (active
/// states plus successor edges walked) is at least this many times the
/// dense state-vector width in words. On the 19-benchmark suite the
/// ratio is ≤ 0.2 wherever sparse measured faster and ≥ 1.3 wherever
/// dense did; logscan-style rule sets sit near 0.9.
const DENSE_WORK_PER_WORD: f64 = 0.6;

/// A charset is *wide* when it accepts at least half the alphabet.
const WIDE_FRACTION: usize = 2;

/// Largest dense table set the selector will choose (64 MiB).
pub const TABLE_BUDGET_BYTES: usize = 64 << 20;

/// Which engine a pipeline asks for: a fixed kind, or the selector's
/// pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineChoice {
    /// Let [`select`] resolve the engine from the automaton.
    #[default]
    Auto,
    /// Always this engine.
    Fixed(EngineKind),
}

impl EngineChoice {
    /// Every choice, for CLI help and sweeps.
    pub const ALL: [EngineChoice; 3] = [
        EngineChoice::Auto,
        EngineChoice::Fixed(EngineKind::Sparse),
        EngineChoice::Fixed(EngineKind::Dense),
    ];

    /// A short stable name (`auto`/`sparse`/`dense`).
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Auto => "auto",
            EngineChoice::Fixed(kind) => kind.name(),
        }
    }

    /// Parses the name produced by [`EngineChoice::name`].
    pub fn parse(s: &str) -> Option<EngineChoice> {
        EngineChoice::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl From<EngineKind> for EngineChoice {
    fn from(kind: EngineKind) -> EngineChoice {
        EngineChoice::Fixed(kind)
    }
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`Selection`] picked its engine. The discriminant is the stable
/// code stored in `.sdb` files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SelectReason {
    /// The caller fixed the engine.
    Requested = 0,
    /// The probe found sparse work below the dense threshold.
    SparseCheaper = 1,
    /// The probe found sparse work above the dense threshold.
    DenseCheaper = 2,
    /// Dense was cheaper, but its tables exceed the budget.
    DenseOverBudget = 3,
    /// Dense was cheaper, but building its tables failed.
    DenseBuildFailed = 4,
}

impl SelectReason {
    /// Every reason, in code order.
    pub const ALL: [SelectReason; 5] = [
        SelectReason::Requested,
        SelectReason::SparseCheaper,
        SelectReason::DenseCheaper,
        SelectReason::DenseOverBudget,
        SelectReason::DenseBuildFailed,
    ];

    /// A short stable name, e.g. `dense-over-budget`.
    pub fn name(self) -> &'static str {
        match self {
            SelectReason::Requested => "requested",
            SelectReason::SparseCheaper => "sparse-cheaper",
            SelectReason::DenseCheaper => "dense-cheaper",
            SelectReason::DenseOverBudget => "dense-over-budget",
            SelectReason::DenseBuildFailed => "dense-build-failed",
        }
    }

    /// The stable on-disk code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses [`SelectReason::code`].
    pub fn from_code(code: u64) -> Option<SelectReason> {
        SelectReason::ALL
            .into_iter()
            .find(|r| u64::from(r.code()) == code)
    }
}

impl std::fmt::Display for SelectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A resolved engine and the reason it was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Selection {
    /// The engine that runs.
    pub kind: EngineKind,
    /// Why it was chosen.
    pub reason: SelectReason,
}

impl Selection {
    /// Pairs a kind with a reason, or `None` when the reason cannot
    /// produce that kind (say, `dense-cheaper` with sparse). Loaders use
    /// this to reject inconsistent records.
    pub fn new(kind: EngineKind, reason: SelectReason) -> Option<Selection> {
        let consistent = match reason {
            SelectReason::Requested => true,
            SelectReason::DenseCheaper => kind == EngineKind::Dense,
            SelectReason::SparseCheaper
            | SelectReason::DenseOverBudget
            | SelectReason::DenseBuildFailed => kind == EngineKind::Sparse,
        };
        consistent.then_some(Selection { kind, reason })
    }

    /// The request this selection answers: `Fixed(kind)` for
    /// [`SelectReason::Requested`], [`EngineChoice::Auto`] otherwise.
    pub fn choice(self) -> EngineChoice {
        match self.reason {
            SelectReason::Requested => EngineChoice::Fixed(self.kind),
            _ => EngineChoice::Auto,
        }
    }

    /// `true` when the selector wanted dense but fell back to sparse.
    pub fn is_degraded(self) -> bool {
        matches!(
            self.reason,
            SelectReason::DenseOverBudget | SelectReason::DenseBuildFailed
        )
    }
}

impl std::fmt::Display for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.kind, self.reason)
    }
}

/// Resource limits of the selector (the degrade ladder's settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectLimits {
    /// Largest dense table set the selector may choose.
    pub table_budget_bytes: usize,
    /// Fault-injection hook: every dense build fails, so a selection
    /// that wanted dense becomes sparse with
    /// [`SelectReason::DenseBuildFailed`].
    pub fail_dense_build: bool,
}

impl Default for SelectLimits {
    fn default() -> Self {
        SelectLimits {
            table_budget_bytes: TABLE_BUDGET_BYTES,
            fail_dense_build: false,
        }
    }
}

/// The inputs of one selection: structural stats of the automaton (or
/// of every shard, summed) and the probe's density estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityProfile {
    /// Dense state-vector words per cycle, summed over parts.
    pub words: usize,
    /// All-input start states.
    pub all_input_starts: usize,
    /// States with a self-loop whose charsets are all wide.
    pub wide_self_loops: usize,
    /// All-input starts that are also wide self-loops: once lit, they
    /// stay lit on almost any traffic.
    pub always_on: usize,
    /// Mean frontier size per probe cycle.
    pub probe_active: f64,
    /// Mean sparse work per probe cycle: active states plus the
    /// successor edges they fan out to.
    pub probe_work: f64,
}

impl DensityProfile {
    /// Profiles a set of disjoint automata that execute over the same
    /// stream (the shards of one plan), each with its compiled sparse
    /// tables. The parts must share symbol width and stride.
    pub(crate) fn of_parts(parts: &[(&Nfa, &Arc<SparseTables>)]) -> DensityProfile {
        let mut p = DensityProfile {
            words: 0,
            all_input_starts: 0,
            wide_self_loops: 0,
            always_on: 0,
            probe_active: 0.0,
            probe_work: 0.0,
        };
        let Some((first, _)) = parts.first() else {
            return p;
        };
        let vectors = probe_vectors(first.symbol_bits(), first.stride());
        for (nfa, tables) in parts {
            p.words += nfa.num_states().div_ceil(64);
            let wide = 1usize << nfa.symbol_bits();
            for (id, ste) in nfa.states() {
                let start = ste.start_kind() == StartKind::AllInput;
                let looped = nfa.successors(id).contains(&id)
                    && ste
                        .charsets()
                        .iter()
                        .all(|c| c.len() * WIDE_FRACTION >= wide);
                p.all_input_starts += usize::from(start);
                p.wide_self_loops += usize::from(looped);
                p.always_on += usize::from(start && looped);
            }
            let (active, work) = probe(nfa, tables, &vectors);
            p.probe_active += active;
            p.probe_work += work;
        }
        p
    }

    /// Profiles one automaton (builds its sparse tables).
    pub fn of(nfa: &Nfa) -> DensityProfile {
        DensityProfile::of_parts(&[(nfa, &Arc::new(SparseTables::build(nfa)))])
    }

    /// Whether the cost model prefers dense: the probe's sparse work per
    /// cycle, floored by the always-on states, reaches
    /// `DENSE_WORK_PER_WORD` per dense word.
    pub fn prefers_dense(&self) -> bool {
        self.words > 0
            && self.probe_work.max(self.always_on as f64) >= DENSE_WORK_PER_WORD * self.words as f64
    }
}

/// The probe's symbol vectors: [`PROBE_CYCLES`] vectors of `stride`
/// symbols, uniform over the `2^bits` alphabet, from a fixed seed.
fn probe_vectors(bits: u8, stride: usize) -> Vec<u16> {
    let mut rng = SplitMix64::new(PROBE_SEED);
    let mask = (1u64 << bits) - 1;
    (0..PROBE_CYCLES * stride)
        .map(|_| (rng.next() & mask) as u16)
        .collect()
}

/// Runs the sparse engine over the probe; returns mean (active, work)
/// per cycle.
fn probe(nfa: &Nfa, tables: &Arc<SparseTables>, vectors: &[u16]) -> (f64, f64) {
    let stride = nfa.stride();
    let mut sim = Simulator::with_tables(nfa, Arc::clone(tables));
    let (mut active, mut work) = (0usize, 0usize);
    for v in vectors.chunks_exact(stride) {
        sim.step(v, stride, &mut NullSink);
        let frontier = sim.active_states();
        active += frontier.len();
        work += frontier.len()
            + frontier
                .iter()
                .map(|&s| nfa.successors(s).len())
                .sum::<usize>();
    }
    let cycles = (vectors.len() / stride.max(1)).max(1) as f64;
    (active as f64 / cycles, work as f64 / cycles)
}

/// Resolves `choice` for a set of parts (see `DensityProfile::of_parts`).
/// A fixed choice is honoured as is, without a probe.
pub(crate) fn select_parts(
    parts: &[(&Nfa, &Arc<SparseTables>)],
    choice: EngineChoice,
    limits: &SelectLimits,
) -> Selection {
    match choice {
        EngineChoice::Fixed(kind) => Selection {
            kind,
            reason: SelectReason::Requested,
        },
        EngineChoice::Auto => {
            let reason = if !DensityProfile::of_parts(parts).prefers_dense() {
                SelectReason::SparseCheaper
            } else if !dense_fits(parts, limits.table_budget_bytes) {
                SelectReason::DenseOverBudget
            } else if limits.fail_dense_build {
                SelectReason::DenseBuildFailed
            } else {
                SelectReason::DenseCheaper
            };
            let kind = match reason {
                SelectReason::DenseCheaper => EngineKind::Dense,
                _ => EngineKind::Sparse,
            };
            let selection = Selection { kind, reason };
            if selection.is_degraded() {
                sunder_telemetry::counter_add("engine_degrades_total", &[], 1);
                sunder_telemetry::instant("engine.degrade", &[("reason", reason.name().into())]);
            }
            selection
        }
    }
}

/// Whether the parts' dense tables fit `budget`. The conservative
/// unclassed size is tried first; only when it does not fit is the exact
/// byte-classed size computed.
fn dense_fits(parts: &[(&Nfa, &Arc<SparseTables>)], budget: usize) -> bool {
    let total = |size: fn(&Nfa) -> usize| parts.iter().map(|(nfa, _)| size(nfa)).sum::<usize>();
    total(DenseEngine::table_bytes) <= budget || total(DenseEngine::classed_table_bytes) <= budget
}

/// Resolves `choice` for one automaton.
pub fn select(nfa: &Nfa, choice: EngineChoice, limits: &SelectLimits) -> Selection {
    match choice {
        EngineChoice::Auto => {
            let tables = Arc::new(SparseTables::build(nfa));
            select_parts(&[(nfa, &tables)], choice, limits)
        }
        // A fixed choice never probes.
        EngineChoice::Fixed(_) => select_parts(&[], choice, limits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::{compile_regex, compile_rule_set};

    fn auto(nfa: &Nfa) -> Selection {
        select(nfa, EngineChoice::Auto, &SelectLimits::default())
    }

    #[test]
    fn names_and_codes_round_trip() {
        for choice in EngineChoice::ALL {
            assert_eq!(EngineChoice::parse(choice.name()), Some(choice));
        }
        assert_eq!(EngineChoice::parse("adaptive"), None);
        for reason in SelectReason::ALL {
            assert_eq!(SelectReason::from_code(reason.code().into()), Some(reason));
        }
        assert_eq!(SelectReason::from_code(99), None);
    }

    #[test]
    fn fixed_choices_are_honoured_and_recorded() {
        let nfa = compile_regex(".*ab", 0).unwrap();
        for kind in EngineKind::ALL {
            let limits = SelectLimits {
                table_budget_bytes: 0,
                fail_dense_build: true,
            };
            let sel = select(&nfa, kind.into(), &limits);
            assert_eq!(sel, Selection::new(kind, SelectReason::Requested).unwrap());
            assert_eq!(sel.choice(), EngineChoice::Fixed(kind));
        }
    }

    #[test]
    fn cold_literals_select_sparse() {
        let nfa = compile_rule_set(&["GET /index", "POST /login", "xyzzy"]).unwrap();
        let sel = auto(&nfa);
        assert_eq!(sel.kind, EngineKind::Sparse);
        assert_eq!(sel.reason, SelectReason::SparseCheaper);
        assert_eq!(sel.choice(), EngineChoice::Auto);
    }

    #[test]
    fn always_on_loops_select_dense() {
        let nfa = compile_rule_set(&[".*a.*b", ".*c.*d", ".*e"]).unwrap();
        let profile = DensityProfile::of(&nfa);
        assert!(profile.always_on >= 3, "{profile:?}");
        assert!(profile.prefers_dense(), "{profile:?}");
        assert_eq!(
            auto(&nfa),
            Selection::new(EngineKind::Dense, SelectReason::DenseCheaper).unwrap()
        );
    }

    #[test]
    fn degrade_ladder_falls_back_to_sparse_with_its_reason() {
        let nfa = compile_rule_set(&[".*a.*b", ".*c.*d", ".*e"]).unwrap();
        let over = SelectLimits {
            table_budget_bytes: DenseEngine::classed_table_bytes(&nfa) - 1,
            fail_dense_build: false,
        };
        let sel = select(&nfa, EngineChoice::Auto, &over);
        assert_eq!(sel.kind, EngineKind::Sparse);
        assert_eq!(sel.reason, SelectReason::DenseOverBudget);
        assert!(sel.is_degraded());

        // Exactly at the classed size the tables fit.
        let fits = SelectLimits {
            table_budget_bytes: DenseEngine::classed_table_bytes(&nfa),
            fail_dense_build: false,
        };
        assert_eq!(
            select(&nfa, EngineChoice::Auto, &fits).kind,
            EngineKind::Dense
        );

        let failing = SelectLimits {
            fail_dense_build: true,
            ..SelectLimits::default()
        };
        let sel = select(&nfa, EngineChoice::Auto, &failing);
        assert_eq!(sel.kind, EngineKind::Sparse);
        assert_eq!(sel.reason, SelectReason::DenseBuildFailed);
    }

    #[test]
    fn selection_is_deterministic() {
        let nfa = compile_rule_set(&["[0-9]{3}", ".*net", "ab+c"]).unwrap();
        assert_eq!(DensityProfile::of(&nfa), DensityProfile::of(&nfa));
    }

    #[test]
    fn empty_automaton_selects_sparse() {
        let nfa = Nfa::new(8);
        assert_eq!(auto(&nfa).kind, EngineKind::Sparse);
        assert_eq!(DensityProfile::of_parts(&[]).words, 0);
    }

    #[test]
    fn inconsistent_records_are_rejected() {
        assert!(Selection::new(EngineKind::Sparse, SelectReason::DenseCheaper).is_none());
        assert!(Selection::new(EngineKind::Dense, SelectReason::SparseCheaper).is_none());
        assert!(Selection::new(EngineKind::Dense, SelectReason::DenseOverBudget).is_none());
        assert!(Selection::new(EngineKind::Dense, SelectReason::Requested).is_some());
    }
}
