//! The engine abstraction: one automaton executor, many implementations.
//!
//! The repository ships two functional engines with identical observable
//! behavior (byte-identical report traces for the same automaton/input):
//!
//! * [`Simulator`](crate::Simulator) — the *sparse* frontier engine: per
//!   cycle cost proportional to the enabled candidate set. Wins when few
//!   states are active (cold rule sets, anchored patterns).
//! * [`DenseEngine`](crate::DenseEngine) — the *bit-parallel* engine: the
//!   whole state set is a bit vector and one cycle is a handful of wide
//!   word operations, mirroring the subarray's row-read/AND pipeline.
//!   Wins when many states are active (meshes, hot classes).
//!
//! [`EngineKind`] names them for configuration surfaces (CLI flags,
//! `sunder-core`'s builder) and [`EngineKind::build`] instantiates one.
//! Which one a compiled pipeline runs is decided once, at compile time,
//! by [`crate::select()`].

use sunder_automata::input::InputView;
use sunder_automata::{Nfa, StateId};
use sunder_resilience::{Budget, RunOutcome};

use crate::sink::ReportSink;

/// A suspended mid-stream execution snapshot: everything an engine needs
/// to continue a stream later (possibly in a different engine instance,
/// or a different engine *kind* — both engines share the same observable
/// state model) without re-scanning any input.
///
/// The frontier is stored in ascending state order so snapshots are
/// canonical: two engines suspended at the same stream position produce
/// equal `EngineState`s regardless of internal representation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineState {
    /// Active states at the suspension point, ascending by state id.
    pub frontier: Vec<StateId>,
    /// Cycles executed before the suspension point (the global stream
    /// clock — report cycles continue from here on resume).
    pub cycle: u64,
}

impl EngineState {
    /// The initial configuration: cycle 0, empty frontier. Resuming from
    /// this is identical to running a fresh engine.
    pub fn initial() -> EngineState {
        EngineState::default()
    }

    /// `true` when this snapshot is the initial configuration.
    pub fn is_initial(&self) -> bool {
        self.frontier.is_empty() && self.cycle == 0
    }
}

/// A cycle-by-cycle automaton executor.
///
/// All engines share the three-stage cycle model: candidates (successors of
/// the frontier plus enabled starts) are intersected with the states whose
/// charsets match the symbol vector; the result is the next frontier and
/// its reporting members emit reports. Implementations must deliver
/// per-cycle reports in ascending state order so traces are
/// engine-independent.
pub trait Engine {
    /// The automaton being executed.
    fn nfa(&self) -> &Nfa;

    /// Cycles executed so far.
    fn cycle(&self) -> u64;

    /// Number of states active after the last step.
    fn active_count(&self) -> usize;

    /// Resets to the initial configuration (cycle 0, empty frontier).
    fn reset(&mut self);

    /// Captures the current execution state into `out` (frontier in
    /// ascending state order, plus the cycle clock), clearing whatever
    /// `out` held before. The engine itself is left untouched, so
    /// suspension is observation, not mutation.
    ///
    /// Together with [`Engine::resume`] this is the streaming-session
    /// entry point: run a chunk, suspend, park the state, resume on the
    /// next chunk — the continuation is byte-identical to having run the
    /// concatenated input in one pass.
    fn suspend(&self, out: &mut EngineState);

    /// Restores a previously suspended execution state: the frontier
    /// becomes the active set and the cycle clock continues from
    /// `state.cycle`. States must be valid ids of this automaton.
    fn resume(&mut self, state: &EngineState);

    /// Executes one cycle on a symbol vector whose first `valid` entries
    /// carry real input. Returns the number of active states after the
    /// cycle.
    fn step(&mut self, vector: &[u16], valid: usize, sink: &mut dyn ReportSink) -> usize;

    /// Runs the whole input stream through the automaton.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    fn run(&mut self, input: &InputView, sink: &mut dyn ReportSink) {
        assert_eq!(
            input.stride(),
            self.nfa().stride(),
            "input view stride must match the automaton stride"
        );
        for v in input.iter_ref() {
            self.step(v.symbols, v.valid, sink);
        }
    }

    /// Runs the input stream under a cooperative [`Budget`].
    ///
    /// An unlimited budget delegates straight to [`Engine::run`] — one
    /// branch per run, so an unset budget costs nothing on the hot cycle
    /// loop. Otherwise the loop polls [`Budget::exceeded`] every
    /// [`Budget::poll_interval`] cycles and stops early with
    /// [`RunOutcome::Interrupted`] when the deadline passes or the cancel
    /// token trips.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    fn run_budgeted(
        &mut self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        budget: &Budget,
    ) -> RunOutcome {
        if budget.is_unlimited() {
            self.run(input, sink);
            return RunOutcome::Completed;
        }
        assert_eq!(
            input.stride(),
            self.nfa().stride(),
            "input view stride must match the automaton stride"
        );
        let poll_every = u64::from(budget.poll_interval());
        let mut since_poll = 0u64;
        for v in input.iter_ref() {
            self.step(v.symbols, v.valid, sink);
            since_poll += 1;
            if since_poll >= poll_every {
                since_poll = 0;
                if let Some(reason) = budget.exceeded() {
                    return RunOutcome::Interrupted {
                        at_cycle: self.cycle(),
                        reason,
                    };
                }
            }
        }
        RunOutcome::Completed
    }
}

/// Which functional engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The frontier-based sparse engine ([`crate::Simulator`]).
    Sparse,
    /// The bit-parallel dense engine ([`crate::DenseEngine`]).
    Dense,
}

impl EngineKind {
    /// Every engine kind, for sweeps and benches.
    pub const ALL: [EngineKind; 2] = [EngineKind::Sparse, EngineKind::Dense];

    /// A short stable name (`sparse`/`dense`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sparse => "sparse",
            EngineKind::Dense => "dense",
        }
    }

    /// Instantiates an engine of this kind for the automaton.
    pub fn build(self, nfa: &Nfa) -> Box<dyn Engine + '_> {
        match self {
            EngineKind::Sparse => Box::new(crate::Simulator::new(nfa)),
            EngineKind::Dense => Box::new(crate::DenseEngine::new(nfa)),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;
    use sunder_automata::regex::compile_regex;

    #[test]
    fn build_runs_any_kind() {
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(b"xxabab", 8, 1).unwrap();
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&nfa);
            let mut trace = TraceSink::new();
            engine.run(&input, &mut trace);
            assert_eq!(trace.cycle_id_pairs(), vec![(3, 3), (5, 3)], "{kind}");
            assert_eq!(engine.cycle(), 6);
        }
    }

    #[test]
    fn unlimited_budget_runs_to_completion() {
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(b"xxabab", 8, 1).unwrap();
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&nfa);
            let mut trace = TraceSink::new();
            let outcome = engine.run_budgeted(&input, &mut trace, &Budget::unlimited());
            assert_eq!(outcome, RunOutcome::Completed, "{kind}");
            assert_eq!(trace.cycle_id_pairs(), vec![(3, 3), (5, 3)], "{kind}");
        }
    }

    #[test]
    fn cancelled_budget_interrupts_every_engine() {
        use sunder_resilience::{CancelToken, StopReason};
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(&[b'x'; 4096], 8, 1).unwrap();
        for kind in EngineKind::ALL {
            let token = CancelToken::new();
            token.cancel();
            let budget = Budget::with_cancel(token).check_every(64);
            let mut engine = kind.build(&nfa);
            let outcome = engine.run_budgeted(&input, &mut crate::NullSink, &budget);
            match outcome {
                RunOutcome::Interrupted { at_cycle, reason } => {
                    assert_eq!(reason, StopReason::Cancelled, "{kind}");
                    // Stopped at the first poll, not at the end.
                    assert_eq!(at_cycle, 64, "{kind}");
                }
                RunOutcome::Completed => panic!("{kind}: cancelled run completed"),
            }
        }
    }

    #[test]
    fn expired_deadline_interrupts_at_first_poll() {
        use std::time::Duration;
        use sunder_resilience::StopReason;
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(&[b'x'; 1024], 8, 1).unwrap();
        let budget = Budget::with_deadline(Duration::ZERO).check_every(16);
        let mut engine = EngineKind::Sparse.build(&nfa);
        let outcome = engine.run_budgeted(&input, &mut crate::NullSink, &budget);
        assert_eq!(
            outcome,
            RunOutcome::Interrupted {
                at_cycle: 16,
                reason: StopReason::DeadlineExpired
            }
        );
    }

    #[test]
    fn budgeted_run_that_finishes_reports_completed() {
        use std::time::Duration;
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(b"xxabab", 8, 1).unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(3600));
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&nfa);
            let mut trace = TraceSink::new();
            let outcome = engine.run_budgeted(&input, &mut trace, &budget);
            assert_eq!(outcome, RunOutcome::Completed, "{kind}");
            assert_eq!(trace.cycle_id_pairs(), vec![(3, 3), (5, 3)], "{kind}");
        }
    }
}
