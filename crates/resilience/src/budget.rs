//! Cooperative cancellation and wall-clock budgets for long-running loops.
//!
//! Engines and other hot loops cannot be interrupted preemptively (killing
//! a thread mid-cycle would corrupt statistics), so interruption is
//! cooperative: the loop owner threads a [`Budget`] through its run loop
//! and polls [`Budget::exceeded`] every [`Budget::check_every`] items. An
//! unset budget ([`Budget::unlimited`]) is a single branch per run, not
//! per cycle — callers are expected to test [`Budget::is_unlimited`] once
//! and then never poll.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles between budget polls in instrumented loops. Coarse enough that
/// the `Instant::now()` call amortizes to nothing, fine enough that a
/// deadline is honored within a fraction of a millisecond of real work.
pub const DEFAULT_CHECK_EVERY: u32 = 4096;

/// A shareable cancellation flag.
///
/// Cloning is cheap (one `Arc`); any clone can cancel, every clone
/// observes it. Cancellation is sticky — there is deliberately no reset,
/// so a token can never race back to "not cancelled".
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a budgeted run stopped before consuming its whole input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The attached [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => f.write_str("cancelled"),
            StopReason::DeadlineExpired => f.write_str("deadline expired"),
        }
    }
}

/// Outcome of a budgeted run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The whole input was consumed.
    Completed,
    /// The budget stopped the loop early.
    Interrupted {
        /// Cycles executed before stopping.
        at_cycle: u64,
        /// What tripped.
        reason: StopReason,
    },
}

impl RunOutcome {
    /// `true` when the run consumed its whole input.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

/// A cooperative execution budget: optional cancel token plus optional
/// wall-clock deadline.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    check_every: Option<u32>,
}

impl Budget {
    /// A budget that never stops anything. Loops must treat this as "run
    /// to the end without polling".
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            ..Self::default()
        }
    }

    /// A budget stopping when `token` is cancelled.
    pub fn with_cancel(token: CancelToken) -> Self {
        Budget {
            cancel: Some(token),
            ..Self::default()
        }
    }

    /// Attaches a cancel token (builder style).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deadline `limit` from now (builder style).
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Overrides the poll interval (builder style). Clamped to ≥ 1.
    pub fn check_every(mut self, cycles: u32) -> Self {
        self.check_every = Some(cycles.max(1));
        self
    }

    /// `true` when nothing can ever stop this budget — the caller's signal
    /// to skip instrumentation entirely.
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none()
    }

    /// How many loop iterations to run between [`Budget::exceeded`] polls.
    pub fn poll_interval(&self) -> u32 {
        self.check_every.unwrap_or(DEFAULT_CHECK_EVERY)
    }

    /// Polls the budget. `None` means keep going.
    pub fn exceeded(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }

    /// The remaining wall-clock allowance, if a deadline is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.exceeded(), None);
        assert_eq!(b.remaining(), None);
        assert_eq!(b.poll_interval(), DEFAULT_CHECK_EVERY);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let budget = Budget::with_cancel(token.clone());
        assert!(!budget.is_unlimited());
        assert_eq!(budget.exceeded(), None);
        token.cancel();
        token.cancel(); // idempotent
        assert_eq!(budget.exceeded(), Some(StopReason::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let budget = Budget::with_deadline(Duration::from_secs(0));
        assert_eq!(budget.exceeded(), Some(StopReason::DeadlineExpired));
        assert_eq!(budget.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let budget = Budget::with_deadline(Duration::from_secs(3600));
        assert_eq!(budget.exceeded(), None);
        assert!(budget.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::with_cancel(token).deadline(Duration::from_secs(0));
        assert_eq!(budget.exceeded(), Some(StopReason::Cancelled));
    }

    #[test]
    fn check_every_is_clamped() {
        assert_eq!(Budget::unlimited().check_every(0).poll_interval(), 1);
        assert_eq!(Budget::unlimited().check_every(64).poll_interval(), 64);
    }
}
