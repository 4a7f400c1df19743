//! Deterministic run budgets and cooperative cancellation.
//!
//! A campaign runs hundreds of simulations unattended; one cell whose
//! event loop stops advancing virtual time must not hang its worker
//! forever. The supervisor has two distinct tools here, chosen by what
//! they cost determinism:
//!
//! * **Budgets** ([`RunBudget::max_events`],
//!   [`RunBudget::max_events_per_instant`]) are counted in dispatched
//!   events — pure virtual-time quantities. A budget halt happens after
//!   the same event, at the same virtual time, on every same-seed run,
//!   so it is recorded in the trace ([`TraceKind::RunHalted`]) and
//!   participates in golden digests.
//! * **Cancellation** ([`CancelToken`]) is the wall-clock escape hatch:
//!   an external watchdog flips the token and the event loop notices on
//!   its next iteration. *When* that happens depends on host scheduling,
//!   so a cancelled run is never traced or digested — the cell is
//!   reported as timed out, not judged.
//!
//! [`TraceKind::RunHalted`]: crate::trace::TraceKind::RunHalted

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared flag an external supervisor flips to stop a running
/// simulation cooperatively. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Bounds on a simulation run. The default budget is unlimited and
/// uncancellable — exactly the pre-supervision behaviour.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Halt after this many dispatched events, total across the run.
    pub max_events: Option<u64>,
    /// Halt after this many consecutive events at a single virtual
    /// instant — the livelock detector. A healthy simulation advances
    /// time; an event loop rescheduling itself at `now` does not.
    pub max_events_per_instant: Option<u64>,
    /// Cooperative cancellation, checked in the event loop.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// An unlimited budget.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Caps total dispatched events.
    pub fn with_max_events(mut self, max: u64) -> RunBudget {
        self.max_events = Some(max);
        self
    }

    /// Caps events dispatched at one virtual instant.
    pub fn with_livelock_bound(mut self, max: u64) -> RunBudget {
        self.max_events_per_instant = Some(max);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> RunBudget {
        self.cancel = Some(token);
        self
    }
}

/// Why a [`run_until`](crate::Simulation::run_until) call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// The run reached its horizon (or drained the queue) normally.
    Horizon,
    /// The total event budget was exhausted. Deterministic; traced.
    EventBudget {
        /// Events dispatched when the budget tripped.
        events: u64,
    },
    /// Too many events at one virtual instant: the simulation stopped
    /// advancing time. Deterministic; traced.
    Livelock {
        /// Events dispatched at the stuck instant.
        events_at_instant: u64,
    },
    /// The cancellation token fired. Wall-clock-driven; never traced.
    Cancelled,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        a.cancel(); // idempotent
        assert!(b.is_cancelled());
    }

    #[test]
    fn budget_builder_sets_bounds() {
        let b = RunBudget::unlimited()
            .with_max_events(10)
            .with_livelock_bound(4);
        assert_eq!(b.max_events, Some(10));
        assert_eq!(b.max_events_per_instant, Some(4));
        assert!(b.cancel.is_none());
    }
}
