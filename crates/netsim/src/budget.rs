//! Deterministic run budgets and the wall-clock deadline.
//!
//! A campaign runs hundreds of simulations unattended; one cell whose
//! event loop stops advancing virtual time must not hang its worker
//! forever. [`RunBudget`] bounds a run three ways, and the event loop
//! compares all three itself. They differ in what they cost determinism:
//!
//! * **Budgets** ([`RunBudget::max_events`],
//!   [`RunBudget::max_events_per_instant`]) are counted in dispatched
//!   events — pure virtual-time quantities. A budget halt happens after
//!   the same event, at the same virtual time, on every same-seed run,
//!   so it is recorded in the trace ([`TraceKind::RunHalted`]) and
//!   participates in golden digests.
//! * **The deadline** ([`RunBudget::deadline`]) is the wall-clock escape
//!   hatch: the event loop reads the clock on entry and once per 1,024
//!   dispatched events, and halts with [`HaltReason::Cancelled`] once
//!   the instant has passed. *When* that happens depends on the host, so
//!   a cancelled run is never traced or digested — the cell is reported
//!   as timed out, not judged.
//!
//! [`TraceKind::RunHalted`]: crate::trace::TraceKind::RunHalted

use std::time::Instant;

/// Bounds on a simulation run. The default budget is unlimited and has
/// no deadline. A fork copies its parent's budget, deadline included.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Halt after this many dispatched events, total across the run.
    pub max_events: Option<u64>,
    /// Halt after this many consecutive events at a single virtual
    /// instant — the livelock detector. A healthy simulation advances
    /// time; an event loop rescheduling itself at `now` does not.
    pub max_events_per_instant: Option<u64>,
    /// The wall-clock instant after which the run halts as cancelled.
    pub deadline: Option<Instant>,
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

    /// Halts the run, untraced, once `deadline` has passed.
    pub fn with_deadline(mut self, deadline: Instant) -> RunBudget {
        self.deadline = Some(deadline);
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
    /// The wall-clock deadline passed. Host-driven; never traced.
    Cancelled,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        // A fork clones its parent's budget: both halt at one instant.
        let a = RunBudget::unlimited().with_deadline(Instant::now());
        let b = a.clone();
        assert!(a.deadline.is_some());
        assert_eq!(b.deadline, a.deadline);
    }

    #[test]
    fn budget_builder_sets_bounds() {
        let b = RunBudget::unlimited()
            .with_max_events(10)
            .with_livelock_bound(4);
        assert_eq!(b.max_events, Some(10));
        assert_eq!(b.max_events_per_instant, Some(4));
        assert!(b.deadline.is_none());
    }
}
