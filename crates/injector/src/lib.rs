//! The ATTAIN runtime attack injector (paper §VI): one executor core,
//! two transports. A private core binds an
//! [`AttackExecutor`](attain_core::exec::AttackExecutor) to a
//! transport's dense connection indices and steps it (Algorithm 1); the
//! [`SimInjector`] (every connection of an [`attain_netsim::Simulation`],
//! in the total order of §VI-C) and the threaded [`tcp`] proxy keep only
//! their clock, their byte pipe and the far end of each effect:
//!
//! | effect    | [`SimInjector`], virtual time    | [`tcp::TcpProxy`], wall clock      |
//! |-----------|----------------------------------|------------------------------------|
//! | `SYSCMD`  | parsed into a `HostCommand`, run | handed to its `SysCmdHandler`      |
//! | `fault`   | parsed into a `FaultSpec`, run   | counted in `faults_discarded`      |
//! | `delay`   | extra delay on the control link  | the timer thread, `(due, seq)`     |
//! | wakeup    | an event at the asked-for time   | a timer-thread entry               |
//!
//! Plus the experiment [`harness`] — the one build → attach → drive →
//! collect path ([`harness::run`]) and the paper's §VII timelines on it —
//! and the [`monitors`]' one [`RunRecord`] of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// Hostile peers and malformed sources are typed errors here, never
// panics. Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod binding;
pub mod harness;
pub mod monitors;
mod sim;
pub mod tcp;

pub use binding::SharedExecutor;
pub use monitors::{PingRow, RunRecord};
pub use sim::SimInjector;
pub use tcp::{RouteHealth, RouteHealthSnapshot};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if an earlier holder panicked: a
/// panicked worker is a severed session, not a wedged proxy. Sound
/// because every critical section in this crate leaves its data valid
/// at each step (an executor step, a session-map insert or remove, a
/// handle list push).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
