//! The ATTAIN runtime attack injector (paper §VI).
//!
//! Two deployments of the same [`attain_core::exec::AttackExecutor`]:
//!
//! * [`SimInjector`] — interposes on every control-plane connection of
//!   an [`attain_netsim::Simulation`], exactly where the paper's proxy
//!   sits ("switches point at the proxy as their controller"). A single
//!   executor instance sees every connection's messages, giving the
//!   total order of §VI-C.
//! * [`tcp`] — a real threaded TCP proxy over `std::net` sockets, for
//!   running attacks against OpenFlow speakers outside the simulator.
//!
//! Plus the experiment [`harness`] — the one build → attach → drive →
//! collect path ([`harness::run`]) and the paper's §VII timelines on it
//! (Figure 11's flow-modification suppression, Table II's connection
//! interruption) — and the [`monitors`]' one [`RunRecord`] of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// Hostile peers and malformed sources are typed errors here, never
// panics. Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod harness;
pub mod monitors;
mod sim;
pub mod tcp;

pub use monitors::{PingRow, RunRecord};
pub use sim::{SharedExecutor, SimInjector};
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
