//! The conformance campaign: every shipped attack against every
//! controller application under both fail modes, checked by two
//! oracles.
//!
//! The ATTAIN paper's core claim is that one attack description yields
//! *different* manifestations per controller (§VII). This crate turns
//! that claim into a regression surface — a deterministic matrix
//!
//! ```text
//! attacks/*.atk × {Floodlight, POX, Ryu, Beacon, Hub} × {fail-safe, fail-secure} × seeds
//! ```
//!
//! where each cell is an isolated, seeded, virtual-time simulation run
//! on a worker pool ([`runner::run`]) and judged by:
//!
//! * the **differential oracle** (`oracle::classify`) — the attacked
//!   run diffed against a same-seed baseline (no interposer) and
//!   classified Silent / ControlPlane / Degraded / Denial, then checked
//!   against the behaviour-derived expectations table
//!   (`oracle::expected`);
//! * the **golden-trace oracle** — each cell's control-plane trace
//!   digest pinned under `tests/golden/campaign/`, so any semantic
//!   drift in the DSL pipeline, the injector, a controller model, or
//!   the simulator fails `cargo test` with a cell-naming diff
//!   ([`report::diff_golden`]).
//!
//! Reports are merged in matrix order regardless of scheduling, so the
//! canonical report bytes are identical for any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// The campaign result path must degrade, never abort: a cell that
// cannot be judged is reported, not unwrapped. Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod attacks;
pub mod cell;
pub mod matrix;
pub mod oracle;
pub mod report;
pub mod runner;

pub use attacks::{AttackDef, Scope};
pub use matrix::{CellId, Filter, Matrix};
pub use oracle::Observed;
pub use report::{diff_golden, CampaignReport, CellReport, ConfusionMatrix, RunShape};
pub use runner::{run, run_with, CellStatus, RunnerConfig};
