//! Running one matrix cell: an isolated simulator scenario driving a
//! fixed workload, with or without the cell's attack interposed.
//!
//! Each cell is strictly single-threaded and seeded, so a cell's
//! [`RunRecord`] is a pure function of `(attack, controller, fail_mode,
//! seed)` — the property the thread-count-invariance test pins down.
//! Wall-clock time is measured but excluded from the report's canonical
//! bytes.
//!
//! A cell is the harness's one run path ([`harness::run`]) under the
//! campaign's environment (the seed, the attack's table bound) and its
//! jittered workload; this module holds only those. Every setup failure
//! is a [`RunError`] rather than a panic, and the simulation runs against
//! the runner's [`RunBudget`] — deterministic event caps and a
//! wall-clock deadline — so a runaway or malformed cell degrades into an
//! annotated status instead of taking its worker (and the campaign) down.

use crate::attacks::{AttackDef, TableOverride};
use attain_controllers::ControllerKind;
use attain_core::model::SystemModel;
use attain_injector::harness::{self, schedule_ping, Armed, Compiled, RunError, Shared};
use attain_injector::RunRecord;
use attain_netsim::{DetRng, FailMode, FaultPlan, RunBudget, SimTime, Simulation};

/// Workload start-time jitter in milliseconds, derived from the seed.
///
/// The seed draws one 0–399 ms offset that shifts every workload start
/// alike. That moves every timestamp, so each seed gets its own digest,
/// but it is a time translation: ROADMAP item 13 measured one oracle
/// tuple across 30 seeds in each of the 110 (attack, controller, fail
/// mode) groups, so it changes digests, not verdicts.
fn jitter_ms(seed: u64) -> u64 {
    DetRng::new(seed).next_u64() % 400
}

/// Schedules the enterprise workload (all times jittered by the seed):
/// `t≈10` the primary h1→h6 window, `t≈20` the Table II trigger
/// traffic h2→h3 (which also probes unauthorized access), `t≈42` a
/// second h1→h6 window after any interruption fallout has landed,
/// `t≈44` a late h2→h3 probe for post-failover access.
fn enterprise_workload(sim: &mut Simulation, seed: u64) -> Result<SimTime, RunError> {
    let j = jitter_ms(seed) as f64 / 1000.0;
    let at = |base: u64| SimTime::from_secs_f64(base as f64 + j);
    schedule_ping(sim, at(10), "h1", "10.0.0.6", 8, "w1")?;
    schedule_ping(sim, at(20), "h2", "10.0.0.3", 10, "trigger")?;
    schedule_ping(sim, at(42), "h1", "10.0.0.6", 6, "w2")?;
    schedule_ping(sim, at(44), "h2", "10.0.0.3", 6, "probe")?;
    Ok(SimTime::from_secs(65))
}

/// Schedules the self-contained-document workload: two ping windows
/// between the document's first two hosts (the demo's `web → db`),
/// the second one measuring post-engagement service.
fn document_workload(
    sim: &mut Simulation,
    system: &SystemModel,
    seed: u64,
) -> Result<SimTime, RunError> {
    let mut hosts = system.hosts().map(|(_, h)| h);
    let (Some(src), Some(dst)) = (hosts.next(), hosts.next()) else {
        return Err(RunError::Setup(
            "self-contained campaign documents need two hosts for the ping workload".into(),
        ));
    };
    let dst_ip = dst
        .ip
        .ok_or_else(|| RunError::Setup(format!("campaign host {} has no IP", dst.name)))?
        .to_string();
    let j = jitter_ms(seed) as f64 / 1000.0;
    let at = |base: u64| SimTime::from_secs_f64(base as f64 + j);
    schedule_ping(sim, at(10), &src.name, &dst_ip, 8, "w1")?;
    schedule_ping(sim, at(25), &src.name, &dst_ip, 6, "w2")?;
    Ok(SimTime::from_secs(40))
}

/// The cell's environment and workload: the attack's table bound, then
/// the enterprise or document workload (all jittered by `seed`).
fn schedule(
    table: Option<TableOverride>,
    seed: u64,
) -> impl FnOnce(&mut Simulation, Option<&SystemModel>) -> Result<SimTime, RunError> {
    move |sim, document| {
        // A table bound is part of the cell's environment. The runner
        // diffs bounded cells against the shared, unbounded enterprise
        // baseline, which is valid because unattacked the workload never
        // fills the bound (`tests/campaign_conformance.rs` pins the two
        // baselines equal in all 30 records).
        if let Some(t) = table {
            if !sim.is_switch(t.switch) {
                return Err(RunError::Setup(format!(
                    "table bound names {:?}, which is not a switch",
                    t.switch
                )));
            }
            sim.set_table_config(t.switch, t.capacity, t.policy);
        }
        match document {
            None => enterprise_workload(sim, seed),
            Some(system) => document_workload(sim, system, seed),
        }
    }
}

/// An attack definition compiled once, for every unit of it.
pub(crate) struct Prepared {
    pub(crate) def: AttackDef,
    /// `Err` when a self-contained document does not compile.
    compiled: Result<Compiled, RunError>,
}

impl Prepared {
    pub(crate) fn new(def: AttackDef) -> Prepared {
        Prepared {
            def,
            compiled: Compiled::new(def.scope, def.source),
        }
    }

    /// The compiled attack, if it can shadow `baseline`'s run: the same
    /// environment (the same table bound; a bound rebuilds the table
    /// before t = 0) and an attack to attach.
    pub(crate) fn shadow_of(&self, baseline: &Prepared) -> Option<&Armed> {
        if self.def.table != baseline.def.table {
            return None;
        }
        self.compiled.as_ref().ok()?.attack.as_ref().ok()
    }
}

/// Runs one unit alone in one fail mode — the attacked cell or, with
/// `attached` false, its baseline — under the runner's `budget`.
pub(crate) fn run(
    attack: &Prepared,
    kind: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
    attached: bool,
    budget: &RunBudget,
) -> Result<RunRecord, RunError> {
    // One fail mode asked for, one record answered.
    run_shared(attack, attached, &[], kind, &[fail_mode], seed, budget)
        .leads()
        .remove(0)
}

/// Runs `lead`'s units — its attacked cells or, with `attached` false,
/// its baseline — under every mode of `fail_modes` at once, with
/// `shadows`, each a [`shadow_of`](Prepared::shadow_of) the lead,
/// attached as shadows ([`harness::run_shared`]).
pub(crate) fn run_shared(
    lead: &Prepared,
    attached: bool,
    shadows: &[&Armed],
    kind: ControllerKind,
    fail_modes: &[FailMode],
    seed: u64,
    budget: &RunBudget,
) -> Shared {
    let (faults, schedule) = (FaultPlan::seeded(seed), schedule(lead.def.table, seed));
    let compiled = &lead.compiled;
    harness::run_shared(
        compiled, attached, kind, fail_modes, &faults, budget, shadows, schedule,
    )
}

/// Runs one attacked cell to completion, unbudgeted.
pub fn run_cell(
    attack: &AttackDef,
    kind: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
) -> Result<RunRecord, RunError> {
    let attack = Prepared::new(*attack);
    run(&attack, kind, fail_mode, seed, true, &RunBudget::default())
}

/// Runs the cell's differential baseline: the identical topology,
/// workload, and seed with **no interposer at all**. A pass-through
/// interposition is timing-transparent (`pass` re-schedules at the
/// connection's own latency), so `trivial_pass` cells must classify as
/// Silent against this baseline — the campaign's proxy-transparency
/// invariant.
pub fn run_baseline(
    attack: &AttackDef,
    kind: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
) -> Result<RunRecord, RunError> {
    let attack = Prepared::new(*attack);
    run(&attack, kind, fail_mode, seed, false, &RunBudget::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use attain_netsim::HaltReason;
    use std::time::Instant;

    fn run_ok(
        attack: &AttackDef,
        kind: ControllerKind,
        fail_mode: FailMode,
        seed: u64,
    ) -> RunRecord {
        run_cell(attack, kind, fail_mode, seed).expect("cell completes")
    }

    #[test]
    fn same_cell_twice_is_byte_identical() {
        let a = attacks::by_name("trivial_pass").unwrap();
        let x = run_ok(&a, ControllerKind::Pox, FailMode::Secure, 1);
        let y = run_ok(&a, ControllerKind::Pox, FailMode::Secure, 1);
        assert_eq!(x.digest, y.digest);
        assert_eq!(x.pings, y.pings);
    }

    #[test]
    fn seeds_differentiate_traces() {
        let a = attacks::by_name("trivial_pass").unwrap();
        let x = run_ok(&a, ControllerKind::Floodlight, FailMode::Secure, 1);
        let y = run_ok(&a, ControllerKind::Floodlight, FailMode::Secure, 2);
        assert_ne!(
            x.digest, y.digest,
            "seed must jitter the workload into a distinct trace"
        );
    }

    #[test]
    fn pass_through_interposition_is_transparent() {
        let a = attacks::by_name("trivial_pass").unwrap();
        let attacked = run_ok(&a, ControllerKind::Ryu, FailMode::Safe, 3);
        let baseline =
            run_baseline(&a, ControllerKind::Ryu, FailMode::Safe, 3).expect("baseline completes");
        assert_eq!(attacked.digest, baseline.digest);
        assert_eq!(attacked.pings, baseline.pings);
    }

    #[test]
    fn self_contained_demo_engages_on_flow_timeouts() {
        let a = attacks::by_name("self_contained_demo").unwrap();
        let pox = run_ok(&a, ControllerKind::Pox, FailMode::Secure, 1);
        assert_eq!(pox.final_state.as_deref(), Some("degrade"));
        let ryu = run_ok(&a, ControllerKind::Ryu, FailMode::Secure, 1);
        assert_eq!(
            ryu.final_state.as_deref(),
            Some("observe"),
            "Ryu's timeout-free flow mods must never satisfy the engage guard"
        );
    }

    #[test]
    fn tight_event_budget_surfaces_as_budget_exhausted() {
        let a = Prepared::new(attacks::by_name("trivial_pass").unwrap());
        let budget = RunBudget {
            max_events: Some(10),
            ..RunBudget::default()
        };
        let err = run(&a, ControllerKind::Pox, FailMode::Secure, 1, true, &budget)
            .expect_err("10 events cannot finish the workload");
        assert_eq!(
            err,
            RunError::Halted(HaltReason::EventBudget { events: 10 })
        );
    }

    #[test]
    fn pre_cancelled_token_surfaces_as_cancelled() {
        let a = Prepared::new(attacks::by_name("trivial_pass").unwrap());
        let budget = RunBudget {
            deadline: Some(Instant::now()),
            ..RunBudget::default()
        };
        let err = run(&a, ControllerKind::Pox, FailMode::Secure, 1, true, &budget)
            .expect_err("a passed deadline must stop the run");
        assert_eq!(err, RunError::Halted(HaltReason::Cancelled));
    }
}
