//! The worker pool: executes every cell (and each distinct
//! baseline exactly once) across `jobs` threads, then merges results
//! back in matrix order.
//!
//! Determinism argument: each unit is a single-threaded seeded
//! simulation (a pure function of its coordinates), workers only race
//! for *which* environment to run next (an atomic cursor), and assembly
//! iterates the matrix — never the completion order. Hence the report
//! is byte-identical for any `jobs ≥ 1`.
//!
//! Shared runs: an environment is a (topology, controller, seed) tuple.
//! Its baseline runs once, for every fail mode of the matrix at once,
//! with each of its attacks that can share that run attached as a shadow
//! ([`harness::run_shared`]): a shadow's units are a fork of the baseline
//! from its first answer other than pass, or the baseline's own records
//! if it never gives one. A run, fork or not, is one run for both fail
//! modes until a switch first consults its mode, and splits into two
//! there. Either way each unit gets the record its own run makes. An
//! attack whose environment differs from its baseline's (a table bound)
//! runs alone, still for every fail mode at once.
//!
//! Containment argument: every run sits inside `catch_unwind`, each unit
//! writes its [`CellStatus`] into a private `OnceLock` slot (no shared
//! mutex to poison), and every run is bounded three ways by its
//! [`RunBudget`] — a deterministic event budget, a deterministic
//! livelock detector, and a wall-clock deadline the event loop reads
//! itself. A shared run is one attempt for all of its units: if it
//! panics or times out, each of them runs alone in its one fail mode
//! with a fresh deadline, so no status depends on the sharing.
//!
//! [`harness::run_shared`]: attain_injector::harness::run_shared

use crate::attacks::{AttackDef, Scope};
use crate::cell::{self, Prepared};
use crate::matrix::Matrix;
use crate::oracle;
use crate::report::{CampaignReport, CellReport, RunShape};
use attain_controllers::ControllerKind;
use attain_injector::harness::{ModeRuns, RunError, ShadowRun, Shared};
use attain_injector::RunRecord;
use attain_netsim::{FailMode, HaltReason, RunBudget};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Per-instant event bound: orders of magnitude above anything
/// a healthy cell dispatches at one virtual time, small enough to trip
/// a genuine livelock in milliseconds.
const LIVELOCK_BOUND: u64 = 200_000;

/// How one cell (or baseline) run ended.
// `Completed` is the common case, not an outlier worth boxing: boxing
// would add an allocation per unit and change the public constructor.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// The simulation reached its horizon and produced an outcome.
    Completed(RunRecord),
    /// Setup failed deterministically (attack compile/validate error,
    /// malformed workload); the message is the error rendered.
    Failed {
        /// What went wrong.
        msg: String,
    },
    /// The unit panicked; the payload was captured and the worker
    /// survived.
    Panicked {
        /// The panic payload (or a placeholder for non-string payloads).
        msg: String,
    },
    /// The run's wall-clock deadline passed.
    TimedOut,
    /// A deterministic run budget halted the simulation.
    BudgetExhausted {
        /// Events dispatched when the budget tripped.
        events: u64,
        /// `true` when the livelock detector fired rather than the
        /// total event cap.
        livelock: bool,
    },
}

impl CellStatus {
    /// The outcome, when the run completed.
    pub(crate) fn outcome(&self) -> Option<&RunRecord> {
        match self {
            CellStatus::Completed(o) => Some(o),
            _ => None,
        }
    }

    /// Stable machine-readable status name (reported in JSON).
    pub fn slug(&self) -> &'static str {
        match self {
            CellStatus::Completed(_) => "completed",
            CellStatus::Failed { .. } => "failed",
            CellStatus::Panicked { .. } => "panicked",
            CellStatus::TimedOut => "timed-out",
            CellStatus::BudgetExhausted { .. } => "budget-exhausted",
        }
    }

    /// Human-readable annotation for incomplete cells (`None` when the
    /// cell completed). Deterministic for deterministic failures.
    pub fn annotation(&self) -> Option<String> {
        match self {
            CellStatus::Completed(_) => None,
            CellStatus::Failed { msg } => Some(msg.clone()),
            CellStatus::Panicked { msg } => Some(format!("worker panicked: {msg}")),
            CellStatus::TimedOut => Some("cancelled by wall-clock deadline".into()),
            CellStatus::BudgetExhausted { events, livelock } => Some(if *livelock {
                format!("livelock detected: {events} events without advancing virtual time")
            } else {
                format!("event budget exhausted after {events} events")
            }),
        }
    }
}

/// Bounds and parallelism for a campaign run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Wall-clock time each run may take, from its start; `None` runs
    /// without a deadline.
    pub cell_timeout: Option<Duration>,
    /// Deterministic cap on total simulator events per unit.
    pub max_events: Option<u64>,
}

impl RunnerConfig {
    /// Defaults: no wall-clock timeout, no event cap.
    pub fn new(jobs: usize) -> RunnerConfig {
        RunnerConfig {
            jobs,
            cell_timeout: None,
            max_events: None,
        }
    }
}

/// One cell, or one baseline, in one fail mode.
struct UnitSpec<'a> {
    attack: &'a Prepared,
    controller: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
    attacked: bool,
}

/// Baselines are shared per topology: every enterprise attack diffs
/// against the one enterprise baseline for its (controller, fail,
/// seed); each self-contained document has its own topology and so its
/// own baseline.
fn topology_key(attack: &AttackDef) -> &'static str {
    match attack.scope {
        Scope::Enterprise => "enterprise",
        Scope::SelfContained => attack.name,
    }
}

// ---- the pool -------------------------------------------------------------

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What the pool runs: one run of a lead — the units of one attack, or
/// of a baseline, one per fail mode the run stands for — with the
/// attacks of the other units as shadows, answering the lead's outcome
/// and one [`ShadowRun`] per shadow for each of those modes. It is
/// [`run_cell`] in a campaign, and a deliberately misbehaving stand-in in
/// the containment tests.
type UnitFn<'a> = &'a (dyn Fn(&[&UnitSpec<'_>], &[&UnitSpec<'_>], &RunBudget) -> Shared + Sync);

/// The status of a run that returned.
fn status(result: Result<RunRecord, RunError>) -> CellStatus {
    match result {
        Ok(record) => CellStatus::Completed(record),
        Err(RunError::Halted(HaltReason::EventBudget { events })) => CellStatus::BudgetExhausted {
            events,
            livelock: false,
        },
        Err(RunError::Halted(HaltReason::Livelock { events_at_instant })) => {
            CellStatus::BudgetExhausted {
                events: events_at_instant,
                livelock: true,
            }
        }
        Err(RunError::Halted(HaltReason::Cancelled)) => CellStatus::TimedOut,
        // `Setup`; a halt at the horizon is the `Ok` above.
        Err(e) => CellStatus::Failed { msg: e.to_string() },
    }
}

/// A fresh run's budget: its deadline counts from now.
fn attempt_budget(cfg: &RunnerConfig) -> RunBudget {
    RunBudget {
        max_events: cfg.max_events,
        max_events_per_instant: Some(LIVELOCK_BOUND),
        deadline: cfg.cell_timeout.map(|t| Instant::now() + t),
    }
}

/// The pool's shared state: every unit, its result slot, and how to run
/// one.
struct Pool<'a> {
    run_unit: UnitFn<'a>,
    units: &'a [UnitSpec<'a>],
    cfg: &'a RunnerConfig,
    results: &'a [OnceLock<CellStatus>],
    /// How the runs went so far; a sum, so independent of their order.
    shape: Mutex<RunShape>,
}

impl Pool<'_> {
    fn set(&self, i: usize, status: CellStatus) {
        let _ = self.results[i].set(status);
    }

    fn count(&self, f: impl FnOnce(&mut RunShape)) {
        f(&mut self.shape.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Runs unit `i` alone in its one fail mode, fully contained: a panic
    /// becomes `Panicked`, an error its status.
    fn run_alone(&self, i: usize) {
        let budget = attempt_budget(self.cfg);
        // One fail mode asked for, one record answered.
        let alone = || {
            (self.run_unit)(&[&self.units[i]], &[], &budget)
                .leads()
                .remove(0)
        };
        let status = match catch_unwind(AssertUnwindSafe(alone)) {
            Ok(result) => status(result),
            Err(payload) => CellStatus::Panicked {
                msg: panic_message(payload),
            },
        };
        self.set(i, status);
        self.count(|shape| shape.standalone += 1);
    }

    /// Runs one environment: its baseline, with every attack that can
    /// share its run as a shadow, then every other attack on its own.
    /// `env` lists the baseline's units, then each attack's, one unit
    /// per fail mode in matrix order.
    fn run_env(&self, env: &[Vec<usize>]) {
        let Some((baseline, attacks)) = env.split_first() else {
            return;
        };
        let lead = self.units[baseline[0]].attack;
        let (shadows, alone): (Vec<&Vec<usize>>, Vec<&Vec<usize>>) = attacks
            .iter()
            .partition(|units| self.units[units[0]].attack.shadow_of(lead).is_some());
        self.run_shared(baseline, &shadows);
        for attack in alone {
            self.run_shared(attack, &[]);
        }
    }

    /// Runs `lead`, for all of its units' fail modes at once, with
    /// `shadows` attached, as one attempt. If it panics or
    /// times out, each of its units runs alone in its one fail mode
    /// instead.
    fn run_shared(&self, lead: &[usize], shadows: &[&Vec<usize>]) {
        let budget = attempt_budget(self.cfg);
        let leads: Vec<&UnitSpec<'_>> = lead.iter().map(|&i| &self.units[i]).collect();
        let specs: Vec<&UnitSpec<'_>> = shadows.iter().map(|s| &self.units[s[0]]).collect();
        let shared = catch_unwind(AssertUnwindSafe(|| {
            (self.run_unit)(&leads, &specs, &budget)
        }));
        let cancelled = |r: &Result<RunRecord, RunError>| {
            matches!(r, Err(RunError::Halted(HaltReason::Cancelled)))
        };
        let sound = |(lead, runs): &ModeRuns| {
            !cancelled(lead)
                && runs.iter().all(|run| match run {
                    ShadowRun::Forked(r) | ShadowRun::Undiverged(r) => !cancelled(r),
                })
        };
        let shared = shared.ok().filter(|shared| shared.modes.iter().all(sound));
        let Some(Shared { modes, splits }) = shared else {
            for &i in lead.iter().chain(shadows.iter().copied().flatten()) {
                self.run_alone(i);
            }
            return;
        };
        // Per shadow: whether it forked anywhere, and whether it never
        // diverged somewhere.
        let mut made = vec![(false, false); shadows.len()];
        for (m, (&i, (record, runs))) in lead.iter().zip(modes).enumerate() {
            self.set(i, status(record));
            for ((units, run), made) in shadows.iter().zip(runs).zip(&mut made) {
                let (r, how) = match run {
                    ShadowRun::Forked(r) => (r, &mut made.0),
                    ShadowRun::Undiverged(r) => (r, &mut made.1),
                };
                *how = true;
                self.set(units[m], status(r));
            }
        }
        self.count(|shape| {
            if shadows.is_empty() {
                shape.standalone += 1;
            } else {
                shape.environments += 1;
            }
            shape.splits += splits;
            for (forked, undiverged) in made {
                shape.forked += usize::from(forked);
                shape.undiverged += usize::from(undiverged && !forked);
            }
        });
    }
}

/// Runs every environment on `cfg.jobs` workers; returns each unit's
/// status, in unit order, and how the runs went.
fn run_pool(
    run_unit: UnitFn<'_>,
    units: &[UnitSpec<'_>],
    envs: &[Vec<Vec<usize>>],
    cfg: &RunnerConfig,
) -> (Vec<CellStatus>, RunShape) {
    // Per-slot storage: a panicking worker (even one that somehow
    // escapes `catch_unwind`) can poison nothing — every other slot
    // still fills and the merge proceeds.
    let results: Vec<OnceLock<CellStatus>> = (0..units.len()).map(|_| OnceLock::new()).collect();
    let pool = Pool {
        run_unit,
        units,
        cfg,
        results: &results,
        shape: Mutex::new(RunShape::default()),
    };
    let jobs = cfg.jobs.max(1).min(envs.len().max(1));
    if jobs <= 1 {
        for env in envs {
            pool.run_env(env);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let e = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(env) = envs.get(e) else {
                        break;
                    };
                    pool.run_env(env);
                });
            }
        });
    }
    let shape = pool
        .shape
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let statuses = results
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or(CellStatus::Panicked {
                msg: "worker vanished before storing a result".into(),
            })
        })
        .collect();
    (statuses, shape)
}

/// Runs the whole campaign on `jobs` worker threads with the default
/// bounds (deterministic livelock bound only).
pub fn run(matrix: &Matrix, jobs: usize) -> CampaignReport {
    run_with(matrix, &RunnerConfig::new(jobs))
}

/// Runs the whole campaign under an explicit [`RunnerConfig`].
pub fn run_with(matrix: &Matrix, cfg: &RunnerConfig) -> CampaignReport {
    run_units(matrix, cfg, &run_cell)
}

/// The campaign's unit function: one run of an attack's cells or of a
/// baseline, in the fail modes of `lead`, alone or with shadows.
fn run_cell(lead: &[&UnitSpec<'_>], shadows: &[&UnitSpec<'_>], budget: &RunBudget) -> Shared {
    let modes: Vec<FailMode> = lead.iter().map(|u| u.fail_mode).collect();
    let Some(u) = lead.first() else {
        return Shared {
            modes: Vec::new(),
            splits: 0,
        };
    };
    // The pool only asks attacks that can shadow the lead to.
    let shadows: Vec<_> = shadows
        .iter()
        .filter_map(|s| s.attack.shadow_of(u.attack))
        .collect();
    let (kind, seed) = (u.controller, u.seed);
    cell::run_shared(u.attack, u.attacked, &shadows, kind, &modes, seed, budget)
}

/// [`run_with`] over an arbitrary unit function: the runner's seam, so
/// its containment can be tested with units that panic or spin.
fn run_units(matrix: &Matrix, cfg: &RunnerConfig, run_unit: UnitFn<'_>) -> CampaignReport {
    let started = Instant::now();
    let cells = matrix.cells();
    // Each attack is compiled once, for all of its units.
    let prepared: Vec<Prepared> = matrix.attacks.iter().map(|&a| Prepared::new(a)).collect();

    // One environment per distinct (topology, controller, seed): its
    // baseline's units, then each attack's, one unit per fail mode in
    // matrix order (the order the matrix enumerates a cell's modes in).
    let mut units: Vec<UnitSpec<'_>> = Vec::new();
    let mut envs: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut env_of: BTreeMap<(&str, &str, u64), usize> = BTreeMap::new();
    // Per cell: its unit and its baseline's.
    let mut cell_units: Vec<(usize, usize)> = Vec::with_capacity(cells.len());
    for cell in &cells {
        let attack = &prepared[cell.attack];
        let key = (topology_key(&attack.def), cell.controller.slug(), cell.seed);
        let env = *env_of.entry(key).or_insert_with(|| {
            envs.push(vec![Vec::new()]);
            envs.len() - 1
        });
        let spec = |attacked| UnitSpec {
            attack,
            controller: cell.controller,
            fail_mode: cell.fail_mode,
            seed: cell.seed,
            attacked,
        };
        let env = &mut envs[env];
        let mode = cell.fail_mode;
        let found = env[0].iter().copied().find(|&b| units[b].fail_mode == mode);
        // The environment's first attack makes its baseline's units.
        let baseline = found.unwrap_or_else(|| {
            units.push(spec(false));
            env[0].push(units.len() - 1);
            units.len() - 1
        });
        units.push(spec(true));
        let u = units.len() - 1;
        let name = attack.def.name;
        match env[1..]
            .iter_mut()
            .find(|a| units[a[0]].attack.def.name == name)
        {
            Some(group) => group.push(u),
            None => env.push(vec![u]),
        }
        cell_units.push((u, baseline));
    }

    let (results, shape) = run_pool(run_unit, &units, &envs, cfg);

    let mut reports = Vec::with_capacity(cells.len());
    for (cell, &(unit, baseline)) in cells.iter().zip(&cell_units) {
        let attack = &matrix.attacks[cell.attack];
        let status = results[unit].clone();
        let baseline = &results[baseline];
        let observed = oracle::judge(&status, baseline);
        let expected = oracle::expected(attack.name, cell.controller, cell.fail_mode);
        let mut pass = observed.is_some_and(|o| expected.contains(&o));
        // Fingerprint-accuracy arm: the fingerprinting attack's cells
        // additionally require the predicted application (its final
        // payload state) to be the one actually under test.
        if attack.name == oracle::FINGERPRINT_ATTACK {
            pass = pass
                && status
                    .outcome()
                    .is_some_and(|o| oracle::fingerprint_prediction(o) == Some(cell.controller));
        }
        reports.push(CellReport {
            name: matrix.cell_name(cell),
            attack: attack.name.to_string(),
            controller: cell.controller,
            fail_mode: cell.fail_mode,
            seed: cell.seed,
            status,
            observed,
            expected,
            pass,
        });
    }
    CampaignReport {
        matrix: matrix.clone(),
        cells: reports,
        shape,
        wall_ms_total: started.elapsed().as_millis() as u64,
        jobs: cfg.jobs.max(1),
    }
}

/// Containment contract, driven through the runner's unit seam: a
/// panicking worker and a virtual-time livelock are contained and
/// annotated while every healthy cell in the same campaign still
/// completes, and the report bytes stay independent of the worker
/// count.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{self, AttackDef, TableOverride};
    use crate::report::CampaignReport;
    use attain_core::scenario;
    use attain_injector::harness::{self, schedule_ping};
    use attain_netsim::{
        EvictionPolicy, FaultPlan, Interposer, InterposerActions, ProxiedMessage, SimTime,
    };

    /// Attack name whose attacked runs panic the worker.
    const PANIC_CELL: &str = "__panic_cell";
    /// Attack name whose attacked runs stop advancing virtual time.
    const LIVELOCK_CELL: &str = "__livelock_cell";
    /// The fixed panic payload (fixed so reports stay byte-identical
    /// across thread counts).
    const PANIC_MESSAGE: &str = "injected chaos: deliberate worker panic";

    /// A chaos attack: the trivial source, so the enterprise baseline
    /// it shares with `trivial_pass` stays healthy.
    fn chaos_attack(name: &'static str) -> AttackDef {
        AttackDef {
            name,
            source: scenario::attacks::TRIVIAL_PASS,
            scope: Scope::Enterprise,
            table: None,
        }
    }

    /// An interposer that re-arms a wakeup `.0` after `now` forever. At
    /// a zero step the event loop spins at one virtual instant until the
    /// livelock detector (or the wall-clock deadline) stops it; at a
    /// positive step virtual time creeps on, so only the deadline can.
    struct Spin(SimTime);

    impl Interposer for Spin {
        fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
            let mut a = InterposerActions::pass(&msg);
            a.wakeup = Some(msg.now + self.0);
            a
        }

        fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
            InterposerActions {
                wakeup: Some(now + self.0),
                ..InterposerActions::default()
            }
        }
    }

    /// The campaign's unit function, except that the chaos cells
    /// misbehave on the attacked half of their pair. As shadows, a
    /// panicking one takes its whole shared run down and a spinning one
    /// spins in its fork, re-arming its wakeups `step` apart.
    fn chaos_unit(
        lead: &[&UnitSpec<'_>],
        shadows: &[&UnitSpec<'_>],
        budget: &RunBudget,
        step: SimTime,
    ) -> Shared {
        let name = |s: &UnitSpec<'_>| s.attack.def.name;
        match lead.first().map(|u| (u.attacked, name(u))) {
            Some((true, PANIC_CELL)) => panic!("{PANIC_MESSAGE}"),
            Some((true, LIVELOCK_CELL)) => {
                let modes = lead.iter().map(|u| (spin(u, budget, step), Vec::new()));
                return Shared {
                    modes: modes.collect(),
                    splits: 0,
                };
            }
            _ => {}
        }
        if shadows.iter().any(|s| name(s) == PANIC_CELL) {
            panic!("{PANIC_MESSAGE}");
        }
        let tame: Vec<&UnitSpec<'_>> = shadows
            .iter()
            .copied()
            .filter(|s| name(s) != LIVELOCK_CELL)
            .collect();
        let mut shared = run_cell(lead, &tame, budget);
        for ((_, runs), u) in shared.modes.iter_mut().zip(lead) {
            let mut tame_runs = std::mem::take(runs).into_iter();
            *runs = shadows
                .iter()
                .map(|s| match name(s) {
                    LIVELOCK_CELL => ShadowRun::Forked(spin(u, budget, step)),
                    _ => tame_runs.next().expect("a run per tame shadow"),
                })
                .collect();
        }
        shared
    }

    /// A run in `u`'s environment whose interposer spins with `step`.
    fn spin(u: &UnitSpec<'_>, budget: &RunBudget, step: SimTime) -> Result<RunRecord, RunError> {
        harness::run(
            Scope::Enterprise,
            "",
            false,
            u.controller,
            &[u.fail_mode],
            &FaultPlan::seeded(u.seed),
            budget,
            |sim, _| {
                sim.set_interposer(Box::new(Spin(step)));
                schedule_ping(sim, SimTime::from_secs(10), "h1", "10.0.0.6", 1, "w1")?;
                Ok(SimTime::from_secs(20))
            },
        )
        .remove(0)?;
        Err(RunError::Setup(
            "livelock cell reached its horizon — the spin interposer never engaged".into(),
        ))
    }

    fn run_chaos(matrix: &Matrix, cfg: &RunnerConfig, step: SimTime) -> CampaignReport {
        run_units(matrix, cfg, &|lead, shadows, budget| {
            chaos_unit(lead, shadows, budget, step)
        })
    }

    fn chaos_matrix() -> Matrix {
        Matrix {
            attacks: vec![
                attacks::by_name("trivial_pass").expect("attack exists"),
                chaos_attack(PANIC_CELL),
                chaos_attack(LIVELOCK_CELL),
            ],
            controllers: vec![ControllerKind::Pox, ControllerKind::Ryu],
            fail_modes: vec![FailMode::Secure],
            seeds: vec![1],
        }
    }

    #[test]
    fn chaos_cells_are_contained_and_annotated() {
        let matrix = chaos_matrix();
        let report = run_chaos(&matrix, &RunnerConfig::new(2), SimTime::ZERO);
        assert_eq!(report.cells.len(), 6);

        for cell in &report.cells {
            if cell.attack == PANIC_CELL {
                match &cell.status {
                    CellStatus::Panicked { msg } => assert_eq!(msg, PANIC_MESSAGE),
                    other => panic!("{}: expected Panicked, got {other:?}", cell.name),
                }
                assert!(cell.observed.is_none(), "{} must be unjudged", cell.name);
                assert!(!cell.pass);
            } else if cell.attack == LIVELOCK_CELL {
                match &cell.status {
                    CellStatus::BudgetExhausted { livelock, events } => {
                        assert!(*livelock, "{}: livelock detector must fire", cell.name);
                        assert!(*events > 0);
                    }
                    other => panic!("{}: expected BudgetExhausted, got {other:?}", cell.name),
                }
                assert!(cell.observed.is_none(), "{} must be unjudged", cell.name);
                assert!(!cell.pass);
            } else {
                // Healthy neighbours of chaos cells still complete and
                // pass (trivial_pass shares its baseline with them).
                assert!(
                    matches!(cell.status, CellStatus::Completed(_)),
                    "{}: expected Completed, got {:?}",
                    cell.name,
                    cell.status
                );
                assert!(cell.pass, "{} must pass", cell.name);
            }
        }
        assert_eq!(report.unjudged(), 4);
        assert_eq!(report.passed(), 2);

        // Degraded mode is visible, machine-readable, and never aborts.
        let json = report.canonical_json();
        assert!(json.contains("\"status\": \"panicked\""), "{json}");
        assert!(json.contains("\"status\": \"budget-exhausted\""), "{json}");
        assert!(json.contains("\"verdict\": \"unjudged\""), "{json}");
        assert!(json.contains(PANIC_MESSAGE), "{json}");
        assert!(json.contains("livelock detected"), "{json}");
        assert!(json.contains("\"unjudged\": 4"), "{json}");

        // Unjudged cells never leak into the golden digests.
        let golden = report.golden_digests();
        assert_eq!(golden.lines().count(), 2, "{golden}");
        assert!(!golden.contains(PANIC_CELL), "{golden}");
        assert!(!golden.contains(LIVELOCK_CELL), "{golden}");
    }

    #[test]
    fn chaos_report_is_byte_identical_across_thread_counts() {
        let matrix = chaos_matrix();
        let serial = run_chaos(&matrix, &RunnerConfig::new(1), SimTime::ZERO);
        let parallel = run_chaos(&matrix, &RunnerConfig::new(4), SimTime::ZERO);
        assert_eq!(
            serial.canonical_json(),
            parallel.canonical_json(),
            "degraded-mode report bytes must not depend on the worker count"
        );
    }

    /// `trivial_pass` on POX under both fail modes, one seed: one
    /// environment, whose baseline and attacked units are twin pairs.
    fn pair_matrix() -> Matrix {
        Matrix {
            attacks: vec![attacks::by_name("trivial_pass").expect("attack exists")],
            controllers: vec![ControllerKind::Pox],
            fail_modes: vec![FailMode::Safe, FailMode::Secure],
            seeds: vec![1],
        }
    }

    /// Whether a run of `lead` with `shadows` makes a unit of `attack`
    /// run fail-safe.
    fn runs_safe(lead: &[&UnitSpec<'_>], shadows: &[&UnitSpec<'_>], attack: &str) -> bool {
        let safe = lead.iter().any(|u| u.fail_mode == FailMode::Safe);
        let mut attacked = lead.iter().filter(|u| u.attacked).chain(shadows);
        safe && attacked.any(|u| u.attack.def.name == attack)
    }

    #[test]
    fn a_panicking_safe_twin_leaves_its_secure_twin_to_run() {
        let unit = |lead: &[&UnitSpec<'_>], shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            if runs_safe(lead, shadows, "trivial_pass") {
                panic!("{PANIC_MESSAGE}");
            }
            run_cell(lead, shadows, budget)
        };
        let report = run_units(&pair_matrix(), &RunnerConfig::new(1), &unit);
        let [safe, secure] = &report.cells[..] else {
            panic!("expected two cells, got {}", report.cells.len());
        };
        assert!(
            matches!(safe.status, CellStatus::Panicked { .. }),
            "{:?}",
            safe.status
        );
        assert!(
            matches!(secure.status, CellStatus::Completed(_)),
            "{:?}",
            secure.status
        );
        assert!(secure.pass, "the secure twin is judged on its own run");
        // The environment's run for both fail modes panicked, so each of
        // its four units ran alone in its one mode.
        let shape = RunShape {
            standalone: 4,
            ..RunShape::default()
        };
        assert_eq!(report.shape, shape);
    }

    #[test]
    fn an_unread_twin_runs_once_and_lends_its_record() {
        let runs = AtomicUsize::new(0);
        let unit = |lead: &[&UnitSpec<'_>], shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            runs.fetch_add(1, Ordering::Relaxed);
            run_cell(lead, shadows, budget)
        };
        let report = run_units(&pair_matrix(), &RunnerConfig::new(1), &unit);
        assert_eq!(
            runs.into_inner(),
            1,
            "one run for both modes and both units"
        );
        let safe = report.cells[0].outcome().expect("safe twin completes");
        let secure = report.cells[1].outcome().expect("secure twin completes");
        assert_eq!(
            secure,
            &RunRecord {
                wall_ms: 0,
                ..safe.clone()
            }
        );
        assert_eq!(report.passed(), 2);
        let shape = RunShape {
            environments: 1,
            undiverged: 1,
            ..RunShape::default()
        };
        assert_eq!(report.shape, shape);
    }

    #[test]
    fn shared_runs_are_byte_identical_across_thread_counts() {
        // Ryu's shared run panics, so each of its units runs alone in its
        // mode (the panicking safe twin panics again), beside POX's, which
        // completes for both modes at once.
        let unit = |lead: &[&UnitSpec<'_>], shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            let ryu = lead.iter().any(|u| u.controller == ControllerKind::Ryu);
            if ryu && runs_safe(lead, shadows, PANIC_CELL) {
                panic!("{PANIC_MESSAGE}");
            }
            run_cell(lead, shadows, budget)
        };
        let matrix = Matrix {
            attacks: vec![pair_matrix().attacks[0], chaos_attack(PANIC_CELL)],
            controllers: vec![ControllerKind::Pox, ControllerKind::Ryu],
            ..pair_matrix()
        };
        let serial = run_units(&matrix, &RunnerConfig::new(1), &unit);
        let parallel = run_units(&matrix, &RunnerConfig::new(4), &unit);
        assert_eq!(serial.canonical_json(), parallel.canonical_json());
        assert_eq!(serial.cells.len(), 8);
        assert_eq!(serial.unjudged(), 1, "Ryu's panicking safe twin");
        assert_eq!(serial.passed(), 7);
        let shape = RunShape {
            environments: 1,
            undiverged: 2,
            standalone: 6,
            ..RunShape::default()
        };
        assert_eq!((serial.shape, parallel.shape), (shape, shape));
    }

    #[test]
    fn a_shared_setup_failure_fails_every_unit_as_its_own_run_would() {
        // Two attacks bounded alike share the baseline's environment, so
        // both shadow it; the bound names a host, so its setup fails.
        let bounded = |name| {
            let table = Some(TableOverride {
                switch: "h1",
                capacity: 8,
                policy: EvictionPolicy::EvictLru,
            });
            Prepared::new(AttackDef {
                table,
                ..attacks::by_name(name).expect("attack exists")
            })
        };
        let (a, b) = (bounded("trivial_pass"), bounded("flow_mod_suppression"));
        assert!(b.shadow_of(&a).is_some() && a.shadow_of(&a).is_some());
        // The baseline's units, then each attack's, one per fail mode.
        let mut units = Vec::new();
        for (attack, attacked) in [(&a, false), (&a, true), (&b, true)] {
            for fail_mode in [FailMode::Safe, FailMode::Secure] {
                let (controller, seed) = (ControllerKind::Pox, 1);
                units.push(UnitSpec {
                    attack,
                    controller,
                    fail_mode,
                    seed,
                    attacked,
                });
            }
        }
        let envs = [vec![vec![0, 1], vec![2, 3], vec![4, 5]]];
        let (statuses, shape) = run_pool(&run_cell, &units, &envs, &RunnerConfig::new(1));
        for (u, got) in units.iter().zip(&statuses) {
            let (kind, mode, budget) = (u.controller, u.fail_mode, RunBudget::default());
            let alone = cell::run(u.attack, kind, mode, u.seed, u.attacked, &budget);
            assert!(matches!(got, CellStatus::Failed { .. }), "{got:?}");
            assert_eq!(*got, status(alone));
        }
        let shape_of_one_run = RunShape {
            environments: 1,
            undiverged: 2,
            ..RunShape::default()
        };
        assert_eq!(shape, shape_of_one_run);
    }

    #[test]
    fn wall_clock_supervisor_cancels_a_livelocked_cell() {
        let matrix = Matrix {
            attacks: vec![chaos_attack(LIVELOCK_CELL)],
            controllers: vec![ControllerKind::Pox],
            fail_modes: vec![FailMode::Secure],
            seeds: vec![1],
        };
        // A 1 ns step keeps virtual time advancing, so the livelock
        // detector never fires and only the wall-clock deadline can stop
        // the spin.
        let mut cfg = RunnerConfig::new(1);
        cfg.cell_timeout = Some(Duration::from_millis(200));
        let report = run_chaos(&matrix, &cfg, SimTime::from_nanos(1));
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].status, CellStatus::TimedOut);
        assert!(report.cells[0].observed.is_none());
        assert_eq!(report.unjudged(), 1);
        let json = report.canonical_json();
        assert!(json.contains("\"status\": \"timed-out\""), "{json}");
        assert!(json.contains("cancelled by wall-clock deadline"), "{json}");
    }
}
