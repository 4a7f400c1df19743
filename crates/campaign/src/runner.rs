//! The supervised worker pool: executes every cell (and each distinct
//! baseline exactly once) across `jobs` threads, then merges results
//! back in matrix order.
//!
//! Determinism argument: each unit is a single-threaded seeded
//! simulation (a pure function of its coordinates), workers only race
//! for *which* twin group to run next (an atomic cursor), and assembly
//! iterates the matrix — never the completion order. Hence the report
//! is byte-identical for any `jobs ≥ 1`.
//!
//! Shared runs: an environment is a (topology, controller, fail mode,
//! seed) tuple. Its baseline runs once with each of its attacks that
//! can share that run attached as a shadow ([`harness::run_shadowed`]):
//! a shadow's unit is a fork of the baseline from its first answer other
//! than pass, or the baseline's own record if it never gives one. Either
//! way it is the record its own run makes. An attack whose environment
//! differs from its baseline's (a table bound) runs alone.
//!
//! Twin reuse: a twin group is the environments that differ only in fail
//! mode, run in order by one worker. A switch's fail mode has one read
//! path, which marks the run ([`RunRecord::fail_mode_read`]); a completed
//! run that never read it is the same computation under the other fail
//! mode, so its later twins take its record instead of running. Only a
//! `Completed` record is reused: every other status makes the next twin
//! run for real.
//!
//! Supervision argument: every unit runs inside `catch_unwind`, writes
//! its [`CellStatus`] into a private `OnceLock` slot (no shared mutex
//! to poison), and is bounded three ways — a deterministic event
//! budget, a deterministic livelock detector, and a wall-clock
//! deadline heap that cancels overrunners through a [`CancelToken`].
//! Only wall-clock timeouts are retried (same seed, exponential
//! backoff): they are the one nondeterministic failure mode, so a
//! flaky host gets another chance while deterministic failures
//! (panics, budget halts, setup errors) are reported as-is. A shared run
//! is one attempt for all of its units: if it panics or times out, each
//! of them runs alone under that supervision, so no status depends on
//! the sharing.
//!
//! [`harness::run_shadowed`]: attain_injector::harness::run_shadowed

use crate::attacks::{AttackDef, Scope};
use crate::cell::{self, Prepared};
use crate::matrix::{fail_slug, Matrix};
use crate::oracle;
use crate::report::{CampaignReport, CellReport, RunShape};
use attain_controllers::ControllerKind;
use attain_injector::harness::{RunError, ShadowRun};
use attain_injector::RunRecord;
use attain_netsim::{CancelToken, FailMode, HaltReason, RunBudget};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default per-instant event bound: orders of magnitude above anything
/// a healthy cell dispatches at one virtual time, small enough to trip
/// a genuine livelock in milliseconds.
pub const DEFAULT_LIVELOCK_BOUND: u64 = 200_000;

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
    /// The supervisor's wall-clock deadline cancelled the run (after
    /// any configured retries).
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
    pub fn outcome(&self) -> Option<&RunRecord> {
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

/// Supervision knobs for a campaign run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Wall-clock deadline per unit attempt; `None` disables the
    /// supervisor thread entirely.
    pub cell_timeout: Option<Duration>,
    /// Deterministic cap on total simulator events per unit.
    pub max_events: Option<u64>,
    /// Deterministic cap on events at one virtual instant.
    pub livelock_bound: u64,
    /// Same-seed retries for timed-out units (the one nondeterministic
    /// failure mode). Deterministic failures are never retried.
    pub retries: u32,
    /// Backoff before the first retry; doubles per further attempt.
    pub retry_backoff: Duration,
}

impl RunnerConfig {
    /// Defaults: no wall-clock timeout, no event cap, the stock
    /// livelock bound, no retries.
    pub fn new(jobs: usize) -> RunnerConfig {
        RunnerConfig {
            jobs,
            cell_timeout: None,
            max_events: None,
            livelock_bound: DEFAULT_LIVELOCK_BOUND,
            retries: 0,
            retry_backoff: Duration::from_millis(100),
        }
    }
}

struct UnitSpec<'a> {
    attack: &'a Prepared,
    controller: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
    attacked: bool,
}

impl UnitSpec<'_> {
    /// What the unit's fail-mode twins share within their twin group:
    /// the baseline, or the attack's name.
    fn twin(&self) -> (bool, &'static str) {
        let name = if self.attacked {
            self.attack.def.name
        } else {
            ""
        };
        (self.attacked, name)
    }
}

/// How a unit's status was produced (the report's [`RunShape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Made {
    /// A baseline run with shadows attached.
    Environment,
    /// A shadow's fork.
    Forked,
    /// A shadow that never diverged.
    Undiverged,
    /// Run alone.
    Alone,
    /// Its fail-mode twin's record.
    Reused,
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

// ---- wall-clock deadline supervisor ---------------------------------------

struct Deadline {
    due: Instant,
    seq: u64,
    token: CancelToken,
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for Deadline {}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// One thread holding a deadline min-heap; workers register `(due,
/// token)` pairs and the thread cancels whatever overruns. Dropping
/// the supervisor closes the channel and joins the thread.
struct Supervisor {
    tx: Option<mpsc::Sender<Deadline>>,
    handle: Option<JoinHandle<()>>,
    seq: AtomicUsize,
}

impl Supervisor {
    fn spawn() -> Supervisor {
        let (tx, rx) = mpsc::channel::<Deadline>();
        let handle = std::thread::spawn(move || {
            let mut heap: BinaryHeap<Reverse<Deadline>> = BinaryHeap::new();
            loop {
                let wait = match heap.peek() {
                    Some(Reverse(d)) => d.due.saturating_duration_since(Instant::now()),
                    None => Duration::from_secs(3600),
                };
                match rx.recv_timeout(wait) {
                    Ok(d) => heap.push(Reverse(d)),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // All workers done; pending deadlines are moot.
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
                let now = Instant::now();
                while heap.peek().is_some_and(|Reverse(d)| d.due <= now) {
                    if let Some(Reverse(d)) = heap.pop() {
                        d.token.cancel();
                    }
                }
            }
        });
        Supervisor {
            tx: Some(tx),
            handle: Some(handle),
            seq: AtomicUsize::new(0),
        }
    }

    fn register(&self, due: Instant, token: CancelToken) {
        if let Some(tx) = &self.tx {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) as u64;
            let _ = tx.send(Deadline { due, seq, token });
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
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

/// What the pool runs: a unit alone (no shadows), or a baseline unit
/// with attacked units of its environment as shadows, answering one
/// [`ShadowRun`] per shadow — [`run_cell`] in a campaign, a deliberately
/// misbehaving stand-in in the supervision tests.
type UnitFn<'a> = &'a (dyn Fn(
    &UnitSpec<'_>,
    &[&UnitSpec<'_>],
    &RunBudget,
) -> (Result<RunRecord, RunError>, Vec<ShadowRun>)
         + Sync);

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

/// A fresh attempt's budget, with its wall-clock deadline registered.
fn attempt_budget(cfg: &RunnerConfig, supervisor: Option<&Supervisor>) -> RunBudget {
    let token = CancelToken::new();
    if let (Some(sup), Some(timeout)) = (supervisor, cfg.cell_timeout) {
        sup.register(Instant::now() + timeout, token.clone());
    }
    RunBudget {
        max_events: cfg.max_events,
        max_events_per_instant: Some(cfg.livelock_bound),
        cancel: Some(token),
    }
}

/// Runs one unit alone under supervision, fully contained (panics become
/// `Panicked`, errors their statuses), retrying wall-clock timeouts with
/// exponential backoff.
fn run_supervised(
    run_unit: UnitFn<'_>,
    u: &UnitSpec<'_>,
    cfg: &RunnerConfig,
    supervisor: Option<&Supervisor>,
) -> CellStatus {
    let mut attempt = 0u32;
    loop {
        let budget = attempt_budget(cfg, supervisor);
        let status = match catch_unwind(AssertUnwindSafe(|| run_unit(u, &[], &budget).0)) {
            Ok(result) => status(result),
            Err(payload) => CellStatus::Panicked {
                msg: panic_message(payload),
            },
        };
        if status == CellStatus::TimedOut && attempt < cfg.retries {
            let backoff = cfg.retry_backoff.saturating_mul(1u32 << attempt.min(10));
            attempt += 1;
            std::thread::sleep(backoff);
            continue;
        }
        return status;
    }
}

/// The pool's shared state: every unit, its result slot, and how to run
/// one.
struct Pool<'a> {
    run_unit: UnitFn<'a>,
    units: &'a [UnitSpec<'a>],
    cfg: &'a RunnerConfig,
    supervisor: Option<&'a Supervisor>,
    results: &'a [OnceLock<(CellStatus, Made)>],
}

impl Pool<'_> {
    fn set(&self, i: usize, status: CellStatus, made: Made) {
        let _ = self.results[i].set((status, made));
    }

    fn record(&self, i: usize) -> Option<&RunRecord> {
        self.results[i]
            .get()
            .and_then(|(status, _)| status.outcome())
    }

    fn run_alone(&self, i: usize) {
        let status = run_supervised(self.run_unit, &self.units[i], self.cfg, self.supervisor);
        self.set(i, status, Made::Alone);
    }

    /// Runs one twin group: its environments in fail-mode order. A unit
    /// whose earlier twin completed without reading a fail mode takes a
    /// copy of that record, with `wall_ms` 0 since no time was spent on
    /// it; the environment's other units run.
    fn run_group(&self, group: &[Vec<usize>]) {
        let mut donors: BTreeMap<(bool, &str), usize> = BTreeMap::new();
        for env in group {
            let mut todo = Vec::new();
            for &i in env {
                match donors
                    .get(&self.units[i].twin())
                    .and_then(|&d| self.record(d))
                {
                    Some(record) => {
                        let record = RunRecord {
                            wall_ms: 0,
                            ..record.clone()
                        };
                        self.set(i, CellStatus::Completed(record), Made::Reused);
                    }
                    None => todo.push(i),
                }
            }
            self.run_env(&todo);
            for &i in &todo {
                if self.record(i).is_some_and(|r| !r.fail_mode_read) {
                    donors.entry(self.units[i].twin()).or_insert(i);
                }
            }
        }
    }

    /// Runs the units of one environment that need running: its baseline,
    /// if among them, with every attack that can share its run as a
    /// shadow; the rest alone.
    fn run_env(&self, todo: &[usize]) {
        let alone = match todo.split_first() {
            Some((&lead, rest)) if !self.units[lead].attacked => {
                let baseline = self.units[lead].attack;
                let (shadows, alone): (Vec<usize>, Vec<usize>) = rest
                    .iter()
                    .partition(|&&i| self.units[i].attack.shadow_of(baseline).is_some());
                self.run_shared(lead, &shadows);
                alone
            }
            _ => todo.to_vec(),
        };
        for i in alone {
            self.run_alone(i);
        }
    }

    /// Runs `lead` with `shadows` attached as one supervised attempt. If
    /// it panics or times out, every one of its units runs alone instead.
    fn run_shared(&self, lead: usize, shadows: &[usize]) {
        if shadows.is_empty() {
            return self.run_alone(lead);
        }
        let budget = attempt_budget(self.cfg, self.supervisor);
        let specs: Vec<&UnitSpec<'_>> = shadows.iter().map(|&i| &self.units[i]).collect();
        let shared = catch_unwind(AssertUnwindSafe(|| {
            (self.run_unit)(&self.units[lead], &specs, &budget)
        }));
        let cancelled = |r: &Result<RunRecord, RunError>| {
            matches!(r, Err(RunError::Halted(HaltReason::Cancelled)))
        };
        let shared = shared.ok().filter(|(record, runs)| {
            !cancelled(record)
                && runs.iter().all(|run| match run {
                    ShadowRun::Forked(r) | ShadowRun::Undiverged(r) => !cancelled(r),
                    ShadowRun::NotRun => true,
                })
        });
        let Some((record, runs)) = shared else {
            for &i in std::iter::once(&lead).chain(shadows) {
                self.run_alone(i);
            }
            return;
        };
        self.set(lead, status(record), Made::Environment);
        for (&i, run) in shadows.iter().zip(runs) {
            match run {
                ShadowRun::Forked(r) => self.set(i, status(r), Made::Forked),
                ShadowRun::Undiverged(r) => self.set(i, status(r), Made::Undiverged),
                ShadowRun::NotRun => self.run_alone(i),
            }
        }
    }
}

/// Runs every twin group on `cfg.jobs` workers; returns each unit's
/// status and how it was made, in unit order.
fn run_pool(
    run_unit: UnitFn<'_>,
    units: &[UnitSpec<'_>],
    groups: &[Vec<Vec<usize>>],
    cfg: &RunnerConfig,
) -> Vec<(CellStatus, Made)> {
    let supervisor = cfg.cell_timeout.map(|_| Supervisor::spawn());
    // Per-slot storage: a panicking worker (even one that somehow
    // escapes `catch_unwind`) can poison nothing — every other slot
    // still fills and the merge proceeds.
    let results: Vec<OnceLock<(CellStatus, Made)>> =
        (0..units.len()).map(|_| OnceLock::new()).collect();
    let pool = Pool {
        run_unit,
        units,
        cfg,
        supervisor: supervisor.as_ref(),
        results: &results,
    };
    let jobs = cfg.jobs.max(1).min(groups.len().max(1));
    if jobs <= 1 {
        for group in groups {
            pool.run_group(group);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let g = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else {
                        break;
                    };
                    pool.run_group(group);
                });
            }
        });
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or((
                CellStatus::Panicked {
                    msg: "worker vanished before storing a result".into(),
                },
                Made::Alone,
            ))
        })
        .collect()
}

/// Runs the whole campaign on `jobs` worker threads with default
/// supervision (deterministic livelock bound only).
pub fn run(matrix: &Matrix, jobs: usize) -> CampaignReport {
    run_with(matrix, &RunnerConfig::new(jobs))
}

/// Runs the whole campaign under an explicit [`RunnerConfig`].
pub fn run_with(matrix: &Matrix, cfg: &RunnerConfig) -> CampaignReport {
    run_units(matrix, cfg, &run_cell)
}

/// The campaign's unit function: one cell run, attacked or baseline,
/// alone or with shadows.
fn run_cell(
    u: &UnitSpec<'_>,
    shadows: &[&UnitSpec<'_>],
    budget: &RunBudget,
) -> (Result<RunRecord, RunError>, Vec<ShadowRun>) {
    let (kind, fail_mode, seed) = (u.controller, u.fail_mode, u.seed);
    if shadows.is_empty() {
        let record = cell::run(u.attack, kind, fail_mode, seed, u.attacked, budget);
        return (record, Vec::new());
    }
    let shadows: Vec<&Prepared> = shadows.iter().map(|s| s.attack).collect();
    cell::run_shadowed(u.attack, &shadows, kind, fail_mode, seed, budget)
}

/// [`run_with`] over an arbitrary unit function: the runner's seam, so
/// its supervision can be tested with units that panic or spin.
fn run_units(matrix: &Matrix, cfg: &RunnerConfig, run_unit: UnitFn<'_>) -> CampaignReport {
    let started = Instant::now();
    let cells = matrix.cells();
    // Each attack is compiled once, for all of its units.
    let prepared: Vec<Prepared> = matrix.attacks.iter().map(|&a| Prepared::new(a)).collect();

    // One baseline unit per environment — distinct (topology,
    // controller, fail, seed) — then every attacked cell in matrix order.
    // Environment `i` is baseline unit `i`, then its cells.
    let mut units: Vec<UnitSpec<'_>> = Vec::new();
    let mut envs: Vec<Vec<usize>> = Vec::new();
    let mut env_of: BTreeMap<(&str, &str, &str, u64), usize> = BTreeMap::new();
    let cell_env: Vec<usize> = cells
        .iter()
        .map(|cell| {
            let key = (
                topology_key(&matrix.attacks[cell.attack]),
                cell.controller.slug(),
                fail_slug(cell.fail_mode),
                cell.seed,
            );
            *env_of.entry(key).or_insert_with(|| {
                units.push(UnitSpec {
                    attack: &prepared[cell.attack],
                    controller: cell.controller,
                    fail_mode: cell.fail_mode,
                    seed: cell.seed,
                    attacked: false,
                });
                envs.push(vec![units.len() - 1]);
                envs.len() - 1
            })
        })
        .collect();
    let first_cell_unit = units.len();
    for (cell, &env) in cells.iter().zip(&cell_env) {
        units.push(UnitSpec {
            attack: &prepared[cell.attack],
            controller: cell.controller,
            fail_mode: cell.fail_mode,
            seed: cell.seed,
            attacked: true,
        });
        envs[env].push(units.len() - 1);
    }
    // Twin groups: the environments that differ only in fail mode, in
    // `matrix.fail_modes` order (environments were made in matrix order).
    let mut group_of: BTreeMap<(&str, &str, u64), usize> = BTreeMap::new();
    let mut groups: Vec<Vec<Vec<usize>>> = Vec::new();
    for env in envs {
        let u = &units[env[0]];
        let key = (topology_key(&u.attack.def), u.controller.slug(), u.seed);
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(env);
    }

    let results = run_pool(run_unit, &units, &groups, cfg);

    let mut shape = RunShape::default();
    for (_, made) in &results {
        match made {
            Made::Environment => shape.environments += 1,
            Made::Forked => shape.forked += 1,
            Made::Undiverged => shape.undiverged += 1,
            Made::Alone => shape.standalone += 1,
            Made::Reused => shape.reused += 1,
        }
    }
    let mut reports = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let attack = &matrix.attacks[cell.attack];
        let status = results[first_cell_unit + i].0.clone();
        let baseline = &results[cell_env[i]].0;
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

/// Supervision contract, driven through the runner's unit seam: a
/// panicking worker and a virtual-time livelock are contained and
/// annotated while every healthy cell in the same campaign still
/// completes, and the report bytes stay independent of the worker
/// count.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{self, AttackDef};
    use crate::report::CampaignReport;
    use attain_core::scenario;
    use attain_injector::harness::{self, schedule_ping};
    use attain_netsim::{FaultPlan, Interposer, InterposerActions, ProxiedMessage, SimTime};

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

    /// An interposer that re-arms a wakeup at `now` forever: the event
    /// loop spins at one virtual instant until the livelock detector
    /// (or a wall-clock cancel) stops it.
    struct Spin;

    impl Interposer for Spin {
        fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
            let mut a = InterposerActions::pass(&msg);
            a.wakeup = Some(msg.now);
            a
        }

        fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
            InterposerActions {
                wakeup: Some(now),
                ..InterposerActions::default()
            }
        }
    }

    /// The campaign's unit function, except that the chaos cells
    /// misbehave on the attacked half of their pair. As shadows, a
    /// panicking one takes its whole shared run down and a spinning one
    /// spins in its fork.
    fn chaos_unit(
        u: &UnitSpec<'_>,
        shadows: &[&UnitSpec<'_>],
        budget: &RunBudget,
    ) -> (Result<RunRecord, RunError>, Vec<ShadowRun>) {
        let name = |s: &UnitSpec<'_>| s.attack.def.name;
        match (u.attacked, name(u)) {
            (true, PANIC_CELL) => panic!("{PANIC_MESSAGE}"),
            (true, LIVELOCK_CELL) => return (spin(u, budget), Vec::new()),
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
        let (record, tame_runs) = run_cell(u, &tame, budget);
        let mut tame_runs = tame_runs.into_iter();
        let runs = shadows
            .iter()
            .map(|s| match name(s) {
                LIVELOCK_CELL => ShadowRun::Forked(spin(s, budget)),
                _ => tame_runs.next().unwrap_or(ShadowRun::NotRun),
            })
            .collect();
        (record, runs)
    }

    /// [`run_cell`] with `f` applied to every record it returns.
    fn run_cell_then(
        u: &UnitSpec<'_>,
        shadows: &[&UnitSpec<'_>],
        budget: &RunBudget,
        f: impl Fn(RunRecord) -> RunRecord,
    ) -> (Result<RunRecord, RunError>, Vec<ShadowRun>) {
        let (record, runs) = run_cell(u, shadows, budget);
        let runs = runs
            .into_iter()
            .map(|run| match run {
                ShadowRun::Forked(r) => ShadowRun::Forked(r.map(&f)),
                ShadowRun::Undiverged(r) => ShadowRun::Undiverged(r.map(&f)),
                ShadowRun::NotRun => ShadowRun::NotRun,
            })
            .collect();
        (record.map(&f), runs)
    }

    /// A run whose interposer never lets virtual time advance.
    fn spin(u: &UnitSpec<'_>, budget: &RunBudget) -> Result<RunRecord, RunError> {
        harness::run(
            Scope::Enterprise,
            "",
            false,
            u.controller,
            u.fail_mode,
            &FaultPlan::seeded(u.seed),
            budget,
            |sim, _| {
                sim.set_interposer(Box::new(Spin));
                schedule_ping(sim, SimTime::from_secs(10), "h1", "10.0.0.6", 1, "w1")?;
                Ok(SimTime::from_secs(20))
            },
        )?;
        Err(RunError::Setup(
            "livelock cell reached its horizon — the spin interposer never engaged".into(),
        ))
    }

    fn run_chaos(matrix: &Matrix, cfg: &RunnerConfig) -> CampaignReport {
        run_units(matrix, cfg, &chaos_unit)
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
        let report = run_chaos(&matrix, &RunnerConfig::new(2));
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
        let serial = run_chaos(&matrix, &RunnerConfig::new(1));
        let parallel = run_chaos(&matrix, &RunnerConfig::new(4));
        assert_eq!(
            serial.canonical_json(),
            parallel.canonical_json(),
            "degraded-mode report bytes must not depend on the worker count"
        );
    }

    /// `trivial_pass` on POX under both fail modes, one seed: one
    /// baseline twin pair and one attacked twin pair.
    fn twin_matrix() -> Matrix {
        Matrix {
            attacks: vec![attacks::by_name("trivial_pass").expect("attack exists")],
            controllers: vec![ControllerKind::Pox],
            fail_modes: vec![FailMode::Safe, FailMode::Secure],
            seeds: vec![1],
        }
    }

    #[test]
    fn a_panicking_safe_twin_leaves_its_secure_twin_to_run() {
        let unit = |u: &UnitSpec<'_>, shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            let mut all = std::iter::once(u).chain(shadows.iter().copied());
            if all.any(|s| s.attacked && s.fail_mode == FailMode::Safe) {
                panic!("{PANIC_MESSAGE}");
            }
            run_cell(u, shadows, budget)
        };
        let report = run_units(&twin_matrix(), &RunnerConfig::new(1), &unit);
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
        // The safe environment's shared run panicked, so both of its
        // units ran alone; the secure baseline took its twin's record.
        let shape = RunShape {
            standalone: 3,
            reused: 1,
            ..RunShape::default()
        };
        assert_eq!(report.shape, shape);
    }

    #[test]
    fn twins_that_read_their_fail_mode_both_run() {
        let runs = AtomicUsize::new(0);
        let unit = |u: &UnitSpec<'_>, shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            runs.fetch_add(1 + shadows.len(), Ordering::Relaxed);
            run_cell_then(u, shadows, budget, |r| RunRecord {
                fail_mode_read: true,
                ..r
            })
        };
        let report = run_units(&twin_matrix(), &RunnerConfig::new(1), &unit);
        assert_eq!(runs.into_inner(), 4, "both baselines and both cells run");
        assert_eq!(report.passed(), 2);
        let shape = RunShape {
            environments: 2,
            undiverged: 2,
            ..RunShape::default()
        };
        assert_eq!(report.shape, shape);
    }

    #[test]
    fn an_unread_twin_runs_once_and_lends_its_record() {
        let runs = AtomicUsize::new(0);
        let unit = |u: &UnitSpec<'_>, shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            runs.fetch_add(1 + shadows.len(), Ordering::Relaxed);
            run_cell_then(u, shadows, budget, |r| RunRecord {
                fail_mode_read: false,
                wall_ms: 7,
                ..r
            })
        };
        let report = run_units(&twin_matrix(), &RunnerConfig::new(1), &unit);
        assert_eq!(runs.into_inner(), 2, "one baseline and one cell run");
        let safe = report.cells[0].outcome().expect("safe twin completes");
        let secure = report.cells[1].outcome().expect("secure twin completes");
        assert_eq!(safe.wall_ms, 7);
        assert_eq!(
            secure,
            &RunRecord {
                wall_ms: 0,
                ..safe.clone()
            }
        );
        assert_eq!(report.passed(), 2);
    }

    #[test]
    fn twin_reuse_is_byte_identical_across_thread_counts() {
        // Every reuse case in one matrix: a panicking safe twin (its
        // secure twin runs), twins that read the fail mode (Ryu: both
        // run) and twins that do not (POX: one runs).
        let unit = |u: &UnitSpec<'_>, shadows: &[&UnitSpec<'_>], budget: &RunBudget| {
            let mut all = std::iter::once(u).chain(shadows.iter().copied());
            if all.any(|s| {
                s.attacked && s.attack.def.name == PANIC_CELL && s.fail_mode == FailMode::Safe
            }) {
                panic!("{PANIC_MESSAGE}");
            }
            run_cell_then(u, shadows, budget, |r| RunRecord {
                fail_mode_read: u.controller == ControllerKind::Ryu,
                ..r
            })
        };
        let matrix = Matrix {
            attacks: vec![twin_matrix().attacks[0], chaos_attack(PANIC_CELL)],
            controllers: vec![ControllerKind::Pox, ControllerKind::Ryu],
            ..twin_matrix()
        };
        let serial = run_units(&matrix, &RunnerConfig::new(1), &unit);
        let parallel = run_units(&matrix, &RunnerConfig::new(4), &unit);
        assert_eq!(serial.canonical_json(), parallel.canonical_json());
        assert_eq!(serial.cells.len(), 8);
        assert_eq!(serial.unjudged(), 2, "the two panicking safe twins");
        assert_eq!(serial.passed(), 6);
    }

    #[test]
    fn wall_clock_supervisor_cancels_a_livelocked_cell() {
        let matrix = Matrix {
            attacks: vec![chaos_attack(LIVELOCK_CELL)],
            controllers: vec![ControllerKind::Pox],
            fail_modes: vec![FailMode::Secure],
            seeds: vec![1],
        };
        // Disarm the deterministic livelock detector so only the
        // wall-clock deadline can stop the spin; exercise one same-seed
        // retry too.
        let mut cfg = RunnerConfig::new(1);
        cfg.livelock_bound = u64::MAX;
        cfg.cell_timeout = Some(Duration::from_millis(200));
        cfg.retries = 1;
        cfg.retry_backoff = Duration::from_millis(10);
        let report = run_chaos(&matrix, &cfg);
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].status, CellStatus::TimedOut);
        assert!(report.cells[0].observed.is_none());
        assert_eq!(report.unjudged(), 1);
        let json = report.canonical_json();
        assert!(json.contains("\"status\": \"timed-out\""), "{json}");
        assert!(json.contains("cancelled by wall-clock deadline"), "{json}");
    }
}
