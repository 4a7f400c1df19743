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
//! Twin reuse: a twin group is the units that differ only in fail mode,
//! run in order by one worker. A switch's fail mode has one read path,
//! which marks the run ([`RunRecord::fail_mode_read`]); a completed run
//! that never read it is the same computation under the other fail mode,
//! so later twins take its record instead of running. Only a `Completed`
//! record is reused: every other status makes the next twin run for real.
//!
//! Supervision argument: every unit runs inside `catch_unwind`, writes
//! its [`CellStatus`] into a private `OnceLock` slot (no shared mutex
//! to poison), and is bounded three ways — a deterministic event
//! budget, a deterministic livelock detector, and a wall-clock
//! deadline heap that cancels overrunners through a [`CancelToken`].
//! Only wall-clock timeouts are retried (same seed, exponential
//! backoff): they are the one nondeterministic failure mode, so a
//! flaky host gets another chance while deterministic failures
//! (panics, budget halts, setup errors) are reported as-is.

use crate::attacks::{AttackDef, Scope};
use crate::cell;
use crate::matrix::{fail_slug, Matrix};
use crate::oracle;
use crate::report::{CampaignReport, CellReport};
use attain_controllers::ControllerKind;
use attain_injector::harness::RunError;
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

struct UnitSpec {
    attack: AttackDef,
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

/// What the pool runs for each unit: [`run_cell`] in a campaign, a
/// deliberately misbehaving stand-in in the supervision tests.
type UnitFn<'a> = &'a (dyn Fn(&UnitSpec, &RunBudget) -> Result<RunRecord, RunError> + Sync);

/// Runs one unit once, fully contained: panics become `Panicked`,
/// errors become their statuses.
fn attempt_unit(run_unit: UnitFn<'_>, u: &UnitSpec, budget: &RunBudget) -> CellStatus {
    let result = catch_unwind(AssertUnwindSafe(|| run_unit(u, budget)));
    match result {
        Ok(Ok(record)) => CellStatus::Completed(record),
        Ok(Err(RunError::Halted(HaltReason::EventBudget { events }))) => {
            CellStatus::BudgetExhausted {
                events,
                livelock: false,
            }
        }
        Ok(Err(RunError::Halted(HaltReason::Livelock { events_at_instant }))) => {
            CellStatus::BudgetExhausted {
                events: events_at_instant,
                livelock: true,
            }
        }
        Ok(Err(RunError::Halted(HaltReason::Cancelled))) => CellStatus::TimedOut,
        // `Setup`; a halt at the horizon is the `Ok` above.
        Ok(Err(e)) => CellStatus::Failed { msg: e.to_string() },
        Err(payload) => CellStatus::Panicked {
            msg: panic_message(payload),
        },
    }
}

/// Runs one unit under supervision, retrying wall-clock timeouts with
/// exponential backoff.
fn run_supervised(
    run_unit: UnitFn<'_>,
    u: &UnitSpec,
    cfg: &RunnerConfig,
    supervisor: Option<&Supervisor>,
) -> CellStatus {
    let mut attempt = 0u32;
    loop {
        let token = CancelToken::new();
        if let (Some(sup), Some(timeout)) = (supervisor, cfg.cell_timeout) {
            sup.register(Instant::now() + timeout, token.clone());
        }
        let budget = RunBudget {
            max_events: cfg.max_events,
            max_events_per_instant: Some(cfg.livelock_bound),
            cancel: Some(token),
        };
        let status = attempt_unit(run_unit, u, &budget);
        if status == CellStatus::TimedOut && attempt < cfg.retries {
            let backoff = cfg.retry_backoff.saturating_mul(1u32 << attempt.min(10));
            attempt += 1;
            std::thread::sleep(backoff);
            continue;
        }
        return status;
    }
}

/// Runs one twin group in order. After the first record that completed
/// without reading a fail mode, every later twin takes a copy of it,
/// with `wall_ms` 0 since no time was spent on it.
fn run_group(
    run_unit: UnitFn<'_>,
    units: &[UnitSpec],
    group: &[usize],
    cfg: &RunnerConfig,
    supervisor: Option<&Supervisor>,
    results: &[OnceLock<CellStatus>],
) {
    let mut donor: Option<&RunRecord> = None;
    for &i in group {
        let status = match donor {
            Some(record) => CellStatus::Completed(RunRecord {
                wall_ms: 0,
                ..record.clone()
            }),
            None => run_supervised(run_unit, &units[i], cfg, supervisor),
        };
        let _ = results[i].set(status);
        if donor.is_none() {
            donor = results[i]
                .get()
                .and_then(CellStatus::outcome)
                .filter(|r| !r.fail_mode_read);
        }
    }
}

fn run_pool(
    run_unit: UnitFn<'_>,
    units: &[UnitSpec],
    groups: &[Vec<usize>],
    cfg: &RunnerConfig,
) -> Vec<CellStatus> {
    let supervisor = cfg.cell_timeout.map(|_| Supervisor::spawn());
    // Per-slot storage: a panicking worker (even one that somehow
    // escapes `catch_unwind`) can poison nothing — every other slot
    // still fills and the merge proceeds.
    let results: Vec<OnceLock<CellStatus>> = (0..units.len()).map(|_| OnceLock::new()).collect();
    let jobs = cfg.jobs.max(1).min(groups.len().max(1));
    if jobs <= 1 {
        for group in groups {
            run_group(run_unit, units, group, cfg, supervisor.as_ref(), &results);
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
                    run_group(run_unit, units, group, cfg, supervisor.as_ref(), &results);
                });
            }
        });
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or(CellStatus::Panicked {
                msg: "worker vanished before storing a result".into(),
            })
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

/// The campaign's unit: one cell run, attacked or baseline.
fn run_cell(u: &UnitSpec, budget: &RunBudget) -> Result<RunRecord, RunError> {
    cell::run(
        &u.attack,
        u.controller,
        u.fail_mode,
        u.seed,
        u.attacked,
        budget,
    )
}

/// [`run_with`] over an arbitrary unit function: the runner's seam, so
/// its supervision can be tested with units that panic or spin.
fn run_units(matrix: &Matrix, cfg: &RunnerConfig, run_unit: UnitFn<'_>) -> CampaignReport {
    let started = Instant::now();
    let cells = matrix.cells();

    // One baseline unit per distinct (topology, controller, fail,
    // seed), then every attacked cell in matrix order.
    let mut units: Vec<UnitSpec> = Vec::new();
    let mut baseline_slot: BTreeMap<(&str, &str, &str, u64), usize> = BTreeMap::new();
    for cell in &cells {
        let attack = matrix.attacks[cell.attack];
        let key = (
            topology_key(&attack),
            cell.controller.slug(),
            fail_slug(cell.fail_mode),
            cell.seed,
        );
        baseline_slot.entry(key).or_insert_with(|| {
            units.push(UnitSpec {
                attack,
                controller: cell.controller,
                fail_mode: cell.fail_mode,
                seed: cell.seed,
                attacked: false,
            });
            units.len() - 1
        });
    }
    let first_cell_unit = units.len();
    for cell in &cells {
        units.push(UnitSpec {
            attack: matrix.attacks[cell.attack],
            controller: cell.controller,
            fail_mode: cell.fail_mode,
            seed: cell.seed,
            attacked: true,
        });
    }
    // Twin groups: the units that differ only in fail mode, in
    // `matrix.fail_modes` order (units were pushed in matrix order).
    let mut group_of: BTreeMap<(bool, &str, &str, u64), usize> = BTreeMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let name = if u.attacked {
            u.attack.name
        } else {
            topology_key(&u.attack)
        };
        let key = (u.attacked, name, u.controller.slug(), u.seed);
        let g = *group_of.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }

    let results = run_pool(run_unit, &units, &groups, cfg);

    let mut reports = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let attack = &matrix.attacks[cell.attack];
        let key = (
            topology_key(attack),
            cell.controller.slug(),
            fail_slug(cell.fail_mode),
            cell.seed,
        );
        let status = results[first_cell_unit + i].clone();
        let baseline = &results[baseline_slot[&key]];
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

    /// The campaign's unit, except that the chaos cells misbehave on
    /// the attacked half of their pair.
    fn chaos_unit(u: &UnitSpec, budget: &RunBudget) -> Result<RunRecord, RunError> {
        match (u.attacked, u.attack.name) {
            (true, PANIC_CELL) => panic!("{PANIC_MESSAGE}"),
            (true, LIVELOCK_CELL) => spin(u, budget),
            _ => run_cell(u, budget),
        }
    }

    /// A run whose interposer never lets virtual time advance.
    fn spin(u: &UnitSpec, budget: &RunBudget) -> Result<RunRecord, RunError> {
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
        let unit = |u: &UnitSpec, budget: &RunBudget| {
            if u.attacked && u.fail_mode == FailMode::Safe {
                panic!("{PANIC_MESSAGE}");
            }
            run_cell(u, budget)
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
    }

    #[test]
    fn twins_that_read_their_fail_mode_both_run() {
        let calls = AtomicUsize::new(0);
        let unit = |u: &UnitSpec, budget: &RunBudget| -> Result<RunRecord, RunError> {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(RunRecord {
                fail_mode_read: true,
                ..run_cell(u, budget)?
            })
        };
        let report = run_units(&twin_matrix(), &RunnerConfig::new(1), &unit);
        assert_eq!(calls.into_inner(), 4, "both baselines and both cells run");
        assert_eq!(report.passed(), 2);
    }

    #[test]
    fn an_unread_twin_runs_once_and_lends_its_record() {
        let calls = AtomicUsize::new(0);
        let unit = |u: &UnitSpec, budget: &RunBudget| -> Result<RunRecord, RunError> {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(RunRecord {
                fail_mode_read: false,
                wall_ms: 7,
                ..run_cell(u, budget)?
            })
        };
        let report = run_units(&twin_matrix(), &RunnerConfig::new(1), &unit);
        assert_eq!(calls.into_inner(), 2, "one baseline and one cell run");
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
        let unit = |u: &UnitSpec, budget: &RunBudget| -> Result<RunRecord, RunError> {
            if u.attacked && u.attack.name == PANIC_CELL && u.fail_mode == FailMode::Safe {
                panic!("{PANIC_MESSAGE}");
            }
            let record = run_cell(u, budget)?;
            Ok(RunRecord {
                fail_mode_read: u.controller == ControllerKind::Ryu,
                ..record
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
