//! The supervised worker pool: executes every cell (and each distinct
//! baseline exactly once) across `jobs` threads, then merges results
//! back in matrix order.
//!
//! Determinism argument: each unit is a single-threaded seeded
//! simulation (a pure function of its coordinates), workers only race
//! for *which* unit to run next (an atomic cursor), and assembly
//! iterates the matrix — never the completion order. Hence the report
//! is byte-identical for any `jobs ≥ 1`.
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

/// Runs one unit once, fully contained: panics become `Panicked`,
/// errors become their statuses.
fn attempt_unit(u: &UnitSpec, budget: &RunBudget) -> CellStatus {
    let result = catch_unwind(AssertUnwindSafe(|| {
        cell::run(
            &u.attack,
            u.controller,
            u.fail_mode,
            u.seed,
            u.attacked,
            budget,
        )
    }));
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
fn run_supervised(u: &UnitSpec, cfg: &RunnerConfig, supervisor: Option<&Supervisor>) -> CellStatus {
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
        let status = attempt_unit(u, &budget);
        if status == CellStatus::TimedOut && attempt < cfg.retries {
            let backoff = cfg.retry_backoff.saturating_mul(1u32 << attempt.min(10));
            attempt += 1;
            std::thread::sleep(backoff);
            continue;
        }
        return status;
    }
}

fn run_pool(units: &[UnitSpec], cfg: &RunnerConfig) -> Vec<CellStatus> {
    let supervisor = cfg.cell_timeout.map(|_| Supervisor::spawn());
    // Per-slot storage: a panicking worker (even one that somehow
    // escapes `catch_unwind`) can poison nothing — every other slot
    // still fills and the merge proceeds.
    let results: Vec<OnceLock<CellStatus>> = (0..units.len()).map(|_| OnceLock::new()).collect();
    let jobs = cfg.jobs.max(1).min(units.len().max(1));
    if jobs <= 1 {
        for (i, u) in units.iter().enumerate() {
            let _ = results[i].set(run_supervised(u, cfg, supervisor.as_ref()));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= units.len() {
                        break;
                    }
                    let _ = results[i].set(run_supervised(&units[i], cfg, supervisor.as_ref()));
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

    let results = run_pool(&units, cfg);

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
