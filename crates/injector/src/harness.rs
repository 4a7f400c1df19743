//! The experiment harness: the one path every simulated experiment
//! takes — [`run`] builds the network (the §VII enterprise case study or
//! a self-contained document's own topology), attaches the attack, lets
//! the caller schedule its timeline, drives the simulation to the
//! horizon under a [`RunBudget`] and hands it to the monitors' one
//! collector, once for every fail mode asked for: one run until a switch
//! first consults its mode, two from there. [`run_shared`] is the same
//! path for a baseline that carries attacks as shadows, each forked off
//! where it first diverges (the campaign's shared runs). The paper's own
//! timelines (§VII-B behind Figure 11, §VII-C behind Table II, the
//! fault-recovery scenario) live below it as the few lines that schedule
//! their commands; the campaign's live in `attain_campaign::cell`.

use crate::monitors::RunRecord;
use crate::sim::{SharedExecutor, SimInjector};
use attain_controllers::{Controller, ControllerKind, DmzFirewall, DmzPolicy};
use attain_core::exec::AttackExecutor;
use attain_core::model::{NodeRef, SystemModel};
use attain_core::{dsl, scenario};
use attain_netsim::{
    FailMode, FaultPlan, Fork, HaltReason, HostCommand, Interposer, NetworkBuilder, NodeId,
    RunBudget, SimTime, Simulation,
};
use attain_openflow::{DatapathId, PortNo};
use std::any::Any;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// How an attack description binds to a system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Compiled against the §VII enterprise scenario and run on the
    /// case-study network (Figure 8/9).
    Enterprise,
    /// A self-contained document carrying its own `system` and
    /// `capabilities` blocks; run on the topology it declares.
    SelfContained,
}

/// Why a run produced no record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run could not be set up: attack compile/validate failure,
    /// malformed document or topology, missing workload host or
    /// address. Deterministic.
    Setup(String),
    /// The simulation stopped short of its horizon (never
    /// [`HaltReason::Horizon`]): a deterministic budget tripped or the
    /// supervisor's cancellation token fired.
    Halted(HaltReason),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Setup(msg) => f.write_str(msg),
            RunError::Halted(halt) => write!(f, "halted short of the horizon: {halt:?}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Experiment sizing: the paper's full §VII-B timeline or a scaled-down
/// variant for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity {
    /// Number of 1 s ping trials (paper: 60).
    pub ping_trials: u32,
    /// Number of iperf trials (paper: 30).
    pub iperf_trials: u32,
    /// Seconds per iperf trial (paper: 10).
    pub iperf_secs: u64,
}

impl Fidelity {
    /// The paper's §VII-B parameters: 60 ping trials, 30 × 10 s iperf
    /// trials with 10 s gaps.
    pub fn paper() -> Fidelity {
        Fidelity {
            ping_trials: 60,
            iperf_trials: 30,
            iperf_secs: 10,
        }
    }

    /// A fast variant for unit/integration tests.
    pub fn quick() -> Fidelity {
        Fidelity {
            ping_trials: 10,
            iperf_trials: 2,
            iperf_secs: 5,
        }
    }
}

/// Instantiates a controller model of `kind` wrapped in the case study's
/// DMZ firewall policy for switch `s2` (dpid 1-based: switches are added
/// after the six hosts, so `s2` is the second switch → dpid 2).
pub fn case_study_controller(kind: ControllerKind) -> Box<dyn Controller> {
    let policy = DmzPolicy {
        firewall_dpid: DatapathId(2),
        external_port: PortNo(1),
        // The DMZ web server is trusted to reach inward (the Fig. 11
        // workloads run h1↔h6); Internet traffic via the gateway may
        // only reach the published destinations.
        trusted_sources: [Ipv4Addr::new(10, 0, 0, 1)].into_iter().collect(),
        allowed_external_dsts: [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)]
            .into_iter()
            .collect(),
    };
    Box::new(DmzFirewall::new(kind.instantiate(), policy))
}

/// Builds the Figure 8/9 enterprise network in the simulator: six hosts,
/// four switches, one controller of `kind` behind the DMZ firewall
/// policy, with `s2` in the requested fail mode.
///
/// Component names, addresses, and port numbers mirror
/// [`scenario::enterprise_network`], so attacks compiled against that
/// scenario drive this simulation.
pub fn build_case_study(kind: ControllerKind, s2_fail_mode: FailMode) -> Simulation {
    let mut b = NetworkBuilder::new();
    let h: Vec<_> = (1..=6)
        .map(|i| b.host(&format!("h{i}"), &format!("10.0.0.{i}")))
        .collect();
    let s1 = b.switch("s1");
    let s2 = b.switch_with_mode("s2", s2_fail_mode);
    let s3 = b.switch("s3");
    let s4 = b.switch("s4");
    // Link order fixes port numbers; must match the scenario (Fig. 8).
    b.link(h[0], s1); // s1 p1
    b.link(h[1], s1); // s1 p2
    b.link(s1, s2); // s1 p3 — s2 p1 (the firewall's external port)
    b.link(s2, s3); // s2 p2 — s3 p1
    b.link(h[2], s3); // s3 p2
    b.link(h[3], s3); // s3 p3
    b.link(s3, s4); // s3 p4 — s4 p1
    b.link(h[4], s4); // s4 p2
    b.link(h[5], s4); // s4 p3
    let c1 = b.controller("c1", case_study_controller(kind));
    for s in [s1, s2, s3, s4] {
        b.control(c1, s);
    }
    b.build()
}

/// Builds a simulator network from an arbitrary attack-model
/// [`SystemModel`] — hosts, switches, data-plane links, and control
/// connections all mirror the model, so a self-contained DSL document
/// becomes a runnable network.
///
/// Every switch gets `fail_mode`; every host needs an IP in the model
/// (the simulator cannot run an IP network without one).
/// `make_controller` is invoked once per controller in id order.
///
/// Port numbers are assigned in data-plane edge order (as the DSL's
/// auto-numbering does). A model whose `link` statements declare ports
/// out of declaration order will therefore disagree with the simulator
/// about port numbers — declare links in port order (as every bundled
/// scenario does) when attacks match on `in_port`.
pub fn build_simulation(
    system: &SystemModel,
    fail_mode: FailMode,
    mut make_controller: impl FnMut(&str) -> Box<dyn Controller>,
) -> Result<Simulation, RunError> {
    let mut b = NetworkBuilder::new();
    let mut host_ids = Vec::new();
    let mut switch_ids = Vec::new();
    // Hosts and switches in model id order interleaved as declared is
    // not recoverable; hosts first matches the MAC-derivation convention
    // documented on the scenario builders.
    for (_, h) in system.hosts() {
        let ip =
            h.ip.ok_or_else(|| RunError::Setup(format!("host {} has no IP address", h.name)))?;
        host_ids.push(b.host(&h.name, &ip.to_string()));
    }
    for (_, s) in system.switches() {
        switch_ids.push(b.switch_with_mode(&s.name, fail_mode));
    }
    for edge in system.data_plane() {
        let node = |r: NodeRef| match r {
            NodeRef::Host(h) => Ok(host_ids[h.0]),
            NodeRef::Switch(s) => Ok(switch_ids[s.0]),
            NodeRef::Controller(_) => Err(RunError::Setup(format!(
                "controller {} is not a data-plane vertex",
                system.name_of(r)
            ))),
        };
        b.link(node(edge.a)?, node(edge.b)?);
    }
    let ctrl_refs: Vec<_> = system
        .controllers()
        .map(|(_, c)| b.controller(&c.name, make_controller(&c.name)))
        .collect();
    for (_, c, s) in system.connections() {
        b.control(ctrl_refs[c.0], switch_ids[s.0]);
    }
    b.try_build().map_err(|e| RunError::Setup(e.to_string()))
}

/// Interposes `exec` on every control connection of `sim` that `system`
/// names — the paper's proxy placement. Returns the shared executor
/// handle for log inspection after the run.
pub fn attach(sim: &mut Simulation, exec: AttackExecutor, system: &SystemModel) -> SharedExecutor {
    let (injector, handle) = SimInjector::new(exec, system, sim);
    sim.set_interposer(Box::new(injector));
    handle
}

/// Compiles `attack_source` against the enterprise scenario and
/// [`attach`]es it to `sim`. A malformed attack is a [`RunError::Setup`]:
/// in a campaign, one `Failed` cell rather than a dead worker.
pub fn try_attach_attack(
    sim: &mut Simulation,
    attack_source: &str,
) -> Result<SharedExecutor, RunError> {
    let armed = Armed::enterprise(attack_source)?;
    Ok(attach(sim, armed.exec, &armed.system))
}

/// An attack compiled against its system model and validated, once:
/// every run that attaches it starts from a copy of its fresh executor.
#[derive(Debug, Clone)]
pub struct Armed {
    system: SystemModel,
    exec: AttackExecutor,
}

impl Armed {
    /// Compiles `attack_source` against the enterprise scenario.
    fn enterprise(attack_source: &str) -> Result<Armed, RunError> {
        let sc = scenario::enterprise_network();
        let compiled = dsl::compile(attack_source, &sc.system, &sc.attack_model)
            .map_err(|e| RunError::Setup(format!("attack does not compile: {e}")))?;
        let exec = AttackExecutor::new(sc.system.clone(), sc.attack_model, compiled.attack)
            .map_err(|e| RunError::Setup(format!("attack does not validate: {e}")))?;
        Ok(Armed {
            system: sc.system,
            exec,
        })
    }
}

/// A source compiled once under its [`Scope`]: everything a run of it
/// reads from `source`.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The system model a self-contained document declares; `None` under
    /// [`Scope::Enterprise`].
    pub document: Option<SystemModel>,
    /// The attack, or why the source yields no valid one (which fails
    /// only the runs that attach it).
    pub attack: Result<Armed, RunError>,
}

impl Compiled {
    /// Compiles `source` under `scope`. The error is a self-contained
    /// document that does not compile, which fails every run of it.
    pub fn new(scope: Scope, source: &str) -> Result<Compiled, RunError> {
        if scope == Scope::Enterprise {
            return Ok(Compiled {
                document: None,
                attack: Armed::enterprise(source),
            });
        }
        let doc = dsl::compile_document(source)
            .map_err(|e| RunError::Setup(format!("document does not compile: {e}")))?;
        let attack = match doc.attacks.into_iter().next() {
            None => Err(RunError::Setup("document declares no attack".into())),
            Some(compiled) => {
                AttackExecutor::new(doc.system.clone(), doc.attack_model, compiled.attack)
                    .map(|exec| Armed {
                        system: doc.system.clone(),
                        exec,
                    })
                    .map_err(|e| RunError::Setup(format!("attack does not validate: {e}")))
            }
        };
        Ok(Compiled {
            document: Some(doc.system),
            attack,
        })
    }
}

/// How a shadow's run was made (see [`run_shared`]).
#[derive(Debug)]
pub enum ShadowRun {
    /// The shadow diverged, and its fork ran on from there. The record's
    /// `wall_ms` counts the fork alone.
    Forked(Result<RunRecord, RunError>),
    /// The shadow never diverged: the baseline's outcome, with the
    /// shadow's own final state and rule fires, and `wall_ms` 0. A setup
    /// failure is this too: the shadow shares the baseline's setup.
    Undiverged(Result<RunRecord, RunError>),
}

/// What a shared run made under one fail mode: the lead's outcome and
/// each shadow's run.
pub type ModeRuns = (Outcome, Vec<ShadowRun>);

/// A run's record, or why it made none.
type Outcome = Result<RunRecord, RunError>;

/// What one shared run made under each fail mode it was asked for.
#[derive(Debug)]
pub struct Shared {
    /// One entry per requested fail mode, in order.
    pub modes: Vec<ModeRuns>,
    /// How often the run, or a fork of it, split on the fail mode.
    pub splits: usize,
}

impl Shared {
    /// The lead's outcome under each requested fail mode, in order.
    pub fn leads(self) -> Vec<Result<RunRecord, RunError>> {
        self.modes.into_iter().map(|(lead, _)| lead).collect()
    }
}

/// The one run path: build → attach → drive → collect.
///
/// Builds the network `source` binds to under `scope` — the enterprise
/// case study with a `kind` controller and `s2` in the fail mode, or the
/// topology a self-contained document declares, every switch in the fail
/// mode under a bare `kind` controller — and, if `attached`, interposes
/// the attack (a baseline ignores whether it compiles). Applies `faults`
/// (the seed always, so same-seed runs share their per-link streams),
/// then hands the simulation to `schedule`, which sees it before anything
/// ran — the place for a table bound — together with the document's
/// system model (`None` under [`Scope::Enterprise`]), and returns the
/// horizon. Runs to that horizon under `budget` and collects one
/// [`RunRecord`] per mode of `fail_modes`, each with a fault report iff
/// `faults` planned any event. Both fail modes are one run until a switch
/// first consults its mode, and two from there
/// ([`Simulation::defer_fail_mode`]): the controller and injectors built
/// here always fork, and so must an interposer `schedule` installs.
///
/// Nothing a caller can pass panics: every failure is a [`RunError`].
#[allow(clippy::too_many_arguments)]
pub fn run(
    scope: Scope,
    source: &str,
    attached: bool,
    kind: ControllerKind,
    fail_modes: &[FailMode],
    faults: &FaultPlan,
    budget: &RunBudget,
    schedule: impl FnOnce(&mut Simulation, Option<&SystemModel>) -> Result<SimTime, RunError>,
) -> Vec<Result<RunRecord, RunError>> {
    let compiled = Compiled::new(scope, source);
    let shared = run_shared(
        &compiled,
        attached,
        kind,
        fail_modes,
        faults,
        budget,
        &[],
        schedule,
    );
    shared.leads()
}

/// [`run`] of a source already compiled, with every `shadows` attack
/// attached as a shadow ([`Simulation`]'s docs) when nothing is
/// `attached`: shadows are consulted only while nothing is interposed.
/// Returns what [`run`] would give, and for each shadow and mode what
/// [`run`] would give with that attack attached.
#[allow(clippy::too_many_arguments)]
pub fn run_shared(
    compiled: &Result<Compiled, RunError>,
    attached: bool,
    kind: ControllerKind,
    fail_modes: &[FailMode],
    faults: &FaultPlan,
    budget: &RunBudget,
    shadows: &[&Armed],
    schedule: impl FnOnce(&mut Simulation, Option<&SystemModel>) -> Result<SimTime, RunError>,
) -> Shared {
    debug_assert!(!attached || shadows.is_empty());
    let started = Instant::now();
    let both = fail_modes.contains(&FailMode::Safe) && fail_modes.contains(&FailMode::Secure);
    let mode = match fail_modes.first() {
        Some(&mode) if !both => mode,
        _ => FailMode::Safe,
    };
    let setup = || -> Result<_, RunError> {
        let compiled = compiled.as_ref().map_err(Clone::clone)?;
        let document = compiled.document.as_ref();
        let mut sim = match document {
            None => build_case_study(kind, mode),
            Some(system) => build_simulation(system, mode, |_| kind.instantiate())?,
        };
        if both {
            sim.defer_fail_mode();
        }
        if attached {
            let armed = compiled.attack.as_ref().map_err(Clone::clone)?;
            attach(&mut sim, armed.exec.clone(), &armed.system);
        }
        for (id, armed) in shadows.iter().enumerate() {
            let (injector, _) = SimInjector::new(armed.exec.clone(), &armed.system, &sim);
            sim.add_shadow(id, Box::new(injector));
        }
        sim.apply_fault_plan(faults);
        let horizon = schedule(&mut sim, document)?;
        sim.set_run_budget(budget.clone());
        Ok((sim, horizon))
    };
    // Every slot filled with `e`, each shadow's run made by `run`.
    let filled = |e: RunError, run: fn(Outcome) -> ShadowRun| {
        let runs = || shadows.iter().map(|_| run(Err(e.clone()))).collect();
        let modes = fail_modes.iter().map(|_| (Err(e.clone()), runs()));
        Shared {
            modes: modes.collect(),
            splits: 0,
        }
    };
    let (sim, horizon) = match setup() {
        Ok(setup) => setup,
        // The error each unit's own run would hit: a shadow shares the
        // lead's topology, table bound and workload.
        Err(e) => return filled(e, ShadowRun::Undiverged),
    };
    // A slot left unfilled is a fork that could not be made.
    let unforked = RunError::Setup("the run could not fork".into());
    let mut drive = Drive {
        modes: fail_modes,
        faults,
        horizon,
        made: filled(unforked, ShadowRun::Forked),
    };
    drive.finish(sim, None, (!both).then_some(mode), started);
    drive.made
}

/// One shared run in progress: what its simulations share, and what they
/// have made so far (see [`Shared`]).
struct Drive<'a> {
    modes: &'a [FailMode],
    faults: &'a FaultPlan,
    horizon: SimTime,
    made: Shared,
}

impl Drive<'_> {
    /// Runs `sim` to the horizon, finishing every fork it hands over the
    /// same way, and files its records: the baseline, a shadow's fork and
    /// the fail-secure side of a split alike. `whose` is the shadow whose
    /// fork `sim` is (`None`: the lead's run), `side` the fail mode it
    /// stands for (`None`: every requested one) and `started` when its
    /// own wall-clock time began. The executors are read back from `sim`:
    /// a fork carries its own copies.
    fn finish(
        &mut self,
        mut sim: Simulation,
        whose: Option<usize>,
        mut side: Option<FailMode>,
        started: Instant,
    ) {
        let mut nested = Duration::ZERO;
        let halt = sim.run_forking(self.horizon, |made, fork| {
            let forked = Instant::now();
            match made {
                Fork::Shadow(id) => self.finish(fork, Some(id), side, forked),
                Fork::FailSecure => {
                    self.made.splits += 1;
                    side = Some(FailMode::Safe);
                    self.finish(fork, whose, Some(FailMode::Secure), forked);
                }
            }
            nested += forked.elapsed();
        });
        let wall = started.elapsed().saturating_sub(nested);
        let record = collect(&sim, halt, self.faults, wall);
        let modes = self.modes.iter().zip(&mut self.made.modes);
        for (_, (lead, runs)) in modes.filter(|(mode, _)| side.is_none_or(|s| s == **mode)) {
            match whose {
                None => *lead = record.clone(),
                Some(id) => runs[id] = ShadowRun::Forked(record.clone()),
            }
            for (id, shadow) in sim.shadows() {
                let exec = executor(Some(shadow));
                let attributed = |r: RunRecord| RunRecord {
                    wall_ms: 0,
                    ..r.attributed(exec.as_deref())
                };
                runs[id] = ShadowRun::Undiverged(record.clone().map(attributed));
            }
        }
    }
}

/// The executor of `interposer`, if it is an attack's injector.
fn executor(interposer: Option<&dyn Interposer>) -> Option<MutexGuard<'_, AttackExecutor>> {
    let interposer: &dyn Any = interposer?;
    interposer
        .downcast_ref::<SimInjector>()
        .map(SimInjector::executor)
}

/// The outcome of `sim` halted for `halt`, `wall` having been spent on
/// it, attributed to the executor interposed on it.
fn collect(
    sim: &Simulation,
    halt: HaltReason,
    faults: &FaultPlan,
    wall: Duration,
) -> Result<RunRecord, RunError> {
    if halt != HaltReason::Horizon {
        return Err(RunError::Halted(halt));
    }
    let mut record = RunRecord::collect(sim, executor(sim.interposer()).as_deref());
    if !faults.events.is_empty() {
        record.faults = Some(sim.fault_report());
    }
    record.wall_ms = wall.as_millis() as u64;
    Ok(record)
}

fn host_id(sim: &Simulation, name: &str) -> Result<NodeId, RunError> {
    sim.node_id(name)
        .ok_or_else(|| RunError::Setup(format!("workload host {name} missing from topology")))
}

fn address(ip: &str) -> Result<std::net::Ipv4Addr, RunError> {
    ip.parse()
        .map_err(|_| RunError::Setup(format!("workload address {ip} does not parse")))
}

/// Schedules `count` pings, 1 s apart, from `host` to `dst` starting at
/// `at`; the run's [`PingRow`](crate::monitors::PingRow) carries `label`.
pub fn schedule_ping(
    sim: &mut Simulation,
    at: SimTime,
    host: &str,
    dst: &str,
    count: u32,
    label: &str,
) -> Result<(), RunError> {
    let cmd = HostCommand::Ping {
        host: host_id(sim, host)?,
        dst: address(dst)?,
        count,
        interval: SimTime::from_secs(1),
        label: label.into(),
    };
    sim.schedule_command(at, cmd);
    Ok(())
}

/// Runs an enterprise attack under no budget, one record per mode of
/// `fail_modes`: the shape of all three paper timelines below.
fn run_case_study<const N: usize>(
    source: &str,
    kind: ControllerKind,
    fail_modes: [FailMode; N],
    faults: &FaultPlan,
    timeline: impl FnOnce(&mut Simulation) -> Result<SimTime, RunError>,
) -> Result<[RunRecord; N], RunError> {
    let budget = RunBudget::default();
    let schedule = |sim: &mut Simulation, _: Option<&SystemModel>| timeline(sim);
    let records = run(
        Scope::Enterprise,
        source,
        true,
        kind,
        &fail_modes,
        faults,
        &budget,
        schedule,
    );
    let records: Vec<RunRecord> = records.into_iter().collect::<Result<_, _>>()?;
    records
        .try_into()
        .map_err(|_| RunError::Setup("a fail mode went without a record".into()))
}

/// Runs the §VII-B experiment (one bar group of Figure 11): `t=0`
/// controller up, `t=5` injector in state σ1, `t=30` sixty 1 s ping
/// trials h1→h6 (`pings[0]`, Figure 11b's latency series), `t≈95` onward
/// thirty 10 s iperf trials h1→h6 with 10 s gaps (`iperfs`, Figure 11a's
/// bars); `rule_fires("phi1")` counts the suppressed `FLOW_MOD`s.
///
/// With `attacked = false` the Figure 5 trivial pass-all attack runs
/// instead, giving the baseline bars.
pub fn run_flow_mod_suppression(
    kind: ControllerKind,
    attacked: bool,
    fidelity: &Fidelity,
) -> Result<RunRecord, RunError> {
    let source = if attacked {
        scenario::attacks::FLOW_MOD_SUPPRESSION
    } else {
        scenario::attacks::TRIVIAL_PASS
    };
    let faults = FaultPlan::default();
    let [record] = run_case_study(source, kind, [FailMode::Secure], &faults, |sim| {
        let (h1, h6) = (host_id(sim, "h1")?, host_id(sim, "h6")?);
        let h6_ip = address("10.0.0.6")?;
        let (secs, pings) = (SimTime::from_secs, fidelity.ping_trials);
        schedule_ping(sim, secs(30), "h1", "10.0.0.6", pings, "ping h1->h6")?;
        // t = 95 s: iperf server on h6; trials every (secs + 10).
        let iperf_start = secs(30 + pings as u64 + 5);
        sim.schedule_command(
            iperf_start,
            HostCommand::IperfServer {
                host: h6,
                port: 5001,
            },
        );
        let period = fidelity.iperf_secs + 10;
        for trial in 0..fidelity.iperf_trials {
            sim.schedule_command(
                iperf_start + secs(1 + trial as u64 * period),
                HostCommand::IperfClient {
                    host: h1,
                    dst: h6_ip,
                    port: 5001,
                    duration: secs(fidelity.iperf_secs),
                    label: format!("iperf trial {trial}"),
                },
            );
        }
        Ok(iperf_start + secs(1 + fidelity.iperf_trials as u64 * period + 15))
    })?;
    Ok(record)
}

/// Runs the §VII-C experiment (one column pair of Table II) and returns
/// its fail-safe and fail-secure records, in that order: `t=0`
/// controller and injector up, then the table's four access checks —
/// `t=30 s` external→external `h2->h1 early` and internal→external
/// `h6->h1 early` (10 s each), `t=50 s` external→internal `h2->h3` (60 s —
/// the trigger and the "unauthorized increased access" row), `t=95 s`
/// internal→external `h6->h1 late` (10 s — inaccessible means "denial of
/// service against legitimate traffic"). The two modes are one run until
/// the interruption makes `s2` consult its fail mode. `final_state` is σ3
/// once the interruption engaged, σ2 where φ2 never fired (the Ryu case).
pub fn run_connection_interruption(kind: ControllerKind) -> Result<[RunRecord; 2], RunError> {
    let source = scenario::attacks::CONNECTION_INTERRUPTION;
    let modes = [FailMode::Safe, FailMode::Secure];
    run_case_study(source, kind, modes, &FaultPlan::default(), |sim| {
        let secs = SimTime::from_secs;
        schedule_ping(sim, secs(30), "h2", "10.0.0.1", 10, "h2->h1 early")?;
        schedule_ping(sim, secs(30), "h6", "10.0.0.1", 10, "h6->h1 early")?;
        schedule_ping(sim, secs(50), "h2", "10.0.0.3", 60, "h2->h3")?;
        schedule_ping(sim, secs(95), "h6", "10.0.0.1", 10, "h6->h1 late")?;
        Ok(secs(120))
    })
}

/// Runs the fault-recovery scenario (`bin/faults`): the §VII-C attack,
/// triggered by the `h2 → h3` pings at `t=50 s`, while the testbed itself
/// misbehaves, with `seed` driving the per-link loss/corruption streams.
/// `t=15 s` the s3–s4 backbone link flaps twice, `t=20 s` the s1–s2 link
/// picks up 1 % seeded loss, `t=45 s` the controller crashes (switches
/// declare it dead ≈15 s later and enter their fail mode), `t=70 s` it
/// restarts (switches re-handshake within a reconnect period), `t=85 s`
/// s4 power-cycles. `h6 → h1` is probed `before` (`t=30 s`, healthy),
/// `during` (`t=61 s`: controller down, liveness expired — fail-secure
/// switches lock down, fail-safe ones forward standalone) and `after`
/// (`t=95 s`: restarted and re-handshaken).
pub fn run_fault_recovery(
    kind: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
) -> Result<RunRecord, RunError> {
    let mut plan = FaultPlan::seeded(seed);
    for (secs, spec) in [
        (15, "link s3-s4 flap 2 0.5 0.5"),
        (20, "link s1-s2 loss 1"),
        (45, "controller c1 crash"),
        (70, "controller c1 restart"),
        (85, "switch s4 restart"),
    ] {
        plan.at_str(SimTime::from_secs(secs), spec)
            .map_err(|e| RunError::Setup(e.to_string()))?;
    }
    let source = scenario::attacks::CONNECTION_INTERRUPTION;
    let [record] = run_case_study(source, kind, [fail_mode], &plan, |sim| {
        let secs = SimTime::from_secs;
        schedule_ping(sim, secs(30), "h6", "10.0.0.1", 10, "before")?;
        schedule_ping(sim, secs(50), "h2", "10.0.0.3", 30, "trigger")?;
        schedule_ping(sim, secs(61), "h6", "10.0.0.1", 8, "during")?;
        schedule_ping(sim, secs(95), "h6", "10.0.0.1", 10, "after")?;
        Ok(secs(115))
    })?;
    Ok(record)
}
