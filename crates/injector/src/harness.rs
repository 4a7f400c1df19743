//! The §VII case-study harness: builds the enterprise network in the
//! simulator, attaches attacks, drives the paper's experiment timelines,
//! and collects the metrics behind Figure 11 and Table II.

use crate::sim::{SharedExecutor, SimInjector};
use attain_controllers::{Controller, ControllerKind, DmzFirewall, DmzPolicy};
use attain_core::exec::AttackExecutor;
use attain_core::{dsl, scenario};
use attain_netsim::{
    Direction, FailMode, HostCommand, IperfStats, NetworkBuilder, PingStats, SimTime, Simulation,
};
use attain_openflow::{DatapathId, OfType, PortNo};
use std::fmt;

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
        trusted_sources: ["10.0.0.1".parse().unwrap()].into_iter().collect(),
        allowed_external_dsts: ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()]
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
/// [`SystemModel`](attain_core::model::SystemModel) — hosts, switches,
/// data-plane links, and control connections all mirror the model, so a
/// self-contained DSL document becomes a runnable network.
///
/// Every switch gets `fail_mode`; every host needs an IP in the model.
/// `make_controller` is invoked once per controller in id order.
///
/// Port numbers are assigned in data-plane edge order (as the DSL's
/// auto-numbering does). A model whose `link` statements declare ports
/// out of declaration order will therefore disagree with the simulator
/// about port numbers — declare links in port order (as every bundled
/// scenario does) when attacks match on `in_port`.
///
/// # Panics
///
/// Panics if a host lacks an IP address (the simulator cannot run an IP
/// network without one).
pub fn build_simulation(
    system: &attain_core::model::SystemModel,
    fail_mode: FailMode,
    mut make_controller: impl FnMut(&str) -> Box<dyn Controller>,
) -> Simulation {
    use attain_core::model::NodeRef;
    let mut b = NetworkBuilder::new();
    let mut host_ids = Vec::new();
    let mut switch_ids = Vec::new();
    // Hosts and switches in model id order interleaved as declared is
    // not recoverable; hosts first matches the MAC-derivation convention
    // documented on the scenario builders.
    for (_, h) in system.hosts() {
        let ip =
            h.ip.unwrap_or_else(|| panic!("host {} has no IP address", h.name));
        host_ids.push(b.host(&h.name, &ip.to_string()));
    }
    for (_, s) in system.switches() {
        switch_ids.push(b.switch_with_mode(&s.name, fail_mode));
    }
    for edge in system.data_plane() {
        let node = |r: NodeRef| match r {
            NodeRef::Host(h) => host_ids[h.0],
            NodeRef::Switch(s) => switch_ids[s.0],
            NodeRef::Controller(_) => panic!("controllers are not data plane vertices"),
        };
        b.link(node(edge.a), node(edge.b));
    }
    let ctrl_refs: Vec<_> = system
        .controllers()
        .map(|(_, c)| b.controller(&c.name, make_controller(&c.name)))
        .collect();
    for (_, c, s) in system.connections() {
        b.control(ctrl_refs[c.0], switch_ids[s.0]);
    }
    b.build()
}

/// Compiles `attack_source` against the enterprise scenario and
/// interposes it on `sim`. Returns the shared executor handle for log
/// inspection after the run.
///
/// # Panics
///
/// Panics if the attack fails to compile or validate — harness misuse.
pub fn attach_attack(sim: &mut Simulation, attack_source: &str) -> SharedExecutor {
    match try_attach_attack(sim, attack_source) {
        Ok(handle) => handle,
        Err(e) => panic!("case-study attack rejected: {e}"),
    }
}

/// Fallible [`attach_attack`]: compile/validate failures come back as an
/// error instead of a panic. The campaign's fault-contained path — a
/// malformed attack becomes one `Failed` cell, not a dead worker.
pub fn try_attach_attack(
    sim: &mut Simulation,
    attack_source: &str,
) -> Result<SharedExecutor, String> {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(attack_source, &sc.system, &sc.attack_model)
        .map_err(|e| format!("attack does not compile: {e}"))?;
    let exec = AttackExecutor::new(sc.system.clone(), sc.attack_model, compiled.attack)
        .map_err(|e| format!("attack does not validate: {e}"))?;
    let (injector, handle) = SimInjector::new(exec, &sc.system, sim);
    sim.set_interposer(Box::new(injector));
    Ok(handle)
}

// ---------------------------------------------------------------------------
// Figure 11: flow modification suppression
// ---------------------------------------------------------------------------

/// Results of one §VII-B run (one bar group of Figure 11).
#[derive(Debug)]
pub struct SuppressionOutcome {
    /// The controller under test.
    pub controller: ControllerKind,
    /// Whether the suppression attack ran (vs. the Figure 5 baseline).
    pub attacked: bool,
    /// The h1→h6 ping run (Figure 11b's latency series).
    pub ping: PingStats,
    /// Per-trial iperf throughputs in Mb/s (Figure 11a's bars).
    pub iperf: Vec<IperfStats>,
    /// `PACKET_IN`s observed at the proxy (control-plane load metric).
    pub packet_ins: u64,
    /// `FLOW_MOD`s the controller sent (before any suppression).
    pub flow_mods_sent: u64,
    /// Total control-plane messages observed.
    pub control_total: u64,
    /// How often the suppression rule fired (0 in baselines).
    pub phi1_fires: u64,
}

impl SuppressionOutcome {
    /// Mean throughput across trials, in Mb/s.
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.iperf.is_empty() {
            return 0.0;
        }
        self.iperf
            .iter()
            .map(IperfStats::throughput_mbps)
            .sum::<f64>()
            / self.iperf.len() as f64
    }

    /// Whether throughput was fully denied (the paper's asterisk).
    pub fn iperf_denied(&self) -> bool {
        !self.iperf.is_empty() && self.iperf.iter().all(IperfStats::is_denial_of_service)
    }

    /// Whether latency was fully denied (infinite — the asterisk).
    pub fn ping_denied(&self) -> bool {
        self.ping.is_denial_of_service()
    }
}

impl fmt::Display for SuppressionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = if self.attacked { "attack" } else { "baseline" };
        write!(
            f,
            "{}/{}: iperf {} ping {}",
            self.controller,
            mode,
            if self.iperf_denied() {
                "*".to_string()
            } else {
                format!("{:.1} Mb/s", self.mean_throughput_mbps())
            },
            if self.ping_denied() {
                "*".to_string()
            } else {
                format!("{:.2} ms", self.ping.avg_rtt_ms().unwrap_or(f64::NAN))
            },
        )
    }
}

/// Runs the §VII-B experiment: `t=0` controller up, `t=5` injector in
/// state σ1, `t=30` sixty 1 s ping trials h1→h6, `t≈95` onward thirty
/// 10 s iperf trials h1→h6 with 10 s gaps.
///
/// With `attacked = false` the Figure 5 trivial pass-all attack runs
/// instead, giving the baseline bars.
pub fn run_flow_mod_suppression(
    kind: ControllerKind,
    attacked: bool,
    fidelity: &Fidelity,
) -> SuppressionOutcome {
    let mut sim = build_case_study(kind, FailMode::Secure);
    let source = if attacked {
        scenario::attacks::FLOW_MOD_SUPPRESSION
    } else {
        scenario::attacks::TRIVIAL_PASS
    };
    let exec = attach_attack(&mut sim, source);

    let h1 = sim.node_id("h1").expect("case study has h1");
    let h6 = sim.node_id("h6").expect("case study has h6");
    let h6_ip = "10.0.0.6".parse().expect("valid address");

    // t = 30 s: ping trials (1 s apart).
    sim.schedule_command(
        SimTime::from_secs(30),
        HostCommand::Ping {
            host: h1,
            dst: h6_ip,
            count: fidelity.ping_trials,
            interval: SimTime::from_secs(1),
            label: "ping h1->h6".into(),
        },
    );
    // t = 95 s: iperf server on h6; trials every (secs + 10).
    let iperf_start = SimTime::from_secs(30 + fidelity.ping_trials as u64 + 5);
    sim.schedule_command(
        iperf_start,
        HostCommand::IperfServer {
            host: h6,
            port: 5001,
        },
    );
    for trial in 0..fidelity.iperf_trials {
        let at = iperf_start + SimTime::from_secs(1 + trial as u64 * (fidelity.iperf_secs + 10));
        sim.schedule_command(
            at,
            HostCommand::IperfClient {
                host: h1,
                dst: h6_ip,
                port: 5001,
                duration: SimTime::from_secs(fidelity.iperf_secs),
                label: format!("iperf trial {trial}"),
            },
        );
    }
    let end = iperf_start
        + SimTime::from_secs(1 + fidelity.iperf_trials as u64 * (fidelity.iperf_secs + 10) + 15);
    sim.run_until(end);

    let ping = sim.ping_stats().into_iter().next().expect("ping ran");
    let iperf = sim.iperf_stats();
    let phi1_fires = exec.lock().log().rule_fires("phi1");
    SuppressionOutcome {
        controller: kind,
        attacked,
        ping,
        iperf,
        packet_ins: sim
            .trace()
            .control_message_count(OfType::PacketIn, Direction::SwitchToController),
        flow_mods_sent: sim
            .trace()
            .control_message_count(OfType::FlowMod, Direction::ControllerToSwitch),
        control_total: sim.trace().control_message_total(),
        phi1_fires,
    }
}

// ---------------------------------------------------------------------------
// Table II: connection interruption
// ---------------------------------------------------------------------------

/// One access check of Table II: a ping run between two hosts.
#[derive(Debug, Clone, Copy)]
pub struct AccessCheck {
    /// Echo requests sent.
    pub transmitted: u32,
    /// Echo replies received.
    pub received: u32,
}

impl AccessCheck {
    /// The table's ✓: the user could access the host (a clear majority
    /// of trials succeeded at some point during the window — the paper's
    /// fail-safe rows count as accessible even though the first seconds
    /// of the window predate the failover).
    pub fn accessible(&self) -> bool {
        self.transmitted > 0 && self.received * 4 > self.transmitted
    }
}

impl fmt::Display for AccessCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/{})",
            if self.accessible() { "yes" } else { "no" },
            self.received,
            self.transmitted
        )
    }
}

/// Results of one §VII-C run (one column pair of Table II).
#[derive(Debug)]
pub struct InterruptionOutcome {
    /// The controller under test.
    pub controller: ControllerKind,
    /// `s2`'s fail mode.
    pub fail_mode: FailMode,
    /// Row 1: external user → external host (`h2 → h1`, `t = 30 s`).
    pub ext_to_ext: AccessCheck,
    /// Row 2: internal user → external host (`h6 → h1`, `t = 30 s`).
    pub int_to_ext_before: AccessCheck,
    /// Row 3: external user → internal host (`h2 → h3`, `t = 50 s`).
    pub ext_to_int: AccessCheck,
    /// Row 4: internal user → external host (`h6 → h1`, `t = 95 s`).
    pub int_to_ext_after: AccessCheck,
    /// The attack state the injector ended in (σ3 = interruption
    /// engaged; σ2 = φ2 never fired, the Ryu case).
    pub final_state: String,
    /// How often φ2 fired.
    pub phi2_fires: u64,
}

impl InterruptionOutcome {
    /// Table II's "unauthorized increased access": the external user
    /// reached an internal host.
    pub fn unauthorized_access(&self) -> bool {
        self.ext_to_int.accessible()
    }

    /// Table II's "denial of service against legitimate traffic": the
    /// internal user lost access to external hosts after the
    /// interruption.
    pub fn legitimate_dos(&self) -> bool {
        !self.int_to_ext_after.accessible()
    }
}

/// Runs the §VII-C experiment: `t=0` fail mode set, controller and
/// injector up, `t=30 s` h2→h1 and h6→h1 pings (10 s each), `t=50 s`
/// h2→h3 pings (60 s), `t=95 s` h6→h1 pings (10 s) again.
pub fn run_connection_interruption(
    kind: ControllerKind,
    fail_mode: FailMode,
) -> InterruptionOutcome {
    let mut sim = build_case_study(kind, fail_mode);
    let exec = attach_attack(&mut sim, scenario::attacks::CONNECTION_INTERRUPTION);

    let h2 = sim.node_id("h2").expect("case study has h2");
    let h6 = sim.node_id("h6").expect("case study has h6");
    let ip = |last: u8| format!("10.0.0.{last}").parse().expect("valid address");

    let ping = |host, dst, count: u32, label: &str| HostCommand::Ping {
        host,
        dst,
        count,
        interval: SimTime::from_secs(1),
        label: label.into(),
    };
    // t = 30 s: external→external and internal→external, 10 trials each.
    sim.schedule_command(SimTime::from_secs(30), ping(h2, ip(1), 10, "h2->h1 early"));
    sim.schedule_command(SimTime::from_secs(30), ping(h6, ip(1), 10, "h6->h1 early"));
    // t = 50 s: external→internal for 60 s — the trigger and the row-3
    // measurement window.
    sim.schedule_command(SimTime::from_secs(50), ping(h2, ip(3), 60, "h2->h3"));
    // t = 95 s: internal→external again.
    sim.schedule_command(SimTime::from_secs(95), ping(h6, ip(1), 10, "h6->h1 late"));
    sim.run_until(SimTime::from_secs(120));

    let stats = sim.ping_stats();
    let by_label = |label: &str| -> AccessCheck {
        let s = stats
            .iter()
            .find(|s| s.label == label)
            .expect("scheduled ping ran");
        AccessCheck {
            transmitted: s.transmitted(),
            received: s.received(),
        }
    };
    let exec = exec.lock();
    InterruptionOutcome {
        controller: kind,
        fail_mode,
        ext_to_ext: by_label("h2->h1 early"),
        int_to_ext_before: by_label("h6->h1 early"),
        ext_to_int: by_label("h2->h3"),
        int_to_ext_after: by_label("h6->h1 late"),
        final_state: exec.current_state_name().to_string(),
        phi2_fires: exec.log().rule_fires("phi2"),
    }
}

// ---------------------------------------------------------------------------
// Environment faults: the §VII-C attack composed with testbed failures
// ---------------------------------------------------------------------------

/// Results of one fault-recovery run (`bin/faults`): the
/// connection-interruption attack running while the testbed itself
/// misbehaves — a flapping backbone link, seeded packet loss, a
/// controller crash and restart, and a switch power-cycle.
#[derive(Debug)]
pub struct FaultRecoveryOutcome {
    /// The controller under test.
    pub controller: ControllerKind,
    /// `s2`'s fail mode.
    pub fail_mode: FailMode,
    /// `h6 → h1` while everything is healthy (`t = 30 s`).
    pub before: AccessCheck,
    /// `h6 → h1` while the controller is down and liveness has expired
    /// (`t = 61 s`): fail-secure switches lock down, fail-safe ones
    /// fall back to standalone forwarding.
    pub during: AccessCheck,
    /// `h6 → h1` after controller restart and re-handshake (`t = 95 s`).
    pub after: AccessCheck,
    /// Per-link / per-process fault accounting.
    pub report: attain_netsim::FaultReport,
    /// Every trace event, rendered — byte-identical across runs with the
    /// same seed.
    pub trace_lines: Vec<String>,
    /// The attack state the injector ended in.
    pub final_state: String,
    /// How often the interruption trigger φ2 fired.
    pub phi2_fires: u64,
}

/// Runs the fault-recovery scenario with `seed` driving the per-link
/// loss/corruption streams. Timeline: `t=15 s` the s3–s4 backbone link
/// flaps twice, `t=20 s` the s1–s2 link picks up 1 % seeded loss,
/// `t=45 s` the controller crashes (switches declare it dead ≈15 s
/// later and enter their fail mode), `t=70 s` it restarts (switches
/// re-handshake within a reconnect period), `t=85 s` s4 power-cycles.
/// The §VII-C interruption attack is interposed throughout, triggered by
/// the `h2 → h3` pings at `t=50 s`.
pub fn run_fault_recovery(
    kind: ControllerKind,
    fail_mode: FailMode,
    seed: u64,
) -> FaultRecoveryOutcome {
    use attain_netsim::FaultPlan;

    let mut sim = build_case_study(kind, fail_mode);
    let exec = attach_attack(&mut sim, scenario::attacks::CONNECTION_INTERRUPTION);

    let mut plan = FaultPlan::seeded(seed);
    for (secs, spec) in [
        (15, "link s3-s4 flap 2 0.5 0.5"),
        (20, "link s1-s2 loss 1"),
        (45, "controller c1 crash"),
        (70, "controller c1 restart"),
        (85, "switch s4 restart"),
    ] {
        plan.at_str(SimTime::from_secs(secs), spec)
            .expect("scenario fault spec parses");
    }
    sim.apply_fault_plan(&plan);

    let h2 = sim.node_id("h2").expect("case study has h2");
    let h6 = sim.node_id("h6").expect("case study has h6");
    let ip = |last: u8| format!("10.0.0.{last}").parse().expect("valid address");
    let ping = |host, dst, count: u32, label: &str| HostCommand::Ping {
        host,
        dst,
        count,
        interval: SimTime::from_secs(1),
        label: label.into(),
    };
    sim.schedule_command(SimTime::from_secs(30), ping(h6, ip(1), 10, "before"));
    // The attack's trigger traffic, as in §VII-C.
    sim.schedule_command(SimTime::from_secs(50), ping(h2, ip(3), 30, "trigger"));
    // Liveness declares the controller dead ≈ t=60 s; probe the outage.
    sim.schedule_command(SimTime::from_secs(61), ping(h6, ip(1), 8, "during"));
    sim.schedule_command(SimTime::from_secs(95), ping(h6, ip(1), 10, "after"));
    sim.run_until(SimTime::from_secs(115));

    let stats = sim.ping_stats();
    let by_label = |label: &str| -> AccessCheck {
        let s = stats
            .iter()
            .find(|s| s.label == label)
            .expect("scheduled ping ran");
        AccessCheck {
            transmitted: s.transmitted(),
            received: s.received(),
        }
    };
    let exec = exec.lock();
    FaultRecoveryOutcome {
        controller: kind,
        fail_mode,
        before: by_label("before"),
        during: by_label("during"),
        after: by_label("after"),
        report: sim.fault_report(),
        trace_lines: sim.trace().events().iter().map(|e| e.to_string()).collect(),
        final_state: exec.current_state_name().to_string(),
        phi2_fires: exec.log().rule_fires("phi2"),
    }
}
