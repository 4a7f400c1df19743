//! Environment-fault integration tests: link blackholes and flaps,
//! seeded loss determinism, controller crash → fail-mode behaviour →
//! restart reconvergence, switch power-cycles, and trace determinism.

use attain_controllers::{Controller, ControllerKind};
use attain_netsim::{
    FailMode, FaultPlan, FaultSpec, HostCommand, NetworkBuilder, SimTime, Simulation, TraceKind,
};

fn controller_box(kind: ControllerKind) -> Box<dyn Controller> {
    kind.instantiate()
}

/// Two hosts, two switches in a line, one controller; `s1`/`s2` in
/// `mode`, faults from `plan`.
fn line_network(mode: FailMode, plan: &FaultPlan) -> Simulation {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch_with_mode("s1", mode);
    let s2 = b.switch_with_mode("s2", mode);
    b.link(h1, s1);
    b.link(s1, s2);
    b.link(h2, s2);
    let c1 = b.controller("c1", controller_box(ControllerKind::Floodlight));
    b.control(c1, s1);
    b.control(c1, s2);
    let mut sim = b.build();
    sim.apply_fault_plan(plan);
    sim
}

fn ping(sim: &Simulation, count: u32, label: &str) -> HostCommand {
    HostCommand::Ping {
        host: sim.node_id("h1").unwrap(),
        dst: "10.0.0.2".parse().unwrap(),
        count,
        interval: SimTime::from_secs(1),
        label: label.into(),
    }
}

fn received(sim: &Simulation, label: &str) -> u32 {
    sim.ping_stats()
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("no ping run labelled {label}"))
        .received()
}

/// The run's `Fault` trace records, rendered.
fn fault_records(sim: &Simulation) -> Vec<String> {
    sim.trace()
        .events()
        .filter(|e| matches!(e.kind, TraceKind::Fault { .. }))
        .map(|e| e.to_string())
        .collect()
}

fn fault_count(sim: &Simulation) -> usize {
    fault_records(sim).len()
}

#[test]
fn link_down_blackholes_until_up() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(14), "link s1-s2 down")
        .unwrap();
    plan.at_str(SimTime::from_secs(25), "link s1-s2 up")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 5, "before"));
    sim.schedule_command(SimTime::from_secs(15), ping(&sim, 5, "during"));
    sim.schedule_command(SimTime::from_secs(30), ping(&sim, 5, "after"));
    sim.run_until(SimTime::from_secs(45));
    assert_eq!(received(&sim, "before"), 5);
    assert_eq!(received(&sim, "during"), 0, "downed link must blackhole");
    assert_eq!(received(&sim, "after"), 5, "link up must restore service");
    let s1s2 = &sim.link_stats()[1];
    assert!(s1s2.down_drops > 0, "drops must be counted on the link");
    assert_eq!(s1s2.down_events, 1);
    assert!(s1s2.up);
    assert_eq!(fault_count(&sim), 2, "one trace event per transition");
}

#[test]
fn link_flap_emits_paired_transitions_and_recovers() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(10), "link s1-s2 flap 3 0.5 0.5")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(20), ping(&sim, 5, "after"));
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(received(&sim, "after"), 5);
    assert_eq!(sim.link_stats()[1].down_events, 3);
    // 3 × (down + up) transitions.
    assert_eq!(fault_count(&sim), 6);
}

#[test]
fn seeded_loss_is_deterministic_and_counted() {
    let run = |seed: u64| {
        let mut plan = FaultPlan::seeded(seed);
        plan.at_str(SimTime::from_secs(4), "link s1-s2 loss 40")
            .unwrap();
        let mut sim = line_network(FailMode::Secure, &plan);
        sim.schedule_command(SimTime::from_secs(5), ping(&sim, 30, "lossy"));
        sim.run_until(SimTime::from_secs(45));
        let lost = sim.link_stats()[1].lost;
        (received(&sim, "lossy"), lost)
    };
    let (rx_a, lost_a) = run(7);
    let (rx_b, lost_b) = run(7);
    assert_eq!((rx_a, lost_a), (rx_b, lost_b), "same seed, same outcome");
    assert!(lost_a > 0, "40% loss over 30 trials must lose something");
    assert!(rx_a < 30);
    let (rx_c, lost_c) = run(8);
    assert!(
        (rx_c, lost_c) != (rx_a, lost_a) || rx_c < 30,
        "a different seed should draw a different stream"
    );
}

#[test]
fn degrade_slows_and_restore_recovers_rtt() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(14), "link s1-s2 degrade delay 0.05")
        .unwrap();
    plan.at_str(SimTime::from_secs(25), "link s1-s2 restore")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 5, "before"));
    sim.schedule_command(SimTime::from_secs(15), ping(&sim, 5, "during"));
    sim.schedule_command(SimTime::from_secs(30), ping(&sim, 5, "after"));
    sim.run_until(SimTime::from_secs(45));
    let rtt = |label: &str| -> f64 {
        sim.ping_stats()
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .rtts_ms()
            .iter()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    };
    // 50 ms extra one-way propagation ⇒ ≥100 ms RTT while degraded.
    assert!(rtt("before") < 50.0);
    assert!(rtt("during") > 100.0, "degraded RTT {}", rtt("during"));
    assert!(rtt("after") < 50.0, "restore must undo the degrade");
}

#[test]
fn controller_crash_locks_down_fail_secure_until_restart() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(20), "controller c1 crash")
        .unwrap();
    plan.at_str(SimTime::from_secs(50), "controller c1 restart")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 5, "before"));
    // Liveness declares the controller dead ≈15 s after the crash; probe
    // the lockdown window after installed flows idled out.
    sim.schedule_command(SimTime::from_secs(40), ping(&sim, 5, "during"));
    // Switches reconnect within a 5 s retry period of the restart.
    sim.schedule_command(SimTime::from_secs(60), ping(&sim, 5, "after"));
    sim.run_until(SimTime::from_secs(75));
    assert_eq!(received(&sim, "before"), 5);
    assert_eq!(received(&sim, "during"), 0, "fail-secure must lock down");
    assert_eq!(received(&sim, "after"), 5, "restart must reconverge");
    let report = sim.fault_report();
    assert_eq!(report.controllers[0].crashes, 1);
    assert_eq!(report.controllers[0].restarts, 1);
    assert!(report.controllers[0].alive);
    assert!(
        report.switches.iter().any(|s| s.secure_drops > 0),
        "lockdown drops must be counted: {report}"
    );
    assert!(
        sim.trace().events().any(
            |e| matches!(&e.kind, TraceKind::FailModeEntered { standalone, .. } if !standalone)
        ),
        "lockdown must be traced"
    );
}

#[test]
fn controller_crash_fail_safe_falls_back_to_standalone() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(20), "controller c1 crash")
        .unwrap();
    let mut sim = line_network(FailMode::Safe, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 5, "before"));
    sim.schedule_command(SimTime::from_secs(40), ping(&sim, 5, "during"));
    sim.run_until(SimTime::from_secs(55));
    assert_eq!(received(&sim, "before"), 5);
    assert_eq!(
        received(&sim, "during"),
        5,
        "fail-safe standalone forwarding must carry traffic"
    );
    let report = sim.fault_report();
    assert!(
        report.switches.iter().any(|s| s.standalone_forwards > 0),
        "standalone forwarding must be counted: {report}"
    );
    assert!(!report.controllers[0].alive);
}

#[test]
fn switch_restart_wipes_state_and_rehandshakes() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(15), "switch s1 restart")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 5, "before"));
    sim.schedule_command(SimTime::from_secs(20), ping(&sim, 5, "after"));
    sim.run_until(SimTime::from_secs(35));
    assert_eq!(received(&sim, "before"), 5);
    assert_eq!(
        received(&sim, "after"),
        5,
        "post-restart re-handshake must restore forwarding"
    );
    assert_eq!(sim.fault_report().switches[0].restarts, 1);
    assert!(sim.switch("s1").is_connected());
    // The wipe happened mid-run: before-pings installed flows, and the
    // after-pings had to re-miss to the controller.
    assert!(sim.switch("s1").flow_table().lookup_count > 0);
    // Two ConnectionUp events for s1's single connection: the original
    // handshake and the post-restart one. s1 holds conn 0.
    let ups = sim
        .trace()
        .events()
        .filter(|e| matches!(e.kind, TraceKind::ConnectionUp { conn } if conn.0 == 0))
        .count();
    assert_eq!(ups, 2, "restart must replay the handshake");
}

#[test]
fn same_seed_same_trace_different_seed_may_differ() {
    let run = |seed: u64| -> Vec<String> {
        let mut plan = FaultPlan::seeded(seed);
        plan.at_str(SimTime::from_secs(4), "link s1-s2 loss 30")
            .unwrap();
        plan.at_str(SimTime::from_secs(10), "link s1-s2 flap 2 0.5 0.5")
            .unwrap();
        plan.at_str(SimTime::from_secs(20), "controller c1 crash")
            .unwrap();
        plan.at_str(SimTime::from_secs(30), "controller c1 restart")
            .unwrap();
        let mut sim = line_network(FailMode::Secure, &plan);
        sim.schedule_command(SimTime::from_secs(5), ping(&sim, 25, "work"));
        sim.run_until(SimTime::from_secs(50));
        sim.trace().events().map(|e| e.to_string()).collect()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "identical seeds must reproduce identical traces");
    let c = run(43);
    assert_ne!(a, c, "a different seed should perturb the lossy trace");
}

#[test]
fn corruption_reaches_hosts_without_panicking() {
    let mut plan = FaultPlan::seeded(3);
    plan.at_str(SimTime::from_secs(4), "link s1-s2 corrupt 60")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 20, "corrupted"));
    sim.run_until(SimTime::from_secs(40));
    // Corrupted frames are delivered (and typically discarded by the
    // receiver's parser); nothing may panic and the count must show.
    assert!(sim.link_stats()[1].corrupted > 0);
    assert!(received(&sim, "corrupted") < 20);
}

#[test]
fn fault_free_runs_are_unperturbed_by_the_fault_machinery() {
    let run = |seed: u64| -> Vec<String> {
        let plan = FaultPlan::seeded(seed);
        let mut sim = line_network(FailMode::Secure, &plan);
        sim.schedule_command(SimTime::from_secs(5), ping(&sim, 10, "clean"));
        sim.run_until(SimTime::from_secs(20));
        sim.trace().events().map(|e| e.to_string()).collect()
    };
    // With no loss/corruption configured the RNG is never consulted:
    // the seed must not influence the trace at all.
    assert_eq!(run(1), run(999));
}

#[test]
fn faults_arrive_via_host_command_strings_too() {
    let plan = FaultPlan::seeded(1);
    let mut sim = line_network(FailMode::Secure, &plan);
    let h1 = sim.node_id("h1").unwrap();
    let cmd = HostCommand::parse(h1, "fault link s1-s2 down").unwrap();
    sim.schedule_command(SimTime::from_secs(10), cmd);
    sim.schedule_command(SimTime::from_secs(12), ping(&sim, 3, "during"));
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(received(&sim, "during"), 0);
    assert_eq!(fault_count(&sim), 1);
}

#[test]
fn unknown_fault_targets_are_traced_not_fatal() {
    let mut plan = FaultPlan::seeded(1);
    plan.at_str(SimTime::from_secs(5), "link s1-s9 down")
        .unwrap();
    plan.at_str(SimTime::from_secs(5), "controller c9 crash")
        .unwrap();
    plan.at_str(SimTime::from_secs(5), "switch s9 restart")
        .unwrap();
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(6), ping(&sim, 3, "fine"));
    sim.run_until(SimTime::from_secs(15));
    assert_eq!(received(&sim, "fine"), 3, "unknown targets must be inert");
    let ignored = sim
        .trace()
        .events()
        .filter(|e| matches!(&e.kind, TraceKind::Fault { what, .. } if what.contains("ignored")))
        .count();
    assert_eq!(ignored, 3);
}

/// Every kind of fault in one run, pinned to the trace: each link
/// change (a degrade with both knobs), a two-cycle flap, a `flap 0` and
/// an `up` on an up link (neither traced), a crash, a repeated crash
/// (not traced) and a restart, a switch restart, and three unknown
/// targets. The literals are the trace this plan produced before the
/// fault layer was rewritten; any change to what a fault does, when it
/// re-arms or how it is traced shows here first.
#[test]
fn every_fault_kind_traces_as_pinned() {
    let mut plan = FaultPlan::seeded(5);
    for (at_ms, spec) in [
        (3_000, "link s1-s2 up"),
        (4_000, "link s1-s2 loss 20"),
        (6_000, "link h1-s1 corrupt 10"),
        (8_000, "link s1-s2 degrade bw 1000000 delay 0.01"),
        (10_000, "link s1-s2 restore"),
        (11_000, "link h2-s2 flap 2 0.5 0.25"),
        (12_000, "link s1-s2 flap 0 1 1"),
        (14_000, "link s1-s2 down"),
        (16_000, "link s1-s2 up"),
        (17_000, "link s2-s1 down"),
        (17_500, "link s1-s2 restore"),
        (18_000, "controller c1 crash"),
        (19_000, "controller c1 crash"),
        (30_000, "controller c1 restart"),
        (32_000, "switch s2 restart"),
        (33_000, "link s1-s9 down"),
        (33_000, "controller c9 crash"),
        (33_000, "switch s9 restart"),
    ] {
        plan.at_str(SimTime::from_millis(at_ms), spec).unwrap();
    }
    let mut sim = line_network(FailMode::Secure, &plan);
    sim.schedule_command(SimTime::from_secs(5), ping(&sim, 40, "work"));
    sim.run_until(SimTime::from_secs(50));
    let want = [
        r#"[4.000s] Fault { target: "link s1-s2", what: "loss 20" }"#,
        r#"[6.000s] Fault { target: "link h1-s1", what: "corrupt 10" }"#,
        r#"[8.000s] Fault { target: "link s1-s2", what: "degrade bw 1000000 delay 0.01" }"#,
        r#"[10.000s] Fault { target: "link s1-s2", what: "restore" }"#,
        r#"[11.000s] Fault { target: "link h2-s2", what: "flap 2 0.5 0.25" }"#,
        r#"[11.500s] Fault { target: "link h2-s2", what: "up" }"#,
        r#"[11.750s] Fault { target: "link h2-s2", what: "flap 1 0.5 0.25" }"#,
        r#"[12.250s] Fault { target: "link h2-s2", what: "up" }"#,
        r#"[14.000s] Fault { target: "link s1-s2", what: "down" }"#,
        r#"[16.000s] Fault { target: "link s1-s2", what: "up" }"#,
        r#"[17.000s] Fault { target: "link s2-s1", what: "down" }"#,
        r#"[17.500s] Fault { target: "link s1-s2", what: "restore" }"#,
        r#"[18.000s] Fault { target: "controller c1", what: "crash" }"#,
        r#"[30.000s] Fault { target: "controller c1", what: "restart" }"#,
        r#"[32.000s] Fault { target: "switch s2", what: "restart" }"#,
        r#"[33.000s] Fault { target: "link s1-s9", what: "unknown link (ignored)" }"#,
        r#"[33.000s] Fault { target: "controller c9", what: "unknown controller (ignored)" }"#,
        r#"[33.000s] Fault { target: "switch s9", what: "unknown switch (ignored)" }"#,
    ];
    assert_eq!(fault_records(&sim), want);
    assert_eq!(sim.trace().digest().to_string(), "b9fcfa62f187675b");
}

/// A switch fault resolves its name among switches only: one naming a
/// host is an unknown switch, traced like any other unknown target.
#[test]
fn a_switch_fault_naming_a_host_is_traced_as_unknown() {
    let mut sim = line_network(FailMode::Secure, &FaultPlan::seeded(1));
    for spec in ["switch h1 restart", "controller s1 crash"] {
        sim.schedule_fault(SimTime::from_secs(5), FaultSpec::parse(spec).unwrap());
    }
    sim.run_until(SimTime::from_secs(6));
    assert_eq!(
        fault_records(&sim),
        [
            r#"[5.000s] Fault { target: "switch h1", what: "unknown switch (ignored)" }"#,
            r#"[5.000s] Fault { target: "controller s1", what: "unknown controller (ignored)" }"#,
        ]
    );
    assert_eq!(sim.fault_report().switches[0].restarts, 0);
}
