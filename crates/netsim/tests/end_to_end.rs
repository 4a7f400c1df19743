//! End-to-end simulator tests: handshake, learning-switch forwarding,
//! workload realism, fail modes, and determinism.

use attain_controllers::{Controller, ControllerKind};
use attain_netsim::{
    Direction, FailMode, FaultSpec, HostCommand, NetworkBuilder, SimTime, Simulation, TraceEvent,
    TraceKind,
};
use attain_openflow::OfType;

fn controller_box(kind: ControllerKind) -> Box<dyn Controller> {
    kind.instantiate()
}

/// Two hosts, two switches in a line, one controller.
fn line_network(kind: ControllerKind) -> Simulation {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.link(h1, s1);
    b.link(s1, s2);
    b.link(h2, s2);
    let c1 = b.controller("c1", controller_box(kind));
    b.control(c1, s1);
    b.control(c1, s2);
    b.build()
}

#[test]
fn switches_complete_handshake_with_every_controller() {
    for kind in ControllerKind::ALL {
        let mut sim = line_network(kind);
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.switch("s1").is_connected(), "{kind}: s1 not connected");
        assert!(sim.switch("s2").is_connected(), "{kind}: s2 not connected");
    }
}

#[test]
fn ping_works_across_two_switches_with_every_controller() {
    for kind in ControllerKind::ALL {
        let mut sim = line_network(kind);
        let h1 = sim.node_id("h1").unwrap();
        sim.schedule_command(
            SimTime::from_secs(10),
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.2".parse().unwrap(),
                count: 10,
                interval: SimTime::from_secs(1),
                label: format!("{kind} ping"),
            },
        );
        sim.run_until(SimTime::from_secs(25));
        let stats = &sim.ping_stats()[0];
        assert_eq!(
            stats.received(),
            10,
            "{kind}: lost pings: {:?}",
            stats.rtts_ms()
        );
        // First trial pays the controller path; later trials ride
        // installed flows (POX re-misses every hard timeout; the median
        // stays sub-10 ms regardless).
        let steady = stats.rtts_ms()[5].unwrap();
        assert!(
            steady < 10.0,
            "{kind}: steady-state RTT {steady} ms too high"
        );
        let first = stats.rtts_ms()[0].unwrap();
        assert!(
            first > steady,
            "{kind}: first RTT {first} should exceed steady {steady}"
        );
    }
}

#[test]
fn flows_are_installed_and_expire_per_controller_policy() {
    // Floodlight uses a 5 s idle timeout: entries appear, then vanish.
    let mut sim = line_network(ControllerKind::Floodlight);
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 3,
            interval: SimTime::from_secs(1),
            label: "short ping".into(),
        },
    );
    sim.run_until(SimTime::from_secs(13));
    assert!(
        !sim.switch("s1").flow_table().is_empty(),
        "flows should be installed during traffic"
    );
    sim.run_until(SimTime::from_secs(30));
    assert!(
        sim.switch("s1").flow_table().is_empty(),
        "idle timeout should have cleared the table"
    );

    // Ryu installs permanent flows: they persist.
    let mut sim = line_network(ControllerKind::Ryu);
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 3,
            interval: SimTime::from_secs(1),
            label: "short ping".into(),
        },
    );
    sim.run_until(SimTime::from_secs(60));
    assert!(
        !sim.switch("s1").flow_table().is_empty(),
        "Ryu's timeout-free flows should persist"
    );
}

#[test]
fn iperf_reaches_near_line_rate_on_installed_flows() {
    for kind in ControllerKind::ALL {
        let mut sim = line_network(kind);
        let h1 = sim.node_id("h1").unwrap();
        let h2 = sim.node_id("h2").unwrap();
        sim.schedule_command(
            SimTime::from_secs(9),
            HostCommand::IperfServer {
                host: h2,
                port: 5001,
            },
        );
        sim.schedule_command(
            SimTime::from_secs(10),
            HostCommand::IperfClient {
                host: h1,
                dst: "10.0.0.2".parse().unwrap(),
                port: 5001,
                duration: SimTime::from_secs(10),
                label: format!("{kind} iperf"),
            },
        );
        sim.run_until(SimTime::from_secs(30));
        let stats = &sim.iperf_stats()[0];
        assert!(stats.connected, "{kind}: iperf never connected");
        assert!(stats.finished, "{kind}: iperf never finished");
        let mbps = stats.throughput_mbps();
        assert!(
            mbps > 80.0 && mbps <= 100.0,
            "{kind}: baseline throughput {mbps:.1} Mb/s should be near line rate"
        );
    }
}

#[test]
fn control_plane_traffic_is_modest_in_steady_state() {
    let mut sim = line_network(ControllerKind::Floodlight);
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 20,
            interval: SimTime::from_secs(1),
            label: "ping".into(),
        },
    );
    sim.run_until(SimTime::from_secs(35));
    let packet_ins = sim
        .trace()
        .control_message_count(OfType::PacketIn, Direction::SwitchToController);
    // Flows idle out at 5 s between rounds of... actually 1 s pings keep
    // them alive: misses happen only on the first trial (per switch, per
    // direction, plus ARP). 20 trials must not each cost a packet-in.
    assert!(
        packet_ins < 20,
        "expected flow reuse, saw {packet_ins} packet-ins"
    );
    let flow_mods = sim
        .trace()
        .control_message_count(OfType::FlowMod, Direction::ControllerToSwitch);
    assert!(flow_mods > 0, "controller should have installed flows");
}

#[test]
fn fail_secure_blackholes_without_a_controller() {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch_with_mode("s1", FailMode::Secure);
    b.link(h1, s1);
    b.link(h2, s1);
    // No controller at all.
    let mut sim = b.build();
    sim.schedule_command(
        SimTime::from_secs(5),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 5,
            interval: SimTime::from_secs(1),
            label: "doomed ping".into(),
        },
    );
    sim.run_until(SimTime::from_secs(15));
    let stats = &sim.ping_stats()[0];
    assert!(stats.is_denial_of_service());
    assert!(sim.switch("s1").secure_drops > 0);
}

#[test]
fn fail_safe_forwards_without_a_controller() {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch_with_mode("s1", FailMode::Safe);
    let s2 = b.switch_with_mode("s2", FailMode::Safe);
    b.link(h1, s1);
    b.link(s1, s2);
    b.link(h2, s2);
    let mut sim = b.build();
    sim.schedule_command(
        SimTime::from_secs(5),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 5,
            interval: SimTime::from_secs(1),
            label: "standalone ping".into(),
        },
    );
    sim.run_until(SimTime::from_secs(15));
    let stats = &sim.ping_stats()[0];
    assert_eq!(stats.received(), 5, "{:?}", stats.rtts_ms());
    assert!(sim.switch("s1").standalone_forwards > 0);
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut sim = line_network(ControllerKind::Pox);
        let h1 = sim.node_id("h1").unwrap();
        let h2 = sim.node_id("h2").unwrap();
        sim.schedule_command(
            SimTime::from_secs(8),
            HostCommand::IperfServer {
                host: h2,
                port: 5001,
            },
        );
        sim.schedule_command(
            SimTime::from_secs(10),
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.2".parse().unwrap(),
                count: 10,
                interval: SimTime::from_secs(1),
                label: "ping".into(),
            },
        );
        sim.schedule_command(
            SimTime::from_secs(12),
            HostCommand::IperfClient {
                host: h1,
                dst: "10.0.0.2".parse().unwrap(),
                port: 5001,
                duration: SimTime::from_secs(5),
                label: "iperf".into(),
            },
        );
        sim.run_until(SimTime::from_secs(30));
        (
            sim.ping_stats()[0].rtts_ms().to_vec(),
            sim.iperf_stats()[0].bytes,
            sim.trace().control_message_total(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two identical runs must produce identical results");
}

#[test]
fn connection_death_and_reconnect_after_silence() {
    // Drop-everything interposer kills the control plane mid-run.
    struct KillAfter {
        at: SimTime,
    }
    impl attain_netsim::Interposer for KillAfter {
        fn on_message(
            &mut self,
            msg: attain_netsim::ProxiedMessage<'_>,
        ) -> attain_netsim::InterposerActions {
            if msg.now >= self.at {
                attain_netsim::InterposerActions::drop_message()
            } else {
                attain_netsim::InterposerActions::pass(&msg)
            }
        }
    }
    let mut sim = line_network(ControllerKind::Floodlight);
    sim.set_interposer(Box::new(KillAfter {
        at: SimTime::from_secs(10),
    }));
    sim.run_until(SimTime::from_secs(9));
    assert!(sim.switch("s1").is_connected());
    // After 15 s of injected silence the switch declares the connection
    // dead; reconnect attempts keep failing against the black hole.
    sim.run_until(SimTime::from_secs(40));
    assert!(!sim.switch("s1").is_connected());
    assert!(!sim.switch("s2").is_connected());
}

/// A command or fault scheduled in the past runs at the current instant:
/// virtual time never moves backwards, neither as `now()` reports it nor
/// as the trace stamps it.
#[test]
fn late_commands_run_now_and_the_clock_never_runs_backwards() {
    let mut sim = line_network(ControllerKind::Floodlight);
    sim.run_until(SimTime::from_secs(5));
    let late = SimTime::from_secs(1);
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_fault(late, FaultSpec::parse("link s1-s2 down").unwrap());
    sim.schedule_command(
        late,
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 1,
            interval: SimTime::from_secs(1),
            label: "late".into(),
        },
    );
    let mut last = sim.now();
    for horizon_s in [2, 4, 5, 6] {
        sim.run_until(SimTime::from_secs(horizon_s));
        assert!(sim.now() >= last, "now() went from {last} to {}", sim.now());
        last = sim.now();
    }
    assert_eq!(sim.ping_stats()[0].transmitted(), 1, "the late ping ran");
    let events: Vec<TraceEvent> = sim.trace().events().collect();
    assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
    let fault = events
        .iter()
        .find(|e| matches!(e.kind, TraceKind::Fault { .. }))
        .expect("the late fault was applied");
    assert_eq!(fault.time, SimTime::from_secs(5));
}
