//! Every Table I capability exercised end-to-end inside the simulator:
//! delay, fuzz, modify, inject, syscmd-driven workloads, and the TLS
//! capability class.

use attain_controllers::ControllerKind;
use attain_core::dsl;
use attain_core::exec::AttackExecutor;
use attain_core::model::{AttackModel, CapabilitySet, SystemModel};
use attain_injector::harness::{attach, build_simulation};
use attain_netsim::{Direction, FailMode, HostCommand, SimTime, Simulation};
use attain_openflow::OfType;

/// A two-host, one-switch system whose names the DSL sources below use.
fn small_system() -> SystemModel {
    let mut m = SystemModel::new();
    let c1 = m.add_controller("c1").expect("fresh model");
    let s1 = m.add_switch("s1").expect("fresh model");
    let h1 = m
        .add_host("h1", Some("10.0.0.1".parse().expect("valid")), None)
        .expect("fresh model");
    let h2 = m
        .add_host("h2", Some("10.0.0.2".parse().expect("valid")), None)
        .expect("fresh model");
    m.add_host_link(h1, s1, 1).expect("valid link");
    m.add_host_link(h2, s1, 2).expect("valid link");
    m.add_connection(c1, s1).expect("fresh connection");
    m
}

/// Builds the simulation + injector for `source` with a given capability
/// grant, returning the sim and executor handle.
fn attacked_sim(
    source: &str,
    caps: CapabilitySet,
) -> (Simulation, attain_injector::SharedExecutor) {
    let system = small_system();
    let model = AttackModel::uniform(&system, caps);
    let compiled = dsl::compile(source, &system, &model).expect("attack compiles");
    let exec =
        AttackExecutor::new(system.clone(), model, compiled.attack).expect("attack validates");
    let mut sim = build_simulation(
        &system,
        |_| FailMode::Secure,
        |_| ControllerKind::Floodlight.instantiate(),
    )
    .expect("the small system builds");
    let handle = attach(&mut sim, exec, &system).expect("the small system has its connections");
    (sim, handle)
}

fn ping(sim: &mut Simulation, count: u32) {
    let h1 = sim.node_id("h1").expect("h1 exists");
    sim.schedule_command(
        SimTime::from_secs(5),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().expect("valid"),
            count,
            interval: SimTime::from_secs(1),
            label: "ping".into(),
        },
    );
}

#[test]
fn delay_attack_inflates_latency_without_loss() {
    // DELAYMESSAGE is in Γ_TLS: this attack runs against an encrypted
    // control channel, reading only metadata.
    let source = r#"
        attack molasses {
            start state s {
                rule slow on (c1, s1) requires tls {
                    when msg.length > 0
                    do { delay(msg, 0.2); }
                }
            }
        }
    "#;
    let (mut sim_base, _) =
        attacked_sim(r#"attack nop { start state s { } }"#, CapabilitySet::tls());
    ping(&mut sim_base, 10);
    sim_base.run_until(SimTime::from_secs(20));
    let base = sim_base.ping_stats()[0].clone();

    let (mut sim, _) = attacked_sim(source, CapabilitySet::tls());
    ping(&mut sim, 10);
    sim.run_until(SimTime::from_secs(25));
    let slow = sim.ping_stats()[0].clone();

    assert_eq!(slow.received(), 10, "delay must not lose packets");
    // The first ping pays several delayed control-plane round trips.
    let first_base = base.rtts_ms()[0].expect("baseline first ping answered");
    let first_slow = slow.rtts_ms()[0].expect("delayed first ping answered");
    assert!(
        first_slow > first_base + 350.0,
        "first RTT should absorb ≥2 delayed control messages: {first_base:.1} → {first_slow:.1} ms"
    );
}

#[test]
fn fuzz_attack_is_survivable_and_triggers_switch_errors() {
    let source = r#"
        attack static_noise {
            start state s {
                rule corrupt on (c1, s1) {
                    when msg.type == FLOW_MOD
                    do { fuzz(msg, 24); }
                }
            }
        }
    "#;
    let (mut sim, handle) = attacked_sim(source, CapabilitySet::no_tls());
    ping(&mut sim, 10);
    sim.run_until(SimTime::from_secs(25));
    assert!(handle.lock().log().rule_fires("corrupt") > 0);
    // Network stays alive (Floodlight forwards via PACKET_OUT even when
    // its flow mods arrive corrupted), and heavily fuzzed flow mods that
    // no longer parse draw ERRORs from the switch.
    let ping_stats = &sim.ping_stats()[0];
    assert!(
        ping_stats.received() >= 8,
        "fuzz should not kill the data plane: {ping_stats:?}"
    );
    let errors = sim
        .trace()
        .control_message_count(OfType::Error, Direction::SwitchToController);
    assert!(
        errors > 0,
        "24 bit flips should render some flow mods unparseable"
    );
}

#[test]
fn modify_attack_rewrites_flow_mod_fields_in_flight() {
    // Setting idle_timeout to 1s forces constant re-misses: flows decay
    // almost immediately, so PACKET_IN counts grow vs. baseline.
    let source = r#"
        attack rot {
            start state s {
                rule shorten on (c1, s1) {
                    when msg.type == FLOW_MOD && msg["idle_timeout"] != 1
                    do { modify(msg, "idle_timeout", 1); }
                }
            }
        }
    "#;
    let (mut sim, handle) = attacked_sim(source, CapabilitySet::no_tls());
    ping(&mut sim, 20);
    // Stop mid-run: flows are still installed and must carry the
    // attacker's rewritten timeout, not Floodlight's 5 s default.
    sim.run_until(SimTime::from_secs(15));
    assert!(handle.lock().log().rule_fires("shorten") > 0);
    let table = sim.switch("s1").flow_table();
    assert!(!table.is_empty(), "flows should be installed mid-run");
    for entry in table.entries() {
        assert_eq!(
            entry.idle_timeout, 1,
            "every installed flow must carry the rewritten timeout"
        );
    }
    // And once the pings stop, the 1 s timeout clears the table fast.
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(sim.ping_stats()[0].received(), 20);
    assert!(sim.switch("s1").flow_table().is_empty());
}

#[test]
fn inject_attack_places_new_messages_on_the_wire() {
    // Inject a pre-encoded ECHO_REQUEST (xid 0x63) toward the switch
    // whenever a PACKET_IN passes; the switch's EchoReply shows up in
    // the trace as extra switch→controller echo traffic.
    let source = r#"
        attack chatty {
            start state s {
                rule inj on (c1, s1) {
                    when msg.type == PACKET_IN
                    do { inject((c1, s1), to_switch, hex("01 02 00 08 00 00 00 63")); }
                }
            }
        }
    "#;
    let (mut sim, handle) = attacked_sim(source, CapabilitySet::no_tls());
    ping(&mut sim, 5);
    sim.run_until(SimTime::from_secs(15));
    let fires = handle.lock().log().rule_fires("inj");
    assert!(fires > 0);
    let echo_replies = sim
        .trace()
        .control_message_count(OfType::EchoReply, Direction::SwitchToController);
    assert!(
        echo_replies >= fires,
        "every injected echo request draws a reply: {echo_replies} < {fires}"
    );
}

#[test]
fn syscmd_attack_launches_workloads_from_inside_the_attack() {
    // The attack itself starts the paper's monitors/workloads via
    // SYSCMD (§VI-B3): when the first PACKET_IN appears, start an iperf
    // server on h2 and a client on h1.
    let source = r#"
        attack self_driving {
            start state wait {
                rule go on (c1, s1) {
                    when msg.type == PACKET_IN
                    do {
                        syscmd(h2, "iperf -s");
                        syscmd(h1, "iperf -c 10.0.0.2 -t 5");
                        pass(msg);
                        goto running;
                    }
                }
            }
            state running { }
        }
    "#;
    let (mut sim, handle) = attacked_sim(source, CapabilitySet::no_tls());
    // A ping triggers the first PACKET_IN, which bootstraps the iperf run.
    ping(&mut sim, 3);
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(handle.lock().current_state_name(), "running");
    let iperf = sim.iperf_stats();
    assert_eq!(iperf.len(), 1, "the attack should have started iperf");
    assert!(iperf[0].connected && iperf[0].finished);
    assert!(
        iperf[0].throughput_mbps() > 50.0,
        "attack-launched iperf should run at line rate: {:.1}",
        iperf[0].throughput_mbps()
    );
}

#[test]
fn tls_grant_blocks_payload_attacks_but_not_metadata_ones() {
    // Compiling a payload-reading attack against a TLS-only grant fails…
    let payload_attack = r#"
        attack nope {
            start state s {
                rule r on (c1, s1) {
                    when msg.type == FLOW_MOD
                    do { drop(msg); }
                }
            }
        }
    "#;
    let system = small_system();
    let tls = AttackModel::uniform(&system, CapabilitySet::tls());
    assert!(dsl::compile(payload_attack, &system, &tls).is_err());

    // …while a metadata-only blanket drop still works — and, with no
    // ability to distinguish message types, it kills the handshake and
    // the whole network (fail-secure).
    let blanket = r#"
        attack blackout {
            start state s {
                rule r on (c1, s1) requires tls {
                    when msg.length > 0
                    do { drop(msg); }
                }
            }
        }
    "#;
    let (mut sim, _) = attacked_sim(blanket, CapabilitySet::tls());
    ping(&mut sim, 5);
    sim.run_until(SimTime::from_secs(20));
    assert!(!sim.switch("s1").is_connected());
    assert!(sim.ping_stats()[0].is_denial_of_service());
}
