//! End-to-end case-study tests: the §VII experiments at reduced
//! fidelity, checking the qualitative shapes the paper reports.

use attain_controllers::ControllerKind;
use attain_injector::harness::{self, Fidelity};
use attain_injector::RunRecord;

fn run_flow_mod_suppression(kind: ControllerKind, attacked: bool) -> RunRecord {
    harness::run_flow_mod_suppression(kind, attacked, &Fidelity::quick())
        .expect("the §VII-B timeline runs")
}

/// The §VII-C timeline's fail-safe and fail-secure records, from one run
/// that splits at the interruption.
fn run_connection_interruption(kind: ControllerKind) -> [RunRecord; 2] {
    harness::run_connection_interruption(kind).expect("the §VII-C timeline runs")
}

/// Table II row 3: the external user reached an internal host.
fn unauthorized_access(out: &RunRecord) -> bool {
    out.accessible("h2->h3")
}

/// Table II row 4: the internal user lost the external hosts.
fn legitimate_dos(out: &RunRecord) -> bool {
    !out.accessible("h6->h1 late")
}

#[test]
fn baselines_are_healthy_for_all_controllers() {
    for kind in ControllerKind::ALL {
        let out = run_flow_mod_suppression(kind, false);
        assert_eq!(
            out.rule_fires("phi1"),
            0,
            "{kind}: baseline must not fire φ1"
        );
        let ping = &out.pings[0];
        assert!(
            !ping.denied(),
            "{kind}: baseline ping lost everything: {ping:?}"
        );
        assert!(
            ping.loss_pct() < 10.0,
            "{kind}: baseline ping loss {}%",
            ping.loss_pct()
        );
        let mbps = out.mean_throughput_mbps();
        assert!(
            mbps > 70.0,
            "{kind}: baseline throughput {mbps:.1} Mb/s should be near line rate"
        );
        let rtt = ping.avg_rtt_ms.unwrap();
        assert!(rtt < 30.0, "{kind}: baseline RTT {rtt:.2} ms too high");
    }
}

#[test]
fn suppression_deadlocks_pox_data_plane() {
    // POX attaches buffer_id to its flow mods: suppressing them discards
    // every first packet — the paper's asterisk (zero throughput,
    // infinite latency).
    let out = run_flow_mod_suppression(ControllerKind::Pox, true);
    assert!(out.rule_fires("phi1") > 0, "φ1 must fire");
    assert!(out.pings[0].denied(), "POX ping should be fully denied");
    assert!(out.iperf_denied(), "POX iperf should be fully denied");
}

#[test]
fn suppression_degrades_but_does_not_kill_floodlight_and_ryu() {
    for kind in [ControllerKind::Floodlight, ControllerKind::Ryu] {
        let baseline = run_flow_mod_suppression(kind, false);
        let attacked = run_flow_mod_suppression(kind, true);
        assert!(attacked.rule_fires("phi1") > 0, "{kind}: φ1 must fire");
        // Service survives: packets still flow via per-packet PACKET_OUT.
        assert!(
            !attacked.pings[0].denied(),
            "{kind}: ping should survive suppression"
        );
        assert!(
            !attacked.iperf_denied(),
            "{kind}: iperf should survive suppression"
        );
        // …but degrades: throughput collapses, latency inflates.
        let b_mbps = baseline.mean_throughput_mbps();
        let a_mbps = attacked.mean_throughput_mbps();
        assert!(
            a_mbps < b_mbps / 4.0,
            "{kind}: attacked throughput {a_mbps:.1} should be far below baseline {b_mbps:.1}"
        );
        let b_rtt = baseline.pings[0].avg_rtt_ms.unwrap();
        let a_rtt = attacked.pings[0].avg_rtt_ms.unwrap();
        assert!(
            a_rtt > 2.0 * b_rtt,
            "{kind}: attacked RTT {a_rtt:.2} should be well above baseline {b_rtt:.2}"
        );
        // Control-plane traffic balloons (the paper's second finding).
        assert!(
            attacked.packet_ins > 4 * baseline.packet_ins,
            "{kind}: packet-ins {} vs baseline {} should balloon",
            attacked.packet_ins,
            baseline.packet_ins
        );
    }
}

#[test]
fn interruption_fail_safe_grants_unauthorized_access() {
    for kind in [ControllerKind::Floodlight, ControllerKind::Pox] {
        let [out, _] = run_connection_interruption(kind);
        assert_eq!(
            out.final_state.as_deref(),
            Some("sigma3"),
            "{kind}: attack must engage"
        );
        assert!(out.rule_fires("phi2") > 0, "{kind}: φ2 must fire");
        // Rows 1–2 (pre-attack): everything reachable.
        assert!(out.accessible("h2->h1 early"), "{kind}: row 1");
        assert!(out.accessible("h6->h1 early"), "{kind}: row 2");
        // Row 3: the DMZ falls open — unauthorized increased access.
        assert!(
            unauthorized_access(&out),
            "{kind}: fail-safe should let the external user in: {}",
            out.ping("h2->h3").unwrap()
        );
        // Row 4: legitimate traffic still flows.
        assert!(!legitimate_dos(&out), "{kind}: row 4 should stay up");
    }
}

#[test]
fn interruption_fail_secure_denies_legitimate_traffic() {
    for kind in [ControllerKind::Floodlight, ControllerKind::Pox] {
        let [_, out] = run_connection_interruption(kind);
        assert_eq!(
            out.final_state.as_deref(),
            Some("sigma3"),
            "{kind}: attack must engage"
        );
        assert!(out.accessible("h2->h1 early"), "{kind}: row 1");
        assert!(out.accessible("h6->h1 early"), "{kind}: row 2");
        // Row 3: the firewall holds.
        assert!(
            !unauthorized_access(&out),
            "{kind}: fail-secure must keep the external user out: {}",
            out.ping("h2->h3").unwrap()
        );
        // Row 4: at the price of a denial of service for insiders.
        assert!(
            legitimate_dos(&out),
            "{kind}: fail-secure should deny legitimate traffic: {}",
            out.ping("h6->h1 late").unwrap()
        );
    }
}

#[test]
fn interruption_never_engages_against_ryu() {
    // Ryu's flow-mod matches carry no nw_src, so φ2 never fires and the
    // connection is never interrupted — the paper's §VII-C4 anomaly.
    for out in run_connection_interruption(ControllerKind::Ryu) {
        assert_eq!(
            out.final_state.as_deref(),
            Some("sigma2"),
            "attack must stall in σ2"
        );
        assert_eq!(out.rule_fires("phi2"), 0);
        assert!(out.accessible("h2->h1 early"));
        assert!(out.accessible("h6->h1 early"));
        // The DMZ policy holds (enforced by Ryu's L2 deny rule)…
        assert!(
            !unauthorized_access(&out),
            "{}",
            out.ping("h2->h3").unwrap()
        );
        // …and nothing is denied.
        assert!(
            !legitimate_dos(&out),
            "{}",
            out.ping("h6->h1 late").unwrap()
        );
    }
}

/// The case-study network is the enterprise scenario's: every host and
/// switch by name, and the simulation's connection `i` is the model's
/// connection `i`, so an attack's connection ids need no translation.
#[test]
fn build_case_study_mirrors_the_scenario() {
    use attain_core::model::NodeRef;
    let system = attain_core::scenario::enterprise_network().system;
    let sim = harness::build_case_study(ControllerKind::Pox, attain_netsim::FailMode::Safe);
    let pairs: Vec<(String, String)> = system
        .connections()
        .map(|(_, c, s)| {
            let name = |r| system.name_of(r).to_string();
            (name(NodeRef::Controller(c)), name(NodeRef::Switch(s)))
        })
        .collect();
    let sim_pairs: Vec<(String, String)> = sim
        .conn_infos()
        .into_iter()
        .map(|i| (i.controller, i.switch))
        .collect();
    assert_eq!(sim_pairs, pairs);
    for (_, h) in system.hosts() {
        assert!(sim.node_id(&h.name).is_some(), "{} missing", h.name);
    }
    for (_, s) in system.switches() {
        assert!(sim.is_switch(&s.name), "{} missing", s.name);
    }
}

/// A simulation without one of the scenario's connections is a setup
/// error naming it, not a panic.
#[test]
fn try_attach_attack_refuses_a_network_without_s2() {
    let mut b = attain_netsim::NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let s1 = b.switch("s1");
    b.link(h1, s1);
    let c1 = b.controller("c1", ControllerKind::Pox.instantiate());
    b.control(c1, s1);
    let mut sim = b.build();
    let source = attain_core::scenario::attacks::TRIVIAL_PASS;
    let err = harness::try_attach_attack(&mut sim, source).expect_err("s2 is missing");
    let harness::RunError::Setup(msg) = &err else {
        panic!("not a setup error: {err:?}");
    };
    assert!(msg.contains("(c1, s2)"), "{msg}");
}
