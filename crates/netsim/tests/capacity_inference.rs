//! End-to-end capacity inference: the probe host recovers a switch's
//! configured flow-table capacity from data-plane RTTs alone, under
//! each overflow policy.
//!
//! The victim controller is Ryu: its `simple_switch` installs permanent
//! L2 flows, so idle/hard expiry cannot confound residency, and every
//! spoofed source costs exactly two entries (request + reply
//! direction). The probe's estimate is exact for even capacities.

use attain_controllers::ControllerKind;
use attain_netsim::{
    EvictionPolicy, HostCommand, NetworkBuilder, SimTime, Simulation, TraceDigest,
};

/// Probe host, victim host, one bounded switch, a Ryu controller.
fn probe_network(capacity: usize, policy: EvictionPolicy) -> Simulation {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch("s1");
    b.link(h1, s1);
    b.link(h2, s1);
    let c1 = b.controller("c1", ControllerKind::Ryu.instantiate());
    b.control(c1, s1);
    let mut sim = b.build();
    sim.set_table_config("s1", capacity, policy);
    sim
}

/// Runs one probe to completion and returns (estimate, trace digest).
fn run_probe(capacity: usize, policy: EvictionPolicy, fill: u32) -> (Option<usize>, TraceDigest) {
    let mut sim = probe_network(capacity, policy);
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Probe {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            fill,
            gap: SimTime::from_millis(10),
            label: format!("capprobe {} {}", capacity, policy.name()),
        },
    );
    // Warmup + fill + settle + sweep at one packet per 10 ms.
    let horizon = 10 + (2 * fill as u64 + 20) / 100 + 2;
    sim.run_until(SimTime::from_secs(horizon));
    let stats = &sim.probe_stats()[0];
    assert!(stats.is_done(), "probe did not finish by t={horizon}s");
    (stats.estimate(), sim.trace().digest())
}

#[test]
fn recovers_capacity_64_under_every_policy() {
    for policy in [
        EvictionPolicy::Reject,
        EvictionPolicy::EvictLru,
        EvictionPolicy::EvictLowestPriority,
    ] {
        let (estimate, _) = run_probe(64, policy, 64);
        assert_eq!(estimate, Some(64), "{}", policy.name());
    }
}

#[test]
fn recovers_capacity_256_under_every_policy() {
    for policy in [
        EvictionPolicy::Reject,
        EvictionPolicy::EvictLru,
        EvictionPolicy::EvictLowestPriority,
    ] {
        let (estimate, _) = run_probe(256, policy, 256);
        assert_eq!(estimate, Some(256), "{}", policy.name());
    }
}

#[test]
fn recovers_capacity_1024_under_every_policy() {
    for policy in [
        EvictionPolicy::Reject,
        EvictionPolicy::EvictLru,
        EvictionPolicy::EvictLowestPriority,
    ] {
        let (estimate, _) = run_probe(1024, policy, 1024);
        assert_eq!(estimate, Some(1024), "{}", policy.name());
    }
}

#[test]
fn unbounded_table_reports_fill_exhausted() {
    // Against the default (unbounded) table nothing is ever evicted:
    // every sweep probe is fast, so the estimate saturates at
    // 2*fill + 2 — a lower bound, not a capacity.
    let mut sim = {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", ControllerKind::Ryu.instantiate());
        b.control(c1, s1);
        b.build()
    };
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Probe {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            fill: 32,
            gap: SimTime::from_millis(10),
            label: "capprobe unbounded".into(),
        },
    );
    sim.run_until(SimTime::from_secs(15));
    let stats = &sim.probe_stats()[0];
    assert_eq!(stats.fast_count(), 32);
    assert_eq!(stats.estimate(), Some(2 * 32 + 2));
}

#[test]
fn probe_runs_are_deterministic() {
    let (e1, d1) = run_probe(64, EvictionPolicy::EvictLru, 64);
    let (e2, d2) = run_probe(64, EvictionPolicy::EvictLru, 64);
    assert_eq!(e1, e2);
    assert_eq!(d1, d2, "same-seed probe runs must be byte-identical");
}

#[test]
fn post_build_table_config_matches_builder_config() {
    // Simulation::set_table_config is the one table setter (the
    // campaign's and `probe_network`'s): the bound it sets is the
    // capacity the probe measures.
    let mut sim = {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", ControllerKind::Ryu.instantiate());
        b.control(c1, s1);
        b.build()
    };
    sim.set_table_config("s1", 64, EvictionPolicy::EvictLru);
    assert_eq!(sim.switch("s1").flow_table().capacity(), 64);
    assert_eq!(
        sim.switch("s1").flow_table().policy(),
        EvictionPolicy::EvictLru
    );
    let h1 = sim.node_id("h1").unwrap();
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Probe {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            fill: 64,
            gap: SimTime::from_millis(10),
            label: "capprobe post-build".into(),
        },
    );
    sim.run_until(SimTime::from_secs(14));
    assert_eq!(sim.probe_stats()[0].estimate(), Some(64));
}
