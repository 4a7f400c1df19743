//! Simulation-level pins on the flow table's observable order: which
//! entries a full table evicts, and which entry each packet hits.
//!
//! The unit-level differential test (`crates/netsim/tests/proptest_netsim.rs`)
//! compares the classifier with a reference scan one operation at a
//! time; these runs pin the same contract end to end, through
//! controller, switch pipeline and trace. Every constant below was
//! recorded on the linear-scan classifier (the commit before the
//! tuple-space rewrite), so a change of eviction victim, lookup winner
//! or tie-break shows up as a digest or counter mismatch here.

use attain::controllers::ControllerKind;
use attain::injector::harness::build_case_study;
use attain::netsim::topo::{install_leaf_spine_routes, leaf_spine, LeafSpineParams};
use attain::netsim::{EvictionPolicy, FailMode, HostCommand, NetworkBuilder, SimTime, Simulation};

const SWITCHES: [&str; 4] = ["s1", "s2", "s3", "s4"];
const FILL: u32 = 1_500;
const GAP_MS: u64 = 20;

/// The §VII enterprise network under Ryu with 256-entry tables of
/// `policy`, and a 1,500-flow capacity probe from h3 to h6 that
/// overflows every table on its path.
fn churned(policy: EvictionPolicy) -> Simulation {
    let mut sim = build_case_study(ControllerKind::Ryu, FailMode::Secure);
    for s in SWITCHES {
        sim.set_table_config(s, 256, policy);
    }
    let h3 = sim.node_id("h3").expect("the case study has h3");
    sim.schedule_command(
        SimTime::from_secs(1),
        HostCommand::Probe {
            host: h3,
            dst: "10.0.0.6".parse().expect("a valid address"),
            fill: FILL,
            gap: SimTime::from_millis(GAP_MS),
            label: "churn".into(),
        },
    );
    // Warm-up, fill, settle and the reverse sweep, with slack.
    sim.run_until(SimTime::from_millis(
        1_100 + (2 * u64::from(FILL) + 200) * GAP_MS,
    ));
    sim
}

/// Runs [`churned`] and checks the probe finished, the evictions per
/// switch (only s3 and s4 lie on the h3 → h6 path) and the trace digest.
fn assert_churn_pinned(policy: EvictionPolicy, digest: &str) {
    let sim = churned(policy);
    assert!(sim.probe_stats()[0].is_done());
    let evictions = SWITCHES.map(|s| sim.switch(s).flow_table().eviction_count);
    assert_eq!(evictions, [0, 0, 5_490, 5_490]);
    assert_eq!(sim.trace().digest().to_string(), digest);
}

#[test]
fn lru_eviction_order_is_pinned_end_to_end() {
    assert_churn_pinned(EvictionPolicy::EvictLru, "84939165a300a8a3");
}

/// Ryu installs every flow at one priority, so this pins the
/// oldest-first tie-break; the digest differs from the LRU run's because
/// traffic does not reorder the victims.
#[test]
fn lowest_priority_eviction_order_is_pinned_end_to_end() {
    assert_churn_pinned(EvictionPolicy::EvictLowestPriority, "cf58b506093de647");
}

/// Per switch: `(lookup_count, matched_count, packet_count of every
/// entry in insertion order)`.
type TableCounts = (u64, u64, Vec<u64>);

/// A 4-leaf × 2-spine fabric with proactive prefix routes (three masks
/// on a leaf, one on a spine) where every host pings every other host.
#[test]
fn leaf_spine_ping_matrix_hits_the_same_entries() {
    let mut b = NetworkBuilder::new();
    let topo = leaf_spine(&mut b, &LeafSpineParams::new(2, 4, 2)).expect("valid dimensions");
    let mut sim = b.build();
    install_leaf_spine_routes(&mut sim, &topo);
    let mut pairs = 0;
    for (i, src) in topo.hosts.iter().enumerate() {
        for (j, dst) in topo.hosts.iter().enumerate() {
            if i == j {
                continue;
            }
            sim.prime_arp(src.id, dst.id);
            sim.prime_arp(dst.id, src.id);
            sim.schedule_command(
                SimTime::from_millis(100 + pairs),
                HostCommand::Ping {
                    host: src.id,
                    dst: dst.ip,
                    count: 3,
                    interval: SimTime::from_millis(50),
                    label: format!("{i}->{j}"),
                },
            );
            pairs += 1;
        }
    }
    sim.run_until(SimTime::from_secs(2));

    let pings = sim.ping_stats();
    assert_eq!(pings.len() as u64, pairs);
    for p in &pings {
        assert_eq!((p.received(), p.transmitted()), (3, 3), "{}", p.label);
    }
    let names = (0..4)
        .map(|l| format!("lsl{l}"))
        .chain((0..2).map(|s| format!("lss{s}")));
    let got: Vec<TableCounts> = names
        .map(|name| {
            let t = sim.switch(&name).flow_table();
            (
                t.lookup_count,
                t.matched_count,
                t.entries().map(|e| e.packet_count).collect(),
            )
        })
        .collect();
    assert_eq!(got, leaf_spine_counts());
}

/// Leaves `lsl0..lsl3` (two `/32` hosts, the own-subnet `/24` drop, the
/// `/8` default up-route), then spines `lss0`, `lss1` (one `/24` per
/// leaf).
fn leaf_spine_counts() -> Vec<TableCounts> {
    let leaf = || (156, 156, vec![42, 42, 0, 72]);
    vec![
        leaf(),
        leaf(),
        leaf(),
        leaf(),
        (144, 144, vec![24, 48, 24, 48]),
        (144, 144, vec![48, 24, 48, 24]),
    ]
}
