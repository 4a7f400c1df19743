//! Event-order pins at scale: the engine's determinism contract.
//!
//! The event queue must pop in exactly the `(time, seq)` order of a
//! binary heap over the same key. Every constant below was recorded on
//! `SchedulerConfig::heap(1)` — the binary-heap backend — at the commit
//! before that backend was deleted (same convention as
//! `tests/eviction_order.rs`), so a reordering, retiming, loss or
//! duplication anywhere in the wheel-only engine shows up as a digest,
//! counter or event-count mismatch here. The scenarios are the two kinds
//! the repo cares about: the paper-style small controller network (the
//! control-plane trace digest is the oracle) and generated datacenter
//! fabrics under seeded traffic matrices (the data-plane record is).

use attain_controllers::ControllerKind;
use attain_netsim::topo::{fat_tree, install_fat_tree_routes, FatTreeParams};
use attain_netsim::workload::{FlowKind, TrafficMatrix, TrafficPattern};
use attain_netsim::{FaultPlan, HostCommand, NetworkBuilder, PassThrough, SimTime, Simulation};

/// Everything externally observable about a finished run, rendered.
/// Any reordering, retiming, loss, or duplication anywhere in the
/// simulation shows up here.
fn fingerprint(sim: &Simulation) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace {}\n", sim.trace().digest()));
    out.push_str(&format!("counters {}\n", sim.trace().counter_digest()));
    out.push_str(&format!("events {}\n", sim.events_dispatched()));
    for p in sim.ping_stats() {
        out.push_str(&format!(
            "ping {} {} {}/{} {:?}\n",
            p.label,
            p.dst,
            p.received(),
            p.transmitted(),
            p.rtts_ms()
        ));
    }
    for s in sim.iperf_stats() {
        out.push_str(&format!("iperf {} {} {}\n", s.label, s.dst, s.bytes));
    }
    for l in sim.link_stats() {
        out.push_str(&format!(
            "link {}-{} tx {} drops {}/{}/{} corrupted {}\n",
            l.a, l.b, l.tx, l.queue_drops, l.down_drops, l.lost, l.corrupted
        ));
    }
    out
}

/// The paper-style 10-node line/star scenario: four switches, four
/// hosts, one controller, ping + iperf crossing the fabric while a
/// fault plan flaps a core link — the existing campaign shape.
fn paper_scenario(interpose: bool, fault: bool) -> Simulation {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let h3 = b.host("h3", "10.0.0.3");
    let h4 = b.host("h4", "10.0.0.4");
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    let s3 = b.switch("s3");
    let s4 = b.switch("s4");
    b.link(h1, s1);
    b.link(h2, s2);
    b.link(h3, s3);
    b.link(h4, s4);
    b.link(s1, s2);
    b.link(s2, s3);
    b.link(s3, s4);
    let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
    b.control(c1, s1);
    b.control(c1, s2);
    b.control(c1, s3);
    b.control(c1, s4);
    let mut sim = b.build();
    if interpose {
        sim.set_interposer(Box::new(PassThrough));
    }
    if fault {
        let mut plan = FaultPlan::seeded(7);
        plan.at_str(SimTime::from_secs(14), "link s2-s3 down")
            .unwrap()
            .at_str(SimTime::from_secs(18), "link s2-s3 up")
            .unwrap();
        sim.apply_fault_plan(&plan);
    }
    let ping = |host, dst: &str, label: &str| HostCommand::Ping {
        host,
        dst: dst.parse().unwrap(),
        count: 8,
        interval: SimTime::from_secs(1),
        label: label.into(),
    };
    let h1 = sim.node_id("h1").unwrap();
    let h3 = sim.node_id("h3").unwrap();
    sim.schedule_command(SimTime::from_secs(10), ping(h1, "10.0.0.4", "h1->h4"));
    sim.schedule_command(SimTime::from_secs(11), ping(h3, "10.0.0.2", "h3->h2"));
    sim.run_until(SimTime::from_secs(30));
    sim
}

/// A generated fat-tree under a seeded traffic matrix, optionally with
/// an interposer-less fault plan (no controller, so no interposer).
fn fabric_scenario(k: usize, fault: bool, seed: u64) -> Simulation {
    let mut b = NetworkBuilder::new();
    let t = fat_tree(&mut b, &FatTreeParams::new(k)).unwrap();
    let mut sim = b.build();
    install_fat_tree_routes(&mut sim, &t);
    if fault {
        // Flap one core uplink mid-run; seeded loss on another.
        let mut plan = FaultPlan::seeded(seed);
        plan.at_str(SimTime::from_secs(2), "link fta0_0-ftc0 down")
            .unwrap()
            .at_str(SimTime::from_secs(4), "link fta0_0-ftc0 up")
            .unwrap();
        sim.apply_fault_plan(&plan);
    }
    TrafficMatrix::new(48, seed)
        .with_pattern(TrafficPattern::Hotspot {
            hotspots: 3,
            bias_pct: 70,
        })
        .apply(&mut sim, &t);
    sim.run_until(SimTime::from_secs(8));
    sim
}

/// A k=4 fat-tree carrying a permutation of one-second iperf flows.
fn iperf_scenario() -> Simulation {
    let mut b = NetworkBuilder::new();
    let t = fat_tree(&mut b, &FatTreeParams::new(4)).unwrap();
    let mut sim = b.build();
    install_fat_tree_routes(&mut sim, &t);
    TrafficMatrix::new(12, 5)
        .with_pattern(TrafficPattern::Permutation)
        .with_kind(FlowKind::Iperf {
            duration: SimTime::from_secs(1),
        })
        .apply(&mut sim, &t);
    sim.run_until(SimTime::from_secs(10));
    sim
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the heap recorded for one scenario: trace digest, counter
/// digest, events dispatched, FNV-1a of the whole [`fingerprint`] string.
type Pin = (&'static str, &'static str, u64, u64);

/// The digests of a run with no control plane: nothing is traced, so
/// both are the FNV offset basis.
const NO_TRACE: &str = "cbf29ce484222325";

const PAPER: Pin = (
    "bb65730372714a38",
    "de5100de351751ed",
    545,
    0x40e4_a8cc_dd9f_a1d3,
);
const PAPER_FAULTED: Pin = (
    "86ee5ed3fff66a07",
    "de5100de351751ed",
    495,
    0xea22_5243_b0be_f3d2,
);
const K4: Pin = (NO_TRACE, NO_TRACE, 1_917, 0xa213_b078_2eb2_f60a);
// The link flap is traced; it touches no per-message-type counter.
const K4_FAULTED: Pin = ("b0578fcbb0f24f26", NO_TRACE, 1_919, 0xf034_7ddb_f33d_7465);
const K8: Pin = (NO_TRACE, NO_TRACE, 2_421, 0x8469_a13c_5c81_ae25);
const IPERF: Pin = (NO_TRACE, NO_TRACE, 446_037, 0x3e89_39e6_3273_89e4);

fn assert_pinned(what: &str, sim: &Simulation, (trace, counters, events, hash): Pin) {
    assert_eq!(sim.trace().digest().to_string(), trace, "{what}");
    assert_eq!(sim.trace().counter_digest().to_string(), counters, "{what}");
    assert_eq!(sim.events_dispatched(), events, "{what}");
    assert_eq!(fnv1a(&fingerprint(sim)), hash, "{what}");
}

#[test]
fn paper_scenario_matches_the_heap_recording() {
    // A pass-through interposer must not move anything, so both values
    // of `interpose` share a pin.
    for interpose in [false, true] {
        for (fault, pin) in [(false, PAPER), (true, PAPER_FAULTED)] {
            let sim = paper_scenario(interpose, fault);
            assert_pinned(&format!("interpose={interpose} fault={fault}"), &sim, pin);
        }
    }
}

#[test]
fn fat_tree_k4_traffic_matrix_matches_the_heap_recording() {
    for (fault, pin) in [(false, K4), (true, K4_FAULTED)] {
        let sim = fabric_scenario(4, fault, 42);
        assert!(!sim.ping_stats().is_empty(), "scenario produced no flows");
        assert_pinned(&format!("fault={fault}"), &sim, pin);
    }
}

#[test]
fn fat_tree_k8_traffic_matrix_matches_the_heap_recording() {
    // k=8: 80 switches, 128 hosts — one fabric size up.
    assert_pinned("k=8", &fabric_scenario(8, false, 9), K8);
}

#[test]
fn iperf_workload_matches_the_heap_recording() {
    let sim = iperf_scenario();
    assert!(!sim.iperf_stats().is_empty(), "scenario produced no flows");
    assert_pinned("iperf permutation", &sim, IPERF);
}

#[test]
fn same_seed_runs_are_identical() {
    assert_eq!(
        fingerprint(&fabric_scenario(4, true, 42)),
        fingerprint(&fabric_scenario(4, true, 42))
    );
}
