//! The flow-table overflow family's cost and accuracy sweeps.
//!
//! Three groups, each swept over the overflow policies at capacities
//! 64/256/1024:
//!
//! * `fill` — amortized per-entry install cost while filling an empty
//!   bounded table to capacity (the attack's ramp phase);
//! * `install_at_capacity` — the steady-state cost of one more install
//!   into a full table: victim selection plus index churn under the
//!   evicting policies, the refusal path under `reject`. This group
//!   also runs at 4096, where a cost that grows with occupancy shows;
//! * `inference_estimate` — not a timing at all: the capacity the
//!   data-plane probe host recovers from RTT inflection against a Ryu
//!   controller (see `netsim/tests/capacity_inference.rs`). The value
//!   recorded is the estimate, with unit `entries`, so the checked-in
//!   JSON pins the ±5% accuracy claim alongside the timings.
//!
//! Besides the interactive criterion output, a full run (not under
//! `cargo test`) writes `BENCH_table_overflow.json` at the workspace
//! root: every point as measured on the commit before the ordered
//! victim index ([`BEFORE`], a `min_by_key` scan per eviction) and on
//! this build.

use attain_bench::{timing, BenchReport};
use attain_controllers::ControllerKind;
use attain_netsim::{EvictionPolicy, FlowTable, HostCommand, NetworkBuilder, SimTime, Simulation};
use attain_openflow::{Action, FlowKey, FlowMod, MacAddr, Match, PortNo};
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

const CAPACITIES: [usize; 3] = [64, 256, 1024];
const AT_CAPACITY: [usize; 4] = [64, 256, 1024, 4096];

/// Every row as measured by this file on the parent commit.
const BEFORE: &[(&str, f64)] = &[
    ("fill/reject/64", 291.19),
    ("fill/reject/256", 287.61),
    ("fill/reject/1024", 280.86),
    ("fill/evict_lru/64", 292.30),
    ("fill/evict_lru/256", 286.49),
    ("fill/evict_lru/1024", 282.18),
    ("fill/evict_lowest_priority/64", 291.63),
    ("fill/evict_lowest_priority/256", 285.88),
    ("fill/evict_lowest_priority/1024", 286.59),
    ("install_at_capacity/reject/64", 98.09),
    ("install_at_capacity/reject/256", 96.61),
    ("install_at_capacity/reject/1024", 92.77),
    ("install_at_capacity/reject/4096", 94.45),
    ("install_at_capacity/evict_lru/64", 513.43),
    ("install_at_capacity/evict_lru/256", 796.29),
    ("install_at_capacity/evict_lru/1024", 1913.81),
    ("install_at_capacity/evict_lru/4096", 6479.76),
    ("install_at_capacity/evict_lowest_priority/64", 527.25),
    ("install_at_capacity/evict_lowest_priority/256", 809.75),
    ("install_at_capacity/evict_lowest_priority/1024", 1833.64),
    ("install_at_capacity/evict_lowest_priority/4096", 6200.99),
    ("inference_estimate/reject/64", 64.00),
    ("inference_estimate/reject/256", 256.00),
    ("inference_estimate/reject/1024", 1024.00),
    ("inference_estimate/evict_lru/64", 64.00),
    ("inference_estimate/evict_lru/256", 256.00),
    ("inference_estimate/evict_lru/1024", 1024.00),
    ("inference_estimate/evict_lowest_priority/64", 64.00),
    ("inference_estimate/evict_lowest_priority/256", 256.00),
    ("inference_estimate/evict_lowest_priority/1024", 1024.00),
];
const POLICIES: [EvictionPolicy; 3] = [
    EvictionPolicy::Reject,
    EvictionPolicy::EvictLru,
    EvictionPolicy::EvictLowestPriority,
];

fn nth_key(i: usize) -> FlowKey {
    FlowKey {
        in_port: PortNo((i % 48 + 1) as u16),
        dl_src: MacAddr::from_low(i as u64),
        dl_dst: MacAddr::from_low((i * 7) as u64),
        dl_type: 0x0800,
        nw_proto: 6,
        nw_src: i as u32,
        nw_dst: (i * 13) as u32,
        tp_src: (i % 65_535) as u16,
        tp_dst: 80,
        ..FlowKey::default()
    }
}

fn nth_add(i: usize) -> FlowMod {
    FlowMod::add(
        Match::from_flow_key(&nth_key(i)),
        vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
    )
}

fn filled_table(capacity: usize, policy: EvictionPolicy) -> FlowTable {
    let mut t = FlowTable::with_policy(capacity, policy);
    for i in 0..capacity {
        t.apply(&nth_add(i), SimTime::ZERO).expect("table has room");
    }
    t
}

/// Runs the capacity-inference probe against a bounded switch under a
/// Ryu controller and returns the recovered estimate.
fn probe_estimate(capacity: usize, policy: EvictionPolicy) -> Option<usize> {
    let mut sim: Simulation = {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        b.set_table(s1, capacity, policy);
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", ControllerKind::Ryu.instantiate());
        b.control(c1, s1);
        b.build()
    };
    let h1 = sim.node_id("h1").expect("h1 exists");
    sim.schedule_command(
        SimTime::from_secs(10),
        HostCommand::Probe {
            host: h1,
            dst: "10.0.0.2".parse().expect("valid address"),
            fill: capacity as u32,
            gap: SimTime::from_millis(10),
            label: format!("bench capprobe {capacity} {}", policy.name()),
        },
    );
    let horizon = 10 + (2 * capacity as u64 + 20) / 100 + 2;
    sim.run_until(SimTime::from_secs(horizon));
    sim.probe_stats()[0].estimate()
}

fn bench_table_overflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_overflow");
    for policy in POLICIES {
        group.bench_with_input(
            BenchmarkId::new("install_at_capacity", policy.name()),
            &policy,
            |b, &policy| {
                let mut t = filled_table(1024, policy);
                let mut i = 1024usize;
                b.iter(|| {
                    i += 1;
                    black_box(t.apply(&nth_add(i), SimTime::ZERO).ok());
                });
            },
        );
    }
    group.finish();
}

/// Re-measures every point with the plain wall-clock timer and writes
/// the machine-readable report next to the workspace manifest.
fn emit_report() {
    let mut report = BenchReport::with_baseline("table_overflow", BEFORE);
    for policy in POLICIES {
        for cap in CAPACITIES {
            let ns = timing::measure_ns(|| {
                black_box(filled_table(cap, policy));
            });
            report.record(format!("fill/{}/{cap}", policy.name()), ns / cap as f64);
        }
    }
    for policy in POLICIES {
        for cap in AT_CAPACITY {
            let mut t = filled_table(cap, policy);
            let mut i = cap;
            let ns = timing::measure_ns(|| {
                i += 1;
                black_box(t.apply(&nth_add(i), SimTime::ZERO).ok());
            });
            report.record(format!("install_at_capacity/{}/{cap}", policy.name()), ns);
        }
    }
    for policy in POLICIES {
        for cap in CAPACITIES {
            let estimate = probe_estimate(cap, policy).expect("probe completes") as f64;
            report.record_as(
                format!("inference_estimate/{}/{cap}", policy.name()),
                "entries",
                estimate,
            );
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_table_overflow.json"
    );
    match report.write(path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_table_overflow);

fn main() {
    benches();
    // Keep `cargo test` runs (which pass --test to harness-less bench
    // binaries) fast: the report is a full-measurement artifact.
    if !std::env::args().any(|a| a == "--test") {
        emit_report();
    }
}
