//! Flow-table lookup scaling in the OVS model: classifier cost against
//! table occupancy (an ablation for the simulator substrate's
//! fidelity/performance trade-off).
//!
//! Three sweeps:
//!
//! * `lookup_miss` — a packet matching nothing in a table of
//!   exact-match entries: one hash probe of the one subtable.
//! * `lookup_hit_exact` — a packet hitting an installed exact-match
//!   entry, the table-occupancy sweep (64 → 10k).
//! * `lookup_hit_wild` — a packet hitting a prefix route in a table of
//!   prefix routes: `one_mask` is a spine's table (every route a `/24`
//!   at one priority), `three_masks` a leaf's (`/32`, `/24` and `/16`
//!   routes at descending priorities, the packet hitting a `/16`). The
//!   cost follows the number of masks, not the number of routes.
//!
//! Besides the interactive criterion output, a full run (not under
//! `cargo test`) writes `BENCH_flow_table.json` at the workspace root:
//! every point as measured on the commit before the tuple-space
//! classifier ([`BEFORE`], a priority-sorted linear wildcard tier) and
//! on this build.

use attain_bench::{timing, BenchReport};
use attain_netsim::{FlowTable, SimTime};
use attain_openflow::{packet, Action, FlowKey, FlowMod, MacAddr, Match, PortNo, Wildcards};
use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::net::Ipv4Addr;

const MISS_SIZES: [usize; 4] = [16, 128, 1024, 10_240];
const HIT_SIZES: [usize; 4] = [64, 1024, 4096, 10_240];
const WILD_SIZES: [usize; 3] = [16, 128, 1024];
const WILD_SHAPES: [(&str, usize); 2] = [("one_mask", 1), ("three_masks", 3)];

/// Every row as measured by this file on the parent commit.
const BEFORE: &[(&str, f64)] = &[
    ("lookup_miss/16", 98.76),
    ("lookup_miss/128", 79.64),
    ("lookup_miss/1024", 78.93),
    ("lookup_miss/10240", 82.06),
    ("lookup_hit_exact/64", 89.10),
    ("lookup_hit_exact/1024", 89.57),
    ("lookup_hit_exact/4096", 88.54),
    ("lookup_hit_exact/10240", 89.18),
    ("lookup_hit_wild/one_mask/16", 28.47),
    ("lookup_hit_wild/one_mask/128", 121.86),
    ("lookup_hit_wild/one_mask/1024", 1260.02),
    ("lookup_hit_wild/three_masks/16", 35.70),
    ("lookup_hit_wild/three_masks/128", 195.26),
    ("lookup_hit_wild/three_masks/1024", 2237.36),
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

fn filled_table(entries: usize) -> FlowTable {
    let mut t = FlowTable::new(entries.max(1024));
    for i in 0..entries {
        let fm = FlowMod::add(
            Match::from_flow_key(&nth_key(i)),
            vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
        );
        t.apply(&fm, SimTime::ZERO).expect("table has room");
    }
    t
}

/// A table of `n` IPv4 destination-prefix routes spread evenly over
/// `masks` prefix lengths (at descending priorities), and a packet that
/// hits the middle route of the shortest prefix in use.
fn wild_table(n: usize, masks: usize) -> (FlowTable, FlowKey) {
    let route = |i: usize| {
        let prefix = if masks == 1 {
            24
        } else {
            [32, 24, 16][i % masks]
        };
        let j = i / masks;
        let (a, b) = ((j / 250) as u8, (j % 250) as u8);
        let ip = match prefix {
            32 => Ipv4Addr::new(10, a, b, 2),
            24 => Ipv4Addr::new(10, a, b, 0),
            _ => Ipv4Addr::new(20 + a, b, 0, 0),
        };
        let mut m = Match::all();
        m.wildcards =
            Wildcards(Wildcards::ALL.0 & !Wildcards::DL_TYPE).with_nw_dst_ignored_bits(32 - prefix);
        m.dl_type = 0x0800;
        m.nw_dst = u32::from(ip);
        FlowMod {
            priority: prefix as u16,
            ..FlowMod::add(
                m,
                vec![Action::Output {
                    port: PortNo(2),
                    max_len: 0,
                }],
            )
        }
    };
    let mut t = FlowTable::new(n.max(1024));
    for i in 0..n {
        t.apply(&route(i), SimTime::ZERO).expect("table has room");
    }
    let target = route(n / 2 / masks * masks + masks - 1).r#match;
    let key = FlowKey {
        dl_type: 0x0800,
        nw_dst: target.nw_dst | 9,
        ..nth_key(7)
    };
    assert!(target.matches(&key), "the key hits its route");
    (t, key)
}

fn miss_key() -> FlowKey {
    // A flow no installed entry admits: the worst case every packet of a
    // new flow pays.
    let miss_frame = packet::tcp_segment(
        MacAddr::from_low(0xdead),
        MacAddr::from_low(0xbeef),
        "192.168.9.9".parse().unwrap(),
        "192.168.9.10".parse().unwrap(),
        9999,
        443,
        1,
        1,
        packet::TcpFlags::SYN,
        vec![],
    )
    .encode();
    packet::flow_key(&miss_frame, PortNo(47))
}

fn bench_flow_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_table");
    let miss = miss_key();
    for &n in &MISS_SIZES {
        group.bench_with_input(BenchmarkId::new("lookup_miss", n), &n, |b, &n| {
            let mut t = filled_table(n);
            b.iter(|| t.lookup(black_box(&miss), 64, SimTime::ZERO));
        });
    }
    for &n in &HIT_SIZES {
        group.bench_with_input(BenchmarkId::new("lookup_hit_exact", n), &n, |b, &n| {
            let mut t = filled_table(n);
            let key = nth_key(n / 2);
            b.iter(|| t.lookup(black_box(&key), 64, SimTime::ZERO));
        });
    }
    for (shape, masks) in WILD_SHAPES {
        let name = format!("lookup_hit_wild/{shape}");
        for &n in &WILD_SIZES {
            group.bench_with_input(BenchmarkId::new(&name, n), &n, |b, &n| {
                let (mut t, key) = wild_table(n, masks);
                b.iter(|| t.lookup(black_box(&key), 64, SimTime::ZERO));
            });
        }
    }
    group.finish();
}

/// Re-measures every point with the plain wall-clock timer and writes
/// the machine-readable report next to the workspace manifest.
fn emit_report() {
    let mut report = BenchReport::with_baseline("flow_table", BEFORE);
    let miss = miss_key();
    for &n in &MISS_SIZES {
        let mut t = filled_table(n);
        let ns = timing::measure_ns(|| {
            black_box(t.lookup(black_box(&miss), 64, SimTime::ZERO));
        });
        report.record(format!("lookup_miss/{n}"), ns);
    }
    for &n in &HIT_SIZES {
        let mut t = filled_table(n);
        let key = nth_key(n / 2);
        let ns = timing::measure_ns(|| {
            black_box(t.lookup(black_box(&key), 64, SimTime::ZERO));
        });
        report.record(format!("lookup_hit_exact/{n}"), ns);
    }
    for (shape, masks) in WILD_SHAPES {
        for &n in &WILD_SIZES {
            let (mut t, key) = wild_table(n, masks);
            let ns = timing::measure_ns(|| {
                black_box(t.lookup(black_box(&key), 64, SimTime::ZERO));
            });
            report.record(format!("lookup_hit_wild/{shape}/{n}"), ns);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow_table.json");
    match report.write(path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_flow_table);

fn main() {
    benches();
    // Keep `cargo test` runs (which pass --test to harness-less bench
    // binaries) fast: the report is a full-measurement artifact.
    if !std::env::args().any(|a| a == "--test") {
        emit_report();
    }
}
