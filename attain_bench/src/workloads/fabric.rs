//! `fabric_large`: the leaf-spine row of `BENCH_scalability.json`
//! unchanged — 24 spines × 1,000 leaves × 32 hosts with proactive
//! prefix routes and 100,000 hotspot ping flows of five echoes, counters
//! only, default scheduler, to a 12 s horizon.
//!
//! There is no controller here, so no codec, executor or trace record:
//! the event queue at ~100k pending, wildcard flow lookups, links and
//! host applications, on a working set far larger than the caches. A
//! gain on the control path must not show here, and the reverse.

use crate::alloc;
use crate::layers;
use crate::run::{
    fastest_composite, repeat_for, run_sliced, Ctx, Outcome, SetupClock, PINNED_SEED,
};
use crate::spans::{Recorder, SpanId};
use attain::netsim::topo::{
    fat_tree, install_fat_tree_routes, install_leaf_spine_routes, leaf_spine, FatTreeParams,
    LeafSpineParams, Topology,
};
use attain::netsim::workload::{FlowKind, TrafficMatrix, TrafficPattern};
use attain::netsim::{
    DetRng, HaltReason, NetworkBuilder, SimTime, Simulation, TraceDigest, TraceMode,
};
use attain::openflow::FlowKey;

/// A fabric and the traffic matrix sized for it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    fabric: Fabric,
    flows: usize,
    mean_gap_us: u64,
    horizon_s: u64,
}

#[derive(Debug, Clone, Copy)]
enum Fabric {
    FatTree {
        k: usize,
    },
    LeafSpine {
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    },
}

pub const FULL: Shape = Shape {
    fabric: Fabric::LeafSpine {
        spines: 24,
        leaves: 1_000,
        hosts_per_leaf: 32,
    },
    flows: 100_000,
    mean_gap_us: 20,
    horizon_s: 12,
};
/// The sweep's fat-tree k=8 row: fills caches and lazy state cheaply.
const WARMUP: Shape = Shape {
    fabric: Fabric::FatTree { k: 8 },
    flows: 1_000,
    mean_gap_us: 500,
    horizon_s: 10,
};
const ECHOES: u32 = 5;

/// Exact counts of the full shape at [`PINNED_SEED`], as checked in to
/// `BENCH_scalability.json`.
const PINNED_EVENTS: u64 = 4_609_222;
const PINNED_PINGS: u64 = 500_000;

/// Host milliseconds each set-up step took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupMs {
    build: f64,
    routes: f64,
    apply: f64,
}

/// Builds the fabric, installs its routes and schedules the matrix,
/// each step a span under `parent`.
fn build(
    shape: Shape,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> (Simulation, Topology, SetupMs) {
    let ((mut sim, topo), build) = rec.time_ms("build", parent, || {
        let mut b = NetworkBuilder::new();
        let topo = match shape.fabric {
            Fabric::FatTree { k } => fat_tree(&mut b, &FatTreeParams::new(k)),
            Fabric::LeafSpine {
                spines,
                leaves,
                hosts_per_leaf,
            } => leaf_spine(
                &mut b,
                &LeafSpineParams::new(spines, leaves, hosts_per_leaf),
            ),
        }
        .expect("the shapes are valid");
        (b.build(), topo)
    });
    let (_, routes) = rec.time_ms("routes", parent, || match shape.fabric {
        Fabric::FatTree { .. } => install_fat_tree_routes(&mut sim, &topo),
        Fabric::LeafSpine { .. } => install_leaf_spine_routes(&mut sim, &topo),
    });
    sim.set_trace_mode(TraceMode::Counters);
    let (_, apply) = rec.time_ms("schedule", parent, || {
        TrafficMatrix {
            mean_gap: SimTime::from_micros(shape.mean_gap_us),
            kind: FlowKind::Ping {
                count: ECHOES,
                interval: SimTime::from_secs(1),
            },
            ..TrafficMatrix::new(shape.flows, seed)
        }
        .with_pattern(TrafficPattern::Hotspot {
            hotspots: 8,
            bias_pct: 30,
        })
        .apply(&mut sim, &topo);
    });
    let ms = SetupMs {
        build,
        routes,
        apply,
    };
    (sim, topo, ms)
}

/// What one repetition did.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub wall_s: f64,
    /// Host seconds of each step of virtual time (see `run_sliced`).
    pub slices: Vec<f64>,
    pub halt: HaltReason,
    pub events: u64,
    pub digest: TraceDigest,
    pub pings_sent: u64,
    pub pings_answered: u64,
    pub peak_pending: usize,
}

impl Rep {
    fn simulated(&self) -> (u64, TraceDigest, u64, u64, usize) {
        (
            self.events,
            self.digest,
            self.pings_sent,
            self.pings_answered,
            self.peak_pending,
        )
    }
}

fn run(sim: &mut Simulation, shape: Shape) -> Rep {
    let (halt, slices) = run_sliced(sim, SimTime::from_secs(shape.horizon_s));
    let pings = sim.ping_stats();
    Rep {
        wall_s: slices.iter().sum(),
        slices,
        halt,
        events: sim.events_dispatched(),
        digest: sim.trace().digest(),
        pings_sent: pings.iter().map(|p| u64::from(p.transmitted())).sum(),
        pings_answered: pings.iter().map(|p| u64::from(p.received())).sum(),
        peak_pending: sim.peak_pending_events(),
    }
}

/// One whole repetition of `shape`, its set-up under span `parent`.
fn rep(shape: Shape, seed: u64, rec: &mut Recorder, parent: Option<SpanId>) -> Rep {
    let (mut sim, _, _) = build(shape, seed, rec, parent);
    run(&mut sim, shape)
}

fn check(seed: u64, reps: &[Rep], out: &mut Outcome) {
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        out.require_eq(&format!("rep {i} halt"), r.halt, HaltReason::Horizon);
        out.require(r.simulated() == first.simulated(), || {
            format!(
                "rep {i} simulated counts differ from rep 0: {:?} vs {:?}",
                r.simulated(),
                first.simulated()
            )
        });
        out.require_eq(
            &format!("rep {i} pings sent"),
            r.pings_sent,
            FULL.flows as u64 * u64::from(ECHOES),
        );
        out.attempted += r.pings_sent;
        out.failed += r.pings_sent - r.pings_answered;
    }
    if seed == PINNED_SEED {
        out.require_eq("events at the pinned seed", first.events, PINNED_EVENTS);
        out.require_eq(
            "pings answered at the pinned seed",
            first.pings_answered,
            PINNED_PINGS,
        );
    }
    out.note(format!(
        "per rep: {} events, {}/{} pings answered, peak {} pending events, counter digest {}",
        first.events, first.pings_answered, first.pings_sent, first.peak_pending, first.digest
    ));
}

/// The workload's entry point.
pub fn workload(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        let setup = ctx.rec.open_at("setup", None, ctx.start);
        let warmup = ctx.rec.open("warmup", Some(setup));
        rep(WARMUP, ctx.seed, &mut ctx.rec, Some(warmup));
        ctx.rec.close(warmup);
        traced(ctx, setup, &mut out);
    } else {
        untraced(ctx, &mut out);
    }
    out
}

fn untraced(ctx: &mut Ctx, out: &mut Outcome) {
    let mut clock = SetupClock::begin(ctx.start);
    clock.warm_up(|| {
        rep(WARMUP, ctx.seed, &mut ctx.rec, None);
    });
    let mut reps: Vec<Rep> = Vec::new();
    repeat_for(ctx.seconds, |i| {
        let mut sim = clock.build(|| build(FULL, ctx.seed, &mut ctx.rec, None).0);
        reps.push(run(&mut sim, FULL));
        if i == 0 {
            out.sample_peak_rss();
        }
    });
    out.set("setup_s", clock.setup_s());
    clock.note(out);
    check(ctx.seed, &reps, out);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall = fastest_composite(reps.iter().map(|r| &r.slices));
    let events_per_s = reps[0].events as f64 / wall;
    out.set("work_per_s", events_per_s);
    out.set("unit_us", wall * 1e6 / reps[0].pings_answered as f64);
    out.note_timing("run_until wall", "s", &walls);
    out.note(format!(
        "work_per_s = events_per_s = {events_per_s:.0} simulated events per host second"
    ));
    out.note("unit_us = host us per answered ping echo (there is no control plane here)".into());
}

fn traced(ctx: &mut Ctx, setup: SpanId, out: &mut Outcome) {
    let rec = &mut ctx.rec;
    let (mut plain, topo, ms) = build(FULL, ctx.seed, rec, Some(setup));
    rec.close(setup);
    let untraced_rep = run(&mut plain, FULL);
    drop(plain);

    // No interposer or controller to wrap: the traced repetition is
    // the same run with allocations counted.
    let rebuild = rec.open("rebuild", None);
    let (mut sim, _, _) = build(FULL, ctx.seed, rec, Some(rebuild));
    rec.close(rebuild);
    let run_span = rec.open("run", None);
    let (traced_rep, allocs, _) = alloc::count(|| run(&mut sim, FULL));
    rec.close(run_span);
    check(ctx.seed, &[untraced_rep.clone(), traced_rep.clone()], out);

    let collect = rec.open("collect", None);
    let (_, digest_ms) = rec.time_ms("digest", Some(collect), || sim.trace().digest());
    rec.close(collect);

    let pop_push_ns = rec.time("replay.netsim.engine", None, || {
        layers::queue_pop_push_ns(traced_rep.peak_pending)
    });
    // A leaf's table (one /32 per local host, its own /24, the /8
    // up-route) looked up with destinations drawn like the matrix's.
    let leaf = sim.switch("lsl0").flow_table();
    let mut table = layers::copy_table(leaf.entries(), leaf.capacity());
    let mut rng = DetRng::new(ctx.seed);
    let keys: Vec<FlowKey> = (0..4096)
        .map(|_| {
            let mut host = || topo.hosts[rng.next_u64() as usize % topo.hosts.len()].ip;
            FlowKey {
                dl_type: 0x0800,
                nw_proto: 1,
                nw_src: u32::from(host()),
                nw_dst: u32::from(host()),
                ..FlowKey::default()
            }
        })
        .collect();
    let lookup_ns = rec.time("replay.netsim.flow_table", None, || {
        layers::table_lookup_ns(&mut table, &keys)
    });
    let push_counters_ns = rec.time("replay.netsim.trace.counters", None, || {
        layers::trace_push_ns(TraceMode::Counters)
    });

    let switch_names = (0..24)
        .map(|i| format!("lss{i}"))
        .chain((0..1_000).map(|i| format!("lsl{i}")));
    let lookups: u64 = switch_names
        .map(|name| sim.switch(&name).flow_table().lookup_count)
        .sum();
    let wall_ns = traced_rep.wall_s * 1e9;
    let events = traced_rep.events as f64;
    let attributed = pop_push_ns * events + lookup_ns * lookups as f64;

    out.set("netsim.engine.events", events);
    out.set("netsim.engine.peak_pending", traced_rep.peak_pending as f64);
    out.set("netsim.engine.pop_push_ns", pop_push_ns);
    out.set("netsim.flow_table.lookup_ns", lookup_ns);
    out.set("netsim.trace.push_counters_ns", push_counters_ns);
    out.set("netsim.trace.digest_ms", digest_ms);
    out.set("netsim.topo.build_ms", ms.build);
    out.set("netsim.topo.routes_ms", ms.routes);
    out.set("netsim.workload.apply_ms", ms.apply);
    out.set("netsim.sim.ns_per_event", wall_ns / events);
    out.set("netsim.sim.allocs_per_event", allocs as f64 / events);
    out.set("netsim.sim.unattributed_share", 1.0 - attributed / wall_ns);
    out.set("trace_overhead", traced_rep.wall_s / untraced_rep.wall_s);
    out.note(format!(
        "traced rep {:.3} s against {:.3} s untraced; {lookups} table lookups",
        traced_rep.wall_s, untraced_rep.wall_s
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const TINY: Shape = Shape {
        fabric: Fabric::LeafSpine {
            spines: 2,
            leaves: 4,
            hosts_per_leaf: 4,
        },
        flows: 64,
        mean_gap_us: 1_000,
        horizon_s: 8,
    };

    fn tiny(seed: u64) -> Rep {
        rep(TINY, seed, &mut Recorder::new("test", Instant::now()), None)
    }

    #[test]
    fn repetitions_of_one_seed_are_identical_and_lose_nothing() {
        let (a, b) = (tiny(7), tiny(7));
        assert_eq!(a.halt, HaltReason::Horizon);
        assert_eq!(a.simulated(), b.simulated());
        assert_eq!(a.pings_sent, 64 * u64::from(ECHOES));
        assert_eq!(a.pings_answered, a.pings_sent);
    }

    #[test]
    fn the_seed_is_the_matrix_seed() {
        assert_ne!(tiny(7).events, tiny(8).events);
    }
}
