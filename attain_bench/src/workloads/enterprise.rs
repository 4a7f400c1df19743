//! `ctrl_path` and `table_churn`: the paper's §VII enterprise network
//! (six hosts, four switches, one controller behind the DMZ firewall)
//! with an attack interposed on every control connection.
//!
//! `ctrl_path` runs a flooding hub, so no flow is ever installed and
//! every data packet becomes PACKET_IN → executor → controller →
//! PACKET_OUT at every hop: the steady-state message path with a tiny
//! flow table and event queue. `table_churn` runs Ryu's permanent
//! flows against 1024-entry LRU tables under a spoofed-source fill, so
//! the same path also writes the flow table at capacity and every
//! install evicts.

use crate::alloc;
use crate::layers;
use crate::run::{
    fastest_composite, repeat_for, run_sliced, Ctx, Outcome, SetupClock, PINNED_SEED,
};
use crate::shims::{lock, ControllerLog, InterposerLog, TimedController, TimedInterposer};
use crate::spans::SpanId;
use attain::controllers::ControllerKind;
use attain::core::exec::AttackExecutor;
use attain::core::{dsl, scenario};
use attain::injector::harness::{build_case_study, case_study_controller};
use attain::injector::SimInjector;
use attain::netsim::{
    DetRng, EvictionPolicy, FailMode, HaltReason, HostCommand, NetworkBuilder, SimTime, Simulation,
    TraceDigest, TraceMode,
};
use attain::openflow::{frame_decode_count, FlowKey};
use std::sync::{Arc, Mutex};

const SWITCHES: [&str; 4] = ["s1", "s2", "s3", "s4"];

/// Which of the two workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CtrlPath,
    TableChurn,
}

/// How much traffic one repetition carries.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `ctrl_path`: echoes per ping train.
    pub echoes: u32,
    /// `table_churn`: spoofed flows in the probe's fill phase.
    pub fill: u32,
}

pub const FULL: Size = Size {
    echoes: 10_000,
    fill: 30_000,
};
const WARMUP: Size = Size {
    echoes: 3_000,
    fill: 3_000,
};

/// `ctrl_path`'s ping trains: source host, destination host, and
/// whether the DMZ policy lets the echoes through. h2 is an untrusted
/// external source, so its requests toward h3 and its replies toward
/// h4 die at the firewall switch.
const TRAINS: [(u8, u8, bool); 6] = [
    (1, 6, true),
    (2, 3, false),
    (3, 5, true),
    (6, 1, true),
    (4, 2, false),
    (5, 4, true),
];
const ECHO_INTERVAL_MS: u64 = 50;
const PROBE_GAP_MS: u64 = 20;
const TABLE_CAPACITY: usize = 1024;

/// Exact counts of one full-size repetition at [`PINNED_SEED`].
struct Pins {
    events: u64,
    ctrl_msgs: u64,
    evictions: u64,
}

impl Kind {
    fn controller(self) -> ControllerKind {
        match self {
            Kind::CtrlPath => ControllerKind::Hub,
            Kind::TableChurn => ControllerKind::Ryu,
        }
    }

    /// `message_history` waits in `sigma2` for a FLOW_MOD the hub never
    /// sends, so it evaluates one live rule per message and passes it.
    fn attack(self) -> &'static str {
        match self {
            Kind::CtrlPath => scenario::attacks::MESSAGE_HISTORY,
            Kind::TableChurn => scenario::attacks::TRIVIAL_PASS,
        }
    }

    fn pins(self) -> Pins {
        match self {
            Kind::CtrlPath => Pins {
                events: 2_502_572,
                ctrl_msgs: 790_100,
                evictions: 0,
            },
            Kind::TableChurn => Pins {
                events: 1_854_858,
                ctrl_msgs: 714_696,
                evictions: 235_908,
            },
        }
    }
}

/// What one repetition did: exact simulated counts plus host time.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub wall_s: f64,
    /// Host seconds of each step of virtual time (see `run_sliced`).
    pub slices: Vec<f64>,
    pub halt: HaltReason,
    pub events: u64,
    pub ctrl_msgs: u64,
    /// The full trace's digest, where it was taken: rendering ~800,000
    /// trace records costs half a repetition, so an untraced run
    /// digests its first two repetitions and compares the rest by
    /// their counts.
    pub digest: Option<TraceDigest>,
    pub evictions: u64,
    pub lookups: u64,
    pub peak_pending: usize,
    /// Operations checked against their expected outcome, and how many
    /// missed it.
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    /// The simulated counts, which must repeat exactly.
    fn simulated(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.events,
            self.ctrl_msgs,
            self.evictions,
            self.lookups,
            self.attempted,
            self.failed,
        )
    }
}

/// The timing shims' logs of one traced repetition.
pub struct Shims {
    interposer: Arc<Mutex<InterposerLog>>,
    controller: Arc<Mutex<ControllerLog>>,
}

/// `harness::build_case_study` with the controller wrapped in a timing
/// shim: the same nodes, link order and control connections, so the
/// run's digest equals the unwrapped one (the traced run checks it).
fn build_shimmed(kind: ControllerKind) -> (Simulation, Arc<Mutex<ControllerLog>>) {
    let (controller, log) = TimedController::new(case_study_controller(kind));
    let mut b = NetworkBuilder::new();
    let h: Vec<_> = (1..=6)
        .map(|i| b.host(&format!("h{i}"), &format!("10.0.0.{i}")))
        .collect();
    let s1 = b.switch("s1");
    let s2 = b.switch_with_mode("s2", FailMode::Secure);
    let s3 = b.switch("s3");
    let s4 = b.switch("s4");
    for (a, z) in [
        (h[0], s1),
        (h[1], s1),
        (s1, s2),
        (s2, s3),
        (h[2], s3),
        (h[3], s3),
        (s3, s4),
        (h[4], s4),
        (h[5], s4),
    ] {
        b.link(a, z);
    }
    let c1 = b.controller("c1", Box::new(controller));
    for s in [s1, s2, s3, s4] {
        b.control(c1, s);
    }
    (b.build(), log)
}

/// Compiles the workload's attack and interposes it, optionally behind
/// a timing shim (what `harness::attach_attack` does, plus the shim).
fn attach(sim: &mut Simulation, source: &str, shim: bool) -> Option<Arc<Mutex<InterposerLog>>> {
    let sc = scenario::enterprise_network();
    let compiled =
        dsl::compile(source, &sc.system, &sc.attack_model).expect("shipped attacks compile");
    let exec = AttackExecutor::new(sc.system.clone(), sc.attack_model, compiled.attack)
        .expect("shipped attacks validate");
    let (injector, _handle) = SimInjector::new(exec, &sc.system, sim);
    if shim {
        let (timed, log) = TimedInterposer::new(Box::new(injector));
        sim.set_interposer(Box::new(timed));
        Some(log)
    } else {
        sim.set_interposer(Box::new(injector));
        None
    }
}

/// Schedules the workload's traffic; `seed` jitters only its start
/// offsets. Returns the horizon.
fn schedule(kind: Kind, sim: &mut Simulation, size: Size, seed: u64) -> SimTime {
    let mut rng = DetRng::new(seed);
    let mut start = || SimTime::from_micros(1_000_000 + rng.next_u64() % 50_000);
    let node = |sim: &Simulation, host: u8| {
        sim.node_id(&format!("h{host}"))
            .expect("the case study has hosts h1..h6")
    };
    let ip = |host: u8| format!("10.0.0.{host}").parse().expect("a valid address");
    match kind {
        Kind::CtrlPath => {
            for (src, dst, _) in TRAINS {
                sim.schedule_command(
                    start(),
                    HostCommand::Ping {
                        host: node(sim, src),
                        dst: ip(dst),
                        count: size.echoes,
                        interval: SimTime::from_millis(ECHO_INTERVAL_MS),
                        label: format!("h{src}->h{dst}"),
                    },
                );
            }
            SimTime::from_millis(1_100 + (u64::from(size.echoes) + 40) * ECHO_INTERVAL_MS)
        }
        Kind::TableChurn => {
            sim.schedule_command(
                start(),
                HostCommand::Probe {
                    host: node(sim, 3),
                    dst: ip(6),
                    fill: size.fill,
                    gap: SimTime::from_millis(PROBE_GAP_MS),
                    label: "churn".into(),
                },
            );
            // Warmup, fill, settle and the reverse sweep, with slack.
            SimTime::from_millis(1_100 + (2 * u64::from(size.fill) + 200) * PROBE_GAP_MS)
        }
    }
}

/// Builds one repetition's simulation, ready to run.
fn build(kind: Kind, size: Size, seed: u64, shimmed: bool) -> (Simulation, SimTime, Option<Shims>) {
    let (mut sim, controller) = if shimmed {
        let (sim, log) = build_shimmed(kind.controller());
        (sim, Some(log))
    } else {
        (build_case_study(kind.controller(), FailMode::Secure), None)
    };
    if kind == Kind::TableChurn {
        for s in SWITCHES {
            sim.set_table_config(s, TABLE_CAPACITY, EvictionPolicy::EvictLru);
        }
    }
    sim.set_trace_mode(TraceMode::Full);
    let interposer = attach(&mut sim, kind.attack(), shimmed);
    let horizon = schedule(kind, &mut sim, size, seed);
    let shims = interposer
        .zip(controller)
        .map(|(interposer, controller)| Shims {
            interposer,
            controller,
        });
    (sim, horizon, shims)
}

/// Checks every operation's outcome: pings answered exactly where the
/// DMZ policy allows, or every sweep probe answered.
fn judge(kind: Kind, sim: &Simulation, size: Size) -> (u64, u64) {
    match kind {
        Kind::CtrlPath => {
            let stats = sim.ping_stats();
            let mut failed = 0u64;
            for (src, dst, allowed) in TRAINS {
                let label = format!("h{src}->h{dst}");
                let want = if allowed { size.echoes } else { 0 };
                failed += match stats.iter().find(|s| s.label == label) {
                    Some(s) => u64::from(s.received().abs_diff(want)),
                    None => u64::from(size.echoes),
                };
            }
            (u64::from(size.echoes) * TRAINS.len() as u64, failed)
        }
        Kind::TableChurn => {
            let attempted = u64::from(size.fill);
            let failed = match sim.probe_stats().first() {
                Some(p) if p.is_done() => {
                    p.sweep_rtts_ms().iter().filter(|r| r.is_none()).count() as u64
                }
                _ => attempted,
            };
            (attempted, failed)
        }
    }
}

/// Runs `sim` to `horizon` and collects the repetition's results.
fn run(kind: Kind, sim: &mut Simulation, horizon: SimTime, size: Size, digest: bool) -> Rep {
    let (halt, slices) = run_sliced(sim, horizon);
    let (attempted, failed) = judge(kind, sim, size);
    let tables = || SWITCHES.iter().map(|s| sim.switch(s).flow_table());
    Rep {
        wall_s: slices.iter().sum(),
        slices,
        halt,
        events: sim.events_dispatched(),
        ctrl_msgs: sim.trace().control_message_total(),
        digest: digest.then(|| sim.trace().digest()),
        evictions: tables().map(|t| t.eviction_count).sum(),
        lookups: tables().map(|t| t.lookup_count).sum(),
        peak_pending: sim.peak_pending_events(),
        attempted,
        failed,
    }
}

/// One whole repetition, for callers that need no access to the
/// simulation afterwards.
pub fn rep(kind: Kind, size: Size, seed: u64) -> Rep {
    let (mut sim, horizon, _) = build(kind, size, seed, false);
    run(kind, &mut sim, horizon, size, true)
}

/// Gates shared by the traced and untraced runs.
fn check(kind: Kind, seed: u64, reps: &[Rep], out: &mut Outcome) {
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
        if let Some(digest) = r.digest {
            out.require_eq(&format!("rep {i} trace digest"), Some(digest), first.digest);
        }
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    if kind == Kind::TableChurn {
        out.require(first.evictions > 0, || "no install evicted".into());
    }
    if seed == PINNED_SEED {
        let pins = kind.pins();
        out.require_eq("events at the pinned seed", first.events, pins.events);
        out.require_eq(
            "control messages at the pinned seed",
            first.ctrl_msgs,
            pins.ctrl_msgs,
        );
        out.require_eq(
            "evictions at the pinned seed",
            first.evictions,
            pins.evictions,
        );
    }
    out.note(format!(
        "per rep: {} events, {} control messages, {} evictions, {} table lookups, digest {}, {}/{} operations as expected",
        first.events,
        first.ctrl_msgs,
        first.evictions,
        first.lookups,
        first.digest.map_or("not taken".to_string(), |d| d.to_string()),
        first.attempted - first.failed,
        first.attempted
    ));
}

/// The workload's entry point.
pub fn workload(kind: Kind, ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        let setup = ctx.rec.open_at("setup", None, ctx.start);
        ctx.rec.time("warmup", Some(setup), || {
            rep(kind, WARMUP, ctx.seed);
        });
        traced(kind, ctx, setup, &mut out);
    } else {
        untraced(kind, ctx, &mut out);
    }
    out
}

fn untraced(kind: Kind, ctx: &mut Ctx, out: &mut Outcome) {
    let mut clock = SetupClock::begin(ctx.start);
    clock.warm_up(|| {
        rep(kind, WARMUP, ctx.seed);
    });
    let mut reps: Vec<Rep> = Vec::new();
    repeat_for(ctx.seconds, |i| {
        let (mut sim, horizon, _) = clock.build(|| build(kind, FULL, ctx.seed, false));
        reps.push(run(kind, &mut sim, horizon, FULL, i < 2));
        if i == 0 {
            out.sample_peak_rss();
        }
    });
    out.set("setup_s", clock.setup_s());
    clock.note(out);
    check(kind, ctx.seed, &reps, out);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall = fastest_composite(reps.iter().map(|r| &r.slices));
    let events_per_s = reps[0].events as f64 / wall;
    let ctrl_msgs_per_s = reps[0].ctrl_msgs as f64 / wall;
    out.set("work_per_s", events_per_s);
    out.set("unit_us", 1e6 / ctrl_msgs_per_s);
    out.note_timing("run_until wall", "s", &walls);
    out.note(format!(
        "work_per_s = events_per_s = {events_per_s:.0} simulated events per host second"
    ));
    out.note(format!(
        "unit_us = host us per control message; ctrl_msgs_per_s = {ctrl_msgs_per_s:.0}"
    ));
}

fn traced(kind: Kind, ctx: &mut Ctx, setup: SpanId, out: &mut Outcome) {
    let rec = &mut ctx.rec;
    // Set-up, one step per span. The compile is repeated on its own so
    // that it has a span; `build` below compiles again inside `attach`.
    let sc = scenario::enterprise_network();
    rec.time("compile", Some(setup), || {
        dsl::compile(kind.attack(), &sc.system, &sc.attack_model).expect("shipped attacks compile")
    });
    let ((mut plain, horizon, _), build_ms) =
        rec.time_ms("build", Some(setup), || build(kind, FULL, ctx.seed, false));
    // `build` already scheduled; the same calls are timed on a scratch
    // network so that the span stands for the scheduling alone.
    let mut scratch = build_case_study(kind.controller(), FailMode::Secure);
    let (_, apply_ms) = rec.time_ms("schedule", Some(setup), || {
        schedule(kind, &mut scratch, FULL, ctx.seed);
    });
    drop(scratch);
    rec.close(setup);

    // The reference repetition, without shims.
    let untraced_rep = run(kind, &mut plain, horizon, FULL, true);
    drop(plain);

    // The traced repetition: shims on, allocations and decodes counted.
    let (mut sim, horizon, shims) = build(kind, FULL, ctx.seed, true);
    let shims = shims.expect("a shimmed build returns its logs");
    let run_span = rec.open("run", None);
    let decodes_before = frame_decode_count();
    let (traced_rep, allocs, alloc_bytes) =
        alloc::count(|| run(kind, &mut sim, horizon, FULL, false));
    let decodes = frame_decode_count() - decodes_before;
    rec.close(run_span);
    let wall_ns = traced_rep.wall_s * 1e9;
    let interposer = lock(&shims.interposer);
    let controller = lock(&shims.controller);
    rec.aggregate("interposer.on_message", run_span, &interposer.on_message);
    let controller_calls = [
        ("controller.on_packet_in", &controller.on_packet_in),
        (
            "controller.on_switch_connect",
            &controller.on_switch_connect,
        ),
        ("controller.on_message", &controller.on_message),
    ];
    for (name, calls) in controller_calls {
        rec.aggregate(name, run_span, calls);
    }
    let controller_busy: u64 = controller_calls.iter().map(|(_, c)| c.busy_ns).sum();

    check(
        kind,
        ctx.seed,
        &[untraced_rep.clone(), traced_rep.clone()],
        out,
    );

    let collect = rec.open("collect", None);
    let (digest, digest_ms) = rec.time_ms("digest", Some(collect), || sim.trace().digest());
    rec.close(collect);
    out.require_eq(
        "digest of the shimmed run",
        Some(digest),
        untraced_rep.digest,
    );

    // Layer drives on this workload's own inputs.
    let conns = layers::conn_map(&sim, &sc.system);
    let inputs = layers::exec_inputs(&interposer.tapped, &conns);
    let (decode_ns, encode_ns) = rec.time("replay.openflow.codec", None, || {
        layers::codec_ns(&interposer.tapped)
    });
    let (exec_ns, exec_allocs) = rec.time("replay.core.exec", None, || {
        layers::exec_replay(kind.attack(), &inputs)
    });
    let pop_push_ns = rec.time("replay.netsim.engine", None, || {
        layers::queue_pop_push_ns(traced_rep.peak_pending)
    });
    // The busiest switch's table, looked up with keys its own entries
    // admit (an empty table is looked up with a key that misses).
    let busiest = SWITCHES
        .iter()
        .map(|s| sim.switch(s).flow_table())
        .max_by_key(|t| t.lookup_count)
        .expect("the case study has switches");
    let mut keys: Vec<FlowKey> = busiest.entries().map(|e| e.r#match.flow_key()).collect();
    if keys.is_empty() {
        keys.push(FlowKey::default());
    }
    let mut table = layers::copy_table(busiest.entries(), busiest.capacity());
    let lookup_ns = rec.time("replay.netsim.flow_table", None, || {
        layers::table_lookup_ns(&mut table, &keys)
    });
    let install_evict_ns = match busiest.entries().next() {
        Some(template) if kind == Kind::TableChurn => {
            rec.time("replay.netsim.flow_table.evict", None, || {
                layers::table_install_evict_ns(template, TABLE_CAPACITY)
            })
        }
        _ => 0.0,
    };
    let push_ns = rec.time("replay.netsim.trace", None, || {
        layers::trace_push_ns(TraceMode::Full)
    });
    let push_counters_ns = rec.time("replay.netsim.trace.counters", None, || {
        layers::trace_push_ns(TraceMode::Counters)
    });

    let msgs = traced_rep.ctrl_msgs as f64;
    let events = traced_rep.events as f64;
    // Host time the measured layers account for: shim-observed busy
    // time where a shim exists, drive cost times the exact operation
    // count elsewhere. Every control message is encoded once where it
    // originates and traced once at the proxy point.
    let attributed = interposer.on_message.busy_ns as f64
        + controller_busy as f64
        + decode_ns * decodes as f64
        + encode_ns * msgs
        + pop_push_ns * events
        + lookup_ns * traced_rep.lookups as f64
        + install_evict_ns * traced_rep.evictions as f64
        + push_ns * msgs;
    out.set("openflow.codec.decode_ns", decode_ns);
    out.set("openflow.codec.encode_ns", encode_ns);
    out.set("openflow.frame.decodes_per_msg", decodes as f64 / msgs);
    out.set("core.exec.on_message_ns", exec_ns);
    out.set("core.exec.allocs_per_msg", exec_allocs);
    out.set(
        "injector.sim.on_message_ns",
        interposer.on_message.ns_per_call(),
    );
    out.set(
        "injector.sim.busy_share",
        interposer.on_message.busy_ns as f64 / wall_ns,
    );
    out.set(
        "controllers.on_packet_in_ns",
        controller.on_packet_in.ns_per_call(),
    );
    out.set("controllers.busy_share", controller_busy as f64 / wall_ns);
    out.set("netsim.engine.events", events);
    out.set("netsim.engine.peak_pending", traced_rep.peak_pending as f64);
    out.set("netsim.engine.pop_push_ns", pop_push_ns);
    out.set("netsim.flow_table.lookup_ns", lookup_ns);
    out.set("netsim.flow_table.install_evict_ns", install_evict_ns);
    out.set("netsim.flow_table.evictions", traced_rep.evictions as f64);
    out.set("netsim.trace.push_ns", push_ns);
    out.set("netsim.trace.push_counters_ns", push_counters_ns);
    out.set("netsim.trace.digest_ms", digest_ms);
    out.set("netsim.topo.build_ms", build_ms);
    out.set("netsim.workload.apply_ms", apply_ms);
    out.set("netsim.sim.ns_per_event", wall_ns / events);
    out.set("netsim.sim.allocs_per_event", allocs as f64 / events);
    out.set("netsim.sim.allocs_per_ctrl_msg", allocs as f64 / msgs);
    out.set(
        "netsim.sim.alloc_bytes_per_ctrl_msg",
        alloc_bytes as f64 / msgs,
    );
    out.set("netsim.sim.unattributed_share", 1.0 - attributed / wall_ns);
    out.set("trace_overhead", traced_rep.wall_s / untraced_rep.wall_s);
    out.note(format!(
        "traced rep {:.3} s against {:.3} s untraced; {} frames tapped for the replays; run self time {:.3} s",
        traced_rep.wall_s,
        untraced_rep.wall_s,
        interposer.tapped.len(),
        rec.self_ns(run_span) as f64 / 1e9
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        echoes: 40,
        fill: 300,
    };

    #[test]
    fn repetitions_of_one_seed_are_identical() {
        for kind in [Kind::CtrlPath, Kind::TableChurn] {
            let (a, b) = (rep(kind, TINY, 7), rep(kind, TINY, 7));
            assert_eq!(a.halt, HaltReason::Horizon);
            assert_eq!(a.simulated(), b.simulated(), "{kind:?}");
            assert_eq!(a.digest, b.digest, "{kind:?}");
            assert_eq!(a.failed, 0, "{kind:?}");
            assert!(a.ctrl_msgs > 0 && a.events > a.ctrl_msgs, "{kind:?}");
        }
    }

    #[test]
    fn the_seed_reaches_the_inputs() {
        let (a, b) = (rep(Kind::CtrlPath, TINY, 7), rep(Kind::CtrlPath, TINY, 8));
        assert_ne!(a.digest, b.digest);
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    }

    #[test]
    fn the_shimmed_network_is_the_case_study_network() {
        for kind in [Kind::CtrlPath, Kind::TableChurn] {
            let plain = rep(kind, TINY, 7);
            let (mut sim, horizon, shims) = build(kind, TINY, 7, true);
            let shimmed = run(kind, &mut sim, horizon, TINY, true);
            assert_eq!(plain.simulated(), shimmed.simulated(), "{kind:?}");
            assert_eq!(plain.digest, shimmed.digest, "{kind:?}");
            let shims = shims.expect("logs");
            assert_eq!(
                lock(&shims.interposer).on_message.count,
                shimmed.ctrl_msgs,
                "{kind:?}"
            );
            assert!(lock(&shims.controller).on_packet_in.count > 0);
        }
    }

    #[test]
    fn churn_evicts_once_the_table_is_full() {
        // 300 spoofed flows install two entries each per switch on the
        // path; nothing is evicted below 1024 entries.
        assert_eq!(rep(Kind::TableChurn, TINY, 7).evictions, 0);
        let over = Size {
            echoes: 0,
            fill: 700,
        };
        assert!(rep(Kind::TableChurn, over, 7).evictions > 0);
    }
}
