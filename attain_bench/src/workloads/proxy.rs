//! `proxy_tcp`: a real `TcpProxy` on the host loopback running the
//! pass-everything attack, one route, one session. The benchmark's
//! single thread owns both the "switch" socket and the accepted
//! "controller" socket, and a direct loopback socket pair as baseline.
//!
//! This is the only wall-clock, multi-threaded path in the repository
//! (reader → executor lock → write queue → writer). Its latency is a
//! chain of thread wake-ups, not processor time. All traffic crosses
//! the loopback interface, never a link: the figures say nothing about
//! wire latency.
//!
//! Phase A is a closed loop of one outstanding 16-byte ECHO_REQUEST,
//! alternating direction, each timed from write to read; the same
//! count is then sent over the direct pair. It runs with the other
//! processor kept awake by a spinning thread (see [`kept_awake`]): on
//! this virtual machine a halted processor's wake-up goes through the
//! hypervisor, costs ~20 us a hop and drifts by a third within the hour
//! (one-way p50 55 -> 80 us), which no bound can contain. Kept awake,
//! the proxy's three thread hand-overs are plain context switches
//! (~12 us one way), and what is left is the proxy's own path. The
//! traced run also measures the idle-machine figure, as layer metrics.
//!
//! Phase B is a closed loop of 64 outstanding messages — a seeded mix
//! of ECHO_REQUEST with PACKET_IN (switch side) or FLOW_MOD (controller
//! side) — alternating direction window by window.

use crate::layers;
use crate::procfs;
use crate::run::{Ctx, Outcome};
use crate::stats::{self, Histogram};
use attain::core::exec::InjectorInput;
use attain::core::model::ConnectionId;
use attain::core::scenario;
use attain::injector::tcp::{ProxyRoute, ShutdownReport, TcpProxy};
use attain::netsim::DetRng;
use attain::openflow::packet::icmp_echo_request;
use attain::openflow::{
    Action, FlowMod, Frame, MacAddr, Match, OfMessage, PacketIn, PacketInReason, PortNo,
};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WINDOW: usize = 64;
/// Proxies spawned per run, each carrying a share of phase A.
const SEGMENTS: usize = 5;
/// Messages sent through a fresh proxy before it is measured.
const WARMUP_MESSAGES: u64 = 20_000;
/// A one-way time below this many microseconds means the scheduler had
/// the proxy's threads already awake on the other processor; the share
/// of such samples shows whether a run was bimodal.
const FAST_US: f64 = 25.0;
/// No message takes this long on a working proxy; a read that does
/// fails the run, so a lost message cannot hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The proxy and the four sockets around it.
struct Rig {
    proxy: TcpProxy,
    switch: TcpStream,
    controller: TcpStream,
    direct_a: TcpStream,
    direct_b: TcpStream,
    /// Connect → first byte through the proxy, in microseconds.
    session_setup_us: f64,
}

fn tuned(sock: TcpStream) -> io::Result<TcpStream> {
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(IO_TIMEOUT))?;
    sock.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(sock)
}

/// Accepts one connection, giving up after [`IO_TIMEOUT`].
fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + IO_TIMEOUT;
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                sock.set_nonblocking(false)?;
                return tuned(sock);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    }
}

fn rig() -> io::Result<Rig> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let proxy = TcpProxy::spawn(
        layers::enterprise_executor(scenario::attacks::TRIVIAL_PASS),
        vec![ProxyRoute {
            listen: "127.0.0.1:0".parse().expect("a valid address"),
            controller: listener.local_addr()?,
            conn: ConnectionId(0),
        }],
        None,
    )?;
    let t = Instant::now();
    let mut switch = tuned(TcpStream::connect(proxy.listen_addrs[0])?)?;
    let mut controller = accept(&listener)?;
    let hello = OfMessage::Hello.encode(1);
    switch.write_all(&hello)?;
    let mut buf = vec![0u8; hello.len()];
    controller.read_exact(&mut buf)?;
    let session_setup_us = t.elapsed().as_secs_f64() * 1e6;

    let direct = TcpListener::bind("127.0.0.1:0")?;
    let direct_a = tuned(TcpStream::connect(direct.local_addr()?)?)?;
    let direct_b = accept(&direct)?;
    Ok(Rig {
        proxy,
        switch,
        controller,
        direct_a,
        direct_b,
        session_setup_us,
    })
}

/// Writes `frame` on `tx`, reads it back on `rx`; microseconds taken
/// and whether the bytes arrived unchanged.
fn one_way(
    tx: &mut TcpStream,
    rx: &mut TcpStream,
    frame: &[u8],
    buf: &mut [u8],
) -> io::Result<(f64, bool)> {
    let buf = &mut buf[..frame.len()];
    let t = Instant::now();
    tx.write_all(frame)?;
    rx.read_exact(buf)?;
    Ok((t.elapsed().as_secs_f64() * 1e6, buf == frame))
}

/// Stamps message number `seq` into an encoded frame's transaction id,
/// so that no two messages of a run are byte-identical.
fn stamp(frame: &mut [u8], seq: u32) {
    frame[4..8].copy_from_slice(&seq.to_be_bytes());
}

/// One-way times of alternating 16-byte echo requests, sent for
/// `duration` (or exactly `count` of them when given).
fn window_one(
    a: &mut TcpStream,
    b: &mut TcpStream,
    duration: Duration,
    count: Option<u64>,
    failed: &mut u64,
) -> io::Result<Histogram> {
    let mut echo = OfMessage::EchoRequest(vec![0u8; 8]).encode(0);
    let mut buf = [0u8; 16];
    let mut samples = Histogram::new();
    let begun = Instant::now();
    while count.map_or(begun.elapsed() < duration, |n| samples.count() < n) {
        stamp(&mut echo, samples.count() as u32);
        let (us, intact) = if samples.count().is_multiple_of(2) {
            one_way(a, b, &echo, &mut buf)?
        } else {
            one_way(b, a, &echo, &mut buf)?
        };
        *failed += u64::from(!intact);
        samples.record(us);
    }
    Ok(samples)
}

/// Runs `f` while a second thread spins, so that no processor halts:
/// a thread woken by the proxy then starts after a context switch, not
/// after the hypervisor has restarted a halted virtual processor. With
/// a single processor the spinner would only take time from the proxy,
/// so `f` runs alone.
fn kept_awake<T>(f: impl FnOnce() -> T) -> T {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return f();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // A statistic-free flag: nothing is published through it.
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// The three message shapes of phase B, encoded once.
struct Shapes {
    echo: Vec<u8>,
    packet_in: Vec<u8>,
    flow_mod: Vec<u8>,
}

impl Shapes {
    fn new() -> Shapes {
        let (h1, h6) = (MacAddr::from_low(1), MacAddr::from_low(6));
        let ping = icmp_echo_request(
            h1,
            h6,
            "10.0.0.1".parse().expect("a valid address"),
            "10.0.0.6".parse().expect("a valid address"),
            1,
            1,
            vec![0u8; 32],
        )
        .encode();
        let packet_in = OfMessage::PacketIn(PacketIn {
            buffer_id: None,
            total_len: ping.len() as u16,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: ping,
        });
        let flow_mod = OfMessage::FlowMod(FlowMod::add(
            Match::all(),
            vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
        ));
        Shapes {
            echo: OfMessage::EchoRequest(vec![0u8; 8]).encode(0),
            packet_in: packet_in.encode(0),
            flow_mod: flow_mod.encode(0),
        }
    }
}

/// What phase B did.
struct Windows {
    /// Wall seconds of each window of [`WINDOW`] messages.
    walls_s: Vec<f64>,
    messages: u64,
    cpu_us: u64,
    /// A sample of the frames sent, for the executor replay.
    sample: Vec<(bool, Frame)>,
}

/// Phase B: windows of 64 outstanding messages for `duration`.
fn windows(
    rig: &mut Rig,
    shapes: &Shapes,
    seed: u64,
    duration: Duration,
    failed: &mut u64,
) -> io::Result<Windows> {
    let mut rng = DetRng::new(seed);
    let mut out = Windows {
        walls_s: Vec::new(),
        messages: 0,
        cpu_us: 0,
        sample: Vec::new(),
    };
    let mut sent = Vec::new();
    let mut received = Vec::new();
    let cpu_before = procfs::cpu_us().unwrap_or(0);
    let begun = Instant::now();
    let mut seq = 0u32;
    while begun.elapsed() < duration {
        let to_controller = out.walls_s.len().is_multiple_of(2);
        let other = if to_controller {
            &shapes.packet_in
        } else {
            &shapes.flow_mod
        };
        sent.clear();
        let mut bounds = Vec::with_capacity(WINDOW);
        for _ in 0..WINDOW {
            let shape = if rng.next_u64().is_multiple_of(2) {
                &shapes.echo
            } else {
                other
            };
            let at = sent.len();
            sent.extend_from_slice(shape);
            stamp(&mut sent[at..], seq);
            bounds.push((at, sent.len()));
            seq = seq.wrapping_add(1);
        }
        received.resize(sent.len(), 0);
        let (tx, rx) = if to_controller {
            (&mut rig.switch, &mut rig.controller)
        } else {
            (&mut rig.controller, &mut rig.switch)
        };
        let t = Instant::now();
        tx.write_all(&sent)?;
        rx.read_exact(&mut received)?;
        out.walls_s.push(t.elapsed().as_secs_f64());
        // In-order, byte-exact delivery: every message's bytes sit
        // where they were sent.
        *failed += bounds
            .iter()
            .filter(|&&(from, to)| sent[from..to] != received[from..to])
            .count() as u64;
        out.messages += WINDOW as u64;
        if out.sample.len() < 8 * WINDOW {
            out.sample.extend(
                bounds
                    .iter()
                    .map(|&(from, to)| (to_controller, Frame::new(sent[from..to].to_vec()))),
            );
        }
    }
    out.cpu_us = procfs::cpu_us().unwrap_or(0).saturating_sub(cpu_before);
    Ok(out)
}

/// Live threads once the joined ones have left the process table: a
/// joined thread has signalled its exit but may take a moment more to
/// disappear from `/proc`.
fn threads_once_settled() -> u64 {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let threads = procfs::threads().unwrap_or(0);
        if threads <= 1 || Instant::now() >= deadline {
            return threads;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One session's share of phase A, on a proxy of its own.
struct Segment {
    /// Building the rig and warming it up, in seconds (the first
    /// segment's also counts the process's start).
    setup_s: f64,
    session_setup_us: f64,
    proxy_us: Histogram,
    direct_us: Histogram,
}

impl Segment {
    /// One-way time through the proxy at the fastest decile (see
    /// [`workload`] for why not the median).
    fn proxy_p10(&self) -> f64 {
        self.proxy_us.percentile(10.0)
    }

    /// One-way time over the direct pair at the fastest decile.
    fn direct_p10(&self) -> f64 {
        self.direct_us.percentile(10.0)
    }
}

/// Everything one run measures.
struct Measured {
    segments: Vec<Segment>,
    threads: u64,
    /// Phase A through the proxy on the idle machine (traced run only).
    idle_us: Option<Histogram>,
    windows: Windows,
    /// Every proxy's shutdown report.
    shutdowns: Vec<ShutdownReport>,
    threads_after: u64,
    failed: u64,
}

/// Phase A runs as [`SEGMENTS`] sessions, each on a freshly spawned
/// proxy: where the scheduler puts a proxy's threads holds for that
/// proxy's life and decides between an ~11 us and an ~18 us one-way
/// time, so one session measures the scheduler's choice and the
/// fastest of several measures the proxy. Phase B and the idle phase
/// use the last session's proxy.
fn measure(ctx: &mut Ctx, phase_a: Duration, phase_b: Duration) -> io::Result<Measured> {
    let rec = &mut ctx.rec;
    let mut failed = 0u64;
    let mut segments = Vec::new();
    let mut shutdowns = Vec::new();
    let mut threads = 0;
    let mut last_rig = None;
    for i in 0..SEGMENTS {
        let setup = match i {
            0 => rec.open_at("setup", None, ctx.start),
            _ => rec.open(&format!("setup.{i}"), None),
        };
        let mut rig = rec.time("build", Some(setup), rig)?;
        rec.time("warmup", Some(setup), || {
            let (a, b) = (&mut rig.switch, &mut rig.controller);
            kept_awake(|| window_one(a, b, phase_a, Some(WARMUP_MESSAGES), &mut failed))
        })?;
        let setup_s = rec.close(setup) as f64 / 1e9;
        threads = procfs::threads().unwrap_or(0);

        let (proxy_us, direct_us) = rec.time(&format!("run.phase_a.{i}"), None, || {
            kept_awake(|| {
                let each = phase_a / SEGMENTS as u32;
                let (a, b) = (&mut rig.switch, &mut rig.controller);
                let proxy_us = window_one(a, b, each, None, &mut failed)?;
                let (a, b, count) = (&mut rig.direct_a, &mut rig.direct_b, proxy_us.count());
                let direct_us = window_one(a, b, each, Some(count), &mut failed)?;
                io::Result::Ok((proxy_us, direct_us))
            })
        })?;
        segments.push(Segment {
            setup_s,
            session_setup_us: rig.session_setup_us,
            proxy_us,
            direct_us,
        });
        if i + 1 < SEGMENTS {
            shutdowns.push(rig.proxy.shutdown());
        } else {
            last_rig = Some(rig);
        }
    }
    let mut rig = last_rig.expect("the last segment keeps its rig");

    let run = rec.open("run", None);
    let idle_us = if ctx.traced {
        Some(rec.time("phase_a.idle", Some(run), || {
            let (a, b) = (&mut rig.switch, &mut rig.controller);
            window_one(a, b, phase_a, None, &mut failed)
        })?)
    } else {
        None
    };
    let shapes = Shapes::new();
    let windows = rec.time("phase_b", Some(run), || {
        windows(&mut rig, &shapes, ctx.seed, phase_b, &mut failed)
    })?;
    rec.close(run);

    let collect = rec.open("collect", None);
    shutdowns.push(rec.time("shutdown", Some(collect), || rig.proxy.shutdown()));
    rec.close(collect);
    Ok(Measured {
        segments,
        threads,
        idle_us,
        windows,
        shutdowns,
        threads_after: threads_once_settled(),
        failed,
    })
}

/// The workload's entry point.
pub fn workload(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    // The traced run only needs enough samples for stable medians.
    let (phase_a, phase_b) = if ctx.traced {
        (Duration::from_secs(3), Duration::from_secs(3))
    } else {
        (
            Duration::from_secs_f64(ctx.seconds * 0.45),
            Duration::from_secs_f64(ctx.seconds * 0.5),
        )
    };
    let m = match measure(ctx, phase_a, phase_b) {
        Ok(measured) => measured,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.violations.push(format!("socket error: {e}"));
            return out;
        }
    };

    let idle_count = m.idle_us.as_ref().map_or(0, Histogram::count);
    let phase_a_count: u64 = m
        .segments
        .iter()
        .map(|s| s.proxy_us.count() + s.direct_us.count())
        .sum();
    let dropped: u64 = m
        .shutdowns
        .iter()
        .map(|r| r.stats.overflow_dropped + r.stats.stale_epoch_dropped)
        .sum();
    out.attempted = phase_a_count + idle_count + m.windows.messages;
    out.failed = m.failed + dropped;
    out.require_eq("messages damaged, lost or reordered", m.failed, 0);
    out.require_eq("overflow_dropped + stale_epoch_dropped", dropped, 0);
    for (i, report) in m.shutdowns.iter().enumerate() {
        out.require_eq(
            &format!("proxy {i} live sessions after shutdown"),
            report.stats.live_sessions,
            0,
        );
        out.require(report.threads_joined > 0, || {
            format!("proxy {i}'s shutdown joined no thread")
        });
    }
    out.require_eq("threads left after shutdown", m.threads_after, 1);

    // Within a session the awake phase is bimodal too (a hand-over may
    // or may not cross to the spinner's processor), and the fastest
    // decile stays in the faster mode where the median wanders between
    // them: over eight single-session runs the p50 ranged 11.9-17.6 us
    // and the p10 10.7-11.0 us.
    let fastest = m
        .segments
        .iter()
        .min_by(|a, b| a.proxy_p10().total_cmp(&b.proxy_p10()))
        .expect("phase A has segments");
    let direct_p10s: Vec<f64> = m.segments.iter().map(Segment::direct_p10).collect();
    let added_p10 = fastest.proxy_p10() - stats::fastest(direct_p10s.iter());
    let (proxy_p50, direct_p50) = (
        fastest.proxy_us.percentile(50.0),
        fastest.direct_us.percentile(50.0),
    );
    let setups: Vec<f64> = m.segments.iter().map(|s| s.setup_s).collect();
    let session_setups: Vec<f64> = m.segments.iter().map(|s| s.session_setup_us).collect();
    let msgs_per_s = WINDOW as f64 / stats::median(&m.windows.walls_s);
    out.note("traffic crossed the host loopback interface, not a link".into());
    for (i, s) in m.segments.iter().enumerate() {
        out.note(format!(
            "session {i}: direct p10 {:.3} us; proxy one-way, processors awake [us]: {}",
            s.direct_p10(),
            s.proxy_us.describe()
        ));
    }
    out.note(format!(
        "fastest session's direct one-way [us]: {}",
        fastest.direct_us.describe()
    ));
    out.note_timing(
        "set-up of a session (spawn, connect, warm-up)",
        "s",
        &setups,
    );
    out.note_timing("phase B window of 64", "s", &m.windows.walls_s);
    out.note(format!(
        "{} messages in phase B; {} threads with one session live",
        m.windows.messages, m.threads
    ));

    if !ctx.traced {
        out.sample_peak_rss();
        // As everywhere, the fastest of the set-ups made (see
        // `run::SetupClock`); the first also counts the process's start.
        out.set("setup_s", stats::fastest(setups.iter()));
        out.set("work_per_s", msgs_per_s);
        out.set("unit_us", added_p10);
        out.note(format!(
            "work_per_s = proxy_msgs_per_s = {msgs_per_s:.0} (phase B, 64 outstanding)"
        ));
        out.note(format!(
            "unit_us = proxy_added_us_p10 = {added_p10:.3} (phase A, fastest proxy p10 minus fastest direct p10 of {SEGMENTS} sessions; that session's p50s: proxy {proxy_p50:.3}, direct {direct_p50:.3})"
        ));
        return out;
    }

    let idle = m.idle_us.as_ref().expect("the traced run measures idle");
    out.note(format!(
        "phase A proxy one-way, idle machine [us]: {}; {:.1}% under {FAST_US} us",
        idle.describe(),
        idle.share_below(FAST_US) * 100.0
    ));
    let inputs: Vec<InjectorInput> = m
        .windows
        .sample
        .iter()
        .enumerate()
        .map(|(i, (to_controller, frame))| InjectorInput {
            conn: ConnectionId(0),
            to_controller: *to_controller,
            frame: frame.clone(),
            now_ns: i as u64 * 1_000,
        })
        .collect();
    let (exec_ns, exec_allocs) = ctx.rec.time("replay.core.exec", None, || {
        layers::exec_replay(scenario::attacks::TRIVIAL_PASS, &inputs)
    });
    let cpu_us_per_msg = m.windows.cpu_us as f64 / m.windows.messages as f64;
    out.set("core.exec.on_message_ns", exec_ns);
    out.set("core.exec.allocs_per_msg", exec_allocs);
    out.set("injector.tcp.oneway_us_p50", idle.percentile(50.0));
    out.set("injector.tcp.oneway_us_p99", idle.percentile(99.0));
    out.set("injector.tcp.fast_sample_share", idle.share_below(FAST_US));
    out.set("injector.tcp.awake_oneway_us_p50", proxy_p50);
    out.set("injector.tcp.direct_us_p50", direct_p50);
    out.set(
        "injector.tcp.session_setup_us",
        stats::median(&session_setups),
    );
    out.set("injector.tcp.threads", m.threads as f64);
    out.set("injector.tcp.cpu_us_per_msg", cpu_us_per_msg);
    out.set("injector.tcp.overflow_dropped", dropped as f64);
    // Nothing wraps the proxy: its threads run as they always do.
    out.set("trace_overhead", 1.0);
    out
}
