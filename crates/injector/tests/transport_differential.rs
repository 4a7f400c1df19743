//! One injector, two transports: the same attack, stepped through the
//! simulator's [`SimInjector`] and through a [`TcpProxy`] on loopback,
//! must answer the same scripted control-plane stream the same way.
//!
//! The script runs in both directions over `(c1, s1)` and `(c1, s2)` of
//! the enterprise scenario. The simulator path calls the injector
//! directly as an [`Interposer`]. The proxy path has two routes, one per
//! connection, and writes one message at a time: each is followed on the
//! same socket by a sentinel (a `BARRIER` no attack touches), and the
//! next message waits for the sentinel's arrival, which shows the step
//! before it finished. Both paths see the sentinels.
//!
//! What must be equal:
//! * each (connection, direction) byte stream, frame for frame. `delay`
//!   is compared on order only: the frames each transport delayed, in
//!   the order they arrived, and the undelayed ones in theirs, never
//!   when a delayed one lands between undelayed ones, beyond landing
//!   after the sentinel behind its own message;
//! * the injection log, with timestamps stripped;
//! * `SYSCMD` and `fault` on the lists each transport receives: the
//!   simulator's applied commands against the proxy's handler calls
//!   (parsed as the simulator parses them) and its `faults_discarded`.

use attain_controllers::ControllerKind;
use attain_core::exec::{AttackExecutor, LogKind};
use attain_core::model::ConnectionId;
use attain_core::{dsl, scenario};
use attain_injector::harness::build_case_study;
use attain_injector::tcp::{ProxyRoute, TcpProxy};
use attain_injector::SimInjector;
use attain_netsim::{
    ConnId, Direction, FailMode, HostCommand, Interposer, ProxiedMessage, SimTime,
};
use attain_openflow::{
    Action, FlowMod, Frame, Match, OfMessage, PacketIn, PacketInReason, PacketOut, PortNo,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Changes the model's connection `(c1, s2)` on its `HELLO`, then delays
/// echo requests, trips on `(c1, s1)`'s next `FLOW_MOD` (dropping it and
/// issuing a `SYSCMD` and an environment fault) and finally drops
/// `(c1, s2)`'s `PACKET_IN`s.
const STAGED: &str = r#"
    attack staged {
        start state sigma1 {
            rule arm on (c1, s2) requires no_tls {
                when msg.type == HELLO && msg.source == s2
                do { pass(msg); goto sigma2; }
            }
        }
        state sigma2 {
            rule hold on all requires no_tls {
                when msg.type == ECHO_REQUEST
                do { delay(msg, 0.2); }
            }
            rule trip on (c1, s1) requires no_tls {
                when msg.type == FLOW_MOD && msg.source == c1
                do {
                    drop(msg);
                    syscmd(h1, "ping -c 2 10.0.0.6");
                    fault("link s1-s2 down");
                    goto sigma3;
                }
            }
        }
        state sigma3 {
            rule cut on (c1, s2) requires no_tls {
                when msg.type == PACKET_IN
                do { drop(msg); }
            }
        }
    }
"#;

/// Rewrites the controller's `FLOW_MOD`s to `s1`.
const MODIFY: &str = r#"
    attack stretch {
        start state sigma1 {
            rule stretch on (c1, s1) requires no_tls {
                when msg.type == FLOW_MOD && msg.source == c1
                do { modify(msg, "idle_timeout", 77); }
            }
        }
    }
"#;

/// Answers each `PACKET_IN` from `s1` with messages on `(c1, s2)`, one
/// toward each end.
const CROSS_INJECT: &str = r#"
    attack cross {
        start state sigma1 {
            rule echo on (c1, s1) requires no_tls {
                when msg.type == PACKET_IN
                do {
                    pass(msg);
                    inject((c1, s2), to_switch, hex("01 02 00 08 00 00 00 63"));
                    inject((c1, s2), to_controller, hex("01 03 00 08 00 00 00 64"));
                }
            }
        }
    }
"#;

const ATTACKS: [(&str, &str); 5] = [
    ("trivial_pass", scenario::attacks::TRIVIAL_PASS),
    (
        "flow_mod_suppression",
        scenario::attacks::FLOW_MOD_SUPPRESSION,
    ),
    ("modify", MODIFY),
    ("cross_inject", CROSS_INJECT),
    ("staged", STAGED),
];

/// One scripted message: the connection (0 is `(c1, s1)`, 1 `(c1, s2)`),
/// whether it travels toward the controller, and its bytes.
type Step = (usize, bool, Vec<u8>);

fn script() -> Vec<Step> {
    let packet_in = || {
        OfMessage::PacketIn(PacketIn {
            buffer_id: None,
            total_len: 4,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: vec![1, 2, 3, 4],
        })
    };
    let flow_mod = || OfMessage::FlowMod(FlowMod::add(Match::all(), vec![]));
    let packet_out = OfMessage::PacketOut(PacketOut {
        buffer_id: None,
        in_port: PortNo::NONE,
        actions: vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
        data: vec![9; 14],
    });
    let messages = [
        (0, true, OfMessage::Hello),
        (0, false, OfMessage::Hello),
        (1, true, OfMessage::Hello),
        (1, false, OfMessage::Hello),
        (1, true, OfMessage::EchoRequest(vec![5])),
        (1, false, OfMessage::EchoReply(vec![5])),
        (0, false, OfMessage::EchoRequest(vec![7])),
        (0, true, OfMessage::EchoReply(vec![7])),
        (0, true, packet_in()),
        (0, false, flow_mod()),
        (0, false, packet_out),
        (1, true, packet_in()),
        (1, false, flow_mod()),
        (0, false, flow_mod()),
        (1, true, packet_in()),
        (1, false, flow_mod()),
        (0, true, packet_in()),
    ];
    let mut steps = Vec::new();
    for (xid, (conn, to_controller, msg)) in (1..).zip(messages) {
        steps.push((conn, to_controller, msg.encode(xid)));
        steps.push((conn, to_controller, sentinel(to_controller, 1000 + xid)));
    }
    steps
}

/// A message every attack here passes, in the direction's own type.
fn sentinel(to_controller: bool, xid: u32) -> Vec<u8> {
    let msg = match to_controller {
        true => OfMessage::BarrierReply,
        false => OfMessage::BarrierRequest,
    };
    msg.encode(xid)
}

fn executor(source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).expect("compiles");
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).expect("validates")
}

/// One (connection, direction) stream's frames, each kind in arrival
/// order: those delivered at once, and those delivered late.
#[derive(Debug, Default, PartialEq)]
struct Stream {
    prompt: Vec<Vec<u8>>,
    late: Vec<Vec<u8>>,
}

impl Stream {
    fn len(&self) -> usize {
        self.prompt.len() + self.late.len()
    }
}

/// Streams by connection, then by whether they run toward the
/// controller.
type Streams = [[Stream; 2]; 2];

/// What one transport made of the script.
#[derive(Debug, PartialEq)]
struct Observed {
    streams: Streams,
    log: Vec<LogKind>,
    /// `SYSCMD`s as the simulator parses them.
    commands: Vec<HostCommand>,
    faults: u64,
}

fn log_kinds(exec: &AttackExecutor) -> Vec<LogKind> {
    exec.log().events().iter().map(|e| e.kind.clone()).collect()
}

/// The script through the simulator's injector, called directly.
fn through_sim(source: &str) -> Observed {
    let sc = scenario::enterprise_network();
    let sim = build_case_study(ControllerKind::Pox, FailMode::Secure);
    let (mut injector, handle) = SimInjector::new(executor(source), &sc.system, &sim);
    let mut streams = Streams::default();
    // Delayed frames with their due time and emission order.
    let mut late = Vec::new();
    let (mut commands, mut faults) = (Vec::new(), 0);
    for (i, (conn, to_controller, bytes)) in script().into_iter().enumerate() {
        let now = SimTime::from_micros(i as u64);
        let frame = Frame::new(bytes);
        let actions = injector.on_message(ProxiedMessage {
            conn: ConnId(conn),
            direction: match to_controller {
                true => Direction::SwitchToController,
                false => Direction::ControllerToSwitch,
            },
            frame: &frame,
            now,
        });
        for d in actions.deliveries {
            let to_controller = d.direction == Direction::SwitchToController;
            let bytes = d.frame.bytes().to_vec();
            match d.extra_delay {
                SimTime::ZERO => streams[d.conn.0][usize::from(to_controller)]
                    .prompt
                    .push(bytes),
                delay => late.push((now + delay, late.len(), d.conn.0, to_controller, bytes)),
            }
        }
        for command in actions.commands {
            match command {
                HostCommand::Fault(_) => faults += 1,
                command => commands.push(command),
            }
        }
        assert_eq!(actions.wakeup, None, "no attack here sleeps");
    }
    late.sort();
    for (_, _, conn, to_controller, bytes) in late {
        streams[conn][usize::from(to_controller)].late.push(bytes);
    }
    let log = log_kinds(&handle.lock());
    Observed {
        streams,
        log,
        commands,
        faults,
    }
}

/// Frames read so far off the far end of each stream.
#[derive(Default)]
struct Wire {
    streams: Mutex<[[Vec<Vec<u8>>; 2]; 2]>,
    arrived: Condvar,
}

impl Wire {
    /// Waits until `done` holds of the streams, failing after 5 s.
    fn wait(&self, what: &str, done: impl Fn(&[[Vec<Vec<u8>>; 2]; 2]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut streams = self.streams.lock().unwrap();
        while !done(&streams) {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "timed out waiting for {what}");
            streams = self.arrived.wait_timeout(streams, left).unwrap().0;
        }
    }
}

/// The connection the proxy dials to `listener`, failing after 5 s.
fn accept(listener: &TcpListener) -> TcpStream {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                sock.set_nonblocking(false).unwrap();
                return sock;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "the proxy never dialled");
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("accept: {e}"),
        }
    }
}

/// Reads frames off `sock` into stream `(conn, to_controller)` until it
/// closes.
fn collect(wire: Arc<Wire>, mut sock: TcpStream, conn: usize, to_controller: bool) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Ok(Some(len)) = OfMessage::frame_len(&buf) {
            let frame: Vec<u8> = buf.drain(..len).collect();
            wire.streams.lock().unwrap()[conn][usize::from(to_controller)].push(frame);
            wire.arrived.notify_all();
        }
        match sock.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// The script through a two-route proxy on loopback, one message at a
/// time. `expected` is the simulator's answer, used only to know how
/// many frames to wait for before the comparison.
fn through_proxy(source: &str, expected: &Observed) -> Observed {
    let controllers = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").unwrap());
    let routes = (0..2)
        .map(|conn| ProxyRoute {
            listen: "127.0.0.1:0".parse().unwrap(),
            controller: controllers[conn].local_addr().unwrap(),
            conn: ConnectionId(conn),
        })
        .collect();
    let calls = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&calls);
    let handler = Box::new(move |host: &str, cmd: &str| {
        record
            .lock()
            .unwrap()
            .push((host.to_string(), cmd.to_string()));
    });
    let proxy = TcpProxy::spawn(executor(source), routes, Some(handler)).unwrap();
    let wire = Arc::new(Wire::default());
    let mut readers = Vec::new();
    // Per connection: [switch end, controller end].
    let ends: Vec<[TcpStream; 2]> = (0..2)
        .map(|conn| {
            let switch = TcpStream::connect(proxy.listen_addrs[conn]).unwrap();
            let controller = accept(&controllers[conn]);
            for (sock, to_controller) in [(&switch, false), (&controller, true)] {
                let (wire, sock) = (Arc::clone(&wire), sock.try_clone().unwrap());
                readers.push(thread::spawn(move || {
                    collect(wire, sock, conn, to_controller)
                }));
            }
            [switch, controller]
        })
        .collect();
    let steps = script();
    for pair in steps.chunks(2) {
        let [(conn, to_controller, msg), (_, _, mark)] = pair else {
            unreachable!("each message is followed by its sentinel")
        };
        let mut sock = &ends[*conn][usize::from(!*to_controller)];
        sock.write_all(msg).unwrap();
        sock.write_all(mark).unwrap();
        wire.wait("a sentinel", |streams| {
            streams[*conn][usize::from(*to_controller)].contains(mark)
        });
    }
    wire.wait("every delivery", |streams| {
        (0..4).all(|i| streams[i / 2][i % 2].len() >= expected.streams[i / 2][i % 2].len())
    });
    let log = proxy.with_executor(log_kinds);
    let report = proxy.shutdown();
    assert_eq!(report.stats.live_sessions, 0);
    drop(ends);
    for reader in readers {
        reader.join().unwrap();
    }
    // A frame is late iff the simulator delayed it: the scripted frames
    // carry unique transaction ids, so the bytes say which one it is.
    let mut streams = Streams::default();
    for (i, frames) in wire.streams.lock().unwrap().iter().flatten().enumerate() {
        let (got, want) = (&mut streams[i / 2][i % 2], &expected.streams[i / 2][i % 2]);
        // It was late: it arrived after the sentinel behind its own
        // message, which crossed at once.
        for late in &want.late {
            let xid = u32::from_be_bytes(late[4..8].try_into().unwrap());
            let position = |f: &[u8]| frames.iter().position(|g| g == f);
            let mark = sentinel(i % 2 == 1, 1000 + xid);
            assert!(
                position(late) > position(&mark),
                "xid {xid} was not delayed"
            );
        }
        for frame in frames {
            match want.late.contains(frame) {
                true => got.late.push(frame.clone()),
                false => got.prompt.push(frame.clone()),
            }
        }
    }
    let sim = build_case_study(ControllerKind::Pox, FailMode::Secure);
    let calls = calls.lock().unwrap();
    let commands = calls.iter().map(|(host, cmd)| {
        let host = sim.node_id(host).expect("a scenario host");
        HostCommand::parse(host, cmd).expect("a command the simulator runs")
    });
    Observed {
        streams,
        log,
        commands: commands.collect(),
        faults: report.stats.faults_discarded,
    }
}

#[test]
fn the_simulator_and_the_proxy_answer_alike() {
    for (name, source) in ATTACKS {
        let sim = through_sim(source);
        let proxy = through_proxy(source, &sim);
        assert_eq!(proxy, sim, "{name}: the transports disagree");
    }
}

/// The comparison is not vacuous: every kind of answer it compares
/// occurs under some attack.
#[test]
fn the_script_exercises_every_kind_of_answer() {
    let staged = through_sim(STAGED);
    let late: usize = (staged.streams.iter().flatten())
        .map(|s| s.late.len())
        .sum();
    assert!(late >= 2, "echo requests are delayed");
    assert_eq!(staged.commands.len(), 1);
    assert_eq!(staged.faults, 1);
    let prompt =
        |o: &Observed| -> usize { (o.streams.iter().flatten()).map(|s| s.prompt.len()).sum() };
    let pass = through_sim(scenario::attacks::TRIVIAL_PASS);
    assert!(prompt(&through_sim(scenario::attacks::FLOW_MOD_SUPPRESSION)) < prompt(&pass));
    assert!(prompt(&through_sim(CROSS_INJECT)) > prompt(&pass));
    assert_ne!(through_sim(MODIFY).streams, pass.streams);
    assert!(staged
        .log
        .iter()
        .any(|k| matches!(k, LogKind::Transition { .. })));
}
