//! Connection-lifecycle tests for the TCP proxy over real sockets:
//! the §VII-B interruption scenario, reconnect epoch isolation,
//! equal-delay ordering, and shutdown joining every worker thread.

use attain_core::exec::AttackExecutor;
use attain_core::model::ConnectionId;
use attain_core::{dsl, scenario};
use attain_injector::tcp::{FaultAction, ProxyRoute, TcpProxy};
use attain_openflow::OfMessage;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Delays `ECHO_REQUEST`s from the first switch by 600 ms — long enough
/// for a test to kill the session before the delivery fires.
const DELAY_ECHO: &str = r#"
attack delay_echo {
    start state sigma1 {
        rule hold on (c1, s1) requires no_tls {
            when msg.type == ECHO_REQUEST && msg.source == s1
            do { delay(msg, 0.6); }
        }
    }
}
"#;

/// Watches an inter-arrival pair on the first connection without ever
/// firing (the count threshold is unreachable): the timing plan tracks
/// `(ECHO_REQUEST, ECHO_REQUEST)`, so every switch message grows
/// per-connection timing state in the executor.
const WATCH_TIMING: &str = r#"
attack watch_timing {
    start state sigma1 {
        rule watch on (c1, s1) requires no_tls {
            when timing_count(ECHO_REQUEST, ECHO_REQUEST) >= 1000
            do { drop(msg); }
        }
    }
}
"#;

/// Delays *everything* from the first switch by the same 200 ms, so a
/// pipelined batch becomes a set of equal-delay deliveries whose order
/// is carried only by the executor's emission sequence.
const DELAY_ALL: &str = r#"
attack delay_all {
    start state sigma1 {
        rule hold on (c1, s1) requires no_tls {
            when msg.source == s1
            do { delay(msg, 0.2); }
        }
    }
}
"#;

/// Passes every `ECHO_REQUEST` from the first switch on, and asks for
/// two environment faults each time — which only the simulator can
/// apply.
const FAULT_ON_ECHO: &str = r#"
attack fault_on_echo {
    start state sigma1 {
        rule trip on (c1, s1) requires no_tls {
            when msg.type == ECHO_REQUEST && msg.source == s1
            do { pass(msg); fault("link s1-s2 down"); fault("controller c1 crash"); }
        }
    }
}
"#;

fn executor(source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap()
}

/// A controller accepting any number of sequential connections (the
/// proxy redials per switch session). Decoded messages are forwarded on
/// the channel; HELLO is answered with HELLO.
fn fake_controller() -> (SocketAddr, mpsc::Receiver<OfMessage>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        while let Ok((mut sock, _)) = listener.accept() {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            'conn: loop {
                let n = match sock.read(&mut chunk) {
                    Ok(0) | Err(_) => break 'conn,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                while let Ok(Some(len)) = OfMessage::frame_len(&buf) {
                    let frame: Vec<u8> = buf.drain(..len).collect();
                    let (msg, xid) = OfMessage::decode(&frame).unwrap();
                    if msg == OfMessage::Hello {
                        let _ = sock.write_all(&OfMessage::Hello.encode(xid));
                    }
                    if tx.send(msg).is_err() {
                        break 'conn;
                    }
                }
            }
        }
    });
    (addr, rx)
}

fn spawn_proxy(source: &str, controller: SocketAddr) -> TcpProxy {
    TcpProxy::spawn(
        executor(source),
        vec![ProxyRoute {
            listen: "127.0.0.1:0".parse().unwrap(),
            controller,
            conn: ConnectionId(0),
        }],
        None,
    )
    .unwrap()
}

fn read_one(sock: &mut TcpStream) -> Option<OfMessage> {
    // `None` means closed, and the assertions lean on it: a silent open
    // socket must fail the test, never pass for a closed one or hang it.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Ok(Some(len)) = OfMessage::frame_len(&buf) {
            let frame: Vec<u8> = buf.drain(..len).collect();
            return Some(OfMessage::decode(&frame).unwrap().0);
        }
        match sock.read(&mut chunk) {
            Ok(0) => return None,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                panic!("no message and no close within 5 s")
            }
            Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// The stale-sink reconnect bug: a delayed delivery scheduled for a
/// session that died must not be written into the successor session,
/// while delayed deliveries for the live session still arrive.
#[test]
fn delayed_delivery_does_not_cross_into_reconnected_session() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(DELAY_ECHO, ctrl_addr);
    let listen = proxy.listen_addrs[0];

    // First switch session: HELLO passes, ECHO_REQUEST is held for
    // 600 ms by the attack.
    let mut switch1 = TcpStream::connect(listen).unwrap();
    switch1.write_all(&OfMessage::Hello.encode(1)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );
    switch1
        .write_all(&OfMessage::EchoRequest(vec![7]).encode(2))
        .unwrap();
    // Let the proxy ingest the echo (it is now in the timer heap), then
    // kill the session before the delay elapses.
    assert!(wait_until(Duration::from_secs(5), || {
        proxy.with_executor(|e| e.log().rule_fires("hold") >= 1)
    }));
    drop(switch1);
    assert!(wait_until(Duration::from_secs(5), || {
        proxy.stats().live_sessions == 0
    }));

    // The switch reconnects: a fresh session on the same connection id.
    let mut switch2 = TcpStream::connect(listen).unwrap();
    switch2.write_all(&OfMessage::Hello.encode(3)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );

    // Wait out the old delivery's deadline: the stale echo must be
    // dropped (as stale if the new session was already up when it
    // fired, as dead-target if not), never delivered onward.
    assert!(wait_until(Duration::from_secs(5), || {
        let s = proxy.stats();
        s.stale_epoch_dropped + s.dead_target_dropped >= 1
    }));
    assert!(
        ctrl_rx.try_recv().is_err(),
        "stale delayed delivery leaked into the reconnected session"
    );

    // A delayed delivery addressed to the *live* session still works.
    switch2
        .write_all(&OfMessage::EchoRequest(vec![8]).encode(4))
        .unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::EchoRequest(vec![8])
    );

    let stats = proxy.stats();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.sessions_closed, 1);
    assert_eq!(stats.live_sessions, 1, "stale sink-map entry survived");
    proxy.shutdown();
}

/// Equal-delay `DELAYMESSAGE`s must arrive in executor order: the timer
/// heap breaks deadline ties on the executor's emission sequence
/// instead of racing one sleeper thread per message.
#[test]
fn equal_delay_deliveries_preserve_executor_order() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(DELAY_ALL, ctrl_addr);

    let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
    // One pipelined write → four deliveries, all delayed by 200 ms.
    let mut batch = Vec::new();
    batch.extend(OfMessage::Hello.encode(1));
    batch.extend(OfMessage::EchoRequest(vec![1]).encode(2));
    batch.extend(OfMessage::EchoRequest(vec![2]).encode(3));
    batch.extend(OfMessage::BarrierRequest.encode(4));
    switch.write_all(&batch).unwrap();

    let expect = [
        OfMessage::Hello,
        OfMessage::EchoRequest(vec![1]),
        OfMessage::EchoRequest(vec![2]),
        OfMessage::BarrierRequest,
    ];
    for want in expect {
        assert_eq!(ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(), want);
    }
    proxy.shutdown();
}

/// A DSL `fault(…)` has no executor on real sockets. The proxy must say
/// so — count every discarded fault and show the count in the monitor
/// report — rather than swallow the action, and the message that
/// tripped the rule must still be delivered.
#[test]
fn dsl_faults_are_counted_as_discarded_not_silently_dropped() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(FAULT_ON_ECHO, ctrl_addr);

    let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
    let mut batch = OfMessage::Hello.encode(1);
    batch.extend(OfMessage::EchoRequest(vec![1]).encode(2));
    batch.extend(OfMessage::EchoRequest(vec![2]).encode(3));
    batch.extend(OfMessage::BarrierRequest.encode(4));
    switch.write_all(&batch).unwrap();
    for want in [
        OfMessage::Hello,
        OfMessage::EchoRequest(vec![1]),
        OfMessage::EchoRequest(vec![2]),
        OfMessage::BarrierRequest,
    ] {
        assert_eq!(ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(), want);
    }

    // The barrier came out after both echoes were dispatched: two rule
    // fires, two faults each.
    assert_eq!(proxy.stats().faults_discarded, 4);
    let report = proxy.stats().to_string();
    assert!(report.contains("faults: 4 discarded"), "{report}");
    proxy.shutdown();
}

/// `shutdown()` must sever parked I/O and join every worker thread —
/// acceptor, timer, and all four loops of the live session — within a
/// deadline, leaving no live session behind.
#[test]
fn shutdown_joins_all_worker_threads_within_deadline() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(scenario::attacks::TRIVIAL_PASS, ctrl_addr);

    // One live session whose read loops are parked in blocking reads.
    let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
    switch.write_all(&OfMessage::Hello.encode(1)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );
    assert!(wait_until(Duration::from_secs(5), || {
        proxy.stats().live_sessions == 1
    }));

    let start = Instant::now();
    let report = proxy.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        start.elapsed()
    );
    // 1 acceptor + 1 timer + 4 session loops.
    assert!(
        report.threads_joined >= 6,
        "joined only {} threads",
        report.threads_joined
    );
    assert_eq!(report.stats.live_sessions, 0);
    assert_eq!(report.stats.sessions_opened, report.stats.sessions_closed);

    // Idempotent: a second call has nothing left to join.
    let again = proxy.shutdown();
    assert_eq!(again.threads_joined, 0);
}

/// A holder that panics poisons the `std` executor mutex. The proxy's
/// policy is to recover the guard — a panicked worker is a severed
/// session, not a wedged proxy — so messages still cross in both
/// directions and shutdown still joins every thread.
#[test]
fn poisoned_executor_lock_does_not_wedge_the_proxy() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(scenario::attacks::TRIVIAL_PASS, ctrl_addr);

    let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        proxy.with_executor(|_| -> () { panic!("poisoning the executor lock on purpose") })
    }));
    assert!(poisoner.is_err());

    // Both directions run an executor step under the poisoned lock.
    let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
    switch.write_all(&OfMessage::Hello.encode(1)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );
    assert_eq!(read_one(&mut switch), Some(OfMessage::Hello));

    let report = proxy.shutdown();
    // 1 acceptor + 1 timer + 4 session loops.
    assert!(
        report.threads_joined >= 6,
        "joined only {} threads",
        report.threads_joined
    );
    assert_eq!(report.stats.live_sessions, 0);
}

/// Per-connection timing state must die with the session: a sever
/// releases it, and the reconnected session starts from an empty sample
/// ring instead of inheriting the predecessor's inter-arrival history.
#[test]
fn timing_state_is_released_on_teardown_and_not_inherited_on_reconnect() {
    use attain_openflow::OfType;
    let echo_samples = |proxy: &TcpProxy| {
        proxy.with_executor(|e| {
            e.timing()
                .connection(ConnectionId(0))
                .and_then(|c| c.pair(OfType::EchoRequest, OfType::EchoRequest))
                .map(|s| s.total())
        })
    };

    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(WATCH_TIMING, ctrl_addr);
    let listen = proxy.listen_addrs[0];

    // First session: two echoes give the tracked pair a real sample.
    let mut switch1 = TcpStream::connect(listen).unwrap();
    switch1.write_all(&OfMessage::Hello.encode(1)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );
    assert_eq!(read_one(&mut switch1), Some(OfMessage::Hello));
    switch1
        .write_all(&OfMessage::EchoRequest(vec![1]).encode(2))
        .unwrap();
    switch1
        .write_all(&OfMessage::EchoRequest(vec![2]).encode(3))
        .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        echo_samples(&proxy).is_some_and(|n| n >= 1)
    }));
    assert_eq!(proxy.with_executor(|e| e.timing().tracked_connections()), 1);

    // Sever the route: the session dies and takes its timing state
    // with it — nothing left to feed stale inter-arrival gaps from.
    proxy.apply_fault(FaultAction::HoldDown { route: 0 });
    assert_eq!(read_one(&mut switch1), None);
    assert!(wait_until(Duration::from_secs(5), || {
        proxy.with_executor(|e| e.timing().tracked_connections()) == 0
    }));

    // Reconnect after restore: the successor session's first echo must
    // land in a fresh ring (one arrival, zero samples). Inherited state
    // would show the predecessor's sample count instead.
    proxy.apply_fault(FaultAction::Restore { route: 0 });
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut switch2 = loop {
        assert!(Instant::now() < deadline, "route never restored");
        let mut attempt = match TcpStream::connect(listen) {
            Ok(s) => s,
            Err(_) => continue,
        };
        if attempt.write_all(&OfMessage::Hello.encode(4)).is_err() {
            continue;
        }
        if read_one(&mut attempt) == Some(OfMessage::Hello) {
            break attempt;
        }
        thread::sleep(Duration::from_millis(25));
    };
    switch2
        .write_all(&OfMessage::EchoRequest(vec![3]).encode(5))
        .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        echo_samples(&proxy).is_some()
    }));
    assert_eq!(
        echo_samples(&proxy),
        Some(0),
        "reconnected session inherited the old session's timing samples"
    );

    // The graceful-teardown path (peer close, not sever) releases too.
    drop(switch2);
    assert!(wait_until(Duration::from_secs(5), || {
        proxy.with_executor(|e| e.timing().tracked_connections()) == 0
    }));
    proxy.shutdown();
}

/// Samples of the `(ECHO_REQUEST, ECHO_REQUEST)` pair the executor holds
/// for the first connection (`None` before its first echo).
fn echo_pair_samples(proxy: &TcpProxy) -> Option<u64> {
    use attain_openflow::OfType;
    proxy.with_executor(|e| {
        e.timing()
            .connection(ConnectionId(0))
            .and_then(|c| c.pair(OfType::EchoRequest, OfType::EchoRequest))
            .map(|s| s.total())
    })
}

/// Connects a switch through the proxy and completes the HELLO exchange.
fn handshake(listen: SocketAddr, ctrl_rx: &mpsc::Receiver<OfMessage>, xid: u32) -> TcpStream {
    let mut switch = TcpStream::connect(listen).unwrap();
    switch.write_all(&OfMessage::Hello.encode(xid)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );
    assert_eq!(read_one(&mut switch), Some(OfMessage::Hello));
    switch
}

/// A switch that reconnects while its old session is still registered
/// replaces that session, and the successor starts from fresh executor
/// state: the replaced session's timing samples end with it.
#[test]
fn replaced_session_does_not_hand_its_timing_state_to_the_successor() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(WATCH_TIMING, ctrl_addr);
    let listen = proxy.listen_addrs[0];

    // First session: two echoes give the tracked pair a real sample.
    let mut switch1 = handshake(listen, &ctrl_rx, 1);
    for (payload, xid) in [(1, 2), (2, 3)] {
        switch1
            .write_all(&OfMessage::EchoRequest(vec![payload]).encode(xid))
            .unwrap();
        assert_eq!(
            ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            OfMessage::EchoRequest(vec![payload])
        );
    }
    assert!(wait_until(Duration::from_secs(5), || {
        echo_pair_samples(&proxy).is_some_and(|n| n >= 1)
    }));

    // A second switch connects while the first never closed: its
    // session replaces the first one, which the proxy severs.
    let mut switch2 = handshake(listen, &ctrl_rx, 4);
    assert_eq!(read_one(&mut switch1), None, "replaced session still open");
    let stats = proxy.stats();
    assert_eq!((stats.sessions_opened, stats.sessions_closed), (2, 1));
    assert_eq!(stats.live_sessions, 1);

    // The successor's first echo lands in a fresh ring: one arrival,
    // zero samples.
    switch2
        .write_all(&OfMessage::EchoRequest(vec![3]).encode(5))
        .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        echo_pair_samples(&proxy).is_some()
    }));
    assert_eq!(
        echo_pair_samples(&proxy),
        Some(0),
        "the replacing session inherited the replaced one's timing samples"
    );
    proxy.shutdown();
}

/// `shutdown()` ends every live session through the same close path as
/// a disconnect, so no per-connection executor state outlives it.
#[test]
fn shutdown_releases_per_connection_executor_state() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(WATCH_TIMING, ctrl_addr);
    let mut switch = handshake(proxy.listen_addrs[0], &ctrl_rx, 1);
    switch
        .write_all(&OfMessage::EchoRequest(vec![1]).encode(2))
        .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        proxy.with_executor(|e| e.timing().tracked_connections()) == 1
    }));

    let report = proxy.shutdown();
    assert_eq!(report.stats.live_sessions, 0);
    assert_eq!(report.stats.sessions_closed, 1);
    assert_eq!(
        proxy.with_executor(|e| e.timing().tracked_connections()),
        0,
        "a session's timing state outlived shutdown"
    );
}

/// A hostile switch sends a header the proxy cannot frame — a wrong
/// version byte, or a length field under the 8-byte header. Its session
/// is reset, nothing it sent after the bad header reaches the
/// controller, and the route serves the next switch.
#[test]
fn unframeable_header_resets_the_session_and_the_route_serves_the_next_switch() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(scenario::attacks::TRIVIAL_PASS, ctrl_addr);
    let listen = proxy.listen_addrs[0];

    let mut wrong_version = OfMessage::EchoRequest(vec![1]).encode(2);
    wrong_version[0] = 0x04;
    let mut short_length = OfMessage::EchoRequest(vec![1]).encode(2);
    short_length[2..4].copy_from_slice(&4u16.to_be_bytes());
    for (closed, mut batch) in (1..).zip([wrong_version, short_length]) {
        let mut switch = handshake(listen, &ctrl_rx, 1);
        // A well-formed message rides behind the bad header.
        batch.extend(OfMessage::EchoRequest(vec![9]).encode(3));
        switch.write_all(&batch).unwrap();
        assert_eq!(read_one(&mut switch), None, "the session was not reset");
        assert!(wait_until(Duration::from_secs(5), || {
            proxy.stats().live_sessions == 0
        }));
        assert_eq!(proxy.stats().sessions_closed, closed);
    }

    // The next switch is served, and the controller's next message is
    // its HELLO: neither bad header nor the echo behind it got through.
    let _switch = handshake(listen, &ctrl_rx, 4);
    assert!(ctrl_rx.try_recv().is_err());
    let stats = proxy.stats();
    assert_eq!((stats.sessions_opened, stats.live_sessions), (3, 1));
    proxy.shutdown();
}

/// Spawns a `TRIVIAL_PASS` proxy with one route per entry of `conns`,
/// the first listening on an address already in use, and returns the
/// error the spawn fails with.
fn refused_spawn(conns: &[usize]) -> io::Error {
    let taken = TcpListener::bind("127.0.0.1:0").unwrap();
    let taken_addr = taken.local_addr().unwrap();
    let routes = (0..)
        .zip(conns)
        .map(|(i, &conn)| ProxyRoute {
            listen: if i == 0 {
                taken_addr
            } else {
                "127.0.0.1:0".parse().unwrap()
            },
            // Never dialled: the spawn fails first.
            controller: taken_addr,
            conn: ConnectionId(conn),
        })
        .collect();
    TcpProxy::spawn(executor(scenario::attacks::TRIVIAL_PASS), routes, None).unwrap_err()
}

/// A route naming a connection outside the attack's system model is
/// refused at spawn, before anything binds (its listen address is taken,
/// so binding first would fail differently). It used to be accepted, and the
/// first message then panicked the session's reader thread.
#[test]
fn spawn_refuses_a_route_outside_the_system_model() {
    let err = refused_spawn(&[99]);
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    assert!(
        err.to_string().contains("outside the system model"),
        "{err}"
    );
}

/// Two routes naming one connection are refused at spawn, before
/// anything binds. They used to be accepted, and the second route's
/// switch then closed the first route's session.
#[test]
fn spawn_refuses_two_routes_on_one_connection() {
    let err = refused_spawn(&[0, 0]);
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("already proxied"), "{err}");
}

/// The §VII-B interruption scenario over real sockets: sever and hold
/// down the route mid-run, watch reconnects being refused, restore at a
/// scheduled time, and verify the switch re-establishes service.
#[test]
fn interruption_harness_severs_holds_and_restores_route() {
    let (ctrl_addr, ctrl_rx) = fake_controller();
    let proxy = spawn_proxy(scenario::attacks::TRIVIAL_PASS, ctrl_addr);
    let listen = proxy.listen_addrs[0];

    // Healthy control channel first.
    let mut switch = TcpStream::connect(listen).unwrap();
    switch.write_all(&OfMessage::Hello.encode(1)).unwrap();
    assert_eq!(
        ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        OfMessage::Hello
    );
    assert_eq!(read_one(&mut switch), Some(OfMessage::Hello));

    // Interrupt: sever the live session and hold the route down.
    proxy.apply_fault(FaultAction::HoldDown { route: 0 });
    // The switch observes the disconnect…
    assert_eq!(read_one(&mut switch), None);
    assert_eq!(proxy.stats().live_sessions, 0);

    // …and its reconnect attempts are refused while the route is held:
    // the connection is accepted and immediately closed, no session
    // forms.
    let mut refused = TcpStream::connect(listen).unwrap();
    let _ = refused.write_all(&OfMessage::Hello.encode(2));
    assert_eq!(
        read_one(&mut refused),
        None,
        "held-down route served a session"
    );
    assert_eq!(proxy.stats().sessions_opened, 1);

    // Restoration is scheduled on the proxy's own timer, as in the
    // experiment timelines.
    proxy.schedule_fault(
        Duration::from_millis(200),
        FaultAction::Restore { route: 0 },
    );

    // The switch keeps retrying until the route comes back.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut restored = None;
    while Instant::now() < deadline {
        let mut attempt = match TcpStream::connect(listen) {
            Ok(s) => s,
            Err(_) => continue,
        };
        if attempt.write_all(&OfMessage::Hello.encode(3)).is_err() {
            continue;
        }
        if let Some(msg) = read_one(&mut attempt) {
            restored = Some((attempt, msg));
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    let (_switch, msg) = restored.expect("route never restored");
    assert_eq!(msg, OfMessage::Hello);

    let stats = proxy.stats();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.live_sessions, 1);
    proxy.shutdown();
}
