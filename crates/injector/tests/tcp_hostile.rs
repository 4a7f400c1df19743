//! Hostile peers on the real proxy: a switch that never reads while its
//! controller floods it, or a controller flooding a route under a long
//! `delay`, must cost its own route, never another one, and never the
//! timer thread.

use attain_core::exec::AttackExecutor;
use attain_core::model::ConnectionId;
use attain_core::{dsl, scenario};
use attain_injector::tcp::{ProxyRoute, TcpProxy, WRITE_QUEUE_CAP};
use attain_openflow::OfMessage;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Delays every `ECHO_REQUEST`, on any connection, by 10 ms: each one
/// crosses the proxy on its timer thread.
const DELAY_ECHO: &str = r#"
attack delay_echo {
    start state sigma1 {
        rule hold on all requires no_tls {
            when msg.type == ECHO_REQUEST
            do { delay(msg, 0.01); }
        }
    }
}
"#;

/// Delays every `ECHO_REQUEST`, on any connection, by 5 s.
const DELAY_ECHO_5S: &str = r#"
attack delay_echo_5s {
    start state sigma1 {
        rule hold on all requires no_tls {
            when msg.type == ECHO_REQUEST
            do { delay(msg, 5.0); }
        }
    }
}
"#;

/// Passes every message, matching each.
const PASS_ALL: &str = r#"
attack pass_all {
    start state sigma1 {
        rule pass_all on all requires no_tls {
            when true
            do { pass(msg); }
        }
    }
}
"#;

/// Frames sent by the flooding controller at most: ≈ 128 MiB of echo
/// requests, far more than the stalled route's socket buffers and write
/// queue hold.
const FLOOD_CAP: usize = 8192;

fn executor(source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap()
}

/// Connects a switch to `route` and returns it with the controller end
/// the proxy dialled.
fn session(proxy: &TcpProxy, controller: &TcpListener, route: usize) -> (TcpStream, TcpStream) {
    let switch = TcpStream::connect(proxy.listen_addrs[route]).unwrap();
    controller.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match controller.accept() {
            Ok((ctrl, _)) => {
                ctrl.set_nonblocking(false).unwrap();
                return (switch, ctrl);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "the proxy never dialled");
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("accept: {e}"),
        }
    }
}

/// The next message on `sock`, which must come `within` the given time.
fn read_within(sock: &mut TcpStream, within: Duration) -> OfMessage {
    sock.set_read_timeout(Some(within)).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Ok(Some(len)) = OfMessage::frame_len(&buf) {
            return OfMessage::decode(&buf[..len]).unwrap().0;
        }
        let n = sock.read(&mut chunk).expect("a frame in time");
        assert!(n > 0, "connection closed early");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn read_one(sock: &mut TcpStream) -> OfMessage {
    read_within(sock, Duration::from_secs(5))
}

/// A proxy under `source` with two routes, and the controllers' listeners.
fn two_routes(source: &str) -> (TcpProxy, [TcpListener; 2]) {
    let controllers = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").unwrap());
    let routes = (0..2)
        .map(|conn| ProxyRoute {
            listen: "127.0.0.1:0".parse().unwrap(),
            controller: controllers[conn].local_addr().unwrap(),
            conn: ConnectionId(conn),
        })
        .collect();
    let proxy = TcpProxy::spawn(executor(source), routes, None).unwrap();
    (proxy, controllers)
}

/// Shuts `proxy` down and checks it joined every thread within 5 s.
fn shutdown_within_5s(proxy: TcpProxy) -> attain_injector::tcp::ShutdownReport {
    let started = Instant::now();
    let report = proxy.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(report.stats.live_sessions, 0);
    report
}

#[test]
fn a_switch_that_never_reads_stalls_only_its_own_route() {
    let (proxy, controllers) = two_routes(DELAY_ECHO);

    // Route 0: the switch never reads; its controller floods it with
    // delayed echo requests until the proxy shuts the socket.
    let (stalled_switch, mut flooding) = session(&proxy, &controllers[0], 0);
    let flood = thread::spawn(move || {
        let echo = OfMessage::EchoRequest(vec![0xab; 16 * 1024]).encode(7);
        for _ in 0..FLOOD_CAP {
            if flooding.write_all(&echo).is_err() {
                return;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while proxy.stats().overflow_dropped == 0 {
        assert!(Instant::now() < deadline, "the timer never dropped");
        thread::sleep(Duration::from_millis(5));
    }

    // Route 1 still serves both directions, immediate and delayed.
    let (mut switch, mut controller) = session(&proxy, &controllers[1], 1);
    controller
        .write_all(&OfMessage::BarrierRequest.encode(1))
        .unwrap();
    assert_eq!(read_one(&mut switch), OfMessage::BarrierRequest);
    controller
        .write_all(&OfMessage::EchoRequest(vec![2]).encode(2))
        .unwrap();
    assert_eq!(read_one(&mut switch), OfMessage::EchoRequest(vec![2]));
    switch
        .write_all(&OfMessage::EchoRequest(vec![3]).encode(3))
        .unwrap();
    assert_eq!(read_one(&mut controller), OfMessage::EchoRequest(vec![3]));

    let report = shutdown_within_5s(proxy);
    assert!(report.stats.overflow_dropped > 0);
    // Two acceptors, the timer and four loops per session.
    assert!(report.threads_joined >= 11, "{report:?}");
    flood.join().unwrap();
    drop(stalled_switch);
}

#[test]
fn a_delayed_flood_is_bounded_per_route_in_the_timer() {
    let (proxy, controllers) = two_routes(DELAY_ECHO_5S);

    // Route 0: its controller sends more echo requests than the timer
    // holds for one route, each delayed 5 s.
    let flood = WRITE_QUEUE_CAP + 476;
    let (_switch, mut flooding) = session(&proxy, &controllers[0], 0);
    let started = Instant::now();
    let echo = OfMessage::EchoRequest(vec![0xab; 8]).encode(7);
    for _ in 0..flood {
        flooding.write_all(&echo).unwrap();
    }
    // Nothing is due before 5 s, so no write queue can have overflowed:
    // every drop is the timer's own bound.
    let excess = (flood - WRITE_QUEUE_CAP) as u64;
    while proxy.stats().overflow_dropped < excess {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the timer held the whole flood"
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(proxy.stats().overflow_dropped, excess);

    // Route 1's delayed deliveries still go through, in both directions.
    let (mut switch, mut controller) = session(&proxy, &controllers[1], 1);
    controller
        .write_all(&OfMessage::EchoRequest(vec![2]).encode(2))
        .unwrap();
    switch
        .write_all(&OfMessage::EchoRequest(vec![3]).encode(3))
        .unwrap();
    let within = Duration::from_secs(10);
    assert_eq!(
        read_within(&mut switch, within),
        OfMessage::EchoRequest(vec![2])
    );
    assert_eq!(
        read_within(&mut controller, within),
        OfMessage::EchoRequest(vec![3])
    );

    let report = shutdown_within_5s(proxy);
    assert!(report.stats.overflow_dropped >= excess);
}

#[test]
fn an_attack_that_matches_every_message_does_not_grow_the_log() {
    let (proxy, controllers) = two_routes(PASS_ALL);
    let (mut switch, mut controller) = session(&proxy, &controllers[0], 0);
    let logged = proxy.with_executor(|e| e.log().events().len());
    for xid in 0..2000 {
        let request = OfMessage::EchoRequest(vec![1]);
        controller.write_all(&request.encode(xid)).unwrap();
        assert_eq!(read_one(&mut switch), request);
        let reply = OfMessage::EchoReply(vec![1]);
        switch.write_all(&reply.encode(xid)).unwrap();
        assert_eq!(read_one(&mut controller), reply);
    }
    let (events, fires) =
        proxy.with_executor(|e| (e.log().events().len(), e.log().rule_fires("pass_all")));
    assert_eq!(events, logged);
    assert_eq!(fires, 4000);
    shutdown_within_5s(proxy);
}

#[test]
fn a_long_operator_chain_runs_on_the_proxy_threads() {
    let when = format!("{} == 10000", vec!["1"; 10_000].join(" + "));
    let source = PASS_ALL.replace("when true", &format!("when {when}"));
    let (proxy, controllers) = two_routes(&source);
    let (mut switch, mut controller) = session(&proxy, &controllers[0], 0);
    let request = OfMessage::EchoRequest(vec![1]);
    controller.write_all(&request.encode(1)).unwrap();
    assert_eq!(read_one(&mut switch), request);
    let fires = proxy.with_executor(|e| e.log().rule_fires("pass_all"));
    assert_eq!(fires, 1);
    shutdown_within_5s(proxy);
}
