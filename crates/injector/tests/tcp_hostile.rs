//! Hostile peers on the real proxy: a switch that never reads while its
//! controller floods it must cost its own route, never another one, and
//! never the timer thread.

use attain_core::exec::AttackExecutor;
use attain_core::model::ConnectionId;
use attain_core::{dsl, scenario};
use attain_injector::tcp::{ProxyRoute, TcpProxy};
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

fn read_one(sock: &mut TcpStream) -> OfMessage {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Ok(Some(len)) = OfMessage::frame_len(&buf) {
            return OfMessage::decode(&buf[..len]).unwrap().0;
        }
        let n = sock.read(&mut chunk).expect("a frame within 5 s");
        assert!(n > 0, "connection closed early");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn a_switch_that_never_reads_stalls_only_its_own_route() {
    let controllers = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").unwrap());
    let routes = (0..2)
        .map(|conn| ProxyRoute {
            listen: "127.0.0.1:0".parse().unwrap(),
            controller: controllers[conn].local_addr().unwrap(),
            conn: ConnectionId(conn),
        })
        .collect();
    let proxy = TcpProxy::spawn(executor(DELAY_ECHO), routes, None).unwrap();

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

    let started = Instant::now();
    let report = proxy.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert!(report.stats.overflow_dropped > 0);
    assert_eq!(report.stats.live_sessions, 0);
    // Two acceptors, the timer and four loops per session.
    assert!(report.threads_joined >= 11, "{report:?}");
    flood.join().unwrap();
    drop(stalled_switch);
}
