//! Pipelined bursts through the TCP proxy are not Nagle-stalled.
//!
//! The proxy writes one frame per `write`. Without `TCP_NODELAY` on its
//! session sockets, the second small frame of a burst waits in the
//! kernel for the peer's delayed ACK, so a window of 64 outstanding
//! messages takes one ~40 ms delayed-ACK period however fast the proxy
//! is. With it, the same window takes well under a millisecond. The
//! limit asserted here, 20 ms, sits a factor of 20 from either.
//!
//! The test thread owns both ends — the "switch" socket and the
//! accepted "controller" socket — so a window is timed from one
//! `write_all` to the last byte read back.

use attain_core::exec::AttackExecutor;
use attain_core::model::ConnectionId;
use attain_core::{dsl, scenario};
use attain_injector::tcp::{ProxyRoute, TcpProxy};
use attain_openflow::{FlowMod, Match, OfMessage, PacketIn, PacketInReason, PortNo};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const WINDOW: usize = 64;
const WINDOWS_EACH_WAY: usize = 20;
const LIMIT: Duration = Duration::from_millis(20);

/// Delays everything from the first switch by the same 50 ms, so a
/// pipelined burst is released by the timer thread in one go.
const DELAY_ALL: &str = r#"
attack delay_all {
    start state sigma1 {
        rule hold on (c1, s1) requires no_tls {
            when msg.source == s1
            do { delay(msg, 0.05); }
        }
    }
}
"#;

fn executor(source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap()
}

fn tuned(sock: TcpStream) -> TcpStream {
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock
}

/// A proxy running `source` with one live session: `(proxy, switch end,
/// controller end)`.
fn rig(source: &str) -> (TcpProxy, TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = TcpProxy::spawn(
        executor(source),
        vec![ProxyRoute {
            listen: "127.0.0.1:0".parse().unwrap(),
            controller: listener.local_addr().unwrap(),
            conn: ConnectionId(0),
        }],
        None,
    )
    .unwrap();
    let switch = tuned(TcpStream::connect(proxy.listen_addrs[0]).unwrap());
    let controller = tuned(accept_within_5s(&listener));
    (proxy, switch, controller)
}

/// The connection the proxy dials to `listener`: a proxy that never
/// dials fails the test instead of hanging it.
fn accept_within_5s(listener: &TcpListener) -> TcpStream {
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
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("accept: {e}"),
        }
    }
}

/// 64 frames back to back, every other one an ECHO_REQUEST and the rest
/// `other`, each stamped with its own transaction id so that no two
/// frames of a run are byte-identical.
fn burst(other: &OfMessage, first_xid: u32) -> Vec<u8> {
    let echo = OfMessage::EchoRequest(vec![0u8; 8]);
    (0..WINDOW as u32)
        .flat_map(|i| {
            let msg = if i % 2 == 0 { &echo } else { other };
            msg.encode(first_xid + i)
        })
        .collect()
}

/// Reads `want.len()` bytes and checks them against `want` — in-order,
/// byte-exact delivery. Returns when the first and the last byte came.
fn read_back(sock: &mut TcpStream, want: &[u8]) -> (Instant, Instant) {
    let mut got = vec![0u8; want.len()];
    let n = sock.read(&mut got).unwrap();
    assert!(n > 0, "connection closed early");
    let first = Instant::now();
    sock.read_exact(&mut got[n..]).unwrap();
    let last = Instant::now();
    assert!(got == want, "burst damaged or reordered in transit");
    (first, last)
}

fn median(mut walls: Vec<Duration>) -> Duration {
    walls.sort();
    walls[walls.len() / 2]
}

#[test]
fn pipelined_bursts_are_not_nagle_stalled() {
    let (proxy, mut switch, mut controller) = rig(scenario::attacks::TRIVIAL_PASS);
    let packet_in = OfMessage::PacketIn(PacketIn {
        buffer_id: None,
        total_len: 64,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        data: vec![0u8; 64],
    });
    let flow_mod = OfMessage::FlowMod(FlowMod::add(Match::all(), vec![]));

    let (mut up, mut down) = (Vec::new(), Vec::new());
    for w in 0..WINDOWS_EACH_WAY {
        let xid = (w * 2 * WINDOW) as u32;
        let sent = burst(&packet_in, xid);
        let t = Instant::now();
        switch.write_all(&sent).unwrap();
        read_back(&mut controller, &sent);
        up.push(t.elapsed());

        let sent = burst(&flow_mod, xid + WINDOW as u32);
        let t = Instant::now();
        controller.write_all(&sent).unwrap();
        read_back(&mut switch, &sent);
        down.push(t.elapsed());
    }
    let (up, down) = (median(up), median(down));
    assert!(up < LIMIT, "switch→controller window of 64: median {up:?}");
    assert!(
        down < LIMIT,
        "controller→switch window of 64: median {down:?}"
    );
    proxy.shutdown();
}

/// The same for a burst the timer thread releases: 64 equal-delay
/// deliveries fire together, in the executor's `seq` order.
#[test]
fn timer_released_bursts_are_not_nagle_stalled() {
    let (proxy, mut switch, mut controller) = rig(DELAY_ALL);
    let barrier = OfMessage::BarrierRequest;
    let spreads = (0..WINDOWS_EACH_WAY)
        .map(|w| {
            // A receiver delays its ACKs only once it has sent data
            // itself, as every OpenFlow speaker has: keep the channel
            // two-way with a controller→switch echo (not delayed).
            let ping = OfMessage::EchoRequest(vec![1]).encode(w as u32);
            controller.write_all(&ping).unwrap();
            read_back(&mut switch, &ping);
            let sent = burst(&barrier, (w * WINDOW) as u32);
            switch.write_all(&sent).unwrap();
            let (first, last) = read_back(&mut controller, &sent);
            last - first
        })
        .collect();
    let spread = median(spreads);
    assert!(
        spread < LIMIT,
        "first to last frame of a released burst: median {spread:?}"
    );
    assert_eq!(proxy.stats().overflow_dropped, 0);
    proxy.shutdown();
}
