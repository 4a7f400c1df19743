//! The injector on real sockets: a loopback OpenFlow "controller" and
//! "switch" talk through the ATTAIN TCP proxy while the flow-mod
//! suppression attack runs between them (paper §VI-B2's deployment
//! model: the switch is configured to treat the proxy as its
//! controller).
//!
//! ```sh
//! cargo run --example tcp_proxy
//! ```

use attain::core::exec::AttackExecutor;
use attain::core::model::ConnectionId;
use attain::core::{dsl, scenario};
use attain::injector::tcp::{ProxyRoute, TcpProxy};
use attain::openflow::{FlowMod, Match, OfMessage};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

fn read_frames(sock: &mut TcpStream, want: usize, timeout: Duration) -> Vec<OfMessage> {
    sock.set_read_timeout(Some(timeout)).expect("set timeout");
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 1024];
    while out.len() < want {
        match sock.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
        while let Ok(Some(len)) = OfMessage::frame_len(&buf) {
            let frame: Vec<u8> = buf.drain(..len).collect();
            out.push(OfMessage::decode(&frame).expect("valid frame").0);
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fake controller that answers HELLO and then pushes a FLOW_MOD
    // followed by an ECHO_REQUEST.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let controller_addr = listener.local_addr()?;
    thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("switch connects");
        let mut frames = read_frames(&mut sock, 1, Duration::from_secs(5));
        assert_eq!(frames.pop(), Some(OfMessage::Hello));
        println!("[controller] got HELLO; replying and pushing FLOW_MOD + ECHO_REQUEST");
        sock.write_all(&OfMessage::Hello.encode(1)).expect("write");
        let fm = OfMessage::FlowMod(FlowMod::add(Match::all(), vec![])).encode(2);
        sock.write_all(&fm).expect("write");
        sock.write_all(&OfMessage::EchoRequest(vec![42]).encode(3))
            .expect("write");
        thread::sleep(Duration::from_secs(10));
    });

    // The ATTAIN proxy, running the Figure 10 suppression attack on
    // connection (c1, s1).
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(
        scenario::attacks::FLOW_MOD_SUPPRESSION,
        &sc.system,
        &sc.attack_model,
    )?;
    let exec = AttackExecutor::new(sc.system, sc.attack_model, compiled.attack)?;
    let proxy = TcpProxy::spawn(
        exec,
        vec![ProxyRoute {
            listen: "127.0.0.1:0".parse()?,
            controller: controller_addr,
            conn: ConnectionId(0),
        }],
        None,
    )?;
    println!("[proxy] listening on {}", proxy.listen_addrs[0]);

    // The "switch" connects to the proxy, believing it is the controller.
    let mut switch = TcpStream::connect(proxy.listen_addrs[0])?;
    switch.write_all(&OfMessage::Hello.encode(1))?;
    let received = read_frames(&mut switch, 2, Duration::from_secs(3));
    println!("[switch] received: {received:?}");
    assert!(received.contains(&OfMessage::Hello));
    assert!(
        received.contains(&OfMessage::EchoRequest(vec![42])),
        "echo must pass"
    );
    assert!(
        !received.iter().any(|m| matches!(m, OfMessage::FlowMod(_))),
        "flow mod must be suppressed"
    );
    proxy.with_executor(|e| {
        println!(
            "[proxy] φ1 fired {} time(s); log has {} other records",
            e.log().rule_fires("phi1"),
            e.log().events().len()
        );
    });
    let report = proxy.shutdown();
    println!("[proxy] shutdown joined {} threads", report.threads_joined);
    print!("{}", report.stats);
    println!("the FLOW_MOD never reached the switch — suppression works on real sockets");
    Ok(())
}
