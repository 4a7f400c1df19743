//! Hosts a [`Controller`] implementation on simulated control-plane
//! connections: OpenFlow handshake, liveness, and a serial processing
//! model for the controller's event loop. A controller is one more node
//! of the simulation: like a switch, it answers a control message or a
//! timer by writing [`Effect`]s.

use crate::engine::{ConnId, Effect, TimerToken};
use crate::interpose::Direction;
use crate::time::SimTime;
use crate::trace::TraceKind;
use attain_controllers::{Controller, Outbox};
use attain_openflow::{DatapathId, Frame, OfMessage, OfType, Xid};

/// Controller-side silence threshold before a switch is declared gone.
const DEAD_AFTER: SimTime = SimTime::from_secs(15);

/// Consecutive undecodable messages on one connection before the
/// controller resets it: a corrupted stream cannot stay "up" forever.
pub(crate) const MAX_DECODE_FAILURES: u32 = 8;

/// Handshake state of the controller's side of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitHello,
    WaitFeatures,
    Up,
}

#[derive(Debug, Clone)]
struct CtrlConn {
    conn: ConnId,
    phase: Phase,
    dpid: Option<DatapathId>,
    last_rx: SimTime,
    next_xid: Xid,
    /// Consecutive undecodable deliveries (reset by any good message).
    decode_fails: u32,
}

/// A controller process: platform runtime + hosted application.
pub struct ControllerHost {
    name: String,
    app: Box<dyn Controller>,
    conns: Vec<CtrlConn>,
    /// The event loop is busy until this time; each message's processing
    /// starts no earlier (the serial-bottleneck model that makes the
    /// controller path a measurable data-plane detour under attack).
    busy_until: SimTime,
    /// `false` after a crash fault, until the matching restart.
    alive: bool,
    /// Crash faults applied (for the fault report).
    pub(crate) crashes: u64,
    /// Restart faults applied (for the fault report).
    pub(crate) restarts: u64,
    /// Total undecodable deliveries observed across all connections.
    pub decode_failures: u64,
}

impl std::fmt::Debug for ControllerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerHost")
            .field("name", &self.name)
            .field("kind", &self.app.kind())
            .field("conns", &self.conns.len())
            .finish()
    }
}

impl ControllerHost {
    pub(crate) fn new(name: String, app: Box<dyn Controller>) -> ControllerHost {
        ControllerHost {
            name,
            app,
            conns: Vec::new(),
            busy_until: SimTime::ZERO,
            alive: true,
            crashes: 0,
            restarts: 0,
            decode_failures: 0,
        }
    }

    /// A copy of this process in its current state, or `None` when its
    /// application cannot fork ([`Controller::fork`]).
    pub(crate) fn fork(&self) -> Option<ControllerHost> {
        Some(ControllerHost {
            name: self.name.clone(),
            app: self.app.fork()?,
            conns: self.conns.clone(),
            busy_until: self.busy_until,
            alive: self.alive,
            crashes: self.crashes,
            restarts: self.restarts,
            decode_failures: self.decode_failures,
        })
    }

    /// The controller's name (e.g. `c1`).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn add_conn(&mut self, conn: ConnId) {
        self.conns.push(CtrlConn {
            conn,
            phase: Phase::WaitHello,
            dpid: None,
            last_rx: SimTime::ZERO,
            next_xid: 0x1000,
            decode_fails: 0,
        });
    }

    /// Whether the process is running (not crashed by a fault).
    pub(crate) fn is_alive(&self) -> bool {
        self.alive
    }

    /// A crash fault: the process dies. Every connection is torn down
    /// (the application sees disconnects first — its last gasp — then
    /// all state is lost; the restart builds a pristine app). `false`
    /// if it was already down.
    pub(crate) fn crash(&mut self) -> bool {
        if !self.alive {
            return false;
        }
        self.alive = false;
        self.crashes += 1;
        for c in &mut self.conns {
            if c.phase == Phase::Up {
                if let Some(dpid) = c.dpid.take() {
                    self.app.on_switch_disconnect(dpid);
                }
            }
            c.phase = Phase::WaitHello;
            c.dpid = None;
            c.decode_fails = 0;
        }
        self.app.reset();
        true
    }

    /// A restart fault: a fresh process comes up. Handshake state and
    /// the hosted application start from scratch; switches re-handshake
    /// when their reconnect timers fire. `false` if it was already up.
    pub(crate) fn restart(&mut self) -> bool {
        if self.alive {
            return false;
        }
        self.alive = true;
        self.restarts += 1;
        self.busy_until = SimTime::ZERO;
        for c in &mut self.conns {
            c.phase = Phase::WaitHello;
            c.dpid = None;
            c.next_xid = 0x1000;
            c.decode_fails = 0;
        }
        self.app.reset();
        true
    }

    fn conn_index(&self, conn: ConnId) -> Option<usize> {
        self.conns.iter().position(|c| c.conn == conn)
    }

    /// Computes when processing started `now` departs, advancing the
    /// serial event loop.
    fn depart_time(&mut self, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let depart = start + SimTime::from_micros(self.app.processing_delay_us());
        self.busy_until = depart;
        depart
    }

    /// Sends, departing `at`, the frame `encode` makes with connection
    /// `i`'s next xid: the one place the controller writes
    /// [`Effect::Control`].
    fn send(
        &mut self,
        i: usize,
        at: SimTime,
        fx: &mut Vec<Effect>,
        encode: impl FnOnce(Xid) -> Option<Frame>,
    ) {
        let c = &mut self.conns[i];
        let xid = c.next_xid;
        c.next_xid += 1;
        if let Some(frame) = encode(xid) {
            fx.push(Effect::Control {
                conn: c.conn,
                frame,
                at,
            });
        }
    }

    /// Runs one application handler through the serial event loop and
    /// sends what it emitted to each addressed switch that is up.
    fn run_app(
        &mut self,
        now: SimTime,
        fx: &mut Vec<Effect>,
        handler: impl FnOnce(&mut dyn Controller, &mut Outbox),
    ) {
        let depart = self.depart_time(now);
        let mut out = Outbox::new();
        handler(&mut *self.app, &mut out);
        for (dpid, msg) in out.drain() {
            let up = self
                .conns
                .iter()
                .position(|c| c.dpid == Some(dpid) && c.phase == Phase::Up);
            if let Some(i) = up {
                self.send(i, depart, fx, |xid| Some(Frame::from_message(msg, xid)));
            }
        }
    }

    /// An encoded message arrived from a switch on `conn`.
    pub(crate) fn handle_control(
        &mut self,
        conn: ConnId,
        frame: &Frame,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        if !self.alive {
            // A crashed process reads nothing off its sockets.
            return;
        }
        let Some(i) = self.conn_index(conn) else {
            return;
        };
        self.conns[i].last_rx = now;
        let Some((msg, _xid)) = frame.decoded() else {
            // Garbled bytes at the controller: platforms log and drop —
            // but a persistently corrupted stream means the peer (or the
            // path) is broken, so after enough consecutive failures the
            // connection is reset rather than left "up" forever.
            self.decode_failures += 1;
            self.conns[i].decode_fails += 1;
            fx.push(Effect::Trace(TraceKind::DecodeFailure {
                conn,
                direction: Direction::SwitchToController,
            }));
            if self.conns[i].decode_fails >= MAX_DECODE_FAILURES {
                let failures = self.conns[i].decode_fails;
                self.conns[i].phase = Phase::WaitHello;
                self.conns[i].decode_fails = 0;
                if let Some(dpid) = self.conns[i].dpid.take() {
                    self.app.on_switch_disconnect(dpid);
                }
                fx.push(Effect::Trace(TraceKind::ConnectionReset { conn, failures }));
            }
            return;
        };
        self.conns[i].decode_fails = 0;
        // The switch's dpid, once its handshake is done.
        let up = self.conns[i]
            .dpid
            .filter(|_| self.conns[i].phase == Phase::Up);
        match msg {
            OfMessage::Hello => {
                // A HELLO in any phase (re)starts the handshake.
                if let Some(dpid) = up {
                    self.app.on_switch_disconnect(dpid);
                }
                self.conns[i].phase = Phase::WaitFeatures;
                let depart = self.depart_time(now);
                for reply in [OfMessage::Hello, OfMessage::FeaturesRequest] {
                    self.send(i, depart, fx, |xid| Some(Frame::from_message(reply, xid)));
                }
            }
            OfMessage::FeaturesReply(features) => {
                if self.conns[i].phase == Phase::WaitFeatures {
                    let dpid = features.datapath_id;
                    self.conns[i].phase = Phase::Up;
                    self.conns[i].dpid = Some(dpid);
                    self.run_app(now, fx, |app, out| {
                        app.on_switch_connect(dpid, features, out)
                    });
                }
            }
            OfMessage::EchoRequest(_) => {
                // Echo handling bypasses the application (platform duty).
                // The reply is the request with the header's type and xid
                // patched: same body, no decode→re-encode round trip.
                let depart = self.depart_time(now);
                self.send(i, depart, fx, |xid| {
                    frame.patched_reply(OfType::EchoReply, xid)
                });
            }
            OfMessage::EchoReply(_) => {}
            // Anything else is the application's, once the switch is up.
            msg => {
                if let Some(dpid) = up {
                    self.run_app(now, fx, |app, out| match msg {
                        OfMessage::PacketIn(pi) => app.on_packet_in(dpid, pi, out),
                        other => app.on_message(dpid, other, out),
                    });
                }
            }
        }
    }

    /// The periodic liveness sweep: declares silent switches
    /// disconnected, and re-arms itself in 2 s whether or not the process
    /// is alive.
    pub(crate) fn tick(&mut self, now: SimTime, fx: &mut Vec<Effect>) {
        fx.push(Effect::Timer {
            at: now + SimTime::from_secs(2),
            token: TimerToken::ControllerTick,
        });
        if !self.alive {
            return;
        }
        for c in &mut self.conns {
            if c.phase == Phase::Up && now.saturating_sub(c.last_rx) >= DEAD_AFTER {
                c.phase = Phase::WaitHello;
                if let Some(dpid) = c.dpid.take() {
                    self.app.on_switch_disconnect(dpid);
                }
            }
        }
    }

    /// Whether the connection has completed its handshake.
    #[cfg(test)]
    fn is_up(&self, conn: ConnId) -> bool {
        self.conn_index(conn)
            .map(|i| self.conns[i].phase == Phase::Up)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_controllers::ControllerKind;
    use attain_openflow::{MacAddr, PhyPort, PortNo, SwitchFeatures};

    fn features(dpid: u64) -> SwitchFeatures {
        SwitchFeatures {
            datapath_id: DatapathId(dpid),
            n_buffers: 256,
            n_tables: 1,
            capabilities: 0,
            actions: 0xfff,
            ports: vec![PhyPort::simulated(PortNo(1), MacAddr::from_low(1))],
        }
    }

    fn host() -> ControllerHost {
        let mut h = ControllerHost::new("c1".into(), ControllerKind::Floodlight.instantiate());
        h.add_conn(ConnId(0));
        h
    }

    /// Delivers `msg` on connection 0 at `now`; returns the messages sent
    /// with their departure times.
    fn deliver(h: &mut ControllerHost, msg: OfMessage, now: SimTime) -> Vec<(OfMessage, SimTime)> {
        let mut fx = Vec::new();
        h.handle_control(ConnId(0), &Frame::from_message(msg, 1), now, &mut fx);
        fx.into_iter()
            .map(|e| match e {
                Effect::Control { frame, at, .. } => (frame.message().unwrap().clone(), at),
                other => panic!("not a send: {other:?}"),
            })
            .collect()
    }

    /// `h` with its connection's handshake done at t = 0.
    fn connected() -> ControllerHost {
        let mut h = host();
        deliver(&mut h, OfMessage::Hello, SimTime::ZERO);
        deliver(&mut h, OfMessage::FeaturesReply(features(7)), SimTime::ZERO);
        h
    }

    #[test]
    fn hello_yields_hello_and_features_request() {
        let mut h = host();
        let sent: Vec<_> = deliver(&mut h, OfMessage::Hello, SimTime::ZERO)
            .into_iter()
            .map(|(msg, _)| msg)
            .collect();
        assert_eq!(sent, [OfMessage::Hello, OfMessage::FeaturesRequest]);
        assert!(!h.is_up(ConnId(0)));
    }

    #[test]
    fn features_reply_completes_handshake() {
        let mut h = host();
        deliver(&mut h, OfMessage::Hello, SimTime::ZERO);
        let reply = OfMessage::FeaturesReply(features(7));
        deliver(&mut h, reply, SimTime::from_millis(1));
        assert!(h.is_up(ConnId(0)));
    }

    #[test]
    fn echo_request_is_answered_without_the_app() {
        let mut h = host();
        let sent = deliver(&mut h, OfMessage::EchoRequest(vec![9]), SimTime::ZERO);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, OfMessage::EchoReply(vec![9]));
    }

    #[test]
    fn serial_processing_queues_departures() {
        let mut h = connected();
        // Two echo requests arriving at the same instant depart one
        // processing quantum apart.
        let now = SimTime::from_secs(1);
        let s1 = deliver(&mut h, OfMessage::EchoRequest(vec![1]), now);
        let s2 = deliver(&mut h, OfMessage::EchoRequest(vec![2]), now);
        assert!(s2[0].1 > s1[0].1);
        let quantum = s2[0].1 - s1[0].1;
        assert_eq!(quantum, SimTime::from_micros(300)); // Floodlight's delay
    }

    #[test]
    fn silence_disconnects_the_switch() {
        let mut h = connected();
        assert!(h.is_up(ConnId(0)));
        h.tick(SimTime::from_secs(20), &mut Vec::new());
        assert!(!h.is_up(ConnId(0)));
    }

    #[test]
    fn the_liveness_tick_rearms_itself_alive_or_crashed() {
        let mut h = host();
        for crashed in [false, true] {
            if crashed {
                h.crash();
            }
            let mut fx = Vec::new();
            h.tick(SimTime::from_secs(4), &mut fx);
            assert!(
                matches!(
                    fx[..],
                    [Effect::Timer {
                        at,
                        token: TimerToken::ControllerTick
                    }] if at == SimTime::from_secs(6)
                ),
                "crashed: {crashed}, {fx:?}"
            );
        }
    }

    #[test]
    fn packet_in_before_handshake_is_ignored() {
        let mut h = host();
        let pi = OfMessage::PacketIn(attain_openflow::PacketIn {
            buffer_id: None,
            total_len: 0,
            in_port: PortNo(1),
            reason: attain_openflow::PacketInReason::NoMatch,
            data: vec![],
        });
        assert!(deliver(&mut h, pi, SimTime::ZERO).is_empty());
    }

    #[test]
    fn garbage_bytes_are_dropped_silently() {
        let mut h = host();
        let mut fx = Vec::new();
        h.handle_control(
            ConnId(0),
            &Frame::new(vec![0xde, 0xad]),
            SimTime::ZERO,
            &mut fx,
        );
        assert!(
            matches!(
                fx[..],
                [Effect::Trace(TraceKind::DecodeFailure {
                    conn: ConnId(0),
                    direction: Direction::SwitchToController
                })]
            ),
            "{fx:?}"
        );
    }
}
