//! The Open vSwitch model: flow tables, packet buffering, `PACKET_IN`,
//! liveness probing, and the fail-safe / fail-secure behaviours.

mod flow_table;

pub use flow_table::{ApplyOutcome, EvictionPolicy, FlowEntry, FlowModError, FlowTable};

use crate::engine::{ConnId, Effect, TimerToken};
use crate::interpose::Direction;
use crate::time::SimTime;
use crate::trace::TraceKind;
use attain_openflow::packet::{self, Ethernet, IpPayload, Payload};
use attain_openflow::{
    bad_request, flow_mod_failed, Action, CodecError, DatapathId, ErrorMsg, ErrorType, FlowKey,
    FlowMod, FlowRemoved, Frame, MacAddr, OfMessage, OfType, PacketIn, PacketInReason, PhyPort,
    PortNo, StatsBody, StatsReplyBody, SwitchConfig, SwitchDesc, SwitchFeatures, Xid,
};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

/// OVS `fail-mode`: what a switch does for new flows while it has no
/// controller connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailMode {
    /// `standalone` — take over as a legacy MAC-learning switch (the
    /// paper's "fail safe"). Increases availability but also lets
    /// unauthorized traffic through: Table II's trade-off.
    Safe,
    /// `secure` — keep existing flows, drop everything that misses (the
    /// paper's "fail secure"). Preserves policy but denies legitimate
    /// traffic.
    Secure,
}

/// How many packets a switch can buffer awaiting controller decisions,
/// mirroring `FEATURES_REPLY.n_buffers`.
const BUFFER_CAPACITY: usize = 256;
/// Send an echo probe after this much control-plane rx silence.
const PROBE_AFTER: SimTime = SimTime::from_secs(5);
/// Declare the connection dead after this much rx silence.
const DEAD_AFTER: SimTime = SimTime::from_secs(15);
/// Handshake timeout (HELLO sent, nothing back).
const HANDSHAKE_TIMEOUT: SimTime = SimTime::from_secs(5);
/// Pause between reconnect attempts.
const RECONNECT_AFTER: SimTime = SimTime::from_secs(5);

/// A packet parked in the switch awaiting a controller verdict.
#[derive(Debug, Clone)]
struct BufferedPacket {
    id: u32,
    frame: Vec<u8>,
    in_port: PortNo,
}

/// Handshake/liveness state of the switch's side of one control
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    /// Not yet attempted.
    Idle,
    /// HELLO sent, awaiting the controller.
    HelloSent,
    /// Handshake complete.
    Up,
    /// Declared dead; reconnect pending.
    Dead,
}

#[derive(Debug, Clone)]
struct SwitchConn {
    conn: ConnId,
    phase: ConnPhase,
    last_rx: SimTime,
    attempt: u32,
    next_xid: Xid,
}

/// A simulated OpenFlow 1.0 switch (the OVS v1.9.3 model).
#[derive(Debug, Clone)]
pub struct Switch {
    name: String,
    dpid: DatapathId,
    ports: Vec<PortNo>,
    /// Read only through [`Switch::fail_mode`].
    fail_mode: FailMode,
    /// Built fail-safe in a run that defers the choice: the run splits
    /// before this switch first consults its mode
    /// ([`Simulation::defer_fail_mode`](crate::Simulation::defer_fail_mode)).
    undecided: bool,
    table: FlowTable,
    buffers: VecDeque<BufferedPacket>,
    next_buffer_id: u32,
    mac_table: HashMap<MacAddr, PortNo>,
    config: SwitchConfig,
    conns: Vec<SwitchConn>,
    /// Packets dropped because no rule matched and the switch was in
    /// fail-secure lockdown.
    pub secure_drops: u64,
    /// Packets forwarded by standalone learning while disconnected.
    pub standalone_forwards: u64,
    /// Times this switch was power-cycled by a fault.
    pub restarts: u64,
}

impl Switch {
    /// Creates a switch; `ports` are assigned by the topology builder.
    pub(crate) fn new(name: String, dpid: DatapathId, fail_mode: FailMode) -> Switch {
        Switch {
            name,
            dpid,
            ports: Vec::new(),
            fail_mode,
            undecided: false,
            table: FlowTable::default(),
            buffers: VecDeque::new(),
            next_buffer_id: 1,
            mac_table: HashMap::new(),
            config: SwitchConfig::default(),
            conns: Vec::new(),
            secure_drops: 0,
            standalone_forwards: 0,
            restarts: 0,
        }
    }

    /// The switch's name (e.g. `s2`).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The switch's datapath id.
    #[cfg(test)]
    pub(crate) fn dpid(&self) -> DatapathId {
        self.dpid
    }

    /// The switch's fail mode, for a decision that depends on it. The one
    /// read path: a deferring run splits before an undecided switch gets
    /// here, which the audit holds in debug builds.
    fn fail_mode(&self) -> FailMode {
        debug_assert!(
            !self.undecided,
            "{} consulted its fail mode undecided: a split predicate missed the read",
            self.name
        );
        self.fail_mode
    }

    /// Defers the mode of a fail-safe switch, returning whether it did; a
    /// fail-secure switch is the same on both sides of a split.
    pub(crate) fn defer_fail_mode(&mut self) -> bool {
        self.undecided = self.fail_mode == FailMode::Safe;
        self.undecided
    }

    /// Settles a deferred mode as `mode`; a decided switch keeps its own.
    pub(crate) fn decide_fail_mode(&mut self, mode: FailMode) {
        if std::mem::take(&mut self.undecided) {
            self.fail_mode = mode;
        }
    }

    /// Whether a frame arriving now may consult an undecided mode: a
    /// table miss while disconnected does.
    pub(crate) fn frame_reads_fail_mode(&self) -> bool {
        self.undecided && !self.is_connected()
    }

    /// Whether [`Switch::tick`] at `now` consults an undecided mode.
    pub(crate) fn tick_reads_fail_mode(&self, now: SimTime) -> bool {
        self.undecided && self.enters_fail_mode(now)
    }

    /// Whether a tick at `now` enters fail mode, and so reads it: some
    /// connection that is up has been silent for [`DEAD_AFTER`], and none
    /// would stay up.
    fn enters_fail_mode(&self, now: SimTime) -> bool {
        let mut up = self.conns.iter().filter(|c| c.phase == ConnPhase::Up);
        let dead = |c: &SwitchConn| now.saturating_sub(c.last_rx) >= DEAD_AFTER;
        up.clone().next().is_some() && up.all(dead)
    }

    /// The flow table (for assertions and stats).
    pub fn flow_table(&self) -> &FlowTable {
        &self.table
    }

    /// Reconfigures the flow table's capacity and overflow policy.
    /// Replaces the table wholesale, so this belongs in topology setup,
    /// before any traffic.
    pub(crate) fn set_table_config(&mut self, capacity: usize, policy: EvictionPolicy) {
        self.table = FlowTable::with_policy(capacity, policy);
    }

    /// Applies a flow-mod directly to the table (proactive provisioning;
    /// no control-plane traffic, no trace events).
    pub(crate) fn install_flow(
        &mut self,
        fm: &FlowMod,
        now: SimTime,
    ) -> Result<ApplyOutcome, FlowModError> {
        self.table.apply(fm, now)
    }

    /// Whether any control connection is fully up.
    pub fn is_connected(&self) -> bool {
        self.conns.iter().any(|c| c.phase == ConnPhase::Up)
    }

    pub(crate) fn add_port(&mut self, port: PortNo) {
        self.ports.push(port);
    }

    pub(crate) fn add_conn(&mut self, conn: ConnId) {
        self.conns.push(SwitchConn {
            conn,
            phase: ConnPhase::Idle,
            last_rx: SimTime::ZERO,
            attempt: 0,
            next_xid: 1,
        });
    }

    fn conn_mut(&mut self, conn: ConnId) -> Option<&mut SwitchConn> {
        self.conns.iter_mut().find(|c| c.conn == conn)
    }

    /// Allocates the next xid on `conn`, or `None` for an unknown conn.
    fn take_xid(&mut self, conn: ConnId) -> Option<Xid> {
        let c = self.conn_mut(conn)?;
        let x = c.next_xid;
        c.next_xid += 1;
        Some(x)
    }

    /// Sends `frame` on `conn`: the one place a switch writes
    /// [`Effect::Control`]. A switch has no processing queue, so the
    /// message leaves at once.
    fn emit(conn: ConnId, frame: Frame, now: SimTime, fx: &mut Vec<Effect>) {
        fx.push(Effect::Control {
            conn,
            frame,
            at: now,
        });
    }

    /// Sends `msg` on `conn` under the connection's next xid.
    fn send(&mut self, conn: ConnId, msg: OfMessage, now: SimTime, fx: &mut Vec<Effect>) {
        if let Some(xid) = self.take_xid(conn) {
            Self::emit(conn, Frame::from_message(msg, xid), now, fx);
        }
    }

    /// Answers the undecodable or refused `request` on `conn` with an
    /// `ERROR` carrying its first 64 bytes, as the spec asks.
    fn send_error(
        &mut self,
        conn: ConnId,
        error_type: ErrorType,
        code: u16,
        request: &Frame,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let data = request.bytes()[..request.len().min(64)].to_vec();
        let error = ErrorMsg {
            error_type,
            code,
            data,
        };
        self.send(conn, OfMessage::Error(error), now, fx);
    }

    /// Sends `msg` on every connection that is up. Each connection gets
    /// its own xid (so its own encoding), but the message itself is
    /// moved into the final send rather than cloned for it.
    fn send_to_up(&mut self, msg: OfMessage, now: SimTime, fx: &mut Vec<Effect>) {
        let up: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|c| c.phase == ConnPhase::Up)
            .map(|c| c.conn)
            .collect();
        let Some((&last, rest)) = up.split_last() else {
            return;
        };
        for &conn in rest {
            self.send(conn, msg.clone(), now, fx);
        }
        self.send(last, msg, now, fx);
    }

    /// Begins (or retries) the OpenFlow handshake on `conn`.
    pub(crate) fn start_connect(&mut self, conn: ConnId, now: SimTime, fx: &mut Vec<Effect>) {
        let attempt = {
            let c = match self.conn_mut(conn) {
                Some(c) => c,
                None => return,
            };
            if c.phase == ConnPhase::Up {
                return;
            }
            c.phase = ConnPhase::HelloSent;
            c.attempt += 1;
            c.last_rx = now;
            c.attempt
        };
        self.send(conn, OfMessage::Hello, now, fx);
        fx.push(Effect::Timer {
            at: now + HANDSHAKE_TIMEOUT,
            token: TimerToken::HandshakeDeadline { conn, attempt },
        });
    }

    /// The handshake deadline for `attempt` fired.
    pub(crate) fn handshake_deadline(
        &mut self,
        conn: ConnId,
        attempt: u32,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let c = match self.conn_mut(conn) {
            Some(c) => c,
            None => return,
        };
        if c.phase == ConnPhase::HelloSent && c.attempt == attempt {
            c.phase = ConnPhase::Dead;
            fx.push(Effect::Timer {
                at: now + RECONNECT_AFTER,
                token: TimerToken::Connect { conn },
            });
        }
    }

    /// Power-cycles the switch: the flow table is wiped (no
    /// `FLOW_REMOVED` is sent — the entries died with the process, there
    /// is nothing left to report them), table counters are zeroed,
    /// buffered packets and learned MACs are discarded, the config
    /// reverts to defaults, and every control connection re-handshakes
    /// from scratch. Until a handshake completes the configured fail
    /// mode governs forwarding, exactly as after a liveness-declared
    /// disconnect. A decided or deferred fail mode survives: it is
    /// configuration, not process state.
    pub(crate) fn restart(&mut self, now: SimTime, fx: &mut Vec<Effect>) {
        self.restarts += 1;
        self.table.clear();
        self.table.lookup_count = 0;
        self.table.matched_count = 0;
        self.table.eviction_count = 0;
        self.buffers.clear();
        self.next_buffer_id = 1;
        self.mac_table.clear();
        self.config = SwitchConfig::default();
        for c in &mut self.conns {
            c.phase = ConnPhase::Idle;
            c.attempt = 0;
            c.next_xid = 1;
            c.last_rx = now;
            fx.push(Effect::Timer {
                at: now,
                token: TimerToken::Connect { conn: c.conn },
            });
        }
    }

    /// A data-plane frame arrived on `port`.
    pub(crate) fn handle_frame(
        &mut self,
        port: PortNo,
        frame: Vec<u8>,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        // What `frame_reads_fail_mode` tests, before anything changes.
        let connected = self.is_connected();
        let key = packet::flow_key(&frame, port);
        if let Some(actions) = self.table.lookup(&key, frame.len(), now) {
            self.execute_actions(&actions, Cow::Owned(frame), port, now, fx);
            return;
        }
        if connected {
            self.packet_in_miss(port, frame, now, fx);
        } else {
            match self.fail_mode() {
                FailMode::Safe => self.standalone_forward(&key, frame, port, fx),
                FailMode::Secure => {
                    self.secure_drops += 1;
                    fx.push(Effect::Trace(TraceKind::PacketDropped {
                        switch: self.name.clone(),
                        reason: "fail-secure table miss",
                    }));
                }
            }
        }
    }

    fn packet_in_miss(&mut self, port: PortNo, frame: Vec<u8>, now: SimTime, fx: &mut Vec<Effect>) {
        let total_len = frame.len() as u16;
        // A full pool ages out its oldest resident, as OVS does: the
        // controller plainly isn't going to answer for it, and pinning
        // the pool forever would silently degrade every later PACKET_IN
        // to unbuffered.
        if self.buffers.len() >= BUFFER_CAPACITY {
            self.buffers.pop_front();
        }
        let id = self.alloc_buffer_id();
        let truncated = frame[..frame.len().min(self.config.miss_send_len as usize)].to_vec();
        self.buffers.push_back(BufferedPacket {
            id,
            frame,
            in_port: port,
        });
        let msg = OfMessage::PacketIn(PacketIn {
            buffer_id: Some(id),
            total_len,
            in_port: port,
            reason: PacketInReason::NoMatch,
            data: truncated,
        });
        self.send_to_up(msg, now, fx);
    }

    /// Allocates a fresh buffer id. Ids wrap at 2^31; 0 and any id still
    /// resident in the pool are skipped, so a wrapped counter can never
    /// alias a parked packet and make `take_buffer` release the wrong
    /// one. Terminates because the pool holds at most
    /// [`BUFFER_CAPACITY`] of the 2^31 − 1 candidates.
    fn alloc_buffer_id(&mut self) -> u32 {
        loop {
            let id = self.next_buffer_id;
            self.next_buffer_id = self.next_buffer_id.wrapping_add(1) & 0x7fff_ffff;
            if id != 0 && !self.buffers.iter().any(|b| b.id == id) {
                return id;
            }
        }
    }

    fn standalone_forward(
        &mut self,
        key: &FlowKey,
        frame: Vec<u8>,
        in_port: PortNo,
        fx: &mut Vec<Effect>,
    ) {
        self.standalone_forwards += 1;
        self.mac_table.insert(key.dl_src, in_port);
        let out = if key.dl_dst.is_multicast() {
            None
        } else {
            self.mac_table.get(&key.dl_dst).copied()
        };
        match out {
            Some(p) if p == in_port => {} // hairpin: drop
            Some(p) => fx.push(Effect::Frame { out_port: p, frame }),
            None => self.flood(in_port, &frame, fx),
        }
    }

    fn flood(&self, except: PortNo, frame: &[u8], fx: &mut Vec<Effect>) {
        for &p in &self.ports {
            if p != except {
                fx.push(Effect::Frame {
                    out_port: p,
                    frame: frame.to_vec(),
                });
            }
        }
    }

    /// Runs an action list over a frame. The frame arrives as a `Cow` so
    /// an unbuffered `PACKET_OUT` can lend its payload straight out of
    /// the decoded message; the last action that needs the bytes takes
    /// them (moving an owned frame, copying a borrowed one once) instead
    /// of every output cloning.
    fn execute_actions(
        &mut self,
        actions: &[Action],
        frame: Cow<'_, [u8]>,
        in_port: PortNo,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let mut frame = frame;
        for (i, action) in actions.iter().enumerate() {
            let is_last = i + 1 == actions.len();
            match action {
                Action::Output { port, max_len } => match *port {
                    PortNo::FLOOD | PortNo::ALL => self.flood(in_port, &frame, fx),
                    PortNo::IN_PORT => {
                        let f = take_frame(&mut frame, is_last);
                        fx.push(Effect::Frame {
                            out_port: in_port,
                            frame: f,
                        });
                    }
                    PortNo::CONTROLLER => {
                        let total_len = frame.len() as u16;
                        let data = if *max_len == 0 {
                            take_frame(&mut frame, is_last)
                        } else {
                            frame[..frame.len().min(*max_len as usize)].to_vec()
                        };
                        let msg = OfMessage::PacketIn(PacketIn {
                            buffer_id: None,
                            total_len,
                            in_port,
                            reason: PacketInReason::Action,
                            data,
                        });
                        self.send_to_up(msg, now, fx);
                    }
                    PortNo::NORMAL => {
                        let key = packet::flow_key(&frame, in_port);
                        let f = take_frame(&mut frame, is_last);
                        self.standalone_forward(&key, f, in_port, fx);
                    }
                    PortNo::TABLE | PortNo::LOCAL | PortNo::NONE => {}
                    p if p.is_physical() => {
                        let f = take_frame(&mut frame, is_last);
                        fx.push(Effect::Frame {
                            out_port: p,
                            frame: f,
                        });
                    }
                    _ => {}
                },
                rewrite => frame = Cow::Owned(apply_rewrite(rewrite, frame.into_owned())),
            }
        }
    }

    /// An encoded control-plane message arrived from a controller.
    pub(crate) fn handle_control(
        &mut self,
        conn: ConnId,
        frame: &Frame,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        if let Some(c) = self.conn_mut(conn) {
            c.last_rx = now;
        }
        let Some((msg, xid)) = frame.decoded() else {
            // Fuzzed/garbled message: answer with an ERROR, as a real
            // switch would, and carry on.
            fx.push(Effect::Trace(TraceKind::DecodeFailure {
                conn,
                direction: Direction::ControllerToSwitch,
            }));
            let code = match frame.decode_error() {
                Some(CodecError::BadVersion(_)) => bad_request::BAD_VERSION,
                _ => bad_request::BAD_TYPE,
            };
            self.send_error(conn, ErrorType::BadRequest, code, frame, now, fx);
            return;
        };
        // A reply carries the request's xid.
        let xid = *xid;
        let reply = move |msg, fx: &mut Vec<Effect>| {
            Self::emit(conn, Frame::from_message(msg, xid), now, fx)
        };
        match msg {
            OfMessage::Hello => {}
            OfMessage::EchoRequest(_) => {
                // The reply is the request with the header's type and xid
                // patched: same body, no decode→re-encode round trip.
                if let Some(reply_xid) = self.take_xid(conn) {
                    if let Some(echo) = frame.patched_reply(OfType::EchoReply, reply_xid) {
                        Self::emit(conn, echo, now, fx);
                    }
                }
            }
            OfMessage::EchoReply(_) => {}
            OfMessage::FeaturesRequest => {
                // Reply first, then flip the phase, so the xid counter
                // lines up with a real handshake trace.
                reply(OfMessage::FeaturesReply(self.features()), fx);
                if let Some(c) = self.conn_mut(conn) {
                    if c.phase != ConnPhase::Up {
                        c.phase = ConnPhase::Up;
                        fx.push(Effect::Trace(TraceKind::ConnectionUp { conn }));
                        self.mac_table.clear();
                    }
                }
            }
            OfMessage::GetConfigRequest => reply(OfMessage::GetConfigReply(self.config), fx),
            OfMessage::SetConfig(cfg) => self.config = *cfg,
            OfMessage::BarrierRequest => reply(OfMessage::BarrierReply, fx),
            OfMessage::PacketOut(po) => {
                // For buffered releases the stored frame and ingress port
                // govern FLOOD/IN_PORT semantics; otherwise the message's
                // payload is lent out of the decoded frame uncopied.
                let (pkt, in_port): (Cow<'_, [u8]>, PortNo) = match po.buffer_id {
                    Some(id) => match self.take_buffer(id) {
                        Some(b) => (Cow::Owned(b.frame), b.in_port),
                        None => {
                            let code = bad_request::BUFFER_UNKNOWN;
                            self.send_error(conn, ErrorType::BadRequest, code, frame, now, fx);
                            return;
                        }
                    },
                    None => (Cow::Borrowed(po.data.as_slice()), po.in_port),
                };
                if !pkt.is_empty() {
                    self.execute_actions(&po.actions, pkt, in_port, now, fx);
                }
            }
            OfMessage::FlowMod(fm) => {
                match self.table.apply(fm, now) {
                    Ok(outcome) => {
                        for evicted in outcome.evicted {
                            fx.push(Effect::Trace(TraceKind::FlowEvicted {
                                switch: self.name.clone(),
                                description: evicted.r#match.into(),
                            }));
                            if evicted.send_flow_rem {
                                self.notify_flow_removed(
                                    evicted,
                                    attain_openflow::FlowRemovedReason::Eviction,
                                    now,
                                    fx,
                                );
                            }
                        }
                        if outcome.added {
                            fx.push(Effect::Trace(TraceKind::FlowInstalled {
                                switch: self.name.clone(),
                                description: fm.r#match.into(),
                            }));
                        }
                        for removed in outcome.removed {
                            self.notify_flow_removed(
                                removed,
                                attain_openflow::FlowRemovedReason::Delete,
                                now,
                                fx,
                            );
                        }
                        // Spec §4.6: if a buffer is named, apply the new
                        // flow's actions to the buffered packet. This is
                        // the step that silently never happens when the
                        // flow mod is suppressed — POX's deadlock.
                        if let Some(id) = fm.buffer_id {
                            if !fm.command.is_delete() {
                                if let Some(b) = self.take_buffer(id) {
                                    self.execute_actions(
                                        &fm.actions,
                                        Cow::Owned(b.frame),
                                        b.in_port,
                                        now,
                                        fx,
                                    );
                                }
                            }
                        }
                    }
                    Err(e) => {
                        // The rejected mod never gets a second shot at its
                        // buffer_id; retire the parked packet now or the
                        // pool pins until aging reclaims it.
                        if let Some(id) = fm.buffer_id {
                            self.take_buffer(id);
                        }
                        let code = match e {
                            FlowModError::Overlap => flow_mod_failed::OVERLAP,
                            FlowModError::TableFull => flow_mod_failed::ALL_TABLES_FULL,
                        };
                        self.send_error(conn, ErrorType::FlowModFailed, code, frame, now, fx);
                    }
                }
            }
            OfMessage::StatsRequest(body) => {
                reply(OfMessage::StatsReply(self.stats_reply(body, now)), fx)
            }
            OfMessage::QueueGetConfigRequest { port } => {
                let (port, queues) = (*port, vec![]);
                reply(OfMessage::QueueGetConfigReply { port, queues }, fx)
            }
            OfMessage::PortMod(_) | OfMessage::Vendor { .. } => {}
            // Symmetric/controller-bound types arriving here are protocol
            // violations; a real switch errors out.
            _ => {
                let code = bad_request::BAD_TYPE;
                self.send_error(conn, ErrorType::BadRequest, code, frame, now, fx)
            }
        }
    }

    fn take_buffer(&mut self, id: u32) -> Option<BufferedPacket> {
        let idx = self.buffers.iter().position(|b| b.id == id)?;
        self.buffers.remove(idx)
    }

    fn notify_flow_removed(
        &mut self,
        e: FlowEntry,
        reason: attain_openflow::FlowRemovedReason,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let (duration_sec, duration_nsec) = e.duration(now);
        let msg = OfMessage::FlowRemoved(FlowRemoved {
            r#match: e.r#match,
            cookie: e.cookie,
            priority: e.priority,
            reason,
            duration_sec,
            duration_nsec,
            idle_timeout: e.idle_timeout,
            packet_count: e.packet_count,
            byte_count: e.byte_count,
        });
        self.send_to_up(msg, now, fx);
    }

    /// The 1 Hz housekeeping sweep: flow expiry and liveness probing.
    pub(crate) fn tick(&mut self, now: SimTime, fx: &mut Vec<Effect>) {
        // What `tick_reads_fail_mode` tests, before any death is marked.
        let enters_fail_mode = self.enters_fail_mode(now);
        for (entry, reason) in self.table.expire(now) {
            if entry.send_flow_rem {
                self.notify_flow_removed(entry, reason, now, fx);
            }
        }
        let mut probes = Vec::new();
        let mut deaths = Vec::new();
        for c in &mut self.conns {
            if c.phase != ConnPhase::Up {
                continue;
            }
            let silence = now.saturating_sub(c.last_rx);
            if silence >= DEAD_AFTER {
                c.phase = ConnPhase::Dead;
                deaths.push(c.conn);
            } else if silence >= PROBE_AFTER {
                probes.push(c.conn);
            }
        }
        for conn in probes {
            let probe = OfMessage::EchoRequest(b"attain-probe".to_vec());
            self.send(conn, probe, now, fx);
        }
        for conn in deaths {
            fx.push(Effect::Trace(TraceKind::ConnectionDead { conn }));
            fx.push(Effect::Timer {
                at: now + RECONNECT_AFTER,
                token: TimerToken::Connect { conn },
            });
        }
        if enters_fail_mode {
            self.mac_table.clear();
            let standalone = self.fail_mode() == FailMode::Safe;
            fx.push(Effect::Trace(TraceKind::FailModeEntered {
                switch: self.name.clone(),
                standalone,
            }));
        }
        fx.push(Effect::Timer {
            at: now + SimTime::from_secs(1),
            token: TimerToken::SwitchTick,
        });
    }

    fn features(&self) -> SwitchFeatures {
        SwitchFeatures {
            datapath_id: self.dpid,
            n_buffers: BUFFER_CAPACITY as u32,
            n_tables: 1,
            capabilities: 0x87, // flow stats | table stats | port stats | arp match ip
            actions: 0xfff,
            ports: self
                .ports
                .iter()
                .map(|&p| PhyPort::simulated(p, MacAddr::from_low((self.dpid.0 << 8) | p.0 as u64)))
                .collect(),
        }
    }

    fn stats_reply(&self, body: &StatsBody, now: SimTime) -> StatsReplyBody {
        match body {
            StatsBody::Desc => StatsReplyBody::Desc(SwitchDesc {
                mfr_desc: "ATTAIN reproduction".into(),
                hw_desc: "simulated datapath".into(),
                sw_desc: "attain-netsim (OVS v1.9.3 model)".into(),
                serial_num: format!("{:08x}", self.dpid.0),
                dp_desc: self.name.clone(),
            }),
            StatsBody::Flow {
                r#match, out_port, ..
            } => StatsReplyBody::Flow(
                self.table
                    .entries()
                    .filter(|e| r#match.subsumes(&e.r#match) && e.outputs_to(*out_port))
                    .map(|e| {
                        let (duration_sec, duration_nsec) = e.duration(now);
                        attain_openflow::FlowStatsEntry {
                            table_id: 0,
                            r#match: e.r#match,
                            duration_sec,
                            duration_nsec,
                            priority: e.priority,
                            idle_timeout: e.idle_timeout,
                            hard_timeout: e.hard_timeout,
                            cookie: e.cookie,
                            packet_count: e.packet_count,
                            byte_count: e.byte_count,
                            actions: e.actions.to_vec(),
                        }
                    })
                    .collect(),
            ),
            StatsBody::Aggregate {
                r#match, out_port, ..
            } => {
                let selected: Vec<_> = self
                    .table
                    .entries()
                    .filter(|e| r#match.subsumes(&e.r#match) && e.outputs_to(*out_port))
                    .collect();
                StatsReplyBody::Aggregate(attain_openflow::AggregateStats {
                    packet_count: selected.iter().map(|e| e.packet_count).sum(),
                    byte_count: selected.iter().map(|e| e.byte_count).sum(),
                    flow_count: selected.len() as u32,
                })
            }
            StatsBody::Table => StatsReplyBody::Table(vec![attain_openflow::TableStatsEntry {
                table_id: 0,
                name: "classifier".into(),
                wildcards: 0x003f_ffff,
                max_entries: self.table.capacity() as u32,
                active_count: self.table.len() as u32,
                lookup_count: self.table.lookup_count,
                matched_count: self.table.matched_count,
            }]),
            StatsBody::Port { .. } => StatsReplyBody::Port(
                self.ports
                    .iter()
                    .map(|&p| attain_openflow::PortStatsEntry {
                        port_no: p,
                        ..Default::default()
                    })
                    .collect(),
            ),
            StatsBody::Queue { .. } => StatsReplyBody::Queue(vec![]),
        }
    }
}

/// The frame bytes for one output: the last user takes ownership
/// (moving an owned frame, copying a borrowed one exactly once);
/// earlier users copy.
fn take_frame(frame: &mut Cow<'_, [u8]>, is_last: bool) -> Vec<u8> {
    if is_last {
        std::mem::replace(frame, Cow::Borrowed(&[])).into_owned()
    } else {
        frame.to_vec()
    }
}

/// Applies a header-rewrite action to a raw frame, returning the frame
/// unchanged if it cannot be parsed.
fn apply_rewrite(action: &Action, frame: Vec<u8>) -> Vec<u8> {
    let mut eth = match Ethernet::decode(&frame) {
        Ok(e) => e,
        Err(_) => return frame,
    };
    match action {
        Action::SetDlSrc(mac) => eth.src = *mac,
        Action::SetDlDst(mac) => eth.dst = *mac,
        Action::SetVlanVid(vid) => {
            let pcp = eth.vlan.map(|t| t & 0xe000).unwrap_or(0);
            eth.vlan = Some(pcp | (vid & 0x0fff));
        }
        Action::SetVlanPcp(pcp) => {
            let vid = eth.vlan.map(|t| t & 0x0fff).unwrap_or(0);
            eth.vlan = Some(((*pcp as u16) << 13) | vid);
        }
        Action::StripVlan => eth.vlan = None,
        Action::SetNwSrc(ip) => {
            if let Payload::Ipv4(ipv4) = &mut eth.payload {
                ipv4.src = (*ip).into();
            }
        }
        Action::SetNwDst(ip) => {
            if let Payload::Ipv4(ipv4) = &mut eth.payload {
                ipv4.dst = (*ip).into();
            }
        }
        Action::SetNwTos(tos) => {
            if let Payload::Ipv4(ipv4) = &mut eth.payload {
                ipv4.tos = *tos;
            }
        }
        Action::SetTpSrc(p) => {
            if let Payload::Ipv4(ipv4) = &mut eth.payload {
                match &mut ipv4.payload {
                    IpPayload::Tcp(t) => t.src_port = *p,
                    IpPayload::Udp(u) => u.src_port = *p,
                    _ => {}
                }
            }
        }
        Action::SetTpDst(p) => {
            if let Payload::Ipv4(ipv4) = &mut eth.payload {
                match &mut ipv4.payload {
                    IpPayload::Tcp(t) => t.dst_port = *p,
                    IpPayload::Udp(u) => u.dst_port = *p,
                    _ => {}
                }
            }
        }
        _ => {}
    }
    eth.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_openflow::FlowMod;
    use attain_openflow::Match;

    fn switch() -> Switch {
        let mut s = Switch::new("s1".into(), DatapathId(1), FailMode::Secure);
        s.add_port(PortNo(1));
        s.add_port(PortNo(2));
        s.add_port(PortNo(3));
        s.add_conn(ConnId(0));
        s
    }

    fn frame(src: u64, dst: u64) -> Vec<u8> {
        packet::icmp_echo_request(
            MacAddr::from_low(src),
            MacAddr::from_low(dst),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1,
            1,
            vec![0; 8],
        )
        .encode()
    }

    fn connect(s: &mut Switch) {
        let mut fx = Vec::new();
        s.start_connect(ConnId(0), SimTime::ZERO, &mut fx);
        s.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::Hello, 1),
            SimTime::ZERO,
            &mut fx,
        );
        s.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::FeaturesRequest, 2),
            SimTime::ZERO,
            &mut fx,
        );
        assert!(s.is_connected());
    }

    #[test]
    fn handshake_brings_connection_up() {
        let mut s = switch();
        assert!(!s.is_connected());
        connect(&mut s);
    }

    #[test]
    fn miss_while_connected_buffers_and_sends_packet_in() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        let controls: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Control { frame, .. } => Some(frame.message().unwrap().clone()),
                _ => None,
            })
            .collect();
        assert_eq!(controls.len(), 1);
        let OfMessage::PacketIn(pi) = &controls[0] else {
            panic!("expected packet in");
        };
        assert_eq!(pi.in_port, PortNo(1));
        assert!(pi.buffer_id.is_some());
        assert_eq!(pi.reason, PacketInReason::NoMatch);
        // Truncated to miss_send_len (default 128).
        assert!(pi.data.len() <= 128);
        assert_eq!(s.buffers.len(), 1);
    }

    #[test]
    fn packet_out_releases_buffer() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        let id = s.buffers[0].id;
        fx.clear();
        let po = OfMessage::PacketOut(attain_openflow::PacketOut {
            buffer_id: Some(id),
            in_port: PortNo(1),
            actions: vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
            data: vec![],
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(po, 5),
            SimTime::ZERO,
            &mut fx,
        );
        assert!(s.buffers.is_empty());
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Frame { out_port, .. } if *out_port == PortNo(2))));
    }

    #[test]
    fn packet_out_with_unknown_buffer_errors() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        let po = OfMessage::PacketOut(attain_openflow::PacketOut {
            buffer_id: Some(999),
            in_port: PortNo(1),
            actions: vec![],
            data: vec![],
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(po, 5),
            SimTime::ZERO,
            &mut fx,
        );
        let has_error = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => matches!(
                frame.message().unwrap(),
                OfMessage::Error(em) if em.code == bad_request::BUFFER_UNKNOWN
            ),
            _ => false,
        });
        assert!(has_error);
    }

    #[test]
    fn flow_mod_with_buffer_forwards_the_parked_packet() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        let id = s.buffers[0].id;
        fx.clear();
        let fm = OfMessage::FlowMod(FlowMod {
            buffer_id: Some(id),
            ..FlowMod::add(
                Match::exact_in_port(PortNo(1)),
                vec![Action::Output {
                    port: PortNo(3),
                    max_len: 0,
                }],
            )
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(fm, 6),
            SimTime::ZERO,
            &mut fx,
        );
        assert!(s.buffers.is_empty());
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Frame { out_port, .. } if *out_port == PortNo(3))));
        assert_eq!(s.flow_table().len(), 1);
        // Subsequent frames hit the table directly.
        fx.clear();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::from_millis(1), &mut fx);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Frame { out_port, .. } if *out_port == PortNo(3))));
        assert!(s.buffers.is_empty());
    }

    #[test]
    fn suppressed_flow_mod_leaves_buffer_parked_forever() {
        // The POX deadlock mechanism: buffer waits for a flow mod that the
        // attack dropped. Nothing else releases it.
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert_eq!(s.buffers.len(), 1);
        // Time passes; the frame never egresses.
        fx.clear();
        s.tick(SimTime::from_secs(30), &mut fx);
        assert_eq!(s.buffers.len(), 1);
        assert!(!fx.iter().any(|e| matches!(e, Effect::Frame { .. })));
    }

    #[test]
    fn fail_secure_drops_misses_when_disconnected() {
        let mut s = switch();
        // never connected
        let mut fx = Vec::new();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert!(!fx.iter().any(|e| matches!(e, Effect::Frame { .. })));
        assert_eq!(s.secure_drops, 1);
    }

    #[test]
    fn fail_safe_learns_and_floods_when_disconnected() {
        let mut s = Switch::new("s1".into(), DatapathId(1), FailMode::Safe);
        s.add_port(PortNo(1));
        s.add_port(PortNo(2));
        s.add_port(PortNo(3));
        let mut fx = Vec::new();
        // Unknown dst: floods to 2 and 3.
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        let floods: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Frame { out_port, .. } => Some(*out_port),
                _ => None,
            })
            .collect();
        assert_eq!(floods, vec![PortNo(2), PortNo(3)]);
        // Reply from port 2 teaches the MAC; now unicast.
        fx.clear();
        s.handle_frame(PortNo(2), frame(2, 1), SimTime::ZERO, &mut fx);
        let outs: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Frame { out_port, .. } => Some(*out_port),
                _ => None,
            })
            .collect();
        assert_eq!(outs, vec![PortNo(1)]);
    }

    #[test]
    fn silence_triggers_probe_then_death_then_reconnect_timer() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        // 6 s of silence: probe.
        s.tick(SimTime::from_secs(6), &mut fx);
        let probed = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => {
                matches!(frame.message().unwrap(), OfMessage::EchoRequest(_))
            }
            _ => false,
        });
        assert!(probed);
        assert!(s.is_connected());
        // 16 s of silence: dead + fail mode + reconnect timer.
        fx.clear();
        s.tick(SimTime::from_secs(16), &mut fx);
        assert!(!s.is_connected());
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Trace(TraceKind::ConnectionDead { .. }))));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Trace(TraceKind::FailModeEntered {
                standalone: false,
                ..
            })
        )));
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Timer {
                token: TimerToken::Connect { .. },
                ..
            }
        )));
    }

    #[test]
    fn echo_request_is_answered() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::EchoRequest(vec![1, 2]), 9),
            SimTime::ZERO,
            &mut fx,
        );
        let echoed = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => {
                frame.message() == Some(&OfMessage::EchoReply(vec![1, 2]))
            }
            _ => false,
        });
        assert!(echoed);
    }

    #[test]
    fn garbage_control_bytes_yield_error_not_panic() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_control(
            ConnId(0),
            &Frame::new(vec![0xff; 16]),
            SimTime::ZERO,
            &mut fx,
        );
        let has_error = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => {
                matches!(frame.message().unwrap(), OfMessage::Error(_))
            }
            _ => false,
        });
        assert!(has_error);
    }

    #[test]
    fn stats_request_flow_reports_installed_entries() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        let fm = OfMessage::FlowMod(FlowMod::add(
            Match::exact_in_port(PortNo(1)),
            vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
        ));
        s.handle_control(
            ConnId(0),
            &Frame::from_message(fm, 3),
            SimTime::ZERO,
            &mut fx,
        );
        fx.clear();
        let req = OfMessage::StatsRequest(StatsBody::Flow {
            r#match: Match::all(),
            table_id: 0xff,
            out_port: PortNo::NONE,
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(req, 4),
            SimTime::from_secs(2),
            &mut fx,
        );
        let reply = fx
            .iter()
            .find_map(|e| match e {
                Effect::Control { frame, .. } => match frame.message().unwrap() {
                    OfMessage::StatsReply(StatsReplyBody::Flow(entries)) => Some(entries.clone()),
                    _ => None,
                },
                _ => None,
            })
            .expect("flow stats reply");
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0].duration_sec, 2);
    }

    #[test]
    fn rewrite_actions_change_the_frame() {
        let f = frame(1, 2);
        let rewritten = apply_rewrite(&Action::SetDlDst(MacAddr::from_low(0x99)), f);
        let eth = Ethernet::decode(&rewritten).unwrap();
        assert_eq!(eth.dst, MacAddr::from_low(0x99));
        // IP rewrite recomputes the checksum (decode would fail otherwise).
        let rewritten = apply_rewrite(&Action::SetNwSrc(0x01020304), rewritten);
        let eth = Ethernet::decode(&rewritten).unwrap();
        let Payload::Ipv4(ip) = eth.payload else {
            panic!("not ipv4")
        };
        assert_eq!(ip.src, std::net::Ipv4Addr::new(1, 2, 3, 4));
    }

    #[test]
    fn table_full_reports_error() {
        let mut s = switch();
        s.table = FlowTable::new(1);
        connect(&mut s);
        let mut fx = Vec::new();
        for port in [1u16, 2] {
            let fm = OfMessage::FlowMod(FlowMod::add(Match::exact_in_port(PortNo(port)), vec![]));
            s.handle_control(
                ConnId(0),
                &Frame::from_message(fm, port as u32),
                SimTime::ZERO,
                &mut fx,
            );
        }
        let has_full = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => matches!(
                frame.message().unwrap(),
                OfMessage::Error(em)
                    if em.error_type == ErrorType::FlowModFailed
                        && em.code == flow_mod_failed::ALL_TABLES_FULL
            ),
            _ => false,
        });
        assert!(has_full);
    }

    #[test]
    fn rejected_flow_mod_frees_its_buffer() {
        let mut s = switch();
        s.table = FlowTable::new(1);
        connect(&mut s);
        let mut fx = Vec::new();
        let filler = OfMessage::FlowMod(FlowMod::add(Match::exact_in_port(PortNo(2)), vec![]));
        s.handle_control(
            ConnId(0),
            &Frame::from_message(filler, 3),
            SimTime::ZERO,
            &mut fx,
        );
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        let id = s.buffers[0].id;
        fx.clear();
        let fm = OfMessage::FlowMod(FlowMod {
            buffer_id: Some(id),
            ..FlowMod::add(
                Match::exact_in_port(PortNo(1)),
                vec![Action::Output {
                    port: PortNo(3),
                    max_len: 0,
                }],
            )
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(fm, 4),
            SimTime::ZERO,
            &mut fx,
        );
        let has_full = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => matches!(
                frame.message().unwrap(),
                OfMessage::Error(em) if em.code == flow_mod_failed::ALL_TABLES_FULL
            ),
            _ => false,
        });
        assert!(has_full);
        assert!(
            s.buffers.is_empty(),
            "a rejected flow mod must retire its buffer"
        );
        // The parked packet is dropped, not forwarded.
        assert!(!fx.iter().any(|e| matches!(e, Effect::Frame { .. })));
    }

    #[test]
    fn full_buffer_pool_ages_oldest_first() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        for _ in 0..BUFFER_CAPACITY {
            s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        }
        assert_eq!(s.buffers.len(), BUFFER_CAPACITY);
        let oldest = s.buffers[0].id;
        fx.clear();
        // One more miss: the oldest resident ages out, the new packet is
        // still buffered (no silent unbuffered degradation).
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert_eq!(s.buffers.len(), BUFFER_CAPACITY);
        assert!(s.buffers.iter().all(|b| b.id != oldest));
        let pi_buffered = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => matches!(
                frame.message().unwrap(),
                OfMessage::PacketIn(pi) if pi.buffer_id.is_some()
            ),
            _ => false,
        });
        assert!(pi_buffered);
        // Releasing a survivor drains the pool back below capacity.
        let id = s.buffers[0].id;
        fx.clear();
        let po = OfMessage::PacketOut(attain_openflow::PacketOut {
            buffer_id: Some(id),
            in_port: PortNo(1),
            actions: vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
            data: vec![],
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(po, 900),
            SimTime::ZERO,
            &mut fx,
        );
        assert_eq!(s.buffers.len(), BUFFER_CAPACITY - 1);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Frame { out_port, .. } if *out_port == PortNo(2))));
    }

    #[test]
    fn wrapped_buffer_ids_skip_zero_and_residents() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.next_buffer_id = 0x7fff_ffff;
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert_eq!(s.buffers[0].id, 0x7fff_ffff);
        // The counter wrapped to 0, which is skipped.
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert_eq!(s.buffers[1].id, 1);
        // Wrap again while both stay resident: 0x7fff_ffff, 0, and 1 are
        // all unavailable, so the next allocation lands on 2.
        s.next_buffer_id = 0x7fff_ffff;
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert_eq!(s.buffers[2].id, 2);
    }

    #[test]
    fn eviction_notifies_and_traces() {
        let mut s = switch();
        s.set_table_config(1, EvictionPolicy::EvictLru);
        connect(&mut s);
        let mut fx = Vec::new();
        let victim = OfMessage::FlowMod(FlowMod {
            flags: attain_openflow::FlowModFlags(attain_openflow::FlowModFlags::SEND_FLOW_REM),
            ..FlowMod::add(
                Match::exact_in_port(PortNo(1)),
                vec![Action::Output {
                    port: PortNo(2),
                    max_len: 0,
                }],
            )
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(victim, 3),
            SimTime::ZERO,
            &mut fx,
        );
        fx.clear();
        let usurper = OfMessage::FlowMod(FlowMod::add(Match::exact_in_port(PortNo(2)), vec![]));
        s.handle_control(
            ConnId(0),
            &Frame::from_message(usurper, 4),
            SimTime::from_secs(1),
            &mut fx,
        );
        assert_eq!(s.flow_table().len(), 1);
        assert_eq!(s.flow_table().eviction_count, 1);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Trace(TraceKind::FlowEvicted { .. }))));
        let notified = fx.iter().any(|e| match e {
            Effect::Control { frame, .. } => matches!(
                frame.message().unwrap(),
                OfMessage::FlowRemoved(fr)
                    if fr.reason == attain_openflow::FlowRemovedReason::Eviction
                        && fr.r#match.in_port == PortNo(1)
            ),
            _ => false,
        });
        assert!(notified);
    }

    #[test]
    fn unbuffered_packet_out_forwards_payload() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        let payload = frame(1, 2);
        let po = OfMessage::PacketOut(attain_openflow::PacketOut {
            buffer_id: None,
            in_port: PortNo(1),
            actions: vec![Action::Output {
                port: PortNo(2),
                max_len: 0,
            }],
            data: payload.clone(),
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(po, 5),
            SimTime::ZERO,
            &mut fx,
        );
        let sent = fx
            .iter()
            .find_map(|e| match e {
                Effect::Frame { out_port, frame } if *out_port == PortNo(2) => Some(frame.clone()),
                _ => None,
            })
            .expect("unbuffered packet out must forward");
        assert_eq!(sent, payload);
    }

    /// Installs a flow whose removal would be notified, then restarts.
    fn connected_switch_with_notifying_flow() -> Switch {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        let fm = OfMessage::FlowMod(FlowMod {
            flags: attain_openflow::FlowModFlags(attain_openflow::FlowModFlags::SEND_FLOW_REM),
            idle_timeout: 5,
            ..FlowMod::add(
                Match::exact_in_port(PortNo(1)),
                vec![Action::Output {
                    port: PortNo(2),
                    max_len: 0,
                }],
            )
        });
        s.handle_control(
            ConnId(0),
            &Frame::from_message(fm, 3),
            SimTime::ZERO,
            &mut fx,
        );
        assert_eq!(s.table.len(), 1);
        s
    }

    #[test]
    fn restart_wipes_table_without_flow_removed() {
        let mut s = connected_switch_with_notifying_flow();
        s.table.lookup_count = 9;
        s.table.matched_count = 4;
        let mut fx = Vec::new();
        s.handle_frame(PortNo(3), frame(9, 1), SimTime::ZERO, &mut fx);
        assert!(!s.buffers.is_empty());
        fx.clear();
        s.restart(SimTime::from_secs(10), &mut fx);
        assert_eq!(s.table.len(), 0, "flow table must be wiped");
        assert_eq!(s.table.lookup_count, 0, "table counters must be zeroed");
        assert_eq!(s.table.matched_count, 0);
        assert!(
            s.buffers.is_empty(),
            "buffered packets died with the process"
        );
        assert!(s.mac_table.is_empty());
        assert_eq!(s.restarts, 1);
        // No FLOW_REMOVED may escape, even though the entry asked for
        // notification: the process that owed it is gone.
        assert!(
            !fx.iter().any(|e| matches!(
                e,
                Effect::Control { frame, .. }
                    if matches!(frame.message(), Some(OfMessage::FlowRemoved(_)))
            )),
            "restart must not notify for wiped entries"
        );
    }

    #[test]
    fn restart_schedules_reconnect_and_replays_handshake() {
        let mut s = connected_switch_with_notifying_flow();
        let mut fx = Vec::new();
        s.restart(SimTime::from_secs(10), &mut fx);
        assert!(!s.is_connected());
        // A Connect timer per connection, due immediately.
        let connects: Vec<_> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Timer {
                    at,
                    token: TimerToken::Connect { conn },
                } => Some((*at, *conn)),
                _ => None,
            })
            .collect();
        assert_eq!(connects, vec![(SimTime::from_secs(10), ConnId(0))]);
        // Drive the replayed handshake: HELLO goes out afresh with a
        // reset xid counter, and FEATURES_REQUEST completes it.
        fx.clear();
        s.start_connect(ConnId(0), SimTime::from_secs(10), &mut fx);
        let hello = fx
            .iter()
            .find_map(|e| match e {
                Effect::Control { frame, .. } => Some(frame.decoded().unwrap().clone()),
                _ => None,
            })
            .expect("restarted switch re-sends HELLO");
        assert_eq!(hello.0, OfMessage::Hello);
        assert_eq!(hello.1, 1, "xid counter must reset with the process");
        let mut fx = Vec::new();
        s.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::Hello, 1),
            SimTime::from_secs(10),
            &mut fx,
        );
        s.handle_control(
            ConnId(0),
            &Frame::from_message(OfMessage::FeaturesRequest, 2),
            SimTime::from_secs(10),
            &mut fx,
        );
        assert!(s.is_connected(), "handshake must complete after restart");
    }

    #[test]
    fn restart_honours_fail_secure_until_reconnected() {
        let mut s = connected_switch_with_notifying_flow();
        let mut fx = Vec::new();
        s.restart(SimTime::from_secs(10), &mut fx);
        fx.clear();
        // The wiped rule would have matched this; while down, fail-secure
        // drops it instead.
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::from_secs(10), &mut fx);
        assert!(!fx.iter().any(|e| matches!(e, Effect::Frame { .. })));
        assert_eq!(s.secure_drops, 1);
    }

    #[test]
    fn restart_honours_fail_safe_standalone_while_down() {
        let mut s = Switch::new("s1".into(), DatapathId(1), FailMode::Safe);
        s.add_port(PortNo(1));
        s.add_port(PortNo(2));
        s.add_conn(ConnId(0));
        connect(&mut s);
        let mut fx = Vec::new();
        s.restart(SimTime::from_secs(10), &mut fx);
        fx.clear();
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::from_secs(10), &mut fx);
        assert!(
            fx.iter().any(|e| matches!(e, Effect::Frame { .. })),
            "fail-safe must forward standalone while down"
        );
        assert_eq!(s.standalone_forwards, 1);
    }

    /// [`switch`] built fail-safe, with its mode deferred.
    fn undecided() -> Switch {
        let mut s = Switch::new("s1".into(), DatapathId(1), FailMode::Safe);
        s.add_port(PortNo(1));
        s.add_port(PortNo(2));
        s.add_conn(ConnId(0));
        assert!(s.defer_fail_mode());
        s
    }

    #[test]
    fn connected_traffic_never_reads_the_fail_mode() {
        // Undecided, so the debug audit panics on any read the predicates
        // do not flag.
        let mut s = undecided();
        connect(&mut s);
        let mut fx = Vec::new();
        // A miss (PACKET_IN), a probe and a tick: none consult the mode.
        assert!(!s.frame_reads_fail_mode());
        s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut fx);
        assert!(!s.tick_reads_fail_mode(SimTime::from_secs(6)));
        s.tick(SimTime::from_secs(6), &mut fx);
        assert!(s.is_connected());
    }

    #[test]
    fn a_disconnected_miss_reads_the_fail_mode_in_both_modes() {
        for (mode, forwards) in [(FailMode::Safe, 1), (FailMode::Secure, 0)] {
            let mut s = undecided();
            assert!(s.frame_reads_fail_mode(), "a frame before the handshake");
            s.decide_fail_mode(mode);
            assert!(!s.frame_reads_fail_mode(), "{mode:?} is decided");
            s.handle_frame(PortNo(1), frame(1, 2), SimTime::ZERO, &mut Vec::new());
            assert_eq!(s.standalone_forwards, forwards, "{mode:?}");
        }
        // An always-secure switch is the same on both sides of a split,
        // so it never defers and its misses flag nothing.
        let mut s = switch();
        assert!(!s.defer_fail_mode());
        assert!(!s.frame_reads_fail_mode());
    }

    #[test]
    fn entering_fail_mode_is_flagged_and_restart_keeps_the_decision() {
        let mut s = undecided();
        s.add_conn(ConnId(1));
        connect(&mut s);
        let secs = SimTime::from_secs;
        assert!(!s.tick_reads_fail_mode(secs(14)), "silent, not yet dead");
        assert!(s.tick_reads_fail_mode(secs(15)), "the live connection dies");
        // A second connection that is up and alive keeps the switch
        // connected, so the same silence enters no fail mode.
        let mut two = s.clone();
        let mut fx = Vec::new();
        two.start_connect(ConnId(1), secs(10), &mut fx);
        let features = Frame::from_message(OfMessage::FeaturesRequest, 2);
        two.handle_control(ConnId(1), &features, secs(10), &mut fx);
        assert!(!two.tick_reads_fail_mode(secs(15)));
        two.tick(secs(15), &mut fx);
        assert!(two.is_connected());

        s.decide_fail_mode(FailMode::Safe);
        fx.clear();
        s.tick(secs(16), &mut fx);
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Trace(TraceKind::FailModeEntered {
                standalone: true,
                ..
            })
        )));
        s.restart(secs(17), &mut fx);
        assert!(!s.frame_reads_fail_mode(), "restart keeps the decision");
        s.handle_frame(PortNo(1), frame(1, 2), secs(17), &mut fx);
        assert_eq!(s.standalone_forwards, 1);
    }

    #[test]
    fn garbage_control_bytes_are_traced() {
        let mut s = switch();
        connect(&mut s);
        let mut fx = Vec::new();
        s.handle_control(
            ConnId(0),
            &Frame::new(vec![0xde, 0xad, 0xbe, 0xef]),
            SimTime::ZERO,
            &mut fx,
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Trace(TraceKind::DecodeFailure {
                conn: ConnId(0),
                direction: Direction::ControllerToSwitch,
            })
        )));
        // And the usual ERROR reply still goes out.
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::Control { frame, .. }
                if matches!(frame.message(), Some(OfMessage::Error(_)))
        )));
    }
}
