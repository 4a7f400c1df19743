//! The `iperf` workload model: a TCP bulk-transfer client/server pair
//! with a fixed-window sender, matching the paper's use of `iperf` for
//! the throughput metric (Figure 11a).
//!
//! The TCP model is deliberately simple — handshake, cumulative ACKs,
//! fixed window, go-back-N retransmission — because the experiments
//! measure how the *network* (and the attacks against its control plane)
//! shapes throughput, not congestion-control dynamics.

use super::AppSend;
use crate::time::SimTime;
use attain_openflow::packet::{Tcp, TcpFlags};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// TCP maximum segment size used by the model (Ethernet MTU minus
/// IP/TCP headers).
pub(crate) const MSS: u32 = 1460;
/// Fixed sender window in segments (≈ 93 KB — enough to fill a 100 Mb/s
/// link at the case-study topology's RTT).
const WINDOW_SEGMENTS: u32 = 64;
/// Retransmission timeout.
const RTO: SimTime = SimTime::from_millis(500);
/// Client tick period (drives retransmission and deadline checks).
const TICK: SimTime = SimTime::from_millis(100);
/// SYN retransmission interval.
const SYN_RETRY: SimTime = SimTime::from_secs(1);
/// SYN attempts before giving up (connection refused → 0 Mb/s).
const SYN_MAX_ATTEMPTS: u32 = 5;
/// After the send deadline, wait at most this long for trailing ACKs.
const DRAIN_GRACE: SimTime = SimTime::from_secs(5);

/// Results of one `iperf` client run.
#[derive(Debug, Clone, PartialEq)]
pub struct IperfStats {
    /// The run's label (the command line that started it).
    pub label: String,
    /// Server address.
    pub dst: Ipv4Addr,
    /// Bytes acknowledged by the server.
    pub bytes: u64,
    /// Configured transfer duration in seconds.
    pub duration_secs: f64,
    /// Whether the TCP connection was ever established.
    pub connected: bool,
    /// Whether the run has finished.
    pub finished: bool,
}

impl IperfStats {
    /// Goodput in Mb/s over the configured duration.
    pub fn throughput_mbps(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / self.duration_secs / 1e6
    }

    /// Whether the run amounts to a denial of service (zero throughput —
    /// the paper's asterisk).
    pub fn is_denial_of_service(&self) -> bool {
        self.finished && self.bytes == 0
    }
}

/// A TCP segment a host should emit (L2/L3 wrapping happens in the
/// host).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentOut {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub payload: Vec<u8>,
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ServerConn {
    rcv_nxt: u32,
    bytes: u64,
}

/// An `iperf -s` instance: accepts connections on a port and ACKs
/// whatever arrives.
#[derive(Debug, Clone)]
pub(crate) struct IperfServerApp {
    port: u16,
    conns: BTreeMap<(Ipv4Addr, u16), ServerConn>,
}

impl IperfServerApp {
    pub(crate) fn new(port: u16) -> IperfServerApp {
        IperfServerApp {
            port,
            conns: BTreeMap::new(),
        }
    }

    pub(crate) fn port(&self) -> u16 {
        self.port
    }

    pub(crate) fn on_segment(
        &mut self,
        peer: Ipv4Addr,
        tcp: &Tcp,
        _now: SimTime,
    ) -> Vec<SegmentOut> {
        let key = (peer, tcp.src_port);
        let reply = |seq: u32, ack: u32, flags: TcpFlags| SegmentOut {
            src_port: self.port,
            dst_port: tcp.src_port,
            seq,
            ack,
            flags,
            payload: Vec::new(),
        };
        if tcp.flags.contains(TcpFlags::SYN) {
            // (Re)establish: SYN consumes one sequence number.
            self.conns.insert(
                key,
                ServerConn {
                    rcv_nxt: tcp.seq.wrapping_add(1),
                    bytes: 0,
                },
            );
            return vec![reply(
                0,
                tcp.seq.wrapping_add(1),
                TcpFlags::SYN | TcpFlags::ACK,
            )];
        }
        let Some(conn) = self.conns.get_mut(&key) else {
            // No such connection: RST.
            return vec![reply(0, 0, TcpFlags::RST)];
        };
        if tcp.flags.contains(TcpFlags::FIN) {
            let ack = tcp.seq.wrapping_add(1);
            conn.rcv_nxt = ack;
            return vec![reply(1, ack, TcpFlags::FIN | TcpFlags::ACK)];
        }
        if !tcp.payload.is_empty() {
            if tcp.seq == conn.rcv_nxt {
                conn.rcv_nxt = conn.rcv_nxt.wrapping_add(tcp.payload.len() as u32);
                conn.bytes += tcp.payload.len() as u64;
            }
            // Cumulative ACK either way (duplicate ACK on reordering).
            return vec![reply(1, conn.rcv_nxt, TcpFlags::ACK)];
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    SynSent,
    Established,
    Done,
}

/// An `iperf -c` instance: a fixed-window bulk sender.
#[derive(Debug, Clone)]
pub(crate) struct IperfClientApp {
    label: String,
    dst: Ipv4Addr,
    dst_port: u16,
    src_port: u16,
    duration: SimTime,
    state: ClientState,
    syn_attempts: u32,
    last_syn: SimTime,
    /// First unacknowledged sequence number (data starts at 1).
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Time data transfer began (first ACK of the handshake).
    data_start: SimTime,
    /// Deadline after which no new data is sent.
    deadline: SimTime,
    last_progress: SimTime,
    connected: bool,
}

impl IperfClientApp {
    pub(crate) fn new(
        label: String,
        dst: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        duration: SimTime,
        now: SimTime,
    ) -> IperfClientApp {
        IperfClientApp {
            label,
            dst,
            dst_port,
            src_port,
            duration,
            state: ClientState::SynSent,
            syn_attempts: 0,
            last_syn: now,
            snd_una: 1,
            snd_nxt: 1,
            data_start: now,
            deadline: now + duration,
            last_progress: now,
            connected: false,
        }
    }

    pub(crate) fn src_port(&self) -> u16 {
        self.src_port
    }

    pub(crate) fn stats(&self) -> IperfStats {
        IperfStats {
            label: self.label.clone(),
            dst: self.dst,
            bytes: (self.snd_una - 1) as u64,
            duration_secs: self.duration.as_secs_f64(),
            connected: self.connected,
            finished: self.state == ClientState::Done,
        }
    }

    fn syn(&self) -> SegmentOut {
        SegmentOut {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            payload: Vec::new(),
        }
    }

    fn data_segment(&self, seq: u32) -> SegmentOut {
        SegmentOut {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq,
            ack: 1,
            flags: TcpFlags::ACK,
            payload: vec![0x49; MSS as usize], // 'I' for iperf filler
        }
    }

    /// Sends as much new data as the window and the deadline allow.
    fn fill_window(&mut self, now: SimTime) -> Vec<SegmentOut> {
        let mut out = Vec::new();
        if self.state != ClientState::Established || now >= self.deadline {
            return out;
        }
        let window_bytes = WINDOW_SEGMENTS * MSS;
        while self.snd_nxt.wrapping_sub(self.snd_una) < window_bytes {
            out.push(self.data_segment(self.snd_nxt));
            self.snd_nxt = self.snd_nxt.wrapping_add(MSS);
        }
        out
    }

    /// The app timer fired: [`IperfClientApp::tick`]'s segments, to the
    /// server.
    pub(crate) fn on_timer(&mut self, now: SimTime) -> (AppSend, Option<SimTime>) {
        let (segs, next) = self.tick(now);
        let dst = self.dst;
        (AppSend::Tcp { dst, segs }, next)
    }

    /// The client's periodic tick: SYN retries, retransmission, and
    /// completion checks. Returns segments to send and the next tick (or
    /// `None` when done).
    fn tick(&mut self, now: SimTime) -> (Vec<SegmentOut>, Option<SimTime>) {
        match self.state {
            ClientState::SynSent => {
                if self.syn_attempts >= SYN_MAX_ATTEMPTS {
                    // Connection never established: 0 Mb/s (DoS).
                    self.state = ClientState::Done;
                    return (Vec::new(), None);
                }
                if self.syn_attempts == 0 || now.saturating_sub(self.last_syn) >= SYN_RETRY {
                    self.syn_attempts += 1;
                    self.last_syn = now;
                    return (vec![self.syn()], Some(now + SYN_RETRY));
                }
                (Vec::new(), Some(now + SYN_RETRY))
            }
            ClientState::Established => {
                // All data sent and acknowledged after the deadline: done.
                if now >= self.deadline && self.snd_una == self.snd_nxt {
                    self.state = ClientState::Done;
                    return (
                        vec![SegmentOut {
                            src_port: self.src_port,
                            dst_port: self.dst_port,
                            seq: self.snd_nxt,
                            ack: 1,
                            flags: TcpFlags::FIN | TcpFlags::ACK,
                            payload: Vec::new(),
                        }],
                        None,
                    );
                }
                // Stuck past the grace period: give up with what we have.
                if now >= self.deadline + DRAIN_GRACE {
                    self.state = ClientState::Done;
                    return (Vec::new(), None);
                }
                // Go-back-N: on RTO, rewind to the first unacked byte.
                let mut out = Vec::new();
                if self.snd_nxt != self.snd_una && now.saturating_sub(self.last_progress) >= RTO {
                    self.snd_nxt = self.snd_una;
                    self.last_progress = now; // back off one RTO per retry
                    out.extend(self.fill_window(now));
                    if out.is_empty() {
                        // Past the deadline with unacked data: retransmit
                        // just the head segment.
                        out.push(self.data_segment(self.snd_una));
                        self.snd_nxt = self.snd_una.wrapping_add(MSS);
                    }
                }
                (out, Some(now + TICK))
            }
            ClientState::Done => (Vec::new(), None),
        }
    }

    /// A segment addressed to our port arrived.
    pub(crate) fn on_segment(&mut self, tcp: &Tcp, now: SimTime) -> Vec<SegmentOut> {
        match self.state {
            ClientState::SynSent => {
                if tcp.flags.contains(TcpFlags::SYN) && tcp.flags.contains(TcpFlags::ACK) {
                    self.state = ClientState::Established;
                    self.connected = true;
                    self.data_start = now;
                    self.deadline = now + self.duration;
                    self.last_progress = now;
                    // No separate bare ACK: the first data segments carry it.
                    return self.fill_window(now);
                }
                Vec::new()
            }
            ClientState::Established => {
                if tcp.flags.contains(TcpFlags::RST) {
                    self.state = ClientState::Done;
                    return Vec::new();
                }
                if tcp.flags.contains(TcpFlags::ACK) {
                    let ack = tcp.ack;
                    if ack.wrapping_sub(self.snd_una) > 0
                        && ack.wrapping_sub(self.snd_una) <= WINDOW_SEGMENTS * MSS
                    {
                        self.snd_una = ack;
                        self.last_progress = now;
                        return self.fill_window(now);
                    }
                }
                Vec::new()
            }
            ClientState::Done => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags, len: usize) -> Tcp {
        Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65535,
            payload: vec![0; len],
        }
    }

    #[test]
    fn server_handshake_and_data() {
        let mut s = IperfServerApp::new(5001);
        let peer: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let replies = s.on_segment(
            peer,
            &seg(30000, 5001, 0, 0, TcpFlags::SYN, 0),
            SimTime::ZERO,
        );
        assert_eq!(replies.len(), 1);
        assert!(replies[0].flags.contains(TcpFlags::SYN));
        assert_eq!(replies[0].ack, 1);

        // In-order data advances rcv_nxt and bytes.
        let replies = s.on_segment(
            peer,
            &seg(30000, 5001, 1, 1, TcpFlags::ACK, MSS as usize),
            SimTime::ZERO,
        );
        assert_eq!(replies[0].ack, 1 + MSS);
        assert_eq!(s.conns.values().map(|c| c.bytes).sum::<u64>(), MSS as u64);

        // Out-of-order data re-ACKs the expected byte without counting.
        let replies = s.on_segment(
            peer,
            &seg(30000, 5001, 1 + 3 * MSS, 1, TcpFlags::ACK, MSS as usize),
            SimTime::ZERO,
        );
        assert_eq!(replies[0].ack, 1 + MSS);
        assert_eq!(s.conns.values().map(|c| c.bytes).sum::<u64>(), MSS as u64);
    }

    #[test]
    fn server_rst_for_unknown_connection() {
        let mut s = IperfServerApp::new(5001);
        let peer: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let replies = s.on_segment(
            peer,
            &seg(30000, 5001, 1, 1, TcpFlags::ACK, 100),
            SimTime::ZERO,
        );
        assert!(replies[0].flags.contains(TcpFlags::RST));
    }

    fn client(duration_secs: u64) -> IperfClientApp {
        IperfClientApp::new(
            "test".into(),
            "10.0.0.6".parse().unwrap(),
            5001,
            30000,
            SimTime::from_secs(duration_secs),
            SimTime::ZERO,
        )
    }

    #[test]
    fn client_retries_syn_then_gives_up_as_dos() {
        let mut c = client(10);
        let mut now = SimTime::ZERO;
        let mut syns = 0;
        loop {
            let (segs, next) = c.tick(now);
            syns += segs
                .iter()
                .filter(|s| s.flags.contains(TcpFlags::SYN))
                .count();
            match next {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(syns, SYN_MAX_ATTEMPTS as usize);
        let st = c.stats();
        assert!(st.finished);
        assert!(!st.connected);
        assert_eq!(st.throughput_mbps(), 0.0);
        assert!(st.is_denial_of_service());
    }

    #[test]
    fn client_fills_window_on_syn_ack_and_slides_on_acks() {
        let mut c = client(10);
        c.tick(SimTime::ZERO); // sends SYN
        let burst = c.on_segment(
            &seg(5001, 30000, 0, 1, TcpFlags::SYN | TcpFlags::ACK, 0),
            SimTime::from_millis(1),
        );
        assert_eq!(burst.len(), WINDOW_SEGMENTS as usize);
        assert_eq!(burst[0].seq, 1);
        assert_eq!(burst[1].seq, 1 + MSS);

        // ACK of 2 segments opens exactly 2 more slots.
        let more = c.on_segment(
            &seg(5001, 30000, 1, 1 + 2 * MSS, TcpFlags::ACK, 0),
            SimTime::from_millis(2),
        );
        assert_eq!(more.len(), 2);
        assert_eq!(c.stats().bytes, 2 * MSS as u64);
    }

    #[test]
    fn client_rto_rewinds_to_snd_una() {
        let mut c = client(10);
        c.tick(SimTime::ZERO);
        c.on_segment(
            &seg(5001, 30000, 0, 1, TcpFlags::SYN | TcpFlags::ACK, 0),
            SimTime::from_millis(1),
        );
        // No ACKs for an RTO: retransmission burst from snd_una = 1.
        let (segs, _) = c.tick(SimTime::from_millis(1) + RTO);
        assert!(!segs.is_empty());
        assert_eq!(segs[0].seq, 1);
    }

    #[test]
    fn client_finishes_with_fin_after_deadline() {
        let mut c = client(1);
        c.tick(SimTime::ZERO);
        c.on_segment(
            &seg(5001, 30000, 0, 1, TcpFlags::SYN | TcpFlags::ACK, 0),
            SimTime::from_millis(1),
        );
        // Past the deadline, the server ACKs everything in flight (no
        // new data goes out at that point) and the next tick closes the
        // connection with a FIN.
        let acked = c.snd_nxt;
        c.on_segment(
            &seg(5001, 30000, 1, acked, TcpFlags::ACK, 0),
            SimTime::from_secs(2),
        );
        assert_eq!(c.snd_una, c.snd_nxt);
        let (segs, next) = c.tick(SimTime::from_millis(2100));
        assert!(segs.iter().any(|s| s.flags.contains(TcpFlags::FIN)));
        assert_eq!(next, None);
        let st = c.stats();
        assert!(st.finished && st.connected);
        assert!(st.bytes > 0);
    }

    #[test]
    fn throughput_math() {
        let st = IperfStats {
            label: "x".into(),
            dst: "10.0.0.1".parse().unwrap(),
            bytes: 12_500_000, // 100 Mbit
            duration_secs: 10.0,
            connected: true,
            finished: true,
        };
        assert!((st.throughput_mbps() - 10.0).abs() < 1e-9);
        assert!(!st.is_denial_of_service());
    }
}
