//! Simulated end hosts: ARP, ICMP echo responder, and the `ping` /
//! `iperf` workload applications.

mod iperf;
mod ping;
mod probe;

pub use iperf::IperfStats;
pub use ping::PingStats;
pub use probe::ProbeStats;

use crate::engine::{Effect, TimerToken};
use crate::time::SimTime;
use attain_openflow::packet::{self, ArpOperation, Ethernet, IcmpKind, IpPayload, Payload};
use attain_openflow::{MacAddr, PortNo};
use iperf::{IperfClientApp, IperfServerApp};
use ping::PingApp;
use probe::{CapacityProbeApp, ProbeSend};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A host's single network interface is always port 1.
pub(crate) const HOST_PORT: PortNo = PortNo(1);

const ARP_RETRY: SimTime = SimTime::from_secs(1);
const ARP_MAX_RETRIES: u32 = 5;

#[derive(Debug, Clone)]
struct PendingArp {
    /// Frames waiting for resolution, destination MAC left as broadcast
    /// and patched on flush.
    frames: Vec<Vec<u8>>,
    retries: u32,
}

#[derive(Debug, Clone)]
enum App {
    Ping(PingApp),
    IperfServer(IperfServerApp),
    IperfClient(IperfClientApp),
    CapacityProbe(CapacityProbeApp),
}

/// A simulated end host.
#[derive(Debug, Clone)]
pub struct Host {
    name: String,
    mac: MacAddr,
    ip: Ipv4Addr,
    arp_table: BTreeMap<Ipv4Addr, MacAddr>,
    pending: BTreeMap<Ipv4Addr, PendingArp>,
    arp_timer_armed: bool,
    apps: Vec<App>,
}

impl Host {
    pub(crate) fn new(name: String, mac: MacAddr, ip: Ipv4Addr) -> Host {
        Host {
            name,
            mac,
            ip,
            arp_table: BTreeMap::new(),
            pending: BTreeMap::new(),
            arp_timer_armed: false,
            apps: Vec::new(),
        }
    }

    /// Seeds the ARP table with a static `(ip, mac)` binding (topology
    /// setup for generated workloads: no broadcast warm-up).
    pub(crate) fn prime_arp(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp_table.insert(ip, mac);
    }

    /// The host's name (e.g. `h1`).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The host's IPv4 address.
    pub(crate) fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// The host's MAC address.
    pub(crate) fn mac(&self) -> MacAddr {
        self.mac
    }

    /// Completed and in-progress ping runs, in start order.
    pub(crate) fn ping_stats(&self) -> Vec<PingStats> {
        self.apps
            .iter()
            .filter_map(|a| match a {
                App::Ping(p) => Some(p.stats()),
                _ => None,
            })
            .collect()
    }

    /// Completed and in-progress iperf client runs, in start order.
    pub(crate) fn iperf_stats(&self) -> Vec<IperfStats> {
        self.apps
            .iter()
            .filter_map(|a| match a {
                App::IperfClient(c) => Some(c.stats()),
                _ => None,
            })
            .collect()
    }

    /// Completed and in-progress capacity-probe runs, in start order.
    pub(crate) fn probe_stats(&self) -> Vec<ProbeStats> {
        self.apps
            .iter()
            .filter_map(|a| match a {
                App::CapacityProbe(p) => Some(p.stats()),
                _ => None,
            })
            .collect()
    }

    // ---- workload control -------------------------------------------------

    pub(crate) fn start_ping(
        &mut self,
        dst: Ipv4Addr,
        count: u32,
        interval: SimTime,
        label: String,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let app = self.apps.len();
        // The echo identifier ties replies back to this app slot.
        self.apps.push(App::Ping(PingApp::new(
            label, dst, count, interval, app as u16,
        )));
        fx.push(Effect::Timer {
            at: now,
            token: TimerToken::App { app },
        });
    }

    pub(crate) fn start_iperf_server(&mut self, port: u16) {
        self.apps.push(App::IperfServer(IperfServerApp::new(port)));
    }

    pub(crate) fn start_probe(
        &mut self,
        dst: Ipv4Addr,
        fill: usize,
        gap: SimTime,
        label: String,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let app = self.apps.len();
        // The echo identifier ties replies back to this app slot.
        self.apps.push(App::CapacityProbe(CapacityProbeApp::new(
            label, dst, fill, gap, app as u16,
        )));
        fx.push(Effect::Timer {
            at: now,
            token: TimerToken::App { app },
        });
    }

    pub(crate) fn start_iperf_client(
        &mut self,
        dst: Ipv4Addr,
        port: u16,
        duration: SimTime,
        label: String,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let app = self.apps.len();
        let src_port = 30000 + app as u16;
        self.apps.push(App::IperfClient(IperfClientApp::new(
            label, dst, port, src_port, duration, now,
        )));
        fx.push(Effect::Timer {
            at: now,
            token: TimerToken::App { app },
        });
    }

    // ---- frame handling ---------------------------------------------------

    pub(crate) fn handle_frame(&mut self, frame: &[u8], now: SimTime, fx: &mut Vec<Effect>) {
        let mut eth = match Ethernet::decode(frame) {
            Ok(e) => e,
            Err(_) => return,
        };
        if eth.dst != self.mac && !eth.dst.is_broadcast() {
            // A reply addressed to one of our probes' spoofed sources
            // still belongs to us; anything else was flooded for
            // someone else.
            self.deliver_to_probe(&eth, now);
            return;
        }
        match &mut eth.payload {
            Payload::Arp(arp) => match arp.operation {
                ArpOperation::Request if arp.target_ip == self.ip => {
                    self.arp_table.insert(arp.sender_ip, arp.sender_mac);
                    let reply = packet::arp_reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip);
                    fx.push(Effect::Frame {
                        out_port: HOST_PORT,
                        frame: reply.encode(),
                    });
                }
                ArpOperation::Reply if arp.target_ip == self.ip || eth.dst == self.mac => {
                    self.arp_table.insert(arp.sender_ip, arp.sender_mac);
                    self.flush_pending(arp.sender_ip, arp.sender_mac, fx);
                }
                _ => {}
            },
            Payload::Ipv4(ip) => {
                if ip.dst != self.ip {
                    return;
                }
                match &mut ip.payload {
                    IpPayload::Icmp(icmp) => match icmp.kind() {
                        IcmpKind::EchoRequest => {
                            let reply = packet::icmp_echo_reply(
                                self.mac,
                                eth.src,
                                self.ip,
                                ip.src,
                                icmp.identifier,
                                icmp.sequence,
                                std::mem::take(&mut icmp.payload),
                            );
                            // Reply goes back through ARP-free fast path:
                            // we already know the sender's MAC.
                            self.arp_table.insert(ip.src, eth.src);
                            fx.push(Effect::Frame {
                                out_port: HOST_PORT,
                                frame: reply.encode(),
                            });
                        }
                        IcmpKind::EchoReply => {
                            let app = icmp.identifier as usize;
                            match self.apps.get_mut(app) {
                                Some(App::Ping(p)) => p.on_reply(icmp.sequence, now),
                                Some(App::CapacityProbe(p)) => p.on_reply(icmp.sequence, now),
                                _ => {}
                            }
                        }
                        _ => {}
                    },
                    IpPayload::Tcp(tcp) => {
                        self.arp_table.insert(ip.src, eth.src);
                        self.handle_tcp(ip.src, eth.src, tcp, now, fx);
                    }
                    _ => {}
                }
            }
            Payload::Other(_) => {}
        }
    }

    /// Routes an echo reply addressed to a spoofed probe source MAC to
    /// the owning capacity-probe app.
    fn deliver_to_probe(&mut self, eth: &Ethernet, now: SimTime) {
        let Payload::Ipv4(ip) = &eth.payload else {
            return;
        };
        let IpPayload::Icmp(icmp) = &ip.payload else {
            return;
        };
        if icmp.kind() != IcmpKind::EchoReply {
            return;
        }
        if let Some(App::CapacityProbe(p)) = self.apps.get_mut(icmp.identifier as usize) {
            if p.owns(eth.dst) {
                p.on_reply(icmp.sequence, now);
            }
        }
    }

    fn handle_tcp(
        &mut self,
        peer_ip: Ipv4Addr,
        peer_mac: MacAddr,
        tcp: &attain_openflow::packet::Tcp,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        let my_mac = self.mac;
        let my_ip = self.ip;
        // Server side: a listener on the destination port wins.
        for app in &mut self.apps {
            if let App::IperfServer(s) = app {
                if s.port() == tcp.dst_port {
                    for seg in s.on_segment(peer_ip, tcp, now) {
                        let frame = packet::tcp_segment(
                            my_mac,
                            peer_mac,
                            my_ip,
                            peer_ip,
                            seg.src_port,
                            seg.dst_port,
                            seg.seq,
                            seg.ack,
                            seg.flags,
                            seg.payload,
                        );
                        fx.push(Effect::Frame {
                            out_port: HOST_PORT,
                            frame: frame.encode(),
                        });
                    }
                    return;
                }
            }
        }
        // Client side: match on our ephemeral port.
        for app in &mut self.apps {
            if let App::IperfClient(c) = app {
                if c.src_port() == tcp.dst_port {
                    let sends = c.on_segment(tcp, now);
                    self.emit_tcp(peer_ip, sends, now, fx);
                    return;
                }
            }
        }
    }

    fn emit_tcp(
        &mut self,
        dst_ip: Ipv4Addr,
        segs: Vec<iperf::SegmentOut>,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        for seg in segs {
            let frame = packet::tcp_segment(
                self.mac,
                self.arp_table
                    .get(&dst_ip)
                    .copied()
                    .unwrap_or(MacAddr::BROADCAST),
                self.ip,
                dst_ip,
                seg.src_port,
                seg.dst_port,
                seg.seq,
                seg.ack,
                seg.flags,
                seg.payload,
            );
            self.send_ip_frame(dst_ip, frame.encode(), now, fx);
        }
    }

    /// Sends an IP frame, resolving the destination MAC first if needed.
    /// `frame` must have been built with some placeholder destination MAC;
    /// it is patched on flush.
    fn send_ip_frame(
        &mut self,
        dst_ip: Ipv4Addr,
        frame: Vec<u8>,
        now: SimTime,
        fx: &mut Vec<Effect>,
    ) {
        if let Some(mac) = self.arp_table.get(&dst_ip).copied() {
            let mut f = frame;
            f[..6].copy_from_slice(&mac.0);
            fx.push(Effect::Frame {
                out_port: HOST_PORT,
                frame: f,
            });
            return;
        }
        let first_for_dst = !self.pending.contains_key(&dst_ip);
        self.pending
            .entry(dst_ip)
            .or_insert_with(|| PendingArp {
                frames: Vec::new(),
                retries: 0,
            })
            .frames
            .push(frame);
        if first_for_dst {
            let req = packet::arp_request(self.mac, self.ip, dst_ip);
            fx.push(Effect::Frame {
                out_port: HOST_PORT,
                frame: req.encode(),
            });
        }
        if !self.arp_timer_armed {
            self.arp_timer_armed = true;
            fx.push(Effect::Timer {
                at: now + ARP_RETRY,
                token: TimerToken::ArpRetry,
            });
        }
    }

    fn flush_pending(&mut self, ip: Ipv4Addr, mac: MacAddr, fx: &mut Vec<Effect>) {
        if let Some(p) = self.pending.remove(&ip) {
            for mut frame in p.frames {
                frame[..6].copy_from_slice(&mac.0);
                fx.push(Effect::Frame {
                    out_port: HOST_PORT,
                    frame,
                });
            }
        }
    }

    // ---- timers -----------------------------------------------------------

    pub(crate) fn handle_timer(&mut self, token: TimerToken, now: SimTime, fx: &mut Vec<Effect>) {
        match token {
            TimerToken::App { app } => self.app_timer(app, now, fx),
            TimerToken::ArpRetry => self.arp_retry(now, fx),
            _ => {}
        }
    }

    fn arp_retry(&mut self, now: SimTime, fx: &mut Vec<Effect>) {
        let mut dead = Vec::new();
        let mut requests = Vec::new();
        for (&ip, p) in &mut self.pending {
            p.retries += 1;
            if p.retries > ARP_MAX_RETRIES {
                dead.push(ip);
            } else {
                requests.push(ip);
            }
        }
        for ip in dead {
            // Unreachable: give up, dropping the queued frames.
            self.pending.remove(&ip);
        }
        for ip in requests {
            let req = packet::arp_request(self.mac, self.ip, ip);
            fx.push(Effect::Frame {
                out_port: HOST_PORT,
                frame: req.encode(),
            });
        }
        if self.pending.is_empty() {
            self.arp_timer_armed = false;
        } else {
            fx.push(Effect::Timer {
                at: now + ARP_RETRY,
                token: TimerToken::ArpRetry,
            });
        }
    }

    fn app_timer(&mut self, app: usize, now: SimTime, fx: &mut Vec<Effect>) {
        let my_mac = self.mac;
        let my_ip = self.ip;
        enum Todo {
            None,
            Ping {
                dst: Ipv4Addr,
                ident: u16,
                seq: u16,
                next_at: Option<SimTime>,
            },
            Tcp {
                dst: Ipv4Addr,
                segs: Vec<iperf::SegmentOut>,
                next_at: Option<SimTime>,
            },
            Spoofed {
                dst: Ipv4Addr,
                ident: u16,
                src_mac: MacAddr,
                src_ip: Ipv4Addr,
                seq: u16,
                next_at: Option<SimTime>,
            },
            Quiet {
                next_at: Option<SimTime>,
            },
        }
        let todo = match self.apps.get_mut(app) {
            Some(App::Ping(p)) => match p.on_timer(now) {
                Some((seq, next_at)) => Todo::Ping {
                    dst: p.dst(),
                    ident: p.ident(),
                    seq,
                    next_at,
                },
                None => Todo::None,
            },
            Some(App::IperfClient(c)) => {
                let (segs, next_at) = c.on_timer(now);
                Todo::Tcp {
                    dst: c.dst(),
                    segs,
                    next_at,
                }
            }
            Some(App::CapacityProbe(p)) => {
                let (dst, ident) = (p.dst(), p.ident());
                let (send, next_at) = p.on_timer(now);
                match send {
                    // Warmup trials are ordinary pings from the host's
                    // real address: they share the ping send path.
                    ProbeSend::Warmup { seq } => Todo::Ping {
                        dst,
                        ident,
                        seq,
                        next_at,
                    },
                    ProbeSend::Spoofed {
                        src_mac,
                        src_ip,
                        seq,
                    } => Todo::Spoofed {
                        dst,
                        ident,
                        src_mac,
                        src_ip,
                        seq,
                        next_at,
                    },
                    ProbeSend::Quiet => Todo::Quiet { next_at },
                }
            }
            _ => Todo::None,
        };
        match todo {
            Todo::None => {}
            Todo::Ping {
                dst,
                ident,
                seq,
                next_at,
            } => {
                let frame = packet::icmp_echo_request(
                    my_mac,
                    MacAddr::BROADCAST, // patched by ARP resolution
                    my_ip,
                    dst,
                    ident,
                    seq,
                    vec![0x61; 56], // the classic 56-byte ping payload
                );
                self.send_ip_frame(dst, frame.encode(), now, fx);
                if let Some(at) = next_at {
                    fx.push(Effect::Timer {
                        at,
                        token: TimerToken::App { app },
                    });
                }
            }
            Todo::Tcp { dst, segs, next_at } => {
                self.emit_tcp(dst, segs, now, fx);
                if let Some(at) = next_at {
                    fx.push(Effect::Timer {
                        at,
                        token: TimerToken::App { app },
                    });
                }
            }
            Todo::Spoofed {
                dst,
                ident,
                src_mac,
                src_ip,
                seq,
                next_at,
            } => {
                // Warmup has already resolved the destination MAC; if it
                // somehow has not (unreachable victim), fall back to
                // broadcast so the probe still terminates.
                let dst_mac = self
                    .arp_table
                    .get(&dst)
                    .copied()
                    .unwrap_or(MacAddr::BROADCAST);
                let frame = packet::icmp_echo_request(
                    src_mac,
                    dst_mac,
                    src_ip,
                    dst,
                    ident,
                    seq,
                    vec![0x70; 56],
                );
                fx.push(Effect::Frame {
                    out_port: HOST_PORT,
                    frame: frame.encode(),
                });
                if let Some(at) = next_at {
                    fx.push(Effect::Timer {
                        at,
                        token: TimerToken::App { app },
                    });
                }
            }
            Todo::Quiet { next_at } => {
                if let Some(at) = next_at {
                    fx.push(Effect::Timer {
                        at,
                        token: TimerToken::App { app },
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(
            "h1".into(),
            MacAddr::from_low(1),
            "10.0.0.1".parse().unwrap(),
        )
    }

    #[test]
    fn answers_arp_requests_for_own_ip() {
        let mut h = host();
        let req = packet::arp_request(
            MacAddr::from_low(2),
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        );
        let mut fx = Vec::new();
        h.handle_frame(&req.encode(), SimTime::ZERO, &mut fx);
        assert_eq!(fx.len(), 1);
        let Effect::Frame { frame, .. } = &fx[0] else {
            panic!("expected frame");
        };
        let eth = Ethernet::decode(frame).unwrap();
        let Payload::Arp(arp) = eth.payload else {
            panic!("expected arp");
        };
        assert_eq!(arp.operation, ArpOperation::Reply);
        assert_eq!(arp.sender_mac, MacAddr::from_low(1));
    }

    #[test]
    fn ignores_arp_requests_for_other_ips() {
        let mut h = host();
        let req = packet::arp_request(
            MacAddr::from_low(2),
            "10.0.0.2".parse().unwrap(),
            "10.0.0.9".parse().unwrap(),
        );
        let mut fx = Vec::new();
        h.handle_frame(&req.encode(), SimTime::ZERO, &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn answers_echo_requests() {
        let mut h = host();
        let req = packet::icmp_echo_request(
            MacAddr::from_low(2),
            MacAddr::from_low(1),
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            7,
            3,
            vec![1, 2, 3],
        );
        let mut fx = Vec::new();
        h.handle_frame(&req.encode(), SimTime::ZERO, &mut fx);
        assert_eq!(fx.len(), 1);
        let Effect::Frame { frame, .. } = &fx[0] else {
            panic!()
        };
        let eth = Ethernet::decode(frame).unwrap();
        let Payload::Ipv4(ip) = eth.payload else {
            panic!()
        };
        let IpPayload::Icmp(icmp) = ip.payload else {
            panic!()
        };
        assert_eq!(icmp.kind(), IcmpKind::EchoReply);
        assert_eq!(icmp.sequence, 3);
        assert_eq!(icmp.payload, vec![1, 2, 3]);
    }

    #[test]
    fn ping_defers_to_arp_then_flushes() {
        let mut h = host();
        let mut fx = Vec::new();
        h.start_ping(
            "10.0.0.2".parse().unwrap(),
            2,
            SimTime::from_secs(1),
            "test".into(),
            SimTime::ZERO,
            &mut fx,
        );
        // Fire the app timer: should produce an ARP request (not the echo).
        let mut fx2 = Vec::new();
        h.handle_timer(TimerToken::App { app: 0 }, SimTime::ZERO, &mut fx2);
        let frames: Vec<_> = fx2
            .iter()
            .filter_map(|e| match e {
                Effect::Frame { frame, .. } => Some(Ethernet::decode(frame).unwrap()),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0].payload, Payload::Arp(_)));
        // ARP reply arrives: the queued echo flushes with the right MAC.
        let reply = packet::arp_reply(
            MacAddr::from_low(2),
            "10.0.0.2".parse().unwrap(),
            MacAddr::from_low(1),
            "10.0.0.1".parse().unwrap(),
        );
        let mut fx3 = Vec::new();
        h.handle_frame(&reply.encode(), SimTime::from_millis(1), &mut fx3);
        let frames: Vec<_> = fx3
            .iter()
            .filter_map(|e| match e {
                Effect::Frame { frame, .. } => Some(Ethernet::decode(frame).unwrap()),
                _ => None,
            })
            .collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].dst, MacAddr::from_low(2));
        assert!(matches!(frames[0].payload, Payload::Ipv4(_)));
    }

    #[test]
    fn ping_round_trip_records_rtt() {
        let mut h = host();
        let mut fx = Vec::new();
        h.start_ping(
            "10.0.0.2".parse().unwrap(),
            1,
            SimTime::from_secs(1),
            "test".into(),
            SimTime::ZERO,
            &mut fx,
        );
        h.arp_table
            .insert("10.0.0.2".parse().unwrap(), MacAddr::from_low(2));
        let mut fx2 = Vec::new();
        h.handle_timer(TimerToken::App { app: 0 }, SimTime::ZERO, &mut fx2);
        // Reply 1.5 ms later.
        let reply = packet::icmp_echo_reply(
            MacAddr::from_low(2),
            MacAddr::from_low(1),
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            0, // app index 0 is the identifier
            1,
            vec![0x61; 56],
        );
        let mut fx3 = Vec::new();
        h.handle_frame(&reply.encode(), SimTime::from_micros(1500), &mut fx3);
        let stats = &h.ping_stats()[0];
        assert_eq!(stats.received(), 1);
        assert!((stats.rtts_ms()[0].unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arp_gives_up_after_max_retries() {
        let mut h = host();
        let mut fx = Vec::new();
        h.start_ping(
            "10.0.0.99".parse().unwrap(),
            1,
            SimTime::from_secs(1),
            "test".into(),
            SimTime::ZERO,
            &mut fx,
        );
        h.handle_timer(TimerToken::App { app: 0 }, SimTime::ZERO, &mut fx);
        assert_eq!(h.pending.len(), 1);
        for i in 0..6 {
            let mut fx2 = Vec::new();
            h.handle_timer(TimerToken::ArpRetry, SimTime::from_secs(1 + i), &mut fx2);
        }
        assert!(h.pending.is_empty());
        // The ping is recorded as lost, not answered.
        assert_eq!(h.ping_stats()[0].received(), 0);
    }
}
