//! Simulated end hosts: ARP, ICMP echo responder, and the `ping` /
//! `iperf` workload applications.

mod iperf;
mod ping;
mod probe;

pub use iperf::IperfStats;
pub use ping::PingStats;
pub use probe::ProbeStats;

use crate::command::HostCommand;
use crate::engine::{Effect, TimerToken};
use crate::time::SimTime;
use attain_openflow::packet::{self, ArpOperation, Ethernet, IcmpKind, IpPayload, Payload};
use attain_openflow::{MacAddr, PortNo};
use iperf::{IperfClientApp, IperfServerApp};
use ping::PingApp;
use probe::CapacityProbeApp;
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

/// What an application asks its host to send when its timer fires.
#[derive(Debug)]
pub(crate) enum AppSend {
    /// Nothing this time.
    Nothing,
    /// An ICMP echo request to `dst`: from the host's own address through
    /// ARP resolution, or, when `spoof` names a source MAC and IP, from
    /// that source straight onto the wire.
    Echo {
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        spoof: Option<(MacAddr, Ipv4Addr)>,
    },
    /// TCP segments to `dst`.
    Tcp {
        dst: Ipv4Addr,
        segs: Vec<iperf::SegmentOut>,
    },
}

/// A workload application a host runs.
#[derive(Debug, Clone)]
pub(crate) enum App {
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

    /// The host's applications, in start order.
    pub(crate) fn apps(&self) -> &[App] {
        &self.apps
    }

    // ---- workload control -------------------------------------------------

    /// Starts the application a workload command names; any other
    /// command is not the host's. A client's first timer fires at once.
    pub(crate) fn start(&mut self, cmd: HostCommand, now: SimTime, fx: &mut Vec<Effect>) {
        // Echo identifiers and client ports derive from the app's slot,
        // which ties replies back to it.
        let slot = self.apps.len();
        let app = match cmd {
            HostCommand::Ping {
                dst,
                count,
                interval,
                label,
                ..
            } => App::Ping(PingApp::new(label, dst, count, interval, slot as u16)),
            HostCommand::Probe {
                dst,
                fill,
                gap,
                label,
                ..
            } => App::CapacityProbe(CapacityProbeApp::new(
                label,
                dst,
                fill as usize,
                gap,
                slot as u16,
            )),
            HostCommand::IperfClient {
                dst,
                port,
                duration,
                label,
                ..
            } => {
                let src_port = 30000 + slot as u16;
                App::IperfClient(IperfClientApp::new(
                    label, dst, port, src_port, duration, now,
                ))
            }
            HostCommand::IperfServer { port, .. } => App::IperfServer(IperfServerApp::new(port)),
            HostCommand::Marker { .. } | HostCommand::Fault(_) => return,
        };
        // A server only answers; every other app has a timer.
        if !matches!(app, App::IperfServer(_)) {
            fx.push(Effect::Timer {
                at: now,
                token: TimerToken::App { app: slot },
            });
        }
        self.apps.push(app);
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

    /// An application's timer fired: sends what it asks for and re-arms
    /// the timer when it names a next time.
    fn app_timer(&mut self, app: usize, now: SimTime, fx: &mut Vec<Effect>) {
        let (send, next) = match self.apps.get_mut(app) {
            Some(App::Ping(p)) => p.on_timer(now),
            Some(App::IperfClient(c)) => c.on_timer(now),
            Some(App::CapacityProbe(p)) => p.on_timer(now),
            _ => return,
        };
        match send {
            AppSend::Nothing => {}
            AppSend::Echo {
                dst,
                ident,
                seq,
                spoof: None,
            } => {
                let frame = packet::icmp_echo_request(
                    self.mac,
                    MacAddr::BROADCAST, // patched by ARP resolution
                    self.ip,
                    dst,
                    ident,
                    seq,
                    vec![0x61; 56], // the classic 56-byte ping payload
                );
                self.send_ip_frame(dst, frame.encode(), now, fx);
            }
            AppSend::Echo {
                dst,
                ident,
                seq,
                spoof: Some((src_mac, src_ip)),
            } => {
                // A spoofed probe follows warmup pings, which resolved the
                // destination MAC; if they have not (unreachable victim),
                // fall back to broadcast so the probe still terminates.
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
            }
            AppSend::Tcp { dst, segs } => self.emit_tcp(dst, segs, now, fx),
        }
        if let Some(at) = next {
            fx.push(Effect::Timer {
                at,
                token: TimerToken::App { app },
            });
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

    /// `count` pings a second apart toward `dst`.
    fn ping(dst: &str, count: u32) -> HostCommand {
        HostCommand::Ping {
            host: crate::NodeId(0),
            dst: dst.parse().unwrap(),
            count,
            interval: SimTime::from_secs(1),
            label: "test".into(),
        }
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
        h.start(ping("10.0.0.2", 2), SimTime::ZERO, &mut fx);
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

    fn first_ping(h: &Host) -> PingStats {
        match &h.apps[0] {
            App::Ping(p) => p.stats(),
            other => panic!("{other:?} is not a ping"),
        }
    }

    #[test]
    fn ping_round_trip_records_rtt() {
        let mut h = host();
        let mut fx = Vec::new();
        h.start(ping("10.0.0.2", 1), SimTime::ZERO, &mut fx);
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
        let stats = first_ping(&h);
        assert_eq!(stats.received(), 1);
        assert!((stats.rtts_ms()[0].unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arp_gives_up_after_max_retries() {
        let mut h = host();
        let mut fx = Vec::new();
        h.start(ping("10.0.0.99", 1), SimTime::ZERO, &mut fx);
        h.handle_timer(TimerToken::App { app: 0 }, SimTime::ZERO, &mut fx);
        assert_eq!(h.pending.len(), 1);
        for i in 0..6 {
            let mut fx2 = Vec::new();
            h.handle_timer(TimerToken::ArpRetry, SimTime::from_secs(1 + i), &mut fx2);
        }
        assert!(h.pending.is_empty());
        // The ping is recorded as lost, not answered.
        assert_eq!(first_ping(&h).received(), 0);
    }
}
