//! The one learning switch and the five fingerprint rows that drive it.
//!
//! Every implementation parameter the paper's §VII attributes a divergent
//! manifestation to is a column of [`Profile`]; every controller is one
//! `const` row. The application ([`LearningSwitch`]), the DMZ firewall,
//! and the [`ControllerKind`] predicates the campaign oracle is derived
//! from all read the same row, so they cannot disagree.

use crate::traits::{Controller, ControllerKind, Outbox};
use attain_openflow::{
    packet, Action, DatapathId, FlowKey, FlowMod, FlowModCommand, FlowModFlags, MacAddr, Match,
    OfMessage, PacketIn, PacketOut, PortNo, SwitchFeatures, Wildcards,
};
use std::collections::HashMap;

/// What an application does when the destination was learned on the very
/// port the packet arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hairpin {
    /// Free the buffer with an action-less `PACKET_OUT`; install nothing.
    Release,
    /// Install a drop flow (`l2_learning`'s "same port" path).
    DropFlow,
    /// No special case: install and forward back out of the ingress port.
    Forward,
    /// Treat the destination as unknown and flood.
    Flood,
}

/// One row of the controller divergence table in the crate docs.
#[derive(Debug)]
pub(crate) struct Profile {
    /// Machine-readable label ([`ControllerKind::slug`]).
    pub slug: &'static str,
    /// Display name, as the paper spells it.
    pub name: &'static str,
    /// `false` for the hub: every packet is flooded by `PACKET_OUT`,
    /// nothing is learned, and of the flow-mod columns below only `style`
    /// is ever read — by the DMZ firewall on top of it.
    pub installs_flows: bool,
    /// How flow-mod matches are built.
    pub style: MatchStyle,
    /// The application's flow-mod cookie.
    pub cookie: u64,
    /// Flow-mod priority.
    pub priority: u16,
    /// Flow-mod idle timeout in seconds (0: none).
    pub idle_timeout: u16,
    /// Flow-mod hard timeout in seconds (0: none).
    pub hard_timeout: u16,
    /// Whether `buffer_id` rides on the `FLOW_MOD` (so the flow mod is the
    /// only thing that releases a buffered packet) rather than on a
    /// separate `PACKET_OUT`.
    pub buffer_on_flow_mod: bool,
    /// The same-port case.
    pub hairpin: Hairpin,
    /// Whether the DMZ firewall follows a buffer-carrying deny entry with
    /// an explicit action-less `PACKET_OUT`.
    pub firewall_packet_out: bool,
    /// Mean per-message platform latency, microseconds.
    pub processing_delay_us: u64,
}

/// Floodlight v1.2 `Forwarding`: `FLOWMOD_DEFAULT_IDLE_TIMEOUT` 5 s,
/// `FLOWMOD_DEFAULT_PRIORITY` 1, the module's app cookie; a JVM service
/// pipeline with fast steady-state dispatch.
const FLOODLIGHT: Profile = Profile {
    slug: "floodlight",
    name: "Floodlight",
    installs_flows: true,
    style: MatchStyle::L3Aware,
    cookie: 0x20_000000,
    priority: 1,
    idle_timeout: 5,
    hard_timeout: 0,
    buffer_on_flow_mod: false,
    hairpin: Hairpin::Release,
    firewall_packet_out: true,
    processing_delay_us: 300,
};

/// POX v0.2.0 `forwarding.l2_learning`: `idle_timeout=10`,
/// `hard_timeout=30`, `ofp_match.from_packet`, `buffer_id` on the flow mod
/// — the paper's Figure 11 asterisk. CPython event loop: the slowest
/// platform.
const POX: Profile = Profile {
    slug: "pox",
    name: "POX",
    installs_flows: true,
    style: MatchStyle::FullExact,
    cookie: 0,
    priority: 0x8000,
    idle_timeout: 10,
    hard_timeout: 30,
    buffer_on_flow_mod: true,
    hairpin: Hairpin::DropFlow,
    firewall_packet_out: false,
    processing_delay_us: 1200,
};

/// Ryu v4.5 `simple_switch` (OpenFlow 1.0): timeout-free L2-only entries
/// sent with `OFP_NO_BUFFER`, and a `PACKET_OUT` for every packet-in.
/// CPython with an eventlet hub: between Floodlight and POX.
const RYU: Profile = Profile {
    slug: "ryu",
    name: "Ryu",
    installs_flows: true,
    style: MatchStyle::L2Only,
    cookie: 0,
    priority: 1,
    idle_timeout: 0,
    hard_timeout: 0,
    buffer_on_flow_mod: false,
    hairpin: Hairpin::Forward,
    firewall_packet_out: true,
    processing_delay_us: 800,
};

/// Beacon v1.0.4 `LearningSwitch` (the JVM controller Floodlight forked
/// from): `OFMatch.loadFromPacket` exact matches and POX's
/// buffer-on-flow-mod, with Floodlight's 5 s idle timeout — a combination
/// neither paper controller exhibits. A leaner JVM pipeline than
/// Floodlight's service chain.
const BEACON: Profile = Profile {
    slug: "beacon",
    name: "Beacon",
    installs_flows: true,
    style: MatchStyle::FullExact,
    cookie: 0,
    priority: 0x8000,
    idle_timeout: 5,
    hard_timeout: 0,
    buffer_on_flow_mod: true,
    hairpin: Hairpin::Flood,
    // Pinned by the campaign goldens, not a claim about Beacon: its deny
    // entry carries the buffer *and* is followed by the PACKET_OUT.
    firewall_packet_out: true,
    processing_delay_us: 250,
};

/// A static flooding hub (POX `forwarding.hub` style), the degenerate
/// corner of the campaign's controller space: attacks that key on
/// `FLOW_MOD`s have nothing to match, and every data-plane packet
/// round-trips through the controller forever. CPython, one-line handler.
const HUB: Profile = Profile {
    slug: "hub",
    name: "Hub",
    installs_flows: false,
    // An L2 match is all the state a hub-style application keeps.
    style: MatchStyle::L2Only,
    cookie: 0,
    priority: 0,
    idle_timeout: 0,
    hard_timeout: 0,
    buffer_on_flow_mod: false,
    hairpin: Hairpin::Flood,
    firewall_packet_out: true,
    processing_delay_us: 800,
};

impl ControllerKind {
    /// This controller's row of the divergence table.
    pub(crate) fn profile(self) -> &'static Profile {
        match self {
            ControllerKind::Floodlight => &FLOODLIGHT,
            ControllerKind::Pox => &POX,
            ControllerKind::Ryu => &RYU,
            ControllerKind::Beacon => &BEACON,
            ControllerKind::Hub => &HUB,
        }
    }

    /// Instantiates a fresh (bare, un-wrapped) application of this kind.
    pub fn instantiate(&self) -> Box<dyn Controller> {
        Box::new(LearningSwitch {
            kind: *self,
            table: L2Table::default(),
        })
    }
}

/// The learning-switch application, behaving as its kind's row says.
#[derive(Debug, Clone)]
struct LearningSwitch {
    kind: ControllerKind,
    table: L2Table,
}

/// A `PACKET_OUT` answering `pi`: names the buffer if the switch kept
/// one, resends the raw data otherwise.
pub(crate) fn packet_out(pi: &PacketIn, actions: Vec<Action>) -> OfMessage {
    OfMessage::PacketOut(PacketOut {
        buffer_id: pi.buffer_id,
        in_port: pi.in_port,
        actions,
        data: if pi.buffer_id.is_none() {
            pi.data.clone()
        } else {
            vec![]
        },
    })
}

fn output(port: PortNo) -> Vec<Action> {
    vec![Action::Output { port, max_len: 0 }]
}

impl LearningSwitch {
    fn flow_mod(&self, key: &FlowKey, pi: &PacketIn, actions: Vec<Action>) -> OfMessage {
        let p = self.kind.profile();
        OfMessage::FlowMod(FlowMod {
            r#match: p.style.build(key),
            cookie: p.cookie,
            command: FlowModCommand::Add,
            idle_timeout: p.idle_timeout,
            hard_timeout: p.hard_timeout,
            priority: p.priority,
            buffer_id: pi.buffer_id.filter(|_| p.buffer_on_flow_mod),
            out_port: PortNo::NONE,
            flags: FlowModFlags::default(),
            actions,
        })
    }
}

impl Controller for LearningSwitch {
    fn kind(&self) -> ControllerKind {
        self.kind
    }

    fn on_switch_connect(
        &mut self,
        _dpid: DatapathId,
        _features: &SwitchFeatures,
        _out: &mut Outbox,
    ) {
    }

    fn on_packet_in(&mut self, dpid: DatapathId, pi: &PacketIn, out: &mut Outbox) {
        let p = self.kind.profile();
        if !p.installs_flows {
            // The hub neither parses nor learns.
            out.send(dpid, packet_out(pi, output(PortNo::FLOOD)));
            return;
        }
        let key = packet::flow_key(&pi.data, pi.in_port);
        self.table.learn(dpid, key.dl_src, pi.in_port);

        let dst_port = if key.dl_dst.is_multicast() {
            None
        } else {
            self.table.lookup(dpid, key.dl_dst)
        };
        let Some(port) = dst_port else {
            out.send(dpid, packet_out(pi, output(PortNo::FLOOD)));
            return;
        };
        if port == pi.in_port {
            let reply = match p.hairpin {
                Hairpin::Forward => None,
                Hairpin::Release => Some(packet_out(pi, vec![])),
                Hairpin::DropFlow => Some(self.flow_mod(&key, pi, vec![])),
                Hairpin::Flood => Some(packet_out(pi, output(PortNo::FLOOD))),
            };
            if let Some(reply) = reply {
                out.send(dpid, reply);
                return;
            }
        }
        out.send(dpid, self.flow_mod(&key, pi, output(port)));
        // Where the flow mod carries the buffer it is the only release;
        // an unbuffered packet is resent alongside it everywhere.
        if !p.buffer_on_flow_mod || pi.buffer_id.is_none() {
            out.send(dpid, packet_out(pi, output(port)));
        }
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId) {
        self.table.forget_switch(dpid);
    }

    fn reset(&mut self) {
        self.table.clear();
    }

    fn processing_delay_us(&self) -> u64 {
        self.kind.profile().processing_delay_us
    }

    fn fork(&self) -> Option<Box<dyn Controller>> {
        Some(Box::new(self.clone()))
    }
}

/// The MAC learning table: one `(switch, MAC) → port` map, exactly what
/// `l2_learning`/`simple_switch` keep per datapath.
#[derive(Debug, Default, Clone)]
struct L2Table {
    entries: HashMap<(DatapathId, MacAddr), PortNo>,
}

impl L2Table {
    /// Records that `mac` was seen on `port` of switch `dpid`.
    fn learn(&mut self, dpid: DatapathId, mac: MacAddr, port: PortNo) {
        self.entries.insert((dpid, mac), port);
    }

    /// Looks up the port `mac` was last seen on at `dpid`.
    fn lookup(&self, dpid: DatapathId, mac: MacAddr) -> Option<PortNo> {
        self.entries.get(&(dpid, mac)).copied()
    }

    /// Drops everything learned at `dpid` (on disconnect).
    fn forget_switch(&mut self, dpid: DatapathId) {
        self.entries.retain(|(d, _), _| *d != dpid);
    }

    /// Drops everything (on controller restart).
    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// How a controller constructs the match of the flow mods it installs —
/// the implementation detail the connection-interruption attack's rule
/// `φ2` hinges on (paper §VII-C4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MatchStyle {
    /// Floodlight `Forwarding`: ingress port, MACs, ethertype, and the
    /// IP/ARP network addresses — but not ToS or transport ports.
    L3Aware,
    /// POX `l2_learning`: `ofp_match.from_packet` — an exact match on all
    /// twelve fields.
    FullExact,
    /// Ryu `simple_switch`: L2 only — ingress port and MACs. The network
    /// addresses are *wildcarded*, which is why `φ2` (which reads
    /// `nw_src`) never fires against Ryu.
    L2Only,
}

impl MatchStyle {
    /// Builds a flow-mod match for `key` in this style.
    pub(crate) fn build(&self, key: &FlowKey) -> Match {
        match self {
            MatchStyle::FullExact => Match::from_flow_key(key),
            MatchStyle::L2Only => {
                let w = Wildcards::ALL.0
                    & !(Wildcards::IN_PORT | Wildcards::DL_SRC | Wildcards::DL_DST);
                Match {
                    wildcards: Wildcards(w),
                    in_port: key.in_port,
                    dl_src: key.dl_src,
                    dl_dst: key.dl_dst,
                    ..Match::all()
                }
            }
            MatchStyle::L3Aware => {
                let w = Wildcards(
                    Wildcards::ALL.0
                        & !(Wildcards::IN_PORT
                            | Wildcards::DL_SRC
                            | Wildcards::DL_DST
                            | Wildcards::DL_TYPE),
                )
                .with_nw_src_ignored_bits(0)
                .with_nw_dst_ignored_bits(0);
                Match {
                    wildcards: w,
                    in_port: key.in_port,
                    dl_src: key.dl_src,
                    dl_dst: key.dl_dst,
                    dl_type: key.dl_type,
                    nw_src: key.nw_src,
                    nw_dst: key.nw_dst,
                    ..Match::all()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey {
            in_port: PortNo(2),
            dl_src: MacAddr::from_low(1),
            dl_dst: MacAddr::from_low(2),
            dl_vlan: 0xffff,
            dl_vlan_pcp: 0,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 6,
            nw_src: 0x0a000101,
            nw_dst: 0x0a000202,
            tp_src: 1234,
            tp_dst: 80,
        }
    }

    #[test]
    fn l2_table_learn_lookup_forget() {
        let mut t = L2Table::default();
        t.learn(DatapathId(1), MacAddr::from_low(5), PortNo(3));
        t.learn(DatapathId(2), MacAddr::from_low(5), PortNo(7));
        assert_eq!(
            t.lookup(DatapathId(1), MacAddr::from_low(5)),
            Some(PortNo(3))
        );
        assert_eq!(
            t.lookup(DatapathId(2), MacAddr::from_low(5)),
            Some(PortNo(7))
        );
        assert_eq!(t.lookup(DatapathId(3), MacAddr::from_low(5)), None);
        t.forget_switch(DatapathId(1));
        assert_eq!(t.lookup(DatapathId(1), MacAddr::from_low(5)), None);
        assert_eq!(t.entries.len(), 1);
    }

    #[test]
    fn relearning_moves_the_port() {
        let mut t = L2Table::default();
        t.learn(DatapathId(1), MacAddr::from_low(5), PortNo(3));
        t.learn(DatapathId(1), MacAddr::from_low(5), PortNo(4));
        assert_eq!(
            t.lookup(DatapathId(1), MacAddr::from_low(5)),
            Some(PortNo(4))
        );
        assert_eq!(t.entries.len(), 1);
    }

    #[test]
    fn full_exact_pins_every_field() {
        let m = MatchStyle::FullExact.build(&key());
        assert_eq!(m.wildcards, Wildcards::NONE);
        assert_eq!(m.nw_src_addr().map(u32::from), Some(0x0a000101));
    }

    #[test]
    fn l2_only_wildcards_network_addresses() {
        let m = MatchStyle::L2Only.build(&key());
        assert!(m.wildcards.nw_src_all());
        assert!(m.wildcards.nw_dst_all());
        assert_eq!(m.nw_src_addr(), None); // φ2 cannot read an nw_src here
        assert!(m.matches(&key()));
    }

    #[test]
    fn l3_aware_pins_ips_but_not_ports() {
        let m = MatchStyle::L3Aware.build(&key());
        assert_eq!(m.nw_src_addr().map(u32::from), Some(0x0a000101));
        assert_eq!(m.nw_dst_addr().map(u32::from), Some(0x0a000202));
        assert!(m.wildcards.has(Wildcards::TP_SRC));
        assert!(m.wildcards.has(Wildcards::TP_DST));
        assert!(m.matches(&key()));
        // Same hosts, different TCP ports: still matches (coarser than POX).
        let mut k2 = key();
        k2.tp_src = 9999;
        assert!(m.matches(&k2));
        assert!(!MatchStyle::FullExact.build(&key()).matches(&k2));
    }

    #[test]
    fn all_styles_match_their_own_key() {
        for style in [
            MatchStyle::L3Aware,
            MatchStyle::FullExact,
            MatchStyle::L2Only,
        ] {
            assert!(style.build(&key()).matches(&key()), "{style:?}");
        }
    }
}
