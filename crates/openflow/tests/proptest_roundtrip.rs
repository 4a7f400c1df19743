//! Property-based tests: every generated message survives an
//! encode→decode roundtrip, and the decoder never panics on arbitrary
//! bytes (the safety property the injector's FUZZMESSAGE action depends
//! on).

use attain_openflow::packet::{self, Ethernet, TcpFlags};
use attain_openflow::{
    Action, ErrorMsg, ErrorType, FlowMod, FlowModCommand, FlowModFlags, FlowRemoved,
    FlowRemovedReason, MacAddr, Match, OfMessage, PacketIn, PacketInReason, PacketOut, PortNo,
    StatsBody, SwitchConfig, Wildcards,
};
use proptest::prelude::*;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_port() -> impl Strategy<Value = PortNo> {
    prop_oneof![
        (1u16..=0xff00).prop_map(PortNo),
        (0xfff8u16..=0xffff).prop_map(PortNo),
        Just(PortNo::FLOOD),
        Just(PortNo::CONTROLLER),
        Just(PortNo::NONE),
    ]
}

/// A match over a small value pool: every field takes one of two values,
/// each address one of four over which the prefix lengths in `PREFIXES`
/// differ, and seven flags in eight are wildcards. Two such matches
/// subsume or overlap each other often, where two arbitrary matches
/// almost never do.
fn pooled_match() -> impl Strategy<Value = Match> {
    const ADDRS: [u32; 4] = [0x0a00_0000, 0x0a00_0080, 0x0a01_0000, 0x0b00_0000];
    const PREFIXES: [u32; 8] = [0, 7, 8, 16, 24, 32, 40, 63];
    let flags = (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c)| a | b | c);
    (flags, 0usize..8, 0usize..8, any::<u16>()).prop_map(|(flags, src, dst, v)| {
        let bit = |i: u32| (v >> i) & 1;
        let wildcards = Wildcards(flags & Wildcards::FIELD_FLAGS)
            .with_nw_src_ignored_bits(PREFIXES[src])
            .with_nw_dst_ignored_bits(PREFIXES[dst]);
        Match {
            wildcards,
            in_port: PortNo(1 + bit(0)),
            dl_src: MacAddr::from_low(1 + u64::from(bit(1))),
            dl_dst: MacAddr::from_low(1 + u64::from(bit(2))),
            dl_vlan: bit(3),
            dl_vlan_pcp: bit(4) as u8,
            dl_type: 0x0800 + bit(5),
            nw_tos: bit(6) as u8,
            nw_proto: 6 + bit(7) as u8,
            nw_src: ADDRS[(v >> 8) as usize & 3],
            nw_dst: ADDRS[(v >> 10) as usize & 3],
            tp_src: 80 + bit(12),
            tp_dst: 80 + bit(13),
        }
    })
}

/// The OpenFlow 1.0 subsumption relation, field by field: the reference
/// `Match::subsumes` is checked against.
fn subsumes_by_fields(a: &Match, b: &Match) -> bool {
    let (aw, bw) = (a.wildcards, b.wildcards);
    let flag_ok = |bit: u32, eq: bool| aw.has(bit) || (!bw.has(bit) && eq);
    // `a`'s prefix is no more specific than `b`'s, and they agree on it.
    let ip_ok = |a: u32, a_ignored: u32, b: u32, b_ignored: u32| {
        a_ignored >= b_ignored && (a ^ b) & prefix_mask(a_ignored) == 0
    };
    flag_ok(Wildcards::IN_PORT, a.in_port == b.in_port)
        && flag_ok(Wildcards::DL_SRC, a.dl_src == b.dl_src)
        && flag_ok(Wildcards::DL_DST, a.dl_dst == b.dl_dst)
        && flag_ok(Wildcards::DL_VLAN, a.dl_vlan == b.dl_vlan)
        && flag_ok(Wildcards::DL_VLAN_PCP, a.dl_vlan_pcp == b.dl_vlan_pcp)
        && flag_ok(Wildcards::DL_TYPE, a.dl_type == b.dl_type)
        && flag_ok(Wildcards::NW_TOS, a.nw_tos == b.nw_tos)
        && flag_ok(Wildcards::NW_PROTO, a.nw_proto == b.nw_proto)
        && ip_ok(
            a.nw_src,
            aw.nw_src_ignored_bits(),
            b.nw_src,
            bw.nw_src_ignored_bits(),
        )
        && ip_ok(
            a.nw_dst,
            aw.nw_dst_ignored_bits(),
            b.nw_dst,
            bw.nw_dst_ignored_bits(),
        )
        && flag_ok(Wildcards::TP_SRC, a.tp_src == b.tp_src)
        && flag_ok(Wildcards::TP_DST, a.tp_dst == b.tp_dst)
}

/// Whether two matches admit a common packet, field by field: the
/// reference `Match::overlaps` is checked against.
fn overlaps_by_fields(a: &Match, b: &Match) -> bool {
    let (aw, bw) = (a.wildcards, b.wildcards);
    let flag_ok = |bit: u32, eq: bool| aw.has(bit) || bw.has(bit) || eq;
    // The addresses agree on the shorter of the two prefixes.
    let ip_ok = |a: u32, a_ignored: u32, b: u32, b_ignored: u32| {
        (a ^ b) & prefix_mask(a_ignored.max(b_ignored)) == 0
    };
    flag_ok(Wildcards::IN_PORT, a.in_port == b.in_port)
        && flag_ok(Wildcards::DL_SRC, a.dl_src == b.dl_src)
        && flag_ok(Wildcards::DL_DST, a.dl_dst == b.dl_dst)
        && flag_ok(Wildcards::DL_VLAN, a.dl_vlan == b.dl_vlan)
        && flag_ok(Wildcards::DL_VLAN_PCP, a.dl_vlan_pcp == b.dl_vlan_pcp)
        && flag_ok(Wildcards::DL_TYPE, a.dl_type == b.dl_type)
        && flag_ok(Wildcards::NW_TOS, a.nw_tos == b.nw_tos)
        && flag_ok(Wildcards::NW_PROTO, a.nw_proto == b.nw_proto)
        && ip_ok(
            a.nw_src,
            aw.nw_src_ignored_bits(),
            b.nw_src,
            bw.nw_src_ignored_bits(),
        )
        && ip_ok(
            a.nw_dst,
            aw.nw_dst_ignored_bits(),
            b.nw_dst,
            bw.nw_dst_ignored_bits(),
        )
        && flag_ok(Wildcards::TP_SRC, a.tp_src == b.tp_src)
        && flag_ok(Wildcards::TP_DST, a.tp_dst == b.tp_dst)
}

fn prefix_mask(ignored_bits: u32) -> u32 {
    u32::MAX.checked_shl(ignored_bits).unwrap_or(0)
}

#[test]
fn the_match_pool_makes_both_relations_go_both_ways() {
    let pairs = (pooled_match(), pooled_match());
    let mut rng = proptest::TestRng::for_test("match pool");
    let mut seen = [[0; 2]; 2];
    for _ in 0..2048 {
        let (a, b) = pairs.generate(&mut rng);
        if a != b {
            seen[0][usize::from(subsumes_by_fields(&a, &b))] += 1;
            seen[1][usize::from(overlaps_by_fields(&a, &b))] += 1;
        }
    }
    // [subsumes: no, yes], [overlaps: no, yes]
    assert!(seen.iter().flatten().all(|&n| n >= 100), "{seen:?}");
}

fn arb_wildcards() -> impl Strategy<Value = Wildcards> {
    (0u32..=0x003f_ffff).prop_map(Wildcards)
}

fn arb_match() -> impl Strategy<Value = Match> {
    (
        arb_wildcards(),
        arb_port(),
        arb_mac(),
        arb_mac(),
        any::<u16>(),
        0u8..8,
        any::<u16>(),
        (any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(
            |(
                wildcards,
                in_port,
                dl_src,
                dl_dst,
                dl_vlan,
                dl_vlan_pcp,
                dl_type,
                l3,
                tp_src,
                tp_dst,
            )| {
                let (nw_tos, nw_proto, nw_src, nw_dst) = l3;
                Match {
                    wildcards,
                    in_port,
                    dl_src,
                    dl_dst,
                    dl_vlan,
                    dl_vlan_pcp,
                    dl_type,
                    nw_tos,
                    nw_proto,
                    nw_src,
                    nw_dst,
                    tp_src,
                    tp_dst,
                }
            },
        )
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (arb_port(), any::<u16>()).prop_map(|(port, max_len)| Action::Output { port, max_len }),
        any::<u16>().prop_map(Action::SetVlanVid),
        (0u8..8).prop_map(Action::SetVlanPcp),
        Just(Action::StripVlan),
        arb_mac().prop_map(Action::SetDlSrc),
        arb_mac().prop_map(Action::SetDlDst),
        any::<u32>().prop_map(Action::SetNwSrc),
        any::<u32>().prop_map(Action::SetNwDst),
        any::<u8>().prop_map(Action::SetNwTos),
        any::<u16>().prop_map(Action::SetTpSrc),
        any::<u16>().prop_map(Action::SetTpDst),
        (arb_port(), any::<u32>()).prop_map(|(port, queue_id)| Action::Enqueue { port, queue_id }),
    ]
}

fn arb_flow_mod() -> impl Strategy<Value = FlowMod> {
    (
        arb_match(),
        any::<u64>(),
        0u16..5,
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        proptest::option::of(any::<u32>().prop_map(|v| v & 0x7fff_ffff)),
        arb_port(),
        0u16..8,
        proptest::collection::vec(arb_action(), 0..4),
    )
        .prop_map(
            |(m, cookie, cmd, idle, hard, priority, buffer_id, out_port, flags, actions)| FlowMod {
                r#match: m,
                cookie,
                command: FlowModCommand::from_wire(cmd).unwrap(),
                idle_timeout: idle,
                hard_timeout: hard,
                priority,
                buffer_id,
                out_port,
                flags: FlowModFlags(flags),
                actions,
            },
        )
}

fn arb_message() -> impl Strategy<Value = OfMessage> {
    prop_oneof![
        Just(OfMessage::Hello),
        Just(OfMessage::FeaturesRequest),
        Just(OfMessage::BarrierRequest),
        Just(OfMessage::BarrierReply),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(OfMessage::EchoRequest),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(OfMessage::EchoReply),
        (
            0u16..6,
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(t, code, data)| OfMessage::Error(ErrorMsg {
                error_type: ErrorType::from_wire(t).unwrap(),
                code,
                data,
            })),
        (any::<u16>(), any::<u16>()).prop_map(|(flags, miss_send_len)| OfMessage::SetConfig(
            SwitchConfig {
                flags,
                miss_send_len
            }
        )),
        (
            proptest::option::of(any::<u32>().prop_map(|v| v & 0x7fff_ffff)),
            any::<u16>(),
            arb_port(),
            0u8..2,
            proptest::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(buffer_id, total_len, in_port, reason, data)| {
                OfMessage::PacketIn(PacketIn {
                    buffer_id,
                    total_len,
                    in_port,
                    reason: PacketInReason::from_wire(reason).unwrap(),
                    data,
                })
            }),
        (
            proptest::option::of(any::<u32>().prop_map(|v| v & 0x7fff_ffff)),
            arb_port(),
            proptest::collection::vec(arb_action(), 0..4),
            proptest::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(buffer_id, in_port, actions, data)| {
                OfMessage::PacketOut(PacketOut {
                    buffer_id,
                    in_port,
                    actions,
                    data,
                })
            }),
        arb_flow_mod().prop_map(OfMessage::FlowMod),
        (
            arb_match(),
            any::<u64>(),
            any::<u16>(),
            0u8..3,
            any::<u32>(),
            any::<u64>()
        )
            .prop_map(
                |(m, cookie, priority, reason, dur, count)| OfMessage::FlowRemoved(FlowRemoved {
                    r#match: m,
                    cookie,
                    priority,
                    reason: FlowRemovedReason::from_wire(reason).unwrap(),
                    duration_sec: dur,
                    duration_nsec: dur.wrapping_mul(7) % 1_000_000_000,
                    idle_timeout: priority,
                    packet_count: count,
                    byte_count: count.wrapping_mul(64),
                })
            ),
        arb_match().prop_map(|m| OfMessage::StatsRequest(StatsBody::Flow {
            r#match: m,
            table_id: 0xff,
            out_port: PortNo::NONE,
        })),
    ]
}

/// A port's text as its `Display` first wrote it.
fn port_text(p: PortNo) -> String {
    const NAMES: [&str; 8] = [
        "IN_PORT",
        "TABLE",
        "NORMAL",
        "FLOOD",
        "ALL",
        "CONTROLLER",
        "LOCAL",
        "NONE",
    ];
    match p.0.checked_sub(0xfff8) {
        Some(i) => NAMES[usize::from(i)].to_string(),
        None => format!("{}", p.0),
    }
}

/// An address's text as its `Display` first wrote it.
fn mac_text(a: MacAddr) -> String {
    let b = a.0;
    format!(
        "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
        b[0], b[1], b[2], b[3], b[4], b[5]
    )
}

/// `Match`'s text as its `Display` first wrote it, through `format_args!`,
/// `{:02x}` and `Ipv4Addr`'s `Display`: what the hand-written text must
/// equal byte for byte (trace digests hash it).
fn formatted(m: &Match) -> String {
    let w = m.wildcards;
    let ip =
        |addr: u32, ignored: u32| format!("{}/{}", std::net::Ipv4Addr::from(addr), 32 - ignored);
    let flag = |bit: u32| !w.has(bit);
    let fields = [
        flag(Wildcards::IN_PORT).then(|| format!("in_port={}", port_text(m.in_port))),
        flag(Wildcards::DL_SRC).then(|| format!("dl_src={}", mac_text(m.dl_src))),
        flag(Wildcards::DL_DST).then(|| format!("dl_dst={}", mac_text(m.dl_dst))),
        flag(Wildcards::DL_VLAN).then(|| format!("dl_vlan={}", m.dl_vlan)),
        flag(Wildcards::DL_VLAN_PCP).then(|| format!("dl_vlan_pcp={}", m.dl_vlan_pcp)),
        flag(Wildcards::DL_TYPE).then(|| format!("dl_type=0x{:04x}", m.dl_type)),
        flag(Wildcards::NW_TOS).then(|| format!("nw_tos={}", m.nw_tos)),
        flag(Wildcards::NW_PROTO).then(|| format!("nw_proto={}", m.nw_proto)),
        (!w.nw_src_all()).then(|| format!("nw_src={}", ip(m.nw_src, w.nw_src_ignored_bits()))),
        (!w.nw_dst_all()).then(|| format!("nw_dst={}", ip(m.nw_dst, w.nw_dst_ignored_bits()))),
        flag(Wildcards::TP_SRC).then(|| format!("tp_src={}", m.tp_src)),
        flag(Wildcards::TP_DST).then(|| format!("tp_dst={}", m.tp_dst)),
    ];
    let shown: Vec<String> = fields.into_iter().flatten().collect();
    if shown.is_empty() {
        "match(any)".to_string()
    } else {
        format!("match({})", shown.join(","))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn match_text_is_what_the_formatter_wrote(m in arb_match()) {
        prop_assert_eq!(m.to_string(), formatted(&m));
        prop_assert_eq!(m.dl_src.to_string(), mac_text(m.dl_src));
        prop_assert_eq!(m.in_port.to_string(), port_text(m.in_port));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(msg in arb_message(), xid in any::<u32>()) {
        let bytes = msg.encode(xid);
        let (decoded, got_xid) = OfMessage::decode(&bytes).unwrap();
        prop_assert_eq!(got_xid, xid);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; panicking is not.
        let _ = OfMessage::decode(&bytes);
        let _ = OfMessage::frame_len(&bytes);
        let _ = Ethernet::decode(&bytes);
        let _ = packet::flow_key(&bytes, PortNo(1));
    }

    #[test]
    fn match_roundtrip_and_reflexive_semantics(m in arb_match()) {
        let mut w = attain_openflow::Writer::new();
        m.encode(&mut w);
        let v = w.into_vec();
        let mut r = attain_openflow::Reader::new(&v, "ofp_match");
        let decoded = Match::decode(&mut r).unwrap();
        prop_assert_eq!(decoded, m);
        // Subsumption is reflexive and ALL subsumes everything.
        prop_assert!(m.subsumes(&m));
        prop_assert!(Match::all().subsumes(&m));
        prop_assert!(m.overlaps(&m));
    }

    #[test]
    fn exact_match_agrees_with_flow_key(
        src in arb_mac(),
        dst in arb_mac(),
        sport in 1024u16..65535,
        dport in 1u16..1024,
        seq in any::<u32>(),
    ) {
        let frame = packet::tcp_segment(
            src, dst,
            "10.0.1.1".parse().unwrap(),
            "10.0.2.2".parse().unwrap(),
            sport, dport, seq, 0, TcpFlags::SYN, vec![],
        );
        let key = packet::flow_key(&frame.encode(), PortNo(1));
        let m = Match::from_flow_key(&key);
        prop_assert!(m.matches(&key));
    }

    #[test]
    fn frames_roundtrip(
        src in arb_mac(),
        dst in arb_mac(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        sport in any::<u16>(),
        dport in any::<u16>(),
    ) {
        let frame = packet::udp_datagram(
            src, dst,
            "192.168.0.1".parse().unwrap(),
            "192.168.0.2".parse().unwrap(),
            sport, dport, payload,
        );
        let bytes = frame.encode();
        prop_assert_eq!(Ethernet::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn subsumption_and_overlap_agree_with_the_field_walks(a in pooled_match(), b in pooled_match()) {
        prop_assert_eq!(a.subsumes(&b), subsumes_by_fields(&a, &b), "{} ⊇ {}", a, b);
        prop_assert_eq!(a.overlaps(&b), overlaps_by_fields(&a, &b), "{} ∩ {}", a, b);
    }

    #[test]
    fn subsumption_implies_match_containment(a in arb_match(), key_seed in any::<u64>()) {
        // If `a` subsumes an exact match built from a key, then `a` matches
        // that key.
        let key = attain_openflow::FlowKey {
            in_port: PortNo((key_seed % 48 + 1) as u16),
            dl_src: MacAddr::from_low(key_seed & 0xffff),
            dl_dst: MacAddr::from_low((key_seed >> 16) & 0xffff),
            dl_vlan: (key_seed >> 32) as u16,
            dl_vlan_pcp: ((key_seed >> 48) & 0x7) as u8,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 6,
            nw_src: key_seed as u32,
            nw_dst: (key_seed >> 8) as u32,
            tp_src: (key_seed >> 3) as u16,
            tp_dst: (key_seed >> 5) as u16,
        };
        let exact = Match::from_flow_key(&key);
        if a.subsumes(&exact) {
            prop_assert!(a.matches(&key));
        }
    }
}
