//! The encoder inputs shared by `known_answers.rs` and `encode_allocs.rs`:
//! one message of every `OfMessage` variant (every stats body included)
//! and one frame of each packet shape the codec writes.

use attain_openflow::packet::{self, EtherType, Ethernet, IpPayload, Ipv4, Payload, TcpFlags};
use attain_openflow::{
    bad_request, Action, AggregateStats, DatapathId, ErrorMsg, ErrorType, FlowMod, FlowModCommand,
    FlowModFlags, FlowRemoved, FlowRemovedReason, FlowStatsEntry, MacAddr, Match, OfMessage,
    PacketIn, PacketInReason, PacketOut, PhyPort, PortMod, PortNo, PortStatsEntry, PortStatus,
    PortStatusReason, QueueConfig, QueueStatsEntry, StatsBody, StatsReplyBody, SwitchConfig,
    SwitchDesc, SwitchFeatures, TableStatsEntry,
};
use std::net::Ipv4Addr;

/// The transaction id every message case is encoded with.
pub const XID: u32 = 0x0102_0304;

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

/// An 80-byte ICMP echo frame: what a ping carries inside a `PACKET_IN`
/// or `PACKET_OUT`, and more than a 64-byte buffer holds.
fn ping_bytes() -> Vec<u8> {
    packet::icmp_echo_request(
        MacAddr::from_low(1),
        MacAddr::from_low(2),
        ip(1),
        ip(2),
        7,
        3,
        (0..38).collect(),
    )
    .encode()
}

fn tcp_match() -> Match {
    let mut m = Match::exact_in_port(PortNo(3));
    m.dl_type = 0x0800;
    m.nw_proto = 6;
    m.nw_src = u32::from(ip(1));
    m.nw_dst = u32::from(ip(2));
    m.tp_dst = 80;
    m
}

fn every_action() -> Vec<Action> {
    vec![
        Action::Output {
            port: PortNo(2),
            max_len: 128,
        },
        Action::SetVlanVid(100),
        Action::SetVlanPcp(5),
        Action::StripVlan,
        Action::SetDlSrc(MacAddr::from_low(0xa1)),
        Action::SetDlDst(MacAddr::from_low(0xb2)),
        Action::SetNwSrc(u32::from(ip(9))),
        Action::SetNwDst(u32::from(ip(8))),
        Action::SetNwTos(0x10),
        Action::SetTpSrc(1234),
        Action::SetTpDst(4321),
        Action::Enqueue {
            port: PortNo(4),
            queue_id: 6,
        },
        Action::Vendor {
            vendor: 0x2320,
            body: vec![0xee; 8],
        },
    ]
}

fn port(n: u16) -> PhyPort {
    PhyPort::simulated(PortNo(n), MacAddr::from_low(0x10 + n as u64))
}

/// One message of every variant, by name.
pub fn messages() -> Vec<(&'static str, OfMessage)> {
    vec![
        ("hello", OfMessage::Hello),
        (
            "error",
            OfMessage::Error(ErrorMsg {
                error_type: ErrorType::BadRequest,
                code: bad_request::BUFFER_UNKNOWN,
                data: (0..64).collect(),
            }),
        ),
        ("echo_request", OfMessage::EchoRequest(vec![0xab; 12])),
        ("echo_reply", OfMessage::EchoReply(vec![0xcd; 12])),
        (
            "vendor",
            OfMessage::Vendor {
                vendor: 0x0000_2320,
                body: vec![1, 2, 3, 4, 5],
            },
        ),
        ("features_request", OfMessage::FeaturesRequest),
        (
            "features_reply",
            OfMessage::FeaturesReply(SwitchFeatures {
                datapath_id: DatapathId(0x00aa_bbcc_ddee_ff01),
                n_buffers: 256,
                n_tables: 1,
                capabilities: 0xc7,
                actions: 0xfff,
                ports: vec![port(1), port(2)],
            }),
        ),
        ("get_config_request", OfMessage::GetConfigRequest),
        (
            "get_config_reply",
            OfMessage::GetConfigReply(SwitchConfig {
                flags: 1,
                miss_send_len: 128,
            }),
        ),
        (
            "set_config",
            OfMessage::SetConfig(SwitchConfig {
                flags: 0,
                miss_send_len: 0xffff,
            }),
        ),
        (
            "packet_in",
            OfMessage::PacketIn(PacketIn {
                buffer_id: Some(0x2a),
                total_len: 80,
                in_port: PortNo(1),
                reason: PacketInReason::NoMatch,
                data: ping_bytes(),
            }),
        ),
        (
            "flow_removed",
            OfMessage::FlowRemoved(FlowRemoved {
                r#match: tcp_match(),
                cookie: 0x1122_3344_5566_7788,
                priority: 0x8000,
                reason: FlowRemovedReason::Eviction,
                duration_sec: 12,
                duration_nsec: 345,
                idle_timeout: 5,
                packet_count: 99,
                byte_count: 9_900,
            }),
        ),
        (
            "port_status",
            OfMessage::PortStatus(PortStatus {
                reason: PortStatusReason::Modify,
                desc: port(3),
            }),
        ),
        (
            "packet_out",
            OfMessage::PacketOut(PacketOut {
                buffer_id: None,
                in_port: PortNo(1),
                actions: vec![Action::Output {
                    port: PortNo::FLOOD,
                    max_len: 0,
                }],
                data: ping_bytes(),
            }),
        ),
        (
            "flow_mod",
            OfMessage::FlowMod(FlowMod {
                r#match: tcp_match(),
                cookie: 7,
                command: FlowModCommand::Add,
                idle_timeout: 10,
                hard_timeout: 30,
                priority: 0x8000,
                buffer_id: Some(0x2a),
                out_port: PortNo::NONE,
                flags: FlowModFlags(1),
                actions: every_action(),
            }),
        ),
        (
            "port_mod",
            OfMessage::PortMod(PortMod {
                port_no: PortNo(2),
                hw_addr: MacAddr::from_low(0x12),
                config: 1,
                mask: 1,
                advertise: 0,
            }),
        ),
        (
            "stats_request_desc",
            OfMessage::StatsRequest(StatsBody::Desc),
        ),
        (
            "stats_request_flow",
            OfMessage::StatsRequest(StatsBody::Flow {
                r#match: Match::all(),
                table_id: 0xff,
                out_port: PortNo::NONE,
            }),
        ),
        (
            "stats_request_aggregate",
            OfMessage::StatsRequest(StatsBody::Aggregate {
                r#match: tcp_match(),
                table_id: 0,
                out_port: PortNo(2),
            }),
        ),
        (
            "stats_request_table",
            OfMessage::StatsRequest(StatsBody::Table),
        ),
        (
            "stats_request_port",
            OfMessage::StatsRequest(StatsBody::Port {
                port_no: PortNo::NONE,
            }),
        ),
        (
            "stats_request_queue",
            OfMessage::StatsRequest(StatsBody::Queue {
                port_no: PortNo::ALL,
                queue_id: 0xffff_ffff,
            }),
        ),
        (
            "stats_reply_desc",
            OfMessage::StatsReply(StatsReplyBody::Desc(SwitchDesc {
                mfr_desc: "ATTAIN".into(),
                hw_desc: "simulated".into(),
                sw_desc: "netsim".into(),
                serial_num: "0001".into(),
                dp_desc: "s1".into(),
            })),
        ),
        (
            "stats_reply_flow",
            OfMessage::StatsReply(StatsReplyBody::Flow(vec![FlowStatsEntry {
                table_id: 0,
                r#match: tcp_match(),
                duration_sec: 3,
                duration_nsec: 4,
                priority: 0x8000,
                idle_timeout: 10,
                hard_timeout: 0,
                cookie: 9,
                packet_count: 5,
                byte_count: 500,
                actions: vec![Action::Output {
                    port: PortNo(2),
                    max_len: 0,
                }],
            }])),
        ),
        (
            "stats_reply_aggregate",
            OfMessage::StatsReply(StatsReplyBody::Aggregate(AggregateStats {
                packet_count: 10,
                byte_count: 1_000,
                flow_count: 2,
            })),
        ),
        (
            "stats_reply_table",
            OfMessage::StatsReply(StatsReplyBody::Table(vec![TableStatsEntry {
                table_id: 0,
                name: "classifier".into(),
                wildcards: 0x003f_ffff,
                max_entries: 1_024,
                active_count: 17,
                lookup_count: 1_000,
                matched_count: 900,
            }])),
        ),
        (
            "stats_reply_port",
            OfMessage::StatsReply(StatsReplyBody::Port(vec![PortStatsEntry {
                port_no: PortNo(1),
                rx_packets: 1,
                tx_packets: 2,
                rx_bytes: 3,
                tx_bytes: 4,
                rx_dropped: 5,
                tx_dropped: 6,
                rx_errors: 7,
                tx_errors: 8,
            }])),
        ),
        (
            "stats_reply_queue",
            OfMessage::StatsReply(StatsReplyBody::Queue(vec![QueueStatsEntry {
                port_no: PortNo(1),
                queue_id: 2,
                tx_bytes: 3,
                tx_packets: 4,
                tx_errors: 5,
            }])),
        ),
        ("barrier_request", OfMessage::BarrierRequest),
        ("barrier_reply", OfMessage::BarrierReply),
        (
            "queue_get_config_request",
            OfMessage::QueueGetConfigRequest { port: PortNo(2) },
        ),
        (
            "queue_get_config_reply",
            OfMessage::QueueGetConfigReply {
                port: PortNo(2),
                queues: vec![
                    QueueConfig {
                        queue_id: 1,
                        min_rate: Some(500),
                    },
                    QueueConfig {
                        queue_id: 2,
                        min_rate: None,
                    },
                ],
            },
        ),
    ]
}

/// One frame of each packet shape, by name.
pub fn packets() -> Vec<(&'static str, Ethernet)> {
    let (a, b) = (MacAddr::from_low(1), MacAddr::from_low(2));
    let opaque_ipv4 = Ethernet {
        dst: b,
        src: a,
        vlan: None,
        ethertype: EtherType::IPV4,
        payload: Payload::Ipv4(Ipv4 {
            tos: 0x10,
            identification: 0xbeef,
            ttl: 3,
            protocol: 0x2f,
            src: ip(1),
            dst: ip(2),
            payload: IpPayload::Other(vec![9; 7]),
        }),
    };
    let mut tagged = packet::udp_datagram(a, b, ip(1), ip(2), 5353, 53, vec![0x42; 5]);
    tagged.vlan = Some((3 << 13) | 100);
    vec![
        ("arp_request", packet::arp_request(a, ip(1), ip(2))),
        ("arp_reply", packet::arp_reply(b, ip(2), a, ip(1))),
        (
            "icmp_echo_request",
            packet::icmp_echo_request(a, b, ip(1), ip(2), 42, 1, (0..48).collect()),
        ),
        (
            "icmp_echo_reply",
            packet::icmp_echo_reply(b, a, ip(2), ip(1), 42, 1, vec![0x5a; 17]),
        ),
        (
            "tcp",
            packet::tcp_segment(
                a,
                b,
                ip(1),
                ip(2),
                30_000,
                80,
                1_000,
                2_000,
                TcpFlags::SYN | TcpFlags::ACK,
                b"GET /".to_vec(),
            ),
        ),
        (
            "udp",
            packet::udp_datagram(a, b, ip(1), ip(2), 5353, 53, vec![1, 2, 3]),
        ),
        ("ipv4_opaque_protocol", opaque_ipv4),
        (
            "opaque_ethertype",
            Ethernet {
                dst: MacAddr::BROADCAST,
                src: a,
                vlan: None,
                ethertype: EtherType(0x88cc),
                payload: Payload::Other(vec![0x02, 0x07, 0x04, 1, 2, 3]),
            },
        ),
        ("vlan_tagged_udp", tagged),
    ]
}
