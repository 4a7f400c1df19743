//! `OFPT_STATS_REQUEST` / `OFPT_STATS_REPLY` and their typed bodies.

use crate::actions::Action;
use crate::error::CodecError;
use crate::r#match::Match;
use crate::types::PortNo;
use crate::wire::{Reader, Writer};

const OFPST_DESC: u16 = 0;
const OFPST_FLOW: u16 = 1;
const OFPST_AGGREGATE: u16 = 2;
const OFPST_TABLE: u16 = 3;
const OFPST_PORT: u16 = 4;
const OFPST_QUEUE: u16 = 5;

/// Reads a fixed-size NUL-padded ASCII field.
fn read_fixed_string<const N: usize>(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let raw = r.array::<N>()?;
    let end = raw.iter().position(|&b| b == 0).unwrap_or(N);
    Ok(String::from_utf8_lossy(&raw[..end]).into_owned())
}

/// Writes a string into a fixed-size NUL-padded field, truncating to
/// `N - 1` bytes so the result stays NUL-terminated.
fn write_fixed_string<const N: usize>(s: &str, w: &mut Writer) {
    let mut buf = [0u8; N];
    let src = s.as_bytes();
    let n = src.len().min(N - 1);
    buf[..n].copy_from_slice(&src[..n]);
    w.bytes(&buf);
}

/// A `STATS_REQUEST` body (`ofp_stats_request` with its typed payload).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StatsBody {
    /// Switch description request (no payload).
    Desc,
    /// Individual flow statistics.
    Flow {
        /// Flows to describe (subsumption match).
        r#match: Match,
        /// Table to read, or 0xff for all.
        table_id: u8,
        /// Restrict to flows with this out port ([`PortNo::NONE`] = all).
        out_port: PortNo,
    },
    /// Aggregate flow statistics over matching flows.
    Aggregate {
        /// Flows to aggregate (subsumption match).
        r#match: Match,
        /// Table to read, or 0xff for all.
        table_id: u8,
        /// Restrict to flows with this out port.
        out_port: PortNo,
    },
    /// Per-table statistics (no payload).
    Table,
    /// Per-port statistics.
    Port {
        /// Port to read, or [`PortNo::NONE`] for all.
        port_no: PortNo,
    },
    /// Per-queue statistics.
    Queue {
        /// Port to read, or [`PortNo::ALL`] for all.
        port_no: PortNo,
        /// Queue to read, or `0xffff_ffff` for all.
        queue_id: u32,
    },
}

impl StatsBody {
    fn stats_type(&self) -> u16 {
        match self {
            StatsBody::Desc => OFPST_DESC,
            StatsBody::Flow { .. } => OFPST_FLOW,
            StatsBody::Aggregate { .. } => OFPST_AGGREGATE,
            StatsBody::Table => OFPST_TABLE,
            StatsBody::Port { .. } => OFPST_PORT,
            StatsBody::Queue { .. } => OFPST_QUEUE,
        }
    }

    /// Decodes a full request body (type + flags + payload).
    ///
    /// # Errors
    ///
    /// Fails on truncation or an unknown statistics type.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<StatsBody, CodecError> {
        let ty = r.u16()?;
        let _flags = r.u16()?;
        Ok(match ty {
            OFPST_DESC => StatsBody::Desc,
            OFPST_FLOW | OFPST_AGGREGATE => {
                let m = Match::decode(r)?;
                let table_id = r.u8()?;
                r.skip(1)?;
                let out_port = PortNo(r.u16()?);
                if ty == OFPST_FLOW {
                    StatsBody::Flow {
                        r#match: m,
                        table_id,
                        out_port,
                    }
                } else {
                    StatsBody::Aggregate {
                        r#match: m,
                        table_id,
                        out_port,
                    }
                }
            }
            OFPST_TABLE => StatsBody::Table,
            OFPST_PORT => {
                let port_no = PortNo(r.u16()?);
                r.skip(6)?;
                StatsBody::Port { port_no }
            }
            OFPST_QUEUE => {
                let port_no = PortNo(r.u16()?);
                r.skip(2)?;
                StatsBody::Queue {
                    port_no,
                    queue_id: r.u32()?,
                }
            }
            other => {
                return Err(CodecError::BadValue {
                    field: "ofp_stats_request.type",
                    value: other as u64,
                })
            }
        })
    }

    /// Encodes the full request body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.stats_type());
        w.u16(0); // flags: none defined for requests
        match self {
            StatsBody::Desc | StatsBody::Table => {}
            StatsBody::Flow {
                r#match,
                table_id,
                out_port,
            }
            | StatsBody::Aggregate {
                r#match,
                table_id,
                out_port,
            } => {
                r#match.encode(w);
                w.u8(*table_id);
                w.pad(1);
                w.u16(out_port.0);
            }
            StatsBody::Port { port_no } => {
                w.u16(port_no.0);
                w.pad(6);
            }
            StatsBody::Queue { port_no, queue_id } => {
                w.u16(port_no.0);
                w.pad(2);
                w.u32(*queue_id);
            }
        }
    }
}

/// `ofp_desc_stats`: the switch's textual self-description.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SwitchDesc {
    /// Manufacturer description.
    pub mfr_desc: String,
    /// Hardware description.
    pub hw_desc: String,
    /// Software description.
    pub sw_desc: String,
    /// Serial number.
    pub serial_num: String,
    /// Human-readable datapath description.
    pub dp_desc: String,
}

/// One `ofp_flow_stats` record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowStatsEntry {
    /// Table containing the flow.
    pub table_id: u8,
    /// The flow's match.
    pub r#match: Match,
    /// Seconds installed.
    pub duration_sec: u32,
    /// Sub-second remainder in nanoseconds.
    pub duration_nsec: u32,
    /// Priority.
    pub priority: u16,
    /// Idle timeout.
    pub idle_timeout: u16,
    /// Hard timeout.
    pub hard_timeout: u16,
    /// Cookie.
    pub cookie: u64,
    /// Matched packets.
    pub packet_count: u64,
    /// Matched bytes.
    pub byte_count: u64,
    /// The flow's actions.
    pub actions: Vec<Action>,
}

/// `ofp_aggregate_stats_reply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AggregateStats {
    /// Matched packets across all selected flows.
    pub packet_count: u64,
    /// Matched bytes across all selected flows.
    pub byte_count: u64,
    /// Number of selected flows.
    pub flow_count: u32,
}

/// One `ofp_table_stats` record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableStatsEntry {
    /// Table id.
    pub table_id: u8,
    /// Table name.
    pub name: String,
    /// Wildcards the table supports.
    pub wildcards: u32,
    /// Maximum entries.
    pub max_entries: u32,
    /// Active entries.
    pub active_count: u32,
    /// Packets looked up.
    pub lookup_count: u64,
    /// Packets that hit.
    pub matched_count: u64,
}

/// One `ofp_port_stats` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortStatsEntry {
    /// Port number.
    pub port_no: PortNo,
    /// Received packets.
    pub rx_packets: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
    /// Received bytes.
    pub rx_bytes: u64,
    /// Transmitted bytes.
    pub tx_bytes: u64,
    /// Packets dropped on receive.
    pub rx_dropped: u64,
    /// Packets dropped on transmit.
    pub tx_dropped: u64,
    /// Receive errors.
    pub rx_errors: u64,
    /// Transmit errors.
    pub tx_errors: u64,
}

/// One `ofp_queue_stats` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct QueueStatsEntry {
    /// Port number.
    pub port_no: PortNo,
    /// Queue id.
    pub queue_id: u32,
    /// Transmitted bytes.
    pub tx_bytes: u64,
    /// Transmitted packets.
    pub tx_packets: u64,
    /// Packets dropped due to overrun.
    pub tx_errors: u64,
}

/// A `STATS_REPLY` body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StatsReplyBody {
    /// Switch description.
    Desc(SwitchDesc),
    /// Individual flow statistics.
    Flow(Vec<FlowStatsEntry>),
    /// Aggregate statistics.
    Aggregate(AggregateStats),
    /// Per-table statistics.
    Table(Vec<TableStatsEntry>),
    /// Per-port statistics.
    Port(Vec<PortStatsEntry>),
    /// Per-queue statistics.
    Queue(Vec<QueueStatsEntry>),
}

impl StatsReplyBody {
    fn stats_type(&self) -> u16 {
        match self {
            StatsReplyBody::Desc(_) => OFPST_DESC,
            StatsReplyBody::Flow(_) => OFPST_FLOW,
            StatsReplyBody::Aggregate(_) => OFPST_AGGREGATE,
            StatsReplyBody::Table(_) => OFPST_TABLE,
            StatsReplyBody::Port(_) => OFPST_PORT,
            StatsReplyBody::Queue(_) => OFPST_QUEUE,
        }
    }

    /// Decodes a full reply body.
    ///
    /// # Errors
    ///
    /// Fails on truncation, an unknown statistics type, or malformed
    /// records.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<StatsReplyBody, CodecError> {
        let ty = r.u16()?;
        let _flags = r.u16()?;
        Ok(match ty {
            OFPST_DESC => {
                let mfr_desc = read_fixed_string::<256>(r)?;
                let hw_desc = read_fixed_string::<256>(r)?;
                let sw_desc = read_fixed_string::<256>(r)?;
                let serial_num = read_fixed_string::<32>(r)?;
                let dp_desc = read_fixed_string::<256>(r)?;
                StatsReplyBody::Desc(SwitchDesc {
                    mfr_desc,
                    hw_desc,
                    sw_desc,
                    serial_num,
                    dp_desc,
                })
            }
            OFPST_FLOW => {
                let mut entries = Vec::new();
                while r.remaining() > 0 {
                    let len = r.u16()? as usize;
                    if len < 88 {
                        return Err(CodecError::BadLength {
                            context: "ofp_flow_stats.length",
                            found: len,
                        });
                    }
                    let mut e = r.sub(len - 2, "ofp_flow_stats")?;
                    let table_id = e.u8()?;
                    e.skip(1)?;
                    let m = Match::decode(&mut e)?;
                    let duration_sec = e.u32()?;
                    let duration_nsec = e.u32()?;
                    let priority = e.u16()?;
                    let idle_timeout = e.u16()?;
                    let hard_timeout = e.u16()?;
                    e.skip(6)?;
                    let cookie = e.u64()?;
                    let packet_count = e.u64()?;
                    let byte_count = e.u64()?;
                    let alen = e.remaining();
                    let actions = Action::decode_list(&mut e, alen)?;
                    entries.push(FlowStatsEntry {
                        table_id,
                        r#match: m,
                        duration_sec,
                        duration_nsec,
                        priority,
                        idle_timeout,
                        hard_timeout,
                        cookie,
                        packet_count,
                        byte_count,
                        actions,
                    });
                }
                StatsReplyBody::Flow(entries)
            }
            OFPST_AGGREGATE => {
                let packet_count = r.u64()?;
                let byte_count = r.u64()?;
                let flow_count = r.u32()?;
                r.skip(4)?;
                StatsReplyBody::Aggregate(AggregateStats {
                    packet_count,
                    byte_count,
                    flow_count,
                })
            }
            OFPST_TABLE => {
                let mut entries = Vec::new();
                while r.remaining() > 0 {
                    let table_id = r.u8()?;
                    r.skip(3)?;
                    let name = read_fixed_string::<32>(r)?;
                    entries.push(TableStatsEntry {
                        table_id,
                        name,
                        wildcards: r.u32()?,
                        max_entries: r.u32()?,
                        active_count: r.u32()?,
                        lookup_count: r.u64()?,
                        matched_count: r.u64()?,
                    });
                }
                StatsReplyBody::Table(entries)
            }
            OFPST_PORT => {
                let mut entries = Vec::new();
                while r.remaining() > 0 {
                    let port_no = PortNo(r.u16()?);
                    r.skip(6)?;
                    let rx_packets = r.u64()?;
                    let tx_packets = r.u64()?;
                    let rx_bytes = r.u64()?;
                    let tx_bytes = r.u64()?;
                    let rx_dropped = r.u64()?;
                    let tx_dropped = r.u64()?;
                    let rx_errors = r.u64()?;
                    let tx_errors = r.u64()?;
                    // rx_frame_err, rx_over_err, rx_crc_err, collisions
                    r.skip(32)?;
                    entries.push(PortStatsEntry {
                        port_no,
                        rx_packets,
                        tx_packets,
                        rx_bytes,
                        tx_bytes,
                        rx_dropped,
                        tx_dropped,
                        rx_errors,
                        tx_errors,
                    });
                }
                StatsReplyBody::Port(entries)
            }
            OFPST_QUEUE => {
                let mut entries = Vec::new();
                while r.remaining() > 0 {
                    let port_no = PortNo(r.u16()?);
                    r.skip(2)?;
                    entries.push(QueueStatsEntry {
                        port_no,
                        queue_id: r.u32()?,
                        tx_bytes: r.u64()?,
                        tx_packets: r.u64()?,
                        tx_errors: r.u64()?,
                    });
                }
                StatsReplyBody::Queue(entries)
            }
            other => {
                return Err(CodecError::BadValue {
                    field: "ofp_stats_reply.type",
                    value: other as u64,
                })
            }
        })
    }

    /// Encodes the full reply body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.stats_type());
        w.u16(0); // flags: no OFPSF_REPLY_MORE continuation
        match self {
            StatsReplyBody::Desc(d) => {
                write_fixed_string::<256>(&d.mfr_desc, w);
                write_fixed_string::<256>(&d.hw_desc, w);
                write_fixed_string::<256>(&d.sw_desc, w);
                write_fixed_string::<32>(&d.serial_num, w);
                write_fixed_string::<256>(&d.dp_desc, w);
            }
            StatsReplyBody::Flow(entries) => {
                for e in entries {
                    let alen: usize = e.actions.iter().map(Action::wire_len).sum();
                    w.u16((88 + alen) as u16);
                    w.u8(e.table_id);
                    w.pad(1);
                    e.r#match.encode(w);
                    w.u32(e.duration_sec);
                    w.u32(e.duration_nsec);
                    w.u16(e.priority);
                    w.u16(e.idle_timeout);
                    w.u16(e.hard_timeout);
                    w.pad(6);
                    w.u64(e.cookie);
                    w.u64(e.packet_count);
                    w.u64(e.byte_count);
                    Action::encode_list(&e.actions, w);
                }
            }
            StatsReplyBody::Aggregate(a) => {
                w.u64(a.packet_count);
                w.u64(a.byte_count);
                w.u32(a.flow_count);
                w.pad(4);
            }
            StatsReplyBody::Table(entries) => {
                for e in entries {
                    w.u8(e.table_id);
                    w.pad(3);
                    write_fixed_string::<32>(&e.name, w);
                    w.u32(e.wildcards);
                    w.u32(e.max_entries);
                    w.u32(e.active_count);
                    w.u64(e.lookup_count);
                    w.u64(e.matched_count);
                }
            }
            StatsReplyBody::Port(entries) => {
                for e in entries {
                    w.u16(e.port_no.0);
                    w.pad(6);
                    w.u64(e.rx_packets);
                    w.u64(e.tx_packets);
                    w.u64(e.rx_bytes);
                    w.u64(e.tx_bytes);
                    w.u64(e.rx_dropped);
                    w.u64(e.tx_dropped);
                    w.u64(e.rx_errors);
                    w.u64(e.tx_errors);
                    w.pad(32);
                }
            }
            StatsReplyBody::Queue(entries) => {
                for e in entries {
                    w.u16(e.port_no.0);
                    w.pad(2);
                    w.u32(e.queue_id);
                    w.u64(e.tx_bytes);
                    w.u64(e.tx_packets);
                    w.u64(e.tx_errors);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(b: StatsBody) {
        let mut w = Writer::new();
        b.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "stats req");
        assert_eq!(StatsBody::decode(&mut r).unwrap(), b);
        r.expect_end().unwrap();
    }

    fn roundtrip_reply(b: StatsReplyBody) {
        let mut w = Writer::new();
        b.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "stats reply");
        assert_eq!(StatsReplyBody::decode(&mut r).unwrap(), b);
        r.expect_end().unwrap();
    }

    #[test]
    fn request_bodies_roundtrip() {
        roundtrip_request(StatsBody::Desc);
        roundtrip_request(StatsBody::Flow {
            r#match: Match::exact_in_port(PortNo(1)),
            table_id: 0xff,
            out_port: PortNo::NONE,
        });
        roundtrip_request(StatsBody::Aggregate {
            r#match: Match::all(),
            table_id: 0,
            out_port: PortNo(2),
        });
        roundtrip_request(StatsBody::Table);
        roundtrip_request(StatsBody::Port {
            port_no: PortNo::NONE,
        });
        roundtrip_request(StatsBody::Queue {
            port_no: PortNo::ALL,
            queue_id: 0xffff_ffff,
        });
    }

    #[test]
    fn reply_bodies_roundtrip() {
        roundtrip_reply(StatsReplyBody::Desc(SwitchDesc {
            mfr_desc: "ATTAIN".into(),
            hw_desc: "simulated".into(),
            sw_desc: "netsim-ovs".into(),
            serial_num: "0001".into(),
            dp_desc: "s1".into(),
        }));
        roundtrip_reply(StatsReplyBody::Flow(vec![FlowStatsEntry {
            table_id: 0,
            r#match: Match::all(),
            duration_sec: 1,
            duration_nsec: 2,
            priority: 3,
            idle_timeout: 4,
            hard_timeout: 5,
            cookie: 6,
            packet_count: 7,
            byte_count: 8,
            actions: vec![Action::Output {
                port: PortNo(1),
                max_len: 0,
            }],
        }]));
        roundtrip_reply(StatsReplyBody::Aggregate(AggregateStats {
            packet_count: 10,
            byte_count: 20,
            flow_count: 3,
        }));
        roundtrip_reply(StatsReplyBody::Table(vec![TableStatsEntry {
            table_id: 0,
            name: "classifier".into(),
            wildcards: 0x3f_ffff,
            max_entries: 1024,
            active_count: 12,
            lookup_count: 999,
            matched_count: 900,
        }]));
        roundtrip_reply(StatsReplyBody::Port(vec![PortStatsEntry {
            port_no: PortNo(1),
            rx_packets: 1,
            tx_packets: 2,
            rx_bytes: 3,
            tx_bytes: 4,
            ..Default::default()
        }]));
        roundtrip_reply(StatsReplyBody::Queue(vec![QueueStatsEntry {
            port_no: PortNo(1),
            queue_id: 0,
            tx_bytes: 5,
            tx_packets: 6,
            tx_errors: 0,
        }]));
    }

    #[test]
    fn rejects_unknown_stats_type() {
        let mut w = Writer::new();
        w.u16(42);
        w.u16(0);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "stats req");
        assert!(StatsBody::decode(&mut r).is_err());
        let mut r = Reader::new(&v, "stats reply");
        assert!(StatsReplyBody::decode(&mut r).is_err());
    }
}
