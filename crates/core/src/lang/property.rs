//! Message properties (paper §V-A) and the view of an in-flight message
//! a rule evaluates against.

use crate::dsl::Quoted;
use crate::lang::value::Value;
use crate::model::{Capability, CapabilitySet};
use crate::model::{ConnectionId, NodeRef};
use attain_openflow::{Frame, OfMessage, StatsBody, StatsReplyBody};
use std::fmt;

/// A message property an attack conditional may read (§V-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Property {
    /// `MESSAGE SOURCE` — the sending component (∈ C ∪ S). Metadata.
    Source,
    /// `MESSAGE DESTINATION` — the receiving component. Metadata.
    Destination,
    /// `MESSAGE TIMESTAMP` — arrival time at the proxy, in seconds.
    /// Metadata.
    Timestamp,
    /// `MESSAGE LENGTH` — encoded payload length in bytes. Metadata.
    Length,
    /// `MESSAGE TYPE` — the OpenFlow type. Payload (under TLS the header
    /// is encrypted too).
    Type,
    /// `MESSAGE ID` — the injector's sequential identifier for the
    /// message. Metadata (assigned at the proxy, not read from the
    /// payload).
    Id,
    /// `MESSAGE TYPE OPTIONS` — a type-dependent field addressed by a
    /// dotted path, e.g. `match.nw_src` on a `FLOW_MOD`. Payload.
    TypeOption(String),
    /// A uniform pseudo-random value in `[0, 1)`, derived
    /// deterministically from the injector's seed and the message id —
    /// the paper's §VIII-A "stochastic decision-making" future-work
    /// extension, kept reproducible. Metadata (it keys off the observed
    /// message identity only).
    Entropy,
}

impl Property {
    /// The capability required to *read* this property (§V-A: metadata
    /// properties need `READMESSAGEMETADATA`, payload properties need
    /// `READMESSAGE`).
    pub(crate) fn required_capability(&self) -> Capability {
        match self {
            Property::Source
            | Property::Destination
            | Property::Timestamp
            | Property::Length
            | Property::Id
            | Property::Entropy => Capability::ReadMessageMetadata,
            Property::Type | Property::TypeOption(_) => Capability::ReadMessage,
        }
    }

    /// The property `msg.NAME` reads: every property but
    /// [`Property::TypeOption`], by the name `Display` gives it.
    pub(crate) fn named(name: &str) -> Option<Property> {
        use Property::*;
        [Source, Destination, Timestamp, Length, Type, Id, Entropy]
            .into_iter()
            .find(|p| p.name() == name)
    }

    /// The `NAME` of `msg.NAME`, or a type option's path.
    fn name(&self) -> &str {
        match self {
            Property::Source => "source",
            Property::Destination => "destination",
            Property::Timestamp => "timestamp",
            Property::Length => "length",
            Property::Type => "type",
            Property::Id => "id",
            Property::Entropy => "entropy",
            Property::TypeOption(path) => path,
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Property::TypeOption(path) => write!(f, "msg[{}]", Quoted(path)),
            named => write!(f, "msg.{}", named.name()),
        }
    }
}

/// The executor's view of one in-flight control-plane message.
#[derive(Debug, Clone)]
pub struct MessageView<'a> {
    /// The connection it traverses.
    pub conn: ConnectionId,
    /// Sending component.
    pub source: NodeRef,
    /// Receiving component.
    pub destination: NodeRef,
    /// Arrival time at the proxy, in nanoseconds of virtual/wall time.
    pub timestamp_ns: u64,
    /// The injector's sequential message id.
    pub id: u64,
    /// The in-flight message. Payload property reads go through the
    /// frame's memoized decode, so parsing happens at most once per
    /// frame no matter how many rules inspect it — and not at all for
    /// rules that only touch metadata.
    pub frame: &'a Frame,
    /// The capabilities granted on `conn` — reads beyond them fail.
    pub granted: CapabilitySet,
    /// Deterministic per-message entropy in `[0, 1)` (see
    /// [`Property::Entropy`]).
    pub entropy: f64,
}

/// Why a property read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyError {
    /// The granted capability set does not allow the read.
    CapabilityDenied {
        /// The property.
        property: String,
        /// What would have been needed.
        needed: Capability,
    },
    /// The message does not decode (so payload properties are
    /// unreadable).
    Unparseable,
    /// The path does not exist on this message type.
    NoSuchField(String),
}

impl fmt::Display for PropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyError::CapabilityDenied { property, needed } => {
                write!(f, "reading {property} requires {needed}")
            }
            PropertyError::Unparseable => write!(f, "message payload does not parse"),
            PropertyError::NoSuchField(p) => write!(f, "no field {p} on this message type"),
        }
    }
}

impl std::error::Error for PropertyError {}

impl MessageView<'_> {
    /// Reads a property, enforcing the §V-A capability rules.
    ///
    /// # Errors
    ///
    /// Fails when the capability is missing, the payload does not parse
    /// (payload properties only), or the type-option path does not exist.
    pub(crate) fn read(&self, prop: &Property) -> Result<Value, PropertyError> {
        let needed = prop.required_capability();
        if !self.granted.contains(needed) {
            return Err(PropertyError::CapabilityDenied {
                property: prop.to_string(),
                needed,
            });
        }
        match prop {
            Property::Source => Ok(Value::Addr(self.source)),
            Property::Destination => Ok(Value::Addr(self.destination)),
            Property::Timestamp => Ok(Value::Float(self.timestamp_ns as f64 / 1e9)),
            Property::Length => Ok(Value::Int(self.frame.len() as i64)),
            Property::Id => Ok(Value::Int(self.id as i64)),
            Property::Entropy => Ok(Value::Float(self.entropy)),
            Property::Type => {
                let msg = self.frame.message().ok_or(PropertyError::Unparseable)?;
                Ok(Value::MsgType(msg.of_type()))
            }
            Property::TypeOption(path) => {
                let msg = self.frame.message().ok_or(PropertyError::Unparseable)?;
                type_option(msg, path).ok_or_else(|| PropertyError::NoSuchField(path.clone()))
            }
        }
    }
}

/// Resolves a type-option path on a decoded message.
///
/// Supported paths are documented per message type; unknown paths return
/// `None`. Fields that are structurally present but wildcarded/absent
/// return [`Value::None`] (so conditionals comparing them simply fail to
/// match — the Ryu/`φ2` behaviour).
pub fn type_option(msg: &OfMessage, path: &str) -> Option<Value> {
    fn match_field(m: &attain_openflow::Match, field: &str) -> Option<Value> {
        use attain_openflow::Wildcards;
        let w = m.wildcards;
        let concrete = |wild: bool, v: Value| if wild { Value::None } else { v };
        Some(match field {
            "in_port" => concrete(w.has(Wildcards::IN_PORT), Value::Int(m.in_port.0 as i64)),
            "dl_src" => concrete(w.has(Wildcards::DL_SRC), Value::Mac(m.dl_src)),
            "dl_dst" => concrete(w.has(Wildcards::DL_DST), Value::Mac(m.dl_dst)),
            "dl_vlan" => concrete(w.has(Wildcards::DL_VLAN), Value::Int(m.dl_vlan as i64)),
            "dl_type" => concrete(w.has(Wildcards::DL_TYPE), Value::Int(m.dl_type as i64)),
            "nw_proto" => concrete(w.has(Wildcards::NW_PROTO), Value::Int(m.nw_proto as i64)),
            "nw_src" => m.nw_src_addr().map(Value::Ip).unwrap_or(Value::None),
            "nw_dst" => m.nw_dst_addr().map(Value::Ip).unwrap_or(Value::None),
            "tp_src" => concrete(w.has(Wildcards::TP_SRC), Value::Int(m.tp_src as i64)),
            "tp_dst" => concrete(w.has(Wildcards::TP_DST), Value::Int(m.tp_dst as i64)),
            _ => return None,
        })
    }
    fn packet_field(data: &[u8], field: &str) -> Option<Value> {
        use attain_openflow::packet;
        use attain_openflow::PortNo;
        let key = packet::flow_key(data, PortNo(0));
        Some(match field {
            "dl_src" => Value::Mac(key.dl_src),
            "dl_dst" => Value::Mac(key.dl_dst),
            "dl_type" => Value::Int(key.dl_type as i64),
            "nw_src" => Value::Ip(key.nw_src.into()),
            "nw_dst" => Value::Ip(key.nw_dst.into()),
            "nw_proto" => Value::Int(key.nw_proto as i64),
            "tp_src" => Value::Int(key.tp_src as i64),
            "tp_dst" => Value::Int(key.tp_dst as i64),
            _ => return None,
        })
    }
    let (head, rest) = match path.split_once('.') {
        Some((h, r)) => (h, Some(r)),
        None => (path, None),
    };
    match msg {
        OfMessage::FlowMod(fm) => match (head, rest) {
            ("match", Some(field)) => match_field(&fm.r#match, field),
            ("command", None) => Some(Value::Str(fm.command.to_string())),
            ("priority", None) => Some(Value::Int(fm.priority as i64)),
            ("idle_timeout", None) => Some(Value::Int(fm.idle_timeout as i64)),
            ("hard_timeout", None) => Some(Value::Int(fm.hard_timeout as i64)),
            ("cookie", None) => Some(Value::Int(fm.cookie as i64)),
            ("buffer_id", None) => Some(
                fm.buffer_id
                    .map(|b| Value::Int(b as i64))
                    .unwrap_or(Value::None),
            ),
            ("actions", Some("len")) => Some(Value::Int(fm.actions.len() as i64)),
            _ => None,
        },
        OfMessage::PacketIn(pi) => match (head, rest) {
            ("in_port", None) => Some(Value::Int(pi.in_port.0 as i64)),
            ("reason", None) => Some(Value::Int(pi.reason as i64)),
            ("total_len", None) => Some(Value::Int(pi.total_len as i64)),
            ("buffer_id", None) => Some(
                pi.buffer_id
                    .map(|b| Value::Int(b as i64))
                    .unwrap_or(Value::None),
            ),
            ("packet", Some(field)) => packet_field(&pi.data, field),
            _ => None,
        },
        OfMessage::PacketOut(po) => match (head, rest) {
            ("in_port", None) => Some(Value::Int(po.in_port.0 as i64)),
            ("buffer_id", None) => Some(
                po.buffer_id
                    .map(|b| Value::Int(b as i64))
                    .unwrap_or(Value::None),
            ),
            ("actions", Some("len")) => Some(Value::Int(po.actions.len() as i64)),
            ("packet", Some(field)) => packet_field(&po.data, field),
            _ => None,
        },
        OfMessage::FlowRemoved(fr) => match (head, rest) {
            ("match", Some(field)) => match_field(&fr.r#match, field),
            ("reason", None) => Some(Value::Int(fr.reason as i64)),
            ("priority", None) => Some(Value::Int(fr.priority as i64)),
            ("packet_count", None) => Some(Value::Int(fr.packet_count as i64)),
            ("byte_count", None) => Some(Value::Int(fr.byte_count as i64)),
            _ => None,
        },
        OfMessage::Error(e) => match (head, rest) {
            ("type", None) => Some(Value::Str(e.error_type.to_string())),
            ("code", None) => Some(Value::Int(e.code as i64)),
            _ => None,
        },
        OfMessage::FeaturesReply(f) => match (head, rest) {
            ("datapath_id", None) => Some(Value::Int(f.datapath_id.0 as i64)),
            ("n_buffers", None) => Some(Value::Int(f.n_buffers as i64)),
            ("ports", Some("len")) => Some(Value::Int(f.ports.len() as i64)),
            _ => None,
        },
        OfMessage::PortStatus(ps) => match (head, rest) {
            ("reason", None) => Some(Value::Int(ps.reason as i64)),
            ("port_no", None) => Some(Value::Int(ps.desc.port_no.0 as i64)),
            _ => None,
        },
        OfMessage::EchoRequest(b) | OfMessage::EchoReply(b) => match (head, rest) {
            ("payload", Some("len")) => Some(Value::Int(b.len() as i64)),
            _ => None,
        },
        OfMessage::StatsRequest(body) => match (head, rest) {
            ("stats_type", None) => Some(Value::Str(
                match body {
                    StatsBody::Desc => "DESC",
                    StatsBody::Flow { .. } => "FLOW",
                    StatsBody::Aggregate { .. } => "AGGREGATE",
                    StatsBody::Table => "TABLE",
                    StatsBody::Port { .. } => "PORT",
                    StatsBody::Queue { .. } => "QUEUE",
                }
                .to_string(),
            )),
            _ => None,
        },
        OfMessage::StatsReply(body) => match (head, rest) {
            ("stats_type", None) => Some(Value::Str(
                match body {
                    StatsReplyBody::Desc(_) => "DESC",
                    StatsReplyBody::Flow(_) => "FLOW",
                    StatsReplyBody::Aggregate(_) => "AGGREGATE",
                    StatsReplyBody::Table(_) => "TABLE",
                    StatsReplyBody::Port(_) => "PORT",
                    StatsReplyBody::Queue(_) => "QUEUE",
                }
                .to_string(),
            )),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ControllerId, SwitchId};
    use attain_openflow::{Action, FlowMod, Match, OfType, PortNo, Wildcards};

    fn flow_mod_with_nw_src() -> OfMessage {
        let mut m = Match::all();
        m.wildcards = Wildcards::ALL.with_nw_src_ignored_bits(0);
        m.nw_src = u32::from(std::net::Ipv4Addr::new(10, 0, 0, 2));
        OfMessage::FlowMod(FlowMod {
            idle_timeout: 10,
            ..FlowMod::add(
                m,
                vec![Action::Output {
                    port: PortNo(1),
                    max_len: 0,
                }],
            )
        })
    }

    fn view(frame: &Frame, granted: CapabilitySet) -> MessageView<'_> {
        MessageView {
            conn: ConnectionId(0),
            source: NodeRef::Controller(ControllerId(0)),
            destination: NodeRef::Switch(SwitchId(0)),
            timestamp_ns: 1_500_000_000,
            id: 42,
            frame,
            granted,
            entropy: 0.5,
        }
    }

    #[test]
    fn metadata_reads_need_metadata_capability() {
        let msg = flow_mod_with_nw_src();
        let frame = Frame::from_message(msg, 1);
        let v = view(&frame, CapabilitySet::EMPTY);
        assert!(matches!(
            v.read(&Property::Source),
            Err(PropertyError::CapabilityDenied { .. })
        ));
        let v = view(&frame, CapabilitySet::tls());
        assert_eq!(
            v.read(&Property::Source).unwrap(),
            Value::Addr(NodeRef::Controller(ControllerId(0)))
        );
        assert_eq!(
            v.read(&Property::Length).unwrap(),
            Value::Int(frame.len() as i64)
        );
        assert_eq!(v.read(&Property::Id).unwrap(), Value::Int(42));
        assert_eq!(v.read(&Property::Timestamp).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn payload_reads_are_denied_under_tls() {
        let frame = Frame::from_message(flow_mod_with_nw_src(), 1);
        let v = view(&frame, CapabilitySet::tls());
        assert!(matches!(
            v.read(&Property::Type),
            Err(PropertyError::CapabilityDenied { .. })
        ));
        let v = view(&frame, CapabilitySet::no_tls());
        assert_eq!(
            v.read(&Property::Type).unwrap(),
            Value::MsgType(OfType::FlowMod)
        );
    }

    #[test]
    fn type_options_on_flow_mod() {
        let msg = flow_mod_with_nw_src();
        assert_eq!(
            type_option(&msg, "match.nw_src"),
            Some(Value::Ip("10.0.0.2".parse().unwrap()))
        );
        // nw_dst is wildcarded: present but None — the φ2/Ryu case.
        assert_eq!(type_option(&msg, "match.nw_dst"), Some(Value::None));
        assert_eq!(type_option(&msg, "idle_timeout"), Some(Value::Int(10)));
        assert_eq!(type_option(&msg, "command"), Some(Value::Str("ADD".into())));
        assert_eq!(type_option(&msg, "actions.len"), Some(Value::Int(1)));
        assert_eq!(type_option(&msg, "match.bogus"), None);
        assert_eq!(type_option(&msg, "bogus"), None);
    }

    #[test]
    fn type_options_on_packet_in() {
        use attain_openflow::packet;
        use attain_openflow::MacAddr;
        let frame = packet::icmp_echo_request(
            MacAddr::from_low(1),
            MacAddr::from_low(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.6".parse().unwrap(),
            1,
            1,
            vec![0; 8],
        );
        let msg = OfMessage::PacketIn(attain_openflow::PacketIn {
            buffer_id: Some(9),
            total_len: frame.wire_len() as u16,
            in_port: PortNo(3),
            reason: attain_openflow::PacketInReason::NoMatch,
            data: frame.encode(),
        });
        assert_eq!(type_option(&msg, "in_port"), Some(Value::Int(3)));
        assert_eq!(type_option(&msg, "buffer_id"), Some(Value::Int(9)));
        assert_eq!(
            type_option(&msg, "packet.nw_dst"),
            Some(Value::Ip("10.0.0.6".parse().unwrap()))
        );
        assert_eq!(type_option(&msg, "packet.nw_proto"), Some(Value::Int(1)));
    }

    #[test]
    fn unparseable_payload_fails_payload_reads_only() {
        let frame = Frame::new(vec![0xffu8; 12]);
        let v = MessageView {
            conn: ConnectionId(0),
            source: NodeRef::Switch(SwitchId(0)),
            destination: NodeRef::Controller(ControllerId(0)),
            timestamp_ns: 0,
            id: 1,
            frame: &frame,
            granted: CapabilitySet::no_tls(),
            entropy: 0.5,
        };
        assert!(matches!(
            v.read(&Property::Type),
            Err(PropertyError::Unparseable)
        ));
        assert_eq!(v.read(&Property::Length).unwrap(), Value::Int(12));
    }

    #[test]
    fn property_display_and_capability_mapping() {
        assert_eq!(Property::Source.to_string(), "msg.source");
        assert_eq!(
            Property::TypeOption("match.nw_src".into()).to_string(),
            "msg[\"match.nw_src\"]"
        );
        assert_eq!(
            Property::Type.required_capability(),
            Capability::ReadMessage
        );
        assert_eq!(
            Property::Length.required_capability(),
            Capability::ReadMessageMetadata
        );
    }
}
