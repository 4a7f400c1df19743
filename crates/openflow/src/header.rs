//! The common OpenFlow message header.

use crate::error::CodecError;
use crate::types::Xid;
use crate::wire::{Reader, Writer};
use std::fmt;

/// OpenFlow protocol version implemented by this crate (1.0.0).
pub const OFP_VERSION: u8 = 0x01;

/// Length in bytes of the fixed `ofp_header`.
pub const OFP_HEADER_LEN: usize = 8;

/// OpenFlow 1.0 message type discriminants (`ofp_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum OfType {
    Hello = 0,
    Error = 1,
    EchoRequest = 2,
    EchoReply = 3,
    Vendor = 4,
    FeaturesRequest = 5,
    FeaturesReply = 6,
    GetConfigRequest = 7,
    GetConfigReply = 8,
    SetConfig = 9,
    PacketIn = 10,
    FlowRemoved = 11,
    PortStatus = 12,
    PacketOut = 13,
    FlowMod = 14,
    PortMod = 15,
    StatsRequest = 16,
    StatsReply = 17,
    BarrierRequest = 18,
    BarrierReply = 19,
    QueueGetConfigRequest = 20,
    QueueGetConfigReply = 21,
}

impl OfType {
    /// All message types, in wire order.
    pub const ALL: [OfType; 22] = [
        OfType::Hello,
        OfType::Error,
        OfType::EchoRequest,
        OfType::EchoReply,
        OfType::Vendor,
        OfType::FeaturesRequest,
        OfType::FeaturesReply,
        OfType::GetConfigRequest,
        OfType::GetConfigReply,
        OfType::SetConfig,
        OfType::PacketIn,
        OfType::FlowRemoved,
        OfType::PortStatus,
        OfType::PacketOut,
        OfType::FlowMod,
        OfType::PortMod,
        OfType::StatsRequest,
        OfType::StatsReply,
        OfType::BarrierRequest,
        OfType::BarrierReply,
        OfType::QueueGetConfigRequest,
        OfType::QueueGetConfigReply,
    ];

    /// Decodes a wire discriminant.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for values above 21.
    fn from_wire(v: u8) -> Result<OfType, CodecError> {
        OfType::ALL
            .get(v as usize)
            .copied()
            .ok_or(CodecError::BadValue {
                field: "ofp_header.type",
                value: v as u64,
            })
    }

    /// The canonical spec name, e.g. `FLOW_MOD`.
    pub fn spec_name(&self) -> &'static str {
        match self {
            OfType::Hello => "HELLO",
            OfType::Error => "ERROR",
            OfType::EchoRequest => "ECHO_REQUEST",
            OfType::EchoReply => "ECHO_REPLY",
            OfType::Vendor => "VENDOR",
            OfType::FeaturesRequest => "FEATURES_REQUEST",
            OfType::FeaturesReply => "FEATURES_REPLY",
            OfType::GetConfigRequest => "GET_CONFIG_REQUEST",
            OfType::GetConfigReply => "GET_CONFIG_REPLY",
            OfType::SetConfig => "SET_CONFIG",
            OfType::PacketIn => "PACKET_IN",
            OfType::FlowRemoved => "FLOW_REMOVED",
            OfType::PortStatus => "PORT_STATUS",
            OfType::PacketOut => "PACKET_OUT",
            OfType::FlowMod => "FLOW_MOD",
            OfType::PortMod => "PORT_MOD",
            OfType::StatsRequest => "STATS_REQUEST",
            OfType::StatsReply => "STATS_REPLY",
            OfType::BarrierRequest => "BARRIER_REQUEST",
            OfType::BarrierReply => "BARRIER_REPLY",
            OfType::QueueGetConfigRequest => "QUEUE_GET_CONFIG_REQUEST",
            OfType::QueueGetConfigReply => "QUEUE_GET_CONFIG_REPLY",
        }
    }

    /// Parses a spec name (as used in attack descriptions, e.g. `FLOW_MOD`).
    pub fn from_spec_name(name: &str) -> Option<OfType> {
        OfType::ALL.into_iter().find(|t| t.spec_name() == name)
    }
}

impl fmt::Display for OfType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_name())
    }
}

/// The fixed 8-byte `ofp_header` that prefixes every OpenFlow message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OfHeader {
    /// Protocol version; always [`OFP_VERSION`] for valid messages.
    pub version: u8,
    /// Message type.
    pub of_type: OfType,
    /// Total message length including this header.
    pub length: u16,
    /// Transaction id correlating requests with replies.
    pub xid: Xid,
}

impl OfHeader {
    /// Decodes a header from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Fails on truncation, an unknown version byte, an unknown type, or a
    /// length field smaller than the header itself.
    pub(crate) fn decode(buf: &[u8]) -> Result<OfHeader, CodecError> {
        let mut r = Reader::new(buf, "ofp_header");
        let version = r.u8()?;
        if version != OFP_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let of_type = OfType::from_wire(r.u8()?)?;
        let length = r.u16()?;
        let xid = r.u32()?;
        if (length as usize) < OFP_HEADER_LEN {
            return Err(CodecError::BadLength {
                context: "ofp_header.length",
                found: length as usize,
            });
        }
        Ok(OfHeader {
            version,
            of_type,
            length,
            xid,
        })
    }

    /// Encodes the header into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u8(self.version);
        w.u8(self.of_type as u8);
        w.u16(self.length);
        w.u32(self.xid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = OfHeader {
            version: OFP_VERSION,
            of_type: OfType::FlowMod,
            length: 80,
            xid: 99,
        };
        let mut w = Writer::new();
        h.encode(&mut w);
        let v = w.into_vec();
        assert_eq!(v.len(), OFP_HEADER_LEN);
        assert_eq!(OfHeader::decode(&v).unwrap(), h);
    }

    #[test]
    fn rejects_wrong_version() {
        let bytes = [0x04, 0, 0, 8, 0, 0, 0, 0];
        assert_eq!(
            OfHeader::decode(&bytes).unwrap_err(),
            CodecError::BadVersion(4)
        );
    }

    #[test]
    fn rejects_unknown_type() {
        let bytes = [0x01, 99, 0, 8, 0, 0, 0, 0];
        assert!(matches!(
            OfHeader::decode(&bytes).unwrap_err(),
            CodecError::BadValue {
                field: "ofp_header.type",
                value: 99
            }
        ));
    }

    #[test]
    fn rejects_undersized_length() {
        let bytes = [0x01, 0, 0, 4, 0, 0, 0, 0];
        assert!(matches!(
            OfHeader::decode(&bytes).unwrap_err(),
            CodecError::BadLength { .. }
        ));
    }

    #[test]
    fn spec_names_roundtrip() {
        for t in OfType::ALL {
            assert_eq!(OfType::from_spec_name(t.spec_name()), Some(t));
            assert_eq!(OfType::from_wire(t as u8).unwrap(), t);
        }
        assert_eq!(OfType::from_spec_name("NOT_A_TYPE"), None);
    }

    #[test]
    fn all_table_is_in_wire_order() {
        for (i, t) in OfType::ALL.iter().enumerate() {
            assert_eq!(*t as u8 as usize, i);
        }
    }
}
