//! Ethernet II framing with optional 802.1Q tagging.

use super::arp::Arp;
use super::ipv4::Ipv4;
use crate::error::CodecError;
use crate::types::MacAddr;
use crate::wire::{Reader, Writer};
use std::fmt;

/// An Ethernet frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP.
    pub const ARP: EtherType = EtherType(0x0806);
    /// 802.1Q VLAN tag.
    pub const VLAN: EtherType = EtherType(0x8100);
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04x}", self.0)
    }
}

/// A decoded Ethernet payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// ARP packet.
    Arp(Arp),
    /// IPv4 packet.
    Ipv4(Ipv4),
    /// Unrecognized ethertype, carried opaquely.
    Other(Vec<u8>),
}

/// An Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ethernet {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// 802.1Q TCI (priority + VLAN id), if tagged.
    pub vlan: Option<u16>,
    /// Frame type of the payload.
    pub ethertype: EtherType,
    /// Payload.
    pub payload: Payload,
}

impl Ethernet {
    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Fails if the L2 header is truncated or a recognized payload is
    /// malformed.
    pub fn decode(buf: &[u8]) -> Result<Ethernet, CodecError> {
        let mut r = Reader::new(buf, "ethernet");
        let dst = MacAddr(r.array::<6>()?);
        let src = MacAddr(r.array::<6>()?);
        let mut ethertype = EtherType(r.u16()?);
        let mut vlan = None;
        if ethertype == EtherType::VLAN {
            vlan = Some(r.u16()?);
            ethertype = EtherType(r.u16()?);
        }
        let rest = r.rest();
        let payload = match ethertype {
            EtherType::ARP => Payload::Arp(Arp::decode(rest)?),
            EtherType::IPV4 => Payload::Ipv4(Ipv4::decode(rest)?),
            _ => Payload::Other(rest.to_vec()),
        };
        Ok(Ethernet {
            dst,
            src,
            vlan,
            ethertype,
            payload,
        })
    }

    /// Encodes the frame to bytes (no trailing FCS; minimum-size padding
    /// is the simulator's concern, not the codec's), in one buffer of
    /// exactly [`Ethernet::wire_len`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.wire_len());
        w.bytes(&self.dst.0);
        w.bytes(&self.src.0);
        if let Some(tci) = self.vlan {
            w.u16(EtherType::VLAN.0);
            w.u16(tci);
        }
        w.u16(self.ethertype.0);
        match &self.payload {
            Payload::Arp(a) => a.encode(&mut w),
            Payload::Ipv4(ip) => ip.encode(&mut w),
            Payload::Other(b) => w.bytes(b),
        }
        w.into_vec()
    }

    /// Total encoded length in bytes, computed without encoding.
    pub fn wire_len(&self) -> usize {
        let l2 = if self.vlan.is_some() { 18 } else { 14 };
        l2 + match &self.payload {
            Payload::Arp(_) => 28,
            Payload::Ipv4(ip) => ip.wire_len(),
            Payload::Other(b) => b.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_payload_roundtrip() {
        let e = Ethernet {
            dst: MacAddr::from_low(2),
            src: MacAddr::from_low(1),
            vlan: None,
            ethertype: EtherType(0x88cc), // LLDP
            payload: Payload::Other(vec![1, 2, 3]),
        };
        let bytes = e.encode();
        assert_eq!(Ethernet::decode(&bytes).unwrap(), e);
    }

    #[test]
    fn vlan_tagged_roundtrip() {
        let e = Ethernet {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_low(9),
            vlan: Some((3 << 13) | 100),
            ethertype: EtherType(0x1234),
            payload: Payload::Other(vec![]),
        };
        let bytes = e.encode();
        let d = Ethernet::decode(&bytes).unwrap();
        assert_eq!(d.vlan, Some((3 << 13) | 100));
        assert_eq!(d, e);
    }

    #[test]
    fn truncated_header_fails() {
        assert!(Ethernet::decode(&[0u8; 10]).is_err());
    }
}
