//! ARP for IPv4 over Ethernet.

use crate::error::CodecError;
use crate::types::MacAddr;
use crate::wire::{Reader, Writer};
use std::net::Ipv4Addr;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ArpOperation {
    /// Who-has request.
    Request = 1,
    /// Is-at reply.
    Reply = 2,
}

impl ArpOperation {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for operations other than 1 or 2.
    fn from_wire(v: u16) -> Result<ArpOperation, CodecError> {
        match v {
            1 => Ok(ArpOperation::Request),
            2 => Ok(ArpOperation::Reply),
            other => Err(CodecError::BadValue {
                field: "arp.operation",
                value: other as u64,
            }),
        }
    }
}

/// An ARP packet (Ethernet/IPv4 flavour only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arp {
    /// Request or reply.
    pub operation: ArpOperation,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl Arp {
    /// Decodes an ARP packet.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a non-Ethernet/IPv4 header, or a bad
    /// operation.
    pub(crate) fn decode(buf: &[u8]) -> Result<Arp, CodecError> {
        let mut r = Reader::new(buf, "arp");
        let htype = r.u16()?;
        let ptype = r.u16()?;
        let hlen = r.u8()?;
        let plen = r.u8()?;
        if htype != 1 || ptype != 0x0800 || hlen != 6 || plen != 4 {
            return Err(CodecError::BadValue {
                field: "arp.header",
                value: ((htype as u64) << 32) | ptype as u64,
            });
        }
        let operation = ArpOperation::from_wire(r.u16()?)?;
        let sender_mac = MacAddr(r.array::<6>()?);
        let sender_ip = Ipv4Addr::from(r.array::<4>()?);
        let target_mac = MacAddr(r.array::<6>()?);
        let target_ip = Ipv4Addr::from(r.array::<4>()?);
        Ok(Arp {
            operation,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        })
    }

    /// Encodes the packet into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(1); // Ethernet
        w.u16(0x0800); // IPv4
        w.u8(6);
        w.u8(4);
        w.u16(self.operation as u16);
        w.bytes(&self.sender_mac.0);
        w.bytes(&self.sender_ip.octets());
        w.bytes(&self.target_mac.0);
        w.bytes(&self.target_ip.octets());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = Arp {
            operation: ArpOperation::Reply,
            sender_mac: MacAddr::from_low(1),
            sender_ip: Ipv4Addr::new(10, 0, 1, 1),
            target_mac: MacAddr::from_low(2),
            target_ip: Ipv4Addr::new(10, 0, 1, 2),
        };
        let mut w = Writer::new();
        a.encode(&mut w);
        assert_eq!(Arp::decode(&w.into_vec()).unwrap(), a);
    }

    #[test]
    fn rejects_non_ethernet_ipv4() {
        let a = Arp {
            operation: ArpOperation::Request,
            sender_mac: MacAddr::ZERO,
            sender_ip: Ipv4Addr::UNSPECIFIED,
            target_mac: MacAddr::ZERO,
            target_ip: Ipv4Addr::UNSPECIFIED,
        };
        let mut w = Writer::new();
        a.encode(&mut w);
        let mut v = w.into_vec();
        v[0] = 0;
        v[1] = 6; // htype = IEEE 802
        assert!(Arp::decode(&v).is_err());
    }

    #[test]
    fn rejects_bad_operation() {
        let a = Arp {
            operation: ArpOperation::Request,
            sender_mac: MacAddr::ZERO,
            sender_ip: Ipv4Addr::UNSPECIFIED,
            target_mac: MacAddr::ZERO,
            target_ip: Ipv4Addr::UNSPECIFIED,
        };
        let mut w = Writer::new();
        a.encode(&mut w);
        let mut v = w.into_vec();
        v[7] = 9;
        assert!(Arp::decode(&v).is_err());
    }
}
