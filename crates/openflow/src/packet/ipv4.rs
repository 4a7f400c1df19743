//! IPv4 with header checksum computation.

use super::icmp::Icmp;
use super::tcp::Tcp;
use super::udp::Udp;
use super::{internet_checksum, ip_proto};
use crate::error::CodecError;
use crate::wire::{Reader, Writer};
use std::net::Ipv4Addr;

/// A decoded IPv4 payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IpPayload {
    /// ICMP message.
    Icmp(Icmp),
    /// TCP segment.
    Tcp(Tcp),
    /// UDP datagram.
    Udp(Udp),
    /// Unrecognized protocol, carried opaquely.
    Other(Vec<u8>),
}

/// An IPv4 packet (no options, no fragmentation — the simulated hosts
/// never emit either).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ipv4 {
    /// Type-of-service / DSCP byte.
    pub tos: u8,
    /// Identification field.
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number.
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload.
    pub payload: IpPayload,
}

impl Ipv4 {
    /// Decodes an IPv4 packet, verifying the header checksum.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a bad version/IHL, a total length that does
    /// not fit, or a bad header checksum.
    pub(crate) fn decode(buf: &[u8]) -> Result<Ipv4, CodecError> {
        let mut r = Reader::new(buf, "ipv4");
        let ver_ihl = r.u8()?;
        if ver_ihl >> 4 != 4 {
            return Err(CodecError::BadValue {
                field: "ipv4.version",
                value: (ver_ihl >> 4) as u64,
            });
        }
        let ihl = (ver_ihl & 0x0f) as usize * 4;
        if ihl < 20 || buf.len() < ihl {
            return Err(CodecError::BadLength {
                context: "ipv4.ihl",
                found: ihl,
            });
        }
        if internet_checksum(&buf[..ihl]) != 0 {
            return Err(CodecError::BadValue {
                field: "ipv4.checksum",
                value: u16::from_be_bytes([buf[10], buf[11]]) as u64,
            });
        }
        let tos = r.u8()?;
        let total_len = r.u16()? as usize;
        if total_len < ihl || total_len > buf.len() {
            return Err(CodecError::BadLength {
                context: "ipv4.total_len",
                found: total_len,
            });
        }
        let identification = r.u16()?;
        let _flags_frag = r.u16()?;
        let ttl = r.u8()?;
        let protocol = r.u8()?;
        let _checksum = r.u16()?;
        let src = Ipv4Addr::from(r.array::<4>()?);
        let dst = Ipv4Addr::from(r.array::<4>()?);
        r.skip(ihl - 20)?; // options, if any
        let body = &buf[ihl..total_len];
        let payload = match protocol {
            ip_proto::ICMP => IpPayload::Icmp(Icmp::decode(body)?),
            ip_proto::TCP => IpPayload::Tcp(Tcp::decode(body)?),
            ip_proto::UDP => IpPayload::Udp(Udp::decode(body)?),
            _ => IpPayload::Other(body.to_vec()),
        };
        Ok(Ipv4 {
            tos,
            identification,
            ttl,
            protocol,
            src,
            dst,
            payload,
        })
    }

    /// Encoded length: the 20-byte header plus the payload.
    pub(crate) fn wire_len(&self) -> usize {
        20 + match &self.payload {
            IpPayload::Icmp(i) => 8 + i.payload.len(),
            IpPayload::Tcp(t) => 20 + t.payload.len(),
            IpPayload::Udp(u) => 8 + u.payload.len(),
            IpPayload::Other(b) => b.len(),
        }
    }

    /// Encodes the packet into `w`, then patches the total length and
    /// the header checksum over the bytes just written.
    pub(crate) fn encode(&self, w: &mut Writer) {
        let start = w.len();
        w.u8(0x45); // version 4, IHL 5
        w.u8(self.tos);
        w.u16(0); // total length, patched below
        w.u16(self.identification);
        w.u16(0x4000); // don't fragment
        w.u8(self.ttl);
        w.u8(self.protocol);
        w.u16(0); // checksum placeholder
        w.bytes(&self.src.octets());
        w.bytes(&self.dst.octets());
        match &self.payload {
            IpPayload::Icmp(i) => i.encode(w),
            IpPayload::Tcp(t) => t.encode(w),
            IpPayload::Udp(u) => u.encode(w),
            IpPayload::Other(b) => w.bytes(b),
        }
        w.patch_u16(start + 2, (w.len() - start) as u16);
        let csum = internet_checksum(&w.written_since(start)[..20]);
        w.patch_u16(start + 10, csum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4 {
        Ipv4 {
            tos: 0,
            identification: 0x1234,
            ttl: 64,
            protocol: 0x2a, // unknown: payload kept opaque
            src: Ipv4Addr::new(10, 0, 1, 1),
            dst: Ipv4Addr::new(10, 0, 2, 2),
            payload: IpPayload::Other(vec![1, 2, 3, 4]),
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let mut w = Writer::new();
        p.encode(&mut w);
        assert_eq!(Ipv4::decode(&w.into_vec()).unwrap(), p);
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let p = sample();
        let mut w = Writer::new();
        p.encode(&mut w);
        let mut v = w.into_vec();
        v[8] ^= 0xff; // flip TTL
        assert!(matches!(
            Ipv4::decode(&v).unwrap_err(),
            CodecError::BadValue {
                field: "ipv4.checksum",
                ..
            }
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let p = sample();
        let mut w = Writer::new();
        p.encode(&mut w);
        let mut v = w.into_vec();
        v[0] = 0x65; // version 6
        assert!(Ipv4::decode(&v).is_err());
    }

    #[test]
    fn rejects_total_len_beyond_buffer() {
        let p = sample();
        let mut w = Writer::new();
        p.encode(&mut w);
        let mut v = w.into_vec();
        // Inflate total_len and fix the checksum so only the length check
        // can fire.
        v[2] = 0xff;
        v[3] = 0xff;
        v[10] = 0;
        v[11] = 0;
        let csum = internet_checksum(&v[..20]);
        v[10..12].copy_from_slice(&csum.to_be_bytes());
        assert!(matches!(
            Ipv4::decode(&v).unwrap_err(),
            CodecError::BadLength {
                context: "ipv4.total_len",
                ..
            }
        ));
    }
}
