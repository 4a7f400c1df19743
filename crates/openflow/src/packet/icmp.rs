//! ICMP (echo request/reply and opaque others).

use super::internet_checksum;
use crate::error::CodecError;
use crate::wire::{Reader, Writer};

/// Well-known ICMP message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpKind {
    /// Echo reply (type 0).
    EchoReply,
    /// Echo request (type 8).
    EchoRequest,
    /// Destination unreachable (type 3).
    DestinationUnreachable,
    /// Anything else.
    Other(u8),
}

impl IcmpKind {
    /// Classifies a wire type byte.
    pub(crate) fn from_type_byte(t: u8) -> IcmpKind {
        match t {
            0 => IcmpKind::EchoReply,
            8 => IcmpKind::EchoRequest,
            3 => IcmpKind::DestinationUnreachable,
            other => IcmpKind::Other(other),
        }
    }
}

/// An ICMP message. For echo messages, `identifier`/`sequence` carry the
/// ping id and trial number; for others they carry the "rest of header"
/// word verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Icmp {
    /// Type byte.
    pub icmp_type: u8,
    /// Code byte.
    pub code: u8,
    /// Echo identifier (or high half of the rest-of-header word).
    pub identifier: u16,
    /// Echo sequence number (or low half of the rest-of-header word).
    pub sequence: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Icmp {
    /// The message kind.
    pub fn kind(&self) -> IcmpKind {
        IcmpKind::from_type_byte(self.icmp_type)
    }

    /// Decodes an ICMP message, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a bad checksum.
    pub(crate) fn decode(buf: &[u8]) -> Result<Icmp, CodecError> {
        if internet_checksum(buf) != 0 {
            return Err(CodecError::BadValue {
                field: "icmp.checksum",
                value: 0,
            });
        }
        let mut r = Reader::new(buf, "icmp");
        let icmp_type = r.u8()?;
        let code = r.u8()?;
        let _checksum = r.u16()?;
        let identifier = r.u16()?;
        let sequence = r.u16()?;
        let payload = r.rest().to_vec();
        Ok(Icmp {
            icmp_type,
            code,
            identifier,
            sequence,
            payload,
        })
    }

    /// Encodes the message into `w`, then patches the checksum over the
    /// bytes just written.
    pub(crate) fn encode(&self, w: &mut Writer) {
        let start = w.len();
        w.u8(self.icmp_type);
        w.u8(self.code);
        w.u16(0); // checksum placeholder
        w.u16(self.identifier);
        w.u16(self.sequence);
        w.bytes(&self.payload);
        let csum = internet_checksum(w.written_since(start));
        w.patch_u16(start + 2, csum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Icmp {
            icmp_type: 8,
            code: 0,
            identifier: 42,
            sequence: 7,
            payload: vec![0xab; 48],
        };
        let mut w = Writer::new();
        m.encode(&mut w);
        let v = w.into_vec();
        let d = Icmp::decode(&v).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.kind(), IcmpKind::EchoRequest);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let m = Icmp {
            icmp_type: 0,
            code: 0,
            identifier: 1,
            sequence: 2,
            payload: vec![1, 2, 3],
        };
        let mut w = Writer::new();
        m.encode(&mut w);
        let mut v = w.into_vec();
        *v.last_mut().unwrap() ^= 0x01;
        assert!(Icmp::decode(&v).is_err());
    }

    #[test]
    fn kind_classification() {
        assert_eq!(IcmpKind::from_type_byte(0), IcmpKind::EchoReply);
        assert_eq!(IcmpKind::from_type_byte(8), IcmpKind::EchoRequest);
        assert_eq!(
            IcmpKind::from_type_byte(3),
            IcmpKind::DestinationUnreachable
        );
        assert_eq!(IcmpKind::from_type_byte(11), IcmpKind::Other(11));
    }
}
