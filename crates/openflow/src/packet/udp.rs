//! UDP datagrams.

use crate::error::CodecError;
use crate::wire::{Reader, Writer};

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Udp {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Udp {
    /// Decodes a UDP datagram.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a length field inconsistent with the buffer.
    pub(crate) fn decode(buf: &[u8]) -> Result<Udp, CodecError> {
        let mut r = Reader::new(buf, "udp");
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let length = r.u16()? as usize;
        let _checksum = r.u16()?;
        if length < 8 || length > buf.len() {
            return Err(CodecError::BadLength {
                context: "udp.length",
                found: length,
            });
        }
        let payload = r.bytes(length - 8)?.to_vec();
        Ok(Udp {
            src_port,
            dst_port,
            payload,
        })
    }

    /// Encodes the datagram into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.src_port);
        w.u16(self.dst_port);
        w.u16((8 + self.payload.len()) as u16);
        w.u16(0); // checksum optional in IPv4
        w.bytes(&self.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let u = Udp {
            src_port: 53,
            dst_port: 4242,
            payload: vec![9; 32],
        };
        let mut w = Writer::new();
        u.encode(&mut w);
        assert_eq!(Udp::decode(&w.into_vec()).unwrap(), u);
    }

    #[test]
    fn rejects_short_length_field() {
        let u = Udp {
            src_port: 1,
            dst_port: 2,
            payload: vec![],
        };
        let mut w = Writer::new();
        u.encode(&mut w);
        let mut v = w.into_vec();
        v[5] = 4; // length < 8
        assert!(Udp::decode(&v).is_err());
    }
}
