//! TCP segments (header + payload; checksum carried but not enforced,
//! since the simulator has no pseudo-header context at this layer).

use crate::error::CodecError;
use crate::wire::{Reader, Writer};
use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Whether all bits of `other` are set.
    pub fn contains(&self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
        ] {
            if self.contains(bit) {
                if any {
                    write!(f, "|")?;
                }
                f.write_str(name)?;
                any = true;
            }
        }
        if !any {
            f.write_str("-")?;
        }
        Ok(())
    }
}

/// A TCP segment (no options).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tcp {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Tcp {
    /// Decodes a TCP segment.
    ///
    /// # Errors
    ///
    /// Fails on truncation or a data offset smaller than 5 words.
    pub(crate) fn decode(buf: &[u8]) -> Result<Tcp, CodecError> {
        let mut r = Reader::new(buf, "tcp");
        let src_port = r.u16()?;
        let dst_port = r.u16()?;
        let seq = r.u32()?;
        let ack = r.u32()?;
        let off_flags = r.u16()?;
        let data_off = ((off_flags >> 12) & 0x0f) as usize * 4;
        if data_off < 20 || data_off > buf.len() {
            return Err(CodecError::BadLength {
                context: "tcp.data_offset",
                found: data_off,
            });
        }
        let flags = TcpFlags((off_flags & 0x3f) as u8);
        let window = r.u16()?;
        let _checksum = r.u16()?;
        let _urgent = r.u16()?;
        r.skip(data_off - 20)?; // options
        let payload = r.rest().to_vec();
        Ok(Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            payload,
        })
    }

    /// Encodes the segment into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.src_port);
        w.u16(self.dst_port);
        w.u32(self.seq);
        w.u32(self.ack);
        w.u16((5 << 12) | (self.flags.0 as u16));
        w.u16(self.window);
        w.u16(0); // checksum: not enforced at this layer
        w.u16(0); // urgent pointer
        w.bytes(&self.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = Tcp {
            src_port: 5001,
            dst_port: 80,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 65535,
            payload: vec![1, 2, 3],
        };
        let mut w = Writer::new();
        t.encode(&mut w);
        assert_eq!(Tcp::decode(&w.into_vec()).unwrap(), t);
    }

    #[test]
    fn rejects_bad_data_offset() {
        let t = Tcp {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 0,
            payload: vec![],
        };
        let mut w = Writer::new();
        t.encode(&mut w);
        let mut v = w.into_vec();
        v[12] = 2 << 4; // data offset = 8 bytes
        assert!(Tcp::decode(&v).is_err());
    }

    #[test]
    fn flags_display_and_contains() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(!f.contains(TcpFlags::FIN));
        assert_eq!(f.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }
}
