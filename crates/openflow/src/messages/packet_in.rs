//! `OFPT_PACKET_IN`.

use crate::error::CodecError;
use crate::types::{buffer_id_from_wire, buffer_id_to_wire, BufferId, PortNo};
use crate::wire::{Reader, Writer};

/// Why a packet was sent to the controller (`ofp_packet_in_reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketInReason {
    /// No matching flow entry (table miss).
    NoMatch = 0,
    /// An explicit `output:CONTROLLER` action.
    Action = 1,
}

impl PacketInReason {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for values above 1.
    pub fn from_wire(v: u8) -> Result<PacketInReason, CodecError> {
        match v {
            0 => Ok(PacketInReason::NoMatch),
            1 => Ok(PacketInReason::Action),
            other => Err(CodecError::BadValue {
                field: "ofp_packet_in.reason",
                value: other as u64,
            }),
        }
    }
}

/// An `OFPT_PACKET_IN` body: a data-plane packet delivered to the
/// controller.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PacketIn {
    /// Buffer holding the full packet on the switch, if buffered.
    pub buffer_id: BufferId,
    /// Full length of the original frame.
    pub total_len: u16,
    /// Port the frame arrived on.
    pub in_port: PortNo,
    /// Delivery reason.
    pub reason: PacketInReason,
    /// The frame (possibly truncated to `miss_send_len` when buffered).
    pub data: Vec<u8>,
}

impl PacketIn {
    /// Decodes the body from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an undefined reason.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<PacketIn, CodecError> {
        let buffer_id = buffer_id_from_wire(r.u32()?);
        let total_len = r.u16()?;
        let in_port = PortNo(r.u16()?);
        let reason = PacketInReason::from_wire(r.u8()?)?;
        r.skip(1)?;
        let data = r.rest().to_vec();
        Ok(PacketIn {
            buffer_id,
            total_len,
            in_port,
            reason,
            data,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u32(buffer_id_to_wire(self.buffer_id));
        w.u16(self.total_len);
        w.u16(self.in_port.0);
        w.u8(self.reason as u8);
        w.pad(1);
        w.bytes(&self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_buffered() {
        let p = PacketIn {
            buffer_id: Some(77),
            total_len: 1500,
            in_port: PortNo(4),
            reason: PacketInReason::NoMatch,
            data: vec![0xaa; 128],
        };
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "packet_in");
        assert_eq!(PacketIn::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn roundtrip_unbuffered() {
        let p = PacketIn {
            buffer_id: None,
            total_len: 60,
            in_port: PortNo(1),
            reason: PacketInReason::Action,
            data: vec![1, 2, 3],
        };
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "packet_in");
        assert_eq!(PacketIn::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn rejects_bad_reason() {
        let mut w = Writer::new();
        w.u32(0xffff_ffff);
        w.u16(0);
        w.u16(0);
        w.u8(9);
        w.pad(1);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "packet_in");
        assert!(PacketIn::decode(&mut r).is_err());
    }
}
