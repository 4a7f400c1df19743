//! `OFPT_PACKET_OUT`.

use crate::actions::Action;
use crate::error::CodecError;
use crate::types::{buffer_id_from_wire, buffer_id_to_wire, BufferId, PortNo};
use crate::wire::{Reader, Writer};

/// An `OFPT_PACKET_OUT` body: a controller instruction to emit a packet.
///
/// Exactly one of `buffer_id` (release a switch-buffered packet) or `data`
/// (send raw bytes) carries the payload; when `buffer_id` is `Some`, `data`
/// must be empty.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PacketOut {
    /// Buffered packet to release, if any.
    pub buffer_id: BufferId,
    /// The port the packet notionally arrived on ([`PortNo::NONE`] if
    /// controller-originated), used by `output:IN_PORT` and `FLOOD`.
    pub in_port: PortNo,
    /// Actions applied to the packet (an empty list drops it).
    pub actions: Vec<Action>,
    /// Raw frame bytes when not using a buffer.
    pub data: Vec<u8>,
}

impl PacketOut {
    /// Decodes the body from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or malformed actions.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<PacketOut, CodecError> {
        let buffer_id = buffer_id_from_wire(r.u32()?);
        let in_port = PortNo(r.u16()?);
        let actions_len = r.u16()? as usize;
        let actions = Action::decode_list(r, actions_len)?;
        let data = r.rest().to_vec();
        Ok(PacketOut {
            buffer_id,
            in_port,
            actions,
            data,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u32(buffer_id_to_wire(self.buffer_id));
        w.u16(self.in_port.0);
        let len: usize = self.actions.iter().map(Action::wire_len).sum();
        w.u16(len as u16);
        Action::encode_list(&self.actions, w);
        w.bytes(&self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_data() {
        let p = PacketOut {
            buffer_id: None,
            in_port: PortNo::NONE,
            actions: vec![Action::Output {
                port: PortNo::FLOOD,
                max_len: 0,
            }],
            data: vec![0xde, 0xad],
        };
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "packet_out");
        assert_eq!(PacketOut::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn roundtrip_buffered_release() {
        let p = PacketOut {
            buffer_id: Some(5),
            in_port: PortNo(2),
            actions: vec![
                Action::SetTpDst(80),
                Action::Output {
                    port: PortNo(1),
                    max_len: 0,
                },
            ],
            data: vec![],
        };
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "packet_out");
        assert_eq!(PacketOut::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn empty_action_list_is_a_drop() {
        let p = PacketOut {
            buffer_id: Some(1),
            in_port: PortNo(1),
            actions: vec![],
            data: vec![],
        };
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "packet_out");
        let d = PacketOut::decode(&mut r).unwrap();
        assert!(d.actions.is_empty());
    }
}
