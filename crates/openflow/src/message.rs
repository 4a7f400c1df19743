//! The top-level [`OfMessage`] enum: every OpenFlow 1.0 message.

use crate::error::CodecError;
use crate::header::{OfHeader, OfType, OFP_HEADER_LEN, OFP_VERSION};
use crate::messages::queue as queue_codec;
use crate::messages::{
    ErrorMsg, FlowMod, FlowRemoved, PacketIn, PacketOut, PortMod, PortStatus, QueueConfig,
    StatsBody, StatsReplyBody, SwitchConfig, SwitchFeatures,
};
use crate::types::{PortNo, Xid};
use crate::wire::{with_scratch, Reader, Writer};

/// A decoded OpenFlow 1.0 message (header type + typed body).
///
/// The transaction id is kept separate (passed to [`OfMessage::encode`] and
/// returned by [`OfMessage::decode`]) so message bodies compare equal
/// regardless of xid — which is what attack conditionals want.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OfMessage {
    /// Version negotiation; body is ignored in 1.0.
    Hello,
    /// Error notification.
    Error(ErrorMsg),
    /// Liveness probe (opaque payload echoed back).
    EchoRequest(Vec<u8>),
    /// Liveness probe response.
    EchoReply(Vec<u8>),
    /// Vendor/experimenter extension.
    Vendor {
        /// Vendor id.
        vendor: u32,
        /// Opaque body.
        body: Vec<u8>,
    },
    /// Ask the switch for its features.
    FeaturesRequest,
    /// The switch's datapath id, tables, and ports.
    FeaturesReply(SwitchFeatures),
    /// Ask the switch for its config.
    GetConfigRequest,
    /// The switch's config.
    GetConfigReply(SwitchConfig),
    /// Set the switch's config.
    SetConfig(SwitchConfig),
    /// Data-plane packet delivered to the controller.
    PacketIn(PacketIn),
    /// Flow entry expired or was deleted.
    FlowRemoved(FlowRemoved),
    /// Port changed.
    PortStatus(PortStatus),
    /// Emit a packet from the switch.
    PacketOut(PacketOut),
    /// Modify the flow table.
    FlowMod(FlowMod),
    /// Modify port behaviour.
    PortMod(PortMod),
    /// Request statistics.
    StatsRequest(StatsBody),
    /// Statistics response.
    StatsReply(StatsReplyBody),
    /// Barrier: flush preceding messages before replying.
    BarrierRequest,
    /// Barrier response.
    BarrierReply,
    /// Ask for a port's queue configuration.
    QueueGetConfigRequest {
        /// Queried port.
        port: PortNo,
    },
    /// A port's queue configuration.
    QueueGetConfigReply {
        /// Queried port.
        port: PortNo,
        /// The port's queues.
        queues: Vec<QueueConfig>,
    },
}

impl OfMessage {
    /// The message's wire type.
    pub fn of_type(&self) -> OfType {
        match self {
            OfMessage::Hello => OfType::Hello,
            OfMessage::Error(_) => OfType::Error,
            OfMessage::EchoRequest(_) => OfType::EchoRequest,
            OfMessage::EchoReply(_) => OfType::EchoReply,
            OfMessage::Vendor { .. } => OfType::Vendor,
            OfMessage::FeaturesRequest => OfType::FeaturesRequest,
            OfMessage::FeaturesReply(_) => OfType::FeaturesReply,
            OfMessage::GetConfigRequest => OfType::GetConfigRequest,
            OfMessage::GetConfigReply(_) => OfType::GetConfigReply,
            OfMessage::SetConfig(_) => OfType::SetConfig,
            OfMessage::PacketIn(_) => OfType::PacketIn,
            OfMessage::FlowRemoved(_) => OfType::FlowRemoved,
            OfMessage::PortStatus(_) => OfType::PortStatus,
            OfMessage::PacketOut(_) => OfType::PacketOut,
            OfMessage::FlowMod(_) => OfType::FlowMod,
            OfMessage::PortMod(_) => OfType::PortMod,
            OfMessage::StatsRequest(_) => OfType::StatsRequest,
            OfMessage::StatsReply(_) => OfType::StatsReply,
            OfMessage::BarrierRequest => OfType::BarrierRequest,
            OfMessage::BarrierReply => OfType::BarrierReply,
            OfMessage::QueueGetConfigRequest { .. } => OfType::QueueGetConfigRequest,
            OfMessage::QueueGetConfigReply { .. } => OfType::QueueGetConfigReply,
        }
    }

    /// Encodes header + body into a standalone byte vector.
    ///
    /// # Panics
    ///
    /// Panics if the encoded message exceeds the 16-bit header length
    /// field (body larger than 65527 bytes). Callers holding bodies of
    /// untrusted size should use [`OfMessage::try_encode`], which
    /// returns [`CodecError::Oversize`] instead of producing a frame
    /// whose declared length silently disagrees with its contents.
    // The documented `# Panics` contract above; `try_encode` is the
    // fallible form.
    #[allow(clippy::expect_used)]
    pub fn encode(&self, xid: Xid) -> Vec<u8> {
        self.try_encode(xid)
            .expect("message exceeds the OpenFlow frame size limit (use try_encode)")
    }

    /// Encodes header + body, failing if the message cannot fit a frame.
    ///
    /// The message is written into this thread's scratch writer and
    /// copied out once, into a buffer of exactly its length.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Oversize`] when the encoded size exceeds
    /// `u16::MAX` — the header's length field would otherwise truncate
    /// and desynchronize the peer's framer.
    pub fn try_encode(&self, xid: Xid) -> Result<Vec<u8>, CodecError> {
        with_scratch(|w| {
            self.encode_into(xid, w);
            let len = w.len();
            if len > u16::MAX as usize {
                return Err(CodecError::Oversize {
                    context: "ofp message",
                    len,
                });
            }
            w.patch_u16(2, len as u16);
            Ok(w.written_since(0).to_vec())
        })
    }

    /// Writes header + body into `w`, the header's length left 0.
    fn encode_into(&self, xid: Xid, w: &mut Writer) {
        OfHeader {
            version: OFP_VERSION,
            of_type: self.of_type(),
            length: 0,
            xid,
        }
        .encode(w);
        match self {
            OfMessage::Hello
            | OfMessage::FeaturesRequest
            | OfMessage::GetConfigRequest
            | OfMessage::BarrierRequest
            | OfMessage::BarrierReply => {}
            OfMessage::Error(e) => e.encode(w),
            OfMessage::EchoRequest(b) | OfMessage::EchoReply(b) => w.bytes(b),
            OfMessage::Vendor { vendor, body } => {
                w.u32(*vendor);
                w.bytes(body);
            }
            OfMessage::FeaturesReply(f) => f.encode(w),
            OfMessage::GetConfigReply(c) | OfMessage::SetConfig(c) => c.encode(w),
            OfMessage::PacketIn(p) => p.encode(w),
            OfMessage::FlowRemoved(fr) => fr.encode(w),
            OfMessage::PortStatus(ps) => ps.encode(w),
            OfMessage::PacketOut(p) => p.encode(w),
            OfMessage::FlowMod(fm) => fm.encode(w),
            OfMessage::PortMod(pm) => pm.encode(w),
            OfMessage::StatsRequest(s) => s.encode(w),
            OfMessage::StatsReply(s) => s.encode(w),
            OfMessage::QueueGetConfigRequest { port } => queue_codec::encode_request(*port, w),
            OfMessage::QueueGetConfigReply { port, queues } => {
                queue_codec::encode_reply(*port, queues, w)
            }
        }
    }

    /// Decodes a complete message (header + body) from `buf`.
    ///
    /// Returns the message and its transaction id. The entire declared
    /// length must be present and `buf` must contain nothing after it.
    ///
    /// # Errors
    ///
    /// Fails on truncation, trailing bytes, a bad version, an unknown
    /// type, or a malformed body.
    pub fn decode(buf: &[u8]) -> Result<(OfMessage, Xid), CodecError> {
        let header = OfHeader::decode(buf)?;
        if buf.len() != header.length as usize {
            return Err(CodecError::BadLength {
                context: "ofp message framing",
                found: buf.len(),
            });
        }
        let mut r = Reader::new(&buf[OFP_HEADER_LEN..], "ofp message body");
        let msg = match header.of_type {
            OfType::Hello => {
                // 1.0 permits (and ignores) a hello body.
                let _ = r.rest();
                OfMessage::Hello
            }
            OfType::Error => OfMessage::Error(ErrorMsg::decode(&mut r)?),
            OfType::EchoRequest => OfMessage::EchoRequest(r.rest().to_vec()),
            OfType::EchoReply => OfMessage::EchoReply(r.rest().to_vec()),
            OfType::Vendor => OfMessage::Vendor {
                vendor: r.u32()?,
                body: r.rest().to_vec(),
            },
            OfType::FeaturesRequest => OfMessage::FeaturesRequest,
            OfType::FeaturesReply => OfMessage::FeaturesReply(SwitchFeatures::decode(&mut r)?),
            OfType::GetConfigRequest => OfMessage::GetConfigRequest,
            OfType::GetConfigReply => OfMessage::GetConfigReply(SwitchConfig::decode(&mut r)?),
            OfType::SetConfig => OfMessage::SetConfig(SwitchConfig::decode(&mut r)?),
            OfType::PacketIn => OfMessage::PacketIn(PacketIn::decode(&mut r)?),
            OfType::FlowRemoved => OfMessage::FlowRemoved(FlowRemoved::decode(&mut r)?),
            OfType::PortStatus => OfMessage::PortStatus(PortStatus::decode(&mut r)?),
            OfType::PacketOut => OfMessage::PacketOut(PacketOut::decode(&mut r)?),
            OfType::FlowMod => OfMessage::FlowMod(FlowMod::decode(&mut r)?),
            OfType::PortMod => OfMessage::PortMod(PortMod::decode(&mut r)?),
            OfType::StatsRequest => OfMessage::StatsRequest(StatsBody::decode(&mut r)?),
            OfType::StatsReply => OfMessage::StatsReply(StatsReplyBody::decode(&mut r)?),
            OfType::BarrierRequest => OfMessage::BarrierRequest,
            OfType::BarrierReply => OfMessage::BarrierReply,
            OfType::QueueGetConfigRequest => OfMessage::QueueGetConfigRequest {
                port: queue_codec::decode_request(&mut r)?,
            },
            OfType::QueueGetConfigReply => {
                let (port, queues) = queue_codec::decode_reply(&mut r)?;
                OfMessage::QueueGetConfigReply { port, queues }
            }
        };
        r.expect_end()?;
        Ok((msg, header.xid))
    }

    /// Splits the first complete message off a byte stream.
    ///
    /// Returns `Ok(None)` when `buf` holds only a partial message — the
    /// caller should read more bytes. On success returns the frame's total
    /// length so the caller can advance its buffer. This is the framing
    /// loop both the TCP proxy and the simulated channel use.
    ///
    /// # Errors
    ///
    /// Fails if an (already complete) header is malformed.
    pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, CodecError> {
        if buf.len() < OFP_HEADER_LEN {
            return Ok(None);
        }
        let header = OfHeader::decode(&buf[..OFP_HEADER_LEN])?;
        if buf.len() < header.length as usize {
            return Ok(None);
        }
        Ok(Some(header.length as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::r#match::Match;
    use crate::types::{DatapathId, MacAddr};

    fn roundtrip(msg: OfMessage) {
        let bytes = msg.encode(0x1234);
        let (decoded, xid) = OfMessage::decode(&bytes).unwrap();
        assert_eq!(xid, 0x1234);
        assert_eq!(decoded, msg);
        // Declared length equals actual length.
        let header = OfHeader::decode(&bytes).unwrap();
        assert_eq!(header.length as usize, bytes.len());
    }

    #[test]
    fn fixed_body_messages_roundtrip() {
        roundtrip(OfMessage::Hello);
        roundtrip(OfMessage::FeaturesRequest);
        roundtrip(OfMessage::GetConfigRequest);
        roundtrip(OfMessage::BarrierRequest);
        roundtrip(OfMessage::BarrierReply);
        roundtrip(OfMessage::EchoRequest(vec![1, 2, 3]));
        roundtrip(OfMessage::EchoReply(vec![]));
        roundtrip(OfMessage::Vendor {
            vendor: 0x2320,
            body: vec![9; 12],
        });
        roundtrip(OfMessage::GetConfigReply(SwitchConfig::default()));
        roundtrip(OfMessage::SetConfig(SwitchConfig {
            flags: 0,
            miss_send_len: 0xffff,
        }));
        roundtrip(OfMessage::QueueGetConfigRequest { port: PortNo(1) });
        roundtrip(OfMessage::QueueGetConfigReply {
            port: PortNo(1),
            queues: vec![QueueConfig {
                queue_id: 1,
                min_rate: Some(10),
            }],
        });
    }

    #[test]
    fn variable_body_messages_roundtrip() {
        roundtrip(OfMessage::FeaturesReply(SwitchFeatures {
            datapath_id: DatapathId(1),
            n_buffers: 256,
            n_tables: 1,
            capabilities: 0,
            actions: 0xfff,
            ports: vec![crate::messages::PhyPort::simulated(
                PortNo(1),
                MacAddr::from_low(1),
            )],
        }));
        roundtrip(OfMessage::PacketIn(PacketIn {
            buffer_id: Some(1),
            total_len: 64,
            in_port: PortNo(1),
            reason: crate::messages::PacketInReason::NoMatch,
            data: vec![0xaa; 64],
        }));
        roundtrip(OfMessage::PacketOut(PacketOut {
            buffer_id: None,
            in_port: PortNo::NONE,
            actions: vec![Action::Output {
                port: PortNo::FLOOD,
                max_len: 0,
            }],
            data: vec![0x55; 60],
        }));
        roundtrip(OfMessage::FlowMod(FlowMod::add(
            Match::exact_in_port(PortNo(2)),
            vec![Action::Output {
                port: PortNo(3),
                max_len: 0,
            }],
        )));
    }

    #[test]
    fn oversized_body_encode_errors_instead_of_truncating() {
        // 65527 bytes of body is the largest that fits (8-byte header).
        let max = OfMessage::EchoRequest(vec![0; 65527]);
        let bytes = max.try_encode(1).unwrap();
        assert_eq!(bytes.len(), 65535);
        let header = OfHeader::decode(&bytes).unwrap();
        assert_eq!(header.length as usize, bytes.len());

        // One byte more and the length field would wrap; the old encoder
        // emitted a frame whose header claimed 0 bytes.
        let over = OfMessage::EchoRequest(vec![0; 65528]);
        assert!(matches!(
            over.try_encode(1),
            Err(CodecError::Oversize { len: 65536, .. })
        ));
    }

    #[test]
    fn decode_rejects_truncated_frame() {
        let bytes = OfMessage::FeaturesRequest.encode(1);
        assert!(OfMessage::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_oversized_buffer() {
        let mut bytes = OfMessage::FeaturesRequest.encode(1);
        bytes.push(0);
        assert!(OfMessage::decode(&bytes).is_err());
    }

    #[test]
    fn frame_len_handles_partial_and_complete() {
        let a = OfMessage::EchoRequest(vec![7; 10]).encode(1);
        let b = OfMessage::BarrierRequest.encode(2);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);

        assert_eq!(OfMessage::frame_len(&stream[..4]).unwrap(), None);
        assert_eq!(OfMessage::frame_len(&stream[..a.len() - 1]).unwrap(), None);
        let n = OfMessage::frame_len(&stream).unwrap().unwrap();
        assert_eq!(n, a.len());
        let (m1, _) = OfMessage::decode(&stream[..n]).unwrap();
        assert_eq!(m1, OfMessage::EchoRequest(vec![7; 10]));
        let rest = &stream[n..];
        let n2 = OfMessage::frame_len(rest).unwrap().unwrap();
        assert_eq!(n2, b.len());
    }

    #[test]
    fn hello_with_extra_body_is_tolerated() {
        // Spec: implementations must be prepared to receive a hello with a
        // body and ignore it.
        let mut bytes = OfMessage::Hello.encode(9);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let len = bytes.len() as u16;
        bytes[2] = (len >> 8) as u8;
        bytes[3] = len as u8;
        let (msg, _) = OfMessage::decode(&bytes).unwrap();
        assert_eq!(msg, OfMessage::Hello);
    }

    #[test]
    fn of_type_matches_variant() {
        assert_eq!(OfMessage::Hello.of_type(), OfType::Hello);
        assert_eq!(
            OfMessage::FlowMod(FlowMod::add(Match::all(), vec![])).of_type(),
            OfType::FlowMod
        );
    }
}
