//! `OFPT_QUEUE_GET_CONFIG_REQUEST` / `REPLY`.

use crate::error::CodecError;
use crate::types::PortNo;
use crate::wire::{Reader, Writer};

/// A minimal `ofp_packet_queue` (queue id plus an optional min-rate
/// property, the only property OpenFlow 1.0 defines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueConfig {
    /// Queue identifier.
    pub queue_id: u32,
    /// Minimum guaranteed rate in 1/10 of a percent, if configured.
    pub min_rate: Option<u16>,
}

const OFPQT_MIN_RATE: u16 = 1;

impl QueueConfig {
    /// Decodes one `ofp_packet_queue`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or inconsistent property lengths.
    fn decode(r: &mut Reader<'_>) -> Result<QueueConfig, CodecError> {
        let queue_id = r.u32()?;
        let len = r.u16()? as usize;
        r.skip(2)?;
        if len < 8 {
            return Err(CodecError::BadLength {
                context: "ofp_packet_queue.len",
                found: len,
            });
        }
        let mut props = r.sub(len - 8, "queue properties")?;
        let mut min_rate = None;
        while props.remaining() > 0 {
            let prop = props.u16()?;
            let plen = props.u16()? as usize;
            if plen < 8 {
                return Err(CodecError::BadLength {
                    context: "ofp_queue_prop_header.len",
                    found: plen,
                });
            }
            props.skip(4)?;
            let mut body = props.sub(plen - 8, "queue property body")?;
            if prop == OFPQT_MIN_RATE {
                min_rate = Some(body.u16()?);
                body.skip(6)?;
            }
        }
        Ok(QueueConfig { queue_id, min_rate })
    }

    /// Encodes the queue into `w`.
    fn encode(&self, w: &mut Writer) {
        w.u32(self.queue_id);
        let len = if self.min_rate.is_some() { 8 + 16 } else { 8 };
        w.u16(len as u16);
        w.pad(2);
        if let Some(rate) = self.min_rate {
            w.u16(OFPQT_MIN_RATE);
            w.u16(16);
            w.pad(4);
            w.u16(rate);
            w.pad(6);
        }
    }
}

/// Decodes the body of a `QUEUE_GET_CONFIG_REQUEST`: the queried port.
pub(crate) fn decode_request(r: &mut Reader<'_>) -> Result<PortNo, CodecError> {
    let port = PortNo(r.u16()?);
    r.skip(2)?;
    Ok(port)
}

/// Encodes the body of a `QUEUE_GET_CONFIG_REQUEST`.
pub(crate) fn encode_request(port: PortNo, w: &mut Writer) {
    w.u16(port.0);
    w.pad(2);
}

/// Decodes the body of a `QUEUE_GET_CONFIG_REPLY`.
pub(crate) fn decode_reply(r: &mut Reader<'_>) -> Result<(PortNo, Vec<QueueConfig>), CodecError> {
    let port = PortNo(r.u16()?);
    r.skip(6)?;
    let mut queues = Vec::new();
    while r.remaining() > 0 {
        queues.push(QueueConfig::decode(r)?);
    }
    Ok((port, queues))
}

/// Encodes the body of a `QUEUE_GET_CONFIG_REPLY`.
pub(crate) fn encode_reply(port: PortNo, queues: &[QueueConfig], w: &mut Writer) {
    w.u16(port.0);
    w.pad(6);
    for q in queues {
        q.encode(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_roundtrip_with_min_rate() {
        let q = QueueConfig {
            queue_id: 3,
            min_rate: Some(500),
        };
        let mut w = Writer::new();
        q.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "queue");
        assert_eq!(QueueConfig::decode(&mut r).unwrap(), q);
        r.expect_end().unwrap();
    }

    #[test]
    fn queue_roundtrip_bare() {
        let q = QueueConfig {
            queue_id: 0,
            min_rate: None,
        };
        let mut w = Writer::new();
        q.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "queue");
        assert_eq!(QueueConfig::decode(&mut r).unwrap(), q);
    }

    #[test]
    fn reply_roundtrip() {
        let queues = vec![
            QueueConfig {
                queue_id: 1,
                min_rate: Some(100),
            },
            QueueConfig {
                queue_id: 2,
                min_rate: None,
            },
        ];
        let mut w = Writer::new();
        encode_reply(PortNo(9), &queues, &mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "queue reply");
        let (port, decoded) = decode_reply(&mut r).unwrap();
        assert_eq!(port, PortNo(9));
        assert_eq!(decoded, queues);
    }
}
