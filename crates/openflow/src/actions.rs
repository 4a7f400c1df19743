//! OpenFlow 1.0 actions (`ofp_action_*`).

use crate::error::CodecError;
use crate::types::{MacAddr, PortNo};
use crate::wire::{Reader, Writer};
use std::fmt;

const OFPAT_OUTPUT: u16 = 0;
const OFPAT_SET_VLAN_VID: u16 = 1;
const OFPAT_SET_VLAN_PCP: u16 = 2;
const OFPAT_STRIP_VLAN: u16 = 3;
const OFPAT_SET_DL_SRC: u16 = 4;
const OFPAT_SET_DL_DST: u16 = 5;
const OFPAT_SET_NW_SRC: u16 = 6;
const OFPAT_SET_NW_DST: u16 = 7;
const OFPAT_SET_NW_TOS: u16 = 8;
const OFPAT_SET_TP_SRC: u16 = 9;
const OFPAT_SET_TP_DST: u16 = 10;
const OFPAT_ENQUEUE: u16 = 11;
const OFPAT_VENDOR: u16 = 0xffff;

/// An OpenFlow 1.0 action.
///
/// Actions appear in `FLOW_MOD`, `PACKET_OUT`, and flow-stats bodies. The
/// simulated switch executes [`Action::Output`] and the header-rewrite
/// actions; everything else is carried faithfully for codec completeness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out a port; `max_len` bounds bytes sent when the port is
    /// [`PortNo::CONTROLLER`].
    Output {
        /// Egress port (physical or reserved).
        port: PortNo,
        /// Controller truncation length.
        max_len: u16,
    },
    /// Set the VLAN id.
    SetVlanVid(u16),
    /// Set the VLAN priority.
    SetVlanPcp(u8),
    /// Strip the 802.1Q header.
    StripVlan,
    /// Rewrite the Ethernet source.
    SetDlSrc(MacAddr),
    /// Rewrite the Ethernet destination.
    SetDlDst(MacAddr),
    /// Rewrite the IPv4 source.
    SetNwSrc(u32),
    /// Rewrite the IPv4 destination.
    SetNwDst(u32),
    /// Rewrite the IP ToS bits.
    SetNwTos(u8),
    /// Rewrite the transport source port.
    SetTpSrc(u16),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
    /// Forward out a port through a queue.
    Enqueue {
        /// Egress port.
        port: PortNo,
        /// Queue on that port.
        queue_id: u32,
    },
    /// Vendor extension payload (opaque).
    Vendor {
        /// Vendor id.
        vendor: u32,
        /// Opaque body (already padded by the sender).
        body: Vec<u8>,
    },
}

impl Action {
    /// Wire length of this action in bytes (always a multiple of 8).
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            Action::Output { .. }
            | Action::SetVlanVid(_)
            | Action::SetVlanPcp(_)
            | Action::StripVlan
            | Action::SetNwSrc(_)
            | Action::SetNwDst(_)
            | Action::SetNwTos(_)
            | Action::SetTpSrc(_)
            | Action::SetTpDst(_) => 8,
            Action::SetDlSrc(_) | Action::SetDlDst(_) | Action::Enqueue { .. } => 16,
            Action::Vendor { body, .. } => 8 + body.len(),
        }
    }

    /// Encodes the action (header + body) into `w`.
    fn encode(&self, w: &mut Writer) {
        match self {
            Action::Output { port, max_len } => {
                w.u16(OFPAT_OUTPUT);
                w.u16(8);
                w.u16(port.0);
                w.u16(*max_len);
            }
            Action::SetVlanVid(vid) => {
                w.u16(OFPAT_SET_VLAN_VID);
                w.u16(8);
                w.u16(*vid);
                w.pad(2);
            }
            Action::SetVlanPcp(pcp) => {
                w.u16(OFPAT_SET_VLAN_PCP);
                w.u16(8);
                w.u8(*pcp);
                w.pad(3);
            }
            Action::StripVlan => {
                w.u16(OFPAT_STRIP_VLAN);
                w.u16(8);
                w.pad(4);
            }
            Action::SetDlSrc(mac) => {
                w.u16(OFPAT_SET_DL_SRC);
                w.u16(16);
                w.bytes(&mac.0);
                w.pad(6);
            }
            Action::SetDlDst(mac) => {
                w.u16(OFPAT_SET_DL_DST);
                w.u16(16);
                w.bytes(&mac.0);
                w.pad(6);
            }
            Action::SetNwSrc(ip) => {
                w.u16(OFPAT_SET_NW_SRC);
                w.u16(8);
                w.u32(*ip);
            }
            Action::SetNwDst(ip) => {
                w.u16(OFPAT_SET_NW_DST);
                w.u16(8);
                w.u32(*ip);
            }
            Action::SetNwTos(tos) => {
                w.u16(OFPAT_SET_NW_TOS);
                w.u16(8);
                w.u8(*tos);
                w.pad(3);
            }
            Action::SetTpSrc(p) => {
                w.u16(OFPAT_SET_TP_SRC);
                w.u16(8);
                w.u16(*p);
                w.pad(2);
            }
            Action::SetTpDst(p) => {
                w.u16(OFPAT_SET_TP_DST);
                w.u16(8);
                w.u16(*p);
                w.pad(2);
            }
            Action::Enqueue { port, queue_id } => {
                w.u16(OFPAT_ENQUEUE);
                w.u16(16);
                w.u16(port.0);
                w.pad(6);
                w.u32(*queue_id);
            }
            Action::Vendor { vendor, body } => {
                w.u16(OFPAT_VENDOR);
                w.u16((8 + body.len()) as u16);
                w.u32(*vendor);
                w.bytes(body);
            }
        }
    }

    /// Decodes a single action from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation, a length inconsistent with the action type, or
    /// an unknown action type.
    fn decode(r: &mut Reader<'_>) -> Result<Action, CodecError> {
        let ty = r.u16()?;
        let len = r.u16()? as usize;
        if len < 8 || !len.is_multiple_of(8) {
            return Err(CodecError::BadLength {
                context: "ofp_action_header.len",
                found: len,
            });
        }
        let mut body = r.sub(len - 4, "ofp_action body")?;
        let action = match ty {
            OFPAT_OUTPUT => Action::Output {
                port: PortNo(body.u16()?),
                max_len: body.u16()?,
            },
            OFPAT_SET_VLAN_VID => {
                let vid = body.u16()?;
                body.skip(2)?;
                Action::SetVlanVid(vid)
            }
            OFPAT_SET_VLAN_PCP => {
                let pcp = body.u8()?;
                body.skip(3)?;
                Action::SetVlanPcp(pcp)
            }
            OFPAT_STRIP_VLAN => {
                body.skip(4)?;
                Action::StripVlan
            }
            OFPAT_SET_DL_SRC => {
                let mac = MacAddr(body.array::<6>()?);
                body.skip(6)?;
                Action::SetDlSrc(mac)
            }
            OFPAT_SET_DL_DST => {
                let mac = MacAddr(body.array::<6>()?);
                body.skip(6)?;
                Action::SetDlDst(mac)
            }
            OFPAT_SET_NW_SRC => Action::SetNwSrc(body.u32()?),
            OFPAT_SET_NW_DST => Action::SetNwDst(body.u32()?),
            OFPAT_SET_NW_TOS => {
                let tos = body.u8()?;
                body.skip(3)?;
                Action::SetNwTos(tos)
            }
            OFPAT_SET_TP_SRC => {
                let p = body.u16()?;
                body.skip(2)?;
                Action::SetTpSrc(p)
            }
            OFPAT_SET_TP_DST => {
                let p = body.u16()?;
                body.skip(2)?;
                Action::SetTpDst(p)
            }
            OFPAT_ENQUEUE => {
                let port = PortNo(body.u16()?);
                body.skip(6)?;
                Action::Enqueue {
                    port,
                    queue_id: body.u32()?,
                }
            }
            OFPAT_VENDOR => Action::Vendor {
                vendor: body.u32()?,
                body: body.rest().to_vec(),
            },
            other => {
                return Err(CodecError::BadValue {
                    field: "ofp_action_header.type",
                    value: other as u64,
                })
            }
        };
        body.expect_end()?;
        Ok(action)
    }

    /// Decodes exactly `total_len` bytes of actions.
    ///
    /// # Errors
    ///
    /// Fails if the actions do not tile `total_len` exactly or any action
    /// is malformed.
    pub(crate) fn decode_list(
        r: &mut Reader<'_>,
        total_len: usize,
    ) -> Result<Vec<Action>, CodecError> {
        let mut sub = r.sub(total_len, "action list")?;
        let mut out = Vec::new();
        while sub.remaining() > 0 {
            out.push(Action::decode(&mut sub)?);
        }
        Ok(out)
    }

    /// Encodes a slice of actions, returning the bytes written.
    pub(crate) fn encode_list(actions: &[Action], w: &mut Writer) -> usize {
        let before = w.len();
        for a in actions {
            a.encode(w);
        }
        w.len() - before
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output { port, .. } => write!(f, "output:{port}"),
            Action::SetVlanVid(v) => write!(f, "set_vlan_vid:{v}"),
            Action::SetVlanPcp(v) => write!(f, "set_vlan_pcp:{v}"),
            Action::StripVlan => write!(f, "strip_vlan"),
            Action::SetDlSrc(m) => write!(f, "set_dl_src:{m}"),
            Action::SetDlDst(m) => write!(f, "set_dl_dst:{m}"),
            Action::SetNwSrc(ip) => write!(f, "set_nw_src:{}", std::net::Ipv4Addr::from(*ip)),
            Action::SetNwDst(ip) => write!(f, "set_nw_dst:{}", std::net::Ipv4Addr::from(*ip)),
            Action::SetNwTos(t) => write!(f, "set_nw_tos:{t}"),
            Action::SetTpSrc(p) => write!(f, "set_tp_src:{p}"),
            Action::SetTpDst(p) => write!(f, "set_tp_dst:{p}"),
            Action::Enqueue { port, queue_id } => write!(f, "enqueue:{port}:q{queue_id}"),
            Action::Vendor { vendor, .. } => write!(f, "vendor:0x{vendor:08x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(a: Action) {
        let mut w = Writer::new();
        a.encode(&mut w);
        let v = w.into_vec();
        assert_eq!(v.len(), a.wire_len(), "wire_len mismatch for {a:?}");
        let mut r = Reader::new(&v, "action");
        assert_eq!(Action::decode(&mut r).unwrap(), a);
        r.expect_end().unwrap();
    }

    #[test]
    fn all_actions_roundtrip() {
        roundtrip(Action::Output {
            port: PortNo(3),
            max_len: 128,
        });
        roundtrip(Action::SetVlanVid(100));
        roundtrip(Action::SetVlanPcp(5));
        roundtrip(Action::StripVlan);
        roundtrip(Action::SetDlSrc(MacAddr::from_low(0xaa)));
        roundtrip(Action::SetDlDst(MacAddr::from_low(0xbb)));
        roundtrip(Action::SetNwSrc(0x0a00_0105));
        roundtrip(Action::SetNwDst(0x0a00_0206));
        roundtrip(Action::SetNwTos(0x20));
        roundtrip(Action::SetTpSrc(8080));
        roundtrip(Action::SetTpDst(443));
        roundtrip(Action::Enqueue {
            port: PortNo(2),
            queue_id: 7,
        });
        // Vendor bodies must keep the action 8-byte aligned.
        roundtrip(Action::Vendor {
            vendor: 0x2320,
            body: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
    }

    #[test]
    fn action_list_roundtrip() {
        let actions = vec![
            Action::SetDlDst(MacAddr::from_low(0x42)),
            Action::Output {
                port: PortNo::FLOOD,
                max_len: 0,
            },
        ];
        let mut w = Writer::new();
        let n = Action::encode_list(&actions, &mut w);
        assert_eq!(n, 24);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "actions");
        assert_eq!(Action::decode_list(&mut r, n).unwrap(), actions);
    }

    #[test]
    fn rejects_unknown_action_type() {
        let mut w = Writer::new();
        w.u16(42);
        w.u16(8);
        w.pad(4);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "action");
        assert!(matches!(
            Action::decode(&mut r).unwrap_err(),
            CodecError::BadValue {
                field: "ofp_action_header.type",
                value: 42
            }
        ));
    }

    #[test]
    fn rejects_unaligned_length() {
        let mut w = Writer::new();
        w.u16(OFPAT_OUTPUT);
        w.u16(7);
        w.pad(3);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "action");
        assert!(matches!(
            Action::decode(&mut r).unwrap_err(),
            CodecError::BadLength { found: 7, .. }
        ));
    }

    #[test]
    fn display_is_readable() {
        let a = Action::Output {
            port: PortNo::CONTROLLER,
            max_len: 65535,
        };
        assert_eq!(a.to_string(), "output:CONTROLLER");
    }
}
