//! Payload field modification (`MODIFYMESSAGE`): set a field on a copy
//! of the frame's decoded message and re-encode it, preserving the
//! transaction id.

use crate::lang::Value;
use attain_openflow::{Frame, Match, OfMessage, PortNo, Wildcards};

/// Error applying a payload modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModifyError {
    /// The message bytes do not decode.
    Unparseable,
    /// The path does not exist (or is not writable) on this type.
    NoSuchField(String),
    /// The value's type does not fit the field.
    BadValue {
        /// The field.
        field: String,
        /// The offered value's kind.
        found: &'static str,
    },
}

impl std::fmt::Display for ModifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModifyError::Unparseable => write!(f, "message does not parse"),
            ModifyError::NoSuchField(p) => write!(f, "no writable field {p}"),
            ModifyError::BadValue { field, found } => {
                write!(f, "cannot write a {found} into {field}")
            }
        }
    }
}

impl std::error::Error for ModifyError {}

/// The error for a value `v` that does not fit `field`.
fn bad_value(field: &str, v: &Value) -> ModifyError {
    ModifyError::BadValue {
        field: field.to_string(),
        found: v.kind(),
    }
}

fn as_u16(field: &str, v: &Value) -> Result<u16, ModifyError> {
    v.as_int()
        .and_then(|i| u16::try_from(i).ok())
        .ok_or_else(|| bad_value(field, v))
}

/// `v` as a buffer id, where `none` means no buffer.
fn as_buffer_id(field: &str, v: &Value) -> Result<Option<u32>, ModifyError> {
    match v {
        Value::None => Ok(None),
        v => v
            .as_int()
            .map(|i| Some(i as u32))
            .ok_or_else(|| bad_value(field, v)),
    }
}

fn set_match_field(m: &mut Match, field: &str, value: &Value) -> Result<(), ModifyError> {
    match field {
        "nw_src" => match value {
            Value::Ip(ip) => {
                m.nw_src = u32::from(*ip);
                m.wildcards = m.wildcards.with_nw_src_ignored_bits(0);
                Ok(())
            }
            Value::None => {
                m.wildcards = m.wildcards.with_nw_src_ignored_bits(32);
                Ok(())
            }
            other => Err(bad_value("match.nw_src", other)),
        },
        "nw_dst" => match value {
            Value::Ip(ip) => {
                m.nw_dst = u32::from(*ip);
                m.wildcards = m.wildcards.with_nw_dst_ignored_bits(0);
                Ok(())
            }
            Value::None => {
                m.wildcards = m.wildcards.with_nw_dst_ignored_bits(32);
                Ok(())
            }
            other => Err(bad_value("match.nw_dst", other)),
        },
        "in_port" => {
            m.in_port = PortNo(as_u16("match.in_port", value)?);
            m.wildcards = Wildcards(m.wildcards.0 & !Wildcards::IN_PORT);
            Ok(())
        }
        "dl_type" => {
            m.dl_type = as_u16("match.dl_type", value)?;
            m.wildcards = Wildcards(m.wildcards.0 & !Wildcards::DL_TYPE);
            Ok(())
        }
        other => Err(ModifyError::NoSuchField(format!("match.{other}"))),
    }
}

/// Rewrites `field` on a copy of `frame`'s message, returning a new
/// frame with the original xid. The copy starts from the frame's
/// memoized decode and the result carries its own, so a frame that has
/// been parsed (or was built from a message) is not parsed again, here
/// or at its next hop.
///
/// Writable fields:
///
/// * `FLOW_MOD`: `idle_timeout`, `hard_timeout`, `priority`, `cookie`,
///   `buffer_id`, `out_port`, `match.nw_src`, `match.nw_dst`,
///   `match.in_port`, `match.dl_type`, `actions.clear` (any value —
///   empties the action list, turning the flow into a drop);
/// * `PACKET_IN` / `PACKET_OUT`: `in_port`, `buffer_id`;
/// * `ERROR`: `code`.
///
/// # Errors
///
/// Returns [`ModifyError`] when the frame does not parse, the field is
/// unknown, or the value does not fit.
pub fn set_field(frame: &Frame, field: &str, value: &Value) -> Result<Frame, ModifyError> {
    let (mut msg, xid) = frame.decoded().ok_or(ModifyError::Unparseable)?.clone();
    let (head, rest) = match field.split_once('.') {
        Some((h, r)) => (h, Some(r)),
        None => (field, None),
    };
    match &mut msg {
        OfMessage::FlowMod(fm) => match (head, rest) {
            ("match", Some(sub)) => set_match_field(&mut fm.r#match, sub, value)?,
            ("idle_timeout", None) => fm.idle_timeout = as_u16(field, value)?,
            ("hard_timeout", None) => fm.hard_timeout = as_u16(field, value)?,
            ("priority", None) => fm.priority = as_u16(field, value)?,
            ("cookie", None) => {
                fm.cookie = value.as_int().ok_or_else(|| bad_value(field, value))? as u64
            }
            ("out_port", None) => fm.out_port = PortNo(as_u16(field, value)?),
            ("buffer_id", None) => fm.buffer_id = as_buffer_id(field, value)?,
            ("actions", Some("clear")) => fm.actions.clear(),
            _ => return Err(ModifyError::NoSuchField(field.to_string())),
        },
        OfMessage::PacketIn(pi) => match (head, rest) {
            ("in_port", None) => pi.in_port = PortNo(as_u16(field, value)?),
            ("buffer_id", None) => pi.buffer_id = as_buffer_id(field, value)?,
            _ => return Err(ModifyError::NoSuchField(field.to_string())),
        },
        OfMessage::PacketOut(po) => match (head, rest) {
            ("in_port", None) => po.in_port = PortNo(as_u16(field, value)?),
            ("buffer_id", None) => po.buffer_id = as_buffer_id(field, value)?,
            ("actions", Some("clear")) => po.actions.clear(),
            _ => return Err(ModifyError::NoSuchField(field.to_string())),
        },
        OfMessage::Error(e) => match (head, rest) {
            ("code", None) => e.code = as_u16(field, value)?,
            _ => return Err(ModifyError::NoSuchField(field.to_string())),
        },
        _ => return Err(ModifyError::NoSuchField(field.to_string())),
    }
    Ok(Frame::from_message(msg, xid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_openflow::{Action, FlowMod};

    fn flow_mod_frame() -> Frame {
        Frame::new(
            OfMessage::FlowMod(FlowMod {
                idle_timeout: 5,
                ..FlowMod::add(
                    Match::all(),
                    vec![Action::Output {
                        port: PortNo(2),
                        max_len: 0,
                    }],
                )
            })
            .encode(0x77),
        )
    }

    #[test]
    fn rewrite_idle_timeout_preserves_xid() {
        let frame = flow_mod_frame();
        let out = set_field(&frame, "idle_timeout", &Value::Int(0)).unwrap();
        let (msg, xid) = OfMessage::decode(out.bytes()).unwrap();
        assert_eq!(xid, 0x77);
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert_eq!(fm.idle_timeout, 0);
    }

    #[test]
    fn rewrite_match_nw_dst_clears_wildcard() {
        let frame = flow_mod_frame();
        let out = set_field(
            &frame,
            "match.nw_dst",
            &Value::Ip("10.0.0.9".parse().unwrap()),
        )
        .unwrap();
        let (msg, _) = OfMessage::decode(out.bytes()).unwrap();
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert_eq!(fm.r#match.nw_dst_addr(), Some("10.0.0.9".parse().unwrap()));
    }

    #[test]
    fn clearing_actions_turns_flow_into_drop() {
        let frame = flow_mod_frame();
        let out = set_field(&frame, "actions.clear", &Value::Bool(true)).unwrap();
        let (msg, _) = OfMessage::decode(out.bytes()).unwrap();
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert!(fm.actions.is_empty());
    }

    #[test]
    fn buffer_id_none_detaches_buffer() {
        let mut fm = FlowMod::add(Match::all(), vec![]);
        fm.buffer_id = Some(42);
        let frame = Frame::new(OfMessage::FlowMod(fm).encode(1));
        let out = set_field(&frame, "buffer_id", &Value::None).unwrap();
        let (msg, _) = OfMessage::decode(out.bytes()).unwrap();
        let OfMessage::FlowMod(fm) = msg else {
            panic!()
        };
        assert_eq!(fm.buffer_id, None);
    }

    #[test]
    fn errors_are_typed() {
        let frame = flow_mod_frame();
        assert_eq!(
            set_field(&frame, "no_such", &Value::Int(1)).unwrap_err(),
            ModifyError::NoSuchField("no_such".into())
        );
        assert!(matches!(
            set_field(&frame, "priority", &Value::Str("hi".into())).unwrap_err(),
            ModifyError::BadValue { .. }
        ));
        assert_eq!(
            set_field(&Frame::new(vec![1, 2, 3]), "priority", &Value::Int(1)).unwrap_err(),
            ModifyError::Unparseable
        );
    }
}
