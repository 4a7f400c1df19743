//! `OFPT_FLOW_MOD`.

use crate::actions::Action;
use crate::error::CodecError;
use crate::r#match::Match;
use crate::types::{buffer_id_from_wire, buffer_id_to_wire, BufferId, PortNo};
use crate::wire::{Reader, Writer};
use std::fmt;

/// `ofp_flow_mod_command`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum FlowModCommand {
    /// Add a new flow entry.
    Add = 0,
    /// Modify the actions of all matching (subsumed) entries.
    Modify = 1,
    /// Modify the actions of the entry strictly equal in match and
    /// priority.
    ModifyStrict = 2,
    /// Delete all matching (subsumed) entries.
    Delete = 3,
    /// Delete the strictly equal entry.
    DeleteStrict = 4,
}

impl FlowModCommand {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for values above 4.
    pub fn from_wire(v: u16) -> Result<FlowModCommand, CodecError> {
        Ok(match v {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            other => {
                return Err(CodecError::BadValue {
                    field: "ofp_flow_mod.command",
                    value: other as u64,
                })
            }
        })
    }

    /// Whether this is one of the delete commands.
    pub fn is_delete(&self) -> bool {
        matches!(self, FlowModCommand::Delete | FlowModCommand::DeleteStrict)
    }
}

impl fmt::Display for FlowModCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowModCommand::Add => "ADD",
            FlowModCommand::Modify => "MODIFY",
            FlowModCommand::ModifyStrict => "MODIFY_STRICT",
            FlowModCommand::Delete => "DELETE",
            FlowModCommand::DeleteStrict => "DELETE_STRICT",
        };
        f.write_str(s)
    }
}

/// `ofp_flow_mod_flags` bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowModFlags(pub u16);

impl FlowModFlags {
    /// Send a `FLOW_REMOVED` when the entry expires or is deleted.
    pub const SEND_FLOW_REM: u16 = 1 << 0;
    /// Refuse to add if the new entry overlaps an existing one of equal
    /// priority.
    pub const CHECK_OVERLAP: u16 = 1 << 1;
    /// Treat this as an emergency flow entry.
    pub const EMERG: u16 = 1 << 2;

    /// Whether `flag` is set.
    pub fn has(&self, flag: u16) -> bool {
        self.0 & flag != 0
    }
}

/// An `OFPT_FLOW_MOD` body: the controller's flow-table modification
/// request. This is the message the paper's flow-modification-suppression
/// attack (Figure 10) drops on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowMod {
    /// Fields to match.
    pub r#match: Match,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// What to do (add/modify/delete).
    pub command: FlowModCommand,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// Entry priority (higher wins; only meaningful with wildcards).
    pub priority: u16,
    /// Buffered packet to apply the new entry's actions to, if any.
    pub buffer_id: BufferId,
    /// For delete commands, restrict to entries with this output port
    /// ([`PortNo::NONE`] = no restriction).
    pub out_port: PortNo,
    /// Behaviour flags.
    pub flags: FlowModFlags,
    /// New action list (empty = drop).
    pub actions: Vec<Action>,
}

impl FlowMod {
    /// Convenience constructor for an `ADD` with sensible defaults
    /// (priority 32768 like `ovs-ofctl`, no timeouts, no buffer).
    pub fn add(r#match: Match, actions: Vec<Action>) -> FlowMod {
        FlowMod {
            r#match,
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0x8000,
            buffer_id: None,
            out_port: PortNo::NONE,
            flags: FlowModFlags::default(),
            actions,
        }
    }

    /// Decodes the body from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation, an undefined command, or malformed actions.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<FlowMod, CodecError> {
        let m = Match::decode(r)?;
        let cookie = r.u64()?;
        let command = FlowModCommand::from_wire(r.u16()?)?;
        let idle_timeout = r.u16()?;
        let hard_timeout = r.u16()?;
        let priority = r.u16()?;
        let buffer_id = buffer_id_from_wire(r.u32()?);
        let out_port = PortNo(r.u16()?);
        let flags = FlowModFlags(r.u16()?);
        let actions_len = r.remaining();
        let actions = Action::decode_list(r, actions_len)?;
        Ok(FlowMod {
            r#match: m,
            cookie,
            command,
            idle_timeout,
            hard_timeout,
            priority,
            buffer_id,
            out_port,
            flags,
            actions,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        self.r#match.encode(w);
        w.u64(self.cookie);
        w.u16(self.command as u16);
        w.u16(self.idle_timeout);
        w.u16(self.hard_timeout);
        w.u16(self.priority);
        w.u32(buffer_id_to_wire(self.buffer_id));
        w.u16(self.out_port.0);
        w.u16(self.flags.0);
        Action::encode_list(&self.actions, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MacAddr;

    #[test]
    fn roundtrip_add() {
        let fm = FlowMod {
            r#match: Match::exact_in_port(PortNo(1)),
            cookie: 7,
            command: FlowModCommand::Add,
            idle_timeout: 5,
            hard_timeout: 30,
            priority: 100,
            buffer_id: Some(3),
            out_port: PortNo::NONE,
            flags: FlowModFlags(FlowModFlags::SEND_FLOW_REM),
            actions: vec![
                Action::SetDlDst(MacAddr::from_low(9)),
                Action::Output {
                    port: PortNo(2),
                    max_len: 0,
                },
            ],
        };
        let mut w = Writer::new();
        fm.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "flow_mod");
        assert_eq!(FlowMod::decode(&mut r).unwrap(), fm);
        r.expect_end().unwrap();
    }

    #[test]
    fn roundtrip_delete_with_out_port() {
        let fm = FlowMod {
            command: FlowModCommand::Delete,
            out_port: PortNo(4),
            actions: vec![],
            ..FlowMod::add(Match::all(), vec![])
        };
        let mut w = Writer::new();
        fm.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "flow_mod");
        let d = FlowMod::decode(&mut r).unwrap();
        assert!(d.command.is_delete());
        assert_eq!(d.out_port, PortNo(4));
    }

    #[test]
    fn rejects_unknown_command() {
        let fm = FlowMod::add(Match::all(), vec![]);
        let mut w = Writer::new();
        fm.encode(&mut w);
        let mut v = w.into_vec();
        v[49] = 99; // command low byte (40-byte match + 8-byte cookie + 1)
        let mut r = Reader::new(&v, "flow_mod");
        assert!(FlowMod::decode(&mut r).is_err());
    }

    #[test]
    fn flags_bit_test() {
        let f = FlowModFlags(FlowModFlags::CHECK_OVERLAP);
        assert!(f.has(FlowModFlags::CHECK_OVERLAP));
        assert!(!f.has(FlowModFlags::SEND_FLOW_REM));
    }
}
