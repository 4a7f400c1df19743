//! Attack actions `α` (paper §V-D): actuations of attacker capabilities,
//! deque operations, and the control actions (`GOTOSTATE`, `SLEEP`,
//! `SYSCMD`).

use crate::lang::conditional::{DequeEnd, Expr};
use crate::model::ConnectionId;
use crate::model::{Capability, CapabilitySet};
use std::fmt;

/// One attack action.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackAction {
    /// `DROPMESSAGE`: remove the message from the outgoing list.
    Drop,
    /// `PASSMESSAGE`: let the message through (re-adding it if a prior
    /// action dropped it).
    Pass,
    /// `DELAYMESSAGE`: delay delivery by the given number of seconds.
    Delay(Expr),
    /// `DUPLICATEMESSAGE`: append a replica to the outgoing list.
    Duplicate,
    /// `READMESSAGEMETADATA`: record the metadata in the injection log.
    ReadMetadata,
    /// `MODIFYMESSAGEMETADATA`: rewrite metadata. The supported field is
    /// `destination`: redirecting the message onto the named component's
    /// connection (the closest meaningful L3/L4 rewrite in a model where
    /// addressing *is* the `N_C` relation).
    ModifyMetadata {
        /// Metadata field (`destination`).
        field: String,
        /// New value.
        value: Expr,
    },
    /// `FUZZMESSAGE`: flip random bits in the outgoing copies.
    Fuzz {
        /// How many bit flips.
        flips: u32,
    },
    /// `READMESSAGE`: record the decoded payload in the injection log.
    Read,
    /// `MODIFYMESSAGE`: rewrite a payload field (same dotted paths as the
    /// `msg[...]` type options), re-encoding the message.
    Modify {
        /// Field path, e.g. `idle_timeout` or `match.nw_dst`.
        field: String,
        /// New value.
        value: Expr,
    },
    /// `INJECTNEWMESSAGE`: put a new message on a connection.
    Inject {
        /// Target connection.
        conn: ConnectionId,
        /// `true` to deliver switch→controller.
        to_controller: bool,
        /// Pre-encoded message, shared across every firing of the rule
        /// (each injection is a refcount bump on the compiled frame).
        frame: attain_openflow::Frame,
    },
    /// `PREPEND(δ, value)`.
    Prepend {
        /// Deque name.
        deque: String,
        /// Value expression (may read properties or other deques).
        value: Expr,
    },
    /// `APPEND(δ, value)`.
    Append {
        /// Deque name.
        deque: String,
        /// Value expression.
        value: Expr,
    },
    /// `SHIFT(δ)`: discard the front element.
    Shift(String),
    /// `POP(δ)`: discard the end element.
    Pop(String),
    /// Store the *current message* into δ (at the end) for later replay —
    /// the `PREPEND(δ, m)` of §VIII-A with `m` the in-flight message.
    StoreMessage {
        /// Deque name.
        deque: String,
        /// `true` to prepend instead of append.
        front: bool,
    },
    /// Emit a stored message from δ onto its original connection — the
    /// `SHIFT(δ)`/`POP(δ)` + `PASSMESSAGE` composition of §VIII-A.
    EmitStored {
        /// Deque name.
        deque: String,
        /// Which end to take from.
        end: DequeEnd,
    },
    /// `GOTOSTATE(σ)`: transition the attack (by state index).
    GoToState(usize),
    /// `SLEEP(t)`: hold attack execution for `t` seconds (messages
    /// arriving meanwhile queue up and are processed on wake).
    Sleep(Expr),
    /// `SYSCMD(host, cmd)`: run a command on a host (dispatched to the
    /// harness's workload layer).
    SysCmd {
        /// Host name.
        host: String,
        /// Command line.
        cmd: String,
    },
    /// `FAULT(spec)`: inject an environment fault (link down/flap,
    /// loss/corruption, process crash/restart) — testbed conditions, not
    /// a message-level capability, so it needs no capabilities.
    Fault {
        /// The fault spec text (the simulator parses the grammar).
        spec: String,
    },
}

impl AttackAction {
    /// The capability this action actuates and the expression it reads,
    /// each if any (§V-D: each capability action requires exactly its
    /// capability; deque/control actions are free, except that storing/
    /// emitting whole messages respectively need to read and re-send them).
    fn parts(&self) -> (Option<Capability>, Option<&Expr>) {
        use Capability as C;
        match self {
            Self::Drop => (Some(C::DropMessage), None),
            Self::Pass => (Some(C::PassMessage), None),
            Self::Delay(e) => (Some(C::DelayMessage), Some(e)),
            Self::Duplicate => (Some(C::DuplicateMessage), None),
            Self::ReadMetadata => (Some(C::ReadMessageMetadata), None),
            Self::ModifyMetadata { value, .. } => (Some(C::ModifyMessageMetadata), Some(value)),
            Self::Fuzz { .. } => (Some(C::FuzzMessage), None),
            Self::Read => (Some(C::ReadMessage), None),
            Self::Modify { value, .. } => (Some(C::ModifyMessage), Some(value)),
            Self::Inject { .. } => (Some(C::InjectNewMessage), None),
            Self::Prepend { value, .. } | Self::Append { value, .. } => (None, Some(value)),
            // Storing a whole message is a metadata-level capture of the
            // (possibly opaque) bytes; emitting it re-sends a copy.
            Self::StoreMessage { .. } => (Some(C::ReadMessageMetadata), None),
            Self::EmitStored { .. } => (Some(C::PassMessage), None),
            Self::Sleep(e) => (None, Some(e)),
            Self::Shift(_) | Self::Pop(_) | Self::GoToState(_) => (None, None),
            Self::SysCmd { .. } | Self::Fault { .. } => (None, None),
        }
    }

    /// The capabilities this action actuates or its expression reads.
    pub(crate) fn required_capabilities(&self) -> CapabilitySet {
        let (actuated, expr) = self.parts();
        let mut caps = expr.map_or_else(CapabilitySet::new, Expr::required_capabilities);
        caps.extend(actuated);
        caps
    }

    /// The expression this action evaluates when it fires, if any.
    pub(crate) fn expr(&self) -> Option<&Expr> {
        self.parts().1
    }

    /// Whether this is a `GOTOSTATE` (drives attack-state-graph edges).
    pub(crate) fn goto_target(&self) -> Option<usize> {
        match self {
            AttackAction::GoToState(t) => Some(*t),
            _ => None,
        }
    }
}

impl fmt::Display for AttackAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackAction::Drop => write!(f, "DROPMESSAGE(msg)"),
            AttackAction::Pass => write!(f, "PASSMESSAGE(msg)"),
            AttackAction::Delay(_) => write!(f, "DELAYMESSAGE(msg, t)"),
            AttackAction::Duplicate => write!(f, "DUPLICATEMESSAGE(msg)"),
            AttackAction::ReadMetadata => write!(f, "READMESSAGEMETADATA(msg)"),
            AttackAction::ModifyMetadata { field, .. } => {
                write!(f, "MODIFYMESSAGEMETADATA(msg, {field})")
            }
            AttackAction::Fuzz { flips } => write!(f, "FUZZMESSAGE(msg, {flips})"),
            AttackAction::Read => write!(f, "READMESSAGE(msg)"),
            AttackAction::Modify { field, .. } => write!(f, "MODIFYMESSAGE(msg, {field})"),
            AttackAction::Inject { conn, .. } => write!(f, "INJECTNEWMESSAGE({conn})"),
            AttackAction::Prepend { deque, .. } => write!(f, "PREPEND({deque}, …)"),
            AttackAction::Append { deque, .. } => write!(f, "APPEND({deque}, …)"),
            AttackAction::Shift(d) => write!(f, "SHIFT({d})"),
            AttackAction::Pop(d) => write!(f, "POP({d})"),
            AttackAction::StoreMessage { deque, front } => {
                if *front {
                    write!(f, "PREPEND({deque}, msg)")
                } else {
                    write!(f, "APPEND({deque}, msg)")
                }
            }
            AttackAction::EmitStored { deque, end } => match end {
                DequeEnd::Front => write!(f, "PASSMESSAGE(SHIFT({deque}))"),
                DequeEnd::End => write!(f, "PASSMESSAGE(POP({deque}))"),
            },
            AttackAction::GoToState(s) => write!(f, "GOTOSTATE(σ{s})"),
            AttackAction::Sleep(_) => write!(f, "SLEEP(t)"),
            AttackAction::SysCmd { host, cmd } => write!(f, "SYSCMD({host}, {cmd:?})"),
            AttackAction::Fault { spec } => write!(f, "FAULT({spec:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::property::Property;
    use crate::lang::value::Value;

    #[test]
    fn capability_mapping_matches_table_one() {
        assert!(AttackAction::Drop
            .required_capabilities()
            .contains(Capability::DropMessage));
        assert!(AttackAction::Pass
            .required_capabilities()
            .contains(Capability::PassMessage));
        assert!(AttackAction::Duplicate
            .required_capabilities()
            .contains(Capability::DuplicateMessage));
        assert!(AttackAction::Fuzz { flips: 8 }
            .required_capabilities()
            .contains(Capability::FuzzMessage));
        assert!(AttackAction::Read
            .required_capabilities()
            .contains(Capability::ReadMessage));
        assert!(AttackAction::Inject {
            conn: ConnectionId(0),
            to_controller: true,
            frame: attain_openflow::Frame::new(vec![]),
        }
        .required_capabilities()
        .contains(Capability::InjectNewMessage));
    }

    #[test]
    fn control_actions_need_no_capabilities() {
        assert!(AttackAction::GoToState(1)
            .required_capabilities()
            .is_empty());
        assert!(AttackAction::SysCmd {
            host: "h1".into(),
            cmd: "iperf -s".into(),
        }
        .required_capabilities()
        .is_empty());
        assert!(AttackAction::Shift("d".into())
            .required_capabilities()
            .is_empty());
    }

    #[test]
    fn expression_operands_contribute_their_reads() {
        let a = AttackAction::Append {
            deque: "d".into(),
            value: Expr::Prop(Property::Length),
        };
        assert!(a
            .required_capabilities()
            .contains(Capability::ReadMessageMetadata));
        let a = AttackAction::Modify {
            field: "idle_timeout".into(),
            value: Expr::Prop(Property::TypeOption("idle_timeout".into())),
        };
        let caps = a.required_capabilities();
        assert!(caps.contains(Capability::ModifyMessage));
        assert!(caps.contains(Capability::ReadMessage));
    }

    #[test]
    fn goto_target_extraction() {
        assert_eq!(AttackAction::GoToState(3).goto_target(), Some(3));
        assert_eq!(AttackAction::Drop.goto_target(), None);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(AttackAction::Drop.to_string(), "DROPMESSAGE(msg)");
        assert_eq!(
            AttackAction::Sleep(Expr::Lit(Value::Int(5))).to_string(),
            "SLEEP(t)"
        );
        assert_eq!(AttackAction::GoToState(2).to_string(), "GOTOSTATE(σ2)");
    }
}
