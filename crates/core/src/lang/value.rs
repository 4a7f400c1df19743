//! Runtime values of the attack language.

use crate::model::NodeRef;
use attain_openflow::{Frame, MacAddr, OfType};
use std::fmt;
use std::net::Ipv4Addr;

/// A stored control-plane message (the unit of replay/reorder attacks).
///
/// Captures share the original [`Frame`]: storing and later replaying a
/// message never copies its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredMessage {
    /// Connection index the message was captured on.
    pub conn: usize,
    /// `true` if it was travelling switch→controller.
    pub to_controller: bool,
    /// The encoded message.
    pub frame: Frame,
}

/// A value in the attack language: conditional results, deque elements,
/// and action operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer (counters, lengths, field values).
    Int(i64),
    /// A float (timestamps in seconds, delays).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A system component (message source/destination).
    Addr(NodeRef),
    /// An OpenFlow message type.
    MsgType(OfType),
    /// An IPv4 address.
    Ip(Ipv4Addr),
    /// A MAC address.
    Mac(MacAddr),
    /// A captured message (for replay attacks).
    Message(StoredMessage),
    /// The absence of a value (empty deque reads, unreadable fields).
    None,
}

impl Value {
    /// Truthiness: `Bool` as itself, `None` false, everything else true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::None => false,
            _ => true,
        }
    }

    /// The value as an integer, if numeric.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Language equality (`=`): numeric values compare across Int/Float;
    /// everything else compares within its own kind.
    pub(crate) fn lang_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
                self.as_float() == other.as_float()
            }
            (a, b) => a == b,
        }
    }

    /// A short name for the value's kind, for error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Addr(_) => "address",
            Value::MsgType(_) => "message type",
            Value::Ip(_) => "ip",
            Value::Mac(_) => "mac",
            Value::Message(_) => "message",
            Value::None => "none",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Addr(a) => write!(f, "{a:?}"),
            Value::MsgType(t) => write!(f, "{t}"),
            Value::Ip(ip) => write!(f, "{ip}"),
            Value::Mac(m) => write!(f, "{m}"),
            Value::Message(m) => write!(f, "message({} bytes)", m.frame.len()),
            Value::None => write!(f, "none"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Ipv4Addr> for Value {
    fn from(v: Ipv4Addr) -> Self {
        Value::Ip(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::None.truthy());
        assert!(Value::Int(0).truthy()); // ints are not booleans here
        assert!(Value::Str("".into()).truthy());
    }

    #[test]
    fn cross_numeric_equality() {
        assert!(Value::Int(3).lang_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).lang_eq(&Value::Float(3.5)));
        assert!(!Value::Int(3).lang_eq(&Value::Str("3".into())));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::Float(2.9).as_int(), Some(2));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Int(0),
            Value::None,
            Value::Str(String::new()),
            Value::MsgType(OfType::FlowMod),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
