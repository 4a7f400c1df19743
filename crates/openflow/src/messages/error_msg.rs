//! `OFPT_ERROR` message.

use crate::error::CodecError;
use crate::wire::{Reader, Writer};
use std::fmt;

/// Top-level error categories (`ofp_error_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum ErrorType {
    HelloFailed = 0,
    BadRequest = 1,
    BadAction = 2,
    FlowModFailed = 3,
    PortModFailed = 4,
    QueueOpFailed = 5,
}

impl ErrorType {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for undefined categories.
    pub fn from_wire(v: u16) -> Result<ErrorType, CodecError> {
        Ok(match v {
            0 => ErrorType::HelloFailed,
            1 => ErrorType::BadRequest,
            2 => ErrorType::BadAction,
            3 => ErrorType::FlowModFailed,
            4 => ErrorType::PortModFailed,
            5 => ErrorType::QueueOpFailed,
            other => {
                return Err(CodecError::BadValue {
                    field: "ofp_error_msg.type",
                    value: other as u64,
                })
            }
        })
    }
}

impl fmt::Display for ErrorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorType::HelloFailed => "HELLO_FAILED",
            ErrorType::BadRequest => "BAD_REQUEST",
            ErrorType::BadAction => "BAD_ACTION",
            ErrorType::FlowModFailed => "FLOW_MOD_FAILED",
            ErrorType::PortModFailed => "PORT_MOD_FAILED",
            ErrorType::QueueOpFailed => "QUEUE_OP_FAILED",
        };
        f.write_str(s)
    }
}

/// The per-category error code. Codes are kept numeric because their
/// meaning depends on [`ErrorType`]; well-known values are exposed as
/// constants.
pub type ErrorCode = u16;

/// Well-known `FLOW_MOD_FAILED` codes used by the switch model.
pub mod flow_mod_failed {
    use super::ErrorCode;
    /// Flow not added because of full tables.
    pub const ALL_TABLES_FULL: ErrorCode = 0;
    /// Attempted to add overlapping flow with `CHECK_OVERLAP` set.
    pub const OVERLAP: ErrorCode = 1;
    /// Permissions error.
    pub const EPERM: ErrorCode = 2;
    /// Flow not added because of unsupported idle/hard timeout.
    pub const BAD_EMERG_TIMEOUT: ErrorCode = 3;
    /// Unsupported or unknown command.
    pub const BAD_COMMAND: ErrorCode = 4;
    /// Unsupported action list.
    pub const UNSUPPORTED: ErrorCode = 5;
}

/// Well-known `BAD_REQUEST` codes used by the switch model.
pub mod bad_request {
    use super::ErrorCode;
    /// `ofp_header.version` not supported.
    pub const BAD_VERSION: ErrorCode = 0;
    /// `ofp_header.type` not supported.
    pub const BAD_TYPE: ErrorCode = 1;
    /// Specified buffer does not exist.
    pub const BUFFER_UNKNOWN: ErrorCode = 8;
}

/// An `OFPT_ERROR` message body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ErrorMsg {
    /// Error category.
    pub error_type: ErrorType,
    /// Category-specific code.
    pub code: ErrorCode,
    /// At least 64 bytes of the offending request (or an ASCII reason for
    /// `HELLO_FAILED`).
    pub data: Vec<u8>,
}

impl ErrorMsg {
    /// Decodes the body from `r` (consumes the remainder as `data`).
    ///
    /// # Errors
    ///
    /// Fails on truncation or an undefined error category.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<ErrorMsg, CodecError> {
        let error_type = ErrorType::from_wire(r.u16()?)?;
        let code = r.u16()?;
        let data = r.rest().to_vec();
        Ok(ErrorMsg {
            error_type,
            code,
            data,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.error_type as u16);
        w.u16(self.code);
        w.bytes(&self.data);
    }
}

impl fmt::Display for ErrorMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} code {}", self.error_type, self.code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let e = ErrorMsg {
            error_type: ErrorType::FlowModFailed,
            code: flow_mod_failed::OVERLAP,
            data: vec![1, 2, 3],
        };
        let mut w = Writer::new();
        e.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "error");
        assert_eq!(ErrorMsg::decode(&mut r).unwrap(), e);
    }

    #[test]
    fn rejects_unknown_category() {
        let mut w = Writer::new();
        w.u16(99);
        w.u16(0);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "error");
        assert!(ErrorMsg::decode(&mut r).is_err());
    }

    #[test]
    fn display_names_category() {
        let e = ErrorMsg {
            error_type: ErrorType::BadRequest,
            code: bad_request::BUFFER_UNKNOWN,
            data: vec![],
        };
        assert_eq!(e.to_string(), "BAD_REQUEST code 8");
    }
}
