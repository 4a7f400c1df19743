//! `OFPT_FLOW_REMOVED`.

use crate::error::CodecError;
use crate::r#match::Match;
use crate::wire::{Reader, Writer};

/// Why a flow entry was removed (`ofp_flow_removed_reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlowRemovedReason {
    /// The idle timeout elapsed without traffic.
    IdleTimeout = 0,
    /// The hard timeout elapsed.
    HardTimeout = 1,
    /// The entry was deleted by a `FLOW_MOD`.
    Delete = 2,
    /// The entry was evicted to make room for a new one (Open vSwitch's
    /// eviction extension; OpenFlow standardized the same value as
    /// `OFPRR_EVICTION` in 1.4).
    Eviction = 3,
}

impl FlowRemovedReason {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for values above 3.
    pub fn from_wire(v: u8) -> Result<FlowRemovedReason, CodecError> {
        match v {
            0 => Ok(FlowRemovedReason::IdleTimeout),
            1 => Ok(FlowRemovedReason::HardTimeout),
            2 => Ok(FlowRemovedReason::Delete),
            3 => Ok(FlowRemovedReason::Eviction),
            other => Err(CodecError::BadValue {
                field: "ofp_flow_removed.reason",
                value: other as u64,
            }),
        }
    }
}

/// An `OFPT_FLOW_REMOVED` body: switch notification that an entry expired.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FlowRemoved {
    /// The removed entry's match.
    pub r#match: Match,
    /// The removed entry's cookie.
    pub cookie: u64,
    /// The removed entry's priority.
    pub priority: u16,
    /// Removal reason.
    pub reason: FlowRemovedReason,
    /// Seconds the entry was installed.
    pub duration_sec: u32,
    /// Sub-second remainder in nanoseconds.
    pub duration_nsec: u32,
    /// The entry's idle timeout.
    pub idle_timeout: u16,
    /// Packets matched over the entry's lifetime.
    pub packet_count: u64,
    /// Bytes matched over the entry's lifetime.
    pub byte_count: u64,
}

impl FlowRemoved {
    /// Decodes the body from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an undefined reason.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<FlowRemoved, CodecError> {
        let m = Match::decode(r)?;
        let cookie = r.u64()?;
        let priority = r.u16()?;
        let reason = FlowRemovedReason::from_wire(r.u8()?)?;
        r.skip(1)?;
        let duration_sec = r.u32()?;
        let duration_nsec = r.u32()?;
        let idle_timeout = r.u16()?;
        r.skip(2)?;
        let packet_count = r.u64()?;
        let byte_count = r.u64()?;
        Ok(FlowRemoved {
            r#match: m,
            cookie,
            priority,
            reason,
            duration_sec,
            duration_nsec,
            idle_timeout,
            packet_count,
            byte_count,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        self.r#match.encode(w);
        w.u64(self.cookie);
        w.u16(self.priority);
        w.u8(self.reason as u8);
        w.pad(1);
        w.u32(self.duration_sec);
        w.u32(self.duration_nsec);
        w.u16(self.idle_timeout);
        w.pad(2);
        w.u64(self.packet_count);
        w.u64(self.byte_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let fr = FlowRemoved {
            r#match: Match::all(),
            cookie: 0xc0ffee,
            priority: 10,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 12,
            duration_nsec: 345,
            idle_timeout: 5,
            packet_count: 100,
            byte_count: 6400,
        };
        let mut w = Writer::new();
        fr.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "flow_removed");
        assert_eq!(FlowRemoved::decode(&mut r).unwrap(), fr);
        r.expect_end().unwrap();
    }

    #[test]
    fn eviction_reason_roundtrips() {
        let fr = FlowRemoved {
            r#match: Match::all(),
            cookie: 0,
            priority: 0,
            reason: FlowRemovedReason::Eviction,
            duration_sec: 0,
            duration_nsec: 0,
            idle_timeout: 0,
            packet_count: 0,
            byte_count: 0,
        };
        let mut w = Writer::new();
        fr.encode(&mut w);
        let v = w.into_vec();
        assert_eq!(v[50], 3);
        let mut r = Reader::new(&v, "flow_removed");
        assert_eq!(
            FlowRemoved::decode(&mut r).unwrap().reason,
            FlowRemovedReason::Eviction
        );
    }

    #[test]
    fn rejects_bad_reason() {
        let fr = FlowRemoved {
            r#match: Match::all(),
            cookie: 0,
            priority: 0,
            reason: FlowRemovedReason::Delete,
            duration_sec: 0,
            duration_nsec: 0,
            idle_timeout: 0,
            packet_count: 0,
            byte_count: 0,
        };
        let mut w = Writer::new();
        fr.encode(&mut w);
        let mut v = w.into_vec();
        v[50] = 7; // reason byte (40 match + 8 cookie + 2 priority)
        let mut r = Reader::new(&v, "flow_removed");
        assert!(FlowRemoved::decode(&mut r).is_err());
    }
}
