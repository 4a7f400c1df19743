//! OpenFlow 1.0 wire codec and L2–L4 data-plane packet codec.
//!
//! This crate is the protocol substrate of the ATTAIN attack-injection
//! framework. It provides:
//!
//! * a byte-for-byte [OpenFlow 1.0.0] message codec — every message type in
//!   the specification, the 12-tuple [`Match`] structure with its wildcard
//!   semantics (including the CIDR-style `nw_src`/`nw_dst` prefix
//!   wildcards), and the OpenFlow 1.0 action list ([`Action`]);
//! * a data-plane packet codec ([`packet`]) for Ethernet (with 802.1Q),
//!   ARP, IPv4, ICMP, TCP, and UDP — the frames that ride inside
//!   `PACKET_IN`/`PACKET_OUT` payloads and that the simulated switches and
//!   hosts exchange.
//!
//! The paper's injector used the Loxi library for this role; here the codec
//! is hand-rolled so that the injector can fuzz, rewrite, and re-serialize
//! control messages without any external dependency.
//!
//! [OpenFlow 1.0.0]: https://opennetworking.org/wp-content/uploads/2013/04/openflow-spec-v1.0.0.pdf
//!
//! # Examples
//!
//! Encode and decode a `FLOW_MOD`:
//!
//! ```
//! use attain_openflow::{Match, FlowMod, FlowModCommand, Action, OfMessage, PortNo};
//!
//! # fn main() -> Result<(), attain_openflow::CodecError> {
//! let fm = FlowMod {
//!     r#match: Match::exact_in_port(PortNo(1)),
//!     cookie: 0xdead_beef,
//!     command: FlowModCommand::Add,
//!     idle_timeout: 5,
//!     hard_timeout: 0,
//!     priority: 100,
//!     buffer_id: None,
//!     out_port: PortNo::NONE,
//!     flags: Default::default(),
//!     actions: vec![Action::Output { port: PortNo(2), max_len: 0 }],
//! };
//! let msg = OfMessage::FlowMod(fm);
//! let bytes = msg.encode(42);
//! let (decoded, xid) = OfMessage::decode(&bytes)?;
//! assert_eq!(xid, 42);
//! assert_eq!(decoded, msg);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// Malformed wire bytes are typed errors here, never panics. Tests may
// still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod actions;
mod error;
pub mod frame;
mod header;
mod r#match;
mod message;
mod messages;
pub mod packet;
mod types;
mod wire;

pub use actions::Action;
pub use error::CodecError;
pub use frame::{frame_decode_count, Frame};
pub use header::{OfHeader, OfType, OFP_HEADER_LEN, OFP_VERSION};
pub use message::OfMessage;
pub use messages::{
    bad_request, flow_mod_failed, AggregateStats, ErrorCode, ErrorMsg, ErrorType, FlowMod,
    FlowModCommand, FlowModFlags, FlowRemoved, FlowRemovedReason, FlowStatsEntry, PacketIn,
    PacketInReason, PacketOut, PhyPort, PortMod, PortStatsEntry, PortStatus, PortStatusReason,
    QueueConfig, QueueStatsEntry, StatsBody, StatsReplyBody, SwitchConfig, SwitchDesc,
    SwitchFeatures, TableStatsEntry,
};
pub use r#match::{
    FlowKey, FlowKeyBits, Match, MatchBits, Wildcards, OFP_MATCH_LEN, OFP_VLAN_NONE,
};
pub use types::{write_decimal, BufferId, DatapathId, MacAddr, PortNo, Xid};
pub use wire::{Reader, Writer};
