//! Models of the Floodlight, POX, and Ryu SDN controllers.
//!
//! The ATTAIN paper's evaluation (§VII) runs identical attacks against
//! Floodlight v1.2's `Forwarding` module, POX v0.2.0's
//! `forwarding.l2_learning`, and Ryu v4.5's `simple_switch` — and its
//! headline finding is that the *same* attack manifests differently per
//! controller. This crate reimplements the three learning-switch
//! applications with exactly the behavioural differences that drive those
//! divergent manifestations, and adds two further applications that widen
//! the behavioural space the conformance campaign sweeps
//! ([`ControllerKind::CAMPAIGN`]): Beacon v1.0.4's `LearningSwitch` and a
//! static flooding hub.
//!
//! All five are one learning switch run on one row of this table. The row
//! is code (a private `const` per [`ControllerKind`]); the application,
//! [`DmzFirewall`] and the [`ControllerKind`] predicates the campaign
//! oracle is derived from all read it.
//!
//! | [`ControllerKind`] | flow-mod match | cookie | priority | idle / hard timeout | buffered packet released by | destination on the ingress port | firewall `PACKET_OUT` after a buffered deny | processing delay |
//! |---|---|---|---|---|---|---|---|---|
//! | `Floodlight` | L3-aware (ports + MACs + ethertype + IPs) | `0x20000000` | 1 | 5 s / none | separate `PACKET_OUT` | release the buffer, install nothing | yes | 300 µs |
//! | `Pox` | exact 12-tuple (`ofp_match.from_packet`) | 0 | `0x8000` | 10 s / 30 s | the `FLOW_MOD` itself (`buffer_id` attached) | install a drop flow | no | 1200 µs |
//! | `Ryu` | L2 only (`in_port`, `dl_src`, `dl_dst`) | 0 | 1 | none / none | separate `PACKET_OUT` | install and forward anyway | yes | 800 µs |
//! | `Beacon` | exact 12-tuple (`OFMatch.loadFromPacket`) | 0 | `0x8000` | 5 s / none | the `FLOW_MOD` itself | flood | yes (pinned by the goldens) | 250 µs |
//! | `Hub` | installs no flows; L2 only under the firewall | — | — | — | flooding `PACKET_OUT`, always | flood | yes | 800 µs |
//!
//! Consequences (reproduced by the experiment suite):
//!
//! * Under **flow-modification suppression** (paper Figure 10/11), POX's
//!   buffered packets are released only by the suppressed `FLOW_MOD`, so
//!   the data plane deadlocks — a full denial of service. Floodlight and
//!   Ryu keep forwarding each packet via `PACKET_OUT` at controller speed:
//!   degraded service and ballooning control-plane traffic, but no DoS.
//! * Under **connection interruption** (paper Figure 12/Table II), the
//!   attack's rule `φ2` matches a `FLOW_MOD` whose match names `nw_src =
//!   h2`. Floodlight and POX construct such matches; Ryu's L2-only match
//!   never satisfies `φ2`, so against Ryu the attack never reaches its
//!   dropping state — the paper's reported Ryu anomaly.
//!
//! The crate also provides [`DmzFirewall`], a policy wrapper for the case
//! study's DMZ switch `s2`, and the [`Controller`] trait through which the
//! network simulator (or any other harness) hosts a controller.
//! [`ControllerKind::instantiate`] is the only constructor.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod firewall;
mod learning;
mod traits;

pub use firewall::{DmzFirewall, DmzPolicy};
pub use traits::{Controller, ControllerKind, Outbox};

// One test per cell of the table above, included (not declared as a
// module) so each row keeps the `<controller>::tests::` id it has always
// had.
#[cfg(test)]
include!("wire_tests.rs");
