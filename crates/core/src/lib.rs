//! ATTAIN's core: the attack model, attack language, DSL compiler, and
//! attack executor — the paper's primary contribution.
//!
//! The framework's three components (paper §III) map onto this crate's
//! modules:
//!
//! 1. **Attack model** ([`model`]) — the system model `(C, S, H, N_D,
//!    N_C)`, the Table I attacker capabilities `Γ`, the TLS / no-TLS
//!    capability classes, and the per-connection assignment
//!    `Γ_{N_C} : N_C → P(Γ)`.
//! 2. **Attack language** ([`lang`], [`dsl`]) — conditionals over
//!    message properties, deque storage, capability-derived actions,
//!    rules `φ = (n, γ, λ, α)`, attack states, and the attack state
//!    graph; plus a textual description language with a compiler that
//!    validates every rule against the attack model.
//! 3. **Attack executor** ([`exec`]) — Algorithm 1: a deterministic
//!    runtime that interposes on control-plane messages and actuates the
//!    attack, producing an injection log.
//!
//! The [`scenario`] module packages the paper's topologies (Figures 3,
//! 4, 8, 9) and attack descriptions (Figures 5, 6, 10, 12 and the §VIII
//! examples) for reuse by examples, tests, and the experiment suite.
//!
//! # Example: compile and run an attack against a message stream
//!
//! ```
//! use attain_core::{dsl, exec::{AttackExecutor, InjectorInput}, scenario};
//! use attain_core::model::ConnectionId;
//! use attain_openflow::{FlowMod, Frame, Match, OfMessage};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sc = scenario::enterprise_network();
//! let attack = dsl::compile(scenario::attacks::FLOW_MOD_SUPPRESSION,
//!                           &sc.system, &sc.attack_model)?;
//! let mut exec = AttackExecutor::new(sc.system, sc.attack_model, attack.attack)?;
//!
//! // A FLOW_MOD from the controller is suppressed…
//! let flow_mod = Frame::from_message(
//!     OfMessage::FlowMod(FlowMod::add(Match::all(), vec![])), 1);
//! let out = exec.on_message(InjectorInput {
//!     conn: ConnectionId(0),
//!     to_controller: false,
//!     frame: flow_mod,
//!     now_ns: 0,
//! });
//! assert!(out.deliveries.is_empty());
//!
//! // …while anything else passes.
//! let hello = Frame::from_message(OfMessage::Hello, 2);
//! let out = exec.on_message(InjectorInput {
//!     conn: ConnectionId(0),
//!     to_controller: true,
//!     frame: hello,
//!     now_ns: 1,
//! });
//! assert_eq!(out.deliveries.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod dsl;
pub mod exec;
pub mod lang;
pub mod model;
pub mod scenario;
