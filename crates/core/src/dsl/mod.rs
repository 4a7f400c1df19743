//! The textual attack description language and its compiler (paper
//! §VI-B1).
//!
//! The paper's compiler consumes three XML files — system model, attack
//! model, and attack states — and emits executable code. This module
//! implements the same pipeline over a small textual format (the allowed
//! dependency set has no XML parser, and the format is nicer to write by
//! hand); the three inputs can live in one document or the system/attack
//! models can be supplied programmatically.
//!
//! ```text
//! system {
//!     controller c1;
//!     switch s1;
//!     host h1 ip 10.0.0.1;
//!     host h2 ip 10.0.0.2;
//!     link h1, s1;
//!     link h2, s1;
//!     connection c1 -> s1;
//! }
//! capabilities {
//!     default no_tls;          # or tls / none / { drop_message, … }
//! }
//! attack flow_mod_suppression {
//!     start state sigma1 {
//!         rule phi1 on (c1, s1) requires no_tls {
//!             when msg.type == FLOW_MOD && msg.source == c1
//!             do { drop(msg); }
//!         }
//!     }
//! }
//! ```
//!
//! Conditions support `&& || !`, comparisons, `in [a, b, c]`, message
//! properties (`msg.type`, `msg.source`, …), type options
//! (`msg["match.nw_src"]`), and deque reads (`front(d)`, `back(d)`,
//! `len(d)`). Actions cover Table I (`drop`, `pass`, `delay`,
//! `duplicate`, `read`, `read_metadata`, `modify`, `modify_metadata`,
//! `fuzz`, `inject`), the deque operations (`append`, `prepend`,
//! `shift`, `pop`, plus `append(d, msg)` to capture the in-flight
//! message and `emit_front`/`emit_back` to replay it), and the control
//! actions (`goto`, `sleep`, `syscmd`).
//!
//! A string literal escapes `\"`, `\\`, newline (`\n`) and tab (`\t`),
//! and holds every other UTF-8 character as itself; the renderer writes
//! strings with exactly those escapes, so every rendering compiles back
//! to its attack.
//!
//! There is no syntax tree between the text and the attack: the parser
//! lowers each block to its model or `lang` values as it reads it,
//! resolving names against the system model on the spot. The blocks
//! may come in any order, and a `goto` may name a state declared later.
//! A syntax error is reported at once; a resolution error only once the
//! whole source parses, so syntax errors come first.

mod compile;
mod lexer;
mod parser;
mod render;

pub use compile::{compile, compile_all, compile_document, CompiledAttack, CompiledDocument};
pub use lexer::DslError;
pub(crate) use lexer::Quoted;
pub use render::{render, RenderError};
