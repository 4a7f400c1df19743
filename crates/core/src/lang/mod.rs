//! The ATTAIN attack language (paper §V).
//!
//! An attack is written as a set of [`AttackState`]s, each holding
//! [`Rule`]s `φ = (n, γ, λ, α)` whose conditionals ([`Expr`]) test
//! message properties ([`Property`]) and whose actions
//! ([`AttackAction`]) actuate attacker capabilities, manipulate deque
//! storage ([`DequeStore`]), and drive state transitions — visualized as
//! the [`AttackStateGraph`].

mod action;
mod conditional;
mod deque;
mod graph;
mod guard;
mod property;
mod rule;
mod state;
pub mod templates;
mod timing;
mod value;

pub use action::AttackAction;
pub use conditional::{BinOp, DequeEnd, EvalError, Expr};
pub use deque::DequeStore;
pub use graph::{AttackStateGraph, GraphEdge};
pub use guard::{anchor_guard, property_read_is_fallible, CmpOp, Guard, ValueKey};
pub use property::{type_option, MessageView, Property, PropertyError};
pub use rule::Rule;
pub use state::{Attack, AttackError, AttackState};
pub use timing::{
    ConnTiming, PairSamples, TimingCtx, TimingPlan, TimingStat, TimingStore, MAX_TIMING_WINDOW,
};
pub use value::{StoredMessage, Value};
