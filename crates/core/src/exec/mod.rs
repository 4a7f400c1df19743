//! The runtime attack execution engine (paper §VI-B2 and Algorithm 1).
//!
//! [`AttackExecutor`] holds the attack's current state `σ_current`, the
//! deque storage `Δ`, and the injection log; each incoming control-plane
//! message is matched against the current state's rules and the matched
//! rules' actions shape the outgoing message list — exactly the paper's
//! `ATTACKEXECUTOR` procedure. [`validate_attack`] performs the
//! compiler's §VI-B1 capability and structure checks.

mod dispatch;
mod executor;
mod log;
mod modifier;

pub use dispatch::{CompiledRuleset, CompiledState};
pub use executor::{
    validate_attack, AttackExecutor, DispatchMode, ExecOutput, ExecutorError, InjectorInput,
    OutMessage,
};
pub use log::{InjectionLog, LogEvent, LogKind};
pub use modifier::{set_field, ModifyError};
