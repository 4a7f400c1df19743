//! Conditional expressions `λ` (paper §V-B): propositional logic over
//! message properties, with the set-membership operator and the small
//! arithmetic needed for deque counters.

use crate::lang::deque::DequeStore;
use crate::lang::property::{MessageView, Property, PropertyError};
use crate::lang::timing::{TimingCtx, TimingStat};
use crate::lang::value::Value;
use crate::model::CapabilitySet;
use attain_openflow::OfType;
use std::fmt;

/// Which end of a deque an expression reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DequeEnd {
    /// The front (`EXAMINEFRONT`).
    Front,
    /// The end (`EXAMINEEND`).
    End,
}

/// A binary operator of the language: its symbol, how tightly it binds
/// and what it computes. The parser, compiler, renderer, evaluator and
/// guard extractor all read the operator from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical disjunction (`∨`).
    Or,
    /// Logical conjunction (`∧`).
    And,
    /// Equality (`=`).
    Eq,
    /// Inequality.
    Ne,
    /// Numeric less-than.
    Lt,
    /// Numeric less-or-equal.
    Le,
    /// Numeric greater-than.
    Gt,
    /// Numeric greater-or-equal.
    Ge,
    /// Numeric addition (counters).
    Add,
    /// Numeric subtraction.
    Sub,
}

impl BinOp {
    /// The operator as the DSL spells it.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
        }
    }

    /// How tightly the operator binds: `||` < `&&` < comparison (and
    /// `in`) < `+ -`. Comparisons do not chain (`a == b == c` is
    /// refused); the others associate to the left.
    pub fn binding_power(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
        }
    }

    /// The expression `a OP b`, the only way to build an [`Expr::Bin`].
    /// If `a` is a chain of operators that bind as this one does, and
    /// this one is not a comparison, `b` is appended to it: `a && b && c`
    /// is one node and equals `(a && b) && c`, while `a && (b && c)` nests.
    pub fn of(self, a: Expr, b: Expr) -> Expr {
        let bp = self.binding_power();
        match a {
            Expr::Bin(first, mut rest)
                if bp != BinOp::Eq.binding_power() && rest[0].0.binding_power() == bp =>
            {
                rest.push((self, b));
                Expr::Bin(first, rest)
            }
            a => Expr::Bin(Box::new(a), vec![(self, b)]),
        }
    }

    /// Applies the operator to two evaluated operands. (The evaluator
    /// short-circuits `&&` and `||` before it evaluates `b`.) Integer
    /// `+` and `-` wrap on overflow, in debug and release builds alike.
    ///
    /// # Errors
    ///
    /// [`EvalError::TypeMismatch`] when an ordering comparison meets a
    /// non-numeric operand, or `+`/`-` a non-integer one.
    pub fn apply(self, a: &Value, b: &Value) -> Result<Value, EvalError> {
        let floats = || self.operands(a, b, Value::as_float);
        let ints = || self.operands(a, b, Value::as_int);
        Ok(match self {
            BinOp::Or => Value::Bool(a.truthy() || b.truthy()),
            BinOp::And => Value::Bool(a.truthy() && b.truthy()),
            BinOp::Eq => Value::Bool(a.lang_eq(b)),
            BinOp::Ne => Value::Bool(!a.lang_eq(b)),
            BinOp::Lt => floats().map(|(x, y)| Value::Bool(x < y))?,
            BinOp::Le => floats().map(|(x, y)| Value::Bool(x <= y))?,
            BinOp::Gt => floats().map(|(x, y)| Value::Bool(x > y))?,
            BinOp::Ge => floats().map(|(x, y)| Value::Bool(x >= y))?,
            BinOp::Add => ints().map(|(x, y)| Value::Int(x.wrapping_add(y)))?,
            BinOp::Sub => ints().map(|(x, y)| Value::Int(x.wrapping_sub(y)))?,
        })
    }

    /// Both operands through `num`, or the kind of the first that is
    /// not numeric.
    fn operands<T>(
        self,
        a: &Value,
        b: &Value,
        num: impl Fn(&Value) -> Option<T>,
    ) -> Result<(T, T), EvalError> {
        match (num(a), num(b)) {
            (Some(x), Some(y)) => Ok((x, y)),
            (x, _) => Err(EvalError::TypeMismatch {
                op: self.symbol(),
                found: if x.is_none() { a.kind() } else { b.kind() },
            }),
        }
    }
}

/// A conditional (or arithmetic) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A message property read.
    Prop(Property),
    /// A non-destructive deque read.
    DequeRead {
        /// Deque name.
        deque: String,
        /// Which end.
        end: DequeEnd,
    },
    /// Deque length.
    DequeLen(String),
    /// Logical negation (`¬`).
    Not(Box<Expr>),
    /// A run of operators that bind alike, applied left to right: the
    /// first operand, then one or more operators each with its right
    /// operand (exactly one for a comparison). Built only by [`BinOp::of`].
    Bin(Box<Expr>, Vec<(BinOp, Expr)>),
    /// Set membership (`∈`): value appears in the list.
    In(Box<Expr>, Vec<Expr>),
    /// A timing observable over the connection's arrival history (the
    /// DSL's `latency` / `inter_arrival` / `timing_*` predicates).
    /// Reads the per-connection sample ring the executor keeps for the
    /// `(req, resp)` pair; never an anchor guard, so compiled dispatch
    /// routes it through the residual mask.
    Timing {
        /// Request message type (the stamp the sample measures from).
        req: OfType,
        /// Response message type (the arrival that closes a sample).
        resp: OfType,
        /// Which statistic to read.
        stat: TimingStat,
        /// Rolling-window length for `Mean`/`StdDev` (1 for the rest).
        window: u32,
    },
    /// Nanoseconds since the executor entered the current attack state
    /// (the DSL's `elapsed_in_state()`).
    ElapsedInState,
}

/// Why an expression failed to evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A property read failed.
    Property(PropertyError),
    /// Operand types were incompatible.
    TypeMismatch {
        /// Operator name.
        op: &'static str,
        /// Offending operand kind.
        found: &'static str,
    },
    /// A timing statistic was read before its pair had any sample (the
    /// executor treats the conditional as unmatched, like any other
    /// eval error — guard with `timing_count(...)` to avoid it).
    NoSample {
        /// Which statistic had no data.
        stat: &'static str,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Property(e) => write!(f, "{e}"),
            EvalError::TypeMismatch { op, found } => {
                write!(f, "operator {op} cannot take a {found} operand")
            }
            EvalError::NoSample { stat } => {
                write!(f, "timing statistic `{stat}` has no samples yet")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<PropertyError> for EvalError {
    fn from(e: PropertyError) -> Self {
        EvalError::Property(e)
    }
}

impl Expr {
    /// Evaluates to a [`Value`] with no timing state attached
    /// (timing-free expressions behave identically; timing stats read
    /// through `TimingCtx::detached`).
    ///
    /// # Errors
    ///
    /// Fails on capability-denied property reads or type mismatches; the
    /// executor treats a failing conditional as *unmatched* and logs it.
    pub fn eval(&self, msg: &MessageView<'_>, deques: &DequeStore) -> Result<Value, EvalError> {
        self.eval_with(msg, deques, TimingCtx::detached())
    }

    /// Evaluates to a [`Value`] against the executor's per-connection
    /// timing state.
    ///
    /// # Errors
    ///
    /// As [`Expr::eval`], plus [`EvalError::NoSample`] for timing
    /// statistics whose pair has no sample yet.
    pub(crate) fn eval_with(
        &self,
        msg: &MessageView<'_>,
        deques: &DequeStore,
        timing: TimingCtx<'_>,
    ) -> Result<Value, EvalError> {
        match self {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Prop(p) => Ok(msg.read(p)?),
            Expr::DequeRead { deque, end } => Ok(match end {
                DequeEnd::Front => deques.examine_front(deque),
                DequeEnd::End => deques.examine_end(deque),
            }),
            Expr::DequeLen(d) => Ok(Value::Int(deques.len(d) as i64)),
            Expr::Not(e) => Ok(Value::Bool(!e.eval_with(msg, deques, timing)?.truthy())),
            Expr::Bin(first, rest) => {
                let mut acc = first.eval_with(msg, deques, timing)?;
                for (op, b) in rest {
                    // All `&&` or all `||`: a skipped operand cannot fail a capability check.
                    acc = match op {
                        BinOp::And if !acc.truthy() => return Ok(Value::Bool(false)),
                        BinOp::Or if acc.truthy() => return Ok(Value::Bool(true)),
                        _ => op.apply(&acc, &b.eval_with(msg, deques, timing)?)?,
                    };
                }
                Ok(acc)
            }
            Expr::In(needle, haystack) => {
                let n = needle.eval_with(msg, deques, timing)?;
                for h in haystack {
                    if n.lang_eq(&h.eval_with(msg, deques, timing)?) {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Timing {
                req,
                resp,
                stat,
                window,
            } => timing.read(*req, *resp, *stat, *window),
            Expr::ElapsedInState => Ok(Value::Int(timing.elapsed_in_state_ns() as i64)),
        }
    }

    /// The capabilities this expression may need at runtime (used for
    /// compile-time validation against a rule's `γ`).
    pub fn required_capabilities(&self) -> CapabilitySet {
        let mut caps = CapabilitySet::new();
        self.for_each(&mut |e| match e {
            Expr::Prop(p) => caps.insert(p.required_capability()),
            // Timing samples are keyed by decoded message type — a
            // payload-level observation.
            Expr::Timing { .. } => caps.insert(crate::model::Capability::ReadMessage),
            _ => {}
        });
        caps
    }

    /// Calls `f` on this expression and every sub-expression (capability
    /// inference, and [`TimingPlan`](crate::lang::timing::TimingPlan)'s
    /// discovery of the pairs an attack observes).
    pub(crate) fn for_each(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_)
            | Expr::Prop(_)
            | Expr::DequeRead { .. }
            | Expr::DequeLen(_)
            | Expr::Timing { .. }
            | Expr::ElapsedInState => {}
            Expr::Not(e) => e.for_each(f),
            Expr::Bin(first, rest) => {
                first.for_each(f);
                for (_, b) in rest {
                    b.for_each(f);
                }
            }
            Expr::In(n, hs) => {
                n.for_each(f);
                for h in hs {
                    h.for_each(f);
                }
            }
        }
    }

    /// Always-true conditional (the Figure 10 `φ1` style "every message"
    /// guard is usually a property test, but `true` is the trivial one).
    pub fn always() -> Expr {
        Expr::Lit(Value::Bool(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Capability;
    use crate::model::{ConnectionId, ControllerId, NodeRef, SwitchId};
    use attain_openflow::{FlowMod, Match, OfMessage, OfType};

    fn make_msg() -> attain_openflow::Frame {
        let msg = OfMessage::FlowMod(FlowMod::add(Match::all(), vec![]));
        attain_openflow::Frame::from_message(msg, 7)
    }

    fn view(frame: &attain_openflow::Frame) -> MessageView<'_> {
        MessageView {
            conn: ConnectionId(0),
            source: NodeRef::Controller(ControllerId(0)),
            destination: NodeRef::Switch(SwitchId(1)),
            timestamp_ns: 0,
            id: 1,
            frame,
            granted: CapabilitySet::no_tls(),
            entropy: 0.5,
        }
    }

    #[test]
    fn type_and_source_conjunction_like_figure_10() {
        let frame = make_msg();
        let v = view(&frame);
        let d = DequeStore::new();
        // λ = (msg.type == FLOW_MOD) ∧ (msg.source == c1)
        let cond = BinOp::And.of(
            BinOp::Eq.of(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            BinOp::Eq.of(
                Expr::Prop(Property::Source),
                Expr::Lit(Value::Addr(NodeRef::Controller(ControllerId(0)))),
            ),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
        // Different source: false.
        let cond2 = BinOp::Eq.of(
            Expr::Prop(Property::Source),
            Expr::Lit(Value::Addr(NodeRef::Switch(SwitchId(9)))),
        );
        assert_eq!(cond2.eval(&v, &d).unwrap(), Value::Bool(false));
    }

    #[test]
    fn membership_like_figure_12_phi2() {
        let frame = make_msg();
        let v = view(&frame);
        let d = DequeStore::new();
        // destination ∈ {s1, s2}
        let cond = Expr::In(
            Box::new(Expr::Prop(Property::Destination)),
            vec![
                Expr::Lit(Value::Addr(NodeRef::Switch(SwitchId(0)))),
                Expr::Lit(Value::Addr(NodeRef::Switch(SwitchId(1)))),
            ],
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_protects_capability_checks() {
        let frame = make_msg();
        let mut v = view(&frame);
        v.granted = CapabilitySet::tls(); // no payload reads
        let d = DequeStore::new();
        // length > 10_000 ∧ type == FLOW_MOD: left side false, right side
        // never evaluated, so no capability error.
        let cond = BinOp::And.of(
            BinOp::Gt.of(Expr::Prop(Property::Length), Expr::Lit(Value::Int(10_000))),
            BinOp::Eq.of(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(false));
        // Flipped order: the payload read runs and is denied.
        let cond = BinOp::And.of(
            BinOp::Eq.of(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            BinOp::Gt.of(Expr::Prop(Property::Length), Expr::Lit(Value::Int(10_000))),
        );
        assert!(cond.eval(&v, &d).is_err());
    }

    #[test]
    fn counter_condition_from_section_viii_b() {
        let frame = make_msg();
        let v = view(&frame);
        let mut d = DequeStore::new();
        d.prepend("counter", Value::Int(3));
        // EXAMINEFRONT(counter) == 3
        let cond = BinOp::Eq.of(
            Expr::DequeRead {
                deque: "counter".into(),
                end: DequeEnd::Front,
            },
            Expr::Lit(Value::Int(3)),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
        // EXAMINEFRONT(counter) + 1 == 4
        let cond = BinOp::Eq.of(
            BinOp::Add.of(
                Expr::DequeRead {
                    deque: "counter".into(),
                    end: DequeEnd::Front,
                },
                Expr::Lit(Value::Int(1)),
            ),
            Expr::Lit(Value::Int(4)),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
    }

    #[test]
    fn counter_arithmetic_wraps_in_every_build() {
        // A hostile literal must not panic a debug build's executor.
        let max = Value::Int(i64::MAX);
        let one = Value::Int(1);
        assert_eq!(BinOp::Add.apply(&max, &one), Ok(Value::Int(i64::MIN)));
        assert_eq!(BinOp::Sub.apply(&Value::Int(i64::MIN), &one), Ok(max));
    }

    #[test]
    fn required_capabilities_cover_all_property_reads() {
        let cond = BinOp::And.of(
            BinOp::Eq.of(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            BinOp::Eq.of(
                Expr::Prop(Property::Source),
                Expr::Lit(Value::Addr(NodeRef::Controller(ControllerId(0)))),
            ),
        );
        let caps = cond.required_capabilities();
        assert!(caps.contains(Capability::ReadMessage));
        assert!(caps.contains(Capability::ReadMessageMetadata));
        assert_eq!(caps.len(), 2);
        assert!(Expr::always().required_capabilities().is_empty());
    }

    #[test]
    fn comparison_type_errors_are_reported() {
        let frame = make_msg();
        let v = view(&frame);
        let d = DequeStore::new();
        let cond = BinOp::Lt.of(Expr::Lit(Value::Str("a".into())), Expr::Lit(Value::Int(1)));
        assert!(matches!(
            cond.eval(&v, &d),
            Err(EvalError::TypeMismatch { op: "<", .. })
        ));
    }

    #[test]
    fn not_and_or() {
        let frame = make_msg();
        let v = view(&frame);
        let d = DequeStore::new();
        let t = Expr::Lit(Value::Bool(true));
        let f = Expr::Lit(Value::Bool(false));
        assert_eq!(
            Expr::Not(Box::new(t.clone())).eval(&v, &d).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            BinOp::Or.of(f.clone(), t.clone()).eval(&v, &d).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            BinOp::And.of(t, f).eval(&v, &d).unwrap(),
            Value::Bool(false)
        );
    }
}
