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
    /// Logical conjunction (`∧`).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (`∨`).
    Or(Box<Expr>, Box<Expr>),
    /// Equality (`=`).
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality.
    Ne(Box<Expr>, Box<Expr>),
    /// Numeric less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Numeric less-or-equal.
    Le(Box<Expr>, Box<Expr>),
    /// Numeric greater-than.
    Gt(Box<Expr>, Box<Expr>),
    /// Numeric greater-or-equal.
    Ge(Box<Expr>, Box<Expr>),
    /// Set membership (`∈`): value appears in the list.
    In(Box<Expr>, Vec<Expr>),
    /// Numeric addition (counters).
    Add(Box<Expr>, Box<Expr>),
    /// Numeric subtraction.
    Sub(Box<Expr>, Box<Expr>),
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
    /// Convenience: `a == b` from two expressions.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Eq(Box::new(a), Box::new(b))
    }

    /// Convenience: `a && b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Convenience: `a || b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

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
            Expr::And(a, b) => {
                // Short-circuit: the right side is not evaluated (and so
                // cannot fail a capability check) when the left is false.
                if !a.eval_with(msg, deques, timing)?.truthy() {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(b.eval_with(msg, deques, timing)?.truthy()))
            }
            Expr::Or(a, b) => {
                if a.eval_with(msg, deques, timing)?.truthy() {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(b.eval_with(msg, deques, timing)?.truthy()))
            }
            Expr::Eq(a, b) => Ok(Value::Bool(
                a.eval_with(msg, deques, timing)?
                    .lang_eq(&b.eval_with(msg, deques, timing)?),
            )),
            Expr::Ne(a, b) => Ok(Value::Bool(
                !a.eval_with(msg, deques, timing)?
                    .lang_eq(&b.eval_with(msg, deques, timing)?),
            )),
            Expr::Lt(a, b) => Self::numeric_cmp("<", a, b, msg, deques, timing, |x, y| x < y),
            Expr::Le(a, b) => Self::numeric_cmp("<=", a, b, msg, deques, timing, |x, y| x <= y),
            Expr::Gt(a, b) => Self::numeric_cmp(">", a, b, msg, deques, timing, |x, y| x > y),
            Expr::Ge(a, b) => Self::numeric_cmp(">=", a, b, msg, deques, timing, |x, y| x >= y),
            Expr::In(needle, haystack) => {
                let n = needle.eval_with(msg, deques, timing)?;
                for h in haystack {
                    if n.lang_eq(&h.eval_with(msg, deques, timing)?) {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Add(a, b) => Self::numeric_bin("+", a, b, msg, deques, timing, |x, y| x + y),
            Expr::Sub(a, b) => Self::numeric_bin("-", a, b, msg, deques, timing, |x, y| x - y),
            Expr::Timing {
                req,
                resp,
                stat,
                window,
            } => timing.read(*req, *resp, *stat, *window),
            Expr::ElapsedInState => Ok(Value::Int(timing.elapsed_in_state_ns() as i64)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn numeric_cmp(
        op: &'static str,
        a: &Expr,
        b: &Expr,
        msg: &MessageView<'_>,
        deques: &DequeStore,
        timing: TimingCtx<'_>,
        f: impl Fn(f64, f64) -> bool,
    ) -> Result<Value, EvalError> {
        let av = a.eval_with(msg, deques, timing)?;
        let bv = b.eval_with(msg, deques, timing)?;
        let (Some(x), Some(y)) = (av.as_float(), bv.as_float()) else {
            return Err(EvalError::TypeMismatch {
                op,
                found: if av.as_float().is_none() {
                    av.kind()
                } else {
                    bv.kind()
                },
            });
        };
        Ok(Value::Bool(f(x, y)))
    }

    #[allow(clippy::too_many_arguments)]
    fn numeric_bin(
        op: &'static str,
        a: &Expr,
        b: &Expr,
        msg: &MessageView<'_>,
        deques: &DequeStore,
        timing: TimingCtx<'_>,
        f: impl Fn(i64, i64) -> i64,
    ) -> Result<Value, EvalError> {
        let av = a.eval_with(msg, deques, timing)?;
        let bv = b.eval_with(msg, deques, timing)?;
        let (Some(x), Some(y)) = (av.as_int(), bv.as_int()) else {
            return Err(EvalError::TypeMismatch {
                op,
                found: if av.as_int().is_none() {
                    av.kind()
                } else {
                    bv.kind()
                },
            });
        };
        Ok(Value::Int(f(x, y)))
    }

    /// The capabilities this expression may need at runtime (used for
    /// compile-time validation against a rule's `γ`).
    pub fn required_capabilities(&self) -> CapabilitySet {
        let mut caps = CapabilitySet::new();
        self.collect_caps(&mut caps);
        caps
    }

    /// Calls `f` on this expression and every sub-expression (used by
    /// [`TimingPlan`](crate::lang::timing::TimingPlan) to discover the
    /// pairs an attack observes).
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
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b) => {
                a.for_each(f);
                b.for_each(f);
            }
            Expr::In(n, hs) => {
                n.for_each(f);
                for h in hs {
                    h.for_each(f);
                }
            }
        }
    }

    fn collect_caps(&self, caps: &mut CapabilitySet) {
        match self {
            Expr::Lit(_) | Expr::DequeRead { .. } | Expr::DequeLen(_) => {}
            Expr::Prop(p) => caps.insert(p.required_capability()),
            // Timing samples are keyed by decoded message type — a
            // payload-level observation.
            Expr::Timing { .. } => caps.insert(crate::model::Capability::ReadMessage),
            Expr::ElapsedInState => {}
            Expr::Not(e) => e.collect_caps(caps),
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Gt(a, b)
            | Expr::Ge(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b) => {
                a.collect_caps(caps);
                b.collect_caps(caps);
            }
            Expr::In(n, hs) => {
                n.collect_caps(caps);
                for h in hs {
                    h.collect_caps(caps);
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
        let cond = Expr::and(
            Expr::eq(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            Expr::eq(
                Expr::Prop(Property::Source),
                Expr::Lit(Value::Addr(NodeRef::Controller(ControllerId(0)))),
            ),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
        // Different source: false.
        let cond2 = Expr::eq(
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
        let cond = Expr::and(
            Expr::Gt(
                Box::new(Expr::Prop(Property::Length)),
                Box::new(Expr::Lit(Value::Int(10_000))),
            ),
            Expr::eq(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(false));
        // Flipped order: the payload read runs and is denied.
        let cond = Expr::and(
            Expr::eq(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            Expr::Gt(
                Box::new(Expr::Prop(Property::Length)),
                Box::new(Expr::Lit(Value::Int(10_000))),
            ),
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
        let cond = Expr::eq(
            Expr::DequeRead {
                deque: "counter".into(),
                end: DequeEnd::Front,
            },
            Expr::Lit(Value::Int(3)),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
        // EXAMINEFRONT(counter) + 1 == 4
        let cond = Expr::eq(
            Expr::Add(
                Box::new(Expr::DequeRead {
                    deque: "counter".into(),
                    end: DequeEnd::Front,
                }),
                Box::new(Expr::Lit(Value::Int(1))),
            ),
            Expr::Lit(Value::Int(4)),
        );
        assert_eq!(cond.eval(&v, &d).unwrap(), Value::Bool(true));
    }

    #[test]
    fn required_capabilities_cover_all_property_reads() {
        let cond = Expr::and(
            Expr::eq(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            Expr::eq(
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
        let cond = Expr::Lt(
            Box::new(Expr::Lit(Value::Str("a".into()))),
            Box::new(Expr::Lit(Value::Int(1))),
        );
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
            Expr::or(f.clone(), t.clone()).eval(&v, &d).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(Expr::and(t, f).eval(&v, &d).unwrap(), Value::Bool(false));
    }
}
