//! Indexable-guard extraction from rule conditionals.
//!
//! The executor's compiled dispatcher (see `exec::dispatch`) needs to
//! know, for each rule, a *guard*: a single predicate that is (1) cheap
//! to index — an equality, membership, or comparison test between one
//! message property and literal values — and (2) sound to use for
//! exclusion, meaning that whenever the guard is false the reference
//! scan's evaluation of the full conditional is guaranteed to return a
//! falsy value *without logging anything*. Under that contract the
//! dispatcher may skip the rule entirely and stay bit-for-bit identical
//! to the scan.
//!
//! Soundness falls out of the conjunction's left-to-right short-circuit
//! evaluation: the guard is the *leftmost non-trivial conjunct* of the
//! condition. If it evaluates false, [`Expr::eval`] short-circuits there
//! and nothing later in the condition (which might error and log) ever
//! runs. Conjuncts before the anchor are skipped only when they are
//! truthy literals — the one form that can neither fail nor be false.
//!
//! Anything else — disjunctions, negations, deque reads, arithmetic,
//! property-vs-property comparisons — yields no guard and the rule is
//! evaluated on every message it is scoped to (the *residual* set).

use crate::lang::conditional::Expr;
use crate::lang::property::Property;
use crate::lang::value::Value;
use attain_openflow::{MacAddr, OfType};
use std::net::Ipv4Addr;

/// Direction of an indexable ordering comparison, normalized so the
/// property is always on the left (`prop OP threshold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `prop < threshold`.
    Lt,
    /// `prop <= threshold`.
    Le,
    /// `prop > threshold`.
    Gt,
    /// `prop >= threshold`.
    Ge,
}

/// The indexable guard extracted from a rule condition, if any.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    /// The condition starts with a falsy literal: the rule can never
    /// match (and never log), so the dispatcher drops it entirely.
    Never,
    /// `prop == literal` (either operand order in the source).
    Eq {
        /// The anchored property.
        prop: Property,
        /// The literal compared against.
        value: Value,
    },
    /// `prop in [literals…]`.
    In {
        /// The anchored property.
        prop: Property,
        /// The literal haystack.
        values: Vec<Value>,
    },
    /// `prop OP threshold` over a statically numeric, infallible
    /// property (normalized so the property is on the left).
    Cmp {
        /// The anchored property.
        prop: Property,
        /// The normalized comparison.
        op: CmpOp,
        /// The literal threshold as a float (the language compares
        /// numerics through `Value::as_float`).
        threshold: f64,
    },
}

impl Guard {
    /// The property this guard anchors on, if it reads one.
    pub(crate) fn property(&self) -> Option<&Property> {
        match self {
            Guard::Never => None,
            Guard::Eq { prop, .. } | Guard::In { prop, .. } | Guard::Cmp { prop, .. } => Some(prop),
        }
    }
}

/// Whether reading `prop` can fail at runtime even when the capability
/// is granted (payload reads on unparseable frames, missing type-option
/// paths). Rules anchored on a fallible property must still run — and
/// log their error — when the read fails, so the dispatcher keeps an
/// error fallback set per property.
pub fn property_read_is_fallible(prop: &Property) -> bool {
    matches!(prop, Property::Type | Property::TypeOption(_))
}

/// Whether `prop` always yields a numeric value and never fails: the
/// precondition for indexing ordering comparisons (a non-numeric operand
/// would make the scan log a `TypeMismatch`, which exclusion would
/// silently swallow).
fn property_is_numeric_infallible(prop: &Property) -> bool {
    matches!(
        prop,
        Property::Length | Property::Id | Property::Timestamp | Property::Entropy
    )
}

/// Whether `value` may serve as an indexed literal: hashable under
/// [`ValueKey`] and total under `lang_eq`. Non-finite floats are
/// rejected (NaN breaks the key ≡ equality correspondence), as are
/// stored messages (never literals in practice, and not hashable).
fn literal_is_indexable(value: &Value) -> bool {
    match value {
        Value::Float(x) => x.is_finite(),
        Value::Message(_) => false,
        _ => true,
    }
}

/// Extracts the indexable guard anchoring `condition`, walking the
/// left spine of the top-level conjunction.
///
/// Returns `None` when the leftmost non-trivial conjunct is not an
/// indexable shape — the rule then belongs to the residual scan set.
pub fn anchor_guard(condition: &Expr) -> Option<Guard> {
    // Conjuncts in evaluation order: And(And(a, b), c) ⇒ a, b, c.
    // Truthy literals are skipped (always Ok(true), no side effects);
    // the first conjunct past them is the anchor candidate.
    let mut stack: Vec<&Expr> = vec![condition];
    while let Some(e) = stack.pop() {
        match e {
            Expr::And(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            Expr::Lit(v) if v.truthy() => continue,
            Expr::Lit(_) => return Some(Guard::Never),
            other => return classify(other),
        }
    }
    // Every conjunct was a truthy literal: always matches, no anchor.
    None
}

/// Classifies a single conjunct as a guard, if it has an indexable shape.
fn classify(e: &Expr) -> Option<Guard> {
    match e {
        Expr::Eq(a, b) => {
            let (prop, value) = prop_and_lit(a, b)?;
            literal_is_indexable(value).then(|| Guard::Eq {
                prop: prop.clone(),
                value: value.clone(),
            })
        }
        Expr::In(needle, haystack) => {
            let Expr::Prop(prop) = needle.as_ref() else {
                return None;
            };
            let mut values = Vec::with_capacity(haystack.len());
            for item in haystack {
                let Expr::Lit(v) = item else { return None };
                if !literal_is_indexable(v) {
                    return None;
                }
                values.push(v.clone());
            }
            Some(Guard::In {
                prop: prop.clone(),
                values,
            })
        }
        Expr::Lt(a, b) => cmp_guard(a, b, CmpOp::Lt, CmpOp::Gt),
        Expr::Le(a, b) => cmp_guard(a, b, CmpOp::Le, CmpOp::Ge),
        Expr::Gt(a, b) => cmp_guard(a, b, CmpOp::Gt, CmpOp::Lt),
        Expr::Ge(a, b) => cmp_guard(a, b, CmpOp::Ge, CmpOp::Le),
        _ => None,
    }
}

/// Matches `(Prop, Lit)` in either operand order.
fn prop_and_lit<'a>(a: &'a Expr, b: &'a Expr) -> Option<(&'a Property, &'a Value)> {
    match (a, b) {
        (Expr::Prop(p), Expr::Lit(v)) | (Expr::Lit(v), Expr::Prop(p)) => Some((p, v)),
        _ => None,
    }
}

/// Builds a comparison guard from `a OP b`, flipping the operator when
/// the literal is on the left (`lit < prop` ⇒ `prop > lit`).
fn cmp_guard(a: &Expr, b: &Expr, direct: CmpOp, flipped: CmpOp) -> Option<Guard> {
    let (prop, value, op) = match (a, b) {
        (Expr::Prop(p), Expr::Lit(v)) => (p, v, direct),
        (Expr::Lit(v), Expr::Prop(p)) => (p, v, flipped),
        _ => return None,
    };
    if !property_is_numeric_infallible(prop) {
        return None;
    }
    let threshold = value.as_float().filter(|x| x.is_finite())?;
    Some(Guard::Cmp {
        prop: prop.clone(),
        op,
        threshold,
    })
}

/// A hashable key whose equality coincides exactly with the language's
/// `lang_eq` on indexable values: numerics collapse to their `f64`
/// image (the language compares `Int`/`Float` cross-kind through
/// `Value::as_float`), everything else keys on its own variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// A numeric value, keyed by canonical `f64` bits (`-0.0` folds
    /// into `+0.0`, matching `-0.0 == 0.0`).
    Num(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A component address.
    Addr(crate::model::NodeRef),
    /// An OpenFlow message type.
    MsgType(OfType),
    /// An IPv4 address.
    Ip(Ipv4Addr),
    /// A MAC address.
    Mac(MacAddr),
    /// The none value (`none == none` holds in the language).
    None,
}

impl ValueKey {
    /// The key for `value`, or `None` for unkeyable kinds (stored
    /// messages). NaN floats produce a key that equals no finite key,
    /// mirroring `NaN != x` — index builders must still reject them
    /// (see `literal_is_indexable`) because `NaN != NaN` would be
    /// violated by bucket lookup.
    pub(crate) fn of(value: &Value) -> Option<ValueKey> {
        Some(match value {
            Value::Int(_) | Value::Float(_) => {
                let x = value.as_float()?;
                ValueKey::Num(if x == 0.0 {
                    0.0f64.to_bits()
                } else {
                    x.to_bits()
                })
            }
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Str(s) => ValueKey::Str(s.clone()),
            Value::Addr(a) => ValueKey::Addr(*a),
            Value::MsgType(t) => ValueKey::MsgType(*t),
            Value::Ip(ip) => ValueKey::Ip(*ip),
            Value::Mac(m) => ValueKey::Mac(*m),
            Value::None => ValueKey::None,
            Value::Message(_) => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::conditional::DequeEnd;

    fn type_eq() -> Expr {
        Expr::eq(
            Expr::Prop(Property::Type),
            Expr::Lit(Value::MsgType(OfType::FlowMod)),
        )
    }

    #[test]
    fn leftmost_conjunct_is_the_anchor() {
        // type == FLOW_MOD && front(d) == 1 — anchored on the type test.
        let cond = Expr::and(
            type_eq(),
            Expr::eq(
                Expr::DequeRead {
                    deque: "d".into(),
                    end: DequeEnd::Front,
                },
                Expr::Lit(Value::Int(1)),
            ),
        );
        let g = anchor_guard(&cond).expect("indexable");
        assert_eq!(
            g,
            Guard::Eq {
                prop: Property::Type,
                value: Value::MsgType(OfType::FlowMod),
            }
        );
        // Swapped: the deque read comes first and defies indexing.
        let cond = Expr::and(
            Expr::eq(
                Expr::DequeRead {
                    deque: "d".into(),
                    end: DequeEnd::Front,
                },
                Expr::Lit(Value::Int(1)),
            ),
            type_eq(),
        );
        assert_eq!(anchor_guard(&cond), None);
    }

    #[test]
    fn truthy_literals_are_skipped_falsy_kill_the_rule() {
        let cond = Expr::and(Expr::Lit(Value::Bool(true)), type_eq());
        assert!(matches!(anchor_guard(&cond), Some(Guard::Eq { .. })));
        let cond = Expr::and(Expr::Lit(Value::Bool(false)), type_eq());
        assert_eq!(anchor_guard(&cond), Some(Guard::Never));
        // `when true` alone: no anchor, always a candidate.
        assert_eq!(anchor_guard(&Expr::always()), None);
    }

    #[test]
    fn literal_order_is_normalized() {
        let cond = Expr::eq(Expr::Lit(Value::Int(42)), Expr::Prop(Property::Length));
        assert_eq!(
            anchor_guard(&cond),
            Some(Guard::Eq {
                prop: Property::Length,
                value: Value::Int(42),
            })
        );
        // 10 < length ⇒ length > 10.
        let cond = Expr::Lt(
            Box::new(Expr::Lit(Value::Int(10))),
            Box::new(Expr::Prop(Property::Length)),
        );
        assert_eq!(
            anchor_guard(&cond),
            Some(Guard::Cmp {
                prop: Property::Length,
                op: CmpOp::Gt,
                threshold: 10.0,
            })
        );
    }

    #[test]
    fn membership_needs_all_literals() {
        let all_lits = Expr::In(
            Box::new(Expr::Prop(Property::Type)),
            vec![
                Expr::Lit(Value::MsgType(OfType::Hello)),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ],
        );
        assert!(
            matches!(anchor_guard(&all_lits), Some(Guard::In { values, .. }) if values.len() == 2)
        );
        let with_prop = Expr::In(
            Box::new(Expr::Prop(Property::Type)),
            vec![
                Expr::Lit(Value::MsgType(OfType::Hello)),
                Expr::Prop(Property::Type),
            ],
        );
        assert_eq!(anchor_guard(&with_prop), None);
    }

    #[test]
    fn comparisons_index_only_infallible_numeric_properties() {
        // msg["priority"] can fail (unparseable, missing field): residual.
        let cond = Expr::Gt(
            Box::new(Expr::Prop(Property::TypeOption("priority".into()))),
            Box::new(Expr::Lit(Value::Int(3))),
        );
        assert_eq!(anchor_guard(&cond), None);
        // Entropy is infallible and numeric: indexed.
        let cond = Expr::Le(
            Box::new(Expr::Prop(Property::Entropy)),
            Box::new(Expr::Lit(Value::Float(0.25))),
        );
        assert_eq!(
            anchor_guard(&cond),
            Some(Guard::Cmp {
                prop: Property::Entropy,
                op: CmpOp::Le,
                threshold: 0.25,
            })
        );
    }

    #[test]
    fn residual_shapes_yield_no_guard() {
        for cond in [
            Expr::or(type_eq(), type_eq()),
            Expr::Not(Box::new(type_eq())),
            Expr::Ne(
                Box::new(Expr::Prop(Property::Length)),
                Box::new(Expr::Lit(Value::Int(1))),
            ),
            Expr::eq(
                Expr::Add(
                    Box::new(Expr::Prop(Property::Id)),
                    Box::new(Expr::Lit(Value::Int(1))),
                ),
                Expr::Lit(Value::Int(2)),
            ),
            Expr::eq(
                Expr::Prop(Property::Source),
                Expr::Prop(Property::Destination),
            ),
        ] {
            assert_eq!(anchor_guard(&cond), None, "{cond:?}");
        }
    }

    #[test]
    fn nan_literals_are_not_indexable() {
        let cond = Expr::eq(
            Expr::Prop(Property::Entropy),
            Expr::Lit(Value::Float(f64::NAN)),
        );
        assert_eq!(anchor_guard(&cond), None);
        let cond = Expr::Gt(
            Box::new(Expr::Prop(Property::Entropy)),
            Box::new(Expr::Lit(Value::Float(f64::INFINITY))),
        );
        assert_eq!(anchor_guard(&cond), None);
    }

    #[test]
    fn value_keys_mirror_lang_eq() {
        // Int/Float cross-kind equality collapses to one key.
        assert_eq!(
            ValueKey::of(&Value::Int(3)),
            ValueKey::of(&Value::Float(3.0))
        );
        assert_ne!(
            ValueKey::of(&Value::Int(3)),
            ValueKey::of(&Value::Float(3.5))
        );
        // Signed zero folds.
        assert_eq!(
            ValueKey::of(&Value::Float(-0.0)),
            ValueKey::of(&Value::Int(0))
        );
        // Distinct kinds never collide.
        assert_ne!(
            ValueKey::of(&Value::Str("3".into())),
            ValueKey::of(&Value::Int(3))
        );
        // Messages are unkeyable.
        assert_eq!(
            ValueKey::of(&Value::Message(crate::lang::value::StoredMessage {
                conn: 0,
                to_controller: true,
                frame: attain_openflow::Frame::new(vec![]),
            })),
            None
        );
    }

    #[test]
    fn fallibility_classification() {
        assert!(property_read_is_fallible(&Property::Type));
        assert!(property_read_is_fallible(&Property::TypeOption("x".into())));
        for p in [
            Property::Source,
            Property::Destination,
            Property::Timestamp,
            Property::Length,
            Property::Id,
            Property::Entropy,
        ] {
            assert!(!property_read_is_fallible(&p), "{p}");
        }
    }
}
