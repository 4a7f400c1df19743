//! Attack state graph templates (the paper's §X future work): generate
//! larger attack descriptions programmatically "without having to
//! manually generate many of the lower-level details".
//!
//! Each template returns a plain [`Attack`] that validates against any
//! attack model granting `Γ_NoTLS` on the named connections, and can be
//! rendered, inspected, or executed like a hand-written one.

use crate::lang::{
    Attack, AttackAction, AttackState, BinOp, DequeEnd, Expr, Property, Rule, Value,
};
use crate::model::{CapabilitySet, ConnectionId};
use attain_openflow::OfType;

fn type_is(t: OfType) -> Expr {
    BinOp::Eq.of(Expr::Prop(Property::Type), Expr::Lit(Value::MsgType(t)))
}

/// The §VIII-B counter pattern as a template: let `n` messages of type
/// `t` through, then apply `payload` actions to every further one — one
/// state and O(1) storage regardless of `n`.
pub fn after_count(
    t: OfType,
    n: i64,
    payload: Vec<AttackAction>,
    connections: Vec<ConnectionId>,
) -> Attack {
    assert!(n >= 0, "count must be non-negative");
    let counter = "counter".to_string();
    let front = || Expr::DequeRead {
        deque: counter.clone(),
        end: DequeEnd::Front,
    };
    let watch = AttackState {
        name: "watch".into(),
        rules: vec![
            Rule {
                name: "init".into(),
                connections: connections.clone(),
                required: CapabilitySet::no_tls(),
                condition: BinOp::And.of(
                    BinOp::Eq.of(Expr::DequeLen(counter.clone()), Expr::Lit(Value::Int(0))),
                    type_is(t),
                ),
                actions: vec![AttackAction::Prepend {
                    deque: counter.clone(),
                    value: Expr::Lit(Value::Int(0)),
                }],
            },
            Rule {
                name: "count".into(),
                connections: connections.clone(),
                required: CapabilitySet::no_tls(),
                condition: BinOp::And
                    .of(type_is(t), BinOp::Lt.of(front(), Expr::Lit(Value::Int(n)))),
                actions: vec![
                    AttackAction::Prepend {
                        deque: counter.clone(),
                        value: BinOp::Add.of(front(), Expr::Lit(Value::Int(1))),
                    },
                    AttackAction::Pop(counter.clone()),
                    AttackAction::Pass,
                ],
            },
            Rule {
                name: "trigger".into(),
                connections: connections.clone(),
                required: CapabilitySet::no_tls(),
                condition: BinOp::Eq.of(front(), Expr::Lit(Value::Int(n))),
                actions: vec![AttackAction::GoToState(1)],
            },
        ],
    };
    let strike = AttackState {
        name: "strike".into(),
        rules: vec![Rule {
            name: "strike".into(),
            connections,
            required: CapabilitySet::no_tls(),
            condition: type_is(t),
            actions: payload,
        }],
    };
    Attack {
        name: format!("after_{n}_{}", t.spec_name().to_lowercase()),
        states: vec![watch, strike],
        start: 0,
    }
}

/// A single-state attack that drops each message of type `t` on the
/// given connections independently with probability `p` (the §VIII-A
/// future-work extension of the Figure 10 pattern), using the executor's deterministic per-message entropy so runs
/// stay reproducible.
///
/// # Panics
///
/// Panics unless `0.0 <= p <= 1.0`.
pub fn suppress_type_with_probability(t: OfType, p: f64, connections: Vec<ConnectionId>) -> Attack {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    Attack {
        name: format!(
            "suppress_{}_p{:.0}",
            t.spec_name().to_lowercase(),
            p * 100.0
        ),
        states: vec![AttackState {
            name: "lossy".into(),
            rules: vec![Rule {
                name: "phi1".into(),
                connections,
                required: CapabilitySet::no_tls(),
                condition: BinOp::And.of(
                    type_is(t),
                    BinOp::Lt.of(Expr::Prop(Property::Entropy), Expr::Lit(Value::Float(p))),
                ),
                actions: vec![AttackAction::Drop],
            }],
        }],
        start: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conns() -> Vec<ConnectionId> {
        vec![ConnectionId(0)]
    }

    #[test]
    fn after_count_uses_constant_storage() {
        // Same structure no matter how large n grows: the §VIII-B claim.
        let small = after_count(OfType::FlowMod, 3, vec![AttackAction::Drop], conns());
        let large = after_count(
            OfType::FlowMod,
            1_000_000,
            vec![AttackAction::Drop],
            conns(),
        );
        small.validate().expect("validates");
        large.validate().expect("validates");
        assert_eq!(small.states.len(), large.states.len());
    }

    #[test]
    fn stochastic_template_reads_entropy() {
        let a = suppress_type_with_probability(OfType::FlowMod, 0.25, conns());
        a.validate().expect("validates");
        let caps = a.states[0].rules[0].exercised_capabilities();
        assert!(caps.contains(crate::model::Capability::ReadMessageMetadata));
        assert!(caps.contains(crate::model::Capability::DropMessage));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn stochastic_template_rejects_bad_p() {
        suppress_type_with_probability(OfType::FlowMod, 1.5, conns());
    }
}
