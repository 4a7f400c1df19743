//! Rules `φ = (n, γ, λ, α)` (paper §V-E).

use crate::lang::action::AttackAction;
use crate::lang::conditional::Expr;
use crate::model::CapabilitySet;
use crate::model::ConnectionId;

/// One attack rule: on which connections it applies (`n`), the
/// capabilities it assumes (`γ`), the conditional that triggers it
/// (`λ`), and the actions it takes (`α`).
///
/// The paper writes `n_i ∈ N_C`; its own Figure 10 rule applies to all
/// four connections at once, so `connections` is a set here.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (e.g. `phi1`), for logs and graphs.
    pub name: String,
    /// The connections the rule watches.
    pub connections: Vec<ConnectionId>,
    /// The capabilities the rule declares it needs (validated ⊇ the
    /// condition's and actions' requirements, and ⊆ the attack model's
    /// grant on every watched connection).
    pub required: CapabilitySet,
    /// The trigger condition λ.
    pub condition: Expr,
    /// The ordered action list α.
    pub actions: Vec<AttackAction>,
}

impl Rule {
    /// The capabilities actually exercised by the condition and actions.
    pub(crate) fn exercised_capabilities(&self) -> CapabilitySet {
        let mut caps = self.condition.required_capabilities();
        for a in &self.actions {
            caps = caps.union(&a.required_capabilities());
        }
        caps
    }

    /// `GOTOSTATE` targets named by this rule's actions.
    pub(crate) fn goto_targets(&self) -> impl Iterator<Item = usize> + '_ {
        self.actions.iter().filter_map(|a| a.goto_target())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::conditional::BinOp;
    use crate::lang::property::Property;
    use crate::lang::value::Value;
    use crate::model::Capability;
    use attain_openflow::OfType;

    fn rule() -> Rule {
        Rule {
            name: "phi1".into(),
            connections: vec![ConnectionId(0), ConnectionId(2)],
            required: [Capability::ReadMessage, Capability::DropMessage]
                .into_iter()
                .collect(),
            condition: BinOp::Eq.of(
                Expr::Prop(Property::Type),
                Expr::Lit(Value::MsgType(OfType::FlowMod)),
            ),
            actions: vec![AttackAction::Drop, AttackAction::GoToState(1)],
        }
    }

    #[test]
    fn exercised_combines_condition_and_actions() {
        let caps = rule().exercised_capabilities();
        assert!(caps.contains(Capability::ReadMessage));
        assert!(caps.contains(Capability::DropMessage));
        assert_eq!(caps.len(), 2);
    }

    #[test]
    fn goto_targets() {
        let targets: Vec<_> = rule().goto_targets().collect();
        assert_eq!(targets, vec![1]);
    }
}
