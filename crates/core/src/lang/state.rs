//! Attack states `Σ` and whole attacks (paper §V-F).

use crate::lang::rule::Rule;
use std::fmt;

/// One attack stage `σ`: an unordered set of rules.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackState {
    /// State name (e.g. `sigma1`).
    pub name: String,
    /// The state's rules (empty ⇒ an *end* state that interferes with
    /// nothing).
    pub rules: Vec<Rule>,
}

impl AttackState {
    /// Whether this is an end state (`σ = ∅`, §V-F3).
    pub(crate) fn is_end(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A complete attack: its states and the start state.
#[derive(Debug, Clone, PartialEq)]
pub struct Attack {
    /// Attack name.
    pub name: String,
    /// The state set `Σ` (`|Σ| ≥ 1`, §V-F1).
    pub states: Vec<AttackState>,
    /// Index of `σ_start`.
    pub start: usize,
}

/// Error validating an attack's state structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// `|Σ| = 0`.
    NoStates,
    /// `σ_start` out of range.
    BadStart(usize),
    /// A `GOTOSTATE` action names a state out of range.
    BadTransition {
        /// Originating state index.
        from: usize,
        /// Missing target index.
        to: usize,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NoStates => write!(f, "an attack must have at least one state"),
            AttackError::BadStart(s) => write!(f, "start state index {s} is out of range"),
            AttackError::BadTransition { from, to } => {
                write!(f, "state {from} transitions to nonexistent state {to}")
            }
        }
    }
}

impl std::error::Error for AttackError {}

impl Attack {
    /// Validates the structural rules of §V-F.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`] naming the violated constraint.
    pub(crate) fn validate(&self) -> Result<(), AttackError> {
        if self.states.is_empty() {
            return Err(AttackError::NoStates);
        }
        if self.start >= self.states.len() {
            return Err(AttackError::BadStart(self.start));
        }
        for (i, state) in self.states.iter().enumerate() {
            for rule in &state.rules {
                for target in rule.goto_targets() {
                    if target >= self.states.len() {
                        return Err(AttackError::BadTransition {
                            from: i,
                            to: target,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// State indices with no outgoing transition to a *different* state —
    /// the absorbing states `σ_absorbing` (§V-F2).
    pub(crate) fn absorbing_states(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !s.rules
                    .iter()
                    .flat_map(|r| r.goto_targets())
                    .any(|t| t != *i)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// End-state indices (absorbing states with no rules, §V-F3).
    pub(crate) fn end_states(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_end())
            .map(|(i, _)| i)
            .collect()
    }

    /// The attack's states.
    pub(crate) fn states(&self) -> &[AttackState] {
        &self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::action::AttackAction;
    use crate::lang::conditional::Expr;
    use crate::model::CapabilitySet;
    use crate::model::ConnectionId;

    fn rule_going_to(name: &str, target: usize) -> Rule {
        Rule {
            name: name.into(),
            connections: vec![ConnectionId(0)],
            required: CapabilitySet::no_tls(),
            condition: Expr::always(),
            actions: vec![AttackAction::GoToState(target)],
        }
    }

    fn rule_plain(name: &str) -> Rule {
        Rule {
            name: name.into(),
            connections: vec![ConnectionId(0)],
            required: CapabilitySet::no_tls(),
            condition: Expr::always(),
            actions: vec![AttackAction::Drop],
        }
    }

    #[test]
    fn trivial_single_state_attack_like_figure_5() {
        let a = Attack {
            name: "trivial".into(),
            states: vec![AttackState {
                name: "sigma1".into(),
                rules: vec![],
            }],
            start: 0,
        };
        a.validate().unwrap();
        assert_eq!(a.absorbing_states(), vec![0]);
        assert_eq!(a.end_states(), vec![0]); // no rules ⇒ end state
    }

    #[test]
    fn classification_like_figure_12() {
        // σ1 → σ2 → σ3 (dropping, absorbing, not an end state).
        let a = Attack {
            name: "interruption".into(),
            states: vec![
                AttackState {
                    name: "sigma1".into(),
                    rules: vec![rule_going_to("phi1", 1)],
                },
                AttackState {
                    name: "sigma2".into(),
                    rules: vec![rule_going_to("phi2", 2)],
                },
                AttackState {
                    name: "sigma3".into(),
                    rules: vec![rule_plain("phi3")],
                },
            ],
            start: 0,
        };
        a.validate().unwrap();
        assert_eq!(a.absorbing_states(), vec![2]);
        assert!(a.end_states().is_empty()); // σ3 has rules: absorbing, not end
    }

    #[test]
    fn self_loops_are_still_absorbing() {
        let a = Attack {
            name: "loop".into(),
            states: vec![AttackState {
                name: "s".into(),
                rules: vec![rule_going_to("r", 0)],
            }],
            start: 0,
        };
        a.validate().unwrap();
        assert_eq!(a.absorbing_states(), vec![0]);
    }

    #[test]
    fn validation_catches_structural_errors() {
        let empty = Attack {
            name: "x".into(),
            states: vec![],
            start: 0,
        };
        assert_eq!(empty.validate().unwrap_err(), AttackError::NoStates);

        let bad_start = Attack {
            name: "x".into(),
            states: vec![AttackState {
                name: "s".into(),
                rules: vec![],
            }],
            start: 5,
        };
        assert_eq!(bad_start.validate().unwrap_err(), AttackError::BadStart(5));

        let bad_goto = Attack {
            name: "x".into(),
            states: vec![AttackState {
                name: "s".into(),
                rules: vec![rule_going_to("r", 9)],
            }],
            start: 0,
        };
        assert_eq!(
            bad_goto.validate().unwrap_err(),
            AttackError::BadTransition { from: 0, to: 9 }
        );
    }
}
