//! The attack state graph `Σ_G` (paper §V-G): vertices are attack
//! states, edges are the `GOTOSTATE` transitions, and edge labels list
//! the actions of the rules that take them.

use crate::lang::state::Attack;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One labeled edge of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Source state index.
    pub from: usize,
    /// Target state index.
    pub to: usize,
    /// The edge-labeled attribute `a_{Σ_G}`: rendered actions of the
    /// rules in `from` that transition to `to`.
    pub label: Vec<String>,
}

/// The attack state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackStateGraph {
    /// State names, by index (the vertex set `V_{Σ_G} = Σ`).
    pub vertices: Vec<String>,
    /// Edges `E_{Σ_G} ⊆ Σ × Σ` with labels.
    pub edges: Vec<GraphEdge>,
    /// The start state.
    pub start: usize,
    /// Absorbing state indices.
    pub absorbing: Vec<usize>,
    /// End state indices.
    pub end: Vec<usize>,
}

impl AttackStateGraph {
    /// Derives the graph from an attack.
    pub(crate) fn from_attack(attack: &Attack) -> AttackStateGraph {
        let mut edges: Vec<GraphEdge> = Vec::new();
        for (i, state) in attack.states.iter().enumerate() {
            for rule in &state.rules {
                let targets: BTreeSet<usize> = rule.goto_targets().collect();
                for t in targets {
                    let label: Vec<String> = rule.actions.iter().map(|a| a.to_string()).collect();
                    if let Some(e) = edges.iter_mut().find(|e| e.from == i && e.to == t) {
                        e.label.extend(label);
                    } else {
                        edges.push(GraphEdge {
                            from: i,
                            to: t,
                            label,
                        });
                    }
                }
            }
        }
        AttackStateGraph {
            vertices: attack.states.iter().map(|s| s.name.clone()).collect(),
            edges,
            start: attack.start,
            absorbing: attack.absorbing_states(),
            end: attack.end_states(),
        }
    }

    /// States unreachable from the start state (useful lint: the paper's
    /// graphs are connected).
    pub fn unreachable_states(&self) -> Vec<usize> {
        let mut seen = vec![false; self.vertices.len()];
        let mut stack = vec![self.start];
        while let Some(s) = stack.pop() {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            for e in &self.edges {
                if e.from == s && !seen[e.to] {
                    stack.push(e.to);
                }
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, &v)| !v)
            .map(|(i, _)| i)
            .collect()
    }

    /// Renders the graph in Graphviz DOT, in the visual style of the
    /// paper's Figures 5, 6, 10b, and 12b (start arrow, double circles
    /// for absorbing states).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph attack_state_graph {\n  rankdir=LR;\n");
        out.push_str("  start [shape=point];\n");
        for (i, name) in self.vertices.iter().enumerate() {
            let shape = if self.absorbing.contains(&i) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  s{i} [label=\"{name}\", shape={shape}];");
        }
        let _ = writeln!(out, "  start -> s{};", self.start);
        for e in &self.edges {
            let label = e.label.join("\\n");
            let _ = writeln!(out, "  s{} -> s{} [label=\"{}\"];", e.from, e.to, label);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::action::AttackAction;
    use crate::lang::conditional::Expr;
    use crate::lang::rule::Rule;
    use crate::lang::state::AttackState;
    use crate::model::CapabilitySet;
    use crate::model::ConnectionId;

    fn rule(name: &str, actions: Vec<AttackAction>) -> Rule {
        Rule {
            name: name.into(),
            connections: vec![ConnectionId(0)],
            required: CapabilitySet::no_tls(),
            condition: Expr::always(),
            actions,
        }
    }

    /// The Figure 6 shape: a chain of history states.
    fn chain_attack() -> Attack {
        Attack {
            name: "history".into(),
            states: vec![
                AttackState {
                    name: "sigma1".into(),
                    rules: vec![rule(
                        "r1",
                        vec![AttackAction::Pass, AttackAction::GoToState(1)],
                    )],
                },
                AttackState {
                    name: "sigma2".into(),
                    rules: vec![rule(
                        "r2",
                        vec![AttackAction::Pass, AttackAction::GoToState(2)],
                    )],
                },
                AttackState {
                    name: "sigma3".into(),
                    rules: vec![rule("r3", vec![AttackAction::Drop])],
                },
            ],
            start: 0,
        }
    }

    #[test]
    fn graph_edges_follow_goto_actions() {
        let g = AttackStateGraph::from_attack(&chain_attack());
        assert_eq!(g.vertices, vec!["sigma1", "sigma2", "sigma3"]);
        assert_eq!(g.edges.len(), 2);
        assert_eq!((g.edges[0].from, g.edges[0].to), (0, 1));
        assert_eq!((g.edges[1].from, g.edges[1].to), (1, 2));
        assert_eq!(g.absorbing, vec![2]);
        assert!(g.end.is_empty());
        assert!(g.unreachable_states().is_empty());
    }

    #[test]
    fn edge_labels_carry_the_rule_actions() {
        let g = AttackStateGraph::from_attack(&chain_attack());
        assert!(g.edges[0].label.iter().any(|l| l.contains("PASSMESSAGE")));
        assert!(g.edges[0].label.iter().any(|l| l.contains("GOTOSTATE")));
    }

    #[test]
    fn unreachable_states_are_reported() {
        let mut a = chain_attack();
        a.states.push(AttackState {
            name: "orphan".into(),
            rules: vec![],
        });
        let g = AttackStateGraph::from_attack(&a);
        assert_eq!(g.unreachable_states(), vec![3]);
    }

    #[test]
    fn dot_output_is_well_formed() {
        let g = AttackStateGraph::from_attack(&chain_attack());
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("start -> s0"));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("doublecircle")); // σ3 is absorbing
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn parallel_rules_to_same_target_merge_labels() {
        let a = Attack {
            name: "merge".into(),
            states: vec![
                AttackState {
                    name: "s0".into(),
                    rules: vec![
                        rule("ra", vec![AttackAction::GoToState(1)]),
                        rule("rb", vec![AttackAction::Drop, AttackAction::GoToState(1)]),
                    ],
                },
                AttackState {
                    name: "s1".into(),
                    rules: vec![],
                },
            ],
            start: 0,
        };
        let g = AttackStateGraph::from_attack(&a);
        assert_eq!(g.edges.len(), 1);
        assert!(g.edges[0].label.len() >= 3);
        assert_eq!(g.end, vec![1]);
    }
}
