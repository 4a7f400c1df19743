//! Rendering compiled attacks back to DSL text — the inverse of the
//! compiler, so programmatically generated attacks (e.g. from
//! [`templates`](crate::lang::templates)) can be shared as `.atk` files.

use crate::dsl::Quoted;
use crate::lang::{Attack, AttackAction, BinOp, DequeEnd, Expr, Value};
use crate::model::{NodeRef, SystemModel};
use std::fmt::Write as _;

/// Error rendering an attack to DSL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderError {
    /// The attack embeds a value the textual syntax cannot express
    /// (e.g. a captured message literal).
    Unrepresentable(&'static str),
    /// A component or connection index does not exist in `system`.
    UnknownComponent(String),
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::Unrepresentable(what) => {
                write!(f, "{what} cannot be expressed in DSL syntax")
            }
            RenderError::UnknownComponent(what) => {
                write!(f, "attack references unknown component {what}")
            }
        }
    }
}

impl std::error::Error for RenderError {}

fn render_value(v: &Value, system: &SystemModel) -> Result<String, RenderError> {
    Ok(match v {
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            let s = format!("{x}");
            if s.contains('.') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => Quoted(s).to_string(),
        Value::Addr(node) => system.name_of(*node).to_string(),
        Value::MsgType(t) => t.spec_name().to_string(),
        Value::Ip(ip) => ip.to_string(),
        Value::Mac(m) => format!("mac(\"{m}\")"),
        Value::None => "none".to_string(),
        Value::Message(_) => {
            return Err(RenderError::Unrepresentable("a captured message literal"))
        }
    })
}

fn render_expr(e: &Expr, system: &SystemModel) -> Result<String, RenderError> {
    // An `in` binds as a comparison: bare it may stand as a whole
    // condition, under `!`, or as an operand of `&&`/`||`, but an
    // operand of anything binding as tightly needs parentheses.
    let operand = |e: &Expr, tight: bool| -> Result<String, RenderError> {
        let text = render_expr(e, system)?;
        Ok(match e {
            Expr::In(..) if tight => format!("({text})"),
            _ => text,
        })
    };
    Ok(match e {
        Expr::Lit(v) => render_value(v, system)?,
        Expr::Prop(p) => p.to_string(),
        Expr::DequeRead { deque, end } => match end {
            DequeEnd::Front => format!("front({deque})"),
            DequeEnd::End => format!("back({deque})"),
        },
        Expr::DequeLen(d) => format!("len({d})"),
        Expr::Not(inner) => format!("!({})", render_expr(inner, system)?),
        // `((a + b) - c)`: one parenthesis per operator.
        Expr::Bin(first, rest) => {
            let tight = rest
                .iter()
                .any(|(op, _)| op.binding_power() >= BinOp::Eq.binding_power());
            let mut text = "(".repeat(rest.len()) + &operand(first, tight)?;
            for (op, b) in rest {
                let _ = write!(text, " {} {})", op.symbol(), operand(b, tight)?);
            }
            text
        }
        Expr::In(needle, items) => {
            let rendered: Result<Vec<String>, RenderError> =
                items.iter().map(|i| operand(i, true)).collect();
            format!("{} in [{}]", operand(needle, true)?, rendered?.join(", "))
        }
        // `latency(T, T)` is a compile error, so `req == resp` plus
        // `Last` can only have come from `inter_arrival(T)`.
        Expr::Timing {
            req,
            resp,
            stat,
            window,
        } => match stat {
            crate::lang::TimingStat::Last if req == resp => {
                format!("inter_arrival({})", req.spec_name())
            }
            crate::lang::TimingStat::Last => {
                format!("latency({}, {})", req.spec_name(), resp.spec_name())
            }
            crate::lang::TimingStat::Mean => format!(
                "timing_mean({}, {}, {window})",
                req.spec_name(),
                resp.spec_name()
            ),
            crate::lang::TimingStat::StdDev => format!(
                "timing_stddev({}, {}, {window})",
                req.spec_name(),
                resp.spec_name()
            ),
            crate::lang::TimingStat::Count => {
                format!("timing_count({}, {})", req.spec_name(), resp.spec_name())
            }
        },
        Expr::ElapsedInState => "elapsed_in_state()".to_string(),
    })
}

fn conn_name(
    system: &SystemModel,
    conn: crate::model::ConnectionId,
) -> Result<String, RenderError> {
    if conn.0 >= system.connection_count() {
        return Err(RenderError::UnknownComponent(format!("connection {conn}")));
    }
    let (c, s) = system.connection(conn);
    Ok(format!(
        "({}, {})",
        system.name_of(NodeRef::Controller(c)),
        system.name_of(NodeRef::Switch(s))
    ))
}

fn render_action(
    a: &AttackAction,
    attack: &Attack,
    system: &SystemModel,
) -> Result<String, RenderError> {
    Ok(match a {
        AttackAction::Drop => "drop(msg);".to_string(),
        AttackAction::Pass => "pass(msg);".to_string(),
        AttackAction::Delay(e) => format!("delay(msg, {});", render_expr(e, system)?),
        AttackAction::Duplicate => "duplicate(msg);".to_string(),
        AttackAction::ReadMetadata => "read_metadata(msg);".to_string(),
        AttackAction::Read => "read(msg);".to_string(),
        AttackAction::ModifyMetadata { field, value } => format!(
            "modify_metadata(msg, {}, {});",
            Quoted(field),
            render_expr(value, system)?
        ),
        AttackAction::Modify { field, value } => {
            format!(
                "modify(msg, {}, {});",
                Quoted(field),
                render_expr(value, system)?
            )
        }
        AttackAction::Fuzz { flips } => format!("fuzz(msg, {flips});"),
        AttackAction::Inject {
            conn,
            to_controller,
            frame,
        } => {
            let hex: String = frame.bytes().iter().map(|b| format!("{b:02x}")).collect();
            format!(
                "inject({}, {}, hex({}));",
                conn_name(system, *conn)?,
                if *to_controller {
                    "to_controller"
                } else {
                    "to_switch"
                },
                Quoted(&hex),
            )
        }
        AttackAction::Prepend { deque, value } => {
            format!("prepend({deque}, {});", render_expr(value, system)?)
        }
        AttackAction::Append { deque, value } => {
            format!("append({deque}, {});", render_expr(value, system)?)
        }
        AttackAction::Shift(d) => format!("shift({d});"),
        AttackAction::Pop(d) => format!("pop({d});"),
        AttackAction::StoreMessage { deque, front } => {
            if *front {
                format!("prepend({deque}, msg);")
            } else {
                format!("append({deque}, msg);")
            }
        }
        AttackAction::EmitStored { deque, end } => match end {
            DequeEnd::Front => format!("emit_front({deque});"),
            DequeEnd::End => format!("emit_back({deque});"),
        },
        AttackAction::GoToState(target) => {
            let name = attack
                .states
                .get(*target)
                .map(|s| s.name.as_str())
                .ok_or_else(|| RenderError::UnknownComponent(format!("state {target}")))?;
            format!("goto {name};")
        }
        AttackAction::Sleep(e) => format!("sleep({});", render_expr(e, system)?),
        AttackAction::SysCmd { host, cmd } => format!("syscmd({host}, {});", Quoted(cmd)),
        AttackAction::Fault { spec } => format!("fault({});", Quoted(spec)),
    })
}

/// Renders `attack` as a DSL attack block that recompiles (against the
/// same `system` and a sufficiently permissive attack model) to a
/// structurally identical attack.
///
/// # Errors
///
/// Fails if the attack embeds values the textual syntax cannot express,
/// or references connections/states outside `system`/the attack.
pub fn render(attack: &Attack, system: &SystemModel) -> Result<String, RenderError> {
    let mut out = String::new();
    let _ = writeln!(out, "attack {} {{", attack.name);
    for (i, state) in attack.states.iter().enumerate() {
        let marker = if i == attack.start && attack.states.len() > 1 {
            "start "
        } else {
            ""
        };
        let _ = writeln!(out, "    {marker}state {} {{", state.name);
        for rule in &state.rules {
            let conns: Result<Vec<String>, RenderError> = rule
                .connections
                .iter()
                .map(|&c| conn_name(system, c))
                .collect();
            let caps: Vec<&str> = rule.required.iter().map(|c| c.dsl_name()).collect();
            let requires = if caps.is_empty() {
                "none".to_string()
            } else {
                format!("{{ {} }}", caps.join(", "))
            };
            let _ = writeln!(
                out,
                "        rule {} on {} requires {} {{",
                rule.name,
                conns?.join(", "),
                requires,
            );
            let _ = writeln!(
                out,
                "            when {}",
                render_expr(&rule.condition, system)?
            );
            let _ = writeln!(out, "            do {{");
            for action in &rule.actions {
                let _ = writeln!(
                    out,
                    "                {}",
                    render_action(action, attack, system)?
                );
            }
            let _ = writeln!(out, "            }}");
            let _ = writeln!(out, "        }}");
        }
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use crate::lang::templates;
    use crate::scenario;
    use attain_openflow::OfType;

    #[test]
    fn bundled_attacks_roundtrip_through_render() {
        let sc = scenario::enterprise_network();
        for (name, source) in scenario::attacks::ALL {
            let original = dsl::compile(source, &sc.system, &sc.attack_model)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .attack;
            let rendered =
                render(&original, &sc.system).unwrap_or_else(|e| panic!("{name} renders: {e}"));
            let reparsed = dsl::compile(&rendered, &sc.system, &sc.attack_model)
                .unwrap_or_else(|e| panic!("{name} rerendered source compiles: {e}\n{rendered}"))
                .attack;
            assert_eq!(reparsed, original, "{name} roundtrips\n{rendered}");
        }
    }

    #[test]
    fn template_attacks_roundtrip_through_render() {
        let sc = scenario::enterprise_network();
        let conns: Vec<_> = sc.system.connections().map(|(id, _, _)| id).collect();
        let generated = [
            templates::after_count(
                OfType::FlowMod,
                7,
                vec![crate::lang::AttackAction::Drop],
                conns.clone(),
            ),
            templates::suppress_type_with_probability(OfType::PacketIn, 0.25, conns),
        ];
        for attack in generated {
            let rendered = render(&attack, &sc.system).expect("template renders");
            let reparsed = dsl::compile(&rendered, &sc.system, &sc.attack_model)
                .unwrap_or_else(|e| panic!("{e}\n{rendered}"))
                .attack;
            assert_eq!(reparsed, attack, "template roundtrips\n{rendered}");
        }
    }

    #[test]
    fn captured_message_literals_are_rejected() {
        use crate::lang::{AttackState, Expr, Rule, StoredMessage, Value};
        use crate::model::{CapabilitySet, ConnectionId};
        let sc = scenario::enterprise_network();
        let attack = Attack {
            name: "weird".into(),
            states: vec![AttackState {
                name: "s".into(),
                rules: vec![Rule {
                    name: "r".into(),
                    connections: vec![ConnectionId(0)],
                    required: CapabilitySet::no_tls(),
                    condition: Expr::Lit(Value::Message(StoredMessage {
                        conn: 0,
                        to_controller: true,
                        frame: attain_openflow::Frame::new(vec![]),
                    })),
                    actions: vec![],
                }],
            }],
            start: 0,
        };
        assert!(matches!(
            render(&attack, &sc.system),
            Err(RenderError::Unrepresentable(_))
        ));
    }
}
