//! The compiler (paper §VI-B1): resolves parsed attack descriptions
//! against the system and attack models, validates capabilities, and
//! produces executable [`Attack`]s.

use crate::dsl::ast::*;
use crate::dsl::lexer::DslError;
use crate::dsl::parser;
use crate::exec::validate_attack;
use crate::lang::{
    Attack, AttackAction, AttackState, AttackStateGraph, DequeEnd, Expr, Property, Rule, Value,
};
use crate::model::{
    AttackModel, Capability, CapabilitySet, ConnectionId, DataEdge, NodeRef, SystemModel,
};
use attain_openflow::{MacAddr, OfType};

/// A fully compiled and validated attack.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledAttack {
    /// The executable attack.
    pub attack: Attack,
    /// Its state graph `Σ_G`.
    pub graph: AttackStateGraph,
}

impl CompiledAttack {
    /// The attack's name.
    pub fn name(&self) -> &str {
        &self.attack.name
    }

    /// The attack's states.
    pub fn states(&self) -> &[crate::lang::AttackState] {
        self.attack.states()
    }
}

/// A compiled self-contained document: system model, attack model, and
/// attacks — the paper's three compiler inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDocument {
    /// The system model from the `system` block.
    pub system: SystemModel,
    /// The attack model from the `capabilities` block (uniform
    /// `Γ_NoTLS` when absent).
    pub attack_model: AttackModel,
    /// The compiled attacks.
    pub attacks: Vec<CompiledAttack>,
}

/// Compiles an attack-only source (the system and attack models supplied
/// programmatically), returning the first attack.
///
/// # Errors
///
/// Fails on syntax errors, unresolved names, capability violations, or
/// if the source contains `system`/`capabilities` blocks or no attack.
pub fn compile(
    source: &str,
    system: &SystemModel,
    model: &AttackModel,
) -> Result<CompiledAttack, DslError> {
    let mut attacks = compile_all(source, system, model)?;
    if attacks.is_empty() {
        return Err(DslError::new(1, "source contains no attack block"));
    }
    Ok(attacks.remove(0))
}

/// Compiles every attack in an attack-only source.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_all(
    source: &str,
    system: &SystemModel,
    model: &AttackModel,
) -> Result<Vec<CompiledAttack>, DslError> {
    let doc = parser::parse(source)?;
    let model_lines = [
        doc.system.as_ref().map(|b| b.line),
        doc.capabilities.as_ref().map(|b| b.line),
    ];
    if let Some(line) = model_lines.into_iter().flatten().min() {
        return Err(DslError::new(
            line,
            "attack-only source expected; use compile_document for self-contained files",
        ));
    }
    doc.attacks
        .into_iter()
        .map(|a| compile_attack(a, system, model))
        .collect()
}

/// Compiles a self-contained document with `system`, optional
/// `capabilities`, and attack blocks.
///
/// # Errors
///
/// As [`compile`], plus system-model construction errors.
pub fn compile_document(source: &str) -> Result<CompiledDocument, DslError> {
    let doc = parser::parse(source)?;
    let Some(system_block) = &doc.system else {
        return Err(DslError::new(1, "document has no system block"));
    };
    let system = compile_system(system_block)?;
    let attack_model = match &doc.capabilities {
        Some(caps) => compile_capabilities(caps, &system)?,
        None => AttackModel::uniform(&system, CapabilitySet::no_tls()),
    };
    let attacks = doc
        .attacks
        .into_iter()
        .map(|a| compile_attack(a, &system, &attack_model))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CompiledDocument {
        system,
        attack_model,
        attacks,
    })
}

// ---------------------------------------------------------------------------
// System + capabilities
// ---------------------------------------------------------------------------

fn compile_system(block: &SystemBlock) -> Result<SystemModel, DslError> {
    let mut system = SystemModel::new();
    // Components first, then topology, so links may reference nodes
    // declared later.
    for stmt in &block.stmts {
        let result = match stmt {
            SystemStmt::Controller { name, .. } => system.add_controller(name).map(|_| ()),
            SystemStmt::Switch { name, .. } => system.add_switch(name).map(|_| ()),
            SystemStmt::Host { name, ip, mac, .. } => {
                let mac = match mac {
                    Some(text) => Some(text.parse::<MacAddr>().map_err(|_| {
                        DslError::new(stmt_line(stmt), format!("invalid MAC address {text:?}"))
                    })?),
                    None => None,
                };
                system.add_host(name, *ip, mac).map(|_| ())
            }
            _ => Ok(()),
        };
        result.map_err(|e| DslError::new(stmt_line(stmt), e.to_string()))?;
    }
    let mut next_port: std::collections::HashMap<String, u16> = std::collections::HashMap::new();
    for stmt in &block.stmts {
        match stmt {
            SystemStmt::Link { a, b } => {
                let ra = system
                    .resolve(&a.node)
                    .ok_or_else(|| DslError::new(a.line, format!("unknown node {}", a.node)))?;
                let rb = system
                    .resolve(&b.node)
                    .ok_or_else(|| DslError::new(b.line, format!("unknown node {}", b.node)))?;
                let mut port_for = |name: &str, explicit: Option<u16>| match explicit {
                    Some(p) => {
                        let slot = next_port.entry(name.to_string()).or_insert(0);
                        *slot = (*slot).max(p);
                        p
                    }
                    None => {
                        let slot = next_port.entry(name.to_string()).or_insert(0);
                        *slot += 1;
                        *slot
                    }
                };
                use crate::model::NodeRef;
                match (ra, rb) {
                    (NodeRef::Host(h), NodeRef::Switch(s)) => {
                        let port = port_for(&b.node, b.port);
                        system
                            .add_host_link(h, s, port)
                            .map_err(|e| DslError::new(a.line, e.to_string()))?;
                    }
                    (NodeRef::Switch(s), NodeRef::Host(h)) => {
                        let port = port_for(&a.node, a.port);
                        system
                            .add_host_link(h, s, port)
                            .map_err(|e| DslError::new(a.line, e.to_string()))?;
                    }
                    (NodeRef::Switch(sa), NodeRef::Switch(sb)) => {
                        let pa = port_for(&a.node, a.port);
                        let pb = port_for(&b.node, b.port);
                        system
                            .add_switch_link(sa, pa, sb, pb)
                            .map_err(|e| DslError::new(a.line, e.to_string()))?;
                    }
                    _ => {
                        return Err(DslError::new(
                            a.line,
                            "links connect hosts to switches or switches to switches",
                        ))
                    }
                }
            }
            SystemStmt::Connection {
                controller,
                switch,
                line,
            } => {
                use crate::model::NodeRef;
                let c = match system.resolve(controller) {
                    Some(NodeRef::Controller(c)) => c,
                    _ => {
                        return Err(DslError::new(
                            *line,
                            format!("{controller} is not a controller"),
                        ))
                    }
                };
                let s = match system.resolve(switch) {
                    Some(NodeRef::Switch(s)) => s,
                    _ => return Err(DslError::new(*line, format!("{switch} is not a switch"))),
                };
                system
                    .add_connection(c, s)
                    .map_err(|e| DslError::new(*line, e.to_string()))?;
            }
            _ => {}
        }
    }
    system
        .validate()
        .map_err(|e| DslError::new(block.line, e.to_string()))?;
    Ok(system)
}

fn stmt_line(stmt: &SystemStmt) -> u32 {
    match stmt {
        SystemStmt::Controller { line, .. }
        | SystemStmt::Switch { line, .. }
        | SystemStmt::Host { line, .. }
        | SystemStmt::Connection { line, .. } => *line,
        SystemStmt::Link { a, .. } => a.line,
    }
}

fn cap_class_to_set(class: &CapClass, line: u32) -> Result<CapabilitySet, DslError> {
    Ok(match class {
        CapClass::NoTls => CapabilitySet::no_tls(),
        CapClass::Tls => CapabilitySet::tls(),
        CapClass::None => CapabilitySet::EMPTY,
        CapClass::Explicit(names) => {
            let mut set = CapabilitySet::new();
            for name in names {
                let cap = Capability::parse(name)
                    .ok_or_else(|| DslError::new(line, format!("unknown capability `{name}`")))?;
                set.insert(cap);
            }
            set
        }
    })
}

fn compile_capabilities(
    block: &CapabilitiesBlock,
    system: &SystemModel,
) -> Result<AttackModel, DslError> {
    let default = match &block.default {
        Some((class, line)) => cap_class_to_set(class, *line)?,
        None => CapabilitySet::no_tls(),
    };
    let mut model = AttackModel::uniform(system, default);
    for (c, s, class, line) in &block.overrides {
        let conn = system.connection_by_names(c, s).ok_or_else(|| {
            DslError::new(
                *line,
                format!("({c}, {s}) is not a control plane connection"),
            )
        })?;
        model.set(conn, cap_class_to_set(class, *line)?);
    }
    Ok(model)
}

// ---------------------------------------------------------------------------
// Attacks
// ---------------------------------------------------------------------------

fn compile_attack(
    block: AttackBlock,
    system: &SystemModel,
    model: &AttackModel,
) -> Result<CompiledAttack, DslError> {
    if block.states.is_empty() {
        return Err(DslError::new(
            block.line,
            format!("attack {} has no states", block.name),
        ));
    }
    let starts: Vec<usize> = block
        .states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.start)
        .map(|(i, _)| i)
        .collect();
    let start = match starts.as_slice() {
        [] if block.states.len() == 1 => 0,
        [one] => *one,
        [] => {
            return Err(DslError::new(
                block.line,
                "multi-state attacks must mark one `start state`",
            ))
        }
        _ => {
            return Err(DslError::new(
                block.line,
                "more than one state is marked `start`",
            ))
        }
    };
    // `goto` resolution outlives the move of each state below, so the
    // name table is captured up front (the only per-state copy left —
    // everything else in the AST is moved into the compiled attack).
    let state_names: Vec<String> = block.states.iter().map(|s| s.name.clone()).collect();
    let state_index = move |name: &str, line: u32| {
        state_names
            .iter()
            .position(|s| s == name)
            .ok_or_else(|| DslError::new(line, format!("unknown state `{name}`")))
    };

    let mut states = Vec::with_capacity(block.states.len());
    for decl in block.states {
        let mut rules = Vec::with_capacity(decl.rules.len());
        for rd in decl.rules {
            let connections: Vec<ConnectionId> = match &rd.connections {
                ConnSpec::All => system.connections().map(|(id, _, _)| id).collect(),
                ConnSpec::List(list) => list
                    .iter()
                    .map(|(c, s)| {
                        system.connection_by_names(c, s).ok_or_else(|| {
                            DslError::new(
                                rd.line,
                                format!("({c}, {s}) is not a control plane connection"),
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?,
            };
            if connections.is_empty() {
                return Err(DslError::new(
                    rd.line,
                    format!("rule {} watches no connections", rd.name),
                ));
            }
            let condition = compile_expr(rd.condition, system)?;
            let actions = rd
                .actions
                .into_iter()
                .map(|a| compile_action(a, system, &state_index))
                .collect::<Result<Vec<_>, _>>()?;
            let mut rule = Rule {
                name: rd.name,
                connections,
                required: CapabilitySet::EMPTY,
                condition,
                actions,
            };
            rule.required = match &rd.requires {
                Some(class) => cap_class_to_set(class, rd.line)?,
                None => rule.exercised_capabilities(),
            };
            rules.push(rule);
        }
        states.push(AttackState {
            name: decl.name,
            rules,
        });
    }
    let attack = Attack {
        name: block.name,
        states,
        start,
    };
    validate_attack(system, model, &attack)
        .map_err(|e| DslError::new(block.line, e.to_string()))?;
    let graph = AttackStateGraph::from_attack(&attack);
    Ok(CompiledAttack { attack, graph })
}

fn compile_expr(ast: ExprAst, system: &SystemModel) -> Result<Expr, DslError> {
    Ok(match ast {
        ExprAst::Int(i) => Expr::Lit(Value::Int(i)),
        ExprAst::Float(x) => Expr::Lit(Value::Float(x)),
        ExprAst::Str(s) => Expr::Lit(Value::Str(s)),
        ExprAst::Ip(ip) => Expr::Lit(Value::Ip(ip)),
        ExprAst::Bool(b) => Expr::Lit(Value::Bool(b)),
        ExprAst::NoneLit => Expr::Lit(Value::None),
        ExprAst::MacLit(text, line) => {
            Expr::Lit(Value::Mac(text.parse().map_err(|_| {
                DslError::new(line, format!("invalid MAC address {text:?}"))
            })?))
        }
        ExprAst::Name(name, line) => {
            if let Some(t) = OfType::from_spec_name(&name) {
                Expr::Lit(Value::MsgType(t))
            } else if let Some(node) = system.resolve(&name) {
                Expr::Lit(Value::Addr(node))
            } else {
                return Err(DslError::new(
                    line,
                    format!("`{name}` is neither a component nor an OpenFlow message type"),
                ));
            }
        }
        ExprAst::MsgProp(prop, line) => Expr::Prop(Property::named(&prop).ok_or_else(|| {
            DslError::new(
                line,
                format!("unknown message property `{prop}` (use msg[\"path\"] for type options)"),
            )
        })?),
        ExprAst::MsgOption(path) => Expr::Prop(Property::TypeOption(path)),
        ExprAst::DequeFn { func, deque } => match func.as_str() {
            "front" => Expr::DequeRead {
                deque,
                end: DequeEnd::Front,
            },
            "back" => Expr::DequeRead {
                deque,
                end: DequeEnd::End,
            },
            "len" => Expr::DequeLen(deque),
            _ => unreachable!("parser only yields front/back/len"),
        },
        ExprAst::Not(e) => Expr::Not(Box::new(compile_expr(*e, system)?)),
        ExprAst::Bin { op, lhs, rhs } => {
            op.of(compile_expr(*lhs, system)?, compile_expr(*rhs, system)?)
        }
        ExprAst::In(needle, items) => Expr::In(
            Box::new(compile_expr(*needle, system)?),
            items
                .into_iter()
                .map(|i| compile_expr(i, system))
                .collect::<Result<_, _>>()?,
        ),
        ExprAst::TimingFn { func, args, line } => compile_timing_fn(&func, &args, line)?,
    })
}

/// Resolves a timing-predicate argument that must name an OpenFlow
/// message type.
fn timing_type_arg(arg: &ExprAst, func: &str, line: u32) -> Result<OfType, DslError> {
    match arg {
        ExprAst::Name(name, line) => OfType::from_spec_name(name).ok_or_else(|| {
            DslError::new(
                *line,
                format!("`{name}` is not an OpenFlow message type (in `{func}(...)`)"),
            )
        }),
        _ => Err(DslError::new(
            line,
            format!("`{func}` takes OpenFlow message-type names (e.g. PACKET_IN) as arguments"),
        )),
    }
}

/// Resolves a timing-predicate window argument: an integer literal in
/// `1..=MAX_TIMING_WINDOW`.
fn timing_window_arg(arg: &ExprAst, func: &str, line: u32) -> Result<u32, DslError> {
    match arg {
        ExprAst::Int(n) if (1..=i64::from(crate::lang::MAX_TIMING_WINDOW)).contains(n) => {
            Ok(*n as u32)
        }
        ExprAst::Int(n) => Err(DslError::new(
            line,
            format!(
                "`{func}` window must be in 1..={}, got {n}",
                crate::lang::MAX_TIMING_WINDOW
            ),
        )),
        _ => Err(DslError::new(
            line,
            format!("`{func}` window must be an integer literal"),
        )),
    }
}

fn compile_timing_fn(func: &str, args: &[ExprAst], line: u32) -> Result<Expr, DslError> {
    use crate::lang::TimingStat;
    let arity = |want: usize, shape: &str| -> Result<(), DslError> {
        if args.len() == want {
            Ok(())
        } else {
            Err(DslError::new(
                line,
                format!(
                    "`{func}` expects {want} argument{} {shape}, found {}",
                    if want == 1 { "" } else { "s" },
                    args.len()
                ),
            ))
        }
    };
    Ok(match func {
        "elapsed_in_state" => {
            arity(0, "()")?;
            Expr::ElapsedInState
        }
        "latency" => {
            arity(2, "(request type, response type)")?;
            let req = timing_type_arg(&args[0], func, line)?;
            let resp = timing_type_arg(&args[1], func, line)?;
            if req == resp {
                return Err(DslError::new(
                    line,
                    format!(
                        "`latency` request and response types must differ \
                         (use `inter_arrival({})` for same-type gaps)",
                        req.spec_name()
                    ),
                ));
            }
            Expr::Timing {
                req,
                resp,
                stat: TimingStat::Last,
                window: 1,
            }
        }
        "inter_arrival" => {
            arity(1, "(message type)")?;
            let t = timing_type_arg(&args[0], func, line)?;
            Expr::Timing {
                req: t,
                resp: t,
                stat: TimingStat::Last,
                window: 1,
            }
        }
        "timing_count" => {
            arity(2, "(request type, response type)")?;
            Expr::Timing {
                req: timing_type_arg(&args[0], func, line)?,
                resp: timing_type_arg(&args[1], func, line)?,
                stat: TimingStat::Count,
                window: 1,
            }
        }
        "timing_mean" | "timing_stddev" => {
            arity(3, "(request type, response type, window)")?;
            Expr::Timing {
                req: timing_type_arg(&args[0], func, line)?,
                resp: timing_type_arg(&args[1], func, line)?,
                stat: if func == "timing_mean" {
                    TimingStat::Mean
                } else {
                    TimingStat::StdDev
                },
                window: timing_window_arg(&args[2], func, line)?,
            }
        }
        other => unreachable!("parser only yields timing predicates, got `{other}`"),
    })
}

fn decode_hex(text: &str, line: u32) -> Result<Vec<u8>, DslError> {
    let clean: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    if !clean.len().is_multiple_of(2) {
        return Err(DslError::new(line, "hex literal has odd length"));
    }
    (0..clean.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&clean[i..i + 2], 16)
                .map_err(|_| DslError::new(line, "invalid hex digit"))
        })
        .collect()
}

fn compile_action(
    ast: ActionAst,
    system: &SystemModel,
    state_index: &impl Fn(&str, u32) -> Result<usize, DslError>,
) -> Result<AttackAction, DslError> {
    Ok(match ast {
        ActionAst::Drop => AttackAction::Drop,
        ActionAst::Pass => AttackAction::Pass,
        ActionAst::Duplicate => AttackAction::Duplicate,
        ActionAst::Read => AttackAction::Read,
        ActionAst::ReadMetadata => AttackAction::ReadMetadata,
        ActionAst::Delay(e) => AttackAction::Delay(compile_expr(e, system)?),
        ActionAst::Modify(field, e) => AttackAction::Modify {
            field,
            value: compile_expr(e, system)?,
        },
        ActionAst::ModifyMetadata(field, e) => AttackAction::ModifyMetadata {
            field,
            value: compile_expr(e, system)?,
        },
        ActionAst::Fuzz(flips) => AttackAction::Fuzz { flips },
        ActionAst::Inject {
            conn: (c, s),
            to_controller,
            hex,
            line,
        } => {
            let conn = system.connection_by_names(&c, &s).ok_or_else(|| {
                DslError::new(
                    line,
                    format!("({c}, {s}) is not a control plane connection"),
                )
            })?;
            AttackAction::Inject {
                conn,
                to_controller,
                frame: attain_openflow::Frame::new(decode_hex(&hex, line)?),
            }
        }
        ActionAst::Append { deque, value } => match value {
            Some(e) => AttackAction::Append {
                deque,
                value: compile_expr(e, system)?,
            },
            None => AttackAction::StoreMessage {
                deque,
                front: false,
            },
        },
        ActionAst::Prepend { deque, value } => match value {
            Some(e) => AttackAction::Prepend {
                deque,
                value: compile_expr(e, system)?,
            },
            None => AttackAction::StoreMessage { deque, front: true },
        },
        ActionAst::Shift(d) => AttackAction::Shift(d),
        ActionAst::Pop(d) => AttackAction::Pop(d),
        ActionAst::EmitFront(d) => AttackAction::EmitStored {
            deque: d,
            end: DequeEnd::Front,
        },
        ActionAst::EmitBack(d) => AttackAction::EmitStored {
            deque: d,
            end: DequeEnd::End,
        },
        ActionAst::Goto(target, line) => AttackAction::GoToState(state_index(&target, line)?),
        ActionAst::Sleep(e) => AttackAction::Sleep(compile_expr(e, system)?),
        ActionAst::SysCmd { host, cmd, line } => {
            if system.resolve(&host).is_none() {
                return Err(DslError::new(line, format!("unknown host `{host}`")));
            }
            AttackAction::SysCmd { host, cmd }
        }
        ActionAst::Fault { spec, line } => {
            // Shallow validation: the full grammar lives with the
            // simulator, but target kinds, component names and the
            // data-plane links are known here, and a typo should fail at
            // compile time, not silently no-op at run time.
            let toks: Vec<&str> = spec.split_whitespace().collect();
            let err = |msg: String| Err(DslError::new(line, msg));
            match toks.as_slice() {
                ["link", ab, _, ..] => {
                    let Some((a, b)) = ab.split_once('-') else {
                        return err(format!("fault link target `{ab}` is not `A-B`"));
                    };
                    let end = |n: &str| {
                        system.resolve(n).ok_or_else(|| {
                            DslError::new(
                                line,
                                format!("unknown component `{n}` in fault `{spec}`"),
                            )
                        })
                    };
                    let (x, y) = (end(a)?, end(b)?);
                    let joins = |e: &DataEdge| (e.a, e.b) == (x, y) || (e.a, e.b) == (y, x);
                    if !system.data_plane().iter().any(joins) {
                        return err(format!("no data-plane link `{ab}` in fault `{spec}`"));
                    }
                }
                [kind @ ("controller" | "switch"), name, _, ..] => {
                    let named = match system.resolve(name) {
                        Some(NodeRef::Controller(_)) => *kind == "controller",
                        Some(NodeRef::Switch(_)) => *kind == "switch",
                        Some(NodeRef::Host(_)) | None => false,
                    };
                    if !named {
                        return err(format!("unknown {kind} `{name}` in fault `{spec}`"));
                    }
                }
                _ => {
                    return err(format!(
                        "fault spec `{spec}` must be `link A-B …`, `controller N …`, \
                         or `switch N …`"
                    ));
                }
            }
            AttackAction::Fault { spec }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Capability;

    const SELF_CONTAINED: &str = r#"
        system {
            controller c1;
            switch s1;
            switch s2;
            host h1 ip 10.0.0.1;
            host h2 ip 10.0.0.2;
            link h1, s1;
            link s1, s2;
            link h2, s2;
            connection c1 -> s1;
            connection c1 -> s2;
        }
        capabilities {
            default no_tls;
            (c1, s2): tls;
        }
        attack drop_flow_mods {
            start state sigma1 {
                rule phi1 on (c1, s1) {
                    when msg.type == FLOW_MOD && msg.source == c1
                    do { drop(msg); }
                }
            }
        }
    "#;

    #[test]
    fn compiles_self_contained_document() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        assert_eq!(doc.system.connection_count(), 2);
        assert!(doc
            .attack_model
            .get(ConnectionId(0))
            .contains(Capability::ReadMessage));
        assert!(!doc
            .attack_model
            .get(ConnectionId(1))
            .contains(Capability::ReadMessage));
        assert_eq!(doc.attacks.len(), 1);
        let atk = &doc.attacks[0];
        assert_eq!(atk.name(), "drop_flow_mods");
        assert_eq!(atk.states().len(), 1);
        // Inferred γ covers the payload read and the drop.
        let rule = &atk.attack.states[0].rules[0];
        assert!(rule.required.contains(Capability::ReadMessage));
        assert!(rule.required.contains(Capability::DropMessage));
        assert!(rule.required.contains(Capability::ReadMessageMetadata));
        // The condition anchors on `msg.type == FLOW_MOD`: the compiled
        // dispatcher indexes it through an equality bucket.
        let summary =
            crate::exec::CompiledRuleset::compile(&atk.attack, doc.system.connection_count())
                .summary();
        assert_eq!(summary.rules, 1);
        assert_eq!(summary.eq_indexed, 1);
        assert_eq!(summary.residual, 0);
    }

    #[test]
    fn tls_connection_rejects_payload_reading_rules() {
        // Same attack, but watching the TLS connection (c1, s2): the
        // compiler must refuse, since msg.type needs READMESSAGE.
        let source = SELF_CONTAINED.replace("rule phi1 on (c1, s1)", "rule phi1 on (c1, s2)");
        let err = compile_document(&source).unwrap_err();
        assert!(
            err.message.contains("does not grant"),
            "unexpected error: {err}"
        );
        // A payload read inside an action's expression counts the same,
        // whichever action carries it.
        for action in [
            r#"delay(msg, msg["idle_timeout"]);"#,
            r#"append(d, msg["idle_timeout"]);"#,
            r#"sleep(msg["idle_timeout"]);"#,
        ] {
            let source = source
                .replace("msg.type == FLOW_MOD && ", "")
                .replace("drop(msg);", action);
            let err = compile_document(&source).unwrap_err();
            assert!(
                err.message.contains("does not grant"),
                "{action}: unexpected error: {err}"
            );
        }
    }

    #[test]
    fn under_declared_requires_is_rejected() {
        let source = SELF_CONTAINED.replace(
            "rule phi1 on (c1, s1) {",
            "rule phi1 on (c1, s1) requires { drop_message } {",
        );
        let err = compile_document(&source).unwrap_err();
        assert!(
            err.message.contains("undeclared"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unknown_names_are_reported_with_lines() {
        let source = r#"
            attack x {
                start state s {
                    rule r on (c9, s9) {
                        when true
                        do { drop(msg); }
                    }
                }
            }
        "#;
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let err = compile(source, &doc.system, &doc.attack_model).unwrap_err();
        assert!(err.message.contains("not a control plane connection"));
        assert!(err.line > 0);

        let source = r#"
            attack x {
                start state s {
                    rule r on all {
                        when msg.source == nobody
                        do { drop(msg); }
                    }
                }
            }
        "#;
        let err = compile(source, &doc.system, &doc.attack_model).unwrap_err();
        assert!(err.message.contains("nobody"));
    }

    #[test]
    fn goto_resolves_state_names() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let source = r#"
            attack two_stage {
                start state a {
                    # (c1, s1) only: `all` would include the TLS
                    # connection, where msg.type is unreadable.
                    rule r on (c1, s1) {
                        when msg.type == HELLO
                        do { pass(msg); goto b; }
                    }
                }
                state b { }
            }
        "#;
        let atk = compile(source, &doc.system, &doc.attack_model).unwrap();
        assert_eq!(atk.attack.start, 0);
        assert_eq!(atk.graph.edges.len(), 1);
        assert_eq!(atk.graph.edges[0].to, 1);
        assert_eq!(atk.graph.end, vec![1]);
        // Unknown target:
        let bad = source.replace("goto b;", "goto zz;");
        assert!(compile(&bad, &doc.system, &doc.attack_model)
            .unwrap_err()
            .message
            .contains("unknown state"));
    }

    #[test]
    fn attack_only_compile_rejects_system_blocks() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let err = compile(SELF_CONTAINED, &doc.system, &doc.attack_model).unwrap_err();
        assert!(err.message.contains("attack-only"));
    }

    #[test]
    fn start_state_marking_rules() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        // Single state: implicit start.
        let one = "attack a { state s { } }";
        assert!(compile(one, &doc.system, &doc.attack_model).is_ok());
        // Two states, no start: error.
        let two = "attack a { state s { } state t { } }";
        assert!(compile(two, &doc.system, &doc.attack_model)
            .unwrap_err()
            .message
            .contains("start"));
        // Two starts: error.
        let dup = "attack a { start state s { } start state t { } }";
        assert!(compile(dup, &doc.system, &doc.attack_model)
            .unwrap_err()
            .message
            .contains("more than one"));
    }

    #[test]
    fn hex_injection_is_decoded() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let source = r#"
            attack inj {
                start state s {
                    rule r on (c1, s1) {
                        when true
                        do { inject((c1, s1), to_switch, hex("01 04 00 08 00 00 00 63")); }
                    }
                }
            }
        "#;
        let atk = compile(source, &doc.system, &doc.attack_model).unwrap();
        let AttackAction::Inject { frame, .. } = &atk.attack.states[0].rules[0].actions[0] else {
            panic!("expected inject");
        };
        assert_eq!(
            frame.bytes(),
            &[0x01, 0x04, 0x00, 0x08, 0x00, 0x00, 0x00, 0x63]
        );
        // Malformed hex:
        let bad = source.replace("00 63", "00 6");
        assert!(compile(&bad, &doc.system, &doc.attack_model).is_err());
    }

    #[test]
    fn fault_specs_are_validated_against_the_system_model() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let source = r#"
            attack env {
                start state s {
                    rule r on (c1, s1) {
                        when true
                        do {
                            fault("link s1-s2 down");
                            fault("controller c1 crash");
                            fault("switch s2 restart");
                        }
                    }
                }
            }
        "#;
        let atk = compile(source, &doc.system, &doc.attack_model).unwrap();
        let actions = &atk.attack.states[0].rules[0].actions;
        assert!(matches!(&actions[0], AttackAction::Fault { spec } if spec == "link s1-s2 down"));
        assert!(
            matches!(&actions[1], AttackAction::Fault { spec } if spec == "controller c1 crash")
        );
        // A link named from either end compiles.
        let reversed = source.replace("link s1-s2 down", "link s2-s1 down");
        assert!(compile(&reversed, &doc.system, &doc.attack_model).is_ok());
        // Unknown component names, and pairs that no data-plane link
        // joins (a control connection; two hosts), fail at compile time,
        // not at run time.
        for bad in [
            r#"fault("link s1-s9 down")"#,
            r#"fault("link c1-s1 down")"#,
            r#"fault("link h1-h2 down")"#,
            r#"fault("link h1-h6 down")"#,
            r#"fault("controller c9 crash")"#,
            r#"fault("nonsense")"#,
        ] {
            let src = source.replace(r#"fault("link s1-s2 down")"#, bad);
            assert!(
                compile(&src, &doc.system, &doc.attack_model).is_err(),
                "expected {bad} to be rejected"
            );
        }
    }

    #[test]
    fn fault_targets_must_name_a_component_of_their_kind() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let attack = |fault: &str| {
            let source = format!(
                "attack env {{ start state s {{ rule r on (c1, s1) {{ when true do {{ {fault}; }} }} }} }}"
            );
            compile(&source, &doc.system, &doc.attack_model)
        };
        assert!(attack(r#"fault("switch s2 restart")"#).is_ok());
        assert!(attack(r#"fault("controller c1 restart")"#).is_ok());
        for bad in [
            r#"fault("switch h1 restart")"#,
            r#"fault("switch c1 restart")"#,
            r#"fault("controller s1 crash")"#,
            r#"fault("controller h2 crash")"#,
        ] {
            let e = attack(bad).expect_err(bad);
            assert!(e.to_string().contains("unknown"), "{bad}: {e}");
        }
    }

    /// Wraps `clause` in a minimal attack against the self-contained
    /// document and compiles it, for timing-predicate error probing.
    fn compile_when(clause: &str) -> Result<crate::dsl::CompiledAttack, DslError> {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let source = format!(
            r#"
            attack probe {{
                start state s {{
                    rule r on (c1, s1) {{
                        when {clause}
                        do {{ drop(msg); }}
                    }}
                }}
            }}
            "#
        );
        compile(&source, &doc.system, &doc.attack_model)
    }

    #[test]
    fn timing_predicates_compile_to_the_expected_exprs() {
        use crate::lang::TimingStat;
        let atk = compile_when(
            "latency(PACKET_IN, FLOW_MOD) > 1000000 \
             && timing_mean(PACKET_IN, FLOW_MOD, 8) > 0 \
             && timing_count(HELLO, HELLO) >= 0 \
             && elapsed_in_state() < 5000000",
        )
        .unwrap();
        let mut stats = Vec::new();
        atk.attack.states[0].rules[0].condition.for_each(&mut |e| {
            if let Expr::Timing { stat, window, .. } = e {
                stats.push((*stat, *window));
            }
        });
        assert_eq!(
            stats,
            [
                (TimingStat::Last, 1),
                (TimingStat::Mean, 8),
                (TimingStat::Count, 1),
            ]
        );
    }

    #[test]
    fn timing_predicate_misuse_is_a_compile_error() {
        // (clause, must-appear-in-message) pairs covering every
        // validation branch in `compile_timing_fn`.
        for (clause, needle) in [
            // `latency` of a type with itself: pointed at inter_arrival.
            (
                "latency(PACKET_IN, PACKET_IN) > 0",
                "use `inter_arrival(PACKET_IN)`",
            ),
            // Unknown message type name.
            (
                "latency(PACKET_IN, FLOW_MOE) > 0",
                "`FLOW_MOE` is not an OpenFlow message type",
            ),
            // Arity errors, one per builtin shape.
            ("latency(PACKET_IN) > 0", "expects 2 arguments"),
            ("inter_arrival() > 0", "expects 1 argument"),
            ("elapsed_in_state(HELLO) > 0", "expects 0 arguments"),
            (
                "timing_mean(PACKET_IN, FLOW_MOD) > 0",
                "expects 3 arguments",
            ),
            // Window domain: negative, zero, oversized, non-integer.
            ("timing_mean(PACKET_IN, FLOW_MOD, -3) > 0", "got -3"),
            ("timing_stddev(PACKET_IN, FLOW_MOD, 0) > 0", "got 0"),
            (
                "timing_mean(PACKET_IN, FLOW_MOD, 257) > 0",
                "window must be in 1..=256",
            ),
            (
                "timing_mean(PACKET_IN, FLOW_MOD, 2.5) > 0",
                "window must be an integer literal",
            ),
            (
                "timing_mean(PACKET_IN, FLOW_MOD, msg.length) > 0",
                "window must be an integer literal",
            ),
            // Type arguments must be names, not arbitrary expressions.
            (
                "timing_count(1 + 2, FLOW_MOD) > 0",
                "takes OpenFlow message-type names",
            ),
        ] {
            let err = compile_when(clause)
                .map(|_| ())
                .expect_err(&format!("`{clause}` must not compile"));
            assert!(
                err.message.contains(needle),
                "`{clause}`: expected `{needle}` in `{}`",
                err.message
            );
            assert!(err.line > 0, "`{clause}`: error must carry a line");
        }
    }

    #[test]
    fn auto_port_assignment_numbers_in_declaration_order() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        // s1: port 1 = h1 link, port 2 = s1-s2 link.
        let (_, s1) = doc.system.switches().next().unwrap();
        assert_eq!(s1.ports, vec![1, 2]);
        let (_, s2) = doc.system.switches().nth(1).unwrap();
        assert_eq!(s2.ports, vec![1, 2]);
    }

    #[test]
    fn model_block_in_attack_only_source_names_its_line() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let capabilities_first = "\n\ncapabilities {\n    default tls;\n}\nsystem {\n}\n";
        let err = compile(capabilities_first, &doc.system, &doc.attack_model).unwrap_err();
        assert!(err.message.contains("attack-only source expected"), "{err}");
        assert_eq!(err.line, 3, "the first model block's keyword line");
        let err = compile_all("\nsystem {\n}\n", &doc.system, &doc.attack_model).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn invalid_system_names_its_block_line() {
        let source = "# a one-host system\n\nsystem {\n    controller c1;\n    switch s1;\n    host h1 ip 10.0.0.1;\n}\n";
        let err = compile_document(source).unwrap_err();
        assert!(err.message.contains("|H| must be >= 2"), "{err}");
        assert_eq!(err.line, 3, "the `system` keyword line");
        assert_eq!(err.to_string(), format!("line 3: {}", err.message));
    }

    #[test]
    fn missing_attack_block_is_reported_at_line_one() {
        let doc = compile_document(SELF_CONTAINED).unwrap();
        let err = compile("\n# nothing here\n", &doc.system, &doc.attack_model).unwrap_err();
        assert!(err.message.contains("no attack block"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn missing_system_block_is_reported_at_line_one() {
        let err = compile_document("\n\ncapabilities {\n    default tls;\n}\n").unwrap_err();
        assert!(err.message.contains("no system block"), "{err}");
        assert_eq!(err.line, 1);
    }
}
