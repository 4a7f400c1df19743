//! The compiler (paper §VI-B1): resolves attack descriptions against the
//! system and attack models, validates capabilities, and produces
//! executable [`Attack`]s. The parser lowers each block as it reads it;
//! what is left here are the entry points and the checks on a whole
//! attack.

use crate::dsl::lexer::DslError;
use crate::dsl::parser::Parser;
use crate::exec::validate_attack;
use crate::lang::{Attack, AttackStateGraph};
use crate::model::{AttackModel, SystemModel};

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
    let mut p = Parser::new(source)?;
    if let Some(line) = p.model_line() {
        p.defer(DslError::new(
            line,
            "attack-only source expected; use compile_document for self-contained files",
        ));
    }
    // The model blocks are still read, for their syntax errors.
    p.models()?;
    let attacks = p.attacks(system, model)?;
    p.finish(attacks)
}

/// Compiles a self-contained document with `system`, optional
/// `capabilities`, and attack blocks.
///
/// # Errors
///
/// As [`compile`], plus system-model construction errors.
pub fn compile_document(source: &str) -> Result<CompiledDocument, DslError> {
    let mut p = Parser::new(source)?;
    if !p.has_system() {
        p.defer(DslError::new(1, "document has no system block"));
    }
    let (system, attack_model) = p.models()?;
    let attacks = p.attacks(&system, &attack_model)?;
    p.finish(CompiledDocument {
        system,
        attack_model,
        attacks,
    })
}

/// The start state of the attack `name` declared at `line`, whose
/// states are marked `start` or not as `starts` says: the one marked,
/// or the only state.
pub(crate) fn start_state(name: &str, starts: &[bool], line: u32) -> Result<usize, DslError> {
    let marked: Vec<usize> = (0..starts.len()).filter(|&i| starts[i]).collect();
    match (marked.as_slice(), starts.len()) {
        (_, 0) => Err(DslError::new(line, format!("attack {name} has no states"))),
        ([], 1) => Ok(0),
        ([one], _) => Ok(*one),
        ([], _) => Err(DslError::new(
            line,
            "multi-state attacks must mark one `start state`",
        )),
        _ => Err(DslError::new(line, "more than one state is marked `start`")),
    }
}

/// Validates `attack`, declared at `line`, against the models and
/// builds its state graph.
pub(crate) fn finish_attack(
    attack: Attack,
    system: &SystemModel,
    model: &AttackModel,
    line: u32,
) -> Result<CompiledAttack, DslError> {
    validate_attack(system, model, &attack).map_err(|e| DslError::new(line, e.to_string()))?;
    let graph = AttackStateGraph::from_attack(&attack);
    Ok(CompiledAttack { attack, graph })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{AttackAction, Expr, Property, Value};
    use crate::model::{Capability, ConnectionId};
    use attain_openflow::OfType;

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
        assert!(matches!(
            crate::lang::anchor_guard(&rule.condition),
            Some(crate::lang::Guard::Eq {
                prop: Property::Type,
                value: Value::MsgType(OfType::FlowMod),
            })
        ));
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
        // Malformed hex: an odd digit count, and a character that is no
        // hex digit, multi-byte in UTF-8 or not.
        let bad = source.replace("00 63", "00 6");
        assert!(compile(&bad, &doc.system, &doc.attack_model).is_err());
        for digits in ["a\u{e9}0", "0g"] {
            let bad = source.replace("01 04 00 08 00 00 00 63", digits);
            let err = compile(&bad, &doc.system, &doc.attack_model).unwrap_err();
            assert_eq!(err.message, "invalid hex digit", "{digits}");
        }
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
        // No port is numbered past the last one.
        let full = "system { controller c1; switch s1; host h1; host h2;\n\
                    link h1, s1:65535; link h2, s1; }";
        let err = compile_document(full).unwrap_err();
        assert_eq!(err.to_string(), "line 2: `s1` has no port number left");
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
