//! Golden roundtrip coverage for every shipped `attacks/*.atk`: each
//! description parses, compiles, renders back to canonical text, and
//! that canonical form is a **fixed point** (reparse → recompile →
//! rerender is byte-identical). The canonical forms are snapshotted
//! under `tests/golden/dsl/` so any compiler/renderer drift fails
//! tier-1 with a named file; regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test dsl_snapshots`.

use attain::core::dsl;
use attain::core::model::{AttackModel, SystemModel};
use attain::core::scenario;

/// Compiles `source` against `(system, model)`, renders the canonical
/// form, and proves it a fixed point. Returns the canonical text.
fn canonical_fixed_point(
    name: &str,
    source: &str,
    system: &SystemModel,
    model: &AttackModel,
) -> String {
    let compiled = dsl::compile(source, system, model)
        .unwrap_or_else(|e| panic!("{name}: does not compile: {e}"));
    let rendered = dsl::render(&compiled.attack, system)
        .unwrap_or_else(|e| panic!("{name}: does not render: {e}"));
    let recompiled = dsl::compile(&rendered, system, model)
        .unwrap_or_else(|e| panic!("{name}: canonical form does not reparse: {e}\n{rendered}"));
    assert_eq!(
        recompiled.attack, compiled.attack,
        "{name}: reparse must reproduce the compiled attack"
    );
    let rerendered = dsl::render(&recompiled.attack, system)
        .unwrap_or_else(|e| panic!("{name}: canonical form does not rerender: {e}"));
    assert_eq!(
        rerendered, rendered,
        "{name}: canonical text must be a render fixed point"
    );
    rendered
}

fn check_snapshot(name: &str, canonical: &str) {
    let path = format!("tests/golden/dsl/{name}.atkc");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden/dsl").unwrap();
        std::fs::write(&path, canonical).unwrap();
        return;
    }
    let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{path} missing ({e}); generate with UPDATE_GOLDEN=1 cargo test dsl_snapshots")
    });
    assert_eq!(
        checked_in, canonical,
        "{path}: compiled form drifted; regenerate with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn dsl_snapshots_every_shipped_attack_is_a_render_fixed_point() {
    let sc = scenario::enterprise_network();
    for (name, _) in scenario::attacks::ALL {
        let path = format!("attacks/{name}.atk");
        let source =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path} missing: {e}"));
        let canonical = canonical_fixed_point(name, &source, &sc.system, &sc.attack_model);
        check_snapshot(name, &canonical);
    }

    // The self-contained demo compiles as a document against its own
    // system block; its attack roundtrips against that system.
    let source =
        std::fs::read_to_string("attacks/self_contained_demo.atk").expect("demo file present");
    let doc = dsl::compile_document(&source).expect("demo compiles");
    let canonical = canonical_fixed_point(
        "self_contained_demo",
        &dsl::render(&doc.attacks[0].attack, &doc.system).expect("demo renders"),
        &doc.system,
        &doc.attack_model,
    );
    check_snapshot("self_contained_demo", &canonical);
}

#[test]
fn an_in_renders_parenthesized_only_where_the_grammar_needs_it() {
    let sc = scenario::enterprise_network();
    let source = r#"
        attack membership {
            state s {
                rule compared on all {
                    when (msg.type in [HELLO, FLOW_MOD]) == true
                    do { pass(msg); }
                }
                rule nested on all {
                    when (msg.type in [HELLO]) in [true, (msg.length in [8])]
                    do { pass(msg); }
                }
                rule joined on all {
                    when msg.type in [HELLO] && !(msg.length in [8])
                    do { pass(msg); }
                }
            }
        }
    "#;
    let canonical = canonical_fixed_point("membership", source, &sc.system, &sc.attack_model);
    for when in [
        "when ((msg.type in [HELLO, FLOW_MOD]) == true)",
        "when (msg.type in [HELLO]) in [true, (msg.length in [8])]",
        "when (msg.type in [HELLO] && !(msg.length in [8]))",
    ] {
        assert!(
            canonical.contains(when),
            "`{when}` missing from\n{canonical}"
        );
    }
}

#[test]
fn string_literals_round_trip() {
    use attain::core::lang::{AttackAction, BinOp, Expr, Property, Value};
    let sc = scenario::enterprise_network();
    // Raw non-ASCII and control characters, and the four escapes.
    let text = "caf\u{e9} \u{2026} \r \0 \u{7f} \t \" \\";
    let literal = "caf\u{e9} \u{2026} \r \0 \u{7f} \\t \\\" \\\\";
    let source = format!(
        r#"
        attack strings {{
            state s {{
                rule r on all {{
                    when msg["{literal}"] == "{literal}"
                    do {{ syscmd(h1, "{literal}"); }}
                }}
            }}
        }}
    "#
    );
    let compiled = dsl::compile(&source, &sc.system, &sc.attack_model)
        .unwrap_or_else(|e| panic!("{e}"))
        .attack;
    let rendered = dsl::render(&compiled, &sc.system).expect("renders");
    let back = dsl::compile(&rendered, &sc.system, &sc.attack_model)
        .unwrap_or_else(|e| panic!("the rendering does not compile: {e}\n{rendered}"))
        .attack;
    assert_eq!(back, compiled, "{rendered}");
    let rule = &back.states[0].rules[0];
    let Expr::Bin(lhs, rest) = &rule.condition else {
        panic!("expected a comparison: {:?}", rule.condition);
    };
    assert_eq!(**lhs, Expr::Prop(Property::TypeOption(text.into())));
    assert_eq!(rest[..], [(BinOp::Eq, Expr::Lit(Value::Str(text.into())))]);
    assert_eq!(
        rule.actions,
        [AttackAction::SysCmd {
            host: "h1".into(),
            cmd: text.into()
        }]
    );
}
