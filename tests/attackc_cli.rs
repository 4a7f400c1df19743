//! End-to-end tests of the `attackc` compiler binary.

use std::process::Command;

fn attackc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_attackc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("attackc-test-{name}-{}.atk", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

const GOOD_DOC: &str = r#"
    system {
        controller c1;
        switch s1;
        host h1 ip 10.0.0.1;
        host h2 ip 10.0.0.2;
        link h1, s1;
        link h2, s1;
        connection c1 -> s1;
    }
    attack demo {
        start state a {
            rule r on (c1, s1) {
                when msg.type == FLOW_MOD
                do { drop(msg); goto b; }
            }
        }
        state b { }
    }
"#;

#[test]
fn compiles_a_document_and_reports_structure() {
    let path = write_temp("good", GOOD_DOC);
    let out = attackc().arg(&path).output().expect("run attackc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("attack demo: 2 state(s), 1 transition(s)"));
    assert!(stdout.contains("1 attack(s) compiled and validated"));
    std::fs::remove_file(path).ok();
}

#[test]
fn dot_flag_emits_graphviz() {
    let path = write_temp("dot", GOOD_DOC);
    let out = attackc()
        .arg("--dot")
        .arg(&path)
        .output()
        .expect("run attackc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("digraph attack_state_graph"));
    assert!(stdout.contains("start -> s0"));
    std::fs::remove_file(path).ok();
}

#[test]
fn enterprise_scenario_compiles_attack_only_files() {
    let path = write_temp(
        "enterprise",
        r#"
        attack drop_everything_on_s2 {
            start state s {
                rule r on (c1, s2) {
                    when msg.length > 0
                    do { drop(msg); }
                }
            }
        }
        "#,
    );
    let out = attackc()
        .args(["--scenario", "enterprise"])
        .arg(&path)
        .output()
        .expect("run attackc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn a_million_term_chain_compiles() {
    let when = format!("{} == 1000000", vec!["1"; 1_000_000].join(" + "));
    let path = write_temp(
        "long-chain",
        &format!("attack long {{ start state s {{ rule r on all {{ when {when} do {{ pass(msg); }} }} }} }}"),
    );
    let out = attackc()
        .args(["--scenario", "enterprise"])
        .arg(&path)
        .output()
        .expect("run attackc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn syntax_errors_exit_nonzero_with_line_numbers() {
    let path = write_temp("bad", "attack x {\n  state s {\n    garbage\n  }\n}");
    let out = attackc().arg(&path).output().expect("run attackc");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn capability_violations_exit_nonzero() {
    // Blocks may appear in any order; adding a TLS-only capabilities
    // block must now reject the payload-reading rule.
    let doc = GOOD_DOC.to_string() + "\ncapabilities { default tls; }\n";
    let path = write_temp("caps", &doc);
    let out = attackc().arg(&path).output().expect("run attackc");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not grant"), "stderr: {stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn missing_file_and_bad_flags_fail_cleanly() {
    let out = attackc()
        .arg("/nonexistent/file.atk")
        .output()
        .expect("run");
    assert!(!out.status.success());
    let out = attackc().arg("--bogus").output().expect("run");
    assert!(!out.status.success());
    let out = attackc()
        .args(["--scenario", "unknown", "/dev/null"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}
