//! The paper binaries `table2`, `fig11` and `faults`: a bad command
//! line is usage and exit status 2 before any experiment runs.

use std::process::Command;

/// Runs `exe` with a bad command line and checks it was refused.
fn rejected(exe: &str, name: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
    assert!(stdout.is_empty(), "{name} {args:?} started a run: {stdout}");
}

#[test]
fn malformed_value_is_usage_not_a_panic() {
    rejected(env!("CARGO_BIN_EXE_faults"), "faults", &["--seed", "x"]);
}

#[test]
fn valueless_trailing_flag_is_rejected() {
    rejected(
        env!("CARGO_BIN_EXE_faults"),
        "faults",
        &["--quick", "--seed"],
    );
}

#[test]
fn unknown_flag_is_rejected() {
    rejected(env!("CARGO_BIN_EXE_fig11"), "fig11", &["--quik"]);
    rejected(
        env!("CARGO_BIN_EXE_faults"),
        "faults",
        &["--quick", "--bogus"],
    );
    rejected(env!("CARGO_BIN_EXE_table2"), "table2", &["--quick"]);
}
