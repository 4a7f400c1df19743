//! The `campaign` binary rejects a bad command line before running
//! anything: usage on stderr, exit status 2, no cell executed.

use std::process::Command;

fn rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("run campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: campaign"), "{args:?}: {stderr}");
    assert!(
        !stderr.contains("cells on"),
        "{args:?} started the matrix: {stderr}"
    );
}

#[test]
fn malformed_value_is_usage_not_a_panic() {
    rejected(&["--smoke", "--jobs", "x"]);
}

#[test]
fn valueless_trailing_flag_is_rejected() {
    rejected(&["--smoke", "--retries"]);
}

#[test]
fn unknown_flag_is_rejected() {
    rejected(&["--smoke", "--bogus"]);
}
