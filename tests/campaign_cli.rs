//! The `campaign` binary rejects a bad command line before running
//! anything: usage on stderr, exit status 2, no cell executed.

use attain::campaign::Matrix;
use std::process::Command;

/// Runs `campaign` with a bad command line and returns its stderr.
fn rejected(args: &[&str]) -> String {
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
    stderr.into_owned()
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

#[test]
fn usage_states_the_smoke_matrix_as_it_is() {
    let stderr = rejected(&["--bogus"]);
    let smoke_line = stderr
        .lines()
        .find(|l| l.trim_start().starts_with("--smoke"))
        .expect("usage documents --smoke");
    let attacks = Matrix::smoke().attacks.len();
    assert!(
        smoke_line.contains(&format!("({attacks} attacks ×")),
        "usage says {smoke_line:?}; Matrix::smoke() keeps {attacks} attacks"
    );
}

/// A cell whose event budget runs out is reported unjudged and fails
/// the run, without aborting it or being mistaken for a usage error.
#[test]
fn budget_exhausted_cell_is_unjudged_and_fails_the_run() {
    let out_path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("campaign-degraded-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--only",
            "attack=trivial_pass,controller=pox,fail=secure,seed=1",
            "--max-events",
            "10",
            "--out",
            out_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let report = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);
    assert!(
        report.contains("\"status\": \"budget-exhausted\""),
        "{report}"
    );
    assert!(report.contains("\"verdict\": \"unjudged\""), "{report}");
    assert!(report.contains("\"unjudged\": 1"), "{report}");
}
