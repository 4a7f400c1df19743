//! The `scalability` binary: a bad command line is usage and exit
//! status 2 before any row runs, and the smoke rows' deterministic
//! columns match the `fat-tree k=4` and `k=8` rows of the committed
//! `BENCH_scalability.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scalability(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scalability"))
        .args(args)
        .output()
        .expect("run scalability")
}

/// Runs `scalability` with a bad command line and checks it was refused.
fn rejected(args: &[&str]) {
    let out = scalability(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: scalability"), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} started the sweep: {stdout}");
}

#[test]
fn malformed_value_is_usage_not_a_panic() {
    rejected(&["--smoke", "--max-events", "x"]);
}

#[test]
fn valueless_trailing_flag_is_rejected() {
    rejected(&["--smoke", "--json"]);
}

#[test]
fn unknown_flag_is_rejected() {
    rejected(&["--smoke", "--bogus"]);
}

#[test]
fn unwritable_report_path_is_an_error_exit() {
    let path = tmp("no-such-dir/report.json");
    let out = scalability(&["--smoke", "--json", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("scalability-{}-{name}", std::process::id()))
}

/// The JSON line of the row named `name` in a scalability report.
fn row<'a>(report: &'a str, name: &str) -> &'a str {
    report
        .lines()
        .find(|l| l.contains(&format!("{{\"name\": \"{name}\",")))
        .unwrap_or_else(|| panic!("no {name:?} row in {report}"))
}

/// The raw value of `key` in one flat JSON row.
fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let at = row
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key:?} in {row}"))
        + key.len()
        + 4;
    let rest = &row[at..];
    let end = rest.find([',', '}']).expect("value is terminated");
    rest[..end].trim_matches('"')
}

#[test]
fn smoke_row_matches_the_committed_benchmark() {
    let path = tmp("smoke.json");
    let out = scalability(&["--smoke", "--json", path.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(&path).expect("smoke report written");
    let _ = std::fs::remove_file(&path);
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/BENCH_scalability.json"
    ))
    .expect("committed BENCH_scalability.json");

    for name in ["fat-tree k=4", "fat-tree k=8"] {
        let (fresh, committed) = (row(&fresh, name), row(&committed, name));
        // Everything but the wall-clock columns is a function of the code.
        for key in [
            "switches",
            "hosts",
            "flows",
            "routes",
            "events",
            "peak_pending",
            "pings_sent",
            "pings_received",
            "halt",
        ] {
            assert_eq!(field(fresh, key), field(committed, key), "{name} {key}");
        }
        assert_eq!(field(fresh, "halt"), "Horizon");
        assert_eq!(field(fresh, "pings_received"), field(fresh, "pings_sent"));
    }
}
