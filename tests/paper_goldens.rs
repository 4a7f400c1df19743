//! The paper's artefacts, pinned to the byte: the stdout of `table2`,
//! `fig11 --quick`, `faults --quick` and `faults` against
//! `tests/golden/paper/`.
//! Every printed value is exact in virtual time, so the files are the
//! same for debug and release builds; EXPERIMENTS.md says how to
//! regenerate them after an intended change.

use std::process::Command;

fn check(exe: &str, args: &[&str], golden: &str) {
    let path = format!("{}/tests/golden/paper/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let out = Command::new(exe).args(args).output().expect("binary runs");
    assert!(out.status.success(), "{exe} {args:?}: {:?}", out.status);
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if got == want {
        return;
    }
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    for line in 1.. {
        match (got_lines.next(), want_lines.next()) {
            (g, w) if g == w && g.is_some() => {}
            (g, w) => panic!(
                "{golden} differs at line {line}:\n  golden: {}\n  stdout: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
}

#[test]
fn table2_matches_its_golden() {
    check(env!("CARGO_BIN_EXE_table2"), &[], "table2.txt");
}

#[test]
fn fig11_quick_matches_its_golden() {
    check(env!("CARGO_BIN_EXE_fig11"), &["--quick"], "fig11_quick.txt");
}

#[test]
fn faults_quick_matches_its_golden() {
    check(
        env!("CARGO_BIN_EXE_faults"),
        &["--quick"],
        "faults_quick.txt",
    );
}

#[test]
fn faults_matches_its_golden() {
    check(env!("CARGO_BIN_EXE_faults"), &[], "faults.txt");
}
