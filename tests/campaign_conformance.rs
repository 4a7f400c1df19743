//! The conformance campaign as a tier-1 regression surface.
//!
//! Six contracts:
//!
//! * **Golden-trace oracle** — the full matrix's per-cell trace digests
//!   match `tests/golden/campaign/full.txt` (and the CI smoke subset
//!   matches `smoke.txt`). Any semantic drift in the DSL pipeline, the
//!   injector, a controller model, or the simulator fails here with a
//!   diff that names the drifted cell. Regenerate intentionally with
//!   `UPDATE_GOLDEN=1 cargo test campaign` (or the `campaign` binary's
//!   `--update-golden`).
//! * **Thread-count invariance** — the canonical report bytes are
//!   identical for `--jobs 1` and `--jobs N`.
//! * **Baseline convergence** — in no-attack cells every controller
//!   application converges the ping workload, under both fail modes.
//! * **Fail-mode splits are sound** — the fail-mode axis changes the
//!   records of exactly 18 cells, and two fixed-mode runs differ only
//!   where the shared run splits.
//! * **Shared baselines are sound** — `table_overflow`'s bounded
//!   baseline equals the shared unbounded one it is diffed against.
//! * **Shared runs are sound** — every unit the runner forked off its
//!   baseline, or gave its baseline's record because it never diverged,
//!   equals the unit run alone.

use attain::campaign::{attacks, cell, diff_golden, Matrix, RunShape};
use attain::controllers::ControllerKind;
use attain::injector::RunRecord;
use attain::netsim::FailMode;
use std::path::Path;

fn check_golden(path: &str, fresh: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, fresh).unwrap();
        return;
    }
    let checked_in = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("{path} missing ({e}); generate it with UPDATE_GOLDEN=1 cargo test campaign")
    });
    if let Some(diff) = diff_golden(&checked_in, fresh) {
        panic!("{path}: {diff}");
    }
}

#[test]
fn full_matrix_matches_golden_digests_and_expectations() {
    let matrix = Matrix::full();
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let report = attain::campaign::run(&matrix, jobs);
    let failures: Vec<String> = report
        .failures()
        .iter()
        .map(|f| {
            format!(
                "{}: status {}, observed {:?}, expected {:?}",
                f.name,
                f.status.slug(),
                f.observed,
                f.expected
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "differential oracle failures:\n{}",
        failures.join("\n")
    );
    assert_eq!(report.unjudged(), 0, "every production cell must be judged");
    check_golden("tests/golden/campaign/full.txt", &report.golden_digests());

    // The fail-mode axis changes a record in exactly these 18 cells: the
    // interruption leaves the fail-safe DMZ switch `s2` without its
    // controller, so each of their runs split there. The Ryu fingerprint
    // cells sever only the always-secure `s1`, which never defers its
    // mode, so their runs never split and each pair is one record.
    let record = |name: &str| {
        let cell = report.cells.iter().find(|c| c.name == name);
        cell.and_then(|c| c.outcome()).map(timeless)
    };
    let mut differ: Vec<&str> = report
        .cells
        .iter()
        .filter(|c| {
            let twin = match c.fail_mode {
                FailMode::Safe => c.name.replace("/safe/", "/secure/"),
                FailMode::Secure => c.name.replace("/secure/", "/safe/"),
            };
            record(&c.name) != record(&twin)
        })
        .map(|c| c.name.as_str())
        .collect();
    let mut split = Vec::new();
    for fail in ["safe", "secure"] {
        for seed in 1..=3 {
            for controller in ["floodlight", "pox", "beacon"] {
                split.push(format!(
                    "connection_interruption/{controller}/{fail}/s{seed}"
                ));
            }
        }
    }
    differ.sort_unstable();
    split.sort_unstable();
    assert_eq!(differ, split, "cells whose two fail modes differ");
    assert_eq!(report.shape.splits, 9, "{}", report.shape);
    let shape = report.shape.to_string();
    assert!(
        experiments().contains(&shape),
        "EXPERIMENTS.md must print the full matrix's `{shape}`"
    );
}

/// EXPERIMENTS.md with its line breaks folded, so that a sentence it
/// wraps reads as one line.
fn experiments() -> String {
    let text = include_str!("../EXPERIMENTS.md");
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A record with its one nondeterministic field cleared.
fn timeless(record: &RunRecord) -> RunRecord {
    RunRecord {
        wall_ms: 0,
        ..record.clone()
    }
}

/// The split rule is sound: a run stands for both fail modes until a
/// switch first consults its mode. For every smoke-matrix pair and its
/// shared baseline pair, both runs made from t = 0, one per mode, are
/// one record, byte for byte, except the three pairs whose shared run
/// splits (`shared_runs_equal_standalone_runs` pins that count).
#[test]
fn an_unread_fail_mode_makes_the_twins_identical() {
    let matrix = Matrix::smoke();
    let trivial = attacks::by_name("trivial_pass").unwrap();
    let mut differ = Vec::new();
    for &controller in &matrix.controllers {
        for &seed in &matrix.seeds {
            let baseline = |mode| cell::run_baseline(&trivial, controller, mode, seed);
            let mut twins = vec![(
                "baseline".to_string(),
                baseline(FailMode::Safe),
                baseline(FailMode::Secure),
            )];
            for attack in &matrix.attacks {
                let run = |mode| cell::run_cell(attack, controller, mode, seed);
                twins.push((
                    attack.name.to_string(),
                    run(FailMode::Safe),
                    run(FailMode::Secure),
                ));
            }
            for (name, safe, secure) in twins {
                let (safe, secure) = (
                    safe.expect("safe twin completes"),
                    secure.expect("secure twin completes"),
                );
                if timeless(&safe) != timeless(&secure) {
                    differ.push(format!("{name}/{}/s{seed}", controller.slug()));
                }
            }
        }
    }
    // Of 25 attacked pairs and 5 baseline pairs, only the interruption's
    // leaves a fail-safe switch without its controller.
    let split: Vec<String> = ["floodlight", "pox", "beacon"]
        .map(|c| format!("connection_interruption/{c}/s1"))
        .into();
    assert_eq!(differ, split);
}

/// The licence to fork: on the smoke matrix, every cell the runner made
/// — forked off its baseline, given the baseline's record as a shadow
/// that never diverged, taken from a run that never split or from the
/// fail-secure side of one that did, or run alone — equals a standalone
/// run of the same cell in its one fail mode, field by field except
/// `wall_ms`.
#[test]
fn shared_runs_equal_standalone_runs() {
    let matrix = Matrix::smoke();
    let report = attain::campaign::run(&matrix, 1);
    // Each environment runs once for both fail modes and shares its
    // baseline's run with every attack but `table_overflow`, which runs
    // alone, also for both modes. The interruption's forks on
    // Floodlight, POX and Beacon split.
    let shape = RunShape {
        environments: 5,
        forked: 13,
        undiverged: 7,
        standalone: 5,
        splits: 3,
    };
    assert_eq!(report.shape, shape, "{}", report.shape);
    let RunShape {
        environments,
        forked,
        undiverged,
        standalone,
        splits,
    } = shape;
    let prose = format!(
        "{environments} environments, {forked} forked, {undiverged} never diverged, \
         {standalone} standalone and {splits} splits"
    );
    assert!(
        experiments().contains(&prose),
        "EXPERIMENTS.md must state the smoke shape as {prose:?}"
    );
    for (cell, id) in report.cells.iter().zip(matrix.cells()) {
        let attack = &matrix.attacks[id.attack];
        let alone = cell::run_cell(attack, id.controller, id.fail_mode, id.seed)
            .expect("cell completes alone");
        let shared = cell.outcome().expect("cell completes in the campaign");
        assert_eq!(timeless(shared), timeless(&alone), "{}", cell.name);
    }
}

/// `table_overflow` cells are diffed against the shared enterprise
/// baseline, which has no table bound. That is only valid while the
/// bound never changes an unattacked run.
#[test]
fn table_overflow_baseline_equals_the_shared_one() {
    let bounded = attacks::by_name("table_overflow").unwrap();
    let shared = attacks::by_name("trivial_pass").unwrap();
    let mut compared = 0;
    for kind in ControllerKind::CAMPAIGN {
        for fail_mode in [FailMode::Safe, FailMode::Secure] {
            for seed in attain::campaign::matrix::FULL_SEEDS {
                let run =
                    |a| cell::run_baseline(a, kind, fail_mode, seed).expect("baseline completes");
                assert_eq!(
                    timeless(&run(&bounded)),
                    timeless(&run(&shared)),
                    "{kind}/{fail_mode:?}/s{seed}: the table bound changed an unattacked run"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 30);
}

#[test]
fn smoke_report_is_byte_identical_across_thread_counts() {
    let matrix = Matrix::smoke();
    let serial = attain::campaign::run(&matrix, 1);
    let parallel = attain::campaign::run(&matrix, 4);
    assert_eq!(
        serial.canonical_json(),
        parallel.canonical_json(),
        "canonical report bytes must not depend on the worker count"
    );
    assert_eq!(serial.passed(), serial.cells.len());
    check_golden("tests/golden/campaign/smoke.txt", &serial.golden_digests());
}

#[test]
fn every_controller_converges_the_baseline_workload() {
    // Satellite invariant: with no attack interposed, all five
    // applications deliver the primary windows in full under both fail
    // modes — and the DMZ firewall still blocks the external probes.
    let trivial = attacks::by_name("trivial_pass").unwrap();
    for kind in ControllerKind::CAMPAIGN {
        for fail_mode in [FailMode::Safe, FailMode::Secure] {
            let outcome =
                cell::run_baseline(&trivial, kind, fail_mode, 1).expect("baseline completes");
            for row in &outcome.pings {
                let ctx = format!("{kind}/{fail_mode:?}/{}", row.label);
                if row.label.starts_with('w') {
                    assert_eq!(
                        row.received, row.transmitted,
                        "{ctx}: baseline workload must converge"
                    );
                } else {
                    assert_eq!(
                        row.received, 0,
                        "{ctx}: the DMZ firewall must block external probes"
                    );
                }
            }
        }
    }
}

#[test]
fn only_filter_projects_the_matrix() {
    use attain::campaign::Filter;
    let mut matrix = Matrix::full();
    Filter::parse("attack=connection_interruption,controller=ryu,fail=secure,seed=2")
        .unwrap()
        .apply(&mut matrix);
    let report = attain::campaign::run(&matrix, 2);
    assert_eq!(report.cells.len(), 1);
    let cell = &report.cells[0];
    assert_eq!(cell.name, "connection_interruption/ryu/secure/s2");
    assert!(cell.pass);
    let outcome = cell.outcome().expect("filtered cell completes");
    // The Ryu anomaly, pinned: the interruption never arms.
    assert_eq!(outcome.final_state.as_deref(), Some("sigma2"));
    // The filtered cell's digest matches its full-matrix golden line.
    let golden = std::fs::read_to_string("tests/golden/campaign/full.txt").unwrap();
    let line = golden
        .lines()
        .find(|l| l.starts_with("connection_interruption/ryu/secure/s2 "))
        .expect("cell present in golden file");
    assert_eq!(
        line.split_whitespace().nth(1).unwrap(),
        outcome.digest.to_string(),
        "a filtered run must reproduce the full matrix's digest"
    );
}
