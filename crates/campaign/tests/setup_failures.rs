//! A cell that cannot be set up is a `Failed` cell, never a panicked
//! worker: the whole build → attach → schedule path returns errors.

use attain_campaign::attacks::{self, TableOverride, TABLE_OVERFLOW_BOUND};
use attain_campaign::{cell, run_with, AttackDef, CellStatus, Matrix, RunnerConfig, Scope};
use attain_controllers::ControllerKind;
use attain_injector::harness::RunError;
use attain_netsim::FailMode;

/// Compiles (`ip` is optional in the DSL's `host` statement), but the
/// simulator cannot run an IP network with an address-less host.
const IPLESS_HOST: AttackDef = AttackDef {
    name: "ipless_host",
    source: "
        system {
            controller c1;
            switch s1;
            host web;
            host db ip 192.168.1.20;
            link web, s1;
            link db, s1;
            connection c1 -> s1;
        }
        attack idle {
            start state watch {
                rule seen on (c1, s1) { when msg.type == PACKET_IN do { pass(msg); } }
            }
        }",
    scope: Scope::SelfContained,
    table: None,
};

#[test]
fn ipless_host_fails_the_cell_instead_of_panicking() {
    for run in [cell::run_cell, cell::run_baseline] {
        match run(&IPLESS_HOST, ControllerKind::Pox, FailMode::Secure, 1) {
            Err(RunError::Setup(msg)) => assert!(msg.contains("host web"), "{msg}"),
            other => panic!("expected a setup failure naming the host, got {other:?}"),
        }
    }
}

#[test]
fn a_table_bound_on_a_non_switch_is_a_failed_cell() {
    // A host of the case study, and a name it does not have.
    for switch in ["h1", "s9"] {
        let attack = AttackDef {
            table: Some(TableOverride {
                switch,
                ..TABLE_OVERFLOW_BOUND
            }),
            ..attacks::by_name("trivial_pass").expect("shipped attack")
        };
        let matrix = Matrix {
            attacks: vec![attack],
            controllers: vec![ControllerKind::Pox],
            fail_modes: vec![FailMode::Secure],
            seeds: vec![1],
        };
        let report = run_with(&matrix, &RunnerConfig::new(1));
        match &report.cells[0].status {
            CellStatus::Failed { msg } => {
                assert!(msg.contains(&format!("{switch:?}")), "{msg}")
            }
            other => panic!("{switch}: expected Failed, got {other:?}"),
        }
        assert!(report.canonical_json().contains("\"status\": \"failed\""));
    }
}

#[test]
fn ipless_host_is_a_failed_cell_in_the_report() {
    let matrix = Matrix {
        attacks: vec![IPLESS_HOST],
        controllers: vec![ControllerKind::Pox],
        fail_modes: vec![FailMode::Secure],
        seeds: vec![1],
    };
    let report = run_with(&matrix, &RunnerConfig::new(1));
    assert_eq!(report.cells.len(), 1);
    match &report.cells[0].status {
        CellStatus::Failed { msg } => assert!(msg.contains("host web"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(report.unjudged(), 1);
    assert!(report.canonical_json().contains("\"status\": \"failed\""));
}
