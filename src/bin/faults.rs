//! Environment-fault recovery: the §VII-C interruption attack composed
//! with testbed failures — a flapping backbone link, seeded packet loss,
//! a controller crash/restart, and a switch power-cycle.
//!
//! Every scenario runs **twice with the same seed** and the two trace
//! digests are compared (equal digests mean byte-identical traces): the
//! fault machinery must not disturb the simulator's determinism.
//!
//! Usage: `cargo run --release --bin faults [--quick] [--seed N]`

mod common;

use attain_controllers::ControllerKind;
use attain_injector::harness::run_fault_recovery;
use attain_injector::RunRecord;
use attain_netsim::FailMode;
use common::{flag, render_table};
use std::process::ExitCode;

/// `(--quick, --seed)` from the command line.
fn parse_cli(args: &[String]) -> Result<(bool, u64), String> {
    let (mut quick, mut seed) = (false, 0x00A7_7A17);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => seed = flag(arg, &mut rest)?,
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok((quick, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, seed) = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\nusage: faults [--quick] [--seed N]");
            return ExitCode::from(2);
        }
    };

    println!("Environment-fault recovery (seed {seed:#x})");
    println!("timeline: t=15s s3-s4 flaps ×2, t=20s s1-s2 1% loss,");
    println!("          t=45s c1 crashes, t=70s c1 restarts, t=85s s4 power-cycles\n");

    let kinds: &[ControllerKind] = if quick {
        &[ControllerKind::Floodlight]
    } else {
        &ControllerKind::ALL
    };

    let mut outs: Vec<(ControllerKind, FailMode, RunRecord)> = Vec::new();
    for &kind in kinds {
        for mode in [FailMode::Safe, FailMode::Secure] {
            eprintln!("running {kind} / {mode:?} (twice, determinism check)…");
            let a = run_fault_recovery(kind, mode, seed).expect("the scenario runs");
            let b = run_fault_recovery(kind, mode, seed).expect("the scenario runs");
            assert_eq!(
                a.digest, b.digest,
                "same seed must reproduce the trace byte for byte"
            );
            outs.push((kind, mode, a));
        }
    }

    let header: Vec<String> = std::iter::once("h6 -> h1".to_string())
        .chain(
            outs.iter()
                .map(|(kind, mode, _)| format!("{kind}/{mode:?}")),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let row = |title: &str, ping: &str| -> Vec<String> {
        std::iter::once(title.to_string())
            .chain(
                outs.iter()
                    .map(|(_, _, o)| o.ping(ping).map_or("-".to_string(), |p| p.to_string())),
            )
            .collect()
    };
    let rows = vec![
        row("healthy (t=30s)", "before"),
        row("controller down (t=61s)", "during"),
        row("after restart (t=95s)", "after"),
    ];
    println!("{}", render_table(&header_refs, &rows));
    println!(
        "(fail-safe recovers after the restart via s2's standalone fallback;\n\
         fail-secure stays dark because the σ3 interruption keeps dropping\n\
         c1-s2 control traffic even once the controller is back)\n"
    );

    for (kind, mode, o) in &outs {
        println!(
            "{kind}/{mode:?}: final state {} (φ2 fired {}×), {} trace events",
            o.final_state.as_deref().unwrap_or("-"),
            o.rule_fires("phi2"),
            o.events
        );
        if let Some(report) = &o.faults {
            println!("{report}");
        }
    }
    println!("determinism: all same-seed run pairs produced identical traces");
    ExitCode::SUCCESS
}
