//! Regenerates **Table II**: the connection-interruption experiment
//! (paper §VII-C) — four access checks per controller and fail mode.
//!
//! Usage: `cargo run --release --bin table2`

mod common;

use attain_controllers::ControllerKind;
use attain_injector::harness::run_connection_interruption;
use attain_injector::RunRecord;
use attain_netsim::FailMode;
use common::render_table;
use std::process::ExitCode;

fn mark(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "NO".into()
    }
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg}\nusage: table2");
        return ExitCode::from(2);
    }
    println!("Table II — connection interruption experiment");
    println!("(pings: rows 1-2 at t=30 s, row 3 at t=50 s, row 4 at t=95 s)\n");

    let mut outs: Vec<(ControllerKind, FailMode, RunRecord)> = Vec::new();
    for kind in ControllerKind::ALL {
        eprintln!("running {kind} in both fail modes…");
        let records = run_connection_interruption(kind).expect("the experiment runs");
        for (mode, out) in [FailMode::Safe, FailMode::Secure].into_iter().zip(records) {
            outs.push((kind, mode, out));
        }
    }

    let header: Vec<String> = std::iter::once("".to_string())
        .chain(
            outs.iter()
                .map(|(kind, mode, _)| format!("{kind}/{mode:?}")),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let row = |question: &str, ping: &str| -> Vec<String> {
        std::iter::once(question.to_string())
            .chain(outs.iter().map(|(_, _, o)| mark(o.accessible(ping))))
            .collect()
    };
    let rows = vec![
        row(
            "External user can access an external network host? (t=30s)",
            "h2->h1 early",
        ),
        row(
            "Internal user can access an external network host? (t=30s)",
            "h6->h1 early",
        ),
        row(
            "External user can access an internal network host? (t=50s)",
            "h2->h3",
        ),
        row(
            "Internal user can access an external network host? (t=95s)",
            "h6->h1 late",
        ),
    ];
    println!("{}", render_table(&header_refs, &rows));

    println!("attack progression:");
    for (kind, mode, o) in &outs {
        println!(
            "  {:<18} final state {} (φ2 fired {}×) — {}{}",
            format!("{kind}/{mode:?}:"),
            o.final_state.as_deref().unwrap_or("-"),
            o.rule_fires("phi2"),
            if o.accessible("h2->h3") {
                "UNAUTHORIZED INCREASED ACCESS"
            } else {
                "isolation held"
            },
            if !o.accessible("h6->h1 late") {
                "; DoS AGAINST LEGITIMATE TRAFFIC"
            } else {
                ""
            },
        );
    }
    println!(
        "\nNote: Ryu's L2-only flow-mod matches never satisfy φ2's nw_src read, so the\n\
         attack stalls in σ2 and the connection is never interrupted (paper §VII-C4)."
    );
    ExitCode::SUCCESS
}
