//! Regenerates **Figure 11**: the flow-modification-suppression
//! experiment (paper §VII-B) — (a) iperf throughput and (b) ping latency
//! between `h1` and `h6`, baseline vs. under attack, for Floodlight,
//! POX, and Ryu. An asterisk (*) denotes denial of service (zero
//! throughput / infinite latency), as in the paper.
//!
//! Usage: `cargo run --release --bin fig11 [--quick]`

mod common;

use attain_controllers::ControllerKind;
use attain_injector::harness::{run_flow_mod_suppression, Fidelity};
use attain_injector::{PingRow, RunRecord};
use common::render_table;
use std::process::ExitCode;

fn fmt_throughput(o: &RunRecord) -> String {
    if o.iperf_denied() {
        "*".to_string()
    } else {
        format!("{:.1}", o.mean_throughput_mbps())
    }
}

/// The run's one ping series, h1→h6.
fn ping(o: &RunRecord) -> &PingRow {
    &o.pings[0]
}

fn fmt_latency(o: &RunRecord) -> String {
    if ping(o).denied() {
        "*".to_string()
    } else {
        format!("{:.2}", ping(o).avg_rtt_ms.unwrap_or(f64::NAN))
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ => {
                eprintln!("unknown argument {arg}\nusage: fig11 [--quick]");
                return ExitCode::from(2);
            }
        }
    }
    let fidelity = if quick {
        Fidelity::quick()
    } else {
        Fidelity::paper()
    };
    println!(
        "Figure 11 — flow modification suppression ({} ping trials, {} x {} s iperf trials)",
        fidelity.ping_trials, fidelity.iperf_trials, fidelity.iperf_secs
    );
    println!("An asterisk (*) denotes a denial of service (throughput zero, latency infinite).\n");

    let mut runs: Vec<(ControllerKind, RunRecord, RunRecord)> = Vec::new();
    for kind in ControllerKind::ALL {
        eprintln!("running {kind} baseline…");
        let baseline = run_flow_mod_suppression(kind, false, &fidelity).expect("baseline runs");
        eprintln!("running {kind} under attack…");
        let attacked = run_flow_mod_suppression(kind, true, &fidelity).expect("attack runs");
        runs.push((kind, baseline, attacked));
    }

    // (a) Throughput.
    println!("(a) iperf throughput h1→h6 [Mb/s]");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(kind, b, a)| vec![kind.to_string(), fmt_throughput(b), fmt_throughput(a)])
        .collect();
    println!(
        "{}",
        render_table(&["controller", "baseline", "attack"], &rows)
    );

    // (b) Latency.
    println!("(b) ping latency h1→h6 [ms, mean over trials]");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(kind, b, a)| {
            vec![
                kind.to_string(),
                fmt_latency(b),
                fmt_latency(a),
                format!("{:.1}%", ping(b).loss_pct()),
                format!("{:.1}%", ping(a).loss_pct()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "controller",
                "baseline",
                "attack",
                "loss (base)",
                "loss (attack)"
            ],
            &rows
        )
    );

    // Control-plane load (the paper's "increased control plane traffic").
    println!("control plane load (messages over the whole run)");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(kind, b, a)| {
            vec![
                kind.to_string(),
                b.packet_ins.to_string(),
                a.packet_ins.to_string(),
                b.flow_mods.to_string(),
                a.flow_mods.to_string(),
                a.rule_fires("phi1").to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "controller",
                "PACKET_IN (base)",
                "PACKET_IN (attack)",
                "FLOW_MOD (base)",
                "FLOW_MOD (attack)",
                "suppressed"
            ],
            &rows
        )
    );

    // Per-trial series, for plotting Figure 11 exactly.
    println!("per-trial iperf series [Mb/s] (baseline | attack):");
    for (kind, b, a) in &runs {
        let series = |o: &RunRecord| {
            o.iperfs
                .iter()
                .map(|s| {
                    if s.is_denial_of_service() {
                        "*".to_string()
                    } else {
                        format!("{:.1}", s.throughput_mbps())
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  {:<11} {} | {}", kind.to_string(), series(b), series(a));
    }
    if let Some(kb) = peak_rss_kb() {
        eprintln!("peak RSS (VmHWM): {kb} kB");
    }
    // The trace is most of that peak; each run's is freed before the next.
    let trace_bytes = runs
        .iter()
        .flat_map(|(_, b, a)| [b, a])
        .map(|o| o.trace_bytes);
    eprintln!(
        "largest run's trace (Trace::stored_bytes): {} kB",
        trace_bytes.max().unwrap_or(0) / 1024
    );
    ExitCode::SUCCESS
}

/// The process's peak resident set size, where the OS reports it
/// (`VmHWM` in `/proc/self/status` on Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
