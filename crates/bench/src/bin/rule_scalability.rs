//! Regenerates the **§VI-D scalability analysis**: the memory-complexity
//! formulas for `N_D` and `N_C`, and measured per-message
//! rule-evaluation time against the paper's asymptotic bounds —
//! `O(|Φ| + |α_executed|)` when at most one conditional matches,
//! `O(|Φ| · |α_max|)` when all of them do — under both the reference
//! scan (the paper's Algorithm 1 loop, which those bounds describe) and
//! the compiled per-state dispatcher (the default mode), over the three
//! workloads of [`attain_bench::sweep_workloads`].
//!
//! Exits non-zero unless the scan's ≤1-match cost grows with |Φ| and
//! the dispatcher's stays flat.
//!
//! Usage: `cargo run --release -p attain-bench --bin rule_scalability
//! [-- --json PATH]` (`BENCH_rule_eval.json` is this report).

use attain_bench::{render_table, sweep_workloads, timing};
use attain_core::exec::{AttackExecutor, DispatchMode, InjectorInput};
use attain_core::model::ConnectionId;
use attain_core::scenario;
use attain_openflow::Frame;
use std::hint::black_box;
use std::process::ExitCode;

const SIZES: [usize; 5] = [1, 8, 64, 256, 1024];

/// One measured point: a workload at a rule count, in both modes.
struct Row {
    name: String,
    scan_ns: f64,
    dispatch_ns: f64,
}

/// Mean ns/message through `exec` with `frames` cycled round-robin;
/// `now` advances so sleep/wakeup arithmetic stays monotone.
fn measure(mut exec: AttackExecutor, frames: &[Frame]) -> f64 {
    let mut now = 0u64;
    let mut i = 0usize;
    timing::measure_ns(|| {
        now += 1_000;
        let out = exec.on_message(InjectorInput {
            conn: ConnectionId(0),
            to_controller: true,
            frame: frames[i % frames.len()].clone(),
            now_ns: now,
        });
        i += 1;
        black_box(out);
    })
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"rule_eval\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scan_ns\": {:.2}, \"dispatch_ns\": {:.2}}}{comma}\n",
            r.name, r.scan_ns, r.dispatch_ns
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--json" => Some(path),
        _ => {
            eprintln!("usage: rule_scalability [--json PATH]");
            return ExitCode::from(2);
        }
    };

    println!("Section VI-D — scalability analysis\n");

    println!("(1) memory complexity of the system model representations");
    let sc = scenario::enterprise_network();
    let (nd_bound, nc_bound) = sc.system.memory_complexity_bounds();
    let s = sc.system.switches().count();
    let h = sc.system.hosts().count();
    let c = sc.system.controllers().count();
    let rows = vec![
        vec![
            "N_D (data plane graph)".into(),
            format!("O((|S|+|H|)^2) = O(({s}+{h})^2)"),
            nd_bound.to_string(),
            sc.system.data_plane().len().to_string(),
        ],
        vec![
            "N_C (control plane relation)".into(),
            format!("O(|C|*|S|) = O({c}*{s})"),
            nc_bound.to_string(),
            sc.system.connection_count().to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "structure",
                "paper bound",
                "worst case",
                "case study actual"
            ],
            &rows
        )
    );

    println!("(2) runtime complexity of rule execution [ns/msg]");
    let workloads = sweep_workloads();
    let mut rows = Vec::new();
    for &n in &SIZES {
        for (label, executor, frames) in &workloads {
            rows.push(Row {
                name: format!("{label}/{n}"),
                scan_ns: measure(executor(n, DispatchMode::Scan), frames),
                dispatch_ns: measure(executor(n, DispatchMode::Compiled), frames),
            });
        }
    }
    let mut header = vec!["|Φ| rules".to_string()];
    for (label, ..) in &workloads {
        header.push(format!("{label} scan"));
        header.push(format!("{label} dispatch"));
    }
    let table: Vec<Vec<String>> = SIZES
        .iter()
        .zip(rows.chunks(workloads.len()))
        .map(|(n, points)| {
            let mut cells = vec![n.to_string()];
            for p in points {
                cells.push(format!("{:.0}", p.scan_ns));
                cells.push(format!("{:.0}", p.dispatch_ns));
            }
            cells
        })
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header, &table));
    println!(
        "The scan (Algorithm 1's loop) grows linearly in |Φ| in both §VI-D2\n\
         regimes: O(|Φ| + |α_executed|) on one_match, O(|Φ| · |α_max|) on\n\
         all_match. The compiled dispatcher (the default) is flat on\n\
         one_match, evaluates ~|Φ|/8 candidates on mixed_types, and is at\n\
         parity with the scan on all_match, where every rule is a candidate."
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, render_json(&rows)) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    // The section's claim, with wide margins (measured: ~100× and ~1×).
    let point = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .expect("one_match is swept at 8 and 1,024 rules")
    };
    let (small, large) = (point("one_match/8"), point("one_match/1024"));
    let scan_growth = large.scan_ns / small.scan_ns;
    let dispatch_growth = large.dispatch_ns / small.dispatch_ns;
    if scan_growth < 10.0 || dispatch_growth > 3.0 {
        eprintln!(
            "error: one_match from 8 to 1,024 rules: scan grew {scan_growth:.1}× (want ≥ 10×), \
             dispatch {dispatch_growth:.1}× (want ≤ 3×)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
