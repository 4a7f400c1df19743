//! The ATTAIN benchmark: five workloads, four end-to-end metrics on
//! each, and a ledger of per-layer metrics taken from outside the
//! program. See `README.md` beside this package.
//!
//! ```text
//! attain_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! attain_bench [--seed N] [--seconds S] [--trace 0|1] [--check-repeat]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one. Without it,
//! re-executes itself once per workload and prints every table.

mod alloc;
mod layers;
mod metrics;
mod procfs;
mod run;
mod shims;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Ctx, Outcome, PINNED_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default run length, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where span files go: under the build directory, which `.gitignore`
/// already names.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("attain_bench")
}

fn result_json(correct: bool, out: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                out.metrics.get(m.name).copied().unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn print_table(name: &str, args: &Args, out: &Outcome, defs: &[MetricDef]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== {name}: seed {}, {} s, {} run, nproc {nproc}",
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    println!("   {}", metrics::workload(name).map_or("", |w| w.why));
    for m in defs {
        let Some(value) = out.metrics.get(m.name) else {
            continue; // a layer that is not on this workload's path
        };
        let bound = m.bound.map_or(String::new(), |b| {
            format!(", regression bound {:.0}%", b * 100.0)
        });
        println!(
            "   {:<40} {:>16.4} {:<6} ({} is better{bound})",
            m.name,
            value,
            m.unit,
            m.better.as_str()
        );
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "   failed_share {share} ({} of {} operations)",
        out.failed, out.attempted
    );
    for note in &out.notes {
        println!("   . {note}");
    }
    for v in &out.violations {
        println!("   VIOLATION: {v}");
    }
}

/// Runs one workload in this process.
fn run_workload(name: &'static str, args: &Args, start: Instant) -> ExitCode {
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        start,
        rec: spans::Recorder::new(name, start),
    };
    let mut out = workloads::run(name, &mut ctx).expect("the name was checked");
    let defs: &[MetricDef] = if args.traced { &PER_LAYER } else { &END_TO_END };
    if !args.traced {
        for m in defs {
            let known = out
                .metrics
                .get(m.name)
                .is_some_and(|v| *v > 0.0 && v.is_finite());
            out.require(known, || format!("{} was not measured", m.name));
        }
    }
    out.require(out.attempted > 0, || "nothing was attempted".into());
    out.require_eq("failed operations", out.failed, 0);
    if args.traced {
        let dir = trace_dir();
        let path = dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, ctx.rec.to_json()))
        {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => out
                .violations
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    let correct = out.violations.is_empty();
    print_table(name, args, &out, defs);
    println!("{}", result_json(correct, &out, defs));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's result line, as far as the parent needs it.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Reads back a line [`result_json`] wrote.
fn parse_result(line: &str) -> Option<ChildResult> {
    let after = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
    };
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
        metrics.insert(name.to_string(), value.parse().ok()?);
    }
    Some(ChildResult {
        correct: after("correct")? == "true",
        attempted: after("attempted")?.parse().ok()?,
        failed: after("failed")?.parse().ok()?,
        metrics,
    })
}

/// Re-executes this binary for one workload, passing its output
/// through, and returns its result line parsed.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (tables, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{name} printed no result"))?;
    println!("{tables}");
    let result = parse_result(last).ok_or(format!("{name} printed a malformed result"))?;
    if !output.status.success() || !result.correct {
        return Err(format!("{name} failed its correctness gates"));
    }
    Ok(result)
}

/// Runs every workload once in a fresh process each.
fn run_set(args: &Args, traced: bool) -> Result<BTreeMap<&'static str, ChildResult>, String> {
    let mut set = BTreeMap::new();
    for w in &WORKLOADS {
        set.insert(w.name, run_child(w.name, args, traced)?);
    }
    Ok(set)
}

/// Whether `second` is worse than `first` by more than the metric's
/// bound.
fn regressed(m: &MetricDef, first: f64, second: f64) -> bool {
    let bound = m.bound.unwrap_or(0.0);
    match m.better {
        Better::Lower => second > first * (1.0 + bound),
        Better::Higher => second < first * (1.0 - bound),
    }
}

/// `--check-repeat`: two untraced sets of the same code must agree
/// within every metric's own bound, and exactly on every count.
fn check_repeat(args: &Args) -> Result<(), String> {
    let (first, second) = (run_set(args, false)?, run_set(args, false)?);
    println!("== check-repeat: two untraced sets of the same code");
    let mut ok = true;
    for w in &WORKLOADS {
        let (a, b) = (&first[w.name], &second[w.name]);
        // A timed loop may fit one repetition more or fewer, so the
        // counts may differ; the failed share must not.
        let share = |r: &ChildResult| r.failed as f64 / r.attempted as f64;
        if share(a) != share(b) {
            ok = false;
            println!("   {}: failed_share {} then {}", w.name, share(a), share(b));
        }
        for m in &END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let verdict = if regressed(m, x, y) || regressed(m, y, x) {
                ok = false;
                "DISAGREE"
            } else {
                "agree"
            };
            println!(
                "   {:<14} {:<12} {:>16.4} {:>16.4} {:+7.2}%  bound {:>3.0}%  {verdict}",
                w.name,
                m.name,
                x,
                y,
                (y / x - 1.0) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    if ok {
        Ok(())
    } else {
        Err("two sets of runs of the same code disagree beyond the bounds".into())
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("attain_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return match metrics::workload(name) {
            Some(w) => run_workload(w.name, &args, start),
            None => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "attain_bench: no workload {name}; there are {}",
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    let outcome = if args.check_repeat {
        check_repeat(&args)
    } else {
        run_set(&args, args.traced).map(|set| {
            let all: Vec<String> = set
                .iter()
                .map(|(name, r)| format!("\"{name}\": {}/{}", r.attempted - r.failed, r.attempted))
                .collect();
            println!(
                "{{\"seed\": {}, \"claim\": null, \"operations_as_expected\": {{{}}}}}",
                args.seed,
                all.join(", ")
            );
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("attain_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back() {
        let mut out = Outcome {
            attempted: 1000,
            failed: 0,
            ..Outcome::default()
        };
        out.set("setup_s", 0.8127);
        out.set("work_per_s", 2.5e6);
        let line = result_json(true, &out, &END_TO_END);
        let back = parse_result(&line).expect("the line parses");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        assert_eq!(back.metrics["setup_s"], 0.8127);
        assert_eq!(back.metrics["work_per_s"], 2.5e6);
        assert_eq!(back.metrics["unit_us"], 0.0);
        assert_eq!(back.metrics.len(), END_TO_END.len());
    }

    #[test]
    fn regression_is_judged_in_the_metrics_direction() {
        let metric = |better| MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        };
        let lower = &metric(Better::Lower);
        assert!(regressed(lower, 100.0, 111.0));
        assert!(!regressed(lower, 100.0, 109.0));
        assert!(!regressed(lower, 100.0, 50.0));
        let higher = &metric(Better::Higher);
        assert!(regressed(higher, 100.0, 89.0));
        assert!(!regressed(higher, 100.0, 91.0));
        assert!(!regressed(higher, 100.0, 200.0));
    }
}
