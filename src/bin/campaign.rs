//! The conformance campaign driver: every `attacks/*.atk` × five
//! controller applications × both fail modes × a seed set, judged by
//! the differential and golden-trace oracles.
//!
//! Usage: `cargo run --release --bin campaign [options]`; `usage()`
//! below lists the options and is printed, with exit status 2, for any
//! malformed, valueless or unknown argument.
//!
//! The report's canonical bytes (wall-times zeroed) are byte-identical
//! for any `--jobs`; exit status is non-zero if any cell fails its
//! expectation, any cell could not be judged (panicked, timed out, or
//! exhausted its budget), or the golden digests drifted. Incomplete
//! cells are annotated in the report, never aborted on.

mod common;

use attain::campaign::{diff_golden, Filter, Matrix, RunnerConfig};
use common::flag;
use std::process::ExitCode;
use std::time::Duration;

/// The option list; the `--smoke` sizes are read off the matrix itself.
fn usage() -> String {
    let smoke = Matrix::smoke();
    format!(
        "\
usage: campaign [options]
  --jobs N           worker threads (default: available parallelism)
  --seeds N          seeds 1..=N instead of the default set
  --smoke            the reduced CI matrix ({} attacks × {} × {} × {} seed)
  --only SPEC        attack=…,controller=…,fail=…,seed=… (any subset)
  --out PATH         report path (default CAMPAIGN_report.json)
  --update-golden    rewrite tests/golden/campaign/ from this run
  --golden PATH      golden digests file to verify/update
  --cell-timeout SEC wall-clock deadline per cell (default 120, 0 = off)
  --max-events N     deterministic event budget per cell (default: none)",
        smoke.attacks.len(),
        smoke.controllers.len(),
        smoke.fail_modes.len(),
        smoke.seeds.len()
    )
}

/// The command line, parsed and typed.
#[derive(Default)]
struct Cli {
    smoke: bool,
    update_golden: bool,
    jobs: Option<usize>,
    seeds: Option<u64>,
    only: Option<Filter>,
    out: Option<String>,
    golden: Option<String>,
    cell_timeout: Option<u64>,
    max_events: Option<u64>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--update-golden" => cli.update_golden = true,
            "--jobs" => cli.jobs = Some(flag(arg, &mut rest)?),
            "--seeds" => cli.seeds = Some(flag(arg, &mut rest)?),
            "--only" => {
                let spec: String = flag(arg, &mut rest)?;
                cli.only = Some(Filter::parse(&spec).map_err(|e| e.to_string())?);
            }
            "--out" => cli.out = Some(flag(arg, &mut rest)?),
            "--golden" => cli.golden = Some(flag(arg, &mut rest)?),
            "--cell-timeout" => cli.cell_timeout = Some(flag(arg, &mut rest)?),
            "--max-events" => cli.max_events = Some(flag(arg, &mut rest)?),
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(cli)
}

/// An output path that cannot be written ends the run with status 1.
fn cannot_write(path: &str, e: &std::io::Error) -> ExitCode {
    eprintln!("campaign: cannot write {path}: {e}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let smoke = cli.smoke;
    let update_golden = cli.update_golden;
    let jobs = cli.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let out = cli.out.unwrap_or_else(|| "CAMPAIGN_report.json".into());
    let cell_timeout = cli.cell_timeout.unwrap_or(120);
    let golden_path = cli.golden.unwrap_or_else(|| {
        format!(
            "tests/golden/campaign/{}.txt",
            if smoke { "smoke" } else { "full" }
        )
    });

    let mut matrix = if smoke {
        Matrix::smoke()
    } else {
        Matrix::full()
    };
    if let Some(n) = cli.seeds {
        matrix.seeds = (1..=n).collect();
    }
    if let Some(filter) = &cli.only {
        filter.apply(&mut matrix);
    }
    let n_cells = matrix.cells().len();
    eprintln!(
        "campaign: {} attacks × {} controllers × {} fail modes × {} seeds = {} cells on {} jobs",
        matrix.attacks.len(),
        matrix.controllers.len(),
        matrix.fail_modes.len(),
        matrix.seeds.len(),
        n_cells,
        jobs
    );

    let mut cfg = RunnerConfig::new(jobs);
    cfg.cell_timeout = (cell_timeout > 0).then(|| Duration::from_secs(cell_timeout));
    cfg.max_events = cli.max_events;
    let report = attain::campaign::run_with(&matrix, &cfg);
    eprintln!("{}", report.shape);
    if let Err(e) = std::fs::write(&out, report.to_json(true)) {
        return cannot_write(&out, &e);
    }
    eprintln!(
        "{}/{} cells pass, {} unjudged ({} ms); report: {out}",
        report.passed(),
        report.cells.len(),
        report.unjudged(),
        report.wall_ms_total
    );

    let mut ok = true;
    for f in report.failures() {
        ok = false;
        match (f.observed, f.status.annotation()) {
            (Some(observed), _) => eprintln!(
                "FAIL {}: observed {}, expected one of [{}]",
                f.name,
                observed,
                f.expected
                    .iter()
                    .map(|e| e.slug())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            (None, Some(annotation)) => {
                eprintln!("UNJUDGED {} [{}]: {annotation}", f.name, f.status.slug())
            }
            (None, None) => eprintln!("UNJUDGED {}: baseline incomplete", f.name),
        }
    }

    let fresh = report.golden_digests();
    if update_golden {
        let written = std::path::Path::new(&golden_path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&golden_path, &fresh));
        if let Err(e) = written {
            return cannot_write(&golden_path, &e);
        }
        eprintln!("golden digests updated: {golden_path}");
    } else {
        match std::fs::read_to_string(&golden_path) {
            Ok(checked_in) => {
                if let Some(diff) = diff_golden(&checked_in, &fresh) {
                    ok = false;
                    eprintln!("{diff}");
                }
            }
            Err(e) => {
                eprintln!("note: no golden file at {golden_path} ({e}); run with --update-golden");
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
