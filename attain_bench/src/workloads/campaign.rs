//! `campaign_full`: the conformance campaign's golden 330-cell matrix on
//! one worker — the product a user runs. Cells last well under a
//! millisecond, so attack compilation, network construction, the
//! handshake, the oracle and report rendering dominate, and the
//! steady-state message cost barely shows. The matrix pins its own
//! seeds (the goldens depend on them), so `--seed` changes nothing here.

use crate::run::{repeat_for, Ctx, Outcome, SetupClock};
use crate::stats;
use attain::campaign::cell::{run_baseline, run_cell};
use attain::campaign::{oracle, run_with, CampaignReport, CellStatus, Matrix, RunnerConfig, Scope};
use attain::controllers::ControllerKind;
use attain::core::{dsl, scenario};
use attain::injector::harness::{build_case_study, try_attach_attack};
use attain::netsim::{FailMode, HostCommand, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// The checked-in digests the full matrix must reproduce.
const GOLDEN: &str = include_str!("../../../tests/golden/campaign/full.txt");
const CELLS: usize = 330;

/// One timed campaign run.
struct Rep {
    wall_s: f64,
    report: CampaignReport,
}

fn rep(matrix: &Matrix, jobs: usize) -> Rep {
    let t = Instant::now();
    let report = run_with(matrix, &RunnerConfig::new(jobs));
    Rep {
        wall_s: t.elapsed().as_secs_f64(),
        report,
    }
}

/// Cells that did not pass, were not judged, or whose digest line is
/// not the golden one.
fn failed_cells(report: &CampaignReport) -> u64 {
    let mismatched = report
        .golden_digests()
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(fresh, golden)| fresh != golden)
        .count();
    let not_passing = report.cells.len() - report.passed();
    not_passing.max(mismatched) as u64
}

/// Checks one repetition's report; `canonical` is the first
/// repetition's canonical JSON, which every later one must equal.
fn check(i: usize, report: &CampaignReport, canonical: &str, out: &mut Outcome) {
    out.require_eq(&format!("rep {i} cells"), report.cells.len(), CELLS);
    out.require_eq(&format!("rep {i} cells passing"), report.passed(), CELLS);
    out.require_eq(&format!("rep {i} cells unjudged"), report.unjudged(), 0);
    out.require(report.golden_digests() == GOLDEN, || {
        format!("rep {i} digests differ from tests/golden/campaign/full.txt")
    });
    out.require(report.canonical_json() == canonical, || {
        format!("rep {i} canonical report differs from rep 0")
    });
    out.attempted += report.cells.len() as u64;
    out.failed += failed_cells(report);
}

/// The workload's entry point.
pub fn workload(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let matrix = Matrix::full();
    if ctx.traced {
        let setup = ctx.rec.open_at("setup", None, ctx.start);
        ctx.rec.time("warmup", Some(setup), || rep(&matrix, 1));
        ctx.rec.close(setup);
        traced(ctx, &matrix, &mut out);
        return out;
    }
    // A campaign builds its networks inside each cell, so its set-up
    // is the process's start-up and a warm-up pass.
    let mut clock = SetupClock::begin(ctx.start);
    clock.warm_up(|| {
        rep(&matrix, 1);
    });
    out.set("setup_s", clock.setup_s());
    clock.note(&mut out);
    // Reports are checked as they come and dropped, so that the
    // process's peak memory is one campaign's, not the run length's.
    let mut walls = Vec::new();
    let mut canonical = None;
    repeat_for(ctx.seconds, |i| {
        let r = rep(&matrix, 1);
        let canonical = canonical.get_or_insert_with(|| r.report.canonical_json());
        check(i, &r.report, canonical, &mut out);
        if i == 0 {
            out.sample_peak_rss();
        }
        walls.push(r.wall_s);
    });
    // Every repetition does identical work; the fastest is the one the
    // machine's other tenants disturbed least (see `run::fastest_composite`).
    let wall = stats::fastest(walls.iter());
    out.set("work_per_s", CELLS as f64 / wall);
    out.set("unit_us", wall * 1e6 / CELLS as f64);
    out.note_timing("campaign wall", "s", &walls);
    out.note(format!(
        "campaign_wall_ms = {:.3}; work_per_s = matrix cells per host second; unit_us = host us per cell, its share of the baselines included",
        wall * 1e3
    ));
    out
}

/// Runs every cell and its baseline one by one, timing each. The
/// runner shares one baseline among the enterprise attacks; one per
/// cell here samples the same population of runs.
fn timed_units(matrix: &Matrix) -> (Vec<f64>, Vec<(CellStatus, CellStatus)>) {
    let status = |r| match r {
        Ok(outcome) => CellStatus::Completed(outcome),
        Err(e) => CellStatus::Failed {
            msg: format!("{e}"),
        },
    };
    let mut walls_us = Vec::new();
    let mut pairs = Vec::new();
    for cell in matrix.cells() {
        let attack = &matrix.attacks[cell.attack];
        let (controller, fail_mode, seed) = (cell.controller, cell.fail_mode, cell.seed);
        let t = Instant::now();
        let attacked = run_cell(attack, controller, fail_mode, seed);
        walls_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let baseline = run_baseline(attack, controller, fail_mode, seed);
        walls_us.push(t.elapsed().as_secs_f64() * 1e6);
        pairs.push((status(attacked), status(baseline)));
    }
    (walls_us, pairs)
}

/// Share of an enterprise cell spent before `run_until`: compile,
/// build, attach and schedule, reproduced with the harness the cell
/// runner itself calls. Median over one cell per (attack, controller).
fn cell_setup_share() -> f64 {
    let mut shares = Vec::new();
    for (_, source) in scenario::attacks::ALL {
        for controller in ControllerKind::CAMPAIGN {
            let t = Instant::now();
            let mut sim = build_case_study(controller, FailMode::Secure);
            try_attach_attack(&mut sim, source).expect("shipped attacks attach");
            let h1 = sim.node_id("h1").expect("the case study has h1");
            sim.schedule_command(
                SimTime::from_secs(10),
                HostCommand::Ping {
                    host: h1,
                    dst: "10.0.0.6".parse().expect("a valid address"),
                    count: 8,
                    interval: SimTime::from_secs(1),
                    label: "w1".into(),
                },
            );
            let setup = t.elapsed().as_secs_f64();
            sim.run_until(SimTime::from_secs(65));
            shares.push(setup / t.elapsed().as_secs_f64());
        }
    }
    stats::median(&shares)
}

/// Median compile time over the eleven shipped attacks, each itself a
/// median of repeated compiles.
fn dsl_compile_us(matrix: &Matrix) -> f64 {
    let sc = scenario::enterprise_network();
    let per_attack: Vec<f64> = matrix
        .attacks
        .iter()
        .map(|a| {
            let samples: Vec<f64> = (0..50)
                .map(|_| {
                    let t = Instant::now();
                    match a.scope {
                        Scope::Enterprise => {
                            black_box(dsl::compile(a.source, &sc.system, &sc.attack_model).ok());
                        }
                        Scope::SelfContained => {
                            black_box(dsl::compile_document(a.source).ok());
                        }
                    }
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            stats::median(&samples)
        })
        .collect();
    stats::median(&per_attack)
}

/// The fastest of three campaign runs on `jobs` workers: one run each
/// would make the jobs 1 / jobs 2 ratio a ratio of two noises.
fn fastest_of_three(matrix: &Matrix, jobs: usize) -> Rep {
    (0..3)
        .map(|_| rep(matrix, jobs))
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("three runs were made")
}

fn traced(ctx: &mut Ctx, matrix: &Matrix, out: &mut Outcome) {
    let rec = &mut ctx.rec;
    let run_span = rec.open("run", None);
    let jobs1 = fastest_of_three(matrix, 1);
    rec.close(run_span);
    let jobs2 = rec.time("run.jobs2", None, || fastest_of_three(matrix, 2));

    let (compile_us, _) = rec.time_ms("replay.core.dsl", None, || dsl_compile_us(matrix));
    let ((mut walls_us, pairs), _) =
        rec.time_ms("replay.campaign.cell", None, || timed_units(matrix));
    let (setup_share, _) = rec.time_ms("replay.campaign.cell.setup", None, cell_setup_share);

    let collect = rec.open("collect", None);
    let (verdicts, judge_ms) = rec.time_ms("judge", Some(collect), || {
        pairs
            .iter()
            .map(|(attacked, baseline)| oracle::judge(attacked, baseline))
            .collect::<Vec<_>>()
    });
    let (_, render_ms) = rec.time_ms("render", Some(collect), || {
        black_box(jobs1.report.to_json(true));
        black_box(jobs1.report.golden_digests());
    });
    rec.close(collect);

    // Cells run one by one must be judged as the runner judged them.
    let from_runner: Vec<_> = jobs1.report.cells.iter().map(|c| c.observed).collect();
    out.require(verdicts == from_runner, || {
        "cells run one by one are judged differently from the runner's".into()
    });

    walls_us.sort_by(f64::total_cmp);
    out.set("core.dsl.compile_us", compile_us);
    out.set(
        "campaign.cell.wall_us_p50",
        stats::percentile(&walls_us, 50.0),
    );
    out.set(
        "campaign.cell.wall_us_p99",
        stats::percentile(&walls_us, 99.0),
    );
    out.set("campaign.cell.setup_share", setup_share);
    out.set(
        "campaign.oracle.judge_us",
        judge_ms * 1e3 / pairs.len() as f64,
    );
    out.set("campaign.report.render_ms", render_ms);
    out.set("campaign.runner.speedup_jobs2", jobs1.wall_s / jobs2.wall_s);
    // Nothing wraps the runner: the traced repetition is an ordinary one.
    out.set("trace_overhead", 1.0);
    out.note(format!(
        "jobs 1: {:.3} s, jobs 2: {:.3} s on {} processors; {} cell and baseline runs timed one by one",
        jobs1.wall_s,
        jobs2.wall_s,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        walls_us.len()
    ));
    let canonical = jobs1.report.canonical_json();
    check(0, &jobs1.report, &canonical, out);
    check(1, &jobs2.report, &canonical, out);
}
