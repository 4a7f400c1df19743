//! What every workload receives and returns.

use crate::procfs;
use crate::spans::Recorder;
use crate::stats;
use attain::netsim::{HaltReason, SimTime, Simulation};
use std::collections::BTreeMap;
use std::time::Instant;

/// The seed at which exact counts are pinned in the benchmark.
pub const PINNED_SEED: u64 = 42;

/// One workload run's inputs.
pub struct Ctx {
    /// Reaches only the generated inputs.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// When this process started; `setup_s` counts from here.
    pub start: Instant,
    pub rec: Recorder,
}

/// One workload run's results.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed that check.
    pub failed: u64,
    /// Broken correctness gates; any entry fails the run.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the printed table: what the generic metrics mean on
    /// this workload, sample counts and quartiles, exact counts.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a violation unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Records a violation unless `got == want`, naming both.
    pub fn require_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.require(got == want, || {
            format!("{what}: got {got:?}, expected {want:?}")
        });
    }

    /// Records `peak_rss_mb`: the process's peak resident set so far.
    /// Workloads call it once, after their first timed repetition, so
    /// that the figure is what one run of the program needs — warm-up,
    /// set-up and one repetition — and does not grow with however many
    /// repetitions the run length happened to fit.
    pub fn sample_peak_rss(&mut self) {
        match procfs::peak_rss_mib() {
            Some(mib) => self.set("peak_rss_mb", mib),
            None => self.violations.push("cannot read VmHWM".into()),
        }
    }

    /// Notes a timing's sample count and quartiles under `label`.
    pub fn note_timing(&mut self, label: &str, unit: &str, samples: &[f64]) {
        self.note(format!("{label} [{unit}]: {}", stats::describe(samples)));
    }
}

/// Warm-up passes an untraced run makes.
const WARMUPS: usize = 3;

/// Times a run's set-up the way the timed section is timed: several
/// samples of each part, the fastest kept. `setup_s` is the process's
/// start-up, plus the fastest of [`WARMUPS`] warm-up passes, plus the
/// fastest of the builds (network, routes, schedule) that every
/// repetition of a simulated workload makes before it runs. One cold
/// sample of each would follow the machine's other tenants by a third;
/// the price is that a cost paid only by a process's very first pass
/// does not show.
pub struct SetupClock {
    startup_s: f64,
    warmups: Vec<f64>,
    builds: Vec<f64>,
}

impl SetupClock {
    /// Starts the clock; everything since `process_start` is start-up.
    pub fn begin(process_start: Instant) -> SetupClock {
        SetupClock {
            startup_s: process_start.elapsed().as_secs_f64(),
            warmups: Vec::new(),
            builds: Vec::new(),
        }
    }

    /// Runs `pass` [`WARMUPS`] times, timing each.
    pub fn warm_up(&mut self, mut pass: impl FnMut()) {
        for _ in 0..WARMUPS {
            let t = Instant::now();
            pass();
            self.warmups.push(t.elapsed().as_secs_f64());
        }
    }

    /// Times one repetition's build.
    pub fn build<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.builds.push(t.elapsed().as_secs_f64());
        built
    }

    /// The fastest build, or nothing for a workload that builds inside
    /// its repetitions.
    fn fastest_build_s(&self) -> f64 {
        self.builds.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    /// The set-up time as defined above, in seconds.
    pub fn setup_s(&self) -> f64 {
        self.startup_s + stats::fastest(self.warmups.iter()) + self.fastest_build_s()
    }

    /// Notes the samples behind [`SetupClock::setup_s`].
    pub fn note(&self, out: &mut Outcome) {
        out.note(format!(
            "setup_s = start-up {:.4} s + fastest warm-up of {:.4?} s + fastest of {} builds ({:.4} s)",
            self.startup_s,
            self.warmups,
            self.builds.len(),
            self.fastest_build_s(),
        ));
    }
}

/// Runs `rep` until `seconds` have passed since the first began, at
/// least once. Whatever `rep` does outside its own timed section (a
/// fresh build for the next repetition) counts toward the run length
/// but not toward any metric.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut(usize)) {
    let begun = Instant::now();
    let mut i = 0;
    loop {
        rep(i);
        i += 1;
        if begun.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// How many steps of virtual time a simulated repetition is timed in.
const SLICES: u64 = 16;

/// Runs `sim` to `horizon` in [`SLICES`] equal steps of virtual time
/// and returns the host seconds each step took. Events are dispatched
/// in the same order as by one call, so every simulated count is
/// unchanged; the steps exist so that [`fastest_composite`] can discard
/// the parts of a repetition that another tenant of the machine
/// disturbed, where the fastest whole repetition can only discard whole
/// repetitions (and `fabric_large` fits three in a run).
pub fn run_sliced(sim: &mut Simulation, horizon: SimTime) -> (HaltReason, Vec<f64>) {
    let mut slices = Vec::with_capacity(SLICES as usize);
    let mut halt = HaltReason::Horizon;
    for i in 1..=SLICES {
        let until = if i == SLICES {
            horizon
        } else {
            SimTime(horizon.0 / SLICES * i)
        };
        let t = Instant::now();
        halt = sim.run_until(until);
        slices.push(t.elapsed().as_secs_f64());
        if halt != HaltReason::Horizon {
            break;
        }
    }
    (halt, slices)
}

/// The host seconds of a repetition assembled from the fastest
/// instance of each step across `reps`. Every repetition does
/// bit-identical work step by step, so a step's host time is that
/// work's cost plus whatever the machine's other tenants took, and the
/// minimum is the estimate they move least. (Measured on the shared
/// 2-core sandbox during a noisy spell: over eight runs the median
/// repetition ranged over 12%, the fastest over 3.6%.)
pub fn fastest_composite<'a>(reps: impl Iterator<Item = &'a Vec<f64>> + Clone) -> f64 {
    let steps = reps.clone().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|i| stats::fastest(reps.clone().map(|r| &r[i])))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_takes_each_step_from_its_fastest_repetition() {
        let reps = [
            vec![1.0, 5.0, 2.0],
            vec![2.0, 3.0, 9.0],
            vec![4.0, 4.0, 4.0],
        ];
        assert_eq!(fastest_composite(reps.iter()), 1.0 + 3.0 + 2.0);
        assert_eq!(fastest_composite(reps[..1].iter()), 8.0);
    }
}
