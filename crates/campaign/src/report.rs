//! The campaign report: machine-readable JSON plus the golden-digest
//! file format backing the golden-trace oracle.
//!
//! Two byte-level guarantees:
//!
//! * [`CampaignReport::canonical_json`] (wall-times zeroed) is
//!   byte-identical for the same matrix regardless of `--jobs` — the
//!   thread-count-invariance contract.
//! * [`CampaignReport::golden_digests`] is the exact content of
//!   `tests/golden/campaign/*.txt`; [`diff_golden`] renders a
//!   cell-naming diff when a checked-in file drifts.

use crate::matrix::{fail_slug, Matrix};
use crate::oracle::{self, Observed};
use crate::runner::CellStatus;
use attain_controllers::ControllerKind;
use attain_injector::RunRecord;
use attain_netsim::FailMode;
use std::fmt::{self, Write as _};

/// One classified cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// `attack/controller/failmode/sN`.
    pub name: String,
    /// Attack file stem.
    pub attack: String,
    /// Controller application.
    pub controller: ControllerKind,
    /// Fail mode.
    pub fail_mode: FailMode,
    /// Seed.
    pub seed: u64,
    /// How the supervised run ended; carries the outcome when it
    /// completed.
    pub status: CellStatus,
    /// The differential oracle's classification — `None` when either
    /// the cell or its baseline did not complete (the cell is then
    /// *unjudged*, never silently passed).
    pub observed: Option<Observed>,
    /// The expectations-table entry for this cell.
    pub expected: &'static [Observed],
    /// `observed ∈ expected`; always `false` for unjudged cells.
    pub pass: bool,
}

impl CellReport {
    /// The run's outcome, when it completed.
    pub fn outcome(&self) -> Option<&RunRecord> {
        self.status.outcome()
    }
}

/// The fingerprint-accuracy arm's tally: how the fingerprinting
/// attack's predictions distribute over the true applications.
///
/// Built by walking the report's cells in matrix order, so it is
/// byte-stable across `--jobs` like everything else in the canonical
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// One row per true application, in [`ControllerKind::CAMPAIGN`]
    /// order: `(true kind, predictions)` where predictions are
    /// `(predicted slug, count)` pairs — the slug is a controller slug
    /// or `"none"` for cells that never classified (or never
    /// completed). Rows and columns with zero counts are omitted.
    pub rows: Vec<(ControllerKind, Vec<(String, usize)>)>,
}

impl ConfusionMatrix {
    /// Cells tallied (the fingerprint attack's judged matrix slice).
    pub fn total(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|(_, preds)| preds.iter())
            .map(|(_, n)| n)
            .sum()
    }

    /// Cells whose prediction matched the true application.
    pub fn correct(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|(kind, preds)| {
                preds
                    .iter()
                    .filter(move |(slug, _)| slug == kind.slug())
                    .map(|(_, n)| n)
            })
            .sum()
    }
}

/// Where a campaign's work went: how the runs behind its units — every
/// cell and each distinct baseline, in each fail mode — were made. A run
/// stands for every fail mode of the matrix until it splits. This is
/// informational, like the wall times: a shared run that panics or times
/// out moves its units to `standalone`, so it is not part of the
/// canonical report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunShape {
    /// Baselines run with attacks attached as shadows: one per
    /// environment.
    pub environments: usize,
    /// Shadows forked off their baseline at their first non-pass
    /// decision. Their `wall_ms` counts only the fork's own run.
    pub forked: usize,
    /// Shadows that never diverged, so took their baseline's records
    /// (`wall_ms` 0).
    pub undiverged: usize,
    /// Runs with no shadows: an attack whose environment differs from
    /// its baseline's, or a unit run alone in its one fail mode.
    pub standalone: usize,
    /// Runs that split where a switch first consulted its fail mode.
    pub splits: usize,
}

/// One line: `run shape: 30 environments, 120 forked, …`.
impl fmt::Display for RunShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run shape: {} environments, {} forked, {} never diverged, {} standalone, \
             {} split on the fail mode",
            self.environments, self.forked, self.undiverged, self.standalone, self.splits
        )
    }
}

/// A whole campaign run, in matrix order.
#[derive(Debug)]
pub struct CampaignReport {
    /// The matrix that was run (post-filter).
    pub matrix: Matrix,
    /// One report per cell, in matrix order.
    pub cells: Vec<CellReport>,
    /// How the units behind the cells were produced.
    pub shape: RunShape,
    /// Total wall-clock for the run, in milliseconds.
    pub wall_ms_total: u64,
    /// Worker threads used (informational; must not affect canonical
    /// bytes).
    pub jobs: usize,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    // Shortest stable rendering; Rust's f64 Display round-trips.
    format!("{v}")
}

impl CampaignReport {
    /// How many cells passed both oracles' differential half.
    pub fn passed(&self) -> usize {
        self.cells.iter().filter(|c| c.pass).count()
    }

    /// The failing cells, if any. Unjudged cells count as failures —
    /// degraded mode reports them, it never hides them.
    pub fn failures(&self) -> Vec<&CellReport> {
        self.cells.iter().filter(|c| !c.pass).collect()
    }

    /// Cells the oracle could not judge (the cell or its baseline did
    /// not complete).
    pub fn unjudged(&self) -> usize {
        self.cells.iter().filter(|c| c.observed.is_none()).count()
    }

    /// The fingerprint confusion matrix, or `None` when the (filtered)
    /// matrix carries no fingerprinting cells at all.
    pub fn confusion_matrix(&self) -> Option<ConfusionMatrix> {
        let fp: Vec<&CellReport> = self
            .cells
            .iter()
            .filter(|c| c.attack == oracle::FINGERPRINT_ATTACK)
            .collect();
        if fp.is_empty() {
            return None;
        }
        let mut rows = Vec::new();
        for kind in ControllerKind::CAMPAIGN {
            let mut preds: Vec<(String, usize)> = Vec::new();
            for c in fp.iter().filter(|c| c.controller == kind) {
                let slug = c
                    .outcome()
                    .and_then(oracle::fingerprint_prediction)
                    .map_or("none", |k| k.slug());
                match preds.iter_mut().find(|(s, _)| s == slug) {
                    Some((_, n)) => *n += 1,
                    None => preds.push((slug.to_string(), 1)),
                }
            }
            if !preds.is_empty() {
                rows.push((kind, preds));
            }
        }
        Some(ConfusionMatrix { rows })
    }

    /// Renders the report as JSON. With `include_timing` false, every
    /// wall-time is zeroed and the `jobs` field omitted, producing the
    /// canonical bytes compared across thread counts.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut s = String::with_capacity(self.cells.len() * 512);
        s.push_str("{\n  \"matrix\": {\n    \"attacks\": [");
        for (i, a) in self.matrix.attacks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", json_escape(a.name));
        }
        s.push_str("],\n    \"controllers\": [");
        for (i, c) in self.matrix.controllers.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", c.slug());
        }
        s.push_str("],\n    \"fail_modes\": [");
        for (i, m) in self.matrix.fail_modes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", fail_slug(*m));
        }
        s.push_str("],\n    \"seeds\": [");
        for (i, seed) in self.matrix.seeds.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{seed}");
        }
        s.push_str("]\n  },\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let verdict = match (&c.observed, c.pass) {
                (None, _) => "unjudged",
                (Some(_), true) => "pass",
                (Some(_), false) => "fail",
            };
            let _ = write!(
                s,
                "    {{\"cell\": \"{}\", \"attack\": \"{}\", \"controller\": \"{}\", \
                 \"fail_mode\": \"{}\", \"seed\": {}, \"status\": \"{}\", \
                 \"verdict\": \"{verdict}\"",
                json_escape(&c.name),
                json_escape(&c.attack),
                c.controller.slug(),
                fail_slug(c.fail_mode),
                c.seed,
                c.status.slug(),
            );
            if let Some(observed) = c.observed {
                let _ = write!(s, ", \"observed\": \"{}\"", observed.slug());
            }
            if let Some(annotation) = c.status.annotation() {
                let _ = write!(s, ", \"annotation\": \"{}\"", json_escape(&annotation));
            }
            s.push_str(", \"expected\": [");
            for (j, e) in c.expected.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\"", e.slug());
            }
            s.push(']');
            let Some(o) = c.status.outcome() else {
                // Incomplete cells carry no outcome fields: nothing the
                // run did not actually produce appears in the report.
                s.push('}');
                continue;
            };
            let _ = write!(
                s,
                ", \"digest\": \"{}\", \"packet_ins\": {}, \"flow_mods\": {}, \
                 \"control_total\": {}, \"frames_dropped\": {}",
                o.digest, o.packet_ins, o.flow_mods, o.control_total, o.frames_dropped
            );
            if let Some(state) = &o.final_state {
                let _ = write!(s, ", \"final_state\": \"{}\"", json_escape(state));
            }
            s.push_str(", \"rule_fires\": {");
            for (j, (rule, n)) in o.rule_fires.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {}", json_escape(rule), n);
            }
            s.push_str("}, \"pings\": [");
            for (j, p) in o.pings.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "{{\"label\": \"{}\", \"sent\": {}, \"recv\": {}",
                    json_escape(&p.label),
                    p.transmitted,
                    p.received
                );
                if let Some(rtt) = p.avg_rtt_ms {
                    let _ = write!(s, ", \"avg_rtt_ms\": {}", json_f64(rtt));
                }
                s.push('}');
            }
            let wall = if include_timing { o.wall_ms } else { 0 };
            let _ = write!(s, "], \"wall_ms\": {wall}}}");
        }
        let total = if include_timing {
            self.wall_ms_total
        } else {
            0
        };
        let _ = write!(
            s,
            "\n  ],\n  \"summary\": {{\"cells\": {}, \"pass\": {}, \"fail\": {}, \
             \"unjudged\": {}, \"wall_ms_total\": {total}",
            self.cells.len(),
            self.passed(),
            self.cells.len() - self.passed(),
            self.unjudged(),
        );
        if let Some(m) = self.confusion_matrix() {
            let _ = write!(
                s,
                ", \"fingerprint\": {{\"attack\": \"{}\", \"cells\": {}, \"correct\": {}, \
                 \"confusion\": {{",
                oracle::FINGERPRINT_ATTACK,
                m.total(),
                m.correct(),
            );
            for (i, (kind, preds)) in m.rows.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {{", kind.slug());
                for (j, (slug, n)) in preds.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "\"{}\": {}", json_escape(slug), n);
                }
                s.push('}');
            }
            s.push_str("}}");
        }
        if include_timing {
            let _ = write!(s, ", \"jobs\": {}", self.jobs);
        }
        s.push_str("}\n}\n");
        s
    }

    /// The canonical bytes: timing-free JSON, identical across `--jobs`.
    pub fn canonical_json(&self) -> String {
        self.to_json(false)
    }

    /// The golden-digest file: one `cell-name digest observed` line per
    /// judged cell, in matrix order. Unjudged cells are omitted —
    /// their traces are incomplete, so they have no stable digest to
    /// pin (annotated degraded-mode cells never corrupt the goldens).
    pub fn golden_digests(&self) -> String {
        let mut s = String::new();
        for c in &self.cells {
            if let (Some(o), Some(observed)) = (c.status.outcome(), c.observed) {
                let _ = writeln!(s, "{} {} {}", c.name, o.digest, observed.slug());
            }
        }
        s
    }
}

/// Diffs freshly computed golden lines against a checked-in file,
/// returning a human-readable, cell-naming report — or `None` when the
/// files agree byte-for-byte.
pub fn diff_golden(checked_in: &str, fresh: &str) -> Option<String> {
    if checked_in == fresh {
        return None;
    }
    let parse = |s: &str| -> Vec<(String, String)> {
        s.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let mut it = l.splitn(2, ' ');
                let name = it.next().unwrap_or("").to_string();
                let rest = it.next().unwrap_or("").to_string();
                (name, rest)
            })
            .collect()
    };
    let old = parse(checked_in);
    let new = parse(fresh);
    let mut out = String::from("golden campaign digests drifted:\n");
    for (name, fresh_rest) in &new {
        match old.iter().find(|(n, _)| n == name) {
            None => {
                let _ = writeln!(out, "  + {name}: new cell ({fresh_rest})");
            }
            Some((_, old_rest)) if old_rest != fresh_rest => {
                let _ = writeln!(
                    out,
                    "  ! {name}: checked in `{old_rest}`, got `{fresh_rest}`"
                );
            }
            _ => {}
        }
    }
    for (name, old_rest) in &old {
        if !new.iter().any(|(n, _)| n == name) {
            let _ = writeln!(out, "  - {name}: cell vanished (was `{old_rest}`)");
        }
    }
    let _ = writeln!(
        out,
        "  (run with UPDATE_GOLDEN=1 to accept intentional semantic changes)"
    );
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_diff_names_the_drifted_cell() {
        let old =
            "a/pox/secure/s1 0000000000000001 silent\nb/ryu/safe/s2 0000000000000002 denial\n";
        let new =
            "a/pox/secure/s1 0000000000000001 silent\nb/ryu/safe/s2 00000000000000ff degraded\n";
        let d = diff_golden(old, new).expect("drift detected");
        assert!(d.contains("b/ryu/safe/s2"), "{d}");
        assert!(d.contains("UPDATE_GOLDEN=1"), "{d}");
        assert!(diff_golden(old, old).is_none());
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
