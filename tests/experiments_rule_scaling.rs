//! EXPERIMENTS.md's §VI-D rule-scaling table and the ratios its prose
//! derives from it agree with `BENCH_rule_eval.json`, the report
//! `bin/rule_scalability --json` writes. Each cell is the report's
//! nanoseconds rounded to whole ns with thousands separators, so
//! regenerating the report without retyping the table (or the reverse)
//! fails here.

use std::collections::BTreeMap;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const REPORT: &str = include_str!("../BENCH_rule_eval.json");

/// The rule counts the sweep runs, one table row each.
const SIZES: [u32; 5] = [1, 8, 64, 256, 1024];
/// The workloads, in the table's column order (scan, then dispatch).
const WORKLOADS: [&str; 3] = ["one_match", "all_match", "mixed_types"];

/// The section under `heading`, up to the next `##` heading.
fn section(heading: &str) -> &'static str {
    let start = DOC
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {heading:?} section"));
    let rest = &DOC[start + 2..];
    &rest[..rest.find("\n## ").unwrap_or(rest.len())]
}

/// The value of `"key": <number>` in one report row.
fn number(row: &str, key: &str) -> f64 {
    let at = row
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{key} missing from {row}"));
    let rest = &row[at + key.len() + 4..];
    let end = rest.find([',', '}']).expect("value ends");
    rest[..end].trim().parse().expect("a number")
}

/// `name → (scan_ns, dispatch_ns)` for every row of the report.
fn report() -> BTreeMap<String, (f64, f64)> {
    let mut rows = BTreeMap::new();
    for row in REPORT.lines().filter(|l| l.contains("\"name\": ")) {
        let name = row.split('"').nth(3).expect("row name").to_string();
        let scan_dispatch = (number(row, "scan_ns"), number(row, "dispatch_ns"));
        assert!(rows.insert(name, scan_dispatch).is_none(), "duplicate row");
    }
    rows
}

fn row(rows: &BTreeMap<String, (f64, f64)>, workload: &str, size: u32) -> (f64, f64) {
    rows[&format!("{workload}/{size}")]
}

/// Whole nanoseconds with thousands separators: `3468.71` → `3,469`.
fn grouped(ns: f64) -> String {
    let digits = (ns.round() as u64).to_string();
    let mut out = String::new();
    for (i, d) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(d);
    }
    out
}

#[test]
fn table_cells_are_the_report_rounded() {
    let rows = report();
    assert_eq!(rows.len(), SIZES.len() * WORKLOADS.len(), "report rows");
    let table: Vec<Vec<&str>> = section("## §VI-D")
        .lines()
        .skip_while(|l| !l.starts_with("| \\|Φ\\| rules |"))
        .skip(2) // header and `|---|` rule
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect()
        })
        .collect();
    assert_eq!(table.len(), SIZES.len(), "one table row per rule count");
    let mut cells = 0;
    for (cols, size) in table.iter().zip(SIZES) {
        assert_eq!(cols[0], grouped(size.into()), "row label");
        let expected = WORKLOADS.iter().flat_map(|w| {
            let (scan, dispatch) = row(&rows, w, size);
            [grouped(scan), grouped(dispatch)]
        });
        assert_eq!(cols.len(), 7, "|Φ| plus six columns at {size}");
        for (column, (cell, want)) in cols[1..].iter().zip(expected).enumerate() {
            assert_eq!(*cell, want, "|Φ|={size}, column {}", column + 1);
            cells += 1;
        }
    }
    assert_eq!(cells, 30);
}

#[test]
fn prose_ratios_follow_from_the_report() {
    let rows = report();
    let prose = section("## §VI-D");
    let (one_scan_8, one_dispatch_8) = row(&rows, "one_match", 8);
    let (one_scan_1024, one_dispatch_1024) = row(&rows, "one_match", 1024);
    let (all_scan_256, all_dispatch_256) = row(&rows, "all_match", 256);
    let (mixed_scan_1024, mixed_dispatch_1024) = row(&rows, "mixed_types", 1024);

    let claims = [
        format!(
            "{}× at |Φ|=1,024",
            (one_scan_1024 / one_dispatch_1024).round()
        ),
        format!("(here {}×)", (one_scan_1024 / one_scan_8).round()),
        format!("(here {:.1}×)", one_dispatch_1024 / one_dispatch_8),
        format!(
            "differs by {}%",
            ((all_scan_256 / all_dispatch_256 - 1.0) * 100.0).round()
        ),
        format!(
            "(≈{}× over the scan)",
            (mixed_scan_1024 / mixed_dispatch_1024).round()
        ),
    ];
    let prose_one_line = prose.split_whitespace().collect::<Vec<_>>().join(" ");
    for claim in &claims {
        assert!(
            prose_one_line.contains(claim.as_str()),
            "prose lacks {claim:?}"
        );
    }

    // "~110–130 ns/msg at every size" for the ≤1-match dispatcher.
    assert!(prose.contains("~110–130 ns/msg at every size"));
    for size in SIZES {
        let dispatch = row(&rows, "one_match", size).1;
        assert!(
            (110.0..=130.0).contains(&dispatch),
            "one_match/{size} dispatch {dispatch} ns is outside 110–130"
        );
    }
}
