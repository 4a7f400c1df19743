//! EXPERIMENTS.md's tables agree with the goldens they are typed from.
//! Every line of `tests/golden/campaign/full.txt` carries the class the
//! campaign table gives its (attack, controller) pair, and the section's
//! cell counts are the goldens' line counts. The Figure 11 tables and
//! the Table II grid read what `tests/golden/paper/` prints.

use std::collections::BTreeMap;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const FULL: &str = include_str!("golden/campaign/full.txt");
const SMOKE: &str = include_str!("golden/campaign/smoke.txt");
const FIG11: &str = include_str!("golden/paper/fig11.txt");
const TABLE2: &str = include_str!("golden/paper/table2.txt");

/// The section under `heading`, up to the next `##` heading.
fn section(heading: &str) -> &'static str {
    let start = DOC
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {heading:?} section"));
    let rest = &DOC[start + 2..];
    &rest[..rest.find("\n## ").unwrap_or(rest.len())]
}

/// `(attack, controller slug) → class`, read off the section's table.
fn class_table() -> BTreeMap<(String, String), String> {
    let mut lines = section("## Conformance campaign")
        .lines()
        .skip_while(|l| !l.starts_with("| attack |"));
    let header: Vec<String> = cells(lines.next().expect("class table header"))
        .skip(1)
        .map(str::to_lowercase)
        .collect();
    let mut table = BTreeMap::new();
    // Skip the `|---|` rule; the table ends at the first non-row line.
    for row in lines.skip(1).take_while(|l| l.starts_with('|')) {
        let mut cols = cells(row);
        let attack = cols.next().expect("attack column").to_string();
        for (controller, class) in header.iter().zip(cols) {
            let previous = table.insert(
                (attack.clone(), controller.clone()),
                class.trim_matches('*').to_string(),
            );
            assert!(previous.is_none(), "{attack} appears twice");
        }
    }
    table
}

fn cells(row: &str) -> impl Iterator<Item = &str> {
    row.trim().trim_matches('|').split('|').map(str::trim)
}

#[test]
fn class_table_matches_the_full_golden() {
    let table = class_table();
    let mut attacks: Vec<_> = table.keys().map(|(attack, _)| attack).collect();
    attacks.dedup();
    assert_eq!(attacks.len(), 11, "one row per shipped attack: {attacks:?}");
    assert_eq!(table.len(), 11 * 5, "five controller columns per row");

    for line in FULL.lines() {
        let mut fields = line.split_whitespace();
        let name = fields.next().expect("cell name");
        let class = fields.nth(1).expect("cell class");
        let mut coords = name.split('/');
        let attack = coords.next().expect("attack").to_string();
        let controller = coords.next().expect("controller").to_string();
        let documented = table
            .get(&(attack, controller))
            .unwrap_or_else(|| panic!("{name}: no row/column in the class table"));
        assert_eq!(documented, class, "{name}: EXPERIMENTS.md disagrees");
    }
}

#[test]
fn section_cell_counts_are_the_golden_line_counts() {
    let section = section("## Conformance campaign");
    let full = FULL.lines().count();
    let smoke = SMOKE.lines().count();
    assert!(section.contains(&format!("{full} cells")), "full: {full}");
    assert!(section.contains(&format!("{full}-cell")), "full: {full}");
    assert!(section.contains(&format!("{smoke}-cell")), "smoke: {smoke}");
}

/// The first table after `anchor` in `text`, header row first, each row
/// split into cells. Markdown (`|---|`) and ASCII-box (`+---+`) rules are
/// dropped; the table ends at the first line that is neither.
fn table<'a>(text: &'a str, anchor: &str) -> Vec<Vec<&'a str>> {
    let start = text
        .find(anchor)
        .unwrap_or_else(|| panic!("no table after {anchor:?}"));
    text[start..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|') || l.starts_with('+'))
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .map(|l| cells(l).collect())
        .collect()
}

/// A Figure 11 cell as a number, `None` for the paper's `*` (denial of
/// service). A parenthesised gloss, bold, escapes, thousands separators
/// and `%` are dropped: `**\*** (DoS)` is `*`, `1,014,728 (≈4000×)` is
/// 1014728, and `0%` equals `0.0%`.
fn quantity(cell: &str) -> Option<f64> {
    let cell = cell.split(" (").next().unwrap_or(cell);
    let cell = cell
        .strip_prefix("**")
        .and_then(|c| c.strip_suffix("**"))
        .unwrap_or(cell);
    let bare = cell.replace(['\\', ',', '%'], "");
    (bare != "*").then(|| {
        bare.parse()
            .unwrap_or_else(|_| panic!("{cell:?} is neither a number nor `*`"))
    })
}

#[test]
fn figure11_tables_match_the_golden() {
    let doc = section("## Figure 11");
    // (document anchor, golden anchor, the golden column of each
    // documented column)
    let tables: [(&str, &str, &[usize]); 3] = [
        ("(a) iperf throughput", "(a) iperf throughput", &[0, 1, 2]),
        ("(b) ping latency", "(b) ping latency", &[0, 1, 2, 4]),
        ("Control-plane traffic", "control plane load", &[0, 1, 2, 5]),
    ];
    for (doc_anchor, golden_anchor, columns) in tables {
        let documented = table(doc, doc_anchor);
        let golden = table(FIG11, golden_anchor);
        assert_eq!(
            documented.len(),
            4,
            "{doc_anchor}: header and 3 controllers"
        );
        assert_eq!(documented.len(), golden.len(), "{doc_anchor}: row count");
        for (d, g) in documented.iter().zip(&golden).skip(1) {
            assert_eq!(d.len(), columns.len(), "{doc_anchor}: {d:?}");
            assert_eq!(d[0], g[0], "{doc_anchor}: controller order");
            for (cell, &column) in d.iter().zip(columns).skip(1) {
                assert_eq!(
                    quantity(cell),
                    quantity(g[column]),
                    "{doc_anchor}, {}: EXPERIMENTS.md says {cell}, the golden {}",
                    d[0],
                    g[column]
                );
            }
        }
    }
}

#[test]
fn table2_grid_matches_the_golden() {
    let documented = table(section("## Table II"), "| access check |");
    let golden = table(TABLE2, "Table II");
    assert_eq!(documented.len(), 5, "header and 4 access checks");
    assert_eq!(documented.len(), golden.len(), "row count");
    // The same controllers (abbreviated in the document) and fail
    // modes, in the same order.
    assert_eq!(documented[0].len(), 7, "six controller/mode columns");
    assert_eq!(documented[0].len(), golden[0].len(), "column count");
    for (d, g) in documented[0].iter().zip(&golden[0]).skip(1) {
        let (d_controller, d_mode) = d.split_once('/').expect("controller/mode");
        let (g_controller, g_mode) = g.split_once('/').expect("controller/mode");
        assert!(
            g_controller
                .to_lowercase()
                .starts_with(&d_controller.to_lowercase())
                && d_mode == g_mode,
            "column {d} is the golden's {g}"
        );
    }
    let long = |end: &str| match end {
        "ext" => "external",
        "int" => "internal",
        other => panic!("unknown end {other:?}"),
    };
    for (d, g) in documented.iter().zip(&golden).skip(1) {
        // `ext→int host (t=50s)` is the golden's
        // `External user can access an internal network host? (t=50s)`.
        let (ends, time) = d[0].split_once(" host ").expect("`a→b host (t=…)`");
        let (from, to) = ends.split_once('→').expect("`a→b`");
        assert_eq!(
            g[0].to_lowercase(),
            format!(
                "{} user can access an {} network host? {time}",
                long(from),
                long(to)
            )
        );
        assert_eq!(d.len(), g.len(), "{}: column count", d[0]);
        let marks: Vec<&str> = g[1..]
            .iter()
            .map(|cell| match *cell {
                "yes" => "✓",
                "NO" => "✗",
                other => panic!("golden cell {other:?}"),
            })
            .collect();
        assert_eq!(d[1..], marks, "{}: EXPERIMENTS.md disagrees", d[0]);
    }
}
