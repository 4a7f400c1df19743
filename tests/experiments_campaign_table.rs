//! EXPERIMENTS.md's campaign class table agrees with the golden
//! digests: every line of `tests/golden/campaign/full.txt` carries the
//! class the table gives its (attack, controller) pair, and the
//! section's cell counts are the goldens' line counts.

use std::collections::BTreeMap;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const FULL: &str = include_str!("golden/campaign/full.txt");
const SMOKE: &str = include_str!("golden/campaign/smoke.txt");

/// The "Conformance campaign" section, up to the next `##` heading.
fn campaign_section() -> &'static str {
    let start = DOC
        .find("## Conformance campaign")
        .expect("EXPERIMENTS.md has a campaign section");
    let rest = &DOC[start + 2..];
    &rest[..rest.find("\n## ").unwrap_or(rest.len())]
}

/// `(attack, controller slug) → class`, read off the section's table.
fn class_table() -> BTreeMap<(String, String), String> {
    let mut lines = campaign_section()
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
    let section = campaign_section();
    let full = FULL.lines().count();
    let smoke = SMOKE.lines().count();
    assert!(section.contains(&format!("{full} cells")), "full: {full}");
    assert!(section.contains(&format!("{full}-cell")), "full: {full}");
    assert!(section.contains(&format!("{smoke}-cell")), "smoke: {smoke}");
}
