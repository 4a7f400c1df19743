//! Command-line and table helpers shared by the binaries in `src/bin/`.

// Each binary uses a subset of these helpers.
#![allow(dead_code)]

use std::str::FromStr;

/// The value following flag `name`, parsed as `T`.
pub fn flag<T: FromStr>(name: &str, rest: &mut std::slice::Iter<'_, String>) -> Result<T, String> {
    let raw = rest.next().ok_or(format!("{name} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{name}: invalid value {raw:?}"))
}

/// Renders an ASCII table: a header row plus data rows, columns padded
/// to content width.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let rule: String = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            let pad = w - cell.chars().count();
            s.push(' ');
            s.push_str(cell);
            s.push_str(&" ".repeat(pad + 1));
            s.push('|');
        }
        s
    };
    let mut out = String::new();
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&fmt_row(
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&rule);
    out.push('\n');
    out
}
