//! Matrix enumeration: which cells a campaign runs, in a fixed order.
//!
//! The matrix order (attack-major, then controller, fail mode, seed) is
//! the report order and the golden-file order; the runner may execute
//! cells in any interleaving but always merges results back into this
//! order, which is what makes the report independent of `--jobs`.

use crate::attacks::{self, AttackDef};
use attain_controllers::ControllerKind;
use attain_netsim::FailMode;
use std::fmt;

/// The seeds a full campaign sweeps per cell.
pub const FULL_SEEDS: [u64; 3] = [1, 2, 3];

/// Renders a fail mode as its cell-name / filter slug.
pub(crate) fn fail_slug(mode: FailMode) -> &'static str {
    match mode {
        FailMode::Safe => "safe",
        FailMode::Secure => "secure",
    }
}

fn fail_from_slug(s: &str) -> Option<FailMode> {
    match s {
        "safe" => Some(FailMode::Safe),
        "secure" => Some(FailMode::Secure),
        _ => None,
    }
}

/// One cell's coordinates.
#[derive(Debug, Clone, Copy)]
pub struct CellId {
    /// Index into the matrix's attack list.
    pub attack: usize,
    /// The controller application under test.
    pub controller: ControllerKind,
    /// The fail mode every switch in the cell runs (for the enterprise
    /// topology: the DMZ switch `s2`; the others fail-secure as in §VII).
    pub fail_mode: FailMode,
    /// The environment seed (fault RNG streams and workload jitter).
    pub seed: u64,
}

/// The campaign matrix: the cross product of four axes.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Attacks, in matrix order.
    pub attacks: Vec<AttackDef>,
    /// Controller applications.
    pub controllers: Vec<ControllerKind>,
    /// Fail modes.
    pub fail_modes: Vec<FailMode>,
    /// Seeds.
    pub seeds: Vec<u64>,
}

impl Matrix {
    /// The full conformance matrix: all eleven shipped attacks × five
    /// controller applications × both fail modes × three seeds.
    pub fn full() -> Matrix {
        Matrix {
            attacks: attacks::all(),
            controllers: ControllerKind::CAMPAIGN.to_vec(),
            fail_modes: vec![FailMode::Safe, FailMode::Secure],
            seeds: FULL_SEEDS.to_vec(),
        }
    }

    /// The reduced CI matrix: the baseline, the paper's two headline
    /// attacks, the overflow family, and the timing fingerprinter, all
    /// five controllers, both fail modes, one seed.
    pub fn smoke() -> Matrix {
        let keep = [
            "trivial_pass",
            "flow_mod_suppression",
            "connection_interruption",
            "table_overflow",
            "fingerprint_then_attack",
        ];
        Matrix {
            attacks: attacks::all()
                .into_iter()
                .filter(|a| keep.contains(&a.name))
                .collect(),
            controllers: ControllerKind::CAMPAIGN.to_vec(),
            fail_modes: vec![FailMode::Safe, FailMode::Secure],
            seeds: vec![1],
        }
    }

    /// All cells in matrix order.
    pub fn cells(&self) -> Vec<CellId> {
        let mut out = Vec::with_capacity(
            self.attacks.len() * self.controllers.len() * self.fail_modes.len() * self.seeds.len(),
        );
        for (ai, _) in self.attacks.iter().enumerate() {
            for &controller in &self.controllers {
                for &fail_mode in &self.fail_modes {
                    for &seed in &self.seeds {
                        out.push(CellId {
                            attack: ai,
                            controller,
                            fail_mode,
                            seed,
                        });
                    }
                }
            }
        }
        out
    }

    /// The cell's report / golden-file name.
    pub(crate) fn cell_name(&self, cell: &CellId) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.attacks[cell.attack].name,
            cell.controller.slug(),
            fail_slug(cell.fail_mode),
            cell.seed
        )
    }
}

/// A `--only` restriction: retains matching values on each named axis.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Keep only this attack (by file stem).
    pub attack: Option<String>,
    /// Keep only this controller.
    pub controller: Option<ControllerKind>,
    /// Keep only this fail mode.
    pub fail_mode: Option<FailMode>,
    /// Keep only this seed.
    pub seed: Option<u64>,
}

/// A malformed `--only` expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError(pub String);

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad --only filter: {}", self.0)
    }
}

impl std::error::Error for FilterError {}

impl Filter {
    /// Parses `attack=…,controller=…,fail=…,seed=…` (any subset, any
    /// order).
    pub fn parse(spec: &str) -> Result<Filter, FilterError> {
        let mut f = Filter::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FilterError(format!("`{part}` is not key=value")))?;
            match key.trim() {
                "attack" => f.attack = Some(value.trim().to_string()),
                "controller" => {
                    f.controller =
                        Some(ControllerKind::from_slug(value.trim()).ok_or_else(|| {
                            FilterError(format!("unknown controller `{}`", value.trim()))
                        })?)
                }
                "fail" => {
                    f.fail_mode = Some(fail_from_slug(value.trim()).ok_or_else(|| {
                        FilterError(format!("fail mode `{}` is not safe|secure", value.trim()))
                    })?)
                }
                "seed" => {
                    f.seed = Some(value.trim().parse().map_err(|_| {
                        FilterError(format!("seed `{}` is not a number", value.trim()))
                    })?)
                }
                other => return Err(FilterError(format!("unknown axis `{other}`"))),
            }
        }
        Ok(f)
    }

    /// Restricts `matrix` to the filtered axis values. Unknown attack
    /// names yield an empty axis (and so an empty campaign) rather than
    /// an error, matching `grep`-style filter semantics.
    pub fn apply(&self, matrix: &mut Matrix) {
        if let Some(name) = &self.attack {
            matrix.attacks.retain(|a| a.name == *name);
        }
        if let Some(kind) = self.controller {
            matrix.controllers.retain(|&c| c == kind);
        }
        if let Some(mode) = self.fail_mode {
            matrix.fail_modes.retain(|&m| m == mode);
        }
        if let Some(seed) = self.seed {
            matrix.seeds.retain(|&s| s == seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_has_expected_shape() {
        let m = Matrix::full();
        assert_eq!(m.cells().len(), 11 * 5 * 2 * 3);
        let names: Vec<_> = m.cells().iter().map(|c| m.cell_name(c)).collect();
        assert_eq!(names[0], "trivial_pass/floodlight/safe/s1");
        // No duplicates.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn filter_parses_and_restricts() {
        let f =
            Filter::parse("attack=flow_mod_suppression,controller=pox,fail=secure,seed=2").unwrap();
        let mut m = Matrix::full();
        f.apply(&mut m);
        let cells = m.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(m.cell_name(&cells[0]), "flow_mod_suppression/pox/secure/s2");
    }

    #[test]
    fn filter_rejects_garbage() {
        assert!(Filter::parse("controller=nox").is_err());
        assert!(Filter::parse("bogus=1").is_err());
        assert!(Filter::parse("attack").is_err());
        assert!(Filter::parse("fail=open").is_err());
    }

    #[test]
    fn smoke_matrix_is_a_subset_of_full() {
        let full = Matrix::full();
        let full_names: Vec<_> = full.cells().iter().map(|c| full.cell_name(c)).collect();
        let smoke = Matrix::smoke();
        for cell in smoke.cells() {
            assert!(full_names.contains(&smoke.cell_name(&cell)));
        }
        assert_eq!(smoke.cells().len(), 5 * 5 * 2);
    }
}
