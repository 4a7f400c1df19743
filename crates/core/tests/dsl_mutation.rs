//! The DSL front end against hostile text: every shipped `.atk` file,
//! mutated by a seeded stream of character edits, goes through
//! `compile_document`, `compile_all` (against the enterprise scenario)
//! and `render` of whatever compiles, and each rendering compiles back
//! to the attack it came from. Arbitrary bytes go the same way after
//! `String::from_utf8_lossy`. A mutant may be refused with a
//! `DslError`; nothing may panic. The outcomes of the first mutants of
//! each file and the first byte strings are pinned line by line in
//! `tests/golden/dsl/front_end.txt` (regenerate with `UPDATE_GOLDEN=1`).

use attain_core::lang::Attack;
use attain_core::model::{AttackModel, SystemModel};
use attain_core::{dsl, scenario};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per shipped file, and arbitrary byte strings in all.
const MUTANTS_PER_FILE: u64 = 400;
const BYTE_STRINGS: u64 = 400;
/// Mutants per file, and byte strings, whose outcomes are pinned.
const PINNED: u64 = 40;

/// SplitMix64: the seeded stream behind every mutation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every shipped attack description, by file name, in name order.
fn shipped() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../attacks");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("attacks/ is readable")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "atk"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("an .atk file is UTF-8");
            let name = p.file_name().expect("a file name").to_string_lossy();
            (name.into_owned(), text)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 11, "expected every shipped .atk file");
    files
}

/// The first `per_file` mutants of every shipped file, each with its
/// origin: one seeded stream per file, over an alphabet of every
/// character the shipped files use.
fn mutants(per_file: u64) -> Vec<(String, String)> {
    let files = shipped();
    let alphabet: Vec<char> = files
        .iter()
        .flat_map(|(_, text)| text.chars())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut out = Vec::new();
    for (seed, (name, source)) in (0u64..).zip(&files) {
        let mut rng = Rng(seed);
        for i in 0..per_file {
            let mutant = mutate(source, &alphabet, &mut rng);
            out.push((format!("{name} mutant {i} (seed {seed})"), mutant));
        }
    }
    out
}

/// The first `n` arbitrary byte strings, read as lossy UTF-8, each with
/// its origin.
fn byte_strings(n: u64) -> Vec<(String, String)> {
    let mut rng = Rng(0xA77A_1D5E);
    (0..n)
        .map(|i| {
            let bytes: Vec<u8> = (0..rng.below(256)).map(|_| rng.next() as u8).collect();
            let text = String::from_utf8_lossy(&bytes).into_owned();
            (format!("byte string {i}"), text)
        })
        .collect()
}

/// One to four edits: insert, delete or replace a character drawn from
/// `alphabet`, or delete a span of up to eight characters.
fn mutate(source: &str, alphabet: &[char], rng: &mut Rng) -> String {
    let mut text: Vec<char> = source.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(text.len() + 1);
        let c = alphabet[rng.below(alphabet.len())];
        match rng.below(4) {
            0 => text.insert(at, c),
            _ if at == text.len() => {}
            1 => {
                text.remove(at);
            }
            2 => text[at] = c,
            _ => {
                let end = (at + 1 + rng.below(8)).min(text.len());
                text.drain(at..end);
            }
        }
    }
    text.into_iter().collect()
}

/// Runs `text` through every front-end entry point, rendering whatever
/// compiles and compiling each rendering back against the same system
/// and attack model, which must give an equal attack. Fails the test
/// naming `origin` and the text on a panic. Returns how many attacks
/// rendered.
fn front_end(text: &str, system: &SystemModel, model: &AttackModel, origin: &str) -> usize {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut rendered = 0;
        let mut round_trip = |attack: &Attack, system: &SystemModel, model: &AttackModel| {
            let Ok(text) = dsl::render(attack, system) else {
                return;
            };
            let back = dsl::compile(&text, system, model)
                .unwrap_or_else(|e| panic!("the rendering does not compile: {e}\n{text}"));
            assert_eq!(
                &back.attack, attack,
                "the rendering compiles to another attack\n{text}"
            );
            rendered += 1;
        };
        if let Ok(doc) = dsl::compile_document(text) {
            for a in &doc.attacks {
                round_trip(&a.attack, &doc.system, &doc.attack_model);
            }
        }
        if let Ok(attacks) = dsl::compile_all(text, system, model) {
            for a in &attacks {
                round_trip(&a.attack, system, model);
            }
        }
        rendered
    }));
    run.unwrap_or_else(|_| panic!("{origin}: the DSL front end panicked on\n{text}"))
}

#[test]
fn mutated_shipped_attacks_never_panic_the_front_end() {
    let sc = scenario::enterprise_network();
    let mutants = mutants(MUTANTS_PER_FILE);
    let mut rendered = 0;
    for (origin, mutant) in &mutants {
        rendered += front_end(mutant, &sc.system, &sc.attack_model, origin);
    }
    // The stream must reach the compiler and renderer, not stop at the
    // lexer: over a quarter of the mutants compile and render today.
    assert!(
        rendered * 10 >= mutants.len(),
        "only {rendered} of {} mutants rendered",
        mutants.len()
    );
}

#[test]
fn arbitrary_bytes_never_panic_the_front_end() {
    let sc = scenario::enterprise_network();
    for (origin, text) in byte_strings(BYTE_STRINGS) {
        front_end(&text, &sc.system, &sc.attack_model, &origin);
    }
}

/// FNV-1a, 64-bit, of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The hash of each attack's rendering against `system`, or its
/// render error.
fn renderings(attacks: &[dsl::CompiledAttack], system: &SystemModel) -> Vec<String> {
    attacks
        .iter()
        .map(|a| match dsl::render(&a.attack, system) {
            Ok(text) => format!("{:016x}", fnv1a(&text)),
            Err(e) => format!("unrendered ({e})"),
        })
        .collect()
}

/// One outcome as golden text: the renderings' hashes, or the error's
/// `line: message`.
fn outcome(result: Result<Vec<String>, dsl::DslError>) -> String {
    match result {
        Ok(hashes) => format!("ok [{}]", hashes.join(", ")),
        Err(e) => format!("{}: {}", e.line, e.message.escape_debug()),
    }
}

#[test]
fn front_end_outcomes_match_their_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/dsl/front_end.txt"
    );
    let sc = scenario::enterprise_network();
    let mut fresh = String::new();
    for (origin, text) in mutants(PINNED).into_iter().chain(byte_strings(PINNED)) {
        let doc = dsl::compile_document(&text).map(|d| renderings(&d.attacks, &d.system));
        let all = dsl::compile_all(&text, &sc.system, &sc.attack_model)
            .map(|v| renderings(&v, &sc.system));
        fresh += &format!(
            "{origin} | document {} | enterprise {}\n",
            outcome(doc),
            outcome(all)
        );
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &fresh).expect("the golden is writable");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} missing ({e}); generate it with UPDATE_GOLDEN=1"));
    let drifted: Vec<String> = golden
        .lines()
        .zip(fresh.lines())
        .filter(|(old, new)| old != new)
        .map(|(old, new)| format!("- {old}\n+ {new}"))
        .collect();
    assert!(
        drifted.is_empty() && golden.lines().count() == fresh.lines().count(),
        "front-end outcomes drifted from {path} (regenerate with UPDATE_GOLDEN=1 if \
         intentional):\n{}",
        drifted.join("\n")
    );
}
