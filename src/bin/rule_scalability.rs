//! Regenerates the **§VI-D scalability analysis**: the memory-complexity
//! formulas for `N_D` and `N_C`, and measured per-message
//! rule-evaluation time against the paper's asymptotic bounds —
//! `O(|Φ| + |α_executed|)` when at most one conditional matches,
//! `O(|Φ| · |α_max|)` when all of them do — under both the reference
//! scan (the paper's Algorithm 1 loop, which those bounds describe) and
//! the compiled per-state dispatcher (the default mode), over the three
//! workloads of [`sweep::workloads`].
//!
//! Exits non-zero unless the scan's ≤1-match cost grows with |Φ| and
//! the dispatcher's stays flat.
//!
//! Usage: `cargo run --release --bin rule_scalability [-- --json PATH]`
//! (`BENCH_rule_eval.json` is this report).

mod common;

use attain_core::exec::{AttackExecutor, DispatchMode, InjectorInput};
use attain_core::model::ConnectionId;
use attain_core::scenario;
use attain_openflow::Frame;
use common::render_table;
use std::hint::black_box;
use std::process::ExitCode;

const SIZES: [usize; 5] = [1, 8, 64, 256, 1024];

/// One measured point: a workload at a rule count, in both modes.
struct Row {
    name: String,
    scan_ns: f64,
    dispatch_ns: f64,
}

/// Mean ns/message through `exec` with `frames` cycled round-robin;
/// `now` advances so sleep/wakeup arithmetic stays monotone.
fn measure(mut exec: AttackExecutor, frames: &[Frame]) -> f64 {
    let mut now = 0u64;
    let mut i = 0usize;
    sweep::measure_ns(|| {
        now += 1_000;
        let out = exec.on_message(InjectorInput {
            conn: ConnectionId(0),
            to_controller: true,
            frame: frames[i % frames.len()].clone(),
            now_ns: now,
        });
        i += 1;
        black_box(out);
    })
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"rule_eval\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"scan_ns\": {:.2}, \"dispatch_ns\": {:.2}}}{comma}\n",
            r.name, r.scan_ns, r.dispatch_ns
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--json" => Some(path),
        _ => {
            eprintln!("usage: rule_scalability [--json PATH]");
            return ExitCode::from(2);
        }
    };

    println!("Section VI-D — scalability analysis\n");

    println!("(1) memory complexity of the system model representations");
    let sc = scenario::enterprise_network();
    let (nd_bound, nc_bound) = sc.system.memory_complexity_bounds();
    let s = sc.system.switches().count();
    let h = sc.system.hosts().count();
    let c = sc.system.controllers().count();
    let rows = vec![
        vec![
            "N_D (data plane graph)".into(),
            format!("O((|S|+|H|)^2) = O(({s}+{h})^2)"),
            nd_bound.to_string(),
            sc.system.data_plane().len().to_string(),
        ],
        vec![
            "N_C (control plane relation)".into(),
            format!("O(|C|*|S|) = O({c}*{s})"),
            nc_bound.to_string(),
            sc.system.connection_count().to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "structure",
                "paper bound",
                "worst case",
                "case study actual"
            ],
            &rows
        )
    );

    println!("(2) runtime complexity of rule execution [ns/msg]");
    let workloads = sweep::workloads();
    let mut rows = Vec::new();
    for &n in &SIZES {
        for (label, executor, frames) in &workloads {
            rows.push(Row {
                name: format!("{label}/{n}"),
                scan_ns: measure(executor(n, DispatchMode::Scan), frames),
                dispatch_ns: measure(executor(n, DispatchMode::Compiled), frames),
            });
        }
    }
    let mut header = vec!["|Φ| rules".to_string()];
    for (label, ..) in &workloads {
        header.push(format!("{label} scan"));
        header.push(format!("{label} dispatch"));
    }
    let table: Vec<Vec<String>> = SIZES
        .iter()
        .zip(rows.chunks(workloads.len()))
        .map(|(n, points)| {
            let mut cells = vec![n.to_string()];
            for p in points {
                cells.push(format!("{:.0}", p.scan_ns));
                cells.push(format!("{:.0}", p.dispatch_ns));
            }
            cells
        })
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header, &table));
    println!(
        "The scan (Algorithm 1's loop) grows linearly in |Φ| in both §VI-D2\n\
         regimes: O(|Φ| + |α_executed|) on one_match, O(|Φ| · |α_max|) on\n\
         all_match. The compiled dispatcher (the default) is flat on\n\
         one_match, evaluates ~|Φ|/8 candidates on mixed_types, and is at\n\
         parity with the scan on all_match, where every rule is a candidate."
    );

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, render_json(&rows)) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    // The section's claim, with wide margins (measured: ~100× and ~1×).
    let point = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .expect("one_match is swept at 8 and 1,024 rules")
    };
    let (small, large) = (point("one_match/8"), point("one_match/1024"));
    let scan_growth = large.scan_ns / small.scan_ns;
    let dispatch_growth = large.dispatch_ns / small.dispatch_ns;
    if scan_growth < 10.0 || dispatch_growth > 3.0 {
        eprintln!(
            "error: one_match from 8 to 1,024 rules: scan grew {scan_growth:.1}× (want ≥ 10×), \
             dispatch {dispatch_growth:.1}× (want ≤ 3×)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The §VI-D workloads and the adaptive timer that measures them.
mod sweep {
    use attain_core::exec::{AttackExecutor, DispatchMode};
    use attain_core::lang::AttackAction;
    use attain_core::lang::{Attack, AttackState, BinOp, Expr, Property, Rule, Value};
    use attain_core::model::{AttackModel, CapabilitySet, ConnectionId, SystemModel};
    use attain_openflow::OfType;
    use std::time::{Duration, Instant};

    /// Builds a synthetic system model with one controller and one switch
    /// (for executor micro-benchmarks).
    fn tiny_system() -> (SystemModel, AttackModel) {
        let mut m = SystemModel::new();
        let c = m.add_controller("c1").expect("fresh model");
        let s = m.add_switch("s1").expect("fresh model");
        let h1 = m.add_host("h1", None, None).expect("fresh model");
        let h2 = m.add_host("h2", None, None).expect("fresh model");
        m.add_host_link(h1, s, 1).expect("valid link");
        m.add_host_link(h2, s, 2).expect("valid link");
        m.add_connection(c, s).expect("fresh connection");
        let model = AttackModel::uniform(&m, CapabilitySet::no_tls());
        (m, model)
    }

    /// Builds an attack whose single state holds `n` rules, for the §VI-D
    /// runtime-complexity sweeps.
    ///
    /// * `all_match = false`: every rule's conditional tests a distinct
    ///   length (at most one can be true) — the paper's first case,
    ///   `O(|Φ| + |α_executed|)`.
    /// * `all_match = true`: every conditional is satisfied by every message
    ///   — the second case, `O(|Φ| · |α_max|)`.
    fn rule_sweep_attack(n: usize, all_match: bool) -> Attack {
        let rules = (0..n)
            .map(|i| Rule {
                name: format!("phi{i}"),
                connections: vec![ConnectionId(0)],
                required: CapabilitySet::no_tls(),
                condition: if all_match {
                    // length >= 0: always true, but still a real property read.
                    BinOp::Ge.of(Expr::Prop(Property::Length), Expr::Lit(Value::Int(0)))
                } else {
                    // Matches only messages of one specific length, which the
                    // bench workload never produces (i ≠ message length).
                    BinOp::Eq.of(
                        Expr::Prop(Property::Length),
                        Expr::Lit(Value::Int(1_000_000 + i as i64)),
                    )
                },
                actions: vec![AttackAction::ReadMetadata],
            })
            .collect();
        Attack {
            name: format!("sweep_{n}_{all_match}"),
            states: vec![AttackState {
                name: "s".into(),
                rules,
            }],
            start: 0,
        }
    }

    /// Builds an executor over [`tiny_system`] running [`rule_sweep_attack`]
    /// in the given dispatch mode.
    ///
    /// # Panics
    ///
    /// Panics if the synthetic attack fails validation (a bug here, not in
    /// caller input).
    fn rule_sweep_executor(n: usize, all_match: bool, mode: DispatchMode) -> AttackExecutor {
        let (system, model) = tiny_system();
        AttackExecutor::new(system, model, rule_sweep_attack(n, all_match))
            .expect("synthetic sweep attack validates")
            .with_dispatch_mode(mode)
    }

    /// The eight message types the mixed-type workload cycles through.
    const MIXED_TYPES: [OfType; 8] = [
        OfType::Hello,
        OfType::EchoRequest,
        OfType::EchoReply,
        OfType::FeaturesRequest,
        OfType::GetConfigRequest,
        OfType::BarrierRequest,
        OfType::BarrierReply,
        OfType::FlowMod,
    ];

    /// Builds an attack whose `n` rules anchor on a type-equality guard —
    /// rule `i` watches `MIXED_TYPES[i % 8]` — followed by a length test no
    /// workload message satisfies. Against [`mixed_messages`], hash
    /// dispatch narrows each message to the ~`n/8` rules of its type
    /// instead of scanning all `n`; the residual length conjunct keeps
    /// every candidate a real (non-firing) evaluation.
    fn mixed_type_attack(n: usize) -> Attack {
        let rules = (0..n)
            .map(|i| Rule {
                name: format!("phi{i}"),
                connections: vec![ConnectionId(0)],
                required: CapabilitySet::no_tls(),
                condition: BinOp::And.of(
                    BinOp::Eq.of(
                        Expr::Prop(Property::Type),
                        Expr::Lit(Value::MsgType(MIXED_TYPES[i % MIXED_TYPES.len()])),
                    ),
                    BinOp::Eq.of(
                        Expr::Prop(Property::Length),
                        Expr::Lit(Value::Int(1_000_000 + i as i64)),
                    ),
                ),
                actions: vec![AttackAction::ReadMetadata],
            })
            .collect();
        Attack {
            name: format!("mixed_{n}"),
            states: vec![AttackState {
                name: "s".into(),
                rules,
            }],
            start: 0,
        }
    }

    /// Builds an executor over [`tiny_system`] running [`mixed_type_attack`]
    /// in the given dispatch mode.
    ///
    /// # Panics
    ///
    /// Panics if the synthetic attack fails validation (a bug here, not in
    /// caller input).
    fn mixed_type_executor(n: usize, mode: DispatchMode) -> AttackExecutor {
        let (system, model) = tiny_system();
        AttackExecutor::new(system, model, mixed_type_attack(n))
            .expect("synthetic mixed-type attack validates")
            .with_dispatch_mode(mode)
    }

    /// One encoded frame per [`mixed_type_attack`] message type, so a
    /// round-robin over the returned set exercises every dispatch bucket.
    fn mixed_messages() -> Vec<attain_openflow::Frame> {
        use attain_openflow::{Frame, OfMessage};
        vec![
            Frame::new(OfMessage::Hello.encode(1)),
            Frame::new(OfMessage::EchoRequest(vec![7u8; 32]).encode(2)),
            Frame::new(OfMessage::EchoReply(vec![7u8; 32]).encode(3)),
            Frame::new(OfMessage::FeaturesRequest.encode(4)),
            Frame::new(OfMessage::GetConfigRequest.encode(5)),
            Frame::new(OfMessage::BarrierRequest.encode(6)),
            Frame::new(OfMessage::BarrierReply.encode(7)),
            Frame::new(
                OfMessage::FlowMod(attain_openflow::FlowMod::add(
                    attain_openflow::Match::all(),
                    vec![],
                ))
                .encode(8),
            ),
        ]
    }

    /// A representative message workload for executor benches: one encoded
    /// `ECHO_REQUEST` (the length no sweep rule matches), as a shared
    /// [`Frame`](attain_openflow::Frame) so benches feed the executor the
    /// same way the proxies do — a refcount bump per message.
    fn bench_message() -> attain_openflow::Frame {
        attain_openflow::Frame::new(
            attain_openflow::OfMessage::EchoRequest(vec![7u8; 32]).encode(1),
        )
    }

    /// An element of [`workloads`], which documents the fields.
    type SweepWorkload = (
        &'static str,
        fn(usize, DispatchMode) -> AttackExecutor,
        Vec<attain_openflow::Frame>,
    );

    /// The three §VI-D workloads `bin/rule_scalability` times, each as
    /// `(row label, executor for a rule count and dispatch mode, frames fed
    /// round-robin)`:
    ///
    /// * `one_match` — every rule tests a distinct length no message has
    ///   (≤1 can be true). Under the scan this is the paper's
    ///   `O(|Φ| + |α_executed|)` case; the dispatcher resolves it with one
    ///   equality-bucket probe and no candidates.
    /// * `all_match` — every conditional is satisfied by every message
    ///   (`O(|Φ| · |α_max|)`). Dispatch cannot help here by construction:
    ///   all |Φ| rules are candidates, so both modes pay the full
    ///   evaluation cost — the floor the dispatcher must not regress.
    /// * `mixed_types` — rules anchor on 8 distinct message types and the
    ///   workload round-robins one frame of each, so hash dispatch narrows
    ///   each message to ~|Φ|/8 real (non-firing) candidate evaluations:
    ///   the selectivity regime between the two extremes.
    pub(crate) fn workloads() -> [SweepWorkload; 3] {
        [
            (
                "one_match",
                |n, mode| rule_sweep_executor(n, false, mode),
                vec![bench_message()],
            ),
            (
                "all_match",
                |n, mode| rule_sweep_executor(n, true, mode),
                vec![bench_message()],
            ),
            ("mixed_types", mixed_type_executor, mixed_messages()),
        ]
    }

    /// Measures `f`'s mean wall-clock cost in nanoseconds per call.
    ///
    /// Calibrates a batch size until one batch takes at least ~1 ms,
    /// then measures batches for a ~200 ms budget — enough to keep
    /// sub-100ns routines out of timer-resolution noise without the
    /// statistical machinery of a full benchmark harness.
    pub(crate) fn measure_ns(mut f: impl FnMut()) -> f64 {
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 30 {
                break;
            }
            batch *= 8;
        }
        let start = Instant::now();
        let mut iters: u64 = 0;
        while start.elapsed() < Duration::from_millis(200) {
            for _ in 0..batch {
                f();
            }
            iters += batch;
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use attain_core::exec::{AttackExecutor, InjectorInput, LogEvent};

        #[test]
        fn measure_ns_returns_positive_time() {
            // Keep it cheap: measure an empty closure; even that takes >0 ns
            // amortized, and must not panic or divide by zero.
            let ns = measure_ns(|| {});
            assert!(ns >= 0.0);
            assert!(ns.is_finite());
        }

        /// The executor's state, its rules' fire counts and errors, and
        /// its log.
        type Observed<'a> = (
            usize,
            Vec<(&'a str, u64)>,
            Vec<(&'a str, u64, &'a str)>,
            &'a [LogEvent],
        );

        fn observed(exec: &AttackExecutor) -> Observed<'_> {
            let fires = exec.log().rule_fire_counts().collect();
            let errors = exec.log().rule_errors().collect();
            (exec.current_state(), fires, errors, exec.log().events())
        }

        #[test]
        fn mixed_type_workload_agrees_across_dispatch_modes() {
            for (label, executor, frames) in workloads() {
                let mut scan = executor(64, DispatchMode::Scan);
                let mut compiled = executor(64, DispatchMode::Compiled);
                for (i, frame) in frames.iter().cycle().take(32).enumerate() {
                    let input = |frame: &attain_openflow::Frame| InjectorInput {
                        conn: ConnectionId(0),
                        to_controller: true,
                        frame: frame.clone(),
                        now_ns: i as u64 * 1_000,
                    };
                    let a = scan.on_message(input(frame));
                    let b = compiled.on_message(input(frame));
                    assert_eq!(a, b, "{label}");
                    assert_eq!(a.deliveries.len(), 1, "{label}"); // pass-through
                    assert_eq!(observed(&scan), observed(&compiled), "{label}");
                }
            }
        }

        #[test]
        fn sweep_attacks_validate_and_run() {
            for all_match in [false, true] {
                let mut exec = rule_sweep_executor(64, all_match, DispatchMode::default());
                let msg = bench_message();
                let out = exec.on_message(InjectorInput {
                    conn: ConnectionId(0),
                    to_controller: true,
                    frame: msg.clone(),
                    now_ns: 0,
                });
                assert_eq!(out.deliveries.len(), 1); // default pass either way
                let fired: u64 = (0..64)
                    .map(|i| exec.log().rule_fires(&format!("phi{i}")))
                    .sum();
                assert_eq!(fired, if all_match { 64 } else { 0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::common::render_table;

    #[test]
    fn table_renders_with_padding() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "10000".into()],
            ],
        );
        assert!(t.contains("| alpha | 1     |"));
        assert!(t.contains("| b     | 10000 |"));
        assert!(t.starts_with('+'));
    }

    /// Both checked-in reports share one envelope, line for line:
    /// `{"bench": …, "rows": [{"name": …, <columns>}]}`.
    #[test]
    fn checked_in_bench_reports_share_one_envelope() {
        for bench in ["rule_eval", "scalability"] {
            let path = format!("{}/BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            // A hand-added label of the commit that measured the
            // wall-clock columns may follow the bench name.
            let mut lines: Vec<&str> = text.lines().collect();
            if lines
                .get(2)
                .is_some_and(|l| l.starts_with("  \"wall_clock_commit\": \""))
            {
                lines.remove(2);
            }
            let (head, tail) = (&lines[..3], &lines[lines.len() - 2..]);
            assert_eq!(
                head,
                ["{", &format!("  \"bench\": \"{bench}\","), "  \"rows\": ["],
                "{path}"
            );
            assert_eq!(tail, ["  ]", "}"], "{path}");
            let rows = &lines[3..lines.len() - 2];
            assert!(!rows.is_empty(), "{path} has no rows");
            for (i, row) in rows.iter().enumerate() {
                let close = if i + 1 < rows.len() { "}," } else { "}" };
                assert!(
                    row.starts_with("    {\"name\": \"") && row.ends_with(close),
                    "{path}: row {i} is {row:?}"
                );
            }
        }
    }
}
