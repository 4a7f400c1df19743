//! Differential oracle for timing observables: on random rulesets that
//! mix timing predicates (`latency`, `inter_arrival`, `timing_mean`,
//! `timing_stddev`, `timing_count`, `elapsed_in_state`) with ordinary
//! content predicates, [`DispatchMode::Compiled`] must reproduce the
//! reference scan's full executor output bit for bit.
//!
//! Timing predicates are never anchors — the guard classifier leaves
//! them in the residual mask — so this suite is the proof that the
//! residual path evaluates them identically in both modes, *including*
//! the fallible paths: `Last`/`Mean`/`StdDev` reads against an empty
//! sample ring surface as `EvalError::NoSample`, which the executor
//! counts as the rule's error and treats as unmatched, in both modes,
//! on the same steps. Sleeps are generated too, so held messages replayed
//! at wake time observe the same (wake-time) clock under both modes.

use attain_core::exec::{AttackExecutor, DispatchMode, ExecOutput, InjectorInput, LogEvent};
use attain_core::lang::{
    Attack, AttackAction, AttackState, BinOp, Expr, Property, Rule, TimingStat, Value,
};
use attain_core::model::{AttackModel, CapabilitySet, ConnectionId, SystemModel};
use attain_openflow::{Frame, OfMessage, OfType, PacketIn, PacketInReason, PortNo};
use proptest::prelude::*;

fn small_system() -> (SystemModel, AttackModel) {
    let mut m = SystemModel::new();
    let c = m.add_controller("c0").expect("fresh name");
    let s0 = m.add_switch("s0").expect("fresh name");
    let s1 = m.add_switch("s1").expect("fresh name");
    m.add_connection(c, s0).expect("fresh pair");
    m.add_connection(c, s1).expect("fresh pair");
    let model = AttackModel::uniform(&m, CapabilitySet::no_tls());
    (m, model)
}

fn lit_int(n: i64) -> Expr {
    Expr::Lit(Value::Int(n))
}

fn type_eq(t: OfType) -> Expr {
    BinOp::Eq.of(Expr::Prop(Property::Type), Expr::Lit(Value::MsgType(t)))
}

fn arb_type() -> impl Strategy<Value = OfType> {
    prop_oneof![
        Just(OfType::Hello),
        Just(OfType::EchoRequest),
        Just(OfType::PacketIn),
        Just(OfType::PacketOut),
    ]
}

fn arb_stat() -> impl Strategy<Value = TimingStat> {
    prop_oneof![
        Just(TimingStat::Last),
        Just(TimingStat::Mean),
        Just(TimingStat::StdDev),
        Just(TimingStat::Count),
    ]
}

fn timing(req: OfType, resp: OfType, stat: TimingStat, window: u32) -> Expr {
    Expr::Timing {
        req,
        resp,
        stat,
        window,
    }
}

/// Conditions mixing timing reads (guarded and deliberately unguarded,
/// so the NoSample error path fires) with content predicates.
fn arb_condition() -> impl Strategy<Value = Expr> {
    // Messages are spaced 1.5 ms apart, so thresholds around a few
    // sample gaps split both ways.
    let threshold = 0i64..6_000_000;
    prop_oneof![
        // Unguarded stat read: errors (NoSample) until the pair has a
        // sample, then compares normally.
        (
            arb_type(),
            arb_type(),
            arb_stat(),
            1u32..9,
            threshold.clone()
        )
            .prop_map(
                |(req, resp, stat, w, t)| BinOp::Gt.of(timing(req, resp, stat, w), lit_int(t))
            ),
        // Count-guarded read: short-circuit keeps it infallible.
        (arb_type(), arb_type(), 1u32..9, 0i64..4, threshold.clone()).prop_map(
            |(req, resp, w, n, t)| BinOp::And.of(
                BinOp::Ge.of(timing(req, resp, TimingStat::Count, 1), lit_int(n)),
                BinOp::Lt.of(timing(req, resp, TimingStat::Mean, w), lit_int(t)),
            )
        ),
        // Inter-arrival (same-type pair) against a gap threshold.
        (arb_type(), 1u32..5, threshold.clone())
            .prop_map(|(t, w, thr)| BinOp::Le.of(timing(t, t, TimingStat::Last, w), lit_int(thr))),
        // Pure count comparisons: infallible, start at 0.
        (arb_type(), arb_type(), 0i64..6).prop_map(
            |(req, resp, n)| BinOp::Eq.of(timing(req, resp, TimingStat::Count, 1), lit_int(n),)
        ),
        // Time-in-state reads, alone and conjoined with a type anchor.
        threshold
            .clone()
            .prop_map(|t| BinOp::Gt.of(Expr::ElapsedInState, lit_int(t))),
        (arb_type(), threshold)
            .prop_map(|(ty, t)| BinOp::And
                .of(type_eq(ty), BinOp::Ge.of(Expr::ElapsedInState, lit_int(t)),)),
        // Content-only shapes so compiled dispatch still builds real
        // anchors alongside the timing residuals.
        arb_type().prop_map(type_eq),
        (0i64..48).prop_map(|n| BinOp::Lt.of(Expr::Prop(Property::Length), lit_int(n))),
        Just(Expr::always()),
    ]
}

fn arb_action() -> impl Strategy<Value = AttackAction> {
    prop_oneof![
        Just(AttackAction::Drop),
        Just(AttackAction::Pass),
        Just(AttackAction::Duplicate),
        (0usize..8).prop_map(AttackAction::GoToState),
        // Sleeps hold messages past later arrivals, so replayed frames
        // are observed at wake time, not arrival time.
        (1u32..5).prop_map(|ms| AttackAction::Sleep(Expr::Lit(Value::Float(ms as f64 / 1000.0)))),
        // A delay whose duration reads a timing stat (guarded by the
        // executor's error handling when no sample exists yet).
        Just(AttackAction::Delay(Expr::Lit(Value::Float(0.001)))),
    ]
}

type RuleSpec = (Expr, usize, Vec<AttackAction>);

fn assemble_attack(specs: Vec<Vec<RuleSpec>>) -> Attack {
    let n_states = specs.len();
    let states = specs
        .into_iter()
        .enumerate()
        .map(|(si, rules)| AttackState {
            name: format!("sigma{si}"),
            rules: rules
                .into_iter()
                .enumerate()
                .map(|(ri, (condition, conn_pick, actions))| Rule {
                    name: format!("phi{si}_{ri}"),
                    connections: match conn_pick {
                        0 => vec![ConnectionId(0)],
                        1 => vec![ConnectionId(1)],
                        _ => vec![ConnectionId(0), ConnectionId(1)],
                    },
                    required: CapabilitySet::no_tls(),
                    condition,
                    actions: actions
                        .into_iter()
                        .map(|a| match a {
                            AttackAction::GoToState(t) => AttackAction::GoToState(t % n_states),
                            other => other,
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    Attack {
        name: "timing_differential".into(),
        states,
        start: 0,
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::from_message(OfMessage::Hello, 1)),
        (0usize..24).prop_map(|n| Frame::from_message(OfMessage::EchoRequest(vec![0xab; n]), 2)),
        (0u16..8).prop_map(|p| {
            Frame::from_message(
                OfMessage::PacketIn(PacketIn {
                    buffer_id: None,
                    total_len: 16,
                    in_port: PortNo(p),
                    reason: PacketInReason::NoMatch,
                    data: vec![0u8; 16],
                }),
                3,
            )
        }),
        // Garbage: undecodable, so `of_type()` is `None` and the frame
        // must be skipped by timing observation in both modes.
        (0usize..16).prop_map(|n| Frame::new(vec![0xff; n])),
    ]
}

/// One executor step's output, then what the step left in the executor:
/// its state, its rules' fire counts, its rules' error counts and first
/// texts, and the log events the step added.
type Step = (
    ExecOutput,
    usize,
    Vec<(String, u64)>,
    Vec<(String, u64, String)>,
    Vec<LogEvent>,
);

fn observe(exec: &AttackExecutor, out: ExecOutput, logged: &mut usize) -> Step {
    let events = exec.log().events()[*logged..].to_vec();
    *logged += events.len();
    let fires = exec.log().rule_fire_counts();
    let fires = fires.map(|(rule, n)| (rule.to_string(), n)).collect();
    let errors = exec.log().rule_errors();
    let errors = errors.map(|(rule, n, text)| (rule.to_string(), n, text.to_string()));
    (out, exec.current_state(), fires, errors.collect(), events)
}

/// Runs the whole stream through one executor and returns everything
/// observable: every step and the timing store's tracked-connection
/// count.
fn run(
    mode: DispatchMode,
    system: SystemModel,
    model: AttackModel,
    attack: Attack,
    msgs: &[(Frame, usize, bool, u32)],
) -> (Vec<Step>, usize) {
    let mut exec = AttackExecutor::new(system, model, attack)
        .expect("generated attack validates")
        .with_dispatch_mode(mode);
    let (mut steps, mut logged) = (Vec::new(), 0);
    let mut now_ns = 0u64;
    for (i, (frame, conn, dir, gap)) in msgs.iter().enumerate() {
        // Irregular arrival spacing so stddev is often non-zero.
        now_ns += 1_500_000 + *gap as u64 * 100_000;
        let out = exec.on_message(InjectorInput {
            conn: ConnectionId(*conn),
            to_controller: *dir,
            frame: frame.clone(),
            now_ns,
        });
        steps.push(observe(&exec, out, &mut logged));
        if i % 5 == 4 {
            let out = exec.on_wakeup(now_ns + 750_000);
            steps.push(observe(&exec, out, &mut logged));
        }
    }
    let out = exec.on_wakeup(1 << 40);
    steps.push(observe(&exec, out, &mut logged));
    let tracked = exec.timing().tracked_connections();
    (steps, tracked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scan ≡ compiled dispatch with timing predicates in play: each
    /// step's output, automaton state, fire counts, error counts and
    /// first texts (NoSample reads among them), log events, and the
    /// timing store's tracked connections all match bit for bit.
    #[test]
    fn timing_predicates_are_dispatch_mode_invariant(
        specs in proptest::collection::vec(
            proptest::collection::vec(
                (arb_condition(), 0usize..3, proptest::collection::vec(arb_action(), 0..3)),
                0..5,
            ),
            1..4,
        ),
        msgs in proptest::collection::vec(
            (arb_frame(), 0usize..2, any::<bool>(), 0u32..10),
            1..25,
        ),
    ) {
        let attack = assemble_attack(specs);
        let (sys_a, model_a) = small_system();
        let (sys_b, model_b) = small_system();
        let scan = run(DispatchMode::Scan, sys_a, model_a, attack.clone(), &msgs);
        let compiled = run(DispatchMode::Compiled, sys_b, model_b, attack, &msgs);
        prop_assert_eq!(&scan.0, &compiled.0);
        prop_assert_eq!(scan.1, compiled.1);
    }

    /// Same-seed determinism: two executors fed the identical stream
    /// (same mode) produce byte-identical output — timing state has no
    /// hidden nondeterminism (hash order, wall clock).
    #[test]
    fn timing_runs_are_reproducible(
        specs in proptest::collection::vec(
            proptest::collection::vec(
                (arb_condition(), 0usize..3, proptest::collection::vec(arb_action(), 0..2)),
                0..4,
            ),
            1..3,
        ),
        msgs in proptest::collection::vec(
            (arb_frame(), 0usize..2, any::<bool>(), 0u32..10),
            1..15,
        ),
    ) {
        let attack = assemble_attack(specs);
        let (sys_a, model_a) = small_system();
        let (sys_b, model_b) = small_system();
        let first = run(DispatchMode::Compiled, sys_a, model_a, attack.clone(), &msgs);
        let second = run(DispatchMode::Compiled, sys_b, model_b, attack, &msgs);
        prop_assert_eq!(first, second);
    }
}
