//! Differential oracle for the compiled rule dispatcher: on random
//! rulesets and message streams, [`DispatchMode::Compiled`] must
//! reproduce the reference scan's full executor output — deliveries,
//! commands, wakeups, rule fire counts, rule error counts and first
//! error texts, log events, deque contents, and state transitions —
//! bit for bit, step by step.
//!
//! The generated rulesets deliberately span every dispatch class:
//! fully indexable anchors (type/length equality, membership,
//! interval comparisons, entropy thresholds), partially indexable
//! conjunctions, error-producing conditions (missing type-option
//! fields, unparseable frames, type-mismatched comparisons), pure
//! residuals (disjunctions, deque reads, arithmetic), never-firing
//! rules, and `GOTOSTATE` transitions mid-stream.

use attain_core::exec::{AttackExecutor, DispatchMode, ExecOutput, InjectorInput, LogEvent};
use attain_core::lang::{Attack, AttackAction, AttackState, BinOp, Expr, Property, Rule, Value};
use attain_core::model::{AttackModel, CapabilitySet, ConnectionId, SystemModel};
use attain_openflow::{FlowMod, Frame, Match, OfMessage, OfType};
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
        Just(OfType::FlowMod),
        Just(OfType::PacketIn),
    ]
}

/// Rule conditions spanning indexable, partially indexable,
/// error-producing, residual, trivial, and never-firing shapes.
fn arb_condition() -> impl Strategy<Value = Expr> {
    prop_oneof![
        // Indexable equality anchors.
        arb_type().prop_map(type_eq),
        (0i64..64).prop_map(|n| BinOp::Eq.of(Expr::Prop(Property::Length), lit_int(n))),
        // Indexable membership.
        (arb_type(), arb_type()).prop_map(|(a, b)| Expr::In(
            Box::new(Expr::Prop(Property::Type)),
            vec![Expr::Lit(Value::MsgType(a)), Expr::Lit(Value::MsgType(b))],
        )),
        // Indexable interval comparisons (both bound directions and a
        // flipped literal-on-the-left form).
        (0i64..64).prop_map(|n| BinOp::Lt.of(Expr::Prop(Property::Length), lit_int(n))),
        (0i64..64).prop_map(|n| BinOp::Ge.of(Expr::Prop(Property::Length), lit_int(n))),
        (0u32..100).prop_map(|p| BinOp::Gt.of(lit_int(p as i64), Expr::Prop(Property::Length))),
        (0u32..100).prop_map(|p| BinOp::Gt.of(
            Expr::Prop(Property::Entropy),
            Expr::Lit(Value::Float(p as f64 / 100.0))
        )),
        // Partially indexable: indexed anchor, residual tail.
        (arb_type(), 0u32..100).prop_map(|(t, p)| BinOp::And.of(
            type_eq(t),
            BinOp::Gt.of(
                Expr::Prop(Property::Entropy),
                Expr::Lit(Value::Float(p as f64 / 100.0))
            ),
        )),
        // Error-producing, anchored on a fallible property: fails with
        // NoSuchField on non-FLOW_MODs and Unparseable on garbage.
        (0i64..16).prop_map(|n| BinOp::Eq.of(
            Expr::Prop(Property::TypeOption("priority".into())),
            lit_int(n)
        )),
        // Residual: disjunction, deque read, arithmetic.
        (arb_type(), arb_type()).prop_map(|(a, b)| BinOp::Or.of(type_eq(a), type_eq(b))),
        (0i64..4).prop_map(|n| BinOp::Gt.of(Expr::DequeLen("d".into()), lit_int(n))),
        (0i64..40).prop_map(|n| BinOp::Eq.of(
            BinOp::Add.of(Expr::Prop(Property::Id), lit_int(1)),
            lit_int(n),
        )),
        // Residual that always errors: an address has no numeric order.
        Just(BinOp::Lt.of(Expr::Prop(Property::Source), lit_int(0))),
        // Trivial (no anchor) and never-firing (falsy literal anchor).
        Just(Expr::always()),
        arb_type().prop_map(|t| BinOp::And.of(Expr::Lit(Value::Bool(false)), type_eq(t))),
    ]
}

/// Raw actions; `GOTOSTATE` targets are generated wide and folded into
/// range (`% state_count`) when the attack is assembled.
fn arb_action() -> impl Strategy<Value = AttackAction> {
    prop_oneof![
        Just(AttackAction::Drop),
        Just(AttackAction::Pass),
        Just(AttackAction::Duplicate),
        (0usize..8).prop_map(AttackAction::GoToState),
        (0i64..100).prop_map(|n| AttackAction::Append {
            deque: "d".into(),
            value: lit_int(n),
        }),
        Just(AttackAction::Shift("d".into())),
        Just(AttackAction::Fuzz { flips: 1 }),
        // Sleeps span a few message interarrival gaps (1.5 ms), so
        // some messages are held and replayed on wakeup.
        (1u32..5).prop_map(|ms| AttackAction::Sleep(Expr::Lit(Value::Float(ms as f64 / 1000.0)))),
        (0u32..3).prop_map(|ms| AttackAction::Delay(Expr::Lit(Value::Float(ms as f64 / 1000.0)))),
    ]
}

type RuleSpec = (Expr, usize, Vec<AttackAction>);

fn arb_state() -> impl Strategy<Value = Vec<RuleSpec>> {
    proptest::collection::vec(
        (
            arb_condition(),
            0usize..3,
            proptest::collection::vec(arb_action(), 0..3),
        ),
        0..5,
    )
}

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
        name: "differential".into(),
        states,
        start: 0,
    }
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        Just(Frame::from_message(OfMessage::Hello, 1)),
        (0usize..48).prop_map(|n| Frame::from_message(OfMessage::EchoRequest(vec![0xab; n]), 2)),
        (0u16..16).prop_map(|p| {
            let mut fm = FlowMod::add(Match::all(), vec![]);
            fm.priority = p;
            Frame::from_message(OfMessage::FlowMod(fm), 3)
        }),
        // Garbage: unparseable payload (payload reads fail, metadata
        // reads still work).
        (0usize..32).prop_map(|n| Frame::new(vec![0xff; n])),
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
/// observable: every step and the final deque length.
fn run(
    mode: DispatchMode,
    system: SystemModel,
    model: AttackModel,
    attack: Attack,
    msgs: &[(Frame, usize, bool)],
) -> (Vec<Step>, usize) {
    let mut exec = AttackExecutor::new(system, model, attack)
        .expect("generated attack validates")
        .with_dispatch_mode(mode);
    let (mut steps, mut logged) = (Vec::new(), 0);
    for (i, (frame, conn, dir)) in msgs.iter().enumerate() {
        let out = exec.on_message(InjectorInput {
            conn: ConnectionId(*conn),
            to_controller: *dir,
            frame: frame.clone(),
            now_ns: i as u64 * 1_500_000,
        });
        steps.push(observe(&exec, out, &mut logged));
        // Exercise the wakeup/drain path mid-stream every few steps.
        if i % 5 == 4 {
            let out = exec.on_wakeup(i as u64 * 1_500_000 + 750_000);
            steps.push(observe(&exec, out, &mut logged));
        }
    }
    // Final drain, far past any generated sleep deadline.
    let out = exec.on_wakeup(1 << 40);
    steps.push(observe(&exec, out, &mut logged));
    let deque_len = exec.deques().len("d");
    (steps, deque_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scan ≡ compiled dispatch on full executor output, for rulesets
    /// spanning every dispatch class and streams that trigger
    /// transitions, sleeps, holds, and evaluation errors.
    #[test]
    fn dispatcher_is_bit_identical_to_scan(
        specs in proptest::collection::vec(arb_state(), 1..4),
        msgs in proptest::collection::vec((arb_frame(), 0usize..2, any::<bool>()), 1..25),
    ) {
        let attack = assemble_attack(specs);
        let (sys_a, model_a) = small_system();
        let (sys_b, model_b) = small_system();
        let scan = run(DispatchMode::Scan, sys_a, model_a, attack.clone(), &msgs);
        let compiled = run(DispatchMode::Compiled, sys_b, model_b, attack, &msgs);
        // Per step: deliveries/commands/faults/wakeups, then the
        // automaton state, the fire counts, the error counts and first
        // texts, and the log events the step added (Transition, Held...
        // in order); then the final deque.
        prop_assert_eq!(&scan.0, &compiled.0);
        prop_assert_eq!(scan.1, compiled.1);
    }
}
