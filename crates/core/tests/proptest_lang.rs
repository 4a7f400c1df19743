//! Property-based tests on the attack language's core data structures:
//! deque semantics against a reference model, conditional algebra, and
//! executor fuzz-safety.

use attain_core::exec::{AttackExecutor, InjectorInput};
use attain_core::lang::{BinOp, DequeStore, Expr, MessageView, Property, Value};
use attain_core::model::{
    AttackModel, CapabilitySet, ConnectionId, ControllerId, NodeRef, SwitchId, SystemModel,
};
use attain_core::{dsl, scenario};
use proptest::prelude::*;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Deques vs. a reference model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DequeOp {
    Prepend(i64),
    Append(i64),
    Shift,
    Pop,
    ExamineFront,
    ExamineEnd,
}

fn arb_op() -> impl Strategy<Value = DequeOp> {
    prop_oneof![
        any::<i64>().prop_map(DequeOp::Prepend),
        any::<i64>().prop_map(DequeOp::Append),
        Just(DequeOp::Shift),
        Just(DequeOp::Pop),
        Just(DequeOp::ExamineFront),
        Just(DequeOp::ExamineEnd),
    ]
}

proptest! {
    /// Every deque operation behaves exactly like `VecDeque`.
    #[test]
    fn deque_store_matches_reference_model(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut store = DequeStore::new();
        let mut reference: VecDeque<i64> = VecDeque::new();
        for op in ops {
            match op {
                DequeOp::Prepend(v) => {
                    store.prepend("d", Value::Int(v));
                    reference.push_front(v);
                }
                DequeOp::Append(v) => {
                    store.append("d", Value::Int(v));
                    reference.push_back(v);
                }
                DequeOp::Shift => {
                    let got = store.shift("d");
                    let want = reference.pop_front().map(Value::Int).unwrap_or(Value::None);
                    prop_assert_eq!(got, want);
                }
                DequeOp::Pop => {
                    let got = store.pop("d");
                    let want = reference.pop_back().map(Value::Int).unwrap_or(Value::None);
                    prop_assert_eq!(got, want);
                }
                DequeOp::ExamineFront => {
                    let got = store.examine_front("d");
                    let want = reference.front().copied().map(Value::Int).unwrap_or(Value::None);
                    prop_assert_eq!(got, want);
                }
                DequeOp::ExamineEnd => {
                    let got = store.examine_end("d");
                    let want = reference.back().copied().map(Value::Int).unwrap_or(Value::None);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(store.len("d"), reference.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Conditional algebra
// ---------------------------------------------------------------------------

fn arb_bool_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(|b| Expr::Lit(Value::Bool(b))),
        (0i64..64)
            .prop_map(|n| BinOp::Gt.of(Expr::Prop(Property::Length), Expr::Lit(Value::Int(n)))),
        (0i64..200).prop_map(|n| BinOp::Eq.of(Expr::Prop(Property::Id), Expr::Lit(Value::Int(n)),)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BinOp::And.of(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| BinOp::Or.of(a, b)),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn eval_bool(e: &Expr, msg: &MessageView<'_>, deques: &DequeStore) -> bool {
    e.eval(msg, deques)
        .expect("boolean expressions evaluate")
        .truthy()
}

fn message_view(frame: &attain_openflow::Frame, id: u64) -> MessageView<'_> {
    MessageView {
        conn: ConnectionId(0),
        source: NodeRef::Controller(ControllerId(0)),
        destination: NodeRef::Switch(SwitchId(0)),
        timestamp_ns: 0,
        id,
        frame,
        granted: CapabilitySet::no_tls(),
        entropy: 0.5,
    }
}

proptest! {
    /// De Morgan's laws and double negation hold for every expression.
    #[test]
    fn conditional_boolean_algebra(
        a in arb_bool_expr(),
        b in arb_bool_expr(),
        len in 0usize..128,
        id in 0u64..250,
    ) {
        let frame = attain_openflow::Frame::new(vec![0u8; len]);
        let msg = message_view(&frame, id);
        let d = DequeStore::new();

        let va = eval_bool(&a, &msg, &d);
        let vb = eval_bool(&b, &msg, &d);

        // ¬(a ∧ b) = ¬a ∨ ¬b
        let lhs = Expr::Not(Box::new(BinOp::And.of(a.clone(), b.clone())));
        let rhs = BinOp::Or.of(
            Expr::Not(Box::new(a.clone())),
            Expr::Not(Box::new(b.clone())),
        );
        prop_assert_eq!(eval_bool(&lhs, &msg, &d), eval_bool(&rhs, &msg, &d));
        prop_assert_eq!(eval_bool(&lhs, &msg, &d), !(va && vb));

        // ¬¬a = a
        let double_neg = Expr::Not(Box::new(Expr::Not(Box::new(a.clone()))));
        prop_assert_eq!(eval_bool(&double_neg, &msg, &d), va);

        // a ∈ [a-ish set] is consistent with chained equality.
        let member = Expr::In(
            Box::new(Expr::Prop(Property::Id)),
            vec![
                Expr::Lit(Value::Int(id as i64)),
                Expr::Lit(Value::Int(-1)),
            ],
        );
        prop_assert!(eval_bool(&member, &msg, &d));
    }

    /// Required capabilities never shrink when composing expressions.
    #[test]
    fn composition_accumulates_capabilities(a in arb_bool_expr(), b in arb_bool_expr()) {
        let combined = BinOp::And.of(a.clone(), b.clone());
        let caps = combined.required_capabilities();
        prop_assert!(caps.is_superset_of(&a.required_capabilities()));
        prop_assert!(caps.is_superset_of(&b.required_capabilities()));
    }
}

// ---------------------------------------------------------------------------
// Executor fuzz-safety and pass-through identity
// ---------------------------------------------------------------------------

fn trivial_executor() -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let atk = dsl::compile(
        scenario::attacks::TRIVIAL_PASS,
        &sc.system,
        &sc.attack_model,
    )
    .expect("bundled attack compiles");
    AttackExecutor::new(sc.system, sc.attack_model, atk.attack).expect("validates")
}

fn suppression_executor() -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let atk = dsl::compile(
        scenario::attacks::FLOW_MOD_SUPPRESSION,
        &sc.system,
        &sc.attack_model,
    )
    .expect("bundled attack compiles");
    AttackExecutor::new(sc.system, sc.attack_model, atk.attack).expect("validates")
}

proptest! {
    /// The trivial attack forwards arbitrary bytes verbatim — including
    /// garbage that does not decode — and never panics.
    #[test]
    fn trivial_attack_is_identity_on_arbitrary_bytes(
        msgs in proptest::collection::vec((proptest::collection::vec(any::<u8>(), 0..256), 0usize..4, any::<bool>()), 1..20),
    ) {
        let mut exec = trivial_executor();
        for (i, (bytes, conn, dir)) in msgs.iter().enumerate() {
            let out = exec.on_message(InjectorInput {
                conn: ConnectionId(*conn),
                to_controller: *dir,
                frame: attain_openflow::Frame::new(bytes.clone()),
                now_ns: i as u64,
            });
            prop_assert_eq!(out.deliveries.len(), 1);
            prop_assert_eq!(out.deliveries[0].frame.bytes(), bytes.as_slice());
            prop_assert_eq!(out.deliveries[0].conn, ConnectionId(*conn));
            prop_assert_eq!(out.deliveries[0].to_controller, *dir);
        }
    }

    /// The suppression attack never panics on arbitrary bytes, and drops
    /// a message only if that message decodes as a controller FLOW_MOD.
    #[test]
    fn suppression_drops_only_decodable_flow_mods(
        msgs in proptest::collection::vec((proptest::collection::vec(any::<u8>(), 0..256), 0usize..4, any::<bool>()), 1..20),
    ) {
        let mut exec = suppression_executor();
        for (i, (bytes, conn, dir)) in msgs.iter().enumerate() {
            let out = exec.on_message(InjectorInput {
                conn: ConnectionId(*conn),
                to_controller: *dir,
                frame: attain_openflow::Frame::new(bytes.clone()),
                now_ns: i as u64,
            });
            let decodes_as_flow_mod = attain_openflow::OfMessage::decode(bytes)
                .map(|(m, _)| matches!(m, attain_openflow::OfMessage::FlowMod(_)))
                .unwrap_or(false);
            if out.deliveries.is_empty() {
                prop_assert!(decodes_as_flow_mod && !*dir, "dropped a non-flow-mod");
            } else {
                prop_assert_eq!(out.deliveries[0].frame.bytes(), bytes.as_slice());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// System model invariants
// ---------------------------------------------------------------------------

proptest! {
    /// connection_by_names is a left inverse of add_connection for any
    /// topology size.
    #[test]
    fn connection_lookup_roundtrip(controllers in 1usize..4, switches in 1usize..8) {
        let mut m = SystemModel::new();
        let cs: Vec<_> = (0..controllers)
            .map(|i| m.add_controller(&format!("c{i}")).expect("fresh"))
            .collect();
        let ss: Vec<_> = (0..switches)
            .map(|i| m.add_switch(&format!("s{i}")).expect("fresh"))
            .collect();
        m.add_host("h0", None, None).expect("fresh");
        m.add_host("h1", None, None).expect("fresh");
        let mut expected = Vec::new();
        for (ci, &c) in cs.iter().enumerate() {
            for (si, &s) in ss.iter().enumerate() {
                let id = m.add_connection(c, s).expect("fresh pair");
                expected.push((format!("c{ci}"), format!("s{si}"), id));
            }
        }
        let model = AttackModel::uniform(&m, CapabilitySet::tls());
        prop_assert_eq!(model.len(), controllers * switches);
        for (c, s, id) in expected {
            prop_assert_eq!(m.connection_by_names(&c, &s), Some(id));
        }
    }
}
