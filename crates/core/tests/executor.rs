//! Algorithm 1 end-to-end: bundled DSL attacks driven against synthetic
//! message streams.

use attain_core::dsl;
use attain_core::exec::{AttackExecutor, ExecOutput, InjectorInput, LogKind};
use attain_core::model::ConnectionId;
use attain_core::scenario::{self, attacks};
use attain_openflow::{
    Action, FlowMod, Match, OfMessage, PacketIn, PacketInReason, PortNo, Wildcards,
};

fn executor(source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).expect("attack compiles");
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).expect("attack validates")
}

fn flow_mod_bytes() -> Vec<u8> {
    OfMessage::FlowMod(FlowMod::add(
        Match::all(),
        vec![Action::Output {
            port: PortNo(1),
            max_len: 0,
        }],
    ))
    .encode(1)
}

fn packet_in_bytes(xid: u32) -> Vec<u8> {
    OfMessage::PacketIn(PacketIn {
        buffer_id: Some(xid),
        total_len: 64,
        in_port: PortNo(1),
        reason: PacketInReason::NoMatch,
        data: vec![0xab; 64],
    })
    .encode(xid)
}

fn send(
    exec: &mut AttackExecutor,
    conn: usize,
    to_controller: bool,
    bytes: &[u8],
    now_ns: u64,
) -> ExecOutput {
    exec.on_message(InjectorInput {
        conn: ConnectionId(conn),
        to_controller,
        frame: attain_openflow::Frame::new(bytes.to_vec()),
        now_ns,
    })
}

#[test]
fn trivial_pass_forwards_everything_verbatim() {
    let mut exec = executor(attacks::TRIVIAL_PASS);
    for (i, msg) in [
        OfMessage::Hello.encode(1),
        flow_mod_bytes(),
        packet_in_bytes(9),
    ]
    .iter()
    .enumerate()
    {
        let out = send(&mut exec, i % 4, i % 2 == 0, msg, i as u64);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].frame.bytes(), msg.as_slice());
        assert_eq!(out.deliveries[0].extra_delay_ns, 0);
    }
    assert!(exec.log().events().is_empty());
}

#[test]
fn flow_mod_suppression_drops_only_controller_flow_mods() {
    let mut exec = executor(attacks::FLOW_MOD_SUPPRESSION);
    // FLOW_MOD from the controller: dropped on every connection.
    for conn in 0..4 {
        let out = send(&mut exec, conn, false, &flow_mod_bytes(), conn as u64);
        assert!(out.deliveries.is_empty(), "conn {conn} should drop");
    }
    // PACKET_IN from a switch: passes.
    let out = send(&mut exec, 0, true, &packet_in_bytes(1), 10);
    assert_eq!(out.deliveries.len(), 1);
    // HELLO from the controller: passes (not a FLOW_MOD).
    let out = send(&mut exec, 0, false, &OfMessage::Hello.encode(2), 11);
    assert_eq!(out.deliveries.len(), 1);
    assert_eq!(exec.log().rule_fires("phi1"), 4);
    // The attack is single-state: no transitions ever.
    assert!(exec.log().transitions().is_empty());
}

#[test]
fn connection_interruption_walks_the_figure_12_state_machine() {
    let mut exec = executor(attacks::CONNECTION_INTERRUPTION);
    assert_eq!(exec.current_state_name(), "sigma1");

    // HELLO from s2 (conn 1, to_controller): passes, σ1 → σ2.
    let out = send(&mut exec, 1, true, &OfMessage::Hello.encode(1), 0);
    assert_eq!(out.deliveries.len(), 1);
    assert_eq!(exec.current_state_name(), "sigma2");

    // A FLOW_MOD without nw_src: stays in σ2 (the Ryu case) and passes.
    let out = send(&mut exec, 1, false, &flow_mod_bytes(), 1);
    assert_eq!(out.deliveries.len(), 1);
    assert_eq!(exec.current_state_name(), "sigma2");

    // The deny flow mod: match names nw_src=h2, nw_dst=h3 → dropped,
    // σ2 → σ3.
    let mut m = Match::all();
    m.wildcards = Wildcards::ALL
        .with_nw_src_ignored_bits(0)
        .with_nw_dst_ignored_bits(0);
    m.nw_src = u32::from("10.0.0.2".parse::<std::net::Ipv4Addr>().unwrap());
    m.nw_dst = u32::from("10.0.0.3".parse::<std::net::Ipv4Addr>().unwrap());
    let deny = OfMessage::FlowMod(FlowMod::add(m, vec![])).encode(5);
    let out = send(&mut exec, 1, false, &deny, 2);
    assert!(out.deliveries.is_empty());
    assert_eq!(exec.current_state_name(), "sigma3");

    // σ3 drops everything on (c1, s2)…
    let out = send(
        &mut exec,
        1,
        true,
        &OfMessage::EchoRequest(vec![]).encode(6),
        3,
    );
    assert!(out.deliveries.is_empty());
    // …but other connections are untouched.
    let out = send(
        &mut exec,
        0,
        true,
        &OfMessage::EchoRequest(vec![]).encode(7),
        4,
    );
    assert_eq!(out.deliveries.len(), 1);

    assert_eq!(exec.log().transitions(), vec![(0, 1), (1, 2)]);
}

#[test]
fn ryu_style_wildcarded_flow_mods_never_trigger_phi2() {
    let mut exec = executor(attacks::CONNECTION_INTERRUPTION);
    send(&mut exec, 1, true, &OfMessage::Hello.encode(1), 0);
    assert_eq!(exec.current_state_name(), "sigma2");
    // Twenty L2-only flow mods (nw fields wildcarded): all pass, no
    // transition — the paper's Ryu anomaly.
    for i in 0..20 {
        let out = send(&mut exec, 1, false, &flow_mod_bytes(), i + 10);
        assert_eq!(out.deliveries.len(), 1);
    }
    assert_eq!(exec.current_state_name(), "sigma2");
    assert_eq!(exec.log().rule_fires("phi2"), 0);
}

#[test]
fn counted_suppression_lets_ten_through_then_drops() {
    let mut exec = executor(attacks::COUNTED_SUPPRESSION);
    let mut passed = 0;
    let mut dropped = 0;
    for i in 0..25 {
        let out = send(&mut exec, 0, false, &flow_mod_bytes(), i);
        if out.deliveries.is_empty() {
            dropped += 1;
        } else {
            passed += 1;
        }
    }
    assert_eq!(passed, 10, "exactly ten flow mods should pass");
    assert_eq!(dropped, 15);
    assert_eq!(exec.current_state_name(), "suppress");
    // O(1) storage: one counter cell, not one state per message.
    assert_eq!(exec.deques().len("counter"), 1);
}

#[test]
fn reorder_emits_stashed_packet_ins_in_reverse_order() {
    let mut exec = executor(attacks::REORDER_PACKET_INS);
    let m1 = packet_in_bytes(1);
    let m2 = packet_in_bytes(2);
    let m3 = packet_in_bytes(3);
    assert!(send(&mut exec, 0, true, &m1, 0).deliveries.is_empty());
    assert!(send(&mut exec, 0, true, &m2, 1).deliveries.is_empty());
    let out = send(&mut exec, 0, true, &m3, 2);
    // Third passes first, then the stack unwinds: m2, m1.
    assert_eq!(out.deliveries.len(), 3);
    assert_eq!(out.deliveries[0].frame.bytes(), m3.as_slice());
    assert_eq!(out.deliveries[1].frame.bytes(), m2.as_slice());
    assert_eq!(out.deliveries[2].frame.bytes(), m1.as_slice());
}

#[test]
fn replay_duplicates_then_floods_five_copies() {
    let mut exec = executor(attacks::REPLAY_FLOW_MODS);
    let mut total_out = 0;
    for i in 0..5 {
        let out = send(&mut exec, 0, false, &flow_mod_bytes(), i);
        // duplicate + pass: two copies each time.
        assert_eq!(out.deliveries.len(), 2);
        total_out += out.deliveries.len();
    }
    // Sixth message: the flood rule replays the five stored copies and
    // the message itself still passes (default).
    let out = send(&mut exec, 0, false, &OfMessage::Hello.encode(9), 9);
    assert_eq!(out.deliveries.len(), 6);
    total_out += out.deliveries.len();
    assert_eq!(total_out, 16);
    assert_eq!(exec.current_state_name(), "done");
}

#[test]
fn fuzz_corrupts_every_tenth_controller_message() {
    let mut exec = executor(attacks::FUZZ_CONTROL_PLANE);
    let mut corrupted = 0;
    for i in 0..40 {
        let bytes = OfMessage::EchoRequest(vec![0u8; 32]).encode(i as u32);
        let out = send(&mut exec, 0, false, &bytes, i);
        assert_eq!(out.deliveries.len(), 1);
        if out.deliveries[0].frame.bytes() != bytes.as_slice() {
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 4, "every tenth message should be fuzzed");
}

#[test]
fn sleep_holds_messages_and_replays_them_on_wakeup() {
    let sc = scenario::enterprise_network();
    let source = r#"
        attack napper {
            start state s {
                rule trigger on (c1, s1) {
                    when msg.type == HELLO
                    do { pass(msg); sleep(2); goto asleep; }
                }
            }
            state asleep {
                rule all_pass on (c1, s1) {
                    when true
                    do { pass(msg); }
                }
            }
        }
    "#;
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    let mut exec = AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap();

    let hello = OfMessage::Hello.encode(1);
    let out = send(&mut exec, 0, true, &hello, 1_000_000_000);
    assert_eq!(out.deliveries.len(), 1);
    assert_eq!(out.wakeup_ns, Some(3_000_000_000));

    // Messages during the nap are held.
    let m = packet_in_bytes(7);
    let out = send(&mut exec, 0, true, &m, 1_500_000_000);
    assert!(out.deliveries.is_empty());
    assert_eq!(out.wakeup_ns, Some(3_000_000_000));

    // Wakeup drains the held message through the (now current) state.
    let out = exec.on_wakeup(3_000_000_000);
    assert_eq!(out.deliveries.len(), 1);
    assert_eq!(out.deliveries[0].frame.bytes(), m.as_slice());
    assert!(exec
        .log()
        .events()
        .iter()
        .any(|e| matches!(e.kind, LogKind::Held { .. })));
}

#[test]
fn syscmd_surfaces_to_the_harness() {
    let sc = scenario::enterprise_network();
    let source = r#"
        attack cmds {
            start state s {
                rule go on (c1, s1) {
                    when msg.type == HELLO
                    do { pass(msg); syscmd(h6, "iperf -s"); syscmd(h1, "iperf -c 10.0.0.6 -t 10"); }
                }
            }
        }
    "#;
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    let mut exec = AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap();
    let out = send(&mut exec, 0, true, &OfMessage::Hello.encode(1), 0);
    assert_eq!(
        out.commands,
        vec![
            ("h6".to_string(), "iperf -s".to_string()),
            ("h1".to_string(), "iperf -c 10.0.0.6 -t 10".to_string()),
        ]
    );
}

#[test]
fn delay_and_duplicate_and_modify() {
    let sc = scenario::enterprise_network();
    let source = r#"
        attack shaping {
            start state s {
                rule slow on (c1, s1) {
                    when msg.type == FLOW_MOD
                    do { modify(msg, "idle_timeout", 60); duplicate(msg); delay(msg, 0.5); }
                }
            }
        }
    "#;
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    let mut exec = AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap();
    let out = send(&mut exec, 0, false, &flow_mod_bytes(), 0);
    assert_eq!(out.deliveries.len(), 2);
    for d in &out.deliveries {
        assert_eq!(d.extra_delay_ns, 500_000_000);
        let Some(OfMessage::FlowMod(fm)) = d.frame.message() else {
            panic!()
        };
        assert_eq!(fm.idle_timeout, 60);
    }
}

#[test]
fn a_match_is_counted_not_logged() {
    let mut exec = executor(
        r#"
        attack pass_all {
            start state s {
                rule pass_all on all {
                    when true
                    do { pass(msg); }
                }
            }
        }
    "#,
    );
    let echo = OfMessage::EchoRequest(vec![1]).encode(1);
    for i in 0..100_000 {
        let out = send(&mut exec, i % 4, i % 2 == 0, &echo, i as u64);
        assert_eq!(out.deliveries.len(), 1);
    }
    assert_eq!(exec.log().events().len(), 0);
    assert_eq!(exec.log().rule_fires("pass_all"), 100_000);
}

#[test]
fn a_failing_condition_is_counted_not_logged() {
    let mut exec = executor(
        r#"
        attack bad {
            start state s {
                rule bad on all {
                    when msg["idle_timeout"] == 1
                    do { drop(msg); }
                }
            }
        }
    "#,
    );
    let echo = OfMessage::EchoRequest(vec![1]).encode(1);
    for i in 0..10_000 {
        send(&mut exec, i % 4, i % 2 == 0, &echo, i as u64);
    }
    assert_eq!(exec.log().events().len(), 0);
    assert_eq!(exec.log().rule_fires("bad"), 0);
    let errors: Vec<_> = exec.log().rule_errors().collect();
    assert_eq!(
        errors,
        [("bad", 10_000, "no field idle_timeout on this message type")]
    );
}

/// A chain of operators is one node however long it is, so compiling,
/// validating, evaluating and dropping it takes no more stack than a
/// short one does. 2 MiB is the stack of every campaign worker and
/// proxy thread.
#[test]
fn long_operator_chains_run_on_a_2_mib_stack() {
    for terms in [10_000, 1_000_000] {
        let fires = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let when = format!("{} == {terms}", vec!["1"; terms].join(" + "));
                let mut exec = executor(&format!(
                    "attack long {{ start state s {{ rule sum on all {{\n\
                     when {when} do {{ pass(msg); }} }} }} }}"
                ));
                send(&mut exec, 0, false, &OfMessage::Hello.encode(1), 0);
                exec.log().rule_fires("sum")
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        assert_eq!(fires, 1, "{terms} terms");
    }
}

#[test]
fn executor_is_deterministic_across_runs() {
    let run = || {
        let mut exec = executor(attacks::FUZZ_CONTROL_PLANE);
        let mut all_bytes = Vec::new();
        for i in 0..50u64 {
            let bytes = OfMessage::EchoRequest(vec![i as u8; 24]).encode(i as u32);
            let out = send(&mut exec, (i % 4) as usize, false, &bytes, i);
            for d in out.deliveries {
                all_bytes.extend_from_slice(d.frame.bytes());
            }
        }
        all_bytes
    };
    assert_eq!(run(), run());
}

#[test]
fn stochastic_suppression_drops_at_the_configured_rate() {
    use attain_core::lang::templates;
    use attain_openflow::OfType;
    let sc = scenario::enterprise_network();
    let attack = templates::suppress_type_with_probability(
        OfType::FlowMod,
        0.3,
        sc.system.connections().map(|(id, _, _)| id).collect(),
    );
    let run = || {
        let sc = scenario::enterprise_network();
        let mut exec = AttackExecutor::new(sc.system, sc.attack_model, attack.clone()).unwrap();
        let mut dropped = 0u32;
        for i in 0..1000 {
            let out = send(&mut exec, 0, false, &flow_mod_bytes(), i);
            if out.deliveries.is_empty() {
                dropped += 1;
            }
        }
        dropped
    };
    let dropped = run();
    // Binomial(1000, 0.3): ±5σ ≈ ±72.
    assert!(
        (230..=370).contains(&dropped),
        "drop count {dropped} should be ≈300"
    );
    // Stochastic but reproducible: identical across runs.
    assert_eq!(dropped, run());
}

#[test]
fn entropy_property_is_usable_from_the_dsl() {
    let sc = scenario::enterprise_network();
    let source = r#"
        attack lossy {
            start state s {
                rule coin on (c1, s1) {
                    when msg.entropy < 0.5
                    do { drop(msg); }
                }
            }
        }
    "#;
    let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
    let mut exec = AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap();
    let mut dropped = 0;
    for i in 0..200 {
        let out = send(&mut exec, 0, true, &packet_in_bytes(i as u32), i);
        if out.deliveries.is_empty() {
            dropped += 1;
        }
    }
    assert!(
        (60..=140).contains(&dropped),
        "≈half should drop, got {dropped}"
    );
}

#[test]
fn templates_compose_with_the_executor() {
    use attain_core::lang::templates;
    use attain_openflow::OfType;
    let sc = scenario::enterprise_network();
    let conns: Vec<_> = sc.system.connections().map(|(id, _, _)| id).collect();
    let attack = templates::after_count(
        OfType::FlowMod,
        5,
        vec![attain_core::lang::AttackAction::Drop],
        conns,
    );
    let mut exec = AttackExecutor::new(sc.system, sc.attack_model, attack).unwrap();
    let mut passed = 0;
    for i in 0..12 {
        let out = send(&mut exec, 0, false, &flow_mod_bytes(), i);
        if !out.deliveries.is_empty() {
            passed += 1;
        }
    }
    assert_eq!(passed, 5);
    assert_eq!(exec.current_state_name(), "strike");
}

/// `AttackExecutor::new` is where the capability proof is made: a rule
/// must declare every capability its actions use, the attack model must
/// grant that declared set on every connection the rule watches, and
/// those connections must exist. The executor fires actions without
/// checking again, so each hand-built violation must be refused here.
#[test]
fn new_refuses_each_capability_violation() {
    use attain_core::exec::ExecutorError;
    use attain_core::lang::{Attack, AttackAction, AttackState, Expr, Rule, Value};
    use attain_core::model::{AttackModel, Capability, CapabilitySet};

    let sc = scenario::enterprise_network();
    let caps = |c: &[Capability]| c.iter().copied().collect::<CapabilitySet>();
    let drop = caps(&[Capability::DropMessage]);
    let attack = |conn: usize, required: CapabilitySet| Attack {
        name: "hand_built".into(),
        states: vec![AttackState {
            name: "sigma1".into(),
            rules: vec![Rule {
                name: "phi1".into(),
                connections: vec![ConnectionId(conn)],
                required,
                condition: Expr::Lit(Value::Bool(true)),
                actions: vec![AttackAction::Drop],
            }],
        }],
        start: 0,
    };
    let new = |model: &AttackModel, attack: Attack| {
        AttackExecutor::new(sc.system.clone(), model.clone(), attack).map(|_| ())
    };
    // The model grants only DROPMESSAGE on connection 1.
    let mut model = sc.attack_model.clone();
    model.set(ConnectionId(1), drop);

    assert_eq!(new(&model, attack(1, drop)), Ok(()));
    assert_eq!(
        new(
            &model,
            attack(1, caps(&[Capability::DropMessage, Capability::PassMessage]))
        ),
        Err(ExecutorError::NotGranted {
            rule: "phi1".into(),
            conn: ConnectionId(1),
            missing: vec![Capability::PassMessage],
        }),
    );
    assert_eq!(
        new(&model, attack(0, caps(&[Capability::PassMessage]))),
        Err(ExecutorError::RuleUnderDeclared {
            rule: "phi1".into(),
            missing: vec![Capability::DropMessage],
        }),
    );
    let outside = sc.system.connection_count();
    assert_eq!(
        new(&model, attack(outside, drop)),
        Err(ExecutorError::UnknownConnection {
            rule: "phi1".into(),
            conn: ConnectionId(outside),
        }),
    );
}
