//! Workspace-level integration: the whole pipeline from one
//! self-contained DSL document to a running attacked network, through
//! the facade crate's public API.

use attain::controllers::ControllerKind;
use attain::core::dsl;
use attain::core::exec::AttackExecutor;
use attain::core::scenario;
use attain::injector::harness::{attach, build_simulation};
use attain::netsim::{FailMode, HostCommand, SimTime};

const DOCUMENT: &str = r#"
    # A complete ATTAIN input: system model, attack model, attack states
    # (the paper's three compiler inputs, §VI-B1) in one file.
    system {
        controller c1;
        switch s1;
        switch s2;
        host h1 ip 10.0.0.1;
        host h2 ip 10.0.0.2;
        link h1, s1;
        link s1, s2;
        link h2, s2;
        connection c1 -> s1;
        connection c1 -> s2;
    }
    capabilities {
        default no_tls;
    }
    attack suppress_everything_after_ten {
        start state count_up {
            rule init on all {
                when len(counter) == 0
                do { prepend(counter, 0); }
            }
            rule tick on all {
                when front(counter) < 40
                do { prepend(counter, front(counter) + 1); pop(counter); }
            }
            rule engage on all {
                when front(counter) == 40
                do { goto blackhole; }
            }
        }
        state blackhole {
            rule drop_all on all {
                when true
                do { drop(msg); }
            }
        }
    }
"#;

#[test]
fn self_contained_document_drives_a_simulation() {
    let doc = dsl::compile_document(DOCUMENT).expect("document compiles");
    assert_eq!(doc.attacks.len(), 1);
    let compiled = &doc.attacks[0];
    assert_eq!(compiled.graph.vertices, vec!["count_up", "blackhole"]);

    let mut sim = build_simulation(
        &doc.system,
        |_| FailMode::Secure,
        |_| ControllerKind::Floodlight.instantiate(),
    )
    .expect("document builds");
    let exec = AttackExecutor::new(
        doc.system.clone(),
        doc.attack_model.clone(),
        compiled.attack.clone(),
    )
    .expect("attack validates");
    let handle =
        attach(&mut sim, exec, &doc.system).expect("the document's network has its connections");

    let h1 = sim.node_id("h1").expect("document declares h1");
    // First run: establishes flows; the attack blackholes the control
    // plane after 40 messages, but the already-installed flows keep
    // carrying this steady traffic (fail-secure preserves them, and the
    // 1 Hz pings keep refreshing the idle timeout).
    sim.schedule_command(
        SimTime::from_secs(5),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().expect("valid address"),
            count: 30,
            interval: SimTime::from_secs(1),
            label: "while flows live".into(),
        },
    );
    // Second run after a pause: Floodlight's 5 s idle timeout has
    // cleared the flows, the controller is unreachable, and fail-secure
    // drops every miss — total loss.
    sim.schedule_command(
        SimTime::from_secs(50),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().expect("valid address"),
            count: 10,
            interval: SimTime::from_secs(1),
            label: "after flows expire".into(),
        },
    );
    sim.run_until(SimTime::from_secs(70));

    let stats = sim.ping_stats();
    let first = stats
        .iter()
        .find(|s| s.label == "while flows live")
        .expect("first ping ran");
    let second = stats
        .iter()
        .find(|s| s.label == "after flows expire")
        .expect("second ping ran");
    assert!(
        first.received() >= 25,
        "installed flows should keep serving: {first:?}"
    );
    assert!(
        second.is_denial_of_service(),
        "with flows expired and the control plane dead, fail-secure blackholes: {second:?}"
    );
    assert_eq!(handle.lock().current_state_name(), "blackhole");
    assert!(!sim.switch("s1").is_connected());
    assert!(!sim.switch("s2").is_connected());
}

#[test]
fn facade_reexports_cover_the_paper_pipeline() {
    // Figures 3 and 4 as data.
    let f3 = scenario::figure3_network();
    assert_eq!(f3.system.data_plane().len(), 4);
    let f4 = scenario::figure4_network();
    assert_eq!(f4.system.connection_count(), 6);

    // Every bundled attack compiles against the enterprise scenario via
    // the facade paths.
    let sc = scenario::enterprise_network();
    for (name, source) in scenario::attacks::ALL {
        let compiled = dsl::compile(source, &sc.system, &sc.attack_model);
        assert!(compiled.is_ok(), "{name}: {}", compiled.unwrap_err());
    }
}

#[test]
fn all_three_controller_models_run_under_the_generic_builder() {
    let doc = dsl::compile_document(DOCUMENT).expect("document compiles");
    for kind in ControllerKind::ALL {
        let mut sim = build_simulation(&doc.system, |_| FailMode::Secure, |_| kind.instantiate())
            .expect("document builds");
        let h1 = sim.node_id("h1").expect("document declares h1");
        sim.schedule_command(
            SimTime::from_secs(5),
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.2".parse().expect("valid address"),
                count: 5,
                interval: SimTime::from_secs(1),
                label: "ping".into(),
            },
        );
        sim.run_until(SimTime::from_secs(15));
        assert_eq!(
            sim.ping_stats()[0].received(),
            5,
            "{kind} under the generic builder"
        );
    }
}

#[test]
fn full_stack_is_deterministic() {
    let run = || {
        let doc = dsl::compile_document(DOCUMENT).expect("document compiles");
        let compiled = &doc.attacks[0];
        let mut sim = build_simulation(
            &doc.system,
            |_| FailMode::Safe,
            |_| ControllerKind::Pox.instantiate(),
        )
        .expect("document builds");
        let exec = AttackExecutor::new(
            doc.system.clone(),
            doc.attack_model.clone(),
            compiled.attack.clone(),
        )
        .expect("attack validates");
        let handle = attach(&mut sim, exec, &doc.system)
            .expect("the document's network has its connections");
        let h1 = sim.node_id("h1").expect("document declares h1");
        sim.schedule_command(
            SimTime::from_secs(3),
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.2".parse().expect("valid address"),
                count: 30,
                interval: SimTime::from_secs(1),
                label: "ping".into(),
            },
        );
        sim.run_until(SimTime::from_secs(40));
        let rtts = sim.ping_stats()[0].rtts_ms().to_vec();
        let events = handle.lock().log().events().len();
        (rtts, events, sim.trace().control_message_total())
    };
    assert_eq!(run(), run());
}
