//! Run-budget semantics: deterministic halts, livelock detection, and
//! the wall-clock deadline.

use attain_controllers::ControllerKind;
use attain_netsim::{
    FaultPlan, HaltReason, HostCommand, Interposer, InterposerActions, NetworkBuilder,
    ProxiedMessage, RunBudget, SimTime, TraceKind,
};
use std::time::Instant;

fn build(budget: RunBudget) -> attain_netsim::Simulation {
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch("s1");
    b.link(h1, s1);
    b.link(h2, s1);
    let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
    b.control(c1, s1);
    let mut sim = b.build();
    sim.set_run_budget(budget);
    sim.schedule_command(
        SimTime::from_secs(5),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().unwrap(),
            count: 10,
            interval: SimTime::from_secs(1),
            label: "h1->h2".into(),
        },
    );
    sim
}

/// An interposer that reschedules itself at `now` forever: virtual time
/// stops advancing the moment the first control message reaches it.
struct Spin;

impl Interposer for Spin {
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
        let mut a = InterposerActions::pass(&msg);
        a.wakeup = Some(msg.now);
        a
    }

    fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
        InterposerActions {
            wakeup: Some(now),
            ..InterposerActions::default()
        }
    }
}

#[test]
fn unlimited_budget_reaches_the_horizon() {
    let mut sim = build(RunBudget::default());
    assert_eq!(sim.run_until(SimTime::from_secs(20)), HaltReason::Horizon);
    assert_eq!(sim.ping_stats()[0].received(), 10);
    assert!(sim.halt_reason().is_none());
    assert!(sim.events_dispatched() > 0);
}

#[test]
fn event_budget_halts_are_sticky_and_traced() {
    let mut sim = build(RunBudget {
        max_events: Some(50),
        ..RunBudget::default()
    });
    let halt = sim.run_until(SimTime::from_secs(20));
    assert_eq!(halt, HaltReason::EventBudget { events: 50 });
    assert_eq!(sim.events_dispatched(), 50);
    // Sticky: a further run dispatches nothing and reports the same.
    let before = sim.events_dispatched();
    assert_eq!(sim.run_until(SimTime::from_secs(40)), halt);
    assert_eq!(sim.events_dispatched(), before);
    // The halt is part of the record.
    assert!(sim.trace().events().any(|e| matches!(
        e.kind,
        TraceKind::RunHalted {
            reason: "event-budget",
            events: 50,
        }
    )));
}

#[test]
fn budget_halts_reproduce_same_seed_byte_identical_traces() {
    let run = || {
        let mut sim = build(RunBudget {
            max_events: Some(120),
            ..RunBudget::default()
        });
        sim.apply_fault_plan(&FaultPlan::seeded(7));
        let halt = sim.run_until(SimTime::from_secs(20));
        (halt, sim.now(), sim.trace().digest())
    };
    let (halt_a, now_a, digest_a) = run();
    let (halt_b, now_b, digest_b) = run();
    assert_eq!(halt_a, HaltReason::EventBudget { events: 120 });
    assert_eq!(halt_a, halt_b);
    assert_eq!(now_a, now_b);
    assert_eq!(digest_a, digest_b);
    // And the digest differs from an unbudgeted run: the halt event is
    // real trace content, not an out-of-band flag.
    let mut free = build(RunBudget::default());
    free.apply_fault_plan(&FaultPlan::seeded(7));
    free.run_until(SimTime::from_secs(20));
    assert_ne!(digest_a, free.trace().digest());
}

#[test]
fn livelock_detector_catches_a_stuck_instant() {
    let mut sim = build(RunBudget {
        max_events_per_instant: Some(1_000),
        ..RunBudget::default()
    });
    sim.set_interposer(Box::new(Spin));
    let halt = sim.run_until(SimTime::from_secs(20));
    assert_eq!(
        halt,
        HaltReason::Livelock {
            events_at_instant: 1_000,
        }
    );
    // Virtual time froze well before the horizon.
    assert!(sim.now() < SimTime::from_secs(20));
    // Deterministic: a second identical run halts at the same instant
    // with the same digest.
    let mut again = build(RunBudget {
        max_events_per_instant: Some(1_000),
        ..RunBudget::default()
    });
    again.set_interposer(Box::new(Spin));
    assert_eq!(again.run_until(SimTime::from_secs(20)), halt);
    assert_eq!(again.now(), sim.now());
    assert_eq!(again.trace().digest(), sim.trace().digest());
}

#[test]
fn healthy_runs_never_trip_the_livelock_bound() {
    let mut sim = build(RunBudget {
        max_events_per_instant: Some(1_000),
        ..RunBudget::default()
    });
    assert_eq!(sim.run_until(SimTime::from_secs(20)), HaltReason::Horizon);
    // Identical digest to a fully unbudgeted run: an untripped budget
    // leaves no trace residue.
    let mut free = build(RunBudget::default());
    free.run_until(SimTime::from_secs(20));
    assert_eq!(sim.trace().digest(), free.trace().digest());
}

#[test]
fn cancellation_stops_the_run_without_touching_the_trace() {
    let mut sim = build(RunBudget::default());
    // Run half way, snapshot, pass the deadline, try to continue.
    assert_eq!(sim.run_until(SimTime::from_secs(8)), HaltReason::Horizon);
    let (digest, events) = (sim.trace().digest(), sim.events_dispatched());
    sim.set_run_budget(RunBudget {
        deadline: Some(Instant::now()),
        ..RunBudget::default()
    });
    assert_eq!(sim.run_until(SimTime::from_secs(20)), HaltReason::Cancelled);
    assert_eq!(sim.events_dispatched(), events, "nothing dispatched");
    assert_eq!(sim.run_until(SimTime::from_secs(30)), HaltReason::Cancelled);
    // No RunHalted event, no digest change: wall-clock interruptions
    // never contaminate golden traces.
    assert_eq!(sim.trace().digest(), digest);
    assert_eq!(sim.halt_reason(), Some(HaltReason::Cancelled));
}
