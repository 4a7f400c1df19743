//! Quickstart: model a network, write an attack in the DSL, run it in
//! the simulator, and read the results.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use attain::controllers::ControllerKind;
use attain::core::dsl;
use attain::core::exec::AttackExecutor;
use attain::core::model::{AttackModel, CapabilitySet, SystemModel};
use attain::injector::harness::attach;
use attain::netsim::{HostCommand, NetworkBuilder, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The attack model's view of the system: one controller, one
    //    switch, two hosts (paper §IV-A).
    let mut system = SystemModel::new();
    let c1 = system.add_controller("c1")?;
    let s1 = system.add_switch("s1")?;
    let h1 = system.add_host("h1", Some("10.0.0.1".parse()?), None)?;
    let h2 = system.add_host("h2", Some("10.0.0.2".parse()?), None)?;
    system.add_host_link(h1, s1, 1)?;
    system.add_host_link(h2, s1, 2)?;
    system.add_connection(c1, s1)?;
    system.validate()?;

    // 2. The attacker's capabilities: full control of the (plain-TCP)
    //    control channel (§IV-C).
    let attack_model = AttackModel::uniform(&system, CapabilitySet::no_tls());

    // 3. An attack in the description language (§V): drop every third
    //    FLOW_MOD using a deque counter.
    let source = r#"
        attack drop_every_third_flow_mod {
            start state s {
                rule init on (c1, s1) {
                    when len(counter) == 0
                    do { prepend(counter, 0); }
                }
                rule tick on (c1, s1) {
                    when msg.type == FLOW_MOD && front(counter) < 2
                    do { prepend(counter, front(counter) + 1); pop(counter); }
                }
                rule strike on (c1, s1) {
                    when msg.type == FLOW_MOD && front(counter) == 2
                    do { drop(msg); prepend(counter, 0); pop(counter); }
                }
            }
        }
    "#;
    let compiled = dsl::compile(source, &system, &attack_model)?;
    println!("compiled attack {:?}:", compiled.name());
    println!("{}", compiled.graph.to_dot());

    // 4. The same network in the simulator, with the attack interposed
    //    on the control plane (§VI).
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch("s1");
    b.link(h1, s1);
    b.link(h2, s1);
    let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
    b.control(c1, s1);
    let mut sim = b.build();

    let exec = AttackExecutor::new(system.clone(), attack_model, compiled.attack)?;
    let handle = attach(&mut sim, exec, &system)?;

    // 5. Workload: 20 pings h1 → h2.
    sim.schedule_command(
        SimTime::from_secs(5),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse()?,
            count: 20,
            interval: SimTime::from_secs(1),
            label: "ping h1->h2".into(),
        },
    );
    sim.run_until(SimTime::from_secs(30));

    // 6. Results: data-plane metrics and the injection log.
    let ping = &sim.ping_stats()[0];
    println!(
        "ping: {}/{} answered, avg RTT {:.2} ms",
        ping.received(),
        ping.transmitted(),
        ping.avg_rtt_ms().unwrap_or(f64::NAN)
    );
    let exec = handle.lock();
    println!(
        "attack log: strike rule fired {} times, {} other records",
        exec.log().rule_fires("strike"),
        exec.log().events().len()
    );
    println!("link stats:");
    for l in sim.link_stats() {
        println!("  {l}");
    }
    Ok(())
}
