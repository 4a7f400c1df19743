//! The paper's future-work features, implemented: attack state graph
//! templates (§X) and stochastic decision-making (§VIII-A), plus the
//! monitors' run record (§VI-B3).
//!
//! A template-generated probabilistic flow-mod suppressor runs against
//! the enterprise network; because its randomness derives from the
//! injector's deterministic per-message entropy, the "random" run is
//! exactly reproducible. The generated attack is rendered back to DSL
//! text — ready to save as a shareable `.atk` file — and it is that text
//! the harness compiles and runs.
//!
//! ```sh
//! cargo run --release --example stochastic_templates
//! ```

use attain::controllers::ControllerKind;
use attain::core::lang::templates;
use attain::core::{dsl, scenario};
use attain::injector::harness::{run, schedule_ping, Scope};
use attain::netsim::{FailMode, FaultPlan, RunBudget, SimTime};
use attain::openflow::OfType;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = scenario::enterprise_network();
    let conns: Vec<_> = sc.system.connections().map(|(id, _, _)| id).collect();

    // §X template + §VIII-A stochastic extension: drop each FLOW_MOD
    // independently with probability 0.5.
    let attack = templates::suppress_type_with_probability(OfType::FlowMod, 0.5, conns);
    let source = dsl::render(&attack, &sc.system)?;
    println!("generated attack, rendered back to DSL:\n");
    println!("{source}");

    let trial = || {
        run(
            Scope::Enterprise,
            &source,
            true,
            ControllerKind::Floodlight,
            &[FailMode::Secure],
            &FaultPlan::default(),
            &RunBudget::default(),
            |sim, _| {
                let label = "h1->h6 under 50% suppression";
                schedule_ping(sim, SimTime::from_secs(10), "h1", "10.0.0.6", 30, label)?;
                Ok(SimTime::from_secs(45))
            },
        )
        .remove(0)
    };

    let report = trial()?;
    println!("{report}");

    // Stochastic, but reproducible: a second run is identical.
    let again = trial()?;
    assert_eq!(
        (report.digest, &report.pings, &report.rule_fires),
        (again.digest, &again.pings, &again.rule_fires),
        "deterministic entropy ⇒ identical runs"
    );
    println!("second run identical — stochastic attacks stay reproducible");
    Ok(())
}
