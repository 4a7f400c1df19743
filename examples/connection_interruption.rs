//! The paper's §VII-C experiment, end to end: the Figure 12 connection
//! interruption attack against the DMZ firewall switch, in both fail
//! modes.
//!
//! ```sh
//! cargo run --release --example connection_interruption [floodlight|pox|ryu]
//! ```

use attain::controllers::ControllerKind;
use attain::core::scenario;
use attain::injector::harness::run_connection_interruption;
use attain::netsim::FailMode;

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("pox") => ControllerKind::Pox,
        Some("ryu") => ControllerKind::Ryu,
        _ => ControllerKind::Floodlight,
    };
    println!("attack description (Figure 12):");
    println!("{}", scenario::attacks::CONNECTION_INTERRUPTION.trim());
    println!();

    // One run for both modes: it splits where s2 first consults its mode.
    let outs = run_connection_interruption(kind).expect("the experiment runs");
    for (mode, out) in [FailMode::Safe, FailMode::Secure].into_iter().zip(outs) {
        println!("running {kind} with s2 in {mode:?} mode…");
        for (row, ping) in [
            ("ext→ext (t=30s)", "h2->h1 early"),
            ("int→ext (t=30s)", "h6->h1 early"),
            ("ext→int (t=50s)", "h2->h3"),
            ("int→ext (t=95s)", "h6->h1 late"),
        ] {
            let check = out.ping(ping).expect("the timeline schedules it");
            println!("  {:<21} {check}", format!("{row}:"));
        }
        let final_state = out.final_state.as_deref().unwrap_or("-");
        println!(
            "  attack ended in {final_state} (φ2 fired {}×)",
            out.rule_fires("phi2")
        );
        if out.accessible("h2->h3") {
            println!("  ⇒ unauthorized increased access");
        }
        if !out.accessible("h6->h1 late") {
            println!("  ⇒ denial of service against legitimate traffic");
        }
        if final_state == "sigma2" {
            println!("  ⇒ φ2 never matched this controller's flow-mod attributes (the Ryu case)");
        }
        println!();
    }
}
