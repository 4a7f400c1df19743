//! The paper's §VII-B experiment, end to end: the Figure 10 flow
//! modification suppression attack against one controller on the
//! Figure 8/9 enterprise network.
//!
//! ```sh
//! cargo run --release --example flow_mod_suppression [floodlight|pox|ryu]
//! ```

use attain::controllers::ControllerKind;
use attain::core::scenario;
use attain::injector::harness::{run_flow_mod_suppression, Fidelity};
use attain::injector::RunRecord;

/// One Figure 11 bar pair; `*` is the paper's denial-of-service mark.
fn summary(o: &RunRecord) -> String {
    let iperf = if o.iperf_denied() {
        "*".to_string()
    } else {
        format!("{:.1} Mb/s", o.mean_throughput_mbps())
    };
    match o.pings[0].avg_rtt_ms {
        Some(ms) => format!("iperf {iperf} ping {ms:.2} ms"),
        None => format!("iperf {iperf} ping *"),
    }
}

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("pox") => ControllerKind::Pox,
        Some("ryu") => ControllerKind::Ryu,
        _ => ControllerKind::Floodlight,
    };
    println!("attack description (Figure 10):");
    println!("{}", scenario::attacks::FLOW_MOD_SUPPRESSION.trim());
    println!();

    let fidelity = Fidelity {
        ping_trials: 20,
        iperf_trials: 3,
        iperf_secs: 5,
    };
    println!("baseline run ({kind})…");
    let baseline = run_flow_mod_suppression(kind, false, &fidelity).expect("baseline runs");
    println!("  {kind}/baseline: {}", summary(&baseline));
    println!("attacked run ({kind})…");
    let attacked = run_flow_mod_suppression(kind, true, &fidelity).expect("attack runs");
    println!("  {kind}/attack: {}", summary(&attacked));

    println!();
    println!(
        "control plane: {} → {} PACKET_INs ({}x); {} FLOW_MODs suppressed",
        baseline.packet_ins,
        attacked.packet_ins,
        if baseline.packet_ins > 0 {
            attacked.packet_ins / baseline.packet_ins.max(1)
        } else {
            0
        },
        attacked.rule_fires("phi1"),
    );
    if attacked.iperf_denied() || attacked.pings[0].denied() {
        println!(
            "verdict: denial of service — {kind} releases buffered packets only via the \
             suppressed FLOW_MOD"
        );
    } else {
        println!("verdict: degraded service — {kind} keeps forwarding per-packet via PACKET_OUT");
    }
}
