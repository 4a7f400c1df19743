//! The single-decode invariant, end to end: over a full interposed
//! simulation, the message path parses each frame's bytes at most once,
//! no matter how many hops (proxy, executor, switch, controller,
//! tracer) inspect it — and a `MODIFYMESSAGE` rewrite parses nothing.
//!
//! This file holds exactly one test because
//! [`frame_decode_count`](attain_openflow::frame_decode_count) is a
//! process-wide counter — a sibling test in the same binary would
//! perturb the delta.

use attain_controllers::ControllerKind;
use attain_core::scenario;
use attain_injector::harness::{build_case_study, try_attach_attack};
use attain_netsim::{FailMode, HostCommand, SimTime};
use attain_openflow::frame_decode_count;

/// Rewrites every PACKET_IN and PACKET_OUT (to the `in_port` it already
/// has), so under the hub nearly every control message is a rewritten
/// copy.
const REWRITE_ALL: &str = r#"
    attack rewrite_all {
        state s {
            rule r on all {
                when msg.type in [PACKET_IN, PACKET_OUT]
                do { modify(msg, "in_port", msg["in_port"]); }
            }
        }
    }
"#;

#[test]
fn interposed_sim_decodes_each_frame_at_most_once() {
    for (kind, attack) in [
        (ControllerKind::Floodlight, scenario::attacks::TRIVIAL_PASS),
        (ControllerKind::Hub, REWRITE_ALL),
    ] {
        let mut sim = build_case_study(kind, FailMode::Secure);
        try_attach_attack(&mut sim, attack).expect("the attack attaches");
        let h1 = sim.node_id("h1").expect("case study has h1");
        sim.schedule_command(
            SimTime::from_secs(1),
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.6".parse().expect("valid address"),
                count: 10,
                interval: SimTime::from_secs(1),
                label: "decode-count ping".into(),
            },
        );

        let before = frame_decode_count();
        sim.run_until(SimTime::from_secs(20));
        let decodes = frame_decode_count() - before;

        let msgs = sim.trace().control_message_total();
        assert!(msgs > 0, "workload produced no control-plane traffic");
        // At most one parse per message is the invariant. Almost every
        // frame in this pipeline comes from `Frame::from_message` (the
        // structured view travels with the bytes, zero parses), and so
        // does every rewritten copy; the only raw frames are the
        // byte-patched echo replies, and each of those is parsed once no
        // matter how many hops (tracer, executor, endpoint) inspect it —
        // so the total stays far below one decode per message.
        assert!(
            decodes <= msgs,
            "{kind:?}: message path decoded {decodes} times for {msgs} control messages"
        );
        assert!(
            decodes * 2 <= msgs,
            "{kind:?}: decode sharing broke: {decodes} decodes for {msgs} messages \
             (expected only the echo-reply fast-path frames to be parsed)"
        );
    }
}
