//! The campaign's two oracles.
//!
//! **Differential oracle** — every attacked cell is diffed against a
//! same-seed, same-topology baseline run (no interposer) and classified
//! by the strongest observable deviation:
//!
//! * [`Observed::Denial`] — the primary workload lost *every* packet;
//! * [`Observed::Degraded`] — some ping run delivered a different
//!   packet count (including *more*: unauthorized access is a
//!   deviation too) or latency at least doubled;
//! * [`Observed::ControlPlane`] — the data plane matched but the
//!   control-plane trace (digest or counters) did not;
//! * [`Observed::Silent`] — byte-identical trace: the attack left no
//!   observable footprint at the proxy.
//!
//! The classification is compared against `expected`, the campaign's
//! expectations table. The table is *derived* from the controllers'
//! behavioural predicates (`releases_buffer_via_flow_mod`,
//! `flow_mod_exposes_nw_src`, `installs_flows`,
//! `installs_permanent_flows`) rather than hard-coded per cell, and
//! each predicate reads the same profile row the controller
//! application runs on — so a changed timeout or match style moves the
//! expectation with the behaviour, and adding a controller row extends
//! the table automatically. This is the paper's §VII analysis
//! (suppression → DoS only where the buffer rides the FLOW_MOD;
//! interruption → never triggers where matches hide `nw_src`) written
//! as executable rules.
//!
//! **Golden-trace oracle** — each cell's trace digest is pinned under
//! `tests/golden/campaign/`, failing `cargo test` on semantic drift;
//! see the `report` module and `tests/campaign_conformance.rs`.

use crate::runner::CellStatus;
use attain_controllers::ControllerKind;
use attain_injector::RunRecord;
use attain_netsim::FailMode;
use std::fmt;

/// What the differential oracle observed, weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Observed {
    /// No deviation at all from the baseline run.
    Silent,
    /// Control-plane trace deviates; data plane unaffected.
    ControlPlane,
    /// Data-plane service deviates (loss, gain, or ≥2× latency).
    Degraded,
    /// The primary workload was entirely denied.
    Denial,
}

impl Observed {
    /// Stable lower-case name used in reports and golden files.
    pub fn slug(&self) -> &'static str {
        match self {
            Observed::Silent => "silent",
            Observed::ControlPlane => "control-plane",
            Observed::Degraded => "degraded",
            Observed::Denial => "denial",
        }
    }
}

impl fmt::Display for Observed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Classifies an attacked run against its same-seed baseline.
fn classify(attacked: &RunRecord, baseline: &RunRecord) -> Observed {
    // Primary workload: the `w*` windows (h1→h6 / web→db). The trigger
    // and probe runs are deviation evidence but not "the service".
    let primary = |o: &RunRecord| -> (u32, u32) {
        o.pings
            .iter()
            .filter(|p| p.label.starts_with('w'))
            .fold((0, 0), |(tx, rx), p| (tx + p.transmitted, rx + p.received))
    };
    let (base_tx, base_rx) = primary(baseline);
    let (_, att_rx) = primary(attacked);
    if base_tx > 0 && base_rx > 0 && att_rx == 0 {
        return Observed::Denial;
    }

    let mut degraded = false;
    for b in &baseline.pings {
        let Some(a) = attacked.pings.iter().find(|p| p.label == b.label) else {
            degraded = true;
            continue;
        };
        if a.received != b.received {
            degraded = true;
        }
        // Latency counts as degradation only when it at least doubles
        // AND grows by >1 ms, so controller-path noise near zero does
        // not flap the verdict.
        if let (Some(ar), Some(br)) = (a.avg_rtt_ms, b.avg_rtt_ms) {
            if ar > 2.0 * br && ar - br > 1.0 {
                degraded = true;
            }
        }
    }
    if degraded {
        return Observed::Degraded;
    }

    let control_differs = attacked.digest != baseline.digest
        || attacked.packet_ins != baseline.packet_ins
        || attacked.flow_mods != baseline.flow_mods
        || attacked.control_total != baseline.control_total;
    if control_differs {
        return Observed::ControlPlane;
    }
    Observed::Silent
}

/// Judges a supervised cell: classifies when both the attacked run and
/// its baseline completed, `None` (*Unjudged*) otherwise. An incomplete
/// cell carries no outcome, so there is nothing sound to diff — the
/// report annotates the status instead of guessing a verdict.
pub fn judge(attacked: &CellStatus, baseline: &CellStatus) -> Option<Observed> {
    match (attacked.outcome(), baseline.outcome()) {
        (Some(a), Some(b)) => Some(classify(a, b)),
        _ => None,
    }
}

use Observed::{ControlPlane, Degraded, Denial, Silent};

/// The attack whose cells the fingerprint-accuracy arm scores.
pub const FINGERPRINT_ATTACK: &str = "fingerprint_then_attack";

/// The controller the fingerprinting attack claims to have identified:
/// its payload states follow the `attack_<controller-slug>` naming
/// convention, so a completed cell's final state *is* the prediction.
/// `None` when the run never left `watch` (no classification) or ended
/// in a state outside the convention.
pub fn fingerprint_prediction(outcome: &RunRecord) -> Option<ControllerKind> {
    outcome
        .final_state
        .as_deref()?
        .strip_prefix("attack_")
        .and_then(ControllerKind::from_slug)
}

/// The expectations table: which classifications are acceptable for
/// `(attack, controller, fail_mode)`, across every seed.
///
/// Every entry is a singleton: across the whole matrix the outcome is
/// structurally forced by the controller's behavioural traits, and the
/// campaign empirically confirms the same class for every seed. The
/// `fail_mode` axis changes *how* a class manifests (fail-safe turns
/// the interruption into unauthorized access, fail-secure into a DoS
/// on legitimate traffic — both Degraded) but never the class itself,
/// which the table makes explicit by ignoring it.
pub(crate) fn expected(
    attack: &str,
    kind: ControllerKind,
    _fail_mode: FailMode,
) -> &'static [Observed] {
    match attack {
        // The Figure 5 no-op: pass-through interposition is
        // timing-transparent, so the diff against the interposer-free
        // baseline must vanish entirely.
        "trivial_pass" => &[Silent],

        // Unconditional suppression (Figure 10's σ1) and the Figure 6
        // history machine — which, once it has seen a PACKET_IN
        // followed by a FLOW_MOD, also drops every further FLOW_MOD.
        // Both kill (nearly) all installs, so the §VII Figure 11 split
        // applies to each.
        "flow_mod_suppression" | "message_history" => {
            if kind.releases_buffer_via_flow_mod() {
                // POX/Beacon release the buffered packet only via the
                // suppressed FLOW_MOD: full data-plane deadlock.
                &[Denial]
            } else if kind.installs_flows() {
                // Floodlight/Ryu keep forwarding via PACKET_OUT at
                // controller speed: service survives, slower.
                &[Degraded]
            } else {
                // Hub's data plane never depended on flows; only the
                // DMZ firewall's deny entries are suppressed, which
                // opens nothing but keeps the misses coming.
                &[ControlPlane]
            }
        }

        // Suppression arming only after the 10th FLOW_MOD: what is
        // left to suppress depends on what each application still
        // needs from the control plane by then.
        "counted_suppression" => {
            if kind.releases_buffer_via_flow_mod() {
                // The threshold trips mid-workload; from then on POX/
                // Beacon deadlock exactly as under full suppression.
                &[Denial]
            } else if !kind.installs_flows() {
                // Hub: the only FLOW_MODs ever sent are the firewall's
                // few deny entries — the counter never reaches 10 and
                // the attack never arms.
                &[Silent]
            } else if kind.installs_permanent_flows() {
                // Ryu's first installs are permanent, so the workload
                // rides them untouched; only the firewall's later deny
                // re-installs get eaten.
                &[ControlPlane]
            } else {
                // Floodlight's 5 s idle timeouts force re-installs
                // after the threshold: service survives via
                // PACKET_OUT, degraded.
                &[Degraded]
            }
        }

        // §VII-C: the trigger φ2 reads `nw_src` from the firewall's
        // deny FLOW_MOD, which only exists where the match style
        // exposes it — the paper's Ryu anomaly, inherited by Hub.
        // Where it arms, severing (c1,s2) is a data-plane deviation
        // either way: fail-safe hands s2 to standalone forwarding
        // (the h2→h3 probe *gains* packets — unauthorized access),
        // fail-secure locks the DMZ down (the late h1→h6 window loses
        // them — DoS against legitimate traffic).
        "connection_interruption" => {
            if kind.flow_mod_exposes_nw_src() {
                &[Degraded]
            } else {
                &[Silent]
            }
        }

        // Holding the first two PACKET_INs until a third arrives
        // stalls ARP/first-flight resolution long enough to cost
        // data-plane packets under every application.
        "reorder_packet_ins" => &[Degraded],

        // Replayed FLOW_MODs are idempotent against the flow table but
        // the duplicates shift expiry bookkeeping and elicit extra
        // control traffic; the data plane never notices.
        "replay_flow_mods" => &[ControlPlane],

        // Corrupting every 10th controller-bound message loses enough
        // PACKET_INs/installs to drop pings everywhere — even the hub
        // floods via the controller path on every packet.
        "fuzz_control_plane" => &[Degraded],

        // The demo's engage guard needs a FLOW_MOD with
        // `idle_timeout > 0` on (c1,s2): Ryu's are timeout-free and
        // Hub sends none, so against them the attack never leaves its
        // read-only `observe` state. Elsewhere it shrinks the timeout
        // and delays (c1,s2), degrading the second window.
        "self_contained_demo" => {
            if kind.installs_flows() && !kind.installs_permanent_flows() {
                &[Degraded]
            } else {
                &[Silent]
            }
        }

        // Overflow family: phantom-port PACKET_IN corruption arms after
        // two installs on the bounded s4 and then poisons every miss —
        // junk entries (matching ports that do not exist) crowd the
        // eight-entry table and the controller learns hosts at phantom
        // ports, black-holing its PACKET_OUTs. Hub never installs, so
        // the watch counter never reaches two; Ryu's permanent flows
        // absorb the workload before the attack arms, so no further
        // PACKET_IN from s4 ever reaches the corruptor. Every
        // timeout-driven application keeps re-missing into poisoned
        // state: service survives off-path but the h1→h6 windows lose
        // packets.
        "table_overflow" => {
            if !kind.installs_flows() || kind.installs_permanent_flows() {
                &[Silent]
            } else {
                &[Degraded]
            }
        }

        // Timing fingerprint, then the identified application's worst
        // payload. The per-application payloads all manifest on the
        // data plane except against Ryu: its permanent flows carry the
        // workload even after the s1 control channel is severed, so
        // only the control-plane trace deviates.
        FINGERPRINT_ATTACK => {
            if kind.installs_permanent_flows() {
                &[ControlPlane]
            } else {
                &[Degraded]
            }
        }

        // Unknown attack (a future .atk file without a table entry):
        // accept anything rather than fail spuriously; the golden
        // digests still pin its exact behaviour.
        _ => &[Silent, ControlPlane, Degraded, Denial],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_injector::PingRow;
    use attain_netsim::TraceDigest;

    fn outcome(pings: Vec<PingRow>, digest: u64) -> RunRecord {
        RunRecord {
            digest: TraceDigest(digest),
            events: 100,
            packet_ins: 10,
            flow_mods: 4,
            control_total: 30,
            frames_dropped: 0,
            pings,
            iperfs: Vec::new(),
            final_state: None,
            rule_fires: Vec::new(),
            faults: None,
            wall_ms: 0,
        }
    }

    fn row(label: &str, rx: u32) -> PingRow {
        PingRow {
            label: label.into(),
            transmitted: 8,
            received: rx,
            avg_rtt_ms: (rx > 0).then_some(1.0),
        }
    }

    #[test]
    fn classification_ladder() {
        let base = outcome(vec![row("w1", 8), row("trigger", 0)], 1);
        assert_eq!(classify(&base.clone(), &base), Silent);

        let mut cp = base.clone();
        cp.digest = TraceDigest(2);
        assert_eq!(classify(&cp, &base), ControlPlane);

        let deg = outcome(vec![row("w1", 5), row("trigger", 0)], 2);
        assert_eq!(classify(&deg, &base), Degraded);

        // Gaining packets (unauthorized access) is degradation too.
        let gain = outcome(vec![row("w1", 8), row("trigger", 6)], 2);
        assert_eq!(classify(&gain, &base), Degraded);

        let dead = outcome(vec![row("w1", 0), row("trigger", 0)], 3);
        assert_eq!(classify(&dead, &base), Denial);
    }

    #[test]
    fn latency_doubling_is_degradation() {
        let mut base = outcome(vec![row("w1", 8)], 1);
        base.pings[0].avg_rtt_ms = Some(2.0);
        let mut slow = base.clone();
        slow.digest = TraceDigest(9);
        slow.pings[0].avg_rtt_ms = Some(6.5);
        assert_eq!(classify(&slow, &base), Degraded);
        // Sub-millisecond wobble is not.
        slow.pings[0].avg_rtt_ms = Some(2.8);
        assert_eq!(classify(&slow, &base), ControlPlane);
    }

    #[test]
    fn expectations_encode_the_papers_findings() {
        use attain_netsim::FailMode::Secure;
        // Figure 11: suppression is a DoS exactly where the buffer
        // rides the FLOW_MOD.
        assert_eq!(
            expected("flow_mod_suppression", ControllerKind::Pox, Secure),
            &[Denial]
        );
        assert_eq!(
            expected("flow_mod_suppression", ControllerKind::Ryu, Secure),
            &[Degraded]
        );
        // Overflow family: the poisoning bites exactly where flows
        // expire and get re-installed; permanent flows (Ryu) and
        // flowless forwarding (Hub) never feed the corruptor.
        assert_eq!(
            expected("table_overflow", ControllerKind::Floodlight, Secure),
            &[Degraded]
        );
        assert_eq!(
            expected("table_overflow", ControllerKind::Ryu, Secure),
            &[Silent]
        );
        assert_eq!(
            expected("table_overflow", ControllerKind::Hub, Secure),
            &[Silent]
        );
        // Table II: Ryu (and Hub) never arm the interruption.
        assert_eq!(
            expected("connection_interruption", ControllerKind::Ryu, Secure),
            &[Silent]
        );
        assert!(
            expected("connection_interruption", ControllerKind::Beacon, Secure).contains(&Degraded)
        );
    }
}
