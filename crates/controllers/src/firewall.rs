//! The DMZ firewall policy module for the case-study switch `s2`.

use crate::learning::packet_out;
use crate::traits::{Controller, ControllerKind, Outbox};
use attain_openflow::packet::{self, EtherType};
use attain_openflow::{
    DatapathId, FlowKey, FlowMod, FlowModCommand, FlowModFlags, OfMessage, PacketIn, PortNo,
    SwitchFeatures,
};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The enterprise case study's DMZ isolation policy (paper §VII-A):
/// of the traffic entering the firewall switch from the external side,
/// the enterprise's own DMZ machines (the public web server) are
/// trusted to talk inward, while Internet traffic arriving through the
/// gateway may reach only the published destinations — everything else
/// toward the internal network is denied. This is the minimal policy
/// under which the paper's h1↔h6 workloads flow freely while
/// `h2 → internal` constitutes "unauthorized increased access"
/// (Table II).
///
/// ARP is always allowed — hosts must be able to resolve addresses for
/// the *permitted* flows, and the firewall filters at L3.
#[derive(Debug, Clone)]
pub struct DmzPolicy {
    /// The firewall switch's datapath id (`s2` in the case study).
    pub firewall_dpid: DatapathId,
    /// The firewall port facing the external segment.
    pub external_port: PortNo,
    /// External sources trusted to reach the internal network (the DMZ
    /// web server `h1`).
    pub trusted_sources: BTreeSet<Ipv4Addr>,
    /// Destinations untrusted external traffic may still reach.
    pub allowed_external_dsts: BTreeSet<Ipv4Addr>,
}

/// The policy's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Forward normally (delegate to the learning switch).
    Allow,
    /// Block, installing a deny flow entry.
    Deny,
}

impl DmzPolicy {
    /// Decides the policy verdict for a packet summarized by `key`
    /// arriving at switch `dpid`.
    pub(crate) fn decide(&self, dpid: DatapathId, key: &FlowKey) -> Verdict {
        if dpid != self.firewall_dpid || key.in_port != self.external_port {
            return Verdict::Allow;
        }
        if key.dl_type != EtherType::IPV4.0 {
            // ARP and other non-IP control traffic passes.
            return Verdict::Allow;
        }
        let src = Ipv4Addr::from(key.nw_src);
        if self.trusted_sources.contains(&src) {
            return Verdict::Allow;
        }
        let dst = Ipv4Addr::from(key.nw_dst);
        if self.allowed_external_dsts.contains(&dst) {
            Verdict::Allow
        } else {
            Verdict::Deny
        }
    }
}

/// A controller composed of a DMZ firewall in front of a learning switch.
///
/// On a denied packet, the firewall installs a **deny flow mod** (empty
/// action list) whose match is built in the inner controller's match
/// style — exactly the message the connection-interruption
/// attack's rule `φ2` waits for. Allowed packets are handed to the inner
/// learning switch untouched.
pub struct DmzFirewall {
    inner: Box<dyn Controller>,
    policy: DmzPolicy,
    deny_idle_timeout: u16,
}

impl std::fmt::Debug for DmzFirewall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmzFirewall")
            .field("inner", &self.inner.kind())
            .field("policy", &self.policy)
            .finish()
    }
}

impl DmzFirewall {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: Box<dyn Controller>, policy: DmzPolicy) -> DmzFirewall {
        DmzFirewall {
            inner,
            policy,
            deny_idle_timeout: 10,
        }
    }
}

impl Controller for DmzFirewall {
    fn kind(&self) -> ControllerKind {
        self.inner.kind()
    }

    fn on_switch_connect(&mut self, dpid: DatapathId, features: &SwitchFeatures, out: &mut Outbox) {
        self.inner.on_switch_connect(dpid, features, out);
    }

    fn on_packet_in(&mut self, dpid: DatapathId, pi: &PacketIn, out: &mut Outbox) {
        let key = packet::flow_key(&pi.data, pi.in_port);
        if self.policy.decide(dpid, &key) == Verdict::Deny {
            let profile = self.inner.kind().profile();
            // The deny entry outranks any learning-switch entry.
            out.send(
                dpid,
                OfMessage::FlowMod(FlowMod {
                    r#match: profile.style.build(&key),
                    cookie: 0xf14e_0000, // firewall app cookie
                    command: FlowModCommand::Add,
                    idle_timeout: self.deny_idle_timeout,
                    hard_timeout: 0,
                    priority: 0xf000,
                    buffer_id: pi.buffer_id,
                    out_port: PortNo::NONE,
                    flags: FlowModFlags::default(),
                    actions: vec![], // drop
                }),
            );
            // The (empty-action) flow mod releases the buffer; some
            // platforms' firewall apps also free it explicitly.
            if pi.buffer_id.is_some() && profile.firewall_packet_out {
                out.send(dpid, packet_out(pi, vec![]));
            }
            return;
        }
        self.inner.on_packet_in(dpid, pi, out);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: &OfMessage, out: &mut Outbox) {
        self.inner.on_message(dpid, msg, out);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId) {
        self.inner.on_switch_disconnect(dpid);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn processing_delay_us(&self) -> u64 {
        self.inner.processing_delay_us()
    }

    fn fork(&self) -> Option<Box<dyn Controller>> {
        Some(Box::new(DmzFirewall {
            inner: self.inner.fork()?,
            policy: self.policy.clone(),
            deny_idle_timeout: self.deny_idle_timeout,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::*;

    #[test]
    fn verdicts_follow_the_paper_policy() {
        let p = firewalled(ControllerKind::Hub).policy;
        let mk = |dpid: u64, in_port: u16, dl_type: u16, src: &str, dst: &str| {
            let key = FlowKey {
                in_port: PortNo(in_port),
                dl_type,
                nw_src: u32::from(src.parse::<Ipv4Addr>().unwrap()),
                nw_dst: u32::from(dst.parse::<Ipv4Addr>().unwrap()),
                ..FlowKey::default()
            };
            p.decide(DatapathId(dpid), &key)
        };
        // Gateway (Internet) → internal host: denied.
        assert_eq!(mk(2, 1, 0x0800, "10.0.0.2", "10.0.0.3"), Verdict::Deny);
        // Gateway → published web server: allowed.
        assert_eq!(mk(2, 1, 0x0800, "10.0.0.2", "10.0.0.1"), Verdict::Allow);
        // Trusted web server → internal host: allowed (the Fig. 11
        // h1↔h6 workload path).
        assert_eq!(mk(2, 1, 0x0800, "10.0.0.1", "10.0.0.6"), Verdict::Allow);
        // Internal side of the firewall: always allowed.
        assert_eq!(mk(2, 2, 0x0800, "10.0.0.2", "10.0.0.3"), Verdict::Allow);
        // Different switch: not the firewall's business.
        assert_eq!(mk(3, 1, 0x0800, "10.0.0.2", "10.0.0.3"), Verdict::Allow);
        // ARP through the external port: allowed.
        assert_eq!(mk(2, 1, 0x0806, "10.0.0.2", "10.0.0.3"), Verdict::Allow);
    }

    /// What the firewall in front of `kind` sends for gateway h2 →
    /// internal h5 arriving through the external port.
    fn denied(kind: ControllerKind, buffer: Option<u32>) -> Vec<Wire> {
        let pi = packet_in(2, 5, 1, buffer);
        wire(&pi, &reply(&mut firewalled(kind), &pi))
    }

    /// The firewall app's own 10 s deny entry, always carrying the buffer.
    fn deny(style: MatchStyle) -> Wire {
        flow(style, (10, 0), Some(3), None)
    }

    #[test]
    fn floodlight_deny_flow_mod_names_nw_src() {
        // φ2 can read nw_src from an L3-aware deny rule; the buffer is
        // freed by an explicit empty packet out.
        let sent = denied(ControllerKind::Floodlight, Some(3));
        assert_eq!(sent, [deny(L3Aware), out(Some(3), None)]);
    }

    #[test]
    fn pox_deny_flow_mod_names_nw_src_and_carries_buffer() {
        assert_eq!(denied(ControllerKind::Pox, Some(3)), [deny(FullExact)]);
    }

    #[test]
    fn ryu_deny_flow_mod_wildcards_nw_src() {
        // Ryu's L2-only match hides nw_src from φ2 — the paper's anomaly.
        let sent = denied(ControllerKind::Ryu, Some(3));
        assert_eq!(sent, [deny(L2Only), out(Some(3), None)]);
    }

    /// The deny entry is built in the wrapped application's match style —
    /// including under the hub, which builds none itself — and only POX's
    /// firewall leaves freeing the buffer to the flow mod.
    #[test]
    fn deny_entry_follows_the_wrapped_profile() {
        for kind in ControllerKind::CAMPAIGN {
            let sent = denied(kind, Some(3));
            let Wire::Flow { style, .. } = sent[0] else {
                panic!("{kind}: expected a deny flow mod, got {sent:?}");
            };
            assert_eq!(sent[0], deny(style), "{kind}");
            assert_eq!(style != L2Only, kind.flow_mod_exposes_nw_src(), "{kind}");
            let freed: &[Wire] = match kind {
                ControllerKind::Pox => &[],
                _ => &[out(Some(3), None)],
            };
            assert_eq!(sent[1..], *freed, "{kind}");
            // Nothing was buffered: the entry is all there is to send.
            assert_eq!(
                denied(kind, None),
                [flow(style, (10, 0), None, None)],
                "{kind}"
            );
        }
    }

    #[test]
    fn allowed_traffic_reaches_the_inner_learning_switch() {
        // h2 → published h1: no deny rule; inner Floodlight floods the
        // unknown destination.
        let pi = packet_in(2, 1, 1, Some(3));
        let sent = reply(&mut firewalled(ControllerKind::Floodlight), &pi);
        assert_eq!(wire(&pi, &sent), [out(Some(3), FLOOD)]);
    }

    #[test]
    fn internal_to_external_is_never_firewalled() {
        // Arrives on the internal port 2.
        let pi = packet_in(2, 99, 2, Some(3));
        let sent = reply(&mut firewalled(ControllerKind::Floodlight), &pi);
        assert_eq!(wire(&pi, &sent), [out(Some(3), FLOOD)]);
    }
}
