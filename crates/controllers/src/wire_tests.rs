// Wire-level tests of the learning switch (and, in `wire`, the helpers the
// firewall's tests share), `include!`d at the crate root by lib.rs. A row
// is `name: scenario, buffer => expected messages`; the expectations
// restate the profile table on purpose — they are the reference the rows
// in `learning.rs` are checked against.

mod wire {
    pub(crate) use crate::learning::MatchStyle::{self, FullExact, L2Only, L3Aware};
    pub(crate) use crate::{Controller, ControllerKind, DmzFirewall, DmzPolicy, Outbox};
    pub(crate) use attain_openflow::{
        packet, Action, DatapathId, MacAddr, OfMessage, PacketIn, PortNo,
    };
    use attain_openflow::{packet::Ethernet, PacketInReason};

    /// The switch every scenario plays on: the DMZ firewall's own, so the
    /// same packets exercise a wrapped application's allow path.
    pub(crate) const DPID: DatapathId = DatapathId(2);

    /// `kind` behind the case study's policy: of what enters [`DPID`] on
    /// port 1, h1 is trusted and only h1 and h2 may be reached.
    pub(crate) fn firewalled(kind: ControllerKind) -> DmzFirewall {
        let policy = DmzPolicy {
            firewall_dpid: DPID,
            external_port: PortNo(1),
            trusted_sources: [[10, 0, 0, 1].into()].into_iter().collect(),
            allowed_external_dsts: [[10, 0, 0, 1].into(), [10, 0, 0, 2].into()]
                .into_iter()
                .collect(),
        };
        DmzFirewall::new(kind.instantiate(), policy)
    }

    /// A `PACKET_IN` position relative to what the application has learned.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Scenario {
        /// h1 (port 1) → h2, after h2 was seen on port 2.
        Known,
        /// h1 → h2 with nothing learned.
        Unknown,
        /// h1's broadcast ARP request.
        Multicast,
        /// h1 (port 1) → h2, after h2 was seen on port 1 too.
        Hairpin,
    }
    pub(crate) use Scenario::*;

    fn wrap(frame: Ethernet, in_port: u16, buffer_id: Option<u32>) -> PacketIn {
        PacketIn {
            buffer_id,
            total_len: frame.wire_len() as u16,
            in_port: PortNo(in_port),
            reason: PacketInReason::NoMatch,
            data: frame.encode(),
        }
    }

    /// An ICMP echo `10.0.0.src → 10.0.0.dst` arriving on `in_port`.
    pub(crate) fn packet_in(src: u8, dst: u8, in_port: u16, buffer_id: Option<u32>) -> PacketIn {
        let frame = packet::icmp_echo_request(
            MacAddr::from_low(src.into()),
            MacAddr::from_low(dst.into()),
            [10, 0, 0, src].into(),
            [10, 0, 0, dst].into(),
            1,
            1,
            vec![0; 16],
        );
        wrap(frame, in_port, buffer_id)
    }

    /// What `app` sends for one `PACKET_IN`.
    pub(crate) fn reply(app: &mut dyn Controller, pi: &PacketIn) -> Vec<OfMessage> {
        let mut out = Outbox::new();
        app.on_packet_in(DPID, pi, &mut out);
        out.drain()
            .into_iter()
            .map(|(dpid, msg)| {
                assert_eq!(dpid, DPID, "replies go to the switch that asked");
                msg
            })
            .collect()
    }

    /// The scenario's probe packet.
    pub(crate) fn probe(scenario: Scenario, buffer_id: Option<u32>) -> PacketIn {
        match scenario {
            Multicast => {
                let arp = packet::arp_request(
                    MacAddr::from_low(1),
                    [10, 0, 0, 1].into(),
                    [10, 0, 0, 2].into(),
                );
                wrap(arp, 1, buffer_id)
            }
            _ => packet_in(1, 2, 1, buffer_id),
        }
    }

    /// Teaches `app` what the scenario presumes, then returns its reply to
    /// the probe.
    pub(crate) fn drive(
        app: &mut dyn Controller,
        scenario: Scenario,
        buffer_id: Option<u32>,
    ) -> Vec<OfMessage> {
        match scenario {
            Known => drop(reply(app, &packet_in(2, 1, 2, None))),
            Hairpin => drop(reply(app, &packet_in(2, 1, 1, None))),
            Unknown | Multicast => {}
        }
        reply(app, &probe(scenario, buffer_id))
    }

    /// A message reduced to the columns the table is about.
    #[derive(Debug, PartialEq)]
    pub(crate) enum Wire {
        /// A `FLOW_MOD`; `to: None` is a drop entry.
        Flow {
            style: MatchStyle,
            idle: u16,
            hard: u16,
            buffer: Option<u32>,
            to: Option<PortNo>,
        },
        /// A `PACKET_OUT`; `to: None` only frees the buffer.
        Out {
            buffer: Option<u32>,
            data: bool,
            to: Option<PortNo>,
        },
    }

    impl Wire {
        pub(crate) fn buffer(&self) -> Option<u32> {
            match self {
                Wire::Flow { buffer, .. } | Wire::Out { buffer, .. } => *buffer,
            }
        }
    }

    fn output_port(actions: &[Action]) -> Option<PortNo> {
        match actions {
            [] => None,
            [Action::Output { port, max_len: 0 }] => Some(*port),
            other => panic!("unexpected action list {other:?}"),
        }
    }

    /// Summarizes the reply to `pi`.
    pub(crate) fn wire(pi: &PacketIn, msgs: &[OfMessage]) -> Vec<Wire> {
        let key = packet::flow_key(&pi.data, pi.in_port);
        msgs.iter()
            .map(|msg| match msg {
                OfMessage::FlowMod(fm) => Wire::Flow {
                    style: [L3Aware, FullExact, L2Only]
                        .into_iter()
                        .find(|style| style.build(&key) == fm.r#match)
                        .expect("the match is one of the three styles, built from the packet"),
                    idle: fm.idle_timeout,
                    hard: fm.hard_timeout,
                    buffer: fm.buffer_id,
                    to: output_port(&fm.actions),
                },
                OfMessage::PacketOut(po) => {
                    assert_eq!(po.in_port, pi.in_port);
                    assert!(po.data.is_empty() || po.data == pi.data);
                    Wire::Out {
                        buffer: po.buffer_id,
                        data: !po.data.is_empty(),
                        to: output_port(&po.actions),
                    }
                }
                other => panic!("a learning switch sent {other:?}"),
            })
            .collect()
    }

    /// A `FLOW_MOD` with these columns; the pair is idle / hard timeout.
    pub(crate) fn flow(
        style: MatchStyle,
        (idle, hard): (u16, u16),
        buffer: Option<u32>,
        to: Option<PortNo>,
    ) -> Wire {
        Wire::Flow {
            style,
            idle,
            hard,
            buffer,
            to,
        }
    }

    /// A `PACKET_OUT` naming `buffer`, or carrying the data when `None`.
    pub(crate) fn out(buffer: Option<u32>, to: Option<PortNo>) -> Wire {
        Wire::Out {
            buffer,
            data: buffer.is_none(),
            to,
        }
    }

    pub(crate) const FLOOD: Option<PortNo> = Some(PortNo::FLOOD);
    pub(crate) const P1: Option<PortNo> = Some(PortNo(1));
    pub(crate) const P2: Option<PortNo> = Some(PortNo(2));

    /// One `#[test]` per row, against the enclosing module's `KIND`.
    macro_rules! rows {
        ($($name:ident: $scenario:expr, $buffer:expr => $expected:expr;)*) => {$(
            #[test]
            fn $name() {
                let sent = drive(&mut *KIND.instantiate(), $scenario, $buffer);
                assert_eq!(wire(&probe($scenario, $buffer), &sent), $expected);
            }
        )*};
    }
    pub(crate) use rows;
}

mod floodlight {
    mod tests {
        use crate::wire::*;
        const KIND: ControllerKind = ControllerKind::Floodlight;

        // L3-aware (nw_src exposed), 5 s idle, never a buffer on the flow mod.
        rows! {
            unknown_destination_floods: Unknown, Some(7) => [out(Some(7), FLOOD)];
            known_destination_installs_flow_and_separate_packet_out:
                Known, Some(9) => [flow(L3Aware, (5, 0), None, P2), out(Some(9), P2)];
            unbuffered_known_destination_resends_the_data:
                Known, None => [flow(L3Aware, (5, 0), None, P2), out(None, P2)];
            hairpin_destination_releases_buffer_without_forwarding:
                Hairpin, Some(3) => [out(Some(3), None)];
            broadcast_always_floods_even_after_learning: Multicast, None => [out(None, FLOOD)];
        }

        #[test]
        fn disconnect_forgets_learned_macs() {
            let mut c = KIND.instantiate();
            drive(&mut *c, Known, None);
            c.on_switch_disconnect(DPID);
            // Floods again: h2 is no longer known.
            let sent = reply(&mut *c, &probe(Unknown, None));
            assert_eq!(wire(&probe(Unknown, None), &sent), [out(None, FLOOD)]);
        }
    }
}

mod pox {
    mod tests {
        use crate::wire::*;
        const KIND: ControllerKind = ControllerKind::Pox;

        // Exact 12-tuple, 10 s / 30 s, the buffer on the flow mod.
        rows! {
            // Exactly one message: the flow mod releases the buffer itself.
            known_destination_attaches_buffer_to_flow_mod:
                Known, Some(11) => [flow(FullExact, (10, 30), Some(11), P2)];
            unbuffered_packet_in_gets_companion_packet_out:
                Known, None => [flow(FullExact, (10, 30), None, P2), out(None, P2)];
            unknown_destination_floods_via_packet_out: Unknown, Some(4) => [out(Some(4), FLOOD)];
            hairpin_installs_drop_flow:
                Hairpin, Some(8) => [flow(FullExact, (10, 30), Some(8), None)];
        }
    }
}

mod ryu {
    mod tests {
        use crate::wire::*;
        const KIND: ControllerKind = ControllerKind::Ryu;

        // The φ2-defeating behaviours: nw fields wildcarded, no timeouts,
        // and the buffer released by the packet out, not the flow mod.
        rows! {
            known_destination_sends_flow_mod_and_packet_out:
                Known, Some(5) => [flow(L2Only, (0, 0), None, P2), out(Some(5), P2)];
            unknown_destination_floods_without_flow_mod: Unknown, Some(2) => [out(Some(2), FLOOD)];
            unbuffered_packet_out_carries_raw_data: Unknown, None => [out(None, FLOOD)];
            // simple_switch has no same-port case.
            hairpin_installs_and_forwards_back_out:
                Hairpin, Some(6) => [flow(L2Only, (0, 0), None, P1), out(Some(6), P1)];
        }
    }
}

mod beacon {
    mod tests {
        use crate::wire::*;
        const KIND: ControllerKind = ControllerKind::Beacon;

        // POX's match and buffer release with Floodlight's timeout.
        rows! {
            known_destination_attaches_buffer_to_exact_match_flow_mod:
                Known, Some(5) => [flow(FullExact, (5, 0), Some(5), P2)];
            unbuffered_packet_in_gets_companion_packet_out:
                Known, None => [flow(FullExact, (5, 0), None, P2), out(None, P2)];
            unknown_destination_floods: Unknown, Some(3) => [out(Some(3), FLOOD)];
            hairpin_floods: Hairpin, Some(4) => [out(Some(4), FLOOD)];
        }

        #[test]
        fn reset_forgets_everything() {
            let mut c = KIND.instantiate();
            drive(&mut *c, Known, None);
            c.reset();
            let sent = reply(&mut *c, &probe(Unknown, None));
            assert_eq!(wire(&probe(Unknown, None), &sent), [out(None, FLOOD)]);
        }
    }
}

mod hub {
    mod tests {
        use crate::wire::*;

        #[test]
        fn every_packet_floods_and_none_installs_flows() {
            let mut c = ControllerKind::Hub.instantiate();
            for scenario in [Known, Unknown, Multicast, Hairpin] {
                for buffer in [Some(1), None] {
                    let sent = drive(&mut *c, scenario, buffer);
                    assert_eq!(wire(&probe(scenario, buffer), &sent), [out(buffer, FLOOD)]);
                }
            }
        }
    }
}

mod fingerprint {
    use crate::wire::*;

    /// The predicates the campaign oracle is derived from describe what
    /// the applications put on the wire — bare, and behind the firewall
    /// (whose policy allows every scenario packet, so they reach the
    /// wrapped application).
    #[test]
    fn wire_agrees_with_every_predicate() {
        for kind in ControllerKind::CAMPAIGN {
            for wrapped in [false, true] {
                for scenario in [Known, Unknown, Multicast, Hairpin] {
                    for buffer in [Some(7), None] {
                        check(kind, wrapped, scenario, buffer);
                    }
                }
            }
        }
    }

    fn check(kind: ControllerKind, wrapped: bool, scenario: Scenario, buffer: Option<u32>) {
        let mut app = match wrapped {
            true => Box::new(firewalled(kind)),
            false => kind.instantiate(),
        };
        let sent = drive(&mut *app, scenario, buffer);
        let case = format!("{kind} wrapped={wrapped} {scenario:?} {buffer:?}: {sent:?}");

        let flows: Vec<_> = sent
            .iter()
            .filter_map(|m| match m {
                OfMessage::FlowMod(fm) => Some(fm),
                _ => None,
            })
            .collect();
        if scenario == Known {
            assert_eq!(!flows.is_empty(), kind.installs_flows(), "{case}");
        }
        assert!(flows.is_empty() || kind.installs_flows(), "{case}");
        for fm in flows {
            if buffer.is_some() {
                assert_eq!(
                    fm.buffer_id.is_some(),
                    kind.releases_buffer_via_flow_mod(),
                    "{case}"
                );
            }
            assert_eq!(
                fm.r#match.nw_src_addr().is_some(),
                kind.flow_mod_exposes_nw_src(),
                "{case}"
            );
            assert_eq!(
                fm.idle_timeout == 0 && fm.hard_timeout == 0,
                kind.installs_permanent_flows(),
                "{case}"
            );
        }
        // Whichever message carries it, a buffer is named exactly once.
        let named = wire(&probe(scenario, buffer), &sent)
            .iter()
            .filter(|w| w.buffer().is_some())
            .count();
        assert_eq!(named, usize::from(buffer.is_some()), "{case}");
    }
}
