//! An OFTest-style compliance suite for the simulated switch (the paper
//! notes ATTAIN subsumes OFTest's methodology, §IX-A): a scripted
//! controller drives one switch through the OpenFlow 1.0 request/reply
//! surface and checks every answer.

use attain_controllers::{Controller, ControllerKind, Outbox};
use attain_netsim::{HostCommand, NetworkBuilder, SimTime, Simulation};
use attain_openflow::{
    Action, DatapathId, FlowMod, FlowModFlags, Match, OfMessage, PacketIn, PortNo, StatsBody,
    StatsReplyBody, SwitchConfig, SwitchFeatures,
};
use std::sync::{Arc, Mutex};

/// A controller that sends a fixed script once the switch connects and
/// records every message it gets back.
struct ScriptedController {
    script: Vec<OfMessage>,
    received: Arc<Mutex<Vec<OfMessage>>>,
    features: Arc<Mutex<Option<SwitchFeatures>>>,
}

impl Controller for ScriptedController {
    fn kind(&self) -> ControllerKind {
        ControllerKind::Floodlight // immaterial for the script
    }

    fn on_switch_connect(&mut self, dpid: DatapathId, features: &SwitchFeatures, out: &mut Outbox) {
        *self.features.lock().expect("lock") = Some(features.clone());
        for msg in &self.script {
            out.send(dpid, msg.clone());
        }
    }

    fn on_packet_in(&mut self, _dpid: DatapathId, pi: &PacketIn, _out: &mut Outbox) {
        self.received
            .lock()
            .expect("lock")
            .push(OfMessage::PacketIn(pi.clone()));
    }

    fn on_message(&mut self, _dpid: DatapathId, msg: &OfMessage, _out: &mut Outbox) {
        self.received.lock().expect("lock").push(msg.clone());
    }
}

struct Rig {
    sim: Simulation,
    received: Arc<Mutex<Vec<OfMessage>>>,
    features: Arc<Mutex<Option<SwitchFeatures>>>,
}

fn rig(script: Vec<OfMessage>) -> Rig {
    let received = Arc::new(Mutex::new(Vec::new()));
    let features = Arc::new(Mutex::new(None));
    let mut b = NetworkBuilder::new();
    let h1 = b.host("h1", "10.0.0.1");
    let h2 = b.host("h2", "10.0.0.2");
    let s1 = b.switch("s1");
    b.link(h1, s1);
    b.link(h2, s1);
    let c1 = b.controller(
        "c1",
        Box::new(ScriptedController {
            script,
            received: Arc::clone(&received),
            features: Arc::clone(&features),
        }),
    );
    b.control(c1, s1);
    Rig {
        sim: b.build(),
        received,
        features,
    }
}

#[test]
fn features_reply_describes_the_datapath() {
    let mut r = rig(vec![]);
    r.sim.run_until(SimTime::from_secs(3));
    let features = r.features.lock().expect("lock").clone().expect("connected");
    assert_eq!(features.datapath_id, DatapathId(1));
    assert_eq!(features.n_tables, 1);
    assert_eq!(features.n_buffers, 256);
    assert_eq!(features.ports.len(), 2);
    assert!(features.ports.iter().any(|p| p.port_no == PortNo(1)));
    assert!(features.ports.iter().any(|p| p.port_no == PortNo(2)));
}

#[test]
fn barrier_get_config_and_desc_stats_are_answered_in_order() {
    let mut r = rig(vec![
        OfMessage::GetConfigRequest,
        OfMessage::StatsRequest(StatsBody::Desc),
        OfMessage::BarrierRequest,
    ]);
    r.sim.run_until(SimTime::from_secs(3));
    let received = r.received.lock().expect("lock").clone();
    assert_eq!(received.len(), 3, "one reply per request: {received:?}");
    let OfMessage::GetConfigReply(cfg) = &received[0] else {
        panic!("expected config reply first, got {:?}", received[0]);
    };
    assert_eq!(*cfg, SwitchConfig::default());
    let OfMessage::StatsReply(StatsReplyBody::Desc(desc)) = &received[1] else {
        panic!("expected desc stats second, got {:?}", received[1]);
    };
    assert_eq!(desc.dp_desc, "s1");
    assert!(desc.sw_desc.contains("attain-netsim"));
    assert_eq!(received[2], OfMessage::BarrierReply);
}

#[test]
fn flow_stats_and_aggregate_stats_reflect_installed_flows() {
    let fm1 = FlowMod::add(
        Match::exact_in_port(PortNo(1)),
        vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
    );
    let fm2 = FlowMod::add(
        Match::exact_in_port(PortNo(2)),
        vec![Action::Output {
            port: PortNo(1),
            max_len: 0,
        }],
    );
    let mut r = rig(vec![
        OfMessage::FlowMod(fm1),
        OfMessage::FlowMod(fm2),
        OfMessage::StatsRequest(StatsBody::Flow {
            r#match: Match::all(),
            table_id: 0xff,
            out_port: PortNo::NONE,
        }),
        OfMessage::StatsRequest(StatsBody::Aggregate {
            r#match: Match::all(),
            table_id: 0xff,
            out_port: PortNo::NONE,
        }),
        OfMessage::StatsRequest(StatsBody::Table),
        // Restricted to entries that output to port 2: fm1 only.
        OfMessage::StatsRequest(StatsBody::Flow {
            r#match: Match::all(),
            table_id: 0xff,
            out_port: PortNo(2),
        }),
        OfMessage::StatsRequest(StatsBody::Aggregate {
            r#match: Match::all(),
            table_id: 0xff,
            out_port: PortNo(2),
        }),
    ]);
    r.sim.run_until(SimTime::from_secs(3));
    let received = r.received.lock().expect("lock").clone();
    let flows: Vec<_> = received
        .iter()
        .filter_map(|m| match m {
            OfMessage::StatsReply(StatsReplyBody::Flow(f)) => Some(f.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(flows.len(), 2, "two flow stats replies");
    assert_eq!(flows[0].len(), 2);
    assert_eq!(flows[1].len(), 1);
    assert_eq!(flows[1][0].r#match, Match::exact_in_port(PortNo(1)));
    let aggs: Vec<_> = received
        .iter()
        .filter_map(|m| match m {
            OfMessage::StatsReply(StatsReplyBody::Aggregate(a)) => Some(a.flow_count),
            _ => None,
        })
        .collect();
    assert_eq!(aggs, [2, 1]);
    let tables = received
        .iter()
        .find_map(|m| match m {
            OfMessage::StatsReply(StatsReplyBody::Table(t)) => Some(t.clone()),
            _ => None,
        })
        .expect("table stats reply");
    assert_eq!(tables[0].active_count, 2);
}

#[test]
fn send_flow_rem_yields_flow_removed_on_idle_expiry() {
    let mut fm = FlowMod::add(
        Match::exact_in_port(PortNo(1)),
        vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
    );
    fm.idle_timeout = 2;
    fm.flags = FlowModFlags(FlowModFlags::SEND_FLOW_REM);
    let mut r = rig(vec![OfMessage::FlowMod(fm)]);
    r.sim.run_until(SimTime::from_secs(10));
    let received = r.received.lock().expect("lock").clone();
    let removed = received
        .iter()
        .find_map(|m| match m {
            OfMessage::FlowRemoved(fr) => Some(fr.clone()),
            _ => None,
        })
        .expect("flow removed notification");
    assert_eq!(
        removed.reason,
        attain_openflow::FlowRemovedReason::IdleTimeout
    );
    assert_eq!(removed.idle_timeout, 2);
}

#[test]
fn check_overlap_rejection_reaches_the_controller() {
    let base = FlowMod::add(
        Match::exact_in_port(PortNo(1)),
        vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
    );
    let mut overlapping = FlowMod::add(
        Match::all(),
        vec![Action::Output {
            port: PortNo(2),
            max_len: 0,
        }],
    );
    overlapping.priority = base.priority;
    overlapping.flags = FlowModFlags(FlowModFlags::CHECK_OVERLAP);
    let mut r = rig(vec![
        OfMessage::FlowMod(base),
        OfMessage::FlowMod(overlapping),
    ]);
    r.sim.run_until(SimTime::from_secs(3));
    let received = r.received.lock().expect("lock").clone();
    let err = received
        .iter()
        .find_map(|m| match m {
            OfMessage::Error(e) => Some(e.clone()),
            _ => None,
        })
        .expect("overlap error");
    assert_eq!(err.error_type, attain_openflow::ErrorType::FlowModFailed);
    assert_eq!(err.code, attain_openflow::flow_mod_failed::OVERLAP);
}

#[test]
fn packet_out_to_controller_action_comes_back_as_packet_in() {
    // An OUTPUT:CONTROLLER flow turns data traffic into PACKET_INs with
    // reason ACTION — the monitoring primitive the paper's injector
    // builds on.
    let fm = FlowMod::add(
        Match::exact_in_port(PortNo(1)),
        vec![
            Action::Output {
                port: PortNo(2),
                max_len: 0,
            },
            Action::Output {
                port: PortNo::CONTROLLER,
                max_len: 64,
            },
        ],
    );
    // The scripted controller never forwards, so the reverse path needs
    // its own pre-installed flow.
    let reverse = FlowMod::add(
        Match::exact_in_port(PortNo(2)),
        vec![Action::Output {
            port: PortNo(1),
            max_len: 0,
        }],
    );
    let mut r = rig(vec![OfMessage::FlowMod(fm), OfMessage::FlowMod(reverse)]);
    let h1 = r.sim.node_id("h1").expect("h1 exists");
    r.sim.schedule_command(
        SimTime::from_secs(2),
        HostCommand::Ping {
            host: h1,
            dst: "10.0.0.2".parse().expect("valid"),
            count: 3,
            interval: SimTime::from_secs(1),
            label: "probe".into(),
        },
    );
    r.sim.run_until(SimTime::from_secs(10));
    let received = r.received.lock().expect("lock").clone();
    let mirrored: Vec<&PacketIn> = received
        .iter()
        .filter_map(|m| match m {
            OfMessage::PacketIn(pi) if pi.reason == attain_openflow::PacketInReason::Action => {
                Some(pi)
            }
            _ => None,
        })
        .collect();
    assert!(
        !mirrored.is_empty(),
        "OUTPUT:CONTROLLER must mirror traffic: {received:?}"
    );
    // max_len truncation is honored.
    assert!(mirrored.iter().all(|pi| pi.data.len() <= 64));
    // The ping still went through (the flow also outputs to port 2), so
    // replies flow (reply direction misses and is flooded by NoMatch
    // packet-ins — also visible to the controller).
    assert_eq!(r.sim.ping_stats()[0].received(), 3);
}
