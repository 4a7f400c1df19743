//! Layer drives: each function times one layer of the program in
//! isolation through its public interface, on inputs shaped like the
//! workload's own (a captured frame stream, the measured queue depth, a
//! copy of a switch's table). A traced run records each as one
//! `replay.<layer>` span.

use crate::alloc;
use crate::shims::TappedFrame;
use crate::stats;
use attain::core::dsl;
use attain::core::exec::{AttackExecutor, InjectorInput};
use attain::core::model::{ConnectionId, NodeRef, SystemModel};
use attain::core::scenario;
use attain::netsim::engine::{EventKind, EventQueue, NodeId, TimerToken};
use attain::netsim::{
    ConnId, Direction, EvictionPolicy, FlowEntry, FlowTable, SchedulerConfig, SimTime, Simulation,
    Trace, TraceKind, TraceMode,
};
use attain::openflow::{FlowKey, FlowMod, MacAddr, Match, OfMessage, OfType};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long one layer drive measures.
const DRIVE: Duration = Duration::from_millis(200);

/// Median nanoseconds per operation: `batch` runs `ops` operations, is
/// repeated until [`DRIVE`] has passed (at least five times), and the
/// median batch is reported.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy state
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 5 || begun.elapsed() < DRIVE {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    stats::median(&samples)
}

/// `openflow` codec: decode and encode cost per message of `frames`.
pub fn codec_ns(frames: &[TappedFrame]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let decode = ns_per_op(frames.len(), || {
        for f in frames {
            black_box(OfMessage::decode(black_box(f.frame.bytes())).ok());
        }
    });
    let decoded: Vec<_> = frames
        .iter()
        .filter_map(|f| OfMessage::decode(f.frame.bytes()).ok())
        .collect();
    let encode = ns_per_op(decoded.len().max(1), || {
        for (msg, xid) in &decoded {
            black_box(black_box(msg).encode(*xid));
        }
    });
    (decode, encode)
}

/// The simulator connection behind each attack-model connection, by
/// component name (the mapping `SimInjector` builds for itself).
pub fn conn_map(sim: &Simulation, system: &SystemModel) -> HashMap<ConnId, ConnectionId> {
    let infos = sim.conn_infos();
    system
        .connections()
        .filter_map(|(id, c, s)| {
            let (c, s) = (
                system.name_of(NodeRef::Controller(c)),
                system.name_of(NodeRef::Switch(s)),
            );
            let info = infos.iter().find(|i| i.controller == c && i.switch == s)?;
            Some((info.id, id))
        })
        .collect()
}

/// A fresh executor for `attack_source` on the enterprise scenario.
pub fn enterprise_executor(attack_source: &str) -> AttackExecutor {
    let sc = scenario::enterprise_network();
    let compiled =
        dsl::compile(attack_source, &sc.system, &sc.attack_model).expect("shipped attacks compile");
    AttackExecutor::new(sc.system, sc.attack_model, compiled.attack)
        .expect("shipped attacks validate")
}

/// `core.exec`: cost and allocations per message of replaying `inputs`
/// into fresh executors for `attack_source`.
pub fn exec_replay(attack_source: &str, inputs: &[InjectorInput]) -> (f64, f64) {
    if inputs.is_empty() {
        return (0.0, 0.0);
    }
    let pass = |exec: &mut AttackExecutor| {
        for input in inputs {
            black_box(exec.on_message(input.clone()));
        }
    };
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 5 || begun.elapsed() < DRIVE {
        let mut exec = enterprise_executor(attack_source);
        let t = Instant::now();
        pass(&mut exec);
        samples.push(t.elapsed().as_nanos() as f64 / inputs.len() as f64);
    }
    let mut exec = enterprise_executor(attack_source);
    let ((), calls, _) = alloc::count(|| pass(&mut exec));
    (stats::median(&samples), calls as f64 / inputs.len() as f64)
}

/// The tapped stream as executor inputs.
pub fn exec_inputs(
    frames: &[TappedFrame],
    conns: &HashMap<ConnId, ConnectionId>,
) -> Vec<InjectorInput> {
    frames
        .iter()
        .filter_map(|f| {
            Some(InjectorInput {
                conn: *conns.get(&f.conn)?,
                to_controller: f.direction == Direction::SwitchToController,
                frame: f.frame.clone(),
                now_ns: f.now.as_nanos(),
            })
        })
        .collect()
}

fn timer(i: usize) -> EventKind {
    EventKind::NodeTimer {
        node: NodeId(i % 1024),
        token: TimerToken::SwitchTick,
    }
}

/// `netsim.engine`: one pop plus one reschedule on the default
/// scheduler, with the queue held at `depth` pending events.
pub fn queue_pop_push_ns(depth: usize) -> f64 {
    let depth = depth.max(1);
    let mut q = EventQueue::with_config(SchedulerConfig::default(), depth);
    // Nondecreasing times with uneven strides, as the simulator feeds
    // its queue (a timer wheel's contract is monotone insertion).
    let mut t = 0u64;
    for i in 0..depth {
        t += (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50;
        q.schedule(SimTime(t), timer(i));
    }
    const OPS: usize = 100_000;
    let mut i = depth;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (now, _) = q.pop().expect("the queue stays populated");
            q.schedule(now + SimTime::from_micros(7), timer(i));
            i += 1;
        }
    })
}

/// A standalone copy of a switch's flow table.
pub fn copy_table<'a>(entries: impl Iterator<Item = &'a FlowEntry>, capacity: usize) -> FlowTable {
    let mut table = FlowTable::with_policy(capacity, EvictionPolicy::Reject);
    for e in entries {
        let fm = FlowMod {
            priority: e.priority,
            ..FlowMod::add(e.r#match, e.actions.to_vec())
        };
        table
            .apply(&fm, SimTime::ZERO)
            .expect("a copy of a valid table is valid");
    }
    table
}

/// `netsim.flow_table`: one lookup in `table`, cycling through `keys`.
pub fn table_lookup_ns(table: &mut FlowTable, keys: &[FlowKey]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    ns_per_op(keys.len(), || {
        for key in keys {
            black_box(table.lookup(black_box(key), 98, SimTime::ZERO));
        }
    })
}

/// The `i`-th variation of `template`: the same wildcards, priority and
/// actions with other addresses, as a spoofed-source fill installs.
fn nth_add(template: &FlowEntry, i: usize) -> FlowMod {
    let r#match = Match {
        dl_src: MacAddr::from_low(i as u64 + 1),
        dl_dst: MacAddr::from_low((i as u64 + 1) * 7),
        nw_src: i as u32,
        ..template.r#match
    };
    FlowMod {
        priority: template.priority,
        ..FlowMod::add(r#match, template.actions.to_vec())
    }
}

/// `netsim.flow_table`: one install into a full `capacity`-entry LRU
/// table of entries shaped like `template`, so that every install
/// evicts.
pub fn table_install_evict_ns(template: &FlowEntry, capacity: usize) -> f64 {
    let mut table = FlowTable::with_policy(capacity, EvictionPolicy::EvictLru);
    for i in 0..capacity {
        table
            .apply(&nth_add(template, i), SimTime::from_nanos(i as u64))
            .expect("the table has room");
    }
    const OPS: usize = 2_000;
    let mut i = capacity;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let fm = nth_add(template, i);
            black_box(table.apply(&fm, SimTime::from_nanos(i as u64)).ok());
            i += 1;
        }
    })
}

/// `netsim.trace`: one `Trace::push` of a control-message record in
/// `mode`, over four connections and both directions.
pub fn trace_push_ns(mode: TraceMode) -> f64 {
    const OPS: usize = 100_000;
    ns_per_op(OPS, || {
        let mut trace = Trace::new();
        trace.set_mode(mode);
        for i in 0..OPS {
            trace.push(
                SimTime::from_nanos(i as u64),
                TraceKind::ControlMessage {
                    conn: ConnId(i % 4),
                    direction: if i % 2 == 0 {
                        Direction::SwitchToController
                    } else {
                        Direction::ControllerToSwitch
                    },
                    of_type: Some(if i % 3 == 0 {
                        OfType::PacketIn
                    } else {
                        OfType::PacketOut
                    }),
                    len: 98,
                },
            );
        }
        black_box(trace.control_message_total());
    })
}
