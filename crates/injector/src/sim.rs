//! The simulated deployment: an [`AttackExecutor`] as a
//! [`netsim::Interposer`](attain_netsim::Interposer).

use attain_core::exec::{AttackExecutor, ExecOutput, InjectorInput};
use attain_core::model::{ConnectionId, SystemModel};
use attain_netsim::{
    ConnId, Delivery, Direction, HostCommand, Interposer, InterposerActions, NodeId,
    ProxiedMessage, SimTime, Simulation,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Shared handle to the executor, kept by the harness so the injection
/// log can be inspected after the simulation consumed the interposer.
#[derive(Debug, Clone)]
pub struct SharedExecutor(Arc<Mutex<AttackExecutor>>);

impl SharedExecutor {
    fn new(exec: AttackExecutor) -> SharedExecutor {
        SharedExecutor(Arc::new(Mutex::new(exec)))
    }

    /// Locks the executor (recovering it if a holder panicked).
    pub fn lock(&self) -> MutexGuard<'_, AttackExecutor> {
        crate::lock(&self.0)
    }
}

/// The runtime injector, interposed on a simulation's control plane.
///
/// Maps between the attack model's [`ConnectionId`]s (named `(c, s)`
/// pairs of `N_C`) and the simulator's [`ConnId`]s by component name, so
/// an attack compiled against a [`SystemModel`] drives the corresponding
/// simulated network. A `SYSCMD` or fault that does not parse, or names
/// an unknown host, is dropped.
///
/// The executor is the injector's only mutable state; everything else
/// is derived from the system model and the simulation's names. So a
/// fork, which copies the executor into a handle of its own, carries on
/// exactly where this one is without sharing anything with it.
pub struct SimInjector {
    exec: SharedExecutor,
    /// Core connection index → simulator connection.
    to_sim: Vec<ConnId>,
    /// Simulator connection (dense ids, indexed by `ConnId.0`) → core
    /// connection index, `None` outside the attack's system model.
    to_core: Vec<Option<ConnectionId>>,
    /// Host name → simulator node (for `SYSCMD` translation).
    hosts: HashMap<String, NodeId>,
}

impl std::fmt::Debug for SimInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimInjector")
            .field("connections", &self.to_sim.len())
            .finish()
    }
}

impl SimInjector {
    /// Builds an injector for `sim`, wiring the attack model's named
    /// connections to the simulator's, and returns it with a shared
    /// handle to the executor.
    ///
    /// # Panics
    ///
    /// Panics if a connection of the executor's system model has no
    /// simulated counterpart (controller or switch name mismatch) — a
    /// configuration error a test harness should fail loudly on.
    pub fn new(
        exec: AttackExecutor,
        system: &SystemModel,
        sim: &Simulation,
    ) -> (SimInjector, SharedExecutor) {
        let infos = sim.conn_infos();
        let mut to_sim = Vec::with_capacity(system.connection_count());
        let mut to_core = vec![None; infos.len()];
        for (core_id, c, s) in system.connections() {
            let c_name = system.name_of(attain_core::model::NodeRef::Controller(c));
            let s_name = system.name_of(attain_core::model::NodeRef::Switch(s));
            let info = infos
                .iter()
                .find(|i| i.controller == c_name && i.switch == s_name)
                .unwrap_or_else(|| {
                    panic!("connection ({c_name}, {s_name}) has no simulated counterpart")
                });
            to_sim.push(info.id);
            to_core[info.id.0] = Some(core_id);
        }
        let mut hosts = HashMap::new();
        for (_, h) in system.hosts() {
            if let Some(id) = sim.node_id(&h.name) {
                hosts.insert(h.name.clone(), id);
            }
        }
        let exec = SharedExecutor::new(exec);
        let injector = SimInjector {
            exec: exec.clone(),
            to_sim,
            to_core,
            hosts,
        };
        (injector, exec)
    }

    /// Locks this injector's executor.
    pub(crate) fn executor(&self) -> MutexGuard<'_, AttackExecutor> {
        self.exec.lock()
    }

    fn convert(&self, out: ExecOutput) -> InterposerActions {
        let mut actions = InterposerActions::default();
        for d in out.deliveries {
            let Some(&sim_conn) = self.to_sim.get(d.conn.0) else {
                continue; // injected onto a connection the sim lacks
            };
            actions.deliveries.push(Delivery {
                conn: sim_conn,
                direction: if d.to_controller {
                    Direction::SwitchToController
                } else {
                    Direction::ControllerToSwitch
                },
                frame: d.frame,
                extra_delay: SimTime::from_nanos(d.extra_delay_ns),
            });
        }
        let commands = out.commands.iter().filter_map(|(host, cmd)| {
            let node = *self.hosts.get(host)?;
            HostCommand::parse(node, cmd).ok()
        });
        actions.commands.extend(commands);
        let faults = out.faults.iter().filter_map(|spec| {
            let fault = attain_netsim::FaultSpec::parse(spec).ok()?;
            Some(HostCommand::Fault(fault))
        });
        actions.commands.extend(faults);
        actions.wakeup = out.wakeup_ns.map(SimTime::from_nanos);
        actions
    }
}

impl Interposer for SimInjector {
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
        let Some(&Some(core_conn)) = self.to_core.get(msg.conn.0) else {
            // A connection outside the attack's system model: the proxy
            // forwards it untouched.
            return InterposerActions::pass(&msg);
        };
        let out = {
            let mut exec = self.exec.lock();
            exec.on_message(InjectorInput {
                conn: core_conn,
                to_controller: msg.direction == Direction::SwitchToController,
                frame: msg.frame.clone(),
                now_ns: msg.now.as_nanos(),
            })
        };
        self.convert(out)
    }

    fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
        let out = {
            let mut exec = self.exec.lock();
            exec.on_wakeup(now.as_nanos())
        };
        self.convert(out)
    }

    fn fork(&self) -> Option<Box<dyn Interposer>> {
        Some(Box::new(SimInjector {
            exec: SharedExecutor::new(self.executor().clone()),
            to_sim: self.to_sim.clone(),
            to_core: self.to_core.clone(),
            hosts: self.hosts.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_case_study;
    use attain_controllers::ControllerKind;
    use attain_core::{dsl, scenario};
    use attain_netsim::FailMode;
    use attain_openflow::{Frame, OfMessage};

    #[test]
    fn a_forked_injector_owns_its_executor() {
        let sc = scenario::enterprise_network();
        let source = scenario::attacks::CONNECTION_INTERRUPTION;
        let compiled = dsl::compile(source, &sc.system, &sc.attack_model).expect("compiles");
        let exec = AttackExecutor::new(sc.system.clone(), sc.attack_model, compiled.attack)
            .expect("validates");
        let sim = build_case_study(ControllerKind::Pox, FailMode::Secure);
        let (original, _) = SimInjector::new(exec, &sc.system, &sim);
        let mut copy = original.fork().expect("an injector forks");
        let s2 = sim.conn_infos().into_iter().find(|c| c.switch == "s2");
        let hello = Frame::new(OfMessage::Hello.encode(1));
        copy.on_message(ProxiedMessage {
            conn: s2.expect("s2 has a control connection").id,
            direction: Direction::SwitchToController,
            frame: &hello,
            now: SimTime::from_secs(1),
        });
        let copied: &dyn std::any::Any = &*copy;
        let copied = copied.downcast_ref::<SimInjector>().expect("a SimInjector");
        assert_eq!(copied.executor().current_state_name(), "sigma2");
        assert_eq!(copied.executor().log().rule_fires("phi1"), 1);
        let exec = original.executor();
        assert_eq!(exec.current_state_name(), "sigma1");
        assert!(exec.log().events().is_empty());
    }
}
