//! The simulated deployment: the executor's [`Binding`] as a
//! [`netsim::Interposer`](attain_netsim::Interposer), whose clock is
//! virtual time and whose byte pipe is the [`InterposerActions`] each
//! step answers (the crate docs tabulate what each effect becomes).

use crate::binding::{Binding, Effect, Refusal, SharedExecutor};
use attain_core::exec::AttackExecutor;
use attain_core::model::SystemModel;
use attain_netsim::{
    ConnId, Delivery, Direction, FaultSpec, HostCommand, Interposer, InterposerActions, NodeId,
    ProxiedMessage, SimTime, Simulation,
};
use std::collections::HashMap;
use std::sync::MutexGuard;

/// The runtime injector, interposed on a simulation's control plane.
///
/// Binds each simulated connection ([`ConnId`]) to the `N_C` element of
/// the same `(controller, switch)` names, so an attack compiled against
/// a [`SystemModel`] drives the corresponding simulated network. A
/// `SYSCMD` or fault that does not parse, or names an unknown host, is
/// dropped. The executor is the only mutable state, so a fork, which
/// copies it, shares nothing with this injector.
#[derive(Debug)]
pub struct SimInjector {
    binding: Binding,
    /// Host name → simulator node (for `SYSCMD` translation).
    hosts: HashMap<String, NodeId>,
}

impl SimInjector {
    /// Builds an injector for `sim`, wiring the attack model's named
    /// connections to the simulator's, and returns it with a shared
    /// handle to the executor.
    ///
    /// # Panics
    ///
    /// Panics if a connection of the system model has no simulated
    /// counterpart (a controller or switch name mismatch).
    pub fn new(
        exec: AttackExecutor,
        system: &SystemModel,
        sim: &Simulation,
    ) -> (SimInjector, SharedExecutor) {
        SimInjector::bind(exec, system, sim).unwrap_or_else(|refusal| panic!("{refusal}"))
    }

    /// [`SimInjector::new`], refusing a simulation that lacks one of the
    /// model's connections instead of panicking.
    pub(crate) fn bind(
        exec: AttackExecutor,
        system: &SystemModel,
        sim: &Simulation,
    ) -> Result<(SimInjector, SharedExecutor), Refusal> {
        let infos = sim.conn_infos();
        let paired = infos
            .iter()
            .map(|i| system.connection_by_names(&i.controller, &i.switch));
        let binding = Binding::new(exec, paired.collect())?.complete()?;
        let hosts = system
            .hosts()
            .filter_map(|(_, h)| Some((h.name.clone(), sim.node_id(&h.name)?)));
        let handle = binding.exec.clone();
        let hosts = hosts.collect();
        Ok((SimInjector { binding, hosts }, handle))
    }

    /// Locks this injector's executor.
    pub(crate) fn executor(&self) -> MutexGuard<'_, AttackExecutor> {
        self.binding.exec.lock()
    }

    /// Adds what `effect` asks of the simulation to `actions`.
    fn apply(&self, actions: &mut InterposerActions, effect: Effect) {
        match effect {
            Effect::Deliver(conn, to_controller, frame, delay_ns, _) => {
                actions.deliveries.push(Delivery {
                    conn: ConnId(conn),
                    direction: match to_controller {
                        true => Direction::SwitchToController,
                        false => Direction::ControllerToSwitch,
                    },
                    frame,
                    extra_delay: SimTime::from_nanos(delay_ns),
                });
            }
            // The binding is complete: every model connection is
            // one of the simulation's.
            Effect::Unrouted => {}
            Effect::SysCmd(host, cmd) => {
                let node = self.hosts.get(&host);
                actions
                    .commands
                    .extend(node.and_then(|&h| HostCommand::parse(h, &cmd).ok()));
            }
            Effect::Fault(spec) => {
                let fault = FaultSpec::parse(&spec).ok().map(HostCommand::Fault);
                actions.commands.extend(fault);
            }
            Effect::Wakeup(ns) => actions.wakeup = Some(SimTime::from_nanos(ns)),
        }
    }
}

impl Interposer for SimInjector {
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
        let mut actions = InterposerActions::default();
        let to_controller = msg.direction == Direction::SwitchToController;
        let (frame, now) = (msg.frame.clone(), || msg.now.as_nanos());
        let sink = |effect| self.apply(&mut actions, effect);
        match self
            .binding
            .on_message(msg.conn.0, to_controller, frame, now, sink)
        {
            true => actions,
            // A connection outside the attack's system model: the proxy
            // forwards it untouched.
            false => InterposerActions::pass(&msg),
        }
    }

    fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
        let mut actions = InterposerActions::default();
        let sink = |effect| self.apply(&mut actions, effect);
        self.binding.on_wakeup(|| now.as_nanos(), sink);
        actions
    }

    fn fork(&self) -> Option<Box<dyn Interposer>> {
        Some(Box::new(SimInjector {
            binding: self.binding.fork(),
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
