//! The [`Simulation`]: event dispatch, effect application, and the
//! control-plane proxy point.

use crate::budget::{HaltReason, RunBudget};
use crate::command::HostCommand;
use crate::controller_host::ControllerHost;
use crate::engine::{ConnId, Effect, EventKind, EventQueue, FrameArena, NodeId, TimerToken};
use crate::fault::{
    ControllerFaultStats, FaultKind, FaultPlan, FaultReport, FaultSpec, FaultTarget, LinkStats,
    SwitchFaultStats,
};
use crate::host::Host;
use crate::interpose::{Direction, Interposer, InterposerActions, ProxiedMessage};
use crate::link::{Hop, Link, PortTable, TxOutcome};
use crate::switch::{ApplyOutcome, EvictionPolicy, FailMode, FlowModError, Switch};
use crate::time::SimTime;
use crate::trace::{Trace, TraceKind, TraceMode};
use crate::{IperfStats, PingStats, ProbeStats};
use attain_openflow::{FlowMod, Frame};
use std::collections::HashMap;
use std::time::Instant;

/// Dispatched events between two reads of the clock, when the budget
/// has a deadline.
const DEADLINE_STRIDE: u64 = 1_024;

/// A node: an end host or a switch.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// An end host.
    Host(Host),
    /// A switch. Boxed: the switch state (flow table, connections) dwarfs
    /// a host, and nodes of both kinds share one `Vec<Node>`.
    Switch(Box<Switch>),
}

/// One control-plane connection of the relation `N_C`.
#[derive(Debug, Clone)]
pub(crate) struct Connection {
    pub controller: usize,
    pub switch: NodeId,
    pub latency: SimTime,
}

/// Descriptive metadata for one control connection, used by the injector
/// to map attack-model connection names onto simulator ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnInfo {
    /// The connection id.
    pub id: ConnId,
    /// The controller's name (e.g. `c1`).
    pub controller: String,
    /// The switch's name (e.g. `s2`).
    pub switch: String,
}

/// A fork handed over by [`Simulation::run_forking`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fork {
    /// The run of the shadow attached under this id, from its first
    /// answer other than pass, with the shadow as its interposer.
    Shadow(usize),
    /// The fail-secure side of a split ([`Simulation::defer_fail_mode`]),
    /// carrying forks of the interposer and of every live shadow; the
    /// simulation that split goes on fail-safe.
    FailSecure,
}

/// The assembled network simulation.
///
/// Built with [`NetworkBuilder`](crate::NetworkBuilder); driven with
/// [`Simulation::run_until`]; interrogated through the stats accessors.
///
/// A simulation with no interposer can carry **shadows**
/// ([`Simulation::add_shadow`]): interposers that see every proxied
/// message but whose answers are not applied. While a shadow answers
/// [`InterposerActions::pass`] the run is the one it would make with
/// that shadow interposed, since `pass` schedules exactly the delivery
/// the interposer-free path does. At its first other answer the
/// simulation forks: the copy takes the shadow as its interposer,
/// applies the answer, and goes on as that shadow's own run
/// ([`Simulation::run_forking`]).
///
/// A simulation can also stand for both fail modes at once until a
/// switch first consults its mode, and split there
/// ([`Simulation::defer_fail_mode`]).
pub struct Simulation {
    now: SimTime,
    queue: EventQueue,
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    /// Each port's link and far end (see [`PortTable`]).
    pub(crate) ports: PortTable,
    pub(crate) controllers: Vec<ControllerHost>,
    pub(crate) connections: Vec<Connection>,
    interposer: Option<Box<dyn Interposer>>,
    /// Shadows that have not diverged yet, by caller-chosen id.
    shadows: Vec<(usize, Box<dyn Interposer>)>,
    /// Forks made by the event being dispatched, not yet handed over.
    forks: Vec<(usize, Simulation)>,
    /// The effects of the event being dispatched: filled by a node,
    /// drained by [`Simulation::apply_effects`], so one buffer serves
    /// every event.
    fx: Vec<Effect>,
    /// Set on a fork: it was copied in the middle of a dispatch, and the
    /// next `run_until` first finishes that event's bookkeeping.
    mid_dispatch: bool,
    /// Whether some switch's fail mode is deferred: the one test the
    /// dispatch loop adds per event.
    undecided: bool,
    trace: Trace,
    names: HashMap<String, NodeId>,
    /// In-flight data-plane frame payloads (see [`FrameArena`]).
    arena: FrameArena,
    /// High-water mark of pending events, sampled each dispatch loop.
    peak_pending: usize,
    /// Data-plane frames dropped by link queues.
    pub frames_dropped: u64,
    budget: RunBudget,
    events_dispatched: u64,
    /// Events dispatched at the current instant (livelock detector).
    instant_events: u64,
    /// Sticky: once a budget halt or the deadline fires, further
    /// `run_until` calls return the same reason without dispatching.
    halted: Option<HaltReason>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("controllers", &self.controllers.len())
            .field("connections", &self.connections.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulation {
    pub(crate) fn assemble(
        nodes: Vec<Node>,
        links: Vec<Link>,
        ports: PortTable,
        controllers: Vec<ControllerHost>,
        connections: Vec<Connection>,
        names: HashMap<String, NodeId>,
    ) -> Simulation {
        let arena_hint = (nodes.len() * 4 + links.len() * 2).min(1 << 16);
        let mut sim = Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes,
            links,
            ports,
            controllers,
            connections,
            interposer: None,
            shadows: Vec::new(),
            forks: Vec::new(),
            fx: Vec::new(),
            mid_dispatch: false,
            undecided: false,
            trace: Trace::new(),
            names,
            arena: FrameArena::with_capacity(arena_hint),
            peak_pending: 0,
            frames_dropped: 0,
            budget: RunBudget::default(),
            events_dispatched: 0,
            instant_events: 0,
            halted: None,
        };
        // Stagger the initial handshakes and housekeeping ticks slightly
        // so same-instant ties don't depend on construction order alone.
        for (i, conn) in sim.connections.iter().enumerate() {
            sim.queue.schedule(
                SimTime::from_millis(100 + 10 * i as u64),
                EventKind::NodeTimer {
                    node: conn.switch,
                    token: TimerToken::Connect { conn: ConnId(i) },
                },
            );
        }
        for (i, node) in sim.nodes.iter().enumerate() {
            if matches!(node, Node::Switch(_)) {
                sim.queue.schedule(
                    SimTime::from_secs(1) + SimTime::from_millis(i as u64),
                    EventKind::NodeTimer {
                        node: NodeId(i),
                        token: TimerToken::SwitchTick,
                    },
                );
            }
        }
        for i in 0..sim.controllers.len() {
            sim.queue.schedule(
                SimTime::from_secs(2) + SimTime::from_millis(i as u64),
                EventKind::ControllerTimer {
                    ctrl: i,
                    token: TimerToken::ControllerTick,
                },
            );
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Installs the control-plane interposer (the attack injector).
    pub fn set_interposer(&mut self, interposer: Box<dyn Interposer>) {
        self.interposer = Some(interposer);
    }

    /// Attaches `shadow` under `id` (see the type docs). Shadows are
    /// consulted only while no interposer is installed.
    pub fn add_shadow(&mut self, id: usize, shadow: Box<dyn Interposer>) {
        self.shadows.push((id, shadow));
    }

    /// The installed interposer, if any.
    pub fn interposer(&self) -> Option<&dyn Interposer> {
        self.interposer.as_deref()
    }

    /// The shadows that have not diverged so far, with their ids. A
    /// shadow that diverged where the simulation could not fork (a
    /// controller or interposer without a `fork`) is neither here nor
    /// handed to [`Simulation::run_forking`].
    pub fn shadows(&self) -> impl Iterator<Item = (usize, &dyn Interposer)> + '_ {
        self.shadows.iter().map(|(id, s)| (*id, &**s))
    }

    /// Defers the mode of every fail-safe switch, so that this one run
    /// stands for the fail-safe and the fail-secure run. Both are the
    /// same computation until an undecided switch first consults its
    /// mode: a table miss while disconnected, or entering fail mode.
    /// Just before the event that would, [`Simulation::run_forking`]
    /// splits: a copy whose undecided switches are fail-secure is handed
    /// over as [`Fork::FailSecure`], and this simulation goes on with
    /// them fail-safe. The copy carries a fork of the interposer and of
    /// every live shadow. Where a controller or interposer cannot fork
    /// there is no copy, and this goes on as the fail-safe run alone.
    /// Call before driving the simulation.
    pub fn defer_fail_mode(&mut self) {
        for node in &mut self.nodes {
            if let Node::Switch(s) = node {
                self.undecided |= s.defer_fail_mode();
            }
        }
    }

    /// Schedules a workload command at absolute time `at`; an `at`
    /// already in the past runs at the current instant, so virtual time
    /// never moves backwards.
    pub fn schedule_command(&mut self, at: SimTime, cmd: HostCommand) {
        self.queue
            .schedule(at.max(self.now), EventKind::Command(cmd));
    }

    /// Schedules an environment fault at absolute time `at` (clamped to
    /// the current instant like [`Simulation::schedule_command`]).
    pub fn schedule_fault(&mut self, at: SimTime, spec: FaultSpec) {
        self.schedule_command(at, HostCommand::Fault(spec));
    }

    /// Bounds the named switch's flow table at `capacity` entries under
    /// the given overflow `policy`. Scenario configuration: call before
    /// driving the simulation (the table is rebuilt empty).
    ///
    /// # Panics
    ///
    /// Panics if `switch` is unknown or names a host
    /// ([`Simulation::is_switch`] checks first).
    pub fn set_table_config(&mut self, switch: &str, capacity: usize, policy: EvictionPolicy) {
        let id = self
            .names
            .get(switch)
            .copied()
            .unwrap_or_else(|| panic!("no node named {switch}"));
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s.set_table_config(capacity, policy),
            Node::Host(_) => panic!("{switch} is a host, not a switch"),
        }
    }

    /// Sets the scenario seed for the per-link loss/corruption streams.
    ///
    /// Each link's stream is derived from `seed` and the link's index,
    /// so runs with the same topology, schedule, and seed are
    /// byte-identical, and per-link streams are mutually decorrelated.
    pub fn set_fault_seed(&mut self, seed: u64) {
        for (i, link) in self.links.iter_mut().enumerate() {
            link.reseed(seed, i);
        }
    }

    /// Applies a [`FaultPlan`]: installs its seed and schedules every
    /// event.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.set_fault_seed(plan.seed);
        for (at, spec) in &plan.events {
            self.schedule_fault(*at, spec.clone());
        }
    }

    /// Installs the run budget enforced by [`Simulation::run_until`].
    pub fn set_run_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// High-water mark of pending events observed so far.
    pub fn peak_pending_events(&self) -> usize {
        self.peak_pending.max(self.queue.len())
    }

    /// The sticky halt reason, if a budget or the deadline ever fired.
    pub fn halt_reason(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Runs the simulation until virtual time `t` (inclusive of events at
    /// `t`), subject to the installed [`RunBudget`].
    ///
    /// Budget halts (event cap, livelock detector) are deterministic:
    /// they trip after the same event on every same-seed run, record a
    /// [`TraceKind::RunHalted`] event, and stick — further calls return
    /// the same reason without dispatching. A passed deadline is read
    /// off the wall clock, on entry and once per 1,024 events, so it
    /// halts as [`HaltReason::Cancelled`] and leaves the trace untouched.
    ///
    /// Forks made by shadows, and the fail-secure side of a split, are
    /// dropped; [`Simulation::run_forking`] keeps them.
    pub fn run_until(&mut self, t: SimTime) -> HaltReason {
        self.run_forking(t, |_, _| {})
    }

    /// [`Simulation::run_until`], handing each fork to `on_fork` as soon
    /// as it is made, so forks never pile up beside this simulation. A
    /// shadow's fork is paused inside the dispatch where its shadow
    /// diverged, with the shadow's answer applied; the fail-secure side
    /// of a split is paused just before the event that made it split.
    /// Either one's own `run_until` resumes it there.
    pub fn run_forking(
        &mut self,
        t: SimTime,
        mut on_fork: impl FnMut(Fork, Simulation),
    ) -> HaltReason {
        if let Some(reason) = self.halted {
            return reason;
        }
        if self.past_deadline() {
            return HaltReason::Cancelled;
        }
        if std::mem::take(&mut self.mid_dispatch) {
            if let Some(reason) = self.dispatched() {
                return reason;
            }
        }
        while let Some((next, kind)) = self.queue.peek() {
            if next > t {
                break;
            }
            let split = self.undecided && self.reads_fail_mode(next, kind);
            self.peak_pending = self.peak_pending.max(self.queue.len());
            if self.budget.deadline.is_some()
                && self.events_dispatched.is_multiple_of(DEADLINE_STRIDE)
                && self.past_deadline()
            {
                return HaltReason::Cancelled;
            }
            if let Some(max) = self.budget.max_events {
                if self.events_dispatched >= max {
                    let reason = HaltReason::EventBudget {
                        events: self.events_dispatched,
                    };
                    self.halt(reason, "event-budget");
                    return reason;
                }
            }
            if split {
                self.split(&mut on_fork);
            }
            // `peek` just returned this event.
            #[allow(clippy::expect_used)]
            let (time, kind) = self.queue.pop().expect("peeked event");
            if time > self.now {
                self.instant_events = 0;
            }
            self.now = time;
            self.dispatch(kind);
            if !self.forks.is_empty() {
                for (id, fork) in self.forks.drain(..) {
                    on_fork(Fork::Shadow(id), fork);
                }
            }
            if let Some(reason) = self.dispatched() {
                return reason;
            }
        }
        self.now = self.now.max(t);
        HaltReason::Horizon
    }

    /// Whether the deadline has passed; if so, the halt sticks. It is
    /// host-driven, so it is not traced.
    fn past_deadline(&mut self) -> bool {
        let past = self.budget.deadline.is_some_and(|d| Instant::now() >= d);
        if past {
            self.halted = Some(HaltReason::Cancelled);
        }
        past
    }

    /// The dispatch loop's step after each event: counts it and applies
    /// the per-instant bound.
    fn dispatched(&mut self) -> Option<HaltReason> {
        self.events_dispatched += 1;
        self.instant_events += 1;
        let max = self.budget.max_events_per_instant?;
        if self.instant_events < max {
            return None;
        }
        let reason = HaltReason::Livelock {
            events_at_instant: self.instant_events,
        };
        self.halt(reason, "livelock");
        Some(reason)
    }

    /// Whether dispatching `kind` at `time` may make an undecided switch
    /// consult its fail mode: the two reads in `switch/mod.rs`.
    fn reads_fail_mode(&self, time: SimTime, kind: &EventKind) -> bool {
        let switch = |node: &NodeId| match &self.nodes[node.0] {
            Node::Switch(s) => Some(s),
            Node::Host(_) => None,
        };
        match kind {
            EventKind::Frame { node, .. } => {
                switch(node).is_some_and(|s| s.frame_reads_fail_mode())
            }
            EventKind::NodeTimer {
                node,
                token: TimerToken::SwitchTick,
            } => switch(node).is_some_and(|s| s.tick_reads_fail_mode(time)),
            _ => false,
        }
    }

    /// Splits before an event that reads an undecided fail mode (see
    /// [`Simulation::defer_fail_mode`]).
    fn split(&mut self, on_fork: &mut impl FnMut(Fork, Simulation)) {
        let copy = self.fork();
        self.decide(FailMode::Safe);
        if let Some(mut copy) = copy {
            copy.decide(FailMode::Secure);
            on_fork(Fork::FailSecure, copy);
        }
    }

    /// Settles every deferred fail mode as `mode`.
    fn decide(&mut self, mode: FailMode) {
        self.undecided = false;
        for node in &mut self.nodes {
            if let Node::Switch(s) = node {
                s.decide_fail_mode(mode);
            }
        }
    }

    /// A complete copy of this simulation, its interposer and shadows
    /// forked too; `None` when a controller or one of those cannot fork.
    /// Checkpoints the trace first, so neither copy hashes the shared
    /// events twice.
    fn fork(&mut self) -> Option<Simulation> {
        let controllers = self
            .controllers
            .iter()
            .map(ControllerHost::fork)
            .collect::<Option<Vec<_>>>()?;
        let interposer = match &self.interposer {
            Some(interposer) => Some(interposer.fork()?),
            None => None,
        };
        let shadows = self
            .shadows
            .iter()
            .map(|(id, shadow)| Some((*id, shadow.fork()?)))
            .collect::<Option<Vec<_>>>()?;
        self.trace.checkpoint();
        Some(Simulation {
            now: self.now,
            queue: self.queue.clone(),
            nodes: self.nodes.clone(),
            links: self.links.clone(),
            ports: self.ports.clone(),
            controllers,
            connections: self.connections.clone(),
            interposer,
            shadows,
            forks: Vec::new(),
            fx: Vec::new(),
            mid_dispatch: false,
            undecided: self.undecided,
            trace: self.trace.clone(),
            names: self.names.clone(),
            arena: self.arena.clone(),
            peak_pending: self.peak_pending,
            frames_dropped: self.frames_dropped,
            budget: self.budget.clone(),
            events_dispatched: self.events_dispatched,
            instant_events: self.instant_events,
            halted: self.halted,
        })
    }

    fn halt(&mut self, reason: HaltReason, slug: &'static str) {
        self.halted = Some(reason);
        self.trace.push(
            self.now,
            TraceKind::RunHalted {
                reason: slug,
                events: self.events_dispatched,
            },
        );
    }

    // ---- lookups ------------------------------------------------------

    /// The node id of the named host or switch.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Whether `name` names a switch.
    pub fn is_switch(&self, name: &str) -> bool {
        self.node_id(name)
            .is_some_and(|id| matches!(self.nodes[id.0], Node::Switch(_)))
    }

    /// The named host.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a host.
    #[cfg(test)]
    pub(crate) fn host(&self, name: &str) -> &Host {
        match &self.nodes[self.names[name].0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("{name} is a switch, not a host"),
        }
    }

    /// The named switch.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a switch.
    pub fn switch(&self, name: &str) -> &Switch {
        match &self.nodes[self.names[name].0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{name} is a host, not a switch"),
        }
    }

    fn node_name(&self, id: NodeId) -> &str {
        match &self.nodes[id.0] {
            Node::Host(h) => h.name(),
            Node::Switch(s) => s.name(),
        }
    }

    /// Per-link transmission and fault counters, in link-creation order.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.links
            .iter()
            .map(|l| LinkStats {
                a: self.node_name(l.a.node).to_string(),
                b: self.node_name(l.b.node).to_string(),
                tx: l.tx_ab + l.tx_ba,
                queue_drops: l.drops_ab + l.drops_ba,
                down_drops: l.down_drops,
                lost: l.lost,
                corrupted: l.corrupted,
                down_events: l.down_events,
                up: l.is_up(),
            })
            .collect()
    }

    /// Aggregate fault/drop/corruption accounting for this run.
    pub fn fault_report(&self) -> FaultReport {
        FaultReport {
            links: self.link_stats(),
            controllers: self
                .controllers
                .iter()
                .map(|c| ControllerFaultStats {
                    name: c.name().to_string(),
                    crashes: c.crashes,
                    restarts: c.restarts,
                    alive: c.is_alive(),
                })
                .collect(),
            switches: self
                .nodes
                .iter()
                .filter_map(|n| match n {
                    Node::Switch(s) => Some(SwitchFaultStats {
                        name: s.name().to_string(),
                        restarts: s.restarts,
                        secure_drops: s.secure_drops,
                        standalone_forwards: s.standalone_forwards,
                    }),
                    Node::Host(_) => None,
                })
                .collect(),
        }
    }

    /// Metadata for every control connection, in id order.
    pub fn conn_infos(&self) -> Vec<ConnInfo> {
        self.connections
            .iter()
            .enumerate()
            .map(|(i, c)| ConnInfo {
                id: ConnId(i),
                controller: self.controllers[c.controller].name().to_string(),
                switch: match &self.nodes[c.switch.0] {
                    Node::Switch(s) => s.name().to_string(),
                    Node::Host(h) => h.name().to_string(),
                },
            })
            .collect()
    }

    /// All ping runs across all hosts, in node then start order.
    pub fn ping_stats(&self) -> Vec<PingStats> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.ping_stats()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// All iperf client runs across all hosts.
    pub fn iperf_stats(&self) -> Vec<IperfStats> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.iperf_stats()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// All capacity-probe runs across all hosts.
    pub fn probe_stats(&self) -> Vec<ProbeStats> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host(h) => Some(h.probe_stats()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// The simulation trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Sets the trace mode (see [`TraceMode`]).
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace.set_mode(mode);
    }

    /// Installs a flow entry directly into a switch's table, as
    /// proactive provisioning would — no control-plane round trip and no
    /// `FlowInstalled` trace event, so a pre-provisioned fabric digests
    /// identically regardless of how many routes were pushed.
    ///
    /// # Panics
    ///
    /// Panics if `switch` names a host.
    pub(crate) fn install_flow_at(
        &mut self,
        switch: NodeId,
        fm: &FlowMod,
    ) -> Result<ApplyOutcome, FlowModError> {
        let now = self.now;
        match &mut self.nodes[switch.0] {
            Node::Switch(s) => s.install_flow(fm, now),
            Node::Host(_) => panic!("install_flow target {switch} is a host"),
        }
    }

    /// Seeds `from`'s ARP table with `to`'s `(ip, mac)` binding, as a
    /// static ARP entry would. Large generated workloads prime the pairs
    /// they use so the fabric isn't warmed up by broadcast ARP storms.
    ///
    /// # Panics
    ///
    /// Panics if either id is not a host.
    pub fn prime_arp(&mut self, from: NodeId, to: NodeId) {
        let (ip, mac) = match &self.nodes[to.0] {
            Node::Host(h) => (h.ip(), h.mac()),
            Node::Switch(_) => panic!("prime_arp target {to} is a switch"),
        };
        match &mut self.nodes[from.0] {
            Node::Host(h) => h.prime_arp(ip, mac),
            Node::Switch(_) => panic!("prime_arp source {from} is a switch"),
        }
    }

    // ---- dispatch -----------------------------------------------------

    fn dispatch(&mut self, kind: EventKind) {
        debug_assert!(self.fx.is_empty(), "effects left from the last event");
        match kind {
            EventKind::Frame { node, port, frame } => {
                let frame = self.arena.take(frame);
                // A frame still in flight when its link was severed never
                // arrives: the LinkDown fault discards it at delivery.
                if let Some(hop) = self.ports.get(node, port) {
                    let link = &mut self.links[hop.link];
                    if !link.is_up() {
                        link.down_drops += 1;
                        return;
                    }
                }
                let fx = &mut self.fx;
                match &mut self.nodes[node.0] {
                    Node::Host(h) => h.handle_frame(&frame, self.now, fx),
                    Node::Switch(s) => s.handle_frame(port, frame, self.now, fx),
                }
                self.apply_effects(node);
            }
            EventKind::ProxyIngress {
                conn,
                direction,
                frame,
            } => self.proxy_ingress(conn, direction, frame),
            EventKind::ControlDeliver {
                conn,
                direction,
                frame,
            } => match direction {
                Direction::SwitchToController => {
                    let ctrl = self.connections[conn.0].controller;
                    let mut traces = Vec::new();
                    let sends =
                        self.controllers[ctrl].handle_control(conn, &frame, self.now, &mut traces);
                    for kind in traces {
                        self.trace.push(self.now, kind);
                    }
                    for s in sends {
                        self.queue.schedule(
                            s.depart,
                            EventKind::ProxyIngress {
                                conn: s.conn,
                                direction: Direction::ControllerToSwitch,
                                frame: s.frame,
                            },
                        );
                    }
                }
                Direction::ControllerToSwitch => {
                    let node = self.connections[conn.0].switch;
                    if let Node::Switch(s) = &mut self.nodes[node.0] {
                        s.handle_control(conn, &frame, self.now, &mut self.fx);
                    }
                    self.apply_effects(node);
                }
            },
            EventKind::NodeTimer { node, token } => {
                let fx = &mut self.fx;
                match (&mut self.nodes[node.0], token) {
                    (Node::Switch(s), TimerToken::SwitchTick) => s.tick(self.now, fx),
                    (Node::Switch(s), TimerToken::Connect { conn }) => {
                        s.start_connect(conn, self.now, fx)
                    }
                    (Node::Switch(s), TimerToken::HandshakeDeadline { conn, attempt }) => {
                        s.handshake_deadline(conn, attempt, self.now, fx)
                    }
                    (Node::Host(h), token) => h.handle_timer(token, self.now, fx),
                    _ => {}
                }
                self.apply_effects(node);
            }
            EventKind::ControllerTimer { ctrl, .. } => {
                self.controllers[ctrl].tick(self.now);
                self.queue.schedule(
                    self.now + SimTime::from_secs(2),
                    EventKind::ControllerTimer {
                        ctrl,
                        token: TimerToken::ControllerTick,
                    },
                );
            }
            EventKind::Command(cmd) => self.apply_command(cmd),
            EventKind::InterposerWake => {
                if let Some(mut ip) = self.interposer.take() {
                    let actions = ip.on_wakeup(self.now);
                    self.interposer = Some(ip);
                    self.apply_interposer_actions(actions);
                }
            }
        }
    }

    /// The proxy point: every control-plane message lands here before
    /// delivery, and the interposer (if any) decides its fate.
    fn proxy_ingress(&mut self, conn: ConnId, direction: Direction, frame: Frame) {
        self.trace.push(
            self.now,
            TraceKind::ControlMessage {
                conn,
                direction,
                of_type: frame.of_type(),
                len: frame.len(),
            },
        );
        match self.interposer.take() {
            Some(mut ip) => {
                let actions = ip.on_message(ProxiedMessage {
                    conn,
                    direction,
                    frame: &frame,
                    now: self.now,
                });
                self.interposer = Some(ip);
                self.apply_interposer_actions(actions);
            }
            None => {
                if !self.shadows.is_empty() {
                    self.consult_shadows(ProxiedMessage {
                        conn,
                        direction,
                        frame: &frame,
                        now: self.now,
                    });
                }
                let latency = self.connections[conn.0].latency;
                self.queue.schedule(
                    self.now + latency,
                    EventKind::ControlDeliver {
                        conn,
                        direction,
                        frame,
                    },
                );
            }
        }
    }

    /// Offers `msg` to every shadow. One that answers anything but pass
    /// leaves the shadow list and, when the simulation can fork, becomes
    /// the interposer of a fork with its answer applied — the state its
    /// own run has at this point, since every earlier answer was pass.
    /// The list is out of `self` meanwhile, so no fork carries shadows.
    fn consult_shadows(&mut self, msg: ProxiedMessage<'_>) {
        let mut shadows = std::mem::take(&mut self.shadows);
        let mut i = 0;
        while i < shadows.len() {
            let actions = shadows[i].1.on_message(msg);
            if actions.is_pass(&msg) {
                i += 1;
                continue;
            }
            let (id, shadow) = shadows.remove(i);
            if let Some(mut fork) = self.fork() {
                fork.mid_dispatch = true;
                fork.interposer = Some(shadow);
                fork.apply_interposer_actions(actions);
                self.forks.push((id, fork));
            }
        }
        self.shadows = shadows;
    }

    fn apply_interposer_actions(&mut self, actions: InterposerActions) {
        for d in actions.deliveries {
            if d.conn.0 >= self.connections.len() {
                continue; // injected onto a nonexistent connection
            }
            let latency = self.connections[d.conn.0].latency;
            self.queue.schedule(
                self.now + latency + d.extra_delay,
                EventKind::ControlDeliver {
                    conn: d.conn,
                    direction: d.direction,
                    frame: d.frame,
                },
            );
        }
        for cmd in actions.commands {
            self.apply_command(cmd);
        }
        if let Some(at) = actions.wakeup {
            self.queue
                .schedule(at.max(self.now), EventKind::InterposerWake);
        }
    }

    fn apply_command(&mut self, cmd: HostCommand) {
        match cmd {
            HostCommand::Ping {
                host,
                dst,
                count,
                interval,
                label,
            } => {
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_ping(dst, count, interval, label, self.now, &mut self.fx);
                }
                self.apply_effects(host);
            }
            HostCommand::IperfServer { host, port } => {
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_iperf_server(port);
                }
            }
            HostCommand::Probe {
                host,
                dst,
                fill,
                gap,
                label,
            } => {
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_probe(dst, fill as usize, gap, label, self.now, &mut self.fx);
                }
                self.apply_effects(host);
            }
            HostCommand::IperfClient {
                host,
                dst,
                port,
                duration,
                label,
            } => {
                if let Node::Host(h) = &mut self.nodes[host.0] {
                    h.start_iperf_client(dst, port, duration, label, self.now, &mut self.fx);
                }
                self.apply_effects(host);
            }
            HostCommand::Marker { label } => {
                self.trace.push(self.now, TraceKind::Marker(label));
            }
            HostCommand::Fault(spec) => self.apply_fault(spec),
        }
    }

    /// Looks up the link between two named nodes (order-insensitive).
    fn link_index(&self, a: &str, b: &str) -> Option<usize> {
        let na = *self.names.get(a)?;
        let nb = *self.names.get(b)?;
        self.links
            .iter()
            .position(|l| (l.a.node == na && l.b.node == nb) || (l.a.node == nb && l.b.node == na))
    }

    /// Applies one environment fault, tracing the transition. Unknown
    /// targets are traced (not panicked on): a fault schedule is data,
    /// often authored separately from the topology.
    fn apply_fault(&mut self, spec: FaultSpec) {
        let target = spec.target.to_string();
        let what = spec.kind.to_string();
        match (&spec.target, &spec.kind) {
            (FaultTarget::Link { a, b }, kind) => {
                let Some(idx) = self.link_index(a, b) else {
                    self.trace.push(
                        self.now,
                        TraceKind::Fault {
                            target,
                            what: "unknown link (ignored)".into(),
                        },
                    );
                    return;
                };
                let link = &mut self.links[idx];
                let changed = match kind {
                    FaultKind::LinkDown => link.set_down(),
                    FaultKind::LinkUp => link.set_up(),
                    FaultKind::LinkFlap { count, down, up } => {
                        if *count > 0 {
                            link.set_down();
                            let target = FaultTarget::Link {
                                a: a.clone(),
                                b: b.clone(),
                            };
                            self.schedule_fault(
                                self.now + *down,
                                FaultSpec {
                                    target: target.clone(),
                                    kind: FaultKind::LinkUp,
                                },
                            );
                            if *count > 1 {
                                self.schedule_fault(
                                    self.now + *down + *up,
                                    FaultSpec {
                                        target,
                                        kind: FaultKind::LinkFlap {
                                            count: count - 1,
                                            down: *down,
                                            up: *up,
                                        },
                                    },
                                );
                            }
                        }
                        *count > 0
                    }
                    FaultKind::LinkDegrade {
                        bandwidth_bps,
                        delay,
                    } => {
                        link.degrade(*bandwidth_bps, *delay);
                        true
                    }
                    FaultKind::LinkRestore => {
                        link.restore();
                        link.set_up();
                        true
                    }
                    FaultKind::PacketLoss { pct } => {
                        link.set_loss(*pct);
                        true
                    }
                    FaultKind::PacketCorrupt { pct } => {
                        link.set_corrupt(*pct);
                        true
                    }
                    _ => false,
                };
                if changed {
                    self.trace.push(self.now, TraceKind::Fault { target, what });
                }
            }
            (FaultTarget::Controller(name), kind) => {
                let Some(ctrl) = self.controllers.iter_mut().find(|c| c.name() == name) else {
                    self.trace.push(
                        self.now,
                        TraceKind::Fault {
                            target,
                            what: "unknown controller (ignored)".into(),
                        },
                    );
                    return;
                };
                let changed = match kind {
                    FaultKind::ControllerCrash => {
                        let was_alive = ctrl.is_alive();
                        ctrl.crash();
                        was_alive
                    }
                    FaultKind::ControllerRestart => {
                        let was_dead = !ctrl.is_alive();
                        ctrl.restart();
                        was_dead
                    }
                    _ => false,
                };
                if changed {
                    self.trace.push(self.now, TraceKind::Fault { target, what });
                }
            }
            (FaultTarget::Switch(name), FaultKind::SwitchRestart) => {
                let Some(&node) = self.names.get(name.as_str()) else {
                    self.trace.push(
                        self.now,
                        TraceKind::Fault {
                            target,
                            what: "unknown switch (ignored)".into(),
                        },
                    );
                    return;
                };
                if let Node::Switch(s) = &mut self.nodes[node.0] {
                    s.restart(self.now, &mut self.fx);
                    self.trace.push(self.now, TraceKind::Fault { target, what });
                }
                self.apply_effects(node);
            }
            (FaultTarget::Switch(_), _) => {
                // Unreachable through the parser; ignore quietly.
            }
        }
    }

    /// Applies, in order, and drains the effects `node` left in the
    /// effect buffer.
    fn apply_effects(&mut self, node: NodeId) {
        let mut effects = std::mem::take(&mut self.fx);
        for effect in effects.drain(..) {
            match effect {
                Effect::Frame { out_port, frame } => {
                    let Some(Hop { link, far }) = self.ports.get(node, out_port) else {
                        continue; // unconnected port
                    };
                    let link = &mut self.links[link];
                    match link.transmit(node, frame.len(), self.now) {
                        TxOutcome::Arrives(at) => {
                            let mut frame = frame;
                            if !link.stochastic(&mut frame) {
                                continue; // lost; counted on the link
                            }
                            let frame = self.arena.store(frame);
                            self.queue.schedule(
                                at,
                                EventKind::Frame {
                                    node: far.node,
                                    port: far.port,
                                    frame,
                                },
                            );
                        }
                        TxOutcome::Dropped => self.frames_dropped += 1,
                    }
                }
                Effect::Control { conn, frame } => {
                    // Only switches emit Control effects: direction fixed.
                    self.queue.schedule(
                        self.now,
                        EventKind::ProxyIngress {
                            conn,
                            direction: Direction::SwitchToController,
                            frame,
                        },
                    );
                }
                Effect::Timer { at, token } => {
                    self.queue
                        .schedule(at.max(self.now), EventKind::NodeTimer { node, token });
                }
                Effect::Trace(kind) => self.trace.push(self.now, kind),
            }
        }
        self.fx = effects;
    }
}

/// Shadows and forks: a shadow's run, forked at its first answer other
/// than pass, is the run it makes interposed from t = 0.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpose::PassThrough;
    use crate::{NetworkBuilder, TraceDigest};
    use attain_controllers::{Controller, ControllerKind, Outbox};
    use attain_openflow::{DatapathId, PacketIn, SwitchFeatures};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const HORIZON: SimTime = SimTime::from_secs(20);

    /// Two hosts on one switch in `mode` under `app`, with h1 pinging h2
    /// from t = 5 and again from t = 30. If `crash`, the controller
    /// crashes at t = 10, so `s1` declares it dead about 15 s later and
    /// enters its fail mode.
    fn network(app: Box<dyn Controller>, mode: FailMode, crash: bool) -> Simulation {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch_with_mode("s1", mode);
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", app);
        b.control(c1, s1);
        let mut sim = b.build();
        for (at, count) in [(5, 5), (30, 10)] {
            let ping = HostCommand::Ping {
                host: h1,
                dst: "10.0.0.2".parse().expect("an address"),
                count,
                interval: SimTime::from_secs(1),
                label: format!("ping at {at}"),
            };
            sim.schedule_command(SimTime::from_secs(at), ping);
        }
        let mut plan = FaultPlan::seeded(1);
        if crash {
            let at = SimTime::from_secs(10);
            plan.at_str(at, "controller c1 crash").expect("a fault");
        }
        sim.apply_fault_plan(&plan);
        sim
    }

    fn pox() -> Simulation {
        pox_in(FailMode::Secure, false)
    }

    fn pox_in(mode: FailMode, crash: bool) -> Simulation {
        network(ControllerKind::Pox.instantiate(), mode, crash)
    }

    /// Answers every control message with pass, except that `alter`
    /// rewrites its answer to the `n`-th (1-based); counts what it has
    /// seen in `seen`.
    struct AlterNth {
        n: usize,
        seen: Arc<AtomicUsize>,
        alter: fn(&mut InterposerActions, SimTime),
    }

    impl Interposer for AlterNth {
        fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
            let mut actions = InterposerActions::pass(&msg);
            if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.n {
                (self.alter)(&mut actions, msg.now);
            }
            actions
        }

        fn fork(&self) -> Option<Box<dyn Interposer>> {
            let seen = self.seen.load(Ordering::Relaxed);
            Some(Box::new(AlterNth {
                seen: Arc::new(AtomicUsize::new(seen)),
                ..*self
            }))
        }
    }

    /// The run `interposer` makes attached from t = 0: its digest and
    /// events dispatched.
    fn alone(mut sim: Simulation, interposer: Box<dyn Interposer>) -> (TraceDigest, u64) {
        sim.set_interposer(interposer);
        assert_eq!(sim.run_until(HORIZON), HaltReason::Horizon);
        (sim.trace().digest(), sim.events_dispatched())
    }

    /// Runs `sim` with `shadow` attached; returns the baseline, the
    /// forks run to the horizon (digest and events), and the messages
    /// the shadow had seen when each fork was handed over.
    fn shadowed(
        mut sim: Simulation,
        shadow: Box<dyn Interposer>,
        seen: &AtomicUsize,
    ) -> (Simulation, Vec<(TraceDigest, u64, usize)>) {
        sim.add_shadow(7, shadow);
        let mut forks = Vec::new();
        let halt = sim.run_forking(HORIZON, |made, mut fork| {
            assert_eq!(made, Fork::Shadow(7));
            let at = seen.load(Ordering::Relaxed);
            assert_eq!(fork.run_until(HORIZON), HaltReason::Horizon);
            forks.push((fork.trace().digest(), fork.events_dispatched(), at));
        });
        assert_eq!(halt, HaltReason::Horizon);
        (sim, forks)
    }

    /// A shadow altering its answer to the `n`-th message forks exactly
    /// once, at that message, into the run it makes attached from t = 0;
    /// returns the baseline it left.
    fn forks_once_at(n: usize, alter: fn(&mut InterposerActions, SimTime)) -> Simulation {
        let shadow = |seen: &Arc<AtomicUsize>| {
            Box::new(AlterNth {
                n,
                seen: Arc::clone(seen),
                alter,
            })
        };
        let (digest, events) = alone(pox(), shadow(&Arc::new(AtomicUsize::new(0))));
        let seen = Arc::new(AtomicUsize::new(0));
        let (sim, forks) = shadowed(pox(), shadow(&seen), &seen);
        assert_eq!(forks, [(digest, events, n)], "altered message #{n}");
        assert_eq!(sim.shadows().count(), 0);
        sim
    }

    #[test]
    fn a_pass_through_shadow_never_forks_and_ends_with_the_baseline_digest() {
        let mut baseline = pox();
        baseline.run_until(HORIZON);
        let (sim, forks) = shadowed(pox(), Box::new(PassThrough), &AtomicUsize::new(0));
        assert!(forks.is_empty());
        let ids: Vec<usize> = sim.shadows().map(|(id, _)| id).collect();
        assert_eq!(ids, [7]);
        assert_eq!(sim.trace().digest(), baseline.trace().digest());
        assert_eq!(sim.events_dispatched(), baseline.events_dispatched());
        assert_eq!(
            alone(pox(), Box::new(PassThrough)).0,
            baseline.trace().digest()
        );
    }

    #[test]
    fn a_shadow_dropping_the_nth_message_forks_once_into_its_own_run() {
        for n in [1, 5, 12] {
            let baseline = forks_once_at(n, |a, _| a.deliveries.clear());
            let mut unshadowed = pox();
            unshadowed.run_until(HORIZON);
            assert_eq!(baseline.trace().digest(), unshadowed.trace().digest());
        }
    }

    #[test]
    fn a_shadow_asking_for_a_wakeup_forks_at_that_message() {
        forks_once_at(4, |a, now| a.wakeup = Some(now + SimTime::from_millis(1)));
    }

    #[test]
    fn a_delayed_duplicated_or_commanding_answer_forks_at_its_message() {
        forks_once_at(6, |a, _| {
            a.deliveries[0].extra_delay = SimTime::from_millis(2)
        });
        forks_once_at(6, |a, _| a.deliveries.push(a.deliveries[0].clone()));
        forks_once_at(6, |a, _| {
            a.commands.push(HostCommand::Marker {
                label: "shadow".into(),
            })
        });
    }

    /// A learning switch that cannot be copied.
    struct Unforkable(Box<dyn Controller>);

    impl Controller for Unforkable {
        fn kind(&self) -> ControllerKind {
            self.0.kind()
        }

        fn on_switch_connect(&mut self, dpid: DatapathId, f: &SwitchFeatures, out: &mut Outbox) {
            self.0.on_switch_connect(dpid, f, out);
        }

        fn on_packet_in(&mut self, dpid: DatapathId, pi: &PacketIn, out: &mut Outbox) {
            self.0.on_packet_in(dpid, pi, out);
        }
    }

    #[test]
    fn a_shadow_that_diverges_where_no_fork_is_possible_is_dropped() {
        let app = || Box::new(Unforkable(ControllerKind::Pox.instantiate()));
        let seen = Arc::new(AtomicUsize::new(0));
        let shadow = Box::new(AlterNth {
            n: 3,
            seen: Arc::clone(&seen),
            alter: |a, _| a.deliveries.clear(),
        });
        let secure = || network(app(), FailMode::Secure, false);
        let (sim, forks) = shadowed(secure(), shadow, &seen);
        assert!(forks.is_empty());
        assert_eq!(sim.shadows().count(), 0, "neither forked nor kept");
        let mut baseline = secure();
        baseline.run_until(HORIZON);
        assert_eq!(sim.trace().digest(), baseline.trace().digest());
    }

    // ---- fail-mode splits ---------------------------------------------

    const LONG: SimTime = SimTime::from_secs(50);

    /// What two runs are compared on.
    type Outcome = (TraceDigest, u64, Vec<PingStats>, u64);

    fn outcome(sim: &Simulation) -> Outcome {
        sim.switch("s1").flow_table().check_invariants();
        let (digest, events) = (sim.trace().digest(), sim.events_dispatched());
        (digest, events, sim.ping_stats(), sim.frames_dropped)
    }

    /// `sim` run to [`LONG`] as it is.
    fn fixed(mut sim: Simulation) -> Outcome {
        assert_eq!(sim.run_until(LONG), HaltReason::Horizon);
        outcome(&sim)
    }

    /// `sim` run deferred to [`LONG`], and the outcomes of the fail-secure
    /// sides it split off.
    fn deferred(mut sim: Simulation) -> (Simulation, Vec<Outcome>) {
        sim.defer_fail_mode();
        let mut copies = Vec::new();
        let halt = sim.run_forking(LONG, |made, copy| {
            assert_eq!(made, Fork::FailSecure);
            copies.push(fixed(copy));
        });
        assert_eq!(halt, HaltReason::Horizon);
        (sim, copies)
    }

    #[test]
    fn a_deferred_run_splits_once_into_both_fixed_mode_runs() {
        let (safe, copies) = deferred(pox_in(FailMode::Safe, true));
        assert!(!safe.undecided);
        assert_eq!(copies, [fixed(pox_in(FailMode::Secure, true))]);
        assert_eq!(outcome(&safe), fixed(pox_in(FailMode::Safe, true)));
        assert_ne!(outcome(&safe), copies[0], "the fail mode decides something");
    }

    #[test]
    fn a_deferred_run_that_never_disconnects_never_splits() {
        let (both, copies) = deferred(pox_in(FailMode::Safe, false));
        assert!(copies.is_empty() && both.undecided);
        for mode in [FailMode::Safe, FailMode::Secure] {
            assert_eq!(outcome(&both), fixed(pox_in(mode, false)), "{mode:?}");
        }
    }

    #[test]
    fn a_disconnected_miss_on_an_always_secure_switch_does_not_split() {
        let (sim, copies) = deferred(pox_in(FailMode::Secure, true));
        assert!(copies.is_empty() && !sim.undecided);
        assert!(sim.fault_report().switches[0].secure_drops > 0, "a miss");
        assert_eq!(outcome(&sim), fixed(pox_in(FailMode::Secure, true)));
    }

    #[test]
    fn a_shadows_fork_splits_into_the_attack_attached_under_each_mode() {
        let drop_third = || {
            let seen = Arc::new(AtomicUsize::new(0));
            let alter = |a: &mut InterposerActions, _| a.deliveries.clear();
            Box::new(AlterNth { n: 3, seen, alter })
        };
        let attached = |mode| {
            let mut sim = pox_in(mode, true);
            sim.set_interposer(drop_third());
            fixed(sim)
        };
        let mut sim = pox_in(FailMode::Safe, true);
        sim.defer_fail_mode();
        sim.add_shadow(7, drop_third());
        let mut halves = Vec::new();
        sim.run_forking(LONG, |made, mut fork| {
            if made == Fork::FailSecure {
                return; // the baseline's own split, long after the shadow left
            }
            assert!(fork.undecided, "forked before the crash");
            let halt = fork.run_forking(LONG, |made, copy| {
                assert_eq!(made, Fork::FailSecure);
                halves.push(fixed(copy));
            });
            assert_eq!(halt, HaltReason::Horizon);
            halves.insert(0, outcome(&fork));
        });
        let want = [attached(FailMode::Safe), attached(FailMode::Secure)];
        assert_eq!(halves, want);
        assert_ne!(want[0], want[1]);
    }

    /// A shadow still live at a split goes, forked, with the fail-secure
    /// side. Diverging after the crash on either side, it forks into the
    /// run it makes attached from t = 0 under that side's mode.
    #[test]
    fn a_split_carries_its_live_shadows_to_both_sides() {
        // Message 23 is the first reconnect HELLO, after the split.
        let drop_23rd = || {
            let seen = Arc::new(AtomicUsize::new(0));
            let alter = |a: &mut InterposerActions, _| a.deliveries.clear();
            Box::new(AlterNth { n: 23, seen, alter })
        };
        let attached = |mode| {
            let mut sim = pox_in(mode, true);
            sim.set_interposer(drop_23rd());
            fixed(sim)
        };
        let mut sim = pox_in(FailMode::Safe, true);
        sim.defer_fail_mode();
        sim.add_shadow(7, drop_23rd());
        let mut forks = Vec::new();
        let halt = sim.run_forking(LONG, |made, mut copy| match made {
            Fork::Shadow(id) => {
                assert_eq!(id, 7);
                forks.push((FailMode::Safe, fixed(copy)));
            }
            Fork::FailSecure => {
                let ids: Vec<usize> = copy.shadows().map(|(id, _)| id).collect();
                assert_eq!(ids, [7], "the live shadow goes with the copy");
                let halt = copy.run_forking(LONG, |made, fork| {
                    assert_eq!(made, Fork::Shadow(7));
                    forks.push((FailMode::Secure, fixed(fork)));
                });
                assert_eq!(halt, HaltReason::Horizon);
            }
        });
        assert_eq!(halt, HaltReason::Horizon);
        assert_eq!(sim.shadows().count(), 0);
        let want = [
            (FailMode::Secure, attached(FailMode::Secure)),
            (FailMode::Safe, attached(FailMode::Safe)),
        ];
        assert_eq!(forks, want);
        assert_ne!(want[0].1, want[1].1);
        assert_ne!(
            want[1].1,
            fixed(pox_in(FailMode::Safe, true)),
            "it diverged"
        );
    }
}
