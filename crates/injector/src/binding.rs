//! The one injector core both transports step (DESIGN.md §3.5). A
//! [`Binding`] owns the executor and pairs each of a transport's dense
//! connection indices ("routes") with the model connection it stands
//! for. It alone builds an [`InjectorInput`] and reads an [`ExecOutput`]:
//! a step's answer goes to the transport's sink as [`Effect`]s in
//! emission order, each delivery addressed to a route.

use attain_core::exec::{AttackExecutor, ExecOutput, InjectorInput};
use attain_core::model::{ConnectionId, NodeRef};
use attain_openflow::Frame;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Shared handle to the executor, kept by the harness so the injection
/// log can be inspected after the simulation consumed the interposer.
#[derive(Debug, Clone)]
pub struct SharedExecutor(Arc<Mutex<AttackExecutor>>);

impl SharedExecutor {
    /// Locks the executor (recovering it if a holder panicked).
    pub fn lock(&self) -> MutexGuard<'_, AttackExecutor> {
        crate::lock(&self.0)
    }
}

/// Why a transport's connections cannot bind to the executor's model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Route `.0` names connection `.1`, outside the model's `.2`.
    Outside(usize, ConnectionId, usize),
    /// Route `.0` names connection `.1`, which an earlier route names.
    Twice(usize, ConnectionId),
    /// No route stands for the model's `(.0, .1)` connection.
    Missing(String, String),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Outside(at, conn, n) => write!(
                f,
                "route {at}: connection {conn} is outside the system model's {n} connections"
            ),
            Refusal::Twice(at, conn) => write!(
                f,
                "route {at}: connection {conn} is already proxied by an earlier route"
            ),
            Refusal::Missing(c, s) => {
                write!(f, "connection ({c}, {s}) has no route in the network")
            }
        }
    }
}

/// One thing an executor step asks of the transport.
#[derive(Debug)]
pub(crate) enum Effect {
    /// `Deliver(route, to_controller, frame, delay_ns, seq)`: put `frame`
    /// on `route` toward the controller or the switch, `delay_ns` from
    /// now; `seq`, the executor's emission number, orders the deliveries
    /// due at one instant.
    Deliver(usize, bool, Frame, u64, u64),
    /// A delivery onto a model connection no route stands for.
    Unrouted,
    /// `SYSCMD(host, cmd)`.
    SysCmd(String, String),
    /// `fault(spec)`, an environment fault.
    Fault(String),
    /// Step the executor again at this absolute time (`SLEEP`).
    Wakeup(u64),
}

/// The executor and its table of routes. The table never changes after
/// [`Binding::new`], so it is read without a lock.
#[derive(Debug)]
pub(crate) struct Binding {
    /// The executor, behind its one lock.
    pub(crate) exec: SharedExecutor,
    /// Route → the model connection it stands for.
    to_model: Vec<Option<ConnectionId>>,
    /// Model connection → the route standing for it.
    to_route: Vec<Option<usize>>,
}

impl Binding {
    /// Binds `exec` to a transport whose connection `i` stands for
    /// `to_model[i]` (`None`: outside the model, passed untouched).
    pub(crate) fn new(
        exec: AttackExecutor,
        to_model: Vec<Option<ConnectionId>>,
    ) -> Result<Binding, Refusal> {
        let count = exec.system().connection_count();
        let mut to_route = vec![None; count];
        for (at, conn) in to_model.iter().enumerate() {
            let Some(conn) = *conn else { continue };
            match to_route.get_mut(conn.0) {
                None => return Err(Refusal::Outside(at, conn, count)),
                Some(Some(_)) => return Err(Refusal::Twice(at, conn)),
                Some(slot) => *slot = Some(at),
            }
        }
        let exec = SharedExecutor(Arc::new(Mutex::new(exec)));
        Ok(Binding {
            exec,
            to_model,
            to_route,
        })
    }

    /// This binding, if a route stands for every model connection.
    pub(crate) fn complete(self) -> Result<Binding, Refusal> {
        let missing = {
            let exec = self.exec.lock();
            let system = exec.system();
            let name = |r| system.name_of(r).to_string();
            let mut routes = system.connections().zip(&self.to_route);
            routes
                .find(|(_, route)| route.is_none())
                .map(|((_, c, s), _)| {
                    Refusal::Missing(name(NodeRef::Controller(c)), name(NodeRef::Switch(s)))
                })
        };
        missing.map_or(Ok(self), Err)
    }

    /// The same table over a copy of the executor.
    pub(crate) fn fork(&self) -> Binding {
        Binding {
            exec: SharedExecutor(Arc::new(Mutex::new(self.exec.lock().clone()))),
            to_model: self.to_model.clone(),
            to_route: self.to_route.clone(),
        }
    }

    /// Steps the executor on `frame`, which crossed route `conn`, and
    /// hands `sink` each effect once its lock is released; `now_ns` is
    /// read under the lock, so steps see time in the order they take.
    /// False, with nothing stepped, if `conn` stands for no connection.
    pub(crate) fn on_message(
        &self,
        conn: usize,
        to_controller: bool,
        frame: Frame,
        now_ns: impl FnOnce() -> u64,
        sink: impl FnMut(Effect),
    ) -> bool {
        let Some(&Some(conn)) = self.to_model.get(conn) else {
            return false;
        };
        let input = |now_ns| InjectorInput {
            conn,
            to_controller,
            frame,
            now_ns,
        };
        let out = self.exec.lock().on_message(input(now_ns()));
        self.effects(out, sink);
        true
    }

    /// Steps the executor on a wakeup it asked for, as
    /// [`Binding::on_message`] steps it on a message.
    pub(crate) fn on_wakeup(&self, now_ns: impl FnOnce() -> u64, sink: impl FnMut(Effect)) {
        let out = self.exec.lock().on_wakeup(now_ns());
        self.effects(out, sink);
    }

    /// Drops the executor's state for route `conn` (timing samples, held
    /// messages): the session on it ended.
    pub(crate) fn release(&self, conn: usize) {
        if let Some(&Some(model)) = self.to_model.get(conn) {
            self.exec.lock().release_connection(model);
        }
    }

    /// Hands `sink` each of `out`'s effects in emission order, each
    /// delivery addressed to its route.
    fn effects(&self, out: ExecOutput, mut sink: impl FnMut(Effect)) {
        for d in out.deliveries {
            sink(match self.to_route.get(d.conn.0) {
                Some(&Some(route)) => {
                    Effect::Deliver(route, d.to_controller, d.frame, d.extra_delay_ns, d.seq)
                }
                _ => Effect::Unrouted,
            });
        }
        for (host, cmd) in out.commands {
            sink(Effect::SysCmd(host, cmd));
        }
        for spec in out.faults {
            sink(Effect::Fault(spec));
        }
        if let Some(ns) = out.wakeup_ns {
            sink(Effect::Wakeup(ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_core::{dsl, scenario};

    fn executor() -> AttackExecutor {
        let sc = scenario::enterprise_network();
        let source = scenario::attacks::TRIVIAL_PASS;
        let compiled = dsl::compile(source, &sc.system, &sc.attack_model).expect("compiles");
        AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).expect("validates")
    }

    #[test]
    fn refuses_outside_twice_and_missing_connections() {
        let outside = Binding::new(executor(), vec![Some(ConnectionId(4))]);
        let outside = outside.expect_err("the model has four connections");
        assert_eq!(outside, Refusal::Outside(0, ConnectionId(4), 4));
        let twice = Binding::new(
            executor(),
            vec![None, Some(ConnectionId(1)), Some(ConnectionId(1))],
        );
        let twice = twice.expect_err("one connection, two routes");
        assert_eq!(twice, Refusal::Twice(2, ConnectionId(1)));
        let partial = Binding::new(executor(), vec![Some(ConnectionId(0))]).expect("binds");
        let missing = partial.complete().expect_err("three connections unbound");
        assert_eq!(
            missing.to_string(),
            "connection (c1, s2) has no route in the network"
        );
    }

    #[test]
    fn addresses_each_delivery_to_the_transport() {
        // Transport connection 2 stands for model connection 1 (c1, s2).
        let binding = Binding::new(executor(), vec![None, None, Some(ConnectionId(1))]);
        let binding = binding.expect("binds");
        let hello = Frame::new(attain_openflow::OfMessage::Hello.encode(1));
        let mut effects = Vec::new();
        assert!(!binding.on_message(0, true, hello.clone(), || 0, |e| effects.push(e)));
        assert!(effects.is_empty());
        assert!(binding.on_message(2, true, hello.clone(), || 5, |e| effects.push(e)));
        match &effects[..] {
            [Effect::Deliver(2, true, frame, 0, _)] => assert_eq!(frame, &hello),
            other => panic!("trivial pass answers one delivery, got {other:?}"),
        }
    }
}
