//! A real TCP deployment of the runtime injector.
//!
//! The paper's proxy "operates as a server for switch connections and as
//! a client for controller connections" (§VI-B2). [`TcpProxy`] does the
//! same over `std::net` sockets, one [`ProxyRoute`] per switch. A route's
//! index is its connection in the executor's binding (the crate docs):
//! a session, a delivery and a [`FaultAction`] all name a route. Each
//! accepted switch connection is a **session** with an *epoch* never
//! reused; one close path ends every session and drops the executor's
//! state for its route, and a delivery addressed to a dead epoch is
//! dropped. Delayed deliveries and wakeups wait on one timer thread in
//! `(deadline, seq)` order. DESIGN.md §3.5 states these invariants in
//! full. [`FaultAction`]s replay the §VII connection-interruption
//! timeline on a route, now or on the timer.

use crate::binding::{Binding, Effect};
use crate::lock;
use attain_core::exec::AttackExecutor;
use attain_core::model::ConnectionId;
use attain_openflow::{Frame, OfMessage};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Capacity of each per-direction write queue. The message path blocks
/// when a queue is full (backpressure); the timer path drops instead. The
/// timer holds at most as many delayed deliveries per route, and drops
/// one past that.
pub const WRITE_QUEUE_CAP: usize = 1024;

/// First backoff window armed after a failed controller dial (or a
/// reconnect refused during hold-down); doubles per consecutive failure.
pub const RECONNECT_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Ceiling the reconnect backoff window never exceeds.
pub const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Longest the acceptor waits for the controller to answer a dial (one
/// SYN retransmission on a stock kernel): a dial failure like any other
/// after that, which also bounds `shutdown()`'s wait on the acceptor.
pub const CONTROLLER_DIAL_TIMEOUT: Duration = Duration::from_secs(2);

/// One proxied control-plane connection: where the switch will connect,
/// where the controller listens, and which `N_C` element this is.
#[derive(Debug, Clone)]
pub struct ProxyRoute {
    /// Address the proxy listens on for the switch (port 0 = ephemeral).
    pub listen: SocketAddr,
    /// The real controller's address.
    pub controller: SocketAddr,
    /// The attack model's connection id for this pair.
    pub conn: ConnectionId,
}

/// Callback invoked for `SYSCMD` actions: `(host, command)`.
pub type SysCmdHandler = Box<dyn Fn(&str, &str) + Send + Sync>;

/// A connection-interruption primitive (the §VII case-study faults),
/// applied to a route by index into the `spawn` route list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Cut the route's live session. The switch observes a disconnect
    /// and may reconnect immediately.
    Sever {
        /// Route index (position in the `spawn` route list).
        route: usize,
    },
    /// Cut the live session *and* refuse reconnect attempts until the
    /// route is restored — the sustained-interruption case.
    HoldDown {
        /// Route index.
        route: usize,
    },
    /// Accept switch connections on the route again.
    Restore {
        /// Route index.
        route: usize,
    },
}

impl FaultAction {
    /// The route this names, one of the proxy's `routes`: a fault naming
    /// another is harness misuse, and panics.
    fn route(self, routes: usize) -> usize {
        let route = match self {
            FaultAction::Sever { route }
            | FaultAction::HoldDown { route }
            | FaultAction::Restore { route } => route,
        };
        assert!(
            route < routes,
            "fault names route {route}, proxy has {routes}"
        );
        route
    }
}

/// The proxy's lifecycle counters and per-route health
/// ([`TcpProxy::stats`]). Its `Display` is the lifecycle report of a
/// real-socket deployment, the §VI-B3 monitors' view of the proxy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Sessions registered (one per accepted switch connection that
    /// reached its controller).
    pub sessions_opened: u64,
    /// Sessions unregistered (disconnect, replacement, fault, shutdown).
    pub sessions_closed: u64,
    /// Deliveries dropped because their session epoch was no longer the
    /// live one — bytes from a dead session never reach its successor.
    pub stale_epoch_dropped: u64,
    /// Deliveries dropped because their target route had no session.
    pub dead_target_dropped: u64,
    /// Timer-path deliveries dropped because the write queue was full,
    /// or because the timer already held [`WRITE_QUEUE_CAP`] delayed
    /// deliveries for their route.
    pub overflow_dropped: u64,
    /// DSL `fault("…")` actions discarded: environment faults are the
    /// simulator's, and this deployment has nothing to apply them to.
    pub faults_discarded: u64,
    /// Controller dials that failed (connection refused/unreachable).
    pub dial_failures: u64,
    /// Backoff windows armed (after a failed dial or hold-down churn).
    pub backoff_events: u64,
    /// Switch connections dropped inside a backoff window without a
    /// dial attempt — the churn the supervision absorbs.
    pub backoff_rejected: u64,
    /// Sessions currently registered.
    pub live_sessions: usize,
    /// Each route's reconnect-supervisor health, in route order.
    pub routes: Vec<RouteHealthSnapshot>,
}

impl fmt::Display for ProxyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== proxy lifecycle ===")?;
        writeln!(
            f,
            "sessions: {} opened, {} closed, {} live",
            self.sessions_opened, self.sessions_closed, self.live_sessions
        )?;
        writeln!(
            f,
            "dropped: {} stale-epoch, {} dead-target, {} overflow",
            self.stale_epoch_dropped, self.dead_target_dropped, self.overflow_dropped
        )?;
        writeln!(
            f,
            "faults: {} discarded (no environment to apply them to)",
            self.faults_discarded
        )?;
        writeln!(
            f,
            "reconnect supervision: {} dial failures, {} backoff windows, {} absorbed",
            self.dial_failures, self.backoff_events, self.backoff_rejected
        )?;
        for (i, r) in self.routes.iter().enumerate() {
            writeln!(
                f,
                "route {i}: {} ({} consecutive failures)",
                r.health, r.consecutive_failures
            )?;
        }
        Ok(())
    }
}

/// Controller-side health of one proxied route, as judged by the
/// reconnect supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteHealth {
    /// Listening, no live session, nothing pending against the route.
    Idle,
    /// A session is live.
    Up,
    /// Recent dial failures (or hold-down churn): reconnect attempts are
    /// being absorbed until the backoff window expires.
    Backoff,
    /// The fault harness holds the route down.
    HeldDown,
}

impl fmt::Display for RouteHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouteHealth::Idle => "idle",
            RouteHealth::Up => "up",
            RouteHealth::Backoff => "backoff",
            RouteHealth::HeldDown => "held-down",
        })
    }
}

/// One route's health in a [`ProxyStats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHealthSnapshot {
    /// Supervisor-visible state.
    pub health: RouteHealth,
    /// Consecutive controller-dial failures (resets on success/restore).
    pub consecutive_failures: u32,
}

/// What [`TcpProxy::shutdown`] accomplished.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Threads joined by this call (acceptors, session loops, timer).
    pub threads_joined: usize,
    /// Final counters; `live_sessions` is 0 after a clean shutdown.
    pub stats: ProxyStats,
}

/// Session generation number: strictly increasing, never reused.
type Epoch = u64;

/// One live proxied switch–controller connection pair.
struct Session {
    epoch: Epoch,
    /// The switch-side and controller-side write loops' sinks, indexed
    /// by `to_controller`. A queued frame shares its buffer.
    sinks: [SyncSender<Frame>; 2],
    /// The switch and controller sockets, kept for severing, which
    /// unblocks any loop parked in `read`/`write` on them.
    socks: [TcpStream; 2],
}

/// One route's reconnect supervision, read and written as one value.
#[derive(Default)]
struct Supervision {
    /// Held down: reconnect attempts are accepted and dropped.
    held: bool,
    /// Consecutive failed dials (and hold-down rejections).
    failures: u32,
    /// Until then, reconnect attempts are absorbed without a dial.
    backoff_until: Option<Instant>,
}

impl Supervision {
    fn in_backoff(&self) -> bool {
        self.backoff_until
            .is_some_and(|until| Instant::now() < until)
    }
}

/// Everything the proxy counts and supervises, behind one leaf lock (a
/// lock never held while taking another).
struct Ledger {
    /// The live counters; `routes` is filled in by each snapshot.
    stats: ProxyStats,
    /// Per-route supervision, in route order.
    supervision: Vec<Supervision>,
}

impl Ledger {
    /// Arms (or extends) `route`'s exponential backoff window,
    /// `BASE * 2^(failures-1)` capped, and counts it.
    fn arm_backoff(&mut self, route: usize) {
        let s = &mut self.supervision[route];
        s.failures = s.failures.saturating_add(1);
        let window = RECONNECT_BACKOFF_BASE
            .saturating_mul(1 << (s.failures - 1).min(16))
            .min(RECONNECT_BACKOFF_CAP);
        s.backoff_until = Some(Instant::now() + window);
        self.stats.backoff_events += 1;
    }
}

/// An event owned by the timer thread.
enum TimedEvent {
    /// A `DELAYMESSAGE` delivery: `frame` to the session of `epoch` on
    /// `route`, toward the controller if so marked.
    Delivery(usize, bool, Epoch, Frame),
    /// An executor `SLEEP` wakeup.
    Wakeup,
    /// A scheduled fault-harness action.
    Fault(FaultAction),
}

/// The timer's order: deadline, then the executor emission sequence
/// for deliveries ([`u64::MAX`] for wakeups and faults, which fire after
/// same-instant deliveries), then arrival at the timer thread, which
/// makes every key unique.
type TimerKey = (Instant, u64, u64);

enum TimerCmd {
    /// Fire the event at the deadline, in sequence order.
    Schedule(Instant, u64, TimedEvent),
    Stop,
}

struct Shared {
    /// The executor, its transport connections the routes.
    binding: Binding,
    /// The live session of each route. Registration and unregistration
    /// are atomic with session start/end; there is never a sink here
    /// whose loops are gone.
    sessions: Mutex<Vec<Option<Session>>>,
    /// Each route's controller address, in route order.
    controllers: Vec<SocketAddr>,
    ledger: Mutex<Ledger>,
    start: Instant,
    shutdown: AtomicBool,
    syscmd: Option<SysCmdHandler>,
    timer_tx: Sender<TimerCmd>,
    next_epoch: AtomicU64,
    /// Session worker loops and the timer thread, joined at shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn schedule(&self, due: Instant, seq: u64, event: TimedEvent) {
        // Fails only once the timer stopped (shutdown): work is dropped.
        let _ = self.timer_tx.send(TimerCmd::Schedule(due, seq, event));
    }

    /// Delivers `frame` to `route`'s session iff it is still the session
    /// of `epoch`. `blocking` selects the overflow policy: the message
    /// path blocks for backpressure, the timer path drops on overflow.
    fn deliver(
        &self,
        route: usize,
        to_controller: bool,
        epoch: Epoch,
        frame: Frame,
        blocking: bool,
    ) {
        let sink = match &lock(&self.sessions)[route] {
            Some(s) if s.epoch == epoch => s.sinks[usize::from(to_controller)].clone(),
            Some(_) => return lock(&self.ledger).stats.stale_epoch_dropped += 1,
            None => return lock(&self.ledger).stats.dead_target_dropped += 1,
        };
        // A blocking send fails only if the session died since the lookup.
        let sent = match blocking {
            true => sink
                .send(frame)
                .map_err(|e| TrySendError::Disconnected(e.0)),
            false => sink.try_send(frame),
        };
        match sent {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => lock(&self.ledger).stats.overflow_dropped += 1,
            Err(TrySendError::Disconnected(_)) => lock(&self.ledger).stats.stale_epoch_dropped += 1,
        }
    }

    /// Applies one effect of an executor step. `origin` names the
    /// session whose message triggered it (None for wakeups); `blocking`
    /// is the immediate-delivery overflow policy of the calling context.
    fn apply(&self, effect: Effect, origin: Option<(usize, Epoch)>, blocking: bool) {
        match effect {
            Effect::Deliver(route, to_controller, frame, delay_ns, seq) => {
                // Pinned to the originating session if back onto its
                // route; else to whichever session is live there now.
                let epoch = match origin {
                    Some((from, epoch)) if from == route => Some(epoch),
                    _ => lock(&self.sessions)[route].as_ref().map(|s| s.epoch),
                };
                let Some(epoch) = epoch else {
                    return lock(&self.ledger).stats.dead_target_dropped += 1;
                };
                if delay_ns == 0 {
                    self.deliver(route, to_controller, epoch, frame, blocking);
                } else {
                    let due = Instant::now() + Duration::from_nanos(delay_ns);
                    let event = TimedEvent::Delivery(route, to_controller, epoch, frame);
                    self.schedule(due, seq, event);
                }
            }
            // No route stands for the target connection.
            Effect::Unrouted => lock(&self.ledger).stats.dead_target_dropped += 1,
            Effect::SysCmd(host, cmd) => {
                if let Some(handler) = &self.syscmd {
                    handler(&host, &cmd);
                }
            }
            Effect::Fault(_) => lock(&self.ledger).stats.faults_discarded += 1,
            Effect::Wakeup(wake_ns) => {
                let wait = wake_ns.saturating_sub(self.now_ns());
                let due = Instant::now() + Duration::from_nanos(wait);
                self.schedule(due, u64::MAX, TimedEvent::Wakeup);
            }
        }
    }

    fn apply_fault(&self, action: FaultAction) {
        let route = action.route(self.controllers.len());
        match action {
            FaultAction::Sever { .. } => {}
            FaultAction::HoldDown { .. } => lock(&self.ledger).supervision[route].held = true,
            FaultAction::Restore { .. } => {
                // A restored route starts clean: the next reconnect dials.
                lock(&self.ledger).supervision[route] = Supervision::default();
                return;
            }
        }
        let severed = lock(&self.sessions)[route].take();
        self.close(route, severed);
    }

    /// Ends `route`'s session iff it is still the one of `epoch`: once for
    /// all four of its loops, never a successor.
    fn end_session(&self, route: usize, epoch: Epoch) {
        let ended = lock(&self.sessions)[route].take_if(|s| s.epoch == epoch);
        self.close(route, ended);
    }

    /// The one way a session ends, whatever ended it: sockets severed,
    /// counted closed, the executor's state for the route dropped. `ended`
    /// is out of the map and its lock released (exec, then sessions).
    fn close(&self, route: usize, ended: Option<Session>) {
        let Some(session) = ended else { return };
        for sock in &session.socks {
            let _ = sock.shutdown(Shutdown::Both);
        }
        {
            let stats = &mut lock(&self.ledger).stats;
            stats.sessions_closed += 1;
            stats.live_sessions -= 1;
        }
        self.binding.release(route);
    }

    fn spawn_worker(&self, name: &str, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        spawn_into(&self.workers, name, f)
    }

    fn stats(&self) -> ProxyStats {
        // Sessions, then the ledger: `Up` exactly when counted live.
        let sessions = lock(&self.sessions);
        let ledger = lock(&self.ledger);
        let routes = (ledger.supervision.iter().enumerate())
            .map(|(route, s)| RouteHealthSnapshot {
                health: if s.held {
                    RouteHealth::HeldDown
                } else if s.in_backoff() {
                    RouteHealth::Backoff
                } else if sessions[route].is_some() {
                    RouteHealth::Up
                } else {
                    RouteHealth::Idle
                },
                consecutive_failures: s.failures,
            })
            .collect();
        ProxyStats {
            routes,
            ..ledger.stats.clone()
        }
    }

    /// Whether the acceptor may dial for a switch just accepted on
    /// `route`: not while held down (which arms the backoff, so a
    /// hammering switch cannot spin it) or inside a backoff window.
    fn admit(&self, route: usize) -> bool {
        let mut ledger = lock(&self.ledger);
        let (held, waiting) = (
            ledger.supervision[route].held,
            ledger.supervision[route].in_backoff(),
        );
        if held {
            ledger.arm_backoff(route);
        } else if waiting {
            ledger.stats.backoff_rejected += 1;
        }
        !held && !waiting
    }

    /// Sleeps out `route`'s backoff window in small slices, waking early
    /// on shutdown or when the window is cleared (harness restore).
    fn wait_backoff(&self, route: usize) {
        const SLICE: Duration = Duration::from_millis(10);
        while !self.shutdown.load(Ordering::SeqCst) {
            let until = lock(&self.ledger).supervision[route].backoff_until;
            let left = until.map_or(Duration::ZERO, |t| {
                t.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return;
            }
            thread::sleep(left.min(SLICE));
        }
    }
}

/// The running proxy. Dropping it does not stop the worker threads;
/// call [`TcpProxy::shutdown`] for a clean stop that severs every
/// socket, unblocks parked I/O, and joins every worker thread.
pub struct TcpProxy {
    shared: Arc<Shared>,
    /// The actually bound listen addresses, in route order (useful when
    /// routes asked for port 0).
    pub listen_addrs: Vec<SocketAddr>,
    /// Acceptor threads, one per route; joined first at shutdown so no
    /// new sessions can appear while the rest is torn down.
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for TcpProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpProxy")
            .field("listen_addrs", &self.listen_addrs)
            .finish()
    }
}

impl TcpProxy {
    /// Binds every route's listener and starts the proxy threads.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`], before binding
    /// anything, if a route names a connection outside the executor's
    /// system model or two routes name one connection. Otherwise fails
    /// if a listener cannot bind or a thread cannot be spawned; threads
    /// already started are stopped and joined first.
    pub fn spawn(
        exec: AttackExecutor,
        routes: Vec<ProxyRoute>,
        syscmd: Option<SysCmdHandler>,
    ) -> io::Result<TcpProxy> {
        let to_model = routes.iter().map(|route| Some(route.conn)).collect();
        let binding = Binding::new(exec, to_model)
            .map_err(|refusal| io::Error::new(io::ErrorKind::InvalidInput, refusal.to_string()))?;
        let listeners = routes
            .iter()
            .map(|route| TcpListener::bind(route.listen))
            .collect::<io::Result<Vec<_>>>()?;
        let controllers = routes.iter().map(|route| route.controller).collect();
        TcpProxy::start(binding, controllers, listeners, syscmd)
    }

    /// Starts the proxy on already bound `listeners`, one per route of
    /// `binding`, whose controllers listen on `controllers`.
    fn start(
        binding: Binding,
        controllers: Vec<SocketAddr>,
        listeners: Vec<TcpListener>,
        syscmd: Option<SysCmdHandler>,
    ) -> io::Result<TcpProxy> {
        let listen_addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()?;
        let (timer_tx, timer_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            binding,
            sessions: Mutex::new(controllers.iter().map(|_| None).collect()),
            ledger: Mutex::new(Ledger {
                stats: ProxyStats::default(),
                supervision: controllers.iter().map(|_| Supervision::default()).collect(),
            }),
            controllers,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            syscmd,
            timer_tx,
            next_epoch: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        });
        let timer = Arc::clone(&shared);
        shared.spawn_worker("timer", move || timer_loop(timer, timer_rx))?;
        let proxy = TcpProxy {
            shared,
            listen_addrs,
            acceptors: Mutex::new(Vec::with_capacity(listeners.len())),
        };
        for (route, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::clone(&proxy.shared);
            let accept = move || accept_loop(shared, listener, route);
            if let Err(e) = spawn_into(&proxy.acceptors, &format!("accept-{route}"), accept) {
                proxy.shutdown();
                return Err(e);
            }
        }
        Ok(proxy)
    }

    /// Stops the proxy: wakes the acceptors, severs every session, stops
    /// the timer and joins every thread. Idempotent; a later call joins
    /// any stragglers.
    pub fn shutdown(&self) -> ShutdownReport {
        let first = !self.shared.shutdown.swap(true, Ordering::SeqCst);
        if first {
            // Wake each acceptor: it checks the flag after `accept()`.
            for addr in &self.listen_addrs {
                let _ = TcpStream::connect(addr);
            }
        }
        let mut joined = 0;
        for handle in lock(&self.acceptors).drain(..) {
            let _ = handle.join();
            joined += 1;
        }
        // No acceptor is left to start a session (or a worker).
        if first {
            for route in 0..self.listen_addrs.len() {
                let drained = lock(&self.shared.sessions)[route].take();
                self.shared.close(route, drained);
            }
            let _ = self.shared.timer_tx.send(TimerCmd::Stop);
        }
        loop {
            let next = lock(&self.shared.workers).pop();
            let Some(handle) = next else { break };
            let _ = handle.join();
            joined += 1;
        }
        ShutdownReport {
            threads_joined: joined,
            stats: self.shared.stats(),
        }
    }

    /// Applies a connection-interruption fault right now.
    ///
    /// # Panics
    ///
    /// Panics if the action names a route the proxy does not have.
    pub fn apply_fault(&self, action: FaultAction) {
        self.shared.apply_fault(action);
    }

    /// Schedules a fault `after` now on the proxy's timer thread (the
    /// §VII timelines: sever at `t=X`, restore at `t=Y`).
    ///
    /// # Panics
    ///
    /// Panics here if the action names a route the proxy does not have:
    /// on the timer thread, the panic would lose every later event.
    pub fn schedule_fault(&self, after: Duration, action: FaultAction) {
        action.route(self.shared.controllers.len());
        self.shared
            .schedule(Instant::now() + after, u64::MAX, TimedEvent::Fault(action));
    }

    /// Current lifecycle counters and per-route health.
    pub fn stats(&self) -> ProxyStats {
        self.shared.stats()
    }

    /// Locks and inspects the executor (e.g. for its injection log).
    pub fn with_executor<T>(&self, f: impl FnOnce(&AttackExecutor) -> T) -> T {
        f(&self.shared.binding.exec.lock())
    }
}

/// Starts `f` on a thread named after `name` and keeps its handle in
/// `handles`, for shutdown to join.
fn spawn_into(
    handles: &Mutex<Vec<JoinHandle<()>>>,
    name: &str,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<()> {
    let handle = thread::Builder::new()
        .name(format!("attain-proxy-{name}"))
        .spawn(f)?;
    lock(handles).push(handle);
    Ok(())
}

fn timer_loop(shared: Arc<Shared>, rx: Receiver<TimerCmd>) {
    let mut pending: BTreeMap<TimerKey, TimedEvent> = BTreeMap::new();
    // Delayed deliveries held per route: a flood under `delay` would
    // otherwise grow the map by its rate × the delay.
    let mut held = vec![0; shared.controllers.len()];
    let mut arrivals = 0;
    loop {
        let wait = pending
            .first_key_value()
            .map(|(&(due, ..), _)| due.saturating_duration_since(Instant::now()));
        let cmd = match wait {
            Some(wait) if wait.is_zero() => Err(RecvTimeoutError::Timeout),
            Some(wait) => rx.recv_timeout(wait),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match cmd {
            Ok(TimerCmd::Schedule(due, seq, event)) => {
                if let TimedEvent::Delivery(route, ..) = &event {
                    if held[*route] == WRITE_QUEUE_CAP {
                        lock(&shared.ledger).stats.overflow_dropped += 1;
                        continue;
                    }
                    held[*route] += 1;
                }
                pending.insert((due, seq, arrivals), event);
                arrivals += 1;
            }
            // The first entry is due: fire it, and go round for the next.
            Err(RecvTimeoutError::Timeout) => match pending.pop_first() {
                Some((_, TimedEvent::Delivery(route, to_controller, epoch, frame))) => {
                    held[route] -= 1;
                    shared.deliver(route, to_controller, epoch, frame, false);
                }
                Some((_, TimedEvent::Wakeup)) => {
                    let sink = |effect| shared.apply(effect, None, false);
                    shared.binding.on_wakeup(|| shared.now_ns(), sink);
                }
                Some((_, TimedEvent::Fault(action))) => shared.apply_fault(action),
                None => {}
            },
            Ok(TimerCmd::Stop) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener, route_idx: usize) {
    // The shutdown flag is this loop's only way out: an acceptor that
    // returned on an `accept` error would leave its route deaf for good.
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((switch_sock, _)) = accepted else {
            // ECONNABORTED, EMFILE and their kin pass; back off as for
            // a failed dial so a persistent one cannot spin this thread.
            lock(&shared.ledger).arm_backoff(route_idx);
            shared.wait_backoff(route_idx);
            continue;
        };
        if !shared.admit(route_idx) {
            drop(switch_sock);
            shared.wait_backoff(route_idx);
            continue;
        }
        let controller = &shared.controllers[route_idx];
        let Ok(controller_sock) = TcpStream::connect_timeout(controller, CONTROLLER_DIAL_TIMEOUT)
        else {
            // Controller unreachable or silent: drop the switch (it will
            // retry, as a real switch does) and back off.
            let mut ledger = lock(&shared.ledger);
            ledger.stats.dial_failures += 1;
            ledger.arm_backoff(route_idx);
            continue;
        };
        {
            // The failure run is over: the next reconnect dials at once.
            let supervision = &mut lock(&shared.ledger).supervision[route_idx];
            (supervision.failures, supervision.backoff_until) = (0, None);
        }
        start_session(&shared, route_idx, switch_sock, controller_sock);
    }
}

/// Every session socket passes here: Nagle off (one frame per `write`
/// would otherwise wait ~40 ms for the peer's delayed ACK), then handles
/// for the read loop, the write loop and severing.
fn session_handles(sock: TcpStream) -> io::Result<[TcpStream; 3]> {
    sock.set_nodelay(true)?;
    Ok([sock.try_clone()?, sock.try_clone()?, sock])
}

fn start_session(
    shared: &Arc<Shared>,
    route: usize,
    switch_sock: TcpStream,
    controller_sock: TcpStream,
) {
    // A socket that refuses already died: the switch retries.
    let (Ok([sw_keep, sw_write, switch_sock]), Ok([ctrl_keep, ctrl_write, controller_sock])) = (
        session_handles(switch_sock),
        session_handles(controller_sock),
    ) else {
        return;
    };
    let epoch = shared.next_epoch.fetch_add(1, Ordering::SeqCst);
    let (ctrl_tx, ctrl_rx) = mpsc::sync_channel::<Frame>(WRITE_QUEUE_CAP);
    let (sw_tx, sw_rx) = mpsc::sync_channel::<Frame>(WRITE_QUEUE_CAP);
    let session = Session {
        epoch,
        sinks: [sw_tx, ctrl_tx],
        socks: [sw_keep, ctrl_keep],
    };
    let replaced = {
        let mut sessions = lock(&shared.sessions);
        let replaced = sessions[route].replace(session);
        // Under the sessions lock: no close of it is counted first.
        let mut ledger = lock(&shared.ledger);
        ledger.stats.sessions_opened += 1;
        ledger.stats.live_sessions += 1;
        replaced
    };
    // A reconnect replaced the old session atomically: its sinks and its
    // epoch's deliveries die, before this session's loops start.
    shared.close(route, replaced);
    let spawned = (|| {
        for (name, sock, rx) in [
            ("write-ctrl", ctrl_write, ctrl_rx),
            ("write-switch", sw_write, sw_rx),
        ] {
            let s = Arc::clone(shared);
            shared.spawn_worker(name, move || write_loop(s, sock, rx, route, epoch))?;
        }
        for (name, sock, to_controller) in [
            ("read-switch", switch_sock, true),
            ("read-ctrl", controller_sock, false),
        ] {
            let s = Arc::clone(shared);
            shared.spawn_worker(name, move || {
                read_loop(s, sock, route, epoch, to_controller)
            })?;
        }
        io::Result::Ok(())
    })();
    // A session short of a worker is severed (the switch retries), and
    // so is one a racing shutdown would leave unsupervised.
    if spawned.is_err() || shared.shutdown.load(Ordering::SeqCst) {
        shared.end_session(route, epoch);
    }
}

fn write_loop(
    shared: Arc<Shared>,
    mut sock: TcpStream,
    rx: Receiver<Frame>,
    route: usize,
    epoch: Epoch,
) {
    while let Ok(frame) = rx.recv() {
        if sock.write_all(frame.bytes()).is_err() {
            // Socket gone: end the session, unblocking the other loops.
            shared.end_session(route, epoch);
            return;
        }
    }
    // Channel disconnected: the session was already unregistered.
}

fn read_loop(
    shared: Arc<Shared>,
    mut sock: TcpStream,
    route: usize,
    epoch: Epoch,
    to_controller: bool,
) {
    let mut buf = Vec::with_capacity(8192);
    let mut chunk = [0u8; 4096];
    'outer: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let n = match sock.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        buf.extend_from_slice(&chunk[..n]);
        // Frame from a moving offset and compact once per read: a
        // pipelined batch costs one memmove, not one per frame.
        let mut start = 0;
        loop {
            match OfMessage::frame_len(&buf[start..]) {
                Ok(Some(len)) => {
                    let frame = Frame::new(buf[start..start + len].to_vec());
                    let now = || shared.now_ns();
                    let sink = |effect| shared.apply(effect, Some((route, epoch)), true);
                    // `spawn` bound every route, so the executor answers.
                    shared
                        .binding
                        .on_message(route, to_controller, frame, now, sink);
                    start += len;
                }
                Ok(None) => break,
                Err(_) => {
                    // Unframeable garbage: reset, as a real proxy would.
                    break 'outer;
                }
            }
        }
        if start > 0 {
            buf.copy_within(start.., 0);
            buf.truncate(buf.len() - start);
        }
    }
    shared.end_session(route, epoch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_core::{dsl, scenario};
    use attain_openflow::{FlowMod, Match, OfMessage};
    use std::sync::mpsc;

    fn executor(source: &str) -> AttackExecutor {
        let sc = scenario::enterprise_network();
        let compiled = dsl::compile(source, &sc.system, &sc.attack_model).unwrap();
        AttackExecutor::new(sc.system, sc.attack_model, compiled.attack).unwrap()
    }

    fn route(controller: SocketAddr) -> ProxyRoute {
        ProxyRoute {
            listen: "127.0.0.1:0".parse().unwrap(),
            controller,
            conn: ConnectionId(0),
        }
    }

    /// A minimal fake controller: accepts one connection, records every
    /// decoded message, answers HELLO with HELLO.
    fn fake_controller() -> (SocketAddr, mpsc::Receiver<OfMessage>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            loop {
                let n = match sock.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                while let Ok(Some(len)) = OfMessage::frame_len(&buf) {
                    let frame: Vec<u8> = buf.drain(..len).collect();
                    let (msg, xid) = OfMessage::decode(&frame).unwrap();
                    if msg == OfMessage::Hello {
                        let _ = sock.write_all(&OfMessage::Hello.encode(xid));
                    }
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, rx)
    }

    fn read_one(sock: &mut TcpStream) -> OfMessage {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Ok(Some(len)) = OfMessage::frame_len(&buf) {
                let frame: Vec<u8> = buf.drain(..len).collect();
                return OfMessage::decode(&frame).unwrap().0;
            }
            let n = sock.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed early");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn proxy_forwards_and_suppresses_on_real_sockets() {
        let (ctrl_addr, ctrl_rx) = fake_controller();
        let proxy = TcpProxy::spawn(
            executor(scenario::attacks::FLOW_MOD_SUPPRESSION),
            vec![ProxyRoute {
                listen: "127.0.0.1:0".parse().unwrap(),
                controller: ctrl_addr,
                conn: ConnectionId(0),
            }],
            None,
        )
        .unwrap();

        // The "switch" connects through the proxy and says HELLO.
        let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
        switch.write_all(&OfMessage::Hello.encode(1)).unwrap();

        // The controller sees the HELLO…
        let got = ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, OfMessage::Hello);
        // …and its HELLO reply reaches the switch through the proxy.
        assert_eq!(read_one(&mut switch), OfMessage::Hello);

        // A controller→switch FLOW_MOD is suppressed. The fake controller
        // cannot originate one, so send one *from the switch side of the
        // controller socket*: instead, verify via the executor log after
        // pushing a FLOW_MOD from the controller direction is not
        // possible here — so check the switch→controller direction stays
        // clean and the rule never fired on it.
        let fm = OfMessage::FlowMod(FlowMod::add(Match::all(), vec![])).encode(7);
        switch.write_all(&fm).unwrap();
        // FLOW_MOD *from the switch* does not match φ1 (source must be
        // c1), so the controller receives it.
        let got = ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(got, OfMessage::FlowMod(_)));
        proxy.with_executor(|e| assert_eq!(e.log().rule_fires("phi1"), 0));
        proxy.shutdown();
    }

    #[test]
    fn proxy_drops_controller_flow_mods() {
        // A fake controller that immediately pushes a FLOW_MOD after the
        // handshake, then an ECHO_REQUEST.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ctrl_addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let fm = OfMessage::FlowMod(FlowMod::add(Match::all(), vec![])).encode(2);
            sock.write_all(&fm).unwrap();
            sock.write_all(&OfMessage::EchoRequest(vec![9]).encode(3))
                .unwrap();
            // Hold the socket open long enough for the test to read.
            thread::sleep(Duration::from_secs(5));
        });

        let proxy = TcpProxy::spawn(
            executor(scenario::attacks::FLOW_MOD_SUPPRESSION),
            vec![ProxyRoute {
                listen: "127.0.0.1:0".parse().unwrap(),
                controller: ctrl_addr,
                conn: ConnectionId(0),
            }],
            None,
        )
        .unwrap();

        let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
        switch.write_all(&OfMessage::Hello.encode(1)).unwrap();

        // The FLOW_MOD is suppressed; the echo request survives and is
        // the first thing the switch sees.
        let got = read_one(&mut switch);
        assert_eq!(got, OfMessage::EchoRequest(vec![9]));
        proxy.with_executor(|e| assert_eq!(e.log().rule_fires("phi1"), 1));
        proxy.shutdown();
    }

    #[test]
    fn trivial_pass_proxy_is_transparent_both_ways() {
        let (ctrl_addr, ctrl_rx) = fake_controller();
        let proxy = TcpProxy::spawn(
            executor(scenario::attacks::TRIVIAL_PASS),
            vec![ProxyRoute {
                listen: "127.0.0.1:0".parse().unwrap(),
                controller: ctrl_addr,
                conn: ConnectionId(0),
            }],
            None,
        )
        .unwrap();
        let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
        // A batch of pipelined messages in one write must all arrive, in
        // order (framing test).
        let mut batch = Vec::new();
        batch.extend(OfMessage::Hello.encode(1));
        batch.extend(OfMessage::EchoRequest(vec![1, 2, 3]).encode(2));
        batch.extend(OfMessage::BarrierRequest.encode(3));
        switch.write_all(&batch).unwrap();
        assert_eq!(
            ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            OfMessage::Hello
        );
        assert_eq!(
            ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            OfMessage::EchoRequest(vec![1, 2, 3])
        );
        assert_eq!(
            ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            OfMessage::BarrierRequest
        );
        assert_eq!(read_one(&mut switch), OfMessage::Hello);
        proxy.shutdown();
    }

    #[test]
    #[should_panic(expected = "fault names route 3, proxy has 1")]
    fn mis_indexed_scheduled_fault_panics_in_the_caller() {
        let (ctrl_addr, _ctrl_rx) = fake_controller();
        let proxy = TcpProxy::spawn(
            executor(scenario::attacks::TRIVIAL_PASS),
            vec![route(ctrl_addr)],
            None,
        )
        .unwrap();
        proxy.schedule_fault(Duration::ZERO, FaultAction::Restore { route: 3 });
    }

    #[test]
    fn timer_thread_outlives_scheduled_faults() {
        const DELAY_ECHO: &str = r#"
            attack delay_echo {
                start state sigma1 {
                    rule hold on (c1, s1) requires no_tls {
                        when msg.type == ECHO_REQUEST && msg.source == s1
                        do { delay(msg, 0.05); }
                    }
                }
            }
        "#;
        let (ctrl_addr, ctrl_rx) = fake_controller();
        let proxy = TcpProxy::spawn(executor(DELAY_ECHO), vec![route(ctrl_addr)], None).unwrap();
        // A bad index never reaches the timer thread…
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            proxy.schedule_fault(Duration::ZERO, FaultAction::Sever { route: 1 });
        }));
        assert!(bad.is_err());
        // …a good one fires on it…
        proxy.apply_fault(FaultAction::HoldDown { route: 0 });
        proxy.schedule_fault(Duration::ZERO, FaultAction::Restore { route: 0 });
        let deadline = Instant::now() + Duration::from_secs(5);
        while proxy.stats().routes[0].health == RouteHealth::HeldDown {
            assert!(Instant::now() < deadline, "scheduled restore never fired");
            thread::sleep(Duration::from_millis(5));
        }
        // …and the thread is still there for the delivery that follows.
        let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
        switch
            .write_all(&OfMessage::EchoRequest(vec![5]).encode(1))
            .unwrap();
        assert_eq!(
            ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            OfMessage::EchoRequest(vec![5])
        );
        proxy.shutdown();
    }

    #[test]
    fn acceptor_survives_accept_errors() {
        let (ctrl_addr, ctrl_rx) = fake_controller();
        // A non-blocking listener makes `accept` fail (`WouldBlock`)
        // whenever nobody is waiting, as a transient error would. (On
        // Linux the accepted socket does not inherit the mode.)
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let binding = Binding::new(
            executor(scenario::attacks::TRIVIAL_PASS),
            vec![Some(ConnectionId(0))],
        );
        let proxy =
            TcpProxy::start(binding.unwrap(), vec![ctrl_addr], vec![listener], None).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while proxy.stats().backoff_events == 0 {
            assert!(Instant::now() < deadline, "accept never failed");
            thread::sleep(Duration::from_millis(5));
        }
        // The route still serves the switch that connects afterwards.
        let mut switch = TcpStream::connect(proxy.listen_addrs[0]).unwrap();
        switch.write_all(&OfMessage::Hello.encode(1)).unwrap();
        assert_eq!(
            ctrl_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            OfMessage::Hello
        );
        // 1 acceptor + 1 timer + 4 session loops: the acceptor was alive
        // to be joined.
        assert!(proxy.shutdown().threads_joined >= 6);
    }

    #[test]
    fn timer_entries_order_by_deadline_then_seq() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        let mut pending: BTreeMap<TimerKey, TimedEvent> = BTreeMap::new();
        pending.insert((t1, 2, 0), TimedEvent::Wakeup);
        pending.insert((t0, 9, 1), TimedEvent::Wakeup);
        pending.insert((t1, 1, 2), TimedEvent::Wakeup);
        let popped: Vec<(Instant, u64)> = std::iter::from_fn(|| pending.pop_first())
            .map(|((due, seq, _), _)| (due, seq))
            .collect();
        // Earliest deadline first; equal deadlines in executor order.
        assert_eq!(popped, vec![(t0, 9), (t1, 1), (t1, 2)]);
    }

    #[test]
    fn proxy_lifecycle_report_renders_counters() {
        let proxy = TcpProxy::spawn(
            executor(scenario::attacks::TRIVIAL_PASS),
            vec![ProxyRoute {
                listen: "127.0.0.1:0".parse().expect("addr"),
                controller: "127.0.0.1:1".parse().expect("addr"),
                conn: ConnectionId(0),
            }],
            None,
        )
        .expect("binds");
        let report = proxy.stats();
        assert_eq!(report.sessions_opened, 0);
        assert_eq!(report.stale_epoch_dropped, 0);
        assert_eq!(report.dead_target_dropped, 0);
        assert_eq!(report.routes.len(), 1);
        assert_eq!(report.routes[0].health, RouteHealth::Idle);
        assert_eq!(report.routes[0].consecutive_failures, 0);
        let text = report.to_string();
        assert!(text.contains("proxy lifecycle"));
        assert!(text.contains("0 opened, 0 closed, 0 live"));
        assert!(text.contains("faults: 0 discarded"));
        assert!(text.contains("reconnect supervision"));
        assert!(text.contains("route 0: idle"));
        proxy.shutdown();
    }
}
