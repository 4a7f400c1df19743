//! A real TCP deployment of the runtime injector.
//!
//! The paper's proxy "operates as a server for switch connections and as
//! a client for controller connections" (§VI-B2). [`TcpProxy`] does the
//! same over `std::net` sockets: each [`ProxyRoute`] binds a listening
//! socket for one expected switch and names the controller address to
//! dial, plus the attack-model [`ConnectionId`] that pair represents.
//! Every OpenFlow message crossing either direction is framed, fed to
//! the shared [`AttackExecutor`], and the executor's verdicts (drop,
//! delay, modify, inject, …) are applied on the wire.
//!
//! # Connection lifecycle
//!
//! Each accepted switch connection becomes a **session** stamped with a
//! process-wide *epoch* (a generation counter). A session owns both
//! sockets and both write sinks; it is registered atomically when the
//! controller dial succeeds and unregistered atomically the moment any
//! of its four worker loops observes the connection dying, a reconnect
//! replaces it, or a fault severs it. Deliveries carry the epoch they
//! were addressed to, so bytes belonging to a dead session are counted
//! and dropped instead of being written into a successor session —
//! reconnect storms can never interleave stale traffic into a fresh
//! control channel, and no sink outlives its session.
//!
//! Delayed deliveries (`DELAYMESSAGE`) and executor wakeups (`SLEEP`)
//! are owned by a single timer thread holding a min-heap ordered by
//! `(deadline, seq)`, where `seq` is the executor's emission sequence
//! number — equal-delay deliveries therefore fire in executor order,
//! and an attack delaying thousands of messages costs one OS thread,
//! not one per message.
//!
//! Write sinks are bounded ([`WRITE_QUEUE_CAP`]) with an explicit
//! overflow policy: the message path blocks (backpressure propagates to
//! the reading socket, as TCP flow control would), while the timer
//! thread never blocks — a full queue drops the delivery and increments
//! [`ProxyStats::overflow_dropped`].
//!
//! The proxy doubles as the paper's §VII connection-interruption fault
//! harness: [`FaultAction`]s sever a route, hold it down so reconnects
//! are refused, and restore it — immediately via
//! [`TcpProxy::apply_fault`] or at a scheduled offset via
//! [`TcpProxy::schedule_fault`]. The DSL's `fault("…")` action is a
//! different thing — an environment fault for the simulator's fault
//! plan — and has no executor here: the proxy counts each one it
//! discards in [`ProxyStats::faults_discarded`].

use crate::lock;
use attain_core::exec::{AttackExecutor, ExecOutput, InjectorInput};
use attain_core::model::ConnectionId;
use attain_openflow::{Frame, OfMessage};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Capacity of each per-direction write queue. The message path blocks
/// when a queue is full (backpressure); the timer path drops instead.
pub const WRITE_QUEUE_CAP: usize = 1024;

/// First backoff window armed after a failed controller dial (or a
/// reconnect refused during hold-down); doubles per consecutive failure.
pub const RECONNECT_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Ceiling the reconnect backoff window never exceeds.
pub const RECONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Longest the acceptor waits for the controller to answer a dial (one
/// SYN retransmission on a stock kernel). A dial that times out is a
/// dial failure like any other; it also bounds how long `shutdown()`
/// can wait on an acceptor parked in `connect`.
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
    fn route(self) -> usize {
        match self {
            FaultAction::Sever { route }
            | FaultAction::HoldDown { route }
            | FaultAction::Restore { route } => route,
        }
    }
}

/// Lifecycle counters exposed by [`TcpProxy::stats`].
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
    /// Deliveries dropped because their target connection had no live
    /// session at all.
    pub dead_target_dropped: u64,
    /// Timer-path deliveries dropped because the write queue was full.
    pub overflow_dropped: u64,
    /// DSL `fault("…")` actions the executor emitted and the proxy
    /// discarded: environment faults are a simulator facility, and this
    /// deployment has nothing to apply them to.
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

impl std::fmt::Display for RouteHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteHealth::Idle => write!(f, "idle"),
            RouteHealth::Up => write!(f, "up"),
            RouteHealth::Backoff => write!(f, "backoff"),
            RouteHealth::HeldDown => write!(f, "held-down"),
        }
    }
}

/// One route's health snapshot (`TcpProxy::route_health`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteHealthSnapshot {
    /// Route index (position in the `spawn` route list).
    pub route: usize,
    /// Supervisor-visible state.
    pub health: RouteHealth,
    /// Consecutive controller-dial failures (resets on success/restore).
    pub consecutive_failures: u32,
}

/// What [`TcpProxy::shutdown`] accomplished.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Worker threads joined by this call (acceptors, session loops,
    /// and the timer thread).
    pub threads_joined: usize,
    /// Final lifecycle counters; `live_sessions` is 0 after a clean
    /// shutdown.
    pub stats: ProxyStats,
}

/// Session generation number: strictly increasing across the proxy's
/// lifetime, never reused.
type Epoch = u64;

/// One live proxied switch–controller connection pair.
struct Session {
    epoch: Epoch,
    /// Sink feeding the controller-side write loop. Queued frames share
    /// their buffers with the executor's stores — enqueueing is a
    /// refcount bump, not a byte copy.
    ctrl_tx: SyncSender<Frame>,
    /// Sink feeding the switch-side write loop.
    sw_tx: SyncSender<Frame>,
    /// Socket handles kept for severing: `shutdown()` here unblocks any
    /// loop parked in `read`/`write` on the same underlying socket.
    switch_sock: TcpStream,
    controller_sock: TcpStream,
}

impl Session {
    fn sink(&self, to_controller: bool) -> &SyncSender<Frame> {
        if to_controller {
            &self.ctrl_tx
        } else {
            &self.sw_tx
        }
    }

    fn sever(&self) {
        let _ = self.switch_sock.shutdown(Shutdown::Both);
        let _ = self.controller_sock.shutdown(Shutdown::Both);
    }
}

/// Per-route runtime state (fault-harness visible).
struct RouteState {
    conn: usize,
    controller: SocketAddr,
    /// The actually bound listen address (used to wake the acceptor).
    listen: SocketAddr,
    /// While set, reconnect attempts are accepted and immediately
    /// dropped — the hold-down window of a sustained interruption.
    held: AtomicBool,
    /// Consecutive failed controller dials (and hold-down rejections);
    /// drives the exponential backoff window.
    dial_failures: AtomicU32,
    /// While `Some` and in the future, the acceptor absorbs reconnect
    /// attempts without dialing the controller.
    backoff_until: Mutex<Option<Instant>>,
}

impl RouteState {
    /// Arms (or extends) the exponential backoff window and returns its
    /// length: `BASE * 2^(failures-1)`, capped.
    fn arm_backoff(&self) -> Duration {
        let failures = self.dial_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let exp = failures.saturating_sub(1).min(16);
        let window = RECONNECT_BACKOFF_BASE
            .saturating_mul(1u32 << exp)
            .min(RECONNECT_BACKOFF_CAP);
        *lock(&self.backoff_until) = Some(Instant::now() + window);
        window
    }

    /// Clears backoff state (successful dial or harness restore).
    fn clear_backoff(&self) {
        self.dial_failures.store(0, Ordering::Relaxed);
        *lock(&self.backoff_until) = None;
    }

    /// Whether a backoff window is currently open.
    fn in_backoff(&self) -> bool {
        lock(&self.backoff_until).is_some_and(|until| Instant::now() < until)
    }
}

#[derive(Default)]
struct Counters {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    stale_epoch_dropped: AtomicU64,
    dead_target_dropped: AtomicU64,
    overflow_dropped: AtomicU64,
    faults_discarded: AtomicU64,
    dial_failures: AtomicU64,
    backoff_events: AtomicU64,
    backoff_rejected: AtomicU64,
}

/// An event owned by the timer thread.
enum TimedEvent {
    /// A `DELAYMESSAGE` delivery addressed to a specific session epoch.
    Delivery {
        conn: usize,
        to_controller: bool,
        epoch: Epoch,
        frame: Frame,
    },
    /// An executor `SLEEP` wakeup.
    Wakeup,
    /// A scheduled fault-harness action.
    Fault(FaultAction),
}

struct TimerEntry {
    due: Instant,
    /// Executor emission sequence for deliveries ([`u64::MAX`] for
    /// wakeups and faults, which fire after same-instant deliveries).
    seq: u64,
    /// Proxy-local tie-break making the ordering total.
    uid: u64,
    event: TimedEvent,
}

impl TimerEntry {
    fn key(&self) -> (Instant, u64, u64) {
        (self.due, self.seq, self.uid)
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

enum TimerCmd {
    Schedule(TimerEntry),
    Stop,
}

struct Shared {
    exec: Mutex<AttackExecutor>,
    /// Live sessions keyed by connection index. Registration and
    /// unregistration are atomic with session start/end; there is never
    /// a sink in this map whose loops are gone.
    sessions: Mutex<HashMap<usize, Session>>,
    routes: Vec<RouteState>,
    start: Instant,
    shutdown: AtomicBool,
    syscmd: Option<SysCmdHandler>,
    timer_tx: Sender<TimerCmd>,
    next_epoch: AtomicU64,
    next_uid: AtomicU64,
    counters: Counters,
    /// Session worker loops and the timer thread, joined at shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn route(&self, idx: usize) -> &RouteState {
        self.routes
            .get(idx)
            .unwrap_or_else(|| panic!("fault names route {idx}, proxy has {}", self.routes.len()))
    }

    fn schedule(&self, due: Instant, seq: u64, event: TimedEvent) {
        let entry = TimerEntry {
            due,
            seq,
            uid: self.next_uid.fetch_add(1, Ordering::Relaxed),
            event,
        };
        // A failed send means the timer already stopped (shutdown);
        // pending work is deliberately discarded then.
        let _ = self.timer_tx.send(TimerCmd::Schedule(entry));
    }

    /// Delivers `frame` to `conn`'s session iff it is still the session
    /// of `epoch`. `blocking` selects the overflow policy: the message
    /// path blocks for backpressure, the timer path drops on overflow.
    fn deliver(
        &self,
        conn: usize,
        to_controller: bool,
        epoch: Epoch,
        frame: Frame,
        blocking: bool,
    ) {
        let sink = {
            let sessions = lock(&self.sessions);
            match sessions.get(&conn) {
                Some(s) if s.epoch == epoch => s.sink(to_controller).clone(),
                Some(_) => {
                    self.counters
                        .stale_epoch_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                None => {
                    self.counters
                        .dead_target_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        };
        if blocking {
            if sink.send(frame).is_err() {
                // The session died between lookup and send.
                self.counters
                    .stale_epoch_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else {
            match sink.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.counters
                        .overflow_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.counters
                        .stale_epoch_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Applies one executor output. `origin` names the session whose
    /// message triggered it (None for wakeups); `blocking` is the
    /// immediate-delivery overflow policy of the calling context.
    fn dispatch(self: &Arc<Self>, out: ExecOutput, origin: Option<(usize, Epoch)>, blocking: bool) {
        for d in out.deliveries {
            // A delivery back onto the originating connection is pinned
            // to the originating epoch: if that session died, the bytes
            // die with it. Cross-connection deliveries (INJECTNEWMESSAGE,
            // MODIFYMESSAGEMETADATA redirects) address whatever session
            // is live on the target now.
            let epoch = match origin {
                Some((conn, epoch)) if conn == d.conn.0 => Some(epoch),
                _ => lock(&self.sessions).get(&d.conn.0).map(|s| s.epoch),
            };
            let Some(epoch) = epoch else {
                self.counters
                    .dead_target_dropped
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if d.extra_delay_ns == 0 {
                self.deliver(d.conn.0, d.to_controller, epoch, d.frame, blocking);
            } else {
                self.schedule(
                    Instant::now() + Duration::from_nanos(d.extra_delay_ns),
                    d.seq,
                    TimedEvent::Delivery {
                        conn: d.conn.0,
                        to_controller: d.to_controller,
                        epoch,
                        frame: d.frame,
                    },
                );
            }
        }
        for (host, cmd) in out.commands {
            if let Some(handler) = &self.syscmd {
                handler(&host, &cmd);
            }
        }
        self.counters
            .faults_discarded
            .fetch_add(out.faults.len() as u64, Ordering::Relaxed);
        if let Some(wake_ns) = out.wakeup_ns {
            let now_ns = self.now_ns();
            let due = Instant::now() + Duration::from_nanos(wake_ns.saturating_sub(now_ns));
            self.schedule(due, u64::MAX, TimedEvent::Wakeup);
        }
    }

    fn on_message(
        self: &Arc<Self>,
        conn: ConnectionId,
        epoch: Epoch,
        to_controller: bool,
        frame: Frame,
    ) {
        let out = {
            let mut exec = lock(&self.exec);
            exec.on_message(InjectorInput {
                conn,
                to_controller,
                frame,
                now_ns: self.now_ns(),
            })
        };
        self.dispatch(out, Some((conn.0, epoch)), true);
    }

    fn fire(self: &Arc<Self>, event: TimedEvent) {
        match event {
            TimedEvent::Delivery {
                conn,
                to_controller,
                epoch,
                frame,
            } => self.deliver(conn, to_controller, epoch, frame, false),
            TimedEvent::Wakeup => {
                let out = {
                    let mut exec = lock(&self.exec);
                    exec.on_wakeup(self.now_ns())
                };
                self.dispatch(out, None, false);
            }
            TimedEvent::Fault(action) => self.apply_fault(action),
        }
    }

    fn apply_fault(&self, action: FaultAction) {
        match action {
            FaultAction::Sever { route } => self.sever_route(route),
            FaultAction::HoldDown { route } => {
                self.route(route).held.store(true, Ordering::SeqCst);
                self.sever_route(route);
            }
            FaultAction::Restore { route } => {
                let r = self.route(route);
                r.held.store(false, Ordering::SeqCst);
                // A restored route starts clean: the next reconnect
                // attempt dials immediately, whatever churn the
                // hold-down absorbed.
                r.clear_backoff();
            }
        }
    }

    fn sever_route(&self, route: usize) {
        let conn = self.route(route).conn;
        let old = lock(&self.sessions).remove(&conn);
        if let Some(s) = old {
            s.sever();
            self.counters
                .sessions_closed
                .fetch_add(1, Ordering::Relaxed);
            // The connection is gone: drop the executor's per-connection
            // state (timing rings, held messages) so the successor epoch
            // starts from scratch. Taken after the sessions lock is
            // released — exec-then-sessions is the lock order elsewhere.
            lock(&self.exec).release_connection(ConnectionId(conn));
        }
    }

    /// Ends `conn`'s session iff it is still the one of `epoch`
    /// (idempotent across the session's four loops; a successor session
    /// is never touched).
    fn end_session(&self, conn: usize, epoch: Epoch) {
        let old = {
            let mut sessions = lock(&self.sessions);
            match sessions.get(&conn) {
                Some(s) if s.epoch == epoch => sessions.remove(&conn),
                _ => None,
            }
        };
        if let Some(s) = old {
            s.sever();
            self.counters
                .sessions_closed
                .fetch_add(1, Ordering::Relaxed);
            // As in `sever_route`: a reconnect must never inherit stale
            // timing samples from the ended epoch.
            lock(&self.exec).release_connection(ConnectionId(conn));
        }
    }

    fn close_all_sessions(&self) {
        let drained: Vec<Session> = {
            let mut sessions = lock(&self.sessions);
            sessions.drain().map(|(_, s)| s).collect()
        };
        for s in &drained {
            s.sever();
            self.counters
                .sessions_closed
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn spawn_worker(&self, name: &str, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let handle = thread::Builder::new()
            .name(format!("attain-proxy-{name}"))
            .spawn(f)?;
        lock(&self.workers).push(handle);
        Ok(())
    }

    fn stats(&self) -> ProxyStats {
        ProxyStats {
            sessions_opened: self.counters.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.counters.sessions_closed.load(Ordering::Relaxed),
            stale_epoch_dropped: self.counters.stale_epoch_dropped.load(Ordering::Relaxed),
            dead_target_dropped: self.counters.dead_target_dropped.load(Ordering::Relaxed),
            overflow_dropped: self.counters.overflow_dropped.load(Ordering::Relaxed),
            faults_discarded: self.counters.faults_discarded.load(Ordering::Relaxed),
            dial_failures: self.counters.dial_failures.load(Ordering::Relaxed),
            backoff_events: self.counters.backoff_events.load(Ordering::Relaxed),
            backoff_rejected: self.counters.backoff_rejected.load(Ordering::Relaxed),
            live_sessions: lock(&self.sessions).len(),
        }
    }

    /// Arms `route`'s backoff window and counts the event.
    fn note_backoff(&self, route_idx: usize) {
        self.route(route_idx).arm_backoff();
        self.counters.backoff_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Sleeps out `route`'s backoff window in small slices, waking early
    /// on shutdown or when the window is cleared (harness restore).
    fn wait_backoff(&self, route_idx: usize) {
        const SLICE: Duration = Duration::from_millis(10);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let until = *lock(&self.route(route_idx).backoff_until);
            match until {
                Some(t) => {
                    let now = Instant::now();
                    if now >= t {
                        return;
                    }
                    thread::sleep((t - now).min(SLICE));
                }
                None => return,
            }
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

impl std::fmt::Debug for TcpProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
    /// Fails if a listener cannot bind or a thread cannot be spawned;
    /// threads already started are stopped and joined first.
    pub fn spawn(
        exec: AttackExecutor,
        routes: Vec<ProxyRoute>,
        syscmd: Option<SysCmdHandler>,
    ) -> io::Result<TcpProxy> {
        let listeners = routes
            .iter()
            .map(|route| TcpListener::bind(route.listen))
            .collect::<io::Result<Vec<_>>>()?;
        TcpProxy::start(exec, &routes, listeners, syscmd)
    }

    /// Starts the proxy on already bound `listeners`, one per route.
    fn start(
        exec: AttackExecutor,
        routes: &[ProxyRoute],
        listeners: Vec<TcpListener>,
        syscmd: Option<SysCmdHandler>,
    ) -> io::Result<TcpProxy> {
        let mut listen_addrs = Vec::with_capacity(routes.len());
        let mut route_states = Vec::with_capacity(routes.len());
        for (route, listener) in routes.iter().zip(&listeners) {
            let addr = listener.local_addr()?;
            listen_addrs.push(addr);
            route_states.push(RouteState {
                conn: route.conn.0,
                controller: route.controller,
                listen: addr,
                held: AtomicBool::new(false),
                dial_failures: AtomicU32::new(0),
                backoff_until: Mutex::new(None),
            });
        }
        let (timer_tx, timer_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            exec: Mutex::new(exec),
            sessions: Mutex::new(HashMap::new()),
            routes: route_states,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            syscmd,
            timer_tx,
            next_epoch: AtomicU64::new(1),
            next_uid: AtomicU64::new(0),
            counters: Counters::default(),
            workers: Mutex::new(Vec::new()),
        });
        {
            let timer_shared = Arc::clone(&shared);
            shared.spawn_worker("timer", move || timer_loop(timer_shared, timer_rx))?;
        }
        let proxy = TcpProxy {
            shared,
            listen_addrs,
            acceptors: Mutex::new(Vec::with_capacity(listeners.len())),
        };
        for (route_idx, listener) in listeners.into_iter().enumerate() {
            let shared = Arc::clone(&proxy.shared);
            let spawned = thread::Builder::new()
                .name(format!("attain-proxy-accept-{route_idx}"))
                .spawn(move || accept_loop(shared, listener, route_idx));
            match spawned {
                Ok(handle) => lock(&proxy.acceptors).push(handle),
                Err(e) => {
                    proxy.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(proxy)
    }

    /// Stops the proxy and joins every worker thread: severs all
    /// sessions (unblocking loops parked in `read`/`write`), wakes the
    /// acceptors, stops the timer, and joins until no worker remains.
    /// Idempotent; later calls join any stragglers and return the final
    /// counters.
    pub fn shutdown(&self) -> ShutdownReport {
        let first = !self.shared.shutdown.swap(true, Ordering::SeqCst);
        if first {
            // Wake each acceptor parked in `accept()`: the flag is
            // checked right after the dummy connection is accepted.
            for route in &self.shared.routes {
                let _ = TcpStream::connect(route.listen);
            }
        }
        let mut joined = 0;
        for handle in lock(&self.acceptors).drain(..) {
            let _ = handle.join();
            joined += 1;
        }
        // Past this point no acceptor is alive, so no new session (or
        // worker thread) can be created.
        if first {
            self.shared.close_all_sessions();
            let _ = self.shared.timer_tx.send(TimerCmd::Stop);
        }
        loop {
            let handles: Vec<JoinHandle<()>> = lock(&self.shared.workers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
                joined += 1;
            }
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
    /// Panics if the action names a route index the proxy does not have
    /// — harness misuse.
    pub fn apply_fault(&self, action: FaultAction) {
        self.shared.apply_fault(action);
    }

    /// Schedules a fault `after` the current instant on the proxy's
    /// timer thread (the §VII experiment timelines: sever at `t=X`,
    /// restore at `t=Y`).
    ///
    /// # Panics
    ///
    /// Panics here, on the caller's thread, if the action names a route
    /// index the proxy does not have: checked when the fault fired, the
    /// panic would kill the timer thread and silently discard every
    /// later delayed delivery and wakeup.
    pub fn schedule_fault(&self, after: Duration, action: FaultAction) {
        // Looked up only for its panic.
        self.shared.route(action.route());
        self.shared
            .schedule(Instant::now() + after, u64::MAX, TimedEvent::Fault(action));
    }

    /// Current lifecycle counters.
    pub fn stats(&self) -> ProxyStats {
        self.shared.stats()
    }

    /// Per-route health as the reconnect supervisor sees it, in route
    /// order.
    pub(crate) fn route_health(&self) -> Vec<RouteHealthSnapshot> {
        let sessions = lock(&self.shared.sessions);
        self.shared
            .routes
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let health = if r.held.load(Ordering::SeqCst) {
                    RouteHealth::HeldDown
                } else if r.in_backoff() {
                    RouteHealth::Backoff
                } else if sessions.contains_key(&r.conn) {
                    RouteHealth::Up
                } else {
                    RouteHealth::Idle
                };
                RouteHealthSnapshot {
                    route: i,
                    health,
                    consecutive_failures: r.dial_failures.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Locks and inspects the executor (e.g. for its injection log).
    pub fn with_executor<T>(&self, f: impl FnOnce(&AttackExecutor) -> T) -> T {
        f(&lock(&self.shared.exec))
    }
}

fn timer_loop(shared: Arc<Shared>, rx: Receiver<TimerCmd>) {
    let mut heap: BinaryHeap<Reverse<TimerEntry>> = BinaryHeap::new();
    loop {
        let cmd = if let Some(Reverse(next)) = heap.peek() {
            let now = Instant::now();
            if next.due <= now {
                None
            } else {
                match rx.recv_timeout(next.due - now) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        } else {
            match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            }
        };
        match cmd {
            Some(TimerCmd::Stop) => return,
            Some(TimerCmd::Schedule(entry)) => {
                heap.push(Reverse(entry));
                continue;
            }
            None => {}
        }
        // Fire everything due, in (deadline, seq) order.
        let now = Instant::now();
        while let Some(next) = heap.peek_mut() {
            if next.0.due > now {
                break;
            }
            let Reverse(entry) = PeekMut::pop(next);
            shared.fire(entry.event);
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
            shared.note_backoff(route_idx);
            shared.wait_backoff(route_idx);
            continue;
        };
        let route = &shared.routes[route_idx];
        if route.held.load(Ordering::SeqCst) {
            // Hold-down window: the interruption is sustained, so the
            // switch's reconnect attempt is accepted and dropped — but
            // under the same exponential backoff as dial failures, so a
            // hammering switch cannot spin this acceptor.
            drop(switch_sock);
            shared.note_backoff(route_idx);
            shared.wait_backoff(route_idx);
            continue;
        }
        if route.in_backoff() {
            // Still inside a window armed by an earlier failure: absorb
            // the attempt without dialing a controller we just found
            // unreachable.
            drop(switch_sock);
            shared
                .counters
                .backoff_rejected
                .fetch_add(1, Ordering::Relaxed);
            shared.wait_backoff(route_idx);
            continue;
        }
        let Ok(controller_sock) =
            TcpStream::connect_timeout(&route.controller, CONTROLLER_DIAL_TIMEOUT)
        else {
            // Controller unreachable or silent: drop the switch
            // connection (it will retry, as a real switch does) and back
            // off before dialing again.
            shared
                .counters
                .dial_failures
                .fetch_add(1, Ordering::Relaxed);
            shared.note_backoff(route_idx);
            continue;
        };
        route.clear_backoff();
        start_session(&shared, route.conn, switch_sock, controller_sock);
    }
}

/// Every socket the proxy creates becomes a session's through here:
/// Nagle off, then the handles for the read loop, the write loop and
/// for severing, all sharing the one underlying socket.
///
/// The proxy writes one frame per `write`. With Nagle on, the second of
/// two back-to-back small frames (FLOW_MOD then PACKET_OUT — every
/// reactive flow set-up) waits for the peer's delayed ACK, ~40 ms.
fn session_handles(sock: TcpStream) -> io::Result<[TcpStream; 3]> {
    sock.set_nodelay(true)?;
    Ok([sock.try_clone()?, sock.try_clone()?, sock])
}

fn start_session(
    shared: &Arc<Shared>,
    conn: usize,
    switch_sock: TcpStream,
    controller_sock: TcpStream,
) {
    // A socket that refuses means it already died, so the switch simply
    // retries.
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
        ctrl_tx,
        sw_tx,
        switch_sock: sw_keep,
        controller_sock: ctrl_keep,
    };
    {
        let mut sessions = lock(&shared.sessions);
        if let Some(old) = sessions.insert(conn, session) {
            // The switch reconnected before the old session's loops
            // noticed the disconnect: replace it atomically so no stale
            // sink survives and the old epoch's deliveries die.
            old.sever();
            shared
                .counters
                .sessions_closed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    shared
        .counters
        .sessions_opened
        .fetch_add(1, Ordering::Relaxed);
    let spawned = (|| {
        let s = Arc::clone(shared);
        shared.spawn_worker("write-ctrl", move || {
            write_loop(s, ctrl_write, ctrl_rx, conn, epoch)
        })?;
        let s = Arc::clone(shared);
        shared.spawn_worker("write-switch", move || {
            write_loop(s, sw_write, sw_rx, conn, epoch)
        })?;
        let s = Arc::clone(shared);
        shared.spawn_worker("read-switch", move || {
            read_loop(s, switch_sock, ConnectionId(conn), epoch, true)
        })?;
        let s = Arc::clone(shared);
        shared.spawn_worker("read-ctrl", move || {
            read_loop(s, controller_sock, ConnectionId(conn), epoch, false)
        })
    })();
    // A session short of a worker is severed (the loops already running
    // see their sockets die; the switch retries), and a shutdown that
    // raced session creation must not leave the new session running
    // unsupervised.
    if spawned.is_err() || shared.shutdown.load(Ordering::SeqCst) {
        shared.end_session(conn, epoch);
    }
}

fn write_loop(
    shared: Arc<Shared>,
    mut sock: TcpStream,
    rx: Receiver<Frame>,
    conn: usize,
    epoch: Epoch,
) {
    while let Ok(frame) = rx.recv() {
        if sock.write_all(frame.bytes()).is_err() {
            // Socket is gone: tear the session down so the peer loops
            // unblock and the sinks unregister.
            shared.end_session(conn, epoch);
            return;
        }
    }
    // Channel disconnected: the session was already unregistered.
}

fn read_loop(
    shared: Arc<Shared>,
    mut sock: TcpStream,
    conn: ConnectionId,
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
                    shared.on_message(conn, epoch, to_controller, frame);
                    start += len;
                }
                Ok(None) => break,
                Err(_) => {
                    // Unframeable garbage (bad version byte): reset the
                    // connection, as a real proxy would.
                    break 'outer;
                }
            }
        }
        if start > 0 {
            buf.copy_within(start.., 0);
            buf.truncate(buf.len() - start);
        }
    }
    shared.end_session(conn.0, epoch);
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
        while proxy.route_health()[0].health == RouteHealth::HeldDown {
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
        let proxy = TcpProxy::start(
            executor(scenario::attacks::TRIVIAL_PASS),
            &[route(ctrl_addr)],
            vec![listener],
            None,
        )
        .unwrap();
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
        let entry = |due, seq, uid| TimerEntry {
            due,
            seq,
            uid,
            event: TimedEvent::Wakeup,
        };
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(entry(t1, 2, 0)));
        heap.push(Reverse(entry(t0, 9, 1)));
        heap.push(Reverse(entry(t1, 1, 2)));
        let popped: Vec<(Instant, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.due, e.seq))
            .collect();
        // Earliest deadline first; equal deadlines in executor order.
        assert_eq!(popped, vec![(t0, 9), (t1, 1), (t1, 2)]);
    }
}
