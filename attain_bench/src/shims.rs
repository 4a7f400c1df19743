//! Timing shims: wrappers the benchmark puts around the program's
//! `Interposer` and `Controller` trait objects during a traced run, so
//! that a layer's busy time is measured at its boundary without any
//! change to the layer.

use attain::controllers::{Controller, ControllerKind, Outbox};
use attain::netsim::{ConnId, Direction, Interposer, InterposerActions, ProxiedMessage, SimTime};
use attain::openflow::{DatapathId, Frame, OfMessage, PacketIn, SwitchFeatures};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many proxied frames a tap keeps for the layer replays. The
/// stream is periodic well inside this many messages.
pub const TAP_CAPACITY: usize = 200_000;

/// Calls seen at one boundary and the time they took.
#[derive(Debug, Default, Clone)]
pub struct CallStats {
    pub count: u64,
    pub busy_ns: u64,
    pub first: Option<Instant>,
    pub last: Option<Instant>,
}

impl CallStats {
    fn record(&mut self, start: Instant, end: Instant) {
        self.count += 1;
        self.busy_ns += end.duration_since(start).as_nanos() as u64;
        self.first.get_or_insert(start);
        self.last = Some(end);
    }

    /// Mean time of one call in nanoseconds (0 when none happened).
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }
}

/// One control-plane message as the interposer saw it.
#[derive(Debug, Clone)]
pub struct TappedFrame {
    pub conn: ConnId,
    pub direction: Direction,
    pub frame: Frame,
    pub now: SimTime,
}

/// What the interposer shim gathered over a run.
#[derive(Debug, Default)]
pub struct InterposerLog {
    pub on_message: CallStats,
    pub tapped: Vec<TappedFrame>,
}

/// Locks a shim's log. A panic while the lock is held can only come
/// from the wrapped layer, and then the run has failed anyway.
pub fn lock<T>(log: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    log.lock()
        .expect("a timing shim's log lock is never poisoned")
}

/// Times every call into the wrapped interposer and keeps the head of
/// the message stream for the codec and executor replays.
pub struct TimedInterposer {
    inner: Box<dyn Interposer>,
    log: Arc<Mutex<InterposerLog>>,
}

impl TimedInterposer {
    pub fn new(inner: Box<dyn Interposer>) -> (TimedInterposer, Arc<Mutex<InterposerLog>>) {
        let log = Arc::new(Mutex::new(InterposerLog::default()));
        let shim = TimedInterposer {
            inner,
            log: Arc::clone(&log),
        };
        (shim, log)
    }
}

impl Interposer for TimedInterposer {
    fn on_message(&mut self, msg: ProxiedMessage<'_>) -> InterposerActions {
        let start = Instant::now();
        let actions = self.inner.on_message(msg);
        let end = Instant::now();
        let mut log = lock(&self.log);
        log.on_message.record(start, end);
        if log.tapped.len() < TAP_CAPACITY {
            log.tapped.push(TappedFrame {
                conn: msg.conn,
                direction: msg.direction,
                frame: msg.frame.clone(),
                now: msg.now,
            });
        }
        actions
    }

    fn on_wakeup(&mut self, now: SimTime) -> InterposerActions {
        self.inner.on_wakeup(now)
    }
}

/// What the controller shim gathered over a run.
#[derive(Debug, Default)]
pub struct ControllerLog {
    pub on_packet_in: CallStats,
    pub on_switch_connect: CallStats,
    pub on_message: CallStats,
}

/// Times every callback into the wrapped controller application.
pub struct TimedController {
    inner: Box<dyn Controller>,
    log: Arc<Mutex<ControllerLog>>,
}

impl TimedController {
    pub fn new(inner: Box<dyn Controller>) -> (TimedController, Arc<Mutex<ControllerLog>>) {
        let log = Arc::new(Mutex::new(ControllerLog::default()));
        let shim = TimedController {
            inner,
            log: Arc::clone(&log),
        };
        (shim, log)
    }
}

impl Controller for TimedController {
    fn kind(&self) -> ControllerKind {
        self.inner.kind()
    }

    fn on_switch_connect(&mut self, dpid: DatapathId, features: &SwitchFeatures, out: &mut Outbox) {
        let start = Instant::now();
        self.inner.on_switch_connect(dpid, features, out);
        lock(&self.log)
            .on_switch_connect
            .record(start, Instant::now());
    }

    fn on_packet_in(&mut self, dpid: DatapathId, packet_in: &PacketIn, out: &mut Outbox) {
        let start = Instant::now();
        self.inner.on_packet_in(dpid, packet_in, out);
        lock(&self.log).on_packet_in.record(start, Instant::now());
    }

    fn on_message(&mut self, dpid: DatapathId, msg: &OfMessage, out: &mut Outbox) {
        let start = Instant::now();
        self.inner.on_message(dpid, msg, out);
        lock(&self.log).on_message.record(start, Instant::now());
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
}
