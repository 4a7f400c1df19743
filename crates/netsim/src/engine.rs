//! The deterministic event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a hierarchical timer wheel — eight levels of 64
//! slots at a base granularity of 2^10 ns (~1 µs), covering 2^58 ns
//! (~9 years of virtual time) before spilling to an overflow list. It
//! pops in strict `(time, seq)` order, `seq` being one counter drawn at
//! schedule time, so its order is exactly that of a binary heap over the
//! same key; the unit tests below check it against one step by step.
//!
//! Data-plane payloads are arena-allocated (`FrameArena`): a queued
//! frame event carries a 4-byte [`FrameRef`] instead of the `Vec<u8>`
//! itself, so queue records stay small and wheel cascades move index
//! math, not packet buffers.

use crate::command::HostCommand;
use crate::interpose::Direction;
use crate::time::SimTime;
use attain_openflow::{Frame, PortNo};
use std::fmt;

/// Index of a node (host or switch) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a control-plane connection (one `(controller, switch)` pair
/// of the paper's relation `N_C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub usize);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// What a [`EventKind::NodeTimer`] means to its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerToken {
    /// A switch's 1 Hz housekeeping sweep (flow expiry + liveness).
    SwitchTick,
    /// A switch should (re)start its control-plane handshake.
    Connect {
        /// Which of the switch's connections.
        conn: ConnId,
    },
    /// A switch's handshake deadline expired.
    HandshakeDeadline {
        /// Which of the switch's connections.
        conn: ConnId,
        /// The attempt number the deadline belongs to.
        attempt: u32,
    },
    /// A controller's liveness sweep.
    ControllerTick,
    /// A host application timer; the payload identifies the app slot.
    App {
        /// Index into the host's application table.
        app: usize,
    },
    /// A host's ARP retransmission check.
    ArpRetry,
}

/// An opaque handle to a data-plane frame payload parked in the
/// simulation's `FrameArena`. Stored in queued events in place of the
/// payload itself so scheduler records stay small and flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRef(pub(crate) u32);

/// An event payload.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A data-plane frame arrives at `node` on `port`.
    Frame {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortNo,
        /// Handle to the raw Ethernet frame in the simulation's arena.
        frame: FrameRef,
    },
    /// An encoded OpenFlow message enters the proxy point of a control
    /// connection (where the interposer sits).
    ProxyIngress {
        /// The connection.
        conn: ConnId,
        /// Which way the message travels.
        direction: Direction,
        /// The encoded message.
        frame: Frame,
    },
    /// An encoded OpenFlow message is delivered to one end of a control
    /// connection.
    ControlDeliver {
        /// The connection.
        conn: ConnId,
        /// Which way the message travels (delivery is at the far end).
        direction: Direction,
        /// The encoded message.
        frame: Frame,
    },
    /// A timer owned by `node` fires.
    NodeTimer {
        /// Owning node.
        node: NodeId,
        /// What the timer means.
        token: TimerToken,
    },
    /// A controller-owned timer fires.
    ControllerTimer {
        /// Controller index.
        ctrl: usize,
        /// What the timer means.
        token: TimerToken,
    },
    /// A scheduled workload command executes.
    Command(HostCommand),
    /// The interposer asked to be woken (attack `SLEEP` support).
    InterposerWake,
}

/// A side effect produced by a node event handler, applied by the
/// simulation after the handler returns (keeping node borrows disjoint
/// from link/queue borrows).
#[derive(Debug)]
pub(crate) enum Effect {
    /// Emit a data-plane frame out of a port of the handling node.
    Frame {
        /// Egress port.
        out_port: PortNo,
        /// Raw frame.
        frame: Vec<u8>,
    },
    /// Send an OpenFlow message on a control connection (from the
    /// handling node's side of it).
    Control {
        /// The connection.
        conn: ConnId,
        /// Encoded message.
        frame: Frame,
    },
    /// Arm a timer owned by the handling node.
    Timer {
        /// Absolute fire time.
        at: SimTime,
        /// Meaning.
        token: TimerToken,
    },
    /// Record a trace event.
    Trace(crate::trace::TraceKind),
}

/// All that is left of the scheduler option. The frozen benchmark
/// (`attain_bench/src/layers.rs`, `queue_pop_push_ns`) names this type;
/// nothing else does, and it selects nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerConfig;

#[derive(Clone)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl QueuedEvent {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time.0, self.seq)
    }
}

/// log2 of the level-0 slot width in nanoseconds: 2^10 ns ≈ 1 µs. Fine
/// enough that same-slot collisions are rare at datacenter event rates,
/// coarse enough that a 64-slot level covers ~65 µs.
const GRANULARITY_BITS: u32 = 10;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` slots are `2^(10 + 6l)` ns wide; eight levels
/// reach `2^58` ns (~9 years) before the overflow list takes over.
const LEVELS: usize = 8;

/// A strictly deterministic future-event list: a hashed hierarchical
/// timer wheel with a strict total order.
///
/// Ties at the same virtual time are broken by insertion order (one
/// sequence counter), so a simulation run is a pure function of its
/// inputs — the property the paper gets from its single-threaded
/// injector's total message order (§VI-C) and that our tests rely on.
///
/// Invariant: every event whose level-0 slot index is `<= cursor` lives
/// in `ready` (sorted descending by `(time, seq)`, popped from the
/// back); every event still parked in a wheel slot has a level-0 index
/// `> cursor`. `peek`/`pop` therefore only ever look at `ready`,
/// and `refill` maintains the invariant by draining or cascading the
/// slot with the smallest covered time range whenever `ready` runs dry.
#[derive(Clone)]
pub struct EventQueue {
    /// `slots[level * SLOTS + slot]`; unsorted buckets.
    slots: Vec<Vec<QueuedEvent>>,
    /// Per-level occupancy bitmap: bit `s` set iff `slots[l*SLOTS+s]`
    /// is non-empty.
    occupied: [u64; LEVELS],
    /// Absolute level-0 slot index up to which slots have been drained.
    cursor: u64,
    /// Drained events, sorted descending by `(time, seq)`.
    ready: Vec<QueuedEvent>,
    /// Events beyond the top level's horizon.
    overflow: Vec<QueuedEvent>,
    /// Next insertion sequence number.
    seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> EventQueue {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        EventQueue {
            slots,
            occupied: [0; LEVELS],
            cursor: 0,
            ready: Vec::with_capacity(SLOTS),
            overflow: Vec::new(),
            seq: 0,
            len: 0,
        }
    }

    /// Kept only because the frozen benchmark calls it
    /// (`attain_bench/src/layers.rs`, `queue_pop_push_ns`); both
    /// arguments are ignored.
    #[doc(hidden)]
    pub fn with_config(_config: SchedulerConfig, _capacity_hint: usize) -> EventQueue {
        EventQueue::new()
    }

    #[inline]
    fn slot_index(time: SimTime) -> u64 {
        time.0 >> GRANULARITY_BITS
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(QueuedEvent {
            time: at,
            seq,
            kind,
        });
        if self.ready.is_empty() {
            self.refill();
        }
    }

    /// Parks `ev` in `ready`, a wheel slot, or the overflow list.
    fn place(&mut self, ev: QueuedEvent) {
        let idx0 = Self::slot_index(ev.time);
        if idx0 <= self.cursor {
            self.insert_ready(ev);
            return;
        }
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let il = idx0 >> shift;
            let cl = self.cursor >> shift;
            // `<=` (not `<`) so a cascaded slot's tail events land strictly
            // below the cascaded level: after `cursor = range_start - 1` an
            // event in the top 1/64th of the old slot's range sits exactly
            // SLOTS level-(l-1) slots past the cursor, and re-filing it at
            // level l would loop refill forever. The candidate scan copes:
            // a distance-SLOTS slot shows up as the cursor's own position.
            if il - cl <= SLOTS as u64 {
                let slot = (il as usize) & (SLOTS - 1);
                self.slots[level * SLOTS + slot].push(ev);
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(ev);
    }

    fn insert_ready(&mut self, ev: QueuedEvent) {
        // `ready` is sorted descending so the minimum pops off the back.
        let key = ev.key();
        let pos = self
            .ready
            .binary_search_by(|e| key.cmp(&e.key()))
            .unwrap_or_else(|p| p);
        self.ready.insert(pos, ev);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let ev = self.ready.pop()?;
        self.len -= 1;
        if self.ready.is_empty() {
            self.refill();
        }
        Some((ev.time, ev.kind))
    }

    /// The earliest event, time and payload, without removing it.
    pub(crate) fn peek(&self) -> Option<(SimTime, &EventKind)> {
        self.ready.last().map(|e| (e.time, &e.kind))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Restores the `ready`-nonempty-unless-empty invariant: repeatedly
    /// drains (level 0) or cascades (level ≥ 1) the pending slot whose
    /// covered time range starts earliest, until `ready` holds the
    /// wheel's minimum.
    ///
    /// Candidate choice matters for correctness: among the next occupied
    /// slot of every level, the one with the smallest *range start* must
    /// be processed first, and on a tie the *higher* level first — a
    /// level-l slot whose range starts at or before the next level-0
    /// slot may contain events earlier than anything in that level-0
    /// slot, so it has to cascade down before level 0 drains.
    fn refill(&mut self) {
        while self.ready.is_empty() {
            let mut best: Option<(u64, usize, usize)> = None; // (range_start, level, slot)
            for level in 0..LEVELS {
                let occ = self.occupied[level];
                if occ == 0 {
                    continue;
                }
                let shift = SLOT_BITS * level as u32;
                let cl = self.cursor >> shift;
                let cslot = (cl as usize) & (SLOTS - 1);
                // Distance (in level-l slots) to the next occupied slot,
                // scanning circularly just past the cursor's own slot.
                let rotated = occ.rotate_right((cslot as u32 + 1) & 63);
                let dist = u64::from(rotated.trailing_zeros()) + 1;
                let il = cl + dist;
                let range_start = il << shift;
                let better = match best {
                    None => true,
                    Some((bs, bl, _)) => range_start < bs || (range_start == bs && level > bl),
                };
                if better {
                    best = Some((range_start, level, (il as usize) & (SLOTS - 1)));
                }
            }
            match best {
                Some((range_start, 0, slot)) => {
                    // The slot takes `ready`'s empty buffer in exchange,
                    // so it keeps a buffer for the events filed next.
                    debug_assert!(self.ready.is_empty());
                    std::mem::swap(&mut self.ready, &mut self.slots[slot]);
                    self.occupied[0] &= !(1 << slot);
                    self.cursor = range_start; // == level-0 slot index
                    self.ready.sort_by_key(|e| std::cmp::Reverse(e.key()));
                    return;
                }
                Some((range_start, level, slot)) => {
                    // Taken, not swapped: upper-level slots keeping their
                    // buffers measured +40% peak RSS.
                    let cascaded = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                    self.occupied[level] &= !(1 << slot);
                    // Events in this slot have level-0 indices >= range_start;
                    // the cursor must sit strictly below them so `place`
                    // re-files them into lower levels (or level 0).
                    self.cursor = range_start - 1;
                    for ev in cascaded {
                        self.place(ev);
                    }
                }
                None => {
                    // Jump the cursor to just below the earliest overflow
                    // event and re-file whatever now fits in the wheel.
                    let earliest = self.overflow.iter().map(|e| Self::slot_index(e.time)).min();
                    let Some(min_idx) = earliest else {
                        return; // wheel truly empty
                    };
                    self.cursor = self.cursor.max(min_idx.saturating_sub(1));
                    for ev in std::mem::take(&mut self.overflow) {
                        self.place(ev);
                    }
                }
            }
        }
    }
}

impl fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("next_seq", &self.seq)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Frame arena
// ---------------------------------------------------------------------------

/// Slab storage for in-flight data-plane frame payloads.
///
/// A payload is stored exactly once when its delivery event is
/// scheduled and taken exactly once when the event dispatches, so a
/// frame's arena lifetime equals its time on the wire. Freed slots are
/// recycled through a free list: at steady state the slab stops
/// growing, queue records stay at 96 bytes regardless of frame size
/// (time, `seq`, and an [`EventKind`] as wide as its widest variant,
/// the 80-byte `HostCommand` of `Command`), and wheel cascades move
/// index math, not packet buffers.
#[derive(Debug, Default, Clone)]
pub(crate) struct FrameArena {
    slots: Vec<Vec<u8>>,
    free: Vec<u32>,
}

impl FrameArena {
    pub(crate) fn with_capacity(n: usize) -> FrameArena {
        FrameArena {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Parks `frame` and returns its handle.
    pub(crate) fn store(&mut self, frame: Vec<u8>) -> FrameRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = frame;
                FrameRef(i)
            }
            None => {
                // Each slot holds a frame in flight: 2^32 of them do not fit
                // in memory first.
                #[allow(clippy::expect_used)]
                let i = u32::try_from(self.slots.len()).expect("frame arena overflow");
                self.slots.push(frame);
                FrameRef(i)
            }
        }
    }

    /// Takes the payload back out, freeing the slot.
    pub(crate) fn take(&mut self, r: FrameRef) -> Vec<u8> {
        let buf = std::mem::take(&mut self.slots[r.0 as usize]);
        self.free.push(r.0);
        buf
    }

    /// Frames currently parked (stored but not yet taken).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn queue_records_are_as_large_as_documented() {
        // `FrameArena`'s docs and DESIGN.md §13 state these figures.
        // Boxing `Command` halves the record and was measured slower
        // (ROADMAP item 2), so the size is pinned, not minimised.
        assert!(std::mem::size_of::<EventKind>() <= 80);
        assert!(std::mem::size_of::<QueuedEvent>() <= 96);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), EventKind::InterposerWake);
        q.schedule(SimTime::from_secs(1), EventKind::InterposerWake);
        q.schedule(SimTime::from_secs(2), EventKind::InterposerWake);
        let times: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(
            t,
            EventKind::NodeTimer {
                node: NodeId(0),
                token: TimerToken::SwitchTick,
            },
        );
        q.schedule(
            t,
            EventKind::NodeTimer {
                node: NodeId(1),
                token: TimerToken::SwitchTick,
            },
        );
        let (_, first) = q.pop().unwrap();
        let (_, second) = q.pop().unwrap();
        match (first, second) {
            (EventKind::NodeTimer { node: a, .. }, EventKind::NodeTimer { node: b, .. }) => {
                assert_eq!(a, NodeId(0));
                assert_eq!(b, NodeId(1));
            }
            _ => panic!("unexpected kinds"),
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), EventKind::InterposerWake);
        assert_eq!(q.peek().map(|(t, _)| t), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
    }

    /// A tiny deterministic generator (xorshift64*) for differential
    /// tests; seeds must be non-zero.
    struct TestRng(u64);
    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    fn timer(node: usize) -> EventKind {
        EventKind::NodeTimer {
            node: NodeId(node),
            token: TimerToken::SwitchTick,
        }
    }

    fn node_of(kind: &EventKind) -> usize {
        match kind {
            EventKind::NodeTimer { node, .. } => node.0,
            _ => panic!("expected NodeTimer"),
        }
    }

    /// The reference the wheel is checked against: a binary heap over
    /// `(time, seq, node)`, the structure the simulator used before the
    /// wheel and whose pop order defines the determinism contract.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
        seq: u64,
    }

    impl HeapModel {
        fn schedule(&mut self, at: SimTime, node: usize) {
            self.heap.push(Reverse((at.0, self.seq, node)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            self.heap.pop().map(|Reverse((t, _, n))| (SimTime(t), n))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((t, ..))| SimTime(*t))
        }
    }

    /// Drives the wheel and the heap model through the same bursty
    /// schedule/pop workload and compares `pop()`, the earliest time and
    /// `len()` after every step.
    #[test]
    fn wheel_matches_heap_model_step_by_step() {
        for seed in 1..=8u64 {
            let mut wheel = EventQueue::new();
            let mut model = HeapModel::default();
            let mut rng = TestRng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut now = 0u64;
            for step in 0..4000 {
                // Re-insertion at the cursor, same-time ties, every
                // wheel level, and overflow-range events.
                let r = rng.next();
                let dt = match r % 7 {
                    0 => 0,
                    1 => r % 1_000,                 // sub-slot
                    2 => r % 100_000,               // level 0/1
                    3 => r % 50_000_000,            // level 2/3
                    4 => r % 5_000_000_000,         // level 4/5
                    5 => r % 400_000_000_000_000,   // level 6/7
                    _ => 1_000_000_000_000_000_000, // overflow
                };
                wheel.schedule(SimTime(now + dt), timer(step % 11));
                model.schedule(SimTime(now + dt), step % 11);
                if r.is_multiple_of(3) {
                    let got = wheel.pop().map(|(t, k)| (t, node_of(&k)));
                    assert_eq!(got, model.pop(), "seed {seed} step {step}");
                    now = got.expect("just scheduled").0 .0;
                }
                assert_eq!(
                    wheel.peek().map(|(t, _)| t),
                    model.peek_time(),
                    "seed {seed} step {step}"
                );
                assert_eq!(wheel.len(), model.heap.len(), "seed {seed} step {step}");
            }
            while let Some(want) = model.pop() {
                let got = wheel.pop().map(|(t, k)| (t, node_of(&k)));
                assert_eq!(got, Some(want), "seed {seed} drain");
                assert_eq!(
                    wheel.peek().map(|(t, _)| t),
                    model.peek_time(),
                    "seed {seed} drain"
                );
                assert_eq!(wheel.len(), model.heap.len(), "seed {seed} drain");
            }
            assert!(wheel.len() == 0 && wheel.pop().is_none());
        }
    }

    #[test]
    fn wheel_handles_same_slot_ties_and_reinsertion_at_cursor() {
        let mut q = EventQueue::new();
        // Two events in the same level-0 slot, inserted out of order.
        q.schedule(SimTime(2048 + 7), EventKind::InterposerWake);
        q.schedule(SimTime(2048 + 3), EventKind::InterposerWake);
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, SimTime(2048 + 3));
        // Scheduling back into the already-drained slot must still order
        // after the popped event but before the remaining one.
        q.schedule(SimTime(2048 + 5), EventKind::InterposerWake);
        let (t2, _) = q.pop().unwrap();
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime(2048 + 5));
        assert_eq!(t3, SimTime(2048 + 7));
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_cascade_preserves_order_across_levels() {
        let mut q = EventQueue::new();
        // An event far out (level >= 1) and one just before it in a
        // level-0 slot; the higher-level slot's range starts earlier, so
        // the cascade-first rule is what keeps this ordered.
        let base = 1u64 << (GRANULARITY_BITS + SLOT_BITS); // first level-1 slot
        q.schedule(SimTime(base + 10), EventKind::InterposerWake);
        q.schedule(SimTime(base + 5_000), EventKind::InterposerWake);
        q.schedule(SimTime(100), EventKind::InterposerWake);
        let times: Vec<_> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.0)).collect();
        assert_eq!(times, vec![100, base + 10, base + 5_000]);
    }

    #[test]
    fn frame_arena_round_trips_and_recycles() {
        let mut a = FrameArena::with_capacity(4);
        let r1 = a.store(vec![1, 2, 3]);
        let r2 = a.store(vec![4, 5]);
        assert_eq!(a.live(), 2);
        assert_eq!(a.take(r1), vec![1, 2, 3]);
        assert_eq!(a.live(), 1);
        let r3 = a.store(vec![6]); // reuses r1's slot
        assert_eq!(r3.0, r1.0);
        assert_eq!(a.take(r2), vec![4, 5]);
        assert_eq!(a.take(r3), vec![6]);
        assert_eq!(a.live(), 0);
    }
}
