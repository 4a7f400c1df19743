//! Full-duplex point-to-point links with bandwidth and delay.

use crate::engine::NodeId;
use crate::fault::{DetRng, LinkChange};
use crate::time::SimTime;
use attain_openflow::PortNo;

/// The paper's testbed links (GENI): 100 Mb/s, with a quarter of a
/// millisecond of propagation and stack delay.
const BANDWIDTH_BPS: u64 = 100_000_000;
const DELAY: SimTime = SimTime::from_micros(250);
/// 50 ms of queueing at line rate ≈ a 600 KB buffer on a 100 Mb/s link,
/// roughly a small switch port buffer.
const MAX_QUEUE_DELAY: SimTime = SimTime::from_millis(50);

/// One attachment point of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct LinkEnd {
    /// The attached node.
    pub(crate) node: NodeId,
    /// The node's port number on this link.
    pub(crate) port: PortNo,
}

/// A full-duplex link between two node ports.
///
/// Each direction has an independent transmitter modelled as a
/// store-and-forward serializer: a frame departs when the transmitter
/// frees up, occupies it for `bits / bandwidth`, then arrives after the
/// propagation `delay`. Frames whose queueing delay would exceed
/// `MAX_QUEUE_DELAY` are dropped (drop-tail), bounding buffer memory the
/// way a real NIC ring does.
///
/// A fault's [`LinkChange`] reaches the link through `Link::apply`: it
/// can sever the link, override its characteristics, and impose seeded
/// per-frame loss and corruption; a restore goes back to the testbed's
/// bandwidth and delay.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    /// First endpoint.
    pub(crate) a: LinkEnd,
    /// Second endpoint.
    pub(crate) b: LinkEnd,
    /// Bandwidth in bits per second.
    bandwidth_bps: u64,
    /// One-way propagation delay.
    delay: SimTime,
    busy_until_ab: SimTime,
    busy_until_ba: SimTime,
    /// Frames dropped at the `a → b` transmitter.
    pub(crate) drops_ab: u64,
    /// Frames dropped at the `b → a` transmitter.
    pub(crate) drops_ba: u64,
    up: bool,
    loss_pct: u8,
    corrupt_pct: u8,
    rng: DetRng,
    /// Frames accepted at the `a → b` transmitter.
    pub(crate) tx_ab: u64,
    /// Frames accepted at the `b → a` transmitter.
    pub(crate) tx_ba: u64,
    /// Frames dropped because the link was down (either direction).
    pub(crate) down_drops: u64,
    /// Frames dropped by the seeded loss process.
    pub(crate) lost: u64,
    /// Frames bit-flipped by the seeded corruption process.
    pub(crate) corrupted: u64,
    /// Up→down transitions.
    pub(crate) down_events: u64,
}

/// The outcome of offering a frame to a link transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxOutcome {
    /// The frame will arrive at the far end at this time.
    Arrives(SimTime),
    /// The transmit queue was full; the frame is dropped.
    Dropped,
}

impl Link {
    /// Creates a testbed link between two endpoints.
    pub(crate) fn new(a: LinkEnd, b: LinkEnd) -> Link {
        Link {
            a,
            b,
            bandwidth_bps: BANDWIDTH_BPS,
            delay: DELAY,
            busy_until_ab: SimTime::ZERO,
            busy_until_ba: SimTime::ZERO,
            drops_ab: 0,
            drops_ba: 0,
            up: true,
            loss_pct: 0,
            corrupt_pct: 0,
            rng: DetRng::new(0),
            tx_ab: 0,
            tx_ba: 0,
            down_drops: 0,
            lost: 0,
            corrupted: 0,
            down_events: 0,
        }
    }

    // ---- fault state --------------------------------------------------

    /// Whether the link is currently up.
    pub(crate) fn is_up(&self) -> bool {
        self.up
    }

    /// Applies a fault's change; `true` if it is one the trace records.
    /// `Down` (or the down phase of a `Flap`) discards the frames queued
    /// in the transmitters (the serializers idle), and offers while down
    /// are counted in [`Link::down_drops`]; `Restore` brings the link up
    /// at the testbed's bandwidth and delay with no loss or corruption.
    /// `Down` and `Up` count only as transitions, a `Flap` only with
    /// cycles left (re-arming it is the simulation's), and every other
    /// change always.
    pub(crate) fn apply(&mut self, change: &LinkChange) -> bool {
        match *change {
            LinkChange::Flap { count: 0, .. } => false,
            LinkChange::Down | LinkChange::Flap { .. } => {
                let was_up = std::mem::replace(&mut self.up, false);
                if was_up {
                    self.down_events += 1;
                    self.busy_until_ab = SimTime::ZERO;
                    self.busy_until_ba = SimTime::ZERO;
                }
                was_up || matches!(change, LinkChange::Flap { .. })
            }
            LinkChange::Up => !std::mem::replace(&mut self.up, true),
            LinkChange::Degrade {
                bandwidth_bps,
                delay,
            } => {
                self.bandwidth_bps = bandwidth_bps.map_or(self.bandwidth_bps, |bw| bw.max(1));
                self.delay = delay.unwrap_or(self.delay);
                true
            }
            LinkChange::Restore => {
                self.bandwidth_bps = BANDWIDTH_BPS;
                self.delay = DELAY;
                self.loss_pct = 0;
                self.corrupt_pct = 0;
                self.up = true;
                true
            }
            LinkChange::Loss(pct) => {
                self.loss_pct = pct;
                true
            }
            LinkChange::Corrupt(pct) => {
                self.corrupt_pct = pct;
                true
            }
        }
    }

    /// Re-derives this link's random stream from the scenario seed and
    /// the link's index (so per-link streams are decorrelated).
    pub(crate) fn reseed(&mut self, scenario_seed: u64, link_index: usize) {
        self.rng = DetRng::new(scenario_seed ^ ((link_index as u64 + 1).wrapping_mul(0x9e37)));
    }

    /// Applies the stochastic fault processes to a frame about to be
    /// transmitted: returns `false` if the loss process eats it (counted
    /// in [`Link::lost`]), and otherwise flips a random bit per
    /// corruption hit (counted in [`Link::corrupted`]).
    ///
    /// The random stream advances only for configured processes, so
    /// fault-free links stay byte-identical to pre-fault builds.
    pub(crate) fn stochastic(&mut self, frame: &mut [u8]) -> bool {
        if self.loss_pct > 0 && self.rng.chance(self.loss_pct) {
            self.lost += 1;
            return false;
        }
        if self.corrupt_pct > 0 && self.rng.chance(self.corrupt_pct) && !frame.is_empty() {
            let bit = self.rng.below(frame.len() as u64 * 8);
            frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.corrupted += 1;
        }
        true
    }

    /// The far end relative to `node`, if `node` is attached.
    #[cfg(test)]
    pub(crate) fn opposite(&self, node: NodeId) -> Option<LinkEnd> {
        if self.a.node == node {
            Some(self.b)
        } else if self.b.node == node {
            Some(self.a)
        } else {
            None
        }
    }

    /// Serialization time for a frame of `bytes` bytes.
    pub(crate) fn tx_time(&self, bytes: usize) -> SimTime {
        SimTime((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// Offers a frame for transmission from `from` at time `now`.
    ///
    /// Updates the transmitter occupancy and drop counters.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub(crate) fn transmit(&mut self, from: NodeId, bytes: usize, now: SimTime) -> TxOutcome {
        let tx = self.tx_time(bytes);
        let (busy, drops, tx_count) = if self.a.node == from {
            (&mut self.busy_until_ab, &mut self.drops_ab, &mut self.tx_ab)
        } else if self.b.node == from {
            (&mut self.busy_until_ba, &mut self.drops_ba, &mut self.tx_ba)
        } else {
            panic!("node {from} is not attached to this link");
        };
        if !self.up {
            self.down_drops += 1;
            return TxOutcome::Dropped;
        }
        let start = (*busy).max(now);
        if start.saturating_sub(now) > MAX_QUEUE_DELAY {
            *drops += 1;
            return TxOutcome::Dropped;
        }
        *busy = start + tx;
        *tx_count += 1;
        TxOutcome::Arrives(start + tx + self.delay)
    }
}

/// Where a frame sent out of one port goes: the link and its far end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    /// Index of the link in the simulation's link list.
    pub link: usize,
    /// The end a frame sent out of this port arrives at.
    pub far: LinkEnd,
}

/// Every linked port's [`Hop`], addressed by index: node `n`'s ports
/// `1..=k` are the run `hops[starts[n]..starts[n + 1]]`, in port order.
/// Ports are numbered densely in link order, so a run has no holes.
/// Built once, with the links.
#[derive(Debug, Clone)]
pub(crate) struct PortTable {
    starts: Vec<usize>,
    hops: Vec<Hop>,
}

impl PortTable {
    /// The table for `links`, where node `n` has ports `1..=ports[n]`
    /// and each is an end of exactly one link.
    pub(crate) fn new(ports: &[u16], links: &[Link]) -> PortTable {
        let mut starts = Vec::with_capacity(ports.len() + 1);
        starts.push(0);
        for &n in ports {
            starts.push(starts[starts.len() - 1] + usize::from(n));
        }
        let unset = Hop {
            link: usize::MAX,
            far: LinkEnd {
                node: NodeId(usize::MAX),
                port: PortNo::NONE,
            },
        };
        let mut hops = vec![unset; starts[ports.len()]];
        for (link, l) in links.iter().enumerate() {
            for (near, far) in [(l.a, l.b), (l.b, l.a)] {
                hops[starts[near.node.0] + usize::from(near.port.0) - 1] = Hop { link, far };
            }
        }
        debug_assert!(!hops.contains(&unset), "a port without a link");
        PortTable { starts, hops }
    }

    /// The hop out of `node`'s `port`; `None` for a port with no link
    /// (port 0, one past the node's last, or a reserved port).
    #[inline]
    pub(crate) fn get(&self, node: NodeId, port: PortNo) -> Option<Hop> {
        let run = &self.hops[self.starts[node.0]..self.starts[node.0 + 1]];
        run.get(usize::from(port.0).checked_sub(1)?).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn link() -> Link {
        Link::new(
            LinkEnd {
                node: NodeId(0),
                port: PortNo(1),
            },
            LinkEnd {
                node: NodeId(1),
                port: PortNo(2),
            },
        )
    }

    #[test]
    fn single_frame_latency_is_tx_plus_delay() {
        let mut l = link();
        // 1250 bytes at 100 Mb/s = 100 µs serialization.
        match l.transmit(NodeId(0), 1250, SimTime::ZERO) {
            TxOutcome::Arrives(t) => {
                assert_eq!(t, SimTime::from_micros(100) + SimTime::from_micros(250))
            }
            TxOutcome::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let mut l = link();
        let t1 = match l.transmit(NodeId(0), 1250, SimTime::ZERO) {
            TxOutcome::Arrives(t) => t,
            _ => panic!(),
        };
        let t2 = match l.transmit(NodeId(0), 1250, SimTime::ZERO) {
            TxOutcome::Arrives(t) => t,
            _ => panic!(),
        };
        assert_eq!(t2 - t1, SimTime::from_micros(100)); // one serialization apart
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link();
        let fwd = l.transmit(NodeId(0), 1250, SimTime::ZERO);
        let rev = l.transmit(NodeId(1), 1250, SimTime::ZERO);
        assert_eq!(fwd, rev); // no cross-direction contention
    }

    #[test]
    fn sustained_overload_drops() {
        let mut l = link();
        let mut dropped = 0;
        // 50 ms of queue at 100 µs/frame holds ~500 frames.
        for _ in 0..1000 {
            if l.transmit(NodeId(0), 1250, SimTime::ZERO) == TxOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(dropped > 400, "expected heavy drop-tail, got {dropped}");
        assert_eq!(l.drops_ab, dropped);
        assert_eq!(l.drops_ba, 0);
    }

    #[test]
    fn opposite_end_lookup() {
        let l = link();
        assert_eq!(l.opposite(NodeId(0)).unwrap().node, NodeId(1));
        assert_eq!(l.opposite(NodeId(1)).unwrap().port, PortNo(1));
        assert_eq!(l.opposite(NodeId(9)), None);
    }

    #[test]
    fn down_link_drops_everything_until_up() {
        let mut l = link();
        assert!(l.apply(&LinkChange::Down));
        assert!(!l.apply(&LinkChange::Down)); // idempotent
        assert_eq!(
            l.transmit(NodeId(0), 100, SimTime::ZERO),
            TxOutcome::Dropped
        );
        assert_eq!(
            l.transmit(NodeId(1), 100, SimTime::ZERO),
            TxOutcome::Dropped
        );
        assert_eq!(l.down_drops, 2);
        assert_eq!(l.down_events, 1);
        assert!(l.apply(&LinkChange::Up));
        assert!(matches!(
            l.transmit(NodeId(0), 100, SimTime::from_secs(1)),
            TxOutcome::Arrives(_)
        ));
        assert_eq!(l.tx_ab, 1);
    }

    #[test]
    fn degrade_and_restore_change_characteristics() {
        let mut l = link();
        l.apply(&LinkChange::Degrade {
            bandwidth_bps: Some(1_000_000),
            delay: Some(SimTime::from_millis(10)),
        });
        // 1250 bytes at 1 Mb/s = 10 ms serialization + 10 ms delay.
        match l.transmit(NodeId(0), 1250, SimTime::ZERO) {
            TxOutcome::Arrives(t) => assert_eq!(t, SimTime::from_millis(20)),
            TxOutcome::Dropped => panic!("dropped"),
        }
        l.apply(&LinkChange::Restore);
        assert_eq!(l.bandwidth_bps, 100_000_000);
        assert_eq!(l.delay, SimTime::from_micros(250));
    }

    #[test]
    fn seeded_loss_is_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut l = link();
            l.reseed(seed, 0);
            l.apply(&LinkChange::Loss(50));
            let mut frame = vec![0u8; 64];
            (0..100).map(|_| l.stochastic(&mut frame)).collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let mut l = link();
        l.reseed(5, 0);
        l.apply(&LinkChange::Loss(50));
        let mut frame = vec![0u8; 64];
        for _ in 0..100 {
            l.stochastic(&mut frame);
        }
        assert!((20..80).contains(&(l.lost as i64)), "lost={}", l.lost);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut l = link();
        l.reseed(9, 0);
        l.apply(&LinkChange::Corrupt(100));
        let orig = vec![0u8; 64];
        let mut frame = orig.clone();
        assert!(l.stochastic(&mut frame));
        let flipped: u32 = frame
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(l.corrupted, 1);
    }

    #[test]
    fn fault_free_links_do_not_touch_the_rng() {
        let mut l = link();
        l.reseed(3, 0);
        let before = l.rng;
        let mut frame = vec![1u8; 32];
        assert!(l.stochastic(&mut frame));
        assert_eq!(l.rng, before);
        assert_eq!(frame, vec![1u8; 32]);
    }

    #[test]
    fn throughput_saturates_at_line_rate() {
        // Offer 2x line rate for one second; accepted bytes ≈ 100 Mb.
        let mut l = link();
        let frame = 1250; // 10 µs... actually 100 µs at 100 Mb/s
        let mut accepted = 0u64;
        let mut now = SimTime::ZERO;
        // Offer a frame every 50 µs (2x line rate).
        for i in 0..20_000 {
            now = SimTime::from_micros(50 * i);
            if matches!(l.transmit(NodeId(0), frame, now), TxOutcome::Arrives(_)) {
                accepted += frame as u64;
            }
        }
        let seconds = now.as_secs_f64();
        let mbps = accepted as f64 * 8.0 / seconds / 1e6;
        // Line rate plus at most the 50 ms queue's worth of slack.
        assert!(
            (95.0..=106.0).contains(&mbps),
            "accepted rate {mbps} Mb/s should be ≈ line rate"
        );
    }

    proptest! {
        /// Per-direction link arrivals are monotone in offer order and
        /// never earlier than tx-time + propagation.
        #[test]
        fn link_arrivals_are_monotone(
            frames in proptest::collection::vec((64usize..1514, 0u64..1_000_000), 1..50),
        ) {
            let mut l = link();
            let mut last_arrival = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            for (bytes, gap_ns) in frames {
                now += SimTime::from_nanos(gap_ns);
                if let TxOutcome::Arrives(at) = l.transmit(NodeId(0), bytes, now) {
                    prop_assert!(at >= last_arrival, "reordering on the wire");
                    prop_assert!(at >= now + l.tx_time(bytes) + l.delay);
                    last_arrival = at;
                }
            }
        }
    }
}
