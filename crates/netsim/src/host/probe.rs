//! The flow-table capacity inference probe: an attacker-side workload
//! that recovers a switch's configured table capacity from the data
//! plane alone.
//!
//! The probe runs four phases against a victim destination:
//!
//! 1. **Warmup** — a few ordinary echo trials. These resolve ARP,
//!    install the probe host's own pair of flow entries, and establish
//!    the *fast-path* RTT baseline (the minimum over the warmup trials;
//!    the first trial pays the table-miss penalty, later ones do not).
//! 2. **Fill** — `fill` echo requests, each from a distinct spoofed
//!    locally-administered source MAC (and a distinct RFC-1918 source
//!    IP, so the victim's ARP table is not corrupted). Under an
//!    L2-learning controller every spoofed flow installs two entries
//!    (request and reply direction), steadily filling the table.
//! 3. **Settle** — a quiet period so in-flight installs complete.
//! 4. **Sweep** — the fill probes are re-sent in *reverse* order. A
//!    probe whose entries are still resident round-trips on the fast
//!    path; an evicted (or never-installed) probe pays controller
//!    round-trips and classifies as slow. The reverse order matters:
//!    under LRU, FIFO, and reject policies alike, any eviction cascade
//!    the sweep itself causes only consumes entries belonging to
//!    already-measured probes.
//!
//! With fast count `F` the capacity estimate is `2F + 2` when probe 0
//! survived (the two warmup entries are also resident — the reject
//! policy's signature) and `2F` otherwise (warmup was evicted first).
//! For even capacities the estimate is exact; odd capacities are off by
//! at most one.

use super::AppSend;
use crate::time::SimTime;
use attain_openflow::MacAddr;
use std::net::Ipv4Addr;

/// Warmup echo trials before the fill phase.
const WARMUP_COUNT: u16 = 3;
/// Quiet gaps between the fill and sweep phases.
const SETTLE_GAPS: u64 = 5;
/// Sweep RTTs more than this far above the warmup baseline are slow.
const SLOW_MARGIN_MS: f64 = 1.0;

/// Results of one capacity-inference probe run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStats {
    /// The run's label (the command line that started it).
    pub label: String,
    /// The victim destination.
    pub dst: Ipv4Addr,
    /// Spoofed flows sent during the fill phase.
    pub fill: usize,
    warmup_rtts: Vec<Option<f64>>,
    /// Sweep RTTs in *probe index* order (index 0 = first fill probe).
    sweep_rtts: Vec<Option<f64>>,
    done: bool,
}

impl ProbeStats {
    /// Whether the sweep completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The fast-path RTT baseline: minimum warmup RTT, if any reply
    /// arrived.
    pub(crate) fn baseline_ms(&self) -> Option<f64> {
        self.warmup_rtts
            .iter()
            .flatten()
            .copied()
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.min(r))))
    }

    /// Sweep RTTs in fill-probe order (`None` = no reply).
    pub fn sweep_rtts_ms(&self) -> &[Option<f64>] {
        &self.sweep_rtts
    }

    /// Whether sweep probe `i` classified as fast (entries resident).
    /// Lost probes are slow: a missing reply is never the fast path.
    pub(crate) fn is_fast(&self, i: usize) -> bool {
        match (self.sweep_rtts.get(i), self.baseline_ms()) {
            (Some(Some(rtt)), Some(base)) => *rtt <= base + SLOW_MARGIN_MS,
            _ => false,
        }
    }

    /// Sweep probes that classified as fast.
    pub fn fast_count(&self) -> usize {
        (0..self.sweep_rtts.len())
            .filter(|&i| self.is_fast(i))
            .count()
    }

    /// The inferred table capacity, or `None` before the sweep finishes
    /// (or if no warmup baseline exists).
    ///
    /// Each resident probe accounts for two entries; if probe 0 is
    /// still resident nothing was ever evicted, so the two warmup
    /// entries are resident too.
    pub fn estimate(&self) -> Option<usize> {
        if !self.done {
            return None;
        }
        self.baseline_ms()?;
        let f = self.fast_count();
        Some(2 * f + if self.is_fast(0) { 2 } else { 0 })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup(u16),
    Fill(usize),
    Settle,
    Sweep(usize),
    Done,
}

/// A running capacity-inference probe on a host.
#[derive(Debug, Clone)]
pub(crate) struct CapacityProbeApp {
    label: String,
    dst: Ipv4Addr,
    fill: usize,
    gap: SimTime,
    ident: u16,
    phase: Phase,
    /// Send time per sequence number (1-based), all phases.
    sent_at: Vec<SimTime>,
    rtts: Vec<Option<f64>>,
}

impl CapacityProbeApp {
    pub(crate) fn new(
        label: String,
        dst: Ipv4Addr,
        fill: usize,
        gap: SimTime,
        ident: u16,
    ) -> CapacityProbeApp {
        CapacityProbeApp {
            label,
            dst,
            fill,
            gap,
            ident,
            phase: Phase::Warmup(0),
            sent_at: Vec::new(),
            rtts: Vec::new(),
        }
    }

    /// The spoofed source MAC for fill probe `i`: locally-administered
    /// unicast, partitioned per app so concurrent probes never collide
    /// with each other or with real host/switch-port MACs.
    fn probe_mac(&self, i: usize) -> MacAddr {
        MacAddr::from_low(0x0200_0000_0000 | (u64::from(self.ident) << 16) | i as u64)
    }

    /// The spoofed source IP for fill probe `i` (172.16/16: never a
    /// simulated host address, so the victim's ARP table stays clean).
    fn probe_ip(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr::from(0xac10_0000_u32 + i as u32 + 1)
    }

    /// Whether `mac` is one of this probe's spoofed sources.
    pub(crate) fn owns(&self, mac: MacAddr) -> bool {
        let mut v = 0u64;
        for b in mac.0 {
            v = v << 8 | u64::from(b);
        }
        let base = 0x0200_0000_0000 | (u64::from(self.ident) << 16);
        v >= base && v < base + self.fill as u64
    }

    /// Records a trial sent `now`: an echo request from the host's own
    /// address, or from fill probe `spoof`'s spoofed source.
    fn echo(&mut self, now: SimTime, spoof: Option<usize>) -> AppSend {
        self.sent_at.push(now);
        self.rtts.push(None);
        AppSend::Echo {
            dst: self.dst,
            ident: self.ident,
            seq: self.sent_at.len() as u16,
            spoof: spoof.map(|i| (self.probe_mac(i), self.probe_ip(i))),
        }
    }

    /// The timer fired: what to send, and when to fire next (`None`
    /// when the run is over). Warmup trials are ordinary pings.
    pub(crate) fn on_timer(&mut self, now: SimTime) -> (AppSend, Option<SimTime>) {
        match self.phase {
            Phase::Warmup(k) => {
                self.phase = if k + 1 < WARMUP_COUNT {
                    Phase::Warmup(k + 1)
                } else {
                    Phase::Fill(0)
                };
                (self.echo(now, None), Some(now + self.gap))
            }
            Phase::Fill(i) => {
                let send = self.echo(now, Some(i));
                if i + 1 < self.fill {
                    self.phase = Phase::Fill(i + 1);
                    (send, Some(now + self.gap))
                } else {
                    self.phase = Phase::Settle;
                    let settle = SimTime::from_nanos(self.gap.as_nanos() * SETTLE_GAPS);
                    (send, Some(now + settle))
                }
            }
            Phase::Settle => {
                self.phase = Phase::Sweep(0);
                (AppSend::Nothing, Some(now + self.gap))
            }
            Phase::Sweep(p) => {
                // Reverse order: newest fill probe first.
                let send = self.echo(now, Some(self.fill - 1 - p));
                if p + 1 < self.fill {
                    self.phase = Phase::Sweep(p + 1);
                    (send, Some(now + self.gap))
                } else {
                    self.phase = Phase::Done;
                    (send, None)
                }
            }
            Phase::Done => (AppSend::Nothing, None),
        }
    }

    /// An echo reply with our identifier arrived.
    pub(crate) fn on_reply(&mut self, seq: u16, now: SimTime) {
        let idx = seq as usize;
        if idx == 0 || idx > self.sent_at.len() {
            return;
        }
        let sent = self.sent_at[idx - 1];
        if self.rtts[idx - 1].is_none() {
            self.rtts[idx - 1] = Some(now.saturating_sub(sent).as_millis_f64());
        }
    }

    pub(crate) fn stats(&self) -> ProbeStats {
        let w = WARMUP_COUNT as usize;
        let warmup_rtts = self.rtts.iter().take(w).copied().collect();
        // Sweep seq p (0-based within the sweep) measured fill probe
        // `fill - 1 - p`; re-index into fill-probe order.
        let mut sweep_rtts = vec![None; self.fill];
        for p in 0..self.fill {
            if let Some(&rtt) = self.rtts.get(w + self.fill + p) {
                sweep_rtts[self.fill - 1 - p] = rtt;
            }
        }
        ProbeStats {
            label: self.label.clone(),
            dst: self.dst,
            fill: self.fill,
            warmup_rtts,
            sweep_rtts,
            done: self.phase == Phase::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(fill: usize) -> CapacityProbeApp {
        CapacityProbeApp::new(
            "test".into(),
            "10.0.0.2".parse().unwrap(),
            fill,
            SimTime::from_millis(10),
            0,
        )
    }

    /// Drives the app to completion, replying to every send with the
    /// given per-probe-index RTT (`None` = no reply). Returns the stats.
    fn drive(mut p: CapacityProbeApp, sweep_rtt: impl Fn(usize) -> Option<SimTime>) -> ProbeStats {
        let fill = p.fill;
        let mut now = SimTime::ZERO;
        loop {
            let (send, next) = p.on_timer(now);
            let seq = match send {
                AppSend::Echo {
                    seq, spoof: None, ..
                } => Some((seq, SimTime::from_micros(200))),
                AppSend::Echo {
                    seq,
                    spoof: Some((src_mac, _)),
                    ..
                } => {
                    assert!(p.owns(src_mac));
                    let idx_in_run = seq as usize - 1;
                    let w = WARMUP_COUNT as usize;
                    if idx_in_run < w + fill {
                        // Fill phase: always answered (slowly; ignored).
                        Some((seq, SimTime::from_millis(3)))
                    } else {
                        // Sweep: probe index from reverse order.
                        let probe = fill - 1 - (idx_in_run - w - fill);
                        sweep_rtt(probe).map(|rtt| (seq, rtt))
                    }
                }
                AppSend::Nothing => None,
                AppSend::Tcp { .. } => panic!("a probe sends no TCP"),
            };
            if let Some((seq, rtt)) = seq {
                p.on_reply(seq, now + rtt);
            }
            match next {
                Some(t) => now = t,
                None => break,
            }
        }
        p.stats()
    }

    #[test]
    fn estimate_counts_two_entries_per_fast_probe() {
        // Probes 6..10 resident (fast), 0..6 evicted: an evicting policy
        // with capacity 2*4 = 8.
        let stats = drive(app(10), |i| {
            Some(if i >= 6 {
                SimTime::from_micros(250)
            } else {
                SimTime::from_millis(4)
            })
        });
        assert!(stats.is_done());
        assert_eq!(stats.fast_count(), 4);
        assert!(!stats.is_fast(0));
        assert_eq!(stats.estimate(), Some(8));
    }

    #[test]
    fn resident_probe_zero_adds_warmup_entries() {
        // Probes 0..3 resident, rest rejected: the reject policy with
        // capacity 2 (warmup) + 2*3 = 8.
        let stats = drive(app(10), |i| {
            Some(if i < 3 {
                SimTime::from_micros(250)
            } else {
                SimTime::from_millis(4)
            })
        });
        assert_eq!(stats.estimate(), Some(8));
    }

    #[test]
    fn lost_sweep_replies_classify_slow() {
        let stats = drive(app(4), |i| (i >= 2).then(|| SimTime::from_micros(250)));
        assert_eq!(stats.fast_count(), 2);
        assert_eq!(stats.sweep_rtts_ms()[0], None);
        assert_eq!(stats.estimate(), Some(4));
    }

    #[test]
    fn no_estimate_before_done_or_without_baseline() {
        let mut p = app(4);
        let _ = p.on_timer(SimTime::ZERO);
        assert_eq!(p.stats().estimate(), None);
        // Driven to completion but every reply lost: no baseline.
        let stats = drive(app(4), |_| None);
        // drive() always answers warmups, so force-lose them instead.
        assert!(stats.baseline_ms().is_some());
        let silent = {
            let mut p = app(2);
            let mut now = SimTime::ZERO;
            while let (_, Some(t)) = p.on_timer(now) {
                now = t;
            }
            p.stats()
        };
        assert!(silent.is_done());
        assert_eq!(silent.baseline_ms(), None);
        assert_eq!(silent.estimate(), None);
    }

    #[test]
    fn spoofed_macs_are_locally_administered_and_disjoint_per_app() {
        let a = app(100);
        let mac = a.probe_mac(7);
        assert_eq!(mac.0[0] & 0x03, 0x02); // locally administered unicast
        assert!(a.owns(mac));
        assert!(!a.owns(MacAddr::from_low(8))); // a real host MAC
        let b = CapacityProbeApp::new(
            "other".into(),
            "10.0.0.2".parse().unwrap(),
            100,
            SimTime::from_millis(10),
            1,
        );
        assert!(!a.owns(b.probe_mac(7)));
        assert!(b.owns(b.probe_mac(7)));
    }
}
