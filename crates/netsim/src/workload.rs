//! Traffic-matrix workload generators.
//!
//! ROADMAP item 1 models "millions of users" as aggregate flow churn: a
//! [`TrafficMatrix`] turns a generated [`Topology`]
//! into many concurrent ping or iperf flows whose endpoints follow a
//! pattern (uniform, hotspot, permutation) and whose start times follow
//! a seeded heavy-tailed inter-arrival process. Everything is scheduled
//! as ordinary [`HostCommand`]s through the normal event queue, so
//! same-seed runs are byte-identical — the workload is data, not code.
//!
//! Determinism notes: endpoint and gap sampling use the integer-only
//! [`DetRng`] (xorshift64*), and the heavy-tail transform is pure u64
//! arithmetic — no floating point — so a seed produces the same
//! schedule on every platform. ARP pairs are primed at apply time
//! (static ARP), because warming a 100k-flow fabric through broadcast
//! ARP would melt it before the experiment starts.

use crate::command::HostCommand;
use crate::fault::DetRng;
use crate::sim::Simulation;
use crate::time::SimTime;
use crate::topo::Topology;
use std::collections::BTreeSet;

/// How flow endpoints are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Source and destination drawn uniformly (src ≠ dst).
    Uniform,
    /// A fixed seeded permutation: flow `i` runs `host[i % n] →
    /// perm[i % n]` (every host talks to exactly one peer — the classic
    /// worst case for single-path load balance).
    Permutation,
    /// Most traffic concentrates on a few destinations.
    Hotspot {
        /// Number of hot destination hosts (clamped to the host count).
        hotspots: usize,
        /// Percent of flows that target a hotspot (0..=100).
        bias_pct: u8,
    },
}

/// What each flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Short ping trains: `count` echoes at `interval`.
    Ping {
        /// Echo trials per flow.
        count: u32,
        /// Interval between trials.
        interval: SimTime,
    },
    /// Iperf bulk transfers of `duration` each (a server is started
    /// once per destination host, on port 5001).
    Iperf {
        /// Transfer duration.
        duration: SimTime,
    },
}

/// A seeded synthetic workload over a generated topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficMatrix {
    /// Endpoint selection pattern.
    pub pattern: TrafficPattern,
    /// Total flows to schedule.
    pub flows: usize,
    /// RNG seed (endpoints, gaps, permutation shuffle).
    pub seed: u64,
    /// When the first flow starts.
    pub start: SimTime,
    /// Mean inter-arrival gap between consecutive flow starts.
    pub mean_gap: SimTime,
    /// What each flow runs.
    pub kind: FlowKind,
}

impl TrafficMatrix {
    /// A ping-based matrix with sensible defaults: uniform pattern,
    /// 3-echo pings at 100 ms, starting at t=1s, 1 ms mean gap.
    pub fn new(flows: usize, seed: u64) -> TrafficMatrix {
        TrafficMatrix {
            pattern: TrafficPattern::Uniform,
            flows,
            seed,
            start: SimTime::from_secs(1),
            mean_gap: SimTime::from_millis(1),
            kind: FlowKind::Ping {
                count: 3,
                interval: SimTime::from_millis(100),
            },
        }
    }

    /// Same matrix, different pattern.
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> TrafficMatrix {
        self.pattern = pattern;
        self
    }

    /// Same matrix, different per-flow workload.
    pub fn with_kind(mut self, kind: FlowKind) -> TrafficMatrix {
        self.kind = kind;
        self
    }

    /// Schedules the matrix onto `sim`: picks endpoints, primes ARP for
    /// every `(src, dst)` pair used, starts iperf servers where needed,
    /// and schedules one command per flow at heavy-tailed arrival times.
    pub fn apply(&self, sim: &mut Simulation, topo: &Topology) -> WorkloadStats {
        let hosts = &topo.hosts;
        assert!(
            hosts.len() >= 2,
            "traffic matrix needs at least two hosts, topology has {}",
            hosts.len()
        );
        let n = hosts.len();
        let mut rng = DetRng::new(self.seed);

        // Pattern state, derived up front so endpoint draws are a pure
        // function of (seed, n, flows).
        let perm = match self.pattern {
            TrafficPattern::Permutation => {
                let mut p: Vec<usize> = (0..n).collect();
                // Seeded Fisher–Yates; derangement enforced per-draw.
                for i in (1..n).rev() {
                    let j = rng.below(i as u64 + 1) as usize;
                    p.swap(i, j);
                }
                p
            }
            _ => Vec::new(),
        };
        let hot: Vec<usize> = match self.pattern {
            TrafficPattern::Hotspot { hotspots, .. } => {
                let count = hotspots.clamp(1, n);
                // Spread hotspots deterministically across the fabric.
                (0..count).map(|i| i * n / count).collect()
            }
            _ => Vec::new(),
        };

        let mut primed: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut servers: BTreeSet<usize> = BTreeSet::new();
        let mut at = self.start;
        let mut last_start = at;
        for i in 0..self.flows {
            let (src, dst) = match self.pattern {
                TrafficPattern::Uniform => {
                    let src = rng.below(n as u64) as usize;
                    let mut dst = rng.below(n as u64 - 1) as usize;
                    if dst >= src {
                        dst += 1;
                    }
                    (src, dst)
                }
                TrafficPattern::Permutation => {
                    let src = i % n;
                    let dst = perm[src];
                    if dst == src {
                        (src, (src + 1) % n)
                    } else {
                        (src, dst)
                    }
                }
                TrafficPattern::Hotspot { bias_pct, .. } => {
                    let src = rng.below(n as u64) as usize;
                    let dst = if rng.chance(bias_pct) {
                        hot[rng.below(hot.len() as u64) as usize]
                    } else {
                        rng.below(n as u64) as usize
                    };
                    if dst == src {
                        (src, (src + 1) % n)
                    } else {
                        (src, dst)
                    }
                }
            };

            if primed.insert((src, dst)) {
                sim.prime_arp(hosts[src].id, hosts[dst].id);
            }
            match self.kind {
                FlowKind::Ping { count, interval } => {
                    sim.schedule_command(
                        at,
                        HostCommand::Ping {
                            host: hosts[src].id,
                            dst: hosts[dst].ip,
                            count,
                            interval,
                            label: format!("tm{i}"),
                        },
                    );
                }
                FlowKind::Iperf { duration } => {
                    if servers.insert(dst) {
                        // The server must exist before the first SYN.
                        sim.schedule_command(
                            self.start,
                            HostCommand::IperfServer {
                                host: hosts[dst].id,
                                port: 5001,
                            },
                        );
                    }
                    sim.schedule_command(
                        at,
                        HostCommand::IperfClient {
                            host: hosts[src].id,
                            dst: hosts[dst].ip,
                            port: 5001,
                            duration,
                            label: format!("tm{i}"),
                        },
                    );
                }
            }
            last_start = at;
            at += heavy_tailed_gap(&mut rng, self.mean_gap);
        }

        WorkloadStats {
            flows: self.flows,
            pairs: primed.len(),
            last_start,
        }
    }
}

/// A heavy-tailed inter-arrival gap with mean ≈ `mean_gap`.
///
/// Pure integer arithmetic: draw `u` uniform in `1..=2^32`, take `w =
/// min(2^32 / u, 64)` — a truncated Pareto(α=1) tail with
/// `E[w] = 64·P(u ≤ 2^26) + E[⌊2^32/u⌋ · 1(u > 2^26)] ≈ 1 + ln 64 − ½
/// ≈ 4.8` — and scale so the expectation lands near `mean_gap`. Most
/// gaps are well under the mean; a few are ~13× longer — flow arrivals
/// burst, like real datacenter traffic, while staying bit-reproducible
/// across platforms (no floats).
fn heavy_tailed_gap(rng: &mut DetRng, mean_gap: SimTime) -> SimTime {
    const CAP: u64 = 64;
    // E[min(2^32/u, CAP)] for u uniform on 1..=2^32, rounded.
    const EXPECTED_W: u64 = 5;
    let u = (rng.next_u64() >> 32) + 1; // 1..=2^32
    let w = ((1u64 << 32) / u).min(CAP);
    SimTime(mean_gap.0.saturating_mul(w) / EXPECTED_W)
}

/// What [`TrafficMatrix::apply`] scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Flows scheduled.
    pub flows: usize,
    /// Distinct `(src, dst)` pairs used (ARP primed for each).
    pub pairs: usize,
    /// Virtual start time of the last flow.
    pub last_start: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{fat_tree, FatTreeParams};
    use crate::NetworkBuilder;

    fn small_fabric() -> (Simulation, crate::topo::Topology) {
        let mut b = NetworkBuilder::new();
        let t = fat_tree(&mut b, &FatTreeParams::new(4)).unwrap();
        let mut sim = b.build();
        crate::topo::install_fat_tree_routes(&mut sim, &t);
        (sim, t)
    }

    #[test]
    fn uniform_matrix_delivers_pings() {
        let (mut sim, t) = small_fabric();
        let stats = TrafficMatrix::new(32, 7).apply(&mut sim, &t);
        assert_eq!(stats.flows, 32);
        assert!(stats.pairs > 1 && stats.pairs <= 32);
        sim.run_until(SimTime::from_secs(10));
        let pings = sim.ping_stats();
        assert_eq!(pings.len(), 32);
        let delivered: u32 = pings.iter().map(|p| p.received()).sum();
        let sent: u32 = pings.iter().map(|p| p.transmitted()).sum();
        assert_eq!(sent, 96);
        // Routed fabric, no faults: nothing may be lost.
        assert_eq!(delivered, sent);
    }

    #[test]
    fn permutation_is_a_derangement_and_iperf_moves_bytes() {
        let (mut sim, t) = small_fabric();
        let m = TrafficMatrix::new(16, 3)
            .with_pattern(TrafficPattern::Permutation)
            .with_kind(FlowKind::Iperf {
                duration: SimTime::from_secs(1),
            });
        m.apply(&mut sim, &t);
        sim.run_until(SimTime::from_secs(12));
        let iperf = sim.iperf_stats();
        assert_eq!(iperf.len(), 16);
        for s in &iperf {
            assert!(s.bytes > 0, "{}: no bytes", s.label);
        }
    }

    #[test]
    fn hotspot_bias_concentrates_destinations() {
        let (mut sim, t) = small_fabric();
        let m = TrafficMatrix::new(200, 11).with_pattern(TrafficPattern::Hotspot {
            hotspots: 2,
            bias_pct: 90,
        });
        let stats = m.apply(&mut sim, &t);
        // 16 hosts, 200 flows, 90% into 2 destinations: far fewer
        // distinct pairs than uniform would produce.
        assert!(
            stats.pairs < 100,
            "expected concentrated pairs, got {}",
            stats.pairs
        );
    }

    #[test]
    fn same_seed_schedules_identically_and_seeds_differ() {
        // A routed fabric with no controller records no control-plane
        // trace, so fingerprint the data plane: who pinged whom, when
        // each flow's echoes landed.
        let run = |seed: u64| {
            let (mut sim, t) = small_fabric();
            TrafficMatrix::new(64, seed).apply(&mut sim, &t);
            sim.run_until(SimTime::from_secs(10));
            sim.ping_stats()
                .iter()
                .map(|p| format!("{} {} {} {:?}", p.label, p.dst, p.received(), p.rtts_ms()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn gaps_are_heavy_tailed_with_bounded_mean() {
        let mut rng = DetRng::new(9);
        let mean = SimTime::from_millis(1);
        let n = 10_000u64;
        let mut total = 0u64;
        let mut max = 0u64;
        for _ in 0..n {
            let g = heavy_tailed_gap(&mut rng, mean);
            total += g.0;
            max = max.max(g.0);
        }
        let avg = total / n;
        // Mean lands near the nominal gap (within 2x either way)…
        assert!(avg > mean.0 / 2 && avg < mean.0 * 2, "avg {avg}");
        // …while the tail reaches ~3x the mean.
        assert!(max >= mean.0 * 3, "max {max}");
    }
}
