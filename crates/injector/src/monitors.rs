//! Monitors (paper §VI-B3): the components that "record relevant control
//! and data plane events" for later analysis.
//!
//! The paper places `iperf`/`tcpdump`-style monitors throughout the
//! testbed. Here the raw feeds already exist — the simulator's
//! [`Trace`](attain_netsim::Trace), the hosts' ping/iperf statistics, and the executor's
//! [`InjectionLog`](attain_core::exec::InjectionLog) — and `RunRecord::collect` is the one place that
//! walks them: every number in the Figure 11 / Table II binaries, the
//! fault-recovery report and the campaign's oracles is read off the one
//! [`RunRecord`] it returns.

use attain_core::exec::AttackExecutor;
use attain_netsim::{Direction, FaultReport, IperfStats, Simulation, TraceDigest};
use attain_openflow::OfType;
use std::fmt;

/// One ping run's observable result.
#[derive(Debug, Clone, PartialEq)]
pub struct PingRow {
    /// The label the run was scheduled under.
    pub label: String,
    /// Echo requests sent.
    pub transmitted: u32,
    /// Echo replies received.
    pub received: u32,
    /// Mean round-trip time over the answered trials, if any.
    pub avg_rtt_ms: Option<f64>,
}

impl PingRow {
    /// Loss percentage (0 when nothing was sent).
    pub fn loss_pct(&self) -> f64 {
        if self.transmitted == 0 {
            return 0.0;
        }
        100.0 * (self.transmitted - self.received) as f64 / self.transmitted as f64
    }

    /// Whether every trial was lost — latency is "infinite", the
    /// paper's asterisk.
    pub fn denied(&self) -> bool {
        self.transmitted > 0 && self.received == 0
    }

    /// Table II's ✓: the user could access the host (a clear majority
    /// of trials succeeded at some point during the window — the paper's
    /// fail-safe rows count as accessible even though the first seconds
    /// of the window predate the failover).
    fn accessible(&self) -> bool {
        self.transmitted > 0 && self.received * 4 > self.transmitted
    }
}

/// The Table II cell: `yes (10/10)`.
impl fmt::Display for PingRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/{})",
            if self.accessible() { "yes" } else { "no" },
            self.received,
            self.transmitted
        )
    }
}

/// Everything the monitors observed in one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// FNV-1a digest over the rendered trace + counters: equal digests
    /// mean byte-identical traces.
    pub digest: TraceDigest,
    /// Trace events recorded.
    pub events: usize,
    /// `PACKET_IN`s observed at the proxy.
    pub packet_ins: u64,
    /// `FLOW_MOD`s the controller emitted (before any suppression).
    pub flow_mods: u64,
    /// All control-plane messages observed at the proxy.
    pub control_total: u64,
    /// Data-plane frames dropped (fail-secure lockdown, dead links…).
    pub frames_dropped: u64,
    /// Every ping run, in host then start order.
    pub pings: Vec<PingRow>,
    /// Every iperf client run, in host then start order.
    pub iperfs: Vec<IperfStats>,
    /// The attack state the executor ended in (`None` when nothing was
    /// attached).
    pub final_state: Option<String>,
    /// Per-rule fire counts, in rule-name order.
    pub rule_fires: Vec<(String, u64)>,
    /// Per-link / per-process fault accounting, for runs under a
    /// non-empty fault plan.
    pub faults: Option<FaultReport>,
    /// Host wall-clock spent on the run, in milliseconds — the one
    /// field that differs between same-seed runs.
    pub wall_ms: u64,
}

impl RunRecord {
    /// Collects the record of a finished simulation and the executor
    /// that was attached to it, if any. `faults` and `wall_ms` are the
    /// run path's to fill in ([`harness::run`](crate::harness::run)).
    pub(crate) fn collect(sim: &Simulation, exec: Option<&AttackExecutor>) -> RunRecord {
        let (mut packet_ins, mut flow_mods, mut control_total) = (0, 0, 0);
        for (_, direction, of_type, n) in sim.trace().counters() {
            control_total += n;
            match (of_type, direction) {
                (Some(OfType::PacketIn), Direction::SwitchToController) => packet_ins += n,
                (Some(OfType::FlowMod), Direction::ControllerToSwitch) => flow_mods += n,
                _ => {}
            }
        }
        RunRecord {
            digest: sim.trace().digest(),
            events: sim.trace().events().len(),
            packet_ins,
            flow_mods,
            control_total,
            frames_dropped: sim.frames_dropped,
            pings: sim
                .ping_stats()
                .into_iter()
                .map(|s| PingRow {
                    transmitted: s.transmitted(),
                    received: s.received(),
                    avg_rtt_ms: s.avg_rtt_ms(),
                    label: s.label,
                })
                .collect(),
            iperfs: sim.iperf_stats(),
            final_state: None,
            rule_fires: Vec::new(),
            faults: None,
            wall_ms: 0,
        }
        .attributed(exec)
    }

    /// This record with `exec`'s final state and rule fires in place of
    /// its own: what an executor that saw the same run would report.
    pub(crate) fn attributed(self, exec: Option<&AttackExecutor>) -> RunRecord {
        RunRecord {
            final_state: exec.map(|e| e.current_state_name().to_string()),
            rule_fires: exec.map_or_else(Vec::new, |e| {
                e.log()
                    .rule_fire_counts()
                    .map(|(name, n)| (name.to_string(), n))
                    .collect()
            }),
            ..self
        }
    }

    /// The ping run scheduled under `label`.
    pub fn ping(&self, label: &str) -> Option<&PingRow> {
        self.pings.iter().find(|p| p.label == label)
    }

    /// Whether the ping run `label` found its target
    /// accessible (`false` if no such run).
    pub fn accessible(&self, label: &str) -> bool {
        self.ping(label).is_some_and(PingRow::accessible)
    }

    /// How often the named rule fired (0 if never, or nothing attached).
    pub fn rule_fires(&self, rule: &str) -> u64 {
        self.rule_fires
            .iter()
            .find(|(name, _)| name == rule)
            .map_or(0, |(_, n)| *n)
    }

    /// Mean iperf throughput across trials, in Mb/s.
    pub fn mean_throughput_mbps(&self) -> f64 {
        if self.iperfs.is_empty() {
            return 0.0;
        }
        self.iperfs
            .iter()
            .map(IperfStats::throughput_mbps)
            .sum::<f64>()
            / self.iperfs.len() as f64
    }

    /// Whether throughput was fully denied (the paper's asterisk).
    pub fn iperf_denied(&self) -> bool {
        !self.iperfs.is_empty() && self.iperfs.iter().all(IperfStats::is_denial_of_service)
    }
}

/// The monitors' text view. The per-connection / per-type breakdown
/// behind the totals is [`Trace::counters`](attain_netsim::Trace::counters).
impl fmt::Display for RunRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== experiment report ===")?;
        if let Some(state) = &self.final_state {
            writeln!(f, "attack final state: {state}")?;
        }
        for (rule, n) in &self.rule_fires {
            writeln!(f, "rule {rule}: fired {n}x")?;
        }
        writeln!(
            f,
            "control plane: {} messages ({} PACKET_IN, {} FLOW_MOD)",
            self.control_total, self.packet_ins, self.flow_mods
        )?;
        for p in &self.pings {
            write!(f, "ping {}: {}/{}", p.label, p.received, p.transmitted)?;
            match p.avg_rtt_ms {
                Some(ms) => writeln!(f, ", avg {ms:.2} ms")?,
                None => writeln!(f, " (no replies)")?,
            }
        }
        for s in &self.iperfs {
            if s.is_denial_of_service() {
                writeln!(f, "iperf {}: * (denial of service)", s.label)?;
            } else {
                writeln!(f, "iperf {}: {:.1} Mb/s", s.label, s.throughput_mbps())?;
            }
        }
        if self.frames_dropped > 0 {
            writeln!(f, "data plane drops: {}", self.frames_dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::{run, schedule_ping, Scope};
    use attain_controllers::ControllerKind;
    use attain_core::scenario;
    use attain_netsim::{FailMode, FaultPlan, RunBudget, SimTime};

    #[test]
    fn report_collects_all_feeds() {
        let record = run(
            Scope::Enterprise,
            scenario::attacks::FLOW_MOD_SUPPRESSION,
            true,
            ControllerKind::Pox,
            &[FailMode::Secure],
            &FaultPlan::default(),
            &RunBudget::default(),
            |sim, _| {
                schedule_ping(sim, SimTime::from_secs(5), "h1", "10.0.0.6", 5, "probe")?;
                Ok(SimTime::from_secs(15))
            },
        )
        .remove(0)
        .expect("the run reaches its horizon");
        assert!(record.events > 0);
        assert!(record.packet_ins > 0 && record.flow_mods > 0);
        assert!(record.control_total > record.packet_ins + record.flow_mods);
        assert_eq!(record.pings.len(), 1);
        // POX under suppression: the probe is the paper's asterisk.
        let probe = record.ping("probe").expect("the probe ran");
        assert_eq!((probe.transmitted, probe.received), (5, 0));
        assert!(probe.denied() && !probe.accessible());
        assert_eq!(probe.loss_pct(), 100.0);
        assert_eq!(probe.to_string(), "no (0/5)");
        assert!(!record.accessible("no such run"));
        assert!(record.rule_fires("phi1") > 0);
        assert_eq!(record.rule_fires("phi9"), 0);
        assert_eq!(record.final_state.as_deref(), Some("sigma1"));
        assert!(record.iperfs.is_empty() && !record.iperf_denied());
        assert_eq!(record.faults, None, "no fault plan, no fault report");
        // The rendering mentions the load-bearing pieces.
        let text = record.to_string();
        assert!(text.contains("attack final state: sigma1"), "{text}");
        assert!(text.contains("rule phi1: fired"), "{text}");
        assert!(text.contains("ping probe: 0/5 (no replies)"), "{text}");
        assert!(
            text.contains(&format!("{} PACKET_IN", record.packet_ins)),
            "{text}"
        );
    }
}
