//! Monitors (paper §VI-B3): the components that "record relevant control
//! and data plane events" for later analysis.
//!
//! The paper places `iperf`/`tcpdump`-style monitors throughout the
//! testbed. Here the raw feeds already exist — the simulator's
//! [`Trace`](attain_netsim::Trace), the hosts' ping/iperf statistics, and the executor's
//! [`InjectionLog`](attain_core::exec::InjectionLog) — and this module condenses them into one
//! [`ExperimentReport`] suitable for printing or asserting against.

use crate::tcp::{ProxyStats, RouteHealthSnapshot, TcpProxy};
use attain_core::exec::{AttackExecutor, LogKind};
use attain_netsim::{Direction, Simulation};
use attain_openflow::OfType;
use std::fmt;

/// Aggregate of one control-plane connection's traffic, by direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionTraffic {
    /// Connection label, `controller/switch`.
    pub label: String,
    /// Messages switch→controller.
    pub to_controller: u64,
    /// Messages controller→switch.
    pub to_switch: u64,
}

/// Everything the monitors observed in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Per-connection control-plane traffic.
    pub connections: Vec<ConnectionTraffic>,
    /// Per-message-type totals (both directions), `None` = unparseable.
    pub by_type: Vec<(Option<OfType>, u64)>,
    /// Ping runs: `(label, received, transmitted, avg RTT ms)`.
    pub pings: Vec<(String, u32, u32, Option<f64>)>,
    /// Iperf runs: `(label, Mb/s, denial of service)`.
    pub iperfs: Vec<(String, f64, bool)>,
    /// Rule-fire counters from the injection log.
    pub rule_fires: Vec<(String, u64)>,
    /// State transitions taken by the attack.
    pub transitions: Vec<(usize, usize)>,
    /// `SYSCMD`s the attack issued.
    pub syscmds: Vec<(String, String)>,
    /// The attack's final state name.
    pub final_state: String,
    /// Data-plane frames dropped by link queues.
    pub frames_dropped: u64,
}

impl ExperimentReport {
    /// Collects a report from a finished simulation and its executor.
    pub fn collect(sim: &Simulation, exec: &AttackExecutor) -> ExperimentReport {
        let infos = sim.conn_infos();
        let counters = sim.trace().counters();
        let mut connections: Vec<ConnectionTraffic> = infos
            .iter()
            .map(|i| ConnectionTraffic {
                label: format!("{}/{}", i.controller, i.switch),
                to_controller: 0,
                to_switch: 0,
            })
            .collect();
        let mut by_type: std::collections::BTreeMap<u8, (Option<OfType>, u64)> =
            std::collections::BTreeMap::new();
        for (conn, dir, ty, n) in counters {
            if let Some(c) = connections.get_mut(conn.0) {
                match dir {
                    Direction::SwitchToController => c.to_controller += n,
                    Direction::ControllerToSwitch => c.to_switch += n,
                }
            }
            let key = ty.map(|t| t as u8 + 1).unwrap_or(0);
            let slot = by_type.entry(key).or_insert((ty, 0));
            slot.1 += n;
        }
        let log = exec.log();
        ExperimentReport {
            connections,
            by_type: by_type.into_values().collect(),
            pings: sim
                .ping_stats()
                .iter()
                .map(|p| {
                    (
                        p.label.clone(),
                        p.received(),
                        p.transmitted(),
                        p.avg_rtt_ms(),
                    )
                })
                .collect(),
            iperfs: sim
                .iperf_stats()
                .iter()
                .map(|s| {
                    (
                        s.label.clone(),
                        s.throughput_mbps(),
                        s.is_denial_of_service(),
                    )
                })
                .collect(),
            rule_fires: log
                .rule_fire_counts()
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            transitions: log.transitions(),
            syscmds: log
                .events()
                .iter()
                .filter_map(|e| match &e.kind {
                    LogKind::SysCmd { host, cmd } => Some((host.clone(), cmd.clone())),
                    _ => None,
                })
                .collect(),
            final_state: exec.current_state_name().to_string(),
            frames_dropped: sim.frames_dropped,
        }
    }

    /// Total control-plane messages observed.
    pub fn control_total(&self) -> u64 {
        self.connections
            .iter()
            .map(|c| c.to_controller + c.to_switch)
            .sum()
    }
}

/// The monitor view of a live TCP deployment (§VI-B2): the proxy's
/// connection-lifecycle counters, rendered alongside the run's
/// [`ExperimentReport`] when the injector ran on real sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyLifecycleReport {
    /// Lifecycle counters snapshotted from the proxy.
    pub stats: ProxyStats,
    /// Per-route reconnect-supervisor health, in route order.
    pub routes: Vec<RouteHealthSnapshot>,
}

impl ProxyLifecycleReport {
    /// Snapshots a running (or just shut down) proxy.
    pub fn collect(proxy: &TcpProxy) -> ProxyLifecycleReport {
        ProxyLifecycleReport {
            stats: proxy.stats(),
            routes: proxy.route_health(),
        }
    }
}

impl fmt::Display for ProxyLifecycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== proxy lifecycle ===")?;
        writeln!(
            f,
            "sessions: {} opened, {} closed, {} live",
            self.stats.sessions_opened, self.stats.sessions_closed, self.stats.live_sessions
        )?;
        writeln!(
            f,
            "dropped: {} stale-epoch, {} dead-target, {} overflow",
            self.stats.stale_epoch_dropped,
            self.stats.dead_target_dropped,
            self.stats.overflow_dropped
        )?;
        writeln!(
            f,
            "faults: {} discarded (no environment to apply them to)",
            self.stats.faults_discarded
        )?;
        writeln!(
            f,
            "reconnect supervision: {} dial failures, {} backoff windows, {} absorbed",
            self.stats.dial_failures, self.stats.backoff_events, self.stats.backoff_rejected
        )?;
        for r in &self.routes {
            writeln!(
                f,
                "route {}: {} ({} consecutive failures)",
                r.route, r.health, r.consecutive_failures
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== experiment report ===")?;
        writeln!(f, "attack final state: {}", self.final_state)?;
        if !self.transitions.is_empty() {
            writeln!(f, "transitions: {:?}", self.transitions)?;
        }
        for (rule, n) in &self.rule_fires {
            writeln!(f, "rule {rule}: fired {n}x")?;
        }
        for (host, cmd) in &self.syscmds {
            writeln!(f, "syscmd on {host}: {cmd}")?;
        }
        writeln!(
            f,
            "control plane ({} messages total):",
            self.control_total()
        )?;
        for c in &self.connections {
            writeln!(
                f,
                "  {:<12} →ctrl {:<8} →switch {}",
                c.label, c.to_controller, c.to_switch
            )?;
        }
        for (ty, n) in &self.by_type {
            match ty {
                Some(t) => writeln!(f, "  {t}: {n}")?,
                None => writeln!(f, "  <unparseable>: {n}")?,
            }
        }
        for (label, rx, tx, rtt) in &self.pings {
            match rtt {
                Some(ms) => writeln!(f, "ping {label}: {rx}/{tx}, avg {ms:.2} ms")?,
                None => writeln!(f, "ping {label}: {rx}/{tx} (no replies)")?,
            }
        }
        for (label, mbps, dos) in &self.iperfs {
            if *dos {
                writeln!(f, "iperf {label}: * (denial of service)")?;
            } else {
                writeln!(f, "iperf {label}: {mbps:.1} Mb/s")?;
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
    use super::*;
    use crate::harness::{attach_attack, build_case_study};
    use attain_controllers::ControllerKind;
    use attain_core::scenario;
    use attain_netsim::{FailMode, HostCommand, SimTime};

    #[test]
    fn report_collects_all_feeds() {
        let mut sim = build_case_study(ControllerKind::Pox, FailMode::Secure);
        let exec = attach_attack(&mut sim, scenario::attacks::FLOW_MOD_SUPPRESSION);
        let h1 = sim.node_id("h1").expect("case study has h1");
        sim.schedule_command(
            SimTime::from_secs(5),
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.6".parse().expect("valid address"),
                count: 5,
                interval: SimTime::from_secs(1),
                label: "probe".into(),
            },
        );
        sim.run_until(SimTime::from_secs(15));
        let exec = exec.lock();
        let report = ExperimentReport::collect(&sim, &exec);
        assert_eq!(report.connections.len(), 4);
        assert!(report.control_total() > 0);
        assert_eq!(report.pings.len(), 1);
        assert_eq!(report.pings[0].0, "probe");
        assert!(report
            .rule_fires
            .iter()
            .any(|(name, n)| name == "phi1" && *n > 0));
        assert_eq!(report.final_state, "sigma1");
        // The rendering mentions the load-bearing pieces.
        let text = report.to_string();
        assert!(text.contains("rule phi1"));
        assert!(text.contains("ping probe"));
        assert!(text.contains("c1/s2"));
    }

    #[test]
    fn proxy_lifecycle_report_renders_counters() {
        use crate::tcp::{ProxyRoute, TcpProxy};
        use attain_core::model::ConnectionId;
        use attain_core::{dsl, scenario};

        let sc = scenario::enterprise_network();
        let compiled = dsl::compile(
            scenario::attacks::TRIVIAL_PASS,
            &sc.system,
            &sc.attack_model,
        )
        .expect("compiles");
        let exec =
            attain_core::exec::AttackExecutor::new(sc.system, sc.attack_model, compiled.attack)
                .expect("valid attack");
        let proxy = TcpProxy::spawn(
            exec,
            vec![ProxyRoute {
                listen: "127.0.0.1:0".parse().expect("addr"),
                controller: "127.0.0.1:1".parse().expect("addr"),
                conn: ConnectionId(0),
            }],
            None,
        )
        .expect("binds");
        let report = ProxyLifecycleReport::collect(&proxy);
        assert_eq!(report.stats.sessions_opened, 0);
        assert_eq!(report.stats.stale_epoch_dropped, 0);
        assert_eq!(report.stats.dead_target_dropped, 0);
        assert_eq!(report.routes.len(), 1);
        assert_eq!(report.routes[0].health, crate::tcp::RouteHealth::Idle);
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
