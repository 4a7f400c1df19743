//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root carries the same tables; a unit test keeps the two
//! in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the reason it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before a change is a regression;
/// per-layer metrics have none.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "campaign_full",
        why: "the 330-cell golden matrix on one job: compile, build, handshake, oracle and report dominate its 0.7 ms cells",
    },
    WorkloadDef {
        name: "ctrl_path",
        why: "six ping trains through a flooding hub: every packet crosses codec, executor, controller and switch; no flow installs",
    },
    WorkloadDef {
        name: "table_churn",
        why: "spoofed-flow fill against 1024-entry LRU tables: the same message path, but every install evicts",
    },
    WorkloadDef {
        name: "fabric_large",
        why: "100,000 ping flows over a 1,024-switch leaf-spine with no controller: event queue, wildcard lookups, links, hosts",
    },
    WorkloadDef {
        name: "proxy_tcp",
        why: "the real TCP proxy on the host loopback: thread wake-up chains, the only wall-clock multi-threaded path",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload (README.md maps
/// each to the workload's own unit of work). One bound serves all five
/// workloads, so each is set by the workload on which the metric is
/// least steady on the shared 2-core sandbox: `peak_rss_mb` by the
/// 5 MiB processes, whose resident set moves by half a MiB from run to
/// run; `work_per_s` by `fabric_large`, whose 130 MiB working set makes
/// it follow the host's memory traffic (ten-run spread 5% in a calm
/// hour, 11% in a busy one, and a median 23% lower); `unit_us` by the
/// proxy's thread hand-overs. The simulated workloads' `unit_us` shares its wall with
/// `work_per_s`, whose bound therefore guards both.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("unit_us", "us", Lower, 0.25),
];

/// Single layers, measured from outside during the traced run. A layer
/// that is not on a workload's path reports 0 there.
pub const PER_LAYER: [MetricDef; 43] = [
    layer("openflow.codec.decode_ns", "ns", Lower),
    layer("openflow.codec.encode_ns", "ns", Lower),
    layer("openflow.frame.decodes_per_msg", "ratio", Lower),
    layer("core.dsl.compile_us", "us", Lower),
    layer("core.exec.on_message_ns", "ns", Lower),
    layer("core.exec.allocs_per_msg", "count", Lower),
    layer("injector.sim.on_message_ns", "ns", Lower),
    layer("injector.sim.busy_share", "ratio", Lower),
    layer("controllers.on_packet_in_ns", "ns", Lower),
    layer("controllers.busy_share", "ratio", Lower),
    layer("netsim.engine.events", "count", Lower),
    layer("netsim.engine.peak_pending", "count", Lower),
    layer("netsim.engine.pop_push_ns", "ns", Lower),
    layer("netsim.flow_table.lookup_ns", "ns", Lower),
    layer("netsim.flow_table.install_evict_ns", "ns", Lower),
    layer("netsim.flow_table.evictions", "count", Lower),
    layer("netsim.trace.push_ns", "ns", Lower),
    layer("netsim.trace.push_counters_ns", "ns", Lower),
    layer("netsim.trace.digest_ms", "ms", Lower),
    layer("netsim.topo.build_ms", "ms", Lower),
    layer("netsim.topo.routes_ms", "ms", Lower),
    layer("netsim.workload.apply_ms", "ms", Lower),
    layer("netsim.sim.ns_per_event", "ns", Lower),
    layer("netsim.sim.allocs_per_event", "count", Lower),
    layer("netsim.sim.allocs_per_ctrl_msg", "count", Lower),
    layer("netsim.sim.alloc_bytes_per_ctrl_msg", "B", Lower),
    layer("netsim.sim.unattributed_share", "ratio", Lower),
    layer("campaign.cell.wall_us_p50", "us", Lower),
    layer("campaign.cell.wall_us_p99", "us", Lower),
    layer("campaign.cell.setup_share", "ratio", Lower),
    layer("campaign.oracle.judge_us", "us", Lower),
    layer("campaign.report.render_ms", "ms", Lower),
    layer("campaign.runner.speedup_jobs2", "ratio", Higher),
    layer("injector.tcp.oneway_us_p50", "us", Lower),
    layer("injector.tcp.oneway_us_p99", "us", Lower),
    layer("injector.tcp.awake_oneway_us_p50", "us", Lower),
    layer("injector.tcp.direct_us_p50", "us", Lower),
    layer("injector.tcp.fast_sample_share", "ratio", Higher),
    layer("injector.tcp.session_setup_us", "us", Lower),
    layer("injector.tcp.threads", "count", Lower),
    layer("injector.tcp.cpu_us_per_msg", "us", Lower),
    layer("injector.tcp.overflow_dropped", "count", Lower),
    layer("trace_overhead", "ratio", Lower),
];

/// The definition of workload `name`, if there is one.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "malformed name {name:?}");
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit_ok(m.unit), "malformed unit {:?}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` is written by hand; this renders what it must
    /// say from the tables above and compares, whitespace aside.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let strip = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        let checked_in = strip(include_str!("../../BENCHMARK.json"));
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(checked_in.contains(&strip(&entry)), "workload {}", w.name);
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap()
            );
            assert!(checked_in.contains(&strip(&entry)), "metric {}", m.name);
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(checked_in.contains(&strip(&entry)), "metric {}", m.name);
        }
        let names = checked_in.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
