//! Deterministic discrete-event SDN network simulator.
//!
//! This crate is the testbed substrate of the ATTAIN reproduction: where
//! the paper deployed eleven GENI virtual machines (six end hosts, four
//! Open vSwitch instances, one control-plane switch) with 100 Mb/s links,
//! this crate simulates the same network deterministically in virtual
//! time:
//!
//! * [`engine`] — a virtual-time event queue with strict deterministic
//!   ordering (identical inputs ⇒ identical traces, byte for byte);
//! * [`Link`] — full-duplex links with configurable propagation delay and
//!   bandwidth-accurate serialization (so `iperf` throughput means
//!   something);
//! * [`Switch`] — an Open vSwitch v1.9.3 model: OpenFlow 1.0 flow table
//!   with priorities/wildcards/timeouts, packet buffering, `PACKET_IN` on
//!   miss, echo-based connection liveness probing, and the two
//!   `fail-mode` behaviours (`standalone`/fail-safe vs. `secure`) the
//!   connection-interruption experiment contrasts;
//! * [`Host`] — end hosts with ARP and the paper's two workload tools:
//!   a `ping` model (1 Hz ICMP echo trials with RTT/loss accounting) and
//!   an `iperf` model (TCP handshake + windowed bulk transfer with
//!   per-trial throughput);
//! * [`ControllerHost`] — hosts any [`attain_controllers::Controller`]
//!   on simulated control-plane connections, performing the OpenFlow
//!   handshake and modelling controller processing as a serial bottleneck;
//! * [`interpose`] — the hook through which the ATTAIN runtime injector
//!   proxies every control-plane message (drop/delay/modify/inject),
//!   exactly where the paper's proxy sits;
//! * [`fault`] — deterministic environment faults (link down/flap/degrade,
//!   seeded loss and corruption, controller crash/restart, switch
//!   restart), the testbed conditions an attack campaign runs against.
//!
//! # Example: two hosts, one switch, one controller
//!
//! ```
//! use attain_netsim::{NetworkBuilder, SimTime, HostCommand};
//! use attain_controllers::ControllerKind;
//!
//! let mut b = NetworkBuilder::new();
//! let h1 = b.host("h1", "10.0.0.1");
//! let h2 = b.host("h2", "10.0.0.2");
//! let s1 = b.switch("s1");
//! b.link(h1, s1);
//! b.link(h2, s1);
//! let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
//! b.control(c1, s1);
//! let mut sim = b.build();
//!
//! sim.schedule_command(SimTime::from_secs(5), HostCommand::Ping {
//!     host: h1,
//!     dst: "10.0.0.2".parse().unwrap(),
//!     count: 10,
//!     interval: SimTime::from_secs(1),
//!     label: "h1->h2".into(),
//! });
//! sim.run_until(SimTime::from_secs(20));
//! let stats = &sim.ping_stats()[0];
//! assert_eq!(stats.received(), 10);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs, unreachable_pub)]

mod budget;
mod builder;
mod command;
mod controller_host;
pub mod engine;
pub mod fault;
mod host;
pub mod interpose;
mod link;
mod sim;
mod switch;
mod time;
pub mod topo;
mod trace;
pub mod workload;

pub use budget::{HaltReason, RunBudget};
pub use builder::{BuildError, ControllerRef, LinkParams, NetworkBuilder};
pub use command::{HostCommand, ParseCommandError};
pub use controller_host::ControllerHost;
// `SchedulerConfig` is re-exported only for the frozen benchmark's
// `use attain::netsim::SchedulerConfig` (attain_bench/src/layers.rs).
#[doc(hidden)]
pub use engine::SchedulerConfig;
pub use engine::{ConnId, NodeId, TimerToken};
pub use fault::{
    ControllerFaultStats, DetRng, FaultKind, FaultPlan, FaultReport, FaultSpec, FaultTarget,
    LinkStats, ParseFaultError, SwitchFaultStats,
};
pub use host::{Host, IperfStats, PingStats, ProbeStats};
pub use interpose::{
    Delivery, Direction, Interposer, InterposerActions, PassThrough, ProxiedMessage,
};
pub use link::{Link, LinkEnd, TxOutcome};
pub use sim::{ConnInfo, Fork, Simulation};
pub use switch::{
    ApplyOutcome, EvictionPolicy, FailMode, FlowEntry, FlowModError, FlowTable, Switch,
};
pub use time::SimTime;
pub use topo::{FatTreeParams, LeafSpineParams, TopoError, Topology};
pub use trace::{MatchDescription, Trace, TraceDigest, TraceEvent, TraceKind, TraceMode};
pub use workload::{FlowKind, TrafficMatrix, TrafficPattern, WorkloadStats};
