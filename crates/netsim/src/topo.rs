//! Datacenter-scale topology generators.
//!
//! The paper's evaluation ran on a ~10-node GENI slice; ROADMAP item 1
//! grows the substrate to fabrics with thousands of switches. This
//! module generates two classic datacenter shapes on top of the
//! ordinary [`NetworkBuilder`] calls — controllers, table bounds, and
//! fault plans compose unchanged:
//!
//! * a **k-ary fat-tree** (Al-Fares et al.): `k` pods of `k/2` edge and
//!   `k/2` aggregation switches plus `(k/2)²` cores — `5k²/4` switches
//!   and `k³/4` hosts, `k/2` on each edge (k=32 → 1280 switches, 8192
//!   hosts);
//! * a **leaf-spine** fabric: every leaf links to every spine, hosts
//!   hang off leaves.
//!
//! Every generated link is a testbed link (100 Mb/s, 250 µs), like
//! every [`NetworkBuilder::link`].
//!
//! Everything is deterministic: names, DPIDs (builder insertion order),
//! MACs (node index), IPs (`10.pod.edge.n` / `10.x.y.n`), and port
//! numbers (link-creation order) are pure functions of the parameters,
//! so same-seed runs digest identically.
//!
//! Generated fabrics are loopy, and MAC-learning flood-on-miss would
//! storm in them. [`install_fat_tree_routes`] / [`install_leaf_spine_routes`]
//! therefore install proactive two-level OpenFlow 1.0 prefix routes
//! (exact `/32` at the edge, pod `/16` and subnet `/24` aggregates
//! above), the standard destination-based fat-tree scheme; switches
//! are fail-secure so anything unroutable drops instead of flooding.

use crate::builder::NetworkBuilder;
use crate::engine::NodeId;
use crate::sim::Simulation;
use crate::switch::EvictionPolicy;
use attain_openflow::{Action, FlowMod, Match, PortNo, Wildcards};
use std::fmt;
use std::net::Ipv4Addr;

/// A malformed generator parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoError {
    /// Fat-tree `k` must be even (pods split into k/2 + k/2).
    OddK(usize),
    /// Fat-tree `k` outside the supported 4..=64 range.
    KOutOfRange(usize),
    /// More hosts per leaf than the `/24` host subnet can address.
    TooManyHosts(usize),
    /// A leaf-spine dimension was zero or beyond the IP scheme's range.
    BadDimensions {
        /// Requested spine count.
        spines: usize,
        /// Requested leaf count.
        leaves: usize,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::OddK(k) => write!(f, "fat-tree k must be even, got {k}"),
            TopoError::KOutOfRange(k) => write!(f, "fat-tree k must be in 4..=64, got {k}"),
            TopoError::TooManyHosts(n) => {
                write!(f, "at most 253 hosts fit one /24 host subnet, got {n}")
            }
            TopoError::BadDimensions { spines, leaves } => {
                write!(
                    f,
                    "leaf-spine needs 1..=64 spines and 1..=16000 leaves, got {spines}x{leaves}"
                )
            }
        }
    }
}

impl std::error::Error for TopoError {}

/// Parameters for [`fat_tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeParams {
    /// Fat-tree arity: even, in 4..=64. `5k²/4` switches, `k` pods,
    /// `k/2` hosts on each edge switch.
    pub k: usize,
}

impl FatTreeParams {
    /// The classic k-ary fat-tree.
    pub fn new(k: usize) -> FatTreeParams {
        FatTreeParams { k }
    }
}

/// Parameters for [`leaf_spine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafSpineParams {
    /// Spine switches (1..=64); every leaf uplinks to every spine.
    pub spines: usize,
    /// Leaf switches (1..=16000).
    pub leaves: usize,
    /// Hosts attached to each leaf (1..=253).
    pub hosts_per_leaf: usize,
}

impl LeafSpineParams {
    /// A leaf-spine fabric with the given dimensions.
    pub fn new(spines: usize, leaves: usize, hosts_per_leaf: usize) -> LeafSpineParams {
        LeafSpineParams {
            spines,
            leaves,
            hosts_per_leaf,
        }
    }
}

/// One generated host: its node id and deterministic address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoHost {
    /// The host's node id.
    pub id: NodeId,
    /// The host's generated IPv4 address.
    pub ip: Ipv4Addr,
}

/// What shape a [`Topology`] is (drives route installation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoKind {
    FatTree { k: usize },
    LeafSpine { spines: usize, leaves: usize },
}

/// The wiring record a generator leaves behind: node ids by role, hosts
/// with their addresses, and the port tables route installation needs.
///
/// Indices are *local* to the generated fabric (edge 0 is the first
/// edge switch this generator created), so multiple fabrics — or a
/// fabric plus hand-wired nodes — can share one builder.
#[derive(Debug)]
pub struct Topology {
    kind: TopoKind,
    /// Core (fat-tree) or spine (leaf-spine) switches.
    pub core: Vec<NodeId>,
    /// Aggregation switches (empty for leaf-spine).
    pub agg: Vec<NodeId>,
    /// Edge (fat-tree) or leaf (leaf-spine) switches.
    pub edge: Vec<NodeId>,
    /// Generated hosts in creation order.
    pub hosts: Vec<TopoHost>,
    /// `[edge][local host] -> edge port` toward that host.
    edge_host_port: Vec<Vec<PortNo>>,
    /// `[edge][uplink] -> edge port` toward agg `uplink` (or spine).
    edge_up_port: Vec<Vec<PortNo>>,
    /// `[agg][local edge] -> agg port` down toward that edge.
    agg_down_port: Vec<Vec<PortNo>>,
    /// `[agg][uplink] -> agg port` toward its `uplink`-th core.
    agg_up_port: Vec<Vec<PortNo>>,
    /// `[core][pod] -> core port` toward that pod (or `[spine][leaf]`).
    core_down_port: Vec<Vec<PortNo>>,
}

impl Topology {
    /// Total switches in the generated fabric.
    pub fn switch_count(&self) -> usize {
        self.core.len() + self.agg.len() + self.edge.len()
    }

    /// Total generated hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }
}

/// The address of fat-tree host `idx` on edge `e` of pod `p`:
/// `10.p.e.(idx+2)` (the Al-Fares scheme, host part offset past .0/.1).
fn fat_tree_ip(pod: usize, edge: usize, idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, pod as u8, edge as u8, (idx + 2) as u8)
}

/// The address of leaf-spine host `idx` on leaf `l`:
/// `10.(l/250).(l%250).(idx+2)`.
fn leaf_spine_ip(leaf: usize, idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, (leaf / 250) as u8, (leaf % 250) as u8, (idx + 2) as u8)
}

/// Generates a k-ary fat-tree into `b`, returning its [`Topology`].
///
/// Names are prefixed to stay disjoint from hand-wired nodes:
/// `ftc<i>` (core), `fta<pod>_<i>` / `fte<pod>_<i>` (aggregation /
/// edge), `fth<n>` (hosts). Link order — and therefore port numbering —
/// is: per pod, edge-to-host, then edge-to-agg, then agg-to-core.
pub fn fat_tree(b: &mut NetworkBuilder, p: &FatTreeParams) -> Result<Topology, TopoError> {
    if !p.k.is_multiple_of(2) {
        return Err(TopoError::OddK(p.k));
    }
    if !(4..=64).contains(&p.k) {
        return Err(TopoError::KOutOfRange(p.k));
    }
    let half = p.k / 2;

    let core: Vec<NodeId> = (0..half * half)
        .map(|i| b.switch(&format!("ftc{i}")))
        .collect();
    let mut agg = Vec::with_capacity(p.k * half);
    let mut edge = Vec::with_capacity(p.k * half);
    for pod in 0..p.k {
        for i in 0..half {
            agg.push(b.switch(&format!("fta{pod}_{i}")));
        }
        for i in 0..half {
            edge.push(b.switch(&format!("fte{pod}_{i}")));
        }
    }

    let mut hosts = Vec::with_capacity(p.k * half * half);
    let mut edge_host_port = vec![Vec::with_capacity(half); edge.len()];
    let mut edge_up_port = vec![Vec::with_capacity(half); edge.len()];
    let mut agg_down_port = vec![Vec::with_capacity(half); agg.len()];
    let mut agg_up_port = vec![Vec::with_capacity(half); agg.len()];
    let mut core_down_port = vec![Vec::with_capacity(p.k); core.len()];
    // Pre-fill core rows so `core_down_port[c][pod]` can be assigned in
    // pod-major order below.
    for row in &mut core_down_port {
        row.resize(p.k, PortNo(0));
    }

    // `pod` is the *inner* index of `core_down_port[c][pod]`; the outer
    // index is the core switch, so iterating `core_down_port` here would
    // invert the wiring.
    #[allow(clippy::needless_range_loop)]
    for pod in 0..p.k {
        for e in 0..half {
            let eg = pod * half + e; // global edge index
            for hidx in 0..half {
                let n = hosts.len();
                let ip = fat_tree_ip(pod, e, hidx);
                let h = b.host(&format!("fth{n}"), &ip.to_string());
                let (_, ep) = b.link(h, edge[eg]);
                edge_host_port[eg].push(ep);
                hosts.push(TopoHost { id: h, ip });
            }
            for a in 0..half {
                let ag = pod * half + a;
                let (ep, ap) = b.link(edge[eg], agg[ag]);
                edge_up_port[eg].push(ep);
                agg_down_port[ag].push(ap);
            }
        }
        // Aggregation switch `a` of every pod uplinks to cores
        // `a*half .. (a+1)*half` — the standard k-ary wiring.
        for a in 0..half {
            let ag = pod * half + a;
            for m in 0..half {
                let c = a * half + m;
                let (ap, cp) = b.link(agg[ag], core[c]);
                agg_up_port[ag].push(ap);
                core_down_port[c][pod] = cp;
            }
        }
    }

    Ok(Topology {
        kind: TopoKind::FatTree { k: p.k },
        core,
        agg,
        edge,
        hosts,
        edge_host_port,
        edge_up_port,
        agg_down_port,
        agg_up_port,
        core_down_port,
    })
}

/// Generates a leaf-spine fabric into `b`, returning its [`Topology`].
///
/// Names: `lss<i>` (spines), `lsl<i>` (leaves), `lsh<n>` (hosts).
pub fn leaf_spine(b: &mut NetworkBuilder, p: &LeafSpineParams) -> Result<Topology, TopoError> {
    if p.spines == 0 || p.spines > 64 || p.leaves == 0 || p.leaves > 16_000 {
        return Err(TopoError::BadDimensions {
            spines: p.spines,
            leaves: p.leaves,
        });
    }
    if p.hosts_per_leaf == 0 || p.hosts_per_leaf > 253 {
        return Err(TopoError::TooManyHosts(p.hosts_per_leaf));
    }

    let spines: Vec<NodeId> = (0..p.spines)
        .map(|i| b.switch(&format!("lss{i}")))
        .collect();
    let leaves: Vec<NodeId> = (0..p.leaves)
        .map(|i| b.switch(&format!("lsl{i}")))
        .collect();

    let mut hosts = Vec::with_capacity(p.leaves * p.hosts_per_leaf);
    let mut edge_host_port = vec![Vec::with_capacity(p.hosts_per_leaf); p.leaves];
    let mut edge_up_port = vec![Vec::with_capacity(p.spines); p.leaves];
    let mut core_down_port = vec![vec![PortNo(0); p.leaves]; p.spines];

    for l in 0..p.leaves {
        for hidx in 0..p.hosts_per_leaf {
            let n = hosts.len();
            let ip = leaf_spine_ip(l, hidx);
            let h = b.host(&format!("lsh{n}"), &ip.to_string());
            let (_, lp) = b.link(h, leaves[l]);
            edge_host_port[l].push(lp);
            hosts.push(TopoHost { id: h, ip });
        }
        for s in 0..p.spines {
            let (lp, sp) = b.link(leaves[l], spines[s]);
            edge_up_port[l].push(lp);
            core_down_port[s][l] = sp;
        }
    }

    Ok(Topology {
        kind: TopoKind::LeafSpine {
            spines: p.spines,
            leaves: p.leaves,
        },
        core: spines,
        agg: Vec::new(),
        edge: leaves,
        hosts,
        edge_host_port,
        edge_up_port,
        agg_down_port: Vec::new(),
        agg_up_port: Vec::new(),
        core_down_port,
    })
}

/// Route-rule priorities, most to least specific.
const PRIO_HOST: u16 = 0x9000; // /32 to a local host
const PRIO_SUBNET: u16 = 0x8800; // /24 within the fabric
const PRIO_POD: u16 = 0x8400; // /16 to a pod
const PRIO_DEFAULT: u16 = 0x8000; // everything else

/// A `dl_type=ip, nw_dst=<ip>/<prefix>` match.
fn ip_dst(ip: Ipv4Addr, prefix: u32) -> Match {
    let mut m = Match::all();
    m.wildcards =
        Wildcards(Wildcards::ALL.0 & !Wildcards::DL_TYPE).with_nw_dst_ignored_bits(32 - prefix);
    m.dl_type = 0x0800;
    m.nw_dst = u32::from(ip);
    m
}

fn out(port: PortNo) -> Vec<Action> {
    vec![Action::Output { port, max_len: 0 }]
}

fn route(m: Match, priority: u16, actions: Vec<Action>) -> FlowMod {
    FlowMod {
        priority,
        ..FlowMod::add(m, actions)
    }
}

/// Installs proactive destination-based prefix routes for a generated
/// fat-tree, returning the number of rules installed.
///
/// Per edge switch: one `/32` per local host, a drop for the rest of
/// its own `/24` (so a mangled or unknown address dies at the edge
/// instead of ping-ponging), one `/16` per remote pod toward agg
/// `pod % (k/2)`, and a default up-route for intra-pod traffic. Per
/// aggregation switch: one `/24` per local edge downward, one `/16` per
/// remote pod toward core uplink `pod % (k/2)`. Per core: one `/16`
/// per pod. Every path is a deterministic single route, so the fabric
/// needs no controller to forward (controllers still compose for the
/// attack scenarios — these rules simply never miss for valid hosts).
///
/// # Panics
///
/// Panics if `topo` did not come from [`fat_tree`] or its rules do not
/// fit a switch's flow-table bound.
pub fn install_fat_tree_routes(sim: &mut Simulation, topo: &Topology) -> usize {
    let TopoKind::FatTree { k } = topo.kind else {
        panic!("topology is not a fat-tree");
    };
    let half = k / 2;
    let mut rules = 0;
    let mut push = |sim: &mut Simulation, node: NodeId, fm: FlowMod| {
        sim.install_flow_at(node, &fm)
            .unwrap_or_else(|e| panic!("route rejected: {e:?}"));
        rules += 1;
    };

    for pod in 0..k {
        for e in 0..half {
            let eg = pod * half + e;
            let edge = topo.edge[eg];
            for (hidx, &port) in topo.edge_host_port[eg].iter().enumerate() {
                let ip = fat_tree_ip(pod, e, hidx);
                push(sim, edge, route(ip_dst(ip, 32), PRIO_HOST, out(port)));
            }
            // Unknown addresses in our own subnet: drop at the edge.
            let subnet = Ipv4Addr::new(10, pod as u8, e as u8, 0);
            push(sim, edge, route(ip_dst(subnet, 24), PRIO_SUBNET, vec![]));
            for q in 0..k {
                if q == pod {
                    continue;
                }
                let up = topo.edge_up_port[eg][q % half];
                let pod_net = Ipv4Addr::new(10, q as u8, 0, 0);
                push(sim, edge, route(ip_dst(pod_net, 16), PRIO_POD, out(up)));
            }
            // Intra-pod, other edges: any agg can route it down.
            let any = Ipv4Addr::new(10, 0, 0, 0);
            let up = topo.edge_up_port[eg][e % half];
            push(sim, edge, route(ip_dst(any, 8), PRIO_DEFAULT, out(up)));
        }
        for a in 0..half {
            let ag = pod * half + a;
            let agg = topo.agg[ag];
            for (e, &down) in topo.agg_down_port[ag].iter().enumerate() {
                let subnet = Ipv4Addr::new(10, pod as u8, e as u8, 0);
                push(sim, agg, route(ip_dst(subnet, 24), PRIO_SUBNET, out(down)));
            }
            for q in 0..k {
                if q == pod {
                    continue;
                }
                let up = topo.agg_up_port[ag][q % half];
                let pod_net = Ipv4Addr::new(10, q as u8, 0, 0);
                push(sim, agg, route(ip_dst(pod_net, 16), PRIO_POD, out(up)));
            }
        }
    }
    for (c, ports) in topo.core_down_port.iter().enumerate() {
        let core = topo.core[c];
        for (pod, &port) in ports.iter().enumerate() {
            let pod_net = Ipv4Addr::new(10, pod as u8, 0, 0);
            push(sim, core, route(ip_dst(pod_net, 16), PRIO_POD, out(port)));
        }
    }
    rules
}

/// Installs proactive routes for a generated leaf-spine fabric,
/// returning the number of rules installed: per leaf, one `/32` per
/// local host, a drop for the rest of its own subnet, and a default
/// up-route to spine `leaf % spines`; per spine, one `/24` per leaf.
/// A spine whose routes would not fit the default 1,024-entry table
/// first gets room for one per leaf, plus eight.
///
/// # Panics
///
/// Panics if `topo` did not come from [`leaf_spine`] or a rule is
/// rejected.
pub fn install_leaf_spine_routes(sim: &mut Simulation, topo: &Topology) -> usize {
    let TopoKind::LeafSpine { spines, leaves } = topo.kind else {
        panic!("topology is not leaf-spine");
    };
    let mut rules = 0;
    let mut push = |sim: &mut Simulation, node: NodeId, fm: FlowMod| {
        sim.install_flow_at(node, &fm)
            .unwrap_or_else(|e| panic!("route rejected: {e:?}"));
        rules += 1;
    };

    for l in 0..leaves {
        let leaf = topo.edge[l];
        for (hidx, &port) in topo.edge_host_port[l].iter().enumerate() {
            let ip = leaf_spine_ip(l, hidx);
            push(sim, leaf, route(ip_dst(ip, 32), PRIO_HOST, out(port)));
        }
        let subnet = Ipv4Addr::new(10, (l / 250) as u8, (l % 250) as u8, 0);
        push(sim, leaf, route(ip_dst(subnet, 24), PRIO_SUBNET, vec![]));
        let any = Ipv4Addr::new(10, 0, 0, 0);
        let up = topo.edge_up_port[l][l % spines];
        push(sim, leaf, route(ip_dst(any, 8), PRIO_DEFAULT, out(up)));
    }
    for (s, ports) in topo.core_down_port.iter().enumerate() {
        let spine = topo.core[s];
        if leaves + 8 > 1024 {
            let name = sim.node_name(spine).to_string();
            sim.set_table_config(&name, leaves + 8, EvictionPolicy::Reject);
        }
        for (l, &port) in ports.iter().enumerate() {
            let subnet = Ipv4Addr::new(10, (l / 250) as u8, (l % 250) as u8, 0);
            push(
                sim,
                spine,
                route(ip_dst(subnet, 24), PRIO_SUBNET, out(port)),
            );
        }
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::HostCommand;
    use crate::time::SimTime;

    #[test]
    fn fat_tree_dimensions_match_the_formula() {
        for k in [4usize, 8] {
            let mut b = NetworkBuilder::new();
            let t = fat_tree(&mut b, &FatTreeParams::new(k)).unwrap();
            assert_eq!(t.core.len(), k * k / 4);
            assert_eq!(t.agg.len(), k * k / 2);
            assert_eq!(t.edge.len(), k * k / 2);
            assert_eq!(t.switch_count(), 5 * k * k / 4);
            assert_eq!(t.host_count(), k * k * k / 4);
            b.try_build().unwrap();
        }
    }

    #[test]
    fn fat_tree_rejects_bad_parameters() {
        let mut b = NetworkBuilder::new();
        assert_eq!(
            fat_tree(&mut b, &FatTreeParams::new(5)).err(),
            Some(TopoError::OddK(5))
        );
        assert_eq!(
            fat_tree(&mut b, &FatTreeParams::new(2)).err(),
            Some(TopoError::KOutOfRange(2))
        );
        let mut b = NetworkBuilder::new();
        assert_eq!(
            leaf_spine(&mut b, &LeafSpineParams::new(0, 4, 2)).err(),
            Some(TopoError::BadDimensions {
                spines: 0,
                leaves: 4
            })
        );
    }

    #[test]
    fn fat_tree_routes_carry_pings_across_pods() {
        let mut b = NetworkBuilder::new();
        let t = fat_tree(&mut b, &FatTreeParams::new(4)).unwrap();
        let mut sim = b.build();
        let rules = install_fat_tree_routes(&mut sim, &t);
        assert!(rules > 0);
        // First host of pod 0 pings the last host (pod 3): 5 hops each
        // way through edge→agg→core→agg→edge.
        let src = t.hosts[0];
        let dst = *t.hosts.last().unwrap();
        sim.prime_arp(src.id, dst.id);
        sim.schedule_command(
            SimTime::from_secs(1),
            HostCommand::Ping {
                host: src.id,
                dst: dst.ip,
                count: 3,
                interval: SimTime::from_secs(1),
                label: "x-pod".into(),
            },
        );
        // Intra-pod, across edges (exercises the default up-route).
        let same_pod = t.hosts[2]; // edge 1 of pod 0 (k=4: 2 hosts/edge)
        sim.prime_arp(src.id, same_pod.id);
        sim.schedule_command(
            SimTime::from_secs(1),
            HostCommand::Ping {
                host: src.id,
                dst: same_pod.ip,
                count: 3,
                interval: SimTime::from_secs(1),
                label: "in-pod".into(),
            },
        );
        sim.run_until(SimTime::from_secs(6));
        let stats = sim.ping_stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.received(), 3, "{}: lost pings", s.label);
        }
    }

    #[test]
    fn leaf_spine_routes_carry_pings_across_leaves() {
        let mut b = NetworkBuilder::new();
        let t = leaf_spine(&mut b, &LeafSpineParams::new(2, 4, 3)).unwrap();
        assert_eq!(t.switch_count(), 6);
        assert_eq!(t.host_count(), 12);
        let mut sim = b.build();
        install_leaf_spine_routes(&mut sim, &t);
        let src = t.hosts[0];
        let dst = *t.hosts.last().unwrap();
        sim.prime_arp(src.id, dst.id);
        sim.schedule_command(
            SimTime::from_secs(1),
            HostCommand::Ping {
                host: src.id,
                dst: dst.ip,
                count: 2,
                interval: SimTime::from_secs(1),
                label: "x-leaf".into(),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.ping_stats()[0].received(), 2);
    }

    #[test]
    fn wide_leaf_spine_spines_are_sized_for_one_route_per_leaf() {
        let (spines, leaves) = (2, 1_100);
        let mut b = NetworkBuilder::new();
        let t = leaf_spine(&mut b, &LeafSpineParams::new(spines, leaves, 1)).unwrap();
        let mut sim = b.build();
        // Per leaf: a /32, a subnet drop and a default; per spine, a /24
        // per leaf. A rejected route panics.
        let rules = install_leaf_spine_routes(&mut sim, &t);
        assert_eq!(rules, leaves * 3 + spines * leaves);
        for &spine in &t.core {
            let table = sim.switch(sim.node_name(spine)).flow_table();
            assert_eq!(table.capacity(), leaves + 8);
            assert_eq!(table.len(), leaves);
        }
    }

    #[test]
    fn generated_addressing_is_deterministic() {
        let build = || {
            let mut b = NetworkBuilder::new();
            let t = fat_tree(&mut b, &FatTreeParams::new(4)).unwrap();
            (t.hosts.iter().map(|h| (h.id, h.ip)).collect::<Vec<_>>(),)
        };
        assert_eq!(build(), build());
        let mut b = NetworkBuilder::new();
        let t = fat_tree(&mut b, &FatTreeParams::new(4)).unwrap();
        assert_eq!(t.hosts[0].ip, "10.0.0.2".parse::<Ipv4Addr>().unwrap());
        assert_eq!(t.hosts[2].ip, "10.0.1.2".parse::<Ipv4Addr>().unwrap());
        assert_eq!(
            t.hosts.last().unwrap().ip,
            "10.3.1.3".parse::<Ipv4Addr>().unwrap()
        );
    }
}
