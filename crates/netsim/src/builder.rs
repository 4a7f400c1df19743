//! Topology construction.
//!
//! Hand-written scenarios call [`NetworkBuilder::build`], which panics
//! on a malformed topology (a typo should fail loudly at the call
//! site). Generators producing thousands of nodes use
//! [`NetworkBuilder::try_build`], which returns a typed [`BuildError`]
//! naming the offending node — builder methods themselves never panic
//! on bad references; every problem is reported at build time with its
//! context.

use crate::controller_host::ControllerHost;
use crate::engine::{ConnId, NodeId};
use crate::host::Host;
use crate::link::{Link, LinkEnd, PortTable};
use crate::sim::{Connection, Node, Simulation};
use crate::switch::{FailMode, Switch};
use attain_controllers::Controller;
use attain_openflow::{DatapathId, MacAddr, PortNo};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Reference to a controller added to a [`NetworkBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerRef(pub usize);

/// A malformed topology, detected at build time.
///
/// Every variant names the offending node (or the offending call's
/// position), so a generator emitting thousands of builder calls fails
/// fast with something actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two nodes share a name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A host's IP address did not parse.
    InvalidIp {
        /// The host's name.
        name: String,
        /// The rejected address text.
        ip: String,
    },
    /// A link references a node id that was never created.
    DanglingLink {
        /// Index of the link (in creation order).
        index: usize,
        /// The out-of-range node id.
        id: NodeId,
    },
    /// A link connects a node to itself.
    SelfLink {
        /// The node's name.
        name: String,
    },
    /// A host has more than one link.
    MultihomedHost {
        /// The host's name.
        name: String,
    },
    /// A control connection references a controller that was never
    /// added.
    DanglingController {
        /// Index of the control connection (in creation order).
        index: usize,
    },
    /// A control connection's switch end is a host or an unknown id.
    ControlOnHost {
        /// The target's name, or `n<id>` if the id was out of range.
        name: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateName { name } => write!(f, "duplicate node name {name}"),
            BuildError::InvalidIp { name, ip } => write!(f, "host {name}: invalid ip {ip}"),
            BuildError::DanglingLink { index, id } => {
                write!(f, "link #{index} references unknown node {id}")
            }
            BuildError::SelfLink { name } => write!(f, "link connects {name} to itself"),
            BuildError::MultihomedHost { name } => {
                write!(f, "host {name} may have only one link")
            }
            BuildError::DanglingController { index } => {
                write!(f, "control #{index} references an unknown controller")
            }
            BuildError::ControlOnHost { name } => write!(
                f,
                "{name} is a host; control connections attach to switches"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

enum NodeSpec {
    Host {
        name: String,
        /// Unparsed: validated in `try_build` so a bad address is a
        /// `BuildError`, not a panic mid-generation.
        ip: String,
    },
    Switch {
        name: String,
        fail_mode: FailMode,
    },
}

impl NodeSpec {
    fn name(&self) -> &str {
        match self {
            NodeSpec::Host { name, .. } | NodeSpec::Switch { name, .. } => name,
        }
    }
}

/// Builds a [`Simulation`] from hosts, switches, links, controllers, and
/// control-plane connections — the system model `(C, S, H, N_D, N_C)` of
/// the paper's §IV-A, in executable form.
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<(NodeId, PortNo, NodeId, PortNo)>,
    /// Next free port number per node id (ports are assigned at link
    /// creation, in link order, so generators learn their wiring as
    /// they emit it).
    next_port: Vec<u16>,
    controllers: Vec<(String, Box<dyn Controller>)>,
    controls: Vec<(ControllerRef, NodeId)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Adds an end host with the given IPv4 address (validated at
    /// build time).
    pub fn host(&mut self, name: &str, ip: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec::Host {
            name: name.to_string(),
            ip: ip.to_string(),
        });
        self.next_port.push(0);
        id
    }

    /// Adds a switch with the default fail mode (`secure`, OVS's
    /// OpenFlow-era default).
    pub fn switch(&mut self, name: &str) -> NodeId {
        self.switch_with_mode(name, FailMode::Secure)
    }

    /// Adds a switch with an explicit fail mode.
    pub fn switch_with_mode(&mut self, name: &str, fail_mode: FailMode) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec::Switch {
            name: name.to_string(),
            fail_mode,
        });
        self.next_port.push(0);
        id
    }

    /// The name a diagnostics message should use for `id`.
    fn name_for(&self, id: NodeId) -> String {
        self.nodes
            .get(id.0)
            .map(|n| n.name().to_string())
            .unwrap_or_else(|| id.to_string())
    }

    /// Connects two nodes with a testbed link (100 Mb/s, 250 µs),
    /// returning the assigned `(port_on_a, port_on_b)`. Port numbers are
    /// assigned in link-creation order, matching the paper's `p_{i,j}`
    /// figures.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> (PortNo, PortNo) {
        let mut assign = |id: NodeId| -> PortNo {
            match self.next_port.get_mut(id.0) {
                Some(n) => {
                    *n += 1;
                    PortNo(*n)
                }
                // Dangling id: reported by try_build; the placeholder
                // port never reaches a simulation.
                None => PortNo(0),
            }
        };
        let pa = assign(a);
        let pb = assign(b);
        self.links.push((a, pa, b, pb));
        (pa, pb)
    }

    /// Adds a controller hosting `app`.
    pub fn controller(&mut self, name: &str, app: Box<dyn Controller>) -> ControllerRef {
        let r = ControllerRef(self.controllers.len());
        self.controllers.push((name.to_string(), app));
        r
    }

    /// Adds a control-plane connection `(controller, switch)` to `N_C`
    /// with 1 ms one-way latency.
    pub fn control(&mut self, ctrl: ControllerRef, switch: NodeId) {
        self.controls.push((ctrl, switch));
    }

    /// Validates the accumulated topology, returning the first problem.
    fn validate(&self) -> Result<(), BuildError> {
        let mut seen: HashMap<&str, ()> = HashMap::with_capacity(self.nodes.len());
        for spec in &self.nodes {
            if seen.insert(spec.name(), ()).is_some() {
                return Err(BuildError::DuplicateName {
                    name: spec.name().to_string(),
                });
            }
            if let NodeSpec::Host { name, ip } = spec {
                if ip.parse::<Ipv4Addr>().is_err() {
                    return Err(BuildError::InvalidIp {
                        name: name.clone(),
                        ip: ip.clone(),
                    });
                }
            }
        }
        for (index, &(a, pa, b, pb)) in self.links.iter().enumerate() {
            for id in [a, b] {
                if id.0 >= self.nodes.len() {
                    return Err(BuildError::DanglingLink { index, id });
                }
            }
            if a == b {
                return Err(BuildError::SelfLink {
                    name: self.nodes[a.0].name().to_string(),
                });
            }
            for (id, port) in [(a, pa), (b, pb)] {
                if matches!(self.nodes[id.0], NodeSpec::Host { .. })
                    && port != crate::host::HOST_PORT
                {
                    return Err(BuildError::MultihomedHost {
                        name: self.nodes[id.0].name().to_string(),
                    });
                }
            }
        }
        for (index, &(ctrl, switch)) in self.controls.iter().enumerate() {
            if ctrl.0 >= self.controllers.len() {
                return Err(BuildError::DanglingController { index });
            }
            match self.nodes.get(switch.0) {
                Some(NodeSpec::Switch { .. }) => {}
                _ => {
                    return Err(BuildError::ControlOnHost {
                        name: self.name_for(switch),
                    });
                }
            }
        }
        Ok(())
    }

    /// Assembles the simulation, returning a typed error for a
    /// malformed topology. This is the generator-facing entry point:
    /// it never panics on topology mistakes.
    pub fn try_build(self) -> Result<Simulation, BuildError> {
        self.validate()?;

        let mut names = HashMap::with_capacity(self.nodes.len());
        let mut nodes: Vec<Node> = Vec::with_capacity(self.nodes.len() + self.controllers.len());
        let mut dpid = 0u64;
        for (i, spec) in self.nodes.into_iter().enumerate() {
            let id = NodeId(i);
            match spec {
                NodeSpec::Host { name, ip } => {
                    let Ok(addr) = ip.parse() else {
                        return Err(BuildError::InvalidIp { name, ip });
                    };
                    names.insert(name.clone(), id);
                    // Host MACs derive from the node index; switch port
                    // MACs derive from the dpid, so they cannot collide.
                    nodes.push(Node::Host(Host::new(
                        name,
                        MacAddr::from_low(i as u64 + 1),
                        addr,
                    )));
                }
                NodeSpec::Switch { name, fail_mode } => {
                    dpid += 1;
                    names.insert(name.clone(), id);
                    let switch = Switch::new(name, DatapathId(dpid), fail_mode);
                    nodes.push(Node::Switch(Box::new(switch)));
                }
            }
        }

        let mut links = Vec::with_capacity(self.links.len());
        for (a, pa, b, pb) in self.links {
            for (id, port) in [(a, pa), (b, pb)] {
                if let Node::Switch(s) = &mut nodes[id.0] {
                    s.add_port(port);
                }
            }
            links.push(Link::new(
                LinkEnd { node: a, port: pa },
                LinkEnd { node: b, port: pb },
            ));
        }
        // Controllers come after every host and switch, and have no ports.
        let first_controller = nodes.len();
        for (name, app) in self.controllers {
            nodes.push(Node::Controller(ControllerHost::new(name, app)));
        }
        let mut next_port = self.next_port;
        next_port.resize(nodes.len(), 0);
        let ports = PortTable::new(&next_port, &links);

        let mut connections = Vec::with_capacity(self.controls.len());
        for (i, (ctrl, switch)) in self.controls.into_iter().enumerate() {
            let controller = NodeId(first_controller + ctrl.0);
            if let Node::Switch(s) = &mut nodes[switch.0] {
                s.add_conn(ConnId(i));
            }
            if let Node::Controller(c) = &mut nodes[controller.0] {
                c.add_conn(ConnId(i));
            }
            connections.push(Connection { controller, switch });
        }

        Ok(Simulation::assemble(
            nodes,
            links,
            ports,
            connections,
            names,
        ))
    }

    /// Assembles the simulation.
    ///
    /// # Panics
    ///
    /// Panics on any [`BuildError`] — duplicate names, invalid IPs,
    /// dangling references, multihomed hosts, controls on hosts. The
    /// non-panicking form is [`NetworkBuilder::try_build`].
    pub fn build(self) -> Simulation {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Hop;
    use crate::switch::EvictionPolicy;
    use attain_controllers::ControllerKind;

    #[test]
    fn builds_a_minimal_network() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        b.link(h1, s1);
        b.link(h2, s1);
        let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
        b.control(c1, s1);
        let sim = b.build();
        assert_eq!(sim.host("h1").ip(), "10.0.0.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(sim.switch("s1").dpid(), DatapathId(1));
        let infos = sim.conn_infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].controller, "c1");
        assert_eq!(infos[0].switch, "s1");
    }

    #[test]
    fn set_table_bounds_the_switch() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let s1 = b.switch("s1");
        b.link(h1, s1);
        let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
        b.control(c1, s1);
        let mut sim = b.build();
        sim.set_table_config("s1", 8, EvictionPolicy::EvictLru);
        assert_eq!(sim.switch("s1").flow_table().capacity(), 8);
        assert_eq!(
            sim.switch("s1").flow_table().policy(),
            EvictionPolicy::EvictLru
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn rejects_duplicate_names() {
        let mut b = NetworkBuilder::new();
        b.host("h1", "10.0.0.1");
        b.host("h1", "10.0.0.2");
        b.build();
    }

    #[test]
    #[should_panic(expected = "may have only one link")]
    fn rejects_multihomed_hosts() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.link(h1, s1);
        b.link(h1, s2);
        b.build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        // Duplicate name, surfaced with the offending name.
        let mut b = NetworkBuilder::new();
        b.switch("s1");
        b.switch("s1");
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::DuplicateName { name: "s1".into() })
        );

        // Invalid IP.
        let mut b = NetworkBuilder::new();
        b.host("h1", "10.0.0.256");
        match b.try_build() {
            Err(BuildError::InvalidIp { name, ip }) => {
                assert_eq!(name, "h1");
                assert_eq!(ip, "10.0.0.256");
            }
            other => panic!("expected InvalidIp, got {other:?}"),
        }

        // Dangling link endpoint.
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        b.link(s1, NodeId(17));
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::DanglingLink {
                index: 0,
                id: NodeId(17)
            })
        );

        // Self link.
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        b.link(s1, s1);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::SelfLink { name: "s1".into() })
        );

        // Multihomed host.
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.link(h1, s1);
        b.link(h1, s2);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::MultihomedHost { name: "h1".into() })
        );

        // Control connection on a host.
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let c1 = b.controller("c1", ControllerKind::Floodlight.instantiate());
        b.control(c1, h1);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::ControlOnHost { name: "h1".into() })
        );

        // Control referencing a controller that was never added.
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        b.control(ControllerRef(3), s1);
        assert_eq!(
            b.try_build().err(),
            Some(BuildError::DanglingController { index: 0 })
        );

        // Error messages carry the offending name.
        let err = BuildError::DuplicateName {
            name: "e3_1".into(),
        };
        assert!(err.to_string().contains("e3_1"));
    }

    #[test]
    fn switch_ports_number_in_link_order() {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        // Figure 3's shape: h1,h2 on s1 (ports 1,2); s1-s2 (s1 port 3).
        let (p1, q1) = b.link(h1, s1);
        b.link(h2, s1);
        let (p3, p4) = b.link(s1, s2);
        assert_eq!((p1, q1), (PortNo(1), PortNo(1)));
        assert_eq!((p3, p4), (PortNo(3), PortNo(1)));
        let sim = b.build();
        assert!(sim.ports.get(s1, PortNo(3)).is_some());
        assert!(sim.ports.get(s2, PortNo(1)).is_some());
        assert!(sim.ports.get(s2, PortNo(2)).is_none());
    }

    /// The Figure 8/9 enterprise network's wiring, in the link order the
    /// case study builds it in.
    fn enterprise() -> Simulation {
        let mut b = NetworkBuilder::new();
        let h: Vec<_> = (1..=6)
            .map(|i| b.host(&format!("h{i}"), &format!("10.0.0.{i}")))
            .collect();
        let s: Vec<_> = (1..=4).map(|i| b.switch(&format!("s{i}"))).collect();
        for (x, y) in [
            (h[0], s[0]),
            (h[1], s[0]),
            (s[0], s[1]),
            (s[1], s[2]),
            (h[2], s[2]),
            (h[3], s[2]),
            (s[2], s[3]),
            (h[4], s[3]),
            (h[5], s[3]),
        ] {
            b.link(x, y);
        }
        b.build()
    }

    #[test]
    fn the_port_table_resolves_both_ends_of_every_link_and_nothing_else() {
        let mut fat = NetworkBuilder::new();
        crate::topo::fat_tree(&mut fat, &crate::FatTreeParams::new(4)).expect("k = 4");
        let mut spine = NetworkBuilder::new();
        let params = crate::LeafSpineParams::new(2, 4, 4);
        crate::topo::leaf_spine(&mut spine, &params).expect("2 x 4 x 4");
        for sim in [fat.build(), spine.build(), enterprise()] {
            for (i, link) in sim.links.iter().enumerate() {
                for (near, far) in [(link.a, link.b), (link.b, link.a)] {
                    let hop = Hop { link: i, far };
                    assert_eq!(sim.ports.get(near.node, near.port), Some(hop));
                    assert_eq!(link.opposite(near.node), Some(far));
                }
            }
            for node in (0..sim.nodes.len()).map(NodeId) {
                let attached = |l: &&Link| l.a.node == node || l.b.node == node;
                let last = sim.links.iter().filter(attached).count() as u16;
                for port in [
                    PortNo(0),
                    PortNo(last + 1),
                    PortNo::FLOOD,
                    PortNo::CONTROLLER,
                    PortNo::NONE,
                ] {
                    assert_eq!(sim.ports.get(node, port), None, "{node} port {port}");
                }
            }
        }
    }
}
