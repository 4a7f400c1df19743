//! The system model (paper §IV-A): controllers `C`, switches `S`, end
//! hosts `H`, the data-plane graph `N_D`, and the control-plane relation
//! `N_C ⊆ C × S`.

use attain_openflow::MacAddr;
use std::fmt;
use std::net::Ipv4Addr;

/// Index of a controller in a [`SystemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ControllerId(pub usize);

/// Index of a switch in a [`SystemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub usize);

/// Index of a host in a [`SystemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// Index of a control-plane connection (an element of `N_C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnectionId(pub usize);

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A reference to any system component that can be a message source or
/// destination, or a data-plane vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeRef {
    /// A controller.
    Controller(ControllerId),
    /// A switch.
    Switch(SwitchId),
    /// An end host.
    Host(HostId),
}

/// A controller `c_i ∈ C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerSpec {
    /// Name, e.g. `c1`.
    pub name: String,
}

/// A switch `s_i ∈ S`, with its port set `P_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Name, e.g. `s1`.
    pub name: String,
    /// Port numbers in use (populated by `add_link`).
    pub ports: Vec<u16>,
}

/// An end host `h_i ∈ H`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// Name, e.g. `h1`.
    pub name: String,
    /// IPv4 address, if modeled.
    pub ip: Option<Ipv4Addr>,
    /// MAC address, if modeled.
    pub mac: Option<MacAddr>,
}

/// An edge of the data-plane graph `N_D`, with the paper's edge
/// attributes `A_{N_D}`: the ingress/egress port on each endpoint
/// (`None` = the paper's NULL, used for host ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataEdge {
    /// First endpoint.
    pub a: NodeRef,
    /// First endpoint's port (NULL for hosts).
    pub a_port: Option<u16>,
    /// Second endpoint.
    pub b: NodeRef,
    /// Second endpoint's port (NULL for hosts).
    pub b_port: Option<u16>,
}

/// Error constructing or validating a system model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemModelError {
    /// A name was used twice.
    DuplicateName(String),
    /// A lookup failed.
    UnknownName(String),
    /// The model violates the paper's well-formedness assumptions
    /// (`|C| ≥ 1`, `|S| ≥ 1`, `|H| ≥ 2`).
    NotFunctional(&'static str),
    /// A duplicate control-plane connection.
    DuplicateConnection(String),
}

impl fmt::Display for SystemModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemModelError::DuplicateName(n) => write!(f, "duplicate component name {n}"),
            SystemModelError::UnknownName(n) => write!(f, "unknown component name {n}"),
            SystemModelError::NotFunctional(why) => {
                write!(f, "system model is not a functional SDN network: {why}")
            }
            SystemModelError::DuplicateConnection(n) => {
                write!(f, "duplicate control plane connection {n}")
            }
        }
    }
}

impl std::error::Error for SystemModelError {}

/// The complete system model `(C, S, H, N_D, N_C)`.
///
/// ```
/// use attain_core::model::SystemModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's Figure 3 example data plane.
/// let mut m = SystemModel::new();
/// let c1 = m.add_controller("c1")?;
/// let s1 = m.add_switch("s1")?;
/// let s2 = m.add_switch("s2")?;
/// let h1 = m.add_host("h1", None, None)?;
/// let h2 = m.add_host("h2", None, None)?;
/// let h3 = m.add_host("h3", None, None)?;
/// m.add_host_link(h1, s1, 1)?;
/// m.add_host_link(h2, s1, 2)?;
/// m.add_switch_link(s1, 3, s2, 1)?;
/// m.add_host_link(h3, s2, 2)?;
/// m.add_connection(c1, s1)?;
/// m.add_connection(c1, s2)?;
/// m.validate()?;
/// assert_eq!(m.data_plane().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemModel {
    controllers: Vec<ControllerSpec>,
    switches: Vec<SwitchSpec>,
    hosts: Vec<HostSpec>,
    data_plane: Vec<DataEdge>,
    control_plane: Vec<(ControllerId, SwitchId)>,
}

impl SystemModel {
    /// Creates an empty model.
    pub fn new() -> SystemModel {
        SystemModel::default()
    }

    fn name_taken(&self, name: &str) -> bool {
        self.controllers.iter().any(|c| c.name == name)
            || self.switches.iter().any(|s| s.name == name)
            || self.hosts.iter().any(|h| h.name == name)
    }

    /// Adds a controller.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate name.
    pub fn add_controller(&mut self, name: &str) -> Result<ControllerId, SystemModelError> {
        if self.name_taken(name) {
            return Err(SystemModelError::DuplicateName(name.to_string()));
        }
        self.controllers.push(ControllerSpec {
            name: name.to_string(),
        });
        Ok(ControllerId(self.controllers.len() - 1))
    }

    /// Adds a switch.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate name.
    pub fn add_switch(&mut self, name: &str) -> Result<SwitchId, SystemModelError> {
        if self.name_taken(name) {
            return Err(SystemModelError::DuplicateName(name.to_string()));
        }
        self.switches.push(SwitchSpec {
            name: name.to_string(),
            ports: Vec::new(),
        });
        Ok(SwitchId(self.switches.len() - 1))
    }

    /// Adds an end host.
    ///
    /// # Errors
    ///
    /// Fails on a duplicate name.
    pub fn add_host(
        &mut self,
        name: &str,
        ip: Option<Ipv4Addr>,
        mac: Option<MacAddr>,
    ) -> Result<HostId, SystemModelError> {
        if self.name_taken(name) {
            return Err(SystemModelError::DuplicateName(name.to_string()));
        }
        self.hosts.push(HostSpec {
            name: name.to_string(),
            ip,
            mac,
        });
        Ok(HostId(self.hosts.len() - 1))
    }

    /// Adds a host↔switch edge to `N_D` (the host side's port is NULL,
    /// as in Figure 3).
    ///
    /// # Errors
    ///
    /// Currently infallible for in-range ids; returns `Result` for
    /// forward compatibility with richer validation.
    pub fn add_host_link(
        &mut self,
        host: HostId,
        switch: SwitchId,
        switch_port: u16,
    ) -> Result<(), SystemModelError> {
        self.switches[switch.0].ports.push(switch_port);
        self.data_plane.push(DataEdge {
            a: NodeRef::Host(host),
            a_port: None,
            b: NodeRef::Switch(switch),
            b_port: Some(switch_port),
        });
        Ok(())
    }

    /// Adds a switch↔switch edge to `N_D`.
    ///
    /// # Errors
    ///
    /// Currently infallible for in-range ids; returns `Result` for
    /// forward compatibility.
    pub fn add_switch_link(
        &mut self,
        a: SwitchId,
        a_port: u16,
        b: SwitchId,
        b_port: u16,
    ) -> Result<(), SystemModelError> {
        self.switches[a.0].ports.push(a_port);
        self.switches[b.0].ports.push(b_port);
        self.data_plane.push(DataEdge {
            a: NodeRef::Switch(a),
            a_port: Some(a_port),
            b: NodeRef::Switch(b),
            b_port: Some(b_port),
        });
        Ok(())
    }

    /// Adds a control-plane connection to `N_C`.
    ///
    /// # Errors
    ///
    /// Fails if the pair is already present (it is a relation, not a
    /// multiset).
    pub fn add_connection(
        &mut self,
        c: ControllerId,
        s: SwitchId,
    ) -> Result<ConnectionId, SystemModelError> {
        if self.control_plane.contains(&(c, s)) {
            return Err(SystemModelError::DuplicateConnection(format!(
                "({}, {})",
                self.controllers[c.0].name, self.switches[s.0].name
            )));
        }
        self.control_plane.push((c, s));
        Ok(ConnectionId(self.control_plane.len() - 1))
    }

    /// Checks the paper's functional-network assumptions: `|C| ≥ 1`,
    /// `|S| ≥ 1`, `|H| ≥ 2`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemModelError::NotFunctional`] naming the violated
    /// assumption.
    pub fn validate(&self) -> Result<(), SystemModelError> {
        if self.controllers.is_empty() {
            return Err(SystemModelError::NotFunctional("|C| must be >= 1"));
        }
        if self.switches.is_empty() {
            return Err(SystemModelError::NotFunctional("|S| must be >= 1"));
        }
        if self.hosts.len() < 2 {
            return Err(SystemModelError::NotFunctional("|H| must be >= 2"));
        }
        Ok(())
    }

    // ---- lookups ------------------------------------------------------

    /// Controllers, in id order.
    pub fn controllers(&self) -> impl Iterator<Item = (ControllerId, &ControllerSpec)> {
        self.controllers
            .iter()
            .enumerate()
            .map(|(i, c)| (ControllerId(i), c))
    }

    /// Switches, in id order.
    pub fn switches(&self) -> impl Iterator<Item = (SwitchId, &SwitchSpec)> {
        self.switches
            .iter()
            .enumerate()
            .map(|(i, s)| (SwitchId(i), s))
    }

    /// Hosts, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &HostSpec)> {
        self.hosts.iter().enumerate().map(|(i, h)| (HostId(i), h))
    }

    /// The data-plane edge list (`N_D`).
    pub fn data_plane(&self) -> &[DataEdge] {
        &self.data_plane
    }

    /// The control-plane relation (`N_C`), indexed by [`ConnectionId`].
    pub fn connections(&self) -> impl Iterator<Item = (ConnectionId, ControllerId, SwitchId)> + '_ {
        self.control_plane
            .iter()
            .enumerate()
            .map(|(i, &(c, s))| (ConnectionId(i), c, s))
    }

    /// Number of control-plane connections.
    pub fn connection_count(&self) -> usize {
        self.control_plane.len()
    }

    /// The endpoints of a connection.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn connection(&self, id: ConnectionId) -> (ControllerId, SwitchId) {
        self.control_plane[id.0]
    }

    /// Resolves a component name to a [`NodeRef`].
    pub(crate) fn resolve(&self, name: &str) -> Option<NodeRef> {
        if let Some(i) = self.controllers.iter().position(|c| c.name == name) {
            return Some(NodeRef::Controller(ControllerId(i)));
        }
        if let Some(i) = self.switches.iter().position(|s| s.name == name) {
            return Some(NodeRef::Switch(SwitchId(i)));
        }
        if let Some(i) = self.hosts.iter().position(|h| h.name == name) {
            return Some(NodeRef::Host(HostId(i)));
        }
        None
    }

    /// The name of a component.
    pub fn name_of(&self, node: NodeRef) -> &str {
        match node {
            NodeRef::Controller(c) => &self.controllers[c.0].name,
            NodeRef::Switch(s) => &self.switches[s.0].name,
            NodeRef::Host(h) => &self.hosts[h.0].name,
        }
    }

    /// Finds the connection id for a `(controller, switch)` name pair.
    pub fn connection_by_names(&self, controller: &str, switch: &str) -> Option<ConnectionId> {
        let c = match self.resolve(controller)? {
            NodeRef::Controller(c) => c,
            _ => return None,
        };
        let s = match self.resolve(switch)? {
            NodeRef::Switch(s) => s,
            _ => return None,
        };
        self.control_plane
            .iter()
            .position(|&(pc, ps)| pc == c && ps == s)
            .map(ConnectionId)
    }

    /// Worst-case memory footprint terms from the paper's §VI-D1:
    /// `O((|S|+|H|)²)` for `N_D` and `O(|C|·|S|)` for `N_C`.
    pub fn memory_complexity_bounds(&self) -> (usize, usize) {
        let v = self.switches.len() + self.hosts.len();
        (v * v, self.controllers.len() * self.switches.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the paper's Figure 3 example `N_D`.
    fn figure3() -> SystemModel {
        let mut m = SystemModel::new();
        m.add_controller("c1").unwrap();
        let s1 = m.add_switch("s1").unwrap();
        let s2 = m.add_switch("s2").unwrap();
        let h1 = m.add_host("h1", None, None).unwrap();
        let h2 = m.add_host("h2", None, None).unwrap();
        let h3 = m.add_host("h3", None, None).unwrap();
        m.add_host_link(h1, s1, 1).unwrap();
        m.add_host_link(h2, s1, 2).unwrap();
        m.add_switch_link(s1, 3, s2, 1).unwrap();
        m.add_host_link(h3, s2, 2).unwrap();
        m
    }

    #[test]
    fn figure3_data_plane_shape() {
        let m = figure3();
        assert_eq!(m.data_plane().len(), 4);
        // Host ends carry NULL ports, switch ends concrete ones.
        let edge = m.data_plane()[0];
        assert_eq!(edge.a_port, None);
        assert_eq!(edge.b_port, Some(1));
        // s1 has ports {1,2,3}.
        let (_, s1) = m.switches().next().unwrap();
        assert_eq!(s1.ports, vec![1, 2, 3]);
    }

    /// Builds the paper's Figure 4 example `N_C`.
    #[test]
    fn figure4_control_plane_shape() {
        let mut m = SystemModel::new();
        let c1 = m.add_controller("c1").unwrap();
        let c2 = m.add_controller("c2").unwrap();
        let switches: Vec<_> = (1..=4)
            .map(|i| m.add_switch(&format!("s{i}")).unwrap())
            .collect();
        for &s in &switches {
            m.add_connection(c1, s).unwrap();
        }
        m.add_connection(c2, switches[2]).unwrap();
        m.add_connection(c2, switches[3]).unwrap();
        assert_eq!(m.connection_count(), 6);
        assert_eq!(m.connection_by_names("c2", "s3"), Some(ConnectionId(4)));
        assert_eq!(m.connection_by_names("c2", "s1"), None);
        // N_C is a relation: duplicates rejected.
        assert!(m.add_connection(c1, switches[0]).is_err());
    }

    #[test]
    fn validation_enforces_functional_network_assumptions() {
        let mut m = SystemModel::new();
        assert!(m.validate().is_err());
        m.add_controller("c1").unwrap();
        assert!(m.validate().is_err());
        m.add_switch("s1").unwrap();
        assert!(m.validate().is_err());
        m.add_host("h1", None, None).unwrap();
        assert!(m.validate().is_err()); // |H| >= 2
        m.add_host("h2", None, None).unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn names_are_unique_across_component_kinds() {
        let mut m = SystemModel::new();
        m.add_controller("x").unwrap();
        assert!(m.add_switch("x").is_err());
        assert!(m.add_host("x", None, None).is_err());
    }

    #[test]
    fn resolve_and_name_of_are_inverse() {
        let m = figure3();
        for name in ["c1", "s1", "s2", "h1", "h2", "h3"] {
            let node = m.resolve(name).unwrap();
            assert_eq!(m.name_of(node), name);
        }
        assert_eq!(m.resolve("nope"), None);
    }

    #[test]
    fn memory_bounds_match_paper_formulae() {
        let m = figure3();
        let (nd, nc) = m.memory_complexity_bounds();
        assert_eq!(nd, (2 + 3) * (2 + 3));
        assert_eq!(nc, 2);
    }
}
