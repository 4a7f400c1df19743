//! The attacker capabilities model `Γ_{N_C} : N_C → P(Γ)` (paper §IV-C):
//! which capabilities the attacker is assumed to hold on each
//! control-plane connection.

use crate::model::capability::CapabilitySet;
use crate::model::system::{ConnectionId, SystemModel};
use std::fmt;

/// The per-connection capability assignment.
///
/// ```
/// use attain_core::model::{AttackModel, Capability, CapabilitySet, SystemModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = SystemModel::new();
/// let c1 = m.add_controller("c1")?;
/// let s1 = m.add_switch("s1")?;
/// let s2 = m.add_switch("s2")?;
/// let n0 = m.add_connection(c1, s1)?;
/// let n1 = m.add_connection(c1, s2)?;
///
/// // (c1,s1) is plain TCP; (c1,s2) runs TLS.
/// let mut am = AttackModel::uniform(&m, CapabilitySet::no_tls());
/// am.set(n1, CapabilitySet::tls());
/// assert!(am.get(n0).contains(Capability::ReadMessage));
/// assert!(!am.get(n1).contains(Capability::ReadMessage));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackModel {
    caps: Vec<CapabilitySet>,
}

impl AttackModel {
    /// Grants the same capability set on every connection of `system`.
    pub fn uniform(system: &SystemModel, caps: CapabilitySet) -> AttackModel {
        AttackModel {
            caps: vec![caps; system.connection_count()],
        }
    }

    /// Sets the capabilities on one connection.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range for the system the model was
    /// built from.
    pub fn set(&mut self, conn: ConnectionId, caps: CapabilitySet) {
        self.caps[conn.0] = caps;
    }

    /// The capabilities granted on `conn` (empty if out of range).
    pub fn get(&self, conn: ConnectionId) -> CapabilitySet {
        self.caps.get(conn.0).copied().unwrap_or_default()
    }

    /// Number of connections covered.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the model covers no connections.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

impl fmt::Display for AttackModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, caps) in self.caps.iter().enumerate() {
            writeln!(f, "n{i}: {caps}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::capability::Capability;

    fn system() -> SystemModel {
        let mut m = SystemModel::new();
        let c1 = m.add_controller("c1").unwrap();
        let s1 = m.add_switch("s1").unwrap();
        let s2 = m.add_switch("s2").unwrap();
        m.add_connection(c1, s1).unwrap();
        m.add_connection(c1, s2).unwrap();
        m
    }

    #[test]
    fn uniform_covers_every_connection() {
        let m = system();
        let am = AttackModel::uniform(&m, CapabilitySet::no_tls());
        assert_eq!(am.len(), 2);
        assert_eq!(am.get(ConnectionId(0)), CapabilitySet::no_tls());
        assert_eq!(am.get(ConnectionId(1)), CapabilitySet::no_tls());
    }

    #[test]
    fn per_connection_overrides() {
        let m = system();
        let mut am = AttackModel::uniform(&m, CapabilitySet::no_tls());
        am.set(ConnectionId(1), CapabilitySet::tls());
        assert!(am.get(ConnectionId(0)).contains(Capability::ModifyMessage));
        assert!(!am.get(ConnectionId(1)).contains(Capability::ModifyMessage));
    }

    #[test]
    fn out_of_range_is_empty() {
        let m = system();
        let am = AttackModel::uniform(&m, CapabilitySet::EMPTY);
        assert_eq!(am.get(ConnectionId(9)), CapabilitySet::EMPTY);
        assert!(!am.is_empty());
    }
}
