//! Attacker capabilities (paper Table I) and the TLS / no-TLS capability
//! classes (§IV-C).

use std::fmt;

/// One attacker capability against a control-plane connection message
/// (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Capability {
    /// Drop the message to prevent it from being sent or received.
    DropMessage = 0,
    /// Pass the message by allowing it to be sent or received.
    PassMessage = 1,
    /// Delay sending or receiving of the message by a certain amount of
    /// time.
    DelayMessage = 2,
    /// Duplicate the message by sending a replica.
    DuplicateMessage = 3,
    /// Read and/or record message metadata (L2–L4 headers, timestamps) —
    /// excludes the payload.
    ReadMessageMetadata = 4,
    /// Modify the message's metadata, excluding the payload.
    ModifyMessageMetadata = 5,
    /// Modify metadata or payload bits in a random, possibly semantically
    /// invalid way.
    FuzzMessage = 6,
    /// Read and/or record the payload in a semantically meaningful way
    /// conforming to the OpenFlow protocol.
    ReadMessage = 7,
    /// Modify the payload in a semantically valid way.
    ModifyMessage = 8,
    /// Inject a new, semantically valid message into the connection.
    InjectNewMessage = 9,
}

impl Capability {
    /// All capabilities, i.e. the paper's `Γ`, in Table I order.
    pub const ALL: [Capability; 10] = [
        Capability::DropMessage,
        Capability::PassMessage,
        Capability::DelayMessage,
        Capability::DuplicateMessage,
        Capability::ReadMessageMetadata,
        Capability::ModifyMessageMetadata,
        Capability::FuzzMessage,
        Capability::ReadMessage,
        Capability::ModifyMessage,
        Capability::InjectNewMessage,
    ];

    /// The paper's name, e.g. `DROPMESSAGE`.
    fn spec_name(&self) -> &'static str {
        match self {
            Capability::DropMessage => "DROPMESSAGE",
            Capability::PassMessage => "PASSMESSAGE",
            Capability::DelayMessage => "DELAYMESSAGE",
            Capability::DuplicateMessage => "DUPLICATEMESSAGE",
            Capability::ReadMessageMetadata => "READMESSAGEMETADATA",
            Capability::ModifyMessageMetadata => "MODIFYMESSAGEMETADATA",
            Capability::FuzzMessage => "FUZZMESSAGE",
            Capability::ReadMessage => "READMESSAGE",
            Capability::ModifyMessage => "MODIFYMESSAGE",
            Capability::InjectNewMessage => "INJECTNEWMESSAGE",
        }
    }

    /// The DSL's snake_case name, e.g. `drop_message`.
    pub(crate) fn dsl_name(&self) -> &'static str {
        match self {
            Capability::DropMessage => "drop_message",
            Capability::PassMessage => "pass_message",
            Capability::DelayMessage => "delay_message",
            Capability::DuplicateMessage => "duplicate_message",
            Capability::ReadMessageMetadata => "read_message_metadata",
            Capability::ModifyMessageMetadata => "modify_message_metadata",
            Capability::FuzzMessage => "fuzz_message",
            Capability::ReadMessage => "read_message",
            Capability::ModifyMessage => "modify_message",
            Capability::InjectNewMessage => "inject_new_message",
        }
    }

    /// Parses either the paper name or the DSL name.
    pub fn parse(name: &str) -> Option<Capability> {
        Capability::ALL
            .into_iter()
            .find(|c| c.spec_name() == name || c.dsl_name() == name)
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_name())
    }
}

/// A set of capabilities — one `γ ∈ P(Γ)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CapabilitySet(u16);

impl CapabilitySet {
    /// The empty set.
    pub const EMPTY: CapabilitySet = CapabilitySet(0);

    /// Creates an empty set.
    pub(crate) fn new() -> CapabilitySet {
        CapabilitySet::EMPTY
    }

    /// The full set `Γ` — the paper's `Γ_NoTLS` (§IV-C1): on plain-TCP
    /// connections the attacker can use every capability.
    pub fn no_tls() -> CapabilitySet {
        let mut s = CapabilitySet::new();
        for c in Capability::ALL {
            s.insert(c);
        }
        s
    }

    /// The paper's `Γ_TLS` (§IV-C2): with TLS (and an uncompromised PKI)
    /// the attacker keeps only actions that treat messages as opaque —
    /// `Γ \ {READMESSAGE, MODIFYMESSAGE, FUZZMESSAGE, INJECTNEWMESSAGE,
    /// MODIFYMESSAGEMETADATA}`.
    pub fn tls() -> CapabilitySet {
        let mut s = CapabilitySet::no_tls();
        s.remove(Capability::ReadMessage);
        s.remove(Capability::ModifyMessage);
        s.remove(Capability::FuzzMessage);
        s.remove(Capability::InjectNewMessage);
        s.remove(Capability::ModifyMessageMetadata);
        s
    }

    /// Adds a capability.
    pub(crate) fn insert(&mut self, c: Capability) {
        self.0 |= 1 << (c as u16);
    }

    /// Removes a capability.
    fn remove(&mut self, c: Capability) {
        self.0 &= !(1 << (c as u16));
    }

    /// Whether `c` is in the set.
    pub fn contains(&self, c: Capability) -> bool {
        self.0 & (1 << (c as u16)) != 0
    }

    /// Whether every capability in `other` is in `self`.
    pub fn is_superset_of(&self, other: &CapabilitySet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Set union.
    pub(crate) fn union(&self, other: &CapabilitySet) -> CapabilitySet {
        CapabilitySet(self.0 | other.0)
    }

    /// Capabilities in `other` but not in `self` (for error messages).
    pub(crate) fn missing_from(&self, other: &CapabilitySet) -> Vec<Capability> {
        Capability::ALL
            .into_iter()
            .filter(|c| other.contains(*c) && !self.contains(*c))
            .collect()
    }

    /// Number of capabilities in the set (the unit tests' count of what
    /// a rule or action requires).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the members in Table I order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Capability> + '_ {
        Capability::ALL.into_iter().filter(|c| self.contains(*c))
    }
}

impl FromIterator<Capability> for CapabilitySet {
    fn from_iter<T: IntoIterator<Item = Capability>>(iter: T) -> Self {
        let mut s = CapabilitySet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl Extend<Capability> for CapabilitySet {
    fn extend<T: IntoIterator<Item = Capability>>(&mut self, iter: T) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl fmt::Display for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tls_is_all_ten() {
        let g = CapabilitySet::no_tls();
        assert_eq!(g.len(), 10);
        for c in Capability::ALL {
            assert!(g.contains(c));
        }
    }

    #[test]
    fn tls_removes_exactly_the_paper_five() {
        let g = CapabilitySet::tls();
        assert_eq!(g.len(), 5);
        assert!(g.contains(Capability::DropMessage));
        assert!(g.contains(Capability::PassMessage));
        assert!(g.contains(Capability::DelayMessage));
        assert!(g.contains(Capability::DuplicateMessage));
        assert!(g.contains(Capability::ReadMessageMetadata));
        assert!(!g.contains(Capability::ReadMessage));
        assert!(!g.contains(Capability::ModifyMessage));
        assert!(!g.contains(Capability::FuzzMessage));
        assert!(!g.contains(Capability::InjectNewMessage));
        assert!(!g.contains(Capability::ModifyMessageMetadata));
    }

    #[test]
    fn subset_and_missing() {
        let tls = CapabilitySet::tls();
        let all = CapabilitySet::no_tls();
        assert!(all.is_superset_of(&tls));
        assert!(!tls.is_superset_of(&all));
        let missing = tls.missing_from(&all);
        assert_eq!(missing.len(), 5);
        assert!(missing.contains(&Capability::ReadMessage));
    }

    #[test]
    fn parse_both_name_styles() {
        assert_eq!(
            Capability::parse("DROPMESSAGE"),
            Some(Capability::DropMessage)
        );
        assert_eq!(
            Capability::parse("drop_message"),
            Some(Capability::DropMessage)
        );
        assert_eq!(Capability::parse("launch_missiles"), None);
    }

    #[test]
    fn collect_and_display() {
        let s: CapabilitySet = [Capability::DropMessage, Capability::PassMessage]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{DROPMESSAGE, PASSMESSAGE}");
        assert!(!s.is_empty());
        assert!(CapabilitySet::EMPTY.is_empty());
    }

    #[test]
    fn union_combines() {
        let a: CapabilitySet = [Capability::DropMessage].into_iter().collect();
        let b: CapabilitySet = [Capability::PassMessage].into_iter().collect();
        let u = a.union(&b);
        assert!(u.contains(Capability::DropMessage));
        assert!(u.contains(Capability::PassMessage));
        assert_eq!(u.len(), 2);
    }
}
