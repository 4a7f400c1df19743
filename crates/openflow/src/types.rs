//! Primitive protocol types: MAC addresses, datapath ids, port numbers.

use std::fmt;
use std::str::FromStr;

/// A 48-bit Ethernet MAC address.
///
/// ```
/// use attain_openflow::MacAddr;
/// let m: MacAddr = "00:00:00:00:00:01".parse().unwrap();
/// assert_eq!(m.to_string(), "00:00:00:00:00:01");
/// assert!(!m.is_broadcast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally administered unicast address from a small integer,
    /// convenient for simulated hosts (`host(1)` → `00:00:00:00:00:01`).
    pub fn from_low(n: u64) -> MacAddr {
        let b = n.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }

    /// Whether the group (multicast) bit is set; broadcast counts.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Error returned when parsing a [`MacAddr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError(());

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut out {
            let part = parts.next().ok_or(ParseMacError(()))?;
            if part.len() != 2 {
                return Err(ParseMacError(()));
            }
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseMacError(()))?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError(()));
        }
        Ok(MacAddr(out))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(b: [u8; 6]) -> Self {
        MacAddr(b)
    }
}

/// A 64-bit OpenFlow datapath identifier naming a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DatapathId(pub u64);

impl fmt::Display for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpid:{:016x}", self.0)
    }
}

impl From<u64> for DatapathId {
    fn from(v: u64) -> Self {
        DatapathId(v)
    }
}

/// An OpenFlow 1.0 (16-bit) port number, including the reserved virtual
/// ports the protocol defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Maximum physical port number.
    pub const MAX: PortNo = PortNo(0xff00);
    /// Send back out the packet's input port.
    pub const IN_PORT: PortNo = PortNo(0xfff8);
    /// Submit to the flow table (PACKET_OUT only).
    pub const TABLE: PortNo = PortNo(0xfff9);
    /// Process with traditional (non-OpenFlow) L2 forwarding.
    pub const NORMAL: PortNo = PortNo(0xfffa);
    /// Flood along the spanning tree, excluding the input port.
    pub const FLOOD: PortNo = PortNo(0xfffb);
    /// All physical ports except the input port.
    pub const ALL: PortNo = PortNo(0xfffc);
    /// Send to the controller.
    pub const CONTROLLER: PortNo = PortNo(0xfffd);
    /// The switch-local networking stack port.
    pub const LOCAL: PortNo = PortNo(0xfffe);
    /// Wildcard / not-a-port.
    pub const NONE: PortNo = PortNo(0xffff);

    /// Whether this is a physical (non-reserved) port number.
    pub fn is_physical(&self) -> bool {
        *self <= PortNo::MAX && self.0 != 0
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PortNo::IN_PORT => write!(f, "IN_PORT"),
            PortNo::TABLE => write!(f, "TABLE"),
            PortNo::NORMAL => write!(f, "NORMAL"),
            PortNo::FLOOD => write!(f, "FLOOD"),
            PortNo::ALL => write!(f, "ALL"),
            PortNo::CONTROLLER => write!(f, "CONTROLLER"),
            PortNo::LOCAL => write!(f, "LOCAL"),
            PortNo::NONE => write!(f, "NONE"),
            PortNo(n) => write!(f, "{n}"),
        }
    }
}

impl From<u16> for PortNo {
    fn from(v: u16) -> Self {
        PortNo(v)
    }
}

/// An OpenFlow transaction identifier.
pub type Xid = u32;

/// A switch packet-buffer identifier.
///
/// On the wire `0xffff_ffff` means "no buffer"; the codec maps that to
/// `None` so Rust code cannot confuse the sentinel with a real buffer.
pub type BufferId = Option<u32>;

/// Wire sentinel for "no buffer attached".
pub(crate) const OFP_NO_BUFFER: u32 = 0xffff_ffff;

/// Encodes a [`BufferId`] to its wire representation.
pub(crate) fn buffer_id_to_wire(b: BufferId) -> u32 {
    b.unwrap_or(OFP_NO_BUFFER)
}

/// Decodes a wire buffer id, mapping the sentinel to `None`.
pub(crate) fn buffer_id_from_wire(v: u32) -> BufferId {
    if v == OFP_NO_BUFFER {
        None
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_parse_roundtrip() {
        let m: MacAddr = "de:ad:be:ef:00:2a".parse().unwrap();
        assert_eq!(m.to_string(), "de:ad:be:ef:00:2a");
    }

    #[test]
    fn mac_parse_rejects_bad_syntax() {
        assert!("de:ad:be:ef:00".parse::<MacAddr>().is_err());
        assert!("de:ad:be:ef:00:2a:ff".parse::<MacAddr>().is_err());
        assert!("zz:ad:be:ef:00:2a".parse::<MacAddr>().is_err());
        assert!("dead:be:ef:00:2a".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_from_low_produces_expected_bytes() {
        assert_eq!(MacAddr::from_low(1), MacAddr([0, 0, 0, 0, 0, 1]));
        assert_eq!(
            MacAddr::from_low(0x0102_0304_0506),
            MacAddr([1, 2, 3, 4, 5, 6])
        );
    }

    #[test]
    fn broadcast_is_multicast() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::from_low(2).is_multicast());
    }

    #[test]
    fn port_display_names_reserved_ports() {
        assert_eq!(PortNo::FLOOD.to_string(), "FLOOD");
        assert_eq!(PortNo(7).to_string(), "7");
    }

    #[test]
    fn physical_port_classification() {
        assert!(PortNo(1).is_physical());
        assert!(!PortNo(0).is_physical());
        assert!(!PortNo::CONTROLLER.is_physical());
        assert!(PortNo::MAX.is_physical());
    }

    #[test]
    fn buffer_id_sentinel_maps_to_none() {
        assert_eq!(buffer_id_from_wire(OFP_NO_BUFFER), None);
        assert_eq!(buffer_id_from_wire(7), Some(7));
        assert_eq!(buffer_id_to_wire(None), OFP_NO_BUFFER);
        assert_eq!(buffer_id_to_wire(Some(7)), 7);
    }
}
