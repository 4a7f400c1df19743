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

    /// Writes the `Display` text into `out`, a character at a time.
    pub(crate) fn render<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        for (i, b) in self.0.into_iter().enumerate() {
            if i > 0 {
                out.write_char(':')?;
            }
            write_hex_byte(out, b)?;
        }
        Ok(())
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

/// Writes `n` in decimal, as `{}` would, a character at a time and with
/// no `fmt::Formatter`: the protocol's text forms and a simulation
/// trace's numbers are written with it.
pub fn write_decimal<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[at..]
        .iter()
        .try_for_each(|&digit| out.write_char(char::from(digit)))
}

/// Writes `b` as two lowercase hex digits, as `{:02x}` would.
pub(crate) fn write_hex_byte<W: fmt::Write>(out: &mut W, b: u8) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char(char::from(HEX[usize::from(b >> 4)]))?;
    out.write_char(char::from(HEX[usize::from(b & 0xf)]))
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

    /// Writes the `Display` text into `out`: a reserved port's name, or
    /// the number.
    pub(crate) fn render<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        match self {
            PortNo::IN_PORT => out.write_str("IN_PORT"),
            PortNo::TABLE => out.write_str("TABLE"),
            PortNo::NORMAL => out.write_str("NORMAL"),
            PortNo::FLOOD => out.write_str("FLOOD"),
            PortNo::ALL => out.write_str("ALL"),
            PortNo::CONTROLLER => out.write_str("CONTROLLER"),
            PortNo::LOCAL => out.write_str("LOCAL"),
            PortNo::NONE => out.write_str("NONE"),
            PortNo(n) => write_decimal(out, n.into()),
        }
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
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
