//! The OpenFlow 1.0 12-tuple flow match (`ofp_match`) and its wildcards.

use crate::error::CodecError;
use crate::types::{write_decimal, write_hex_byte, MacAddr, PortNo};
use crate::wire::{Reader, Writer};
use std::fmt;
use std::net::Ipv4Addr;

/// Wire size of `ofp_match`.
pub const OFP_MATCH_LEN: usize = 40;

/// The OpenFlow 1.0 wildcard bitfield.
///
/// Bits 0–7 and 20–21 wildcard individual fields; bits 8–13 and 14–19 hold
/// 6-bit counts of *ignored low-order bits* of `nw_src` / `nw_dst` — the
/// protocol's CIDR-style prefix wildcards (a value ≥ 32 ignores the whole
/// address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wildcards(pub u32);

impl Wildcards {
    /// Wildcard the ingress port.
    pub const IN_PORT: u32 = 1 << 0;
    /// Wildcard the VLAN id.
    pub const DL_VLAN: u32 = 1 << 1;
    /// Wildcard the Ethernet source address.
    pub const DL_SRC: u32 = 1 << 2;
    /// Wildcard the Ethernet destination address.
    pub const DL_DST: u32 = 1 << 3;
    /// Wildcard the Ethernet frame type.
    pub const DL_TYPE: u32 = 1 << 4;
    /// Wildcard the IP protocol (or ARP opcode).
    pub const NW_PROTO: u32 = 1 << 5;
    /// Wildcard the TCP/UDP source port (or ICMP type).
    pub const TP_SRC: u32 = 1 << 6;
    /// Wildcard the TCP/UDP destination port (or ICMP code).
    pub const TP_DST: u32 = 1 << 7;
    /// Shift of the 6-bit `nw_src` ignored-bits count.
    pub const NW_SRC_SHIFT: u32 = 8;
    /// Shift of the 6-bit `nw_dst` ignored-bits count.
    pub const NW_DST_SHIFT: u32 = 14;
    /// Mask (pre-shift) of the 6-bit address wildcard counts.
    pub const NW_BITS_MASK: u32 = 0x3f;
    /// Wildcard the VLAN priority.
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    /// Wildcard the IP ToS / DSCP bits.
    pub const NW_TOS: u32 = 1 << 21;
    /// Every field wildcarded (the spec's `OFPFW_ALL`).
    pub const ALL: Wildcards = Wildcards(0x003f_ffff);

    /// Wildcards with every bit clear: a fully exact match.
    pub const NONE: Wildcards = Wildcards(0);

    /// Whether the flag bit(s) `bit` are all set.
    pub fn has(&self, bit: u32) -> bool {
        self.0 & bit == bit
    }

    /// Number of ignored low-order bits of `nw_src`, clamped to 32.
    pub fn nw_src_ignored_bits(&self) -> u32 {
        ((self.0 >> Self::NW_SRC_SHIFT) & Self::NW_BITS_MASK).min(32)
    }

    /// Number of ignored low-order bits of `nw_dst`, clamped to 32.
    pub fn nw_dst_ignored_bits(&self) -> u32 {
        ((self.0 >> Self::NW_DST_SHIFT) & Self::NW_BITS_MASK).min(32)
    }

    /// Returns a copy with the `nw_src` ignored-bit count set to `bits`.
    pub fn with_nw_src_ignored_bits(self, bits: u32) -> Wildcards {
        let cleared = self.0 & !(Self::NW_BITS_MASK << Self::NW_SRC_SHIFT);
        Wildcards(cleared | ((bits & Self::NW_BITS_MASK) << Self::NW_SRC_SHIFT))
    }

    /// Returns a copy with the `nw_dst` ignored-bit count set to `bits`.
    pub fn with_nw_dst_ignored_bits(self, bits: u32) -> Wildcards {
        let cleared = self.0 & !(Self::NW_BITS_MASK << Self::NW_DST_SHIFT);
        Wildcards(cleared | ((bits & Self::NW_BITS_MASK) << Self::NW_DST_SHIFT))
    }

    /// Whether `nw_src` is fully wildcarded.
    pub fn nw_src_all(&self) -> bool {
        self.nw_src_ignored_bits() >= 32
    }

    /// Whether `nw_dst` is fully wildcarded.
    pub fn nw_dst_all(&self) -> bool {
        self.nw_dst_ignored_bits() >= 32
    }

    /// Every single-field wildcard flag (everything except the 6-bit
    /// `nw_src`/`nw_dst` prefix counts).
    pub const FIELD_FLAGS: u32 = Self::IN_PORT
        | Self::DL_VLAN
        | Self::DL_SRC
        | Self::DL_DST
        | Self::DL_TYPE
        | Self::NW_PROTO
        | Self::TP_SRC
        | Self::TP_DST
        | Self::DL_VLAN_PCP
        | Self::NW_TOS;

    /// Whether no field is wildcarded at all: every flag clear and both
    /// address prefix counts zero. Exact-match entries outrank every
    /// wildcarded entry regardless of priority (OpenFlow 1.0 §3.4).
    fn is_exact(&self) -> bool {
        self.0 & Self::FIELD_FLAGS == 0
            && self.nw_src_ignored_bits() == 0
            && self.nw_dst_ignored_bits() == 0
    }
}

impl Default for Wildcards {
    fn default() -> Self {
        Wildcards::ALL
    }
}

impl fmt::Display for Wildcards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wildcards:0x{:06x}", self.0)
    }
}

/// The fields of a packet a flow entry is matched against.
///
/// This is the "flow key" a switch extracts from each arriving frame; the
/// packet codec produces one via
/// [`packet::flow_key`](crate::packet::flow_key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// Ingress switch port.
    pub in_port: PortNo,
    /// Ethernet source.
    pub dl_src: MacAddr,
    /// Ethernet destination.
    pub dl_dst: MacAddr,
    /// VLAN id, or `0xffff` for untagged frames (per spec `OFP_VLAN_NONE`).
    pub dl_vlan: u16,
    /// VLAN priority.
    pub dl_vlan_pcp: u8,
    /// Ethernet frame type.
    pub dl_type: u16,
    /// IP ToS (upper 6 bits valid).
    pub nw_tos: u8,
    /// IP protocol or lower 8 bits of ARP opcode.
    pub nw_proto: u8,
    /// IPv4 source (or ARP SPA), as a raw u32; 0 if not IP/ARP.
    pub nw_src: u32,
    /// IPv4 destination (or ARP TPA).
    pub nw_dst: u32,
    /// TCP/UDP source port or ICMP type.
    pub tp_src: u16,
    /// TCP/UDP destination port or ICMP code.
    pub tp_dst: u16,
}

/// `OFP_VLAN_NONE`: the `dl_vlan` value representing an untagged frame.
pub const OFP_VLAN_NONE: u16 = 0xffff;

/// The OpenFlow 1.0 flow match structure.
///
/// Field values are only meaningful where the corresponding wildcard bit is
/// clear. [`Match::matches`] implements the spec's matching semantics
/// against a [`FlowKey`], including the IP prefix wildcards.
///
/// ```
/// use attain_openflow::{Match, PortNo};
///
/// let m = Match::all(); // matches everything
/// let key = Default::default();
/// assert!(m.matches(&key));
///
/// let m = Match::exact_in_port(PortNo(3));
/// assert!(!m.matches(&key));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Which fields are wildcarded.
    pub wildcards: Wildcards,
    /// Ingress port.
    pub in_port: PortNo,
    /// Ethernet source.
    pub dl_src: MacAddr,
    /// Ethernet destination.
    pub dl_dst: MacAddr,
    /// VLAN id.
    pub dl_vlan: u16,
    /// VLAN priority.
    pub dl_vlan_pcp: u8,
    /// Ethernet frame type.
    pub dl_type: u16,
    /// IP ToS.
    pub nw_tos: u8,
    /// IP protocol / ARP opcode.
    pub nw_proto: u8,
    /// IPv4 source.
    pub nw_src: u32,
    /// IPv4 destination.
    pub nw_dst: u32,
    /// Transport source port.
    pub tp_src: u16,
    /// Transport destination port.
    pub tp_dst: u16,
}

impl Default for Match {
    fn default() -> Self {
        Match::all()
    }
}

impl Match {
    /// The match-everything entry (all fields wildcarded).
    pub fn all() -> Match {
        Match {
            wildcards: Wildcards::ALL,
            in_port: PortNo(0),
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_vlan: 0,
            dl_vlan_pcp: 0,
            dl_type: 0,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: 0,
            nw_dst: 0,
            tp_src: 0,
            tp_dst: 0,
        }
    }

    /// A match constraining only the ingress port.
    pub fn exact_in_port(port: PortNo) -> Match {
        Match {
            wildcards: Wildcards(Wildcards::ALL.0 & !Wildcards::IN_PORT),
            in_port: port,
            ..Match::all()
        }
    }

    /// Builds an exact match (no wildcards) for every field of `key`.
    ///
    /// This is how POX's `ofp_match.from_packet` constructs flow-mod
    /// matches — the behaviour the connection-interruption attack's rule
    /// `φ2` relies upon.
    pub fn from_flow_key(key: &FlowKey) -> Match {
        Match {
            wildcards: Wildcards::NONE,
            in_port: key.in_port,
            dl_src: key.dl_src,
            dl_dst: key.dl_dst,
            dl_vlan: key.dl_vlan,
            dl_vlan_pcp: key.dl_vlan_pcp,
            dl_type: key.dl_type,
            nw_tos: key.nw_tos,
            nw_proto: key.nw_proto,
            nw_src: key.nw_src,
            nw_dst: key.nw_dst,
            tp_src: key.tp_src,
            tp_dst: key.tp_dst,
        }
    }

    /// Whether this match constrains every field (see
    /// `Wildcards::is_exact`).
    pub fn is_exact(&self) -> bool {
        self.wildcards.is_exact()
    }

    /// The [`FlowKey`] whose packets this match admits, assuming the match
    /// [is exact](Match::is_exact). For non-exact matches the returned key
    /// is one representative of the admitted set (wildcarded fields carry
    /// whatever value the match struct holds).
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            in_port: self.in_port,
            dl_src: self.dl_src,
            dl_dst: self.dl_dst,
            dl_vlan: self.dl_vlan,
            dl_vlan_pcp: self.dl_vlan_pcp,
            dl_type: self.dl_type,
            nw_tos: self.nw_tos,
            nw_proto: self.nw_proto,
            nw_src: self.nw_src,
            nw_dst: self.nw_dst,
            tp_src: self.tp_src,
            tp_dst: self.tp_dst,
        }
    }

    /// Compiles the match into its packed value/mask form for fast
    /// repeated evaluation (see [`MatchBits`]).
    pub fn compile(&self) -> MatchBits {
        MatchBits::compile(self)
    }

    /// Whether this match admits `key` under OpenFlow 1.0 semantics.
    pub fn matches(&self, key: &FlowKey) -> bool {
        let w = self.wildcards;
        if !w.has(Wildcards::IN_PORT) && self.in_port != key.in_port {
            return false;
        }
        if !w.has(Wildcards::DL_SRC) && self.dl_src != key.dl_src {
            return false;
        }
        if !w.has(Wildcards::DL_DST) && self.dl_dst != key.dl_dst {
            return false;
        }
        if !w.has(Wildcards::DL_VLAN) && self.dl_vlan != key.dl_vlan {
            return false;
        }
        if !w.has(Wildcards::DL_VLAN_PCP) && self.dl_vlan_pcp != key.dl_vlan_pcp {
            return false;
        }
        if !w.has(Wildcards::DL_TYPE) && self.dl_type != key.dl_type {
            return false;
        }
        if !w.has(Wildcards::NW_TOS) && self.nw_tos != key.nw_tos {
            return false;
        }
        if !w.has(Wildcards::NW_PROTO) && self.nw_proto != key.nw_proto {
            return false;
        }
        if !ip_matches(self.nw_src, key.nw_src, w.nw_src_ignored_bits()) {
            return false;
        }
        if !ip_matches(self.nw_dst, key.nw_dst, w.nw_dst_ignored_bits()) {
            return false;
        }
        if !w.has(Wildcards::TP_SRC) && self.tp_src != key.tp_src {
            return false;
        }
        if !w.has(Wildcards::TP_DST) && self.tp_dst != key.tp_dst {
            return false;
        }
        true
    }

    /// Whether every packet admitted by `other` is also admitted by `self`
    /// (the subsumption relation used for non-strict flow deletion):
    /// `self` constrains no key bit `other` leaves free, and `other`'s
    /// value agrees on every bit `self` constrains.
    pub fn subsumes(&self, other: &Match) -> bool {
        let (a, b) = (self.compile(), other.compile());
        (0..5).all(|i| a.mask[i] & !b.mask[i] == 0 && b.value[i] & a.mask[i] == a.value[i])
    }

    /// Whether the two matches can admit a common packet (used for the
    /// `CHECK_OVERLAP` flow-mod flag): their values agree on every key
    /// bit both constrain.
    pub fn overlaps(&self, other: &Match) -> bool {
        let (a, b) = (self.compile(), other.compile());
        (0..5).all(|i| (a.value[i] ^ b.value[i]) & a.mask[i] & b.mask[i] == 0)
    }

    /// The IPv4 source as an address type, if not fully wildcarded.
    pub fn nw_src_addr(&self) -> Option<Ipv4Addr> {
        if self.wildcards.nw_src_all() {
            None
        } else {
            Some(Ipv4Addr::from(self.nw_src))
        }
    }

    /// The IPv4 destination as an address type, if not fully wildcarded.
    pub fn nw_dst_addr(&self) -> Option<Ipv4Addr> {
        if self.wildcards.nw_dst_all() {
            None
        } else {
            Some(Ipv4Addr::from(self.nw_dst))
        }
    }

    /// Decodes an `ofp_match` from `r`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than [`OFP_MATCH_LEN`] bytes remain.
    pub fn decode(r: &mut Reader<'_>) -> Result<Match, CodecError> {
        let wildcards = Wildcards(r.u32()?);
        let in_port = PortNo(r.u16()?);
        let dl_src = MacAddr(r.array::<6>()?);
        let dl_dst = MacAddr(r.array::<6>()?);
        let dl_vlan = r.u16()?;
        let dl_vlan_pcp = r.u8()?;
        r.skip(1)?;
        let dl_type = r.u16()?;
        let nw_tos = r.u8()?;
        let nw_proto = r.u8()?;
        r.skip(2)?;
        let nw_src = r.u32()?;
        let nw_dst = r.u32()?;
        let tp_src = r.u16()?;
        let tp_dst = r.u16()?;
        Ok(Match {
            wildcards,
            in_port,
            dl_src,
            dl_dst,
            dl_vlan,
            dl_vlan_pcp,
            dl_type,
            nw_tos,
            nw_proto,
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
        })
    }

    /// Encodes the match into `w` (exactly [`OFP_MATCH_LEN`] bytes).
    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.wildcards.0);
        w.u16(self.in_port.0);
        w.bytes(&self.dl_src.0);
        w.bytes(&self.dl_dst.0);
        w.u16(self.dl_vlan);
        w.u8(self.dl_vlan_pcp);
        w.pad(1);
        w.u16(self.dl_type);
        w.u8(self.nw_tos);
        w.u8(self.nw_proto);
        w.pad(2);
        w.u32(self.nw_src);
        w.u32(self.nw_dst);
        w.u16(self.tp_src);
        w.u16(self.tp_dst);
    }
}

/// A [`FlowKey`] packed into five 64-bit words, the form [`MatchBits`]
/// compares against.
///
/// Word layout (little-endian field packing within each word):
///
/// | word | bits 0..16 | 16..32    | 32..48    | 48..56        | 56..64   |
/// |------|------------|-----------|-----------|---------------|----------|
/// | 0    | `in_port`  | `dl_vlan` | `dl_type` | `tp_src` (16 bits, 48..64) | |
/// | 1    | `dl_src` (48 bits, 0..48)          | `dl_vlan_pcp` | `nw_tos` |
/// | 2    | `dl_dst` (48 bits, 0..48)          | `nw_proto`    | —        |
/// | 3    | `nw_src` (32 bits, 0..32) | `nw_dst` (32 bits, 32..64)       | |
/// | 4    | `tp_dst`   | —         | —         | —             | —        |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKeyBits([u64; 5]);

fn mac_bits(mac: &MacAddr) -> u64 {
    let b = mac.0;
    (b[0] as u64)
        | (b[1] as u64) << 8
        | (b[2] as u64) << 16
        | (b[3] as u64) << 24
        | (b[4] as u64) << 32
        | (b[5] as u64) << 40
}

impl FlowKeyBits {
    /// Packs `key` into word form.
    pub fn from_key(key: &FlowKey) -> FlowKeyBits {
        FlowKeyBits([
            (key.in_port.0 as u64)
                | (key.dl_vlan as u64) << 16
                | (key.dl_type as u64) << 32
                | (key.tp_src as u64) << 48,
            mac_bits(&key.dl_src) | (key.dl_vlan_pcp as u64) << 48 | (key.nw_tos as u64) << 56,
            mac_bits(&key.dl_dst) | (key.nw_proto as u64) << 48,
            (key.nw_src as u64) | (key.nw_dst as u64) << 32,
            key.tp_dst as u64,
        ])
    }

    /// The key's words with only the bits set in `mask` kept: the
    /// [value words](MatchBits::value) of exactly the matches with
    /// [mask words](MatchBits::mask) `mask` that admit this key.
    #[inline]
    pub fn masked(&self, mask: &[u64; 5]) -> [u64; 5] {
        std::array::from_fn(|i| self.0[i] & mask[i])
    }
}

/// A [`Match`] compiled to packed value/mask words (the OVS miniflow
/// idea): `key` is admitted iff `key.words & mask == value` word-wise.
///
/// Compiling hoists all wildcard decoding — flag tests and CIDR prefix
/// expansion — out of the per-packet path; evaluation is five masked
/// 64-bit compares with no branches on wildcard structure.
/// [`MatchBits::matches`] agrees exactly with [`Match::matches`] on every
/// key (property-tested in the netsim suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchBits {
    value: [u64; 5],
    mask: [u64; 5],
}

impl MatchBits {
    /// Compiles `m` (see [`Match::compile`]).
    fn compile(m: &Match) -> MatchBits {
        let w = m.wildcards;
        let mut mask = [0u64; 5];
        let f = |bit: u32, field_mask: u64| if w.has(bit) { 0 } else { field_mask };
        mask[0] = f(Wildcards::IN_PORT, 0xffff)
            | f(Wildcards::DL_VLAN, 0xffff) << 16
            | f(Wildcards::DL_TYPE, 0xffff) << 32
            | f(Wildcards::TP_SRC, 0xffff) << 48;
        mask[1] = f(Wildcards::DL_SRC, 0xffff_ffff_ffff)
            | f(Wildcards::DL_VLAN_PCP, 0xff) << 48
            | f(Wildcards::NW_TOS, 0xff) << 56;
        mask[2] = f(Wildcards::DL_DST, 0xffff_ffff_ffff) | f(Wildcards::NW_PROTO, 0xff) << 48;
        mask[3] = (prefix_mask(w.nw_src_ignored_bits()) as u64)
            | (prefix_mask(w.nw_dst_ignored_bits()) as u64) << 32;
        mask[4] = f(Wildcards::TP_DST, 0xffff);
        let value = FlowKeyBits::from_key(&m.flow_key()).masked(&mask);
        MatchBits { value, mask }
    }

    /// Which key bits the match constrains.
    pub fn mask(&self) -> &[u64; 5] {
        &self.mask
    }

    /// What the constrained bits must equal (zero outside the mask).
    pub fn value(&self) -> &[u64; 5] {
        &self.value
    }

    /// Whether the compiled match admits `key`.
    #[inline]
    pub fn matches(&self, key: &FlowKeyBits) -> bool {
        (key.0[0] & self.mask[0]) == self.value[0]
            && (key.0[1] & self.mask[1]) == self.value[1]
            && (key.0[2] & self.mask[2]) == self.value[2]
            && (key.0[3] & self.mask[3]) == self.value[3]
            && (key.0[4] & self.mask[4]) == self.value[4]
    }
}

fn prefix_mask(ignored_bits: u32) -> u32 {
    if ignored_bits >= 32 {
        0
    } else {
        u32::MAX << ignored_bits
    }
}

fn ip_matches(pattern: u32, value: u32, ignored_bits: u32) -> bool {
    let mask = prefix_mask(ignored_bits);
    (pattern & mask) == (value & mask)
}

impl Match {
    /// Writes the `Display` text into `out` a piece at a time, with no
    /// `fmt::Formatter` in between (trace digests render one match per
    /// flow record): each concrete field preceded by what separates it
    /// from the text before it.
    pub fn render<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let w = self.wildcards;
        let mut first = true;
        let mut field = |out: &mut W, name: &str| {
            out.write_str(if first { "match(" } else { "," })?;
            first = false;
            out.write_str(name)
        };
        if !w.has(Wildcards::IN_PORT) {
            field(out, "in_port=")?;
            self.in_port.render(out)?;
        }
        if !w.has(Wildcards::DL_SRC) {
            field(out, "dl_src=")?;
            self.dl_src.render(out)?;
        }
        if !w.has(Wildcards::DL_DST) {
            field(out, "dl_dst=")?;
            self.dl_dst.render(out)?;
        }
        if !w.has(Wildcards::DL_VLAN) {
            field(out, "dl_vlan=")?;
            write_decimal(out, self.dl_vlan.into())?;
        }
        if !w.has(Wildcards::DL_VLAN_PCP) {
            field(out, "dl_vlan_pcp=")?;
            write_decimal(out, self.dl_vlan_pcp.into())?;
        }
        if !w.has(Wildcards::DL_TYPE) {
            field(out, "dl_type=0x")?;
            let [high, low] = self.dl_type.to_be_bytes();
            write_hex_byte(out, high)?;
            write_hex_byte(out, low)?;
        }
        if !w.has(Wildcards::NW_TOS) {
            field(out, "nw_tos=")?;
            write_decimal(out, self.nw_tos.into())?;
        }
        if !w.has(Wildcards::NW_PROTO) {
            field(out, "nw_proto=")?;
            write_decimal(out, self.nw_proto.into())?;
        }
        if !w.nw_src_all() {
            field(out, "nw_src=")?;
            write_prefix(out, self.nw_src, w.nw_src_ignored_bits())?;
        }
        if !w.nw_dst_all() {
            field(out, "nw_dst=")?;
            write_prefix(out, self.nw_dst, w.nw_dst_ignored_bits())?;
        }
        if !w.has(Wildcards::TP_SRC) {
            field(out, "tp_src=")?;
            write_decimal(out, self.tp_src.into())?;
        }
        if !w.has(Wildcards::TP_DST) {
            field(out, "tp_dst=")?;
            write_decimal(out, self.tp_dst.into())?;
        }
        out.write_str(if first { "match(any)" } else { ")" })
    }
}

/// Writes an address prefix as `{Ipv4Addr}/{length}` would.
fn write_prefix<W: fmt::Write>(out: &mut W, addr: u32, ignored_bits: u32) -> fmt::Result {
    for (i, octet) in addr.to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            out.write_char('.')?;
        }
        write_decimal(out, octet.into())?;
    }
    out.write_char('/')?;
    write_decimal(out, (32 - ignored_bits).into())
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> FlowKey {
        FlowKey {
            in_port: PortNo(1),
            dl_src: MacAddr::from_low(0x11),
            dl_dst: MacAddr::from_low(0x22),
            dl_vlan: OFP_VLAN_NONE,
            dl_vlan_pcp: 0,
            dl_type: 0x0800,
            nw_tos: 0,
            nw_proto: 6,
            nw_src: u32::from(Ipv4Addr::new(10, 0, 1, 5)),
            nw_dst: u32::from(Ipv4Addr::new(10, 0, 2, 9)),
            tp_src: 4242,
            tp_dst: 80,
        }
    }

    #[test]
    fn all_matches_everything() {
        assert!(Match::all().matches(&sample_key()));
        assert!(Match::all().matches(&FlowKey::default()));
    }

    #[test]
    fn exact_match_roundtrips_packet() {
        let key = sample_key();
        let m = Match::from_flow_key(&key);
        assert!(m.matches(&key));
        let mut other = key;
        other.tp_dst = 443;
        assert!(!m.matches(&other));
    }

    #[test]
    fn prefix_wildcards_match_subnets() {
        let key = sample_key();
        let mut m = Match::all();
        // Match nw_src in 10.0.1.0/24: ignore 8 low bits.
        m.wildcards = Wildcards::ALL.with_nw_src_ignored_bits(8);
        m.nw_src = u32::from(Ipv4Addr::new(10, 0, 1, 0));
        assert!(m.matches(&key));
        m.nw_src = u32::from(Ipv4Addr::new(10, 0, 2, 0));
        assert!(!m.matches(&key));
    }

    #[test]
    fn ignored_bits_at_least_32_means_any() {
        let mut m = Match::all();
        m.wildcards = Wildcards::ALL.with_nw_src_ignored_bits(63);
        m.nw_src = 0xffff_ffff;
        assert!(m.matches(&sample_key()));
        assert!(m.wildcards.nw_src_all());
    }

    #[test]
    fn match_wire_roundtrip() {
        let m = Match::from_flow_key(&sample_key());
        let mut w = Writer::new();
        m.encode(&mut w);
        let v = w.into_vec();
        assert_eq!(v.len(), OFP_MATCH_LEN);
        let mut r = Reader::new(&v, "ofp_match");
        assert_eq!(Match::decode(&mut r).unwrap(), m);
        r.expect_end().unwrap();
    }

    #[test]
    fn subsumption_all_over_exact() {
        let exact = Match::from_flow_key(&sample_key());
        assert!(Match::all().subsumes(&exact));
        assert!(!exact.subsumes(&Match::all()));
        assert!(exact.subsumes(&exact));
    }

    #[test]
    fn subsumption_prefix_over_longer_prefix() {
        let mut wide = Match::all();
        wide.wildcards = Wildcards::ALL.with_nw_dst_ignored_bits(16);
        wide.nw_dst = u32::from(Ipv4Addr::new(10, 0, 0, 0));
        let mut narrow = Match::all();
        narrow.wildcards = Wildcards::ALL.with_nw_dst_ignored_bits(8);
        narrow.nw_dst = u32::from(Ipv4Addr::new(10, 0, 2, 0));
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
    }

    #[test]
    fn overlap_detection() {
        let mut a = Match::exact_in_port(PortNo(1));
        let b = Match::exact_in_port(PortNo(2));
        assert!(!a.overlaps(&b));
        a.wildcards = Wildcards(a.wildcards.0 | Wildcards::IN_PORT);
        assert!(a.overlaps(&b));
        // Disjoint IP prefixes do not overlap.
        let mut x = Match::all();
        x.wildcards = Wildcards::ALL.with_nw_src_ignored_bits(8);
        x.nw_src = u32::from(Ipv4Addr::new(10, 0, 1, 0));
        let mut y = Match::all();
        y.wildcards = Wildcards::ALL.with_nw_src_ignored_bits(8);
        y.nw_src = u32::from(Ipv4Addr::new(10, 0, 2, 0));
        assert!(!x.overlaps(&y));
        assert!(x.overlaps(&x));
    }

    #[test]
    fn display_lists_concrete_fields_only() {
        let m = Match::exact_in_port(PortNo(3));
        assert_eq!(m.to_string(), "match(in_port=3)");
        assert_eq!(Match::all().to_string(), "match(any)");
        assert_eq!(
            Match::from_flow_key(&sample_key()).to_string(),
            "match(in_port=1,dl_src=00:00:00:00:00:11,dl_dst=00:00:00:00:00:22,\
             dl_vlan=65535,dl_vlan_pcp=0,dl_type=0x0800,nw_tos=0,nw_proto=6,\
             nw_src=10.0.1.5/32,nw_dst=10.0.2.9/32,tp_src=4242,tp_dst=80)"
        );
        let mut prefix = Match::all();
        prefix.wildcards = Wildcards::ALL.with_nw_dst_ignored_bits(8);
        prefix.nw_dst = u32::from(Ipv4Addr::new(10, 0, 2, 0));
        assert_eq!(prefix.to_string(), "match(nw_dst=10.0.2.0/24)");
    }

    #[test]
    fn is_exact_tracks_every_wildcard_kind() {
        assert!(Wildcards::NONE.is_exact());
        assert!(!Wildcards::ALL.is_exact());
        assert!(!Wildcards(Wildcards::NW_TOS).is_exact());
        assert!(!Wildcards(Wildcards::DL_VLAN_PCP).is_exact());
        assert!(!Wildcards::NONE.with_nw_src_ignored_bits(1).is_exact());
        assert!(!Wildcards::NONE.with_nw_dst_ignored_bits(32).is_exact());
        assert!(Match::from_flow_key(&sample_key()).is_exact());
        assert!(!Match::exact_in_port(PortNo(1)).is_exact());
    }

    #[test]
    fn flow_key_roundtrips_through_exact_match() {
        let key = sample_key();
        assert_eq!(Match::from_flow_key(&key).flow_key(), key);
    }

    #[test]
    fn compiled_match_agrees_with_interpreter() {
        let key = sample_key();
        let mut cases = vec![
            Match::all(),
            Match::exact_in_port(PortNo(1)),
            Match::exact_in_port(PortNo(9)),
            Match::from_flow_key(&key),
        ];
        let mut prefix = Match::all();
        prefix.wildcards = Wildcards::ALL.with_nw_src_ignored_bits(8);
        prefix.nw_src = u32::from(Ipv4Addr::new(10, 0, 1, 0));
        cases.push(prefix);
        prefix.nw_src = u32::from(Ipv4Addr::new(10, 0, 2, 0));
        cases.push(prefix);
        let mut vlan = Match::all();
        vlan.wildcards = Wildcards(Wildcards::ALL.0 & !Wildcards::DL_VLAN_PCP);
        vlan.dl_vlan_pcp = 3;
        cases.push(vlan);

        let keys = [key, FlowKey::default(), {
            let mut k = key;
            k.dl_vlan_pcp = 3;
            k
        }];
        for m in &cases {
            let bits = m.compile();
            for k in &keys {
                assert_eq!(
                    bits.matches(&FlowKeyBits::from_key(k)),
                    m.matches(k),
                    "compiled/interpreted divergence for {m} on {k:?}"
                );
            }
        }
    }

    #[test]
    fn compile_masks_out_wildcarded_field_values() {
        // Garbage in wildcarded fields must not affect the compiled form.
        let mut a = Match::exact_in_port(PortNo(1));
        let mut b = Match::exact_in_port(PortNo(1));
        a.tp_dst = 80;
        b.tp_dst = 443; // wildcarded either way
        assert_eq!(a.compile(), b.compile());
    }

    #[test]
    fn nw_addr_accessors_respect_wildcards() {
        let m = Match::all();
        assert_eq!(m.nw_src_addr(), None);
        let mut m = Match::all();
        m.wildcards = Wildcards::ALL.with_nw_dst_ignored_bits(0);
        m.nw_dst = u32::from(Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(m.nw_dst_addr(), Some(Ipv4Addr::new(192, 168, 0, 1)));
    }
}
