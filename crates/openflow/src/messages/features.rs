//! `OFPT_FEATURES_REPLY` (`ofp_switch_features`) and `ofp_phy_port`.

use crate::error::CodecError;
use crate::types::{DatapathId, MacAddr, PortNo};
use crate::wire::{Reader, Writer};

/// Wire size of `ofp_phy_port`.
pub(crate) const OFP_PHY_PORT_LEN: usize = 48;

/// Description of one physical switch port (`ofp_phy_port`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhyPort {
    /// Port number.
    pub port_no: PortNo,
    /// Port MAC address.
    pub hw_addr: MacAddr,
    /// Human-readable name (at most 15 bytes on the wire).
    pub name: String,
    /// `OFPPC_*` configuration flags.
    pub config: u32,
    /// `OFPPS_*` state flags.
    pub state: u32,
    /// Current features bitmap.
    pub curr: u32,
    /// Advertised features bitmap.
    pub advertised: u32,
    /// Supported features bitmap.
    pub supported: u32,
    /// Peer-advertised features bitmap.
    pub peer: u32,
}

impl PhyPort {
    /// A simulated 100 Mb/s full-duplex copper port, matching the paper's
    /// GENI testbed links.
    pub fn simulated(port_no: PortNo, hw_addr: MacAddr) -> PhyPort {
        const OFPPF_100MB_FD: u32 = 1 << 3;
        const OFPPF_COPPER: u32 = 1 << 7;
        PhyPort {
            port_no,
            hw_addr,
            name: format!("eth{}", port_no.0),
            config: 0,
            state: 0,
            curr: OFPPF_100MB_FD | OFPPF_COPPER,
            advertised: OFPPF_100MB_FD | OFPPF_COPPER,
            supported: OFPPF_100MB_FD | OFPPF_COPPER,
            peer: 0,
        }
    }

    /// Decodes one `ofp_phy_port`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<PhyPort, CodecError> {
        let port_no = PortNo(r.u16()?);
        let hw_addr = MacAddr(r.array::<6>()?);
        let raw_name = r.array::<16>()?;
        let end = raw_name.iter().position(|&b| b == 0).unwrap_or(16);
        let name = String::from_utf8_lossy(&raw_name[..end]).into_owned();
        Ok(PhyPort {
            port_no,
            hw_addr,
            name,
            config: r.u32()?,
            state: r.u32()?,
            curr: r.u32()?,
            advertised: r.u32()?,
            supported: r.u32()?,
            peer: r.u32()?,
        })
    }

    /// Encodes the port into `w` (exactly 48 bytes).
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.port_no.0);
        w.bytes(&self.hw_addr.0);
        let mut name = [0u8; 16];
        let src = self.name.as_bytes();
        let n = src.len().min(15);
        name[..n].copy_from_slice(&src[..n]);
        w.bytes(&name);
        w.u32(self.config);
        w.u32(self.state);
        w.u32(self.curr);
        w.u32(self.advertised);
        w.u32(self.supported);
        w.u32(self.peer);
    }
}

/// `ofp_switch_features`: the body of a `FEATURES_REPLY`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwitchFeatures {
    /// Unique switch identifier.
    pub datapath_id: DatapathId,
    /// Packets the switch can buffer while awaiting controller decisions.
    pub n_buffers: u32,
    /// Number of flow tables.
    pub n_tables: u8,
    /// `OFPC_*` capability flags.
    pub capabilities: u32,
    /// Bitmap of supported `OFPAT_*` actions.
    pub actions: u32,
    /// Port inventory.
    pub ports: Vec<PhyPort>,
}

impl SwitchFeatures {
    /// Decodes the body from `r`, consuming all remaining ports.
    ///
    /// # Errors
    ///
    /// Fails on truncation or if the trailing bytes are not a whole number
    /// of `ofp_phy_port` records.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<SwitchFeatures, CodecError> {
        let datapath_id = DatapathId(r.u64()?);
        let n_buffers = r.u32()?;
        let n_tables = r.u8()?;
        r.skip(3)?;
        let capabilities = r.u32()?;
        let actions = r.u32()?;
        if !r.remaining().is_multiple_of(OFP_PHY_PORT_LEN) {
            return Err(CodecError::BadLength {
                context: "ofp_switch_features.ports",
                found: r.remaining(),
            });
        }
        let mut ports = Vec::with_capacity(r.remaining() / OFP_PHY_PORT_LEN);
        while r.remaining() > 0 {
            ports.push(PhyPort::decode(r)?);
        }
        Ok(SwitchFeatures {
            datapath_id,
            n_buffers,
            n_tables,
            capabilities,
            actions,
            ports,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u64(self.datapath_id.0);
        w.u32(self.n_buffers);
        w.u8(self.n_tables);
        w.pad(3);
        w.u32(self.capabilities);
        w.u32(self.actions);
        for p in &self.ports {
            p.encode(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phy_port_roundtrip() {
        let p = PhyPort::simulated(PortNo(3), MacAddr::from_low(0x33));
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        assert_eq!(v.len(), OFP_PHY_PORT_LEN);
        let mut r = Reader::new(&v, "phy_port");
        assert_eq!(PhyPort::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn long_port_names_are_truncated_to_15_bytes() {
        let mut p = PhyPort::simulated(PortNo(1), MacAddr::ZERO);
        p.name = "a-very-long-interface-name".to_string();
        let mut w = Writer::new();
        p.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "phy_port");
        let decoded = PhyPort::decode(&mut r).unwrap();
        assert_eq!(decoded.name, "a-very-long-int");
    }

    #[test]
    fn features_roundtrip() {
        let f = SwitchFeatures {
            datapath_id: DatapathId(0x42),
            n_buffers: 256,
            n_tables: 1,
            capabilities: 0x87,
            actions: 0xfff,
            ports: vec![
                PhyPort::simulated(PortNo(1), MacAddr::from_low(1)),
                PhyPort::simulated(PortNo(2), MacAddr::from_low(2)),
            ],
        };
        let mut w = Writer::new();
        f.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "features");
        assert_eq!(SwitchFeatures::decode(&mut r).unwrap(), f);
    }

    #[test]
    fn rejects_partial_port_record() {
        let f = SwitchFeatures {
            datapath_id: DatapathId(1),
            n_buffers: 0,
            n_tables: 1,
            capabilities: 0,
            actions: 0,
            ports: vec![],
        };
        let mut w = Writer::new();
        f.encode(&mut w);
        w.pad(7); // not a whole ofp_phy_port
        let v = w.into_vec();
        let mut r = Reader::new(&v, "features");
        assert!(SwitchFeatures::decode(&mut r).is_err());
    }
}
