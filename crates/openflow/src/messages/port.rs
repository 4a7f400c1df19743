//! `OFPT_PORT_STATUS` and `OFPT_PORT_MOD`.

use crate::error::CodecError;
use crate::messages::features::PhyPort;
use crate::types::{MacAddr, PortNo};
use crate::wire::{Reader, Writer};

/// What changed about a port (`ofp_port_reason`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PortStatusReason {
    /// The port was added.
    Add = 0,
    /// The port was removed.
    Delete = 1,
    /// An attribute of the port changed.
    Modify = 2,
}

impl PortStatusReason {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::BadValue`] for values above 2.
    fn from_wire(v: u8) -> Result<PortStatusReason, CodecError> {
        match v {
            0 => Ok(PortStatusReason::Add),
            1 => Ok(PortStatusReason::Delete),
            2 => Ok(PortStatusReason::Modify),
            other => Err(CodecError::BadValue {
                field: "ofp_port_status.reason",
                value: other as u64,
            }),
        }
    }
}

/// An `OFPT_PORT_STATUS` body: asynchronous port change notification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortStatus {
    /// What happened.
    pub reason: PortStatusReason,
    /// The port's (new) description.
    pub desc: PhyPort,
}

impl PortStatus {
    /// Decodes the body from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an undefined reason.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<PortStatus, CodecError> {
        let reason = PortStatusReason::from_wire(r.u8()?)?;
        r.skip(7)?;
        let desc = PhyPort::decode(r)?;
        Ok(PortStatus { reason, desc })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u8(self.reason as u8);
        w.pad(7);
        self.desc.encode(w);
    }
}

/// An `OFPT_PORT_MOD` body: controller request to change port behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortMod {
    /// Port to modify.
    pub port_no: PortNo,
    /// Port MAC (sanity check against misdirected mods).
    pub hw_addr: MacAddr,
    /// New `OFPPC_*` config bits.
    pub config: u32,
    /// Which config bits to change.
    pub mask: u32,
    /// Features to advertise (0 = unchanged).
    pub advertise: u32,
}

impl PortMod {
    /// Decodes the body from `r`.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<PortMod, CodecError> {
        let port_no = PortNo(r.u16()?);
        let hw_addr = MacAddr(r.array::<6>()?);
        let config = r.u32()?;
        let mask = r.u32()?;
        let advertise = r.u32()?;
        r.skip(4)?;
        Ok(PortMod {
            port_no,
            hw_addr,
            config,
            mask,
            advertise,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.port_no.0);
        w.bytes(&self.hw_addr.0);
        w.u32(self.config);
        w.u32(self.mask);
        w.u32(self.advertise);
        w.pad(4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_status_roundtrip() {
        let ps = PortStatus {
            reason: PortStatusReason::Modify,
            desc: PhyPort::simulated(PortNo(2), MacAddr::from_low(2)),
        };
        let mut w = Writer::new();
        ps.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "port_status");
        assert_eq!(PortStatus::decode(&mut r).unwrap(), ps);
        r.expect_end().unwrap();
    }

    #[test]
    fn port_mod_roundtrip() {
        let pm = PortMod {
            port_no: PortNo(3),
            hw_addr: MacAddr::from_low(3),
            config: 1,
            mask: 1,
            advertise: 0,
        };
        let mut w = Writer::new();
        pm.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "port_mod");
        assert_eq!(PortMod::decode(&mut r).unwrap(), pm);
        r.expect_end().unwrap();
    }

    #[test]
    fn port_status_rejects_bad_reason() {
        let mut w = Writer::new();
        w.u8(5);
        w.pad(7);
        PhyPort::simulated(PortNo(1), MacAddr::ZERO).encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "port_status");
        assert!(PortStatus::decode(&mut r).is_err());
    }
}
