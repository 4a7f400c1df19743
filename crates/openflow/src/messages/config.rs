//! `OFPT_GET_CONFIG_REPLY` / `OFPT_SET_CONFIG` (`ofp_switch_config`).

use crate::error::CodecError;
use crate::wire::{Reader, Writer};

/// `ofp_switch_config` body shared by `GET_CONFIG_REPLY` and `SET_CONFIG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchConfig {
    /// `OFPC_FRAG_*` fragment-handling flags.
    pub flags: u16,
    /// Max bytes of a packet to send to the controller on table miss.
    pub miss_send_len: u16,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        // The spec default: send up to 128 bytes on miss.
        SwitchConfig {
            flags: 0,
            miss_send_len: 128,
        }
    }
}

impl SwitchConfig {
    /// Decodes the 4-byte body.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<SwitchConfig, CodecError> {
        Ok(SwitchConfig {
            flags: r.u16()?,
            miss_send_len: r.u16()?,
        })
    }

    /// Encodes the body into `w`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u16(self.flags);
        w.u16(self.miss_send_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let c = SwitchConfig {
            flags: 1,
            miss_send_len: 0xffff,
        };
        let mut w = Writer::new();
        c.encode(&mut w);
        let v = w.into_vec();
        let mut r = Reader::new(&v, "config");
        assert_eq!(SwitchConfig::decode(&mut r).unwrap(), c);
        r.expect_end().unwrap();
    }

    #[test]
    fn default_miss_send_len_is_128() {
        assert_eq!(SwitchConfig::default().miss_send_len, 128);
    }
}
