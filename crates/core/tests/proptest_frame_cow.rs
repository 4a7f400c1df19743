//! Copy-on-write mutation equivalence: rewriting a field of a shared
//! [`Frame`] built from a message (the executor's `MODIFYMESSAGE` path,
//! which edits a copy of the memoized decode) must produce exactly the
//! bytes that rewriting a frame of the same raw bytes produces after
//! parsing them, and must never disturb the original frame — other
//! holders of the same allocation keep seeing the unmodified message.

use attain_core::exec::set_field;
use attain_core::lang::Value;
use attain_openflow::{FlowMod, Frame, Match, OfMessage, PacketIn, PacketInReason, PortNo};
use proptest::prelude::*;

/// A writable FLOW_MOD field with an in-range value.
fn arb_flow_mod_edit() -> impl Strategy<Value = (&'static str, i64)> {
    prop_oneof![
        (Just("priority"), 0i64..=u16::MAX as i64),
        (Just("idle_timeout"), 0i64..=u16::MAX as i64),
        (Just("hard_timeout"), 0i64..=u16::MAX as i64),
        (Just("cookie"), any::<i64>()),
        (Just("out_port"), 0i64..=u16::MAX as i64),
        (Just("buffer_id"), 0i64..=u32::MAX as i64),
    ]
}

proptest! {
    /// FLOW_MOD: rewriting the memoized message ≡ rewriting the parsed
    /// bytes.
    #[test]
    fn flow_mod_cow_matches_owned_mutation(
        xid in any::<u32>(),
        priority in any::<u16>(),
        (field, value) in arb_flow_mod_edit(),
    ) {
        let mut fm = FlowMod::add(Match::all(), vec![]);
        fm.priority = priority;
        let msg = OfMessage::FlowMod(fm);
        let value = Value::Int(value);

        // Raw path: the bytes alone, parsed by the rewrite.
        let raw = set_field(&Frame::new(msg.encode(xid)), field, &value).expect("writable field");

        // Memoized path: share the encoding, then copy-on-write.
        let original = Frame::from_message(msg.clone(), xid);
        let holder = original.clone(); // another component keeps a handle
        let mutated = set_field(&original, field, &value).expect("writable field");

        prop_assert_eq!(mutated.bytes(), raw.bytes());
        // The mutation went to a fresh allocation; every other holder of
        // the original frame still sees the untouched message.
        prop_assert_eq!(holder.bytes(), msg.encode(xid).as_slice());
        prop_assert_eq!(holder.message(), Some(&msg));
        // The mutated frame decodes, keeps the xid, and differs from the
        // original exactly when the write changed the field's value.
        let (new_msg, new_xid) = mutated.decoded().expect("mutated frame decodes").clone();
        prop_assert_eq!(new_xid, xid);
        prop_assert_eq!(
            OfMessage::decode(raw.bytes()).expect("raw path decodes").0,
            new_msg
        );
    }

    /// PACKET_IN: same equivalence on a different message family, with
    /// an arbitrary payload riding along untouched.
    #[test]
    fn packet_in_cow_matches_owned_mutation(
        xid in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        in_port in 0i64..=u16::MAX as i64,
    ) {
        let msg = OfMessage::PacketIn(PacketIn {
            buffer_id: Some(7),
            total_len: payload.len() as u16,
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: payload,
        });
        let value = Value::Int(in_port);

        let raw = set_field(&Frame::new(msg.encode(xid)), "in_port", &value).expect("writable");
        let original = Frame::from_message(msg.clone(), xid);
        let mutated = set_field(&original, "in_port", &value).expect("writable");

        prop_assert_eq!(mutated.bytes(), raw.bytes());
        prop_assert_eq!(original.message(), Some(&msg));
        let got = mutated.message().expect("decodes");
        let OfMessage::PacketIn(pi) = got else { panic!("still a PACKET_IN") };
        prop_assert_eq!(pi.in_port, PortNo(in_port as u16));
    }
}
