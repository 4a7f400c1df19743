//! The trace renderer against its specification.
//!
//! `TraceEvent`'s text is written by hand (it is what `Trace::digest`
//! hashes, once per event of every campaign cell) and frozen by the
//! golden digests. What it must print is defined by std: `derive(Debug)`
//! on `TraceKind` after `{:.3}` of the timestamp as an `f64`. These
//! properties hold the hand-written text to that definition on every
//! variant, on strings `Debug` escapes, on integers up to their maxima
//! and on the timestamps where integer and float rounding could part.
//!
//! A `Trace` stores its records in a compact encoding and decodes them
//! on the way out; a property below holds that encoding to the events
//! pushed, and the digest to a hash of their rendered text.

use attain_netsim::{ConnId, Direction, SimTime, Trace, TraceEvent, TraceKind};
use attain_openflow::{FlowKey, Match, OfType, PortNo};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// 2^53 ns: from here `as f64` rounds and the renderer defers to it.
const F64_EXACT: u64 = 1 << 53;

fn arb_time() -> impl Strategy<Value = u64> {
    // Half-milliseconds are the ties of `{:.3}`; the renderer sends them
    // (and nothing below 2^53 ns but them) through the float formatter.
    let tie = (0..F64_EXACT / 1_000_000).prop_map(|ms| ms * 1_000_000 + 500_000);
    // Past 2^53 ns `as f64` can move a time one off a tie onto it.
    let inexact_tie =
        (F64_EXACT / 1_000_000..F64_EXACT / 250_000).prop_map(|ms| ms * 1_000_000 + 500_000);
    prop_oneof![
        Just(0),
        tie.clone(),
        tie.clone().prop_map(|ns| ns - 1),
        tie.prop_map(|ns| ns + 1),
        inexact_tie.clone().prop_map(|ns| ns - 1),
        inexact_tie.prop_map(|ns| ns + 1),
        // Whole milliseconds, whose `f64` may sit just under them.
        (0..F64_EXACT / 1_000_000).prop_map(|ms| ms * 1_000_000),
        // The range simulations live in, then everything an `f64` holds
        // exactly, then everything.
        0..600_000_000_000u64,
        0..F64_EXACT,
        F64_EXACT - 2..F64_EXACT + 2,
        F64_EXACT..=u64::MAX,
        Just(u64::MAX),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    let hostile: Vec<char> =
        "\"\\'\n\r\t\0\u{7f}\u{1b}é\u{301}\u{200b}\u{feff}\u{1f600}\u{10ffff} "
            .chars()
            .collect();
    let ch = prop_oneof![
        (0..hostile.len()).prop_map(move |i| hostile[i]),
        (0x20u8..0x7f).prop_map(char::from),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
    ];
    proptest::collection::vec(ch, 0..12).prop_map(String::from_iter)
}

/// Small values, the whole range, and the largest value of the field.
fn arb_up_to(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![0..200u64, 0..=max, Just(max)]
}

fn arb_kind() -> impl Strategy<Value = TraceKind> {
    const REASONS: [&str; 4] = [
        "fail-secure table miss",
        "event-budget",
        "livelock",
        "a \"reason\"\\\n",
    ];
    let of_type = proptest::option::of((0..OfType::ALL.len()).prop_map(|i| OfType::ALL[i]));
    let description = prop_oneof![
        Just(Match::all()),
        Just(Match::from_flow_key(&FlowKey::default())),
        any::<u16>().prop_map(|p| Match::exact_in_port(PortNo(p))),
    ];
    (
        0..12u8,
        arb_up_to(usize::MAX as u64).prop_map(|n| ConnId(n as usize)),
        any::<bool>(),
        of_type,
        arb_up_to(usize::MAX as u64).prop_map(|n| n as usize),
        arb_text(),
        arb_text(),
        description,
        (0..REASONS.len()).prop_map(|i| REASONS[i]),
        arb_up_to(u64::from(u32::MAX)).prop_map(|n| n as u32),
        arb_up_to(u64::MAX),
    )
        .prop_map(
            |(variant, conn, flag, of_type, len, switch, what, m, reason, failures, events)| {
                let direction = if flag {
                    Direction::ControllerToSwitch
                } else {
                    Direction::SwitchToController
                };
                match variant {
                    0 => TraceKind::ControlMessage {
                        conn,
                        direction,
                        of_type,
                        len,
                    },
                    1 => TraceKind::ConnectionUp { conn },
                    2 => TraceKind::ConnectionDead { conn },
                    3 => TraceKind::FailModeEntered {
                        switch,
                        standalone: flag,
                    },
                    4 => TraceKind::FlowInstalled {
                        switch,
                        description: m.into(),
                    },
                    5 => TraceKind::FlowEvicted {
                        switch,
                        description: m.into(),
                    },
                    6 => TraceKind::PacketDropped { switch, reason },
                    7 => TraceKind::Fault {
                        target: switch,
                        what,
                    },
                    8 => TraceKind::DecodeFailure { conn, direction },
                    9 => TraceKind::ConnectionReset { conn, failures },
                    10 => TraceKind::RunHalted { reason, events },
                    _ => TraceKind::Marker(what),
                }
            },
        )
}

fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (arb_time(), arb_kind()).prop_map(|(ns, kind)| TraceEvent {
            time: SimTime(ns),
            kind,
        }),
        0..40,
    )
}

/// What `Trace::digest` hashed when a trace stored its events as pushed:
/// FNV-1a over each event's text and a newline, then over each
/// control-message counter in key order.
fn reference_digest(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut update = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut counts = BTreeMap::new();
    for e in events {
        update(e.to_string().as_bytes());
        update(b"\n");
        if let TraceKind::ControlMessage {
            conn,
            direction,
            of_type,
            ..
        } = e.kind
        {
            *counts.entry((conn, direction, of_type)).or_insert(0u64) += 1;
        }
    }
    for ((conn, direction, of_type), n) in counts {
        update(&(conn.0 as u64).to_be_bytes());
        update(&[matches!(direction, Direction::ControllerToSwitch) as u8]);
        update(&[of_type.map_or(0, |t: OfType| t as u8 + 1)]);
        update(&u64::to_be_bytes(n));
    }
    h
}

fn float_formatted(ns: u64) -> String {
    format!("{:.3}s", SimTime(ns).as_secs_f64())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6_000))]

    #[test]
    fn rendered_event_is_the_float_time_and_derived_debug(ns in arb_time(), kind in arb_kind()) {
        let specified = format!("[{}] {:?}", float_formatted(ns), kind);
        prop_assert_eq!(TraceEvent { time: SimTime(ns), kind }.to_string(), specified);
    }

    #[test]
    fn sim_time_displays_as_the_float_formatter_did(ns in arb_time()) {
        prop_assert_eq!(SimTime(ns).to_string(), float_formatted(ns));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// A trace gives back exactly what was pushed and digests it as a
    /// trace of whole events did, with checkpoints anywhere and a clone
    /// taken after one going its own way.
    #[test]
    fn a_trace_decodes_and_digests_what_was_pushed(
        pushed in arb_events(),
        checkpoints in proptest::collection::vec(any::<bool>(), 40),
        fork_at in 0..40usize,
        forked_suffix in arb_events(),
    ) {
        let fork_at = fork_at.min(pushed.len());
        let mut plain = Trace::new();
        let mut folded = Trace::new();
        let mut fork = None;
        for (i, e) in pushed.iter().enumerate() {
            if i == fork_at {
                folded.checkpoint();
                fork = Some(folded.clone());
            }
            plain.push(e.time, e.kind.clone());
            folded.push(e.time, e.kind.clone());
            if checkpoints[i] {
                folded.checkpoint();
            }
        }
        let mut fork = fork.unwrap_or_else(|| {
            folded.checkpoint();
            folded.clone()
        });
        prop_assert_eq!(plain.events().len(), pushed.len());
        prop_assert_eq!(plain.events().collect::<Vec<_>>(), pushed.clone());
        prop_assert_eq!(folded.events().collect::<Vec<_>>(), pushed.clone());
        prop_assert_eq!(plain.digest().0, reference_digest(&pushed));
        prop_assert_eq!(folded.digest(), plain.digest());

        for e in &forked_suffix {
            fork.push(e.time, e.kind.clone());
        }
        let mut forked = pushed[..fork_at].to_vec();
        forked.extend(forked_suffix);
        prop_assert_eq!(fork.events().collect::<Vec<_>>(), forked.clone());
        prop_assert_eq!(fork.digest().0, reference_digest(&forked));
        prop_assert_eq!(folded.digest(), plain.digest());
    }
}

#[test]
fn every_half_millisecond_of_the_first_ten_seconds_rounds_as_the_float_did() {
    for half_ms in 0..20_000u64 {
        for ns in (half_ms * 500_000).saturating_sub(1)..=half_ms * 500_000 + 1 {
            assert_eq!(SimTime(ns).to_string(), float_formatted(ns), "{ns} ns");
        }
    }
}
