//! The paper's attack descriptions as DSL sources, ready to compile
//! against the [`enterprise_network`](super::enterprise_network)
//! scenario.

/// Figure 5: the trivial "attack" that models normal control-plane
/// operation — one end state, no rules, everything passes.
pub const TRIVIAL_PASS: &str = include_str!("../../../../attacks/trivial_pass.atk");

/// Figure 10: the flow-modification suppression attack of §VII-B. One
/// absorbing state whose rule drops every `FLOW_MOD` the controller
/// sends to any of the four switches.
pub const FLOW_MOD_SUPPRESSION: &str = include_str!("../../../../attacks/flow_mod_suppression.atk");

/// Figure 12: the connection interruption attack of §VII-C.
///
/// * `sigma1` waits for `s2`'s connection setup (its `HELLO`);
/// * `sigma2` waits for a flow-modification request about traffic from
///   the gateway `h2` (10.0.0.2) to an internal host — the DMZ deny
///   rule. Ryu's L2-only matches never satisfy `φ2`'s `nw_src` read, so
///   against Ryu the attack never leaves this state (§VII-C4);
/// * `sigma3` drops everything on `(c1, s2)`, severing the connection.
pub const CONNECTION_INTERRUPTION: &str =
    include_str!("../../../../attacks/connection_interruption.atk");

/// Figure 6's shape: attack states as prior-message history — act only
/// after a `PACKET_IN` and then a `FLOW_MOD` have been seen.
pub const MESSAGE_HISTORY: &str = include_str!("../../../../attacks/message_history.atk");

/// §VIII-B's modeling-efficiency example: an O(1)-space counter deque
/// replaces `n` memoryless states — here, let ten `FLOW_MOD`s through,
/// then suppress the rest.
pub const COUNTED_SUPPRESSION: &str = include_str!("../../../../attacks/counted_suppression.atk");

/// §VIII-A's message-reordering example: hold two `PACKET_IN`s on a
/// deque used as a stack, then release them behind a third in reverse
/// arrival order.
pub const REORDER_PACKET_INS: &str = include_str!("../../../../attacks/reorder_packet_ins.atk");

/// §VIII-A's replay example: duplicate `FLOW_MOD`s into a queue, then
/// replay them in FIFO order once five are stored.
pub const REPLAY_FLOW_MODS: &str = include_str!("../../../../attacks/replay_flow_mods.atk");

/// A fuzzing attack in the spirit of DELTA (§IX-A): randomly corrupt
/// every tenth controller-to-switch message.
pub const FUZZ_CONTROL_PLANE: &str = include_str!("../../../../attacks/fuzz_control_plane.atk");

/// The overflow-family attack: once the controller has installed two
/// flows on the branch switch `s4`, corrupt the `in_port` of every
/// further `PACKET_IN` from `s4`. The controller learns each source at
/// a phantom port and installs entries real traffic can never match,
/// overflowing the bounded table until the victim flows are evicted
/// (the campaign bounds `s4` at eight entries with LRU eviction for
/// this attack).
pub const TABLE_OVERFLOW: &str = include_str!("../../../../attacks/table_overflow.atk");

/// The timing-observable fingerprinting attack ("Fingerprinting
/// OpenFlow controllers" flavour): watch the `(c1, s1)` control channel
/// until the `PACKET_IN → FLOW_MOD` service-time signature identifies
/// the controller application, then jump to that application's
/// worst-payload state.
///
/// The decision thresholds come from the enterprise simulator's
/// virtual-time latencies observed at the proxy (per-application
/// processing delay plus the 1 ms round trip on the controller link;
/// exact and seed-invariant because the serial controller model adds no
/// noise on the lightly loaded `s1` channel):
///
/// * Beacon      250 µs → 1.25 ms
/// * Floodlight  300 µs → 1.30 ms
/// * Ryu         800 µs → 1.80 ms
/// * POX        1200 µs → 2.20 ms
/// * Hub — behavioural, not temporal: it never installs a flow on `s1`
///   (`timing_count(PACKET_IN, FLOW_MOD)` stays 0) while its per-packet
///   flooding piles up `PACKET_OUT`s no learning switch emits that many
///   of before its first install.
///
/// Every `classify_*` guard leads with an infallible `timing_count`
/// read so the short-circuiting `&&` never evaluates a statistic over
/// an empty sample ring.
pub const FINGERPRINT_THEN_ATTACK: &str =
    include_str!("../../../../attacks/fingerprint_then_attack.atk");

/// All bundled attacks with their names, for iteration in tests and
/// examples.
pub const ALL: [(&str, &str); 10] = [
    ("trivial_pass", TRIVIAL_PASS),
    ("flow_mod_suppression", FLOW_MOD_SUPPRESSION),
    ("connection_interruption", CONNECTION_INTERRUPTION),
    ("message_history", MESSAGE_HISTORY),
    ("counted_suppression", COUNTED_SUPPRESSION),
    ("reorder_packet_ins", REORDER_PACKET_INS),
    ("replay_flow_mods", REPLAY_FLOW_MODS),
    ("fuzz_control_plane", FUZZ_CONTROL_PLANE),
    ("table_overflow", TABLE_OVERFLOW),
    ("fingerprint_then_attack", FINGERPRINT_THEN_ATTACK),
];
