//! Simulation trace: the monitors' raw material.
//!
//! The paper's injector "logged all control plane connections, all
//! messages sent across such connections, and rule notifications"
//! (§VII-A2); this module is the simulator-side half of that logging.
//!
//! A [`Trace`] stores each record as a private, fixed-size 24-byte
//! `Record` that owns no heap memory: the virtual time (8 bytes), two
//! `u32` payload words `x` and `y`, and three bytes `tag`, `a` and `b`.
//! The four kinds a run logs by the million are encoded inline:
//!
//! - `ControlMessage`: `x` the connection, `y` the length, `a` the
//!   direction, `b` the message type (0 for `None`, else its wire value
//!   plus one);
//! - `ConnectionUp`: `x` the connection;
//! - `FlowInstalled` and `FlowEvicted`: `x` the switch name's index in a
//!   table of names (each interned once, found through a name → index
//!   map) and `y` the index of the match in a side `Vec<Match>` (40 bytes
//!   a record, by value).
//!
//! Every other kind, and any of those four whose connection or length
//! does not fit a `u32`, is kept whole in a side `Vec<TraceKind>` whose
//! index the record holds in `x` (low half) and `y` (high half). So a
//! control-message record costs 24 bytes, a flow record 64, and encoding
//! is lossless for every input: [`Trace::events`] decodes each record
//! back into the [`TraceEvent`] that was pushed.

use crate::engine::ConnId;
use crate::interpose::Direction;
use crate::time::{write_decimal, SimTime};
use attain_openflow::{Match, OfType};
use std::collections::BTreeMap;
use std::fmt;

/// A flow match carried by a trace record and rendered only when the
/// record is displayed or digested — most records never are (a
/// [`TraceMode::Counters`] trace drops them unrendered).
///
/// `Debug` prints what `Debug` of the rendered `String` prints, quotes
/// included, so records and digests read as if the text were stored.
/// The match is boxed so that the two variants carrying one do not
/// widen every [`TraceKind`]; a [`Trace`] stores it unboxed.
#[derive(Clone, PartialEq, Eq)]
pub struct MatchDescription(pub Box<Match>);

impl From<Match> for MatchDescription {
    fn from(m: Match) -> MatchDescription {
        MatchDescription(Box::new(m))
    }
}

impl fmt::Debug for MatchDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A rendered match holds nothing `Debug` of a `str` would escape
        // (ASCII alphanumerics and `()=,./:_`), so quoting it is enough.
        write!(f, "\"{}\"", self.0)
    }
}

/// What a trace record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A control-plane message passed the proxy point.
    ControlMessage {
        /// Connection it traversed.
        conn: ConnId,
        /// Direction of travel.
        direction: Direction,
        /// Message type (`None` if the bytes did not parse).
        of_type: Option<OfType>,
        /// Encoded length.
        len: usize,
    },
    /// A control connection completed its handshake.
    ConnectionUp {
        /// The connection.
        conn: ConnId,
    },
    /// A connection was declared dead by liveness probing.
    ConnectionDead {
        /// The connection.
        conn: ConnId,
    },
    /// A switch entered its failure mode (fail-safe standalone or
    /// fail-secure lockdown).
    FailModeEntered {
        /// Switch name.
        switch: String,
        /// `true` for fail-safe (standalone), `false` for fail-secure.
        standalone: bool,
    },
    /// A flow entry was installed.
    FlowInstalled {
        /// Switch name.
        switch: String,
        /// The entry's match.
        description: MatchDescription,
    },
    /// A flow entry was evicted to make room for a new one (bounded
    /// table under an evicting overflow policy).
    FlowEvicted {
        /// Switch name.
        switch: String,
        /// The victim's match.
        description: MatchDescription,
    },
    /// A packet was dropped.
    PacketDropped {
        /// Where.
        switch: String,
        /// Why.
        reason: &'static str,
    },
    /// An environment-fault transition was applied (link down/up/degrade,
    /// loss/corruption rate change, controller crash/restart, switch
    /// restart).
    Fault {
        /// The fault's target, rendered (`link s1-s2`, `controller c1`).
        target: String,
        /// What happened to it (`down`, `up`, `crash`, `restart`, …).
        what: String,
    },
    /// A peer delivered bytes that did not decode as OpenFlow.
    DecodeFailure {
        /// The connection they arrived on.
        conn: ConnId,
        /// The direction they were travelling.
        direction: Direction,
    },
    /// A connection was dropped after too many consecutive undecodable
    /// messages (a corrupted-stream peer must not stay "up" forever).
    ConnectionReset {
        /// The connection.
        conn: ConnId,
        /// Consecutive decode failures that triggered the reset.
        failures: u32,
    },
    /// The run halted before its horizon on a deterministic budget
    /// (total event cap or the per-instant livelock detector). Counted
    /// in virtual-time quantities only, so it digests identically on
    /// every same-seed run. A passed wall-clock deadline is deliberately
    /// *not* traced.
    RunHalted {
        /// Which bound tripped: `"event-budget"` or `"livelock"`.
        reason: &'static str,
        /// Total events dispatched when the run halted.
        events: u64,
    },
    /// A free-form marker (e.g. experiment phase boundaries).
    Marker(String),
}

/// How much a [`Trace`] retains.
///
/// Counters (and therefore [`Trace::counter_digest`]) accumulate
/// identically in both modes; only per-event record retention differs.
/// A [`TraceMode::Full`] trace keeps one 24-byte record per event, plus
/// 40 bytes of match per flow record and the whole kind of each rarer
/// record (the layout is in `trace.rs`'s module docs). 100k-flow runs use
/// [`TraceMode::Counters`] so the trace stays O(connections × types),
/// not O(events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Keep every event record plus the aggregate counters.
    #[default]
    Full,
    /// Keep only the aggregate counters (drop per-event records).
    Counters,
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Writes the record's text, `[{time}] {kind:?}`, into `out`.
    ///
    /// This is the only renderer: `Display` and [`Trace::digest`] both
    /// call it, the latter with the hasher as `out`. The text is frozen —
    /// the golden digests are hashes of it — and `derive(Debug)` on
    /// [`TraceKind`] is its specification, which the tests compare this
    /// against. Literals, integers and enum names are written directly;
    /// strings still go through `Debug` of `str`, so escaping stays std's.
    fn render<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("[")?;
        self.time.render(out)?;
        out.write_str("] ")?;
        match &self.kind {
            TraceKind::ControlMessage {
                conn,
                direction,
                of_type,
                len,
            } => {
                out.write_str("ControlMessage { conn: ")?;
                conn_id(out, *conn)?;
                out.write_str(", direction: ")?;
                out.write_str(direction_name(*direction))?;
                match of_type {
                    Some(t) => {
                        out.write_str(", of_type: Some(")?;
                        out.write_str(of_type_name(*t))?;
                        out.write_str("), len: ")?;
                    }
                    None => out.write_str(", of_type: None, len: ")?,
                }
                write_decimal(out, *len as u64)?;
                out.write_str(" }")
            }
            TraceKind::ConnectionUp { conn } => {
                out.write_str("ConnectionUp { conn: ")?;
                conn_id(out, *conn)?;
                out.write_str(" }")
            }
            TraceKind::ConnectionDead { conn } => {
                out.write_str("ConnectionDead { conn: ")?;
                conn_id(out, *conn)?;
                out.write_str(" }")
            }
            TraceKind::FailModeEntered { switch, standalone } => {
                out.write_str("FailModeEntered { switch: ")?;
                quoted(out, switch)?;
                out.write_str(if *standalone {
                    ", standalone: true }"
                } else {
                    ", standalone: false }"
                })
            }
            TraceKind::FlowInstalled {
                switch,
                description,
            } => {
                out.write_str("FlowInstalled { switch: ")?;
                quoted(out, switch)?;
                write!(out, ", description: {description:?} }}")
            }
            TraceKind::FlowEvicted {
                switch,
                description,
            } => {
                out.write_str("FlowEvicted { switch: ")?;
                quoted(out, switch)?;
                write!(out, ", description: {description:?} }}")
            }
            TraceKind::PacketDropped { switch, reason } => {
                out.write_str("PacketDropped { switch: ")?;
                quoted(out, switch)?;
                out.write_str(", reason: ")?;
                quoted(out, reason)?;
                out.write_str(" }")
            }
            TraceKind::Fault { target, what } => {
                out.write_str("Fault { target: ")?;
                quoted(out, target)?;
                out.write_str(", what: ")?;
                quoted(out, what)?;
                out.write_str(" }")
            }
            TraceKind::DecodeFailure { conn, direction } => {
                out.write_str("DecodeFailure { conn: ")?;
                conn_id(out, *conn)?;
                out.write_str(", direction: ")?;
                out.write_str(direction_name(*direction))?;
                out.write_str(" }")
            }
            TraceKind::ConnectionReset { conn, failures } => {
                out.write_str("ConnectionReset { conn: ")?;
                conn_id(out, *conn)?;
                out.write_str(", failures: ")?;
                write_decimal(out, u64::from(*failures))?;
                out.write_str(" }")
            }
            TraceKind::RunHalted { reason, events } => {
                out.write_str("RunHalted { reason: ")?;
                quoted(out, reason)?;
                out.write_str(", events: ")?;
                write_decimal(out, *events)?;
                out.write_str(" }")
            }
            TraceKind::Marker(text) => {
                out.write_str("Marker(")?;
                quoted(out, text)?;
                out.write_str(")")
            }
        }
    }
}

fn conn_id<W: fmt::Write>(out: &mut W, conn: ConnId) -> fmt::Result {
    out.write_str("ConnId(")?;
    write_decimal(out, conn.0 as u64)?;
    out.write_str(")")
}

/// `Debug` of a `str`: std's quoting and escaping, not a copy of it.
fn quoted<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    write!(out, "{s:?}")
}

/// `Debug` of a [`Direction`], as a static name.
fn direction_name(direction: Direction) -> &'static str {
    match direction {
        Direction::SwitchToController => "SwitchToController",
        Direction::ControllerToSwitch => "ControllerToSwitch",
    }
}

/// `Debug` of an [`OfType`], as a static name.
fn of_type_name(t: OfType) -> &'static str {
    match t {
        OfType::Hello => "Hello",
        OfType::Error => "Error",
        OfType::EchoRequest => "EchoRequest",
        OfType::EchoReply => "EchoReply",
        OfType::Vendor => "Vendor",
        OfType::FeaturesRequest => "FeaturesRequest",
        OfType::FeaturesReply => "FeaturesReply",
        OfType::GetConfigRequest => "GetConfigRequest",
        OfType::GetConfigReply => "GetConfigReply",
        OfType::SetConfig => "SetConfig",
        OfType::PacketIn => "PacketIn",
        OfType::FlowRemoved => "FlowRemoved",
        OfType::PortStatus => "PortStatus",
        OfType::PacketOut => "PacketOut",
        OfType::FlowMod => "FlowMod",
        OfType::PortMod => "PortMod",
        OfType::StatsRequest => "StatsRequest",
        OfType::StatsReply => "StatsReply",
        OfType::BarrierRequest => "BarrierRequest",
        OfType::BarrierReply => "BarrierReply",
        OfType::QueueGetConfigRequest => "QueueGetConfigRequest",
        OfType::QueueGetConfigReply => "QueueGetConfigReply",
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

/// A 64-bit digest of a trace — the golden-trace oracle's unit of
/// comparison. Two runs with the same digest recorded the same events in
/// the same order at the same virtual times, and accumulated identical
/// control-plane counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceDigest(pub u64);

impl fmt::Display for TraceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms —
/// all the golden oracle needs (collision resistance against adversaries
/// is not a requirement; drift detection is).
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Hashes `events` as [`Trace::digest`] does: each rendered, then a
    /// newline.
    fn events(&mut self, events: impl Iterator<Item = TraceEvent>) {
        for e in events {
            // `Fnv1a::write_str` never fails.
            #[allow(clippy::expect_used)]
            e.render(self).expect("the hasher accepts every write");
            self.update(b"\n");
        }
    }
}

/// Text written into the hasher is hashed, not stored.
impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// What a stored [`Record`] holds, and so how its words decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    ControlMessage,
    ConnectionUp,
    FlowInstalled,
    FlowEvicted,
    /// A kind kept whole in [`Store::whole`].
    Whole,
}

/// One trace record as stored: a fixed 24 bytes that own no heap memory
/// (the layout is in the module docs).
#[derive(Debug, Clone, Copy)]
struct Record {
    time: SimTime,
    x: u32,
    y: u32,
    tag: Tag,
    a: u8,
    b: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 24);

/// The side tables that [`Record`]s index.
#[derive(Debug, Default, Clone)]
struct Store {
    /// Flow records' switch names, each once, and where each one is.
    names: Vec<String>,
    name_index: BTreeMap<String, u32>,
    /// Flow records' matches, one per record.
    matches: Vec<Match>,
    /// Kinds with no inline encoding.
    whole: Vec<TraceKind>,
}

/// `n` as a record word, if it fits one.
fn word(n: usize) -> Option<u32> {
    u32::try_from(n).ok()
}

impl Store {
    /// Encodes `kind` as a record at `time`, moving what it owns into the
    /// side tables.
    fn encode(&mut self, time: SimTime, kind: TraceKind) -> Record {
        let (tag, x, y, a, b) = match kind {
            TraceKind::ControlMessage {
                conn,
                direction,
                of_type,
                len,
            } if word(conn.0).is_some() && word(len).is_some() => (
                Tag::ControlMessage,
                conn.0 as u32,
                len as u32,
                matches!(direction, Direction::ControllerToSwitch) as u8,
                of_type.map_or(0, |t| t as u8 + 1),
            ),
            TraceKind::ConnectionUp { conn } if word(conn.0).is_some() => {
                (Tag::ConnectionUp, conn.0 as u32, 0, 0, 0)
            }
            TraceKind::FlowInstalled {
                switch,
                description,
            } if word(self.matches.len()).is_some() => {
                self.flow(Tag::FlowInstalled, switch, description)
            }
            TraceKind::FlowEvicted {
                switch,
                description,
            } if word(self.matches.len()).is_some() => {
                self.flow(Tag::FlowEvicted, switch, description)
            }
            kind => {
                let at = self.whole.len() as u64;
                self.whole.push(kind);
                (Tag::Whole, at as u32, (at >> 32) as u32, 0, 0)
            }
        };
        Record {
            time,
            x,
            y,
            tag,
            a,
            b,
        }
    }

    /// A flow record's words: its switch name's index (interning the name
    /// on first sight) and its match's.
    fn flow(
        &mut self,
        tag: Tag,
        switch: String,
        description: MatchDescription,
    ) -> (Tag, u32, u32, u8, u8) {
        let name = match self.name_index.get(&switch) {
            Some(&at) => at,
            None => {
                // There are no more names than matches, so it fits.
                let at = self.names.len() as u32;
                self.names.push(switch.clone());
                self.name_index.insert(switch, at);
                at
            }
        };
        let at = self.matches.len() as u32;
        self.matches.push(*description.0);
        (tag, name, at, 0, 0)
    }

    /// The event `r` was encoded from.
    fn decode(&self, r: &Record) -> TraceEvent {
        let kind = match r.tag {
            Tag::ControlMessage => TraceKind::ControlMessage {
                conn: ConnId(r.x as usize),
                direction: if r.a == 0 {
                    Direction::SwitchToController
                } else {
                    Direction::ControllerToSwitch
                },
                of_type: r.b.checked_sub(1).map(|t| OfType::ALL[usize::from(t)]),
                len: r.y as usize,
            },
            Tag::ConnectionUp => TraceKind::ConnectionUp {
                conn: ConnId(r.x as usize),
            },
            Tag::FlowInstalled | Tag::FlowEvicted => {
                let switch = self.names[r.x as usize].clone();
                let description = self.matches[r.y as usize].into();
                if r.tag == Tag::FlowInstalled {
                    TraceKind::FlowInstalled {
                        switch,
                        description,
                    }
                } else {
                    TraceKind::FlowEvicted {
                        switch,
                        description,
                    }
                }
            }
            Tag::Whole => self.whole[(u64::from(r.y) << 32 | u64::from(r.x)) as usize].clone(),
        };
        TraceEvent { time: r.time, kind }
    }
}

/// The simulation's event log plus aggregate control-plane counters.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    records: Vec<Record>,
    store: Store,
    /// `records[..folded]` are already hashed into `prefix` (see
    /// [`Trace::checkpoint`]).
    folded: usize,
    prefix: Fnv1a,
    /// Per `(connection, direction, type)` message counts — the paper's
    /// "increased control plane traffic" metric. A `BTreeMap` so every
    /// iteration (reports, digests) is deterministically ordered without
    /// a sort at each call site.
    counts: BTreeMap<(ConnId, Direction, Option<OfType>), u64>,
    /// When `false`, only counters are kept (for long benchmark runs);
    /// set through [`Trace::set_mode`].
    record_events: bool,
}

impl Trace {
    /// Creates an empty trace that records full events.
    pub fn new() -> Trace {
        Trace {
            record_events: true,
            ..Trace::default()
        }
    }

    /// Appends a record (and updates counters for control messages).
    pub fn push(&mut self, time: SimTime, kind: TraceKind) {
        if let TraceKind::ControlMessage {
            conn,
            direction,
            of_type,
            ..
        } = &kind
        {
            *self
                .counts
                .entry((*conn, *direction, *of_type))
                .or_insert(0) += 1;
        }
        if self.record_events {
            let record = self.store.encode(time, kind);
            self.records.push(record);
        }
    }

    /// All recorded events in time order, each decoded as it is reached.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        self.records.iter().map(|r| self.store.decode(r))
    }

    /// Sets the retention mode. Switching to [`TraceMode::Counters`]
    /// stops recording from now on; already-recorded events are kept.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.record_events = mode == TraceMode::Full;
    }

    /// Total control-plane messages observed (both directions, all
    /// connections).
    pub fn control_message_total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Control-plane messages of type `t` observed in `direction`.
    pub fn control_message_count(&self, t: OfType, direction: Direction) -> u64 {
        self.counts
            .iter()
            .filter(|((_, d, ty), _)| *d == direction && *ty == Some(t))
            .map(|(_, n)| *n)
            .sum()
    }

    /// All counters, deterministically ordered by `(connection,
    /// direction, type)` — the monitors' raw aggregate view.
    pub fn counters(&self) -> Vec<(ConnId, Direction, Option<OfType>, u64)> {
        self.counts
            .iter()
            .map(|(&(conn, dir, ty), &n)| (conn, dir, ty, n))
            .collect()
    }

    /// Digests the full trace: every recorded event (decoded and
    /// rendered, in order) followed by every counter (in key order).
    ///
    /// The digest is the campaign's golden-trace oracle: any semantic
    /// drift in the codec, classifier, controller applications, executor,
    /// or fault engine shifts an event's content, order, or virtual time
    /// and therefore the digest. Runs that disable event recording still
    /// digest their counters.
    pub fn digest(&self) -> TraceDigest {
        let mut h = self.prefix.clone();
        h.events(self.unfolded());
        self.digest_counters(&mut h);
        TraceDigest(h.0)
    }

    /// Folds every event recorded so far into a kept hash state, from
    /// which [`Trace::digest`] resumes. The digest does not change; a
    /// clone taken after a checkpoint (a forked simulation's trace) does
    /// not hash the shared events again.
    pub fn checkpoint(&mut self) {
        let mut prefix = std::mem::take(&mut self.prefix);
        prefix.events(self.unfolded());
        self.prefix = prefix;
        self.folded = self.records.len();
    }

    /// The events not yet folded into `prefix`, decoded.
    fn unfolded(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.records[self.folded..]
            .iter()
            .map(|r| self.store.decode(r))
    }

    /// Digests the counters alone, skipping per-event records.
    ///
    /// This is the digest that is mode-independent: a
    /// [`TraceMode::Counters`] run's [`Trace::digest`] equals a
    /// [`TraceMode::Full`] run's `counter_digest` byte for byte (the
    /// event section of `digest` contributes nothing when no events were
    /// recorded), which is what lets 100k-flow counters-only runs be
    /// checked against full-trace reference runs.
    pub fn counter_digest(&self) -> TraceDigest {
        let mut h = Fnv1a::default();
        self.digest_counters(&mut h);
        TraceDigest(h.0)
    }

    fn digest_counters(&self, h: &mut Fnv1a) {
        for (&(conn, dir, ty), &n) in &self.counts {
            h.update(&(conn.0 as u64).to_be_bytes());
            h.update(&[matches!(dir, Direction::ControllerToSwitch) as u8]);
            h.update(&[ty.map(|t| t as u8 + 1).unwrap_or(0)]);
            h.update(&n.to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_control_messages() {
        let mut t = Trace::new();
        for _ in 0..3 {
            t.push(
                SimTime::ZERO,
                TraceKind::ControlMessage {
                    conn: ConnId(0),
                    direction: Direction::SwitchToController,
                    of_type: Some(OfType::PacketIn),
                    len: 100,
                },
            );
        }
        t.push(
            SimTime::ZERO,
            TraceKind::ControlMessage {
                conn: ConnId(1),
                direction: Direction::ControllerToSwitch,
                of_type: Some(OfType::FlowMod),
                len: 80,
            },
        );
        assert_eq!(t.control_message_total(), 4);
        assert_eq!(
            t.control_message_count(OfType::PacketIn, Direction::SwitchToController),
            3
        );
        assert_eq!(
            t.control_message_count(OfType::PacketIn, Direction::ControllerToSwitch),
            0
        );
        assert_eq!(t.events().len(), 4);
    }

    #[test]
    fn disabling_event_recording_keeps_counters() {
        let mut t = Trace::new();
        t.set_mode(TraceMode::Counters);
        t.push(
            SimTime::ZERO,
            TraceKind::ControlMessage {
                conn: ConnId(0),
                direction: Direction::SwitchToController,
                of_type: Some(OfType::Hello),
                len: 8,
            },
        );
        assert_eq!(t.events().len(), 0);
        assert_eq!(t.control_message_total(), 1);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let msg = |conn: usize, len: usize| TraceKind::ControlMessage {
            conn: ConnId(conn),
            direction: Direction::SwitchToController,
            of_type: Some(OfType::PacketIn),
            len,
        };
        let mut a = Trace::new();
        a.push(SimTime::from_secs(1), msg(0, 100));
        a.push(SimTime::from_secs(2), msg(1, 100));
        let mut b = Trace::new();
        b.push(SimTime::from_secs(1), msg(0, 100));
        b.push(SimTime::from_secs(2), msg(1, 100));
        assert_eq!(a.digest(), b.digest());
        // Different order → different digest.
        let mut c = Trace::new();
        c.push(SimTime::from_secs(1), msg(1, 100));
        c.push(SimTime::from_secs(2), msg(0, 100));
        assert_ne!(a.digest(), c.digest());
        // Different content (length) → different digest.
        let mut d = Trace::new();
        d.push(SimTime::from_secs(1), msg(0, 101));
        d.push(SimTime::from_secs(2), msg(1, 100));
        assert_ne!(a.digest(), d.digest());
        // Digest renders as 16 hex digits.
        assert_eq!(a.digest().to_string().len(), 16);
    }

    #[test]
    fn counterless_digest_still_covers_counters() {
        let mut t = Trace::new();
        t.set_mode(TraceMode::Counters);
        let empty = t.digest();
        t.push(
            SimTime::ZERO,
            TraceKind::ControlMessage {
                conn: ConnId(0),
                direction: Direction::ControllerToSwitch,
                of_type: Some(OfType::FlowMod),
                len: 80,
            },
        );
        assert_eq!(t.events().len(), 0);
        assert_ne!(t.digest(), empty);
    }

    #[test]
    fn counters_mode_digest_matches_full_mode_counter_digest() {
        let msg = |conn: usize| TraceKind::ControlMessage {
            conn: ConnId(conn),
            direction: Direction::SwitchToController,
            of_type: Some(OfType::PacketIn),
            len: 60,
        };
        let mut full = Trace::new();
        assert!(full.record_events);
        let mut counters = Trace::new();
        counters.set_mode(TraceMode::Counters);
        assert!(!counters.record_events);
        assert_eq!(full.events().len() + counters.events().len(), 0);
        for trace in [&mut full, &mut counters] {
            trace.push(SimTime::from_secs(1), msg(0));
            trace.push(SimTime::from_secs(2), msg(0));
            trace.push(SimTime::from_secs(3), msg(1));
            trace.push(SimTime::from_secs(3), TraceKind::Marker("m".into()));
        }
        assert_eq!(full.events().len(), 4);
        assert_eq!(counters.events().len(), 0);
        // The full digest covers events; the counter digest is identical
        // across modes, and in Counters mode it IS the digest.
        assert_ne!(full.digest(), counters.digest());
        assert_eq!(full.counter_digest(), counters.digest());
        assert_eq!(counters.counter_digest(), counters.digest());
    }

    #[test]
    fn a_stored_record_is_at_most_24_bytes() {
        // A full trace holds one `Record` per event.
        assert!(std::mem::size_of::<Record>() <= 24);
    }

    #[test]
    fn match_descriptions_render_as_the_stored_string_did() {
        use attain_openflow::{FlowKey, PortNo, Wildcards};
        // The shape these variants had when they stored rendered text.
        #[derive(Debug)]
        #[allow(dead_code)]
        enum Stored {
            FlowInstalled { switch: String, description: String },
            FlowEvicted { switch: String, description: String },
        }
        let mut prefixed = Match::exact_in_port(PortNo(3));
        prefixed.wildcards = Wildcards(prefixed.wildcards.0 & !Wildcards::DL_TYPE)
            .with_nw_src_ignored_bits(8)
            .with_nw_dst_ignored_bits(0);
        prefixed.dl_type = 0x0800;
        prefixed.nw_src = 0x0a00_0100;
        prefixed.nw_dst = 0x0a00_0209;
        for m in [
            Match::from_flow_key(&FlowKey::default()),
            prefixed,
            Match::all(),
        ] {
            let switch = || "s1".to_string();
            let installed = TraceKind::FlowInstalled {
                switch: switch(),
                description: m.into(),
            };
            let stored = Stored::FlowInstalled {
                switch: switch(),
                description: m.to_string(),
            };
            assert_eq!(format!("{installed:?}"), format!("{stored:?}"));
            assert_eq!(format!("{installed:#?}"), format!("{stored:#?}"));
            let evicted = TraceKind::FlowEvicted {
                switch: switch(),
                description: m.into(),
            };
            let stored = Stored::FlowEvicted {
                switch: switch(),
                description: m.to_string(),
            };
            assert_eq!(format!("{evicted:?}"), format!("{stored:?}"));
        }
    }

    /// One record of every variant, with strings `Debug` must escape and
    /// timestamps on both sides of the renderer's float fallback. The
    /// digests were recorded on the commit whose `digest` hashed
    /// `e.to_string()` built by `derive(Debug)` and `{:.3}` of an `f64`.
    #[test]
    fn digests_of_every_variant_are_the_ones_recorded_before_the_renderer() {
        use attain_openflow::PortNo;
        let hostile = || "s\"1\\\n\t\u{7f}\u{0}é\u{200b}\u{1f600}'".to_string();
        let conn = ConnId(7);
        let direction = Direction::ControllerToSwitch;
        let kinds = [
            TraceKind::ControlMessage {
                conn,
                direction: Direction::SwitchToController,
                of_type: Some(OfType::PacketIn),
                len: 60,
            },
            TraceKind::ControlMessage {
                conn: ConnId(usize::MAX),
                direction,
                of_type: None,
                len: usize::MAX,
            },
            TraceKind::ConnectionUp { conn },
            TraceKind::ConnectionDead { conn },
            TraceKind::FailModeEntered {
                switch: hostile(),
                standalone: true,
            },
            TraceKind::FlowInstalled {
                switch: "s1".into(),
                description: Match::exact_in_port(PortNo(3)).into(),
            },
            TraceKind::FlowEvicted {
                switch: hostile(),
                description: Match::all().into(),
            },
            TraceKind::PacketDropped {
                switch: "s2".into(),
                reason: "fail-secure table miss",
            },
            TraceKind::Fault {
                target: "link s1-s2".into(),
                what: hostile(),
            },
            TraceKind::DecodeFailure { conn, direction },
            TraceKind::ConnectionReset {
                conn,
                failures: u32::MAX,
            },
            TraceKind::RunHalted {
                reason: "event-budget",
                events: u64::MAX,
            },
            TraceKind::Marker(hostile()),
        ];
        let times = [
            0,
            500_000,
            499_999,
            500_001,
            1_500_000,
            62_500_000,
            2_500_000,
            12_345_678_901,
            999_999_999,
            999_500_000,
            (1 << 53) - 1,
            1 << 53,
            u64::MAX,
        ];
        let mut t = Trace::new();
        for (kind, ns) in kinds.into_iter().zip(times) {
            t.push(SimTime(ns), kind);
        }
        assert_eq!(t.events().len(), 13);
        assert_eq!(t.digest().to_string(), "ecb38e0996b59c73");
        assert_eq!(t.counter_digest().to_string(), "36f4318b9456abfc");
    }

    #[test]
    fn checkpoints_do_not_change_the_digest_of_a_trace_or_its_clones() {
        let msg = |len| TraceKind::ControlMessage {
            conn: ConnId(0),
            direction: Direction::SwitchToController,
            of_type: Some(OfType::PacketIn),
            len,
        };
        let mut plain = Trace::new();
        let mut folded = Trace::new();
        for len in 0..6 {
            for t in [&mut plain, &mut folded] {
                t.push(SimTime::from_secs(len as u64), msg(len));
            }
            if len % 2 == 0 {
                folded.checkpoint();
            }
            assert_eq!(folded.digest(), plain.digest(), "after {len}");
        }
        let mut fork = folded.clone();
        folded.checkpoint();
        for t in [&mut plain, &mut fork] {
            t.push(SimTime::from_secs(9), TraceKind::Marker("suffix".into()));
        }
        assert_eq!(fork.digest(), plain.digest());
        assert!(fork.events().eq(plain.events()));
        assert_ne!(folded.digest(), plain.digest());
    }

    #[test]
    fn markers_are_recorded_without_counting() {
        let mut t = Trace::new();
        t.push(SimTime::from_secs(1), TraceKind::Marker("phase 1".into()));
        assert_eq!(t.control_message_total(), 0);
        assert_eq!(t.events().len(), 1);
    }
}
