//! The OpenFlow 1.0 flow table with OVS-compatible semantics.
//!
//! # Classifier structure
//!
//! The table is a tuple-space classifier in the style of Open vSwitch:
//! no operation scans the table.
//!
//! * **Subtables by mask.** Entries are grouped by the mask words of
//!   their compiled match ([`MatchBits::mask`]: which key bits they
//!   constrain). A subtable is a hash map from masked value words to
//!   the entries sharing them, so a lookup masks the packet's key once
//!   per subtable and probes: one hash probe per distinct mask in use,
//!   whatever the occupancy. Entries sharing a bucket (one match at
//!   several priorities, or matches that differ only in reserved
//!   wildcard bits or in the value of a wildcarded field) are chained
//!   through their slots in `(priority desc, seq asc)` order, so the
//!   bucket's head is its best candidate and a one-entry bucket
//!   allocates nothing. A subtable is dropped when its last entry
//!   leaves.
//! * **Precedence.** The winner is the admitting entry with the highest
//!   rank `(is_exact, priority)`, oldest first on
//!   ties — OpenFlow 1.0 §3.4: a fully-specified entry outranks every
//!   wildcarded one. Subtables are kept sorted by an upper bound of
//!   their members' rank and the search stops at the first subtable
//!   that cannot beat the best candidate so far (equal ranks are still
//!   probed, for the tie-break). The all-ones-mask subtable therefore
//!   sorts first and a hit in it ends the search. Subtable order never
//!   affects the result, only how early the search stops.
//! * **Insertion order** is a per-entry sequence number from a monotone
//!   counter, kept across same-match replacement, with an ordered
//!   `seq → slot` index. Every observable order — [`FlowTable::entries`],
//!   stats replies, the targets of non-strict modify/delete, the
//!   `CHECK_OVERLAP` walk, expiry reports — is a walk of that index;
//!   no hash-map iteration order reaches an observable.
//!
//! Entries live in an arena of slots with stable ids. Two lazy
//! min-heaps index them, and the packet path touches neither:
//!
//! * **Deadlines** — `(deadline, slot, generation)` triples:
//!   [`FlowTable::expire`] pops only triples whose provisional deadline
//!   has passed. One whose generation is stale (entry replaced or
//!   removed) is discarded; one whose idle deadline moved forward
//!   because traffic refreshed `last_matched` is re-armed there.
//! * **Eviction victims** — `(key, seq, slot)` triples, kept only under
//!   an evicting policy; the key is `last_matched` for
//!   [`EvictionPolicy::EvictLru`] and the priority for
//!   [`EvictionPolicy::EvictLowestPriority`]. Every live entry has one
//!   triple at or below its current key. A popped triple is discarded
//!   if the slot's `seq` no longer matches, and re-armed at the entry's
//!   current key if traffic refreshed it. Virtual time is monotone, so
//!   keys only grow and the first up-to-date top is the minimum of
//!   `(key, seq)` over the table: the entry a first-minimum scan in
//!   insertion order would pick, ties to the oldest. Triples orphaned
//!   by deletes and expiry are swept when they outnumber the live ones.
//!
//! Both heaps rely on the caller passing nondecreasing `now` values, as
//! the simulator does.
//!
//! A differential property test in `tests/proptest_netsim.rs` drives
//! this classifier and a reference linear scan through random command
//! sequences and asserts they never diverge — winners, counters,
//! errors, and the order of every removal, expiry and eviction — with
//! [`FlowTable::check_invariants`] run after every step.

use crate::time::SimTime;
use attain_openflow::{
    Action, FlowKey, FlowKeyBits, FlowMod, FlowModCommand, FlowModFlags, FlowRemovedReason, Match,
    MatchBits, PortNo,
};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// One installed flow entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    /// Fields matched.
    pub r#match: Match,
    /// Priority (only meaningful between wildcarded entries; exact-match
    /// entries always outrank wildcarded ones, per OpenFlow 1.0 §3.4).
    pub priority: u16,
    /// Action list (empty = drop). Shared so that lookups and stats can
    /// hand the list out without deep-cloning it.
    pub actions: Arc<[Action]>,
    /// Controller cookie.
    pub cookie: u64,
    /// Idle timeout in seconds (0 = none).
    pub idle_timeout: u16,
    /// Hard timeout in seconds (0 = none).
    pub hard_timeout: u16,
    /// Whether to emit `FLOW_REMOVED` on expiry.
    pub send_flow_rem: bool,
    /// Installation time.
    pub installed_at: SimTime,
    /// Last packet match time.
    pub last_matched: SimTime,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Cached `(is_exact, priority)` ordering rank, fixed at insert
    /// (both inputs are immutable for the entry's lifetime).
    rank: (bool, u16),
}

impl FlowEntry {
    fn from_mod(fm: &FlowMod, now: SimTime) -> FlowEntry {
        FlowEntry {
            r#match: fm.r#match,
            priority: fm.priority,
            actions: fm.actions.as_slice().into(),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            send_flow_rem: fm.flags.has(FlowModFlags::SEND_FLOW_REM),
            installed_at: now,
            last_matched: now,
            packet_count: 0,
            byte_count: 0,
            rank: (fm.r#match.is_exact(), fm.priority),
        }
    }

    /// Whether the entry's match has no wildcards at all.
    pub fn is_exact(&self) -> bool {
        self.rank.0
    }

    /// Whether the entry passes an OpenFlow `out_port` filter (delete,
    /// flow stats, aggregate stats): `PortNo::NONE` passes every entry,
    /// any other port only an entry with an output action to it.
    pub(crate) fn outputs_to(&self, port: PortNo) -> bool {
        port == PortNo::NONE
            || self
                .actions
                .iter()
                .any(|a| matches!(a, Action::Output { port: p, .. } if *p == port))
    }

    /// Time installed as of `now`, split as OpenFlow's `(duration_sec,
    /// duration_nsec)` (`FLOW_REMOVED`, flow stats).
    pub(crate) fn duration(&self, now: SimTime) -> (u32, u32) {
        let ns = now.saturating_sub(self.installed_at).as_nanos();
        ((ns / 1_000_000_000) as u32, (ns % 1_000_000_000) as u32)
    }

    /// When the hard timeout fires, if one is set.
    fn hard_deadline(&self) -> Option<SimTime> {
        (self.hard_timeout > 0).then(|| {
            SimTime(
                self.installed_at
                    .0
                    .saturating_add(SimTime::from_secs(self.hard_timeout as u64).0),
            )
        })
    }

    /// When the idle timeout fires given current `last_matched`, if set.
    fn idle_deadline(&self) -> Option<SimTime> {
        (self.idle_timeout > 0).then(|| {
            SimTime(
                self.last_matched
                    .0
                    .saturating_add(SimTime::from_secs(self.idle_timeout as u64).0),
            )
        })
    }

    /// The earliest time either timeout can fire, if any is set.
    fn next_deadline(&self) -> Option<SimTime> {
        match (self.hard_deadline(), self.idle_deadline()) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (h, i) => h.or(i),
        }
    }
}

/// Why a flow mod could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModError {
    /// `CHECK_OVERLAP` was set and an overlapping same-priority entry
    /// exists.
    Overlap,
    /// The table is full.
    TableFull,
}

/// What a full table does with a new entry — Open vSwitch's
/// `overflow-policy` column (`refuse` / `evict`) with the eviction axis
/// made explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Refuse the new entry with `ALL_TABLES_FULL` — the OpenFlow 1.0
    /// default and OVS `overflow-policy=refuse`.
    #[default]
    Reject,
    /// Evict the least-recently-matched entry, oldest-installed on ties
    /// (OVS `overflow-policy=evict` grouped on usage recency).
    EvictLru,
    /// Evict the lowest-priority entry, oldest-installed on ties. A
    /// newcomer whose priority is strictly below every resident is
    /// refused instead of admitted-then-thrashed.
    EvictLowestPriority,
}

impl EvictionPolicy {
    /// A short stable name (reports, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Reject => "reject",
            EvictionPolicy::EvictLru => "evict_lru",
            EvictionPolicy::EvictLowestPriority => "evict_lowest_priority",
        }
    }
}

/// The result of applying a flow mod.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Whether a new entry was inserted (add, or modify acting as add).
    pub added: bool,
    /// Entries removed by a delete command, for `FLOW_REMOVED`
    /// notification (only those with `send_flow_rem`).
    pub removed: Vec<FlowEntry>,
    /// Entries evicted to make room for an added one (all of them —
    /// the switch decides which warrant a `FLOW_REMOVED` and traces the
    /// rest).
    pub evicted: Vec<FlowEntry>,
}

/// An arena slot id. Kept to 32 bits: every index stores one per entry.
type SlotId = u32;

/// End of a bucket chain.
const NIL: SlotId = SlotId::MAX;

/// The five packed words of a key, mask or masked value (see
/// [`FlowKeyBits`]).
type Words = [u64; 5];

/// FxHash's multiply-rotate function (as in rustc): a few cycles a word
/// against SipHash's rounds. It is not keyed, so crafted keys could
/// collide, but a bucket map holds at most the table's capacity.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
        }
    }

    /// Folds the high half of one more product into the low half. A
    /// product carries bits only upward, so FxHash's low bits, which pick
    /// the bucket, would ignore the high bits of the last word hashed:
    /// 1,000 spine routes differing only in `nw_dst` would share 32
    /// buckets.
    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * u128::from(Self::SEED);
        product as u64 ^ (product >> 64) as u64
    }
}

/// Masked value words → bucket head, hashed with [`FxHasher`]. Nothing
/// iterates it but the assertions in [`FlowTable::check_invariants`].
type Buckets = HashMap<Words, SlotId, BuildHasherDefault<FxHasher>>;

/// An arena slot: a generation counter plus the occupant, if any.
#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    occ: Option<Occupied>,
}

#[derive(Debug, Clone)]
struct Occupied {
    entry: FlowEntry,
    /// Insertion sequence number: the entry's place in every observable
    /// order and the final tie-break of lookups and evictions.
    seq: u64,
    /// The next entry of this one's bucket chain, or [`NIL`].
    next: SlotId,
}

/// The occupant of slot `id` (free functions, so callers can hold other
/// fields of the table borrowed).
// Every id reached through an index names an occupied slot.
#[allow(clippy::expect_used)]
fn occupant(slots: &[Slot], id: SlotId) -> &Occupied {
    slots[id as usize].occ.as_ref().expect("stale slot id")
}

// Every id reached through an index names an occupied slot.
#[allow(clippy::expect_used)]
fn occupant_mut(slots: &mut [Slot], id: SlotId) -> &mut Occupied {
    slots[id as usize].occ.as_mut().expect("stale slot id")
}

/// The entries whose compiled matches share one mask.
#[derive(Debug, Clone)]
struct Subtable {
    mask: Words,
    /// At least the rank of every member. It rises with inserts and is
    /// not lowered by removals, so the early stop in `classify` stays
    /// correct without recounting.
    max_rank: (bool, u16),
    /// Masked value words → head of the chain of entries carrying them,
    /// sorted by `(priority desc, seq asc)`.
    buckets: Buckets,
}

/// Orphaned victim triples tolerated beyond the live ones before the
/// heap is rebuilt, so small tables do not rebuild on every delete.
const VICTIM_SLACK: usize = 8;

/// The flow table of one simulated switch (see the module docs for the
/// classifier structure).
#[derive(Debug, Clone)]
pub struct FlowTable {
    slots: Vec<Slot>,
    free: Vec<SlotId>,
    /// The sequence number the next inserted entry takes.
    next_seq: u64,
    /// Live slot ids by insertion sequence — the observable entry order.
    by_seq: BTreeMap<u64, SlotId>,
    /// Sorted by `max_rank`, highest first.
    subtables: Vec<Subtable>,
    /// Min-heap of provisional `(deadline, slot, generation)` triples.
    deadlines: BinaryHeap<Reverse<(SimTime, SlotId, u32)>>,
    /// Min-heap of provisional `(victim key, seq, slot)` triples; empty
    /// under [`EvictionPolicy::Reject`].
    victims: BinaryHeap<Reverse<(u64, u64, SlotId)>>,
    capacity: usize,
    policy: EvictionPolicy,
    /// Packets looked up (table stats).
    pub lookup_count: u64,
    /// Packets that matched (table stats).
    pub matched_count: u64,
    /// Entries evicted to admit new ones over the table's lifetime.
    pub eviction_count: u64,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new(1024)
    }
}

impl FlowTable {
    /// Creates an empty table holding at most `capacity` entries that
    /// rejects adds when full ([`EvictionPolicy::Reject`]).
    pub(crate) fn new(capacity: usize) -> FlowTable {
        FlowTable::with_policy(capacity, EvictionPolicy::Reject)
    }

    /// Creates an empty table with an explicit overflow policy.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> FlowTable {
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            by_seq: BTreeMap::new(),
            subtables: Vec::new(),
            deadlines: BinaryHeap::new(),
            victims: BinaryHeap::new(),
            capacity,
            policy,
            lookup_count: 0,
            matched_count: 0,
            eviction_count: 0,
        }
    }

    /// The configured maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Active entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &FlowEntry> + '_ {
        self.by_seq.values().map(|&id| self.entry(id))
    }

    /// Number of active entries.
    pub fn len(&self) -> usize {
        self.by_seq.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }

    fn occupied(&self, id: SlotId) -> &Occupied {
        occupant(&self.slots, id)
    }

    fn occupied_mut(&mut self, id: SlotId) -> &mut Occupied {
        occupant_mut(&mut self.slots, id)
    }

    /// Where the subtable for `mask` is, if any entry has that mask.
    fn subtable_at(&self, mask: &Words) -> Option<usize> {
        self.subtables.iter().position(|st| st.mask == *mask)
    }

    fn entry(&self, id: SlotId) -> &FlowEntry {
        &self.occupied(id).entry
    }

    /// Looks up the best entry for `key`, updating counters.
    ///
    /// Returns a shared handle to the winning entry's actions (cheap
    /// refcount bump, no deep clone; decouples the caller from the
    /// table borrow).
    pub fn lookup(
        &mut self,
        key: &FlowKey,
        frame_len: usize,
        now: SimTime,
    ) -> Option<Arc<[Action]>> {
        self.lookup_count += 1;
        let id = self.classify(key)?;
        self.matched_count += 1;
        let e = &mut self.occupied_mut(id).entry;
        e.packet_count += 1;
        e.byte_count += frame_len as u64;
        e.last_matched = now;
        Some(Arc::clone(&e.actions))
    }

    /// The winning slot id for `key`, by OpenFlow 1.0 precedence.
    fn classify(&self, key: &FlowKey) -> Option<SlotId> {
        if self.subtables.is_empty() {
            return None;
        }
        let kb = FlowKeyBits::from_key(key);
        let mut best: Option<((bool, u16), Reverse<u64>, SlotId)> = None;
        for st in &self.subtables {
            if best.is_some_and(|(rank, ..)| st.max_rank < rank) {
                break;
            }
            if let Some(&head) = st.buckets.get(&kb.masked(&st.mask)) {
                // The chain is sorted, so its head is its best entry.
                let occ = self.occupied(head);
                let candidate = (occ.entry.rank, Reverse(occ.seq), head);
                if best.is_none_or(|b| candidate > b) {
                    best = Some(candidate);
                }
            }
        }
        best.map(|(.., id)| id)
    }

    /// Applies a `FLOW_MOD`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowModError`] on overlap rejection or a full table.
    pub fn apply(&mut self, fm: &FlowMod, now: SimTime) -> Result<ApplyOutcome, FlowModError> {
        match fm.command {
            FlowModCommand::Add => self.add(fm, now),
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let targets = self.targets(fm);
                if targets.is_empty() {
                    // Per spec: a modify with no target behaves like an add.
                    return self.add(fm, now);
                }
                // Clone the action list once; matched entries share it.
                let actions: Arc<[Action]> = fm.actions.as_slice().into();
                for id in targets {
                    let e = &mut self.occupied_mut(id).entry;
                    e.actions = Arc::clone(&actions);
                    e.cookie = fm.cookie;
                }
                Ok(ApplyOutcome::default())
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let mut targets = self.targets(fm);
                targets.retain(|&id| self.entry(id).outputs_to(fm.out_port));
                let removed = targets
                    .into_iter()
                    .map(|id| self.remove(id))
                    .filter(|e| e.send_flow_rem)
                    .collect();
                Ok(ApplyOutcome {
                    removed,
                    ..ApplyOutcome::default()
                })
            }
        }
    }

    /// The entries a modify or delete addresses, in insertion order: the
    /// one with exactly `fm`'s match and priority for the strict
    /// commands, every entry `fm`'s match subsumes otherwise.
    fn targets(&self, fm: &FlowMod) -> Vec<SlotId> {
        match fm.command {
            FlowModCommand::ModifyStrict | FlowModCommand::DeleteStrict => self
                .find_identical(&fm.r#match, &fm.r#match.compile(), fm.priority)
                .into_iter()
                .collect(),
            _ => self
                .by_seq
                .values()
                .copied()
                .filter(|&id| fm.r#match.subsumes(&self.entry(id).r#match))
                .collect(),
        }
    }

    /// Adds the entry, evicting one to make room if the policy allows.
    fn add(&mut self, fm: &FlowMod, now: SimTime) -> Result<ApplyOutcome, FlowModError> {
        if fm.flags.has(FlowModFlags::CHECK_OVERLAP)
            && self
                .entries()
                .any(|e| e.priority == fm.priority && e.r#match.overlaps(&fm.r#match))
        {
            return Err(FlowModError::Overlap);
        }
        let bits = fm.r#match.compile();
        let mut outcome = ApplyOutcome {
            added: true,
            ..ApplyOutcome::default()
        };
        // Identical match+priority: replace, clearing counters (spec §4.6).
        // The entry keeps its slot, sequence number and bucket position
        // (the match and priority — everything the indexes key on — are
        // unchanged); the generation bump invalidates its old deadlines,
        // and its victim triple stays at or below its new key.
        if let Some(id) = self.find_identical(&fm.r#match, &bits, fm.priority) {
            let entry = FlowEntry::from_mod(fm, now);
            let deadline = entry.next_deadline();
            let slot = &mut self.slots[id as usize];
            slot.gen = slot.gen.wrapping_add(1);
            let gen = slot.gen;
            self.occupied_mut(id).entry = entry;
            if let Some(d) = deadline {
                self.deadlines.push(Reverse((d, id, gen)));
            }
            return Ok(outcome);
        }
        if self.len() >= self.capacity {
            let id = self.victim(fm.priority).ok_or(FlowModError::TableFull)?;
            outcome.evicted.push(self.remove(id));
            self.eviction_count += 1;
        }
        self.insert(FlowEntry::from_mod(fm, now), &bits);
        Ok(outcome)
    }

    /// What the eviction policy orders `entry` by (lowest goes first),
    /// or `None` if the policy never evicts.
    fn victim_key(&self, entry: &FlowEntry) -> Option<u64> {
        match self.policy {
            EvictionPolicy::Reject => None,
            EvictionPolicy::EvictLru => Some(entry.last_matched.0),
            EvictionPolicy::EvictLowestPriority => Some(u64::from(entry.priority)),
        }
    }

    /// Takes the slot to evict for a new entry at `incoming_priority`
    /// off the victim heap, or returns `None` if the policy refuses the
    /// entry instead.
    fn victim(&mut self, incoming_priority: u16) -> Option<SlotId> {
        loop {
            let &Reverse((key, seq, id)) = self.victims.peek()?;
            let live = self.slots[id as usize]
                .occ
                .as_ref()
                .filter(|occ| occ.seq == seq);
            let Some(occ) = live else {
                self.victims.pop(); // entry removed since arming
                continue;
            };
            let current = self.victim_key(&occ.entry)?;
            if current != key {
                // Traffic refreshed the entry: re-arm at its current key.
                self.victims.pop();
                self.victims.push(Reverse((current, seq, id)));
                continue;
            }
            if self.policy == EvictionPolicy::EvictLowestPriority
                && occ.entry.priority > incoming_priority
            {
                return None;
            }
            self.victims.pop();
            return Some(id);
        }
    }

    /// The slot holding an entry with exactly this match (`bits` is its
    /// compiled form) and priority.
    fn find_identical(&self, m: &Match, bits: &MatchBits, priority: u16) -> Option<SlotId> {
        let st = &self.subtables[self.subtable_at(bits.mask())?];
        let mut id = *st.buckets.get(bits.value())?;
        while id != NIL {
            let occ = self.occupied(id);
            if occ.entry.priority == priority && occ.entry.r#match == *m {
                return Some(id);
            }
            id = occ.next;
        }
        None
    }

    /// Installs `entry` (whose compiled match is `bits`) into a free
    /// slot and every index.
    fn insert(&mut self, entry: FlowEntry, bits: &MatchBits) {
        let id = self.free.pop().unwrap_or_else(|| {
            // One slot per entry: 2^32 entries do not fit in memory first.
            #[allow(clippy::expect_used)]
            let id = SlotId::try_from(self.slots.len()).expect("slot ids fit 32 bits");
            assert_ne!(id, NIL, "slot ids fit 32 bits");
            self.slots.push(Slot { gen: 0, occ: None });
            id
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_seq.insert(seq, id);
        if let Some(d) = entry.next_deadline() {
            self.deadlines
                .push(Reverse((d, id, self.slots[id as usize].gen)));
        }
        let victim_key = self.victim_key(&entry);

        let mut at = self.subtable_at(bits.mask()).unwrap_or_else(|| {
            self.subtables.push(Subtable {
                mask: *bits.mask(),
                max_rank: entry.rank,
                buckets: Buckets::default(),
            });
            self.subtables.len() - 1
        });
        let st = &mut self.subtables[at];
        st.max_rank = st.max_rank.max(entry.rank);
        // Link into the bucket's chain after every entry of equal or higher
        // priority: the newest entry has the highest sequence number.
        let mut next = NIL;
        match st.buckets.entry(*bits.value()) {
            Entry::Vacant(bucket) => {
                bucket.insert(id);
            }
            Entry::Occupied(mut head) => {
                let mut prev = NIL;
                next = *head.get();
                while next != NIL {
                    let occ = occupant(&self.slots, next);
                    if occ.entry.priority < entry.priority {
                        break;
                    }
                    (prev, next) = (next, occ.next);
                }
                if prev == NIL {
                    *head.get_mut() = id;
                } else {
                    occupant_mut(&mut self.slots, prev).next = id;
                }
            }
        }
        self.slots[id as usize].occ = Some(Occupied { entry, seq, next });
        // A raised bound may have to move the subtable toward the front.
        while at > 0 && self.subtables[at - 1].max_rank < self.subtables[at].max_rank {
            self.subtables.swap(at - 1, at);
            at -= 1;
        }

        if let Some(key) = victim_key {
            self.victims.push(Reverse((key, seq, id)));
            if self.victims.len() > 2 * (self.by_seq.len() + VICTIM_SLACK) {
                self.sweep_victims();
            }
        }
    }

    /// Rebuilds the victim heap from the live entries, dropping the
    /// triples of entries that left by delete or expiry.
    fn sweep_victims(&mut self) {
        let live: Vec<_> = self
            .by_seq
            .iter()
            .filter_map(|(&seq, &id)| Some(Reverse((self.victim_key(self.entry(id))?, seq, id))))
            .collect();
        self.victims = live.into();
    }

    /// Unlinks slot `id` from every index and returns its entry (its
    /// heap triples are left to be discarded when they surface).
    // A live slot is in the seq index, its mask's subtable and its bucket.
    #[allow(clippy::expect_used)]
    fn remove(&mut self, id: SlotId) -> FlowEntry {
        let slot = &mut self.slots[id as usize];
        let occ = slot.occ.take().expect("stale slot id");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id);
        self.by_seq.remove(&occ.seq).expect("untracked id");
        let bits = occ.entry.r#match.compile();
        let at = self.subtable_at(bits.mask()).expect("missing subtable");
        let buckets = &mut self.subtables[at].buckets;
        let head = buckets.get_mut(bits.value()).expect("missing bucket");
        if *head != id {
            let mut prev = *head;
            loop {
                let prev_occ = occupant_mut(&mut self.slots, prev);
                if prev_occ.next == id {
                    prev_occ.next = occ.next;
                    break;
                }
                prev = prev_occ.next;
            }
        } else if occ.next != NIL {
            *head = occ.next;
        } else {
            buckets.remove(bits.value());
            if buckets.is_empty() {
                self.subtables.remove(at);
            }
        }
        occ.entry
    }

    /// Removes timed-out entries, returning them with their expiry
    /// reasons (all of them, so the switch can count expiries; only those
    /// with `send_flow_rem` warrant a `FLOW_REMOVED`).
    ///
    /// Pops only heap entries whose provisional deadline has passed:
    /// when nothing is due this is O(1), not a table scan.
    pub fn expire(&mut self, now: SimTime) -> Vec<(FlowEntry, FlowRemovedReason)> {
        let mut due: Vec<(u64, SlotId, FlowRemovedReason)> = Vec::new();
        while let Some(&Reverse((t, id, gen))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            self.deadlines.pop();
            let slot = &self.slots[id as usize];
            if slot.gen != gen {
                continue; // entry replaced or removed since arming
            }
            let Some(occ) = slot.occ.as_ref() else {
                continue;
            };
            let e = &occ.entry;
            // Hard before idle: an entry due on both reports the hard one.
            if e.hard_deadline().is_some_and(|d| d <= now) {
                due.push((occ.seq, id, FlowRemovedReason::HardTimeout));
            } else if e.idle_deadline().is_some_and(|d| d <= now) {
                due.push((occ.seq, id, FlowRemovedReason::IdleTimeout));
            } else if let Some(d) = e.next_deadline() {
                // Traffic pushed the idle deadline forward: re-arm.
                self.deadlines.push(Reverse((d, id, gen)));
            }
        }
        // Report in insertion order.
        due.sort_unstable_by_key(|&(seq, ..)| seq);
        due.into_iter()
            .map(|(_, id, reason)| (self.remove(id), reason))
            .collect()
    }

    /// Removes every entry (used when a switch resets).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.by_seq.clear();
        self.subtables.clear();
        self.deadlines.clear();
        self.victims.clear();
    }

    /// Checks that the indexes agree with each other (for tests).
    ///
    /// # Panics
    ///
    /// Panics, naming the condition, if one does not hold.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let live = self.slots.iter().filter(|s| s.occ.is_some()).count();
        assert_eq!(live, self.by_seq.len(), "live slots vs seq index");
        assert_eq!(live + self.free.len(), self.slots.len(), "free list");
        assert!(live <= self.capacity, "over capacity");
        for (&seq, &id) in &self.by_seq {
            assert_eq!(self.occupied(id).seq, seq, "seq index points elsewhere");
            assert!(seq < self.next_seq, "seq from the future");
        }

        let mut chained = vec![false; self.slots.len()];
        for (i, st) in self.subtables.iter().enumerate() {
            assert!(!st.buckets.is_empty(), "empty subtable kept");
            assert!(
                self.subtables[..i].iter().all(|s| s.mask != st.mask),
                "two subtables for one mask"
            );
            assert!(
                i == 0 || self.subtables[i - 1].max_rank >= st.max_rank,
                "subtables out of rank order"
            );
            // This walk only asserts, so its order cannot reach an output.
            #[allow(clippy::iter_over_hash_type)]
            for (value, &head) in &st.buckets {
                let mut order = None;
                let mut id = head;
                while id != NIL {
                    let occ = self.occupied(id);
                    assert!(!std::mem::replace(&mut chained[id as usize], true));
                    let bits = occ.entry.r#match.compile();
                    assert_eq!((bits.mask(), bits.value()), (&st.mask, value), "bucket");
                    assert!(occ.entry.rank <= st.max_rank, "rank above the bound");
                    let place = (Reverse(occ.entry.priority), occ.seq);
                    assert!(order < Some(place), "chain out of order");
                    order = Some(place);
                    id = occ.next;
                }
            }
        }
        let chained = chained.into_iter().filter(|&c| c).count();
        assert_eq!(chained, live, "live slots vs bucket chains");

        for &id in self.by_seq.values() {
            let (slot, occ) = (&self.slots[id as usize], self.occupied(id));
            if let Some(deadline) = occ.entry.next_deadline() {
                assert!(
                    self.deadlines
                        .iter()
                        .any(|&Reverse((t, i, g))| (i, g) == (id, slot.gen) && t <= deadline),
                    "live entry without a deadline triple at or before its deadline"
                );
            }
            if let Some(key) = self.victim_key(&occ.entry) {
                assert!(
                    self.victims
                        .iter()
                        .any(|&Reverse((k, s, i))| (s, i) == (occ.seq, id) && k <= key),
                    "live entry without a victim triple at or below its key"
                );
            }
        }
        // Swept on insert down to twice the live entries, which never
        // outnumber the capacity; nothing else grows the heap.
        let victim_bound = match self.policy {
            EvictionPolicy::Reject => 0,
            _ => 2 * (self.capacity + VICTIM_SLACK),
        };
        assert!(self.victims.len() <= victim_bound, "victim heap unswept");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attain_openflow::{FlowModFlags, Match, Wildcards};

    fn fm(m: Match, priority: u16, port: u16) -> FlowMod {
        FlowMod {
            priority,
            actions: vec![Action::Output {
                port: PortNo(port),
                max_len: 0,
            }],
            ..FlowMod::add(m, vec![])
        }
    }

    fn key_port(p: u16) -> FlowKey {
        FlowKey {
            in_port: PortNo(p),
            ..FlowKey::default()
        }
    }

    fn out(port: u16) -> [Action; 1] {
        [Action::Output {
            port: PortNo(port),
            max_len: 0,
        }]
    }

    fn first(t: &FlowTable) -> &FlowEntry {
        t.entries().next().unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 10, 2), SimTime::ZERO)
            .unwrap();
        let actions = t.lookup(&key_port(1), 100, SimTime::from_secs(1)).unwrap();
        assert_eq!(&actions[..], &out(2));
        assert!(t.lookup(&key_port(3), 100, SimTime::ZERO).is_none());
        assert_eq!(t.lookup_count, 2);
        assert_eq!(t.matched_count, 1);
        assert_eq!(first(&t).packet_count, 1);
        assert_eq!(first(&t).byte_count, 100);
    }

    #[test]
    fn higher_priority_wins_among_wildcarded() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::all(), 1, 7), SimTime::ZERO).unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 100, 8), SimTime::ZERO)
            .unwrap();
        let actions = t.lookup(&key_port(1), 10, SimTime::ZERO).unwrap();
        assert_eq!(&actions[..], &out(8));
    }

    #[test]
    fn exact_match_outranks_higher_priority_wildcard() {
        let mut t = FlowTable::default();
        let key = key_port(1);
        let exact = Match::from_flow_key(&key);
        t.apply(&fm(exact, 1, 9), SimTime::ZERO).unwrap();
        t.apply(
            &fm(Match::exact_in_port(PortNo(1)), 0xffff, 2),
            SimTime::ZERO,
        )
        .unwrap();
        let actions = t.lookup(&key, 10, SimTime::ZERO).unwrap();
        assert_eq!(&actions[..], &out(9));
    }

    #[test]
    fn priority_discriminates_within_an_exact_bucket() {
        // Two exact entries admitting the same key (priorities differ):
        // the bucket must pick the higher one, not the first inserted.
        let mut t = FlowTable::default();
        let key = key_port(1);
        let exact = Match::from_flow_key(&key);
        t.apply(&fm(exact, 1, 5), SimTime::ZERO).unwrap();
        let mut higher = exact;
        // Reserved wildcard bits make the Match distinct without making
        // it any less exact.
        higher.wildcards = Wildcards(1 << 22);
        t.apply(&fm(higher, 9, 6), SimTime::ZERO).unwrap();
        assert_eq!(t.len(), 2);
        let actions = t.lookup(&key, 10, SimTime::ZERO).unwrap();
        assert_eq!(&actions[..], &out(6));
    }

    #[test]
    fn first_inserted_wins_priority_ties() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        let mut peer = Match::all();
        peer.wildcards = Wildcards(Wildcards::ALL.0 | 1 << 23);
        t.apply(&fm(peer, 5, 3), SimTime::ZERO).unwrap();
        let actions = t.lookup(&key_port(1), 10, SimTime::ZERO).unwrap();
        assert_eq!(&actions[..], &out(2));
    }

    #[test]
    fn replace_identical_match_resets_counters() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        t.lookup(&key_port(1), 50, SimTime::ZERO);
        t.apply(
            &fm(Match::exact_in_port(PortNo(1)), 5, 3),
            SimTime::from_secs(1),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(first(&t).packet_count, 0);
        assert_eq!(&first(&t).actions[..], &out(3));
    }

    #[test]
    fn replacement_keeps_tie_break_position() {
        // A replaced entry keeps its insertion-order position, so it
        // still wins priority ties against entries added after it.
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::all(), 5, 3), SimTime::ZERO).unwrap();
        t.apply(
            &fm(Match::exact_in_port(PortNo(1)), 5, 4),
            SimTime::from_secs(1),
        )
        .unwrap();
        let actions = t.lookup(&key_port(1), 10, SimTime::from_secs(1)).unwrap();
        assert_eq!(&actions[..], &out(4));
    }

    #[test]
    fn check_overlap_rejects_conflicts_at_same_priority() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        let mut conflicting = fm(Match::all(), 5, 3);
        conflicting.flags = FlowModFlags(FlowModFlags::CHECK_OVERLAP);
        assert_eq!(
            t.apply(&conflicting, SimTime::ZERO).unwrap_err(),
            FlowModError::Overlap
        );
        // Same flows at a different priority are fine.
        conflicting.priority = 6;
        t.apply(&conflicting, SimTime::ZERO).unwrap();
    }

    #[test]
    fn modify_rewrites_actions_of_subsumed_entries() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 5, 2), SimTime::ZERO)
            .unwrap();
        let mut m = fm(Match::all(), 0, 9);
        m.command = FlowModCommand::Modify;
        t.apply(&m, SimTime::ZERO).unwrap();
        let entries: Vec<&FlowEntry> = t.entries().collect();
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert_eq!(&e.actions[..], &out(9));
        }
        // The rewritten lists are shared, not cloned per entry.
        assert!(Arc::ptr_eq(&entries[0].actions, &entries[1].actions));
    }

    #[test]
    fn modify_with_no_target_adds() {
        let mut t = FlowTable::default();
        let mut m = fm(Match::exact_in_port(PortNo(4)), 5, 2);
        m.command = FlowModCommand::Modify;
        let outcome = t.apply(&m, SimTime::ZERO).unwrap();
        assert!(outcome.added);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_non_strict_uses_subsumption_and_out_port_filter() {
        let mut t = FlowTable::default();
        let mut a = fm(Match::exact_in_port(PortNo(1)), 5, 2);
        a.flags = FlowModFlags(FlowModFlags::SEND_FLOW_REM);
        t.apply(&a, SimTime::ZERO).unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 5, 3), SimTime::ZERO)
            .unwrap();
        // Delete everything that outputs to port 2.
        let mut del = fm(Match::all(), 0, 0);
        del.command = FlowModCommand::Delete;
        del.out_port = PortNo(2);
        del.actions.clear();
        let outcome = t.apply(&del, SimTime::ZERO).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(outcome.removed.len(), 1); // only the SEND_FLOW_REM entry
        assert_eq!(
            first(&t).actions[0],
            Action::Output {
                port: PortNo(3),
                max_len: 0
            }
        );
    }

    #[test]
    fn delete_strict_requires_exact_match_and_priority() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        let mut del = fm(Match::exact_in_port(PortNo(1)), 6, 0);
        del.command = FlowModCommand::DeleteStrict;
        t.apply(&del, SimTime::ZERO).unwrap();
        assert_eq!(t.len(), 1); // wrong priority: no effect
        del.priority = 5;
        t.apply(&del, SimTime::ZERO).unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn idle_and_hard_timeouts_expire() {
        let mut t = FlowTable::default();
        let mut idle = fm(Match::exact_in_port(PortNo(1)), 5, 2);
        idle.idle_timeout = 5;
        t.apply(&idle, SimTime::ZERO).unwrap();
        let mut hard = fm(Match::exact_in_port(PortNo(2)), 5, 2);
        hard.hard_timeout = 30;
        t.apply(&hard, SimTime::ZERO).unwrap();

        // Traffic keeps the idle entry alive at t=4.
        t.lookup(&key_port(1), 10, SimTime::from_secs(4));
        assert!(t.expire(SimTime::from_secs(5)).is_empty());
        // No traffic until t=9: idle entry dies (4+5).
        let gone = t.expire(SimTime::from_secs(9));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].1, FlowRemovedReason::IdleTimeout);
        // Hard timeout fires at t=30 regardless of traffic.
        t.lookup(&key_port(2), 10, SimTime::from_secs(29));
        let gone = t.expire(SimTime::from_secs(30));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].1, FlowRemovedReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn stale_deadlines_do_not_kill_slot_reusers() {
        // Entry with a timeout is deleted; another entry without one
        // reuses its slot. The orphaned heap deadline must not touch it.
        let mut t = FlowTable::default();
        let mut doomed = fm(Match::exact_in_port(PortNo(1)), 5, 2);
        doomed.hard_timeout = 10;
        t.apply(&doomed, SimTime::ZERO).unwrap();
        let mut del = fm(Match::exact_in_port(PortNo(1)), 5, 0);
        del.command = FlowModCommand::DeleteStrict;
        del.actions.clear();
        t.apply(&del, SimTime::ZERO).unwrap();
        t.apply(
            &fm(Match::exact_in_port(PortNo(7)), 5, 3),
            SimTime::from_secs(1),
        )
        .unwrap();
        assert!(t.expire(SimTime::from_secs(100)).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacement_rearms_timeouts() {
        let mut t = FlowTable::default();
        let mut short = fm(Match::exact_in_port(PortNo(1)), 5, 2);
        short.hard_timeout = 5;
        t.apply(&short, SimTime::ZERO).unwrap();
        // Replace with a longer hard timeout before the first fires.
        let mut long = fm(Match::exact_in_port(PortNo(1)), 5, 2);
        long.hard_timeout = 60;
        t.apply(&long, SimTime::from_secs(2)).unwrap();
        assert!(t.expire(SimTime::from_secs(10)).is_empty());
        let gone = t.expire(SimTime::from_secs(62));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].1, FlowRemovedReason::HardTimeout);
    }

    #[test]
    fn expiry_reports_in_insertion_order() {
        let mut t = FlowTable::default();
        for p in [3u16, 1, 2] {
            let mut e = fm(Match::exact_in_port(PortNo(p)), p * 10, p);
            e.hard_timeout = 1;
            t.apply(&e, SimTime::ZERO).unwrap();
        }
        let gone = t.expire(SimTime::from_secs(5));
        let ports: Vec<u16> = gone.iter().map(|(e, _)| e.r#match.in_port.0).collect();
        assert_eq!(ports, vec![3, 1, 2]);
    }

    #[test]
    fn table_full_is_reported() {
        let mut t = FlowTable::new(2);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 5, 2), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            t.apply(&fm(Match::exact_in_port(PortNo(3)), 5, 2), SimTime::ZERO)
                .unwrap_err(),
            FlowModError::TableFull
        );
    }

    #[test]
    fn reject_policy_never_evicts() {
        let mut t = FlowTable::new(1);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            t.apply(&fm(Match::exact_in_port(PortNo(2)), 9, 2), SimTime::ZERO)
                .unwrap_err(),
            FlowModError::TableFull
        );
        assert_eq!(t.eviction_count, 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn evict_lru_prefers_least_recently_matched() {
        let mut t = FlowTable::with_policy(2, EvictionPolicy::EvictLru);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 5, 2), SimTime::ZERO)
            .unwrap();
        // Traffic refreshes entry 1; entry 2 becomes the LRU victim.
        t.lookup(&key_port(1), 10, SimTime::from_secs(3));
        let outcome = t
            .apply(
                &fm(Match::exact_in_port(PortNo(3)), 5, 2),
                SimTime::from_secs(4),
            )
            .unwrap();
        assert!(outcome.added);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(outcome.evicted[0].r#match.in_port, PortNo(2));
        assert_eq!(t.eviction_count, 1);
        assert!(t.lookup(&key_port(2), 10, SimTime::from_secs(5)).is_none());
        assert!(t.lookup(&key_port(1), 10, SimTime::from_secs(5)).is_some());
        assert!(t.lookup(&key_port(3), 10, SimTime::from_secs(5)).is_some());
    }

    #[test]
    fn evict_lru_breaks_ties_by_insertion_order() {
        let mut t = FlowTable::with_policy(2, EvictionPolicy::EvictLru);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 5, 2), SimTime::ZERO)
            .unwrap();
        // Same last_matched (= install time): the oldest install goes.
        let outcome = t
            .apply(
                &fm(Match::exact_in_port(PortNo(3)), 5, 2),
                SimTime::from_secs(1),
            )
            .unwrap();
        assert_eq!(outcome.evicted[0].r#match.in_port, PortNo(1));
    }

    #[test]
    fn evict_lowest_priority_takes_min_priority_oldest_first() {
        let mut t = FlowTable::with_policy(3, EvictionPolicy::EvictLowestPriority);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 7, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 3, 2), SimTime::ZERO)
            .unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(3)), 3, 2), SimTime::ZERO)
            .unwrap();
        let outcome = t
            .apply(
                &fm(Match::exact_in_port(PortNo(4)), 5, 2),
                SimTime::from_secs(1),
            )
            .unwrap();
        // Two entries at priority 3: the older one (port 2) is evicted.
        assert_eq!(outcome.evicted[0].r#match.in_port, PortNo(2));
        assert_eq!(outcome.evicted[0].priority, 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn evict_lowest_priority_refuses_strictly_lower_newcomer() {
        let mut t = FlowTable::with_policy(1, EvictionPolicy::EvictLowestPriority);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            t.apply(&fm(Match::exact_in_port(PortNo(2)), 4, 2), SimTime::ZERO)
                .unwrap_err(),
            FlowModError::TableFull
        );
        // Equal priority is admitted (ties go against the resident).
        let outcome = t
            .apply(&fm(Match::exact_in_port(PortNo(3)), 5, 2), SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome.evicted[0].r#match.in_port, PortNo(1));
    }

    #[test]
    fn replacement_at_capacity_does_not_evict() {
        let mut t = FlowTable::with_policy(1, EvictionPolicy::EvictLru);
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        let outcome = t
            .apply(
                &fm(Match::exact_in_port(PortNo(1)), 5, 3),
                SimTime::from_secs(1),
            )
            .unwrap();
        assert!(outcome.evicted.is_empty());
        assert_eq!(t.eviction_count, 0);
        assert_eq!(&first(&t).actions[..], &out(3));
    }

    #[test]
    fn stale_deadline_of_evicted_entry_spares_slot_reuser() {
        // An armed entry is evicted and its slot reused by an entry with
        // no timeouts; the orphaned heap triple must not remove it.
        let mut t = FlowTable::with_policy(1, EvictionPolicy::EvictLru);
        let mut doomed = fm(Match::exact_in_port(PortNo(1)), 5, 2);
        doomed.hard_timeout = 10;
        t.apply(&doomed, SimTime::ZERO).unwrap();
        let outcome = t
            .apply(
                &fm(Match::exact_in_port(PortNo(2)), 5, 3),
                SimTime::from_secs(1),
            )
            .unwrap();
        assert_eq!(outcome.evicted.len(), 1);
        assert!(t.expire(SimTime::from_secs(100)).is_empty());
        assert_eq!(t.len(), 1);
        assert!(t
            .lookup(&key_port(2), 10, SimTime::from_secs(100))
            .is_some());
    }

    #[test]
    fn clear_resets_every_index() {
        let mut t = FlowTable::with_policy(4, EvictionPolicy::EvictLru);
        let key = key_port(1);
        let mut e = fm(Match::from_flow_key(&key), 5, 2);
        e.hard_timeout = 1;
        t.apply(&e, SimTime::ZERO).unwrap();
        t.apply(&fm(Match::exact_in_port(PortNo(2)), 5, 3), SimTime::ZERO)
            .unwrap();
        t.clear();
        t.check_invariants();
        assert!(t.is_empty());
        assert!(t.lookup(&key, 10, SimTime::ZERO).is_none());
        assert!(t.expire(SimTime::from_secs(100)).is_empty());
    }

    /// `m` with a reserved wildcard bit set: a distinct `Match` that
    /// compiles to the same mask and value words.
    fn alias(mut m: Match) -> Match {
        m.wildcards = Wildcards(m.wildcards.0 | 1 << 23);
        m
    }

    fn delete_strict(t: &mut FlowTable, m: Match, priority: u16) {
        let mut del = fm(m, priority, 0);
        del.command = FlowModCommand::DeleteStrict;
        t.apply(&del, SimTime::ZERO).unwrap();
        t.check_invariants();
    }

    #[test]
    fn bucket_chain_orders_by_priority_then_age() {
        // Four entries in one bucket: one match at priorities 3, 9 and 5,
        // and its alias at 9. The lookup must follow (priority desc, age)
        // whatever the insertion order, also as entries leave.
        let mut t = FlowTable::default();
        let m = Match::exact_in_port(PortNo(1));
        for (m, priority, port) in [(m, 3, 13), (m, 9, 19), (alias(m), 9, 29), (m, 5, 15)] {
            t.apply(&fm(m, priority, port), SimTime::ZERO).unwrap();
            t.check_invariants();
        }
        assert_eq!(t.subtables.len(), 1);
        assert_eq!(t.subtables[0].buckets.len(), 1);
        let winner = |t: &mut FlowTable| t.lookup(&key_port(1), 10, SimTime::ZERO).unwrap();
        assert_eq!(&winner(&mut t)[..], &out(19));
        delete_strict(&mut t, m, 9);
        assert_eq!(&winner(&mut t)[..], &out(29));
        delete_strict(&mut t, alias(m), 9);
        assert_eq!(&winner(&mut t)[..], &out(15));
        delete_strict(&mut t, m, 3); // the chain's tail
        assert_eq!(&winner(&mut t)[..], &out(15));
        delete_strict(&mut t, m, 5);
        assert!(t.subtables.is_empty());
    }

    #[test]
    fn older_entry_in_a_later_subtable_still_wins_the_tie() {
        let mut t = FlowTable::default();
        t.apply(&fm(Match::exact_in_port(PortNo(1)), 5, 2), SimTime::ZERO)
            .unwrap();
        let dl_type = |dl_type: u16| Match {
            wildcards: Wildcards(Wildcards::ALL.0 & !Wildcards::DL_TYPE),
            dl_type,
            ..Match::all()
        };
        t.apply(&fm(dl_type(0), 5, 3), SimTime::ZERO).unwrap();
        // A higher-priority entry (admitting other packets) moves the
        // younger entry's subtable ahead of the older entry's.
        t.apply(&fm(dl_type(0x0806), 7, 4), SimTime::ZERO).unwrap();
        t.check_invariants();
        assert_eq!(t.subtables[0].mask, *dl_type(0).compile().mask());
        // Equal priorities must still be probed for the age tie-break.
        let actions = t.lookup(&key_port(1), 10, SimTime::ZERO).unwrap();
        assert_eq!(&actions[..], &out(2));
    }

    #[test]
    fn empty_subtables_are_dropped() {
        let mut t = FlowTable::default();
        let exact = Match::from_flow_key(&key_port(1));
        let matches = [exact, Match::exact_in_port(PortNo(1)), Match::all()];
        for m in matches {
            t.apply(&fm(m, 5, 2), SimTime::ZERO).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.subtables.len(), 3);
        // The fully-specified subtable is probed first.
        assert_eq!(t.subtables[0].max_rank, (true, 5));
        for (left, m) in matches.into_iter().enumerate().rev() {
            delete_strict(&mut t, m, 5);
            assert_eq!(t.subtables.len(), left);
        }
    }

    #[test]
    fn victim_heap_is_swept_of_orphans() {
        // Entries that leave by delete never surface on the victim heap
        // of a table that is never full; the sweep must bound it.
        let mut t = FlowTable::with_policy(4, EvictionPolicy::EvictLru);
        t.apply(&fm(Match::all(), 1, 9), SimTime::ZERO).unwrap();
        for p in 0..200 {
            let m = Match::exact_in_port(PortNo(p));
            t.apply(&fm(m, 5, 2), SimTime::from_secs(p.into())).unwrap();
            delete_strict(&mut t, m, 5);
        }
        assert!(t.victims.len() <= 2 * (2 + VICTIM_SLACK));
        // The survivor is still the victim once the table fills.
        for p in 0..4 {
            t.apply(
                &fm(Match::exact_in_port(PortNo(p)), 5, 2),
                SimTime::from_secs(300),
            )
            .unwrap();
        }
        t.check_invariants();
        assert_eq!(t.eviction_count, 1);
        assert!(t.entries().all(|e| e.priority == 5));
    }

    #[test]
    fn lru_victim_heap_follows_refreshes_lazily() {
        let mut t = FlowTable::with_policy(3, EvictionPolicy::EvictLru);
        for p in 1..=3 {
            t.apply(&fm(Match::exact_in_port(PortNo(p)), 5, 2), SimTime::ZERO)
                .unwrap();
        }
        // Lookups write no heap: the triples go stale instead.
        let armed = t.victims.len();
        t.lookup(&key_port(1), 10, SimTime::from_secs(1));
        t.lookup(&key_port(2), 10, SimTime::from_secs(2));
        t.lookup(&key_port(1), 10, SimTime::from_secs(3));
        assert_eq!(t.victims.len(), armed);
        t.check_invariants();
        // Victims surface by current recency: 3 (never hit), 2, then 1.
        for (p, victim) in [(4, 3), (5, 2), (6, 1)] {
            let outcome = t
                .apply(
                    &fm(Match::exact_in_port(PortNo(p)), 5, 2),
                    SimTime::from_secs(4),
                )
                .unwrap();
            assert_eq!(outcome.evicted[0].r#match.in_port, PortNo(victim));
            t.check_invariants();
        }
    }
}
