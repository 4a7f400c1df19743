//! Property-based tests on the flow table's semantics and on link
//! timing. `Link` is crate-private, so the link property here is checked
//! end to end through a simulated ping; `src/link.rs` checks the same
//! property on a bare `Link` in its unit tests.
//!
//! The flow table's tuple-space classifier is checked differentially: a
//! reference implementation preserving the original linear-scan
//! semantics lives in this file, and random command sequences are driven
//! through both, asserting identical winners, counters, and removals.
//!
//! The tier-1 `cargo test` at the workspace root runs it twice: as this
//! crate's test target (the workspace's `default-members` include every
//! crate) and through the facade's `tests/flow_table_differential.rs`,
//! whose module path seeds a different set of cases.

use attain_netsim::{
    EvictionPolicy, FailMode, FaultSpec, FlowModError, FlowTable, HostCommand, LinkChange,
    NetworkBuilder, SimTime,
};
use attain_openflow::{
    Action, FlowKey, FlowKeyBits, FlowMod, FlowModCommand, FlowModFlags, FlowRemovedReason,
    MacAddr, Match, PortNo, Wildcards,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference model: the flat-Vec linear scan the classifier replaced,
// kept verbatim as the semantic oracle.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct RefEntry {
    m: Match,
    priority: u16,
    actions: Vec<Action>,
    cookie: u64,
    idle_timeout: u16,
    hard_timeout: u16,
    send_flow_rem: bool,
    installed_at: SimTime,
    last_matched: SimTime,
    packet_count: u64,
    byte_count: u64,
}

impl RefEntry {
    fn from_mod(fm: &FlowMod, now: SimTime) -> RefEntry {
        RefEntry {
            m: fm.r#match,
            priority: fm.priority,
            actions: fm.actions.clone(),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            send_flow_rem: fm.flags.has(FlowModFlags::SEND_FLOW_REM),
            installed_at: now,
            last_matched: now,
            packet_count: 0,
            byte_count: 0,
        }
    }

    fn is_exact(&self) -> bool {
        self.m.wildcards.0 & 0xff == 0
            && !self.m.wildcards.has(Wildcards::DL_VLAN_PCP)
            && !self.m.wildcards.has(Wildcards::NW_TOS)
            && self.m.wildcards.nw_src_ignored_bits() == 0
            && self.m.wildcards.nw_dst_ignored_bits() == 0
    }

    fn outputs_to(&self, port: PortNo) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, Action::Output { port: p, .. } if *p == port))
    }
}

#[derive(Debug)]
struct RefTable {
    entries: Vec<RefEntry>,
    capacity: usize,
    policy: EvictionPolicy,
}

impl RefTable {
    fn with_policy(capacity: usize, policy: EvictionPolicy) -> RefTable {
        RefTable {
            entries: Vec::new(),
            capacity,
            policy,
        }
    }

    fn lookup(&mut self, key: &FlowKey, frame_len: usize, now: SimTime) -> Option<Vec<Action>> {
        let mut best: Option<usize> = None;
        let mut best_rank = (false, 0u16);
        for (i, e) in self.entries.iter().enumerate() {
            if !e.m.matches(key) {
                continue;
            }
            let rank = (e.is_exact(), e.priority);
            if best.is_none() || rank > best_rank {
                best = Some(i);
                best_rank = rank;
            }
        }
        let i = best?;
        let e = &mut self.entries[i];
        e.packet_count += 1;
        e.byte_count += frame_len as u64;
        e.last_matched = now;
        Some(e.actions.clone())
    }

    /// Returns `(added, removed, evicted)`, mirroring [`ApplyOutcome`].
    #[allow(clippy::type_complexity)]
    fn apply(
        &mut self,
        fm: &FlowMod,
        now: SimTime,
    ) -> Result<(bool, Vec<RefEntry>, Vec<RefEntry>), FlowModError> {
        match fm.command {
            FlowModCommand::Add => self.add(fm, now).map(|ev| (true, Vec::new(), ev)),
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                let mut touched = false;
                for e in &mut self.entries {
                    let hit = if strict {
                        e.m == fm.r#match && e.priority == fm.priority
                    } else {
                        fm.r#match.subsumes(&e.m)
                    };
                    if hit {
                        e.actions = fm.actions.clone();
                        e.cookie = fm.cookie;
                        touched = true;
                    }
                }
                if touched {
                    Ok((false, Vec::new(), Vec::new()))
                } else {
                    self.add(fm, now).map(|ev| (true, Vec::new(), ev))
                }
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                let mut removed = Vec::new();
                self.entries.retain(|e| {
                    let hit = if strict {
                        e.m == fm.r#match && e.priority == fm.priority
                    } else {
                        fm.r#match.subsumes(&e.m)
                    };
                    let hit = hit && (fm.out_port == PortNo::NONE || e.outputs_to(fm.out_port));
                    if hit && e.send_flow_rem {
                        removed.push(e.clone());
                    }
                    !hit
                });
                Ok((false, removed, Vec::new()))
            }
        }
    }

    fn add(&mut self, fm: &FlowMod, now: SimTime) -> Result<Vec<RefEntry>, FlowModError> {
        if fm.flags.has(FlowModFlags::CHECK_OVERLAP) {
            let overlapping = self
                .entries
                .iter()
                .any(|e| e.priority == fm.priority && e.m.overlaps(&fm.r#match));
            if overlapping {
                return Err(FlowModError::Overlap);
            }
        }
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.m == fm.r#match && e.priority == fm.priority)
        {
            *e = RefEntry::from_mod(fm, now);
            return Ok(Vec::new());
        }
        let mut evicted = Vec::new();
        if self.entries.len() >= self.capacity {
            match self.victim(fm.priority) {
                Some(i) => evicted.push(self.entries.remove(i)),
                None => return Err(FlowModError::TableFull),
            }
        }
        self.entries.push(RefEntry::from_mod(fm, now));
        Ok(evicted)
    }

    /// The victim index under the table's overflow policy: `entries` is
    /// insertion-ordered and `min_by_key` keeps the first minimum, so
    /// ties go to the oldest install — the contract the classifier must
    /// reproduce.
    fn victim(&self, incoming_priority: u16) -> Option<usize> {
        match self.policy {
            EvictionPolicy::Reject => None,
            EvictionPolicy::EvictLru => self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_matched)
                .map(|(i, _)| i),
            EvictionPolicy::EvictLowestPriority => {
                let (i, e) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.priority)?;
                (e.priority <= incoming_priority).then_some(i)
            }
        }
    }

    fn expire(&mut self, now: SimTime) -> Vec<(RefEntry, FlowRemovedReason)> {
        let mut out = Vec::new();
        self.entries.retain(|e| {
            if e.hard_timeout > 0
                && now.saturating_sub(e.installed_at) >= SimTime::from_secs(e.hard_timeout as u64)
            {
                out.push((e.clone(), FlowRemovedReason::HardTimeout));
                return false;
            }
            if e.idle_timeout > 0
                && now.saturating_sub(e.last_matched) >= SimTime::from_secs(e.idle_timeout as u64)
            {
                out.push((e.clone(), FlowRemovedReason::IdleTimeout));
                return false;
            }
            true
        });
        out
    }
}

/// Field-by-field equality between a classifier entry and a reference
/// entry, including every counter and timestamp.
fn entries_agree(e: &attain_netsim::FlowEntry, r: &RefEntry) -> bool {
    e.r#match == r.m
        && e.priority == r.priority
        && e.actions[..] == r.actions[..]
        && e.cookie == r.cookie
        && e.idle_timeout == r.idle_timeout
        && e.hard_timeout == r.hard_timeout
        && e.send_flow_rem == r.send_flow_rem
        && e.installed_at == r.installed_at
        && e.last_matched == r.last_matched
        && e.packet_count == r.packet_count
        && e.byte_count == r.byte_count
}

/// One step of the differential script.
#[derive(Debug, Clone)]
enum Op {
    Mod(FlowMod),
    Lookup(FlowKey, usize),
    /// Advance the clock by this many seconds, then expire.
    Expire(u64),
}

fn arb_flow_mod() -> impl Strategy<Value = FlowMod> {
    (
        arb_rich_match(),
        0u8..5,
        any::<bool>(),
        any::<bool>(),
        0u16..4,
        0u16..4,
        0u16..3,
        0u16..3,
    )
        .prop_map(
            |((m, priority), cmd, flow_rem, overlap, idle, hard, out_sel, action_port)| {
                let mut flags = 0;
                if flow_rem {
                    flags |= FlowModFlags::SEND_FLOW_REM;
                }
                if overlap {
                    flags |= FlowModFlags::CHECK_OVERLAP;
                }
                FlowMod {
                    command: match cmd {
                        0 => FlowModCommand::Add,
                        1 => FlowModCommand::Modify,
                        2 => FlowModCommand::ModifyStrict,
                        3 => FlowModCommand::Delete,
                        _ => FlowModCommand::DeleteStrict,
                    },
                    priority,
                    idle_timeout: idle,
                    hard_timeout: hard,
                    flags: FlowModFlags(flags),
                    out_port: if out_sel == 0 {
                        PortNo::NONE
                    } else {
                        PortNo(100 + out_sel - 1)
                    },
                    cookie: action_port as u64,
                    ..FlowMod::add(
                        m,
                        vec![Action::Output {
                            port: PortNo(100 + action_port),
                            max_len: 0,
                        }],
                    )
                }
            },
        )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_flow_mod().prop_map(Op::Mod),
        (arb_key(), 1usize..512).prop_map(|(k, len)| Op::Lookup(k, len)),
        (0u64..4).prop_map(Op::Expire),
    ]
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (
        1u16..8,
        0u64..8,
        0u64..8,
        prop_oneof![Just(0x0800u16), Just(0x0806u16)],
        0u8..3,
        0u32..16,
        0u32..16,
        0u16..4,
        0u16..4,
    )
        .prop_map(
            |(in_port, src, dst, dl_type, nw_proto, nw_src, nw_dst, tp_src, tp_dst)| FlowKey {
                in_port: PortNo(in_port),
                dl_src: MacAddr::from_low(src),
                dl_dst: MacAddr::from_low(dst),
                dl_vlan: 0xffff,
                dl_vlan_pcp: 0,
                dl_type,
                nw_tos: 0,
                nw_proto,
                nw_src,
                nw_dst,
                tp_src,
                tp_dst,
            },
        )
}

fn arb_match() -> impl Strategy<Value = (Match, u16)> {
    // A match derived from a key with a random subset of wildcards, plus
    // a priority.
    (arb_key(), 0u32..0x3f_ffff, 0u16..100).prop_map(|(key, wild_bits, priority)| {
        let mut m = Match::from_flow_key(&key);
        // Only flag-bit wildcards (keep the nw prefixes exact) for
        // simpler reasoning; coverage of prefix wildcards lives in the
        // openflow crate's own tests.
        m.wildcards = Wildcards(wild_bits & 0xff);
        (m, priority)
    })
}

fn arb_rich_match() -> impl Strategy<Value = (Match, u16)> {
    // The full 22-bit wildcard space: field flags, VLAN PCP / ToS flags,
    // and CIDR prefix counts — everything the classifier's exact-tier
    // split and compiled masks have to decode.
    (arb_key(), 0u32..=0x3f_ffff, 0u16..100).prop_map(|(key, wild_bits, priority)| {
        let mut m = Match::from_flow_key(&key);
        m.wildcards = Wildcards(wild_bits);
        (m, priority)
    })
}

fn arb_policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Reject),
        Just(EvictionPolicy::EvictLru),
        Just(EvictionPolicy::EvictLowestPriority),
    ]
}

/// The key space of the few-mask strategy: four ports, two sources, four
/// destinations, everything else fixed, so lookups hit often.
fn arb_dense_key() -> impl Strategy<Value = FlowKey> {
    (1u16..5, 0u64..2, 0u32..4).prop_map(|(in_port, src, nw_dst)| FlowKey {
        in_port: PortNo(in_port),
        dl_src: MacAddr::from_low(src),
        dl_type: 0x0800,
        nw_dst: 0x0a00_0000 | nw_dst,
        ..FlowKey::default()
    })
}

/// A match from one of three masks — fully specified, `in_port` +
/// `nw_dst/31`, `dl_src` only — over [`arb_dense_key`] values, at one of
/// three priorities, optionally with a reserved wildcard bit set (a
/// distinct `Match` in the same bucket as its twin).
fn arb_dense_match() -> impl Strategy<Value = (Match, u16)> {
    (arb_dense_key(), 0u8..3, any::<bool>(), 0u16..3).prop_map(|(key, mask, reserved, priority)| {
        let wildcards = match mask {
            0 => Wildcards::NONE,
            1 => Wildcards(Wildcards::ALL.0 & !Wildcards::IN_PORT).with_nw_dst_ignored_bits(1),
            _ => Wildcards(Wildcards::ALL.0 & !Wildcards::DL_SRC),
        };
        let mut m = Match::from_flow_key(&key);
        m.wildcards = Wildcards(wildcards.0 | u32::from(reserved) << 22);
        (m, priority)
    })
}

/// Mostly adds (so the table fills and stays full) and lookups (so LRU
/// keys move between evictions); now and then a strict or non-strict
/// delete, a modify, or a clock step. Timeouts are rare and long.
fn arb_dense_op() -> impl Strategy<Value = Op> {
    let flow_mod = (arb_dense_match(), 0u8..16, any::<bool>(), 0u16..40, 0u16..3).prop_map(
        |((m, priority), cmd, flow_rem, timeout, action_port)| FlowMod {
            command: match cmd {
                0 => FlowModCommand::Modify,
                1 => FlowModCommand::ModifyStrict,
                2 => FlowModCommand::Delete,
                3 => FlowModCommand::DeleteStrict,
                _ => FlowModCommand::Add,
            },
            priority,
            idle_timeout: if timeout == 1 { 3 } else { 0 },
            hard_timeout: if timeout == 2 { 5 } else { 0 },
            flags: FlowModFlags(if flow_rem {
                FlowModFlags::SEND_FLOW_REM
            } else {
                0
            }),
            cookie: action_port as u64,
            ..FlowMod::add(
                m,
                vec![Action::Output {
                    port: PortNo(100 + action_port),
                    max_len: 0,
                }],
            )
        },
    );
    (0u8..8, flow_mod, arb_dense_key(), 1usize..512, 0u64..2).prop_map(
        |(kind, flow_mod, key, frame_len, dt)| match kind {
            0..=3 => Op::Mod(flow_mod),
            4..=6 => Op::Lookup(key, frame_len),
            _ => Op::Expire(dt),
        },
    )
}

/// Drives `ops` through the classifier and the reference scan, asserting
/// after every step bit-for-bit identical outcomes — winners, counters,
/// errors, removal notifications (in order), eviction victims — the same
/// live entries in the same order, and the classifier's own invariants.
fn check_against_reference(ops: &[Op], capacity: usize, policy: EvictionPolicy) {
    let mut table = FlowTable::with_policy(capacity, policy);
    let mut model = RefTable::with_policy(capacity, policy);
    let mut now = SimTime::ZERO;
    for op in ops {
        match op {
            Op::Mod(fm) => {
                let got = table.apply(fm, now);
                let want = model.apply(fm, now);
                match (got, want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(g.added, w.0, "added flag diverged on {:?}", fm);
                        assert_eq!(
                            g.removed.len(),
                            w.1.len(),
                            "removal count diverged on {:?}",
                            fm
                        );
                        for (ge, we) in g.removed.iter().zip(&w.1) {
                            assert!(
                                entries_agree(ge, we),
                                "removed entry diverged: {:?} vs {:?}",
                                ge,
                                we
                            );
                        }
                        assert_eq!(
                            g.evicted.len(),
                            w.2.len(),
                            "eviction count diverged on {:?}",
                            fm
                        );
                        for (ge, we) in g.evicted.iter().zip(&w.2) {
                            assert!(
                                entries_agree(ge, we),
                                "evicted entry diverged: {:?} vs {:?}",
                                ge,
                                we
                            );
                        }
                        if policy == EvictionPolicy::Reject {
                            assert!(g.evicted.is_empty(), "the reject policy must never evict");
                        }
                    }
                    (Err(g), Err(w)) => assert_eq!(g, w),
                    (g, w) => panic!(
                        "outcome diverged on {:?}: classifier {:?}, reference {:?}",
                        fm,
                        g.is_ok(),
                        w.is_ok()
                    ),
                }
            }
            Op::Lookup(key, frame_len) => {
                let got = table.lookup(key, *frame_len, now);
                let want = model.lookup(key, *frame_len, now);
                match (&got, &want) {
                    (Some(g), Some(w)) => {
                        assert_eq!(&g[..], &w[..], "winning actions diverged for {:?}", key)
                    }
                    (None, None) => {}
                    _ => panic!(
                        "hit/miss diverged for {:?}: classifier {}, reference {}",
                        key,
                        got.is_some(),
                        want.is_some()
                    ),
                }
            }
            Op::Expire(dt) => {
                now = SimTime(now.0 + SimTime::from_secs(*dt).0);
                let got = table.expire(now);
                let want = model.expire(now);
                assert_eq!(got.len(), want.len(), "expiry count diverged at {:?}", now);
                for ((ge, gr), (we, wr)) in got.iter().zip(&want) {
                    assert!(
                        entries_agree(ge, we),
                        "expired entry diverged: {:?} vs {:?}",
                        ge,
                        we
                    );
                    assert_eq!(gr, wr, "expiry reason diverged for {:?}", ge.r#match);
                }
            }
        }
        // Full-state check after every step: same entries, same order,
        // same counters, and the classifier's indexes agree.
        table.check_invariants();
        assert_eq!(table.len(), model.entries.len());
        for (e, r) in table.entries().zip(&model.entries) {
            assert!(
                entries_agree(e, r),
                "live entry diverged: {:?} vs {:?}",
                e,
                r
            );
        }
    }
}

/// A ping frame: the 56-byte payload behind ICMP, IPv4 and Ethernet
/// headers.
const PING_FRAME_BYTES: u64 = 56 + 8 + 20 + 14;

proptest! {
    /// Lookup returns an entry only if that entry's match admits the key,
    /// and among admitting entries it never picks a lower-priority
    /// wildcarded entry over a higher-priority one.
    #[test]
    fn flow_table_lookup_soundness(
        entries in proptest::collection::vec(arb_match(), 0..24),
        key in arb_key(),
    ) {
        let mut table = FlowTable::default();
        for (i, (m, priority)) in entries.iter().enumerate() {
            let fm = FlowMod {
                priority: *priority,
                ..FlowMod::add(
                    *m,
                    vec![Action::Output { port: PortNo(100 + i as u16), max_len: 0 }],
                )
            };
            // Identical match+priority pairs replace; that is fine.
            table.apply(&fm, SimTime::ZERO).expect("capacity not reached");
        }
        let admitting: Vec<&(Match, u16)> =
            entries.iter().filter(|(m, _)| m.matches(&key)).collect();
        let result = table.lookup(&key, 64, SimTime::ZERO);
        if admitting.is_empty() {
            prop_assert!(result.is_none());
        } else {
            let actions = result.expect("some admitting entry wins");
            // The winner is one of the admitting entries.
            let winner_port = match actions[0] {
                Action::Output { port, .. } => port,
                _ => unreachable!("all entries output"),
            };
            prop_assert!(winner_port.0 >= 100);
            // No admitting exact entry may lose to a wildcarded one, and
            // among same-exactness entries priority is respected — check
            // via the table's own entries (replacements make index-based
            // checks unreliable).
            let best_live = table
                .entries()
                .filter(|e| e.r#match.matches(&key))
                .map(|e| (e.is_exact(), e.priority))
                .max()
                .expect("an entry admitted the key");
            let winner = table
                .entries()
                .find(|e| e.actions == actions)
                .expect("winner is a live entry");
            prop_assert_eq!((winner.is_exact(), winner.priority), best_live);
        }
    }

    /// Non-strict delete removes exactly the subsumed entries.
    #[test]
    fn flow_table_delete_subsumption(
        entries in proptest::collection::vec(arb_match(), 1..16),
        selector in arb_match(),
    ) {
        let mut table = FlowTable::default();
        for (m, priority) in &entries {
            let fm = FlowMod { priority: *priority, ..FlowMod::add(*m, vec![]) };
            table.apply(&fm, SimTime::ZERO).expect("capacity not reached");
        }
        let before: Vec<Match> = table.entries().map(|e| e.r#match).collect();
        let del = FlowMod {
            command: FlowModCommand::Delete,
            ..FlowMod::add(selector.0, vec![])
        };
        table.apply(&del, SimTime::ZERO).expect("delete never fails");
        let after: Vec<Match> = table.entries().map(|e| e.r#match).collect();
        for m in &before {
            let kept = after.contains(m);
            let subsumed = selector.0.subsumes(m);
            prop_assert_eq!(kept, !subsumed, "match {} subsumed={}", m, subsumed);
        }
    }

    /// The compiled value/mask form of a match admits exactly the keys
    /// its interpreted form does, over the full wildcard space.
    #[test]
    fn compiled_match_agrees_with_interpreter(
        m in arb_rich_match(),
        keys in proptest::collection::vec(arb_key(), 1..16),
    ) {
        let bits = m.0.compile();
        for key in &keys {
            prop_assert_eq!(
                bits.matches(&FlowKeyBits::from_key(key)),
                m.0.matches(key),
                "compiled/interpreted divergence for {} on {:?}",
                m.0,
                key
            );
        }
    }

    /// Differential test: random add/modify/delete/lookup/expire command
    /// sequences over the full wildcard space (many masks, few entries
    /// each), under each of the three overflow policies. Eviction
    /// interleaved with expiry and slot reuse is exactly the regime where
    /// a stale heap triple or a mis-unlinked index would diverge.
    #[test]
    fn classifier_matches_reference_scan(
        ops in proptest::collection::vec(arb_op(), 0..48),
        capacity in 1usize..12,
        policy in arb_policy(),
    ) {
        check_against_reference(&ops, capacity, policy);
    }

    /// The same differential test in the regimes the first strategy
    /// rarely reaches: one to three masks holding many values, so
    /// buckets collide (one match at several priorities, reserved-bit
    /// twins) and priorities tie across subtables; tables that fill and
    /// stay full, so most adds evict or replace at capacity; and lookups
    /// that hit between evictions, so LRU victims surface through stale
    /// heap triples.
    #[test]
    fn classifier_matches_reference_scan_few_masks(
        ops in proptest::collection::vec(arb_dense_op(), 0..160),
        capacity in 1usize..64,
        policy in arb_policy(),
    ) {
        check_against_reference(&ops, capacity, policy);
    }

    /// Steady-state residency under eviction: filling a table with
    /// distinct same-priority exact entries keeps exactly the newest
    /// `capacity` of them resident, under both evicting policies (equal
    /// priorities and untouched recency reduce both to FIFO). Every
    /// survivor must still win its lookup after the evictions churned
    /// slots; every evicted key must miss.
    #[test]
    fn eviction_keeps_the_newest_entries_resident(
        n in 1usize..32,
        capacity in 1usize..8,
        policy in prop_oneof![
            Just(EvictionPolicy::EvictLru),
            Just(EvictionPolicy::EvictLowestPriority),
        ],
    ) {
        let mut table = FlowTable::with_policy(capacity, policy);
        for i in 0..n {
            let key = FlowKey { in_port: PortNo(i as u16 + 1), ..FlowKey::default() };
            let add = FlowMod::add(
                Match::from_flow_key(&key),
                vec![Action::Output { port: PortNo(100 + i as u16), max_len: 0 }],
            );
            table
                .apply(&add, SimTime::from_secs(i as u64))
                .expect("equal-priority adds are always admitted");
        }
        prop_assert_eq!(table.len(), n.min(capacity));
        prop_assert_eq!(table.eviction_count, n.saturating_sub(capacity) as u64);
        let now = SimTime::from_secs(n as u64);
        for i in 0..n {
            let key = FlowKey { in_port: PortNo(i as u16 + 1), ..FlowKey::default() };
            let hit = table.lookup(&key, 64, now);
            if i + capacity >= n {
                let actions = hit.expect("surviving entry must still match");
                prop_assert_eq!(
                    &actions[..],
                    &[Action::Output { port: PortNo(100 + i as u16), max_len: 0 }][..]
                );
            } else {
                prop_assert!(hit.is_none(), "evicted entry {} still matches", i);
            }
        }
    }

    /// Per-direction link arrivals are monotone in offer order and never
    /// earlier than tx-time + propagation, seen end to end: echoes sent
    /// `interval` apart from `h1` through `s1` to `h2`, over two links
    /// with random bandwidth and delay, come back in the order they left,
    /// each after at least both links' serialisation and propagation in
    /// both directions.
    #[test]
    fn link_arrivals_are_monotone(
        hops in (
            (1_000_000u64..100_000_000, 1u64..1_000),
            (1_000_000u64..100_000_000, 1u64..1_000),
        ),
        count in 1u32..40,
        interval_us in 0u64..2_000,
    ) {
        let mut b = NetworkBuilder::new();
        let h1 = b.host("h1", "10.0.0.1");
        let h2 = b.host("h2", "10.0.0.2");
        let s1 = b.switch_with_mode("s1", FailMode::Safe);
        b.link(h1, s1);
        b.link(s1, h2);
        let mut sim = b.build();
        sim.prime_arp(h1, h2);
        sim.prime_arp(h2, h1);
        let hops = [(hops.0, "h1"), (hops.1, "h2")];
        for &((bandwidth_bps, delay_us), host) in &hops {
            sim.schedule_fault(
                SimTime::ZERO,
                FaultSpec::Link {
                    a: "s1".into(),
                    b: host.into(),
                    change: LinkChange::Degrade {
                        bandwidth_bps: Some(bandwidth_bps),
                        delay: Some(SimTime::from_micros(delay_us)),
                    },
                },
            );
        }
        let interval = SimTime::from_micros(interval_us);
        let start = SimTime::from_secs(5);
        sim.schedule_command(
            start,
            HostCommand::Ping {
                host: h1,
                dst: "10.0.0.2".parse().unwrap(),
                count,
                interval,
                label: "probe".into(),
            },
        );
        sim.run_until(start + SimTime::from_secs(2));

        // Each hop is crossed once each way.
        let floor_ns: u64 = hops
            .iter()
            .map(|&((bandwidth_bps, delay_us), _)| {
                2 * (PING_FRAME_BYTES * 8 * 1_000_000_000 / bandwidth_bps + delay_us * 1_000)
            })
            .sum();
        let stats = &sim.ping_stats()[0];
        prop_assert_eq!(stats.transmitted(), count);
        prop_assert_eq!(stats.received(), count, "{:?}", stats.rtts_ms());
        let mut last_return_ns = 0;
        for (k, rtt) in stats.rtts_ms().iter().enumerate() {
            let rtt_ns = (rtt.expect("every echo is answered") * 1e6).round() as u64;
            prop_assert!(rtt_ns >= floor_ns, "echo {} took {} ns < {} ns", k, rtt_ns, floor_ns);
            let return_ns = k as u64 * interval.as_nanos() + rtt_ns;
            prop_assert!(return_ns >= last_return_ns, "echo {} overtook an earlier one", k);
            last_return_ns = return_ns;
        }
    }
}
