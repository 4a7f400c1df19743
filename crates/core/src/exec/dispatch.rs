//! Compiled per-state rule dispatch (the Φ-compilation backend).
//!
//! The reference executor evaluates every rule of the current automaton
//! state against every intercepted message — O(|Φ|) per message. This
//! module compiles each state's ruleset once, at attack-compile time,
//! into an index that maps one message to the (usually tiny) candidate
//! subset of rules whose conditions could possibly matter:
//!
//! * **Equality/membership buckets** — rules anchored on
//!   `prop == literal` or `prop in [literals…]` (see
//!   [`anchor_guard`](crate::lang::anchor_guard)) hash-dispatch on the
//!   extracted property value: one read + one hash probe per anchored
//!   property per message, regardless of how many rules share it.
//! * **Interval tests** — rules anchored on `prop OP threshold` over
//!   infallible numeric properties are flattened into sorted threshold
//!   arrays with precomputed prefix/suffix union masks: one binary
//!   search finds every satisfied comparison at once.
//! * **Residual scan** — rules whose conditions defy indexing (deque
//!   reads, disjunctions, arithmetic, property-vs-property tests) are
//!   always candidates. Semantics are never approximated.
//!
//! Soundness of exclusion rests on the anchor-guard contract: a rule is
//! skipped only when the reference scan is guaranteed to evaluate its
//! condition to a falsy value *without logging*. Rules anchored on
//! fallible properties (payload reads that may hit an unparseable frame
//! or missing field) carry an *on-error* fallback mask so the scan's
//! per-rule `ActionError` events are reproduced in exact rule order.
//!
//! Candidate sets are bitmasks over the state's rule indices, so the
//! candidate list always comes out in ascending rule order — evaluation
//! order, `σ_previous` semantics, and log ordering are untouched.

use crate::lang::{
    anchor_guard, property_read_is_fallible, Attack, CmpOp, Guard, MessageView, Property, Value,
    ValueKey,
};
use crate::model::ConnectionId;
use std::collections::HashMap;

/// A bitmask over one state's rule indices.
type Mask = Box<[u64]>;

fn empty_mask(words: usize) -> Mask {
    vec![0u64; words].into_boxed_slice()
}

fn set_bit(mask: &mut [u64], idx: usize) {
    mask[idx / 64] |= 1u64 << (idx % 64);
}

fn has_bit(mask: &[u64], idx: usize) -> bool {
    mask.get(idx / 64)
        .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d |= s;
    }
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
}

/// Pushes the set bits of `a & b`, in ascending order, onto `out`.
fn collect_and(a: &[u64], b: &[u64], out: &mut Vec<u32>) {
    for (w, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let mut bits = x & y;
        while bits != 0 {
            out.push(w as u32 * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// One-sided threshold index: sorted `(threshold, strictness)` entries
/// with union masks so a single binary search yields the mask of every
/// rule whose comparison a value satisfies.
///
/// Entries are keyed so that a value `x` satisfies entry `(t, s)` iff
/// `(t, s) < (x, 1)` lexicographically for lower bounds (`x ≥ t` when
/// `s = 0` i.e. `Ge`, `x > t` when `s = 1` i.e. `Gt`), and iff
/// `(t, s) ≥ (x, 1)` for upper bounds (`x < t` when `s = 0` i.e. `Lt`,
/// `x ≤ t` when `s = 1` i.e. `Le`). Both sides share the same cut
/// point; lower bounds take the prefix union, upper bounds the suffix.
#[derive(Debug, Clone, PartialEq, Default)]
struct BoundIndex {
    entries: Vec<(f64, u8)>,
    /// `masks[i]` = union of rules satisfied when the search cut lands
    /// at `i` (length `entries.len() + 1`; empty when no entries).
    masks: Vec<Mask>,
}

impl BoundIndex {
    fn build(mut raw: Vec<(f64, u8, usize)>, words: usize, prefix: bool) -> Self {
        if raw.is_empty() {
            return BoundIndex::default();
        }
        // `anchor_guard` keeps only finite thresholds.
        #[allow(clippy::expect_used)]
        raw.sort_by(|a, b| {
            (a.0, a.1)
                .partial_cmp(&(b.0, b.1))
                .expect("thresholds are finite")
        });
        // Merge duplicate (threshold, strictness) keys into one entry.
        let mut entries: Vec<(f64, u8)> = Vec::new();
        let mut entry_masks: Vec<Mask> = Vec::new();
        for (t, s, rule) in raw {
            if entries.last() != Some(&(t, s)) {
                entries.push((t, s));
                entry_masks.push(empty_mask(words));
            }
            if let Some(mask) = entry_masks.last_mut() {
                set_bit(mask, rule);
            }
        }
        let n = entries.len();
        let mut masks = vec![empty_mask(words); n + 1];
        if prefix {
            for i in 0..n {
                let (done, rest) = masks.split_at_mut(i + 1);
                rest[0].copy_from_slice(&done[i]);
                or_into(&mut rest[0], &entry_masks[i]);
            }
        } else {
            for i in (0..n).rev() {
                let (head, tail) = masks.split_at_mut(i + 1);
                head[i].copy_from_slice(&tail[0]);
                or_into(&mut head[i], &entry_masks[i]);
            }
        }
        BoundIndex { entries, masks }
    }

    /// The mask of rules whose bound `x` satisfies, or `None` when the
    /// index is empty.
    fn matching(&self, x: f64) -> Option<&Mask> {
        if self.entries.is_empty() {
            return None;
        }
        let cut = self.entries.partition_point(|&(t, s)| (t, s) < (x, 1));
        Some(&self.masks[cut])
    }
}

/// All index structures anchored on one property within one state.
#[derive(Debug, Clone, PartialEq)]
struct PropIndex {
    prop: Property,
    /// Equality/membership buckets for non-string literals.
    eq: HashMap<ValueKey, Mask>,
    /// Equality/membership buckets for string literals (kept apart so
    /// lookups borrow the read value instead of cloning it into a key).
    eq_str: HashMap<String, Mask>,
    /// Lower bounds (`Ge`/`Gt`), prefix-union masks.
    lower: BoundIndex,
    /// Upper bounds (`Lt`/`Le`), suffix-union masks.
    upper: BoundIndex,
    /// Rules anchored here whose property read can fail at runtime —
    /// when it does, they must still run (and log the error) in order.
    on_error: Mask,
    /// Union of every rule bit this index can emit; when disjoint from
    /// the connection scope the property is not read at all (so the
    /// dispatcher never decodes a frame the scan would not).
    relevant: Mask,
}

impl PropIndex {
    fn candidates_into(&self, view: &MessageView<'_>, acc: &mut [u64]) {
        match view.read(&self.prop) {
            Ok(value) => {
                let hit = match &value {
                    Value::Str(s) => self.eq_str.get(s.as_str()),
                    other => ValueKey::of(other).and_then(|k| self.eq.get(&k)),
                };
                if let Some(mask) = hit {
                    or_into(acc, mask);
                }
                if let Some(x) = value.as_float() {
                    if let Some(mask) = self.lower.matching(x) {
                        or_into(acc, mask);
                    }
                    if let Some(mask) = self.upper.matching(x) {
                        or_into(acc, mask);
                    }
                }
            }
            Err(_) => or_into(acc, &self.on_error),
        }
    }
}

/// Per-property accumulation while compiling one state.
#[derive(Default)]
struct PropBuilder {
    eq: HashMap<ValueKey, Vec<usize>>,
    eq_str: HashMap<String, Vec<usize>>,
    lower: Vec<(f64, u8, usize)>,
    upper: Vec<(f64, u8, usize)>,
    on_error: Vec<usize>,
}

impl PropBuilder {
    fn add_eq(&mut self, value: &Value, rule: usize) {
        match ValueKey::of(value) {
            Some(ValueKey::Str(s)) => self.eq_str.entry(s).or_default().push(rule),
            Some(key) => self.eq.entry(key).or_default().push(rule),
            // Unreachable: guard extraction rejects unkeyable literals.
            None => {}
        }
    }

    fn finish(self, prop: Property, words: usize) -> PropIndex {
        let to_mask = |rules: Vec<usize>| {
            let mut m = empty_mask(words);
            for r in rules {
                set_bit(&mut m, r);
            }
            m
        };
        let eq: HashMap<ValueKey, Mask> =
            self.eq.into_iter().map(|(k, v)| (k, to_mask(v))).collect();
        let eq_str: HashMap<String, Mask> = self
            .eq_str
            .into_iter()
            .map(|(k, v)| (k, to_mask(v)))
            .collect();
        let lower = BoundIndex::build(self.lower, words, true);
        let upper = BoundIndex::build(self.upper, words, false);
        let on_error = to_mask(self.on_error);
        let mut relevant = empty_mask(words);
        for mask in eq.values().chain(eq_str.values()) {
            or_into(&mut relevant, mask);
        }
        for index in [&lower, &upper] {
            for mask in &index.masks {
                or_into(&mut relevant, mask);
            }
        }
        or_into(&mut relevant, &on_error);
        PropIndex {
            prop,
            eq,
            eq_str,
            lower,
            upper,
            on_error,
            relevant,
        }
    }
}

/// One automaton state's compiled dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledState {
    /// `conn_scope[c]` = rules watching connection `c` (an O(1) test
    /// in place of a walk of [`Rule::connections`](crate::lang::Rule),
    /// used on every dispatch path including the residual scan).
    conn_scope: Vec<Mask>,
    /// Rules that are always candidates (no extractable guard).
    residual: Mask,
    /// Indexes, one per distinct anchored property, in first-anchor
    /// order (deterministic across compiles of the same attack).
    props: Vec<PropIndex>,
}

impl CompiledState {
    fn compile(
        rules: &[crate::lang::Rule],
        conn_count: usize,
        summary: &mut DispatchSummary,
    ) -> CompiledState {
        let words = rules.len().div_ceil(64).max(1);
        let mut conn_scope = vec![empty_mask(words); conn_count];
        let mut residual = empty_mask(words);
        let mut props: Vec<(Property, PropBuilder)> = Vec::new();
        fn builder_for<'a>(
            props: &'a mut Vec<(Property, PropBuilder)>,
            prop: &Property,
        ) -> &'a mut PropBuilder {
            let at = props
                .iter()
                .position(|(p, _)| p == prop)
                .unwrap_or_else(|| {
                    props.push((prop.clone(), PropBuilder::default()));
                    props.len() - 1
                });
            &mut props[at].1
        }
        summary.rules += rules.len();
        for (i, rule) in rules.iter().enumerate() {
            for conn in &rule.connections {
                if let Some(mask) = conn_scope.get_mut(conn.0) {
                    set_bit(mask, i);
                }
            }
            let guard = anchor_guard(&rule.condition);
            if let Some(prop) = guard.as_ref().and_then(Guard::property) {
                if property_read_is_fallible(prop) {
                    builder_for(&mut props, prop).on_error.push(i);
                }
            }
            match guard {
                Some(Guard::Never) => summary.never += 1,
                None => {
                    set_bit(&mut residual, i);
                    summary.residual += 1;
                }
                Some(Guard::Eq { prop, value }) => {
                    summary.eq_indexed += 1;
                    builder_for(&mut props, &prop).add_eq(&value, i);
                }
                Some(Guard::In { prop, values }) => {
                    summary.membership_indexed += 1;
                    let b = builder_for(&mut props, &prop);
                    for value in &values {
                        b.add_eq(value, i);
                    }
                }
                Some(Guard::Cmp {
                    prop,
                    op,
                    threshold,
                }) => {
                    summary.cmp_indexed += 1;
                    let b = builder_for(&mut props, &prop);
                    match op {
                        CmpOp::Ge => b.lower.push((threshold, 0, i)),
                        CmpOp::Gt => b.lower.push((threshold, 1, i)),
                        CmpOp::Lt => b.upper.push((threshold, 0, i)),
                        CmpOp::Le => b.upper.push((threshold, 1, i)),
                    }
                }
            }
        }
        let props = props
            .into_iter()
            .map(|(prop, b)| b.finish(prop, words))
            .collect();
        CompiledState {
            conn_scope,
            residual,
            props,
        }
    }

    /// Whether rule `rule` watches `conn` — O(1), the compiled form of
    /// `Rule::connections.contains(&conn)`.
    pub(crate) fn rule_watches(&self, rule: usize, conn: ConnectionId) -> bool {
        self.conn_scope
            .get(conn.0)
            .is_some_and(|mask| has_bit(mask, rule))
    }

    /// Computes the candidate rule indices for one message, in
    /// ascending (= evaluation) order, into `out`.
    ///
    /// `view` must carry the **full** capability set: extraction reads
    /// stand in for reads the anchored rules are validated to hold, so
    /// a narrower grant would wrongly exclude rules (debug-asserted).
    /// `scratch` is caller-provided so steady-state dispatch allocates
    /// nothing.
    pub(crate) fn candidates(
        &self,
        conn: ConnectionId,
        view: &MessageView<'_>,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u64>,
    ) {
        debug_assert!(
            view.granted == crate::model::CapabilitySet::no_tls(),
            "candidate extraction needs the full capability set"
        );
        out.clear();
        let Some(conn_mask) = self.conn_scope.get(conn.0) else {
            return;
        };
        if self.props.is_empty() {
            collect_and(&self.residual, conn_mask, out);
            return;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.residual);
        for pi in &self.props {
            // Skip properties no in-scope rule anchors on: the frame is
            // never decoded unless the scan would have decoded it too.
            if intersects(&pi.relevant, conn_mask) {
                pi.candidates_into(view, scratch);
            }
        }
        collect_and(scratch, conn_mask, out);
    }
}

/// How a compiled ruleset dispatches its rules — per-class counts,
/// summed over all states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchSummary {
    /// Total rules across all states.
    pub rules: usize,
    /// Rules dispatched through an equality bucket.
    pub eq_indexed: usize,
    /// Rules dispatched through membership buckets.
    pub membership_indexed: usize,
    /// Rules dispatched through a threshold index.
    pub cmp_indexed: usize,
    /// Rules evaluated on every in-scope message.
    pub residual: usize,
    /// Rules whose condition opens with a falsy literal (never run).
    pub never: usize,
}

/// The whole attack's compiled dispatch structure: one
/// [`CompiledState`] per automaton state.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRuleset {
    states: Vec<CompiledState>,
    summary: DispatchSummary,
}

impl CompiledRuleset {
    /// Compiles every state of `attack` for a system with `conn_count`
    /// connections.
    ///
    /// The attack must already be validated (rule capability sets ⊇
    /// their conditions' requirements): extraction reads during
    /// dispatch rely on that invariant to behave exactly like the
    /// per-rule reads of the reference scan.
    pub fn compile(attack: &Attack, conn_count: usize) -> CompiledRuleset {
        let mut summary = DispatchSummary::default();
        let states = attack
            .states
            .iter()
            .map(|s| CompiledState::compile(&s.rules, conn_count, &mut summary))
            .collect();
        CompiledRuleset { states, summary }
    }

    /// The compiled dispatcher for state `idx`.
    pub(crate) fn state(&self, idx: usize) -> &CompiledState {
        &self.states[idx]
    }

    /// Per-class dispatch counts over the whole attack (the unit tests'
    /// view of how each rule was indexed).
    #[cfg(test)]
    pub(crate) fn summary(&self) -> DispatchSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{AttackAction, AttackState, Expr, Rule};
    use crate::model::{CapabilitySet, ControllerId, NodeRef, SwitchId};
    use attain_openflow::{Frame, OfMessage, OfType};

    fn rule(name: &str, conns: &[usize], condition: Expr) -> Rule {
        Rule {
            name: name.into(),
            connections: conns.iter().map(|&c| ConnectionId(c)).collect(),
            required: CapabilitySet::no_tls(),
            condition,
            actions: vec![AttackAction::Drop],
        }
    }

    fn attack_of(rules: Vec<Rule>) -> Attack {
        Attack {
            name: "t".into(),
            states: vec![AttackState {
                name: "s0".into(),
                rules,
            }],
            start: 0,
        }
    }

    fn type_is(t: OfType) -> Expr {
        Expr::eq(Expr::Prop(Property::Type), Expr::Lit(Value::MsgType(t)))
    }

    fn length_is(n: i64) -> Expr {
        Expr::eq(Expr::Prop(Property::Length), Expr::Lit(Value::Int(n)))
    }

    fn view(frame: &Frame) -> MessageView<'_> {
        MessageView {
            conn: ConnectionId(0),
            source: NodeRef::Controller(ControllerId(0)),
            destination: NodeRef::Switch(SwitchId(0)),
            timestamp_ns: 0,
            id: 7,
            frame,
            granted: CapabilitySet::no_tls(),
            entropy: 0.5,
        }
    }

    fn candidates_of(ruleset: &CompiledRuleset, conn: usize, frame: &Frame) -> Vec<u32> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        ruleset
            .state(0)
            .candidates(ConnectionId(conn), &view(frame), &mut out, &mut scratch);
        out
    }

    #[test]
    fn equality_buckets_select_only_matching_rules() {
        let rules = vec![
            rule("r0", &[0], type_is(OfType::Hello)),
            rule("r1", &[0], type_is(OfType::FlowMod)),
            rule("r2", &[0], type_is(OfType::FlowMod)),
            rule("r3", &[0], length_is(8)), // Hello frame is 8 bytes
        ];
        let ruleset = CompiledRuleset::compile(&attack_of(rules), 1);
        let frame = Frame::from_message(OfMessage::Hello, 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0, 3]);
        let frame = Frame::from_message(
            OfMessage::FlowMod(attain_openflow::FlowMod::add(
                attain_openflow::Match::all(),
                vec![],
            )),
            1,
        );
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![1, 2]);
    }

    #[test]
    fn candidates_come_out_in_rule_order_with_residuals() {
        // r0 residual (disjunction), r1 indexed, r2 residual.
        let rules = vec![
            rule("r0", &[0], Expr::or(type_is(OfType::Hello), Expr::always())),
            rule("r1", &[0], type_is(OfType::Hello)),
            rule("r2", &[0], Expr::always()),
        ];
        let ruleset = CompiledRuleset::compile(&attack_of(rules), 1);
        let frame = Frame::from_message(OfMessage::Hello, 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0, 1, 2]);
        let frame = Frame::from_message(OfMessage::EchoRequest(vec![0; 32]), 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0, 2]);
    }

    #[test]
    fn connection_scope_is_o1_and_filters_every_class() {
        let rules = vec![
            rule("r0", &[1], type_is(OfType::Hello)),
            rule("r1", &[0, 1], Expr::always()),
            rule("r2", &[2], Expr::always()),
        ];
        let ruleset = CompiledRuleset::compile(&attack_of(rules), 3);
        let frame = Frame::from_message(OfMessage::Hello, 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![1]);
        assert_eq!(candidates_of(&ruleset, 1, &frame), vec![0, 1]);
        assert_eq!(candidates_of(&ruleset, 2, &frame), vec![2]);
        let state = ruleset.state(0);
        assert!(state.rule_watches(0, ConnectionId(1)));
        assert!(!state.rule_watches(0, ConnectionId(0)));
        assert!(!state.rule_watches(2, ConnectionId(9)));
        // A two-connection watch list: both members, not the third.
        assert!(state.rule_watches(1, ConnectionId(0)));
        assert!(state.rule_watches(1, ConnectionId(1)));
        assert!(!state.rule_watches(1, ConnectionId(2)));
    }

    #[test]
    fn interval_index_matches_scan_semantics() {
        let cmp = |op: fn(Box<Expr>, Box<Expr>) -> Expr, n: i64| {
            op(
                Box::new(Expr::Prop(Property::Length)),
                Box::new(Expr::Lit(Value::Int(n))),
            )
        };
        let rules = vec![
            rule("ge8", &[0], cmp(Expr::Ge, 8)),
            rule("gt8", &[0], cmp(Expr::Gt, 8)),
            rule("lt8", &[0], cmp(Expr::Lt, 8)),
            rule("le8", &[0], cmp(Expr::Le, 8)),
            rule("gt100", &[0], cmp(Expr::Gt, 100)),
            rule("lt100", &[0], cmp(Expr::Lt, 100)),
        ];
        let ruleset = CompiledRuleset::compile(&attack_of(rules), 1);
        // Hello = 8 bytes: ge8, le8, lt100.
        let frame = Frame::from_message(OfMessage::Hello, 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0, 3, 5]);
        // EchoRequest(32) = 40 bytes: ge8, gt8, lt100.
        let frame = Frame::from_message(OfMessage::EchoRequest(vec![0; 32]), 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0, 1, 5]);
        // 4-byte unparseable junk: lt8, le8, lt100 (Length is metadata,
        // it reads fine on junk).
        let frame = Frame::new(vec![0xff; 4]);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![2, 3, 5]);
    }

    #[test]
    fn fallible_anchors_fall_back_on_unparseable_frames() {
        let rules = vec![
            rule("type", &[0], type_is(OfType::Hello)),
            rule("len", &[0], length_is(12)),
        ];
        let ruleset = CompiledRuleset::compile(&attack_of(rules), 1);
        // 12 bytes of junk: the Type read fails, so the type-anchored
        // rule must still be a candidate (the scan logs its error); the
        // Length bucket still works.
        let frame = Frame::new(vec![0xff; 12]);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0, 1]);
        let frame = Frame::new(vec![0xff; 13]);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![0]);
    }

    #[test]
    fn never_rules_are_dropped_membership_and_numerics_bucket() {
        let rules = vec![
            rule(
                "never",
                &[0],
                Expr::and(Expr::Lit(Value::Bool(false)), Expr::always()),
            ),
            rule(
                "in",
                &[0],
                Expr::In(
                    Box::new(Expr::Prop(Property::Type)),
                    vec![
                        Expr::Lit(Value::MsgType(OfType::Hello)),
                        Expr::Lit(Value::MsgType(OfType::EchoRequest)),
                    ],
                ),
            ),
            // Cross-kind numeric equality: Float(8.0) bucket must catch
            // the Int(8) length read.
            rule(
                "float-len",
                &[0],
                Expr::eq(Expr::Prop(Property::Length), Expr::Lit(Value::Float(8.0))),
            ),
        ];
        let ruleset = CompiledRuleset::compile(&attack_of(rules), 1);
        let frame = Frame::from_message(OfMessage::Hello, 1);
        assert_eq!(candidates_of(&ruleset, 0, &frame), vec![1, 2]);
        let summary = ruleset.summary();
        assert_eq!(summary.rules, 3);
        assert_eq!(summary.never, 1);
        assert_eq!(summary.membership_indexed, 1);
        assert_eq!(summary.eq_indexed, 1);
        assert_eq!(summary.residual, 0);
    }

    #[test]
    fn summary_counts_cover_all_classes() {
        let rules = vec![
            rule("eq", &[0], type_is(OfType::Hello)),
            rule(
                "cmp",
                &[0],
                Expr::Gt(
                    Box::new(Expr::Prop(Property::Entropy)),
                    Box::new(Expr::Lit(Value::Float(0.5))),
                ),
            ),
            rule("res", &[0], Expr::Not(Box::new(Expr::always()))),
        ];
        let summary = CompiledRuleset::compile(&attack_of(rules), 1).summary();
        assert_eq!(
            summary,
            DispatchSummary {
                rules: 3,
                eq_indexed: 1,
                membership_indexed: 0,
                cmp_indexed: 1,
                residual: 1,
                never: 0,
            }
        );
    }

    #[test]
    fn empty_state_and_out_of_range_connection() {
        let ruleset = CompiledRuleset::compile(&attack_of(vec![]), 1);
        let frame = Frame::from_message(OfMessage::Hello, 1);
        assert!(candidates_of(&ruleset, 0, &frame).is_empty());
        // A connection index past the system's count yields no
        // candidates rather than panicking.
        assert!(candidates_of(&ruleset, 5, &frame).is_empty());
    }
}
