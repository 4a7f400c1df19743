//! Per-connection timing observables: the arrival-history state behind
//! the DSL's `latency(...)`, `inter_arrival(...)`, `timing_mean(...)`,
//! `timing_stddev(...)`, `timing_count(...)`, and `elapsed_in_state()`
//! predicates (ROADMAP item 2, grounded in "Fingerprinting OpenFlow
//! controllers").
//!
//! Design invariants:
//!
//! * **Virtual time only.** Every sample is the difference of two
//!   `InjectorInput::now_ns` stamps — the sim clock under netsim, the
//!   proxy's monotonic clock under real TCP. Nothing here reads a wall
//!   clock, so same-seed runs are byte-identical.
//! * **Bounded, O(1) updates.** Each `(req, resp)` message-type pair
//!   keeps one ring buffer whose capacity is the largest window any
//!   predicate in the attack requests (clamped to
//!   [`MAX_TIMING_WINDOW`]). Observation cost is linear in the number
//!   of *distinct pairs the attack names*, not in history length.
//! * **Plan-driven.** [`TimingPlan::from_attack`] walks the ruleset
//!   once at load; attacks with no timing predicates produce an empty
//!   plan and the executor skips observation entirely
//!   ([`TimingStore::is_passive`]), keeping timing-free rulesets
//!   byte-identical to their pre-timing behavior.

use crate::lang::action::AttackAction;
use crate::lang::conditional::{EvalError, Expr};
use crate::lang::state::Attack;
use crate::lang::value::Value;
use crate::model::ConnectionId;
use attain_openflow::OfType;
use std::collections::{BTreeMap, VecDeque};

/// Hard ceiling on the rolling-window length a timing predicate may
/// request (also the per-pair ring capacity ceiling).
pub const MAX_TIMING_WINDOW: u32 = 256;

/// Which statistic a [`Expr::Timing`] predicate reads from a pair's
/// sample ring.
///
/// There is deliberately no separate inter-arrival statistic:
/// `inter_arrival(T)` is `Timing { req: T, resp: T, stat: Last, .. }` —
/// the time between consecutive arrivals of the same type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingStat {
    /// The most recent sample, in nanoseconds.
    Last,
    /// Mean of the most recent `window` samples, in nanoseconds.
    Mean,
    /// Population standard deviation of the most recent `window`
    /// samples, in nanoseconds.
    StdDev,
    /// How many samples have *ever* been observed for the pair (a
    /// monotonic counter, not ring occupancy — exact and infallible, so
    /// it works as a guard before fallible stat reads).
    Count,
}

impl TimingStat {
    /// Stable lowercase name, for error messages.
    fn name(self) -> &'static str {
        match self {
            TimingStat::Last => "last",
            TimingStat::Mean => "mean",
            TimingStat::StdDev => "stddev",
            TimingStat::Count => "count",
        }
    }
}

/// The sample ring for one `(req, resp)` type pair on one connection.
#[derive(Debug, Clone)]
pub struct PairSamples {
    /// Most recent samples, oldest at the front. Length ≤ the plan's
    /// ring capacity for the pair.
    ring: VecDeque<u64>,
    /// Monotonic count of samples ever pushed (backs `timing_count`).
    total: u64,
}

impl PairSamples {
    fn new() -> Self {
        PairSamples {
            ring: VecDeque::new(),
            total: 0,
        }
    }

    /// The most recent `window` samples (fewer if the ring holds fewer).
    fn recent(&self, window: u32) -> impl Iterator<Item = u64> + '_ {
        let n = (window as usize).min(self.ring.len());
        self.ring.iter().rev().take(n).copied()
    }

    /// Samples ever observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether the ring holds no samples.
    pub(crate) fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// Per-connection timing state: last-arrival stamps for every request
/// type the plan names, plus one sample ring per planned pair.
#[derive(Debug, Clone)]
pub struct ConnTiming {
    /// `(request type, last arrival stamp)` — present once the type has
    /// arrived at least once. Not cleared when a response is observed:
    /// `latency(A, B)` is the time since the *most recent* `A`.
    last_arrival: Vec<(OfType, u64)>,
    /// `((req, resp), samples)`, in the plan's (sorted) pair order.
    pairs: Vec<((OfType, OfType), PairSamples)>,
}

impl ConnTiming {
    fn from_plan(plan: &TimingPlan) -> Self {
        ConnTiming {
            last_arrival: Vec::new(),
            pairs: plan
                .pairs
                .iter()
                .map(|&(pair, _)| (pair, PairSamples::new()))
                .collect(),
        }
    }

    /// The sample ring for a pair, if the plan tracks it.
    pub fn pair(&self, req: OfType, resp: OfType) -> Option<&PairSamples> {
        self.pairs
            .iter()
            .find(|(p, _)| *p == (req, resp))
            .map(|(_, s)| s)
    }

    fn last_arrival(&self, t: OfType) -> Option<u64> {
        self.last_arrival
            .iter()
            .find(|(ty, _)| *ty == t)
            .map(|(_, at)| *at)
    }
}

/// The read-only view an expression evaluation gets: the connection's
/// timing state (if any) plus how long the executor has sat in the
/// current attack state.
#[derive(Debug, Clone, Copy)]
pub struct TimingCtx<'a> {
    conn: Option<&'a ConnTiming>,
    elapsed_in_state_ns: u64,
}

impl<'a> TimingCtx<'a> {
    /// A context with no timing state at all — `timing_count` reads 0,
    /// `elapsed_in_state()` reads 0, every other stat is
    /// [`EvalError::NoSample`]. Used by the plain [`Expr::eval`]
    /// wrapper and by callers outside the executor (tests, tools).
    pub(crate) fn detached() -> Self {
        TimingCtx {
            conn: None,
            elapsed_in_state_ns: 0,
        }
    }

    /// Nanoseconds since the current attack state was entered.
    pub(crate) fn elapsed_in_state_ns(&self) -> u64 {
        self.elapsed_in_state_ns
    }

    /// Evaluates one timing statistic; the [`Expr::Timing`] eval arm.
    ///
    /// # Errors
    ///
    /// [`EvalError::NoSample`] when `stat` is `Last`/`Mean`/`StdDev` and
    /// the pair has no sample yet (`Count` never fails: it reads 0).
    pub(crate) fn read(
        &self,
        req: OfType,
        resp: OfType,
        stat: TimingStat,
        window: u32,
    ) -> Result<Value, EvalError> {
        let samples = self.conn.and_then(|c| c.pair(req, resp));
        if stat == TimingStat::Count {
            return Ok(Value::Int(samples.map_or(0, |s| s.total) as i64));
        }
        let samples = samples
            .filter(|s| !s.is_empty())
            .ok_or(EvalError::NoSample { stat: stat.name() })?;
        match stat {
            TimingStat::Last => samples
                .ring
                .back()
                .map(|&last| Value::Int(last as i64))
                .ok_or(EvalError::NoSample { stat: stat.name() }),
            TimingStat::Mean => Ok(Value::Float(Self::mean(samples, window))),
            TimingStat::StdDev => {
                let mean = Self::mean(samples, window);
                let n = (window as usize).min(samples.ring.len());
                // Population variance over the same window; exact-sum
                // the squared deviations in f64 (deterministic IEEE).
                let var = samples
                    .recent(window)
                    .map(|x| {
                        let d = x as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / n as f64;
                Ok(Value::Float(var.sqrt()))
            }
            TimingStat::Count => unreachable!("handled above"),
        }
    }

    fn mean(samples: &PairSamples, window: u32) -> f64 {
        let n = (window as usize).min(samples.ring.len());
        // Sum in u128 so the mean is exact regardless of sample count.
        let sum: u128 = samples.recent(window).map(u128::from).sum();
        sum as f64 / n as f64
    }
}

/// What an attack's timing predicates need tracked: the distinct
/// `(req, resp)` pairs (with per-pair ring capacity = the largest
/// window any predicate requests) and the set of request types whose
/// arrivals must be stamped.
#[derive(Debug, Clone, Default)]
pub struct TimingPlan {
    /// Sorted, deduplicated `((req, resp), ring capacity)`.
    pairs: Vec<((OfType, OfType), usize)>,
    /// Sorted, deduplicated request types.
    req_types: Vec<OfType>,
}

impl TimingPlan {
    /// Walks every rule condition and every expression-bearing action
    /// in the attack, collecting the timing pairs it names.
    pub(crate) fn from_attack(attack: &Attack) -> Self {
        let mut caps: BTreeMap<(OfType, OfType), usize> = BTreeMap::new();
        let mut visit = |e: &Expr| {
            if let Expr::Timing {
                req, resp, window, ..
            } = e
            {
                let cap = (*window).clamp(1, MAX_TIMING_WINDOW) as usize;
                let slot = caps.entry((*req, *resp)).or_insert(1);
                *slot = (*slot).max(cap);
            }
        };
        for state in attack.states() {
            for rule in &state.rules {
                rule.condition.for_each(&mut visit);
                for e in rule.actions.iter().filter_map(AttackAction::expr) {
                    e.for_each(&mut visit);
                }
            }
        }
        let mut req_types: Vec<OfType> = caps.keys().map(|&(req, _)| req).collect();
        req_types.sort_unstable();
        req_types.dedup();
        TimingPlan {
            pairs: caps.into_iter().collect(),
            req_types,
        }
    }

    /// Whether the plan tracks nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The executor's timing state: one [`ConnTiming`] per connection that
/// has seen a planned message type, plus the attack-state entry stamp
/// backing `elapsed_in_state()`.
#[derive(Debug, Clone)]
pub struct TimingStore {
    plan: TimingPlan,
    conns: BTreeMap<usize, ConnTiming>,
    state_entered_ns: u64,
}

impl TimingStore {
    /// A store driven by the given plan; `elapsed_in_state()` starts
    /// counting from virtual time 0.
    pub(crate) fn new(plan: TimingPlan) -> Self {
        TimingStore {
            plan,
            conns: BTreeMap::new(),
            state_entered_ns: 0,
        }
    }

    /// `true` when the plan tracks no pairs — the executor then skips
    /// [`TimingStore::observe`] entirely (timing-free attacks pay
    /// nothing and change nothing).
    pub(crate) fn is_passive(&self) -> bool {
        self.plan.is_empty()
    }

    /// Records one message arrival. Samples are computed *before* the
    /// arrival stamp for `of_type` is updated, so a pair with
    /// `req == resp` yields consecutive-arrival gaps (inter-arrival).
    pub(crate) fn observe(&mut self, conn: ConnectionId, of_type: OfType, now_ns: u64) {
        if self.plan.is_empty() {
            return;
        }
        let plan = &self.plan;
        let ct = self
            .conns
            .entry(conn.0)
            .or_insert_with(|| ConnTiming::from_plan(plan));
        for (i, &((req, resp), cap)) in plan.pairs.iter().enumerate() {
            if resp != of_type {
                continue;
            }
            if let Some(req_at) = ct.last_arrival(req) {
                let samples = &mut ct.pairs[i].1;
                samples.ring.push_back(now_ns.saturating_sub(req_at));
                while samples.ring.len() > cap {
                    samples.ring.pop_front();
                }
                samples.total += 1;
            }
        }
        if plan.req_types.binary_search(&of_type).is_ok() {
            match ct.last_arrival.iter_mut().find(|(t, _)| *t == of_type) {
                Some(slot) => slot.1 = now_ns,
                None => ct.last_arrival.push((of_type, now_ns)),
            }
        }
    }

    /// Re-stamps the `elapsed_in_state()` origin (the executor calls
    /// this on every `GOTOSTATE` that changes state).
    pub(crate) fn enter_state(&mut self, now_ns: u64) {
        self.state_entered_ns = now_ns;
    }

    /// The evaluation view for one connection at one instant.
    pub(crate) fn ctx(&self, conn: ConnectionId, now_ns: u64) -> TimingCtx<'_> {
        TimingCtx {
            conn: self.conns.get(&conn.0),
            elapsed_in_state_ns: now_ns.saturating_sub(self.state_entered_ns),
        }
    }

    /// Drops all timing state for a connection (teardown / generation
    /// epoch bump). Returns whether anything was held.
    pub(crate) fn release_connection(&mut self, conn: ConnectionId) -> bool {
        self.conns.remove(&conn.0).is_some()
    }

    /// How many connections currently hold timing state (leak tests).
    pub fn tracked_connections(&self) -> usize {
        self.conns.len()
    }

    /// The per-connection state, for inspection in tests.
    pub fn connection(&self, conn: ConnectionId) -> Option<&ConnTiming> {
        self.conns.get(&conn.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::conditional::BinOp;
    use crate::lang::state::AttackState;
    use crate::lang::Rule;
    use crate::model::CapabilitySet;

    fn plan_for(pairs: &[(OfType, OfType, u32)]) -> TimingPlan {
        let condition = pairs.iter().fold(Expr::always(), |acc, &(req, resp, w)| {
            BinOp::And.of(
                acc,
                BinOp::Gt.of(
                    Expr::Timing {
                        req,
                        resp,
                        stat: TimingStat::Mean,
                        window: w,
                    },
                    Expr::Lit(Value::Int(0)),
                ),
            )
        });
        let attack = Attack {
            name: "t".into(),
            states: vec![AttackState {
                name: "s".into(),
                rules: vec![Rule {
                    name: "phi".into(),
                    connections: vec![ConnectionId(0)],
                    required: CapabilitySet::no_tls(),
                    condition,
                    actions: vec![],
                }],
            }],
            start: 0,
        };
        TimingPlan::from_attack(&attack)
    }

    #[test]
    fn latency_samples_are_resp_minus_most_recent_req() {
        let plan = plan_for(&[(OfType::PacketIn, OfType::FlowMod, 8)]);
        let mut store = TimingStore::new(plan);
        let c = ConnectionId(3);
        store.observe(c, OfType::PacketIn, 1_000);
        store.observe(c, OfType::FlowMod, 1_300);
        store.observe(c, OfType::PacketIn, 2_000);
        store.observe(c, OfType::PacketIn, 2_500); // newer req wins
        store.observe(c, OfType::FlowMod, 2_900);
        let ctx = store.ctx(c, 3_000);
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::FlowMod, TimingStat::Last, 1)
                .unwrap(),
            Value::Int(400)
        );
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::FlowMod, TimingStat::Count, 1)
                .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::FlowMod, TimingStat::Mean, 8)
                .unwrap(),
            Value::Float(350.0)
        );
    }

    #[test]
    fn inter_arrival_is_same_type_pair() {
        let plan = plan_for(&[(OfType::PacketIn, OfType::PacketIn, 4)]);
        let mut store = TimingStore::new(plan);
        let c = ConnectionId(0);
        store.observe(c, OfType::PacketIn, 100);
        store.observe(c, OfType::PacketIn, 250);
        store.observe(c, OfType::PacketIn, 500);
        let ctx = store.ctx(c, 501);
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::PacketIn, TimingStat::Last, 1)
                .unwrap(),
            Value::Int(250)
        );
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::PacketIn, TimingStat::Count, 1)
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn ring_is_bounded_and_window_reads_most_recent() {
        let plan = plan_for(&[(OfType::EchoRequest, OfType::EchoReply, 3)]);
        let mut store = TimingStore::new(plan);
        let c = ConnectionId(1);
        for i in 0..10u64 {
            store.observe(c, OfType::EchoRequest, i * 1_000);
            store.observe(c, OfType::EchoReply, i * 1_000 + 100 + i);
        }
        let conn = store.connection(c).unwrap();
        let samples = conn.pair(OfType::EchoRequest, OfType::EchoReply).unwrap();
        assert_eq!(samples.ring.len(), 3, "ring capped at the plan window");
        assert_eq!(samples.total(), 10, "count is the monotonic total");
        let ctx = store.ctx(c, 99_999);
        // Most recent 2 of the 3 retained samples: 108, 109.
        assert_eq!(
            ctx.read(OfType::EchoRequest, OfType::EchoReply, TimingStat::Mean, 2)
                .unwrap(),
            Value::Float(108.5)
        );
    }

    #[test]
    fn stddev_of_single_sample_is_zero_and_empty_is_no_sample() {
        let plan = plan_for(&[(OfType::PacketIn, OfType::PacketOut, 8)]);
        let mut store = TimingStore::new(plan);
        let c = ConnectionId(0);
        let ctx = store.ctx(c, 0);
        assert!(matches!(
            ctx.read(OfType::PacketIn, OfType::PacketOut, TimingStat::Mean, 8),
            Err(EvalError::NoSample { stat: "mean" })
        ));
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::PacketOut, TimingStat::Count, 1)
                .unwrap(),
            Value::Int(0)
        );
        store.observe(c, OfType::PacketIn, 10);
        store.observe(c, OfType::PacketOut, 25);
        let ctx = store.ctx(c, 30);
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::PacketOut, TimingStat::StdDev, 8)
                .unwrap(),
            Value::Float(0.0)
        );
    }

    #[test]
    fn release_connection_drops_state() {
        let plan = plan_for(&[(OfType::PacketIn, OfType::FlowMod, 8)]);
        let mut store = TimingStore::new(plan);
        let c = ConnectionId(7);
        store.observe(c, OfType::PacketIn, 1);
        assert_eq!(store.tracked_connections(), 1);
        assert!(store.release_connection(c));
        assert_eq!(store.tracked_connections(), 0);
        assert!(!store.release_connection(c));
        // A reconnect starts from scratch: no stale last_arrival.
        store.observe(c, OfType::FlowMod, 50);
        let ctx = store.ctx(c, 60);
        assert_eq!(
            ctx.read(OfType::PacketIn, OfType::FlowMod, TimingStat::Count, 1)
                .unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn passive_store_observes_nothing() {
        let mut store = TimingStore::new(TimingPlan::default());
        assert!(store.is_passive());
        store.observe(ConnectionId(0), OfType::PacketIn, 1);
        assert_eq!(store.tracked_connections(), 0);
    }

    #[test]
    fn elapsed_in_state_restamps_on_enter() {
        let mut store = TimingStore::new(TimingPlan::default());
        assert_eq!(store.ctx(ConnectionId(0), 500).elapsed_in_state_ns(), 500);
        store.enter_state(400);
        assert_eq!(store.ctx(ConnectionId(0), 500).elapsed_in_state_ns(), 100);
        // Clock anomalies saturate rather than wrap.
        assert_eq!(store.ctx(ConnectionId(0), 300).elapsed_in_state_ns(), 0);
    }

    #[test]
    fn plan_merges_windows_per_pair() {
        let plan = plan_for(&[
            (OfType::PacketIn, OfType::FlowMod, 4),
            (OfType::PacketIn, OfType::FlowMod, 32),
            (OfType::PacketIn, OfType::PacketIn, 1),
        ]);
        assert_eq!(plan.pairs.len(), 2);
        let cap = plan
            .pairs
            .iter()
            .find(|(p, _)| *p == (OfType::PacketIn, OfType::FlowMod))
            .unwrap()
            .1;
        assert_eq!(cap, 32, "largest requested window wins");
    }
}
