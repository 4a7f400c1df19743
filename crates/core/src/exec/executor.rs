//! The attack executor: the paper's Algorithm 1, with `SLEEP` holding
//! and deterministic fuzzing.

use crate::exec::dispatch::CompiledRuleset;
use crate::exec::log::{InjectionLog, LogKind};
use crate::exec::modifier;
use crate::lang::{
    Attack, AttackAction, DequeEnd, DequeStore, EvalError, Expr, MessageView, Rule, StoredMessage,
    TimingPlan, TimingStore, Value,
};
use crate::model::{AttackModel, Capability, CapabilitySet};
use crate::model::{ConnectionId, NodeRef, SystemModel};
use attain_openflow::Frame;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// A message entering the proxy, as presented to the executor.
///
/// Holds a shared [`Frame`]; the executor's pass-through path forwards
/// the same allocation it was handed.
#[derive(Debug, Clone)]
pub struct InjectorInput {
    /// The connection the message is on.
    pub conn: ConnectionId,
    /// `true` when travelling switch→controller.
    pub to_controller: bool,
    /// Encoded message.
    pub frame: Frame,
    /// Arrival time at the proxy in nanoseconds.
    pub now_ns: u64,
}

/// A message the executor wants delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutMessage {
    /// Target connection.
    pub conn: ConnectionId,
    /// `true` to deliver toward the controller.
    pub to_controller: bool,
    /// Encoded message, shared with the input frame unless a mutating
    /// action (`MODIFYMESSAGE`/`FUZZMESSAGE`) rewrote it copy-on-write.
    pub frame: Frame,
    /// Extra delay before delivery, in nanoseconds.
    pub extra_delay_ns: u64,
    /// Executor-assigned emission sequence number, strictly increasing
    /// across the executor's lifetime. Deployments that apply
    /// `extra_delay_ns` asynchronously (the TCP proxy's timer heap) use
    /// it to keep equal-deadline deliveries in executor order.
    pub seq: u64,
    /// Whether this entry derives from the triggering input message
    /// (`DROPMESSAGE` removes derived entries; injections survive).
    derived: bool,
}

impl OutMessage {
    /// The message `view` shows, forwarded as it arrived.
    fn original(view: &MessageView<'_>) -> OutMessage {
        OutMessage {
            conn: view.conn,
            to_controller: matches!(view.source, NodeRef::Switch(_)),
            frame: view.frame.clone(),
            extra_delay_ns: 0,
            seq: 0,
            derived: true,
        }
    }

    /// A message the attack adds, which `DROPMESSAGE` leaves alone.
    fn injected(conn: ConnectionId, to_controller: bool, frame: Frame) -> OutMessage {
        OutMessage {
            conn,
            to_controller,
            frame,
            extra_delay_ns: 0,
            seq: 0,
            derived: false,
        }
    }
}

/// Everything one executor step produced.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ExecOutput {
    /// Messages to deliver.
    pub deliveries: Vec<OutMessage>,
    /// `SYSCMD` commands, as `(host, command)` pairs.
    pub commands: Vec<(String, String)>,
    /// `FAULT` environment-fault specs, in issue order.
    pub faults: Vec<String>,
    /// Absolute time the executor wants a wakeup at (for `SLEEP`).
    pub wakeup_ns: Option<u64>,
}

impl ExecOutput {
    /// The deliveries derived from the step's input message.
    fn derived(&mut self) -> impl Iterator<Item = &mut OutMessage> {
        self.deliveries.iter_mut().filter(|m| m.derived)
    }
}

/// Why an executor could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// The attack's state structure is invalid.
    Attack(crate::lang::AttackError),
    /// A rule declares fewer capabilities than its condition/actions
    /// exercise.
    RuleUnderDeclared {
        /// Rule name.
        rule: String,
        /// Missing capabilities.
        missing: Vec<Capability>,
    },
    /// A rule requires capabilities the attack model does not grant on
    /// one of its connections.
    NotGranted {
        /// Rule name.
        rule: String,
        /// The connection.
        conn: ConnectionId,
        /// Missing capabilities.
        missing: Vec<Capability>,
    },
    /// A rule names a connection outside the system model's `N_C`.
    UnknownConnection {
        /// Rule name.
        rule: String,
        /// The bad connection index.
        conn: ConnectionId,
    },
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::Attack(e) => write!(f, "{e}"),
            ExecutorError::RuleUnderDeclared { rule, missing } => write!(
                f,
                "rule {rule} exercises undeclared capabilities {missing:?}"
            ),
            ExecutorError::NotGranted {
                rule,
                conn,
                missing,
            } => write!(
                f,
                "rule {rule} requires {missing:?} on {conn}, which the attack model does not grant"
            ),
            ExecutorError::UnknownConnection { rule, conn } => {
                write!(f, "rule {rule} names unknown connection {conn}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Validates an attack against a system and attack model (the compiler's
/// §VI-B1 checks, reusable without the DSL).
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_attack(
    system: &SystemModel,
    model: &AttackModel,
    attack: &Attack,
) -> Result<(), ExecutorError> {
    attack.validate().map_err(ExecutorError::Attack)?;
    for state in &attack.states {
        for rule in &state.rules {
            let exercised = rule.exercised_capabilities();
            if !rule.required.is_superset_of(&exercised) {
                return Err(ExecutorError::RuleUnderDeclared {
                    rule: rule.name.clone(),
                    missing: rule.required.missing_from(&exercised),
                });
            }
            for &conn in &rule.connections {
                if conn.0 >= system.connection_count() {
                    return Err(ExecutorError::UnknownConnection {
                        rule: rule.name.clone(),
                        conn,
                    });
                }
                let granted = model.get(conn);
                if !granted.is_superset_of(&rule.required) {
                    return Err(ExecutorError::NotGranted {
                        rule: rule.name.clone(),
                        conn,
                        missing: granted.missing_from(&rule.required),
                    });
                }
            }
        }
    }
    Ok(())
}

/// The SplitMix64 output scramble.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64-style hash of `(seed, id)` mapped to `[0, 1)`: the
/// deterministic randomness behind [`Property::Entropy`](crate::lang::Property::Entropy).
fn entropy_for(seed: u64, id: u64) -> f64 {
    let z = splitmix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The `FUZZMESSAGE` bit-flip stream: xorshift64* seeded through
/// SplitMix64. Every `fuzz_control_plane` golden digest pins this exact
/// sequence, `| 1` seeding and modulo reduction included.
#[derive(Clone)]
struct FuzzRng(u64);

impl FuzzRng {
    fn new(seed: u64) -> FuzzRng {
        // The xorshift state must be non-zero.
        FuzzRng(splitmix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) | 1)
    }

    /// A value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// How the executor finds the rules to evaluate for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Evaluate every rule of the current state in order — the paper's
    /// literal Algorithm 1 loop, kept as the reference semantics (and
    /// the differential-test oracle).
    Scan,
    /// Use the [`CompiledRuleset`] to narrow each message to its
    /// candidate rules first. Produces bit-for-bit identical output;
    /// every debug build checks that claim on every message.
    #[default]
    Compiled,
}

/// The runtime attack executor (paper Algorithm 1 and §VI-B2).
///
/// A clone is an independent executor in the same state: cloning a
/// fresh one is how an attack compiled once starts many runs. The rule
/// lists are shared between clones, never copied.
#[derive(Clone)]
pub struct AttackExecutor {
    system: SystemModel,
    /// Read only by debug builds, which check each fired action against
    /// it: `new` proved every rule fits it.
    model: AttackModel,
    /// The attack's name.
    name: String,
    /// Each state's name, its first rule's flat number and its rules: the
    /// executor's only copy of the attack.
    states: Vec<(String, usize, Arc<[Rule]>)>,
    /// The compiled per-state dispatch indexes (also the O(1)
    /// connection-scope source for the scan path).
    ruleset: CompiledRuleset,
    mode: DispatchMode,
    /// Candidate-index buffer kept across messages: dispatch allocates
    /// nothing in steady state.
    cand_scratch: Vec<u32>,
    /// Bitmask accumulator for candidate extraction, kept likewise.
    mask_scratch: Vec<u64>,
    current: usize,
    deques: DequeStore,
    /// Per-connection timing state driving the DSL's timing predicates.
    /// Passive (and free) when the attack names no timing pairs.
    timing: TimingStore,
    sleep_until_ns: Option<u64>,
    /// Messages that arrived during a `SLEEP`, with their ids.
    held: VecDeque<(u64, InjectorInput)>,
    log: InjectionLog,
    next_msg_id: u64,
    /// Next value of [`OutMessage::seq`]; stamped onto every delivery in
    /// emission order.
    next_delivery_seq: u64,
    fuzz_rng: FuzzRng,
    /// Seed for the per-message entropy property.
    entropy_seed: u64,
}

impl fmt::Debug for AttackExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttackExecutor")
            .field("attack", &self.name)
            .field("current_state", &self.current)
            .field("held", &self.held.len())
            .finish()
    }
}

impl AttackExecutor {
    /// Builds an executor, validating the attack first (line 2 of
    /// Algorithm 1 initializes `σ_current ← σ_start`).
    ///
    /// Validation is the executor's capability proof: every rule's
    /// actions need no more than the model grants on each connection
    /// the rule watches, so firing them needs no further check.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError`] if validation fails.
    pub fn new(
        system: SystemModel,
        model: AttackModel,
        attack: Attack,
    ) -> Result<AttackExecutor, ExecutorError> {
        validate_attack(&system, &model, &attack)?;
        let ruleset = CompiledRuleset::compile(&attack, system.connection_count());
        let timing = TimingStore::new(TimingPlan::from_attack(&attack));
        let Attack {
            name,
            states,
            start,
        } = attack;
        let names = states.iter().flat_map(|s| &s.rules).map(|r| r.name.clone());
        let log = InjectionLog::new(names.collect());
        let mut first = 0;
        let states = states.into_iter().map(|s| {
            let state = (s.name, first, Arc::<[Rule]>::from(s.rules));
            first += state.2.len();
            state
        });
        Ok(AttackExecutor {
            system,
            model,
            name,
            states: states.collect(),
            ruleset,
            mode: DispatchMode::default(),
            cand_scratch: Vec::new(),
            mask_scratch: Vec::new(),
            current: start,
            deques: DequeStore::new(),
            timing,
            sleep_until_ns: None,
            held: VecDeque::new(),
            log,
            next_msg_id: 1,
            next_delivery_seq: 0,
            fuzz_rng: FuzzRng::new(0x00A7_7A1D),
            entropy_seed: 0x05EE_D0FA_77A1,
        })
    }

    /// The system model the attack was validated against.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// Index of the current attack state.
    pub fn current_state(&self) -> usize {
        self.current
    }

    /// Name of the current attack state.
    pub fn current_state_name(&self) -> &str {
        &self.states[self.current].0
    }

    /// The injection log.
    pub fn log(&self) -> &InjectionLog {
        &self.log
    }

    /// The deque store (for tests and monitors).
    pub fn deques(&self) -> &DequeStore {
        &self.deques
    }

    /// The per-connection timing state (for tests and monitors).
    pub fn timing(&self) -> &TimingStore {
        &self.timing
    }

    /// Releases all per-connection executor state for `conn`: timing
    /// rings, arrival stamps, and any messages held for it by `SLEEP`.
    /// Deployments call this on connection teardown (the TCP proxy's
    /// generation-epoch bump) so a reconnect never inherits stale
    /// samples.
    pub fn release_connection(&mut self, conn: ConnectionId) {
        self.timing.release_connection(conn);
        self.held.retain(|(_, h)| h.conn != conn);
    }

    /// Switches the rule dispatch strategy (builder-style; the default
    /// is [`DispatchMode::Compiled`]).
    pub fn with_dispatch_mode(mut self, mode: DispatchMode) -> AttackExecutor {
        self.mode = mode;
        self
    }

    /// Algorithm 1, lines 4–21: processes one asynchronous incoming
    /// message and returns the outgoing message list plus side effects.
    pub fn on_message(&mut self, input: InjectorInput) -> ExecOutput {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        // SLEEP semantics: messages arriving while asleep are held and
        // replayed, in order, at wake time. Holding is a refcount bump.
        if let Some(until) = self.sleep_until_ns {
            if input.now_ns < until {
                self.log.push(input.now_ns, LogKind::Held { msg_id: id });
                self.held.push_back((id, input));
                return ExecOutput {
                    wakeup_ns: Some(until),
                    ..ExecOutput::default()
                };
            }
            self.sleep_until_ns = None;
        }
        self.process(&input, input.now_ns, id)
    }

    /// A requested wakeup fired: drains held messages (unless a new
    /// `SLEEP` interrupts the drain).
    pub fn on_wakeup(&mut self, now_ns: u64) -> ExecOutput {
        let mut total = ExecOutput::default();
        if let Some(until) = self.sleep_until_ns {
            if now_ns < until {
                total.wakeup_ns = Some(until);
                return total;
            }
            self.sleep_until_ns = None;
        }
        // Each held message gets an output of its own: `DROPMESSAGE`
        // removes only the current message's derived deliveries.
        while let Some((id, held)) = self.held.pop_front() {
            let out = self.process(&held, now_ns, id);
            total.deliveries.extend(out.deliveries);
            total.commands.extend(out.commands);
            total.faults.extend(out.faults);
            if let Some(w) = out.wakeup_ns {
                // A held message triggered another SLEEP: stop draining.
                total.wakeup_ns = Some(w);
                break;
            }
        }
        total
    }

    /// Algorithm 1's body for message `id`, arriving (or replayed) at
    /// `now_ns`.
    fn process(&mut self, input: &InjectorInput, now_ns: u64, id: u64) -> ExecOutput {
        let (conn, frame) = (input.conn, &input.frame);
        let (c, s) = self.system.connection(conn);
        let (c, s) = (NodeRef::Controller(c), NodeRef::Switch(s));
        let (source, destination) = if input.to_controller { (s, c) } else { (c, s) };
        // The message's one view. It carries the full set Γ, which the
        // dispatcher's guard extraction reads under: every rule those
        // reads act for was validated to hold what they need. Each rule
        // narrows it to its own declared set.
        let view = MessageView {
            conn,
            source,
            destination,
            timestamp_ns: now_ns,
            id,
            frame,
            granted: CapabilitySet::no_tls(),
            entropy: entropy_for(self.entropy_seed, id),
        };
        // Line 5: msg_out ← [msg_in] — a shared handle, not a copy.
        let mut out = ExecOutput {
            deliveries: vec![OutMessage::original(&view)],
            ..ExecOutput::default()
        };

        // Timing observation happens before rule evaluation, so a rule
        // firing on a response type sees the sample this very message
        // closes. Held (SLEEP) messages are observed at replay time
        // with the wake-time clock — deterministic in both deployments.
        // Undecodable frames carry no type and are not observed.
        if !self.timing.is_passive() {
            if let Some(t) = frame.of_type() {
                self.timing.observe(conn, t, now_ns);
            }
        }

        // Line 6: σ_previous ← σ_current — rules are evaluated against
        // the state as it was when the message arrived, even if an
        // earlier rule in the same pass transitions.
        let previous = self.current;
        // Lines 7–18: evaluate the rules of σ_previous. The scan takes
        // every rule watching `conn`; the compiled path narrows that to
        // the candidate rules first. Candidate order is rule order, so
        // both modes evaluate the same rules in the same sequence.
        let (_, first, rules) = &self.states[previous];
        let (first, rules) = (*first, Arc::clone(rules));
        let mut cands = std::mem::take(&mut self.cand_scratch);
        let state = self.ruleset.state(previous);
        match self.mode {
            DispatchMode::Scan => {
                cands.clear();
                cands.extend(
                    (0..rules.len())
                        .filter(|&i| state.rule_watches(i, conn))
                        .map(|i| i as u32),
                );
            }
            DispatchMode::Compiled => {
                state.candidates(conn, &view, &mut cands, &mut self.mask_scratch);
                #[cfg(debug_assertions)]
                self.audit_candidates(previous, &rules, &cands, &view);
            }
        }
        for &i in &cands {
            self.eval_rule(&rules[i as usize], first + i as usize, &view, &mut out);
        }
        self.cand_scratch = cands;

        // Stamp the surviving list in emission order: the sequence an
        // asynchronous deployment must preserve among equal deadlines.
        for m in &mut out.deliveries {
            m.seq = self.next_delivery_seq;
            self.next_delivery_seq += 1;
        }
        out
    }

    /// Evaluates `e` against a message, the deques and its connection's
    /// timing state.
    fn eval(&self, e: &Expr, view: &MessageView<'_>) -> Result<Value, EvalError> {
        e.eval_with(
            view,
            &self.deques,
            self.timing.ctx(view.conn, view.timestamp_ns),
        )
    }

    /// Evaluates a `DELAY`/`SLEEP` argument: non-negative seconds, as
    /// nanoseconds.
    fn eval_ns(&self, e: &Expr, view: &MessageView<'_>, action: &str) -> Result<u64, String> {
        let v = self.eval(e, view).map_err(|e| e.to_string())?;
        match v.as_float() {
            Some(secs) if secs >= 0.0 => Ok((secs * 1e9) as u64),
            _ => Err(format!("{action} of non-time value {v}")),
        }
    }

    /// Evaluates rule number `flat` against one message and counts and
    /// runs it on a match — the body of Algorithm 1's per-rule loop.
    fn eval_rule(
        &mut self,
        rule: &Rule,
        flat: usize,
        view: &MessageView<'_>,
        out: &mut ExecOutput,
    ) {
        let view = MessageView {
            granted: rule.required,
            ..*view
        };
        match self.eval(&rule.condition, &view) {
            Ok(v) if v.truthy() => {}
            Ok(_) => return,
            Err(e) => return self.log.error(flat, e),
        }
        self.log.fire(flat);
        // Lines 10–16: run the rule's actions.
        for action in &rule.actions {
            debug_assert!(
                self.model
                    .get(view.conn)
                    .is_superset_of(&action.required_capabilities()),
                "rule {} fires {action} on {} beyond the attack model's grant, \
                 which validation at construction rules out",
                rule.name,
                view.conn,
            );
            if let Err(error) = self.apply_action(action, flat, &view, out) {
                self.log.error(flat, error);
            }
        }
    }

    /// Debug builds only: panics unless the candidates ascend, as the
    /// scan's do, or if the reference scan would not have skipped every
    /// excluded rule silently too (condition falsy, nothing logged).
    #[cfg(debug_assertions)]
    fn audit_candidates(
        &self,
        previous: usize,
        rules: &[Rule],
        candidates: &[u32],
        view: &MessageView<'_>,
    ) {
        let (conn, id, now_ns) = (view.conn, view.id, view.timestamp_ns);
        let state = self.ruleset.state(previous);
        assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "dispatch_audit: candidates {candidates:?} (state {previous}, msg {id}) \
             are not strictly ascending",
        );
        for (i, rule) in rules.iter().enumerate() {
            let is_candidate = candidates.contains(&(i as u32));
            if !state.rule_watches(i, conn) {
                assert!(
                    !is_candidate,
                    "dispatch_audit: rule {} (state {previous}) is a candidate \
                     on {conn} outside its connection scope",
                    rule.name,
                );
                continue;
            }
            if is_candidate {
                continue;
            }
            let view = MessageView {
                granted: rule.required,
                ..*view
            };
            // Exclusion is sound only when the anchor conjunct is falsy,
            // which short-circuits the scan before any deque read — so
            // evaluating here, before this pass's actions, is exact.
            match self.eval(&rule.condition, &view) {
                Ok(v) if !v.truthy() => {}
                other => panic!(
                    "dispatch_audit: rule {} (state {previous}, msg {id} at {now_ns}ns) \
                     was excluded by the dispatcher but the scan evaluates it to {other:?}",
                    rule.name,
                ),
            }
        }
    }

    /// Runs one action of rule number `flat`, which matched. An `Err`
    /// is counted as the rule's error ([`InjectionLog::rule_errors`]).
    fn apply_action(
        &mut self,
        action: &AttackAction,
        flat: usize,
        view: &MessageView<'_>,
        out: &mut ExecOutput,
    ) -> Result<(), String> {
        let now_ns = view.timestamp_ns;
        match action {
            AttackAction::GoToState(target) => {
                if *target != self.current {
                    self.log.push(
                        now_ns,
                        LogKind::Transition {
                            from: self.current,
                            to: *target,
                        },
                    );
                    self.current = *target;
                    // `elapsed_in_state()` restarts on every transition
                    // to a different state.
                    self.timing.enter_state(now_ns);
                }
            }
            AttackAction::Drop => out.deliveries.retain(|m| !m.derived),
            AttackAction::Pass => {
                if !out.deliveries.iter().any(|m| m.derived) {
                    out.deliveries.push(OutMessage::original(view));
                }
            }
            AttackAction::Delay(e) => {
                let ns = self.eval_ns(e, view, "delay")?;
                for m in out.derived() {
                    m.extra_delay_ns += ns;
                }
            }
            AttackAction::Duplicate => {
                // Cloning an OutMessage shares its frame: DUPLICATEMESSAGE
                // is a refcount bump, not a buffer copy.
                let template = match out.deliveries.iter().rev().find(|m| m.derived) {
                    Some(m) => m.clone(),
                    None => OutMessage::original(view),
                };
                out.deliveries.push(template);
            }
            AttackAction::ReadMetadata => {
                let summary = format!(
                    "conn={} {}→{} len={} t={:.6}s",
                    view.conn.0,
                    self.system.name_of(view.source),
                    self.system.name_of(view.destination),
                    view.frame.len(),
                    view.timestamp_ns as f64 / 1e9,
                );
                self.log.push(
                    now_ns,
                    LogKind::MetadataRecord {
                        msg_id: view.id,
                        summary,
                    },
                );
            }
            AttackAction::Read => {
                let summary = match view.frame.message() {
                    Some(m) => format!("{m:?}").chars().take(200).collect(),
                    None => "<unparseable>".to_string(),
                };
                self.log.push(
                    now_ns,
                    LogKind::PayloadRecord {
                        msg_id: view.id,
                        summary,
                    },
                );
            }
            AttackAction::ModifyMetadata { field, value } => {
                if field != "destination" {
                    return Err(format!("unsupported metadata field {field}"));
                }
                let v = self.eval(value, view).map_err(|e| e.to_string())?;
                let Value::Addr(target) = v else {
                    return Err(format!("destination must be a component, got {v}"));
                };
                // Redirect derived copies onto a connection whose far end
                // is the named component.
                let (conn, to_controller) = self
                    .system
                    .connections()
                    .find_map(|(id, c, s)| match target {
                        NodeRef::Controller(tc) if tc == c => Some((id, true)),
                        NodeRef::Switch(ts) if ts == s => Some((id, false)),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        format!(
                            "no control connection reaches {}",
                            self.system.name_of(target)
                        )
                    })?;
                for m in out.derived() {
                    m.conn = conn;
                    m.to_controller = to_controller;
                }
            }
            AttackAction::Fuzz { flips } => {
                // Copy-on-write: the shared frame stays intact; the
                // mutated copy becomes a fresh frame.
                for m in out.derived() {
                    if m.frame.is_empty() {
                        continue;
                    }
                    let mut bytes = m.frame.to_vec();
                    for _ in 0..*flips {
                        let bit = self.fuzz_rng.below(bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    m.frame = Frame::new(bytes);
                }
            }
            AttackAction::Modify { field, value } => {
                let v = self.eval(value, view).map_err(|e| e.to_string())?;
                // Copy-on-write, as for FUZZMESSAGE. Each copy that cannot
                // be rewritten logs an error of its own.
                for m in out.derived() {
                    match modifier::set_field(&m.frame, field, &v) {
                        Ok(frame) => m.frame = frame,
                        Err(e) => self.log.error(flat, e),
                    }
                }
            }
            AttackAction::Inject {
                conn,
                to_controller,
                frame,
            } => {
                out.deliveries
                    .push(OutMessage::injected(*conn, *to_controller, frame.clone()));
                self.log.push(now_ns, LogKind::Injected { conn: conn.0 });
            }
            AttackAction::Prepend { deque, value } => {
                let v = self.eval(value, view).map_err(|e| e.to_string())?;
                self.deques.prepend(deque, v);
            }
            AttackAction::Append { deque, value } => {
                let v = self.eval(value, view).map_err(|e| e.to_string())?;
                self.deques.append(deque, v);
            }
            AttackAction::Shift(d) => {
                self.deques.shift(d);
            }
            AttackAction::Pop(d) => {
                self.deques.pop(d);
            }
            AttackAction::StoreMessage { deque, front } => {
                let stored = Value::Message(StoredMessage {
                    conn: view.conn.0,
                    to_controller: matches!(view.source, NodeRef::Switch(_)),
                    frame: view.frame.clone(),
                });
                if *front {
                    self.deques.prepend(deque, stored);
                } else {
                    self.deques.append(deque, stored);
                }
            }
            AttackAction::EmitStored { deque, end } => {
                let v = match end {
                    DequeEnd::Front => self.deques.shift(deque),
                    DequeEnd::End => self.deques.pop(deque),
                };
                match v {
                    Value::Message(m) => out.deliveries.push(OutMessage::injected(
                        ConnectionId(m.conn),
                        m.to_controller,
                        m.frame,
                    )),
                    Value::None => {}
                    other => {
                        return Err(format!(
                            "deque {deque} held a {} where a message was expected",
                            other.kind()
                        ))
                    }
                }
            }
            AttackAction::Sleep(e) => {
                let until = now_ns + self.eval_ns(e, view, "sleep")?;
                self.sleep_until_ns = Some(until);
                out.wakeup_ns = Some(until);
                self.log
                    .push(now_ns, LogKind::SleepStart { until_ns: until });
            }
            AttackAction::SysCmd { host, cmd } => {
                self.log.push(
                    now_ns,
                    LogKind::SysCmd {
                        host: host.clone(),
                        cmd: cmd.clone(),
                    },
                );
                out.commands.push((host.clone(), cmd.clone()));
            }
            AttackAction::Fault { spec } => {
                self.log.push(now_ns, LogKind::Fault { spec: spec.clone() });
                out.faults.push(spec.clone());
            }
        }
        Ok(())
    }
}
