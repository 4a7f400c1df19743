//! Recursive-descent parser for the attack description language. It
//! lowers as it reads: each block becomes its [`SystemModel`],
//! [`AttackModel`] or attack directly, every name resolved against the
//! system model on the spot.
//!
//! Top-level blocks may come in any order. A first pass finds them by
//! their braces; then `system` lowers first, `capabilities` second, and
//! each `attack` in source order. A syntax error ends the parse at once. A resolution error (an
//! unknown name, a malformed literal, a capability the attack model
//! does not grant) is kept, the parse goes on with a stand-in value, and
//! the first error kept is reported once the whole source has parsed.
//! So every syntax error comes before any resolution error.

use crate::dsl::compile::{self, CompiledAttack};
use crate::dsl::lexer::{lex, DslError, Tok, Token};
use crate::lang::{
    Attack, AttackAction, AttackState, BinOp, DequeEnd, Expr, Property, Rule, TimingStat, Value,
    MAX_TIMING_WINDOW,
};
use crate::model::{
    AttackModel, Capability, CapabilitySet, ConnectionId, DataEdge, NodeRef, SystemModel,
};
use attain_openflow::{Frame, MacAddr, OfType};
use std::collections::HashMap;

/// The stand-in for an expression that did not resolve.
const UNRESOLVED: Expr = Expr::Lit(Value::None);

/// How deeply `(`, `!` and unary `-` may nest in one expression. Each
/// level is a few frames of the recursive descent, so an unbounded depth
/// would overflow the stack instead of failing.
const MAX_NESTING: usize = 256;

/// A `link` or `connection` statement, applied to the system model once
/// every component is declared; the map holds each node's last port.
type Topology =
    Box<dyn FnOnce(&mut SystemModel, &mut HashMap<String, u16>) -> Result<(), DslError>>;

/// A `goto` to a state not declared yet: where its action sits (state,
/// rule, action), its target and line, and whether no resolution error
/// had been kept when it was read.
struct Forward {
    at: (usize, usize, usize),
    target: String,
    line: u32,
    first: bool,
}

/// A timing call's argument, as the call reads it.
enum TimingArg {
    /// A bare name (in any parentheses), with its line.
    Name(String, u32),
    /// An integer literal.
    Int(i64),
    /// Any other expression.
    Other,
}

/// A lexed source, its top-level blocks, and the lowering state.
pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The keyword token of each top-level block.
    system: Option<usize>,
    capabilities: Option<usize>,
    attacks: Vec<usize>,
    /// The top-level token that starts no block, or repeats one.
    stray: Option<DslError>,
    /// The first resolution error.
    error: Option<DslError>,
    /// How many `(`, `!` and unary `-` enclose the expression being read.
    nesting: usize,
}

fn at_line<E: ToString>(line: u32) -> impl FnOnce(E) -> DslError {
    move |e| DslError::new(line, e.to_string())
}

impl Parser {
    /// Lexes `source` and finds its top-level blocks, which may come in
    /// any order.
    ///
    /// # Errors
    ///
    /// Fails on a lexical error.
    pub(crate) fn new(source: &str) -> Result<Parser, DslError> {
        let mut p = Parser {
            tokens: lex(source)?,
            pos: 0,
            system: None,
            capabilities: None,
            attacks: Vec::new(),
            stray: None,
            error: None,
            nesting: 0,
        };
        p.scan();
        Ok(p)
    }

    /// Records each top-level block's keyword, skipping its body by
    /// braces, up to the end of input or the first token that starts no
    /// block. A body whose braces do not balance runs to the end: its
    /// lowering reports what is wrong with it.
    fn scan(&mut self) {
        let mut at = 0;
        while self.tokens[at].tok != Tok::Eof {
            let Token { tok, line } = &self.tokens[at];
            let stray = match tok {
                Tok::Ident(kw) if kw == "attack" => {
                    self.attacks.push(at);
                    None
                }
                Tok::Ident(kw) if kw == "system" || kw == "capabilities" => {
                    let slot = match kw.as_str() {
                        "system" => &mut self.system,
                        _ => &mut self.capabilities,
                    };
                    if slot.is_some() {
                        Some(format!("duplicate {kw} block"))
                    } else {
                        *slot = Some(at);
                        None
                    }
                }
                other => Some(format!(
                    "expected `system`, `capabilities`, or `attack`, found {other}"
                )),
            };
            if let Some(message) = stray {
                self.stray = Some(DslError::new(*line, message));
                return;
            }
            let mut depth = 0usize;
            loop {
                at += 1;
                match self.tokens[at].tok {
                    Tok::Eof => return,
                    Tok::LBrace => depth += 1,
                    Tok::RBrace if depth == 1 => break,
                    Tok::RBrace => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            at += 1;
        }
    }

    /// The line of the first `system` or `capabilities` keyword.
    pub(crate) fn model_line(&self) -> Option<u32> {
        [self.system, self.capabilities]
            .into_iter()
            .flatten()
            .map(|at| self.tokens[at].line)
            .min()
    }

    /// Whether the source has a `system` block.
    pub(crate) fn has_system(&self) -> bool {
        self.system.is_some()
    }

    /// Keeps `err` if it is the first resolution error.
    pub(crate) fn defer(&mut self, err: DslError) {
        self.error.get_or_insert(err);
    }

    /// Keeps `err` as `defer` does, but in place of any error kept when
    /// `first`: none had been kept yet when the construct `err` is about
    /// was read, so it comes first in resolution order.
    fn defer_ahead(&mut self, err: DslError, first: bool) {
        if first {
            self.error = Some(err);
        } else {
            self.defer(err);
        }
    }

    /// The value of `result`, keeping its error if it is the first.
    fn resolved<T>(&mut self, result: Result<T, DslError>) -> Option<T> {
        result.map_err(|e| self.defer(e)).ok()
    }

    /// `value`, or the first error: a stray top-level token, then the
    /// first resolution error.
    pub(crate) fn finish<T>(self, value: T) -> Result<T, DslError> {
        match self.stray.or(self.error) {
            Some(err) => Err(err),
            None => Ok(value),
        }
    }

    /// Lowers the `system` block (an empty model without one), then the
    /// `capabilities` block (uniform `Γ_NoTLS` without one).
    ///
    /// # Errors
    ///
    /// Fails on a syntax error in either block.
    pub(crate) fn models(&mut self) -> Result<(SystemModel, AttackModel), DslError> {
        let system = match self.system {
            Some(at) => self.system_block(at)?,
            None => SystemModel::new(),
        };
        let model = match self.capabilities {
            Some(at) => self.capabilities_block(at, &system)?,
            None => AttackModel::uniform(&system, CapabilitySet::no_tls()),
        };
        Ok((system, model))
    }

    /// Lowers every `attack` block against `system` and `model`, in
    /// source order.
    ///
    /// # Errors
    ///
    /// Fails on the first syntax error.
    pub(crate) fn attacks(
        &mut self,
        system: &SystemModel,
        model: &AttackModel,
    ) -> Result<Vec<CompiledAttack>, DslError> {
        let mut attacks = Vec::new();
        for at in std::mem::take(&mut self.attacks) {
            attacks.extend(self.attack(at, system, model)?);
        }
        Ok(attacks)
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> DslError {
        DslError::new(self.line(), msg)
    }

    fn expect(&mut self, want: Tok) -> Result<(), DslError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, DslError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(DslError::new(
                self.tokens[self.pos.saturating_sub(1)].line,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), DslError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected `{kw}`, found {other}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn string(&mut self) -> Result<String, DslError> {
        match self.bump() {
            Tok::Str(s) => Ok(s),
            other => Err(DslError::new(
                self.tokens[self.pos.saturating_sub(1)].line,
                format!("expected string literal, found {other}"),
            )),
        }
    }

    /// `( c , s )`.
    fn conn_pair(&mut self) -> Result<(String, String), DslError> {
        self.expect(Tok::LParen)?;
        let c = self.ident()?;
        self.expect(Tok::Comma)?;
        let s = self.ident()?;
        self.expect(Tok::RParen)?;
        Ok((c, s))
    }

    // ---- system -------------------------------------------------------

    fn system_block(&mut self, at: usize) -> Result<SystemModel, DslError> {
        let block_line = self.tokens[at].line;
        self.pos = at + 1;
        self.expect(Tok::LBrace)?;
        let mut system = SystemModel::new();
        // Links and connections apply once every component is declared,
        // so they may name a node declared after them.
        let mut topology: Vec<Topology> = Vec::new();
        while *self.peek() != Tok::RBrace {
            let line = self.line();
            let kw = self.ident()?;
            let added = match kw.as_str() {
                "controller" => {
                    let name = self.ident()?;
                    system.add_controller(&name).map(drop)
                }
                "switch" => {
                    let name = self.ident()?;
                    system.add_switch(&name).map(drop)
                }
                "host" => {
                    let name = self.ident()?;
                    let mut ip = None;
                    let mut mac = None;
                    while *self.peek() != Tok::Semi {
                        let attr = self.ident()?;
                        match attr.as_str() {
                            "ip" => match self.bump() {
                                Tok::Ip(addr) => ip = Some(addr),
                                other => {
                                    return Err(self.err(format!(
                                        "expected IPv4 literal after `ip`, found {other}"
                                    )))
                                }
                            },
                            "mac" => mac = Some(self.string()?),
                            other => {
                                return Err(self.err(format!("unknown host attribute `{other}`")))
                            }
                        }
                    }
                    let mac = mac.map(|text| {
                        text.parse::<MacAddr>().map_err(|_| {
                            DslError::new(line, format!("invalid MAC address {text:?}"))
                        })
                    });
                    match self.resolved(mac.transpose()) {
                        Some(mac) => system.add_host(&name, ip, mac).map(drop),
                        None => Ok(()),
                    }
                }
                "link" => {
                    let a = self.endpoint()?;
                    self.expect(Tok::Comma)?;
                    let b = self.endpoint()?;
                    topology.push(Box::new(move |system, next_port| {
                        link(system, next_port, a, b)
                    }));
                    Ok(())
                }
                "connection" => {
                    let controller = self.ident()?;
                    self.expect(Tok::Arrow)?;
                    let switch = self.ident()?;
                    topology.push(Box::new(move |system, _| {
                        let c = match system.resolve(&controller) {
                            Some(NodeRef::Controller(c)) => c,
                            _ => {
                                return Err(DslError::new(
                                    line,
                                    format!("{controller} is not a controller"),
                                ))
                            }
                        };
                        let s = match system.resolve(&switch) {
                            Some(NodeRef::Switch(s)) => s,
                            _ => {
                                return Err(DslError::new(
                                    line,
                                    format!("{switch} is not a switch"),
                                ))
                            }
                        };
                        system.add_connection(c, s).map(drop).map_err(at_line(line))
                    }));
                    Ok(())
                }
                other => return Err(self.err(format!("unknown system statement `{other}`"))),
            };
            self.expect(Tok::Semi)?;
            self.resolved(added.map_err(at_line(line)));
        }
        self.expect(Tok::RBrace)?;
        let mut next_port = HashMap::new();
        for step in topology {
            self.resolved(step(&mut system, &mut next_port));
        }
        self.resolved(system.validate().map_err(at_line(block_line)));
        Ok(system)
    }

    /// A `link` endpoint: a node name, an optional `:port`, and the line.
    fn endpoint(&mut self) -> Result<(String, Option<u16>, u32), DslError> {
        let line = self.line();
        let node = self.ident()?;
        let port = if *self.peek() == Tok::Colon {
            self.bump();
            match self.bump() {
                Tok::Int(i) if (0..=0xffff).contains(&i) => Some(i as u16),
                other => {
                    return Err(DslError::new(
                        line,
                        format!("expected port number, found {other}"),
                    ))
                }
            }
        } else {
            None
        };
        Ok((node, port, line))
    }

    // ---- capabilities --------------------------------------------------

    /// A capability class and the set it names; an unknown capability
    /// name is a resolution error at `line`.
    fn cap_class(&mut self, line: u32) -> Result<Result<CapabilitySet, DslError>, DslError> {
        let class = match self.peek() {
            Tok::Ident(kw) if kw == "tls" => CapabilitySet::tls(),
            Tok::Ident(kw) if kw == "no_tls" => CapabilitySet::no_tls(),
            Tok::Ident(kw) if kw == "none" => CapabilitySet::EMPTY,
            Tok::LBrace => {
                self.bump();
                let mut set = Ok(CapabilitySet::new());
                loop {
                    let name = self.ident()?;
                    if let Ok(caps) = &mut set {
                        match Capability::parse(&name) {
                            Some(cap) => caps.insert(cap),
                            None => {
                                set =
                                    Err(DslError::new(line, format!("unknown capability `{name}`")))
                            }
                        }
                    }
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                return Ok(set);
            }
            other => {
                return Err(self.err(format!(
                    "expected `tls`, `no_tls`, `none`, or `{{caps}}`, found {other}"
                )))
            }
        };
        self.bump();
        Ok(Ok(class))
    }

    fn capabilities_block(
        &mut self,
        at: usize,
        system: &SystemModel,
    ) -> Result<AttackModel, DslError> {
        self.pos = at + 1;
        self.expect(Tok::LBrace)?;
        let mut default = Ok(CapabilitySet::no_tls());
        let mut overrides = Vec::new();
        while *self.peek() != Tok::RBrace {
            let line = self.line();
            if self.at_keyword("default") {
                self.bump();
                default = self.cap_class(line)?;
            } else {
                let conn = connection(system, self.conn_pair()?, line);
                self.expect(Tok::Colon)?;
                overrides.push((conn, self.cap_class(line)?));
            }
            self.expect(Tok::Semi)?;
        }
        self.expect(Tok::RBrace)?;
        let default = self.resolved(default).unwrap_or(CapabilitySet::EMPTY);
        let mut model = AttackModel::uniform(system, default);
        for (conn, class) in overrides {
            if let (Some(conn), Some(class)) = (self.resolved(conn), self.resolved(class)) {
                model.set(conn, class);
            }
        }
        Ok(model)
    }

    // ---- attacks -------------------------------------------------------

    /// Lowers the attack block at `at`; `None` once a resolution error
    /// is kept.
    fn attack(
        &mut self,
        at: usize,
        system: &SystemModel,
        model: &AttackModel,
    ) -> Result<Option<CompiledAttack>, DslError> {
        self.pos = at + 1;
        let clean = self.error.is_none();
        let line = self.line();
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut states: Vec<AttackState> = Vec::new();
        let mut starts = Vec::new();
        let mut forward = Vec::new();
        while *self.peek() != Tok::RBrace {
            let start = self.at_keyword("start");
            if start {
                self.bump();
            }
            starts.push(start);
            self.keyword("state")?;
            let name = self.ident()?;
            self.expect(Tok::LBrace)?;
            states.push(AttackState {
                name,
                rules: Vec::new(),
            });
            while *self.peek() != Tok::RBrace {
                let rule = self.rule(system, &states, &mut forward)?;
                states[starts.len() - 1].rules.push(rule);
            }
            self.expect(Tok::RBrace)?;
        }
        self.expect(Tok::RBrace)?;
        // Every state is declared now. The first `goto` naming none is
        // reported where it stood among the errors kept.
        for goto in forward {
            let Some(to) = states.iter().position(|s| s.name == goto.target) else {
                let err = DslError::new(goto.line, format!("unknown state `{}`", goto.target));
                self.defer_ahead(err, goto.first);
                break;
            };
            let (state, rule, action) = goto.at;
            states[state].rules[rule].actions[action] = AttackAction::GoToState(to);
        }
        // The start state is checked ahead of everything in its body.
        let start = match compile::start_state(&name, &starts, line) {
            Ok(start) => start,
            Err(err) => {
                self.defer_ahead(err, clean);
                return Ok(None);
            }
        };
        if self.error.is_some() {
            return Ok(None);
        }
        let attack = Attack {
            name,
            states,
            start,
        };
        Ok(self.resolved(compile::finish_attack(attack, system, model, line)))
    }

    /// `rule NAME on … [requires …] { when …; do { … } }`, resolved in the
    /// order: watched connections, condition, actions, declared `γ`.
    fn rule(
        &mut self,
        system: &SystemModel,
        states: &[AttackState],
        forward: &mut Vec<Forward>,
    ) -> Result<Rule, DslError> {
        let line = self.line();
        self.keyword("rule")?;
        let name = self.ident()?;
        self.keyword("on")?;
        let mut connections: Vec<ConnectionId> = Vec::new();
        if self.at_keyword("all") {
            self.bump();
            connections.extend(system.connections().map(|(id, _, _)| id));
        } else {
            loop {
                let conn = connection(system, self.conn_pair()?, line);
                connections.extend(self.resolved(conn));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if connections.is_empty() {
            self.defer(DslError::new(
                line,
                format!("rule {name} watches no connections"),
            ));
        }
        let requires = if self.at_keyword("requires") {
            self.bump();
            Some(self.cap_class(line)?)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        self.keyword("when")?;
        let condition = self.expr(system)?;
        if *self.peek() == Tok::Semi {
            self.bump();
        }
        self.keyword("do")?;
        self.expect(Tok::LBrace)?;
        let mut rule = Rule {
            name,
            connections,
            required: CapabilitySet::EMPTY,
            condition,
            actions: Vec::new(),
        };
        while *self.peek() != Tok::RBrace {
            let state = states.len() - 1;
            let at = (state, states[state].rules.len(), rule.actions.len());
            let action = self.action(system, states, at, forward)?;
            rule.actions.push(action);
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        rule.required = match requires {
            Some(class) => self.resolved(class).unwrap_or(CapabilitySet::EMPTY),
            None => rule.exercised_capabilities(),
        };
        Ok(rule)
    }

    /// One action, which sits at `at` (state, rule, action) of the
    /// attack whose states so far are `states`.
    fn action(
        &mut self,
        system: &SystemModel,
        states: &[AttackState],
        at: (usize, usize, usize),
        forward: &mut Vec<Forward>,
    ) -> Result<AttackAction, DslError> {
        let line = self.line();
        let kw = self.ident()?;
        let action = match kw.as_str() {
            "drop" => self.msg_arg0(AttackAction::Drop)?,
            "pass" => self.msg_arg0(AttackAction::Pass)?,
            "duplicate" => self.msg_arg0(AttackAction::Duplicate)?,
            "read" => self.msg_arg0(AttackAction::Read)?,
            "read_metadata" => self.msg_arg0(AttackAction::ReadMetadata)?,
            "delay" => {
                self.expect(Tok::LParen)?;
                self.keyword("msg")?;
                self.expect(Tok::Comma)?;
                let e = self.expr(system)?;
                self.expect(Tok::RParen)?;
                AttackAction::Delay(e)
            }
            "modify" | "modify_metadata" => {
                self.expect(Tok::LParen)?;
                self.keyword("msg")?;
                self.expect(Tok::Comma)?;
                let field = self.string()?;
                self.expect(Tok::Comma)?;
                let value = self.expr(system)?;
                self.expect(Tok::RParen)?;
                if kw == "modify" {
                    AttackAction::Modify { field, value }
                } else {
                    AttackAction::ModifyMetadata { field, value }
                }
            }
            "fuzz" => {
                self.expect(Tok::LParen)?;
                self.keyword("msg")?;
                let flips = if *self.peek() == Tok::Comma {
                    self.bump();
                    match self.bump() {
                        Tok::Int(i) if i > 0 && u32::try_from(i).is_ok() => i as u32,
                        other => {
                            return Err(DslError::new(
                                line,
                                format!("expected positive bit-flip count, found {other}"),
                            ))
                        }
                    }
                } else {
                    8
                };
                self.expect(Tok::RParen)?;
                AttackAction::Fuzz { flips }
            }
            "inject" => {
                self.expect(Tok::LParen)?;
                let conn = connection(system, self.conn_pair()?, line);
                self.expect(Tok::Comma)?;
                let dir = self.ident()?;
                let to_controller = match dir.as_str() {
                    "to_controller" => true,
                    "to_switch" => false,
                    other => {
                        return Err(DslError::new(
                            line,
                            format!("expected `to_switch` or `to_controller`, found `{other}`"),
                        ))
                    }
                };
                self.expect(Tok::Comma)?;
                self.keyword("hex")?;
                self.expect(Tok::LParen)?;
                let hex = self.string()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::RParen)?;
                let conn = self.resolved(conn).unwrap_or(ConnectionId(0));
                let bytes = self.resolved(decode_hex(&hex, line)).unwrap_or_default();
                AttackAction::Inject {
                    conn,
                    to_controller,
                    frame: Frame::new(bytes),
                }
            }
            "append" | "prepend" => {
                self.expect(Tok::LParen)?;
                let deque = self.ident()?;
                self.expect(Tok::Comma)?;
                let front = kw == "prepend";
                let action = if self.at_keyword("msg") && *self.peek2() == Tok::RParen {
                    self.bump();
                    AttackAction::StoreMessage { deque, front }
                } else {
                    let value = self.expr(system)?;
                    if front {
                        AttackAction::Prepend { deque, value }
                    } else {
                        AttackAction::Append { deque, value }
                    }
                };
                self.expect(Tok::RParen)?;
                action
            }
            "shift" => AttackAction::Shift(self.deque_arg()?),
            "pop" => AttackAction::Pop(self.deque_arg()?),
            "emit_front" | "emit_back" => AttackAction::EmitStored {
                deque: self.deque_arg()?,
                end: if kw == "emit_front" {
                    DequeEnd::Front
                } else {
                    DequeEnd::End
                },
            },
            "goto" => {
                let target = self.ident()?;
                self.expect(Tok::Semi)?;
                let to = states.iter().position(|s| s.name == target);
                if to.is_none() {
                    let first = self.error.is_none();
                    forward.push(Forward {
                        at,
                        target,
                        line,
                        first,
                    });
                }
                return Ok(AttackAction::GoToState(to.unwrap_or(0)));
            }
            "sleep" => {
                self.expect(Tok::LParen)?;
                let e = self.expr(system)?;
                self.expect(Tok::RParen)?;
                AttackAction::Sleep(e)
            }
            "syscmd" => {
                self.expect(Tok::LParen)?;
                let host = self.ident()?;
                self.expect(Tok::Comma)?;
                let cmd = self.string()?;
                self.expect(Tok::RParen)?;
                if system.resolve(&host).is_none() {
                    self.defer(DslError::new(line, format!("unknown host `{host}`")));
                }
                AttackAction::SysCmd { host, cmd }
            }
            "fault" => {
                self.expect(Tok::LParen)?;
                let spec = self.string()?;
                self.expect(Tok::RParen)?;
                self.resolved(check_fault(&spec, system, line));
                AttackAction::Fault { spec }
            }
            other => return Err(DslError::new(line, format!("unknown action `{other}`"))),
        };
        self.expect(Tok::Semi)?;
        Ok(action)
    }

    /// `(msg)`, the argument of an action on the message itself.
    fn msg_arg0(&mut self, action: AttackAction) -> Result<AttackAction, DslError> {
        self.expect(Tok::LParen)?;
        self.keyword("msg")?;
        self.expect(Tok::RParen)?;
        Ok(action)
    }

    fn deque_arg(&mut self) -> Result<String, DslError> {
        self.expect(Tok::LParen)?;
        let d = self.ident()?;
        self.expect(Tok::RParen)?;
        Ok(d)
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self, system: &SystemModel) -> Result<Expr, DslError> {
        self.bin_expr(system, 0)
    }

    /// Precedence climbing: an expression whose operators all bind at
    /// least `min` tightly ([`BinOp::binding_power`]). `||`, `&&`, `+`
    /// and `-` associate to the left. A comparison, `in` included, does
    /// not chain: after one, an operator binding as tightly ends the
    /// whole expression, so `a == b == c` stops at the second `==`. The
    /// items of an `in` list are additive expressions.
    fn bin_expr(&mut self, system: &SystemModel, min: u8) -> Result<Expr, DslError> {
        let compare = BinOp::Eq.binding_power();
        let mut lhs = self.unary_expr(system)?;
        let mut max = u8::MAX;
        loop {
            let op = match self.peek() {
                Tok::Op(op) => Some(*op),
                Tok::Ident(kw) if kw == "in" => None,
                _ => break,
            };
            let bp = op.map_or(compare, BinOp::binding_power);
            if bp < min || bp > max {
                break;
            }
            self.bump();
            lhs = match op {
                Some(op) => op.of(lhs, self.bin_expr(system, bp + 1)?),
                None => {
                    self.expect(Tok::LBracket)?;
                    let mut items = vec![self.bin_expr(system, compare + 1)?];
                    while *self.peek() == Tok::Comma {
                        self.bump();
                        items.push(self.bin_expr(system, compare + 1)?);
                    }
                    self.expect(Tok::RBracket)?;
                    Expr::In(Box::new(lhs), items)
                }
            };
            max = if bp == compare { bp - 1 } else { bp };
        }
        Ok(lhs)
    }

    /// Reads what `read` reads one nesting level deeper, or fails at
    /// `line` if that is past [`MAX_NESTING`].
    fn nested(
        &mut self,
        line: u32,
        read: impl FnOnce(&mut Parser) -> Result<Expr, DslError>,
    ) -> Result<Expr, DslError> {
        if self.nesting == MAX_NESTING {
            return Err(DslError::new(line, "expression nested too deeply"));
        }
        self.nesting += 1;
        let expr = read(self);
        self.nesting -= 1;
        expr
    }

    fn unary_expr(&mut self, system: &SystemModel) -> Result<Expr, DslError> {
        let line = self.line();
        if *self.peek() == Tok::Bang {
            self.bump();
            let operand = self.nested(line, |p| p.unary_expr(system))?;
            return Ok(Expr::Not(Box::new(operand)));
        }
        if *self.peek() == Tok::Op(BinOp::Sub) {
            self.bump();
            return match self.nested(line, |p| p.unary_expr(system))? {
                Expr::Lit(Value::Int(i)) => Ok(Expr::Lit(Value::Int(-i))),
                Expr::Lit(Value::Float(x)) => Ok(Expr::Lit(Value::Float(-x))),
                _ => Err(DslError::new(
                    line,
                    "unary `-` applies to numeric literals only",
                )),
            };
        }
        self.primary_expr(system)
    }

    fn primary_expr(&mut self, system: &SystemModel) -> Result<Expr, DslError> {
        let line = self.line();
        let value = match self.bump() {
            Tok::Int(i) => Value::Int(i),
            Tok::Float(x) => Value::Float(x),
            Tok::Str(s) => Value::Str(s),
            Tok::Ip(ip) => Value::Ip(ip),
            Tok::LParen => {
                return self.nested(line, |p| {
                    let e = p.expr(system)?;
                    p.expect(Tok::RParen)?;
                    Ok(e)
                });
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                "none" => Value::None,
                "msg" => {
                    return match self.bump() {
                        Tok::Dot => {
                            let prop = self.ident()?;
                            let named = Property::named(&prop).ok_or_else(|| {
                                DslError::new(
                                    line,
                                    format!(
                                        "unknown message property `{prop}` \
                                         (use msg[\"path\"] for type options)"
                                    ),
                                )
                            });
                            Ok(self.resolved(named).map_or(UNRESOLVED, Expr::Prop))
                        }
                        Tok::LBracket => {
                            let path = self.string()?;
                            self.expect(Tok::RBracket)?;
                            Ok(Expr::Prop(Property::TypeOption(path)))
                        }
                        other => Err(DslError::new(
                            line,
                            format!("expected `.prop` or `[\"path\"]` after `msg`, found {other}"),
                        )),
                    }
                }
                "front" | "back" | "len" => {
                    let deque = self.deque_arg()?;
                    let end = match name.as_str() {
                        "front" => DequeEnd::Front,
                        "back" => DequeEnd::End,
                        _ => return Ok(Expr::DequeLen(deque)),
                    };
                    return Ok(Expr::DequeRead { deque, end });
                }
                "mac" => {
                    self.expect(Tok::LParen)?;
                    let text = self.string()?;
                    self.expect(Tok::RParen)?;
                    let mac = text
                        .parse()
                        .map_err(|_| DslError::new(line, format!("invalid MAC address {text:?}")));
                    return Ok(self
                        .resolved(mac)
                        .map_or(UNRESOLVED, |m| Expr::Lit(Value::Mac(m))));
                }
                "latency" | "inter_arrival" | "elapsed_in_state" | "timing_mean"
                | "timing_stddev" | "timing_count" => {
                    return self.timing_call(system, &name, line);
                }
                _ => {
                    if let Some(t) = OfType::from_spec_name(&name) {
                        Value::MsgType(t)
                    } else if let Some(node) = system.resolve(&name) {
                        Value::Addr(node)
                    } else {
                        self.defer(DslError::new(
                            line,
                            format!("`{name}` is neither a component nor an OpenFlow message type"),
                        ));
                        return Ok(UNRESOLVED);
                    }
                }
            },
            other => {
                return Err(DslError::new(
                    line,
                    format!("expected expression, found {other}"),
                ))
            }
        };
        Ok(Expr::Lit(value))
    }

    /// A timing predicate call `func(…)` at `line`.
    fn timing_call(
        &mut self,
        system: &SystemModel,
        func: &str,
        line: u32,
    ) -> Result<Expr, DslError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                args.push(self.timing_arg(system)?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(self
            .resolved(timing_expr(func, &args, line))
            .unwrap_or(UNRESOLVED))
    }

    /// One timing-call argument. It is parsed as any expression, but its
    /// own resolution errors are dropped: the call judges it only as a
    /// name or an integer literal.
    fn timing_arg(&mut self, system: &SystemModel) -> Result<TimingArg, DslError> {
        let (start, kept) = (self.pos, self.error.take());
        let expr = self.expr(system)?;
        let unresolved = std::mem::replace(&mut self.error, kept).is_some();
        // A bare name is one identifier in balanced parentheses that
        // resolved to a message type or a component, or to nothing;
        // `true`, `false` and `none` are literals, not names.
        let span = &self.tokens[start..self.pos];
        let mid = span.len() / 2;
        let bare = span.len() % 2 == 1
            && span[..mid].iter().all(|t| t.tok == Tok::LParen)
            && span[mid + 1..].iter().all(|t| t.tok == Tok::RParen);
        let named = unresolved || matches!(expr, Expr::Lit(Value::MsgType(_) | Value::Addr(_)));
        Ok(match (&span[mid].tok, expr) {
            (Tok::Ident(name), _) if bare && named => TimingArg::Name(name.clone(), span[mid].line),
            (_, Expr::Lit(Value::Int(n))) => TimingArg::Int(n),
            _ => TimingArg::Other,
        })
    }
}

/// The control connection `(c, s)` names, or an error at `line`.
fn connection(
    system: &SystemModel,
    (c, s): (String, String),
    line: u32,
) -> Result<ConnectionId, DslError> {
    system.connection_by_names(&c, &s).ok_or_else(|| {
        DslError::new(
            line,
            format!("({c}, {s}) is not a control plane connection"),
        )
    })
}

/// Adds the link between endpoints `a` and `b`, numbering a switch port
/// left out after the highest one the switch has so far (an error past
/// port 65535).
fn link(
    system: &mut SystemModel,
    next_port: &mut HashMap<String, u16>,
    (a, a_port, a_line): (String, Option<u16>, u32),
    (b, b_port, b_line): (String, Option<u16>, u32),
) -> Result<(), DslError> {
    let ra = system
        .resolve(&a)
        .ok_or_else(|| DslError::new(a_line, format!("unknown node {a}")))?;
    let rb = system
        .resolve(&b)
        .ok_or_else(|| DslError::new(b_line, format!("unknown node {b}")))?;
    let mut port_for = |name: &str, explicit: Option<u16>| {
        let slot = next_port.entry(name.to_string()).or_insert(0);
        *slot = match explicit {
            Some(p) => (*slot).max(p),
            None => slot.checked_add(1).ok_or_else(|| {
                DslError::new(a_line, format!("`{name}` has no port number left"))
            })?,
        };
        Ok::<_, DslError>(explicit.unwrap_or(*slot))
    };
    let added = match (ra, rb) {
        (NodeRef::Host(h), NodeRef::Switch(s)) => system.add_host_link(h, s, port_for(&b, b_port)?),
        (NodeRef::Switch(s), NodeRef::Host(h)) => system.add_host_link(h, s, port_for(&a, a_port)?),
        (NodeRef::Switch(sa), NodeRef::Switch(sb)) => {
            let pa = port_for(&a, a_port)?;
            let pb = port_for(&b, b_port)?;
            system.add_switch_link(sa, pa, sb, pb)
        }
        _ => {
            return Err(DslError::new(
                a_line,
                "links connect hosts to switches or switches to switches",
            ))
        }
    };
    added.map_err(at_line(a_line))
}

/// The timing predicate `func(args)` called at `line`.
fn timing_expr(func: &str, args: &[TimingArg], line: u32) -> Result<Expr, DslError> {
    let arity = |want: usize, shape: &str| -> Result<(), DslError> {
        if args.len() == want {
            Ok(())
        } else {
            Err(DslError::new(
                line,
                format!(
                    "`{func}` expects {want} argument{} {shape}, found {}",
                    if want == 1 { "" } else { "s" },
                    args.len()
                ),
            ))
        }
    };
    let message_type = |arg: &TimingArg| match arg {
        TimingArg::Name(name, line) => OfType::from_spec_name(name).ok_or_else(|| {
            DslError::new(
                *line,
                format!("`{name}` is not an OpenFlow message type (in `{func}(...)`)"),
            )
        }),
        _ => Err(DslError::new(
            line,
            format!("`{func}` takes OpenFlow message-type names (e.g. PACKET_IN) as arguments"),
        )),
    };
    let timing = |req, resp, stat, window| Expr::Timing {
        req,
        resp,
        stat,
        window,
    };
    Ok(match func {
        "elapsed_in_state" => {
            arity(0, "()")?;
            Expr::ElapsedInState
        }
        "latency" => {
            arity(2, "(request type, response type)")?;
            let req = message_type(&args[0])?;
            let resp = message_type(&args[1])?;
            if req == resp {
                return Err(DslError::new(
                    line,
                    format!(
                        "`latency` request and response types must differ \
                         (use `inter_arrival({})` for same-type gaps)",
                        req.spec_name()
                    ),
                ));
            }
            timing(req, resp, TimingStat::Last, 1)
        }
        "inter_arrival" => {
            arity(1, "(message type)")?;
            let t = message_type(&args[0])?;
            timing(t, t, TimingStat::Last, 1)
        }
        "timing_count" => {
            arity(2, "(request type, response type)")?;
            timing(
                message_type(&args[0])?,
                message_type(&args[1])?,
                TimingStat::Count,
                1,
            )
        }
        _ => {
            arity(3, "(request type, response type, window)")?;
            let stat = if func == "timing_mean" {
                TimingStat::Mean
            } else {
                TimingStat::StdDev
            };
            let (req, resp) = (message_type(&args[0])?, message_type(&args[1])?);
            let window = match args[2] {
                TimingArg::Int(n) if (1..=i64::from(MAX_TIMING_WINDOW)).contains(&n) => n as u32,
                TimingArg::Int(n) => {
                    return Err(DslError::new(
                        line,
                        format!("`{func}` window must be in 1..={MAX_TIMING_WINDOW}, got {n}"),
                    ))
                }
                _ => {
                    return Err(DslError::new(
                        line,
                        format!("`{func}` window must be an integer literal"),
                    ))
                }
            };
            timing(req, resp, stat, window)
        }
    })
}

fn decode_hex(text: &str, line: u32) -> Result<Vec<u8>, DslError> {
    let digits = text
        .chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| {
            c.to_digit(16)
                .ok_or_else(|| DslError::new(line, "invalid hex digit"))
        })
        .collect::<Result<Vec<u32>, _>>()?;
    if !digits.len().is_multiple_of(2) {
        return Err(DslError::new(line, "hex literal has odd length"));
    }
    Ok(digits.chunks(2).map(|d| (d[0] * 16 + d[1]) as u8).collect())
}

/// Checks a `fault` spec against the system model. The full grammar
/// lives with the simulator, but target kinds, component names and the
/// data-plane links are known here, and a typo should fail at compile
/// time, not silently no-op at run time.
fn check_fault(spec: &str, system: &SystemModel, line: u32) -> Result<(), DslError> {
    let err = |msg: String| Err(DslError::new(line, msg));
    match spec.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["link", ab, _, ..] => {
            let Some((a, b)) = ab.split_once('-') else {
                return err(format!("fault link target `{ab}` is not `A-B`"));
            };
            let end = |n: &str| {
                system.resolve(n).ok_or_else(|| {
                    DslError::new(line, format!("unknown component `{n}` in fault `{spec}`"))
                })
            };
            let (x, y) = (end(a)?, end(b)?);
            let joins = |e: &DataEdge| (e.a, e.b) == (x, y) || (e.a, e.b) == (y, x);
            if !system.data_plane().iter().any(joins) {
                return err(format!("no data-plane link `{ab}` in fault `{spec}`"));
            }
            Ok(())
        }
        [kind @ ("controller" | "switch"), name, _, ..] => {
            let named = match system.resolve(name) {
                Some(NodeRef::Controller(_)) => *kind == "controller",
                Some(NodeRef::Switch(_)) => *kind == "switch",
                Some(NodeRef::Host(_)) | None => false,
            };
            if named {
                Ok(())
            } else {
                err(format!("unknown {kind} `{name}` in fault `{spec}`"))
            }
        }
        _ => err(format!(
            "fault spec `{spec}` must be `link A-B …`, `controller N …`, \
             or `switch N …`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use crate::dsl::{compile_all, compile_document, DslError};
    use crate::lang::{Attack, AttackAction, BinOp, DequeEnd, Expr, Property, Value};
    use crate::model::{Capability, CapabilitySet, NodeRef};
    use crate::scenario;
    use attain_openflow::OfType;

    /// Compiles an attack-only `source` against the enterprise scenario,
    /// giving its first attack.
    fn parse(source: &str) -> Result<Attack, DslError> {
        let sc = scenario::enterprise_network();
        compile_all(source, &sc.system, &sc.attack_model).map(|mut v| v.remove(0).attack)
    }

    #[test]
    fn parses_system_block() {
        let doc = compile_document(
            r#"
            system {
                controller c1;
                switch s1;
                switch s2;
                host h1 ip 10.0.0.1;
                host h2 ip 10.0.0.2 mac "00:00:00:00:00:02";
                link h1, s1:1;
                link s1:3, s2:1;
                connection c1 -> s1;
                connection c1 -> s2;
            }
            "#,
        )
        .unwrap();
        let sys = doc.system;
        assert_eq!((sys.controllers().count(), sys.switches().count()), (1, 2));
        let hosts: Vec<_> = sys.hosts().map(|(_, h)| h).collect();
        assert_eq!(hosts.len(), 2);
        assert!(hosts[0].name == "h1" && hosts[0].ip.is_some() && hosts[0].mac.is_none());
        assert!(hosts[1].mac.is_some());
        let edge = sys.data_plane()[1];
        assert_eq!(
            (
                sys.name_of(edge.a),
                edge.a_port,
                sys.name_of(edge.b),
                edge.b_port
            ),
            ("s1", Some(3), "s2", Some(1))
        );
        assert_eq!(sys.connection_count(), 2);
    }

    #[test]
    fn parses_capabilities_block() {
        let doc = compile_document(
            r#"
            system {
                controller c1;
                switch s1; switch s2; switch s3;
                host h1; host h2;
                connection c1 -> s1; connection c1 -> s2; connection c1 -> s3;
            }
            capabilities {
                default no_tls;
                (c1, s2): tls;
                (c1, s3): { drop_message, pass_message };
            }
            "#,
        )
        .unwrap();
        let caps: Vec<_> = doc
            .system
            .connections()
            .map(|(id, _, _)| doc.attack_model.get(id))
            .collect();
        let mut explicit = CapabilitySet::new();
        explicit.insert(Capability::DropMessage);
        explicit.insert(Capability::PassMessage);
        assert_eq!(
            caps,
            [CapabilitySet::no_tls(), CapabilitySet::tls(), explicit]
        );
    }

    #[test]
    fn parses_flow_mod_suppression_shape() {
        let atk = parse(
            r#"
            attack flow_mod_suppression {
                start state sigma1 {
                    rule phi1 on all requires no_tls {
                        when msg.type == FLOW_MOD && msg.source == c1;
                        do { drop(msg); }
                    }
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(atk.name, "flow_mod_suppression");
        assert_eq!(atk.start, 0);
        let rule = &atk.states[0].rules[0];
        assert_eq!(rule.connections.len(), 4, "`all` of the enterprise's");
        assert_eq!(rule.required, CapabilitySet::no_tls());
        assert_eq!(rule.actions, [AttackAction::Drop]);
        // `FLOW_MOD` names a message type and `c1` a component.
        let sc = scenario::enterprise_network();
        let c1 = NodeRef::Controller(sc.system.controllers().next().unwrap().0);
        assert_eq!(
            rule.condition,
            BinOp::And.of(
                BinOp::Eq.of(
                    Expr::Prop(Property::Type),
                    Expr::Lit(Value::MsgType(OfType::FlowMod))
                ),
                BinOp::Eq.of(Expr::Prop(Property::Source), Expr::Lit(Value::Addr(c1)))
            )
        );
    }

    #[test]
    fn parses_multi_state_with_goto_and_membership() {
        let atk = parse(
            r#"
            attack interruption {
                start state sigma1 {
                    rule phi1 on (c1, s2) {
                        when msg.type == HELLO
                        do { pass(msg); goto sigma2; }
                    }
                }
                state sigma2 {
                    rule phi2 on (c1, s2) {
                        when msg["match.nw_src"] == 10.0.0.2
                             && msg["match.nw_dst"] in [10.0.0.3, 10.0.0.4]
                        do { drop(msg); goto sigma3; }
                    }
                }
                state sigma3 {
                    rule phi3 on (c1, s2) {
                        when true
                        do { drop(msg); }
                    }
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(atk.states.len(), 3);
        let Expr::Bin(_, rest) = &atk.states[1].rules[0].condition else {
            panic!("expected && in {:?}", atk.states[1].rules[0].condition);
        };
        let [(BinOp::And, membership)] = rest.as_slice() else {
            panic!("expected one && in {rest:?}");
        };
        assert!(matches!(membership, Expr::In(_, items) if items.len() == 2));
        // Gotos to later states resolve to their indices.
        assert_eq!(
            atk.states[0].rules[0].actions[1],
            AttackAction::GoToState(1)
        );
        assert_eq!(
            atk.states[1].rules[0].actions[1],
            AttackAction::GoToState(2)
        );
    }

    #[test]
    fn parses_deque_counter_idiom() {
        let atk = parse(
            r#"
            attack counter {
                start state s1 {
                    rule count on all {
                        when front(counter) + 1 <= 10
                        do {
                            prepend(counter, front(counter) + 1);
                            pop(counter);
                            pass(msg);
                        }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let rule = &atk.states[0].rules[0];
        assert_eq!(rule.actions.len(), 3);
        assert!(matches!(
            &rule.actions[0],
            AttackAction::Prepend { deque, value: Expr::Bin(_, rest) }
                if deque == "counter" && matches!(rest.as_slice(), [(BinOp::Add, _)])
        ));
    }

    #[test]
    fn parses_store_and_emit() {
        let atk = parse(
            r#"
            attack reorder {
                start state s1 {
                    rule hold on all {
                        when msg.type == PACKET_IN
                        do { append(stash, msg); drop(msg); }
                    }
                    rule release on all {
                        when len(stash) >= 3
                        do { emit_back(stash); emit_back(stash); emit_back(stash); }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let rules = &atk.states[0].rules;
        assert_eq!(
            rules[0].actions[0],
            AttackAction::StoreMessage {
                deque: "stash".into(),
                front: false
            }
        );
        assert_eq!(
            rules[1].actions[0],
            AttackAction::EmitStored {
                deque: "stash".into(),
                end: DequeEnd::End
            }
        );
    }

    #[test]
    fn parses_syscmd_sleep_inject() {
        let atk = parse(
            r#"
            attack misc {
                start state s1 {
                    rule r on (c1, s1) {
                        when true
                        do {
                            sleep(2.5);
                            syscmd(h1, "iperf -s");
                            inject((c1, s1), to_switch, hex("0104000800000099"));
                        }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let actions = &atk.states[0].rules[0].actions;
        assert_eq!(
            actions[0],
            AttackAction::Sleep(Expr::Lit(Value::Float(2.5)))
        );
        assert!(matches!(&actions[1], AttackAction::SysCmd { host, .. } if host == "h1"));
        assert!(matches!(
            &actions[2],
            AttackAction::Inject {
                to_controller: false,
                ..
            }
        ));
    }

    #[test]
    fn parses_fault_action() {
        let atk = parse(
            r#"
            attack env {
                start state s1 {
                    rule r on (c1, s1) {
                        when true
                        do {
                            fault("link s1-s2 down");
                            fault("controller c1 crash");
                        }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let actions = &atk.states[0].rules[0].actions;
        assert!(matches!(&actions[0], AttackAction::Fault { spec } if spec == "link s1-s2 down"));
        assert!(
            matches!(&actions[1], AttackAction::Fault { spec } if spec == "controller c1 crash")
        );
        // The spec is a string literal, not bare tokens.
        assert!(parse(
            "attack x { start state s { rule r on (c1, s1) { when true do { fault(link); } } } }"
        )
        .is_err());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse("attack x {\n  state s {\n    bogus\n  }\n}").unwrap_err();
        assert_eq!(err.line, 3);
        let err = compile_document("system { controller }").unwrap_err();
        assert!(err.message.contains("identifier"));
        // A flip count past `u32` is refused, not truncated to zero.
        let fuzz = "attack x {\n state s { rule r on all { when true do {\n fuzz(msg, 4294967296); } } } }";
        assert_eq!(
            parse(fuzz).unwrap_err().to_string(),
            "line 3: expected positive bit-flip count, found `4294967296`"
        );
    }

    #[test]
    fn rejects_duplicate_blocks() {
        assert!(compile_document("system {} system {}")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(compile_document("capabilities {} capabilities {}")
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn unary_minus_on_numeric_literals() {
        let atk = parse(
            r#"
            attack neg {
                start state s {
                    rule r on all {
                        when front(d) == -1 && msg.timestamp > -2.5
                        do { pass(msg); }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let cond = &atk.states[0].rules[0].condition;
        let rendered = format!("{cond:?}");
        assert!(rendered.contains("Int(-1)"), "{rendered}");
        assert!(rendered.contains("Float(-2.5)"), "{rendered}");
        // Unary minus on non-literals is rejected with a line number.
        let err = parse(
            "attack x { state s { rule r on all { when -msg.length > 0 do { pass(msg); } } } }",
        )
        .unwrap_err();
        assert!(err.message.contains("numeric literals"));
    }

    #[test]
    fn precedence_binds_and_over_or_and_cmp_over_and() {
        let atk = parse(
            r#"
            attack p {
                start state s {
                    rule r on all {
                        when msg.length > 8 && msg.length < 100 || true
                        do { pass(msg); }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let cond = &atk.states[0].rules[0].condition;
        // Top is ||, left is &&, whose sides are comparisons.
        let Expr::Bin(lhs, rest) = cond else {
            panic!("expected || at top, got {cond:?}");
        };
        assert!(matches!(rest.as_slice(), [(BinOp::Or, _)]));
        assert!(
            matches!(&**lhs, Expr::Bin(_, rest) if matches!(rest.as_slice(), [(BinOp::And, _)]))
        );
    }

    #[test]
    fn comparisons_do_not_chain_and_arithmetic_associates_left() {
        let condition = |when: &str| {
            let source = format!(
                "attack p {{ state s {{ rule r on all {{ when {when} do {{ pass(msg); }} }} }} }}"
            );
            parse(&source).map(|atk| atk.states[0].rules[0].condition.clone())
        };
        for chained in [
            "msg.length == 8 == 8",
            "msg.id in [1] in [true]",
            "msg.id < 2 in [true]",
        ] {
            let err = condition(chained).unwrap_err();
            assert!(err.message.starts_with("expected `do`"), "{chained}: {err}");
        }
        let len = || Expr::Prop(Property::Length);
        let int = |i| Expr::Lit(Value::Int(i));
        // (length - 1) - 2 > 0
        assert_eq!(
            condition("msg.length - 1 - 2 > 0").unwrap(),
            BinOp::Gt.of(BinOp::Sub.of(BinOp::Sub.of(len(), int(1)), int(2)), int(0))
        );
        // An `in` needle and its items are additive.
        assert_eq!(
            condition("msg.length + 1 in [2, 3 - 4]").unwrap(),
            Expr::In(
                Box::new(BinOp::Add.of(len(), int(1))),
                vec![int(2), BinOp::Sub.of(int(3), int(4))],
            )
        );
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let condition = |when: String| {
            let source = format!(
                "attack p {{ state s {{ rule r on all {{\n when {when} do {{ pass(msg); }} }} }} }}"
            );
            parse(&source).map(|atk| atk.states[0].rules[0].condition.clone())
        };
        let deep = 100_000;
        let parens = format!("{}1 == 1{}", "(".repeat(deep), ")".repeat(deep));
        for nested in [parens, format!("{}true", "!".repeat(deep))] {
            let err = condition(nested).unwrap_err();
            assert_eq!(
                (err.line, err.message.as_str()),
                (2, "expression nested too deeply")
            );
        }
        let at_bound = format!("{}1{} == -1", "(".repeat(256), ")".repeat(256));
        assert_eq!(
            condition(at_bound).unwrap(),
            BinOp::Eq.of(Expr::Lit(Value::Int(1)), Expr::Lit(Value::Int(-1)))
        );
        // A long flat chain nests nothing: it lowers to one node.
        let flat = format!("{} == 1", vec!["1"; deep].join(" + "));
        assert!(condition(flat).is_ok());
    }
}
