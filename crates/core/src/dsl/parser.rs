//! Recursive-descent parser for the attack description language.

use crate::dsl::ast::*;
use crate::dsl::lexer::{lex, DslError, Tok, Token};
use crate::lang::BinOp;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Parses a full document (any combination of `system`, `capabilities`,
/// and `attack` blocks).
///
/// # Errors
///
/// Returns [`DslError`] with a line number on the first syntax error.
pub fn parse(source: &str) -> Result<Document, DslError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut doc = Document::default();
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Ident(kw) if kw == "system" => {
                if doc.system.is_some() {
                    return Err(p.err("duplicate system block"));
                }
                let line = p.line();
                p.bump();
                doc.system = Some(p.system_block(line)?);
            }
            Tok::Ident(kw) if kw == "capabilities" => {
                if doc.capabilities.is_some() {
                    return Err(p.err("duplicate capabilities block"));
                }
                let line = p.line();
                p.bump();
                doc.capabilities = Some(p.capabilities_block(line)?);
            }
            Tok::Ident(kw) if kw == "attack" => {
                p.bump();
                doc.attacks.push(p.attack_block()?);
            }
            other => {
                return Err(p.err(format!(
                    "expected `system`, `capabilities`, or `attack`, found {other}"
                )))
            }
        }
    }
    Ok(doc)
}

impl Parser {
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

    // ---- system -------------------------------------------------------

    fn system_block(&mut self, line: u32) -> Result<SystemBlock, DslError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            let line = self.line();
            let kw = self.ident()?;
            match kw.as_str() {
                "controller" => {
                    let name = self.ident()?;
                    self.expect(Tok::Semi)?;
                    stmts.push(SystemStmt::Controller { name, line });
                }
                "switch" => {
                    let name = self.ident()?;
                    self.expect(Tok::Semi)?;
                    stmts.push(SystemStmt::Switch { name, line });
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
                    self.expect(Tok::Semi)?;
                    stmts.push(SystemStmt::Host {
                        name,
                        ip,
                        mac,
                        line,
                    });
                }
                "link" => {
                    let a = self.endpoint()?;
                    self.expect(Tok::Comma)?;
                    let b = self.endpoint()?;
                    self.expect(Tok::Semi)?;
                    stmts.push(SystemStmt::Link { a, b });
                }
                "connection" => {
                    let controller = self.ident()?;
                    self.expect(Tok::Arrow)?;
                    let switch = self.ident()?;
                    self.expect(Tok::Semi)?;
                    stmts.push(SystemStmt::Connection {
                        controller,
                        switch,
                        line,
                    });
                }
                other => return Err(self.err(format!("unknown system statement `{other}`"))),
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(SystemBlock { line, stmts })
    }

    fn endpoint(&mut self) -> Result<Endpoint, DslError> {
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
        Ok(Endpoint { node, port, line })
    }

    // ---- capabilities --------------------------------------------------

    fn cap_class(&mut self) -> Result<CapClass, DslError> {
        match self.peek().clone() {
            Tok::Ident(kw) if kw == "tls" => {
                self.bump();
                Ok(CapClass::Tls)
            }
            Tok::Ident(kw) if kw == "no_tls" => {
                self.bump();
                Ok(CapClass::NoTls)
            }
            Tok::Ident(kw) if kw == "none" => {
                self.bump();
                Ok(CapClass::None)
            }
            Tok::LBrace => {
                self.bump();
                let mut names = Vec::new();
                loop {
                    names.push(self.ident()?);
                    if *self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(CapClass::Explicit(names))
            }
            other => Err(self.err(format!(
                "expected `tls`, `no_tls`, `none`, or `{{caps}}`, found {other}"
            ))),
        }
    }

    fn capabilities_block(&mut self, line: u32) -> Result<CapabilitiesBlock, DslError> {
        self.expect(Tok::LBrace)?;
        let mut block = CapabilitiesBlock {
            line,
            ..CapabilitiesBlock::default()
        };
        while *self.peek() != Tok::RBrace {
            let line = self.line();
            if self.at_keyword("default") {
                self.bump();
                let class = self.cap_class()?;
                self.expect(Tok::Semi)?;
                block.default = Some((class, line));
            } else {
                self.expect(Tok::LParen)?;
                let c = self.ident()?;
                self.expect(Tok::Comma)?;
                let s = self.ident()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Colon)?;
                let class = self.cap_class()?;
                self.expect(Tok::Semi)?;
                block.overrides.push((c, s, class, line));
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(block)
    }

    // ---- attacks -------------------------------------------------------

    fn attack_block(&mut self) -> Result<AttackBlock, DslError> {
        let line = self.line();
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut states = Vec::new();
        while *self.peek() != Tok::RBrace {
            let line = self.line();
            let start = if self.at_keyword("start") {
                self.bump();
                true
            } else {
                false
            };
            self.keyword("state")?;
            let name = self.ident()?;
            self.expect(Tok::LBrace)?;
            let mut rules = Vec::new();
            while *self.peek() != Tok::RBrace {
                rules.push(self.rule_decl()?);
            }
            self.expect(Tok::RBrace)?;
            states.push(StateDecl {
                name,
                start,
                rules,
                line,
            });
        }
        self.expect(Tok::RBrace)?;
        Ok(AttackBlock { name, states, line })
    }

    fn rule_decl(&mut self) -> Result<RuleDecl, DslError> {
        let line = self.line();
        self.keyword("rule")?;
        let name = self.ident()?;
        self.keyword("on")?;
        let connections = if self.at_keyword("all") {
            self.bump();
            ConnSpec::All
        } else {
            let mut list = Vec::new();
            loop {
                self.expect(Tok::LParen)?;
                let c = self.ident()?;
                self.expect(Tok::Comma)?;
                let s = self.ident()?;
                self.expect(Tok::RParen)?;
                list.push((c, s));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            ConnSpec::List(list)
        };
        let requires = if self.at_keyword("requires") {
            self.bump();
            Some(self.cap_class()?)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        self.keyword("when")?;
        let condition = self.expr()?;
        if *self.peek() == Tok::Semi {
            self.bump();
        }
        self.keyword("do")?;
        self.expect(Tok::LBrace)?;
        let mut actions = Vec::new();
        while *self.peek() != Tok::RBrace {
            actions.push(self.action()?);
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        Ok(RuleDecl {
            name,
            connections,
            requires,
            condition,
            actions,
            line,
        })
    }

    fn action(&mut self) -> Result<ActionAst, DslError> {
        let line = self.line();
        let kw = self.ident()?;
        let action = match kw.as_str() {
            "drop" => {
                self.msg_arg0()?;
                ActionAst::Drop
            }
            "pass" => {
                self.msg_arg0()?;
                ActionAst::Pass
            }
            "duplicate" => {
                self.msg_arg0()?;
                ActionAst::Duplicate
            }
            "read" => {
                self.msg_arg0()?;
                ActionAst::Read
            }
            "read_metadata" => {
                self.msg_arg0()?;
                ActionAst::ReadMetadata
            }
            "delay" => {
                self.expect(Tok::LParen)?;
                self.keyword("msg")?;
                self.expect(Tok::Comma)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                ActionAst::Delay(e)
            }
            "modify" | "modify_metadata" => {
                self.expect(Tok::LParen)?;
                self.keyword("msg")?;
                self.expect(Tok::Comma)?;
                let field = self.string()?;
                self.expect(Tok::Comma)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                if kw == "modify" {
                    ActionAst::Modify(field, e)
                } else {
                    ActionAst::ModifyMetadata(field, e)
                }
            }
            "fuzz" => {
                self.expect(Tok::LParen)?;
                self.keyword("msg")?;
                let flips = if *self.peek() == Tok::Comma {
                    self.bump();
                    match self.bump() {
                        Tok::Int(i) if i > 0 => i as u32,
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
                ActionAst::Fuzz(flips)
            }
            "inject" => {
                self.expect(Tok::LParen)?;
                self.expect(Tok::LParen)?;
                let c = self.ident()?;
                self.expect(Tok::Comma)?;
                let s = self.ident()?;
                self.expect(Tok::RParen)?;
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
                ActionAst::Inject {
                    conn: (c, s),
                    to_controller,
                    hex,
                    line,
                }
            }
            "append" | "prepend" => {
                self.expect(Tok::LParen)?;
                let deque = self.ident()?;
                self.expect(Tok::Comma)?;
                let value = if self.at_keyword("msg") && *self.peek2() == Tok::RParen {
                    self.bump();
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::RParen)?;
                if kw == "append" {
                    ActionAst::Append { deque, value }
                } else {
                    ActionAst::Prepend { deque, value }
                }
            }
            "shift" => ActionAst::Shift(self.deque_arg()?),
            "pop" => ActionAst::Pop(self.deque_arg()?),
            "emit_front" => ActionAst::EmitFront(self.deque_arg()?),
            "emit_back" => ActionAst::EmitBack(self.deque_arg()?),
            "goto" => {
                let target = self.ident()?;
                self.expect(Tok::Semi)?;
                return Ok(ActionAst::Goto(target, line));
            }
            "sleep" => {
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                ActionAst::Sleep(e)
            }
            "syscmd" => {
                self.expect(Tok::LParen)?;
                let host = self.ident()?;
                self.expect(Tok::Comma)?;
                let cmd = self.string()?;
                self.expect(Tok::RParen)?;
                ActionAst::SysCmd { host, cmd, line }
            }
            "fault" => {
                self.expect(Tok::LParen)?;
                let spec = self.string()?;
                self.expect(Tok::RParen)?;
                ActionAst::Fault { spec, line }
            }
            other => return Err(DslError::new(line, format!("unknown action `{other}`"))),
        };
        self.expect(Tok::Semi)?;
        Ok(action)
    }

    fn msg_arg0(&mut self) -> Result<(), DslError> {
        self.expect(Tok::LParen)?;
        self.keyword("msg")?;
        self.expect(Tok::RParen)
    }

    fn deque_arg(&mut self) -> Result<String, DslError> {
        self.expect(Tok::LParen)?;
        let d = self.ident()?;
        self.expect(Tok::RParen)?;
        Ok(d)
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<ExprAst, DslError> {
        self.bin_expr(0)
    }

    /// Precedence climbing: an expression whose operators all bind at
    /// least `min` tightly ([`BinOp::binding_power`]). `||`, `&&`, `+`
    /// and `-` associate to the left. A comparison, `in` included, does
    /// not chain: after one, an operator binding as tightly ends the
    /// whole expression, so `a == b == c` stops at the second `==`. The
    /// items of an `in` list are additive expressions.
    fn bin_expr(&mut self, min: u8) -> Result<ExprAst, DslError> {
        let compare = BinOp::Eq.binding_power();
        let mut lhs = self.unary_expr()?;
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
                Some(op) => ExprAst::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(self.bin_expr(bp + 1)?),
                },
                None => {
                    self.expect(Tok::LBracket)?;
                    let mut items = vec![self.bin_expr(compare + 1)?];
                    while *self.peek() == Tok::Comma {
                        self.bump();
                        items.push(self.bin_expr(compare + 1)?);
                    }
                    self.expect(Tok::RBracket)?;
                    ExprAst::In(Box::new(lhs), items)
                }
            };
            max = if bp == compare { bp - 1 } else { bp };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprAst, DslError> {
        if *self.peek() == Tok::Bang {
            self.bump();
            return Ok(ExprAst::Not(Box::new(self.unary_expr()?)));
        }
        if *self.peek() == Tok::Op(BinOp::Sub) {
            let line = self.line();
            self.bump();
            return match self.unary_expr()? {
                ExprAst::Int(i) => Ok(ExprAst::Int(-i)),
                ExprAst::Float(x) => Ok(ExprAst::Float(-x)),
                _ => Err(DslError::new(
                    line,
                    "unary `-` applies to numeric literals only",
                )),
            };
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<ExprAst, DslError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(i) => Ok(ExprAst::Int(i)),
            Tok::Float(x) => Ok(ExprAst::Float(x)),
            Tok::Str(s) => Ok(ExprAst::Str(s)),
            Tok::Ip(ip) => Ok(ExprAst::Ip(ip)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(ExprAst::Bool(true)),
                "false" => Ok(ExprAst::Bool(false)),
                "none" => Ok(ExprAst::NoneLit),
                "msg" => match self.bump() {
                    Tok::Dot => {
                        let prop = self.ident()?;
                        Ok(ExprAst::MsgProp(prop, line))
                    }
                    Tok::LBracket => {
                        let path = self.string()?;
                        self.expect(Tok::RBracket)?;
                        Ok(ExprAst::MsgOption(path))
                    }
                    other => Err(DslError::new(
                        line,
                        format!("expected `.prop` or `[\"path\"]` after `msg`, found {other}"),
                    )),
                },
                "front" | "back" | "len" => {
                    self.expect(Tok::LParen)?;
                    let deque = self.ident()?;
                    self.expect(Tok::RParen)?;
                    Ok(ExprAst::DequeFn { func: name, deque })
                }
                "mac" => {
                    self.expect(Tok::LParen)?;
                    let text = self.string()?;
                    self.expect(Tok::RParen)?;
                    Ok(ExprAst::MacLit(text, line))
                }
                "latency" | "inter_arrival" | "elapsed_in_state" | "timing_mean"
                | "timing_stddev" | "timing_count" => {
                    self.expect(Tok::LParen)?;
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(ExprAst::TimingFn {
                        func: name,
                        args,
                        line,
                    })
                }
                _ => Ok(ExprAst::Name(name, line)),
            },
            other => Err(DslError::new(
                line,
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_system_block() {
        let doc = parse(
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
        let sys = doc.system.unwrap();
        assert_eq!(sys.stmts.len(), 9);
        assert!(matches!(
            &sys.stmts[3],
            SystemStmt::Host { name, ip: Some(_), mac: None, .. } if name == "h1"
        ));
        assert!(matches!(
            &sys.stmts[6],
            SystemStmt::Link { a, b }
                if a.node == "s1" && a.port == Some(3) && b.node == "s2" && b.port == Some(1)
        ));
    }

    #[test]
    fn parses_capabilities_block() {
        let doc = parse(
            r#"
            capabilities {
                default no_tls;
                (c1, s2): tls;
                (c1, s3): { drop_message, pass_message };
            }
            "#,
        )
        .unwrap();
        let caps = doc.capabilities.unwrap();
        assert!(matches!(caps.default, Some((CapClass::NoTls, _))));
        assert_eq!(caps.overrides.len(), 2);
        assert!(matches!(&caps.overrides[1].2, CapClass::Explicit(v) if v.len() == 2));
    }

    #[test]
    fn parses_flow_mod_suppression_shape() {
        let doc = parse(
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
        assert_eq!(doc.attacks.len(), 1);
        let atk = &doc.attacks[0];
        assert_eq!(atk.name, "flow_mod_suppression");
        assert!(atk.states[0].start);
        let rule = &atk.states[0].rules[0];
        assert_eq!(rule.connections, ConnSpec::All);
        assert!(matches!(rule.actions[0], ActionAst::Drop));
        assert!(matches!(
            &rule.condition,
            ExprAst::Bin { op: BinOp::And, .. }
        ));
    }

    #[test]
    fn parses_multi_state_with_goto_and_membership() {
        let doc = parse(
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
        let atk = &doc.attacks[0];
        assert_eq!(atk.states.len(), 3);
        assert!(matches!(
            &atk.states[1].rules[0].condition,
            ExprAst::Bin { op: BinOp::And, .. }
        ));
        assert!(matches!(
            &atk.states[0].rules[0].actions[1],
            ActionAst::Goto(t, _) if t == "sigma2"
        ));
    }

    #[test]
    fn parses_deque_counter_idiom() {
        let doc = parse(
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
        let rule = &doc.attacks[0].states[0].rules[0];
        assert_eq!(rule.actions.len(), 3);
        assert!(matches!(
            &rule.actions[0],
            ActionAst::Prepend { deque, value: Some(_) } if deque == "counter"
        ));
    }

    #[test]
    fn parses_store_and_emit() {
        let doc = parse(
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
        let rules = &doc.attacks[0].states[0].rules;
        assert!(matches!(
            &rules[0].actions[0],
            ActionAst::Append { value: None, .. }
        ));
        assert!(matches!(&rules[1].actions[0], ActionAst::EmitBack(d) if d == "stash"));
    }

    #[test]
    fn parses_syscmd_sleep_inject() {
        let doc = parse(
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
        let actions = &doc.attacks[0].states[0].rules[0].actions;
        assert!(matches!(&actions[0], ActionAst::Sleep(ExprAst::Float(f)) if *f == 2.5));
        assert!(matches!(&actions[1], ActionAst::SysCmd { host, .. } if host == "h1"));
        assert!(matches!(
            &actions[2],
            ActionAst::Inject {
                to_controller: false,
                ..
            }
        ));
    }

    #[test]
    fn parses_fault_action() {
        let doc = parse(
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
        let actions = &doc.attacks[0].states[0].rules[0].actions;
        assert!(matches!(&actions[0], ActionAst::Fault { spec, .. } if spec == "link s1-s2 down"));
        assert!(
            matches!(&actions[1], ActionAst::Fault { spec, .. } if spec == "controller c1 crash")
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
        let err = parse("system { controller }").unwrap_err();
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn rejects_duplicate_blocks() {
        assert!(parse("system {} system {}")
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse("capabilities {} capabilities {}")
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn unary_minus_on_numeric_literals() {
        let doc = parse(
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
        let cond = &doc.attacks[0].states[0].rules[0].condition;
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
        let doc = parse(
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
        let cond = &doc.attacks[0].states[0].rules[0].condition;
        // Top is ||, left is &&, whose sides are comparisons.
        let ExprAst::Bin {
            op: BinOp::Or, lhs, ..
        } = cond
        else {
            panic!("expected || at top, got {cond:?}");
        };
        assert!(matches!(&**lhs, ExprAst::Bin { op: BinOp::And, .. }));
    }

    #[test]
    fn comparisons_do_not_chain_and_arithmetic_associates_left() {
        let condition = |when: &str| {
            let source = format!(
                "attack p {{ state s {{ rule r on all {{ when {when} do {{ pass(msg); }} }} }} }}"
            );
            parse(&source).map(|doc| doc.attacks[0].states[0].rules[0].condition.clone())
        };
        for chained in [
            "msg.length == 8 == 8",
            "msg.id in [1] in [true]",
            "msg.id < 2 in [true]",
        ] {
            let err = condition(chained).unwrap_err();
            assert!(err.message.starts_with("expected `do`"), "{chained}: {err}");
        }
        let len = || Box::new(ExprAst::MsgProp("length".into(), 1));
        let bin = |op, lhs, rhs| ExprAst::Bin { op, lhs, rhs };
        // (length - 1) - 2 > 0
        assert_eq!(
            condition("msg.length - 1 - 2 > 0").unwrap(),
            bin(
                BinOp::Gt,
                Box::new(bin(
                    BinOp::Sub,
                    Box::new(bin(BinOp::Sub, len(), Box::new(ExprAst::Int(1)))),
                    Box::new(ExprAst::Int(2)),
                )),
                Box::new(ExprAst::Int(0)),
            )
        );
        // An `in` needle and its items are additive.
        assert_eq!(
            condition("msg.length + 1 in [2, 3 - 4]").unwrap(),
            ExprAst::In(
                Box::new(bin(BinOp::Add, len(), Box::new(ExprAst::Int(1)))),
                vec![
                    ExprAst::Int(2),
                    bin(
                        BinOp::Sub,
                        Box::new(ExprAst::Int(3)),
                        Box::new(ExprAst::Int(4))
                    ),
                ],
            )
        );
    }
}
