//! Untyped syntax tree produced by the parser, resolved by the compiler.

use crate::lang::BinOp;
use std::net::Ipv4Addr;

/// A parsed document: the compiler's three inputs (system model file,
/// attack model file, attack states file — paper §VI-B1) in one source,
/// any subset present.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Document {
    /// `system { … }` block, if present.
    pub system: Option<SystemBlock>,
    /// `capabilities { … }` block, if present.
    pub capabilities: Option<CapabilitiesBlock>,
    /// `attack NAME { … }` blocks.
    pub attacks: Vec<AttackBlock>,
}

/// `system { … }`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemBlock {
    /// Line of the `system` keyword.
    pub line: u32,
    /// Statements in order.
    pub stmts: Vec<SystemStmt>,
}

/// One endpoint of a `link` statement: a node name with an optional
/// port.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Node name.
    pub node: String,
    /// Port number (switches).
    pub port: Option<u16>,
    /// Source line.
    pub line: u32,
}

/// A statement inside `system { … }`.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemStmt {
    /// `controller c1;`
    Controller {
        /// Name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// `switch s1;`
    Switch {
        /// Name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// `host h1 ip 10.0.0.1 mac "…";`
    Host {
        /// Name.
        name: String,
        /// IPv4 address.
        ip: Option<Ipv4Addr>,
        /// MAC address text.
        mac: Option<String>,
        /// Source line.
        line: u32,
    },
    /// `link h1, s1:1;`
    Link {
        /// First endpoint.
        a: Endpoint,
        /// Second endpoint.
        b: Endpoint,
    },
    /// `connection c1 -> s1;`
    Connection {
        /// Controller name.
        controller: String,
        /// Switch name.
        switch: String,
        /// Source line.
        line: u32,
    },
}

/// A capability class: `tls`, `no_tls`, `none`, or an explicit list.
#[derive(Debug, Clone, PartialEq)]
pub enum CapClass {
    /// All of Table I.
    NoTls,
    /// The TLS-restricted subset.
    Tls,
    /// Nothing.
    None,
    /// Explicit capability names.
    Explicit(Vec<String>),
}

/// `capabilities { … }`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapabilitiesBlock {
    /// Line of the `capabilities` keyword.
    pub line: u32,
    /// `default CLASS;`
    pub default: Option<(CapClass, u32)>,
    /// `(c1, s2): CLASS;` overrides.
    pub overrides: Vec<(String, String, CapClass, u32)>,
}

/// `attack NAME { … }`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackBlock {
    /// Attack name.
    pub name: String,
    /// States in declaration order.
    pub states: Vec<StateDecl>,
    /// Source line.
    pub line: u32,
}

/// `state NAME { … }`, optionally marked `start`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDecl {
    /// State name.
    pub name: String,
    /// Whether declared `start state`.
    pub start: bool,
    /// Rules.
    pub rules: Vec<RuleDecl>,
    /// Source line.
    pub line: u32,
}

/// Which connections a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnSpec {
    /// `on all`.
    All,
    /// `on (c1, s1), (c1, s2)`.
    List(Vec<(String, String)>),
}

/// `rule NAME on … requires … { when …; do { … } }`.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDecl {
    /// Rule name.
    pub name: String,
    /// Watched connections.
    pub connections: ConnSpec,
    /// Declared `γ` (inferred from the body when omitted).
    pub requires: Option<CapClass>,
    /// Trigger condition.
    pub condition: ExprAst,
    /// Action list.
    pub actions: Vec<ActionAst>,
    /// Source line.
    pub line: u32,
}

/// Untyped expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprAst {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// IPv4 literal.
    Ip(Ipv4Addr),
    /// `true` / `false`.
    Bool(bool),
    /// `none`.
    NoneLit,
    /// An identifier (component name, OF type name, …), with its line
    /// for resolution errors.
    Name(String, u32),
    /// `msg.PROP`.
    MsgProp(String, u32),
    /// `msg["path"]`.
    MsgOption(String),
    /// `front(d)` / `back(d)` / `len(d)`.
    DequeFn {
        /// `front` | `back` | `len`.
        func: String,
        /// Deque name.
        deque: String,
    },
    /// `mac("…")`.
    MacLit(String, u32),
    /// A timing predicate call: `latency(A, B)`, `inter_arrival(T)`,
    /// `timing_mean(A, B, N)`, `timing_stddev(A, B, N)`,
    /// `timing_count(A, B)`, or `elapsed_in_state()`. Arity and
    /// argument kinds are validated by the compiler, which knows the
    /// message-type namespace.
    TimingFn {
        /// The called predicate name.
        func: String,
        /// Raw arguments.
        args: Vec<ExprAst>,
        /// Source line.
        line: u32,
    },
    /// Unary `!`.
    Not(Box<ExprAst>),
    /// Binary operator.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<ExprAst>,
        /// Right operand.
        rhs: Box<ExprAst>,
    },
    /// `e in [a, b, c]`.
    In(Box<ExprAst>, Vec<ExprAst>),
}

/// Untyped action.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionAst {
    /// `drop(msg);`
    Drop,
    /// `pass(msg);`
    Pass,
    /// `delay(msg, expr);`
    Delay(ExprAst),
    /// `duplicate(msg);`
    Duplicate,
    /// `read(msg);`
    Read,
    /// `read_metadata(msg);`
    ReadMetadata,
    /// `modify(msg, "field", expr);`
    Modify(String, ExprAst),
    /// `modify_metadata(msg, "field", expr);`
    ModifyMetadata(String, ExprAst),
    /// `fuzz(msg, flips);`
    Fuzz(u32),
    /// `inject((c, s), to_switch|to_controller, hex("…"));`
    Inject {
        /// Connection pair.
        conn: (String, String),
        /// `true` when `to_controller`.
        to_controller: bool,
        /// Hex payload text.
        hex: String,
        /// Source line.
        line: u32,
    },
    /// `append(d, expr)` / `append(d, msg)`.
    Append {
        /// Deque name.
        deque: String,
        /// Value (`None` = the message itself).
        value: Option<ExprAst>,
    },
    /// `prepend(d, expr)` / `prepend(d, msg)`.
    Prepend {
        /// Deque name.
        deque: String,
        /// Value (`None` = the message itself).
        value: Option<ExprAst>,
    },
    /// `shift(d);`
    Shift(String),
    /// `pop(d);`
    Pop(String),
    /// `emit_front(d);`
    EmitFront(String),
    /// `emit_back(d);`
    EmitBack(String),
    /// `goto NAME;`
    Goto(String, u32),
    /// `sleep(expr);`
    Sleep(ExprAst),
    /// `syscmd(host, "cmd");`
    SysCmd {
        /// Host name.
        host: String,
        /// Command line.
        cmd: String,
        /// Source line.
        line: u32,
    },
    /// `fault("link s1-s2 down");`
    Fault {
        /// The fault spec text (environment-fault grammar).
        spec: String,
        /// Source line.
        line: u32,
    },
}
