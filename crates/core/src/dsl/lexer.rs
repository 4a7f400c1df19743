//! Tokenizer for the ATTAIN attack description language.

use crate::lang::BinOp;
use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;

/// A token kind.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// IPv4 literal, e.g. `10.0.0.6`.
    Ip(Ipv4Addr),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// A binary operator (`-` is also unary minus).
    Op(BinOp),
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Float(x) => write!(f, "`{x}`"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Ip(ip) => write!(f, "`{ip}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Op(op) => write!(f, "`{}`", op.symbol()),
            Tok::Bang => write!(f, "`!`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A lexing/parsing/compilation error with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

impl DslError {
    /// Creates an error at `line`.
    pub(crate) fn new(line: u32, message: impl Into<String>) -> DslError {
        DslError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

/// A string literal's escapes: the character after the backslash, and
/// the character it stands for. The lexer reads these and [`Quoted`] writes
/// them; every other character stands for itself.
const ESCAPES: [(char, char); 4] = [('"', '"'), ('\\', '\\'), ('n', '\n'), ('t', '\t')];

/// `text` as a string literal that lexes back to `text`.
pub(crate) struct Quoted<'a>(pub(crate) &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match ESCAPES.iter().find(|&&(_, raw)| raw == c) {
                Some(&(name, _)) => write!(f, "\\{name}")?,
                None => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Tokenizes `source`.
///
/// `#` starts a line comment. IPv4 literals (`a.b.c.d`) and floats
/// (`a.b`) are distinguished by their dot count.
///
/// # Errors
///
/// Returns [`DslError`] on unterminated strings, malformed numbers, or
/// unexpected characters.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, DslError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let then_eq = bytes.get(i + 1) == Some(&b'=');
        // Punctuation and operators, with their length.
        let punct = match c {
            '{' => Some((Tok::LBrace, 1)),
            '}' => Some((Tok::RBrace, 1)),
            '(' => Some((Tok::LParen, 1)),
            ')' => Some((Tok::RParen, 1)),
            '[' => Some((Tok::LBracket, 1)),
            ']' => Some((Tok::RBracket, 1)),
            ',' => Some((Tok::Comma, 1)),
            ';' => Some((Tok::Semi, 1)),
            ':' => Some((Tok::Colon, 1)),
            '.' => Some((Tok::Dot, 1)),
            '+' => Some((Tok::Op(BinOp::Add), 1)),
            '-' if bytes.get(i + 1) == Some(&b'>') => Some((Tok::Arrow, 2)),
            '-' => Some((Tok::Op(BinOp::Sub), 1)),
            '=' if then_eq => Some((Tok::Op(BinOp::Eq), 2)),
            '!' if then_eq => Some((Tok::Op(BinOp::Ne), 2)),
            '!' => Some((Tok::Bang, 1)),
            '<' if then_eq => Some((Tok::Op(BinOp::Le), 2)),
            '<' => Some((Tok::Op(BinOp::Lt), 1)),
            '>' if then_eq => Some((Tok::Op(BinOp::Ge), 2)),
            '>' => Some((Tok::Op(BinOp::Gt), 1)),
            '&' if bytes.get(i + 1) == Some(&b'&') => Some((Tok::Op(BinOp::And), 2)),
            '|' if bytes.get(i + 1) == Some(&b'|') => Some((Tok::Op(BinOp::Or), 2)),
            _ => None,
        };
        if let Some((tok, len)) = punct {
            out.push(Token { tok, line });
            i += len;
            continue;
        }
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '=' => return Err(DslError::new(line, "single `=` (use `==` for equality)")),
            '&' => return Err(DslError::new(line, "single `&` (use `&&`)")),
            '|' => return Err(DslError::new(line, "single `|` (use `||`)")),
            '"' => {
                let mut s = String::new();
                let mut chars = source[i + 1..].char_indices();
                loop {
                    let Some((at, c)) = chars.next() else {
                        return Err(DslError::new(line, "unterminated string literal"));
                    };
                    match c {
                        '"' => {
                            i += 1 + at + 1;
                            break;
                        }
                        '\\' => {
                            let Some((_, e)) = chars.next() else {
                                return Err(DslError::new(line, "unterminated escape"));
                            };
                            let Some(&(_, raw)) = ESCAPES.iter().find(|(name, _)| *name == e)
                            else {
                                return Err(DslError::new(line, format!("unknown escape \\{e}")));
                            };
                            s.push(raw);
                        }
                        '\n' => return Err(DslError::new(line, "newline in string literal")),
                        c => s.push(c),
                    }
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                // Groups of digits separated by dots: 1 = int, 2 = float,
                // 4 = IPv4; anything else is malformed.
                let mut groups: Vec<&str> = Vec::new();
                loop {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    groups.push(&source[start..i]);
                    if i + 1 < bytes.len()
                        && bytes[i] == b'.'
                        && bytes[i + 1].is_ascii_digit()
                        && groups.len() < 4
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let tok = match groups.len() {
                    1 => Tok::Int(
                        groups[0]
                            .parse()
                            .map_err(|_| DslError::new(line, "integer literal out of range"))?,
                    ),
                    // Digits parse to infinity rather than fail past
                    // `f64::MAX`, and infinity renders as no literal.
                    2 => Tok::Float(
                        format!("{}.{}", groups[0], groups[1])
                            .parse::<f64>()
                            .ok()
                            .filter(|v| v.is_finite())
                            .ok_or_else(|| DslError::new(line, "float literal out of range"))?,
                    ),
                    4 => {
                        let octets: Result<Vec<u8>, _> =
                            groups.iter().map(|g| g.parse::<u8>()).collect();
                        let octets =
                            octets.map_err(|_| DslError::new(line, "IPv4 octet out of range"))?;
                        Tok::Ip(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
                    }
                    n => {
                        return Err(DslError::new(
                            line,
                            format!("malformed number with {n} dot-separated groups"),
                        ))
                    }
                };
                out.push(Token { tok, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    tok: Tok::Ident(source[start..i].to_string()),
                    line,
                });
            }
            _ => {
                // `i` is on a character boundary: every step so far went
                // over ASCII bytes or whole characters.
                let other = source[i..].chars().next().unwrap_or(c);
                return Err(DslError::new(
                    line,
                    format!("unexpected character {other:?}"),
                ));
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn numbers_floats_and_ips() {
        assert_eq!(
            toks("42 1.5 10.0.0.6"),
            vec![
                Tok::Int(42),
                Tok::Float(1.5),
                Tok::Ip("10.0.0.6".parse().unwrap()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn three_group_numbers_are_rejected() {
        assert!(lex("1.2.3").is_err());
        assert!(lex("10.0.0.999").is_err());
    }

    #[test]
    fn float_literal_beyond_f64_is_refused() {
        let max = format!("1{}.0", "0".repeat(308));
        assert_eq!(toks(&max), vec![Tok::Float(1e308), Tok::Eof]);
        let err = lex(&format!("a\n1{}.0", "0".repeat(400))).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "float literal out of range");
    }

    #[test]
    fn operators_and_punctuation() {
        assert_eq!(
            toks("== != <= >= < > && || ! -> ( ) { } [ ] , ; : . + -"),
            vec![
                Tok::Op(BinOp::Eq),
                Tok::Op(BinOp::Ne),
                Tok::Op(BinOp::Le),
                Tok::Op(BinOp::Ge),
                Tok::Op(BinOp::Lt),
                Tok::Op(BinOp::Gt),
                Tok::Op(BinOp::And),
                Tok::Op(BinOp::Or),
                Tok::Bang,
                Tok::Arrow,
                Tok::LParen,
                Tok::RParen,
                Tok::LBrace,
                Tok::RBrace,
                Tok::LBracket,
                Tok::RBracket,
                Tok::Comma,
                Tok::Semi,
                Tok::Colon,
                Tok::Dot,
                Tok::Op(BinOp::Add),
                Tok::Op(BinOp::Sub),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""ping -c 60" "a\"b" "x\\y""#),
            vec![
                Tok::Str("ping -c 60".into()),
                Tok::Str("a\"b".into()),
                Tok::Str("x\\y".into()),
                Tok::Eof
            ]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn comments_and_lines() {
        let tokens = lex("a # comment\nb").unwrap();
        assert_eq!(tokens[0].tok, Tok::Ident("a".into()));
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].tok, Tok::Ident("b".into()));
        assert_eq!(tokens[1].line, 2);
    }

    #[test]
    fn single_equals_is_an_error_with_hint() {
        let err = lex("a = b").unwrap_err();
        assert!(err.message.contains("=="));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn identifiers_include_underscores_and_caps() {
        assert_eq!(
            toks("FLOW_MOD sigma_1 _x"),
            vec![
                Tok::Ident("FLOW_MOD".into()),
                Tok::Ident("sigma_1".into()),
                Tok::Ident("_x".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn a_stray_character_is_reported_decoded() {
        for (source, line, shown) in [
            ("attack x \u{2014} {", 1, "'\u{2014}'"),
            ("a\n  \u{e9}", 2, "'\u{e9}'"),
            ("\u{1f600}", 1, "'\u{1f600}'"),
            ("\u{7f}", 1, r"'\u{7f}'"),
            ("`", 1, "'`'"),
        ] {
            let err = lex(source).unwrap_err();
            assert_eq!(err.line, line, "{source:?}");
            assert_eq!(err.message, format!("unexpected character {shown}"));
        }
    }
}
