//! A text syntax for atoms, facts and rules, mirroring the paper's
//! notation.
//!
//! ```text
//! rule  :=  atom "<-" atom ("," atom)* "."?    // also ":-" and "←"
//! atom  :=  IDENT "(" term ("," term)* ")"  | IDENT "(" ")"
//! term  :=  INTEGER | QUOTED | IDENT           // in rules: lowercase IDENT = variable
//! fact  :=  like atom, but IDENTs are constants
//! facts :=  (fact "."?)*
//! ```
//!
//! In rule bodies and heads, an identifier starting with a lowercase letter
//! is a **variable** (the paper writes `V₁(s,y,m,v) ← Temperature(s,y,m,v)`
//! with lowercase variables); identifiers starting with an uppercase letter
//! and quoted strings (`'Canada'` or `"Canada"`) are symbolic constants;
//! integer literals are integer constants. When parsing *facts* (view
//! extension contents), every identifier is a constant, so `R(a)` is the
//! fact with the symbol `a` — exactly how the paper writes extensions.
//!
//! Lexemes: an IDENT starts with a letter or `_` and continues with
//! letters, digits and `_` (Unicode letters and digits count); an INTEGER
//! is an optional `-` and ASCII digits that fit an `i64`; a QUOTED
//! constant runs from `'` or `"` to the next occurrence of the same quote,
//! with no escapes, so it may hold the other quote kind but not its own.
//! Whitespace separates tokens, and `#`, `%` or `//` outside a quoted
//! constant starts a comment that runs to the end of the line.
//!
//! One lexer serves every entry point. Its tokens borrow their text from
//! the input, a fact is built in place, and a fact list interns its
//! relation name once rather than once per fact, so reading a fact
//! allocates only its argument vector. Errors are [`RelError::Parse`]
//! with the byte offset of the offending token, and quote the token's
//! source text.

use crate::atom::Atom;
use crate::cq::ConjunctiveQuery;
use crate::error::RelError;
use crate::fact::Fact;
use crate::schema::RelName;
use crate::term::Term;
use crate::value::Value;

/// A token; text tokens borrow from the input.
#[derive(Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    /// The text between the quotes.
    Quoted(&'a str),
    LParen,
    RParen,
    Comma,
    Arrow,
    Period,
}

/// A token with its source text and byte offset.
#[derive(Clone, Copy)]
struct Token<'a> {
    tok: Tok<'a>,
    text: &'a str,
    offset: usize,
}

/// How many characters of a long token an error message quotes.
const SNIPPET_CHARS: usize = 32;

/// `text`, cut to [`SNIPPET_CHARS`] characters.
fn snippet(text: &str) -> String {
    match text.char_indices().nth(SNIPPET_CHARS) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text.to_owned(),
    }
}

impl Token<'_> {
    /// The token as an error message shows it: its source text, in quotes
    /// unless it is a quoted constant already.
    fn describe(&self) -> String {
        if self.text.starts_with(['\'', '"']) {
            snippet(self.text)
        } else {
            format!("'{}'", snippet(self.text))
        }
    }
}

fn parse_error(offset: usize, message: String) -> RelError {
    RelError::Parse { message, offset }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Skips whitespace and comments. ASCII is decided byte by byte;
    /// only a non-ASCII character is decoded, to test it for whitespace.
    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'#' | b'%' => self.skip_line(),
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => self.skip_line(),
                _ if b.is_ascii() => {
                    if !char::from(b).is_whitespace() {
                        return;
                    }
                    self.pos += 1;
                }
                _ => match self.src[self.pos..].chars().next() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
            }
        }
    }

    fn skip_line(&mut self) {
        self.pos = match self.src.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(nl) => self.pos + nl + 1,
            None => self.src.len(),
        };
    }

    /// The end of the identifier whose remaining characters start at
    /// `end`.
    fn ident_end(&self, mut end: usize) -> usize {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(end) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                end += 1;
            } else if b.is_ascii() {
                break;
            } else {
                match self.src[end..].chars().next() {
                    Some(c) if c.is_alphanumeric() => end += c.len_utf8(),
                    _ => break,
                }
            }
        }
        end
    }

    /// The next token, or `None` at the end of the input.
    fn token(&mut self) -> Result<Option<Token<'a>>, RelError> {
        self.skip_trivia();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let Some(&first) = bytes.get(start) else {
            return Ok(None);
        };
        let (tok, end) = match first {
            b'(' => (Tok::LParen, start + 1),
            b')' => (Tok::RParen, start + 1),
            b',' => (Tok::Comma, start + 1),
            b'.' => (Tok::Period, start + 1),
            b'<' | b':' if bytes.get(start + 1) == Some(&b'-') => (Tok::Arrow, start + 2),
            b'\'' | b'"' => {
                // The quote is ASCII, so a byte search cannot stop inside
                // a multi-byte character.
                let body = start + 1;
                let Some(len) = bytes[body..].iter().position(|&b| b == first) else {
                    return Err(parse_error(start, "unterminated quoted constant".into()));
                };
                (Tok::Quoted(&self.src[body..body + len]), body + len + 1)
            }
            b'-' | b'0'..=b'9' => {
                let digits = bytes[start + 1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                let end = start + 1 + digits;
                let text = &self.src[start..end];
                let value = text.parse().map_err(|_| {
                    parse_error(
                        start,
                        format!("invalid integer literal '{}'", snippet(text)),
                    )
                })?;
                (Tok::Int(value), end)
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                let end = self.ident_end(start + 1);
                (Tok::Ident(&self.src[start..end]), end)
            }
            _ => match self.src[start..].chars().next() {
                Some('←') => (Tok::Arrow, start + '←'.len_utf8()),
                Some(c) if c.is_alphabetic() => {
                    let end = self.ident_end(start + c.len_utf8());
                    (Tok::Ident(&self.src[start..end]), end)
                }
                Some(c) => {
                    return Err(parse_error(start, format!("unexpected character {c:?}")));
                }
                None => return Ok(None),
            },
        };
        self.pos = end;
        Ok(Some(Token {
            tok,
            text: &self.src[start..end],
            offset: start,
        }))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token; `None` at the end of the input.
    next: Option<Token<'a>>,
    /// The last fact's relation name and its symbol: every fact of an
    /// extension repeats it, so the interner sees it once per list.
    last_relation: Option<(&'a str, RelName)>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, RelError> {
        let mut lexer = Lexer { src, pos: 0 };
        let next = lexer.token()?;
        Ok(Parser {
            lexer,
            next,
            last_relation: None,
        })
    }

    fn bump(&mut self) -> Result<Option<Token<'a>>, RelError> {
        let token = self.next;
        self.next = self.lexer.token()?;
        Ok(token)
    }

    /// Consumes the lookahead if it is `tok`; reports whether it did.
    fn eat(&mut self, tok: Tok<'_>) -> Result<bool, RelError> {
        let at = self.next.is_some_and(|t| t.tok == tok);
        if at {
            self.bump()?;
        }
        Ok(at)
    }

    /// Consumes the lookahead, which must be `tok`.
    fn expect(&mut self, tok: Tok<'_>, what: &str) -> Result<(), RelError> {
        match self.bump()? {
            Some(t) if t.tok == tok => Ok(()),
            other => Err(self.unexpected(other, what)),
        }
    }

    fn unexpected(&self, found: Option<Token<'a>>, expected: &str) -> RelError {
        match found {
            Some(t) => parse_error(
                t.offset,
                format!("expected {expected}, found {}", t.describe()),
            ),
            None => parse_error(
                self.lexer.src.len(),
                format!("expected {expected}, found end of input"),
            ),
        }
    }

    /// Fails unless the input is exhausted.
    fn finish(&self, what: &str) -> Result<(), RelError> {
        match self.next {
            Some(t) => Err(parse_error(
                t.offset,
                format!("trailing input after {what}: {}", t.describe()),
            )),
            None => Ok(()),
        }
    }

    fn relation(&mut self) -> Result<&'a str, RelError> {
        match self.bump()? {
            Some(Token {
                tok: Tok::Ident(name),
                ..
            }) => Ok(name),
            other => Err(self.unexpected(other, "relation name")),
        }
    }

    /// Parses `( term, … )` after a relation name into `out`; `term`
    /// maps a token to a term, or to `None` if it cannot start one.
    fn args<T>(
        &mut self,
        out: &mut Vec<T>,
        mut term: impl FnMut(Tok<'a>) -> Option<T>,
    ) -> Result<(), RelError> {
        self.expect(Tok::LParen, "'('")?;
        if self.eat(Tok::RParen)? {
            return Ok(());
        }
        loop {
            let token = self.bump()?;
            match token.and_then(|t| term(t.tok)) {
                Some(value) => out.push(value),
                None => return Err(self.unexpected(token, "term")),
            }
            match self.bump()? {
                Some(t) if t.tok == Tok::Comma => {}
                Some(t) if t.tok == Tok::RParen => return Ok(()),
                other => return Err(self.unexpected(other, "',' or ')'")),
            }
        }
    }

    /// Parses a rule atom: lowercase identifiers are variables.
    fn atom(&mut self) -> Result<Atom, RelError> {
        let relation = RelName::new(self.relation()?);
        let mut terms = Vec::new();
        self.args(&mut terms, |tok| match tok {
            Tok::Int(v) => Some(Term::int(v)),
            Tok::Quoted(s) => Some(Term::sym(s)),
            Tok::Ident(s) if s.starts_with(|c: char| c.is_lowercase() || c == '_') => {
                Some(Term::var(s))
            }
            Tok::Ident(s) => Some(Term::sym(s)),
            _ => None,
        })?;
        Ok(Atom { relation, terms })
    }

    /// Parses a fact, building its arguments in the reusable `scratch`
    /// and copying them out into a vector of the exact length.
    fn fact(&mut self, scratch: &mut Vec<Value>) -> Result<Fact, RelError> {
        let name = self.relation()?;
        let relation = match self.last_relation {
            Some((last, relation)) if last == name => relation,
            _ => {
                let relation = RelName::new(name);
                self.last_relation = Some((name, relation));
                relation
            }
        };
        scratch.clear();
        self.args(scratch, |tok| match tok {
            Tok::Int(v) => Some(Value::Int(v)),
            Tok::Ident(s) | Tok::Quoted(s) => Some(Value::sym(s)),
            _ => None,
        })?;
        Ok(Fact {
            relation,
            args: scratch.to_vec(),
        })
    }
}

/// Parses a rule `Head(...) <- Body1(...), Body2(...)` into a safe
/// conjunctive query. The Prolog arrow `:-` and the Unicode `←` are also
/// accepted.
///
/// # Examples
///
/// ```
/// use pscds_relational::parser::parse_rule;
///
/// let view = parse_rule("V(s, y) <- Temp(s, y), After(y, 1900)")?;
/// assert_eq!(view.head().relation.as_str(), "V");
/// assert_eq!(view.body().len(), 2);
/// assert_eq!(view.body_len(), 1); // After is a built-in, not a stored atom
/// # Ok::<(), pscds_relational::RelError>(())
/// ```
///
/// # Errors
/// Returns parse or safety errors.
pub fn parse_rule(src: &str) -> Result<ConjunctiveQuery, RelError> {
    let mut p = Parser::new(src)?;
    let head = p.atom()?;
    p.expect(Tok::Arrow, "'<-'")?;
    let mut body = vec![p.atom()?];
    while p.eat(Tok::Comma)? {
        body.push(p.atom()?);
    }
    p.eat(Tok::Period)?;
    p.finish("rule")?;
    ConjunctiveQuery::new(head, body)
}

/// Parses a single fact `R(a, 'b c', 42)`; identifiers are constants.
///
/// # Errors
/// Returns parse errors.
pub fn parse_fact(src: &str) -> Result<Fact, RelError> {
    let mut p = Parser::new(src)?;
    let fact = p.fact(&mut Vec::new())?;
    p.eat(Tok::Period)?;
    p.finish("fact")?;
    Ok(fact)
}

/// Renders a fact so that [`parse_fact`] reads it back identically:
/// symbolic constants that are not plain identifiers (or that could lex as
/// something else) are quoted, with `"` when the symbol holds a `'` and
/// with `'` otherwise. A symbol that holds both quote kinds has no
/// rendering the parser reads back. Plain `Display` on [`Fact`] is the
/// human-readable form; this is the canonical interchange form.
#[must_use]
pub fn format_fact(fact: &Fact) -> String {
    let mut out = format!("{}(", fact.relation);
    for (i, v) in fact.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match v {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Sym(s) => {
                let text = s.as_str();
                let is_ident = text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && text.chars().all(|c| c.is_alphanumeric() || c == '_');
                if is_ident {
                    out.push_str(text);
                } else {
                    let quote = quote_for(text);
                    out.push(quote);
                    out.push_str(text);
                    out.push(quote);
                }
            }
        }
    }
    out.push(')');
    out
}

/// The quote a rendered symbol is wrapped in: `"` if it holds a `'`,
/// else `'`.
pub(crate) fn quote_for(text: &str) -> char {
    if text.contains('\'') {
        '"'
    } else {
        '\''
    }
}

/// Parses a list of facts separated by periods and/or newlines.
///
/// # Errors
/// Returns parse errors with offsets into the full input.
pub fn parse_facts(src: &str) -> Result<Vec<Fact>, RelError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    while p.next.is_some() {
        out.push(p.fact(&mut scratch)?);
        p.eat(Tok::Period)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    #[test]
    fn parse_simple_rule() {
        let q = parse_rule("V(x, y) <- R(x, z), S(z, y)").unwrap();
        assert_eq!(q.head().relation, RelName::new("V"));
        assert_eq!(q.body().len(), 2);
        assert_eq!(q.to_string(), "V(x, y) <- R(x, z), S(z, y)");
    }

    #[test]
    fn parse_paper_view_s1() {
        // S₁ from the motivating example, verbatim notation.
        let q = parse_rule(
            "V1(s, y, m, v) <- Temperature(s, y, m, v), Station(s, lat, lon, \"Canada\"), After(y, 1900)",
        )
        .unwrap();
        assert_eq!(q.body().len(), 3);
        assert_eq!(q.body_len(), 2); // After is a built-in
        let station = &q.body()[1];
        assert_eq!(station.terms[3], Term::Const(Value::sym("Canada")));
        let after = &q.body()[2];
        assert_eq!(after.terms[1], Term::Const(Value::int(1900)));
    }

    #[test]
    fn parse_rule_with_constant_head() {
        // S₃ from the paper: V3(438432, y, m, v) <- Temperature(438432, y, m, v)
        let q = parse_rule("V3(438432, y, m, v) <- Temperature(438432, y, m, v)").unwrap();
        assert_eq!(q.head().terms[0], Term::Const(Value::int(438432)));
    }

    #[test]
    fn uppercase_idents_are_constants_in_rules() {
        let q = parse_rule("V(x) <- R(x, Canada)").unwrap();
        assert_eq!(q.body()[0].terms[1], Term::Const(Value::sym("Canada")));
    }

    #[test]
    fn alternative_arrows() {
        assert!(parse_rule("V(x) :- R(x)").is_ok());
        assert!(parse_rule("V(x) ← R(x)").is_ok());
    }

    #[test]
    fn unsafe_rule_rejected() {
        let err = parse_rule("V(x, w) <- R(x)").unwrap_err();
        assert!(matches!(err, RelError::UnsafeQuery { .. }));
    }

    #[test]
    fn parse_fact_idents_are_constants() {
        let f = parse_fact("R(a)").unwrap();
        assert_eq!(f, Fact::new("R", [Value::sym("a")]));
        let f = parse_fact("Temp(st1, 1950, -12)").unwrap();
        assert_eq!(
            f,
            Fact::new(
                "Temp",
                [Value::sym("st1"), Value::int(1950), Value::int(-12)]
            )
        );
    }

    #[test]
    fn parse_quoted_constants() {
        let f = parse_fact("Station(s1, 'New York')").unwrap();
        assert_eq!(f.args[1], Value::sym("New York"));
        let f = parse_fact("R(\"it's\", 'say \"hi\"', 'a#b', 'c//d', '50%')").unwrap();
        let texts: Vec<_> = f.args.iter().map(ToString::to_string).collect();
        assert_eq!(texts, ["it's", "say \"hi\"", "a#b", "c//d", "50%"]);
    }

    #[test]
    fn parse_fact_list() {
        let facts = parse_facts("R(a). R(b).\nS(a, b)").unwrap();
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[2], Fact::new("S", [Value::sym("a"), Value::sym("b")]));
    }

    #[test]
    fn parse_facts_with_comments() {
        let facts =
            parse_facts("% the first source\nR(a). // inline\nR(b). # hash\nR(c).").unwrap();
        assert_eq!(facts.len(), 3);
    }

    #[test]
    fn nullary_atom() {
        let f = parse_fact("Flag()").unwrap();
        assert_eq!(f.arity(), 0);
    }

    #[test]
    fn unicode_identifiers_and_whitespace() {
        let f = parse_fact("Städte(Zürich,\u{a0}東京, _x9)").unwrap();
        assert_eq!(f.relation, RelName::new("Städte"));
        let texts: Vec<_> = f.args.iter().map(ToString::to_string).collect();
        assert_eq!(texts, ["Zürich", "東京", "_x9"]);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse_fact("R(a").unwrap_err();
        assert!(matches!(err, RelError::Parse { offset: 3, .. }), "{err}");
        let err = parse_rule("V(x) <- ").unwrap_err();
        assert!(matches!(err, RelError::Parse { .. }));
        let err = parse_fact("R(a) extra").unwrap_err();
        assert!(err.to_string().contains("trailing"));
        let err = parse_fact("R('unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        assert!(matches!(err, RelError::Parse { offset: 2, .. }), "{err}");
    }

    #[test]
    fn errors_quote_source_text() {
        for (src, offset, message) in [
            ("V(a). V(b.", 9, "expected ',' or ')', found '.'"),
            (
                "V(99999999999999999999)",
                2,
                "invalid integer literal '99999999999999999999'",
            ),
            ("V(-)", 2, "invalid integer literal '-'"),
            ("V('unterminated", 2, "unterminated quoted constant"),
            ("V(a) <- R(a)", 5, "expected relation name, found '<-'"),
            ("V(a, 'b c' 'd')", 11, "expected ',' or ')', found 'd'"),
            ("V(@)", 2, "unexpected character '@'"),
        ] {
            let err = parse_facts(src).unwrap_err();
            assert_eq!(
                err,
                RelError::Parse {
                    message: message.into(),
                    offset
                },
                "{src:?}"
            );
        }
        let long = format!("V({})", "9".repeat(100_000));
        let err = parse_facts(&long).unwrap_err().to_string();
        assert!(err.len() < 100, "{err}");
    }

    #[test]
    fn format_fact_quotes_to_round_trip() {
        for text in ["it's", "a#b", "two words", "-5", "", "x'\"y"] {
            let fact = Fact::new("R", [Value::sym(text)]);
            let rendered = format_fact(&fact);
            if text.contains('\'') && text.contains('"') {
                // Not representable: the lexer has no escapes.
                assert!(parse_fact(&rendered).is_err(), "{rendered}");
            } else {
                assert_eq!(parse_fact(&rendered).unwrap(), fact, "{rendered}");
            }
        }
        let quoted = Fact::new("R", [Value::sym("it's")]);
        assert_eq!(format_fact(&quoted), "R(\"it's\")");
    }

    #[test]
    fn fact_arguments_have_exact_capacity() {
        let facts = parse_facts("V(a). V(b, 2). W(a, 'a', 3)").unwrap();
        assert_eq!(facts[2].relation, RelName::new("W"));
        assert!(facts.iter().all(|f| f.args.capacity() == f.args.len()));
    }

    #[test]
    fn round_trip_through_display() {
        let q = parse_rule("V(x, y) <- R(x, z), S(z, y), After(y, 1900)").unwrap();
        let reparsed = parse_rule(&q.to_string()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn variable_identity() {
        let q = parse_rule("V(x) <- R(x, x)").unwrap();
        let vars = q.body()[0].variables();
        assert_eq!(vars.len(), 1);
        assert!(vars.contains(&Var::new("x")));
    }
}
