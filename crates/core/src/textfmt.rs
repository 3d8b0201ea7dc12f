//! A human-readable text format for source collections.
//!
//! This is the on-disk interchange format used by the `pscds` CLI; it
//! mirrors how the paper writes descriptors:
//!
//! ```text
//! # The Example 5.1 collection.
//! source S1 {
//!   view: V1(x) <- R(x)
//!   completeness: 1/2
//!   soundness: 0.5
//!   extension: V1(a). V1(b).
//! }
//! source S2 {
//!   view: V2(x) <- R(x)
//!   completeness: 1/2
//!   soundness: 1/2
//!   extension: V2(b).
//!   extension: V2('c#1').        # may repeat / span lines
//! }
//! ```
//!
//! The grammar is line-based: one item per line.
//!
//! ```text
//! document  :=  (block | blank)*
//! block     :=  "source" NAME "{"  entry*  "}"
//! entry     :=  "view:" rule  |  "extension:" facts
//!            |  "completeness:" bound  |  "soundness:" bound
//! ```
//!
//! `rule` and `facts` are the syntax of [`pscds_relational::parser`]:
//! constants are identifiers, integers, or quoted with `'` or `"` (no
//! escapes). `view`, `completeness` and `soundness` may appear once per
//! block; `extension:` may repeat, and the bounds default to 0. Bounds
//! accept `n/d`, decimals (`0.25`, converted exactly) and integers.
//!
//! **Comments.** `#` or `//` starts a comment that runs to the end of the
//! line. Inside a `view:` or `extension:` value a comment starts only
//! outside a quoted constant, so `'a#b'` is one symbol, and `%` starts
//! one there too. A source name is a plain word: on the other lines the
//! first `#` or `//` starts the comment.
//!
//! **Errors** are [`CoreError::InvalidDescriptor`] whose `source` reads
//! `line L, column C`: 1-based, with the column counted in characters
//! of the raw line. A syntax error inside a view or an extension points
//! at the offending token; a descriptor that fails validation (a bound
//! above 1, a fact that does not match the view head) at its block's
//! closing `}`; a block left open at its `source` keyword.
//!
//! [`format_collection`] writes what [`parse_collection`] reads back,
//! except for a symbol holding both quote kinds or a line break, which
//! the format cannot represent.

use crate::collection::SourceCollection;
use crate::descriptor::SourceDescriptor;
use crate::error::CoreError;
use pscds_numeric::{Frac, Rational, UBig};
use pscds_relational::parser::{parse_facts, parse_rule};
use pscds_relational::{Fact, RelError};
use std::fmt::Write as _;

/// Splits `line`, which starts at byte `at` of its raw line, at its
/// first `:` into the trimmed key, the trimmed value, and the value's
/// byte offset in the raw line.
fn key_value(line: &str, at: usize) -> Option<(&str, &str, usize)> {
    let (key, after) = line.split_once(':')?;
    let value = after.trim_start();
    Some((key.trim(), value.trim_end(), at + line.len() - value.len()))
}

/// Parses a source-collection document.
///
/// # Examples
///
/// ```
/// use pscds_core::textfmt::parse_collection;
///
/// let collection = parse_collection(
///     "source S {\n view: V(x) <- R(x)\n completeness: 1/2\n soundness: 1\n extension: V(a).\n}",
/// )?;
/// assert_eq!(collection.len(), 1);
/// assert_eq!(collection.sources()[0].name(), "S");
/// # Ok::<(), pscds_core::CoreError>(())
/// ```
///
/// # Errors
/// Returns [`CoreError::InvalidDescriptor`] naming the line and column
/// of any syntax error, including one inside a view or an extension, and
/// of the closing `}` of a source whose descriptor fails validation.
pub fn parse_collection(text: &str) -> Result<SourceCollection, CoreError> {
    struct Partial {
        name: String,
        /// Where the block opened, for a missing `}`.
        opened: CoreError,
        view: Option<pscds_relational::ConjunctiveQuery>,
        completeness: Option<Frac>,
        soundness: Option<Frac>,
        extension: Vec<Fact>,
    }

    let mut collection = SourceCollection::new();
    let mut current: Option<Partial> = None;

    for (idx, raw) in text.lines().enumerate() {
        // An error at byte `byte` of this line; its column counts the
        // characters before it, from 1.
        let at = |byte: usize, message: String| CoreError::InvalidDescriptor {
            source: format!(
                "line {}, column {}",
                idx + 1,
                raw[..byte].chars().count() + 1
            ),
            message,
        };
        let indent = raw.len() - raw.trim_start().len();
        if let (Some(partial), Some((key @ ("view" | "extension"), value, start))) =
            (current.as_mut(), key_value(raw, 0))
        {
            // The value goes to the lexer whole: it skips comments
            // itself, and only outside quoted constants. A parse error
            // points at its token, any other error at the value.
            let in_value = |e: RelError| match e {
                RelError::Parse { message, offset } => at(start + offset, message),
                other => at(start, other.to_string()),
            };
            if key == "extension" {
                partial
                    .extension
                    .extend(parse_facts(value).map_err(in_value)?);
            } else if partial.view.is_some() {
                return Err(at(indent, "duplicate `view:`".into()));
            } else {
                partial.view = Some(parse_rule(value).map_err(in_value)?);
            }
            continue;
        }
        // Every other line holds no quoted text: a comment starts at the
        // first `#` or `//`.
        let without_hash = raw.find('#').map_or(raw, |i| &raw[..i]);
        let line = without_hash
            .find("//")
            .map_or(without_hash, |i| &without_hash[..i])
            .trim();
        if line.is_empty() {
            continue;
        }
        match (&mut current, line) {
            (None, l) if l.starts_with("source") => {
                let rest = l["source".len()..].trim();
                let Some(name) = rest.strip_suffix('{').map(str::trim) else {
                    return Err(at(indent, "expected `source <name> {`".into()));
                };
                if name.is_empty() {
                    return Err(at(indent, "source name missing".into()));
                }
                current = Some(Partial {
                    name: name.to_owned(),
                    opened: at(indent, format!("source {name} is missing its closing `}}`")),
                    view: None,
                    completeness: None,
                    soundness: None,
                    extension: Vec::new(),
                });
            }
            (None, other) => {
                return Err(at(
                    indent,
                    format!("unexpected {} outside a source block", snippet(other)),
                ));
            }
            (Some(partial), "}") => {
                let view = partial
                    .view
                    .take()
                    .ok_or_else(|| at(indent, format!("source {} has no `view:`", partial.name)))?;
                let descriptor = SourceDescriptor::new(
                    partial.name.clone(),
                    view,
                    std::mem::take(&mut partial.extension),
                    partial.completeness.unwrap_or(Frac::ZERO),
                    partial.soundness.unwrap_or(Frac::ZERO),
                )
                .map_err(|e| match e {
                    CoreError::InvalidDescriptor { source, message } => {
                        at(indent, format!("source {source}: {message}"))
                    }
                    other => at(indent, other.to_string()),
                })?;
                collection.push(descriptor);
                current = None;
            }
            (Some(partial), l) => {
                let Some((key, value, start)) = key_value(l, indent) else {
                    let found = snippet(l);
                    return Err(at(indent, format!("expected `key: value`, found {found}")));
                };
                let slot = match key {
                    "completeness" => &mut partial.completeness,
                    "soundness" => &mut partial.soundness,
                    other => return Err(at(indent, format!("unknown key {}", snippet(other)))),
                };
                if slot.is_some() {
                    return Err(at(indent, format!("duplicate `{key}:`")));
                }
                *slot = Some(value.parse().map_err(|e| at(start, format!("{e}")))?);
            }
        }
    }
    match current {
        Some(partial) => Err(partial.opened),
        None => Ok(collection),
    }
}

/// How many characters of an offending line an error message quotes.
const SNIPPET_CHARS: usize = 32;

/// `text` quoted for an error message, cut to [`SNIPPET_CHARS`]
/// characters.
pub(crate) fn snippet(text: &str) -> String {
    match text.char_indices().nth(SNIPPET_CHARS) {
        Some((cut, _)) => format!("{:?}…", &text[..cut]),
        None => format!("{text:?}"),
    }
}

/// Renders a confidence interval in the canonical `[lo, hi]` form with
/// exact rational endpoints — the form [`parse_interval`] accepts, so
/// interval answers survive a print/parse round trip bit-for-bit.
#[must_use]
pub fn format_interval(interval: &crate::confidence::intervals::ConfidenceInterval) -> String {
    format!("[{}, {}]", interval.lo, interval.hi)
}

/// Parses the `[lo, hi]` interval rendering of [`format_interval`].
/// Endpoints are exact rationals (`n/d` or a bare integer).
///
/// # Errors
/// [`CoreError::InvalidDescriptor`] describing the malformed part.
pub fn parse_interval(
    text: &str,
) -> Result<crate::confidence::intervals::ConfidenceInterval, CoreError> {
    let bad = |message: &str| CoreError::InvalidDescriptor {
        source: "interval".to_owned(),
        message: message.to_owned(),
    };
    let inner = text
        .trim()
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| bad("expected an interval of the form [lo, hi]"))?;
    let (lo, hi) = inner
        .split_once(',')
        .ok_or_else(|| bad("expected two comma-separated endpoints"))?;
    let lo = parse_rational(lo).map_err(|m| bad(&format!("lower endpoint: {m}")))?;
    let hi = parse_rational(hi).map_err(|m| bad(&format!("upper endpoint: {m}")))?;
    if hi < lo {
        return Err(bad("upper endpoint below lower endpoint"));
    }
    Ok(crate::confidence::intervals::ConfidenceInterval { lo, hi })
}

/// Parses an exact rational endpoint: `n/d` or a bare integer.
fn parse_rational(text: &str) -> Result<Rational, String> {
    let text = text.trim();
    let (num, den) = match text.split_once('/') {
        Some((n, d)) => (n.trim(), d.trim()),
        None => (text, "1"),
    };
    let num: UBig = num.parse().map_err(|_| format!("bad numerator {num:?}"))?;
    let den: UBig = den
        .parse()
        .map_err(|_| format!("bad denominator {den:?}"))?;
    if den.is_zero() {
        return Err("zero denominator".to_owned());
    }
    Ok(Rational::new(num, den))
}

/// Renders a collection in the same format [`parse_collection`] reads.
#[must_use]
pub fn format_collection(collection: &SourceCollection) -> String {
    let mut out = String::new();
    for source in collection.sources() {
        let _ = writeln!(out, "source {} {{", source.name());
        let _ = writeln!(out, "  view: {}", source.view());
        let _ = writeln!(out, "  completeness: {}", source.completeness());
        let _ = writeln!(out, "  soundness: {}", source.soundness());
        let extension = crate::source::extension_view(source);
        if !extension.is_empty() {
            let facts: Vec<String> = extension
                .iter()
                .map(|f| format!("{}.", pscds_relational::parser::format_fact(f)))
                .collect();
            let _ = writeln!(out, "  extension: {}", facts.join(" "));
        }
        let _ = writeln!(out, "}}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_5_1;
    use pscds_relational::Value;

    const EXAMPLE_51: &str = r"
# The Example 5.1 collection.
source S1 {
  view: V1(x0) <- R(x0)
  completeness: 1/2
  soundness: 0.5
  extension: V1(a). V1(b).
}
source S2 {
  view: V2(x0) <- R(x0)
  completeness: 1/2
  soundness: 1/2
  extension: V2(b).
  extension: V2(c).  // may repeat
}
";

    #[test]
    fn parses_example_5_1() {
        let parsed = parse_collection(EXAMPLE_51).unwrap();
        assert_eq!(parsed, example_5_1());
    }

    #[test]
    fn round_trip() {
        let original = example_5_1();
        let text = format_collection(&original);
        let reparsed = parse_collection(&text).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn round_trip_with_join_views_and_builtins() {
        let text = r"
source S {
  view: V(s, y) <- Temp(s, y), Station(s, 'Canada'), After(y, 1900)
  completeness: 2/3
  soundness: 7/8
  extension: V(st1, 1950). V(st2, 1960).
}
";
        let parsed = parse_collection(text).unwrap();
        assert_eq!(parsed.len(), 1);
        let s = &parsed.sources()[0];
        assert_eq!(s.completeness(), Frac::new(2, 3));
        assert_eq!(s.extension_len(), 2);
        let reparsed = parse_collection(&format_collection(&parsed)).unwrap();
        assert_eq!(reparsed, parsed);
    }

    #[test]
    fn defaults_to_zero_bounds() {
        let parsed = parse_collection("source S {\n view: V(x) <- R(x)\n}").unwrap();
        let s = &parsed.sources()[0];
        assert_eq!(s.completeness(), Frac::ZERO);
        assert_eq!(s.soundness(), Frac::ZERO);
        assert_eq!(s.extension_len(), 0);
    }

    #[test]
    fn extension_facts_keep_symbolic_constants() {
        let parsed = parse_collection(
            "source S {\n view: V(x) <- R(x)\n extension: V(a). V('two words').\n}",
        )
        .unwrap();
        let ext = parsed.sources()[0].extension();
        assert!(ext.iter().any(|f| f.args[0] == Value::sym("a")));
        assert!(ext.iter().any(|f| f.args[0] == Value::sym("two words")));
    }

    #[test]
    fn error_reporting() {
        for (text, needle) in [
            ("view: V(x) <- R(x)", "outside a source block"),
            ("source {\n}", "name missing"),
            ("source S {\n}", "no `view:`"),
            (
                "source S {\n view: V(x) <- R(x)\n view: V(x) <- R(x)\n}",
                "duplicate",
            ),
            (
                "source S {\n view: V(x) <- R(x)\n wibble: 3\n}",
                "unknown key",
            ),
            (
                "source S {\n view: V(x) <- R(x)\n completeness: 5/4\n}",
                "exceeds 1",
            ),
            ("source S {\n view: V(x) <- R(x)", "missing its closing"),
            (
                "source S {\n view: V(x) <- R(x)\n soundness: x\n}",
                "invalid fraction",
            ),
        ] {
            let err = parse_collection(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn interval_round_trip() {
        use crate::confidence::intervals::ConfidenceInterval;
        for (lo, hi) in [(1u64, 2u64), (0, 1), (6, 7), (3, 4)] {
            let interval = ConfidenceInterval {
                lo: Rational::new(UBig::from(lo), UBig::from(7u64)),
                hi: Rational::new(UBig::from(hi), UBig::from(7u64)),
            };
            let text = format_interval(&interval);
            let reparsed = parse_interval(&text).unwrap();
            assert_eq!(reparsed, interval, "round trip of {text}");
        }
        // Integer endpoints render without a denominator and still parse.
        let point = ConfidenceInterval {
            lo: Rational::one(),
            hi: Rational::one(),
        };
        assert_eq!(format_interval(&point), "[1, 1]");
        assert_eq!(parse_interval("[1, 1]").unwrap(), point);
    }

    #[test]
    fn interval_parse_errors() {
        for (text, needle) in [
            ("1/2, 3/4", "form [lo, hi]"),
            ("[1/2]", "comma-separated"),
            ("[x, 1]", "numerator"),
            ("[1/0, 1]", "zero denominator"),
            ("[3/4, 1/2]", "below lower"),
        ] {
            let err = parse_interval(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{text:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# heading\n\nsource S { // trailing\n view: V(x) <- R(x) # why not\n}\n";
        assert_eq!(parse_collection(text).unwrap().len(), 1);
    }

    /// A one-source document whose line 5 is `extension: {value}`.
    fn with_extension(value: &str) -> String {
        format!(
            "# header\nsource S {{\n  view: V(x) <- R(x)\n  soundness: 1\n  extension: {value}\n}}\n"
        )
    }

    #[test]
    fn extension_errors_name_line_and_column() {
        for (value, expected) in [
            (
                "V(a). V(b.",
                "line 5, column 23: expected ',' or ')', found '.'",
            ),
            (
                "V(99999999999999999999)",
                "line 5, column 16: invalid integer literal '99999999999999999999'",
            ),
            ("V(-)", "line 5, column 16: invalid integer literal '-'"),
            (
                "V('unterminated",
                "line 5, column 16: unterminated quoted constant",
            ),
        ] {
            let err = parse_collection(&with_extension(value)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid source descriptor {expected}"),
                "{value:?}"
            );
        }
    }

    #[test]
    fn columns_count_characters() {
        // `ü` and `→` are two and three bytes; the column counts each as
        // one character.
        let err = parse_collection(&with_extension("V(ü). V(→)")).unwrap_err();
        assert!(
            err.to_string()
                .contains("line 5, column 22: unexpected character '→'"),
            "{err}"
        );
    }

    #[test]
    fn view_and_structure_errors_name_line_and_column() {
        for (text, needle) in [
            ("source S {\n  view: V(x) <- R(x\n}", "line 2, column 20:"),
            (
                "source S {\n  view: V(x, w) <- R(x)\n}",
                "line 2, column 9: unsafe query",
            ),
            ("  view: V(x) <- R(x)", "line 1, column 3: unexpected"),
            (
                "source S {\n  completeness: 5/4\n view: V(x) <- R(x)\n}",
                "line 4, column 1: source S: completeness",
            ),
            (
                "source S {\n  soundness: 1/x\n}",
                "line 2, column 14: invalid fraction",
            ),
            (
                "\n  source S {\n view: V(x) <- R(x)",
                "line 2, column 3: source S is missing",
            ),
            (
                "source S {\n view: V(x) <- R(x)\n extension: W(a).\n}",
                "line 4, column 1: source S: extension fact W(a)",
            ),
        ] {
            let err = parse_collection(text).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "{text:?}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn quoted_constants_keep_comment_characters() {
        let parsed = parse_collection(&with_extension(
            "V('a#b'). V(\"it's\"). V('c//d'). V('50%') # a comment: V(e). // more",
        ))
        .unwrap();
        let ext = parsed.sources()[0].extension();
        let symbols: Vec<String> = ext.iter().map(|f| f.args[0].to_string()).collect();
        assert_eq!(symbols, ["50%", "a#b", "c//d", "it's"]);
        assert_eq!(
            parse_collection(&format_collection(&parsed)).unwrap(),
            parsed
        );
        assert!(format_collection(&parsed).contains("V(\"it's\")."));
    }

    mod round_trip_property {
        use super::*;
        use proptest::prelude::*;
        use pscds_relational::parser::format_fact;
        use pscds_relational::{Atom, ConjunctiveQuery, Term};

        fn value() -> impl Strategy<Value = Value> {
            prop_oneof![
                prop_oneof![Just(i64::MIN), Just(i64::MAX), -99i64..99].prop_map(Value::int),
                "[a-z_][a-z0-9_]{0,4}".prop_map(|s| Value::sym(&s)),
                "[α-ωA-Z][α-ω0-9]{0,3}".prop_map(|s| Value::sym(&s)),
                "[a-c ,.#/%()']{0,6}".prop_map(|s| Value::sym(&s)),
            ]
        }

        fn comment() -> impl Strategy<Value = String> {
            "[a-z '#/%().]{0,8}"
        }

        /// A source: its view constant, bounds `(n, d)` each, facts, and
        /// the comments to interleave.
        type Spec = (
            Value,
            (u64, u64),
            (u64, u64),
            Vec<(Value, Value)>,
            Vec<String>,
        );

        fn spec() -> impl Strategy<Value = Spec> {
            (
                value(),
                (0u64..=4, 1u64..=4),
                (0u64..=4, 1u64..=4),
                proptest::collection::vec((value(), value()), 0..7),
                proptest::collection::vec(comment(), 6),
            )
        }

        fn build(specs: &[Spec]) -> SourceCollection {
            let bound = |(n, d): (u64, u64)| Frac::new(n.min(d), d);
            let sources = specs
                .iter()
                .enumerate()
                .map(|(i, (constant, c, s, facts, _))| {
                    let head = format!("V{i}");
                    let view = ConjunctiveQuery::new(
                        Atom::new(head.as_str(), [Term::var("x"), Term::var("y")]),
                        vec![Atom::new(
                            "R",
                            [Term::var("x"), Term::var("y"), Term::Const(*constant)],
                        )],
                    )
                    .unwrap();
                    let facts = facts.iter().map(|&(a, b)| Fact::new(head.as_str(), [a, b]));
                    SourceDescriptor::new(format!("S{i}"), view, facts, bound(*c), bound(*s))
                        .unwrap()
                });
            SourceCollection::from_sources(sources.collect::<Vec<_>>())
        }

        /// The collection written by hand: facts spread over several
        /// `extension:` lines, with `#`, `//` and `%` comments between
        /// and after them.
        fn hand_written(collection: &SourceCollection, specs: &[Spec]) -> String {
            let mut out = String::new();
            for (source, (.., comments)) in collection.sources().iter().zip(specs) {
                let _ = writeln!(
                    out,
                    "# {}\nsource {} {{ // {}",
                    comments[0],
                    source.name(),
                    comments[1]
                );
                let _ = writeln!(out, "  view: {} % {}", source.view(), comments[2]);
                let _ = writeln!(
                    out,
                    "  completeness: {} # {}",
                    source.completeness(),
                    comments[3]
                );
                let _ = writeln!(
                    out,
                    "  // {}\n  soundness: {}",
                    comments[4],
                    source.soundness()
                );
                let facts: Vec<&Fact> = source.extension().iter().collect();
                for (k, chunk) in facts.chunks(2).enumerate() {
                    let rendered: Vec<String> = chunk
                        .iter()
                        .map(|f| format!("{}.", format_fact(f)))
                        .collect();
                    let marker = ["#", "//", "%"][k % 3];
                    let _ = writeln!(
                        out,
                        "  extension: {} {marker} {}",
                        rendered.join(" "),
                        comments[5]
                    );
                }
                let _ = writeln!(out, "}}");
            }
            out
        }

        proptest! {
            #[test]
            fn format_then_parse_is_identity(specs in proptest::collection::vec(spec(), 1..4)) {
                let collection = build(&specs);
                let text = format_collection(&collection);
                let reparsed = parse_collection(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
                prop_assert_eq!(&reparsed, &collection);
                let text = hand_written(&collection, &specs);
                let reparsed = parse_collection(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
                prop_assert_eq!(reparsed, collection);
            }
        }
    }
}
