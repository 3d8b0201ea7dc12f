//! A seeded mutation corpus for the catalog parser: truncations, splices
//! and byte flips of a small catalog, plus a huge numeral in an
//! extension and in a bound, a run of unmatched parentheses and a 1 MiB
//! extension line.
//!
//! Every case must return (no panic), every error from
//! `parse_collection` must name a line and column inside the input, and
//! every `RelError::Parse` from `parse_facts`/`parse_rule` an offset on a
//! character boundary of the input. The large cases also bound the time
//! generously: linear work finishes in milliseconds, a quadratic rescan
//! of 10^5 or 10^6 bytes would not finish at all.

use pscds_core::textfmt::parse_collection;
use pscds_relational::parser::{parse_fact, parse_facts, parse_rule};
use pscds_relational::RelError;
use std::time::{Duration, Instant};

const CATALOG: &str = "# A small catalog with every kind of line.
source S1 {
  view: V1(x, y) <- R(x, y), After(y, 1900)   % trailing
  completeness: 1/2
  soundness: 0.75   // trailing
  extension: V1(a, 1950). V1('b c', 1960). V1(\"it's\", -7).
  extension: V1('a#b', 2000). # hash
}
source S2 {
  view: V2(x, y) <- R(x, y)
  soundness: 1
  extension: V2(a, 1950). V2(Zürich, 1999).
}
";

const OTHER: &str = "source T {
  view: W(x) <- R(x, 'const')
  completeness: 1
  extension: W(p). W('q//r'). W(\"s'\").
}
";

/// splitmix64: the corpus is the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The `line L, column C` an error names, if any.
fn position(message: &str) -> Option<(usize, usize)> {
    let rest = &message[message.find("line ")? + "line ".len()..];
    let (line, rest) = rest.split_once(", column ")?;
    let column: String = rest.chars().take_while(char::is_ascii_digit).collect();
    Some((line.parse().ok()?, column.parse().ok()?))
}

/// Parses `text` as a catalog and checks the error, if any, names a
/// position inside it.
fn check_collection(text: &str) {
    let Err(e) = parse_collection(text) else {
        return;
    };
    let message = e.to_string();
    let (line, column) =
        position(&message).unwrap_or_else(|| panic!("{text:?}: no line and column in {message}"));
    // A block left open is reported at its `source` line; every other
    // error at a line of the input.
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        (1..=lines.len()).contains(&line),
        "{text:?}: line {line} outside the input: {message}"
    );
    let width = lines[line - 1].chars().count();
    assert!(
        (1..=width + 1).contains(&column),
        "{text:?}: column {column} outside line {line}: {message}"
    );
}

/// Runs the fact and rule parsers on `text` and checks each parse
/// error's offset.
fn check_relational(text: &str) {
    for result in [
        parse_facts(text).map(drop),
        parse_fact(text).map(drop),
        parse_rule(text).map(drop),
    ] {
        if let Err(RelError::Parse { offset, message }) = result {
            assert!(
                text.is_char_boundary(offset),
                "{text:?}: offset {offset} is not a character boundary: {message}"
            );
        }
    }
}

fn check(text: &str) {
    check_collection(text);
    check_relational(text);
}

/// `bytes` as text, with any invalid UTF-8 replaced.
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn the_base_catalogs_parse() {
    assert_eq!(parse_collection(CATALOG).unwrap().len(), 2);
    assert_eq!(parse_collection(OTHER).unwrap().len(), 1);
}

#[test]
fn every_truncation() {
    let bytes = CATALOG.as_bytes();
    for cut in 0..=bytes.len() {
        check(&lossy(&bytes[..cut]));
    }
}

#[test]
fn spliced_halves() {
    let (a, b) = (CATALOG.as_bytes(), OTHER.as_bytes());
    let mut rng = Rng(23);
    for _ in 0..400 {
        let (i, j) = (rng.below(a.len() + 1), rng.below(b.len() + 1));
        check(&lossy(&[&a[..i], &b[j..]].concat()));
        check(&lossy(&[&b[..j], &a[i..]].concat()));
    }
}

#[test]
fn single_byte_flips() {
    let mut rng = Rng(7);
    for _ in 0..3000 {
        let mut bytes = CATALOG.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(8);
        check(&lossy(&bytes));
    }
    // Every position, replaced by each delimiter the grammar knows.
    for at in 0..CATALOG.len() {
        for b in *b"(),.:'\"#%/{}\n" {
            let mut bytes = CATALOG.as_bytes().to_vec();
            bytes[at] = b;
            check(&lossy(&bytes));
        }
    }
}

/// A catalog whose line 5 is `extension: {value}`.
fn with_extension(value: &str) -> String {
    format!(
        "# header\nsource S {{\n  view: V(x) <- R(x)\n  soundness: 1\n  extension: {value}\n}}\n"
    )
}

/// Checks `text` within a generous time bound and returns the
/// catalog's error message.
fn timed_error(text: &str) -> String {
    let start = Instant::now();
    check(text);
    let message = parse_collection(text)
        .expect_err("the case is malformed")
        .to_string();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
    message
}

#[test]
fn a_huge_numeral() {
    let digits = "9".repeat(100_000);
    let message = timed_error(&with_extension(&format!("V({digits}).")));
    assert!(
        message.contains("line 5, column 16: invalid integer literal"),
        "{}",
        &message[..100]
    );
    assert!(message.len() < 200, "the message quotes the numeral whole");
    let message = timed_error(&with_extension(&format!("V(-{digits}")));
    assert!(message.contains("line 5, column 16"));
}

#[test]
fn a_huge_bound_numeral() {
    let digits = "9".repeat(100_000);
    let with_bound =
        |value: &str| format!("source S {{\n  view: V(x) <- R(x)\n  completeness: {value}\n}}\n");
    for (value, what) in [
        (format!("{digits}/2"), "bad numerator"),
        (format!("1/{digits}"), "bad denominator"),
        (format!("{digits}x"), "bad integer"),
        (format!("{digits}.5"), "bad integer part"),
        (format!("0.{digits}"), "more than 18 decimal places"),
        (format!("0.5{digits}x"), "more than 18 decimal places"),
        ("1x.5".to_owned(), "bad integer part \"1x\""),
        ("0.5x".to_owned(), "bad fractional part \"5x\""),
    ] {
        let message = timed_error(&with_bound(&value));
        assert!(
            message.contains(&format!("line 3, column 17: invalid fraction: {what}")),
            "{}",
            &message[..message.len().min(200)]
        );
        assert!(message.len() < 200, "the message quotes the field whole");
    }
}

#[test]
fn a_huge_stray_line() {
    let long = "x".repeat(100_000);
    for text in [
        format!("{long}\n"),
        format!("source S {{\n  view: V(x) <- R(x)\n  {long}\n}}\n"),
        format!("source S {{\n  view: V(x) <- R(x)\n  {long}: 1\n}}\n"),
    ] {
        let message = timed_error(&text);
        assert!(message.len() < 200, "the message quotes the line whole");
    }
}

#[test]
fn unmatched_parentheses() {
    let opens = "(".repeat(100_000);
    let message = timed_error(&with_extension(&format!("V{opens}")));
    assert!(
        message.contains("line 5, column 16: expected term, found '('"),
        "{message}"
    );
    let view = format!("source S {{\n  view: V(x) <- R{opens}\n}}\n");
    let message = timed_error(&view);
    assert!(
        message.contains("line 2, column 19: expected term, found '('"),
        "{message}"
    );
}

#[test]
fn a_one_mebibyte_extension_line() {
    let mut facts = String::new();
    let mut n = 0;
    while facts.len() < 1 << 20 {
        facts.push_str(&format!("V('t {n}'). "));
        n += 1;
    }
    let start = Instant::now();
    let parsed = parse_collection(&with_extension(&facts)).unwrap();
    assert_eq!(parsed.sources()[0].extension_len(), n);
    assert!(start.elapsed() < Duration::from_secs(10));
    // The same line, broken after its last fact.
    let columns = "  extension: ".len() + facts.chars().count() + 1;
    let message = timed_error(&with_extension(&format!("{facts}V(")));
    assert!(
        message.contains(&format!("line 5, column {}: expected term", columns + 2)),
        "{message}"
    );
    // An unterminated quote at its start scans the line once.
    let message = timed_error(&with_extension(&format!("V(\"{facts}")));
    assert!(
        message.contains("line 5, column 16: unterminated quoted constant"),
        "{message}"
    );
}
