//! Exact answer checking: the DFS oracle's answers for a catalog, and a
//! parser for the table `pscds confidence` prints.

use crate::gen::Catalog;
use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::ConfidenceAnalysis;
use pscds_numeric::{Rational, UBig};
use pscds_relational::Value;
use std::collections::HashMap;

/// A catalog with its oracle analysis: the serial signature DFS,
/// [`ConfidenceAnalysis::analyze`], which every engine must match bit for
/// bit.
pub struct Oracle {
    pub identity: IdentityCollection,
    pub analysis: ConfidenceAnalysis,
    padding: u64,
}

impl Oracle {
    pub fn new(catalog: &Catalog) -> Self {
        let identity = catalog.collection.as_identity().expect("identity views");
        let analysis = ConfidenceAnalysis::analyze(&identity, catalog.padding);
        Oracle {
            identity,
            analysis,
            padding: catalog.padding,
        }
    }

    /// The exact confidence of a named tuple.
    pub fn confidence(&self, tuple: &[Value]) -> Rational {
        self.analysis
            .confidence_of_tuple(&self.identity, tuple)
            .expect("consistent catalog, named tuple")
    }

    /// The whole answer of `pscds confidence` on this catalog.
    pub fn table(&self) -> Table {
        let rows = self
            .identity
            .all_tuples()
            .into_iter()
            .map(|t| (render_tuple(&self.identity, &t), self.confidence(&t)))
            .collect();
        Table {
            worlds: self.analysis.world_count().clone(),
            rows,
            padding: (self.padding > 0).then(|| {
                self.analysis
                    .padding_confidence()
                    .expect("a positive padding has a padding class")
            }),
        }
    }
}

/// `R(a, b)`, as the CLI renders a tuple.
pub fn render_tuple(identity: &IdentityCollection, tuple: &[Value]) -> String {
    let values: Vec<String> = tuple.iter().map(ToString::to_string).collect();
    format!("{}({})", identity.relation, values.join(", "))
}

/// `t1=p/q,t2=p/q,…`: how the in-process workers report answer rows.
pub fn render_rows(rows: &[(Value, Rational)]) -> String {
    let cells: Vec<String> = rows.iter().map(|(t, r)| format!("{t}={r}")).collect();
    cells.join(",")
}

/// A confidence answer: the world count, every named tuple's confidence
/// keyed by its rendering, and the padding facts' confidence.
#[derive(Debug, PartialEq)]
pub struct Table {
    pub worlds: UBig,
    pub rows: HashMap<String, Rational>,
    pub padding: Option<Rational>,
}

/// Parses `p/q` or `p` exactly.
pub fn parse_rational(text: &str) -> Result<Rational, String> {
    let bad = || format!("not a rational: {text:?}");
    let (num, den) = match text.split_once('/') {
        Some((n, d)) => (n, d),
        None => (text, "1"),
    };
    let num: UBig = num.parse().map_err(|_| bad())?;
    let den: UBig = den.parse().map_err(|_| bad())?;
    if den.is_zero() {
        return Err(bad());
    }
    Ok(Rational::new(num, den))
}

/// Parses the stdout of `pscds confidence` (any exact engine): the
/// `|poss(S)| = N` line, every `R(x)  p/q  ≈f` row, and the
/// `(each of the P unlisted domain facts: p/q ≈f)` row.
pub fn parse_confidence_output(text: &str) -> Result<Table, String> {
    let mut worlds = None;
    let mut rows = HashMap::new();
    let mut padding = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("|poss(S)| = ") {
            let count = rest.split(' ').next().unwrap_or_default();
            worlds = Some(
                count
                    .parse()
                    .map_err(|_| format!("bad world count in {line:?}"))?,
            );
        } else if let Some(rest) = line.strip_prefix("  (each of the ") {
            let value = rest
                .split_once(": ")
                .and_then(|(_, v)| v.split(' ').next())
                .ok_or_else(|| format!("bad padding row {line:?}"))?;
            padding = Some(parse_rational(value)?);
        } else if let Some(rest) = line.strip_prefix("  ") {
            let mut parts = rest.split("  ");
            let (Some(tuple), Some(value), Some(approx)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("bad confidence row {line:?}"));
            };
            if !approx.starts_with('≈') {
                return Err(format!("bad confidence row {line:?}"));
            }
            if rows
                .insert(tuple.to_owned(), parse_rational(value)?)
                .is_some()
            {
                return Err(format!("tuple {tuple} listed twice"));
            }
        }
    }
    Ok(Table {
        worlds: worlds.ok_or("no |poss(S)| line")?,
        rows,
        padding,
    })
}

/// `Ok` iff `got` is exactly `want`; otherwise the first difference.
pub fn compare(want: &Table, got: &Table) -> Result<(), String> {
    if got.worlds != want.worlds {
        return Err(format!("|poss(S)| {} != {}", got.worlds, want.worlds));
    }
    if got.rows.len() != want.rows.len() {
        return Err(format!("{} rows != {}", got.rows.len(), want.rows.len()));
    }
    for (tuple, conf) in &want.rows {
        match got.rows.get(tuple) {
            Some(c) if c == conf => {}
            Some(c) => return Err(format!("{tuple}: {c} != {conf}")),
            None => return Err(format!("{tuple} missing")),
        }
    }
    if got.padding != want.padding {
        return Err(format!("padding {:?} != {:?}", got.padding, want.padding));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscds_core::paper::example_5_1_scaled;

    /// `pscds confidence scaled48.pscds --padding 48 --max-steps 400000
    /// --threads 1`, captured, keeping three of its 144 rows: a ladder
    /// line, big integers, `≈` columns and the padding row.
    const CAPTURED: &str = "engine: dp — the DFS counter exceeded the budget; the memoized DP finished (still an exact result, padding 48)
|poss(S)| = 1228787201072824754412707060509946193033269319569132229902 (padding 48, 1000825 feasible count vectors)
tuple confidences (descending):
  R(b1)  353355416777116178111244962368470939312708253135727626887/614393600536412377206353530254973096516634659784566114951  ≈0.5751
  R(c1)  635432608048115962583777719614014037085330065460186025239/1228787201072824754412707060509946193033269319569132229902  ≈0.5171
  R(c9)  635432608048115962583777719614014037085330065460186025239/1228787201072824754412707060509946193033269319569132229902  ≈0.5171
  (each of the 48 unlisted domain facts: 281898575483091845203577256725262943797670343662064649728/614393600536412377206353530254973096516634659784566114951 ≈0.4588)
";

    #[test]
    fn parses_captured_cli_output_exactly() {
        let big = |s: &str| s.parse::<UBig>().unwrap();
        let table = parse_confidence_output(CAPTURED).unwrap();
        let worlds = big("1228787201072824754412707060509946193033269319569132229902");
        assert_eq!(table.worlds, worlds);
        assert_eq!(table.rows.len(), 3);
        let b = Rational::new(
            big("353355416777116178111244962368470939312708253135727626887"),
            big("614393600536412377206353530254973096516634659784566114951"),
        );
        assert_eq!(table.rows["R(b1)"], b);
        let c = Rational::new(
            big("635432608048115962583777719614014037085330065460186025239"),
            worlds,
        );
        assert_eq!(table.rows["R(c1)"], c);
        assert_eq!(table.rows["R(c9)"], c);
        let pad = Rational::new(
            big("281898575483091845203577256725262943797670343662064649728"),
            big("614393600536412377206353530254973096516634659784566114951"),
        );
        assert_eq!(table.padding, Some(pad));
        assert_eq!(parse_rational("1").unwrap(), Rational::one());
        assert_eq!(parse_rational("2/4").unwrap(), Rational::from_u64(1, 2));
    }

    #[test]
    fn malformed_output_is_rejected() {
        assert!(parse_confidence_output("tuple confidences (descending):\n").is_err());
        assert!(parse_confidence_output("|poss(S)| = 7 (padding 0)\n  R(a)  1/0  ≈1\n").is_err());
        assert!(parse_confidence_output("|poss(S)| = x\n").is_err());
        let twice = "|poss(S)| = 7 (p)\n  R(a)  1  ≈1\n  R(a)  1  ≈1\n";
        assert!(parse_confidence_output(twice).is_err());
    }

    #[test]
    fn oracle_table_round_trips_through_the_cli_rendering() {
        let catalog = Catalog {
            name: "scaled2".into(),
            collection: example_5_1_scaled(2),
            padding: 2,
        };
        let want = Oracle::new(&catalog).table();
        let mut text = format!("|poss(S)| = {} (padding 2)\n", want.worlds);
        for (tuple, conf) in &want.rows {
            text.push_str(&format!("  {tuple}  {conf}  ≈{:.4}\n", conf.to_f64()));
        }
        let pad = want.padding.clone().unwrap();
        text.push_str(&format!(
            "  (each of the 2 unlisted domain facts: {pad} ≈0.1)\n"
        ));
        let got = parse_confidence_output(&text).unwrap();
        assert_eq!(compare(&want, &got), Ok(()));
        let mut wrong = got;
        *wrong.rows.get_mut("R(a1)").unwrap() = Rational::from_u64(1, 3);
        assert!(compare(&want, &wrong).is_err());
    }
}
