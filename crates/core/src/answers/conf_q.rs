//! The compositional confidence `conf_Q` (Definition 5.1).
//!
//! ```text
//! conf_R(t)          = confidence_R(t)                      (base relation)
//! conf_{π_A Q'}(t)   = ⊕_{t' : π_A t' = t} conf_{Q'}(t')    (projection)
//! conf_{σ_φ Q'}(t)   = conf_{Q'}(t)                         (selection)
//! conf_{Q'×Q''}(t't'') = conf_{Q'}(t') · conf_{Q''}(t'')    (product)
//! ```
//!
//! where `⊕ p_i = 1 − Π(1 − p_i)` is the independent-union combinator.
//! Union (not in the paper's grammar) is handled like projection:
//! `conf_{Q'∪Q''}(t) = conf_{Q'}(t) ⊕ conf_{Q''}(t)`.
//!
//! Evaluation is bottom-up over tables mapping each tuple of the
//! (restricted) possible answer to its confidence. Base tables come from a
//! [`BaseTableProvider`] — either the exact possible-world oracle or the
//! signature counter.

use crate::collection::IdentityCollection;
use crate::confidence::counting::ConfidenceAnalysis;
use crate::confidence::worlds::PossibleWorlds;
use crate::error::CoreError;
use pscds_numeric::Rational;
use pscds_relational::algebra::RaExpr;
use pscds_relational::{RelName, Value};
use std::collections::BTreeMap;

/// A table mapping answer tuples to confidences.
pub type ConfTable = BTreeMap<Vec<Value>, Rational>;

/// Supplies `confidence_R(t)` tables for base relations.
pub trait BaseTableProvider {
    /// The confidence table of base relation `rel`: every tuple with
    /// positive confidence in the modelled domain, with its confidence.
    ///
    /// # Errors
    /// Implementation-specific (inconsistent collection, unknown relation).
    fn base_table(&self, rel: RelName) -> Result<ConfTable, CoreError>;
}

/// Base tables computed by the brute-force possible-world oracle — exact
/// for arbitrary collections, exponential in the universe.
pub struct WorldsBaseTables<'a> {
    worlds: &'a PossibleWorlds,
}

impl<'a> WorldsBaseTables<'a> {
    /// Wraps an enumerated world set.
    #[must_use]
    pub fn new(worlds: &'a PossibleWorlds) -> Self {
        WorldsBaseTables { worlds }
    }
}

impl BaseTableProvider for WorldsBaseTables<'_> {
    fn base_table(&self, rel: RelName) -> Result<ConfTable, CoreError> {
        let mut table = ConfTable::new();
        for fact in self.worlds.universe().facts() {
            if fact.relation != rel {
                continue;
            }
            let conf = self.worlds.fact_confidence(fact)?;
            if !conf.is_zero() {
                table.insert(fact.args.clone(), conf);
            }
        }
        Ok(table)
    }
}

/// Base tables computed by the signature counter for identity-view
/// collections — polynomial in the data. The table lists the extension
/// tuples (the "named" possible facts); extension-free domain facts all
/// share the padding confidence, available via
/// [`IdentityBaseTables::padding_confidence`].
pub struct IdentityBaseTables<'a> {
    collection: &'a IdentityCollection,
    analysis: &'a ConfidenceAnalysis,
    extra_tuples: Vec<Vec<Value>>,
}

impl<'a> IdentityBaseTables<'a> {
    /// Wraps a completed analysis.
    #[must_use]
    pub fn new(collection: &'a IdentityCollection, analysis: &'a ConfidenceAnalysis) -> Self {
        IdentityBaseTables {
            collection,
            analysis,
            extra_tuples: Vec::new(),
        }
    }

    /// Additionally lists specific extension-free domain tuples in the
    /// base table (they carry the padding confidence).
    #[must_use]
    pub fn with_named_padding(mut self, tuples: Vec<Vec<Value>>) -> Self {
        self.extra_tuples = tuples;
        self
    }

    /// The shared confidence of extension-free domain facts.
    ///
    /// # Errors
    /// Inconsistent collection or zero padding.
    pub fn padding_confidence(&self) -> Result<Rational, CoreError> {
        self.analysis.padding_confidence()
    }
}

impl BaseTableProvider for IdentityBaseTables<'_> {
    fn base_table(&self, rel: RelName) -> Result<ConfTable, CoreError> {
        if rel != self.collection.relation {
            return Err(CoreError::BadDomain {
                message: format!(
                    "relation {rel} is not the identity collection's relation {}",
                    self.collection.relation
                ),
            });
        }
        let mut table = ConfTable::new();
        let confs = self.analysis.class_confidences()?;
        let classes = self.analysis.signature_analysis();
        for (tuple, sig) in self.collection.tuples_with_signatures() {
            let conf = &confs[classes.class_of(tuple, sig)?];
            if !conf.is_zero() {
                table.insert(tuple.to_vec(), conf.clone());
            }
        }
        for tuple in &self.extra_tuples {
            let conf = self.analysis.confidence_of_tuple(self.collection, tuple)?;
            if !conf.is_zero() {
                table.insert(tuple.clone(), conf);
            }
        }
        Ok(table)
    }
}

/// Evaluates `conf_Q` bottom-up, returning the full tuple-to-confidence
/// table of the (restricted) possible answer.
///
/// # Errors
/// Propagates base-table and algebra errors.
pub fn conf_q(expr: &RaExpr, base: &dyn BaseTableProvider) -> Result<ConfTable, CoreError> {
    match expr {
        RaExpr::Rel(rel) => base.base_table(*rel),
        RaExpr::Select(pred, inner) => {
            let input = conf_q(inner, base)?;
            let mut out = ConfTable::new();
            for (tuple, conf) in input {
                if pred.eval(&tuple)? {
                    out.insert(tuple, conf);
                }
            }
            Ok(out)
        }
        RaExpr::Project(cols, inner) => {
            let input = conf_q(inner, base)?;
            let mut out = ConfTable::new();
            for (tuple, conf) in input {
                let projected: Vec<Value> = cols
                    .iter()
                    .map(|&c| {
                        tuple.get(c).copied().ok_or_else(|| {
                            CoreError::Rel(pscds_relational::RelError::Algebra {
                                message: format!(
                                    "projection column {c} out of range for arity {}",
                                    tuple.len()
                                ),
                            })
                        })
                    })
                    .collect::<Result<_, _>>()?;
                match out.get_mut(&projected) {
                    Some(existing) => *existing = existing.prob_or(&conf),
                    None => {
                        out.insert(projected, conf);
                    }
                }
            }
            Ok(out)
        }
        RaExpr::Product(l, r) => {
            let left = conf_q(l, base)?;
            let right = conf_q(r, base)?;
            let mut out = ConfTable::new();
            for (lt, lc) in &left {
                for (rt, rc) in &right {
                    let mut tuple = lt.clone();
                    tuple.extend_from_slice(rt);
                    out.insert(tuple, lc.mul(rc));
                }
            }
            Ok(out)
        }
        RaExpr::Union(l, r) => {
            let mut out = conf_q(l, base)?;
            for (tuple, conf) in conf_q(r, base)? {
                match out.get_mut(&tuple) {
                    Some(existing) => *existing = existing.prob_or(&conf),
                    None => {
                        out.insert(tuple, conf);
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Evaluates `conf_Q` for a safe conjunctive query by compiling it to
/// relational algebra first (select-project-join compilation).
///
/// # Errors
/// Propagates compilation errors (e.g. head constants) and base-table
/// errors.
pub fn conf_q_cq(
    query: &pscds_relational::ConjunctiveQuery,
    base: &dyn BaseTableProvider,
) -> Result<ConfTable, CoreError> {
    let compiled = pscds_relational::compile::compile_cq(query)?;
    conf_q(&compiled, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{example_5_1, example_5_1_domain};
    use pscds_relational::algebra::{CmpOp, Operand, Predicate};

    fn worlds(m: usize) -> PossibleWorlds {
        PossibleWorlds::enumerate(&example_5_1(), &example_5_1_domain(m)).unwrap()
    }

    #[test]
    fn base_table_from_worlds() {
        let w = worlds(1);
        let base = WorldsBaseTables::new(&w);
        let table = base.base_table(RelName::new("R")).unwrap();
        // a, b, c, d1 all have positive confidence.
        assert_eq!(table.len(), 4);
        assert_eq!(table[&vec![Value::sym("b")]], Rational::from_u64(6, 7));
    }

    #[test]
    fn base_table_from_identity_analysis_matches_worlds() {
        let w = worlds(2);
        let worlds_base = WorldsBaseTables::new(&w)
            .base_table(RelName::new("R"))
            .unwrap();
        let id = example_5_1().as_identity().unwrap();
        let analysis = ConfidenceAnalysis::analyze(&id, 2);
        let named: Vec<Vec<Value>> = vec![vec![Value::sym("d1")], vec![Value::sym("d2")]];
        let id_base = IdentityBaseTables::new(&id, &analysis)
            .with_named_padding(named)
            .base_table(RelName::new("R"))
            .unwrap();
        assert_eq!(worlds_base, id_base);
    }

    #[test]
    fn selection_passes_confidence_through() {
        let w = worlds(0);
        let base = WorldsBaseTables::new(&w);
        let q = RaExpr::rel("R").select(Predicate::Cmp(
            Operand::Col(0),
            CmpOp::Eq,
            Operand::Const(Value::sym("b")),
        ));
        let table = conf_q(&q, &base).unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(table[&vec![Value::sym("b")]], Rational::from_u64(4, 5));
    }

    #[test]
    fn projection_merges_with_prob_or() {
        // π over a product: duplicates merge via ⊕.
        let w = worlds(0);
        let base = WorldsBaseTables::new(&w);
        // π_[0](R) is the identity on a unary R: no merging.
        let q = RaExpr::rel("R").project([0]);
        let id_table = conf_q(&q, &base).unwrap();
        let base_table = base.base_table(RelName::new("R")).unwrap();
        assert_eq!(id_table, base_table);

        // π onto zero columns: one empty tuple with conf ⊕ over all tuples.
        let q0 = RaExpr::rel("R").project([]);
        let t0 = conf_q(&q0, &base).unwrap();
        assert_eq!(t0.len(), 1);
        let expected = Rational::prob_or_all(base_table.values());
        assert_eq!(t0[&Vec::<Value>::new()], expected);
    }

    #[test]
    fn product_multiplies() {
        let w = worlds(0);
        let base = WorldsBaseTables::new(&w);
        let q = RaExpr::rel("R").product(RaExpr::rel("R"));
        let table = conf_q(&q, &base).unwrap();
        // 3 base tuples -> 9 pairs.
        assert_eq!(table.len(), 9);
        let conf_a = Rational::from_u64(3, 5);
        let conf_b = Rational::from_u64(4, 5);
        assert_eq!(
            table[&vec![Value::sym("a"), Value::sym("b")]],
            conf_a.mul(&conf_b)
        );
    }

    #[test]
    fn union_merges_with_prob_or() {
        let w = worlds(0);
        let base = WorldsBaseTables::new(&w);
        let q = RaExpr::rel("R").union(RaExpr::rel("R"));
        let table = conf_q(&q, &base).unwrap();
        let conf_b = Rational::from_u64(4, 5);
        assert_eq!(table[&vec![Value::sym("b")]], conf_b.prob_or(&conf_b));
    }

    #[test]
    fn identity_base_rejects_unknown_relation() {
        let id = example_5_1().as_identity().unwrap();
        let analysis = ConfidenceAnalysis::analyze(&id, 0);
        let base = IdentityBaseTables::new(&id, &analysis);
        assert!(base.base_table(RelName::new("S")).is_err());
        assert!(base.base_table(RelName::new("R")).is_ok());
    }

    #[test]
    fn conf_q_cq_matches_exact_for_identity_rule() {
        // The identity rule compiles to π(R) with all columns — its conf_Q
        // table must match the base-fact confidences exactly.
        let w = worlds(1);
        let base = WorldsBaseTables::new(&w);
        let rule = pscds_relational::parser::parse_rule("Ans(x) <- R(x)").unwrap();
        let table = conf_q_cq(&rule, &base).unwrap();
        let base_table = base.base_table(RelName::new("R")).unwrap();
        assert_eq!(table, base_table);
        // And against the exact per-tuple query confidence.
        for (tuple, conf) in &table {
            let fact = pscds_relational::Fact::new("Ans", tuple.clone());
            let exact = w.query_confidence_cq(&rule, &fact).unwrap();
            assert_eq!(&exact, conf);
        }
    }

    #[test]
    fn conf_q_cq_selection_rule_exact() {
        // Rules whose compilation is σ-only over one relation stay exact.
        let w = worlds(1);
        let base = WorldsBaseTables::new(&w);
        let rule = pscds_relational::parser::parse_rule("Ans(x) <- R(x), Neq(x, 'b')").unwrap();
        let table = conf_q_cq(&rule, &base).unwrap();
        assert!(!table.contains_key(&vec![Value::sym("b")]));
        for (tuple, conf) in &table {
            let fact = pscds_relational::Fact::new("Ans", tuple.clone());
            let exact = w.query_confidence_cq(&rule, &fact).unwrap();
            assert_eq!(&exact, conf, "tuple {tuple:?}");
        }
    }

    #[test]
    fn all_confidences_are_probabilities() {
        let w = worlds(1);
        let base = WorldsBaseTables::new(&w);
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("R"))
            .project([0])
            .union(RaExpr::rel("R"));
        let table = conf_q(&q, &base).unwrap();
        for (tuple, conf) in &table {
            assert!(conf.is_probability(), "conf({tuple:?}) = {conf}");
            assert!(!conf.is_zero());
        }
    }
}
