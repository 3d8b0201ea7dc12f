//! Source collections `S = {S₁, …, S_n}` and collection-level metadata.

use crate::descriptor::SourceDescriptor;
use crate::error::CoreError;
use pscds_numeric::Frac;
use pscds_relational::{GlobalSchema, RelName, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A collection of source descriptors over a shared global schema.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceCollection {
    sources: Vec<SourceDescriptor>,
}

/// The identity-view special case of Section 5.1: every view is the
/// identity over one shared global relation. Extensions are exposed as raw
/// argument tuples for the signature machinery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdentityCollection {
    /// The shared global relation.
    pub relation: RelName,
    /// Its arity.
    pub arity: usize,
    /// Per source: `(tuples, completeness bound, soundness bound)`.
    pub sources: Vec<IdentitySource>,
}

/// One source of an [`IdentityCollection`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdentitySource {
    /// The source's name (for reporting).
    pub name: String,
    /// The extension as raw argument tuples.
    pub tuples: BTreeSet<Vec<Value>>,
    /// Completeness lower bound `c`.
    pub completeness: Frac,
    /// Soundness lower bound `s`.
    pub soundness: Frac,
}

impl SourceCollection {
    /// The empty collection (vacuously consistent: every database is
    /// possible).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a collection from descriptors.
    #[must_use]
    pub fn from_sources<I: IntoIterator<Item = SourceDescriptor>>(sources: I) -> Self {
        SourceCollection {
            sources: sources.into_iter().collect(),
        }
    }

    /// Adds a source.
    pub fn push(&mut self, source: SourceDescriptor) {
        self.sources.push(source);
    }

    /// The sources, in insertion order.
    #[must_use]
    pub fn sources(&self) -> &[SourceDescriptor] {
        &self.sources
    }

    /// Number of sources `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` iff there are no sources.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// `sch(S)`: the global relations (with arities) referenced by the view
    /// bodies (built-ins excluded).
    ///
    /// # Errors
    /// Fails if two views use a relation with different arities.
    pub fn schema(&self) -> Result<GlobalSchema, CoreError> {
        let mut schema = GlobalSchema::new();
        for s in &self.sources {
            schema.merge(&s.view().body_schema()?)?;
        }
        Ok(schema)
    }

    /// All constants appearing in view extensions and view definitions —
    /// the base constant pool `dom₀ ∩ active domain` of the NP-membership
    /// argument.
    #[must_use]
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for s in &self.sources {
            // lint-allow(source-provider): constant-pool construction is part
            // of assembling the catalog snapshot itself, below the provider
            for fact in s.extension() {
                out.extend(fact.args.iter().copied());
            }
            for atom in std::iter::once(s.view().head()).chain(s.view().body().iter()) {
                out.extend(atom.terms.iter().filter_map(|t| t.as_const()));
            }
        }
        out
    }

    /// Total extension size `Σ_i |v_i|`.
    #[must_use]
    pub fn total_extension_size(&self) -> usize {
        self.sources
            .iter()
            .map(SourceDescriptor::extension_len)
            .sum()
    }

    /// The Lemma 3.1 small-model bound:
    /// `max_i |body(φ_i)| · Σ_i |v_i|`. If the collection is consistent, a
    /// witness no larger than this exists.
    #[must_use]
    pub fn lemma31_bound(&self) -> usize {
        let max_body = self
            .sources
            .iter()
            .map(|s| s.view().body_len())
            .max()
            .unwrap_or(0);
        max_body * self.total_extension_size()
    }

    /// Interprets the collection as the Section 5.1 identity-view special
    /// case.
    ///
    /// # Errors
    /// Returns [`CoreError::NotIdentityCollection`] if any view is not an
    /// identity, or the views cover more than one global relation.
    pub fn as_identity(&self) -> Result<IdentityCollection, CoreError> {
        let (relation, arity) = self.identity_relation()?;
        Ok(IdentityCollection {
            relation,
            arity,
            sources: self
                .sources
                .iter()
                .map(SourceDescriptor::identity_source)
                .collect(),
        })
    }

    /// [`as_identity`](Self::as_identity), taking the extension tuples
    /// over instead of cloning them.
    ///
    /// # Errors
    /// As [`as_identity`](Self::as_identity).
    pub fn into_identity(self) -> Result<IdentityCollection, CoreError> {
        let (relation, arity) = self.identity_relation()?;
        Ok(IdentityCollection {
            relation,
            arity,
            sources: self
                .sources
                .into_iter()
                .map(SourceDescriptor::into_identity_source)
                .collect(),
        })
    }

    /// The one global relation, with its arity, that every view is the
    /// identity over.
    fn identity_relation(&self) -> Result<(RelName, usize), CoreError> {
        let mut relation: Option<(RelName, usize)> = None;
        for s in &self.sources {
            let rel = s
                .view()
                .identity_over()
                .ok_or_else(|| CoreError::NotIdentityCollection {
                    message: format!("source {} has non-identity view {}", s.name(), s.view()),
                })?;
            let arity = s.view().head().arity();
            match relation {
                None => relation = Some((rel, arity)),
                Some((r, a)) => {
                    if r != rel || a != arity {
                        return Err(CoreError::NotIdentityCollection {
                            message: format!(
                                "source {} is over {rel}/{arity}, but earlier sources are over {r}/{a}",
                                s.name()
                            ),
                        });
                    }
                }
            }
        }
        relation.ok_or_else(|| CoreError::NotIdentityCollection {
            message: "empty collection has no distinguished relation".into(),
        })
    }
}

impl IdentityCollection {
    /// The union of all extensions (distinct tuples claimed by any source).
    /// Clones every tuple; [`tuples_with_signatures`](Self::tuples_with_signatures)
    /// borrows them and classifies them in the same pass.
    #[must_use]
    pub fn all_tuples(&self) -> BTreeSet<Vec<Value>> {
        self.sources
            .iter()
            .flat_map(|s| s.tuples.iter().cloned())
            .collect()
    }

    /// The membership signature of a tuple: bit `i` set iff source `i`
    /// claims it.
    #[must_use]
    pub fn signature_of(&self, tuple: &[Value]) -> u64 {
        let mut sig = 0u64;
        for (i, s) in self.sources.iter().enumerate() {
            if s.tuples.contains(tuple) {
                sig |= 1 << i;
            }
        }
        sig
    }

    /// Every distinct extension tuple once, ascending, with its membership
    /// signature: `all_tuples()` paired with `signature_of` per tuple, from
    /// one n-way merge of the sorted extensions instead of `n` set probes
    /// per tuple. The merge finds the smallest head by tuple order, then
    /// advances every source whose head equals it (equality compares
    /// symbol ids, not strings).
    #[must_use]
    pub fn tuples_with_signatures(&self) -> Vec<(&[Value], u64)> {
        let mut heads: Vec<_> = self
            .sources
            .iter()
            .map(|s| s.tuples.iter().peekable())
            .collect();
        let widest = self.sources.iter().map(|s| s.tuples.len()).max();
        let mut out = Vec::with_capacity(widest.unwrap_or(0));
        loop {
            let mut least: Option<&Vec<Value>> = None;
            for head in &mut heads {
                if let Some(&t) = head.peek() {
                    if least.is_none_or(|l| t < l) {
                        least = Some(t);
                    }
                }
            }
            let Some(least) = least else {
                return out;
            };
            let mut sig = 0u64;
            for (i, head) in heads.iter_mut().enumerate() {
                if head.next_if(|&t| t == least).is_some() {
                    sig |= 1 << i;
                }
            }
            out.push((least.as_slice(), sig));
        }
    }
}

impl fmt::Display for SourceCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SourceCollection ({} sources):", self.sources.len())?;
        for s in &self.sources {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SourceDescriptor;
    use pscds_numeric::Frac;
    use pscds_relational::parser::{parse_fact, parse_rule};

    fn half() -> Frac {
        Frac::HALF
    }

    /// The Example 5.1 collection: S₁ = ⟨Id_R, {R(a),R(b)}, ½, ½⟩,
    /// S₂ = ⟨Id_R, {R(b),R(c)}, ½, ½⟩ (extensions written over the local
    /// names V1/V2).
    pub(crate) fn example51() -> SourceCollection {
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")], [Value::sym("b")]],
            half(),
            half(),
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[Value::sym("b")], [Value::sym("c")]],
            half(),
            half(),
        )
        .unwrap();
        SourceCollection::from_sources([s1, s2])
    }

    #[test]
    fn schema_extraction() {
        let c = example51();
        let schema = c.schema().unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.arity(RelName::new("R")), Some(1));
    }

    #[test]
    fn schema_conflict_detected() {
        let s1 = SourceDescriptor::new(
            "S1",
            parse_rule("V(x) <- R(x)").unwrap(),
            [],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let s2 = SourceDescriptor::new(
            "S2",
            parse_rule("W(x, y) <- R(x, y)").unwrap(),
            [],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([s1, s2]);
        assert!(c.schema().is_err());
    }

    #[test]
    fn constants_include_extension_and_view() {
        let s = SourceDescriptor::new(
            "S",
            parse_rule("V(y) <- Temp(y), After(y, 1900)").unwrap(),
            [parse_fact("V(1950)").unwrap()],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([s]);
        let consts = c.constants();
        assert!(consts.contains(&Value::int(1950)));
        assert!(consts.contains(&Value::int(1900)));
    }

    #[test]
    fn lemma31_bound() {
        let c = example51();
        // max body length 1, total extension 4 => bound 4.
        assert_eq!(c.lemma31_bound(), 4);
        assert_eq!(c.total_extension_size(), 4);
        assert_eq!(SourceCollection::new().lemma31_bound(), 0);
    }

    #[test]
    fn as_identity_accepts_example51() {
        let c = example51();
        let id = c.as_identity().unwrap();
        assert_eq!(id.relation, RelName::new("R"));
        assert_eq!(id.arity, 1);
        assert_eq!(id.sources.len(), 2);
        assert_eq!(id.all_tuples().len(), 3); // a, b, c
    }

    #[test]
    fn as_identity_rejects_joins_and_mixed_relations() {
        let join = SourceDescriptor::new(
            "S",
            parse_rule("V(x) <- R(x, y), S(y)").unwrap(),
            [],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([join]);
        assert!(matches!(
            c.as_identity(),
            Err(CoreError::NotIdentityCollection { .. })
        ));

        let over_r = SourceDescriptor::identity(
            "A",
            "V1",
            "R",
            1,
            [[Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let over_s = SourceDescriptor::identity(
            "B",
            "V2",
            "S",
            1,
            [[Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let mixed = SourceCollection::from_sources([over_r, over_s]);
        assert!(mixed.as_identity().is_err());

        assert!(SourceCollection::new().as_identity().is_err());
    }

    #[test]
    fn signatures() {
        let id = example51().as_identity().unwrap();
        assert_eq!(id.signature_of(&[Value::sym("a")]), 0b01);
        assert_eq!(id.signature_of(&[Value::sym("b")]), 0b11);
        assert_eq!(id.signature_of(&[Value::sym("c")]), 0b10);
        assert_eq!(id.signature_of(&[Value::sym("d")]), 0b00);
    }

    #[test]
    fn display_lists_sources() {
        let text = example51().to_string();
        assert!(text.contains("2 sources"));
        assert!(text.contains("S1"));
        assert!(text.contains("S2"));
    }
}
