//! Source descriptors `⟨φ, v, c, s⟩` (Section 2.3).

use crate::collection::IdentitySource;
use crate::error::CoreError;
use pscds_numeric::Frac;
use pscds_relational::{ConjunctiveQuery, Fact, RelName};
use std::collections::BTreeSet;
use std::fmt;

/// A data source: a view definition over the global schema, the extension
/// the source currently holds, and claimed lower bounds on completeness
/// and soundness.
///
/// Fidelity note: the paper's Section 2.3 displays the descriptor as
/// `⟨φ, v, c, s, f, r⟩`, but the `f` and `r` components are never defined
/// or used anywhere in the paper (an apparent editing leftover); every
/// later section works with `⟨φ_i, v_i, c_i, s_i⟩`, which is what this
/// type implements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceDescriptor {
    name: String,
    view: ConjunctiveQuery,
    extension: BTreeSet<Fact>,
    completeness: Frac,
    soundness: Frac,
}

impl SourceDescriptor {
    /// Creates a descriptor, validating that:
    ///
    /// * `c, s ∈ [0,1]`,
    /// * every extension fact is over the view's head relation with the
    ///   head's arity.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidDescriptor`] on violation.
    pub fn new<I: IntoIterator<Item = Fact>>(
        name: impl Into<String>,
        view: ConjunctiveQuery,
        extension: I,
        completeness: Frac,
        soundness: Frac,
    ) -> Result<Self, CoreError> {
        let name = name.into();
        if !completeness.is_probability() {
            return Err(CoreError::InvalidDescriptor {
                source: name,
                message: format!("completeness bound {completeness} exceeds 1"),
            });
        }
        if !soundness.is_probability() {
            return Err(CoreError::InvalidDescriptor {
                source: name,
                message: format!("soundness bound {soundness} exceeds 1"),
            });
        }
        let head = view.head();
        let extension: BTreeSet<Fact> = extension.into_iter().collect();
        for fact in &extension {
            if fact.relation != head.relation || fact.arity() != head.arity() {
                return Err(CoreError::InvalidDescriptor {
                    source: name,
                    message: format!("extension fact {fact} does not match view head {head}"),
                });
            }
        }
        Ok(SourceDescriptor {
            name,
            view,
            extension,
            completeness,
            soundness,
        })
    }

    /// Convenience constructor for the Section 5.1 special case: an
    /// identity view over global relation `rel`, extension given as
    /// argument tuples.
    ///
    /// # Errors
    /// Propagates [`SourceDescriptor::new`] validation.
    pub fn identity<I, T>(
        name: impl Into<String>,
        head_name: &str,
        rel: &str,
        arity: usize,
        tuples: I,
        completeness: Frac,
        soundness: Frac,
    ) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = pscds_relational::Value>,
    {
        let view = ConjunctiveQuery::identity(head_name, rel, arity);
        let head_rel = view.head().relation;
        let extension = tuples.into_iter().map(|t| Fact {
            relation: head_rel,
            args: t.into_iter().collect(),
        });
        SourceDescriptor::new(name, view, extension, completeness, soundness)
    }

    /// A *sound* source in Grahne–Mendelzon's Boolean sense
    /// (`v ⊆ φ(D)`): soundness bound 1, completeness unconstrained. The
    /// paper generalizes exactly this `{0,1}` setting to `[0,1]` bounds.
    ///
    /// # Errors
    /// As [`SourceDescriptor::new`].
    pub fn sound<I: IntoIterator<Item = Fact>>(
        name: impl Into<String>,
        view: ConjunctiveQuery,
        extension: I,
    ) -> Result<Self, CoreError> {
        SourceDescriptor::new(name, view, extension, Frac::ZERO, Frac::ONE)
    }

    /// A *complete* source (`v ⊇ φ(D)`): completeness bound 1, soundness
    /// unconstrained.
    ///
    /// # Errors
    /// As [`SourceDescriptor::new`].
    pub fn complete<I: IntoIterator<Item = Fact>>(
        name: impl Into<String>,
        view: ConjunctiveQuery,
        extension: I,
    ) -> Result<Self, CoreError> {
        SourceDescriptor::new(name, view, extension, Frac::ONE, Frac::ZERO)
    }

    /// An *exact* source (`v = φ(D)`): both bounds 1.
    ///
    /// # Errors
    /// As [`SourceDescriptor::new`].
    pub fn exact<I: IntoIterator<Item = Fact>>(
        name: impl Into<String>,
        view: ConjunctiveQuery,
        extension: I,
    ) -> Result<Self, CoreError> {
        SourceDescriptor::new(name, view, extension, Frac::ONE, Frac::ONE)
    }

    /// The source's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view definition `φ`.
    #[must_use]
    pub fn view(&self) -> &ConjunctiveQuery {
        &self.view
    }

    /// The view extension `v`.
    #[must_use]
    pub fn extension(&self) -> &BTreeSet<Fact> {
        &self.extension
    }

    /// `|v|` — the extension size `k_i`.
    #[must_use]
    pub fn extension_len(&self) -> usize {
        self.extension.len()
    }

    /// The completeness lower bound `c`.
    #[must_use]
    pub fn completeness(&self) -> Frac {
        self.completeness
    }

    /// The soundness lower bound `s`.
    #[must_use]
    pub fn soundness(&self) -> Frac {
        self.soundness
    }

    /// Minimum number of sound tuples forced by the soundness bound:
    /// `⌈s·|v|⌉` (inequality (3) in Section 4).
    #[must_use]
    pub fn min_sound_tuples(&self) -> u64 {
        self.soundness.ceil_mul(self.extension.len() as u64)
    }

    /// The head's local relation name.
    #[must_use]
    pub fn local_relation(&self) -> RelName {
        self.view.head().relation
    }

    /// `true` iff the view is the identity over some global relation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.view.identity_over().is_some()
    }

    /// The source as an identity-view source: its extension's argument
    /// tuples, cloned.
    pub(crate) fn identity_source(&self) -> IdentitySource {
        IdentitySource {
            name: self.name.clone(),
            tuples: self.extension.iter().map(|f| f.args.clone()).collect(),
            completeness: self.completeness,
            soundness: self.soundness,
        }
    }

    /// [`identity_source`](Self::identity_source), moving the tuples
    /// out of the facts.
    pub(crate) fn into_identity_source(self) -> IdentitySource {
        IdentitySource {
            name: self.name,
            tuples: self.extension.into_iter().map(|f| f.args).collect(),
            completeness: self.completeness,
            soundness: self.soundness,
        }
    }
}

impl fmt::Display for SourceDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨{}: {}, |v|={}, c≥{}, s≥{}⟩",
            self.name,
            self.view,
            self.extension.len(),
            self.completeness,
            self.soundness
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscds_relational::parser::{parse_fact, parse_rule};
    use pscds_relational::Value;

    fn frac(n: u64, d: u64) -> Frac {
        Frac::new(n, d)
    }

    #[test]
    fn valid_descriptor() {
        let view = parse_rule("V(x) <- R(x)").unwrap();
        let ext = [parse_fact("V(a)").unwrap(), parse_fact("V(b)").unwrap()];
        let s = SourceDescriptor::new("S1", view, ext, frac(1, 2), frac(1, 2)).unwrap();
        assert_eq!(s.extension_len(), 2);
        assert_eq!(s.min_sound_tuples(), 1);
        assert!(s.is_identity());
        assert_eq!(s.name(), "S1");
    }

    #[test]
    fn bounds_validated() {
        let view = parse_rule("V(x) <- R(x)").unwrap();
        let bad_c = SourceDescriptor::new("S", view.clone(), [], frac(3, 2), frac(1, 2));
        assert!(matches!(bad_c, Err(CoreError::InvalidDescriptor { .. })));
        let bad_s = SourceDescriptor::new("S", view, [], frac(1, 2), frac(3, 2));
        assert!(bad_s.is_err());
    }

    #[test]
    fn extension_must_match_head() {
        let view = parse_rule("V(x) <- R(x)").unwrap();
        // Wrong relation name.
        let bad_rel = SourceDescriptor::new(
            "S",
            view.clone(),
            [parse_fact("W(a)").unwrap()],
            frac(1, 1),
            frac(1, 1),
        );
        assert!(bad_rel.is_err());
        // Wrong arity.
        let bad_arity = SourceDescriptor::new(
            "S",
            view,
            [parse_fact("V(a, b)").unwrap()],
            frac(1, 1),
            frac(1, 1),
        );
        assert!(bad_arity.is_err());
    }

    #[test]
    fn identity_constructor() {
        let s = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")], [Value::sym("b")]],
            frac(1, 2),
            frac(1, 2),
        )
        .unwrap();
        assert!(s.is_identity());
        assert_eq!(s.extension_len(), 2);
        assert_eq!(s.view().to_string(), "V1(x0) <- R(x0)");
    }

    #[test]
    fn min_sound_tuples_rounding() {
        let s = SourceDescriptor::identity(
            "S",
            "V",
            "R",
            1,
            [[Value::sym("a")], [Value::sym("b")], [Value::sym("c")]],
            frac(0, 1),
            frac(1, 2),
        )
        .unwrap();
        // ceil(0.5 * 3) = 2
        assert_eq!(s.min_sound_tuples(), 2);
    }

    #[test]
    fn grahne_mendelzon_boolean_constructors() {
        // The {0,1} special case: Boolean sound/complete/exact sources.
        let view = parse_rule("V(x) <- R(x)").unwrap();
        let ext = [parse_fact("V(a)").unwrap()];

        let sound = SourceDescriptor::sound("S", view.clone(), ext.clone()).unwrap();
        assert_eq!(sound.soundness(), Frac::ONE);
        assert_eq!(sound.completeness(), Frac::ZERO);

        let complete = SourceDescriptor::complete("C", view.clone(), ext.clone()).unwrap();
        assert_eq!(complete.completeness(), Frac::ONE);
        assert_eq!(complete.soundness(), Frac::ZERO);

        let exact = SourceDescriptor::exact("E", view, ext).unwrap();
        assert_eq!(exact.completeness(), Frac::ONE);
        assert_eq!(exact.soundness(), Frac::ONE);

        // Semantics: against D = {R(a), R(b)} —
        use pscds_relational::Database;
        let d = Database::from_facts([parse_fact("R(a)").unwrap(), parse_fact("R(b)").unwrap()]);
        // sound: v ⊆ φ(D) holds;
        assert!(crate::measures::satisfies(&d, &sound).unwrap());
        // complete: v ⊉ φ(D) (missing b) — violated;
        assert!(!crate::measures::satisfies(&d, &complete).unwrap());
        // exact: violated too.
        assert!(!crate::measures::satisfies(&d, &exact).unwrap());
        // Against D = {R(a)} all three hold.
        let d = Database::from_facts([parse_fact("R(a)").unwrap()]);
        for s in [&sound, &complete, &exact] {
            assert!(crate::measures::satisfies(&d, s).unwrap());
        }
    }

    #[test]
    fn join_view_is_not_identity() {
        let view = parse_rule("V(x) <- R(x, y), S(y)").unwrap();
        let s = SourceDescriptor::new("S", view, [], frac(1, 1), frac(1, 1)).unwrap();
        assert!(!s.is_identity());
    }

    #[test]
    fn display() {
        let s = SourceDescriptor::identity(
            "S1",
            "V",
            "R",
            1,
            [[Value::sym("a")]],
            frac(1, 2),
            frac(1, 3),
        )
        .unwrap();
        let text = s.to_string();
        assert!(text.contains("S1"));
        assert!(text.contains("c≥1/2"));
        assert!(text.contains("s≥1/3"));
    }
}
