//! Exact model counting over signature classes.
//!
//! `N_sol(Γ) = Σ_{feasible (k_σ)} Π_σ C(|class σ|, k_σ)` — every feasible
//! count vector contributes one binomial product, since the members of a
//! class are exchangeable. For the confidence of a fact in class `σ₀`,
//! symmetry gives
//!
//! ```text
//! #worlds containing t = Σ_{feasible} (k_σ₀ / |class σ₀|) · Π_σ C(|class σ|, k_σ)
//! ```
//!
//! which stays integral because `k·C(n,k) = n·C(n−1,k−1)`; we accumulate
//! the numerator `Σ Π C · k_σ₀` and divide by `|class σ₀| · N_sol(Γ)` at
//! the end, in exact rational arithmetic.
//!
//! [`ConfidenceAnalysis::from_signature_analysis_parallel`] is the one
//! governed entry: the serial walk and the prefix-chunk workers fold each
//! feasible vector through the same per-vector sum.

use crate::collection::IdentityCollection;
use crate::confidence::signature::SignatureAnalysis;
use crate::error::CoreError;
use crate::govern::Budget;
use crate::partition::{self, ParallelConfig};
use pscds_numeric::binomial::RowId;
use pscds_numeric::{Rational, RowCache, UBig};
use pscds_relational::Value;
use std::sync::Arc;

/// A weighted world count split by class, with the confidences it fixes:
/// `weight` worlds in all, `joint[c]` of them weighted by their free
/// class-`c` tuples, and `confidence[c] = joint[c] / (weight ·
/// remaining_c)` — divided once, when the counts are made, and read by
/// every query after. A confidence is zero where no class tuple remains
/// or no world exists. The exact engines make one at the empty event
/// (`weight = |poss(S)|`, `joint` the class numerators, every class
/// tuple remaining); the circuit makes one per event table and shares
/// it with every analysis it answers (`circuit.rs`).
#[derive(Clone, Debug)]
pub(crate) struct ClassCounts {
    pub(crate) weight: UBig,
    pub(crate) joint: Vec<UBig>,
    confidences: Box<[Rational]>,
}

impl ClassCounts {
    /// The counts, with one exact division per class; `remaining(c)` is
    /// the number of class-`c` tuples outside the event.
    pub(crate) fn new(weight: UBig, joint: Vec<UBig>, remaining: impl Fn(usize) -> u64) -> Self {
        let confidences = (joint.iter().enumerate())
            .map(|(class, num)| {
                let rest = remaining(class);
                if weight.is_zero() || rest == 0 {
                    Rational::zero()
                } else {
                    Rational::new(num.clone(), weight.mul_u64(rest))
                }
            })
            .collect();
        ClassCounts {
            weight,
            joint,
            confidences,
        }
    }

    /// The confidence of a class-`class` tuple outside the event.
    pub(crate) fn confidence(&self, class: usize) -> &Rational {
        &self.confidences[class]
    }
}

/// The result of an exact confidence analysis of an identity-view
/// collection over a finite domain. The decomposition and the counts are
/// shared, not owned: a circuit hands every query the same two.
#[derive(Debug)]
pub struct ConfidenceAnalysis {
    analysis: Arc<SignatureAnalysis>,
    /// `N_sol(Γ) = |poss(S)|` over the finite domain, the per-class
    /// numerators `Σ_{feasible} Π_σ C(|σ|,k_σ) · k_class`, and the class
    /// confidences they fix.
    counts: Arc<ClassCounts>,
    /// Number of feasible count vectors visited.
    feasible_vectors: u64,
}

impl ConfidenceAnalysis {
    /// Runs the exact counter. `padding` is the number of domain facts in
    /// no extension (see
    /// [`SignatureAnalysis::padding_for_domain`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use pscds_core::confidence::ConfidenceAnalysis;
    /// use pscds_core::paper::example_5_1;
    /// use pscds_numeric::Rational;
    /// use pscds_relational::Value;
    ///
    /// let identity = example_5_1().as_identity()?;
    /// // Domain {a, b, c, d1}: one extension-free fact.
    /// let analysis = ConfidenceAnalysis::analyze(&identity, 1);
    /// let conf_b = analysis.confidence_of_tuple(&identity, &[Value::sym("b")])?;
    /// assert_eq!(conf_b, Rational::from_u64(6, 7));
    /// # Ok::<(), pscds_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn analyze(collection: &IdentityCollection, padding: u64) -> Self {
        Self::analyze_budgeted(collection, padding, &Budget::unlimited())
            // lint-allow(no-panic): an unlimited budget has no deadline, step cap, or cancel flag to trip
            .expect("an unlimited budget never interrupts the counter")
    }

    /// Budget-governed variant of [`ConfidenceAnalysis::analyze`]: the
    /// feasibility DFS behind the count charges one budget step per node.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget runs out before the
    /// count completes.
    pub fn analyze_budgeted(
        collection: &IdentityCollection,
        padding: u64,
        budget: &Budget,
    ) -> Result<Self, CoreError> {
        let analysis = SignatureAnalysis::new(collection, padding);
        Self::from_signature_analysis_parallel(analysis, budget, &ParallelConfig::serial())
    }

    /// The counter over a prebuilt decomposition. A serial `config` walks
    /// the whole feasibility DFS; otherwise the DFS is split into prefix
    /// chunks (see [`SignatureAnalysis::prefix_plan`]) counted across
    /// `config.threads()` workers. The per-chunk sums are exact `UBig`
    /// values merged in chunk order, so the result is bit-identical for
    /// every thread count.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget runs out before the
    /// count completes.
    pub fn from_signature_analysis_parallel(
        analysis: SignatureAnalysis,
        budget: &Budget,
        config: &ParallelConfig,
    ) -> Result<Self, CoreError> {
        let tallies = if config.is_serial() {
            // The whole walk, not the empty-prefix chunk: a chunk ticks
            // once more on entry.
            let mut tally = Tally::new(&analysis);
            analysis.try_for_each_feasible(budget, |counts| tally.add(counts))?;
            vec![tally.finish()]
        } else {
            let prefixes = analysis.prefix_plan(config.target_chunks());
            let outcomes =
                partition::run_chunks(config, budget, &prefixes, |_, prefix, budget, _| {
                    let mut tally = Tally::new(&analysis);
                    analysis.try_for_each_feasible_from(prefix, budget, |counts| {
                        tally.add(counts);
                    })?;
                    Ok(tally.finish())
                })?;
            outcomes.into_iter().flatten().collect()
        };
        // Exact integer sums are associative and commutative; merging in
        // chunk order makes the outcome independent of scheduling anyway.
        let mut total = UBig::zero();
        let mut class_numerators = vec![UBig::zero(); analysis.classes().len()];
        let mut feasible_vectors = 0u64;
        for (part_total, part_numerators, vectors) in tallies {
            total.add_assign(&part_total);
            for (acc, part) in class_numerators.iter_mut().zip(&part_numerators) {
                acc.add_assign(part);
            }
            feasible_vectors += vectors;
        }
        Ok(Self::from_parts(
            analysis,
            total,
            class_numerators,
            feasible_vectors,
        ))
    }

    /// The raw aggregates `(total, class_numerators, feasible_vectors)` —
    /// the inverse of [`ConfidenceAnalysis::from_parts`], which the
    /// engine tests compare bit for bit.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&UBig, &[UBig], u64) {
        (
            &self.counts.weight,
            &self.counts.joint,
            self.feasible_vectors,
        )
    }

    /// Assembles a result from parts computed by a sibling engine (the
    /// residual-state DP of [`crate::confidence::dp`]).
    pub(crate) fn from_parts(
        analysis: SignatureAnalysis,
        total: UBig,
        class_numerators: Vec<UBig>,
        feasible_vectors: u64,
    ) -> Self {
        debug_assert_eq!(class_numerators.len(), analysis.classes().len());
        let classes = analysis.classes();
        let counts = ClassCounts::new(total, class_numerators, |class| classes[class].size);
        Self::shared(Arc::new(analysis), Arc::new(counts), feasible_vectors)
    }

    /// Assembles a result from a decomposition and counts made at the
    /// empty event, both shared with their maker (the circuit).
    pub(crate) fn shared(
        analysis: Arc<SignatureAnalysis>,
        counts: Arc<ClassCounts>,
        feasible_vectors: u64,
    ) -> Self {
        debug_assert_eq!(counts.joint.len(), analysis.classes().len());
        ConfidenceAnalysis {
            analysis,
            counts,
            feasible_vectors,
        }
    }

    /// `N_sol(Γ)` — the number of possible worlds over the finite domain.
    #[must_use]
    pub fn world_count(&self) -> &UBig {
        &self.counts.weight
    }

    /// Number of feasible count vectors (the outer sum's length) — a
    /// complexity diagnostic.
    #[must_use]
    pub fn feasible_vectors(&self) -> u64 {
        self.feasible_vectors
    }

    /// `true` iff the collection is consistent over this domain.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        !self.counts.weight.is_zero()
    }

    /// The underlying signature decomposition.
    #[must_use]
    pub fn signature_analysis(&self) -> &SignatureAnalysis {
        &self.analysis
    }

    /// Confidence of any fact in class `class_idx`, as stored when the
    /// counts were made.
    ///
    /// # Errors
    /// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
    pub fn class_confidence(&self, class_idx: usize) -> Result<Rational, CoreError> {
        Ok(self.class_confidences()?[class_idx].clone())
    }

    /// Every class's confidence, by class index: one exact division per
    /// class, made once and shared by all of the class's members.
    ///
    /// # Errors
    /// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
    pub fn class_confidences(&self) -> Result<&[Rational], CoreError> {
        if self.counts.weight.is_zero() {
            return Err(CoreError::InconsistentCollection);
        }
        Ok(&self.counts.confidences)
    }

    /// Confidence of a specific tuple (`confidence(t_p)` of Section 5.1).
    /// `signature` must be the tuple's membership signature (see
    /// [`IdentityCollection::signature_of`]); use
    /// [`ConfidenceAnalysis::confidence_of_tuple`] for the convenient form.
    ///
    /// # Errors
    /// Inconsistent collections and out-of-domain tuples.
    pub fn confidence_with_signature(
        &self,
        tuple: &[Value],
        signature: u64,
    ) -> Result<Rational, CoreError> {
        let idx = self.analysis.class_of(tuple, signature)?;
        self.class_confidence(idx)
    }

    /// Confidence of a tuple, computing its signature from the collection.
    ///
    /// # Errors
    /// Inconsistent collections and out-of-domain tuples.
    pub fn confidence_of_tuple(
        &self,
        collection: &IdentityCollection,
        tuple: &[Value],
    ) -> Result<Rational, CoreError> {
        self.confidence_with_signature(tuple, collection.signature_of(tuple))
    }

    /// The *certain* base tuples (Section 5's `Q_*` for the identity
    /// query): extension tuples present in **every** possible world, i.e.
    /// confidence exactly 1.
    ///
    /// # Errors
    /// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
    pub fn certain_tuples(&self) -> Result<Vec<Vec<Value>>, CoreError> {
        self.tuples_with(|conf| conf.is_one())
    }

    /// The *possible* named base tuples (`Q*` for the identity query,
    /// restricted to extension tuples): confidence strictly positive.
    /// Extension-free domain facts are additionally possible whenever
    /// [`ConfidenceAnalysis::padding_confidence`] is positive.
    ///
    /// # Errors
    /// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
    pub fn possible_tuples(&self) -> Result<Vec<Vec<Value>>, CoreError> {
        self.tuples_with(|conf| !conf.is_zero())
    }

    fn tuples_with<F: Fn(&Rational) -> bool>(&self, keep: F) -> Result<Vec<Vec<Value>>, CoreError> {
        let confs = self.class_confidences()?;
        let mut out = Vec::new();
        for (class, conf) in self.analysis.classes().iter().zip(confs) {
            if class.members.is_empty() {
                continue; // padding class: unnamed tuples
            }
            if keep(conf) {
                out.extend(class.members.iter().cloned());
            }
        }
        out.sort();
        Ok(out)
    }

    /// The expected world size `E[|D|]` under the uniform distribution on
    /// `poss(S)` — exactly `Σ_classes numerator_class / N_sol(Γ)` (each
    /// class numerator is `Σ_worlds k_class`).
    ///
    /// # Errors
    /// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
    pub fn expected_world_size(&self) -> Result<Rational, CoreError> {
        let total = &self.counts.weight;
        if total.is_zero() {
            return Err(CoreError::InconsistentCollection);
        }
        let mut num = UBig::zero();
        for n in &self.counts.joint {
            num.add_assign(n);
        }
        Ok(Rational::new(num, total.clone()))
    }

    /// Joint confidence `Pr(t ∈ D ∧ t' ∈ D | D ∈ poss(S))` for two
    /// *distinct* tuples, given their class indices. Runs one extra pass
    /// over the feasible count vectors.
    ///
    /// By exchangeability, for distinct facts in classes `i ≠ j` the count
    /// of worlds containing both is `Σ prod·(k_i/n_i)(k_j/n_j)`, and for
    /// two distinct facts of the same class `Σ prod·k(k−1)/(n(n−1))` —
    /// both kept exact by accumulating the integer numerators.
    ///
    /// Comparing `joint` with `conf(t)·conf(t')` exhibits precisely the
    /// possible-world correlations that make Theorem 5.1's independence
    /// assumption fail for products (experiment E6).
    ///
    /// # Errors
    /// Inconsistent collections; same-class pairs need class size ≥ 2.
    pub fn joint_class_confidence(
        &self,
        class_i: usize,
        class_j: usize,
    ) -> Result<Rational, CoreError> {
        let total = &self.counts.weight;
        if total.is_zero() {
            return Err(CoreError::InconsistentCollection);
        }
        let classes = self.analysis.classes();
        let (ni, nj) = (classes[class_i].size, classes[class_j].size);
        if class_i == class_j && ni < 2 {
            return Err(CoreError::BadDomain {
                message: format!("class of size {ni} holds no two distinct facts"),
            });
        }
        let mut tally = Tally::new(&self.analysis);
        let (mut num, mut scaled) = (UBig::zero(), UBig::zero());
        self.analysis.for_each_feasible(|counts| {
            let weight = if class_i == class_j {
                let k = counts[class_i];
                if k < 2 {
                    return;
                }
                k * (k - 1)
            } else {
                let prod = counts[class_i] * counts[class_j];
                if prod == 0 {
                    return;
                }
                prod
            };
            tally.advance(counts).mul_u64_into(weight, &mut scaled);
            num.add_assign(&scaled);
        });
        let den = if class_i == class_j {
            total.mul_u64(ni).mul_u64(ni - 1)
        } else {
            total.mul_u64(ni).mul_u64(nj)
        };
        Ok(Rational::new(num, den))
    }

    /// Joint confidence of two distinct tuples (see
    /// [`ConfidenceAnalysis::joint_class_confidence`]).
    ///
    /// # Errors
    /// Inconsistent collections, out-of-domain tuples, or identical
    /// tuples (use the single-tuple confidence for those).
    pub fn joint_confidence_of(
        &self,
        collection: &IdentityCollection,
        tuple_a: &[Value],
        tuple_b: &[Value],
    ) -> Result<Rational, CoreError> {
        if tuple_a == tuple_b {
            return Err(CoreError::BadDomain {
                message: "joint confidence needs two distinct tuples".into(),
            });
        }
        let class_a = self
            .analysis
            .class_of(tuple_a, collection.signature_of(tuple_a))?;
        let class_b = self
            .analysis
            .class_of(tuple_b, collection.signature_of(tuple_b))?;
        self.joint_class_confidence(class_a, class_b)
    }

    /// Confidence of the extension-free ("padding") facts, if a padding
    /// class exists.
    ///
    /// # Errors
    /// Inconsistent collection, or no padding class.
    pub fn padding_confidence(&self) -> Result<Rational, CoreError> {
        let idx = self
            .analysis
            .classes()
            .iter()
            .position(|c| c.signature == 0)
            .ok_or_else(|| CoreError::BadDomain {
                message: "analysis has no padding class (padding = 0)".into(),
            })?;
        self.class_confidence(idx)
    }
}

/// One walk's share of the count: every feasible count vector's binomial
/// product `Π_σ C(|σ|, k_σ)`, summed into the world total and, scaled by
/// each class's count, into the class numerators.
///
/// The sums are amortized over the order the vectors arrive in — correct
/// for any order, cheap for a DFS, whose consecutive vectors share long
/// prefixes. `prefix[j] = Π_{l<j} C(n_l, k_l)` of the last vector, so a
/// vector first differing at level `d` recomputes only `prefix[d+1..]`.
/// `group[j]` sums the products of the run of vectors sharing the last
/// vector's `counts[0..=j]`; those share `k_j`, so closing the run pays
/// `k_j · group[j]` into `class_numerators[j]` once and hands `group[j]`
/// up to `group[j−1]` (or `total`).
pub(crate) struct Tally {
    /// Binomial rows are interned and extended lazily: the feasibility
    /// pruning often visits only a tiny prefix of each row (for Example
    /// 5.1 the million-fact padding class never needs k > 1), and a full
    /// Pascal row of a 10^6-sized class would be astronomically large.
    rows: RowCache,
    row_ids: Vec<RowId>,
    /// The last vector (all zero at first, which the all-one `prefix`
    /// matches since `C(n, 0) = 1`).
    counts: Vec<u64>,
    prefix: Vec<UBig>,
    group: Vec<UBig>,
    scratch: UBig,
    total: UBig,
    class_numerators: Vec<UBig>,
    vectors: u64,
}

impl Tally {
    pub(crate) fn new(analysis: &SignatureAnalysis) -> Self {
        let m = analysis.classes().len();
        let mut rows = RowCache::new();
        let row_ids = analysis
            .classes()
            .iter()
            .map(|c| rows.intern(c.size))
            .collect();
        Tally {
            rows,
            row_ids,
            counts: vec![0; m],
            prefix: vec![UBig::one(); m + 1],
            group: vec![UBig::zero(); m],
            scratch: UBig::zero(),
            total: UBig::zero(),
            class_numerators: vec![UBig::zero(); m],
            vectors: 0,
        }
    }

    /// Makes `counts` the last vector: closes the runs it leaves and
    /// recomputes their prefix products. Returns its binomial product.
    fn advance(&mut self, counts: &[u64]) -> &UBig {
        let m = counts.len();
        let d = (self.counts.iter().zip(counts)).position(|(old, new)| old != new);
        let d = d.unwrap_or(m);
        self.close(d);
        for j in d..m {
            self.counts[j] = counts[j];
            let (head, tail) = self.prefix.split_at_mut(j + 1);
            let binom = self.rows.get(self.row_ids[j], counts[j]);
            binom.mul_into(&head[j], &mut tail[0]);
        }
        &self.prefix[m]
    }

    /// Closes the runs at levels `d..`, deepest first.
    fn close(&mut self, d: usize) {
        for j in (d..self.group.len()).rev() {
            let (outer, inner) = self.group.split_at_mut(j);
            let run = &mut inner[0];
            if !run.is_zero() {
                run.mul_u64_into(self.counts[j], &mut self.scratch);
                self.class_numerators[j].add_assign(&self.scratch);
                outer.last_mut().unwrap_or(&mut self.total).add_assign(run);
                run.set_u64(0);
            }
        }
    }

    /// Adds one feasible count vector.
    pub(crate) fn add(&mut self, counts: &[u64]) {
        self.advance(counts);
        self.vectors += 1;
        let run = self.group.last_mut().unwrap_or(&mut self.total);
        run.add_assign(&self.prefix[counts.len()]);
    }

    /// Closes every open run: `(total, class_numerators, vectors)`.
    pub(crate) fn finish(mut self) -> (UBig, Vec<UBig>, u64) {
        self.close(0);
        (self.total, self.class_numerators, self.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{example_5_1, example_5_1_domain};
    use pscds_numeric::Frac;

    fn analyze(m: u64) -> (IdentityCollection, ConfidenceAnalysis) {
        let id = example_5_1().as_identity().unwrap();
        let a = ConfidenceAnalysis::analyze(&id, m);
        (id, a)
    }

    #[test]
    fn world_count_m0() {
        let (_, a) = analyze(0);
        // Brute force gives 5 possible worlds at m = 0.
        assert_eq!(a.world_count(), &UBig::from(5u64));
        assert!(a.is_consistent());
    }

    #[test]
    fn world_count_formula() {
        // Re-derived closed form: |poss| = 2m + 5.
        for m in 0..20u64 {
            let (_, a) = analyze(m);
            assert_eq!(a.world_count(), &UBig::from(2 * m + 5), "m = {m}");
        }
    }

    #[test]
    fn confidence_closed_forms() {
        // Re-derived: conf(a) = conf(c) = (m+3)/(2m+5), conf(b) = (2m+4)/(2m+5),
        // conf(d_i) = 2/(2m+5).
        for m in [0u64, 1, 2, 5, 17, 100] {
            let (id, a) = analyze(m);
            let conf_a = a.confidence_of_tuple(&id, &[Value::sym("a")]).unwrap();
            let conf_b = a.confidence_of_tuple(&id, &[Value::sym("b")]).unwrap();
            let conf_c = a.confidence_of_tuple(&id, &[Value::sym("c")]).unwrap();
            assert_eq!(conf_a, Rational::from_u64(m + 3, 2 * m + 5), "a at m={m}");
            assert_eq!(
                conf_b,
                Rational::from_u64(2 * m + 4, 2 * m + 5),
                "b at m={m}"
            );
            assert_eq!(conf_c, Rational::from_u64(m + 3, 2 * m + 5), "c at m={m}");
            if m > 0 {
                let conf_d = a.padding_confidence().unwrap();
                assert_eq!(conf_d, Rational::from_u64(2, 2 * m + 5), "d at m={m}");
            }
        }
    }

    #[test]
    fn asymptotics_match_paper_discussion() {
        // The paper's qualitative claims: conf(b) → 1, conf(a) → 1/2,
        // conf(d_i) → 0 as m → ∞. These hold for the corrected formulas too.
        let (id, a) = analyze(1_000_000);
        let b = a
            .confidence_of_tuple(&id, &[Value::sym("b")])
            .unwrap()
            .to_f64();
        let aa = a
            .confidence_of_tuple(&id, &[Value::sym("a")])
            .unwrap()
            .to_f64();
        let d = a.padding_confidence().unwrap().to_f64();
        assert!((b - 1.0).abs() < 1e-5);
        assert!((aa - 0.5).abs() < 1e-5);
        assert!(d < 1e-5);
    }

    #[test]
    fn matches_brute_force_oracle() {
        // Cross-check against direct world enumeration for small m.
        use crate::confidence::worlds::PossibleWorlds;
        for m in 0..4usize {
            let c = example_5_1();
            let dom = example_5_1_domain(m);
            let worlds = PossibleWorlds::enumerate(&c, &dom).unwrap();
            let (id, a) = analyze(m as u64);
            assert_eq!(
                a.world_count(),
                &UBig::from(worlds.count() as u64),
                "world count at m={m}"
            );
            for sym in ["a", "b", "c"] {
                let fact = pscds_relational::Fact::new("R", [Value::sym(sym)]);
                let exact = worlds.fact_confidence(&fact).unwrap();
                let fast = a.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap();
                assert_eq!(exact, fast, "confidence({sym}) at m={m}");
            }
        }
    }

    #[test]
    fn inconsistent_collection_yields_error() {
        use crate::descriptor::SourceDescriptor;
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let id = crate::collection::SourceCollection::from_sources([s1, s2])
            .as_identity()
            .unwrap();
        let a = ConfidenceAnalysis::analyze(&id, 3);
        assert!(!a.is_consistent());
        assert!(matches!(
            a.confidence_of_tuple(&id, &[Value::sym("a")]),
            Err(CoreError::InconsistentCollection)
        ));
    }

    #[test]
    fn single_exact_source() {
        use crate::descriptor::SourceDescriptor;
        // One exact source: the only possible world is exactly its extension.
        let s = SourceDescriptor::identity(
            "S",
            "V",
            "R",
            1,
            [[Value::sym("a")], [Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let id = crate::collection::SourceCollection::from_sources([s])
            .as_identity()
            .unwrap();
        let a = ConfidenceAnalysis::analyze(&id, 10);
        assert_eq!(a.world_count(), &UBig::one());
        assert_eq!(
            a.confidence_of_tuple(&id, &[Value::sym("a")]).unwrap(),
            Rational::one()
        );
        assert_eq!(a.padding_confidence().unwrap(), Rational::zero());
    }

    #[test]
    fn unconstrained_source_gives_half() {
        use crate::descriptor::SourceDescriptor;
        // Zero bounds: every subset of the domain is a world; every fact is
        // in exactly half of them.
        let s = SourceDescriptor::identity(
            "S",
            "V",
            "R",
            1,
            [[Value::sym("a")]],
            Frac::ZERO,
            Frac::ZERO,
        )
        .unwrap();
        let id = crate::collection::SourceCollection::from_sources([s])
            .as_identity()
            .unwrap();
        let a = ConfidenceAnalysis::analyze(&id, 4); // domain of 5 facts total
        assert_eq!(a.world_count(), &UBig::from(32u64));
        assert_eq!(
            a.confidence_of_tuple(&id, &[Value::sym("a")]).unwrap(),
            Rational::from_u64(1, 2)
        );
        assert_eq!(a.padding_confidence().unwrap(), Rational::from_u64(1, 2));
    }

    #[test]
    fn expected_world_size_matches_oracle() {
        use crate::confidence::worlds::PossibleWorlds;
        for m in 0..3usize {
            let c = example_5_1();
            let worlds = PossibleWorlds::enumerate(&c, &example_5_1_domain(m)).unwrap();
            let total_size: u64 = worlds.worlds().map(|w| w.len() as u64).sum();
            let expected = Rational::from_u64(total_size, worlds.count() as u64);
            let (_, a) = analyze(m as u64);
            assert_eq!(a.expected_world_size().unwrap(), expected, "m = {m}");
        }
    }

    #[test]
    fn joint_confidence_matches_oracle() {
        use crate::confidence::worlds::PossibleWorlds;
        use pscds_relational::Fact;
        // Every pair of distinct facts: all class pairs, and two facts of
        // the padding class.
        let syms = ["a", "b", "c", "d1", "d2"];
        let pairs = (0..syms.len()).flat_map(|i| (i + 1..syms.len()).map(move |j| (i, j)));
        for (m, (x, y)) in [2usize, 3]
            .into_iter()
            .flat_map(|m| pairs.clone().map(move |p| (m, p)))
        {
            let (x, y) = (syms[x], syms[y]);
            let worlds = PossibleWorlds::enumerate(&example_5_1(), &example_5_1_domain(m)).unwrap();
            let (id, a) = analyze(m as u64);
            let fx = Fact::new("R", [Value::sym(x)]);
            let fy = Fact::new("R", [Value::sym(y)]);
            let both = worlds
                .masks()
                .iter()
                .filter(|&&mask| {
                    let ix = worlds.universe().index_of(&fx).unwrap();
                    let iy = worlds.universe().index_of(&fy).unwrap();
                    mask >> ix & 1 == 1 && mask >> iy & 1 == 1
                })
                .count() as u64;
            let exact = Rational::from_u64(both, worlds.count() as u64);
            let fast = a
                .joint_confidence_of(&id, &[Value::sym(x)], &[Value::sym(y)])
                .unwrap();
            assert_eq!(fast, exact, "joint({x},{y}) at m={m}");
        }
    }

    #[test]
    fn joint_confidence_reveals_correlations() {
        // In Example 5.1, a and c are *positively* correlated at m = 0
        // (dropping one forces keeping the other through b — check the
        // exact sign rather than assuming independence).
        let (id, a) = analyze(0);
        let ca = a.confidence_of_tuple(&id, &[Value::sym("a")]).unwrap();
        let cc = a.confidence_of_tuple(&id, &[Value::sym("c")]).unwrap();
        let joint = a
            .joint_confidence_of(&id, &[Value::sym("a")], &[Value::sym("c")])
            .unwrap();
        let independent = ca.mul(&cc);
        assert_ne!(
            joint, independent,
            "a and c are correlated, not independent"
        );
        // Worlds with both a and c: {a,c}, {a,b,c} → 2/5; independence
        // would predict (3/5)² = 9/25.
        assert_eq!(joint, Rational::from_u64(2, 5));
        assert_eq!(independent, Rational::from_u64(9, 25));
    }

    #[test]
    fn joint_confidence_rejects_identical_tuples() {
        let (id, a) = analyze(1);
        assert!(matches!(
            a.joint_confidence_of(&id, &[Value::sym("a")], &[Value::sym("a")]),
            Err(CoreError::BadDomain { .. })
        ));
    }

    #[test]
    fn certain_and_possible_tuples_match_world_oracle() {
        use crate::confidence::worlds::PossibleWorlds;
        use pscds_relational::parser::parse_rule;
        let c = example_5_1();
        let (id, a) = analyze(2);
        let worlds = PossibleWorlds::enumerate(&c, &example_5_1_domain(2)).unwrap();
        let q = parse_rule("Ans(x) <- R(x)").unwrap();
        let certain_oracle: Vec<Vec<Value>> = worlds
            .certain_answer_cq(&q)
            .unwrap()
            .into_iter()
            .map(|f| f.args)
            .collect();
        assert_eq!(a.certain_tuples().unwrap(), certain_oracle);
        // Possible named tuples = extension tuples with conf > 0; padding
        // tuples are covered by padding_confidence > 0.
        let possible_named = a.possible_tuples().unwrap();
        assert_eq!(possible_named.len(), 3); // a, b, c all possible
        assert!(a.padding_confidence().unwrap() > Rational::zero());
        let possible_oracle = worlds.possible_answer_cq(&q).unwrap();
        assert_eq!(possible_oracle.len(), 5); // a, b, c, d1, d2
        let _ = id;
    }

    #[test]
    fn certain_tuples_for_exact_source() {
        use crate::descriptor::SourceDescriptor;
        let s = SourceDescriptor::identity(
            "S",
            "V",
            "R",
            1,
            [[Value::sym("a")], [Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let id = crate::collection::SourceCollection::from_sources([s])
            .as_identity()
            .unwrap();
        let a = ConfidenceAnalysis::analyze(&id, 5);
        assert_eq!(
            a.certain_tuples().unwrap(),
            vec![vec![Value::sym("a")], vec![Value::sym("b")]]
        );
        assert_eq!(a.possible_tuples().unwrap().len(), 2);
    }

    #[test]
    fn parallel_counter_is_bit_identical_to_serial() {
        let id = example_5_1().as_identity().unwrap();
        for m in [0u64, 1, 3, 50] {
            let serial = ConfidenceAnalysis::analyze(&id, m);
            let analysis = SignatureAnalysis::new(&id, m);
            let mut vectors = Vec::new();
            analysis.for_each_feasible(|c| vectors.push(c.to_vec()));
            let (total, numerators, count) = naive_tally(&sizes(&analysis), &vectors);
            for threads in [1usize, 2, 8] {
                let config = ParallelConfig::with_threads(threads);
                let par = ConfidenceAnalysis::from_signature_analysis_parallel(
                    SignatureAnalysis::new(&id, m),
                    &Budget::unlimited(),
                    &config,
                )
                .unwrap();
                assert_eq!(par.world_count(), serial.world_count(), "m={m} t={threads}");
                let naive = (&total, numerators.as_slice(), count);
                assert_eq!(par.parts(), naive, "m={m} t={threads}");
                for sym in ["a", "b", "c"] {
                    assert_eq!(
                        par.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                        serial.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                        "conf({sym}) m={m} t={threads}"
                    );
                }
                assert_eq!(
                    par.expected_world_size().unwrap(),
                    serial.expected_world_size().unwrap()
                );
            }
        }
    }

    #[test]
    fn parallel_counter_propagates_budget_errors() {
        use crate::resilient::tests_support::wide_slack_identity;
        let id = wide_slack_identity(6, 9);
        let err = ConfidenceAnalysis::from_signature_analysis_parallel(
            SignatureAnalysis::new(&id, 0),
            &Budget::with_max_steps(200),
            &ParallelConfig::with_threads(4),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    /// The per-vector sums the amortized [`Tally`] must reproduce:
    /// `(total, class_numerators, vectors)`.
    fn naive_tally(sizes: &[u64], vectors: &[Vec<u64>]) -> (UBig, Vec<UBig>, u64) {
        use pscds_numeric::binomial::binomial_ubig;
        let mut total = UBig::zero();
        let mut numerators = vec![UBig::zero(); sizes.len()];
        for counts in vectors {
            let mut product = UBig::one();
            for (&n, &k) in sizes.iter().zip(counts) {
                product = product.mul(&binomial_ubig(n, k));
            }
            total.add_assign(&product);
            for (num, &k) in numerators.iter_mut().zip(counts) {
                num.add_assign(&product.mul_u64(k));
            }
        }
        (total, numerators, vectors.len() as u64)
    }

    /// The amortized tally over `vectors`, in the given order.
    fn amortized_tally(
        analysis: &SignatureAnalysis,
        vectors: &[Vec<u64>],
    ) -> (UBig, Vec<UBig>, u64) {
        let mut tally = Tally::new(analysis);
        for counts in vectors {
            tally.add(counts);
        }
        tally.finish()
    }

    fn sizes(analysis: &SignatureAnalysis) -> Vec<u64> {
        analysis.classes().iter().map(|c| c.size).collect()
    }

    #[test]
    fn amortized_tally_matches_per_vector_products_in_dfs_order() {
        let id = example_5_1().as_identity().unwrap();
        for m in [0u64, 1, 2, 7, 40] {
            let analysis = SignatureAnalysis::new(&id, m);
            let mut vectors = Vec::new();
            analysis.for_each_feasible(|c| vectors.push(c.to_vec()));
            assert_eq!(
                amortized_tally(&analysis, &vectors),
                naive_tally(&sizes(&analysis), &vectors),
                "m={m}"
            );
        }
    }

    #[test]
    fn amortized_tally_matches_per_vector_products_in_any_order() {
        // Every vector of the box (feasible or not — the tally does not
        // care), shuffled and with repeats, so consecutive vectors share
        // prefixes of every length, including the whole vector.
        let id = example_5_1().as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 3);
        let sizes = sizes(&analysis);
        let mut all: Vec<Vec<u64>> = vec![Vec::new()];
        for &n in &sizes {
            all = all
                .into_iter()
                .flat_map(|p| {
                    (0..=n).map(move |k| {
                        let mut q = p.clone();
                        q.push(k);
                        q
                    })
                })
                .collect();
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for round in 0..8 {
            let mut vectors = all.clone();
            vectors.extend(all.iter().step_by(3 + round).cloned());
            for i in (1..vectors.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                vectors.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let run = vectors[0].clone();
            vectors.splice(0..0, [run.clone(), run]);
            assert_eq!(
                amortized_tally(&analysis, &vectors),
                naive_tally(&sizes, &vectors),
                "round {round}"
            );
        }
    }

    #[test]
    fn amortized_tally_handles_zero_classes_and_zero_vectors() {
        use crate::descriptor::SourceDescriptor;
        // No classes at all: each (empty) vector weighs 1.
        let s = SourceDescriptor::identity(
            "S",
            "V",
            "R",
            1,
            std::iter::empty::<[Value; 1]>(),
            Frac::ZERO,
            Frac::ZERO,
        )
        .unwrap();
        let empty = crate::collection::SourceCollection::from_sources([s])
            .as_identity()
            .unwrap();
        let bare = SignatureAnalysis::new(&empty, 0);
        assert!(bare.classes().is_empty());
        let vectors = vec![Vec::new(); 3];
        assert_eq!(
            amortized_tally(&bare, &vectors),
            (UBig::from(3u64), Vec::new(), 3)
        );
        // All-zero vectors, alone and between others.
        let analysis = SignatureAnalysis::new(&example_5_1().as_identity().unwrap(), 2);
        let zero = vec![0u64; analysis.classes().len()];
        let vectors = vec![zero.clone(), zero.clone(), vec![1, 0, 1, 2], zero];
        assert_eq!(
            amortized_tally(&analysis, &vectors),
            naive_tally(&sizes(&analysis), &vectors)
        );
        assert_eq!(amortized_tally(&analysis, &[]).0, UBig::zero());
    }

    #[test]
    fn analyses_stay_sendable_while_sharing_their_parts() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<ConfidenceAnalysis>();
    }

    #[test]
    fn feasible_vector_count_is_small_for_example51() {
        let (_, a) = analyze(100);
        // The feasibility region truncates k_pad ≤ 1, so the vector count
        // stays constant in m.
        assert!(a.feasible_vectors() <= 16, "got {}", a.feasible_vectors());
    }
}
