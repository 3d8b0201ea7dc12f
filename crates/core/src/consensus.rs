//! Consensus analysis of inconsistent collections (the paper's Section 6
//! future-work direction).
//!
//! The paper closes: *"In our analysis, we do not consider sources that
//! report wrong estimates of soundness and completeness […] One
//! interesting future direction would be to explore how a notion of
//! consensus can be defined and used to detect the most trustworthy
//! sources."* This module implements that direction for identity-view
//! collections:
//!
//! * [`maximal_consistent_subsets`] — the inclusion-maximal sets of
//!   sources whose claims are jointly satisfiable;
//! * [`ConsensusReport::support`] — per-source trust: the fraction of
//!   maximal consistent subsets a source belongs to. A source whose
//!   claims contradict the majority appears in few (often zero) maximal
//!   subsets and is flagged as a likely mis-reporter.

use crate::collection::SourceCollection;
use crate::confidence::dp::{count_dp_shared, DpConfig, DpStats, SharedDpCache};
use crate::confidence::signature::SignatureAnalysis;
use crate::consistency::identity::decide_identity_budgeted;
use crate::error::CoreError;
use crate::govern::{observe_phase, Budget, Phase};
use crate::partition::{self, ParallelConfig};
use pscds_numeric::Rational;
use pscds_obs::{MetricSet, ObsSession};

/// The result of a consensus analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusReport {
    /// Number of sources analysed.
    pub n_sources: usize,
    /// Inclusion-maximal consistent subsets, as sorted source-index lists.
    pub maximal_subsets: Vec<Vec<usize>>,
    /// Per-source support: fraction of maximal subsets containing it.
    pub support: Vec<Rational>,
}

impl ConsensusReport {
    /// Indices of the largest maximal consistent subset (first of the
    /// maximum cardinality, in deterministic order).
    #[must_use]
    pub fn largest_subset(&self) -> &[usize] {
        self.maximal_subsets
            .iter()
            .max_by_key(|s| s.len())
            .map_or(&[], Vec::as_slice)
    }

    /// Sources that appear in **no** maximal consistent subset of size
    /// ≥ 2 — prime suspects for mis-reported bounds. (Singleton subsets
    /// are ignored: any individually-satisfiable source forms one.)
    #[must_use]
    pub fn outliers(&self) -> Vec<usize> {
        (0..self.n_sources)
            .filter(|&i| {
                !self
                    .maximal_subsets
                    .iter()
                    .any(|s| s.len() >= 2 && s.contains(&i))
            })
            .collect()
    }

    /// `true` iff the full collection is consistent (the only maximal
    /// subset is everything).
    #[must_use]
    pub fn fully_consistent(&self) -> bool {
        self.maximal_subsets.len() == 1 && self.maximal_subsets[0].len() == self.n_sources
    }
}

/// Enumerates all inclusion-maximal consistent subsets of an identity-view
/// collection and derives per-source support scores.
///
/// `padding` is the number of extension-free domain facts (as in
/// [`crate::confidence::SignatureAnalysis`]); since padding only ever
/// *helps* consistency, `padding = 0` gives the strictest consensus.
///
/// Complexity: `O(2^n)` consistency checks for `n` sources — the problem
/// contains CONSISTENCY itself, so this is inherent; intended for source
/// counts in the tens.
///
/// # Examples
///
/// ```
/// use pscds_core::consensus::maximal_consistent_subsets;
/// use pscds_core::{SourceCollection, SourceDescriptor};
/// use pscds_numeric::Frac;
/// use pscds_relational::Value;
///
/// // Two sources with incompatible exact claims.
/// let a = SourceDescriptor::identity("A", "V1", "R", 1, [[Value::sym("x")]], Frac::ONE, Frac::ONE)?;
/// let b = SourceDescriptor::identity("B", "V2", "R", 1, [[Value::sym("y")]], Frac::ONE, Frac::ONE)?;
/// let report = maximal_consistent_subsets(&SourceCollection::from_sources([a, b]), 0)?;
/// assert!(!report.fully_consistent());
/// assert_eq!(report.maximal_subsets, vec![vec![0], vec![1]]);
/// # Ok::<(), pscds_core::CoreError>(())
/// ```
///
/// # Errors
/// Propagates [`CoreError::NotIdentityCollection`] for non-identity views
/// and refuses collections with more than 20 sources.
pub fn maximal_consistent_subsets(
    collection: &SourceCollection,
    padding: u64,
) -> Result<ConsensusReport, CoreError> {
    maximal_consistent_subsets_budgeted(collection, padding, &Budget::unlimited())
}

/// Budget-governed variant of [`maximal_consistent_subsets`]: one budget
/// step per candidate subset, and the budget also governs the inner
/// per-subset consistency solver.
///
/// Under an *unlimited* budget the legacy 20-source cap applies; an
/// explicitly limited budget replaces the cap, and only the `u32`
/// subset-mask representation limit (31 sources) remains.
///
/// # Errors
/// As [`maximal_consistent_subsets`], plus [`CoreError::BudgetExceeded`]
/// when the budget runs out mid-enumeration.
pub fn maximal_consistent_subsets_budgeted(
    collection: &SourceCollection,
    padding: u64,
    budget: &Budget,
) -> Result<ConsensusReport, CoreError> {
    let n = validate_consensus_size(collection, budget)?;

    // Enumerate subsets largest-first so maximality checks only look at
    // already-accepted (larger or equal) subsets.
    let mut masks: Vec<u32> = (0..(1u32 << n)).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    let mut maximal: Vec<u32> = Vec::new();
    for mask in masks {
        budget.tick("consensus")?;
        if maximal.iter().any(|&m| m & mask == mask) {
            continue; // contained in an already-found consistent subset
        }
        if subset_is_consistent(collection, mask, padding, budget)? {
            maximal.push(mask);
        }
    }
    Ok(report_from_masks(n, maximal))
}

/// Work-partitioned parallel variant of
/// [`maximal_consistent_subsets_budgeted`].
///
/// The serial enumeration is largest-subsets-first (popcount descending,
/// numeric value ascending within a level), filtering each candidate
/// against the already-accepted maximal subsets. Two subsets of the same
/// popcount can never contain one another, so the accepted set a
/// candidate is filtered against consists entirely of **higher** levels —
/// which makes the levels parallelizable: each popcount level is
/// filtered against the accepted-so-far set, its surviving candidates
/// checked for consistency across `config.threads()` workers, and the
/// verdicts folded back in candidate order before the next level starts.
/// The accepted set after every level — and hence the report — is
/// bit-identical to the serial engine's for every thread count.
/// `config.threads() == 1` runs the untouched serial path.
///
/// # Errors
/// As [`maximal_consistent_subsets_budgeted`].
pub fn maximal_consistent_subsets_parallel(
    collection: &SourceCollection,
    padding: u64,
    budget: &Budget,
    config: &ParallelConfig,
) -> Result<ConsensusReport, CoreError> {
    if config.is_serial() {
        return maximal_consistent_subsets_budgeted(collection, padding, budget);
    }
    let n = validate_consensus_size(collection, budget)?;

    let mut maximal: Vec<u32> = Vec::new();
    // lint-allow(no-panic): validate_consensus_size rejected n > 31 above
    for level in (0..=u32::try_from(n).expect("n ≤ 31")).rev() {
        let mut candidates: Vec<u32> = Vec::new();
        for mask in masks_of_popcount(n as u32, level, budget)? {
            budget.tick("consensus")?;
            if !maximal.iter().any(|&m| m & mask == mask) {
                candidates.push(mask);
            }
        }
        if candidates.is_empty() {
            continue;
        }
        let ranges = partition::split_slice_ranges(candidates.len(), config.target_chunks());
        let outcomes = partition::run_chunks(config, budget, &ranges, |_, range, budget, _| {
            let mut verdicts = Vec::with_capacity(range.len());
            for &mask in &candidates[range.clone()] {
                verdicts.push(subset_is_consistent(collection, mask, padding, budget)?);
            }
            Ok(verdicts)
        })?;
        for (range, verdicts) in ranges.iter().zip(outcomes.into_iter().flatten()) {
            for (&mask, ok) in candidates[range.clone()].iter().zip(verdicts) {
                if ok {
                    maximal.push(mask);
                }
            }
        }
    }
    Ok(report_from_masks(n, maximal))
}

/// DP-backed consensus sweep with a **shared residual cache** (ROADMAP
/// "DP for consensus levels"): the same largest-first enumeration as
/// [`maximal_consistent_subsets_budgeted`], but each candidate subset is
/// decided by the memoized residual DP ([`count_dp_shared`]) against one
/// [`SharedDpCache`] spanning the whole sweep. Subsets whose projected
/// structures coincide — ubiquitous when sources repeat a claim shape,
/// as consensus instances do by construction — reuse each other's
/// residual nodes; the reuse shows up as
/// [`DpStats::cross_subset_hits`] and, through `obs`, as the
/// `dp.cross_subset_hits` counter.
///
/// The report is bit-identical to [`maximal_consistent_subsets_budgeted`]
/// (consistency of an identity subset ⟺ the DP finds a feasible count
/// vector); the returned [`DpStats`] aggregate the entire sweep.
///
/// # Errors
/// As [`maximal_consistent_subsets_budgeted`].
pub fn consensus_with_dp_cache(
    collection: &SourceCollection,
    padding: u64,
    budget: &Budget,
    obs: &mut ObsSession,
) -> Result<(ConsensusReport, DpStats), CoreError> {
    let n = validate_consensus_size(collection, budget)?;
    let result = observe_phase(
        obs,
        budget,
        Phase::ConsensusSweep,
        ("sources", &n.to_string()),
        || consensus_dp_sweep(collection, padding, budget, n),
    );
    if let Ok((_, stats)) = &result {
        let mut metrics = MetricSet::new();
        stats.record_into(&mut metrics);
        obs.merge_metrics(&metrics);
    }
    result
}

/// The enumeration body of [`consensus_with_dp_cache`].
fn consensus_dp_sweep(
    collection: &SourceCollection,
    padding: u64,
    budget: &Budget,
    n: usize,
) -> Result<(ConsensusReport, DpStats), CoreError> {
    let mut shared = SharedDpCache::new(&DpConfig::default());
    let mut stats = DpStats::default();
    let mut masks: Vec<u32> = (0..(1u32 << n)).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    let mut maximal: Vec<u32> = Vec::new();
    for mask in masks {
        budget.tick("consensus")?;
        if maximal.iter().any(|&m| m & mask == mask) {
            continue; // contained in an already-found consistent subset
        }
        if subset_is_consistent_dp(collection, mask, padding, budget, &mut shared, &mut stats)? {
            maximal.push(mask);
        }
    }
    Ok((report_from_masks(n, maximal), stats))
}

/// DP twin of [`subset_is_consistent`]: the subset is consistent iff its
/// signature decomposition admits a feasible count vector, decided by
/// the shared-cache DP.
fn subset_is_consistent_dp(
    collection: &SourceCollection,
    mask: u32,
    padding: u64,
    budget: &Budget,
    shared: &mut SharedDpCache,
    stats: &mut DpStats,
) -> Result<bool, CoreError> {
    if mask == 0 {
        return Ok(true);
    }
    let subset = SourceCollection::from_sources(
        collection
            .sources()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, s)| s.clone()),
    );
    let identity = subset.as_identity()?;
    let analysis = SignatureAnalysis::new(&identity, padding);
    let (result, run_stats) = count_dp_shared(analysis, budget, shared)?;
    stats.absorb(&run_stats);
    Ok(result.is_consistent())
}

/// The shared size caps: `u32` masks bound sources at 31; an unlimited
/// budget additionally keeps the legacy 20-source cap. Also pre-validates
/// the identity shape (empty collections are fine: the empty subset is
/// trivially consistent).
fn validate_consensus_size(
    collection: &SourceCollection,
    budget: &Budget,
) -> Result<usize, CoreError> {
    let n = collection.len();
    if n > 31 {
        return Err(CoreError::SearchSpaceTooLarge {
            message: format!(
                "consensus over {n} sources needs 2^{n} consistency checks, exceeding the u32 \
                 subset-mask limit of 31 sources"
            ),
        });
    }
    if budget.is_unlimited() && n > 20 {
        return Err(CoreError::SearchSpaceTooLarge {
            message: format!(
                "consensus over {n} sources needs 2^{n} consistency checks, exceeding the cap of \
                 20 sources (set a budget to search anyway)"
            ),
        });
    }
    if n > 0 {
        let _ = collection.as_identity()?;
    }
    Ok(n)
}

/// Is the sub-collection selected by `mask` consistent? A pure function
/// of the mask, shared between the serial and parallel enumerations.
fn subset_is_consistent(
    collection: &SourceCollection,
    mask: u32,
    padding: u64,
    budget: &Budget,
) -> Result<bool, CoreError> {
    if mask == 0 {
        return Ok(true);
    }
    let subset = SourceCollection::from_sources(
        collection
            .sources()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, s)| s.clone()),
    );
    let identity = subset.as_identity()?;
    Ok(decide_identity_budgeted(&identity, padding, budget)?.is_consistent())
}

/// All `n`-bit masks of popcount `k`, ascending (Gosper's hack). Charges
/// one budget step per emitted mask: a level holds up to `C(31, 15)` ≈
/// 300M masks, far too many to enumerate invisibly to the budget.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out mid-level.
fn masks_of_popcount(n: u32, k: u32, budget: &Budget) -> Result<Vec<u32>, CoreError> {
    if k == 0 {
        return Ok(vec![0]);
    }
    if k > n {
        return Ok(Vec::new());
    }
    let limit = 1u64 << n;
    let mut v: u64 = (1u64 << k) - 1;
    let mut out = Vec::new();
    while v < limit {
        budget.tick("consensus")?;
        // lint-allow(no-panic): v < 2^n with n ≤ 31, so every mask fits u32
        out.push(u32::try_from(v).expect("masks fit u32 for n ≤ 31"));
        let c = v & v.wrapping_neg();
        let r = v + c;
        v = (((r ^ v) >> 2) / c) | r;
    }
    Ok(out)
}

/// Folds accepted maximal-subset masks into the final report (sorted
/// ascending, exactly like the serial engine's output order).
fn report_from_masks(n: usize, mut maximal: Vec<u32>) -> ConsensusReport {
    maximal.sort_unstable();
    let maximal_subsets: Vec<Vec<usize>> = maximal
        .iter()
        .map(|&m| (0..n).filter(|&i| m >> i & 1 == 1).collect())
        .collect();
    let denom = maximal_subsets.len().max(1) as u64;
    let support = (0..n)
        .map(|i| {
            let count = maximal_subsets.iter().filter(|s| s.contains(&i)).count() as u64;
            Rational::from_u64(count, denom)
        })
        .collect();
    ConsensusReport {
        n_sources: n,
        maximal_subsets,
        support,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SourceDescriptor;
    use crate::paper::example_5_1;
    use pscds_numeric::Frac;
    use pscds_relational::Value;

    fn exact(name: &str, head: &str, tuples: &[&str]) -> SourceDescriptor {
        SourceDescriptor::identity(
            name,
            head,
            "R",
            1,
            tuples.iter().map(|t| [Value::sym(t)]),
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap()
    }

    #[test]
    fn consistent_collection_is_one_maximal_subset() {
        let report = maximal_consistent_subsets(&example_5_1(), 0).unwrap();
        assert!(report.fully_consistent());
        assert_eq!(report.maximal_subsets, vec![vec![0, 1]]);
        assert_eq!(report.support, vec![Rational::one(), Rational::one()]);
        assert!(report.outliers().is_empty());
    }

    #[test]
    fn liar_detected_among_agreeing_majority() {
        // Three sources agree the world is exactly {a, b}; one claims it
        // is exactly {z}.
        let honest1 = exact("H1", "V1", &["a", "b"]);
        let honest2 = exact("H2", "V2", &["a", "b"]);
        let honest3 = exact("H3", "V3", &["a", "b"]);
        let liar = exact("L", "V4", &["z"]);
        let c = SourceCollection::from_sources([honest1, honest2, honest3, liar]);
        let report = maximal_consistent_subsets(&c, 0).unwrap();
        assert!(!report.fully_consistent());
        // Maximal subsets: the honest trio, and the liar alone.
        assert_eq!(report.maximal_subsets, vec![vec![0, 1, 2], vec![3]]);
        assert_eq!(report.largest_subset(), &[0, 1, 2]);
        assert_eq!(report.outliers(), vec![3]);
        // Support: honest 1/2 each, liar 1/2 — but only via its singleton;
        // the outlier detection is the discriminator.
        assert!(report.support[0] == Rational::from_u64(1, 2));
    }

    #[test]
    fn two_camps_split_support() {
        // Camp A: exactly {a}; Camp B: exactly {b}; two sources each.
        let a1 = exact("A1", "V1", &["a"]);
        let a2 = exact("A2", "V2", &["a"]);
        let b1 = exact("B1", "V3", &["b"]);
        let b2 = exact("B2", "V4", &["b"]);
        let c = SourceCollection::from_sources([a1, a2, b1, b2]);
        let report = maximal_consistent_subsets(&c, 0).unwrap();
        assert_eq!(report.maximal_subsets, vec![vec![0, 1], vec![2, 3]]);
        for s in &report.support {
            assert_eq!(s, &Rational::from_u64(1, 2));
        }
        assert!(report.outliers().is_empty()); // both camps are internally coherent
    }

    #[test]
    fn empty_collection() {
        let report = maximal_consistent_subsets(&SourceCollection::new(), 0).unwrap();
        assert_eq!(report.n_sources, 0);
        assert_eq!(report.maximal_subsets, vec![Vec::<usize>::new()]);
        assert!(report.fully_consistent());
    }

    #[test]
    fn soft_bounds_allow_coexistence() {
        // Sources with slack (c = s = 1/2) tolerate each other even with
        // disjoint extensions.
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")], [Value::sym("b")]],
            Frac::HALF,
            Frac::HALF,
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[Value::sym("c")], [Value::sym("d")]],
            Frac::HALF,
            Frac::HALF,
        )
        .unwrap();
        let c = SourceCollection::from_sources([s1, s2]);
        let report = maximal_consistent_subsets(&c, 0).unwrap();
        assert!(report.fully_consistent());
    }

    #[test]
    fn masks_of_popcount_tiles_the_descending_enumeration() {
        // Replaying the levels (n..=0) must reproduce the serial
        // popcount-descending, value-ascending-within-level order exactly.
        for n in 0u32..=6 {
            let mut serial: Vec<u32> = (0..(1u32 << n)).collect();
            serial.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
            let levelled: Vec<u32> = (0..=n)
                .rev()
                .flat_map(|k| masks_of_popcount(n, k, &Budget::unlimited()).unwrap())
                .collect();
            assert_eq!(levelled, serial, "n={n}");
        }
    }

    #[test]
    fn parallel_consensus_is_bit_identical_to_serial() {
        // A mixed instance: an agreeing majority, a liar, and a slack
        // source that coexists with everyone.
        let honest1 = exact("H1", "V1", &["a", "b"]);
        let honest2 = exact("H2", "V2", &["a", "b"]);
        let liar = exact("L", "V3", &["z"]);
        let slack = SourceDescriptor::identity(
            "S",
            "V4",
            "R",
            1,
            [[Value::sym("q")]],
            Frac::HALF,
            Frac::HALF,
        )
        .unwrap();
        let c = SourceCollection::from_sources([honest1, honest2, liar, slack]);
        let serial = maximal_consistent_subsets(&c, 1).unwrap();
        for threads in [1usize, 2, 8] {
            let config = crate::partition::ParallelConfig::with_threads(threads);
            let par =
                maximal_consistent_subsets_parallel(&c, 1, &Budget::unlimited(), &config).unwrap();
            assert_eq!(par.maximal_subsets, serial.maximal_subsets, "t={threads}");
            assert_eq!(par.support, serial.support, "t={threads}");
            assert_eq!(par.n_sources, serial.n_sources, "t={threads}");
        }
    }

    #[test]
    fn dp_cached_consensus_matches_exact_on_fixtures() {
        let liar = SourceCollection::from_sources([
            exact("H1", "V1", &["a", "b"]),
            exact("H2", "V2", &["a", "b"]),
            exact("H3", "V3", &["a", "b"]),
            exact("L", "V4", &["z"]),
        ]);
        let camps = SourceCollection::from_sources([
            exact("A1", "V1", &["a"]),
            exact("A2", "V2", &["a"]),
            exact("B1", "V3", &["b"]),
            exact("B2", "V4", &["b"]),
        ]);
        let soft = SourceCollection::from_sources([
            SourceDescriptor::identity(
                "S1",
                "V1",
                "R",
                1,
                [[Value::sym("a")], [Value::sym("b")]],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap(),
            SourceDescriptor::identity(
                "S2",
                "V2",
                "R",
                1,
                [[Value::sym("c")], [Value::sym("d")]],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap(),
        ]);
        for (label, collection, padding) in [
            ("example_5_1", example_5_1(), 0),
            ("liar", liar, 0),
            ("camps", camps, 0),
            ("soft", soft, 0),
            ("empty", SourceCollection::new(), 1),
        ] {
            let exact_report = maximal_consistent_subsets(&collection, padding).unwrap();
            let mut obs = pscds_obs::ObsSession::disabled();
            let (dp_report, _) =
                consensus_with_dp_cache(&collection, padding, &Budget::unlimited(), &mut obs)
                    .unwrap();
            assert_eq!(
                dp_report.maximal_subsets, exact_report.maximal_subsets,
                "{label}"
            );
            assert_eq!(dp_report.support, exact_report.support, "{label}");
            assert_eq!(dp_report.n_sources, exact_report.n_sources, "{label}");
        }
    }

    #[test]
    fn dp_cached_consensus_shares_residuals_across_subsets() {
        // The honest trio repeat one claim shape, so distinct subsets of
        // the sweep project to identical signature structures: the shared
        // cache must register reuse across runs, and the session must
        // carry the counters out.
        let c = SourceCollection::from_sources([
            exact("H1", "V1", &["a", "b"]),
            exact("H2", "V2", &["a", "b"]),
            exact("H3", "V3", &["a", "b"]),
            exact("L", "V4", &["z"]),
        ]);
        let mut obs = pscds_obs::ObsSession::in_memory();
        let (_, stats) = consensus_with_dp_cache(&c, 0, &Budget::unlimited(), &mut obs).unwrap();
        assert!(
            stats.cross_subset_hits > 0,
            "expected cross-subset reuse, got {stats:?}"
        );
        let report = obs.finish();
        assert_eq!(
            report
                .metrics
                .counter(pscds_obs::names::DP_CROSS_SUBSET_HITS),
            stats.cross_subset_hits
        );
        assert!(report.metrics.counter(pscds_obs::names::BUDGET_TICKS) > 0);
        assert_eq!(report.spans.len(), 1);
        // The sweep span carries its serial step charge (`#N`), and that
        // charge is exactly the `budget.ticks` counter — the pairing
        // contract, end to end.
        let skeleton = report.spans[0].skeleton();
        assert!(
            skeleton.starts_with("consensus.dp_sweep#"),
            "expected a charged sweep span, got {skeleton}"
        );
        assert!(skeleton.contains("{sources=4}"), "{skeleton}");
        assert_eq!(
            report.spans[0].total_steps(),
            report.metrics.counter(pscds_obs::names::BUDGET_TICKS)
        );
    }

    #[test]
    fn dp_cached_consensus_trips_budget_and_reports_it() {
        let c = SourceCollection::from_sources([
            exact("H1", "V1", &["a", "b"]),
            exact("H2", "V2", &["a", "b"]),
            exact("L", "V3", &["z"]),
        ]);
        let mut obs = pscds_obs::ObsSession::in_memory();
        let budget = Budget::with_max_steps(2);
        assert!(matches!(
            consensus_with_dp_cache(&c, 0, &budget, &mut obs),
            Err(CoreError::BudgetExceeded { .. })
        ));
        let report = obs.finish();
        assert_eq!(report.metrics.counter(pscds_obs::names::BUDGET_TRIPS), 1);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, pscds_obs::names::EVENT_BUDGET_TRIP);
    }

    #[test]
    fn too_many_sources_refused() {
        let sources: Vec<SourceDescriptor> = (0..21)
            .map(|i| exact(&format!("S{i}"), &format!("V{i}"), &["a"]))
            .collect();
        let c = SourceCollection::from_sources(sources);
        assert!(matches!(
            maximal_consistent_subsets(&c, 0),
            Err(CoreError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn non_identity_collection_rejected() {
        let join = SourceDescriptor::new(
            "J",
            pscds_relational::parser::parse_rule("V(x) <- R(x, y)").unwrap(),
            [],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([join]);
        assert!(matches!(
            maximal_consistent_subsets(&c, 0),
            Err(CoreError::NotIdentityCollection { .. })
        ));
    }
}
