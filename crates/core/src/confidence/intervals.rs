//! Partial-availability confidence intervals (the `resilient` fault
//! rung's answer semantics).
//!
//! When the access layer reports that some sources stayed unreachable
//! (see [`crate::source`]), the exact point confidence
//! `Pr(t ∈ D | D ∈ poss(S))` is no longer computable: the unreachable
//! extensions are unknown. What *is* computable is a bracket. Each
//! unreachable source is varied between two extremes:
//!
//! * **absent** — the source is dropped from the collection entirely
//!   (its claims impose no constraints; its tuples become anonymous
//!   domain elements), and
//! * **at claimed bounds** — the source participates exactly as the
//!   catalog describes it (extension, completeness `c`, soundness `s`).
//!
//! With `k` unreachable sources this spans `2^k` *availability
//! scenarios* — the natural partial-availability analogue of the paper's
//! `poss(S)` union over sound-subset combinations. Every scenario is
//! evaluated over the **same** effective domain: dropping a source
//! shrinks the named-tuple universe, so the scenario's padding is
//! enlarged by exactly the number of dropped tuples, keeping the world
//! space comparable across scenarios. The reported interval for a tuple
//! is the min/max of its confidence over all consistent scenarios.
//!
//! The scenario in which *every* unreachable source participates at its
//! claimed bounds **is** the fault-free catalog analysis, so every
//! interval contains the fault-free point answer by construction — the
//! `interval.point_contained` counter asserts this observably, and the
//! fault-suite CI step diffs it against `interval.tuples`.

use crate::collection::IdentityCollection;
use crate::error::CoreError;
use crate::govern::{record_trip, Budget, Engine};
use crate::partition::{run_chunks, ParallelConfig};
use pscds_numeric::Rational;
use pscds_obs::{names, MetricSet, ObsSession, SpanStack};
use pscds_relational::Value;

use super::counting::ConfidenceAnalysis;

/// Cap on the number of unavailable sources the interval engine will
/// bracket exhaustively (`2^k` scenarios).
pub const MAX_UNAVAILABLE: usize = 12;

/// A closed confidence bracket `[lo, hi]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfidenceInterval {
    /// Smallest confidence over the consistent availability scenarios.
    pub lo: Rational,
    /// Largest confidence over the consistent availability scenarios.
    pub hi: Rational,
}

impl ConfidenceInterval {
    /// The degenerate interval `[r, r]`.
    #[must_use]
    pub fn point(r: Rational) -> Self {
        ConfidenceInterval {
            lo: r.clone(),
            hi: r,
        }
    }

    /// `true` iff `lo == hi`.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// `true` iff `lo ≤ r ≤ hi`.
    #[must_use]
    pub fn contains(&self, r: &Rational) -> bool {
        self.lo <= *r && *r <= self.hi
    }

    /// The interval width `hi − lo`.
    #[must_use]
    pub fn width(&self) -> Rational {
        self.hi.sub(&self.lo)
    }

    /// The width in parts-per-million, rounded down — the deterministic
    /// integer aggregate behind the `interval.width_ppm` counter.
    #[must_use]
    pub fn width_ppm(&self) -> u64 {
        let w = self.width();
        let (q, _r) = w.num().mul_u64(1_000_000).divrem(w.den());
        // A probability width is ≤ 1, so the quotient is ≤ 10⁶ and the
        // u64 conversion cannot fail; saturate defensively anyway.
        q.to_u64().unwrap_or(u64::MAX)
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// One named tuple's bracket, together with the fault-free point answer
/// it provably contains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleInterval {
    /// The tuple.
    pub tuple: Vec<Value>,
    /// The fault-free catalog confidence (the all-sources-at-claimed-
    /// bounds scenario).
    pub point: Rational,
    /// The partial-availability bracket.
    pub interval: ConfidenceInterval,
}

/// The interval engine's result: one bracket per named tuple of the
/// *full* catalog, plus scenario bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntervalAnalysis {
    tuples: Vec<TupleInterval>,
    padding: Option<TupleInterval>,
    unavailable: usize,
    scenarios: u64,
    consistent_scenarios: u64,
}

impl IntervalAnalysis {
    /// Brackets for the named tuples of the full catalog, in sorted
    /// tuple order.
    #[must_use]
    pub fn tuples(&self) -> &[TupleInterval] {
        &self.tuples
    }

    /// Bracket for the extension-free ("padding") facts, when every
    /// consistent scenario has a padding class (its `tuple` field is the
    /// empty vector).
    #[must_use]
    pub fn padding(&self) -> Option<&TupleInterval> {
        self.padding.as_ref()
    }

    /// Number of unreachable sources this analysis bracketed over.
    #[must_use]
    pub fn unavailable(&self) -> usize {
        self.unavailable
    }

    /// Availability scenarios examined (`2^unavailable`).
    #[must_use]
    pub fn scenarios(&self) -> u64 {
        self.scenarios
    }

    /// Scenarios whose induced collection was consistent (≥ 1, since the
    /// full catalog scenario must be).
    #[must_use]
    pub fn consistent_scenarios(&self) -> u64 {
        self.consistent_scenarios
    }

    /// The engine tag for this result.
    #[must_use]
    pub fn engine(&self) -> Engine {
        Engine::Partial {
            unavailable: self.unavailable,
        }
    }

    /// `true` iff every bracket contains its fault-free point answer —
    /// an invariant of the construction, surfaced so the obs layer can
    /// assert it observably (`interval.point_contained`).
    #[must_use]
    pub fn all_contain_point(&self) -> bool {
        self.tuples
            .iter()
            .chain(self.padding.iter())
            .all(|t| t.interval.contains(&t.point))
    }

    /// Summed interval width over all named tuples, in parts-per-million
    /// (the `interval.width_ppm` aggregate).
    #[must_use]
    pub fn total_width_ppm(&self) -> u64 {
        self.tuples
            .iter()
            .map(|t| t.interval.width_ppm())
            .fold(0u64, u64::saturating_add)
    }
}

/// Per-scenario outcome produced by the chunk workers.
struct ScenarioOutcome {
    /// `None` when the scenario's induced collection is inconsistent.
    confidences: Option<ScenarioConfidences>,
}

struct ScenarioConfidences {
    /// Confidence per named tuple of the full catalog, in sorted order.
    named: Vec<Rational>,
    /// Confidence of the scenario's padding class, if one exists.
    padding: Option<Rational>,
}

/// Computes partial-availability confidence intervals with an unlimited
/// budget on one thread. See the module docs for the semantics.
///
/// `unavailable` lists the indices (into `collection.sources`) of the
/// sources that could not be fetched; duplicates are ignored.
///
/// # Errors
/// [`CoreError::BadDomain`] for out-of-range indices,
/// [`CoreError::SearchSpaceTooLarge`] when more than [`MAX_UNAVAILABLE`]
/// sources are unavailable, and [`CoreError::InconsistentCollection`]
/// when the full catalog itself is inconsistent.
pub fn count_intervals(
    collection: &IdentityCollection,
    padding: u64,
    unavailable: &[usize],
) -> Result<IntervalAnalysis, CoreError> {
    count_intervals_observed(
        collection,
        padding,
        unavailable,
        &Budget::unlimited(),
        &ParallelConfig::serial(),
        &mut ObsSession::disabled(),
    )
}

/// The governed interval engine: availability scenarios are evaluated
/// across `config.threads()` workers, every scenario's counting DFS
/// charging the shared budget, and the brackets are merged in scenario
/// order — bit-identical at any thread count. Each scenario worker
/// charges its budget-tick delta to an `interval.scenario` span (the
/// per-mask delta is thread-invariant — one scenario is one unit of
/// partitioned work) and samples it into the `interval.scenario_steps`
/// histogram; the join merges scenario telemetry in mask order under an
/// `interval.run` span.
///
/// # Errors
/// As [`count_intervals`], plus [`CoreError::BudgetExceeded`], which also
/// records a `budget.trips` increment and a `budget.trip` event.
pub fn count_intervals_observed(
    collection: &IdentityCollection,
    padding: u64,
    unavailable: &[usize],
    budget: &Budget,
    config: &ParallelConfig,
    obs: &mut ObsSession,
) -> Result<IntervalAnalysis, CoreError> {
    obs.span_open(names::SPAN_INTERVAL_RUN, budget.elapsed_ns());
    obs.span_attr("engine", "intervals");
    let result = validate_unavailable(collection, unavailable).and_then(|missing| {
        let k = missing.len();
        obs.span_attr("unavailable", &k.to_string());
        let full = collection.tuples_with_signatures();
        let masks: Vec<u64> = (0..(1u64 << k)).collect();
        let outcomes = run_chunks(config, budget, &masks, |_, mask, budget, _| {
            // Per-scenario telemetry on the worker's own accumulators; the
            // tick delta is charged to the scenario span and paired with
            // the local `budget.ticks` increment (the step-attribution
            // contract).
            let start_ns = budget.elapsed_ns();
            let steps_before = budget.steps();
            let outcome = scenario_outcome(collection, &full, &missing, *mask, padding, budget)?;
            let delta = budget.steps() - steps_before;
            let mut metrics = MetricSet::new();
            metrics.counter_add(names::BUDGET_TICKS, delta);
            metrics.histogram_record(names::INTERVAL_SCENARIO_STEPS, delta);
            let mut spans = SpanStack::new();
            spans.span_open(names::SPAN_INTERVAL_SCENARIO, start_ns);
            spans.attr("mask", &mask.to_string());
            spans.charge(delta);
            spans.close(budget.elapsed_ns());
            Ok((outcome, metrics, spans.finish()))
        })?;
        // The join point: merge per-scenario telemetry in mask order,
        // then the brackets the same way. No worker short-circuits, so
        // every slot is populated; a `None` slot would indicate a
        // partition-layer bug — treat it as an inconsistent scenario
        // rather than panicking.
        let mut scenarios = Vec::with_capacity(outcomes.len());
        for slot in outcomes {
            scenarios.push(slot.and_then(|(outcome, metrics, spans)| {
                obs.merge_metrics(&metrics);
                obs.graft_spans(spans);
                outcome.confidences
            }));
        }
        merge_scenarios(&full, &scenarios, k)
    });
    record_trip(obs, budget.elapsed_ns(), &result);
    obs.span_close(budget.elapsed_ns());
    result
}

/// Validates and canonicalizes the unavailable-source index list.
fn validate_unavailable(
    collection: &IdentityCollection,
    unavailable: &[usize],
) -> Result<Vec<usize>, CoreError> {
    let n = collection.sources.len();
    let mut missing: Vec<usize> = unavailable.to_vec();
    missing.sort_unstable();
    missing.dedup();
    if let Some(&bad) = missing.iter().find(|&&i| i >= n) {
        return Err(CoreError::BadDomain {
            message: format!("unavailable source index {bad} out of range for {n} sources"),
        });
    }
    let k = missing.len();
    if k > MAX_UNAVAILABLE {
        return Err(CoreError::SearchSpaceTooLarge {
            message: format!(
                "{k} unavailable sources induce 2^{k} availability scenarios, \
                 exceeding the cap of 2^{MAX_UNAVAILABLE}"
            ),
        });
    }
    Ok(missing)
}

/// Evaluates one availability scenario. `full` holds every catalog
/// tuple with its full membership signature; a tuple's scenario
/// signature keeps the bits of the present sources, compacted to the
/// scenario's source order.
fn scenario_outcome(
    collection: &IdentityCollection,
    full: &[(&[Value], u64)],
    missing: &[usize],
    mask: u64,
    padding: u64,
    budget: &Budget,
) -> Result<ScenarioOutcome, CoreError> {
    let present = present_sources(collection, missing, mask);
    let sigs: Vec<u64> = full
        .iter()
        .map(|&(_, sig)| {
            present
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, &i)| acc | (sig >> i & 1) << j)
        })
        .collect();
    let scenario = scenario_collection(collection, &present);
    let dropped = sigs.iter().filter(|&&sig| sig == 0).count();
    let padding_s = padding + dropped as u64;
    let analysis = ConfidenceAnalysis::analyze_budgeted(&scenario, padding_s, budget)?;
    if !analysis.is_consistent() {
        return Ok(ScenarioOutcome { confidences: None });
    }
    // A tuple claimed only by absent sources has signature 0: in this
    // scenario it is an anonymous domain element, and `class_of` finds
    // the padding class, which exists because dropping the tuple
    // enlarged `padding_s` past zero.
    let confs = analysis.class_confidences()?;
    let classes = analysis.signature_analysis();
    let mut named = Vec::with_capacity(full.len());
    for (&(tuple, _), &sig) in full.iter().zip(&sigs) {
        named.push(confs[classes.class_of(tuple, sig)?].clone());
    }
    let pad_conf = if padding_s > 0 {
        Some(analysis.padding_confidence()?)
    } else {
        None
    };
    Ok(ScenarioOutcome {
        confidences: Some(ScenarioConfidences {
            named,
            padding: pad_conf,
        }),
    })
}

/// Folds per-scenario confidences into the final bracket analysis
/// (scenario-order min/max — associative and order-insensitive, so the
/// join is independent of scheduling).
fn merge_scenarios(
    catalog: &[(&[Value], u64)],
    scenarios: &[Option<ScenarioConfidences>],
    k: usize,
) -> Result<IntervalAnalysis, CoreError> {
    // The last mask includes every unreachable source at its claimed
    // bounds: that scenario IS the fault-free catalog analysis.
    let full = match scenarios.last() {
        Some(Some(full)) => full,
        _ => return Err(CoreError::InconsistentCollection),
    };

    let consistent = scenarios.iter().flatten();
    let mut tuples = Vec::with_capacity(catalog.len());
    for (t_idx, &(tuple, _)) in catalog.iter().enumerate() {
        let mut lo = full.named[t_idx].clone();
        let mut hi = lo.clone();
        for s in consistent.clone() {
            let c = &s.named[t_idx];
            if *c < lo {
                lo = c.clone();
            }
            if *c > hi {
                hi = c.clone();
            }
        }
        tuples.push(TupleInterval {
            tuple: tuple.to_vec(),
            point: full.named[t_idx].clone(),
            interval: ConfidenceInterval { lo, hi },
        });
    }

    let padding_interval = full.padding.clone().and_then(|point| {
        let mut lo = point.clone();
        let mut hi = point.clone();
        for s in consistent.clone() {
            let c = s.padding.as_ref()?;
            if *c < lo {
                lo = c.clone();
            }
            if *c > hi {
                hi = c.clone();
            }
        }
        Some(TupleInterval {
            tuple: Vec::new(),
            point,
            interval: ConfidenceInterval { lo, hi },
        })
    });

    let consistent_scenarios = scenarios.iter().flatten().count() as u64;
    Ok(IntervalAnalysis {
        tuples,
        padding: padding_interval,
        unavailable: k,
        scenarios: 1u64 << k,
        consistent_scenarios,
    })
}

/// The sources present in one availability scenario, in catalog order:
/// every reachable source, plus the unreachable sources whose bit is set
/// in `mask`.
fn present_sources(collection: &IdentityCollection, missing: &[usize], mask: u64) -> Vec<usize> {
    (0..collection.sources.len())
        .filter(|i| match missing.binary_search(i) {
            Ok(pos) => mask & (1 << pos) != 0,
            Err(_) => true,
        })
        .collect()
}

/// The induced collection over the `present` sources.
fn scenario_collection(collection: &IdentityCollection, present: &[usize]) -> IdentityCollection {
    IdentityCollection {
        relation: collection.relation,
        arity: collection.arity,
        sources: present
            .iter()
            .map(|&i| collection.sources[i].clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SourceDescriptor;
    use crate::paper::example_5_1;
    use pscds_numeric::Frac;

    fn identity(m: u64) -> (IdentityCollection, u64) {
        (example_5_1().as_identity().unwrap(), m)
    }

    #[test]
    fn no_unavailable_sources_gives_point_intervals() {
        let (id, m) = identity(2);
        let ia = count_intervals(&id, m, &[]).unwrap();
        let point = ConfidenceAnalysis::analyze(&id, m);
        assert_eq!(ia.scenarios(), 1);
        assert_eq!(ia.unavailable(), 0);
        for t in ia.tuples() {
            assert!(t.interval.is_point());
            assert_eq!(t.point, point.confidence_of_tuple(&id, &t.tuple).unwrap());
            assert_eq!(t.interval.lo, t.point);
        }
        assert!(ia.all_contain_point());
        assert_eq!(ia.total_width_ppm(), 0);
    }

    #[test]
    fn intervals_contain_the_point_and_widen() {
        let (id, m) = identity(2);
        let ia = count_intervals(&id, m, &[1]).unwrap();
        assert_eq!(ia.scenarios(), 2);
        assert_eq!(ia.unavailable(), 1);
        assert_eq!(ia.engine(), Engine::Partial { unavailable: 1 });
        assert!(ia.all_contain_point());
        // Dropping S2 must actually move some tuple's confidence —
        // otherwise the bracket construction is vacuous.
        assert!(
            ia.tuples().iter().any(|t| !t.interval.is_point()),
            "losing a source should widen at least one bracket"
        );
        assert!(ia.total_width_ppm() > 0);
        for t in ia.tuples() {
            assert!(t.interval.lo <= t.interval.hi);
            assert!(t.interval.lo.is_probability_like());
        }
    }

    trait Probability {
        fn is_probability_like(&self) -> bool;
    }
    impl Probability for Rational {
        fn is_probability_like(&self) -> bool {
            *self <= Rational::one()
        }
    }

    #[test]
    fn parallel_run_is_bit_identical() {
        let (id, m) = identity(3);
        let serial = count_intervals(&id, m, &[0, 1]).unwrap();
        for threads in [2usize, 8] {
            let par = count_intervals_observed(
                &id,
                m,
                &[0, 1],
                &Budget::unlimited(),
                &ParallelConfig::with_threads(threads),
                &mut ObsSession::disabled(),
            )
            .unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn budget_trips_cleanly_and_are_recorded() {
        let (id, m) = identity(4);
        let mut obs = ObsSession::in_memory();
        let err = count_intervals_observed(
            &id,
            m,
            &[0, 1],
            &Budget::with_max_steps(3),
            &ParallelConfig::serial(),
            &mut obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 1);
        assert_eq!(report.events[0].name, names::EVENT_BUDGET_TRIP);
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let (id, m) = identity(1);
        let err = count_intervals(&id, m, &[7]).unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
    }

    #[test]
    fn too_many_unavailable_sources_hits_the_cap() {
        let sources: Vec<SourceDescriptor> = (0..MAX_UNAVAILABLE + 1)
            .map(|i| {
                SourceDescriptor::identity(
                    format!("S{i}"),
                    &format!("V{i}"),
                    "R",
                    1,
                    [[pscds_relational::Value::sym("a")]],
                    Frac::HALF,
                    Frac::HALF,
                )
                .unwrap()
            })
            .collect();
        let id = crate::collection::SourceCollection::from_sources(sources)
            .as_identity()
            .unwrap();
        let all: Vec<usize> = (0..MAX_UNAVAILABLE + 1).collect();
        let err = count_intervals(&id, 1, &all).unwrap_err();
        match err {
            CoreError::SearchSpaceTooLarge { message } => {
                assert!(message.contains("cap"), "{message}");
            }
            other => panic!("expected SearchSpaceTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_catalog_is_reported() {
        // Two exact sources claiming different singleton extensions over
        // the same relation: poss(S) = ∅.
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[pscds_relational::Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[pscds_relational::Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let id = crate::collection::SourceCollection::from_sources([s1, s2])
            .as_identity()
            .unwrap();
        let err = count_intervals(&id, 1, &[0]).unwrap_err();
        assert!(matches!(err, CoreError::InconsistentCollection));
    }

    #[test]
    fn interval_display_and_ppm() {
        let i = ConfidenceInterval {
            lo: Rational::from_u64(1, 4),
            hi: Rational::from_u64(3, 4),
        };
        assert_eq!(i.to_string(), "[1/4, 3/4]");
        assert_eq!(i.width(), Rational::from_u64(1, 2));
        assert_eq!(i.width_ppm(), 500_000);
        assert!(i.contains(&Rational::from_u64(1, 2)));
        assert!(!i.contains(&Rational::from_u64(9, 10)));
        let p = ConfidenceInterval::point(Rational::from_u64(1, 3));
        assert!(p.is_point());
        assert_eq!(p.width_ppm(), 0);
    }
}
