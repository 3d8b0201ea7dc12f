//! Observability determinism suite (DESIGN.md §3.11): instrumentation
//! must not perturb the engines' determinism contract, and the
//! instrumentation itself must be deterministic. On the same random
//! identity-view collections as `tests/engine_parity.rs`, an observed
//! run at 1, 2, and 8 threads must produce:
//!
//! * bit-identical analysis results (instrumentation changes nothing),
//! * identical merged *counter* totals (counters are part of the
//!   identity contract — they are merged deterministically at the
//!   `run_chunks` join points), and
//! * identical span trees modulo timings (compared via
//!   [`Span::skeleton`], which renders names, attributes, and child
//!   structure but ignores the clock).
//!
//! Gauges (`chunks.stolen`, `dp.cache_peak`) are *scheduling
//! diagnostics* and are deliberately excluded: which worker steals a
//! chunk is real nondeterminism the gauges exist to report.

use proptest::prelude::*;
use pscds::core::confidence::{count_dp_observed, DpConfig, SignatureAnalysis};
use pscds::core::govern::Budget;
use pscds::core::obs::{ObsReport, ObsSession};
use pscds::core::resilient::{
    check_resilient, confidence_resilient, confidence_under_faults, LadderPolicy,
};
use pscds::core::source::{AccessPolicy, SourceAccess};
use pscds::core::{
    FaultPlan, FaultSpec, FaultyProvider, ParallelConfig, SourceCollection, SourceDescriptor,
};
use pscds::numeric::Frac;
use pscds::relational::Value;

const DOMAIN: usize = 5;
const THREADS: [usize; 3] = [1, 2, 8];

fn domain() -> Vec<Value> {
    (0..DOMAIN).map(|i| Value::sym(&format!("u{i}"))).collect()
}

/// Strategy: a random identity-view collection over the 5-element domain
/// (the `tests/engine_parity.rs` fixture distribution).
fn collections() -> impl Strategy<Value = SourceCollection> {
    let source = (
        proptest::collection::btree_set(0usize..DOMAIN, 0..=DOMAIN),
        0u64..=4,
        0u64..=4,
    );
    proptest::collection::vec(source, 1..=3).prop_map(|specs| {
        let dom = domain();
        let sources = specs
            .into_iter()
            .enumerate()
            .map(|(i, (ext, c, s))| {
                SourceDescriptor::identity(
                    format!("S{i}"),
                    &format!("V{i}"),
                    "R",
                    1,
                    ext.into_iter().map(|e| [dom[e]]),
                    Frac::new(c, 4),
                    Frac::new(s, 4),
                )
                .expect("valid descriptor")
            })
            .collect::<Vec<_>>();
        SourceCollection::from_sources(sources)
    })
}

/// The deterministic portion of an [`ObsReport`]: counter totals in name
/// order, span skeletons (which carry the `#self_steps` attribution
/// suffix), events modulo timestamps, step histograms (count, sum, and
/// sparse buckets — `dp.chunk_steps`, `interval.scenario_steps`,
/// `source.backoff_steps`, `delta.epoch_steps`, …), and exemplar key
/// sets. Everything here must be bit-identical at every thread count.
type Digest = (
    Vec<(&'static str, u64)>,
    Vec<String>,
    Vec<(&'static str, Vec<(&'static str, String)>)>,
    Vec<(&'static str, u64, u64, Vec<(usize, u64)>)>,
    Vec<(&'static str, Vec<String>)>,
);

fn digest(report: &ObsReport) -> Digest {
    let counters = report.metrics.counters().collect();
    let spans = report.spans.iter().map(|s| s.skeleton()).collect();
    let events = report
        .events
        .iter()
        .map(|e| (e.name, e.attrs.clone()))
        .collect();
    let histograms = report
        .metrics
        .histograms()
        .map(|(name, h)| (name, h.count(), h.sum(), h.buckets().collect()))
        .collect();
    let exemplars = report
        .metrics
        .exemplars()
        .map(|(name, keys)| (name, keys.keys().to_vec()))
        .collect();
    (counters, spans, events, histograms, exemplars)
}

/// Sums every `#N` self-step charge in a rendered span skeleton
/// (`name#N{attrs}[children…]`), i.e. the subtree's total attributed
/// steps. No registered span name or attribute contains `#`.
fn skeleton_steps(skeleton: &str) -> u64 {
    let mut total = 0u64;
    let mut rest = skeleton;
    while let Some(pos) = rest.find('#') {
        rest = &rest[pos + 1..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        total += digits.parse::<u64>().unwrap_or(0);
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked DP under observation: counters, span trees, events,
    /// and the analysis itself agree at every thread count.
    #[test]
    fn observed_dp_is_identical_across_thread_counts(collection in collections()) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let mut baseline: Option<(Digest, pscds::core::confidence::ConfidenceAnalysis)> = None;
        for threads in THREADS {
            let mut obs = ObsSession::in_memory();
            let (analysis, _stats) = count_dp_observed(
                SignatureAnalysis::new(&identity, padding),
                &Budget::unlimited(),
                &ParallelConfig::with_threads(threads),
                &DpConfig::default(),
                &mut obs,
            )
            .expect("unlimited budget");
            let d = digest(&obs.finish());
            prop_assert!(!d.0.is_empty(), "observed run must record counters");
            prop_assert!(!d.1.is_empty(), "observed run must record a span tree");
            prop_assert!(
                d.3.iter().any(|(name, ..)| *name == "dp.chunk_steps"),
                "observed DP must record the per-chunk step histogram"
            );
            // The attribution contract: span self-steps sum exactly to
            // the budget.ticks counter, at every thread count.
            let ticks = d.0.iter().find(|(n, _)| *n == "budget.ticks").map_or(0, |(_, v)| *v);
            let charged: u64 = d.1.iter().map(|skel| skeleton_steps(skel)).sum();
            prop_assert!(charged == ticks, "span self-steps {} != budget.ticks {}", charged, ticks);
            match &baseline {
                None => baseline = Some((d, analysis)),
                Some((d1, a1)) => {
                    prop_assert_eq!(&d, d1);
                    prop_assert_eq!(analysis.world_count(), a1.world_count());
                    prop_assert_eq!(analysis.feasible_vectors(), a1.feasible_vectors());
                }
            }
        }
    }

    /// The observed resilient ladders (check and confidence), unlimited
    /// budget: instrumented output is thread-count-independent and the
    /// verdicts match the uninstrumented engines.
    #[test]
    fn observed_ladders_are_identical_across_thread_counts(collection in collections()) {
        let dom = domain();
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let unlimited = Budget::unlimited();
        let mut check_baseline: Option<Digest> = None;
        let mut conf_baseline: Option<Digest> = None;
        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);

            let mut obs = ObsSession::in_memory();
            let policy = LadderPolicy::default();
            let check = check_resilient(&collection, &dom, &unlimited, &config, &policy, &mut obs)
                .expect("small universe");
            let d = digest(&obs.finish());
            match &check_baseline {
                None => check_baseline = Some(d),
                Some(d1) => prop_assert_eq!(&d, d1),
            }
            prop_assert_eq!(
                check.consistent,
                collection.as_identity().is_ok()
                    && pscds::core::consistency::decide_identity(&identity, padding).is_consistent()
            );

            let mut obs = ObsSession::in_memory();
            confidence_resilient(&identity, padding, &unlimited, &config, false, &policy, &mut obs)
                .expect("unlimited budget");
            let d = digest(&obs.finish());
            match &conf_baseline {
                None => conf_baseline = Some(d),
                Some(d1) => prop_assert_eq!(&d, d1),
            }
        }
    }

    /// The fault rung under a seeded plan (noise everywhere, one
    /// hard-down source): retries, breaker trips, and — when the
    /// partial rung runs — the interval counters are all part of the
    /// deterministic digest, so the full instrumented replay is
    /// thread-count-invariant.
    #[test]
    fn observed_fault_replay_is_identical_across_thread_counts(
        collection in collections(),
        seed in 0u64..64,
    ) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let name = collection.sources()[0].name().to_owned();
        let plan = FaultPlan::new(seed)
            .with_default(FaultSpec {
                fail: Frac::new(1, 3),
                timeout: Frac::new(1, 8),
                ..FaultSpec::none()
            })
            .with_source(&name, FaultSpec::always_down());
        let mut baseline: Option<(Digest, String)> = None;
        for threads in THREADS {
            let mut provider = FaultyProvider::new(&collection, plan.clone());
            let mut access = SourceAccess::new(AccessPolicy::default(), collection.len());
            let mut obs = ObsSession::in_memory();
            let outcome = confidence_under_faults(
                &mut provider,
                &mut access,
                padding,
                &Budget::unlimited(),
                &ParallelConfig::with_threads(threads),
                false,
                true,
                &LadderPolicy::default(),
                &mut obs,
            );
            // Render the outcome coarsely (engine provenance or error
            // text): enough to pin the verdict across thread counts
            // while `tests/fault_replay.rs` pins the values themselves.
            let verdict = match &outcome {
                Ok(r) => format!("ok:{}", r.engine()),
                Err(e) => format!("err:{e}"),
            };
            let d = digest(&obs.finish());
            prop_assert!(!d.0.is_empty(), "fault replay must record counters");
            match &baseline {
                None => baseline = Some((d, verdict)),
                Some((d1, v1)) => {
                    prop_assert_eq!(&d, d1);
                    prop_assert_eq!(&verdict, v1);
                }
            }
        }
    }
}
