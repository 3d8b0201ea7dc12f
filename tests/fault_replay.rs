//! Fault-injection replay suite (DESIGN.md §3.12): the recovery stack
//! must never change *what* is computed, only *whether* the catalog is
//! reachable. On the same random identity-view collections as
//! `tests/engine_parity.rs`:
//!
//! * partial-availability intervals bracket the fault-free point answer
//!   (computed independently by the exact counter on the full catalog),
//! * a transient fault recovered by a retry yields an answer
//!   bit-identical to a run that never failed (only the attempt counts
//!   differ), and
//! * replaying the same seeded [`FaultPlan`] at 1, 2, and 8 threads
//!   yields identical statuses, answers, and intervals.

use proptest::prelude::*;
use pscds::core::confidence::ConfidenceAnalysis;
use pscds::core::govern::Budget;
use pscds::core::obs::ObsSession;
use pscds::core::resilient::{
    confidence_under_faults, FaultAwareConfidence, LadderPolicy, ResilientConfidence,
};
use pscds::core::source::{AccessPolicy, SourceAccess, SourceStatus};
use pscds::core::{
    CatalogProvider, CoreError, FaultPlan, FaultSpec, FaultyProvider, ParallelConfig,
    SourceCollection, SourceDescriptor,
};
use pscds::numeric::{Frac, Rational};
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

fn padding_of(collection: &SourceCollection) -> u64 {
    let identity = collection.as_identity().expect("identity views");
    DOMAIN as u64 - identity.all_tuples().len() as u64
}

/// Runs the fault rung over `collection` under `plan` (catalog access
/// when `plan` is `None`) with the default policy, unlimited budget, and
/// a disabled session.
fn run_under(
    collection: &SourceCollection,
    plan: Option<FaultPlan>,
    partial: bool,
    threads: usize,
) -> Result<FaultAwareConfidence, CoreError> {
    let mut access = SourceAccess::new(AccessPolicy::default(), collection.len());
    let mut obs = ObsSession::disabled();
    let padding = padding_of(collection);
    let budget = Budget::unlimited();
    let config = ParallelConfig::with_threads(threads);
    let policy = LadderPolicy::default();
    match plan {
        Some(plan) => {
            let mut provider = FaultyProvider::new(collection, plan);
            confidence_under_faults(
                &mut provider,
                &mut access,
                padding,
                &budget,
                &config,
                false,
                partial,
                &policy,
                &mut obs,
            )
        }
        None => {
            let mut provider = CatalogProvider::new(collection);
            confidence_under_faults(
                &mut provider,
                &mut access,
                padding,
                &budget,
                &config,
                false,
                partial,
                &policy,
                &mut obs,
            )
        }
    }
}

/// Per-tuple exact confidences, in catalog tuple order. An inconsistent
/// collection has no defined confidence; the rendered error stands in so
/// both runs must fail identically.
fn point_answers(
    collection: &SourceCollection,
    result: &ResilientConfidence,
) -> Vec<(Vec<Value>, Result<Rational, String>)> {
    let identity = collection.as_identity().expect("identity views");
    let exact = result
        .exact()
        .expect("unlimited budgets never reach the sampler");
    identity
        .all_tuples()
        .iter()
        .map(|t| {
            let conf = exact
                .confidence_of_tuple(&identity, t)
                .map_err(|e| e.to_string());
            (t.clone(), conf)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partial-availability intervals bracket the fault-free point
    /// answer, where the point is recomputed independently by the exact
    /// counter over the full catalog.
    #[test]
    fn intervals_contain_the_fault_free_point(
        collection in collections(),
        victim_seed in 0usize..8,
    ) {
        let victim = victim_seed % collection.len();
        let name = collection.sources()[victim].name().to_owned();
        let plan = FaultPlan::new(11).with_source(&name, FaultSpec::always_down());
        match run_under(&collection, Some(plan), true, 1) {
            Ok(FaultAwareConfidence::Partial { unavailable, intervals, .. }) => {
                prop_assert_eq!(unavailable, vec![name]);
                prop_assert!(intervals.all_contain_point());
                let identity = collection.as_identity().expect("identity views");
                let reference = ConfidenceAnalysis::analyze(&identity, padding_of(&collection));
                for t in intervals.tuples() {
                    let point = reference
                        .confidence_of_tuple(&identity, &t.tuple)
                        .expect("catalog tuple has a confidence");
                    prop_assert_eq!(&t.point, &point);
                    prop_assert!(t.interval.contains(&point), "bracket must hold the point");
                }
            }
            Ok(complete) => {
                prop_assert!(!complete.is_partial(), "hard-down victim cannot be available");
                unreachable!("hard-down victim cannot produce a complete answer");
            }
            // Collections whose bounds admit no world at all have no
            // defined confidence: the interval rung reports that rather
            // than inventing brackets.
            Err(CoreError::InconsistentCollection) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// A transient fault healed by the retry path answers bit-identically
    /// to a run that never failed: same engine, same world count, same
    /// per-tuple rationals — only the attempt counts differ.
    #[test]
    fn retry_then_success_is_bit_identical_to_never_failing(collection in collections()) {
        let transient = FaultPlan::new(5).with_default(FaultSpec {
            down: vec![(0, 1)],
            ..FaultSpec::none()
        });
        let faulted = run_under(&collection, Some(transient), false, 1);
        let clean = run_under(&collection, None, false, 1);
        match (faulted, clean) {
            (
                Ok(FaultAwareConfidence::Complete { statuses: sf, result: rf }),
                Ok(FaultAwareConfidence::Complete { statuses: sc, result: rc }),
            ) => {
                prop_assert!(sf
                    .iter()
                    .all(|s| *s == SourceStatus::Available { attempts: 2 }));
                prop_assert!(sc
                    .iter()
                    .all(|s| *s == SourceStatus::Available { attempts: 1 }));
                prop_assert_eq!(rf.engine(), rc.engine());
                prop_assert_eq!(point_answers(&collection, &rf), point_answers(&collection, &rc));
            }
            (Err(CoreError::InconsistentCollection),
             Err(CoreError::InconsistentCollection)) => {}
            (f, c) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverged: faulted {f:?} vs clean {c:?}"
                )))
            }
        }
    }

    /// Replaying one seeded plan at 1, 2, and 8 threads yields identical
    /// statuses, unavailable sets, and interval tables.
    #[test]
    fn fault_replay_is_bit_identical_across_thread_counts(
        collection in collections(),
        seed in 0u64..64,
    ) {
        let name = collection.sources()[0].name().to_owned();
        let plan = FaultPlan::new(seed)
            .with_default(FaultSpec {
                fail: Frac::new(1, 3),
                ..FaultSpec::none()
            })
            .with_source(&name, FaultSpec::always_down());
        let mut baseline: Option<(Vec<SourceStatus>, Vec<String>, _)> = None;
        for threads in THREADS {
            match run_under(&collection, Some(plan.clone()), true, threads) {
                Ok(FaultAwareConfidence::Partial { statuses, unavailable, intervals }) => {
                    match &baseline {
                        None => baseline = Some((statuses, unavailable, intervals)),
                        Some((s1, u1, i1)) => {
                            prop_assert_eq!(&statuses, s1);
                            prop_assert_eq!(&unavailable, u1);
                            prop_assert_eq!(&intervals, i1);
                        }
                    }
                }
                Ok(_) => return Err(TestCaseError::fail(
                    "S0 is hard-down: the answer must be partial".to_owned(),
                )),
                Err(CoreError::InconsistentCollection) => {
                    prop_assert!(baseline.is_none(), "verdict must not depend on thread count");
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
        }
    }
}
