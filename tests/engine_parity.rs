//! Differential parity harness for the parallel execution layer: on
//! random identity-view collections, every engine route to the same
//! semantics — exact oracle, signature decomposition, and the
//! work-partitioned parallel variants at several thread counts — must
//! produce *bit-identical* results. This is the determinism contract of
//! `pscds_core::partition` made executable (see DESIGN.md).

use proptest::prelude::*;
use pscds::core::confidence::{
    analyze_circuit, analyze_circuit_budgeted, analyze_circuit_conditional,
    analyze_circuit_conditional_budgeted, analyze_circuit_topk, analyze_circuit_topk_budgeted,
    compile_circuit, count_dp_observed, count_dp_shared, count_intervals, count_intervals_observed,
    CircuitConfig, ConfidenceAnalysis, DpConfig, LinearSystem, PossibleWorlds, SharedDpCache,
    SignatureAnalysis,
};
use pscds::core::consensus::{maximal_consistent_subsets, maximal_consistent_subsets_parallel};
use pscds::core::consistency::{
    decide_exhaustive, decide_exhaustive_parallel, decide_identity, decide_identity_parallel,
    find_witness_budgeted, find_witness_parallel,
};
use pscds::core::delta::{
    analyze_incremental, analyze_incremental_budgeted, DeltaBatch, DeltaSession, SourceDelta,
};
use pscds::core::govern::Budget;
use pscds::core::obs::{names, ObsReport, ObsSession};
use pscds::core::{
    check_resilient, confidence_resilient, ConfidenceRung, CoreError, Engine, LadderPolicy,
    ParallelConfig, SourceCollection, SourceDescriptor,
};
use pscds::numeric::{Frac, UBig};
use pscds::relational::Value;

const DOMAIN: usize = 5;
/// Thread counts exercised for every instance: the serial legacy path,
/// a modest pool, and heavy oversubscription.
const THREADS: [usize; 3] = [1, 2, 8];

/// A disabled session, then an enabled one: instrumentation must not
/// change a single bit of any analysis.
fn sessions() -> [ObsSession; 2] {
    [ObsSession::disabled(), ObsSession::in_memory()]
}

/// The memoized DP at `threads` workers, recording into `obs`.
fn dp(
    identity: &pscds::core::collection::IdentityCollection,
    padding: u64,
    budget: &Budget,
    threads: usize,
    obs: &mut ObsSession,
) -> Result<ConfidenceAnalysis, CoreError> {
    let analysis = SignatureAnalysis::new(identity, padding);
    let parallel = ParallelConfig::with_threads(threads);
    count_dp_observed(analysis, budget, &parallel, &DpConfig::default(), obs).map(|(a, _)| a)
}

fn domain() -> Vec<Value> {
    (0..DOMAIN).map(|i| Value::sym(&format!("u{i}"))).collect()
}

/// Strategy: a random identity-view collection over the 5-element domain.
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

/// Strategy: a random identity-view collection of 1–6 sources over a
/// 6-constant domain, with a padding of 0, 1 or 40 extension-free facts.
fn padded_collections() -> impl Strategy<Value = (SourceCollection, u64)> {
    let consts: Vec<Value> = (0..6).map(|i| Value::sym(&format!("w{i}"))).collect();
    let source = (
        proptest::collection::btree_set(0usize..consts.len(), 0..=consts.len()),
        0u64..=4,
        0u64..=4,
    );
    let sources = proptest::collection::vec(source, 1..=6);
    (sources, 0usize..3).prop_map(move |(specs, pad)| {
        let sources = specs.into_iter().enumerate().map(|(i, (ext, c, s))| {
            SourceDescriptor::identity(
                format!("S{i}"),
                &format!("V{i}"),
                "R",
                1,
                ext.into_iter().map(|e| [consts[e]]),
                Frac::new(c, 4),
                Frac::new(s, 4),
            )
            .expect("valid descriptor")
        });
        let collection = SourceCollection::from_sources(sources.collect::<Vec<_>>());
        (collection, [0, 1, 40][pad])
    })
}

/// The one `ladder.plan` event of a planned run, as `(dfs_steps,
/// dp_steps, folds, engine)`.
fn plan_of(report: &ObsReport) -> (u64, u64, u64, String) {
    let mut plans = report
        .events
        .iter()
        .filter(|e| e.name == names::EVENT_LADDER_PLAN);
    let plan = plans.next().expect("a ladder.plan event");
    assert!(plans.next().is_none(), "one plan per planned rung");
    let count = |i: usize| plan.attrs[i].1.parse::<u64>().expect("a step count");
    (count(0), count(1), count(2), plan.attrs[3].1.clone())
}

/// A one-rung policy running the planned exact rung.
fn planned() -> LadderPolicy {
    LadderPolicy {
        check: LadderPolicy::default().check,
        confidence: vec![ConfidenceRung::Planned],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The planned rung's one expansion sweep predicts both exact
    /// engines' step counts exactly: `dfs_steps` is the serial DFS's
    /// `Budget::steps()` and `dp_steps` is `count_dp_observed`'s.
    #[test]
    fn planned_rung_predicts_both_engines_steps_exactly((collection, padding) in padded_collections()) {
        let identity = collection.as_identity().expect("identity views");
        let serial = ParallelConfig::serial();
        let dfs_budget = Budget::unlimited();
        let analysis = SignatureAnalysis::new(&identity, padding);
        ConfidenceAnalysis::from_signature_analysis_parallel(analysis, &dfs_budget, &serial)
            .expect("unlimited budget");
        let dp_budget = Budget::unlimited();
        dp(&identity, padding, &dp_budget, 1, &mut ObsSession::disabled()).expect("unlimited budget");
        let mut obs = ObsSession::in_memory();
        confidence_resilient(&identity, padding, &Budget::unlimited(), &serial, false, &planned(), &mut obs)
            .expect("unlimited budget");
        let (dfs_steps, dp_steps, _, _) = plan_of(&obs.finish());
        prop_assert_eq!(dfs_steps, dfs_budget.steps());
        prop_assert_eq!(dp_steps, dp_budget.steps());
    }

    #[test]
    fn consistency_parity_across_engines_and_thread_counts(collection in collections()) {
        let dom = domain();
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let unlimited = Budget::unlimited();

        // Ground truth: the exhaustive subset sweep.
        let oracle = decide_exhaustive(&collection, &dom).expect("small universe");
        // Serial signature solver agrees on the verdict.
        let serial_sig = decide_identity(&identity, padding);
        prop_assert_eq!(serial_sig.is_consistent(), oracle.is_some());
        // Serial witness search (first witness in enumeration order).
        let serial_witness =
            find_witness_budgeted(&collection, &dom, None, &unlimited).expect("small universe");

        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);
            // Exhaustive decision: the *same* first-found world.
            let par_oracle =
                decide_exhaustive_parallel(&collection, &dom, &unlimited, &config)
                    .expect("small universe");
            prop_assert_eq!(&par_oracle, &oracle);
            // Signature solver: the same witness and count vector.
            let par_sig =
                decide_identity_parallel(&identity, padding, &unlimited, &config)
                    .expect("unlimited budget");
            prop_assert_eq!(&par_sig, &serial_sig);
            // Minimal-witness search: the same (minimal) witness.
            let par_witness =
                find_witness_parallel(&collection, &dom, None, &unlimited, &config)
                    .expect("small universe");
            prop_assert_eq!(&par_witness, &serial_witness);
        }
    }

    #[test]
    fn confidence_parity_across_engines_and_thread_counts(collection in collections()) {
        let dom = domain();
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let unlimited = Budget::unlimited();

        let worlds = PossibleWorlds::enumerate(&collection, &dom).expect("small universe");
        let serial = ConfidenceAnalysis::analyze(&identity, padding);
        prop_assert_eq!(serial.world_count(), &UBig::from(worlds.count() as u64));

        // The memoized residual-state DP: one more engine route, required
        // to be bit-identical on every aggregate.
        let dp_run = dp(&identity, padding, &unlimited, 1, &mut ObsSession::disabled())
            .expect("unlimited budget");
        prop_assert_eq!(dp_run.world_count(), serial.world_count());
        prop_assert_eq!(dp_run.feasible_vectors(), serial.feasible_vectors());
        // The consensus sweep's shared-cache DP: same aggregates.
        let mut shared = SharedDpCache::new(&DpConfig::default());
        let (shared_run, _) = count_dp_shared(
            SignatureAnalysis::new(&identity, padding),
            &unlimited,
            &mut shared,
        )
        .expect("unlimited budget");
        prop_assert_eq!(shared_run.world_count(), serial.world_count());
        prop_assert_eq!(shared_run.feasible_vectors(), serial.feasible_vectors());
        if serial.is_consistent() {
            for tuple in identity.all_tuples() {
                prop_assert_eq!(dp_run.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                    serial.confidence_of_tuple(&identity, &tuple).expect("consistent"));
            }
            if padding > 0 {
                prop_assert_eq!(dp_run.padding_confidence().expect("padding exists"),
                    serial.padding_confidence().expect("padding exists"));
            }
        }

        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);
            // Brute-force oracle: identical world masks in identical order.
            let par_worlds =
                PossibleWorlds::enumerate_parallel(&collection, &dom, &unlimited, &config)
                    .expect("small universe");
            prop_assert_eq!(par_worlds.masks(), worlds.masks());
            // Signature counter: identical totals and per-tuple confidences.
            let par = ConfidenceAnalysis::from_signature_analysis_parallel(
                SignatureAnalysis::new(&identity, padding),
                &unlimited,
                &config,
            )
            .expect("unlimited budget");
            prop_assert_eq!(par.world_count(), serial.world_count());
            prop_assert_eq!(par.feasible_vectors(),
                serial.feasible_vectors());
            // Partitioned DP: same contract at every thread count, with
            // the session disabled or enabled.
            for mut obs in sessions() {
                let par_dp = dp(&identity, padding, &unlimited, threads, &mut obs)
                    .expect("unlimited budget");
                prop_assert_eq!(par_dp.world_count(), serial.world_count());
                prop_assert_eq!(par_dp.feasible_vectors(), serial.feasible_vectors());
                if serial.is_consistent() {
                    for tuple in identity.all_tuples() {
                        prop_assert_eq!(par_dp.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                            serial.confidence_of_tuple(&identity, &tuple).expect("consistent"));
                    }
                    if padding > 0 {
                        prop_assert_eq!(par_dp.padding_confidence().expect("padding exists"),
                            serial.padding_confidence().expect("padding exists"));
                    }
                }
            }
            if serial.is_consistent() {
                for tuple in identity.all_tuples() {
                    prop_assert_eq!(par.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                        serial.confidence_of_tuple(&identity, &tuple).expect("consistent"));
                }
                if padding > 0 {
                    prop_assert_eq!(par.padding_confidence().expect("padding exists"),
                        serial.padding_confidence().expect("padding exists"));
                }
            }
        }
    }

    /// Budget-interrupted runs resume cleanly: a tiny step allowance
    /// either completes (small instance) or trips with `BudgetExceeded`,
    /// and a rerun under an unlimited budget produces the bit-exact
    /// serial result.
    #[test]
    fn confidence_budget_interruption_is_clean(collection in collections(), max_steps in 1u64..200) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let serial = ConfidenceAnalysis::analyze(&identity, padding);

        // The DFS counter.
        match ConfidenceAnalysis::analyze_budgeted(&identity, padding, &Budget::with_max_steps(max_steps)) {
            Ok(done) => {
                prop_assert_eq!(done.world_count(), serial.world_count());
                prop_assert_eq!(done.feasible_vectors(), serial.feasible_vectors());
            }
            Err(CoreError::BudgetExceeded { .. }) => {
                let redo = ConfidenceAnalysis::analyze_budgeted(&identity, padding, &Budget::unlimited())
                    .expect("unlimited budget");
                prop_assert_eq!(redo.world_count(), serial.world_count());
                prop_assert_eq!(redo.feasible_vectors(), serial.feasible_vectors());
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }

        // The memoized DP.
        let mut obs = ObsSession::disabled();
        match dp(&identity, padding, &Budget::with_max_steps(max_steps), 1, &mut obs) {
            Ok(done) => {
                prop_assert_eq!(done.world_count(), serial.world_count());
                prop_assert_eq!(done.feasible_vectors(), serial.feasible_vectors());
            }
            Err(CoreError::BudgetExceeded { .. }) => {
                let redo = dp(&identity, padding, &Budget::unlimited(), 1, &mut obs)
                    .expect("unlimited budget");
                prop_assert_eq!(redo.world_count(), serial.world_count());
                prop_assert_eq!(redo.feasible_vectors(), serial.feasible_vectors());
                if serial.is_consistent() {
                    for tuple in identity.all_tuples() {
                        prop_assert_eq!(redo.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                            serial.confidence_of_tuple(&identity, &tuple).expect("consistent"));
                    }
                }
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// The explicit Γ linear system (Section 5.1): `count_solutions` /
    /// `count_solutions_with` and their work-partitioned parallel twins
    /// sum contiguous sub-ranges of the same ascending assignment sweep,
    /// so every thread count must reproduce the serial counts exactly.
    #[test]
    fn gamma_count_parity_across_thread_counts(collection in collections()) {
        let dom = domain();
        let identity = collection.as_identity().expect("identity views");
        let gamma = LinearSystem::from_identity(&identity, &dom).expect("small domain");
        let unlimited = Budget::unlimited();
        let serial_total = gamma.count_solutions().expect("≤26 variables");
        let fixed = [(0usize, true)];
        let serial_fixed = gamma.count_solutions_with(&fixed).expect("≤26 variables");
        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);
            let par_total = gamma
                .count_solutions_parallel(&unlimited, &config)
                .expect("≤26 variables");
            prop_assert_eq!(par_total, serial_total);
            let par_fixed = gamma
                .count_solutions_with_parallel(&fixed, &unlimited, &config)
                .expect("≤26 variables");
            prop_assert_eq!(par_fixed, serial_fixed);
        }
    }

    /// Graceful degradation: `check_resilient` must return the serial
    /// answer — same engine, same verdict, same witness world — at every
    /// thread count, with the session disabled or enabled.
    #[test]
    fn resilient_parity_across_thread_counts(collection in collections()) {
        let dom = domain();
        let unlimited = Budget::unlimited();
        let policy = LadderPolicy::default();
        let serial = ParallelConfig::serial();
        let reference =
            check_resilient(&collection, &dom, &unlimited, &serial, &policy, &mut ObsSession::disabled())
                .expect("small universe");
        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);
            for mut obs in sessions() {
                let par = check_resilient(&collection, &dom, &unlimited, &config, &policy, &mut obs)
                    .expect("small universe");
                prop_assert_eq!(par.engine, reference.engine);
                prop_assert_eq!(par.consistent, reference.consistent);
                prop_assert_eq!(&par.witness, &reference.witness);
            }
        }
    }

    /// The partial-availability interval engine: `count_intervals` and
    /// `count_intervals_observed` must be bit-identical at every thread
    /// count, with the session disabled or enabled, and — containment by
    /// construction — every bracket contains the fault-free point answer.
    /// Every exact one-rung confidence policy (DFS, DP, circuit, planned)
    /// must answer through `confidence_resilient` bit-identically to the
    /// serial counter, under the same grid, and the planned rung must
    /// pick the same engine at every thread count.
    #[test]
    fn interval_and_ladder_policy_parity_across_thread_counts(
        collection in collections(),
        missing_seed in 0usize..8,
    ) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let unlimited = Budget::unlimited();
        let missing = [missing_seed % collection.len()];

        let serial = count_intervals(&identity, padding, &missing);
        if let Ok(a) = &serial {
            prop_assert!(a.all_contain_point());
        }
        let exact = ConfidenceAnalysis::analyze(&identity, padding);
        // The engine the planned rung picks, which must not depend on the
        // thread count or the session.
        let mut planned_engine: Option<Engine> = None;
        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);
            for mut obs in sessions() {
                let watched = count_intervals_observed(
                    &identity, padding, &missing, &unlimited, &config, &mut obs,
                );
                match (&serial, &watched) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(CoreError::InconsistentCollection),
                     Err(CoreError::InconsistentCollection)) => {}
                    (a, b) => return Err(TestCaseError::fail(format!(
                        "interval engine disagrees at {threads} threads: {a:?} vs {b:?}"
                    ))),
                }
            }

            for rung in [
                ConfidenceRung::ExactDfs,
                ConfidenceRung::Dp,
                ConfidenceRung::Circuit,
                ConfidenceRung::Planned,
            ] {
                let policy = LadderPolicy {
                    check: LadderPolicy::default().check,
                    confidence: vec![rung],
                };
                for mut obs in sessions() {
                    let answer = confidence_resilient(
                        &identity, padding, &unlimited, &config, false, &policy, &mut obs,
                    )
                    .expect("unlimited budget");
                    if rung == ConfidenceRung::Planned {
                        let engine = *planned_engine.get_or_insert(answer.engine());
                        prop_assert_eq!(answer.engine(), engine);
                    } else {
                        prop_assert_eq!(answer.engine(), rung.engine());
                    }
                    let answer = answer.exact().expect("an exact rung");
                    prop_assert_eq!(answer.world_count(), exact.world_count());
                    prop_assert_eq!(answer.feasible_vectors(), exact.feasible_vectors());
                    if exact.is_consistent() {
                        for tuple in identity.all_tuples() {
                            prop_assert_eq!(
                                answer.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                                exact.confidence_of_tuple(&identity, &tuple).expect("consistent")
                            );
                        }
                    }
                }
            }
        }
    }

    /// Incremental maintenance is not a new semantics, just a cheaper
    /// route to the old one: after ANY prefix of a delta stream, a
    /// maintained [`DeltaSession`] must answer bit-identically to
    /// building the analysis directly from the accumulated collection —
    /// verdict, world count, feasible-vector count, and every per-tuple
    /// confidence — whether it is answered through
    /// `analyze_incremental_budgeted` or `analyze_incremental`, after
    /// different maintenance histories.
    #[test]
    fn incremental_parity_over_delta_streams(
        collection in collections(),
        stream in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..3, 0usize..DOMAIN, 0usize..2),
                0..4,
            ),
            1..5,
        ),
    ) {
        let dom = domain();
        let identity = collection.as_identity().expect("identity views");
        let n_sources = identity.sources.len();
        // Fix the universe at the full domain so no insert can overflow.
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let unlimited = Budget::unlimited();

        // Two maintained sessions replaying in lockstep; only the first
        // answers the initial state, so their maintenance tiers differ.
        let mut sessions: Vec<DeltaSession> = (0..2)
            .map(|_| DeltaSession::new(&collection, padding).expect("identity views"))
            .collect();
        let _ = analyze_incremental(&mut sessions[0]);

        for ops in &stream {
            let batch = DeltaBatch {
                deltas: ops
                    .iter()
                    .map(|&(src, val, insert)| {
                        let src = src % n_sources;
                        let insert = insert == 1;
                        let fact = pscds::relational::Fact::new(
                            format!("V{src}").as_str(),
                            [dom[val]],
                        );
                        SourceDelta {
                            source: format!("S{src}"),
                            delete: if insert { vec![] } else { vec![fact.clone()] },
                            insert: if insert { vec![fact] } else { vec![] },
                        }
                    })
                    .collect(),
            };
            for session in &mut sessions {
                session.apply_batch(&batch).expect("in-universe ops");
            }

            // Ground truth: analyze the accumulated state from scratch.
            let maintained = sessions[0].collection().clone();
            let scratch =
                ConfidenceAnalysis::analyze(&maintained, sessions[0].padding());

            let first = analyze_incremental_budgeted(&mut sessions[0], &unlimited)
                .expect("unlimited budget");
            prop_assert_eq!(first.world_count(), scratch.world_count());
            prop_assert_eq!(first.feasible_vectors(), scratch.feasible_vectors());
            prop_assert_eq!(first.is_consistent(), scratch.is_consistent());
            let second = analyze_incremental(&mut sessions[1]);
            prop_assert_eq!(second.world_count(), first.world_count());
            prop_assert_eq!(second.feasible_vectors(), first.feasible_vectors());
            if scratch.is_consistent() {
                for tuple in maintained.all_tuples() {
                    prop_assert_eq!(
                        second
                            .confidence_of_tuple(&maintained, &tuple)
                            .expect("consistent"),
                        scratch
                            .confidence_of_tuple(&maintained, &tuple)
                            .expect("consistent")
                    );
                }
            }
            if scratch.is_consistent() {
                for tuple in maintained.all_tuples() {
                    prop_assert_eq!(
                        first
                            .confidence_of_tuple(&maintained, &tuple)
                            .expect("consistent"),
                        scratch
                            .confidence_of_tuple(&maintained, &tuple)
                            .expect("consistent")
                    );
                }
            }
        }
    }

    /// The compiled circuit is a fourth engine route to the same
    /// semantics: `compile_circuit` once, then `analyze_circuit` (plus
    /// the conditional and top-k traversals) must be bit-identical to
    /// the uncompiled DFS and DP counters on every aggregate and every
    /// per-tuple confidence, with the `_budgeted` forms agreeing. (The
    /// circuit through the ladder, at every thread count and session
    /// state, is in `interval_and_ladder_policy_parity_across_thread_counts`.)
    #[test]
    fn circuit_parity_across_engines_and_thread_counts(collection in collections()) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let unlimited = Budget::unlimited();

        let serial = ConfidenceAnalysis::analyze(&identity, padding);
        let dp_run = dp(&identity, padding, &unlimited, 1, &mut ObsSession::disabled())
            .expect("unlimited budget");
        let circuit = compile_circuit(
            SignatureAnalysis::new(&identity, padding),
            &unlimited,
            &CircuitConfig::default(),
        )
        .expect("unlimited budget");

        // One traversal of the compiled form reproduces both uncompiled
        // engines bit-for-bit.
        let traversed = analyze_circuit(&circuit);
        prop_assert_eq!(traversed.world_count(), serial.world_count());
        prop_assert_eq!(traversed.world_count(), dp_run.world_count());
        prop_assert_eq!(traversed.feasible_vectors(), serial.feasible_vectors());
        prop_assert_eq!(traversed.is_consistent(), serial.is_consistent());
        let budgeted = analyze_circuit_budgeted(&circuit, &unlimited).expect("unlimited budget");
        prop_assert_eq!(budgeted.world_count(), serial.world_count());
        prop_assert_eq!(budgeted.feasible_vectors(), serial.feasible_vectors());

        if serial.is_consistent() {
            for tuple in identity.all_tuples() {
                let reference = serial.confidence_of_tuple(&identity, &tuple).expect("consistent");
                prop_assert_eq!(
                    traversed.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                    reference.clone()
                );
                prop_assert_eq!(
                    dp_run.confidence_of_tuple(&identity, &tuple).expect("consistent"),
                    reference.clone()
                );
                // Conditioning on the empty event is the plain confidence.
                prop_assert_eq!(
                    analyze_circuit_conditional(&circuit, &identity, &tuple, &[])
                        .expect("consistent"),
                    reference.clone()
                );
                prop_assert_eq!(
                    analyze_circuit_conditional_budgeted(
                        &circuit, &identity, &tuple, &[], &unlimited
                    )
                    .expect("consistent"),
                    reference
                );
            }
            if padding > 0 {
                prop_assert_eq!(
                    traversed.padding_confidence().expect("padding exists"),
                    serial.padding_confidence().expect("padding exists")
                );
            }
            // Top-k is a prefix of the full sorted table; ask for
            // everything and it *is* the full sorted table.
            let full = analyze_circuit_topk(&circuit, usize::MAX).expect("consistent");
            let mut expected: Vec<_> = identity
                .all_tuples()
                .into_iter()
                .map(|t| {
                    let conf = serial.confidence_of_tuple(&identity, &t).expect("consistent");
                    (t, conf)
                })
                .collect();
            expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            prop_assert_eq!(&full, &expected);
            prop_assert_eq!(
                analyze_circuit_topk_budgeted(&circuit, usize::MAX, &unlimited)
                    .expect("consistent"),
                full
            );
        }
    }

    #[test]
    fn consensus_parity_across_thread_counts(collection in collections()) {
        let padding = 2u64;
        let serial = maximal_consistent_subsets(&collection, padding).expect("small collection");
        for threads in THREADS {
            let config = ParallelConfig::with_threads(threads);
            let par = maximal_consistent_subsets_parallel(
                &collection,
                padding,
                &Budget::unlimited(),
                &config,
            )
            .expect("small collection");
            prop_assert_eq!(&par, &serial);
        }
    }
}

/// Generated from the lint registry: the L1 `engine-twins` rule
/// re-discovers every engine entry point in `crates/core/src` from
/// source, and this test fails if any non-exempt engine base is missing
/// from this file — so adding a new `check_*` / `analyze_*` / `count_*`
/// engine forces a parity case here before `pscds-lint` (and this suite)
/// goes green. Keeping the check inside the harness means the coverage
/// list can never drift from the registry that enforces it.
#[test]
fn parity_harness_covers_every_registered_engine() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let ws = pscds_analysis::Workspace::load(root).expect("workspace sources load");
    let bases = pscds_analysis::lints::engine_twins::engine_bases(&ws);
    assert!(
        !bases.is_empty(),
        "engine discovery broke: the registry found no engine bases in crates/core/src"
    );
    let harness = std::fs::read_to_string(root.join("tests/engine_parity.rs"))
        .expect("harness source readable");
    for base in &bases {
        if base.allowed {
            continue;
        }
        assert!(
            harness.contains(&base.name),
            "engine `{}` ({}:{}) is registered by the engine-twins rule but has no parity \
             case in tests/engine_parity.rs",
            base.name,
            base.file,
            base.line
        );
    }
    // And the full rule must be clean on the live tree: twins declared,
    // parity references present.
    let violations = pscds_analysis::lints::engine_twins::run(&ws);
    assert!(
        violations.is_empty(),
        "engine-twins violations on the live tree:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
