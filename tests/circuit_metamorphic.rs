//! Metamorphic properties of the compiled confidence circuit: relations
//! that must hold between *different runs* of the engine, rather than
//! against a reference value. Each property is a transformation of the
//! input (permute the sources, round-trip the text format, condition on
//! a certain event) paired with the invariant the output must keep.
//! Together with `tests/engine_parity.rs` (bit-identity against the
//! uncompiled engines) this is the differential harness of DESIGN.md
//! §3.13.

use proptest::prelude::*;
use pscds::core::collection::IdentityCollection;
use pscds::core::confidence::{
    analyze_circuit, analyze_circuit_budgeted, analyze_circuit_conditional,
    analyze_circuit_conditional_budgeted, analyze_circuit_topk, analyze_circuit_topk_budgeted,
    compile_circuit, CircuitConfig, CompiledCircuit, CompiledCollection, ConfidenceAnalysis,
    PossibleWorlds, SignatureAnalysis,
};
use pscds::core::delta::{analyze_incremental, parse_delta_stream, DeltaSession};
use pscds::core::govern::Budget;
use pscds::core::paper::{example_5_1, example_5_1_scaled};
use pscds::core::textfmt::{format_collection, parse_collection};
use pscds::core::{CoreError, SourceCollection, SourceDescriptor};
use pscds::numeric::{Frac, Rational};
use pscds::relational::{Fact, Value};
use std::collections::BTreeSet;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const DOMAIN: usize = 5;

fn domain() -> Vec<Value> {
    named_domain("u")
}

/// The 5-element domain, its constants named `{prefix}0`, `{prefix}1`, ….
fn named_domain(prefix: &str) -> Vec<Value> {
    (0..DOMAIN)
        .map(|i| Value::sym(&format!("{prefix}{i}")))
        .collect()
}

/// One source of a random collection: its extension (domain indices)
/// and its completeness and soundness in quarters.
type SourceSpec = (BTreeSet<usize>, u64, u64);

fn source_specs() -> impl Strategy<Value = Vec<SourceSpec>> {
    let source = (
        proptest::collection::btree_set(0usize..DOMAIN, 0..=DOMAIN),
        0u64..=4,
        0u64..=4,
    );
    proptest::collection::vec(source, 1..=3)
}

/// The collection `specs` describe over [`named_domain`]`(prefix)`.
fn build(specs: &[SourceSpec], prefix: &str) -> SourceCollection {
    let dom = named_domain(prefix);
    let sources = specs
        .iter()
        .enumerate()
        .map(|(i, (ext, c, s))| {
            SourceDescriptor::identity(
                format!("S{i}"),
                &format!("V{i}"),
                "R",
                1,
                ext.iter().map(|&e| [dom[e]]),
                Frac::new(*c, 4),
                Frac::new(*s, 4),
            )
            .expect("valid descriptor")
        })
        .collect::<Vec<_>>();
    SourceCollection::from_sources(sources)
}

/// Strategy: a random identity-view collection over the 5-element domain
/// (the same shape as the engine-parity harness).
fn collections() -> impl Strategy<Value = SourceCollection> {
    source_specs().prop_map(|specs| build(&specs, "u"))
}

/// Compiles `collection` over `padding` fresh domain facts.
fn compile(collection: &SourceCollection, padding: u64) -> CompiledCircuit {
    let identity = collection.as_identity().expect("identity views");
    compile_circuit(
        SignatureAnalysis::new(&identity, padding),
        &Budget::unlimited(),
        &CircuitConfig::default(),
    )
    .expect("unlimited budget")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Permuting the *order* of the sources relabels signature bits and
    /// reorders the signature classes, but the distribution over
    /// possible worlds is the same set of worlds — so every named
    /// tuple's confidence, and the world count, must be invariant. (The
    /// per-class numerators are source-order-sensitive internally; this
    /// property is exactly why the compiler may canonicalize *count*
    /// skeletons but must keep numerators pinned to the exact order.)
    #[test]
    fn source_order_permutation_leaves_confidences_invariant(collection in collections()) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let base = analyze_circuit(&compile(&collection, padding));

        let mut permuted_sources: Vec<SourceDescriptor> = collection.sources().to_vec();
        permuted_sources.reverse();
        let mut permutations = vec![permuted_sources];
        if collection.sources().len() > 2 {
            let mut rotated: Vec<SourceDescriptor> = collection.sources().to_vec();
            rotated.rotate_left(1);
            permutations.push(rotated);
        }
        for sources in permutations {
            let permuted = SourceCollection::from_sources(sources);
            let permuted_identity = permuted.as_identity().expect("identity views");
            let analysis = analyze_circuit(&compile(&permuted, padding));
            prop_assert_eq!(analysis.world_count(), base.world_count());
            prop_assert_eq!(analysis.feasible_vectors(), base.feasible_vectors());
            prop_assert_eq!(analysis.is_consistent(), base.is_consistent());
            if base.is_consistent() {
                for tuple in identity.all_tuples() {
                    prop_assert_eq!(
                        analysis
                            .confidence_of_tuple(&permuted_identity, &tuple)
                            .expect("consistent"),
                        base.confidence_of_tuple(&identity, &tuple).expect("consistent")
                    );
                }
            }
        }
    }

    /// Chain rule, empty case: `conf(t | ∅) == conf(t)` for every tuple.
    #[test]
    fn conditioning_on_the_empty_event_is_plain_confidence(collection in collections()) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let circuit = compile(&collection, padding);
        let analysis = analyze_circuit(&circuit);
        if analysis.is_consistent() {
            for tuple in identity.all_tuples() {
                prop_assert_eq!(
                    analyze_circuit_conditional(&circuit, &identity, &tuple, &[])
                        .expect("consistent"),
                    analysis.confidence_of_tuple(&identity, &tuple).expect("consistent")
                );
            }
        }
    }

    /// Top-k agrees with the full sort of `analyze_circuit` at every k:
    /// the same (descending confidence, ascending tuple) order, truncated.
    #[test]
    fn top_k_is_the_truncated_full_sort(collection in collections()) {
        let identity = collection.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let circuit = compile(&collection, padding);
        let analysis = analyze_circuit(&circuit);
        if !analysis.is_consistent() {
            return Ok(());
        }
        let mut full: Vec<(Vec<Value>, Rational)> = identity
            .all_tuples()
            .into_iter()
            .map(|t| {
                let conf = analysis.confidence_of_tuple(&identity, &t).expect("consistent");
                (t, conf)
            })
            .collect();
        full.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for k in 0..=full.len() + 1 {
            let topk = analyze_circuit_topk(&circuit, k).expect("consistent");
            prop_assert_eq!(&topk[..], &full[..k.min(full.len())]);
        }
    }

    /// Round-tripping the collection through the text format and
    /// recompiling yields a structurally identical circuit: same
    /// skeleton digest, same stats, same analysis.
    #[test]
    fn textfmt_round_trip_preserves_the_circuit_skeleton(collection in collections()) {
        let padding = 2u64;
        let original = compile(&collection, padding);
        let round_tripped = parse_collection(&format_collection(&collection))
            .expect("formatter output parses");
        let recompiled = compile(&round_tripped, padding);
        prop_assert_eq!(recompiled.skeleton_digest(), original.skeleton_digest());
        prop_assert_eq!(recompiled.stats(), original.stats());
        prop_assert_eq!(recompiled.node_count(), original.node_count());
        let a = analyze_circuit(&original);
        let b = analyze_circuit(&recompiled);
        prop_assert_eq!(a.world_count(), b.world_count());
        prop_assert_eq!(a.feasible_vectors(), b.feasible_vectors());
    }
}

/// Chain rule, certain case: a source with soundness 1 makes its
/// extension tuple true in *every* world, so conditioning on it cannot
/// move any confidence. (The certain tuple itself has confidence 1.)
#[test]
fn conditioning_on_a_certain_tuple_is_a_no_op() {
    let mut sources: Vec<SourceDescriptor> = example_5_1().sources().to_vec();
    sources.push(
        SourceDescriptor::identity(
            "S3",
            "V3",
            "R",
            1,
            [[Value::sym("z")]],
            Frac::ZERO,
            Frac::ONE,
        )
        .expect("valid descriptor"),
    );
    let collection = SourceCollection::from_sources(sources);
    let identity = collection.as_identity().expect("identity views");
    let padding = 3u64;
    let circuit = compile(&collection, padding);
    let analysis = analyze_circuit(&circuit);
    assert!(analysis.is_consistent());

    let certain = vec![Value::sym("z")];
    assert_eq!(
        analysis
            .confidence_of_tuple(&identity, &certain)
            .expect("consistent"),
        Rational::one(),
        "soundness-1 singleton extension must be certain"
    );
    let given = [certain.clone()];
    for tuple in identity.all_tuples() {
        assert_eq!(
            analyze_circuit_conditional(&circuit, &identity, &tuple, &given).expect("consistent"),
            analysis
                .confidence_of_tuple(&identity, &tuple)
                .expect("consistent"),
            "conditioning on the certain tuple moved conf({tuple:?})"
        );
    }
}

/// Every answer a circuit gives about its collection: the marginal
/// aggregates and class confidences, the whole ranked table, and every
/// domain tuple's confidence given each event (errors rendered).
#[derive(Debug, PartialEq)]
struct Answers {
    worlds: String,
    vectors: u64,
    classes: Vec<Result<Rational, String>>,
    ranked: Result<Vec<(Vec<Value>, Rational)>, String>,
    given: Vec<Vec<Result<Rational, String>>>,
}

/// The events as tuple lists over `dom`.
fn events_over(events: &[BTreeSet<usize>], dom: &[Value]) -> Vec<Vec<Vec<Value>>> {
    let tuples = |event: &BTreeSet<usize>| event.iter().map(|&i| vec![dom[i]]).collect();
    events.iter().map(tuples).collect()
}

fn answers(
    circuit: &CompiledCircuit,
    identity: &IdentityCollection,
    events: &[Vec<Vec<Value>>],
) -> Answers {
    let marginal = analyze_circuit(circuit);
    let classes = circuit.analysis().classes().len();
    let rendered = |e: CoreError| e.to_string();
    Answers {
        worlds: marginal.world_count().to_string(),
        vectors: marginal.feasible_vectors(),
        classes: (0..classes)
            .map(|class| marginal.class_confidence(class).map_err(rendered))
            .collect(),
        ranked: analyze_circuit_topk(circuit, usize::MAX).map_err(rendered),
        given: events
            .iter()
            .map(|given| {
                (domain().iter())
                    .map(|&t| analyze_circuit_conditional(circuit, identity, &[t], given))
                    .map(|answer| answer.map_err(rendered))
                    .collect()
            })
            .collect(),
    }
}

/// Asks `circuit` about each event: one conditional query per event,
/// then a point and a top-k query.
fn warm_up(circuit: &CompiledCircuit, identity: &IdentityCollection, events: &[Vec<Vec<Value>>]) {
    for given in events {
        let target = given.first().map_or(vec![Value::sym("u0")], Clone::clone);
        let _ = analyze_circuit_conditional(circuit, identity, &target, given);
    }
    let _ = analyze_circuit(circuit);
    let _ = analyze_circuit_topk(circuit, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The event-table memo is invisible: a circuit whose memo earlier
    /// queries filled — on itself and on a structurally identical
    /// collection whose skeleton it shares through a `CompiledCollection`
    /// cross-collection rebind — answers every marginal, ranked and
    /// conditional question bit-identically to a fresh compile, and to
    /// the DFS counter and the brute-force possible-world oracle.
    #[test]
    fn memoized_event_tables_answer_like_a_fresh_compile(
        specs in source_specs(),
        warmups in proptest::collection::vec(
            proptest::collection::btree_set(0usize..DOMAIN, 0..=3),
            0..4,
        ),
        events in proptest::collection::vec(
            proptest::collection::btree_set(0usize..DOMAIN, 0..=3),
            1..4,
        ),
    ) {
        let (collection, sibling) = (build(&specs, "u"), build(&specs, "w"));
        let identity = collection.as_identity().expect("identity views");
        let sibling_identity = sibling.as_identity().expect("identity views");
        let padding = DOMAIN as u64 - identity.all_tuples().len() as u64;
        let (budget, config) = (Budget::unlimited(), CircuitConfig::default());

        // Warm the sibling on its renamed copies of every event, then
        // rebind its skeleton to this collection and warm that too.
        let mut cache = CompiledCollection::new();
        let first = cache
            .get_or_compile(&sibling_identity, padding, &budget, &config)
            .expect("unlimited budget");
        let renamed = [warmups.clone(), events.clone()].concat();
        warm_up(&first, &sibling_identity, &events_over(&renamed, &named_domain("w")));
        let warm = cache
            .get_or_compile(&identity, padding, &budget, &config)
            .expect("unlimited budget");
        // Without member tuples the two instances coincide: an instance
        // hit instead of a rebind.
        let rebinds = u64::from(!identity.all_tuples().is_empty());
        prop_assert_eq!((cache.misses(), cache.cross_hits()), (1, rebinds));
        let dom = domain();
        warm_up(&warm, &identity, &events_over(&warmups, &dom));

        let events = events_over(&events, &dom);
        let got = answers(&warm, &identity, &events);
        prop_assert_eq!(&got, &answers(&compile(&collection, padding), &identity, &events));
        // Asked again, every answer is a memo hit, and still the same.
        prop_assert_eq!(&got, &answers(&warm, &identity, &events));

        let dfs = ConfidenceAnalysis::analyze(&identity, padding);
        prop_assert_eq!(&got.worlds, &dfs.world_count().to_string());
        prop_assert_eq!(got.vectors, dfs.feasible_vectors());
        let worlds = PossibleWorlds::enumerate(&collection, &dom).expect("small domain");
        if worlds.masks().is_empty() {
            return Ok(());
        }
        for tuple in identity.all_tuples() {
            let confidence = dfs.confidence_of_tuple(&identity, &tuple).expect("consistent");
            let warm_analysis = analyze_circuit(&warm);
            let got = warm_analysis.confidence_of_tuple(&identity, &tuple).expect("consistent");
            prop_assert_eq!(got, confidence);
        }
        let bit = |v: Value| {
            let fact = Fact::new("R", [v]);
            worlds.universe().index_of(&fact).expect("a domain fact")
        };
        let holding = |tuples: &[Value]| {
            let holds = |&mask: &&u64| tuples.iter().all(|&v| mask >> bit(v) & 1 == 1);
            worlds.masks().iter().filter(holds).count() as u64
        };
        for (given, row) in events.iter().zip(&got.given) {
            let pinned: Vec<Value> = given.iter().map(|t| t[0]).collect();
            let base = holding(&pinned);
            for (&t, answer) in dom.iter().zip(row) {
                if base == 0 {
                    prop_assert!(answer.is_err(), "an impossible event answered {:?}", answer);
                    continue;
                }
                let both = holding(&[pinned.clone(), vec![t]].concat());
                prop_assert_eq!(answer, &Ok(Rational::from_u64(both, base)));
            }
        }
    }
}

/// The three query kinds, each under a given budget.
type Query<'a> = Box<dyn Fn(&CompiledCircuit, &Budget) -> Result<String, CoreError> + 'a>;

/// A budget trip mid-pass memoizes nothing: the next call is cold again
/// and ticks every node of every pass, then answers like a fresh
/// compile; a call after that is a memo hit, which ticks no step, but a
/// cancelled budget still trips it.
#[test]
fn a_tripped_pass_leaves_no_table_and_a_hit_ticks_nothing() {
    let collection = example_5_1_scaled(8);
    let identity = collection.as_identity().expect("identity views");
    let padding = 8;
    let fresh = || compile(&collection, padding);
    let nodes = fresh().node_count() as u64 - 1; // all but the accepting leaf
    let top = analyze_circuit_topk(&fresh(), 1).expect("consistent");
    let (target, evidence) = (vec![Value::sym("a1")], vec![top[0].0.clone()]);
    assert_ne!(target, evidence[0], "the event must not hold the target");
    let queries: [(&str, u64, Query); 3] = [
        (
            "point",
            1,
            Box::new(|c, b| {
                analyze_circuit_budgeted(c, b).map(|a| format!("{:?}", a.class_confidences()))
            }),
        ),
        (
            "top-k",
            1,
            Box::new(|c, b| analyze_circuit_topk_budgeted(c, 3, b).map(|rows| format!("{rows:?}"))),
        ),
        (
            "conditional",
            2,
            Box::new(|c, b| {
                analyze_circuit_conditional_budgeted(c, &identity, &target, &evidence, b)
                    .map(|conf| conf.to_string())
            }),
        ),
    ];
    for (label, passes, query) in &queries {
        let circuit = fresh();
        for cap in (0..*passes).map(|pass| pass * nodes + nodes / 2) {
            let tripped = query(&circuit, &Budget::with_max_steps(cap));
            assert!(
                matches!(tripped, Err(CoreError::BudgetExceeded { .. })),
                "{label}: a cap of {cap} steps did not trip: {tripped:?}"
            );
        }
        let cold = Budget::unlimited();
        let answer = query(&circuit, &cold).expect("unlimited budget");
        assert_eq!(
            cold.steps(),
            passes * nodes,
            "{label}: a cold table ticks every pass"
        );
        assert_eq!(
            answer,
            query(&fresh(), &Budget::unlimited()).expect("unlimited budget")
        );
        let hit = Budget::unlimited();
        assert_eq!(query(&circuit, &hit).expect("unlimited budget"), answer);
        assert_eq!(hit.steps(), 0, "{label}: a memo hit ticks no step");
        let cancelled = Budget::unlimited().and_cancel(Arc::new(AtomicBool::new(true)));
        assert!(
            matches!(
                query(&circuit, &cancelled),
                Err(CoreError::BudgetExceeded { .. })
            ),
            "{label}: a cancelled budget must trip a memo hit"
        );
    }
}

/// A delta session's reuse tier answers from the skeleton's memoized
/// marginal table, and neither a patch nor a recompile may serve the
/// table of the arena it replaced: after every batch the session
/// answers like a from-scratch compile, and its counters show each tier
/// ran.
#[test]
fn patched_and_recompiled_sessions_serve_no_stale_table() {
    let catalog = parse_collection(
        "source S1 {
  view: V1(x) <- R(x)
  completeness: 1/2
  soundness: 1/4
  extension: V1(a1). V1(a2). V1(a3). V1(b1). V1(b2). V1(b3).
}
source S2 {
  view: V2(x) <- R(x)
  completeness: 1/2
  soundness: 1/4
  extension: V2(b1). V2(b2). V2(b3). V2(c1). V2(c2). V2(c3).
}
",
    )
    .expect("valid catalog");
    // Churn S1's members (reuse), move a1 from S1 into S2 (a patch of
    // the classes before the padding), then grow the extension union
    // (the padding class changes size: a recompile).
    let stream = parse_delta_stream(
        "batch {\n source S1 {\n  delete: V1(a3).\n  insert: V1(a4).\n }\n}
batch {\n source S1 {\n  delete: V1(a1).\n }\n source S2 {\n  insert: V2(a1).\n }\n}
batch {\n source S2 {\n  insert: V2(d1).\n }\n}\n",
    )
    .expect("valid stream");
    let mut session = DeltaSession::new(&catalog, 4).expect("identity views");
    let mut previous = analyze_incremental(&mut session).world_count().to_string();
    assert_eq!(session.last_consistent(), Some(true));
    for (epoch, batch) in stream.iter().enumerate() {
        session.apply_batch(batch).expect("in-universe ops");
        let answer = analyze_incremental(&mut session);
        assert_eq!(session.last_consistent(), Some(answer.is_consistent()));
        let maintained = session.collection().clone();
        let scratch = analyze_circuit(
            &compile_circuit(
                SignatureAnalysis::new(&maintained, session.padding()),
                &Budget::unlimited(),
                &CircuitConfig::default(),
            )
            .expect("unlimited budget"),
        );
        assert_eq!(answer.world_count(), scratch.world_count(), "epoch {epoch}");
        for tuple in maintained.all_tuples() {
            assert_eq!(
                answer
                    .confidence_of_tuple(&maintained, &tuple)
                    .expect("consistent"),
                scratch
                    .confidence_of_tuple(&maintained, &tuple)
                    .expect("consistent"),
                "epoch {epoch}: confidence of {tuple:?}"
            );
        }
        let worlds = answer.world_count().to_string();
        if epoch > 0 {
            // A stale table would repeat the previous epoch's count.
            assert_ne!(worlds, previous, "epoch {epoch} changed the structure");
        }
        previous = worlds;
    }
    let stats = session.stats();
    assert_eq!(stats.results_reused, 1);
    assert!(stats.nodes_patched > 0, "{stats:?}");
    assert_eq!(stats.recompiles_forced, 1, "{stats:?}");
}
