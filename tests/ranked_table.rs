//! Parity of the per-class confidence table with the per-tuple path it
//! replaced: the extension merge against `all_tuples` + `signature_of`,
//! the ranked rows against a per-tuple sort (exact and sampled), and
//! circuit top-k against the ranked prefix.

use pscds::core::collection::IdentityCollection;
use pscds::core::confidence::{
    analyze_circuit_topk, compile_circuit, sample_confidences, CircuitConfig, ConfidenceAnalysis,
    SamplerConfig, SignatureAnalysis,
};
use pscds::core::govern::Budget;
use pscds::core::{CoreError, SourceCollection, SourceDescriptor};
use pscds::datagen::symmetric::{generate, SymmetricConfig};
use pscds::numeric::{Frac, Rational};
use pscds::relational::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paddings every table is checked at: none, one, and one large enough
/// that its class dwarfs the named ones.
const PADDINGS: [u64; 3] = [0, 1, 1_000_000];

/// A random identity collection over `R/2`: `1..=max_sources` sources
/// drawn from a pool of `pool` mixed integer/symbol tuples, so their
/// extensions overlap, and one source left empty. Bounds are multiples
/// of 1/4; the first source's completeness is positive, which keeps the
/// padding class's count range bounded at any padding.
fn random_collection(rng: &mut StdRng, max_sources: usize, pool: usize) -> IdentityCollection {
    let tuples: Vec<[Value; 2]> = (0..pool)
        .map(|i| {
            let first = if i % 3 == 0 {
                Value::int(i as i64 % 5)
            } else {
                Value::sym(&format!("k{}", i % 7))
            };
            [first, Value::sym(&format!("v{}", i / 3))]
        })
        .collect();
    let n = rng.gen_range(1..=max_sources);
    let empty = rng.gen_range(0..n);
    let sources = (0..n).map(|i| {
        let extension: Vec<[Value; 2]> = if i == empty {
            Vec::new()
        } else {
            let take = rng.gen_range(1..=pool / 2);
            (0..take).map(|_| tuples[rng.gen_range(0..pool)]).collect()
        };
        let completeness = if i == 0 {
            rng.gen_range(1..=3u64)
        } else {
            rng.gen_range(0..=3u64)
        };
        SourceDescriptor::identity(
            format!("S{i}"),
            &format!("V{i}"),
            "R",
            2,
            extension,
            Frac::new(completeness, 4),
            Frac::new(rng.gen_range(2..=4u64), 4),
        )
        .expect("valid descriptor")
    });
    SourceCollection::from_sources(sources.collect::<Vec<_>>())
        .as_identity()
        .expect("identity views")
}

/// Today's per-tuple table: one signature probe and one confidence per
/// tuple, then a sort by confidence descending, tuple ascending.
fn reference_rows(
    analysis: &ConfidenceAnalysis,
    identity: &IdentityCollection,
) -> Result<Vec<(Vec<Value>, Rational)>, CoreError> {
    let mut rows = Vec::new();
    for tuple in identity.all_tuples() {
        let conf = analysis.confidence_of_tuple(identity, &tuple)?;
        rows.push((tuple, conf));
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(rows)
}

/// The per-class table: class confidences once, rows from the ranking.
fn ranked_rows(analysis: &ConfidenceAnalysis) -> Result<Vec<(Vec<Value>, Rational)>, CoreError> {
    let confs = analysis.class_confidences()?;
    Ok(analysis
        .signature_analysis()
        .ranked_members(|a, b| confs[b].cmp(&confs[a]), usize::MAX)
        .into_iter()
        .map(|(tuple, class)| (tuple.to_vec(), confs[class].clone()))
        .collect())
}

/// Exact, sampled and circuit top-k tables of one collection, each
/// against its per-tuple reference.
fn assert_tables_match(identity: &IdentityCollection, padding: u64) {
    let analysis = ConfidenceAnalysis::analyze(identity, padding);
    let reference = reference_rows(&analysis, identity);
    let ranked = ranked_rows(&analysis);
    match (&reference, &ranked) {
        (Ok(reference), Ok(ranked)) => assert_eq!(ranked, reference, "padding {padding}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "padding {padding}"),
        _ => panic!("padding {padding}: reference {reference:?}, ranked {ranked:?}"),
    }

    let circuit = compile_circuit(
        SignatureAnalysis::new(identity, padding),
        &Budget::unlimited(),
        &CircuitConfig::default(),
    )
    .expect("unlimited budget");
    let named = identity.all_tuples().len();
    for k in 0..=named + 1 {
        let top = analyze_circuit_topk(&circuit, k);
        match (&reference, &top) {
            (Ok(reference), Ok(top)) => {
                assert_eq!(
                    top[..],
                    reference[..k.min(named)],
                    "padding {padding}, k {k}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "padding {padding}, k {k}"),
            _ => panic!("padding {padding}, k {k}: reference {reference:?}, top-k {top:?}"),
        }
    }

    let config = SamplerConfig {
        burn_in: 50,
        samples: 400,
        seed: padding ^ named as u64,
    };
    if let Ok(estimate) = sample_confidences(identity, padding, &config) {
        let signatures = SignatureAnalysis::new(identity, padding);
        let mut reference: Vec<(Vec<Value>, f64)> = identity
            .all_tuples()
            .into_iter()
            .map(|t| {
                let conf = estimate
                    .confidence_of_tuple(&signatures, identity, &t)
                    .expect("named tuple");
                (t, conf)
            })
            .collect();
        reference.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let confs = &estimate.class_confidence;
        let ranked: Vec<(Vec<Value>, f64)> = signatures
            .ranked_members(
                |a, b| {
                    confs[b]
                        .partial_cmp(&confs[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                },
                usize::MAX,
            )
            .into_iter()
            .map(|(tuple, class)| (tuple.to_vec(), confs[class]))
            .collect();
        assert_eq!(ranked, reference, "sampled, padding {padding}");
    }
}

#[test]
fn merge_equals_the_union_with_per_tuple_signatures() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..200 {
        let identity = random_collection(&mut rng, 8, 40);
        let merged: Vec<(Vec<Value>, u64)> = identity
            .tuples_with_signatures()
            .into_iter()
            .map(|(tuple, sig)| (tuple.to_vec(), sig))
            .collect();
        let reference: Vec<(Vec<Value>, u64)> = identity
            .all_tuples()
            .into_iter()
            .map(|tuple| {
                let sig = identity.signature_of(&tuple);
                (tuple, sig)
            })
            .collect();
        assert_eq!(merged, reference);
    }
}

#[test]
fn class_lookup_agrees_with_the_merge() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..100 {
        let identity = random_collection(&mut rng, 8, 40);
        for padding in [0, 3] {
            let analysis = SignatureAnalysis::new(&identity, padding);
            for (tuple, sig) in identity.tuples_with_signatures() {
                let class = analysis.class_of(tuple, sig).expect("named tuple");
                assert_eq!(analysis.classes()[class].signature, sig);
                assert!(analysis.classes()[class].members.iter().any(|m| m == tuple));
            }
            let outside = [Value::sym("outside"), Value::int(99)];
            assert_eq!(analysis.class_of(&outside, 0).is_ok(), padding > 0);
        }
    }
}

#[test]
fn ranked_rows_equal_the_per_tuple_sort() {
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..40 {
        let identity = random_collection(&mut rng, 4, 10);
        for padding in PADDINGS {
            assert_tables_match(&identity, padding);
        }
    }
}

#[test]
fn ranked_rows_break_cross_class_ties_by_tuple() {
    // Disjoint sources with identical bounds: every exclusive class has
    // the same confidence, so the whole named table is one tie.
    for n_sources in [2, 3, 4] {
        let scenario = generate(&SymmetricConfig {
            n_sources,
            tuples_per_source: 3,
            ..SymmetricConfig::default()
        })
        .expect("valid family");
        let identity = scenario.collection.as_identity().expect("identity views");
        let analysis = ConfidenceAnalysis::analyze(&identity, scenario.padding);
        let confs = analysis.class_confidences().expect("consistent");
        let named = &confs[..n_sources];
        assert!(named.iter().all(|c| *c == named[0]), "a tie across classes");
        for padding in PADDINGS {
            assert_tables_match(&identity, padding);
        }
    }
}

#[test]
fn inconsistent_collections_fail_the_same_way() {
    // Both sources claim to be the whole relation, over disjoint tuples.
    let sources = ["a", "b"].into_iter().enumerate().map(|(i, v)| {
        SourceDescriptor::identity(
            format!("S{i}"),
            &format!("V{i}"),
            "R",
            1,
            [[Value::sym(v)]],
            Frac::ONE,
            Frac::ONE,
        )
        .expect("valid descriptor")
    });
    let identity = SourceCollection::from_sources(sources.collect::<Vec<_>>())
        .as_identity()
        .expect("identity views");
    for padding in PADDINGS {
        let analysis = ConfidenceAnalysis::analyze(&identity, padding);
        assert!(!analysis.is_consistent());
        assert_eq!(
            ranked_rows(&analysis),
            Err(CoreError::InconsistentCollection)
        );
        assert_tables_match(&identity, padding);
    }
}
