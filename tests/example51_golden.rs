//! Golden tests for Example 5.1: the re-derived closed-form confidences
//! at `m = 1..=6`, pinned as explicit rationals and cross-checked against
//! every exact engine — the signature counter (serial and parallel at
//! several thread counts), the explicit Γ system, and the possible-world
//! oracle. A regression in any engine, or in the closed forms themselves,
//! trips these before the property tests do, with a readable diff.

use pscds::core::confidence::closed_form::{
    derived_confidence, derived_world_count, Example51Fact,
};
use pscds::core::confidence::{
    ConfidenceAnalysis, LinearSystem, PossibleWorlds, SignatureAnalysis,
};
use pscds::core::govern::Budget;
use pscds::core::paper::{example_5_1, example_5_1_domain};
use pscds::core::ParallelConfig;
use pscds::numeric::{Rational, UBig};
use pscds::relational::{Fact, Value};

/// One golden row: `(m, conf(a) = conf(c), conf(b), conf(d_i), |poss|)`
/// with every confidence as `(numerator, denominator)` over the common
/// denominator `2m + 5`.
type GoldenRow = (u64, (u64, u64), (u64, u64), (u64, u64), u64);

/// The golden table at `m = 1..=6`.
const GOLDEN: [GoldenRow; 6] = [
    (1, (4, 7), (6, 7), (2, 7), 7),
    (2, (5, 9), (8, 9), (2, 9), 9),
    (3, (6, 11), (10, 11), (2, 11), 11),
    (4, (7, 13), (12, 13), (2, 13), 13),
    (5, (8, 15), (14, 15), (2, 15), 15),
    (6, (9, 17), (16, 17), (2, 17), 17),
];

#[test]
fn golden_table_matches_the_closed_forms() {
    for (m, a, b, d, count) in GOLDEN {
        let expect = |(num, den): (u64, u64)| Rational::from_u64(num, den);
        assert_eq!(
            derived_confidence(Example51Fact::A, m),
            expect(a),
            "conf(a) at m={m}"
        );
        assert_eq!(
            derived_confidence(Example51Fact::C, m),
            expect(a),
            "conf(c) at m={m}"
        );
        assert_eq!(
            derived_confidence(Example51Fact::B, m),
            expect(b),
            "conf(b) at m={m}"
        );
        assert_eq!(
            derived_confidence(Example51Fact::D, m),
            expect(d),
            "conf(d) at m={m}"
        );
        assert_eq!(derived_world_count(m), count, "|poss| at m={m}");
    }
}

#[test]
fn signature_counter_reproduces_the_golden_table() {
    let identity = example_5_1().as_identity().expect("identity views");
    for (m, a, b, d, count) in GOLDEN {
        let analysis = ConfidenceAnalysis::analyze(&identity, m);
        assert_eq!(analysis.world_count(), &UBig::from(count), "m={m}");
        for (sym, (num, den)) in [("a", a), ("b", b), ("c", a)] {
            assert_eq!(
                analysis
                    .confidence_of_tuple(&identity, &[Value::sym(sym)])
                    .expect("consistent"),
                Rational::from_u64(num, den),
                "conf({sym}) at m={m}"
            );
        }
        assert_eq!(
            analysis.padding_confidence().expect("padding"),
            Rational::from_u64(d.0, d.1),
            "conf(d) at m={m}"
        );
    }
}

#[test]
fn parallel_counter_reproduces_the_golden_table() {
    let identity = example_5_1().as_identity().expect("identity views");
    for (m, a, b, d, count) in GOLDEN {
        for threads in [1usize, 2, 8] {
            let config = ParallelConfig::with_threads(threads);
            let analysis = ConfidenceAnalysis::from_signature_analysis_parallel(
                SignatureAnalysis::new(&identity, m),
                &Budget::unlimited(),
                &config,
            )
            .expect("unlimited budget");
            assert_eq!(
                analysis.world_count(),
                &UBig::from(count),
                "m={m} t={threads}"
            );
            for (sym, (num, den)) in [("a", a), ("b", b), ("c", a)] {
                assert_eq!(
                    analysis
                        .confidence_of_tuple(&identity, &[Value::sym(sym)])
                        .expect("consistent"),
                    Rational::from_u64(num, den),
                    "conf({sym}) at m={m} t={threads}"
                );
            }
            assert_eq!(
                analysis.padding_confidence().expect("padding"),
                Rational::from_u64(d.0, d.1),
                "conf(d) at m={m} t={threads}"
            );
        }
    }
}

#[test]
fn gamma_and_worlds_oracle_reproduce_the_golden_table() {
    // The explicit Γ system and the brute-force oracle get slow fast, so
    // check only the low end of the table on them.
    let collection = example_5_1();
    let identity = collection.as_identity().expect("identity views");
    for (m, a, b, d, count) in &GOLDEN[..3] {
        let domain = example_5_1_domain(*m as usize);
        let worlds = PossibleWorlds::enumerate(&collection, &domain).expect("small universe");
        assert_eq!(worlds.count() as u64, *count, "oracle |poss| at m={m}");
        let gamma = LinearSystem::from_identity(&identity, &domain).expect("valid domain");
        assert_eq!(
            gamma.count_solutions().expect("small"),
            *count,
            "Γ count at m={m}"
        );
        for (sym, (num, den)) in [("a", *a), ("b", *b), ("c", *a)] {
            let fact = Fact::new("R", [Value::sym(sym)]);
            let expected = Rational::from_u64(num, den);
            assert_eq!(
                worlds.fact_confidence(&fact).expect("consistent"),
                expected,
                "oracle conf({sym}) at m={m}"
            );
            assert_eq!(
                gamma
                    .confidence(gamma.var_of(&fact).expect("in domain"))
                    .expect("consistent"),
                expected,
                "Γ conf({sym}) at m={m}"
            );
        }
        // One padding constant stands in for all d_i by exchangeability.
        let d_fact = Fact::new("R", [Value::sym("d1")]);
        assert_eq!(
            worlds.fact_confidence(&d_fact).expect("consistent"),
            Rational::from_u64(d.0, d.1),
            "oracle conf(d1) at m={m}"
        );
    }
}

/// One golden circuit row: `(m, exact_nodes, canonical_nodes,
/// shared_nodes, edges)` for the circuit compiled from Example 5.1 over
/// `m` padding constants.
///
/// The skeleton is *independent of m*: Example 5.1 has two overlapping
/// sources and one padding class, and the residual states the DP can
/// reach do not grow with the padding-class size — only the binomial
/// edge weights do. That collapse (11 exact residual states, 9 after
/// canonical sharing, 16 weighted edges, for every m) is exactly what
/// makes the compiled form pseudo-polynomial, so a change in any of
/// these numbers is a compile-structure regression even if every
/// confidence still comes out right.
type GoldenCircuitRow = (u64, u64, u64, u64, u64);

/// The golden circuit-size table at `m = 1..=6`.
const GOLDEN_CIRCUIT: [GoldenCircuitRow; 6] = [
    (1, 11, 9, 2, 16),
    (2, 11, 9, 2, 16),
    (3, 11, 9, 2, 16),
    (4, 11, 9, 2, 16),
    (5, 11, 9, 2, 16),
    (6, 11, 9, 2, 16),
];

#[test]
fn circuit_reproduces_the_golden_tables() {
    use pscds::core::confidence::{
        analyze_circuit, compile_circuit, CircuitConfig, SignatureAnalysis,
    };

    let identity = example_5_1().as_identity().expect("identity views");
    for ((m, a, b, d, count), (mc, exact, canonical, shared, edges)) in
        GOLDEN.into_iter().zip(GOLDEN_CIRCUIT)
    {
        assert_eq!(m, mc, "golden tables out of step");
        let circuit = compile_circuit(
            SignatureAnalysis::new(&identity, m),
            &Budget::unlimited(),
            &CircuitConfig::default(),
        )
        .expect("unlimited budget");

        // Compile structure: the golden sizes, and the two arenas must
        // reconcile (every exact node is canonical-fresh or shared).
        let stats = circuit.stats();
        assert_eq!(stats.exact_nodes, exact, "exact nodes at m={m}");
        assert_eq!(stats.canonical_nodes, canonical, "canonical nodes at m={m}");
        assert_eq!(stats.shared_nodes, shared, "shared nodes at m={m}");
        assert_eq!(stats.edges, edges, "edges at m={m}");
        assert_eq!(
            stats.canonical_nodes + stats.shared_nodes,
            stats.exact_nodes,
            "arena accounting at m={m}"
        );

        // Values: one traversal reproduces the golden confidence table.
        let analysis = analyze_circuit(&circuit);
        assert_eq!(analysis.world_count(), &UBig::from(count), "m={m}");
        for (sym, (num, den)) in [("a", a), ("b", b), ("c", a)] {
            assert_eq!(
                analysis
                    .confidence_of_tuple(&identity, &[Value::sym(sym)])
                    .expect("consistent"),
                Rational::from_u64(num, den),
                "circuit conf({sym}) at m={m}"
            );
        }
        assert_eq!(
            analysis.padding_confidence().expect("padding"),
            Rational::from_u64(d.0, d.1),
            "circuit conf(d) at m={m}"
        );
    }
}

/// The `skeleton_digest` of the circuit compiled from Example 5.1 at
/// `m = 1..=6` padding constants. The digest hashes the arena in node
/// order, so these pin the order in which the compile appends nodes and
/// edges, not just the sizes `GOLDEN_CIRCUIT` checks.
const GOLDEN_DIGESTS: [(u64, u64); 6] = [
    (1, 0x5d70_450d_25e0_8d29),
    (2, 0x7c87_6e64_8eb8_da4d),
    (3, 0x43cd_5acd_d6ee_d46c),
    (4, 0x837d_9f61_62cb_d70b),
    (5, 0x4ac3_8bca_ab01_d12a),
    (6, 0x7573_fb2b_fe5d_cdc9),
];

/// The digest of scaled Example 5.1 at `r = 16` with padding 16: 469
/// arena nodes over four classes, still cheap in debug builds.
const GOLDEN_SCALED16_DIGEST: u64 = 0xefd5_62d7_c952_38a0;

#[test]
fn circuit_skeleton_digests_reproduce_the_golden_values() {
    use pscds::core::confidence::{compile_circuit, CircuitConfig};
    use pscds::core::paper::example_5_1_scaled;

    let digest = |collection: &pscds::core::SourceCollection, padding: u64| {
        let identity = collection.as_identity().expect("identity views");
        compile_circuit(
            SignatureAnalysis::new(&identity, padding),
            &Budget::unlimited(),
            &CircuitConfig::default(),
        )
        .expect("unlimited budget")
        .skeleton_digest()
    };
    for (m, expected) in GOLDEN_DIGESTS {
        assert_eq!(digest(&example_5_1(), m), expected, "digest at m={m}");
    }
    assert_eq!(
        digest(&example_5_1_scaled(16), 16),
        GOLDEN_SCALED16_DIGEST,
        "digest of scaled16"
    );
}

/// One golden step row: `(label, dfs, find_feasible, dp, circuit)` —
/// the `Budget::steps()` charge of one call into each engine:
/// the serial counting DFS (`from_signature_analysis_parallel`), the
/// consistency DFS (`find_feasible_budgeted`), the untraced serial DP
/// (`count_dp_observed`) and the circuit compile (`compile_circuit`).
///
/// Step counts decide where the engine ladder degrades under a step cap,
/// so a refactor of the shared search tree must leave every one of these
/// unchanged, not merely the answers.
type GoldenStepRow = (&'static str, u64, u64, u64, u64);

/// The golden step table: scaled Example 5.1 at `r ∈ {1, 2, 8, 32}` with
/// padding `r`, then the default `pscds_datagen::symmetric` instance.
const GOLDEN_STEPS: [GoldenStepRow; 5] = [
    ("scaled1", 22, 6, 20, 20),
    ("scaled2", 66, 7, 52, 52),
    ("scaled8", 2185, 13, 1005, 1005),
    ("scaled32", 247061, 37, 43877, 43877),
    ("symmetric", 117, 8, 114, 114),
];

#[test]
fn engine_step_counts_reproduce_the_golden_table() {
    use pscds::core::confidence::{compile_circuit, count_dp_observed, CircuitConfig, DpConfig};
    use pscds::core::obs::{names, ObsSession};
    use pscds::core::paper::example_5_1_scaled;
    use pscds::core::{confidence_resilient, ConfidenceRung, LadderPolicy};
    use pscds::datagen::symmetric::{self, SymmetricConfig};

    let symmetric = symmetric::generate(&SymmetricConfig::default()).expect("valid config");
    let mut catalogs: Vec<(String, _, u64)> = [1usize, 2, 8, 32]
        .into_iter()
        .map(|r| (format!("scaled{r}"), example_5_1_scaled(r), r as u64))
        .collect();
    catalogs.push(("symmetric".into(), symmetric.collection, symmetric.padding));
    let serial = ParallelConfig::serial();
    let mut measured = Vec::new();
    for (label, collection, padding) in &catalogs {
        let identity = collection.as_identity().expect("identity views");
        let analysis = SignatureAnalysis::new(&identity, *padding);
        let steps = |run: &dyn Fn(&Budget)| {
            let budget = Budget::unlimited();
            run(&budget);
            budget.steps()
        };
        let dfs = steps(&|b| {
            ConfidenceAnalysis::from_signature_analysis_parallel(analysis.clone(), b, &serial)
                .expect("unlimited budget");
        });
        let first = steps(&|b| {
            analysis
                .find_feasible_budgeted(b)
                .expect("unlimited budget");
        });
        let dp = steps(&|b| {
            let mut obs = ObsSession::disabled();
            count_dp_observed(analysis.clone(), b, &serial, &DpConfig::default(), &mut obs)
                .expect("unlimited budget");
        });
        let circuit = steps(&|b| {
            compile_circuit(analysis.clone(), b, &CircuitConfig::default())
                .expect("unlimited budget");
        });
        measured.push((label.clone(), dfs, first, dp, circuit));
        // The planned rung's expansion predicts the DFS and DP columns.
        let planned = LadderPolicy {
            confidence: vec![ConfidenceRung::Planned],
            ..LadderPolicy::default()
        };
        let mut obs = ObsSession::in_memory();
        let unlimited = Budget::unlimited();
        confidence_resilient(
            &identity, *padding, &unlimited, &serial, false, &planned, &mut obs,
        )
        .expect("unlimited budget");
        let report = obs.finish();
        let plan = report
            .events
            .iter()
            .find(|e| e.name == names::EVENT_LADDER_PLAN)
            .expect("a ladder.plan event");
        let predicted = |key: &str| {
            let attr = plan.attrs.iter().find(|(k, _)| *k == key);
            attr.and_then(|(_, v)| v.parse::<u64>().ok())
        };
        assert_eq!(
            predicted("dfs_steps"),
            Some(dfs),
            "{label}: predicted DFS steps"
        );
        assert_eq!(
            predicted("dp_steps"),
            Some(dp),
            "{label}: predicted DP steps"
        );
    }
    let expected: Vec<(String, u64, u64, u64, u64)> = GOLDEN_STEPS
        .iter()
        .map(|&(label, dfs, first, dp, circuit)| (label.to_owned(), dfs, first, dp, circuit))
        .collect();
    assert_eq!(
        measured, expected,
        "(label, dfs, find_feasible, dp, circuit) steps"
    );
}
