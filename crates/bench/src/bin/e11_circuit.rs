//! E11 — compile-once / query-many: the compiled confidence circuit
//! against a fresh residual-state DP per query.
//!
//! The workload is a stream of repeated per-tuple confidence queries
//! over one fixed collection (the `pscds_datagen` symmetric family, the
//! shape whose source-swap automorphisms the compiler's residual-key
//! canonicalization exploits). The DP baseline pays its full recursion
//! on every query; the circuit route pays one compile + one arena
//! traversal on the first query (the `CompiledCollection` cache miss),
//! after which every repeated query is a cache hit whose analysis the
//! circuit reads from its memoized event table. Every answer is asserted bit-identical
//! between the two routes, and the amortized speedup at ≥ 100 queries
//! must clear 5× — the acceptance bar of the compile-once design.
//!
//! Run: `cargo run -p pscds-bench --release --bin e11_circuit`

use pscds_bench::schema::BenchRecord;
use pscds_bench::{markdown_table, Cell};
use pscds_core::confidence::{
    analyze_circuit, count_dp_observed, CircuitConfig, CompiledCollection, DpConfig,
    SignatureAnalysis,
};
use pscds_core::govern::Budget;
use pscds_core::obs::{MetricSet, ObsSession};
use pscds_core::ParallelConfig;
use pscds_datagen::symmetric::{generate, SymmetricConfig};
use std::io::Write as _;
use std::time::Instant;

fn main() {
    // `--queries N` sets the stream length (default 200; the ≥ 5×
    // amortized-speedup assertion is armed whenever N ≥ 100).
    let mut queries = 200usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--queries" => {
                queries = it
                    .next()
                    .expect("--queries needs a value")
                    .parse()
                    .expect("--queries needs a number");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let scenario = generate(&SymmetricConfig {
        n_sources: 3,
        tuples_per_source: 8,
        completeness: (1, 4),
        soundness: (1, 4),
        padding: 16,
        seed: 11,
    })
    .expect("valid symmetric config");
    let identity = scenario.collection.as_identity().expect("identity views");
    let padding = scenario.padding;
    let tuples: Vec<_> = identity.all_tuples().into_iter().collect();
    let budget = Budget::unlimited();

    println!(
        "E11  compile-once/query-many: {queries} repeated confidence queries over a \
         symmetric 3-source collection ({} tuples, padding {padding}):\n",
        tuples.len()
    );

    // ── Baseline: a fresh DP recursion per query ──────────────────────
    let t = Instant::now();
    let mut dp_answers = Vec::with_capacity(queries);
    for q in 0..queries {
        let tuple = &tuples[q % tuples.len()];
        let (analysis, _stats) = count_dp_observed(
            SignatureAnalysis::new(&identity, padding),
            &budget,
            &ParallelConfig::serial(),
            &DpConfig::default(),
            &mut ObsSession::disabled(),
        )
        .expect("unlimited budget");
        dp_answers.push(
            analysis
                .confidence_of_tuple(&identity, tuple)
                .expect("consistent"),
        );
    }
    let dp_ns = t.elapsed().as_nanos();

    // ── Circuit: compile + traverse on the first query (the cache
    // miss), then every repeated query re-fetches the compiled circuit
    // and asks it again, which the circuit answers from its memoized
    // event table — the compile-once discipline. ─────────────────────
    let t = Instant::now();
    let mut cache = CompiledCollection::new();
    let mut circuit_answers = Vec::with_capacity(queries);
    for q in 0..queries {
        let tuple = &tuples[q % tuples.len()];
        let circuit = cache
            .get_or_compile(&identity, padding, &budget, &CircuitConfig::default())
            .expect("unlimited budget");
        let analysis = analyze_circuit(&circuit);
        circuit_answers.push(
            analysis
                .confidence_of_tuple(&identity, tuple)
                .expect("consistent"),
        );
    }
    let circuit_ns = t.elapsed().as_nanos();

    // The harness bar: every answer bit-identical to the DP's.
    assert_eq!(dp_answers, circuit_answers, "circuit diverged from the DP");
    assert_eq!(cache.misses(), 1, "one structural compile expected");
    assert_eq!(cache.hits(), queries as u64 - 1);

    let circuit = cache
        .get_or_compile(&identity, padding, &budget, &CircuitConfig::default())
        .expect("cached");
    let stats = circuit.stats();
    let speedup = dp_ns as f64 / circuit_ns.max(1) as f64;
    println!(
        "{}",
        markdown_table(
            &["route", "total wall", "per query", "notes"],
            &[
                vec![
                    Cell::from("dp (fresh per query)"),
                    Cell::from(format!(
                        "{:?}",
                        std::time::Duration::from_nanos(dp_ns as u64)
                    )),
                    Cell::from(format!(
                        "{:?}",
                        std::time::Duration::from_nanos((dp_ns / queries as u128) as u64)
                    )),
                    Cell::from("full recursion every time"),
                ],
                vec![
                    Cell::from("circuit (compile once)"),
                    Cell::from(format!(
                        "{:?}",
                        std::time::Duration::from_nanos(circuit_ns as u64)
                    )),
                    Cell::from(format!(
                        "{:?}",
                        std::time::Duration::from_nanos((circuit_ns / queries as u128) as u64)
                    )),
                    Cell::from(format!(
                        "{} hits / {} miss; {} nodes ({} exact, {} shared), {} edges",
                        cache.hits(),
                        cache.misses(),
                        stats.canonical_nodes,
                        stats.exact_nodes,
                        stats.shared_nodes,
                        stats.edges
                    )),
                ],
            ]
        )
    );
    println!("\namortized speedup: {speedup:.1}× over {queries} queries");
    if queries >= 100 {
        assert!(
            speedup >= 5.0,
            "compile-once/query-many must beat per-query DP by ≥ 5× at \
             {queries} queries (got {speedup:.1}×)"
        );
    }

    // One history record per route. The schema's cache columns carry
    // each route's own cache discipline: the DP columns stay zero (every
    // query rebuilt from scratch); the circuit row reports the
    // compiled-collection hit/miss totals and its arena high-water mark.
    let mut circuit_metrics = MetricSet::new();
    stats.record_into(&mut circuit_metrics);
    cache.record_into(&mut circuit_metrics);
    let records = [
        BenchRecord::from_metrics("dp_per_query", queries as u64, dp_ns, &MetricSet::new()),
        BenchRecord {
            engine: "circuit".to_owned(),
            m: queries as u64,
            wall_ns: circuit_ns,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            peak_cache_entries: circuit.node_count() as u64,
            fallback_nodes: 0,
            cross_subset_hits: 0,
        },
    ];
    let history_path = "BENCH_history.jsonl";
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history_path)
        .unwrap_or_else(|e| panic!("open {history_path}: {e}"));
    for r in &records {
        writeln!(history, "{}", r.to_json()).expect("append history");
    }
    println!("appended {} records to {history_path}", records.len());

    println!("\nE11: all cross-checks passed.");
}
