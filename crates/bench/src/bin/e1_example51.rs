//! E1 — Example 5.1: tuple confidences as a function of the domain
//! padding `m`.
//!
//! Reproduces the paper's only printed numbers. Three independent exact
//! engines (possible-world oracle, explicit Γ counter, signature counter)
//! are cross-checked, then compared against the paper's closed forms and
//! our re-derived ones. See EXPERIMENTS.md for the documented erratum
//! (the paper's denominator `2m+3` vs the exact `2m+5`).
//!
//! Run: `cargo run -p pscds-bench --release --bin e1_example51`

use pscds_bench::schema::{render_records, BenchRecord};
use pscds_bench::{markdown_table, Cell};
use pscds_core::confidence::closed_form::{
    derived_confidence, derived_world_count, paper_confidence, paper_world_count, Example51Fact,
};
use pscds_core::confidence::{
    count_dp_observed, ConfidenceAnalysis, DpConfig, LinearSystem, PossibleWorlds,
    SignatureAnalysis,
};
use pscds_core::govern::Budget;
use pscds_core::obs::{JsonlSink, MetricSet, ObsSession};
use pscds_core::paper::{example_5_1, example_5_1_domain, example_5_1_scaled};
use pscds_core::ParallelConfig;
use pscds_relational::{Fact, Value};
use std::io::Write as _;
use std::time::Instant;

fn main() {
    // `--dp-scale-max N` caps the E1.6 scaling ladder (the CI smoke run
    // uses 4; the default ladder is sized for an interactive run).
    // `--threads N` runs the instrumented DP through the work-partitioned
    // route; `--trace-out PATH` streams each run's spans, counters, and
    // events as JSONL (the same sink the `pscds` CLI exposes).
    let mut dp_scale_max = 128usize;
    let mut threads = 1usize;
    let mut trace_out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dp-scale-max" => {
                dp_scale_max = it
                    .next()
                    .expect("--dp-scale-max needs a value")
                    .parse()
                    .expect("--dp-scale-max needs a number");
            }
            "--threads" => {
                threads = it
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("--threads needs a number");
            }
            "--trace-out" => {
                trace_out = Some(it.next().expect("--trace-out needs a path").clone());
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let trace_file = trace_out
        .as_deref()
        .map(|path| std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}")));

    let collection = example_5_1();
    let identity = collection.as_identity().expect("identity views");

    // ── Table 1: confidences, paper vs derived vs computed ────────────
    println!("E1.1  Example 5.1 confidences (computed = signature counter, exact):\n");
    let mut rows = Vec::new();
    for m in [0u64, 1, 2, 5, 10, 100] {
        let analysis = ConfidenceAnalysis::analyze(&identity, m);
        let conf = |sym: &str| {
            analysis
                .confidence_of_tuple(&identity, &[Value::sym(sym)])
                .expect("consistent")
        };
        rows.push(vec![
            Cell::from(m),
            Cell::from(format!(
                "{} (paper: {})",
                derived_world_count(m),
                paper_world_count(m)
            )),
            Cell::from(format!(
                "{} (paper: {})",
                conf("a"),
                paper_confidence(Example51Fact::A, m)
            )),
            Cell::from(format!(
                "{} (paper: {})",
                conf("b"),
                paper_confidence(Example51Fact::B, m)
            )),
            Cell::from(if m > 0 {
                format!(
                    "{} (paper: {})",
                    analysis.padding_confidence().expect("padding exists"),
                    paper_confidence(Example51Fact::D, m)
                )
            } else {
                "-".to_owned()
            }),
        ]);
        // The derived closed forms must match the computed values exactly.
        assert_eq!(conf("a"), derived_confidence(Example51Fact::A, m));
        assert_eq!(conf("b"), derived_confidence(Example51Fact::B, m));
        assert_eq!(conf("c"), derived_confidence(Example51Fact::C, m));
    }
    println!(
        "{}",
        markdown_table(
            &["m", "|poss(S)|", "conf(R(a))", "conf(R(b))", "conf(R(d_i))"],
            &rows
        )
    );

    // ── Table 2: three-engine agreement on small m ────────────────────
    println!("\nE1.2  Engine agreement (m ≤ 3; all values must be identical):\n");
    let mut rows = Vec::new();
    for m in 0..=3usize {
        let domain = example_5_1_domain(m);
        let worlds = PossibleWorlds::enumerate(&collection, &domain).expect("small universe");
        let gamma = LinearSystem::from_identity(&identity, &domain).expect("valid domain");
        let analysis = ConfidenceAnalysis::analyze(&identity, m as u64);
        let fact = Fact::new("R", [Value::sym("b")]);
        let w = worlds.fact_confidence(&fact).expect("consistent");
        let g = gamma
            .confidence(gamma.var_of(&fact).expect("in domain"))
            .expect("consistent");
        let s = analysis
            .confidence_of_tuple(&identity, &[Value::sym("b")])
            .expect("consistent");
        assert_eq!(w, g);
        assert_eq!(w, s);
        rows.push(vec![
            Cell::from(m),
            Cell::from(worlds.count()),
            Cell::from(w.to_string()),
            Cell::from(g.to_string()),
            Cell::from(s.to_string()),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "m",
                "worlds",
                "oracle conf(b)",
                "Γ conf(b)",
                "signature conf(b)"
            ],
            &rows
        )
    );

    // ── Table 3: asymptotics (paper's qualitative claim) ──────────────
    println!("\nE1.3  Asymptotics: conf(b) → 1, conf(a) → 1/2, conf(d) → 0:\n");
    let mut rows = Vec::new();
    for m in [10u64, 1_000, 100_000, 10_000_000] {
        let analysis = ConfidenceAnalysis::analyze(&identity, m);
        let c = |sym: &str| {
            analysis
                .confidence_of_tuple(&identity, &[Value::sym(sym)])
                .expect("consistent")
                .to_f64()
        };
        rows.push(vec![
            Cell::from(m),
            Cell::from(format!("{:.7}", c("b"))),
            Cell::from(format!("{:.7}", c("a"))),
            Cell::from(format!(
                "{:.7}",
                analysis.padding_confidence().expect("padding").to_f64()
            )),
        ]);
    }
    println!(
        "{}",
        markdown_table(&["m", "conf(b)", "conf(a)", "conf(d_i)"], &rows)
    );

    // ── Table 4: scaling — naive engines die, signature engine scales ─
    println!("\nE1.4  Time to compute conf(b) (naive engines capped at small m):\n");
    let mut rows = Vec::new();
    for m in [1usize, 5, 10, 14, 1_000, 1_000_000] {
        let domain = example_5_1_domain(m);
        let oracle_time = if m <= 14 {
            let t = Instant::now();
            let worlds = PossibleWorlds::enumerate(&collection, &domain).expect("small");
            let _ = worlds.fact_confidence(&Fact::new("R", [Value::sym("b")]));
            format!("{:?}", t.elapsed())
        } else {
            "(2^N too large)".to_owned()
        };
        let gamma_time = if m <= 14 {
            let t = Instant::now();
            let gamma = LinearSystem::from_identity(&identity, &domain).expect("valid");
            let _ = gamma.confidence(
                gamma
                    .var_of(&Fact::new("R", [Value::sym("b")]))
                    .expect("in"),
            );
            format!("{:?}", t.elapsed())
        } else {
            "(2^N too large)".to_owned()
        };
        let t = Instant::now();
        let analysis = ConfidenceAnalysis::analyze(&identity, m as u64);
        let _ = analysis.confidence_of_tuple(&identity, &[Value::sym("b")]);
        let sig_time = format!("{:?}", t.elapsed());
        rows.push(vec![
            Cell::from(m),
            Cell::from(oracle_time),
            Cell::from(gamma_time),
            Cell::from(sig_time),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["m", "world oracle", "Γ brute force", "signature counter"],
            &rows
        )
    );

    // ── Table 5: parallel counter cross-check ─────────────────────────
    println!("\nE1.5  Parallel signature counter (must be bit-identical to serial):\n");
    let mut rows = Vec::new();
    for m in [1u64, 100, 10_000] {
        let serial = ConfidenceAnalysis::analyze(&identity, m);
        let mut cells = vec![Cell::from(m)];
        for threads in [2usize, 8] {
            let config = ParallelConfig::with_threads(threads);
            let par = ConfidenceAnalysis::from_signature_analysis_parallel(
                SignatureAnalysis::new(&identity, m),
                &Budget::unlimited(),
                &config,
            )
            .expect("unlimited budget");
            assert_eq!(par.world_count(), serial.world_count(), "m={m} t={threads}");
            for sym in ["a", "b", "c"] {
                assert_eq!(
                    par.confidence_of_tuple(&identity, &[Value::sym(sym)])
                        .expect("consistent"),
                    serial
                        .confidence_of_tuple(&identity, &[Value::sym(sym)])
                        .expect("consistent"),
                    "conf({sym}) m={m} t={threads}"
                );
            }
            cells.push(Cell::from(format!(
                "identical ({} worlds)",
                par.world_count()
            )));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        markdown_table(&["m", "2 threads", "8 threads"], &rows)
    );

    // ── Table 6: exact DFS vs memoized DP on the scaled family ────────
    // Plain Example 5.1 has singleton classes, so its DFS tree is
    // *constant* in the padding — it cannot separate counting engines.
    // `example_5_1_scaled(m)` replicates every extension tuple `m` times
    // (four signature classes of size `m`, padding `m`): the DFS tree
    // grows polynomially in `m` with a steep exponent, while the
    // residual-state DP revisits cached suffixes. Both must agree
    // bit-for-bit on every aggregate at every `m`.
    println!("\nE1.6  Exact DFS vs memoized DP, scaled Example 5.1 (bit-identical results):\n");
    let parallel = ParallelConfig::with_threads(threads);
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut rows = Vec::new();
    for m in [2usize, 4, 8, 16, 32, 64, 128] {
        if m > dp_scale_max {
            println!("(scales above {dp_scale_max} skipped: --dp-scale-max)");
            break;
        }
        let scaled = example_5_1_scaled(m);
        let sid = scaled.as_identity().expect("identity views");
        let padding = m as u64;

        let t = Instant::now();
        let dfs = ConfidenceAnalysis::analyze(&sid, padding);
        let dfs_ns = t.elapsed().as_nanos();

        // The instrumented run: chunk spans and counters stream to
        // `--trace-out` (when given) and aggregate in the session either
        // way; the benchmark record is built *from* those merged metrics.
        let mut obs = match &trace_file {
            Some(f) => ObsSession::with_sink(Box::new(JsonlSink::new(
                f.try_clone().expect("clone trace handle"),
            ))),
            None => ObsSession::in_memory(),
        };
        let budget = Budget::unlimited();
        let t = Instant::now();
        let (dp, stats) = count_dp_observed(
            SignatureAnalysis::new(&sid, padding),
            &budget,
            &parallel,
            &DpConfig::default(),
            &mut obs,
        )
        .expect("unlimited budget");
        let dp_ns = t.elapsed().as_nanos();
        let report = obs.finish();

        // The acceptance bar: bit-identical total, vector count, and
        // every per-tuple confidence (including the padding class).
        assert_eq!(dp.world_count(), dfs.world_count(), "total at m={m}");
        assert_eq!(dp.feasible_vectors(), dfs.feasible_vectors(), "m={m}");
        for tuple in sid.all_tuples() {
            assert_eq!(
                dp.confidence_of_tuple(&sid, &tuple).expect("consistent"),
                dfs.confidence_of_tuple(&sid, &tuple).expect("consistent"),
                "conf({tuple:?}) at m={m}"
            );
        }
        assert_eq!(
            dp.padding_confidence().expect("padding exists"),
            dfs.padding_confidence().expect("padding exists"),
            "padding confidence at m={m}"
        );

        // The registry totals must agree with the engine's own statistics
        // — the drift the shared schema exists to prevent.
        assert_eq!(
            report
                .metrics
                .counter(pscds_core::obs::names::DP_CACHE_HITS),
            stats.cache_hits,
            "registry drift at m={m}"
        );
        records.push(BenchRecord::from_metrics(
            "exact",
            m as u64,
            dfs_ns,
            &MetricSet::new(),
        ));
        records.push(BenchRecord::from_metrics(
            "dp",
            m as u64,
            dp_ns,
            &report.metrics,
        ));
        rows.push(vec![
            Cell::from(m),
            Cell::from(dfs.feasible_vectors()),
            Cell::from(format!(
                "{:?}",
                std::time::Duration::from_nanos(dfs_ns as u64)
            )),
            Cell::from(format!(
                "{:?}",
                std::time::Duration::from_nanos(dp_ns as u64)
            )),
            Cell::from(format!("{:.1}×", dfs_ns as f64 / dp_ns.max(1) as f64)),
            Cell::from(format!("{}/{}", stats.cache_hits, stats.cache_misses)),
            Cell::from(stats.peak_cache_entries),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "m",
                "vectors",
                "exact DFS",
                "memoized DP",
                "speedup",
                "hits/misses",
                "peak cache"
            ],
            &rows
        )
    );
    let json_path = "BENCH_confidence.json";
    std::fs::write(json_path, render_records(&records)).expect("write benchmark JSON");
    println!("\nwrote {json_path} ({} records)", records.len());

    // The history log is append-only: one line per record per run, so
    // regressions stay diffable across sessions.
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

    println!("\nE1: all cross-checks passed.");
}
