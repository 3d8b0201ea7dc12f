//! One entry shape for every exact engine: each `count_exact` catalog,
//! plus scaled Example 5.1 at r=2, counted by the DFS, the DP and the
//! circuit — serial, under `Budget::unlimited()`, with the signature
//! analysis built before the timer starts and no obs session — so the
//! timings compare the algorithms, not their instrumentation.

use crate::gen::Catalog;
use crate::stats::median;
use pscds_bench::{markdown_table, Cell};
use pscds_core::confidence::{
    analyze_circuit_budgeted, compile_circuit, count_dp_observed, CircuitConfig,
    ConfidenceAnalysis, DpConfig, SignatureAnalysis,
};
use pscds_core::obs::ObsSession;
use pscds_core::paper::example_5_1_scaled;
use pscds_core::{Budget, ParallelConfig};
use std::time::{Duration, Instant};

/// Repetitions per engine and catalog: at least 3, and until 50 ms of
/// timed work.
const MIN_REPS: usize = 3;
const MIN_TIMED: Duration = Duration::from_millis(50);

/// Median milliseconds and the (deterministic) steps of one engine.
fn time_engine(
    analysis: &SignatureAnalysis,
    run: impl Fn(SignatureAnalysis, &Budget) -> ConfidenceAnalysis,
    want: &ConfidenceAnalysis,
) -> (f64, u64) {
    let mut samples = Vec::new();
    let mut timed = Duration::ZERO;
    let mut steps = 0;
    while samples.len() < MIN_REPS || timed < MIN_TIMED {
        let input = analysis.clone();
        let budget = Budget::unlimited();
        let start = Instant::now();
        let result = run(input, &budget);
        let elapsed = start.elapsed();
        assert_eq!(
            result.world_count(),
            want.world_count(),
            "engine disagrees with the DFS oracle"
        );
        timed += elapsed;
        samples.push(elapsed.as_secs_f64() * 1e3);
        steps = budget.steps();
    }
    (median(&samples).unwrap_or(0.0), steps)
}

/// The engine table, one row per catalog.
pub fn compare(catalogs: &[Catalog]) -> String {
    let serial = ParallelConfig::serial();
    let r2 = Catalog {
        name: "scaled2".into(),
        collection: example_5_1_scaled(2),
        padding: 2,
    };
    let mut rows = Vec::new();
    for catalog in catalogs.iter().chain([&r2]) {
        let identity = catalog.collection.as_identity().expect("identity views");
        let analysis = SignatureAnalysis::new(&identity, catalog.padding);
        let want = ConfidenceAnalysis::analyze(&identity, catalog.padding);
        let dfs = time_engine(
            &analysis,
            |a, b| {
                ConfidenceAnalysis::from_signature_analysis_parallel(a, b, &serial)
                    .expect("unlimited")
            },
            &want,
        );
        let dp = time_engine(
            &analysis,
            |a, b| {
                let mut obs = ObsSession::disabled();
                count_dp_observed(a, b, &serial, &DpConfig::default(), &mut obs)
                    .expect("unlimited")
                    .0
            },
            &want,
        );
        let circuit = time_engine(
            &analysis,
            |a, b| {
                let compiled = compile_circuit(a, b, &CircuitConfig::default()).expect("unlimited");
                analyze_circuit_budgeted(&compiled, b).expect("unlimited")
            },
            &want,
        );
        let mut row = vec![Cell::from(&catalog.name)];
        for (ms, steps) in [dfs, dp, circuit] {
            row.push(Cell::from(format!("{ms:.3}")));
            row.push(Cell::from(steps));
            row.push(Cell::from(format!("{:.1}", ms * 1e6 / steps.max(1) as f64)));
        }
        row.push(Cell::from(format!("{:.2}", dp.0 / dfs.0)));
        rows.push(row);
    }
    let headers = [
        "catalog",
        "dfs ms",
        "dfs steps",
        "dfs ns/step",
        "dp ms",
        "dp steps",
        "dp ns/step",
        "circuit ms",
        "circuit steps",
        "circuit ns/step",
        "dp/dfs",
    ];
    format!(
        "engines (serial, unlimited budget, signature analysis outside the timer):\n{}",
        markdown_table(&headers, &rows)
    )
}
