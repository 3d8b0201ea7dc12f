//! `pscds confidence` on a tie-heavy catalog against a recorded table.
//!
//! `fixtures/ties.pscds` has three symmetric sources, whose exclusive,
//! pairwise and shared classes tie across signatures, and a fully sound
//! fourth source; `fixtures/ties.expected` is its table at padding 3.
//! Every exact engine, at one and two threads, must print that table
//! byte for byte once its engine banner and compile-stats lines are
//! dropped.

use std::path::Path;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn tie_heavy_table_matches_the_recorded_golden() {
    let expected = std::fs::read_to_string(fixture("ties.expected")).expect("golden table");
    let catalog = fixture("ties.pscds");
    for engine in ["auto", "signature", "dp", "circuit"] {
        for threads in ["1", "2"] {
            let args: Vec<String> = [
                "confidence",
                &catalog,
                "--padding",
                "3",
                "--engine",
                engine,
                "--threads",
                threads,
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
            let out = pscds_cli::run(&args).expect("consistent catalog");
            let table: String = out
                .lines()
                .filter(|l| !l.starts_with("engine:") && !l.starts_with("compile stats:"))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(table, expected, "--engine {engine} --threads {threads}");
        }
    }
}
