//! The fixture corpus: one violating and one clean miniature workspace
//! per interprocedural rule, each with a golden `expected.json`
//! compared **byte-for-byte** against the live renderer. The goldens
//! double as the JSON-determinism gate: any hash-ordered collection
//! sneaking into the report pipeline diffs here first.

use std::path::{Path, PathBuf};

use pscds_analysis::{json, lints, source::Workspace};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> (Workspace, Vec<pscds_analysis::source::Violation>) {
    let root = fixture_root(name);
    let ws = Workspace::load(&root).unwrap_or_else(|e| panic!("load fixture {name}: {e}"));
    assert!(!ws.files.is_empty(), "fixture {name} scanned no files");
    let violations = lints::run_all(&ws);
    (ws, violations)
}

/// Each violating fixture trips exactly the rule it was built for, at
/// the documented site count; each clean fixture is silent.
#[test]
fn corpus_violations_hit_exactly_the_intended_rule() {
    let expected: [(&str, &str, usize); 5] = [
        ("l1_violation", "engine-twins", 2),
        ("l2_violation", "budget-bypass", 1),
        ("l8_violation", "determinism", 1),
        ("l9_violation", "counter-coverage", 2),
        ("l10_violation", "dead-twin", 1),
    ];
    for (name, rule, count) in expected {
        let (_, violations) = lint_fixture(name);
        assert_eq!(
            violations.len(),
            count,
            "{name}: expected {count} violation(s), got:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        for v in &violations {
            assert_eq!(v.rule, rule, "{name}: unexpected rule in {v}");
            assert!(
                lints::code_for(v.rule).is_some(),
                "{name}: violation carries unregistered rule `{}`",
                v.rule
            );
        }
    }
    for name in ["l1_clean", "l2_clean", "l8_clean", "l9_clean", "l10_clean"] {
        let (_, violations) = lint_fixture(name);
        assert!(
            violations.is_empty(),
            "{name}: clean fixture flagged:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The JSON report for every fixture matches its checked-in golden
/// byte-for-byte, and re-loading + re-rendering reproduces it exactly.
#[test]
fn corpus_reports_match_goldens_byte_for_byte() {
    for name in [
        "l1_violation",
        "l1_clean",
        "l2_violation",
        "l2_clean",
        "l8_violation",
        "l8_clean",
        "l9_violation",
        "l9_clean",
        "l10_violation",
        "l10_clean",
    ] {
        let golden_path = fixture_root(name).join("expected.json");
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
        let (ws, violations) = lint_fixture(name);
        let rendered = json::render_report(&ws, &violations);
        assert_eq!(
            rendered, golden,
            "{name}: report drifted from golden (regenerate with \
             `pscds-lint --root crates/analysis/tests/fixtures/{name} --no-interleave --format json`)"
        );
        // Independent reload → byte-identical bytes again.
        let (ws2, violations2) = lint_fixture(name);
        assert_eq!(
            json::render_report(&ws2, &violations2),
            rendered,
            "{name}: nondeterministic report"
        );
        // And the golden round-trips through the validator.
        let doc =
            json::parse(&golden).unwrap_or_else(|e| panic!("{name}: golden unparseable: {e}"));
        let n =
            json::validate_report(&doc).unwrap_or_else(|e| panic!("{name}: golden invalid: {e}"));
        assert_eq!(
            n as usize,
            violations.len(),
            "{name}: violation count mismatch"
        );
    }
}

/// Fixture corpora are the lint's own test inputs: the live workspace
/// scan must never pick them up, or the deliberate violations would
/// fail the self-lint gate.
#[test]
fn live_scan_skips_the_fixture_corpus() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf();
    let ws = Workspace::load(&repo_root).expect("workspace sources load");
    assert!(
        !ws.files.iter().any(|f| f.path.contains("fixtures/")),
        "fixture files leaked into the live scan"
    );
}
