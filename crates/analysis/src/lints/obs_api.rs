//! L6 `obs-api`: the observability subsystem keeps two invariants that
//! plain review keeps missing, one on each side of the crate boundary:
//!
//! * **pscds-obs is clock-free.** No `Instant::now` / `SystemTime::now`
//!   inside `crates/obs/src` — callers inject every timestamp through
//!   [`Budget::elapsed_ns`], so span timings stay coherent with the
//!   budget's deadline accounting and the crate stays deterministic
//!   enough to test byte-for-byte.
//! * **Consumers go through the registry and the session.** In
//!   `crates/{core,cli,bench}/src`, metric, span, and event names must
//!   be the `pscds_obs::names` constants — a string-literal name in a
//!   `counter_add`/`gauge_max`/`histogram_record`/`span_open`/`event`
//!   call silently forks the schema the bench
//!   validator and the CI counter-diff rely on. Likewise `Span` values
//!   are built by `ObsSession::span_open`/`span_close`, never by hand:
//!   a hand-rolled struct literal bypasses the per-thread aggregation
//!   that keeps parallel traces deterministic.
//!
//! Test regions and `lint-allow(obs-api)` lines are exempt as usual.

use super::{find_path2, flag};
use crate::lexer::TokKind;
use crate::source::{Violation, Workspace};

/// Rule id for `lint-allow`.
pub const RULE: &str = "obs-api";

/// The `MetricSet`/`ObsSession`/`SpanStack` recording calls whose name
/// argument must be a `names::` registry constant.
const METRIC_CALLS: [&str; 5] = [
    "counter_add",
    "gauge_max",
    "histogram_record",
    "span_open",
    "event",
];

/// The source trees that consume the obs API.
const CONSUMER_TREES: [&str; 3] = ["crates/core/src/", "crates/cli/src/", "crates/bench/src/"];

/// Runs the rule.
#[must_use]
pub fn run(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.under("crates/obs/src/") {
            for (a, b) in [("Instant", "now"), ("SystemTime", "now")] {
                for i in find_path2(file, a, b) {
                    flag(
                        &mut out,
                        file,
                        RULE,
                        file.tokens[i].line,
                        format!(
                            "`{a}::now` inside pscds-obs: the subsystem is clock-free — \
                             callers inject timestamps via `Budget::elapsed_ns` so traces \
                             stay coherent with the budget clock"
                        ),
                    );
                }
            }
            continue;
        }
        if !CONSUMER_TREES.iter().any(|tree| file.under(tree)) {
            continue;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            let t = &tokens[i];
            if METRIC_CALLS.iter().any(|c| t.is_ident(c))
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && tokens
                    .get(i + 2)
                    .is_some_and(|n| n.kind == TokKind::Literal && n.text.starts_with('"'))
            {
                flag(
                    &mut out,
                    file,
                    RULE,
                    t.line,
                    format!(
                        "string-literal metric name in `{}`: register the metric in \
                         `pscds_obs::names` and pass the constant, so the schema the bench \
                         validator and the CI counter-diff consume cannot drift",
                        t.text
                    ),
                );
            }
            // A `Span { field: … }` struct literal — the `ident :` lookahead
            // separates construction from return types (`-> Span {`),
            // `impl Span {`, and shorthand destructuring patterns, which
            // merely *read* spans and are fine.
            if t.is_ident("Span")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('{'))
                && tokens.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && tokens.get(i + 3).is_some_and(|n| n.is_punct(':'))
            {
                flag(
                    &mut out,
                    file,
                    RULE,
                    t.line,
                    "hand-built `Span` struct literal outside pscds-obs: open spans through \
                     `ObsSession::span_open`/`span_close` so they join the per-thread \
                     aggregation that keeps parallel traces deterministic"
                        .to_owned(),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    #[test]
    fn ad_hoc_clocks_in_obs_are_flagged() {
        let ws = Workspace::from_sources(&[(
            "crates/obs/src/span.rs",
            "pub fn f() { let a = Instant::now(); let b = SystemTime::now(); }\n",
        )]);
        let v = run(&ws);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("Instant::now"));
        assert!(v[1].message.contains("SystemTime::now"));
    }

    #[test]
    fn clocks_outside_obs_are_not_this_rules_business() {
        // (L2 budget-bypass owns `Instant::now` in core; the CLI and
        // bench time wall-clocks legitimately.)
        let ws = Workspace::from_sources(&[(
            "crates/bench/src/bin/e1.rs",
            "pub fn f() { let t = Instant::now(); }\n",
        )]);
        assert_eq!(run(&ws), vec![]);
    }

    #[test]
    fn string_literal_metric_names_are_flagged_in_consumers() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/engine.rs",
            "pub fn f(obs: &mut ObsSession) {\n    obs.counter_add(\"dp.cache_hits\", 1);\n    obs.gauge_max(\"dp.cache_peak\", 2);\n    obs.histogram_record(\"dp.level_steps\", 3);\n    obs.span_open(\"dp.run\", 0);\n    obs.event(\"budget.trip\", 0, &[]);\n}\n",
        )]);
        let v = run(&ws);
        assert_eq!(v.len(), 5, "{v:?}");
        assert!(v[0].message.contains("pscds_obs::names"));
    }

    #[test]
    fn registry_constants_pass() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/engine.rs",
            "pub fn f(obs: &mut ObsSession) { obs.counter_add(names::DP_CACHE_HITS, 1); }\n",
        )]);
        assert_eq!(run(&ws), vec![]);
    }

    #[test]
    fn hand_built_spans_are_flagged_outside_obs() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/engine.rs",
                "pub fn f() -> Span { Span { name: \"x\", attrs: vec![], start_ns: 0, end_ns: 0, children: vec![] } }\n",
            ),
            (
                "crates/obs/src/span.rs",
                "pub fn open() -> Span { Span { name: \"x\", attrs: vec![], start_ns: 0, end_ns: 0, children: vec![] } }\n",
            ),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].file.contains("crates/core"));
        assert!(v[0].message.contains("span_open"));
    }

    #[test]
    fn allow_directive_and_test_regions_are_exempt() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/engine.rs",
            "pub fn f(obs: &mut ObsSession) {\n    // lint-allow(obs-api): schema-drift fixture for the validator test\n    obs.counter_add(\"made.up\", 1);\n}\n#[cfg(test)]\nmod tests {\n    fn t(obs: &mut ObsSession) { obs.counter_add(\"scratch\", 1); }\n}\n",
        )]);
        assert_eq!(run(&ws), vec![]);
    }
}
