//! L9 `counter-coverage`: the metric-name registry
//! (`crates/obs/src/names.rs`) and the emission sites must cover each
//! other, in both directions:
//!
//! * **No orphan constants.** Every `pub const NAME: &str = "…"` in the
//!   registry must be emitted — passed to `counter_add`/`gauge_max`/
//!   `histogram_record`/`span_open`/`event` — from at least one
//!   *library* path somewhere in the workspace. An
//!   orphan means the JSONL schema advertises a metric no run can ever
//!   produce: the bench validator and the CI counter-diff then treat
//!   "always zero" and "never wired" as the same thing, which is
//!   exactly the drift the registry exists to prevent.
//! * **No unregistered emissions.** Every emission in the consumer
//!   trees must name a registry constant. String literals are L6's
//!   business; this direction catches names smuggled through locals or
//!   parameters, which defeat the registry just as thoroughly.
//!
//! The `COUNTERS`/`GAUGES`/`HISTOGRAMS`/`SPANS`/`EVENTS` reporting
//! arrays in the registry are not emissions and do not count as
//! coverage — only real recording call sites do.

use super::flag;
use crate::lexer::TokKind;
use crate::source::{SourceFile, Violation, Workspace};

/// Rule id for `lint-allow`.
pub const RULE: &str = "counter-coverage";

/// The registry file.
pub const NAMES_FILE: &str = "crates/obs/src/names.rs";

/// The recording calls that constitute an emission. `span_open` covers
/// both `ObsSession::span_open` and the worker-side
/// `SpanStack::span_open` alias (the bare `open` is deliberately not
/// matched: `File::open("…")` and friends are not emissions).
const METRIC_CALLS: [&str; 5] = [
    "counter_add",
    "gauge_max",
    "histogram_record",
    "span_open",
    "event",
];

/// The source trees whose emissions must use registry constants.
const CONSUMER_TREES: [&str; 3] = ["crates/core/src/", "crates/cli/src/", "crates/bench/src/"];

/// A registry constant: `pub const NAME: &str = "value";`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricConst {
    /// The constant's identifier (e.g. `DP_CACHE_HITS`).
    pub name: String,
    /// The metric string it carries.
    pub value: String,
    /// 1-based declaration line in the registry file.
    pub line: u32,
}

/// Parses the registry's string constants. Array aggregates
/// (`COUNTERS`, `GAUGES`) are typed `[&str; N]` and fall out naturally:
/// only `&str`-typed constants with a literal initializer match.
#[must_use]
pub fn metric_consts(file: &SourceFile) -> Vec<MetricConst> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("const") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !tokens.get(i + 2).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        // `& ['static] str = "literal"`
        let mut j = i + 3;
        if !tokens.get(j).is_some_and(|t| t.is_punct('&')) {
            continue;
        }
        j += 1;
        if tokens.get(j).is_some_and(|t| t.kind == TokKind::Lifetime) {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_ident("str")) {
            continue;
        }
        if !tokens.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        let Some(lit) = tokens
            .get(j + 2)
            .filter(|t| t.kind == TokKind::Literal && t.text.starts_with('"'))
        else {
            continue;
        };
        out.push(MetricConst {
            name: name.text.clone(),
            value: lit.text.trim_matches('"').to_owned(),
            line: tokens[i].line,
        });
    }
    out
}

/// An emission site: a `counter_add`/`gauge_max` call with the token
/// range of its argument list (inside the parens).
struct Emission {
    line: u32,
    args: (usize, usize),
}

fn emissions(file: &SourceFile) -> Vec<Emission> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !METRIC_CALLS.iter().any(|c| tokens[i].is_ident(c)) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        out.push(Emission {
            line: tokens[i].line,
            args: (i + 2, j),
        });
    }
    out
}

/// `true` for files that are test code wholesale (under a `tests/`
/// directory) — their emissions exercise the API but do not wire a
/// metric into any real run.
fn is_test_file(file: &SourceFile) -> bool {
    file.path.starts_with("tests/") || file.path.contains("/tests/")
}

/// Runs the rule.
#[must_use]
pub fn run(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(names_file) = ws.file(NAMES_FILE) else {
        return out; // No registry, nothing to cover (synthetic corpora).
    };
    let consts = metric_consts(names_file);
    if consts.is_empty() {
        return out;
    }

    let mut emitted: Vec<bool> = vec![false; consts.len()];
    for file in &ws.files {
        if file.path == NAMES_FILE || is_test_file(file) {
            continue;
        }
        for em in emissions(file) {
            if file.is_test_line(em.line) {
                continue;
            }
            let args = &file.tokens[em.args.0..em.args.1.min(file.tokens.len())];
            let uses_const = consts.iter().enumerate().any(|(ci, c)| {
                let hit = args.iter().any(|t| t.is_ident(&c.name));
                if hit {
                    emitted[ci] = true;
                }
                hit
            });
            // Unregistered-emission direction, consumer trees only.
            if !uses_const
                && CONSUMER_TREES.iter().any(|tree| file.under(tree))
                && !args
                    .first()
                    .is_some_and(|t| t.kind == TokKind::Literal && t.text.starts_with('"'))
            {
                flag(
                    &mut out,
                    file,
                    RULE,
                    em.line,
                    "metric emission names no `pscds_obs::names` constant: route the name through the registry so the bench validator and the CI counter-diff see every metric the run can produce".to_owned(),
                );
            }
        }
    }
    for (ci, c) in consts.iter().enumerate() {
        if !emitted[ci] {
            flag(
                &mut out,
                names_file,
                RULE,
                c.line,
                format!(
                    "registry constant `{}` (\"{}\") is never emitted from a library path: wire a `counter_add`/`gauge_max` call or retire the constant — an advertised-but-unwired metric is schema drift",
                    c.name, c.value
                ),
            );
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    const REGISTRY: &str = "pub const DP_CACHE_HITS: &str = \"dp.cache_hits\";\n\
                            pub const BUDGET_TICKS: &str = \"budget.ticks\";\n\
                            pub const COUNTERS: [&str; 2] = [DP_CACHE_HITS, BUDGET_TICKS];\n";

    #[test]
    fn registry_parser_reads_string_consts_only() {
        let f = crate::source::SourceFile::from_source(NAMES_FILE, REGISTRY);
        let consts = metric_consts(&f);
        assert_eq!(consts.len(), 2, "arrays are not string consts");
        assert_eq!(consts[0].name, "DP_CACHE_HITS");
        assert_eq!(consts[0].value, "dp.cache_hits");
    }

    #[test]
    fn orphan_constants_are_flagged_at_their_declaration() {
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, REGISTRY),
            (
                "crates/core/src/engine.rs",
                "pub fn f(obs: &mut ObsSession) { obs.counter_add(names::DP_CACHE_HITS, 1); }\n",
            ),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, NAMES_FILE);
        assert!(v[0].message.contains("BUDGET_TICKS"));
    }

    #[test]
    fn emissions_in_test_code_do_not_count_as_coverage() {
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, REGISTRY),
            (
                "crates/core/src/engine.rs",
                "pub fn f(obs: &mut ObsSession) { obs.counter_add(names::DP_CACHE_HITS, 1); }\n\
                 #[cfg(test)]\nmod tests {\n    fn t(obs: &mut ObsSession) { obs.counter_add(names::BUDGET_TICKS, 1); }\n}\n",
            ),
            (
                "crates/obs/tests/smoke.rs",
                "fn t(obs: &mut ObsSession) { obs.counter_add(names::BUDGET_TICKS, 1); }\n",
            ),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 1, "test-only coverage is not coverage: {v:?}");
        assert!(v[0].message.contains("BUDGET_TICKS"));
    }

    #[test]
    fn fully_covered_registry_is_clean() {
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, REGISTRY),
            (
                "crates/core/src/engine.rs",
                "pub fn f(obs: &mut ObsSession) {\n\
                     obs.counter_add(names::DP_CACHE_HITS, 1);\n\
                     obs.counter_add(names::BUDGET_TICKS, 2);\n\
                 }\n",
            ),
        ]);
        assert_eq!(run(&ws), vec![]);
    }

    #[test]
    fn consumer_emissions_through_locals_are_flagged() {
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, REGISTRY),
            (
                "crates/core/src/engine.rs",
                "pub fn f(obs: &mut ObsSession, which: &'static str) {\n\
                     obs.counter_add(which, 1);\n\
                     obs.counter_add(names::DP_CACHE_HITS, 1);\n\
                     obs.counter_add(names::BUDGET_TICKS, 1);\n\
                 }\n",
            ),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("registry"));
    }

    #[test]
    fn obs_internal_plumbing_is_not_a_consumer() {
        // The session forwards its `name` parameter to the metric set —
        // that is the API's own implementation, not an emission bypass.
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, REGISTRY),
            (
                "crates/obs/src/session.rs",
                "impl ObsSession { pub fn counter_add(&mut self, name: &'static str, d: u64) { self.metrics.counter_add(name, d); } }\n",
            ),
            (
                "crates/core/src/engine.rs",
                "pub fn f(obs: &mut ObsSession) {\n\
                     obs.counter_add(names::DP_CACHE_HITS, 1);\n\
                     obs.counter_add(names::BUDGET_TICKS, 1);\n\
                 }\n",
            ),
        ]);
        assert_eq!(run(&ws), vec![]);
    }

    #[test]
    fn span_histogram_and_event_emissions_count_as_coverage() {
        let registry = "pub const SPAN_DP_RUN: &str = \"dp.run\";\n\
                        pub const DP_LEVEL_STEPS: &str = \"dp.level_steps\";\n\
                        pub const EVENT_BUDGET_TRIP: &str = \"budget.trip\";\n";
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, registry),
            (
                "crates/core/src/engine.rs",
                "pub fn f(obs: &mut ObsSession, spans: &mut SpanStack) {\n\
                     obs.span_open(names::SPAN_DP_RUN, 0);\n\
                     spans.span_open(names::SPAN_DP_RUN, 0);\n\
                     obs.histogram_record(names::DP_LEVEL_STEPS, 1);\n\
                     obs.event(names::EVENT_BUDGET_TRIP, 0, &[]);\n\
                 }\n",
            ),
        ]);
        assert_eq!(run(&ws), vec![]);
    }

    #[test]
    fn bare_open_calls_are_not_emissions() {
        let registry = "pub const SPAN_DP_RUN: &str = \"dp.run\";\n";
        let ws = Workspace::from_sources(&[
            (NAMES_FILE, registry),
            (
                "crates/core/src/engine.rs",
                "pub fn f(stack: &mut SpanStack) { stack.open(names::SPAN_DP_RUN, 0); let _ = File::open(\"x\"); }\n",
            ),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 1, "bare `open` is not a recording call: {v:?}");
        assert!(v[0].message.contains("SPAN_DP_RUN"));
    }

    #[test]
    fn missing_registry_file_means_nothing_to_cover() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/engine.rs",
            "pub fn f(obs: &mut ObsSession) { obs.counter_add(local, 1); }\n",
        )]);
        assert_eq!(run(&ws), vec![]);
    }
}
