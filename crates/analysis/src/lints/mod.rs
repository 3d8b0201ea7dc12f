//! The invariant-lint registry.
//!
//! Each lint is a named, individually-testable rule over the
//! [`Workspace`] token model. The registry is the single place future
//! engine PRs extend; `run_all` is what the `pscds-lint` binary and the
//! CI gate execute. Every rule honors the `lint-allow` grammar of
//! [`crate::source`]:
//!
//! | code | id | invariant |
//! |------|----|-----------|
//! | L1 | `engine-twins` | every `check_*`/`analyze_*`/`count_*` engine in `crates/core` takes a `Budget` (itself or through a `<name>_*` family member) and has an `engine_parity.rs` reference; no `pub fn` ignores a `ParallelConfig` |
//! | L2 | `budget-bypass` | no `thread::spawn` / `Instant::now` / un-ticked `loop`/`while` outside `govern`/`partition` |
//! | L3 | `relaxed-ordering` | every `Ordering::Relaxed` carries a justification |
//! | L4 | `no-panic` | no `.unwrap()` / `.expect()` / `panic!` in `crates/core` library paths |
//! | L5 | `error-provenance` | `SearchSpaceTooLarge` carries size+cap, `BudgetExceeded` is built in `govern` or re-wrapped field-for-field |
//! | L6 | `obs-api` | pscds-obs stays clock-free; consumers use `pscds_obs::names` constants and never hand-build `Span`s |
//! | L7 | `source-provider` | engine code in `crates/core` fetches view extensions through `source::extension_view`/`SourceProvider`, never `.extension()` directly |
//! | L8 | `determinism` | no HashMap/HashSet iteration on paths feeding engine results or counter merges |
//! | L9 | `counter-coverage` | every `pscds_obs::names` constant is emitted from a library path; emissions use registry constants |
//! | L10 | `dead-twin` | every registered engine twin is transitively called from `tests/engine_parity.rs` |
//!
//! The allow-directive grammar check itself reports under the
//! pseudo-code **L0** (`allow-grammar`) so machine consumers see one
//! code space.

pub mod budget_bypass;
pub mod counter_coverage;
pub mod dead_twin;
pub mod determinism;
pub mod engine_twins;
pub mod error_provenance;
pub mod no_panic;
pub mod obs_api;
pub mod relaxed_ordering;
pub mod source_provider;

use crate::lexer::{TokKind, Token};
use crate::source::{check_allow_grammar, SourceFile, Violation, Workspace};

/// One registered lint rule.
pub struct LintRule {
    /// Stable rule id — the name used in `lint-allow(<id>)`.
    pub id: &'static str,
    /// Short code (`L1` … `L10`).
    pub code: &'static str,
    /// One-line summary for `pscds-lint --list`.
    pub summary: &'static str,
    /// Longer rationale for `pscds-lint --explain CODE`: what the rule
    /// proves, why the invariant matters, and how to fix or justify a
    /// finding.
    pub explain: &'static str,
    /// The rule implementation.
    pub run: fn(&Workspace) -> Vec<Violation>,
}

/// Pseudo-code under which malformed `lint-allow` directives report.
pub const ALLOW_GRAMMAR_CODE: &str = "L0";

/// Pseudo-rule id of the allow-directive grammar check.
pub const ALLOW_GRAMMAR_RULE: &str = "allow-grammar";

/// `--explain` text for the grammar pseudo-rule.
pub const ALLOW_GRAMMAR_EXPLAIN: &str = "Suppressions are part of the audit \
surface: `lint-allow(<rule>): <reason>` must name a rule and carry a \
non-empty justification, because an unexplained suppression is \
indistinguishable from a stale one. A malformed directive is reported \
under this code instead of being silently inert. File-wide scope uses \
`lint-allow-file(<rule>): <reason>`; inline directives cover their own \
line through the next code line.";

/// The registry, in rule-code order. **Future engine PRs register new
/// invariants here** (and nowhere else); the CI gate and the
/// `engine_parity` generated test both read this list.
#[must_use]
pub fn registry() -> Vec<LintRule> {
    vec![
        LintRule {
            id: engine_twins::RULE,
            code: "L1",
            summary: "core engines take a Budget (directly or via a <name>_* member) and have an engine_parity.rs case",
            explain: "Every super-polynomial engine entry point (a bare-pub \
check_*/analyze_*/count_* fn in crates/core) must be interruptible: it takes \
&Budget itself, or a bare-pub member of its name family (<name>_*, e.g. \
<name>_budgeted or <name>_observed) does. Its base name must appear in \
tests/engine_parity.rs, which makes the bit-identity of every engine route \
executable. One entry per engine carries the budget, the ParallelConfig and \
the ObsSession as plain parameters, so the rule does not ask for twin \
functions. It does forbid their old shape: no bare-pub fn in crates/core/src \
may bind a ParallelConfig to an _-prefixed name, because a thread count the \
body never reads promises a parallel route that does not exist. Drop the \
parameter (and the function, if it then duplicates another). Exempt a thin \
wrapper with lint-allow(engine-twins) and a justification.",
            run: engine_twins::run,
        },
        LintRule {
            id: budget_bypass::RULE,
            code: "L2",
            summary: "loops reachable from budgeted entries tick; no thread::spawn / Instant::now in core",
            explain: "The cooperative Budget is the only sanctioned way for core \
engines to spend unbounded time. thread::spawn and Instant::now are banned \
outright in crates/core/src library paths (govern.rs and partition.rs, the \
governance layer itself, are exempt): ad-hoc threads dodge forked budgets \
and shared cancellation, ad-hoc clocks dodge deadline accounting. The loop \
obligation is interprocedural: a loop/while violates only if its function \
is reachable on the call graph from a budgeted entry point (a core fn named \
*_budgeted/*_parallel or taking Budget/ParallelConfig) and the loop neither \
ticks (tick/check/charge) nor syntactically calls a callee that transitively \
ticks. Reachability follows call and reference edges (over-approximate); \
discharge follows call edges only — a mentioned-but-never-invoked ticking fn \
proves nothing. Tightly-bounded loops justify with lint-allow(budget-bypass).",
            run: budget_bypass::run,
        },
        LintRule {
            id: relaxed_ordering::RULE,
            code: "L3",
            summary: "Ordering::Relaxed requires an inline justification",
            explain: "Every Ordering::Relaxed in the workspace must carry an \
inline justification comment arguing why the relaxation cannot reorder \
into an observable race — the interleave model checker covers the two \
shipped protocols, but a bare Relaxed elsewhere is an unreviewed memory- \
model claim. Say why it is safe, on the line, where the next reader looks.",
            run: relaxed_ordering::run,
        },
        LintRule {
            id: no_panic::RULE,
            code: "L4",
            summary: "no unwrap/expect/panic in core library paths (errors flow through CoreError)",
            explain: "crates/core library paths must not panic: .unwrap(), \
.expect() and panic!/unreachable!/todo! are flagged outside test regions. \
Engines degrade by returning CoreError (budget trips, oversize search \
spaces, faulted sources) — a panic in the ladder turns a recoverable \
degradation into an abort and breaks the resilient front end's contract. \
Provably-unreachable cases justify with lint-allow(no-panic) stating the \
invariant that guards them.",
            run: no_panic::run,
        },
        LintRule {
            id: error_provenance::RULE,
            code: "L5",
            summary: "SearchSpaceTooLarge/BudgetExceeded constructions carry size+cap provenance",
            explain: "\"The engine gave up\" errors must be actionable: every \
SearchSpaceTooLarge construction carries the offending size and the cap it \
exceeded, and BudgetExceeded is built inside govern (or re-wrapped field- \
for-field) so phase/steps/deadline provenance survives the climb up the \
ladder. An empty give-up error costs the caller the exact information they \
need to re-run with a bigger budget.",
            run: error_provenance::run,
        },
        LintRule {
            id: obs_api::RULE,
            code: "L6",
            summary: "pscds-obs is clock-free; metric names come from pscds_obs::names, spans from ObsSession",
            explain: "Two invariants at the obs boundary: (1) no Instant::now / \
SystemTime::now inside crates/obs — timestamps are injected via \
Budget::elapsed_ns so traces stay coherent with budget accounting; (2) in \
consumer trees, counter_add/gauge_max take pscds_obs::names constants, \
never string literals, and Span values come from ObsSession::span_open, \
never struct literals — both keep the JSONL schema and the per-thread \
aggregation from drifting per call site.",
            run: obs_api::run,
        },
        LintRule {
            id: source_provider::RULE,
            code: "L7",
            summary: "core engines fetch extensions via source::extension_view / SourceProvider, never .extension()",
            explain: "Engine code in crates/core reaches view extensions \
through source::extension_view / the SourceProvider trait, never \
.extension() directly: the provider layer is where fault injection, retry/ \
backoff, circuit breaking and partial-availability accounting live. A \
direct fetch silently opts out of the failure model the resilient ladder \
is built on.",
            run: source_provider::run,
        },
        LintRule {
            id: determinism::RULE,
            code: "L8",
            summary: "no HashMap/HashSet iteration on paths feeding engine results or counter merges",
            explain: "Engine outputs and obs counters are bit-identity \
contracts (CI diffs totals across thread counts; the parity harness diffs \
twin outputs), and HashMap/HashSet iteration order varies per process. \
for-loops over hash-typed values in crates/core/src and crates/obs/src are \
flagged — hash-typedness is tracked through declarations, constructions, \
and one hop of let-binding taint (e.g. a map moved out of a map-of-maps). \
Fix by iterating a sorted snapshot (collect + sort, or BTreeMap); loops \
that are genuinely order-insensitive justify with lint-allow(determinism).",
            run: determinism::run,
        },
        LintRule {
            id: counter_coverage::RULE,
            code: "L9",
            summary: "every pscds_obs::names constant is emitted from a library path; emissions use constants",
            explain: "The metric registry and the emission sites must cover \
each other. A names.rs constant no library path ever passes to counter_add \
/gauge_max is advertised-but-unwired schema (the bench validator cannot \
tell \"always zero\" from \"never emitted\") and is flagged at its \
declaration; emissions in consumer trees that name no registry constant \
(names smuggled through locals or parameters) are flagged at the call. \
Test-only emissions do not count as coverage.",
            run: counter_coverage::run,
        },
        LintRule {
            id: dead_twin::RULE,
            code: "L10",
            summary: "every registered engine twin is transitively called from tests/engine_parity.rs",
            explain: "L1 makes every engine governed and makes the harness \
mention its base name; L10 closes the gap by requiring each <base>_budgeted \
/ <base>_parallel twin that still exists to be transitively *called* from \
tests/engine_parity.rs on the workspace call graph (call and reference \
edges — a twin handed to a table-driven runner counts). A twin the parity \
harness cannot reach is an untested bit-identity claim. Add a differential \
case, or justify with lint-allow(dead-twin) naming the covering harness.",
            run: dead_twin::run,
        },
    ]
}

/// The stable diagnostic code for a rule id (including the grammar
/// pseudo-rule), or `None` for an unregistered id.
#[must_use]
pub fn code_for(rule: &str) -> Option<&'static str> {
    if rule == ALLOW_GRAMMAR_RULE {
        return Some(ALLOW_GRAMMAR_CODE);
    }
    registry()
        .into_iter()
        .find(|r| r.id == rule)
        .map(|r| r.code)
}

/// The `--explain` entry for a stable code: `(rule id, text)`.
#[must_use]
pub fn explain_for(code: &str) -> Option<(&'static str, &'static str)> {
    if code == ALLOW_GRAMMAR_CODE {
        return Some((ALLOW_GRAMMAR_RULE, ALLOW_GRAMMAR_EXPLAIN));
    }
    registry()
        .into_iter()
        .find(|r| r.code == code)
        .map(|r| (r.id, r.explain))
}

/// The suppression census of a workspace — what `--format json` and the
/// CI baseline diff report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressionStats {
    /// Total `lint-allow`/`lint-allow-file` directives.
    pub directives: u64,
    /// How many of those are file-scoped.
    pub file_scope: u64,
    /// Files carrying at least one directive.
    pub files: u64,
    /// Directive counts per rule id, sorted by rule id.
    pub by_rule: Vec<(String, u64)>,
}

/// Counts every parsed allow directive in the workspace. The parsed
/// directives are the authority — prose mentions in doc comments are
/// not directives and are not counted.
#[must_use]
pub fn suppression_stats(ws: &Workspace) -> SuppressionStats {
    let mut directives = 0u64;
    let mut file_scope = 0u64;
    let mut files = 0u64;
    let mut by_rule: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for f in &ws.files {
        if !f.allows.is_empty() {
            files += 1;
        }
        for a in &f.allows {
            directives += 1;
            if a.file_scope {
                file_scope += 1;
            }
            *by_rule.entry(a.rule.clone()).or_insert(0) += 1;
        }
    }
    SuppressionStats {
        directives,
        file_scope,
        files,
        by_rule: by_rule.into_iter().collect(),
    }
}

/// Runs every registered rule plus the allow-directive grammar check,
/// returning all violations sorted by file and line.
#[must_use]
pub fn run_all(ws: &Workspace) -> Vec<Violation> {
    let mut out = check_allow_grammar(ws);
    for rule in registry() {
        out.extend((rule.run)(ws));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// A `fn` declaration discovered by [`fn_decls`].
#[derive(Clone, Debug)]
pub struct FnDecl {
    /// The function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// `true` for unrestricted `pub` visibility.
    pub is_pub: bool,
    /// Token index range of the parameter list, *inside* the parens.
    pub params: (usize, usize),
    /// Token index range of the body, *inside* the braces (`None` for
    /// block-less declarations).
    pub body: Option<(usize, usize)>,
}

/// Scans a file for `fn` declarations (library and test code alike —
/// callers filter with [`SourceFile::is_test_line`]).
#[must_use]
pub fn fn_decls(file: &SourceFile) -> Vec<FnDecl> {
    let tokens = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            let Some(name_tok) = tokens.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let is_pub = visibility_is_bare_pub(tokens, i);
            // Skip generics to the parameter list's `(`.
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < tokens.len() {
                if tokens[j].is_punct('<') {
                    angle += 1;
                } else if tokens[j].is_punct('>') {
                    angle -= 1;
                } else if tokens[j].is_punct('(') && angle <= 0 {
                    break;
                }
                j += 1;
            }
            let params_start = j + 1;
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
            let params_end = j;
            // Body: the first `{` at bracket depth 0 before a `;`.
            let mut k = j + 1;
            let mut body = None;
            let mut d = 0i32;
            while k < tokens.len() {
                let t = &tokens[k];
                if t.is_punct('(') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    d -= 1;
                } else if t.is_punct(';') && d == 0 {
                    break;
                } else if t.is_punct('{') && d == 0 {
                    let end = crate::source::balanced_block_end(tokens, k);
                    body = Some((k + 1, end));
                    break;
                }
                k += 1;
            }
            out.push(FnDecl {
                name: name_tok.text.clone(),
                line: tokens[i].line,
                is_pub,
                params: (params_start, params_end),
                body,
            });
        }
        i += 1;
    }
    out
}

/// Walks back from the `fn` keyword over modifiers (`const`, `async`,
/// `unsafe`, `extern "…"`) and reports whether the declaration is bare
/// `pub` (restricted `pub(crate)` etc. does not count — those are not
/// public API).
fn visibility_is_bare_pub(tokens: &[Token], fn_idx: usize) -> bool {
    let mut i = fn_idx;
    while i > 0 {
        i -= 1;
        let t = &tokens[i];
        if t.is_ident("const")
            || t.is_ident("async")
            || t.is_ident("unsafe")
            || t.is_ident("extern")
        {
            continue;
        }
        if t.kind == TokKind::Literal {
            continue; // the ABI string of `extern "C"`
        }
        if t.is_ident("pub") {
            return !tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
        }
        return false;
    }
    false
}

/// Token indices `i` where `a::b` occurs (`a` at `i`, `b` at `i+3`).
#[must_use]
pub fn find_path2(file: &SourceFile, a: &str, b: &str) -> Vec<usize> {
    let t = &file.tokens;
    (0..t.len().saturating_sub(3))
        .filter(|&i| {
            t[i].is_ident(a)
                && t[i + 1].is_punct(':')
                && t[i + 2].is_punct(':')
                && t[i + 3].is_ident(b)
        })
        .collect()
}

/// Pushes a violation unless a `lint-allow(rule)` directive covers it or
/// the line is inside a `#[cfg(test)]` region.
pub(crate) fn flag(
    out: &mut Vec<Violation>,
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    if file.is_test_line(line) || file.allows_rule(rule, line) {
        return;
    }
    out.push(Violation {
        rule,
        file: file.path.clone(),
        line,
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    #[test]
    fn registry_has_ten_rules_with_distinct_ids_codes_and_explanations() {
        let reg = registry();
        assert_eq!(reg.len(), 10);
        let mut ids: Vec<&str> = reg.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "rule ids must be distinct");
        let codes: Vec<&str> = registry().iter().map(|r| r.code).collect();
        assert_eq!(
            codes,
            ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10"]
        );
        for r in &reg {
            assert!(
                r.explain.len() > 100,
                "{}: --explain text must actually explain",
                r.code
            );
        }
    }

    #[test]
    fn code_and_explain_lookups_cover_the_grammar_pseudo_rule() {
        assert_eq!(code_for(ALLOW_GRAMMAR_RULE), Some("L0"));
        assert_eq!(code_for("determinism"), Some("L8"));
        assert_eq!(code_for("no-such-rule"), None);
        assert_eq!(
            explain_for("L0").map(|(id, _)| id),
            Some(ALLOW_GRAMMAR_RULE)
        );
        assert_eq!(explain_for("L10").map(|(id, _)| id), Some("dead-twin"));
        assert_eq!(explain_for("L99"), None);
    }

    #[test]
    fn suppression_stats_count_parsed_directives_only() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/a.rs",
                "/// Prose about `lint-allow(no-panic)` is not a directive.\n\
                 // lint-allow(no-panic): guarded by the cap above\n\
                 pub fn f() {}\n\
                 // lint-allow(determinism): order-insensitive fold\n\
                 pub fn g() {}\n",
            ),
            (
                "crates/core/src/b.rs",
                "// lint-allow-file(no-panic): static exhibit module\npub fn h() {}\n",
            ),
            ("crates/core/src/c.rs", "pub fn clean() {}\n"),
        ]);
        let s = suppression_stats(&ws);
        assert_eq!(s.directives, 3);
        assert_eq!(s.file_scope, 1);
        assert_eq!(s.files, 2);
        assert_eq!(
            s.by_rule,
            vec![("determinism".to_owned(), 1), ("no-panic".to_owned(), 2)]
        );
    }

    #[test]
    fn fn_decl_scanner_reads_visibility_params_and_body() {
        let f = crate::source::SourceFile::from_source(
            "crates/core/src/x.rs",
            "pub fn count_things(x: u64, budget: &Budget) -> u64 { x }\n\
             fn helper() {}\n\
             pub(crate) fn internal() {}\n\
             pub fn generic<T: Clone>(v: Vec<T>) -> usize { v.len() }\n",
        );
        let decls = fn_decls(&f);
        assert_eq!(decls.len(), 4);
        assert!(decls[0].is_pub);
        assert_eq!(decls[0].name, "count_things");
        let (ps, pe) = decls[0].params;
        assert!(f.tokens[ps..pe].iter().any(|t| t.is_ident("Budget")));
        assert!(!decls[1].is_pub);
        assert!(!decls[2].is_pub, "pub(crate) is not bare pub");
        assert!(decls[3].is_pub);
        assert_eq!(decls[3].name, "generic");
    }

    #[test]
    fn run_all_is_sorted_and_includes_grammar_check() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/z.rs",
            "// lint-allow(no-panic)\npub fn f() {}\n",
        )]);
        let v = run_all(&ws);
        assert!(v.iter().any(|x| x.rule == "allow-grammar"));
    }
}
