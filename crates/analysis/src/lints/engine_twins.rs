//! L1 `engine-twins`: every super-polynomial engine entry point in
//! `crates/core` — a bare-`pub` `fn` whose name matches `check_*`,
//! `analyze_*` or `count_*` — must be interruptible, and its parity with
//! the other engine routes must be tested:
//!
//! 1. the engine **is governed**: it takes a [`Budget`] parameter, or a
//!    bare-`pub` member of its name family (`<name>_*`, e.g.
//!    `<name>_budgeted` or `<name>_observed`) does;
//! 2. the engine's name is referenced from `tests/engine_parity.rs`, the
//!    differential harness that makes the Theorem 4.1 / Theorem 5.1
//!    bit-identity contract executable.
//!
//! One more clause: no bare-`pub` `fn` in `crates/core/src` binds a
//! [`ParallelConfig`] parameter to an `_`-prefixed name. A thread count
//! the body never reads promises a parallel route that does not exist.
//!
//! Names ending in `_budgeted` / `_parallel` are family members, not
//! bases, and are skipped. The discovered engine list is exposed via
//! [`engine_bases`] so `tests/engine_parity.rs` can assert at runtime
//! that the registry and the parity suite stay in sync.

use super::{flag, fn_decls};
use crate::lexer::{TokKind, Token};
use crate::source::{Violation, Workspace};

/// Rule id for `lint-allow`.
pub const RULE: &str = "engine-twins";

/// Path of the parity harness the rule anchors to.
pub const PARITY_TEST: &str = "tests/engine_parity.rs";

/// A discovered engine base function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineBase {
    /// The engine's function name (e.g. `count_dp_observed`).
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the declaration.
    pub line: u32,
    /// `true` if a `lint-allow(engine-twins)` directive covers the
    /// declaration (such engines are exempt from the checks but are
    /// still listed).
    pub allowed: bool,
}

/// `true` iff `name` is an engine *base* name: matches the verb patterns
/// and is not itself a `_budgeted` / `_parallel` family member.
#[must_use]
pub fn is_engine_base_name(name: &str) -> bool {
    let matches_verb = ["check_", "analyze_", "count_"]
        .iter()
        .any(|v| name.starts_with(v));
    matches_verb && !name.ends_with("_budgeted") && !name.ends_with("_parallel")
}

/// Discovers every engine base declared in `crates/core/src` library
/// paths (test regions excluded).
#[must_use]
pub fn engine_bases(ws: &Workspace) -> Vec<EngineBase> {
    let mut bases = Vec::new();
    for file in ws.core_files() {
        for decl in fn_decls(file) {
            if decl.is_pub && !file.is_test_line(decl.line) && is_engine_base_name(&decl.name) {
                bases.push(EngineBase {
                    name: decl.name.clone(),
                    file: file.path.clone(),
                    line: decl.line,
                    allowed: file.allows_rule(RULE, decl.line),
                });
            }
        }
    }
    bases
}

/// The parameters of a parameter list, split at top-level commas.
fn params(tokens: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, 0usize);
    for (i, t) in tokens.iter().enumerate() {
        // `->` inside a closure type is not a closing angle bracket.
        let arrow = i > 0 && tokens[i - 1].is_punct('-');
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || (t.is_punct('>') && !arrow) {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push(&tokens[start..i]);
            start = i + 1;
        }
    }
    if start < tokens.len() {
        out.push(&tokens[start..]);
    }
    out
}

/// The `_`-prefixed name a parameter binds its [`ParallelConfig`] to,
/// if it does.
fn ignored_parallel_config(param: &[Token]) -> Option<&str> {
    let colon = param.iter().position(|t| t.is_punct(':'))?;
    let (pattern, ty) = param.split_at(colon);
    let name = pattern.last()?;
    let ignored = pattern.iter().all(|t| t.kind == TokKind::Ident) && name.text.starts_with('_');
    (ignored && ty.iter().any(|t| t.is_ident("ParallelConfig"))).then_some(name.text.as_str())
}

/// Runs the rule.
#[must_use]
pub fn run(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    // Bare-pub core fns that take a `Budget`: the governed entries.
    let mut governed = Vec::new();
    for file in ws.core_files() {
        for decl in fn_decls(file) {
            if !decl.is_pub || file.is_test_line(decl.line) {
                continue;
            }
            let (ps, pe) = decl.params;
            let tokens = &file.tokens[ps..pe];
            if tokens.iter().any(|t| t.is_ident("Budget")) {
                governed.push(decl.name.clone());
            }
            for name in params(tokens)
                .into_iter()
                .filter_map(ignored_parallel_config)
            {
                flag(
                    &mut out,
                    file,
                    RULE,
                    decl.line,
                    format!(
                        "`{}` binds its `ParallelConfig` to `{name}` and never reads it: a thread count the body ignores promises a parallel route that does not exist — drop the parameter, and the function if it then duplicates another",
                        decl.name
                    ),
                );
            }
        }
    }
    let parity = ws.file(PARITY_TEST);
    for base in engine_bases(ws) {
        if base.allowed {
            continue;
        }
        let file = ws
            .file(&base.file)
            .expect("engine base came from this workspace");
        let family = format!("{}_", base.name);
        if !governed
            .iter()
            .any(|g| *g == base.name || g.starts_with(&family))
        {
            flag(
                &mut out,
                file,
                RULE,
                base.line,
                format!(
                    "engine `{}` is not governed: take a `&Budget` parameter, or declare a `pub` member of its name family (`{}*`) that does, so the engine is interruptible",
                    base.name, family
                ),
            );
        }
        match parity {
            Some(p) if p.mentions_ident(&base.name) => {}
            Some(_) => flag(
                &mut out,
                file,
                RULE,
                base.line,
                format!(
                    "engine `{}` is not referenced from {PARITY_TEST}: add a differential parity case before shipping the engine",
                    base.name
                ),
            ),
            None => flag(
                &mut out,
                file,
                RULE,
                base.line,
                format!(
                    "{PARITY_TEST} was not found in the workspace, so engine `{}` has no parity anchor",
                    base.name
                ),
            ),
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Workspace;

    const PARITY_OK: &str = "#[test]\nfn parity() { count_widgets(1); }\n";

    #[test]
    fn base_name_classification() {
        assert!(is_engine_base_name("count_dp_observed"));
        assert!(is_engine_base_name("check_resilient"));
        assert!(is_engine_base_name("analyze_circuit"));
        assert!(!is_engine_base_name("count_dp_parallel"));
        assert!(!is_engine_base_name("analyze_budgeted"));
        assert!(!is_engine_base_name("decide_identity"));
        assert!(!is_engine_base_name("checked_sub"));
    }

    #[test]
    fn ungoverned_engine_and_missing_parity_reference_are_flagged() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/widgets.rs",
                "pub fn count_widgets(n: u64) -> u64 { n }\n",
            ),
            ("tests/engine_parity.rs", "#[test]\nfn other() {}\n"),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 2, "ungoverned, parity ref: {v:?}");
        assert!(v.iter().all(|x| x.rule == RULE));
        assert!(v[0].message.contains("is not governed"), "{v:?}");
        assert!(v[1].message.contains("is not referenced"), "{v:?}");
    }

    #[test]
    fn governed_by_parameter_or_family_member_passes() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/widgets.rs",
                "pub fn count_widgets(n: u64, budget: &Budget) -> u64 { n }\n",
            ),
            ("tests/engine_parity.rs", PARITY_OK),
        ]);
        assert_eq!(run(&ws), vec![]);

        // A `_budgeted` member is not a base; an `_observed` one is, and
        // needs a parity reference of its own.
        for member in ["count_widgets_budgeted", "count_widgets_observed"] {
            let src = format!(
                "pub fn count_widgets(n: u64) -> u64 {{ n }}\n\
                 pub fn {member}(n: u64, b: &Budget, c: &ParallelConfig) -> u64 {{ n }}\n"
            );
            let parity = format!("{PARITY_OK}fn more() {{ {member}(1); }}\n");
            let ws = Workspace::from_sources(&[
                ("crates/core/src/widgets.rs", src.as_str()),
                ("tests/engine_parity.rs", parity.as_str()),
            ]);
            assert_eq!(run(&ws), vec![], "{member}");
        }
    }

    #[test]
    fn private_family_members_do_not_govern() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/widgets.rs",
                "pub fn count_widgets(n: u64) -> u64 { n }\n\
                 fn count_widgets_inner(n: u64, b: &Budget) -> u64 { n }\n",
            ),
            ("tests/engine_parity.rs", PARITY_OK),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("is not governed"));
    }

    #[test]
    fn ignored_parallel_config_is_flagged_anywhere_in_core() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/widgets.rs",
                "pub fn count_widgets(n: u64, b: &Budget, _parallel: &ParallelConfig) -> u64 { n }\n\
                 pub fn spread(f: impl Fn(u64) -> u64, _: &ParallelConfig) -> u64 { f(0) }\n\
                 pub fn used(n: u64, parallel: &ParallelConfig) -> u64 { n }\n\
                 fn private(_parallel: &ParallelConfig) {}\n",
            ),
            ("tests/engine_parity.rs", PARITY_OK),
        ]);
        let v = run(&ws);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0]
            .message
            .contains("`count_widgets` binds its `ParallelConfig` to `_parallel`"));
        assert!(v[1]
            .message
            .contains("`spread` binds its `ParallelConfig` to `_`"));
    }

    #[test]
    fn allow_directive_exempts_an_engine() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/widgets.rs",
                "// lint-allow(engine-twins): thin serial wrapper over count_widgets_full\npub fn count_widgets(n: u64) -> u64 { n }\n",
            ),
            ("tests/engine_parity.rs", "#[test]\nfn other() {}\n"),
        ]);
        assert_eq!(run(&ws), vec![]);
        let bases = engine_bases(&ws);
        assert_eq!(bases.len(), 1);
        assert!(bases[0].allowed);
    }

    #[test]
    fn test_region_declarations_are_ignored() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/widgets.rs",
                "#[cfg(test)]\nmod tests {\n    pub fn count_fixtures(_p: &ParallelConfig) -> u64 { 0 }\n}\n",
            ),
            ("tests/engine_parity.rs", PARITY_OK),
        ]);
        assert_eq!(run(&ws), vec![]);
        assert!(engine_bases(&ws).is_empty());
    }
}
