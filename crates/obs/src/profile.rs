//! Profile rendering: the step-attribution views shared by the CLI's
//! `--profile` flag and the `pscds-trace` analysis binary.
//!
//! Everything here is **steps-only**: the tables aggregate budget-tick
//! charges (`Span::self_steps`) and never print nanosecond timings, so
//! two runs that did the same work render byte-identical output at any
//! thread count — the same contract the counter registries satisfy.

use crate::metrics::MetricSet;
use crate::names;
use crate::session::ObsReport;
use crate::span::Span;

/// One aggregated row of the per-phase step table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span (phase) name.
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Summed exclusive step cost.
    pub self_steps: u64,
    /// Summed inclusive step cost (self plus descendants).
    pub total_steps: u64,
}

fn accumulate(span: &Span, rows: &mut Vec<PhaseRow>) {
    match rows.iter_mut().find(|r| r.name == span.name) {
        Some(row) => {
            row.count += 1;
            row.self_steps = row.self_steps.saturating_add(span.self_steps);
            row.total_steps = row.total_steps.saturating_add(span.total_steps());
        }
        None => rows.push(PhaseRow {
            name: span.name,
            count: 1,
            self_steps: span.self_steps,
            total_steps: span.total_steps(),
        }),
    }
    for child in &span.children {
        accumulate(child, rows);
    }
}

/// Aggregates a span forest into per-phase rows, sorted by exclusive
/// step cost descending, then by name — a deterministic order for a
/// deterministic table.
#[must_use]
pub fn phase_table(spans: &[Span]) -> Vec<PhaseRow> {
    let mut rows = Vec::new();
    for span in spans {
        accumulate(span, &mut rows);
    }
    rows.sort_by(|a, b| b.self_steps.cmp(&a.self_steps).then(a.name.cmp(b.name)));
    rows
}

/// The heaviest root-to-leaf span chain by inclusive step cost: the
/// heaviest root (ties broken by recording order), then repeatedly the
/// heaviest child while one still carries nonzero total steps.
#[must_use]
pub fn critical_path(spans: &[Span]) -> Vec<&Span> {
    let mut path = Vec::new();
    let Some(mut node) = heaviest(spans) else {
        return path;
    };
    path.push(node);
    while let Some(next) = heaviest(&node.children) {
        if next.total_steps() == 0 {
            break;
        }
        path.push(next);
        node = next;
    }
    path
}

fn heaviest(spans: &[Span]) -> Option<&Span> {
    let mut best: Option<&Span> = None;
    for span in spans {
        // Strict `>` keeps the first span on ties: recording order is
        // deterministic, so the tie-break is too.
        if best.is_none_or(|b| span.total_steps() > b.total_steps()) {
            best = Some(span);
        }
    }
    best
}

fn push_row(out: &mut String, name: &str, count: u64, self_steps: u64, total_steps: u64) {
    out.push_str(&format!(
        "  {name:<30} {count:>7} {self_steps:>13} {total_steps:>13}\n"
    ));
}

/// Renders the `pscds-trace summary` view: the per-phase step table,
/// histograms, exemplars, and the attribution cross-check (span
/// self-steps vs the `budget.ticks` counter, equal by the pairing
/// contract).
#[must_use]
pub fn render_summary(report: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<30} {:>7} {:>13} {:>13}\n",
        "phase", "count", "self", "total"
    ));
    let rows = phase_table(&report.spans);
    if rows.is_empty() {
        out.push_str("  (no spans recorded)\n");
    }
    for row in &rows {
        push_row(
            &mut out,
            row.name,
            row.count,
            row.self_steps,
            row.total_steps,
        );
    }
    render_histograms(&mut out, &report.metrics);
    render_exemplars(&mut out, &report.metrics);
    let charged: u64 = report.spans.iter().map(Span::total_steps).sum();
    let ticks = report.metrics.counter(names::BUDGET_TICKS);
    out.push_str(&format!(
        "\nattributed steps: {charged} (span self-steps) == {ticks} (budget.ticks)\n"
    ));
    out
}

fn render_histograms(out: &mut String, metrics: &MetricSet) {
    let mut any = false;
    for (name, hist) in metrics.histograms() {
        if !any {
            out.push_str("\nhistograms (budget ticks per measurement):\n");
            any = true;
        }
        let mut buckets = String::new();
        for (i, (index, count)) in hist.buckets().enumerate() {
            if i > 0 {
                buckets.push(' ');
            }
            buckets.push_str(&format!("{index}:{count}"));
        }
        out.push_str(&format!(
            "  {:<30} count={} sum={} buckets {}\n",
            name,
            hist.count(),
            hist.sum(),
            buckets
        ));
    }
}

fn render_exemplars(out: &mut String, metrics: &MetricSet) {
    let mut any = false;
    for (name, keys) in metrics.exemplars() {
        if keys.is_empty() {
            continue;
        }
        if !any {
            out.push_str("\nexemplars (first-K offending keys):\n");
            any = true;
        }
        out.push_str(&format!("  {:<30} {}\n", name, keys.keys().join(" ")));
    }
}

/// Renders the `pscds-trace critical-path` view.
#[must_use]
pub fn render_critical_path(report: &ObsReport) -> String {
    let mut out = String::new();
    let path = critical_path(&report.spans);
    if path.is_empty() {
        out.push_str("  (no spans recorded)\n");
        return out;
    }
    for (depth, span) in path.iter().enumerate() {
        out.push_str(&format!(
            "  {:indent$}{} self={} total={}\n",
            "",
            span.name,
            span.self_steps,
            span.total_steps(),
            indent = depth * 2
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStack;

    fn sample_report() -> ObsReport {
        let mut stack = SpanStack::new();
        stack.open(names::SPAN_DP_RUN, 0);
        for level in 0..2u64 {
            stack.open(names::SPAN_DP_LEVEL, level);
            stack.charge(10 + level);
            stack.close(level + 1);
        }
        stack.charge(3);
        stack.close(9);
        let mut metrics = MetricSet::new();
        metrics.counter_add(names::BUDGET_TICKS, 24);
        metrics.histogram_record(names::DP_LEVEL_STEPS, 10);
        metrics.histogram_record(names::DP_LEVEL_STEPS, 11);
        metrics.exemplar_offer(names::DP_FALLBACK_NODES, "r2/0b01");
        metrics.exemplar_offer(names::DP_FALLBACK_NODES, "r1/0b10");
        ObsReport {
            metrics,
            spans: stack.finish(),
            events: Vec::new(),
        }
    }

    #[test]
    fn phase_table_aggregates_self_and_total() {
        let report = sample_report();
        let rows = phase_table(&report.spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, names::SPAN_DP_LEVEL);
        assert_eq!((rows[0].count, rows[0].self_steps), (2, 21));
        assert_eq!(rows[1].name, names::SPAN_DP_RUN);
        assert_eq!((rows[1].self_steps, rows[1].total_steps), (3, 24));
    }

    #[test]
    fn critical_path_descends_into_the_heaviest_child() {
        let report = sample_report();
        let path = critical_path(&report.spans);
        let chain: Vec<_> = path.iter().map(|s| s.name).collect();
        assert_eq!(chain, [names::SPAN_DP_RUN, names::SPAN_DP_LEVEL]);
        // The heavier level (11 self-steps) wins.
        assert_eq!(path[1].self_steps, 11);
    }

    #[test]
    fn summary_is_steps_only_and_checks_attribution() {
        let report = sample_report();
        let text = render_summary(&report);
        assert!(text.contains("dp.level"));
        assert!(text.contains("attributed steps: 24 (span self-steps) == 24 (budget.ticks)"));
        assert!(text.contains("dp.level_steps"));
        assert!(!text.contains("_ns"), "summaries never print timings");
        #[cfg(feature = "exemplars")]
        assert!(text.contains("r1/0b10 r2/0b01"));
    }

    #[test]
    fn empty_report_renders_placeholders() {
        let report = ObsReport::default();
        assert!(render_summary(&report).contains("(no spans recorded)"));
        assert!(render_critical_path(&report).contains("(no spans recorded)"));
    }
}
