//! Metric values, the end-to-end metric table with its regression
//! bounds, the result line the benchmark prints, and `agree`.

use crate::stats;
use pscds_bench::schema::{parse_json, Json};
use pscds_bench::{markdown_table, Cell};
use std::fmt::Write as _;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// For a ratio, its numerator and denominator (`43680/97955`).
    pub base: Option<String>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            n,
            base: None,
        }
    }
}

/// An end-to-end metric: what a user of `pscds` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// The end-to-end metrics of one run, in `END_TO_END` order, plus notes
/// on the latency tail for the report. The run repeats whole cycles of
/// `cycle` operations; `latencies_ms` and `cpu_ms` hold one sample per
/// operation, in order.
pub fn end_to_end(
    latencies_ms: &[f64],
    cpu_ms: &[f64],
    cycle: usize,
    max_rss_kib: u64,
    setup_s: &[f64],
) -> (Vec<Metric>, String) {
    let n = latencies_ms.len();
    let cycles = n / cycle.max(1);
    let best = stats::best_per_position(latencies_ms, cycle);
    let pct = |p| stats::percentile(&best, p).unwrap_or(0.0);
    let fastest_cycle_ms = stats::best_cycle_total(latencies_ms, cycle);
    let values = [
        (pct(0.5), n),
        (pct(0.9), n),
        (cycle as f64 * 1e3 / fastest_cycle_ms, cycles),
        (
            stats::best_cycle_total(cpu_ms, cycle) / cycle as f64,
            cycles,
        ),
        (max_rss_kib as f64 / 1024.0, 1),
        (stats::median(setup_s).unwrap_or(0.0), setup_s.len()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, n))| Metric::new(m.name, value, m.unit, n))
        .collect();
    let mut notes = format!("{cycles} cycles of {cycle} operations\n");
    if stats::tail_ok(n, 0.99) {
        let p99 = stats::percentile(latencies_ms, 0.99).unwrap_or(0.0);
        notes.push_str(&format!(
            "latency_p99_ms over every repetition {p99:.6} (n = {n})\n"
        ));
    }
    (metrics, notes)
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Diagnostics printed above the result line (tables, failures).
    pub report: String,
}

impl Outcome {
    /// The human-readable table plus, as the last line, the JSON result:
    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn render(&self, workload: &str) -> String {
        let rows: Vec<Vec<Cell>> = self
            .metrics
            .iter()
            .map(|m| {
                vec![
                    Cell::from(m.name),
                    Cell::from(format!("{:.6}", m.value)),
                    Cell::from(m.unit),
                    Cell::from(m.n),
                    Cell::from(m.base.clone().unwrap_or_default()),
                ]
            })
            .collect();
        let mut out = self.report.clone();
        let _ = writeln!(
            out,
            "{workload}: {} ops attempted, {} failed (failed_frac {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let _ = writeln!(
            out,
            "{}",
            markdown_table(&["metric", "value", "unit", "n", "base"], &rows)
        );
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        out
    }
}

/// Reads the end-to-end values of one workload out of a result line.
fn values(result: &Json) -> Vec<(String, f64)> {
    match result.field("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| match m.field("value") {
                Some(Json::Num(raw)) => raw.parse().ok().map(|v| (name.clone(), v)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `agree A B`: for every workload in both `run` result files and every
/// end-to-end metric, whether B's value is within the metric's bound of
/// A's. One row per workload; `Ok(false)` on any disagreement.
pub fn agree(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = parse_json(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b_text).map_err(|e| format!("second file: {e}"))?;
    let (Some(Json::Obj(a_runs)), Some(b_runs)) = (a.field("workloads"), b.field("workloads"))
    else {
        return Err("expected `run` result files with a \"workloads\" object".into());
    };
    let mut rows = Vec::new();
    let mut all_agree = true;
    for (workload, a_result) in a_runs {
        let Some(b_result) = b_runs.field(workload) else {
            continue;
        };
        let (a_vals, b_vals) = (values(a_result), values(b_result));
        let mut cells = Vec::new();
        let mut agree = true;
        for metric in &END_TO_END {
            let get =
                |vals: &[(String, f64)]| vals.iter().find(|(n, _)| n == metric.name).map(|v| v.1);
            let (Some(x), Some(y)) = (get(&a_vals), get(&b_vals)) else {
                agree = false;
                cells.push(format!("{} missing", metric.name));
                continue;
            };
            let change = (y - x) / x.abs().max(f64::MIN_POSITIVE);
            let ok = change.abs() <= metric.bound;
            agree &= ok;
            let worse = (change > 0.0) == (metric.better == "lower");
            let verdict = match (ok, worse) {
                (true, _) => "",
                (false, true) => " worse (!)",
                (false, false) => " better (!)",
            };
            cells.push(format!("{} {:+.1}%{verdict}", metric.name, change * 100.0));
        }
        all_agree &= agree;
        rows.push(vec![
            Cell::from(workload.as_str()),
            Cell::from(if agree { "agree" } else { "DISAGREE" }),
            Cell::from(cells.join(", ")),
        ]);
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    let table = markdown_table(&["workload", "verdict", "B vs A (bound)"], &rows);
    Ok((table, all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(p50: f64) -> String {
        format!(
            "{{\"workloads\": {{\"w\": {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}}}}}",
            END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "latency_p50_ms" { p50 } else { 1.0 };
                    format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
                })
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    #[test]
    fn agree_applies_each_metrics_bound() {
        let (table, ok) = agree(&run_file(10.0), &run_file(10.5)).unwrap();
        assert!(ok, "{table}");
        let (table, ok) = agree(&run_file(10.0), &run_file(13.0)).unwrap();
        assert!(!ok, "{table}");
        assert!(table.contains("DISAGREE") && table.contains("latency_p50_ms +30.0% worse (!)"));
        let (table, ok) = agree(&run_file(10.0), &run_file(7.0)).unwrap();
        assert!(
            !ok && table.contains("latency_p50_ms -30.0% better (!)"),
            "{table}"
        );
        assert!(agree("{}", &run_file(1.0)).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_command_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let entries = |key: &str| match json.field(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text =
            |entry: &Json, key: &str| entry.field(key).and_then(Json::as_str).unwrap().to_owned();
        let end_to_end = entries("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            assert_eq!(text(entry, "better"), metric.better);
            let Some(Json::Num(bound)) = entry.field("bound") else {
                panic!("{} has no bound", metric.name)
            };
            assert_eq!(bound.parse::<f64>().unwrap(), metric.bound);
        }
        let per_layer = entries("per_layer");
        assert_eq!(per_layer.len(), crate::trace::LAYER_METRICS.len());
        for (entry, (name, unit)) in per_layer.iter().zip(crate::trace::LAYER_METRICS) {
            assert_eq!(
                (text(entry, "name"), text(entry, "unit")),
                (name.to_owned(), unit.to_owned())
            );
        }
        let names: Vec<String> = entries("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let known: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, known);
    }

    #[test]
    fn end_to_end_reads_each_operations_best_and_the_best_cycle() {
        // Two cycles of three operations; the second cycle is slowed but
        // uses less CPU.
        let latencies = [1.0, 2.0, 12.0, 2.0, 4.0, 14.0];
        let cpu = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5];
        let (metrics, notes) = end_to_end(&latencies, &cpu, 3, 2048, &[0.3, 0.1, 0.2]);
        let got: Vec<(&str, f64, usize)> = metrics.iter().map(|m| (m.name, m.value, m.n)).collect();
        assert_eq!(
            got,
            vec![
                ("latency_p50_ms", 2.0, 6),
                ("latency_p90_ms", 10.0, 6),
                ("throughput_ops_s", 200.0, 2),
                ("cpu_ms_per_op", 0.5, 2),
                ("peak_rss_mb", 2.0, 1),
                ("setup_s", 0.2, 3),
            ]
        );
        assert_eq!(notes, "2 cycles of 3 operations\n");
    }

    #[test]
    fn result_line_is_the_documented_json() {
        let outcome = Outcome {
            attempted: 4,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s", 5)],
            report: String::new(),
        };
        let text = outcome.render("w");
        let last = text.lines().last().unwrap();
        let json = parse_json(last).unwrap();
        assert_eq!(json.field("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.field("attempted").and_then(Json::as_u64), Some(4));
        assert_eq!(values(&json), vec![("setup_s".to_owned(), 0.25)]);
    }
}
