//! The traced run: spans recorded around each call into a layer's public
//! function, kept in memory and written at the end as JSON lines, and the
//! per-layer metrics derived from them.
//!
//! A span is `{op, workload, name, parent, start_ns, end_ns, steps,
//! counts}`. Spans of one operation share `op`; `parent` indexes the
//! op's own spans in recording order (its root is 0, with `parent:
//! null`). Roots are named `op` for timed operations and `setup` for
//! set-up work. Self time is a span's duration minus the part of it its
//! child spans cover.

use crate::metrics::Metric;
use crate::stats::best_per_position;
use pscds_bench::schema::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub op: u64,
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `Budget::steps()` of the timed call (0 where the layer does not
    /// count steps).
    pub steps: u64,
    /// Work counts measured at the same boundary (cache hits, classes…).
    pub counts: Vec<(String, u64)>,
}

impl SpanRec {
    fn count(&self, key: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled tracer runs the same code with
/// every call a no-op, so traced and untraced operations share one path.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the open spans, outermost first.
    open: Vec<usize>,
    op_base: usize,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            op_base: 0,
            next_op: 0,
        }
    }

    /// Turns recording on or off for the next root span.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an op");
        self.enabled = enabled;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; with no span open it starts a new operation.
    pub fn open(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let parent = match self.open.last() {
            Some(&i) => Some(i - self.op_base),
            None => {
                self.op_base = self.spans.len();
                self.next_op += 1;
                None
            }
        };
        self.open.push(self.spans.len());
        self.spans.push(SpanRec {
            op: self.next_op - 1,
            name: name.to_owned(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
            steps: 0,
            counts: Vec::new(),
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Sets the steps of the most recently opened span.
    pub fn steps(&mut self, steps: u64) {
        if let Some(span) = self.spans.last_mut().filter(|_| self.enabled) {
            span.steps = steps;
        }
    }

    /// Adds a count to the most recently opened span.
    pub fn count(&mut self, key: &str, value: u64) {
        if let Some(span) = self.spans.last_mut().filter(|_| self.enabled) {
            span.counts.push((key.to_owned(), value));
        }
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Whether operation `op` of a traced run is traced: every other one,
/// with the parity flipped each cycle of `cycle_len` operations, so every
/// position of the cycle is traced in every other cycle and the untraced
/// half runs the same mix.
pub fn traced_op(op: usize, cycle_len: usize) -> bool {
    let cycle_len = cycle_len.max(1);
    (op % cycle_len + op / cycle_len) % 2 == 1
}

/// Renders spans as JSON lines tagged with `workload`.
pub fn render_jsonl(workload: &str, spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"op\":{},\"workload\":\"{workload}\",\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"steps\":{},\"counts\":{{{}}}}}",
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            s.steps,
            counts.join(",")
        );
    }
    out
}

/// Parses [`render_jsonl`] output back.
pub fn parse_jsonl(text: &str) -> Result<Vec<SpanRec>, String> {
    let mut spans: Vec<SpanRec> = Vec::new();
    // Index of the current operation's root in `spans`.
    let mut root = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("trace line {}: {what}", n + 1);
        let json = parse_json(line).map_err(|e| bad(&e))?;
        let num = |key: &str| {
            json.field(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(key))
        };
        let parent = match json.field("parent") {
            Some(Json::Null) => {
                root = spans.len();
                None
            }
            Some(v) => match v.as_u64() {
                Some(p) if (p as usize) < spans.len() - root => Some(p as usize),
                _ => return Err(bad("parent is not an earlier span of the op")),
            },
            None => return Err(bad("parent")),
        };
        let counts = match json.field("counts") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)).ok_or_else(|| bad(k)))
                .collect::<Result<_, _>>()?,
            _ => return Err(bad("counts")),
        };
        spans.push(SpanRec {
            op: num("op")?,
            name: json
                .field("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("name"))?
                .to_owned(),
            parent,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            steps: num("steps")?,
            counts,
        });
    }
    Ok(spans)
}

/// Self time of every span of one operation (`spans[0]` is its root).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the span.
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Splits a span list into operations (each op's spans are contiguous).
fn ops(spans: &[SpanRec]) -> Vec<&[SpanRec]> {
    spans
        .chunk_by(|a, b| a.op == b.op)
        .filter(|op| op.first().is_some_and(|s| s.parent.is_none()))
        .collect()
}

/// The per-layer metrics, with units, as `BENCHMARK.json` lists them.
/// Each is named after the module whose public call its spans time; a
/// layer the workload never calls reads 0.
pub const LAYER_METRICS: [(&str, &str); 35] = [
    ("textfmt.parse_ms", "ms"),
    ("collection.as_identity_ms", "ms"),
    ("signature.build_ms", "ms"),
    ("signature.classes", "count"),
    ("query.table_ms", "ms"),
    ("query.tuple_us", "us"),
    ("cli.wall_ms", "ms"),
    ("cli.outside_ms", "ms"),
    ("counting.dfs_ms", "ms"),
    ("counting.dfs_steps", "count"),
    ("counting.ns_per_step", "ns"),
    ("resilient.wasted_ms", "ms"),
    ("resilient.useful_frac", "ratio"),
    ("resilient.degraded_ops", "count"),
    ("dp.count_ms", "ms"),
    ("dp.steps", "count"),
    ("dp.ns_per_step", "ns"),
    ("dp.hit_ratio", "ratio"),
    ("dp.peak_entries", "count"),
    ("dp.fallback_nodes", "count"),
    ("circuit.compile_ms", "ms"),
    ("circuit.nodes", "count"),
    ("circuit.lookup_us", "us"),
    ("circuit.cache_hit_ratio", "ratio"),
    ("circuit.point_ms", "ms"),
    ("circuit.conditional_ms", "ms"),
    ("circuit.topk_ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("delta.analyze_ms", "ms"),
    ("delta.reuse_frac", "ratio"),
    ("delta.nodes_patched", "count"),
    ("delta.recompiles", "count"),
    ("delta.states_invalidated", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Every recorded span with its self time, grouped by layer name.
struct Layers<'a> {
    by_name: BTreeMap<&'a str, Vec<(&'a SpanRec, u64)>>,
}

impl<'a> Layers<'a> {
    fn new(ops: &[&'a [SpanRec]]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<(&SpanRec, u64)>> = BTreeMap::new();
        for op in ops {
            for (span, own) in op.iter().zip(self_times(op)) {
                by_name.entry(&span.name).or_default().push((span, own));
            }
        }
        Layers { by_name }
    }

    fn calls(&self, name: &str) -> &[(&'a SpanRec, u64)] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Mean self time per call, in units of `unit_ns` nanoseconds.
    fn time(&self, name: &'static str, layer: &str, unit_ns: f64) -> Metric {
        let v: Vec<f64> = self
            .calls(layer)
            .iter()
            .map(|&(_, t)| t as f64 / unit_ns)
            .collect();
        per_call(name, &v)
    }

    /// Mean per call of a count (`"steps"` reads the span's steps).
    fn count(&self, name: &'static str, layer: &str, key: &str) -> Metric {
        let v: Vec<f64> = self
            .calls(layer)
            .iter()
            .filter_map(|(s, _)| {
                if key == "steps" {
                    Some(s.steps)
                } else {
                    s.count(key)
                }
            })
            .map(|c| c as f64)
            .collect();
        per_call(name, &v)
    }

    fn sum(&self, layer: &str, key: &str) -> u64 {
        self.calls(layer)
            .iter()
            .filter_map(|(s, _)| s.count(key))
            .sum()
    }

    /// Self nanoseconds per step, summed over the layer's calls.
    fn ns_per_step(&self, name: &'static str, layer: &str) -> Metric {
        let calls = self.calls(layer);
        let ns = calls.iter().map(|&(_, t)| t).sum();
        let steps = calls.iter().map(|(s, _)| s.steps).sum();
        ratio(name, ns, steps, calls.len())
    }
}

/// The mean of per-call values (0 without calls).
fn per_call(name: &'static str, values: &[f64]) -> Metric {
    let mean = if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    };
    Metric::new(name, mean, "", values.len())
}

/// `num / den` with its base (0 over an empty base), from `n` samples.
fn ratio(name: &'static str, num: u64, den: u64, n: usize) -> Metric {
    let value = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    Metric {
        base: Some(format!("{num}/{den}")),
        ..Metric::new(name, value, "", n)
    }
}

/// The cost of tracing in a traced run that repeats whole cycles of
/// `cycle` operations, `latencies_ms[i]` traced iff `traced[i]`: the
/// summed fastest traced repetition of each cycle position over the same
/// sum for untraced repetitions, minus 1, over the positions that have
/// both. Returns the ratio and the positions compared.
pub fn overhead(latencies_ms: &[f64], traced: &[bool], cycle: usize) -> (f64, usize) {
    let best = |want: bool| {
        let only: Vec<f64> = latencies_ms
            .iter()
            .zip(traced)
            .map(|(&ms, &t)| if t == want { ms } else { f64::INFINITY })
            .collect();
        best_per_position(&only, cycle)
    };
    let pairs: Vec<(f64, f64)> = best(true)
        .into_iter()
        .zip(best(false))
        .filter(|(t, u)| t.is_finite() && u.is_finite())
        .collect();
    let (t, u) = pairs
        .iter()
        .fold((0.0, 0.0), |(t, u), &(a, b)| (t + a, u + b));
    let ratio = if u > 0.0 { t / u - 1.0 } else { 0.0 };
    (ratio, pairs.len())
}

/// Derives every [`LAYER_METRICS`] entry from a traced run's spans: per
/// call means of self time and counts, and ratios with their bases.
/// `overhead` is the run's [`overhead`].
pub fn layer_metrics(spans: &[SpanRec], overhead: (f64, usize)) -> Vec<Metric> {
    let all = ops(spans);
    let layers = Layers::new(&all);
    let timed: Vec<&[SpanRec]> = all.into_iter().filter(|op| op[0].name == "op").collect();
    // The ladder: a tripped DFS rung is wasted work, the rung that
    // answered is useful work.
    let dfs = layers.calls("counting.dfs");
    let wasted: Vec<u64> = dfs
        .iter()
        .filter(|(s, _)| s.count("tripped") == Some(1))
        .map(|&(_, t)| t)
        .collect();
    let rung_ns: u64 = ["counting.dfs", "dp.count"]
        .iter()
        .flat_map(|layer| layers.calls(layer))
        .map(|&(_, t)| t)
        .sum();
    let useful_ns = rung_ns - wasted.iter().sum::<u64>();
    let wasted_ms: Vec<f64> = wasted.iter().map(|&t| t as f64 / 1e6).collect();
    let per_tuple_us: Vec<f64> = ["query.table", "query.tuple"]
        .iter()
        .flat_map(|layer| layers.calls(layer))
        .filter_map(|&(s, t)| Some(t as f64 / 1e3 / s.count("tuples").filter(|&n| n > 0)? as f64))
        .collect();
    // The child's wall minus the same op's in-process layers: process
    // start, file read, sorting, rendering and pipes.
    let outside_ms: Vec<f64> = timed
        .iter()
        .filter_map(|op| {
            let wall = op.iter().find(|s| s.name == "cli.wall")?.duration_ns();
            let inside: u64 = op[1..]
                .iter()
                .filter(|s| s.name != "cli.wall" && s.parent == Some(0))
                .map(SpanRec::duration_ns)
                .sum();
            Some((wall as f64 - inside as f64) / 1e6)
        })
        .collect();
    let epochs = layers
        .calls("delta.analyze")
        .iter()
        .filter(|(s, _)| s.count("reused").is_some())
        .count();
    // Maintenance counters per 96-epoch stream.
    let per_stream = |name, key| {
        let total = layers.sum("delta.analyze", key) * crate::gen::BATCHES as u64;
        ratio(name, total, epochs as u64, epochs)
    };
    let dp_calls = layers.calls("dp.count").len();
    let dp_hits = layers.sum("dp.count", "hits");
    let dp_lookups = dp_hits + layers.sum("dp.count", "misses");
    let lookups = layers.calls("circuit.lookup").len() + layers.calls("circuit.compile").len();
    let mut out = vec![
        layers.time("textfmt.parse_ms", "textfmt.parse", 1e6),
        layers.time("collection.as_identity_ms", "collection.as_identity", 1e6),
        layers.time("signature.build_ms", "signature.build", 1e6),
        layers.count("signature.classes", "signature.build", "classes"),
        layers.time("query.table_ms", "query.table", 1e6),
        per_call("query.tuple_us", &per_tuple_us),
        layers.time("cli.wall_ms", "cli.wall", 1e6),
        per_call("cli.outside_ms", &outside_ms),
        layers.time("counting.dfs_ms", "counting.dfs", 1e6),
        layers.count("counting.dfs_steps", "counting.dfs", "steps"),
        layers.ns_per_step("counting.ns_per_step", "counting.dfs"),
        per_call("resilient.wasted_ms", &wasted_ms),
        ratio("resilient.useful_frac", useful_ns, rung_ns, dfs.len()),
        Metric {
            value: wasted.len() as f64,
            ..ratio(
                "resilient.degraded_ops",
                wasted.len() as u64,
                dfs.len() as u64,
                dfs.len(),
            )
        },
        layers.time("dp.count_ms", "dp.count", 1e6),
        layers.count("dp.steps", "dp.count", "steps"),
        layers.ns_per_step("dp.ns_per_step", "dp.count"),
        ratio("dp.hit_ratio", dp_hits, dp_lookups, dp_calls),
        layers.count("dp.peak_entries", "dp.count", "peak_entries"),
        layers.count("dp.fallback_nodes", "dp.count", "fallback_nodes"),
        layers.time("circuit.compile_ms", "circuit.compile", 1e6),
        layers.count("circuit.nodes", "circuit.compile", "nodes"),
        layers.time("circuit.lookup_us", "circuit.lookup", 1e3),
        ratio(
            "circuit.cache_hit_ratio",
            layers.sum("circuit.lookup", "hit"),
            lookups as u64,
            lookups,
        ),
        layers.time("circuit.point_ms", "circuit.point", 1e6),
        layers.time("circuit.conditional_ms", "circuit.conditional", 1e6),
        layers.time("circuit.topk_ms", "circuit.topk", 1e6),
        layers.time("delta.apply_ms", "delta.apply", 1e6),
        layers.time("delta.analyze_ms", "delta.analyze", 1e6),
        ratio(
            "delta.reuse_frac",
            layers.sum("delta.analyze", "reused"),
            epochs as u64,
            epochs,
        ),
        per_stream("delta.nodes_patched", "patched"),
        per_stream("delta.recompiles", "recompiles"),
        per_stream("delta.states_invalidated", "invalidated"),
        Metric::new("trace.overhead_frac", overhead.0, "", overhead.1),
        ratio(
            "trace.unattributed_frac",
            timed.iter().map(|op| self_times(op)[0]).sum(),
            timed.iter().map(|op| op[0].duration_ns()).sum(),
            timed.len(),
        ),
    ];
    for (metric, (name, unit)) in out.iter_mut().zip(LAYER_METRICS) {
        assert_eq!(metric.name, name, "LAYER_METRICS order");
        metric.unit = unit;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &str, parent: Option<usize>, start: u64, end: u64) -> SpanRec {
        SpanRec {
            op,
            name: name.into(),
            parent,
            start_ns: start,
            end_ns: end,
            steps: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) with children [10,40) and [30,60) (overlapping:
        // covered 50) and [70,80); the first child has a grandchild.
        let spans = vec![
            span(0, "op", None, 0, 100),
            span(0, "a", Some(0), 10, 40),
            span(0, "a.inner", Some(1), 15, 25),
            span(0, "b", Some(0), 30, 60),
            span(0, "c", Some(0), 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 10]);
    }

    #[test]
    fn overhead_compares_each_positions_best_traced_and_untraced_runs() {
        // Cycles of two operations, traced as `traced_op` picks them; the
        // third cycle's untraced op 1 is slowed and does not count.
        let ms = [10.0, 22.0, 11.0, 20.0, 12.0, 99.0];
        let traced: Vec<bool> = (0..6).map(|op| traced_op(op, 2)).collect();
        assert_eq!(traced, [false, true, true, false, false, true]);
        assert_eq!(overhead(&ms, &traced, 2), (33.0 / 30.0 - 1.0, 2));
        // One cycle: no position has both kinds.
        assert_eq!(overhead(&ms[..2], &traced[..2], 2), (0.0, 0));
    }

    #[test]
    fn every_cycle_position_is_traced_every_other_cycle() {
        for len in [1, 8, 13] {
            for pos in 0..len {
                let traced: Vec<bool> = (0..4)
                    .map(|cycle| traced_op(cycle * len + pos, len))
                    .collect();
                assert_eq!(
                    traced,
                    [pos % 2 == 1, pos % 2 == 0, pos % 2 == 1, pos % 2 == 0]
                );
            }
        }
    }

    #[test]
    fn tracer_records_nested_spans_and_skips_disabled_ops() {
        let mut tr = Tracer::new(true);
        tr.open("op");
        let x = tr.span("layer", || 7);
        tr.steps(11);
        tr.count("hits", 3);
        tr.close();
        tr.set_enabled(false);
        tr.open("op");
        tr.span("layer", || ());
        tr.close();
        tr.set_enabled(true);
        tr.open("setup");
        tr.close();
        let spans = tr.into_spans();
        assert_eq!(x, 7);
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].op, spans[0].parent), (0, None));
        assert_eq!(
            (spans[1].op, spans[1].parent, spans[1].steps),
            (0, Some(0), 11)
        );
        assert_eq!(spans[1].counts, vec![("hits".to_owned(), 3)]);
        assert_eq!((spans[2].op, spans[2].name.as_str()), (1, "setup"));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(parse_jsonl(&render_jsonl("w", &spans)).unwrap(), spans);
        let orphan = render_jsonl("w", &spans[1..2]);
        assert!(parse_jsonl(&orphan).unwrap_err().contains("parent"));
    }

    #[test]
    fn layer_metrics_cover_every_declared_metric() {
        let mut dfs = span(0, "counting.dfs", Some(0), 10, 50);
        dfs.steps = 20;
        dfs.counts.push(("tripped".into(), 1));
        let mut dp = span(0, "dp.count", Some(0), 50, 90);
        dp.counts = vec![("hits".into(), 1), ("misses".into(), 3)];
        let spans = vec![span(0, "op", None, 0, 100), dfs, dp];
        let metrics = layer_metrics(&spans, (0.5, 1));
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap();
        assert_eq!(get("counting.ns_per_step").value, 2.0);
        assert_eq!(get("resilient.degraded_ops").value, 1.0);
        assert_eq!(get("resilient.useful_frac").value, 0.5);
        assert_eq!(get("dp.hit_ratio").value, 0.25);
        assert_eq!(get("dp.hit_ratio").base.as_deref(), Some("1/4"));
        assert_eq!(get("trace.unattributed_frac").value, 0.2);
        assert_eq!(get("trace.overhead_frac").value, 0.5);
        assert_eq!(get("circuit.compile_ms").value, 0.0);
    }
}
