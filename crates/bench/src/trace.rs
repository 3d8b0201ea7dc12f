//! `--trace-out` JSONL parsing and diffing — the reader half of the
//! step-attribution profiler, shared by the `pscds-trace` binary and
//! `bench_validate`.
//!
//! A trace file round-trips back into an [`ObsReport`]: every name is
//! validated against the `pscds_obs::names` registry on the way in (via
//! the registry-checked `MetricSet::ingest_*` entry points and the
//! `lookup_*` functions), so a trace written by a schema-drifted binary
//! is rejected with a line-numbered error instead of silently producing
//! a wrong profile. Files must start with the `{"pscds_trace":1}` header
//! line; headerless files are reported as legacy traces.

use crate::schema::{parse_json, Json};
use pscds_core::obs::{names, ObsReport, Span, StepHistogram, TRACE_VERSION};
use std::collections::BTreeMap;
use std::fmt;

/// A trace-file parse failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The first line is not the `{"pscds_trace":1}` schema header.
    MissingHeader {
        /// What the first line was instead (empty for an empty file).
        found: String,
    },
    /// The header names a schema version this reader does not speak.
    VersionMismatch {
        /// The version the file declared.
        version: u64,
    },
    /// A record line failed to parse or validate.
    Line {
        /// 1-based line number in the trace file.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MissingHeader { found } => write!(
                f,
                "missing {{\"pscds_trace\":{TRACE_VERSION}}} header on line 1 \
                 (got {found:?}): this looks like a legacy trace written before \
                 the schema header existed — re-record it with a current binary"
            ),
            TraceError::VersionMismatch { version } => write!(
                f,
                "trace schema version {version} is not supported (this reader \
                 speaks version {TRACE_VERSION})"
            ),
            TraceError::Line { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

/// Interns a span/event attribute key. Attribute keys in [`Span`] and
/// event records are `&'static str`; trace files carry a small closed
/// set of them ("engine", "level", "phase", …), so leaking each distinct
/// key once is bounded and keeps the parsed report type-identical to a
/// live session's.
fn intern(keys: &mut BTreeMap<String, &'static str>, key: &str) -> &'static str {
    if let Some(&interned) = keys.get(key) {
        return interned;
    }
    let leaked: &'static str = Box::leak(key.to_owned().into_boxed_str());
    keys.insert(key.to_owned(), leaked);
    leaked
}

/// Parses a whole trace file back into an [`ObsReport`].
///
/// Blank lines are ignored; the first non-blank line must be the schema
/// header. A file may concatenate several sessions (the experiment
/// binaries append one session per scale to a single `--trace-out`
/// handle): each later header line starts a new segment whose records
/// merge into the same report — counters add, histograms fold, spans
/// and events append. Every record name is validated against the
/// registry.
///
/// # Errors
/// [`TraceError`] with the offending line number; [`TraceError::MissingHeader`]
/// for legacy (headerless) files.
pub fn parse_trace(text: &str) -> Result<ObsReport, TraceError> {
    let mut report = ObsReport::default();
    let mut keys: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut saw_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let value = match parse_json(line) {
            Ok(value) => value,
            Err(_) if !saw_header => {
                return Err(TraceError::MissingHeader { found: clip(line) });
            }
            Err(e) => {
                return Err(TraceError::Line {
                    line: line_no,
                    message: e,
                });
            }
        };
        if let Some(version) = value.field("pscds_trace").and_then(Json::as_u64) {
            if version != TRACE_VERSION {
                return Err(TraceError::VersionMismatch { version });
            }
            saw_header = true;
            continue;
        }
        if !saw_header {
            return Err(TraceError::MissingHeader { found: clip(line) });
        }
        ingest_record(&mut report, &mut keys, &value).map_err(|message| TraceError::Line {
            line: line_no,
            message,
        })?;
    }
    if !saw_header {
        return Err(TraceError::MissingHeader {
            found: String::new(),
        });
    }
    Ok(report)
}

/// First ~60 chars of a line, for error messages.
fn clip(line: &str) -> String {
    let mut s: String = line.chars().take(60).collect();
    if s.len() < line.len() {
        s.push('…');
    }
    s
}

fn ingest_record(
    report: &mut ObsReport,
    keys: &mut BTreeMap<String, &'static str>,
    value: &Json,
) -> Result<(), String> {
    let kind = value
        .field("type")
        .and_then(Json::as_str)
        .ok_or_else(|| "record has no \"type\" field".to_owned())?;
    match kind {
        "span" => {
            let span = parse_span(keys, value)?;
            report.spans.push(span);
            Ok(())
        }
        "counter" => {
            let (name, v) = name_and_value(value)?;
            if report.metrics.ingest_counter(name, v) {
                Ok(())
            } else {
                Err(format!("unregistered counter name {name:?}"))
            }
        }
        "gauge" => {
            let (name, v) = name_and_value(value)?;
            if report.metrics.ingest_gauge(name, v) {
                Ok(())
            } else {
                Err(format!("unregistered gauge name {name:?}"))
            }
        }
        "histogram" => {
            let name = record_name(value)?;
            let hist = parse_histogram(value)?;
            if report.metrics.ingest_histogram(name, hist) {
                Ok(())
            } else {
                Err(format!("unregistered histogram name {name:?}"))
            }
        }
        "exemplar" => {
            let name = record_name(value)?;
            let Some(Json::Arr(items)) = value.field("keys") else {
                return Err("exemplar record has no \"keys\" array".to_owned());
            };
            let mut parsed = Vec::with_capacity(items.len());
            for item in items {
                parsed.push(
                    item.as_str()
                        .ok_or_else(|| "exemplar keys must be strings".to_owned())?,
                );
            }
            if report.metrics.ingest_exemplars(name, parsed) {
                Ok(())
            } else {
                Err(format!("unregistered exemplar counter name {name:?}"))
            }
        }
        "event" => {
            let name = record_name(value)?;
            let name = names::lookup_event(name)
                .ok_or_else(|| format!("unregistered event name {name:?}"))?;
            let at_ns = value
                .field("at_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| "event record has no numeric \"at_ns\"".to_owned())?;
            let attrs = parse_attrs(keys, value)?;
            report
                .events
                .push(pscds_core::obs::Event { name, at_ns, attrs });
            Ok(())
        }
        other => Err(format!("unknown record type {other:?}")),
    }
}

fn record_name(value: &Json) -> Result<&str, String> {
    value
        .field("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "record has no string \"name\"".to_owned())
}

fn name_and_value(value: &Json) -> Result<(&str, u64), String> {
    let name = record_name(value)?;
    let v = value
        .field("value")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("record {name:?} has no numeric \"value\""))?;
    Ok((name, v))
}

fn parse_histogram(value: &Json) -> Result<StepHistogram, String> {
    let declared_count = value
        .field("count")
        .and_then(Json::as_u64)
        .ok_or_else(|| "histogram record has no numeric \"count\"".to_owned())?;
    let sum = value
        .field("sum")
        .and_then(Json::as_u64)
        .ok_or_else(|| "histogram record has no numeric \"sum\"".to_owned())?;
    let Some(Json::Arr(buckets)) = value.field("buckets") else {
        return Err("histogram record has no \"buckets\" array".to_owned());
    };
    let mut hist = StepHistogram::new();
    for bucket in buckets {
        let Json::Arr(pair) = bucket else {
            return Err("histogram buckets must be [index, count] pairs".to_owned());
        };
        let (Some(index), Some(count)) = (
            pair.first().and_then(Json::as_u64),
            pair.get(1).and_then(Json::as_u64),
        ) else {
            return Err("histogram buckets must be [index, count] pairs".to_owned());
        };
        let index = usize::try_from(index)
            .ok()
            .filter(|&i| i < pscds_core::obs::HISTOGRAM_BUCKETS)
            .ok_or_else(|| format!("histogram bucket index {index} out of range"))?;
        hist.set_bucket(index, count);
    }
    hist.set_sum(sum);
    if hist.count() != declared_count {
        return Err(format!(
            "histogram declares count={declared_count} but its buckets sum to {}",
            hist.count()
        ));
    }
    Ok(hist)
}

fn parse_attrs(
    keys: &mut BTreeMap<String, &'static str>,
    value: &Json,
) -> Result<Vec<(&'static str, String)>, String> {
    let Some(Json::Obj(fields)) = value.field("attrs") else {
        return Err("record has no \"attrs\" object".to_owned());
    };
    let mut attrs = Vec::with_capacity(fields.len());
    for (k, v) in fields {
        let v = v
            .as_str()
            .ok_or_else(|| format!("attr {k:?} must be a string"))?;
        attrs.push((intern(keys, k), v.to_owned()));
    }
    Ok(attrs)
}

fn parse_span(keys: &mut BTreeMap<String, &'static str>, value: &Json) -> Result<Span, String> {
    let kind = value.field("type").and_then(Json::as_str);
    if kind != Some("span") {
        return Err("span children must be span records".to_owned());
    }
    let name = record_name(value)?;
    let name =
        names::lookup_span(name).ok_or_else(|| format!("unregistered span name {name:?}"))?;
    let start_ns = value
        .field("start_ns")
        .and_then(Json::as_u64)
        .ok_or_else(|| "span record has no numeric \"start_ns\"".to_owned())?;
    let end_ns = value
        .field("end_ns")
        .and_then(Json::as_u64)
        .ok_or_else(|| "span record has no numeric \"end_ns\"".to_owned())?;
    let mut span = Span::new(name, start_ns, end_ns);
    span.self_steps = value
        .field("self_steps")
        .and_then(Json::as_u64)
        .ok_or_else(|| "span record has no numeric \"self_steps\"".to_owned())?;
    span.attrs = parse_attrs(keys, value)?;
    let Some(Json::Arr(children)) = value.field("children") else {
        return Err("span record has no \"children\" array".to_owned());
    };
    for child in children {
        span.children.push(parse_span(keys, child)?);
    }
    Ok(span)
}

/// One drifted quantity in a trace diff.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffRow {
    /// `"counter"`, `"histogram.count"`, or `"histogram.sum"`.
    pub kind: &'static str,
    /// Registered metric name.
    pub name: &'static str,
    /// Value in the first trace.
    pub a: u64,
    /// Value in the second trace.
    pub b: u64,
}

impl DiffRow {
    /// `true` when the relative change from `a` to `b` exceeds
    /// `threshold_pct` percent (0 = any difference counts).
    #[must_use]
    pub fn exceeds(&self, threshold_pct: u64) -> bool {
        if self.a == self.b {
            return false;
        }
        if self.a == 0 {
            return true; // any growth from zero is beyond any percentage
        }
        let delta = self.a.abs_diff(self.b) as u128;
        delta * 100 > u128::from(self.a) * u128::from(threshold_pct)
    }
}

/// Compares the deterministic quantities of two parsed traces: counter
/// totals and histogram count/sum pairs, in name order. Gauges are
/// scheduling diagnostics and deliberately excluded (the same exclusion
/// `tests/obs_determinism.rs` makes).
#[must_use]
pub fn diff_reports(a: &ObsReport, b: &ObsReport) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let mut counters: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (name, v) in a.metrics.counters() {
        counters.entry(name).or_insert((0, 0)).0 = v;
    }
    for (name, v) in b.metrics.counters() {
        counters.entry(name).or_insert((0, 0)).1 = v;
    }
    for (name, (va, vb)) in counters {
        if va != vb {
            rows.push(DiffRow {
                kind: "counter",
                name,
                a: va,
                b: vb,
            });
        }
    }
    // (count, sum) pair per side, keyed by histogram name.
    type HistPair = ((u64, u64), (u64, u64));
    let mut hists: BTreeMap<&'static str, HistPair> = BTreeMap::new();
    for (name, h) in a.metrics.histograms() {
        hists.entry(name).or_default().0 = (h.count(), h.sum());
    }
    for (name, h) in b.metrics.histograms() {
        hists.entry(name).or_default().1 = (h.count(), h.sum());
    }
    for (name, ((ca, sa), (cb, sb))) in hists {
        if ca != cb {
            rows.push(DiffRow {
                kind: "histogram.count",
                name,
                a: ca,
                b: cb,
            });
        }
        if sa != sb {
            rows.push(DiffRow {
                kind: "histogram.sum",
                name,
                a: sa,
                b: sb,
            });
        }
    }
    rows.sort_by(|x, y| x.name.cmp(y.name).then(x.kind.cmp(y.kind)));
    rows
}

/// Renders a diff byte-deterministically: one line per differing
/// quantity, `!` marking rows beyond the threshold.
#[must_use]
pub fn render_diff(rows: &[DiffRow], threshold_pct: u64) -> String {
    if rows.is_empty() {
        return "(no differences)\n".to_owned();
    }
    let mut out = String::new();
    for row in rows {
        let marker = if row.exceeds(threshold_pct) { "!" } else { " " };
        out.push_str(&format!(
            "{marker} {kind:<15} {name:<30} {a} -> {b}\n",
            kind = row.kind,
            name = row.name,
            a = row.a,
            b = row.b
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscds_core::obs::ObsSession;

    fn sample_trace() -> String {
        let mut obs = ObsSession::in_memory();
        obs.span_open(names::SPAN_DP_RUN, 5);
        obs.span_attr("engine", "dp");
        obs.span_open(names::SPAN_DP_LEVEL, 6);
        obs.span_attr("level", "0");
        obs.charge_steps(17);
        obs.span_close(8);
        obs.span_close(9);
        obs.histogram_record(names::DP_LEVEL_STEPS, 17);
        obs.exemplar(names::DP_FALLBACK_NODES, "l01.0000000000000002");
        obs.event(names::EVENT_BUDGET_TRIP, 7, &[("phase", "confidence::dp")]);
        let report = obs.finish();
        let mut lines = vec![pscds_core::obs::render_record(
            &pscds_core::obs::Record::Header,
        )];
        for span in &report.spans {
            lines.push(pscds_core::obs::render_record(
                &pscds_core::obs::Record::Span(span),
            ));
        }
        for event in &report.events {
            lines.push(pscds_core::obs::render_record(
                &pscds_core::obs::Record::Event(event),
            ));
        }
        for (name, value) in report.metrics.counters() {
            lines.push(pscds_core::obs::render_record(
                &pscds_core::obs::Record::Counter { name, value },
            ));
        }
        for (name, hist) in report.metrics.histograms() {
            lines.push(pscds_core::obs::render_record(
                &pscds_core::obs::Record::Histogram { name, hist },
            ));
        }
        for (name, keys) in report.metrics.exemplars() {
            lines.push(pscds_core::obs::render_record(
                &pscds_core::obs::Record::Exemplar { name, keys },
            ));
        }
        lines.join("\n") + "\n"
    }

    #[test]
    fn round_trips_a_rendered_session() {
        let text = sample_trace();
        let report = parse_trace(&text).expect("well-formed trace");
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, names::SPAN_DP_RUN);
        assert_eq!(report.spans[0].children[0].self_steps, 17);
        assert_eq!(report.metrics.counter(names::BUDGET_TICKS), 17);
        let (hname, hist) = report.metrics.histograms().next().expect("histogram");
        assert_eq!(hname, names::DP_LEVEL_STEPS);
        assert_eq!((hist.count(), hist.sum()), (1, 17));
        assert_eq!(report.events.len(), 1);
        assert_eq!(
            report.events[0].attrs[0],
            ("phase", "confidence::dp".to_owned())
        );
        let (_, keys) = report.metrics.exemplars().next().expect("exemplars");
        assert_eq!(keys.keys(), ["l01.0000000000000002"]);
    }

    #[test]
    fn headerless_files_are_reported_as_legacy() {
        let text = sample_trace();
        let headerless: String = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        let err = parse_trace(&headerless).unwrap_err();
        assert!(matches!(err, TraceError::MissingHeader { .. }));
        assert!(err.to_string().contains("legacy trace"), "{err}");
        let err = parse_trace("").unwrap_err();
        assert!(matches!(err, TraceError::MissingHeader { .. }));
    }

    #[test]
    fn future_versions_are_refused() {
        let err = parse_trace("{\"pscds_trace\":2}\n").unwrap_err();
        assert_eq!(err, TraceError::VersionMismatch { version: 2 });
    }

    #[test]
    fn unregistered_names_are_line_errors() {
        let text = "{\"pscds_trace\":1}\n\
                    {\"type\":\"counter\",\"name\":\"made.up\",\"value\":3}\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(
            err,
            TraceError::Line {
                line: 2,
                message: "unregistered counter name \"made.up\"".to_owned()
            }
        );
    }

    #[test]
    fn truncated_lines_carry_their_line_number() {
        let text = "{\"pscds_trace\":1}\n\
                    {\"type\":\"counter\",\"name\":\"budget.ticks\",\"value\":3}\n\
                    {\"type\":\"span\",\"name\":\"dp.run\",\"sta";
        let err = parse_trace(text).unwrap_err();
        assert!(matches!(err, TraceError::Line { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn histograms_validate_their_declared_count() {
        let text = "{\"pscds_trace\":1}\n\
                    {\"type\":\"histogram\",\"name\":\"dp.level_steps\",\
                     \"count\":5,\"sum\":6,\"buckets\":[[0,1],[2,2]]}\n";
        let err = parse_trace(text).unwrap_err();
        assert!(
            matches!(&err, TraceError::Line { line: 2, message } if message.contains("count=5")),
            "{err:?}"
        );
    }

    #[test]
    fn diffs_are_sorted_and_thresholded() {
        let a = parse_trace(&sample_trace()).unwrap();
        let mut b = parse_trace(&sample_trace()).unwrap();
        b.metrics.ingest_counter(names::BUDGET_TICKS, 3);
        b.metrics.ingest_counter(names::DP_CACHE_HITS, 1);
        let rows = diff_reports(&a, &b);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].name, rows[0].a, rows[0].b),
            (names::BUDGET_TICKS, 17, 20)
        );
        assert_eq!(rows[1].name, names::DP_CACHE_HITS);
        // 17 -> 20 is ~17.6%: beyond 10%, within 50%. 0 -> 1 beats any %.
        assert!(rows[0].exceeds(10));
        assert!(!rows[0].exceeds(50));
        assert!(rows[1].exceeds(1_000));
        let rendered = render_diff(&rows, 50);
        assert!(rendered.contains("budget.ticks"));
        assert!(rendered.starts_with("  counter"));
        assert_eq!(render_diff(&[], 0), "(no differences)\n");
    }

    #[test]
    fn identical_traces_diff_empty() {
        let a = parse_trace(&sample_trace()).unwrap();
        let b = parse_trace(&sample_trace()).unwrap();
        assert_eq!(diff_reports(&a, &b), Vec::new());
    }
}
