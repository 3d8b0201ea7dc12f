//! Pluggable record sinks and the one JSONL renderer.
//!
//! Every record crosses the sink boundary as a [`Record`]; the textual
//! form is produced by [`render_record`] — a single hand-rolled JSON
//! writer (the workspace's vendored `serde` stub has no JSON back end),
//! so the `--trace-out` JSONL schema cannot drift between sinks. Sinks
//! never read clocks: timestamps arrive inside the records, already in
//! budget-clock nanoseconds (enforced by the L6 `obs-api` lint).

use crate::exemplar::ExemplarSet;
use crate::hist::StepHistogram;
use crate::session::Event;
use crate::span::Span;
use std::io::Write;

/// The trace schema version emitted in the [`Record::Header`] line and
/// required by the trace parser.
pub const TRACE_VERSION: u64 = 1;

/// One record crossing the sink boundary.
#[derive(Clone, Debug)]
pub enum Record<'a> {
    /// The schema/version header — always the first line of a trace.
    Header,
    /// A completed root span (children nested inside).
    Span(&'a Span),
    /// A merged counter total.
    Counter {
        /// Registered counter name.
        name: &'static str,
        /// Merged total.
        value: u64,
    },
    /// A merged gauge value.
    Gauge {
        /// Registered gauge name.
        name: &'static str,
        /// Max-merged value.
        value: u64,
    },
    /// A merged step histogram (sparse `[index, count]` bucket pairs).
    Histogram {
        /// Registered histogram name.
        name: &'static str,
        /// Merged histogram.
        hist: &'a StepHistogram,
    },
    /// The exemplar keys retained under a counter.
    Exemplar {
        /// Registered counter name the keys attach to.
        name: &'static str,
        /// The K lexicographically smallest offending keys.
        keys: &'a ExemplarSet,
    },
    /// A point event (e.g. a ladder degradation with engine provenance).
    Event(&'a Event),
}

/// A destination for observability records. `emit` must not fail the
/// instrumented engine: sinks swallow (and may internally record) their
/// own I/O errors.
pub trait Sink {
    /// Consumes one record.
    fn emit(&mut self, record: &Record<'_>);
    /// Flushes buffered output (default: nothing).
    fn flush_sink(&mut self) {}
}

/// The disabled sink: an empty inline body the optimizer erases.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    #[inline(always)]
    fn emit(&mut self, _record: &Record<'_>) {}
}

/// Test sink: collects rendered JSONL lines in memory.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    /// The rendered lines, in emission order.
    pub lines: Vec<String>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, record: &Record<'_>) {
        self.lines.push(render_record(record));
    }
}

/// Production sink: one JSON object per line to any [`Write`] target
/// (the CLI hands it the `--trace-out` file). I/O errors are latched and
/// reported once via [`JsonlSink::take_error`] instead of failing the
/// engine mid-run.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a write target.
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None }
    }

    /// The first I/O error encountered, if any (clears it).
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn emit(&mut self, record: &Record<'_>) {
        if self.error.is_some() {
            return;
        }
        let line = render_record(record);
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush_sink(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Renders one record as a single JSON line (no trailing newline).
#[must_use]
pub fn render_record(record: &Record<'_>) -> String {
    let mut out = String::new();
    match record {
        Record::Header => {
            out.push_str("{\"pscds_trace\":");
            out.push_str(&TRACE_VERSION.to_string());
            out.push('}');
        }
        Record::Span(span) => render_span(span, &mut out),
        Record::Counter { name, value } => {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
            out.push('}');
        }
        Record::Gauge { name, value } => {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
            out.push('}');
        }
        Record::Histogram { name, hist } => {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"count\":");
            out.push_str(&hist.count().to_string());
            out.push_str(",\"sum\":");
            out.push_str(&hist.sum().to_string());
            out.push_str(",\"buckets\":[");
            for (i, (index, count)) in hist.buckets().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                out.push_str(&index.to_string());
                out.push(',');
                out.push_str(&count.to_string());
                out.push(']');
            }
            out.push_str("]}");
        }
        Record::Exemplar { name, keys } => {
            out.push_str("{\"type\":\"exemplar\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"keys\":[");
            for (i, key) in keys.keys().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, key);
            }
            out.push_str("]}");
        }
        Record::Event(event) => {
            out.push_str("{\"type\":\"event\",\"name\":");
            push_json_str(&mut out, event.name);
            out.push_str(",\"at_ns\":");
            out.push_str(&event.at_ns.to_string());
            out.push_str(",\"attrs\":");
            push_attrs(&mut out, &event.attrs);
            out.push('}');
        }
    }
    out
}

fn render_span(span: &Span, out: &mut String) {
    out.push_str("{\"type\":\"span\",\"name\":");
    push_json_str(out, span.name);
    out.push_str(",\"start_ns\":");
    out.push_str(&span.start_ns.to_string());
    out.push_str(",\"end_ns\":");
    out.push_str(&span.end_ns.to_string());
    out.push_str(",\"self_steps\":");
    out.push_str(&span.self_steps.to_string());
    out.push_str(",\"attrs\":");
    push_attrs(out, &span.attrs);
    out.push_str(",\"children\":[");
    for (i, child) in span.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_span(child, out);
    }
    out.push_str("]}");
}

fn push_attrs(out: &mut String, attrs: &[(&'static str, String)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
    }
    out.push('}');
}

/// JSON string literal with the mandatory escapes (quote, backslash,
/// control characters).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_lines() {
        let c = render_record(&Record::Counter {
            name: crate::names::DP_CACHE_HITS,
            value: 42,
        });
        assert_eq!(
            c,
            "{\"type\":\"counter\",\"name\":\"dp.cache_hits\",\"value\":42}"
        );
        let g = render_record(&Record::Gauge {
            name: crate::names::DP_CACHE_PEAK,
            value: 7,
        });
        assert_eq!(
            g,
            "{\"type\":\"gauge\",\"name\":\"dp.cache_peak\",\"value\":7}"
        );
    }

    #[test]
    fn span_lines_nest_children() {
        let mut span = Span::new("dp.run", 5, 9);
        span.attrs.push(("engine", "dp".to_owned()));
        let mut level = Span::new("dp.level", 6, 8);
        level.attrs.push(("level", "0".to_owned()));
        level.self_steps = 17;
        span.children.push(level);
        let line = render_record(&Record::Span(&span));
        assert_eq!(
            line,
            "{\"type\":\"span\",\"name\":\"dp.run\",\"start_ns\":5,\"end_ns\":9,\
             \"self_steps\":0,\"attrs\":{\"engine\":\"dp\"},\"children\":[{\"type\":\"span\",\
             \"name\":\"dp.level\",\"start_ns\":6,\"end_ns\":8,\"self_steps\":17,\
             \"attrs\":{\"level\":\"0\"},\"children\":[]}]}"
        );
    }

    #[test]
    fn header_histogram_and_exemplar_lines() {
        assert_eq!(render_record(&Record::Header), "{\"pscds_trace\":1}");

        let mut hist = StepHistogram::new();
        hist.record(0);
        hist.record(3);
        hist.record(3);
        let h = render_record(&Record::Histogram {
            name: crate::names::DP_LEVEL_STEPS,
            hist: &hist,
        });
        assert_eq!(
            h,
            "{\"type\":\"histogram\",\"name\":\"dp.level_steps\",\
             \"count\":3,\"sum\":6,\"buckets\":[[0,1],[2,2]]}"
        );

        let mut keys = ExemplarSet::new();
        keys.offer("S2");
        keys.offer("S0");
        let e = render_record(&Record::Exemplar {
            name: crate::names::BREAKER_TRIPS,
            keys: &keys,
        });
        assert_eq!(
            e,
            "{\"type\":\"exemplar\",\"name\":\"breaker.trips\",\"keys\":[\"S0\",\"S2\"]}"
        );
    }

    #[test]
    fn event_lines_and_escaping() {
        let event = Event {
            name: "ladder.degrade",
            at_ns: 12,
            attrs: vec![("to", "sampled \"fast\"\n".to_owned())],
        };
        let line = render_record(&Record::Event(&event));
        assert_eq!(
            line,
            "{\"type\":\"event\",\"name\":\"ladder.degrade\",\"at_ns\":12,\
             \"attrs\":{\"to\":\"sampled \\\"fast\\\"\\n\"}}"
        );
    }

    #[test]
    fn jsonl_sink_writes_lines_and_latches_errors() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.emit(&Record::Counter {
                name: crate::names::BUDGET_TICKS,
                value: 1,
            });
            sink.flush_sink();
            assert!(sink.take_error().is_none());
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.ends_with('\n'));

        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.emit(&Record::Counter {
            name: crate::names::BUDGET_TICKS,
            value: 1,
        });
        assert!(sink.take_error().is_some());
    }

    #[test]
    fn memory_sink_collects_rendered_lines() {
        let mut sink = MemorySink::new();
        sink.emit(&Record::Counter {
            name: crate::names::CHUNKS_COMPLETED,
            value: 3,
        });
        assert_eq!(sink.lines.len(), 1);
        assert!(sink.lines[0].contains("chunks.completed"));
    }
}
