//! The per-run observability session engines thread through their call
//! stacks.
//!
//! An [`ObsSession`] owns the run's [`MetricSet`], [`SpanStack`], event
//! log, and optional [`Sink`]. The **disabled** session is free: it
//! allocates nothing at construction and every recording method
//! early-returns before touching the heap (covered by the
//! allocation-counting test in `tests/noop_alloc.rs`).

use crate::metrics::MetricSet;
use crate::sink::{Record, Sink};
use crate::span::{Span, SpanStack};

/// A point-in-time event with attributes (e.g. one ladder degradation,
/// carrying the engine it degraded to).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Event name, e.g. `"ladder.degrade"`.
    pub name: &'static str,
    /// Budget-clock nanoseconds when the event occurred.
    pub at_ns: u64,
    /// Attributes in recording order.
    pub attrs: Vec<(&'static str, String)>,
}

/// Everything a finished session observed, for programmatic inspection
/// (tests, the CLI's `--metrics` summary, bench record construction).
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Merged counter/gauge totals.
    pub metrics: MetricSet,
    /// Completed root spans.
    pub spans: Vec<Span>,
    /// Point events in recording order.
    pub events: Vec<Event>,
}

/// The observability context for one engine run.
pub struct ObsSession {
    enabled: bool,
    metrics: MetricSet,
    spans: SpanStack,
    events: Vec<Event>,
    sink: Option<Box<dyn Sink>>,
}

impl ObsSession {
    /// The free session: records nothing, allocates nothing.
    #[must_use]
    pub fn disabled() -> Self {
        ObsSession {
            enabled: false,
            metrics: MetricSet::new(),
            spans: SpanStack::new(),
            events: Vec::new(),
            sink: None,
        }
    }

    /// An enabled session that keeps everything in memory for the
    /// [`ObsReport`] (tests and `--metrics` use this).
    #[must_use]
    pub fn in_memory() -> Self {
        ObsSession {
            enabled: true,
            ..ObsSession::disabled()
        }
    }

    /// An enabled session that additionally streams the finished report
    /// through `sink` (the CLI's `--trace-out` JSONL file).
    #[must_use]
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        ObsSession {
            enabled: true,
            sink: Some(sink),
            ..ObsSession::disabled()
        }
    }

    /// Is this session recording?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to counter `name`.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.counter_add(name, delta);
    }

    /// Raises gauge `name` to at least `value`.
    #[inline]
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.gauge_max(name, value);
    }

    /// Records one measurement into histogram `name`.
    #[inline]
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.histogram_record(name, value);
    }

    /// Offers an exemplar key under counter `name` (no-op without the
    /// `exemplars` cargo feature).
    #[inline]
    pub fn exemplar(&mut self, name: &'static str, key: &str) {
        if !self.enabled {
            return;
        }
        self.metrics.exemplar_offer(name, key);
    }

    /// Charges `delta` budget ticks: adds to the `budget.ticks` counter
    /// *and* attributes the same delta to the innermost open span, in
    /// one call — the pairing that keeps "sum of span `self_steps` ==
    /// `budget.ticks` total" true by construction. Serial instrumented
    /// phases call this with a measured `Budget::steps()` delta; chunk
    /// workers make the equivalent pair of calls against their local
    /// `MetricSet`/`SpanStack`.
    #[inline]
    pub fn charge_steps(&mut self, delta: u64) {
        if !self.enabled || delta == 0 {
            return;
        }
        self.metrics.counter_add(crate::names::BUDGET_TICKS, delta);
        self.spans.charge(delta);
    }

    /// Opens a span at `now_ns` (budget-clock nanoseconds).
    #[inline]
    pub fn span_open(&mut self, name: &'static str, now_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.open(name, now_ns);
    }

    /// Attaches an attribute to the innermost open span.
    #[inline]
    pub fn span_attr(&mut self, key: &'static str, value: &str) {
        if !self.enabled {
            return;
        }
        self.spans.attr(key, value);
    }

    /// Closes the innermost open span at `now_ns`.
    #[inline]
    pub fn span_close(&mut self, now_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.close(now_ns);
    }

    /// Records a point event.
    #[inline]
    pub fn event(&mut self, name: &'static str, at_ns: u64, attrs: &[(&'static str, &str)]) {
        if !self.enabled {
            return;
        }
        self.events.push(Event {
            name,
            at_ns,
            attrs: attrs.iter().map(|&(k, v)| (k, v.to_owned())).collect(),
        });
    }

    /// Folds a per-chunk [`MetricSet`] into the session totals. Callers
    /// merge in chunk order at `run_chunks` join points.
    #[inline]
    pub fn merge_metrics(&mut self, chunk: &MetricSet) {
        if !self.enabled {
            return;
        }
        self.metrics.merge(chunk);
    }

    /// Splices completed per-chunk spans under the innermost open span.
    #[inline]
    pub fn graft_spans(&mut self, spans: Vec<Span>) {
        if !self.enabled {
            return;
        }
        self.spans.graft(spans);
    }

    /// Finishes the session: emits every record to the sink (the schema
    /// header first, then spans, events, counters, gauges, histograms,
    /// and exemplars, each group in name order — a stable order so
    /// traces diff cleanly) and returns the report.
    pub fn finish(self) -> ObsReport {
        let ObsSession {
            enabled,
            metrics,
            spans,
            events,
            sink,
        } = self;
        if !enabled {
            return ObsReport::default();
        }
        let spans = spans.finish();
        if let Some(mut sink) = sink {
            sink.emit(&Record::Header);
            for span in &spans {
                sink.emit(&Record::Span(span));
            }
            for event in &events {
                sink.emit(&Record::Event(event));
            }
            for (name, value) in metrics.counters() {
                sink.emit(&Record::Counter { name, value });
            }
            for (name, value) in metrics.gauges() {
                sink.emit(&Record::Gauge { name, value });
            }
            for (name, hist) in metrics.histograms() {
                sink.emit(&Record::Histogram { name, hist });
            }
            for (name, keys) in metrics.exemplars() {
                sink.emit(&Record::Exemplar { name, keys });
            }
            sink.flush_sink();
        }
        ObsReport {
            metrics,
            spans,
            events,
        }
    }
}

impl std::fmt::Debug for ObsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSession")
            .field("enabled", &self.enabled)
            .field("metrics", &self.metrics)
            .field("spans", &self.spans)
            .field("events", &self.events)
            .field("sink", &self.sink.as_ref().map(|_| "dyn Sink"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_session_records_nothing() {
        let mut s = ObsSession::disabled();
        assert!(!s.is_enabled());
        s.counter_add(names::BUDGET_TICKS, 5);
        s.span_open("phase", 1);
        s.span_attr("k", "v");
        s.event("ladder.degrade", 2, &[("to", "dp")]);
        s.span_close(3);
        let mut extra = MetricSet::new();
        extra.counter_add(names::DP_CACHE_HITS, 9);
        s.merge_metrics(&extra);
        let report = s.finish();
        assert!(report.metrics.is_empty());
        assert!(report.spans.is_empty());
        assert!(report.events.is_empty());
    }

    #[test]
    fn in_memory_session_reports_everything() {
        let mut s = ObsSession::in_memory();
        s.span_open("dp.run", 0);
        s.counter_add(names::DP_CACHE_MISSES, 2);
        s.event("ladder.degrade", 1, &[("to", "dp")]);
        s.span_close(10);
        let report = s.finish();
        assert_eq!(report.metrics.counter(names::DP_CACHE_MISSES), 2);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].attrs[0], ("to", "dp".to_owned()));
    }

    #[test]
    fn sink_receives_records_in_stable_order() {
        let sink = MemorySink::new();
        let mut s = ObsSession::with_sink(Box::new(sink));
        s.span_open("dp.run", 0);
        s.span_close(4);
        s.counter_add(names::DP_CACHE_HITS, 1);
        s.counter_add(names::BUDGET_TICKS, 3);
        s.gauge_max(names::DP_CACHE_PEAK, 8);
        s.event("ladder.degrade", 2, &[]);
        let report = s.finish();
        // The sink was consumed; re-render from the report to check the
        // emission order contract: spans, events, counters, gauges.
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.metrics.counter(names::BUDGET_TICKS), 3);
    }

    #[test]
    fn memory_sink_lines_are_ordered_and_parseable_shape() {
        // Drive the sink through a session via a probe that clones lines
        // out before the session consumes it.
        struct Probe(std::rc::Rc<std::cell::RefCell<Vec<String>>>);
        impl crate::sink::Sink for Probe {
            fn emit(&mut self, record: &Record<'_>) {
                self.0.borrow_mut().push(crate::sink::render_record(record));
            }
        }
        let lines = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut s = ObsSession::with_sink(Box::new(Probe(lines.clone())));
        s.span_open("dp.run", 0);
        s.span_close(1);
        s.event("ladder.degrade", 2, &[("to", "dp")]);
        s.counter_add(names::BUDGET_TICKS, 7);
        s.gauge_max(names::DP_CACHE_PEAK, 2);
        s.histogram_record(names::DP_LEVEL_STEPS, 7);
        let _ = s.finish();
        let lines = lines.borrow();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "{\"pscds_trace\":1}");
        assert!(lines[1].contains("\"type\":\"span\""));
        assert!(lines[2].contains("\"type\":\"event\""));
        assert!(lines[3].contains("\"type\":\"counter\""));
        assert!(lines[4].contains("\"type\":\"gauge\""));
        assert!(lines[5].contains("\"type\":\"histogram\""));
    }

    #[test]
    fn charge_steps_pairs_counter_and_span_attribution() {
        let mut s = ObsSession::in_memory();
        s.span_open("dp.run", 0);
        s.charge_steps(4);
        s.span_open("dp.level", 1);
        s.charge_steps(9);
        s.span_close(2);
        s.charge_steps(0); // zero deltas record nothing
        s.span_close(3);
        let report = s.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TICKS), 13);
        let run = &report.spans[0];
        assert_eq!(run.self_steps, 4);
        assert_eq!(run.total_steps(), 13);
        let charged: u64 = report.spans.iter().map(Span::total_steps).sum();
        assert_eq!(charged, report.metrics.counter(names::BUDGET_TICKS));
    }

    #[test]
    fn merge_metrics_and_graft_compose_chunk_results() {
        let mut s = ObsSession::in_memory();
        s.span_open("dp.run", 0);
        for chunk in 0..3u64 {
            let mut m = MetricSet::new();
            m.counter_add(names::CHUNKS_COMPLETED, 1);
            m.counter_add(names::BUDGET_TICKS, chunk + 1);
            s.merge_metrics(&m);
            let mut stack = SpanStack::new();
            stack.open("dp.level", chunk);
            stack.close(chunk + 1);
            s.graft_spans(stack.finish());
        }
        s.span_close(9);
        let report = s.finish();
        assert_eq!(report.metrics.counter(names::CHUNKS_COMPLETED), 3);
        assert_eq!(report.metrics.counter(names::BUDGET_TICKS), 6);
        assert_eq!(
            report.spans[0].skeleton(),
            "dp.run[dp.level,dp.level,dp.level]"
        );
    }
}
