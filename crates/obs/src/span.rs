//! Span scopes: named, nested slices of engine time.
//!
//! A [`Span`] records a phase of an engine run (ladder rung, DP sweep,
//! chunk execution) with start/end timestamps in **budget-clock
//! nanoseconds** — the caller reads `Budget::elapsed_ns()` and passes
//! the value in; this module never touches a clock. Forked budgets share
//! their parent's clock origin, so spans recorded inside `run_chunks`
//! workers are coherent with the parent timeline.
//!
//! Determinism: wall-clock durations differ run to run, so tests and the
//! CI diff compare [`Span::skeleton`] — the tree structure and
//! attributes with timings erased — which is identical at any thread
//! count for the instrumented engines.

/// One completed (or still-open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name, e.g. `"dp.level"` or `"ladder.rung"`.
    pub name: &'static str,
    /// Attributes in recording order, e.g. `("level", "3")`.
    pub attrs: Vec<(&'static str, String)>,
    /// Budget-clock nanoseconds at open.
    pub start_ns: u64,
    /// Budget-clock nanoseconds at close (`== start_ns` when force-closed).
    pub end_ns: u64,
    /// Budget ticks charged to this span while it was the *innermost*
    /// open span (its exclusive step cost; see [`SpanStack::charge`]).
    pub self_steps: u64,
    /// Nested child spans in completion order.
    pub children: Vec<Span>,
}

impl Span {
    /// An empty span covering `[start_ns, end_ns]` — the trace parser's
    /// reconstruction entry point (attrs, children, and `self_steps` are
    /// filled in field by field; live instrumentation goes through
    /// [`SpanStack`] instead).
    #[must_use]
    pub fn new(name: &'static str, start_ns: u64, end_ns: u64) -> Self {
        Span {
            name,
            attrs: Vec::new(),
            start_ns,
            end_ns,
            self_steps: 0,
            children: Vec::new(),
        }
    }

    /// The span's inclusive step cost: its own `self_steps` plus every
    /// descendant's.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.children.iter().fold(self.self_steps, |acc, c| {
            acc.saturating_add(c.total_steps())
        })
    }
    /// The structure of the span tree with timings erased:
    /// `name{k=v,…}[child,…]`. Two instrumented runs that did the same
    /// work produce equal skeletons even though their nanosecond stamps
    /// differ.
    #[must_use]
    pub fn skeleton(&self) -> String {
        let mut out = String::new();
        self.render_skeleton(&mut out);
        out
    }

    fn render_skeleton(&self, out: &mut String) {
        out.push_str(self.name);
        if self.self_steps > 0 {
            out.push('#');
            out.push_str(&self.self_steps.to_string());
        }
        if !self.attrs.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
            out.push('}');
        }
        if !self.children.is_empty() {
            out.push('[');
            for (i, child) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                child.render_skeleton(out);
            }
            out.push(']');
        }
    }
}

/// Builder for nested spans: `open`/`close` pairs bracket engine phases,
/// `graft` splices per-chunk sub-trees under the current phase at a
/// `run_chunks` join point.
#[derive(Clone, Debug, Default)]
pub struct SpanStack {
    roots: Vec<Span>,
    open: Vec<Span>,
}

impl SpanStack {
    /// An empty stack (allocation-free until the first `open`).
    #[must_use]
    pub fn new() -> Self {
        SpanStack::default()
    }

    /// Opens a child span of the innermost open span (or a new root).
    pub fn open(&mut self, name: &'static str, now_ns: u64) {
        self.open.push(Span::new(name, now_ns, now_ns));
    }

    /// [`SpanStack::open`] under the name the emission lints recognise —
    /// worker-side instrumentation (which records into a local stack
    /// instead of an `ObsSession`) opens its spans through this alias so
    /// L9 `counter-coverage` sees the registry constant being wired.
    pub fn span_open(&mut self, name: &'static str, now_ns: u64) {
        self.open(name, now_ns);
    }

    /// Charges `steps` budget ticks to the innermost open span's
    /// `self_steps`. No-op when nothing is open.
    ///
    /// **The pairing contract:** every `budget.ticks` counter emission
    /// is paired with a `charge` of the same delta against the span
    /// stack (and vice versa), so the sum of `self_steps` over a
    /// finished trace equals the run's `budget.ticks` total exactly.
    /// Charges are only measured at thread-invariant points — per-chunk
    /// deltas inside `run_chunks` workers, or genuinely serial phases —
    /// which keeps the attribution bit-identical at any thread count.
    pub fn charge(&mut self, steps: u64) {
        if let Some(span) = self.open.last_mut() {
            span.self_steps = span.self_steps.saturating_add(steps);
        }
    }

    /// Attaches an attribute to the innermost open span. No-op when no
    /// span is open.
    pub fn attr(&mut self, key: &'static str, value: &str) {
        if let Some(span) = self.open.last_mut() {
            span.attrs.push((key, value.to_owned()));
        }
    }

    /// Splices completed spans (e.g. per-chunk sub-trees collected at a
    /// `run_chunks` join) under the innermost open span, or as roots.
    pub fn graft(&mut self, children: impl IntoIterator<Item = Span>) {
        let target = match self.open.last_mut() {
            Some(span) => &mut span.children,
            None => &mut self.roots,
        };
        target.extend(children);
    }

    /// Closes the innermost open span at `now_ns`. No-op when nothing is
    /// open.
    pub fn close(&mut self, now_ns: u64) {
        if let Some(mut span) = self.open.pop() {
            span.end_ns = now_ns;
            match self.open.last_mut() {
                Some(parent) => parent.children.push(span),
                None => self.roots.push(span),
            }
        }
    }

    /// Number of currently open spans.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Consumes the stack, force-closing any still-open spans at their
    /// own start time (`end_ns == start_ns` marks them truncated — e.g.
    /// a budget trip unwound through the phase).
    #[must_use]
    pub fn finish(mut self) -> Vec<Span> {
        while !self.open.is_empty() {
            // Re-close at the span's own start: no clock is available
            // here by design.
            let start = self.open[self.open.len() - 1].start_ns;
            self.close(start);
        }
        self.roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_skeletons() {
        let mut s = SpanStack::new();
        s.open("ladder.rung", 10);
        s.attr("engine", "dp");
        s.open("dp.level", 20);
        s.attr("level", "0");
        s.close(30);
        s.open("dp.level", 31);
        s.attr("level", "1");
        s.close(44);
        s.close(50);
        let roots = s.finish();
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!((root.start_ns, root.end_ns), (10, 50));
        assert_eq!(root.children.len(), 2);
        assert_eq!(
            root.skeleton(),
            "ladder.rung{engine=dp}[dp.level{level=0},dp.level{level=1}]"
        );
    }

    #[test]
    fn skeleton_ignores_timings() {
        let mut a = SpanStack::new();
        a.open("phase", 0);
        a.close(100);
        let mut b = SpanStack::new();
        b.open("phase", 5);
        b.close(7);
        assert_eq!(a.finish()[0].skeleton(), b.finish()[0].skeleton());
    }

    #[test]
    fn graft_splices_under_the_open_span() {
        let mut worker = SpanStack::new();
        worker.open("dp.level", 3);
        worker.close(9);
        let chunk_spans = worker.finish();

        let mut main = SpanStack::new();
        main.open("dp.run", 0);
        main.graft(chunk_spans);
        main.close(12);
        let roots = main.finish();
        assert_eq!(roots[0].skeleton(), "dp.run[dp.level]");
    }

    #[test]
    fn finish_force_closes_open_spans_at_their_start() {
        let mut s = SpanStack::new();
        s.open("outer", 1);
        s.open("inner", 2);
        let roots = s.finish();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children[0].end_ns, roots[0].children[0].start_ns);
    }

    #[test]
    fn graft_with_no_open_span_creates_roots() {
        let mut s = SpanStack::new();
        s.graft([Span::new("orphan", 0, 1)]);
        assert_eq!(s.finish().len(), 1);
    }

    #[test]
    fn charge_attributes_to_the_innermost_open_span() {
        let mut s = SpanStack::new();
        s.charge(99); // nothing open: dropped
        s.span_open("dp.run", 0);
        s.charge(2);
        s.open("dp.level", 1);
        s.charge(5);
        s.close(2);
        s.charge(3);
        s.close(10);
        let roots = s.finish();
        let run = &roots[0];
        assert_eq!(run.self_steps, 5);
        assert_eq!(run.children[0].self_steps, 5);
        assert_eq!(run.total_steps(), 10);
    }

    #[test]
    fn skeleton_renders_self_steps_only_when_charged() {
        let mut s = SpanStack::new();
        s.open("dp.run", 0);
        s.open("dp.level", 1);
        s.charge(7);
        s.close(2);
        s.close(3);
        assert_eq!(s.finish()[0].skeleton(), "dp.run[dp.level#7]");

        let mut plain = SpanStack::new();
        plain.open("dp.run", 0);
        plain.close(1);
        assert_eq!(plain.finish()[0].skeleton(), "dp.run");
    }
}
