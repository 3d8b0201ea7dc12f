//! The metric-name registry.
//!
//! Every counter and gauge the engine ladder emits is declared here,
//! once, as a `&'static str` constant. [`crate::MetricSet`] debug-asserts
//! that recorded names are registered, and the L6 `obs-api` lint rejects
//! string-literal metric names at call sites outside this crate — both
//! together guarantee the JSONL schema cannot drift per call site.
//!
//! **Counters** are deterministic: merged by summation in chunk order at
//! `run_chunks` join points, their totals are bit-identical at any
//! thread count and are diffed by CI between serial and `--threads 4`
//! runs. **Gauges** are diagnostics (high-water marks, scheduling
//! observations); they merge by maximum and sit outside the cross-thread
//! identity contract.

/// Counter: cooperative budget steps consumed (`Budget::steps()` deltas
/// observed per instrumented phase or chunk).
pub const BUDGET_TICKS: &str = "budget.ticks";

/// Counter: budget trip events (`BudgetExceeded` raised by `govern`).
pub const BUDGET_TRIPS: &str = "budget.trips";

/// Counter: DP arrivals at an already known residual state.
pub const DP_CACHE_HITS: &str = "dp.cache_hits";

/// Counter: distinct residual states the DP evaluated.
pub const DP_CACHE_MISSES: &str = "dp.cache_misses";

/// Counter: search-tree nodes the DP counted by the uncached DFS below
/// residual states past its state cap.
pub const DP_FALLBACK_NODES: &str = "dp.fallback_nodes";

/// Counter: consensus-sweep subset runs answered by the shared-cache
/// result of an *earlier* run (the cross-subset sharing win).
pub const DP_CROSS_SUBSET_HITS: &str = "dp.cross_subset_hits";

/// Counter: chunks planned by the partitioner for one engine run.
pub const CHUNKS_PLANNED: &str = "chunks.planned";

/// Counter: chunks whose workers ran to completion.
pub const CHUNKS_COMPLETED: &str = "chunks.completed";

/// Counter: chunks skipped after a first-hit short-circuit.
pub const CHUNKS_SHORT_CIRCUITED: &str = "chunks.short_circuited";

/// Counter: Metropolis sampler proposals drawn.
pub const SAMPLER_PROPOSED: &str = "sampler.proposed";

/// Counter: Metropolis sampler proposals accepted.
pub const SAMPLER_ACCEPTED: &str = "sampler.accepted";

/// Counter: ladder-degradation events (one per engine downgrade taken by
/// the `resilient` front end; the chosen `Engine` rides in the event
/// attributes).
pub const LADDER_DEGRADATIONS: &str = "ladder.degradations";

/// Counter: source fetch attempts issued through the access layer
/// (first tries and retries alike; breaker denials are not attempts).
pub const SOURCE_FETCH_ATTEMPTS: &str = "source.fetch_attempts";

/// Counter: retries scheduled after a failed fetch attempt.
pub const SOURCE_RETRIES: &str = "source.retries";

/// Counter: faulted fetch attempts (failures, timeouts, truncations).
pub const SOURCE_FAULTS: &str = "source.faults";

/// Counter: deterministic backoff ticks charged against the budget
/// between retries (exponential per retry, no wall clock).
pub const SOURCE_BACKOFF_TICKS: &str = "source.backoff_ticks";

/// Counter: circuit-breaker trips (threshold consecutive failures, or a
/// failed half-open probe re-opening the breaker).
pub const BREAKER_TRIPS: &str = "breaker.trips";

/// Counter: half-open probe attempts granted after a quarantine expired.
pub const BREAKER_HALF_OPEN_PROBES: &str = "breaker.half_open_probes";

/// Counter: fetch admissions denied by an open (quarantining) breaker.
pub const BREAKER_DENIALS: &str = "breaker.denials";

/// Counter: tuples for which a partial-availability confidence interval
/// was reported.
pub const INTERVAL_TUPLES: &str = "interval.tuples";

/// Counter: interval tuples whose bracket provably contains the
/// catalog point answer (the all-sources-at-claimed-bounds scenario);
/// CI asserts this equals `interval.tuples`.
pub const INTERVAL_POINT_CONTAINED: &str = "interval.point_contained";

/// Counter: summed interval widths in parts-per-million — a
/// deterministic aggregate of how much availability loss widened the
/// answers.
pub const INTERVAL_WIDTH_PPM: &str = "interval.width_ppm";

/// Counter: distinct canonical residual skeletons in a compiled
/// confidence circuit (the circuit's shared-node count).
pub const CIRCUIT_NODES: &str = "circuit.nodes";

/// Counter: interior circuit nodes keyed on exact residual states
/// (before canonical sharing; comparable to `dp.cache_misses`).
pub const CIRCUIT_EXACT_NODES: &str = "circuit.exact_nodes";

/// Counter: weighted edges (Or-disjuncts) across a compiled circuit.
pub const CIRCUIT_EDGES: &str = "circuit.edges";

/// Counter: circuit nodes whose canonicalized residual key collided
/// with an earlier node — the sharing won on symmetric instances.
pub const CIRCUIT_SHARED_NODES: &str = "circuit.shared_nodes";

/// Counter: compiled-collection cache hits (queries answered without
/// recompiling).
pub const CIRCUIT_COMPILE_HITS: &str = "circuit.compile_hits";

/// Counter: compiled-collection cache misses (fresh compiles).
pub const CIRCUIT_COMPILE_MISSES: &str = "circuit.compile_misses";

/// Counter: compiled-collection cross-collection hits — instance misses
/// answered by rebinding another collection's structurally identical
/// skeleton instead of compiling.
pub const CIRCUIT_CROSS_HITS: &str = "circuit.cross_hits";

/// Counter: delta batches applied to a `DeltaSession`.
pub const DELTA_BATCHES_APPLIED: &str = "delta.batches_applied";

/// Counter: individual insert/delete operations applied across batches
/// (after dropping no-ops against the current extensions).
pub const DELTA_OPS_APPLIED: &str = "delta.ops_applied";

/// Counter: signature classes touched (size changed, created, or
/// emptied) by applied delta batches.
pub const DELTA_CLASSES_TOUCHED: &str = "delta.classes_touched";

/// Counter: memoized residual states invalidated by delta-scoped
/// prefix invalidation (levels at or below the deepest touched class).
pub const DELTA_STATES_INVALIDATED: &str = "delta.states_invalidated";

/// Counter: circuit nodes patched (freshly compiled onto the retained
/// arena) by incremental maintenance.
pub const DELTA_NODES_PATCHED: &str = "delta.nodes_patched";

/// Counter: full recompiles forced because a delta changed a source's
/// bounds, the class-signature sequence, or the patched arena outgrew
/// its garbage threshold.
pub const DELTA_RECOMPILES_FORCED: &str = "delta.recompiles_forced";

/// Counter: analyses answered entirely from maintained state (the
/// projected structure was unchanged, so no compile or traversal ran).
pub const DELTA_RESULTS_REUSED: &str = "delta.results_reused";

/// Histogram: budget ticks charged expanding each DP level.
pub const DP_LEVEL_STEPS: &str = "dp.level_steps";

/// Histogram: budget ticks charged by each consensus subset sweep.
pub const CONSENSUS_SWEEP_STEPS: &str = "consensus.sweep_steps";

/// Histogram: budget ticks charged compiling a confidence circuit.
pub const CIRCUIT_COMPILE_STEPS: &str = "circuit.compile_steps";

/// Histogram: budget ticks charged traversing a compiled circuit.
pub const CIRCUIT_TRAVERSE_STEPS: &str = "circuit.traverse_steps";

/// Histogram: budget ticks charged analysing one availability scenario
/// of a partial-availability interval run.
pub const INTERVAL_SCENARIO_STEPS: &str = "interval.scenario_steps";

/// Histogram: budget ticks charged by each incremental-maintenance
/// epoch of a delta-stream replay.
pub const DELTA_EPOCH_STEPS: &str = "delta.epoch_steps";

/// Histogram: backoff ticks charged before each fetch retry (the
/// distribution behind the `source.backoff_ticks` total).
pub const SOURCE_BACKOFF_STEPS: &str = "source.backoff_steps";

/// Span: one resilient consistency-check ladder run.
pub const SPAN_RESILIENT_CHECK: &str = "resilient.check";

/// Span: one resilient confidence ladder run.
pub const SPAN_RESILIENT_CONFIDENCE: &str = "resilient.confidence";

/// Span: the partial-availability interval phase of a faulted run.
pub const SPAN_RESILIENT_PARTIAL: &str = "resilient.partial";

/// Span: one delta-stream maintenance replay.
pub const SPAN_RESILIENT_STREAM: &str = "resilient.stream";

/// Span: one ladder rung attempt. The `engine` attribute names the
/// engine that answered (or, when the rung trips, the one that tripped);
/// a planned rung first adds `predicted_steps`, the steps its plan
/// predicts for the engine it chose (see [`EVENT_LADDER_PLAN`]).
pub const SPAN_LADDER_RUNG: &str = "ladder.rung";

/// Span: one DP engine run.
pub const SPAN_DP_RUN: &str = "dp.run";

/// Span: expanding one level of a DP run (`level`, `states`).
pub const SPAN_DP_LEVEL: &str = "dp.level";

/// Span: compiling a confidence circuit.
pub const SPAN_CIRCUIT_COMPILE: &str = "circuit.compile";

/// Span: traversing a compiled confidence circuit.
pub const SPAN_CIRCUIT_TRAVERSE: &str = "circuit.traverse";

/// Span: one partial-availability interval analysis over all scenarios.
pub const SPAN_INTERVAL_RUN: &str = "interval.run";

/// Span: one availability scenario analysed by an interval worker.
pub const SPAN_INTERVAL_SCENARIO: &str = "interval.scenario";

/// Span: one source-catalog fetch pass through the recovery stack.
pub const SPAN_SOURCE_FETCH: &str = "source.fetch";

/// Span: the consensus subset sweep over the shared DP cache.
pub const SPAN_CONSENSUS_SWEEP: &str = "consensus.dp_sweep";

/// Event: a resilient ladder degraded to a lower rung.
pub const EVENT_LADDER_DEGRADE: &str = "ladder.degrade";

/// Event: a planned ladder rung chose its exact engine from one DP
/// expansion sweep: `dfs_steps` (the serial DFS's exact steps),
/// `dp_steps` (the expansion's ticks), `folds` (the DP evaluation's
/// bigint folds) and the chosen `engine`.
pub const EVENT_LADDER_PLAN: &str = "ladder.plan";

/// Event: a budget trip observed by an instrumented phase.
pub const EVENT_BUDGET_TRIP: &str = "budget.trip";

/// Event: a fetch was denied by an open (quarantining) breaker.
pub const EVENT_SOURCE_QUARANTINED: &str = "source.quarantined";

/// Event: a circuit breaker tripped open.
pub const EVENT_BREAKER_TRIP: &str = "breaker.trip";

/// Gauge: peak residual states resident in a DP run (high-water mark).
pub const DP_CACHE_PEAK: &str = "dp.cache_peak";

/// Gauge: chunks executed on a worker other than the first — a
/// scheduling observation that legitimately varies with thread count.
pub const CHUNKS_STOLEN: &str = "chunks.stolen";

/// All registered counter names, in stable reporting order.
pub const COUNTERS: [&str; 36] = [
    BUDGET_TICKS,
    BUDGET_TRIPS,
    DP_CACHE_HITS,
    DP_CACHE_MISSES,
    DP_FALLBACK_NODES,
    DP_CROSS_SUBSET_HITS,
    CHUNKS_PLANNED,
    CHUNKS_COMPLETED,
    CHUNKS_SHORT_CIRCUITED,
    SAMPLER_PROPOSED,
    SAMPLER_ACCEPTED,
    LADDER_DEGRADATIONS,
    SOURCE_FETCH_ATTEMPTS,
    SOURCE_RETRIES,
    SOURCE_FAULTS,
    SOURCE_BACKOFF_TICKS,
    BREAKER_TRIPS,
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_DENIALS,
    INTERVAL_TUPLES,
    INTERVAL_POINT_CONTAINED,
    INTERVAL_WIDTH_PPM,
    CIRCUIT_NODES,
    CIRCUIT_EXACT_NODES,
    CIRCUIT_EDGES,
    CIRCUIT_SHARED_NODES,
    CIRCUIT_COMPILE_HITS,
    CIRCUIT_COMPILE_MISSES,
    CIRCUIT_CROSS_HITS,
    DELTA_BATCHES_APPLIED,
    DELTA_OPS_APPLIED,
    DELTA_CLASSES_TOUCHED,
    DELTA_STATES_INVALIDATED,
    DELTA_NODES_PATCHED,
    DELTA_RECOMPILES_FORCED,
    DELTA_RESULTS_REUSED,
];

/// All registered gauge names, in stable reporting order.
pub const GAUGES: [&str; 2] = [DP_CACHE_PEAK, CHUNKS_STOLEN];

/// All registered histogram names, in stable reporting order.
pub const HISTOGRAMS: [&str; 7] = [
    DP_LEVEL_STEPS,
    CONSENSUS_SWEEP_STEPS,
    CIRCUIT_COMPILE_STEPS,
    CIRCUIT_TRAVERSE_STEPS,
    INTERVAL_SCENARIO_STEPS,
    DELTA_EPOCH_STEPS,
    SOURCE_BACKOFF_STEPS,
];

/// All registered span names, in stable reporting order.
pub const SPANS: [&str; 13] = [
    SPAN_RESILIENT_CHECK,
    SPAN_RESILIENT_CONFIDENCE,
    SPAN_RESILIENT_PARTIAL,
    SPAN_RESILIENT_STREAM,
    SPAN_LADDER_RUNG,
    SPAN_DP_RUN,
    SPAN_DP_LEVEL,
    SPAN_CIRCUIT_COMPILE,
    SPAN_CIRCUIT_TRAVERSE,
    SPAN_INTERVAL_RUN,
    SPAN_INTERVAL_SCENARIO,
    SPAN_SOURCE_FETCH,
    SPAN_CONSENSUS_SWEEP,
];

/// All registered event names, in stable reporting order.
pub const EVENTS: [&str; 5] = [
    EVENT_LADDER_DEGRADE,
    EVENT_LADDER_PLAN,
    EVENT_BUDGET_TRIP,
    EVENT_SOURCE_QUARANTINED,
    EVENT_BREAKER_TRIP,
];

/// Is `name` a registered counter?
#[must_use]
pub fn is_counter(name: &str) -> bool {
    COUNTERS.contains(&name)
}

/// Is `name` a registered gauge?
#[must_use]
pub fn is_gauge(name: &str) -> bool {
    GAUGES.contains(&name)
}

/// Is `name` a registered histogram?
#[must_use]
pub fn is_histogram(name: &str) -> bool {
    HISTOGRAMS.contains(&name)
}

/// Is `name` a registered span?
#[must_use]
pub fn is_span(name: &str) -> bool {
    SPANS.contains(&name)
}

/// Is `name` a registered event?
#[must_use]
pub fn is_event(name: &str) -> bool {
    EVENTS.contains(&name)
}

/// Resolves a dynamic counter name to its registry constant — the trace
/// parser's way back from JSONL text to `&'static str` names.
#[must_use]
pub fn lookup_counter(name: &str) -> Option<&'static str> {
    COUNTERS.iter().find(|&&c| c == name).copied()
}

/// Resolves a dynamic gauge name to its registry constant.
#[must_use]
pub fn lookup_gauge(name: &str) -> Option<&'static str> {
    GAUGES.iter().find(|&&g| g == name).copied()
}

/// Resolves a dynamic histogram name to its registry constant.
#[must_use]
pub fn lookup_histogram(name: &str) -> Option<&'static str> {
    HISTOGRAMS.iter().find(|&&h| h == name).copied()
}

/// Resolves a dynamic span name to its registry constant.
#[must_use]
pub fn lookup_span(name: &str) -> Option<&'static str> {
    SPANS.iter().find(|&&s| s == name).copied()
}

/// Resolves a dynamic event name to its registry constant.
#[must_use]
pub fn lookup_event(name: &str) -> Option<&'static str> {
    EVENTS.iter().find(|&&e| e == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> impl Iterator<Item = &'static str> {
        COUNTERS
            .iter()
            .chain(GAUGES.iter())
            .chain(HISTOGRAMS.iter())
            .chain(SPANS.iter())
            .chain(EVENTS.iter())
            .copied()
    }

    #[test]
    fn registries_are_disjoint_and_duplicate_free() {
        let mut all: Vec<&str> = all_names().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique across kinds");
        for c in COUNTERS {
            assert!(is_counter(c) && !is_gauge(c) && !is_histogram(c));
        }
        for g in GAUGES {
            assert!(is_gauge(g) && !is_counter(g));
        }
        for h in HISTOGRAMS {
            assert!(is_histogram(h) && !is_counter(h) && !is_gauge(h));
        }
        for s in SPANS {
            assert!(is_span(s) && !is_counter(s) && !is_event(s));
        }
        for e in EVENTS {
            assert!(is_event(e) && !is_span(e) && !is_counter(e));
        }
    }

    #[test]
    fn names_use_the_dotted_lowercase_convention() {
        for name in all_names() {
            assert!(
                name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{name} breaks the `component.metric_name` convention"
            );
        }
    }

    #[test]
    fn lookup_round_trips_every_registered_name() {
        for c in COUNTERS {
            assert_eq!(lookup_counter(c), Some(c));
        }
        for g in GAUGES {
            assert_eq!(lookup_gauge(g), Some(g));
        }
        for h in HISTOGRAMS {
            assert_eq!(lookup_histogram(h), Some(h));
        }
        for s in SPANS {
            assert_eq!(lookup_span(s), Some(s));
        }
        for e in EVENTS {
            assert_eq!(lookup_event(e), Some(e));
        }
        assert_eq!(lookup_counter("made.up"), None);
        assert_eq!(lookup_span(DP_CACHE_HITS), None);
    }
}
