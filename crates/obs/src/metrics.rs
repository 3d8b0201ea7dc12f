//! Typed counter/gauge registries with deterministic merging.
//!
//! A [`MetricSet`] is the per-thread (in practice: per-*chunk*)
//! aggregation unit. Engines record into a local set while a chunk runs
//! and merge the per-chunk sets **in chunk order** at the
//! `partition::run_chunks` join point; because counter merge is
//! commutative-associative summation and the merge order is fixed by the
//! chunk plan (not the scheduler), instrumented parallel runs report
//! totals bit-identical to serial runs at any thread count.

use crate::exemplar::ExemplarSet;
use crate::hist::StepHistogram;
use crate::names;
use std::collections::BTreeMap;

/// An aggregatable bag of named counters, gauges, step histograms, and
/// counter exemplars.
///
/// Counters and histograms sum on [`MetricSet::merge`]; gauges take the
/// maximum; exemplars keep the K lexicographically smallest keys. Names
/// must come from the [`names`] registry — recording an unregistered
/// name is a `debug_assert!` failure (and an L6 lint violation at the
/// call site if written as a string literal).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSet {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, StepHistogram>,
    exemplars: BTreeMap<&'static str, ExemplarSet>,
}

impl MetricSet {
    /// An empty set. Allocation-free: empty `BTreeMap`s hold no heap
    /// memory until the first insertion.
    #[must_use]
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds `delta` to the counter `name` (saturating).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        debug_assert!(names::is_counter(name), "unregistered counter `{name}`");
        let slot = self.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Raises the gauge `name` to at least `value`.
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        debug_assert!(names::is_gauge(name), "unregistered gauge `{name}`");
        let slot = self.gauges.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Records one measurement into the histogram `name`.
    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        debug_assert!(names::is_histogram(name), "unregistered histogram `{name}`");
        self.histograms.entry(name).or_default().record(value);
    }

    /// Offers an exemplar key under the counter `name` (e.g. the
    /// residual key that caused a DP fallback, the source that tripped a
    /// breaker). No-op without the `exemplars` cargo feature, so callers
    /// never need feature gates of their own.
    pub fn exemplar_offer(&mut self, name: &'static str, key: &str) {
        #[cfg(feature = "exemplars")]
        {
            debug_assert!(
                names::is_counter(name),
                "exemplars attach to counters; `{name}` is not one"
            );
            self.exemplars.entry(name).or_default().offer(key);
        }
        #[cfg(not(feature = "exemplars"))]
        {
            let _ = (name, key);
        }
    }

    /// The current value of counter `name` (0 when never recorded).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if ever recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&StepHistogram> {
        self.histograms.get(name)
    }

    /// The current value of gauge `name`, if ever recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Folds `other` into `self`: counters and histograms sum, gauges
    /// max, exemplars union-keep-smallest. The caller fixes determinism
    /// by merging in chunk order; every one of these operations is
    /// itself order-insensitive by construction (gauges excepted from
    /// the cross-thread contract as ever).
    pub fn merge(&mut self, other: &MetricSet) {
        for (&name, &v) in &other.counters {
            let slot = self.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for (&name, &v) in &other.gauges {
            let slot = self.gauges.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (&name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
        for (&name, e) in &other.exemplars {
            self.exemplars.entry(name).or_default().merge(e);
        }
    }

    /// All recorded counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All recorded gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(&n, &v)| (n, v))
    }

    /// All recorded histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &StepHistogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
    }

    /// All recorded exemplar sets in name order.
    pub fn exemplars(&self) -> impl Iterator<Item = (&'static str, &ExemplarSet)> + '_ {
        self.exemplars.iter().map(|(&n, e)| (n, e))
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.exemplars.is_empty()
    }

    /// Ingests a counter by *dynamic* name, validating it against the
    /// registry: the trace parser's reconstruction hook (and the reason
    /// consumer crates never need to smuggle non-registry names into
    /// `counter_add`). Returns `false` for unknown names.
    pub fn ingest_counter(&mut self, name: &str, value: u64) -> bool {
        match names::lookup_counter(name) {
            Some(n) => {
                let slot = self.counters.entry(n).or_insert(0);
                *slot = slot.saturating_add(value);
                true
            }
            None => false,
        }
    }

    /// Ingests a gauge by dynamic name (see [`MetricSet::ingest_counter`]).
    pub fn ingest_gauge(&mut self, name: &str, value: u64) -> bool {
        match names::lookup_gauge(name) {
            Some(n) => {
                let slot = self.gauges.entry(n).or_insert(0);
                *slot = (*slot).max(value);
                true
            }
            None => false,
        }
    }

    /// Ingests a reconstructed histogram by dynamic name (see
    /// [`MetricSet::ingest_counter`]).
    pub fn ingest_histogram(&mut self, name: &str, hist: StepHistogram) -> bool {
        match names::lookup_histogram(name) {
            Some(n) => {
                self.histograms.entry(n).or_default().merge(&hist);
                true
            }
            None => false,
        }
    }

    /// Ingests exemplar keys by dynamic counter name (see
    /// [`MetricSet::ingest_counter`]).
    pub fn ingest_exemplars<'a>(
        &mut self,
        name: &str,
        keys: impl IntoIterator<Item = &'a str>,
    ) -> bool {
        match names::lookup_counter(name) {
            Some(n) => {
                let set = self.exemplars.entry(n).or_default();
                for key in keys {
                    set.offer(key);
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_gauges_max_on_merge() {
        let mut a = MetricSet::new();
        a.counter_add(names::DP_CACHE_HITS, 3);
        a.gauge_max(names::DP_CACHE_PEAK, 10);
        let mut b = MetricSet::new();
        b.counter_add(names::DP_CACHE_HITS, 4);
        b.counter_add(names::DP_CACHE_MISSES, 1);
        b.gauge_max(names::DP_CACHE_PEAK, 7);
        a.merge(&b);
        assert_eq!(a.counter(names::DP_CACHE_HITS), 7);
        assert_eq!(a.counter(names::DP_CACHE_MISSES), 1);
        assert_eq!(a.gauge(names::DP_CACHE_PEAK), Some(10));
    }

    #[test]
    fn merge_is_order_insensitive_for_counters() {
        let mut parts = Vec::new();
        for i in 0..5u64 {
            let mut m = MetricSet::new();
            m.counter_add(names::BUDGET_TICKS, i * 11 + 1);
            m.counter_add(names::CHUNKS_COMPLETED, 1);
            parts.push(m);
        }
        let mut fwd = MetricSet::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = MetricSet::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.counter(names::CHUNKS_COMPLETED), 5);
    }

    #[test]
    fn unrecorded_names_read_as_zero_or_none() {
        let m = MetricSet::new();
        assert_eq!(m.counter(names::BUDGET_TRIPS), 0);
        assert_eq!(m.gauge(names::CHUNKS_STOLEN), None);
        assert!(m.is_empty());
    }

    #[test]
    fn counter_add_saturates() {
        let mut m = MetricSet::new();
        m.counter_add(names::BUDGET_TICKS, u64::MAX);
        m.counter_add(names::BUDGET_TICKS, 5);
        assert_eq!(m.counter(names::BUDGET_TICKS), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "unregistered counter")]
    #[cfg(debug_assertions)]
    fn unregistered_counter_name_is_rejected() {
        MetricSet::new().counter_add("nope.nope", 1);
    }

    #[test]
    #[should_panic(expected = "unregistered histogram")]
    #[cfg(debug_assertions)]
    fn unregistered_histogram_name_is_rejected() {
        MetricSet::new().histogram_record("nope.nope", 1);
    }

    #[test]
    fn histograms_sum_on_merge() {
        let mut a = MetricSet::new();
        a.histogram_record(names::DP_LEVEL_STEPS, 3);
        let mut b = MetricSet::new();
        b.histogram_record(names::DP_LEVEL_STEPS, 9);
        b.histogram_record(names::INTERVAL_SCENARIO_STEPS, 1);
        a.merge(&b);
        let h = a.histogram(names::DP_LEVEL_STEPS).unwrap();
        assert_eq!((h.count(), h.sum()), (2, 12));
        assert!(a.histogram(names::INTERVAL_SCENARIO_STEPS).is_some());
        assert!(!a.is_empty());
    }

    #[test]
    #[cfg(feature = "exemplars")]
    fn exemplars_union_on_merge() {
        let mut a = MetricSet::new();
        a.exemplar_offer(names::BREAKER_TRIPS, "S2");
        let mut b = MetricSet::new();
        b.exemplar_offer(names::BREAKER_TRIPS, "S0");
        a.merge(&b);
        let (name, set) = a.exemplars().next().unwrap();
        assert_eq!(name, names::BREAKER_TRIPS);
        assert_eq!(set.keys(), ["S0", "S2"]);
    }

    #[test]
    fn ingest_validates_against_the_registry() {
        let mut m = MetricSet::new();
        assert!(m.ingest_counter("dp.cache_hits", 2));
        assert!(!m.ingest_counter("dp.cache_peak", 2), "gauge, not counter");
        assert!(!m.ingest_counter("made.up", 2));
        assert!(m.ingest_gauge("dp.cache_peak", 5));
        assert!(!m.ingest_gauge("dp.cache_hits", 5));
        let mut h = crate::hist::StepHistogram::new();
        h.record(4);
        assert!(m.ingest_histogram("dp.level_steps", h.clone()));
        assert!(!m.ingest_histogram("dp.cache_hits", h));
        assert!(m.ingest_exemplars("breaker.trips", ["S1"]));
        assert!(!m.ingest_exemplars("made.up", ["S1"]));
        assert_eq!(m.counter(names::DP_CACHE_HITS), 2);
        assert_eq!(m.histogram(names::DP_LEVEL_STEPS).unwrap().sum(), 4);
    }
}
