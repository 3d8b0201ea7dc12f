//! The disabled session is free: every `ObsSession` method early-returns
//! before touching the heap, so engines can call them unconditionally on
//! hot paths. This test installs a counting global allocator and proves
//! the whole disabled API surface performs zero allocations.
//!
//! The library itself forbids `unsafe`; the counting allocator below is
//! test-harness scaffolding, outside that boundary.

use pscds_obs::{names, MetricSet, ObsSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pass-through allocator that counts allocation calls.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

// NOTE: this file must contain exactly one #[test]. The default harness
// runs tests on parallel threads, and any concurrent test would allocate
// and break the zero-allocation window.
#[test]
fn disabled_session_never_allocates() {
    let mut obs = ObsSession::disabled();
    let empty = MetricSet::new();
    assert!(!obs.is_enabled());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..1_000u64 {
        obs.counter_add(names::BUDGET_TICKS, i);
        obs.gauge_max(names::DP_CACHE_PEAK, i);
        obs.histogram_record(names::DP_LEVEL_STEPS, i);
        obs.exemplar(names::DP_FALLBACK_NODES, "l00.0000000000000000");
        obs.charge_steps(i);
        obs.span_open("dp.run", i);
        obs.span_attr("engine", "dp");
        obs.event("budget.trip", i, &[("phase", "dp")]);
        obs.span_close(i + 1);
        obs.merge_metrics(&empty);
        obs.graft_spans(Vec::new());
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "the disabled observability path must not allocate"
    );

    // And tearing it down yields an empty report without surprises.
    let report = obs.finish();
    assert!(report.metrics.is_empty());
    assert!(report.spans.is_empty());
    assert!(report.events.is_empty());
}
