//! Pins what a warm circuit query allocates. A counting global allocator
//! tracks every allocation, so the test can read how many blocks a
//! cache hit and each warm query ask for, at two catalog sizes: a warm
//! query must cost the same whatever the number of tuples.
//!
//! The library itself forbids `unsafe`; the counting allocator below is
//! test-harness scaffolding, outside that boundary.

use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::{
    analyze_circuit, analyze_circuit_conditional, analyze_circuit_topk, CircuitConfig,
    CompiledCollection,
};
use pscds_core::govern::Budget;
use pscds_core::paper::example_5_1_scaled;
use pscds_relational::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pass-through allocator that counts allocations (a reallocation
/// counts as one).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// The allocations `run` makes; its result is dropped outside the count.
fn allocations<T>(run: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let kept = run();
    let made = ALLOCATIONS.load(Ordering::SeqCst) - before;
    drop(kept);
    made
}

/// `[hit, point, conditional, top-5]` allocation counts of warm queries
/// on `example_5_1_scaled(r)` at padding `r`.
fn warm_query_allocations(r: usize) -> [usize; 4] {
    let identity: IdentityCollection = example_5_1_scaled(r).as_identity().expect("identity views");
    let padding = r as u64;
    let (budget, config) = (Budget::unlimited(), CircuitConfig::default());
    let mut cache = CompiledCollection::new();
    let (tuple, given) = ([Value::sym("a1")], vec![vec![Value::sym("b2")]]);
    let point = |cache: &mut CompiledCollection| {
        let circuit = cache.get_or_compile(&identity, padding, &budget, &config);
        let analysis = analyze_circuit(&circuit.expect("compiled"));
        analysis.confidence_of_tuple(&identity, &tuple)
    };
    let conditional = |cache: &mut CompiledCollection| {
        let circuit = cache.get_or_compile(&identity, padding, &budget, &config);
        analyze_circuit_conditional(&circuit.expect("compiled"), &identity, &tuple, &given)
    };
    let top = |cache: &mut CompiledCollection| {
        let circuit = cache.get_or_compile(&identity, padding, &budget, &config);
        analyze_circuit_topk(&circuit.expect("compiled"), 5)
    };
    // Warm up: the compile, and the event tables at `e = 0` and at the
    // evidence.
    point(&mut cache).expect("consistent");
    conditional(&mut cache).expect("possible evidence");
    top(&mut cache).expect("consistent");
    let hit = allocations(|| cache.get_or_compile(&identity, padding, &budget, &config));
    let circuit = cache
        .get_or_compile(&identity, padding, &budget, &config)
        .expect("cached");
    let point = allocations(|| analyze_circuit(&circuit).confidence_of_tuple(&identity, &tuple));
    let conditional =
        allocations(|| analyze_circuit_conditional(&circuit, &identity, &tuple, &given));
    let top = allocations(|| analyze_circuit_topk(&circuit, 5));
    assert_eq!((cache.hits(), cache.misses()), (4, 1), "r = {r}");
    [hit, point, conditional, top]
}

// NOTE: this file must contain exactly one #[test]. The default harness
// runs tests on parallel threads, and any concurrent test would allocate
// inside the measured window.
#[test]
fn warm_queries_allocate_the_same_at_every_catalog_size() {
    let small = warm_query_allocations(32);
    let large = warm_query_allocations(64);
    eprintln!("allocations [hit, point, conditional, top-5]: r=32 {small:?}, r=64 {large:?}");
    assert!(small[0] <= 1, "a warm hit allocated {} times", small[0]);
    assert_eq!(
        small, large,
        "[hit, point, conditional, top-5] allocations grew with the catalog"
    );
}
