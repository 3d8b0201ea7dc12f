//! Pins the allocations of a catalog parse. A counting global allocator
//! counts every allocation and reallocation while `parse_collection`
//! reads the generated 4-source catalog of the CI's catalog table gate.
//!
//! A fact costs one allocation, its argument vector; a new constant
//! costs one more in the process-wide interner. A parser that allocated
//! a string per token, or built each fact through an intermediate atom,
//! would spend four or more per fact.
//!
//! The library itself forbids `unsafe`; the counting allocator below is
//! test-harness scaffolding, outside that boundary.

use pscds_core::textfmt::parse_collection;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pass-through allocator that counts allocation calls.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// The catalog `scripts/ci.sh` generates for its catalog table gate:
/// source `i` claims `V_i(n_k, k mod 10)` for the `k < 3000` divisible
/// by 2, 3, 5 or 7 respectively.
fn ci_catalog() -> String {
    let mut out = String::new();
    let sources = [
        (2, "0", "1"),
        (3, "0", "1"),
        (5, "1/10", "597/600"),
        (7, "1/8", "427/429"),
    ];
    for (i, (modulus, completeness, soundness)) in sources.into_iter().enumerate() {
        let i = i + 1;
        let _ = writeln!(out, "source S{i} {{\n  view: V{i}(x, y) <- R(x, y)");
        let _ = write!(
            out,
            "  completeness: {completeness}\n  soundness: {soundness}\n  extension:"
        );
        for k in (0..3000).filter(|k| k % modulus == 0) {
            let _ = write!(out, " V{i}(n{k}, {}).", k % 10);
        }
        let _ = writeln!(out, "\n}}");
    }
    out
}

// NOTE: this file must contain exactly one #[test]. The default harness
// runs tests on parallel threads, and any concurrent test would allocate
// inside the measured window.
#[test]
fn a_catalog_parse_allocates_at_most_two_blocks_per_fact() {
    let text = ci_catalog();
    let before = CALLS.load(Ordering::SeqCst);
    let collection = parse_collection(&text).expect("the CI catalog parses");
    let calls = CALLS.load(Ordering::SeqCst) - before;

    let facts = collection.total_extension_size();
    assert_eq!(facts, 1500 + 1000 + 600 + 429);
    let per_fact = calls as f64 / facts as f64;
    eprintln!("{facts} facts, {calls} allocations ({per_fact:.2} per fact)");
    assert!(
        per_fact <= 2.0,
        "{per_fact:.2} allocations per extension fact ({calls} for {facts})"
    );
}
