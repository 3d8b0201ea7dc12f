//! Pins the memory of a compiled confidence circuit. A counting global
//! allocator tracks the live heap bytes, so the test can read both what
//! a compile holds once it returns and the peak it reaches on the way.
//!
//! The library itself forbids `unsafe`; the counting allocator below is
//! test-harness scaffolding, outside that boundary.

use pscds_core::confidence::{compile_circuit, CircuitConfig, SignatureAnalysis};
use pscds_core::govern::Budget;
use pscds_core::paper::example_5_1_scaled;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pass-through allocator that tracks live and peak heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if moved != ptr {
            // The old block was live until the copy finished.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        } else if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
        }
        moved
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;

// NOTE: this file must contain exactly one #[test]. The default harness
// runs tests on parallel threads, and any concurrent test would allocate
// inside the measured window.
#[test]
fn scaled64_circuit_is_small_and_compiles_in_little_memory() {
    let identity = example_5_1_scaled(64)
        .as_identity()
        .expect("identity views");
    let analysis = SignatureAnalysis::new(&identity, 64);
    let budget = Budget::unlimited();
    let config = CircuitConfig::default();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let circuit = compile_circuit(analysis, &budget, &config).expect("unlimited budget");
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let held = LIVE.load(Ordering::SeqCst) - before;

    let edges = circuit.stats().edges;
    let per_edge = held as f64 / edges as f64;
    eprintln!(
        "scaled64: {} nodes, {edges} edges; holds {held} B ({per_edge:.1} B/edge), \
         compile peak {:.2} MiB",
        circuit.node_count(),
        peak as f64 / MIB
    );
    // Measured: 9.8 B per edge (an 8-byte edge, plus the nodes, limbs and
    // weights) and a 2.16 MiB peak (every level's keys, representatives
    // and links before the append rewrites the links into edges).
    assert!(
        per_edge <= 10.0,
        "the circuit holds {per_edge:.1} B per edge, over 10"
    );
    assert!(
        peak as f64 <= 2.25 * MIB,
        "the compile peaked at {:.2} MiB, over 2.25",
        peak as f64 / MIB
    );
}
