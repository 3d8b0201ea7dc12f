//! Compile-once confidence circuits: the residual-state DP materialized
//! as a shared-node arithmetic circuit, queried by linear traversals.
//!
//! The DP engine (`dp.rs`) answers one confidence question per run: it
//! recounts the suffix recursion every time it is called, even though the
//! recursion's *shape* — which residual states exist, which `k` choices
//! connect them, which binomial weights those choices carry — depends
//! only on the source collection and the padding, never on the question.
//! This module splits the two concerns:
//!
//! * **Compile** ([`compile_circuit`]): the DP's two sweeps, folding
//!   into a d-DNNF-style arithmetic circuit instead of a count. The DP's
//!   expansion (`dp.rs`) builds each level's sorted, deduplicated
//!   residual states (`residual.rs`) from the root down, and records per
//!   state one link `(k, child position)` for every child that can get
//!   an edge; a bottom-up append sweep then turns each level's states,
//!   deepest first, into arena nodes, reading their edges off the links
//!   in one linear pass — the child kernel runs once per compile, in the
//!   expansion. Every interior node is an Or over the count choices `k`
//!   of one signature class; each disjunct is an And of the binomial leaf
//!   `C(n_j, k)` and the child node its link names; the single accepting
//!   leaf carries weight 1. So the circuit has exactly one node per
//!   distinct live residual state — subtrees the DFS re-enters
//!   exponentially often appear once — and the compile ticks the budget
//!   exactly as the DP's expansion does.
//! * **The arena** is flat, in the compressed-sparse-row shape: one node
//!   array of `(block, edge range, count limb start, vectors)`, one block
//!   per appended level of 8-byte `(weight slot, child)` edges — the
//!   level's links, rewritten in place — a table of the interned binomial
//!   weights with their `k`, and one limb array holding every node's
//!   count back to back, a node's limbs running up to the next node's
//!   start. Nodes come level by level, deepest first, so children carry
//!   smaller ids than their parents. A compile allocates per level, never
//!   per node or per edge.
//! * **Query** ([`analyze_circuit`], [`analyze_circuit_conditional`],
//!   [`analyze_circuit_topk`]): every question reads one **event table**
//!   — for a per-class event vector `e`, the weight `W(e)` and every
//!   `W(e + δ_c)` — built by one kernel of at most two linear passes
//!   over the arena: a bottom-up moment pass (skipped at `e = 0`, whose
//!   values are the compile-time counts) and a top-down reach pass.
//!   Marginals and top-k read the table at `e = 0`; a conditional reads
//!   the table at its evidence. A table stores its per-class confidences,
//!   divided once when it is made, and is memoized on the skeleton per
//!   distinct `e`, so a repeated question costs a lookup: no traversal,
//!   no division, and no copy — every [`ConfidenceAnalysis`] a circuit
//!   returns shares its table and its decomposition.
//!
//! A [`CompiledCollection`] caches compiled circuits per collection, so
//! one compile amortizes across arbitrarily many queries — the
//! compile-once/query-many regime experiment E11 measures. Its instance
//! level keys on the collection itself, not on the class decomposition,
//! so a warm lookup builds no decomposition and allocates nothing; its
//! skeleton level shares one arena among structurally identical
//! collections.
//!
//! The compile and every query are serial: a traversal is one linear
//! sweep over the arena with nothing to partition, so no entry takes a
//! thread count. The resilient ladder's circuit rung records each phase
//! under its own span through `govern::observe_phase`.
//!
//! # Node identity and residual-key canonicalization
//!
//! The arena that answers queries is keyed on the **exact** residual key
//! — the one key the DP sweep uses too (`residual.rs` documents why equal
//! clamped residuals have bit-identical suffix trees). That makes every
//! circuit answer equal to the DFS and DP answers *by construction*: the
//! traversals sum exactly the terms the DFS enumerates, in exact integer
//! arithmetic.
//!
//! On top of the exact arena the compiler builds a **canonical**
//! index, one level at a time from the level's flat keys: within each
//! *orbit* of interchangeable sources, the exact key's per-source
//! `(deficit, margin)` fields are sorted, and the canonical key is packed
//! in the level's layout. Two sources `a`, `b` are interchangeable at level `j` when
//! they claim identical bounds `(min_sound, c)` and the multiset of
//! suffix classes `(signature, size)` from `j` on is invariant under
//! swapping their signature bits — then swapping their residuals relabels the suffix
//! count assignments bijectively without changing feasibility or
//! weights, so the suffix *counts* coincide (DESIGN.md §3.13 gives the
//! argument). The per-class *numerators* do **not** coincide — the
//! relabeling permutes which class a containment is attributed to —
//! which is why the numerator-bearing arena stays exact and the
//! canonical index serves as the sharing certificate:
//! [`CircuitStats::canonical_nodes`] counts the distinct canonical
//! skeletons (the `circuit.nodes` counter), and every canonical
//! collision is `debug_assert`ed to agree on `(count, vectors)` with its
//! representative — the compile-time analogue of the DP's debug replay
//! check.
//!
//! Unlike the DP, which counts the states past its cap by an uncached
//! walk, the compiler keeps every node: the arena *is* the artifact, so
//! expanding more than [`CircuitConfig::max_nodes`] states is an error.

use crate::collection::IdentityCollection;
use crate::confidence::counting::{ClassCounts, ConfidenceAnalysis};
use crate::confidence::dp::{DpStats, Level, Sweep};
use crate::confidence::residual::{KeyTable, Layout, LimbHasher, LimbMap};
use crate::confidence::signature::{SignatureAnalysis, Subtree};
use crate::error::CoreError;
use crate::govern::Budget;
use crate::partition::ParallelConfig;
use pscds_numeric::{Rational, RowCache, UBig};
use pscds_obs::{names, MetricSet, ObsSession};
use pscds_relational::{RelName, Value};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// Budget phase charged once per residual state during compilation.
const COMPILE_PHASE: &str = "confidence::circuit::compile";
/// Budget phase charged once per node per query traversal.
const QUERY_PHASE: &str = "confidence::circuit";

/// Memory limits for circuit compilation (search *steps* are governed by
/// the [`Budget`] passed at the call site; this bounds the arena).
#[derive(Clone, Copy, Debug)]
pub struct CircuitConfig {
    /// Maximum number of residual states a compile expands, each of
    /// which becomes at most one circuit node. Unlike the DP's cache cap
    /// there is no DFS degradation to fall back on — the whole point of
    /// the artifact is the complete shared structure — so exceeding the
    /// cap is an error, not a slowdown.
    pub max_nodes: usize,
}

impl Default for CircuitConfig {
    fn default() -> Self {
        CircuitConfig {
            // Matches the DP's default memo capacity: the arena holds at
            // most one node per live DP residual state.
            max_nodes: 1 << 20,
        }
    }
}

/// Size and sharing counters of one compiled circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitStats {
    /// Interior Or-nodes materialized, keyed on exact residual states
    /// (comparable to the DP's `cache_misses`; the shared accepting leaf
    /// is not counted).
    pub exact_nodes: u64,
    /// Distinct canonical residual skeletons among the interior nodes —
    /// the node count of the count-sharing circuit (`circuit.nodes`).
    pub canonical_nodes: u64,
    /// Weighted edges (Or-disjuncts) across all interior nodes.
    pub edges: u64,
    /// Interior nodes whose canonical key was already taken by an
    /// earlier node: the sharing that residual-key canonicalization
    /// certifies on symmetric instances.
    pub shared_nodes: u64,
}

impl CircuitStats {
    /// Emits the counters into a `pscds-obs` metric set under the
    /// registered `circuit.*` names.
    pub fn record_into(&self, metrics: &mut MetricSet) {
        metrics.counter_add(names::CIRCUIT_NODES, self.canonical_nodes);
        metrics.counter_add(names::CIRCUIT_EXACT_NODES, self.exact_nodes);
        metrics.counter_add(names::CIRCUIT_EDGES, self.edges);
        metrics.counter_add(names::CIRCUIT_SHARED_NODES, self.shared_nodes);
    }
}

/// One Or-disjunct: choose `k = slots[weight].k` tuples of the node's
/// class, weighted by that slot's binomial, and continue in `child`.
/// The expansion records each edge-to-be as a link of the same two
/// `u32`s — `weight` holding `k` and `child` the child's position (see
/// `dp::Level::links`) — and the append rewrites it in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) weight: u32,
    pub(crate) child: u32,
}

/// One circuit node: an Or over the `k` choices of its block's class,
/// whose edges are `edges` of that block. `nodes[0]` is the accepting
/// leaf (no edges, count 1). Children always carry smaller ids than
/// their parents (levels are appended deepest first), which is what
/// makes single-direction passes correct.
#[derive(Clone, Copy)]
struct Node {
    block: u32,
    edges: [u32; 2],
    /// Where the limbs of the weighted world count of the suffix
    /// (`N_suffix`), fixed bottom-up at compile time, start; they end
    /// where the next node's do.
    limbs: u32,
    /// Number of feasible suffix count vectors (saturating, exactly the
    /// DP's aggregation).
    vectors: u64,
}

// The arena's per-edge and per-node records, pinned: an edge is the
// bulk of a circuit's memory (`tests/circuit_alloc.rs` pins the rest).
const _: () = assert!(std::mem::size_of::<Edge>() == 8);
const _: () = assert!(std::mem::size_of::<Node>() == 24);

/// The edges of one appended level: the links its expansion recorded,
/// rewritten in place.
#[derive(Clone, Default)]
struct Block {
    level: u32,
    edges: Vec<Edge>,
}

/// One interned binomial weight `C(n_j, k)` of a level.
#[derive(Clone)]
struct Slot {
    k: u32,
    binom: UBig,
}

/// The node id of a residual state with no feasible completion: such a
/// state gets no node, so `exact_nodes` can undercut the DP's state count.
const NO_NODE: u32 = u32::MAX;

/// The member-free half of a compiled circuit: a flat arena of nodes
/// (children before parents, accepting leaf first), their edges one
/// block per appended level, their counts' limbs, the interned binomial
/// weights, and the compile counters. A skeleton is a pure function of
/// the collection's *projected structure* — the per-source bounds and
/// the `(signature, size)` class sequence — never of which tuples the
/// classes hold, so structurally identical collections can share one (see
/// [`CompiledCollection`]) and the delta engine can patch one in place
/// (see `core::delta`). The event tables it memoizes are member-free
/// too.
#[derive(Clone, Default)]
pub(crate) struct CircuitSkeleton {
    nodes: Vec<Node>,
    /// `blocks[0]` is the accepting leaf's, with no edges.
    blocks: Vec<Block>,
    /// Every node's count, limb runs back to back.
    limbs: Vec<u64>,
    /// The root node, or `None` when the collection admits no possible
    /// world over this domain (the circuit computes the zero constant).
    root: Option<u32>,
    slots: Vec<Slot>,
    stats: CircuitStats,
    /// Every finished event table, by the event vector's shortest form
    /// ([`event_key`]). Filled by queries, never by a compile; a patch
    /// starts it empty.
    tables: RefCell<HashMap<Box<[u64]>, Arc<ClassCounts>>>,
}

/// An event vector's shortest form, the memo's key: trailing zero
/// counts dropped, so the empty event is `[]`.
fn event_key(e: &[u64]) -> &[u64] {
    let len = e
        .iter()
        .rposition(|&count| count > 0)
        .map_or(0, |last| last + 1);
    &e[..len]
}

/// Class `class`'s count in event `e`; counts past `e`'s end are zero.
fn pinned(e: &[u64], class: usize) -> u64 {
    e.get(class).copied().unwrap_or(0)
}

/// `out = binom · k·(k−1)···(k−e+1)` for `k ≥ e`: an edge's weight in
/// the passes at event count `e`, multiplied in place through `spare`.
fn falling_into(binom: &UBig, k: u64, e: u64, out: &mut UBig, spare: &mut UBig) {
    out.set_limbs(binom.limbs());
    for step in 0..e {
        out.mul_u64_into(k - step, spare);
        std::mem::swap(out, spare);
    }
}

impl CircuitSkeleton {
    /// The edges of node `id`.
    fn edges(&self, id: usize) -> &[Edge] {
        let Node { block, edges, .. } = self.nodes[id];
        &self.blocks[block as usize].edges[edges[0] as usize..edges[1] as usize]
    }

    /// The class level of node `id`.
    fn level(&self, id: usize) -> u32 {
        self.blocks[self.nodes[id].block as usize].level
    }

    /// The limbs of node `id`'s count.
    fn count(&self, id: usize) -> &[u64] {
        let end = self
            .nodes
            .get(id + 1)
            .map_or(self.limbs.len(), |next| next.limbs as usize);
        &self.limbs[self.nodes[id].limbs as usize..end]
    }

    /// Feasible count vectors of the whole circuit.
    fn vectors(&self) -> u64 {
        self.root
            .map_or(0, |root| self.nodes[root as usize].vectors)
    }

    /// The event table at the per-class event vector `e` over the
    /// classes of `analysis`, the decomposition the skeleton was compiled
    /// from. `W(e) = Σ_vec Π_j C(n_j, k_j) · k_j·(k_j−1)···(k_j−e_j+1)`
    /// weighs each world by the ways to pin `e_j` ordered distinct
    /// tuples inside its class-`j` selection; the table holds `weight =
    /// W(e)` and `joint[c] = W(e + δ_c)`. At `e = 0` these are the world
    /// count and the class containment numerators (one pinned tuple
    /// weighs a `k`-selection by `k`); for a class-`c` tuple outside an
    /// event `E` of `e_c` class-`c` tuples, `conf(t | E) = joint[c] /
    /// (W(E) · (n_c − e_c))`, since the per-class falling normalizers
    /// cancel except for that one factor. The table stores that
    /// confidence per class (zero when `e_c = n_c`), divided once.
    ///
    /// A memo hit only checks the budget, so a cancel or a deadline
    /// still trips it; a miss runs the kernel, ticking one step per node
    /// per pass, and memoizes the table only once it is whole.
    fn table(
        &self,
        e: &[u64],
        analysis: &SignatureAnalysis,
        budget: &Budget,
    ) -> Result<Arc<ClassCounts>, CoreError> {
        let e = event_key(e);
        if let Some(table) = self.tables.borrow().get(e) {
            budget.check(QUERY_PHASE)?;
            return Ok(Arc::clone(table));
        }
        let classes = analysis.classes();
        let (weight, joint) = self.event_table(e, classes.len(), budget)?;
        let remaining = |class: usize| classes[class].size.saturating_sub(pinned(e, class));
        // A copy made once the passes' buffers and the divisions' scratch
        // are freed packs into their space; the table as computed, grown
        // among them, would pin the gaps between them for the skeleton's
        // lifetime (about 1 MiB of peak resident set on the benchmark's
        // `delta_stream`).
        let table = Arc::new(ClassCounts::new(weight, joint, remaining).clone());
        self.tables
            .borrow_mut()
            .insert(e.into(), Arc::clone(&table));
        Ok(table)
    }

    /// The kernel. The bottom-up moment pass gives every node its suffix
    /// weight `value_e(x) = Σ_edges C(n, k)·ff(k, e_level)·value_e(child)`,
    /// where `ff(k, e) = k·(k−1)···(k−e+1)`; at `e = 0` that is the
    /// compile-time count, so the pass is skipped. The top-down reach
    /// pass then carries `reach_e(x)`, the sum over root-to-`x` paths of
    /// the path's edge weights — the prefix weight the DFS tally keeps
    /// per level. Every root-to-leaf path meets exactly one node per
    /// level (a subtree is a leaf only past the last class), so the sum
    /// over level-`c` nodes of `reach_e · Σ_edges C(n_c, k)·ff(k, e_c+1)
    /// ·value_e(child)` is `W(e + δ_c)`: the same terms the DFS and the
    /// DP's numerator shifting add, in exact integer arithmetic.
    fn event_table(
        &self,
        e: &[u64],
        classes: usize,
        budget: &Budget,
    ) -> Result<(UBig, Vec<UBig>), CoreError> {
        let mut joint = vec![UBig::zero(); classes];
        let Some(root) = self.root else {
            return Ok((UBig::zero(), joint));
        };
        let root = root as usize;
        let moments = if e.iter().any(|&count| count > 0) {
            Some(self.moments(root, e, budget)?)
        } else {
            None
        };
        let value = |id: usize| moments.as_ref().map_or(self.count(id), |v| v[id].limbs());
        let weight = UBig::from_limbs(value(root).to_vec());
        if weight.is_zero() {
            // No world holds the event: every `W(e + δ_c)` is zero too.
            return Ok((weight, joint));
        }
        // Children carry smaller ids than parents, so walking ids
        // downward visits every parent before its children.
        let mut reach = vec![UBig::zero(); root + 1];
        reach[root] = UBig::one();
        let [mut weighted, mut spare, mut path, mut scaled, mut child, mut term, mut contained] =
            std::array::from_fn(|_| UBig::zero());
        for id in (1..=root).rev() {
            budget.tick(QUERY_PHASE)?;
            if reach[id].is_zero() {
                continue; // garbage a patch stranded, or ruled out by `e`
            }
            let level = self.level(id) as usize;
            let pinned = pinned(e, level);
            contained.set_u64(0);
            for edge in self.edges(id) {
                let Slot { k, binom } = &self.slots[edge.weight as usize];
                let k = u64::from(*k);
                if k < pinned {
                    continue; // the falling factorial is zero
                }
                let edge_weight = if pinned == 0 {
                    binom
                } else {
                    falling_into(binom, k, pinned, &mut weighted, &mut spare);
                    &weighted
                };
                reach[id].mul_into(edge_weight, &mut path);
                reach[edge.child as usize].add_assign(&path);
                if k > pinned {
                    edge_weight.mul_u64_into(k - pinned, &mut scaled);
                    child.set_limbs(value(edge.child as usize));
                    scaled.mul_into(&child, &mut term);
                    contained.add_assign(&term);
                }
            }
            reach[id].mul_into(&contained, &mut term);
            joint[level].add_assign(&term);
        }
        Ok((weight, joint))
    }

    /// The kernel's bottom-up moment pass: `value_e` of every node up to
    /// `root`.
    fn moments(&self, root: usize, e: &[u64], budget: &Budget) -> Result<Vec<UBig>, CoreError> {
        let mut value = vec![UBig::zero(); root + 1];
        value[0] = UBig::one();
        let [mut weighted, mut spare, mut term] = std::array::from_fn(|_| UBig::zero());
        for id in 1..=root {
            budget.tick(QUERY_PHASE)?;
            let pinned = pinned(e, self.level(id) as usize);
            let (below, here) = value.split_at_mut(id);
            for edge in self.edges(id) {
                let Slot { k, binom } = &self.slots[edge.weight as usize];
                let k = u64::from(*k);
                if k < pinned {
                    continue; // the falling factorial is zero
                }
                falling_into(binom, k, pinned, &mut weighted, &mut spare);
                weighted.mul_into(&below[edge.child as usize], &mut term);
                here[0].add_assign(&term);
            }
        }
        Ok(value)
    }
}

/// `value` as an arena index.
pub(crate) fn to_u32(value: impl TryInto<u32>) -> Result<u32, CoreError> {
    value.try_into().map_err(|_| CoreError::BadDomain {
        message: "the circuit arena outgrew its u32 indices".to_owned(),
    })
}

/// A source collection's confidence semantics, compiled once.
///
/// Pairs a shareable [`CircuitSkeleton`] with the [`SignatureAnalysis`]
/// the queries resolve tuples against, held behind an `Arc` that every
/// [`ConfidenceAnalysis`] the circuit answers shares. Build with
/// [`compile_circuit`] or through a [`CompiledCollection`] cache.
pub struct CompiledCircuit {
    analysis: Arc<SignatureAnalysis>,
    skeleton: Rc<CircuitSkeleton>,
}

impl CompiledCircuit {
    /// Size and sharing counters of the compile.
    #[must_use]
    pub fn stats(&self) -> CircuitStats {
        self.skeleton.stats
    }

    /// The signature decomposition the circuit was compiled from.
    #[must_use]
    pub fn analysis(&self) -> &SignatureAnalysis {
        &self.analysis
    }

    /// Total arena nodes, including the accepting leaf.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.skeleton.nodes.len()
    }

    /// Rebinds a (shared) skeleton to another instance's decomposition.
    /// Sound exactly when both analyses project to the same structure —
    /// the caller ([`CompiledCollection`], `core::delta`) checks that.
    pub(crate) fn rebind(skeleton: Rc<CircuitSkeleton>, analysis: Arc<SignatureAnalysis>) -> Self {
        CompiledCircuit { analysis, skeleton }
    }

    /// The member-free half, for sharing and patching.
    pub(crate) fn skeleton(&self) -> &Rc<CircuitSkeleton> {
        &self.skeleton
    }

    /// The event table at `e`, memoized on the skeleton.
    fn table(&self, e: &[u64], budget: &Budget) -> Result<Arc<ClassCounts>, CoreError> {
        self.skeleton.table(e, &self.analysis, budget)
    }

    /// The marginal analysis the event table at `e = 0` holds, sharing
    /// the table and the decomposition.
    fn marginals(&self, table: Arc<ClassCounts>) -> ConfidenceAnalysis {
        let analysis = Arc::clone(&self.analysis);
        ConfidenceAnalysis::shared(analysis, table, self.skeleton.vectors())
    }

    /// The marginal analysis when the memo already holds its table: no
    /// traversal and no budget (the delta engine's reuse tier).
    pub(crate) fn memoized_analysis(&self) -> Option<ConfidenceAnalysis> {
        let table = self.skeleton.tables.borrow().get(&[][..]).cloned()?;
        Some(self.marginals(table))
    }

    /// A structural digest of the circuit skeleton: node levels, edge
    /// `k`s, the interned binomial weight table, and child wiring
    /// (FNV-1a over the arena order). Two compiles of structurally
    /// identical collections — e.g. a collection and its textfmt round
    /// trip — digest equal; node counts and numerators are deliberately
    /// excluded so the digest pins the *shape* (the wiring plus the leaf
    /// weights), which the golden tests guard separately from the values.
    #[must_use]
    pub fn skeleton_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let skeleton = &self.skeleton;
        mix(skeleton.nodes.len() as u64);
        mix(u64::from(skeleton.root.map_or(u32::MAX, |r| r)));
        for slot in &skeleton.slots {
            mix(slot.binom.limbs().len() as u64);
            for &limb in slot.binom.limbs() {
                mix(limb);
            }
        }
        for id in 0..skeleton.nodes.len() {
            mix(u64::from(skeleton.level(id)));
            let edges = skeleton.edges(id);
            mix(edges.len() as u64);
            for edge in edges {
                mix(u64::from(skeleton.slots[edge.weight as usize].k));
                mix(u64::from(edge.weight));
                mix(u64::from(edge.child));
            }
        }
        h
    }
}

impl std::fmt::Debug for CompiledCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCircuit")
            .field("nodes", &self.skeleton.nodes.len())
            .field("root", &self.skeleton.root)
            .field("slots", &self.skeleton.slots.len())
            .field("stats", &self.skeleton.stats)
            .finish_non_exhaustive()
    }
}

/// Swaps bits `a` and `b` of a signature.
fn swap_bits(sig: u64, a: usize, b: usize) -> u64 {
    if (sig >> a ^ sig >> b) & 1 == 1 {
        sig ^ (1 << a | 1 << b)
    } else {
        sig
    }
}

/// Computes, per level, the orbit label of each source: `labels[i]` is
/// the smallest source index interchangeable with `i` from that level
/// on (bounds equal and suffix class multiset invariant under the bit
/// swap). Labels are transitive by construction: `b` joins `a`'s orbit
/// only while both are still their own representatives.
fn source_orbits(analysis: &SignatureAnalysis) -> Vec<Vec<usize>> {
    let classes = analysis.classes();
    let bounds = analysis.bounds();
    let m = classes.len();
    let n = analysis.source_count();
    let mut orbits = Vec::with_capacity(m);
    for j in 0..m {
        let mut suffix: Vec<(u64, u64)> =
            classes[j..].iter().map(|c| (c.signature, c.size)).collect();
        suffix.sort_unstable();
        let mut labels: Vec<usize> = (0..n).collect();
        for a in 0..n {
            if labels[a] != a {
                continue; // already absorbed into an earlier orbit
            }
            for b in (a + 1)..n {
                if labels[b] != b {
                    continue;
                }
                if bounds[a] != bounds[b] {
                    continue;
                }
                let mut swapped: Vec<(u64, u64)> = classes[j..]
                    .iter()
                    .map(|c| (swap_bits(c.signature, a, b), c.size))
                    .collect();
                swapped.sort_unstable();
                if swapped == suffix {
                    labels[b] = a;
                }
            }
        }
        orbits.push(labels);
    }
    orbits
}

/// Appends the canonical key of the exact residual key `key` to `out`:
/// each orbit's per-source `(deficit, margin)` fields are sorted (an
/// insertion sort over the orbit's positions), so residual permutations
/// within an orbit collapse. Sources of one orbit share their field
/// widths, since their suffix maxima and saturation caps are equal.
fn canonicalize(
    layout: &Layout,
    key: &[u64],
    labels: &[usize],
    fields: &mut Vec<(u64, u128)>,
    out: &mut Vec<u64>,
) {
    layout.read_fields(key, fields);
    for i in 1..labels.len() {
        let mut at = i;
        for prev in (0..i).rev().filter(|&prev| labels[prev] == labels[i]) {
            if fields[prev] <= fields[at] {
                break;
            }
            fields.swap(prev, at);
            at = prev;
        }
    }
    layout.write_fields(fields, out);
}

/// The residual states a compile leaves behind, kept *outside*
/// [`CompiledCircuit`] so the delta engine can resume it: per class
/// level, every state compiled so far — its packed key (`words(j)` limbs)
/// and the node it got ([`NO_NODE`] for none), at one position. Valid
/// only against the skeleton the same compile (or patch) produced.
#[derive(Default)]
pub(crate) struct CircuitMemo {
    keys: Vec<KeyTable>,
    ids: Vec<Vec<u32>>,
    /// Arena length right after the last from-scratch compile. Patches
    /// strand the old prefix nodes as unreachable garbage; once the
    /// arena exceeds twice this, callers should recompile.
    pub(crate) compiled_len: usize,
}

impl CircuitMemo {
    /// The states the memo holds at level `j`.
    #[cfg(test)]
    pub(crate) fn states_at(&self, j: usize) -> usize {
        self.ids.get(j).map_or(0, Vec::len)
    }
}

/// Drops every level a delta touching classes `..=max_touched` can
/// invalidate — all residual states at those levels; states at deeper
/// levels only read the untouched suffix classes — and returns how many
/// states were dropped (the `delta.states_invalidated` quantity).
pub(crate) fn invalidate_prefix(memo: &mut CircuitMemo, max_touched: usize) -> u64 {
    let dropped = max_touched + 1;
    (memo.keys.iter_mut().take(dropped)).for_each(|keys| *keys = KeyTable::default());
    let ids = memo.ids.iter_mut().take(dropped);
    ids.map(|ids| std::mem::take(ids).len() as u64).sum()
}

impl CircuitSkeleton {
    /// The bottom-up sweep over the levels the expansion produced,
    /// deepest first: each state becomes a node with one edge per link
    /// whose child got a node (none when no link does), each level's
    /// nodes join the canonical index and `memo`'s level (the level below
    /// is dropped unless `keep`). A link's target indexes `memo`'s level
    /// below, which holds the states appended just before and those a
    /// patch kept, in the expansion's numbering; past the last class it is
    /// the accepting leaf. The level's links are rewritten in place into
    /// its block of edges — `k` to its weight slot, the position to the
    /// child's node, links to no node compacted away — so no second copy
    /// of the edges is made. Returns the root node.
    fn append(
        &mut self,
        sweep: &Sweep,
        mut levels: Vec<Level>,
        memo: &mut CircuitMemo,
        keep: bool,
        budget: &Budget,
    ) -> Result<Option<u32>, CoreError> {
        let analysis = sweep.analysis;
        let orbits = source_orbits(analysis);
        self.nodes
            .reserve_exact(levels.iter().map(Level::len).sum());
        let mut rows = RowCache::new();
        let (mut count, mut value, mut term) = (UBig::zero(), UBig::zero(), UBig::zero());
        let mut slots = Vec::new();
        for j in (0..levels.len()).rev() {
            budget.check(COMPILE_PHASE)?;
            let mut level = std::mem::take(&mut levels[j]);
            let (keys, mut edges) = (
                std::mem::take(&mut level.keys),
                std::mem::take(&mut level.links),
            );
            let row = rows.intern(analysis.classes()[j].size);
            #[cfg(debug_assertions)]
            if let Some(keys) = memo.keys.get_mut(j + 1) {
                keys.index();
            }
            #[cfg(debug_assertions)]
            let mut reps = level.states(0..keys.len());
            let (upper, lower) = memo.ids.split_at_mut(j + 1);
            let (ids, below_ids) = (&mut upper[j], lower.first().map_or(&[0][..], Vec::as_slice));
            let first = ids.len();
            ids.reserve_exact(keys.len());
            let block = to_u32(self.blocks.len())?;
            // Binomial weight slots of this level, by `k`.
            slots.clear();
            let (mut read, mut write) = (0, 0);
            for &end in &level.ends {
                let first_edge = write;
                count.set_u64(0);
                let mut vectors = 0u64;
                for at in read..end {
                    let Edge { weight: k, child } = edges[at];
                    let child = below_ids[child as usize];
                    if child == NO_NODE {
                        continue;
                    }
                    if slots.len() <= k as usize {
                        slots.resize(k as usize + 1, NO_NODE);
                    }
                    if slots[k as usize] == NO_NODE {
                        slots[k as usize] = to_u32(self.slots.len())?;
                        let binom = rows.get(row, u64::from(k)).clone();
                        self.slots.push(Slot { k, binom });
                    }
                    let weight = slots[k as usize];
                    value.set_limbs(self.count(child as usize));
                    self.slots[weight as usize]
                        .binom
                        .mul_into(&value, &mut term);
                    count.add_assign(&term);
                    vectors = vectors.saturating_add(self.nodes[child as usize].vectors);
                    edges[write] = Edge { weight, child };
                    write += 1;
                }
                read = end;
                #[cfg(debug_assertions)]
                if let Some(rep) = reps.next() {
                    let below = (memo.keys.get(j + 1), below_ids);
                    self.check_links(sweep, j, rep, below, &edges[first_edge..write]);
                }
                let id = if write == first_edge {
                    NO_NODE
                } else {
                    let limbs = to_u32(self.limbs.len())?;
                    self.limbs.extend_from_slice(count.limbs());
                    let id = to_u32(self.nodes.len())?;
                    self.nodes.push(Node {
                        block,
                        edges: [to_u32(first_edge)?, to_u32(write)?],
                        limbs,
                        vectors,
                    });
                    self.stats.exact_nodes += 1;
                    self.stats.edges += (write - first_edge) as u64;
                    id
                };
                ids.push(id);
            }
            edges.truncate(write);
            edges.shrink_to_fit();
            self.blocks.push(Block {
                level: to_u32(j)?,
                edges,
            });
            memo.keys[j].append(keys);
            let layout = sweep.residual.layout(j);
            self.share(layout, &memo.keys[j], &memo.ids[j], first, &orbits[j]);
            if let Some(below) = memo.keys.get_mut(j + 1) {
                if keep {
                    below.unindex();
                } else {
                    (*below, memo.ids[j + 1]) = (KeyTable::default(), Vec::new());
                }
            }
        }
        self.nodes.shrink_to_fit();
        self.limbs.shrink_to_fit();
        let root = memo.ids[0].first().copied();
        Ok(root.filter(|&id| id != NO_NODE))
    }

    /// Debug check of one state's links against the child kernel, like
    /// the DP's replay check: re-walks the children of the state's
    /// representative `(t, w)` at level `j`, finds each inner child by key
    /// in the (indexed) keys of the level below and its node through
    /// their `ids`, and `debug_assert`s that the `edges` the state's links
    /// became are exactly the children that yield an edge — a feasible
    /// leaf, or an inner child with a node — with the same `k` and the
    /// same child.
    #[cfg(debug_assertions)]
    fn check_links(
        &self,
        sweep: &Sweep,
        j: usize,
        (t, w): (&[u64], u64),
        (keys, ids): (Option<&KeyTable>, &[u32]),
        edges: &[Edge],
    ) {
        let (mut t, mut packed, mut want) = (t.to_vec(), Vec::new(), Vec::new());
        let walked =
            (sweep.analysis).children::<CoreError>(j, &mut t, &mut { w }, |k, child, t, w| {
                let child = match child {
                    Subtree::Leaf { feasible: true } => 0,
                    Subtree::Leaf { .. } | Subtree::Pruned => return Ok(()),
                    Subtree::Inner => {
                        sweep.residual.pack_into(j + 1, t, *w, &mut packed);
                        let found = keys.and_then(|keys| keys.find(&packed)).map(|at| ids[at]);
                        debug_assert!(found.is_some(), "the expansion kept every live child");
                        found.unwrap_or(NO_NODE)
                    }
                };
                if child != NO_NODE {
                    want.push((to_u32(k)?, child));
                }
                Ok(())
            });
        debug_assert!(walked.is_ok());
        let got: Vec<(u32, u32)> = (edges.iter())
            .map(|edge| (self.slots[edge.weight as usize].k, edge.child))
            .collect();
        debug_assert_eq!(got, want, "level {j}: the links disagree with the kernel");
    }

    /// Registers one appended level's nodes in the canonical index: sorts
    /// their canonical keys, flat in one buffer, and counts the distinct
    /// ones. Canonical-equal nodes must agree on the count aggregates —
    /// the canonicalization soundness check. They need NOT agree on
    /// per-class numerators, which is exactly why the answering arena
    /// stays exact.
    fn share(
        &mut self,
        layout: &Layout,
        keys: &KeyTable,
        ids: &[u32],
        first: usize,
        labels: &[usize],
    ) {
        let (mut canon, mut order, mut fields) = (Vec::new(), Vec::new(), Vec::new());
        for (at, &id) in ids.iter().enumerate().skip(first) {
            if id != NO_NODE {
                let start = canon.len();
                canonicalize(layout, keys.key(at), labels, &mut fields, &mut canon);
                order.push((start, id));
            }
        }
        let width = layout.words();
        let key = |at: usize| &canon[at..at + width];
        order.sort_unstable_by(|a, b| key(a.0).cmp(key(b.0)));
        let mut shared = 0;
        for pair in order
            .windows(2)
            .filter(|pair| key(pair[0].0) == key(pair[1].0))
        {
            shared += 1;
            let (rep, node) = (pair[0].1 as usize, pair[1].1 as usize);
            let level = self.level(node);
            debug_assert_eq!(
                self.nodes[rep].vectors, self.nodes[node].vectors,
                "canonical residual collision at level {level}: completion counts differ"
            );
            debug_assert_eq!(
                self.count(rep),
                self.count(node),
                "canonical residual collision at level {level}: world counts differ"
            );
        }
        self.stats.shared_nodes += shared;
        self.stats.canonical_nodes += order.len() as u64 - shared;
    }
}

/// Compiles a source collection's per-class count structure into a
/// shared-node arithmetic circuit. One compile pays roughly one DP run;
/// every [`analyze_circuit`] / conditional / top-k query afterwards is
/// a linear traversal of the arena.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out mid-compile;
/// [`CoreError::BadDomain`] when the compile would expand more than
/// [`CircuitConfig::max_nodes`] states.
pub fn compile_circuit(
    analysis: SignatureAnalysis,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<CompiledCircuit, CoreError> {
    Ok(compile_onto(Arc::new(analysis), None, false, budget, config)?.0)
}

/// [`compile_circuit`] plus the compile's residual states, so the
/// caller (the delta engine) can later resume the compile with
/// [`patch_compile`].
///
/// # Errors
/// As [`compile_circuit`].
pub(crate) fn compile_with_memo(
    analysis: Arc<SignatureAnalysis>,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<(CompiledCircuit, CircuitMemo), CoreError> {
    compile_onto(analysis, None, true, budget, config)
}

/// Resumes a compile after a delta changed the sizes of classes
/// `..=max_touched` (bounds and the class signature sequence must be
/// unchanged — the delta engine recompiles from scratch otherwise). The
/// caller has already dropped `memo`'s levels `..=max_touched` with
/// [`invalidate_prefix`]; the expansion stops at every state a kept
/// level holds, the new nodes append after the old arena, and the stale
/// prefix becomes unreachable garbage (bounded by the recompile
/// threshold on `CircuitMemo::compiled_len`). Returns the patched
/// circuit and the number of freshly materialized nodes
/// (`delta.nodes_patched`).
///
/// # Errors
/// As [`compile_circuit`].
pub(crate) fn patch_compile(
    circuit: CompiledCircuit,
    memo: CircuitMemo,
    analysis: Arc<SignatureAnalysis>,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<(CompiledCircuit, CircuitMemo, u64), CoreError> {
    debug_assert_eq!(
        circuit.analysis.classes().len(),
        analysis.classes().len(),
        "patch_compile requires an unchanged class sequence"
    );
    let arena = Rc::try_unwrap(circuit.skeleton).unwrap_or_else(|shared| (*shared).clone());
    let old_len = arena.nodes.len();
    let (circuit, memo) = compile_onto(analysis, Some((arena, memo)), true, budget, config)?;
    let patched = (circuit.node_count() - old_len) as u64;
    Ok((circuit, memo, patched))
}

/// The one compile driver: the DP's expansion of every state the memo of
/// a `resumed` compile lacks (one tick for the root and one per child a
/// state generates — the ticks of a memoized walk), then the bottom-up
/// append of their nodes onto its arena, or onto a fresh one.
fn compile_onto(
    analysis: Arc<SignatureAnalysis>,
    resumed: Option<(CircuitSkeleton, CircuitMemo)>,
    keep: bool,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<(CompiledCircuit, CircuitMemo), CoreError> {
    let m = analysis.classes().len();
    let fresh = resumed.is_none();
    let (mut arena, mut memo) = match resumed {
        Some((arena, memo)) => {
            // The tables answered for the arena before the patch.
            arena.tables.take();
            (arena, memo)
        }
        None => {
            // The accepting leaf: no edges, count 1.
            let leaf = Node {
                block: 0,
                edges: [0, 0],
                limbs: 0,
                vectors: 1,
            };
            let block = Block {
                level: to_u32(m)?,
                edges: Vec::new(),
            };
            let arena = CircuitSkeleton {
                nodes: vec![leaf],
                blocks: vec![block],
                limbs: vec![1],
                ..CircuitSkeleton::default()
            };
            (arena, CircuitMemo::default())
        }
    };
    memo.keys.resize_with(m, KeyTable::default);
    memo.ids.resize_with(m, Vec::new);
    let serial = ParallelConfig::serial();
    let sweep = Sweep::new(&analysis, &serial, COMPILE_PHASE);
    memo.keys.iter_mut().for_each(KeyTable::index);
    let (stats, no_obs) = (&mut DpStats::default(), &mut ObsSession::disabled());
    let expanded = sweep.expand::<true>(budget, config.max_nodes, &memo.keys, stats, no_obs);
    memo.keys.iter_mut().for_each(KeyTable::unindex);
    let (levels, plan) = expanded?;
    arena.root = match levels {
        _ if !plan.complete => {
            return Err(CoreError::BadDomain {
                message: format!(
                    "circuit compilation exceeded the {} node cap (raise \
                     CircuitConfig::max_nodes or use the DP engine)",
                    config.max_nodes
                ),
            })
        }
        Some(levels) => arena.append(&sweep, levels, &mut memo, keep, budget)?,
        None => {
            // The root is a leaf or pruned: the one tick of its walk.
            budget.tick(COMPILE_PHASE)?;
            let root = analysis.subtree(0, &vec![0; analysis.source_count()], 0);
            (root == Subtree::Leaf { feasible: true }).then_some(0)
        }
    };
    if fresh {
        memo.compiled_len = arena.nodes.len();
    }
    let skeleton = Rc::new(arena);
    Ok((CompiledCircuit { analysis, skeleton }, memo))
}

/// All tuple confidences from a compiled circuit: the event table at
/// `e = 0` — the bottom-up counts were fixed at compile time, so a cold
/// table costs the single top-down reach pass, and a memoized one a
/// lookup — assembled into the same [`ConfidenceAnalysis`] the DFS and
/// DP engines produce (bit-identical total, numerators, and feasible
/// vector count).
///
/// # Panics
/// Never — the unlimited budget cannot trip; see
/// [`analyze_circuit_budgeted`] for the governed form.
#[must_use]
pub fn analyze_circuit(circuit: &CompiledCircuit) -> ConfidenceAnalysis {
    analyze_circuit_budgeted(circuit, &Budget::unlimited())
        // lint-allow(no-panic): an unlimited budget has no deadline, step cap, or cancel flag to trip
        .expect("an unlimited budget never interrupts the traversal")
}

/// Budget-governed variant of [`analyze_circuit`]: one tick per node
/// when the table is cold, a budget check when it is memoized.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out mid-pass.
pub fn analyze_circuit_budgeted(
    circuit: &CompiledCircuit,
    budget: &Budget,
) -> Result<ConfidenceAnalysis, CoreError> {
    Ok(circuit.marginals(circuit.table(&[], budget)?))
}

/// Per-class observed-tuple counts for a conditioning event, resolved
/// against the circuit's signature decomposition (duplicates collapse).
fn event_counts(
    circuit: &CompiledCircuit,
    collection: &IdentityCollection,
    given: &[Vec<Value>],
) -> Result<Vec<u64>, CoreError> {
    let mut counts = vec![0; circuit.analysis.classes().len()];
    let distinct: BTreeSet<&[Value]> = given.iter().map(Vec::as_slice).collect();
    for tuple in distinct {
        let idx = circuit
            .analysis
            .class_of(tuple, collection.signature_of(tuple))?;
        counts[idx] += 1;
    }
    Ok(counts)
}

/// Conditional confidence `confidence(t | E)`: the fraction of possible
/// worlds containing every tuple of `E` that also contain `t` — the §5
/// semantics with the uniform distribution restricted to the worlds
/// satisfying the observation. Read off the event table at `E`'s
/// per-class counts `e` as `W(e + δ_c) / (W(e) · (n_c − e_c))`, where
/// `c` is `t`'s class: one table per distinct evidence serves every
/// target tuple.
///
/// # Errors
/// [`CoreError::InconsistentCollection`] when `poss(S)` is empty;
/// [`CoreError::BadDomain`] when `E` itself has probability zero (no
/// possible world contains it) or a tuple is outside the padded domain.
pub fn analyze_circuit_conditional(
    circuit: &CompiledCircuit,
    collection: &IdentityCollection,
    tuple: &[Value],
    given: &[Vec<Value>],
) -> Result<Rational, CoreError> {
    analyze_circuit_conditional_budgeted(circuit, collection, tuple, given, &Budget::unlimited())
}

/// Budget-governed variant of [`analyze_circuit_conditional`]. A cold
/// table ticks one step per node per pass: the moment pass (none for an
/// empty `E`), then the reach pass (none when `W(E)` is zero). A
/// memoized one only checks the budget.
///
/// # Errors
/// As [`analyze_circuit_conditional`], plus
/// [`CoreError::BudgetExceeded`].
pub fn analyze_circuit_conditional_budgeted(
    circuit: &CompiledCircuit,
    collection: &IdentityCollection,
    tuple: &[Value],
    given: &[Vec<Value>],
    budget: &Budget,
) -> Result<Rational, CoreError> {
    if circuit.skeleton.root.is_none() {
        return Err(CoreError::InconsistentCollection);
    }
    let observed = event_counts(circuit, collection, given)?;
    let table = circuit.table(&observed, budget)?;
    if table.weight.is_zero() {
        return Err(CoreError::BadDomain {
            message: "conditioning event has probability zero in poss(S)".to_owned(),
        });
    }
    if given.iter().any(|g| g.as_slice() == tuple) {
        return Ok(Rational::one());
    }
    // Zero when the event already pins every tuple of `t`'s class: no
    // world holds one more.
    let class = circuit
        .analysis
        .class_of(tuple, collection.signature_of(tuple))?;
    Ok(table.confidence(class).clone())
}

/// The `k` highest-confidence named extension tuples, from the event
/// table at `e = 0`: ties broken by tuple order (ascending), matching
/// the CLI's rendering order, so the result is a prefix of the full
/// sorted confidence table. Padding (unnamed) facts are not ranked.
///
/// # Errors
/// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
pub fn analyze_circuit_topk(
    circuit: &CompiledCircuit,
    k: usize,
) -> Result<Vec<(Vec<Value>, Rational)>, CoreError> {
    analyze_circuit_topk_budgeted(circuit, k, &Budget::unlimited())
}

/// Budget-governed variant of [`analyze_circuit_topk`]: ticks as
/// [`analyze_circuit_budgeted`].
///
/// # Errors
/// As [`analyze_circuit_topk`], plus [`CoreError::BudgetExceeded`].
pub fn analyze_circuit_topk_budgeted(
    circuit: &CompiledCircuit,
    k: usize,
    budget: &Budget,
) -> Result<Vec<(Vec<Value>, Rational)>, CoreError> {
    let table = circuit.table(&[], budget)?;
    if table.weight.is_zero() {
        return Err(CoreError::InconsistentCollection);
    }
    let conf = |class| table.confidence(class);
    Ok(circuit
        .analysis
        .ranked_members(|a, b| conf(b).cmp(conf(a)), k)
        .into_iter()
        .map(|(tuple, class)| (tuple.to_vec(), conf(class).clone()))
        .collect())
}

/// What an instance-level cache entry keys on, read off the collection
/// in one pass: the relation, then the arity and the padding, then per
/// source in order its completeness, `⌈s·|v|⌉` and tuple count, then
/// every tuple, flattened source by source. The decomposition a query
/// resolves against is a function of exactly these — source `i`'s
/// tuples are the members of the classes with bit `i` set, and back —
/// so two collections share a key iff they share a decomposition.
/// Source names stay out, and two soundness bounds with the same ceiling
/// share a key. The counts fix where each source's tuples end and the
/// arity each tuple's width, so two different tuple lists never flatten
/// alike — unlike a rendering, which cannot tell `("a,", "b")` from
/// `("a", ",b")`, or `1` from `"1"`.
struct InstanceKey {
    relation: RelName,
    header: Box<[u64]>,
    values: Box<[Value]>,
}

/// The key's limbs after the relation.
fn key_header(collection: &IdentityCollection, padding: u64) -> impl Iterator<Item = u64> + '_ {
    let sources = collection.sources.iter().flat_map(|source| {
        let (bound, len) = (source.completeness, source.tuples.len() as u64);
        [
            bound.num(),
            bound.den(),
            source.soundness.ceil_mul(len),
            len,
        ]
    });
    [collection.arity as u64, padding]
        .into_iter()
        .chain(sources)
}

/// The key's values: every tuple, source by source.
fn key_values(collection: &IdentityCollection) -> impl Iterator<Item = &Value> {
    (collection.sources.iter()).flat_map(|source| source.tuples.iter().flatten())
}

impl InstanceKey {
    /// The key's hash, streamed off the collection without allocating.
    fn fingerprint(collection: &IdentityCollection, padding: u64) -> u64 {
        let mut hasher = LimbHasher::default();
        collection.relation.hash(&mut hasher);
        key_header(collection, padding).for_each(|limb| hasher.write_u64(limb));
        key_values(collection).for_each(|value| value.hash(&mut hasher));
        hasher.finish()
    }

    fn new(collection: &IdentityCollection, padding: u64) -> Self {
        InstanceKey {
            relation: collection.relation,
            header: key_header(collection, padding).collect(),
            values: key_values(collection).copied().collect(),
        }
    }

    /// `true` iff the collection at `padding` has this key, compared
    /// element by element without allocating.
    fn matches(&self, collection: &IdentityCollection, padding: u64) -> bool {
        self.relation == collection.relation
            && key_header(collection, padding).eq(self.header.iter().copied())
            && key_values(collection).eq(self.values.iter())
    }
}

/// A two-level cache of compiled circuits, so one compile amortizes
/// across many queries *and* across structurally identical collections.
///
/// * The **instance** level keys on the collection itself
///   ([`InstanceKey`]): relation, arity, padding, per-source bounds and
///   tuple counts, and every tuple. A lookup streams that key off the
///   collection into a fingerprint, then compares the few entries
///   filed under it element by element — no decomposition is built and
///   nothing is allocated. An instance hit returns the very same
///   [`CompiledCircuit`].
/// * The **skeleton** level keys on the member-free projection — the
///   bounds signature plus the `(signature, size)` class sequence —
///   which is exactly what the compiled arena is a function of (the
///   same projection the shared DP cache interns as a context). Only an
///   instance miss builds the [`SignatureAnalysis`]; one that hits here
///   skips the compile entirely: the shared [`CircuitSkeleton`] is
///   rebound to the new instance's decomposition, and the reuse is
///   reported as a *cross-collection hit* (`circuit.cross_hits`).
#[derive(Default)]
pub struct CompiledCollection {
    /// Instance entries by key fingerprint.
    circuits: LimbMap<u64, Vec<(InstanceKey, Rc<CompiledCircuit>)>>,
    skeletons: HashMap<Box<[u64]>, Rc<CircuitSkeleton>>,
    hits: u64,
    misses: u64,
    cross_hits: u64,
}

impl CompiledCollection {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached circuit for the collection —
    /// rebinding a structurally identical collection's skeleton when
    /// only the member tuples differ — or compiles (charging `budget`)
    /// and caches it.
    ///
    /// # Errors
    /// As [`compile_circuit`].
    pub fn get_or_compile(
        &mut self,
        collection: &IdentityCollection,
        padding: u64,
        budget: &Budget,
        config: &CircuitConfig,
    ) -> Result<Rc<CompiledCircuit>, CoreError> {
        let fingerprint = InstanceKey::fingerprint(collection, padding);
        let filed = self
            .circuits
            .get(&fingerprint)
            .map_or(&[][..], Vec::as_slice);
        if let Some((_, circuit)) = filed
            .iter()
            .find(|(key, _)| key.matches(collection, padding))
        {
            self.hits += 1;
            return Ok(Rc::clone(circuit));
        }
        let analysis = SignatureAnalysis::new(collection, padding);
        let shape = analysis.structure();
        let circuit = if let Some(skeleton) = self.skeletons.get(&shape) {
            self.cross_hits += 1;
            CompiledCircuit::rebind(Rc::clone(skeleton), Arc::new(analysis))
        } else {
            let circuit = compile_circuit(analysis, budget, config)?;
            self.misses += 1;
            self.skeletons.insert(shape, Rc::clone(circuit.skeleton()));
            circuit
        };
        let circuit = Rc::new(circuit);
        let key = InstanceKey::new(collection, padding);
        let filed = self.circuits.entry(fingerprint).or_default();
        filed.push((key, Rc::clone(&circuit)));
        Ok(circuit)
    }

    /// Instance-level cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (compiles) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cross-collection hits so far: instance misses answered by
    /// rebinding another collection's structurally identical skeleton.
    #[must_use]
    pub fn cross_hits(&self) -> u64 {
        self.cross_hits
    }

    /// Number of distinct circuits cached (instance level).
    #[must_use]
    pub fn len(&self) -> usize {
        self.circuits.values().map(Vec::len).sum()
    }

    /// `true` iff no circuit has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Emits the hit/miss/cross-hit counters into a `pscds-obs` metric
    /// set.
    pub fn record_into(&self, metrics: &mut MetricSet) {
        metrics.counter_add(names::CIRCUIT_COMPILE_HITS, self.hits);
        metrics.counter_add(names::CIRCUIT_COMPILE_MISSES, self.misses);
        metrics.counter_add(names::CIRCUIT_CROSS_HITS, self.cross_hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::SourceCollection;
    use crate::confidence::dp::{count_dp_observed, DpConfig};
    use crate::descriptor::SourceDescriptor;
    use crate::paper::example_5_1;
    use crate::partition::ParallelConfig;
    use crate::resilient::tests_support::wide_slack_identity;
    use pscds_numeric::Frac;
    use pscds_obs::ObsSession;

    fn compile_example(m: u64) -> CompiledCircuit {
        let collection = example_5_1().as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&collection, m);
        compile_circuit(analysis, &Budget::unlimited(), &CircuitConfig::default()).unwrap()
    }

    fn assert_same_analysis(a: &ConfidenceAnalysis, b: &ConfidenceAnalysis) {
        assert_eq!(a.world_count(), b.world_count());
        assert_eq!(a.feasible_vectors(), b.feasible_vectors());
        let classes = a.signature_analysis().classes();
        assert_eq!(classes.len(), b.signature_analysis().classes().len());
        for idx in 0..classes.len() {
            assert_eq!(
                a.class_confidence(idx).unwrap(),
                b.class_confidence(idx).unwrap(),
                "class {idx} diverges"
            );
        }
    }

    #[test]
    fn circuit_matches_dfs_and_dp_on_example_5_1() {
        let collection = example_5_1().as_identity().unwrap();
        for m in [0u64, 1, 3, 17, 100] {
            let padding = m;
            let circuit = compile_example(m);
            let from_circuit = analyze_circuit(&circuit);
            let dfs = ConfidenceAnalysis::analyze(&collection, padding);
            let (dp, _) = count_dp_observed(
                SignatureAnalysis::new(&collection, padding),
                &Budget::unlimited(),
                &ParallelConfig::serial(),
                &DpConfig::default(),
                &mut ObsSession::disabled(),
            )
            .unwrap();
            assert_same_analysis(&from_circuit, &dfs);
            assert_same_analysis(&from_circuit, &dp);
        }
    }

    #[test]
    fn circuit_collapses_wide_slack_instances() {
        let collection = wide_slack_identity(6, 9);
        let analysis = SignatureAnalysis::new(&collection, 0);
        let budget = Budget::unlimited();
        let circuit = compile_circuit(analysis, &budget, &CircuitConfig::default()).unwrap();
        // 7^6 ≈ 118k feasible vectors, but only a few hundred residual
        // states — and the compile visited each once.
        assert!(
            budget.steps() < 2_000,
            "compile took {} steps",
            budget.steps()
        );
        let from_circuit = analyze_circuit(&circuit);
        let dfs = ConfidenceAnalysis::analyze(&collection, 0);
        assert_same_analysis(&from_circuit, &dfs);
    }

    /// Interchangeable sources whose *margins* vary with the chosen
    /// counts: disjoint equal-size extensions, completeness 1/4 (so the
    /// margin tracks the world size), soundness 1/4, plus shared
    /// padding. Choosing `(k₀, k₁) = (1, 2)` versus `(2, 1)` yields
    /// distinct exact residuals that are permutations of each other —
    /// exactly what the canonical index must collapse. (With
    /// completeness 0 — the wide-slack family — every live residual is
    /// already identical and the exact memo alone collapses the tree.)
    fn symmetric_pair() -> IdentityCollection {
        let sources: Vec<SourceDescriptor> = (0..2)
            .map(|i| {
                let ext: Vec<[Value; 1]> =
                    (0..4).map(|j| [Value::sym(&format!("x{i}_{j}"))]).collect();
                SourceDescriptor::identity(
                    format!("S{i}"),
                    &format!("V{i}"),
                    "R",
                    1,
                    ext,
                    Frac::new(1, 4),
                    Frac::new(1, 4),
                )
                .unwrap()
            })
            .collect();
        SourceCollection::from_sources(sources)
            .as_identity()
            .unwrap()
    }

    #[test]
    fn symmetric_sources_share_canonical_nodes() {
        let collection = symmetric_pair();
        let analysis = SignatureAnalysis::new(&collection, 4);
        let circuit =
            compile_circuit(analysis, &Budget::unlimited(), &CircuitConfig::default()).unwrap();
        let stats = circuit.stats();
        assert!(stats.shared_nodes > 0, "no canonical sharing: {stats:?}");
        assert!(stats.canonical_nodes < stats.exact_nodes);
        assert_eq!(
            stats.canonical_nodes + stats.shared_nodes,
            stats.exact_nodes
        );
        // The shared circuit still answers exactly.
        let from_circuit = analyze_circuit(&circuit);
        let dfs = ConfidenceAnalysis::analyze(&collection, 4);
        assert_same_analysis(&from_circuit, &dfs);
    }

    #[test]
    fn compile_respects_the_budget() {
        let collection = wide_slack_identity(6, 9);
        let analysis = SignatureAnalysis::new(&collection, 0);
        let err = compile_circuit(
            analysis,
            &Budget::with_max_steps(10),
            &CircuitConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn compile_respects_the_node_cap() {
        let collection = wide_slack_identity(6, 9);
        let analysis = SignatureAnalysis::new(&collection, 0);
        let err = compile_circuit(
            analysis,
            &Budget::unlimited(),
            &CircuitConfig { max_nodes: 3 },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
    }

    #[test]
    fn inconsistent_collection_compiles_to_the_zero_circuit() {
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let collection = SourceCollection::from_sources([s1, s2])
            .as_identity()
            .unwrap();
        let analysis = SignatureAnalysis::new(&collection, 0);
        let circuit =
            compile_circuit(analysis, &Budget::unlimited(), &CircuitConfig::default()).unwrap();
        let result = analyze_circuit(&circuit);
        assert!(!result.is_consistent());
        assert!(result.world_count().is_zero());
        assert!(matches!(
            analyze_circuit_topk(&circuit, 3),
            Err(CoreError::InconsistentCollection)
        ));
        assert!(matches!(
            analyze_circuit_conditional(&circuit, &collection, &[Value::sym("a")], &[]),
            Err(CoreError::InconsistentCollection)
        ));
    }

    #[test]
    fn conditional_on_the_empty_event_is_plain_confidence() {
        let collection = example_5_1().as_identity().unwrap();
        let circuit = compile_example(3);
        let plain = analyze_circuit(&circuit);
        for tuple in [[Value::sym("a")], [Value::sym("b")], [Value::sym("c")]] {
            let conditional =
                analyze_circuit_conditional(&circuit, &collection, &tuple, &[]).unwrap();
            let direct = plain.confidence_of_tuple(&collection, &tuple).unwrap();
            assert_eq!(conditional, direct);
        }
    }

    #[test]
    fn conditional_matches_the_brute_force_oracle() {
        use crate::confidence::worlds::PossibleWorlds;
        use crate::paper::example_5_1_domain;
        use pscds_relational::Fact;
        let source_collection = example_5_1();
        let identity = source_collection.as_identity().unwrap();
        let m = 2usize;
        let worlds = PossibleWorlds::enumerate(&source_collection, &example_5_1_domain(m)).unwrap();
        let circuit = compile_example(m as u64);
        let named = [Value::sym("a"), Value::sym("b"), Value::sym("c")];
        let bit = |fact: &Value| {
            worlds
                .universe()
                .index_of(&Fact::new("R", [*fact]))
                .unwrap()
        };
        // Conditioning on an observed tuple: probability one.
        let b = vec![Value::sym("b")];
        assert!(
            analyze_circuit_conditional(&circuit, &identity, &b, std::slice::from_ref(&b))
                .unwrap()
                .is_one()
        );
        // Single- and two-tuple events versus exhaustive enumeration.
        for target in &named {
            for given in &named {
                if given == target {
                    continue;
                }
                let cond =
                    analyze_circuit_conditional(&circuit, &identity, &[*target], &[vec![*given]])
                        .unwrap();
                let (gi, ti) = (bit(given), bit(target));
                let base = worlds.masks().iter().filter(|&&w| w >> gi & 1 == 1).count();
                let both = worlds
                    .masks()
                    .iter()
                    .filter(|&&w| w >> gi & 1 == 1 && w >> ti & 1 == 1)
                    .count();
                assert_eq!(
                    cond,
                    Rational::from_u64(both as u64, base as u64),
                    "conf({target} | {given}) diverges from the oracle"
                );
            }
        }
        let (ai, bi, ci) = (
            bit(&Value::sym("a")),
            bit(&Value::sym("b")),
            bit(&Value::sym("c")),
        );
        let cond = analyze_circuit_conditional(
            &circuit,
            &identity,
            &[Value::sym("a")],
            &[vec![Value::sym("b")], vec![Value::sym("c")]],
        )
        .unwrap();
        let base = worlds
            .masks()
            .iter()
            .filter(|&&w| w >> bi & 1 == 1 && w >> ci & 1 == 1)
            .count();
        let all = worlds
            .masks()
            .iter()
            .filter(|&&w| w >> ai & 1 == 1 && w >> bi & 1 == 1 && w >> ci & 1 == 1)
            .count();
        assert_eq!(cond, Rational::from_u64(all as u64, base as u64));
    }

    #[test]
    fn topk_is_a_prefix_of_the_sorted_confidence_table() {
        let collection = example_5_1().as_identity().unwrap();
        let circuit = compile_example(4);
        let analysis = analyze_circuit(&circuit);
        let mut full: Vec<(Vec<Value>, Rational)> = Vec::new();
        for class in circuit.analysis().classes() {
            for member in &class.members {
                let conf = analysis.confidence_of_tuple(&collection, member).unwrap();
                full.push((member.clone(), conf));
            }
        }
        full.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
        for k in 0..=full.len() + 1 {
            let top = analyze_circuit_topk(&circuit, k).unwrap();
            assert_eq!(top.len(), k.min(full.len()));
            assert_eq!(top[..], full[..k.min(full.len())]);
        }
    }

    #[test]
    fn query_traversals_respect_the_budget() {
        let circuit = compile_example(3);
        let err = analyze_circuit_budgeted(&circuit, &Budget::with_max_steps(1)).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn skeleton_digest_is_stable_across_recompiles() {
        let a = compile_example(3);
        let b = compile_example(3);
        assert_eq!(a.skeleton_digest(), b.skeleton_digest());
        let c = compile_example(4);
        assert_ne!(a.skeleton_digest(), c.skeleton_digest());
    }

    #[test]
    fn compiled_collection_amortizes_compiles() {
        let collection = example_5_1().as_identity().unwrap();
        let padding = 3u64;
        let mut cache = CompiledCollection::new();
        assert!(cache.is_empty());
        let budget = Budget::unlimited();
        let config = CircuitConfig::default();
        let first = cache
            .get_or_compile(&collection, padding, &budget, &config)
            .unwrap();
        let second = cache
            .get_or_compile(&collection, padding, &budget, &config)
            .unwrap();
        assert!(Rc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A different padding is a different circuit.
        let other = cache
            .get_or_compile(&collection, 4, &budget, &config)
            .unwrap();
        assert!(!Rc::ptr_eq(&first, &other));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
        let mut metrics = MetricSet::default();
        cache.record_into(&mut metrics);
        assert_eq!(metrics.counter(names::CIRCUIT_COMPILE_HITS), 1);
        assert_eq!(metrics.counter(names::CIRCUIT_COMPILE_MISSES), 2);
    }

    #[test]
    fn compiled_collection_shares_skeletons_across_collections() {
        use crate::descriptor::SourceDescriptor;
        use pscds_numeric::Frac;
        // Example 5.1 with every constant renamed: a different instance
        // key (the members differ) but the identical projected structure,
        // so the second collection must rebind the first's skeleton
        // instead of compiling — a cross-collection hit.
        let renamed = {
            let s1 = SourceDescriptor::identity(
                "T1",
                "W1",
                "R",
                1,
                [[Value::sym("x")], [Value::sym("y")]],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap();
            let s2 = SourceDescriptor::identity(
                "T2",
                "W2",
                "R",
                1,
                [[Value::sym("y")], [Value::sym("z")]],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap();
            crate::collection::SourceCollection::from_sources([s1, s2])
                .as_identity()
                .unwrap()
        };
        let original = example_5_1().as_identity().unwrap();
        let mut cache = CompiledCollection::new();
        let budget = Budget::unlimited();
        let config = CircuitConfig::default();
        let first = cache
            .get_or_compile(&original, 3, &budget, &config)
            .unwrap();
        let second = cache.get_or_compile(&renamed, 3, &budget, &config).unwrap();
        assert_eq!(
            (cache.hits(), cache.misses(), cache.cross_hits()),
            (0, 1, 1)
        );
        // Distinct circuits (different members), shared skeleton arena.
        assert!(!Rc::ptr_eq(&first, &second));
        assert!(Rc::ptr_eq(first.skeleton(), second.skeleton()));
        // The rebound circuit answers for ITS collection's members,
        // identically to a fresh compile.
        let scratch =
            compile_circuit(SignatureAnalysis::new(&renamed, 3), &budget, &config).unwrap();
        let a = analyze_circuit(&second);
        let b = analyze_circuit(&scratch);
        assert_eq!(a.world_count(), b.world_count());
        assert_eq!(
            a.confidence_of_tuple(&renamed, &[Value::sym("y")]).unwrap(),
            b.confidence_of_tuple(&renamed, &[Value::sym("y")]).unwrap()
        );
        // Instance-key hits still take priority over skeleton rebinds.
        let third = cache.get_or_compile(&renamed, 3, &budget, &config).unwrap();
        assert!(Rc::ptr_eq(&second, &third));
        assert_eq!(cache.hits(), 1);
        let mut metrics = MetricSet::default();
        cache.record_into(&mut metrics);
        assert_eq!(metrics.counter(names::CIRCUIT_CROSS_HITS), 1);
        // A structurally different collection (different padding → a
        // different sig-0 class size) never cross-hits.
        let fourth = cache
            .get_or_compile(&original, 5, &budget, &config)
            .unwrap();
        assert!(!Rc::ptr_eq(first.skeleton(), fourth.skeleton()));
        assert_eq!(cache.cross_hits(), 1);
    }

    #[test]
    fn compiled_collection_keys_instances_on_the_member_values() {
        // Two one-source R/2 collections whose member tuples render alike
        // when each value is written as `value,`: ("a,", "b") and
        // ("a", ",b"). They share a skeleton but not an instance.
        let one = |tuple: [&str; 2]| {
            let source = SourceDescriptor::identity(
                "S",
                "V",
                "R",
                2,
                [tuple.map(Value::sym)],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap();
            SourceCollection::from_sources([source])
                .as_identity()
                .unwrap()
        };
        let (first, second) = (one(["a,", "b"]), one(["a", ",b"]));
        let mut cache = CompiledCollection::new();
        let (budget, config) = (Budget::unlimited(), CircuitConfig::default());
        let a = cache.get_or_compile(&first, 1, &budget, &config).unwrap();
        let b = cache.get_or_compile(&second, 1, &budget, &config).unwrap();
        assert_eq!(
            (cache.hits(), cache.misses(), cache.cross_hits()),
            (0, 1, 1)
        );
        assert!(!Rc::ptr_eq(&a, &b));
        let top = analyze_circuit_topk(&b, 1).unwrap();
        assert_eq!(top[0].0, vec![Value::sym("a"), Value::sym(",b")]);
        // A symbol and an integer that print alike are different values.
        let int = {
            let source = SourceDescriptor::identity(
                "S",
                "V",
                "R",
                1,
                [[Value::int(1)]],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap();
            SourceCollection::from_sources([source])
                .as_identity()
                .unwrap()
        };
        let sym = {
            let source = SourceDescriptor::identity(
                "S",
                "V",
                "R",
                1,
                [[Value::sym("1")]],
                Frac::HALF,
                Frac::HALF,
            )
            .unwrap();
            SourceCollection::from_sources([source])
                .as_identity()
                .unwrap()
        };
        let i = cache.get_or_compile(&int, 1, &budget, &config).unwrap();
        let y = cache.get_or_compile(&sym, 1, &budget, &config).unwrap();
        assert!(!Rc::ptr_eq(&i, &y));
        assert_eq!(analyze_circuit_topk(&y, 1).unwrap()[0].0, [Value::sym("1")]);
    }

    /// The key the instance level filed circuits under before it keyed
    /// on the collection: relation, arity, projected structure and every
    /// class's members in class order.
    type DecompositionKey = (RelName, usize, Box<[u64]>, Vec<Value>);

    fn decomposition_key(collection: &IdentityCollection, padding: u64) -> DecompositionKey {
        let analysis = SignatureAnalysis::new(collection, padding);
        let members = (analysis.classes().iter())
            .flat_map(|class| class.members.iter().flatten().copied())
            .collect();
        let (relation, arity) = (analysis.relation(), analysis.arity());
        (relation, arity, analysis.structure(), members)
    }

    /// `(name, tuples, completeness, soundness)` per source, over `R/1`.
    type Spec<'a> = [(&'a str, &'a [&'a str], Frac, Frac)];

    fn collection(spec: &Spec<'_>) -> IdentityCollection {
        let sources = spec.iter().enumerate().map(|(i, &(name, tuples, c, s))| {
            let extension = tuples.iter().map(|&t| [Value::sym(t)]);
            SourceDescriptor::identity(name, &format!("V{i}"), "R", 1, extension, c, s).unwrap()
        });
        SourceCollection::from_sources(sources.collect::<Vec<_>>())
            .as_identity()
            .unwrap()
    }

    /// Looks `collection` up in `cache` and checks the counters against
    /// the decomposition-keyed cache's rule: a hit when an earlier
    /// lookup had the same decomposition key, else a cross hit when one
    /// had the same structure, else a compile. Keeps `seen` as that
    /// cache's keys.
    fn lookup_as_before(
        cache: &mut CompiledCollection,
        seen: &mut Vec<DecompositionKey>,
        collection: &IdentityCollection,
        padding: u64,
    ) -> Rc<CompiledCircuit> {
        let key = decomposition_key(collection, padding);
        let mut want = (cache.hits(), cache.cross_hits(), cache.misses());
        if seen.contains(&key) {
            want.0 += 1;
        } else if seen.iter().any(|old| old.2 == key.2) {
            want.1 += 1;
        } else {
            want.2 += 1;
        }
        if !seen.contains(&key) {
            seen.push(key);
        }
        let (budget, config) = (Budget::unlimited(), CircuitConfig::default());
        let circuit = (cache.get_or_compile(collection, padding, &budget, &config)).unwrap();
        assert_eq!((cache.hits(), cache.cross_hits(), cache.misses()), want);
        assert_eq!(cache.len(), seen.len());
        circuit
    }

    #[test]
    fn instance_key_hits_exactly_when_the_decomposition_key_does() {
        let (half, third, zero) = (Frac::HALF, Frac::new(1, 3), Frac::ZERO);
        let base: &Spec<'_> = &[
            ("S1", &["a", "b"], half, half),
            ("S2", &["b", "c"], half, half),
        ];
        // `(case, collection, padding, hits)`.
        let cases: [(&str, &Spec<'_>, u64, bool); 7] = [
            ("itself", base, 3, true),
            (
                "renamed sources",
                &[
                    ("T1", &["a", "b"], half, half),
                    ("T2", &["b", "c"], half, half),
                ],
                3,
                true,
            ),
            (
                "s = 1/3, the same ⌈s·|v|⌉ = 1",
                &[
                    ("S1", &["a", "b"], half, third),
                    ("S2", &["b", "c"], half, half),
                ],
                3,
                true,
            ),
            (
                "a moved from S1 to S2",
                &[
                    ("S1", &["b"], half, half),
                    ("S2", &["a", "b", "c"], half, half),
                ],
                3,
                false,
            ),
            (
                "swapped source order",
                &[
                    ("S2", &["b", "c"], half, half),
                    ("S1", &["a", "b"], half, half),
                ],
                3,
                false,
            ),
            (
                "S2's completeness 0",
                &[
                    ("S1", &["a", "b"], half, half),
                    ("S2", &["b", "c"], zero, half),
                ],
                3,
                false,
            ),
            ("padding + 1", base, 4, false),
        ];
        let original = collection(base);
        let key = InstanceKey::new(&original, 3);
        let mut cache = CompiledCollection::new();
        let mut seen = Vec::new();
        let first = lookup_as_before(&mut cache, &mut seen, &original, 3);
        for (case, spec, padding, hits) in cases {
            let other = collection(spec);
            let before = decomposition_key(&original, 3) == decomposition_key(&other, padding);
            assert_eq!(before, hits, "{case}: the decomposition key");
            assert_eq!(
                key.matches(&other, padding),
                hits,
                "{case}: the instance key"
            );
            if hits {
                let print = InstanceKey::fingerprint(&other, padding);
                assert_eq!(print, InstanceKey::fingerprint(&original, 3), "{case}");
            }
            let circuit = lookup_as_before(&mut cache, &mut seen, &other, padding);
            assert_eq!(
                Rc::ptr_eq(&circuit, &first),
                hits,
                "{case}: the cached circuit"
            );
        }
    }

    proptest::proptest! {
        /// Random pairs over a three-tuple pool with bounds in quarters,
        /// so equal decompositions, equal soundness ceilings and
        /// equal structures with different members all come up.
        #[test]
        fn instance_key_equality_is_decomposition_key_equality(
            specs in proptest::collection::vec(
                proptest::collection::vec((0u8..8, 0u64..=4, 0u64..=4), 1..=2),
                2..=4,
            ),
            paddings in proptest::collection::vec(0u64..=1, 4),
        ) {
            let pool = ["a", "b", "c"];
            let built: Vec<IdentityCollection> = specs
                .iter()
                .map(|sources| {
                    let sources = sources.iter().enumerate().map(|(i, &(mask, c, s))| {
                        let tuples = (0..3).filter(|bit| mask >> bit & 1 == 1);
                        let extension: Vec<[Value; 1]> =
                            tuples.map(|bit| [Value::sym(pool[bit])]).collect();
                        let (c, s) = (Frac::new(c, 4), Frac::new(s, 4));
                        SourceDescriptor::identity(format!("S{i}"), &format!("V{i}"), "R", 1, extension, c, s)
                            .unwrap()
                    });
                    SourceCollection::from_sources(sources.collect::<Vec<_>>())
                        .as_identity()
                        .unwrap()
                })
                .collect();
            let mut cache = CompiledCollection::new();
            let mut seen = Vec::new();
            for (a, &pa) in built.iter().zip(&paddings) {
                for (b, &pb) in built.iter().zip(&paddings) {
                    let before = decomposition_key(a, pa) == decomposition_key(b, pb);
                    proptest::prop_assert_eq!(InstanceKey::new(a, pa).matches(b, pb), before);
                    if before {
                        proptest::prop_assert_eq!(
                            InstanceKey::fingerprint(a, pa),
                            InstanceKey::fingerprint(b, pb)
                        );
                    }
                }
                lookup_as_before(&mut cache, &mut seen, a, pa);
            }
        }
    }

    #[test]
    fn stats_record_into_uses_the_registered_names() {
        let circuit = compile_example(2);
        let stats = circuit.stats();
        let mut metrics = MetricSet::default();
        stats.record_into(&mut metrics);
        assert_eq!(metrics.counter(names::CIRCUIT_NODES), stats.canonical_nodes);
        assert_eq!(
            metrics.counter(names::CIRCUIT_EXACT_NODES),
            stats.exact_nodes
        );
        assert_eq!(metrics.counter(names::CIRCUIT_EDGES), stats.edges);
        assert_eq!(
            metrics.counter(names::CIRCUIT_SHARED_NODES),
            stats.shared_nodes
        );
    }
}
