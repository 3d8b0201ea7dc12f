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
//! * **Compile** ([`compile_circuit`]): run the memoized residual walk
//!   (`residual.rs`) once — the same walk the DP folds into counts — and
//!   fold every node into a d-DNNF-style arithmetic circuit instead.
//!   Every interior node is an Or over the count choices `k` of one
//!   signature class; each disjunct is an And of the binomial leaf
//!   `C(n_j, k)` and the child node; the single accepting leaf carries
//!   weight 1. Node identity is the walk's packed residual-state key, so
//!   the circuit has exactly one node per distinct live residual state —
//!   subtrees the DFS re-enters exponentially often appear once.
//! * **Query** ([`analyze_circuit`], [`analyze_circuit_conditional`],
//!   [`analyze_circuit_topk`]): every question becomes one or two linear
//!   passes over the node arena. All per-tuple confidences come from the
//!   bottom-up count pass (done once, at compile time) plus a single
//!   top-down reach pass; a conditional confidence is one extra
//!   bottom-up moment pass per conditioning event; top-k is a sort of
//!   the per-class table the reach pass already produced.
//!
//! A [`CompiledCollection`] caches compiled circuits per collection
//! structure, so one compile amortizes across arbitrarily many queries —
//! the compile-once/query-many regime experiment E11 measures.
//!
//! The compile and every query are serial: a traversal is one linear
//! sweep over the arena with nothing to partition, so no entry takes a
//! thread count. The resilient ladder's circuit rung records each phase
//! under its own span through `govern::observe_phase`.
//!
//! # Node identity and residual-key canonicalization
//!
//! The arena that answers queries is keyed on the **exact** residual key
//! — the one key the DP memo uses too (`residual.rs` documents why equal
//! clamped residuals have bit-identical suffix trees). That makes every
//! circuit answer equal to the DFS and DP answers *by construction*: the
//! traversals sum exactly the terms the DFS enumerates, in exact integer
//! arithmetic.
//!
//! On top of the exact arena the compiler maintains a **canonical**
//! index: within each *orbit* of interchangeable sources, the exact
//! key's per-source `(deficit, margin)` triples are sorted before
//! packing. Two sources `a`, `b` are interchangeable at level `j` when
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
//! Unlike the DP, which drops what its memo cannot hold, the compiler
//! keeps every node: the arena *is* the artifact, so exceeding
//! [`CircuitConfig::max_nodes`] is an error.

use crate::collection::IdentityCollection;
use crate::confidence::counting::ConfidenceAnalysis;
use crate::confidence::residual::{Fold, Residual, ResidualKey};
use crate::confidence::signature::SignatureAnalysis;
use crate::error::CoreError;
use crate::govern::Budget;
use pscds_numeric::{Rational, RowCache, UBig};
use pscds_obs::{names, MetricSet};
use pscds_relational::Value;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;

/// Budget phase charged once per residual state during compilation.
const COMPILE_PHASE: &str = "confidence::circuit::compile";
/// Budget phase charged once per node per query traversal.
const QUERY_PHASE: &str = "confidence::circuit";

/// Memory limits for circuit compilation (search *steps* are governed by
/// the [`Budget`] passed at the call site; this bounds the arena).
#[derive(Clone, Copy, Debug)]
pub struct CircuitConfig {
    /// Maximum number of materialized circuit nodes. Unlike the DP's
    /// cache cap there is no DFS degradation to fall back on — the whole
    /// point of the artifact is the complete shared structure — so
    /// exceeding the cap is an error, not a slowdown.
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

/// One Or-disjunct: choose `k` tuples of the node's class, weighted by
/// the interned binomial in slot `weight` and continued in `child`.
#[derive(Clone)]
struct Edge {
    k: u64,
    weight: u32,
    child: u32,
}

/// One circuit node. `nodes[0]` is the accepting leaf (no edges, count
/// 1); every other node is an Or over the `k` choices of class `level`.
/// Children always carry smaller ids than their parents (post-order
/// construction), which is what makes single-direction passes correct.
#[derive(Clone)]
struct Node {
    level: u32,
    edges: Vec<Edge>,
    /// Weighted world count of the suffix (`N_suffix`), fixed bottom-up
    /// at compile time.
    count: UBig,
    /// Number of feasible suffix count vectors (saturating, exactly the
    /// DP's aggregation).
    vectors: u64,
}

/// The member-free half of a compiled circuit: the node arena (children
/// before parents, accepting leaf first), the interned binomial
/// weights, and the compile counters. A skeleton is a pure function of
/// the collection's *projected structure* — the per-source bounds and
/// the `(signature, size)` class sequence — never of which tuples the
/// classes hold, so structurally identical collections can share one
/// (see [`CompiledCollection`]) and the delta engine can patch one in
/// place (see `core::delta`).
#[derive(Clone)]
pub(crate) struct CircuitSkeleton {
    nodes: Vec<Node>,
    /// The root node, or `None` when the collection admits no possible
    /// world over this domain (the circuit computes the zero constant).
    root: Option<u32>,
    binoms: Vec<UBig>,
    stats: CircuitStats,
}

/// A source collection's confidence semantics, compiled once.
///
/// Pairs a shareable [`CircuitSkeleton`] with the [`SignatureAnalysis`]
/// the queries resolve tuples against. Build with [`compile_circuit`]
/// or through a [`CompiledCollection`] cache.
pub struct CompiledCircuit {
    analysis: SignatureAnalysis,
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
    pub(crate) fn rebind(skeleton: Rc<CircuitSkeleton>, analysis: SignatureAnalysis) -> Self {
        CompiledCircuit { analysis, skeleton }
    }

    /// The member-free half, for sharing and patching.
    pub(crate) fn skeleton(&self) -> &Rc<CircuitSkeleton> {
        &self.skeleton
    }

    /// A structural digest of the circuit skeleton: node levels, edge
    /// `k`s, the interned binomial weight table, and child wiring
    /// (FNV-1a over the construction order). Two compiles of
    /// structurally identical collections — e.g. a collection and its
    /// textfmt round trip — digest equal; node counts and numerators
    /// are deliberately excluded so the digest pins the *shape* (the
    /// wiring plus the leaf weights), which the golden tests guard
    /// separately from the values.
    #[must_use]
    pub fn skeleton_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.skeleton.nodes.len() as u64);
        mix(u64::from(self.skeleton.root.map_or(u32::MAX, |r| r)));
        for binom in &self.skeleton.binoms {
            mix(binom.limbs().len() as u64);
            for &limb in binom.limbs() {
                mix(limb);
            }
        }
        for node in &self.skeleton.nodes {
            mix(u64::from(node.level));
            mix(node.edges.len() as u64);
            for edge in &node.edges {
                mix(edge.k);
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
            .field("binoms", &self.skeleton.binoms.len())
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
                let (ba, bb) = (&bounds[a], &bounds[b]);
                if ba.min_sound != bb.min_sound
                    || ba.completeness.num() != bb.completeness.num()
                    || ba.completeness.den() != bb.completeness.den()
                {
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

/// The compile-time memo, kept *outside* [`CompiledCircuit`] so the
/// delta engine can resume a compile: the residual-key maps from exact
/// node ids plus the binomial interning table. Valid only against the
/// skeleton the same compile (or patch) produced.
pub(crate) struct CircuitMemo {
    exact: HashMap<ResidualKey, Option<u32>>,
    canonical: HashMap<ResidualKey, u32>,
    binom_slots: HashMap<(u64, u64), u32>,
    /// Arena length right after the last from-scratch compile. Patches
    /// strand the old prefix nodes as unreachable garbage; once the
    /// arena exceeds twice this, callers should recompile.
    compiled_len: usize,
}

impl CircuitMemo {
    /// Arena length right after the last from-scratch compile.
    pub(crate) fn compiled_len(&self) -> usize {
        self.compiled_len
    }
}

/// Drops every memo entry a delta touching classes `..=max_touched` can
/// invalidate — all residual states at those levels; states at deeper
/// levels only read the untouched suffix classes — and returns how many
/// were dropped (the `delta.states_invalidated` quantity).
pub(crate) fn invalidate_prefix(memo: &mut CircuitMemo, max_touched: usize) -> u64 {
    let before = memo.exact.len() + memo.canonical.len();
    memo.exact
        .retain(|key, _| key.level() as usize > max_touched);
    memo.canonical
        .retain(|key, _| key.level() as usize > max_touched);
    (before - memo.exact.len() - memo.canonical.len()) as u64
}

/// The compiler's fold over the residual walk: every node becomes an
/// arena node with weighted edges, memoized on the exact key and
/// registered in the canonical sharing index.
struct Compiler<'a> {
    analysis: &'a SignatureAnalysis,
    rows: RowCache,
    /// Per level, the orbit label of each source.
    orbits: Vec<Vec<usize>>,
    arena: CircuitSkeleton,
    memo: CircuitMemo,
    max_nodes: usize,
}

/// One Or-node's edges and counts while its children are folded in.
struct CircuitAcc {
    edges: Vec<Edge>,
    count: UBig,
    vectors: u64,
    scratch: UBig,
}

impl Compiler<'_> {
    /// The canonical key: the exact key's triples with each orbit's
    /// triples sorted, so residual permutations within an orbit collapse.
    fn canonical_key(&self, exact: &ResidualKey) -> ResidualKey {
        let j = exact.level() as usize;
        let labels = &self.orbits[j];
        let mut triples: Vec<[u64; 3]> = exact.triples().collect();
        let n = triples.len();
        for root in 0..n {
            let members: Vec<usize> = (0..n).filter(|&i| labels[i] == root).collect();
            if members.len() > 1 {
                let mut vals: Vec<[u64; 3]> = members.iter().map(|&i| triples[i]).collect();
                vals.sort_unstable();
                for (&i, v) in members.iter().zip(vals) {
                    triples[i] = v;
                }
            }
        }
        ResidualKey::pack(j, triples)
    }

    /// Interns the binomial `C(size, k)` and returns its weight slot.
    fn weight_slot(&mut self, size: u64, k: u64) -> u32 {
        if let Some(&slot) = self.memo.binom_slots.get(&(size, k)) {
            return slot;
        }
        let row = self.rows.intern(size);
        let value = self.rows.get(row, k).clone();
        // lint-allow(no-panic): one slot per (size, k) pair actually used, far below u32::MAX
        let slot = u32::try_from(self.arena.binoms.len()).expect("weight slot fits u32");
        self.arena.binoms.push(value);
        self.memo.binom_slots.insert((size, k), slot);
        slot
    }
}

impl Fold for Compiler<'_> {
    /// An arena node id; empty subtrees get no node at all (the circuit
    /// never stores zero-count structure, which is why `exact_nodes` can
    /// undercut even the DP's distinct-state count).
    type Node = u32;
    type Acc = CircuitAcc;
    const PHASE: &'static str = COMPILE_PHASE;

    fn leaf(&mut self) -> u32 {
        0
    }

    fn lookup(&mut self, key: &ResidualKey, _j: usize, _t: &[u64], _w: u64) -> Option<Option<u32>> {
        self.memo.exact.get(key).copied()
    }

    fn open(&mut self, _j: usize) -> CircuitAcc {
        CircuitAcc {
            edges: Vec::new(),
            count: UBig::zero(),
            vectors: 0,
            scratch: UBig::zero(),
        }
    }

    fn add(&mut self, acc: &mut CircuitAcc, j: usize, k: u64, &child: &u32) {
        let weight = self.weight_slot(self.analysis.classes()[j].size, k);
        let child_node = &self.arena.nodes[child as usize];
        acc.vectors = acc.vectors.saturating_add(child_node.vectors);
        self.arena.binoms[weight as usize].mul_into(&child_node.count, &mut acc.scratch);
        acc.count.add_assign(&acc.scratch);
        acc.edges.push(Edge { k, weight, child });
    }

    fn store(&mut self, key: ResidualKey, acc: CircuitAcc) -> Result<Option<u32>, CoreError> {
        if acc.edges.is_empty() {
            self.memo.exact.insert(key, None);
            return Ok(None);
        }
        if self.arena.nodes.len() > self.max_nodes {
            return Err(CoreError::BadDomain {
                message: format!(
                    "circuit compilation exceeded the {} node cap (raise \
                     CircuitConfig::max_nodes or use the DP engine)",
                    self.max_nodes
                ),
            });
        }
        // lint-allow(no-panic): the arena is capped at max_nodes, far below u32::MAX
        let id = u32::try_from(self.arena.nodes.len()).expect("node id fits u32");
        self.arena.stats.exact_nodes += 1;
        self.arena.stats.edges += acc.edges.len() as u64;
        self.arena.nodes.push(Node {
            level: key.level(),
            edges: acc.edges,
            count: acc.count,
            vectors: acc.vectors,
        });
        let canonical = self.canonical_key(&key);
        self.memo.exact.insert(key, Some(id));
        match self.memo.canonical.entry(canonical) {
            Entry::Occupied(rep) => {
                self.arena.stats.shared_nodes += 1;
                // The canonicalization soundness check: canonical-equal
                // states must agree on the count aggregates. They need
                // NOT agree on per-class numerators — that is exactly
                // why the answering arena stays exact.
                let (rep, node) = (
                    &self.arena.nodes[*rep.get() as usize],
                    &self.arena.nodes[id as usize],
                );
                debug_assert_eq!(
                    rep.vectors, node.vectors,
                    "canonical residual collision at level {}: completion counts differ",
                    node.level
                );
                debug_assert_eq!(
                    rep.count, node.count,
                    "canonical residual collision at level {}: world counts differ",
                    node.level
                );
            }
            Entry::Vacant(slot) => {
                slot.insert(id);
                self.arena.stats.canonical_nodes += 1;
            }
        }
        Ok(Some(id))
    }
}

/// Compiles a source collection's per-class count structure into a
/// shared-node arithmetic circuit. One compile pays roughly one DP run;
/// every [`analyze_circuit`] / conditional / top-k query afterwards is
/// a linear traversal of the arena.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out mid-compile;
/// [`CoreError::BadDomain`] when the arena would exceed
/// [`CircuitConfig::max_nodes`].
pub fn compile_circuit(
    analysis: SignatureAnalysis,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<CompiledCircuit, CoreError> {
    let (circuit, _memo) = compile_with_memo(analysis, budget, config)?;
    Ok(circuit)
}

/// [`compile_circuit`] plus the compile-time memo, so the caller (the
/// delta engine) can later resume the compile with [`patch_compile`].
///
/// # Errors
/// As [`compile_circuit`].
pub(crate) fn compile_with_memo(
    analysis: SignatureAnalysis,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<(CompiledCircuit, CircuitMemo), CoreError> {
    let leaf = Node {
        // lint-allow(no-panic): the class count is capped far below u32::MAX
        level: u32::try_from(analysis.classes().len()).expect("class count fits u32"),
        edges: Vec::new(),
        count: UBig::one(),
        vectors: 1,
    };
    let arena = CircuitSkeleton {
        nodes: vec![leaf],
        root: None,
        binoms: Vec::new(),
        stats: CircuitStats::default(),
    };
    let memo = CircuitMemo {
        exact: HashMap::new(),
        canonical: HashMap::new(),
        binom_slots: HashMap::new(),
        compiled_len: 0,
    };
    let (circuit, mut memo) = compile_onto(analysis, arena, memo, budget, config)?;
    memo.compiled_len = circuit.node_count();
    Ok((circuit, memo))
}

/// Resumes a compile after a delta changed the sizes of classes
/// `..=max_touched` (bounds and the class signature sequence must be
/// unchanged — the delta engine recompiles from scratch otherwise). The
/// caller has already pruned `memo` with [`invalidate_prefix`]; every
/// retained suffix entry answers instantly, the recomputed prefix nodes
/// append after the old arena, and the stale prefix becomes unreachable
/// garbage (bounded by the recompile threshold on
/// [`CircuitMemo::compiled_len`]). Returns the patched circuit and the
/// number of freshly materialized nodes (`delta.nodes_patched`).
///
/// # Errors
/// As [`compile_circuit`].
pub(crate) fn patch_compile(
    circuit: CompiledCircuit,
    memo: CircuitMemo,
    analysis: SignatureAnalysis,
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
    let (circuit, memo) = compile_onto(analysis, arena, memo, budget, config)?;
    let patched = (circuit.node_count() - old_len) as u64;
    Ok((circuit, memo, patched))
}

/// The one compile driver: walks the residual states from the root,
/// appending new nodes to `arena` (children always get smaller ids than
/// their parents) and answering retained states from `memo`.
fn compile_onto(
    analysis: SignatureAnalysis,
    arena: CircuitSkeleton,
    memo: CircuitMemo,
    budget: &Budget,
    config: &CircuitConfig,
) -> Result<(CompiledCircuit, CircuitMemo), CoreError> {
    let mut compiler = Compiler {
        analysis: &analysis,
        rows: RowCache::new(),
        orbits: source_orbits(&analysis),
        arena,
        memo,
        max_nodes: config.max_nodes,
    };
    let mut t = vec![0u64; analysis.source_count()];
    let mut w = 0u64;
    let root = Residual::new(&analysis).walk(&mut compiler, 0, &mut t, &mut w, budget)?;
    let Compiler {
        mut arena, memo, ..
    } = compiler;
    arena.root = root;
    Ok((
        CompiledCircuit {
            analysis,
            skeleton: Rc::new(arena),
        },
        memo,
    ))
}

/// All tuple confidences from a compiled circuit: the bottom-up counts
/// were fixed at compile time; this runs the single top-down reach pass
/// that turns them into per-class containment numerators and assembles
/// the same [`ConfidenceAnalysis`] the DFS and DP engines produce
/// (bit-identical total, numerators, and feasible vector count).
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

/// Budget-governed variant of [`analyze_circuit`]: one tick per node.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out mid-pass.
pub fn analyze_circuit_budgeted(
    circuit: &CompiledCircuit,
    budget: &Budget,
) -> Result<ConfidenceAnalysis, CoreError> {
    let m = circuit.analysis.classes().len();
    let mut class_numerators = vec![UBig::zero(); m];
    let Some(root) = circuit.skeleton.root else {
        return Ok(ConfidenceAnalysis::from_parts(
            circuit.analysis.clone(),
            UBig::zero(),
            class_numerators,
            0,
        ));
    };
    let root = root as usize;
    // Top-down reach pass. Children carry smaller ids than parents, so
    // walking ids downward visits every parent before its children.
    // `reach[x]` accumulates Σ over root-to-x paths of the path's
    // binomial product — exactly the prefix weight the DP's parallel
    // splitter applies to its suffix sums. A class-`j` containment
    // numerator is then Σ over level-`j` nodes and edges with `k > 0`
    // of `reach · C(n_j, k) · k · count(child)`, the same terms the
    // DP's numerator shifting adds, in exact integer arithmetic.
    let mut reach = vec![UBig::zero(); root + 1];
    reach[root] = UBig::one();
    let mut path = UBig::zero();
    let mut scaled = UBig::zero();
    let mut term = UBig::zero();
    for id in (1..=root).rev() {
        budget.tick(QUERY_PHASE)?;
        let node = &circuit.skeleton.nodes[id];
        for edge in &node.edges {
            reach[id].mul_into(&circuit.skeleton.binoms[edge.weight as usize], &mut path);
            if edge.k > 0 {
                let child_count = &circuit.skeleton.nodes[edge.child as usize].count;
                path.mul_into(child_count, &mut scaled);
                scaled.mul_u64_into(edge.k, &mut term);
                class_numerators[node.level as usize].add_assign(&term);
            }
            reach[edge.child as usize].add_assign(&path);
        }
    }
    let root_node = &circuit.skeleton.nodes[root];
    Ok(ConfidenceAnalysis::from_parts(
        circuit.analysis.clone(),
        root_node.count.clone(),
        class_numerators,
        root_node.vectors,
    ))
}

/// Bottom-up falling-factorial moment pass: returns
/// `W(e) = Σ_vec Π_j C(n_j, k_j) · k_j·(k_j−1)···(k_j−e_j+1)`,
/// the world count weighted by the number of ways to pin `e_j` ordered
/// distinct tuples inside each class-`j` selection. Exact-key sharing
/// shares whole suffix subtrees, so the moments factor over the arena
/// exactly like the counts do.
fn moment_pass(circuit: &CompiledCircuit, e: &[u64], budget: &Budget) -> Result<UBig, CoreError> {
    let Some(root) = circuit.skeleton.root else {
        return Ok(UBig::zero());
    };
    let root = root as usize;
    let mut value = vec![UBig::zero(); root + 1];
    value[0] = UBig::one();
    let mut scratch = UBig::zero();
    for id in 1..=root {
        budget.tick(QUERY_PHASE)?;
        let node = &circuit.skeleton.nodes[id];
        let e_level = e[node.level as usize];
        let mut acc = UBig::zero();
        for edge in &node.edges {
            if edge.k < e_level {
                continue; // falling factorial is zero
            }
            value[edge.child as usize]
                .mul_into(&circuit.skeleton.binoms[edge.weight as usize], &mut scratch);
            let mut term = scratch.clone();
            for step in 0..e_level {
                term = term.mul_u64(edge.k - step);
            }
            acc.add_assign(&term);
        }
        value[id] = acc;
    }
    Ok(value[root].clone())
}

/// Per-class observed-tuple counts for a conditioning event, resolved
/// against the circuit's signature decomposition (duplicates collapse).
fn event_counts(
    circuit: &CompiledCircuit,
    collection: &IdentityCollection,
    given: &[Vec<Value>],
) -> Result<Vec<u64>, CoreError> {
    let mut counts = vec![0u64; circuit.analysis.classes().len()];
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
/// satisfying the observation. Computed as
/// `W(E ∪ {t}) / (W(E) · (n_c − e_c))` from two falling-factorial
/// moment passes (see `moment_pass`), where `c` is `t`'s class: the
/// per-class falling normalizers cancel except for one `n_c − e_c`
/// factor.
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

/// Budget-governed variant of [`analyze_circuit_conditional`]: one tick
/// per node per moment pass (two passes, or one when `t ∈ E`).
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
    let given_weight = moment_pass(circuit, &observed, budget)?;
    if given_weight.is_zero() {
        return Err(CoreError::BadDomain {
            message: "conditioning event has probability zero in poss(S)".to_owned(),
        });
    }
    if given.iter().any(|g| g.as_slice() == tuple) {
        return Ok(Rational::one());
    }
    let class_idx = circuit
        .analysis
        .class_of(tuple, collection.signature_of(tuple))?;
    let class_size = circuit.analysis.classes()[class_idx].size;
    if observed[class_idx] >= class_size {
        // The event already pins `class_size` distinct tuples of the
        // class and `t` would be one more: no world can contain it.
        return Ok(Rational::zero());
    }
    let remaining = class_size - observed[class_idx];
    let mut joint = observed;
    joint[class_idx] += 1;
    let joint_weight = moment_pass(circuit, &joint, budget)?;
    Ok(Rational::new(joint_weight, given_weight.mul_u64(remaining)))
}

/// The `k` highest-confidence named extension tuples, from one reach
/// pass: ties broken by tuple order (ascending), matching the CLI's
/// rendering order, so the result is a prefix of the full sorted
/// confidence table. Padding (unnamed) facts are not ranked.
///
/// # Errors
/// [`CoreError::InconsistentCollection`] when `poss(S)` is empty.
pub fn analyze_circuit_topk(
    circuit: &CompiledCircuit,
    k: usize,
) -> Result<Vec<(Vec<Value>, Rational)>, CoreError> {
    analyze_circuit_topk_budgeted(circuit, k, &Budget::unlimited())
}

/// Budget-governed variant of [`analyze_circuit_topk`].
///
/// # Errors
/// As [`analyze_circuit_topk`], plus [`CoreError::BudgetExceeded`].
pub fn analyze_circuit_topk_budgeted(
    circuit: &CompiledCircuit,
    k: usize,
    budget: &Budget,
) -> Result<Vec<(Vec<Value>, Rational)>, CoreError> {
    let analysis = analyze_circuit_budgeted(circuit, budget)?;
    if !analysis.is_consistent() {
        return Err(CoreError::InconsistentCollection);
    }
    let mut rows: Vec<(Vec<Value>, Rational)> = Vec::new();
    for (idx, class) in circuit.analysis.classes().iter().enumerate() {
        if class.members.is_empty() {
            continue; // padding class: unnamed tuples
        }
        let conf = analysis.class_confidence(idx)?;
        for member in &class.members {
            rows.push((member.clone(), conf.clone()));
        }
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(k);
    Ok(rows)
}

/// A two-level cache of compiled circuits, so one compile amortizes
/// across many queries *and* across structurally identical collections.
///
/// * The **instance** level keys on everything a query resolves against
///   — relation, arity, padding, per-source bounds, and the full class
///   decomposition including member tuples. An instance hit returns the
///   very same [`CompiledCircuit`].
/// * The **skeleton** level keys on the member-free projection — the
///   bounds signature plus the `(signature, size)` class sequence —
///   which is exactly what the compiled arena is a function of (the
///   same projection the shared DP cache interns as a context). An
///   instance miss that hits here skips the compile entirely: the
///   shared [`CircuitSkeleton`] is rebound to the new instance's
///   decomposition, and the reuse is reported as a *cross-collection
///   hit* (`circuit.cross_hits`).
#[derive(Default)]
pub struct CompiledCollection {
    circuits: HashMap<String, Rc<CompiledCircuit>>,
    skeletons: HashMap<String, Rc<CircuitSkeleton>>,
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

    /// Returns the cached circuit for the collection's structure —
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
        let analysis = SignatureAnalysis::new(collection, padding);
        let key = Self::instance_key(&analysis, padding);
        if let Some(circuit) = self.circuits.get(&key) {
            self.hits += 1;
            return Ok(Rc::clone(circuit));
        }
        let shape = Self::skeleton_key(&analysis);
        if let Some(skeleton) = self.skeletons.get(&shape) {
            self.cross_hits += 1;
            let circuit = Rc::new(CompiledCircuit::rebind(Rc::clone(skeleton), analysis));
            self.circuits.insert(key, Rc::clone(&circuit));
            return Ok(circuit);
        }
        let circuit = Rc::new(compile_circuit(analysis, budget, config)?);
        self.misses += 1;
        self.skeletons.insert(shape, Rc::clone(circuit.skeleton()));
        self.circuits.insert(key, Rc::clone(&circuit));
        Ok(circuit)
    }

    /// The member-free projection the compiled arena is a function of:
    /// per-source bounds plus the ordered `(signature, size)` class
    /// sequence. Padding needs no separate component — it is the
    /// signature-0 class's size. Relation and arity are deliberately
    /// excluded: the skeleton never mentions tuples.
    fn skeleton_key(analysis: &SignatureAnalysis) -> String {
        let mut key = String::new();
        for b in analysis.bounds() {
            let _ = write!(
                key,
                "|b:{},{}/{}",
                b.min_sound,
                b.completeness.num(),
                b.completeness.den()
            );
        }
        for class in analysis.classes() {
            let _ = write!(key, "|c:{:x},{}", class.signature, class.size);
        }
        key
    }

    fn instance_key(analysis: &SignatureAnalysis, padding: u64) -> String {
        let mut key = String::new();
        let _ = write!(
            key,
            "{}/{}|pad={padding}",
            analysis.relation(),
            analysis.arity()
        );
        for b in analysis.bounds() {
            let _ = write!(
                key,
                "|b:{},{}/{}",
                b.min_sound,
                b.completeness.num(),
                b.completeness.den()
            );
        }
        for class in analysis.classes() {
            let _ = write!(key, "|c:{:x},{}", class.signature, class.size);
            for member in &class.members {
                key.push('(');
                for value in member {
                    let _ = write!(key, "{value},");
                }
                key.push(')');
            }
        }
        key
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
        self.circuits.len()
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
