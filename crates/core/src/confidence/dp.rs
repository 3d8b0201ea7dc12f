//! Memoized suffix-count DP for the exact confidence counter.
//!
//! The exact counter (`counting.rs`) enumerates feasible count vectors
//! `(k_σ)` by DFS, so its runtime grows with the number of *paths* into
//! each suffix of the class order even though a suffix's contribution
//! depends only on a small residual state. This engine is one of the two
//! folds over the memoized residual walk (`residual.rs`, which also holds
//! the argument why equal residual keys have identical suffixes): every
//! interior node folds its children into the node's entire suffix
//! aggregate — the suffix world count `N_suffix`, the per-class
//! containment numerators `Σ Π C(n_σ,k_σ)·k_σ₀`, and the number of
//! feasible suffix completions — and memoizes it. One sweep from the root
//! therefore yields `total`, every `class_numerators[σ₀]`, and
//! `feasible_vectors` exactly as the DFS does, while instances whose
//! search trees re-enter the same residual states (disjoint extensions,
//! wide slack classes) collapse from exponential to pseudo-polynomial in
//! the class sizes. The numerators are built bottom-up per node — unlike
//! the circuit, which keeps its arena and derives them in one top-down
//! pass — so a node the memo cannot hold is simply dropped.
//!
//! Equality of clamped residuals is checked empirically in debug builds:
//! on each first cache hit the engine replays the uncached DFS
//! (`SignatureAnalysis::dfs`) from the current exact state under a
//! small step allowance and `debug_assert`s that the number of feasible
//! completions matches the cached node.
//!
//! # Cache budget and degradation
//!
//! Search steps draw from the caller's [`Budget`] exactly like the DFS
//! (one tick per node; deadline / step-allowance / cancellation all
//! apply, unwinding with [`CoreError::BudgetExceeded`]). The memo *size*
//! is governed separately by [`DpConfig::max_cache_entries`]: when the
//! map is full, new nodes are computed but not inserted — the engine
//! silently degrades to plain DFS for those subtrees (still exact, still
//! budget-governed, memory still bounded), it never errors on cache
//! exhaustion.
//!
//! Every run memoizes through a [`SharedDpCache`]: a private run is a run
//! against a fresh cache, and the consensus sweep keeps one cache across
//! all its runs.
//!
//! # Parallel fan-out
//!
//! [`count_dp_parallel`] partitions the top of the search tree with
//! [`SignatureAnalysis::prefix_plan`] and runs one DP per prefix chunk
//! through [`partition::run_chunks`], each with a fresh cache (caches
//! are not shared across workers — `Rc` nodes are cheap, locks are not).
//! Per-chunk results are exact integers merged in chunk order and
//! per-chunk cache statistics are folded deterministically (sums, and
//! the bookkeeping inherits `run_chunks`' lowest-chunk-wins error
//! ordering), so the outcome is bit-identical to the serial DP — and to
//! the serial DFS — at every thread count.

use crate::confidence::counting::ConfidenceAnalysis;
use crate::confidence::residual::{Fold, Residual, ResidualKey};
use crate::confidence::signature::SignatureAnalysis;
use crate::error::CoreError;
use crate::govern::Budget;
use crate::partition::{self, ParallelConfig};
use pscds_numeric::binomial::RowId;
use pscds_numeric::{RowCache, UBig};
use pscds_obs::{names, MetricSet, ObsSession, SpanStack, EXEMPLAR_KEYS};
use std::collections::HashMap;
use std::rc::Rc;

/// Memoization limits for the DP engine (search *steps* are governed by
/// the [`Budget`] passed at the call site; this bounds memory).
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// Maximum number of residual states kept in the memo hash map. When
    /// the map is full, further subtrees are computed without caching
    /// (exact DFS degradation — never an error).
    pub max_cache_entries: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            // ~1M residual states; each node holds a handful of UBigs, so
            // this caps the memo at a few hundred MB in the worst case
            // while leaving every realistic instance fully cached.
            max_cache_entries: 1 << 20,
        }
    }
}

/// Cache-behaviour counters of one DP run (for benches and diagnostics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Interior nodes answered from the memo.
    pub cache_hits: u64,
    /// Interior nodes computed (and inserted, capacity permitting).
    pub cache_misses: u64,
    /// Peak number of entries resident in the memo (summed across chunks
    /// in the parallel driver).
    pub peak_cache_entries: usize,
    /// Interior nodes computed *without* insertion because the memo was
    /// full (the DFS-degradation path).
    pub fallback_nodes: u64,
    /// Hits on [`SharedDpCache`] nodes inserted by an *earlier* run (the
    /// cross-subset sharing win of the consensus sweep; always 0 for
    /// private-cache runs).
    pub cross_subset_hits: u64,
    /// The lexicographically smallest [`EXEMPLAR_KEYS`] canonical memo-key
    /// renderings among the fallback nodes — the deterministic exemplar
    /// payload attached to `dp.fallback_nodes`. Keep-smallest is a
    /// semilattice, so chunk-order merges cannot reorder it.
    pub fallback_keys: Vec<String>,
}

impl DpStats {
    /// Folds another run's counters into this one (chunk-order merge in
    /// the parallel driver and across the consensus sweep's subset runs).
    pub fn absorb(&mut self, other: &DpStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.peak_cache_entries += other.peak_cache_entries;
        self.fallback_nodes += other.fallback_nodes;
        self.cross_subset_hits += other.cross_subset_hits;
        for key in &other.fallback_keys {
            self.note_fallback_key(key);
        }
    }

    /// Records one uncacheable memo key, keeping only the
    /// [`EXEMPLAR_KEYS`] smallest distinct renderings.
    fn note_fallback_key(&mut self, key: &str) {
        if let Err(pos) = self.fallback_keys.binary_search_by(|k| k.as_str().cmp(key)) {
            if pos < EXEMPLAR_KEYS {
                self.fallback_keys.insert(pos, key.to_owned());
                self.fallback_keys.truncate(EXEMPLAR_KEYS);
            }
        }
    }

    /// Emits the counters into a `pscds-obs` metric set under the
    /// registered `dp.*` names — the one conversion point between the
    /// legacy struct and the unified telemetry registry.
    pub fn record_into(&self, metrics: &mut MetricSet) {
        metrics.counter_add(names::DP_CACHE_HITS, self.cache_hits);
        metrics.counter_add(names::DP_CACHE_MISSES, self.cache_misses);
        metrics.counter_add(names::DP_FALLBACK_NODES, self.fallback_nodes);
        metrics.counter_add(names::DP_CROSS_SUBSET_HITS, self.cross_subset_hits);
        metrics.gauge_max(names::DP_CACHE_PEAK, self.peak_cache_entries as u64);
        for key in &self.fallback_keys {
            metrics.exemplar_offer(names::DP_FALLBACK_NODES, key);
        }
    }
}

/// One cached suffix aggregate.
struct DpNode {
    /// `N_suffix` — the weighted world count of the suffix.
    count: UBig,
    /// Number of feasible suffix completions (saturating; `0` marks a
    /// memoized empty subtree).
    vectors: u64,
    /// `numerators[l]` = `Σ_{feasible completions} Π C · k_{level+l}`.
    numerators: Vec<UBig>,
    /// The run that computed the node (for cross-subset hit attribution).
    run: u32,
    /// Debug-only: whether the replay check already ran for this node.
    #[cfg(debug_assertions)]
    replayed: std::cell::Cell<bool>,
}

impl DpNode {
    fn new(count: UBig, vectors: u64, numerators: Vec<UBig>, run: u32) -> Self {
        DpNode {
            count,
            vectors,
            numerators,
            run,
            #[cfg(debug_assertions)]
            replayed: std::cell::Cell::new(false),
        }
    }
}

/// Node allowance for the debug replay of a cache hit: large enough to
/// verify real collisions, small enough to keep debug test runs subexponential.
#[cfg(debug_assertions)]
const REPLAY_NODE_CAP: u64 = 10_000;

/// Budget phase charged once per DP node.
const DP_PHASE: &str = "confidence::dp";

/// One context's residual memo.
type Memo = HashMap<ResidualKey, Rc<DpNode>>;

/// A residual-node memo shared **across DP runs** — the consensus sweep's
/// cache (ROADMAP "DP for consensus levels").
///
/// Sharing is sound because the DP recursion is a pure function of the
/// analysis's *projected structure*: the class list `(signature, size)`
/// and the per-source bounds `(min_sound, completeness)` determine every
/// prune, every `k_cap`, and every leaf verdict (`hurt` and `suffix_max`
/// derive from them). The cache therefore folds that structure into the
/// key — each run's analysis is interned to a context id, and nodes are
/// keyed `(context, level, packed residuals)`. Two subsets of a source
/// collection whose projected structures coincide (duplicate sources
/// dropped, same padding) intern to the *same* context and share every
/// node; structurally distinct subsets never collide.
///
/// Nodes remember the run that inserted them, so a hit on an earlier
/// run's node is reported as [`DpStats::cross_subset_hits`] — the
/// quantity the `dp.cross_subset_hits` counter tracks.
///
/// The memo is single-threaded (nodes are `Rc`);
/// [`count_dp_shared_parallel`] documents how the parallel twin degrades.
#[derive(Default)]
pub struct SharedDpCache {
    /// Structural encoding → interned context id (an index into `memos`).
    contexts: HashMap<Box<[u64]>, usize>,
    /// Per-context residual memos.
    memos: Vec<Memo>,
    /// Total nodes across contexts (the capacity the cap governs).
    entries: usize,
    /// Next run sequence number.
    runs: u32,
    max_entries: usize,
}

impl SharedDpCache {
    /// An empty shared cache honoring `config.max_cache_entries` across
    /// *all* contexts combined.
    #[must_use]
    pub fn new(config: &DpConfig) -> Self {
        SharedDpCache {
            max_entries: config.max_cache_entries,
            ..SharedDpCache::default()
        }
    }

    /// Total cached nodes across all contexts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// `true` when nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct projected structures interned so far.
    #[must_use]
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The structural encoding a context id interns: class count, source
    /// count, the `(signature, size)` class sequence, and the per-source
    /// bounds.
    fn encode(analysis: &SignatureAnalysis) -> Box<[u64]> {
        let classes = analysis.classes();
        let bounds = analysis.bounds();
        let mut enc = Vec::with_capacity(2 + 2 * classes.len() + 3 * bounds.len());
        enc.push(classes.len() as u64);
        enc.push(bounds.len() as u64);
        for class in classes {
            enc.push(class.signature);
            enc.push(class.size);
        }
        for b in bounds {
            enc.push(b.min_sound);
            enc.push(b.completeness.num());
            enc.push(b.completeness.den());
        }
        enc.into_boxed_slice()
    }
}

/// The DP's fold over the residual walk: children fold into a suffix
/// aggregate, memoized in one context of a [`SharedDpCache`] (borrowed
/// once, for the whole run).
struct DpFold<'r> {
    analysis: &'r SignatureAnalysis,
    rows: &'r mut RowCache,
    memo: &'r mut Memo,
    /// The cache's total node count, shared by all its contexts.
    entries: &'r mut usize,
    max_entries: usize,
    /// This run's sequence number (for cross-subset hit attribution).
    run: u32,
    /// Shared feasible-leaf node (count 1, one completion).
    leaf: Rc<DpNode>,
    stats: DpStats,
}

/// One node's aggregate while its children are folded in.
struct DpAcc {
    /// The interned binomial row of the node's class.
    row: RowId,
    count: UBig,
    vectors: u64,
    numerators: Vec<UBig>,
    scratch: UBig,
    scaled: UBig,
}

impl<'r> DpFold<'r> {
    /// Interns the analysis's projected structure in `cache` and opens a
    /// new run against that context.
    fn begin(
        analysis: &'r SignatureAnalysis,
        cache: &'r mut SharedDpCache,
        rows: &'r mut RowCache,
    ) -> Self {
        let next = cache.memos.len();
        let ctx = *cache
            .contexts
            .entry(SharedDpCache::encode(analysis))
            .or_insert(next);
        if ctx == next {
            cache.memos.push(Memo::new());
        }
        let run = cache.runs;
        cache.runs = cache.runs.saturating_add(1);
        DpFold {
            analysis,
            rows,
            memo: &mut cache.memos[ctx],
            entries: &mut cache.entries,
            max_entries: cache.max_entries,
            run,
            leaf: Rc::new(DpNode::new(UBig::one(), 1, Vec::new(), run)),
            stats: DpStats::default(),
        }
    }
}

impl Fold for DpFold<'_> {
    type Node = Rc<DpNode>;
    type Acc = DpAcc;
    const PHASE: &'static str = DP_PHASE;

    fn leaf(&mut self) -> Rc<DpNode> {
        Rc::clone(&self.leaf)
    }

    fn lookup(
        &mut self,
        key: &ResidualKey,
        j: usize,
        t: &[u64],
        w: u64,
    ) -> Option<Option<Rc<DpNode>>> {
        let node = self.memo.get(key)?;
        self.stats.cache_hits += 1;
        if node.run < self.run {
            self.stats.cross_subset_hits += 1;
        }
        #[cfg(debug_assertions)]
        replay_check(self.analysis, j, t, w, node);
        #[cfg(not(debug_assertions))]
        let _ = (j, t, w);
        Some((node.vectors > 0).then(|| Rc::clone(node)))
    }

    fn open(&mut self, j: usize) -> DpAcc {
        self.stats.cache_misses += 1;
        let classes = self.analysis.classes();
        DpAcc {
            row: self.rows.intern(classes[j].size),
            count: UBig::zero(),
            vectors: 0,
            numerators: vec![UBig::zero(); classes.len() - j],
            scratch: UBig::zero(),
            scaled: UBig::zero(),
        }
    }

    fn add(&mut self, acc: &mut DpAcc, _j: usize, k: u64, child: &Rc<DpNode>) {
        acc.vectors = acc.vectors.saturating_add(child.vectors);
        let binom = self.rows.get(acc.row, k);
        binom.mul_into(&child.count, &mut acc.scratch);
        if k > 0 {
            acc.scratch.mul_u64_into(k, &mut acc.scaled);
            acc.numerators[0].add_assign(&acc.scaled);
        }
        acc.count.add_assign(&acc.scratch);
        for (l, child_num) in child.numerators.iter().enumerate() {
            if !child_num.is_zero() {
                binom.mul_into(child_num, &mut acc.scratch);
                acc.numerators[l + 1].add_assign(&acc.scratch);
            }
        }
    }

    fn store(&mut self, key: ResidualKey, acc: DpAcc) -> Result<Option<Rc<DpNode>>, CoreError> {
        let node = Rc::new(DpNode::new(
            acc.count,
            acc.vectors,
            acc.numerators,
            self.run,
        ));
        if *self.entries < self.max_entries {
            if self.memo.insert(key, Rc::clone(&node)).is_none() {
                *self.entries += 1;
            }
            self.stats.peak_cache_entries = self.stats.peak_cache_entries.max(*self.entries);
        } else {
            // The memo is full: the node is computed but not kept.
            self.stats.fallback_nodes += 1;
            self.stats.note_fallback_key(&key.render());
        }
        Ok((node.vectors > 0).then_some(node))
    }
}

/// Debug check of the residual-state equivalence argument: on the first
/// hit of each cached node, recount the feasible completions from the
/// *current* exact state with the uncached DFS and compare with the
/// cached aggregate (two states mapping to one key must have identical
/// suffix trees). Replays that outgrow [`REPLAY_NODE_CAP`] are skipped.
#[cfg(debug_assertions)]
fn replay_check(analysis: &SignatureAnalysis, j: usize, t: &[u64], w: u64, node: &DpNode) {
    if node.replayed.replace(true) {
        return;
    }
    let mut vectors = 0u64;
    let mut counts = vec![0u64; analysis.classes().len()];
    let replay = analysis.dfs(
        j,
        &mut counts,
        &mut t.to_vec(),
        &mut { w },
        DP_PHASE,
        &Budget::with_max_steps(REPLAY_NODE_CAP),
        &mut |_: &[u64]| {
            vectors = vectors.saturating_add(1);
            std::ops::ControlFlow::<()>::Continue(())
        },
    );
    if replay.is_ok() {
        debug_assert_eq!(
            vectors, node.vectors,
            "residual-state collision at level {j}: cached suffix has \
             {} completions, replay from the hitting state found {vectors}",
            node.vectors
        );
    }
}

/// The one DP driver: advances the root state through `prefix` (a
/// parallel chunk's fixed classes; empty for a whole run), walks the
/// suffix against `cache`, and scales the suffix aggregates by the
/// prefix weight.
fn run_dp(
    analysis: &SignatureAnalysis,
    cache: &mut SharedDpCache,
    rows: &mut RowCache,
    prefix: &[u64],
    budget: &Budget,
) -> Result<Partial, CoreError> {
    let m = analysis.classes().len();
    let mut partial = Partial {
        total: UBig::zero(),
        class_numerators: vec![UBig::zero(); m],
        vectors: 0,
        stats: DpStats::default(),
    };
    let mut counts = vec![0u64; m];
    let mut t = vec![0u64; analysis.source_count()];
    let mut w = 0u64;
    if !analysis.apply_prefix(prefix, &mut counts, &mut t, &mut w) {
        // The serial DFS never reaches this prefix; the chunk is empty.
        return Ok(partial);
    }
    let mut fold = DpFold::begin(analysis, cache, rows);
    let root = Residual::new(analysis).walk(&mut fold, prefix.len(), &mut t, &mut w, budget)?;
    partial.stats = fold.stats;
    let Some(root) = root else {
        return Ok(partial);
    };
    // Weight of the fixed prefix: Π_{j<d} C(size_j, k_j); every class
    // numerator of a prefix class is its fixed k times the chunk total.
    let mut weight = UBig::one();
    for (j, &k) in prefix.iter().enumerate() {
        let row = fold.rows.intern(analysis.classes()[j].size);
        weight = weight.mul(fold.rows.get(row, k));
    }
    partial.total = weight.mul(&root.count);
    for (j, &k) in prefix.iter().enumerate() {
        if k > 0 {
            partial.class_numerators[j] = partial.total.mul_u64(k);
        }
    }
    for (l, suffix_num) in root.numerators.iter().enumerate() {
        partial.class_numerators[prefix.len() + l] = weight.mul(suffix_num);
    }
    partial.vectors = root.vectors;
    Ok(partial)
}

/// Runs the memoized DP over a prebuilt decomposition, reusing `rows`
/// across calls. Returns the same [`ConfidenceAnalysis`] the exact DFS
/// produces (bit-identical `total`, per-class numerators, and feasible
/// vector count) plus the run's cache statistics.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out before the count
/// completes (cache exhaustion, by contrast, degrades to DFS — see the
/// module docs).
pub fn count_dp(
    analysis: SignatureAnalysis,
    budget: &Budget,
    config: &DpConfig,
    rows: &mut RowCache,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    let partial = run_dp(
        &analysis,
        &mut SharedDpCache::new(config),
        rows,
        &[],
        budget,
    )?;
    Ok(merge_partials(analysis, std::iter::once(partial)))
}

/// Work-partitioned parallel variant of [`count_dp`]: prefix chunks from
/// [`SignatureAnalysis::prefix_plan`] run one DP each (fresh caches)
/// through [`partition::run_chunks`]; exact per-chunk sums and cache
/// statistics are merged in chunk order. Bit-identical to [`count_dp`]
/// for every thread count; `config.is_serial()` runs the serial path.
///
/// # Errors
/// As [`count_dp`] (the lowest-indexed failing chunk's error wins).
pub fn count_dp_parallel(
    analysis: SignatureAnalysis,
    budget: &Budget,
    parallel: &ParallelConfig,
    config: &DpConfig,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    if parallel.is_serial() {
        return count_dp(analysis, budget, config, &mut RowCache::new());
    }
    let prefixes = analysis.prefix_plan(parallel.target_chunks());
    let outcomes = partition::run_chunks(parallel, budget, &prefixes, |_, prefix, budget, _| {
        let mut cache = SharedDpCache::new(config);
        run_dp(&analysis, &mut cache, &mut RowCache::new(), prefix, budget)
    })?;
    Ok(merge_partials(analysis, outcomes.into_iter().flatten()))
}

/// One prefix chunk's exact aggregates.
struct Partial {
    total: UBig,
    class_numerators: Vec<UBig>,
    vectors: u64,
    stats: DpStats,
}

/// Chunk-order merge of [`Partial`]s into the final analysis (exact
/// integer sums — associative and commutative, so scheduling cannot leak
/// into the result).
fn merge_partials(
    analysis: SignatureAnalysis,
    partials: impl Iterator<Item = Partial>,
) -> (ConfidenceAnalysis, DpStats) {
    let mut total = UBig::zero();
    let mut class_numerators = vec![UBig::zero(); analysis.classes().len()];
    let mut vectors = 0u64;
    let mut stats = DpStats::default();
    for partial in partials {
        total.add_assign(&partial.total);
        for (acc, part) in class_numerators.iter_mut().zip(&partial.class_numerators) {
            acc.add_assign(part);
        }
        vectors = vectors.saturating_add(partial.vectors);
        stats.absorb(&partial.stats);
    }
    (
        ConfidenceAnalysis::from_parts(analysis, total, class_numerators, vectors),
        stats,
    )
}

/// The **instrumented** DP route: identical mathematics to
/// [`count_dp_parallel`], plus per-chunk telemetry recorded into `obs`.
///
/// Determinism contract: with an enabled session the engine always runs
/// the *chunked* plan — even at one thread, where `run_chunks` processes
/// the same chunk list serially in order — so per-chunk budget-tick and
/// cache counters are identical at every thread count, and the merged
/// counter totals (and span skeletons) are bit-identical between a
/// serial and a `--threads 4` run. With a disabled session this is
/// exactly [`count_dp_parallel`] (no chunked detour, no overhead).
///
/// # Errors
/// As [`count_dp_parallel`]; a budget trip additionally records a
/// `budget.trips` counter increment and a `budget.trip` event before the
/// error propagates.
pub fn count_dp_observed(
    analysis: SignatureAnalysis,
    budget: &Budget,
    parallel: &ParallelConfig,
    config: &DpConfig,
    obs: &mut ObsSession,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    if !obs.is_enabled() {
        return count_dp_parallel(analysis, budget, parallel, config);
    }
    obs.span_open(names::SPAN_DP_RUN, budget.elapsed_ns());
    obs.span_attr("engine", "dp");
    let result = count_dp_observed_chunked(analysis, budget, parallel, config, obs);
    if let Err(CoreError::BudgetExceeded { phase, .. }) = &result {
        obs.counter_add(names::BUDGET_TRIPS, 1);
        let phase = phase.clone();
        obs.event(
            names::EVENT_BUDGET_TRIP,
            budget.elapsed_ns(),
            &[("phase", phase.as_str())],
        );
    }
    obs.span_close(budget.elapsed_ns());
    result
}

/// The chunked body of [`count_dp_observed`] (enabled sessions only).
fn count_dp_observed_chunked(
    analysis: SignatureAnalysis,
    budget: &Budget,
    parallel: &ParallelConfig,
    config: &DpConfig,
    obs: &mut ObsSession,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    obs.span_attr("classes", &analysis.classes().len().to_string());
    let prefixes = analysis.prefix_plan(parallel.target_chunks());
    let outcomes = partition::run_chunks(parallel, budget, &prefixes, |idx, prefix, budget, _| {
        // Per-chunk telemetry: ticks as `steps()` deltas (works for both
        // the serial pass-through budget and per-worker forks) and a
        // chunk span on the shared budget clock. The tick delta is
        // *charged* to the chunk span and recorded as a histogram sample,
        // keeping the step-attribution pairing contract: the merged span
        // self-steps sum to the merged `budget.ticks` counter.
        let start_ns = budget.elapsed_ns();
        let steps_before = budget.steps();
        let mut cache = SharedDpCache::new(config);
        let partial = run_dp(&analysis, &mut cache, &mut RowCache::new(), prefix, budget)?;
        let delta = budget.steps() - steps_before;
        let mut metrics = MetricSet::new();
        metrics.counter_add(names::BUDGET_TICKS, delta);
        metrics.histogram_record(names::DP_CHUNK_STEPS, delta);
        partial.stats.record_into(&mut metrics);
        let mut spans = SpanStack::new();
        spans.span_open(names::SPAN_DP_CHUNK, start_ns);
        spans.attr("chunk", &idx.to_string());
        spans.charge(delta);
        spans.close(budget.elapsed_ns());
        Ok((partial, metrics, spans.finish()))
    })?;
    let mut lifecycle = MetricSet::new();
    partition::record_chunk_lifecycle(&mut lifecycle, parallel, &outcomes);
    // The join point: merge per-chunk telemetry in chunk order, then the
    // exact aggregates the same way.
    let mut partials = Vec::with_capacity(outcomes.len());
    for (partial, metrics, spans) in outcomes.into_iter().flatten() {
        obs.merge_metrics(&metrics);
        obs.graft_spans(spans);
        partials.push(partial);
    }
    obs.merge_metrics(&lifecycle);
    Ok(merge_partials(analysis, partials.into_iter()))
}

/// Runs the DP against a cross-run [`SharedDpCache`] — the consensus
/// sweep's engine: overlapping source subsets whose projected structures
/// coincide reuse each other's residual nodes, and the reuse is reported
/// through [`DpStats::cross_subset_hits`].
///
/// Results are bit-identical to [`count_dp`]: the cache changes *where*
/// a suffix aggregate comes from, never its value (see the soundness
/// argument on [`SharedDpCache`]). The shared cache's own capacity
/// governs the memo, so `_config` is not consulted.
///
/// # Errors
/// As [`count_dp`].
pub fn count_dp_shared(
    analysis: SignatureAnalysis,
    budget: &Budget,
    _config: &DpConfig,
    shared: &mut SharedDpCache,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    let partial = run_dp(&analysis, shared, &mut RowCache::new(), &[], budget)?;
    Ok(merge_partials(analysis, std::iter::once(partial)))
}

/// Parallel twin of [`count_dp_shared`]. The shared memo's nodes are
/// `Rc`-backed and cannot cross threads, so a non-serial configuration
/// delegates to the partitioned private-cache engine
/// ([`count_dp_parallel`]) — bit-identical results, just without
/// cross-run node reuse (and hence `cross_subset_hits = 0`). The serial
/// configuration runs [`count_dp_shared`] exactly.
///
/// # Errors
/// As [`count_dp_shared`].
pub fn count_dp_shared_parallel(
    analysis: SignatureAnalysis,
    budget: &Budget,
    parallel: &ParallelConfig,
    config: &DpConfig,
    shared: &mut SharedDpCache,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    if parallel.is_serial() {
        return count_dp_shared(analysis, budget, config, shared);
    }
    count_dp_parallel(analysis, budget, parallel, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::IdentityCollection;
    use crate::paper::example_5_1;
    use crate::resilient::tests_support::wide_slack_identity;
    use pscds_relational::Value;

    fn run_dp(collection: &IdentityCollection, padding: u64) -> (ConfidenceAnalysis, DpStats) {
        let analysis = SignatureAnalysis::new(collection, padding);
        count_dp(
            analysis,
            &Budget::unlimited(),
            &DpConfig::default(),
            &mut RowCache::new(),
        )
        .unwrap()
    }

    #[test]
    fn dp_matches_dfs_on_example_5_1() {
        let id = example_5_1().as_identity().unwrap();
        for m in [0u64, 1, 3, 17, 100] {
            let dfs = ConfidenceAnalysis::analyze(&id, m);
            let (dp, _) = run_dp(&id, m);
            assert_eq!(dp.world_count(), dfs.world_count(), "total at m={m}");
            assert_eq!(
                dp.feasible_vectors(),
                dfs.feasible_vectors(),
                "vectors at m={m}"
            );
            for sym in ["a", "b", "c"] {
                assert_eq!(
                    dp.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                    dfs.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                    "conf({sym}) at m={m}"
                );
            }
            if m > 0 {
                assert_eq!(
                    dp.padding_confidence().unwrap(),
                    dfs.padding_confidence().unwrap(),
                    "padding at m={m}"
                );
            }
        }
    }

    #[test]
    fn dp_collapses_wide_slack_instances() {
        // ~(3t/4)^k feasible vectors, but after each disjoint class the
        // only live residual is "deficit met" — the DP caches one node per
        // (level, deficit) pair and the tree collapses to ~k·t nodes.
        let id = wide_slack_identity(6, 9);
        let budget = Budget::unlimited();
        let analysis = SignatureAnalysis::new(&id, 0);
        let (dp, stats) = count_dp(
            analysis,
            &budget,
            &DpConfig::default(),
            &mut RowCache::new(),
        )
        .unwrap();
        // 7^6 ≈ 118k vectors enumerated by the DFS...
        assert_eq!(dp.feasible_vectors(), 7u64.pow(6));
        // ...but the DP visits only a few hundred nodes.
        assert!(
            budget.steps() < 2_000,
            "expected subexponential node count, got {}",
            budget.steps()
        );
        assert!(stats.cache_hits > 0);
        // And the aggregate matches the exact DFS.
        let dfs = ConfidenceAnalysis::analyze(&id, 0);
        assert_eq!(dp.world_count(), dfs.world_count());
        assert_eq!(
            dp.confidence_of_tuple(&id, &[Value::sym("x0_0")]).unwrap(),
            dfs.confidence_of_tuple(&id, &[Value::sym("x0_0")]).unwrap()
        );
    }

    #[test]
    fn cache_exhaustion_degrades_to_dfs_without_changing_results() {
        let id = example_5_1().as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 9);
        let (full, full_stats) = count_dp(
            analysis.clone(),
            &Budget::unlimited(),
            &DpConfig::default(),
            &mut RowCache::new(),
        )
        .unwrap();
        let (starved, starved_stats) = count_dp(
            analysis,
            &Budget::unlimited(),
            &DpConfig {
                max_cache_entries: 0,
            },
            &mut RowCache::new(),
        )
        .unwrap();
        assert_eq!(starved.world_count(), full.world_count());
        assert_eq!(starved.feasible_vectors(), full.feasible_vectors());
        for sym in ["a", "b", "c"] {
            assert_eq!(
                starved
                    .confidence_of_tuple(&id, &[Value::sym(sym)])
                    .unwrap(),
                full.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap()
            );
        }
        assert_eq!(starved_stats.peak_cache_entries, 0);
        assert_eq!(starved_stats.cache_hits, 0);
        assert!(starved_stats.fallback_nodes >= full_stats.cache_misses);
    }

    #[test]
    fn dp_respects_step_budget_and_reruns_cleanly() {
        let id = wide_slack_identity(4, 8);
        let mut rows = RowCache::new();
        let analysis = SignatureAnalysis::new(&id, 0);
        let err = count_dp(
            analysis.clone(),
            &Budget::with_max_steps(5),
            &DpConfig::default(),
            &mut rows,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        // The shared row cache survives the interruption; a rerun with a
        // fresh allowance gives the exact answer.
        let (dp, _) = count_dp(
            analysis,
            &Budget::unlimited(),
            &DpConfig::default(),
            &mut rows,
        )
        .unwrap();
        let dfs = ConfidenceAnalysis::analyze(&id, 0);
        assert_eq!(dp.world_count(), dfs.world_count());
    }

    #[test]
    fn dp_respects_cancellation() {
        use std::sync::atomic::Ordering;
        // Cancellation is observed every CHECK_INTERVAL ticks; a starved
        // cache degrades the DP to plain DFS on an instance with ~7^6
        // feasible vectors, guaranteeing the slow-path check fires.
        let id = wide_slack_identity(6, 9);
        let budget = Budget::unlimited();
        budget.cancel_handle().store(true, Ordering::Relaxed);
        let analysis = SignatureAnalysis::new(&id, 0);
        let err = count_dp(
            analysis,
            &budget,
            &DpConfig {
                max_cache_entries: 0,
            },
            &mut RowCache::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn parallel_dp_is_bit_identical_to_serial() {
        let id = example_5_1().as_identity().unwrap();
        for m in [0u64, 1, 3, 50] {
            let analysis = SignatureAnalysis::new(&id, m);
            let (serial, _) = count_dp(
                analysis.clone(),
                &Budget::unlimited(),
                &DpConfig::default(),
                &mut RowCache::new(),
            )
            .unwrap();
            for threads in [2usize, 8] {
                let (par, _) = count_dp_parallel(
                    analysis.clone(),
                    &Budget::unlimited(),
                    &ParallelConfig::with_threads(threads),
                    &DpConfig::default(),
                )
                .unwrap();
                assert_eq!(par.world_count(), serial.world_count(), "m={m} t={threads}");
                assert_eq!(par.feasible_vectors(), serial.feasible_vectors());
                for sym in ["a", "b", "c"] {
                    assert_eq!(
                        par.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                        serial.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                        "conf({sym}) m={m} t={threads}"
                    );
                }
                assert_eq!(
                    par.expected_world_size().unwrap(),
                    serial.expected_world_size().unwrap()
                );
            }
        }
    }

    #[test]
    fn observed_route_counters_and_skeletons_are_thread_independent() {
        let id = example_5_1().as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 17);
        let (baseline, _) = count_dp(
            analysis.clone(),
            &Budget::unlimited(),
            &DpConfig::default(),
            &mut RowCache::new(),
        )
        .unwrap();
        type Digest<'a> = (Vec<(&'a str, u64)>, Vec<String>);
        let mut reference: Option<Digest> = None;
        for threads in [1usize, 2, 8] {
            let mut obs = ObsSession::in_memory();
            let (result, stats) = count_dp_observed(
                analysis.clone(),
                &Budget::unlimited(),
                &ParallelConfig::with_threads(threads),
                &DpConfig::default(),
                &mut obs,
            )
            .unwrap();
            assert_eq!(result.world_count(), baseline.world_count(), "t={threads}");
            assert_eq!(result.feasible_vectors(), baseline.feasible_vectors());
            let report = obs.finish();
            assert_eq!(
                report.metrics.counter(names::DP_CACHE_MISSES),
                stats.cache_misses
            );
            assert!(report.metrics.counter(names::BUDGET_TICKS) > 0);
            assert_eq!(
                report.metrics.counter(names::CHUNKS_COMPLETED),
                report.metrics.counter(names::CHUNKS_PLANNED)
            );
            let counters: Vec<(&str, u64)> = report.metrics.counters().collect();
            let skeletons: Vec<String> = report.spans.iter().map(|s| s.skeleton()).collect();
            match &reference {
                None => reference = Some((counters, skeletons)),
                Some((ref_counters, ref_skeletons)) => {
                    assert_eq!(&counters, ref_counters, "counter totals at t={threads}");
                    assert_eq!(&skeletons, ref_skeletons, "span skeletons at t={threads}");
                }
            }
        }
    }

    #[test]
    fn observed_route_with_disabled_session_matches_parallel() {
        let id = example_5_1().as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 5);
        let (plain, plain_stats) = count_dp_parallel(
            analysis.clone(),
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            &DpConfig::default(),
        )
        .unwrap();
        let mut obs = ObsSession::disabled();
        let (observed, observed_stats) = count_dp_observed(
            analysis,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            &DpConfig::default(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(observed.world_count(), plain.world_count());
        assert_eq!(observed_stats, plain_stats);
        assert!(obs.finish().metrics.is_empty());
    }

    #[test]
    fn observed_route_records_budget_trips() {
        let id = wide_slack_identity(4, 8);
        let analysis = SignatureAnalysis::new(&id, 0);
        let mut obs = ObsSession::in_memory();
        let err = count_dp_observed(
            analysis,
            &Budget::with_max_steps(5),
            &ParallelConfig::serial(),
            &DpConfig::default(),
            &mut obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 1);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "budget.trip");
    }

    #[test]
    fn shared_cache_reuses_nodes_across_identical_subsets() {
        let id = example_5_1().as_identity().unwrap();
        let config = DpConfig::default();
        let mut shared = SharedDpCache::new(&config);
        let analysis = SignatureAnalysis::new(&id, 9);
        let (first, first_stats) =
            count_dp_shared(analysis.clone(), &Budget::unlimited(), &config, &mut shared).unwrap();
        assert_eq!(first_stats.cross_subset_hits, 0, "first run has no past");
        assert!(!shared.is_empty());
        assert_eq!(shared.context_count(), 1);
        // A second run over the identical projected structure reuses the
        // root node outright: everything is a cross-subset hit.
        let (second, second_stats) =
            count_dp_shared(analysis, &Budget::unlimited(), &config, &mut shared).unwrap();
        assert_eq!(second.world_count(), first.world_count());
        assert_eq!(second.feasible_vectors(), first.feasible_vectors());
        assert!(second_stats.cross_subset_hits > 0);
        assert_eq!(second_stats.cache_misses, 0, "fully served from the past");
        // And the values agree with the private-cache engine.
        let dfs = ConfidenceAnalysis::analyze(&id, 9);
        assert_eq!(first.world_count(), dfs.world_count());
    }

    #[test]
    fn shared_cache_separates_structurally_distinct_contexts() {
        let config = DpConfig::default();
        let mut shared = SharedDpCache::new(&config);
        let id = example_5_1().as_identity().unwrap();
        for (padding, expected_contexts) in [(0u64, 1usize), (7, 2), (0, 2)] {
            let analysis = SignatureAnalysis::new(&id, padding);
            let (result, _) =
                count_dp_shared(analysis, &Budget::unlimited(), &config, &mut shared).unwrap();
            let dfs = ConfidenceAnalysis::analyze(&id, padding);
            assert_eq!(result.world_count(), dfs.world_count(), "padding={padding}");
            assert_eq!(shared.context_count(), expected_contexts);
        }
    }

    #[test]
    fn shared_parallel_twin_is_bit_identical() {
        let id = example_5_1().as_identity().unwrap();
        let config = DpConfig::default();
        let analysis = SignatureAnalysis::new(&id, 3);
        let mut shared = SharedDpCache::new(&config);
        let (serial, _) = count_dp_shared_parallel(
            analysis.clone(),
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            &config,
            &mut shared,
        )
        .unwrap();
        for threads in [2usize, 8] {
            let mut fresh = SharedDpCache::new(&config);
            let (par, stats) = count_dp_shared_parallel(
                analysis.clone(),
                &Budget::unlimited(),
                &ParallelConfig::with_threads(threads),
                &config,
                &mut fresh,
            )
            .unwrap();
            assert_eq!(par.world_count(), serial.world_count(), "t={threads}");
            assert_eq!(par.feasible_vectors(), serial.feasible_vectors());
            assert_eq!(
                stats.cross_subset_hits, 0,
                "private caches cannot cross runs"
            );
        }
    }

    #[test]
    fn inconsistent_collection_counts_zero() {
        use crate::descriptor::SourceDescriptor;
        use pscds_numeric::Frac;
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
        let id = crate::collection::SourceCollection::from_sources([s1, s2])
            .as_identity()
            .unwrap();
        let (dp, _) = run_dp(&id, 4);
        assert!(!dp.is_consistent());
        assert_eq!(dp.feasible_vectors(), 0);
    }
}
