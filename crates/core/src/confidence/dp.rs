//! Level-synchronous suffix-count DP for the exact confidence counter.
//!
//! The exact counter (`counting.rs`) enumerates feasible count vectors
//! `(k_σ)` by DFS, so its runtime grows with the number of *paths* into
//! each suffix of the class order even though a suffix's contribution
//! depends only on a small residual state (`residual.rs` holds the
//! argument why equal residual keys have identical suffixes). This
//! engine visits each residual state once, in two sweeps over the class
//! levels, both sinks of the one child kernel
//! (`SignatureAnalysis::children`), which owns the DFS's prune, leaf and
//! `k_cap` rules:
//!
//! 1. **Expand**, top-down: level `j+1`'s states are the distinct keys
//!    of the children of level `j`'s states, sorted by key, each with one
//!    representative exact state `(t, w)` — its first arrival in DFS
//!    order.
//! 2. **Evaluate**, bottom-up: each state folds its children's suffix
//!    aggregates — world count `N_suffix`, per-class containment
//!    numerators `Σ Π C(n_σ,k_σ)·k_σ₀`, feasible completions — found by
//!    key in the level below. A level's aggregates are dropped once its
//!    parents have folded them in, so a run holds keys for every level
//!    but aggregates for at most two.
//!
//! The root's aggregate yields `total`, every `class_numerators[σ₀]` and
//! `feasible_vectors` exactly as the DFS does, while search trees that
//! re-enter the same residual states (disjoint extensions, wide slack
//! classes) collapse from exponential to pseudo-polynomial in the class
//! sizes. Debug builds replay the uncached DFS from both exact states
//! that first share a key and `debug_assert` equal aggregates.
//!
//! # Budget, cap and threads
//!
//! Search steps draw from the caller's [`Budget`] like a recursive walk
//! over the same states: one tick for the root and one per child a state
//! generates. [`DpConfig::max_cache_entries`] caps the resident states;
//! each arrival at a state past the cap is counted by the uncached DFS
//! from its exact state — still exact, never an error.
//!
//! The evaluation, which does the bigint work, splits each level with
//! [`partition::split_slice_ranges`] through [`partition::run_chunks`].
//! The expansion, one hash lookup per arrival, stays on the calling
//! thread: parts would each rediscover most of the level below (at
//! `example_5_1_scaled(64)`, 32 parts hold 48k copies of 2,177 states).
//! So the level sets, every counter and the result are the same at every
//! thread count, traced or not. Each expanded level records a `dp.level`
//! span (`level`, `states`) charged with its ticks, level 0's including
//! the root's; the uncached walks are charged to `dp.run`.
//!
//! # The expansion as a planner
//!
//! The expansion visits every residual state the DFS would visit, so it
//! can also count the DFS's paths into each: the root has one, and each
//! arrival adds its parent's count. One sweep then yields, exactly and
//! with no extra walk, the costs of both exact engines ([`Plan`]):
//!
//! * `dfs_steps = 1 + Σ_s paths(s)·(k_cap(s)+1)` — the serial DFS's
//!   `Budget::steps()`, since the DFS ticks its root and, on every path
//!   into a state, each child the state generates;
//! * `dp_steps = 1 + Σ_s (k_cap(s)+1)` — the expansion's own ticks;
//! * `folds = Σ_s (k_cap(s)+1)·(m−j+1)` — the evaluation's `UBig` folds
//!   at level `j`.
//!
//! The resilient ladder's planned rung (`plan_exact`) runs the DFS when
//! `dfs_steps ≤ folds` and the DFS fits the remaining step allowance, and
//! otherwise evaluates the levels it already expanded. The decision is an
//! integer comparison of thread-independent counts, so the engine chosen
//! is the same at every thread count.
//!
//! # The expansion as the circuit compiler's first sweep
//!
//! The circuit compiler (`circuit.rs`) runs this same expansion, charged
//! to its own budget phase, then appends each level's nodes to its arena
//! bottom-up where the DP evaluates. Its expansion also records, per
//! state, one link `(k, target)` per child that can get an edge — a
//! feasible leaf, or an inner child at its position in the level below,
//! remapped through the sort permutation once that level is sorted — so
//! the append reads every edge off a link and never re-walks the kernel.
//! A delta patch passes the levels it kept as `retained`: the expansion
//! stops at their states and links to their positions, and numbers the
//! fresh states of a kept level after them. The DP records no links
//! (the `LINK` parameter of [`Sweep::expand`] is off, so it does no
//! per-child work for them); its evaluation re-walks the children, since
//! holding every level's links would grow its resident set.

use crate::confidence::circuit::{to_u32, Edge};
use crate::confidence::counting::{ConfidenceAnalysis, Tally};
use crate::confidence::residual::{render_key, KeyTable, Residual};
use crate::confidence::signature::{SignatureAnalysis, Subtree};
use crate::error::CoreError;
use crate::govern::{record_trip, Budget, Engine};
use crate::partition::{self, ParallelConfig};
use pscds_numeric::{RowCache, UBig};
use pscds_obs::{names, MetricSet, ObsSession, EXEMPLAR_KEYS};
use std::collections::HashMap;
use std::ops::Range;

/// Memoization limits for the DP engine (search *steps* are governed by
/// the [`Budget`] passed at the call site; this bounds memory).
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// Maximum number of residual states resident at once. States past
    /// the cap are counted by the uncached DFS (exact degradation —
    /// never an error).
    pub max_cache_entries: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            // ~1M residual states; each holds its packed key and its
            // representative state (`words(j) + n + 1` limbs) and, while
            // its level folds, a handful of UBigs, so this caps memory at
            // a few hundred MB in the worst case while leaving every
            // realistic instance fully resident.
            max_cache_entries: 1 << 20,
        }
    }
}

/// State counters of one DP run (for benches and diagnostics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Arrivals at a residual key that already had a state (in this run,
    /// or as a [`SharedDpCache`] result).
    pub cache_hits: u64,
    /// Distinct residual states the sweep evaluated.
    pub cache_misses: u64,
    /// Peak number of resident states: the run's, plus the results a
    /// [`SharedDpCache`] holds (the largest run's, when
    /// [absorbed](DpStats::absorb) across runs).
    pub peak_cache_entries: usize,
    /// Search-tree nodes the uncached DFS visited below states past the
    /// cap (the degradation path).
    pub fallback_nodes: u64,
    /// Runs answered by a [`SharedDpCache`] result of an *earlier* run
    /// (the cross-subset sharing win of the consensus sweep; always 0 for
    /// private runs).
    pub cross_subset_hits: u64,
    /// The lexicographically smallest [`EXEMPLAR_KEYS`] canonical
    /// residual-key renderings among the states past the cap — the
    /// deterministic exemplar payload attached to `dp.fallback_nodes`.
    /// Keep-smallest is a semilattice, so merge order cannot reorder it.
    pub fallback_keys: Vec<String>,
}

impl DpStats {
    /// Folds another run's counters into this one (across the consensus
    /// sweep's subset runs).
    pub fn absorb(&mut self, other: &DpStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.peak_cache_entries = self.peak_cache_entries.max(other.peak_cache_entries);
        self.fallback_nodes += other.fallback_nodes;
        self.cross_subset_hits += other.cross_subset_hits;
        for key in &other.fallback_keys {
            self.note_fallback_key(key);
        }
    }

    /// Records one state past the cap, keeping only the
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

/// What one expansion sweep predicts for the two exact engines (see the
/// module docs). Every count saturates at `u64::MAX`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Plan {
    /// The serial DFS's `Budget::steps()`.
    dfs_steps: u64,
    /// The expansion's ticks: the DP's steps when no state passes the cap.
    dp_steps: u64,
    /// The evaluation's `UBig` folds.
    folds: u64,
    /// `false` when the state cap cut the expansion short, so the paths
    /// into the states past it are unknown.
    pub(crate) complete: bool,
}

impl Plan {
    /// The plan of a tree with no internal state (the root is a leaf or
    /// pruned): both engines are the same one-tick walk.
    const SINGLE_NODE: Plan = Plan {
        dfs_steps: 1,
        dp_steps: 1,
        folds: 0,
        complete: true,
    };

    /// `true` iff the planned rung should run the DFS: the prediction is
    /// complete, the DFS takes no more steps than the DP has folds left
    /// (a single-node tree has none, and its DFS is the one tick), and it
    /// fits `allowance` steps.
    fn prefers_dfs(&self, allowance: u64) -> bool {
        self.complete && self.dfs_steps <= self.folds.max(1) && self.dfs_steps <= allowance
    }
}

/// Suffix aggregates of a run of states, packed: per state its world
/// count `N_suffix` then, for each class `l` of the suffix, the
/// containment numerator `Σ_{feasible completions} Π C · k_l` — each a
/// run of limbs — plus its number of feasible completions (saturating).
#[derive(Default, PartialEq)]
struct Sums {
    limbs: Vec<u64>,
    ends: Vec<usize>,
    vectors: Vec<u64>,
}

impl Sums {
    /// The limbs of value `v` (entry `v % width` of state `v / width`).
    fn value(&self, v: usize) -> &[u64] {
        let start = v.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.limbs[start..self.ends[v]]
    }

    /// Appends one state's aggregate.
    fn push(&mut self, values: &[UBig], vectors: u64) {
        for value in values {
            self.limbs.extend_from_slice(value.limbs());
            self.ends.push(self.limbs.len());
        }
        self.vectors.push(vectors);
    }

    /// Folds state `c` of `self` (`acc.len() − 1` values per state),
    /// reached by choosing `k` tuples of a class at weight `binom`, into
    /// `acc` = `[count, the numerators of that class and the suffix]`.
    fn fold_into(
        &self,
        (c, k, binom): (usize, u64, &UBig),
        acc: &mut [UBig],
        vectors: &mut u64,
        scratch: &mut [UBig; 3],
    ) {
        let width = acc.len() - 1;
        let [value, term, scaled] = scratch;
        value.set_limbs(self.value(c * width));
        if value.is_zero() {
            return;
        }
        *vectors = vectors.saturating_add(self.vectors[c]);
        binom.mul_into(value, term);
        acc[0].add_assign(term);
        if k > 0 {
            term.mul_u64_into(k, scaled);
            acc[1].add_assign(scaled);
        }
        for l in 1..width {
            value.set_limbs(self.value(c * width + l));
            binom.mul_into(value, term);
            acc[l + 1].add_assign(term);
        }
    }
}

/// Node allowance for each debug replay of a key collision: large enough
/// to verify real collisions, small enough to keep debug test runs
/// subexponential.
#[cfg(debug_assertions)]
const REPLAY_NODE_CAP: u64 = 10_000;

/// Budget phase charged once per DP node.
const DP_PHASE: &str = "confidence::dp";

/// DP results shared **across runs** — the consensus sweep's cache.
///
/// A run's result is a pure function of its analysis's *projected
/// structure* — the class list `(signature, size)` and the per-source
/// bounds `(min_sound, completeness)` fix every prune, `k_cap` and leaf
/// verdict from the root down — so the cache keys each root aggregate on
/// it. Subsets of a collection with one projected structure (duplicate
/// sources dropped, same padding) share the result: a later run stops at
/// its root, a [`DpStats::cross_subset_hits`] hit.
#[derive(Default)]
pub struct SharedDpCache {
    /// Projected structure → the root aggregate of its DP.
    roots: HashMap<Box<[u64]>, Sums>,
    max_entries: usize,
}

impl SharedDpCache {
    /// An empty shared cache; `config.max_cache_entries` caps the held
    /// results and each run's states combined.
    #[must_use]
    pub fn new(config: &DpConfig) -> Self {
        SharedDpCache {
            max_entries: config.max_cache_entries,
            ..SharedDpCache::default()
        }
    }

    /// Number of cached results: the distinct projected structures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// `true` when nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// One level's states, flat: their packed residual keys (`words(j)`
/// limbs each, sorted) and per state its representative exact state `t`
/// (`n` limbs for `n` sources) and `w` — `words(j) + n + 1` limbs a state.
/// A circuit compile's expansion also records each state's child links.
#[derive(Default)]
pub(crate) struct Level {
    pub(crate) keys: KeyTable,
    sources: usize,
    /// Per state, `t` then `w`.
    reps: Vec<u64>,
    /// Per state, in `k` order, one link per child that can get a circuit
    /// edge — a feasible leaf or an inner child — as an [`Edge`] whose
    /// `weight` holds the `k` chosen and whose `child` holds the target:
    /// the accepting leaf `0` past the last class, else the child's
    /// position in the compile's level below (see [`Sweep::expand`]).
    /// Empty in a DP run.
    pub(crate) links: Vec<Edge>,
    /// Per state, the end of its links.
    pub(crate) ends: Vec<usize>,
}

impl Level {
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The exact `(t, w)` of the states in `range`.
    pub(crate) fn states(&self, range: Range<usize>) -> impl Iterator<Item = (&[u64], u64)> {
        let n = self.sources;
        let reps = &self.reps[range.start * (n + 1)..range.end * (n + 1)];
        reps.chunks_exact(n + 1).map(move |r| (&r[..n], r[n]))
    }
}

/// The tag of a link that targets a retained state while its level
/// expands.
const RETAINED: u32 = 1 << 31;

/// One sweep over one decomposition: the DP's run, or the expansion the
/// circuit compiler appends its arena from (`circuit.rs`).
pub(crate) struct Sweep<'a> {
    pub(crate) analysis: &'a SignatureAnalysis,
    pub(crate) residual: Residual<'a>,
    parallel: &'a ParallelConfig,
    /// The budget phase the expansion's ticks charge.
    phase: &'static str,
}

impl<'a> Sweep<'a> {
    pub(crate) fn new(
        analysis: &'a SignatureAnalysis,
        parallel: &'a ParallelConfig,
        phase: &'static str,
    ) -> Self {
        let residual = Residual::new(analysis);
        Sweep {
            analysis,
            residual,
            parallel,
            phase,
        }
    }

    /// Counts from the root with at most `cap` resident states. `obs`
    /// receives the `dp.level` spans, the chunk lifecycle and the
    /// [`DpStats`] counters.
    fn run(
        &self,
        budget: &Budget,
        cap: usize,
        obs: &mut ObsSession,
    ) -> Result<(Sums, DpStats), CoreError> {
        let mut stats = DpStats::default();
        let (levels, _) = self.expand::<false>(budget, cap, &[], &mut stats, obs)?;
        self.finish(levels, budget, stats, obs)
    }

    /// `true` iff the root has children to expand: there are classes and
    /// the root is not pruned.
    fn live_root(&self) -> bool {
        let t = vec![0u64; self.analysis.source_count()];
        self.analysis.subtree(0, &t, 0) == Subtree::Inner
    }

    /// Evaluates expanded `levels` — or, without them, counts the tree by
    /// the uncached walk, which ticks the root itself — and records the
    /// run's counters into `obs`.
    fn finish(
        &self,
        levels: Option<Vec<Level>>,
        budget: &Budget,
        mut stats: DpStats,
        obs: &mut ObsSession,
    ) -> Result<(Sums, DpStats), CoreError> {
        let mut metrics = MetricSet::new();
        let (root, run_ticks) = match levels {
            Some(levels) => {
                let root = self.evaluate(levels, budget, &mut stats, &mut metrics)?;
                (root, stats.fallback_nodes)
            }
            None => {
                let steps_before = budget.steps();
                let mut t = vec![0u64; self.analysis.source_count()];
                let root = self.fallback(0, &mut t, &mut 0, budget)?;
                let ticks = budget.steps() - steps_before;
                if self.live_root() {
                    let mut packed = Vec::new();
                    self.residual.pack_into(0, &t, 0, &mut packed);
                    stats.note_fallback_key(&render_key(0, &packed));
                    stats.fallback_nodes = ticks;
                }
                (root, ticks)
            }
        };
        // The uncached walks belong to the run span.
        obs.charge_steps(run_ticks);
        stats.record_into(&mut metrics);
        obs.merge_metrics(&metrics);
        Ok((root, stats))
    }

    /// The expansion sweep from the root: every level's states but the
    /// `retained` ones, at most `cap` in all, each level charged to its
    /// `dp.level` span, and the [`Plan`] the sweep predicts. A child state
    /// `retained[level]` holds is neither kept nor expanded, only counted
    /// as a hit: the caller already has its suffix. No levels come back when
    /// the root is a leaf, pruned or past a zero cap: the uncached walk
    /// then counts the tree.
    ///
    /// With `LINK`, the circuit compile's expansion, every state also
    /// records its [`Level::links`]. A link's target is a position in one
    /// space per level, the one the compile's memo numbers its states in:
    /// a retained state's position in `retained[level]`, and a fresh
    /// state's `retained[level].len()` plus its position in the sorted
    /// level. The DP passes no `retained` levels and records no links.
    pub(crate) fn expand<const LINK: bool>(
        &self,
        budget: &Budget,
        cap: usize,
        retained: &[KeyTable],
        stats: &mut DpStats,
        obs: &mut ObsSession,
    ) -> Result<(Option<Vec<Level>>, Plan), CoreError> {
        let live = self.live_root();
        if !live || cap == 0 {
            // Past a zero cap, the paths below a live root are unknown.
            let plan = Plan {
                complete: !live,
                ..Plan::SINGLE_NODE
            };
            return Ok((None, plan));
        }
        let analysis = self.analysis;
        let (m, n) = (analysis.classes().len(), analysis.source_count());
        let (mut t, mut packed) = (vec![0u64; n], Vec::new());
        // The root: its key, then its exact state, all zeros.
        let mut root = KeyTable::with_capacity(self.residual.layout(0).words(), 1);
        self.residual.pack_into(0, &t, 0, &mut packed);
        root.push(&packed);
        let mut levels = vec![Level {
            keys: root,
            sources: n,
            reps: vec![0; n + 1],
            ..Level::default()
        }];
        // The DFS's paths into each state of the current level.
        let mut paths = vec![1u64];
        // The root's tick, before any state's children.
        let mut plan = Plan::SINGLE_NODE;
        let mut kept = 1;
        let mut mark = budget.steps();
        budget.tick(self.phase)?;
        // Per level, the distinct children in arrival order: their keys,
        // their first arrivals' `(t, w)`, the DFS's paths into each, and
        // whether the debug replay already checked a repeat against it.
        let mut seen = KeyTable::default();
        let (mut arrivals, mut into, mut checked) = (Vec::new(), Vec::<u64>::new(), Vec::new());
        for j in 0..m {
            let states = levels[j].len();
            obs.span_open(names::SPAN_DP_LEVEL, budget.elapsed_ns());
            obs.span_attr("level", &j.to_string());
            obs.span_attr("states", &states.to_string());
            seen.reset(self.residual.layout(j + 1).words());
            arrivals.clear();
            into.clear();
            checked.clear();
            let width = (m - j + 1) as u64;
            let below = retained.get(j + 1);
            // Until the level below is sorted, a link targets a retained
            // state as `RETAINED | position` and a fresh one by its arrival.
            let (mut links, mut ends) = (Vec::new(), Vec::new());
            let links_fit = |arrivals: usize| {
                let positions = below.map_or(0, KeyTable::len).max(arrivals);
                if analysis.classes()[j].size <= u64::from(u32::MAX)
                    && positions < RETAINED as usize
                {
                    Ok(())
                } else {
                    Err(CoreError::BadDomain {
                        message: "a residual level outgrew the circuit's u32 links".to_owned(),
                    })
                }
            };
            if LINK {
                links_fit(0)?;
            }
            let mut expand_level = || -> Result<(), CoreError> {
                for ((t0, w0), &paths_in) in levels[j].states(0..states).zip(&paths) {
                    t.copy_from_slice(t0);
                    analysis.children::<CoreError>(j, &mut t, &mut { w0 }, |k, child, t, w| {
                        plan.dfs_steps = plan.dfs_steps.saturating_add(paths_in);
                        plan.dp_steps = plan.dp_steps.saturating_add(1);
                        plan.folds = plan.folds.saturating_add(width);
                        budget.tick(self.phase)?;
                        // `links_fit` checks that `k` and `at` fit.
                        let mut link = |at: usize, tag: u32| {
                            if LINK {
                                let (weight, child) = (k as u32, at as u32 | tag);
                                links.push(Edge { weight, child });
                            }
                        };
                        if child != Subtree::Inner {
                            if child == (Subtree::Leaf { feasible: true }) {
                                link(0, 0);
                            }
                            return Ok(()); // the evaluation folds leaves in
                        }
                        self.residual.pack_into(j + 1, t, *w, &mut packed);
                        match seen.probe(&packed) {
                            Ok(at) => {
                                #[cfg(debug_assertions)]
                                if !std::mem::replace(&mut checked[at], true) {
                                    let rep = &arrivals[at * (n + 1)..(at + 1) * (n + 1)];
                                    self.replay_check(j + 1, (&rep[..n], rep[n]), (t, *w));
                                }
                                into[at] = into[at].saturating_add(paths_in);
                                stats.cache_hits += 1;
                                link(at, 0);
                            }
                            Err(vacant) => match below.and_then(|keys| keys.find(&packed)) {
                                Some(at) => {
                                    stats.cache_hits += 1;
                                    link(at, RETAINED);
                                }
                                None => {
                                    let at = seen.fill(vacant, &packed)?;
                                    arrivals.extend_from_slice(t);
                                    arrivals.push(*w);
                                    into.push(paths_in);
                                    checked.push(false);
                                    link(at, 0);
                                }
                            },
                        }
                        Ok(())
                    })?;
                    if LINK {
                        ends.push(links.len());
                    }
                }
                Ok(())
            };
            let expanded = expand_level();
            if expanded.is_ok() {
                let ticks = budget.steps() - mark;
                obs.charge_steps(ticks);
                obs.histogram_record(names::DP_LEVEL_STEPS, ticks);
                mark = budget.steps();
            }
            obs.span_close(budget.elapsed_ns());
            expanded?;
            // The children in key order: a permutation, sorted.
            let mut order: Vec<u32> = (0..seen.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| seen.key(a as usize).cmp(seen.key(b as usize)));
            let room = order.len().min(cap - kept);
            plan.complete &= room == order.len();
            if LINK {
                links_fit(seen.len())?;
                // Past the last class every link reaches the leaf.
                if j + 1 < m {
                    let first = below.map_or(0, KeyTable::len);
                    let mut rank = vec![0; order.len()];
                    for (at, &arrival) in order.iter().enumerate() {
                        rank[arrival as usize] = to_u32(first + at)?;
                    }
                    for link in &mut links {
                        link.child = match link.child & RETAINED {
                            0 => rank[link.child as usize],
                            _ => link.child & !RETAINED,
                        };
                    }
                }
                links.shrink_to_fit();
                (levels[j].links, levels[j].ends) = (links, ends);
            }
            for &at in order[room..].iter().take(EXEMPLAR_KEYS) {
                stats.note_fallback_key(&render_key(j + 1, seen.key(at as usize)));
            }
            if room == 0 {
                break;
            }
            let mut next = Level {
                keys: KeyTable::with_capacity(self.residual.layout(j + 1).words(), room),
                sources: n,
                reps: Vec::with_capacity(room * (n + 1)),
                ..Level::default()
            };
            paths.clear();
            for &at in &order[..room] {
                let at = at as usize;
                next.keys.push(seen.key(at));
                next.reps
                    .extend_from_slice(&arrivals[at * (n + 1)..(at + 1) * (n + 1)]);
                paths.push(into[at]);
            }
            kept += room;
            levels.push(next);
        }
        stats.cache_misses = kept as u64;
        stats.peak_cache_entries = kept;
        Ok((Some(levels), plan))
    }

    /// The evaluation sweep, deepest level first, each level split across
    /// `self.parallel`. Returns the root's aggregate.
    fn evaluate(
        &self,
        mut levels: Vec<Level>,
        budget: &Budget,
        stats: &mut DpStats,
        metrics: &mut MetricSet,
    ) -> Result<Sums, CoreError> {
        let analysis = self.analysis;
        let m = analysis.classes().len();
        let mut leaf = Sums::default();
        leaf.push(&[UBig::one()], 1);
        // The level below: its states, parts and the parts' aggregates.
        let (mut below, mut below_parts, mut below_sums) =
            (Level::default(), Vec::<Range<usize>>::new(), Vec::new());
        for j in (0..levels.len()).rev() {
            let level = std::mem::take(&mut levels[j]);
            // Key → position of each aggregate of the level below.
            below.keys.index();
            let index = &below.keys;
            let evaluate_part = |part: &Range<usize>, budget: &Budget| -> Result<_, CoreError> {
                budget.check(DP_PHASE)?;
                let mut rows = RowCache::new();
                let row = rows.intern(analysis.classes()[j].size);
                let (mut t, mut packed) = (vec![0u64; analysis.source_count()], Vec::new());
                let mut scratch = [UBig::zero(), UBig::zero(), UBig::zero()];
                let mut acc = vec![UBig::zero(); m - j + 1];
                let mut sums = Sums::default();
                for (t0, w0) in level.states(part.clone()) {
                    acc.iter_mut().for_each(|value| value.set_u64(0));
                    let mut vectors = 0;
                    t.copy_from_slice(t0);
                    analysis.children::<CoreError>(j, &mut t, &mut { w0 }, |k, child, t, w| {
                        let walked;
                        let child = match child {
                            Subtree::Leaf { feasible } => feasible.then_some((&leaf, 0)),
                            Subtree::Pruned => None,
                            Subtree::Inner => {
                                self.residual.pack_into(j + 1, t, *w, &mut packed);
                                Some(match index.find(&packed) {
                                    Some(i) => {
                                        let p = below_parts.partition_point(|r| r.end <= i);
                                        (&below_sums[p], i - below_parts[p].start)
                                    }
                                    None => {
                                        walked = self.fallback(j + 1, t, w, budget)?;
                                        (&walked, 0)
                                    }
                                })
                            }
                        };
                        if let Some((child, c)) = child {
                            let binom = rows.get(row, k);
                            child.fold_into((c, k, binom), &mut acc, &mut vectors, &mut scratch);
                        }
                        Ok(())
                    })?;
                    sums.push(&acc, vectors);
                }
                Ok(sums)
            };
            let parts = partition::split_slice_ranges(level.len(), self.parallel.target_chunks());
            let outcomes =
                partition::run_chunks(self.parallel, budget, &parts, |_, part, b, _| {
                    let start = b.steps();
                    let sums = evaluate_part(part, b)?;
                    Ok((sums, b.steps() - start))
                })?;
            partition::record_chunk_lifecycle(metrics, self.parallel, &outcomes);
            below_sums.clear();
            for (sums, ticks) in outcomes.into_iter().flatten() {
                below_sums.push(sums);
                // Only the uncached walks tick here.
                stats.fallback_nodes += ticks;
            }
            (below, below_parts) = (level, parts);
        }
        Ok(below_sums.swap_remove(0))
    }

    /// Debug check of the residual-state equivalence argument: two exact
    /// states with one key at level `j` have identical suffix trees, so
    /// the uncached walk finds the same aggregate from both. Walks past
    /// [`REPLAY_NODE_CAP`] nodes are skipped.
    #[cfg(debug_assertions)]
    fn replay_check(&self, j: usize, rep: (&[u64], u64), other: (&[u64], u64)) {
        let walk = |(t, w): (&[u64], u64)| {
            let cap = Budget::with_max_steps(REPLAY_NODE_CAP);
            self.fallback(j, &mut t.to_vec(), &mut { w }, &cap).ok()
        };
        if rep != other {
            let (a, b) = (walk(rep), walk(other));
            let agree = a.is_none() || b.is_none() || a == b;
            debug_assert!(agree, "residual-state collision at level {j}");
        }
    }

    /// The aggregate of the live state `(t, w)` at level `j` by the
    /// uncached DFS.
    fn fallback(
        &self,
        j: usize,
        t: &mut [u64],
        w: &mut u64,
        budget: &Budget,
    ) -> Result<Sums, CoreError> {
        let analysis = self.analysis;
        let mut tally = Tally::new(analysis);
        let mut counts = vec![0u64; analysis.classes().len()];
        let visit = &mut |counts: &[u64]| {
            tally.add(counts);
            Ok(())
        };
        let tick = || budget.tick(DP_PHASE);
        let node = analysis.subtree(j, t, *w);
        let walked = analysis.dfs(j, node, &mut counts, t, w, &tick, visit);
        walked.or_else(|halt| halt)?;
        let (count, numerators, vectors) = tally.finish();
        let values: Vec<UBig> = std::iter::once(count)
            .chain(numerators.into_iter().skip(j))
            .collect();
        let mut sums = Sums::default();
        sums.push(&values, vectors);
        Ok(sums)
    }
}

/// Runs the level-synchronous DP over a prebuilt decomposition (see the
/// module docs), recording its telemetry into `obs` under a `dp.run`
/// span. Returns the same [`ConfidenceAnalysis`] the exact DFS produces
/// (bit-identical `total`, per-class numerators, and feasible vector
/// count) plus the run's state counters, which — like the span
/// skeletons — are the same at every thread count, traced or not.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out before the
/// count completes (the state cap, by contrast, degrades to the uncached
/// DFS — see the module docs). A trip also records a `budget.trips`
/// increment and a `budget.trip` event.
pub fn count_dp_observed(
    analysis: SignatureAnalysis,
    budget: &Budget,
    parallel: &ParallelConfig,
    config: &DpConfig,
    obs: &mut ObsSession,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    obs.span_open(names::SPAN_DP_RUN, budget.elapsed_ns());
    obs.span_attr("engine", "dp");
    obs.span_attr("classes", &analysis.classes().len().to_string());
    let sweep = Sweep::new(&analysis, parallel, DP_PHASE);
    let swept = sweep.run(budget, config.max_cache_entries, obs);
    record_trip(obs, budget.elapsed_ns(), &swept);
    obs.span_close(budget.elapsed_ns());
    let (root, stats) = swept?;
    Ok((assemble(analysis, &root), stats))
}

/// What the planned rung runs (see [`plan_exact`]).
pub(crate) enum Planned {
    /// The plan prefers the DFS: the decomposition goes back to the
    /// caller to run it.
    Dfs(SignatureAnalysis),
    /// The DP evaluated the levels its expansion planned.
    Dp(ConfidenceAnalysis),
}

/// The planned rung's DP half: expands the DP's levels under `budget`,
/// which predicts both exact engines ([`Plan`]), records the prediction
/// into `obs` — a `ladder.plan` event (`dfs_steps`, `dp_steps`, `folds`
/// and the chosen `engine`) and a `predicted_steps` attribute on the
/// innermost open span, the caller's rung span — and then either hands
/// the decomposition back for the DFS ([`Plan::prefers_dfs`] under the
/// remaining step allowance) or evaluates the levels already expanded.
/// It never expands twice. Counters and spans are those of
/// [`count_dp_observed`] without the `dp.run` span; the `dp.*` counters
/// are recorded only when the DP answers.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget trips during the
/// expansion or the evaluation, recorded as one trip.
pub(crate) fn plan_exact(
    analysis: SignatureAnalysis,
    budget: &Budget,
    parallel: &ParallelConfig,
    config: &DpConfig,
    obs: &mut ObsSession,
) -> Result<Planned, CoreError> {
    let sweep = Sweep::new(&analysis, parallel, DP_PHASE);
    let mut stats = DpStats::default();
    let planned = sweep
        .expand::<false>(budget, config.max_cache_entries, &[], &mut stats, obs)
        .and_then(|(levels, plan)| {
            let dfs = plan.prefers_dfs(budget.remaining_steps());
            let (engine, predicted) = if dfs {
                (Engine::Exact, plan.dfs_steps)
            } else {
                (Engine::Dp, plan.dp_steps)
            };
            let counts = [plan.dfs_steps, plan.dp_steps, plan.folds].map(|c| c.to_string());
            let engine = engine.to_string();
            obs.event(
                names::EVENT_LADDER_PLAN,
                budget.elapsed_ns(),
                &[
                    ("dfs_steps", &counts[0]),
                    ("dp_steps", &counts[1]),
                    ("folds", &counts[2]),
                    ("engine", &engine),
                ],
            );
            obs.span_attr("predicted_steps", &predicted.to_string());
            if dfs {
                return Ok(None);
            }
            let (root, _) = sweep.finish(levels, budget, stats, obs)?;
            Ok(Some(root))
        });
    record_trip(obs, budget.elapsed_ns(), &planned);
    Ok(match planned? {
        None => Planned::Dfs(analysis),
        Some(root) => Planned::Dp(assemble(analysis, &root)),
    })
}

/// The run's result from the root aggregate.
fn assemble(analysis: SignatureAnalysis, root: &Sums) -> ConfidenceAnalysis {
    let m = analysis.classes().len();
    let value = |v| UBig::from_limbs(root.value(v).to_vec());
    let numerators = (1..=m).map(value).collect();
    ConfidenceAnalysis::from_parts(analysis, value(0), numerators, root.vectors[0])
}

/// Runs the DP serially against a cross-run [`SharedDpCache`] — the
/// consensus sweep's engine: a subset whose projected structure an
/// earlier run already counted is answered from the cache (see the
/// soundness argument there), reported as a
/// [`DpStats::cross_subset_hits`] hit. Results are bit-identical to
/// [`count_dp_observed`].
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out before the
/// count completes.
pub fn count_dp_shared(
    analysis: SignatureAnalysis,
    budget: &Budget,
    shared: &mut SharedDpCache,
) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
    let structure = analysis.structure();
    let held = shared.roots.len();
    if let Some(root) = shared.roots.get(&structure) {
        budget.tick(DP_PHASE)?;
        let stats = DpStats {
            cache_hits: 1,
            cross_subset_hits: 1,
            peak_cache_entries: held,
            ..DpStats::default()
        };
        return Ok((assemble(analysis, root), stats));
    }
    let room = shared.max_entries.saturating_sub(held);
    let serial = ParallelConfig::serial();
    let sweep = Sweep::new(&analysis, &serial, DP_PHASE);
    let (root, mut stats) = sweep.run(budget, room, &mut ObsSession::disabled())?;
    stats.peak_cache_entries += held;
    let result = assemble(analysis, &root);
    if room > 0 {
        shared.roots.insert(structure, root);
    }
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::IdentityCollection;
    use crate::paper::example_5_1;
    use crate::resilient::tests_support::wide_slack_identity;
    use pscds_relational::Value;

    /// The untraced serial DP: one walk over the whole tree.
    fn count(
        analysis: SignatureAnalysis,
        budget: &Budget,
        config: &DpConfig,
    ) -> Result<(ConfidenceAnalysis, DpStats), CoreError> {
        let serial = ParallelConfig::serial();
        count_dp_observed(
            analysis,
            budget,
            &serial,
            config,
            &mut ObsSession::disabled(),
        )
    }

    fn run_dp(collection: &IdentityCollection, padding: u64) -> (ConfidenceAnalysis, DpStats) {
        let analysis = SignatureAnalysis::new(collection, padding);
        count(analysis, &Budget::unlimited(), &DpConfig::default()).unwrap()
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
        let (dp, stats) = count(analysis, &budget, &DpConfig::default()).unwrap();
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
        let (full, full_stats) =
            count(analysis.clone(), &Budget::unlimited(), &DpConfig::default()).unwrap();
        let (starved, starved_stats) = count(
            analysis,
            &Budget::unlimited(),
            &DpConfig {
                max_cache_entries: 0,
            },
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
    fn states_past_a_partial_cap_are_counted_by_the_uncached_walk() {
        let id = crate::paper::example_5_1_scaled(3).as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 3);
        let dfs = ConfidenceAnalysis::analyze(&id, 3);
        let (_, full) =
            count(analysis.clone(), &Budget::unlimited(), &DpConfig::default()).unwrap();
        let states = full.cache_misses as usize;
        for cap in [1, states / 2, states - 1] {
            let mut reference = None;
            for threads in [1usize, 2] {
                let (dp, stats) = count_dp_observed(
                    analysis.clone(),
                    &Budget::unlimited(),
                    &ParallelConfig::with_threads(threads),
                    &DpConfig {
                        max_cache_entries: cap,
                    },
                    &mut ObsSession::disabled(),
                )
                .unwrap();
                assert_eq!(dp.parts(), dfs.parts(), "cap={cap} t={threads}");
                assert!(stats.peak_cache_entries <= cap, "{stats:?}");
                assert!(stats.fallback_nodes > 0, "{stats:?}");
                match &reference {
                    None => reference = Some(stats),
                    Some(serial) => assert_eq!(&stats, serial, "cap={cap} t={threads}"),
                }
            }
        }
    }

    #[test]
    fn a_plan_cut_short_by_the_cap_evaluates() {
        // Example 5.1 scaled to r = 3 plans the DFS with every state
        // resident, but a cap leaves the paths past it unknown: the
        // planned rung then evaluates, exactly.
        let id = crate::paper::example_5_1_scaled(3).as_identity().unwrap();
        let dfs = ConfidenceAnalysis::analyze(&id, 3);
        let serial = ParallelConfig::serial();
        for (cap, runs_dfs) in [(1 << 20, true), (4, false), (0, false)] {
            let analysis = SignatureAnalysis::new(&id, 3);
            let config = DpConfig {
                max_cache_entries: cap,
            };
            let mut obs = ObsSession::disabled();
            let planned = plan_exact(analysis, &Budget::unlimited(), &serial, &config, &mut obs);
            match planned.unwrap() {
                Planned::Dfs(_) => assert!(runs_dfs, "cap={cap}"),
                Planned::Dp(dp) => {
                    assert!(!runs_dfs, "cap={cap}");
                    assert_eq!(dp.parts(), dfs.parts(), "cap={cap}");
                }
            }
        }
    }

    #[test]
    fn dp_respects_step_budget_and_reruns_cleanly() {
        let id = wide_slack_identity(4, 8);
        let analysis = SignatureAnalysis::new(&id, 0);
        let err = count(
            analysis.clone(),
            &Budget::with_max_steps(5),
            &DpConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        // A rerun with a fresh allowance gives the exact answer.
        let (dp, _) = count(analysis, &Budget::unlimited(), &DpConfig::default()).unwrap();
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
        let err = count(
            analysis,
            &budget,
            &DpConfig {
                max_cache_entries: 0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn parallel_dp_is_bit_identical_to_serial() {
        let id = example_5_1().as_identity().unwrap();
        for m in [0u64, 1, 3, 50] {
            let analysis = SignatureAnalysis::new(&id, m);
            let (serial, _) =
                count(analysis.clone(), &Budget::unlimited(), &DpConfig::default()).unwrap();
            for threads in [2usize, 8] {
                let (par, _) = count_dp_observed(
                    analysis.clone(),
                    &Budget::unlimited(),
                    &ParallelConfig::with_threads(threads),
                    &DpConfig::default(),
                    &mut ObsSession::disabled(),
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
    fn level_sweep_does_the_serial_work_at_every_thread_count() {
        // Splitting the tree into prefix chunks with one memo each
        // computes 54,275 states here; the serial walk needs 6,468.
        let id = crate::paper::example_5_1_scaled(64).as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 64);
        let run = |threads: usize, obs: &mut ObsSession| {
            count_dp_observed(
                analysis.clone(),
                &Budget::unlimited(),
                &ParallelConfig::with_threads(threads),
                &DpConfig::default(),
                obs,
            )
            .unwrap()
        };
        let (baseline, serial) = run(1, &mut ObsSession::disabled());
        assert!(serial.cache_misses <= 6_468, "{serial:?}");
        for threads in [2usize, 8] {
            let (result, stats) = run(threads, &mut ObsSession::disabled());
            assert_eq!(stats, serial, "untraced t={threads}");
            assert_eq!(result.world_count(), baseline.world_count());
        }
        type Digest<'a> = (Vec<(&'a str, u64)>, Vec<String>);
        let mut traced: Vec<Digest> = Vec::new();
        for threads in [1usize, 2] {
            let mut obs = ObsSession::in_memory();
            let (_, stats) = run(threads, &mut obs);
            assert_eq!(stats, serial, "traced t={threads}");
            let report = obs.finish();
            traced.push((
                report.metrics.counters().collect(),
                report.spans.iter().map(|s| s.skeleton()).collect(),
            ));
        }
        assert_eq!(traced[0], traced[1], "counters and span skeletons");
    }

    #[test]
    fn observed_route_counters_and_skeletons_are_thread_independent() {
        let id = example_5_1().as_identity().unwrap();
        let analysis = SignatureAnalysis::new(&id, 17);
        let (baseline, _) =
            count(analysis.clone(), &Budget::unlimited(), &DpConfig::default()).unwrap();
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
            count_dp_shared(analysis.clone(), &Budget::unlimited(), &mut shared).unwrap();
        assert_eq!(first_stats.cross_subset_hits, 0, "first run has no past");
        assert!(!shared.is_empty());
        assert_eq!(shared.len(), 1);
        // A second run over the identical projected structure reuses the
        // root node outright: everything is a cross-subset hit.
        let (second, second_stats) =
            count_dp_shared(analysis, &Budget::unlimited(), &mut shared).unwrap();
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
            let (result, _) = count_dp_shared(analysis, &Budget::unlimited(), &mut shared).unwrap();
            let dfs = ConfidenceAnalysis::analyze(&id, padding);
            assert_eq!(result.world_count(), dfs.world_count(), "padding={padding}");
            assert_eq!(shared.len(), expected_contexts);
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
