//! Signature decomposition of the fact universe for identity-view
//! collections.
//!
//! For identity views over one relation `R`, every potential fact `t` is
//! characterized by its *membership signature* `σ(t) ∈ {0,1}^n` — which of
//! the `n` view extensions contain it. Both inequalities of the linear
//! system Γ (Section 5.1) depend on `D` only through the per-signature
//! counts `k_σ = |D ∩ class(σ)|`:
//!
//! ```text
//! t_i = Σ_{σ : σ_i = 1} k_σ        (sound tuples of source i in D)
//! w   = Σ_σ k_σ = |D|              (|φ_i(D)| for an identity view)
//! soundness:     t_i ≥ ⌈s_i·|v_i|⌉
//! completeness:  t_i·den(c_i) ≥ num(c_i)·w
//! ```
//!
//! All facts of a class are exchangeable, so any analysis over worlds
//! reduces to an analysis over *count vectors* `(k_σ)` weighted by
//! `Π_σ C(|class σ|, k_σ)`. This module builds the classes and enumerates
//! the feasible count vectors with sound pruning; `counting` adds the
//! binomial weights.
//!
//! One kernel, four sinks: every exact engine walks the same tree of
//! count vectors, and the rules of that walk live here once.
//! [`SignatureAnalysis::subtree`] is the leaf test and the prune;
//! [`SignatureAnalysis::children`] visits a state's children `k` under
//! the `k_cap` rule, descending into and restoring `(t, w)`. Its sinks
//! are the uncached DFS here, the DP's expansion and evaluation
//! (`dp.rs`) and the circuit's append (`circuit.rs`).

use crate::collection::IdentityCollection;
use crate::error::CoreError;
use crate::govern::Budget;
use pscds_numeric::Frac;
use pscds_relational::{Fact, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Budget phase of the counting DFS (one tick per node).
const COUNT_PHASE: &str = "confidence::signature";
/// Budget phase of the first-feasible DFS behind consistency checks.
const FIND_PHASE: &str = "consistency::identity";

/// One signature class: the set of potential facts shared by exactly the
/// sources flagged in `signature`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignatureClass {
    /// Bit `i` set iff source `i`'s extension contains the class members.
    pub signature: u64,
    /// Number of potential facts in the class.
    pub size: u64,
    /// The members, for classes drawn from the extensions. The padding
    /// class (signature 0) stores no members — it stands for the
    /// `|dom|^arity − |∪v_i|` domain facts outside every extension.
    pub members: Vec<Vec<Value>>,
}

/// Per-source exact bounds used by the feasibility predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SourceBounds {
    /// Completeness bound `c_i`.
    pub(crate) completeness: Frac,
    /// `⌈s_i · |v_i|⌉` — minimum sound tuples (inequality (3)).
    pub(crate) min_sound: u64,
}

impl SourceBounds {
    /// The completeness margin `V = t·den − num·w`, with `(num, den)` the
    /// completeness bound. Plain `i128` cannot overflow here: margins are
    /// only taken above the padding class, which is last in the class
    /// order, so `w` sums extension classes only (`t ≤ w ≤ |∪v_i|`, a
    /// count of in-memory tuples) and each product stays far below 2^127.
    #[inline]
    pub(crate) fn margin(&self, t: u64, w: u64) -> i128 {
        i128::from(t) * i128::from(self.completeness.den())
            - i128::from(self.completeness.num()) * i128::from(w)
    }

    /// What one unit of a class with the source's bit set adds to the
    /// margin: `den − num ≥ 0`.
    #[inline]
    fn gain(&self) -> i128 {
        i128::from(self.completeness.den()) - i128::from(self.completeness.num())
    }
}

/// What a state of the count-vector tree roots (see
/// [`SignatureAnalysis::subtree`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Subtree {
    /// Every class is counted: a complete vector, `feasible` or not.
    Leaf { feasible: bool },
    /// Provably no feasible completion.
    Pruned,
    /// A live interior state.
    Inner,
}

/// Why the DFS stopped short: `Ok` with the visitor's stop value, `Err`
/// when the budget tripped.
type Halt<B> = Result<B, CoreError>;

/// The signature decomposition of an identity-view collection over a
/// finite domain with `padding` extension-free facts.
#[derive(Clone, Debug)]
pub struct SignatureAnalysis {
    classes: Vec<SignatureClass>,
    bounds: Vec<SourceBounds>,
    /// `suffix_max_t[i][j]` = max future contribution to `t_i` from classes
    /// `j..` (sum of sizes of classes with bit `i`).
    suffix_max_t: Vec<Vec<u64>>,
    relation: pscds_relational::RelName,
    arity: usize,
}

impl SignatureAnalysis {
    /// Builds the decomposition. `padding` is the number of potential
    /// facts in the finite domain that belong to **no** extension
    /// (`|dom|^arity − |∪v_i|`). One merge of the sorted extensions
    /// classifies every tuple, so each class's members come out
    /// ascending.
    #[must_use]
    pub fn new(collection: &IdentityCollection, padding: u64) -> Self {
        let mut by_sig: BTreeMap<u64, Vec<Vec<Value>>> = BTreeMap::new();
        for (tuple, sig) in collection.tuples_with_signatures() {
            debug_assert_ne!(sig, 0, "extension tuples belong to some source");
            by_sig.entry(sig).or_default().push(tuple.to_vec());
        }
        let mut classes: Vec<SignatureClass> = by_sig
            .into_iter()
            .map(|(signature, members)| SignatureClass {
                signature,
                size: members.len() as u64,
                members,
            })
            .collect();
        if padding > 0 {
            classes.push(SignatureClass {
                signature: 0,
                size: padding,
                members: Vec::new(),
            });
        }
        let bounds: Vec<SourceBounds> = collection
            .sources
            .iter()
            .map(|s| SourceBounds {
                completeness: s.completeness,
                min_sound: s.soundness.ceil_mul(s.tuples.len() as u64),
            })
            .collect();
        let m = classes.len();
        let mut suffix_max_t = vec![vec![0u64; m + 1]; bounds.len()];
        for (i, row) in suffix_max_t.iter_mut().enumerate() {
            for j in (0..m).rev() {
                let contrib = if classes[j].signature >> i & 1 == 1 {
                    classes[j].size
                } else {
                    0
                };
                row[j] = row[j + 1] + contrib;
            }
        }
        SignatureAnalysis {
            classes,
            bounds,
            suffix_max_t,
            relation: collection.relation,
            arity: collection.arity,
        }
    }

    /// Computes the padding count for a domain of `domain_size` constants:
    /// `domain_size^arity − |∪v_i|`.
    ///
    /// # Errors
    /// Fails if the domain cannot even hold the extension tuples, or the
    /// fact universe overflows `u64`.
    pub fn padding_for_domain(
        collection: &IdentityCollection,
        domain_size: u64,
    ) -> Result<u64, CoreError> {
        let arity = u32::try_from(collection.arity).map_err(|_| CoreError::BadDomain {
            message: "arity too large".into(),
        })?;
        let universe = domain_size
            .checked_pow(arity)
            .ok_or_else(|| CoreError::BadDomain {
                message: format!(
                    "domain of {domain_size} constants at arity {arity} overflows u64"
                ),
            })?;
        let union = collection.tuples_with_signatures().len() as u64;
        universe.checked_sub(union).ok_or_else(|| CoreError::BadDomain {
            message: format!(
                "domain yields {universe} potential facts but extensions already hold {union} distinct tuples"
            ),
        })
    }

    /// The classes (extension classes in signature order, padding last).
    #[must_use]
    pub fn classes(&self) -> &[SignatureClass] {
        &self.classes
    }

    /// Number of sources.
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.bounds.len()
    }

    /// The projected structure every count aggregate is a function of,
    /// flat: the class and source counts, the `(signature, size)` class
    /// sequence and the per-source bounds. The padding is the
    /// signature-0 class's size; the members are left out.
    pub(crate) fn structure(&self) -> Box<[u64]> {
        let mut key = vec![self.classes.len() as u64, self.bounds.len() as u64];
        key.extend(self.classes.iter().flat_map(|c| [c.signature, c.size]));
        let bound = |b: &SourceBounds| [b.min_sound, b.completeness.num(), b.completeness.den()];
        key.extend(self.bounds.iter().flat_map(bound));
        key.into_boxed_slice()
    }

    /// The per-source feasibility bounds (for the sibling engines in this
    /// module tree).
    pub(crate) fn bounds(&self) -> &[SourceBounds] {
        &self.bounds
    }

    /// `suffix_max_t[source][level]` — the maximum future contribution to
    /// `t_source` from classes `level..`.
    pub(crate) fn suffix_max(&self, source: usize, level: usize) -> u64 {
        self.suffix_max_t[source][level]
    }

    /// The shared relation.
    #[must_use]
    pub fn relation(&self) -> pscds_relational::RelName {
        self.relation
    }

    /// The relation's arity.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Index of the class a tuple belongs to: its signature class, or the
    /// padding class for extension-free tuples. A binary search on the
    /// signature: extension classes are ascending and the padding class
    /// is last.
    ///
    /// # Errors
    /// Fails for extension-free tuples when no padding was declared (the
    /// tuple is outside the finite domain being modelled).
    pub fn class_of(&self, tuple: &[Value], signature: u64) -> Result<usize, CoreError> {
        let padded = self
            .classes
            .last()
            .is_some_and(|c| c.signature == 0 && c.members.is_empty());
        let named = self.classes.len() - usize::from(padded);
        let found = if signature == 0 {
            padded.then_some(named)
        } else {
            self.classes[..named]
                .binary_search_by_key(&signature, |c| c.signature)
                .ok()
        };
        let idx = found.ok_or_else(|| CoreError::BadDomain {
            message: "tuple is outside every extension and the analysis has no padding class"
                .to_owned(),
        })?;
        // Two different tuples share a signature only by both being in
        // the same extensions; confirm the tuple really is a member.
        debug_assert!(
            signature == 0
                || self.classes[idx]
                    .members
                    .binary_search_by(|m| m.as_slice().cmp(tuple))
                    .is_ok()
        );
        Ok(idx)
    }

    /// The first `limit` named members in confidence-table order, each
    /// with its class index. Every member of a class shares the class's
    /// confidence (§5.1), so the table is built per class: the extension
    /// classes are ranked once by `class_order` (`Less` puts the first
    /// class earlier, and classes comparing `Equal` share a rank), and
    /// each run of tied classes, taken in rank order, merges its classes'
    /// members — already ascending — by one sort of their first rows.
    /// Runs past the limit are never read, so a short prefix costs the
    /// class ranking and its own rows only. The padding class has no
    /// members and yields no rows.
    pub fn ranked_members(
        &self,
        mut class_order: impl FnMut(usize, usize) -> Ordering,
        limit: usize,
    ) -> Vec<(&[Value], usize)> {
        let mut order: Vec<usize> = (0..self.classes.len())
            .filter(|&c| !self.classes[c].members.is_empty())
            .collect();
        order.sort_by(|&a, &b| class_order(a, b));
        let len: usize = order.iter().map(|&c| self.classes[c].members.len()).sum();
        let mut rows: Vec<(&[Value], usize)> = Vec::with_capacity(len.min(limit));
        let mut tied = order.as_slice();
        while rows.len() < limit {
            let Some(&first) = tied.first() else { break };
            let run = (tied.iter()).position(|&c| class_order(first, c) != Ordering::Equal);
            let (run, rest) = tied.split_at(run.unwrap_or(tied.len()));
            let (at, need) = (rows.len(), limit - rows.len());
            for &c in run {
                let members = self.classes[c].members.iter().take(need);
                rows.extend(members.map(|m| (m.as_slice(), c)));
            }
            // A stable sort merges the classes' ascending runs.
            rows[at..].sort_by(|a, b| a.0.cmp(b.0));
            rows.truncate(limit);
            tied = rest;
        }
        rows
    }

    /// Tests feasibility of a complete count vector (one entry per class).
    #[must_use]
    pub fn is_feasible(&self, counts: &[u64]) -> bool {
        assert_eq!(counts.len(), self.classes.len(), "one count per class");
        if counts.iter().zip(&self.classes).any(|(&k, c)| k > c.size) {
            return false;
        }
        let w: u64 = counts.iter().sum();
        for (i, b) in self.bounds.iter().enumerate() {
            let t_i: u64 = counts
                .iter()
                .zip(&self.classes)
                .filter(|(_, c)| c.signature >> i & 1 == 1)
                .map(|(&k, _)| k)
                .sum();
            if t_i < b.min_sound {
                return false;
            }
            if !b.completeness.leq_ratio(t_i, w) {
                return false;
            }
        }
        true
    }

    /// Enumerates every feasible count vector, calling `visit` with each.
    /// The DFS prunes branches where the soundness minimum has become
    /// unreachable or the completeness margin can no longer recover.
    pub fn for_each_feasible<F: FnMut(&[u64])>(&self, visit: F) {
        self.try_for_each_feasible(&Budget::unlimited(), visit)
            // lint-allow(no-panic): an unlimited budget has no deadline, step cap, or cancel flag to trip
            .expect("an unlimited budget never interrupts the DFS");
    }

    /// Budget-governed variant of
    /// [`for_each_feasible`](SignatureAnalysis::for_each_feasible): one
    /// budget step is charged per DFS node, and the walk unwinds as soon
    /// as the budget trips.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget runs out
    /// mid-enumeration.
    pub fn try_for_each_feasible<F: FnMut(&[u64])>(
        &self,
        budget: &Budget,
        visit: F,
    ) -> Result<(), CoreError> {
        self.enumerate_from(&[], budget, visit)
    }

    /// Plans a prefix partition of the feasibility DFS for parallel
    /// execution: fixes the counts of the first few classes, producing
    /// independent subtrees whose union is the whole search space.
    ///
    /// The prefixes are returned in the serial DFS's exploration order
    /// (lexicographic, `k` ascending per class), so iterating the chunks
    /// in order — each enumerated by
    /// [`try_for_each_feasible_from`](SignatureAnalysis::try_for_each_feasible_from)
    /// — replays the serial enumeration exactly. Expansion stops once at
    /// least `target_chunks` prefixes exist, before exceeding a small
    /// multiple of the target (wide classes, e.g. a huge padding class,
    /// are never unrolled into millions of chunks), or when every class
    /// is fixed.
    #[must_use]
    pub fn prefix_plan(&self, target_chunks: usize) -> Vec<Vec<u64>> {
        let target = target_chunks.max(1) as u64;
        let mut prefixes: Vec<Vec<u64>> = vec![Vec::new()];
        let mut depth = 0usize;
        // lint-allow(budget-bypass): reachable from the parallel DFS counter and identity
        // search but bounded without ticking — at most classes.len() iterations, and
        // the width check below caps the prefix list at 16 × target_chunks entries
        while (prefixes.len() as u64) < target && depth < self.classes.len() {
            let width = self.classes[depth].size.saturating_add(1);
            if width.saturating_mul(prefixes.len() as u64) > 16 * target {
                break;
            }
            let mut next = Vec::with_capacity(prefixes.len() * width as usize);
            for p in &prefixes {
                for k in 0..=self.classes[depth].size {
                    let mut q = p.clone();
                    q.push(k);
                    next.push(q);
                }
            }
            prefixes = next;
            depth += 1;
        }
        prefixes
    }

    /// Replays the serial DFS's pruning tests and state updates for a
    /// fixed count prefix. Returns `false` iff the serial DFS would never
    /// reach this prefix (an ancestor node fails a pruning test, or a
    /// prefix count exceeds the serial loop's `k_cap`) — in which case
    /// the chunk contributes nothing, exactly like the pruned serial
    /// subtree.
    fn apply_prefix(&self, prefix: &[u64], counts: &mut [u64], t: &mut [u64], w: &mut u64) -> bool {
        for (j, &k) in prefix.iter().enumerate() {
            if self.pruned(j, t, *w) || k > self.k_cap(j, t, *w) {
                return false;
            }
            counts[j] = k;
            self.descend(j, k, t, w);
        }
        true
    }

    /// Enumerates the feasible count vectors of one prefix chunk (see
    /// [`prefix_plan`](SignatureAnalysis::prefix_plan)), in the serial
    /// DFS order restricted to that subtree.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget runs out
    /// mid-enumeration.
    pub fn try_for_each_feasible_from<F: FnMut(&[u64])>(
        &self,
        prefix: &[u64],
        budget: &Budget,
        visit: F,
    ) -> Result<(), CoreError> {
        budget.tick(COUNT_PHASE)?;
        self.enumerate_from(prefix, budget, visit)
    }

    /// Finds the first feasible count vector of one prefix chunk, in the
    /// serial DFS order restricted to that subtree.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget runs out before the
    /// subtree is decided.
    pub fn find_feasible_from(
        &self,
        prefix: &[u64],
        budget: &Budget,
    ) -> Result<Option<Vec<u64>>, CoreError> {
        budget.tick(FIND_PHASE)?;
        self.first_from(prefix, budget)
    }

    /// Every feasible vector below `prefix`, charging [`COUNT_PHASE`].
    fn enumerate_from<F: FnMut(&[u64])>(
        &self,
        prefix: &[u64],
        budget: &Budget,
        mut visit: F,
    ) -> Result<(), CoreError> {
        self.search_from(prefix, COUNT_PHASE, budget, &mut |counts: &[u64]| {
            visit(counts);
            Ok(())
        })
        .or_else(|halt| halt)
    }

    /// The first feasible vector below `prefix`, charging [`FIND_PHASE`].
    fn first_from(&self, prefix: &[u64], budget: &Budget) -> Result<Option<Vec<u64>>, CoreError> {
        let found = self.search_from(prefix, FIND_PHASE, budget, &mut |counts: &[u64]| {
            Err(counts.to_vec())
        });
        found.map_or_else(|halt| halt.map(Some), |()| Ok(None))
    }

    /// Runs [`dfs`](SignatureAnalysis::dfs) from the root state advanced
    /// through `prefix` (nothing, when the serial DFS never reaches it).
    fn search_from<B>(
        &self,
        prefix: &[u64],
        phase: &'static str,
        budget: &Budget,
        visit: &mut impl FnMut(&[u64]) -> Result<(), B>,
    ) -> Result<(), Halt<B>> {
        let mut counts = vec![0u64; self.classes.len()];
        let mut t = vec![0u64; self.bounds.len()];
        let mut w = 0u64;
        if !self.apply_prefix(prefix, &mut counts, &mut t, &mut w) {
            return Ok(());
        }
        let j = prefix.len();
        let tick = || budget.tick(phase);
        let node = self.subtree(j, &t, w);
        self.dfs(j, node, &mut counts, &mut t, &mut w, &tick, visit)
    }

    /// `true` iff the subtree at level `j` with running sums `(t, w)` is
    /// provably empty: for some source the soundness minimum is out of
    /// reach, or the completeness margin cannot recover even if every
    /// future class with the source's bit is taken whole and every other
    /// class is left empty.
    #[inline]
    fn pruned(&self, j: usize, t: &[u64], w: u64) -> bool {
        self.bounds.iter().enumerate().any(|(i, b)| {
            let max_future = self.suffix_max_t[i][j];
            t[i] + max_future < b.min_sound
                || b.margin(t[i], w) + i128::from(max_future) * b.gain() < 0
        })
    }

    /// `true` iff the complete count vector behind `(t, w)` satisfies
    /// every source's soundness and completeness constraint.
    #[inline]
    fn leaf_feasible(&self, t: &[u64], w: u64) -> bool {
        self.bounds
            .iter()
            .zip(t)
            .all(|(b, &t_i)| t_i >= b.min_sound && b.completeness.leq_ratio(t_i, w))
    }

    /// Adds `k` tuples of class `j` to the running sums.
    #[inline]
    fn descend(&self, j: usize, k: u64, t: &mut [u64], w: &mut u64) {
        let sig = self.classes[j].signature;
        *w += k;
        for (i, t_i) in t.iter_mut().enumerate() {
            if sig >> i & 1 == 1 {
                *t_i += k;
            }
        }
    }

    /// Undoes [`descend`](SignatureAnalysis::descend).
    #[inline]
    fn restore(&self, j: usize, k: u64, t: &mut [u64], w: &mut u64) {
        let sig = self.classes[j].signature;
        *w -= k;
        for (i, t_i) in t.iter_mut().enumerate() {
            if sig >> i & 1 == 1 {
                *t_i -= k;
            }
        }
    }

    /// Largest `k` for class `j` that leaves every completeness constraint
    /// recoverable, given the current partial sums. For sources whose bit
    /// is *unset* in the class signature, each unit of `k` erodes the
    /// completeness margin `V_i = t_i·den − num·w` by `num` with no
    /// compensation, so `k` is capped by the remaining headroom — this is
    /// what keeps the padding-class loop bounded by the feasible region
    /// instead of the (possibly enormous) class size.
    #[inline]
    fn k_cap(&self, j: usize, t: &[u64], w: u64) -> u64 {
        let class = &self.classes[j];
        let mut cap = class.size;
        for (i, b) in self.bounds.iter().enumerate() {
            if class.signature >> i & 1 == 1 {
                continue; // k helps (or is neutral for) this source
            }
            let num = i128::from(b.completeness.num());
            if num == 0 {
                continue;
            }
            // Future classes with bit i add at most suffix·(den−num);
            // class j itself has bit i unset so suffix at j equals at j+1.
            let headroom = b.margin(t[i], w) + i128::from(self.suffix_max_t[i][j + 1]) * b.gain();
            let k_max = if headroom < 0 {
                0
            } else {
                (headroom / num).min(i128::from(u64::MAX)) as u64
            };
            cap = cap.min(k_max);
        }
        cap
    }

    /// What the state `(t, w)` entering level `j` roots: a complete
    /// vector past the last class, a provably empty subtree, or a live
    /// interior state. The one leaf test and prune of every engine.
    #[inline]
    pub(crate) fn subtree(&self, j: usize, t: &[u64], w: u64) -> Subtree {
        if j == self.classes.len() {
            Subtree::Leaf {
                feasible: self.leaf_feasible(t, w),
            }
        } else if self.pruned(j, t, w) {
            Subtree::Pruned
        } else {
            Subtree::Inner
        }
    }

    /// The one child-enumeration kernel of the count-vector tree: visits
    /// the children `k = 0..=k_cap` of the live state `(t, w)` at level
    /// `j` in ascending `k`, handing `sink` each `k`, the child's
    /// [`Subtree`] and the sums already descended into it, and restores
    /// `(t, w)` after every child. It stops at the first `Err` the sink
    /// returns, with `(t, w)` restored. The DFS, the DP's expansion and
    /// evaluation, and the circuit's append are its sinks.
    ///
    /// # Errors
    /// The first error `sink` returns.
    pub(crate) fn children<E>(
        &self,
        j: usize,
        t: &mut [u64],
        w: &mut u64,
        mut sink: impl FnMut(u64, Subtree, &mut [u64], &mut u64) -> Result<(), E>,
    ) -> Result<(), E> {
        for k in 0..=self.k_cap(j, t, *w) {
            self.descend(j, k, t, w);
            let done = sink(k, self.subtree(j + 1, t, *w), t, w);
            self.restore(j, k, t, w);
            done?;
        }
        Ok(())
    }

    /// The one uncached search of the count-vector tree: ticks the
    /// `node` that the state `(counts, t, w)` roots at level `j`, then
    /// walks its subtree, one tick per node, calling `visit` on every
    /// feasible complete vector until it returns `Err`. `t` and `w` are
    /// restored on return.
    ///
    /// # Errors
    /// `Err(Ok(b))` when `visit` stops the walk with `b`; `Err(Err(e))`
    /// when `tick` trips.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dfs<B>(
        &self,
        j: usize,
        node: Subtree,
        counts: &mut [u64],
        t: &mut [u64],
        w: &mut u64,
        tick: &impl Fn() -> Result<(), CoreError>,
        visit: &mut impl FnMut(&[u64]) -> Result<(), B>,
    ) -> Result<(), Halt<B>> {
        tick().map_err(Err)?;
        match node {
            Subtree::Leaf { feasible: true } => visit(counts).map_err(Ok),
            Subtree::Leaf { .. } | Subtree::Pruned => Ok(()),
            Subtree::Inner => self.children(j, t, w, |k, child, t, w| {
                counts[j] = k;
                self.dfs(j + 1, child, counts, t, w, tick, visit)
            }),
        }
    }

    /// Finds one feasible count vector, if any (early-exit DFS).
    #[must_use]
    pub fn find_feasible(&self) -> Option<Vec<u64>> {
        self.find_feasible_budgeted(&Budget::unlimited())
            // lint-allow(no-panic): an unlimited budget has no deadline, step cap, or cancel flag to trip
            .expect("an unlimited budget never interrupts the DFS")
    }

    /// Budget-governed variant of
    /// [`find_feasible`](SignatureAnalysis::find_feasible).
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget runs out before the
    /// search concludes either way.
    pub fn find_feasible_budgeted(&self, budget: &Budget) -> Result<Option<Vec<u64>>, CoreError> {
        self.first_from(&[], budget)
    }

    /// Materializes a witness database from a feasible count vector: the
    /// first `k` members of each extension class, plus synthesized fresh
    /// tuples for the padding class (symbols `_pad0, _pad1, …` standing for
    /// arbitrary unused domain elements).
    #[must_use]
    pub fn materialize(&self, counts: &[u64]) -> pscds_relational::Database {
        assert_eq!(counts.len(), self.classes.len());
        let mut db = pscds_relational::Database::new();
        for (class, &k) in self.classes.iter().zip(counts) {
            if class.signature == 0 && class.members.is_empty() {
                for p in 0..k {
                    let mut args = vec![Value::sym(&format!("_pad{p}"))];
                    args.extend(std::iter::repeat_n(
                        Value::sym("_pad"),
                        self.arity.saturating_sub(1),
                    ));
                    db.insert(Fact {
                        relation: self.relation,
                        args,
                    });
                }
            } else {
                for member in class.members.iter().take(k as usize) {
                    db.insert(Fact {
                        relation: self.relation,
                        args: member.clone(),
                    });
                }
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_5_1;

    fn analysis(m: u64) -> SignatureAnalysis {
        let id = example_5_1().as_identity().unwrap();
        SignatureAnalysis::new(&id, m)
    }

    #[test]
    fn classes_of_example_5_1() {
        let a = analysis(5);
        // Classes: {a} (sig 01), {c} (sig 10), {b} (sig 11), padding (sig 0).
        assert_eq!(a.classes().len(), 4);
        let sigs: Vec<u64> = a.classes().iter().map(|c| c.signature).collect();
        assert_eq!(sigs, vec![0b01, 0b10, 0b11, 0]);
        let sizes: Vec<u64> = a.classes().iter().map(|c| c.size).collect();
        assert_eq!(sizes, vec![1, 1, 1, 5]);
    }

    #[test]
    fn no_padding_class_when_zero() {
        let a = analysis(0);
        assert_eq!(a.classes().len(), 3);
    }

    #[test]
    fn padding_for_domain_arithmetic() {
        let id = example_5_1().as_identity().unwrap();
        // Domain of 3 constants at arity 1: universe 3, union 3 => padding 0.
        assert_eq!(SignatureAnalysis::padding_for_domain(&id, 3).unwrap(), 0);
        assert_eq!(SignatureAnalysis::padding_for_domain(&id, 10).unwrap(), 7);
        // Domain too small.
        assert!(SignatureAnalysis::padding_for_domain(&id, 2).is_err());
    }

    #[test]
    fn feasibility_matches_hand_analysis_m0() {
        // m = 0: classes [a, c, b]; count vectors are memberships of each.
        let a = analysis(0);
        // Possible worlds from the brute-force analysis: {b}, {a,b}, {a,c}, {b,c}, {a,b,c}.
        let feasible = [
            [0, 0, 1], // {b}
            [1, 0, 1], // {a,b}
            [1, 1, 0], // {a,c}
            [0, 1, 1], // {b,c}
            [1, 1, 1], // {a,b,c}
        ];
        let infeasible = [
            [0, 0, 0], // {}
            [1, 0, 0], // {a}
            [0, 1, 0], // {c}
        ];
        for f in feasible {
            assert!(a.is_feasible(&f), "{f:?} should be feasible");
        }
        for f in infeasible {
            assert!(!a.is_feasible(&f), "{f:?} should be infeasible");
        }
    }

    #[test]
    fn enumeration_counts_m0() {
        let a = analysis(0);
        let mut count = 0u64;
        a.for_each_feasible(|_| count += 1);
        assert_eq!(count, 5);
    }

    #[test]
    fn enumeration_respects_class_caps() {
        let a = analysis(2);
        a.for_each_feasible(|counts| {
            for (k, c) in counts.iter().zip(a.classes()) {
                assert!(*k <= c.size);
            }
            assert!(a.is_feasible(counts));
        });
    }

    #[test]
    fn find_feasible_and_materialize() {
        let a = analysis(3);
        let counts = a.find_feasible().expect("Example 5.1 is consistent");
        assert!(a.is_feasible(&counts));
        let witness = a.materialize(&counts);
        assert_eq!(witness.len() as u64, counts.iter().sum::<u64>());
        // The witness really is a possible world.
        let c = example_5_1();
        assert!(crate::measures::in_poss(&witness, &c).unwrap());
    }

    #[test]
    fn infeasible_collection_detected() {
        // One source demanding full completeness and soundness of {a},
        // another demanding full completeness and soundness of disjoint {b}:
        // φ(D) = D must equal both {a} and {b} — impossible.
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
        let c = crate::collection::SourceCollection::from_sources([s1, s2]);
        let a = SignatureAnalysis::new(&c.as_identity().unwrap(), 4);
        assert_eq!(a.find_feasible(), None);
        let mut count = 0;
        a.for_each_feasible(|_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn class_lookup() {
        let a = analysis(2);
        let id = example_5_1().as_identity().unwrap();
        let b_tuple = vec![Value::sym("b")];
        let idx = a.class_of(&b_tuple, id.signature_of(&b_tuple)).unwrap();
        assert_eq!(a.classes()[idx].signature, 0b11);
        // Extension-free tuple maps to padding when declared...
        let d_tuple = vec![Value::sym("d1")];
        let idx = a.class_of(&d_tuple, 0).unwrap();
        assert_eq!(a.classes()[idx].signature, 0);
        // ...and errors when not.
        let a0 = analysis(0);
        assert!(a0.class_of(&d_tuple, 0).is_err());
    }

    #[test]
    fn prefix_chunks_replay_the_serial_enumeration() {
        use crate::govern::Budget;
        // Invariant 3 of the partition contract: concatenating the chunk
        // enumerations in prefix order must replay the serial DFS order
        // exactly — same vectors, same sequence.
        for m in [0u64, 2, 7] {
            let a = analysis(m);
            let mut serial = Vec::new();
            a.for_each_feasible(|c| serial.push(c.to_vec()));
            for target in [1usize, 2, 5, 16] {
                let prefixes = a.prefix_plan(target);
                assert!(!prefixes.is_empty());
                let mut replayed = Vec::new();
                for prefix in &prefixes {
                    a.try_for_each_feasible_from(prefix, &Budget::unlimited(), |c| {
                        replayed.push(c.to_vec());
                    })
                    .unwrap();
                }
                assert_eq!(replayed, serial, "m={m} target={target}");
            }
        }
    }

    #[test]
    fn prefix_first_feasible_matches_serial() {
        use crate::govern::Budget;
        let a = analysis(3);
        let serial = a.find_feasible().expect("consistent");
        let prefixes = a.prefix_plan(8);
        let parallel = prefixes
            .iter()
            .find_map(|p| a.find_feasible_from(p, &Budget::unlimited()).unwrap());
        assert_eq!(parallel, Some(serial));
    }

    #[test]
    fn prefix_plan_respects_wide_class_cap() {
        // The padding class of Example 5.1 at m = 10^6 must not be
        // unrolled into a million chunks.
        let a = analysis(1_000_000);
        let prefixes = a.prefix_plan(8);
        assert!(prefixes.len() <= 16 * 8, "got {}", prefixes.len());
        assert!(!prefixes.is_empty());
    }

    #[test]
    fn enumeration_agrees_with_direct_check() {
        // Exhaustive cross-check: every vector in the box is feasible iff
        // the enumeration yields it.
        let a = analysis(2);
        let mut enumerated = std::collections::BTreeSet::new();
        a.for_each_feasible(|c| {
            enumerated.insert(c.to_vec());
        });
        let sizes: Vec<u64> = a.classes().iter().map(|c| c.size).collect();
        let mut idx = vec![0u64; sizes.len()];
        loop {
            let expected = a.is_feasible(&idx);
            assert_eq!(enumerated.contains(&idx), expected, "vector {idx:?}");
            // Odometer.
            let mut pos = sizes.len();
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] <= sizes[pos] {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }
}
