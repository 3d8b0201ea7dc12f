//! The memoized walk over residual states, shared by the DP counter
//! (`dp.rs`) and the circuit compiler (`circuit.rs`).
//!
//! Both engines walk the search tree of the counting DFS
//! ([`SignatureAnalysis::dfs`]) with the same rules — the tree's prune
//! test, leaf test, `k_cap` and `(t, w)` descend/restore all live on
//! [`SignatureAnalysis`] — but memoize every interior node on its
//! **residual state**, so a suffix the DFS re-enters along exponentially
//! many paths is computed once. They differ only in what a node *is*: the
//! DP folds its children into a suffix aggregate (world count, feasible
//! completions, per-class numerators) kept in a capped memo, the compiler
//! folds them into an arena node with weighted edges. [`Residual::walk`]
//! is the one recursion; a [`Fold`] supplies the rest.
//!
//! # The residual state, and why equal residuals have identical suffixes
//!
//! Fix the class order `0..m` and a level `j`. The DFS state entering
//! level `j` is `(t_1..t_n, w)` — per-source sound-tuple counts and the
//! world size so far. Every test the DFS performs from level `j` onwards
//! touches that state only through two per-source quantities:
//!
//! * the **soundness deficit** `d_i = max(0, ⌈s_i|v_i|⌉ − t_i)`, used by
//!   the reachability prune `d_i > suffix_max_t[i][l]` and the leaf test
//!   `d_i = 0`;
//! * the **completeness margin** `V_i = t_i·den(c_i) − num(c_i)·w`, used
//!   by the recovery prune `V_i + suffix_max_t[i][l]·(den−num) < 0`, the
//!   per-class loop cap `k_cap` (through the headroom
//!   `V_i + suffix_max_t[i][l+1]·(den−num)`), and the leaf test
//!   `V_i ≥ 0`.
//!
//! Both quantities evolve under a suffix choice `(k_j..k_{l−1})` by
//! increments that depend only on the choice, never on the prefix that
//! produced the state: `t_i` gains the chosen counts of bit-`i` classes
//! and `w` gains all of them. Hence two level-`j` states with equal
//! `(d_i, V_i)` for every source generate *bit-identical* suffix trees —
//! same prunes, same `k_cap` at every descendant, same leaf verdicts —
//! and therefore equal suffix aggregates.
//!
//! The key additionally **clamps** both quantities to the values that
//! can still influence the suffix:
//!
//! * `d_i` is already clamped from below at `0` by its `max`; states with
//!   `d_i > suffix_max_t[i][j]` are pruned before the key is built, so
//!   live keys store the deficit exactly. The clamp at zero is sound
//!   because every suffix test uses `t_i` only through `d_i` and `V_i`.
//! * `V_i` is clamped from above at the **saturation cap**
//!   `num(c_i)·hurt_i[j]`, where `hurt_i[j]` is the total size of suffix
//!   classes with bit `i` *unset* (the only classes that can erode the
//!   margin, by `num` per unit). If `V_i ≥ num·hurt_i[j]`, then at every
//!   descendant level `l` the margin satisfies `V_i(l) ≥ num·hurt_i[l]`
//!   (each erosion step is matched by the shrinking of `hurt`), so the
//!   recovery prune never fires for source `i`, the headroom grants
//!   `k_cap ≥ hurt_i[l] ≥ size_l` (the class's own size is part of its
//!   `hurt`), and the leaf test ends at `V_i(m) ≥ num·hurt_i[m] = 0`.
//!   A saturated margin thus behaves identically to any other saturated
//!   margin down the entire subtree — and saturation is *invariant*: once
//!   above the cap at level `j`, the margin stays above the cap at every
//!   descendant, so equal clamped keys also produce equal clamped child
//!   keys. Below the cap the key stores `V_i` exactly (live states are
//!   bounded below by the recovery prune, so no floor clamp is needed).
//!
//! A node at level `l` is a pure function of `classes[l..]` and the
//! bounds, which is what lets the circuit compiler resume a compile
//! after a delta that only touched earlier classes (`core::delta`).

use crate::confidence::signature::SignatureAnalysis;
use crate::error::CoreError;
use crate::govern::Budget;

/// Packed residual state: the memo key. Three words per source — the
/// exact soundness deficit and the clamped completeness margin (an
/// `i128` split into two limbs).
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct ResidualKey {
    level: u32,
    packed: Box<[u64]>,
}

impl ResidualKey {
    /// Packs per-source `(deficit, margin limb, margin limb)` triples at
    /// class level `j`.
    pub(crate) fn pack<I>(j: usize, triples: I) -> Self
    where
        I: IntoIterator<Item = [u64; 3]>,
        I::IntoIter: ExactSizeIterator,
    {
        let triples = triples.into_iter();
        let mut packed = Vec::with_capacity(3 * triples.len());
        for triple in triples {
            packed.extend_from_slice(&triple);
        }
        ResidualKey {
            // lint-allow(no-panic): j indexes the signature classes, capped far below u32::MAX
            level: u32::try_from(j).expect("class count fits u32"),
            packed: packed.into_boxed_slice(),
        }
    }

    /// The class level the state sits at.
    pub(crate) fn level(&self) -> u32 {
        self.level
    }

    /// The per-source triples, in source order.
    pub(crate) fn triples(&self) -> impl ExactSizeIterator<Item = [u64; 3]> + '_ {
        self.packed
            .chunks_exact(3)
            .map(|limbs| [limbs[0], limbs[1], limbs[2]])
    }

    /// Canonical fixed-width rendering (`l<level>.<limb>.<limb>…`, all
    /// hex), so the string order is the `(level, limbs)` order and a
    /// keep-smallest exemplar rule is deterministic.
    pub(crate) fn render(&self) -> String {
        let mut out = format!("l{:02x}", self.level);
        for limb in &self.packed {
            out.push_str(&format!(".{limb:016x}"));
        }
        out
    }
}

/// What one engine makes of the walk: how subtrees are memoized and how
/// a node folds its children. Empty subtrees are `None` throughout and
/// never reach the fold.
pub(crate) trait Fold {
    /// A non-empty subtree's folded value.
    type Node;
    /// One interior node's partial fold over its children so far.
    type Acc;
    /// Budget phase charged once per visited node.
    const PHASE: &'static str;

    /// The feasible complete vector (weight 1, one completion).
    fn leaf(&mut self) -> Self::Node;

    /// A memoized subtree for `key` (`Some(None)` for a memoized empty
    /// one), reached from the exact state `(t, w)` at level `j`.
    fn lookup(
        &mut self,
        key: &ResidualKey,
        j: usize,
        t: &[u64],
        w: u64,
    ) -> Option<Option<Self::Node>>;

    /// Starts folding an unmemoized node at level `j`.
    fn open(&mut self, j: usize) -> Self::Acc;

    /// Folds in the non-empty child reached by choosing `k` tuples of
    /// class `j`.
    fn add(&mut self, acc: &mut Self::Acc, j: usize, k: u64, child: &Self::Node);

    /// Finishes the node (`None` when no child was added) and memoizes
    /// it under `key`.
    ///
    /// # Errors
    /// Whatever resource cap the engine enforces on its memo.
    fn store(&mut self, key: ResidualKey, acc: Self::Acc) -> Result<Option<Self::Node>, CoreError>;
}

/// The memoized walk over one decomposition's residual states.
pub(crate) struct Residual<'a> {
    analysis: &'a SignatureAnalysis,
    /// `hurt[i][j]` — total size of classes `j..` with bit `i` unset (the
    /// classes that erode source `i`'s completeness margin).
    hurt: Vec<Vec<u64>>,
}

impl<'a> Residual<'a> {
    pub(crate) fn new(analysis: &'a SignatureAnalysis) -> Self {
        let classes = analysis.classes();
        let m = classes.len();
        let mut hurt = vec![vec![0u64; m + 1]; analysis.source_count()];
        for (i, row) in hurt.iter_mut().enumerate() {
            for j in (0..m).rev() {
                let contrib = if classes[j].signature >> i & 1 == 1 {
                    0
                } else {
                    classes[j].size
                };
                row[j] = row[j + 1].saturating_add(contrib);
            }
        }
        Residual { analysis, hurt }
    }

    /// Source `i`'s `(deficit, clamped-margin)` triple at level `j`, for a
    /// live (unpruned) state.
    #[inline]
    fn triple(&self, i: usize, j: usize, t: &[u64], w: u64) -> [u64; 3] {
        let b = &self.analysis.bounds()[i];
        let deficit = b.min_sound.saturating_sub(t[i]);
        debug_assert!(
            deficit <= self.analysis.suffix_max(i, j),
            "pruning admits only reachable deficits"
        );
        let num = i128::from(b.completeness.num());
        let saturation = num.saturating_mul(i128::from(self.hurt[i][j]));
        let clamped = b.margin(t[i], w).min(saturation) as u128;
        [deficit, clamped as u64, (clamped >> 64) as u64]
    }

    /// The exact residual key of a live state at level `j`.
    #[inline]
    fn key(&self, j: usize, t: &[u64], w: u64) -> ResidualKey {
        ResidualKey::pack(
            j,
            (0..self.analysis.source_count()).map(|i| self.triple(i, j, t, w)),
        )
    }

    /// The memoized suffix recursion from level `j`. `t`/`w` are the
    /// exact running sums, mutated in place and restored like the DFS;
    /// `None` is an empty subtree.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] when the budget trips, or the fold's
    /// own [`Fold::store`] error.
    pub(crate) fn walk<F: Fold>(
        &self,
        fold: &mut F,
        j: usize,
        t: &mut [u64],
        w: &mut u64,
        budget: &Budget,
    ) -> Result<Option<F::Node>, CoreError> {
        budget.tick(F::PHASE)?;
        let analysis = self.analysis;
        if j == analysis.classes().len() {
            return Ok(analysis.leaf_feasible(t, *w).then(|| fold.leaf()));
        }
        if analysis.pruned(j, t, *w) {
            return Ok(None);
        }
        let key = self.key(j, t, *w);
        if let Some(hit) = fold.lookup(&key, j, t, *w) {
            return Ok(hit);
        }
        let mut acc = fold.open(j);
        for k in 0..=analysis.k_cap(j, t, *w) {
            analysis.descend(j, k, t, w);
            let child = self.walk(fold, j + 1, t, w, budget);
            analysis.restore(j, k, t, w);
            if let Some(child) = child? {
                fold.add(&mut acc, j, k, &child);
            }
        }
        fold.store(key, acc)
    }
}
