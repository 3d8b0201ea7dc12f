//! Residual states: the key under which the DP sweep (`dp.rs`) and the
//! circuit compiler (`circuit.rs`) share the suffixes of the counting
//! DFS's search tree.
//!
//! One kernel, four sinks: [`SignatureAnalysis::children`] enumerates a
//! state's children under the one set of rules (the prune, the leaf
//! test, `k_cap`, `(t, w)` descend/restore), for the uncached DFS, the
//! DP's expansion and evaluation, and the circuit's append. The last
//! three identify every interior node by its **residual state**, so a
//! suffix the DFS re-enters along exponentially many paths is computed
//! once: the expansion builds the tree level by level into sorted key
//! sets; the DP folds each level's suffix aggregates bottom-up, and the
//! compiler appends each level's nodes bottom-up to an arena of weighted
//! edges. [`Residual`] builds the keys; this header is the argument that
//! one key stands for one suffix, which is what lets the expansion
//! expand a key from any one exact state that reaches it.
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
//! after a delta that only touched earlier classes (`core::delta`): it
//! drops the touched levels whole and expands only the states the kept
//! levels lack.

use crate::confidence::signature::SignatureAnalysis;

/// Canonical fixed-width rendering of the packed residual key `packed`
/// at level `j` (`l<level>.<limb>.<limb>…`, all hex), so the string order
/// is the `(level, limbs)` order and a keep-smallest exemplar rule is
/// deterministic.
pub(crate) fn render_key(j: usize, packed: &[u64]) -> String {
    let mut out = format!("l{j:02x}");
    for limb in packed {
        out.push_str(&format!(".{limb:016x}"));
    }
    out
}

/// Residual-key construction for one decomposition.
pub(crate) struct Residual<'a> {
    analysis: &'a SignatureAnalysis,
    /// `saturation[i][j] = num(c_i)·hurt_i[j]`, the clamp on source `i`'s
    /// margin at level `j`, with `hurt_i[j]` the total size of classes
    /// `j..` with bit `i` unset (the classes that erode the margin).
    saturation: Vec<Vec<i128>>,
}

impl<'a> Residual<'a> {
    pub(crate) fn new(analysis: &'a SignatureAnalysis) -> Self {
        let classes = analysis.classes();
        let m = classes.len();
        let saturation = analysis
            .bounds()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mut hurt = 0u64;
                let mut row = vec![0i128; m + 1];
                for j in (0..m).rev() {
                    if classes[j].signature >> i & 1 == 0 {
                        hurt = hurt.saturating_add(classes[j].size);
                    }
                    row[j] = i128::from(b.completeness.num()).saturating_mul(i128::from(hurt));
                }
                row
            })
            .collect();
        Residual {
            analysis,
            saturation,
        }
    }

    /// Writes the packed residual key of a live state at level `j` into
    /// `out`, reusing its allocation: three words per source — the exact
    /// soundness deficit and the clamped completeness margin (an `i128`
    /// split into two limbs).
    #[inline]
    pub(crate) fn pack_into(&self, j: usize, t: &[u64], w: u64, out: &mut Vec<u64>) {
        out.clear();
        for (i, b) in self.analysis.bounds().iter().enumerate() {
            let deficit = b.min_sound.saturating_sub(t[i]);
            debug_assert!(
                deficit <= self.analysis.suffix_max(i, j),
                "pruning admits only reachable deficits"
            );
            let clamped = b.margin(t[i], w).min(self.saturation[i][j]) as u128;
            out.extend_from_slice(&[deficit, clamped as u64, (clamped >> 64) as u64]);
        }
    }
}
