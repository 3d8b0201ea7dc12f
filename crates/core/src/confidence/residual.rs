//! Residual states: the key under which the DP sweep (`dp.rs`) and the
//! circuit compiler (`circuit.rs`) share the suffixes of the counting
//! DFS's search tree.
//!
//! One kernel, three sinks: [`SignatureAnalysis::children`] enumerates
//! a state's children under the one set of rules (the prune, the leaf
//! test, `k_cap`, `(t, w)` descend/restore), for the uncached DFS and
//! the DP's expansion and evaluation. The last two, and the circuit
//! compiler, identify every interior node by its **residual state**, so
//! a suffix the DFS re-enters along exponentially many paths is computed
//! once: the expansion builds the tree level by level into sorted key
//! sets; the DP folds each level's suffix aggregates bottom-up, and the
//! compiler appends each level's nodes bottom-up to an arena of weighted
//! edges, read off the child links the expansion recorded. [`Residual`] builds the keys; this header is the argument that
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
//!
//! # The packed layout
//!
//! A live key is stored in as few bits as its level's bounds allow. At
//! level `j`, source `i` gets two fields: the deficit, in
//! `bits(suffix_max_t[i][j])` bits, and the clamped margin, which the
//! recovery prune keeps at or above the floor `−suffix_max_t[i][j]·(den−num)`
//! and the clamp at or below the saturation cap. The fields are packed
//! most significant first, source by source, across the level's
//! `words(j)` limbs, so comparing two keys of one level as `&[u64]`
//! compares their fields lexicographically. The margin's encoding keeps
//! the order of the historical three-limb key `(d, lo(V), hi(V))` per
//! source, in which every non-negative margin sorts before every negative
//! one: `V` for `V ≥ 0`, and `cap + 1 + (V − floor)` below zero. Node ids,
//! the circuit's skeleton digest and the exemplar order all follow from
//! that order, so they are those of the three-limb key. A level whose
//! margin range spans 2^64 or more keeps the two-limb `(lo, hi)` margin
//! as a 128-bit field. A layout is a pure function of `classes[j..]` and
//! the bounds, like the node, so a patch's kept levels and a fresh
//! expansion pack every key alike.
//!
//! A level's keys live back to back in one [`KeyTable`], `words(j)`
//! limbs each, with an open-addressing index from a key to its position:
//! the expansion's dedup, the DP's and the compiler's lookups in the level
//! below and a patch's kept levels all go through it, and none of them
//! allocates per key.

use crate::confidence::signature::SignatureAnalysis;
use crate::error::CoreError;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// The number of bits that hold every value `0..=max`.
fn bits(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// One source's two fields in a level's layout.
#[derive(Debug, PartialEq, Eq)]
struct Field {
    /// Width of the deficit field.
    deficit_bits: u32,
    /// Width of the margin field: 128 for the two-limb `(lo, hi)` form.
    margin_bits: u32,
    /// The saturation cap, the highest margin a key stores.
    cap: i128,
    /// The recovery prune's floor, the lowest margin of a live state.
    floor: i128,
}

impl Field {
    /// The margin field's value for a clamped margin in `floor..=cap`.
    #[inline]
    fn encode(&self, margin: i128) -> u128 {
        if self.margin_bits == 128 {
            // The three-limb key's order: the low limb first.
            (margin as u128).rotate_left(64)
        } else if margin >= 0 {
            margin as u128
        } else {
            (self.cap + 1 + (margin - self.floor)) as u128
        }
    }

    /// Inverts [`encode`](Field::encode).
    #[cfg(test)]
    fn decode(&self, code: u128) -> i128 {
        if self.margin_bits == 128 {
            code.rotate_left(64) as i128
        } else if code <= self.cap as u128 {
            code as i128
        } else {
            code as i128 - self.cap - 1 + self.floor
        }
    }
}

/// One level's key layout: per source its deficit and margin fields,
/// packed most significant first into `words` limbs.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Layout {
    words: usize,
    fields: Vec<Field>,
}

/// ORs the low `bits` bits of `value` into `key` at bit `at`, most
/// significant bit first, and returns the bit after the field.
#[inline]
fn put(key: &mut [u64], at: u32, value: u128, bits: u32) -> u32 {
    if bits > u64::BITS {
        let at = put(key, at, value >> 64, bits - u64::BITS);
        return put(key, at, value & u128::from(u64::MAX), u64::BITS);
    }
    if bits > 0 {
        let (word, offset) = ((at / u64::BITS) as usize, at % u64::BITS);
        let placed = value << (128 - bits) >> offset;
        key[word] |= (placed >> 64) as u64;
        if let Some(next) = key.get_mut(word + 1) {
            *next |= placed as u64;
        }
    }
    at + bits
}

/// The `bits`-bit field of `key` at bit `at`: the inverse of [`put`].
fn get(key: &[u64], at: u32, bits: u32) -> u128 {
    if bits > u64::BITS {
        let high = get(key, at, bits - u64::BITS);
        return high << 64 | get(key, at + bits - u64::BITS, u64::BITS);
    }
    if bits == 0 {
        return 0;
    }
    let (word, offset) = ((at / u64::BITS) as usize, at % u64::BITS);
    let next = key.get(word + 1).copied().unwrap_or(0);
    (u128::from(key[word]) << 64 | u128::from(next)) << offset >> (128 - bits)
}

impl Layout {
    /// Level `j`'s layout: a function of `classes[j..]` and the bounds
    /// only (through the suffix maxima and the saturation caps).
    fn new(analysis: &SignatureAnalysis, saturation: &[Vec<i128>], j: usize) -> Self {
        let fields: Vec<Field> = (analysis.bounds().iter().enumerate())
            .map(|(i, b)| {
                let suffix = analysis.suffix_max(i, j);
                let gain = i128::from(b.completeness.den()) - i128::from(b.completeness.num());
                let (cap, floor) = (saturation[i][j], i128::from(suffix).saturating_mul(-gain));
                // The compact encoding keeps the three-limb order only
                // while the range spans less than 2^64.
                let span = cap.checked_sub(floor).and_then(|s| u64::try_from(s).ok());
                Field {
                    deficit_bits: bits(suffix),
                    margin_bits: span.map_or(128, bits),
                    cap,
                    floor,
                }
            })
            .collect();
        let total: u32 = fields.iter().map(|f| f.deficit_bits + f.margin_bits).sum();
        Layout {
            words: total.div_ceil(u64::BITS) as usize,
            fields,
        }
    }

    /// The limbs of one key.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Each source's `(deficit, margin field)` of `key`, into `out`.
    pub(crate) fn read_fields(&self, key: &[u64], out: &mut Vec<(u64, u128)>) {
        let mut at = 0;
        out.clear();
        out.extend(self.fields.iter().map(|f| {
            let deficit = get(key, at, f.deficit_bits) as u64;
            let margin = get(key, at + f.deficit_bits, f.margin_bits);
            at += f.deficit_bits + f.margin_bits;
            (deficit, margin)
        }));
    }

    /// Appends the key of per-source `(deficit, margin field)` pairs to
    /// `out` — the inverse of [`read_fields`](Layout::read_fields).
    pub(crate) fn write_fields(&self, fields: &[(u64, u128)], out: &mut Vec<u64>) {
        let start = out.len();
        out.resize(start + self.words, 0);
        let key = &mut out[start..];
        let mut at = 0;
        for (f, &(deficit, margin)) in self.fields.iter().zip(fields) {
            at = put(key, at, u128::from(deficit), f.deficit_bits);
            at = put(key, at, margin, f.margin_bits);
        }
    }

    /// Each source's `(deficit, clamped margin)` of `key`.
    #[cfg(test)]
    fn unpack(&self, key: &[u64]) -> Vec<(u64, i128)> {
        let mut fields = Vec::new();
        self.read_fields(key, &mut fields);
        (fields.iter().zip(&self.fields))
            .map(|(&(deficit, code), f)| (deficit, f.decode(code)))
            .collect()
    }
}

/// Residual-key construction for one decomposition.
pub(crate) struct Residual<'a> {
    analysis: &'a SignatureAnalysis,
    /// Per level `0..=m`, the key layout.
    layouts: Vec<Layout>,
}

impl<'a> Residual<'a> {
    pub(crate) fn new(analysis: &'a SignatureAnalysis) -> Self {
        let classes = analysis.classes();
        let m = classes.len();
        // `saturation[i][j] = num(c_i)·hurt_i[j]`, the clamp on source
        // `i`'s margin at level `j`, with `hurt_i[j]` the total size of
        // classes `j..` with bit `i` unset (the classes that erode the
        // margin).
        let saturation: Vec<Vec<i128>> = analysis
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
        let layouts = (0..=m)
            .map(|j| Layout::new(analysis, &saturation, j))
            .collect();
        Residual { analysis, layouts }
    }

    /// Level `j`'s key layout.
    pub(crate) fn layout(&self, j: usize) -> &Layout {
        &self.layouts[j]
    }

    /// Writes the packed residual key of a live state at level `j` into
    /// `out`, reusing its allocation: per source, the exact soundness
    /// deficit and the clamped completeness margin, each in its field of
    /// level `j`'s layout — `words(j)` limbs in all.
    #[inline]
    pub(crate) fn pack_into(&self, j: usize, t: &[u64], w: u64, out: &mut Vec<u64>) {
        let layout = &self.layouts[j];
        out.clear();
        out.resize(layout.words, 0);
        let mut at = 0;
        let bounds = self.analysis.bounds();
        for ((b, f), &t_i) in bounds.iter().zip(&layout.fields).zip(t) {
            let deficit = b.min_sound.saturating_sub(t_i);
            debug_assert!(
                bits(deficit) <= f.deficit_bits,
                "pruning admits only reachable deficits"
            );
            let margin = b.margin(t_i, w).min(f.cap);
            debug_assert!(margin >= f.floor, "pruning admits only recoverable margins");
            at = put(out, at, u128::from(deficit), f.deficit_bits);
            at = put(out, at, f.encode(margin), f.margin_bits);
        }
    }
}

/// A multiply-rotate hasher for the per-arrival lookups of packed
/// residual limbs, where SipHash would cost more than the rest of the
/// lookup. The keys are computed, not adversarial.
#[derive(Default)]
pub(crate) struct LimbHasher(u64);

impl Hasher for LimbHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut limb = [0u8; 8];
            limb[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(limb));
        }
    }

    #[inline]
    fn write_u64(&mut self, limb: u64) {
        self.0 = (self.0.rotate_left(5) ^ limb).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type LimbMap<K, V> = HashMap<K, V, BuildHasherDefault<LimbHasher>>;

/// One level's packed residual keys, back to back, `words` limbs each,
/// with an optional open-addressing index from a key to its position.
/// Positions are insertion order; nothing is allocated per key.
#[derive(Default)]
pub(crate) struct KeyTable {
    words: usize,
    len: usize,
    keys: Vec<u64>,
    /// Position + 1 of the key in each slot (0: empty), a power of two
    /// long and at most half full — or empty while unindexed. Positions
    /// fit: [`fill`](KeyTable::fill) caps the expansion's levels, which
    /// every other table is built from.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: a key's home slot is the top bits of its
    /// hash, where the multiply has mixed in every limb.
    shift: u32,
}

/// The empty slot where [`KeyTable::probe`] found a key missing.
pub(crate) struct Vacant(usize);

impl KeyTable {
    /// An empty, unindexed table of `words`-limb keys with room for `len`.
    pub(crate) fn with_capacity(words: usize, len: usize) -> Self {
        KeyTable {
            words,
            keys: Vec::with_capacity(words * len),
            ..KeyTable::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The key at position `at`.
    #[inline]
    pub(crate) fn key(&self, at: usize) -> &[u64] {
        &self.keys[at * self.words..(at + 1) * self.words]
    }

    /// Empties the table for keys of `words` limbs, keeping its
    /// allocations and its index.
    pub(crate) fn reset(&mut self, words: usize) {
        self.words = words;
        self.len = 0;
        self.keys.clear();
        self.slots.fill(0);
    }

    /// Appends a key to an unindexed table without looking for it.
    pub(crate) fn push(&mut self, key: &[u64]) {
        debug_assert!(self.slots.is_empty() && key.len() == self.words);
        self.keys.extend_from_slice(key);
        self.len += 1;
    }

    /// Appends the keys of `other` to an unindexed table, taking their
    /// storage when `self` is empty. Both hold keys of one level's
    /// layout.
    pub(crate) fn append(&mut self, other: KeyTable) {
        debug_assert!(self.slots.is_empty() && other.slots.is_empty());
        if self.len == 0 {
            *self = other;
        } else {
            debug_assert_eq!(self.words, other.words, "one layout per level");
            self.keys.extend_from_slice(&other.keys);
            self.len += other.len;
        }
    }

    /// Builds the index of a non-empty table, unless it exists.
    pub(crate) fn index(&mut self) {
        if self.slots.is_empty() && self.len > 0 {
            self.grow_for(self.len);
        }
    }

    /// Drops the index, keeping the keys.
    pub(crate) fn unindex(&mut self) {
        self.slots = Vec::new();
    }

    /// The position of `key` in an indexed table.
    #[inline]
    pub(crate) fn find(&self, key: &[u64]) -> Option<usize> {
        debug_assert!(self.len == 0 || !self.slots.is_empty(), "an indexed table");
        if self.slots.is_empty() {
            return None;
        }
        self.search(key).ok()
    }

    /// The position of `key`, or the slot to [`fill`](KeyTable::fill)
    /// with it; indexes the table and makes room for one more key first.
    #[inline]
    pub(crate) fn probe(&mut self, key: &[u64]) -> Result<usize, Vacant> {
        self.grow_for(self.len + 1);
        self.search(key).map_err(Vacant)
    }

    /// Appends `key` at the slot [`probe`](KeyTable::probe) left it,
    /// returning its position.
    ///
    /// # Errors
    /// [`CoreError::BadDomain`] past `u32::MAX − 1` keys.
    pub(crate) fn fill(&mut self, vacant: Vacant, key: &[u64]) -> Result<usize, CoreError> {
        let at = self.len;
        let entry = u32::try_from(at + 1)
            .ok()
            .filter(|&e| e < u32::MAX)
            .ok_or_else(|| CoreError::BadDomain {
                message: "one residual level exceeds u32::MAX − 1 states".into(),
            })?;
        self.keys.extend_from_slice(key);
        self.len += 1;
        self.slots[vacant.0] = entry;
        Ok(at)
    }

    /// Linear probing from the key's home slot: its position, or the
    /// first empty slot. The index is at most half full, so the probe
    /// meets an empty slot before it wraps around.
    #[inline]
    fn search(&self, key: &[u64]) -> Result<usize, usize> {
        let (home, mask) = (self.hash_slot(key), self.slots.len() - 1);
        for slot in (home..=home + mask).map(|slot| slot & mask) {
            match self.slots[slot] {
                0 => return Err(slot),
                entry if self.key(entry as usize - 1) == key => return Ok(entry as usize - 1),
                _ => {}
            }
        }
        Err(home)
    }

    #[inline]
    fn hash_slot(&self, key: &[u64]) -> usize {
        let mut hasher = LimbHasher::default();
        key.iter().for_each(|&limb| hasher.write_u64(limb));
        (hasher.finish() >> self.shift) as usize
    }

    /// Re-indexes into at least twice `len` slots (and 16) unless the
    /// index already has them.
    fn grow_for(&mut self, len: usize) {
        if 2 * len <= self.slots.len() {
            return;
        }
        let slots = (2 * len).next_power_of_two().max(16);
        self.slots = vec![0; slots];
        self.shift = u64::BITS - slots.trailing_zeros();
        for at in 0..self.len {
            if let Err(slot) = self.search(self.key(at)) {
                self.slots[slot] = (at + 1) as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::SourceCollection;
    use crate::confidence::signature::Subtree;
    use crate::descriptor::SourceDescriptor;
    use proptest::prelude::*;
    use pscds_numeric::Frac;
    use pscds_relational::Value;

    /// A denominator near 2^62, so margins and caps pass 2^64 and the
    /// margin takes its two-limb field.
    const HUGE: u64 = (1 << 62) - 57;

    /// An analysis over up to eight constants: per source an extension
    /// mask, completeness and soundness numerators over 6 (or over
    /// [`HUGE`]), and the padding.
    fn analysis(sources: &[(u16, u64, u64, bool)], padding: u64) -> SignatureAnalysis {
        let sources = sources.iter().enumerate().map(|(i, &(mask, c, s, huge))| {
            let extension: Vec<[Value; 1]> = (0..8)
                .filter(|bit| mask >> bit & 1 == 1)
                .map(|bit| [Value::sym(&format!("c{bit}"))])
                .collect();
            let c = match huge {
                false => Frac::new(c, 6),
                true => Frac::new(c * (HUGE / 6) + 1, HUGE),
            };
            let (name, view) = (format!("S{i}"), format!("V{i}"));
            SourceDescriptor::identity(name, &view, "R", 1, extension, c, Frac::new(s, 6)).unwrap()
        });
        let collection = SourceCollection::from_sources(sources.collect::<Vec<_>>());
        SignatureAnalysis::new(&collection.as_identity().unwrap(), padding)
    }

    /// A splitmix64 step: the walks' choices.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Live states `(level, t, w)` met by `walks` random descents from
    /// the root, each taking a random live child until none is left.
    fn live_states(
        analysis: &SignatureAnalysis,
        walks: usize,
        seed: &mut u64,
    ) -> Vec<(usize, Vec<u64>, u64)> {
        let mut states = Vec::new();
        let root = vec![0u64; analysis.source_count()];
        if analysis.subtree(0, &root, 0) != Subtree::Inner {
            return states;
        }
        for _ in 0..walks {
            let (mut j, mut t, mut w) = (0, root.clone(), 0);
            loop {
                states.push((j, t.clone(), w));
                let mut live = Vec::new();
                let _ = analysis.children::<()>(j, &mut t.clone(), &mut { w }, |_, child, t, w| {
                    if child == Subtree::Inner {
                        live.push((t.to_vec(), *w));
                    }
                    Ok(())
                });
                if live.is_empty() {
                    break;
                }
                (t, w) = live.swap_remove(next(seed) as usize % live.len());
                j += 1;
            }
        }
        states
    }

    /// The reference: the three-limb key the packed layout replaced —
    /// per source the deficit, then the clamped margin's two's-complement
    /// limbs, low first — with the saturation cap derived afresh.
    fn three_limb_key(analysis: &SignatureAnalysis, j: usize, t: &[u64], w: u64) -> Vec<u64> {
        let mut key = Vec::new();
        for (i, b) in analysis.bounds().iter().enumerate() {
            let hurt: u64 = (analysis.classes()[j..].iter())
                .filter(|c| c.signature >> i & 1 == 0)
                .map(|c| c.size)
                .sum();
            let cap = i128::from(b.completeness.num()) * i128::from(hurt);
            let margin = b.margin(t[i], w).min(cap) as u128;
            key.extend([
                b.min_sound.saturating_sub(t[i]),
                margin as u64,
                (margin >> 64) as u64,
            ]);
        }
        key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Packing round-trips, keeps the three-limb order and renders in
        /// that order, and a level's layout reads only its suffix.
        #[test]
        fn packed_keys_keep_the_three_limb_order(
            sources in proptest::collection::vec((1u16..256, 0u64..=6, 0u64..=6, 0u8..4), 2..=5),
            padding in 0u64..=40,
            seed in 0u64..u64::MAX,
            resize in proptest::collection::vec(0u64..=5, 9),
        ) {
            // One source in four gets a huge completeness denominator.
            let sources: Vec<_> = sources.iter().map(|&(m, c, s, h)| (m, c, s, h == 0)).collect();
            let analysis = analysis(&sources, padding);
            let residual = Residual::new(&analysis);
            let mut seed = seed;
            let states = live_states(&analysis, 12, &mut seed);
            let mut packed = Vec::new();
            let keys: Vec<(usize, Vec<u64>, Vec<u64>)> = states
                .iter()
                .map(|(j, t, w)| {
                    residual.pack_into(*j, t, *w, &mut packed);
                    (*j, packed.clone(), three_limb_key(&analysis, *j, t, *w))
                })
                .collect();
            for (j, key, reference) in &keys {
                let layout = residual.layout(*j);
                prop_assert_eq!(key.len(), layout.words());
                let unpacked = layout.unpack(key);
                for (i, &(deficit, margin)) in unpacked.iter().enumerate() {
                    prop_assert_eq!(deficit, reference[3 * i]);
                    let clamped = u128::from(reference[3 * i + 1]) | u128::from(reference[3 * i + 2]) << 64;
                    prop_assert_eq!(margin, clamped as i128);
                }
            }
            for (ja, a, ref_a) in &keys {
                for (jb, b, ref_b) in &keys {
                    if ja == jb {
                        prop_assert_eq!(a.cmp(b), ref_a.cmp(ref_b));
                    }
                    let order = ja.cmp(jb).then(a.cmp(b));
                    prop_assert_eq!(render_key(*ja, a).cmp(&render_key(*jb, b)), order);
                }
            }
            // Resizing the classes before `from` leaves every layout from
            // `from` on as it was.
            let m = analysis.classes().len();
            let from = next(&mut seed) as usize % (m + 1);
            let sizes: Vec<u64> = (analysis.classes().iter().zip(&resize))
                .enumerate()
                .map(|(l, (c, &size))| if l < from { size } else { c.size })
                .collect();
            let resized = analysis.resized(&sizes);
            let moved = Residual::new(&resized);
            for j in from..=m {
                prop_assert_eq!(moved.layout(j), residual.layout(j));
            }
        }
    }

    #[test]
    fn a_wide_margin_range_keeps_two_limbs() {
        let analysis = analysis(&[(0b11, 3, 0, true), (0b110, 2, 0, false)], 30);
        let residual = Residual::new(&analysis);
        assert_eq!(residual.layout(0).fields[0].margin_bits, 128);
        assert!(residual.layout(0).fields[1].margin_bits < 64);
        let states = live_states(&analysis, 8, &mut 7);
        assert!(states.len() > 8);
        let mut packed = Vec::new();
        for (j, t, w) in &states {
            residual.pack_into(*j, t, *w, &mut packed);
            let unpacked = residual.layout(*j).unpack(&packed);
            let reference = three_limb_key(&analysis, *j, t, *w);
            assert_eq!(unpacked[0].0, reference[0]);
            assert_eq!(unpacked[0].1 as u128 as u64, reference[1]);
        }
    }

    /// The index finds every key through its growth and after a
    /// rebuild, keys of no limbs included.
    #[test]
    fn key_table_finds_what_it_holds() {
        for words in [0, 1, 3] {
            let key = |x: u64| vec![x.wrapping_mul(0x9e37_79b9_7f4a_7c15); words];
            let mut table = KeyTable::with_capacity(words, 0);
            for x in 0..300 {
                if let Err(vacant) = table.probe(&key(x)) {
                    table.fill(vacant, &key(x)).unwrap();
                }
            }
            assert_eq!(table.len(), if words == 0 { 1 } else { 300 });
            table.unindex();
            table.index();
            for x in 0..300 {
                let found = table.find(&key(x)).map(|at| table.key(at));
                assert_eq!(found, Some(key(x).as_slice()));
            }
            assert_eq!(table.find(&key(300)).is_some(), words == 0);
        }
    }
}
