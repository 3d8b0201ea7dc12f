//! Incremental maintenance over streaming source deltas.
//!
//! Production sources don't sit still: view extensions evolve as ordered
//! insert/delete batches, yet every engine in this crate recomputes its
//! verdicts and confidences from the current snapshot alone. This module
//! closes that gap (DESIGN.md §3.14):
//!
//! * [`DeltaBatch`] / [`SourceDelta`] — one atomic update step of a
//!   stream: per-source tuple inserts and deletes, with a line-based
//!   text format ([`parse_delta_stream`] / [`format_delta_stream`])
//!   mirroring `textfmt`'s catalog documents.
//! * [`DeltaProvider`] — applies batches *through the
//!   [`SourceProvider`] boundary*: it overlays the accumulated deltas on
//!   an inner provider's catalog, while delegating every fetch attempt
//!   to the inner provider first — so fault injection, retries, backoff,
//!   and circuit breakers compose with streaming unchanged.
//! * [`DeltaSession`] — the maintained state: the identity collection,
//!   its signature decomposition, the compiled confidence circuit with
//!   its residual states per class level (flat keys and node ids); the
//!   circuit's skeleton memoizes the last answer. Applying a batch
//!   classifies the damage instead of recomputing:
//!
//!   1. **Reuse** — the *projected structure* (per-source bounds plus
//!      the ordered `(signature, size)` class sequence) is unchanged;
//!      only class membership churned. Every compile-time quantity and
//!      every count aggregate is a function of the projected structure
//!      alone, so the session rebinds the existing circuit skeleton —
//!      and with it the marginal event table the skeleton memoizes — to
//!      the refreshed decomposition: no compile, no traversal
//!      (`delta.results_reused`).
//!   2. **Patch** — class *sizes* changed at indices `..=max_touched`,
//!      but the bounds and the signature sequence survived. A residual
//!      state at `level` depends only on `classes[level..]` and the
//!      bounds (see the soundness argument below), so the session drops
//!      the levels `..=max_touched` whole, counting their states once
//!      ([`delta.states_invalidated`](
//!      pscds_obs::names::DELTA_STATES_INVALIDATED)); the expansion then
//!      stops at every state a kept level holds, and only the new states'
//!      nodes append to the kept arena (stale prefix nodes become
//!      unreachable garbage with reach weight zero), counted as
//!      `delta.nodes_patched`.
//!   3. **Recompile** — a bound changed (a source's `(c, s)` claim, or
//!      `⌈s·|v|⌉` through an extension-size change), the class
//!      signature sequence changed, the last class's size changed, or
//!      patched garbage outgrew twice the last clean compile.
//!      Incremental reuse would be unsound or uneconomical; the session
//!      drops the old circuit, then compiles from scratch
//!      (`delta.recompiles_forced`).
//!
//! The padding class comes last, so a batch that changes the extension
//! union's size touches the last level. Such a batch would drop every
//! level, and its patch would append a whole second circuit behind the
//! old arena, so the session recompiles it instead: on cache-replacement
//! traffic the gain comes from compiling and holding circuits cheaply
//! more than from patch reuse.
//!
//! # Invalidation-key soundness
//!
//! Why is `max_touched` — the deepest class index whose size changed —
//! a sound invalidation key? Every kept quantity at level `l`
//! (residual states and arena nodes) is produced
//! by a recursion whose tests and loop caps touch only *suffix*
//! quantities: `suffix_max_t[i][l..]`, `hurt[i][l..]`, the class sizes
//! `classes[l..]`, the source orbits at level `l` (computed from the
//! suffix classes and bounds), and the per-source bounds. When a delta
//! changes only the sizes of classes `..=max_touched`, all of those are
//! unchanged for every `l > max_touched`, so retained entries answer
//! *bit-identically* — and entries at `l <= max_touched` are dropped
//! wholesale, never consulted. The padding class sits *last* in the
//! class order, so universe-size churn (net growth or shrinkage of the
//! extension union changes the padding size) makes `max_touched` the
//! final index, which would invalidate everything: that batch is a
//! recompile.
//!
//! The answering entry points are [`analyze_incremental`] and its
//! governed form [`analyze_incremental_budgeted`], bit-identical to a
//! from-scratch recompute. Maintenance is a single sequenced pass over
//! shared mutable state (the arena and its residual states) with no
//! independent work to partition, so it takes no thread count.

use crate::collection::{IdentityCollection, SourceCollection};
use crate::confidence::circuit::{
    analyze_circuit_budgeted, compile_with_memo, invalidate_prefix, patch_compile, CircuitConfig,
    CircuitMemo, CompiledCircuit,
};
use crate::confidence::signature::SignatureAnalysis;
use crate::confidence::ConfidenceAnalysis;
use crate::error::CoreError;
use crate::govern::Budget;
use crate::source::{extension_view, FetchFault, SourceProvider};
use crate::textfmt::snippet;
use pscds_obs::{names, MetricSet};
use pscds_relational::parser::{format_fact, parse_facts};
use pscds_relational::{Fact, RelError, Value};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// One validated per-source update: `(source index, deletes, inserts)`,
/// the form [`DeltaSession::apply_ops`] consumes.
type ValidatedOps = Vec<(usize, Vec<Vec<Value>>, Vec<Vec<Value>>)>;

/// The per-source slice of one update step: tuples to delete from and
/// insert into the source's view extension. Deletes apply before
/// inserts, so replacing a tuple is the natural
/// `delete: V(x). insert: V(y).` pair; deleting an absent tuple or
/// inserting a present one is a no-op (idempotent replay).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceDelta {
    /// The target source's name (must exist in the catalog).
    pub source: String,
    /// Facts to remove from the extension, over the source's view head.
    pub delete: Vec<Fact>,
    /// Facts to add to the extension, over the source's view head.
    pub insert: Vec<Fact>,
}

/// One atomic update step of a delta stream: the per-source deltas
/// applied together before the next query. Batches are ordered; a
/// stream is a `Vec<DeltaBatch>` replayed front to back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Per-source deltas, applied in order.
    pub deltas: Vec<SourceDelta>,
}

impl DeltaBatch {
    /// Total inserts and deletes listed (before no-op elimination).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.deltas
            .iter()
            .map(|d| d.insert.len() + d.delete.len())
            .sum()
    }
}

/// Parses a delta-stream document: ordered `batch { ... }` blocks, each
/// holding `source <name> { insert: ... delete: ... }` blocks whose
/// facts use the same syntax as `extension:` lines in catalog documents.
/// `#` and `//` comments and blank lines are ignored; as in catalogs, a
/// comment in an `insert:`/`delete:` value starts only outside a quoted
/// constant.
///
/// # Examples
///
/// ```
/// use pscds_core::delta::parse_delta_stream;
///
/// let stream = parse_delta_stream(
///     "batch {\n source S1 {\n  delete: V1(a).\n  insert: V1(d).\n }\n}",
/// )?;
/// assert_eq!(stream.len(), 1);
/// assert_eq!(stream[0].deltas[0].source, "S1");
/// # Ok::<(), pscds_core::CoreError>(())
/// ```
///
/// # Errors
/// Returns [`CoreError::InvalidDescriptor`] whose `source` is `line L,
/// column C` (1-based, the column in characters of the raw line), as in
/// catalog documents: a structural error at the line's first character,
/// a fact error at its token, a block left open at its opening keyword.
/// Echoed text is cut at 32 characters.
pub fn parse_delta_stream(text: &str) -> Result<Vec<DeltaBatch>, CoreError> {
    /// A block's opening keyword: its line and column.
    type Opened = (usize, usize);
    enum State {
        Top,
        InBatch(Opened),
        InSource(Opened, Opened),
    }
    let error = |(line, column): Opened, message: String| CoreError::InvalidDescriptor {
        source: format!("line {line}, column {column}"),
        message,
    };
    let mut batches: Vec<DeltaBatch> = Vec::new();
    let mut state = State::Top;
    for (idx, raw) in text.lines().enumerate() {
        // Position of byte `byte` of this line.
        let at = |byte: usize| (idx + 1, raw[..byte].chars().count() + 1);
        let here = at(raw.len() - raw.trim_start().len());
        let without_hash = raw.find('#').map_or(raw, |i| &raw[..i]);
        let line = without_hash
            .find("//")
            .map_or(without_hash, |i| &without_hash[..i])
            .trim();
        if line.is_empty() {
            continue;
        }
        match state {
            State::Top => {
                if line == "batch {" || (line.starts_with("batch") && line.ends_with('{')) {
                    batches.push(DeltaBatch::default());
                    state = State::InBatch(here);
                } else {
                    let found = snippet(line);
                    return Err(error(here, format!("expected `batch {{`, found {found}")));
                }
            }
            State::InBatch(batch) => {
                if line == "}" {
                    state = State::Top;
                } else if let Some(rest) = line.strip_prefix("source") {
                    let Some(name) = rest.trim().strip_suffix('{').map(str::trim) else {
                        return Err(error(here, "expected `source <name> {`".into()));
                    };
                    if name.is_empty() {
                        return Err(error(here, "source name missing".into()));
                    }
                    // lint-allow(no-panic): State::InBatch is only entered after pushing a batch
                    let batch_deltas = &mut batches.last_mut().expect("inside a batch").deltas;
                    batch_deltas.push(SourceDelta {
                        source: name.to_owned(),
                        delete: Vec::new(),
                        insert: Vec::new(),
                    });
                    state = State::InSource(batch, here);
                } else {
                    let found = snippet(line);
                    return Err(error(
                        here,
                        format!("expected `source <name> {{` or `}}`, found {found}"),
                    ));
                }
            }
            State::InSource(batch, (opened_at, _)) => {
                if line == "}" {
                    state = State::InBatch(batch);
                    continue;
                }
                let (Some((key, _)), Some(colon)) = (line.split_once(':'), raw.find(':')) else {
                    let found = snippet(line);
                    return Err(error(
                        here,
                        format!("expected `insert:`/`delete:` or `}}`, found {found}"),
                    ));
                };
                let delta = batches
                    .last_mut()
                    .and_then(|b| b.deltas.last_mut())
                    // lint-allow(no-panic): State::InSource is only entered after pushing a delta
                    .expect("inside a source block");
                // The facts go to the lexer uncut: it skips comments
                // itself, and only outside quoted constants.
                let value = &raw[colon + 1..];
                let start = colon + 1 + (value.len() - value.trim_start().len());
                let facts = parse_facts(value.trim()).map_err(|e| match e {
                    RelError::Parse { message, offset } => error(at(start + offset), message),
                    other => error(at(start), other.to_string()),
                })?;
                match key.trim() {
                    "insert" => delta.insert.extend(facts),
                    "delete" => delta.delete.extend(facts),
                    other => {
                        let other = snippet(other);
                        return Err(error(
                            here,
                            format!(
                                "unknown key {other} in source block opened at line {opened_at}"
                            ),
                        ));
                    }
                }
            }
        }
    }
    match state {
        State::Top => Ok(batches),
        State::InBatch(opened) => Err(error(opened, "`batch` block is never closed".into())),
        State::InSource(_, opened) => Err(error(opened, "`source` block is never closed".into())),
    }
}

/// Renders a delta stream so [`parse_delta_stream`] reads it back
/// identically (the canonical interchange form `pscds-datagen` emits).
#[must_use]
pub fn format_delta_stream(batches: &[DeltaBatch]) -> String {
    let mut out = String::new();
    for batch in batches {
        out.push_str("batch {\n");
        for delta in &batch.deltas {
            let _ = writeln!(out, "  source {} {{", delta.source);
            for (key, facts) in [("delete", &delta.delete), ("insert", &delta.insert)] {
                if facts.is_empty() {
                    continue;
                }
                let _ = write!(out, "    {key}:");
                for fact in facts {
                    let _ = write!(out, " {}.", format_fact(fact));
                }
                out.push('\n');
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
    }
    out
}

/// Applies one batch to a catalog, returning the updated collection.
/// Deletes apply before inserts per source; every rebuilt descriptor is
/// re-validated (facts must match the view head's relation and arity).
///
/// # Errors
/// [`CoreError::InvalidDescriptor`] for an unknown source name or an
/// ill-typed fact.
pub fn apply_batch_to_catalog(
    catalog: &SourceCollection,
    batch: &DeltaBatch,
) -> Result<SourceCollection, CoreError> {
    let mut sources: Vec<_> = catalog.sources().to_vec();
    for delta in &batch.deltas {
        let Some(idx) = sources.iter().position(|s| s.name() == delta.source) else {
            return Err(CoreError::InvalidDescriptor {
                source: delta.source.clone(),
                message: "delta targets a source not present in the catalog".into(),
            });
        };
        let old = &sources[idx];
        let mut extension: BTreeSet<Fact> = extension_view(old).clone();
        for fact in &delta.delete {
            extension.remove(fact);
        }
        for fact in &delta.insert {
            extension.insert(fact.clone());
        }
        sources[idx] = crate::descriptor::SourceDescriptor::new(
            old.name(),
            old.view().clone(),
            extension,
            old.completeness(),
            old.soundness(),
        )?;
    }
    Ok(SourceCollection::from_sources(sources))
}

/// A provider that overlays a delta stream on an inner provider's
/// catalog. Fetches delegate to the inner provider *first* — so fault
/// plans, timeouts, and truncations fire exactly as they would against
/// the static catalog — and only a successful inner fetch serves the
/// delta-updated extension. The descriptor surface (and hence
/// [`SourceProvider::catalog`]) always reflects the accumulated deltas.
#[derive(Debug)]
pub struct DeltaProvider<P> {
    inner: P,
    current: SourceCollection,
}

impl<P: SourceProvider> DeltaProvider<P> {
    /// Wraps a provider; the overlay starts at the inner catalog.
    #[must_use]
    pub fn new(inner: P) -> Self {
        let current = inner.catalog();
        DeltaProvider { inner, current }
    }

    /// Applies one batch to the overlay.
    ///
    /// # Errors
    /// As [`apply_batch_to_catalog`].
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<(), CoreError> {
        self.current = apply_batch_to_catalog(&self.current, batch)?;
        Ok(())
    }

    /// The catalog with all applied deltas folded in.
    #[must_use]
    pub fn current(&self) -> &SourceCollection {
        &self.current
    }

    /// The wrapped provider.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: SourceProvider> SourceProvider for DeltaProvider<P> {
    fn source_count(&self) -> usize {
        self.inner.source_count()
    }

    fn descriptor(&self, index: usize) -> &crate::descriptor::SourceDescriptor {
        &self.current.sources()[index]
    }

    fn fetch(&mut self, index: usize) -> Result<BTreeSet<Fact>, FetchFault> {
        // The inner fetch decides availability (fault injection lives
        // there); its payload is the stale catalog extension and is
        // discarded in favour of the delta-updated one.
        self.inner.fetch(index)?;
        Ok(extension_view(&self.current.sources()[index]).clone())
    }
}

/// Maintenance counters of a [`DeltaSession`] (the `delta.*` metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Batches applied (via [`DeltaSession::apply_batch`] or
    /// [`DeltaSession::advance_to`]).
    pub batches_applied: u64,
    /// Effective inserts/deletes (no-ops against the current extensions
    /// are dropped before counting).
    pub ops_applied: u64,
    /// Signature classes whose size changed, appeared, or vanished.
    pub classes_touched: u64,
    /// Residual states of the levels prefix invalidation dropped, each
    /// counted once.
    pub states_invalidated: u64,
    /// Circuit nodes freshly materialized by patch compiles.
    pub nodes_patched: u64,
    /// Full recompiles forced (bounds/signature-sequence change, a
    /// last-class size change, garbage overflow, or state lost to a
    /// budget trip).
    pub recompiles_forced: u64,
    /// Analyses answered from maintained state with no compile and no
    /// traversal.
    pub results_reused: u64,
}

impl DeltaStats {
    /// Emits the counters into a `pscds-obs` metric set under the
    /// registered `delta.*` names.
    pub fn record_into(&self, metrics: &mut MetricSet) {
        metrics.counter_add(names::DELTA_BATCHES_APPLIED, self.batches_applied);
        metrics.counter_add(names::DELTA_OPS_APPLIED, self.ops_applied);
        metrics.counter_add(names::DELTA_CLASSES_TOUCHED, self.classes_touched);
        metrics.counter_add(names::DELTA_STATES_INVALIDATED, self.states_invalidated);
        metrics.counter_add(names::DELTA_NODES_PATCHED, self.nodes_patched);
        metrics.counter_add(names::DELTA_RECOMPILES_FORCED, self.recompiles_forced);
        metrics.counter_add(names::DELTA_RESULTS_REUSED, self.results_reused);
    }
}

/// What must happen before the session can answer again, ordered by
/// severity; consecutive batches merge to the worst requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Maintenance {
    /// The skeleton's memoized answer is valid verbatim.
    Current,
    /// Projected structure unchanged, members churned: rebind the
    /// skeleton, and its memoized answer, to the refreshed decomposition.
    Rebind,
    /// Class sizes changed at indices `..=max_touched`, short of the
    /// last class: drop those levels' residual states and patch-compile
    /// onto the kept arena.
    Patch {
        /// Deepest class index whose size changed.
        max_touched: usize,
    },
    /// Bounds, the signature sequence or the last class's size changed
    /// (or state was lost): compile from scratch.
    Recompile,
}

/// Maintained incremental state across a delta stream: the collection,
/// its decomposition, and the compiled circuit (whose skeleton memoizes
/// the last answer) plus its residual states per level. See the module
/// docs for the
/// three-tier maintenance scheme.
pub struct DeltaSession {
    collection: IdentityCollection,
    /// `padding + |union|` at session start: the finite domain's fixed
    /// fact-universe size. Padding tracks `universe − |union|` as the
    /// union churns.
    universe: u64,
    padding: u64,
    /// Shared with the circuit and every answer it gives.
    analysis: Arc<SignatureAnalysis>,
    circuit: Option<(CompiledCircuit, CircuitMemo)>,
    maintenance: Maintenance,
    config: CircuitConfig,
    stats: DeltaStats,
}

impl DeltaSession {
    /// Opens a session over a catalog snapshot. `padding` is the number
    /// of domain facts outside every extension *at this snapshot*; the
    /// implied universe size stays fixed as deltas churn the union.
    ///
    /// # Errors
    /// [`CoreError::NotIdentityCollection`] when the catalog is not the
    /// Section 5.1 identity-view shape.
    pub fn new(catalog: &SourceCollection, padding: u64) -> Result<Self, CoreError> {
        let collection = catalog.as_identity()?;
        let universe = padding
            .checked_add(collection.tuples_with_signatures().len() as u64)
            .ok_or_else(|| CoreError::BadDomain {
                message: "padding + extension union overflows the u64 fact universe".into(),
            })?;
        let analysis = Arc::new(SignatureAnalysis::new(&collection, padding));
        Ok(DeltaSession {
            collection,
            universe,
            padding,
            analysis,
            circuit: None,
            maintenance: Maintenance::Recompile,
            config: CircuitConfig::default(),
            stats: DeltaStats::default(),
        })
    }

    /// The maintained collection (with all applied deltas folded in).
    #[must_use]
    pub fn collection(&self) -> &IdentityCollection {
        &self.collection
    }

    /// The current signature decomposition.
    #[must_use]
    pub fn analysis(&self) -> &SignatureAnalysis {
        &self.analysis
    }

    /// The current padding (universe minus the extension union).
    #[must_use]
    pub fn padding(&self) -> u64 {
        self.padding
    }

    /// Maintenance counters so far.
    #[must_use]
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// The consistency verdict of the last answer, if the circuit's memo
    /// still holds it.
    #[must_use]
    pub fn last_consistent(&self) -> Option<bool> {
        match (&self.circuit, self.maintenance) {
            (Some((circuit, _)), Maintenance::Current | Maintenance::Rebind) => circuit
                .memoized_analysis()
                .map(|answer| answer.feasible_vectors() > 0),
            _ => None,
        }
    }

    /// Emits the `delta.*` counters into a metric set.
    pub fn record_into(&self, metrics: &mut MetricSet) {
        self.stats.record_into(metrics);
    }

    /// Applies one batch to the maintained state and classifies the
    /// damage (reuse / patch / recompile) for the next answer. Facts
    /// are validated against the collection's arity; unknown source
    /// names error.
    ///
    /// # Errors
    /// [`CoreError::InvalidDescriptor`] for unknown sources or wrong
    /// arities; [`CoreError::BadDomain`] when the extension union
    /// outgrows the fixed fact universe.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<(), CoreError> {
        // Validate fully before mutating: a failed batch must not leave
        // the session half-applied.
        let mut ops: ValidatedOps = Vec::new();
        for delta in &batch.deltas {
            let Some(idx) = self
                .collection
                .sources
                .iter()
                .position(|s| s.name == delta.source)
            else {
                return Err(CoreError::InvalidDescriptor {
                    source: delta.source.clone(),
                    message: "delta targets a source not present in the catalog".into(),
                });
            };
            let mut deletes = Vec::with_capacity(delta.delete.len());
            let mut inserts = Vec::with_capacity(delta.insert.len());
            for (facts, out) in [(&delta.delete, &mut deletes), (&delta.insert, &mut inserts)] {
                for fact in facts.iter() {
                    if fact.arity() != self.collection.arity {
                        return Err(CoreError::InvalidDescriptor {
                            source: delta.source.clone(),
                            message: format!(
                                "delta fact {fact} has arity {}, the collection is arity {}",
                                fact.arity(),
                                self.collection.arity
                            ),
                        });
                    }
                    out.push(fact.args.clone());
                }
            }
            ops.push((idx, deletes, inserts));
        }
        self.apply_ops(&ops)
    }

    /// Synchronizes the session to a freshly fetched catalog (the
    /// provider path: [`DeltaProvider`] folded the batch in, the access
    /// layer fetched it, and this diffs the result against the
    /// maintained state). Claimed bounds are synced too; a bound change
    /// forces a recompile like any structural delta.
    ///
    /// # Errors
    /// [`CoreError::NotIdentityCollection`] /
    /// [`CoreError::InvalidDescriptor`] when the catalog's shape drifted
    /// (source set or order changed); [`CoreError::BadDomain`] on
    /// universe overflow.
    pub fn advance_to(&mut self, catalog: &SourceCollection) -> Result<(), CoreError> {
        let incoming = catalog.as_identity()?;
        if incoming.sources.len() != self.collection.sources.len()
            || incoming
                .sources
                .iter()
                .zip(&self.collection.sources)
                .any(|(a, b)| a.name != b.name)
        {
            return Err(CoreError::InvalidDescriptor {
                source: "<stream>".into(),
                message: "catalog source set or order changed mid-stream".into(),
            });
        }
        for (mine, theirs) in self.collection.sources.iter_mut().zip(&incoming.sources) {
            mine.completeness = theirs.completeness;
            mine.soundness = theirs.soundness;
        }
        let mut ops: ValidatedOps = Vec::new();
        for (idx, (mine, theirs)) in self
            .collection
            .sources
            .iter()
            .zip(&incoming.sources)
            .enumerate()
        {
            let deletes: Vec<Vec<Value>> =
                mine.tuples.difference(&theirs.tuples).cloned().collect();
            let inserts: Vec<Vec<Value>> =
                theirs.tuples.difference(&mine.tuples).cloned().collect();
            if !deletes.is_empty() || !inserts.is_empty() {
                ops.push((idx, deletes, inserts));
            }
        }
        self.apply_ops(&ops)
    }

    /// The shared applier: effective ops per source index, deletes
    /// before inserts, then damage classification.
    fn apply_ops(&mut self, ops: &ValidatedOps) -> Result<(), CoreError> {
        let mut effective = 0u64;
        for (idx, deletes, inserts) in ops {
            let tuples = &mut self.collection.sources[*idx].tuples;
            for t in deletes {
                if tuples.remove(t) {
                    effective += 1;
                }
            }
            for t in inserts {
                if tuples.insert(t.clone()) {
                    effective += 1;
                }
            }
        }
        self.stats.batches_applied += 1;
        self.stats.ops_applied += effective;
        let union = self.collection.tuples_with_signatures().len() as u64;
        let padding = self
            .universe
            .checked_sub(union)
            .ok_or_else(|| CoreError::BadDomain {
                message: format!(
                    "delta grew the extension union to {union} tuples, past the \
                     {}-fact universe fixed at session start",
                    self.universe
                ),
            })?;
        self.padding = padding;
        let fresh = SignatureAnalysis::new(&self.collection, padding);
        self.reclassify(fresh);
        Ok(())
    }

    /// Compares the fresh decomposition against the maintained one and
    /// merges the resulting maintenance requirement.
    fn reclassify(&mut self, fresh: SignatureAnalysis) {
        let old = &self.analysis;
        let same_bounds = old.bounds() == fresh.bounds();
        let same_signatures = old.classes().len() == fresh.classes().len()
            && old
                .classes()
                .iter()
                .zip(fresh.classes())
                .all(|(a, b)| a.signature == b.signature);
        let need = if !(same_bounds && same_signatures) {
            Maintenance::Recompile
        } else {
            let touched: Vec<usize> = old
                .classes()
                .iter()
                .zip(fresh.classes())
                .enumerate()
                .filter(|(_, (a, b))| a.size != b.size)
                .map(|(i, _)| i)
                .collect();
            self.stats.classes_touched += touched.len() as u64;
            match touched.last() {
                // Touching the last class (usually the padding) drops
                // every level: a patch would only append a whole second
                // circuit behind the old arena.
                Some(&max_touched) if max_touched + 1 < fresh.classes().len() => {
                    Maintenance::Patch { max_touched }
                }
                Some(_) => Maintenance::Recompile,
                None => {
                    let members_changed = old
                        .classes()
                        .iter()
                        .zip(fresh.classes())
                        .any(|(a, b)| a.members != b.members);
                    if members_changed {
                        Maintenance::Rebind
                    } else {
                        Maintenance::Current
                    }
                }
            }
        };
        if need == Maintenance::Recompile && self.circuit.is_some() {
            self.stats.recompiles_forced += 1;
        }
        self.maintenance = merge(self.maintenance, need);
        self.analysis = Arc::new(fresh);
    }

    /// Answers from maintained state, performing whatever maintenance
    /// the applied deltas require. Named without an engine prefix; the
    /// registered entry points are the `analyze_incremental*` triple.
    fn answer(&mut self, budget: &Budget) -> Result<ConfidenceAnalysis, CoreError> {
        if let (Some((circuit, _)), Maintenance::Current | Maintenance::Rebind) =
            (&mut self.circuit, self.maintenance)
        {
            if self.maintenance == Maintenance::Rebind {
                // The skeleton, and the event tables it memoizes, are a
                // function of the projected structure alone.
                let skeleton = Rc::clone(circuit.skeleton());
                *circuit = CompiledCircuit::rebind(skeleton, Arc::clone(&self.analysis));
            }
            if let Some(answer) = circuit.memoized_analysis() {
                self.maintenance = Maintenance::Current;
                self.stats.results_reused += 1;
                return Ok(answer);
            }
            // No answer memoized yet: fall through to the traversal
            // without counting it as forced.
        }
        if let Maintenance::Patch { max_touched } = self.maintenance {
            if let Some((circuit, mut memo)) = self.circuit.take() {
                if circuit.node_count() > 2 * memo.compiled_len {
                    // Patched garbage outgrew the last clean compile:
                    // cheaper to rebuild than to keep dragging dead
                    // prefix nodes through every traversal.
                    self.stats.recompiles_forced += 1;
                    self.maintenance = Maintenance::Recompile;
                } else {
                    self.stats.states_invalidated += invalidate_prefix(&mut memo, max_touched);
                    let analysis = Arc::clone(&self.analysis);
                    match patch_compile(circuit, memo, analysis, budget, &self.config) {
                        Ok((circuit, memo, patched)) => {
                            self.stats.nodes_patched += patched;
                            self.circuit = Some((circuit, memo));
                        }
                        Err(e) => {
                            // The arena was consumed mid-patch: mark the
                            // session dirty so the next call rebuilds.
                            self.stats.recompiles_forced += 1;
                            self.maintenance = Maintenance::Recompile;
                            return Err(e);
                        }
                    }
                }
            } else {
                self.maintenance = Maintenance::Recompile;
            }
        }
        let compiled = match self.circuit.take() {
            Some(held) if self.maintenance != Maintenance::Recompile => held,
            stale => {
                // Never hold the old arena and the new one at once.
                drop(stale);
                match compile_with_memo(Arc::clone(&self.analysis), budget, &self.config) {
                    Ok(compiled) => compiled,
                    Err(e) => {
                        self.maintenance = Maintenance::Recompile;
                        return Err(e);
                    }
                }
            }
        };
        let (circuit, _) = self.circuit.insert(compiled);
        let result = analyze_circuit_budgeted(circuit, budget)?;
        self.maintenance = Maintenance::Current;
        Ok(result)
    }
}

/// Merges two maintenance requirements to the worse one (patches merge
/// to the deeper touched prefix).
fn merge(a: Maintenance, b: Maintenance) -> Maintenance {
    match (a, b) {
        (Maintenance::Recompile, _) | (_, Maintenance::Recompile) => Maintenance::Recompile,
        (Maintenance::Patch { max_touched: x }, Maintenance::Patch { max_touched: y }) => {
            Maintenance::Patch {
                max_touched: x.max(y),
            }
        }
        (p @ Maintenance::Patch { .. }, _) | (_, p @ Maintenance::Patch { .. }) => p,
        (Maintenance::Rebind, _) | (_, Maintenance::Rebind) => Maintenance::Rebind,
        (Maintenance::Current, Maintenance::Current) => Maintenance::Current,
    }
}

/// Incrementally maintained confidence analysis of the session's
/// current state — bit-identical to compiling and analyzing the
/// collection from scratch, at a fraction of the work when the delta
/// stream leaves structure intact.
///
/// # Panics
/// Never — the unlimited budget cannot trip; see
/// [`analyze_incremental_budgeted`] for the governed form.
#[must_use]
pub fn analyze_incremental(session: &mut DeltaSession) -> ConfidenceAnalysis {
    analyze_incremental_budgeted(session, &Budget::unlimited())
        // lint-allow(no-panic): an unlimited budget has no deadline, step cap, or cancel flag to trip
        .expect("an unlimited budget never interrupts incremental maintenance")
}

/// Budget-governed variant of [`analyze_incremental`]: compiles, patch
/// compiles, and traversals all charge the budget. A trip mid-patch
/// marks the session dirty; the next call recompiles from scratch.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] when the budget runs out mid-answer;
/// [`CoreError::BadDomain`] when the arena would exceed
/// [`CircuitConfig::max_nodes`].
pub fn analyze_incremental_budgeted(
    session: &mut DeltaSession,
    budget: &Budget,
) -> Result<ConfidenceAnalysis, CoreError> {
    session.answer(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::analyze_circuit;
    use crate::confidence::circuit::compile_circuit;
    use crate::faults::{FaultPlan, FaultSpec};
    use crate::paper::example_5_1;
    use crate::source::{AccessPolicy, CatalogProvider, FaultyProvider, SourceAccess};
    use pscds_numeric::Rational;
    use pscds_obs::ObsSession;
    use pscds_relational::parser::parse_fact;

    fn fact(text: &str) -> Fact {
        parse_fact(text).unwrap()
    }

    /// A two-source catalog whose soundness claims sit on a ceiling
    /// plateau (`s = 1/4`, so `min_sound = 2` for any `|v| ∈ {5,..,8}`):
    /// moving one tuple from S1 to S2 changes the `{S1}` and `{S2}`
    /// class sizes while the bounds, the `{S1,S2}` class, and the
    /// padding class all survive — the genuine prefix-patch shape.
    fn patch_catalog() -> SourceCollection {
        let ext =
            |names: &[&str]| -> Vec<[Value; 1]> { names.iter().map(|n| [Value::sym(n)]).collect() };
        let s1 = crate::descriptor::SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            ext(&["a1", "a2", "a3", "b1", "b2", "b3"]),
            pscds_numeric::Frac::new(1, 2),
            pscds_numeric::Frac::new(1, 4),
        )
        .unwrap();
        let s2 = crate::descriptor::SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            ext(&["b1", "b2", "b3", "c1", "c2", "c3"]),
            pscds_numeric::Frac::new(1, 2),
            pscds_numeric::Frac::new(1, 4),
        )
        .unwrap();
        SourceCollection::from_sources([s1, s2])
    }

    /// Moves `a1` from S1's view into S2's: `{S1}` shrinks, `{S2}`
    /// grows, everything at deeper class indices is untouched.
    fn patch_batch() -> DeltaBatch {
        DeltaBatch {
            deltas: vec![
                SourceDelta {
                    source: "S1".into(),
                    delete: vec![fact("V1(a1)")],
                    insert: vec![],
                },
                SourceDelta {
                    source: "S2".into(),
                    delete: vec![],
                    insert: vec![fact("V2(a1)")],
                },
            ],
        }
    }

    fn from_scratch(collection: &IdentityCollection, padding: u64) -> ConfidenceAnalysis {
        let analysis = SignatureAnalysis::new(collection, padding);
        let circuit =
            compile_circuit(analysis, &Budget::unlimited(), &CircuitConfig::default()).unwrap();
        analyze_circuit(&circuit)
    }

    fn assert_answers_match(
        incremental: &ConfidenceAnalysis,
        scratch: &ConfidenceAnalysis,
        collection: &IdentityCollection,
    ) {
        assert_eq!(incremental.world_count(), scratch.world_count());
        assert_eq!(incremental.feasible_vectors(), scratch.feasible_vectors());
        if !scratch.is_consistent() {
            return;
        }
        for tuple in collection.all_tuples() {
            let a = incremental.confidence_of_tuple(collection, &tuple).unwrap();
            let b = scratch.confidence_of_tuple(collection, &tuple).unwrap();
            assert_eq!(a, b, "confidence of {tuple:?} diverged");
        }
    }

    #[test]
    fn stream_round_trips_through_text() {
        let batches = vec![
            DeltaBatch {
                deltas: vec![SourceDelta {
                    source: "S1".into(),
                    delete: vec![fact("V1(a)")],
                    insert: vec![fact("V1(d)"), fact("V1('e#1')"), fact("V1(\"it's\")")],
                }],
            },
            DeltaBatch { deltas: vec![] },
            DeltaBatch {
                deltas: vec![SourceDelta {
                    source: "S2".into(),
                    delete: vec![],
                    insert: vec![fact("V2(d)")],
                }],
            },
        ];
        let text = format_delta_stream(&batches);
        let parsed = parse_delta_stream(&text).unwrap();
        assert_eq!(parsed, batches);
    }

    #[test]
    fn parser_rejects_malformed_streams() {
        assert!(parse_delta_stream("source S {").is_err());
        assert!(parse_delta_stream("batch {\n nonsense\n}").is_err());
        assert!(parse_delta_stream("batch {\n source S {\n  upsert: V(a).\n }\n}").is_err());
        assert!(parse_delta_stream("batch {\n source S {").is_err());
        // Comments and blank lines are fine.
        let ok = parse_delta_stream("# header\n\nbatch { // open\n}\n");
        assert_eq!(ok.unwrap().len(), 1);
    }

    /// The error `parse_delta_stream` reports for `text`, rendered.
    fn stream_error(text: &str) -> String {
        parse_delta_stream(text).unwrap_err().to_string()
    }

    #[test]
    fn stream_errors_name_line_and_column() {
        let cases = [
            (
                "# header\n\n  stray line\n",
                "line 3, column 3: expected `batch {`, found \"stray line\"",
            ),
            (
                "batch {\n\t source S1\n}\n",
                "line 2, column 3: expected `source <name> {`",
            ),
            (
                "batch {\n  source {\n",
                "line 2, column 3: source name missing",
            ),
            (
                "batch {\n  upsert: V(a).\n}\n",
                "line 2, column 3: expected `source <name> {` or `}`, found \"upsert: V(a).\"",
            ),
            (
                "batch {\n source S {\n    upsert: V(a).\n }\n}",
                "line 3, column 5: unknown key \"upsert\" in source block opened at line 2",
            ),
            (
                "batch {\n source S {\n  V(a).\n",
                "line 3, column 3: expected `insert:`/`delete:` or `}`, found \"V(a).\"",
            ),
            (
                "batch {\n source S {\n  insert: V(a). ü V(b).\n",
                "line 3, column 19: expected '(', found 'V'",
            ),
            (
                "batch {\n  source S1 {\n    insert: V1(a).\n",
                "line 2, column 3: `source` block is never closed",
            ),
            (
                "# header\n   batch {\n  source S1 {\n  }\n",
                "line 2, column 4: `batch` block is never closed",
            ),
        ];
        for (text, want) in cases {
            let got = stream_error(text);
            assert!(got.contains(want), "{text:?}: got {got}, want {want}");
        }
    }

    #[test]
    fn stream_errors_cut_the_echoed_text() {
        let long = "x".repeat(100_000);
        for text in [
            format!("{long}\n"),
            format!("batch {{\n{long}\n}}"),
            format!("batch {{\n source S {{\n  {long}\n }}\n}}"),
            format!("batch {{\n source S {{\n  {long}: V(a).\n }}\n}}"),
        ] {
            let got = stream_error(&text);
            assert!(got.len() < 200, "the message quotes the line whole");
            assert!(
                got.contains("\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"…"),
                "{got}"
            );
        }
    }

    #[test]
    fn provider_overlays_deltas_and_composes_with_faults() {
        let catalog = example_5_1();
        let mut provider = DeltaProvider::new(CatalogProvider::new(&catalog));
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S1".into(),
                delete: vec![fact("V1(a)")],
                insert: vec![fact("V1(d)")],
            }],
        };
        provider.apply(&batch).unwrap();
        let fetched = provider.fetch(0).unwrap();
        assert!(fetched.contains(&fact("V1(d)")));
        assert!(!fetched.contains(&fact("V1(a)")));
        // The catalog surface reflects the overlay too.
        assert_eq!(provider.catalog(), *provider.current());
        // Unknown sources are rejected.
        let bad = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "nope".into(),
                ..SourceDelta::default()
            }],
        };
        assert!(provider.apply(&bad).is_err());

        // Fault injection stays in charge of availability: wrap a faulty
        // provider and the fault fires before the overlay can answer.
        let mut plan = FaultPlan::new(7);
        plan.overrides.push((
            "S1".into(),
            FaultSpec {
                fail: pscds_numeric::Frac::ONE,
                ..FaultSpec::none()
            },
        ));
        let mut faulty = DeltaProvider::new(FaultyProvider::new(&catalog, plan));
        faulty.apply(&batch).unwrap();
        assert!(faulty.fetch(0).is_err(), "inner fault must surface");
        let ok = faulty.fetch(1).unwrap();
        assert_eq!(ok, *extension_view(&catalog.sources()[1]));
    }

    #[test]
    fn balanced_churn_reuses_without_compile_or_traversal() {
        // Replace a by d in S1: a and d have the same signature {S1}, so
        // sizes, bounds, and the class sequence all survive — the REUSE
        // fast path must answer with zero compiles and zero traversals.
        let catalog = example_5_1();
        let mut session = DeltaSession::new(&catalog, 2).unwrap();
        let first = analyze_incremental(&mut session);
        assert!(first.is_consistent());
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S1".into(),
                delete: vec![fact("V1(a)")],
                insert: vec![fact("V1(d)")],
            }],
        };
        session.apply_batch(&batch).unwrap();
        let incremental = analyze_incremental(&mut session);
        assert_eq!(session.stats().results_reused, 1);
        assert_eq!(session.stats().nodes_patched, 0);
        assert_eq!(session.stats().recompiles_forced, 0);
        let scratch = from_scratch(session.collection(), session.padding());
        assert_answers_match(&incremental, &scratch, session.collection());
        // The confidence surface resolves the *new* member.
        let conf_d = incremental
            .confidence_of_tuple(session.collection(), &[Value::sym("d")])
            .unwrap();
        assert!(conf_d > Rational::from_u64(0, 1));
    }

    #[test]
    fn growth_patches_and_matches_scratch() {
        // Insert a brand-new tuple into S1 only: the {S1} class grows and
        // the padding class shrinks, and |v1| moves min_sound too.
        let catalog = example_5_1();
        let mut session = DeltaSession::new(&catalog, 3).unwrap();
        let _ = analyze_incremental(&mut session);
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S1".into(),
                delete: vec![],
                insert: vec![fact("V1(z)")],
            }],
        };
        session.apply_batch(&batch).unwrap();
        let incremental = analyze_incremental(&mut session);
        // |v1| grew, so min_sound = ceil(s·|v|) moved: that is a bounds
        // change and must force a recompile, not a patch.
        assert_eq!(session.stats().recompiles_forced, 1);
        let scratch = from_scratch(session.collection(), session.padding());
        assert_answers_match(&incremental, &scratch, session.collection());
    }

    #[test]
    fn a_batch_touching_the_last_class_recompiles() {
        // A fresh a4 in S1 keeps min_sound = ceil(7/4) = 2 and the class
        // sequence, but grows {S1} and shrinks the padding (the last
        // class) from 3 to 2: every level drops, so the session compiles
        // afresh instead of appending a second circuit behind the old.
        let catalog = patch_catalog();
        let mut session = DeltaSession::new(&catalog, 3).unwrap();
        let _ = analyze_incremental(&mut session);
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S1".into(),
                delete: vec![],
                insert: vec![fact("V1(a4)")],
            }],
        };
        session.apply_batch(&batch).unwrap();
        assert_eq!(session.padding(), 2);
        let incremental = analyze_incremental(&mut session);
        assert_eq!(session.stats().recompiles_forced, 1);
        assert_eq!(session.stats().nodes_patched, 0);
        let analysis = SignatureAnalysis::new(session.collection(), session.padding());
        let fresh =
            compile_circuit(analysis, &Budget::unlimited(), &CircuitConfig::default()).unwrap();
        let (held, _) = session.circuit.as_ref().unwrap();
        assert_eq!(held.node_count(), fresh.node_count());
        let scratch = analyze_circuit(&fresh);
        assert_answers_match(&incremental, &scratch, session.collection());
    }

    #[test]
    fn cross_class_churn_patches_prefix_and_matches_scratch() {
        let catalog = patch_catalog();
        let mut session = DeltaSession::new(&catalog, 3).unwrap();
        let _ = analyze_incremental(&mut session);
        session.apply_batch(&patch_batch()).unwrap();
        let incremental = analyze_incremental(&mut session);
        assert_eq!(session.stats().recompiles_forced, 0);
        assert!(session.stats().nodes_patched > 0);
        assert!(session.stats().states_invalidated > 0);
        let scratch = from_scratch(session.collection(), session.padding());
        assert_answers_match(&incremental, &scratch, session.collection());
    }

    #[test]
    fn a_patch_invalidates_each_dropped_state_once() {
        // The batch touches classes {S1} and {S2}, levels 0 and 1: the
        // root and the four states choosing 0..=3 tuples of {S1} drop.
        let catalog = patch_catalog();
        let mut session = DeltaSession::new(&catalog, 3).unwrap();
        let _ = analyze_incremental(&mut session);
        session.apply_batch(&patch_batch()).unwrap();
        let _ = analyze_incremental(&mut session);
        let stats = session.stats();
        assert_eq!(stats.recompiles_forced, 0);
        assert_eq!(stats.states_invalidated, 5);
    }

    #[test]
    fn bound_change_forces_recompile() {
        let catalog = example_5_1();
        let mut session = DeltaSession::new(&catalog, 2).unwrap();
        let _ = analyze_incremental(&mut session);
        // Delete without replacement: |v1| changes, min_sound changes.
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S1".into(),
                delete: vec![fact("V1(a)")],
                insert: vec![],
            }],
        };
        session.apply_batch(&batch).unwrap();
        let incremental = analyze_incremental(&mut session);
        assert_eq!(session.stats().recompiles_forced, 1);
        let scratch = from_scratch(session.collection(), session.padding());
        assert_answers_match(&incremental, &scratch, session.collection());
    }

    #[test]
    fn long_stream_stays_bit_identical_under_mixed_maintenance() {
        let catalog = example_5_1();
        let mut session = DeltaSession::new(&catalog, 4).unwrap();
        let streams = [
            // Balanced churn (reuse), prefix churn (patch), shrink
            // (recompile), growth back (recompile), balanced again.
            ("S1", vec!["V1(a)"], vec!["V1(p)"]),
            ("S2", vec!["V2(b)"], vec!["V2(q)"]),
            ("S1", vec!["V1(b)"], vec![]),
            ("S2", vec![], vec!["V2(r)"]),
            ("S2", vec!["V2(q)"], vec!["V2(b)"]),
        ];
        for (source, deletes, inserts) in streams {
            let batch = DeltaBatch {
                deltas: vec![SourceDelta {
                    source: source.into(),
                    delete: deletes.iter().map(|t| fact(t)).collect(),
                    insert: inserts.iter().map(|t| fact(t)).collect(),
                }],
            };
            session.apply_batch(&batch).unwrap();
            let incremental = analyze_incremental(&mut session);
            let scratch = from_scratch(session.collection(), session.padding());
            assert_answers_match(&incremental, &scratch, session.collection());
        }
        assert_eq!(session.stats().batches_applied, 5);
    }

    #[test]
    fn advance_to_diffs_the_fetched_catalog() {
        let catalog = example_5_1();
        let mut provider = DeltaProvider::new(CatalogProvider::new(&catalog));
        let mut session = DeltaSession::new(&catalog, 2).unwrap();
        let _ = analyze_incremental(&mut session);
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S2".into(),
                delete: vec![fact("V2(c)")],
                insert: vec![fact("V2(d)")],
            }],
        };
        provider.apply(&batch).unwrap();
        let mut access = SourceAccess::new(AccessPolicy::default(), 2);
        let mut obs = ObsSession::disabled();
        let report = access
            .fetch_all(&mut provider, &Budget::unlimited(), &mut obs)
            .unwrap();
        assert!(report.all_available());
        session.advance_to(&report.catalog).unwrap();
        let incremental = analyze_incremental(&mut session);
        let scratch = from_scratch(session.collection(), session.padding());
        assert_answers_match(&incremental, &scratch, session.collection());
        assert!(session.collection().sources[1]
            .tuples
            .contains(&vec![Value::sym("d")]));
    }

    #[test]
    fn universe_overflow_is_rejected() {
        let catalog = example_5_1();
        let mut session = DeltaSession::new(&catalog, 0).unwrap();
        let batch = DeltaBatch {
            deltas: vec![SourceDelta {
                source: "S1".into(),
                delete: vec![],
                insert: vec![fact("V1(overflow)")],
            }],
        };
        let err = session.apply_batch(&batch).unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
    }

    #[test]
    fn budget_trip_marks_dirty_and_recovers() {
        let catalog = example_5_1();
        let mut session = DeltaSession::new(&catalog, 2).unwrap();
        let tight = Budget::with_max_steps(1);
        assert!(analyze_incremental_budgeted(&mut session, &tight).is_err());
        // The next unbudgeted call rebuilds cleanly.
        let incremental = analyze_incremental(&mut session);
        let scratch = from_scratch(session.collection(), session.padding());
        assert_answers_match(&incremental, &scratch, session.collection());
    }

    #[test]
    fn stats_record_into_registered_names() {
        let mut session = DeltaSession::new(&example_5_1(), 2).unwrap();
        let _ = analyze_incremental(&mut session);
        let mut metrics = MetricSet::new();
        session.record_into(&mut metrics);
        assert_eq!(metrics.counter(names::DELTA_BATCHES_APPLIED), 0);
        session
            .apply_batch(&DeltaBatch {
                deltas: vec![SourceDelta {
                    source: "S1".into(),
                    delete: vec![fact("V1(a)")],
                    insert: vec![fact("V1(d)")],
                }],
            })
            .unwrap();
        let _ = analyze_incremental(&mut session);
        let mut metrics = MetricSet::new();
        session.record_into(&mut metrics);
        assert_eq!(metrics.counter(names::DELTA_BATCHES_APPLIED), 1);
        assert_eq!(metrics.counter(names::DELTA_RESULTS_REUSED), 1);
    }
}
