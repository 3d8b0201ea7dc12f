//! Update-stream workloads: the dynamic scenarios replayed as ordered
//! [`DeltaBatch`] streams for the incremental-maintenance engine
//! (experiment E10 and the CLI's `--deltas` replay mode).
//!
//! Two families, chosen to sit at the two ends of the maintenance
//! spectrum:
//!
//! * [`cache_sim_stream`] — fixed-capacity replacement churn: every
//!   update evicts one object and installs a fresh one *into the same
//!   caches* (the replacement inherits the victim's membership
//!   signature), so class sizes, bounds, and padding all survive and
//!   the maintained session answers from cached state. A configurable
//!   `drift` rate mixes in non-inheriting replacements that shift class
//!   sizes — the patch/recompile fallback paths.
//! * [`mirrors_stream`] — mirror-resync events: per batch one mirror
//!   drops a carried-obsolete object and picks up a live object it was
//!   missing. Objects migrate between signature classes, so this stream
//!   is structurally volatile — the recompute-bound contrast workload.
//!
//! Both generators are deterministic in their seed, and both emit
//! streams that round-trip through the interchange text format
//! ([`pscds_core::delta::format_delta_stream`]).

use pscds_core::delta::{DeltaBatch, SourceDelta};
use pscds_core::{CoreError, SourceCollection, SourceDescriptor};
use pscds_numeric::Frac;
use pscds_relational::{Fact, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A generated update-stream workload: the epoch-0 catalog, the padding
/// (domain facts outside every initial extension) the analyses should
/// use, and the ordered batches to replay against it.
#[derive(Clone, Debug)]
pub struct DeltaStream {
    /// The initial source catalog.
    pub initial: SourceCollection,
    /// Domain padding at epoch 0 (the fact universe stays fixed across
    /// the stream).
    pub padding: u64,
    /// Ordered update batches.
    pub batches: Vec<DeltaBatch>,
}

impl DeltaStream {
    /// Renders the batches in the interchange text format (the catalog
    /// travels separately, via
    /// [`pscds_core::textfmt::format_collection`]).
    #[must_use]
    pub fn batches_text(&self) -> String {
        pscds_core::delta::format_delta_stream(&self.batches)
    }
}

/// Configuration for the cache-replacement stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheStreamConfig {
    /// Objects resident per cache-subset group at epoch 0.
    pub group_size: usize,
    /// Number of caches (sources). Objects are spread across every
    /// non-empty cache subset, so class count is `2^n_caches - 1` plus
    /// padding.
    pub n_caches: usize,
    /// Update batches to generate.
    pub batches: usize,
    /// Replacement operations per batch.
    pub updates_per_batch: usize,
    /// Probability that a replacement *drifts*: the incoming object
    /// lands in a different cache subset than its victim, shifting two
    /// class sizes (`0.0` = pure signature-inheriting churn).
    pub drift: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CacheStreamConfig {
    fn default() -> Self {
        CacheStreamConfig {
            group_size: 4,
            n_caches: 2,
            batches: 8,
            updates_per_batch: 2,
            drift: 0.0,
            seed: 1,
        }
    }
}

fn object(id: usize) -> Value {
    Value::sym(&format!("page{id}"))
}

/// The fixed-capacity cache-replacement workload (see module docs).
/// Every batch evicts `updates_per_batch` resident objects and installs
/// fresh ones; with `drift = 0` each replacement inherits its victim's
/// cache subset exactly, so every epoch preserves the projected
/// structure and the maintained session never recompiles.
///
/// Claims are fixed at `c = 1/2, s = 1/2` for every cache, which keeps
/// the instance consistent throughout (half-stale, half-sound caches
/// admit the straddling worlds).
///
/// # Errors
/// Propagates descriptor validation (unreachable for well-formed
/// configs).
pub fn cache_sim_stream(config: &CacheStreamConfig) -> Result<DeltaStream, CoreError> {
    let n_caches = config.n_caches.clamp(1, 6);
    let n_subsets = (1usize << n_caches) - 1;
    let mut rng = StdRng::seed_from_u64(config.seed);
    // groups[g] = resident objects whose membership signature is the
    // subset mask g+1 (mask 0 is the padding — never resident).
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_subsets];
    let mut next_id = 0usize;
    for group in &mut groups {
        for _ in 0..config.group_size.max(1) {
            group.push(next_id);
            next_id += 1;
        }
    }
    let initial = {
        let mut sources = Vec::with_capacity(n_caches);
        for cache in 0..n_caches {
            let extension: Vec<[Value; 1]> = groups
                .iter()
                .enumerate()
                .filter(|(g, _)| (g + 1) >> cache & 1 == 1)
                .flat_map(|(_, members)| members.iter().map(|&id| [object(id)]))
                .collect();
            sources.push(SourceDescriptor::identity(
                format!("cache{cache}"),
                &format!("C{cache}"),
                "Object",
                1,
                extension,
                Frac::HALF,
                Frac::HALF,
            )?);
        }
        SourceCollection::from_sources(sources)
    };
    let mut batches = Vec::with_capacity(config.batches);
    for _ in 0..config.batches {
        let mut deltas: Vec<SourceDelta> = (0..n_caches)
            .map(|cache| SourceDelta {
                source: format!("cache{cache}"),
                delete: Vec::new(),
                insert: Vec::new(),
            })
            .collect();
        for _ in 0..config.updates_per_batch.max(1) {
            let mut from_group = rng.gen_range(0..n_subsets);
            if groups[from_group].is_empty() {
                // Drift can drain a group; redraw among the non-empty
                // ones (some group always holds the constant resident
                // population). Driftless streams never reach this branch,
                // so their draws are unchanged.
                let live: Vec<usize> = (0..n_subsets).filter(|&g| !groups[g].is_empty()).collect();
                from_group = live[rng.gen_range(0..live.len())];
            }
            let victims = &mut groups[from_group];
            let victim = victims.swap_remove(rng.gen_range(0..victims.len()));
            let to_group = if config.drift > 0.0 && rng.gen_bool(config.drift) {
                rng.gen_range(0..n_subsets)
            } else {
                from_group
            };
            let incoming = next_id;
            next_id += 1;
            groups[to_group].push(incoming);
            for (cache, delta) in deltas.iter_mut().enumerate() {
                if (from_group + 1) >> cache & 1 == 1 {
                    delta
                        .delete
                        .push(Fact::new(format!("C{cache}").as_str(), [object(victim)]));
                }
                if (to_group + 1) >> cache & 1 == 1 {
                    delta
                        .insert
                        .push(Fact::new(format!("C{cache}").as_str(), [object(incoming)]));
                }
            }
        }
        deltas.retain(|d| !d.delete.is_empty() || !d.insert.is_empty());
        batches.push(DeltaBatch { deltas });
    }
    Ok(DeltaStream {
        initial,
        // One padding slot per future incoming object keeps the fact
        // universe fixed across the whole stream; evictions refill it.
        padding: (config.batches * config.updates_per_batch.max(1)) as u64,
        batches,
    })
}

/// Configuration for the mirror-resync stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MirrorStreamConfig {
    /// The underlying static scenario (origin, obsolete set, mirrors).
    pub mirrors: crate::mirrors::MirrorConfig,
    /// Resync events to generate (one batch each).
    pub batches: usize,
    /// RNG seed for the resync schedule (independent of the scenario
    /// seed).
    pub seed: u64,
}

impl Default for MirrorStreamConfig {
    fn default() -> Self {
        MirrorStreamConfig {
            mirrors: crate::mirrors::MirrorConfig::default(),
            batches: 6,
            seed: 2,
        }
    }
}

/// The mirror-resync workload: per batch, one mirror drops one obsolete
/// object it still carries and picks up one live object it was missing
/// (`|v|` constant, membership signatures shifting). Structurally
/// volatile by design — most epochs force patches or recompiles.
///
/// # Errors
/// Propagates scenario generation.
pub fn mirrors_stream(config: &MirrorStreamConfig) -> Result<DeltaStream, CoreError> {
    let scenario = crate::mirrors::generate(&config.mirrors)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Track each mirror's contents as value sets to schedule resyncs.
    let mut contents: Vec<Vec<Value>> = scenario
        .collection
        .sources()
        .iter()
        .map(|s| s.extension().iter().map(|f| f.args[0]).collect())
        .collect();
    let views: Vec<String> = scenario
        .collection
        .sources()
        .iter()
        .map(|s| s.view().head().relation.as_str().to_owned())
        .collect();
    let names: Vec<String> = scenario
        .collection
        .sources()
        .iter()
        .map(|s| s.name().to_owned())
        .collect();
    let mut batches = Vec::with_capacity(config.batches);
    for _ in 0..config.batches {
        let mut deltas = Vec::new();
        // Try each mirror in a seeded random rotation until one has both
        // an obsolete object to shed and a missing live object to fetch.
        let start = rng.gen_range(0..contents.len());
        for offset in 0..contents.len() {
            let m = (start + offset) % contents.len();
            let stale: Vec<Value> = contents[m]
                .iter()
                .copied()
                .filter(|v| scenario.obsolete.contains(v))
                .collect();
            let missing: Vec<Value> = scenario
                .origin
                .iter()
                .copied()
                .filter(|v| !contents[m].contains(v))
                .collect();
            if stale.is_empty() || missing.is_empty() {
                continue;
            }
            let drop = stale[rng.gen_range(0..stale.len())];
            let fetch = missing[rng.gen_range(0..missing.len())];
            contents[m].retain(|&v| v != drop);
            contents[m].push(fetch);
            deltas.push(SourceDelta {
                source: names[m].clone(),
                delete: vec![Fact::new(views[m].as_str(), [drop])],
                insert: vec![Fact::new(views[m].as_str(), [fetch])],
            });
            break;
        }
        batches.push(DeltaBatch { deltas });
    }
    Ok(DeltaStream {
        initial: scenario.collection,
        padding: 0,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscds_core::confidence::ConfidenceAnalysis;
    use pscds_core::delta::{analyze_incremental, parse_delta_stream, DeltaProvider, DeltaSession};
    use pscds_core::source::CatalogProvider;

    #[test]
    fn cache_stream_is_deterministic() {
        let cfg = CacheStreamConfig::default();
        let a = cache_sim_stream(&cfg).unwrap();
        let b = cache_sim_stream(&cfg).unwrap();
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.batches.len(), 8);
    }

    #[test]
    fn cache_stream_round_trips_through_text() {
        let stream = cache_sim_stream(&CacheStreamConfig::default()).unwrap();
        let text = stream.batches_text();
        assert_eq!(parse_delta_stream(&text).unwrap(), stream.batches);
        let catalog_text = pscds_core::textfmt::format_collection(&stream.initial);
        let reparsed = pscds_core::textfmt::parse_collection(&catalog_text).unwrap();
        assert_eq!(reparsed, stream.initial);
    }

    #[test]
    fn driftless_cache_stream_reuses_every_epoch() {
        let stream = cache_sim_stream(&CacheStreamConfig::default()).unwrap();
        let mut session = DeltaSession::new(&stream.initial, stream.padding).unwrap();
        let _ = analyze_incremental(&mut session);
        for batch in &stream.batches {
            session.apply_batch(batch).unwrap();
            let incremental = analyze_incremental(&mut session);
            let scratch = ConfidenceAnalysis::analyze(session.collection(), session.padding());
            assert_eq!(incremental.world_count(), scratch.world_count());
        }
        // Signature-inheriting churn: every post-warmup answer reused.
        assert_eq!(session.stats().results_reused, stream.batches.len() as u64);
        assert_eq!(session.stats().recompiles_forced, 0);
        assert_eq!(session.stats().nodes_patched, 0);
    }

    #[test]
    fn drifting_cache_stream_still_answers_identically() {
        let stream = cache_sim_stream(&CacheStreamConfig {
            drift: 0.5,
            seed: 7,
            ..CacheStreamConfig::default()
        })
        .unwrap();
        let mut session = DeltaSession::new(&stream.initial, stream.padding).unwrap();
        for batch in &stream.batches {
            session.apply_batch(batch).unwrap();
            let incremental = analyze_incremental(&mut session);
            let scratch = ConfidenceAnalysis::analyze(session.collection(), session.padding());
            assert_eq!(incremental.world_count(), scratch.world_count());
            assert_eq!(incremental.feasible_vectors(), scratch.feasible_vectors());
        }
    }

    #[test]
    fn draining_drift_replays_identically_to_scratch() {
        // One object per group and heavy drift: groups empty out, and the
        // victim draw must fall back to a non-empty group.
        let stream = cache_sim_stream(&CacheStreamConfig {
            drift: 0.5,
            group_size: 1,
            batches: 64,
            ..CacheStreamConfig::default()
        })
        .unwrap();
        let mut session = DeltaSession::new(&stream.initial, stream.padding).unwrap();
        for batch in &stream.batches {
            session.apply_batch(batch).unwrap();
            let incremental = analyze_incremental(&mut session);
            let scratch = ConfidenceAnalysis::analyze(session.collection(), session.padding());
            assert_eq!(incremental.world_count(), scratch.world_count());
            assert_eq!(incremental.feasible_vectors(), scratch.feasible_vectors());
            let classes = scratch.signature_analysis().classes().len();
            for idx in 0..classes {
                assert_eq!(
                    incremental.class_confidence(idx).ok(),
                    scratch.class_confidence(idx).ok(),
                    "class {idx} diverged"
                );
            }
        }
    }

    #[test]
    fn cache_stream_replays_through_the_provider_boundary() {
        let stream = cache_sim_stream(&CacheStreamConfig::default()).unwrap();
        let mut provider = DeltaProvider::new(CatalogProvider::new(&stream.initial));
        for batch in &stream.batches {
            provider.apply(batch).unwrap();
        }
        // The folded catalog matches applying the batches directly.
        let mut direct = stream.initial.clone();
        for batch in &stream.batches {
            direct = pscds_core::delta::apply_batch_to_catalog(&direct, batch).unwrap();
        }
        assert_eq!(*provider.current(), direct);
    }

    #[test]
    fn mirror_stream_round_trips_and_replays() {
        let stream = mirrors_stream(&MirrorStreamConfig::default()).unwrap();
        assert_eq!(stream.batches.len(), 6);
        let text = stream.batches_text();
        assert_eq!(parse_delta_stream(&text).unwrap(), stream.batches);
        let mut session = DeltaSession::new(&stream.initial, stream.padding).unwrap();
        for batch in &stream.batches {
            session.apply_batch(batch).unwrap();
            let incremental = analyze_incremental(&mut session);
            let scratch = ConfidenceAnalysis::analyze(session.collection(), session.padding());
            assert_eq!(incremental.world_count(), scratch.world_count());
        }
    }

    #[test]
    fn mirror_stream_is_deterministic() {
        let cfg = MirrorStreamConfig::default();
        let a = mirrors_stream(&cfg).unwrap();
        let b = mirrors_stream(&cfg).unwrap();
        assert_eq!(a.batches, b.batches);
    }
}
