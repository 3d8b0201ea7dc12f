//! Symmetric source collections: `k` sources with *identical* `(c, s)`
//! claims over pairwise-disjoint extensions of equal size.
//!
//! This is the family that exercises the circuit compiler's residual-key
//! canonicalization (see DESIGN.md §3.13): swapping any two sources is an
//! automorphism of the instance, so residual states that differ only by a
//! permutation of the interchangeable sources' `(deficit, margin)`
//! triples denote the same count, and the compiler may share one node for
//! the whole orbit. Two knobs matter for the gap to be real:
//!
//! * the claimed **completeness must be positive** — with `c = 0` every
//!   margin clamps to zero and every deficit prunes to zero, so the exact
//!   keys are already one-per-level and there is nothing to share;
//! * a **padding class must exist**, so distinct per-source counts reach
//!   the same level with genuinely permuted triples.

use pscds_core::{CoreError, SourceCollection, SourceDescriptor};
use pscds_numeric::Frac;
use pscds_relational::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for the symmetric-collection generator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SymmetricConfig {
    /// Number of interchangeable sources.
    pub n_sources: usize,
    /// Extension size of each source (pairwise disjoint).
    pub tuples_per_source: usize,
    /// Claimed completeness `(numerator, denominator)`, identical across
    /// sources. Keep the numerator positive: `c = 0` degenerates the
    /// family (no canonical sharing left to demonstrate).
    pub completeness: (u64, u64),
    /// Claimed soundness `(numerator, denominator)`, identical across
    /// sources.
    pub soundness: (u64, u64),
    /// Number of padding constants outside every extension.
    pub padding: u64,
    /// RNG seed (shuffles which constants land in which extension; the
    /// instance is symmetric either way, so this only perturbs names).
    pub seed: u64,
}

impl Default for SymmetricConfig {
    fn default() -> Self {
        SymmetricConfig {
            n_sources: 3,
            tuples_per_source: 4,
            completeness: (1, 4),
            soundness: (1, 4),
            padding: 4,
            seed: 1,
        }
    }
}

/// A generated symmetric instance.
#[derive(Clone, Debug)]
pub struct SymmetricScenario {
    /// The collection: `n_sources` interchangeable identity views.
    pub collection: SourceCollection,
    /// The padding count to analyze it under (from the config).
    pub padding: u64,
}

/// Generates a symmetric instance.
///
/// # Errors
/// [`CoreError::BadDomain`] on a zero bound denominator or a zero
/// completeness numerator (the degenerate family — see the module docs);
/// otherwise propagates descriptor validation.
pub fn generate(config: &SymmetricConfig) -> Result<SymmetricScenario, CoreError> {
    let (c_num, c_den) = config.completeness;
    let (s_num, s_den) = config.soundness;
    if c_den == 0 || s_den == 0 {
        return Err(CoreError::BadDomain {
            message: "symmetric family: bound denominators must be positive".into(),
        });
    }
    if c_num == 0 {
        return Err(CoreError::BadDomain {
            message: "symmetric family: completeness must be positive, or every \
                      residual margin clamps to zero and no canonical sharing is left"
                .into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    // One shared constant pool, shuffled then dealt out in disjoint
    // blocks: which names land in which source is seed-dependent, the
    // symmetric shape is not.
    let mut pool: Vec<Value> = (0..config.n_sources * config.tuples_per_source)
        .map(|i| Value::sym(&format!("x{i}")))
        .collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let c = Frac::new(c_num, c_den);
    let s = Frac::new(s_num, s_den);
    let sources = (0..config.n_sources)
        .map(|i| {
            let block = &pool[i * config.tuples_per_source..(i + 1) * config.tuples_per_source];
            SourceDescriptor::identity(
                format!("S{i}"),
                &format!("V{i}"),
                "R",
                1,
                block.iter().map(|&v| [v]),
                c,
                s,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SymmetricScenario {
        collection: SourceCollection::from_sources(sources),
        padding: config.padding,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscds_core::confidence::{
        analyze_circuit, compile_circuit, count_dp_observed, CircuitConfig, ConfidenceAnalysis,
        DpConfig, SignatureAnalysis,
    };
    use pscds_core::govern::Budget;
    use pscds_core::ParallelConfig;
    use pscds_obs::{names, MetricSet, ObsSession};

    #[test]
    fn deterministic_given_seed() {
        let cfg = SymmetricConfig::default();
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.collection, b.collection);
        let other = generate(&SymmetricConfig {
            seed: 2,
            ..cfg.clone()
        })
        .unwrap();
        // A different seed deals different names into the blocks.
        assert_ne!(a.collection, other.collection);
    }

    #[test]
    fn shapes_respect_config() {
        let cfg = SymmetricConfig {
            n_sources: 4,
            tuples_per_source: 3,
            ..Default::default()
        };
        let s = generate(&cfg).unwrap();
        assert_eq!(s.collection.len(), 4);
        let id = s.collection.as_identity().unwrap();
        assert_eq!(id.all_tuples().len(), 12, "disjoint extensions");
        // Identical claims on every source: the instance is symmetric.
        for src in s.collection.sources() {
            assert_eq!(src.completeness(), Frac::new(1, 4));
            assert_eq!(src.soundness(), Frac::new(1, 4));
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let err = generate(&SymmetricConfig {
            completeness: (0, 4),
            ..Default::default()
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
        let err = generate(&SymmetricConfig {
            soundness: (1, 0),
            ..Default::default()
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
    }

    /// The family's whole point: on a symmetric instance the circuit's
    /// canonical arena is strictly smaller than the DP's residual-state
    /// count — node sharing occurred — and the obs counters say so.
    #[test]
    fn canonical_sharing_beats_the_dp_residual_states() {
        let scenario = generate(&SymmetricConfig::default()).unwrap();
        let identity = scenario.collection.as_identity().unwrap();
        let budget = Budget::unlimited();

        let circuit = compile_circuit(
            SignatureAnalysis::new(&identity, scenario.padding),
            &budget,
            &CircuitConfig::default(),
        )
        .unwrap();
        let (dp, dp_stats) = count_dp_observed(
            SignatureAnalysis::new(&identity, scenario.padding),
            &budget,
            &ParallelConfig::serial(),
            &DpConfig::default(),
            &mut ObsSession::disabled(),
        )
        .unwrap();

        // Same answers as the uncompiled engines, first of all.
        let traversed = analyze_circuit(&circuit);
        let dfs = ConfidenceAnalysis::analyze(&identity, scenario.padding);
        assert_eq!(traversed.world_count(), dfs.world_count());
        assert_eq!(traversed.world_count(), dp.world_count());
        assert_eq!(traversed.feasible_vectors(), dfs.feasible_vectors());

        // The obs-counter form of the sharing claim: circuit.nodes (the
        // canonical arena) is strictly below the DP's residual-state
        // count, and the shared-node counter is positive.
        let mut metrics = MetricSet::new();
        circuit.stats().record_into(&mut metrics);
        dp_stats.record_into(&mut metrics);
        let canonical = metrics.counter(names::CIRCUIT_NODES);
        let residual_states = metrics.counter(names::DP_CACHE_MISSES);
        assert!(
            canonical < residual_states,
            "no sharing: {canonical} canonical nodes vs {residual_states} DP residual states"
        );
        assert!(metrics.counter(names::CIRCUIT_SHARED_NODES) > 0);
        assert_eq!(
            metrics.counter(names::CIRCUIT_NODES) + metrics.counter(names::CIRCUIT_SHARED_NODES),
            metrics.counter(names::CIRCUIT_EXACT_NODES),
            "arena accounting"
        );
    }
}
