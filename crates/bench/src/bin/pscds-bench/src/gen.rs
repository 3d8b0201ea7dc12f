//! Seeded workload inputs. Every input is a pure function of the run's
//! `--seed`; the program under test receives only the files written
//! from these values.
//!
//! What the seed varies is chosen so the work per operation — and with
//! it every end-to-end metric — is nearly the same on every seed:
//! `catalog_scan` draws which tuples each source holds (sizes fixed);
//! `count_exact` and `query_many` rename the constants of fixed planted
//! shapes, and `query_many` draws its query list; `delta_stream` renames
//! the objects of fixed stream shapes.

use pscds_core::delta::{DeltaBatch, SourceDelta};
use pscds_core::paper::example_5_1_scaled;
use pscds_core::{SourceCollection, SourceDescriptor};
use pscds_datagen::deltas::{cache_sim_stream, CacheStreamConfig};
use pscds_datagen::random_sources::{self, RandomIdentityConfig};
use pscds_datagen::symmetric::{self, SymmetricConfig};
use pscds_numeric::Frac;
use pscds_relational::{Fact, Value};
use std::collections::{BTreeSet, HashMap};

/// SplitMix64: the benchmark's own draws (workload shapes, query lists).
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of draws under `seed`.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut rng = Rng(seed);
        for byte in stream.bytes() {
            rng.0 ^= u64::from(byte);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One catalog file of a workload and the padding it is analysed under.
#[derive(Clone, Debug, PartialEq)]
pub struct Catalog {
    /// File stem, unique within the workload.
    pub name: String,
    pub collection: SourceCollection,
    pub padding: u64,
}

/// Source sizes of the eight `catalog_scan` files: 4–6 sources of 1k–6k
/// tuples each, 17k–19.5k extension tuples per file.
const SCAN_SIZES: [&[usize]; 8] = [
    &[6000, 5000, 4000, 3000],
    &[5000, 4500, 3500, 2500, 1500],
    &[6000, 4000, 3000, 2000, 1500, 1000],
    &[5500, 5000, 4500, 4000],
    &[6000, 5000, 3500, 2000, 1000],
    &[5000, 4500, 4000, 3000, 2000, 1000],
    &[6000, 6000, 5000, 2500],
    &[5500, 4000, 3500, 3000, 2500],
];

/// The `catalog_scan` catalogs: overlapping identity sources of soundness
/// 1 (every extension tuple is certain), completeness 0 or 1/4, and a
/// padding of 4–16 facts. Counting is trivial; parsing, signature
/// analysis and the per-tuple table dominate.
pub fn scan_catalogs(seed: u64) -> Vec<Catalog> {
    let mut rng = Rng::new(seed, "catalog_scan");
    SCAN_SIZES
        .iter()
        .enumerate()
        .map(|(file, sizes)| {
            let total: usize = sizes.iter().sum();
            // A pool 60% the size of the summed extensions makes the
            // sources overlap heavily, so most signature classes occur.
            let pool_size = total * 3 / 5;
            let offset = rng.below(1_000_000);
            let pool: Vec<Value> = (0..pool_size)
                .map(|i| Value::sym(&format!("t{}", offset + i)))
                .collect();
            let padding = 4 + rng.below(13) as u64;
            let mut extensions = Vec::with_capacity(sizes.len());
            for &size in sizes.iter() {
                let mut picks: Vec<usize> = (0..pool_size).collect();
                rng.shuffle(&mut picks);
                picks.truncate(size);
                picks.sort_unstable();
                extensions.push(picks);
            }
            let mut union = vec![false; pool_size];
            for ext in &extensions {
                for &i in ext {
                    union[i] = true;
                }
            }
            let union = union.iter().filter(|&&b| b).count();
            let sources = extensions.iter().enumerate().map(|(j, ext)| {
                // Completeness 1/4 only where every world size up to the
                // padding keeps it satisfiable, so each file is consistent.
                let fits = 4 * ext.len() >= union + padding as usize;
                let completeness = if fits && rng.below(2) == 1 {
                    Frac::new(1, 4)
                } else {
                    Frac::ZERO
                };
                SourceDescriptor::identity(
                    format!("S{j}"),
                    &format!("V{j}"),
                    "R",
                    1,
                    ext.iter().map(|&i| [pool[i]]),
                    completeness,
                    Frac::ONE,
                )
                .expect("identity descriptor")
            });
            Catalog {
                name: format!("scan{file}"),
                collection: SourceCollection::from_sources(sources.collect::<Vec<_>>()),
                padding,
            }
        })
        .collect()
}

/// The three planted catalogs, as (sources, constants, generator seed).
/// The compiled circuit of a planted collection ranges over 250–4600
/// nodes with the generator seed, enough to move `query_many`'s memory
/// by a third, so the shapes are fixed: these have 467–933 feasible
/// count vectors and compile to about 950 nodes each. The run's seed
/// renames their constants.
const PLANTED_SHAPES: [(usize, usize, u64); 3] = [(5, 20, 17), (6, 22, 0), (6, 24, 8)];

/// The `count_exact` catalogs: scaled Example 5.1 at r = 32, 48, 64
/// (padding r), three planted random collections (5–6 sources over
/// 20–24 constants) and the symmetric 3×16 family at padding 32.
pub fn count_catalogs(seed: u64) -> Vec<Catalog> {
    let mut out: Vec<Catalog> = [32usize, 48, 64]
        .iter()
        .map(|&r| Catalog {
            name: format!("scaled{r}"),
            collection: example_5_1_scaled(r),
            padding: r as u64,
        })
        .collect();
    let mut rng = Rng::new(seed, "count_exact");
    for (slot, (n_sources, domain_size, shape)) in PLANTED_SHAPES.into_iter().enumerate() {
        let scenario = random_sources::generate(&RandomIdentityConfig {
            n_sources,
            domain_size,
            extension_density: 0.4,
            planted: true,
            world_density: 0.5,
            seed: shape,
            ..RandomIdentityConfig::default()
        })
        .expect("planted config");
        let identity = scenario.collection.as_identity().expect("identity views");
        let (collection, _) = rename(&scenario.collection, &[], &mut rng);
        out.push(Catalog {
            name: format!("planted{slot}"),
            collection,
            padding: (domain_size - identity.all_tuples().len()) as u64,
        });
    }
    let symmetric = symmetric::generate(&SymmetricConfig {
        n_sources: 3,
        tuples_per_source: 16,
        padding: 32,
        seed: rng.next_u64(),
        ..SymmetricConfig::default()
    })
    .expect("symmetric config");
    out.push(Catalog {
        name: "symmetric3x16".into(),
        collection: symmetric.collection,
        padding: symmetric.padding,
    });
    out
}

/// One `delta_stream` stream: an epoch-0 catalog, its padding, and the
/// batches replayed against it.
pub struct Stream {
    pub catalog: Catalog,
    pub batches: Vec<DeltaBatch>,
}

/// Streams per `delta_stream` cycle and batches per stream.
pub const STREAMS: usize = 6;
pub const BATCHES: usize = 96;

/// Generator seeds of the six `delta_stream` shapes. The replay cost of
/// this stream family varies eightfold with the generator seed (0.16 s
/// to 1.3 s over seeds 0–39 on a 2-core x86-64 VM), so streams drawn
/// afresh for every run would make the run-to-run spread a property of
/// the draw. These six span the 10th to 90th percentile of that cost.
/// The run's seed renames their objects, so every seed replays
/// isomorphic streams — the same maintenance work under different
/// names. Their order stays fixed: reordering them alone moves the
/// worker's peak memory by 7%.
const STREAM_SHAPES: [u64; STREAMS] = [9, 29, 37, 20, 2, 35];

/// The `delta_stream` inputs: six cache-replacement streams (3 caches,
/// groups of 4, 4 updates per batch, 96 batches). `drift` stays 0: the
/// generator panics once a group empties under drift.
pub fn delta_streams(seed: u64) -> Vec<Stream> {
    let mut rng = Rng::new(seed, "delta_stream");
    STREAM_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &shape)| {
            let stream = cache_sim_stream(&CacheStreamConfig {
                group_size: 4,
                n_caches: 3,
                batches: BATCHES,
                updates_per_batch: 4,
                drift: 0.0,
                seed: shape,
            })
            .expect("cache stream config");
            let (collection, batches) = rename(&stream.initial, &stream.batches, &mut rng);
            let catalog = Catalog {
                name: format!("stream{i}"),
                collection,
                padding: stream.padding,
            };
            Stream { catalog, batches }
        })
        .collect()
}

/// Renames every constant of a catalog and its update batches by a
/// seeded permutation onto `v0, v1, …`.
fn rename(
    catalog: &SourceCollection,
    batches: &[DeltaBatch],
    rng: &mut Rng,
) -> (SourceCollection, Vec<DeltaBatch>) {
    let facts = catalog.sources().iter().flat_map(|s| s.extension()).chain(
        batches
            .iter()
            .flat_map(|b| &b.deltas)
            .flat_map(|d| d.delete.iter().chain(&d.insert)),
    );
    let constants: BTreeSet<Value> = facts.flat_map(|f| f.args.iter().copied()).collect();
    let mut names: Vec<usize> = (0..constants.len()).collect();
    rng.shuffle(&mut names);
    let renamed: HashMap<Value, Value> = constants
        .into_iter()
        .zip(names)
        .map(|(v, k)| (v, Value::sym(&format!("v{k}"))))
        .collect();
    let rename = |f: &Fact| Fact::new(f.relation, f.args.iter().map(|v| renamed[v]));
    let sources = catalog.sources().iter().map(|s| {
        let extension = s.extension().iter().map(rename);
        SourceDescriptor::new(
            s.name(),
            s.view().clone(),
            extension,
            s.completeness(),
            s.soundness(),
        )
        .expect("renaming keeps a descriptor valid")
    });
    let batches = batches
        .iter()
        .map(|b| DeltaBatch {
            deltas: b
                .deltas
                .iter()
                .map(|d| SourceDelta {
                    source: d.source.clone(),
                    delete: d.delete.iter().map(rename).collect(),
                    insert: d.insert.iter().map(rename).collect(),
                })
                .collect(),
        })
        .collect();
    (
        SourceCollection::from_sources(sources.collect::<Vec<_>>()),
        batches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscds_core::delta::format_delta_stream;
    use pscds_core::textfmt::format_collection;

    fn catalogs_text(catalogs: &[Catalog]) -> String {
        catalogs
            .iter()
            .map(|c| {
                format!(
                    "{} {}\n{}",
                    c.name,
                    c.padding,
                    format_collection(&c.collection)
                )
            })
            .collect()
    }

    fn streams_text(seed: u64) -> String {
        delta_streams(seed)
            .iter()
            .map(|s| {
                catalogs_text(std::slice::from_ref(&s.catalog)) + &format_delta_stream(&s.batches)
            })
            .collect()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let scan = |seed| catalogs_text(&scan_catalogs(seed));
        let count = |seed| catalogs_text(&count_catalogs(seed));
        for make in [&scan as &dyn Fn(u64) -> String, &count, &streams_text] {
            assert_eq!(make(1), make(1));
            assert_ne!(make(1), make(2));
        }
    }

    #[test]
    fn scan_catalogs_keep_their_fixed_sizes() {
        for (catalog, sizes) in scan_catalogs(3).iter().zip(SCAN_SIZES) {
            let got: Vec<usize> = catalog
                .collection
                .sources()
                .iter()
                .map(|s| s.extension_len())
                .collect();
            assert_eq!(got, sizes, "{}", catalog.name);
            assert!((4..=16).contains(&catalog.padding));
        }
    }
}
