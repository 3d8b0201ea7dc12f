//! `delta_stream`: one `DeltaSession` per cache-replacement stream; each
//! operation is one epoch — `apply_batch` (the write), then
//! `analyze_incremental` and the full confidence table (the read). The
//! worker runs single-threaded.

use crate::check::render_rows;
use crate::gen::{self, Stream};
use crate::metrics::Outcome;
use crate::trace::{traced_op, Tracer};
use crate::worker::{self, read, read_catalogs, write, write_catalogs, Results};
use crate::Workload;
use pscds_core::confidence::ConfidenceAnalysis;
use pscds_core::delta::{
    analyze_incremental, apply_batch_to_catalog, format_delta_stream, parse_delta_stream,
    DeltaBatch, DeltaSession,
};
use pscds_core::textfmt::parse_collection;
use pscds_core::CoreError;
use pscds_numeric::{Rational, UBig};
use pscds_relational::Value;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// The worker reports every 16th epoch of a stream, and its last.
const CHECK_EVERY: usize = 16;

fn checked(epoch: usize, batches: usize) -> bool {
    epoch.is_multiple_of(CHECK_EVERY) || epoch == batches
}

/// The oracle's answer after `epoch` batches of a stream: the catalog
/// replayed with `apply_batch_to_catalog` and counted from scratch by the
/// DFS, under the padding that keeps the fact universe fixed.
fn replay(stream: &Stream, epoch: usize) -> String {
    let initial = stream
        .catalog
        .collection
        .as_identity()
        .expect("identity views");
    let universe = stream.catalog.padding + initial.all_tuples().len() as u64;
    let mut catalog = stream.catalog.collection.clone();
    for batch in &stream.batches[..epoch.min(stream.batches.len())] {
        catalog = apply_batch_to_catalog(&catalog, batch).expect("valid batch");
    }
    let identity = catalog.as_identity().expect("identity views");
    let padding = universe - identity.all_tuples().len() as u64;
    let analysis = ConfidenceAnalysis::analyze(&identity, padding);
    let rows: Vec<(Value, Rational)> = identity
        .all_tuples()
        .into_iter()
        .map(|t| {
            (
                t[0],
                analysis
                    .confidence_of_tuple(&identity, &t)
                    .expect("consistent"),
            )
        })
        .collect();
    format!("{} {}", analysis.world_count(), render_rows(&rows))
}

/// The oracle's answers, keyed `<stream>:<epoch>` and memoized (every
/// cycle replays the same streams).
struct Expected {
    streams: Vec<Stream>,
    tables: HashMap<String, String>,
}

impl Expected {
    fn answer(&mut self, key: &str) -> Option<&str> {
        if !self.tables.contains_key(key) {
            let (stream, epoch) = key.split_once(':')?;
            let stream = self.streams.get(stream.parse::<usize>().ok()?)?;
            self.tables
                .insert(key.to_owned(), replay(stream, epoch.parse().ok()?));
        }
        self.tables.get(key).map(String::as_str)
    }
}

/// Writes the streams; returns their oracle.
fn prepare(streams: Vec<Stream>, dir: &Path) -> Expected {
    write_catalogs(dir, streams.iter().map(|s| &s.catalog));
    for s in &streams {
        write(
            dir,
            &format!("{}.deltas", s.catalog.name),
            &format_delta_stream(&s.batches),
        );
    }
    Expected {
        streams,
        tables: HashMap::new(),
    }
}

/// Runs `delta_stream` and checks every reported epoch.
pub fn run(seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let mut expected = prepare(gen::delta_streams(seed), dir);
    match worker::run(Workload::DeltaStream, dir, seconds, trace) {
        Ok(report) => report.outcome(dir, trace, |key, got| match expected.answer(key) {
            Some(want) if want == got => Ok(()),
            want => Err(format!("got {got:?}, want {want:?}")),
        }),
        Err(e) => worker::broken(&e),
    }
}

/// Opens one session per stream at epoch 0: the timed set-up (parse,
/// `DeltaSession::new`, the epoch-0 analysis).
fn open_sessions(
    inputs: &[(String, u64, Vec<DeltaBatch>)],
    tr: &mut Tracer,
) -> Result<(Vec<DeltaSession>, f64), String> {
    let start = Instant::now();
    tr.open("setup");
    let mut sessions = Vec::new();
    for (text, padding, _) in inputs {
        let collection = tr
            .span("textfmt.parse", || parse_collection(text))
            .map_err(|e| e.to_string())?;
        // Not `delta.analyze`: epoch 0 compiles from scratch, which the
        // per-epoch `delta.analyze_ms` must not average in.
        let session = tr.span("delta.open", || {
            let mut session = DeltaSession::new(&collection, *padding)?;
            let _epoch_0 = analyze_incremental(&mut session);
            Ok::<_, CoreError>(session)
        });
        sessions.push(session.map_err(|e| e.to_string())?);
    }
    tr.close();
    Ok((sessions, start.elapsed().as_secs_f64()))
}

/// One epoch's answer: the world count and every tuple's confidence.
type Epoch = Result<(UBig, Vec<(Value, Rational)>), CoreError>;

/// The worker: whole cycles over every stream, each from sessions opened
/// afresh outside the timed phase, so the `setup_s` samples span the
/// run. Returns the peak resident set of the first cycle and its set-up.
pub fn work(
    dir: &Path,
    seconds: f64,
    tr: &mut Tracer,
    results: &mut Results,
) -> Result<u64, String> {
    let inputs: Vec<(String, u64, Vec<DeltaBatch>)> = read_catalogs(dir)?
        .into_iter()
        .map(|(name, text, padding)| {
            let deltas = read(dir, &format!("{name}.deltas"))?;
            let batches = parse_delta_stream(&deltas).map_err(|e| e.to_string())?;
            Ok((text, padding, batches))
        })
        .collect::<Result<_, String>>()?;
    let epochs: usize = inputs.iter().map(|(.., batches)| batches.len()).sum();
    if epochs == 0 {
        return Err("no stream has a batch".into());
    }
    results.cycle(epochs)?;
    let trace = tr.is_enabled();
    let mut sessions = Vec::new();
    let mut op = 0;
    crate::sys::reset_peak_rss();
    let mut peak_rss_kib = None;
    while !results.done(seconds) {
        // The last cycle's sessions go first, so every set-up starts from
        // the same heap.
        sessions.clear();
        tr.set_enabled(trace);
        let (fresh, set_up_seconds) = open_sessions(&inputs, tr)?;
        results.line(format_args!("setup {set_up_seconds}"))?;
        sessions = fresh;
        for (s, session) in sessions.iter_mut().enumerate() {
            let batches = &inputs[s].2;
            for (k, batch) in batches.iter().enumerate() {
                tr.set_enabled(trace && traced_op(op, batches.len()));
                op += 1;
                let epoch: Epoch = results.op(tr, |tr| {
                    let before = session.stats();
                    tr.span("delta.apply", || session.apply_batch(batch))?;
                    let analysis = tr.span("delta.analyze", || analyze_incremental(session));
                    let after = session.stats();
                    tr.count("reused", after.results_reused - before.results_reused);
                    tr.count("patched", after.nodes_patched - before.nodes_patched);
                    tr.count(
                        "recompiles",
                        after.recompiles_forced - before.recompiles_forced,
                    );
                    tr.count(
                        "invalidated",
                        after.states_invalidated - before.states_invalidated,
                    );
                    let identity = session.collection();
                    let tuples: Vec<Vec<Value>> = identity.all_tuples().into_iter().collect();
                    let rows = tr.span("query.table", || {
                        tuples
                            .iter()
                            .map(|t| Ok((t[0], analysis.confidence_of_tuple(identity, t)?)))
                            .collect::<Result<Vec<_>, CoreError>>()
                    });
                    tr.count("tuples", tuples.len() as u64);
                    Ok((analysis.world_count().clone(), rows?))
                })?;
                if checked(k + 1, batches.len()) {
                    let text = match epoch {
                        Ok((worlds, rows)) => format!("{worlds} {}", render_rows(&rows)),
                        Err(e) => format!("error: {e}"),
                    };
                    results.line(format_args!("ans {s}:{} {text}", k + 1))?;
                }
            }
        }
        peak_rss_kib.get_or_insert_with(crate::sys::peak_rss_kib);
    }
    Ok(peak_rss_kib.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Catalog;
    use crate::trace::parse_jsonl;
    use pscds_datagen::deltas::{cache_sim_stream, CacheStreamConfig};

    /// A traced worker run as short as allowed (`seconds = 0`) over one
    /// short stream, every reported epoch checked against the oracle.
    #[test]
    fn tiny_worker_run_has_no_failures() {
        let stream = cache_sim_stream(&CacheStreamConfig {
            group_size: 2,
            n_caches: 2,
            batches: 32,
            updates_per_batch: 2,
            drift: 0.0,
            seed: 7,
        })
        .unwrap();
        let streams = vec![Stream {
            catalog: Catalog {
                name: "stream0".into(),
                collection: stream.initial,
                padding: stream.padding,
            },
            batches: stream.batches,
        }];
        let dir = std::env::temp_dir().join(format!("pscds-bench-deltas-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut expected = prepare(streams, &dir);
        worker::work(Workload::DeltaStream, &dir, 0.0, true).unwrap();
        let result = read(&dir, "result.txt").unwrap();
        let mut checked = 0;
        for line in result.lines().filter_map(|l| l.strip_prefix("ans ")) {
            let (key, got) = line.split_once(' ').unwrap();
            assert_eq!(expected.answer(key), Some(got), "epoch {key}");
            checked += 1;
        }
        // Whole 32-epoch cycles until the run's minimum of operations.
        let ops = result.lines().filter(|l| l.starts_with("lat ")).count();
        assert_eq!(ops % 32, 0);
        assert_eq!(checked, ops / CHECK_EVERY);
        let spans = parse_jsonl(&read(&dir, "trace.jsonl").unwrap()).unwrap();
        assert!(spans.iter().any(|s| s.name == "delta.apply"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
