//! The CLI workloads, `catalog_scan` and `count_exact`: every operation
//! runs `pscds confidence FILE --padding P --threads 2` as a child of the
//! worker. The worker keeps each catalog's first output, which the
//! parent checks against the oracle, and checks every later output for
//! that catalog byte for byte against the first.
//!
//! A traced operation replays the child's work in the worker right after
//! it, one span per public call the CLI makes — parse, identity view,
//! signature analysis, the ladder's DFS rung (and DP rung when the DFS
//! trips), the per-tuple table — so `cli.outside_ms` is the child's wall
//! minus those layers. The replayed answer is checked against the
//! child's.

use crate::check::{compare, parse_confidence_output, render_tuple, Oracle, Table};
use crate::gen::{self, Catalog, Rng};
use crate::metrics::Outcome;
use crate::trace::{traced_op, Tracer};
use crate::worker::{self, read, read_catalogs, write, write_catalogs, Results};
use crate::{engines, sys, Workload};
use pscds_core::collection::IdentityCollection;
use pscds_core::confidence::{count_dp_observed, ConfidenceAnalysis, DpConfig, SignatureAnalysis};
use pscds_core::obs::ObsSession;
use pscds_core::textfmt::parse_collection;
use pscds_core::{Budget, CoreError, ParallelConfig, SourceCollection};
use pscds_numeric::Rational;
use pscds_relational::Value;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// `--threads` of every `pscds` child: the machine's two cores.
const THREADS: usize = 2;

/// `--max-steps` of `count_exact`. A step allowance bounds each worker
/// fork's steps, so at two threads the DFS trips deterministically only
/// where its serial step count exceeds twice the cap: scaled r=64 (3.35M
/// serial steps) always trips, r=48 (1.12M) never does.
const MAX_STEPS: u64 = 1_500_000;

/// Fresh set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn generate(workload: Workload, seed: u64) -> (Vec<Catalog>, Option<u64>) {
    match workload {
        Workload::CatalogScan => (gen::scan_catalogs(seed), None),
        _ => (gen::count_catalogs(seed), Some(MAX_STEPS)),
    }
}

/// Operations per cycle for each catalog. `count_exact` weights its
/// 14-operation cycle so the median lands among the scaled r=32 runs and
/// p90 among r=64, both of which are the same on every seed.
fn weight(workload: Workload, catalog: &Catalog) -> usize {
    match (workload, catalog.name.as_str()) {
        (Workload::CatalogScan, _) => 1,
        (_, "symmetric3x16") => 2,
        (_, "scaled32" | "scaled48" | "scaled64") => 3,
        _ => 1,
    }
}

/// The prepared inputs of one run.
struct Prepared {
    catalogs: Vec<Catalog>,
    max_steps: Option<u64>,
    expected: Vec<Table>,
}

/// Prepares the inputs `SETUPS` times — generates the catalogs, writes
/// them, computes the oracle's answers — and returns the last
/// preparation with the seconds each one took.
fn set_up(workload: Workload, seed: u64, dir: &Path) -> (Prepared, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Each set-up starts from the same heap: the last one's output
        // is gone.
        drop(prepared.take());
        let start = Instant::now();
        let (catalogs, max_steps) = generate(workload, seed);
        write_catalogs(dir, catalogs.iter());
        let expected = catalogs.iter().map(|c| Oracle::new(c).table()).collect();
        times.push(start.elapsed().as_secs_f64());
        prepared = Some(Prepared {
            catalogs,
            max_steps,
            expected,
        });
    }
    (prepared.expect("at least one set-up"), times)
}

/// Runs one CLI workload and checks every output.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let (
        Prepared {
            catalogs,
            max_steps,
            expected,
        },
        setup,
    ) = set_up(workload, seed, dir);
    // `cycle.txt`: the flags every op passes, then each op's catalog index.
    let mut cycle: Vec<usize> = (0..catalogs.len())
        .flat_map(|i| std::iter::repeat_n(i, weight(workload, &catalogs[i])))
        .collect();
    Rng::new(seed, "cycle").shuffle(&mut cycle);
    let mut plan = format!("--threads {THREADS}");
    if let Some(steps) = max_steps {
        plan.push_str(&format!(" --max-steps {steps}"));
    }
    for i in &cycle {
        plan.push_str(&format!("\n{i}"));
    }
    write(dir, "cycle.txt", &plan);
    let mut report = match worker::run(workload, dir, seconds, trace) {
        Ok(report) => report,
        Err(e) => return worker::broken(&e),
    };
    report.setup = setup;
    // Each catalog's first output against the oracle; the worker compared
    // every later output with the first.
    let first: Vec<Result<(), String>> = catalogs
        .iter()
        .zip(&expected)
        .map(|(c, want)| {
            let text = read(dir, &format!("{}.out", c.name))?;
            parse_confidence_output(&text).and_then(|got| compare(want, &got))
        })
        .collect();
    let mut outcome = report.outcome(dir, trace, |_, answer| {
        let (catalog, status) = answer.split_once(' ').ok_or("bad answer line")?;
        let i: usize = catalog.parse().map_err(|_| "bad catalog index")?;
        let name = &catalogs.get(i).ok_or("bad catalog index")?.name;
        if status != "ok" {
            return Err(format!("{name}: {status}"));
        }
        first[i].clone().map_err(|e| format!("{name}: {e}"))
    });
    if trace && workload == Workload::CountExact {
        outcome.report.push_str(&engines::compare(&catalogs));
    }
    outcome
}

// ---- the worker process ------------------------------------------------

/// Serial step counts of one catalog's ladder rungs, for the trace: at
/// two threads each worker fork keeps its own step counter, so the steps
/// of the timed call are not observable from the caller.
struct Steps {
    dfs: u64,
    dp: u64,
}

fn serial_steps(identity: &IdentityCollection, padding: u64, max_steps: Option<u64>) -> Steps {
    let dfs = Budget::with_max_steps(max_steps.unwrap_or(u64::MAX));
    if ConfidenceAnalysis::analyze_budgeted(identity, padding, &dfs).is_ok() {
        return Steps {
            dfs: dfs.steps(),
            dp: 0,
        };
    }
    let dp = Budget::unlimited();
    let analysis = SignatureAnalysis::new(identity, padding);
    let serial = ParallelConfig::serial();
    let mut obs = ObsSession::disabled();
    count_dp_observed(analysis, &dp, &serial, &DpConfig::default(), &mut obs).expect("unlimited");
    Steps {
        dfs: dfs.steps(),
        dp: dp.steps(),
    }
}

/// What a replay computed. Returned whole so the values are dropped
/// after the op's span closes, as the child drops them after its output.
struct Replayed {
    _collection: SourceCollection,
    identity: IdentityCollection,
    result: ConfidenceAnalysis,
    tuples: Vec<Vec<Value>>,
    confidences: Vec<Rational>,
    padding: u64,
}

impl Replayed {
    fn table(&self) -> Table {
        let rows = self.tuples.iter().zip(&self.confidences);
        Table {
            worlds: self.result.world_count().clone(),
            rows: rows
                .map(|(t, c)| (render_tuple(&self.identity, t), c.clone()))
                .collect(),
            padding: (self.padding > 0)
                .then(|| self.result.padding_confidence().expect("padding class")),
        }
    }
}

/// The child's work, replayed in process with one span per public call.
fn replay(
    tr: &mut Tracer,
    text: &str,
    padding: u64,
    max_steps: Option<u64>,
    steps: &Steps,
) -> Result<Replayed, String> {
    let collection = tr
        .span("textfmt.parse", || parse_collection(text))
        .map_err(|e| e.to_string())?;
    let identity = tr
        .span("collection.as_identity", || collection.as_identity())
        .map_err(|e| e.to_string())?;
    let analysis = tr.span("signature.build", || {
        SignatureAnalysis::new(&identity, padding)
    });
    tr.count("classes", analysis.classes().len() as u64);
    let budget = max_steps.map_or_else(Budget::unlimited, Budget::with_max_steps);
    let parallel = ParallelConfig::with_threads(THREADS);
    let dfs = tr.span("counting.dfs", || {
        ConfidenceAnalysis::from_signature_analysis_parallel(analysis, &budget, &parallel)
    });
    tr.steps(steps.dfs);
    let result = match dfs {
        Ok(result) => {
            tr.count("tripped", 0);
            result
        }
        Err(CoreError::BudgetExceeded { .. }) => {
            tr.count("tripped", 1);
            let analysis = tr.span("signature.build", || {
                SignatureAnalysis::new(&identity, padding)
            });
            tr.count("classes", analysis.classes().len() as u64);
            let renewed = budget.renewed();
            let mut obs = ObsSession::disabled();
            let (result, stats) = tr
                .span("dp.count", || {
                    count_dp_observed(
                        analysis,
                        &renewed,
                        &parallel,
                        &DpConfig::default(),
                        &mut obs,
                    )
                })
                .map_err(|e| e.to_string())?;
            tr.steps(steps.dp);
            tr.count("hits", stats.cache_hits);
            tr.count("misses", stats.cache_misses);
            tr.count("peak_entries", stats.peak_cache_entries as u64);
            tr.count("fallback_nodes", stats.fallback_nodes);
            result
        }
        Err(e) => return Err(e.to_string()),
    };
    let (tuples, confidences) = tr.span("query.table", || {
        let tuples: Vec<Vec<Value>> = identity.all_tuples().into_iter().collect();
        let confidences: Result<Vec<Rational>, _> = tuples
            .iter()
            .map(|t| result.confidence_of_tuple(&identity, t))
            .collect();
        (tuples, confidences)
    });
    tr.count("tuples", tuples.len() as u64);
    Ok(Replayed {
        _collection: collection,
        identity,
        confidences: confidences.map_err(|e| e.to_string())?,
        result,
        tuples,
        padding,
    })
}

/// Checks one child's output: a clean exit, byte-identical to the
/// catalog's first output (kept for the parent), and equal to the
/// in-process replay when traced.
fn verdict(
    output: std::io::Result<std::process::Output>,
    first: &mut Option<Vec<u8>>,
    replayed: Option<Result<Replayed, String>>,
) -> Result<(), String> {
    let out = output.map_err(|e| format!("cannot run pscds: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("exit {:?}: {}", out.status.code(), stderr.trim()));
    }
    match first {
        Some(bytes) if *bytes != out.stdout => {
            return Err("output differs from the first run".into())
        }
        Some(_) => {}
        None => *first = Some(out.stdout.clone()),
    }
    if let Some(replayed) = replayed {
        let child = parse_confidence_output(&String::from_utf8_lossy(&out.stdout))?;
        compare(&child, &replayed?.table()).map_err(|e| format!("in-process replay: {e}"))?;
    }
    Ok(())
}

/// The worker: whole cycles of `pscds` children. Returns the children's
/// peak resident set.
pub fn work(
    dir: &Path,
    seconds: f64,
    tr: &mut Tracer,
    results: &mut Results,
) -> Result<u64, String> {
    let catalogs = read_catalogs(dir)?;
    let plan = read(dir, "cycle.txt")?;
    let mut lines = plan.lines();
    let flags: Vec<&str> = lines.next().unwrap_or_default().split(' ').collect();
    let max_steps = flags
        .windows(2)
        .find(|w| w[0] == "--max-steps")
        .and_then(|w| w[1].parse().ok());
    let cycle: Vec<usize> = lines
        .map(|l| l.parse().ok().filter(|&i| i < catalogs.len()))
        .collect::<Option<_>>()
        .filter(|c: &Vec<usize>| !c.is_empty())
        .ok_or("bad cycle.txt")?;
    results.cycle(cycle.len())?;
    let trace = tr.is_enabled();
    let steps: Vec<Steps> = catalogs
        .iter()
        .filter(|_| trace)
        .map(|(_, text, padding)| {
            let identity = parse_collection(text).and_then(|c| c.as_identity());
            Ok(serial_steps(
                &identity.map_err(|e| e.to_string())?,
                *padding,
                max_steps,
            ))
        })
        .collect::<Result<_, String>>()?;
    let pscds = crate::sibling_binary("pscds");
    let mut first: Vec<Option<Vec<u8>>> = vec![None; catalogs.len()];
    let mut op = 0;
    while !results.done(seconds) {
        for &i in &cycle {
            let (name, text, padding) = &catalogs[i];
            tr.set_enabled(trace && traced_op(op, cycle.len()));
            // The child's peak memory then starts from this process's
            // current size, not its peak.
            sys::reset_peak_rss();
            let cpu = sys::children().cpu;
            tr.open("op");
            tr.open("cli.wall");
            let start = Instant::now();
            let output = Command::new(&pscds)
                .arg("confidence")
                .arg(dir.join(format!("{name}.pscds")))
                .args(["--padding", &padding.to_string()])
                .args(&flags)
                .output();
            let latency = start.elapsed();
            tr.close();
            let replayed = tr
                .is_enabled()
                .then(|| replay(tr, text, *padding, max_steps, &steps[i]));
            tr.close();
            results.record(
                latency,
                sys::children().cpu.saturating_sub(cpu),
                tr.is_enabled(),
            )?;
            let status = match verdict(output, &mut first[i], replayed) {
                Ok(()) => "ok".to_owned(),
                Err(e) => e.replace('\n', " "),
            };
            results.line(format_args!("ans {op} {i} {status}"))?;
            op += 1;
        }
    }
    for ((name, ..), output) in catalogs.iter().zip(first) {
        std::fs::write(dir.join(format!("{name}.out")), output.unwrap_or_default())
            .map_err(|e| format!("{name}.out: {e}"))?;
    }
    Ok(sys::children().max_rss_kib)
}
