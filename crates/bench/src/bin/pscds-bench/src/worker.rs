//! The parent–worker protocol every workload runs through. The parent
//! writes the generated inputs to a directory and runs
//! `pscds-bench worker <workload> <dir> <seconds> <trace>`; the worker
//! reads only those files, runs the timed loop, and writes
//! `result.txt` (and, traced, `trace.jsonl`); the parent checks every
//! answer against the oracle.
//!
//! The timed loop runs in a fresh process so peak memory means the
//! program's: a child's `ru_maxrss` starts at its spawner's resident
//! high-water mark (fork and vfork both carry the spawner's memory into
//! the child until `exec`), so `pscds` must be spawned by a process that
//! stays smaller than it, not by the harness holding every oracle table.
//!
//! `result.txt` lines, written as the run goes so the worker's memory
//! does not grow with the number of operations:
//!
//! ```text
//! cycle <n>                        operations per cycle, first
//! setup <seconds>                  one per fresh set-up (in-process workloads)
//! lat <ms> <cpu ms> <traced 0|1>   one per operation, in order, whole cycles
//! ans <key> <answer>               answers, keyed per workload
//! peak <KiB>                       the program's peak resident set, last
//! ```

use crate::metrics::{end_to_end, Outcome};
use crate::trace::{layer_metrics, overhead, parse_jsonl, Tracer};
use crate::{cli, deltas, queries, Workload};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Writes `text` to `dir/name`.
pub fn write(dir: &Path, name: &str, text: &str) {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Reads `dir/name`.
pub fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
}

/// Writes each catalog as `<name>.pscds`, listed with its padding in
/// `catalogs.txt`.
pub fn write_catalogs<'a>(dir: &Path, catalogs: impl Iterator<Item = &'a crate::gen::Catalog>) {
    let mut index = String::new();
    for c in catalogs {
        let text = pscds_core::textfmt::format_collection(&c.collection);
        write(dir, &format!("{}.pscds", c.name), &text);
        let _ = writeln!(index, "{} {}", c.name, c.padding);
    }
    write(dir, "catalogs.txt", &index);
}

/// Reads `catalogs.txt`: every catalog's name, text and padding.
pub fn read_catalogs(dir: &Path) -> Result<Vec<(String, String, u64)>, String> {
    read(dir, "catalogs.txt")?
        .lines()
        .map(|line| {
            let bad = || format!("bad catalog line {line:?}");
            let (name, padding) = line.split_once(' ').ok_or_else(bad)?;
            let padding = padding.parse().map_err(|_| bad())?;
            Ok((
                name.to_owned(),
                read(dir, &format!("{name}.pscds"))?,
                padding,
            ))
        })
        .collect()
}

/// What a worker reported.
pub struct Report {
    pub cycle: usize,
    /// Seconds of each fresh set-up.
    pub setup: Vec<f64>,
    pub latencies: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub traced: Vec<bool>,
    pub answers: Vec<(String, String)>,
    pub peak_rss_kib: u64,
}

/// Runs the worker over the inputs in `dir` and reads its report.
pub fn run(workload: Workload, dir: &Path, seconds: f64, trace: bool) -> Result<Report, String> {
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["worker", workload.name(), &dir.display().to_string()])
        .args([seconds.to_string(), u8::from(trace).to_string()])
        .status()
        .map_err(|e| format!("cannot run the worker: {e}"))?;
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    let mut report = Report {
        cycle: 0,
        setup: Vec::new(),
        latencies: Vec::new(),
        cpu_ms: Vec::new(),
        traced: Vec::new(),
        answers: Vec::new(),
        peak_rss_kib: 0,
    };
    for line in read(dir, "result.txt")?.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let bad = || format!("bad result line {line:?}");
        let numbers: Vec<f64> = rest.split(' ').filter_map(|v| v.parse().ok()).collect();
        match (tag, numbers.as_slice()) {
            ("cycle", &[n]) => report.cycle = n as usize,
            ("setup", &[s]) => report.setup.push(s),
            ("lat", &[ms, cpu, traced]) => {
                report.latencies.push(ms);
                report.cpu_ms.push(cpu);
                report.traced.push(traced == 1.0);
            }
            ("peak", &[kib]) => report.peak_rss_kib = kib as u64,
            ("ans", _) => {
                let (key, answer) = rest.split_once(' ').ok_or_else(bad)?;
                report.answers.push((key.to_owned(), answer.to_owned()));
            }
            _ => return Err(bad()),
        }
    }
    if report.cycle == 0 || !report.latencies.len().is_multiple_of(report.cycle) {
        return Err("result.txt does not hold whole cycles".into());
    }
    Ok(report)
}

impl Report {
    /// The run's outcome: every answer goes through `check` (an `Err` is
    /// a failed operation), and the metrics come from the timings or,
    /// traced, from the worker's spans.
    pub fn outcome(
        self,
        dir: &Path,
        trace: bool,
        mut check: impl FnMut(&str, &str) -> Result<(), String>,
    ) -> Outcome {
        let mut failed = 0;
        let mut report = String::new();
        for (key, answer) in &self.answers {
            if let Err(e) = check(key, answer) {
                failed += 1;
                if failed <= 10 {
                    let _ = writeln!(report, "FAILED {key}: {e}");
                }
            }
        }
        let metrics = if trace {
            let spans = read(dir, "trace.jsonl")
                .and_then(|text| parse_jsonl(&text))
                .unwrap_or_else(|e| panic!("worker trace: {e}"));
            layer_metrics(&spans, overhead(&self.latencies, &self.traced, self.cycle))
        } else {
            let (metrics, notes) = end_to_end(
                &self.latencies,
                &self.cpu_ms,
                self.cycle,
                self.peak_rss_kib,
                &self.setup,
            );
            report.push_str(&notes);
            metrics
        };
        Outcome {
            attempted: self.latencies.len() as u64,
            failed,
            metrics,
            report,
        }
    }
}

/// An outcome for a run that produced no report.
pub fn broken(error: &str) -> Outcome {
    Outcome {
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        report: format!("FAILED {error}\n"),
    }
}

// ---- the worker process ------------------------------------------------

/// Operations a run performs at least, whatever `--seconds` says, so
/// that even a short run repeats the operations of a short cycle.
const MIN_OPS: usize = 100;

/// The worker's `result.txt` and its timed phase: the summed latency of
/// the operations alone.
pub struct Results {
    out: BufWriter<File>,
    ops: usize,
    wall: Duration,
}

impl Results {
    fn create(dir: &Path) -> Result<Self, String> {
        let file = File::create(dir.join("result.txt")).map_err(|e| format!("result.txt: {e}"))?;
        Ok(Results {
            out: BufWriter::new(file),
            ops: 0,
            wall: Duration::ZERO,
        })
    }

    pub fn line(&mut self, text: std::fmt::Arguments) -> Result<(), String> {
        writeln!(self.out, "{text}").map_err(|e| format!("result.txt: {e}"))
    }

    /// Declares the operations per cycle; call once, before any operation.
    pub fn cycle(&mut self, ops: usize) -> Result<(), String> {
        self.line(format_args!("cycle {ops}"))
    }

    /// Records one operation's latency and CPU time.
    pub fn record(&mut self, latency: Duration, cpu: Duration, traced: bool) -> Result<(), String> {
        self.ops += 1;
        self.wall += latency;
        let ms = latency.as_secs_f64() * 1e3;
        let cpu_ms = cpu.as_secs_f64() * 1e3;
        self.line(format_args!("lat {ms} {cpu_ms} {}", u8::from(traced)))
    }

    /// Runs `f` in this process as one timed operation under an `op` span.
    pub fn op<T>(
        &mut self,
        tr: &mut Tracer,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> Result<T, String> {
        let cpu = crate::sys::this_process().cpu;
        let start = Instant::now();
        tr.open("op");
        let value = f(tr);
        tr.close();
        let latency = start.elapsed();
        let cpu = crate::sys::this_process().cpu.saturating_sub(cpu);
        self.record(latency, cpu, tr.is_enabled())?;
        Ok(value)
    }

    /// Whether `seconds` of operations, and at least [`MIN_OPS`], have run.
    pub fn done(&self, seconds: f64) -> bool {
        self.wall.as_secs_f64() >= seconds && self.ops >= MIN_OPS
    }

    fn finish(mut self, peak_rss_kib: u64) -> Result<(), String> {
        self.line(format_args!("peak {peak_rss_kib}"))?;
        self.out.flush().map_err(|e| format!("result.txt: {e}"))
    }
}

/// `pscds-bench worker <workload> <dir> <seconds> <trace>`.
pub fn work(workload: Workload, dir: &Path, seconds: f64, trace: bool) -> Result<(), String> {
    let mut tr = Tracer::new(trace);
    let mut results = Results::create(dir)?;
    let peak_rss_kib = match workload {
        Workload::CatalogScan | Workload::CountExact => {
            cli::work(dir, seconds, &mut tr, &mut results)?
        }
        Workload::QueryMany => queries::work(dir, seconds, &mut tr, &mut results)?,
        Workload::DeltaStream => deltas::work(dir, seconds, &mut tr, &mut results)?,
    };
    results.finish(peak_rss_kib)?;
    if trace {
        let spans = crate::trace::render_jsonl(workload.name(), &tr.into_spans());
        std::fs::write(dir.join("trace.jsonl"), spans).map_err(|e| e.to_string())?;
    }
    Ok(())
}
