//! # pscds-cli
//!
//! The `pscds` command-line tool: load a source-collection file (the
//! format of [`pscds_core::textfmt`]) and run the paper's analyses on it.
//!
//! ```text
//! pscds info        <file>                    descriptor summary, sch(S), Lemma 3.1 bound
//! pscds check       <file> [--padding N]      CONSISTENCY (+ witness)
//! pscds consensus   <file> [--padding N]      maximal consistent subsets, trust scores
//! pscds confidence  <file> [--padding N]      exact tuple-confidence table
//! pscds answers     <file> --query "Ans(x) <- R(x)" --domain a,b,c
//!                                             certain / possible answers
//! pscds certain     <file> --query "..."      template-based guaranteed answers
//! pscds measure     <file> --world <facts>    c_D / s_D of every source against a world
//! ```
//!
//! The analysis commands additionally take resource-governance flags
//! (`--timeout-ms N`, `--max-steps N`, `--approx`); see the
//! "Resource governance & degradation" section of the README. All command
//! logic lives in [`run`], which returns the rendered output — the binary
//! just prints it (mapping [`CliError::exit_code`] to the process exit
//! status), and the test suite drives it directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pscds_core::confidence::{
    analyze_circuit_budgeted, compile_circuit, count_dp_observed, sample_confidences_budgeted,
    CircuitConfig, ConfidenceAnalysis, DpConfig, PossibleWorlds, SampledConfidence, SamplerConfig,
    SignatureAnalysis,
};
use pscds_core::consensus::{
    consensus_with_dp_cache, maximal_consistent_subsets_parallel, ConsensusReport,
};
use pscds_core::consistency::exhaustive::domain_with_fresh;
use pscds_core::consistency::{
    decide_identity_parallel, find_witness_parallel, IdentityConsistency,
};
use pscds_core::delta::{parse_delta_stream, DeltaProvider, DeltaSession};
use pscds_core::govern::Budget;
use pscds_core::measures::measure;
use pscds_core::obs::{render_summary, JsonlSink, ObsSession};
use pscds_core::resilient::{
    confidence_over_stream, confidence_resilient, confidence_under_faults, FaultAwareConfidence,
    LadderPolicy, ResilientConfidence,
};
use pscds_core::source::{AccessPolicy, RetryPolicy, SourceStatus};
use pscds_core::textfmt::{format_interval, parse_collection};
use pscds_core::{CatalogProvider, FaultPlan, FaultyProvider, SourceAccess, SourceProvider};
use pscds_core::{CoreError, ParallelConfig, SourceCollection};
use pscds_relational::parser::{parse_facts, parse_rule};
use pscds_relational::{Database, Fact, RelName, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// CLI errors: usage problems or analysis failures.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message is the usage hint.
    Usage(String),
    /// I/O failure reading an input file.
    Io(String, std::io::Error),
    /// An analysis error from the underlying library.
    Analysis(Box<dyn std::error::Error>),
    /// The resource budget (deadline, step allowance, or Ctrl-C) ran out
    /// and no fallback engine applied.
    Budget(CoreError),
}

impl CliError {
    /// The process exit status for this error: usage errors exit 1,
    /// analysis/I-O errors exit 2, exhausted budgets exit 3. (Success
    /// exits 0.)
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Io(..) | CliError::Analysis(_) => 2,
            CliError::Budget(_) => 3,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(path, e) => write!(f, "cannot read {path}: {e}"),
            CliError::Analysis(e) => write!(f, "{e}"),
            CliError::Budget(e) => {
                write!(
                    f,
                    "{e}\nhint: raise --timeout-ms / --max-steps, or pass --approx where supported"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<pscds_core::CoreError> for CliError {
    fn from(e: pscds_core::CoreError) -> Self {
        match e {
            CoreError::BudgetExceeded { .. } => CliError::Budget(e),
            other => CliError::Analysis(Box::new(other)),
        }
    }
}

impl From<pscds_relational::RelError> for CliError {
    fn from(e: pscds_relational::RelError) -> Self {
        CliError::Analysis(Box::new(e))
    }
}

/// The usage banner.
pub const USAGE: &str = "pscds — querying partially sound and complete data sources (PODS 2001)

USAGE:
    pscds info       <collection-file>
    pscds check      <collection-file> [--padding N] [GOVERNANCE]
    pscds consensus  <collection-file> [--padding N] [GOVERNANCE] [--engine auto|dp]
    pscds confidence <collection-file> [--padding N] [GOVERNANCE] [--approx]
                     [--engine auto|exact|dp|signature|circuit|sampled] [ROBUSTNESS]
    pscds answers    <collection-file> --query \"Ans(x) <- R(x)\" --domain a,b,c [GOVERNANCE]
    pscds certain    <collection-file> --query \"Ans(x) <- R(x)\" [GOVERNANCE]
    pscds measure    <collection-file> --world <facts-file>

GOVERNANCE (every analysis is super-polynomial in the worst case):
    --timeout-ms N   wall-clock deadline for the analysis
    --max-steps N    cap on elementary search steps
    --threads N      worker threads for the search (0 or omitted = all
                     available cores, honouring PSCDS_THREADS; 1 = the
                     serial legacy path). Results are bit-identical for
                     every thread count.
    --approx         allow a sampled estimate when the exact engine
                     exceeds the budget (confidence only; output is
                     clearly labelled)
    --engine E       confidence counting engine (confidence only):
                       auto       expand the memoized DP's residual
                                  states once, which predicts the exact
                                  DFS's steps; run the DFS when they are
                                  at most the DP's folds and fit the
                                  budget, else finish the DP; then —
                                  with --approx — the sampler (default)
                       exact      possible-world oracle (2^N enumeration;
                                  tiny instances / cross-checks only)
                       signature  exact signature-DFS counter
                       dp         memoized residual-state DP (exact)
                       circuit    compile the DP recursion into a
                                  shared-node arithmetic circuit once,
                                  answer by traversal (exact; prints
                                  compile stats)
                       sampled    Metropolis estimate
    Ctrl-C           cancels the running analysis cooperatively

OBSERVABILITY (consensus / confidence):
    --trace-out P    stream a JSONL trace (spans, counters, gauges,
                     events) to P; the PSCDS_TRACE environment variable
                     is the same thing for whole pipelines. Flushed even
                     when the budget trips. Counter totals are identical
                     at every --threads count.
    --metrics        append the merged counter/gauge totals to the
                     normal output
    --profile        append the per-phase step-attribution table (span
                     self/total budget steps, deterministic at every
                     --threads count); composes with --trace-out and
                     --metrics. `pscds-trace summary` renders the same
                     table from a recorded trace file

    consensus --engine dp runs the subset sweep over one shared DP
    result cache (exact, same report; the banner counts the
    cross-subset cache hits).

ROBUSTNESS (confidence with --engine auto; sources fetched through the
recovery stack — bounded retry, deterministic backoff charged against
the budget, per-source circuit breakers):
    --fault-plan P   replay the deterministic fault schedule in file P
                     (seeded per-source failure/timeout/truncation/flap
                     rates; same plan => bit-identical run at any
                     --threads count)
    --retries N      fetch retries per source after the first attempt
                     (default 2)
    --backoff-ticks N  budget ticks charged before retry k:
                     N << (k-1) (default 4); no wall clock is consulted
    --partial        when sources stay unreachable, answer from the
                     reachable subset with confidence intervals
                     [lo, hi] bracketing the missing sources between
                     \"absent\" and \"at claimed (c,s) bounds\"; the
                     process exits 4 to flag the partial answer
    --deltas P       replay the ordered update stream in file P (the
                     batch/insert/delete format of pscds_core::delta)
                     through the incremental maintenance session: one
                     fetch-and-analyse epoch per batch, patching the
                     compiled state instead of recomputing. Composes
                     with --fault-plan/--retries/--backoff-ticks; every
                     epoch needs every source, so --partial is rejected

EXIT CODES:
    0  success        1  usage error
    2  analysis/I-O error
    3  budget exhausted with no applicable fallback
    4  partial answer (confidence intervals; some sources unavailable)

The collection file format (see pscds_core::textfmt):
    source S1 {
      view: V1(x) <- R(x)
      completeness: 1/2
      soundness: 0.5
      extension: V1(a). V1(b).
    }";

/// The counting engine selected with `--engine` (confidence only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum EngineChoice {
    /// The resilient ladder: the exact DFS or the memoized DP, whichever
    /// the DP's expansion predicts cheaper, then (with `--approx`) the
    /// Metropolis sampler.
    #[default]
    Auto,
    /// The possible-world oracle: `2^N` enumeration over the mentioned
    /// constants plus the padding. Tiny instances and cross-checks only.
    Exact,
    /// The memoized residual-state DP (exact; see `core::confidence::dp`).
    Dp,
    /// The compiled shared-node circuit (exact; see
    /// `core::confidence::circuit`). Prints compile stats.
    Circuit,
    /// The exact signature-DFS counter.
    Signature,
    /// The Metropolis sampler (an estimate, clearly labelled).
    Sampled,
}

impl std::str::FromStr for EngineChoice {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "auto" => Ok(EngineChoice::Auto),
            "exact" => Ok(EngineChoice::Exact),
            "dp" => Ok(EngineChoice::Dp),
            "circuit" => Ok(EngineChoice::Circuit),
            "signature" => Ok(EngineChoice::Signature),
            "sampled" => Ok(EngineChoice::Sampled),
            _ => Err(()),
        }
    }
}

struct Options {
    positional: Vec<String>,
    padding: Option<u64>,
    query: Option<String>,
    domain: Option<String>,
    world: Option<String>,
    timeout_ms: Option<u64>,
    max_steps: Option<u64>,
    threads: Option<usize>,
    approx: bool,
    engine: EngineChoice,
    trace_out: Option<String>,
    metrics: bool,
    profile: bool,
    retries: Option<u32>,
    backoff_ticks: Option<u64>,
    fault_plan: Option<String>,
    partial: bool,
    deltas: Option<String>,
}

impl Options {
    /// The first robustness flag in use, if any — these are only valid
    /// on `confidence` with `--engine auto`, and the flag name makes the
    /// usage error actionable.
    fn fault_flag_used(&self) -> Option<&'static str> {
        if self.deltas.is_some() {
            Some("--deltas")
        } else if self.fault_plan.is_some() {
            Some("--fault-plan")
        } else if self.partial {
            Some("--partial")
        } else if self.retries.is_some() {
            Some("--retries")
        } else if self.backoff_ticks.is_some() {
            Some("--backoff-ticks")
        } else {
            None
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        positional: Vec::new(),
        padding: None,
        query: None,
        domain: None,
        world: None,
        timeout_ms: None,
        max_steps: None,
        threads: None,
        approx: false,
        engine: EngineChoice::default(),
        trace_out: None,
        metrics: false,
        profile: false,
        retries: None,
        backoff_ticks: None,
        fault_plan: None,
        partial: false,
        deltas: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut grab = |name: &str| -> Result<String, CliError> {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        let number = |name: &str, v: String| -> Result<u64, CliError> {
            v.parse()
                .map_err(|_| CliError::Usage(format!("bad {name} value {v:?}")))
        };
        match arg.as_str() {
            "--padding" => {
                let v = grab("--padding")?;
                opts.padding = Some(number("--padding", v)?);
            }
            "--query" => opts.query = Some(grab("--query")?),
            "--domain" => opts.domain = Some(grab("--domain")?),
            "--world" => opts.world = Some(grab("--world")?),
            "--timeout-ms" => {
                let v = grab("--timeout-ms")?;
                opts.timeout_ms = Some(number("--timeout-ms", v)?);
            }
            "--max-steps" => {
                let v = grab("--max-steps")?;
                opts.max_steps = Some(number("--max-steps", v)?);
            }
            "--threads" => {
                let v = grab("--threads")?;
                opts.threads = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --threads value {v:?}")))?,
                );
            }
            "--approx" => opts.approx = true,
            "--trace-out" => opts.trace_out = Some(grab("--trace-out")?),
            "--metrics" => opts.metrics = true,
            "--profile" => opts.profile = true,
            "--retries" => {
                let v = grab("--retries")?;
                opts.retries = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --retries value {v:?}")))?,
                );
            }
            "--backoff-ticks" => {
                let v = grab("--backoff-ticks")?;
                opts.backoff_ticks = Some(number("--backoff-ticks", v)?);
            }
            "--fault-plan" => opts.fault_plan = Some(grab("--fault-plan")?),
            "--partial" => opts.partial = true,
            "--deltas" => opts.deltas = Some(grab("--deltas")?),
            "--engine" => {
                let v = grab("--engine")?;
                opts.engine = v.parse().map_err(|()| {
                    CliError::Usage(format!(
                        "bad --engine value {v:?} (expected auto, exact, dp, signature, circuit, or sampled)"
                    ))
                })?;
            }
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option {other}")));
            }
            other => opts.positional.push(other.to_owned()),
        }
    }
    Ok(opts)
}

/// The process-wide cancellation flag, shared with every [`Budget`] the
/// CLI builds so a Ctrl-C handler can interrupt any running analysis.
static CANCEL: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// Returns the process-wide cancellation flag, creating it on first use.
/// The binary installs a SIGINT handler that [`trip_cancel`]s it.
pub fn arm_cancellation() -> Arc<AtomicBool> {
    Arc::clone(CANCEL.get_or_init(|| Arc::new(AtomicBool::new(false))))
}

/// Flips the process-wide cancellation flag. Async-signal-safe: a lookup
/// of an already-initialised `OnceLock` plus one atomic store.
pub fn trip_cancel() {
    if let Some(flag) = CANCEL.get() {
        // lint-allow(relaxed-ordering): monotone set-once latch; every Budget
        // re-polls it on the check slow path, so a delayed read only postpones
        // cancellation by one CHECK_INTERVAL
        flag.store(true, Ordering::Relaxed);
    }
}

/// Builds the [`Budget`] for one command from the governance flags,
/// always attaching the process-wide cancellation flag.
fn budget_from(opts: &Options) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(ms) = opts.timeout_ms {
        budget = budget.and_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(steps) = opts.max_steps {
        budget = budget.and_max_steps(steps);
    }
    budget.and_cancel(arm_cancellation())
}

/// Builds the [`ParallelConfig`] for one command: `--threads N` when
/// given (`0` = all available cores), otherwise the environment default
/// (`PSCDS_THREADS`, falling back to available parallelism).
fn parallel_from(opts: &Options) -> ParallelConfig {
    opts.threads
        .map(ParallelConfig::with_threads)
        .unwrap_or_default()
}

/// Builds the [`ObsSession`] for one command from the observability
/// flags: `--trace-out PATH` (or the `PSCDS_TRACE` environment variable)
/// streams JSONL records to `PATH`; `--metrics` alone aggregates
/// in-memory so the counter totals can be appended to the output;
/// neither flag yields the disabled session (zero overhead).
fn obs_session_from(opts: &Options) -> Result<ObsSession, CliError> {
    let trace_path = opts.trace_out.clone().or_else(|| {
        std::env::var("PSCDS_TRACE")
            .ok()
            .filter(|path| !path.is_empty())
    });
    if let Some(path) = trace_path {
        let file = std::fs::File::create(&path).map_err(|e| CliError::Io(path.clone(), e))?;
        Ok(ObsSession::with_sink(Box::new(JsonlSink::new(file))))
    } else if opts.metrics || opts.profile {
        Ok(ObsSession::in_memory())
    } else {
        Ok(ObsSession::disabled())
    }
}

/// Flushes the session (so `--trace-out` files are complete even when
/// the analysis failed) and, under `--metrics` / `--profile`, appends
/// the merged counter/gauge totals and/or the per-phase step-attribution
/// table to the rendered output.
fn finish_obs(obs: ObsSession, opts: &Options, out: &mut String) {
    if !obs.is_enabled() {
        return;
    }
    let report = obs.finish();
    if opts.profile {
        let _ = writeln!(out, "profile:");
        out.push_str(&render_summary(&report));
    }
    if opts.metrics {
        if report.metrics.is_empty() {
            let _ = writeln!(out, "metrics: (none recorded on this path)");
            return;
        }
        let _ = writeln!(out, "metrics:");
        for (name, value) in report.metrics.counters() {
            let _ = writeln!(out, "  {name} {value}");
        }
        for (name, value) in report.metrics.gauges() {
            let _ = writeln!(out, "  {name} {value} (gauge)");
        }
    }
}

fn load_collection(path: &str) -> Result<SourceCollection, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))?;
    Ok(parse_collection(&text)?)
}

fn parse_domain(spec: &str) -> Vec<Value> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|tok| match tok.parse::<i64>() {
            Ok(v) => Value::int(v),
            Err(_) => Value::sym(tok),
        })
        .collect()
}

/// Exit status of a successful run that produced a *partial* answer
/// (confidence intervals with sources unavailable).
pub const EXIT_PARTIAL: i32 = 4;

/// Executes a CLI invocation (`args` excludes the program name) and
/// returns the rendered output.
///
/// Equivalent to [`run_with_status`] with the exit status discarded —
/// for callers that only care about success/failure, not the
/// partial-answer distinction.
///
/// # Errors
/// Usage, I/O and analysis errors; the caller prints them.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_status(args).map(|(out, _status)| out)
}

/// Executes a CLI invocation and returns the rendered output together
/// with the process exit status for the *success* path: `0` normally,
/// [`EXIT_PARTIAL`] when the answer is a partial-availability interval
/// table (so pipelines can distinguish point answers from brackets
/// without parsing the output).
///
/// # Errors
/// Usage, I/O and analysis errors; the caller prints them and exits
/// with [`CliError::exit_code`].
pub fn run_with_status(args: &[String]) -> Result<(String, i32), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("no command given".into()));
    };
    let opts = parse_options(rest)?;
    if command != "confidence" {
        if let Some(flag) = opts.fault_flag_used() {
            return Err(CliError::Usage(format!(
                "{flag} only applies to `pscds confidence`"
            )));
        }
    }
    match command.as_str() {
        "info" => cmd_info(&opts).map(|out| (out, 0)),
        "check" => cmd_check(&opts).map(|out| (out, 0)),
        "consensus" => cmd_consensus(&opts).map(|out| (out, 0)),
        "confidence" => cmd_confidence(&opts),
        "answers" => cmd_answers(&opts).map(|out| (out, 0)),
        "certain" => cmd_certain(&opts).map(|out| (out, 0)),
        "measure" => cmd_measure(&opts).map(|out| (out, 0)),
        "help" | "--help" | "-h" => Ok((USAGE.to_owned(), 0)),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn the_file(opts: &Options) -> Result<&str, CliError> {
    match opts.positional.as_slice() {
        [one] => Ok(one),
        [] => Err(CliError::Usage("missing <collection-file>".into())),
        more => Err(CliError::Usage(format!(
            "too many positional arguments: {more:?}"
        ))),
    }
}

fn cmd_info(opts: &Options) -> Result<String, CliError> {
    let collection = load_collection(the_file(opts)?)?;
    let mut out = String::new();
    let _ = write!(out, "{collection}");
    let schema = collection.schema()?;
    let _ = writeln!(out, "sch(S): {} relation(s)", schema.len());
    for (rel, arity) in schema.iter() {
        let _ = writeln!(out, "  {rel}/{arity}");
    }
    let _ = writeln!(out, "Σ|v_i| = {}", collection.total_extension_size());
    let _ = writeln!(
        out,
        "Lemma 3.1 small-model bound: {}",
        collection.lemma31_bound()
    );
    let _ = writeln!(
        out,
        "identity-view collection: {}",
        if collection.as_identity().is_ok() {
            "yes"
        } else {
            "no"
        }
    );
    Ok(out)
}

fn cmd_check(opts: &Options) -> Result<String, CliError> {
    let collection = load_collection(the_file(opts)?)?;
    let padding = opts.padding.unwrap_or(0);
    let budget = budget_from(opts);
    let parallel = parallel_from(opts);
    let mut out = String::new();
    match collection.as_identity() {
        Ok(identity) => match decide_identity_parallel(&identity, padding, &budget, &parallel)? {
            IdentityConsistency::Consistent { witness, .. } => {
                let _ = writeln!(out, "CONSISTENT (identity-view solver, padding {padding})");
                let _ = writeln!(out, "witness world: {witness}");
            }
            IdentityConsistency::Inconsistent => {
                let _ = writeln!(
                    out,
                    "INCONSISTENT (identity-view solver, padding {padding})"
                );
                let _ = writeln!(
                    out,
                    "hint: `pscds consensus` finds the maximal consistent subsets"
                );
            }
        },
        Err(_) => {
            // General views: bounded exhaustive search over the mentioned
            // constants plus a few fresh ones.
            let domain = pscds_core::consistency::exhaustive::domain_with_fresh(&collection, 2);
            match find_witness_parallel(&collection, &domain, None, &budget, &parallel)? {
                Some(witness) => {
                    let _ = writeln!(
                        out,
                        "CONSISTENT (bounded exhaustive search over {} constants)",
                        domain.len()
                    );
                    let _ = writeln!(out, "witness world: {witness}");
                }
                None => {
                    let _ = writeln!(
                        out,
                        "NO WITNESS within the Lemma 3.1 bound over {} constants (collection is inconsistent over this domain)",
                        domain.len()
                    );
                }
            }
        }
    }
    Ok(out)
}

fn cmd_consensus(opts: &Options) -> Result<String, CliError> {
    let collection = load_collection(the_file(opts)?)?;
    let padding = opts.padding.unwrap_or(0);
    let budget = budget_from(opts);
    let mut obs = obs_session_from(opts)?;
    let result = match opts.engine {
        EngineChoice::Auto => {
            maximal_consistent_subsets_parallel(&collection, padding, &budget, &parallel_from(opts))
                .map(|report| (report, None))
        }
        EngineChoice::Dp => consensus_with_dp_cache(&collection, padding, &budget, &mut obs)
            .map(|(report, stats)| (report, Some(stats))),
        _ => {
            return Err(CliError::Usage(
                "consensus supports --engine auto (default) or dp".into(),
            ))
        }
    };
    let mut out = String::new();
    let rendered = match result {
        Ok((report, stats)) => {
            if let Some(stats) = stats {
                let _ = writeln!(
                    out,
                    "engine: dp — one residual cache shared across the subset sweep \
                     ({} cross-subset hits, padding {padding})",
                    stats.cross_subset_hits
                );
            }
            render_consensus_report(&mut out, &collection, &report);
            Ok(())
        }
        Err(e) => Err(CliError::from(e)),
    };
    finish_obs(obs, opts, &mut out);
    rendered?;
    Ok(out)
}

/// Renders a [`ConsensusReport`] (shared by the parallel-search and
/// cached-DP consensus engines, which must agree on everything but the
/// engine banner).
fn render_consensus_report(
    out: &mut String,
    collection: &SourceCollection,
    report: &ConsensusReport,
) {
    if report.fully_consistent() {
        let _ = writeln!(
            out,
            "fully consistent: all {} sources agree",
            report.n_sources
        );
        return;
    }
    let _ = writeln!(out, "maximal consistent subsets:");
    for subset in &report.maximal_subsets {
        let names: Vec<&str> = subset
            .iter()
            .map(|&i| collection.sources()[i].name())
            .collect();
        let _ = writeln!(out, "  {{{}}}", names.join(", "));
    }
    let _ = writeln!(
        out,
        "support (fraction of maximal subsets containing the source):"
    );
    for (i, support) in report.support.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<12} {} (≈{:.3})",
            collection.sources()[i].name(),
            support,
            support.to_f64()
        );
    }
    let outliers = report.outliers();
    if !outliers.is_empty() {
        let names: Vec<&str> = outliers
            .iter()
            .map(|&i| collection.sources()[i].name())
            .collect();
        let _ = writeln!(
            out,
            "outliers (in no ≥2-source consistent subset): {}",
            names.join(", ")
        );
    }
}

fn cmd_confidence(opts: &Options) -> Result<(String, i32), CliError> {
    let collection = load_collection(the_file(opts)?)?;
    let mut obs = obs_session_from(opts)?;
    let result = confidence_output(opts, collection, &mut obs);
    match result {
        Ok((mut out, status)) => {
            finish_obs(obs, opts, &mut out);
            Ok((out, status))
        }
        Err(e) => {
            // Still flush: a budget-tripped run's partial trace is exactly
            // what the operator wants to see.
            let mut scratch = String::new();
            finish_obs(obs, opts, &mut scratch);
            Err(e)
        }
    }
}

/// Runs the fault-aware confidence path: every extension is fetched
/// through the recovery stack (retry/backoff/breakers), replaying
/// `--fault-plan` when given, and the answer is either the ordinary
/// ladder result (exit 0) or — with `--partial` — an interval table
/// (exit [`EXIT_PARTIAL`]).
fn confidence_under_faults_output(
    opts: &Options,
    collection: &SourceCollection,
    padding: u64,
    budget: &Budget,
    parallel: &ParallelConfig,
    obs: &mut ObsSession,
) -> Result<(String, i32), CliError> {
    let plan = match opts.fault_plan.as_deref() {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))?;
            Some(FaultPlan::parse(&text)?)
        }
        None => None,
    };
    let policy = AccessPolicy {
        retry: RetryPolicy {
            retries: opts
                .retries
                .unwrap_or_else(|| RetryPolicy::default().retries),
            backoff_ticks: opts
                .backoff_ticks
                .unwrap_or_else(|| RetryPolicy::default().backoff_ticks),
        },
        breaker: Default::default(),
    };
    let mut access = SourceAccess::new(policy, collection.len());
    let mut catalog_provider;
    let mut faulty_provider;
    let provider: &mut dyn SourceProvider = match plan {
        Some(plan) => {
            faulty_provider = FaultyProvider::new(collection, plan);
            &mut faulty_provider
        }
        None => {
            catalog_provider = CatalogProvider::new(collection);
            &mut catalog_provider
        }
    };
    let result = confidence_under_faults(
        provider,
        &mut access,
        padding,
        budget,
        parallel,
        opts.approx,
        opts.partial,
        &LadderPolicy::default(),
        obs,
    )?;
    let mut out = String::new();
    match result {
        FaultAwareConfidence::Complete { statuses, result } => {
            render_source_statuses(&mut out, collection, &statuses);
            render_resilient_confidence(&mut out, &result, padding)?;
            Ok((out, 0))
        }
        FaultAwareConfidence::Partial {
            statuses,
            unavailable,
            intervals,
        } => {
            let _ = writeln!(
                out,
                "engine: {} — confidence intervals from the reachable subset (padding {padding})",
                intervals.engine()
            );
            render_source_statuses(&mut out, collection, &statuses);
            let _ = writeln!(out, "unavailable: {}", unavailable.join(", "));
            let _ = writeln!(
                out,
                "availability scenarios: {} examined, {} consistent",
                intervals.scenarios(),
                intervals.consistent_scenarios()
            );
            let mut rows: Vec<_> = intervals.tuples().to_vec();
            rows.sort_by(|a, b| {
                b.interval
                    .hi
                    .cmp(&a.interval.hi)
                    .then_with(|| a.tuple.cmp(&b.tuple))
            });
            let relation = collection.as_identity()?.relation;
            let _ = writeln!(out, "tuple confidence intervals (descending upper bound):");
            for row in rows {
                let rendered: Vec<String> = row.tuple.iter().map(ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "  {}({})  {}  point {}  ≈[{:.4}, {:.4}]",
                    relation,
                    rendered.join(", "),
                    format_interval(&row.interval),
                    row.point,
                    row.interval.lo.to_f64(),
                    row.interval.hi.to_f64()
                );
            }
            if let Some(pad) = intervals.padding() {
                let _ = writeln!(
                    out,
                    "  (each unlisted domain fact: {}  point {})",
                    format_interval(&pad.interval),
                    pad.point
                );
            }
            Ok((out, EXIT_PARTIAL))
        }
    }
}

/// Runs the `--deltas FILE` replay: the update stream is folded into a
/// [`DeltaProvider`] batch by batch, each epoch is fetched through the
/// recovery stack (so `--fault-plan`/`--retries` compose), and one
/// [`DeltaSession`] maintains the verdict, the residual cache, and the
/// compiled circuit across epochs instead of recomputing them.
fn confidence_deltas_output(
    opts: &Options,
    collection: &SourceCollection,
    padding: u64,
    budget: &Budget,
    obs: &mut ObsSession,
) -> Result<(String, i32), CliError> {
    let path = opts.deltas.as_deref().unwrap_or_default();
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))?;
    let batches = parse_delta_stream(&text)?;
    let plan = match opts.fault_plan.as_deref() {
        Some(plan_path) => {
            let plan_text = std::fs::read_to_string(plan_path)
                .map_err(|e| CliError::Io(plan_path.to_owned(), e))?;
            Some(FaultPlan::parse(&plan_text)?)
        }
        None => None,
    };
    let policy = AccessPolicy {
        retry: RetryPolicy {
            retries: opts
                .retries
                .unwrap_or_else(|| RetryPolicy::default().retries),
            backoff_ticks: opts
                .backoff_ticks
                .unwrap_or_else(|| RetryPolicy::default().backoff_ticks),
        },
        breaker: Default::default(),
    };
    let mut access = SourceAccess::new(policy, collection.len());
    let mut session = DeltaSession::new(collection, padding)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "delta replay: initial epoch + {} batch(es) from {path} (padding {padding})",
        batches.len()
    );
    let analysis = match plan {
        Some(plan) => replay_delta_stream(
            DeltaProvider::new(FaultyProvider::new(collection, plan)),
            &batches,
            &mut session,
            &mut access,
            budget,
            obs,
            &mut out,
        )?,
        None => replay_delta_stream(
            DeltaProvider::new(CatalogProvider::new(collection)),
            &batches,
            &mut session,
            &mut access,
            budget,
            obs,
            &mut out,
        )?,
    };
    render_exact_confidence(&mut out, &analysis, session.padding())?;
    let stats = session.stats();
    let _ = writeln!(
        out,
        "delta maintenance: {} epoch(s), {} op(s), {} class(es) touched, {} state(s) \
         invalidated, {} node(s) patched, {} recompile(s), {} result(s) reused",
        stats.batches_applied,
        stats.ops_applied,
        stats.classes_touched,
        stats.states_invalidated,
        stats.nodes_patched,
        stats.recompiles_forced,
        stats.results_reused
    );
    Ok((out, 0))
}

/// The epoch loop of [`confidence_deltas_output`], generic over the
/// wrapped provider (plain catalog or fault-injected): epoch 0 analyses
/// the initial catalog, epoch `i` applies batch `i` first. Returns the
/// final epoch's analysis.
fn replay_delta_stream<P: SourceProvider>(
    mut provider: DeltaProvider<P>,
    batches: &[pscds_core::delta::DeltaBatch],
    session: &mut DeltaSession,
    access: &mut SourceAccess,
    budget: &Budget,
    obs: &mut ObsSession,
    out: &mut String,
) -> Result<ConfidenceAnalysis, CliError> {
    let mut last = None;
    for epoch in 0..=batches.len() {
        let ops = if epoch == 0 {
            0
        } else {
            let batch = &batches[epoch - 1];
            provider.apply(batch)?;
            batch.op_count()
        };
        let (statuses, analysis) =
            confidence_over_stream(&mut provider, access, session, budget, obs)?;
        let attempts: u32 = statuses.iter().map(SourceStatus::attempts).sum();
        if analysis.is_consistent() {
            let _ = writeln!(
                out,
                "epoch {epoch} ({ops} op(s), {attempts} fetch attempt(s)): worlds {}, {} \
                 feasible vector(s)",
                analysis.world_count(),
                analysis.feasible_vectors()
            );
        } else {
            let _ = writeln!(
                out,
                "epoch {epoch} ({ops} op(s), {attempts} fetch attempt(s)): INCONSISTENT"
            );
        }
        last = Some(analysis);
    }
    last.ok_or_else(|| CliError::Usage("delta stream replay produced no epochs".into()))
}

/// Renders the per-source access outcomes of one fetch epoch.
fn render_source_statuses(
    out: &mut String,
    collection: &SourceCollection,
    statuses: &[SourceStatus],
) {
    let _ = writeln!(out, "source access:");
    for (i, status) in statuses.iter().enumerate() {
        let name = collection.sources()[i].name();
        let (verdict, attempts) = match status {
            SourceStatus::Available { attempts } => ("available", attempts),
            SourceStatus::Unavailable { attempts } => ("UNAVAILABLE", attempts),
            SourceStatus::Quarantined { attempts } => ("QUARANTINED (breaker open)", attempts),
        };
        let _ = writeln!(out, "  {name:<12} {verdict}, {attempts} attempt(s)");
    }
}

/// Answers `pscds confidence`. Every engine but the exact oracle reads
/// only the identity view, which takes the parsed tuples over instead of
/// cloning them.
fn confidence_output(
    opts: &Options,
    collection: SourceCollection,
    obs: &mut ObsSession,
) -> Result<(String, i32), CliError> {
    let padding = opts.padding.unwrap_or_default();
    let budget = budget_from(opts);
    let parallel = parallel_from(opts);
    if opts.deltas.is_some() {
        if opts.engine != EngineChoice::Auto {
            return Err(CliError::Usage(
                "--deltas requires --engine auto (the incremental maintenance session)".into(),
            ));
        }
        if opts.partial {
            return Err(CliError::Usage(
                "--partial cannot combine with --deltas: every replay epoch needs every \
                 source reachable; drop one of the flags"
                    .into(),
            ));
        }
        return confidence_deltas_output(opts, &collection, padding, &budget, obs);
    }
    if let Some(flag) = opts.fault_flag_used() {
        if opts.engine != EngineChoice::Auto {
            return Err(CliError::Usage(format!(
                "{flag} requires --engine auto (the resilient ladder)"
            )));
        }
        return confidence_under_faults_output(opts, &collection, padding, &budget, &parallel, obs);
    }
    let mut out = String::new();
    match opts.engine {
        EngineChoice::Auto => {
            let identity = collection.into_identity()?;
            let result = confidence_resilient(
                &identity,
                padding,
                &budget,
                &parallel,
                opts.approx,
                &LadderPolicy::default(),
                obs,
            )?;
            render_resilient_confidence(&mut out, &result, padding)?;
        }
        EngineChoice::Dp => {
            let identity = collection.into_identity()?;
            let (analysis, _stats) = count_dp_observed(
                SignatureAnalysis::new(&identity, padding),
                &budget,
                &parallel,
                &DpConfig::default(),
                obs,
            )?;
            let _ = writeln!(out, "engine: dp (exact, padding {padding})");
            render_exact_confidence(&mut out, &analysis, padding)?;
        }
        EngineChoice::Circuit => {
            // Compile once, then answer by traversal. The compile-stats
            // line is deterministic (sizes, no wall time), so CI can diff
            // the full output across thread counts and against the DP.
            let identity = collection.into_identity()?;
            let circuit = compile_circuit(
                SignatureAnalysis::new(&identity, padding),
                &budget,
                &CircuitConfig::default(),
            )?;
            let stats = circuit.stats();
            let mut metrics = pscds_core::obs::MetricSet::new();
            stats.record_into(&mut metrics);
            obs.merge_metrics(&metrics);
            let analysis = analyze_circuit_budgeted(&circuit, &budget)?;
            let _ = writeln!(out, "engine: circuit (exact, padding {padding})");
            let _ = writeln!(
                out,
                "compile stats: {} nodes ({} exact residual states, {} shared), {} edges",
                stats.canonical_nodes, stats.exact_nodes, stats.shared_nodes, stats.edges
            );
            render_exact_confidence(&mut out, &analysis, padding)?;
        }
        EngineChoice::Signature => {
            let identity = collection.into_identity()?;
            let analysis = ConfidenceAnalysis::from_signature_analysis_parallel(
                SignatureAnalysis::new(&identity, padding),
                &budget,
                &parallel,
            )?;
            let _ = writeln!(out, "engine: signature (exact, padding {padding})");
            render_exact_confidence(&mut out, &analysis, padding)?;
        }
        EngineChoice::Exact => {
            // The brute-force oracle: enumerate poss(S) over the mentioned
            // constants plus `padding` fresh ones. Exponential in the
            // domain — the cross-check engine, not a production path.
            let identity = collection.as_identity()?;
            let domain = domain_with_fresh(
                &collection,
                usize::try_from(padding).map_err(|_| {
                    CliError::Usage(format!("--padding {padding} too large for --engine exact"))
                })?,
            );
            let worlds =
                PossibleWorlds::enumerate_parallel(&collection, &domain, &budget, &parallel)?;
            let _ = writeln!(
                out,
                "engine: exact possible-world oracle over {} constants (padding {padding})",
                domain.len()
            );
            if !worlds.is_consistent() {
                let _ = writeln!(
                    out,
                    "collection is INCONSISTENT over padding {padding}: confidences are undefined"
                );
                return Ok((out, 0));
            }
            let _ = writeln!(out, "|poss(S)| = {}", worlds.count());
            let mut rows: Vec<(Vec<Value>, pscds_numeric::Rational)> = Vec::new();
            for t in identity.all_tuples() {
                let fact = Fact::new(identity.relation, t.clone());
                rows.push((t, worlds.fact_confidence(&fact)?));
            }
            rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let _ = writeln!(out, "tuple confidences (descending):");
            for (tuple, conf) in rows {
                let rendered: Vec<String> = tuple.iter().map(ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "  {}({})  {}  ≈{:.4}",
                    identity.relation,
                    rendered.join(", "),
                    conf,
                    conf.to_f64()
                );
            }
            if let Some(fresh) = domain.len().checked_sub(identity.all_tuples().len()) {
                if fresh > 0 {
                    let pad = worlds.fact_confidence(&Fact::new(
                        identity.relation,
                        [domain[domain.len() - 1]],
                    ))?;
                    let _ = writeln!(
                        out,
                        "  (each of the {fresh} unlisted domain facts: {} ≈{:.4})",
                        pad,
                        pad.to_f64()
                    );
                }
            }
        }
        EngineChoice::Sampled => {
            let identity = collection.into_identity()?;
            let config = SamplerConfig::default();
            let estimate = sample_confidences_budgeted(&identity, padding, &config, &budget)?;
            let analysis = SignatureAnalysis::new(&identity, padding);
            let _ = writeln!(
                out,
                "engine: sampled ({} samples) — estimates follow (padding {padding})",
                config.samples
            );
            render_sampled_confidence(&mut out, &analysis, &estimate);
        }
    }
    Ok((out, 0))
}

/// The confidence ladder's answer under its `engine:` banner: an exact
/// DFS answer needs none; every other route names its engine and why it
/// answered.
fn render_resilient_confidence(
    out: &mut String,
    result: &ResilientConfidence,
    padding: u64,
) -> Result<(), CliError> {
    let (banner, analysis) = match result {
        ResilientConfidence::Exact(analysis) => {
            return render_exact_confidence(out, analysis, padding);
        }
        ResilientConfidence::PlannedDp(analysis) => (
            "engine: dp — the plan predicted the memoized DP cheaper than the DFS counter",
            analysis,
        ),
        ResilientConfidence::Dp(analysis) => (
            "engine: dp — the DFS counter exceeded the budget; the memoized DP finished",
            analysis,
        ),
        ResilientConfidence::Circuit(analysis) => (
            "engine: circuit — the compiled shared-node circuit answered",
            analysis,
        ),
        ResilientConfidence::Sampled {
            analysis, estimate, ..
        } => {
            let _ = writeln!(
                out,
                "engine: {} — exact counting exceeded the budget, estimates follow (padding {padding})",
                result.engine()
            );
            render_sampled_confidence(out, analysis, estimate);
            return Ok(());
        }
    };
    let _ = writeln!(out, "{banner} (still an exact result, padding {padding})");
    render_exact_confidence(out, analysis, padding)
}

/// Renders the exact confidence table shared by the DFS, DP and circuit
/// engines: one confidence per class, rows in the ranked class order.
fn render_exact_confidence(
    out: &mut String,
    analysis: &ConfidenceAnalysis,
    padding: u64,
) -> Result<(), CliError> {
    if !analysis.is_consistent() {
        let _ = writeln!(
            out,
            "collection is INCONSISTENT over padding {padding}: confidences are undefined"
        );
        return Ok(());
    }
    let _ = writeln!(
        out,
        "|poss(S)| = {} (padding {padding}, {} feasible count vectors)",
        analysis.world_count(),
        analysis.feasible_vectors()
    );
    let confs = analysis.class_confidences()?;
    let tails: Vec<String> = confs
        .iter()
        .map(|conf| format!("  {conf}  ≈{:.4}", conf.to_f64()))
        .collect();
    let classes = analysis.signature_analysis();
    let _ = writeln!(out, "tuple confidences (descending):");
    for (tuple, class) in classes.ranked_members(|a, b| confs[b].cmp(&confs[a])) {
        write_row(out, classes.relation(), tuple, &tails[class]);
    }
    if padding > 0 {
        let pad = analysis.padding_confidence()?;
        let _ = writeln!(
            out,
            "  (each of the {padding} unlisted domain facts: {} ≈{:.4})",
            pad,
            pad.to_f64()
        );
    }
    Ok(())
}

/// Renders the sampled (estimate) confidence table.
fn render_sampled_confidence(
    out: &mut String,
    analysis: &SignatureAnalysis,
    estimate: &SampledConfidence,
) {
    let confs = &estimate.class_confidence;
    let tails: Vec<String> = confs.iter().map(|conf| format!("  ≈{conf:.4}")).collect();
    let _ = writeln!(out, "tuple confidences (sampled, descending):");
    let ranked = analysis.ranked_members(|a, b| {
        confs[b]
            .partial_cmp(&confs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (tuple, class) in ranked {
        write_row(out, analysis.relation(), tuple, &tails[class]);
    }
    let _ = writeln!(
        out,
        "chain diagnostics: acceptance rate {:.3}, {} distinct count vectors visited",
        estimate.acceptance_rate, estimate.distinct_vectors
    );
}

/// Writes one table row: `  R(v1, v2)` and the class's rendered `tail`.
fn write_row(out: &mut String, relation: RelName, tuple: &[Value], tail: &str) {
    let _ = write!(out, "  {relation}(");
    for (i, value) in tuple.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{value}");
    }
    out.push(')');
    out.push_str(tail);
    out.push('\n');
}

fn cmd_answers(opts: &Options) -> Result<String, CliError> {
    let query_text = opts
        .query
        .as_deref()
        .ok_or_else(|| CliError::Usage("answers needs --query".into()))?;
    let domain_text = opts
        .domain
        .as_deref()
        .ok_or_else(|| CliError::Usage("answers needs --domain".into()))?;
    let collection = load_collection(the_file(opts)?)?;
    let query = parse_rule(query_text)?;
    let domain = parse_domain(domain_text);
    let budget = budget_from(opts);
    let worlds =
        PossibleWorlds::enumerate_parallel(&collection, &domain, &budget, &parallel_from(opts))?;
    let mut out = String::new();
    let _ = writeln!(out, "query: {query}");
    let _ = writeln!(out, "possible worlds over the domain: {}", worlds.count());
    if !worlds.is_consistent() {
        let _ = writeln!(
            out,
            "collection is INCONSISTENT over this domain: answers are undefined"
        );
        return Ok(out);
    }
    let certain = worlds.certain_answer_cq_budgeted(&query, &budget)?;
    let possible = worlds.possible_answer_cq_budgeted(&query, &budget)?;
    let _ = writeln!(out, "certain answer ({}):", certain.len());
    for fact in &certain {
        let _ = writeln!(out, "  {fact}");
    }
    let _ = writeln!(out, "possible answer ({}):", possible.len());
    for fact in &possible {
        let conf = worlds.query_confidence_cq(&query, fact)?;
        let _ = writeln!(out, "  {fact}  confidence {} ≈{:.4}", conf, conf.to_f64());
    }
    Ok(out)
}

fn cmd_certain(opts: &Options) -> Result<String, CliError> {
    let query_text = opts
        .query
        .as_deref()
        .ok_or_else(|| CliError::Usage("certain needs --query".into()))?;
    let query = parse_rule(query_text)?;
    let collection = load_collection(the_file(opts)?)?;
    let mut out = String::new();
    let _ = writeln!(out, "query: {query}");
    match pscds_core::answers::certain_answer_lower_bound_budgeted(
        &collection,
        &query,
        &budget_from(opts),
    )? {
        None => {
            let _ = writeln!(
                out,
                "no satisfiable sound-subset combination: poss(S) is empty"
            );
        }
        Some(facts) => {
            let _ = writeln!(
                out,
                "guaranteed answers (template lower bound of Q_*, no domain enumeration): {}",
                facts.len()
            );
            for fact in &facts {
                let _ = writeln!(out, "  {fact}");
            }
        }
    }
    Ok(out)
}

fn cmd_measure(opts: &Options) -> Result<String, CliError> {
    let collection = load_collection(the_file(opts)?)?;
    let world_path = opts
        .world
        .as_deref()
        .ok_or_else(|| CliError::Usage("measure needs --world <facts-file>".into()))?;
    let world_text =
        std::fs::read_to_string(world_path).map_err(|e| CliError::Io(world_path.to_owned(), e))?;
    let world = Database::from_facts(parse_facts(&world_text)?);
    let mut out = String::new();
    let _ = writeln!(out, "world: {} facts", world.len());
    let _ = writeln!(
        out,
        "source      |φ(D)|  |v∩φ(D)|  |v|   c_D      s_D      claims met?"
    );
    let mut all_ok = true;
    for source in collection.sources() {
        let m = measure(&world, source)?;
        let ok = m.completeness_at_least(source.completeness())
            && m.soundness_at_least(source.soundness());
        all_ok &= ok;
        let _ = writeln!(
            out,
            "{:<11} {:<7} {:<9} {:<5} {:<8.4} {:<8.4} {}",
            source.name(),
            m.view_size,
            m.intersection,
            m.extension_size,
            m.completeness(),
            m.soundness(),
            if ok { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(out, "world {} poss(S)", if all_ok { "∈" } else { "∉" });
    Ok(out)
}

/// Convenience used by tests: compute a padding from a requested domain
/// size for an identity collection.
///
/// # Errors
/// As [`SignatureAnalysis::padding_for_domain`].
pub fn padding_for(collection: &SourceCollection, domain_size: u64) -> Result<u64, CliError> {
    let identity = collection.as_identity()?;
    Ok(SignatureAnalysis::padding_for_domain(
        &identity,
        domain_size,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_file(dir: &std::path::Path, name: &str, contents: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write temp file");
        path.to_string_lossy().into_owned()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pscds-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    const EXAMPLE: &str = "source S1 {\n view: V1(x) <- R(x)\n completeness: 1/2\n soundness: 1/2\n extension: V1(a). V1(b).\n}\nsource S2 {\n view: V2(x) <- R(x)\n completeness: 1/2\n soundness: 1/2\n extension: V2(b). V2(c).\n}\n";

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn info_command() {
        let dir = tmpdir("info");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&["info", &file])).unwrap();
        assert!(out.contains("2 sources"));
        assert!(out.contains("R/1"));
        assert!(out.contains("bound: 4"));
        assert!(out.contains("identity-view collection: yes"));
    }

    #[test]
    fn check_command_consistent() {
        let dir = tmpdir("check");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&["check", &file])).unwrap();
        assert!(out.contains("CONSISTENT"));
        assert!(out.contains("witness world"));
    }

    #[test]
    fn check_command_inconsistent() {
        let dir = tmpdir("check-bad");
        let bad = "source A {\n view: V1(x) <- R(x)\n completeness: 1\n soundness: 1\n extension: V1(a).\n}\nsource B {\n view: V2(x) <- R(x)\n completeness: 1\n soundness: 1\n extension: V2(b).\n}\n";
        let file = write_file(&dir, "c.pscds", bad);
        let out = run(&args(&["check", &file])).unwrap();
        assert!(out.contains("INCONSISTENT"));
        let consensus = run(&args(&["consensus", &file])).unwrap();
        assert!(consensus.contains("maximal consistent subsets"));
        assert!(consensus.contains("{A}"));
        assert!(consensus.contains("{B}"));
    }

    #[test]
    fn confidence_command() {
        let dir = tmpdir("conf");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&["confidence", &file, "--padding", "1"])).unwrap();
        assert!(out.contains("|poss(S)| = 7"));
        assert!(out.contains("R(b)  6/7"));
        assert!(out.contains("unlisted domain facts: 2/7"));
    }

    #[test]
    fn answers_command() {
        let dir = tmpdir("ans");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&[
            "answers",
            &file,
            "--query",
            "Ans(x) <- R(x)",
            "--domain",
            "a,b,c",
        ]))
        .unwrap();
        assert!(out.contains("possible worlds over the domain: 5"));
        assert!(out.contains("certain answer (0):"));
        assert!(out.contains("possible answer (3):"));
        assert!(out.contains("Ans(b)  confidence 4/5"));
    }

    #[test]
    fn certain_command() {
        let dir = tmpdir("certain");
        // A fully sound source guarantees its extension.
        let text = "source S {\n view: V(x) <- R(x)\n completeness: 0\n soundness: 1\n extension: V(a). V(b).\n}\n";
        let file = write_file(&dir, "c.pscds", text);
        let out = run(&args(&["certain", &file, "--query", "Ans(x) <- R(x)"])).unwrap();
        assert!(out.contains("guaranteed answers"), "{out}");
        assert!(out.contains("Ans(a)"));
        assert!(out.contains("Ans(b)"));
        // Missing --query is a usage error.
        assert!(matches!(
            run(&args(&["certain", &file])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn measure_command() {
        let dir = tmpdir("measure");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let world = write_file(&dir, "world.facts", "R(a). R(b).");
        let out = run(&args(&["measure", &file, "--world", &world])).unwrap();
        assert!(out.contains("world: 2 facts"));
        assert!(out.contains("world ∈ poss(S)"));
        // A world violating the claims.
        let bad_world = write_file(&dir, "bad.facts", "R(z).");
        let out = run(&args(&["measure", &file, "--world", &bad_world])).unwrap();
        assert!(out.contains("world ∉ poss(S)"));
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&args(&["check"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["answers", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["check", "a", "--padding"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["check", "a", "--padding", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["check", "a", "--wibble", "x"])),
            Err(CliError::Usage(_))
        ));
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            run(&args(&["check", "/nonexistent/definitely-not-here.pscds"])),
            Err(CliError::Io(..))
        ));
    }

    #[test]
    fn join_view_collection_uses_exhaustive_path() {
        let dir = tmpdir("join");
        let text = "source J {\n view: V(x) <- R(x, y), S(y)\n completeness: 1\n soundness: 1\n extension: V(a).\n}\n";
        let file = write_file(&dir, "c.pscds", text);
        let out = run(&args(&["check", &file])).unwrap();
        assert!(out.contains("CONSISTENT"), "{out}");
        assert!(out.contains("exhaustive"));
    }

    #[test]
    fn padding_for_helper() {
        let dir = tmpdir("pad");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let collection = load_collection(&file).unwrap();
        assert_eq!(padding_for(&collection, 10).unwrap(), 7);
    }

    /// A collection file whose exact confidence count explodes: `k`
    /// sources with disjoint `t`-tuple extensions, zero completeness and
    /// soundness 1/4 — roughly `(3t/4)^k` feasible count vectors. The
    /// memoized DP collapses this family (the only live residual after
    /// each disjoint class is "deficit met"), so it exercises the *DP
    /// rescue* rung of the resilient ladder.
    fn wide_slack_file(dir: &std::path::Path, k: usize, t: usize) -> String {
        let mut text = String::new();
        for i in 0..k {
            let ext: Vec<String> = (0..t).map(|j| format!("V{i}(x{i}_{j}).")).collect();
            let _ = writeln!(
                text,
                "source S{i} {{\n view: V{i}(x) <- R(x)\n completeness: 0\n soundness: 1/4\n extension: {}\n}}",
                ext.join(" ")
            );
        }
        write_file(dir, "wide.pscds", &text)
    }

    /// Example 5.1 with every extension tuple replicated `r` times (the
    /// `example_5_1_scaled` family): four signature classes of size `r`,
    /// so with `--padding r` both the DFS *and* the residual-state DP
    /// need far more search steps than a small allowance — the family
    /// that exhausts every exact rung of the ladder.
    fn scaled_example_file(dir: &std::path::Path, r: usize) -> String {
        let group = |prefix: &str, view: &str| -> String {
            (1..=r)
                .map(|i| format!("{view}({prefix}{i})."))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let text = format!(
            "source S1 {{\n view: V1(x) <- R(x)\n completeness: 1/2\n soundness: 1/2\n extension: {} {}\n}}\nsource S2 {{\n view: V2(x) <- R(x)\n completeness: 1/2\n soundness: 1/2\n extension: {} {}\n}}\n",
            group("a", "V1"),
            group("b", "V1"),
            group("b", "V2"),
            group("c", "V2"),
        );
        write_file(dir, "scaled.pscds", &text)
    }

    #[test]
    fn governance_flags_are_accepted_on_small_instances() {
        let dir = tmpdir("gov-ok");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&[
            "check",
            &file,
            "--timeout-ms",
            "60000",
            "--max-steps",
            "10000000",
        ]))
        .unwrap();
        assert!(out.contains("CONSISTENT"));
        let out = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--max-steps",
            "10000000",
        ]))
        .unwrap();
        assert!(
            out.contains("|poss(S)| = 7"),
            "generous budgets stay exact: {out}"
        );
        let out = run(&args(&["consensus", &file, "--max-steps", "10000000"])).unwrap();
        assert!(out.contains("fully consistent"));
        // Bad flag values are usage errors.
        assert!(matches!(
            run(&args(&["check", &file, "--timeout-ms", "soon"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["check", &file, "--max-steps"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn budget_heavy_dfs_is_planned_onto_the_dp() {
        let dir = tmpdir("gov-dp-plan");
        // ~7^8 feasible vectors: the DFS would burn through 100k steps,
        // but the DP's expansion collapses the search to eight residual
        // states, predicts the DFS's 9.6M steps and answers exactly
        // without starting the DFS.
        let file = wide_slack_file(&dir, 8, 9);
        let out = run(&args(&["confidence", &file, "--max-steps", "100000"])).unwrap();
        let banner = out.lines().next().unwrap_or_default();
        assert!(
            banner.starts_with("engine: dp — the plan predicted"),
            "{out}"
        );
        assert!(!banner.contains("exceeded the budget"), "{out}");
        assert!(out.contains("|poss(S)|"), "exact result: {out}");
        assert!(out.contains("R(x0_0)"), "{out}");
    }

    #[test]
    fn exhausted_budget_without_approx_is_a_budget_error() {
        let dir = tmpdir("gov-budget");
        let file = scaled_example_file(&dir, 64);
        let err = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "64",
            "--max-steps",
            "10000",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Budget(_)), "got {err:?}");
        assert_eq!(err.exit_code(), 3);
        let rendered = err.to_string();
        assert!(rendered.contains("budget exceeded"), "{rendered}");
        assert!(
            rendered.contains("--approx"),
            "the hint names the escape hatch: {rendered}"
        );
    }

    /// Serializes the tests that touch (or could observe) the process-wide
    /// cancellation flag: long-running analyses would otherwise see a flag
    /// tripped by a concurrently running test.
    static CANCEL_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn exhausted_budget_with_approx_degrades_to_sampler() {
        let _guard = CANCEL_GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = tmpdir("gov-approx");
        // 30k steps: the DFS (~210k+ vectors) and the DP (~100k+ nodes)
        // both trip, while the sampler (one tick per sweep, 21k sweeps)
        // finishes under its renewed allowance.
        let file = scaled_example_file(&dir, 64);
        let out = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "64",
            "--timeout-ms",
            "60000",
            "--max-steps",
            "30000",
            "--approx",
        ]))
        .unwrap();
        assert!(
            out.contains("sampled"),
            "sampled output must be labelled: {out}"
        );
        assert!(out.contains("chain diagnostics"), "{out}");
        assert!(out.contains("R(a1)"), "{out}");
    }

    #[test]
    fn exit_codes_cover_the_protocol() {
        assert_eq!(run(&[]).unwrap_err().exit_code(), 1);
        assert_eq!(
            run(&args(&["check", "/nonexistent/nope.pscds"]))
                .unwrap_err()
                .exit_code(),
            2
        );
        let dir = tmpdir("gov-exit");
        // Analysis error: confidence needs an identity-view collection.
        let join = "source J {\n view: V(x) <- R(x, y), S(y)\n completeness: 1\n soundness: 1\n extension: V(a).\n}\n";
        let file = write_file(&dir, "join.pscds", join);
        assert_eq!(
            run(&args(&["confidence", &file])).unwrap_err().exit_code(),
            2
        );
    }

    #[test]
    fn tripped_cancel_flag_aborts_with_a_budget_error() {
        let _guard = CANCEL_GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = tmpdir("gov-cancel");
        // Both exact rungs run past CHECK_INTERVAL ticks on this family,
        // so each observes the tripped flag at its first slow-path check
        // — exactly what the SIGINT handler triggers.
        let file = scaled_example_file(&dir, 64);
        arm_cancellation().store(true, Ordering::Relaxed);
        let err = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "64",
            "--timeout-ms",
            "60000",
        ]))
        .unwrap_err();
        arm_cancellation().store(false, Ordering::Relaxed);
        assert!(matches!(err, CliError::Budget(_)), "got {err:?}");
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn usage_banner_documents_governance() {
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("--timeout-ms"));
        assert!(help.contains("--max-steps"));
        assert!(help.contains("--threads"));
        assert!(help.contains("--approx"));
        assert!(help.contains("--engine"));
        assert!(help.contains("EXIT CODES"));
    }

    #[test]
    fn threads_flag_keeps_output_bit_identical() {
        let dir = tmpdir("threads");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        for command in [
            vec!["check", file.as_str()],
            vec!["consensus", &file],
            vec!["confidence", &file, "--padding", "1"],
            vec![
                "answers",
                &file,
                "--query",
                "Ans(x) <- R(x)",
                "--domain",
                "a,b,c",
            ],
        ] {
            let serial = run(&args(&[command.as_slice(), &["--threads", "1"]].concat())).unwrap();
            for threads in ["2", "8", "0"] {
                let par = run(&args(
                    &[command.as_slice(), &["--threads", threads]].concat(),
                ))
                .unwrap();
                assert_eq!(par, serial, "{} --threads {threads}", command[0]);
            }
        }
    }

    #[test]
    fn engine_flag_exact_engines_agree() {
        let dir = tmpdir("engine");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let auto = run(&args(&["confidence", &file, "--padding", "1"])).unwrap();
        for engine in ["signature", "dp"] {
            let out = run(&args(&[
                "confidence",
                &file,
                "--padding",
                "1",
                "--engine",
                engine,
            ]))
            .unwrap();
            assert!(out.starts_with(&format!("engine: {engine}")), "{out}");
            // Same table as the default (auto resolves to the exact DFS
            // here), modulo the engine banner.
            assert!(
                out.ends_with(&auto),
                "{engine} diverged:\n{out}\nvs\n{auto}"
            );
        }
        // The 2^N oracle agrees on the count and every confidence value.
        let oracle = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "exact",
        ]))
        .unwrap();
        assert!(oracle.contains("possible-world oracle over 4 constants"));
        assert!(oracle.contains("|poss(S)| = 7"), "{oracle}");
        assert!(oracle.contains("R(b)  6/7"), "{oracle}");
        assert!(oracle.contains("unlisted domain facts: 2/7"), "{oracle}");
    }

    #[test]
    fn engine_flag_circuit_matches_dp_with_compile_stats() {
        let dir = tmpdir("engine-circuit");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let dp = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "dp",
        ]))
        .unwrap();
        let circuit = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "circuit",
        ]))
        .unwrap();
        assert!(
            circuit.starts_with("engine: circuit (exact, padding 1)"),
            "{circuit}"
        );
        assert!(circuit.contains("compile stats:"), "{circuit}");
        assert!(circuit.contains("exact residual states"), "{circuit}");
        // Same confidence table as the DP, modulo the banner lines.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("engine:") && !l.starts_with("compile stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&circuit), strip(&dp), "{circuit}\nvs\n{dp}");
        // The compile-stats line is deterministic: a second run is
        // byte-identical.
        let again = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "circuit",
        ]))
        .unwrap();
        assert_eq!(circuit, again);
        // Circuit-size counters ride the ordinary metrics plumbing.
        let metrics = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "circuit",
            "--metrics",
        ]))
        .unwrap();
        assert!(metrics.contains("  circuit.nodes "), "{metrics}");
        assert!(metrics.contains("  circuit.edges "), "{metrics}");
    }

    #[test]
    fn engine_flag_sampled_is_labelled() {
        let dir = tmpdir("engine-sampled");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "sampled",
        ]))
        .unwrap();
        assert!(out.starts_with("engine: sampled"), "{out}");
        assert!(out.contains("chain diagnostics"), "{out}");
    }

    #[test]
    fn engine_flag_rejects_garbage() {
        assert!(matches!(
            run(&args(&["confidence", "a", "--engine", "quantum"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["confidence", "a", "--engine"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        assert!(matches!(
            run(&args(&["check", "a", "--threads", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["check", "a", "--threads"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_flag_appends_counter_totals() {
        let dir = tmpdir("metrics");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let plain = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "dp",
        ]))
        .unwrap();
        assert!(!plain.contains("metrics:"), "{plain}");
        let out = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "dp",
            "--metrics",
        ]))
        .unwrap();
        assert!(out.starts_with("engine: dp"), "{out}");
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("  budget.ticks "), "{out}");
        assert!(out.contains("  chunks.completed "), "{out}");
        assert!(out.contains("  dp.cache_misses "), "{out}");
        // The confidence table itself must be unaffected by instrumentation.
        assert_eq!(
            out.split("metrics:").next().unwrap().trim_end(),
            plain.trim_end()
        );
    }

    #[test]
    fn trace_out_writes_parseable_jsonl() {
        let dir = tmpdir("trace-out");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let trace = dir.join("trace.jsonl");
        let trace_path = trace.to_string_lossy().into_owned();
        let out = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "dp",
            "--trace-out",
            &trace_path,
        ]))
        .unwrap();
        assert!(out.starts_with("engine: dp"), "{out}");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(!text.trim().is_empty(), "trace must not be empty");
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        assert_eq!(
            lines.next(),
            Some("{\"pscds_trace\":1}"),
            "traces must lead with the schema header"
        );
        for line in lines {
            assert!(line.starts_with("{\"type\":\""), "bad trace line: {line}");
            assert!(line.ends_with('}'), "bad trace line: {line}");
        }
        assert!(text.contains("\"name\":\"dp.run\""), "{text}");
        assert!(text.contains("\"type\":\"counter\""), "{text}");
        assert!(text.contains("\"type\":\"histogram\""), "{text}");
        assert!(text.contains("\"self_steps\":"), "{text}");
    }

    #[test]
    fn profile_appends_the_step_attribution_table() {
        let dir = tmpdir("profile");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let out = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--engine",
            "dp",
            "--profile",
        ]))
        .unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("dp.run"), "{out}");
        assert!(out.contains("dp.level"), "{out}");
        // The attribution invariant is printed and must hold: span
        // self-steps sum exactly to the budget.ticks counter.
        assert!(out.contains("attributed steps:"), "{out}");
        let line = out
            .lines()
            .find(|l| l.contains("attributed steps:"))
            .unwrap();
        let nums: Vec<&str> = line
            .split_whitespace()
            .filter(|w| w.chars().all(|c| c.is_ascii_digit()))
            .collect();
        assert_eq!(nums.len(), 2, "{line}");
        assert_eq!(nums[0], nums[1], "{line}");
    }

    #[test]
    fn consensus_engine_dp_matches_default_report() {
        let dir = tmpdir("consensus-dp");
        let bad = "source A {\n view: V1(x) <- R(x)\n completeness: 1\n soundness: 1\n extension: V1(a).\n}\nsource B {\n view: V2(x) <- R(x)\n completeness: 1\n soundness: 1\n extension: V2(b).\n}\n";
        let file = write_file(&dir, "c.pscds", bad);
        let default_out = run(&args(&["consensus", &file])).unwrap();
        let dp_out = run(&args(&["consensus", &file, "--engine", "dp"])).unwrap();
        let (banner, rest) = dp_out.split_once('\n').expect("banner line");
        assert!(banner.starts_with("engine: dp —"), "{dp_out}");
        assert_eq!(
            rest, default_out,
            "dp consensus must match the default report"
        );
        assert!(matches!(
            run(&args(&["consensus", &file, "--engine", "signature"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn pscds_trace_env_enables_the_session() {
        let dir = tmpdir("trace-env");
        let trace = dir.join("env-trace.jsonl");
        let opts = parse_options(&[]).unwrap();
        std::env::set_var("PSCDS_TRACE", trace.to_string_lossy().into_owned());
        let session = obs_session_from(&opts).unwrap();
        std::env::remove_var("PSCDS_TRACE");
        assert!(session.is_enabled());
        assert!(!obs_session_from(&opts).unwrap().is_enabled());
    }

    #[test]
    fn fault_flags_rejected_outside_confidence() {
        for cmd in ["check", "consensus", "info"] {
            let err = run(&args(&[cmd, "x.pscds", "--partial"])).unwrap_err();
            let CliError::Usage(msg) = err else {
                panic!("expected usage error for {cmd} --partial");
            };
            assert!(msg.contains("--partial"), "{msg}");
        }
        let err = run(&args(&["check", "x.pscds", "--fault-plan", "p.txt"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn fault_flags_require_engine_auto() {
        let dir = tmpdir("fault-engine");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let err = run(&args(&["confidence", &file, "--partial", "--engine", "dp"])).unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected usage error");
        };
        assert!(msg.contains("--engine auto"), "{msg}");
    }

    #[test]
    fn deltas_replay_matches_plain_recompute_of_final_state() {
        let dir = tmpdir("deltas");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let stream = write_file(
            &dir,
            "s.deltas",
            "batch {\n  source S1 {\n    insert: V1(c).\n  }\n}\n\
             batch {\n  source S2 {\n    delete: V2(c).\n  }\n}\n",
        );
        let (out, status) = run_with_status(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--deltas",
            &stream,
            "--retries",
            "1",
        ]))
        .unwrap();
        assert_eq!(status, 0);
        assert!(
            out.contains("delta replay: initial epoch + 2 batch(es)"),
            "{out}"
        );
        assert!(out.contains("epoch 0 (0 op(s)"), "{out}");
        assert!(out.contains("epoch 2 (1 op(s)"), "{out}");
        assert!(
            out.contains("delta maintenance: 3 epoch(s), 2 op(s)"),
            "{out}"
        );
        // The final table must be byte-identical to a from-scratch run on
        // the accumulated collection.
        let final_text = "source S1 {\n view: V1(x) <- R(x)\n completeness: 1/2\n soundness: 1/2\n extension: V1(a). V1(b). V1(c).\n}\nsource S2 {\n view: V2(x) <- R(x)\n completeness: 1/2\n soundness: 1/2\n extension: V2(b).\n}\n";
        let final_file = write_file(&dir, "final.pscds", final_text);
        let plain = run(&args(&["confidence", &final_file, "--padding", "1"])).unwrap();
        let table = plain
            .split("tuple confidences (descending):")
            .nth(1)
            .expect("plain run renders the table");
        assert!(
            out.contains(table),
            "replay table diverged:\n{out}\nvs\n{plain}"
        );
    }

    #[test]
    fn deltas_replay_renders_the_final_padding() {
        // A fresh d grows the union inside the universe fixed at the
        // start, so the padding falls from 2 to 1: the final table is the
        // plain run's at padding 1, padding line included.
        let dir = tmpdir("deltas-padding");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let batch = "batch {\n  source S1 {\n    insert: V1(d).\n  }\n}\n";
        let stream = write_file(&dir, "s.deltas", batch);
        let replay = ["confidence", &file, "--padding", "2", "--deltas", &stream];
        let out = run(&args(&replay)).unwrap();
        let grown = EXAMPLE.replace("V1(b).", "V1(b). V1(d).");
        let final_file = write_file(&dir, "final.pscds", &grown);
        let plain = run(&args(&["confidence", &final_file, "--padding", "1"])).unwrap();
        let (_, table) = plain.split_once("|poss(S)|").expect("a table");
        assert!(
            out.contains(table),
            "replay table diverged:\n{out}\nvs\n{plain}"
        );
    }

    #[test]
    fn deltas_flag_composes_with_fault_plan_and_trace() {
        let dir = tmpdir("deltas-faults");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let stream = write_file(
            &dir,
            "s.deltas",
            "batch {\n  source S1 {\n    insert: V1(c).\n  }\n}\n",
        );
        // A fail rate of 1/2 with retries forces recovery-path fetches but
        // still converges; the trace file must record the delta counters.
        let plan = write_file(&dir, "p.fault", "seed: 7\nsource S1 { fail: 1/2 }\n");
        let trace = dir.join("deltas.jsonl");
        let (out, status) = run_with_status(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--deltas",
            &stream,
            "--fault-plan",
            &plan,
            "--retries",
            "4",
            "--trace-out",
            &trace.to_string_lossy(),
        ]))
        .unwrap();
        assert_eq!(status, 0);
        assert!(out.contains("delta maintenance: 2 epoch(s)"), "{out}");
        let logged = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(logged.contains("delta.batches_applied"), "{logged}");
    }

    #[test]
    fn deltas_flag_rejects_partial_and_non_auto_engines() {
        let dir = tmpdir("deltas-usage");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let stream = write_file(&dir, "s.deltas", "batch {\n}\n");
        let err = run(&args(&[
            "confidence",
            &file,
            "--deltas",
            &stream,
            "--partial",
        ]))
        .unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected usage error for --deltas --partial");
        };
        assert!(msg.contains("--partial"), "{msg}");
        let err = run(&args(&[
            "confidence",
            &file,
            "--deltas",
            &stream,
            "--engine",
            "dp",
        ]))
        .unwrap_err();
        let CliError::Usage(msg) = err else {
            panic!("expected usage error for --deltas --engine dp");
        };
        assert!(msg.contains("--engine auto"), "{msg}");
        let err = run(&args(&["check", &file, "--deltas", &stream])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn fault_free_robustness_path_matches_plain_auto() {
        let dir = tmpdir("fault-free");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let (plain, status) =
            run_with_status(&args(&["confidence", &file, "--padding", "1"])).unwrap();
        assert_eq!(status, 0);
        // --retries routes through the recovery stack, but with no fault
        // plan every source delivers: same table, plus the access banner.
        let (out, status) = run_with_status(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--retries",
            "2",
        ]))
        .unwrap();
        assert_eq!(status, 0);
        assert!(out.starts_with("source access:"), "{out}");
        assert!(
            out.contains("S1           available, 1 attempt(s)"),
            "{out}"
        );
        assert!(
            out.contains("S2           available, 1 attempt(s)"),
            "{out}"
        );
        let table = out
            .split_once("attempt(s)\n")
            .map(|(_, rest)| rest.split_once("attempt(s)\n").map_or(rest, |(_, r)| r))
            .unwrap();
        assert_eq!(table.trim_end(), plain.trim_end(), "{out}");
    }

    #[test]
    fn transient_faults_recover_to_the_point_answer() {
        let dir = tmpdir("fault-transient");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        // Both sources fail their first attempt, then recover on retry.
        let plan = write_file(&dir, "plan.txt", "seed: 7\ndefault { down: 0..1 }\n");
        let (out, status) = run_with_status(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--fault-plan",
            &plan,
        ]))
        .unwrap();
        assert_eq!(status, 0, "{out}");
        assert!(
            out.contains("S1           available, 2 attempt(s)"),
            "{out}"
        );
        assert!(out.contains("|poss(S)| = 7"), "{out}");
        assert!(out.contains("R(b)  6/7"), "{out}");
    }

    #[test]
    fn hard_outage_without_partial_exits_with_analysis_error() {
        let dir = tmpdir("fault-outage");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let plan = write_file(&dir, "plan.txt", "seed: 7\nsource S2 { down: 0..100 }\n");
        let err = run(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--fault-plan",
            &plan,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("S2"), "{err}");
        assert!(err.to_string().contains("unavailable"), "{err}");
    }

    #[test]
    fn partial_answers_render_intervals_and_exit_4() {
        let dir = tmpdir("fault-partial");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let plan = write_file(&dir, "plan.txt", "seed: 7\nsource S2 { down: 0..100 }\n");
        let (out, status) = run_with_status(&args(&[
            "confidence",
            &file,
            "--padding",
            "1",
            "--fault-plan",
            &plan,
            "--partial",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(status, EXIT_PARTIAL, "{out}");
        assert!(
            out.starts_with("engine: partial (1 sources unavailable)"),
            "{out}"
        );
        assert!(
            out.contains("S2           UNAVAILABLE, 3 attempt(s)"),
            "{out}"
        );
        assert!(out.contains("breaker.trips 1"), "{out}");
        assert!(out.contains("unavailable: S2"), "{out}");
        assert!(
            out.contains("availability scenarios: 2 examined, 2 consistent"),
            "{out}"
        );
        // Every interval line round-trips through textfmt and contains
        // the fault-free point (6/7 for b at padding 1).
        assert!(out.contains("point 6/7"), "{out}");
        for line in out.lines().filter(|l| l.trim_start().starts_with("R(")) {
            let bracket = &line[line.find('[').unwrap()..=line.find(']').unwrap()];
            let interval = pscds_core::textfmt::parse_interval(bracket).unwrap();
            assert!(interval.lo <= interval.hi);
        }
        // The observable containment invariant.
        let tuples = counter_value(&out, "interval.tuples");
        let contained = counter_value(&out, "interval.point_contained");
        assert!(tuples > 0, "{out}");
        assert_eq!(tuples, contained, "{out}");
    }

    /// Extracts `  <name> <value>` from the `--metrics` tail.
    fn counter_value(out: &str, name: &str) -> u64 {
        out.lines()
            .find_map(|l| {
                let l = l.trim();
                l.strip_prefix(name)
                    .and_then(|rest| rest.trim().parse().ok())
            })
            .unwrap_or_else(|| panic!("counter {name} missing in {out}"))
    }

    #[test]
    fn fault_replay_is_thread_count_invariant() {
        let dir = tmpdir("fault-replay");
        let file = write_file(&dir, "c.pscds", EXAMPLE);
        let plan = write_file(
            &dir,
            "plan.txt",
            "seed: 99\ndefault { fail: 1/3 }\nsource S2 { down: 0..100 }\n",
        );
        let mut outputs = Vec::new();
        for threads in ["1", "2", "8"] {
            outputs.push(
                run_with_status(&args(&[
                    "confidence",
                    &file,
                    "--padding",
                    "1",
                    "--fault-plan",
                    &plan,
                    "--partial",
                    "--metrics",
                    "--threads",
                    threads,
                ]))
                .unwrap(),
            );
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        assert_eq!(outputs[0].1, EXIT_PARTIAL);
    }
}
