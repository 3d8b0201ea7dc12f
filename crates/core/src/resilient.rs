//! Graceful degradation: exact engines under a budget, cheaper fallbacks
//! when the budget trips.
//!
//! The exact engines in this crate are the ground truth, but CONSISTENCY
//! is NP-complete and exact confidence counting is #P-hard, so on a large
//! instance they may not finish inside any reasonable allotment. This
//! module implements the *resilient* front ends: run the exact engine
//! under the caller's [`Budget`]; if it returns
//! [`CoreError::BudgetExceeded`], fall back to a cheaper engine under a
//! [renewed](Budget::renewed) budget (same allotment, fresh clock, shared
//! cancellation flag). Every result is tagged with the [`Engine`] that
//! produced it, so a caller — or a reader of the CLI output — can always
//! tell an exact answer from an approximation.
//!
//! * [`check_resilient`] — consistency: exhaustive possible-world search,
//!   falling back to the signature-decomposition solver for identity-view
//!   collections (still exact, but exponential only in the source count).
//! * [`confidence_resilient`] — confidence, a ladder of engines: the
//!   planned exact rung, which expands the memoized residual-state DP's
//!   levels once and runs whichever exact engine — the signature DFS or
//!   the DP's evaluation — that expansion predicts is cheaper; then the
//!   Metropolis sampler (an *estimate*; opt-in via `approx`).
//!
//! Each ladder is one entry taking the budget, the [`ParallelConfig`],
//! the [`LadderPolicy`] and the [`ObsSession`] as plain parameters. Every
//! tripped rung records one `budget.trips` increment and one
//! `budget.trip` event: the rung's engine records it when it takes the
//! session, the ladder otherwise.

use crate::collection::IdentityCollection;
use crate::confidence::circuit::{analyze_circuit_budgeted, compile_circuit, CircuitConfig};
use crate::confidence::counting::ConfidenceAnalysis;
use crate::confidence::dp::{count_dp_observed, plan_exact, DpConfig, Planned};
use crate::confidence::intervals::{count_intervals_observed, IntervalAnalysis};
use crate::confidence::sampling::{sample_confidences_budgeted, SampledConfidence, SamplerConfig};
use crate::confidence::signature::SignatureAnalysis;
use crate::consistency::exhaustive::find_witness_parallel;
use crate::consistency::identity::{decide_identity_parallel, IdentityConsistency};
use crate::delta::{analyze_incremental_budgeted, DeltaSession};
use crate::error::CoreError;
use crate::govern::{observe_phase, record_trip, Budget, Engine, Phase};
use crate::partition::ParallelConfig;
use crate::source::{SourceAccess, SourceProvider};
use crate::SourceCollection;
use pscds_numeric::Rational;
use pscds_obs::{names, MetricSet, ObsSession};
use pscds_relational::{Database, Value};

/// One rung of the resilient *consistency* ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckRung {
    /// The exhaustive Lemma-3.1-bounded witness search ([`Engine::Exact`]).
    Exhaustive,
    /// The signature-decomposition solver, applicable to identity-view
    /// collections only ([`Engine::Signature`]).
    Signature,
}

impl CheckRung {
    /// The [`Engine`] provenance this rung reports.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match self {
            CheckRung::Exhaustive => Engine::Exact,
            CheckRung::Signature => Engine::Signature,
        }
    }
}

/// One rung of the resilient *confidence* ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfidenceRung {
    /// The exact signature-counting DFS ([`Engine::Exact`]).
    ExactDfs,
    /// The memoized residual-state DP — still exact ([`Engine::Dp`]).
    Dp,
    /// The compiled shared-node circuit — still exact; the DP recursion
    /// materialized once and answered by a linear traversal
    /// ([`Engine::Circuit`]). Not on the default ladder: opt in via a
    /// custom policy or the CLI's `--engine circuit`.
    Circuit,
    /// The Metropolis sampler — an estimate, gated behind the `approx`
    /// opt-in ([`Engine::Sampled`]).
    Sampled,
    /// The planned exact rung: one expansion sweep of the DP predicts the
    /// DFS's steps exactly and the DP's folds, then the DFS runs when it
    /// is no dearer and fits the remaining step allowance, and the DP
    /// evaluates the levels already expanded otherwise (see
    /// `confidence::dp`). A DFS that trips anyway (deadline,
    /// cancellation) degrades to a fresh DP under a renewed budget. It
    /// answers as [`Engine::Exact`] or [`Engine::Dp`]; when it trips, the
    /// DP tripped.
    Planned,
}

impl ConfidenceRung {
    /// The [`Engine`] provenance this rung reports.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match self {
            ConfidenceRung::ExactDfs => Engine::Exact,
            ConfidenceRung::Dp => Engine::Dp,
            ConfidenceRung::Circuit => Engine::Circuit,
            ConfidenceRung::Sampled => Engine::Sampled {
                samples: SamplerConfig::default().samples,
            },
            ConfidenceRung::Planned => Engine::Dp,
        }
    }
}

/// The rung order of the degradation ladders — pure data, no behavior.
///
/// The default policy runs the planned exact rung, then the sampler.
/// Custom policies let callers drop, reorder, or truncate rungs — e.g.
/// the fixed `[ExactDfs, Dp, Sampled]` order, whose DP rescues a tripped
/// DFS — without touching the ladder call sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LadderPolicy {
    /// Consistency rungs, tried in order.
    pub check: Vec<CheckRung>,
    /// Confidence rungs, tried in order ([`ConfidenceRung::Sampled`]
    /// rungs are skipped unless the caller opted into approximation).
    pub confidence: Vec<ConfidenceRung>,
}

impl Default for LadderPolicy {
    fn default() -> Self {
        LadderPolicy {
            check: vec![CheckRung::Exhaustive, CheckRung::Signature],
            confidence: vec![ConfidenceRung::Planned, ConfidenceRung::Sampled],
        }
    }
}

/// Records one rung-to-rung drop of a degradation ladder: the
/// `ladder.degradations` counter plus a `ladder.degrade` event carrying
/// the [`Engine`] provenance of both rungs.
fn record_degradation(obs: &mut ObsSession, at_ns: u64, from: Engine, to: Engine) {
    obs.counter_add(names::LADDER_DEGRADATIONS, 1);
    let from = from.to_string();
    let to = to.to_string();
    obs.event(
        names::EVENT_LADDER_DEGRADE,
        at_ns,
        &[("from", from.as_str()), ("to", to.as_str())],
    );
}

/// Outcome of a resilient consistency check.
#[derive(Debug)]
pub struct ResilientCheck {
    /// Which engine produced the verdict.
    pub engine: Engine,
    /// Whether `poss(S)` is non-empty (over the searched domain).
    pub consistent: bool,
    /// A witness world, when one was found.
    pub witness: Option<Database>,
}

/// Decides consistency under a budget, degrading gracefully.
///
/// Strategy: run the rungs of `policy.check` in order — by default the
/// exhaustive Lemma-3.1-bounded witness search under `budget`
/// ([`Engine::Exact`]), then, if the budget trips *and* the collection
/// is identity-view, the signature-decomposition solver under a renewed
/// budget ([`Engine::Signature`] — still an exact answer, reached by a
/// cheaper route). Otherwise the budget error propagates. Both engines
/// run their work-partitioned variants across `parallel.threads()`
/// workers, bit-identical for every thread count.
///
/// Note the signature fallback decides consistency over the *identity
/// model's* domain (extension tuples plus padding), which for identity
/// collections coincides with the exhaustive search over `domain` when
/// `domain` covers the extension constants.
///
/// The ladder's budget trips and degradation decisions (with [`Engine`]
/// provenance) are recorded into `obs` as counters and events under a
/// `resilient.check` span timed on the **budget clock**
/// ([`Budget::elapsed_ns`]). A [disabled](ObsSession::disabled) session
/// makes every hook a no-op.
///
/// # Errors
/// Evaluation errors from either engine, or [`CoreError::BudgetExceeded`]
/// when the budget trips and no fallback applies (or the fallback trips
/// too); an empty `policy.check` is rejected as [`CoreError::BadDomain`].
pub fn check_resilient(
    collection: &SourceCollection,
    domain: &[Value],
    budget: &Budget,
    parallel: &ParallelConfig,
    policy: &LadderPolicy,
    obs: &mut ObsSession,
) -> Result<ResilientCheck, CoreError> {
    obs.span_open(names::SPAN_RESILIENT_CHECK, budget.elapsed_ns());
    obs.span_attr("sources", &collection.len().to_string());
    let result = check_ladder(collection, domain, budget, parallel, policy, obs);
    obs.span_close(budget.elapsed_ns());
    result
}

/// The engine ladder of [`check_resilient`]: runs each rung of
/// `policy.check` in order. The first rung runs on the caller's budget;
/// every later rung runs under a [renewed](Budget::renewed) slice. Every
/// rung's budget trip is recorded; a degradation event follows only when
/// a later, *applicable* rung exists to fall back to — otherwise the trip
/// propagates exactly as the rung raised it.
fn check_ladder(
    collection: &SourceCollection,
    domain: &[Value],
    budget: &Budget,
    parallel: &ParallelConfig,
    policy: &LadderPolicy,
    obs: &mut ObsSession,
) -> Result<ResilientCheck, CoreError> {
    let rungs = &policy.check;
    if rungs.is_empty() {
        return Err(CoreError::BadDomain {
            message: "ladder policy has no consistency rungs".into(),
        });
    }
    // Rungs that cannot run on this collection (the signature solver
    // needs identity views) never participate: they neither run nor
    // appear in degradation provenance.
    let identity = collection.as_identity().ok();
    let applicable: Vec<CheckRung> = rungs
        .iter()
        .copied()
        .filter(|r| match r {
            CheckRung::Exhaustive => true,
            CheckRung::Signature => identity.is_some(),
        })
        .collect();

    let mut ran_any = false;
    for (i, rung) in rungs.iter().enumerate() {
        let runnable = match rung {
            CheckRung::Exhaustive => true,
            CheckRung::Signature => identity.is_some(),
        };
        if !runnable {
            continue;
        }
        // The first rung that actually runs gets the caller's budget;
        // every later rung gets a renewed slice (same allotment, fresh
        // clock, shared cancellation flag).
        let renewed_budget;
        let rung_budget: &Budget = if ran_any {
            renewed_budget = budget.renewed();
            &renewed_budget
        } else {
            budget
        };
        ran_any = true;
        // Each attempted rung gets its own span on the *ladder's* clock
        // (renewed slices restart theirs), so the trace shows the
        // degradation sequence as ordered siblings.
        obs.span_open(names::SPAN_LADDER_RUNG, budget.elapsed_ns());
        let engine_name = rung.engine().to_string();
        obs.span_attr("engine", &engine_name);
        let outcome = match rung {
            CheckRung::Exhaustive => {
                find_witness_parallel(collection, domain, None, rung_budget, parallel).map(
                    |witness| ResilientCheck {
                        engine: Engine::Exact,
                        consistent: witness.is_some(),
                        witness,
                    },
                )
            }
            CheckRung::Signature => {
                // lint-allow(no-panic): runnable established identity.is_some() above
                let identity = identity.as_ref().expect("signature rung needs identity");
                padding_of(identity, domain).and_then(|padding| {
                    decide_identity_parallel(identity, padding, rung_budget, parallel).map(
                        |verdict| match verdict {
                            IdentityConsistency::Consistent { witness, .. } => ResilientCheck {
                                engine: Engine::Signature,
                                consistent: true,
                                witness: Some(witness),
                            },
                            IdentityConsistency::Inconsistent => ResilientCheck {
                                engine: Engine::Signature,
                                consistent: false,
                                witness: None,
                            },
                        },
                    )
                })
            }
        };
        obs.span_close(budget.elapsed_ns());
        // Neither check engine takes the session, so the ladder records
        // every trip, the last rung's included.
        record_trip(obs, budget.elapsed_ns(), &outcome);
        match outcome {
            Ok(result) => return Ok(result),
            Err(e @ CoreError::BudgetExceeded { .. }) => {
                if i + 1 == rungs.len() {
                    return Err(e);
                }
                match next_applicable(&applicable, rung) {
                    Some(next_rung) => {
                        record_degradation(
                            obs,
                            budget.elapsed_ns(),
                            rung.engine(),
                            next_rung.engine(),
                        );
                    }
                    None => return Err(e),
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(CoreError::BadDomain {
        message: "no applicable consistency rung for this collection".into(),
    })
}

/// The first rung of `applicable` that comes strictly after `current` in
/// the applicable order.
fn next_applicable<R: PartialEq + Copy>(applicable: &[R], current: &R) -> Option<R> {
    let pos = applicable.iter().position(|r| r == current)?;
    applicable.get(pos + 1).copied()
}

/// Number of extension-free facts the domain contributes for an
/// identity-view collection: `|domain|^arity − |∪ extensions|`.
fn padding_of(identity: &IdentityCollection, domain: &[Value]) -> Result<u64, CoreError> {
    let padding = SignatureAnalysis::padding_for_domain(identity, domain.len() as u64)?;
    Ok(padding)
}

/// Outcome of a resilient confidence analysis: either the exact counter's
/// result or a sampled estimate.
#[derive(Debug)]
pub enum ResilientConfidence {
    /// The exact signature counter finished within budget.
    Exact(ConfidenceAnalysis),
    /// The DFS counter ran out of budget; the memoized residual-state DP
    /// finished under a renewed one. Still an exact result — only the
    /// route differs.
    Dp(ConfidenceAnalysis),
    /// The planned rung predicted the memoized residual-state DP cheaper
    /// than the DFS (or the DFS past the step allowance), and the DP
    /// evaluated its expansion. Still an exact result.
    PlannedDp(ConfidenceAnalysis),
    /// The compiled circuit answered: the DP recursion materialized once
    /// as a shared-node arithmetic circuit and traversed. Still an exact
    /// result — only the route differs.
    Circuit(ConfidenceAnalysis),
    /// Both exact engines ran out of budget; the Metropolis sampler
    /// produced an estimate instead.
    Sampled {
        /// The signature decomposition behind the estimate (for tuple
        /// lookups).
        analysis: SignatureAnalysis,
        /// The estimate with its chain diagnostics.
        estimate: SampledConfidence,
        /// The sampler configuration used.
        config: SamplerConfig,
    },
}

impl ResilientConfidence {
    /// Which engine produced this result.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match self {
            ResilientConfidence::Exact(_) => Engine::Exact,
            ResilientConfidence::Dp(_) | ResilientConfidence::PlannedDp(_) => Engine::Dp,
            ResilientConfidence::Circuit(_) => Engine::Circuit,
            ResilientConfidence::Sampled { config, .. } => Engine::Sampled {
                samples: config.samples,
            },
        }
    }

    /// Confidence of a tuple as a float (exact results are converted; use
    /// [`ResilientConfidence::exact`] for the rational form).
    ///
    /// # Errors
    /// Inconsistent collections and out-of-domain tuples.
    pub fn confidence_of_tuple(
        &self,
        collection: &IdentityCollection,
        tuple: &[Value],
    ) -> Result<f64, CoreError> {
        match self {
            ResilientConfidence::Exact(a)
            | ResilientConfidence::Dp(a)
            | ResilientConfidence::PlannedDp(a)
            | ResilientConfidence::Circuit(a) => {
                Ok(a.confidence_of_tuple(collection, tuple)?.to_f64())
            }
            ResilientConfidence::Sampled {
                analysis, estimate, ..
            } => estimate.confidence_of_tuple(analysis, collection, tuple),
        }
    }

    /// Confidence of a tuple in exact rational form, when this result came
    /// from the exact engine.
    ///
    /// # Errors
    /// As [`ConfidenceAnalysis::confidence_of_tuple`]; returns `Ok(None)`
    /// for sampled results.
    pub fn exact_confidence_of_tuple(
        &self,
        collection: &IdentityCollection,
        tuple: &[Value],
    ) -> Result<Option<Rational>, CoreError> {
        match self {
            ResilientConfidence::Exact(a)
            | ResilientConfidence::Dp(a)
            | ResilientConfidence::PlannedDp(a)
            | ResilientConfidence::Circuit(a) => {
                Ok(Some(a.confidence_of_tuple(collection, tuple)?))
            }
            ResilientConfidence::Sampled { .. } => Ok(None),
        }
    }

    /// The exact analysis, when this result came from the exact engine.
    #[must_use]
    pub fn exact(&self) -> Option<&ConfidenceAnalysis> {
        match self {
            ResilientConfidence::Exact(a)
            | ResilientConfidence::Dp(a)
            | ResilientConfidence::PlannedDp(a)
            | ResilientConfidence::Circuit(a) => Some(a),
            ResilientConfidence::Sampled { .. } => None,
        }
    }

    /// `true` iff the collection is consistent. (Both engines establish
    /// this: the sampler needs a feasible starting vector.)
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        match self {
            ResilientConfidence::Exact(a)
            | ResilientConfidence::Dp(a)
            | ResilientConfidence::PlannedDp(a)
            | ResilientConfidence::Circuit(a) => a.is_consistent(),
            // The sampler only runs after finding a feasible vector.
            ResilientConfidence::Sampled { .. } => true,
        }
    }
}

/// Computes tuple confidences under a budget, degrading gracefully.
///
/// Strategy — a ladder of engines, the rungs of `policy.confidence` in
/// order, each later rung under a [renewed](Budget::renewed) budget. By
/// default:
///
/// 1. the planned exact rung ([`ConfidenceRung::Planned`]): one
///    expansion sweep of the memoized residual-state DP predicts the
///    exact signature counter's steps ([`Engine::Exact`]) and the DP's
///    folds ([`Engine::Dp`]), and the cheaper one answers — *exact*
///    either way;
/// 2. if `approx` is set, the Metropolis sampler ([`Engine::Sampled`] —
///    an estimate, clearly tagged as such). Without `approx` the exact
///    rung's budget error propagates: approximation is opt-in.
///
/// The exact engines run their work-partitioned variants across
/// `parallel.threads()` workers (bit-identical totals for every thread
/// count); the Metropolis fallback is a single chain and stays serial.
/// Budget trips, ladder degradations (with [`Engine`] provenance), the
/// plan (a `ladder.plan` event), the DP's per-level telemetry, and the
/// sampler's acceptance-rate counters are recorded into `obs` under a
/// `resilient.confidence` span. A [disabled](ObsSession::disabled)
/// session makes every hook a no-op.
///
/// # Errors
/// [`CoreError::InconsistentCollection`] (from the sampler),
/// [`CoreError::BudgetExceeded`] when the budget trips without `approx`
/// (or the sampler trips too); a policy whose applicable rung list is
/// empty (no rungs, or only `Sampled` rungs without `approx`) is
/// rejected as [`CoreError::BadDomain`].
pub fn confidence_resilient(
    collection: &IdentityCollection,
    padding: u64,
    budget: &Budget,
    parallel: &ParallelConfig,
    approx: bool,
    policy: &LadderPolicy,
    obs: &mut ObsSession,
) -> Result<ResilientConfidence, CoreError> {
    obs.span_open(names::SPAN_RESILIENT_CONFIDENCE, budget.elapsed_ns());
    obs.span_attr("sources", &collection.sources.len().to_string());
    let result = confidence_ladder(collection, padding, budget, parallel, approx, policy, obs);
    obs.span_close(budget.elapsed_ns());
    result
}

/// The engine ladder of [`confidence_resilient`]: runs each rung of
/// `policy.confidence` in order. Approximating rungs are skipped without
/// the `approx` opt-in (approximation stays opt-in whatever the policy
/// says). The first rung runs on the caller's budget; later rungs run
/// under [renewed](Budget::renewed) slices. The DP and the planned rung
/// record their own trips (they take the session) and the circuit rung's
/// compile and traversal run under [`observe_phase`], which records
/// theirs; the ladder records the other rungs' trips. The final rung's
/// trip propagates. Each rung span's `engine` attribute names the engine
/// that answered, or the rung's own when it tripped.
fn confidence_ladder(
    collection: &IdentityCollection,
    padding: u64,
    budget: &Budget,
    parallel: &ParallelConfig,
    approx: bool,
    policy: &LadderPolicy,
    obs: &mut ObsSession,
) -> Result<ResilientConfidence, CoreError> {
    let rungs: Vec<ConfidenceRung> = policy
        .confidence
        .iter()
        .copied()
        .filter(|r| approx || *r != ConfidenceRung::Sampled)
        .collect();
    if rungs.is_empty() {
        return Err(CoreError::BadDomain {
            message: "ladder policy has no applicable confidence rungs".into(),
        });
    }
    let mut ran_any = false;
    for (i, rung) in rungs.iter().enumerate() {
        let renewed_budget;
        let rung_budget: &Budget = if ran_any {
            renewed_budget = budget.renewed();
            &renewed_budget
        } else {
            budget
        };
        ran_any = true;
        // Rung spans sit on the ladder's clock, like `check_ladder`'s.
        obs.span_open(names::SPAN_LADDER_RUNG, budget.elapsed_ns());
        let analysis = SignatureAnalysis::new(collection, padding);
        let outcome = match rung {
            ConfidenceRung::ExactDfs => ConfidenceAnalysis::from_signature_analysis_parallel(
                analysis,
                rung_budget,
                parallel,
            )
            .map(ResilientConfidence::Exact),
            ConfidenceRung::Dp => {
                // The residual-state DP, still exact, under its own time
                // slice: level spans, state counters, and any trip.
                count_dp_observed(analysis, rung_budget, parallel, &DpConfig::default(), obs)
                    .map(|(analysis, _stats)| ResilientConfidence::Dp(analysis))
            }
            ConfidenceRung::Circuit => {
                // Compile the DP recursion into a shared-node circuit,
                // then answer by a single traversal. Both phases tick the
                // same budget slice, each under its own span, step charge,
                // histogram, and trip record; the compile also reports the
                // circuit-size counters.
                observe_phase(
                    obs,
                    rung_budget,
                    Phase::CircuitCompile,
                    ("engine", "circuit"),
                    || compile_circuit(analysis, rung_budget, &CircuitConfig::default()),
                )
                .and_then(|circuit| {
                    let mut metrics = MetricSet::new();
                    circuit.stats().record_into(&mut metrics);
                    obs.merge_metrics(&metrics);
                    observe_phase(
                        obs,
                        rung_budget,
                        Phase::CircuitTraverse,
                        ("engine", "circuit"),
                        || analyze_circuit_budgeted(&circuit, rung_budget),
                    )
                    .map(ResilientConfidence::Circuit)
                })
            }
            ConfidenceRung::Planned => {
                let dp = DpConfig::default();
                plan_exact(analysis, rung_budget, parallel, &dp, obs).and_then(|planned| {
                    let analysis = match planned {
                        Planned::Dp(analysis) => {
                            return Ok(ResilientConfidence::PlannedDp(analysis))
                        }
                        Planned::Dfs(analysis) => analysis,
                    };
                    let dfs = ConfidenceAnalysis::from_signature_analysis_parallel(
                        analysis,
                        rung_budget,
                        parallel,
                    );
                    record_trip(obs, budget.elapsed_ns(), &dfs);
                    let Err(CoreError::BudgetExceeded { .. }) = dfs else {
                        return dfs.map(ResilientConfidence::Exact);
                    };
                    // Only a deadline or a cancellation trips a DFS the
                    // plan fitted to the step allowance: a fresh DP gets
                    // its own slice.
                    record_degradation(obs, budget.elapsed_ns(), Engine::Exact, Engine::Dp);
                    let analysis = SignatureAnalysis::new(collection, padding);
                    count_dp_observed(analysis, &rung_budget.renewed(), parallel, &dp, obs)
                        .map(|(analysis, _stats)| ResilientConfidence::Dp(analysis))
                })
            }
            ConfidenceRung::Sampled => {
                let config = SamplerConfig::default();
                sample_confidences_budgeted(collection, padding, &config, rung_budget).map(
                    |estimate| {
                        let mut metrics = MetricSet::new();
                        estimate.record_into(&mut metrics);
                        obs.merge_metrics(&metrics);
                        ResilientConfidence::Sampled {
                            analysis,
                            estimate,
                            config,
                        }
                    },
                )
            }
        };
        let engine = outcome
            .as_ref()
            .map_or(rung.engine(), ResilientConfidence::engine);
        obs.span_attr("engine", &engine.to_string());
        obs.span_close(budget.elapsed_ns());
        // The DP, the planned rung and the circuit phases take the
        // session and record their own trips.
        if !matches!(
            rung,
            ConfidenceRung::Dp | ConfidenceRung::Planned | ConfidenceRung::Circuit
        ) {
            record_trip(obs, budget.elapsed_ns(), &outcome);
        }
        match outcome {
            Ok(result) => return Ok(result),
            Err(CoreError::BudgetExceeded { .. }) if i + 1 < rungs.len() => {
                record_degradation(
                    obs,
                    budget.elapsed_ns(),
                    rung.engine(),
                    rungs[i + 1].engine(),
                );
            }
            Err(e) => return Err(e),
        }
    }
    // Unreachable: the final rung either returned or propagated.
    Err(CoreError::BadDomain {
        message: "confidence ladder exhausted without a final outcome".into(),
    })
}

/// Outcome of a fault-aware confidence query (see
/// [`confidence_under_faults`]).
#[derive(Debug)]
pub enum FaultAwareConfidence {
    /// Every source answered: the ordinary resilient ladder ran over the
    /// complete catalog.
    Complete {
        /// Per-source access outcomes (attempt counts, breaker verdicts).
        statuses: Vec<crate::source::SourceStatus>,
        /// The ladder's result.
        result: ResilientConfidence,
    },
    /// Some sources stayed unreachable and the caller opted into
    /// partial-availability answering: confidence brackets from the
    /// reachable subset.
    Partial {
        /// Per-source access outcomes.
        statuses: Vec<crate::source::SourceStatus>,
        /// Names of the unreachable sources, in catalog order.
        unavailable: Vec<String>,
        /// The interval analysis ([`Engine::Partial`]).
        intervals: IntervalAnalysis,
    },
}

impl FaultAwareConfidence {
    /// Which engine produced this result.
    #[must_use]
    pub fn engine(&self) -> Engine {
        match self {
            FaultAwareConfidence::Complete { result, .. } => result.engine(),
            FaultAwareConfidence::Partial { intervals, .. } => intervals.engine(),
        }
    }

    /// `true` iff this is a partial (interval) answer.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        matches!(self, FaultAwareConfidence::Partial { .. })
    }
}

/// The fault rung of the resilient front end: fetches every view
/// extension through the recovery stack ([`SourceAccess`]: retries,
/// deterministic backoff, circuit breakers), then answers with
///
/// * the ordinary confidence ladder when every source delivered,
/// * partial-availability confidence **intervals**
///   ([`crate::confidence::intervals`]) when sources stayed unreachable
///   and `partial` is set, or
/// * [`CoreError::SourceUnavailable`] when sources stayed unreachable
///   and the caller did not opt in.
///
/// The degradation to [`Engine::Partial`] is recorded like any other
/// rung drop (`ladder.degradations` + `ladder.degrade`), and the
/// interval rung reports its aggregates through the `interval.*`
/// counters — `interval.point_contained == interval.tuples` is the
/// observable containment invariant CI asserts.
///
/// # Errors
/// Catalog-shape errors from [`SourceCollection::as_identity`],
/// [`CoreError::SourceUnavailable`] as above, plus everything
/// [`confidence_resilient`] and
/// [`crate::confidence::intervals::count_intervals_observed`] raise.
#[allow(clippy::too_many_arguments)]
pub fn confidence_under_faults(
    provider: &mut dyn SourceProvider,
    access: &mut SourceAccess,
    padding: u64,
    budget: &Budget,
    config: &ParallelConfig,
    approx: bool,
    partial: bool,
    policy: &LadderPolicy,
    obs: &mut ObsSession,
) -> Result<FaultAwareConfidence, CoreError> {
    let report = access.fetch_all(provider, budget, obs)?;
    let identity = report.catalog.as_identity()?;
    if report.all_available() {
        let result = confidence_resilient(&identity, padding, budget, config, approx, policy, obs)?;
        return Ok(FaultAwareConfidence::Complete {
            statuses: report.statuses,
            result,
        });
    }
    let unavailable_idx = report.unavailable();
    if !partial {
        let first = unavailable_idx[0];
        return Err(CoreError::SourceUnavailable {
            source: report.catalog.sources()[first].name().to_owned(),
            attempts: report.statuses[first].attempts(),
        });
    }
    obs.span_open(names::SPAN_RESILIENT_PARTIAL, budget.elapsed_ns());
    obs.span_attr("sources", &report.catalog.len().to_string());
    obs.span_attr("unavailable", &unavailable_idx.len().to_string());
    record_degradation(
        obs,
        budget.elapsed_ns(),
        Engine::Exact,
        Engine::Partial {
            unavailable: unavailable_idx.len(),
        },
    );
    let interval_budget = budget.renewed();
    // The observed interval engine records its own trip (counter plus
    // event) on the renewed slice's clock.
    let result = count_intervals_observed(
        &identity,
        padding,
        &unavailable_idx,
        &interval_budget,
        config,
        obs,
    );
    let intervals = match result {
        Ok(intervals) => intervals,
        Err(e) => {
            obs.span_close(budget.elapsed_ns());
            return Err(e);
        }
    };
    let contained = intervals
        .tuples()
        .iter()
        .filter(|t| t.interval.contains(&t.point))
        .count() as u64;
    obs.counter_add(names::INTERVAL_TUPLES, intervals.tuples().len() as u64);
    obs.counter_add(names::INTERVAL_POINT_CONTAINED, contained);
    obs.counter_add(names::INTERVAL_WIDTH_PPM, intervals.total_width_ppm());
    obs.span_close(budget.elapsed_ns());
    let unavailable = report.unavailable_names();
    Ok(FaultAwareConfidence::Partial {
        statuses: report.statuses,
        unavailable,
        intervals,
    })
}

/// The streaming rung of the resilient front end: fetches the current
/// epoch's view extensions through the recovery stack (retries, backoff,
/// breakers — compose a [`crate::delta::DeltaProvider`] to fold batches
/// in through the same boundary), synchronizes the [`DeltaSession`]'s
/// maintained state against the fetched catalog, and answers with
/// incremental maintenance instead of a from-scratch recompute. Results
/// are bit-identical to [`confidence_resilient`]'s exact rung on the
/// same snapshot.
///
/// The session's `delta.*` maintenance counters for *this epoch* are
/// recorded into `obs` (as diffs, so replaying `n` epochs sums to the
/// session totals).
///
/// # Errors
/// [`CoreError::SourceUnavailable`] when a source stays unreachable
/// (streaming epochs answer over complete snapshots only — partial
/// availability composes upstream via [`confidence_under_faults`]),
/// catalog-shape errors from [`DeltaSession::advance_to`], plus
/// everything [`crate::delta::analyze_incremental_budgeted`] raises.
pub fn confidence_over_stream(
    provider: &mut dyn SourceProvider,
    access: &mut SourceAccess,
    session: &mut DeltaSession,
    budget: &Budget,
    obs: &mut ObsSession,
) -> Result<(Vec<crate::source::SourceStatus>, ConfidenceAnalysis), CoreError> {
    let report = access.fetch_all(provider, budget, obs)?;
    let unavailable = report.unavailable();
    if let Some(&first) = unavailable.first() {
        return Err(CoreError::SourceUnavailable {
            source: report.catalog.sources()[first].name().to_owned(),
            attempts: report.statuses[first].attempts(),
        });
    }
    let before = session.stats();
    // The maintenance pass is serial: one observed phase per epoch.
    let outcome = observe_phase(
        obs,
        budget,
        Phase::DeltaEpoch,
        ("sources", &report.catalog.len().to_string()),
        || {
            session
                .advance_to(&report.catalog)
                .and_then(|()| analyze_incremental_budgeted(session, budget))
        },
    );
    let after = session.stats();
    obs.counter_add(
        names::DELTA_BATCHES_APPLIED,
        after.batches_applied - before.batches_applied,
    );
    obs.counter_add(
        names::DELTA_OPS_APPLIED,
        after.ops_applied - before.ops_applied,
    );
    obs.counter_add(
        names::DELTA_CLASSES_TOUCHED,
        after.classes_touched - before.classes_touched,
    );
    obs.counter_add(
        names::DELTA_STATES_INVALIDATED,
        after.states_invalidated - before.states_invalidated,
    );
    obs.counter_add(
        names::DELTA_NODES_PATCHED,
        after.nodes_patched - before.nodes_patched,
    );
    obs.counter_add(
        names::DELTA_RECOMPILES_FORCED,
        after.recompiles_forced - before.recompiles_forced,
    );
    obs.counter_add(
        names::DELTA_RESULTS_REUSED,
        after.results_reused - before.results_reused,
    );
    let analysis = outcome?;
    Ok((report.statuses, analysis))
}

/// Test-only instance builders shared across the crate's test modules.
#[cfg(test)]
pub(crate) mod tests_support {
    use crate::collection::{IdentityCollection, SourceCollection};
    use crate::descriptor::SourceDescriptor;
    use pscds_numeric::Frac;
    use pscds_relational::Value;

    /// A collection whose exact count explodes: `k` sources with disjoint
    /// `t`-tuple extensions, zero completeness and soundness 1/4 — each
    /// class's count ranges freely over `⌈t/4⌉..=t`, so there are roughly
    /// `(3t/4)^k` feasible count vectors — while the sampler only ticks
    /// once per sweep.
    pub(crate) fn wide_slack_identity(k: usize, t: usize) -> IdentityCollection {
        let sources: Vec<SourceDescriptor> = (0..k)
            .map(|i| {
                let ext: Vec<[Value; 1]> =
                    (0..t).map(|j| [Value::sym(&format!("x{i}_{j}"))]).collect();
                SourceDescriptor::identity(
                    format!("S{i}"),
                    &format!("V{i}"),
                    "R",
                    1,
                    ext,
                    Frac::ZERO,
                    Frac::new(1, 4),
                )
                .unwrap()
            })
            .collect();
        SourceCollection::from_sources(sources)
            .as_identity()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::wide_slack_identity;
    use super::*;
    use crate::consistency::exhaustive::domain_with_fresh;
    use crate::paper::{example_5_1, example_5_1_domain, example_5_1_scaled};
    use pscds_numeric::UBig;

    /// The default check ladder, serial and unobserved.
    fn check(
        collection: &SourceCollection,
        domain: &[Value],
        budget: &Budget,
    ) -> Result<ResilientCheck, CoreError> {
        let (serial, policy) = (ParallelConfig::serial(), LadderPolicy::default());
        check_resilient(
            collection,
            domain,
            budget,
            &serial,
            &policy,
            &mut ObsSession::disabled(),
        )
    }

    /// The default confidence ladder, serial and unobserved.
    fn confidence(
        collection: &IdentityCollection,
        padding: u64,
        budget: &Budget,
        approx: bool,
    ) -> Result<ResilientConfidence, CoreError> {
        confidence_with(
            collection,
            padding,
            budget,
            approx,
            &LadderPolicy::default(),
        )
    }

    /// The confidence ladder under `policy`, serial and unobserved.
    fn confidence_with(
        collection: &IdentityCollection,
        padding: u64,
        budget: &Budget,
        approx: bool,
        policy: &LadderPolicy,
    ) -> Result<ResilientConfidence, CoreError> {
        let serial = ParallelConfig::serial();
        let mut obs = ObsSession::disabled();
        confidence_resilient(
            collection, padding, budget, &serial, approx, policy, &mut obs,
        )
    }

    /// The fixed rung order that runs the DFS first and rescues its trip
    /// with the DP.
    fn dfs_then_dp() -> LadderPolicy {
        LadderPolicy {
            confidence: vec![
                ConfidenceRung::ExactDfs,
                ConfidenceRung::Dp,
                ConfidenceRung::Sampled,
            ],
            ..LadderPolicy::default()
        }
    }

    /// The `ladder.plan` events of a finished session, as
    /// `(dfs_steps, dp_steps, folds, engine)`.
    fn plans(report: &pscds_obs::ObsReport) -> Vec<(u64, u64, u64, String)> {
        let events = report.events.iter();
        let plans = events.filter(|e| e.name == names::EVENT_LADDER_PLAN);
        plans
            .map(|e| {
                let count = |i: usize| e.attrs[i].1.parse::<u64>().unwrap();
                (count(0), count(1), count(2), e.attrs[3].1.clone())
            })
            .collect()
    }

    #[test]
    fn check_exact_under_unlimited_budget() {
        let c = example_5_1();
        let r = check(&c, &example_5_1_domain(1), &Budget::unlimited()).unwrap();
        assert_eq!(r.engine, Engine::Exact);
        assert!(r.consistent);
        assert!(r.witness.is_some());
    }

    #[test]
    fn check_falls_back_to_signature_for_identity_collections() {
        use crate::descriptor::SourceDescriptor;
        use pscds_numeric::Frac;
        // Two contradictory exact sources: the exhaustive search must
        // sweep every candidate up to the Lemma 3.1 bound over a padded
        // 22-constant domain (hundreds of candidates, tripping a 50-step
        // budget), while the signature solver refutes in a handful of DFS
        // nodes under the renewed allowance.
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([s1, s2]);
        let domain = domain_with_fresh(&c, 20);
        let budget = Budget::with_max_steps(50);
        let r = check(&c, &domain, &budget).unwrap();
        assert_eq!(r.engine, Engine::Signature);
        assert!(!r.consistent);
        assert!(r.witness.is_none());
    }

    #[test]
    fn check_propagates_budget_error_for_join_views() {
        use crate::descriptor::SourceDescriptor;
        use pscds_numeric::Frac;
        use pscds_relational::parser::{parse_facts, parse_rule};
        let src = SourceDescriptor::new(
            "J",
            parse_rule("V(x) <- R(x, y), S(y)").unwrap(),
            parse_facts("V(a)").unwrap(),
            Frac::HALF,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([src]);
        let domain = domain_with_fresh(&c, 1);
        let err = check(&c, &domain, &Budget::with_max_steps(1)).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn confidence_exact_under_unlimited_budget() {
        let id = example_5_1().as_identity().unwrap();
        let r = confidence(&id, 1, &Budget::unlimited(), false).unwrap();
        assert_eq!(r.engine(), Engine::Exact);
        let exact = r.exact().expect("exact analysis");
        assert_eq!(exact.world_count(), &UBig::from(7u64));
        let conf = r.confidence_of_tuple(&id, &[Value::sym("b")]).unwrap();
        assert!((conf - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_without_approx_propagates_budget_error() {
        let id = example_5_1().as_identity().unwrap();
        let err = confidence(&id, 1, &Budget::with_max_steps(1), false).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn confidence_dp_rescues_a_tripped_dfs() {
        let id = wide_slack_identity(8, 9);
        // ~7^8 ≈ 5.7M feasible vectors: the exact DFS counter trips a
        // 100k-step budget, but the wide slack means almost every branch
        // re-enters a saturated residual state, so the memoized DP rung
        // finishes in a few hundred nodes under its renewed allowance —
        // still an exact result, tagged with its provenance.
        let budget = Budget::with_max_steps(100_000);
        let r = confidence_with(&id, 0, &budget, false, &dfs_then_dp()).unwrap();
        assert_eq!(r.engine(), Engine::Dp);
        assert!(r.is_consistent());
        let exact = r.exact().expect("the DP rung is exact");
        let serial = ConfidenceAnalysis::analyze(&id, 0);
        assert_eq!(exact.world_count(), serial.world_count());
        assert_eq!(exact.feasible_vectors(), serial.feasible_vectors());
        let conf = r.confidence_of_tuple(&id, &[Value::sym("x0_0")]).unwrap();
        let reference = serial
            .confidence_of_tuple(&id, &[Value::sym("x0_0")])
            .unwrap()
            .to_f64();
        assert!((conf - reference).abs() < 1e-12);
    }

    #[test]
    fn planned_rung_runs_the_dp_where_the_dfs_would_trip() {
        // The rescue instance above: the plan predicts the DFS's millions
        // of steps from the DP's eight residual states and never starts
        // the DFS, so the DP answers inside the caller's allowance.
        let id = wide_slack_identity(8, 9);
        let budget = Budget::with_max_steps(100_000);
        let r = confidence(&id, 0, &budget, false).unwrap();
        assert!(matches!(r, ResilientConfidence::PlannedDp(_)));
        assert_eq!(r.engine(), Engine::Dp);
        let exact = r.exact().expect("the planned DP is exact");
        let serial = ConfidenceAnalysis::analyze(&id, 0);
        assert_eq!(exact.parts(), serial.parts());
        assert!(budget.steps() < 1_000, "{} steps", budget.steps());
    }

    #[test]
    fn planned_rung_runs_the_dfs_it_predicts_cheaper() {
        // Example 5.1 shares few residual states: the plan runs the DFS,
        // whose steps it predicted exactly.
        let id = example_5_1().as_identity().unwrap();
        let dfs_budget = Budget::unlimited();
        let serial = ConfidenceAnalysis::analyze_budgeted(&id, 3, &dfs_budget).unwrap();
        let policy = LadderPolicy {
            confidence: vec![ConfidenceRung::Planned],
            ..LadderPolicy::default()
        };
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            3,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            &policy,
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine(), Engine::Exact);
        assert_eq!(r.exact().unwrap().parts(), serial.parts());
        let report = obs.finish();
        let [(dfs_steps, _, folds, engine)] = plans(&report)[..].to_owned().try_into().unwrap();
        assert_eq!(dfs_steps, dfs_budget.steps());
        assert!(dfs_steps <= folds, "{dfs_steps} > {folds}");
        assert_eq!(engine, "exact");
        // No `dp.*` counters: the DP's expansion planned, the DFS answered.
        assert_eq!(report.metrics.counter(names::DP_CACHE_MISSES), 0);
        let skel = report.spans[0].skeleton();
        let predicted = format!("ladder.rung{{predicted_steps={dfs_steps},engine=exact}}[dp.level");
        assert!(skel.contains(&predicted), "{skel}");
    }

    #[test]
    fn planned_rung_prefers_the_dp_when_the_dfs_would_not_fit() {
        // The DFS is predicted cheaper, but not inside the allowance left
        // after the expansion: the DP evaluates what it expanded.
        let id = example_5_1().as_identity().unwrap();
        let dfs_budget = Budget::unlimited();
        let serial = ConfidenceAnalysis::analyze_budgeted(&id, 3, &dfs_budget).unwrap();
        let budget = Budget::with_max_steps(dfs_budget.steps());
        let r = confidence(&id, 3, &budget, false).unwrap();
        assert!(matches!(r, ResilientConfidence::PlannedDp(_)));
        assert_eq!(r.exact().unwrap().parts(), serial.parts());
    }

    #[test]
    fn planned_dfs_that_trips_degrades_to_a_fresh_dp() {
        // A cancelled budget trips the DFS the plan chose: the expansion's
        // 1,005 ticks stay short of the first cancellation check, the
        // DFS's 2,185 cross it. The fresh DP under the renewed slice
        // shares the flag, so it trips too.
        let id = example_5_1_scaled(8).as_identity().unwrap();
        let budget = Budget::unlimited();
        budget
            .cancel_handle()
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let mut obs = ObsSession::in_memory();
        let err = confidence_resilient(
            &id,
            8,
            &budget,
            &ParallelConfig::serial(),
            false,
            &LadderPolicy::default(),
            &mut obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        let report = obs.finish();
        let kinds: Vec<&str> = report.events.iter().map(|e| e.name).collect();
        assert_eq!(
            kinds,
            [
                "ladder.plan",
                "budget.trip",
                "ladder.degrade",
                "budget.trip"
            ]
        );
        assert_eq!(
            report.events[2].attrs,
            vec![("from", "exact".to_string()), ("to", "dp".to_string())]
        );
    }

    #[test]
    fn confidence_with_approx_falls_back_to_sampler() {
        // The scaled Example 5.1 family at m = 64: ~210k feasible count
        // vectors for the DFS and ~100k distinct residual states for the
        // DP, so *both* exact rungs trip a 30k-step budget, while the
        // sampler (one tick per sweep, 21k sweeps by default) fits
        // comfortably in its renewed allowance.
        let id = example_5_1_scaled(64).as_identity().unwrap();
        let budget = Budget::with_max_steps(30_000);
        let r = confidence(&id, 64, &budget, true).unwrap();
        let Engine::Sampled { samples } = r.engine() else {
            panic!("expected the sampled fallback, got {}", r.engine());
        };
        assert_eq!(samples, SamplerConfig::default().samples);
        assert!(r.is_consistent());
        assert!(r.exact().is_none());
        let conf = r.confidence_of_tuple(&id, &[Value::sym("b1")]).unwrap();
        assert!(
            (0.0..=1.0).contains(&conf),
            "confidence {conf} out of range"
        );
    }

    #[test]
    fn confidence_without_approx_keeps_hard_failure_on_large_instance() {
        // DP-hard as well as DFS-hard (see the sampler test above): with
        // no approximation opt-in, every rung of the ladder trips and the
        // budget error surfaces.
        let id = example_5_1_scaled(64).as_identity().unwrap();
        let err = confidence(&id, 64, &Budget::with_max_steps(10_000), false).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }

    #[test]
    fn observed_check_ladder_records_signature_fallback() {
        use crate::descriptor::SourceDescriptor;
        use pscds_numeric::Frac;
        // Same instance as check_falls_back_to_signature_for_identity_collections.
        let s1 = SourceDescriptor::identity(
            "S1",
            "V1",
            "R",
            1,
            [[Value::sym("a")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let s2 = SourceDescriptor::identity(
            "S2",
            "V2",
            "R",
            1,
            [[Value::sym("b")]],
            Frac::ONE,
            Frac::ONE,
        )
        .unwrap();
        let c = SourceCollection::from_sources([s1, s2]);
        let domain = domain_with_fresh(&c, 20);
        let mut obs = ObsSession::in_memory();
        let r = check_resilient(
            &c,
            &domain,
            &Budget::with_max_steps(50),
            &ParallelConfig::serial(),
            &LadderPolicy::default(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine, Engine::Signature);
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 1);
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 1);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].name, "budget.trip");
        assert_eq!(report.events[1].name, "ladder.degrade");
        assert_eq!(
            report.events[1].attrs,
            vec![
                ("from", "exact".to_string()),
                ("to", "signature".to_string())
            ]
        );
        assert_eq!(report.spans.len(), 1);
        assert!(report.spans[0]
            .skeleton()
            .starts_with("resilient.check{sources=2}"));
    }

    #[test]
    fn observed_confidence_ladder_records_dp_rescue() {
        let id = wide_slack_identity(8, 9);
        let budget = Budget::with_max_steps(100_000);
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            0,
            &budget,
            &ParallelConfig::serial(),
            false,
            &dfs_then_dp(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine(), Engine::Dp);
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 1);
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 1);
        assert_eq!(
            report.events[1].attrs,
            vec![("from", "exact".to_string()), ("to", "dp".to_string())]
        );
        // The DP rung ran the observed route: its state counters and the
        // evaluation's chunk lifecycle land in the same session.
        assert!(report.metrics.counter(names::DP_CACHE_MISSES) > 0);
        assert!(report.metrics.counter(names::CHUNKS_COMPLETED) > 0);
        let skel = report.spans[0].skeleton();
        assert!(
            skel.starts_with("resilient.confidence{sources=8}"),
            "{skel}"
        );
        assert!(skel.contains("dp.run{engine=dp,classes="), "{skel}");
    }

    #[test]
    fn observed_planned_ladder_records_the_plan() {
        // The rescue instance under the default ladder: no trip, no
        // degradation, one plan event, and the DP's counters and level
        // spans under the planned rung.
        let id = wide_slack_identity(8, 9);
        let budget = Budget::with_max_steps(100_000);
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            0,
            &budget,
            &ParallelConfig::serial(),
            false,
            &LadderPolicy::default(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine(), Engine::Dp);
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 0);
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 0);
        let [(dfs_steps, dp_steps, folds, engine)] =
            plans(&report)[..].to_owned().try_into().unwrap();
        assert_eq!(engine, "dp");
        assert!(dfs_steps > folds, "{dfs_steps} <= {folds}");
        assert_eq!(dp_steps, budget.steps());
        assert_eq!(report.metrics.counter(names::BUDGET_TICKS), dp_steps);
        assert_eq!(report.metrics.counter(names::DP_CACHE_MISSES), 8);
        let skel = report.spans[0].skeleton();
        let predicted = format!("ladder.rung{{predicted_steps={dp_steps},engine=dp}}[dp.level");
        assert!(skel.contains(&predicted), "{skel}");
    }

    #[test]
    fn observed_confidence_ladder_records_sampler_acceptance() {
        let id = example_5_1_scaled(64).as_identity().unwrap();
        let budget = Budget::with_max_steps(30_000);
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            64,
            &budget,
            &ParallelConfig::serial(),
            true,
            &dfs_then_dp(),
            &mut obs,
        )
        .unwrap();
        assert!(matches!(r.engine(), Engine::Sampled { .. }));
        let report = obs.finish();
        // Two drops: exact → dp and dp → sampled; two trips: the DFS rung
        // (ladder-recorded) and the DP rung (recorded by count_dp_observed
        // itself).
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 2);
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 2);
        let proposed = report.metrics.counter(names::SAMPLER_PROPOSED);
        let accepted = report.metrics.counter(names::SAMPLER_ACCEPTED);
        assert!(proposed > 0);
        assert!(accepted > 0 && accepted <= proposed);
        let degrade: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "ladder.degrade")
            .collect();
        assert_eq!(degrade.len(), 2);
        assert_eq!(degrade[1].attrs[0], ("from", "dp".to_string()));
        assert!(degrade[1].attrs[1].1.starts_with("sampled ("));
    }

    #[test]
    fn confidence_ladder_records_the_last_rungs_trip() {
        // A one-rung policy whose rung trips: the trip propagates and is
        // recorded exactly once, whichever engine the rung runs.
        let id = example_5_1_scaled(16).as_identity().unwrap();
        for rung in [
            ConfidenceRung::ExactDfs,
            ConfidenceRung::Dp,
            ConfidenceRung::Circuit,
        ] {
            let policy = LadderPolicy {
                check: vec![CheckRung::Signature],
                confidence: vec![rung],
            };
            let mut obs = ObsSession::in_memory();
            let err = confidence_resilient(
                &id,
                16,
                &Budget::with_max_steps(5),
                &ParallelConfig::serial(),
                false,
                &policy,
                &mut obs,
            )
            .unwrap_err();
            assert!(matches!(err, CoreError::BudgetExceeded { .. }), "{rung:?}");
            let report = obs.finish();
            assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 1, "{rung:?}");
            assert_eq!(report.events.len(), 1, "{rung:?}");
            assert_eq!(report.events[0].name, names::EVENT_BUDGET_TRIP);
        }
    }

    #[test]
    fn check_ladder_records_every_tripped_rung() {
        // Both default rungs trip a one-step allowance: two trips, one
        // degradation between them.
        let mut obs = ObsSession::in_memory();
        let err = check_resilient(
            &example_5_1(),
            &example_5_1_domain(1),
            &Budget::with_max_steps(1),
            &ParallelConfig::serial(),
            &LadderPolicy::default(),
            &mut obs,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 2);
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 1);
        let kinds: Vec<&str> = report.events.iter().map(|e| e.name).collect();
        assert_eq!(kinds, ["budget.trip", "ladder.degrade", "budget.trip"]);
    }

    #[test]
    fn default_policy_plans_the_exact_rung() {
        let p = LadderPolicy::default();
        assert_eq!(p.check, vec![CheckRung::Exhaustive, CheckRung::Signature]);
        assert_eq!(
            p.confidence,
            vec![ConfidenceRung::Planned, ConfidenceRung::Sampled]
        );
        assert_eq!(ConfidenceRung::Planned.engine(), Engine::Dp);
        assert_eq!(CheckRung::Signature.engine(), Engine::Signature);
        assert_eq!(
            ConfidenceRung::Sampled.engine(),
            Engine::Sampled {
                samples: SamplerConfig::default().samples
            }
        );
    }

    #[test]
    fn custom_policy_reorders_the_ladder() {
        // A DP-only confidence policy: the answer comes from the DP rung
        // directly, no trips, no degradations.
        let id = example_5_1().as_identity().unwrap();
        let policy = LadderPolicy {
            check: vec![CheckRung::Signature],
            confidence: vec![ConfidenceRung::Dp],
        };
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            1,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            &policy,
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine(), Engine::Dp);
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 0);
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 0);
        // And the check ladder honours its rung list too.
        let c = example_5_1();
        let r = check_resilient(
            &c,
            &example_5_1_domain(1),
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            &policy,
            &mut ObsSession::disabled(),
        )
        .unwrap();
        assert_eq!(r.engine, Engine::Signature);
        assert!(r.consistent);
    }

    #[test]
    fn circuit_policy_matches_the_exact_counter() {
        // A circuit-only confidence policy: compile once, traverse once.
        // The answer is bit-identical to the DFS counter's, and the
        // circuit-size counters land in the session.
        let id = example_5_1_scaled(3).as_identity().unwrap();
        let reference = ConfidenceAnalysis::analyze(&id, 3);
        let policy = LadderPolicy {
            check: vec![CheckRung::Signature],
            confidence: vec![ConfidenceRung::Circuit],
        };
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            3,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            &policy,
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine(), Engine::Circuit);
        let a = r.exact().unwrap();
        assert_eq!(a.world_count(), reference.world_count());
        for i in 0..reference.signature_analysis().classes().len() {
            assert_eq!(
                a.class_confidence(i).unwrap(),
                reference.class_confidence(i).unwrap()
            );
        }
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 0);
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 0);
        assert!(report.metrics.counter(names::CIRCUIT_NODES) > 0);
        assert!(report.metrics.counter(names::CIRCUIT_EDGES) > 0);
    }

    #[test]
    fn ladder_degrades_from_dfs_to_circuit() {
        // The DFS explodes on the wide-slack instance while the circuit
        // compiles it in a handful of residual states: the ladder trips
        // the first rung and the circuit rung rescues the query.
        let id = wide_slack_identity(6, 9);
        let policy = LadderPolicy {
            check: vec![CheckRung::Signature],
            confidence: vec![ConfidenceRung::ExactDfs, ConfidenceRung::Circuit],
        };
        let mut obs = ObsSession::in_memory();
        let r = confidence_resilient(
            &id,
            0,
            &Budget::with_max_steps(5_000),
            &ParallelConfig::serial(),
            false,
            &policy,
            &mut obs,
        )
        .unwrap();
        assert_eq!(r.engine(), Engine::Circuit);
        assert!(r.is_consistent());
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::BUDGET_TRIPS), 1);
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 1);
        let degrade: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name == "ladder.degrade")
            .collect();
        assert_eq!(
            degrade[0].attrs,
            vec![("from", "exact".to_string()), ("to", "circuit".to_string())]
        );
    }

    #[test]
    fn empty_policy_is_rejected() {
        let id = example_5_1().as_identity().unwrap();
        let policy = LadderPolicy {
            check: Vec::new(),
            confidence: vec![ConfidenceRung::Sampled],
        };
        // No check rungs at all.
        let err = check_resilient(
            &example_5_1(),
            &example_5_1_domain(1),
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            &policy,
            &mut ObsSession::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
        // Only a Sampled rung, and approximation not opted into.
        let err = confidence_resilient(
            &id,
            1,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            &policy,
            &mut ObsSession::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadDomain { .. }));
    }

    #[test]
    fn under_faults_complete_path_runs_the_ladder() {
        use crate::faults::FaultPlan;
        use crate::source::{AccessPolicy, FaultyProvider, SourceAccess, SourceStatus};
        let c = example_5_1();
        let mut provider = FaultyProvider::new(&c, FaultPlan::new(3));
        let mut access = SourceAccess::new(AccessPolicy::default(), c.len());
        let mut obs = ObsSession::in_memory();
        let r = confidence_under_faults(
            &mut provider,
            &mut access,
            1,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            false,
            &LadderPolicy::default(),
            &mut obs,
        )
        .unwrap();
        assert!(!r.is_partial());
        assert_eq!(r.engine(), Engine::Exact);
        let FaultAwareConfidence::Complete { statuses, result } = r else {
            panic!("expected a complete answer");
        };
        assert!(statuses
            .iter()
            .all(|s| matches!(s, SourceStatus::Available { attempts: 1 })));
        let id = c.as_identity().unwrap();
        let conf = result.confidence_of_tuple(&id, &[Value::sym("b")]).unwrap();
        assert!((conf - 6.0 / 7.0).abs() < 1e-12);
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::SOURCE_FETCH_ATTEMPTS), 2);
        assert_eq!(report.metrics.counter(names::INTERVAL_TUPLES), 0);
    }

    #[test]
    fn under_faults_without_partial_is_an_error() {
        use crate::faults::{FaultPlan, FaultSpec};
        use crate::source::{AccessPolicy, FaultyProvider, SourceAccess};
        let c = example_5_1();
        let plan = FaultPlan::new(3).with_source("S2", FaultSpec::always_down());
        let mut provider = FaultyProvider::new(&c, plan);
        let mut access = SourceAccess::new(AccessPolicy::default(), c.len());
        let err = confidence_under_faults(
            &mut provider,
            &mut access,
            1,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            false,
            &LadderPolicy::default(),
            &mut ObsSession::disabled(),
        )
        .unwrap_err();
        let CoreError::SourceUnavailable { source, attempts } = err else {
            panic!("expected SourceUnavailable, got {err:?}");
        };
        assert_eq!(source, "S2");
        assert!(attempts > 0);
    }

    #[test]
    fn over_stream_replays_epochs_incrementally() {
        use crate::delta::{DeltaBatch, DeltaProvider, SourceDelta};
        use crate::source::{AccessPolicy, CatalogProvider, SourceAccess};
        use pscds_relational::parser::parse_fact;
        let c = example_5_1();
        let mut provider = DeltaProvider::new(CatalogProvider::new(&c));
        let mut access = SourceAccess::new(AccessPolicy::default(), c.len());
        let mut session = crate::delta::DeltaSession::new(&c, 2).unwrap();
        let mut obs = ObsSession::in_memory();
        // Epoch 0: the initial snapshot.
        let (statuses, first) = confidence_over_stream(
            &mut provider,
            &mut access,
            &mut session,
            &Budget::unlimited(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(statuses.len(), 2);
        assert!(first.is_consistent());
        // Epoch 1: balanced churn inside S1 — the reuse fast path.
        provider
            .apply(&DeltaBatch {
                deltas: vec![SourceDelta {
                    source: "S1".into(),
                    delete: vec![parse_fact("V1(a)").unwrap()],
                    insert: vec![parse_fact("V1(d)").unwrap()],
                }],
            })
            .unwrap();
        let (_, second) = confidence_over_stream(
            &mut provider,
            &mut access,
            &mut session,
            &Budget::unlimited(),
            &mut obs,
        )
        .unwrap();
        let scratch = ConfidenceAnalysis::analyze(
            &provider.current().as_identity().unwrap(),
            session.padding(),
        );
        assert_eq!(second.world_count(), scratch.world_count());
        assert_eq!(session.stats().results_reused, 1);
        let report = obs.finish();
        assert_eq!(report.metrics.counter(names::DELTA_BATCHES_APPLIED), 2);
        assert_eq!(report.metrics.counter(names::DELTA_RESULTS_REUSED), 1);
    }

    #[test]
    fn over_stream_surfaces_unreachable_sources() {
        use crate::delta::DeltaProvider;
        use crate::faults::{FaultPlan, FaultSpec};
        use crate::source::{AccessPolicy, FaultyProvider, SourceAccess};
        let c = example_5_1();
        let plan = FaultPlan::new(3).with_source("S2", FaultSpec::always_down());
        let mut provider = DeltaProvider::new(FaultyProvider::new(&c, plan));
        let mut access = SourceAccess::new(AccessPolicy::default(), c.len());
        let mut session = crate::delta::DeltaSession::new(&c, 2).unwrap();
        let err = confidence_over_stream(
            &mut provider,
            &mut access,
            &mut session,
            &Budget::unlimited(),
            &mut ObsSession::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SourceUnavailable { .. }));
    }

    #[test]
    fn under_faults_partial_brackets_the_point() {
        use crate::faults::{FaultPlan, FaultSpec};
        use crate::source::{AccessPolicy, FaultyProvider, SourceAccess};
        let c = example_5_1();
        let plan = FaultPlan::new(3).with_source("S2", FaultSpec::always_down());
        let mut provider = FaultyProvider::new(&c, plan);
        let mut access = SourceAccess::new(AccessPolicy::default(), c.len());
        let mut obs = ObsSession::in_memory();
        let r = confidence_under_faults(
            &mut provider,
            &mut access,
            1,
            &Budget::unlimited(),
            &ParallelConfig::serial(),
            false,
            true,
            &LadderPolicy::default(),
            &mut obs,
        )
        .unwrap();
        assert!(r.is_partial());
        assert_eq!(r.engine(), Engine::Partial { unavailable: 1 });
        let FaultAwareConfidence::Partial {
            unavailable,
            intervals,
            ..
        } = r
        else {
            panic!("expected a partial answer");
        };
        assert_eq!(unavailable, vec!["S2".to_owned()]);
        assert!(intervals.all_contain_point());
        // The fault-free point for R(b) is 6/7; the bracket must hold it.
        let b = intervals
            .tuples()
            .iter()
            .find(|t| t.tuple == vec![Value::sym("b")])
            .expect("R(b) bracketed");
        assert_eq!(b.point, Rational::from_u64(6, 7));
        assert!(b.interval.contains(&b.point));
        let report = obs.finish();
        let n = report.metrics.counter(names::INTERVAL_TUPLES);
        assert!(n > 0);
        assert_eq!(
            report.metrics.counter(names::INTERVAL_POINT_CONTAINED),
            n,
            "containment invariant must hold observably"
        );
        assert_eq!(report.metrics.counter(names::LADDER_DEGRADATIONS), 1);
        let degrade = report
            .events
            .iter()
            .find(|e| e.name == "ladder.degrade")
            .expect("degrade event");
        assert_eq!(
            degrade.attrs[1],
            ("to", "partial (1 sources unavailable)".to_string())
        );
        assert!(report
            .spans
            .iter()
            .any(|s| s.skeleton().starts_with("source.fetch")));
        assert!(report
            .spans
            .iter()
            .any(|s| s.skeleton().starts_with("resilient.partial")));
    }

    #[test]
    fn check_with_parallel_config_matches_serial() {
        let c = example_5_1();
        let domain = example_5_1_domain(1);
        let serial = check(&c, &domain, &Budget::unlimited()).unwrap();
        for threads in [1usize, 2, 8] {
            let config = ParallelConfig::with_threads(threads);
            let par = check_resilient(
                &c,
                &domain,
                &Budget::unlimited(),
                &config,
                &LadderPolicy::default(),
                &mut ObsSession::disabled(),
            )
            .unwrap();
            assert_eq!(par.engine, serial.engine, "threads {threads}");
            assert_eq!(par.consistent, serial.consistent, "threads {threads}");
            assert_eq!(par.witness, serial.witness, "threads {threads}");
        }
    }

    #[test]
    fn confidence_with_parallel_config_matches_serial() {
        let id = example_5_1().as_identity().unwrap();
        let serial = confidence(&id, 1, &Budget::unlimited(), false).unwrap();
        let serial = serial.exact().expect("exact analysis");
        for threads in [1usize, 2, 8] {
            let config = ParallelConfig::with_threads(threads);
            let par = confidence_resilient(
                &id,
                1,
                &Budget::unlimited(),
                &config,
                false,
                &LadderPolicy::default(),
                &mut ObsSession::disabled(),
            )
            .unwrap();
            assert_eq!(par.engine(), Engine::Exact, "threads {threads}");
            let par = par.exact().expect("exact analysis");
            assert_eq!(par.world_count(), serial.world_count(), "threads {threads}");
            for sym in ["a", "b", "c"] {
                assert_eq!(
                    par.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                    serial.confidence_of_tuple(&id, &[Value::sym(sym)]).unwrap(),
                    "conf({sym}) threads {threads}"
                );
            }
        }
    }
}
