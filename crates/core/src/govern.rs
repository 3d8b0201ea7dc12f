//! Resource governance for the super-polynomial engines.
//!
//! Every hard procedure in this crate — possible-world enumeration, the
//! signature DFS, the Γ assignment sweep, template/subset enumeration,
//! consensus search — is exponential in the worst case (CONSISTENCY is
//! NP-complete, exact confidence counting is #P-hard). A [`Budget`] makes
//! those engines *interruptible*: it carries an optional wall-clock
//! deadline, an optional step allowance, and a cooperative cancellation
//! flag, and the engines call [`Budget::tick`] once per unit of search
//! work. When the budget is exhausted the engine unwinds with
//! [`CoreError::BudgetExceeded`] instead of running unbounded or
//! panicking; callers can then retry with a cheaper engine (see
//! [`crate::resilient`]).
//!
//! `tick` is designed to sit in the hottest loops: it increments a
//! counter, compares it against the step allowance, and consults the
//! clock and the cancellation flag only every
//! [`Budget::CHECK_INTERVAL`] steps — so a deadline overrun is detected
//! within at most `CHECK_INTERVAL` additional steps of work.
//!
//! The crate-private `record_trip` is the one place a budget trip is
//! written into an observability session, and `observe_phase` wraps a
//! serial phase in its span, step charge, histogram sample and trip.

use crate::error::CoreError;
use pscds_obs::{names, ObsSession};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative resource budget threaded through the exponential
/// engines.
///
/// A budget combines three independent limits, all optional:
///
/// * a **deadline** — wall-clock time allotted from construction;
/// * a **step allowance** — a deterministic cap on search steps, for
///   reproducible truncation independent of machine speed;
/// * a **cancellation flag** — an [`AtomicBool`] shared with other
///   threads (e.g. a Ctrl-C handler) that aborts the computation when
///   set.
///
/// [`Budget::unlimited`] (the default) never trips on time or steps and
/// owns a private flag nobody else can set, so engines running under it
/// behave exactly as their un-governed ancestors.
///
/// # Examples
///
/// ```
/// use pscds_core::govern::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::unlimited()
///     .and_deadline(Duration::from_millis(100))
///     .and_max_steps(1_000_000);
/// assert!(!budget.is_unlimited());
/// assert!(budget.tick("doctest").is_ok());
/// ```
#[derive(Debug)]
pub struct Budget {
    started: Instant,
    /// The wall-clock allotment (kept so [`Budget::renewed`] can restart it).
    allotment: Option<Duration>,
    deadline: Option<Instant>,
    max_steps: u64,
    steps: Cell<u64>,
    cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// How many steps pass between wall-clock / cancellation checks in
    /// [`Budget::tick`] (a power of two; the step allowance itself is
    /// checked on every tick).
    pub const CHECK_INTERVAL: u64 = 1024;

    /// A budget that never runs out: no deadline, no step cap, and a
    /// private cancellation flag that nothing else holds.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            started: Instant::now(),
            allotment: None,
            deadline: None,
            max_steps: u64::MAX,
            steps: Cell::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget limited only by a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(allotment: Duration) -> Self {
        Budget::unlimited().and_deadline(allotment)
    }

    /// A budget limited only by a step allowance.
    #[must_use]
    pub fn with_max_steps(max_steps: u64) -> Self {
        Budget::unlimited().and_max_steps(max_steps)
    }

    /// Adds (or replaces) a wall-clock deadline, measured from *now*.
    #[must_use]
    pub fn and_deadline(mut self, allotment: Duration) -> Self {
        let now = Instant::now();
        self.allotment = Some(allotment);
        self.deadline = Some(now + allotment);
        self
    }

    /// Adds (or replaces) the step allowance.
    #[must_use]
    pub fn and_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replaces the cancellation flag with one shared by the caller
    /// (e.g. flipped from a signal handler or another thread).
    #[must_use]
    pub fn and_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = flag;
        self
    }

    /// A handle to the cancellation flag; storing `true` through it makes
    /// every subsequent slow-path check fail with
    /// [`CoreError::BudgetExceeded`].
    #[must_use]
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// `true` iff this budget has neither a deadline nor a step cap.
    /// Engines use this to decide whether their legacy hard size caps
    /// still apply: an explicitly limited budget *replaces* the caps.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_steps == u64::MAX
    }

    /// Steps consumed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Wall-clock time since the budget was created (or last
    /// [renewed](Budget::renewed)).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// [`Budget::elapsed`] in nanoseconds, saturating at `u64::MAX` —
    /// the **budget clock** that all `pscds-obs` span and event
    /// timestamps are read from. Observability code must call this (the
    /// obs crate itself never reads a clock), so instrumented engines
    /// stay clean under the L2 `budget-bypass` rule and span timelines
    /// agree with deadline accounting. [`Budget::fork`] copies the clock
    /// origin, so worker-side timestamps are coherent with the parent's.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh budget with the same allotments — deadline restarted from
    /// now, step counter reset — sharing this budget's cancellation flag.
    /// This is what the graceful-degradation layer hands to a fallback
    /// engine: the fallback gets its own time slice, but Ctrl-C still
    /// stops it.
    #[must_use]
    pub fn renewed(&self) -> Self {
        let mut fresh = Budget::unlimited().and_cancel(self.cancel_handle());
        if let Some(allotment) = self.allotment {
            fresh = fresh.and_deadline(allotment);
        }
        if self.max_steps != u64::MAX {
            fresh = fresh.and_max_steps(self.max_steps);
        }
        fresh
    }

    /// A budget for a parallel worker: the **same absolute deadline** (no
    /// restart — sibling workers race the same clock), the same step
    /// allowance (counted per worker, so a `max_steps` budget bounds each
    /// worker's share of the search rather than the global total), a fresh
    /// step counter, and this budget's cancellation flag. Contrast with
    /// [`Budget::renewed`], which restarts the clock for a *sequential*
    /// fallback engine.
    ///
    /// `Budget` is `Send` but not `Sync` (the step counter is a
    /// [`Cell`]), so the parallel driver forks one budget per worker on
    /// the spawning thread and moves each fork into its task.
    #[must_use]
    pub fn fork(&self) -> Self {
        Budget {
            started: self.started,
            allotment: self.allotment,
            deadline: self.deadline,
            max_steps: self.max_steps,
            steps: Cell::new(0),
            cancel: Arc::clone(&self.cancel),
        }
    }

    /// Records one unit of search work and fails if the budget is
    /// exhausted. The step allowance is enforced exactly; the deadline
    /// and the cancellation flag are consulted every
    /// [`Budget::CHECK_INTERVAL`] steps (so overruns are bounded by that
    /// many extra steps).
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] tagged with `phase`.
    #[inline]
    pub fn tick(&self, phase: &str) -> Result<(), CoreError> {
        let s = self.steps.get() + 1;
        self.steps.set(s);
        if s > self.max_steps {
            return Err(self.exceeded(phase));
        }
        if s & (Self::CHECK_INTERVAL - 1) == 0 {
            self.check(phase)
        } else {
            Ok(())
        }
    }

    /// The slow-path check: deadline and cancellation, unconditionally.
    /// Engines call this directly at phase boundaries where a prompt
    /// answer matters more than amortization.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] tagged with `phase`.
    pub fn check(&self, phase: &str) -> Result<(), CoreError> {
        // lint-allow(relaxed-ordering): the cancel flag is a monotone latch —
        // set-once, never cleared — so a stale read only delays (never
        // prevents) observing cancellation, and the next check re-reads it
        if self.cancel.load(Ordering::Relaxed) {
            return Err(self.exceeded(phase));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.exceeded(phase));
            }
        }
        Ok(())
    }

    /// The structured error for this budget's current state.
    fn exceeded(&self, phase: &str) -> CoreError {
        CoreError::BudgetExceeded {
            phase: phase.to_owned(),
            steps: self.steps.get(),
            elapsed: self.elapsed(),
        }
    }
}

/// Records a budget trip into `obs`: the `budget.trips` counter plus a
/// `budget.trip` event tagged with the phase that charged the fatal
/// step. Any other outcome records nothing. Each trip is recorded once,
/// by the engine when it takes the session, otherwise by the ladder
/// that ran it.
pub(crate) fn record_trip<T>(obs: &mut ObsSession, at_ns: u64, outcome: &Result<T, CoreError>) {
    if let Err(CoreError::BudgetExceeded { phase, .. }) = outcome {
        obs.counter_add(names::BUDGET_TRIPS, 1);
        obs.event(
            names::EVENT_BUDGET_TRIP,
            at_ns,
            &[("phase", phase.as_str())],
        );
    }
}

/// A serial phase that runs under its own span (see [`observe_phase`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Phase {
    /// Compiling a confidence circuit.
    CircuitCompile,
    /// Traversing a compiled confidence circuit.
    CircuitTraverse,
    /// The consensus subset sweep over the shared DP cache.
    ConsensusSweep,
    /// One incremental-maintenance epoch of a delta-stream replay.
    DeltaEpoch,
}

impl Phase {
    fn open(self, obs: &mut ObsSession, now_ns: u64) {
        match self {
            Phase::CircuitCompile => obs.span_open(names::SPAN_CIRCUIT_COMPILE, now_ns),
            Phase::CircuitTraverse => obs.span_open(names::SPAN_CIRCUIT_TRAVERSE, now_ns),
            Phase::ConsensusSweep => obs.span_open(names::SPAN_CONSENSUS_SWEEP, now_ns),
            Phase::DeltaEpoch => obs.span_open(names::SPAN_RESILIENT_STREAM, now_ns),
        }
    }

    fn sample(self, obs: &mut ObsSession, steps: u64) {
        match self {
            Phase::CircuitCompile => obs.histogram_record(names::CIRCUIT_COMPILE_STEPS, steps),
            Phase::CircuitTraverse => obs.histogram_record(names::CIRCUIT_TRAVERSE_STEPS, steps),
            Phase::ConsensusSweep => obs.histogram_record(names::CONSENSUS_SWEEP_STEPS, steps),
            Phase::DeltaEpoch => obs.histogram_record(names::DELTA_EPOCH_STEPS, steps),
        }
    }
}

/// Runs one serial phase under its own span on `budget`'s clock: opens
/// the phase's span with the attribute `attr`, runs `run`, charges the
/// step delta to the span and samples it into the phase's histogram (a
/// serial phase's raw delta is thread-invariant), records a trip, and
/// closes the span.
pub(crate) fn observe_phase<T>(
    obs: &mut ObsSession,
    budget: &Budget,
    phase: Phase,
    attr: (&'static str, &str),
    run: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    phase.open(obs, budget.elapsed_ns());
    obs.span_attr(attr.0, attr.1);
    let steps_before = budget.steps();
    let outcome = run();
    let delta = budget.steps() - steps_before;
    obs.charge_steps(delta);
    phase.sample(obs, delta);
    record_trip(obs, budget.elapsed_ns(), &outcome);
    obs.span_close(budget.elapsed_ns());
    outcome
}

/// Provenance of an analysis result: which engine produced it. Attached
/// to results by the graceful-degradation layer so callers (and the CLI
/// output) can tell an exact answer from an approximation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Brute-force enumeration or exact counting — the ground truth.
    Exact,
    /// The signature-decomposition solver (exact for identity-view
    /// collections, but a different — cheaper — engine than enumeration).
    Signature,
    /// The memoized residual-state DP (exact like the signature counter,
    /// but pseudo-polynomial on instances whose search trees re-enter the
    /// same residual states — see `confidence::dp`).
    Dp,
    /// The compiled shared-node arithmetic circuit: the DP recursion
    /// materialized once, queried by linear traversals (exact; see
    /// `confidence::circuit`).
    Circuit,
    /// The Metropolis sampler: an estimate, not an exact value.
    Sampled {
        /// Number of recorded samples behind the estimate.
        samples: usize,
    },
    /// The partial-availability interval engine: exact confidence
    /// brackets `[lo, hi]` computed from the reachable sources, with
    /// every unreachable source varied between absent and at its claimed
    /// bounds (see `confidence::intervals`).
    Partial {
        /// Number of sources that stayed unreachable.
        unavailable: usize,
    },
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Exact => write!(f, "exact"),
            Engine::Signature => write!(f, "signature"),
            Engine::Dp => write!(f, "dp"),
            Engine::Circuit => write!(f, "circuit"),
            Engine::Sampled { samples } => write!(f, "sampled ({samples} samples)"),
            Engine::Partial { unavailable } => {
                write!(f, "partial ({unavailable} sources unavailable)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            b.tick("test").unwrap();
        }
        assert_eq!(b.steps(), 10_000);
    }

    #[test]
    fn step_allowance_is_exact() {
        let b = Budget::with_max_steps(10);
        for _ in 0..10 {
            b.tick("test").unwrap();
        }
        let err = b.tick("steps-test").unwrap_err();
        let CoreError::BudgetExceeded { phase, steps, .. } = err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert_eq!(phase, "steps-test");
        assert_eq!(steps, 11);
    }

    #[test]
    fn deadline_trips_within_check_interval() {
        let b = Budget::with_deadline(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        let mut failed_at = None;
        for i in 0..2 * Budget::CHECK_INTERVAL {
            if b.tick("test").is_err() {
                failed_at = Some(i);
                break;
            }
        }
        let failed_at = failed_at.expect("an expired deadline must trip");
        assert!(
            failed_at < Budget::CHECK_INTERVAL,
            "tripped at step {failed_at}"
        );
        // And the forced check fails immediately.
        assert!(b.check("test").is_err());
    }

    #[test]
    fn cancellation_flag_stops_ticking() {
        let b = Budget::unlimited();
        let handle = b.cancel_handle();
        b.check("test").unwrap();
        handle.store(true, Ordering::Relaxed);
        assert!(matches!(
            b.check("test"),
            Err(CoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn renewed_restarts_allotments_but_shares_cancel() {
        let b = Budget::with_deadline(Duration::from_secs(3600)).and_max_steps(5);
        for _ in 0..5 {
            b.tick("test").unwrap();
        }
        assert!(b.tick("test").is_err());
        let fresh = b.renewed();
        assert_eq!(fresh.steps(), 0);
        assert!(fresh.tick("test").is_ok());
        b.cancel_handle().store(true, Ordering::Relaxed);
        assert!(fresh.check("test").is_err(), "cancel flag is shared");
    }

    #[test]
    fn fork_keeps_absolute_deadline_and_shares_cancel() {
        let b = Budget::with_deadline(Duration::from_millis(5)).and_max_steps(1000);
        for _ in 0..10 {
            b.tick("test").unwrap();
        }
        let fork = b.fork();
        // Fresh step counter, same allowance.
        assert_eq!(fork.steps(), 0);
        assert_eq!(b.steps(), 10);
        // The deadline is absolute: once the parent's clock runs out, so
        // does the fork's — no renewal.
        std::thread::sleep(Duration::from_millis(10));
        assert!(fork.check("test").is_err(), "fork shares the deadline");
        // Cancel is shared both ways.
        let b2 = Budget::unlimited();
        let f2 = b2.fork();
        b2.cancel_handle().store(true, Ordering::Relaxed);
        assert!(f2.check("test").is_err(), "cancel flag is shared");
    }

    #[test]
    fn fork_is_send_across_threads() {
        let b = Budget::with_max_steps(100);
        let forks: Vec<Budget> = (0..4).map(|_| b.fork()).collect();
        std::thread::scope(|s| {
            for f in forks {
                s.spawn(move || {
                    for _ in 0..50 {
                        f.tick("test").unwrap();
                    }
                });
            }
        });
    }

    #[test]
    fn elapsed_ns_is_monotone_and_fork_shares_the_clock_origin() {
        let b = Budget::unlimited();
        let t0 = b.elapsed_ns();
        std::thread::sleep(Duration::from_millis(2));
        let t1 = b.elapsed_ns();
        assert!(t1 > t0);
        // A fork reads the same clock: its "now" is at least the
        // parent's earlier reading.
        let f = b.fork();
        assert!(f.elapsed_ns() >= t1);
    }

    #[test]
    fn engine_display() {
        assert_eq!(Engine::Exact.to_string(), "exact");
        assert_eq!(Engine::Signature.to_string(), "signature");
        assert_eq!(Engine::Dp.to_string(), "dp");
        assert_eq!(
            Engine::Sampled { samples: 42 }.to_string(),
            "sampled (42 samples)"
        );
    }
}
