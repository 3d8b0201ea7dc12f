//! # pscds-core
//!
//! Querying partially sound and complete data sources — the core of
//! Mendelzon & Mihaila (PODS 2001).
//!
//! A data source is described by a *source descriptor* `⟨φ, v, c, s⟩`
//! (Section 2.3): a view definition `φ` over the global schema, the view
//! extension `v` actually held by the source, and lower bounds `c` on
//! *completeness* and `s` on *soundness* with respect to the unknown global
//! database `D`:
//!
//! ```text
//! c_D(S) = |v ∩ φ(D)| / |φ(D)|   ≥ c        (Definition 2.1)
//! s_D(S) = |v ∩ φ(D)| / |v|      ≥ s        (Definition 2.2)
//! ```
//!
//! A *source collection* `S = {S₁,…,S_n}` induces the set of possible
//! global databases `poss(S)` — all `D` meeting every source's claims.
//! This crate implements the paper's three result groups on top of that
//! semantics:
//!
//! * [`consistency`] — is `poss(S)` non-empty? (Section 3; NP-complete.)
//!   Exhaustive possible-world search bounded by the Lemma 3.1 small-model
//!   bound, plus an exact signature-decomposition solver for the
//!   identity-view case of Corollary 3.4.
//! * [`templates`] — the tableaux-with-constraints representation of
//!   `poss(S)` (Section 4, Theorem 4.1).
//! * [`confidence`] / [`answers`] — certain and possible answers, the
//!   linear system Γ, exact tuple confidence
//!   `confidence_Q(t) = Pr(t ∈ Q(D) | D ∈ poss(S))`, and the compositional
//!   `conf_Q` rules of Definition 5.1 (Section 5).
//!
//! The modules deliberately provide *two* independent implementations of
//! the expensive semantics — a brute-force possible-world oracle and the
//! polynomial signature counter — and the test suite cross-checks them.
//!
//! All of these engines are super-polynomial in the worst case, so every
//! one of them is *governed*: it accepts a [`govern::Budget`] (deadline,
//! step allowance, cooperative cancellation) and unwinds with
//! [`CoreError::BudgetExceeded`] instead of running unbounded. The
//! [`resilient`] front ends run the exact engine under the budget and
//! degrade to a cheaper engine when it trips, tagging every result with
//! the [`govern::Engine`] that produced it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod collection;
pub mod confidence;
pub mod consensus;
pub mod consistency;
pub mod delta;
pub mod descriptor;
pub mod error;
pub mod faults;
pub mod govern;
pub mod measures;
pub mod paper;
pub mod partition;
pub mod resilient;
pub mod source;
pub mod templates;
pub mod textfmt;

/// The observability layer (`pscds-obs`), re-exported so downstream
/// crates reach sessions, sinks, and metric names through `pscds-core`
/// without a separate dependency edge.
pub use pscds_obs as obs;

pub use collection::SourceCollection;
pub use delta::{
    analyze_incremental, analyze_incremental_budgeted, apply_batch_to_catalog, format_delta_stream,
    parse_delta_stream, DeltaBatch, DeltaProvider, DeltaSession, DeltaStats, SourceDelta,
};
pub use descriptor::SourceDescriptor;
pub use error::CoreError;
pub use faults::{FaultPlan, FaultSpec};
pub use govern::{Budget, Engine};
pub use measures::{completeness_of, satisfies, soundness_of, MeasureReport};
pub use partition::ParallelConfig;
pub use resilient::{
    check_resilient, confidence_over_stream, confidence_resilient, confidence_under_faults,
    CheckRung, ConfidenceRung, FaultAwareConfidence, LadderPolicy, ResilientCheck,
    ResilientConfidence,
};
pub use source::{
    AccessPolicy, AccessReport, CatalogProvider, FaultyProvider, SourceAccess, SourceProvider,
};
