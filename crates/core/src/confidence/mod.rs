//! Tuple confidence (Section 5): exact possible-world semantics.
//!
//! The paper defines the confidence of a fact `t` as
//! `Pr(t ∈ Q(D) | D ∈ poss(S))` for a database `D` drawn uniformly from the
//! possible worlds, and shows that in the identity-view/finite-domain case
//! it reduces to counting 0/1 solutions of a linear system Γ:
//!
//! ```text
//! confidence(t_p) = N_sol(Γ[x_p/1]) / N_sol(Γ)
//! ```
//!
//! Three independent implementations live here, in increasing
//! sophistication; the test suite cross-checks them pairwise:
//!
//! * [`worlds`] — the brute-force oracle: enumerate every subset of the
//!   fact universe, filter by `poss(S)` membership, count. Exponential in
//!   the universe size; ground truth for everything else.
//! * [`gamma`] — the explicit linear system Γ of Section 5.1, materialized
//!   inequality by inequality, with a 0/1 brute-force counter. This is the
//!   paper's own formulation made executable.
//! * [`signature`] / [`counting`] — the production counter: tuples with
//!   the same *membership signature* across sources are exchangeable, so
//!   worlds are counted per signature class with binomial weights. For a
//!   fixed number of sources this is polynomial in the domain size, which
//!   is what lets experiment E1 verify Example 5.1 at `m = 10⁶` where the
//!   oracle dies at `m ≈ 20`.
//! * [`closed_form`] — the printed Example 5.1 formulas (both as published
//!   and as re-derived; see `EXPERIMENTS.md` for the erratum).
//! * [`sampling`] — a Metropolis estimator over count vectors for
//!   instances whose feasible region is too large to enumerate exactly
//!   (exact counting is #P-hard); validated against the exact counter.
//! * [`dp`] — the signature counter swept level by level over residual
//!   states, each visited once: exact like the DFS, but
//!   pseudo-polynomial on instances whose search trees re-enter the same
//!   residuals (padded domains, wide slack classes).
//! * [`circuit`] — the same residual states (keyed by the private
//!   `residual` module), walked once into a shared-node arithmetic
//!   circuit; per-tuple, conditional, and top-k confidences
//!   are then linear traversals, so one compile amortizes across many
//!   queries.

pub mod circuit;
pub mod closed_form;
pub mod counting;
pub mod dp;
pub mod gamma;
pub mod intervals;
mod residual;
pub mod sampling;
pub mod signature;
pub mod worlds;

pub use circuit::{
    analyze_circuit, analyze_circuit_budgeted, analyze_circuit_conditional,
    analyze_circuit_conditional_budgeted, analyze_circuit_topk, analyze_circuit_topk_budgeted,
    compile_circuit, CircuitConfig, CircuitStats, CompiledCircuit, CompiledCollection,
};
pub use counting::ConfidenceAnalysis;
pub use dp::{count_dp_observed, count_dp_shared, DpConfig, DpStats, SharedDpCache};
pub use gamma::LinearSystem;
pub use intervals::{
    count_intervals, count_intervals_observed, ConfidenceInterval, IntervalAnalysis, TupleInterval,
};
pub use sampling::{
    sample_confidences, sample_confidences_budgeted, SampledConfidence, SamplerConfig,
};
pub use signature::{SignatureAnalysis, SignatureClass};
pub use worlds::PossibleWorlds;
