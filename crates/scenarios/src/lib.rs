//! Scenario conformance harness for the IUAD pipeline.
//!
//! The benchmark corpus validates one regime; the ROADMAP north-star
//! demands correctness across *every* regime we can imagine. This crate
//! stress-tests the full [`iuad_core::Iuad::fit`] pipeline over the
//! adversarial scenario matrix of [`iuad_corpus::scenario`] with three
//! layers of machine-checkable evidence:
//!
//! 1. **Metamorphic invariants** ([`invariants`]) — properties that must
//!    hold for *any* corpus: total name-pure partitioning, bit-identical
//!    fits at every thread/chunk configuration, exact Stage-1 invariance
//!    under paper-order permutation (and bounded full-pipeline drift, since
//!    embedding training is order-sensitive), duplicate-mention
//!    co-clustering, monotone B³ recall under oracle merges, bit-identity
//!    of the epoch publish's in-place engine refresh against a full
//!    rebuild, and batch-vs-incremental interface consistency.
//! 2. **Differential oracles** ([`differential`]) — IUAD scored against
//!    every baseline plus the trivial all-split / all-merged partitions and
//!    the ground-truth oracle, on pairwise F1, B³, and the K-metric. The
//!    oracle rows pin the metric plumbing (truth scores exactly 1.0); the
//!    baseline rows make regressions *relative*, not just absolute.
//! 3. **Golden fingerprints** ([`golden`]) — the fitted network's
//!    [`iuad_serve::partition_fingerprint`] per scenario (the one canonical
//!    partition hash, shared with the serving daemon and the benchmark),
//!    committed and asserted by `tests/scenarios.rs`, so a behaviour change
//!    localises to a named scenario instead of "the test failed".
//!
//! [`runner::run_scenario`] executes all three layers for one scenario and
//! returns a serialisable [`runner::ScenarioOutcome`]; the `iuad-bench`
//! crate aggregates the outcomes into the `SCENARIOS.json` scorecard.

#![warn(missing_docs)]

pub mod differential;
pub mod fingerprint;
pub mod golden;
pub mod invariants;
pub mod runner;

pub use differential::{score_scenario_methods, MethodScore};
pub use fingerprint::canonical_labels;
pub use golden::golden_fingerprint;
pub use invariants::{InvariantReport, InvariantStatus};
pub use runner::{run_scenario, IncrementalOutcome, ScenarioOutcome};
