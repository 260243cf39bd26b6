//! Facade crate: the complete toolkit of the Kolaitis–Vardi (PODS 1990)
//! reproduction.
//!
//! Re-exports every subsystem and adds the cross-cutting glue:
//!
//! - [`query`]: [`ProgramQuery`], a Datalog(≠) program used as a boolean
//!   query on finite structures;
//! - [`pattern_based`]: pattern-based queries (Definition 5.1) and the
//!   game-based evaluation of Proposition 5.4 / Theorem 5.5;
//! - [`dichotomy`]: the end-to-end classification of fixed subgraph
//!   homeomorphism queries — class `C` membership, the method that decides
//!   each side, and machine-checkable inexpressibility witnesses for the
//!   `C̄` side (Theorems 6.6/6.7 + Lemma 6.3).
//!
//! Crate map (bottom-up): [`structures`] → [`graphalg`] → [`datalog`],
//! [`logic`], [`pebble`] → [`homeo`], [`reduction`] → this crate.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub use kv_datalog as datalog;
pub use kv_graphalg as graphalg;
pub use kv_homeo as homeo;
pub use kv_logic as logic;
pub use kv_pebble as pebble;
pub use kv_reduction as reduction;
pub use kv_structures as structures;

pub mod dichotomy;
pub mod pattern_based;
pub mod query;

pub use dichotomy::{classify_and_report, negative_witness, DichotomyReport, Expressibility};
pub use kv_datalog::{
    BatchInterrupted, BatchSummary, CrashPoint, DurabilityOptions, DurableBatchError,
    DurableEngine, Fact, FlushStats, IncrementalEngine, RecoveryError, RecoveryReport,
};
pub use kv_structures::{DemandStrategy, QueryPlan};
pub use pattern_based::PatternBasedQuery;
pub use query::ProgramQuery;
