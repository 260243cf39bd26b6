//! Finite relational structures over finite vocabularies.
//!
//! This crate provides the model-theoretic substrate for the reproduction of
//! Kolaitis & Vardi, *On the Expressive Power of Datalog: Tools and a Case
//! Study* (PODS 1990). Everything in the paper — Datalog(≠) semantics, the
//! infinitary logics `L^k`, and the existential pebble games — is defined on
//! finite structures `A = (A, R_1^A, …, R_m^A, c_1^A, …, c_l^A)` over a
//! vocabulary of relation and constant symbols.
//!
//! The main types are:
//! - [`Vocabulary`]: relation symbols with arities plus constant symbols;
//! - [`Structure`]: a universe `{0, …, n-1}` together with an interpretation
//!   of every symbol;
//! - [`TupleStore`]: the shared interned-tuple storage engine backing every
//!   relation representation in the workspace ([`store`]);
//! - [`PartialMap`]: a partial function between two universes, with the
//!   homomorphism checks used by the pebble games ([`hom`]);
//! - [`Digraph`]: a thin directed-graph view used throughout the case study
//!   ([`graph`]);
//! - deterministic generators for the structure families appearing in the
//!   paper's examples ([`generators`]);
//! - the resource-governance layer shared by every solver in the
//!   workspace — budgets, deadlines, cooperative cancellation, and the
//!   chaos fault-injection schedules ([`govern`]);
//! - query plans for demand-driven evaluation ([`plan`]).

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod generators;
pub mod govern;
pub mod graph;
pub mod hom;
pub mod io;
pub mod mutable;
pub mod ops;
pub mod par;
pub mod persist;
pub mod plan;
pub mod rng;
pub mod store;
pub mod structure;
pub mod vocabulary;

pub use govern::{
    Budget, CancelToken, Deadline, Governor, GovernorUsage, Interrupted, LimitExceeded, Meter,
};
pub use graph::Digraph;
pub use hom::{HomKind, PartialMap};
pub use io::{parse_digraph, write_digraph, DigraphParseError};
pub use mutable::{InsertOutcome, MutableStore, RetractOutcome};
pub use ops::{disjoint_union, induced_substructure, quotient};
pub use persist::{LoadedLog, Manifest, RecoveryError, SegmentedLog};
pub use plan::{DemandStrategy, JoinLowering, PlannerMode, QueryPlan};
pub use rng::SplitMix64;
pub use store::{
    gallop, gallop_intersect, gallop_intersect2, gallop_scalar, tuple_hash, CardStats, EvalStats,
    IdRange, PosIndex, StoreView, TupleBloom, TupleId, TupleStore,
};
pub use structure::{Element, Relation, Structure, Tuple};
pub use vocabulary::{ConstId, RelId, Vocabulary};
