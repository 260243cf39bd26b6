//! Datalog(≠): the query language of the paper (Section 2).
//!
//! A Datalog(≠) program is a finite set of rules
//!
//! ```text
//! t0 :- t1, t2, …, tl.
//! ```
//!
//! whose head is an atomic formula over an IDB predicate and whose body
//! literals are atomic formulas (over EDB or IDB predicates), equalities
//! `x = y`, or inequalities `x != y`. Negated atoms are not allowed. Plain
//! Datalog is the fragment without `=`/`≠`.
//!
//! Semantics ([`eval`]) are the least fixpoint of the monotone operator
//! `Θ_A` induced by the rules, computed bottom-up either naively (the
//! paper's stage iteration `Θ¹ ⊆ Θ² ⊆ …`) or by semi-naive evaluation;
//! both produce identical stages, which the `kv-logic` crate consumes for
//! the Theorem 3.6 stage-formula translation.
//!
//! An important paper-faithful detail: rules need not be range-restricted.
//! A head variable that occurs in no body atom (such as `w` in the first
//! rule of Example 2.1's program) ranges over the **entire universe** of the
//! input structure, filtered by the rule's (in)equalities.
//!
//! Goal-directed queries (one distinguished tuple rather than the whole
//! goal relation) can skip most of that fixpoint: the [`magic`] module
//! rewrites a program for a binding pattern so that semi-naive evaluation,
//! seeded with the query's bound values
//! ([`CompiledProgram::run_seeded`]), derives only goal-relevant
//! tuples.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Interrupt errors deliberately carry the resumable checkpoint inline; they
// are cold-path values, so the large `Err` variants are intentional.
#![allow(clippy::result_large_err)]

pub mod ast;
pub mod durable;
pub mod eval;
pub mod incremental;
pub mod magic;
pub mod monotone;
pub mod parser;
pub mod planner;
pub mod program;
pub mod programs;
pub mod sharded;
pub(crate) mod wcoj;

pub use ast::{IdbId, Literal, Pred, Rule, Term, VarId};
pub use durable::{
    CrashPoint, DurabilityOptions, DurableBatchError, DurableEngine, FlushStats, RecoveryReport,
};
pub use eval::{
    CompiledProgram, EdbIndexes, EvalCheckpoint, EvalInterrupted, EvalOptions, EvalResult,
    Evaluator, StageStats,
};
pub use incremental::{BatchInterrupted, BatchSummary, Fact, IncrementalEngine};
pub use kv_structures::RecoveryError;
pub use kv_structures::{
    Budget, CancelToken, Deadline, EvalStats, Governor, Interrupted, JoinLowering, LimitExceeded,
    PlannerMode,
};
pub use magic::{BindingPattern, MagicProgram};
pub use parser::{parse_program, parse_program_strict, ParseError};
pub use planner::SccInfo;
pub use program::{Program, ProgramError};
pub use sharded::ShardStats;
