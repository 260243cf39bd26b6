//! Pebble games: the paper's tool set.
//!
//! - [`game`]: the **existential k-pebble game** of Definition 4.3 between
//!   the Spoiler (Player I) and the Duplicator (Player II), solved in
//!   polynomial time for fixed `k` (Proposition 5.3) by computing the
//!   greatest family of partial one-to-one homomorphisms closed under
//!   subfunctions with the forth property (Definition 4.7). The Datalog
//!   variant with plain homomorphisms (Remark 4.12(1)) is a parameter.
//! - [`play`]: an actual game harness — positions, moves, strategy traits,
//!   random/exhaustive Spoilers — used to validate solver verdicts and the
//!   hand-rolled strategies of Section 6 by adversarial play.
//! - [`preceq`](mod@preceq): the relation `A ≼^k B` ("every `L^k` sentence true in `A`
//!   holds in `B`", Definition 4.1) decided via Theorem 4.8.
//! - [`cnf`], [`cnf_game`]: CNF formulas and the k-pebble game **on Boolean
//!   formulas** of Definition 6.5, the bookkeeping device of Theorem 6.6.
//! - [`acyclic`]: the two-player pebble game on an (acyclic) input graph
//!   that characterizes fixed subgraph homeomorphism (Theorem 6.2), plus
//!   the single-player variant of FHW's Lemma 4.
//! - [`arena`]: the shared configuration arena behind every solver —
//!   level-synchronous parallel generation plus predecessor-indexed
//!   worklist deletion in `O(edges)`. Besides the eager build, the arena
//!   offers a demand-driven lazy solve (`Arena::lazy_solve`) that expands
//!   positions only as needed to decide the root, with dominance pruning
//!   and early termination.
//! - [`win_iteration`]: the paper's literal `Win_k` value iteration,
//!   retained as the ablation/differential partner of the worklist path.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Interrupt errors deliberately carry the resumable checkpoint inline; they
// are cold-path values, so the large `Err` variants are intentional.
#![allow(clippy::result_large_err)]

pub mod acyclic;
pub mod arena;
pub mod cnf;
pub mod cnf_game;
pub mod cnf_play;
pub mod game;
mod lazy;
pub mod play;
pub mod preceq;
pub mod win_iteration;

pub use acyclic::{AcyclicCheckpoint, AcyclicGame, AcyclicInterrupted, PatternSpec};
pub use arena::{ArenaCheckpoint, ArenaInterrupted};
pub use cnf::{clause, CnfFormula, Lit};
pub use cnf_game::{CnfGame, CnfGameCheckpoint, CnfGameInterrupted};
pub use cnf_play::{
    play_cnf_game, AssignmentDuplicator, CnfDuplicator, CnfFamilyDuplicator, CnfMove, CnfSpoiler,
    RandomCnfSpoiler,
};
pub use game::{DeathReason, ExistentialGame, GameCheckpoint, GameInterrupted, Winner};
pub use kv_structures::{Budget, CancelToken, Deadline, Governor, Interrupted};
pub use play::{
    play_game, DuplicatorStrategy, ExhaustiveSpoiler, FamilyDuplicator, GamePosition,
    HomomorphismDuplicator, RandomSpoiler, SolverSpoiler, SpoilerMove, SpoilerStrategy,
};
pub use preceq::preceq;
pub use win_iteration::{solve_by_win_iteration, solve_by_worklist};
