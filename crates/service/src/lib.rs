//! Multi-tenant query serving over Datalog(≠) programs.
//!
//! This crate turns the workspace's query stack — [`ProgramQuery`]'s
//! compiled demand evaluation and the [`Governor`] resource-governance
//! layer — plus its own eviction-governed answer cache ([`ClockCache`])
//! into a small serving system: many concurrent reader threads answer
//! boolean queries for independent *tenants* while a single writer
//! applies insert/retract batches to the shared EDB.
//!
//! The three pillars, each mapped to a module:
//!
//! - **Snapshot isolation** ([`snapshot`]): the writer publishes an
//!   immutable [`Snapshot`] — the committed epoch, per-relation
//!   store-length marks, a materialized [`Structure`], and the EDB
//!   position indexes its readers share — at every batch commit. Readers
//!   clone an `Arc` to the current snapshot and evaluate against it
//!   lock-free, so reads never block writes, writes never block reads,
//!   and no reader can observe a half-applied batch: every answer is the
//!   fixpoint of exactly one committed epoch. The first reader to probe a
//!   relation position builds that index into the snapshot; later readers
//!   of the snapshot reuse it, so a cache miss pays for its own demand
//!   fixpoint, not for indexing the EDB.
//! - **Shared result cache** ([`cache`]): one capacity-bounded
//!   [`ClockCache`] keyed by `(query, tuple)` and stamped with the
//!   snapshot epoch serves all tenants. Inserts are validated against the
//!   epoch the reader evaluated under ([`ClockCache::insert_if_epoch`]),
//!   so a batch committing mid-evaluation can only cost a memo, never
//!   poison one. Hits and misses are accounted per tenant.
//! - **QoS admission control** ([`qos`]): each tenant carries a policy —
//!   per-request step budget, per-request deadline, and an admission
//!   credit balance. Every admitted request runs under its own
//!   [`Governor`], so a pathological query costs its tenant an
//!   [`Interrupted::Deadline`] (or budget trip) instead of stalling the
//!   process, and a tenant that exhausts its credits is rejected
//!   deterministically at admission.
//!
//! A std-only line-protocol TCP driver ([`tcp`]) exposes the service to
//! external load generators; the repository benchmark's `serve` workload
//! drives the in-process API directly.
//!
//! [`ProgramQuery`]: kv_core::ProgramQuery
//! [`Governor`]: kv_structures::Governor
//! [`ClockCache`]: cache::ClockCache
//! [`ClockCache::insert_if_epoch`]: cache::ClockCache::insert_if_epoch
//! [`Interrupted::Deadline`]: kv_structures::Interrupted::Deadline
//! [`Structure`]: kv_structures::Structure

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod qos;
pub mod service;
pub mod snapshot;
pub mod tcp;

pub use qos::{RejectReason, TenantId, TenantPolicy};
pub use service::{
    QueryId, QueryService, Request, Response, ServiceBuilder, ServiceMetrics, TenantMetrics,
};
pub use snapshot::{Snapshot, SnapshotMark};
pub use tcp::{ServerHandle, TcpServer};
