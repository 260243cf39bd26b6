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
//!   immutable [`Snapshot`] — the committed epoch, a materialized
//!   [`Structure`], the EDB position indexes its readers share, and an
//!   empty answer cache — at every batch commit, swapping one `Arc` under
//!   one lock. Readers clone the `Arc` to the current snapshot and
//!   evaluate against it lock-free, so reads never block writes, writes
//!   never block reads, and no reader can observe a half-applied batch:
//!   every answer is the fixpoint of exactly one committed epoch. The
//!   first reader to probe a relation position builds that index into
//!   the snapshot; later readers of the snapshot reuse it, so a cache
//!   miss pays for its own demand fixpoint, not for indexing the EDB.
//! - **Per-snapshot result cache** ([`cache`]): each snapshot's
//!   capacity-bounded [`ClockCache`], keyed by `(query, tuple)`, serves
//!   all tenants reading that snapshot. A reader looks up and memoizes in
//!   the cache of the snapshot it evaluated against, so an answer can
//!   only be served at the epoch it was computed for; a batch committing
//!   mid-evaluation costs at most a memo nobody reads. Hits and misses
//!   are accounted per tenant, and capacity evictions over the service's
//!   life.
//! - **QoS admission control** ([`qos`]): each tenant carries a policy —
//!   per-request step budget, per-request deadline, and an admission
//!   credit balance. Every admitted request runs under its own
//!   [`Governor`], so a pathological query costs its tenant an
//!   [`Interrupted::Deadline`] (or budget trip) instead of stalling the
//!   process, and a tenant that exhausts its credits is rejected
//!   deterministically at admission. So is a request whose tuple leaves
//!   the EDB's universe.
//!
//! A std-only line-protocol TCP driver ([`tcp`]) exposes the service to
//! external load generators; the repository benchmark's `serve` workload
//! drives the in-process API directly.
//!
//! [`ProgramQuery`]: kv_core::ProgramQuery
//! [`Governor`]: kv_structures::Governor
//! [`ClockCache`]: cache::ClockCache
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
pub use snapshot::Snapshot;
pub use tcp::{ServerHandle, TcpServer};
