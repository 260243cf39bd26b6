//! Per-tenant quality-of-service policies and admission control.
//!
//! Every request names a [`TenantId`]; the tenant's [`TenantPolicy`] fixes
//! three independent guards:
//!
//! - a **per-request step budget**, enforced by the request's
//!   [`Governor`](kv_structures::Governor) — a runaway query trips
//!   [`Interrupted::Limit`](kv_structures::Interrupted::Limit) and only
//!   that request fails;
//! - a **per-request deadline** — a slow query gets
//!   [`Interrupted::Deadline`](kv_structures::Interrupted::Deadline), not
//!   a stalled process;
//! - an **admission credit balance**, debited by each request's measured
//!   governor steps (minimum one credit per admitted request, so even
//!   all-cache-hit traffic drains it). A tenant at zero credits is
//!   rejected *before* any evaluation — deterministic back-pressure that
//!   costs the service nothing.
//!
//! Credits are a coarse fairness mechanism, not a scheduler: the point is
//! that one tenant's burst cannot starve the cache or the CPU for everyone
//! else, and that the cutoff is reproducible (same request sequence, same
//! rejection point).

use std::time::Duration;

/// Identifies a registered tenant (dense index into the service's tenant
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Why a request was refused at admission, before any evaluation work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request named a tenant id the service does not know.
    UnknownTenant,
    /// The request named a query id the service does not know.
    UnknownQuery,
    /// The request tuple's arity does not match the query's goal arity.
    ArityMismatch,
    /// A request tuple element lies outside the EDB's universe.
    OutOfUniverse,
    /// The tenant's admission credit balance is exhausted.
    OutOfCredits,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::UnknownTenant => "unknown-tenant",
            RejectReason::UnknownQuery => "unknown-query",
            RejectReason::ArityMismatch => "arity-mismatch",
            RejectReason::OutOfUniverse => "out-of-universe",
            RejectReason::OutOfCredits => "out-of-credits",
        };
        f.write_str(s)
    }
}

/// A tenant's resource envelope.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Display name (shows up in metrics and reports).
    pub name: String,
    /// Governor step budget per request; `u64::MAX` = unlimited.
    pub step_budget: u64,
    /// Wall-clock deadline per request; `None` = none.
    pub deadline: Option<Duration>,
    /// Admission credit balance, in governor steps. `u64::MAX` =
    /// effectively never rejected.
    pub credits: u64,
}

impl TenantPolicy {
    /// A policy with no limits at all — useful for trusted in-process
    /// callers and as a builder seed.
    pub fn unlimited(name: impl Into<String>) -> Self {
        TenantPolicy {
            name: name.into(),
            step_budget: u64::MAX,
            deadline: None,
            credits: u64::MAX,
        }
    }

    /// Caps each request's governor steps.
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.step_budget = steps;
        self
    }

    /// Caps each request's wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the admission credit balance.
    pub fn with_credits(mut self, credits: u64) -> Self {
        self.credits = credits;
        self
    }
}

/// Mutable admission-time state for one tenant (guarded by the service's
/// admission lock).
#[derive(Debug, Clone)]
pub(crate) struct TenantAccount {
    /// Remaining admission credits.
    pub credits: u64,
}

impl TenantAccount {
    pub(crate) fn new(policy: &TenantPolicy) -> Self {
        TenantAccount {
            credits: policy.credits,
        }
    }

    /// True iff the tenant may be admitted (at least one credit left).
    pub(crate) fn admissible(&self) -> bool {
        self.credits > 0
    }

    /// Debits the measured cost of a completed request: `max(1, steps)`
    /// credits, saturating at zero.
    pub(crate) fn charge(&mut self, steps: u64) {
        if self.credits != u64::MAX {
            self.credits = self.credits.saturating_sub(steps.max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_saturates_and_floors_at_one() {
        let policy = TenantPolicy::unlimited("t").with_credits(3);
        let mut acct = TenantAccount::new(&policy);
        assert!(acct.admissible());
        acct.charge(0); // cache hit still costs one credit
        assert_eq!(acct.credits, 2);
        acct.charge(10);
        assert_eq!(acct.credits, 0);
        assert!(!acct.admissible());
    }

    #[test]
    fn unlimited_credits_never_drain() {
        let mut acct = TenantAccount::new(&TenantPolicy::unlimited("t"));
        acct.charge(u64::MAX);
        assert!(acct.admissible());
    }
}
