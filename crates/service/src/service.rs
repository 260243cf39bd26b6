//! The in-process multi-tenant query service.
//!
//! One [`QueryService`] owns the EDB (per-relation [`MutableStore`]s
//! behind a writer lock), a set of registered [`ProgramQuery`]s, a tenant
//! table, and the currently published [`Snapshot`], which carries the
//! answer cache of its epoch. The concurrency contract:
//!
//! - **Readers never block writers, writers never block readers.** A
//!   reader's only contact with shared mutable state is three short
//!   critical sections: cloning the published snapshot `Arc`, one lookup
//!   in that snapshot's cache, and the admission debit. A miss adds two
//!   more, reading (or replacing) its query's memoized plan and
//!   memoizing its answer. Evaluation itself runs against the immutable
//!   snapshot with no lock held.
//! - **Readers share a snapshot's indexes and a query's plan.** A cache
//!   miss evaluates through the snapshot's
//!   [`EdbIndexes`](kv_datalog::EdbIndexes): the first miss to probe a
//!   relation position builds its index, and every later miss on the
//!   snapshot reuses it, so a miss costs its demand fixpoint rather than
//!   a pass over the EDB. Readers that race the first probe of one
//!   position wait for a single build. A miss also runs the cost-based
//!   plan its query's demand program memoized for the same EDB
//!   statistics (see [`kv_datalog::CompiledProgram`]), so it re-plans
//!   only when a writer epoch changed them.
//! - **No torn reads.** Every answer is computed against (or cached from)
//!   the fixpoint of exactly one committed epoch; the epoch is returned
//!   with the answer. A reader holding an old snapshot keeps it alive
//!   through the `Arc` for as long as its evaluation takes.
//! - **A cache answers only for its own snapshot.** A reader looks up and
//!   memoizes in the cache of the snapshot it evaluated against, and a
//!   commit publishes a new snapshot with an empty cache. A batch
//!   committing mid-evaluation therefore costs at most a memo stored
//!   where no later request looks.

use crate::qos::{RejectReason, TenantAccount, TenantId, TenantPolicy};
use crate::snapshot::{CacheKey, Snapshot};
use kv_core::ProgramQuery;
use kv_datalog::Fact;
use kv_structures::{
    Budget, CancelToken, Deadline, Element, Governor, Interrupted, MutableStore, RelId,
    RetractOutcome, Structure, Vocabulary,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies a registered query (dense index into the service's query
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

/// One tenant request: evaluate registered query `query` at `tuple`.
#[derive(Debug, Clone)]
pub struct Request {
    /// The requesting tenant.
    pub tenant: TenantId,
    /// The registered query to evaluate.
    pub query: QueryId,
    /// The goal tuple to test for membership.
    pub tuple: Vec<Element>,
}

/// The service's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The query was evaluated (or served from cache) against the
    /// fixpoint of epoch `epoch`.
    Answer {
        /// Whether the goal tuple holds.
        holds: bool,
        /// The committed epoch the answer reflects.
        epoch: u64,
        /// Whether the shared cache served the answer.
        cached: bool,
    },
    /// Refused at admission, before any evaluation.
    Rejected(RejectReason),
    /// Admitted but stopped by the request's own governor; the tenant's
    /// budget or deadline tripped, nobody else was affected.
    Interrupted(Interrupted),
}

/// What a committed batch did, as seen by the writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// The epoch this batch committed as.
    pub epoch: u64,
    /// Inserts that changed the live tuple set (not multiplicity bumps).
    pub inserted: usize,
    /// Retracts that killed a live tuple (support reached zero).
    pub retracted: usize,
    /// Retracts of tuples that were not live (ignored, counted).
    pub retract_misses: usize,
}

/// A point-in-time copy of one tenant's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMetrics {
    /// The tenant's display name.
    pub name: String,
    /// Requests received (including rejected ones).
    pub requests: u64,
    /// Requests served from the shared cache.
    pub cache_hits: u64,
    /// Requests that evaluated (cache miss).
    pub cache_misses: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests stopped by the per-request governor.
    pub interrupted: u64,
    /// Admission credits debited so far.
    pub credits_spent: u64,
    /// Admission credits remaining (`u64::MAX` = unlimited).
    pub credits_left: u64,
}

/// A point-in-time copy of the service-wide counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Requests received.
    pub requests: u64,
    /// Requests answered (cached or evaluated).
    pub answered: u64,
    /// Answers served from the shared cache.
    pub cache_hits: u64,
    /// Answers that required evaluation.
    pub cache_misses: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests stopped by their governor.
    pub interrupted: u64,
    /// Batches committed by the writer.
    pub batches: u64,
    /// The currently published epoch.
    pub epoch: u64,
    /// Answer-cache counters.
    pub cache: CacheStats,
    /// Per-tenant counters, indexed by [`TenantId`].
    pub tenants: Vec<TenantMetrics>,
}

/// Answer-cache counters in [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Answers memoized at the published epoch.
    pub entries: u64,
    /// Entries dropped by capacity pressure over the service's life.
    /// A commit's empty cache evicts nothing.
    pub evictions: u64,
}

/// Atomic per-tenant counters (lock-free on the read path).
#[derive(Debug, Default)]
struct TenantCounters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    interrupted: AtomicU64,
    credits_spent: AtomicU64,
}

#[derive(Debug, Default)]
struct ServiceCounters {
    requests: AtomicU64,
    answered: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    interrupted: AtomicU64,
    batches: AtomicU64,
    evictions: AtomicU64,
}

/// A registered query: its goal arity and the compiled [`ProgramQuery`]
/// (shared immutably by all reader threads).
struct RegisteredQuery {
    arity: usize,
    query: Arc<ProgramQuery>,
}

/// Builds a [`QueryService`]: the initial EDB, the query table, the
/// tenant table, and the cache capacity are fixed at build time (the EDB
/// keeps mutating through [`QueryService::apply_batch`]).
pub struct ServiceBuilder {
    initial: Structure,
    queries: Vec<RegisteredQuery>,
    by_name: HashMap<String, QueryId>,
    tenants: Vec<TenantPolicy>,
    cache_capacity: Option<usize>,
}

impl ServiceBuilder {
    /// Starts a service over a copy of `initial` as the epoch-0 EDB.
    pub fn new(initial: &Structure) -> Self {
        ServiceBuilder {
            initial: initial.clone(),
            queries: Vec::new(),
            by_name: HashMap::new(),
            tenants: Vec::new(),
            cache_capacity: None,
        }
    }

    /// Registers a query under `name`. The query's vocabulary must match
    /// the service EDB's.
    ///
    /// # Panics
    /// Panics on a duplicate name or a vocabulary mismatch.
    pub fn register_query(&mut self, name: impl Into<String>, query: ProgramQuery) -> QueryId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate query name {name:?}"
        );
        assert_eq!(
            query.program().vocabulary().as_ref(),
            self.initial.vocabulary().as_ref(),
            "query vocabulary must match the service EDB"
        );
        let arity = query.program().idb_arity(query.program().goal());
        let id = QueryId(self.queries.len() as u32);
        self.by_name.insert(name, id);
        self.queries.push(RegisteredQuery {
            arity,
            query: Arc::new(query),
        });
        id
    }

    /// Registers a tenant with the given policy.
    pub fn register_tenant(&mut self, policy: TenantPolicy) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(policy);
        id
    }

    /// Bounds each epoch's answer cache at `capacity` entries (clock
    /// eviction when full). Unbounded by default.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Builds the service and publishes the epoch-0 snapshot.
    pub fn build(self) -> QueryService {
        let vocabulary = Arc::clone(self.initial.vocabulary());
        let universe = self.initial.universe_size();
        let constants = self.initial.constant_values().to_vec();
        let mut stores: Vec<MutableStore> = vocabulary
            .relations()
            .map(|rel| MutableStore::new(vocabulary.arity(rel)))
            .collect();
        for rel in vocabulary.relations() {
            for tuple in self.initial.relation(rel).iter() {
                stores[rel.0].insert(tuple);
            }
        }
        // The stores hold exactly the initial tuples, interned in the
        // initial structure's id order, so it already is the epoch-0
        // snapshot's structure: adopt it instead of capturing a copy.
        let snapshot = Snapshot::adopt(self.initial, 0, self.cache_capacity);
        let accounts = self.tenants.iter().map(TenantAccount::new).collect();
        let tenant_counters = (0..self.tenants.len())
            .map(|_| TenantCounters::default())
            .collect();
        QueryService {
            vocabulary,
            universe,
            constants,
            queries: self.queries,
            by_name: self.by_name,
            tenants: self.tenants,
            tenant_counters,
            cache_capacity: self.cache_capacity,
            writer: Mutex::new(stores),
            published: Mutex::new(Arc::new(snapshot)),
            accounts: Mutex::new(accounts),
            counters: ServiceCounters::default(),
        }
    }
}

/// A multi-tenant, snapshot-isolated query service (see the
/// [module docs](self)).
pub struct QueryService {
    vocabulary: Arc<Vocabulary>,
    universe: usize,
    constants: Vec<Element>,
    queries: Vec<RegisteredQuery>,
    by_name: HashMap<String, QueryId>,
    tenants: Vec<TenantPolicy>,
    tenant_counters: Vec<TenantCounters>,
    cache_capacity: Option<usize>,
    writer: Mutex<Vec<MutableStore>>,
    published: Mutex<Arc<Snapshot>>,
    accounts: Mutex<Vec<TenantAccount>>,
    counters: ServiceCounters,
}

impl QueryService {
    fn lock_published(&self) -> MutexGuard<'_, Arc<Snapshot>> {
        self.published
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_accounts(&self) -> MutexGuard<'_, Vec<TenantAccount>> {
        self.accounts
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_writer(&self) -> MutexGuard<'_, Vec<MutableStore>> {
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resolves a registered query by name.
    pub fn query_id(&self, name: &str) -> Option<QueryId> {
        self.by_name.get(name).copied()
    }

    /// The currently published snapshot. Cheap (`Arc` clone); the
    /// returned snapshot stays valid forever, it just stops being
    /// current.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.lock_published())
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.lock_published().epoch()
    }

    /// Resets a tenant's admission credit balance (operator action; the
    /// policy's configured balance is unchanged).
    pub fn set_credits(&self, tenant: TenantId, credits: u64) {
        if let Some(acct) = self.lock_accounts().get_mut(tenant.0 as usize) {
            acct.credits = credits;
        }
    }

    /// Serves one request end to end: admission → snapshot → the
    /// snapshot's cache → governed evaluation → memoization in the same
    /// cache → debit.
    pub fn serve(&self, request: &Request) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let Some(tenant) = self.tenants.get(request.tenant.0 as usize) else {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Response::Rejected(RejectReason::UnknownTenant);
        };
        let tc = &self.tenant_counters[request.tenant.0 as usize];
        tc.requests.fetch_add(1, Ordering::Relaxed);
        let Some(registered) = self.queries.get(request.query.0 as usize) else {
            return self.reject(tc, RejectReason::UnknownQuery);
        };
        if request.tuple.len() != registered.arity {
            return self.reject(tc, RejectReason::ArityMismatch);
        }
        if request.tuple.iter().any(|&e| e as usize >= self.universe) {
            return self.reject(tc, RejectReason::OutOfUniverse);
        }
        // Admission: a tenant at zero credits is turned away before the
        // service spends anything on it.
        if !self.lock_accounts()[request.tenant.0 as usize].admissible() {
            return self.reject(tc, RejectReason::OutOfCredits);
        }

        let snapshot = self.snapshot();
        let key: CacheKey = (request.query.0, request.tuple.clone().into_boxed_slice());

        let cached = snapshot.cache().get(&key);
        if let Some(holds) = cached {
            self.charge(request.tenant, 0);
            tc.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.counters.answered.fetch_add(1, Ordering::Relaxed);
            return Response::Answer {
                holds,
                epoch: snapshot.epoch(),
                cached: true,
            };
        }
        tc.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Governed evaluation against the immutable snapshot and its
        // shared indexes — no lock held, concurrent with every other
        // reader and the writer.
        let gov = governor_for(tenant);
        let outcome = registered.query.try_eval_at_indexed(
            snapshot.edb(),
            snapshot.edb_indexes(),
            &request.tuple,
            &gov,
        );
        self.charge(request.tenant, gov.usage().steps);
        match outcome {
            Ok(holds) => {
                if snapshot.cache().insert(key, holds) {
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                self.counters.answered.fetch_add(1, Ordering::Relaxed);
                Response::Answer {
                    holds,
                    epoch: snapshot.epoch(),
                    cached: false,
                }
            }
            Err(reason) => {
                tc.interrupted.fetch_add(1, Ordering::Relaxed);
                self.counters.interrupted.fetch_add(1, Ordering::Relaxed);
                Response::Interrupted(reason)
            }
        }
    }

    fn reject(&self, tc: &TenantCounters, reason: RejectReason) -> Response {
        tc.rejected.fetch_add(1, Ordering::Relaxed);
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Response::Rejected(reason)
    }

    /// Debits `steps` (minimum one credit) from the tenant's account.
    fn charge(&self, tenant: TenantId, steps: u64) {
        self.lock_accounts()[tenant.0 as usize].charge(steps);
        self.tenant_counters[tenant.0 as usize]
            .credits_spent
            .fetch_add(steps.max(1), Ordering::Relaxed);
    }

    /// Applies one batch — retracts first, then inserts, the canonical
    /// order — commits it as the next epoch, and publishes the new
    /// snapshot. Concurrent readers keep serving the previous snapshot
    /// until the publish instant and are never blocked.
    ///
    /// # Panics
    /// Panics on a fact whose arity or elements do not fit the EDB. Every
    /// fact is checked before any store changes, so a rejected batch
    /// leaves no trace.
    pub fn apply_batch(&self, inserts: &[Fact], retracts: &[Fact]) -> BatchOutcome {
        for (rel, tuple) in retracts.iter().chain(inserts) {
            self.validate(*rel, tuple);
        }
        let mut stores = self.lock_writer();
        let mut retracted = 0usize;
        let mut retract_misses = 0usize;
        for (rel, tuple) in retracts {
            match stores[rel.0].retract(tuple) {
                RetractOutcome::Died(_) => retracted += 1,
                RetractOutcome::Decremented(_) => {}
                RetractOutcome::Absent => retract_misses += 1,
            }
        }
        let mut inserted = 0usize;
        for (rel, tuple) in inserts {
            if stores[rel.0].insert(tuple).is_new() {
                inserted += 1;
            }
        }
        // Only this writer publishes, and it holds the writer lock, so the
        // published epoch cannot move under it.
        let epoch = self.epoch() + 1;
        let snapshot = Arc::new(Snapshot::capture(
            &self.vocabulary,
            self.universe,
            &self.constants,
            &stores,
            epoch,
            self.cache_capacity,
        ));
        let retired = std::mem::replace(&mut *self.lock_published(), snapshot);
        // Released after the lock: freeing the old snapshot's structure,
        // indexes and cache (when no reader still holds it) never delays a
        // reader's snapshot lookup.
        drop(retired);
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        BatchOutcome {
            epoch,
            inserted,
            retracted,
            retract_misses,
        }
    }

    fn validate(&self, rel: RelId, tuple: &[Element]) {
        assert_eq!(
            tuple.len(),
            self.vocabulary.arity(rel),
            "fact arity must match the relation"
        );
        assert!(
            tuple.iter().all(|&e| (e as usize) < self.universe),
            "fact elements must lie in the universe"
        );
    }

    /// A point-in-time copy of every counter.
    pub fn metrics(&self) -> ServiceMetrics {
        let snapshot = self.snapshot();
        let cache = CacheStats {
            entries: snapshot.cache().len() as u64,
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        };
        let accounts = self.lock_accounts().clone();
        let tenants = self
            .tenants
            .iter()
            .zip(&self.tenant_counters)
            .zip(&accounts)
            .map(|((policy, tc), acct)| TenantMetrics {
                name: policy.name.clone(),
                requests: tc.requests.load(Ordering::Relaxed),
                cache_hits: tc.cache_hits.load(Ordering::Relaxed),
                cache_misses: tc.cache_misses.load(Ordering::Relaxed),
                rejected: tc.rejected.load(Ordering::Relaxed),
                interrupted: tc.interrupted.load(Ordering::Relaxed),
                credits_spent: tc.credits_spent.load(Ordering::Relaxed),
                credits_left: acct.credits,
            })
            .collect();
        ServiceMetrics {
            requests: self.counters.requests.load(Ordering::Relaxed),
            answered: self.counters.answered.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            interrupted: self.counters.interrupted.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            epoch: snapshot.epoch(),
            cache,
            tenants,
        }
    }
}

/// Builds the per-request governor from a tenant's policy.
fn governor_for(policy: &TenantPolicy) -> Governor {
    let budget = if policy.step_budget == u64::MAX {
        Budget::UNLIMITED
    } else {
        Budget::steps(policy.step_budget)
    };
    let deadline = match policy.deadline {
        Some(d) => Deadline::within(d),
        None => Deadline::NONE,
    };
    Governor::new(budget, deadline, CancelToken::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_core::ProgramQuery;
    use kv_datalog::programs::transitive_closure;
    use kv_structures::generators::directed_path;
    use std::time::Duration;

    fn tc_service(tenants: Vec<TenantPolicy>) -> (QueryService, QueryId, Vec<TenantId>) {
        let mut builder = ServiceBuilder::new(&directed_path(4));
        let q = builder.register_query(
            "tc",
            ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 3]),
        );
        let ids = tenants
            .into_iter()
            .map(|t| builder.register_tenant(t))
            .collect();
        (builder.build(), q, ids)
    }

    fn req(tenant: TenantId, query: QueryId, tuple: Vec<Element>) -> Request {
        Request {
            tenant,
            query,
            tuple,
        }
    }

    #[test]
    fn serves_any_goal_tuple_and_memoizes_repeats() {
        let (svc, q, ids) = tc_service(vec![TenantPolicy::unlimited("t0")]);
        let first = svc.serve(&req(ids[0], q, vec![0, 3]));
        assert_eq!(
            first,
            Response::Answer {
                holds: true,
                epoch: 0,
                cached: false
            }
        );
        let second = svc.serve(&req(ids[0], q, vec![0, 3]));
        assert_eq!(
            second,
            Response::Answer {
                holds: true,
                epoch: 0,
                cached: true
            }
        );
        // A different goal tuple through the same compiled query.
        let reverse = svc.serve(&req(ids[0], q, vec![3, 0]));
        assert_eq!(
            reverse,
            Response::Answer {
                holds: false,
                epoch: 0,
                cached: false
            }
        );
        let m = svc.metrics();
        assert_eq!((m.requests, m.answered), (3, 3));
        assert_eq!((m.cache_hits, m.cache_misses), (1, 2));
    }

    #[test]
    fn batches_advance_the_epoch_and_stale_out_the_cache() {
        let (svc, q, ids) = tc_service(vec![TenantPolicy::unlimited("t0")]);
        assert_eq!(
            svc.serve(&req(ids[0], q, vec![3, 0])),
            Response::Answer {
                holds: false,
                epoch: 0,
                cached: false
            }
        );
        let e = RelId(0);
        let outcome = svc.apply_batch(&[(e, vec![3, 0])], &[]);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.inserted, 1);
        // The pre-batch cached answer must not leak past the commit.
        assert_eq!(
            svc.serve(&req(ids[0], q, vec![3, 0])),
            Response::Answer {
                holds: true,
                epoch: 1,
                cached: false
            }
        );
        let outcome = svc.apply_batch(&[], &[(e, vec![3, 0])]);
        assert_eq!((outcome.epoch, outcome.retracted), (2, 1));
        assert_eq!(
            svc.serve(&req(ids[0], q, vec![3, 0])),
            Response::Answer {
                holds: false,
                epoch: 2,
                cached: false
            }
        );
    }

    #[test]
    fn out_of_credits_rejects_deterministically() {
        let (svc, q, ids) = tc_service(vec![
            TenantPolicy::unlimited("bounded").with_credits(1),
            TenantPolicy::unlimited("free"),
        ]);
        assert!(matches!(
            svc.serve(&req(ids[0], q, vec![0, 3])),
            Response::Answer { .. }
        ));
        // The single credit is spent: every further request is refused at
        // admission, and other tenants are untouched.
        for _ in 0..3 {
            assert_eq!(
                svc.serve(&req(ids[0], q, vec![0, 3])),
                Response::Rejected(RejectReason::OutOfCredits)
            );
        }
        assert!(matches!(
            svc.serve(&req(ids[1], q, vec![0, 3])),
            Response::Answer { .. }
        ));
        let m = svc.metrics();
        assert_eq!(m.rejected, 3);
        assert_eq!(m.tenants[0].rejected, 3);
        assert_eq!(m.tenants[0].credits_left, 0);
        assert_eq!(m.tenants[1].rejected, 0);
        // Refilling re-admits.
        svc.set_credits(ids[0], 10);
        assert!(matches!(
            svc.serve(&req(ids[0], q, vec![0, 3])),
            Response::Answer { .. }
        ));
    }

    #[test]
    fn a_tripped_budget_hurts_only_its_own_request() {
        let (svc, q, ids) = tc_service(vec![
            TenantPolicy::unlimited("tiny").with_step_budget(1),
            TenantPolicy::unlimited("free"),
        ]);
        assert!(matches!(
            svc.serve(&req(ids[0], q, vec![0, 3])),
            Response::Interrupted(Interrupted::Limit(_))
        ));
        assert!(matches!(
            svc.serve(&req(ids[1], q, vec![0, 3])),
            Response::Answer { holds: true, .. }
        ));
        let m = svc.metrics();
        assert_eq!(m.interrupted, 1);
        assert_eq!(m.tenants[0].interrupted, 1);
        assert_eq!(m.tenants[1].interrupted, 0);
    }

    #[test]
    fn an_expired_deadline_interrupts_only_its_own_request() {
        let (svc, q, ids) = tc_service(vec![
            TenantPolicy::unlimited("hasty").with_deadline(Duration::ZERO),
            TenantPolicy::unlimited("free"),
        ]);
        // A miss checks its governor at the first stage boundary, and a
        // zero deadline has expired by then on any clock. The two tenants
        // ask different tuples, so neither can be answered from the
        // other's cache entry.
        let (hasty, free) = std::thread::scope(|s| {
            let hasty = s.spawn(|| svc.serve(&req(ids[0], q, vec![0, 3])));
            let free = s.spawn(|| svc.serve(&req(ids[1], q, vec![1, 3])));
            (hasty.join().unwrap(), free.join().unwrap())
        });
        assert_eq!(hasty, Response::Interrupted(Interrupted::Deadline));
        assert_eq!(
            free,
            Response::Answer {
                holds: true,
                epoch: 0,
                cached: false
            }
        );
        let m = svc.metrics();
        assert_eq!((m.interrupted, m.answered), (1, 1));
        assert_eq!(m.tenants[0].interrupted, 1);
        assert_eq!(m.tenants[1].interrupted, 0);
    }

    #[test]
    fn malformed_requests_are_rejected_not_panics() {
        let (svc, q, ids) = tc_service(vec![TenantPolicy::unlimited("t0")]);
        assert_eq!(
            svc.serve(&req(TenantId(9), q, vec![0, 3])),
            Response::Rejected(RejectReason::UnknownTenant)
        );
        assert_eq!(
            svc.serve(&req(ids[0], QueryId(9), vec![0, 3])),
            Response::Rejected(RejectReason::UnknownQuery)
        );
        assert_eq!(
            svc.serve(&req(ids[0], q, vec![0])),
            Response::Rejected(RejectReason::ArityMismatch)
        );
        // Out-of-universe elements are refused before any evaluation, so
        // they take no cache slot.
        for tuple in [vec![99, 3], vec![u32::MAX, u32::MAX]] {
            assert_eq!(
                svc.serve(&req(ids[0], q, tuple)),
                Response::Rejected(RejectReason::OutOfUniverse)
            );
        }
        let m = svc.metrics();
        assert_eq!((m.rejected, m.cache_misses, m.cache.entries), (5, 0, 0));
    }

    #[test]
    fn unbounded_cache_holds_only_the_published_epochs_answers() {
        let mut builder = ServiceBuilder::new(&directed_path(5));
        let q = builder.register_query(
            "tc",
            ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 4]),
        );
        let t = builder.register_tenant(TenantPolicy::unlimited("t0"));
        let svc = builder.build();
        let keys: Vec<Vec<Element>> = (0..5u32)
            .flat_map(|u| (0..4u32).map(move |v| vec![u, v]))
            .collect();
        let e = RelId(0);
        for epoch in 0..10u64 {
            for key in &keys {
                svc.serve(&req(t, q, key.clone()));
            }
            assert_eq!(svc.metrics().cache.entries, 20, "epoch {epoch}");
            svc.apply_batch(&[(e, vec![4, 0])], &[]);
            assert_eq!(svc.metrics().cache.entries, 0, "after commit {epoch}");
        }
    }

    #[test]
    fn a_memo_on_a_retired_snapshot_is_never_served() {
        let (svc, q, ids) = tc_service(vec![TenantPolicy::unlimited("t0")]);
        // A reader takes the epoch-0 snapshot and evaluates (3, 0) ...
        let old = svc.snapshot();
        svc.apply_batch(&[(RelId(0), vec![3, 0])], &[]);
        // ... and memoizes its pre-batch answer after the commit.
        old.cache().insert((q.0, Box::from([3, 0])), false);
        assert_eq!(
            svc.serve(&req(ids[0], q, vec![3, 0])),
            Response::Answer {
                holds: true,
                epoch: 1,
                cached: false
            }
        );
        assert_eq!(svc.metrics().cache.entries, 1);
    }

    #[test]
    fn evictions_are_cumulative_across_commits() {
        let mut builder = ServiceBuilder::new(&directed_path(4)).cache_capacity(2);
        let q = builder.register_query(
            "tc",
            ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 3]),
        );
        let t = builder.register_tenant(TenantPolicy::unlimited("t0"));
        let svc = builder.build();
        let mut readings = Vec::new();
        for round in 0..3u32 {
            // Three keys over a capacity of two: one eviction per epoch.
            for v in 1..4 {
                svc.serve(&req(t, q, vec![round, v]));
            }
            readings.push(svc.metrics().cache.evictions);
            // A commit publishes an empty cache, and dropping the old
            // one is no eviction.
            svc.apply_batch(&[], &[]);
            readings.push(svc.metrics().cache.evictions);
        }
        assert_eq!(readings, [1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn misses_on_one_snapshot_share_its_indexes() {
        let (svc, q, ids) = tc_service(vec![TenantPolicy::unlimited("t0")]);
        let e = RelId(0);
        let built = |snap: &Snapshot| -> Vec<Option<*const kv_structures::PosIndex>> {
            (0..2)
                .map(|pos| {
                    snap.edb_indexes()
                        .built(e, pos)
                        .map(|ix| ix as *const kv_structures::PosIndex)
                })
                .collect()
        };
        let snap = svc.snapshot();
        assert_eq!(built(&snap), vec![None, None], "nothing is built up front");
        let first = svc.serve(&req(ids[0], q, vec![0, 3]));
        assert!(matches!(first, Response::Answer { cached: false, .. }));
        let after_first = built(&snap);
        assert!(after_first.iter().any(Option::is_some), "a miss builds");
        // A second miss on the same snapshot reads the very same indexes.
        let second = svc.serve(&req(ids[0], q, vec![1, 3]));
        assert!(matches!(second, Response::Answer { cached: false, .. }));
        let after_second = built(&snap);
        for (a, b) in after_first.iter().zip(&after_second) {
            if let (Some(a), Some(b)) = (a, b) {
                assert!(std::ptr::eq(*a, *b), "the index was rebuilt");
            }
        }
        // A commit publishes a new snapshot with a set of its own.
        svc.apply_batch(&[(e, vec![3, 0])], &[]);
        assert_eq!(built(&svc.snapshot()), vec![None, None]);
    }

    #[test]
    fn a_rejected_batch_leaves_no_trace() {
        let (svc, q, ids) = tc_service(vec![TenantPolicy::unlimited("t0")]);
        let e = RelId(0);
        // A valid insert followed by an out-of-universe fact: the batch
        // panics, and none of it may reach a later commit.
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.apply_batch(&[(e, vec![3, 0]), (e, vec![0, 99])], &[])
        }));
        assert!(torn.is_err(), "an out-of-universe fact is refused");
        assert_eq!(svc.epoch(), 0);
        let outcome = svc.apply_batch(&[], &[]);
        assert_eq!((outcome.epoch, outcome.inserted), (1, 0));
        assert!(!svc.snapshot().edb().relation(e).contains(&[3, 0]));
        assert_eq!(
            svc.serve(&req(ids[0], q, vec![3, 0])),
            Response::Answer {
                holds: false,
                epoch: 1,
                cached: false
            }
        );
    }

    #[test]
    fn bounded_cache_evicts_but_keeps_answering() {
        let mut builder = ServiceBuilder::new(&directed_path(6)).cache_capacity(2);
        let q = builder.register_query(
            "tc",
            ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 5]),
        );
        let t = builder.register_tenant(TenantPolicy::unlimited("t0"));
        let svc = builder.build();
        for u in 0..6u32 {
            for v in 0..6u32 {
                let expect = u < v;
                match svc.serve(&req(t, q, vec![u, v])) {
                    Response::Answer { holds, .. } => assert_eq!(holds, expect, "{u}->{v}"),
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }
        let m = svc.metrics();
        assert!(m.cache.entries <= 2);
        assert!(m.cache.evictions > 0);
    }
}
