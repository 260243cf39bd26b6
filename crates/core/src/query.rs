//! Boolean queries on finite structures.
//!
//! The paper's objects of study are *queries* — isomorphism-invariant
//! boolean properties of finite structures over a fixed vocabulary. The
//! [`BooleanQuery`] trait is the common interface under which Datalog(≠)
//! programs, the flow/game solvers of the case study, and brute-force
//! oracles are compared by the experiments.

use kv_datalog::{
    BatchInterrupted, BatchSummary, BindingPattern, CompiledProgram, DurabilityOptions,
    DurableBatchError, DurableEngine, EdbIndexes, EvalOptions, EvalStats, Fact, FlushStats,
    IncrementalEngine, MagicProgram, Program, RecoveryError, RecoveryReport,
};
use kv_structures::{CacheStats, Governor, Interrupted, QueryCache, QueryPlan, Structure};
use std::path::Path;
use std::sync::Mutex;

/// A boolean query over structures of a fixed vocabulary.
pub trait BooleanQuery {
    /// A short display name.
    fn name(&self) -> &str;
    /// Evaluates the query.
    fn eval(&self, structure: &Structure) -> bool;
    /// Evaluates the query and, when the backend supports it, reports
    /// evaluation counters. The default forwards to [`eval`](Self::eval)
    /// with no stats.
    fn eval_with_stats(&self, structure: &Structure) -> (bool, Option<EvalStats>) {
        (self.eval(structure), None)
    }
    /// Governed evaluation: honors the governor's budget, deadline, and
    /// cancellation token, returning `Err(Interrupted)` instead of
    /// looping unbounded. The default checks the governor once up front
    /// and then runs [`eval`](Self::eval); backends with governed engines
    /// (e.g. [`ProgramQuery`]) override this with cooperative checks
    /// inside their hot loops.
    fn try_eval(&self, structure: &Structure, gov: &Governor) -> Result<bool, Interrupted> {
        gov.check()?;
        Ok(self.eval(structure))
    }
}

/// The compiled demand route of a [`ProgramQuery`]: the magic-set
/// rewritten program and its compiled form.
struct DemandPath {
    magic: MagicProgram,
    compiled: CompiledProgram,
}

/// The maintenance engine attached to a [`ProgramQuery`]: none, a
/// volatile in-memory engine, or a durable engine whose batches survive
/// the process (both boxed: an engine is hundreds of bytes of stores and
/// stats, and the slot lives inside every query's mutex).
enum EngineSlot {
    None,
    Memory(Box<IncrementalEngine>),
    Durable(Box<DurableEngine>),
}

impl EngineSlot {
    /// Read access to the wrapped engine, whichever mode is attached.
    fn engine(&self) -> Option<&IncrementalEngine> {
        match self {
            EngineSlot::None => None,
            EngineSlot::Memory(e) => Some(e),
            EngineSlot::Durable(d) => Some(d.engine()),
        }
    }
}

/// A Datalog(≠) program used as a boolean query: true iff the goal
/// relation contains the designated tuple (by default the empty tuple of a
/// nullary goal).
///
/// The program is compiled **once, at construction** — every `eval` call
/// reuses the same [`CompiledProgram`] (rule variants, index plan), so
/// running one query over a family of structures pays for compilation a
/// single time.
///
/// Construction also fixes a [`QueryPlan`]: fixed-tuple queries default to
/// the all-bound demand plan, under which evaluation runs the magic-set
/// rewrite of the program seeded with the query's bound values — deriving
/// only goal-relevant tuples — instead of saturating the full IDB. The
/// rewrite is prepared once at construction; if it is not applicable the
/// query silently falls back to full saturation. Answers are additionally
/// memoized in an engine-level [`QueryCache`] keyed by structure content
/// fingerprint + query tuple, serving repeated-query traffic without any
/// evaluation at all ([`cache_stats`](Self::cache_stats)).
pub struct ProgramQuery {
    name: String,
    program: Program,
    compiled: CompiledProgram,
    goal_tuple: Vec<kv_structures::Element>,
    plan: QueryPlan,
    demand: Option<DemandPath>,
    /// Worker count for sharded evaluation (`None` = unsharded); applies
    /// to every evaluation route this query issues, the incremental
    /// engine included.
    shards: Option<usize>,
    cache: Mutex<QueryCache>,
    incremental: Mutex<EngineSlot>,
}

impl ProgramQuery {
    /// Wraps a program with a nullary goal. All-free pattern: full
    /// saturation (demand buys nothing without bound positions).
    pub fn nullary(name: impl Into<String>, program: Program) -> Self {
        assert_eq!(
            program.idb_arity(program.goal()),
            0,
            "nullary goal expected"
        );
        Self::build(name.into(), program, Vec::new(), QueryPlan::full(0))
    }

    /// Wraps a program, reading the goal relation at a fixed tuple. The
    /// automatic plan binds every goal position, routing evaluation
    /// through the magic-set demand path.
    pub fn at_tuple(
        name: impl Into<String>,
        program: Program,
        goal_tuple: Vec<kv_structures::Element>,
    ) -> Self {
        let arity = program.idb_arity(program.goal());
        assert_eq!(arity, goal_tuple.len(), "tuple arity must match the goal");
        Self::build(
            name.into(),
            program,
            goal_tuple,
            QueryPlan::auto(vec![true; arity]),
        )
    }

    /// Wraps a program with an explicit [`QueryPlan`]. The query still
    /// answers "is `goal_tuple` in the goal relation"; the plan's pattern
    /// selects which positions seed the demand rewrite (a strict subset of
    /// the bound values is sound — the rewrite derives a superset of the
    /// matching tuples and membership of the exact tuple is preserved).
    pub fn with_plan(
        name: impl Into<String>,
        program: Program,
        goal_tuple: Vec<kv_structures::Element>,
        plan: QueryPlan,
    ) -> Self {
        let arity = program.idb_arity(program.goal());
        assert_eq!(arity, goal_tuple.len(), "tuple arity must match the goal");
        assert_eq!(
            arity,
            plan.pattern().len(),
            "plan pattern arity must match the goal"
        );
        Self::build(name.into(), program, goal_tuple, plan)
    }

    fn build(
        name: String,
        program: Program,
        goal_tuple: Vec<kv_structures::Element>,
        plan: QueryPlan,
    ) -> Self {
        let compiled = CompiledProgram::compile(&program);
        let demand = if plan.is_demand() {
            MagicProgram::rewrite(&program, &BindingPattern::new(plan.pattern().to_vec()))
                .ok()
                .map(|magic| DemandPath {
                    compiled: magic.compile(),
                    magic,
                })
        } else {
            None
        };
        Self {
            name,
            program,
            compiled,
            goal_tuple,
            plan,
            demand,
            shards: None,
            cache: Mutex::new(QueryCache::new()),
            incremental: Mutex::new(EngineSlot::None),
        }
    }

    /// Routes every evaluation this query issues through sharded
    /// execution at the given worker count: hash-partitioned deltas with
    /// inter-worker exchange at stage barriers. Answers are identical for
    /// every worker count (differential-tested); set before the first
    /// evaluation so cached answers and the incremental engine agree on
    /// the configuration.
    pub fn with_shards(mut self, shards: Option<usize>) -> Self {
        self.shards = shards;
        self
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The compiled form shared by every full-saturation evaluation.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The query plan fixed at construction.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Whether evaluation actually takes the demand (magic-set) route —
    /// i.e. the plan asked for it *and* the rewrite applied.
    pub fn demand_active(&self) -> bool {
        self.demand.is_some()
    }

    /// Hit/miss/entry counters of the engine-level answer cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Engine options for every evaluation this query issues: defaults
    /// plus the [`kv_structures::PlannerMode`] and
    /// [`kv_structures::JoinLowering`] fixed by the query plan.
    fn eval_options(&self) -> EvalOptions {
        EvalOptions::default()
            .with_planner(self.plan.planner())
            .with_lowering(self.plan.lowering())
            .with_shards(self.shards)
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, QueryCache> {
        // A poisoned cache only means another thread panicked mid-insert;
        // the map itself is still coherent.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Full-saturation evaluation with engine counters, bypassing both the
    /// demand path and the answer cache (differential partner and
    /// benchmark baseline for the demand route).
    pub fn eval_full_with_stats(&self, structure: &Structure) -> (bool, EvalStats) {
        let result = self.compiled.run(structure, self.eval_options());
        let holds = result.idb[self.compiled.goal().0].contains(&self.goal_tuple);
        (holds, result.eval_stats)
    }

    /// Demand-path evaluation with engine counters, bypassing the answer
    /// cache. `None` when the demand route is inactive.
    pub fn eval_demand_with_stats(&self, structure: &Structure) -> Option<(bool, EvalStats)> {
        let path = self.demand.as_ref()?;
        let seeds = [(path.magic.magic_goal(), path.magic.seed(&self.goal_tuple))];
        let result = path
            .compiled
            .run_seeded(structure, self.eval_options(), &seeds);
        let holds = result.idb[path.magic.goal().0].contains(&self.goal_tuple);
        Some((holds, result.eval_stats))
    }

    fn lock_engine(&self) -> std::sync::MutexGuard<'_, EngineSlot> {
        // Same poisoning argument as the cache: the engine is coherent
        // between batches, and a batch that panicked left it pending.
        self.incremental.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Switches this query into incremental maintenance mode: builds a
    /// [`IncrementalEngine`] whose EDB starts as `structure` (applied as
    /// the initial batch) and keeps the goal relation live across
    /// [`apply_batch`](Self::apply_batch) mutations. The answer cache is
    /// epoch-bumped and the initial answer patched in at the new epoch.
    ///
    /// Replaces any previously attached engine.
    pub fn enable_incremental(&self, structure: &Structure) -> BatchSummary {
        let (engine, summary) =
            IncrementalEngine::from_structure(&self.program, structure, self.eval_options());
        let mut slot = self.lock_engine();
        self.patch_cache(&engine);
        *slot = EngineSlot::Memory(Box::new(engine));
        summary
    }

    /// Switches this query into **durable** incremental maintenance mode
    /// backed by directory `dir`, with the default
    /// [`DurabilityOptions`]. See
    /// [`open_durable_with`](Self::open_durable_with).
    pub fn open_durable(
        &self,
        structure: &Structure,
        dir: &Path,
    ) -> Result<RecoveryReport, RecoveryError> {
        self.open_durable_with(structure, dir, DurabilityOptions::default())
    }

    /// Switches this query into durable incremental maintenance mode: a
    /// [`DurableEngine`] in `dir` write-ahead-logs every batch and
    /// checkpoints periodically, so the maintained state survives a
    /// crash and is recovered by the next `open_durable` on the same
    /// directory.
    ///
    /// On a **fresh** directory, `structure`'s facts are asserted as the
    /// initial batch (epoch 1), mirroring
    /// [`enable_incremental`](Self::enable_incremental). On an
    /// **existing** directory, the recovered state is authoritative and
    /// `structure` serves only as the template (vocabulary, universe,
    /// constants) — it is validated against the directory's fingerprint
    /// and its facts are ignored.
    ///
    /// The answer cache is epoch-bumped and the recovered answer patched
    /// in. Replaces any previously attached engine.
    pub fn open_durable_with(
        &self,
        structure: &Structure,
        dir: &Path,
        durability: DurabilityOptions,
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut durable = DurableEngine::open(
            &self.program,
            structure,
            self.eval_options(),
            dir,
            durability,
        )?;
        if durable.epoch() == 0 {
            let mut inserts: Vec<Fact> = Vec::new();
            for r in structure.vocabulary().relations() {
                for t in structure.relation(r).iter() {
                    inserts.push((r, t.to_vec()));
                }
            }
            durable.apply_batch(&inserts, &[])?;
        }
        let report = durable.recovery().clone();
        let mut slot = self.lock_engine();
        self.patch_cache(durable.engine());
        *slot = EngineSlot::Durable(Box::new(durable));
        Ok(report)
    }

    /// Whether an incremental engine (volatile or durable) is attached.
    pub fn incremental_active(&self) -> bool {
        self.lock_engine().engine().is_some()
    }

    /// Whether the attached engine is durable.
    pub fn durable_active(&self) -> bool {
        matches!(&*self.lock_engine(), EngineSlot::Durable(_))
    }

    /// What recovery found when the durable engine opened (`None` when no
    /// durable engine is attached).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        match &*self.lock_engine() {
            EngineSlot::Durable(d) => Some(d.recovery().clone()),
            _ => None,
        }
    }

    /// Flush-side counters of the durable engine (`None` when no durable
    /// engine is attached).
    pub fn flush_stats(&self) -> Option<FlushStats> {
        match &*self.lock_engine() {
            EngineSlot::Durable(d) => Some(d.flush_stats()),
            _ => None,
        }
    }

    /// Forces a checkpoint of the durable engine right now (snapshot, new
    /// generation, fresh WAL). Returns the snapshot payload size.
    ///
    /// Panics if no durable engine is attached.
    pub fn checkpoint_now(&self) -> Result<u64, RecoveryError> {
        match &mut *self.lock_engine() {
            EngineSlot::Durable(d) => d.checkpoint(),
            _ => panic!("checkpoint_now requires open_durable"),
        }
    }

    /// The live answer maintained by the incremental engine: `None` when
    /// incremental mode is off or a batch is pending (mid-resume the goal
    /// relation is not at a fixpoint).
    pub fn incremental_holds(&self) -> Option<bool> {
        let slot = self.lock_engine();
        let engine = slot.engine()?;
        if engine.has_pending() {
            return None;
        }
        Some(engine.goal_contains(&self.goal_tuple))
    }

    /// Whether an interrupted maintenance batch is waiting for
    /// [`resume_batch`](Self::resume_batch).
    pub fn batch_pending(&self) -> bool {
        self.lock_engine().engine().is_some_and(|e| e.has_pending())
    }

    /// Applies a mutation batch to the incremental engine (ungoverned) and
    /// reconciles the answer cache: the epoch is bumped — so every answer
    /// cached against the pre-batch store can never be served again — and
    /// the recomputed answer for the post-batch EDB is patched in at the
    /// new epoch instead of dropping the cache wholesale.
    ///
    /// Panics if [`enable_incremental`](Self::enable_incremental) has not
    /// been called. With a durable engine attached, use
    /// [`try_apply_batch_durable`](Self::try_apply_batch_durable), which
    /// surfaces storage errors instead of panicking.
    pub fn apply_batch(&self, inserts: &[Fact], retracts: &[Fact]) -> BatchSummary {
        let mut slot = self.lock_engine();
        let engine = match &mut *slot {
            EngineSlot::Memory(e) => e,
            EngineSlot::Durable(_) => {
                panic!("durable engine attached: use try_apply_batch_durable")
            }
            EngineSlot::None => panic!("apply_batch requires enable_incremental"),
        };
        let summary = engine.apply_batch(inserts, retracts);
        self.patch_cache(engine);
        summary
    }

    /// Governed [`apply_batch`](Self::apply_batch): honors the governor
    /// exactly like a governed full evaluation. On interrupt the batch
    /// stays pending inside the engine — committed insertion stages are
    /// kept, the cache is untouched (pre-batch answers are still correct
    /// for pre-batch structures) — and [`resume_batch`](Self::resume_batch)
    /// continues to a result identical to an uninterrupted run.
    pub fn try_apply_batch_governed(
        &self,
        inserts: &[Fact],
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<BatchSummary, BatchInterrupted> {
        let mut slot = self.lock_engine();
        let engine = match &mut *slot {
            EngineSlot::Memory(e) => e,
            EngineSlot::Durable(_) => {
                panic!("durable engine attached: use try_apply_batch_durable")
            }
            EngineSlot::None => panic!("try_apply_batch_governed requires enable_incremental"),
        };
        let summary = engine.try_apply_batch_governed(inserts, retracts, gov)?;
        self.patch_cache(engine);
        Ok(summary)
    }

    /// Governed durable batch: write-ahead-logs the batch, applies it,
    /// and checkpoints when the cadence is due. Works on both engine
    /// modes (a volatile engine simply has no logging side), so callers
    /// can be written once against the durable API.
    ///
    /// Panics if no engine is attached.
    pub fn try_apply_batch_durable(
        &self,
        inserts: &[Fact],
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<BatchSummary, DurableBatchError> {
        let mut slot = self.lock_engine();
        let summary = match &mut *slot {
            EngineSlot::Memory(e) => e
                .try_apply_batch_governed(inserts, retracts, gov)
                .map_err(DurableBatchError::Interrupted)?,
            EngineSlot::Durable(d) => d.try_apply_batch_governed(inserts, retracts, gov)?,
            EngineSlot::None => panic!("try_apply_batch_durable requires an attached engine"),
        };
        // Unreachable only on EngineSlot::None, which panicked above.
        if let Some(engine) = slot.engine() {
            self.patch_cache(engine);
        }
        Ok(summary)
    }

    /// Resumes an interrupted maintenance batch under a fresh governor.
    pub fn resume_batch(&self, gov: &Governor) -> Result<BatchSummary, BatchInterrupted> {
        let mut slot = self.lock_engine();
        let engine = match &mut *slot {
            EngineSlot::Memory(e) => e,
            EngineSlot::Durable(_) => panic!("durable engine attached: use resume_batch_durable"),
            EngineSlot::None => panic!("resume_batch requires a pending batch"),
        };
        let summary = engine.resume_batch(gov)?;
        self.patch_cache(engine);
        Ok(summary)
    }

    /// Resumes an interrupted batch through the durable API (see
    /// [`try_apply_batch_durable`](Self::try_apply_batch_durable)).
    pub fn resume_batch_durable(&self, gov: &Governor) -> Result<BatchSummary, DurableBatchError> {
        let mut slot = self.lock_engine();
        let summary = match &mut *slot {
            EngineSlot::Memory(e) => e
                .resume_batch(gov)
                .map_err(DurableBatchError::Interrupted)?,
            EngineSlot::Durable(d) => d.resume_batch(gov)?,
            EngineSlot::None => panic!("resume_batch_durable requires a pending batch"),
        };
        if let Some(engine) = slot.engine() {
            self.patch_cache(engine);
        }
        Ok(summary)
    }

    /// Governed evaluation at a caller-supplied goal tuple, bypassing the
    /// per-query answer cache entirely — the serving layer's read path.
    ///
    /// A query service runs **many concurrent readers** against immutable
    /// snapshot structures and memoizes in its own *shared*, epoch-keyed
    /// cache (O(1) lookups — no per-request structure fingerprinting), so
    /// this path must neither consult nor populate the per-query cache.
    /// The demand (magic-set) route is taken when active: the rewrite is
    /// re-seeded with `tuple`, so one compiled query serves every goal
    /// tuple of its binding pattern. Requires `&self` only — the compiled
    /// program and rewrite are immutable after construction, so any number
    /// of reader threads evaluate concurrently with no shared lock.
    ///
    /// # Panics
    /// Panics if `tuple`'s arity differs from the goal's.
    pub fn try_eval_at_uncached(
        &self,
        structure: &Structure,
        tuple: &[kv_structures::Element],
        gov: &Governor,
    ) -> Result<bool, Interrupted> {
        self.try_eval_at_indexed(structure, &EdbIndexes::new(structure), tuple, gov)
    }

    /// [`try_eval_at_uncached`](Self::try_eval_at_uncached) probing the EDB
    /// through `indexes`, a set made for `structure` and shared by every
    /// evaluation against it (see [`EdbIndexes`]): the first evaluation to
    /// probe a position builds its index, later ones reuse it. A service
    /// keeps one set per immutable snapshot, so a cache miss costs its
    /// fixpoint rather than a rebuild of the snapshot's indexes.
    ///
    /// # Panics
    /// Panics if `tuple`'s arity differs from the goal's, or if `indexes`
    /// was made for another structure.
    pub fn try_eval_at_indexed(
        &self,
        structure: &Structure,
        indexes: &EdbIndexes,
        tuple: &[kv_structures::Element],
        gov: &Governor,
    ) -> Result<bool, Interrupted> {
        assert_eq!(
            tuple.len(),
            self.program.idb_arity(self.program.goal()),
            "tuple arity must match the goal"
        );
        match self.demand.as_ref() {
            Some(path) => {
                let seeds = [(path.magic.magic_goal(), path.magic.seed(tuple))];
                let result = path
                    .compiled
                    .try_run_indexed(structure, indexes, self.eval_options(), gov, &seeds)
                    .map_err(|e| e.reason)?;
                Ok(result.idb[path.magic.goal().0].contains(tuple))
            }
            None => {
                let result = self
                    .compiled
                    .try_run_indexed(structure, indexes, self.eval_options(), gov, &[])
                    .map_err(|e| e.reason)?;
                Ok(result.idb[self.compiled.goal().0].contains(tuple))
            }
        }
    }

    /// Governed, cache-bypassing evaluation at the query's own goal tuple
    /// (see [`try_eval_at_uncached`](Self::try_eval_at_uncached)).
    pub fn try_eval_uncached(
        &self,
        structure: &Structure,
        gov: &Governor,
    ) -> Result<bool, Interrupted> {
        self.try_eval_at_uncached(structure, &self.goal_tuple, gov)
    }

    /// After a committed batch: stale-out every cached answer and patch in
    /// the one just maintained.
    fn patch_cache(&self, engine: &IncrementalEngine) {
        let mut cache = self.lock_cache();
        cache.bump_epoch();
        cache.insert(
            &engine.edb_structure(),
            &self.goal_tuple,
            engine.goal_contains(&self.goal_tuple),
        );
    }
}

impl BooleanQuery for ProgramQuery {
    fn name(&self) -> &str {
        &self.name
    }

    /// Consults the answer cache first; on a miss, evaluates through the
    /// demand path when active (full saturation otherwise) and memoizes
    /// the answer.
    ///
    /// The epoch observed at lookup time travels with the computation:
    /// if a maintenance batch commits while the answer is being evaluated
    /// (the cache lock is *not* held across evaluation), the insert is
    /// rejected rather than stamping a pre-batch answer at the post-batch
    /// epoch.
    fn eval(&self, structure: &Structure) -> bool {
        let (cached, observed_epoch) = self.lock_cache().get_keyed(structure, &self.goal_tuple);
        if let Some(answer) = cached {
            return answer;
        }
        let holds = self.eval_with_stats(structure).0;
        self.lock_cache()
            .insert_if_epoch(structure, &self.goal_tuple, holds, observed_epoch);
        holds
    }

    /// Always evaluates (no cache) so the counters reflect a real engine
    /// run: the demand path when active, full saturation otherwise.
    fn eval_with_stats(&self, structure: &Structure) -> (bool, Option<EvalStats>) {
        let (holds, stats) = match self.eval_demand_with_stats(structure) {
            Some(pair) => pair,
            None => self.eval_full_with_stats(structure),
        };
        (holds, Some(stats))
    }

    fn try_eval(&self, structure: &Structure, gov: &Governor) -> Result<bool, Interrupted> {
        gov.check()?;
        let (cached, observed_epoch) = self.lock_cache().get_keyed(structure, &self.goal_tuple);
        if let Some(answer) = cached {
            return Ok(answer);
        }
        let holds = self.try_eval_uncached(structure, gov)?;
        self.lock_cache()
            .insert_if_epoch(structure, &self.goal_tuple, holds, observed_epoch);
        Ok(holds)
    }
}

/// A query defined by a closure (for oracles and ad-hoc baselines).
pub struct FnQuery<F> {
    name: String,
    f: F,
}

impl<F: Fn(&Structure) -> bool> FnQuery<F> {
    /// Wraps a closure.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&Structure) -> bool> BooleanQuery for FnQuery<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn eval(&self, structure: &Structure) -> bool {
        (self.f)(structure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_datalog::programs::transitive_closure;
    use kv_structures::generators::directed_path;

    #[test]
    fn program_query_at_tuple() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        assert!(q.eval(&directed_path(4)));
        assert!(!q.eval(&directed_path(3)));
        assert_eq!(q.name(), "0 reaches 3");
    }

    #[test]
    fn program_query_reports_stats() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        // The full-saturation baseline has pinned counters.
        let (holds, full) = q.eval_full_with_stats(&directed_path(4));
        assert!(holds);
        assert_eq!(full.tuples_interned, 6); // TC of a 4-path
        assert!(full.join_probes > 0);
        assert_eq!(full.stages, 3);
        // The default stats route takes the demand path: magic probes are
        // counted and no more tuples are derived than full saturation.
        assert!(q.demand_active());
        let (holds, stats) = q.eval_with_stats(&directed_path(4));
        assert!(holds);
        let stats = stats.expect("program queries report stats");
        assert!(stats.magic_probes > 0);
        assert!(stats.tuples_interned <= full.tuples_interned);
    }

    #[test]
    fn demand_and_full_agree_and_cache_memoizes() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        for n in 2..7 {
            let s = directed_path(n);
            let (full, _) = q.eval_full_with_stats(&s);
            let (demand, _) = q
                .eval_demand_with_stats(&s)
                .expect("demand route is active");
            assert_eq!(full, demand, "demand answer must match full on path({n})");
            assert_eq!(q.eval(&s), full);
            // Second eval of the same structure is served from the cache.
            assert_eq!(q.eval(&s), full);
        }
        let stats = q.cache_stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.misses, 5);
        assert!(stats.hits >= 5);
    }

    #[test]
    fn explicit_plan_controls_routing() {
        let full_plan = QueryPlan::full(2);
        let q = ProgramQuery::with_plan("full", transitive_closure(), vec![0, 3], full_plan);
        assert!(!q.demand_active());
        assert!(q.eval(&directed_path(4)));

        let bf = QueryPlan::auto(vec![true, false]);
        let q = ProgramQuery::with_plan("bf", transitive_closure(), vec![0, 3], bf);
        assert!(q.demand_active());
        assert_eq!(q.plan().to_string(), "bf/demand");
        assert!(q.eval(&directed_path(4)));
        assert!(!q.eval(&directed_path(3)));
    }

    #[test]
    fn sharded_query_agrees_on_every_route() {
        // with_shards must not change any answer: full saturation, the
        // demand path, and the incremental engine all route through the
        // sharded stage loop and land on the same tuples.
        for w in [1usize, 4] {
            let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3])
                .with_shards(Some(w));
            let s = directed_path(4);
            let (full, _) = q.eval_full_with_stats(&s);
            assert!(full, "W={w}");
            let (demand, _) = q.eval_demand_with_stats(&s).expect("demand active");
            assert_eq!(full, demand, "W={w}");
            let summary = q.enable_incremental(&s);
            assert_eq!(q.incremental_holds(), Some(true), "W={w}");
            if w == 1 {
                assert_eq!(summary.exchanged_tuples, 0, "W=1 exchanges nothing");
            }
            assert!(!q.with_shards(Some(w)).eval(&directed_path(3)), "W={w}");
        }
    }

    #[test]
    fn try_eval_honors_governor() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        let s = directed_path(4);
        assert_eq!(q.try_eval(&s, &Governor::unlimited()), Ok(true));
        let gov = Governor::unlimited();
        gov.cancel_token().cancel();
        assert_eq!(q.try_eval(&s, &gov), Err(Interrupted::Cancelled));
        // The default impl on FnQuery checks the governor up front.
        let f = FnQuery::new("nonempty", |s: &Structure| s.tuple_count() > 0);
        assert_eq!(f.try_eval(&s, &Governor::unlimited()), Ok(true));
        assert_eq!(f.try_eval(&s, &gov), Err(Interrupted::Cancelled));
    }

    #[test]
    fn fn_query_wraps_closures() {
        let q = FnQuery::new("nonempty", |s: &Structure| s.tuple_count() > 0);
        assert!(q.eval(&directed_path(3)));
        assert!(!q.eval(&directed_path(1)));
        // The default stats hook reports none.
        assert_eq!(q.eval_with_stats(&directed_path(3)), (true, None));
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn arity_mismatch_panics() {
        ProgramQuery::at_tuple("bad", transitive_closure(), vec![0]);
    }

    #[test]
    fn incremental_mode_maintains_the_answer() {
        use kv_structures::RelId;
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        assert!(!q.incremental_active());
        q.enable_incremental(&directed_path(4));
        assert!(q.incremental_active());
        assert_eq!(q.incremental_holds(), Some(true));
        // Cutting the middle edge breaks reachability; restoring it
        // restores the answer.
        let e = RelId(0);
        q.apply_batch(&[], &[(e, vec![1, 2])]);
        assert_eq!(q.incremental_holds(), Some(false));
        q.apply_batch(&[(e, vec![1, 2])], &[]);
        assert_eq!(q.incremental_holds(), Some(true));
    }

    #[test]
    fn batches_stale_out_cached_answers() {
        use kv_structures::RelId;
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        let s = directed_path(4);
        assert!(q.eval(&s)); // miss, computed, memoized
        assert!(q.eval(&s)); // hit
        let before = q.cache_stats();
        assert!(before.hits >= 1);

        q.enable_incremental(&s);
        // The engine's materialized EDB has the same content fingerprint as
        // `s`, and enable patched its answer in at the bumped epoch.
        assert!(q.eval(&s));
        assert_eq!(q.cache_stats().hits, before.hits + 1);

        // A mutation bumps the epoch: the old entry for `s` must not be
        // served, and the patched entry answers for the mutated store.
        q.apply_batch(&[], &[(RelId(0), vec![1, 2])]);
        let cut = {
            let mut g = kv_structures::Digraph::new(4);
            g.add_edge(0, 1);
            g.add_edge(2, 3);
            g.to_structure()
        };
        let misses = q.cache_stats().misses;
        assert!(!q.eval(&cut)); // served from the patched entry: a hit
        assert_eq!(q.cache_stats().misses, misses);
        // The pre-batch structure's answer was staled out and recomputes.
        assert!(q.eval(&s));
        assert_eq!(q.cache_stats().misses, misses + 1);
    }

    #[test]
    fn durable_mode_survives_reattach() {
        use kv_structures::RelId;
        let dir = std::env::temp_dir().join(format!("kv-query-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let e = RelId(0);
        {
            let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
            let report = q.open_durable(&directed_path(4), &dir).expect("open fresh");
            assert!(!report.manifest_found);
            assert!(q.durable_active() && q.incremental_active());
            assert_eq!(q.incremental_holds(), Some(true));
            // Cut the middle edge; the answer flips and the batch is
            // WAL-logged before it applies.
            q.try_apply_batch_durable(&[], &[(e, vec![1, 2])], &Governor::unlimited())
                .expect("durable batch");
            assert_eq!(q.incremental_holds(), Some(false));
            assert!(q.flush_stats().expect("durable stats").wal_records >= 1);
            // Dropped with no shutdown hook — durability must not need one.
        }
        {
            // A second query on the same directory recovers the mutated
            // state; the template's facts are NOT re-asserted.
            let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
            let report = q.open_durable(&directed_path(4), &dir).expect("reopen");
            assert!(report.manifest_found);
            assert_eq!(report.recovered_epoch, 2);
            assert_eq!(q.recovery_report().expect("attached").recovered_epoch, 2);
            assert_eq!(q.incremental_holds(), Some(false));
            // Restore the edge durably, then force a checkpoint.
            q.try_apply_batch_durable(&[(e, vec![1, 2])], &[], &Governor::unlimited())
                .expect("durable batch");
            assert_eq!(q.incremental_holds(), Some(true));
            assert!(q.checkpoint_now().expect("checkpoint") > 0);
        }
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        let report = q.open_durable(&directed_path(4), &dir).expect("reopen 2");
        // The checkpoint covers everything: nothing left to replay.
        assert_eq!(report.replayed_batches, 0);
        assert!(report.checkpoint_epoch >= 3);
        assert_eq!(q.incremental_holds(), Some(true));
        // The answer cache was patched from recovered state.
        assert!(q.eval(&directed_path(4)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn racing_insert_is_rejected_after_batch_commit() {
        use kv_structures::RelId;
        // Regression for the epoch check-and-insert race: a reader that
        // started evaluating before a batch committed must not publish
        // its answer at the post-batch epoch. We reproduce the interleave
        // deterministically: capture the lookup epoch (the reader's
        // snapshot point), let a batch commit, then attempt the insert
        // exactly as `eval` would.
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        q.enable_incremental(&directed_path(4));
        // Reader side: miss + epoch capture on a structure nobody has
        // patched, then "evaluation" happens outside the lock.
        let s = directed_path(5);
        let (cached, observed_epoch) = q.lock_cache().get_keyed(&s, &[0, 3]);
        assert_eq!(cached, None);
        // The answer computed against the pre-batch store.
        let stale_answer = true;
        // Writer side: a batch commits mid-evaluation and bumps the epoch.
        q.apply_batch(&[], &[(RelId(0), vec![1, 2])]);
        // Reader side resumes: the racy insert must be rejected...
        let stored = q
            .lock_cache()
            .insert_if_epoch(&s, &[0, 3], stale_answer, observed_epoch);
        assert!(!stored, "insert raced a committed batch");
        // ...so a fresh eval recomputes rather than serving the answer
        // the interrupted reader computed for the pre-batch world.
        let misses = q.cache_stats().misses;
        assert!(q.eval(&s));
        assert_eq!(q.cache_stats().misses, misses + 1, "recomputed, not served");
    }

    #[test]
    fn uncached_eval_serves_any_goal_tuple() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        let s = directed_path(5);
        let gov = Governor::unlimited();
        // One compiled query answers every tuple of its binding pattern,
        // without touching the per-query cache.
        assert_eq!(q.try_eval_at_uncached(&s, &[0, 4], &gov), Ok(true));
        assert_eq!(q.try_eval_at_uncached(&s, &[4, 0], &gov), Ok(false));
        assert_eq!(q.try_eval_uncached(&s, &gov), Ok(true));
        assert_eq!(q.cache_stats().entries, 0, "cache stays untouched");
        // Governance still applies.
        let cancelled = Governor::unlimited();
        cancelled.cancel_token().cancel();
        assert_eq!(
            q.try_eval_uncached(&s, &cancelled),
            Err(Interrupted::Cancelled)
        );
    }

    #[test]
    fn governed_batches_resume_on_the_query() {
        use kv_datalog::Budget;
        use kv_structures::RelId;
        let q = ProgramQuery::at_tuple("0 reaches 5", transitive_closure(), vec![0, 5]);
        q.enable_incremental(&directed_path(6));
        let straight = {
            let p = ProgramQuery::at_tuple("straight", transitive_closure(), vec![0, 5]);
            p.enable_incremental(&directed_path(6));
            p.apply_batch(&[(RelId(0), vec![5, 0])], &[(RelId(0), vec![2, 3])])
        };
        let mut budget = 20u64;
        let mut res = q.try_apply_batch_governed(
            &[(RelId(0), vec![5, 0])],
            &[(RelId(0), vec![2, 3])],
            &Governor::with_budget(Budget::steps(budget)),
        );
        let mut resumes = 0;
        let summary = loop {
            match res {
                Ok(summary) => break summary,
                Err(_) => {
                    resumes += 1;
                    assert!(q.batch_pending());
                    assert_eq!(q.incremental_holds(), None);
                    budget *= 2;
                    res = q.resume_batch(&Governor::with_budget(Budget::steps(budget)));
                }
            }
        };
        assert!(resumes > 0, "tiny budget must interrupt");
        assert!(!q.batch_pending());
        assert_eq!(q.incremental_holds(), Some(false));
        assert_eq!(summary.eval_stats, straight.eval_stats);
        assert_eq!(summary.delta_tuples, straight.delta_tuples);
        assert_eq!(summary.deleted_tuples, straight.deleted_tuples);
        // Retracting (2, 3) overdeletes 9 of the 15 closure tuples: past
        // half, so the recompute guard rederives the closure, and the
        // summary says so on both routes.
        assert_eq!(straight.recomputed_sccs, 1);
        assert_eq!(summary.recomputed_sccs, straight.recomputed_sccs);
    }
}
