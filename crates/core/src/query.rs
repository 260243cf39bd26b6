//! Boolean queries on finite structures.
//!
//! The paper's objects of study are *queries* — isomorphism-invariant
//! boolean properties of finite structures over a fixed vocabulary. A
//! [`ProgramQuery`] is a Datalog(≠) program used as such a query. Every
//! evaluation runs the engine; the one answer cache is the serving
//! layer's, in `kv-service`.

use kv_datalog::{
    BatchSummary, BindingPattern, CompiledProgram, DurabilityOptions, DurableBatchError,
    DurableEngine, EdbIndexes, EvalOptions, EvalStats, Fact, FlushStats, IncrementalEngine,
    MagicProgram, Program, RecoveryError, RecoveryReport,
};
use kv_structures::{Governor, Interrupted, QueryPlan, Structure};
use std::path::Path;
use std::sync::Mutex;

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
/// query silently falls back to full saturation.
pub struct ProgramQuery {
    name: String,
    program: Program,
    compiled: CompiledProgram,
    goal_tuple: Vec<kv_structures::Element>,
    plan: QueryPlan,
    demand: Option<DemandPath>,
    /// Worker count per stage (default 1); applies to every evaluation
    /// route this query issues, the incremental engine included.
    shards: usize,
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
            shards: 1,
            incremental: Mutex::new(EngineSlot::None),
        }
    }

    /// Runs every evaluation this query issues with `shards` workers per
    /// stage (0 runs one): each stage's deltas cut into contiguous worker
    /// shares, merged at the stage barrier. Answers are identical for
    /// every worker count (differential-tested); set before attaching an
    /// incremental engine, which keeps the configuration it was built
    /// with.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The display name given at construction.
    pub fn name(&self) -> &str {
        &self.name
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

    /// Engine options for every evaluation this query issues: defaults
    /// plus the [`kv_structures::PlannerMode`] and
    /// [`kv_structures::JoinLowering`] fixed by the query plan.
    fn eval_options(&self) -> EvalOptions {
        EvalOptions::default()
            .with_planner(self.plan.planner())
            .with_lowering(self.plan.lowering())
            .with_shards(self.shards)
    }

    /// Evaluates the query on `structure`: the demand route when it is
    /// active, full saturation otherwise.
    pub fn eval(&self, structure: &Structure) -> bool {
        match self.eval_demand_with_stats(structure) {
            Some((holds, _)) => holds,
            None => self.eval_full_with_stats(structure).0,
        }
    }

    /// Governed [`eval`](Self::eval): honors the governor's budget,
    /// deadline, and cancellation token, returning `Err(Interrupted)`
    /// instead of looping unbounded.
    pub fn try_eval(&self, structure: &Structure, gov: &Governor) -> Result<bool, Interrupted> {
        self.try_eval_at_uncached(structure, &self.goal_tuple, gov)
    }

    /// Full-saturation evaluation with engine counters, bypassing the
    /// demand path (differential partner and benchmark baseline for the
    /// demand route).
    pub fn eval_full_with_stats(&self, structure: &Structure) -> (bool, EvalStats) {
        let result = self.compiled.run(structure, self.eval_options());
        let holds = result.idb[self.compiled.goal().0].contains(&self.goal_tuple);
        (holds, result.eval_stats)
    }

    /// Demand-path evaluation with engine counters. `None` when the
    /// demand route is inactive.
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
        // A poisoned lock only means another thread panicked: the engine
        // is coherent between batches, and a batch that panicked left it
        // pending.
        self.incremental.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Switches this query into incremental maintenance mode: builds a
    /// [`IncrementalEngine`] whose EDB starts as `structure` (applied as
    /// the initial batch) and keeps the goal relation live across
    /// [`apply_batch`](Self::apply_batch) mutations.
    ///
    /// Replaces any previously attached engine.
    pub fn enable_incremental(&self, structure: &Structure) -> BatchSummary {
        let (engine, summary) =
            IncrementalEngine::from_structure(&self.program, structure, self.eval_options());
        *self.lock_engine() = EngineSlot::Memory(Box::new(engine));
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
    /// Replaces any previously attached engine.
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
        *self.lock_engine() = EngineSlot::Durable(Box::new(durable));
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
    /// [`resume_batch_durable`](Self::resume_batch_durable).
    pub fn batch_pending(&self) -> bool {
        self.lock_engine().engine().is_some_and(|e| e.has_pending())
    }

    /// Applies a mutation batch to the attached engine, volatile or
    /// durable, without a governor: the unlimited form of
    /// [`try_apply_batch_durable`](Self::try_apply_batch_durable).
    ///
    /// # Panics
    /// Panics if no engine is attached, or on a storage error of a durable
    /// engine (`try_apply_batch_durable` returns that error instead).
    pub fn apply_batch(&self, inserts: &[Fact], retracts: &[Fact]) -> BatchSummary {
        self.try_apply_batch_durable(inserts, retracts, &Governor::unlimited())
            .unwrap_or_else(|e| panic!("apply_batch failed: {e}"))
    }

    /// Governed batch on the attached engine. A durable engine
    /// write-ahead-logs the batch, applies it, and checkpoints when the
    /// cadence is due; a volatile engine only applies it. On interrupt the
    /// batch stays pending inside the engine — committed insertion stages
    /// are kept — and [`resume_batch_durable`](Self::resume_batch_durable)
    /// continues to a result identical to an uninterrupted run.
    ///
    /// Panics if no engine is attached.
    pub fn try_apply_batch_durable(
        &self,
        inserts: &[Fact],
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<BatchSummary, DurableBatchError> {
        match &mut *self.lock_engine() {
            EngineSlot::Memory(e) => e
                .try_apply_batch_governed(inserts, retracts, gov)
                .map_err(DurableBatchError::Interrupted),
            EngineSlot::Durable(d) => d.try_apply_batch_governed(inserts, retracts, gov),
            EngineSlot::None => panic!("try_apply_batch_durable requires an attached engine"),
        }
    }

    /// Resumes an interrupted batch on the attached engine under a fresh
    /// governor (see [`try_apply_batch_durable`](Self::try_apply_batch_durable)).
    pub fn resume_batch_durable(&self, gov: &Governor) -> Result<BatchSummary, DurableBatchError> {
        match &mut *self.lock_engine() {
            EngineSlot::Memory(e) => e.resume_batch(gov).map_err(DurableBatchError::Interrupted),
            EngineSlot::Durable(d) => d.resume_batch(gov),
            EngineSlot::None => panic!("resume_batch_durable requires a pending batch"),
        }
    }

    /// Governed one-shot evaluation at a caller-supplied goal tuple, with
    /// an index set local to the call: every EDB index it probes is built
    /// for this evaluation and dropped with it.
    ///
    /// The demand (magic-set) route is taken when active: the rewrite is
    /// re-seeded with `tuple`, so one compiled query serves every goal
    /// tuple of its binding pattern. Requires `&self` only — the compiled
    /// program and rewrite are immutable after construction, so any number
    /// of reader threads evaluate concurrently. The one lock they share
    /// guards the compiled program's memoized cost-based plan (see
    /// [`CompiledProgram`]) and is held only to read or replace it.
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
    /// probe a position builds its index, later ones reuse it. This is the
    /// serving layer's read path: a service keeps one set per immutable
    /// snapshot, so a cache miss costs its fixpoint rather than a rebuild
    /// of the snapshot's indexes.
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
        // The demand route counts magic probes and derives no more
        // tuples than full saturation.
        assert!(q.demand_active());
        let (holds, stats) = q
            .eval_demand_with_stats(&directed_path(4))
            .expect("demand route is active");
        assert!(holds);
        assert!(stats.magic_probes > 0);
        assert!(stats.tuples_interned <= full.tuples_interned);
    }

    #[test]
    fn demand_and_full_agree() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        for n in 2..7 {
            let s = directed_path(n);
            let (full, _) = q.eval_full_with_stats(&s);
            let (demand, _) = q
                .eval_demand_with_stats(&s)
                .expect("demand route is active");
            assert_eq!(full, demand, "demand answer must match full on path({n})");
            assert_eq!(q.eval(&s), full);
        }
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
                .with_shards(w);
            let s = directed_path(4);
            let (full, _) = q.eval_full_with_stats(&s);
            assert!(full, "W={w}");
            let (demand, _) = q.eval_demand_with_stats(&s).expect("demand active");
            assert_eq!(full, demand, "W={w}");
            q.enable_incremental(&s);
            assert_eq!(q.incremental_holds(), Some(true), "W={w}");
            assert!(!q.with_shards(w).eval(&directed_path(3)), "W={w}");
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
            // Restore the edge through the ungoverned path, which drives
            // the durable engine too, then force a checkpoint.
            q.apply_batch(&[(e, vec![1, 2])], &[]);
            assert_eq!(q.incremental_holds(), Some(true));
            assert!(q.checkpoint_now().expect("checkpoint") > 0);
        }
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        let report = q.open_durable(&directed_path(4), &dir).expect("reopen 2");
        // The checkpoint covers everything: nothing left to replay.
        assert_eq!(report.replayed_batches, 0);
        assert!(report.checkpoint_epoch >= 3);
        assert_eq!(q.incremental_holds(), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncached_eval_serves_any_goal_tuple() {
        let q = ProgramQuery::at_tuple("0 reaches 3", transitive_closure(), vec![0, 3]);
        let s = directed_path(5);
        let gov = Governor::unlimited();
        // One compiled query answers every tuple of its binding pattern.
        assert_eq!(q.try_eval_at_uncached(&s, &[0, 4], &gov), Ok(true));
        assert_eq!(q.try_eval_at_uncached(&s, &[4, 0], &gov), Ok(false));
        // Governance still applies.
        let cancelled = Governor::unlimited();
        cancelled.cancel_token().cancel();
        assert_eq!(
            q.try_eval_at_uncached(&s, &[0, 4], &cancelled),
            Err(Interrupted::Cancelled)
        );
    }

    #[test]
    fn concurrent_readers_agree_while_the_plan_memo_thrashes() {
        // Two readers share one query and alternate between structures
        // with different statistics, so nearly every call replaces the
        // plan the other reader's last call memoized. Every answer must
        // equal the answer a query of its own gives.
        use kv_structures::generators::random_digraph;
        let query = || ProgramQuery::at_tuple("reach", transitive_closure(), vec![0, 0]);
        let q = query();
        let structures = [
            random_digraph(12, 0.15, 7).to_structure(),
            random_digraph(12, 0.3, 8).to_structure(),
        ];
        let stats = |s: &Structure| -> Vec<_> {
            s.vocabulary()
                .relations()
                .map(|r| s.relation(r).store().card_stats())
                .collect()
        };
        assert_ne!(stats(&structures[0]), stats(&structures[1]));
        let indexes = [
            EdbIndexes::new(&structures[0]),
            EdbIndexes::new(&structures[1]),
        ];
        let gov = Governor::unlimited();
        let tuple = |i: u32| [i % 12, i * 5 % 12];
        let expected: Vec<[bool; 2]> = (0..200)
            .map(|i| {
                [0, 1].map(|k| {
                    query()
                        .try_eval_at_uncached(&structures[k], &tuple(i), &gov)
                        .unwrap()
                })
            })
            .collect();
        std::thread::scope(|scope| {
            for reader in 0..2usize {
                let (q, structures, indexes, expected, gov) =
                    (&q, &structures, &indexes, &expected, &gov);
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let k = (i as usize + reader) % 2;
                        let got = q
                            .try_eval_at_indexed(&structures[k], &indexes[k], &tuple(i), gov)
                            .unwrap();
                        assert_eq!(got, expected[i as usize][k], "reader {reader}, call {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn governed_batches_resume_on_the_query() {
        // One batch path serves both engine modes: the same interrupted
        // and resumed batch, on a volatile and on a durable query, lands
        // where one straight engine run does.
        use kv_datalog::Budget;
        use kv_structures::RelId;
        let s = directed_path(6);
        let inserts = [(RelId(0), vec![5, 0])];
        let retracts = [(RelId(0), vec![2, 3])];
        let dir = std::env::temp_dir().join(format!("kv-query-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let volatile = ProgramQuery::at_tuple("0 reaches 5", transitive_closure(), vec![0, 5]);
        volatile.enable_incremental(&s);
        let durable = ProgramQuery::at_tuple("0 reaches 5", transitive_closure(), vec![0, 5]);
        durable.open_durable(&s, &dir).expect("open fresh");

        let options = EvalOptions::default()
            .with_planner(volatile.plan().planner())
            .with_lowering(volatile.plan().lowering());
        let (mut engine, _) = IncrementalEngine::from_structure(&transitive_closure(), &s, options);
        let straight = engine.apply_batch(&inserts, &retracts);
        let straight_holds = engine.goal_contains(&[0, 5]);
        assert!(!straight_holds);
        // Retracting (2, 3) overdeletes 9 of the 15 closure tuples: past
        // half, so the recompute guard rederives the closure.
        assert_eq!(straight.recomputed_sccs, 1);

        for (mode, q) in [("volatile", &volatile), ("durable", &durable)] {
            let mut budget = 20u64;
            let mut res = q.try_apply_batch_durable(
                &inserts,
                &retracts,
                &Governor::with_budget(Budget::steps(budget)),
            );
            let mut resumes = 0;
            let summary = loop {
                match res {
                    Ok(summary) => break summary,
                    Err(DurableBatchError::Interrupted(_)) => {
                        resumes += 1;
                        assert!(q.batch_pending(), "{mode}");
                        assert_eq!(q.incremental_holds(), None, "{mode}");
                        budget *= 2;
                        res = q.resume_batch_durable(&Governor::with_budget(Budget::steps(budget)));
                    }
                    Err(e) => panic!("{mode}: {e}"),
                }
            };
            assert!(resumes > 0, "{mode}: tiny budget must interrupt");
            assert!(!q.batch_pending(), "{mode}");
            assert_eq!(q.incremental_holds(), Some(straight_holds), "{mode}");
            assert_eq!(summary.eval_stats, straight.eval_stats, "{mode}");
            assert_eq!(summary.delta_tuples, straight.delta_tuples, "{mode}");
            assert_eq!(summary.deleted_tuples, straight.deleted_tuples, "{mode}");
            assert_eq!(summary.recomputed_sccs, straight.recomputed_sccs, "{mode}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
