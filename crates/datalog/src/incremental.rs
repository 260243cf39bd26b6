//! Incremental view maintenance: the delta-first engine.
//!
//! [`IncrementalEngine`] keeps a Datalog(≠) program's least fixpoint live
//! while the EDB mutates in batches of insertions and retractions, instead
//! of re-running [`crate::eval::Evaluator`] from scratch after every
//! change. The paper's stage semantics (Theorem 3.6) is defined over a
//! fixed structure; this module preserves it exactly — the maintenance
//! pass runs the same global stage loop over the same three id-window
//! relation views (`old`/`delta`/`full`), merely generalized so the EDB
//! stores get delta windows too.
//!
//! # Batch anatomy
//!
//! Each [`apply_batch`](IncrementalEngine::apply_batch) runs two phases:
//!
//! 1. **Deletion** (read-only plan, all-or-nothing commit). Retractions
//!    that drop an EDB tuple's assertion count to zero delete it; lost
//!    IDB derivations are then found by a single-shot occurrence
//!    partition per rule — the pinned occurrence ranges over the deleted
//!    tuples, earlier occurrences over survivors, later occurrences over
//!    the pre-state — so each lost derivation is enumerated exactly once.
//!    Non-recursive predicates subtract the lost count from their
//!    per-tuple support (maintained exactly by the insertion pass) and die
//!    at zero; predicates in recursive SCCs fall back to DRed:
//!    over-delete the affected closure, then re-derive survivors from
//!    untouched facts until stable. The commit kills the dead tuples and
//!    **compacts** every store that holds one — after compaction no dead
//!    tuple exists, so the insertion pass (and every range-based join
//!    kernel) sees contiguous live id ranges, unchanged.
//! 2. **Insertion** (stage-by-stage commit, like a from-scratch run).
//!    Fresh EDB tuples append above the batch's delta mark. Stage one
//!    runs the *EDB-delta* rule variants — the `d`-th EDB occurrence
//!    pinned to the insertion window, earlier EDB occurrences old, later
//!    ones full, IDB atoms full — and subsequent stages run the ordinary
//!    semi-naive IDB-delta variants. Workers run in counting mode: every
//!    derivation is recorded (no committed-store shortcut, no head-check
//!    early exit), so per-tuple support counts stay exact for the
//!    counting deletion path.
//!
//! On the *initial* batch this degenerates to exactly the from-scratch
//! stage sequence — stage one of the batch enumerates precisely the
//! naive stage-1 derivations, and later stages are the ordinary
//! semi-naive variants — which is why stage identity survives (the
//! differential tests assert it).
//!
//! # Governance
//!
//! [`try_apply_batch_governed`](IncrementalEngine::try_apply_batch_governed)
//! honors a [`Governor`] exactly like governed evaluation: the deletion
//! phase commits nothing if interrupted, the insertion phase keeps its
//! committed stages, and [`resume_batch`](IncrementalEngine::resume_batch)
//! continues to a result — counters included — identical to an
//! uninterrupted run.

use crate::ast::{IdbId, Pred, Term, VarId};
use crate::eval::{
    build_indexes, compile_rule_pinned, extend_indexes, index_plan, CompiledProgram, CompiledRule,
    DeltaPin, EvalOptions, IdbAccess, StageEnv,
};
use crate::planner::plan_rules_with_stats;
use crate::program::Program;
use crate::sharded::{self, IdbStores, Shards};
use kv_structures::govern::{Governor, Interrupted};
use kv_structures::store::{CardStats, EvalStats, TupleId, TupleStore};
use kv_structures::{Element, InsertOutcome, MutableStore, PlannerMode, RelId, Structure};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One asserted or retracted EDB fact: a relation and a tuple.
pub type Fact = (RelId, Vec<Element>);

/// What one maintenance batch did, mirroring [`crate::eval::EvalResult`]'s
/// counters for the incremental path.
#[derive(Debug, Clone)]
pub struct BatchSummary {
    /// The engine epoch after this batch committed (1 for the first).
    pub epoch: u64,
    /// Distinct EDB tuples that became live (fresh assertions).
    pub edb_inserted: u64,
    /// Distinct EDB tuples whose assertion count reached zero.
    pub edb_retracted: u64,
    /// New IDB tuples derived by the insertion pass (the IDB delta).
    pub delta_tuples: u64,
    /// IDB tuples deleted net of re-derivation.
    pub deleted_tuples: u64,
    /// IDB tuples over-deleted by DRed and then re-derived from survivors.
    pub rederived_tuples: u64,
    /// IDB tuples the DRed pass over-deleted before re-derivation.
    pub overdeleted_tuples: u64,
    /// Insertion-pass stages that derived at least one new tuple. On the
    /// initial batch this matches the from-scratch stage sequence
    /// tuple-for-tuple (Theorem 3.6 stage identity).
    pub stage_new: Vec<Vec<usize>>,
    /// Tuples that crossed a shard boundary during the insertion pass
    /// (zero unless [`EvalOptions::shards`] is set, and always zero at
    /// `W = 1` — everything is local then).
    pub exchanged_tuples: u64,
    /// Matching insert/retract pairs of the same tuple cancelled before
    /// planning (plus retracts of facts that were not live, dropped as
    /// no-ops). Coalescing is a pure optimization: the maintained
    /// fixpoint and EDB support counts are identical either way.
    pub coalesced_pairs: u64,
    /// Aggregate counters for the whole batch (both phases).
    pub eval_stats: EvalStats,
}

impl BatchSummary {
    /// Number of insertion stages that derived something.
    pub fn stage_count(&self) -> usize {
        self.stage_new.len()
    }
}

/// A governed batch was interrupted; the engine holds the pending batch
/// and [`IncrementalEngine::resume_batch`] continues it.
#[derive(Debug)]
pub struct BatchInterrupted {
    /// Why the governor stopped the batch.
    pub reason: Interrupted,
}

impl fmt::Display for BatchInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "maintenance batch interrupted: {}", self.reason)
    }
}

impl std::error::Error for BatchInterrupted {}

/// Committed progress of a partially applied batch (insertion phase).
#[derive(Debug, Clone)]
struct InsertionState {
    /// EDB store length per relation before this batch's appends.
    edb_delta_lo: Vec<u32>,
    /// IDB delta marker per predicate (store length before the previous
    /// committed stage).
    delta_lo: Vec<u32>,
    /// Committed insertion stages (0 = the EDB-delta stage is still due).
    stage: usize,
    /// Per-stage new-tuple counts (stages that derived something).
    stage_new: Vec<Vec<usize>>,
    /// Counters committed so far (deletion phase + committed stages).
    stats: EvalStats,
    edb_inserted: u64,
    edb_retracted: u64,
    deleted_tuples: u64,
    rederived_tuples: u64,
    overdeleted_tuples: u64,
    /// The batch's worker count and shard keys (chosen only at `W > 1`),
    /// plus the exchange traffic of committed stages. Keys are chosen once
    /// per batch from the committed post-deletion EDB — a pure function of
    /// frozen state, so resumed batches re-use the identical keys and the
    /// owner-sorted insert appends stay valid.
    shards: Shards,
}

/// Where a pending batch stands.
#[derive(Debug, Clone)]
enum Phase {
    /// Nothing committed yet; the deletion plan is recomputed on resume.
    Deletion,
    /// Deletion committed and inserts appended; stages commit one by one.
    /// Boxed: the state is ~300 bytes against the dataless `Deletion`.
    Insertion(Box<InsertionState>),
}

#[derive(Debug, Clone)]
struct PendingBatch {
    inserts: Vec<Fact>,
    retracts: Vec<Fact>,
    /// Insert/retract pairs (and no-op retracts) dropped by coalescing
    /// before the lists above were frozen.
    coalesced: u64,
    phase: Phase,
}

/// The read-only deletion plan: computed against the pre-state, committed
/// atomically (or discarded whole on interrupt).
struct DeletionPlan {
    /// Per relation: ids whose assertion count reaches zero, sorted.
    edb_dying: Vec<Vec<u32>>,
    /// Per IDB predicate: net-deleted ids (counting deaths plus DRed's
    /// overdeleted-minus-rederived).
    idb_deleted: Vec<DenseSet>,
    /// Per counting (non-recursive) IDB predicate: lost derivation counts
    /// for tuples that survive with reduced support.
    support_sub: Vec<HashMap<u32, u32>>,
    overdeleted: u64,
    rederived: u64,
    stats: EvalStats,
}

/// A live, mutating instance of a program's least fixpoint.
#[derive(Debug)]
pub struct IncrementalEngine {
    compiled: CompiledProgram,
    options: EvalOptions,
    /// Universe and constant interpretations; relations stay empty (the
    /// live EDB is in [`edb`](Self::edb)).
    template: Structure,
    edb: Vec<MutableStore>,
    idb: Vec<MutableStore>,
    /// EDB-delta rule variants: one per rule per EDB occurrence.
    edb_variants: Vec<CompiledRule>,
    /// Rules with no body atoms; they fire once, on the first batch.
    fact_rules: Vec<CompiledRule>,
    /// Naive-rule indices grouped by head predicate (deletion joins).
    rules_by_head: Vec<Vec<usize>>,
    epoch: u64,
    pending: Option<PendingBatch>,
    total_stats: EvalStats,
}

impl IncrementalEngine {
    /// Creates an engine for `program` over `template`'s universe and
    /// constants. The template's relation contents are ignored — the
    /// engine starts from the empty EDB; assert initial facts with the
    /// first [`apply_batch`](Self::apply_batch) (or use
    /// [`from_structure`](Self::from_structure)).
    ///
    /// # Panics
    /// Panics if the template's vocabulary differs from the program's.
    pub fn new(program: &Program, template: &Structure, options: EvalOptions) -> Self {
        assert_eq!(
            template.vocabulary(),
            program.vocabulary(),
            "template/program vocabulary mismatch"
        );
        let vocab = Arc::clone(program.vocabulary());
        let mut empty = Structure::new(Arc::clone(&vocab), template.universe_size());
        for c in vocab.constants() {
            empty.set_constant(c, template.constant(c));
        }
        let compiled = CompiledProgram::compile(program);
        let magic = vec![false; program.idb_count()];
        let mut edb_variants = Vec::new();
        for rule in program.rules() {
            let edb_atoms = rule
                .atoms()
                .filter(|(p, _)| matches!(p, Pred::Edb(_)))
                .count();
            for e in 0..edb_atoms {
                edb_variants.push(compile_rule_pinned(rule, DeltaPin::Edb(e), &magic));
            }
        }
        let fact_rules: Vec<CompiledRule> = compiled
            .naive_rules
            .iter()
            .filter(|r| r.atoms.is_empty())
            .cloned()
            .collect();
        let mut rules_by_head = vec![Vec::new(); program.idb_count()];
        for (ri, rule) in compiled.naive_rules.iter().enumerate() {
            rules_by_head[rule.head.0].push(ri);
        }
        let edb: Vec<MutableStore> = vocab
            .relations()
            .map(|r| MutableStore::new(vocab.arity(r)))
            .collect();
        let idb: Vec<MutableStore> = compiled
            .idb_arities
            .iter()
            .map(|&a| MutableStore::new(a))
            .collect();
        IncrementalEngine {
            compiled,
            options,
            template: empty,
            edb,
            idb,
            edb_variants,
            fact_rules,
            rules_by_head,
            epoch: 0,
            pending: None,
            total_stats: EvalStats::default(),
        }
    }

    /// Creates an engine and applies `structure`'s facts as the initial
    /// batch, reaching the same fixpoint a from-scratch run would.
    pub fn from_structure(
        program: &Program,
        structure: &Structure,
        options: EvalOptions,
    ) -> (Self, BatchSummary) {
        let mut engine = Self::new(program, structure, options);
        let mut inserts: Vec<Fact> = Vec::new();
        for r in structure.vocabulary().relations() {
            for t in structure.relation(r).iter() {
                inserts.push((r, t.to_vec()));
            }
        }
        let summary = engine.apply_batch(&inserts, &[]);
        (engine, summary)
    }

    /// Reassembles an engine from recovered durable state: the compiled
    /// program machinery is rebuilt from `program` (it is a pure function
    /// of the rules), while the EDB/IDB stores, epoch counter, and
    /// aggregate counters come from the snapshot. Validation is
    /// structural (store counts and arities); semantic integrity — the
    /// IDB being the program's fixpoint of the EDB — is the snapshot
    /// writer's invariant, upheld because snapshots are only taken
    /// between committed batches.
    pub(crate) fn restore(
        program: &Program,
        template: &Structure,
        options: EvalOptions,
        edb: Vec<MutableStore>,
        idb: Vec<MutableStore>,
        epoch: u64,
        total_stats: EvalStats,
    ) -> Result<Self, String> {
        let mut engine = Self::new(program, template, options);
        if edb.len() != engine.edb.len() || idb.len() != engine.idb.len() {
            return Err(format!(
                "snapshot has {}/{} EDB/IDB store(s), program needs {}/{}",
                edb.len(),
                idb.len(),
                engine.edb.len(),
                engine.idb.len()
            ));
        }
        for (got, want) in edb.iter().zip(&engine.edb) {
            if got.arity() != want.arity() {
                return Err(format!(
                    "EDB store arity {} where the vocabulary says {}",
                    got.arity(),
                    want.arity()
                ));
            }
        }
        for (got, want) in idb.iter().zip(&engine.idb) {
            if got.arity() != want.arity() {
                return Err(format!(
                    "IDB store arity {} where the program says {}",
                    got.arity(),
                    want.arity()
                ));
            }
        }
        let universe = template.universe_size() as Element;
        for store in edb.iter().chain(&idb) {
            for t in store.store().iter() {
                if t.iter().any(|&e| e >= universe) {
                    return Err(format!(
                        "snapshot tuple {t:?} outside universe of size {universe}"
                    ));
                }
            }
        }
        engine.edb = edb;
        engine.idb = idb;
        engine.epoch = epoch;
        engine.total_stats = total_stats;
        Ok(engine)
    }

    /// The live EDB stores, indexed by [`RelId`] (durable snapshots).
    pub(crate) fn edb_stores(&self) -> &[MutableStore] {
        &self.edb
    }

    /// The live IDB stores, indexed by [`IdbId`] (durable snapshots).
    pub(crate) fn idb_stores(&self) -> &[MutableStore] {
        &self.idb
    }

    /// The batches committed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The evaluation options maintenance runs under.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// The goal predicate.
    pub fn goal(&self) -> IdbId {
        self.compiled.goal()
    }

    /// Whether an interrupted batch is waiting for
    /// [`resume_batch`](Self::resume_batch).
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Aggregate counters across all committed batches.
    pub fn total_stats(&self) -> EvalStats {
        self.total_stats
    }

    /// The live store of EDB relation `r`.
    pub fn edb_store(&self, r: RelId) -> &MutableStore {
        &self.edb[r.0]
    }

    /// The live store of IDB predicate `i`.
    pub fn idb_store(&self, i: IdbId) -> &MutableStore {
        &self.idb[i.0]
    }

    /// Whether `tuple` is in the maintained goal relation.
    pub fn goal_contains(&self, tuple: &[Element]) -> bool {
        self.idb[self.compiled.goal().0].contains_live(tuple)
    }

    /// Materializes the current live EDB as a [`Structure`] (the input a
    /// from-scratch evaluation of the same state would receive).
    pub fn edb_structure(&self) -> Structure {
        let mut s = self.template.clone();
        for r in self.template.vocabulary().relations() {
            for t in self.edb[r.0].live_iter() {
                s.insert(r, t);
            }
        }
        s
    }

    /// Applies a batch of EDB retractions and insertions (retractions
    /// first), maintaining the fixpoint. Ungoverned: runs to completion.
    ///
    /// Assertions are multiset-counted: inserting a fact twice requires
    /// retracting it twice before it (and its consequences) disappear.
    /// Retracting an absent fact is a no-op.
    ///
    /// # Panics
    /// Panics on an arity or universe violation, or if an interrupted
    /// governed batch is pending (resume it first).
    pub fn apply_batch(&mut self, inserts: &[Fact], retracts: &[Fact]) -> BatchSummary {
        let gov = Governor::unlimited();
        match self.try_apply_batch_governed(inserts, retracts, &gov) {
            Ok(summary) => summary,
            Err(e) => unreachable!("unlimited governor interrupted a batch: {e}"),
        }
    }

    /// Governed batch application: honors `gov`'s budget, deadline, and
    /// cancellation. The deletion phase is all-or-nothing; the insertion
    /// phase commits stage by stage. On `Err` the engine holds the
    /// pending batch and [`resume_batch`](Self::resume_batch) continues
    /// it — producing, counters included, exactly the uninterrupted
    /// result.
    ///
    /// # Panics
    /// Panics on an arity or universe violation, or if a batch is already
    /// pending.
    pub fn try_apply_batch_governed(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<BatchSummary, BatchInterrupted> {
        assert!(
            self.pending.is_none(),
            "a maintenance batch is pending; resume it before applying another"
        );
        self.validate(inserts);
        self.validate(retracts);
        let (mut inserts, mut retracts, coalesced) = self.coalesce(inserts, retracts);
        Self::canonicalize(&mut inserts, &mut retracts);
        self.pending = Some(PendingBatch {
            inserts,
            retracts,
            coalesced,
            phase: Phase::Deletion,
        });
        self.drive(gov)
    }

    /// Resumes the pending interrupted batch under a fresh governor.
    ///
    /// # Panics
    /// Panics if no batch is pending.
    pub fn resume_batch(&mut self, gov: &Governor) -> Result<BatchSummary, BatchInterrupted> {
        assert!(self.pending.is_some(), "no pending maintenance batch");
        self.drive(gov)
    }

    /// Validates facts with the same panics `apply_batch` would raise,
    /// so the durable layer can reject a malformed batch *before*
    /// logging it to the write-ahead log.
    pub(crate) fn check_facts(&self, facts: &[Fact]) {
        self.validate(facts);
    }

    fn validate(&self, facts: &[Fact]) {
        let vocab = self.template.vocabulary();
        let universe = self.template.universe_size() as Element;
        for (r, t) in facts {
            assert_eq!(t.len(), vocab.arity(*r), "fact arity mismatch");
            assert!(
                t.iter().all(|&e| e < universe),
                "fact element outside the universe"
            );
        }
    }

    /// Cancels matching insert/retract pairs of the same fact before any
    /// planning, so a write-heavy stream that churns the same tuples pays
    /// for its *net* effect only. The cancellation rule is exact under
    /// the engine's retract-then-insert multiset semantics: with `i`
    /// inserts and `r` retracts of a fact whose pre-batch live support is
    /// `s`, the batch's net effect on its support is `-min(r, s) + i` —
    /// so retracts beyond `s` are no-ops and can be dropped (`r' =
    /// min(r, s)`), and `c = min(i, r')` insert/retract pairs cancel,
    /// leaving `i - c` inserts and `r' - c` retracts with the same final
    /// support in every case. Same final EDB multiset ⇒ same fixpoint
    /// (maintenance is differential-tested against from-scratch runs on
    /// the final EDB). A tuple that would die and revive within one
    /// batch is indistinguishable from one that never died, because
    /// batches are atomic.
    ///
    /// Returns the surviving lists in original order plus the number of
    /// dropped operations.
    fn coalesce(&self, inserts: &[Fact], retracts: &[Fact]) -> (Vec<Fact>, Vec<Fact>, u64) {
        if retracts.is_empty() {
            return (inserts.to_vec(), retracts.to_vec(), 0);
        }
        // Per-fact counts. Facts are keyed by (relation, tuple); batches
        // are small relative to the EDB, so a transient hash map is fine.
        let mut counts: HashMap<(RelId, &[Element]), (u32, u32)> = HashMap::new();
        for (rel, t) in inserts {
            counts.entry((*rel, t)).or_default().0 += 1;
        }
        for (rel, t) in retracts {
            counts.entry((*rel, t)).or_default().1 += 1;
        }
        // Per fact: keep i - c inserts and r' - c retracts.
        let mut keep: HashMap<(RelId, &[Element]), (u32, u32)> =
            HashMap::with_capacity(counts.len());
        let mut coalesced = 0u64;
        for (&(rel, t), &(i, r)) in &counts {
            let live = match self.edb[rel.0].lookup(t) {
                Some(id) => self.edb[rel.0].support(id),
                None => 0,
            };
            let r_eff = r.min(live);
            let c = i.min(r_eff);
            // One unit per cancelled insert/retract pair, one per
            // phantom retract (a retract beyond the live support).
            coalesced += (c + (r - r_eff)) as u64;
            keep.insert((rel, t), (i - c, r_eff - c));
        }
        // Walk each list in order, spending the fact's keep-quota on its
        // earliest occurrences (which occurrences survive is arbitrary —
        // the batch is a multiset — but a deterministic choice keeps
        // resumed batches byte-identical).
        fn take<'f>(
            keep: &mut HashMap<(RelId, &'f [Element]), (u32, u32)>,
            rel: RelId,
            t: &'f [Element],
            retract: bool,
        ) -> bool {
            match keep.get_mut(&(rel, t)) {
                Some(quotas) => {
                    let q = if retract {
                        &mut quotas.1
                    } else {
                        &mut quotas.0
                    };
                    if *q > 0 {
                        *q -= 1;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        }
        let kept_inserts: Vec<Fact> = inserts
            .iter()
            .filter(|(rel, t)| take(&mut keep, *rel, t, false))
            .cloned()
            .collect();
        let kept_retracts: Vec<Fact> = retracts
            .iter()
            .filter(|(rel, t)| take(&mut keep, *rel, t, true))
            .cloned()
            .collect();
        // Every cancelled pair and every phantom drops exactly one
        // retract, so the unit count must equal the dropped retracts.
        debug_assert_eq!(coalesced, (retracts.len() - kept_retracts.len()) as u64);
        (kept_inserts, kept_retracts, coalesced)
    }

    /// Canonicalizes a coalesced batch for write-heavy streams: each list
    /// is stable-sorted by predicate, so every predicate's retracts land
    /// contiguously ahead of the engine's single retract-then-insert pass
    /// and its DRed overdeletion runs once per batch over one contiguous
    /// dying-id range per relation instead of revisiting interleaved
    /// groups. A batch is a multiset — reordering within it cannot change
    /// the committed EDB, so `reordered ≡ unreordered` holds by the same
    /// argument as coalescing (pinned in `tests/incremental.rs`). The
    /// stable sort keeps arrival order within a predicate, which keeps
    /// resumed batches and WAL replays byte-identical.
    fn canonicalize(inserts: &mut [Fact], retracts: &mut [Fact]) {
        retracts.sort_by_key(|(rel, _)| rel.0);
        inserts.sort_by_key(|(rel, _)| rel.0);
    }

    /// Runs the pending batch to completion or interrupt.
    #[allow(clippy::expect_used)]
    fn drive(&mut self, gov: &Governor) -> Result<BatchSummary, BatchInterrupted> {
        let mut batch = self.pending.take().expect("drive requires a pending batch");
        if matches!(batch.phase, Phase::Deletion) {
            let plan = match self.plan_deletions(&batch.retracts, gov) {
                Ok(plan) => plan,
                Err(reason) => {
                    self.pending = Some(batch);
                    return Err(BatchInterrupted { reason });
                }
            };
            let state = self.commit_deletions(plan, &batch.inserts, &batch.retracts);
            batch.phase = Phase::Insertion(Box::new(state));
        }
        let Phase::Insertion(ref mut state) = batch.phase else {
            unreachable!("deletion phase handled above")
        };
        if let Err(reason) = self.insertion_pass(gov, state) {
            self.pending = Some(batch);
            return Err(BatchInterrupted { reason });
        }
        let state = state.clone();
        for m in self.edb.iter_mut().chain(self.idb.iter_mut()) {
            m.commit_epoch();
        }
        self.epoch += 1;
        let mut eval_stats = state.stats;
        eval_stats.stages = state.stage_new.len() as u64;
        self.total_stats.merge(&eval_stats);
        Ok(BatchSummary {
            epoch: self.epoch,
            edb_inserted: state.edb_inserted,
            edb_retracted: state.edb_retracted,
            delta_tuples: state
                .stage_new
                .iter()
                .flat_map(|s| s.iter())
                .map(|&c| c as u64)
                .sum(),
            deleted_tuples: state.deleted_tuples,
            rederived_tuples: state.rederived_tuples,
            overdeleted_tuples: state.overdeleted_tuples,
            stage_new: state.stage_new,
            exchanged_tuples: state.shards.exchanged,
            coalesced_pairs: batch.coalesced,
            eval_stats,
        })
    }

    /// Applies the deletion plan, compacts stores that hold dead tuples,
    /// and appends the batch's insertions above the EDB delta marks.
    fn commit_deletions(
        &mut self,
        plan: DeletionPlan,
        inserts: &[Fact],
        retracts: &[Fact],
    ) -> InsertionState {
        let edb_retracted: u64 = plan.edb_dying.iter().map(|d| d.len() as u64).sum();
        let deleted_tuples: u64 = plan.idb_deleted.iter().map(|d| d.len() as u64).sum();
        for (r, dying) in plan.edb_dying.iter().enumerate() {
            for &id in dying {
                self.edb[r].kill(TupleId(id));
            }
        }
        // Surviving multiset assertions just lose count; replaying the
        // retract list after the kills leaves exactly the planned state.
        for (r, t) in retracts {
            let store = &mut self.edb[r.0];
            if let Some(id) = store.lookup(t) {
                if store.is_live(id) {
                    store.remove_support(id, 1);
                }
            }
        }
        for (i, dead) in plan.idb_deleted.iter().enumerate() {
            for id in dead.iter_sorted() {
                self.idb[i].kill(TupleId(id));
            }
            for (&id, &c) in &plan.support_sub[i] {
                if !dead.contains(id) {
                    self.idb[i].remove_support(TupleId(id), c);
                }
            }
        }
        for m in self.edb.iter_mut().chain(self.idb.iter_mut()) {
            if m.live_len() < m.len() {
                // Drop the dead tuples in place: the insertion pass (and
                // every range-windowed join) then sees only live,
                // contiguous ids, and the commit costs O(deleted) instead
                // of a full O(live) store rebuild.
                m.compact_in_place();
            }
        }
        let edb_delta_lo: Vec<u32> = self.edb.iter().map(|m| m.len() as u32).collect();
        // Shard keys are chosen against the committed post-deletion EDB —
        // frozen state for the rest of the batch, so an interrupted batch
        // re-derives the identical assignment on resume.
        let shards = Shards::new(self.options.shards, || {
            let stats: Vec<CardStats> = self.edb.iter().map(|m| m.store().card_stats()).collect();
            let edb_arities: Vec<usize> = self.edb.iter().map(|m| m.store().arity()).collect();
            sharded::choose_plan(
                &self.compiled.semi_variants,
                &self.edb_variants,
                &self.compiled.idb_arities,
                &edb_arities,
                &stats,
            )
        });
        // Route the batch to its owning shards: appending each relation's
        // inserts in owner order makes the EDB delta owner-contiguous, so
        // stage 0 of the insertion pass hands every worker a contiguous
        // sub-range instead of falling back to worker 0.
        let mut order: Vec<usize> = (0..inserts.len()).collect();
        if let Some(plan) = &shards.plan {
            order.sort_by_key(|&i| {
                let (r, t) = &inserts[i];
                kv_structures::shard_of(t, plan.edb_keys[r.0], shards.workers)
            });
        }
        let mut edb_inserted = 0u64;
        for &i in &order {
            let (r, t) = &inserts[i];
            match self.edb[r.0].insert(t) {
                InsertOutcome::Fresh(_) => edb_inserted += 1,
                InsertOutcome::Bumped(_) => {}
                InsertOutcome::Revived(_) => {
                    debug_assert!(false, "no dead tuples survive compaction");
                }
            }
        }
        InsertionState {
            edb_delta_lo,
            delta_lo: self.idb.iter().map(|m| m.len() as u32).collect(),
            stage: 0,
            stage_new: Vec::new(),
            stats: plan.stats,
            edb_inserted,
            edb_retracted,
            deleted_tuples,
            rederived_tuples: plan.rederived,
            overdeleted_tuples: plan.overdeleted,
            shards,
        }
    }

    /// The insertion pass: the same global stage loop as
    /// [`CompiledProgram::try_run_governed`], with the EDB-delta variants
    /// at stage one and counting-mode workers throughout.
    fn insertion_pass(
        &mut self,
        gov: &Governor,
        st: &mut InsertionState,
    ) -> Result<(), Interrupted> {
        let Self {
            ref template,
            ref edb,
            ref mut idb,
            ref compiled,
            ref edb_variants,
            ref fact_rules,
            options,
            epoch,
            ..
        } = *self;
        let idb_count = compiled.idb_arities.len();
        let edb_count = edb.len();
        let universe = template.universe_size();
        let textual = matches!(options.planner, PlannerMode::Textual);
        // Retraction-only batches arrive here with every delta window
        // empty, and every rule variant pins at least one delta atom —
        // nothing can fire, now or at any later stage. Skip the planning
        // and index builds (both O(world)); the stage loop below then runs
        // its single zero-derivation stage and exits with identical
        // counters and governor charges.
        let any_delta = epoch == 0
            || edb
                .iter()
                .zip(&st.edb_delta_lo)
                .any(|(m, &lo)| (m.len() as u32) > lo)
            || idb
                .iter()
                .zip(&st.delta_lo)
                .any(|(m, &lo)| (m.len() as u32) > lo);
        // The plan is a pure function of the committed post-deletion EDB
        // (frozen for the whole pass), so interrupted batches re-derive it
        // identically on resume.
        let (mut edb_rules, mut semi_rules) = if !any_delta {
            (Vec::new(), Vec::new())
        } else if textual {
            (edb_variants.clone(), compiled.semi_variants.clone())
        } else {
            let stats: Vec<CardStats> = edb.iter().map(|m| m.store().card_stats()).collect();
            (
                plan_rules_with_stats(edb_variants, &stats, universe, options.lowering),
                plan_rules_with_stats(&compiled.semi_variants, &stats, universe, options.lowering),
            )
        };
        // Counting mode must visit every derivation: the head-check early
        // exit (which skips re-derivations of existing tuples) is off.
        for rule in edb_rules.iter_mut().chain(semi_rules.iter_mut()) {
            rule.head_check_at = None;
        }
        let (edb_positions, idb_positions) =
            index_plan(edb_rules.iter().chain(&semi_rules), edb_count, idb_count);
        let edb_stores: Vec<&TupleStore> = edb.iter().map(|m| m.store()).collect();
        let edb_idx = build_indexes(edb_stores.iter().copied(), &edb_positions);
        let mut idb_idx = build_indexes(idb.iter().map(|m| m.store()), &idb_positions);
        loop {
            gov.check().and_then(|()| gov.charge_stage())?;
            let prev_len: Vec<u32> = idb.iter().map(|m| m.len() as u32).collect();
            let live_rules: Vec<&CompiledRule> = if st.stage == 0 {
                let mut live: Vec<&CompiledRule> = edb_rules
                    .iter()
                    .filter(|r| live_rule(r, edb, &st.edb_delta_lo, &prev_len, &st.delta_lo))
                    .collect();
                if epoch == 0 {
                    live.extend(fact_rules.iter());
                }
                live
            } else {
                semi_rules
                    .iter()
                    .filter(|r| live_rule(r, edb, &st.edb_delta_lo, &prev_len, &st.delta_lo))
                    .collect()
            };
            let env = StageEnv {
                structure: template,
                universe,
                edb: &edb_stores,
                edb_idx: &edb_idx,
                idb_idx: &idb_idx,
                blooms: None,
                prev_len: &prev_len,
                delta_lo: &st.delta_lo,
                edb_delta_lo: Some(&st.edb_delta_lo),
                batched: !textual,
                gov,
            };
            let new_count = sharded::run_stage(
                &env,
                &live_rules,
                IdbStores::Counting(idb),
                &mut st.shards,
                &mut st.stats,
            )?;
            st.stage += 1;
            let any_new = new_count.iter().any(|&c| c > 0);
            if !any_new {
                return Ok(());
            }
            let new_total: u64 = new_count.iter().map(|&c| c as u64).sum();
            let new_bytes: u64 = new_count
                .iter()
                .zip(&compiled.idb_arities)
                .map(|(&c, &a)| c as u64 * a.max(1) as u64 * 4)
                .sum();
            st.stats.tuples_interned += new_total;
            st.stage_new.push(new_count);
            st.delta_lo.copy_from_slice(&prev_len);
            extend_indexes(&mut idb_idx, idb.iter().map(|m| m.store()));
            // Budgets charge after the stage commits, so the pending
            // state includes it and resume continues from the next stage.
            gov.charge_tuples(new_total)
                .and_then(|()| gov.charge_bytes(new_bytes))?;
        }
    }
}

/// Liveness filter for one atom during deletion joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DelFilter {
    /// The pre-state: everything live before the batch (deleted included).
    Pre,
    /// The post-state: pre-state tuples not marked deleted.
    Survivor,
}

/// A counting-sort position index over one pre-state store: `probe(e)` is
/// the slice of tuple ids carrying `e` at the indexed position, in
/// increasing id order. Elements are universe indices, so two linear
/// passes build it with no hashing — several times cheaper than a
/// [`PosIndex`](kv_structures::store::PosIndex) build, which matters
/// because deletion plans index lazily per batch and throw the result
/// away.
struct DenseIdx {
    /// Bucket `e` is `ids[offsets[e] as usize..offsets[e + 1] as usize]`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl DenseIdx {
    fn build(store: &TupleStore, pos: usize, universe: usize) -> Self {
        let n = store.len();
        let mut offsets = vec![0u32; universe + 2];
        for id in 0..n as u32 {
            offsets[store.get(TupleId(id))[pos] as usize + 2] += 1;
        }
        for e in 2..offsets.len() {
            offsets[e] += offsets[e - 1];
        }
        let mut ids = vec![0u32; n];
        for id in 0..n as u32 {
            let cursor = &mut offsets[store.get(TupleId(id))[pos] as usize + 1];
            ids[*cursor as usize] = id;
            *cursor += 1;
        }
        offsets.pop();
        DenseIdx { offsets, ids }
    }

    fn probe(&self, e: Element) -> &[u32] {
        match self.offsets.get(e as usize..e as usize + 2) {
            Some(&[lo, hi]) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// Immutable world the deletion joins read: the pre-state stores plus
/// position indexes built lazily on first probe. The deletion plan is
/// single-threaded, and most positions are never probed — the fully-bound
/// fast path in [`del_join`] answers bound atoms with hash lookups — so
/// eager all-position builds would cost O(world) per batch for nothing.
struct DelWorld<'a> {
    template: &'a Structure,
    universe: usize,
    edb: &'a [MutableStore],
    idb: &'a [MutableStore],
    edb_idx: Vec<Vec<OnceCell<DenseIdx>>>,
    idb_idx: Vec<Vec<OnceCell<DenseIdx>>>,
}

impl<'a> DelWorld<'a> {
    fn new(template: &'a Structure, edb: &'a [MutableStore], idb: &'a [MutableStore]) -> Self {
        let cells = |store: &TupleStore| -> Vec<OnceCell<DenseIdx>> {
            (0..store.arity()).map(|_| OnceCell::new()).collect()
        };
        DelWorld {
            template,
            universe: template.universe_size(),
            edb,
            idb,
            edb_idx: edb.iter().map(|m| cells(m.store())).collect(),
            idb_idx: idb.iter().map(|m| cells(m.store())).collect(),
        }
    }

    fn store(&self, pred: Pred) -> &TupleStore {
        match pred {
            Pred::Edb(r) => self.edb[r.0].store(),
            Pred::Idb(i) => self.idb[i.0].store(),
        }
    }

    fn index(&self, pred: Pred, pos: usize) -> &DenseIdx {
        let (cell, store) = match pred {
            Pred::Edb(r) => (&self.edb_idx[r.0][pos], self.edb[r.0].store()),
            Pred::Idb(i) => (&self.idb_idx[i.0][pos], self.idb[i.0].store()),
        };
        cell.get_or_init(|| DenseIdx::build(store, pos, self.universe))
    }
}

/// A set of tuple ids over one pre-state store, as a dense bitmap. The
/// deletion joins test membership once per fetched candidate, so this is
/// the hottest structure in the whole deletion plan — a word-indexed bit
/// test beats hashing by an order of magnitude and ids are bounded by the
/// (compacted, contiguous) store length.
#[derive(Clone)]
struct DenseSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseSet {
    fn for_ids(n: usize) -> Self {
        DenseSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id % 64);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id % 64);
        let fresh = self.words[w] >> b & 1 == 0;
        self.words[w] |= 1 << b;
        self.len += fresh as usize;
        fresh
    }

    fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id % 64);
        let was = self.words[w] >> b & 1 == 1;
        self.words[w] &= !(1 << b);
        self.len -= was as usize;
        was
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn len(&self) -> usize {
        self.len
    }

    /// All members in increasing id order.
    fn iter_sorted(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| (w * 64 + b) as u32)
        })
    }
}

/// The mutating deleted-tuple sets the plan accumulates. Strata are
/// processed in topological order, so by the time a predicate's rules are
/// joined every upstream set is final.
struct DelSets {
    edb_dying: Vec<DenseSet>,
    idb_deleted: Vec<DenseSet>,
}

impl DelSets {
    fn deleted(&self, pred: Pred, id: u32) -> bool {
        match pred {
            Pred::Edb(r) => self.edb_dying[r.0].contains(id),
            Pred::Idb(i) => self.idb_deleted[i.0].contains(id),
        }
    }

    /// The pinned-occurrence candidate list for `pred`, sorted, or `None`
    /// when nothing of that predicate is deleted.
    fn deleted_sorted(&self, pred: Pred) -> Option<Vec<u32>> {
        let set = match pred {
            Pred::Edb(r) => &self.edb_dying[r.0],
            Pred::Idb(i) => &self.idb_deleted[i.0],
        };
        if set.is_empty() {
            return None;
        }
        Some(set.iter_sorted().collect())
    }
}

/// Governor accounting for the deletion pass: worker-local step batching,
/// one probe counted per candidate-source fetch.
struct DelMeter<'a> {
    gov: &'a Governor,
    pending: u64,
    probes: u64,
}

impl<'a> DelMeter<'a> {
    fn charge(&mut self) -> Result<(), Interrupted> {
        self.pending += 1;
        if self.pending >= 64 {
            let n = self.pending;
            self.pending = 0;
            self.gov.step(n)?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), Interrupted> {
        if self.pending > 0 {
            let n = self.pending;
            self.pending = 0;
            self.gov.step(n)?;
        }
        Ok(())
    }
}

fn pre_live(world: &DelWorld<'_>, pred: Pred, id: u32) -> bool {
    match pred {
        // The deletion plan runs before any mutation, so "live now" is
        // the pre-state; EDB tuples marked dying are still live here.
        Pred::Edb(r) => world.edb[r.0].is_live(TupleId(id)),
        Pred::Idb(_) => true,
    }
}

fn filter_ok(world: &DelWorld<'_>, sets: &DelSets, pred: Pred, id: u32, f: DelFilter) -> bool {
    match f {
        DelFilter::Pre => pre_live(world, pred, id),
        DelFilter::Survivor => pre_live(world, pred, id) && !sets.deleted(pred, id),
    }
}

fn resolve(world: &DelWorld<'_>, binding: &[Option<Element>], t: &Term) -> Option<Element> {
    match t {
        Term::Var(v) => binding[v.0],
        Term::Const(c) => Some(world.template.constant(*c)),
    }
}

fn const_eqs_ok(world: &DelWorld<'_>, rule: &CompiledRule) -> bool {
    rule.const_eqs.iter().all(|(a, b)| {
        let val = |t: &Term| match t {
            Term::Var(_) => None,
            Term::Const(c) => Some(world.template.constant(*c)),
        };
        val(a) == val(b)
    })
}

/// Recursive deletion join: binds atoms in `order` (the pinned deleted
/// occurrence first, seeded by `seed`), then enumerates unbound free
/// variables, checks all ≠-constraints, and emits each satisfying head.
/// `emit` returning `true` stops the whole join (existence queries).
///
/// Candidate selection is dynamic — the first resolvable argument position
/// probes its all-position index, otherwise the atom scans — because
/// deleted sets are not id ranges and the static kernels don't apply.
#[allow(clippy::too_many_arguments)]
fn del_join(
    world: &DelWorld<'_>,
    sets: &DelSets,
    m: &mut DelMeter<'_>,
    rule: &CompiledRule,
    order: &[usize],
    filters: &[DelFilter],
    seed: Option<&[u32]>,
    binding: &mut Vec<Option<Element>>,
    depth: usize,
    emit: &mut dyn FnMut(&[Element]) -> bool,
) -> Result<bool, Interrupted> {
    if depth == order.len() {
        return del_free(world, m, rule, 0, binding, emit);
    }
    let ai = order[depth];
    let atom = &rule.atoms[ai];
    let store = world.store(atom.pred);
    m.probes += 1;
    let seed_ids = if depth == 0 { seed } else { None };
    if seed_ids.is_none() {
        // Fully-bound fast path: every argument resolves, so the atom is
        // an existence test — one hash lookup instead of a probe+scan.
        // Dominant in `derivable`, where the head binds all join vars.
        let mut full: Vec<Element> = Vec::with_capacity(atom.args.len());
        if atom
            .args
            .iter()
            .all(|t| resolve(world, binding, t).map(|e| full.push(e)).is_some())
        {
            m.charge()?;
            if let Some(id) = store.lookup(&full) {
                if filter_ok(world, sets, atom.pred, id.0, filters[ai]) {
                    return del_join(
                        world,
                        sets,
                        m,
                        rule,
                        order,
                        filters,
                        seed,
                        binding,
                        depth + 1,
                        emit,
                    );
                }
            }
            return Ok(false);
        }
    }
    let probe = if seed_ids.is_none() {
        atom.args
            .iter()
            .enumerate()
            .find_map(|(p, t)| resolve(world, binding, t).map(|e| (p, e)))
    } else {
        None
    };
    let scan_buf: Vec<u32>;
    let ids: &[u32] = match (seed_ids, probe) {
        (Some(s), _) => s,
        (None, Some((p, e))) => world.index(atom.pred, p).probe(e),
        (None, None) => {
            scan_buf = (0..store.len() as u32).collect();
            &scan_buf
        }
    };
    let mut newly: Vec<VarId> = Vec::new();
    for &id in ids {
        m.charge()?;
        if !filter_ok(world, sets, atom.pred, id, filters[ai]) {
            continue;
        }
        let tuple = store.get(TupleId(id));
        let mut ok = true;
        for (pos, t) in atom.args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    if world.template.constant(*c) != tuple[pos] {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match binding[v.0] {
                    Some(e) => {
                        if e != tuple[pos] {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding[v.0] = Some(tuple[pos]);
                        newly.push(*v);
                    }
                },
            }
        }
        let stop = if ok {
            del_join(
                world,
                sets,
                m,
                rule,
                order,
                filters,
                seed,
                binding,
                depth + 1,
                emit,
            )?
        } else {
            false
        };
        for v in newly.drain(..) {
            binding[v.0] = None;
        }
        if stop {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Enumerates still-unbound free variables (head-bound re-derivation
/// checks arrive with some already fixed), then checks every
/// ≠-constraint and emits the head tuple.
fn del_free(
    world: &DelWorld<'_>,
    m: &mut DelMeter<'_>,
    rule: &CompiledRule,
    fi: usize,
    binding: &mut Vec<Option<Element>>,
    emit: &mut dyn FnMut(&[Element]) -> bool,
) -> Result<bool, Interrupted> {
    if fi == rule.free_vars.len() {
        for (a, b) in &rule.neqs {
            if let (Some(x), Some(y)) = (resolve(world, binding, a), resolve(world, binding, b)) {
                if x == y {
                    return Ok(false);
                }
            }
        }
        let mut head: Vec<Element> = Vec::with_capacity(rule.head_args.len());
        for t in &rule.head_args {
            match resolve(world, binding, t) {
                Some(e) => head.push(e),
                None => {
                    debug_assert!(false, "head variables bound after free enumeration");
                    return Ok(false);
                }
            }
        }
        return Ok(emit(&head));
    }
    let v = rule.free_vars[fi];
    if binding[v.0].is_some() {
        return del_free(world, m, rule, fi + 1, binding, emit);
    }
    for e in 0..world.universe as Element {
        m.charge()?;
        binding[v.0] = Some(e);
        let stop = del_free(world, m, rule, fi + 1, binding, emit)?;
        if stop {
            binding[v.0] = None;
            return Ok(true);
        }
    }
    binding[v.0] = None;
    Ok(false)
}

/// Collects, for one rule and one pinned deleted occurrence `o`, every
/// lost derivation's head id: occurrence `o` ranges over the deleted
/// tuples, earlier occurrences over survivors, later ones over the
/// pre-state — the single-shot partition that enumerates each lost
/// derivation exactly once across all `o`.
#[allow(clippy::too_many_arguments)]
fn lost_heads(
    world: &DelWorld<'_>,
    sets: &DelSets,
    m: &mut DelMeter<'_>,
    rule: &CompiledRule,
    o: usize,
    seed: &[u32],
    out: &mut Vec<u32>,
) -> Result<(), Interrupted> {
    if !const_eqs_ok(world, rule) {
        return Ok(());
    }
    let n = rule.atoms.len();
    let mut order: Vec<usize> = vec![o];
    order.extend((0..n).filter(|&j| j != o));
    let filters: Vec<DelFilter> = (0..n)
        .map(|j| {
            if j < o {
                DelFilter::Survivor
            } else {
                DelFilter::Pre
            }
        })
        .collect();
    let head_store = world.idb[rule.head.0].store();
    let mut binding = vec![None; rule.var_count];
    del_join(
        world,
        sets,
        m,
        rule,
        &order,
        &filters,
        Some(seed),
        &mut binding,
        0,
        &mut |head| {
            match head_store.lookup(head) {
                Some(id) => out.push(id.0),
                // A lost derivation's head was derivable pre-batch, so it
                // is interned; anything else signals count drift.
                None => debug_assert!(false, "lost derivation of an unknown head tuple"),
            }
            false
        },
    )?;
    Ok(())
}

/// Whether `tuple` of predicate `head` is derivable from survivors only
/// (the DRed re-derivation test): head-bound existence join over every
/// rule for `head`.
fn derivable(
    world: &DelWorld<'_>,
    sets: &DelSets,
    m: &mut DelMeter<'_>,
    rules: &[&CompiledRule],
    tuple: &[Element],
) -> Result<bool, Interrupted> {
    'rules: for rule in rules {
        if !const_eqs_ok(world, rule) {
            continue;
        }
        let mut binding = vec![None; rule.var_count];
        for (k, t) in rule.head_args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    if world.template.constant(*c) != tuple[k] {
                        continue 'rules;
                    }
                }
                Term::Var(v) => match binding[v.0] {
                    Some(e) => {
                        if e != tuple[k] {
                            continue 'rules;
                        }
                    }
                    None => binding[v.0] = Some(tuple[k]),
                },
            }
        }
        let n = rule.atoms.len();
        let order: Vec<usize> = (0..n).collect();
        let filters = vec![DelFilter::Survivor; n];
        let mut found = false;
        del_join(
            world,
            sets,
            m,
            rule,
            &order,
            &filters,
            None,
            &mut binding,
            0,
            &mut |_| {
                found = true;
                true
            },
        )?;
        if found {
            return Ok(true);
        }
    }
    Ok(false)
}

impl IncrementalEngine {
    /// Computes the deletion plan against the pre-state without mutating
    /// anything: EDB deaths from the retract list, then per SCC in
    /// topological stratum order either exact counting (non-recursive) or
    /// DRed overdelete/re-derive (recursive).
    fn plan_deletions(
        &self,
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<DeletionPlan, Interrupted> {
        let idb_count = self.compiled.idb_arities.len();
        let mut plan = DeletionPlan {
            edb_dying: vec![Vec::new(); self.edb.len()],
            idb_deleted: (0..idb_count)
                .map(|i| DenseSet::for_ids(self.idb[i].len()))
                .collect(),
            support_sub: vec![HashMap::new(); idb_count],
            overdeleted: 0,
            rederived: 0,
            stats: EvalStats::default(),
        };
        // Multiset simulation of the retract list: a tuple dies when the
        // batch retracts at least its current assertion count.
        let mut pending: Vec<HashMap<u32, u32>> = vec![HashMap::new(); self.edb.len()];
        for (r, t) in retracts {
            if let Some(id) = self.edb[r.0].lookup(t) {
                if self.edb[r.0].is_live(id) {
                    *pending[r.0].entry(id.0).or_insert(0) += 1;
                }
            }
        }
        let mut any_dying = false;
        for (r, counts) in pending.into_iter().enumerate() {
            let mut dying: Vec<u32> = counts
                .into_iter()
                .filter(|&(id, c)| self.edb[r].support(TupleId(id)) <= c)
                .map(|(id, _)| id)
                .collect();
            dying.sort_unstable();
            any_dying |= !dying.is_empty();
            plan.edb_dying[r] = dying;
        }
        if !any_dying {
            // Nothing becomes false: skip index builds and joins entirely
            // (the common insert-only batch).
            return Ok(plan);
        }
        gov.check()?;
        let world = DelWorld::new(&self.template, &self.edb, &self.idb);
        let mut sets = DelSets {
            edb_dying: plan
                .edb_dying
                .iter()
                .zip(&self.edb)
                .map(|(v, m)| {
                    let mut set = DenseSet::for_ids(m.len());
                    for &id in v {
                        set.insert(id);
                    }
                    set
                })
                .collect(),
            idb_deleted: (0..idb_count)
                .map(|i| DenseSet::for_ids(self.idb[i].len()))
                .collect(),
        };
        let mut meter = DelMeter {
            gov,
            pending: 0,
            probes: 0,
        };
        let scc = self.compiled.scc_info();
        for c in 0..scc.count() {
            if scc.is_recursive(c) {
                self.dred_component(&world, &mut sets, &mut meter, c, &mut plan)?;
            } else {
                for &p in scc.members(c) {
                    self.count_deletions(&world, &mut sets, &mut meter, p, &mut plan)?;
                }
            }
        }
        meter.flush()?;
        plan.idb_deleted = sets.idb_deleted;
        plan.stats.join_probes = meter.probes;
        Ok(plan)
    }

    /// Exact counting deletion for a non-recursive predicate: accumulate
    /// lost derivation counts over all rules and pinned occurrences, kill
    /// tuples whose support reaches zero.
    fn count_deletions(
        &self,
        world: &DelWorld<'_>,
        sets: &mut DelSets,
        meter: &mut DelMeter<'_>,
        p: usize,
        plan: &mut DeletionPlan,
    ) -> Result<(), Interrupted> {
        let mut lost: HashMap<u32, u32> = HashMap::new();
        let mut heads: Vec<u32> = Vec::new();
        for &ri in &self.rules_by_head[p] {
            let rule = &self.compiled.naive_rules[ri];
            for o in 0..rule.atoms.len() {
                let Some(seed) = sets.deleted_sorted(rule.atoms[o].pred) else {
                    continue;
                };
                heads.clear();
                lost_heads(world, sets, meter, rule, o, &seed, &mut heads)?;
                for &id in &heads {
                    *lost.entry(id).or_insert(0) += 1;
                }
            }
        }
        for (&id, &c) in &lost {
            if self.idb[p].support(TupleId(id)) <= c {
                sets.idb_deleted[p].insert(id);
            }
        }
        plan.support_sub[p] = lost;
        Ok(())
    }

    /// DRed for one recursive SCC: seed the overdeletion from external
    /// deletions, propagate through member occurrences to a fixpoint,
    /// then re-derive overdeleted tuples from survivors until stable.
    fn dred_component(
        &self,
        world: &DelWorld<'_>,
        sets: &mut DelSets,
        meter: &mut DelMeter<'_>,
        c: usize,
        plan: &mut DeletionPlan,
    ) -> Result<(), Interrupted> {
        let scc = self.compiled.scc_info();
        let members: Vec<usize> = scc.members(c).to_vec();
        let member_set: HashSet<usize> = members.iter().copied().collect();
        let mut rules: Vec<usize> = Vec::new();
        for &p in &members {
            rules.extend(self.rules_by_head[p].iter().copied());
        }
        rules.sort_unstable();
        let mut heads: Vec<u32> = Vec::new();
        // Overdelete seed: derivations with at least one externally
        // deleted premise (EDB deaths or finalized earlier strata).
        let mut frontier: HashMap<usize, Vec<u32>> = HashMap::new();
        for &ri in &rules {
            let rule = &self.compiled.naive_rules[ri];
            let head = rule.head.0;
            for (o, atom) in rule.atoms.iter().enumerate() {
                if matches!(atom.pred, Pred::Idb(i) if member_set.contains(&i.0)) {
                    continue;
                }
                let Some(seed) = sets.deleted_sorted(atom.pred) else {
                    continue;
                };
                heads.clear();
                lost_dred(world, sets, meter, rule, o, &seed, &mut heads)?;
                collect_fresh(&mut frontier, &sets.idb_deleted[head], head, &heads);
            }
        }
        let mut overdeleted: Vec<(usize, u32)> = Vec::new();
        while !frontier.is_empty() {
            // Commit this round's overdeletions before propagating.
            let mut round: Vec<(usize, Vec<u32>)> = frontier.drain().collect();
            round.sort_unstable_by_key(|(p, _)| *p);
            for (p, ids) in &round {
                for &id in ids {
                    sets.idb_deleted[*p].insert(id);
                    overdeleted.push((*p, id));
                }
            }
            let mut next: HashMap<usize, Vec<u32>> = HashMap::new();
            for &ri in &rules {
                let rule = &self.compiled.naive_rules[ri];
                let head = rule.head.0;
                for (o, atom) in rule.atoms.iter().enumerate() {
                    let Pred::Idb(i) = atom.pred else { continue };
                    let Some((_, seed)) = round.iter().find(|(p, _)| *p == i.0) else {
                        continue;
                    };
                    if seed.is_empty() {
                        continue;
                    }
                    heads.clear();
                    lost_dred(world, sets, meter, rule, o, seed, &mut heads)?;
                    collect_fresh(&mut next, &sets.idb_deleted[head], head, &heads);
                }
            }
            frontier = next;
        }
        overdeleted.sort_unstable();
        overdeleted.dedup();
        plan.overdeleted += overdeleted.len() as u64;
        // Re-derive: an overdeleted tuple with a surviving derivation
        // comes back, possibly re-enabling others. One head-bound
        // existence pass over the overdeleted set seeds a frontier; after
        // that only delta joins pinned on freshly rederived tuples run, so
        // tuples no rederivation can reach are never rechecked (the naive
        // alternative — rescanning every overdeleted tuple per round —
        // costs rounds × overdeleted and dominates TC-style cascades).
        let rules_of: Vec<Vec<&CompiledRule>> = (0..self.compiled.idb_arities.len())
            .map(|p| {
                self.rules_by_head[p]
                    .iter()
                    .map(|&ri| &self.compiled.naive_rules[ri])
                    .collect()
            })
            .collect();
        let mut frontier: HashMap<usize, Vec<u32>> = HashMap::new();
        for &(p, id) in &overdeleted {
            let tuple = world.idb[p].store().get(TupleId(id)).to_vec();
            // Rederived tuples count as survivors immediately (the
            // iteration order is fixed, so this stays deterministic and
            // only accelerates convergence).
            if derivable(world, sets, meter, &rules_of[p], &tuple)? {
                sets.idb_deleted[p].remove(id);
                plan.rederived += 1;
                frontier.entry(p).or_default().push(id);
            }
        }
        while !frontier.is_empty() {
            let mut round: Vec<(usize, Vec<u32>)> = frontier.drain().collect();
            round.sort_unstable_by_key(|(p, _)| *p);
            for (_, ids) in round.iter_mut() {
                ids.sort_unstable();
            }
            let mut next: HashMap<usize, Vec<u32>> = HashMap::new();
            for &ri in &rules {
                let rule = &self.compiled.naive_rules[ri];
                let head = rule.head.0;
                for (o, atom) in rule.atoms.iter().enumerate() {
                    let Pred::Idb(i) = atom.pred else { continue };
                    let Some((_, seed)) = round.iter().find(|(p, _)| *p == i.0) else {
                        continue;
                    };
                    heads.clear();
                    rederive_heads(world, sets, meter, rule, o, seed, &mut heads)?;
                    for &id in &heads {
                        if sets.idb_deleted[head].remove(id) {
                            plan.rederived += 1;
                            next.entry(head).or_default().push(id);
                        }
                    }
                }
            }
            frontier = next;
        }
        Ok(())
    }
}

/// Rederivation propagation join: the pinned occurrence ranges over
/// freshly rederived tuples, every other occurrence over survivors. Any
/// head it derives is derivable from the post-deletion state.
#[allow(clippy::too_many_arguments)]
fn rederive_heads(
    world: &DelWorld<'_>,
    sets: &DelSets,
    m: &mut DelMeter<'_>,
    rule: &CompiledRule,
    o: usize,
    seed: &[u32],
    out: &mut Vec<u32>,
) -> Result<(), Interrupted> {
    if !const_eqs_ok(world, rule) {
        return Ok(());
    }
    let n = rule.atoms.len();
    let mut order: Vec<usize> = vec![o];
    order.extend((0..n).filter(|&j| j != o));
    let filters = vec![DelFilter::Survivor; n];
    let head_store = world.idb[rule.head.0].store();
    let mut binding = vec![None; rule.var_count];
    del_join(
        world,
        sets,
        m,
        rule,
        &order,
        &filters,
        Some(seed),
        &mut binding,
        0,
        &mut |head| {
            // Deletion shrinks the fixpoint, so every tuple derivable from
            // survivors was derivable pre-batch and is interned; a miss
            // would only mean the head was never derived — skip it.
            if let Some(id) = head_store.lookup(head) {
                out.push(id.0);
            }
            false
        },
    )?;
    Ok(())
}

/// Overdeletion join: like [`lost_heads`] but every non-pinned occurrence
/// reads the pre-state (the over-approximation DRed wants — duplicates
/// across pinned occurrences are fine, re-derivation repairs excess).
#[allow(clippy::too_many_arguments)]
fn lost_dred(
    world: &DelWorld<'_>,
    sets: &DelSets,
    m: &mut DelMeter<'_>,
    rule: &CompiledRule,
    o: usize,
    seed: &[u32],
    out: &mut Vec<u32>,
) -> Result<(), Interrupted> {
    if !const_eqs_ok(world, rule) {
        return Ok(());
    }
    let n = rule.atoms.len();
    let mut order: Vec<usize> = vec![o];
    order.extend((0..n).filter(|&j| j != o));
    let filters = vec![DelFilter::Pre; n];
    let head_store = world.idb[rule.head.0].store();
    let mut binding = vec![None; rule.var_count];
    del_join(
        world,
        sets,
        m,
        rule,
        &order,
        &filters,
        Some(seed),
        &mut binding,
        0,
        &mut |head| {
            if let Some(id) = head_store.lookup(head) {
                out.push(id.0);
            }
            false
        },
    )?;
    Ok(())
}

/// Adds head ids not already marked deleted to `frontier[head]`, sorted
/// and deduplicated (deterministic round order).
fn collect_fresh(
    frontier: &mut HashMap<usize, Vec<u32>>,
    deleted: &DenseSet,
    head: usize,
    heads: &[u32],
) {
    let mut fresh: Vec<u32> = heads
        .iter()
        .copied()
        .filter(|&id| !deleted.contains(id))
        .collect();
    if fresh.is_empty() {
        return;
    }
    fresh.sort_unstable();
    fresh.dedup();
    let entry = frontier.entry(head).or_default();
    entry.extend(fresh);
    entry.sort_unstable();
    entry.dedup();
}

/// Whether a rule variant can derive anything this stage: every atom's
/// window must be non-empty (see the from-scratch loop's sharpened
/// cost-based filter; sound in counting mode because a filtered variant
/// derives nothing and therefore contributes no support).
fn live_rule(
    rule: &CompiledRule,
    edb: &[MutableStore],
    edb_delta_lo: &[u32],
    prev_len: &[u32],
    delta_lo: &[u32],
) -> bool {
    rule.atoms.iter().all(|atom| match atom.pred {
        Pred::Edb(r) => {
            let len = edb[r.0].len() as u32;
            match atom.access {
                IdbAccess::Delta => edb_delta_lo[r.0] < len,
                IdbAccess::Old => edb_delta_lo[r.0] > 0,
                IdbAccess::Full => len > 0,
            }
        }
        Pred::Idb(i) => match atom.access {
            IdbAccess::Delta => delta_lo[i.0] < prev_len[i.0],
            IdbAccess::Old => delta_lo[i.0] > 0,
            IdbAccess::Full => prev_len[i.0] > 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::programs;
    use kv_structures::generators::{directed_path, random_digraph};
    use kv_structures::govern::Budget;
    use kv_structures::JoinLowering;

    /// The engine's live IDB sets must equal a from-scratch run over the
    /// engine's own materialized EDB.
    fn assert_matches_scratch(engine: &IncrementalEngine, program: &Program) {
        let scratch = Evaluator::new(program).run(&engine.edb_structure(), engine.options());
        for i in 0..program.idb_count() {
            let live: HashSet<Vec<Element>> = engine
                .idb_store(IdbId(i))
                .live_iter()
                .map(|t| t.to_vec())
                .collect();
            let expect: HashSet<Vec<Element>> = scratch.idb[i].iter().map(|t| t.to_vec()).collect();
            assert_eq!(live, expect, "IDB {} diverged", program.idb_name(IdbId(i)));
        }
    }

    #[test]
    fn initial_batch_matches_scratch_with_stage_identity() {
        let program = programs::transitive_closure();
        let s = directed_path(6);
        let (engine, summary) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        assert_matches_scratch(&engine, &program);
        let scratch = Evaluator::new(&program).run(&s, EvalOptions::default());
        let scratch_stages: Vec<Vec<usize>> = scratch
            .stats
            .iter()
            .map(|st| st.new_tuples.clone())
            .collect();
        assert_eq!(summary.stage_new, scratch_stages, "stage identity");
        assert_eq!(summary.delta_tuples, 15);
        assert_eq!(summary.deleted_tuples, 0);
    }

    #[test]
    fn insertions_extend_the_closure() {
        let program = programs::transitive_closure();
        let template = Structure::new(Arc::new(kv_structures::Vocabulary::graph()), 6);
        let mut engine = IncrementalEngine::new(&program, &template, EvalOptions::default());
        let e = RelId(0);
        engine.apply_batch(&[(e, vec![0, 1]), (e, vec![1, 2])], &[]);
        assert_matches_scratch(&engine, &program);
        assert!(engine.goal_contains(&[0, 2]));
        let summary = engine.apply_batch(&[(e, vec![2, 3])], &[]);
        assert!(engine.goal_contains(&[0, 3]));
        assert_eq!(summary.delta_tuples, 3); // (2,3), (1,3), (0,3)
        assert_matches_scratch(&engine, &program);
    }

    #[test]
    fn retraction_uses_dred_on_the_recursive_goal() {
        let program = programs::transitive_closure();
        let g = random_digraph(12, 0.25, 7);
        let s = g.to_structure();
        let (mut engine, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        let e = RelId(0);
        // Retract a third of the edges, then re-insert one of them.
        let edges: Vec<Vec<Element>> = g.edges().map(|(u, v)| vec![u, v]).collect();
        let retracts: Vec<Fact> = edges.iter().step_by(3).map(|t| (e, t.clone())).collect();
        let summary = engine.apply_batch(&[], &retracts);
        assert!(summary.edb_retracted > 0);
        assert_matches_scratch(&engine, &program);
        engine.apply_batch(&[(e, edges[0].clone())], &[]);
        assert_matches_scratch(&engine, &program);
    }

    #[test]
    fn multiset_assertions_need_matching_retractions() {
        let program = programs::transitive_closure();
        let template = Structure::new(Arc::new(kv_structures::Vocabulary::graph()), 4);
        let mut engine = IncrementalEngine::new(&program, &template, EvalOptions::default());
        let e = RelId(0);
        engine.apply_batch(&[(e, vec![0, 1]), (e, vec![0, 1])], &[]);
        let summary = engine.apply_batch(&[], &[(e, vec![0, 1])]);
        // One assertion remains: nothing becomes false.
        assert_eq!(summary.edb_retracted, 0);
        assert!(engine.goal_contains(&[0, 1]));
        let summary = engine.apply_batch(&[], &[(e, vec![0, 1])]);
        assert_eq!(summary.edb_retracted, 1);
        assert!(!engine.goal_contains(&[0, 1]));
        assert_matches_scratch(&engine, &program);
    }

    #[test]
    fn mixed_batches_match_scratch_across_lowerings() {
        let program = programs::transitive_closure();
        let e = RelId(0);
        for options in [
            EvalOptions::default(),
            EvalOptions::default().with_planner(PlannerMode::CostBased),
            EvalOptions::default()
                .with_planner(PlannerMode::CostBased)
                .with_lowering(JoinLowering::Generic),
        ] {
            let g = random_digraph(10, 0.3, 11);
            let s = g.to_structure();
            let (mut engine, _) = IncrementalEngine::from_structure(&program, &s, options);
            let edges: Vec<Vec<Element>> = g.edges().map(|(u, v)| vec![u, v]).collect();
            // Retract some edges and insert fresh ones in the same batch.
            let retracts: Vec<Fact> = edges.iter().take(4).map(|t| (e, t.clone())).collect();
            let inserts: Vec<Fact> = vec![(e, vec![9, 0]), (e, edges[0].clone())];
            engine.apply_batch(&inserts, &retracts);
            assert_matches_scratch(&engine, &program);
        }
    }

    #[test]
    fn inequality_program_maintains_under_mutation() {
        let program = programs::q_prime();
        let g = random_digraph(8, 0.3, 3);
        let s = g.to_structure();
        let (mut engine, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        let e = RelId(0);
        let edges: Vec<Vec<Element>> = g.edges().map(|(u, v)| vec![u, v]).collect();
        engine.apply_batch(&[(e, vec![7, 0])], &[(e, edges[1].clone())]);
        assert_matches_scratch(&engine, &program);
    }

    #[test]
    fn interrupted_batches_resume_counter_exact() {
        let program = programs::transitive_closure();
        let g = random_digraph(10, 0.3, 5);
        let s = g.to_structure();
        let e = RelId(0);
        let edges: Vec<Vec<Element>> = g.edges().map(|(u, v)| vec![u, v]).collect();
        let options = EvalOptions::default();
        let run = |budget: Option<u64>| -> (IncrementalEngine, BatchSummary, u32) {
            let (mut engine, _) = IncrementalEngine::from_structure(&program, &s, options);
            let retracts: Vec<Fact> = edges.iter().take(3).map(|t| (e, t.clone())).collect();
            let inserts: Vec<Fact> = vec![(e, vec![9, 1]), (e, vec![8, 0])];
            let mut resumes = 0u32;
            let summary = match budget {
                None => engine.apply_batch(&inserts, &retracts),
                Some(steps) => {
                    // The deletion phase is all-or-nothing, so resuming with
                    // a budget it can never fit in would livelock; double the
                    // budget on each resume to guarantee progress.
                    let mut budget = steps;
                    let mut gov = Governor::with_budget(Budget::steps(budget));
                    let mut res = engine.try_apply_batch_governed(&inserts, &retracts, &gov);
                    loop {
                        match res {
                            Ok(summary) => break summary,
                            Err(_) => {
                                resumes += 1;
                                assert!(engine.has_pending());
                                budget = budget.saturating_mul(2);
                                gov = Governor::with_budget(Budget::steps(budget));
                                res = engine.resume_batch(&gov);
                            }
                        }
                    }
                }
            };
            (engine, summary, resumes)
        };
        let (straight_engine, straight, _) = run(None);
        for steps in [50u64, 200, 1000] {
            let (engine, summary, resumes) = run(Some(steps));
            if steps == 50 {
                assert!(resumes > 0, "tiny budget must interrupt at least once");
            }
            assert_eq!(summary.eval_stats, straight.eval_stats, "steps={steps}");
            assert_eq!(summary.delta_tuples, straight.delta_tuples);
            assert_eq!(summary.deleted_tuples, straight.deleted_tuples);
            assert_eq!(summary.rederived_tuples, straight.rederived_tuples);
            assert_matches_scratch(&engine, &program);
            for i in 0..program.idb_count() {
                assert!(engine
                    .idb_store(IdbId(i))
                    .store()
                    .set_eq(straight_engine.idb_store(IdbId(i)).store()));
            }
        }
    }

    #[test]
    fn fact_rules_fire_once_and_survive_mutation() {
        let program = programs::two_disjoint_paths_paper_rules();
        let vocab = Arc::new(programs::two_pairs_vocabulary());
        let mut s = Structure::new(Arc::clone(&vocab), 5);
        for c in vocab.constants() {
            s.set_constant(c, 0);
        }
        let e = RelId(0);
        s.insert(e, &[0, 1]);
        s.insert(e, &[1, 2]);
        let (mut engine, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        assert_matches_scratch(&engine, &program);
        engine.apply_batch(&[(e, vec![2, 3])], &[(e, vec![0, 1])]);
        assert_matches_scratch(&engine, &program);
    }

    #[test]
    fn support_counts_track_exact_derivations() {
        // Diamond: 0->1->3 and 0->2->3 give S(0,3) two derivations via the
        // recursive rule; S is recursive so deletion uses DRed, but the
        // counts are still recorded — check them for plausibility on a
        // non-recursive projection program instead.
        let program = crate::parser::parse_program(
            "P(x) :- E(x, y).\n?- P.",
            Arc::new(kv_structures::Vocabulary::graph()),
        )
        .unwrap();
        let template = Structure::new(Arc::new(kv_structures::Vocabulary::graph()), 4);
        let mut engine = IncrementalEngine::new(&program, &template, EvalOptions::default());
        let e = RelId(0);
        engine.apply_batch(&[(e, vec![0, 1]), (e, vec![0, 2])], &[]);
        let p = engine.idb_store(IdbId(0));
        let id = p.lookup(&[0]).unwrap();
        assert_eq!(p.support(id), 2, "P(0) has two derivations");
        // Removing one edge decrements support; P(0) survives.
        engine.apply_batch(&[], &[(e, vec![0, 1])]);
        let p = engine.idb_store(IdbId(0));
        assert_eq!(p.support(p.lookup(&[0]).unwrap()), 1);
        assert!(engine.goal_contains(&[0]));
        engine.apply_batch(&[], &[(e, vec![0, 2])]);
        assert!(!engine.goal_contains(&[0]));
        assert_matches_scratch(&engine, &program);
    }

    #[test]
    fn deletion_only_batches_are_cheap() {
        let program = programs::transitive_closure();
        let s = directed_path(5);
        let (mut engine, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        let before = engine.total_stats();
        let summary = engine.apply_batch(&[], &[(RelId(0), vec![3, 4])]);
        assert_eq!(summary.delta_tuples, 0);
        assert_eq!(summary.deleted_tuples, 4); // (3,4),(2,4),(1,4),(0,4)
        assert_matches_scratch(&engine, &program);
        let after = engine.total_stats();
        assert!(after.join_probes - before.join_probes < 200);
    }

    /// Coalescing differential: a churny combined batch must land on the
    /// same EDB support counts and IDB fixpoint as applying the same
    /// inserts and retracts *uncoalesced* — as two separate batches,
    /// which never enter the pair-cancellation path.
    #[test]
    fn coalesced_batches_match_uncoalesced_split() {
        let program = programs::transitive_closure();
        let e = RelId(0);
        let g = random_digraph(9, 0.3, 23);
        let s = g.to_structure();
        let edges: Vec<Vec<Element>> = g.edges().map(|(u, v)| vec![u, v]).collect();
        // A churny batch: retract the first four edges, re-insert two of
        // them, double-insert a fresh edge and retract it once, and
        // retract a fact that is not live at all.
        let inserts: Vec<Fact> = vec![
            (e, edges[0].clone()),
            (e, edges[1].clone()),
            (e, vec![8, 0]),
            (e, vec![8, 0]),
        ];
        let retracts: Vec<Fact> = edges
            .iter()
            .take(4)
            .map(|t| (e, t.clone()))
            .chain([(e, vec![8, 0]), (e, vec![7, 7])])
            .collect();

        let (mut combined, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        let summary = combined.apply_batch(&inserts, &retracts);
        assert!(summary.coalesced_pairs > 0, "churn must cancel pairs");

        let (mut split, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        split.apply_batch(&[], &retracts);
        split.apply_batch(&inserts, &[]);

        // Identical live EDB with identical multiset support counts.
        for (mc, ms) in combined.edb_stores().iter().zip(split.edb_stores()) {
            assert_eq!(mc.live_len(), ms.live_len());
            for t in mc.live_iter() {
                let sup_c = mc.support(mc.lookup(t).expect("live tuple"));
                let sup_s = ms.support(ms.lookup(t).expect("coalesced-only tuple"));
                assert_eq!(sup_c, sup_s, "support of {t:?} diverged");
            }
        }
        // Identical IDB fixpoint, and both match scratch.
        for i in 0..program.idb_count() {
            let a: HashSet<Vec<Element>> = combined
                .idb_store(IdbId(i))
                .live_iter()
                .map(|t| t.to_vec())
                .collect();
            let b: HashSet<Vec<Element>> = split
                .idb_store(IdbId(i))
                .live_iter()
                .map(|t| t.to_vec())
                .collect();
            assert_eq!(a, b, "IDB {i} diverged");
        }
        assert_matches_scratch(&combined, &program);
    }

    /// A batch whose inserts and retracts fully cancel must not touch
    /// the IDB at all: no deletions planned, no delta derived.
    #[test]
    fn fully_cancelling_batch_is_a_no_op() {
        let program = programs::transitive_closure();
        let s = directed_path(6);
        let (mut engine, _) =
            IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
        let e = RelId(0);
        let before = engine.total_stats();
        let summary = engine.apply_batch(
            &[(e, vec![2, 3]), (e, vec![4, 5])],
            &[(e, vec![2, 3]), (e, vec![4, 5])],
        );
        assert_eq!(summary.coalesced_pairs, 2);
        assert_eq!(summary.edb_inserted, 0);
        assert_eq!(summary.edb_retracted, 0);
        assert_eq!(summary.delta_tuples, 0);
        assert_eq!(summary.deleted_tuples, 0);
        let after = engine.total_stats();
        assert_eq!(
            after.join_probes, before.join_probes,
            "a cancelled batch must not plan any joins"
        );
        assert_matches_scratch(&engine, &program);
    }

    /// Retracts of facts that are not live are dropped by the `r' =
    /// min(r, s)` rule; the insert in the same batch must still land.
    #[test]
    fn phantom_retracts_are_dropped_not_paired() {
        let program = programs::transitive_closure();
        let template = Structure::new(Arc::new(kv_structures::Vocabulary::graph()), 4);
        let mut engine = IncrementalEngine::new(&program, &template, EvalOptions::default());
        let e = RelId(0);
        // (0,1) is not live: its retract is a no-op, NOT a cancellation
        // of the insert — support must end at 1, not 0.
        let summary = engine.apply_batch(&[(e, vec![0, 1])], &[(e, vec![0, 1])]);
        assert_eq!(summary.coalesced_pairs, 1, "the phantom retract is dropped");
        assert_eq!(summary.edb_inserted, 1);
        assert!(engine.goal_contains(&[0, 1]));
        assert_matches_scratch(&engine, &program);
    }
}
