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
//! Each [`apply_batch`](IncrementalEngine::apply_batch) runs two phases,
//! both on the stage executor ([`crate::sharded`]'s `run_stage`) and its
//! shared join kernels, so the shard count `W` of
//! [`EvalOptions::shards`] splits the work of either:
//!
//! 1. **Deletion** (read-only plan, all-or-nothing commit). Retractions
//!    that drop an EDB tuple's assertion count to zero delete it. Lost IDB
//!    derivations are then found by rule variants that pin one body atom
//!    each (`DeltaPin::Any`), read through the *deletion windows*
//!    (`DeletionWindows`): `Delta` is a small seed store of the pinned
//!    predicate's deleted (or newly overdeleted, or newly rederived)
//!    tuples, `Old` is the survivors — the pre-state with a deleted-id
//!    bitmap that the kernels check per candidate — and `Full` is the
//!    pre-state. Earlier atoms old, later atoms full: each lost derivation
//!    is enumerated exactly once. Non-recursive predicates subtract the
//!    lost count from their per-tuple support (maintained exactly by the
//!    insertion pass) and die at zero. Predicates in recursive SCCs use
//!    DRed: overdelete round by round from the deletions (semi-naive
//!    passes with the last round's overdeletions as the seed), check each
//!    overdeleted tuple for one derivation from survivors (a seed atom on
//!    the head, cut at the first derivation), and propagate rederivations
//!    until stable. Each of these rounds is one deletion pass of the stage
//!    executor; at `W > 1` its workers split the seeds into contiguous
//!    shares. Deletion variants are cost-planned under every planner
//!    mode. The commit kills the dead tuples and **compacts**
//!    every store that holds one — after compaction no dead tuple exists,
//!    so the insertion pass (and every range-based join kernel) sees
//!    contiguous live id ranges, unchanged.
//! 2. **Insertion** (stage-by-stage commit, like a from-scratch run).
//!    Fresh EDB tuples append above the batch's delta mark. Stage one
//!    runs the *EDB-delta* rule variants — the `d`-th EDB occurrence
//!    pinned to the insertion window, earlier EDB occurrences old, later
//!    ones full, IDB atoms full — and subsequent stages run the ordinary
//!    semi-naive IDB-delta variants. These two rule sets are the insertion
//!    plan: the planner borrows it as written under textual evaluation
//!    and re-plans it against the live EDB under cost-based evaluation,
//!    as for a from-scratch run. Workers run in counting mode: every
//!    derivation is recorded (no committed-store shortcut, no head-check
//!    early exit), so per-tuple support counts stay exact for the
//!    counting deletion path.
//!
//! Both phases read one set of position indexes that the engine keeps
//! across batches: stages extend them as stores grow, compaction patches
//! them in place (dead ids leave their postings, moved ids are
//! renumbered), and a position is built the first time a plan probes it.
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

use crate::ast::{IdbId, Literal, Pred, Rule};
use crate::eval::{
    commit_stage, compile_rule_pinned, index_plan, sync_indexes, CompiledProgram, CompiledRule,
    DeletionPass, DeletionWindows, DeltaPin, DenseSet, EdbIdx, EvalOptions, StageEnv,
};
use crate::planner::{self, Fire, RunPlan};
use crate::program::Program;
use crate::sharded::{self, IdbStores, Shards};
use kv_structures::govern::{Governor, Interrupted};
use kv_structures::store::{CardStats, EvalStats, PosIndex, TupleId, TupleStore};
use kv_structures::{Element, InsertOutcome, MutableStore, RelId, Structure};
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
    /// The insertion pass as written: the EDB-delta variants (one per rule
    /// per EDB occurrence) run at stage one, the semi-naive variants after.
    /// Maintenance has no seed counters to keep, so even the written plan
    /// skips every rule with an empty window.
    insertion: RunPlan,
    /// Rules with no body atoms; they fire once, on the first batch.
    fact_rules: Vec<CompiledRule>,
    /// The deletion plan's rule variants.
    deletion_variants: DeletionVariants,
    /// Position indexes over each EDB and IDB store, shared by both
    /// phases and kept across batches: extended when stores grow,
    /// patched by compaction, and a position is built the first time a
    /// plan probes it.
    edb_idx: Vec<Vec<PosIndex>>,
    idb_idx: Vec<Vec<PosIndex>>,
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
            for (o, (pred, _)) in rule.atoms().enumerate() {
                if matches!(pred, Pred::Edb(_)) {
                    edb_variants.push(compile_rule_pinned(rule, DeltaPin::Any(o), &magic));
                }
            }
        }
        let fact_rules: Vec<CompiledRule> = compiled
            .written
            .naive_rules
            .iter()
            .filter(|r| r.atoms.is_empty())
            .cloned()
            .collect();
        let edb: Vec<MutableStore> = vocab
            .relations()
            .map(|r| MutableStore::new(vocab.arity(r)))
            .collect();
        let idb: Vec<MutableStore> = compiled
            .idb_arities
            .iter()
            .map(|&a| MutableStore::new(a))
            .collect();
        let insertion = RunPlan {
            naive_rules: edb_variants,
            semi_variants: compiled.written.semi_variants.clone(),
            blooms: false,
            fire: Fire::AllSources,
        };
        IncrementalEngine {
            compiled,
            options,
            template: empty,
            edb,
            idb,
            insertion,
            fact_rules,
            deletion_variants: DeletionVariants::compile(program),
            edb_idx: vec![Vec::new(); vocab.relations().count()],
            idb_idx: vec![Vec::new(); program.idb_count()],
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
        let deleted_tuples: u64 = plan
            .idb_deleted
            .iter()
            .map(|d| d.iter_sorted().count() as u64)
            .sum();
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
        let edb = self.edb.iter_mut().zip(&mut self.edb_idx);
        let idb = self.idb.iter_mut().zip(&mut self.idb_idx);
        for (m, indexes) in edb.chain(idb) {
            if m.live_len() < m.len() {
                // Drop the dead tuples in place: the insertion pass (and
                // every range-windowed join) then sees only live,
                // contiguous ids, the commit costs O(deleted) instead of a
                // full O(live) store rebuild, and the indexes are patched
                // rather than rebuilt.
                m.compact_in_place(indexes);
            }
        }
        let edb_delta_lo: Vec<u32> = self.edb.iter().map(|m| m.len() as u32).collect();
        // Shard keys are chosen against the committed post-deletion EDB —
        // frozen state for the rest of the batch, so an interrupted batch
        // re-derives the identical assignment on resume.
        let shards = Shards::new(self.options.shards, || {
            let edb_arities: Vec<usize> = self.edb.iter().map(|m| m.store().arity()).collect();
            Some(sharded::choose_plan(
                &self.insertion.semi_variants,
                &self.insertion.naive_rules,
                &self.compiled.idb_arities,
                &edb_arities,
                &card_stats(&self.edb),
            ))
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
    /// [`CompiledProgram::try_run_governed`], running this batch's
    /// insertion plan — the EDB-delta variants at stage one, the IDB-delta
    /// variants after — with counting-mode workers throughout. The plan is
    /// a pure function of the committed post-deletion EDB, so an
    /// interrupted batch re-derives it identically on resume.
    ///
    /// Retraction-only batches arrive with every delta window empty, and
    /// every variant pins a delta atom, so nothing can fire now or at any
    /// later stage: they plan nothing and charge the single
    /// zero-derivation stage a full pass would run.
    fn insertion_pass(
        &mut self,
        gov: &Governor,
        st: &mut InsertionState,
    ) -> Result<(), Interrupted> {
        let grew = |stores: &[MutableStore], lo: &[u32]| {
            stores.iter().zip(lo).any(|(m, &lo)| m.len() as u32 > lo)
        };
        if self.epoch > 0 && !grew(&self.edb, &st.edb_delta_lo) && !grew(&self.idb, &st.delta_lo) {
            gov.check().and_then(|()| gov.charge_stage())?;
            st.stage += 1;
            return Ok(());
        }
        let Self {
            ref template,
            ref edb,
            ref mut idb,
            ref compiled,
            ref insertion,
            ref fact_rules,
            ref mut edb_idx,
            ref mut idb_idx,
            options,
            epoch,
            ..
        } = *self;
        let universe = template.universe_size();
        let plan = planner::plan(insertion, &options, || card_stats(edb), universe);
        let rules = plan.naive_rules.iter().chain(&plan.semi_variants);
        sync_kept_indexes(edb, edb_idx, idb, idb_idx, rules);
        let edb_stores: Vec<&TupleStore> = edb.iter().map(|m| m.store()).collect();
        loop {
            gov.check().and_then(|()| gov.charge_stage())?;
            let prev_len: Vec<u32> = idb.iter().map(|m| m.len() as u32).collect();
            let env = StageEnv {
                structure: template,
                edb: &edb_stores,
                edb_idx: EdbIdx::Kept(edb_idx),
                idb_idx,
                // Counting workers never consult the committed stores, so
                // a plan's Bloom filters would go unread.
                blooms: None,
                prev_len: &prev_len,
                delta_lo: &st.delta_lo,
                edb_delta_lo: Some(&st.edb_delta_lo),
                deletion: None,
                gov,
            };
            let rules = if st.stage == 0 {
                &plan.naive_rules
            } else {
                &plan.semi_variants
            };
            let mut live_rules: Vec<&CompiledRule> =
                rules.iter().filter(|r| env.fires(r, plan.fire)).collect();
            if st.stage == 0 && epoch == 0 {
                live_rules.extend(fact_rules.iter());
            }
            let new_count = sharded::run_stage(
                &env,
                &live_rules,
                IdbStores::Counting(idb),
                &mut st.shards,
                &mut st.stats,
            )?;
            st.stage += 1;
            if new_count.iter().all(|&c| c == 0) {
                return Ok(());
            }
            st.delta_lo.copy_from_slice(&prev_len);
            sync_indexes(idb_idx, idb.iter().map(|m| m.store()), &[]);
            let charged = commit_stage(gov, &mut st.stats, &new_count, &compiled.idb_arities);
            st.stage_new.push(new_count);
            charged?;
        }
    }
}

/// The cardinality statistics of the live stores `stores`.
fn card_stats(stores: &[MutableStore]) -> Vec<CardStats> {
    stores.iter().map(|m| m.store().card_stats()).collect()
}

/// Builds the indexes `rules` probe that the engine lacks (each position
/// once, kept across batches) and extends every index over its store's
/// appends.
fn sync_kept_indexes<'r>(
    edb: &[MutableStore],
    edb_idx: &mut [Vec<PosIndex>],
    idb: &[MutableStore],
    idb_idx: &mut [Vec<PosIndex>],
    rules: impl Iterator<Item = &'r CompiledRule>,
) {
    let (edb_positions, idb_positions) = index_plan(rules, edb.len(), idb.len());
    sync_indexes(edb_idx, edb.iter().map(|m| m.store()), &edb_positions);
    sync_indexes(idb_idx, idb.iter().map(|m| m.store()), &idb_positions);
}

/// The deletion plan's rule variants, read through [`DeletionWindows`]:
/// compiled once per engine and planned per batch
/// ([`planner::plan_deletion`]). Each variant's delta atom leads its body,
/// so `atoms[0].pred` is the predicate whose seed it reads.
#[derive(Debug)]
struct DeletionVariants {
    /// Per rule and body atom `o`, the variant pinned by
    /// [`DeltaPin::Any`]`(o)`. Seeded with deleted tuples
    /// ([`DeletionPass::Lost`]) it enumerates each lost derivation exactly
    /// once across `o`; seeded with rederived tuples
    /// ([`DeletionPass::Regained`]) it finds derivations of the
    /// post-deletion state.
    lost: Vec<CompiledRule>,
    /// Per rule, DRed's rederivation check ([`DeletionPass::Check`]): a
    /// seed atom over the head binds it to an overdeleted tuple.
    check: Vec<CompiledRule>,
}

impl DeletionVariants {
    fn compile(program: &Program) -> Self {
        let magic = vec![false; program.idb_count()];
        let mut variants = DeletionVariants {
            lost: Vec::new(),
            check: Vec::new(),
        };
        for rule in program.rules() {
            for o in 0..rule.atoms().count() {
                variants
                    .lost
                    .push(compile_rule_pinned(rule, DeltaPin::Any(o), &magic));
            }
            let mut body = vec![Literal::Atom(Pred::Idb(rule.head), rule.head_args.clone())];
            body.extend(rule.body.iter().cloned());
            let seeded = Rule {
                body,
                ..rule.clone()
            };
            variants
                .check
                .push(compile_rule_pinned(&seeded, DeltaPin::Any(0), &magic));
        }
        variants
    }

    fn all(&self) -> impl Iterator<Item = &CompiledRule> {
        self.lost.iter().chain(&self.check)
    }
}

/// The deletion plan's working state: the pre-state stores and the
/// engine's persistent indexes, this batch's planned variants, the
/// deleted sets (final for every SCC already processed), and counters.
struct Deleter<'a> {
    /// What every pass reads but its windows: the pre-state stores and
    /// indexes. `Old` and `Full` span whole stores.
    env: StageEnv<'a>,
    idb_stores: &'a [MutableStore],
    variants: &'a DeletionVariants,
    /// The batch's worker count: each pass splits its seeds across them.
    shards: Shards,
    edb_dead: Vec<DenseSet>,
    idb_dead: Vec<DenseSet>,
    stats: EvalStats,
}

/// One deletion pass's seeds, per EDB relation and per IDB predicate.
type Seeds = (Vec<TupleStore>, Vec<TupleStore>);

impl Deleter<'_> {
    /// Seed stores (the `Delta` windows of the variants pinned on each
    /// predicate) holding the given ids of each predicate. Predicates
    /// without ids get an empty seed, so the variants pinned on them do
    /// not fire.
    fn seeds(&self, preds: impl Iterator<Item = (Pred, Vec<u32>)>) -> Seeds {
        let mut edb: Vec<TupleStore> = self
            .env
            .edb
            .iter()
            .map(|s| TupleStore::new(s.arity()))
            .collect();
        let mut idb: Vec<TupleStore> = self
            .idb_stores
            .iter()
            .map(|m| TupleStore::new(m.arity()))
            .collect();
        for (pred, ids) in preds {
            let (seed, source) = match pred {
                Pred::Edb(r) => (&mut edb[r.0], self.env.edb[r.0]),
                Pred::Idb(i) => (&mut idb[i.0], self.idb_stores[i.0].store()),
            };
            *seed = TupleStore::with_capacity(source.arity(), ids.len());
            for id in ids {
                seed.intern(source.get(TupleId(id)));
            }
        }
        (edb, idb)
    }

    /// Seeds holding the deleted tuples of each of `preds`.
    fn dead_seeds(&self, preds: impl Iterator<Item = Pred>) -> Seeds {
        let preds: HashSet<Pred> = preds.collect();
        self.seeds(preds.into_iter().map(|pred| {
            let dead = match pred {
                Pred::Edb(r) => &self.edb_dead[r.0],
                Pred::Idb(i) => &self.idb_dead[i.0],
            };
            (pred, dead.iter_sorted().collect())
        }))
    }

    /// One deletion pass: evaluates `rules` on the stage executor, each
    /// over the seed of its delta atom's predicate (rules whose seed is
    /// empty do not fire). Returns, per IDB predicate, the head id of
    /// every derivation found.
    fn run<'r>(
        &mut self,
        rules: impl Iterator<Item = &'r CompiledRule>,
        (edb_seeds, idb_seeds): Seeds,
        pass: DeletionPass,
    ) -> Result<Vec<Vec<u32>>, Interrupted> {
        let windows = DeletionWindows {
            edb_seeds,
            idb_seeds,
            edb_dead: &self.edb_dead,
            idb_dead: &self.idb_dead,
            pass,
        };
        let env = StageEnv {
            deletion: Some(&windows),
            ..self.env
        };
        let live: Vec<&CompiledRule> = rules.filter(|r| env.fires(r, Fire::Seed)).collect();
        let mut derived = vec![Vec::new(); self.idb_stores.len()];
        let idb = IdbStores::Deleted {
            stores: self.idb_stores,
            derived: &mut derived,
        };
        sharded::run_stage(&env, &live, idb, &mut self.shards, &mut self.stats)?;
        Ok(derived)
    }

    /// The distinct head ids in `derived`, sorted, each with its
    /// derivation count.
    fn heads(derived: &mut [u32]) -> Vec<(u32, u32)> {
        derived.sort_unstable();
        let mut heads: Vec<(u32, u32)> = Vec::new();
        for &id in derived.iter() {
            match heads.last_mut() {
                Some((last, count)) if *last == id => *count += 1,
                _ => heads.push((id, 1)),
            }
        }
        heads
    }

    /// Exact counting deletion for non-recursive predicate `p`: count
    /// each tuple's lost derivations over all rules and pinned atoms; a
    /// tuple dies when they reach its support.
    fn count(&mut self, p: usize, plan: &mut DeletionPlan) -> Result<(), Interrupted> {
        let rules: Vec<&CompiledRule> = self
            .variants
            .lost
            .iter()
            .filter(|r| r.head.0 == p)
            .collect();
        let seeds = self.dead_seeds(rules.iter().map(|r| r.atoms[0].pred));
        let mut derived = self.run(rules.into_iter(), seeds, DeletionPass::Lost)?;
        for (id, lost) in Self::heads(&mut derived[p]) {
            if self.idb_stores[p].support(TupleId(id)) <= lost {
                self.idb_dead[p].insert(id);
            }
            plan.support_sub[p].insert(id, lost);
        }
        Ok(())
    }

    /// DRed for the recursive SCC of `members`: overdelete everything with
    /// a deleted premise, round by round from the external deletions,
    /// then rederive the overdeleted tuples that keep a derivation from
    /// survivors and propagate the rederivations until stable.
    fn dred(&mut self, members: &[usize], plan: &mut DeletionPlan) -> Result<(), Interrupted> {
        let variants = self.variants;
        let in_scc: Vec<&CompiledRule> = variants
            .lost
            .iter()
            .filter(|r| members.contains(&r.head.0))
            .collect();
        // Round zero is seeded by the external deletions (EDB deaths and
        // finalized earlier strata; no member has deletions yet), later
        // rounds by the last round's overdeleted member tuples.
        let mut seeds = self.dead_seeds(in_scc.iter().map(|r| r.atoms[0].pred));
        let mut overdeleted: Vec<(Pred, Vec<u32>)> = members
            .iter()
            .map(|&p| (Pred::Idb(IdbId(p)), Vec::new()))
            .collect();
        loop {
            let derived = self.run(in_scc.iter().copied(), seeds, DeletionPass::Lost)?;
            let mut round = Vec::new();
            for (slot, &p) in members.iter().enumerate() {
                let fresh: Vec<u32> = derived[p]
                    .iter()
                    .copied()
                    .filter(|&id| self.idb_dead[p].insert(id))
                    .collect();
                plan.overdeleted += fresh.len() as u64;
                overdeleted[slot].1.extend(&fresh);
                round.push((Pred::Idb(IdbId(p)), fresh));
            }
            if round.iter().all(|(_, ids)| ids.is_empty()) {
                break;
            }
            seeds = self.seeds(round.into_iter());
        }
        // Rederive: every overdeleted tuple gets one existence check
        // against survivors; only the ones that pass seed propagation.
        let checks = variants
            .check
            .iter()
            .filter(|r| members.contains(&r.head.0));
        let seeds = self.seeds(overdeleted.into_iter());
        let mut derived = self.run(checks, seeds, DeletionPass::Check)?;
        loop {
            let mut round = Vec::new();
            for &p in members {
                let back: Vec<u32> = derived[p]
                    .iter()
                    .copied()
                    .filter(|&id| self.idb_dead[p].remove(id))
                    .collect();
                plan.rederived += back.len() as u64;
                round.push((Pred::Idb(IdbId(p)), back));
            }
            if round.iter().all(|(_, ids)| ids.is_empty()) {
                return Ok(());
            }
            let seeds = self.seeds(round.into_iter());
            derived = self.run(in_scc.iter().copied(), seeds, DeletionPass::Regained)?;
        }
    }
}

impl IncrementalEngine {
    /// Computes the deletion plan against the pre-state without mutating
    /// any store: EDB deaths from the retract list, then per SCC in
    /// topological stratum order either exact counting (non-recursive)
    /// or DRed overdelete/rederive (recursive). Both run this batch's
    /// planned [`DeletionVariants`] on the shared join kernels, over the
    /// engine's persistent indexes (missing positions are built here and
    /// kept).
    fn plan_deletions(
        &mut self,
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<DeletionPlan, Interrupted> {
        let idb_count = self.compiled.idb_arities.len();
        let mut plan = DeletionPlan {
            edb_dying: vec![Vec::new(); self.edb.len()],
            idb_deleted: Vec::new(),
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
        for (r, counts) in pending.into_iter().enumerate() {
            let mut dying: Vec<u32> = counts
                .into_iter()
                .filter(|&(id, c)| self.edb[r].support(TupleId(id)) <= c)
                .map(|(id, _)| id)
                .collect();
            dying.sort_unstable();
            plan.edb_dying[r] = dying;
        }
        let idb_none: Vec<DenseSet> = self
            .idb
            .iter()
            .map(|m| DenseSet::for_ids(m.len()))
            .collect();
        if plan.edb_dying.iter().all(Vec::is_empty) {
            // Nothing becomes false (the common insert-only batch).
            plan.idb_deleted = idb_none;
            return Ok(plan);
        }
        gov.check()?;
        let written = &self.deletion_variants;
        let (lost, check) = planner::plan_deletion(
            &written.lost,
            &written.check,
            self.options.lowering,
            card_stats(&self.edb),
            self.template.universe_size(),
        );
        let variants = DeletionVariants { lost, check };
        sync_kept_indexes(
            &self.edb,
            &mut self.edb_idx,
            &self.idb,
            &mut self.idb_idx,
            variants.all(),
        );
        let edb: Vec<&TupleStore> = self.edb.iter().map(|m| m.store()).collect();
        let lens: Vec<u32> = self.idb.iter().map(|m| m.len() as u32).collect();
        let mut del = Deleter {
            env: StageEnv {
                structure: &self.template,
                edb: &edb,
                edb_idx: EdbIdx::Kept(&self.edb_idx),
                idb_idx: &self.idb_idx,
                blooms: None,
                prev_len: &lens,
                delta_lo: &lens,
                edb_delta_lo: None,
                deletion: None,
                gov,
            },
            idb_stores: &self.idb,
            variants: &variants,
            shards: Shards::new(self.options.shards, || None),
            edb_dead: plan
                .edb_dying
                .iter()
                .zip(&self.edb)
                .map(|(ids, m)| {
                    let mut set = DenseSet::for_ids(m.len());
                    for &id in ids {
                        set.insert(id);
                    }
                    set
                })
                .collect(),
            idb_dead: idb_none,
            stats: EvalStats::default(),
        };
        let scc = self.compiled.scc_info();
        for c in 0..scc.count() {
            if scc.is_recursive(c) {
                del.dred(scc.members(c), &mut plan)?;
            } else {
                for &p in scc.members(c) {
                    del.count(p, &mut plan)?;
                }
            }
        }
        plan.stats = del.stats;
        plan.idb_deleted = del.idb_dead;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::programs;
    use kv_structures::generators::{directed_path, random_digraph};
    use kv_structures::govern::Budget;
    use kv_structures::JoinLowering;
    use kv_structures::PlannerMode;

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
