//! Incremental view maintenance: the delta-first engine.
//!
//! [`IncrementalEngine`] keeps a Datalog(≠) program's least fixpoint live
//! while the EDB mutates in batches of insertions and retractions, instead
//! of re-running [`crate::eval::Evaluator`] from scratch after every
//! change. The paper's stage semantics (Theorem 3.6) is defined over a
//! fixed structure; this module preserves it exactly — the insertion pass
//! runs the stage loop of a from-scratch run itself, over the same three
//! id-window relation views (`old`/`delta`/`full`), merely generalized so
//! the EDB stores get delta windows too.
//!
//! # Batch anatomy
//!
//! Each [`apply_batch`](IncrementalEngine::apply_batch) runs two phases,
//! both on the stage executor ([`crate::sharded`]'s `run_stage`) and its
//! shared join kernels, so the worker count `W` of
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
//!    is enumerated exactly once. Every SCC, in topological order, uses
//!    DRed: overdelete round by round from the deletions (semi-naive
//!    passes with the last round's overdeletions as the seed), check each
//!    overdeleted tuple for one derivation from survivors (a seed atom on
//!    the head, cut at the first derivation), and propagate rederivations
//!    until stable. On a non-recursive SCC the first round finds every
//!    overdeleted tuple, the check runs once, and no rederivation
//!    propagates. A **recompute guard** bounds DRed on a dense SCC:
//!    once an SCC's overdeleted tuples reach half its live tuples, the
//!    overdeletion stops, every live tuple of the SCC is deleted (and
//!    counted as overdeleted), the per-tuple check is skipped, and the
//!    propagation is seeded instead by the SCC's *exit rules* (rules with
//!    no body atom in the SCC, pinned on their first atom, whose seed is
//!    all of that predicate's survivors) and its fact rules' heads — a
//!    from-scratch run of the SCC over survivors, on the same rounds. The
//!    guard reads only the sizes of each round's sets, so every lowering
//!    and worker count takes the same path, and
//!    [`BatchSummary::recomputed_sccs`] counts the SCCs that took it.
//!    Each of these rounds is one deletion pass of the stage executor; at
//!    `W > 1` its workers split the seeds into contiguous shares.
//!    Deletion variants are cost-planned under every planner mode. The
//!    commit kills the dead tuples and **compacts** every store that
//!    holds one — after compaction no dead tuple exists,
//!    so the insertion pass (and every range-based join kernel) sees
//!    contiguous live id ranges, unchanged.
//! 2. **Insertion** (stage-by-stage commit, on a from-scratch run's stage
//!    loop). Fresh EDB tuples append above the batch's delta mark. Stage one
//!    runs the *EDB-delta* rule variants — the `d`-th EDB occurrence
//!    pinned to the insertion window, earlier EDB occurrences old, later
//!    ones full, IDB atoms full — and subsequent stages run the ordinary
//!    semi-naive IDB-delta variants. These two rule sets are the insertion
//!    plan: the planner borrows it as written under textual evaluation
//!    and re-plans it against the live EDB under cost-based evaluation,
//!    as for a from-scratch run. Workers run as in a from-scratch run:
//!    each new tuple is unioned into its live store at support 1, and
//!    derivations of committed tuples are dropped (by the committed-store
//!    check and the planner's head-check early exit). Unlike a
//!    from-scratch run, the pass keeps no Bloom pre-filters, whose build
//!    would cost O(IDB) on every batch.
//!
//! Both phases read one set of position indexes that the engine keeps
//! across batches, in the layout of every other index: a position is
//! built the first time a kernel probes it, stages extend it as its store
//! grows, and compaction patches it in place (dead ids leave their
//! postings, moved ids are renumbered).
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
    compile_rule_pinned, index_slots, sync_indexes, CompiledProgram, CompiledRule, DeletionPass,
    DeletionWindows, DeltaPin, DenseSet, EvalOptions, IndexSlots, Progress, StageEnv, StageLoop,
};
use crate::planner::{self, Fire, RunPlan, SccInfo};
use crate::program::Program;
use crate::sharded::{self, IdbStores, ShardStats};
use kv_structures::govern::{Governor, Interrupted};
use kv_structures::store::{CardStats, EvalStats, TupleId, TupleStore};
use kv_structures::{Element, InsertOutcome, MutableStore, RelId, Structure};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

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
    /// In an SCC that took the recompute guard, every live tuple the
    /// SCC's exit rules and fact rules rederive over survivors.
    pub rederived_tuples: u64,
    /// IDB tuples the DRed pass over-deleted before re-derivation. In an
    /// SCC that took the recompute guard, every live tuple of the SCC:
    /// the guard kills the whole SCC before rederiving it.
    pub overdeleted_tuples: u64,
    /// SCCs whose overdeletion reached half their live tuples, so that
    /// DRed stopped and rederived the whole SCC from its exit rules (the
    /// recompute guard).
    pub recomputed_sccs: u64,
    /// Insertion-pass stages that derived at least one new tuple. On the
    /// initial batch this matches the from-scratch stage sequence
    /// tuple-for-tuple (Theorem 3.6 stage identity).
    pub stage_new: Vec<Vec<usize>>,
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
    /// The insertion pass's stage loop progress; its counters start from
    /// the deletion phase's.
    progress: Progress,
    edb_inserted: u64,
    edb_retracted: u64,
    deleted_tuples: u64,
    rederived_tuples: u64,
    overdeleted_tuples: u64,
    recomputed_sccs: u64,
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
    /// Per IDB predicate: net-deleted ids (DRed's overdeleted minus
    /// rederived).
    idb_deleted: Vec<DenseSet>,
    overdeleted: u64,
    rederived: u64,
    recomputed_sccs: u64,
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
    /// phases and kept across batches: a position is built the first time
    /// a kernel probes it, extended when its store grows, and patched by
    /// compaction.
    edb_idx: Vec<IndexSlots>,
    idb_idx: Vec<IndexSlots>,
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
        let deletion_variants = DeletionVariants::compile(program, compiled.scc_info());
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
            insertion,
            fact_rules,
            deletion_variants,
            edb_idx: index_slots(edb.iter().map(|m| m.arity())),
            idb_idx: index_slots(idb.iter().map(|m| m.arity())),
            edb,
            idb,
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
        self.epoch += 1;
        let eval_stats = state.progress.stats;
        self.total_stats.merge(&eval_stats);
        Ok(BatchSummary {
            epoch: self.epoch,
            edb_inserted: state.edb_inserted,
            edb_retracted: state.edb_retracted,
            delta_tuples: state
                .progress
                .stage_new
                .iter()
                .flat_map(|s| s.iter())
                .map(|&c| c as u64)
                .sum(),
            deleted_tuples: state.deleted_tuples,
            rederived_tuples: state.rederived_tuples,
            overdeleted_tuples: state.overdeleted_tuples,
            recomputed_sccs: state.recomputed_sccs,
            stage_new: state.progress.stage_new,
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
        // retract list after the kills (a retract of a dead tuple is a
        // no-op) leaves exactly the planned state.
        for (r, t) in retracts {
            self.edb[r.0].retract(t);
        }
        for (i, dead) in plan.idb_deleted.iter().enumerate() {
            for id in dead.iter_sorted() {
                self.idb[i].kill(TupleId(id));
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
                m.compact_in_place(indexes.iter_mut().filter_map(OnceLock::get_mut));
            }
        }
        let edb_delta_lo: Vec<u32> = self.edb.iter().map(|m| m.len() as u32).collect();
        let mut edb_inserted = 0u64;
        for (r, t) in inserts {
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
            progress: Progress {
                delta_lo: self.idb.iter().map(|m| m.len() as u32).collect(),
                stats: plan.stats,
                ..Progress::default()
            },
            edb_inserted,
            edb_retracted,
            deleted_tuples,
            rederived_tuples: plan.rederived,
            overdeleted_tuples: plan.overdeleted,
            recomputed_sccs: plan.recomputed_sccs,
        }
    }

    /// The insertion pass: the [`StageLoop`] of a from-scratch run, over
    /// this batch's insertion plan — the EDB-delta variants at stage one,
    /// the IDB-delta variants after — unioning new tuples into the live
    /// IDB stores. The plan is a pure function of the committed
    /// post-deletion EDB, so an interrupted batch re-derives it identically
    /// on resume.
    fn insertion_pass(
        &mut self,
        gov: &Governor,
        st: &mut InsertionState,
    ) -> Result<(), Interrupted> {
        let Self {
            ref template,
            ref edb,
            ref mut idb,
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
        let edb_stores: Vec<&TupleStore> = edb.iter().map(|m| m.store()).collect();
        sync_indexes(edb_idx, edb_stores.iter().copied());
        let stages = StageLoop {
            structure: template,
            edb: &edb_stores,
            edb_idx,
            edb_delta_lo: Some(&st.edb_delta_lo),
            plan: &plan,
            first_only: if epoch == 0 { fact_rules } else { &[] },
            semi_naive: true,
            max_stages: None,
            gov,
        };
        let idb = &mut IdbStores::Maintained(idb);
        let shards = &mut ShardStats::new(options.shards);
        stages.run(idb, idb_idx, shards, &mut st.progress)?;
        Ok(())
    }
}

/// The cardinality statistics of the live stores `stores`.
fn card_stats(stores: &[MutableStore]) -> Vec<CardStats> {
    stores.iter().map(|m| m.store().card_stats()).collect()
}

/// The recompute guard's threshold: DRed stops overdeleting an SCC once
/// its overdeleted tuples reach `1 / RECOMPUTE_DIVISOR` of the SCC's live
/// tuples `L`, and rederives the SCC from its exit rules instead. At half, DRed would still check each of at least `L / 2`
/// overdeleted tuples, while the recompute rederives at most `L`: it never
/// seeds more than twice the tuples of the check it skips (a divisor `D`
/// allows `D` times). DESIGN.md §9 has the measured threshold sweep.
const RECOMPUTE_DIVISOR: u64 = 2;

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
    /// The exit rules of every SCC, as indexes into `lost`: per rule with
    /// a body atom but none in its head's SCC, the variant pinned on its
    /// first atom. Seeded with that atom's survivors, they start the
    /// recompute of an SCC that took the guard ([`Deleter::dred`]).
    exits: Vec<usize>,
}

impl DeletionVariants {
    fn compile(program: &Program, scc: &SccInfo) -> Self {
        let magic = vec![false; program.idb_count()];
        let mut variants = DeletionVariants {
            lost: Vec::new(),
            check: Vec::new(),
            exits: Vec::new(),
        };
        for rule in program.rules() {
            let head_scc = scc.component_of(rule.head.0);
            let exit = rule.atoms().all(|(pred, _)| match pred {
                Pred::Idb(q) => scc.component_of(q.0) != head_scc,
                Pred::Edb(_) => true,
            });
            if exit && rule.atoms().next().is_some() {
                variants.exits.push(variants.lost.len());
            }
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
}

/// The deletion plan's working state: the pre-state stores and the
/// engine's kept indexes, this batch's planned variants, the
/// deleted sets (final for every SCC already processed), and counters.
struct Deleter<'a> {
    /// What every pass reads but its windows: the pre-state stores and
    /// indexes. `Old` and `Full` span whole stores.
    env: StageEnv<'a>,
    idb_stores: &'a [MutableStore],
    variants: &'a DeletionVariants,
    /// The program's body-less rules: a recomputed SCC rederives their
    /// heads.
    fact_rules: &'a [CompiledRule],
    /// The batch's worker count: each pass splits its seeds across them.
    shards: ShardStats,
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

    /// Seeds holding the surviving tuples of each of `preds`: the
    /// pre-state minus the deleted ids.
    fn survivor_seeds(&self, preds: impl Iterator<Item = Pred>) -> Seeds {
        let preds: HashSet<Pred> = preds.collect();
        self.seeds(preds.into_iter().map(|pred| {
            let (len, dead) = match pred {
                Pred::Edb(r) => (self.env.edb[r.0].len(), &self.edb_dead[r.0]),
                Pred::Idb(i) => (self.idb_stores[i.0].len(), &self.idb_dead[i.0]),
            };
            let ids = (0..len as u32).filter(|&id| !dead.contains(id)).collect();
            (pred, ids)
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
        let mut idb = IdbStores::Deleted {
            stores: self.idb_stores,
            derived: &mut derived,
        };
        sharded::run_stage(&env, &live, &mut idb, &mut self.shards, &mut self.stats)?;
        Ok(derived)
    }

    /// DRed for the SCC of `members`: overdelete everything with a deleted
    /// premise, round by round from the external deletions, then rederive
    /// the overdeleted tuples that keep a derivation from survivors and
    /// propagate the rederivations until stable. On a non-recursive SCC
    /// the second round finds nothing, and the rederived tuples seed no
    /// member rule.
    ///
    /// The recompute guard: once the SCC's overdeleted tuples reach
    /// `1 / RECOMPUTE_DIVISOR` of its live tuples, the overdeletion stops,
    /// the whole SCC is killed and the per-tuple check is skipped; the
    /// propagation is seeded instead by the SCC's exit rules over
    /// survivors, plus its fact rules' heads. That rederives the SCC as a
    /// from-scratch run would, on the same rounds as the rederivations.
    fn dred(&mut self, members: &[usize], plan: &mut DeletionPlan) -> Result<(), Interrupted> {
        let variants = self.variants;
        let in_scc: Vec<&CompiledRule> = variants
            .lost
            .iter()
            .filter(|r| members.contains(&r.head.0))
            .collect();
        let live: u64 = members
            .iter()
            .map(|&p| self.idb_stores[p].live_len() as u64)
            .sum();
        let mut scc_overdeleted = 0u64;
        // Round zero is seeded by the external deletions (EDB deaths and
        // finalized earlier strata; no member has deletions yet), later
        // rounds by the last round's overdeleted member tuples.
        let mut seeds = self.dead_seeds(in_scc.iter().map(|r| r.atoms[0].pred));
        let mut overdeleted: Vec<(Pred, Vec<u32>)> = members
            .iter()
            .map(|&p| (Pred::Idb(IdbId(p)), Vec::new()))
            .collect();
        let recompute = loop {
            let derived = self.run(in_scc.iter().copied(), seeds, DeletionPass::Lost)?;
            let mut round = Vec::new();
            for (slot, &p) in members.iter().enumerate() {
                let fresh: Vec<u32> = derived[p]
                    .iter()
                    .copied()
                    .filter(|&id| self.idb_dead[p].insert(id))
                    .collect();
                scc_overdeleted += fresh.len() as u64;
                overdeleted[slot].1.extend(&fresh);
                round.push((Pred::Idb(IdbId(p)), fresh));
            }
            if round.iter().all(|(_, ids)| ids.is_empty()) {
                break false;
            }
            if scc_overdeleted * RECOMPUTE_DIVISOR >= live {
                break true;
            }
            seeds = self.seeds(round.into_iter());
        };
        let mut derived = if recompute {
            // The guard: delete the whole SCC, then rederive from survivors
            // what its exit rules and fact rules derive.
            plan.recomputed_sccs += 1;
            for &p in members {
                for id in 0..self.idb_stores[p].len() as u32 {
                    if self.idb_stores[p].is_live(TupleId(id)) && self.idb_dead[p].insert(id) {
                        scc_overdeleted += 1;
                    }
                }
            }
            let exits: Vec<&CompiledRule> = variants
                .exits
                .iter()
                .map(|&i| &variants.lost[i])
                .chain(self.fact_rules)
                .filter(|r| members.contains(&r.head.0))
                .collect();
            let seeds =
                self.survivor_seeds(exits.iter().filter_map(|r| r.atoms.first()).map(|a| a.pred));
            self.run(exits.into_iter(), seeds, DeletionPass::Regained)?
        } else {
            // Rederive: every overdeleted tuple gets one existence check
            // against survivors; only the ones that pass seed propagation.
            let checks = variants
                .check
                .iter()
                .filter(|r| members.contains(&r.head.0));
            let seeds = self.seeds(overdeleted.into_iter());
            self.run(checks, seeds, DeletionPass::Check)?
        };
        plan.overdeleted += scc_overdeleted;
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
    /// any store: EDB deaths from the retract list, then DRed
    /// overdelete/rederive per SCC in topological stratum order. It runs
    /// this batch's planned [`DeletionVariants`] on the shared join
    /// kernels, over the engine's kept indexes (a position first probed
    /// here is built and kept).
    fn plan_deletions(
        &self,
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<DeletionPlan, Interrupted> {
        let mut plan = DeletionPlan {
            edb_dying: vec![Vec::new(); self.edb.len()],
            idb_deleted: Vec::new(),
            overdeleted: 0,
            rederived: 0,
            recomputed_sccs: 0,
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
        let variants = DeletionVariants {
            lost,
            check,
            exits: written.exits.clone(),
        };
        let edb: Vec<&TupleStore> = self.edb.iter().map(|m| m.store()).collect();
        let lens: Vec<u32> = self.idb.iter().map(|m| m.len() as u32).collect();
        let mut del = Deleter {
            env: StageEnv {
                structure: &self.template,
                edb: &edb,
                edb_idx: &self.edb_idx,
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
            fact_rules: &self.fact_rules,
            shards: ShardStats::new(self.options.shards),
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
            del.dred(scc.members(c), &mut plan)?;
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

    /// The textual insertion pass answers fully bound probes by lookup
    /// exactly as the posting-list walk did, inside the EDB's delta
    /// windows. Node 1 has three old edges and batch 2 inserts three
    /// more, so each probe below finds a posting list of three ids and
    /// takes the lookup branch:
    /// - `S`'s variant `o = 2` seeds on `δE(1, 2)` and probes `old·E(1, 2)`,
    ///   the same edge, which lies at or above the delta mark;
    /// - `R`'s variant `o = 0` probes `δE(s1, s2) = δE(1, 0)`, and `(1, 0)`
    ///   lies below it.
    ///
    /// Random batches follow. Each batch must match the walk's counters and
    /// a from-scratch run.
    #[test]
    fn fully_bound_insertion_probes_respect_edb_windows() {
        use crate::eval::walk_fully_bound_probes;
        use kv_structures::rng::SplitMix64;
        let vocab = Arc::new(kv_structures::Vocabulary::graph_with_constants(2));
        let program = crate::parser::parse_program(
            "S(x, y) :- E(x, y), E(y, x), E(x, y). R(x, y) :- E(s1, s2), E(x, y). ?- S.",
            Arc::clone(&vocab),
        )
        .unwrap();
        let mut template = Structure::new(vocab, 8);
        template.set_constant(kv_structures::ConstId(0), 1);
        template.set_constant(kv_structures::ConstId(1), 0);
        let mut looked_up = IncrementalEngine::new(&program, &template, EvalOptions::default());
        let mut walked = IncrementalEngine::new(&program, &template, EvalOptions::default());
        assert_eq!(walk_fully_bound_probes(&mut walked.insertion), 8);
        let e = RelId(0);
        let facts = |pairs: &[(Element, Element)]| -> Vec<Fact> {
            pairs.iter().map(|&(u, v)| (e, vec![u, v])).collect()
        };
        let mut batches = vec![
            (facts(&[(0, 1), (1, 0), (1, 4), (1, 5), (6, 1)]), vec![]),
            (facts(&[(1, 2), (1, 3), (1, 6)]), vec![]),
            (facts(&[(2, 1), (3, 1)]), facts(&[(1, 6), (0, 1)])),
        ];
        let mut rng = SplitMix64::seed_from_u64(0x5EED);
        for _ in 0..12 {
            let mut random = |k: usize| -> Vec<Fact> {
                let pairs: Vec<(Element, Element)> = (0..k)
                    .map(|_| (rng.gen_range(0u32..8), rng.gen_range(0u32..8)))
                    .collect();
                facts(&pairs)
            };
            batches.push((random(5), random(3)));
        }
        for (i, (inserts, retracts)) in batches.iter().enumerate() {
            let a = looked_up.apply_batch(inserts, retracts);
            let b = walked.apply_batch(inserts, retracts);
            assert_eq!(a.eval_stats, b.eval_stats, "batch {i}: counters diverged");
            assert_eq!(a.stage_new, b.stage_new, "batch {i}: stages diverged");
            assert_eq!(a.delta_tuples, b.delta_tuples, "batch {i}");
            assert_eq!(a.deleted_tuples, b.deleted_tuples, "batch {i}");
            assert_matches_scratch(&looked_up, &program);
        }
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
    fn edb_supports_count_assertions_and_idb_tuples_hold_one() {
        // EDB support is the assertion multiplicity; the IDB is a set, so
        // `P(0)`, derived from two edges, holds support 1 and dies only
        // when DRed finds no derivation left.
        let program = crate::parser::parse_program(
            "P(x) :- E(x, y).\n?- P.",
            Arc::new(kv_structures::Vocabulary::graph()),
        )
        .unwrap();
        let template = Structure::new(Arc::new(kv_structures::Vocabulary::graph()), 4);
        let mut engine = IncrementalEngine::new(&program, &template, EvalOptions::default());
        let e = RelId(0);
        let edb_support = |engine: &IncrementalEngine, t: &[Element]| {
            let store = engine.edb_store(e);
            store.lookup(t).map_or(0, |id| store.support(id))
        };
        engine.apply_batch(&[(e, vec![0, 1]), (e, vec![0, 1]), (e, vec![0, 2])], &[]);
        assert_eq!(edb_support(&engine, &[0, 1]), 2, "(0, 1) asserted twice");
        let p = engine.idb_store(IdbId(0));
        assert_eq!(
            p.support(p.lookup(&[0]).unwrap()),
            1,
            "P(0) is a set member"
        );
        // One retraction of a twice-asserted edge kills nothing.
        let summary = engine.apply_batch(&[], &[(e, vec![0, 1])]);
        assert_eq!(summary.edb_retracted, 0);
        assert_eq!(edb_support(&engine, &[0, 1]), 1);
        // The second kills the edge; P(0) keeps its derivation via (0, 2).
        let summary = engine.apply_batch(&[], &[(e, vec![0, 1])]);
        assert_eq!(summary.edb_retracted, 1);
        assert_eq!(summary.deleted_tuples, 0);
        assert!(engine.goal_contains(&[0]));
        assert_matches_scratch(&engine, &program);
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
