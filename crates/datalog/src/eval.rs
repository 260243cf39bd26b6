//! Bottom-up evaluation: naive stage iteration and semi-naive evaluation,
//! on the shared interned store.
//!
//! The paper defines the semantics of a program `π` on a structure `A` as
//! the least fixpoint of the monotone operator system `Θ_A`, reached by
//! iterating the stages `Θ¹ = Θ(∅)`, `Θ^{n+1} = Θ(Θ^n)` until they
//! stabilize (Section 2). [`Evaluator`] computes exactly these stages.
//!
//! *Naive* mode recomputes every rule against the full stage each round —
//! literally the paper's definition. *Semi-naive* mode rewrites each rule
//! into delta variants so that every derivation uses at least one tuple
//! discovered in the previous stage; both modes produce identical stages
//! (asserted by tests), semi-naive just avoids rediscovering old tuples.
//!
//! Storage is the [`kv_structures::store`] engine. Every IDB predicate
//! materializes into one append-only [`TupleStore`], so the three
//! relation views semi-naive evaluation needs are **id ranges** of that
//! single store — `old = [0, delta_lo)`, `delta = [delta_lo, prev_len)`,
//! `full = [0, prev_len)` — with no per-stage snapshot clones. EDB
//! relations are joined directly out of the structure's own stores
//! (zero-copy), probed through an [`EdbIndexes`] set whose per-position
//! indexes are built the first time a plan probes them — once per run, or
//! once per structure when the set is kept beside an immutable structure
//! and shared across runs ([`CompiledProgram::try_run_indexed`]). IDB
//! [`PosIndex`]es are built once and *extended* after each stage;
//! range-restricted probes are `partition_point` sub-slices of their sorted
//! posting lists. Each atom's probe position is chosen **statically** at
//! rule-compile time.
//!
//! Programs are compiled **once** — [`Evaluator::new`] (or
//! [`CompiledProgram::compile`]) performs equality elimination, delta
//! rewriting, and index planning; `run` only joins. Each stage runs through
//! the one stage executor, [`crate::sharded`]: workers read the shared
//! stores, which are immutable during a stage, and intern candidate heads
//! into private scratch arenas that are merged into the shared stores at
//! the stage barrier. [`EvalOptions::shards`] sets the worker count `W`;
//! the default is one worker, which partitions and routes nothing, and
//! set-union merging makes every `W` produce the same stages.
//!
//! Evaluation reports [`EvalStats`] (tuples interned, duplicate
//! derivations, join probes, stages) and honors a [`Governor`]'s budgets
//! via [`Evaluator::try_run_governed`], interrupting gracefully with a
//! resumable checkpoint instead of growing without bound.
//!
//! Unbound variables — head or inequality variables that occur in no body
//! atom — range over the whole universe, matching the first-order reading
//! of the rule bodies as existential formulas over the structure.

use crate::ast::{IdbId, Literal, Pred, Rule, Term, VarId};
use crate::planner::{self, Fire, RunPlan, SccInfo};
use crate::program::Program;
use crate::sharded;
use crate::wcoj::{self, GenericPlan};
use kv_structures::govern::{Governor, Interrupted};
use kv_structures::store::{
    gallop_intersect, tuple_hash, CardStats, EvalStats, IdRange, PosIndex, StoreView, TupleBloom,
    TupleId, TupleStore,
};
use kv_structures::{Element, JoinLowering, PlannerMode, RelId, Relation, Structure, Vocabulary};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Options controlling evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Use semi-naive (delta) evaluation instead of naive recomputation.
    pub semi_naive: bool,
    /// Truncate after this many stages (`None` = run to fixpoint). This is
    /// a *graceful* cut — the result reports `converged: false`. For a
    /// hard budget that errors instead, govern the run with a
    /// [`kv_structures::Budget`] stage limit.
    pub max_stages: Option<usize>,
    /// Which plan the planner emits for the run; every plan runs on the
    /// same stage loop. [`PlannerMode::Textual`] is the plan of the rules
    /// as written: written atom order, first-bound-argument probes, and no
    /// probe memos, batched emission or Bloom filters (the default here,
    /// so baseline counters stay byte-identical to the seed engine's).
    /// [`PlannerMode::CostBased`] re-plans each body against the
    /// structure's [`kv_structures::CardStats`] at run start, selects
    /// specialized join kernels and turns those batching aids on. Both
    /// derive the same tuple set at every stage (differential-tested).
    pub planner: PlannerMode,
    /// How cost-based plans lower rule bodies into join loops:
    /// [`JoinLowering::Auto`] picks the worst-case-optimal generic join
    /// for cyclic, blow-up-prone rules and the binary kernel pipeline for
    /// the rest; `Binary`/`Generic` force one lowering for every rule.
    /// The textual plan is the written rules, which it does not lower.
    /// Both lowerings derive the same tuple set at every stage
    /// (differential-tested).
    pub lowering: JoinLowering,
    /// The worker count `W`, the only parallelism setting: each stage's
    /// delta is hash-partitioned across `W` workers by tuple ownership
    /// (planner-chosen key positions) and cross-owner derivations are
    /// exchanged at the stage barrier (see [`crate::sharded`]). `None`
    /// (the default) and `Some(1)` run the same single-worker stages and
    /// differ only in whether [`EvalResult::shard`] is reported. Stage
    /// *sets* are identical for every worker count (differential-tested
    /// for W ∈ {1, 2, 4, 8}); counters such as `join_probes` may differ
    /// at `W > 1` because every worker walks the full rule list over its
    /// sub-delta.
    pub shards: Option<usize>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            semi_naive: true,
            max_stages: None,
            planner: PlannerMode::Textual,
            lowering: JoinLowering::default(),
            shards: None,
        }
    }
}

impl EvalOptions {
    /// The same options with the given [`PlannerMode`].
    pub fn with_planner(mut self, planner: PlannerMode) -> Self {
        self.planner = planner;
        self
    }

    /// The same options with the given [`JoinLowering`] (cost-based plans
    /// only; the textual plan is the written rules).
    pub fn with_lowering(mut self, lowering: JoinLowering) -> Self {
        self.lowering = lowering;
        self
    }

    /// The same options with `shards` workers per stage (hash-partitioned,
    /// owner-computes); `None` runs one worker without reporting
    /// [`EvalResult::shard`]. See [`EvalOptions::shards`].
    pub fn with_shards(mut self, shards: Option<usize>) -> Self {
        self.shards = shards;
        self
    }
}

/// Per-stage statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Number of tuples first derived at this stage, per IDB predicate.
    pub new_tuples: Vec<usize>,
}

/// The result of evaluating a program on a structure.
///
/// Stage snapshots are free: because every IDB relation is an append-only
/// [`TupleStore`], stage `Θ^n` restricted to IDB `i` is the id-prefix
/// `[0, stage_marks[n-1][i])` of `idb[i]` — see [`stage_view`](Self::stage_view).
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Final IDB relations (the least fixpoint `π^∞`), per IDB predicate.
    pub idb: Vec<Relation>,
    /// Per-stage statistics. `stats[n]` describes stage `n + 1`.
    pub stats: Vec<StageStats>,
    /// Aggregate evaluation counters.
    pub eval_stats: EvalStats,
    /// `stage_marks[n][i]` is `|Θ^{n+1}|` restricted to IDB `i`: the store
    /// length of `idb[i]` after stage `n + 1` committed.
    pub stage_marks: Vec<Vec<u32>>,
    /// Whether the fixpoint was reached (false only if `max_stages` hit).
    pub converged: bool,
    /// Sharded-run statistics (worker loads, exchange traffic, key
    /// choices); `None` unless the run set [`EvalOptions::shards`].
    pub shard: Option<crate::sharded::ShardStats>,
}

impl EvalResult {
    /// Number of stages until the fixpoint (the `n₀` of Section 2).
    pub fn stage_count(&self) -> usize {
        self.stats.len()
    }

    /// The goal relation of `program`.
    pub fn goal_relation<'a>(&'a self, program: &Program) -> &'a Relation {
        &self.idb[program.goal().0]
    }

    /// Stage `Θ^stage` (1-based) restricted to IDB `idb`, as a zero-copy
    /// prefix view of the final store.
    ///
    /// # Panics
    /// Panics if `stage` is 0 or exceeds [`stage_count`](Self::stage_count).
    pub fn stage_view(&self, stage: usize, idb: usize) -> StoreView<'_> {
        self.idb[idb].store().view(self.stage_marks[stage - 1][idb])
    }

    /// Number of tuples in stage `Θ^stage` (1-based) of IDB `idb`.
    pub fn stage_len(&self, stage: usize, idb: usize) -> usize {
        self.stage_marks[stage - 1][idb] as usize
    }

    /// Whether another result has identical stages: same stage count and,
    /// for every stage and IDB, the same tuple *set* (id order may differ).
    pub fn same_stages(&self, other: &EvalResult) -> bool {
        if self.stage_count() != other.stage_count() || self.idb.len() != other.idb.len() {
            return false;
        }
        for n in 1..=self.stage_count() {
            for i in 0..self.idb.len() {
                let a = self.stage_view(n, i);
                let b = other.stage_view(n, i);
                if a.len() != b.len() || !a.iter().all(|t| b.contains(t)) {
                    return false;
                }
            }
        }
        true
    }
}

/// Resumable evaluation state captured at a *committed* stage boundary.
///
/// When a governed run is interrupted, partial per-stage work is
/// discarded and the checkpoint holds exactly the stages that committed:
/// the IDB stores, delta markers, per-stage statistics, and stage marks.
/// [`CompiledProgram::resume`] continues from here and — because stage
/// `n+1` is a pure function of the committed stage-`n` state — produces a
/// result identical, tuple id by tuple id, to an uninterrupted run.
#[derive(Debug, Clone)]
pub struct EvalCheckpoint {
    idb_stores: Vec<TupleStore>,
    delta_lo: Vec<u32>,
    stats: Vec<StageStats>,
    stage_marks: Vec<Vec<u32>>,
    eval_stats: EvalStats,
    stage: usize,
    /// SCCs of the predicate dependency graph that still had live deltas
    /// at the last committed stage boundary — the components the SCC
    /// scheduler would drive next. Diagnostic: resume recomputes liveness
    /// from `delta_lo`, so this carries no extra authority.
    active_sccs: Vec<u32>,
}

impl EvalCheckpoint {
    /// Number of stages committed before the interrupt.
    pub fn stage_count(&self) -> usize {
        self.stage
    }

    /// The SCC ids (stratum components) whose deltas were non-empty at the
    /// last committed stage boundary — where the schedule would resume.
    pub fn active_sccs(&self) -> &[u32] {
        &self.active_sccs
    }

    /// Total tuples interned across all IDB stores so far.
    pub fn tuples(&self) -> u64 {
        self.idb_stores.iter().map(|s| s.len() as u64).sum()
    }

    /// Evaluation counters for the committed prefix (monotone across
    /// successive checkpoints of one logical run).
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats
    }

    /// Serializes the checkpoint for durable storage: store contents in
    /// id order (so [`from_bytes`](Self::from_bytes) re-interns into the
    /// exact same [`TupleId`] assignment), delta markers, per-stage
    /// statistics, stage marks, and counters. The payload is
    /// self-contained — framing and checksumming are the caller's job
    /// (see [`kv_structures::persist`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        use kv_structures::persist::{encode_eval_stats, put_u32, put_u64};
        let mut buf = Vec::new();
        put_u32(&mut buf, self.idb_stores.len() as u32);
        for store in &self.idb_stores {
            put_u32(&mut buf, store.arity() as u32);
            put_u32(&mut buf, store.len() as u32);
            for &e in store.range_slice(store.id_range()) {
                put_u32(&mut buf, e);
            }
        }
        for &lo in &self.delta_lo {
            put_u32(&mut buf, lo);
        }
        put_u32(&mut buf, self.stats.len() as u32);
        for st in &self.stats {
            put_u32(&mut buf, st.new_tuples.len() as u32);
            for &c in &st.new_tuples {
                put_u32(&mut buf, c as u32);
            }
        }
        put_u32(&mut buf, self.stage_marks.len() as u32);
        for row in &self.stage_marks {
            put_u32(&mut buf, row.len() as u32);
            for &m in row {
                put_u32(&mut buf, m);
            }
        }
        encode_eval_stats(&mut buf, &self.eval_stats);
        put_u64(&mut buf, self.stage as u64);
        put_u32(&mut buf, self.active_sccs.len() as u32);
        for &s in &self.active_sccs {
            put_u32(&mut buf, s);
        }
        buf
    }

    /// Rebuilds a checkpoint from [`to_bytes`](Self::to_bytes) output.
    /// Malformed bytes — truncation, duplicate tuples, inconsistent
    /// markers — decode to a typed
    /// [`RecoveryError`](kv_structures::RecoveryError), never a panic.
    /// Resuming the rebuilt checkpoint produces a result identical,
    /// tuple id by tuple id, to resuming the original.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, kv_structures::RecoveryError> {
        use kv_structures::persist::{decode_eval_stats, ByteReader, RecoveryError};
        let path = std::path::Path::new("eval-checkpoint");
        let mut r = ByteReader::new(bytes);
        let fail = |d: String| RecoveryError::corrupt_at(path, 0, d);
        let n_idb = r.get_u32("idb store count").map_err(fail)? as usize;
        if n_idb > 10_000 {
            return Err(fail(format!("implausible idb count {n_idb}")));
        }
        let mut idb_stores = Vec::with_capacity(n_idb);
        for i in 0..n_idb {
            let arity = r.get_u32("store arity").map_err(fail)? as usize;
            let len = r.get_u32("store length").map_err(fail)? as usize;
            if arity > 64 || len > (u32::MAX as usize) / arity.max(1) {
                return Err(fail(format!(
                    "implausible store shape: arity {arity}, {len} tuple(s)"
                )));
            }
            let data = r.get_u32s(len * arity, "store data").map_err(fail)?;
            let mut store = TupleStore::with_capacity(arity, len);
            if arity == 0 {
                if len > 1 {
                    return Err(fail(format!("{len} distinct nullary tuples in IDB {i}")));
                }
                if len == 1 {
                    store.intern(&[]);
                }
            } else {
                for t in data.chunks_exact(arity) {
                    let (_, fresh) = store.intern(t);
                    if !fresh {
                        return Err(fail(format!("duplicate tuple {t:?} in IDB {i}")));
                    }
                }
            }
            idb_stores.push(store);
        }
        let delta_lo = r.get_u32s(n_idb, "delta markers").map_err(fail)?;
        for (lo, store) in delta_lo.iter().zip(&idb_stores) {
            if *lo as usize > store.len() {
                return Err(fail(format!(
                    "delta marker {lo} beyond store length {}",
                    store.len()
                )));
            }
        }
        let n_stats = r.get_u32("stage stat count").map_err(fail)? as usize;
        if n_stats > 1 << 24 {
            return Err(fail(format!("implausible stage count {n_stats}")));
        }
        let mut stats = Vec::with_capacity(n_stats);
        for _ in 0..n_stats {
            let k = r.get_u32("stage stat width").map_err(fail)? as usize;
            if k != n_idb {
                return Err(fail(format!("stage stat width {k}, expected {n_idb}")));
            }
            let counts = r.get_u32s(k, "stage new-tuple counts").map_err(fail)?;
            stats.push(StageStats {
                new_tuples: counts.into_iter().map(|c| c as usize).collect(),
            });
        }
        let n_marks = r.get_u32("stage mark count").map_err(fail)? as usize;
        if n_marks != n_stats {
            return Err(fail(format!(
                "{n_marks} mark row(s) for {n_stats} stage(s)"
            )));
        }
        let mut stage_marks = Vec::with_capacity(n_marks);
        for _ in 0..n_marks {
            let k = r.get_u32("stage mark width").map_err(fail)? as usize;
            if k != n_idb {
                return Err(fail(format!("stage mark width {k}, expected {n_idb}")));
            }
            stage_marks.push(r.get_u32s(k, "stage marks").map_err(fail)?);
        }
        let eval_stats = decode_eval_stats(&mut r, path)?;
        let stage = r.get_u64("stage counter").map_err(fail)? as usize;
        if stage != n_stats {
            return Err(fail(format!(
                "stage counter {stage} != {n_stats} committed stage(s)"
            )));
        }
        let n_active = r.get_u32("active scc count").map_err(fail)? as usize;
        if n_active > 1 << 24 {
            return Err(fail(format!("implausible active-SCC count {n_active}")));
        }
        let active_sccs = r.get_u32s(n_active, "active sccs").map_err(fail)?;
        if !r.is_exhausted() {
            return Err(fail("trailing bytes after checkpoint".to_string()));
        }
        Ok(EvalCheckpoint {
            idb_stores,
            delta_lo,
            stats,
            stage_marks,
            eval_stats,
            stage,
            active_sccs,
        })
    }

    /// The committed prefix as a (non-converged) [`EvalResult`] — partial
    /// progress for callers that inspect rather than resume. Clones the
    /// stores; the checkpoint stays resumable.
    pub fn partial_result(&self) -> EvalResult {
        EvalResult {
            idb: self
                .idb_stores
                .iter()
                .cloned()
                .map(Relation::from_store)
                .collect(),
            stats: self.stats.clone(),
            eval_stats: self.eval_stats,
            stage_marks: self.stage_marks.clone(),
            converged: false,
            shard: None,
        }
    }
}

/// A governed evaluation was interrupted: the reason plus a resumable
/// [`EvalCheckpoint`] holding all committed progress.
#[derive(Debug, Clone)]
pub struct EvalInterrupted {
    /// Why evaluation stopped.
    pub reason: Interrupted,
    /// Committed progress; pass to [`CompiledProgram::resume`].
    pub checkpoint: EvalCheckpoint,
}

impl fmt::Display for EvalInterrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} committed stage(s), {} tuple(s)",
            self.reason,
            self.checkpoint.stage_count(),
            self.checkpoint.tuples()
        )
    }
}

impl std::error::Error for EvalInterrupted {}

/// Access mode for an IDB atom inside a semi-naive rule variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdbAccess {
    /// The relation as of the *previous* stage.
    Old,
    /// Only the tuples discovered in the previous stage.
    Delta,
    /// The full relation (old ∪ delta).
    Full,
}

/// The join strategy selected for one body atom, fixed before the join
/// loop runs. Which variables are bound when the join reaches an atom is
/// fully determined by the atom order, so the kernel is a static property
/// of the (possibly re-planned) rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinKernel {
    /// No argument is bound on entry: iterate the whole accessible range.
    Scan,
    /// One bound argument position is probed through a [`PosIndex`];
    /// remaining arguments are filtered per candidate.
    Probe {
        /// The indexed argument position.
        pos: usize,
    },
    /// Two bound argument positions: intersect the two sorted posting
    /// lists, visiting only ids that match both.
    MergedProbe {
        /// First indexed position.
        pos_a: usize,
        /// Second indexed position.
        pos_b: usize,
    },
    /// Every argument is bound on entry: the atom degenerates to a single
    /// interner lookup plus a range-containment test.
    Check,
}

impl JoinKernel {
    /// The index positions this kernel probes (what the index plan must
    /// provide).
    pub(crate) fn index_positions(&self) -> impl Iterator<Item = usize> {
        let pair: [Option<usize>; 2] = match *self {
            JoinKernel::Scan | JoinKernel::Check => [None, None],
            JoinKernel::Probe { pos } => [Some(pos), None],
            JoinKernel::MergedProbe { pos_a, pos_b } => [Some(pos_a), Some(pos_b)],
        };
        pair.into_iter().flatten()
    }
}

/// A body atom with its access mode and join kernel resolved.
#[derive(Debug, Clone)]
pub(crate) struct JoinAtom {
    pub(crate) pred: Pred,
    pub(crate) access: IdbAccess,
    pub(crate) args: Vec<Term>,
    /// The join strategy, decided at compile (or plan) time from which
    /// arguments are bound when the join reaches this atom.
    pub(crate) kernel: JoinKernel,
    /// Whether this atom is a magic (demand) predicate; its probes are
    /// attributed to [`EvalStats::magic_probes`] instead of
    /// [`EvalStats::join_probes`].
    pub(crate) is_magic: bool,
}

/// A rule pre-processed for joining: equalities eliminated by variable
/// unification, atoms ordered, constraints collected.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    pub(crate) head: IdbId,
    pub(crate) head_args: Vec<Term>,
    pub(crate) atoms: Vec<JoinAtom>,
    /// Inequality constraints on canonical terms.
    pub(crate) neqs: Vec<(Term, Term)>,
    /// Equality constraints between constants (structure-dependent checks).
    pub(crate) const_eqs: Vec<(Term, Term)>,
    /// Number of canonical variables.
    pub(crate) var_count: usize,
    /// Canonical variables that occur in no atom and must be enumerated
    /// over the universe (because the head or an inequality needs them).
    pub(crate) free_vars: Vec<VarId>,
    /// ≠-constraints hoisted to their earliest fully-bound point:
    /// `neq_at[0]` holds indices into [`neqs`](Self::neqs) checkable at
    /// rule entry (both sides constant), `neq_at[j + 1]` those whose last
    /// variable is bound by atom `j`, and `neq_at[atoms.len() + 1 + i]`
    /// those completed by free variable `i`. Each constraint is checked
    /// exactly once per branch, at the same pruning point the old
    /// re-scan-everything loop first rejected it.
    pub(crate) neq_at: Vec<Vec<usize>>,
    /// Cost-based early exit: once the join has bound all head arguments
    /// (after this many atoms), a branch whose head tuple already exists
    /// can stop — the remaining atoms only re-verify a derivation that
    /// changes nothing. `None` disables the check (written rules, or the
    /// head needs free variables). Counting workers never take it.
    pub(crate) head_check_at: Option<usize>,
    /// Whether the join keeps per-atom probe memos and batches its head
    /// emission (see [`WorkerBuf::emit_buf`]): set by cost-based plans,
    /// off for written rules so their counters stay as the seed engine
    /// counted them.
    pub(crate) batched: bool,
    /// When set, the rule body is executed by the worst-case-optimal
    /// generic join (`crate::wcoj`) instead of the binary kernel
    /// pipeline: the first atom seeds the join, the remaining variables
    /// are bound one at a time by intersecting sorted postings. Assigned
    /// only by the cost-based planner; both lowerings derive identical
    /// stages.
    pub(crate) generic: Option<GenericPlan>,
}

/// Union-find based equality elimination. Returns a substitution mapping
/// each original variable to a canonical [`Term`] plus leftover
/// constant-constant equality checks.
fn unify_rule(rule: &Rule) -> (Vec<Term>, Vec<(Term, Term)>) {
    let n = rule.var_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    // Constant attached to each class, if any; extra const-const checks.
    let mut class_const: Vec<Option<Term>> = vec![None; n];
    let mut const_eqs: Vec<(Term, Term)> = Vec::new();
    for lit in &rule.body {
        if let Literal::Eq(a, b) = lit {
            match (a, b) {
                (Term::Var(x), Term::Var(y)) => {
                    let (rx, ry) = (find(&mut parent, x.0), find(&mut parent, y.0));
                    if rx != ry {
                        parent[rx] = ry;
                        // Merge constant attachments.
                        match (class_const[rx].take(), class_const[ry]) {
                            (Some(c1), Some(c2)) => const_eqs.push((c1, c2)),
                            (Some(c1), None) => class_const[ry] = Some(c1),
                            _ => {}
                        }
                    }
                }
                (Term::Var(x), c @ Term::Const(_)) | (c @ Term::Const(_), Term::Var(x)) => {
                    let rx = find(&mut parent, x.0);
                    match class_const[rx] {
                        Some(existing) => const_eqs.push((existing, *c)),
                        None => class_const[rx] = Some(*c),
                    }
                }
                (c1 @ Term::Const(_), c2 @ Term::Const(_)) => const_eqs.push((*c1, *c2)),
            }
        }
    }
    // Build the substitution: class representative or attached constant.
    let subst: Vec<Term> = (0..n)
        .map(|x| {
            let r = find(&mut parent, x);
            class_const[r].unwrap_or(Term::Var(VarId(r)))
        })
        .collect();
    (subst, const_eqs)
}

fn apply_subst(t: &Term, subst: &[Term]) -> Term {
    match t {
        Term::Var(v) => subst[v.0],
        c => *c,
    }
}

/// Assigns the written plan's kernel to every atom: probe the first
/// argument position that is a constant or a variable bound by an earlier
/// atom, scan otherwise. This reproduces the engine's historical static
/// index choice exactly, so textual probe counters stay byte-identical.
fn assign_textual_kernels(atoms: &mut [JoinAtom]) {
    let mut bound: HashSet<VarId> = HashSet::new();
    for a in atoms {
        let first = a.args.iter().position(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        });
        a.kernel = match first {
            Some(pos) => JoinKernel::Probe { pos },
            None => JoinKernel::Scan,
        };
        for t in &a.args {
            if let Term::Var(v) = t {
                bound.insert(*v);
            }
        }
    }
}

/// Hoists each ≠-constraint to the earliest point of the join at which both
/// sides are bound (see [`CompiledRule::neq_at`]). A variable is first
/// bound by the first atom mentioning it (in the chosen order), or by its
/// slot in the free-variable odometer.
pub(crate) fn schedule_neqs(
    atoms: &[JoinAtom],
    free_vars: &[VarId],
    neqs: &[(Term, Term)],
) -> Vec<Vec<usize>> {
    let slots = atoms.len() + free_vars.len() + 1;
    let mut neq_at = vec![Vec::new(); slots];
    let slot_of = |t: &Term| -> usize {
        match t {
            Term::Const(_) => 0,
            Term::Var(v) => atoms
                .iter()
                .position(|a| a.args.contains(&Term::Var(*v)))
                .map(|j| j + 1)
                .or_else(|| {
                    free_vars
                        .iter()
                        .position(|f| f == v)
                        .map(|i| atoms.len() + 1 + i)
                })
                // A variable in no atom and no free slot can only pass
                // vacuously; park the check at the last slot.
                .unwrap_or(slots - 1),
        }
    };
    for (ni, (a, b)) in neqs.iter().enumerate() {
        neq_at[slot_of(a).max(slot_of(b))].push(ni);
    }
    neq_at
}

/// Where a semi-naive rule variant pins its delta atom: on the `d`-th IDB
/// occurrence (ordinary stage variants), on the `d`-th body atom of
/// either kind (the incremental engine's insertion variants for EDB atoms
/// and its deletion variants), or nowhere (naive rules).
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeltaPin {
    /// No delta: every atom reads its full relation.
    None,
    /// Delta on the `d`-th IDB occurrence (EDB atoms stay full).
    Idb(usize),
    /// Delta on the `d`-th body atom of either kind; earlier atoms old,
    /// later ones full. Across `d` this enumerates each derivation using a
    /// delta tuple exactly once, as counting maintenance needs: inserted
    /// EDB tuples (stage one of the insertion pass, where IDB old and full
    /// coincide) or deleted ones (read through [`DeletionWindows`]).
    Any(usize),
}

pub(crate) fn compile_rule_pinned(rule: &Rule, pin: DeltaPin, magic: &[bool]) -> CompiledRule {
    let (subst, const_eqs) = unify_rule(rule);
    let head_args: Vec<Term> = rule
        .head_args
        .iter()
        .map(|t| apply_subst(t, &subst))
        .collect();
    let mut atoms = Vec::new();
    let mut neqs = Vec::new();
    // Occurrences so far: IDB atoms and all atoms.
    let (mut idb_seen, mut seen) = (0usize, 0usize);
    let partition = |occ: usize, d: usize| match occ.cmp(&d) {
        std::cmp::Ordering::Less => IdbAccess::Old,
        std::cmp::Ordering::Equal => IdbAccess::Delta,
        std::cmp::Ordering::Greater => IdbAccess::Full,
    };
    for lit in &rule.body {
        match lit {
            Literal::Atom(pred, args) => {
                let access = match (pin, pred) {
                    (DeltaPin::Idb(d), Pred::Idb(_)) => partition(idb_seen, d),
                    (DeltaPin::Any(d), _) => partition(seen, d),
                    _ => IdbAccess::Full,
                };
                idb_seen += usize::from(matches!(pred, Pred::Idb(_)));
                seen += 1;
                atoms.push(JoinAtom {
                    pred: *pred,
                    access,
                    args: args.iter().map(|t| apply_subst(t, &subst)).collect(),
                    kernel: JoinKernel::Scan,
                    is_magic: matches!(pred, Pred::Idb(i) if magic[i.0]),
                });
            }
            Literal::Neq(a, b) => {
                neqs.push((apply_subst(a, &subst), apply_subst(b, &subst)));
            }
            Literal::Eq(_, _) => {} // consumed by unification
        }
    }
    // Move the delta atom to the front: it seeds the join.
    if let Some(pos) = atoms.iter().position(|a| a.access == IdbAccess::Delta) {
        let delta = atoms.remove(pos);
        atoms.insert(0, delta);
    }
    // Written-order kernels (which variables are bound at each atom is
    // fully determined by the atom order); cost-based plans re-assign them.
    assign_textual_kernels(&mut atoms);
    // Variables occurring in atoms.
    let mut in_atoms: HashSet<VarId> = HashSet::new();
    for a in &atoms {
        for t in &a.args {
            if let Term::Var(v) = t {
                in_atoms.insert(*v);
            }
        }
    }
    // Canonical variables needed by head or inequalities but absent from
    // every atom: enumerate them over the universe.
    let mut free_vars: Vec<VarId> = Vec::new();
    let need = |t: &Term, free: &mut Vec<VarId>| {
        if let Term::Var(v) = t {
            if !in_atoms.contains(v) && !free.contains(v) {
                free.push(*v);
            }
        }
    };
    for t in &head_args {
        need(t, &mut free_vars);
    }
    for (a, b) in &neqs {
        need(a, &mut free_vars);
        need(b, &mut free_vars);
    }
    let neq_at = schedule_neqs(&atoms, &free_vars, &neqs);
    CompiledRule {
        head: rule.head,
        head_args,
        atoms,
        neqs,
        const_eqs,
        var_count: rule.var_count(),
        free_vars,
        neq_at,
        head_check_at: None,
        batched: false,
        generic: None,
    }
}

/// Gathers the index plan — which positions of which relations the given
/// rules' kernels will ever probe — as sorted, deduplicated position lists.
pub(crate) fn index_plan<'r>(
    rules: impl Iterator<Item = &'r CompiledRule>,
    edb_count: usize,
    idb_count: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut edb_pos: Vec<HashSet<usize>> = vec![HashSet::new(); edb_count];
    let mut idb_pos: Vec<HashSet<usize>> = vec![HashSet::new(); idb_count];
    for rule in rules {
        for (ai, atom) in rule.atoms.iter().enumerate() {
            // A generic-lowered rule refines every non-seed atom through
            // posting intersections at arbitrary argument positions, so it
            // needs all of them indexed; binary rules only need what their
            // statically chosen kernels probe.
            let positions: Vec<usize> = if rule.generic.is_some() && ai > 0 {
                (0..atom.args.len()).collect()
            } else {
                atom.kernel.index_positions().collect()
            };
            for pos in positions {
                match atom.pred {
                    Pred::Edb(r) => edb_pos[r.0].insert(pos),
                    Pred::Idb(i) => idb_pos[i.0].insert(pos),
                };
            }
        }
    }
    let sorted = |set: HashSet<usize>| {
        let mut v: Vec<usize> = set.into_iter().collect();
        v.sort_unstable();
        v
    };
    (
        edb_pos.into_iter().map(sorted).collect(),
        idb_pos.into_iter().map(sorted).collect(),
    )
}

/// Brings `indexes[i]`, the indexes over store `i`, up to date: adds an
/// index for each planned position it lacks (`positions[i]`, if given)
/// and extends every index over the tuples its store gained since.
pub(crate) fn sync_indexes<'s>(
    indexes: &mut [Vec<PosIndex>],
    stores: impl IntoIterator<Item = &'s TupleStore>,
    positions: &[Vec<usize>],
) {
    for (i, (ixs, store)) in indexes.iter_mut().zip(stores).enumerate() {
        for &pos in positions.get(i).into_iter().flatten() {
            if !ixs.iter().any(|ix| ix.pos() == pos) {
                ixs.push(PosIndex::new(pos));
            }
        }
        for ix in ixs.iter_mut() {
            ix.update(store);
        }
    }
}

/// Position indexes over one structure's EDB relations, each built the
/// first time a plan probes it.
///
/// The set holds one slot per (relation, tuple position). A slot is filled
/// at most once, by whichever worker probes it first; a concurrent reader
/// of the same slot waits for that fill instead of building its own. A
/// one-shot run uses a set of its own, so it builds the indexes it probes
/// and drops them on return. A holder of an immutable structure keeps one
/// set beside it and passes it to every run on that structure
/// ([`CompiledProgram::try_run_indexed`]), so each index is built once per
/// structure rather than once per run — the query service keeps one per
/// published snapshot.
///
/// A set serves only the structure it was made for; runs check that the
/// relation lengths agree.
#[derive(Debug)]
pub struct EdbIndexes {
    /// Per relation, one slot per tuple position.
    slots: Vec<Box<[OnceLock<PosIndex>]>>,
    /// Per relation, the tuple count of the structure the set was made for.
    lens: Vec<usize>,
}

impl EdbIndexes {
    /// An empty set for `structure`'s relations: nothing is built yet.
    pub fn new(structure: &Structure) -> Self {
        let vocab = structure.vocabulary();
        EdbIndexes {
            slots: vocab
                .relations()
                .map(|r| (0..vocab.arity(r)).map(|_| OnceLock::new()).collect())
                .collect(),
            lens: vocab
                .relations()
                .map(|r| structure.relation(r).len())
                .collect(),
        }
    }

    /// The index on position `pos` of `rel`, if some run has built it.
    ///
    /// # Panics
    /// Panics if `rel` or `pos` is out of range.
    pub fn built(&self, rel: RelId, pos: usize) -> Option<&PosIndex> {
        self.slots[rel.0][pos].get()
    }

    /// Whether the set was made for a structure shaped like `structure`.
    fn serves(&self, structure: &Structure) -> bool {
        let vocab = structure.vocabulary();
        self.lens.len() == vocab.relation_count()
            && vocab
                .relations()
                .all(|r| self.lens[r.0] == structure.relation(r).len())
    }
}

/// The position indexes an atom's source offers the join kernels.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Indexes<'a> {
    /// Built before the stage runs: the IDB indexes, and the EDB indexes
    /// incremental maintenance keeps. Holds exactly the planned positions.
    Kept(&'a [PosIndex]),
    /// One relation's slots of an [`EdbIndexes`] set, over its store; a
    /// slot is filled on first probe.
    Lazy(&'a [OnceLock<PosIndex>], &'a TupleStore),
}

impl<'a> Indexes<'a> {
    /// The index on position `p`. Kept indexes cover every statically
    /// chosen probe position (the index plan), so the lookup succeeds.
    #[allow(clippy::expect_used)]
    pub(crate) fn at(self, p: usize) -> &'a PosIndex {
        match self {
            Indexes::Kept(indexes) => indexes
                .iter()
                .find(|ix| ix.pos() == p)
                .expect("index plan covers every statically chosen probe position"),
            Indexes::Lazy(slots, store) => slots[p].get_or_init(|| {
                let mut ix = PosIndex::new(p);
                ix.update(store);
                ix
            }),
        }
    }
}

/// Where a stage reads its EDB indexes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EdbIdx<'a> {
    /// A from-scratch run: a set filled on first probe (see [`EdbIndexes`]).
    Lazy(&'a EdbIndexes),
    /// Incremental maintenance: the indexes the engine keeps across
    /// batches, indexed by relation.
    Kept(&'a [Vec<PosIndex>]),
}

/// A program compiled for evaluation: its written rules and semi-naive
/// variants as one plan, with static index positions and the IDB index
/// plan (which positions of which IDB predicates any variant will ever
/// probe). Compiled **once** — by [`Evaluator::new`] or directly — and
/// reusable across arbitrarily many structures, which is what `kv-core`'s
/// `ProgramQuery` relies on.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) vocabulary: Arc<Vocabulary>,
    pub(crate) goal: IdbId,
    pub(crate) idb_arities: Vec<usize>,
    /// IDB display names, kept for `explain()` renderings.
    pub(crate) idb_names: Vec<String>,
    /// The rules as written: the textual plan, which textual runs borrow
    /// and cost-based runs re-plan (see [`crate::planner`]).
    pub(crate) written: RunPlan,
    /// The predicate dependency graph's strongly connected components and
    /// their topological stratum order (see [`crate::planner`]).
    pub(crate) scc: SccInfo,
}

impl CompiledProgram {
    /// Compiles `program`: equality elimination, semi-naive delta
    /// variants, static probe positions, and the aggregate index plan.
    pub fn compile(program: &Program) -> Self {
        Self::compile_with_magic(program, &vec![false; program.idb_count()])
    }

    /// Like [`compile`](Self::compile), but with a per-IDB flag marking
    /// magic (demand) predicates — typically the
    /// [`crate::magic::MagicProgram::magic_flags`] of a magic-set rewrite.
    /// Probes against flagged predicates are counted in
    /// [`EvalStats::magic_probes`] rather than `join_probes`, keeping the
    /// demand path's bookkeeping overhead visible.
    ///
    /// # Panics
    /// Panics if `magic.len()` differs from the program's IDB count.
    pub fn compile_with_magic(program: &Program, magic: &[bool]) -> Self {
        assert_eq!(
            magic.len(),
            program.idb_count(),
            "one magic flag per IDB predicate"
        );
        let naive_rules: Vec<CompiledRule> = program
            .rules()
            .iter()
            .map(|r| compile_rule_pinned(r, DeltaPin::None, magic))
            .collect();
        let mut semi_variants = Vec::new();
        for rule in program.rules() {
            let idb_atoms = rule
                .atoms()
                .filter(|(p, _)| matches!(p, Pred::Idb(_)))
                .count();
            for d in 0..idb_atoms {
                semi_variants.push(compile_rule_pinned(rule, DeltaPin::Idb(d), magic));
            }
        }
        let idb_count = program.idb_count();
        CompiledProgram {
            vocabulary: Arc::clone(program.vocabulary()),
            goal: program.goal(),
            idb_arities: (0..idb_count)
                .map(|i| program.idb_arity(IdbId(i)))
                .collect(),
            idb_names: (0..idb_count)
                .map(|i| program.idb_name(IdbId(i)).to_string())
                .collect(),
            written: RunPlan {
                naive_rules,
                semi_variants,
                blooms: false,
                fire: Fire::Seed,
            },
            scc: SccInfo::of_program(program),
        }
    }

    /// The goal predicate.
    pub fn goal(&self) -> IdbId {
        self.goal
    }

    /// The SCC decomposition of the predicate dependency graph.
    pub fn scc_info(&self) -> &SccInfo {
        &self.scc
    }

    /// Number of strongly connected components among the IDB predicates.
    pub fn scc_count(&self) -> usize {
        self.scc.count()
    }

    /// The cardinality statistics of `structure`'s relations, one per
    /// relation of the program's vocabulary.
    pub(crate) fn edb_card_stats(&self, structure: &Structure) -> Vec<CardStats> {
        self.vocabulary
            .relations()
            .map(|r| structure.relation(r).store().card_stats())
            .collect()
    }

    /// The plan a run on `structure` under `options` evaluates: the
    /// written plan, borrowed, or its cost-based re-plan.
    fn plan_for(&self, structure: &Structure, options: &EvalOptions) -> Cow<'_, RunPlan> {
        assert_eq!(
            structure.vocabulary(),
            &self.vocabulary,
            "structure/program vocabulary mismatch"
        );
        planner::plan(
            &self.written,
            options,
            || self.edb_card_stats(structure),
            structure.universe_size(),
        )
    }

    /// Evaluates on `structure` to fixpoint (or `options.max_stages`),
    /// ungoverned.
    ///
    /// # Panics
    /// Panics if the structure's vocabulary differs from the program's.
    pub fn run(&self, structure: &Structure, options: EvalOptions) -> EvalResult {
        unlimited(self.try_run_governed(structure, options, &Governor::unlimited()))
    }

    /// Governed evaluation: honors the `gov`'s budget, deadline, and
    /// cancellation token, interrupting gracefully with a resumable
    /// [`EvalCheckpoint`] at the last committed stage. Parallel workers
    /// poll the governor cooperatively (amortized, worker-local batching),
    /// so cancellation and deadlines take effect mid-stage; the partial
    /// stage is discarded and recomputed on resume.
    ///
    /// # Panics
    /// Panics if the structure's vocabulary differs from the program's.
    pub fn try_run_governed(
        &self,
        structure: &Structure,
        options: EvalOptions,
        gov: &Governor,
    ) -> Result<EvalResult, EvalInterrupted> {
        self.try_run_governed_seeded(structure, options, gov, &[])
    }

    /// Evaluates on `structure` with `seeds` pre-interned into their IDB
    /// stores before stage 1 — the entry point of the demand path, where
    /// the magic goal predicate is seeded with the query's bound values
    /// (see [`crate::magic::MagicProgram::seed`]).
    ///
    /// Seeds behave as a committed "stage 0": stage 1 evaluates the naive
    /// rules over the full prefix (which contains the seeds), so the
    /// semi-naive invariant — every derivation whose premises predate a
    /// stage is found no later than that stage — holds unchanged, and
    /// interrupted seeded runs resume through the ordinary
    /// [`resume`](Self::resume). Seeds are not counted in
    /// [`EvalStats::tuples_interned`] (they are given, not derived).
    ///
    /// # Panics
    /// Panics on a vocabulary mismatch, an out-of-range seed predicate, or
    /// a seed arity mismatch.
    pub fn run_seeded(
        &self,
        structure: &Structure,
        options: EvalOptions,
        seeds: &[(IdbId, Vec<Element>)],
    ) -> EvalResult {
        unlimited(self.try_run_governed_seeded(structure, options, &Governor::unlimited(), seeds))
    }

    /// Governed variant of [`run_seeded`](Self::run_seeded); see
    /// [`try_run_governed`](Self::try_run_governed) for governance
    /// semantics.
    ///
    /// # Panics
    /// Panics on a vocabulary mismatch, an out-of-range seed predicate, or
    /// a seed arity mismatch.
    pub fn try_run_governed_seeded(
        &self,
        structure: &Structure,
        options: EvalOptions,
        gov: &Governor,
        seeds: &[(IdbId, Vec<Element>)],
    ) -> Result<EvalResult, EvalInterrupted> {
        let indexes = EdbIndexes::new(structure);
        self.try_run_indexed(structure, &indexes, options, gov, seeds)
    }

    /// [`try_run_governed_seeded`](Self::try_run_governed_seeded) reading
    /// the EDB indexes from `indexes`, a set made for `structure` by
    /// [`EdbIndexes::new`]. The run builds the indexes it probes into the
    /// set and leaves them there, so later runs against the same
    /// structure — any program, plan or binding — probe them without
    /// rebuilding. Answers, stages and [`EvalStats`] are those of a run
    /// with a fresh set.
    ///
    /// # Panics
    /// Panics on a vocabulary mismatch, a set made for a structure with
    /// other relation sizes, an out-of-range seed predicate, or a seed
    /// arity mismatch.
    pub fn try_run_indexed(
        &self,
        structure: &Structure,
        indexes: &EdbIndexes,
        options: EvalOptions,
        gov: &Governor,
        seeds: &[(IdbId, Vec<Element>)],
    ) -> Result<EvalResult, EvalInterrupted> {
        let idb_count = self.idb_arities.len();
        let mut idb_stores: Vec<TupleStore> = self
            .idb_arities
            .iter()
            .map(|&a| TupleStore::new(a))
            .collect();
        for (idb, tuple) in seeds {
            assert!(idb.0 < idb_count, "seed predicate out of range");
            assert_eq!(
                tuple.len(),
                self.idb_arities[idb.0],
                "seed arity mismatch for IDB #{}",
                idb.0
            );
            idb_stores[idb.0].intern(tuple);
        }
        let checkpoint = EvalCheckpoint {
            idb_stores,
            delta_lo: vec![0u32; idb_count],
            stats: Vec::new(),
            stage_marks: Vec::new(),
            eval_stats: EvalStats::default(),
            stage: 0,
            active_sccs: Vec::new(),
        };
        let plan = self.plan_for(structure, &options);
        self.run_from(structure, indexes, &plan, options, gov, checkpoint)
    }

    /// Resumes an interrupted governed evaluation from its checkpoint.
    ///
    /// `structure` and `options` must be the ones the original run used;
    /// the EDB and IDB indexes are rebuilt deterministically from the
    /// checkpointed stores, so the continued run derives exactly the
    /// stages an uninterrupted run would have. Budget counters belong to
    /// the governor, not the checkpoint — resuming with the exhausted
    /// governor re-trips immediately, so pass a fresh or relaxed one.
    ///
    /// # Panics
    /// Panics if the structure's vocabulary differs from the program's.
    pub fn resume(
        &self,
        structure: &Structure,
        options: EvalOptions,
        gov: &Governor,
        checkpoint: EvalCheckpoint,
    ) -> Result<EvalResult, EvalInterrupted> {
        let plan = self.plan_for(structure, &options);
        let indexes = EdbIndexes::new(structure);
        self.run_from(structure, &indexes, &plan, options, gov, checkpoint)
    }

    /// The governed evaluation core: runs `plan` from `cp` (fresh or
    /// resumed) to fixpoint, truncation, or interrupt, probing the EDB
    /// through `edb_idx`. The plan is a pure function of (program,
    /// structure, options), so interrupted runs re-derive it identically
    /// on resume.
    fn run_from(
        &self,
        structure: &Structure,
        edb_idx: &EdbIndexes,
        plan: &RunPlan,
        options: EvalOptions,
        gov: &Governor,
        mut cp: EvalCheckpoint,
    ) -> Result<EvalResult, EvalInterrupted> {
        assert!(
            edb_idx.serves(structure),
            "EDB index set was made for another structure"
        );

        // EDB stores are the structure's own relation stores (zero-copy);
        // their indexes come from `edb_idx`, built on first probe.
        let edb_stores: Vec<&TupleStore> = self
            .vocabulary
            .relations()
            .map(|r| structure.relation(r).store())
            .collect();

        // IDB state from the checkpoint (empty on a fresh run); indexes
        // are rebuilt over the committed prefix and then extended (not
        // rebuilt) after each further stage commits.
        let rules = plan.naive_rules.iter().chain(&plan.semi_variants);
        let (_, idb_positions) = index_plan(rules, edb_stores.len(), cp.idb_stores.len());
        let mut idb_idx = vec![Vec::new(); cp.idb_stores.len()];
        sync_indexes(&mut idb_idx, &cp.idb_stores, &idb_positions);

        // Plans that keep Bloom pre-filters over each IDB's committed
        // tuples rebuild them deterministically from the committed prefix
        // and extend them after each stage commit.
        let mut blooms: Option<Vec<TupleBloom>> = plan
            .blooms
            .then(|| cp.idb_stores.iter().map(bloom_over).collect());

        // Shard keys are a pure function of the compiled variants and the
        // EDB statistics (resumed runs re-derive them identically); at
        // W = 1 none are chosen. Interrupts discard partial stages whole,
        // so a checkpoint never holds in-flight exchange tuples.
        let mut shards = sharded::Shards::new(options.shards, || {
            let edb_arities: Vec<usize> = edb_stores.iter().map(|s| s.arity()).collect();
            Some(sharded::choose_plan(
                &plan.semi_variants,
                &[],
                &self.idb_arities,
                &edb_arities,
                &self.edb_card_stats(structure),
            ))
        });

        // Hands the committed state back as a resumable interrupt, with the
        // SCC stratum schedule's live set at that boundary: the components
        // whose predicates still carry a non-empty delta (or, before stage
        // 1, any committed tuples — seeds).
        let interrupted = |reason: Interrupted, mut cp: EvalCheckpoint| {
            cp.eval_stats.stages = cp.stats.len() as u64;
            cp.active_sccs = self.scc.active_components(&cp.delta_lo, &cp.idb_stores);
            Err(EvalInterrupted {
                reason,
                checkpoint: cp,
            })
        };

        let mut converged = false;
        while cp.stage < options.max_stages.unwrap_or(usize::MAX) {
            // Coarse boundary check (cancellation poll + deadline + all
            // budgets), then the stage budget for the stage about to run.
            if let Err(reason) = gov.check().and_then(|()| gov.charge_stage()) {
                return interrupted(reason, cp);
            }
            let prev_len: Vec<u32> = cp.idb_stores.iter().map(|s| s.len() as u32).collect();
            let rules_this_stage: &[CompiledRule] = if cp.stage == 0 || !options.semi_naive {
                &plan.naive_rules
            } else {
                &plan.semi_variants
            };
            let env = StageEnv {
                structure,
                edb: &edb_stores,
                edb_idx: EdbIdx::Lazy(edb_idx),
                idb_idx: &idb_idx,
                blooms: blooms.as_deref(),
                prev_len: &prev_len,
                delta_lo: &cp.delta_lo,
                edb_delta_lo: None,
                deletion: None,
                gov,
            };
            let live_rules: Vec<&CompiledRule> = rules_this_stage
                .iter()
                .filter(|rule| env.fires(rule, plan.fire))
                .collect();
            let idb = sharded::IdbStores::Set(&mut cp.idb_stores);
            let new_count =
                match sharded::run_stage(&env, &live_rules, idb, &mut shards, &mut cp.eval_stats) {
                    Ok(new_count) => new_count,
                    Err(reason) => return interrupted(reason, cp),
                };
            cp.stage += 1;
            if new_count.iter().all(|&c| c == 0) {
                converged = true;
                break;
            }
            cp.stage_marks
                .push(cp.idb_stores.iter().map(|s| s.len() as u32).collect());
            // Advance delta markers and extend the indexes over the newly
            // committed id range.
            cp.delta_lo.copy_from_slice(&prev_len);
            sync_indexes(&mut idb_idx, &cp.idb_stores, &[]);
            // Extend the Bloom pre-filters over the committed delta,
            // rebuilding any filter that grew past its useful load.
            if let Some(blooms) = blooms.as_mut() {
                for (i, store) in cp.idb_stores.iter().enumerate() {
                    if blooms[i].should_grow() {
                        blooms[i] = bloom_over(store);
                    } else {
                        for id in cp.delta_lo[i]..store.len() as u32 {
                            blooms[i].insert(tuple_hash(store.get(TupleId(id))));
                        }
                    }
                }
            }
            let charged = commit_stage(gov, &mut cp.eval_stats, &new_count, &self.idb_arities);
            cp.stats.push(StageStats {
                new_tuples: new_count,
            });
            if let Err(reason) = charged {
                return interrupted(reason, cp);
            }
        }
        cp.eval_stats.stages = cp.stats.len() as u64;

        Ok(EvalResult {
            idb: cp
                .idb_stores
                .into_iter()
                .map(Relation::from_store)
                .collect(),
            stats: cp.stats,
            eval_stats: cp.eval_stats,
            stage_marks: cp.stage_marks,
            converged,
            shard: options
                .shards
                .map(|_| shards.stats(plan.semi_variants.len())),
        })
    }
}

/// A Bloom pre-filter sized for twice `store`'s tuples, holding them all.
fn bloom_over(store: &TupleStore) -> TupleBloom {
    let mut bloom = TupleBloom::with_capacity(store.len().max(64) * 2);
    for t in store.iter() {
        bloom.insert(tuple_hash(t));
    }
    bloom
}

/// Counts a committed stage's fresh tuples into `stats` and charges them,
/// with their bytes, to `gov`'s budgets. Budgets are charged after the
/// stage commits, so the checkpoint includes it and resume continues from
/// the next stage.
pub(crate) fn commit_stage(
    gov: &Governor,
    stats: &mut EvalStats,
    new_count: &[usize],
    arities: &[usize],
) -> Result<(), Interrupted> {
    let tuples: u64 = new_count.iter().map(|&c| c as u64).sum();
    let bytes: u64 = new_count
        .iter()
        .zip(arities)
        .map(|(&c, &a)| c as u64 * a.max(1) as u64 * 4)
        .sum();
    stats.tuples_interned += tuples;
    gov.charge_tuples(tuples)
        .and_then(|()| gov.charge_bytes(bytes))
}

/// Unwraps the result of a run governed by [`Governor::unlimited`], which
/// has no budget, no deadline and a never-cancelled token.
fn unlimited(r: Result<EvalResult, EvalInterrupted>) -> EvalResult {
    r.unwrap_or_else(|e| unreachable!("unlimited governor interrupted a run: {e}"))
}

/// The evaluator: a program compiled once ([`CompiledProgram`]), reused
/// across structures.
#[derive(Debug)]
pub struct Evaluator<'p> {
    program: &'p Program,
    compiled: CompiledProgram,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator for `program`, compiling it once.
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            compiled: CompiledProgram::compile(program),
        }
    }

    /// The compiled form (shareable without the program's lifetime).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Evaluates the program on `structure` with the given options.
    ///
    /// # Panics
    /// Panics if the structure's vocabulary differs from the program's.
    pub fn run(&self, structure: &Structure, options: EvalOptions) -> EvalResult {
        self.compiled.run(structure, options)
    }

    /// Governed evaluation honoring a [`Governor`]'s budget, deadline,
    /// and cancellation token; interrupts are graceful and resumable.
    /// See [`CompiledProgram::try_run_governed`].
    pub fn try_run_governed(
        &self,
        structure: &Structure,
        options: EvalOptions,
        gov: &Governor,
    ) -> Result<EvalResult, EvalInterrupted> {
        self.compiled.try_run_governed(structure, options, gov)
    }

    /// Resumes an interrupted governed evaluation. See
    /// [`CompiledProgram::resume`].
    pub fn resume(
        &self,
        structure: &Structure,
        options: EvalOptions,
        gov: &Governor,
        checkpoint: EvalCheckpoint,
    ) -> Result<EvalResult, EvalInterrupted> {
        self.compiled.resume(structure, options, gov, checkpoint)
    }

    /// Convenience: runs with default options and returns the goal
    /// relation (moved out of the result, not cloned).
    pub fn goal(&self, structure: &Structure) -> Relation {
        let mut r = self.run(structure, EvalOptions::default());
        std::mem::take(&mut r.idb[self.program.goal().0])
    }

    /// Convenience: does `tuple` belong to the goal relation? Checks the
    /// evaluation result in place.
    pub fn holds(&self, structure: &Structure, tuple: &[Element]) -> bool {
        self.run(structure, EvalOptions::default()).idb[self.program.goal().0].contains(tuple)
    }
}

/// What every worker of a stage reads besides the IDB stores themselves.
/// Everything here is borrowed immutably; the only interior mutability is
/// an [`EdbIndexes`] slot's one-time fill, which is thread-safe, so the
/// environment is `Sync`. It is copied into each worker's [`JoinCtx`], so
/// the join loops read its fields without a second indirection.
#[derive(Clone, Copy)]
pub(crate) struct StageEnv<'a> {
    pub(crate) structure: &'a Structure,
    pub(crate) edb: &'a [&'a TupleStore],
    pub(crate) edb_idx: EdbIdx<'a>,
    pub(crate) idb_idx: &'a [Vec<PosIndex>],
    /// Bloom pre-filters over each IDB's committed tuples, when the plan
    /// keeps them: a negative membership answer is definitive and skips
    /// the interner lookup.
    pub(crate) blooms: Option<&'a [TupleBloom]>,
    /// Store length of each IDB at stage start (`full` view bound).
    pub(crate) prev_len: &'a [u32],
    /// Store length of each IDB before the previous stage committed
    /// (`old`/`delta` boundary).
    pub(crate) delta_lo: &'a [u32],
    /// When set, EDB atoms get old/delta/full id windows too: tuples below
    /// this mark predate the current maintenance batch, tuples at or above
    /// it are the batch's insertions. `None` (every from-scratch run)
    /// keeps the historical behaviour — EDB atoms read their whole store
    /// regardless of access mode.
    pub(crate) edb_delta_lo: Option<&'a [u32]>,
    /// Set only for incremental maintenance's deletion passes: the
    /// deletion reading of the windows (see [`DeletionWindows`]).
    pub(crate) deletion: Option<&'a DeletionWindows<'a>>,
    /// The shared governor; workers poll it cooperatively through
    /// worker-local batched counters ([`WorkerBuf::pending_steps`]).
    pub(crate) gov: &'a Governor,
}

/// How a deletion pass of incremental maintenance reads the three windows
/// of a rule variant (pinned by [`DeltaPin::Any`], or a head-seeded
/// rederivation check):
///
/// - `Delta` is the pinned predicate's [seed](Self::seed), a small
///   store holding its deleted (or newly overdeleted, or newly rederived)
///   tuples, or the worker's share of them;
/// - `Old` is the survivors: the pre-state store minus the ids in the
///   predicate's deleted set, which the kernels check per candidate;
/// - `Full` is the pre-state store, or the survivors too when the
///   [`pass`](Self::pass) looks for derivations of the post-deletion
///   state.
///
/// The pre-state is compacted (no dead tuples), so `Old` and `Full` span
/// whole stores and read the engine's persistent indexes.
pub(crate) struct DeletionWindows<'a> {
    /// Per EDB relation, the seed of the variants pinned on it (empty when
    /// the pass has none). Seeds are scanned, never probed: deletion plans
    /// give their delta atom the [`JoinKernel::Scan`] kernel.
    pub(crate) edb_seeds: Vec<TupleStore>,
    /// Per IDB predicate, the seed of the variants pinned on it.
    pub(crate) idb_seeds: Vec<TupleStore>,
    /// Per EDB relation: the ids dying in this batch.
    pub(crate) edb_dead: &'a [DenseSet],
    /// Per IDB predicate: the ids deleted so far.
    pub(crate) idb_dead: &'a [DenseSet],
    /// What the evaluation looks for, which decides how `Full` reads.
    pub(crate) pass: DeletionPass,
}

/// What a deletion plan's rule evaluation looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeletionPass {
    /// Derivations the deleted seed takes away: `Full` is the pre-state.
    Lost,
    /// Derivations of the post-deletion state: `Full` reads survivors.
    Regained,
    /// Like `Regained`, but each seed tuple's join stops at its first
    /// derivation: the rederivation check only asks whether one exists.
    Check,
}

/// A set of tuple ids over one store, as a dense bitmap. The deletion
/// kernels test membership once per candidate of a survivor atom, so a
/// word-indexed bit test beats hashing; ids are bounded by the compacted
/// store length.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseSet(Vec<u64>);

impl DenseSet {
    /// An empty set over ids `0..n`.
    pub(crate) fn for_ids(n: usize) -> Self {
        DenseSet(vec![0; n.div_ceil(64)])
    }

    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.0
            .get(id as usize / 64)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    /// Adds `id`, growing the set as needed; returns whether it was absent.
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let fresh = !self.contains(id);
        let word = id as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (id % 64);
        fresh
    }

    /// Removes `id`; returns whether it was present.
    pub(crate) fn remove(&mut self, id: u32) -> bool {
        let was = self.contains(id);
        self.0[id as usize / 64] &= !(1 << (id % 64));
        was
    }

    /// All members in increasing id order.
    pub(crate) fn iter_sorted(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| (w * 64 + b) as u32)
        })
    }
}

impl StageEnv<'_> {
    /// Whether `rule` runs this stage under the plan's filter. A rule with
    /// an empty window derives nothing (and so, in counting mode, credits
    /// no support): [`Fire::AllSources`] skips it, [`Fire::Seed`] only when
    /// the empty window is its first atom's delta.
    pub(crate) fn fires(&self, rule: &CompiledRule, fire: Fire) -> bool {
        match fire {
            Fire::Seed => match rule.atoms.first() {
                Some(a) if a.access == IdbAccess::Delta => self.has_window(a),
                _ => true,
            },
            Fire::AllSources => rule.atoms.iter().all(|a| self.has_window(a)),
        }
    }

    /// Whether `atom`'s window is non-empty this stage. EDB atoms always
    /// qualify unless the EDB has delta windows.
    fn has_window(&self, atom: &JoinAtom) -> bool {
        let (lo, hi) = match (atom.pred, self.edb_delta_lo, self.deletion) {
            (pred, _, Some(d)) if atom.access == IdbAccess::Delta => {
                return !d.seed(pred).is_empty()
            }
            (Pred::Edb(_), None, _) => return true,
            (Pred::Edb(r), Some(lo), _) => (lo[r.0], self.edb[r.0].len() as u32),
            (Pred::Idb(i), _, _) => (self.delta_lo[i.0], self.prev_len[i.0]),
        };
        match atom.access {
            IdbAccess::Delta => lo < hi,
            IdbAccess::Old => lo > 0,
            IdbAccess::Full => hi > 0,
        }
    }
}

impl DeletionWindows<'_> {
    /// The seed of the variants pinned on `pred`.
    pub(crate) fn seed(&self, pred: Pred) -> &TupleStore {
        match pred {
            Pred::Edb(r) => &self.edb_seeds[r.0],
            Pred::Idb(i) => &self.idb_seeds[i.0],
        }
    }
}

/// One worker's view of a stage: the shared environment, the IDB stores,
/// and the worker's own delta windows.
pub(crate) struct JoinCtx<'a> {
    pub(crate) env: StageEnv<'a>,
    pub(crate) idb: &'a [&'a TupleStore],
    /// This worker's window of each IDB delta: the whole
    /// `[delta_lo, prev_len)` at `W = 1`, its owner sub-range otherwise;
    /// in a deletion pass, its share of each IDB seed. Every semi-naive
    /// variant pins exactly one delta atom, so narrowing the `Delta`
    /// window partitions its derivations across workers without touching
    /// `Old`/`Full` reads.
    pub(crate) idb_delta: &'a [IdRange],
    /// This worker's window of each EDB delta (the batch's insertions, or
    /// its share of each EDB seed in a deletion pass); read only when
    /// [`StageEnv::edb_delta_lo`] or [`StageEnv::deletion`] is set.
    pub(crate) edb_delta: &'a [IdRange],
}

impl<'a> JoinCtx<'a> {
    /// Resolves an atom to its backing store, available indexes, and id
    /// range.
    pub(crate) fn source(&self, atom: &JoinAtom) -> (&'a TupleStore, Indexes<'a>, IdRange) {
        let env = &self.env;
        if let (IdbAccess::Delta, Some(d)) = (atom.access, env.deletion) {
            let window = match atom.pred {
                Pred::Edb(r) => self.edb_delta[r.0],
                Pred::Idb(i) => self.idb_delta[i.0],
            };
            return (d.seed(atom.pred), Indexes::Kept(&[]), window);
        }
        match atom.pred {
            Pred::Edb(r) => {
                let store = env.edb[r.0];
                let range = match env.edb_delta_lo {
                    None => store.id_range(),
                    // Incremental maintenance: the EDB is append-only
                    // within a batch, so the batch's insertions are the id
                    // suffix above the delta mark — the same three-window
                    // scheme the IDB stores use.
                    Some(lo) => match atom.access {
                        IdbAccess::Full => store.id_range(),
                        IdbAccess::Old => IdRange {
                            start: 0,
                            end: lo[r.0],
                        },
                        IdbAccess::Delta => self.edb_delta[r.0],
                    },
                };
                let indexes = match env.edb_idx {
                    EdbIdx::Lazy(set) => Indexes::Lazy(&set.slots[r.0], store),
                    EdbIdx::Kept(kept) => Indexes::Kept(&kept[r.0]),
                };
                (store, indexes, range)
            }
            Pred::Idb(i) => {
                let store = self.idb[i.0];
                let range = match atom.access {
                    IdbAccess::Full => IdRange {
                        start: 0,
                        end: env.prev_len[i.0],
                    },
                    IdbAccess::Old => IdRange {
                        start: 0,
                        end: env.delta_lo[i.0],
                    },
                    IdbAccess::Delta => self.idb_delta[i.0],
                };
                (store, Indexes::Kept(&env.idb_idx[i.0]), range)
            }
        }
    }

    /// The deleted ids a candidate of `atom` must avoid: set only for
    /// atoms that read survivors while a deletion is planned.
    #[inline]
    pub(crate) fn dead(&self, atom: &JoinAtom) -> Option<&'a DenseSet> {
        let d = self.env.deletion?;
        let survivor = match atom.access {
            IdbAccess::Old => true,
            IdbAccess::Full => d.pass != DeletionPass::Lost,
            IdbAccess::Delta => false,
        };
        survivor.then(|| match atom.pred {
            Pred::Edb(r) => &d.edb_dead[r.0],
            Pred::Idb(i) => &d.idb_dead[i.0],
        })
    }

    /// Whether `tuple` is already committed in IDB `head`'s shared store,
    /// going through the Bloom pre-filter when one is maintained.
    fn committed(&self, head: usize, tuple: &[Element]) -> bool {
        if let Some(blooms) = self.env.blooms {
            if !blooms[head].maybe_contains(tuple_hash(tuple)) {
                return false;
            }
        }
        self.idb[head].lookup(tuple).is_some()
    }
}

/// Per-worker evaluation buffers: one scratch arena per IDB predicate plus
/// counters. Workers never exchange boxed tuples — scratch arenas are
/// merged into the shared stores at the stage barrier.
pub(crate) struct WorkerBuf {
    pub(crate) scratch: Vec<TupleStore>,
    /// Counting mode (incremental maintenance): per-scratch-tuple
    /// derivation counts, parallel to [`scratch`](Self::scratch). In this
    /// mode `emit` records *every* derivation — the committed-store
    /// shortcut is skipped, because a tuple already in the shared store
    /// must still receive this derivation's support.
    pub(crate) scratch_counts: Vec<Vec<u32>>,
    /// Whether counting mode is active.
    pub(crate) counting: bool,
    /// Batched-emission buffer: derived head tuples accumulate here (flat,
    /// arity-strided) and are interned in blocks of [`EMIT_BLOCK`],
    /// charging the governor once per block instead of never. Active for
    /// batched (cost-based) rules whose join never consults the
    /// scratch arena mid-branch (no head-check early exit, or executed by
    /// the generic join, which has none) — deferring those interns cannot
    /// change any kernel decision, so answers and counters stay identical.
    pub(crate) emit_buf: Vec<Element>,
    pub(crate) head_buf: Vec<Element>,
    /// Reusable survivor block for batched flushes: tuples that pass the
    /// committed-store pre-filter, interned via
    /// [`TupleStore::extend_block`] in one shot.
    pub(crate) block_buf: Vec<Element>,
    /// Reusable tuple buffer for [`JoinKernel::Check`] lookups.
    pub(crate) check_buf: Vec<Element>,
    pub(crate) probes: u64,
    pub(crate) magic_probes: u64,
    /// Probes answered from a batched kernel's memo instead of a fresh
    /// index operation (batched rules only).
    pub(crate) block_probes: u64,
    /// Comparison steps taken by galloping sorted-intersection searches.
    pub(crate) gallop_steps: u64,
    /// Rule evaluations executed by the generic-join lowering.
    pub(crate) wcoj_rules: u64,
    pub(crate) dups: u64,
    /// Reusable id buffer for merged-probe intersections.
    pub(crate) merge_buf: Vec<u32>,
    /// Steps accumulated locally since the last governor flush.
    pub(crate) pending_steps: u64,
    /// Set when this worker observed an interrupt; the stage is aborted.
    pub(crate) tripped: Option<Interrupted>,
    /// Deletion plans ([`DeletionWindows`]): per IDB predicate, the
    /// pre-state id of the head of every derivation found, in place of
    /// the scratch arenas.
    pub(crate) derived: Vec<Vec<u32>>,
    /// The ids rederivation checks found, as sets, for their head early
    /// exit.
    pub(crate) derived_set: Vec<DenseSet>,
}

/// Worker-local steps between governor flushes: keeps the hot join loops
/// at one local increment per unit of work, with no shared-atomic
/// contention.
const WORKER_FLUSH_STRIDE: u64 = 64;

/// Tuples per block in batched scan kernels: one governor charge per block
/// keeps long scans interruptible without per-tuple accounting.
pub(crate) const SCAN_BLOCK: usize = 64;

/// Entry cap for each per-atom probe/check memo. Beyond this, batched
/// kernels fall through to direct index operations — the memo trades a
/// bounded amount of memory for probe coalescing, never unbounded growth.
const MEMO_CAP: usize = 1 << 14;

/// Tuples per batched-emission block: derived heads buffer up to this many
/// tuples before one governor charge covers the whole block's interning.
pub(crate) const EMIT_BLOCK: usize = 64;

impl WorkerBuf {
    /// Empty buffers for the given IDB arities; `counting` selects
    /// counting mode (incremental maintenance's insertion pass), where
    /// every derivation is recorded with a per-tuple count.
    pub(crate) fn new(idb_arities: &[usize], counting: bool) -> Self {
        Self {
            scratch: idb_arities.iter().map(|&a| TupleStore::new(a)).collect(),
            scratch_counts: vec![Vec::new(); idb_arities.len()],
            counting,
            emit_buf: Vec::new(),
            head_buf: Vec::new(),
            block_buf: Vec::new(),
            check_buf: Vec::new(),
            probes: 0,
            magic_probes: 0,
            block_probes: 0,
            gallop_steps: 0,
            wcoj_rules: 0,
            dups: 0,
            merge_buf: Vec::new(),
            pending_steps: 0,
            tripped: None,
            derived: vec![Vec::new(); idb_arities.len()],
            derived_set: vec![DenseSet::default(); idb_arities.len()],
        }
    }
}

/// Evaluates one compiled rule against the stage context, interning
/// derived head tuples into the worker's scratch arenas. Returns `Err` if
/// the governor interrupted the worker mid-join.
pub(crate) fn evaluate_rule(
    rule: &CompiledRule,
    ctx: &JoinCtx<'_>,
    buf: &mut WorkerBuf,
) -> Result<(), Interrupted> {
    // Structure-dependent constant equality guards.
    for (a, b) in &rule.const_eqs {
        let resolve = |t: &Term| match t {
            Term::Var(_) => None,
            Term::Const(c) => Some(ctx.env.structure.constant(*c)),
        };
        if resolve(a) != resolve(b) {
            return Ok(());
        }
    }
    // Batched (cost-based) rules keep per-atom probe memos: consecutive
    // branches that bind the same key reuse the previous index answer.
    let memo_len = if rule.batched { rule.atoms.len() } else { 0 };
    // Counting mode must visit every derivation to keep support exact.
    let head_check_at = rule.head_check_at.filter(|_| !buf.counting);
    let mut join = RuleJoin {
        rule,
        ctx,
        buf,
        head_check_at,
        binding: vec![None; rule.var_count],
        probe_memo: vec![HashMap::new(); memo_len],
        check_memo: vec![HashMap::new(); memo_len],
        merge_memo: vec![None; memo_len],
        cut: false,
        trail: Vec::with_capacity(rule.var_count),
    };
    // Entry-slot ≠-checks: both sides already bound (constants).
    if !join.neqs_ok_at(0) {
        return Ok(());
    }
    if let Some(plan) = &rule.generic {
        join.buf.wcoj_rules += 1;
        wcoj::execute(&mut join, plan)?;
    } else {
        join.join(0)?;
    }
    // Drain the batched-emission buffer: the rule variant is done, so any
    // tail block (fewer than EMIT_BLOCK tuples) interns now.
    join.flush_emits()
}

/// The join recursion state for one rule: the binding under construction
/// plus borrowed context and output buffers.
pub(crate) struct RuleJoin<'a, 'b> {
    pub(crate) rule: &'a CompiledRule,
    pub(crate) ctx: &'a JoinCtx<'a>,
    pub(crate) buf: &'b mut WorkerBuf,
    /// The rule's [`CompiledRule::head_check_at`], or `None` in counting
    /// mode.
    head_check_at: Option<usize>,
    pub(crate) binding: Vec<Option<Element>>,
    /// Per-atom memo of probe key → resolved posting slice. Within one
    /// stage the indexed prefix is frozen, so a repeated key resolves to
    /// the identical slice; hits count as [`EvalStats::block_probes`].
    probe_memo: Vec<HashMap<Element, &'a [u32]>>,
    /// Per-atom memo of fully-bound check tuple → verdict.
    check_memo: Vec<HashMap<Vec<Element>, bool>>,
    /// Per-atom memo of the last merged-probe key pair and its intersected
    /// id list.
    merge_memo: Vec<Option<(Element, Element, Vec<u32>)>>,
    /// Set by an emit of a [`DeletionPass::Check`]: candidates are
    /// skipped until the seed atom moves to its next tuple.
    cut: bool,
    /// Variables bound by the atoms on the current branch, innermost
    /// last: each candidate pops what it bound, with no allocation.
    trail: Vec<VarId>,
}

impl<'a, 'b> RuleJoin<'a, 'b> {
    pub(crate) fn term_value(&self, t: &Term) -> Option<Element> {
        match t {
            Term::Var(v) => self.binding[v.0],
            Term::Const(c) => Some(self.ctx.env.structure.constant(*c)),
        }
    }

    /// Charges one unit of join work, flushing the worker-local count to
    /// the shared governor every [`WORKER_FLUSH_STRIDE`] units.
    #[inline]
    pub(crate) fn charge(&mut self) -> Result<(), Interrupted> {
        self.buf.pending_steps += 1;
        if self.buf.pending_steps >= WORKER_FLUSH_STRIDE {
            let n = self.buf.pending_steps;
            self.buf.pending_steps = 0;
            self.ctx.env.gov.step(n)?;
        }
        Ok(())
    }

    /// Checks the ≠-constraints hoisted to `slot` (see
    /// [`CompiledRule::neq_at`]); a failing constraint kills the branch.
    /// Both sides are bound at their scheduled slot by construction.
    pub(crate) fn neqs_ok_at(&self, slot: usize) -> bool {
        for &ni in &self.rule.neq_at[slot] {
            let (a, b) = &self.rule.neqs[ni];
            if let (Some(x), Some(y)) = (self.term_value(a), self.term_value(b)) {
                if x == y {
                    return false;
                }
            }
        }
        true
    }

    /// Counts one kernel invocation against the right probe counter and
    /// charges the governor.
    #[inline]
    pub(crate) fn count_probe(&mut self, is_magic: bool) -> Result<(), Interrupted> {
        if is_magic {
            self.buf.magic_probes += 1;
        } else {
            self.buf.probes += 1;
        }
        self.charge()
    }

    /// Counts one memo-answered probe: the kernel reused the index answer
    /// from an identical key on an earlier branch of the same batch.
    #[inline]
    fn count_block(&mut self) -> Result<(), Interrupted> {
        self.buf.block_probes += 1;
        self.charge()
    }

    /// Whether the (fully bound) head tuple of the current branch has
    /// already been derived — committed in the shared store or interned in
    /// this worker's scratch arena. Only meaningful at
    /// [`CompiledRule::head_check_at`], where the planner guarantees every
    /// head argument is bound.
    fn head_already_derived(&mut self) -> bool {
        let rule = self.rule;
        let ctx = self.ctx;
        self.buf.head_buf.clear();
        for t in &rule.head_args {
            match self.term_value(t) {
                Some(v) => self.buf.head_buf.push(v),
                None => return false,
            }
        }
        let head = rule.head.0;
        if ctx.env.deletion.is_some() {
            let derived = &self.buf.derived_set[head];
            return ctx.idb[head]
                .lookup(&self.buf.head_buf)
                .is_some_and(|id| derived.contains(id.0));
        }
        self.buf.scratch[head].contains(&self.buf.head_buf)
            || ctx.committed(head, &self.buf.head_buf)
    }

    /// Recursion over atoms, then free-variable enumeration, then emit.
    fn join(&mut self, atom_pos: usize) -> Result<(), Interrupted> {
        let rule = self.rule;
        // Cost-based early exit: all head arguments are bound from here
        // on, so a branch whose head tuple is already derived can stop —
        // the remaining atoms would only re-verify a derivation that adds
        // nothing to the stage.
        if self.head_check_at == Some(atom_pos) && self.head_already_derived() {
            return Ok(());
        }
        if atom_pos == rule.atoms.len() {
            return self.enumerate_free(0);
        }
        let ctx = self.ctx;
        let atom = &rule.atoms[atom_pos];
        let (store, indexes, range) = ctx.source(atom);
        // Survivor atoms of a deletion plan skip deleted candidates.
        let dead = ctx.dead(atom);
        let live = |id: u32| !dead.is_some_and(|d| d.contains(id));
        // Arguments chosen by a probing kernel are constants or variables
        // bound by earlier atoms — always resolvable here.
        #[allow(clippy::expect_used)]
        let arg_value =
            |join: &Self, pos: usize| join.term_value(&atom.args[pos]).expect("statically bound");
        match atom.kernel {
            JoinKernel::Scan => {
                self.count_probe(atom.is_magic)?;
                let arity = atom.args.len();
                if arity == 0 {
                    for id in range.iter() {
                        if live(id.0) {
                            self.try_tuple(atom_pos, &[])?;
                        }
                    }
                } else {
                    // Batched columnar walk: the arity-strided arena hands
                    // out one contiguous slice per block, charging the
                    // governor once per block instead of never mid-scan.
                    let cols = store.range_slice(range);
                    let mut first = true;
                    let mut id = range.start;
                    for block in cols.chunks(SCAN_BLOCK * arity) {
                        if !first {
                            self.charge()?;
                        }
                        first = false;
                        for tuple in block.chunks_exact(arity) {
                            if live(id) {
                                self.try_tuple(atom_pos, tuple)?;
                            }
                            id += 1;
                        }
                    }
                }
            }
            JoinKernel::Probe { pos } => {
                let e = arg_value(self, pos);
                let list: &'a [u32] = if rule.batched {
                    if let Some(&hit) = self.probe_memo[atom_pos].get(&e) {
                        self.count_block()?;
                        hit
                    } else {
                        self.count_probe(atom.is_magic)?;
                        let l = indexes.at(pos).probe(e, range);
                        if self.probe_memo[atom_pos].len() < MEMO_CAP {
                            self.probe_memo[atom_pos].insert(e, l);
                        }
                        l
                    }
                } else {
                    self.count_probe(atom.is_magic)?;
                    indexes.at(pos).probe(e, range)
                };
                for &id in list {
                    if live(id) {
                        self.try_tuple(atom_pos, store.get(TupleId(id)))?;
                    }
                }
            }
            JoinKernel::MergedProbe { pos_a, pos_b } => {
                let (ea, eb) = (arg_value(self, pos_a), arg_value(self, pos_b));
                let hit = rule.batched
                    && matches!(&self.merge_memo[atom_pos],
                                Some((ka, kb, _)) if *ka == ea && *kb == eb);
                let ids: Vec<u32> = if hit {
                    self.count_block()?;
                    // Take the memoized list out so iterating it does not
                    // hold a borrow across `try_tuple`; restored below.
                    #[allow(clippy::expect_used)]
                    let (_, _, ids) = self.merge_memo[atom_pos].take().expect("memo hit");
                    ids
                } else {
                    self.count_probe(atom.is_magic)?;
                    let la = indexes.at(pos_a).probe(ea, range);
                    let lb = indexes.at(pos_b).probe(eb, range);
                    // Both posting lists are id-sorted: a galloping k-way
                    // intersection visits only ids matching both positions,
                    // skipping runs geometrically instead of one at a time.
                    let mut out = std::mem::take(&mut self.buf.merge_buf);
                    let mut steps = 0u64;
                    gallop_intersect(&[la, lb], &mut out, &mut steps);
                    self.buf.gallop_steps += steps;
                    out
                };
                let walk = |join: &mut Self| -> Result<(), Interrupted> {
                    for &id in &ids {
                        if live(id) {
                            join.try_tuple(atom_pos, store.get(TupleId(id)))?;
                        }
                    }
                    Ok(())
                };
                let r = walk(self);
                if rule.batched {
                    self.merge_memo[atom_pos] = Some((ea, eb, ids));
                } else {
                    self.buf.merge_buf = ids;
                }
                r?;
            }
            JoinKernel::Check => {
                // Every argument is bound: one interner lookup decides the
                // atom, with the range test restricting to the accessible
                // prefix (old/delta/full).
                self.buf.check_buf.clear();
                for pos in 0..atom.args.len() {
                    let e = arg_value(self, pos);
                    self.buf.check_buf.push(e);
                }
                let hit = if rule.batched {
                    if let Some(&v) = self.check_memo[atom_pos].get(self.buf.check_buf.as_slice()) {
                        self.count_block()?;
                        v
                    } else {
                        self.count_probe(atom.is_magic)?;
                        let v = matches!(
                            store.lookup(&self.buf.check_buf),
                            Some(id) if range.contains(id) && live(id.0)
                        );
                        if self.check_memo[atom_pos].len() < MEMO_CAP {
                            self.check_memo[atom_pos].insert(self.buf.check_buf.clone(), v);
                        }
                        v
                    }
                } else {
                    self.count_probe(atom.is_magic)?;
                    matches!(
                        store.lookup(&self.buf.check_buf),
                        Some(id) if range.contains(id) && live(id.0)
                    )
                };
                if hit {
                    // No new bindings: recurse directly.
                    self.join(atom_pos + 1)?;
                }
            }
        }
        Ok(())
    }

    /// Per-candidate matching: extend the binding, apply the ≠-checks
    /// scheduled after this atom, recurse, restore.
    fn try_tuple(&mut self, atom_pos: usize, tuple: &[Element]) -> Result<(), Interrupted> {
        if self.cut {
            return Ok(());
        }
        let atom = &self.rule.atoms[atom_pos];
        let mark = self.trail.len();
        for (pos, t) in atom.args.iter().enumerate() {
            let ok = match t {
                Term::Const(c) => self.ctx.env.structure.constant(*c) == tuple[pos],
                Term::Var(v) => match self.binding[v.0] {
                    Some(e) => e == tuple[pos],
                    None => {
                        self.binding[v.0] = Some(tuple[pos]);
                        self.trail.push(*v);
                        true
                    }
                },
            };
            if !ok {
                self.unbind(mark);
                return Ok(());
            }
        }
        let r = if self.neqs_ok_at(atom_pos + 1) {
            self.join(atom_pos + 1)
        } else {
            Ok(())
        };
        self.unbind(mark);
        if atom_pos == 0 {
            // The seed atom moves on: a cut ends with its tuple.
            self.cut = false;
        }
        r
    }

    /// Unbinds the variables bound since the trail was `mark` long.
    #[inline]
    fn unbind(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.binding[v.0] = None;
        }
    }

    /// Enumerates universe values for variables bound by no atom, then
    /// emits the head tuple.
    pub(crate) fn enumerate_free(&mut self, free_pos: usize) -> Result<(), Interrupted> {
        let rule = self.rule;
        if free_pos == rule.free_vars.len() {
            return self.emit();
        }
        let v = rule.free_vars[free_pos];
        let slot = rule.atoms.len() + 1 + free_pos;
        for e in 0..self.ctx.env.structure.universe_size() as Element {
            if self.cut {
                break;
            }
            self.charge()?;
            self.binding[v.0] = Some(e);
            if self.neqs_ok_at(slot) {
                self.enumerate_free(free_pos + 1)?;
            }
        }
        self.binding[v.0] = None;
        Ok(())
    }

    /// Whether batched emission is active for this rule: batched
    /// (cost-based) rules only, and only when the join never consults the
    /// scratch arena mid-branch (the head-check early exit does; the
    /// generic executor never runs it), so deferring interns changes no
    /// kernel decision.
    #[inline]
    fn emits_batched(&self) -> bool {
        self.rule.batched && (self.head_check_at.is_none() || self.rule.generic.is_some())
    }

    /// Emits the (fully bound) head tuple. Set mode: skip if already
    /// committed in the shared store, otherwise intern into the worker's
    /// scratch arena. Counting mode: record the derivation
    /// unconditionally, bumping the tuple's scratch count. Batched rules
    /// buffer tuples and intern one [`EMIT_BLOCK`] at a time.
    fn emit(&mut self) -> Result<(), Interrupted> {
        let rule = self.rule;
        let ctx = self.ctx;
        self.cut = ctx
            .env
            .deletion
            .is_some_and(|d| d.pass == DeletionPass::Check);
        self.buf.head_buf.clear();
        for t in &rule.head_args {
            // Head variables are bound: emit runs after the last atom, and
            // unbound head variables are enumerated by the odometer.
            #[allow(clippy::expect_used)]
            let v = match t {
                Term::Var(v) => self.binding[v.0].expect("head variables fully bound"),
                Term::Const(c) => ctx.env.structure.constant(*c),
            };
            self.buf.head_buf.push(v);
        }
        let head = rule.head.0;
        if ctx.env.deletion.is_some() {
            // Deletion only shrinks the fixpoint: every head it derives is
            // a pre-state tuple, recorded by id.
            if let Some(id) = ctx.idb[head].lookup(&self.buf.head_buf) {
                self.buf.derived[head].push(id.0);
                if self.cut {
                    // A rederivation check: later checks skip this head.
                    self.buf.derived_set[head].insert(id.0);
                }
            }
            return Ok(());
        }
        let arity = self.buf.head_buf.len();
        if arity > 0 && self.emits_batched() {
            self.buf.emit_buf.extend_from_slice(&self.buf.head_buf);
            if self.buf.emit_buf.len() >= EMIT_BLOCK * arity {
                return self.flush_emits();
            }
            return Ok(());
        }
        self.intern_head(head);
        Ok(())
    }

    /// Interns the tuple currently in `head_buf` into the scratch arena
    /// for predicate `head`, with set- or counting-mode bookkeeping.
    fn intern_head(&mut self, head: usize) {
        if self.buf.counting {
            let (id, fresh) = self.buf.scratch[head].intern(&self.buf.head_buf);
            let counts = &mut self.buf.scratch_counts[head];
            if fresh {
                counts.push(1);
            } else {
                counts[id.0 as usize] += 1;
            }
            return;
        }
        let fresh = !self.ctx.committed(head, &self.buf.head_buf)
            && self.buf.scratch[head].intern(&self.buf.head_buf).1;
        if !fresh {
            self.buf.dups += 1;
        }
    }

    /// Interns everything in the batched-emission buffer, charging the
    /// governor once for the block. Identical per-tuple bookkeeping to the
    /// immediate path — set mode pre-filters committed tuples one by one,
    /// then interns the survivors as a single
    /// [`TupleStore::extend_block`], so the scratch arena pays one
    /// capacity check per block instead of one per tuple.
    pub(crate) fn flush_emits(&mut self) -> Result<(), Interrupted> {
        if self.buf.emit_buf.is_empty() {
            return Ok(());
        }
        self.charge()?;
        let head = self.rule.head.0;
        // Nullary heads never buffer (see `emit`), so the arity is positive.
        let arity = self.rule.head_args.len();
        let pending = std::mem::take(&mut self.buf.emit_buf);
        if self.buf.counting {
            for tuple in pending.chunks_exact(arity) {
                let (id, fresh) = self.buf.scratch[head].intern(tuple);
                let counts = &mut self.buf.scratch_counts[head];
                if fresh {
                    counts.push(1);
                } else {
                    counts[id.0 as usize] += 1;
                }
            }
        } else {
            let mut block = std::mem::take(&mut self.buf.block_buf);
            block.clear();
            for tuple in pending.chunks_exact(arity) {
                if self.ctx.committed(head, tuple) {
                    self.buf.dups += 1;
                } else {
                    block.extend_from_slice(tuple);
                }
            }
            let survivors = block.len() / arity;
            let fresh = self.buf.scratch[head].extend_block(&block);
            self.buf.dups += (survivors - fresh) as u64;
            self.buf.block_buf = block;
        }
        self.buf.emit_buf = pending;
        self.buf.emit_buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use kv_structures::generators::{directed_cycle, directed_path, random_digraph};
    use kv_structures::Vocabulary;
    use kv_structures::{Budget, LimitExceeded};
    use std::sync::Arc;

    fn graph_vocab() -> Arc<Vocabulary> {
        Arc::new(Vocabulary::graph())
    }

    fn tc() -> Program {
        parse_program(
            "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y). ?- S.",
            graph_vocab(),
        )
        .unwrap()
    }

    #[test]
    fn tc_on_path() {
        let p = tc();
        let s = directed_path(4);
        let result = Evaluator::new(&p).goal(&s);
        // All pairs i < j.
        assert_eq!(result.len(), 6);
        assert!(result.contains(&[0u32, 3][..]));
        assert!(!result.contains(&[3u32, 0][..]));
    }

    #[test]
    fn tc_on_cycle_is_complete() {
        let p = tc();
        let s = directed_cycle(5);
        let result = Evaluator::new(&p).goal(&s);
        assert_eq!(result.len(), 25);
    }

    #[test]
    fn naive_and_semi_naive_agree_with_identical_stages() {
        let p = tc();
        for seed in 0..5 {
            let g = random_digraph(12, 0.15, seed);
            let s = g.to_structure();
            let naive = Evaluator::new(&p).run(
                &s,
                EvalOptions {
                    semi_naive: false,
                    ..EvalOptions::default()
                },
            );
            let semi = Evaluator::new(&p).run(&s, EvalOptions::default());
            assert_eq!(naive.idb, semi.idb, "fixpoints differ on seed {seed}");
            assert_eq!(naive.stats, semi.stats, "stage stats differ on seed {seed}");
            assert!(naive.same_stages(&semi), "stages differ on seed {seed}");
        }
    }

    #[test]
    fn stage_counts_match_paper_iteration() {
        // On a directed path with n nodes, stage k of TC adds the pairs at
        // distance exactly k: Θ¹ = E, Θ² adds distance-2 pairs, etc.
        let p = tc();
        let s = directed_path(6);
        let r = Evaluator::new(&p).run(&s, EvalOptions::default());
        assert_eq!(r.stage_count(), 5); // distances 1..=5
        assert_eq!(
            r.stats.iter().map(|s| s.new_tuples[0]).collect::<Vec<_>>(),
            vec![5, 4, 3, 2, 1]
        );
        assert!(r.converged);
        // Stage views are cumulative prefixes of the final store.
        assert_eq!(r.stage_len(1, 0), 5);
        assert_eq!(r.stage_len(5, 0), 15);
        assert!(r.stage_view(1, 0).iter().all(|t| t[1] == t[0] + 1));
    }

    #[test]
    fn avoiding_path_program_matches_bfs() {
        let src = "
            T(x, y, w) :- E(x, y), w != x, w != y.
            T(x, y, w) :- E(x, z), T(z, y, w), w != x.
            ?- T.
        ";
        let p = parse_program(src, graph_vocab()).unwrap();
        for seed in 0..5 {
            let g = random_digraph(8, 0.25, 50 + seed);
            let s = g.to_structure();
            let t = Evaluator::new(&p).goal(&s);
            for x in 0..8u32 {
                for y in 0..8u32 {
                    for w in 0..8u32 {
                        let expected = kv_graphalg::avoiding_path(&g, x, y, &[w]);
                        let got = t.contains(&[x, y, w][..]);
                        assert_eq!(
                            got,
                            expected,
                            "T({x},{y},{w}) mismatch on seed {}",
                            50 + seed
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unbound_head_variable_ranges_over_universe() {
        // P(x, w) :- E(x, x).   [w unconstrained]
        let p = parse_program("P(x, w) :- E(x, x). ?- P.", graph_vocab()).unwrap();
        let mut s = Structure::new(graph_vocab(), 4);
        s.insert(kv_structures::RelId(0), &[2, 2]);
        let result = Evaluator::new(&p).goal(&s);
        assert_eq!(result.len(), 4);
        for w in 0..4u32 {
            assert!(result.contains(&[2, w][..]));
        }
    }

    #[test]
    fn unbound_variable_with_inequality_excludes() {
        // The first rule of Example 2.1 on a single edge 0 -> 1 in a
        // 3-element universe: T(0, 1, w) for w not in {0, 1}.
        let p = parse_program(
            "T(x, y, w) :- E(x, y), w != x, w != y. ?- T.",
            graph_vocab(),
        )
        .unwrap();
        let mut s = Structure::new(graph_vocab(), 3);
        s.insert(kv_structures::RelId(0), &[0, 1]);
        let result = Evaluator::new(&p).goal(&s);
        assert_eq!(result.len(), 1);
        assert!(result.contains(&[0u32, 1, 2][..]));
    }

    #[test]
    fn equality_literal_unifies() {
        let p = parse_program("P(x, y) :- E(x, z), z = y. ?- P.", graph_vocab()).unwrap();
        let s = directed_path(3);
        let result = Evaluator::new(&p).goal(&s);
        assert_eq!(result.len(), 2);
        assert!(result.contains(&[0u32, 1][..]));
        assert!(result.contains(&[1u32, 2][..]));
    }

    #[test]
    fn constants_in_rules_resolve_per_structure() {
        let vocab = Arc::new(Vocabulary::graph_with_constants(1));
        let p = parse_program("R(x) :- E(s1, x). ?- R.", Arc::clone(&vocab)).unwrap();
        let mut s = Structure::new(Arc::clone(&vocab), 3);
        s.insert(kv_structures::RelId(0), &[0, 1]);
        s.insert(kv_structures::RelId(0), &[1, 2]);
        s.set_constant(kv_structures::ConstId(0), 1);
        let result = Evaluator::new(&p).goal(&s);
        assert_eq!(result.len(), 1);
        assert!(result.contains(&[2u32][..]));
    }

    #[test]
    fn fact_rule_with_constants() {
        let vocab = Arc::new(Vocabulary::graph_with_constants(2));
        let p = parse_program("D(s1, s2). ?- D.", Arc::clone(&vocab)).unwrap();
        let mut s = Structure::new(Arc::clone(&vocab), 5);
        s.set_constant(kv_structures::ConstId(0), 3);
        s.set_constant(kv_structures::ConstId(1), 4);
        let result = Evaluator::new(&p).goal(&s);
        assert_eq!(result.len(), 1);
        assert!(result.contains(&[3u32, 4][..]));
    }

    #[test]
    fn multiple_idbs_mutual_recursion() {
        // Even/odd path lengths from node 0 via mutual recursion.
        let src = "
            Odd(x, y) :- E(x, y).
            Odd(x, y) :- Even(x, z), E(z, y).
            Even(x, y) :- Odd(x, z), E(z, y).
            ?- Even.
        ";
        let p = parse_program(src, graph_vocab()).unwrap();
        let s = directed_path(5);
        let even = Evaluator::new(&p).goal(&s);
        // Even-length (>= 2) paths on a 5-node path: dist 2 and 4.
        let pairs: HashSet<(u32, u32)> = even.iter().map(|t| (t[0], t[1])).collect();
        assert_eq!(pairs, HashSet::from([(0, 2), (1, 3), (2, 4), (0, 4)]));
    }

    #[test]
    fn max_stages_truncates() {
        let p = tc();
        let s = directed_path(10);
        let r = Evaluator::new(&p).run(
            &s,
            EvalOptions {
                max_stages: Some(2),
                ..EvalOptions::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.stage_count(), 2);
        // Stages 1..=2 derive distances 1..=2: 9 + 8 tuples.
        assert_eq!(r.idb[0].len(), 17);
    }

    #[test]
    fn empty_program_converges_immediately() {
        let p = parse_program("P(x) :- Qnever(x). ?- P.", graph_vocab()).unwrap();
        let s = directed_path(3);
        let r = Evaluator::new(&p).run(&s, EvalOptions::default());
        assert!(r.converged);
        assert!(r.idb.iter().all(|rel| rel.is_empty()));
    }

    #[test]
    fn tuple_limit_is_a_graceful_error() {
        let p = tc();
        let s = directed_cycle(8); // fixpoint has 64 tuples
        let ev = Evaluator::new(&p);
        let limited = Governor::with_budget(Budget {
            max_tuples: Some(10),
            ..Budget::UNLIMITED
        });
        match ev.try_run_governed(&s, EvalOptions::default(), &limited) {
            Err(EvalInterrupted {
                reason: Interrupted::Limit(LimitExceeded::Tuples { limit: 10, reached }),
                ..
            }) => assert!(reached > 10),
            other => panic!("expected tuple limit error, got {other:?}"),
        }
        // A generous budget succeeds.
        let generous = Governor::with_budget(Budget {
            max_tuples: Some(1000),
            max_stages: Some(100),
            ..Budget::UNLIMITED
        });
        let r = ev
            .try_run_governed(&s, EvalOptions::default(), &generous)
            .unwrap();
        assert!(r.converged);
        assert_eq!(r.idb[0].len(), 64);
    }

    #[test]
    fn stage_limit_is_a_graceful_error() {
        let p = tc();
        let s = directed_path(10);
        let gov = Governor::with_budget(Budget {
            max_stages: Some(3),
            ..Budget::UNLIMITED
        });
        match Evaluator::new(&p).try_run_governed(&s, EvalOptions::default(), &gov) {
            Err(EvalInterrupted {
                reason: Interrupted::Limit(LimitExceeded::Stages { limit: 3 }),
                ..
            }) => {}
            other => panic!("expected stage limit error, got {other:?}"),
        }
    }

    #[test]
    fn eval_stats_are_reported() {
        let p = tc();
        let s = directed_path(6);
        let r = Evaluator::new(&p).run(&s, EvalOptions::default());
        assert_eq!(r.eval_stats.tuples_interned, 15);
        assert_eq!(r.eval_stats.stages, 5);
        assert!(r.eval_stats.join_probes > 0);
        // Naive evaluation rederives earlier stages: duplicates pile up.
        let naive = Evaluator::new(&p).run(
            &s,
            EvalOptions {
                semi_naive: false,
                ..EvalOptions::default()
            },
        );
        assert_eq!(naive.eval_stats.tuples_interned, 15);
        assert!(naive.eval_stats.duplicate_derivations > r.eval_stats.duplicate_derivations);
    }

    #[test]
    fn governed_unlimited_matches_plain_run() {
        let p = tc();
        let s = directed_path(8);
        let ev = Evaluator::new(&p);
        let plain = ev.run(&s, EvalOptions::default());
        let gov = Governor::unlimited();
        let governed = ev
            .try_run_governed(&s, EvalOptions::default(), &gov)
            .unwrap();
        assert_eq!(plain.idb, governed.idb);
        assert_eq!(plain.stats, governed.stats);
        assert_eq!(plain.eval_stats, governed.eval_stats);
        assert!(plain.same_stages(&governed));
    }

    #[test]
    fn interrupted_run_resumes_to_identical_fixpoint() {
        let p = tc();
        let s = directed_path(10);
        let ev = Evaluator::new(&p);
        let opts = EvalOptions::default();
        let baseline = ev.run(&s, opts);
        // Trip the step budget at many different points; resuming the
        // checkpoint with a relaxed governor must reach the identical
        // fixpoint, stage by stage, with identical counters.
        for max_steps in [1, 5, 17, 60, 200, 1000] {
            let gov = kv_structures::govern::chaos::step_tripper(max_steps);
            let result = match ev.try_run_governed(&s, opts, &gov) {
                Ok(r) => r,
                Err(e) => {
                    let stats_at_interrupt = e.checkpoint.eval_stats();
                    let r = ev
                        .resume(&s, opts, &Governor::unlimited(), e.checkpoint)
                        .unwrap();
                    // Counters only grow across the interrupt boundary.
                    assert!(r.eval_stats.tuples_interned >= stats_at_interrupt.tuples_interned);
                    assert!(r.eval_stats.join_probes >= stats_at_interrupt.join_probes);
                    assert!(r.eval_stats.stages >= stats_at_interrupt.stages);
                    r
                }
            };
            assert_eq!(baseline.idb, result.idb, "steps={max_steps}");
            assert_eq!(baseline.stats, result.stats, "steps={max_steps}");
            assert!(baseline.same_stages(&result), "steps={max_steps}");
            assert_eq!(baseline.eval_stats, result.eval_stats, "steps={max_steps}");
        }
    }

    /// A checkpoint that round-trips through its durable byte encoding
    /// must resume to the identical fixpoint — stage by stage, counter
    /// by counter — as resuming the original in-memory checkpoint.
    #[test]
    fn serialized_checkpoint_resumes_identically() {
        let p = tc();
        let s = directed_path(10);
        let ev = Evaluator::new(&p);
        let opts = EvalOptions::default();
        let baseline = ev.run(&s, opts);
        for max_steps in [5, 60, 400] {
            let gov = kv_structures::govern::chaos::step_tripper(max_steps);
            let Err(e) = ev.try_run_governed(&s, opts, &gov) else {
                continue;
            };
            let bytes = e.checkpoint.to_bytes();
            let restored = EvalCheckpoint::from_bytes(&bytes).expect("round-trip");
            let result = ev
                .resume(&s, opts, &Governor::unlimited(), restored)
                .expect("resume restored checkpoint");
            assert_eq!(baseline.idb, result.idb, "steps={max_steps}");
            assert!(baseline.same_stages(&result), "steps={max_steps}");
            assert_eq!(baseline.eval_stats, result.eval_stats, "steps={max_steps}");
        }
    }

    /// Corrupted checkpoint bytes decode to typed errors, never panics:
    /// flip every byte, truncate at every length, append garbage.
    #[test]
    fn corrupted_checkpoint_bytes_never_panic() {
        let p = tc();
        let s = directed_path(8);
        let ev = Evaluator::new(&p);
        let opts = EvalOptions::default();
        let gov = kv_structures::govern::chaos::step_tripper(40);
        let e = ev.try_run_governed(&s, opts, &gov).unwrap_err();
        let bytes = e.checkpoint.to_bytes();
        assert!(EvalCheckpoint::from_bytes(&bytes).is_ok());
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                // Either a typed error or a checkpoint that decodes (a
                // benign flip, e.g. inside a counter) — never a panic.
                let _ = EvalCheckpoint::from_bytes(&bad);
            }
        }
        for len in 0..bytes.len() {
            assert!(
                EvalCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation at {len} must not decode"
            );
        }
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0xAB; 7]);
        assert!(
            EvalCheckpoint::from_bytes(&padded).is_err(),
            "trailing garbage must not decode"
        );
    }

    #[test]
    fn cancellation_interrupts_and_reports_partial_progress() {
        let p = tc();
        let s = directed_path(10);
        let ev = Evaluator::new(&p);
        let gov = Governor::unlimited();
        gov.cancel_token().cancel();
        let err = ev
            .try_run_governed(&s, EvalOptions::default(), &gov)
            .unwrap_err();
        assert_eq!(err.reason, Interrupted::Cancelled);
        assert_eq!(err.checkpoint.stage_count(), 0);
        let partial = err.checkpoint.partial_result();
        assert!(!partial.converged);
    }
}
