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
//! (zero-copy). Every store, EDB or IDB, is probed through one index
//! layout: a slot per tuple position whose [`PosIndex`] is built the first
//! time a kernel probes that position and *extended* after each stage.
//! Range-restricted probes are `partition_point` sub-slices of its sorted
//! posting lists. The EDB slots form an [`EdbIndexes`] set, built once per
//! run, or once per structure when the set is kept beside an immutable
//! structure and shared across runs ([`CompiledProgram::try_run_indexed`]).
//! Each atom's probe position is chosen **statically** at rule-compile
//! time.
//!
//! Programs are compiled **once** — [`Evaluator::new`] (or
//! [`CompiledProgram::compile`]) performs equality elimination and delta
//! rewriting; `run` only joins. One stage loop runs the stages, for
//! from-scratch runs and incremental maintenance's insertion pass alike.
//! Each stage runs through the one stage executor, [`crate::sharded`]:
//! workers read the shared stores, which are immutable during a stage, and
//! intern candidate heads into private scratch arenas that are merged into
//! the shared stores at the stage barrier. [`EvalOptions::shards`] sets the
//! worker count `W`; the default is one worker, whose one share of each
//! delta is the whole window, and set-union merging makes every `W`
//! produce the same stages.
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
    gallop_intersect, tuple_hash, CardStats, ElementMap, EvalStats, IdRange, PosIndex, StoreView,
    TupleBloom, TupleId, TupleStore,
};
use kv_structures::{Element, JoinLowering, PlannerMode, RelId, Relation, Structure, Vocabulary};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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
    /// [`PlannerMode::CostBased`] plans each body against the
    /// structure's [`kv_structures::CardStats`] and universe size, selects
    /// specialized join kernels and turns those batching aids on; a run
    /// whose statistics, universe size and lowering equal the previous
    /// cost-based run's reuses that run's plan (see [`CompiledProgram`]).
    /// Both derive the same tuple set at every stage (differential-tested).
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
    /// delta windows are cut into `W` contiguous id shares, one per
    /// worker, and the workers' derivations are merged in worker order at
    /// the stage barrier (see [`crate::sharded`]). The default is 1; 0
    /// runs one worker too. Stage *sets* are identical for every worker
    /// count (differential-tested for W ∈ {1, 2, 3, 4, 8}); counters such
    /// as `join_probes` may differ at `W > 1` because every worker with a
    /// share of a rule's delta runs that rule over its share.
    pub shards: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            semi_naive: true,
            max_stages: None,
            planner: PlannerMode::Textual,
            lowering: JoinLowering::default(),
            shards: 1,
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

    /// The same options with `shards` workers per stage, each reading one
    /// contiguous share of every delta. See [`EvalOptions::shards`].
    pub fn with_shards(mut self, shards: usize) -> Self {
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
    /// The worker count and each worker's probes.
    pub shard: crate::sharded::ShardStats,
}

impl EvalResult {
    /// The result holding `idb` and the stages `p` committed into it.
    fn new(
        idb: Vec<TupleStore>,
        p: Progress,
        converged: bool,
        shard: crate::sharded::ShardStats,
    ) -> Self {
        EvalResult {
            idb: idb.into_iter().map(Relation::from_store).collect(),
            stats: p
                .stage_new
                .into_iter()
                .map(|new_tuples| StageStats { new_tuples })
                .collect(),
            eval_stats: p.stats,
            stage_marks: p.stage_marks,
            converged,
            shard,
        }
    }

    /// Number of stages until the fixpoint (the `n₀` of Section 2).
    pub fn stage_count(&self) -> usize {
        self.stats.len()
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

/// The committed progress of a stage loop ([`StageLoop`]): what a
/// from-scratch run's [`EvalCheckpoint`] and a maintenance batch's
/// insertion pass carry from one stage boundary to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct Progress {
    /// Stages run, the converging one included (0: stage one is due).
    pub(crate) stage: usize,
    /// Per IDB predicate, its store length before the last committed
    /// stage: the `old`/`delta` boundary of the next.
    pub(crate) delta_lo: Vec<u32>,
    /// Per committed stage that derived something, its fresh tuples per
    /// IDB predicate.
    pub(crate) stage_new: Vec<Vec<usize>>,
    /// Per such stage, the IDB store lengths after it committed.
    pub(crate) stage_marks: Vec<Vec<u32>>,
    /// Counters of the committed stages, on top of those the loop started
    /// from (a maintenance batch's deletion phase).
    pub(crate) stats: EvalStats,
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
    progress: Progress,
    /// Each worker's probes over the committed stages.
    shard: sharded::ShardStats,
}

impl EvalCheckpoint {
    /// Number of stages committed before the interrupt.
    pub fn stage_count(&self) -> usize {
        self.progress.stage
    }

    /// Total tuples interned across all IDB stores so far.
    pub fn tuples(&self) -> u64 {
        self.idb_stores.iter().map(|s| s.len() as u64).sum()
    }

    /// Evaluation counters for the committed prefix (monotone across
    /// successive checkpoints of one logical run).
    pub fn eval_stats(&self) -> EvalStats {
        self.progress.stats
    }

    /// The committed prefix as a (non-converged) [`EvalResult`] — partial
    /// progress for callers that inspect rather than resume. Clones the
    /// stores; the checkpoint stays resumable. Its [`EvalResult::shard`]
    /// holds the worker tallies of the committed stages.
    pub fn partial_result(&self) -> EvalResult {
        let (stores, progress) = (self.idb_stores.clone(), self.progress.clone());
        EvalResult::new(stores, progress, false, self.shard.clone())
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
        /// Whether every argument is bound on entry (written plans only;
        /// the cost-based planner assigns [`JoinKernel::Check`] there).
        /// The probe is still made and counted, but a posting list of
        /// more than one id is answered by one interner lookup instead of
        /// a candidate-by-candidate walk: at most one candidate can match.
        all_bound: bool,
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
    /// head needs free variables).
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
/// The kernel fixes which probes are counted; a fully bound probe is
/// flagged so the join can answer it with one lookup (see
/// [`JoinKernel::Probe`]).
fn assign_textual_kernels(atoms: &mut [JoinAtom]) {
    let mut bound: HashSet<VarId> = HashSet::new();
    for a in atoms {
        let is_bound = |t: &Term| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        a.kernel = match a.args.iter().position(is_bound) {
            Some(pos) => JoinKernel::Probe {
                pos,
                all_bound: a.args.iter().all(is_bound),
            },
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
    /// delta tuple exactly once: inserted EDB tuples (stage one of the
    /// insertion pass, where IDB old and full coincide) or deleted ones
    /// (read through [`DeletionWindows`]).
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

/// The position indexes over one store: one slot per tuple position,
/// filled the first time a kernel probes that position.
///
/// Every position index the engine keeps has this layout: the EDB
/// indexes of an [`EdbIndexes`] set, the IDB indexes of a from-scratch
/// run, and the EDB and IDB indexes incremental maintenance keeps across
/// batches. A slot is filled at most once, by whichever worker probes it
/// first; a concurrent reader of the same slot waits for that fill
/// instead of building its own. Which positions get indexed is thus
/// decided by the kernels that probe them alone. Built indexes are
/// extended over their store's appends at stage barriers
/// ([`sync_indexes`]) and patched by `MutableStore::compact_in_place`.
pub(crate) type IndexSlots = Box<[OnceLock<PosIndex>]>;

/// Empty slots for stores of the given arities: nothing is built yet.
pub(crate) fn index_slots(arities: impl Iterator<Item = usize>) -> Vec<IndexSlots> {
    arities
        .map(|a| (0..a).map(|_| OnceLock::new()).collect())
        .collect()
}

/// Extends every built index in `indexes[i]`, the slots over store `i`,
/// over the tuples its store gained since.
pub(crate) fn sync_indexes<'s>(
    indexes: &mut [IndexSlots],
    stores: impl IntoIterator<Item = &'s TupleStore>,
) {
    for (slots, store) in indexes.iter_mut().zip(stores) {
        for ix in slots.iter_mut().filter_map(OnceLock::get_mut) {
            ix.update(store);
        }
    }
}

/// Position indexes over one structure's EDB relations: per relation, one
/// slot per tuple position, each filled the first time a kernel probes it.
/// A concurrent reader of a slot being filled waits for that fill instead
/// of building its own.
///
/// A one-shot run uses a set of its own, so it builds the indexes it
/// probes and drops them on return. A holder of an immutable structure
/// keeps one set beside it and passes it to every run on that structure
/// ([`CompiledProgram::try_run_indexed`]), so each index is built once per
/// structure rather than once per run — the query service keeps one per
/// published snapshot.
///
/// A set serves only the structure it was made for; runs check that the
/// relation lengths agree.
#[derive(Debug)]
pub struct EdbIndexes {
    /// Per relation, one slot per tuple position.
    slots: Vec<IndexSlots>,
    /// Per relation, the tuple count of the structure the set was made for.
    lens: Vec<usize>,
}

impl EdbIndexes {
    /// An empty set for `structure`'s relations: nothing is built yet.
    pub fn new(structure: &Structure) -> Self {
        let vocab = structure.vocabulary();
        EdbIndexes {
            slots: index_slots(vocab.relations().map(|r| vocab.arity(r))),
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

/// The position indexes an atom's source offers the join kernels: the
/// slots over its store. A deletion seed offers none (seeds are scanned,
/// never probed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Indexes<'a> {
    slots: &'a [OnceLock<PosIndex>],
    store: &'a TupleStore,
}

impl<'a> Indexes<'a> {
    /// The index on position `p`, built over the whole store if no kernel
    /// has probed `p` before.
    pub(crate) fn at(self, p: usize) -> &'a PosIndex {
        self.slots[p].get_or_init(|| {
            let mut ix = PosIndex::new(p);
            ix.update(self.store);
            ix
        })
    }
}

/// A program compiled for evaluation: its written rules and semi-naive
/// variants as one plan, with static probe positions. Compiled **once** —
/// by [`Evaluator::new`] or directly — and reusable across arbitrarily many
/// structures, which is what `kv-core`'s `ProgramQuery` relies on.
///
/// A cost-based plan is a pure function of the written rules and its
/// key: the planner mode, the join lowering, the EDB [`CardStats`] and
/// the universe size. The program keeps the last plan it made with its
/// key, and a cost-based run whose key is equal runs that plan instead of
/// planning again. Runs that repeat their planner inputs — a service's
/// misses on one snapshot, a resumed run — plan once.
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
    /// The last cost-based plan and the planner inputs it was made from.
    memo: PlanMemo,
}

/// Everything [`planner::plan`] reads besides the written rules: two
/// cost-based runs with equal keys run the same plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanKey {
    planner: PlannerMode,
    lowering: JoinLowering,
    /// One per relation of the program's vocabulary.
    edb_stats: Vec<CardStats>,
    universe: usize,
}

/// A one-entry memo of cost-based plans. The lock is held only to read or
/// replace the entry, never while planning, so a replan blocks no reader.
#[derive(Debug, Default)]
struct PlanMemo(Mutex<Option<(PlanKey, Arc<RunPlan>)>>);

impl PlanMemo {
    fn lock(&self) -> MutexGuard<'_, Option<(PlanKey, Arc<RunPlan>)>> {
        // A poisoned lock only means another thread panicked: the entry is
        // replaced whole, so it is either the old pair or the new one.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Clone for PlanMemo {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

/// The plan a run evaluates: the written plan, borrowed, or a cost-based
/// plan shared with the program's memo.
pub(crate) enum PlanRef<'a> {
    Written(&'a RunPlan),
    Planned(Arc<RunPlan>),
}

impl Deref for PlanRef<'_> {
    type Target = RunPlan;

    fn deref(&self) -> &RunPlan {
        match self {
            PlanRef::Written(plan) => plan,
            PlanRef::Planned(plan) => plan,
        }
    }
}

impl CompiledProgram {
    /// Compiles `program`: equality elimination, semi-naive delta
    /// variants, and static probe positions.
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
            memo: PlanMemo::default(),
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
    /// written plan, borrowed, or its cost-based re-plan — the memoized
    /// one when the planner inputs equal its key, else a new one, which
    /// replaces the memo's entry.
    fn plan_for(&self, structure: &Structure, options: &EvalOptions) -> PlanRef<'_> {
        assert_eq!(
            structure.vocabulary(),
            &self.vocabulary,
            "structure/program vocabulary mismatch"
        );
        if options.planner == PlannerMode::Textual {
            return PlanRef::Written(&self.written);
        }
        let key = PlanKey {
            planner: options.planner,
            lowering: options.lowering,
            edb_stats: self.edb_card_stats(structure),
            universe: structure.universe_size(),
        };
        if let Some((memo_key, plan)) = &*self.memo.lock() {
            if *memo_key == key {
                return PlanRef::Planned(Arc::clone(plan));
            }
        }
        let plan = Arc::new(
            planner::plan(
                &self.written,
                options,
                || key.edb_stats.clone(),
                key.universe,
            )
            .into_owned(),
        );
        *self.memo.lock() = Some((key, Arc::clone(&plan)));
        PlanRef::Planned(plan)
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
            progress: Progress {
                delta_lo: vec![0u32; idb_count],
                ..Progress::default()
            },
            shard: sharded::ShardStats::new(1),
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
    /// resumed) to fixpoint, truncation, or interrupt on the [`StageLoop`],
    /// probing the EDB through `edb_idx`. The plan is a pure function of
    /// (program, structure, options), so a resumed run gets the plan the
    /// interrupted one ran: the memoized one, or an identical replan.
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
        // EDB stores are the structure's own relation stores (zero-copy).
        let edb_stores: Vec<&TupleStore> = self
            .vocabulary
            .relations()
            .map(|r| structure.relation(r).store())
            .collect();
        // Interrupts discard partial stages whole, so a checkpoint holds
        // committed stages only, and any worker count can resume it. Its
        // worker tallies carry over, tally k onto worker k mod W, so they
        // keep summing to the run's probes.
        let mut shards = sharded::ShardStats::new(options.shards);
        for (k, &probes) in cp.shard.worker_probes.iter().enumerate() {
            shards.worker_probes[k % shards.workers] += probes;
        }
        let stages = StageLoop {
            structure,
            edb: &edb_stores,
            edb_idx: &edb_idx.slots,
            edb_delta_lo: None,
            plan,
            first_only: &[],
            semi_naive: options.semi_naive,
            max_stages: options.max_stages,
            gov,
        };
        let mut idb_idx = index_slots(self.idb_arities.iter().copied());
        let mut idb = sharded::IdbStores::Set(&mut cp.idb_stores);
        match stages.run(&mut idb, &mut idb_idx, &mut shards, &mut cp.progress) {
            Ok(converged) => Ok(EvalResult::new(
                cp.idb_stores,
                cp.progress,
                converged,
                shards,
            )),
            // The committed state goes back as a resumable interrupt.
            Err(reason) => {
                cp.shard = shards;
                Err(EvalInterrupted {
                    reason,
                    checkpoint: cp,
                })
            }
        }
    }
}

/// One run of the paper's stages `Θ¹ = Θ(∅)`, `Θⁿ⁺¹ = Θ(Θⁿ)` over a plan:
/// the stage loop of from-scratch evaluation and of incremental
/// maintenance's insertion pass alike. Holds what the loop reads besides
/// the IDB stores and their indexes.
pub(crate) struct StageLoop<'a> {
    pub(crate) structure: &'a Structure,
    pub(crate) edb: &'a [&'a TupleStore],
    pub(crate) edb_idx: &'a [IndexSlots],
    /// See [`StageEnv::edb_delta_lo`].
    pub(crate) edb_delta_lo: Option<&'a [u32]>,
    /// Stage one runs the plan's naive rules, later stages its semi-naive
    /// variants (or the naive rules again, unless `semi_naive`).
    pub(crate) plan: &'a RunPlan,
    /// Rules that run at stage one besides the plan's, unfiltered.
    pub(crate) first_only: &'a [CompiledRule],
    pub(crate) semi_naive: bool,
    /// Stop after this many stages, converged or not.
    pub(crate) max_stages: Option<usize>,
    pub(crate) gov: &'a Governor,
}

impl StageLoop<'_> {
    /// Runs stages from `p` into `idb` until one derives nothing (returns
    /// `true`), `max_stages` have run (`false`), or the governor
    /// interrupts. Each stage charges the governor, runs the live rules on
    /// the stage executor and commits whole; `p` then holds every
    /// committed stage, so a run continued from it derives exactly the
    /// stages an uninterrupted run would. `idb_idx` are the slots over the
    /// IDB stores, extended as the stores grow.
    pub(crate) fn run(
        &self,
        idb: &mut sharded::IdbStores<'_>,
        idb_idx: &mut [IndexSlots],
        shards: &mut sharded::ShardStats,
        p: &mut Progress,
    ) -> Result<bool, Interrupted> {
        let (gov, plan) = (self.gov, self.plan);
        sync_indexes(idb_idx, idb.stores());
        let arities: Vec<usize> = idb.stores().iter().map(|s| s.arity()).collect();
        // Plans that keep Bloom pre-filters over each IDB's committed
        // tuples rebuild them deterministically from the committed prefix
        // and extend them after each stage commit. A maintenance pass (one
        // with EDB delta windows) keeps none: building them would cost
        // O(IDB) on every batch, however small.
        let maintenance = self.edb_delta_lo.is_some();
        let mut blooms: Option<Vec<TupleBloom>> = (plan.blooms && !maintenance)
            .then(|| idb.stores().into_iter().map(bloom_over).collect());
        while p.stage < self.max_stages.unwrap_or(usize::MAX) {
            // Coarse boundary check (cancellation poll + deadline + all
            // budgets), then the stage budget for the stage about to run.
            gov.check().and_then(|()| gov.charge_stage())?;
            let prev_len: Vec<u32> = idb.stores().iter().map(|s| s.len() as u32).collect();
            let rules = if p.stage == 0 || !self.semi_naive {
                &plan.naive_rules
            } else {
                &plan.semi_variants
            };
            let env = StageEnv {
                structure: self.structure,
                edb: self.edb,
                edb_idx: self.edb_idx,
                idb_idx,
                blooms: blooms.as_deref(),
                prev_len: &prev_len,
                delta_lo: &p.delta_lo,
                edb_delta_lo: self.edb_delta_lo,
                deletion: None,
                gov,
            };
            let mut live: Vec<&CompiledRule> =
                rules.iter().filter(|r| env.fires(r, plan.fire)).collect();
            if p.stage == 0 {
                live.extend(self.first_only);
            }
            let new_count = sharded::run_stage(&env, &live, idb, shards, &mut p.stats)?;
            p.stage += 1;
            if new_count.iter().all(|&c| c == 0) {
                return Ok(true);
            }
            // Advance the delta markers and extend the indexes over the
            // newly committed id range.
            let stores = idb.stores();
            p.stage_marks
                .push(stores.iter().map(|s| s.len() as u32).collect());
            p.delta_lo = prev_len;
            sync_indexes(idb_idx, stores.iter().copied());
            // Extend the Bloom pre-filters over the committed delta,
            // rebuilding any filter that grew past its useful load.
            for (i, bloom) in blooms.iter_mut().flatten().enumerate() {
                let store = stores[i];
                if bloom.should_grow() {
                    *bloom = bloom_over(store);
                } else {
                    for id in p.delta_lo[i]..store.len() as u32 {
                        bloom.insert(tuple_hash(store.get(TupleId(id))));
                    }
                }
            }
            // Budgets are charged after the stage commits, so `p` holds it
            // and a continued run starts at the next stage.
            let tuples: u64 = new_count.iter().map(|&c| c as u64).sum();
            let bytes: u64 = new_count
                .iter()
                .zip(&arities)
                .map(|(&c, &a)| c as u64 * a.max(1) as u64 * 4)
                .sum();
            p.stats.tuples_interned += tuples;
            p.stage_new.push(new_count);
            p.stats.stages = p.stage_new.len() as u64;
            gov.charge_tuples(tuples)
                .and_then(|()| gov.charge_bytes(bytes))?;
        }
        Ok(false)
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
/// an index slot's one-time fill ([`IndexSlots`]), which is thread-safe,
/// so the environment is `Sync`. It is copied into each worker's [`JoinCtx`], so
/// the join loops read its fields without a second indirection.
#[derive(Clone, Copy)]
pub(crate) struct StageEnv<'a> {
    pub(crate) structure: &'a Structure,
    pub(crate) edb: &'a [&'a TupleStore],
    pub(crate) edb_idx: &'a [IndexSlots],
    pub(crate) idb_idx: &'a [IndexSlots],
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
/// whole stores and read the engine's kept indexes.
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

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All members in increasing id order. Zero words are skipped, and
    /// each member is found with one `trailing_zeros`.
    pub(crate) fn iter_sorted(&self) -> impl Iterator<Item = u32> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|&(_, &word)| word != 0)
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let b = rest.trailing_zeros();
                        rest &= rest - 1;
                        (w * 64) as u32 + b
                    })
                })
            })
    }
}

impl StageEnv<'_> {
    /// Whether `rule` runs this stage under the plan's filter. A rule with
    /// an empty window derives nothing: [`Fire::AllSources`] skips it,
    /// [`Fire::Seed`] only when the empty window is its first atom's
    /// delta.
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
    /// This worker's window of each IDB delta: its contiguous share of
    /// `[delta_lo, prev_len)` (the whole window at `W = 1`), or in a
    /// deletion pass its share of each IDB seed. Every semi-naive
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
        let (store, slots, range): (_, &'a [OnceLock<PosIndex>], _) =
            match (atom.pred, env.deletion) {
                (pred, Some(d)) if atom.access == IdbAccess::Delta => {
                    let window = match pred {
                        Pred::Edb(r) => self.edb_delta[r.0],
                        Pred::Idb(i) => self.idb_delta[i.0],
                    };
                    (d.seed(pred), &[], window)
                }
                (Pred::Edb(r), _) => {
                    let store = env.edb[r.0];
                    let range = match (env.edb_delta_lo, atom.access) {
                        (None, _) | (_, IdbAccess::Full) => store.id_range(),
                        // Incremental maintenance: the EDB is append-only
                        // within a batch, so the batch's insertions are the
                        // id suffix above the delta mark — the same
                        // three-window scheme the IDB stores use.
                        (Some(lo), IdbAccess::Old) => IdRange {
                            start: 0,
                            end: lo[r.0],
                        },
                        (Some(_), IdbAccess::Delta) => self.edb_delta[r.0],
                    };
                    (store, &env.edb_idx[r.0], range)
                }
                (Pred::Idb(i), _) => {
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
                    (self.idb[i.0], &env.idb_idx[i.0], range)
                }
            };
        (store, Indexes { slots, store }, range)
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
/// counters. The scratch arenas are merged into the shared stores at the
/// stage barrier.
pub(crate) struct WorkerBuf {
    pub(crate) scratch: Vec<TupleStore>,
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
    /// Empty buffers for the given IDB arities.
    pub(crate) fn new(idb_arities: &[usize]) -> Self {
        Self {
            scratch: idb_arities.iter().map(|&a| TupleStore::new(a)).collect(),
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
    let mut join = RuleJoin {
        rule,
        ctx,
        buf,
        binding: vec![None; rule.var_count],
        probe_memo: vec![ElementMap::default(); memo_len],
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
    pub(crate) binding: Vec<Option<Element>>,
    /// Per-atom memo of probe key → resolved posting slice. Within one
    /// stage the indexed prefix is frozen, so a repeated key resolves to
    /// the identical slice; hits count as [`EvalStats::block_probes`].
    probe_memo: Vec<ElementMap<&'a [u32]>>,
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
        if self.rule.head_check_at == Some(atom_pos) && self.head_already_derived() {
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
            JoinKernel::Probe { pos, all_bound } => {
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
                if all_bound && list.len() > 1 {
                    // At most one candidate matches a fully bound atom: the
                    // one the interner finds, if it lies in the window. The
                    // walk would pass exactly that tuple to `try_tuple`.
                    self.load_check_buf(atom);
                    if let Some(id) = store.lookup(&self.buf.check_buf) {
                        if range.contains(id) && live(id.0) {
                            self.try_tuple(atom_pos, store.get(id))?;
                        }
                    }
                } else {
                    for &id in list {
                        if live(id) {
                            self.try_tuple(atom_pos, store.get(TupleId(id)))?;
                        }
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
                self.load_check_buf(atom);
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

    /// Loads the argument values of `atom`, fully bound here, into
    /// `check_buf` for an interner lookup.
    fn load_check_buf(&mut self, atom: &JoinAtom) {
        self.buf.check_buf.clear();
        for t in &atom.args {
            // Callers only pass atoms whose arguments are all bound.
            #[allow(clippy::expect_used)]
            let e = self.term_value(t).expect("statically bound");
            self.buf.check_buf.push(e);
        }
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
        self.rule.batched && (self.rule.head_check_at.is_none() || self.rule.generic.is_some())
    }

    /// Emits the (fully bound) head tuple: skip it if already committed
    /// in the shared store, otherwise intern it into the worker's scratch
    /// arena. Batched rules buffer tuples and intern one [`EMIT_BLOCK`] at
    /// a time.
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
    /// for predicate `head`, unless it is already committed.
    fn intern_head(&mut self, head: usize) {
        let fresh = !self.ctx.committed(head, &self.buf.head_buf)
            && self.buf.scratch[head].intern(&self.buf.head_buf).1;
        if !fresh {
            self.buf.dups += 1;
        }
    }

    /// Interns everything in the batched-emission buffer, charging the
    /// governor once for the block. Identical per-tuple bookkeeping to the
    /// immediate path — committed tuples are filtered one by one, and the
    /// survivors interned as a single
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
        self.buf.emit_buf = pending;
        self.buf.emit_buf.clear();
        Ok(())
    }
}

/// Clears every [`JoinKernel::Probe`]'s `all_bound` flag in `plan`, so
/// each fully bound written probe walks its posting list; returns how many
/// flags were set. Tests compare the lookup path against this walk.
#[cfg(test)]
pub(crate) fn walk_fully_bound_probes(plan: &mut RunPlan) -> usize {
    let mut cleared = 0;
    for rule in plan.naive_rules.iter_mut().chain(&mut plan.semi_variants) {
        for atom in &mut rule.atoms {
            if let JoinKernel::Probe { all_bound, .. } = &mut atom.kernel {
                cleared += usize::from(*all_bound);
                *all_bound = false;
            }
        }
    }
    cleared
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

    /// A fully bound written probe answered by one lookup matches exactly
    /// what the posting-list walk matched, window for window. A variant's
    /// delta atom is moved to the front, so it is fully bound only when
    /// every argument is a constant.
    /// - The third rule re-derives only existing tuples. Its `d = 2`
    ///   variant seeds on `δT(x, y)` and then probes `old·T(x, y)`, the same
    ///   pair, which lies at or above the delta mark.
    /// - The fourth rule's `δT(s1, s2)` holds a stage-one pair. In every
    ///   later stage that pair lies below the delta mark, while `s1` keeps
    ///   gaining successors in the delta.
    ///
    /// The graphs are dense enough that these posting lists hold several
    /// ids, so both atoms take the lookup branch. A match outside a window
    /// would show in the counters.
    #[test]
    fn fully_bound_probe_lookup_respects_windows() {
        let vocab = Arc::new(Vocabulary::graph_with_constants(2));
        let p = parse_program(
            "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). \
             T(x, y) :- T(x, y), T(y, x), T(x, y). \
             T(x, y) :- T(s1, s2), E(x, y). ?- T.",
            Arc::clone(&vocab),
        )
        .unwrap();
        let looked_up = CompiledProgram::compile(&p);
        let mut walked = looked_up.clone();
        assert_eq!(walk_fully_bound_probes(&mut walked.written), 10);
        for seed in 0..6 {
            let g = random_digraph(14, 0.18, seed);
            let mut s = Structure::new(Arc::clone(&vocab), 14);
            for (u, v) in g.edges() {
                s.insert(kv_structures::RelId(0), &[u, v]);
            }
            // `s1` is the first node with an edge; `s2`, its successor.
            let (s1, s2) = g.edges().next().unwrap();
            s.set_constant(kv_structures::ConstId(0), s1);
            s.set_constant(kv_structures::ConstId(1), s2);
            let a = looked_up.run(&s, EvalOptions::default());
            let b = walked.run(&s, EvalOptions::default());
            assert!(a.stage_count() > 3, "seed {seed}: too few stages");
            assert_eq!(a.eval_stats, b.eval_stats, "seed {seed}: counters diverged");
            assert!(a.same_stages(&b), "seed {seed}: stages diverged");
        }
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

    /// The memo's plan, if a cost-based run has made one.
    fn memo_plan(compiled: &CompiledProgram) -> Option<Arc<RunPlan>> {
        compiled
            .memo
            .lock()
            .as_ref()
            .map(|(_, plan)| Arc::clone(plan))
    }

    fn cost(lowering: JoinLowering) -> EvalOptions {
        EvalOptions::default()
            .with_planner(PlannerMode::CostBased)
            .with_lowering(lowering)
    }

    #[test]
    fn equal_card_stats_reuse_the_plan() {
        let compiled = CompiledProgram::compile(&tc());
        let s = directed_path(6);
        let first = compiled.run(&s, cost(JoinLowering::Auto));
        let plan = memo_plan(&compiled).expect("a cost-based run memoizes its plan");
        // Another structure with equal statistics, and a resumed run on
        // the first one, run the memoized plan.
        let second = compiled.run(&directed_path(6), cost(JoinLowering::Auto));
        assert!(Arc::ptr_eq(&plan, &memo_plan(&compiled).unwrap()));
        let two_stages = Governor::with_budget(Budget {
            max_stages: Some(2),
            ..Budget::UNLIMITED
        });
        let interrupted = compiled
            .try_run_governed(&s, cost(JoinLowering::Auto), &two_stages)
            .unwrap_err();
        let resumed = compiled
            .resume(
                &s,
                cost(JoinLowering::Auto),
                &Governor::unlimited(),
                interrupted.checkpoint,
            )
            .unwrap();
        assert!(Arc::ptr_eq(&plan, &memo_plan(&compiled).unwrap()));
        match compiled.plan_for(&s, &cost(JoinLowering::Auto)) {
            PlanRef::Planned(p) => assert!(Arc::ptr_eq(&plan, &p)),
            PlanRef::Written(_) => panic!("a cost-based run borrowed the written plan"),
        }
        assert_eq!(first.idb, second.idb);
        assert_eq!(first.eval_stats, second.eval_stats);
        assert!(first.same_stages(&resumed));
    }

    #[test]
    fn changed_card_stats_replan() {
        let compiled = CompiledProgram::compile(&tc());
        let path = directed_path(6);
        let mut wider = path.clone();
        wider.grow(4);
        let mut last = None;
        // Each run changes one planner input: the relation statistics,
        // the universe size alone, then the lowering alone.
        for (s, lowering) in [
            (&path, JoinLowering::Auto),
            (&directed_cycle(6), JoinLowering::Auto),
            (&wider, JoinLowering::Auto),
            (&wider, JoinLowering::Generic),
        ] {
            let fresh = CompiledProgram::compile(&tc()).run(s, cost(lowering));
            let run = compiled.run(s, cost(lowering));
            assert_eq!(run.idb, fresh.idb);
            assert_eq!(run.eval_stats, fresh.eval_stats);
            let plan = memo_plan(&compiled).unwrap();
            if let Some(prev) = &last {
                assert!(!Arc::ptr_eq(prev, &plan), "stale plan reused");
            }
            last = Some(plan);
        }
    }

    #[test]
    fn textual_runs_never_touch_the_memo() {
        let compiled = CompiledProgram::compile(&tc());
        let s = directed_path(6);
        compiled.run(&s, EvalOptions::default());
        assert!(memo_plan(&compiled).is_none());
        compiled.run(&s, cost(JoinLowering::Auto));
        let plan = memo_plan(&compiled).unwrap();
        compiled.run(&directed_cycle(5), EvalOptions::default());
        assert!(Arc::ptr_eq(&plan, &memo_plan(&compiled).unwrap()));
        match compiled.plan_for(&s, &EvalOptions::default()) {
            PlanRef::Written(p) => assert!(std::ptr::eq(p, &compiled.written)),
            PlanRef::Planned(_) => panic!("a textual run got a cost-based plan"),
        }
    }
}
