//! The stage executor: one semi-naive stage, run by `W` workers and
//! committed at the stage barrier.
//!
//! `run_stage` is the only place a stage's rules are evaluated: from-scratch
//! evaluation and both passes of incremental maintenance — insertion
//! stages and deletion rounds — call it. The shard count `W`
//! ([`EvalOptions::shards`](crate::EvalOptions::shards)) is the only
//! parallelism setting. At `W = 1` a single worker runs every live rule
//! over the whole delta windows, and its scratch arenas are committed as
//! they are: no shard keys are chosen, no owners are computed, and no tuple
//! is routed or copied.
//!
//! At `W > 1` each stage's *delta* is partitioned across the workers by
//! tuple ownership — [`kv_structures::shard_of`] over one planner-chosen key
//! position per predicate. Every worker runs the full live-rule set of the
//! stage over its owner window of each delta, so the workers' derivation
//! sets partition the stage's derivations exactly (each semi-naive variant
//! pins exactly one delta atom, and each delta tuple has exactly one owner);
//! rules that pin no delta (naive stages, fact rules) are dealt out
//! round-robin. Derived tuples are then routed *by the owner of the derived
//! tuple*: tuples a worker owns stay local, the rest cross the
//! [`DeltaExchange`] at the stage barrier. The merge drains exchange inboxes
//! in (owner, sender) order, which keeps every committed delta
//! owner-contiguous, so the next stage — or a run resumed from a
//! checkpoint — finds each worker's window by scanning owners.
//!
//! A deletion pass commits nothing: it reports the pre-state id of the head
//! of every derivation it finds. Its delta is the pass's seeds, which each
//! worker reads one contiguous share of; no tuple is routed.
//!
//! The global stage loop — and with it the paper's Theorem 3.6 stage
//! semantics — is untouched: the stage barrier is the only synchronization
//! point, the merge is still a set union, and the committed stage sets are
//! identical for every `W` (pinned by `tests/sharded.rs` across programs ×
//! lowerings × magic binding patterns × W ∈ {1, 2, 4, 8}).

use crate::ast::{Pred, Term};
use crate::eval::{evaluate_rule, CompiledRule, IdbAccess, JoinCtx, StageEnv, WorkerBuf};
use kv_structures::govern::Interrupted;
use kv_structures::mutable::InsertOutcome;
use kv_structures::par::par_workers;
use kv_structures::shard::{shard_of, DeltaExchange, ShardKey};
use kv_structures::store::EvalStats;
use kv_structures::{CardStats, Element, IdRange, MutableStore, TupleStore};

/// Aggregate statistics of one sharded run, surfaced on
/// [`EvalResult`](crate::EvalResult) (and folded into bench reports as
/// `exchanged_tuples` / `shard_skew_pct`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Worker (shard) count the run executed with.
    pub workers: usize,
    /// The shard key position chosen per IDB predicate (empty at `W = 1`,
    /// where one worker owns every tuple and no key is chosen).
    pub idb_keys: Vec<usize>,
    /// Tuples that crossed worker boundaries through the delta exchange.
    pub exchanged_tuples: u64,
    /// Delta tuples merged under each worker's ownership, across all
    /// stages — the load-balance signal behind
    /// [`skew_pct`](Self::skew_pct).
    pub owned: Vec<u64>,
    /// Semi-naive rule variants whose head lands on the same owner as
    /// their delta seed (no exchange needed).
    pub local_variants: usize,
    /// Semi-naive rule variants that must route derivations through the
    /// exchange.
    pub exchange_variants: usize,
}

impl ShardStats {
    /// Load skew: how far the most loaded worker sits above the mean, in
    /// percent (0 = perfectly balanced).
    pub fn skew_pct(&self) -> f64 {
        let total: u64 = self.owned.iter().sum();
        let max = self.owned.iter().copied().max().unwrap_or(0);
        if total == 0 || self.workers == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.workers as f64;
        (max as f64 / avg - 1.0) * 100.0
    }
}

/// The shard-key assignment for one run: one key position per IDB and per
/// EDB predicate, plus per-variant locality verdicts.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    pub(crate) idb_keys: Vec<ShardKey>,
    pub(crate) edb_keys: Vec<ShardKey>,
    /// Per semi-naive variant: does its head land on its delta seed's
    /// owner (derivations never cross the exchange)?
    pub(crate) local: Vec<bool>,
}

/// The pinned delta atom of a semi-naive variant (each variant has at most
/// one; naive and fact rules have none).
fn delta_atom(rule: &CompiledRule) -> Option<&crate::eval::JoinAtom> {
    rule.atoms.iter().find(|a| a.access == IdbAccess::Delta)
}

/// Whether `rule`'s derivations stay on their delta seed's owner under the
/// given key assignment: the head's key-position argument is the same
/// variable as the delta atom's key-position argument, so both hash to the
/// same worker.
fn rule_is_local(rule: &CompiledRule, idb_keys: &[ShardKey], edb_keys: &[ShardKey]) -> bool {
    let Some(delta) = delta_atom(rule) else {
        return false;
    };
    let delta_key = match delta.pred {
        Pred::Idb(i) => idb_keys[i.0],
        Pred::Edb(r) => edb_keys[r.0],
    };
    let head_key = idb_keys[rule.head.0];
    match (
        rule.head_args.get(head_key.pos),
        delta.args.get(delta_key.pos),
    ) {
        (Some(Term::Var(h)), Some(Term::Var(d))) => h == d,
        _ => false,
    }
}

/// Estimated distinct values flowing into head position `pos` of `pred`'s
/// variants: the widest EDB posting feeding that head variable. Used as a
/// balance tie-break — a key position with more distinct values spreads
/// tuples across more workers.
fn distinct_estimate(
    variants: &[&CompiledRule],
    pred: usize,
    pos: usize,
    edb_stats: &[CardStats],
) -> usize {
    let mut best = 0usize;
    for rule in variants {
        if rule.head.0 != pred {
            continue;
        }
        let Some(Term::Var(v)) = rule.head_args.get(pos) else {
            continue;
        };
        for atom in &rule.atoms {
            let Pred::Edb(r) = atom.pred else { continue };
            for (q, arg) in atom.args.iter().enumerate() {
                if arg == &Term::Var(*v) {
                    if let Some(stats) = edb_stats.get(r.0) {
                        best = best.max(stats.distinct.get(q).copied().unwrap_or(0));
                    }
                }
            }
        }
    }
    best
}

/// Chooses shard keys for every predicate: a pure function of the compiled
/// variants and the EDB statistics (so interrupted runs re-derive the
/// identical plan on resume). Greedy coordinate ascent — for each
/// predicate pick the position making the most producing variants local
/// under the current assignment, tie-broken toward higher estimated
/// distinct counts — iterated a few sweeps so locality decisions
/// propagate through predicate dependencies.
pub(crate) fn choose_plan(
    semi_variants: &[CompiledRule],
    edb_variants: &[CompiledRule],
    idb_arities: &[usize],
    edb_arities: &[usize],
    edb_stats: &[CardStats],
) -> ShardPlan {
    let all: Vec<&CompiledRule> = semi_variants.iter().chain(edb_variants).collect();
    let mut idb_keys: Vec<ShardKey> = idb_arities.iter().map(|_| ShardKey::FALLBACK).collect();
    // EDB keys: start from the widest position (best balance); refined
    // below only for relations that seed delta variants.
    let mut edb_keys: Vec<ShardKey> = edb_arities
        .iter()
        .enumerate()
        .map(|(r, &arity)| {
            let pos = (0..arity)
                .max_by_key(|&p| edb_stats.get(r).map_or(0, |s| s.distinct[p]))
                .unwrap_or(0);
            ShardKey::at(pos)
        })
        .collect();
    for _sweep in 0..3 {
        for (p, &arity) in idb_arities.iter().enumerate() {
            if arity == 0 {
                continue;
            }
            let mut best = (0usize, 0usize, ShardKey::FALLBACK.pos);
            for pos in 0..arity {
                let mut trial = idb_keys.clone();
                trial[p] = ShardKey::at(pos);
                let local = all
                    .iter()
                    .filter(|r| r.head.0 == p && rule_is_local(r, &trial, &edb_keys))
                    .count();
                let spread = distinct_estimate(&all, p, pos, edb_stats);
                if (local, spread) > (best.0, best.1) {
                    best = (local, spread, pos);
                }
            }
            idb_keys[p] = ShardKey::at(best.2);
        }
        for rule in &all {
            // Align each delta-seeding EDB relation's key with the head
            // key of the variant it seeds, when that makes the variant
            // local and no earlier variant claimed a conflicting position.
            let Some(delta) = delta_atom(rule) else {
                continue;
            };
            let Pred::Edb(r) = delta.pred else { continue };
            let Some(Term::Var(h)) = rule.head_args.get(idb_keys[rule.head.0].pos) else {
                continue;
            };
            if let Some(pos) = delta.args.iter().position(|arg| arg == &Term::Var(*h)) {
                edb_keys[r.0] = ShardKey::at(pos);
            }
        }
    }
    let local = semi_variants
        .iter()
        .map(|r| rule_is_local(r, &idb_keys, &edb_keys))
        .collect();
    ShardPlan {
        idb_keys,
        edb_keys,
        local,
    }
}

/// How a run splits its stages: the worker count `W`, the shard keys
/// (chosen only when `W > 1`), and the load and exchange counters behind
/// [`ShardStats`].
#[derive(Debug, Clone)]
pub(crate) struct Shards {
    pub(crate) workers: usize,
    /// `None` at `W = 1`, where the single worker owns every tuple, and for
    /// deletion passes, which route nothing.
    pub(crate) plan: Option<ShardPlan>,
    /// Tuples committed under each worker's ownership, across stages.
    owned: Vec<u64>,
    /// Tuples that crossed worker boundaries at stage barriers.
    pub(crate) exchanged: u64,
}

impl Shards {
    /// `workers` shards (`None` means one). `plan` is called only when
    /// there are several, so the single-worker path chooses no keys;
    /// deletion passes, which route nothing, choose none either.
    pub(crate) fn new(workers: Option<usize>, plan: impl FnOnce() -> Option<ShardPlan>) -> Self {
        let workers = workers.unwrap_or(1).max(1);
        Shards {
            workers,
            plan: if workers > 1 { plan() } else { None },
            owned: vec![0; workers],
            exchanged: 0,
        }
    }

    /// The run's statistics over `variants` semi-naive rule variants (all
    /// of them local at `W = 1`).
    pub(crate) fn stats(&self, variants: usize) -> ShardStats {
        let (idb_keys, local_variants) = match &self.plan {
            Some(plan) => (
                plan.idb_keys.iter().map(|k| k.pos).collect(),
                plan.local.iter().filter(|&&l| l).count(),
            ),
            None => (Vec::new(), variants),
        };
        ShardStats {
            workers: self.workers,
            idb_keys,
            exchanged_tuples: self.exchanged,
            owned: self.owned.clone(),
            local_variants,
            exchange_variants: variants - local_variants,
        }
    }
}

/// Splits each store's delta window `[delta_lo, len)` into per-worker
/// owner sub-ranges. Deltas committed by a sharded merge are
/// owner-contiguous, so the scan finds monotone owner boundaries; a delta
/// committed by some *other* configuration (a checkpoint taken at a
/// different W) falls back to assigning the whole window to worker 0 —
/// correct for one stage, after which the merge restores owner order.
fn delta_ranges(
    stores: &[&TupleStore],
    delta_lo: &[u32],
    keys: &[ShardKey],
    workers: usize,
) -> Vec<Vec<IdRange>> {
    let mut ranges = vec![vec![IdRange { start: 0, end: 0 }; stores.len()]; workers];
    for (p, store) in stores.iter().enumerate() {
        let lo = delta_lo[p];
        let hi = store.len() as u32;
        // Owner boundaries: cuts[w] is the first id owned by a worker > w.
        let mut cuts = vec![hi; workers];
        let mut prev_owner = 0usize;
        let mut monotone = true;
        for id in lo..hi {
            let owner = shard_of(store.get(kv_structures::TupleId(id)), keys[p], workers);
            if owner < prev_owner {
                monotone = false;
                break;
            }
            while prev_owner < owner {
                cuts[prev_owner] = id;
                prev_owner += 1;
            }
        }
        if monotone {
            let mut start = lo;
            for w in 0..workers {
                let end = cuts[w];
                ranges[w][p] = IdRange { start, end };
                start = end;
            }
        } else {
            // Foreign delta order: worker 0 owns everything this stage.
            ranges[0][p] = IdRange { start: lo, end: hi };
            for row in ranges.iter_mut().skip(1) {
                row[p] = IdRange { start: hi, end: hi };
            }
        }
    }
    ranges
}

/// Each worker's `(IDB, EDB)` delta windows for one stage. At `W = 1` the
/// single worker gets the whole windows; otherwise each gets its owner
/// sub-ranges. EDB windows exist only in incremental maintenance, where
/// the batch's insertions are the EDB delta. A deletion pass's delta is its
/// seeds, split into `W` contiguous shares.
fn delta_windows(
    env: &StageEnv<'_>,
    idb: &[&TupleStore],
    shards: &Shards,
) -> Vec<(Vec<IdRange>, Vec<IdRange>)> {
    let w = shards.workers;
    if let Some(d) = env.deletion {
        let share = |seeds: &[TupleStore], k: usize| -> Vec<IdRange> {
            seeds
                .iter()
                .map(|s| {
                    let cut = |k: usize| (s.len() * k / w) as u32;
                    IdRange {
                        start: cut(k),
                        end: cut(k + 1),
                    }
                })
                .collect()
        };
        return (0..w)
            .map(|k| (share(&d.idb_seeds, k), share(&d.edb_seeds, k)))
            .collect();
    }
    let Some(plan) = &shards.plan else {
        let window = |lo: &[u32], stores: &[&TupleStore]| -> Vec<IdRange> {
            lo.iter()
                .zip(stores)
                .map(|(&start, s)| IdRange {
                    start,
                    end: s.len() as u32,
                })
                .collect()
        };
        let edb = env
            .edb_delta_lo
            .map_or_else(Vec::new, |lo| window(lo, env.edb));
        return vec![(window(env.delta_lo, idb), edb)];
    };
    let idb = delta_ranges(idb, env.delta_lo, &plan.idb_keys, w);
    let edb = match env.edb_delta_lo {
        Some(lo) => delta_ranges(env.edb, lo, &plan.edb_keys, w),
        None => vec![Vec::new(); w],
    };
    idb.into_iter().zip(edb).collect()
}

/// One worker's stage output: per predicate, per destination worker, the
/// flat (arity-strided) derived tuples — plus parallel derivation counts in
/// counting mode, and a separate derivation tally for nullary predicates
/// (whose owner is always worker 0).
#[derive(Debug)]
struct RoutedDelta {
    tuples: Vec<Vec<Vec<Element>>>,
    counts: Vec<Vec<Vec<u32>>>,
    nullary: Vec<u32>,
}

/// Moves a worker's scratch arenas into its outboxes. At `W = 1` each
/// arena moves over whole (no hashing, no copy); otherwise each derived
/// tuple goes to its owner's outbox. Runs inside the worker, before the
/// stage barrier; the scratch arena already deduplicated this worker's
/// derivations, so each tuple crosses the exchange at most once per
/// worker.
fn route_worker(buf: &mut WorkerBuf, shards: &Shards) -> RoutedDelta {
    let workers = shards.workers;
    let preds = buf.scratch.len();
    let mut routed = RoutedDelta {
        tuples: (0..preds).map(|_| vec![Vec::new(); workers]).collect(),
        counts: (0..preds).map(|_| vec![Vec::new(); workers]).collect(),
        nullary: vec![0; preds],
    };
    let counts = std::mem::take(&mut buf.scratch_counts);
    for (p, (scratch, counts)) in std::mem::take(&mut buf.scratch)
        .into_iter()
        .zip(counts)
        .enumerate()
    {
        if scratch.arity() == 0 {
            routed.nullary[p] = if buf.counting {
                counts.iter().sum()
            } else {
                scratch.len() as u32
            };
            continue;
        }
        let Some(plan) = &shards.plan else {
            routed.tuples[p][0] = scratch.into_flat();
            routed.counts[p][0] = counts;
            continue;
        };
        for (id, tuple) in scratch.iter().enumerate() {
            let dest = shard_of(tuple, plan.idb_keys[p], workers);
            routed.tuples[p][dest].extend_from_slice(tuple);
            if buf.counting {
                routed.counts[p][dest].push(counts[id]);
            }
        }
    }
    routed
}

/// The IDB stores a stage reads and commits into.
pub(crate) enum IdbStores<'s> {
    /// From-scratch evaluation: a set union into plain stores.
    Set(&'s mut [TupleStore]),
    /// Incremental maintenance's insertion pass: every derivation is
    /// credited to its tuple's support count.
    Counting(&'s mut [MutableStore]),
    /// A deletion pass over the pre-state `stores`, which it leaves as
    /// they are: the head id of every derivation found is appended to
    /// `derived`, per predicate, in worker order.
    Deleted {
        stores: &'s [MutableStore],
        derived: &'s mut [Vec<u32>],
    },
}

/// Runs one stage of `rules` and commits it into `idb`. Spawns the `W`
/// workers, hands each its delta windows, evaluates the rules, flushes the
/// workers' pending governor steps, folds their counters into `stats`, and
/// merges their output in owner order. Returns the fresh tuples per IDB
/// predicate (none for a deletion pass).
///
/// A rule that pins a delta atom runs on every worker, over that worker's
/// windows; a rule that pins none runs on one worker, round-robin. An
/// interrupt in any worker, or in a step flush, aborts the stage whole:
/// nothing is committed and `stats` is untouched, so a checkpoint never
/// holds a partial stage or in-flight exchange tuples.
pub(crate) fn run_stage(
    env: &StageEnv<'_>,
    rules: &[&CompiledRule],
    idb: IdbStores<'_>,
    shards: &mut Shards,
    stats: &mut EvalStats,
) -> Result<Vec<usize>, Interrupted> {
    let workers = shards.workers;
    let (counting, stores): (bool, Vec<&TupleStore>) = match &idb {
        IdbStores::Set(s) => (false, s.iter().collect()),
        IdbStores::Counting(m) => (true, m.iter().map(|m| m.store()).collect()),
        IdbStores::Deleted { stores, .. } => (false, stores.iter().map(|m| m.store()).collect()),
    };
    let arities: Vec<usize> = stores.iter().map(|s| s.arity()).collect();
    let windows = delta_windows(env, &stores, shards);
    let mut results: Vec<(WorkerBuf, RoutedDelta)> = par_workers(workers, |w| {
        let ctx = JoinCtx {
            env: *env,
            idb: &stores,
            idb_delta: &windows[w].0,
            edb_delta: &windows[w].1,
        };
        let mut buf = WorkerBuf::new(&arities, counting);
        for (ri, rule) in rules.iter().enumerate() {
            if ri % workers != w && delta_atom(rule).is_none() {
                continue;
            }
            if let Err(reason) = evaluate_rule(rule, &ctx, &mut buf) {
                buf.tripped = Some(reason);
                break;
            }
        }
        let routed = route_worker(&mut buf, shards);
        (buf, routed)
    });
    for (buf, _) in &mut results {
        if buf.tripped.is_none() && buf.pending_steps > 0 {
            buf.tripped = env.gov.step(buf.pending_steps).err();
            buf.pending_steps = 0;
        }
    }
    if let Some(reason) = results.iter().find_map(|(b, _)| b.tripped) {
        return Err(reason);
    }
    let mut routed = Vec::with_capacity(workers);
    let mut heads = Vec::with_capacity(workers);
    for (buf, r) in results {
        stats.join_probes += buf.probes;
        stats.magic_probes += buf.magic_probes;
        stats.block_probes += buf.block_probes;
        stats.gallop_steps += buf.gallop_steps;
        stats.wcoj_rules += buf.wcoj_rules;
        stats.duplicate_derivations += buf.dups;
        routed.push(r);
        heads.push(buf.derived);
    }
    let mut new_count = vec![0usize; arities.len()];
    let dups = &mut stats.duplicate_derivations;
    match idb {
        IdbStores::Set(s) => merge_set(s, routed, shards, &mut new_count, dups),
        IdbStores::Counting(m) => merge_counting(m, routed, shards, &mut new_count, dups),
        IdbStores::Deleted { derived, .. } => {
            for worker in heads {
                for (out, ids) in derived.iter_mut().zip(worker) {
                    out.extend(ids);
                }
            }
        }
    }
    Ok(new_count)
}

/// Owner-ordered set-mode merge (from-scratch evaluation): seals each
/// predicate's per-worker outboxes into a [`DeltaExchange`], then interns
/// every owner's inbox in (owner, sender) order, so the committed delta is
/// owner-contiguous. Cross-worker duplicate derivations land in `dups`.
fn merge_set(
    idb_stores: &mut [TupleStore],
    mut routed: Vec<RoutedDelta>,
    shards: &mut Shards,
    new_count: &mut [usize],
    dups: &mut u64,
) {
    for (p, store) in idb_stores.iter_mut().enumerate() {
        let arity = store.arity();
        if arity == 0 {
            let derivations: u32 = routed.iter().map(|r| r.nullary[p]).sum();
            if derivations > 0 {
                let fresh = store.intern(&[]).1;
                new_count[p] += usize::from(fresh);
                shards.owned[0] += u64::from(fresh);
                *dups += u64::from(derivations) - u64::from(fresh);
            }
            continue;
        }
        let matrix: Vec<Vec<Vec<Element>>> = routed
            .iter_mut()
            .map(|r| std::mem::take(&mut r.tuples[p]))
            .collect();
        let exchange = DeltaExchange::seal(arity, matrix);
        shards.exchanged += exchange.exchanged();
        for w in 0..shards.workers {
            for tuple in exchange.inbox(w).flat_map(|b| b.chunks_exact(arity)) {
                if store.intern(tuple).1 {
                    new_count[p] += 1;
                    shards.owned[w] += 1;
                } else {
                    *dups += 1;
                }
            }
        }
    }
}

/// Owner-ordered counting-mode merge (incremental maintenance): like
/// [`merge_set`] but into [`MutableStore`]s, crediting each tuple's
/// support with its routed derivation count. The outboxes carry parallel
/// count blocks, so this drains them directly instead of going through
/// [`DeltaExchange`].
fn merge_counting(
    idb: &mut [MutableStore],
    routed: Vec<RoutedDelta>,
    shards: &mut Shards,
    new_count: &mut [usize],
    dups: &mut u64,
) {
    for (p, store) in idb.iter_mut().enumerate() {
        let arity = store.store().arity();
        if arity == 0 {
            let derivations: u64 = routed.iter().map(|r| u64::from(r.nullary[p])).sum();
            if derivations > 0 {
                // Nullary derivations all route to worker 0; support gets
                // every derivation.
                match store.insert_with_support(&[], derivations as u32) {
                    InsertOutcome::Fresh(_) => {
                        new_count[p] += 1;
                        shards.owned[0] += 1;
                        *dups += derivations - 1;
                    }
                    _ => *dups += derivations,
                }
            }
            continue;
        }
        for w in 0..shards.workers {
            for (sender, r) in routed.iter().enumerate() {
                let block = &r.tuples[p][w];
                if sender != w {
                    shards.exchanged += (block.len() / arity) as u64;
                }
                for (tuple, &c) in block.chunks_exact(arity).zip(&r.counts[p][w]) {
                    match store.insert_with_support(tuple, c) {
                        InsertOutcome::Fresh(_) => {
                            new_count[p] += 1;
                            shards.owned[w] += 1;
                            *dups += u64::from(c) - 1;
                        }
                        InsertOutcome::Bumped(_) => *dups += u64::from(c),
                        InsertOutcome::Revived(_) => {
                            debug_assert!(false, "no dead tuples during insertion");
                        }
                    }
                }
            }
        }
    }
}
