//! The stage executor: one semi-naive stage, run by `W` workers and
//! committed at the stage barrier.
//!
//! `run_stage` is the only place a stage's rules are evaluated: from-scratch
//! evaluation and both passes of incremental maintenance — insertion
//! stages and deletion rounds — call it. The worker count `W`
//! ([`EvalOptions::shards`](crate::EvalOptions::shards)) is the only
//! parallelism setting.
//!
//! Every pass partitions its work the same way: each delta window
//! `[lo, hi)` — an IDB delta, an EDB delta (the batch's insertions), or a
//! deletion pass's seeds — is cut into `W` contiguous id shares, worker
//! `k` reading `[lo + (hi−lo)·k/W, lo + (hi−lo)·(k+1)/W)`. Every worker
//! runs each live rule of the stage over its share of the rule's delta,
//! and skips the rule when that share is empty. Each semi-naive variant
//! pins exactly one delta atom, so the workers' derivation sets partition
//! the stage's derivations exactly; rules that pin no delta (naive stages,
//! fact rules) are dealt out round-robin. At the stage barrier the merge
//! interns each worker's scratch arenas into the shared stores in worker
//! order. At `W = 1` the single share is the whole window, and the merge
//! moves the one worker's arenas over without copying them.
//!
//! A deletion pass commits nothing: it reports the pre-state id of the head
//! of every derivation it finds, concatenated in worker order.
//!
//! The global stage loop — and with it the paper's Theorem 3.6 stage
//! semantics — is untouched: the stage barrier is the only synchronization
//! point, the merge is still a set union, and the committed stage sets are
//! identical for every `W` (pinned by `tests/sharded.rs` across programs ×
//! lowerings × magic binding patterns × W ∈ {1, 2, 3, 4, 8}).

use crate::eval::{evaluate_rule, CompiledRule, IdbAccess, JoinCtx, StageEnv, WorkerBuf};
use kv_structures::govern::Interrupted;
use kv_structures::par::par_workers;
use kv_structures::store::EvalStats;
use kv_structures::{Element, IdRange, MutableStore, TupleStore};

/// The worker count of a run and each worker's load, surfaced on
/// [`EvalResult`](crate::EvalResult).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Worker count the run executed with.
    pub workers: usize,
    /// Each worker's `join_probes + block_probes`; they sum to the run's.
    /// A resumed run adds the checkpoint's tallies, tally `k` onto worker
    /// `k mod workers`.
    pub worker_probes: Vec<u64>,
}

impl ShardStats {
    /// `workers` workers (0 means one), none of them loaded yet.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        ShardStats {
            workers,
            worker_probes: vec![0; workers],
        }
    }
}

/// Each worker's `(IDB, EDB)` delta windows for one stage: share `k` of
/// every window `[lo, hi)`. IDB windows are `[delta_lo, len)`; EDB windows
/// exist only in incremental maintenance, where the batch's insertions are
/// the EDB delta. A deletion pass's windows are its whole seed stores.
fn delta_windows(
    env: &StageEnv<'_>,
    idb: &[&TupleStore],
    workers: usize,
) -> Vec<(Vec<IdRange>, Vec<IdRange>)> {
    let bounds = |lo: &[u32], stores: &[&TupleStore]| -> Vec<(u32, u32)> {
        lo.iter()
            .zip(stores)
            .map(|(&lo, s)| (lo, s.len() as u32))
            .collect()
    };
    let seeds = |seeds: &[TupleStore]| -> Vec<(u32, u32)> {
        seeds.iter().map(|s| (0, s.len() as u32)).collect()
    };
    let (idb, edb) = match env.deletion {
        Some(d) => (seeds(&d.idb_seeds), seeds(&d.edb_seeds)),
        None => (
            bounds(env.delta_lo, idb),
            env.edb_delta_lo
                .map_or_else(Vec::new, |lo| bounds(lo, env.edb)),
        ),
    };
    let share = |windows: &[(u32, u32)], k: usize| -> Vec<IdRange> {
        let cut = |lo: u32, hi: u32, k: usize| lo + ((hi - lo) as usize * k / workers) as u32;
        windows
            .iter()
            .map(|&(lo, hi)| IdRange {
                start: cut(lo, hi, k),
                end: cut(lo, hi, k + 1),
            })
            .collect()
    };
    (0..workers)
        .map(|k| (share(&idb, k), share(&edb, k)))
        .collect()
}

/// The IDB stores a stage reads and commits into.
pub(crate) enum IdbStores<'s> {
    /// From-scratch evaluation: a set union into plain stores.
    Set(&'s mut [TupleStore]),
    /// Incremental maintenance's insertion pass: a set union into the
    /// engine's live stores, each new tuple at support 1.
    Maintained(&'s mut [MutableStore]),
    /// A deletion pass over the pre-state `stores`, which it leaves as
    /// they are: the head id of every derivation found is appended to
    /// `derived`, per predicate, in worker order.
    Deleted {
        stores: &'s [MutableStore],
        derived: &'s mut [Vec<u32>],
    },
}

impl IdbStores<'_> {
    /// The stores a stage reads.
    pub(crate) fn stores(&self) -> Vec<&TupleStore> {
        match self {
            IdbStores::Set(s) => s.iter().collect(),
            IdbStores::Maintained(m) => m.iter().map(|m| m.store()).collect(),
            IdbStores::Deleted { stores, .. } => stores.iter().map(|m| m.store()).collect(),
        }
    }
}

/// Runs one stage of `rules` and commits it into `idb`. Spawns the
/// `shards.workers` workers, hands each its delta shares, evaluates the
/// rules, flushes the workers' pending governor steps, folds their
/// counters into `stats` and `shards`, and merges their output in worker
/// order. Returns the fresh tuples per IDB predicate (none for a deletion
/// pass).
///
/// A rule that pins a delta atom runs on every worker whose share of that
/// delta is non-empty, over that share; a rule that pins none runs on one
/// worker, round-robin. An interrupt in any worker, or in a step flush,
/// aborts the stage whole: nothing is committed and neither `stats` nor
/// `shards` is touched, so a checkpoint never holds a partial stage.
pub(crate) fn run_stage(
    env: &StageEnv<'_>,
    rules: &[&CompiledRule],
    idb: &mut IdbStores<'_>,
    shards: &mut ShardStats,
    stats: &mut EvalStats,
) -> Result<Vec<usize>, Interrupted> {
    let workers = shards.workers;
    let stores = idb.stores();
    let arities: Vec<usize> = stores.iter().map(|s| s.arity()).collect();
    let windows = delta_windows(env, &stores, workers);
    let mut results: Vec<WorkerBuf> = par_workers(workers, |w| {
        let ctx = JoinCtx {
            env: *env,
            idb: &stores,
            idb_delta: &windows[w].0,
            edb_delta: &windows[w].1,
        };
        let mut buf = WorkerBuf::new(&arities);
        for (ri, rule) in rules.iter().enumerate() {
            let runs = match rule.atoms.iter().find(|a| a.access == IdbAccess::Delta) {
                Some(atom) => !ctx.source(atom).2.is_empty(),
                None => ri % workers == w,
            };
            if !runs {
                continue;
            }
            if let Err(reason) = evaluate_rule(rule, &ctx, &mut buf) {
                buf.tripped = Some(reason);
                break;
            }
        }
        buf
    });
    for buf in &mut results {
        if buf.tripped.is_none() && buf.pending_steps > 0 {
            buf.tripped = env.gov.step(buf.pending_steps).err();
            buf.pending_steps = 0;
        }
    }
    if let Some(reason) = results.iter().find_map(|b| b.tripped) {
        return Err(reason);
    }
    let mut new_count = vec![0usize; arities.len()];
    for (buf, load) in results.into_iter().zip(&mut shards.worker_probes) {
        *load += buf.probes + buf.block_probes;
        stats.join_probes += buf.probes;
        stats.magic_probes += buf.magic_probes;
        stats.block_probes += buf.block_probes;
        stats.gallop_steps += buf.gallop_steps;
        stats.wcoj_rules += buf.wcoj_rules;
        stats.duplicate_derivations += buf.dups;
        merge(idb, buf, &mut new_count, &mut stats.duplicate_derivations);
    }
    Ok(new_count)
}

/// Commits one worker's output into `idb`: interns its scratch arenas
/// (a set union) or, in a deletion pass, appends its head ids.
/// Derivations of tuples an earlier worker already committed land in
/// `dups`.
fn merge(idb: &mut IdbStores<'_>, buf: WorkerBuf, new_count: &mut [usize], dups: &mut u64) {
    let arenas = buf.scratch.into_iter().enumerate();
    match idb {
        IdbStores::Set(stores) => {
            for (p, scratch) in arenas {
                for_each_tuple(scratch, |tuple| {
                    if stores[p].intern(tuple).1 {
                        new_count[p] += 1;
                    } else {
                        *dups += 1;
                    }
                });
            }
        }
        IdbStores::Maintained(stores) => {
            for (p, scratch) in arenas {
                for_each_tuple(scratch, |tuple| {
                    if stores[p].contains_live(tuple) {
                        *dups += 1;
                    } else {
                        stores[p].insert(tuple);
                        new_count[p] += 1;
                    }
                });
            }
        }
        IdbStores::Deleted { derived, .. } => {
            for (out, ids) in derived.iter_mut().zip(buf.derived) {
                out.extend(ids);
            }
        }
    }
}

/// Calls `f` with every tuple of `scratch`, in id order. The arena is
/// moved out whole, not copied.
fn for_each_tuple(scratch: TupleStore, mut f: impl FnMut(&[Element])) {
    let (arity, len) = (scratch.arity(), scratch.len());
    if arity == 0 {
        (0..len).for_each(|_| f(&[]));
    } else {
        scratch.into_flat().chunks_exact(arity).for_each(f);
    }
}
