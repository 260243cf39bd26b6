//! Machine-readable benchmark reports (`BENCH_pebble.json`,
//! `BENCH_datalog.json`), emitted by the harness binary.
//!
//! The JSON is hand-rolled (the workspace builds offline with zero
//! external dependencies): every value is a number, a string of known-safe
//! characters, or a flat object, so no escaping machinery is needed.
//!
//! Next to the eager baselines each report carries the demand-driven
//! columns: `demand_ms`/`demand_tuples`/`magic_probes` for the magic-set
//! rewrite of each Datalog case queried at a fixed goal tuple, and
//! `lazy_ms`/`lazy_arena_size` for the lazy, root-directed pebble solver.
//! The Datalog report additionally carries the cost-based planner columns
//! (`planned_ms`, `planned_join_probes`, `planned_duplicate_derivations`,
//! `scc_count`, `probe_savings_pct`), the batched/worst-case-optimal join
//! columns (`planned_block_probes`, `planned_gallop_steps`,
//! `planned_wcoj_rules`), the durability columns (`recovery_ms` — cold
//! reopen of a WAL-backed directory at the mid-cadence point, snapshot
//! load + WAL-tail replay; `flush_overhead_pct` — the per-round WAL tax,
//! the directly measured cost of the round's two framed WAL appends as a
//! percentage of the volatile maintenance round), the sharded-evaluation
//! columns (`sharded_ms` at W = 4, `exchanged_tuples`, `shard_skew_pct`,
//! and `shard_scaling` rows at 1/2/4/8 shards whose `work_balance_x` is
//! the machine-independent load-balance ceiling — wall clock is bounded
//! by the header's `host_cpus`).
//!
//! Every report header is stamped with the git revision and a UTC
//! timestamp, and every case records the RNG seed of its input structure,
//! so a committed JSON identifies its provenance exactly.
//!
//! [`smoke_check`] cross-validates the demand paths against the eager
//! ones (same answers, no extra derivations), the cost-based planner
//! against textual-order evaluation (stage-identical runs, no extra
//! probes), and the generic worst-case-optimal lowering against the
//! binary kernels (stage-identical fixpoints under both forced
//! lowerings); [`regression_check`] compares freshly measured engine
//! counters against a committed `BENCH_datalog.json` and flags >10%
//! regressions. Both are wired to the harness's `--smoke` flag for CI.

use crate::microbench::time_fn;
use kv_core::datalog::programs::{avoiding_path, q_kl, transitive_closure, triangles};
use kv_core::datalog::{
    BindingPattern, DurabilityOptions, DurableEngine, EvalOptions, Evaluator, Fact, IdbId,
    IncrementalEngine, JoinLowering, MagicProgram, PlannerMode, Program,
};
use kv_core::pebble::win_iteration::solve_by_win_iteration;
use kv_core::pebble::ExistentialGame;
use kv_core::structures::generators::{directed_path, random_digraph};
use kv_core::structures::govern::{Budget, CancelToken, Deadline, Governor};
use kv_core::structures::par::thread_count;
use kv_core::structures::persist::SegmentedLog;
use kv_core::structures::{Digraph, Element, HomKind, SplitMix64, Structure};
use std::time::Duration;

/// A governor with every interrupt source armed (step budget, deadline,
/// cancellation token) but none close to tripping: the cost it measures
/// is pure governance accounting, not interruption handling.
fn armed_governor() -> Governor {
    Governor::new(
        Budget::steps(u64::MAX / 2),
        Deadline::within(Duration::from_secs(3600)),
        CancelToken::new(),
    )
}

/// Percent overhead of `governed` over `plain`, from the *minimum*
/// observed times (the standard microbenchmark noise filter). Not clamped:
/// a negative value means the difference is within timer noise.
fn overhead_pct(plain: Duration, governed: Duration) -> f64 {
    let p = plain.as_secs_f64();
    let g = governed.as_secs_f64();
    if p <= 0.0 {
        return 0.0;
    }
    (g - p) / p * 100.0
}

/// A flat JSON object: keys paired with pre-rendered JSON values.
pub(crate) struct Obj(pub(crate) Vec<(String, String)>);

impl Obj {
    pub(crate) fn new() -> Self {
        Self(Vec::new())
    }
    pub(crate) fn str(mut self, k: &str, v: &str) -> Self {
        self.0.push((k.into(), format!("\"{v}\"")));
        self
    }
    pub(crate) fn num(mut self, k: &str, v: impl std::fmt::Display) -> Self {
        self.0.push((k.into(), v.to_string()));
        self
    }
    /// A pre-rendered JSON value (nested array/object), inserted verbatim.
    pub(crate) fn raw(mut self, k: &str, v: String) -> Self {
        self.0.push((k.into(), v));
        self
    }
    pub(crate) fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The current git revision (short hash, `-dirty` suffixed when the work
/// tree has modifications), or `"unknown"` outside a git checkout.
pub(crate) fn git_revision() -> String {
    let out = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match out(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = out(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        _ => "unknown".into(),
    }
}

/// The current time as `YYYY-MM-DDTHH:MM:SSZ`, derived from the system
/// clock with the standard civil-from-days conversion (no date crate —
/// the workspace builds offline with zero external dependencies).
pub(crate) fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (hh, mm, ss) = (rem / 3_600, rem % 3_600 / 60, rem % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the entire
    // u64 range we can encounter.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// Physical CPUs of the measuring host — provenance for every wall-clock
/// column. Sharded wall times cannot beat this bound no matter how well
/// the partition balances; the machine-independent `work_balance_x`
/// column is the signal to read on small hosts.
pub(crate) fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub(crate) fn render_report(cases: &[Obj]) -> String {
    let rows: Vec<String> = cases
        .iter()
        .map(|c| format!("    {}", c.render()))
        .collect();
    format!(
        "{{\n  \"revision\": \"{}\",\n  \"generated_utc\": \"{}\",\n  \"threads\": {},\n  \"host_cpus\": {},\n  \"cases\": [\n{}\n  ]\n}}\n",
        git_revision(),
        utc_timestamp(),
        thread_count(),
        host_cpus(),
        rows.join(",\n")
    )
}

pub(crate) fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The pebble-report workload: `(name, A, B, k, seed)` — `seed` is the
/// RNG seed of the case's input structures (`0` for the deterministic
/// path families; random pairs use `seed` and `seed + 1`). The
/// Duplicator-win cases are where the lazy solver's early termination
/// pays — it stops as soon as a forth-closed witness family around the
/// root is complete.
fn pebble_instances() -> Vec<(String, Structure, Structure, usize, u64)> {
    vec![
        (
            "path_9_vs_8_k2".into(),
            directed_path(9),
            directed_path(8),
            2,
            0,
        ),
        (
            "path_7_vs_6_k3".into(),
            directed_path(7),
            directed_path(6),
            3,
            0,
        ),
        (
            "path_7_vs_9_k2".into(),
            directed_path(7),
            directed_path(9),
            2,
            0,
        ),
        (
            "path_6_vs_8_k3".into(),
            directed_path(6),
            directed_path(8),
            3,
            0,
        ),
        (
            "random_7_vs_7_k2".into(),
            random_digraph(7, 0.3, 42).to_structure(),
            random_digraph(7, 0.3, 43).to_structure(),
            2,
            42,
        ),
        (
            "random_6_vs_6_k3".into(),
            random_digraph(6, 0.3, 44).to_structure(),
            random_digraph(6, 0.3, 45).to_structure(),
            3,
            44,
        ),
    ]
}

/// The Datalog-report workload: `(name, program, input, goal tuple,
/// seed)` — `seed` is the RNG seed of the case's input digraph. The goal
/// tuple is the bounded query the demand columns measure — every goal
/// position bound, so the magic-set rewrite seeds from the full tuple.
fn datalog_instances() -> Vec<(String, Program, Structure, Vec<Element>, u64)> {
    vec![
        (
            "tc_n60_p0.06".into(),
            transitive_closure(),
            random_digraph(60, 0.06, 7).to_structure(),
            vec![0, 59],
            7,
        ),
        (
            "avoiding_path_n16_p0.12".into(),
            avoiding_path(),
            random_digraph(16, 0.12, 8).to_structure(),
            vec![0, 15, 7],
            8,
        ),
        (
            "q_2_1_n12_p0.15".into(),
            q_kl(2, 1),
            random_digraph(12, 0.15, 9).to_structure(),
            vec![0, 10, 11, 5],
            9,
        ),
        // The cyclic triangle body on a skewed layered input: the case
        // where the planner's Auto lowering flips to the worst-case-optimal
        // generic join and the per-variable intersection prunes the m³
        // path set a binary join must enumerate.
        (
            "tri_layered_m12_b3".into(),
            triangles(),
            layered_triangle_structure(12, 3),
            vec![0, 12, 24],
            0,
        ),
    ]
}

/// A layered tripartite digraph: complete bipartite stages `L → M` and
/// `M → R` of width `m`, plus `back` edges `R → L` closing a few
/// triangles. This is the canonical skew case for worst-case-optimal
/// joins: a binary plan probes every one of the `m³` `L → M → R` paths
/// before the closing edge check fails, while the generic join's
/// variable-at-a-time intersection dead-ends immediately on every seed
/// edge whose source has no `R`-predecessor.
fn layered_triangle_structure(m: u32, back: u32) -> Structure {
    let mut g = Digraph::new(3 * m as usize);
    for a in 0..m {
        for b in 0..m {
            g.add_edge(a, m + b);
            g.add_edge(m + a, 2 * m + b);
        }
    }
    for i in 0..back.min(m) {
        g.add_edge(2 * m + i, i);
    }
    g.to_structure()
}

/// Pebble-game solver report: arena size, propagation edge count, and the
/// wall time of the worklist solver next to the paper's naive `Win_k`
/// value iteration and the lazy demand-driven solver on the same instance.
pub fn pebble_report() -> String {
    let mut cases = Vec::new();
    for (name, a, b, k, seed) in &pebble_instances() {
        let game = ExistentialGame::solve(a, b, *k, HomKind::OneToOne);
        let lazy_game = ExistentialGame::solve_lazy(a, b, *k, HomKind::OneToOne);
        let worklist = time_fn(2, 15, || {
            ExistentialGame::solve(a, b, *k, HomKind::OneToOne).winner()
        });
        let naive = time_fn(1, 5, || {
            solve_by_win_iteration(a, b, *k, HomKind::OneToOne).0
        });
        let lazy = time_fn(2, 15, || {
            ExistentialGame::solve_lazy(a, b, *k, HomKind::OneToOne).winner()
        });
        let governed = time_fn(2, 15, || {
            let gov = armed_governor();
            match ExistentialGame::try_solve(a, b, *k, HomKind::OneToOne, &gov) {
                Ok(game) => game.winner(),
                Err(e) => unreachable!("armed-but-ample governor interrupted: {e}"),
            }
        });
        cases.push(
            Obj::new()
                .str("name", name)
                .num("k", k)
                .num("seed", seed)
                .num("threads", thread_count())
                .num("arena_size", game.arena_size())
                .num("arena_edges", game.arena_edge_count())
                .num("lazy_arena_size", lazy_game.arena_size())
                .num("worklist_ms", format!("{:.4}", ms(worklist.median)))
                .num("value_iteration_ms", format!("{:.4}", ms(naive.median)))
                .num("lazy_ms", format!("{:.4}", ms(lazy.median)))
                .num("governed_ms", format!("{:.4}", ms(governed.median)))
                .num(
                    "governance_overhead_pct",
                    format!("{:.2}", overhead_pct(worklist.min, governed.min)),
                ),
        );
    }
    render_report(&cases)
}

/// The churn set of a mutation workload: the first `k` tuples of the
/// structure's first relation (the EDB edges every case mutates).
pub(crate) fn churn_set(s: &Structure, k: usize) -> Vec<Fact> {
    let rel = match s.vocabulary().relations().next() {
        Some(r) => r,
        None => return Vec::new(),
    };
    s.relation(rel)
        .iter()
        .take(k)
        .map(|t| (rel, t.to_vec()))
        .collect()
}

/// One steady-state maintenance round against a live engine: retract the
/// churn set, then reinsert it (two batches). Returns the second batch's
/// summary (the reinsertion delta).
fn churn_round(engine: &mut IncrementalEngine, churn: &[Fact]) -> kv_core::datalog::BatchSummary {
    engine.apply_batch(&[], churn);
    engine.apply_batch(churn, &[])
}

/// Every EDB fact of `s`, as the seed batch that loads a fresh durable
/// directory (epoch 1 of the WAL).
fn edb_facts(s: &Structure) -> Vec<Fact> {
    let mut facts = Vec::new();
    for rel in s.vocabulary().relations() {
        for t in s.relation(rel).iter() {
            facts.push((rel, t.to_vec()));
        }
    }
    facts
}

/// A per-case scratch directory for durable-engine measurements, namespaced
/// by pid and a per-process call counter so neither concurrent harness runs
/// nor concurrent report builds in one process (the unit tests) collide.
/// The caller removes it when done; a stale leftover from a killed run is
/// clobbered here.
fn durable_scratch_dir(tag: &str, case: &str) -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("kv-{tag}-{}-{call}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Percent saved by `planned` relative to `textual` (0 when the textual
/// count is zero or the planned count is no smaller).
fn savings_pct(textual: u64, planned: u64) -> f64 {
    if textual == 0 || planned >= textual {
        return 0.0;
    }
    (textual - planned) as f64 / textual as f64 * 100.0
}

/// Datalog engine report: fixpoint size, stage count, the storage-engine
/// counters (interned tuples, join probes, duplicate derivations), wall
/// time of the default single-worker semi-naive run, the magic-set demand
/// columns for the case's bounded goal query, the cost-based planner
/// columns (`planned_*`, `scc_count`, `probe_savings_pct`), the
/// durability columns (`flush_overhead_pct`, `recovery_ms`), and the
/// sharded columns and shard-scaling rows.
pub fn datalog_report() -> String {
    let mut cases = Vec::new();
    for (name, program, s, query, seed) in &datalog_instances() {
        let ev = Evaluator::new(program);
        let opts = EvalOptions::default();
        let planned_opts = opts.with_planner(PlannerMode::CostBased);
        // Engine counters compare the two planner modes on single-worker
        // runs (deterministic counters).
        let result = ev.run(s, opts);
        let planned_result = ev.run(s, planned_opts);
        let sequential = time_fn(2, 15, || ev.run(s, opts).stats.len());
        let planned = time_fn(2, 15, || ev.run(s, planned_opts).stats.len());
        let governed = time_fn(2, 15, || {
            let gov = armed_governor();
            match ev.try_run_governed(s, opts, &gov) {
                Ok(result) => result.stats.len(),
                Err(e) => unreachable!("armed-but-ample governor interrupted: {e}"),
            }
        });
        // Sharded-evaluation columns: W = 4 hash-partitioned shards with
        // inter-worker delta exchange. Wall clock is honest for *this*
        // host (see the report's `host_cpus`); `shard_skew_pct` and the
        // scaling rows' `work_balance_x` are the machine-independent
        // signals — how evenly the planner's shard keys split the
        // derivation work.
        let sharded_result = ev.run(s, opts.with_shards(Some(4)));
        let sharded = time_fn(2, 15, || ev.run(s, opts.with_shards(Some(4))).stats.len());
        let (exchanged, skew) = sharded_result
            .shard
            .as_ref()
            .map(|ss| (ss.exchanged_tuples, ss.skew_pct()))
            .unwrap_or((0, 0.0));
        // Shard-scaling rows: W ∈ {1, 2, 4, 8}. `work_balance_x` is
        // total owned delta work over the most loaded worker's share —
        // the load-balance ceiling on parallel speedup, independent of
        // how many CPUs this host has.
        let shard_rows: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                let r = ev.run(s, opts.with_shards(Some(w)));
                let t = time_fn(1, 5, || ev.run(s, opts.with_shards(Some(w))).stats.len());
                let (exch, skew, balance) = r
                    .shard
                    .as_ref()
                    .map(|ss| {
                        let total: u64 = ss.owned.iter().sum();
                        let max = ss.owned.iter().copied().max().unwrap_or(0);
                        let balance = if max == 0 {
                            1.0
                        } else {
                            total as f64 / max as f64
                        };
                        (ss.exchanged_tuples, ss.skew_pct(), balance)
                    })
                    .unwrap_or((0, 0.0, 1.0));
                Obj::new()
                    .num("shards", w)
                    .num("sharded_ms", format!("{:.4}", ms(t.median)))
                    .num("exchanged_tuples", exch)
                    .num("shard_skew_pct", format!("{:.2}", skew))
                    .num("work_balance_x", format!("{:.2}", balance))
                    .render()
            })
            .collect();
        let pattern = BindingPattern::new(vec![true; query.len()]);
        // The bench programs are all rewritable; a failure here is a
        // report bug worth surfacing loudly.
        #[allow(clippy::expect_used)]
        let magic = MagicProgram::rewrite(program, &pattern).expect("bench program rewrites");
        let compiled = magic.compile();
        let seeds = [(magic.magic_goal(), magic.seed(query))];
        let demand_result = compiled.run_seeded(s, opts, &seeds);
        let demand = time_fn(2, 15, || compiled.run_seeded(s, opts, &seeds).stats.len());
        // Incremental maintenance columns: steady-state churn of a small
        // edge set (one retract batch + one reinsert batch per round)
        // against a live engine, vs. re-running the fixpoint from scratch
        // after every batch.
        let churn = churn_set(s, 4);
        let (mut engine, _) = IncrementalEngine::from_structure(program, s, opts);
        let dropped = engine.apply_batch(&[], &churn);
        let steady = engine.apply_batch(&churn, &[]);
        let incremental = time_fn(2, 15, || churn_round(&mut engine, &churn).epoch);
        // Durability columns. A durable round is the volatile round plus
        // exactly two framed WAL appends (the engine work is the same
        // code), so the flush tax is *measured directly* — time appends
        // of the engine's own average WAL record size — rather than
        // subtracted from two noisy end-to-end timings that cannot
        // resolve a few microseconds. `recovery_ms` is a cold reopen at
        // the realistic mid-cadence point: a checkpoint snapshot plus a
        // two-round WAL tail.
        let durable_dir = durable_scratch_dir("bench-durable", name);
        let durability = DurabilityOptions {
            checkpoint_every: 0, // checkpoint manually, below
            ..DurabilityOptions::default()
        };
        #[allow(clippy::expect_used)]
        let mut durable = DurableEngine::open(program, s, opts, &durable_dir, durability.clone())
            .expect("durable scratch dir opens");
        #[allow(clippy::expect_used)]
        durable
            .apply_batch(&edb_facts(s), &[])
            .expect("seed batch persists");
        let before = durable.flush_stats();
        for _ in 0..4 {
            #[allow(clippy::expect_used)]
            durable.apply_batch(&[], &churn).expect("retract persists");
            #[allow(clippy::expect_used)]
            durable.apply_batch(&churn, &[]).expect("reinsert persists");
        }
        let after = durable.flush_stats();
        let record_bytes =
            (after.wal_bytes - before.wal_bytes) / (after.wal_records - before.wal_records).max(1);
        let payload = vec![0u8; record_bytes as usize];
        #[allow(clippy::expect_used)]
        let mut tax_log = SegmentedLog::create(&durable_dir, "bench-flush-tax", 1 << 20)
            .expect("tax log creates");
        let flush_tax = time_fn(3, 31, || {
            #[allow(clippy::expect_used)]
            tax_log.append(&payload).expect("tax append");
            #[allow(clippy::expect_used)]
            tax_log.append(&payload).expect("tax append");
            2u64
        });
        drop(tax_log);
        SegmentedLog::remove_all(&durable_dir, "bench-flush-tax");
        #[allow(clippy::expect_used)]
        durable.checkpoint().expect("snapshot persists");
        for _ in 0..2 {
            #[allow(clippy::expect_used)]
            durable.apply_batch(&[], &churn).expect("retract persists");
            #[allow(clippy::expect_used)]
            durable.apply_batch(&churn, &[]).expect("reinsert persists");
        }
        drop(durable);
        let recovery = time_fn(1, 5, || {
            #[allow(clippy::expect_used)]
            DurableEngine::open(program, s, opts, &durable_dir, durability.clone())
                .expect("recovery succeeds")
                .epoch()
        });
        let _ = std::fs::remove_dir_all(&durable_dir);
        let flush_overhead =
            flush_tax.median.as_secs_f64() / incremental.median.as_secs_f64().max(1e-12) * 100.0;
        cases.push(
            Obj::new()
                .str("name", name)
                .num("seed", seed)
                .num("threads", thread_count())
                .num("stages", result.stage_count())
                .num("tuples", result.idb.iter().map(|r| r.len()).sum::<usize>())
                .num("tuples_interned", result.eval_stats.tuples_interned)
                .num("join_probes", result.eval_stats.join_probes)
                .num(
                    "duplicate_derivations",
                    result.eval_stats.duplicate_derivations,
                )
                .num("planned_join_probes", planned_result.eval_stats.join_probes)
                .num(
                    "planned_duplicate_derivations",
                    planned_result.eval_stats.duplicate_derivations,
                )
                .num(
                    "planned_block_probes",
                    planned_result.eval_stats.block_probes,
                )
                .num(
                    "planned_gallop_steps",
                    planned_result.eval_stats.gallop_steps,
                )
                .num("planned_wcoj_rules", planned_result.eval_stats.wcoj_rules)
                .num("scc_count", ev.compiled().scc_count())
                .num(
                    "probe_savings_pct",
                    format!(
                        "{:.2}",
                        savings_pct(
                            result.eval_stats.join_probes,
                            planned_result.eval_stats.join_probes,
                        )
                    ),
                )
                .num("demand_tuples", demand_result.eval_stats.tuples_interned)
                .num("magic_probes", demand_result.eval_stats.magic_probes)
                .num("sequential_ms", format!("{:.4}", ms(sequential.median)))
                .num("planned_ms", format!("{:.4}", ms(planned.median)))
                .num("sharded_ms", format!("{:.4}", ms(sharded.median)))
                .num("exchanged_tuples", exchanged)
                .num("shard_skew_pct", format!("{:.2}", skew))
                .num("demand_ms", format!("{:.4}", ms(demand.median)))
                // Per maintenance round (one retract + one reinsert batch
                // of the churn set) against the live engine.
                .num("incremental_ms", format!("{:.4}", ms(incremental.median)))
                // Durable engine: WAL tax per maintenance round, and the
                // wall time of a cold reopen (recovery) of its directory.
                .num("flush_overhead_pct", format!("{:.2}", flush_overhead))
                .num("recovery_ms", format!("{:.4}", ms(recovery.median)))
                .num("delta_tuples", steady.delta_tuples)
                .num("rederived_tuples", dropped.rederived_tuples)
                .num("governed_ms", format!("{:.4}", ms(governed.median)))
                .num(
                    "governance_overhead_pct",
                    format!("{:.2}", overhead_pct(sequential.min, governed.min)),
                )
                .raw("shard_scaling", format!("[{}]", shard_rows.join(", "))),
        );
    }
    cases.push(mutation_case());
    render_report(&cases)
}

/// A disjoint union of `blocks` random digraphs of `k` nodes each: the
/// steady-state "live service" shape of the mutation workload, where the
/// EDB is many independent tenants/regions and any one batch only touches
/// one of them. Edges are sampled independently within each block with
/// probability `p`; there are no cross-block edges, so a mutation's blast
/// radius is bounded by its own component's closure.
pub(crate) fn component_graph(blocks: usize, k: usize, p: f64, seed: u64) -> Structure {
    let mut g = Digraph::new(blocks * k);
    let mut rng = SplitMix64::seed_from_u64(seed);
    for b in 0..blocks {
        for u in 0..k {
            for v in 0..k {
                if u != v && rng.gen_bool(p) {
                    g.add_edge((b * k + u) as u32, (b * k + v) as u32);
                }
            }
        }
    }
    g.to_structure()
}

/// The dedicated mutation workload: `transitive_closure` over a
/// multi-tenant component graph (48 disjoint random blocks of 12 nodes),
/// churning a 4-edge set inside one block (one retract batch + one
/// reinsert batch per round) against a live [`IncrementalEngine`].
/// `scratch_ms` is the cost of re-running the from-scratch fixpoint after
/// each of the round's two batches; `speedup_x` is scratch-per-round over
/// incremental-per-round — the steady-state advantage of maintenance.
///
/// The component shape is the honest setting for maintenance: deletion
/// work is proportional to the mutated block's closure, not the whole
/// EDB's. (On a single dense SCC, retracting a few edges overdeletes
/// almost the entire closure; the recompute guard then rederives the SCC
/// from its exit rules, at about the cost of a from-scratch run; see
/// DESIGN.md §9.)
fn mutation_case() -> Obj {
    let program = transitive_closure();
    let s = component_graph(48, 12, 0.25, 7);
    let churn = churn_set(&s, 4);
    let ev = Evaluator::new(&program);
    let opts = EvalOptions::default();
    let (mut engine, _) = IncrementalEngine::from_structure(&program, &s, opts);
    let dropped = engine.apply_batch(&[], &churn);
    let steady = engine.apply_batch(&churn, &[]);
    let round = time_fn(2, 15, || churn_round(&mut engine, &churn).epoch);
    let scratch = time_fn(2, 15, || ev.run(&s, opts).stats.len());
    let speedup = (2.0 * scratch.median.as_secs_f64()) / round.median.as_secs_f64().max(1e-9);
    // Shard-scaling rows for maintenance: the same churn round through
    // engines pinned at W ∈ {1, 2, 4, 8} shards. Batch routing is
    // exercised end to end (owner-sorted appends, per-stage exchange);
    // `exchanged_tuples` counts the reinsert batch's cross-worker
    // traffic. Wall clock is bounded by the report's `host_cpus`.
    let shard_rows: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| {
            let w_opts = opts.with_shards(Some(w));
            let (mut sharded_engine, _) = IncrementalEngine::from_structure(&program, &s, w_opts);
            sharded_engine.apply_batch(&[], &churn);
            let summary = sharded_engine.apply_batch(&churn, &[]);
            let t = time_fn(1, 9, || churn_round(&mut sharded_engine, &churn).epoch);
            Obj::new()
                .num("shards", w)
                .num("incremental_ms", format!("{:.4}", ms(t.median)))
                .num("exchanged_tuples", summary.exchanged_tuples)
                .render()
        })
        .collect();
    Obj::new()
        .str("name", "tc_mutation_tenants48x12_churn4")
        .num("seed", 7)
        .num("threads", thread_count())
        .num("churn_edges", churn.len())
        .num("incremental_ms", format!("{:.4}", ms(round.median)))
        .num("scratch_ms", format!("{:.4}", ms(scratch.median)))
        .num("speedup_x", format!("{:.2}", speedup))
        .num("delta_tuples", steady.delta_tuples)
        .num("deleted_tuples", dropped.deleted_tuples)
        .num("rederived_tuples", dropped.rederived_tuples)
        .raw("shard_scaling", format!("[{}]", shard_rows.join(", ")))
}

/// The `--smoke` durability gate for one case: loads `s` plus one churn
/// round (retract then reinsert) through a [`DurableEngine`] in a scratch
/// directory, drops the handle, recovers from disk, and compares the
/// recovered engine against `baseline` — a volatile engine that applied
/// the same batches. The cadence of 2 makes the run cross a checkpoint
/// *and* leave a WAL tail, so recovery exercises both the snapshot path
/// and replay. Every EDB relation must match live-tuple-for-live-tuple
/// with equal support counts, and every IDB must hold exactly the same
/// set. Returns the violations (empty = pass).
fn durable_recovery_check(
    name: &str,
    program: &Program,
    s: &Structure,
    churn: &[Fact],
    baseline: &IncrementalEngine,
) -> Vec<String> {
    let mut violations = Vec::new();
    let dir = durable_scratch_dir("smoke-durable", name);
    let durability = DurabilityOptions {
        checkpoint_every: 2,
        ..DurabilityOptions::default()
    };
    let opts = EvalOptions::default();
    let written = (|| -> Result<(), kv_core::datalog::RecoveryError> {
        let mut durable = DurableEngine::open(program, s, opts, &dir, durability.clone())?;
        durable.apply_batch(&edb_facts(s), &[])?;
        durable.apply_batch(&[], churn)?;
        durable.apply_batch(churn, &[])?;
        Ok(())
    })();
    if let Err(e) = written {
        violations.push(format!("{name}: durable batches failed to persist: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        return violations;
    }
    match DurableEngine::open(program, s, opts, &dir, durability) {
        Err(e) => violations.push(format!("{name}: durable recovery failed: {e}")),
        Ok(recovered) => {
            let rec = recovered.engine();
            for rel in s.vocabulary().relations() {
                let base = baseline.edb_store(rel);
                let got = rec.edb_store(rel);
                let same = base.live_len() == got.live_len()
                    && base.live_iter().all(|t| {
                        let bs = base.lookup(t).map(|id| base.support(id));
                        let gs = got.lookup(t).map(|id| got.support(id));
                        got.contains_live(t) && bs == gs
                    });
                if !same {
                    violations.push(format!(
                        "{name}: recovered EDB relation {} != volatile engine",
                        rel.0
                    ));
                }
            }
            for i in 0..program.idb_count() {
                let base = baseline.idb_store(IdbId(i));
                let got = rec.idb_store(IdbId(i));
                let same = base.live_len() == got.live_len()
                    && base.live_iter().all(|t| got.contains_live(t));
                if !same {
                    violations.push(format!("{name}: recovered IDB {i} != volatile engine"));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    violations
}

/// CI gate over the demand paths and the cost-based planner, on the exact
/// report workloads:
///
/// * every Datalog case's magic-set run must give the same answer to the
///   bounded goal query as full saturation, without deriving more tuples;
/// * every Datalog case's cost-based run must be stage-identical to the
///   textual run, reach the same fixpoint, and issue no more join probes
///   or duplicate derivations;
/// * every Datalog case must reach the same fixpoint through the same
///   stages under both forced join lowerings (`Binary` vs `Generic` —
///   the worst-case-optimal executor is a pure execution-strategy swap);
/// * every Datalog case's sharded run (W ∈ {1, 4} hash-partitioned
///   shards with delta exchange) must be stage-identical to the
///   unsharded run with the same fixpoint, and a single shard must
///   exchange nothing;
/// * every Datalog case's incremental engine, after a churn batch
///   (retract then reinsert a small edge set), must hold exactly the
///   from-scratch fixpoint of its materialized EDB;
/// * every Datalog case's durable engine, re-opened from disk after the
///   same batches (crossing a checkpoint and leaving a WAL tail), must
///   match the volatile engine tuple-for-tuple with equal support counts;
/// * every pebble case's lazy solver must name the same winner as the
///   eager worklist solver, with an arena no larger.
///
/// Returns the list of violations (empty = pass).
pub fn smoke_check() -> Vec<String> {
    let mut violations = Vec::new();
    for (name, program, s, query, _seed) in &datalog_instances() {
        let ev = Evaluator::new(program);
        let full = ev.run(s, EvalOptions::default());
        // Incremental ≡ scratch: after each batch of the churn round the
        // maintained IDB must equal a from-scratch fixpoint over the
        // engine's own materialized EDB.
        let churn = churn_set(s, 4);
        let (mut engine, _) = IncrementalEngine::from_structure(program, s, EvalOptions::default());
        for phase in ["retract", "reinsert"] {
            if phase == "retract" {
                engine.apply_batch(&[], &churn);
            } else {
                engine.apply_batch(&churn, &[]);
            }
            let scratch = ev.run(&engine.edb_structure(), EvalOptions::default());
            for i in 0..program.idb_count() {
                let store = engine.idb_store(IdbId(i));
                let same = store.live_len() == scratch.idb[i].len()
                    && scratch.idb[i].iter().all(|t| store.contains_live(t));
                if !same {
                    violations.push(format!(
                        "{name}: incremental IDB {i} after {phase} batch != from-scratch fixpoint"
                    ));
                }
            }
        }
        // Recovered ≡ clean: the same load and churn round through a
        // durable engine, killed (dropped) and re-opened from disk, must
        // reproduce this volatile engine's state tuple-for-tuple.
        violations.extend(durable_recovery_check(name, program, s, &churn, &engine));
        let full_holds = full.idb[program.goal().0].contains(&query[..]);
        let full_tuples = full.eval_stats.tuples_interned;
        // Planned ≡ textual differential (single worker: exact counters).
        let seq = EvalOptions::default();
        let textual = ev.run(s, seq);
        let planned = ev.run(s, seq.with_planner(PlannerMode::CostBased));
        if !textual.same_stages(&planned) {
            violations.push(format!("{name}: planned run is not stage-identical"));
        }
        if textual.idb != planned.idb {
            violations.push(format!("{name}: planned fixpoint differs from textual"));
        }
        if planned.eval_stats.join_probes > textual.eval_stats.join_probes {
            violations.push(format!(
                "{name}: planned join_probes {} > textual {}",
                planned.eval_stats.join_probes, textual.eval_stats.join_probes
            ));
        }
        if planned.eval_stats.duplicate_derivations > textual.eval_stats.duplicate_derivations {
            violations.push(format!(
                "{name}: planned duplicate_derivations {} > textual {}",
                planned.eval_stats.duplicate_derivations, textual.eval_stats.duplicate_derivations
            ));
        }
        // Sharded ≡ unsharded: hash-partitioned evaluation is a pure
        // work-partitioning swap — stage identity and the fixpoint are
        // shard-count-free, and a single shard exchanges nothing.
        for w in [1usize, 4] {
            let sharded = ev.run(s, EvalOptions::default().with_shards(Some(w)));
            if !sharded.same_stages(&full) {
                violations.push(format!(
                    "{name}: sharded (W={w}) run is not stage-identical to unsharded"
                ));
            }
            for (i, (a, b)) in full.idb.iter().zip(&sharded.idb).enumerate() {
                let same = a.len() == b.len() && a.iter().all(|t| b.contains(t));
                if !same {
                    violations.push(format!(
                        "{name}: sharded (W={w}) IDB {i} differs from unsharded fixpoint"
                    ));
                }
            }
            let exchanged = sharded.shard.as_ref().map_or(0, |ss| ss.exchanged_tuples);
            if w == 1 && exchanged != 0 {
                violations.push(format!(
                    "{name}: single-shard run exchanged {exchanged} tuple(s)"
                ));
            }
        }
        // Generic ≡ binary differential: the worst-case-optimal lowering
        // must be a pure execution-strategy swap (same fixpoint, same
        // stage structure) on every report workload.
        let binary = ev.run(
            s,
            seq.with_planner(PlannerMode::CostBased)
                .with_lowering(JoinLowering::Binary),
        );
        let generic = ev.run(
            s,
            seq.with_planner(PlannerMode::CostBased)
                .with_lowering(JoinLowering::Generic),
        );
        if binary.idb != generic.idb {
            violations.push(format!(
                "{name}: generic lowering fixpoint differs from binary"
            ));
        }
        if !binary.same_stages(&generic) {
            violations.push(format!(
                "{name}: generic lowering is not stage-identical to binary"
            ));
        }
        let pattern = BindingPattern::new(vec![true; query.len()]);
        let magic = match MagicProgram::rewrite(program, &pattern) {
            Ok(m) => m,
            Err(e) => {
                violations.push(format!("{name}: magic rewrite failed: {e}"));
                continue;
            }
        };
        let seeds = [(magic.magic_goal(), magic.seed(query))];
        let demand = magic
            .compile()
            .run_seeded(s, EvalOptions::default(), &seeds);
        let demand_holds = demand.idb[magic.goal().0].contains(&query[..]);
        if demand_holds != full_holds {
            violations.push(format!(
                "{name}: demand answer {demand_holds} != full answer {full_holds}"
            ));
        }
        if demand.eval_stats.tuples_interned > full_tuples {
            violations.push(format!(
                "{name}: demand_tuples {} > tuples {}",
                demand.eval_stats.tuples_interned, full_tuples
            ));
        }
    }
    for (name, a, b, k, _seed) in &pebble_instances() {
        let eager = ExistentialGame::solve(a, b, *k, HomKind::OneToOne);
        let lazy = ExistentialGame::solve_lazy(a, b, *k, HomKind::OneToOne);
        if lazy.winner() != eager.winner() {
            violations.push(format!(
                "{name}: lazy winner {:?} != eager winner {:?}",
                lazy.winner(),
                eager.winner()
            ));
        }
        if lazy.arena_size() > eager.arena_size() {
            violations.push(format!(
                "{name}: lazy arena {} > eager arena {}",
                lazy.arena_size(),
                eager.arena_size()
            ));
        }
    }
    violations
}

/// Extracts the numeric value of `key` inside the case object named
/// `case` from a report rendered by this module (one flat object per
/// line). Returns `None` when the case or key is absent — committed
/// reports predating a column simply skip its gate.
fn extract_case_num(report: &str, case: &str, key: &str) -> Option<f64> {
    let line = report
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{case}\"")))?;
    let tail = line.split(&format!("\"{key}\": ")).nth(1)?;
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// CI regression gate over the engine counters: re-measures every Datalog
/// case and compares `join_probes` / `duplicate_derivations` (both
/// planner modes) against the committed `BENCH_datalog.json` contents.
/// A counter more than 10% above its committed value is a violation;
/// counters are deterministic for fixed seeds, so anything beyond noise
/// margin means an engine regression. Returns the violations (empty =
/// pass); missing cases or columns in the committed report are skipped.
pub fn regression_check(committed: &str) -> Vec<String> {
    const TOLERANCE: f64 = 1.10;
    let mut violations = Vec::new();
    for (name, program, s, _query, _seed) in &datalog_instances() {
        let ev = Evaluator::new(program);
        let seq = EvalOptions::default();
        let textual = ev.run(s, seq);
        let planned = ev.run(s, seq.with_planner(PlannerMode::CostBased));
        let measured: [(&str, u64); 6] = [
            ("join_probes", textual.eval_stats.join_probes),
            (
                "duplicate_derivations",
                textual.eval_stats.duplicate_derivations,
            ),
            ("planned_join_probes", planned.eval_stats.join_probes),
            (
                "planned_duplicate_derivations",
                planned.eval_stats.duplicate_derivations,
            ),
            ("planned_block_probes", planned.eval_stats.block_probes),
            ("planned_gallop_steps", planned.eval_stats.gallop_steps),
        ];
        for (key, current) in measured {
            let Some(baseline) = extract_case_num(committed, name, key) else {
                continue;
            };
            if (current as f64) > baseline * TOLERANCE {
                violations.push(format!(
                    "{name}: {key} {current} regressed >10% over committed {baseline}"
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_well_formed() {
        for report in [pebble_report(), datalog_report()] {
            assert!(report.starts_with("{\n  \"revision\":"));
            assert!(report.trim_end().ends_with('}'));
            assert_eq!(
                report.matches('{').count(),
                report.matches('}').count(),
                "balanced braces"
            );
            assert!(report.contains("\"cases\": ["));
            assert!(report.contains("\"generated_utc\""));
            assert!(report.contains("\"threads\""));
            assert!(report.contains("\"seed\""));
        }
        let datalog = datalog_report();
        assert!(datalog.contains("\"demand_tuples\""));
        assert!(datalog.contains("\"planned_ms\""));
        assert!(datalog.contains("\"scc_count\""));
        assert!(datalog.contains("\"probe_savings_pct\""));
        assert!(datalog.contains("\"planned_block_probes\""));
        assert!(datalog.contains("\"planned_gallop_steps\""));
        assert!(datalog.contains("\"planned_wcoj_rules\""));
        assert!(datalog.contains("\"tri_layered_m12_b3\""));
        assert!(datalog.contains("\"incremental_ms\""));
        assert!(datalog.contains("\"flush_overhead_pct\""));
        assert!(datalog.contains("\"recovery_ms\""));
        assert!(datalog.contains("\"delta_tuples\""));
        assert!(datalog.contains("\"rederived_tuples\""));
        assert!(datalog.contains("\"tc_mutation_tenants48x12_churn4\""));
        assert!(datalog.contains("\"speedup_x\""));
        assert!(datalog.contains("\"sequential_ms\""));
        assert!(!datalog.contains("\"scaling\""));
        assert!(!datalog.contains("\"parallel_ms\""));
        assert!(datalog.contains("\"host_cpus\""));
        assert!(datalog.contains("\"sharded_ms\""));
        assert!(datalog.contains("\"exchanged_tuples\""));
        assert!(datalog.contains("\"shard_skew_pct\""));
        assert!(datalog.contains("\"work_balance_x\""));
        assert!(datalog.contains("\"shard_scaling\": [{\"shards\": 1,"));
        assert!(pebble_report().contains("\"lazy_arena_size\""));
    }

    #[test]
    fn utc_timestamp_is_iso_shaped() {
        let t = utc_timestamp();
        assert_eq!(t.len(), 20, "{t}");
        assert_eq!(&t[4..5], "-");
        assert_eq!(&t[10..11], "T");
        assert!(t.ends_with('Z'), "{t}");
    }

    #[test]
    fn smoke_check_passes_on_the_report_workloads() {
        let violations = smoke_check();
        assert!(violations.is_empty(), "smoke violations: {violations:?}");
    }

    #[test]
    fn regression_check_accepts_current_counters_and_flags_inflated_ones() {
        // A committed report that matches today's counters passes…
        let committed = datalog_report();
        let violations = regression_check(&committed);
        assert!(violations.is_empty(), "regressions: {violations:?}");
        // …and one whose counters are much smaller (as if the engine had
        // since regressed >10% relative to it) fails.
        let shrunk = committed
            .lines()
            .map(|l| {
                if l.contains("\"name\":") {
                    l.replace("\"join_probes\": ", "\"join_probes\": 0.")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            !regression_check(&shrunk).is_empty(),
            "shrunken baseline must flag regressions"
        );
        // Reports missing the planner columns entirely (older baselines)
        // are tolerated.
        assert!(regression_check("{}").is_empty());
    }
}
