//! Machine-readable counter reports (`BENCH_pebble.json`,
//! `BENCH_datalog.json`), emitted by the harness binary.
//!
//! Every column is a count, or a ratio of counts, that a fixed seed
//! reproduces on any machine; the reports carry no wall time. Timings come
//! from the repository benchmark (`benchmark/`), which reports each one
//! with its run count and spread.
//!
//! The JSON is hand-rolled (the workspace builds offline with zero
//! external dependencies): every value is a number, a string of known-safe
//! characters, or a flat object, so no escaping machinery is needed.
//!
//! The pebble report gives the eager solver's `arena_size` and
//! `arena_edges` next to the lazy, root-directed solver's
//! `lazy_arena_size`. Each Datalog case gives:
//! - the from-scratch counters (`stages`, `tuples`, `tuples_interned`,
//!   `join_probes`, `duplicate_derivations`);
//! - the cost-based planner columns (`planned_join_probes`,
//!   `planned_duplicate_derivations`, `planned_block_probes`,
//!   `planned_gallop_steps`, `planned_wcoj_rules`, `scc_count`,
//!   `probe_savings_pct`);
//! - the magic-set demand columns for the case's bounded goal query
//!   (`demand_tuples`, `magic_probes`);
//! - the sharded columns at W = 4 (`exchanged_tuples`, `shard_skew_pct`)
//!   and `shard_scaling` rows at 1/2/4/8 shards, whose `work_balance_x` is
//!   the load-balance ceiling on parallel speedup;
//! - the maintenance columns of one churn round (`delta_tuples`,
//!   `rederived_tuples`).
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
//! lowerings); [`regression_check`] compares a freshly rendered
//! `BENCH_datalog.json` against the committed one and flags >10%
//! regressions of its engine counters. Both are wired to the harness's
//! `--smoke` flag for CI.

use kv_core::datalog::programs::{avoiding_path, q_kl, transitive_closure, triangles};
use kv_core::datalog::{
    BindingPattern, DurabilityOptions, DurableEngine, EvalOptions, EvalResult, Evaluator, Fact,
    IdbId, IncrementalEngine, JoinLowering, MagicProgram, PlannerMode, Program,
};
use kv_core::pebble::ExistentialGame;
use kv_core::structures::generators::{directed_path, random_digraph};
use kv_core::structures::par::thread_count;
use kv_core::structures::{Digraph, Element, HomKind, SplitMix64, Structure};

/// A flat JSON object: keys paired with pre-rendered JSON values.
struct Obj(Vec<(String, String)>);

impl Obj {
    fn new() -> Self {
        Self(Vec::new())
    }
    fn str(mut self, k: &str, v: &str) -> Self {
        self.0.push((k.into(), format!("\"{v}\"")));
        self
    }
    fn num(mut self, k: &str, v: impl std::fmt::Display) -> Self {
        self.0.push((k.into(), v.to_string()));
        self
    }
    /// A pre-rendered JSON value (nested array/object), inserted verbatim.
    fn raw(mut self, k: &str, v: String) -> Self {
        self.0.push((k.into(), v));
        self
    }
    fn render(&self) -> String {
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
fn git_revision() -> String {
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
fn utc_timestamp() -> String {
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

fn render_report(cases: &[Obj]) -> String {
    let rows: Vec<String> = cases
        .iter()
        .map(|c| format!("    {}", c.render()))
        .collect();
    format!(
        "{{\n  \"revision\": \"{}\",\n  \"generated_utc\": \"{}\",\n  \"threads\": {},\n  \"cases\": [\n{}\n  ]\n}}\n",
        git_revision(),
        utc_timestamp(),
        thread_count(),
        rows.join(",\n")
    )
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

/// Pebble-game solver report: the eager worklist solver's arena size and
/// propagation edge count next to the lazy demand-driven solver's arena
/// size on the same instance.
pub fn pebble_report() -> String {
    let cases: Vec<Obj> = pebble_instances()
        .iter()
        .map(|(name, a, b, k, seed)| {
            let game = ExistentialGame::solve(a, b, *k, HomKind::OneToOne);
            let lazy_game = ExistentialGame::solve_lazy(a, b, *k, HomKind::OneToOne);
            Obj::new()
                .str("name", name)
                .num("k", k)
                .num("seed", seed)
                .num("threads", thread_count())
                .num("arena_size", game.arena_size())
                .num("arena_edges", game.arena_edge_count())
                .num("lazy_arena_size", lazy_game.arena_size())
        })
        .collect();
    render_report(&cases)
}

/// The churn set of a mutation workload: the first `k` tuples of the
/// structure's first relation (the EDB edges every case mutates).
fn churn_set(s: &Structure, k: usize) -> Vec<Fact> {
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

/// A per-case scratch directory for the durability gate, namespaced by pid
/// and a per-process call counter so neither concurrent harness runs nor
/// concurrent checks in one process (the unit tests) collide. The caller
/// removes it when done; a stale leftover from a killed run is clobbered
/// here.
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

/// The shard counters of a sharded run: exchanged tuples, load skew, and
/// `work_balance_x` — total owned delta work over the most loaded worker's
/// share, the load-balance ceiling on parallel speedup.
fn shard_counters(result: &EvalResult) -> (u64, f64, f64) {
    result
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
        .unwrap_or((0, 0.0, 1.0))
}

/// Renders rows as a JSON array.
fn render_rows(rows: &[Obj]) -> String {
    let rows: Vec<String> = rows.iter().map(Obj::render).collect();
    format!("[{}]", rows.join(", "))
}

/// Datalog engine report: fixpoint size, stage count and storage-engine
/// counters of the default single-worker semi-naive run, the cost-based
/// planner columns, the magic-set demand columns for the case's bounded
/// goal query, the sharded columns and shard-scaling rows, and the
/// counters of one maintenance churn round.
pub fn datalog_report() -> String {
    let mut cases = Vec::new();
    for (name, program, s, query, seed) in &datalog_instances() {
        let ev = Evaluator::new(program);
        let opts = EvalOptions::default();
        let result = ev.run(s, opts);
        let planned = ev.run(s, opts.with_planner(PlannerMode::CostBased));
        // Sharded columns: W hash-partitioned shards with inter-worker
        // delta exchange; the case's own columns are the W = 4 run's.
        let shards: Vec<(usize, (u64, f64, f64))> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| (w, shard_counters(&ev.run(s, opts.with_shards(Some(w))))))
            .collect();
        let (exchanged, skew, _) = shards[2].1;
        let shard_rows: Vec<Obj> = shards
            .iter()
            .map(|&(w, (exchanged, skew, balance))| {
                Obj::new()
                    .num("shards", w)
                    .num("exchanged_tuples", exchanged)
                    .num("shard_skew_pct", format!("{skew:.2}"))
                    .num("work_balance_x", format!("{balance:.2}"))
            })
            .collect();
        let pattern = BindingPattern::new(vec![true; query.len()]);
        // The bench programs are all rewritable; a failure here is a
        // report bug worth surfacing loudly.
        #[allow(clippy::expect_used)]
        let magic = MagicProgram::rewrite(program, &pattern).expect("bench program rewrites");
        let seeds = [(magic.magic_goal(), magic.seed(query))];
        let demand = magic.compile().run_seeded(s, opts, &seeds);
        // Maintenance columns: one churn round (retract a small edge set,
        // then reinsert it) against a live engine.
        let churn = churn_set(s, 4);
        let (mut engine, _) = IncrementalEngine::from_structure(program, s, opts);
        let dropped = engine.apply_batch(&[], &churn);
        let steady = engine.apply_batch(&churn, &[]);
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
                .num("planned_join_probes", planned.eval_stats.join_probes)
                .num(
                    "planned_duplicate_derivations",
                    planned.eval_stats.duplicate_derivations,
                )
                .num("planned_block_probes", planned.eval_stats.block_probes)
                .num("planned_gallop_steps", planned.eval_stats.gallop_steps)
                .num("planned_wcoj_rules", planned.eval_stats.wcoj_rules)
                .num("scc_count", ev.compiled().scc_count())
                .num(
                    "probe_savings_pct",
                    format!(
                        "{:.2}",
                        savings_pct(
                            result.eval_stats.join_probes,
                            planned.eval_stats.join_probes,
                        )
                    ),
                )
                .num("demand_tuples", demand.eval_stats.tuples_interned)
                .num("magic_probes", demand.eval_stats.magic_probes)
                .num("exchanged_tuples", exchanged)
                .num("shard_skew_pct", format!("{skew:.2}"))
                .num("delta_tuples", steady.delta_tuples)
                .num("rederived_tuples", dropped.rederived_tuples)
                .raw("shard_scaling", render_rows(&shard_rows)),
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
fn component_graph(blocks: usize, k: usize, p: f64, seed: u64) -> Structure {
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
/// reinsert batch) against a live [`IncrementalEngine`]. Deletion work is
/// proportional to the mutated block's closure, not the whole EDB's:
/// `deleted_tuples` and `rederived_tuples` count the retract batch,
/// `delta_tuples` the reinsert batch.
///
/// The `shard_scaling` rows run the same round through engines pinned at
/// W ∈ {1, 2, 4, 8} shards, so batch routing is exercised end to end
/// (owner-sorted appends, per-stage exchange); `exchanged_tuples` counts
/// the reinsert batch's cross-worker traffic.
fn mutation_case() -> Obj {
    let program = transitive_closure();
    let s = component_graph(48, 12, 0.25, 7);
    let churn = churn_set(&s, 4);
    let opts = EvalOptions::default();
    let (mut engine, _) = IncrementalEngine::from_structure(&program, &s, opts);
    let dropped = engine.apply_batch(&[], &churn);
    let steady = engine.apply_batch(&churn, &[]);
    let shard_rows: Vec<Obj> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| {
            let w_opts = opts.with_shards(Some(w));
            let (mut sharded_engine, _) = IncrementalEngine::from_structure(&program, &s, w_opts);
            sharded_engine.apply_batch(&[], &churn);
            let summary = sharded_engine.apply_batch(&churn, &[]);
            Obj::new()
                .num("shards", w)
                .num("exchanged_tuples", summary.exchanged_tuples)
        })
        .collect();
    Obj::new()
        .str("name", "tc_mutation_tenants48x12_churn4")
        .num("seed", 7)
        .num("threads", thread_count())
        .num("churn_edges", churn.len())
        .num("delta_tuples", steady.delta_tuples)
        .num("deleted_tuples", dropped.deleted_tuples)
        .num("rederived_tuples", dropped.rederived_tuples)
        .raw("shard_scaling", render_rows(&shard_rows))
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

/// The counters [`regression_check`] gates: the from-scratch work counters
/// in both planner modes, plus the demand, shard-exchange and maintenance
/// counters.
const GATED_COUNTERS: [&str; 11] = [
    "tuples_interned",
    "join_probes",
    "duplicate_derivations",
    "planned_join_probes",
    "planned_duplicate_derivations",
    "planned_block_probes",
    "planned_gallop_steps",
    "demand_tuples",
    "magic_probes",
    "exchanged_tuples",
    "rederived_tuples",
];

/// Extracts the numeric value of `key` inside the case object named
/// `case` from a report rendered by this module (one flat object per
/// line), ignoring the case's `shard_scaling` rows. Returns `None` when
/// the case or key is absent — committed reports predating a column
/// simply skip its gate.
fn extract_case_num(report: &str, case: &str, key: &str) -> Option<f64> {
    let line = report
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{case}\"")))?;
    let own = line.split("\"shard_scaling\"").next()?;
    let tail = own.split(&format!("\"{key}\": ")).nth(1)?;
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// CI regression gate over the engine counters: compares every gated
/// counter column (`GATED_COUNTERS`) of each case in `fresh` (a report just
/// rendered by [`datalog_report`]) against the committed
/// `BENCH_datalog.json` contents. A counter more than 10% above its
/// committed value is a violation; counters are deterministic for fixed
/// seeds, so anything beyond that margin means an engine regression.
/// Returns the violations (empty = pass); cases or columns missing from
/// the committed report are skipped.
pub fn regression_check(committed: &str, fresh: &str) -> Vec<String> {
    const TOLERANCE: f64 = 1.10;
    let mut violations = Vec::new();
    let names = fresh
        .lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1)?.split('"').next());
    for name in names {
        for key in GATED_COUNTERS {
            let (Some(current), Some(baseline)) = (
                extract_case_num(fresh, name, key),
                extract_case_num(committed, name, key),
            ) else {
                continue;
            };
            if current > baseline * TOLERANCE {
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
        let pebble = pebble_report();
        let datalog = datalog_report();
        for report in [&pebble, &datalog] {
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
            // Wall times and their provenance come from `benchmark/`, not
            // from these counter reports.
            for gone in [
                "worklist_ms",
                "value_iteration_ms",
                "lazy_ms",
                "governed_ms",
                "governance_overhead_pct",
                "sequential_ms",
                "planned_ms",
                "sharded_ms",
                "demand_ms",
                "incremental_ms",
                "flush_overhead_pct",
                "recovery_ms",
                "scratch_ms",
                "speedup_x",
                "host_cpus",
                "scaling",
                "parallel_ms",
            ] {
                assert!(!report.contains(&format!("\"{gone}\"")), "{gone} is gone");
            }
        }
        for key in ["arena_size", "arena_edges", "lazy_arena_size"] {
            assert!(pebble.contains(&format!("\"{key}\"")), "pebble {key}");
        }
        for key in [
            "stages",
            "tuples",
            "tuples_interned",
            "join_probes",
            "duplicate_derivations",
            "planned_join_probes",
            "planned_duplicate_derivations",
            "planned_block_probes",
            "planned_gallop_steps",
            "planned_wcoj_rules",
            "scc_count",
            "probe_savings_pct",
            "demand_tuples",
            "magic_probes",
            "exchanged_tuples",
            "shard_skew_pct",
            "work_balance_x",
            "delta_tuples",
            "deleted_tuples",
            "rederived_tuples",
        ] {
            assert!(datalog.contains(&format!("\"{key}\"")), "datalog {key}");
        }
        assert!(datalog.contains("\"tri_layered_m12_b3\""));
        assert!(datalog.contains("\"tc_mutation_tenants48x12_churn4\""));
        assert!(datalog.contains("\"shard_scaling\": [{\"shards\": 1,"));
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
        let current = datalog_report();
        let violations = regression_check(&current, &current);
        assert!(violations.is_empty(), "regressions: {violations:?}");
        // …and one whose counters are much smaller (as if the engine had
        // since regressed >10% relative to it) fails, on one of the
        // original columns and on one of the widened gate's.
        let shrunk = |key: &str| {
            current
                .lines()
                .map(|l| {
                    if l.contains("\"name\":") {
                        l.replace(&format!("\"{key}\": "), &format!("\"{key}\": 0."))
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        for key in ["join_probes", "magic_probes"] {
            let violations = regression_check(&shrunk(key), &current);
            assert!(
                !violations.is_empty()
                    && violations.iter().all(|v| v.contains(&format!(" {key} "))),
                "shrunken {key} baseline must flag only {key}: {violations:?}"
            );
        }
        // Reports missing the columns entirely (older baselines) are
        // tolerated.
        assert!(regression_check("{}", &current).is_empty());
    }
}
