//! `churn`: a closed loop with one writer sending a seeded stream of small
//! mixed insert/retract batches through `ProgramQuery::open_durable` and
//! its durable batch API, with the default `DurabilityOptions`
//! (a checkpoint every 8 batches, fsync off), over three EDB shapes.

use crate::stats::{
    chunked_rate, median, ratio, stretch_quantile, Report, Summary, RATE_CHUNKS, TAIL_Q,
};
use crate::trace::Trace;
use crate::util::{
    bytes_written, component_edges, file_sizes, ms, pair, random_gnm, with_edges, EdgeSet,
    RunConfig,
};
use kv_core::datalog::programs::{q_kl, transitive_closure};
use kv_core::datalog::{
    BatchSummary, DurabilityOptions, DurableEngine, EvalOptions, Evaluator, Fact,
    IncrementalEngine, Program, RecoveryReport,
};
use kv_core::structures::{Element, Governor, RelId, SplitMix64, Structure};
use kv_core::ProgramQuery;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shape names, as used in metric names.
const SHAPES: [&str; 3] = ["tenants", "dense", "q21"];

/// Which shape each slot of the repeating batch cycle goes to: the
/// tenant shape carries most batches (and so the median); the dense
/// shapes, where maintenance is expensive, sit in the tail.
const CYCLE: [usize; 9] = [0, 0, 0, 0, 0, 0, 1, 1, 2];

/// Batches written after a forced checkpoint before the recovery reopens.
pub const WAL_TAIL: usize = 5;

/// Reopens per directory whose median is reported.
const REOPENS: usize = 5;

/// Batches after which the stream reads the process's peak memory. The
/// engines' memory grows by about 200 bytes a batch, and how many
/// batches a run gets through depends on the host's speed, so the
/// reading is taken after a fixed count that a slow host still reaches
/// in 15 s.
const RSS_AT_BATCH: u64 = 4096;

/// Batches between two from-scratch comparisons in the traced run.
const SCRATCH_EVERY: usize = 8;

/// One EDB shape: program, initial EDB, the live edge model and the
/// batch stream that mutates it.
struct Shape {
    program: Program,
    template: Structure,
    goal: Vec<Element>,
    model: EdgeSet,
    rng: SplitMix64,
    max_batch: usize,
}

impl Shape {
    fn next_batch(&mut self) -> (Vec<Fact>, Vec<Fact>) {
        // As many inserts as retracts: the edge count, which the cost of
        // maintenance depends on, stays where the seed put it.
        let k = self.rng.gen_range(1..self.max_batch + 1);
        let (i, r) = self.model.draw_batch(&mut self.rng, k, k, 0.1);
        let fact = |e: &(u32, u32)| (RelId(0), pair(*e));
        (i.iter().map(fact).collect(), r.iter().map(fact).collect())
    }

    fn live(&self) -> Structure {
        with_edges(&self.template, &self.model.all())
    }

    fn open_query(&self) -> ProgramQuery {
        ProgramQuery::at_tuple("churn", self.program.clone(), self.goal.clone())
    }
}

/// Builds the three shapes: `transitive_closure` over the 48×12 tenant
/// component graph, over `G(60, m = 354)` kept strongly connected by a
/// pinned Hamiltonian cycle, and `Q_{2,1}` over `G(10, m = 14)`.
fn shapes(cfg: &RunConfig) -> Vec<Shape> {
    let small = cfg.small;
    let mut out = Vec::new();
    let (blocks, k) = if small { (6, 6) } else { (48, 12) };
    let mut rng = cfg.rng(0xc1);
    let edges = component_edges(blocks, k, k * (k - 1) / 4, &mut rng);
    out.push((
        transitive_closure(),
        blocks * k,
        edges,
        Vec::new(),
        blocks,
        k,
        vec![0, 1],
    ));
    let n = if small { 12 } else { 60 };
    let mut rng = cfg.rng(0xc2);
    let g = random_gnm(n, n * (n - 1) / 10, &mut rng);
    let cycle: Vec<(u32, u32)> = (0..n as u32).map(|u| (u, (u + 1) % n as u32)).collect();
    out.push((
        transitive_closure(),
        n,
        g.edges().collect(),
        cycle,
        1,
        n,
        vec![0, 1],
    ));
    let n = if small { 7 } else { 10 };
    let mut rng = cfg.rng(0xc3);
    let g = random_gnm(n, if small { 9 } else { 14 }, &mut rng);
    out.push((
        q_kl(2, 1),
        n,
        g.edges().collect(),
        Vec::new(),
        1,
        n,
        vec![0, 1, 2, 3],
    ));
    out.into_iter()
        .enumerate()
        .map(|(i, (program, nodes, edges, pinned, blocks, k, goal))| {
            let model = EdgeSet::new(&edges, &pinned, blocks, k);
            let template = with_edges(
                &Structure::new(program.vocabulary().clone(), nodes),
                &model.all(),
            );
            Shape {
                program,
                template,
                goal,
                model,
                rng: cfg.rng(0xd0 + i as u64),
                max_batch: 3,
            }
        })
        .collect()
}

/// Decode-only reopen ms, reopen-with-tail ms, and the last reopen's
/// recovery reports.
pub type Recovery = (f64, f64, Vec<RecoveryReport>);

/// The workload after set-up: one durable query per shape.
pub struct Churn {
    shapes: Vec<Shape>,
    queries: Vec<ProgramQuery>,
    dirs: Vec<PathBuf>,
}

fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    path.to_path_buf()
}

/// Set-up: input generation, compile and `open_durable` on fresh
/// directories (which evaluates and logs the initial EDB).
pub fn build(cfg: &RunConfig, tag: &str) -> Churn {
    let shapes = shapes(cfg);
    let mut queries = Vec::new();
    let mut dirs = Vec::new();
    for (i, s) in shapes.iter().enumerate() {
        let dir = fresh_dir(&cfg.work_dir.join(format!("churn-{tag}-{}", SHAPES[i])));
        let q = s.open_query();
        q.open_durable(&s.template, &dir)
            .expect("open a fresh durable directory");
        queries.push(q);
        dirs.push(dir);
    }
    Churn {
        shapes,
        queries,
        dirs,
    }
}

impl Churn {
    /// Removes the workload's directories.
    pub fn remove(self) {
        let dirs = self.dirs.clone();
        drop(self);
        for d in dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Per-batch observations of the traced probe pass.
#[derive(Default)]
struct Probe {
    /// (shape, incremental twin ms, durable twin ms, query ms).
    layered: Vec<(usize, f64, f64, f64)>,
    summaries: Vec<(usize, BatchSummary)>,
    /// (batch ms, checkpointed).
    durable: Vec<(f64, bool)>,
    bytes_written: u64,
    fact_bytes: u64,
    /// (shape, batch ms ÷ from-scratch ms).
    vs_scratch: Vec<(usize, f64)>,
    checkpoints: u64,
    checkpoint_bytes: u64,
    flushstats_wal_bytes: u64,
}

/// Twin engines driven with the same batches in the traced probe pass,
/// so each layer's share of a batch can be told apart.
struct Twins {
    incremental: Vec<IncrementalEngine>,
    durable: Vec<DurableEngine>,
}

fn open_twins(churn: &Churn, cfg: &RunConfig) -> Twins {
    let mut incremental = Vec::new();
    let mut durable = Vec::new();
    for (i, (s, q)) in churn.shapes.iter().zip(&churn.queries).enumerate() {
        let opts = EvalOptions::default()
            .with_planner(q.plan().planner())
            .with_lowering(q.plan().lowering());
        let live = s.live();
        incremental.push(IncrementalEngine::from_structure(&s.program, &live, opts).0);
        let dir = fresh_dir(&cfg.work_dir.join(format!("churn-twin-{}", SHAPES[i])));
        let mut d = DurableEngine::open(
            &s.program,
            &s.template,
            opts,
            &dir,
            DurabilityOptions::default(),
        )
        .expect("open twin directory");
        let facts: Vec<Fact> = s.model.all().iter().map(|e| (RelId(0), pair(*e))).collect();
        d.apply_batch(&facts, &[]).expect("twin initial batch");
        durable.push(d);
    }
    Twins {
        incremental,
        durable,
    }
}

/// What the measured stream saw.
pub struct Outcome {
    latencies: Vec<f64>,
    /// Stream seconds of each batch, generation included.
    stream: Vec<f64>,
    per_shape: Vec<Vec<f64>>,
    stream_s: f64,
    failed: u64,
    /// Output-check failures of the twin engines (traced runs only).
    mismatches: Vec<String>,
    probe: Option<Probe>,
    /// Peak resident memory after [`RSS_AT_BATCH`] batches, if reached.
    peak_rss_mb: Option<f64>,
}

/// Encoded size of a batch's user facts: a relation id and the elements.
fn fact_bytes(facts: &[Fact]) -> u64 {
    facts.iter().map(|(_, t)| 4 + 4 * t.len() as u64).sum()
}

/// The measured closed loop. With `probe` set (traced runs only), twin
/// engines, directory listings and sampled from-scratch runs are taken
/// beside every batch.
pub fn measure(cfg: &RunConfig, churn: &mut Churn, trace: &mut Trace, probe: bool) -> Outcome {
    let gov = Governor::unlimited();
    let mut twins = probe.then(|| open_twins(churn, cfg));
    let mut pr = probe.then(Probe::default);
    let mut latencies = Vec::new();
    let mut per_shape = vec![Vec::new(); SHAPES.len()];
    let mut peak_rss_mb = None;
    let mut failed = 0;
    let mut batches_of = [0usize; 3];
    let start = Instant::now();
    let deadline = start + cfg.measure;
    let mut n = 0u64;
    let mut stream_s = 0.0;
    let mut stream = Vec::new();
    while Instant::now() < deadline {
        let i = CYCLE[n as usize % CYCLE.len()];
        let b0 = Instant::now();
        let (ins, ret) = churn.shapes[i].next_batch();
        let before = pr.as_ref().map(|_| {
            (
                file_sizes(&churn.dirs[i]),
                churn.queries[i].flush_stats().unwrap_or_default(),
            )
        });
        let t0 = Instant::now();
        let result = churn.queries[i].try_apply_batch_durable(&ins, &ret, &gov);
        let t1 = Instant::now();
        let child = trace.record("query.apply_batch", n, t0, t1, None);
        let root = trace.record("churn.batch", n, b0, t1, None);
        trace.adopt(root, &[child]);
        stream_s += (t1 - b0).as_secs_f64();
        stream.push((t1 - b0).as_secs_f64());
        if n + 1 == RSS_AT_BATCH {
            peak_rss_mb = Some(crate::util::peak_rss_mb());
        }
        let batch_ms = ms(t0, t1);
        latencies.push(batch_ms);
        per_shape[i].push(batch_ms);
        let summary = match result {
            Ok(s) => s,
            Err(_) => {
                failed += 1;
                n += 1;
                continue;
            }
        };
        if let (Some(p), Some(tw), Some((files, flush))) = (pr.as_mut(), twins.as_mut(), before) {
            let after = churn.queries[i].flush_stats().unwrap_or_default();
            let checkpointed = after.checkpoints > flush.checkpoints;
            p.durable.push((batch_ms, checkpointed));
            p.bytes_written += bytes_written(&files, &file_sizes(&churn.dirs[i]));
            p.fact_bytes += fact_bytes(&ins) + fact_bytes(&ret);
            let t0 = Instant::now();
            tw.incremental[i].apply_batch(&ins, &ret);
            let t1 = Instant::now();
            let twin = tw.durable[i].apply_batch(&ins, &ret);
            let t2 = Instant::now();
            if twin.is_err() {
                failed += 1;
            }
            p.layered.push((i, ms(t0, t1), ms(t1, t2), batch_ms));
            p.summaries.push((i, summary));
            batches_of[i] += 1;
            if batches_of[i] % SCRATCH_EVERY == 1 {
                let live = churn.shapes[i].live();
                let t0 = Instant::now();
                let _ = churn.queries[i].eval_full_with_stats(&live);
                p.vs_scratch
                    .push((i, ratio(batch_ms, ms(t0, Instant::now()))));
            }
        }
        n += 1;
    }
    if let Some(p) = pr.as_mut() {
        for q in &churn.queries {
            let f = q.flush_stats().unwrap_or_default();
            p.checkpoints += f.checkpoints;
            p.checkpoint_bytes += f.checkpoint_bytes;
            p.flushstats_wal_bytes += f.wal_bytes;
        }
    }
    let mut mismatches = Vec::new();
    if let Some(tw) = twins {
        for (i, (inc, dur)) in tw.incremental.iter().zip(&tw.durable).enumerate() {
            let expect = goal_set(&churn.shapes[i]);
            for (name, goal) in [
                ("IncrementalEngine", live_goal(inc)),
                ("DurableEngine", live_goal(dur.engine())),
            ] {
                if goal != expect {
                    failed += 1;
                    mismatches.push(format!(
                        "churn {}: twin {name} goal differs from scratch",
                        SHAPES[i]
                    ));
                }
            }
        }
        for shape in SHAPES {
            let _ = std::fs::remove_dir_all(cfg.work_dir.join(format!("churn-twin-{shape}")));
        }
    }
    Outcome {
        latencies,
        stream,
        per_shape,
        stream_s,
        failed,
        mismatches,
        probe: pr,
        peak_rss_mb,
    }
}

/// The goal relation of a from-scratch evaluation of the shape's live EDB.
fn goal_set(shape: &Shape) -> HashSet<Vec<Element>> {
    let result = Evaluator::new(&shape.program).run(&shape.live(), EvalOptions::default());
    result.idb[shape.program.goal().0]
        .iter()
        .map(<[Element]>::to_vec)
        .collect()
}

fn live_goal(engine: &IncrementalEngine) -> HashSet<Vec<Element>> {
    engine
        .idb_store(engine.goal())
        .live_iter()
        .map(<[Element]>::to_vec)
        .collect()
}

fn live_edb(engine: &IncrementalEngine) -> HashSet<Vec<Element>> {
    engine
        .edb_store(RelId(0))
        .live_iter()
        .map(<[Element]>::to_vec)
        .collect()
}

/// Operations attempted and failed in the stream.
fn account(out: &Outcome, report: &mut Report) {
    report.attempted += out.latencies.len() as u64;
    report.failed += out.failed;
}

pub fn end_to_end(out: &Outcome, report: &mut Report) {
    account(out, report);
    let s = Summary::at(&out.latencies, 0.99);
    // Whole batch cycles, so every group holds the same mix of shapes.
    let whole = out.stream.len() / CYCLE.len() * CYCLE.len();
    let cycles: Vec<(f64, f64)> = out.stream[..whole]
        .chunks(CYCLE.len())
        .map(|c| (c.len() as f64, c.iter().sum()))
        .collect();
    report.push_noted(
        "throughput_per_s",
        chunked_rate(&cycles, RATE_CHUNKS),
        "1/s",
        format!(
            "batches committed per second of the stream, slower quartile of {RATE_CHUNKS} groups of cycles, {} batches (overall {:.2})",
            out.latencies.len(),
            ratio(out.latencies.len() as f64, out.stream_s)
        ),
    );
    for (shape, lat) in SHAPES.iter().zip(&out.per_shape) {
        report.lines.push(format!(
            "# shape {shape}: batch ms {}",
            Summary::at(lat, 0.99).describe()
        ));
    }
    let (p50, stretches) = stretch_quantile(&out.latencies, 0.5);
    report.push_noted(
        "p50_ms",
        p50,
        "ms",
        format!(
            "per batch commit, slower quartile of the medians of {stretches} stretches; whole run {}",
            s.describe()
        ),
    );
    let (tail, stretches) = stretch_quantile(&out.latencies, TAIL_Q);
    report.push_noted(
        "tail_ms",
        tail,
        "ms",
        format!(
            "per batch commit, slower quartile of the p90s of {stretches} stretches; whole run {}",
            s.describe()
        ),
    );
    if let Some(mb) = out.peak_rss_mb {
        report.push_noted(
            "peak_rss_mb",
            mb,
            "MiB",
            format!("VmHWM after set-up and the stream's first {RSS_AT_BATCH} batches"),
        );
    }
}

/// Timed reopens of every directory: `ProgramQuery::open_durable` on a
/// fresh query per shape; returns the median total ms and the last
/// reopen's recovery reports, after checking each reopened answer.
fn reopen_all(churn: &Churn, expect: &[bool], report: &mut Report) -> (f64, Vec<RecoveryReport>) {
    let mut totals = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..REOPENS {
        let mut total = 0.0;
        reports.clear();
        for (i, s) in churn.shapes.iter().enumerate() {
            let q = s.open_query();
            let t0 = Instant::now();
            let rec = q.open_durable(&s.template, &churn.dirs[i]);
            total += ms(t0, Instant::now());
            match rec {
                Ok(r) => reports.push(r),
                Err(e) => report.mismatch(format!("churn {}: reopen failed: {e}", SHAPES[i])),
            }
            if q.incremental_holds() != Some(expect[i]) {
                report.mismatch(format!(
                    "churn {}: reopened answer differs from the live engine",
                    SHAPES[i]
                ));
            }
        }
        totals.push(total);
    }
    (median(&totals), reports)
}

/// After the stream: the live answers, a checkpoint, decode-only reopens,
/// a stated WAL tail, reopens with the tail and full-state checks of the
/// recovered engines. Returns (decode ms, recovery ms, replay reports).
pub fn finish(mut churn: Churn, report: &mut Report, timed_reopens: bool) -> Option<Recovery> {
    let gov = Governor::unlimited();
    let mut expect = Vec::new();
    for (i, s) in churn.shapes.iter().enumerate() {
        let want = goal_set(s).contains(&s.goal);
        if churn.queries[i].incremental_holds() != Some(want) {
            report.mismatch(format!(
                "churn {}: maintained answer differs from scratch",
                SHAPES[i]
            ));
        }
        expect.push(want);
    }
    let mut timings = None;
    if timed_reopens {
        for q in &churn.queries {
            if let Err(e) = q.checkpoint_now() {
                report.mismatch(format!("churn: checkpoint failed: {e}"));
            }
        }
        // Dropping the live queries closes their directories.
        churn.queries.clear();
        let (decode_ms, _) = reopen_all(&churn, &expect, report);
        // The stated tail: WAL_TAIL batches after the checkpoint.
        expect.clear();
        for (i, shape) in churn.shapes.iter_mut().enumerate() {
            let q = shape.open_query();
            if q.open_durable(&shape.template, &churn.dirs[i]).is_err() {
                report.mismatch(format!("churn {}: reopen failed", SHAPES[i]));
                expect.push(false);
                continue;
            }
            for _ in 0..WAL_TAIL {
                let (ins, ret) = shape.next_batch();
                if q.try_apply_batch_durable(&ins, &ret, &gov).is_err() {
                    report.failed += 1;
                }
            }
            expect.push(goal_set(shape).contains(&shape.goal));
        }
        let (recovery_ms, reports) = reopen_all(&churn, &expect, report);
        for r in &reports {
            if r.replayed_batches != WAL_TAIL as u64 {
                report.mismatch(format!(
                    "churn: replayed {} batches, tail is {WAL_TAIL}",
                    r.replayed_batches
                ));
            }
        }
        timings = Some((decode_ms, recovery_ms, reports));
    } else {
        // Dropping the live queries closes their directories.
        churn.queries.clear();
    }
    // Full recovered state against the model and a from-scratch run.
    for (i, s) in churn.shapes.iter().enumerate() {
        let q = s.open_query();
        let opts = EvalOptions::default()
            .with_planner(q.plan().planner())
            .with_lowering(q.plan().lowering());
        match DurableEngine::open(
            &s.program,
            &s.template,
            opts,
            &churn.dirs[i],
            DurabilityOptions::default(),
        ) {
            Ok(d) => {
                let edb: HashSet<Vec<Element>> = s.model.all().iter().map(|e| pair(*e)).collect();
                if live_edb(d.engine()) != edb || live_goal(d.engine()) != goal_set(s) {
                    report.mismatch(format!(
                        "churn {}: recovered state differs from scratch",
                        SHAPES[i]
                    ));
                }
            }
            Err(e) => report.mismatch(format!("churn {}: recovery failed: {e}", SHAPES[i])),
        }
    }
    churn.remove();
    timings
}

/// Per-layer metrics of the traced probe pass and the workload's named
/// metrics.
pub fn per_layer(out: &Outcome, recovery: Option<&Recovery>, report: &mut Report) {
    account(out, report);
    for m in &out.mismatches {
        report.mismatch(m.clone());
    }
    let s = Summary::at(&out.latencies, 0.99);
    report.push_noted("churn.batch_p50_ms", s.median, "ms", s.describe());
    report.push_noted("churn.batch_p99_ms", s.tail, "ms", s.describe());
    report.push(
        "churn.batches_per_s",
        ratio(out.latencies.len() as f64, out.stream_s),
        "1/s",
    );
    let (decode, recovery_ms, reports) = match recovery {
        Some((d, r, reps)) => (*d, *r, reps.as_slice()),
        None => (0.0, 0.0, &[][..]),
    };
    report.push_noted(
        "churn.recovery_ms",
        recovery_ms,
        "ms",
        format!(
            "all {} directories, WAL tail {WAL_TAIL}, median of {REOPENS}",
            SHAPES.len()
        ),
    );
    let p = out.probe.as_ref();
    for (i, shape) in SHAPES.iter().enumerate() {
        let key = |f: &str| format!("incremental.{shape}.{f}");
        let sums: Vec<&BatchSummary> = p.map_or(Vec::new(), |p| {
            p.summaries
                .iter()
                .filter(|(j, _)| *j == i)
                .map(|(_, s)| s)
                .collect()
        });
        let n = sums.len().max(1) as f64;
        let total = |f: fn(&BatchSummary) -> u64| sums.iter().map(|s| f(s)).sum::<u64>() as f64;
        let inc_ms: Vec<f64> = p.map_or(Vec::new(), |p| {
            p.layered.iter().filter(|l| l.0 == i).map(|l| l.1).collect()
        });
        let si = Summary::of(&inc_ms);
        report.push_noted(key("batch_ms"), si.median, "ms", si.describe());
        report.push(key("delta_tuples"), total(|s| s.delta_tuples) / n, "count");
        report.push(
            key("overdeleted_tuples"),
            total(|s| s.overdeleted_tuples) / n,
            "count",
        );
        report.push(
            key("rederived_tuples"),
            total(|s| s.rederived_tuples) / n,
            "count",
        );
        report.push(
            key("rederive_waste"),
            ratio(
                total(|s| s.rederived_tuples),
                total(|s| s.overdeleted_tuples),
            ),
            "ratio",
        );
        report.push(
            key("coalesced_pairs"),
            total(|s| s.coalesced_pairs),
            "count",
        );
        report.push(
            key("join_probes"),
            total(|s| s.eval_stats.join_probes) / n,
            "count",
        );
        let vs: Vec<f64> = p.map_or(Vec::new(), |p| {
            p.vs_scratch
                .iter()
                .filter(|v| v.0 == i)
                .map(|v| v.1)
                .collect()
        });
        report.push_noted(
            key("vs_scratch_x"),
            median(&vs),
            "ratio",
            format!("n={}", vs.len()),
        );
    }
    let overhead: Vec<f64> = p.map_or(Vec::new(), |p| {
        p.layered
            .iter()
            .filter(|l| l.0 == 0)
            .map(|l| l.3 - l.2)
            .collect()
    });
    report.push_noted(
        "query.batch_overhead_ms",
        median(&overhead),
        "ms",
        format!("tenants shape, signed, n={}", overhead.len()),
    );
    let batches = p.map_or(0, |p| p.durable.len());
    let bytes = p.map_or(0, |p| p.bytes_written);
    report.push_noted(
        "durable.bytes_per_batch",
        ratio(bytes as f64, batches as f64),
        "B",
        format!(
            "directory growth on disk; FlushStats.wal_bytes reads {}",
            p.map_or(0, |p| p.flushstats_wal_bytes)
        ),
    );
    report.push(
        "durable.write_amp",
        ratio(bytes as f64, p.map_or(0, |p| p.fact_bytes) as f64),
        "ratio",
    );
    report.push(
        "durable.checkpoints",
        p.map_or(0, |p| p.checkpoints) as f64,
        "count",
    );
    report.push(
        "durable.checkpoint_bytes",
        p.map_or(0, |p| p.checkpoint_bytes) as f64,
        "B",
    );
    let split = |ck: bool| -> Vec<f64> {
        p.map_or(Vec::new(), |p| {
            p.durable
                .iter()
                .filter(|d| d.1 == ck)
                .map(|d| d.0)
                .collect()
        })
    };
    let (ck, plain) = (Summary::of(&split(true)), Summary::of(&split(false)));
    report.push_noted(
        "durable.checkpoint_batch_ms",
        ck.median,
        "ms",
        ck.describe(),
    );
    report.push_noted(
        "durable.plain_batch_ms",
        plain.median,
        "ms",
        plain.describe(),
    );
    report.push("durable.recovery_decode_ms", decode, "ms");
    report.push_noted(
        "durable.recovery_replay_ms",
        recovery_ms - decode,
        "ms",
        "signed: reopen with tail minus decode-only reopen".into(),
    );
    let sum = |f: fn(&RecoveryReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    report.push(
        "durable.replayed_batches",
        sum(|r| r.replayed_batches),
        "count",
    );
    report.push(
        "durable.stores_replayed",
        sum(|r| r.stores_replayed),
        "count",
    );
    report.push("durable.stores_skipped", sum(|r| r.stores_skipped), "count");
}
