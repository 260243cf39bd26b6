//! `fixpoint`: a closed loop with one caller evaluating a fixed mix of
//! the paper's programs from scratch, each instance once through the
//! README path (`Evaluator::run`, textual planner) and once through a
//! full-saturation `ProgramQuery` (cost-based planner, `Auto` lowering).

use crate::stats::{chunked_rate, ratio, stretch_quantile, Report, Summary, RATE_CHUNKS, TAIL_Q};
use crate::trace::Trace;
use crate::util::{layered_triangles, ms, random_gnm, random_out_regular, RunConfig};
use kv_core::datalog::programs::{avoiding_path, q_kl, transitive_closure, triangles};
use kv_core::datalog::{EvalOptions, EvalStats, Evaluator, Program};
use kv_core::structures::{SplitMix64, Structure};
use kv_core::ProgramQuery;
use std::time::Instant;

/// Instances of each program kind a run cycles through.
const POOL: usize = 8;

/// The two evaluation modes, in the order each round runs them.
const MODES: [&str; 2] = ["textual", "planned"];

/// One program of the mix with its seeded instance pool.
struct Kind {
    name: &'static str,
    program: Program,
    query: ProgramQuery,
    pool: Vec<Structure>,
}

pub struct Mix {
    kinds: Vec<Kind>,
}

/// Draws one seeded instance of a kind.
type Generator = Box<dyn Fn(&mut SplitMix64) -> Structure>;

/// Builds the mix: `transitive_closure` on a random digraph with 4
/// successors per node, the ≠-avoiding path on `G(40, m = 94)`,
/// `Q_{2,1}` on `G(12, m = 20)` and the triangle query on the skewed
/// layered graph (where `Auto` lowers to the generic join). Edge counts
/// are fixed so that instances of different seeds cost about the same.
pub fn build(cfg: &RunConfig) -> Mix {
    let mut rng = cfg.rng(0xf1);
    let s = cfg.small;
    let specs: Vec<(&'static str, Program, Generator)> = vec![
        (
            "tc",
            transitive_closure(),
            Box::new(move |r| {
                random_out_regular(if s { 30 } else { 200 }, if s { 3 } else { 4 }, r)
                    .to_structure()
            }),
        ),
        (
            "avoiding",
            avoiding_path(),
            Box::new(move |r| {
                random_gnm(if s { 12 } else { 40 }, if s { 20 } else { 94 }, r).to_structure()
            }),
        ),
        (
            "q21",
            q_kl(2, 1),
            Box::new(move |r| {
                random_gnm(if s { 8 } else { 12 }, if s { 14 } else { 20 }, r).to_structure()
            }),
        ),
        (
            "triangles",
            triangles(),
            Box::new(move |r| layered_triangles(if s { 8 } else { 80 }, 6, r).to_structure()),
        ),
    ];
    let pool_size = if s { 2 } else { POOL };
    let kinds = specs
        .into_iter()
        .map(|(name, program, gen)| {
            let arity = program.idb_arity(program.goal());
            let query = ProgramQuery::at_tuple("fixpoint", program.clone(), vec![0; arity]);
            let pool = (0..pool_size).map(|_| gen(&mut rng)).collect();
            Kind {
                name,
                program,
                query,
                pool,
            }
        })
        .collect();
    Mix { kinds }
}

/// Runs one round's first instance of every kind in both modes: the
/// warm-up that ends set-up.
pub fn warm_up(mix: &Mix) {
    for k in &mix.kinds {
        let _ = Evaluator::new(&k.program).run(&k.pool[0], EvalOptions::default());
        let _ = k.query.eval_full_with_stats(&k.pool[0]);
    }
}

/// One timed evaluation call.
struct Call {
    mode: usize,
    ms: f64,
    stats: EvalStats,
}

/// What the measured loop saw.
pub struct Outcome {
    calls: Vec<Call>,
    rounds: usize,
}

/// The measured closed loop: rounds over the mix until the time is up.
pub fn measure(cfg: &RunConfig, mix: &Mix, trace: &mut Trace) -> Outcome {
    let evals: Vec<Evaluator> = mix
        .kinds
        .iter()
        .map(|k| Evaluator::new(&k.program))
        .collect();
    let mut calls = Vec::new();
    let deadline = Instant::now() + cfg.measure;
    let mut rounds = 0;
    while Instant::now() < deadline {
        let r0 = Instant::now();
        let mut children = Vec::new();
        for (k, eval) in mix.kinds.iter().zip(&evals) {
            let s = &k.pool[rounds % k.pool.len()];
            let t0 = Instant::now();
            let result = eval.run(s, EvalOptions::default());
            let t1 = Instant::now();
            children.push(trace.record("eval.textual", rounds as u64, t0, t1, None));
            calls.push(Call {
                mode: 0,
                ms: ms(t0, t1),
                stats: result.eval_stats,
            });
            drop(result);
            let t0 = Instant::now();
            let (_, stats) = std::hint::black_box(k.query.eval_full_with_stats(s));
            let t1 = Instant::now();
            children.push(trace.record("eval.planned", rounds as u64, t0, t1, None));
            calls.push(Call {
                mode: 1,
                ms: ms(t0, t1),
                stats,
            });
        }
        let root = trace.record("fixpoint.round", rounds as u64, r0, Instant::now(), None);
        trace.adopt(root, &children);
        rounds += 1;
    }
    Outcome { calls, rounds }
}

/// Derived tuples per second of busy time over `calls` of `mode`
/// (`None` = both modes).
fn tuples_per_s(out: &Outcome, mode: Option<usize>) -> f64 {
    let (mut tuples, mut secs) = (0u64, 0.0);
    for c in out
        .calls
        .iter()
        .filter(|c| mode.is_none_or(|m| c.mode == m))
    {
        tuples += c.stats.tuples_interned;
        secs += c.ms / 1e3;
    }
    ratio(tuples as f64, secs)
}

/// The workload's end-to-end metrics (set-up and memory aside).
pub fn end_to_end(mix: &Mix, out: &Outcome, report: &mut Report) {
    report.attempted += out.calls.len() as u64;
    // Derived tuples per busy second of each round, and each round's
    // busy time: one round evaluates every kind's instance in both modes.
    let per_call = out.calls.len() / out.rounds.max(1);
    let rounds: Vec<(f64, f64)> = out
        .calls
        .chunks(per_call.max(1))
        .map(|r| {
            r.iter().fold((0.0, 0.0), |a, c| {
                (a.0 + c.stats.tuples_interned as f64, a.1 + c.ms / 1e3)
            })
        })
        .collect();
    let round_ms: Vec<f64> = rounds.iter().map(|r| r.1 * 1e3).collect();
    let s = Summary::of(&round_ms);
    for (k, kind) in mix.kinds.iter().enumerate() {
        for (m, mode) in MODES.iter().enumerate() {
            let lat: Vec<f64> = out
                .calls
                .iter()
                .skip(2 * k + m)
                .step_by(per_call.max(1))
                .map(|c| c.ms)
                .collect();
            report.lines.push(format!(
                "# {} {mode}: call ms {}",
                kind.name,
                Summary::of(&lat).describe()
            ));
        }
    }
    report.push_noted(
        "throughput_per_s",
        chunked_rate(&rounds, RATE_CHUNKS),
        "1/s",
        format!(
            "derived tuples per busy second, both modes, slower quartile of {RATE_CHUNKS} groups of {} rounds (overall {:.1})",
            out.rounds / RATE_CHUNKS,
            tuples_per_s(out, None)
        ),
    );
    let (p50, stretches) = stretch_quantile(&round_ms, 0.5);
    report.push_noted(
        "p50_ms",
        p50,
        "ms",
        format!(
            "per round of {per_call} calls, slower quartile of the medians of {stretches} stretches; whole run {}",
            s.describe()
        ),
    );
    let (tail, stretches) = stretch_quantile(&round_ms, TAIL_Q);
    report.push_noted(
        "tail_ms",
        tail,
        "ms",
        format!(
            "per round of {per_call} calls, slower quartile of the p90s of {stretches} stretches; whole run {}",
            s.describe()
        ),
    );
}

/// Per-layer `eval.*` metrics and the workload's named throughputs.
pub fn per_layer(out: &Outcome, report: &mut Report) {
    let rounds = out.rounds.max(1) as f64;
    for (m, mode) in MODES.iter().enumerate() {
        let calls: Vec<&Call> = out.calls.iter().filter(|c| c.mode == m).collect();
        let mut total = EvalStats::default();
        for c in &calls {
            total.merge(&c.stats);
        }
        let lat: Vec<f64> = calls.iter().map(|c| c.ms).collect();
        let s = Summary::of(&lat);
        let p = |f: &str| format!("eval.{mode}.{f}");
        report.push_noted(p("call_ms"), s.median, "ms", s.describe());
        let per_round = |v: u64| v as f64 / rounds;
        report.push(p("join_probes"), per_round(total.join_probes), "count");
        report.push(p("block_probes"), per_round(total.block_probes), "count");
        report.push(p("gallop_steps"), per_round(total.gallop_steps), "count");
        report.push(
            p("duplicate_derivations"),
            per_round(total.duplicate_derivations),
            "count",
        );
        report.push(
            p("tuples_interned"),
            per_round(total.tuples_interned),
            "count",
        );
        report.push(p("stages"), per_round(total.stages), "count");
        report.push(p("wcoj_rules"), per_round(total.wcoj_rules), "count");
        report.push(
            p("dup_ratio"),
            ratio(
                total.duplicate_derivations as f64,
                (total.tuples_interned + total.duplicate_derivations) as f64,
            ),
            "ratio",
        );
    }
    report.push(
        "fixpoint.textual_tuples_per_s",
        tuples_per_s(out, Some(0)),
        "1/s",
    );
    report.push(
        "fixpoint.planned_tuples_per_s",
        tuples_per_s(out, Some(1)),
        "1/s",
    );
}

/// Output checks, outside the timed loop: on every instance both modes
/// reach the same stages, tuple set by tuple set (Theorem 3.6 stage
/// identity), and the same stage count.
pub fn check(mix: &Mix, report: &mut Report) {
    for (i, k) in mix.kinds.iter().enumerate() {
        let eval = Evaluator::new(&k.program);
        let planned_opts = EvalOptions::default()
            .with_planner(k.query.plan().planner())
            .with_lowering(k.query.plan().lowering());
        for (j, s) in k.pool.iter().enumerate() {
            let textual = eval.run(s, EvalOptions::default());
            let planned = eval.run(s, planned_opts);
            let (_, stats) = k.query.eval_full_with_stats(s);
            if !textual.same_stages(&planned)
                || textual.eval_stats.stages != stats.stages
                || textual.eval_stats.tuples_interned != stats.tuples_interned
            {
                report.mismatch(format!(
                    "fixpoint kind {i} instance {j}: textual and cost-based stages differ"
                ));
            }
        }
    }
}
