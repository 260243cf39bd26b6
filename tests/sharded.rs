//! Sharded parallel evaluation: each stage's deltas cut into `W`
//! contiguous worker shares, merged in worker order at the stage barrier.
//!
//! The load-bearing guarantee is that sharding is invisible to the paper's
//! semantics: the global stage loop is preserved, so Theorem 3.6 stage
//! identity holds for **any** worker count. The corpus-wide tests run
//! every case of the shared corpus (`support::corpus`, no filter: any
//! program can be sharded) over its `SPARSE` fixtures. They pin:
//!
//! 1. **Stage identity**: for every program, every named configuration
//!    (`support::configs`), and `W ∈ {1, 2, 3, 4, 8}`, the sharded run
//!    produces the same tuple set at every stage as the unsharded run.
//!    (Counters such as `join_probes` may differ — each worker walks the
//!    full rule list over its delta share — so the comparison is
//!    set-based.)
//! 2. **Magic sets**: seeded demand-driven runs of the rewritten programs
//!    are likewise stage-identical under sharding, for every binding
//!    pattern of the goal.
//! 3. **Interrupt/resume**: a governed sharded run that trips
//!    mid-evaluation resumes to the same stages as a straight run —
//!    checkpoints hold committed stages only, and any worker count can cut
//!    their deltas into shares.
//! 4. **Shard statistics**: one probe tally per worker, summing to the
//!    run's probes, also across an interrupt and resume at any `W`.
//! 5. **One worker by default**: default runs and engines use `W = 1`,
//!    whatever the host's CPUs, and `W = 0` clamps to 1.
//! 6. **Maintenance**: per-tuple support is exact at every `W`, and the
//!    EDB's ids follow the batches alone, not the worker count.

mod support;

use datalog_expressiveness::datalog::programs::transitive_closure;
use datalog_expressiveness::datalog::{
    BindingPattern, EvalOptions, Evaluator, MagicProgram, ShardStats,
};
use datalog_expressiveness::structures::generators::{directed_path, random_digraph};
use datalog_expressiveness::structures::govern::chaos;
use datalog_expressiveness::structures::{EvalStats, Governor};
use support::{configs, corpus, random_batch, round_robin, SPARSE};

const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn sharded_stages_match_unsharded_for_every_worker_count() {
    for case in corpus() {
        let s = SPARSE.draw(&case, case.seed(9_100));
        let label = case.name;
        let eval = Evaluator::new(&case.program);
        for (mode, base) in configs() {
            let baseline = eval.run(&s, base);
            for w in WORKER_COUNTS {
                let sharded = eval.run(&s, base.with_shards(w));
                assert!(
                    baseline.same_stages(&sharded),
                    "{}/{mode}: sharded W={w} diverged from unsharded",
                    label
                );
                assert_eq!(
                    baseline.converged, sharded.converged,
                    "{}/{mode}: convergence flag differs at W={w}",
                    label
                );
                assert_eq!(sharded.shard.workers, w, "{}/{mode}", label);
            }
        }
    }
}

#[test]
fn sharded_naive_evaluation_matches_semi_naive() {
    // Naive rules pin no delta; sharded stages deal them out to workers
    // round-robin, and the merge must still take the union.
    for case in corpus() {
        let s = SPARSE.draw(&case, case.seed(9_200));
        let label = case.name;
        let eval = Evaluator::new(&case.program);
        let baseline = eval.run(&s, EvalOptions::default());
        for w in [2, 3, 8] {
            let naive = eval.run(
                &s,
                EvalOptions {
                    semi_naive: false,
                    shards: w,
                    ..EvalOptions::default()
                },
            );
            assert!(
                baseline.same_stages(&naive),
                "{}: naive sharded W={w} diverged",
                label
            );
        }
    }
}

#[test]
fn sharded_magic_runs_match_unsharded_for_every_binding_pattern() {
    for case in corpus() {
        let s = SPARSE.draw(&case, case.seed(9_300));
        let label = case.name;
        let arity = case.goal_arity();
        let n = s.universe_size() as u32;
        let query: Vec<u32> = (0..arity).map(|i| (2 * i as u32 + 1) % n.max(1)).collect();
        for mask in 0..1usize << arity {
            let pattern = BindingPattern::new((0..arity).map(|i| mask >> i & 1 == 1).collect());
            let magic = match MagicProgram::rewrite(&case.program, &pattern) {
                Ok(m) => m,
                Err(_) => continue,
            };
            let seeds = vec![(magic.magic_goal(), magic.seed(&query))];
            let compiled = magic.compile();
            let baseline = compiled.run_seeded(&s, EvalOptions::default(), &seeds);
            for w in [2, 3, 4] {
                let sharded =
                    compiled.run_seeded(&s, EvalOptions::default().with_shards(w), &seeds);
                assert!(
                    baseline.same_stages(&sharded),
                    "{}: magic {pattern} sharded W={w} diverged",
                    label
                );
            }
        }
    }
}

#[test]
fn sharded_interrupt_resume_equals_straight_run() {
    let cases = corpus();
    for (index, case) in round_robin(&cases, 24) {
        let s = SPARSE.draw(case, case.seed(9_400));
        let w = WORKER_COUNTS[index % WORKER_COUNTS.len()];
        let options = EvalOptions::default().with_shards(w);
        let eval = Evaluator::new(&case.program);
        let baseline = eval.run(&s, options);
        let (label, gov) = chaos::injection(0x4b56_1990, index, 60);
        match eval.try_run_governed(&s, options, &gov) {
            Ok(done) => assert!(
                baseline.same_stages(&done),
                "{label}: governed sharded W={w} diverged ({})",
                case.name
            ),
            Err(interrupted) => {
                let resumed = eval
                    .resume(&s, options, &Governor::unlimited(), interrupted.checkpoint)
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
                assert!(
                    baseline.same_stages(&resumed),
                    "{label}: resumed sharded W={w} diverged ({})",
                    case.name
                );
            }
        }
    }
}

#[test]
fn sharded_checkpoints_resume_under_different_worker_counts() {
    // A checkpoint records committed stages only, so it can be resumed
    // under any worker count, including unsharded, and still land on the
    // same stages.
    let case = support::case("transitive_closure");
    let s = SPARSE.draw(&case, case.seed(9_500));
    let eval = Evaluator::new(&case.program);
    let baseline = eval.run(&s, EvalOptions::default());
    let (_, gov) = chaos::injection(0x4b56_1990, 3, 30);
    if let Err(interrupted) = eval.try_run_governed(&s, EvalOptions::default().with_shards(4), &gov)
    {
        for resume_opts in [
            EvalOptions::default(),
            EvalOptions::default().with_shards(2),
            EvalOptions::default().with_shards(3),
            EvalOptions::default().with_shards(8),
        ] {
            let resumed = eval
                .resume(
                    &s,
                    resume_opts,
                    &Governor::unlimited(),
                    interrupted.checkpoint.clone(),
                )
                .unwrap_or_else(|e| panic!("cross-shard resume interrupted: {e}"));
            assert!(
                baseline.same_stages(&resumed),
                "cross-shard resume diverged"
            );
        }
    }
}

#[test]
fn shard_stats_are_consistent() {
    // One probe tally per worker; together they are the run's probes, on
    // a straight run and across an interrupt and resume alike.
    let program = transitive_closure();
    let eval = Evaluator::new(&program);
    let check = |stats: &ShardStats, run: &EvalStats, w: usize, label: &str| {
        assert_eq!(stats.workers, w, "{label}");
        assert_eq!(stats.worker_probes.len(), w, "{label}");
        assert_eq!(
            stats.worker_probes.iter().sum::<u64>(),
            run.join_probes + run.block_probes,
            "{label}: worker probes must sum to the run's"
        );
    };
    let s = random_digraph(24, 0.2, 77).to_structure();
    for (mode, base) in configs() {
        for w in [1, 2, 3, 4, 8] {
            let run = eval.run(&s, base.with_shards(w));
            check(&run.shard, &run.eval_stats, w, &format!("{mode} W={w}"));
        }
    }
    // Interrupted and resumed at the worker count that ran, and from
    // W = 4 at W ∈ {1, 2}: the checkpoint carries each worker's tally.
    let s = directed_path(12);
    for (from, to) in [(1, 1), (2, 2), (4, 1), (4, 2)] {
        let label = format!("interrupted at W={from}, resumed at W={to}");
        let options = |w| EvalOptions::default().with_shards(w);
        let cp = eval
            .try_run_governed(&s, options(from), &chaos::step_tripper(60))
            .expect_err("60 steps interrupt the run")
            .checkpoint;
        let partial = cp.partial_result();
        check(&partial.shard, &partial.eval_stats, from, &label);
        let resumed = eval
            .resume(&s, options(to), &Governor::unlimited(), cp)
            .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
        check(&resumed.shard, &resumed.eval_stats, to, &label);
    }
}

// ---------------------------------------------------------------------
// Incremental maintenance under sharding
// ---------------------------------------------------------------------

use datalog_expressiveness::datalog::{Fact, IdbId, IncrementalEngine};
use datalog_expressiveness::structures::{Element, MutableStore, SplitMix64};
use std::collections::HashMap;

/// Live tuple → support map of one maintained store: the assertion count
/// of each live EDB fact, or 1 for each live IDB tuple.
fn support_map(store: &MutableStore) -> HashMap<Vec<Element>, u32> {
    store
        .store()
        .iter()
        .zip(store.support_counts())
        .filter(|&(_, &c)| c > 0)
        .map(|(t, &c)| (t.to_vec(), c))
        .collect()
}

#[test]
fn sharded_incremental_engine_matches_unsharded_on_every_batch() {
    // Sharded ≡ unsharded maintenance across a mutation schedule: after
    // every batch the sharded engine's live IDB sets and EDB assertion
    // counts must equal the unsharded engine's, and each live IDB tuple
    // must hold support 1 (the merge is a set union for every W).
    for case in corpus() {
        let program = &case.program;
        for w in [1usize, 2, 3, 4] {
            let s = SPARSE.draw(&case, case.seed(9_600));
            let (mut plain, _) =
                IncrementalEngine::from_structure(program, &s, EvalOptions::default());
            let (mut sharded, _) = IncrementalEngine::from_structure(
                program,
                &s,
                EvalOptions::default().with_shards(w),
            );
            let mut rng = SplitMix64::seed_from_u64(case.seed(0x1990_9600 + w as u64));
            for batch in 0..4u32 {
                let (inserts, retracts) = random_batch(&plain, &mut rng);
                plain.apply_batch(&inserts, &retracts);
                sharded.apply_batch(&inserts, &retracts);
                let label = format!("{} W={w} batch {batch}", case.name);
                for rel in s.vocabulary().relations() {
                    assert_eq!(
                        support_map(plain.edb_store(rel)),
                        support_map(sharded.edb_store(rel)),
                        "{label}: EDB support diverged on {rel:?}"
                    );
                }
                for i in 0..program.idb_count() {
                    let live = support_map(sharded.idb_store(IdbId(i)));
                    assert_eq!(
                        support_map(plain.idb_store(IdbId(i))),
                        live,
                        "{label}: live set diverged on IDB {i}"
                    );
                    assert!(
                        live.values().all(|&c| c == 1),
                        "{label}: an IDB {i} tuple holds support other than 1"
                    );
                }
            }
        }
    }
}

#[test]
fn sharded_initial_batch_has_stage_identity() {
    // Theorem 3.6 stage identity survives sharded maintenance: the
    // initial batch derives, stage by stage, exactly the from-scratch
    // semi-naive stage counts — for any worker count.
    for case in corpus() {
        let program = &case.program;
        let s = SPARSE.draw(&case, case.seed(9_700));
        let scratch = Evaluator::new(program).run(&s, EvalOptions::default());
        let scratch_stages: Vec<Vec<usize>> = scratch
            .stats
            .iter()
            .map(|st| st.new_tuples.clone())
            .collect();
        for w in [1usize, 2, 3, 8] {
            let (_, summary) = IncrementalEngine::from_structure(
                program,
                &s,
                EvalOptions::default().with_shards(w),
            );
            assert_eq!(
                summary.stage_new, scratch_stages,
                "{} W={w}: initial-batch stage identity",
                case.name
            );
        }
    }
}

#[test]
fn sharded_batch_interrupt_resume_equals_straight_batch() {
    // A governed sharded batch interrupted mid-pass and resumed must land
    // on exactly the straight batch's state: the batch's EDB appends and
    // committed stages are kept, and a partial stage is discarded whole.
    let cases = corpus();
    for (index, case) in round_robin(&cases, 16) {
        let program = &case.program;
        let s = SPARSE.draw(case, case.seed(9_800));
        let w = WORKER_COUNTS[index % WORKER_COUNTS.len()];
        let options = EvalOptions::default().with_shards(w);
        let (mut straight, _) = IncrementalEngine::from_structure(program, &s, options);
        let (mut chaotic, _) = IncrementalEngine::from_structure(program, &s, options);
        let mut rng = SplitMix64::seed_from_u64(case.seed(0x1990_9800 + w as u64));
        let (inserts, retracts) = random_batch(&straight, &mut rng);
        let expect = straight.apply_batch(&inserts, &retracts);
        let (label, gov) = chaos::injection(0x4b56_1990, index, 40);
        let got = match chaotic.try_apply_batch_governed(&inserts, &retracts, &gov) {
            Ok(summary) => summary,
            Err(_) => chaotic
                .resume_batch(&Governor::unlimited())
                .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}")),
        };
        assert_eq!(
            expect.stage_new, got.stage_new,
            "{label} W={w}: stage counts diverged across resume"
        );
        for i in 0..program.idb_count() {
            assert_eq!(
                support_map(straight.idb_store(IdbId(i))),
                support_map(chaotic.idb_store(IdbId(i))),
                "{label} W={w}: support diverged on IDB {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The default worker count: 1, whatever the host's CPUs, so default
// counters are the same on every machine; 0 clamps to 1.
// ---------------------------------------------------------------------

#[test]
fn default_runs_use_one_worker() {
    let program = transitive_closure();
    let s = random_digraph(12, 0.3, 5).to_structure();
    let eval = Evaluator::new(&program);
    for options in [
        EvalOptions::default(),
        EvalOptions::default().with_shards(0),
    ] {
        assert_eq!(eval.run(&s, options).shard.workers, 1);
    }
}

#[test]
fn default_engines_use_one_worker() {
    let program = transitive_closure();
    let s = random_digraph(12, 0.3, 5).to_structure();
    let (engine, _) = IncrementalEngine::from_structure(&program, &s, EvalOptions::default());
    assert_eq!(engine.options().shards, 1);
}

#[test]
fn workers_with_an_empty_share_run_no_rules() {
    // Retracting the only edge of a two-node chain seeds every deletion
    // round with at most one tuple, so at W > 1 all workers but one hold
    // an empty share of it. Such a worker derives nothing from a rule
    // pinned on that seed, and must not run it either: the batch counts
    // the same deletion probes at every worker count.
    let program = transitive_closure();
    let s = datalog_expressiveness::structures::generators::directed_path(2);
    let edge: Fact = (s.vocabulary().relations().next().expect("E"), vec![0, 1]);
    let mut probes = Vec::new();
    for w in [1usize, 2, 3, 4] {
        let opts = EvalOptions::default().with_shards(w);
        let (mut engine, _) = IncrementalEngine::from_structure(&program, &s, opts);
        let summary = engine.apply_batch(&[], std::slice::from_ref(&edge));
        assert_eq!(summary.overdeleted_tuples, 1, "W={w}");
        probes.push(summary.eval_stats.join_probes);
    }
    assert_eq!(probes, [probes[0]; 4], "deletion probes at W = 1, 2, 3, 4");
}

#[test]
fn edb_ids_do_not_depend_on_the_worker_count() {
    // A batch's inserts are appended in the order given, whatever `W`: the
    // EDB's ids are a function of the batches alone.
    for case in corpus() {
        let program = &case.program;
        let s = SPARSE.draw(&case, case.seed(9_990));
        let mut engines: Vec<IncrementalEngine> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let opts = EvalOptions::default().with_shards(w);
                IncrementalEngine::from_structure(program, &s, opts).0
            })
            .collect();
        let mut rng = SplitMix64::seed_from_u64(case.seed(0x1990_9990));
        for batch in 0..4u32 {
            let (inserts, retracts) = random_batch(&engines[0], &mut rng);
            for engine in &mut engines {
                engine.apply_batch(&inserts, &retracts);
            }
            let ids = |engine: &IncrementalEngine| -> Vec<Vec<Element>> {
                s.vocabulary()
                    .relations()
                    .flat_map(|r| engine.edb_store(r).store().iter().map(<[_]>::to_vec))
                    .collect()
            };
            for (engine, w) in engines.iter().zip([1, 2, 4]).skip(1) {
                assert_eq!(
                    ids(&engines[0]),
                    ids(engine),
                    "{} batch {batch}: EDB ids differ at W={w}",
                    case.name
                );
            }
        }
    }
}
