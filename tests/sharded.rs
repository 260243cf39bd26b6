//! Sharded parallel evaluation: hash-partitioned deltas with inter-worker
//! exchange at stage barriers.
//!
//! The load-bearing guarantee is that sharding is invisible to the paper's
//! semantics: the global stage loop is preserved, so Theorem 3.6 stage
//! identity holds for **any** worker count. These tests pin that down:
//!
//! 1. **Stage identity**: for every program, every planner/lowering
//!    combination, and `W ∈ {1, 2, 4, 8}`, the sharded run produces the
//!    same tuple set at every stage as the unsharded run. (Counters such
//!    as `join_probes` may differ — each worker walks the full rule list
//!    over its delta sub-range — so the comparison is set-based.)
//! 2. **Magic sets**: seeded demand-driven runs of the rewritten programs
//!    are likewise stage-identical under sharding, for every binding
//!    pattern of the goal.
//! 3. **Interrupt/resume through exchange seams**: a governed sharded run
//!    that trips mid-evaluation resumes to the same stages as a straight
//!    run — checkpoints never contain in-flight exchange tuples, and the
//!    resumed run re-derives its owner ranges from the committed deltas.
//! 4. **Shard statistics sanity**: owned-tuple counts sum to the derived
//!    total, `W = 1` exchanges nothing, and the skew metric is finite.
//! 5. **Counter exactness at `W = 1`**: one shard *is* the default path,
//!    so from-scratch runs and maintenance batches report identical
//!    counters with and without `shards: Some(1)`.

use datalog_expressiveness::datalog::programs::{
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, two_disjoint_paths_acyclic,
    two_disjoint_paths_paper_rules,
};
use datalog_expressiveness::datalog::{
    BindingPattern, EvalOptions, Evaluator, MagicProgram, PlannerMode, Program,
};
use datalog_expressiveness::homeo::{acyclic_game_program, PatternSpec};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::govern::chaos;
use datalog_expressiveness::structures::{Governor, JoinLowering, Structure};
use std::sync::Arc;

/// One structure over the program's own vocabulary: the path-systems
/// relations `R/3, A/1`, or a digraph `E/2` whose distinguished nodes
/// interpret the vocabulary's constants. Programs with constants (the
/// two-disjoint-paths programs and Theorem 6.2's game programs) assume
/// acyclic inputs, so they get a random DAG.
fn fixture_for(program: &Program, seed: u64) -> Structure {
    let vocab = Arc::clone(program.vocabulary());
    if let (Some(r), Some(a)) = (vocab.relation_by_name("R"), vocab.relation_by_name("A")) {
        let mut s = Structure::new(vocab, 7);
        s.insert(a, &[0]);
        s.insert(a, &[1]);
        for &(x, y, z) in &[(2, 0, 1), (3, 2, 0), (4, 3, 2), (5, 6, 6), (6, 4, 5)] {
            s.insert(r, &[x, y, z]);
        }
        return s;
    }
    // Q_{k,l} with k + l = 3 has a 5-ary goal: a smaller digraph keeps its
    // fixpoint (up to n^5 tuples) in the range of the other programs'.
    let nodes = if program.idb_arity(program.goal()) > 4 {
        6
    } else {
        9
    };
    match vocab.constant_count() {
        0 => random_digraph(nodes, 0.25, seed).to_structure(),
        c => {
            let mut g = random_dag(8, 0.35, seed);
            g.set_distinguished([0, 6, 1, 7, 2, 5][..c].to_vec());
            g.to_structure_with(vocab)
        }
    }
}

/// Theorem 6.2's game programs for a two-edge and a three-edge pattern:
/// one IDB per subset of pattern edges, mutually recursive, with
/// ≠-heavy bodies.
fn game_patterns() -> [PatternSpec; 2] {
    [
        PatternSpec::path_length_two(),
        PatternSpec {
            node_count: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
        },
    ]
}

fn all_programs() -> Vec<Program> {
    let mut programs = vec![
        transitive_closure(),
        avoiding_path(),
        q_prime(),
        q_kl(2, 1),
        path_systems(),
        two_disjoint_paths_acyclic(),
        two_disjoint_paths_paper_rules(),
        q_kl(1, 1),
        q_kl(2, 2),
        q_kl(3, 1),
    ];
    programs.extend(game_patterns().iter().map(acyclic_game_program));
    programs
}

/// The planner/lowering matrix every differential check runs under.
fn option_matrix() -> Vec<(&'static str, EvalOptions)> {
    vec![
        ("textual", EvalOptions::default()),
        (
            "cost-binary",
            EvalOptions {
                planner: PlannerMode::CostBased,
                lowering: JoinLowering::Binary,
                ..EvalOptions::default()
            },
        ),
        (
            "cost-generic",
            EvalOptions {
                planner: PlannerMode::CostBased,
                lowering: JoinLowering::Generic,
                ..EvalOptions::default()
            },
        ),
        (
            "cost-auto",
            EvalOptions {
                planner: PlannerMode::CostBased,
                lowering: JoinLowering::Auto,
                ..EvalOptions::default()
            },
        ),
    ]
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn sharded_stages_match_unsharded_for_every_worker_count() {
    for program in all_programs() {
        let s = fixture_for(&program, 9_100);
        let label = program.idb_name(program.goal()).to_string();
        let eval = Evaluator::new(&program);
        for (mode, base) in option_matrix() {
            let baseline = eval.run(&s, base);
            for w in WORKER_COUNTS {
                let sharded = eval.run(&s, base.with_shards(Some(w)));
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
                let stats = sharded.shard.as_ref().unwrap_or_else(|| {
                    panic!("{}/{mode}: sharded run reported no ShardStats", label)
                });
                assert_eq!(stats.workers, w, "{}/{mode}", label);
            }
        }
    }
}

#[test]
fn sharded_naive_evaluation_matches_semi_naive() {
    // Naive rules pin no delta; sharded stages deal them out to workers
    // round-robin but must still route derivations by owner.
    for program in all_programs() {
        let s = fixture_for(&program, 9_200);
        let label = program.idb_name(program.goal()).to_string();
        let eval = Evaluator::new(&program);
        let baseline = eval.run(&s, EvalOptions::default());
        for w in [2, 8] {
            let naive = eval.run(
                &s,
                EvalOptions {
                    semi_naive: false,
                    shards: Some(w),
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
    for program in all_programs() {
        let s = fixture_for(&program, 9_300);
        let label = program.idb_name(program.goal()).to_string();
        let arity = program.idb_arity(program.goal());
        let n = s.universe_size() as u32;
        let query: Vec<u32> = (0..arity).map(|i| (2 * i as u32 + 1) % n.max(1)).collect();
        for mask in 0..1usize << arity {
            let pattern = BindingPattern::new((0..arity).map(|i| mask >> i & 1 == 1).collect());
            let magic = match MagicProgram::rewrite(&program, &pattern) {
                Ok(m) => m,
                Err(_) => continue,
            };
            let seeds = vec![(magic.magic_goal(), magic.seed(&query))];
            let compiled = magic.compile();
            let baseline = compiled.run_seeded(&s, EvalOptions::default(), &seeds);
            for w in [2, 4] {
                let sharded =
                    compiled.run_seeded(&s, EvalOptions::default().with_shards(Some(w)), &seeds);
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
    let programs = all_programs();
    for index in 0..24usize {
        let program = &programs[index % programs.len()];
        let s = fixture_for(program, 9_400 + (index % programs.len()) as u64);
        let w = WORKER_COUNTS[index % WORKER_COUNTS.len()];
        let options = EvalOptions::default().with_shards(Some(w));
        let eval = Evaluator::new(program);
        let baseline = eval.run(&s, options);
        let (label, gov) = chaos::injection(0x4b56_1990, index, 60);
        match eval.try_run_governed(&s, options, &gov) {
            Ok(done) => assert!(
                baseline.same_stages(&done),
                "{label}: governed sharded W={w} diverged (program {index})"
            ),
            Err(interrupted) => {
                let resumed = eval
                    .resume(&s, options, &Governor::unlimited(), interrupted.checkpoint)
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
                assert!(
                    baseline.same_stages(&resumed),
                    "{label}: resumed sharded W={w} diverged (program {index})"
                );
            }
        }
    }
}

#[test]
fn sharded_checkpoints_resume_under_different_worker_counts() {
    // A checkpoint records committed stages only — never in-flight exchange
    // queues — so it can be resumed under any worker count, including
    // unsharded, and still land on the same stages.
    let program = transitive_closure();
    let s = fixture_for(&program, 9_500);
    let eval = Evaluator::new(&program);
    let baseline = eval.run(&s, EvalOptions::default());
    let (_, gov) = chaos::injection(0x4b56_1990, 3, 30);
    if let Err(interrupted) =
        eval.try_run_governed(&s, EvalOptions::default().with_shards(Some(4)), &gov)
    {
        for resume_opts in [
            EvalOptions::default(),
            EvalOptions::default().with_shards(Some(2)),
            EvalOptions::default().with_shards(Some(8)),
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
    let program = transitive_closure();
    let s = random_digraph(24, 0.2, 77).to_structure();
    let eval = Evaluator::new(&program);

    // W = 1: everything is local, nothing crosses a shard boundary.
    let solo = eval.run(&s, EvalOptions::default().with_shards(Some(1)));
    let solo_stats = solo.shard.as_ref().expect("shard stats");
    assert_eq!(solo_stats.exchanged_tuples, 0, "W=1 must exchange nothing");
    assert_eq!(solo_stats.workers, 1);

    for w in [2, 4, 8] {
        let run = eval.run(&s, EvalOptions::default().with_shards(Some(w)));
        let stats = run.shard.as_ref().expect("shard stats");
        assert_eq!(stats.owned.len(), w);
        let owned_total: u64 = stats.owned.iter().sum();
        let derived: u64 = run.idb.iter().map(|r| r.len() as u64).sum();
        assert_eq!(
            owned_total, derived,
            "W={w}: per-worker owned counts must sum to the derived total"
        );
        assert!(
            stats.skew_pct() >= 0.0 && stats.skew_pct().is_finite(),
            "W={w}"
        );
        assert_eq!(stats.idb_keys.len(), run.idb.len(), "W={w}");
        assert!(
            stats.local_variants + stats.exchange_variants > 0,
            "W={w}: planner classified no variants"
        );
    }
}

// ---------------------------------------------------------------------
// Incremental maintenance under sharding
// ---------------------------------------------------------------------

use datalog_expressiveness::datalog::{Fact, IdbId, IncrementalEngine};
use datalog_expressiveness::structures::{Element, SplitMix64};
use std::collections::HashMap;

/// A random mutation batch against the engine's current EDB (mirrors the
/// incremental suite's schedule generator).
fn random_batch(engine: &IncrementalEngine, rng: &mut SplitMix64) -> (Vec<Fact>, Vec<Fact>) {
    let s = engine.edb_structure();
    let n = s.universe_size() as u32;
    let mut inserts = Vec::new();
    let mut retracts = Vec::new();
    for rel in s.vocabulary().relations() {
        for t in s.relation(rel).iter() {
            if rng.gen_bool(0.25) {
                retracts.push((rel, t.to_vec()));
            }
        }
        let arity = s.vocabulary().arity(rel);
        for _ in 0..rng.gen_range(0u32..4) {
            let t: Vec<Element> = (0..arity).map(|_| rng.gen_range(0..n)).collect();
            inserts.push((rel, t));
        }
    }
    (inserts, retracts)
}

/// Live tuple → derivation-support map of one maintained IDB predicate.
fn support_map(engine: &IncrementalEngine, i: usize) -> HashMap<Vec<Element>, u32> {
    let store = engine.idb_store(IdbId(i));
    store
        .store()
        .iter()
        .zip(store.support_counts())
        .filter(|&(_, &c)| c > 0)
        .map(|(t, &c)| (t.to_vec(), c))
        .collect()
}

#[test]
fn sharded_incremental_engine_matches_unsharded_supports_exactly() {
    // Counting exactness: every derivation must be credited exactly once
    // globally, so the sharded engine's per-tuple support counts — not
    // just its live sets — must equal the unsharded engine's after every
    // batch of a mutation schedule.
    for (pi, program) in all_programs().iter().enumerate() {
        for w in [1usize, 2, 4] {
            let s = fixture_for(program, 9_600 + pi as u64);
            let (mut plain, _) =
                IncrementalEngine::from_structure(program, &s, EvalOptions::default());
            let (mut sharded, first) = IncrementalEngine::from_structure(
                program,
                &s,
                EvalOptions::default().with_shards(Some(w)),
            );
            if w == 1 {
                assert_eq!(first.exchanged_tuples, 0, "W=1 exchanges nothing");
            }
            let mut rng = SplitMix64::seed_from_u64(0x1990_9600 + pi as u64 * 31 + w as u64);
            for batch in 0..4u32 {
                let (inserts, retracts) = random_batch(&plain, &mut rng);
                plain.apply_batch(&inserts, &retracts);
                sharded.apply_batch(&inserts, &retracts);
                for i in 0..program.idb_count() {
                    assert_eq!(
                        support_map(&plain, i),
                        support_map(&sharded, i),
                        "program {pi} W={w} batch {batch}: support diverged on IDB {i}"
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
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 9_700 + pi as u64);
        let scratch = Evaluator::new(program).run(&s, EvalOptions::default());
        let scratch_stages: Vec<Vec<usize>> = scratch
            .stats
            .iter()
            .map(|st| st.new_tuples.clone())
            .collect();
        for w in [1usize, 2, 8] {
            let (_, summary) = IncrementalEngine::from_structure(
                program,
                &s,
                EvalOptions::default().with_shards(Some(w)),
            );
            assert_eq!(
                summary.stage_new, scratch_stages,
                "program {pi} W={w}: initial-batch stage identity"
            );
        }
    }
}

#[test]
fn sharded_batch_interrupt_resume_equals_straight_batch() {
    // A governed sharded batch interrupted mid-pass and resumed must land
    // on exactly the straight batch's state: the owner-sorted EDB appends
    // and the pure-function shard plan are both re-derived from committed
    // state, and checkpoints hold no in-flight exchange tuples.
    let programs = all_programs();
    for index in 0..16usize {
        let program = &programs[index % programs.len()];
        let s = fixture_for(program, 9_800 + (index % programs.len()) as u64);
        let w = WORKER_COUNTS[index % WORKER_COUNTS.len()];
        let options = EvalOptions::default().with_shards(Some(w));
        let (mut straight, _) = IncrementalEngine::from_structure(program, &s, options);
        let (mut chaotic, _) = IncrementalEngine::from_structure(program, &s, options);
        let mut rng = SplitMix64::seed_from_u64(0x1990_9800 + index as u64);
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
                support_map(&straight, i),
                support_map(&chaotic, i),
                "{label} W={w}: support diverged on IDB {i}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Counter exactness: one shard is the default path
// ---------------------------------------------------------------------

#[test]
fn single_shard_is_counter_identical_to_default() {
    // `None` and `Some(1)` run the same single-worker stages, so every
    // engine counter — not just every stage set — must agree. The
    // cost-based Q_{2,1} instance is large enough that a multi-threaded
    // default path would shift its `join_probes` with the host's CPUs
    // (its textual and generic runs take minutes, so it runs under the
    // `cost-auto` options alone).
    let mut cases: Vec<(String, Program, Structure, Vec<_>)> = all_programs()
        .into_iter()
        .map(|p| {
            let s = fixture_for(&p, 9_900);
            (p.idb_name(p.goal()).to_string(), p, s, option_matrix())
        })
        .collect();
    let cost_auto = option_matrix()
        .into_iter()
        .filter(|(m, _)| *m == "cost-auto");
    cases.push((
        "Q21/n24".to_string(),
        q_kl(2, 1),
        random_digraph(24, 0.15, 7).to_structure(),
        cost_auto.collect(),
    ));
    for (label, program, s, matrix) in &cases {
        let eval = Evaluator::new(program);
        for &(mode, base) in matrix {
            let default = eval.run(s, base);
            let single = eval.run(s, base.with_shards(Some(1)));
            assert_eq!(
                default.eval_stats, single.eval_stats,
                "{label}/{mode}: counters differ at W=1"
            );
            assert_eq!(default.stats, single.stats, "{label}/{mode}");
            assert!(default.same_stages(&single), "{label}/{mode}: stages");
            assert!(default.shard.is_none(), "{label}/{mode}");
            assert_eq!(single.shard.map(|st| st.workers), Some(1), "{label}/{mode}");
        }
    }
}

#[test]
fn single_shard_maintenance_is_counter_identical_to_default() {
    // The same exactness for incremental maintenance: along a churn
    // stream, every batch's counters agree between the default engine and
    // one pinned at one shard.
    for (pi, program) in all_programs().iter().enumerate() {
        for (mode, base) in option_matrix() {
            let s = fixture_for(program, 9_950 + pi as u64);
            let (mut plain, first) = IncrementalEngine::from_structure(program, &s, base);
            let (mut single, first_single) =
                IncrementalEngine::from_structure(program, &s, base.with_shards(Some(1)));
            assert_eq!(
                first.eval_stats, first_single.eval_stats,
                "program {pi}/{mode}: initial batch"
            );
            let mut rng = SplitMix64::seed_from_u64(0x1990_9950 + pi as u64);
            for batch in 0..4u32 {
                let (inserts, retracts) = random_batch(&plain, &mut rng);
                let a = plain.apply_batch(&inserts, &retracts);
                let b = single.apply_batch(&inserts, &retracts);
                assert_eq!(
                    a.eval_stats, b.eval_stats,
                    "program {pi}/{mode} batch {batch}: counters differ at W=1"
                );
                assert_eq!(
                    a.stage_new, b.stage_new,
                    "program {pi}/{mode} batch {batch}"
                );
            }
        }
    }
}
