//! Sharded parallel evaluation: each stage's deltas cut into `W`
//! contiguous worker shares, merged in worker order at the stage barrier.
//!
//! The load-bearing guarantee is that sharding is invisible to the paper's
//! semantics: the global stage loop is preserved, so Theorem 3.6 stage
//! identity holds for **any** worker count. These tests pin that down:
//!
//! 1. **Stage identity**: for every program, every planner/lowering
//!    combination, and `W ∈ {1, 2, 3, 4, 8}`, the sharded run produces the
//!    same tuple set at every stage as the unsharded run. (Counters such
//!    as `join_probes` may differ — each worker walks the full rule list
//!    over its delta share — so the comparison is set-based.)
//! 2. **Magic sets**: seeded demand-driven runs of the rewritten programs
//!    are likewise stage-identical under sharding, for every binding
//!    pattern of the goal.
//! 3. **Interrupt/resume**: a governed sharded run that trips
//!    mid-evaluation resumes to the same stages as a straight run —
//!    checkpoints hold committed stages only, and any worker count can cut
//!    their deltas into shares.
//! 4. **Shard statistics**: one probe tally per worker, summing to the
//!    run's probes.
//! 5. **One worker by default**: default runs and engines use `W = 1`,
//!    whatever the host's CPUs, and `W = 0` clamps to 1.
//! 6. **Maintenance**: per-tuple support is exact at every `W`, and the
//!    EDB's ids follow the batches alone, not the worker count.

use datalog_expressiveness::datalog::programs::{
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, two_disjoint_paths_acyclic,
    two_disjoint_paths_paper_rules,
};
use datalog_expressiveness::datalog::{
    BindingPattern, EvalOptions, Evaluator, MagicProgram, PlannerMode, Program,
};
use datalog_expressiveness::homeo::{
    acyclic_game_program, class_c_program, classify, PatternClass, PatternSpec,
};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::govern::chaos;
use datalog_expressiveness::structures::{Governor, JoinLowering, Structure};
use std::sync::Arc;

/// One structure over the program's own vocabulary: the path-systems
/// relations `R/3, A/1`, or a digraph `E/2` whose distinguished nodes
/// interpret the vocabulary's constants. Programs with constants (the
/// two-disjoint-paths programs and Theorem 6.2's game programs) assume
/// acyclic inputs, so they get a random DAG; Theorem 6.1's class-`C`
/// programs, which hold on any input, get one too.
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

/// Theorem 6.1's class-`C` patterns: the self-loop pattern
/// `{(0,0), (0,1)}`, whose program is the proof's self-loop case analysis,
/// and the two-leg out-star, whose program is built from `Q_{2,0}`.
fn class_c_patterns() -> [PatternSpec; 2] {
    [
        PatternSpec {
            node_count: 2,
            edges: vec![(0, 0), (0, 1)],
        },
        PatternSpec {
            node_count: 3,
            edges: vec![(0, 1), (0, 2)],
        },
    ]
}

/// Theorem 6.1's program for a class-`C` pattern.
fn class_c(pattern: &PatternSpec) -> Program {
    match classify(pattern) {
        PatternClass::InC(root) => class_c_program(pattern, &root),
        other => panic!("{pattern:?} is not in C: {other:?}"),
    }
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
    programs.extend(class_c_patterns().iter().map(class_c));
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

const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

#[test]
fn sharded_stages_match_unsharded_for_every_worker_count() {
    for program in all_programs() {
        let s = fixture_for(&program, 9_100);
        let label = program.idb_name(program.goal()).to_string();
        let eval = Evaluator::new(&program);
        for (mode, base) in option_matrix() {
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
    for program in all_programs() {
        let s = fixture_for(&program, 9_200);
        let label = program.idb_name(program.goal()).to_string();
        let eval = Evaluator::new(&program);
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
    let programs = all_programs();
    for index in 0..24usize {
        let program = &programs[index % programs.len()];
        let s = fixture_for(program, 9_400 + (index % programs.len()) as u64);
        let w = WORKER_COUNTS[index % WORKER_COUNTS.len()];
        let options = EvalOptions::default().with_shards(w);
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
    // A checkpoint records committed stages only, so it can be resumed
    // under any worker count, including unsharded, and still land on the
    // same stages.
    let program = transitive_closure();
    let s = fixture_for(&program, 9_500);
    let eval = Evaluator::new(&program);
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
    // One probe tally per worker; together they are the run's probes.
    let program = transitive_closure();
    let s = random_digraph(24, 0.2, 77).to_structure();
    let eval = Evaluator::new(&program);
    for (mode, base) in option_matrix() {
        for w in [1, 2, 3, 4, 8] {
            let run = eval.run(&s, base.with_shards(w));
            let stats = &run.shard;
            assert_eq!(stats.workers, w, "{mode}");
            assert_eq!(stats.worker_probes.len(), w, "{mode}");
            assert_eq!(
                stats.worker_probes.iter().sum::<u64>(),
                run.eval_stats.join_probes + run.eval_stats.block_probes,
                "{mode} W={w}: worker probes must sum to the run's"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Incremental maintenance under sharding
// ---------------------------------------------------------------------

use datalog_expressiveness::datalog::{Fact, IdbId, IncrementalEngine};
use datalog_expressiveness::structures::{Element, MutableStore, SplitMix64};
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
    for (pi, program) in all_programs().iter().enumerate() {
        for w in [1usize, 2, 3, 4] {
            let s = fixture_for(program, 9_600 + pi as u64);
            let (mut plain, _) =
                IncrementalEngine::from_structure(program, &s, EvalOptions::default());
            let (mut sharded, _) = IncrementalEngine::from_structure(
                program,
                &s,
                EvalOptions::default().with_shards(w),
            );
            let mut rng = SplitMix64::seed_from_u64(0x1990_9600 + pi as u64 * 31 + w as u64);
            for batch in 0..4u32 {
                let (inserts, retracts) = random_batch(&plain, &mut rng);
                plain.apply_batch(&inserts, &retracts);
                sharded.apply_batch(&inserts, &retracts);
                let label = format!("program {pi} W={w} batch {batch}");
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
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 9_700 + pi as u64);
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
                "program {pi} W={w}: initial-batch stage identity"
            );
        }
    }
}

#[test]
fn sharded_batch_interrupt_resume_equals_straight_batch() {
    // A governed sharded batch interrupted mid-pass and resumed must land
    // on exactly the straight batch's state: the batch's EDB appends and
    // committed stages are kept, and a partial stage is discarded whole.
    let programs = all_programs();
    for index in 0..16usize {
        let program = &programs[index % programs.len()];
        let s = fixture_for(program, 9_800 + (index % programs.len()) as u64);
        let w = WORKER_COUNTS[index % WORKER_COUNTS.len()];
        let options = EvalOptions::default().with_shards(w);
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
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 9_990 + pi as u64);
        let mut engines: Vec<IncrementalEngine> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                let opts = EvalOptions::default().with_shards(w);
                IncrementalEngine::from_structure(program, &s, opts).0
            })
            .collect();
        let mut rng = SplitMix64::seed_from_u64(0x1990_9990 + pi as u64);
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
                    "program {pi} batch {batch}: EDB ids differ at W={w}"
                );
            }
        }
    }
}
