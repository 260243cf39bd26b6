//! Chaos and differential tests for the engine-wide governance layer.
//!
//! Two families of guarantees are exercised here, across every governed
//! solver in the workspace:
//!
//! 1. **Differential**: each `try_*` entry point under an unlimited
//!    governor produces exactly the result of its plain counterpart — for
//!    every case of the shared corpus (`support::corpus`, no filter:
//!    every program runs governed) over its `SMALL` fixtures, every
//!    pebble game family at `k ∈ {1, 2, 3}`, every homeomorphism dispatch
//!    method, the lfp machinery, the reduction builders, and the flow/fan
//!    kernels.
//! 2. **Chaos**: under seeded fault injection ([`chaos::injection`]
//!    arms exactly one of step-budget / cancellation / expired-deadline
//!    per point), no solver panics, checkpoint counters are monotone,
//!    and `resume(interrupt(x)) ≡ run(x)` — stage by stage for Datalog,
//!    verdict by verdict for the games.
//!
//! The injection-point counts below sum to 181 distinct seeded points
//! (24 Datalog + 12 existential game + 8 CNF game + 8 acyclic game +
//! 8 lfp + 6 stage comparison + 8 homeomorphism + 8 reduction + 4 flow +
//! 12 lazy arena + 8 seeded magic evaluation + 16 cost-based sequential +
//! 15 cost-based parallel + 12 generic-join variable loop + 8 batched
//! block loop + 24 incremental maintenance), satisfying the ≥64-point
//! acceptance bar; every point runs in every `cargo test` invocation. The
//! corpus-wide loops deal their points round-robin over the 15 corpus
//! cases, at least one point per case, so a new case adds points only to
//! a loop with fewer points than cases. The
//! cost-based points trip faults inside the SCC stratum scheduler
//! (stage-boundary checks), the planned join kernels (per-probe step
//! charges), the batched scan's per-block charges, and the generic join's
//! per-value variable-loop charges. The maintenance points trip faults in
//! both phases of an incremental batch — the read-only deletion planner's
//! per-probe charges, in full DRed and in the recompute guard's
//! rederivation of an SCC, and the insertion pass's stage-boundary and
//! per-stage tuple/byte charges — and assert that an interrupted batch,
//! resumed, lands counter-exactly on the uninterrupted batch.

mod support;

use datalog_expressiveness::datalog::programs::{avoiding_path, transitive_closure};
use datalog_expressiveness::datalog::{EvalOptions, EvalResult, Evaluator, PlannerMode};
use datalog_expressiveness::graphalg::{disjoint_fan, try_disjoint_fan};
use datalog_expressiveness::homeo;
use datalog_expressiveness::logic::{
    compare_stages_on_shared_store, compute_lfp, program_to_lfp, resume_compare_stages, resume_lfp,
    try_compare_stages_on_shared_store, try_compute_lfp, FpEnv, FpFormula,
};
use datalog_expressiveness::pebble::{
    AcyclicGame, CnfFormula, CnfGame, ExistentialGame, PatternSpec,
};
use datalog_expressiveness::reduction::thm66::Thm66Witness;
use datalog_expressiveness::reduction::GPhi;
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::govern::chaos;
use datalog_expressiveness::structures::{Digraph, EvalStats, Governor, HomKind, Structure};
use std::collections::HashMap;
use support::{configs, corpus, round_robin, SMALL};

fn assert_results_identical(plain: &EvalResult, governed: &EvalResult, label: &str) {
    assert!(governed.same_stages(plain), "{label}: stages differ");
    assert_eq!(governed.converged, plain.converged, "{label}: convergence");
    assert_eq!(governed.eval_stats, plain.eval_stats, "{label}: eval stats");
    for (i, (a, b)) in plain.idb.iter().zip(&governed.idb).enumerate() {
        assert_eq!(a.len(), b.len(), "{label}: IDB {i} size");
        assert!(a.iter().all(|t| b.contains(t)), "{label}: IDB {i} tuples");
    }
}

fn stats_monotone(prefix: &EvalStats, total: &EvalStats) -> bool {
    prefix.tuples_interned <= total.tuples_interned
        && prefix.duplicate_derivations <= total.duplicate_derivations
        && prefix.join_probes <= total.join_probes
        && prefix.stages <= total.stages
        && prefix.block_probes <= total.block_probes
        && prefix.gallop_steps <= total.gallop_steps
        && prefix.wcoj_rules <= total.wcoj_rules
}

// ---------------------------------------------------------------------
// Differential: unlimited governor ≡ plain, for every solver.
// ---------------------------------------------------------------------

#[test]
fn datalog_unlimited_governor_matches_plain_on_every_program() {
    for case in corpus() {
        let s = SMALL.draw(&case, case.seed(4_100));
        let eval = Evaluator::new(&case.program);
        let plain = eval.run(&s, chaos_options());
        let governed = eval
            .try_run_governed(&s, chaos_options(), &Governor::unlimited())
            .unwrap_or_else(|e| panic!("{}: unlimited interrupt: {e}", case.name));
        assert_results_identical(&plain, &governed, case.name);
    }
}

#[test]
fn pebble_games_unlimited_governor_matches_plain_for_k_1_2_3() {
    let formula = CnfFormula::complete(2);
    for k in 1..=3usize {
        for seed in 0..3u64 {
            let a = random_digraph(5, 0.3, 5_000 + seed).to_structure();
            let b = random_digraph(5, 0.3, 6_000 + seed).to_structure();
            let plain = ExistentialGame::solve(&a, &b, k, HomKind::Homomorphism);
            let governed = ExistentialGame::try_solve(
                &a,
                &b,
                k,
                HomKind::Homomorphism,
                &Governor::unlimited(),
            )
            .expect("unlimited");
            assert_eq!(plain.winner(), governed.winner(), "game k={k} seed={seed}");
        }
        let plain = CnfGame::solve(&formula, k);
        let governed = CnfGame::try_solve(&formula, k, &Governor::unlimited()).expect("unlimited");
        assert_eq!(plain.winner(), governed.winner(), "cnf k={k}");
    }
    let pattern = PatternSpec::two_disjoint_edges();
    for seed in 0..3u64 {
        let g = random_dag(8, 0.3, 7_000 + seed);
        let d = [0u32, 6, 1, 7];
        let plain = AcyclicGame::solve(pattern.clone(), &g, &d);
        let governed = AcyclicGame::try_solve(pattern.clone(), &g, &d, &Governor::unlimited())
            .expect("unlimited");
        assert_eq!(plain.winner(), governed.winner(), "acyclic seed={seed}");
    }
}

#[test]
fn homeomorphism_unlimited_governor_matches_plain_on_every_method() {
    for (pattern, g, d) in dispatch_cases() {
        let plain = homeo::solve(&pattern, &g, &d);
        let governed =
            homeo::try_solve(&pattern, &g, &d, &Governor::unlimited()).expect("unlimited");
        assert_eq!(plain, governed);
    }
}

#[test]
fn reduction_builders_unlimited_governor_matches_plain() {
    let plain = GPhi::build(CnfFormula::complete(2));
    let governed =
        GPhi::try_build(CnfFormula::complete(2), &Governor::unlimited()).expect("unlimited");
    assert_eq!(plain.graph.node_count(), governed.graph.node_count());
    assert_eq!(plain.graph.edge_count(), governed.graph.edge_count());
    let w_plain = Thm66Witness::new(2);
    let w_gov = Thm66Witness::try_new(2, &Governor::unlimited()).expect("unlimited");
    assert_eq!(
        w_plain.gphi.graph.node_count(),
        w_gov.gphi.graph.node_count()
    );
}

// ---------------------------------------------------------------------
// Chaos: seeded fault injection, resume ≡ run, no panics, monotone
// counters. Each solver consumes a disjoint block of injection indices.
// ---------------------------------------------------------------------

/// Seed shared by every chaos schedule. CI re-rolls the whole matrix by
/// setting `KV_CHAOS_SEED`; locally the fixed default keeps failures
/// reproducible without any environment setup.
fn chaos_seed() -> u64 {
    std::env::var("KV_CHAOS_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0x4b56_1990)
}

/// Worker-count axis for the sharded evaluator. CI re-runs the Datalog
/// chaos points with `KV_CHAOS_SHARDS` set (W ∈ {1, 4}) so interrupts
/// and resumes are driven through the per-worker delta shares and the
/// worker-order merge too; unset keeps the single-worker path. Stage
/// identity does not depend on the worker count, so every assertion
/// below holds unchanged.
fn chaos_shards() -> usize {
    std::env::var("KV_CHAOS_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

/// Default options with the chaos shards axis applied.
fn chaos_options() -> EvalOptions {
    EvalOptions::default().with_shards(chaos_shards())
}

#[test]
fn chaos_datalog_interrupt_resume_equals_run() {
    let cases = corpus();
    for (index, case) in round_robin(&cases, 24) {
        let s = SMALL.draw(case, case.seed(4_100));
        let eval = Evaluator::new(&case.program);
        let baseline = eval.run(&s, chaos_options());
        let (label, gov) = chaos::injection(chaos_seed(), index, 60);
        match eval.try_run_governed(&s, chaos_options(), &gov) {
            Ok(done) => assert_results_identical(&baseline, &done, &label),
            Err(interrupted) => {
                let cp_stats = interrupted.checkpoint.eval_stats();
                assert!(
                    stats_monotone(&cp_stats, &baseline.eval_stats),
                    "{label}: checkpoint stats exceed the full run"
                );
                let resumed = eval
                    .resume(
                        &s,
                        chaos_options(),
                        &Governor::unlimited(),
                        interrupted.checkpoint,
                    )
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
                assert!(
                    stats_monotone(&cp_stats, &resumed.eval_stats),
                    "{label}: stats regressed across resume"
                );
                assert_results_identical(&baseline, &resumed, &label);
            }
        }
    }
}

#[test]
fn chaos_existential_game_interrupt_resume_equals_run() {
    for index in 0..12usize {
        let seed = 5_000 + (index % 3) as u64;
        let a = random_digraph(5, 0.3, seed).to_structure();
        let b = random_digraph(5, 0.3, 1_000 + seed).to_structure();
        let k = 1 + index % 3;
        let baseline = ExistentialGame::solve(&a, &b, k, HomKind::OneToOne).winner();
        let (label, gov) = chaos::injection(chaos_seed(), 100 + index, 80);
        let game = match ExistentialGame::try_solve(&a, &b, k, HomKind::OneToOne, &gov) {
            Ok(game) => game,
            Err(interrupted) => ExistentialGame::resume(
                &a,
                &b,
                k,
                HomKind::OneToOne,
                interrupted.checkpoint,
                &Governor::unlimited(),
            )
            .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}")),
        };
        assert_eq!(game.winner(), baseline, "{label} (k={k}, seed={seed})");
    }
}

#[test]
fn chaos_cnf_game_interrupt_resume_equals_run() {
    let formula = CnfFormula::complete(2);
    for index in 0..8usize {
        let k = 2 + index % 2;
        let baseline = CnfGame::solve(&formula, k).winner();
        let (label, gov) = chaos::injection(chaos_seed(), 200 + index, 60);
        let game = match CnfGame::try_solve(&formula, k, &gov) {
            Ok(game) => game,
            Err(interrupted) => {
                CnfGame::resume(&formula, k, interrupted.checkpoint, &Governor::unlimited())
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"))
            }
        };
        assert_eq!(game.winner(), baseline, "{label} (k={k})");
    }
}

#[test]
fn chaos_acyclic_game_interrupt_resume_equals_run() {
    let pattern = PatternSpec::two_disjoint_edges();
    for index in 0..8usize {
        let g = random_dag(8, 0.3, 7_000 + (index % 4) as u64);
        let d = [0u32, 6, 1, 7];
        let baseline = AcyclicGame::solve(pattern.clone(), &g, &d).winner();
        let (label, gov) = chaos::injection(chaos_seed(), 300 + index, 60);
        let game = match AcyclicGame::try_solve(pattern.clone(), &g, &d, &gov) {
            Ok(game) => game,
            Err(interrupted) => AcyclicGame::resume(
                pattern.clone(),
                &g,
                &d,
                interrupted.checkpoint,
                &Governor::unlimited(),
            )
            .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}")),
        };
        assert_eq!(game.winner(), baseline, "{label}");
    }
}

#[test]
fn chaos_lfp_interrupt_resume_equals_run() {
    let FpFormula::Lfp {
        rel, vars, body, ..
    } = program_to_lfp(&transitive_closure())
    else {
        panic!("program_to_lfp returns an lfp binder");
    };
    let s = random_digraph(6, 0.3, 19_000).to_structure();
    let mut env = FpEnv {
        vars: Vec::new(),
        rels: HashMap::new(),
    };
    env.vars.resize(16, None);
    let baseline = compute_lfp(rel, &vars, &body, &s, &env);
    for index in 0..8usize {
        let (label, gov) = chaos::injection(chaos_seed(), 400 + index, 50);
        let store = match try_compute_lfp(rel, &vars, &body, &s, &env, &gov) {
            Ok(store) => store,
            Err(interrupted) => {
                assert!(
                    interrupted.checkpoint.tuples() <= baseline.len(),
                    "{label}: checkpoint overshoots the fixpoint"
                );
                resume_lfp(
                    rel,
                    &vars,
                    &body,
                    &s,
                    &env,
                    interrupted.checkpoint,
                    &Governor::unlimited(),
                )
                .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"))
            }
        };
        assert!(store.set_eq(&baseline), "{label}: fixpoint differs");
    }
}

#[test]
fn chaos_stage_comparison_interrupt_resume_equals_run() {
    let program = transitive_closure();
    let s = random_digraph(5, 0.35, 21_000).to_structure();
    let baseline = compare_stages_on_shared_store(&program, &s, None);
    for index in 0..6usize {
        let (label, gov) = chaos::injection(chaos_seed(), 500 + index, 50);
        let report = match try_compare_stages_on_shared_store(&program, &s, None, &gov) {
            Ok(report) => report,
            Err(interrupted) => resume_compare_stages(
                &program,
                &s,
                None,
                interrupted.checkpoint,
                &Governor::unlimited(),
            )
            .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}")),
        };
        assert_eq!(report.identical, baseline.identical, "{label}");
        assert_eq!(report.stages.len(), baseline.stages.len(), "{label}");
    }
}

fn dispatch_cases() -> Vec<(PatternSpec, Digraph, Vec<u32>)> {
    vec![
        // Class C → flow solver.
        (
            PatternSpec {
                node_count: 3,
                edges: vec![(0, 1), (0, 2)],
            },
            random_digraph(7, 0.3, 11),
            vec![0, 1, 2],
        ),
        // DAG input → acyclic game.
        (
            PatternSpec::two_disjoint_edges(),
            random_dag(8, 0.3, 12),
            vec![0, 6, 1, 7],
        ),
        // Cyclic input, pattern in C̄ → brute force.
        (
            PatternSpec::two_disjoint_edges(),
            {
                let mut g = random_digraph(7, 0.3, 13);
                g.add_edge(5, 0);
                g.add_edge(0, 5);
                g
            },
            vec![0, 1, 2, 3],
        ),
    ]
}

#[test]
fn chaos_homeomorphism_interrupt_restart_equals_run() {
    // The dispatcher's flow and brute-force methods are pure and use the
    // restart-resume contract: after an interrupt, re-calling with a
    // relaxed governor recomputes from scratch. The acyclic-game method
    // drops its checkpoint at this level (documented), so restart is the
    // uniform recovery for all three.
    let cases = dispatch_cases();
    for index in 0..8usize {
        let (pattern, g, d) = &cases[index % cases.len()];
        let baseline = homeo::solve(pattern, g, d);
        let (label, gov) = chaos::injection(chaos_seed(), 600 + index, 40);
        let outcome = match homeo::try_solve(pattern, g, d, &gov) {
            Ok(v) => v,
            Err(_) => homeo::try_solve(pattern, g, d, &Governor::unlimited())
                .unwrap_or_else(|e| panic!("{label}: unlimited restart interrupted: {e}")),
        };
        assert_eq!(outcome, baseline, "{label}");
    }
}

#[test]
fn chaos_reduction_builders_interrupt_restart_equals_run() {
    let baseline = GPhi::build(CnfFormula::complete(2));
    for index in 0..8usize {
        let (label, gov) = chaos::injection(chaos_seed(), 700 + index, 40);
        let built = match GPhi::try_build(CnfFormula::complete(2), &gov) {
            Ok(g) => g,
            Err(_) => GPhi::try_build(CnfFormula::complete(2), &Governor::unlimited())
                .unwrap_or_else(|e| panic!("{label}: unlimited restart interrupted: {e}")),
        };
        assert_eq!(
            built.graph.node_count(),
            baseline.graph.node_count(),
            "{label}"
        );
        assert_eq!(
            built.graph.edge_count(),
            baseline.graph.edge_count(),
            "{label}"
        );
    }
}

#[test]
fn chaos_disjoint_fan_interrupt_restart_equals_run() {
    // The fan kernel is pure: on interrupt, re-calling with a relaxed
    // governor recomputes from scratch (underneath, Edmonds–Karp treats
    // the residual capacities as its checkpoint, exercised in the
    // kv-graphalg unit tests; here we verify the restart contract).
    let g = random_digraph(9, 0.35, 31_000);
    let baseline = disjoint_fan(&g, 0, &[7, 8], &[3]);
    for index in 0..4usize {
        let (label, gov) = chaos::injection(chaos_seed(), 800 + index, 30);
        let fan = match try_disjoint_fan(&g, 0, &[7, 8], &[3], &gov) {
            Ok(fan) => fan,
            Err(_) => try_disjoint_fan(&g, 0, &[7, 8], &[3], &Governor::unlimited())
                .unwrap_or_else(|e| panic!("{label}: unlimited restart interrupted: {e}")),
        };
        assert_eq!(fan, baseline, "{label}");
    }
}

#[test]
fn chaos_lazy_arena_interrupt_resume_equals_run() {
    // The demand-driven lazy solver checkpoints through the same
    // `ArenaCheckpoint` as the eager build: resume must land on the
    // eager solver's verdict no matter where the fault trips it.
    for index in 0..12usize {
        let seed = 5_000 + (index % 3) as u64;
        let a = random_digraph(5, 0.3, seed).to_structure();
        let b = random_digraph(5, 0.3, 1_000 + seed).to_structure();
        let k = 1 + index % 3;
        let baseline = ExistentialGame::solve(&a, &b, k, HomKind::OneToOne).winner();
        let (label, gov) = chaos::injection(chaos_seed(), 900 + index, 60);
        let game = match ExistentialGame::try_solve_lazy(&a, &b, k, HomKind::OneToOne, &gov) {
            Ok(game) => game,
            Err(interrupted) => ExistentialGame::resume(
                &a,
                &b,
                k,
                HomKind::OneToOne,
                interrupted.checkpoint,
                &Governor::unlimited(),
            )
            .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}")),
        };
        assert_eq!(game.winner(), baseline, "{label} (k={k}, seed={seed})");
    }
}

#[test]
fn chaos_planned_datalog_interrupt_resume_equals_run() {
    // Cost-based compilation under fault injection: the step budget trips
    // inside the planned join kernels (every probe is charged) and the
    // cancellation/deadline checks trip at the SCC scheduler's stage
    // boundaries. Sequential planned evaluation is deterministic, so
    // resume must match the straight run *including* engine counters.
    let cases = corpus();
    let opts = EvalOptions::default().with_planner(PlannerMode::CostBased);
    for (index, case) in round_robin(&cases, 16) {
        let s = SMALL.draw(case, case.seed(4_100));
        let eval = Evaluator::new(&case.program);
        let baseline = eval.run(&s, opts);
        let (label, gov) = chaos::injection(chaos_seed(), 1_100 + index, 60);
        match eval.try_run_governed(&s, opts, &gov) {
            Ok(done) => assert_results_identical(&baseline, &done, &label),
            Err(interrupted) => {
                let cp_stats = interrupted.checkpoint.eval_stats();
                assert!(
                    stats_monotone(&cp_stats, &baseline.eval_stats),
                    "{label}: checkpoint stats exceed the full planned run"
                );
                let resumed = eval
                    .resume(&s, opts, &Governor::unlimited(), interrupted.checkpoint)
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
                assert_results_identical(&baseline, &resumed, &label);
            }
        }
    }
}

#[test]
fn chaos_planned_parallel_interrupt_resume_matches_stages() {
    // The same contract on the chaos shards axis (`KV_CHAOS_SHARDS`
    // workers per stage): resume lands on the straight run's stages and
    // fixpoint at any worker count.
    let cases = corpus();
    let opts = chaos_options().with_planner(PlannerMode::CostBased);
    for (index, case) in round_robin(&cases, 8) {
        let s = SMALL.draw(case, case.seed(4_100));
        let eval = Evaluator::new(&case.program);
        let baseline = eval.run(&s, opts);
        let (label, gov) = chaos::injection(chaos_seed(), 1_200 + index, 60);
        let run = match eval.try_run_governed(&s, opts, &gov) {
            Ok(done) => done,
            Err(interrupted) => eval
                .resume(&s, opts, &Governor::unlimited(), interrupted.checkpoint)
                .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}")),
        };
        assert!(run.same_stages(&baseline), "{label}: stages differ");
        assert_eq!(run.converged, baseline.converged, "{label}");
        for (i, (a, b)) in baseline.idb.iter().zip(&run.idb).enumerate() {
            assert_eq!(a.len(), b.len(), "{label}: IDB {i} size");
            assert!(a.iter().all(|t| b.contains(t)), "{label}: IDB {i} tuples");
        }
    }
}

#[test]
fn chaos_generic_join_interrupt_resume_equals_run() {
    // Fault injection inside the generic-join variable loop: on the cyclic
    // triangle body the Auto lowering engages wcoj, whose per-value and
    // per-refinement charges give the governor interruption points between
    // variable bindings. Sequential evaluation is deterministic, so resume
    // must match the straight run including the new batched counters, and
    // every checkpoint must stay monotone in them.
    use datalog_expressiveness::datalog::programs::triangles;
    let program = triangles();
    let opts = EvalOptions::default().with_planner(PlannerMode::CostBased);
    for index in 0..12usize {
        let s = random_digraph(10, 0.3, 33_000 + (index % 4) as u64).to_structure();
        let eval = Evaluator::new(&program);
        let baseline = eval.run(&s, opts);
        assert!(
            baseline.eval_stats.wcoj_rules > 0,
            "triangles must take the generic lowering"
        );
        let (label, gov) = chaos::injection(chaos_seed(), 1_300 + index, 50);
        match eval.try_run_governed(&s, opts, &gov) {
            Ok(done) => assert_results_identical(&baseline, &done, &label),
            Err(interrupted) => {
                let cp_stats = interrupted.checkpoint.eval_stats();
                assert!(
                    stats_monotone(&cp_stats, &baseline.eval_stats),
                    "{label}: checkpoint stats exceed the full generic run"
                );
                let resumed = eval
                    .resume(&s, opts, &Governor::unlimited(), interrupted.checkpoint)
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
                assert_results_identical(&baseline, &resumed, &label);
            }
        }
    }
}

#[test]
fn chaos_batched_block_loop_interrupt_resume_equals_run() {
    // Fault injection inside the batched block loop: a transitive closure
    // over ~70 edges makes every scan span multiple SCAN_BLOCK-sized
    // columnar blocks, each charging the governor, so the step budget can
    // trip between blocks of the same scan. Resume must land on the
    // straight run exactly (sequential planned runs are deterministic).
    let program = transitive_closure();
    let opts = EvalOptions::default().with_planner(PlannerMode::CostBased);
    for index in 0..8usize {
        let s = random_digraph(30, 0.08, 7 + (index % 2) as u64).to_structure();
        let eval = Evaluator::new(&program);
        let baseline = eval.run(&s, opts);
        let (label, gov) = chaos::injection(chaos_seed(), 1_400 + index, 70);
        match eval.try_run_governed(&s, opts, &gov) {
            Ok(done) => assert_results_identical(&baseline, &done, &label),
            Err(interrupted) => {
                let cp_stats = interrupted.checkpoint.eval_stats();
                assert!(
                    stats_monotone(&cp_stats, &baseline.eval_stats),
                    "{label}: checkpoint stats exceed the full batched run"
                );
                let resumed = eval
                    .resume(&s, opts, &Governor::unlimited(), interrupted.checkpoint)
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"));
                assert_results_identical(&baseline, &resumed, &label);
            }
        }
    }
}

#[test]
fn chaos_seeded_magic_interrupt_resume_equals_run() {
    // The magic-set demand path checkpoints through the ordinary
    // `EvalCheckpoint` (seeds are interned as stage 0 before the first
    // governed stage): resume must reproduce the uninterrupted seeded
    // run's goal relation exactly.
    use datalog_expressiveness::datalog::{BindingPattern, MagicProgram};
    let programs = [transitive_closure(), avoiding_path()];
    let queries: [&[u32]; 2] = [&[0, 6], &[0, 6, 3]];
    for index in 0..8usize {
        let program = &programs[index % 2];
        let query = queries[index % 2];
        let s = random_digraph(8, 0.3, 32_000 + (index % 4) as u64).to_structure();
        let magic = MagicProgram::rewrite(program, &BindingPattern::all_bound(query.len()))
            .expect("bench programs rewrite");
        let compiled = magic.compile();
        let seeds = vec![(magic.magic_goal(), magic.seed(query))];
        let baseline = compiled.run_seeded(&s, chaos_options(), &seeds);
        let (label, gov) = chaos::injection(chaos_seed(), 1_000 + index, 60);
        let run = match compiled.try_run_governed_seeded(&s, chaos_options(), &gov, &seeds) {
            Ok(done) => done,
            Err(interrupted) => {
                let cp_stats = interrupted.checkpoint.eval_stats();
                assert!(
                    stats_monotone(&cp_stats, &baseline.eval_stats),
                    "{label}: checkpoint stats exceed the full seeded run"
                );
                compiled
                    .resume(
                        &s,
                        chaos_options(),
                        &Governor::unlimited(),
                        interrupted.checkpoint,
                    )
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"))
            }
        };
        assert_results_identical(&baseline, &run, &label);
    }
}

#[test]
fn chaos_incremental_maintenance_interrupt_resume_equals_batch() {
    // Fault injection across both phases of an incremental maintenance
    // batch. Each point builds an engine from a program fixture, then
    // applies one mutation batch (retract a third of the EDB, insert
    // rotated variants of a quarter of it — collisions exercise multiset
    // support) under an injected governor. The deletion phase commits
    // nothing when tripped; the insertion phase keeps committed stages;
    // either way, resuming under an unlimited governor must land on the
    // uninterrupted batch exactly — summary counters, EvalStats, and
    // every IDB store.
    use datalog_expressiveness::datalog::{Fact, IdbId, IncrementalEngine};
    use datalog_expressiveness::structures::Element;

    fn mutation_batch(s: &Structure) -> (Vec<Fact>, Vec<Fact>) {
        let n = s.universe_size() as u32;
        let mut inserts = Vec::new();
        let mut retracts = Vec::new();
        for rel in s.vocabulary().relations() {
            for (i, t) in s.relation(rel).iter().enumerate() {
                if i % 3 == 0 {
                    retracts.push((rel, t.to_vec()));
                }
                if i % 4 == 0 {
                    let rotated: Vec<Element> = t.iter().map(|&e| (e + 1) % n).collect();
                    inserts.push((rel, rotated));
                }
            }
        }
        (inserts, retracts)
    }

    let cases = corpus();
    let configs = configs().map(|(_, o)| o.with_shards(chaos_shards()));
    let mut guarded = 0;
    for (index, case) in round_robin(&cases, 24) {
        let program = &case.program;
        let opts = configs[index % configs.len()];
        let s = SMALL.draw(case, case.seed(4_100));
        let (inserts, retracts) = mutation_batch(&s);

        let (mut straight, _) = IncrementalEngine::from_structure(program, &s, opts);
        let baseline = straight.apply_batch(&inserts, &retracts);

        let (mut engine, _) = IncrementalEngine::from_structure(program, &s, opts);
        let (label, gov) = chaos::injection(chaos_seed(), 1_500 + index, 60);
        let summary = match engine.try_apply_batch_governed(&inserts, &retracts, &gov) {
            Ok(done) => done,
            Err(_) => {
                guarded += usize::from(baseline.recomputed_sccs > 0);
                assert!(
                    engine.has_pending(),
                    "{label}: interrupted batch not pending"
                );
                engine
                    .resume_batch(&Governor::unlimited())
                    .unwrap_or_else(|e| panic!("{label}: unlimited resume interrupted: {e}"))
            }
        };
        assert!(!engine.has_pending(), "{label}: batch left pending");
        assert_eq!(summary.eval_stats, baseline.eval_stats, "{label}: stats");
        assert_eq!(summary.epoch, baseline.epoch, "{label}: epoch");
        assert_eq!(
            summary.delta_tuples, baseline.delta_tuples,
            "{label}: delta"
        );
        assert_eq!(
            summary.deleted_tuples, baseline.deleted_tuples,
            "{label}: deleted"
        );
        assert_eq!(
            summary.rederived_tuples, baseline.rederived_tuples,
            "{label}: rederived"
        );
        assert_eq!(
            (summary.overdeleted_tuples, summary.recomputed_sccs),
            (baseline.overdeleted_tuples, baseline.recomputed_sccs),
            "{label}: overdeleted and recompute guard"
        );
        assert_eq!(summary.stage_new, baseline.stage_new, "{label}: stages");
        for i in 0..program.idb_count() {
            assert!(
                engine
                    .idb_store(IdbId(i))
                    .store()
                    .set_eq(straight.idb_store(IdbId(i)).store()),
                "{label}: IDB {i} diverged"
            );
        }
    }
    // Interrupts must also land in batches whose deletion plan takes the
    // recompute guard, not only in full DRed.
    assert!(guarded > 0, "no interrupted batch took the recompute guard");
}
