//! Differential tests for cost-based query compilation (the planner).
//!
//! The planner may reorder rule bodies, pick specialized join kernels,
//! hoist ≠-constraints, and skip provably-dead rules — but it must never
//! change *what* is derived, nor *when*: Theorem 3.6 translates Datalog
//! stages into `L^k` stage formulas, so the certification suites compare
//! runs stage by stage. These tests pin the guarantee
//!
//! ```text
//! CostBased ≡ Textual, stage for stage,
//! ```
//!
//! for every program in `kv_datalog::programs`, over random structures,
//! under magic-set rewriting for **all** `2^arity` goal binding patterns,
//! and under parallel evaluation.

use datalog_expressiveness::datalog::programs::{
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, triangles,
    two_disjoint_paths_acyclic, two_disjoint_paths_paper_rules, two_pairs_vocabulary,
};
use datalog_expressiveness::datalog::{
    BindingPattern, CompiledProgram, EdbIndexes, EvalOptions, Evaluator, Governor, IdbId,
    JoinLowering, MagicProgram, PlannerMode, Program,
};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::{Element, Structure, Vocabulary};
use std::sync::Arc;

/// One structure appropriate for each program's vocabulary (mirrors the
/// chaos and demand suites' fixtures).
fn fixture_for(program: &Program, seed: u64) -> Structure {
    let vocab = program.vocabulary();
    if vocab.constant_count() == 4 {
        let mut g = random_dag(8, 0.35, seed);
        g.set_distinguished(vec![0, 6, 1, 7]);
        g.to_structure_with(Arc::new(two_pairs_vocabulary()))
    } else if vocab.relation_count() == 2 {
        let mut v = Vocabulary::new();
        let r = v.add_relation("R", 3);
        let a = v.add_relation("A", 1);
        let mut s = Structure::new(Arc::new(v), 7);
        s.insert(a, &[0]);
        s.insert(a, &[1]);
        for &(x, y, z) in &[(2, 0, 1), (3, 2, 0), (4, 3, 2), (5, 6, 6), (6, 4, 5)] {
            s.insert(r, &[x, y, z]);
        }
        s
    } else {
        random_digraph(7, 0.3, seed).to_structure()
    }
}

fn all_programs() -> Vec<Program> {
    vec![
        transitive_closure(),
        avoiding_path(),
        q_prime(),
        q_kl(2, 1),
        path_systems(),
        two_disjoint_paths_acyclic(),
        two_disjoint_paths_paper_rules(),
        triangles(),
    ]
}

fn opts(planner: PlannerMode) -> EvalOptions {
    EvalOptions::default().with_planner(planner)
}

#[test]
fn cost_based_matches_textual_stage_for_stage() {
    for (pi, program) in all_programs().iter().enumerate() {
        for round in 0..3u64 {
            let s = fixture_for(program, 11_000 + 17 * pi as u64 + round);
            let textual = Evaluator::new(program).run(&s, opts(PlannerMode::Textual));
            let planned = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased));
            assert_eq!(textual.idb, planned.idb, "program {pi}, round {round}");
            assert!(
                textual.same_stages(&planned),
                "program {pi}, round {round}: stage structure diverged"
            );
            assert_eq!(
                textual.eval_stats.tuples_interned, planned.eval_stats.tuples_interned,
                "program {pi}, round {round}"
            );
            assert_eq!(
                textual.eval_stats.stages, planned.eval_stats.stages,
                "program {pi}, round {round}"
            );
        }
    }
}

/// Every binding pattern of the given arity, `ff…f` through `bb…b`.
fn all_patterns(arity: usize) -> Vec<BindingPattern> {
    (0..1usize << arity)
        .map(|mask| BindingPattern::new((0..arity).map(|i| mask >> i & 1 == 1).collect()))
        .collect()
}

#[test]
fn cost_based_matches_textual_under_magic_for_every_binding_pattern() {
    // Magic rewriting happens first, planning second: the planner sees the
    // adorned program (magic guards and all) and must preserve its stages
    // for every goal adornment.
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 12_000 + pi as u64);
        let arity = program.idb_arity(program.goal());
        let query: Vec<Element> = (0..arity)
            .map(|i| (2 * i as Element + 1) % s.universe_size() as Element)
            .collect();
        for pattern in all_patterns(arity) {
            let label = format!("program {pi}, pattern {pattern}");
            let magic = MagicProgram::rewrite(program, &pattern)
                .unwrap_or_else(|e| panic!("{label}: rewrite failed: {e}"));
            let compiled = magic.compile();
            let seeds = vec![(magic.magic_goal(), magic.seed(&query))];
            let textual = compiled.run_seeded(&s, opts(PlannerMode::Textual), &seeds);
            let planned = compiled.run_seeded(&s, opts(PlannerMode::CostBased), &seeds);
            assert_eq!(textual.idb, planned.idb, "{label}");
            assert!(textual.same_stages(&planned), "{label}");
        }
    }
}

#[test]
fn cost_based_parallel_matches_sequential() {
    // Worker-private scratch stores merge by set union, so planned runs
    // at W = 4 shard workers must be stage-identical to the default
    // single-worker planned run (counters may differ at W > 1: duplicate
    // suppression is scratch-local).
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 13_000 + pi as u64);
        let seq = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased));
        let par =
            Evaluator::new(program).run(&s, opts(PlannerMode::CostBased).with_shards(Some(4)));
        assert_eq!(seq.idb, par.idb, "program {pi}");
        assert!(seq.same_stages(&par), "program {pi}");
    }
}

#[test]
fn cost_based_respects_explicit_thread_counts() {
    // The harness's scaling rows pin the shard worker count W explicitly;
    // every count must reach the same fixpoint with the same stage
    // structure as the default single-worker run.
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 14_000 + pi as u64);
        let baseline = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased));
        for w in [1usize, 2, 4] {
            let run =
                Evaluator::new(program).run(&s, opts(PlannerMode::CostBased).with_shards(Some(w)));
            assert_eq!(baseline.idb, run.idb, "program {pi}, W={w}");
            assert!(baseline.same_stages(&run), "program {pi}, W={w}");
        }
    }
}

#[test]
fn generic_lowering_matches_binary_stage_for_stage() {
    // The worst-case-optimal generic join must be a pure execution-strategy
    // swap: for every program and structure, forcing JoinLowering::Generic
    // derives exactly the same stages as forcing JoinLowering::Binary (and
    // as the textual baseline), at W ∈ {1, 4} shard workers alike.
    for (pi, program) in all_programs().iter().enumerate() {
        for round in 0..3u64 {
            let s = fixture_for(program, 15_000 + 17 * pi as u64 + round);
            for w in [1usize, 4] {
                let label = format!("program {pi}, round {round}, W={w}");
                let opts = |planner| opts(planner).with_shards(Some(w));
                let textual = Evaluator::new(program).run(&s, opts(PlannerMode::Textual));
                let binary = Evaluator::new(program).run(
                    &s,
                    opts(PlannerMode::CostBased).with_lowering(JoinLowering::Binary),
                );
                let generic = Evaluator::new(program).run(
                    &s,
                    opts(PlannerMode::CostBased).with_lowering(JoinLowering::Generic),
                );
                assert_eq!(binary.idb, generic.idb, "{label}");
                assert_eq!(textual.idb, generic.idb, "{label}");
                assert!(binary.same_stages(&generic), "{label}");
                assert!(textual.same_stages(&generic), "{label}");
            }
        }
    }
}

#[test]
fn generic_lowering_matches_binary_under_magic_for_every_binding_pattern() {
    // Magic rewriting inserts guard atoms and seeds demand tuples; the
    // generic executor must preserve stages across every goal adornment of
    // every program, exactly as the binary kernels do.
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 16_000 + pi as u64);
        let arity = program.idb_arity(program.goal());
        let query: Vec<Element> = (0..arity)
            .map(|i| (2 * i as Element + 1) % s.universe_size() as Element)
            .collect();
        for pattern in all_patterns(arity) {
            let label = format!("program {pi}, pattern {pattern}");
            let magic = MagicProgram::rewrite(program, &pattern)
                .unwrap_or_else(|e| panic!("{label}: rewrite failed: {e}"));
            let compiled = magic.compile();
            let seeds = vec![(magic.magic_goal(), magic.seed(&query))];
            let binary = compiled.run_seeded(
                &s,
                opts(PlannerMode::CostBased).with_lowering(JoinLowering::Binary),
                &seeds,
            );
            let generic = compiled.run_seeded(
                &s,
                opts(PlannerMode::CostBased).with_lowering(JoinLowering::Generic),
                &seeds,
            );
            assert_eq!(binary.idb, generic.idb, "{label}");
            assert!(binary.same_stages(&generic), "{label}");
        }
    }
}

#[test]
fn generic_join_beats_binary_probes_on_triangles() {
    // On the canonical cyclic body the generic lowering must engage under
    // Auto and visit fewer candidate tuples than the binary plan.
    let program = triangles();
    let s = random_digraph(24, 0.2, 21).to_structure();
    let auto = Evaluator::new(&program).run(
        &s,
        opts(PlannerMode::CostBased).with_lowering(JoinLowering::Auto),
    );
    assert!(auto.eval_stats.wcoj_rules > 0, "Auto must pick generic");
    let binary = Evaluator::new(&program).run(
        &s,
        opts(PlannerMode::CostBased).with_lowering(JoinLowering::Binary),
    );
    assert_eq!(auto.idb, binary.idb);
    assert!(auto.same_stages(&binary));
}

#[test]
fn cost_based_never_regresses_probes_on_bench_programs() {
    // The bench gate tracks these three cases; keep the win locked in at
    // the property level too (sequential runs, so counters are exact).
    let cases: [(Program, Structure); 3] = [
        (
            transitive_closure(),
            random_digraph(30, 0.08, 7).to_structure(),
        ),
        (avoiding_path(), random_digraph(12, 0.12, 8).to_structure()),
        (q_kl(2, 1), random_digraph(10, 0.15, 9).to_structure()),
    ];
    for (i, (program, s)) in cases.iter().enumerate() {
        let textual = Evaluator::new(program).run(s, opts(PlannerMode::Textual));
        let planned = Evaluator::new(program).run(s, opts(PlannerMode::CostBased));
        assert_eq!(textual.idb, planned.idb, "case {i}");
        assert!(
            planned.eval_stats.join_probes <= textual.eval_stats.join_probes,
            "case {i}: planned probes {} > textual {}",
            planned.eval_stats.join_probes,
            textual.eval_stats.join_probes
        );
        assert!(
            planned.eval_stats.duplicate_derivations <= textual.eval_stats.duplicate_derivations,
            "case {i}: planned dups {} > textual {}",
            planned.eval_stats.duplicate_derivations,
            textual.eval_stats.duplicate_derivations
        );
    }
}

/// Magic-goal seeds for a seeded run (empty for a plain run).
type Seeds = Vec<(IdbId, Vec<Element>)>;

/// Every planner × lowering × worker-count configuration the shared index
/// differential covers.
fn index_sharing_configs() -> Vec<EvalOptions> {
    let mut configs = Vec::new();
    for planner in [PlannerMode::Textual, PlannerMode::CostBased] {
        for lowering in [
            JoinLowering::Auto,
            JoinLowering::Binary,
            JoinLowering::Generic,
        ] {
            for w in [1usize, 4] {
                configs.push(opts(planner).with_lowering(lowering).with_shards(Some(w)));
            }
        }
    }
    configs
}

#[test]
fn shared_prewarmed_indexes_match_a_fresh_run() {
    // A service evaluates every miss on a snapshot through the snapshot's
    // one EDB index set. Whatever earlier runs — other plans, lowerings,
    // worker counts, seeds — built into the set, a run through it must
    // derive exactly what a run with a set of its own derives, with the
    // same stages and the same counters.
    let configs = index_sharing_configs();
    for (pi, program) in all_programs().iter().enumerate() {
        for round in 0..2u64 {
            let s = fixture_for(program, 15_000 + 19 * pi as u64 + round);
            let arity = program.idb_arity(program.goal());
            let query: Vec<Element> = (0..arity)
                .map(|i| (3 * i as Element + round as Element) % s.universe_size() as Element)
                .collect();
            let magic = MagicProgram::rewrite(program, &BindingPattern::all_bound(arity))
                .unwrap_or_else(|e| panic!("program {pi}: rewrite failed: {e}"));
            let runs: [(CompiledProgram, Seeds); 2] = [
                (CompiledProgram::compile(program), Vec::new()),
                (
                    magic.compile(),
                    vec![(magic.magic_goal(), magic.seed(&query))],
                ),
            ];
            let shared = EdbIndexes::new(&s);
            let through = |compiled: &CompiledProgram, seeds: &[(IdbId, Vec<Element>)], o| {
                compiled
                    .try_run_indexed(&s, &shared, o, &Governor::unlimited(), seeds)
                    .expect("unlimited governor")
            };
            // The first pass fills the set as it goes; the second reads a
            // set every configuration has already probed.
            for pass in 0..2 {
                for (compiled, seeds) in &runs {
                    for &o in &configs {
                        let label = format!(
                            "program {pi}, round {round}, pass {pass}, seeded {}, {:?}/{}/{:?}",
                            !seeds.is_empty(),
                            o.planner,
                            o.lowering,
                            o.shards
                        );
                        let fresh = compiled.run_seeded(&s, o, seeds);
                        let via = through(compiled, seeds, o);
                        assert_eq!(fresh.idb, via.idb, "{label}");
                        assert_eq!(fresh.stage_marks, via.stage_marks, "{label}");
                        assert!(fresh.same_stages(&via), "{label}");
                        assert_eq!(fresh.eval_stats, via.eval_stats, "{label}");
                        assert_eq!(fresh.converged, via.converged, "{label}");
                    }
                }
            }
        }
    }
}
