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
//! for every case of the shared corpus (`support::corpus`, no filter: the
//! planner admits every program) over its `SMALL` fixtures, under
//! magic-set rewriting for **all** `2^arity` goal binding patterns, and
//! under parallel evaluation.

mod support;

use datalog_expressiveness::datalog::programs::{
    avoiding_path, q_kl, transitive_closure, triangles,
};
use datalog_expressiveness::datalog::{
    BindingPattern, CompiledProgram, EdbIndexes, EvalOptions, Evaluator, Governor, IdbId,
    JoinLowering, MagicProgram, PlannerMode, Program,
};
use datalog_expressiveness::structures::generators::random_digraph;
use datalog_expressiveness::structures::{Element, EvalStats, Structure};
use datalog_expressiveness::{ProgramQuery, QueryPlan};
use std::sync::Arc;
use support::{all_patterns, configs, corpus, SMALL};

fn opts(planner: PlannerMode) -> EvalOptions {
    EvalOptions::default().with_planner(planner)
}

#[test]
fn cost_based_matches_textual_stage_for_stage() {
    for case in corpus() {
        let program = &case.program;
        for round in 0..3u64 {
            let s = SMALL.draw(&case, case.seed(11_000 + round));
            let label = format!("{}, round {round}", case.name);
            let textual = Evaluator::new(program).run(&s, opts(PlannerMode::Textual));
            let planned = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased));
            assert_eq!(textual.idb, planned.idb, "{label}");
            assert!(
                textual.same_stages(&planned),
                "{label}: stage structure diverged"
            );
            assert_eq!(
                textual.eval_stats.tuples_interned, planned.eval_stats.tuples_interned,
                "{label}"
            );
            assert_eq!(
                textual.eval_stats.stages, planned.eval_stats.stages,
                "{label}"
            );
        }
    }
}

#[test]
fn cost_based_matches_textual_under_magic_for_every_binding_pattern() {
    // Magic rewriting happens first, planning second: the planner sees the
    // adorned program (magic guards and all) and must preserve its stages
    // for every goal adornment.
    for case in corpus() {
        let s = SMALL.draw(&case, case.seed(12_000));
        let arity = case.goal_arity();
        let query: Vec<Element> = (0..arity)
            .map(|i| (2 * i as Element + 1) % s.universe_size() as Element)
            .collect();
        for pattern in all_patterns(arity) {
            let label = format!("{}, pattern {pattern}", case.name);
            let magic = MagicProgram::rewrite(&case.program, &pattern)
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
    for case in corpus() {
        let (program, name) = (&case.program, case.name);
        let s = SMALL.draw(&case, case.seed(13_000));
        let seq = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased));
        let par = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased).with_shards(4));
        assert_eq!(seq.idb, par.idb, "{name}");
        assert!(seq.same_stages(&par), "{name}");
    }
}

#[test]
fn cost_based_respects_explicit_thread_counts() {
    // The harness's scaling rows pin the shard worker count W explicitly;
    // every count must reach the same fixpoint with the same stage
    // structure as the default single-worker run.
    for case in corpus() {
        let (program, name) = (&case.program, case.name);
        let s = SMALL.draw(&case, case.seed(14_000));
        let baseline = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased));
        for w in [1usize, 2, 4] {
            let run = Evaluator::new(program).run(&s, opts(PlannerMode::CostBased).with_shards(w));
            assert_eq!(baseline.idb, run.idb, "{name}, W={w}");
            assert!(baseline.same_stages(&run), "{name}, W={w}");
        }
    }
}

#[test]
fn generic_lowering_matches_binary_stage_for_stage() {
    // The worst-case-optimal generic join must be a pure execution-strategy
    // swap: for every program and structure, forcing JoinLowering::Generic
    // derives exactly the same stages as forcing JoinLowering::Binary (and
    // as the textual baseline), at W ∈ {1, 4} shard workers alike.
    for case in corpus() {
        let program = &case.program;
        for round in 0..3u64 {
            let s = SMALL.draw(&case, case.seed(15_000 + round));
            for w in [1usize, 4] {
                let label = format!("{}, round {round}, W={w}", case.name);
                let opts = |planner| opts(planner).with_shards(w);
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
    for case in corpus() {
        let s = SMALL.draw(&case, case.seed(16_000));
        let arity = case.goal_arity();
        let query: Vec<Element> = (0..arity)
            .map(|i| (2 * i as Element + 1) % s.universe_size() as Element)
            .collect();
        for pattern in all_patterns(arity) {
            let label = format!("{}, pattern {pattern}", case.name);
            let magic = MagicProgram::rewrite(&case.program, &pattern)
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
                configs.push(opts(planner).with_lowering(lowering).with_shards(w));
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
    for case in corpus() {
        let program = &case.program;
        for round in 0..2u64 {
            let s = SMALL.draw(&case, case.seed(17_000 + round));
            let arity = case.goal_arity();
            let query: Vec<Element> = (0..arity)
                .map(|i| (3 * i as Element + round as Element) % s.universe_size() as Element)
                .collect();
            let magic = MagicProgram::rewrite(program, &BindingPattern::all_bound(arity))
                .unwrap_or_else(|e| panic!("{}: rewrite failed: {e}", case.name));
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
                            "{}, round {round}, pass {pass}, seeded {}, {:?}/{}/{:?}",
                            case.name,
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

/// `a`'s tuples and constants over a universe grown by isolated elements
/// until it exceeds every relation's length: the same relation statistics
/// under another universe size.
fn with_isolated_elements(a: &Structure) -> Structure {
    let vocab = a.vocabulary();
    let longest = vocab.relations().map(|r| a.relation(r).len()).max();
    let mut c = a.clone();
    c.grow(longest.unwrap_or(0) + 1);
    c
}

/// `a` with each relation replaced by as many tuples, the lexicographically
/// first ones whose elements are pairwise distinct: the same universe,
/// constants and relation lengths under other per-position distinct
/// counts.
fn with_skewed_columns(a: &Structure) -> Structure {
    let vocab = Arc::clone(a.vocabulary());
    let n = a.universe_size() as Element;
    let mut d = Structure::new(Arc::clone(&vocab), a.universe_size());
    for c in vocab.constants() {
        d.set_constant(c, a.constant(c));
    }
    for r in vocab.relations() {
        let mut t = vec![0 as Element; vocab.arity(r)];
        while d.relation(r).len() < a.relation(r).len() {
            if t.iter().enumerate().all(|(i, x)| !t[..i].contains(x)) {
                d.insert(r, &t);
            }
            // The next tuple in lexicographic order.
            let mut i = t.len();
            while i > 0 && t[i - 1] == n - 1 {
                t[i - 1] = 0;
                i -= 1;
            }
            assert!(i > 0, "relation {r:?} has more tuples than distinct ones");
            t[i - 1] += 1;
        }
    }
    d
}

/// An `explain_for_lowered` rendering without the statistics it prints:
/// the planned rules alone.
fn planned_rules(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| !l.starts_with("structure:") && !l.starts_with("edb "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn a_reused_program_runs_every_structure_as_a_fresh_one_does() {
    // A compiled program keeps its last cost-based plan and runs it again
    // while the planner's inputs stay equal. One reused evaluator per
    // evaluation mode and one reused query run A, A, B, A, C, D, A: hits,
    // misses and returns to an earlier key. C changes only the universe
    // size and D only the per-position distinct counts. Each changes some
    // program's plan, so a plan kept across either change would show in
    // the stages or counters. Naive evaluation runs the naive rules at
    // every stage, where C's plan changes show.
    let (mut c_replans, mut d_replans) = (0, 0);
    for case in corpus() {
        let program = &case.program;
        let a = SMALL.draw(&case, case.seed(23_000));
        let b = SMALL.draw(&case, case.seed(23_001));
        let c = with_isolated_elements(&a);
        let d = with_skewed_columns(&a);
        let arity = case.goal_arity();
        let tuple: Vec<Element> = (0..arity as Element).collect();
        let compiled = CompiledProgram::compile(program);
        for lowering in [
            JoinLowering::Auto,
            JoinLowering::Binary,
            JoinLowering::Generic,
        ] {
            let rules = |s: &Structure| planned_rules(&compiled.explain_for_lowered(s, lowering));
            c_replans += usize::from(rules(&c) != rules(&a));
            d_replans += usize::from(rules(&d) != rules(&a));
            let modes = [true, false].map(|semi_naive| EvalOptions {
                semi_naive,
                ..opts(PlannerMode::CostBased).with_lowering(lowering)
            });
            let query = || {
                let plan = QueryPlan::auto(vec![true; arity]).with_lowering(lowering);
                ProgramQuery::with_plan("reuse", program.clone(), tuple.clone(), plan)
            };
            let reused = modes.map(|_| Evaluator::new(program));
            let reused_query = query();
            for (step, (name, s)) in [
                ("A", &a),
                ("A", &a),
                ("B", &b),
                ("A", &a),
                ("C", &c),
                ("D", &d),
                ("A", &a),
            ]
            .into_iter()
            .enumerate()
            {
                let label = format!("{}, {lowering}, step {step} ({name})", case.name);
                for (evaluator, o) in reused.iter().zip(modes) {
                    let fresh = Evaluator::new(program).run(s, o);
                    let run = evaluator.run(s, o);
                    let label = format!("{label}, semi-naive {}", o.semi_naive);
                    assert!(run.same_stages(&fresh), "{label}");
                    assert_eq!(run.eval_stats, fresh.eval_stats, "{label}");
                }
                assert_eq!(
                    reused_query.eval_demand_with_stats(s),
                    query().eval_demand_with_stats(s),
                    "{label}: demand path"
                );
            }
        }
    }
    assert!(
        c_replans > 0,
        "no program's plan depends on the universe size"
    );
    assert!(
        d_replans > 0,
        "no program's plan depends on distinct counts"
    );
}

/// The full [`EvalStats`] as one row: join probes, magic probes, block
/// probes, gallop steps, duplicate derivations, tuples interned, stages,
/// generic-join rules.
fn counter_row(s: &EvalStats) -> [u64; 8] {
    [
        s.join_probes,
        s.magic_probes,
        s.block_probes,
        s.gallop_steps,
        s.duplicate_derivations,
        s.tuples_interned,
        s.stages,
        s.wcoj_rules,
    ]
}

#[test]
fn from_scratch_counters_are_pinned() {
    // Join order, kernels, probe memos, batched emission, Bloom filters
    // and the live-rule filter all show in the single-worker counters. A
    // change to how plans are built or executed that is meant to leave
    // evaluation as it was must reproduce every recorded row.
    support::check_pinned(PINNED_COUNTERS, &corpus(), 21_000, |case, seed| {
        let s = SMALL.draw(case, seed);
        configs()
            .into_iter()
            .map(|(name, o)| {
                let stats = Evaluator::new(&case.program).run(&s, o).eval_stats;
                (name.to_string(), counter_row(&stats))
            })
            .collect()
    });
}

/// Recorded [`counter_row`]s, keyed `case/seed/configuration`: per corpus
/// case, per seed, per configuration of [`configs`].
#[rustfmt::skip]
const PINNED_COUNTERS: &[(&str, [u64; 8])] = &[
    ("transitive_closure/21000/textual", [54, 0, 0, 0, 34, 35, 4, 0]),
    ("transitive_closure/21000/cost-auto", [22, 0, 18, 0, 34, 35, 4, 0]),
    ("transitive_closure/21000/cost-binary", [22, 0, 18, 0, 34, 35, 4, 0]),
    ("transitive_closure/21000/cost-generic", [96, 0, 0, 154, 34, 35, 4, 4]),
    ("transitive_closure/21001/textual", [63, 0, 0, 0, 63, 42, 4, 0]),
    ("transitive_closure/21001/cost-auto", [25, 0, 22, 0, 63, 42, 4, 0]),
    ("transitive_closure/21001/cost-binary", [25, 0, 22, 0, 63, 42, 4, 0]),
    ("transitive_closure/21001/cost-generic", [137, 0, 0, 252, 63, 42, 4, 4]),
    ("avoiding_path/21000/textual", [166, 0, 0, 0, 119, 147, 4, 0]),
    ("avoiding_path/21000/cost-auto", [22, 0, 130, 0, 119, 147, 4, 0]),
    ("avoiding_path/21000/cost-binary", [22, 0, 130, 0, 119, 147, 4, 0]),
    ("avoiding_path/21000/cost-generic", [387, 0, 0, 634, 119, 147, 4, 4]),
    ("avoiding_path/21001/textual", [207, 0, 0, 0, 214, 186, 4, 0]),
    ("avoiding_path/21001/cost-auto", [29, 0, 162, 0, 214, 186, 4, 0]),
    ("avoiding_path/21001/cost-binary", [29, 0, 162, 0, 214, 186, 4, 0]),
    ("avoiding_path/21001/cost-generic", [588, 0, 0, 1081, 214, 186, 4, 4]),
    ("q_prime/21000/textual", [702, 0, 0, 0, 165, 238, 5, 0]),
    ("q_prime/21000/cost-auto", [236, 0, 289, 0, 119, 238, 5, 0]),
    ("q_prime/21000/cost-binary", [236, 0, 289, 0, 119, 238, 5, 0]),
    ("q_prime/21000/cost-generic", [998, 0, 0, 3521, 165, 238, 5, 14]),
    ("q_prime/21001/textual", [905, 0, 0, 0, 288, 286, 6, 0]),
    ("q_prime/21001/cost-auto", [324, 0, 358, 0, 214, 286, 6, 0]),
    ("q_prime/21001/cost-binary", [324, 0, 358, 0, 214, 286, 6, 0]),
    ("q_prime/21001/cost-generic", [1449, 0, 0, 6837, 288, 286, 6, 15]),
    ("q_kl(2,1)/21000/textual", [2279, 0, 0, 0, 655, 925, 5, 0]),
    ("q_kl(2,1)/21000/cost-auto", [402, 0, 1355, 0, 552, 925, 5, 0]),
    ("q_kl(2,1)/21000/cost-binary", [402, 0, 1355, 0, 552, 925, 5, 0]),
    ("q_kl(2,1)/21000/cost-generic", [3789, 0, 0, 40461, 655, 925, 5, 14]),
    ("q_kl(2,1)/21001/textual", [2922, 0, 0, 0, 964, 1121, 6, 0]),
    ("q_kl(2,1)/21001/cost-auto", [565, 0, 1709, 0, 805, 1121, 6, 0]),
    ("q_kl(2,1)/21001/cost-binary", [565, 0, 1709, 0, 805, 1121, 6, 0]),
    ("q_kl(2,1)/21001/cost-generic", [5075, 0, 0, 77330, 964, 1121, 6, 15]),
    ("path_systems/21000/textual", [32, 0, 0, 0, 0, 5, 4, 0]),
    ("path_systems/21000/cost-auto", [21, 0, 0, 0, 0, 5, 4, 0]),
    ("path_systems/21000/cost-binary", [21, 0, 0, 0, 0, 5, 4, 0]),
    ("path_systems/21000/cost-generic", [34, 0, 0, 13, 0, 5, 4, 7]),
    ("path_systems/21001/textual", [32, 0, 0, 0, 0, 5, 4, 0]),
    ("path_systems/21001/cost-auto", [21, 0, 0, 0, 0, 5, 4, 0]),
    ("path_systems/21001/cost-binary", [21, 0, 0, 0, 0, 5, 4, 0]),
    ("path_systems/21001/cost-generic", [34, 0, 0, 13, 0, 5, 4, 7]),
    ("two_disjoint_paths_acyclic/21000/textual", [33, 0, 0, 0, 0, 2, 1, 0]),
    ("two_disjoint_paths_acyclic/21000/cost-auto", [4, 0, 0, 0, 0, 2, 1, 0]),
    ("two_disjoint_paths_acyclic/21000/cost-binary", [4, 0, 0, 0, 0, 2, 1, 0]),
    ("two_disjoint_paths_acyclic/21000/cost-generic", [4, 0, 0, 0, 0, 2, 1, 1]),
    ("two_disjoint_paths_acyclic/21001/textual", [248, 0, 0, 0, 12, 27, 4, 0]),
    ("two_disjoint_paths_acyclic/21001/cost-auto", [79, 0, 26, 0, 8, 27, 4, 0]),
    ("two_disjoint_paths_acyclic/21001/cost-binary", [79, 0, 26, 0, 8, 27, 4, 0]),
    ("two_disjoint_paths_acyclic/21001/cost-generic", [235, 0, 0, 367, 12, 27, 4, 19]),
    ("two_disjoint_paths_paper_rules/21000/textual", [21, 0, 0, 0, 0, 3, 2, 0]),
    ("two_disjoint_paths_paper_rules/21000/cost-auto", [8, 0, 1, 0, 0, 3, 2, 0]),
    ("two_disjoint_paths_paper_rules/21000/cost-binary", [8, 0, 1, 0, 0, 3, 2, 0]),
    ("two_disjoint_paths_paper_rules/21000/cost-generic", [11, 0, 0, 3, 0, 3, 2, 4]),
    ("two_disjoint_paths_paper_rules/21001/textual", [65, 0, 0, 0, 38, 30, 5, 0]),
    ("two_disjoint_paths_paper_rules/21001/cost-auto", [30, 0, 14, 0, 38, 30, 5, 0]),
    ("two_disjoint_paths_paper_rules/21001/cost-binary", [30, 0, 14, 0, 38, 30, 5, 0]),
    ("two_disjoint_paths_paper_rules/21001/cost-generic", [111, 0, 0, 207, 38, 30, 5, 10]),
    ("triangles/21000/textual", [35, 0, 0, 0, 0, 6, 1, 0]),
    ("triangles/21000/cost-auto", [49, 0, 0, 56, 0, 6, 1, 1]),
    ("triangles/21000/cost-binary", [24, 0, 11, 0, 0, 6, 1, 0]),
    ("triangles/21000/cost-generic", [49, 0, 0, 56, 0, 6, 1, 1]),
    ("triangles/21001/textual", [44, 0, 0, 0, 0, 6, 1, 0]),
    ("triangles/21001/cost-auto", [68, 0, 0, 82, 0, 6, 1, 1]),
    ("triangles/21001/cost-binary", [31, 0, 13, 0, 0, 6, 1, 0]),
    ("triangles/21001/cost-generic", [68, 0, 0, 82, 0, 6, 1, 1]),
    ("q_kl(1,1)/21000/textual", [153, 0, 0, 0, 152, 147, 4, 0]),
    ("q_kl(1,1)/21000/cost-auto", [26, 0, 126, 0, 152, 147, 4, 0]),
    ("q_kl(1,1)/21000/cost-binary", [26, 0, 126, 0, 152, 147, 4, 0]),
    ("q_kl(1,1)/21000/cost-generic", [435, 0, 0, 814, 152, 147, 4, 4]),
    ("q_kl(1,1)/21001/textual", [192, 0, 0, 0, 221, 186, 4, 0]),
    ("q_kl(1,1)/21001/cost-auto", [27, 0, 164, 0, 221, 186, 4, 0]),
    ("q_kl(1,1)/21001/cost-binary", [27, 0, 164, 0, 221, 186, 4, 0]),
    ("q_kl(1,1)/21001/cost-generic", [582, 0, 0, 1075, 221, 186, 4, 4]),
    ("q_kl(2,2)/21000/textual", [1665, 0, 0, 0, 414, 798, 3, 0]),
    ("q_kl(2,2)/21000/cost-auto", [156, 0, 1146, 0, 414, 798, 3, 0]),
    ("q_kl(2,2)/21000/cost-binary", [156, 0, 1146, 0, 414, 798, 3, 0]),
    ("q_kl(2,2)/21000/cost-generic", [2636, 0, 0, 24424, 414, 798, 3, 9]),
    ("q_kl(2,2)/21001/textual", [2373, 0, 0, 0, 574, 1132, 4, 0]),
    ("q_kl(2,2)/21001/cost-auto", [141, 0, 1632, 0, 554, 1132, 4, 0]),
    ("q_kl(2,2)/21001/cost-binary", [141, 0, 1632, 0, 554, 1132, 4, 0]),
    ("q_kl(2,2)/21001/cost-generic", [3337, 0, 0, 41870, 574, 1132, 4, 10]),
    ("q_kl(3,1)/21000/textual", [1765, 0, 0, 0, 414, 798, 3, 0]),
    ("q_kl(3,1)/21000/cost-auto", [170, 0, 1178, 0, 414, 798, 3, 0]),
    ("q_kl(3,1)/21000/cost-binary", [170, 0, 1178, 0, 414, 798, 3, 0]),
    ("q_kl(3,1)/21000/cost-generic", [2682, 0, 0, 24442, 414, 798, 3, 11]),
    ("q_kl(3,1)/21001/textual", [2562, 0, 0, 0, 576, 1150, 4, 0]),
    ("q_kl(3,1)/21001/cost-auto", [181, 0, 1698, 0, 554, 1150, 4, 0]),
    ("q_kl(3,1)/21001/cost-binary", [181, 0, 1698, 0, 554, 1150, 4, 0]),
    ("q_kl(3,1)/21001/cost-generic", [3487, 0, 0, 43141, 576, 1150, 4, 16]),
    ("game(path_length_two)/21000/textual", [43, 0, 0, 0, 0, 2, 2, 0]),
    ("game(path_length_two)/21000/cost-auto", [5, 0, 0, 0, 0, 2, 2, 0]),
    ("game(path_length_two)/21000/cost-binary", [5, 0, 0, 0, 0, 2, 2, 0]),
    ("game(path_length_two)/21000/cost-generic", [6, 0, 0, 1, 0, 2, 2, 3]),
    ("game(path_length_two)/21001/textual", [87, 0, 0, 0, 1, 5, 3, 0]),
    ("game(path_length_two)/21001/cost-auto", [8, 0, 0, 0, 1, 5, 3, 0]),
    ("game(path_length_two)/21001/cost-binary", [8, 0, 0, 0, 1, 5, 3, 0]),
    ("game(path_length_two)/21001/cost-generic", [13, 0, 0, 15, 1, 5, 3, 4]),
    ("game(path_length_three)/21000/textual", [144, 0, 0, 0, 0, 6, 3, 0]),
    ("game(path_length_three)/21000/cost-auto", [19, 0, 2, 0, 0, 6, 3, 0]),
    ("game(path_length_three)/21000/cost-binary", [19, 0, 2, 0, 0, 6, 3, 0]),
    ("game(path_length_three)/21000/cost-generic", [28, 0, 0, 12, 0, 6, 3, 9]),
    ("game(path_length_three)/21001/textual", [519, 0, 0, 0, 12, 27, 5, 0]),
    ("game(path_length_three)/21001/cost-auto", [90, 0, 35, 0, 8, 27, 5, 0]),
    ("game(path_length_three)/21001/cost-binary", [90, 0, 35, 0, 8, 27, 5, 0]),
    ("game(path_length_three)/21001/cost-generic", [242, 0, 0, 380, 12, 27, 5, 22]),
    ("class_c(self_loop)/21000/textual", [272, 0, 0, 0, 0, 94, 5, 0]),
    ("class_c(self_loop)/21000/cost-auto", [122, 0, 74, 0, 0, 94, 5, 0]),
    ("class_c(self_loop)/21000/cost-binary", [122, 0, 74, 0, 0, 94, 5, 0]),
    ("class_c(self_loop)/21000/cost-generic", [247, 0, 0, 274, 0, 94, 5, 21]),
    ("class_c(self_loop)/21001/textual", [409, 0, 0, 0, 39, 153, 4, 0]),
    ("class_c(self_loop)/21001/cost-auto", [119, 0, 167, 11, 29, 153, 4, 0]),
    ("class_c(self_loop)/21001/cost-binary", [119, 0, 167, 11, 29, 153, 4, 0]),
    ("class_c(self_loop)/21001/cost-generic", [405, 0, 0, 952, 39, 153, 4, 14]),
    ("class_c(out_star_2)/21000/textual", [251, 0, 0, 0, 0, 82, 5, 0]),
    ("class_c(out_star_2)/21000/cost-auto", [106, 0, 71, 0, 0, 82, 5, 0]),
    ("class_c(out_star_2)/21000/cost-binary", [106, 0, 71, 0, 0, 82, 5, 0]),
    ("class_c(out_star_2)/21000/cost-generic", [223, 0, 0, 269, 0, 82, 5, 11]),
    ("class_c(out_star_2)/21001/textual", [381, 0, 0, 0, 34, 137, 4, 0]),
    ("class_c(out_star_2)/21001/cost-auto", [101, 0, 159, 0, 24, 137, 4, 0]),
    ("class_c(out_star_2)/21001/cost-binary", [101, 0, 159, 0, 24, 137, 4, 0]),
    ("class_c(out_star_2)/21001/cost-generic", [370, 0, 0, 928, 34, 137, 4, 7]),
];
