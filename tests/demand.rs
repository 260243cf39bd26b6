//! Differential tests for the demand-driven evaluation paths.
//!
//! Two answer-identity guarantees, checked program-by-program and
//! game-by-game against the eager implementations:
//!
//! 1. **Magic sets**: for every case of the shared corpus
//!    (`support::corpus`, no filter: every goal admits every binding
//!    pattern) over its `SMALL` fixtures, and every binding pattern of
//!    its goal (all 2^arity of them — `bb`, `bf`, `fb`, `ff` for the
//!    binary goals), the rewritten program seeded from
//!    a query tuple derives *exactly* the full-saturation goal tuples that
//!    agree with the query on its bound positions (selection equality).
//! 2. **Lazy arenas**: the demand-driven pebble solver names the same
//!    winner as the eager worklist solver — existential games for
//!    `k ∈ {1, 2, 3}` under both homomorphism kinds, CNF games, and the
//!    acyclic two-player game behind the Theorem 6.2 dispatch — while
//!    never materializing a larger arena.

mod support;

use datalog_expressiveness::datalog::programs::transitive_closure;
use datalog_expressiveness::datalog::{
    BindingPattern, EvalOptions, Evaluator, MagicProgram, Program,
};
use datalog_expressiveness::homeo::{self, PatternSpec};
use datalog_expressiveness::pebble::acyclic::AcyclicGame;
use datalog_expressiveness::pebble::{CnfFormula, CnfGame, ExistentialGame};
use datalog_expressiveness::structures::generators::{
    directed_path, random_dag, random_digraph, two_crossing_paths, two_disjoint_paths,
};
use datalog_expressiveness::structures::{Element, Governor, HomKind, QueryPlan, Structure};
use support::{all_patterns, corpus, SMALL};

/// A few query tuples inside the structure's universe, spread so both
/// in-answer and out-of-answer selections occur.
fn sample_queries(arity: usize, universe: usize) -> Vec<Vec<Element>> {
    let n = universe as Element;
    (0..3u32)
        .map(|j| {
            (0..arity)
                .map(|i| (j * 3 + 2 * i as Element + 1) % n)
                .collect()
        })
        .collect()
}

/// Selection equality of the adorned goal against the full goal: tuples
/// agreeing with `query` on `pattern`'s bound positions must coincide.
fn assert_selection_equality(
    program: &Program,
    s: &Structure,
    pattern: &BindingPattern,
    query: &[Element],
    label: &str,
) {
    let full = Evaluator::new(program).run(s, EvalOptions::default());
    let full_goal = &full.idb[program.goal().0];
    let magic = MagicProgram::rewrite(program, pattern)
        .unwrap_or_else(|e| panic!("{label}: rewrite failed for {pattern}: {e}"));
    let seeds = vec![(magic.magic_goal(), magic.seed(query))];
    let demand = magic
        .compile()
        .run_seeded(s, EvalOptions::default(), &seeds);
    let demand_goal = &demand.idb[magic.goal().0];
    let matches = |t: &[Element]| pattern.bound_positions().all(|i| t[i] == query[i]);
    for t in full_goal.iter().filter(|t| matches(t)) {
        assert!(
            demand_goal.contains(t),
            "{label}: demand missed {t:?} (pattern {pattern}, query {query:?})"
        );
    }
    for t in demand_goal.iter().filter(|t| matches(t)) {
        assert!(
            full_goal.contains(t),
            "{label}: demand over-derived {t:?} (pattern {pattern}, query {query:?})"
        );
    }
}

#[test]
fn magic_equals_full_for_every_program_and_binding_pattern() {
    for case in corpus() {
        let s = SMALL.draw(&case, case.seed(9_000));
        let arity = case.goal_arity();
        for pattern in all_patterns(arity) {
            for query in sample_queries(arity, s.universe_size()) {
                assert_selection_equality(&case.program, &s, &pattern, &query, case.name);
            }
        }
    }
}

#[test]
fn magic_equals_full_under_parallel_evaluation() {
    // The demand path composes with sharded parallel stages: at W ∈ {1, 4}
    // workers the seeded demand run must agree with the default
    // single-worker demand run tuple-for-tuple, and selection equality
    // holds.
    let program = transitive_closure();
    let s = random_digraph(12, 0.2, 9_900).to_structure();
    let magic = MagicProgram::rewrite(&program, &BindingPattern::all_bound(2)).unwrap();
    let compiled = magic.compile();
    let seeds = vec![(magic.magic_goal(), magic.seed(&[0, 11]))];
    let seq = compiled.run_seeded(&s, EvalOptions::default(), &seeds);
    for w in [1, 4] {
        let par = compiled.run_seeded(&s, EvalOptions::default().with_shards(w), &seeds);
        for (a, b) in seq.idb.iter().zip(&par.idb) {
            assert_eq!(a.len(), b.len(), "W={w}");
            assert!(a.iter().all(|t| b.contains(t)), "W={w}");
        }
    }
    assert_selection_equality(
        &program,
        &s,
        &BindingPattern::all_bound(2),
        &[0, 11],
        "parallel",
    );
}

#[test]
fn lazy_existential_games_match_eager_for_all_k_and_kinds() {
    let pairs: Vec<(Structure, Structure)> = vec![
        (directed_path(4), directed_path(7)),
        (directed_path(7), directed_path(4)),
        (two_disjoint_paths(2), two_crossing_paths(2)),
        (
            random_digraph(5, 0.3, 9_910).to_structure(),
            random_digraph(5, 0.3, 9_911).to_structure(),
        ),
        (
            random_digraph(6, 0.25, 9_912).to_structure(),
            random_digraph(6, 0.25, 9_913).to_structure(),
        ),
    ];
    for (pi, (a, b)) in pairs.iter().enumerate() {
        for k in 1..=3usize {
            for kind in [HomKind::Homomorphism, HomKind::OneToOne] {
                let eager = ExistentialGame::solve(a, b, k, kind);
                let lazy = ExistentialGame::solve_lazy(a, b, k, kind);
                assert_eq!(
                    lazy.winner(),
                    eager.winner(),
                    "pair {pi}, k={k}, kind {kind:?}"
                );
                assert!(
                    lazy.arena_size() <= eager.arena_size(),
                    "pair {pi}, k={k}, kind {kind:?}: lazy arena {} > eager {}",
                    lazy.arena_size(),
                    eager.arena_size()
                );
            }
        }
    }
}

#[test]
fn lazy_cnf_games_match_eager_for_all_k() {
    let formulas = [
        CnfFormula::complete(1),
        CnfFormula::complete(2),
        CnfFormula::units_plus_negated_clause(3),
    ];
    for (fi, formula) in formulas.iter().enumerate() {
        for k in 1..=3usize {
            let eager = CnfGame::solve(formula, k);
            let lazy = CnfGame::solve_lazy(formula, k);
            assert_eq!(lazy.winner(), eager.winner(), "formula {fi}, k={k}");
            assert!(
                lazy.arena_size() <= eager.arena_size(),
                "formula {fi}, k={k}"
            );
        }
    }
}

#[test]
fn lazy_acyclic_games_match_eager() {
    for seed in 0..12u64 {
        let g = random_dag(8, 0.3, 9_800 + seed);
        for (pattern, d) in [
            (PatternSpec::two_disjoint_edges(), vec![0u32, 6, 1, 7]),
            (PatternSpec::path_length_two(), vec![0u32, 6, 7]),
        ] {
            let eager = AcyclicGame::solve(pattern.clone(), &g, &d);
            let lazy = AcyclicGame::solve_lazy(pattern.clone(), &g, &d);
            assert_eq!(lazy.winner(), eager.winner(), "seed {seed}");
        }
    }
}

#[test]
fn homeo_dispatch_demand_plan_matches_full_plan() {
    // The (s, t) boolean homeomorphism query picks the demand path
    // automatically; an explicit full plan must reach the same verdict by
    // the same method.
    let p = PatternSpec::two_disjoint_edges();
    let full = QueryPlan::full(4);
    for seed in 0..10u64 {
        let g = random_dag(9, 0.3, 9_700 + seed);
        let d = [0u32, 7, 1, 8];
        let gov = Governor::unlimited();
        let auto = homeo::try_solve(&p, &g, &d, &gov).unwrap();
        let eager = homeo::try_solve_with_plan(&p, &g, &d, &full, &gov).unwrap();
        assert_eq!(auto, eager, "seed {seed}");
    }
}
