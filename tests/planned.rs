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
    two_disjoint_paths_acyclic, two_disjoint_paths_paper_rules,
};
use datalog_expressiveness::datalog::{
    BindingPattern, CompiledProgram, EdbIndexes, EvalOptions, Evaluator, Governor, IdbId,
    JoinLowering, MagicProgram, PlannerMode, Program,
};
use datalog_expressiveness::homeo::{acyclic_game_program, PatternSpec};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::{Element, EvalStats, Structure};
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
    // Q_{k,l} with k + l = 3 has a 5-ary goal: one node fewer keeps its
    // fixpoint (up to n^5 tuples) in the range of the other programs'.
    let nodes = if program.idb_arity(program.goal()) > 4 {
        6
    } else {
        7
    };
    match vocab.constant_count() {
        0 => random_digraph(nodes, 0.3, seed).to_structure(),
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
        triangles(),
        q_kl(1, 1),
        q_kl(2, 2),
        q_kl(3, 1),
    ];
    programs.extend(game_patterns().iter().map(acyclic_game_program));
    programs
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

/// The fixtures the pinned counters are recorded on.
const PINNED_SEEDS: [u64; 2] = [21_000, 21_001];

/// The configurations the pinned counters cover, in row order: textual,
/// then cost-based under the Auto, Binary and Generic lowerings.
fn pinned_configs() -> [EvalOptions; 4] {
    let cost = |lowering| opts(PlannerMode::CostBased).with_lowering(lowering);
    [
        opts(PlannerMode::Textual),
        cost(JoinLowering::Auto),
        cost(JoinLowering::Binary),
        cost(JoinLowering::Generic),
    ]
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
    let mut got = Vec::new();
    for program in all_programs() {
        for seed in PINNED_SEEDS {
            let s = fixture_for(&program, seed);
            for o in pinned_configs() {
                got.push(counter_row(&Evaluator::new(&program).run(&s, o).eval_stats));
            }
        }
    }
    assert_eq!(
        got.len(),
        PINNED_COUNTERS.len(),
        "one row per program, seed and configuration"
    );
    let per_program = PINNED_SEEDS.len() * pinned_configs().len();
    for (i, (row, want)) in got.iter().zip(&PINNED_COUNTERS).enumerate() {
        let (seed, config) = (i % per_program / 4, i % 4);
        assert_eq!(
            row,
            want,
            "program {}, seed {}, configuration {config}",
            i / per_program,
            PINNED_SEEDS[seed]
        );
    }
}

/// Recorded [`counter_row`]s: per program of [`all_programs`], per seed of
/// [`PINNED_SEEDS`], per configuration of [`pinned_configs`].
#[rustfmt::skip]
const PINNED_COUNTERS: [[u64; 8]; 104] = [
    // transitive_closure
    [54, 0, 0, 0, 34, 35, 4, 0],
    [22, 0, 18, 0, 34, 35, 4, 0],
    [22, 0, 18, 0, 34, 35, 4, 0],
    [96, 0, 0, 154, 34, 35, 4, 4],
    [63, 0, 0, 0, 63, 42, 4, 0],
    [25, 0, 22, 0, 63, 42, 4, 0],
    [25, 0, 22, 0, 63, 42, 4, 0],
    [137, 0, 0, 252, 63, 42, 4, 4],
    // avoiding_path
    [166, 0, 0, 0, 119, 147, 4, 0],
    [22, 0, 130, 0, 119, 147, 4, 0],
    [22, 0, 130, 0, 119, 147, 4, 0],
    [387, 0, 0, 634, 119, 147, 4, 4],
    [207, 0, 0, 0, 214, 186, 4, 0],
    [29, 0, 162, 0, 214, 186, 4, 0],
    [29, 0, 162, 0, 214, 186, 4, 0],
    [588, 0, 0, 1081, 214, 186, 4, 4],
    // q_prime
    [702, 0, 0, 0, 165, 238, 5, 0],
    [236, 0, 289, 0, 119, 238, 5, 0],
    [236, 0, 289, 0, 119, 238, 5, 0],
    [998, 0, 0, 3521, 165, 238, 5, 14],
    [905, 0, 0, 0, 288, 286, 6, 0],
    [324, 0, 358, 0, 214, 286, 6, 0],
    [324, 0, 358, 0, 214, 286, 6, 0],
    [1449, 0, 0, 6837, 288, 286, 6, 15],
    // q_kl(2, 1)
    [2279, 0, 0, 0, 655, 925, 5, 0],
    [402, 0, 1355, 0, 552, 925, 5, 0],
    [402, 0, 1355, 0, 552, 925, 5, 0],
    [3789, 0, 0, 40461, 655, 925, 5, 14],
    [2922, 0, 0, 0, 964, 1121, 6, 0],
    [565, 0, 1709, 0, 805, 1121, 6, 0],
    [565, 0, 1709, 0, 805, 1121, 6, 0],
    [5075, 0, 0, 77330, 964, 1121, 6, 15],
    // path_systems
    [32, 0, 0, 0, 0, 5, 4, 0],
    [21, 0, 0, 0, 0, 5, 4, 0],
    [21, 0, 0, 0, 0, 5, 4, 0],
    [34, 0, 0, 13, 0, 5, 4, 7],
    [32, 0, 0, 0, 0, 5, 4, 0],
    [21, 0, 0, 0, 0, 5, 4, 0],
    [21, 0, 0, 0, 0, 5, 4, 0],
    [34, 0, 0, 13, 0, 5, 4, 7],
    // two_disjoint_paths_acyclic
    [33, 0, 0, 0, 0, 2, 1, 0],
    [4, 0, 0, 0, 0, 2, 1, 0],
    [4, 0, 0, 0, 0, 2, 1, 0],
    [4, 0, 0, 0, 0, 2, 1, 1],
    [248, 0, 0, 0, 12, 27, 4, 0],
    [79, 0, 26, 0, 8, 27, 4, 0],
    [79, 0, 26, 0, 8, 27, 4, 0],
    [235, 0, 0, 367, 12, 27, 4, 19],
    // two_disjoint_paths_paper_rules
    [21, 0, 0, 0, 0, 3, 2, 0],
    [8, 0, 1, 0, 0, 3, 2, 0],
    [8, 0, 1, 0, 0, 3, 2, 0],
    [11, 0, 0, 3, 0, 3, 2, 4],
    [65, 0, 0, 0, 38, 30, 5, 0],
    [30, 0, 14, 0, 38, 30, 5, 0],
    [30, 0, 14, 0, 38, 30, 5, 0],
    [111, 0, 0, 207, 38, 30, 5, 10],
    // triangles
    [35, 0, 0, 0, 0, 6, 1, 0],
    [49, 0, 0, 56, 0, 6, 1, 1],
    [24, 0, 11, 0, 0, 6, 1, 0],
    [49, 0, 0, 56, 0, 6, 1, 1],
    [44, 0, 0, 0, 0, 6, 1, 0],
    [68, 0, 0, 82, 0, 6, 1, 1],
    [31, 0, 13, 0, 0, 6, 1, 0],
    [68, 0, 0, 82, 0, 6, 1, 1],
    // q_kl(1, 1)
    [153, 0, 0, 0, 152, 147, 4, 0],
    [26, 0, 126, 0, 152, 147, 4, 0],
    [26, 0, 126, 0, 152, 147, 4, 0],
    [435, 0, 0, 814, 152, 147, 4, 4],
    [192, 0, 0, 0, 221, 186, 4, 0],
    [27, 0, 164, 0, 221, 186, 4, 0],
    [27, 0, 164, 0, 221, 186, 4, 0],
    [582, 0, 0, 1075, 221, 186, 4, 4],
    // q_kl(2, 2)
    [1665, 0, 0, 0, 414, 798, 3, 0],
    [156, 0, 1146, 0, 414, 798, 3, 0],
    [156, 0, 1146, 0, 414, 798, 3, 0],
    [2636, 0, 0, 24424, 414, 798, 3, 9],
    [2373, 0, 0, 0, 574, 1132, 4, 0],
    [141, 0, 1632, 0, 554, 1132, 4, 0],
    [141, 0, 1632, 0, 554, 1132, 4, 0],
    [3337, 0, 0, 41870, 574, 1132, 4, 10],
    // q_kl(3, 1)
    [1765, 0, 0, 0, 414, 798, 3, 0],
    [170, 0, 1178, 0, 414, 798, 3, 0],
    [170, 0, 1178, 0, 414, 798, 3, 0],
    [2682, 0, 0, 24442, 414, 798, 3, 11],
    [2562, 0, 0, 0, 576, 1150, 4, 0],
    [181, 0, 1698, 0, 554, 1150, 4, 0],
    [181, 0, 1698, 0, 554, 1150, 4, 0],
    [3487, 0, 0, 43141, 576, 1150, 4, 16],
    // acyclic_game_program(path of length two)
    [43, 0, 0, 0, 0, 2, 2, 0],
    [5, 0, 0, 0, 0, 2, 2, 0],
    [5, 0, 0, 0, 0, 2, 2, 0],
    [6, 0, 0, 1, 0, 2, 2, 3],
    [87, 0, 0, 0, 1, 5, 3, 0],
    [8, 0, 0, 0, 1, 5, 3, 0],
    [8, 0, 0, 0, 1, 5, 3, 0],
    [13, 0, 0, 15, 1, 5, 3, 4],
    // acyclic_game_program(path of length three)
    [144, 0, 0, 0, 0, 6, 3, 0],
    [19, 0, 2, 0, 0, 6, 3, 0],
    [19, 0, 2, 0, 0, 6, 3, 0],
    [28, 0, 0, 12, 0, 6, 3, 9],
    [519, 0, 0, 0, 12, 27, 5, 0],
    [90, 0, 35, 0, 8, 27, 5, 0],
    [90, 0, 35, 0, 8, 27, 5, 0],
    [242, 0, 0, 380, 12, 27, 5, 22],
];
