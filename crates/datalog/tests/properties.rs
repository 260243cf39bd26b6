//! Randomized property tests for the Datalog(≠) engine, seed-deterministic
//! via the in-tree [`SplitMix64`] generator.

use kv_datalog::programs::{avoiding_path, q_kl, transitive_closure};
use kv_datalog::{parse_program, EvalOptions, Evaluator};
use kv_structures::rng::SplitMix64;
use kv_structures::{Digraph, RelId};
use std::sync::Arc;

fn random_case_digraph(max_n: usize, max_edges: usize, rng: &mut SplitMix64) -> Digraph {
    let n = rng.gen_range(2usize..max_n + 1);
    let mut g = Digraph::new(n);
    let edges = rng.gen_range(0usize..max_edges + 1);
    for _ in 0..edges {
        let u = rng.gen_range(0u32..n as u32);
        let v = rng.gen_range(0u32..n as u32);
        g.add_edge(u, v);
    }
    g
}

/// Naive and semi-naive evaluation produce identical fixpoints AND
/// identical stage statistics, for all three library programs.
#[test]
fn naive_equals_semi_naive() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let g = random_case_digraph(7, 20, &mut rng);
        let s = g.to_structure();
        for program in [transitive_closure(), avoiding_path(), q_kl(2, 0)] {
            let naive = Evaluator::new(&program).run(
                &s,
                EvalOptions {
                    semi_naive: false,
                    ..EvalOptions::default()
                },
            );
            let semi = Evaluator::new(&program).run(&s, EvalOptions::default());
            assert_eq!(naive.idb, semi.idb, "seed {seed}");
            assert_eq!(naive.stats, semi.stats, "seed {seed}");
            assert!(naive.same_stages(&semi), "seed {seed}");
        }
    }
}

/// Parallel semi-naive evaluation is stage-identical — fixpoint, per-stage
/// statistics, and recorded stage snapshots — to the sequential naive
/// baseline, across the library programs (including the mutually recursive
/// path-systems program and the multi-IDB `Q'`).
#[test]
fn parallel_is_stage_identical_to_sequential() {
    use kv_datalog::programs::{path_systems, q_prime};
    use kv_structures::Structure;

    fn check(program: &kv_datalog::Program, s: &Structure, seed: u64) {
        let sequential = Evaluator::new(program).run(
            s,
            EvalOptions {
                semi_naive: false,
                ..EvalOptions::default()
            },
        );
        let parallel = Evaluator::new(program).run(s, EvalOptions::default().with_shards(4));
        assert_eq!(sequential.idb, parallel.idb, "idb, seed {seed}");
        assert_eq!(sequential.stats, parallel.stats, "stats, seed {seed}");
        assert!(sequential.same_stages(&parallel), "stages, seed {seed}");
        assert_eq!(sequential.converged, parallel.converged, "seed {seed}");
    }

    for seed in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(8000 + seed);
        let g = random_case_digraph(7, 20, &mut rng);
        let s = g.to_structure();
        for program in [transitive_closure(), avoiding_path(), q_prime(), q_kl(2, 1)] {
            check(&program, &s, seed);
        }
        // Path systems (nonlinear recursion) over its own {R/3, A/1}
        // vocabulary, with a random derivation system.
        let ps = path_systems();
        let n = rng.gen_range(2usize..7);
        let mut sys = Structure::new(Arc::clone(ps.vocabulary()), n);
        for _ in 0..rng.gen_range(0usize..16) {
            let t = [
                rng.gen_range(0u32..n as u32),
                rng.gen_range(0u32..n as u32),
                rng.gen_range(0u32..n as u32),
            ];
            sys.insert(RelId(0), &t);
        }
        for _ in 0..rng.gen_range(0usize..3) {
            sys.insert(RelId(1), &[rng.gen_range(0u32..n as u32)]);
        }
        check(&ps, &sys, seed);
    }
}

/// TC is really the transitive closure: agrees with BFS reachability.
#[test]
fn tc_matches_bfs() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(1000 + seed);
        let g = random_case_digraph(8, 20, &mut rng);
        let s = g.to_structure();
        let tc = Evaluator::new(&transitive_closure()).goal(&s);
        for x in 0..s.universe_size() as u32 {
            for y in 0..s.universe_size() as u32 {
                // TC's semantics: a *nonempty* path from x to y exists.
                let expected = kv_graphalg::avoiding_path(&g, x, y, &[]);
                assert_eq!(tc.contains(&[x, y][..]), expected, "seed {seed}");
            }
        }
    }
}

/// Monotonicity under edge addition: the goal relation only grows.
#[test]
fn goal_grows_under_edge_addition() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(2000 + seed);
        let g = random_case_digraph(7, 20, &mut rng);
        let n = g.node_count() as u32;
        let u = rng.gen_range(0u32..7) % n;
        let v = rng.gen_range(0u32..7) % n;
        let s = g.to_structure();
        let mut g2 = g.clone();
        g2.add_edge(u, v);
        let s2 = g2.to_structure();
        for program in [transitive_closure(), avoiding_path()] {
            let before = Evaluator::new(&program).goal(&s);
            let after = Evaluator::new(&program).goal(&s2);
            for t in before.iter() {
                assert!(after.contains(t), "seed {seed}: tuple {t:?} lost");
            }
        }
    }
}

/// Display → parse is the identity on the library programs (roundtrip
/// through the concrete syntax).
#[test]
fn display_parse_roundtrip() {
    for program in [transitive_closure(), avoiding_path(), q_kl(2, 1)] {
        let text = program.to_string();
        let reparsed = parse_program(&text, Arc::clone(program.vocabulary())).unwrap();
        assert_eq!(program.rules(), reparsed.rules());
        assert_eq!(program.goal(), reparsed.goal());
    }
}

/// The fixpoint is really a fixpoint: one more application of the rules
/// (running with the fixpoint as max_stages cut) adds nothing.
#[test]
fn fixpoint_is_stable() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::seed_from_u64(3000 + seed);
        let g = random_case_digraph(6, 15, &mut rng);
        let s = g.to_structure();
        let program = avoiding_path();
        let full = Evaluator::new(&program).run(&s, EvalOptions::default());
        assert!(full.converged);
        let again = Evaluator::new(&program).run(
            &s,
            EvalOptions {
                semi_naive: false,
                max_stages: Some(full.stage_count() + 3),
                ..EvalOptions::default()
            },
        );
        assert_eq!(full.idb, again.idb, "seed {seed}");
    }
}

/// Stage count for TC is bounded by the longest shortest-path distance
/// (diameter-ish bound), and never exceeds |V|.
#[test]
fn stage_count_bounded() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(4000 + seed);
        let g = random_case_digraph(8, 20, &mut rng);
        let s = g.to_structure();
        let r = Evaluator::new(&transitive_closure()).run(&s, EvalOptions::default());
        assert!(r.stage_count() <= s.universe_size().max(1), "seed {seed}");
    }
}

/// Equalities in bodies behave as substitution: P(x,y) :- E(x,z), z=y is
/// the edge relation.
#[test]
fn equality_is_substitution() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(5000 + seed);
        let g = random_case_digraph(7, 20, &mut rng);
        let s = g.to_structure();
        let p = parse_program(
            "P(x, y) :- E(x, z), z = y. ?- P.",
            Arc::new(kv_structures::Vocabulary::graph()),
        )
        .unwrap();
        let rel = Evaluator::new(&p).goal(&s);
        assert_eq!(rel.len(), s.relation(RelId(0)).len(), "seed {seed}");
        for t in s.relation(RelId(0)).iter() {
            assert!(rel.contains(t), "seed {seed}");
        }
    }
}

/// The parser never panics: arbitrary input yields Ok or Err.
#[test]
fn parser_total_on_arbitrary_input() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::seed_from_u64(6000 + seed);
        let len = rng.gen_range(0usize..81);
        let src: String = (0..len)
            .map(|_| {
                // Printable ASCII plus a couple of multi-byte characters.
                match rng.gen_range(0u32..20) {
                    0 => 'π',
                    1 => '≠',
                    _ => char::from(rng.gen_range(0x20u8..0x7f)),
                }
            })
            .collect();
        let _ = parse_program(&src, Arc::new(kv_structures::Vocabulary::graph()));
    }
}

/// The parser never panics on token-soup built from its own alphabet.
#[test]
fn parser_total_on_token_soup() {
    const TOKENS: [&str; 12] = [
        "P", "E", "x", "(", ")", ",", ".", ":-", "!=", "=", "?-", "s1",
    ];
    for seed in 0..256u64 {
        let mut rng = SplitMix64::seed_from_u64(7000 + seed);
        let len = rng.gen_range(0usize..24);
        let src = (0..len)
            .map(|_| TOKENS[rng.gen_range(0usize..TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = parse_program(
            &src,
            Arc::new(kv_structures::Vocabulary::graph_with_constants(1)),
        );
    }
}
