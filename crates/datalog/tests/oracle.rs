//! Differential tests: the store-backed evaluator vs. a brute-force
//! `HashSet<Tuple>` semi-naive-free oracle that implements the paper's
//! stage semantics literally — enumerate every assignment of every rule,
//! every stage. The oracle is deliberately the dumbest correct thing; it
//! shares **no code** with the engine's join machinery, so agreement on
//! goal relations *and full stage sequences* is strong evidence that the
//! interned-store engine (id-range deltas, static indexes, parallel
//! scratch merging) preserves the semantics of Section 2.
//!
//! `HashSet<Tuple>` is allowed here — this file is the test-only oracle
//! the production code is measured against.

use kv_datalog::programs::{
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, two_disjoint_paths_acyclic,
    two_disjoint_paths_paper_rules, two_pairs_vocabulary,
};
use kv_datalog::{EvalOptions, EvalResult, Evaluator, Literal, Pred, Program, Term};
use kv_structures::rng::SplitMix64;
use kv_structures::{Digraph, Element, RelId, Structure, Tuple};
use std::collections::HashSet;
use std::sync::Arc;

/// All cumulative stages Θ¹ ⊆ Θ² ⊆ … of `program` on `s`, computed by
/// exhaustive assignment enumeration. `stages[n][i]` is stage `n + 1`
/// restricted to IDB `i`.
fn oracle_stages(program: &Program, s: &Structure) -> Vec<Vec<HashSet<Tuple>>> {
    let n = s.universe_size() as Element;
    let mut current: Vec<HashSet<Tuple>> = vec![HashSet::new(); program.idb_count()];
    let mut stages = Vec::new();
    loop {
        let mut next = current.clone();
        for rule in program.rules() {
            let mut asg = vec![0 as Element; rule.var_count()];
            loop {
                if satisfies(rule, &asg, s, &current) {
                    let head: Tuple = rule.head_args.iter().map(|t| resolve(t, &asg, s)).collect();
                    next[rule.head.0].insert(head);
                }
                // Odometer over universe^var_count (runs once if 0 vars).
                let mut pos = 0;
                while pos < asg.len() {
                    asg[pos] += 1;
                    if asg[pos] < n {
                        break;
                    }
                    asg[pos] = 0;
                    pos += 1;
                }
                if pos == asg.len() {
                    break;
                }
            }
        }
        if next == current {
            return stages;
        }
        stages.push(next.clone());
        current = next;
    }
}

fn resolve(t: &Term, asg: &[Element], s: &Structure) -> Element {
    match t {
        Term::Var(v) => asg[v.0],
        Term::Const(c) => s.constant(*c),
    }
}

fn satisfies(
    rule: &kv_datalog::Rule,
    asg: &[Element],
    s: &Structure,
    idb: &[HashSet<Tuple>],
) -> bool {
    rule.body.iter().all(|lit| match lit {
        Literal::Atom(pred, args) => {
            let tuple: Vec<Element> = args.iter().map(|t| resolve(t, asg, s)).collect();
            match pred {
                Pred::Edb(r) => s.contains(*r, &tuple),
                Pred::Idb(i) => idb[i.0].contains(tuple.as_slice()),
            }
        }
        Literal::Eq(a, b) => resolve(a, asg, s) == resolve(b, asg, s),
        Literal::Neq(a, b) => resolve(a, asg, s) != resolve(b, asg, s),
    })
}

/// Engine result and oracle stages must agree exactly: same stage count,
/// same per-stage per-IDB tuple sets, same fixpoint.
fn assert_engine_matches_oracle(program: &Program, s: &Structure, label: &str) {
    let oracle = oracle_stages(program, s);
    for options in [
        EvalOptions::default(),
        EvalOptions {
            semi_naive: false,
            ..EvalOptions::default()
        },
        EvalOptions::default().with_shards(4),
    ] {
        let result: EvalResult = Evaluator::new(program).run(s, options);
        assert!(result.converged, "{label}: engine did not converge");
        assert_eq!(
            result.stage_count(),
            oracle.len(),
            "{label}: stage count (options {options:?})"
        );
        for (n, snapshot) in oracle.iter().enumerate() {
            for (i, expected) in snapshot.iter().enumerate() {
                let view = result.stage_view(n + 1, i);
                assert_eq!(
                    view.len(),
                    expected.len(),
                    "{label}: stage {} IDB {i} size (options {options:?})",
                    n + 1
                );
                for t in expected {
                    assert!(
                        view.contains(t),
                        "{label}: stage {} IDB {i} missing {t:?}",
                        n + 1
                    );
                }
            }
        }
        // Fixpoint = last stage.
        if let Some(last) = oracle.last() {
            for (i, expected) in last.iter().enumerate() {
                assert_eq!(result.idb[i].len(), expected.len(), "{label}: fixpoint {i}");
            }
        } else {
            assert!(result.idb.iter().all(|r| r.is_empty()), "{label}: fixpoint");
        }
    }
}

fn random_graph_structure(max_n: usize, max_edges: usize, rng: &mut SplitMix64) -> Structure {
    let n = rng.gen_range(2usize..max_n + 1);
    let mut g = Digraph::new(n);
    for _ in 0..rng.gen_range(0usize..max_edges + 1) {
        g.add_edge(rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32));
    }
    g.to_structure()
}

#[test]
fn engine_matches_oracle_on_graph_programs() {
    for seed in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(100 + seed);
        let s = random_graph_structure(6, 14, &mut rng);
        for (label, program) in [
            ("transitive_closure", transitive_closure()),
            ("avoiding_path", avoiding_path()),
            ("q_prime", q_prime()),
            ("q_2_0", q_kl(2, 0)),
            ("q_2_1", q_kl(2, 1)),
            ("q_3_1", q_kl(3, 1)),
        ] {
            assert_engine_matches_oracle(&program, &s, &format!("{label} seed {seed}"));
        }
    }
}

#[test]
fn engine_matches_oracle_on_path_systems() {
    let p = path_systems();
    for seed in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(300 + seed);
        let n = rng.gen_range(2usize..7);
        let mut s = Structure::new(Arc::clone(p.vocabulary()), n);
        for _ in 0..rng.gen_range(0usize..14) {
            let t = [
                rng.gen_range(0u32..n as u32),
                rng.gen_range(0u32..n as u32),
                rng.gen_range(0u32..n as u32),
            ];
            s.insert(RelId(0), &t);
        }
        for _ in 0..rng.gen_range(0usize..3) {
            s.insert(RelId(1), &[rng.gen_range(0u32..n as u32)]);
        }
        assert_engine_matches_oracle(&p, &s, &format!("path_systems seed {seed}"));
    }
}

#[test]
fn engine_matches_oracle_on_two_pairs_programs() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(500 + seed);
        let n = rng.gen_range(4usize..7);
        let mut g = Digraph::new(n);
        for _ in 0..rng.gen_range(0usize..12) {
            g.add_edge(rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32));
        }
        // Four distinguished nodes interpreting s1, t1, s2, t2.
        g.set_distinguished(vec![
            rng.gen_range(0u32..n as u32),
            rng.gen_range(0u32..n as u32),
            rng.gen_range(0u32..n as u32),
            rng.gen_range(0u32..n as u32),
        ]);
        let s = g.to_structure_with(Arc::new(two_pairs_vocabulary()));
        for (label, program) in [
            ("two_disjoint_paths_acyclic", two_disjoint_paths_acyclic()),
            ("two_disjoint_paths_paper", two_disjoint_paths_paper_rules()),
        ] {
            assert_engine_matches_oracle(&program, &s, &format!("{label} seed {seed}"));
        }
    }
}
