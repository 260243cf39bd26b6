//! The differential corpus the equivalence suites share
//! (`tests/{planned,sharded,incremental,chaos,demand,recovery}.rs`): one
//! list of named programs ([`corpus`]), the fixture families that draw
//! structures for them ([`SMALL`], [`SPARSE`]), the named run
//! configurations ([`configs`]), and pinned tables keyed by
//! `case/seed[/…]` ([`check_pinned`]).
//!
//! A program joins every suite with one [`Case`] line in [`corpus`], plus
//! its rows in the pinned tables that admit it: a pinned test run without
//! them fails and prints the rows to record. Suites filter the corpus by
//! capability and keep no list of their own.

// Each suite uses only part of this module; the rest is dead code there.
#![allow(dead_code)]

use datalog_expressiveness::datalog::programs::{
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, triangles,
    two_disjoint_paths_acyclic, two_disjoint_paths_paper_rules,
};
use datalog_expressiveness::datalog::{
    BindingPattern, EvalOptions, Fact, IncrementalEngine, JoinLowering, PlannerMode, Program,
};
use datalog_expressiveness::homeo::{
    acyclic_game_program, class_c_program, classify, PatternClass, PatternSpec,
};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::{Element, SplitMix64, Structure};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

/// The kind of structure a case runs over, read off its vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Path systems `R/3, A/1`: one fixed derivability instance.
    PathSystems,
    /// A digraph `E/2`: a random digraph.
    Digraph,
    /// A digraph `E/2` with constants: a random DAG whose distinguished
    /// nodes interpret them. The two-disjoint-paths programs and
    /// Theorem 6.2's game programs assume acyclic inputs; Theorem 6.1's
    /// class-`C` programs, which hold on any input, get one too.
    Dag,
}

/// One named program of the corpus.
pub struct Case {
    /// The key every label and pinned row names the case by.
    pub name: &'static str,
    pub program: Program,
    pub family: Family,
}

impl Case {
    fn new(name: &'static str, program: Program) -> Case {
        let vocab = program.vocabulary();
        let family =
            if vocab.relation_by_name("R").is_some() && vocab.relation_by_name("A").is_some() {
                Family::PathSystems
            } else if vocab.constant_count() > 0 {
                Family::Dag
            } else {
                Family::Digraph
            };
        Case {
            name,
            program,
            family,
        }
    }

    /// The goal predicate's arity.
    pub fn goal_arity(&self) -> usize {
        self.program.idb_arity(self.program.goal())
    }

    /// A seed for this case under `salt`: `salt * 1000` plus a case id
    /// below 1000 hashed from the name, so it does not move when the
    /// corpus gains or reorders cases.
    pub fn seed(&self, salt: u64) -> u64 {
        let hash = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        salt * 1_000 + hash % 1_000
    }
}

/// Theorem 6.1's program for a class-`C` pattern.
fn class_c(pattern: &PatternSpec) -> Program {
    match classify(pattern) {
        PatternClass::InC(root) => class_c_program(pattern, &root),
        other => panic!("{pattern:?} is not in C: {other:?}"),
    }
}

/// A homeomorphism pattern on `node_count` nodes.
fn pattern(node_count: usize, edges: &[(usize, usize)]) -> PatternSpec {
    PatternSpec {
        node_count,
        edges: edges.to_vec(),
    }
}

/// Every program the differential suites compare, one line each:
/// the paper's programs, `Q_{k,l}` for four `(k, l)`, `triangles` (the
/// generic join's cyclic body), Theorem 6.2's game programs for a two-
/// and a three-edge path (one IDB per subset of pattern edges, mutually
/// recursive, ≠-heavy), and Theorem 6.1's class-`C` programs for the
/// self-loop pattern `{(0,0), (0,1)}` (the proof's self-loop case
/// analysis) and the two-leg out-star (built from `Q_{2,0}`).
#[rustfmt::skip]
pub fn corpus() -> Vec<Case> {
    vec![
        Case::new("transitive_closure", transitive_closure()),
        Case::new("avoiding_path", avoiding_path()),
        Case::new("q_prime", q_prime()),
        Case::new("q_kl(2,1)", q_kl(2, 1)),
        Case::new("path_systems", path_systems()),
        Case::new("two_disjoint_paths_acyclic", two_disjoint_paths_acyclic()),
        Case::new("two_disjoint_paths_paper_rules", two_disjoint_paths_paper_rules()),
        Case::new("triangles", triangles()),
        Case::new("q_kl(1,1)", q_kl(1, 1)),
        Case::new("q_kl(2,2)", q_kl(2, 2)),
        Case::new("q_kl(3,1)", q_kl(3, 1)),
        Case::new("game(path_length_two)", acyclic_game_program(&pattern(3, &[(0, 1), (1, 2)]))),
        Case::new("game(path_length_three)", acyclic_game_program(&pattern(4, &[(0, 1), (1, 2), (2, 3)]))),
        Case::new("class_c(self_loop)", class_c(&pattern(2, &[(0, 0), (0, 1)]))),
        Case::new("class_c(out_star_2)", class_c(&pattern(3, &[(0, 1), (0, 2)]))),
    ]
}

/// The corpus case called `name`.
pub fn case(name: &str) -> Case {
    corpus()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no corpus case {name}"))
}

/// `points` indices dealt round-robin over `cases`, and at least one per
/// case: the injection points of the chaos and sharded resume loops.
pub fn round_robin(cases: &[Case], points: usize) -> impl Iterator<Item = (usize, &Case)> {
    (0..points.max(cases.len())).map(move |i| (i, &cases[i % cases.len()]))
}

/// A named fixture family: how a suite draws a structure for a case.
/// Path-systems cases get the fixed instance and [`Family::Dag`] cases a
/// random DAG on 8 nodes at p = 0.35 in every family; the families differ
/// in their random digraphs.
pub struct Fixtures {
    nodes: usize,
    density: f64,
}

/// Random digraphs on 7 nodes at p = 0.3: the planned, incremental,
/// chaos and demand suites.
pub const SMALL: Fixtures = Fixtures {
    nodes: 7,
    density: 0.3,
};

/// Random digraphs on 9 nodes at p = 0.25: the sharded suite.
pub const SPARSE: Fixtures = Fixtures {
    nodes: 9,
    density: 0.25,
};

impl Fixtures {
    /// One structure over `case`'s vocabulary, drawn from `seed`.
    pub fn draw(&self, case: &Case, seed: u64) -> Structure {
        let vocab = Arc::clone(case.program.vocabulary());
        match case.family {
            Family::PathSystems => {
                let (r, a) = (vocab.relation_by_name("R"), vocab.relation_by_name("A"));
                let (r, a) = (r.expect("R"), a.expect("A"));
                let mut s = Structure::new(vocab, 7);
                s.insert(a, &[0]);
                s.insert(a, &[1]);
                for &(x, y, z) in &[(2, 0, 1), (3, 2, 0), (4, 3, 2), (5, 6, 6), (6, 4, 5)] {
                    s.insert(r, &[x, y, z]);
                }
                s
            }
            // Q_{k,l} with k + l = 3 has a 5-ary goal: 6 nodes keep its
            // fixpoint (up to n^5 tuples) in the range of the others'.
            Family::Digraph => {
                let nodes = if case.goal_arity() > 4 { 6 } else { self.nodes };
                random_digraph(nodes, self.density, seed).to_structure()
            }
            Family::Dag => {
                let mut g = random_dag(8, 0.35, seed);
                g.set_distinguished([0, 6, 1, 7, 2, 5][..vocab.constant_count()].to_vec());
                g.to_structure_with(vocab)
            }
        }
    }
}

/// The named run configurations, all at one worker: textual, then
/// cost-based under the Auto, Binary and Generic lowerings.
pub fn configs() -> [(&'static str, EvalOptions); 4] {
    let cost = |lowering| {
        EvalOptions::default()
            .with_planner(PlannerMode::CostBased)
            .with_lowering(lowering)
    };
    [
        ("textual", EvalOptions::default()),
        ("cost-auto", cost(JoinLowering::Auto)),
        ("cost-binary", cost(JoinLowering::Binary)),
        ("cost-generic", cost(JoinLowering::Generic)),
    ]
}

/// Every binding pattern of the given arity, `ff…f` through `bb…b`.
pub fn all_patterns(arity: usize) -> Vec<BindingPattern> {
    (0..1usize << arity)
        .map(|mask| BindingPattern::new((0..arity).map(|i| mask >> i & 1 == 1).collect()))
        .collect()
}

/// A random mutation batch against the engine's current EDB: each live
/// tuple is retracted with probability 1/4, and up to three fresh random
/// tuples (valid arity, in-universe) are inserted per relation.
pub fn random_batch(engine: &IncrementalEngine, rng: &mut SplitMix64) -> (Vec<Fact>, Vec<Fact>) {
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

/// The deterministic batch stream of the recovery suite: batch 1 asserts
/// `template`'s facts, and each later batch makes four moves: an insert
/// of a random tuple (6 in 10, which may re-insert a live one), a retract
/// of a live fact (3 in 10), or a phantom retract of a random tuple, most
/// likely not live (1 in 10). A pure function of `(case, template, seed,
/// count)`, so the crashing child and the verifying parent draw the same
/// stream.
pub fn batch_stream(
    case: &Case,
    template: &Structure,
    seed: u64,
    count: usize,
) -> Vec<(Vec<Fact>, Vec<Fact>)> {
    let vocab = case.program.vocabulary();
    let universe = template.universe_size() as u32;
    let rels: Vec<_> = vocab.relations().collect();
    let mut batches = Vec::with_capacity(count);
    let mut initial: Vec<Fact> = Vec::new();
    for &r in &rels {
        for t in template.relation(r).iter() {
            initial.push((r, t.to_vec()));
        }
    }
    // The generator mirrors the engine's multiset semantics locally so
    // retract targets are (usually) live without consulting the engine.
    let mut live: Vec<Fact> = initial.clone();
    batches.push((initial, Vec::new()));
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xD1FF_0000);
    while batches.len() < count {
        let mut inserts = Vec::new();
        let mut retracts = Vec::new();
        for _ in 0..4 {
            let roll = rng.next_u64() % 10;
            if roll < 6 || live.is_empty() {
                let r = rels[rng.gen_range(0..rels.len())];
                let t: Vec<Element> = (0..vocab.arity(r))
                    .map(|_| rng.gen_range(0..universe))
                    .collect();
                live.push((r, t.clone()));
                inserts.push((r, t));
            } else if roll < 9 {
                let i = rng.gen_range(0..live.len());
                retracts.push(live.swap_remove(i));
            } else {
                let r = rels[rng.gen_range(0..rels.len())];
                let t: Vec<Element> = (0..vocab.arity(r))
                    .map(|_| rng.gen_range(0..universe))
                    .collect();
                retracts.push((r, t));
            }
        }
        batches.push((inserts, retracts));
    }
    batches
}

/// Checks a pinned table keyed `case/seed[/rest]` against fresh runs.
///
/// `run(case, seed)` returns the case's rows at that seed, each keyed by
/// its `rest` (empty for a table with one row per case and seed). The
/// check is complete both ways: every case of `cases` has rows, each row
/// names a case of `cases`, and each pinned `(case, seed)` has exactly the
/// rows `run` returns, with equal values. A case without rows runs at
/// `case.seed(salt)`, and the failure prints its rows to record.
pub fn check_pinned<T, V>(
    table: &[(&str, T)],
    cases: &[Case],
    salt: u64,
    mut run: impl FnMut(&Case, u64) -> Vec<(String, V)>,
) where
    T: Debug,
    V: PartialEq<T> + Debug,
{
    let mut pinned: BTreeMap<(&str, u64), BTreeMap<&str, &T>> = BTreeMap::new();
    let mut faults = Vec::new();
    for (key, value) in table {
        let mut parts = key.splitn(3, '/');
        let name = parts.next().unwrap_or_default();
        let Some(seed) = parts.next().and_then(|s| s.parse().ok()) else {
            faults.push(format!("{key}: the key has no seed"));
            continue;
        };
        if !cases.iter().any(|c| c.name == name) {
            faults.push(format!("{key}: the row names no admitted case"));
        }
        let rest = parts.next().unwrap_or_default();
        if pinned
            .entry((name, seed))
            .or_default()
            .insert(rest, value)
            .is_some()
        {
            faults.push(format!("{key}: the key is pinned twice"));
        }
    }
    let key = |case: &Case, seed: u64, rest: &str| match rest {
        "" => format!("{}/{seed}", case.name),
        rest => format!("{}/{seed}/{rest}", case.name),
    };
    for case in cases {
        let seeds: Vec<u64> = pinned
            .keys()
            .filter(|&&(name, _)| name == case.name)
            .map(|&(_, seed)| seed)
            .collect();
        if seeds.is_empty() {
            faults.push(format!("{}: no pinned rows; to record:", case.name));
            let seed = case.seed(salt);
            for (rest, got) in run(case, seed) {
                faults.push(format!("    ({:?}, {got:?}),", key(case, seed, &rest)));
            }
        }
        for seed in seeds {
            let mut want = pinned.remove(&(case.name, seed)).unwrap_or_default();
            for (rest, got) in run(case, seed) {
                let key = key(case, seed, &rest);
                match want.remove(rest.as_str()) {
                    Some(want) if got == *want => {}
                    Some(want) => faults.push(format!("{key}: got {got:?}, pinned {want:?}")),
                    None => faults.push(format!("{key}: not pinned; got {got:?}")),
                }
            }
            for rest in want.keys() {
                faults.push(format!("{}: pinned, not produced", key(case, seed, rest)));
            }
        }
    }
    assert!(faults.is_empty(), "pinned table:\n{}", faults.join("\n"));
}
