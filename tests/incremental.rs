//! Differential suite for the delta-first incremental engine.
//!
//! The contract under test: after **every** batch of EDB insertions and
//! retractions, the [`IncrementalEngine`]'s live IDB relations equal a
//! from-scratch fixpoint of the same program over the engine's own
//! materialized EDB — for every program in `kv_datalog::programs`, under
//! randomized mutation schedules, across all three join lowerings
//! (textual, cost-based binary, cost-based generic). The initial batch is
//! additionally held to Theorem 3.6 stage identity: its stage sequence is
//! tuple-for-tuple the from-scratch semi-naive stage sequence.

use datalog_expressiveness::datalog::programs::{
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, triangles,
    two_disjoint_paths_acyclic, two_disjoint_paths_paper_rules,
};
use datalog_expressiveness::datalog::{
    BatchSummary, EvalOptions, Evaluator, Fact, IdbId, IncrementalEngine, JoinLowering,
    PlannerMode, Program,
};
use datalog_expressiveness::homeo::{
    acyclic_game_program, class_c_program, classify, PatternClass, PatternSpec,
};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::{
    Element, EvalStats, RelId, SplitMix64, Structure, Vocabulary,
};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// One structure over the program's own vocabulary: the path-systems
/// relations `R/3, A/1`, a random digraph `E/2`, or — for programs with
/// constants — a random DAG whose distinguished nodes interpret the
/// constants. The two-disjoint-paths programs and Theorem 6.2's game
/// programs assume acyclic inputs; Theorem 6.1's class-`C` programs,
/// which hold on any input, get a DAG too.
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
    match vocab.constant_count() {
        0 => random_digraph(7, 0.3, seed).to_structure(),
        c => {
            let mut g = random_dag(8, 0.35, seed);
            g.set_distinguished([0, 6, 1, 7, 2, 5][..c].to_vec());
            g.to_structure_with(vocab)
        }
    }
}

/// Theorem 6.1's program for a class-`C` pattern.
fn class_c(pattern: &PatternSpec) -> Program {
    match classify(pattern) {
        PatternClass::InC(root) => class_c_program(pattern, &root),
        other => panic!("{pattern:?} is not in C: {other:?}"),
    }
}

/// The maintained programs. `triangles` is one non-recursive SCC, and
/// Theorem 6.1's class-`C` programs for the self-loop pattern
/// `{(0,0), (0,1)}` and the two-leg out-star mix non-recursive and
/// recursive SCCs, so DRed runs on both kinds.
fn all_programs() -> Vec<Program> {
    vec![
        transitive_closure(),
        avoiding_path(),
        q_prime(),
        q_kl(2, 1),
        path_systems(),
        two_disjoint_paths_acyclic(),
        two_disjoint_paths_paper_rules(),
        q_kl(1, 1),
        acyclic_game_program(&PatternSpec::path_length_two()),
        triangles(),
        class_c(&PatternSpec {
            node_count: 2,
            edges: vec![(0, 0), (0, 1)],
        }),
        class_c(&PatternSpec {
            node_count: 3,
            edges: vec![(0, 1), (0, 2)],
        }),
    ]
}

fn lowerings() -> [EvalOptions; 3] {
    [
        EvalOptions::default(), // textual
        EvalOptions::default().with_planner(PlannerMode::CostBased),
        EvalOptions::default()
            .with_planner(PlannerMode::CostBased)
            .with_lowering(JoinLowering::Generic),
    ]
}

/// A random mutation batch against the engine's current EDB: each live
/// tuple is retracted with probability ~1/4, and a handful of fresh random
/// tuples (valid arity, in-universe) are inserted per relation.
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

/// The engine's live IDB sets must equal a from-scratch run over the
/// engine's own materialized EDB.
fn assert_matches_scratch(engine: &IncrementalEngine, program: &Program, label: &str) {
    let scratch = Evaluator::new(program).run(&engine.edb_structure(), engine.options());
    for i in 0..program.idb_count() {
        let live: HashSet<Vec<Element>> = engine
            .idb_store(IdbId(i))
            .live_iter()
            .map(|t| t.to_vec())
            .collect();
        let expect: HashSet<Vec<Element>> = scratch.idb[i].iter().map(|t| t.to_vec()).collect();
        assert_eq!(
            live,
            expect,
            "{label}: IDB {} diverged from scratch",
            program.idb_name(IdbId(i))
        );
    }
}

#[test]
fn every_program_matches_scratch_under_random_schedules() {
    for (pi, program) in all_programs().iter().enumerate() {
        for (oi, opts) in lowerings().into_iter().enumerate() {
            for schedule in 0..3u64 {
                let label = format!("program {pi} lowering {oi} schedule {schedule}");
                let s = fixture_for(program, 4_100 + pi as u64 + 13 * schedule);
                let (mut engine, _) = IncrementalEngine::from_structure(program, &s, opts);
                assert_matches_scratch(&engine, program, &format!("{label} initial"));
                let mut rng = SplitMix64::seed_from_u64(
                    0x1990 + 1_000 * pi as u64 + 100 * oi as u64 + schedule,
                );
                for batch in 0..4u32 {
                    let (inserts, retracts) = random_batch(&engine, &mut rng);
                    engine.apply_batch(&inserts, &retracts);
                    assert_matches_scratch(&engine, program, &format!("{label} batch {batch}"));
                }
            }
        }
    }
}

#[test]
fn initial_batch_has_stage_identity_on_every_program() {
    // Theorem 3.6 stage identity: the initial batch derives, stage by
    // stage, exactly the from-scratch semi-naive stage sequence.
    for (pi, program) in all_programs().iter().enumerate() {
        for (oi, opts) in lowerings().into_iter().enumerate() {
            let s = fixture_for(program, 4_100 + pi as u64);
            let (_, summary) = IncrementalEngine::from_structure(program, &s, opts);
            let scratch = Evaluator::new(program).run(&s, opts);
            let scratch_stages: Vec<Vec<usize>> = scratch
                .stats
                .iter()
                .map(|st| st.new_tuples.clone())
                .collect();
            assert_eq!(
                summary.stage_new, scratch_stages,
                "program {pi} lowering {oi}: initial-batch stage identity"
            );
        }
    }
}

#[test]
fn initial_batch_never_probes_more_than_scratch() {
    // The insertion pass runs the set-mode workers of a from-scratch run,
    // and on the initial batch it derives the from-scratch stages, so it
    // may not probe more than a from-scratch run with the same options:
    // textual, and cost-based under every lowering.
    let probes = |e: &EvalStats| e.join_probes + e.block_probes;
    for (pi, program) in all_programs().iter().enumerate() {
        for (oi, opts) in pinned_configs().into_iter().enumerate() {
            for seed in [4_100, 4_500] {
                let s = fixture_for(program, seed + pi as u64);
                let (_, initial) = IncrementalEngine::from_structure(program, &s, opts);
                let scratch = Evaluator::new(program).run(&s, opts);
                assert!(
                    probes(&initial.eval_stats) <= probes(&scratch.eval_stats),
                    "program {pi} configuration {oi} seed {seed}: initial batch made {} \
                     probes, scratch {}",
                    probes(&initial.eval_stats),
                    probes(&scratch.eval_stats)
                );
            }
        }
    }
}

#[test]
fn drain_and_refill_round_trips() {
    // Retract everything, then re-insert the original EDB: the engine
    // must pass through the empty fixpoint and land back on the original
    // one (epoch-advanced, content-identical).
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 4_200 + pi as u64);
        let (mut engine, _) =
            IncrementalEngine::from_structure(program, &s, EvalOptions::default());
        let all: Vec<Fact> = s
            .vocabulary()
            .relations()
            .flat_map(|rel| {
                s.relation(rel)
                    .iter()
                    .map(move |t| (rel, t.to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        engine.apply_batch(&[], &all);
        assert_matches_scratch(&engine, program, &format!("program {pi} drained"));
        engine.apply_batch(&all, &[]);
        assert_matches_scratch(&engine, program, &format!("program {pi} refilled"));
    }
}

/// Deterministic in-place Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..(i as u32 + 1)) as usize;
        items.swap(i, j);
    }
}

#[test]
fn reordered_batches_are_equivalent_to_unreordered() {
    // The engine canonicalizes every coalesced batch to retracts-before-
    // inserts, grouped by predicate, so the *presentation order* of a
    // batch is semantically inert: any permutation of the inserts and any
    // permutation of the retracts must commit the identical engine state
    // and the identical summary counters. This is what makes replayed
    // (WAL) and resumed batches reproducible regardless of how callers
    // assembled them.
    for (pi, program) in all_programs().iter().enumerate() {
        let s = fixture_for(program, 4_300 + pi as u64);
        let opts = EvalOptions::default();
        let (mut plain, _) = IncrementalEngine::from_structure(program, &s, opts);
        let (mut shuffled, _) = IncrementalEngine::from_structure(program, &s, opts);
        let mut rng = SplitMix64::seed_from_u64(0x0de4 + pi as u64);
        for batch in 0..3u32 {
            let (inserts, retracts) = random_batch(&plain, &mut rng);
            let mut inserts_perm = inserts.clone();
            let mut retracts_perm = retracts.clone();
            shuffle(&mut inserts_perm, &mut rng);
            shuffle(&mut retracts_perm, &mut rng);
            let a = plain.apply_batch(&inserts, &retracts);
            let b = shuffled.apply_batch(&inserts_perm, &retracts_perm);
            let label = format!("program {pi} batch {batch}");
            assert_eq!(
                (a.edb_inserted, a.edb_retracted, a.delta_tuples),
                (b.edb_inserted, b.edb_retracted, b.delta_tuples),
                "{label}: insertion counters diverged under reordering"
            );
            assert_eq!(
                (a.deleted_tuples, a.rederived_tuples, a.overdeleted_tuples),
                (b.deleted_tuples, b.rederived_tuples, b.overdeleted_tuples),
                "{label}: deletion counters diverged under reordering"
            );
            for rel in s.vocabulary().relations() {
                let ea = plain.edb_store(rel);
                let eb = shuffled.edb_store(rel);
                assert_eq!(ea.live_len(), eb.live_len(), "{label}: EDB {rel:?} size");
                for t in ea.live_iter() {
                    let sa = ea.lookup(t).map(|id| ea.support(id));
                    let sb = eb.lookup(t).map(|id| eb.support(id));
                    assert!(
                        eb.contains_live(t) && sa == sb,
                        "{label}: EDB {rel:?} tuple {t:?} support diverged"
                    );
                }
            }
            for i in 0..program.idb_count() {
                let la: HashSet<Vec<Element>> = plain
                    .idb_store(IdbId(i))
                    .live_iter()
                    .map(|t| t.to_vec())
                    .collect();
                let lb: HashSet<Vec<Element>> = shuffled
                    .idb_store(IdbId(i))
                    .live_iter()
                    .map(|t| t.to_vec())
                    .collect();
                assert_eq!(
                    la,
                    lb,
                    "{label}: IDB {} diverged",
                    program.idb_name(IdbId(i))
                );
            }
            assert_matches_scratch(&shuffled, program, &format!("{label} reordered"));
        }
    }
}

/// One seeded maintenance schedule whose batches do not depend on the
/// engine's tuple-id order: retract and insert choices are drawn against
/// the *sorted* live EDB, so every join lowering and worker count sees the
/// identical batches. Returns the summary of the initial batch and of each
/// of the `batches` mixed batches after it, and the sorted live IDB after
/// every mixed batch.
#[allow(clippy::type_complexity)]
fn churn_trace(
    program: &Program,
    opts: EvalOptions,
    seed: u64,
    batches: u32,
) -> (Vec<BatchSummary>, Vec<Vec<Vec<Element>>>) {
    let s = fixture_for(program, seed);
    let (mut engine, initial) = IncrementalEngine::from_structure(program, &s, opts);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed);
    let mut summaries = vec![initial];
    let mut idbs = Vec::new();
    for batch in 0..batches {
        let live = engine.edb_structure();
        let n = live.universe_size() as u32;
        let mut inserts = Vec::new();
        let mut retracts = Vec::new();
        for rel in live.vocabulary().relations() {
            let mut tuples: Vec<Vec<Element>> =
                live.relation(rel).iter().map(|t| t.to_vec()).collect();
            tuples.sort();
            for t in tuples {
                if rng.gen_bool(0.3) {
                    retracts.push((rel, t));
                }
            }
            let arity = live.vocabulary().arity(rel);
            for _ in 0..rng.gen_range(0u32..3) {
                let t: Vec<Element> = (0..arity).map(|_| rng.gen_range(0..n)).collect();
                inserts.push((rel, t));
            }
        }
        summaries.push(engine.apply_batch(&inserts, &retracts));
        assert_matches_scratch(&engine, program, &format!("seed {seed} batch {batch}"));
        for i in 0..program.idb_count() {
            let mut rows: Vec<Vec<Element>> = engine
                .idb_store(IdbId(i))
                .live_iter()
                .map(|t| t.to_vec())
                .collect();
            rows.sort();
            idbs.push(rows);
        }
    }
    (summaries, idbs)
}

/// Each mixed batch's `(deleted, overdeleted, rederived)` triple of a
/// five-batch [`churn_trace`], the maintained IDB after each, and each
/// batch's count of SCCs that took the recompute guard.
#[allow(clippy::type_complexity)]
fn deletion_trace(
    program: &Program,
    opts: EvalOptions,
    seed: u64,
) -> (Vec<(u64, u64, u64)>, Vec<Vec<Vec<Element>>>, Vec<u64>) {
    let (summaries, idbs) = churn_trace(program, opts, seed, 5);
    let batches = &summaries[1..];
    let triples = batches
        .iter()
        .map(|s| (s.deleted_tuples, s.overdeleted_tuples, s.rederived_tuples))
        .collect();
    (
        triples,
        idbs,
        batches.iter().map(|s| s.recomputed_sccs).collect(),
    )
}

#[test]
fn deletion_counters_are_pinned_for_every_lowering_and_worker_count() {
    // Deleted, overdeleted and rederived tuples are set quantities of the
    // DRed semantics — which pre-state tuples lose every
    // derivation, which the overdeletion closure reaches, and which of
    // those survive — so they may not depend on join order, kernels, the
    // lowering, or the worker count. The recompute guard keeps them so:
    // it fires on the sizes of the overdeletion rounds, and an SCC that
    // takes it counts all its live tuples as overdeleted and the ones its
    // exit rules reach again as rederived. Each program's per-batch
    // triples are pinned to recorded values, and every configuration must
    // reproduce them, the same maintained IDB and the same guard choices.
    // The pins cover both paths: batches that run DRed to the end with
    // overdeleted tuples, and batches that take the guard — among them
    // `two_disjoint_paths_paper_rules`, whose one SCC is seeded by a fact
    // rule.
    let (mut full_dred, mut guarded) = (0, 0);
    for (pi, program) in all_programs().iter().enumerate() {
        let seed = 4_400 + pi as u64;
        let reference = deletion_trace(program, EvalOptions::default(), seed);
        assert_eq!(
            reference.0, PINNED_DELETION_TRIPLES[pi],
            "program {pi}: deletion triples moved"
        );
        for (&(_, overdeleted, _), &recomputed) in reference.0.iter().zip(&reference.2) {
            full_dred += usize::from(overdeleted > 0 && recomputed == 0);
            guarded += usize::from(recomputed > 0);
        }
        if program.idb_name(program.goal()) == "D" {
            assert!(
                reference.2.iter().any(|&r| r > 0),
                "the fact-rule SCC must take the guard"
            );
        }
        for (oi, opts) in lowerings().into_iter().enumerate() {
            for w in [1usize, 4] {
                let got = deletion_trace(program, opts.with_shards(w), seed);
                assert_eq!(
                    got.0, reference.0,
                    "program {pi} lowering {oi} W={w}: deletion triples"
                );
                assert_eq!(
                    got.1, reference.1,
                    "program {pi} lowering {oi} W={w}: maintained IDB"
                );
                assert_eq!(
                    got.2, reference.2,
                    "program {pi} lowering {oi} W={w}: recompute guard"
                );
            }
        }
    }
    assert!(full_dred > 0 && guarded > 0, "both deletion paths pinned");
}

/// A transitive-closure fixture for the recompute guard: a graph whose
/// edges are partly pinned (never retracted), and the node groups that
/// batches draw fresh edges from.
struct GuardFixture {
    nodes: u32,
    pinned: BTreeSet<(u32, u32)>,
    edges: BTreeSet<(u32, u32)>,
    groups: Vec<(u32, u32)>,
}

impl GuardFixture {
    /// One dense SCC: `G(60, m = 354)` plus a pinned Hamiltonian cycle.
    fn dense(rng: &mut SplitMix64) -> Self {
        let n = 60u32;
        let pinned: BTreeSet<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let mut edges = pinned.clone();
        let mut drawn = 0;
        while drawn < 354 {
            let e = (rng.gen_range(0..n), rng.gen_range(0..n));
            if e.0 != e.1 && !pinned.contains(&e) && edges.insert(e) {
                drawn += 1;
            }
        }
        GuardFixture {
            nodes: n,
            pinned,
            edges,
            groups: vec![(0, n)],
        }
    }

    /// Tenants: 12 disjoint random blocks of 8 nodes, no edge between
    /// blocks.
    fn tenants(rng: &mut SplitMix64) -> Self {
        let (blocks, k) = (12u32, 8u32);
        let groups: Vec<(u32, u32)> = (0..blocks).map(|b| (b * k, b * k + k)).collect();
        let mut edges = BTreeSet::new();
        for &(lo, hi) in &groups {
            for u in lo..hi {
                for v in lo..hi {
                    if u != v && rng.gen_bool(0.3) {
                        edges.insert((u, v));
                    }
                }
            }
        }
        GuardFixture {
            nodes: blocks * k,
            pinned: BTreeSet::new(),
            edges,
            groups,
        }
    }

    fn structure(&self) -> Structure {
        let mut s = Structure::new(Arc::new(Vocabulary::graph()), self.nodes as usize);
        for &(u, v) in &self.edges {
            s.insert(RelId(0), &[u, v]);
        }
        s
    }

    /// A mixed batch inside one random group: retract up to four of its
    /// unpinned edges and insert as many absent ones.
    fn next_batch(&mut self, rng: &mut SplitMix64) -> (Vec<Fact>, Vec<Fact>) {
        let (lo, hi) = self.groups[rng.gen_range(0..self.groups.len() as u32) as usize];
        let k = rng.gen_range(1u32..5) as usize;
        let mut candidates: Vec<(u32, u32)> = self
            .edges
            .iter()
            .copied()
            .filter(|&(u, _)| (lo..hi).contains(&u))
            .filter(|e| !self.pinned.contains(e))
            .collect();
        let mut retracts = Vec::new();
        while retracts.len() < k && !candidates.is_empty() {
            let e = candidates.swap_remove(rng.gen_range(0..candidates.len() as u32) as usize);
            self.edges.remove(&e);
            retracts.push(e);
        }
        let mut inserts = Vec::new();
        while inserts.len() < retracts.len() {
            let e = (rng.gen_range(lo..hi), rng.gen_range(lo..hi));
            if e.0 != e.1 && !retracts.contains(&e) && self.edges.insert(e) {
                inserts.push(e);
            }
        }
        let facts = |es: Vec<(u32, u32)>| es.into_iter().map(|(u, v)| (RelId(0), vec![u, v]));
        (facts(inserts).collect(), facts(retracts).collect())
    }
}

#[test]
fn recompute_guard_fires_on_dense_sccs_only_and_never_loses_to_scratch() {
    // The counter gate of the recompute guard. On a dense SCC, every
    // retracted edge overdeletes most of the closure, so the guard must
    // fire and the batch must cost at most twice the probes of a
    // cost-based from-scratch run. On tenants, a batch's overdeletion
    // stays inside one block's closure, far below half of the SCC, so
    // the guard must never fire.
    let program = transitive_closure();
    let scratch_opts = EvalOptions::default().with_planner(PlannerMode::CostBased);
    for (name, dense) in [("dense", true), ("tenants", false)] {
        let mut rng = SplitMix64::seed_from_u64(0x6a7d);
        let mut fixture = if dense {
            GuardFixture::dense(&mut rng)
        } else {
            GuardFixture::tenants(&mut rng)
        };
        let (mut engine, _) = IncrementalEngine::from_structure(
            &program,
            &fixture.structure(),
            EvalOptions::default(),
        );
        for batch in 0..20 {
            let label = format!("{name} batch {batch}");
            let (inserts, retracts) = fixture.next_batch(&mut rng);
            let summary = engine.apply_batch(&inserts, &retracts);
            assert_matches_scratch(&engine, &program, &label);
            if !dense {
                assert_eq!(summary.recomputed_sccs, 0, "{label}: guard fired");
                continue;
            }
            if summary.edb_retracted > 0 {
                assert_eq!(summary.recomputed_sccs, 1, "{label}: guard did not fire");
            }
            let scratch = Evaluator::new(&program).run(&engine.edb_structure(), scratch_opts);
            let probes =
                |s: &datalog_expressiveness::structures::EvalStats| s.join_probes + s.block_probes;
            assert!(
                probes(&summary.eval_stats) <= 2 * probes(&scratch.eval_stats),
                "{label}: {} probes against {} from scratch",
                probes(&summary.eval_stats),
                probes(&scratch.eval_stats)
            );
        }
    }
}

/// The configurations the pinned maintenance counters cover, in row
/// order: textual, then cost-based under the Auto, Binary and Generic
/// lowerings, all at one worker.
fn pinned_configs() -> [EvalOptions; 4] {
    let cost = |lowering| {
        EvalOptions::default()
            .with_planner(PlannerMode::CostBased)
            .with_lowering(lowering)
    };
    [
        EvalOptions::default(),
        cost(JoinLowering::Auto),
        cost(JoinLowering::Binary),
        cost(JoinLowering::Generic),
    ]
    .map(|o| o.with_shards(1))
}

/// One batch as a row: the full [`EvalStats`](datalog_expressiveness::structures::EvalStats)
/// (join probes, magic probes, block probes, gallop steps, duplicate
/// derivations, tuples interned, stages, generic-join rules), then
/// `stage_new` with stages separated by spaces and predicates by commas.
fn maintenance_row(s: &BatchSummary) -> String {
    let e = &s.eval_stats;
    let counters = [
        e.join_probes,
        e.magic_probes,
        e.block_probes,
        e.gallop_steps,
        e.duplicate_derivations,
        e.tuples_interned,
        e.stages,
        e.wcoj_rules,
    ];
    let stages: Vec<String> = s
        .stage_new
        .iter()
        .map(|st| {
            st.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    format!(
        "{} | {}",
        counters.map(|c| c.to_string()).join(" "),
        stages.join(" ")
    )
}

#[test]
fn maintenance_counters_are_pinned() {
    // Join order, kernels, probe memos, the live-rule filter, the
    // committed-store checks and the deletion rounds all show in a batch's counters. A
    // change to how maintenance runs that is meant to leave it as it was
    // must reproduce every recorded row, so a shift that moves every
    // configuration alike cannot pass unnoticed.
    let mut got = Vec::new();
    for (pi, program) in all_programs().iter().enumerate() {
        for opts in pinned_configs() {
            let (summaries, _) = churn_trace(program, opts, 4_500 + pi as u64, 4);
            got.extend(summaries.iter().map(maintenance_row));
        }
    }
    assert_eq!(
        got.len(),
        PINNED_MAINTENANCE.len(),
        "one row per program, configuration and batch"
    );
    let per_program = pinned_configs().len() * 5;
    for (i, (row, want)) in got.iter().zip(&PINNED_MAINTENANCE).enumerate() {
        assert_eq!(
            row,
            want,
            "program {}, configuration {}, batch {}",
            i / per_program,
            i % per_program / 5,
            i % 5
        );
    }
}

/// Recorded [`maintenance_row`]s: per program of [`all_programs`] (seed
/// `4_500 + index`), per configuration of [`pinned_configs`], the initial
/// batch and four mixed batches.
#[rustfmt::skip]
const PINNED_MAINTENANCE: [&str; 240] = [
    // transitive_closure
    "24 0 0 0 7 20 3 0 | 9 8 3",
    "28 0 0 0 0 6 3 0 | 4 1 1",
    "21 0 0 0 0 0 0 0 | ",
    "18 0 0 0 6 11 3 0 | 5 4 2",
    "21 0 0 0 1 4 1 0 | 4",
    "18 0 6 0 7 20 3 0 | 9 8 3",
    "26 0 2 0 0 6 3 0 | 4 1 1",
    "21 0 0 0 0 0 0 0 | ",
    "13 0 5 0 6 11 3 0 | 5 4 2",
    "19 0 2 0 1 4 1 0 | 4",
    "18 0 6 0 7 20 3 0 | 9 8 3",
    "26 0 2 0 0 6 3 0 | 4 1 1",
    "21 0 0 0 0 0 0 0 | ",
    "13 0 5 0 6 11 3 0 | 5 4 2",
    "19 0 2 0 1 4 1 0 | 4",
    "42 0 0 24 7 20 3 3 | 9 8 3",
    "43 0 0 49 0 6 3 7 | 4 1 1",
    "23 0 0 2 0 0 0 4 | ",
    "33 0 0 22 6 11 3 4 | 5 4 2",
    "37 0 0 73 1 4 1 5 | 4",
    // avoiding_path
    "129 0 0 0 95 125 3 0 | 60 50 15",
    "53 0 0 0 0 0 0 0 | ",
    "32 0 0 0 0 5 1 0 | 5",
    "16 0 0 0 0 0 0 0 | ",
    "10 0 0 0 0 0 0 0 | ",
    "22 0 107 0 95 125 3 0 | 60 50 15",
    "53 0 0 0 0 0 0 0 | ",
    "28 0 4 0 0 5 1 0 | 5",
    "16 0 0 0 0 0 0 0 | ",
    "10 0 0 0 0 0 0 0 | ",
    "22 0 107 0 95 125 3 0 | 60 50 15",
    "53 0 0 0 0 0 0 0 | ",
    "28 0 4 0 0 5 1 0 | 5",
    "16 0 0 0 0 0 0 0 | ",
    "10 0 0 0 0 0 0 0 | ",
    "317 0 0 464 95 125 3 3 | 60 50 15",
    "167 0 0 959 0 0 0 3 | ",
    "49 0 0 94 0 5 1 4 | 5",
    "16 0 0 0 0 0 0 2 | ",
    "10 0 0 0 0 0 0 2 | ",
    // q_prime
    "748 0 0 0 283 296 6 0 | 75,0 64,30 33,40 7,31 1,14 0,1",
    "670 0 0 433 0 0 0 0 | ",
    "576 0 0 341 0 0 0 0 | ",
    "732 0 0 14 64 56 5 0 | 18,7 11,3 6,8 0,2 0,1",
    "573 0 0 188 26 46 4 0 | 20,2 9,1 8,3 0,3",
    "311 0 370 0 183 296 6 0 | 75,0 64,30 33,40 7,31 1,14 0,1",
    "670 0 0 433 0 0 0 0 | ",
    "576 0 0 341 0 0 0 0 | ",
    "646 0 75 30 45 56 5 0 | 18,7 11,3 6,8 0,2 0,1",
    "516 0 81 188 24 46 4 0 | 20,2 9,1 8,3 0,3",
    "311 0 370 0 183 296 6 0 | 75,0 64,30 33,40 7,31 1,14 0,1",
    "670 0 0 433 0 0 0 0 | ",
    "576 0 0 341 0 0 0 0 | ",
    "646 0 75 30 45 56 5 0 | 18,7 11,3 6,8 0,2 0,1",
    "516 0 81 188 24 46 4 0 | 20,2 9,1 8,3 0,3",
    "1439 0 0 6971 283 296 6 18 | 75,0 64,30 33,40 7,31 1,14 0,1",
    "1536 0 0 9390 0 0 0 18 | ",
    "1253 0 0 7058 0 0 0 19 | ",
    "1204 0 0 3456 64 56 5 33 | 18,7 11,3 6,8 0,2 0,1",
    "997 0 0 3551 26 46 4 30 | 20,2 9,1 8,3 0,3",
    // q_kl(2, 1)
    "1513 0 0 0 295 772 6 0 | 250,0 167,64 121,72 44,41 1,11 0,1",
    "1569 0 0 1045 13 81 4 0 | 40,6 16,3 9,2 4,1",
    "1191 0 0 324 70 190 3 0 | 95,7 62,7 16,3",
    "789 0 0 29 9 124 4 0 | 50,15 29,16 0,10 0,4",
    "772 0 0 337 0 25 1 0 | 25,0",
    "382 0 1173 0 255 772 6 0 | 250,0 167,64 121,72 44,41 1,11 0,1",
    "1451 0 142 1045 13 81 4 0 | 40,6 16,3 9,2 4,1",
    "899 0 321 367 70 190 3 0 | 95,7 62,7 16,3",
    "618 0 194 91 9 124 4 0 | 50,15 29,16 0,10 0,4",
    "741 0 39 337 0 25 1 1 | 25,0",
    "382 0 1173 0 255 772 6 0 | 250,0 167,64 121,72 44,41 1,11 0,1",
    "1451 0 142 1045 13 81 4 0 | 40,6 16,3 9,2 4,1",
    "899 0 321 367 70 190 3 0 | 95,7 62,7 16,3",
    "618 0 194 91 9 124 4 0 | 50,15 29,16 0,10 0,4",
    "726 0 54 337 0 25 1 0 | 25,0",
    "2857 0 0 23606 295 772 6 18 | 250,0 167,64 121,72 44,41 1,11 0,1",
    "3369 0 0 30643 13 81 4 34 | 40,6 16,3 9,2 4,1",
    "2050 0 0 7650 70 190 3 23 | 95,7 62,7 16,3",
    "1160 0 0 5493 9 124 4 22 | 50,15 29,16 0,10 0,4",
    "1232 0 0 6930 0 25 1 16 | 25,0",
    // path_systems
    "21 0 0 0 0 5 4 0 | 2 1 1 1",
    "29 0 0 0 0 1 1 0 | 1",
    "14 0 0 0 0 1 1 0 | 1",
    "14 0 0 0 0 0 0 0 | ",
    "10 0 0 0 0 1 1 0 | 1",
    "21 0 0 0 0 5 4 0 | 2 1 1 1",
    "29 0 0 0 0 1 1 0 | 1",
    "14 0 0 0 0 1 1 0 | 1",
    "12 0 0 0 0 0 0 0 | ",
    "10 0 0 0 0 1 1 0 | 1",
    "21 0 0 0 0 5 4 0 | 2 1 1 1",
    "29 0 0 0 0 1 1 0 | 1",
    "14 0 0 0 0 1 1 0 | 1",
    "12 0 0 0 0 0 0 0 | ",
    "10 0 0 0 0 1 1 0 | 1",
    "34 0 0 13 0 5 4 7 | 2 1 1 1",
    "36 0 0 10 0 1 1 7 | 1",
    "14 0 0 0 0 1 1 4 | 1",
    "14 0 0 0 0 0 0 3 | ",
    "10 0 0 0 0 1 1 3 | 1",
    // two_disjoint_paths_acyclic
    "65 0 0 0 3 11 3 0 | 2,2,0,0 1,0,4,0 0,0,2,0",
    "120 0 0 0 0 4 3 0 | 1,0,0,0 0,0,2,0 0,0,0,1",
    "44 0 0 0 1 1 1 0 | 0,1,0,0",
    "60 0 0 0 1 3 2 0 | 1,0,0,0 0,0,2,0",
    "40 0 0 0 0 0 0 0 | ",
    "40 0 9 0 1 11 3 0 | 2,2,0,0 1,0,4,0 0,0,2,0",
    "112 0 0 0 0 4 3 0 | 1,0,0,0 0,0,2,0 0,0,0,1",
    "43 0 0 0 0 1 1 0 | 0,1,0,0",
    "58 0 0 0 0 3 2 1 | 1,0,0,0 0,0,2,0",
    "40 0 0 0 0 0 0 0 | ",
    "40 0 9 0 1 11 3 0 | 2,2,0,0 1,0,4,0 0,0,2,0",
    "112 0 0 0 0 4 3 0 | 1,0,0,0 0,0,2,0 0,0,0,1",
    "43 0 0 0 0 1 1 0 | 0,1,0,0",
    "58 0 0 0 0 3 2 0 | 1,0,0,0 0,0,2,0",
    "40 0 0 0 0 0 0 0 | ",
    "81 0 0 76 3 11 3 12 | 2,2,0,0 1,0,4,0 0,0,2,0",
    "157 0 0 89 0 4 3 35 | 1,0,0,0 0,0,2,0 0,0,0,1",
    "94 0 0 90 1 1 1 15 | 0,1,0,0",
    "60 0 0 11 1 3 2 19 | 1,0,0,0 0,0,2,0",
    "54 0 0 22 0 0 0 16 | ",
    // two_disjoint_paths_paper_rules
    "15 0 0 0 4 9 3 0 | 1 4 4",
    "20 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "17 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "12 0 3 0 4 9 3 0 | 1 4 4",
    "20 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "17 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "12 0 3 0 4 9 3 0 | 1 4 4",
    "20 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "17 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "27 0 0 30 4 9 3 6 | 1 4 4",
    "25 0 0 14 0 0 0 4 | ",
    "0 0 0 0 0 0 0 0 | ",
    "20 0 0 7 0 0 0 4 | ",
    "0 0 0 0 0 0 0 0 | ",
    // q_kl(1, 1)
    "162 0 0 0 184 158 3 0 | 60 72 26",
    "106 0 0 0 4 12 1 0 | 12",
    "133 0 0 0 25 26 2 0 | 19 7",
    "114 0 0 0 0 0 0 0 | ",
    "54 0 0 0 12 34 3 0 | 14 12 8",
    "20 0 142 0 184 158 3 0 | 60 72 26",
    "95 0 11 0 4 12 1 0 | 12",
    "110 0 23 0 25 26 2 0 | 19 7",
    "114 0 0 0 0 0 0 0 | ",
    "26 0 28 0 12 34 3 0 | 14 12 8",
    "20 0 142 0 184 158 3 0 | 60 72 26",
    "95 0 11 0 4 12 1 0 | 12",
    "110 0 23 0 25 26 2 0 | 19 7",
    "114 0 0 0 0 0 0 0 | ",
    "26 0 28 0 12 34 3 0 | 14 12 8",
    "485 0 0 909 184 158 3 3 | 60 72 26",
    "362 0 0 1921 4 12 1 6 | 12",
    "319 0 0 758 25 26 2 7 | 19 7",
    "161 0 0 336 0 0 0 2 | ",
    "145 0 0 403 12 34 3 6 | 14 12 8",
    // acyclic_game_program(path_length_two)
    "34 0 0 0 0 8 4 0 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0",
    "118 0 0 0 0 2 2 0 | 0,0,1,0,0 0,0,0,1,0",
    "40 0 0 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0",
    "42 0 0 0 0 0 0 0 | ",
    "68 0 0 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0",
    "34 0 0 0 0 8 4 0 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0",
    "118 0 0 0 0 2 2 0 | 0,0,1,0,0 0,0,0,1,0",
    "35 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0",
    "40 0 0 0 0 0 0 0 | ",
    "60 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0",
    "34 0 0 0 0 8 4 0 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0",
    "118 0 0 0 0 2 2 0 | 0,0,1,0,0 0,0,0,1,0",
    "35 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0",
    "40 0 0 0 0 0 0 0 | ",
    "60 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0",
    "45 0 0 26 0 8 4 14 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0",
    "125 0 0 25 0 2 2 40 | 0,0,1,0,0 0,0,0,1,0",
    "50 0 0 18 0 3 2 19 | 0,1,0,0,0 0,0,0,2,0",
    "43 0 0 0 0 0 0 24 | ",
    "81 0 0 28 0 3 2 31 | 0,1,0,0,0 0,0,0,2,0",
    // triangles
    "25 0 0 0 0 0 0 0 | ",
    "28 0 0 4 0 0 0 3 | ",
    "15 0 0 0 0 4 1 0 | 4",
    "68 0 0 20 0 7 1 4 | 7",
    "56 0 0 61 0 0 0 4 | ",
    "31 0 0 10 0 0 0 1 | ",
    "28 0 0 4 0 0 0 3 | ",
    "20 0 0 17 0 4 1 3 | 4",
    "85 0 0 75 0 7 1 7 | 7",
    "56 0 0 61 0 0 0 4 | ",
    "17 0 8 0 0 0 0 0 | ",
    "22 0 0 0 0 0 0 0 | ",
    "15 0 0 0 0 4 1 0 | 4",
    "52 0 3 0 0 7 1 0 | 7",
    "40 0 0 0 0 0 0 0 | ",
    "31 0 0 10 0 0 0 1 | ",
    "28 0 0 4 0 0 0 3 | ",
    "20 0 0 17 0 4 1 3 | 4",
    "85 0 0 75 0 7 1 7 | 7",
    "56 0 0 61 0 0 0 4 | ",
    // class_c_program(self-loop pattern {(0,0), (0,1)})
    "139 0 0 0 0 68 3 0 | 6,0,36,0 3,0,15,4 0,0,0,4",
    "194 0 0 43 0 0 0 0 | ",
    "95 0 0 2 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "80 0 59 5 0 68 3 0 | 6,0,36,0 3,0,15,4 0,0,0,4",
    "194 0 0 43 0 0 0 0 | ",
    "95 0 0 2 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "80 0 59 5 0 68 3 0 | 6,0,36,0 3,0,15,4 0,0,0,4",
    "194 0 0 43 0 0 0 0 | ",
    "95 0 0 2 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    "163 0 0 97 0 68 3 12 | 6,0,36,0 3,0,15,4 0,0,0,4",
    "240 0 0 165 0 0 0 16 | ",
    "102 0 0 14 0 0 0 13 | ",
    "0 0 0 0 0 0 0 0 | ",
    "0 0 0 0 0 0 0 0 | ",
    // class_c_program(out_star(2))
    "199 0 0 0 8 97 4 0 | 54,0,0 20,8,0 1,10,0 0,4,0",
    "214 0 0 101 0 0 0 0 | ",
    "86 0 0 26 0 0 0 0 | ",
    "45 0 0 0 0 17 2 0 | 12,0,0 5,0,0",
    "69 0 0 0 17 29 2 0 | 23,0,0 6,0,0",
    "100 0 97 0 7 97 4 0 | 54,0,0 20,8,0 1,10,0 0,4,0",
    "214 0 0 101 0 0 0 0 | ",
    "86 0 0 26 0 0 0 0 | ",
    "31 0 14 0 0 17 2 0 | 12,0,0 5,0,0",
    "43 0 26 0 17 29 2 0 | 23,0,0 6,0,0",
    "100 0 97 0 7 97 4 0 | 54,0,0 20,8,0 1,10,0 0,4,0",
    "214 0 0 101 0 0 0 0 | ",
    "86 0 0 26 0 0 0 0 | ",
    "31 0 14 0 0 17 2 0 | 12,0,0 5,0,0",
    "43 0 26 0 17 29 2 0 | 23,0,0 6,0,0",
    "258 0 0 521 8 97 4 10 | 54,0,0 20,8,0 1,10,0 0,4,0",
    "305 0 0 640 0 0 0 11 | ",
    "104 0 0 117 0 0 0 7 | ",
    "51 0 0 14 0 17 2 6 | 12,0,0 5,0,0",
    "107 0 0 159 17 29 2 6 | 23,0,0 6,0,0",
];

/// `(deleted, overdeleted, rederived)` per batch of [`deletion_trace`],
/// one row per program of [`all_programs`] (seed `4_400 + index`).
const PINNED_DELETION_TRIPLES: [&[(u64, u64, u64)]; 12] = [
    &[(2, 7, 5), (11, 13, 2), (4, 5, 1), (1, 2, 1), (1, 2, 1)],
    &[
        (52, 240, 188),
        (27, 188, 161),
        (71, 161, 90),
        (0, 0, 0),
        (65, 140, 75),
    ],
    &[
        (252, 365, 113),
        (0, 0, 0),
        (44, 71, 27),
        (41, 69, 28),
        (43, 53, 10),
    ],
    &[
        (756, 1212, 456),
        (460, 637, 177),
        (173, 259, 86),
        (66, 66, 0),
        (0, 0, 0),
    ],
    &[(0, 0, 0), (0, 7, 7), (1, 1, 0), (0, 0, 0), (1, 7, 6)],
    &[(8, 9, 1), (1, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    &[(12, 20, 8), (4, 8, 4), (0, 0, 0), (1, 1, 0), (1, 1, 0)],
    &[
        (23, 119, 96),
        (76, 113, 37),
        (34, 53, 19),
        (9, 16, 7),
        (14, 14, 0),
    ],
    &[(2, 8, 6), (8, 12, 4), (2, 2, 0), (4, 5, 1), (1, 1, 0)],
    &[(6, 6, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    &[
        (68, 76, 8),
        (61, 202, 141),
        (0, 0, 0),
        (41, 67, 26),
        (42, 46, 4),
    ],
    &[
        (38, 79, 41),
        (16, 45, 29),
        (28, 38, 10),
        (42, 86, 44),
        (11, 11, 0),
    ],
];
