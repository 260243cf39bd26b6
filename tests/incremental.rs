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
    avoiding_path, path_systems, q_kl, q_prime, transitive_closure, two_disjoint_paths_acyclic,
    two_disjoint_paths_paper_rules, two_pairs_vocabulary,
};
use datalog_expressiveness::datalog::{
    EvalOptions, Evaluator, Fact, IdbId, IncrementalEngine, JoinLowering, PlannerMode, Program,
};
use datalog_expressiveness::structures::generators::{random_dag, random_digraph};
use datalog_expressiveness::structures::{Element, SplitMix64, Structure, Vocabulary};
use std::collections::HashSet;
use std::sync::Arc;

/// One structure appropriate for each program's vocabulary (mirrors the
/// chaos suite's fixtures).
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
/// identical batches. Returns each batch's `(deleted, overdeleted,
/// rederived)` triple and the sorted live IDB after every batch.
#[allow(clippy::type_complexity)]
fn deletion_trace(
    program: &Program,
    opts: EvalOptions,
    seed: u64,
) -> (Vec<(u64, u64, u64)>, Vec<Vec<Vec<Element>>>) {
    let s = fixture_for(program, seed);
    let (mut engine, _) = IncrementalEngine::from_structure(program, &s, opts);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed);
    let mut triples = Vec::new();
    let mut idbs = Vec::new();
    for batch in 0..5u32 {
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
        let summary = engine.apply_batch(&inserts, &retracts);
        assert_matches_scratch(&engine, program, &format!("seed {seed} batch {batch}"));
        triples.push((
            summary.deleted_tuples,
            summary.overdeleted_tuples,
            summary.rederived_tuples,
        ));
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
    (triples, idbs)
}

#[test]
fn deletion_counters_are_pinned_for_every_lowering_and_worker_count() {
    // Deleted, overdeleted and rederived tuples are set quantities of the
    // DRed/counting semantics — which pre-state tuples lose every
    // derivation, which the overdeletion closure reaches, and which of
    // those survive — so they may not depend on join order, kernels, the
    // lowering, or the worker count. Each program's per-batch triples are
    // pinned to recorded values, and every configuration must reproduce
    // them and the same maintained IDB.
    for (pi, program) in all_programs().iter().enumerate() {
        let seed = 4_400 + pi as u64;
        let reference = deletion_trace(program, EvalOptions::default(), seed);
        assert_eq!(
            reference.0, PINNED_DELETION_TRIPLES[pi],
            "program {pi}: deletion triples moved"
        );
        for (oi, opts) in lowerings().into_iter().enumerate() {
            for w in [1usize, 4] {
                let got = deletion_trace(program, opts.with_shards(Some(w)), seed);
                assert_eq!(
                    got.0, reference.0,
                    "program {pi} lowering {oi} W={w}: deletion triples"
                );
                assert_eq!(
                    got.1, reference.1,
                    "program {pi} lowering {oi} W={w}: maintained IDB"
                );
            }
        }
    }
}

/// `(deleted, overdeleted, rederived)` per batch of [`deletion_trace`],
/// one row per program of [`all_programs`] (seed `4_400 + index`).
const PINNED_DELETION_TRIPLES: [&[(u64, u64, u64)]; 7] = [
    &[(2, 7, 5), (11, 11, 0), (4, 4, 0), (1, 1, 0), (1, 1, 0)],
    &[
        (52, 240, 188),
        (27, 155, 128),
        (71, 132, 61),
        (0, 0, 0),
        (65, 131, 66),
    ],
    &[
        (252, 359, 107),
        (0, 0, 0),
        (44, 63, 19),
        (41, 46, 5),
        (43, 48, 5),
    ],
    &[
        (756, 1143, 387),
        (460, 613, 153),
        (173, 173, 0),
        (66, 66, 0),
        (0, 0, 0),
    ],
    &[(0, 0, 0), (0, 4, 4), (1, 1, 0), (0, 0, 0), (1, 5, 4)],
    &[(8, 9, 1), (1, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    &[(12, 17, 5), (4, 4, 0), (0, 0, 0), (1, 1, 0), (1, 1, 0)],
];
