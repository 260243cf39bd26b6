//! Differential suite for the delta-first incremental engine.
//!
//! The contract under test: after **every** batch of EDB insertions and
//! retractions, the [`IncrementalEngine`]'s live IDB relations equal a
//! from-scratch fixpoint of the same program over the engine's own
//! materialized EDB — for every case of the shared corpus
//! (`support::corpus`, no filter: every program is maintained) over its
//! `SMALL` fixtures, under randomized mutation schedules, in every named
//! configuration (`support::configs`). The initial batch is additionally
//! held to Theorem 3.6 stage identity: its stage sequence is
//! tuple-for-tuple the from-scratch semi-naive stage sequence.

mod support;

use datalog_expressiveness::datalog::programs::transitive_closure;
use datalog_expressiveness::datalog::{
    BatchSummary, EvalOptions, Evaluator, Fact, IdbId, IncrementalEngine, PlannerMode, Program,
};
use datalog_expressiveness::structures::{
    Element, EvalStats, RelId, SplitMix64, Structure, Vocabulary,
};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use support::{configs, corpus, random_batch, Case, SMALL};

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
    for case in corpus() {
        let program = &case.program;
        for (oi, (config, opts)) in configs().into_iter().enumerate() {
            for schedule in 0..3u64 {
                let label = format!("{} {config} schedule {schedule}", case.name);
                let s = SMALL.draw(&case, case.seed(4_100 + schedule));
                let (mut engine, _) = IncrementalEngine::from_structure(program, &s, opts);
                assert_matches_scratch(&engine, program, &format!("{label} initial"));
                let mut rng =
                    SplitMix64::seed_from_u64(case.seed(0x1990_0000 + 100 * oi as u64 + schedule));
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
    for case in corpus() {
        let program = &case.program;
        for (config, opts) in configs() {
            let s = SMALL.draw(&case, case.seed(4_100));
            let (_, summary) = IncrementalEngine::from_structure(program, &s, opts);
            let scratch = Evaluator::new(program).run(&s, opts);
            let scratch_stages: Vec<Vec<usize>> = scratch
                .stats
                .iter()
                .map(|st| st.new_tuples.clone())
                .collect();
            assert_eq!(
                summary.stage_new, scratch_stages,
                "{} {config}: initial-batch stage identity",
                case.name
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
    for case in corpus() {
        let program = &case.program;
        for (config, opts) in configs() {
            for seed in [case.seed(4_100), case.seed(4_500)] {
                let s = SMALL.draw(&case, seed);
                let (_, initial) = IncrementalEngine::from_structure(program, &s, opts);
                let scratch = Evaluator::new(program).run(&s, opts);
                assert!(
                    probes(&initial.eval_stats) <= probes(&scratch.eval_stats),
                    "{} {config} seed {seed}: initial batch made {} probes, scratch {}",
                    case.name,
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
    for case in corpus() {
        let (program, name) = (&case.program, case.name);
        let s = SMALL.draw(&case, case.seed(4_200));
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
        assert_matches_scratch(&engine, program, &format!("{name} drained"));
        engine.apply_batch(&all, &[]);
        assert_matches_scratch(&engine, program, &format!("{name} refilled"));
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
    for case in corpus() {
        let program = &case.program;
        let s = SMALL.draw(&case, case.seed(4_300));
        let opts = EvalOptions::default();
        let (mut plain, _) = IncrementalEngine::from_structure(program, &s, opts);
        let (mut shuffled, _) = IncrementalEngine::from_structure(program, &s, opts);
        let mut rng = SplitMix64::seed_from_u64(case.seed(0x0de4));
        for batch in 0..3u32 {
            let (inserts, retracts) = random_batch(&plain, &mut rng);
            let mut inserts_perm = inserts.clone();
            let mut retracts_perm = retracts.clone();
            shuffle(&mut inserts_perm, &mut rng);
            shuffle(&mut retracts_perm, &mut rng);
            let a = plain.apply_batch(&inserts, &retracts);
            let b = shuffled.apply_batch(&inserts_perm, &retracts_perm);
            let label = format!("{} batch {batch}", case.name);
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
    case: &Case,
    opts: EvalOptions,
    seed: u64,
    batches: u32,
) -> (Vec<BatchSummary>, Vec<Vec<Vec<Element>>>) {
    let program = &case.program;
    let s = SMALL.draw(case, seed);
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
    case: &Case,
    opts: EvalOptions,
    seed: u64,
) -> (Vec<(u64, u64, u64)>, Vec<Vec<Vec<Element>>>, Vec<u64>) {
    let (summaries, idbs) = churn_trace(case, opts, seed, 5);
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
    support::check_pinned(PINNED_DELETION_TRIPLES, &corpus(), 4_400, |case, seed| {
        let reference = deletion_trace(case, EvalOptions::default(), seed);
        for (&(_, overdeleted, _), &recomputed) in reference.0.iter().zip(&reference.2) {
            full_dred += usize::from(overdeleted > 0 && recomputed == 0);
            guarded += usize::from(recomputed > 0);
        }
        if case.program.idb_name(case.program.goal()) == "D" {
            assert!(
                reference.2.iter().any(|&r| r > 0),
                "the fact-rule SCC must take the guard"
            );
        }
        for (config, opts) in configs() {
            for w in [1usize, 4] {
                let label = format!("{} {config} W={w}", case.name);
                let got = deletion_trace(case, opts.with_shards(w), seed);
                assert_eq!(got.0, reference.0, "{label}: deletion triples");
                assert_eq!(got.1, reference.1, "{label}: maintained IDB");
                assert_eq!(got.2, reference.2, "{label}: recompute guard");
            }
        }
        vec![(String::new(), reference.0)]
    });
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
    support::check_pinned(PINNED_MAINTENANCE, &corpus(), 4_500, |case, seed| {
        let mut rows = Vec::new();
        for (config, opts) in configs() {
            let (summaries, _) = churn_trace(case, opts, seed, 4);
            let batches = summaries.iter().enumerate();
            rows.extend(batches.map(|(b, s)| (format!("{config}/{b}"), maintenance_row(s))));
        }
        rows
    });
}

/// Recorded [`maintenance_row`]s, keyed `case/seed/configuration/batch`:
/// per corpus case, per seed, per configuration of [`configs`], the
/// initial batch (0) and four mixed batches.
#[rustfmt::skip]
const PINNED_MAINTENANCE: &[(&str, &str)] = &[
    ("transitive_closure/4500/textual/0", "24 0 0 0 7 20 3 0 | 9 8 3"),
    ("transitive_closure/4500/textual/1", "28 0 0 0 0 6 3 0 | 4 1 1"),
    ("transitive_closure/4500/textual/2", "21 0 0 0 0 0 0 0 | "),
    ("transitive_closure/4500/textual/3", "18 0 0 0 6 11 3 0 | 5 4 2"),
    ("transitive_closure/4500/textual/4", "21 0 0 0 1 4 1 0 | 4"),
    ("transitive_closure/4500/cost-auto/0", "18 0 6 0 7 20 3 0 | 9 8 3"),
    ("transitive_closure/4500/cost-auto/1", "26 0 2 0 0 6 3 0 | 4 1 1"),
    ("transitive_closure/4500/cost-auto/2", "21 0 0 0 0 0 0 0 | "),
    ("transitive_closure/4500/cost-auto/3", "13 0 5 0 6 11 3 0 | 5 4 2"),
    ("transitive_closure/4500/cost-auto/4", "19 0 2 0 1 4 1 0 | 4"),
    ("transitive_closure/4500/cost-binary/0", "18 0 6 0 7 20 3 0 | 9 8 3"),
    ("transitive_closure/4500/cost-binary/1", "26 0 2 0 0 6 3 0 | 4 1 1"),
    ("transitive_closure/4500/cost-binary/2", "21 0 0 0 0 0 0 0 | "),
    ("transitive_closure/4500/cost-binary/3", "13 0 5 0 6 11 3 0 | 5 4 2"),
    ("transitive_closure/4500/cost-binary/4", "19 0 2 0 1 4 1 0 | 4"),
    ("transitive_closure/4500/cost-generic/0", "42 0 0 24 7 20 3 3 | 9 8 3"),
    ("transitive_closure/4500/cost-generic/1", "43 0 0 49 0 6 3 7 | 4 1 1"),
    ("transitive_closure/4500/cost-generic/2", "23 0 0 2 0 0 0 4 | "),
    ("transitive_closure/4500/cost-generic/3", "33 0 0 22 6 11 3 4 | 5 4 2"),
    ("transitive_closure/4500/cost-generic/4", "37 0 0 73 1 4 1 5 | 4"),
    ("avoiding_path/4501/textual/0", "129 0 0 0 95 125 3 0 | 60 50 15"),
    ("avoiding_path/4501/textual/1", "53 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/textual/2", "32 0 0 0 0 5 1 0 | 5"),
    ("avoiding_path/4501/textual/3", "16 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/textual/4", "10 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-auto/0", "22 0 107 0 95 125 3 0 | 60 50 15"),
    ("avoiding_path/4501/cost-auto/1", "53 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-auto/2", "28 0 4 0 0 5 1 0 | 5"),
    ("avoiding_path/4501/cost-auto/3", "16 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-auto/4", "10 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-binary/0", "22 0 107 0 95 125 3 0 | 60 50 15"),
    ("avoiding_path/4501/cost-binary/1", "53 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-binary/2", "28 0 4 0 0 5 1 0 | 5"),
    ("avoiding_path/4501/cost-binary/3", "16 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-binary/4", "10 0 0 0 0 0 0 0 | "),
    ("avoiding_path/4501/cost-generic/0", "317 0 0 464 95 125 3 3 | 60 50 15"),
    ("avoiding_path/4501/cost-generic/1", "167 0 0 959 0 0 0 3 | "),
    ("avoiding_path/4501/cost-generic/2", "49 0 0 94 0 5 1 4 | 5"),
    ("avoiding_path/4501/cost-generic/3", "16 0 0 0 0 0 0 2 | "),
    ("avoiding_path/4501/cost-generic/4", "10 0 0 0 0 0 0 2 | "),
    ("q_prime/4502/textual/0", "748 0 0 0 283 296 6 0 | 75,0 64,30 33,40 7,31 1,14 0,1"),
    ("q_prime/4502/textual/1", "670 0 0 433 0 0 0 0 | "),
    ("q_prime/4502/textual/2", "576 0 0 341 0 0 0 0 | "),
    ("q_prime/4502/textual/3", "732 0 0 14 64 56 5 0 | 18,7 11,3 6,8 0,2 0,1"),
    ("q_prime/4502/textual/4", "573 0 0 188 26 46 4 0 | 20,2 9,1 8,3 0,3"),
    ("q_prime/4502/cost-auto/0", "311 0 370 0 183 296 6 0 | 75,0 64,30 33,40 7,31 1,14 0,1"),
    ("q_prime/4502/cost-auto/1", "670 0 0 433 0 0 0 0 | "),
    ("q_prime/4502/cost-auto/2", "576 0 0 341 0 0 0 0 | "),
    ("q_prime/4502/cost-auto/3", "646 0 75 30 45 56 5 0 | 18,7 11,3 6,8 0,2 0,1"),
    ("q_prime/4502/cost-auto/4", "516 0 81 188 24 46 4 0 | 20,2 9,1 8,3 0,3"),
    ("q_prime/4502/cost-binary/0", "311 0 370 0 183 296 6 0 | 75,0 64,30 33,40 7,31 1,14 0,1"),
    ("q_prime/4502/cost-binary/1", "670 0 0 433 0 0 0 0 | "),
    ("q_prime/4502/cost-binary/2", "576 0 0 341 0 0 0 0 | "),
    ("q_prime/4502/cost-binary/3", "646 0 75 30 45 56 5 0 | 18,7 11,3 6,8 0,2 0,1"),
    ("q_prime/4502/cost-binary/4", "516 0 81 188 24 46 4 0 | 20,2 9,1 8,3 0,3"),
    ("q_prime/4502/cost-generic/0", "1439 0 0 6971 283 296 6 18 | 75,0 64,30 33,40 7,31 1,14 0,1"),
    ("q_prime/4502/cost-generic/1", "1536 0 0 9390 0 0 0 18 | "),
    ("q_prime/4502/cost-generic/2", "1253 0 0 7058 0 0 0 19 | "),
    ("q_prime/4502/cost-generic/3", "1204 0 0 3456 64 56 5 33 | 18,7 11,3 6,8 0,2 0,1"),
    ("q_prime/4502/cost-generic/4", "997 0 0 3551 26 46 4 30 | 20,2 9,1 8,3 0,3"),
    ("q_kl(2,1)/4503/textual/0", "1513 0 0 0 295 772 6 0 | 250,0 167,64 121,72 44,41 1,11 0,1"),
    ("q_kl(2,1)/4503/textual/1", "1569 0 0 1045 13 81 4 0 | 40,6 16,3 9,2 4,1"),
    ("q_kl(2,1)/4503/textual/2", "1191 0 0 324 70 190 3 0 | 95,7 62,7 16,3"),
    ("q_kl(2,1)/4503/textual/3", "789 0 0 29 9 124 4 0 | 50,15 29,16 0,10 0,4"),
    ("q_kl(2,1)/4503/textual/4", "772 0 0 337 0 25 1 0 | 25,0"),
    ("q_kl(2,1)/4503/cost-auto/0", "382 0 1173 0 255 772 6 0 | 250,0 167,64 121,72 44,41 1,11 0,1"),
    ("q_kl(2,1)/4503/cost-auto/1", "1451 0 142 1045 13 81 4 0 | 40,6 16,3 9,2 4,1"),
    ("q_kl(2,1)/4503/cost-auto/2", "899 0 321 367 70 190 3 0 | 95,7 62,7 16,3"),
    ("q_kl(2,1)/4503/cost-auto/3", "618 0 194 91 9 124 4 0 | 50,15 29,16 0,10 0,4"),
    ("q_kl(2,1)/4503/cost-auto/4", "741 0 39 337 0 25 1 1 | 25,0"),
    ("q_kl(2,1)/4503/cost-binary/0", "382 0 1173 0 255 772 6 0 | 250,0 167,64 121,72 44,41 1,11 0,1"),
    ("q_kl(2,1)/4503/cost-binary/1", "1451 0 142 1045 13 81 4 0 | 40,6 16,3 9,2 4,1"),
    ("q_kl(2,1)/4503/cost-binary/2", "899 0 321 367 70 190 3 0 | 95,7 62,7 16,3"),
    ("q_kl(2,1)/4503/cost-binary/3", "618 0 194 91 9 124 4 0 | 50,15 29,16 0,10 0,4"),
    ("q_kl(2,1)/4503/cost-binary/4", "726 0 54 337 0 25 1 0 | 25,0"),
    ("q_kl(2,1)/4503/cost-generic/0", "2857 0 0 23606 295 772 6 18 | 250,0 167,64 121,72 44,41 1,11 0,1"),
    ("q_kl(2,1)/4503/cost-generic/1", "3369 0 0 30643 13 81 4 34 | 40,6 16,3 9,2 4,1"),
    ("q_kl(2,1)/4503/cost-generic/2", "2050 0 0 7650 70 190 3 23 | 95,7 62,7 16,3"),
    ("q_kl(2,1)/4503/cost-generic/3", "1160 0 0 5493 9 124 4 22 | 50,15 29,16 0,10 0,4"),
    ("q_kl(2,1)/4503/cost-generic/4", "1232 0 0 6930 0 25 1 16 | 25,0"),
    ("path_systems/4504/textual/0", "21 0 0 0 0 5 4 0 | 2 1 1 1"),
    ("path_systems/4504/textual/1", "29 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/textual/2", "14 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/textual/3", "14 0 0 0 0 0 0 0 | "),
    ("path_systems/4504/textual/4", "10 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-auto/0", "21 0 0 0 0 5 4 0 | 2 1 1 1"),
    ("path_systems/4504/cost-auto/1", "29 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-auto/2", "14 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-auto/3", "12 0 0 0 0 0 0 0 | "),
    ("path_systems/4504/cost-auto/4", "10 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-binary/0", "21 0 0 0 0 5 4 0 | 2 1 1 1"),
    ("path_systems/4504/cost-binary/1", "29 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-binary/2", "14 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-binary/3", "12 0 0 0 0 0 0 0 | "),
    ("path_systems/4504/cost-binary/4", "10 0 0 0 0 1 1 0 | 1"),
    ("path_systems/4504/cost-generic/0", "34 0 0 13 0 5 4 7 | 2 1 1 1"),
    ("path_systems/4504/cost-generic/1", "36 0 0 10 0 1 1 7 | 1"),
    ("path_systems/4504/cost-generic/2", "14 0 0 0 0 1 1 4 | 1"),
    ("path_systems/4504/cost-generic/3", "14 0 0 0 0 0 0 3 | "),
    ("path_systems/4504/cost-generic/4", "10 0 0 0 0 1 1 3 | 1"),
    ("two_disjoint_paths_acyclic/4505/textual/0", "65 0 0 0 3 11 3 0 | 2,2,0,0 1,0,4,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/textual/1", "120 0 0 0 0 4 3 0 | 1,0,0,0 0,0,2,0 0,0,0,1"),
    ("two_disjoint_paths_acyclic/4505/textual/2", "44 0 0 0 1 1 1 0 | 0,1,0,0"),
    ("two_disjoint_paths_acyclic/4505/textual/3", "60 0 0 0 1 3 2 0 | 1,0,0,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/textual/4", "40 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_acyclic/4505/cost-auto/0", "40 0 9 0 1 11 3 0 | 2,2,0,0 1,0,4,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/cost-auto/1", "112 0 0 0 0 4 3 0 | 1,0,0,0 0,0,2,0 0,0,0,1"),
    ("two_disjoint_paths_acyclic/4505/cost-auto/2", "43 0 0 0 0 1 1 0 | 0,1,0,0"),
    ("two_disjoint_paths_acyclic/4505/cost-auto/3", "58 0 0 0 0 3 2 1 | 1,0,0,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/cost-auto/4", "40 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_acyclic/4505/cost-binary/0", "40 0 9 0 1 11 3 0 | 2,2,0,0 1,0,4,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/cost-binary/1", "112 0 0 0 0 4 3 0 | 1,0,0,0 0,0,2,0 0,0,0,1"),
    ("two_disjoint_paths_acyclic/4505/cost-binary/2", "43 0 0 0 0 1 1 0 | 0,1,0,0"),
    ("two_disjoint_paths_acyclic/4505/cost-binary/3", "58 0 0 0 0 3 2 0 | 1,0,0,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/cost-binary/4", "40 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_acyclic/4505/cost-generic/0", "81 0 0 76 3 11 3 12 | 2,2,0,0 1,0,4,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/cost-generic/1", "157 0 0 89 0 4 3 35 | 1,0,0,0 0,0,2,0 0,0,0,1"),
    ("two_disjoint_paths_acyclic/4505/cost-generic/2", "94 0 0 90 1 1 1 15 | 0,1,0,0"),
    ("two_disjoint_paths_acyclic/4505/cost-generic/3", "60 0 0 11 1 3 2 19 | 1,0,0,0 0,0,2,0"),
    ("two_disjoint_paths_acyclic/4505/cost-generic/4", "54 0 0 22 0 0 0 16 | "),
    ("two_disjoint_paths_paper_rules/4506/textual/0", "15 0 0 0 4 9 3 0 | 1 4 4"),
    ("two_disjoint_paths_paper_rules/4506/textual/1", "20 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/textual/2", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/textual/3", "17 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/textual/4", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-auto/0", "12 0 3 0 4 9 3 0 | 1 4 4"),
    ("two_disjoint_paths_paper_rules/4506/cost-auto/1", "20 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-auto/2", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-auto/3", "17 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-auto/4", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-binary/0", "12 0 3 0 4 9 3 0 | 1 4 4"),
    ("two_disjoint_paths_paper_rules/4506/cost-binary/1", "20 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-binary/2", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-binary/3", "17 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-binary/4", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-generic/0", "27 0 0 30 4 9 3 6 | 1 4 4"),
    ("two_disjoint_paths_paper_rules/4506/cost-generic/1", "25 0 0 14 0 0 0 4 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-generic/2", "0 0 0 0 0 0 0 0 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-generic/3", "20 0 0 7 0 0 0 4 | "),
    ("two_disjoint_paths_paper_rules/4506/cost-generic/4", "0 0 0 0 0 0 0 0 | "),
    ("q_kl(1,1)/4507/textual/0", "162 0 0 0 184 158 3 0 | 60 72 26"),
    ("q_kl(1,1)/4507/textual/1", "106 0 0 0 4 12 1 0 | 12"),
    ("q_kl(1,1)/4507/textual/2", "133 0 0 0 25 26 2 0 | 19 7"),
    ("q_kl(1,1)/4507/textual/3", "114 0 0 0 0 0 0 0 | "),
    ("q_kl(1,1)/4507/textual/4", "54 0 0 0 12 34 3 0 | 14 12 8"),
    ("q_kl(1,1)/4507/cost-auto/0", "20 0 142 0 184 158 3 0 | 60 72 26"),
    ("q_kl(1,1)/4507/cost-auto/1", "95 0 11 0 4 12 1 0 | 12"),
    ("q_kl(1,1)/4507/cost-auto/2", "110 0 23 0 25 26 2 0 | 19 7"),
    ("q_kl(1,1)/4507/cost-auto/3", "114 0 0 0 0 0 0 0 | "),
    ("q_kl(1,1)/4507/cost-auto/4", "26 0 28 0 12 34 3 0 | 14 12 8"),
    ("q_kl(1,1)/4507/cost-binary/0", "20 0 142 0 184 158 3 0 | 60 72 26"),
    ("q_kl(1,1)/4507/cost-binary/1", "95 0 11 0 4 12 1 0 | 12"),
    ("q_kl(1,1)/4507/cost-binary/2", "110 0 23 0 25 26 2 0 | 19 7"),
    ("q_kl(1,1)/4507/cost-binary/3", "114 0 0 0 0 0 0 0 | "),
    ("q_kl(1,1)/4507/cost-binary/4", "26 0 28 0 12 34 3 0 | 14 12 8"),
    ("q_kl(1,1)/4507/cost-generic/0", "485 0 0 909 184 158 3 3 | 60 72 26"),
    ("q_kl(1,1)/4507/cost-generic/1", "362 0 0 1921 4 12 1 6 | 12"),
    ("q_kl(1,1)/4507/cost-generic/2", "319 0 0 758 25 26 2 7 | 19 7"),
    ("q_kl(1,1)/4507/cost-generic/3", "161 0 0 336 0 0 0 2 | "),
    ("q_kl(1,1)/4507/cost-generic/4", "145 0 0 403 12 34 3 6 | 14 12 8"),
    ("game(path_length_two)/4508/textual/0", "34 0 0 0 0 8 4 0 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/textual/1", "118 0 0 0 0 2 2 0 | 0,0,1,0,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/textual/2", "40 0 0 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/textual/3", "42 0 0 0 0 0 0 0 | "),
    ("game(path_length_two)/4508/textual/4", "68 0 0 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/cost-auto/0", "34 0 0 0 0 8 4 0 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/cost-auto/1", "118 0 0 0 0 2 2 0 | 0,0,1,0,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/cost-auto/2", "35 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/cost-auto/3", "40 0 0 0 0 0 0 0 | "),
    ("game(path_length_two)/4508/cost-auto/4", "60 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/cost-binary/0", "34 0 0 0 0 8 4 0 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/cost-binary/1", "118 0 0 0 0 2 2 0 | 0,0,1,0,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/cost-binary/2", "35 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/cost-binary/3", "40 0 0 0 0 0 0 0 | "),
    ("game(path_length_two)/4508/cost-binary/4", "60 0 2 0 0 3 2 0 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/cost-generic/0", "45 0 0 26 0 8 4 14 | 1,0,0,0,0 0,2,1,0,0 0,1,0,2,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/cost-generic/1", "125 0 0 25 0 2 2 40 | 0,0,1,0,0 0,0,0,1,0"),
    ("game(path_length_two)/4508/cost-generic/2", "50 0 0 18 0 3 2 19 | 0,1,0,0,0 0,0,0,2,0"),
    ("game(path_length_two)/4508/cost-generic/3", "43 0 0 0 0 0 0 24 | "),
    ("game(path_length_two)/4508/cost-generic/4", "81 0 0 28 0 3 2 31 | 0,1,0,0,0 0,0,0,2,0"),
    ("triangles/4509/textual/0", "25 0 0 0 0 0 0 0 | "),
    ("triangles/4509/textual/1", "28 0 0 4 0 0 0 3 | "),
    ("triangles/4509/textual/2", "15 0 0 0 0 4 1 0 | 4"),
    ("triangles/4509/textual/3", "68 0 0 20 0 7 1 4 | 7"),
    ("triangles/4509/textual/4", "56 0 0 61 0 0 0 4 | "),
    ("triangles/4509/cost-auto/0", "31 0 0 10 0 0 0 1 | "),
    ("triangles/4509/cost-auto/1", "28 0 0 4 0 0 0 3 | "),
    ("triangles/4509/cost-auto/2", "20 0 0 17 0 4 1 3 | 4"),
    ("triangles/4509/cost-auto/3", "85 0 0 75 0 7 1 7 | 7"),
    ("triangles/4509/cost-auto/4", "56 0 0 61 0 0 0 4 | "),
    ("triangles/4509/cost-binary/0", "17 0 8 0 0 0 0 0 | "),
    ("triangles/4509/cost-binary/1", "22 0 0 0 0 0 0 0 | "),
    ("triangles/4509/cost-binary/2", "15 0 0 0 0 4 1 0 | 4"),
    ("triangles/4509/cost-binary/3", "52 0 3 0 0 7 1 0 | 7"),
    ("triangles/4509/cost-binary/4", "40 0 0 0 0 0 0 0 | "),
    ("triangles/4509/cost-generic/0", "31 0 0 10 0 0 0 1 | "),
    ("triangles/4509/cost-generic/1", "28 0 0 4 0 0 0 3 | "),
    ("triangles/4509/cost-generic/2", "20 0 0 17 0 4 1 3 | 4"),
    ("triangles/4509/cost-generic/3", "85 0 0 75 0 7 1 7 | 7"),
    ("triangles/4509/cost-generic/4", "56 0 0 61 0 0 0 4 | "),
    ("class_c(self_loop)/4510/textual/0", "139 0 0 0 0 68 3 0 | 6,0,36,0 3,0,15,4 0,0,0,4"),
    ("class_c(self_loop)/4510/textual/1", "194 0 0 43 0 0 0 0 | "),
    ("class_c(self_loop)/4510/textual/2", "95 0 0 2 0 0 0 0 | "),
    ("class_c(self_loop)/4510/textual/3", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/textual/4", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-auto/0", "80 0 59 5 0 68 3 0 | 6,0,36,0 3,0,15,4 0,0,0,4"),
    ("class_c(self_loop)/4510/cost-auto/1", "194 0 0 43 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-auto/2", "95 0 0 2 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-auto/3", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-auto/4", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-binary/0", "80 0 59 5 0 68 3 0 | 6,0,36,0 3,0,15,4 0,0,0,4"),
    ("class_c(self_loop)/4510/cost-binary/1", "194 0 0 43 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-binary/2", "95 0 0 2 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-binary/3", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-binary/4", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-generic/0", "163 0 0 97 0 68 3 12 | 6,0,36,0 3,0,15,4 0,0,0,4"),
    ("class_c(self_loop)/4510/cost-generic/1", "240 0 0 165 0 0 0 16 | "),
    ("class_c(self_loop)/4510/cost-generic/2", "102 0 0 14 0 0 0 13 | "),
    ("class_c(self_loop)/4510/cost-generic/3", "0 0 0 0 0 0 0 0 | "),
    ("class_c(self_loop)/4510/cost-generic/4", "0 0 0 0 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/textual/0", "199 0 0 0 8 97 4 0 | 54,0,0 20,8,0 1,10,0 0,4,0"),
    ("class_c(out_star_2)/4511/textual/1", "214 0 0 101 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/textual/2", "86 0 0 26 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/textual/3", "45 0 0 0 0 17 2 0 | 12,0,0 5,0,0"),
    ("class_c(out_star_2)/4511/textual/4", "69 0 0 0 17 29 2 0 | 23,0,0 6,0,0"),
    ("class_c(out_star_2)/4511/cost-auto/0", "100 0 97 0 7 97 4 0 | 54,0,0 20,8,0 1,10,0 0,4,0"),
    ("class_c(out_star_2)/4511/cost-auto/1", "214 0 0 101 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/cost-auto/2", "86 0 0 26 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/cost-auto/3", "31 0 14 0 0 17 2 0 | 12,0,0 5,0,0"),
    ("class_c(out_star_2)/4511/cost-auto/4", "43 0 26 0 17 29 2 0 | 23,0,0 6,0,0"),
    ("class_c(out_star_2)/4511/cost-binary/0", "100 0 97 0 7 97 4 0 | 54,0,0 20,8,0 1,10,0 0,4,0"),
    ("class_c(out_star_2)/4511/cost-binary/1", "214 0 0 101 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/cost-binary/2", "86 0 0 26 0 0 0 0 | "),
    ("class_c(out_star_2)/4511/cost-binary/3", "31 0 14 0 0 17 2 0 | 12,0,0 5,0,0"),
    ("class_c(out_star_2)/4511/cost-binary/4", "43 0 26 0 17 29 2 0 | 23,0,0 6,0,0"),
    ("class_c(out_star_2)/4511/cost-generic/0", "258 0 0 521 8 97 4 10 | 54,0,0 20,8,0 1,10,0 0,4,0"),
    ("class_c(out_star_2)/4511/cost-generic/1", "305 0 0 640 0 0 0 11 | "),
    ("class_c(out_star_2)/4511/cost-generic/2", "104 0 0 117 0 0 0 7 | "),
    ("class_c(out_star_2)/4511/cost-generic/3", "51 0 0 14 0 17 2 6 | 12,0,0 5,0,0"),
    ("class_c(out_star_2)/4511/cost-generic/4", "107 0 0 159 17 29 2 6 | 23,0,0 6,0,0"),
    ("q_kl(2,2)/4500137/textual/0", "3182 0 0 0 1001 1891 5 0 | 768,0 556,198 130,160 7,69 0,3"),
    ("q_kl(2,2)/4500137/textual/1", "3670 0 0 3477 84 165 4 0 | 83,9 34,9 15,3 10,2"),
    ("q_kl(2,2)/4500137/textual/2", "1754 0 0 190 0 0 0 0 | "),
    ("q_kl(2,2)/4500137/textual/3", "2180 0 0 1691 186 286 3 0 | 155,4 99,14 9,5"),
    ("q_kl(2,2)/4500137/textual/4", "1284 0 0 579 90 199 3 0 | 118,0 54,0 27,0"),
    ("q_kl(2,2)/4500137/cost-auto/0", "480 0 2597 0 898 1891 5 0 | 768,0 556,198 130,160 7,69 0,3"),
    ("q_kl(2,2)/4500137/cost-auto/1", "3474 0 251 3477 77 165 4 0 | 83,9 34,9 15,3 10,2"),
    ("q_kl(2,2)/4500137/cost-auto/2", "1754 0 0 190 0 0 0 0 | "),
    ("q_kl(2,2)/4500137/cost-auto/3", "1746 0 506 1691 182 286 3 0 | 155,4 99,14 9,5"),
    ("q_kl(2,2)/4500137/cost-auto/4", "1011 0 273 579 90 199 3 0 | 118,0 54,0 27,0"),
    ("q_kl(2,2)/4500137/cost-binary/0", "480 0 2597 0 898 1891 5 0 | 768,0 556,198 130,160 7,69 0,3"),
    ("q_kl(2,2)/4500137/cost-binary/1", "3474 0 251 3477 77 165 4 0 | 83,9 34,9 15,3 10,2"),
    ("q_kl(2,2)/4500137/cost-binary/2", "1754 0 0 190 0 0 0 0 | "),
    ("q_kl(2,2)/4500137/cost-binary/3", "1746 0 506 1691 182 286 3 0 | 155,4 99,14 9,5"),
    ("q_kl(2,2)/4500137/cost-binary/4", "1011 0 273 579 90 199 3 0 | 118,0 54,0 27,0"),
    ("q_kl(2,2)/4500137/cost-generic/0", "7433 0 0 180726 1001 1891 5 14 | 768,0 556,198 130,160 7,69 0,3"),
    ("q_kl(2,2)/4500137/cost-generic/1", "9175 0 0 243846 84 165 4 33 | 83,9 34,9 15,3 10,2"),
    ("q_kl(2,2)/4500137/cost-generic/2", "3001 0 0 46971 0 0 0 18 | "),
    ("q_kl(2,2)/4500137/cost-generic/3", "4470 0 0 67007 186 286 3 25 | 155,4 99,14 9,5"),
    ("q_kl(2,2)/4500137/cost-generic/4", "2382 0 0 11422 90 199 3 19 | 118,0 54,0 27,0"),
    ("q_kl(3,1)/4500071/textual/0", "1546 0 0 0 388 958 4 0 | 512,0,0 364,36,0 8,32,0 0,6,0"),
    ("q_kl(3,1)/4500071/textual/1", "1490 0 0 1219 27 126 2 0 | 99,18,0 0,9,0"),
    ("q_kl(3,1)/4500071/textual/2", "892 0 0 0 236 397 3 0 | 200,27,6 118,32,6 0,0,8"),
    ("q_kl(3,1)/4500071/textual/3", "1848 0 0 646 155 310 2 0 | 192,9,0 91,18,0"),
    ("q_kl(3,1)/4500071/textual/4", "496 0 0 0 27 236 4 0 | 91,26,0 70,33,0 0,14,0 0,2,0"),
    ("q_kl(3,1)/4500071/cost-auto/0", "138 0 1392 0 372 958 4 0 | 512,0,0 364,36,0 8,32,0 0,6,0"),
    ("q_kl(3,1)/4500071/cost-auto/1", "1314 0 176 1326 27 126 2 0 | 99,18,0 0,9,0"),
    ("q_kl(3,1)/4500071/cost-auto/2", "196 0 718 148 236 397 3 0 | 200,27,6 118,32,6 0,0,8"),
    ("q_kl(3,1)/4500071/cost-auto/3", "1323 0 605 703 155 310 2 0 | 192,9,0 91,18,0"),
    ("q_kl(3,1)/4500071/cost-auto/4", "162 0 364 111 27 236 4 0 | 91,26,0 70,33,0 0,14,0 0,2,0"),
    ("q_kl(3,1)/4500071/cost-binary/0", "138 0 1392 0 372 958 4 0 | 512,0,0 364,36,0 8,32,0 0,6,0"),
    ("q_kl(3,1)/4500071/cost-binary/1", "1314 0 176 1326 27 126 2 0 | 99,18,0 0,9,0"),
    ("q_kl(3,1)/4500071/cost-binary/2", "196 0 718 148 236 397 3 0 | 200,27,6 118,32,6 0,0,8"),
    ("q_kl(3,1)/4500071/cost-binary/3", "1323 0 605 703 155 310 2 0 | 192,9,0 91,18,0"),
    ("q_kl(3,1)/4500071/cost-binary/4", "162 0 364 111 27 236 4 0 | 91,26,0 70,33,0 0,14,0 0,2,0"),
    ("q_kl(3,1)/4500071/cost-generic/0", "2694 0 0 28278 388 958 4 13 | 512,0,0 364,36,0 8,32,0 0,6,0"),
    ("q_kl(3,1)/4500071/cost-generic/1", "2744 0 0 24925 27 126 2 20 | 99,18,0 0,9,0"),
    ("q_kl(3,1)/4500071/cost-generic/2", "1771 0 0 16310 236 397 3 18 | 200,27,6 118,32,6 0,0,8"),
    ("q_kl(3,1)/4500071/cost-generic/3", "3340 0 0 26941 155 310 2 27 | 192,9,0 91,18,0"),
    ("q_kl(3,1)/4500071/cost-generic/4", "1095 0 0 16389 27 236 4 18 | 91,26,0 70,33,0 0,14,0 0,2,0"),
    ("game(path_length_three)/4500879/textual/0", "576 0 0 0 24 48 5 0 | 1,0,0,0,0,0,0,0,0 0,5,1,0,2,0,0,0,0 0,0,0,5,1,10,2,0,0 0,0,0,0,0,5,1,10,0 0,0,0,0,0,0,0,5,0"),
    ("game(path_length_three)/4500879/textual/1", "580 0 0 24 0 0 0 9 | "),
    ("game(path_length_three)/4500879/textual/2", "894 0 0 374 0 6 3 18 | 0,0,1,0,0,0,0,0,0 0,0,0,2,0,0,1,0,0 0,0,0,0,0,0,0,2,0"),
    ("game(path_length_three)/4500879/textual/3", "404 0 0 91 0 4 3 15 | 0,1,0,0,0,0,0,0,0 0,0,0,1,0,1,0,0,0 0,0,0,0,0,0,0,1,0"),
    ("game(path_length_three)/4500879/textual/4", "358 0 0 41 0 0 0 15 | "),
    ("game(path_length_three)/4500879/cost-auto/0", "336 0 102 282 9 48 5 9 | 1,0,0,0,0,0,0,0,0 0,5,1,0,2,0,0,0,0 0,0,0,5,1,10,2,0,0 0,0,0,0,0,5,1,10,0 0,0,0,0,0,0,0,5,0"),
    ("game(path_length_three)/4500879/cost-auto/1", "580 0 0 24 0 0 0 9 | "),
    ("game(path_length_three)/4500879/cost-auto/2", "908 0 6 450 0 6 3 33 | 0,0,1,0,0,0,0,0,0 0,0,0,2,0,0,1,0,0 0,0,0,0,0,0,0,2,0"),
    ("game(path_length_three)/4500879/cost-auto/3", "419 0 0 136 0 4 3 30 | 0,1,0,0,0,0,0,0,0 0,0,0,1,0,1,0,0,0 0,0,0,0,0,0,0,1,0"),
    ("game(path_length_three)/4500879/cost-auto/4", "358 0 0 41 0 0 0 15 | "),
    ("game(path_length_three)/4500879/cost-binary/0", "237 0 145 0 3 48 5 0 | 1,0,0,0,0,0,0,0,0 0,5,1,0,2,0,0,0,0 0,0,0,5,1,10,2,0,0 0,0,0,0,0,5,1,10,0 0,0,0,0,0,0,0,5,0"),
    ("game(path_length_three)/4500879/cost-binary/1", "580 0 0 0 0 0 0 0 | "),
    ("game(path_length_three)/4500879/cost-binary/2", "801 0 12 40 0 6 3 0 | 0,0,1,0,0,0,0,0,0 0,0,0,2,0,0,1,0,0 0,0,0,0,0,0,0,2,0"),
    ("game(path_length_three)/4500879/cost-binary/3", "379 0 0 0 0 4 3 0 | 0,1,0,0,0,0,0,0,0 0,0,0,1,0,1,0,0,0 0,0,0,0,0,0,0,1,0"),
    ("game(path_length_three)/4500879/cost-binary/4", "346 0 0 0 0 0 0 0 | "),
    ("game(path_length_three)/4500879/cost-generic/0", "730 0 0 1163 24 48 5 57 | 1,0,0,0,0,0,0,0,0 0,5,1,0,2,0,0,0,0 0,0,0,5,1,10,2,0,0 0,0,0,0,0,5,1,10,0 0,0,0,0,0,0,0,5,0"),
    ("game(path_length_three)/4500879/cost-generic/1", "758 0 0 648 0 0 0 112 | "),
    ("game(path_length_three)/4500879/cost-generic/2", "1323 0 0 1649 0 6 3 195 | 0,0,1,0,0,0,0,0,0 0,0,0,2,0,0,1,0,0 0,0,0,0,0,0,0,2,0"),
    ("game(path_length_three)/4500879/cost-generic/3", "556 0 0 360 0 4 3 178 | 0,1,0,0,0,0,0,0,0 0,0,0,1,0,1,0,0,0 0,0,0,0,0,0,0,1,0"),
    ("game(path_length_three)/4500879/cost-generic/4", "422 0 0 157 0 0 0 141 | "),
];

/// `(deleted, overdeleted, rederived)` per batch of [`deletion_trace`].
type Triples = &'static [(u64, u64, u64)];

/// Recorded [`Triples`], keyed `case/seed`.
#[rustfmt::skip]
const PINNED_DELETION_TRIPLES: &[(&str, Triples)] = &[
    ("transitive_closure/4400", &[(2, 7, 5), (11, 13, 2), (4, 5, 1), (1, 2, 1), (1, 2, 1)]),
    ("avoiding_path/4401", &[(52, 240, 188), (27, 188, 161), (71, 161, 90), (0, 0, 0), (65, 140, 75)]),
    ("q_prime/4402", &[(252, 365, 113), (0, 0, 0), (44, 71, 27), (41, 69, 28), (43, 53, 10)]),
    ("q_kl(2,1)/4403", &[(756, 1212, 456), (460, 637, 177), (173, 259, 86), (66, 66, 0), (0, 0, 0)]),
    ("path_systems/4404", &[(0, 0, 0), (0, 7, 7), (1, 1, 0), (0, 0, 0), (1, 7, 6)]),
    ("two_disjoint_paths_acyclic/4405", &[(8, 9, 1), (1, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    ("two_disjoint_paths_paper_rules/4406", &[(12, 20, 8), (4, 8, 4), (0, 0, 0), (1, 1, 0), (1, 1, 0)]),
    ("q_kl(1,1)/4407", &[(23, 119, 96), (76, 113, 37), (34, 53, 19), (9, 16, 7), (14, 14, 0)]),
    ("game(path_length_two)/4408", &[(2, 8, 6), (8, 12, 4), (2, 2, 0), (4, 5, 1), (1, 1, 0)]),
    ("triangles/4409", &[(6, 6, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    ("class_c(self_loop)/4410", &[(68, 76, 8), (61, 202, 141), (0, 0, 0), (41, 67, 26), (42, 46, 4)]),
    ("class_c(out_star_2)/4411", &[(38, 79, 41), (16, 45, 29), (28, 38, 10), (42, 86, 44), (11, 11, 0)]),
    ("q_kl(2,2)/4400137", &[(1223, 2155, 932), (540, 995, 455), (199, 226, 27), (0, 0, 0), (146, 173, 27)]),
    ("q_kl(3,1)/4400071", &[(1249, 1838, 589), (0, 0, 0), (172, 300, 128), (707, 1008, 301), (126, 126, 0)]),
    ("game(path_length_three)/4400879", &[(2, 2, 0), (3, 6, 3), (4, 5, 1), (0, 0, 0), (1, 1, 0)]),
];
