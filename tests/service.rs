//! Snapshot-isolation property suite for the multi-tenant query service.
//!
//! The contract under test: while a writer applies randomized
//! insert/retract batches, every concurrently served answer equals
//! membership in the **from-scratch fixpoint of the exact epoch the
//! answer reports** — never a torn, mid-batch, or mixed-epoch state. The
//! suite replays the writer's committed batch sequence after the fact to
//! reconstruct the ground-truth fixpoint at every epoch and checks every
//! recorded answer against it.
//!
//! A second, single-threaded test serves a fixed seeded request trace and
//! pins the cache and admission counters it produces.

use datalog_expressiveness::datalog::programs::transitive_closure;
use datalog_expressiveness::datalog::{EvalOptions, Evaluator, Fact};
use datalog_expressiveness::service::{Request, Response, ServiceBuilder, TenantId, TenantPolicy};
use datalog_expressiveness::structures::generators::random_digraph;
use datalog_expressiveness::structures::{
    Digraph, Element, RelId, SplitMix64, Structure, Vocabulary,
};
use datalog_expressiveness::ProgramQuery;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const N: u32 = 10; // universe size
const BATCHES: usize = 24;
const READERS: usize = 4;

fn edge() -> RelId {
    RelId(0)
}

/// A random batch over the edge relation: a few inserts and a few
/// retracts, all in-universe; retracts may miss (multiset no-op).
fn random_batch(rng: &mut SplitMix64) -> (Vec<Fact>, Vec<Fact>) {
    let pick = |rng: &mut SplitMix64| loop {
        let u = rng.gen_range(0..N);
        let v = rng.gen_range(0..N);
        if u != v {
            return vec![u, v];
        }
    };
    let inserts: Vec<Fact> = (0..rng.gen_range(1u32..4))
        .map(|_| (edge(), pick(rng)))
        .collect();
    let retracts: Vec<Fact> = (0..rng.gen_range(0u32..3))
        .map(|_| (edge(), pick(rng)))
        .collect();
    (inserts, retracts)
}

/// Ground truth: folds the committed batch sequence over the initial EDB
/// (retracts first, saturating multiset, exactly the writer's semantics)
/// and returns the transitive-closure fixpoint at every epoch
/// `0..=batches.len()`.
fn fixpoints_per_epoch(
    initial: &Structure,
    batches: &[(Vec<Fact>, Vec<Fact>)],
) -> Vec<HashSet<Vec<Element>>> {
    let vocab = Arc::new(Vocabulary::graph());
    let mut support: HashMap<Vec<Element>, u32> = HashMap::new();
    for t in initial.relation(edge()).iter() {
        *support.entry(t.to_vec()).or_insert(0) += 1;
    }
    let program = transitive_closure();
    let ev = Evaluator::new(&program);
    let fixpoint = |support: &HashMap<Vec<Element>, u32>| {
        let mut s = Structure::new(Arc::clone(&vocab), N as usize);
        for (t, &count) in support {
            if count > 0 {
                s.insert(edge(), t);
            }
        }
        ev.run(&s, EvalOptions::default()).idb[0]
            .iter()
            .map(|t| t.to_vec())
            .collect::<HashSet<_>>()
    };
    let mut truth = vec![fixpoint(&support)];
    for (inserts, retracts) in batches {
        for (_, t) in retracts {
            if let Some(c) = support.get_mut(t) {
                *c = c.saturating_sub(1);
            }
        }
        for (_, t) in inserts {
            *support.entry(t.clone()).or_insert(0) += 1;
        }
        truth.push(fixpoint(&support));
    }
    truth
}

#[test]
fn concurrent_readers_observe_only_committed_fixpoints() {
    let initial = random_digraph(N as usize, 0.2, 0x5e71).to_structure();
    let mut builder = ServiceBuilder::new(&initial).cache_capacity(64);
    let q = builder.register_query(
        "tc",
        ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 1]),
    );
    let tenants: Vec<TenantId> = (0..READERS)
        .map(|i| builder.register_tenant(TenantPolicy::unlimited(format!("reader-{i}"))))
        .collect();
    let svc = Arc::new(builder.build());
    // A second compiled copy of the query, for evaluating *held*
    // snapshots directly (outside the serve path).
    let direct = Arc::new(ProgramQuery::at_tuple(
        "tc",
        transitive_closure(),
        vec![0, 1],
    ));

    let done = AtomicBool::new(false);
    let mut committed: Vec<(Vec<Fact>, Vec<Fact>)> = Vec::new();
    // (tuple, holds, epoch) as observed by each reader, via the full
    // serve path (admission → snapshot → shared cache → evaluation).
    let mut observed: Vec<Vec<(Vec<Element>, bool, u64)>> = Vec::new();

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for (i, &tenant) in tenants.iter().enumerate() {
            let svc = Arc::clone(&svc);
            let direct = Arc::clone(&direct);
            let done = &done;
            readers.push(scope.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(0xbeef + i as u64);
                let mut seen: Vec<(Vec<Element>, bool, u64)> = Vec::new();
                let mut last_epoch = 0u64;
                while !done.load(Ordering::SeqCst) || seen.len() < 50 {
                    // A deliberately small tuple pool makes repeats (and
                    // thus shared-cache hits) common under contention.
                    let u = rng.gen_range(0..4);
                    let v = rng.gen_range(0..N);
                    match svc.serve(&Request {
                        tenant,
                        query: q,
                        tuple: vec![u, v],
                    }) {
                        Response::Answer {
                            holds,
                            epoch,
                            cached: _,
                        } => {
                            assert!(
                                epoch >= last_epoch,
                                "reader {i}: epoch went backwards ({last_epoch} -> {epoch})"
                            );
                            last_epoch = epoch;
                            seen.push((vec![u, v], holds, epoch));
                        }
                        other => panic!("reader {i}: unexpected response {other:?}"),
                    }
                    // Additionally pin the *held snapshot* contract: an
                    // acquired snapshot stays a committed fixpoint even
                    // while the writer keeps publishing newer epochs.
                    if seen.len().is_multiple_of(16) {
                        let snap = svc.snapshot();
                        let tuple = vec![rng.gen_range(0..N), rng.gen_range(0..N)];
                        std::thread::yield_now();
                        let gov = datalog_expressiveness::structures::Governor::unlimited();
                        let holds = direct
                            .try_eval_at_uncached(snap.edb(), &tuple, &gov)
                            .unwrap();
                        seen.push((tuple, holds, snap.epoch()));
                    }
                }
                seen
            }));
        }

        // The writer: randomized batches, committed while every reader
        // hammers the serve path.
        let mut rng = SplitMix64::seed_from_u64(0x317e);
        for _ in 0..BATCHES {
            let (inserts, retracts) = random_batch(&mut rng);
            let outcome = svc.apply_batch(&inserts, &retracts);
            committed.push((inserts, retracts));
            assert_eq!(outcome.epoch, committed.len() as u64);
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
        for r in readers {
            observed.push(r.join().expect("reader thread panicked"));
        }
    });

    // Replay: every observed answer must equal membership in the
    // fixpoint of exactly the epoch it reported.
    let truth = fixpoints_per_epoch(&initial, &committed);
    let mut checked = 0usize;
    for (i, seen) in observed.iter().enumerate() {
        for (tuple, holds, epoch) in seen {
            let expect = truth[*epoch as usize].contains(tuple);
            assert_eq!(
                *holds, expect,
                "reader {i}: answer for {tuple:?} at epoch {epoch} is not that epoch's fixpoint"
            );
            checked += 1;
        }
    }
    assert!(checked >= READERS * 50, "too few observations: {checked}");

    // The repeat-heavy tuple pool must have produced shared-cache hits,
    // and nobody was ever rejected or interrupted.
    let m = svc.metrics();
    assert_eq!(m.rejected, 0);
    assert_eq!(m.interrupted, 0);
    assert!(m.cache_hits > 0, "no cache hits under repeat traffic");
    assert_eq!(m.batches, BATCHES as u64);
}

#[test]
fn racing_first_misses_on_one_snapshot_agree_with_ground_truth() {
    // Four readers hit a fresh snapshot at the same instant, so their
    // first misses race to build the snapshot's shared indexes; every
    // answer must still be the epoch-0 fixpoint.
    const NODES: u32 = 40;
    let initial = random_digraph(NODES as usize, 0.06, 0x4ace).to_structure();
    let mut builder = ServiceBuilder::new(&initial);
    let q = builder.register_query(
        "tc",
        ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 1]),
    );
    let tenants: Vec<TenantId> = (0..READERS)
        .map(|i| builder.register_tenant(TenantPolicy::unlimited(format!("racer-{i}"))))
        .collect();
    let svc = builder.build();
    let truth: HashSet<Vec<Element>> = Evaluator::new(&transitive_closure())
        .run(&initial, EvalOptions::default())
        .idb[0]
        .iter()
        .map(|t| t.to_vec())
        .collect();
    let start = std::sync::Barrier::new(READERS);
    let checked: usize = std::thread::scope(|scope| {
        let racers: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, &tenant)| {
                let (svc, start, truth) = (&svc, &start, &truth);
                scope.spawn(move || {
                    start.wait();
                    // Each racer asks its own sources, so every request
                    // is a miss.
                    let mut checked = 0usize;
                    for u in (i as u32..NODES).step_by(READERS).take(3) {
                        for v in 0..NODES {
                            let tuple = vec![u, v];
                            let response = svc.serve(&Request {
                                tenant,
                                query: q,
                                tuple: tuple.clone(),
                            });
                            let expect = Response::Answer {
                                holds: truth.contains(&tuple),
                                epoch: 0,
                                cached: false,
                            };
                            assert_eq!(response, expect, "racer {i}: answer for {tuple:?}");
                            checked += 1;
                        }
                    }
                    checked
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer panicked"))
            .sum()
    });
    assert_eq!(checked, READERS * 3 * NODES as usize);
    assert!(truth.len() > NODES as usize, "the fixture has long paths");
    let snapshot = svc.snapshot();
    assert!(
        (0..2).any(|pos| snapshot.edb_indexes().built(edge(), pos).is_some()),
        "the misses built the snapshot's indexes"
    );
}

/// A disjoint union of `blocks` random `k`-node digraphs (edge probability
/// `p` within a block, none across): one block per tenant, so a batch on
/// one block leaves every other block's closure alone.
fn component_graph(blocks: usize, k: usize, p: f64, seed: u64) -> Structure {
    let mut g = Digraph::new(blocks * k);
    let mut rng = SplitMix64::seed_from_u64(seed);
    for b in 0..blocks {
        for u in 0..k {
            for v in 0..k {
                if u != v && rng.gen_bool(p) {
                    g.add_edge((b * k + u) as u32, (b * k + v) as u32);
                }
            }
        }
    }
    g.to_structure()
}

#[test]
fn seeded_request_trace_keeps_the_cache_and_admission_invariants() {
    // `transitive_closure` over 8 random 8-node blocks. Each round, every
    // popular tenant replays the next query of its fixed pool inside its
    // own block, a scan tenant draws a uniform pair (cache-hostile), and a
    // starved tenant with 10 credits draws one too. A writer commits a
    // retract/reinsert pair of 3 edges before every fifth round until its
    // 8 pairs run out; each commit empties the cache.
    const BLOCKS: usize = 8;
    const BLOCK_SIZE: usize = 8;
    const SEED: u64 = 7;
    const POPULAR: usize = 4;
    const POOL: usize = 6;
    const ROUNDS: usize = 150;
    const CREDITS: u64 = 10;
    const CHURN_PAIRS: usize = 8;
    let initial = component_graph(BLOCKS, BLOCK_SIZE, 0.3, SEED);
    let mut builder = ServiceBuilder::new(&initial).cache_capacity(512);
    let q = builder.register_query(
        "tc",
        ProgramQuery::at_tuple("tc", transitive_closure(), vec![0, 1]),
    );
    let popular: Vec<TenantId> = (0..POPULAR)
        .map(|i| builder.register_tenant(TenantPolicy::unlimited(format!("popular-{i}"))))
        .collect();
    let scan = builder.register_tenant(TenantPolicy::unlimited("scan"));
    let starved = builder.register_tenant(TenantPolicy::unlimited("starved").with_credits(CREDITS));
    let svc = builder.build();
    let pools: Vec<Vec<Vec<Element>>> = (0..POPULAR)
        .map(|i| {
            let mut rng = SplitMix64::seed_from_u64(SEED ^ (0x9e37 + i as u64));
            let base = (i * BLOCK_SIZE) as u32;
            (0..POOL)
                .map(|_| {
                    let u = base + rng.gen_range(0..BLOCK_SIZE as u32);
                    let v = base + rng.gen_range(0..BLOCK_SIZE as u32);
                    vec![u, v]
                })
                .collect()
        })
        .collect();
    let churn: Vec<Fact> = initial
        .relation(edge())
        .iter()
        .take(3)
        .map(|t| (edge(), t.to_vec()))
        .collect();
    let n = (BLOCKS * BLOCK_SIZE) as u32;
    let mut scan_rng = SplitMix64::seed_from_u64(SEED ^ 0x5ca9);
    let mut starved_rng = SplitMix64::seed_from_u64(SEED ^ 0xdead);
    for round in 0..ROUNDS {
        if round % 5 == 0 && round / 5 < CHURN_PAIRS {
            svc.apply_batch(&[], &churn);
            svc.apply_batch(&churn, &[]);
        }
        let mut requests: Vec<(TenantId, Vec<Element>)> = popular
            .iter()
            .zip(&pools)
            .map(|(&tenant, pool)| (tenant, pool[round % POOL].clone()))
            .collect();
        requests.push((
            scan,
            vec![scan_rng.gen_range(0..n), scan_rng.gen_range(0..n)],
        ));
        requests.push((
            starved,
            vec![starved_rng.gen_range(0..n), starved_rng.gen_range(0..n)],
        ));
        for (tenant, tuple) in requests {
            let response = svc.serve(&Request {
                tenant,
                query: q,
                tuple,
            });
            assert!(
                !matches!(response, Response::Interrupted(_)),
                "round {round}: {response:?} under unlimited budgets"
            );
        }
    }

    let m = svc.metrics();
    let (hits, misses) = m.tenants[..POPULAR]
        .iter()
        .fold((0, 0), |(h, x), t| (h + t.cache_hits, x + t.cache_misses));
    let starved_row = &m.tenants[starved.0 as usize];
    let starved_admitted = starved_row.requests - starved_row.rejected;
    // The four invariants: repeat-query traffic mostly hits the cache, the
    // starved tenant is admitted at most once per credit and is turned
    // away at least once, and no admitted request is interrupted.
    assert!(
        hits as f64 / (hits + misses) as f64 > 0.5,
        "popular hit rate {hits}/{}",
        hits + misses
    );
    assert!(starved_admitted <= CREDITS, "{starved_row:?}");
    assert!(starved_row.rejected > 0, "{starved_row:?}");
    assert_eq!(m.interrupted, 0);
    // The trace is deterministic, so its counts are exact.
    assert_eq!((hits, misses), (441, 159), "popular hits, misses");
    assert_eq!(
        (m.cache_hits, m.cache_misses, m.rejected),
        (445, 306, 149),
        "service hits, misses, rejections"
    );
    assert_eq!(starved_admitted, 1);
    assert_eq!(m.batches, 2 * CHURN_PAIRS as u64);
}
