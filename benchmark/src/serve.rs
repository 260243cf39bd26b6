//! `serve`: an open loop against an in-process `QueryService`. One
//! generator thread issues requests on a fixed schedule at two arrival
//! rates and times every request from when it was due, then issues an
//! overload phase back to back to measure the service's capacity, and
//! repeats the three phases in a few passes over the run; one writer
//! thread commits small batches at a fixed rate. The EDB is a
//! tenant component graph with two edge relations, `E` and `F`, each read
//! by its own registered query; the writer mutates only `E`.

use crate::stats::{
    chunked_rate, quantile, ratio, stretch_quantile, Report, Summary, RATE_CHUNKS, TAIL_Q,
};
use crate::trace::Trace;
use crate::util::{component_edges, ms, pair, EdgeSet, RunConfig};
use kv_core::datalog::{parse_program, EvalOptions, Fact, IncrementalEngine, Program};
use kv_core::structures::{Element, Governor, RelId, SplitMix64, Structure, Vocabulary};
use kv_core::ProgramQuery;
use kv_service::{
    QueryService, RejectReason, Request, Response, ServiceBuilder, TenantId, TenantPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Arrival rates of the two open-loop rungs, `low` and `high`, in
/// requests per second. Both are well below the service's capacity.
const RUNGS: [f64; 2] = [150.0, 300.0];
const LOW: usize = 0;
const HIGH: usize = 1;
/// The plan after the rungs: every request of the overload phase is due
/// at its start, so the backlog never empties and the rate at which the
/// service answers is its capacity.
const OVERLOAD: usize = 2;
/// Share of the run's time each phase gets (low, high, overload): at
/// 30 s, enough at `high` for 10 stretches with 10 samples beyond their
/// p90 each, and most of the rest to measure the capacity over.
const SHARE: [f64; 3] = [0.2, 0.4, 0.4];
/// Passes through the three phases per run. Each phase is spread over
/// the run, so every phase sees the host's slower and faster stretches.
const PASSES: usize = 5;
/// Requests the overload phase plans per second of its share: about the
/// service's capacity on a 2-vCPU virtual machine. A fixed count keeps
/// the run's memory and its accounting independent of the service's speed.
const OVERLOAD_PLANNED: f64 = 900.0;
/// The overload phase stops issuing after this many times its share of
/// the run, so a much slower service still ends in time.
const OVERLOAD_GUARD: f64 = 4.0;
/// A rung whose generator falls this far behind stops issuing; the
/// requests it did not issue count as missed.
const ABANDON_LAG: Duration = Duration::from_millis(500);
/// Latency recorded for a failed, refused or unissued request.
const MISSED_MS: f64 = 1e6;
/// Writer batches per second.
const WRITER_HZ: f64 = 2.0;
/// Shared cache entries: more than the popular pools, fewer than the
/// distinct keys the scan tenant asks for within one epoch at `high`.
const CACHE_CAPACITY: usize = 64;
const POPULAR: usize = 8;
const POOL: usize = 2;
const STARVED_CREDITS: u64 = 400;
/// Traffic shares of the popular and scan tenants (the rest is starved).
const POPULAR_SHARE: f64 = 0.25;
const SCAN_SHARE: f64 = 0.70;
/// Miss tuples re-evaluated on the final snapshot in the traced run.
const MAGIC_SAMPLE: usize = 48;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Popular,
    Scan,
    Starved,
}

/// One planned request with its tenant class and the query's index.
type Planned = (Class, usize, Request);

/// The service under test and everything needed to drive and check it.
pub struct Serve {
    svc: QueryService,
    programs: [Program; 2],
    initial: Structure,
    model: EdgeSet,
    /// Segments in issue order: each a phase (rung or overload) with its
    /// requests.
    plans: Vec<(usize, Vec<Planned>)>,
    overload_guard: Duration,
    starved: TenantId,
    rng: SplitMix64,
}

fn tc_program(vocab: &Arc<Vocabulary>, rel: &str) -> Program {
    let src = format!("S(x, y) :- {rel}(x, y).\nS(x, y) :- {rel}(x, z), S(z, y).\n?- S.");
    parse_program(&src, vocab.clone()).expect("static program parses")
}

/// Set-up: the two-relation EDB, the service with its queries and
/// tenants, every phase's request plan, and a warm-up request per query.
pub fn build(cfg: &RunConfig) -> Serve {
    let (blocks, k) = if cfg.small { (8, 8) } else { (192, 12) };
    let mut vocab = Vocabulary::new();
    let e = vocab.add_relation("E", 2);
    let f = vocab.add_relation("F", 2);
    let vocab = Arc::new(vocab);
    let mut rng = cfg.rng(0x5e);
    let e_edges = component_edges(blocks, k, k * (k - 1) / 4, &mut rng);
    let f_edges = component_edges(blocks, k, k * (k - 1) / 4, &mut rng);
    let mut initial = Structure::new(vocab.clone(), blocks * k);
    for &(u, v) in &e_edges {
        initial.insert(e, &[u, v]);
    }
    for &(u, v) in &f_edges {
        initial.insert(f, &[u, v]);
    }
    let programs = [tc_program(&vocab, "E"), tc_program(&vocab, "F")];
    let mut builder = ServiceBuilder::new(&initial).cache_capacity(CACHE_CAPACITY);
    let queries = [
        builder.register_query(
            "tcE",
            ProgramQuery::at_tuple("tcE", programs[0].clone(), vec![0, 1]),
        ),
        builder.register_query(
            "tcF",
            ProgramQuery::at_tuple("tcF", programs[1].clone(), vec![0, 1]),
        ),
    ];
    let popular: Vec<TenantId> = (0..POPULAR)
        .map(|i| builder.register_tenant(TenantPolicy::unlimited(format!("popular-{i}"))))
        .collect();
    let scan = builder.register_tenant(TenantPolicy::unlimited("scan"));
    let starved =
        builder.register_tenant(TenantPolicy::unlimited("starved").with_credits(STARVED_CREDITS));
    let svc = builder.build();

    // Popular tenants replay small pools inside their own block, half on
    // each relation; the scan tenant draws uniform pairs over every block
    // but the last; the starved tenant asks distinct `F` pairs inside the
    // last block, so its requests always miss the cache and cost the same
    // on every run.
    let kk = k as u32;
    let pools: Vec<Vec<(usize, Vec<Element>)>> = (0..POPULAR)
        .map(|i| {
            let base = (i % (blocks - 1)) as u32 * kk;
            (0..POOL)
                .map(|j| {
                    (
                        j % 2,
                        vec![base + rng.gen_range(0..kk), base + rng.gen_range(0..kk)],
                    )
                })
                .collect()
        })
        .collect();
    let last = (blocks - 1) as u32 * kk;
    let mut starved_tuples = Vec::new();
    for u in 0..kk {
        for v in 0..kk {
            starved_tuples.push(vec![last + u, last + v]);
        }
    }
    for i in (1..starved_tuples.len()).rev() {
        starved_tuples.swap(i, rng.gen_range(0..i + 1));
    }
    let scan_nodes = last;
    let mut next_starved = 0usize;
    // The overload phase leaves the starved tenant out: its credits are
    // spent by then, and it measures the rate of answered requests.
    let phases: Vec<(usize, f64, f64)> = RUNGS
        .iter()
        .chain(&[OVERLOAD_PLANNED])
        .zip(SHARE)
        .enumerate()
        .map(|(phase, (&rate, share))| (phase, rate, share))
        .collect();
    let plans = (0..PASSES)
        .flat_map(|_| phases.iter().copied())
        .map(|(phase, rate, share)| {
            let count = (rate * share * cfg.measure.as_secs_f64() / PASSES as f64).round() as usize;
            let classes = if phase == OVERLOAD {
                POPULAR_SHARE + SCAN_SHARE
            } else {
                1.0
            };
            let requests = (0..count)
                .map(|_| {
                    let x = rng.next_f64() * classes;
                    let (class, tenant, q, tuple) = if x < POPULAR_SHARE {
                        let t = rng.gen_range(0..POPULAR);
                        let (q, tuple) = pools[t][rng.gen_range(0..POOL)].clone();
                        (Class::Popular, popular[t], q, tuple)
                    } else if x < POPULAR_SHARE + SCAN_SHARE {
                        let q = rng.gen_range(0..2usize);
                        let tuple =
                            vec![rng.gen_range(0..scan_nodes), rng.gen_range(0..scan_nodes)];
                        (Class::Scan, scan, q, tuple)
                    } else {
                        let tuple = starved_tuples[next_starved % starved_tuples.len()].clone();
                        next_starved += 1;
                        (Class::Starved, starved, 1, tuple)
                    };
                    (
                        class,
                        q,
                        Request {
                            tenant,
                            query: queries[q],
                            tuple,
                        },
                    )
                })
                .collect();
            (phase, requests)
        })
        .collect();
    for q in queries {
        let _ = svc.serve(&Request {
            tenant: scan,
            query: q,
            tuple: vec![0, 1],
        });
    }
    Serve {
        svc,
        programs,
        initial,
        model: EdgeSet::new(&e_edges, &[], blocks - 1, k),
        plans,
        overload_guard: cfg
            .measure
            .mul_f64(SHARE[OVERLOAD] * OVERLOAD_GUARD / PASSES as f64),
        starved,
        rng: cfg.rng(0x5f),
    }
}

/// One issued request as the generator saw it.
#[derive(Clone, Debug)]
struct Sample {
    class: Class,
    rung: usize,
    queue_ms: f64,
    call_us: f64,
    latency_ms: f64,
    query: usize,
    tuple: Vec<Element>,
    response: Response,
}

/// One committed writer batch.
struct Write {
    inserts: Vec<Fact>,
    retracts: Vec<Fact>,
    epoch: u64,
    at: f64,
    latency_ms: f64,
    publish_ms: f64,
    invalidated: Option<i64>,
}

#[derive(Default, Clone)]
struct RungCache {
    evictions: u64,
    entries: u64,
    /// Seconds since the run's start at which each of the phase's
    /// segments began and ended.
    windows: Vec<(f64, f64)>,
    unissued: usize,
}

pub struct Outcome {
    samples: Vec<Sample>,
    writes: Vec<Write>,
    rungs: Vec<RungCache>,
    /// Per overload request: 1 if answered, and the seconds since the
    /// previous request completed.
    overload: Vec<(f64, f64)>,
    starved_metrics: (u64, u64),
    live_tuples: usize,
    magic: Option<Magic>,
}

struct Magic {
    eval_us: Vec<f64>,
    probes: f64,
    tuples: f64,
    share_of_full: f64,
}

/// Spins until `due`: the generator keeps its core, so no request is
/// late by a sleeping thread's wake-up delay.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The measured rungs and overload phase. With `probe` set (traced runs
/// only), the writer reads the cache size around every batch and miss
/// tuples are re-evaluated on the final snapshot through the demand path.
pub fn measure(
    serve: &mut Serve,
    origin: Instant,
    traces: (&mut Trace, &mut Trace),
    probe: bool,
) -> Outcome {
    let stop = AtomicBool::new(false);
    let (gen_trace, writer_trace) = traces;
    let svc = &serve.svc;
    let plans = &serve.plans;
    let model = &mut serve.model;
    let rng = &mut serve.rng;
    let e = RelId(0);
    let guard = serve.overload_guard;
    let (samples, rungs, overload, writes) = std::thread::scope(|scope| {
        let stop = &stop;
        let writer = scope.spawn(move || {
            let mut writes = Vec::new();
            let start = Instant::now();
            let mut i = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let due = start + Duration::from_secs_f64(i as f64 / WRITER_HZ);
                while Instant::now() < due && !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(
                        Duration::from_millis(1).min(due.saturating_duration_since(Instant::now())),
                    );
                }
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let (ins, ret) = model.draw_batch(rng, 2, 2, 0.0);
                let inserts: Vec<Fact> = ins.iter().map(|x| (e, pair(*x))).collect();
                let retracts: Vec<Fact> = ret.iter().map(|x| (e, pair(*x))).collect();
                let before = probe.then(|| svc.metrics().cache.entries as i64);
                let t0 = Instant::now();
                let outcome = svc.apply_batch(&inserts, &retracts);
                let t1 = Instant::now();
                let invalidated = before.map(|b| b - svc.metrics().cache.entries as i64);
                let child = writer_trace.record("snapshot.publish", i, t0, t1, None);
                let root = writer_trace.record("serve.write", i, due, t1, None);
                writer_trace.adopt(root, &[child]);
                writes.push(Write {
                    inserts,
                    retracts,
                    epoch: outcome.epoch,
                    at: t0.saturating_duration_since(origin).as_secs_f64(),
                    latency_ms: ms(due, t1),
                    publish_ms: ms(t0, t1),
                    invalidated,
                });
                i += 1;
            }
            writes
        });
        let mut samples = Vec::new();
        let mut rungs = vec![RungCache::default(); OVERLOAD + 1];
        let mut overload = Vec::new();
        for (seg, (r, plan)) in plans.iter().enumerate() {
            let r = *r;
            let rate = RUNGS.get(r).copied();
            let m0 = svc.metrics().cache;
            let start = Instant::now() + Duration::from_millis(2);
            let mut unissued = 0;
            let mut last = start;
            for (j, (class, q, req)) in plan.iter().enumerate() {
                let due = match rate {
                    Some(rate) => start + Duration::from_secs_f64(j as f64 / rate),
                    None => start,
                };
                wait_until(due);
                let t0 = Instant::now();
                let late = match rate {
                    Some(_) => t0 - due > ABANDON_LAG,
                    None => t0 - start > guard,
                };
                if late {
                    unissued = plan.len() - j;
                    break;
                }
                let response = svc.serve(req);
                let t1 = Instant::now();
                let id = (seg as u64) << 32 | j as u64;
                // An overload request's interval is the one its capacity
                // counts: from the previous request's completion.
                let from = if rate.is_some() { due } else { last };
                let child = gen_trace.record("service.serve", id, t0, t1, None);
                let root = gen_trace.record("serve.request", id, from, t1, None);
                gen_trace.adopt(root, &[child]);
                if rate.is_none() {
                    let answered = matches!(response, Response::Answer { .. });
                    overload.push((f64::from(u8::from(answered)), (t1 - last).as_secs_f64()));
                }
                last = t1;
                samples.push(Sample {
                    class: *class,
                    rung: r,
                    queue_ms: ms(due, t0),
                    call_us: ms(t0, t1) * 1e3,
                    latency_ms: ms(due, t1),
                    query: *q,
                    tuple: req.tuple.clone(),
                    response,
                });
            }
            let m1 = svc.metrics().cache;
            let phase = &mut rungs[r];
            phase.evictions += m1.evictions - m0.evictions;
            phase.entries = m1.entries;
            phase.unissued += unissued;
            phase.windows.push((
                start.saturating_duration_since(origin).as_secs_f64(),
                Instant::now()
                    .saturating_duration_since(origin)
                    .as_secs_f64(),
            ));
        }
        stop.store(true, Ordering::SeqCst);
        let writes = writer.join().expect("writer thread panicked");
        (samples, rungs, overload, writes)
    });
    let m = serve.svc.metrics();
    let st = &m.tenants[serve.starved.0 as usize];
    let magic = probe.then(|| magic_probe(serve, &samples));
    Outcome {
        samples,
        writes,
        rungs,
        overload,
        starved_metrics: (st.requests - st.rejected, st.credits_spent),
        live_tuples: serve.svc.snapshot().live_tuples(),
        magic,
    }
}

/// Re-evaluates a seeded sample of miss tuples on the final snapshot:
/// the service's read path (`try_eval_at_uncached`) timed, and the demand
/// path's counters from an `at_tuple` query against a full saturation.
fn magic_probe(serve: &mut Serve, samples: &[Sample]) -> Magic {
    let snapshot = serve.svc.snapshot();
    let edb = snapshot.edb();
    let misses: Vec<&Sample> = samples
        .iter()
        .filter(|s| matches!(s.response, Response::Answer { cached: false, .. }))
        .collect();
    let readers: Vec<ProgramQuery> = serve
        .programs
        .iter()
        .map(|p| ProgramQuery::at_tuple("magic", p.clone(), vec![0, 1]))
        .collect();
    let full: Vec<u64> = readers
        .iter()
        .map(|q| q.eval_full_with_stats(edb).1.tuples_interned)
        .collect();
    let gov = Governor::unlimited();
    let (mut eval_us, mut probes, mut tuples, mut full_tuples) = (Vec::new(), 0u64, 0u64, 0u64);
    for _ in 0..MAGIC_SAMPLE.min(misses.len()) {
        let s = misses[serve.rng.gen_range(0..misses.len())];
        let t0 = Instant::now();
        let _ = readers[s.query].try_eval_at_uncached(edb, &s.tuple, &gov);
        eval_us.push(ms(t0, Instant::now()) * 1e3);
        let at = ProgramQuery::at_tuple("magic", serve.programs[s.query].clone(), s.tuple.clone());
        if let Some((_, st)) = at.eval_demand_with_stats(edb) {
            probes += st.join_probes + st.magic_probes;
            tuples += st.tuples_interned;
            full_tuples += full[s.query];
        }
    }
    let n = eval_us.len().max(1) as f64;
    Magic {
        eval_us,
        probes: probes as f64 / n,
        tuples: tuples as f64 / n,
        share_of_full: ratio(tuples as f64, full_tuples as f64),
    }
}

/// Whether a response is a failure: anything but an answer, except the
/// starved tenant's out-of-credits rejections.
fn failed(s: &Sample) -> bool {
    match &s.response {
        Response::Answer { .. } => false,
        Response::Rejected(RejectReason::OutOfCredits) => s.class != Class::Starved,
        _ => true,
    }
}

/// Latencies of a rung's non-starved requests; failed and unissued
/// requests count as missing the limit.
fn rung_latencies(out: &Outcome, r: usize) -> Vec<f64> {
    let mut v: Vec<f64> = out
        .samples
        .iter()
        .filter(|s| s.rung == r && s.class != Class::Starved)
        .map(|s| if failed(s) { MISSED_MS } else { s.latency_ms })
        .collect();
    v.extend(std::iter::repeat_n(MISSED_MS, out.rungs[r].unissued));
    v
}

/// The service's capacity: answered requests per second of the overload
/// phase, at the slower quartile of groups of its requests (see
/// [`chunked_rate`]).
fn capacity(out: &Outcome) -> f64 {
    chunked_rate(&out.overload, RATE_CHUNKS)
}

/// Requests attempted (issued or not) and failed.
fn account(out: &Outcome, report: &mut Report) {
    report.attempted +=
        out.samples.len() as u64 + out.rungs.iter().map(|r| r.unissued as u64).sum::<u64>();
    report.failed += out.samples.iter().filter(|s| failed(s)).count() as u64;
}

pub fn end_to_end(out: &Outcome, report: &mut Report) {
    account(out, report);
    for (r, rate) in RUNGS.iter().enumerate() {
        let s = Summary::at(&rung_latencies(out, r), 0.99);
        report.lines.push(format!(
            "# rung {r}: {rate} req/s latency {} unissued={}",
            s.describe(),
            out.rungs[r].unissued
        ));
    }
    let answered: f64 = out.overload.iter().map(|x| x.0).sum();
    let secs: f64 = out.overload.iter().map(|x| x.1).sum();
    report.lines.push(format!(
        "# overload: {answered} answered in {secs:.3} s, unissued={}",
        out.rungs[OVERLOAD].unissued
    ));
    report.push_noted(
        "throughput_per_s",
        capacity(out),
        "1/s",
        format!("max_qps: answered requests per second of the overload phase, slower quartile of {RATE_CHUNKS} groups"),
    );
    let high = rung_latencies(out, HIGH);
    let s = Summary::at(&high, 0.9);
    let (p50, stretches) = stretch_quantile(&high, 0.5);
    report.push_noted(
        "p50_ms",
        p50,
        "ms",
        format!(
            "high rung {} req/s, slower quartile of the medians of {stretches} stretches; whole run {}",
            RUNGS[HIGH],
            s.describe()
        ),
    );
    let (tail, stretches) = stretch_quantile(&high, TAIL_Q);
    report.push_noted(
        "tail_ms",
        tail,
        "ms",
        format!(
            "high rung {} req/s, slower quartile of the p90s of {stretches} stretches; whole run {}",
            RUNGS[HIGH],
            s.describe()
        ),
    );
}

pub fn per_layer(out: &Outcome, report: &mut Report) {
    account(out, report);
    for (r, name) in [(LOW, "low"), (HIGH, "high")] {
        let s = Summary::at(&rung_latencies(out, r), 0.99);
        report.push_noted(format!("serve.{name}.p50_ms"), s.median, "ms", s.describe());
        report.push_noted(format!("serve.{name}.p99_ms"), s.tail, "ms", s.describe());
    }
    report.push("serve.max_qps", capacity(out), "1/s");
    let writes: Vec<f64> = out.writes.iter().map(|w| w.latency_ms).collect();
    let mut sorted = writes.clone();
    sorted.sort_by(f64::total_cmp);
    report.push_noted(
        "serve.write_p50_ms",
        quantile(&sorted, 0.5),
        "ms",
        format!("n={}", sorted.len()),
    );
    report.push_noted(
        "serve.write_p90_ms",
        quantile(&sorted, 0.9),
        "ms",
        format!("n={}", sorted.len()),
    );
    for (r, name) in [(LOW, "low"), (HIGH, "high")] {
        let rung: Vec<&Sample> = out.samples.iter().filter(|s| s.rung == r).collect();
        let pick = |f: &dyn Fn(&Sample) -> Option<f64>| -> Vec<f64> {
            rung.iter().filter_map(|s| f(s)).collect()
        };
        let queue = Summary::at(
            &pick(&|s| (s.class != Class::Starved).then_some(s.queue_ms)),
            0.99,
        );
        let hit = Summary::at(
            &pick(&|s| {
                matches!(s.response, Response::Answer { cached: true, .. }).then_some(s.call_us)
            }),
            0.99,
        );
        let miss = Summary::at(
            &pick(&|s| {
                matches!(s.response, Response::Answer { cached: false, .. }).then_some(s.call_us)
            }),
            0.99,
        );
        let reject = Summary::of(&pick(&|s| {
            matches!(s.response, Response::Rejected(_)).then_some(s.call_us)
        }));
        let k = |f: &str| format!("service.{name}.{f}");
        report.push_noted(k("queue_ms.p50"), queue.median, "ms", queue.describe());
        report.push_noted(k("queue_ms.p99"), queue.tail, "ms", queue.describe());
        report.push_noted(k("hit_us.p50"), hit.median, "us", hit.describe());
        report.push_noted(k("hit_us.p99"), hit.tail, "us", hit.describe());
        report.push_noted(k("miss_us.p50"), miss.median, "us", miss.describe());
        report.push_noted(k("miss_us.p99"), miss.tail, "us", miss.describe());
        report.push_noted(k("reject_us"), reject.median, "us", reject.describe());
        let lag = rung.iter().map(|s| s.queue_ms).fold(0.0, f64::max);
        report.push(k("generator_lag_ms"), lag, "ms");
        let answered = |pop: bool| {
            let a: Vec<&&Sample> = rung
                .iter()
                .filter(|s| {
                    (!pop || s.class == Class::Popular)
                        && matches!(s.response, Response::Answer { .. })
                })
                .collect();
            let hits = a
                .iter()
                .filter(|s| matches!(s.response, Response::Answer { cached: true, .. }))
                .count();
            ratio(hits as f64, a.len() as f64)
        };
        let c = |f: &str| format!("cache.{name}.{f}");
        report.push(c("hit_rate"), answered(false), "ratio");
        report.push(c("popular_hit_rate"), answered(true), "ratio");
        report.push(c("evictions"), out.rungs[r].evictions as f64, "count");
        report.push(c("entries"), out.rungs[r].entries as f64, "count");
        let inv: Vec<f64> = out
            .writes
            .iter()
            .filter(|w| {
                out.rungs[r]
                    .windows
                    .iter()
                    .any(|&(from, to)| w.at >= from && w.at < to)
            })
            .filter_map(|w| w.invalidated.map(|v| v as f64))
            .collect();
        report.push_noted(
            c("invalidated_per_batch"),
            ratio(inv.iter().sum(), inv.len() as f64),
            "count",
            format!("n={}", inv.len()),
        );
    }
    let starved: Vec<&Sample> = out
        .samples
        .iter()
        .filter(|s| s.class == Class::Starved)
        .collect();
    let rejected = starved
        .iter()
        .filter(|s| matches!(s.response, Response::Rejected(RejectReason::OutOfCredits)))
        .count();
    report.push("qos.rejected", rejected as f64, "count");
    report.push(
        "qos.starved_admitted",
        out.starved_metrics.0 as f64,
        "count",
    );
    report.push("qos.credits_spent", out.starved_metrics.1 as f64, "count");
    let publish: Vec<f64> = out.writes.iter().map(|w| w.publish_ms).collect();
    let mut sorted = publish;
    sorted.sort_by(f64::total_cmp);
    report.push_noted(
        "snapshot.publish_ms.p50",
        quantile(&sorted, 0.5),
        "ms",
        format!("n={}", sorted.len()),
    );
    report.push_noted(
        "snapshot.publish_ms.p90",
        quantile(&sorted, 0.9),
        "ms",
        format!("n={}", sorted.len()),
    );
    report.push("snapshot.live_tuples", out.live_tuples as f64, "count");
    let m = out.magic.as_ref();
    let s = Summary::at(m.map_or(&[][..], |m| &m.eval_us), 0.99);
    report.push_noted("magic.eval_us.p50", s.median, "us", s.describe());
    report.push_noted("magic.eval_us.p99", s.tail, "us", s.describe());
    report.push("magic.probes", m.map_or(0.0, |m| m.probes), "count");
    report.push(
        "magic.tuples_interned",
        m.map_or(0.0, |m| m.tuples),
        "count",
    );
    report.push(
        "magic.share_of_full",
        m.map_or(0.0, |m| m.share_of_full),
        "ratio",
    );
}

/// Output checks: every answer equals the ground truth at its epoch,
/// found by replaying the writer's batches on an `IncrementalEngine` per
/// query, and the starved tenant was never admitted beyond its credits.
pub fn check(serve: &Serve, out: &Outcome, report: &mut Report) {
    let mut engines: Vec<IncrementalEngine> = serve
        .programs
        .iter()
        .map(|p| IncrementalEngine::from_structure(p, &serve.initial, EvalOptions::default()).0)
        .collect();
    let mut answers: Vec<(u64, &Sample, bool)> = out
        .samples
        .iter()
        .filter_map(|s| match s.response {
            Response::Answer { holds, epoch, .. } => Some((epoch, s, holds)),
            _ => None,
        })
        .collect();
    answers.sort_by_key(|a| a.0);
    let mut epoch = 0u64;
    let mut writes = out.writes.iter();
    let mut wrong = 0usize;
    for (at, s, holds) in answers {
        while epoch < at {
            match writes.next() {
                Some(w) if w.epoch == epoch + 1 => {
                    for e in &mut engines {
                        e.apply_batch(&w.inserts, &w.retracts);
                    }
                    epoch += 1;
                }
                _ => {
                    report.mismatch(format!(
                        "serve: answer at epoch {at} has no committed batch"
                    ));
                    return;
                }
            }
        }
        if engines[s.query].goal_contains(&s.tuple) != holds {
            wrong += 1;
        }
    }
    if wrong > 0 {
        report.failed += wrong as u64;
        report.mismatch(format!(
            "serve: {wrong} answers differ from the ground truth at their epoch"
        ));
    }
    if out.starved_metrics.0 > STARVED_CREDITS {
        report.mismatch(format!(
            "serve: starved tenant admitted {} requests on {STARVED_CREDITS} credits",
            out.starved_metrics.0
        ));
    }
}
