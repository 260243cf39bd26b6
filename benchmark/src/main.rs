//! The repository benchmark: three seeded workloads over the Datalog(≠)
//! engine, each driven through the entry point its users call, with the
//! outputs checked and every metric printed by name with its unit. The
//! last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fixpoint|churn|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload and prints the end-to-end metrics.
//! `--trace 1` is the separate traced run: it measures the workload once
//! untraced and once traced (the signed difference is the tracing
//! overhead), then runs every workload with spans and per-layer probes and
//! prints the per-layer metrics.

mod churn;
mod fixpoint;
mod serve;
mod stats;
mod trace;
mod util;

use stats::{median, signed_pct, Report};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Trace;
use util::RunConfig;

pub const WORKLOADS: [&str; 3] = ["fixpoint", "churn", "serve"];

/// Set-up repetitions per run, at least; their median is `setup_s`.
const SETUPS: usize = 5;

/// Set-up repeats past [`SETUPS`] until this much time is spent on it
/// (or [`MAX_SETUPS`] is reached), so a set-up of a few milliseconds
/// still gets a median over enough repetitions to repeat.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MAX_SETUPS: usize = 25;

/// Span names of the traced run, one per layer boundary.
const SPANS: [&str; 9] = [
    "fixpoint.round",
    "eval.textual",
    "eval.planned",
    "churn.batch",
    "query.apply_batch",
    "serve.request",
    "service.serve",
    "serve.write",
    "snapshot.publish",
];

/// Root spans whose coverage by child spans is reported, by workload.
const ROOTS: [(&str, &str); 3] = [
    ("fixpoint", "fixpoint.round"),
    ("churn", "churn.batch"),
    ("serve", "serve.request"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A workload after set-up.
enum Built {
    Fixpoint(fixpoint::Mix),
    Churn(churn::Churn),
    Serve(Box<serve::Serve>),
}

fn build(workload: &str, cfg: &RunConfig, tag: &str) -> Built {
    match workload {
        "fixpoint" => {
            let mix = fixpoint::build(cfg);
            fixpoint::warm_up(&mix);
            Built::Fixpoint(mix)
        }
        "churn" => Built::Churn(churn::build(cfg, tag)),
        _ => Built::Serve(Box::new(serve::build(cfg))),
    }
}

/// Sets the workload up at least `cfg.setups` times, keeping the last;
/// returns it with the median set-up seconds and the repetition count.
fn set_up(workload: &str, cfg: &RunConfig) -> (Built, f64, usize) {
    let mut times = Vec::new();
    let mut built = None;
    let began = Instant::now();
    for rep in 0..MAX_SETUPS.max(cfg.setups) {
        if rep >= cfg.setups.max(1) && (cfg.small || began.elapsed() >= SETUP_BUDGET) {
            break;
        }
        if let Some(Built::Churn(c)) = built.take() {
            c.remove();
        }
        let t0 = Instant::now();
        built = Some(build(workload, cfg, &format!("s{rep}")));
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        built.expect("at least one set-up"),
        median(&times),
        times.len(),
    )
}

/// Measures a built workload, with or without spans, and reports its
/// end-to-end metrics, then runs its output checks outside the timed
/// region.
fn measure_end_to_end(built: Built, cfg: &RunConfig, traced: bool, report: &mut Report) {
    let origin = Instant::now();
    let mut t = Trace::new(traced, origin);
    match built {
        Built::Fixpoint(mix) => {
            let out = fixpoint::measure(cfg, &mix, &mut t);
            fixpoint::end_to_end(&mix, &out, report);
            fixpoint::check(&mix, report);
        }
        Built::Churn(mut c) => {
            let out = churn::measure(cfg, &mut c, &mut t, false);
            churn::end_to_end(&out, report);
            churn::finish(c, report, false);
        }
        Built::Serve(mut s) => {
            let mut w = Trace::new(traced, origin);
            let out = serve::measure(&mut s, origin, (&mut t, &mut w), false);
            serve::end_to_end(&out, report);
            serve::check(&s, &out, report);
        }
    }
}

/// The timed run: set-up, measurement, memory and checks.
fn run_timed(workload: &str, cfg: &RunConfig, report: &mut Report) {
    let (built, setup_s, setups) = set_up(workload, cfg);
    measure_end_to_end(built, cfg, false, report);
    report.push_noted(
        "setup_s",
        setup_s,
        "s",
        format!("median of {setups} set-ups"),
    );
    // `churn` reads its memory after a fixed count of batches instead.
    if report.get("peak_rss_mb").is_none() {
        report.push("peak_rss_mb", util::peak_rss_mb(), "MiB");
    }
}

/// The traced run (see the crate docs).
fn run_traced(workload: &str, cfg: &RunConfig, report: &mut Report) {
    // Tracing overhead: the same workload untraced, then traced.
    let mut plain = Report::default();
    let built = build(workload, cfg, "plain");
    measure_end_to_end(built, cfg, false, &mut plain);
    let mut traced = Report::default();
    let built = build(workload, cfg, "traced");
    measure_end_to_end(built, cfg, true, &mut traced);
    for r in [&plain, &traced] {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.mismatches.extend(r.mismatches.iter().cloned());
    }

    // Every workload with spans and per-layer probes.
    let origin = Instant::now();
    let mut spans = Trace::new(true, origin);
    let mut layers = Report::default();
    let mix = fixpoint::build(cfg);
    fixpoint::warm_up(&mix);
    let out = fixpoint::measure(cfg, &mix, &mut spans);
    fixpoint::per_layer(&out, &mut layers);
    fixpoint::check(&mix, &mut layers);

    let mut c = churn::build(cfg, "probe");
    let out = churn::measure(cfg, &mut c, &mut spans, true);
    let recovery = churn::finish(c, &mut layers, true);
    churn::per_layer(&out, recovery.as_ref(), &mut layers);

    let mut s = serve::build(cfg);
    let mut writer = Trace::new(true, origin);
    let out = serve::measure(&mut s, origin, (&mut spans, &mut writer), true);
    serve::per_layer(&out, &mut layers);
    serve::check(&s, &out, &mut layers);
    spans.absorb(writer);

    let totals = trace::by_layer(spans.spans());
    for name in SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        layers.push(format!("trace.{name}.self_ms"), t.self_s * 1e3, "ms");
        layers.push(format!("trace.{name}.spans"), t.spans as f64, "count");
    }
    for (w, root) in ROOTS {
        layers.push_noted(
            format!("trace.{w}.coverage"),
            trace::coverage(spans.spans(), root),
            "ratio",
            format!("share of {root} time covered by its child spans"),
        );
    }
    for m in ["throughput_per_s", "p50_ms"] {
        let (a, b) = (plain.get(m).unwrap_or(0.0), traced.get(m).unwrap_or(0.0));
        let name = format!(
            "trace.overhead.{}_pct",
            m.trim_end_matches("_per_s").trim_end_matches("_ms")
        );
        layers.push_noted(
            name,
            signed_pct(a, b),
            "%",
            format!("{workload}: untraced {a} traced {b}, signed"),
        );
    }
    report.attempted += layers.attempted;
    report.failed += layers.failed;
    report.mismatches.extend(layers.mismatches);
    report.metrics = layers.metrics;
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The engine's worker count is a setting of the benchmark run: one
    // engine thread, so the benchmark's own threads stay within 2 cores.
    std::env::remove_var("RAYON_NUM_THREADS");
    std::env::set_var("KV_NUM_THREADS", "1");
    let engine_threads = kv_core::structures::par::thread_count();
    let root = std::env::current_dir().expect("current directory");
    let work_dir =
        root.join(".bench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let mut cfg = RunConfig {
        seed: args.seed,
        measure: Duration::from_secs(args.seconds),
        work_dir: work_dir.clone(),
        setups: SETUPS,
        small: false,
    };
    let mut report = Report::default();
    if args.trace {
        cfg.measure /= 2;
        run_traced(&args.workload, &cfg, &mut report);
    } else {
        run_timed(&args.workload, &cfg, &mut report);
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(root.join(".bench_work"));

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# kv-perfbench workload={} seed={} seconds={} trace={} revision={} host_cpus={host_cpus} \
         engine_threads={engine_threads} durability=checkpoint_every:8,fsync:false",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        util::source_revision(Path::new(&root)),
    );
    for l in &report.lines {
        println!("{l}");
    }
    for m in &report.metrics {
        println!("{:<44} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!("# attempted={} failed={}", report.attempted, report.failed);
    for m in &report.mismatches {
        println!("# MISMATCH {m}");
    }
    println!("{}", report.result_line());
    if !report.mismatches.is_empty() || engine_threads != 1 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> RunConfig {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!(".bench_work/test-{seed}-{}", std::process::id()));
        RunConfig {
            seed,
            measure: Duration::from_millis(400),
            work_dir: dir,
            setups: 1,
            small: true,
        }
    }

    /// Names declared in `BENCHMARK.json` under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = text.split(&format!("\"{key}\"")).nth(1).expect("section");
        let section = &section[..section.find(']').expect("list end")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name end")].to_string())
            .collect()
    }

    #[test]
    fn fixpoint_checks_pass_on_a_short_run() {
        let cfg = small(3);
        let mut report = Report::default();
        run_timed("fixpoint", &cfg, &mut report);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn churn_checks_pass_on_a_short_run() {
        let cfg = small(4);
        std::fs::create_dir_all(&cfg.work_dir).unwrap();
        let mut report = Report::default();
        run_timed("churn", &cfg, &mut report);
        let mut c = churn::build(&cfg, "probe");
        let mut t = Trace::new(true, Instant::now());
        let out = churn::measure(&cfg, &mut c, &mut t, true);
        let rec = churn::finish(c, &mut report, true);
        churn::per_layer(&out, rec.as_ref(), &mut report);
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.get("durable.replayed_batches"),
            Some(3.0 * churn::WAL_TAIL as f64)
        );
    }

    #[test]
    fn serve_checks_pass_and_starved_rejections_repeat() {
        let mut admitted = Vec::new();
        for _ in 0..2 {
            let cfg = small(5);
            let mut report = Report::default();
            let mut s = serve::build(&cfg);
            let origin = Instant::now();
            let (mut a, mut b) = (Trace::new(false, origin), Trace::new(false, origin));
            let out = serve::measure(&mut s, origin, (&mut a, &mut b), true);
            serve::check(&s, &out, &mut report);
            serve::per_layer(&out, &mut report);
            assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
            assert_eq!(report.failed, 0);
            assert!(report.get("serve.max_qps") > Some(0.0));
            admitted.push((
                report.get("qos.starved_admitted"),
                report.get("qos.credits_spent"),
            ));
        }
        assert_eq!(admitted[0], admitted[1]);
    }

    #[test]
    fn reported_names_match_benchmark_json() {
        let cfg = small(6);
        let mut e2e = Report::default();
        run_timed("fixpoint", &cfg, &mut e2e);
        let mut names: Vec<String> = e2e.metrics.iter().map(|m| m.name.clone()).collect();
        let mut want = declared("end_to_end");
        names.sort();
        want.sort();
        assert_eq!(names, want);

        std::fs::create_dir_all(&cfg.work_dir).unwrap();
        let mut layers = Report::default();
        run_traced("fixpoint", &cfg, &mut layers);
        let _ = std::fs::remove_dir_all(&cfg.work_dir);
        let mut names: Vec<String> = layers.metrics.iter().map(|m| m.name.clone()).collect();
        let mut want = declared("per_layer");
        assert!(want.len() <= 128);
        names.sort();
        want.sort();
        assert_eq!(names, want);
        for w in declared("workloads") {
            assert!(WORKLOADS.contains(&w.as_str()));
        }
    }
}
