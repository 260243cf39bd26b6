//! Prints every experiment table (markdown) — the source of
//! EXPERIMENTS.md's measured columns — and writes the machine-readable
//! counter reports `BENCH_pebble.json` and `BENCH_datalog.json` to the
//! current directory.
//!
//! `harness --smoke` skips the tables and instead runs the differential
//! cross-checks ([`kv_bench::report::smoke_check`]): magic-set answers
//! must match full saturation without extra derivations, the cost-based
//! planner must be stage-identical to textual evaluation with no extra
//! probes, the generic lowering must be stage-identical to the binary
//! one, the sharded evaluator (W ∈ {1, 4}) must be stage-identical to the
//! unsharded run, the incremental engine must hold exactly the
//! from-scratch fixpoint after every churn batch, a durable engine
//! re-opened from disk after the same batches must match the volatile
//! engine tuple-for-tuple (recovered ≡ clean), and the lazy pebble solver
//! must agree with the eager one. It also compares the freshly measured
//! engine counters against the committed `BENCH_datalog.json`
//! ([`kv_bench::report::regression_check`]) and fails on any >10%
//! regression. Exits nonzero on any violation (the CI bench-smoke gate).

fn main() {
    let start = std::time::Instant::now();
    if std::env::args().any(|a| a == "--smoke") {
        let mut violations = kv_bench::report::smoke_check();
        let datalog = kv_bench::report::datalog_report();
        // Gate against the committed report *before* overwriting it.
        match std::fs::read_to_string("BENCH_datalog.json") {
            Ok(committed) => {
                violations.extend(kv_bench::report::regression_check(&committed, &datalog))
            }
            Err(e) => println!("no committed BENCH_datalog.json ({e}); skipping regression gate"),
        }
        for (path, report) in [
            ("BENCH_pebble.json", kv_bench::report::pebble_report()),
            ("BENCH_datalog.json", datalog),
        ] {
            match std::fs::write(path, &report) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
        if violations.is_empty() {
            println!("bench smoke: demand and planned paths agree with baselines ✓");
            println!("total harness time: {:.2?}", start.elapsed());
            return;
        }
        for v in &violations {
            eprintln!("bench smoke violation: {v}");
        }
        std::process::exit(1);
    }
    println!("# Experiment harness — Kolaitis & Vardi (PODS 1990) reproduction\n");
    assert!(
        kv_bench::experiments::smoke_validate_play(),
        "play smoke test"
    );
    for table in kv_bench::all_experiments() {
        print!("{}", table.to_markdown());
    }
    for (path, report) in [
        ("BENCH_pebble.json", kv_bench::report::pebble_report()),
        ("BENCH_datalog.json", kv_bench::report::datalog_report()),
    ] {
        match std::fs::write(path, &report) {
            Ok(()) => println!("\n_wrote {path}_"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    println!("\n_total harness time: {:.2?}_", start.elapsed());
}
