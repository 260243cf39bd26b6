//! Kill-and-restart chaos for the durable storage layer, on the shared
//! corpus (`support::corpus`, its `SMALL` fixtures and every
//! `support::configs` entry).
//!
//! Only the run that dies is a child process: this test binary itself,
//! re-run through [`std::env::current_exe`] on the ignored
//! [`crashing_run`] test, with its parameters in `KV_RECOVERY_*`
//! environment variables. The child drives [`support::batch_stream`]
//! into a [`DurableEngine`] with a seeded [`CrashPoint`] armed, so the
//! process `abort()`s *inside* the commit protocol (mid-WAL-record,
//! between WAL and apply, after apply, mid-checkpoint write, on either
//! side of the manifest swap). The parent then recovers the directory
//! in-process and asserts:
//!
//! 1. **Recovered ≡ clean**: the recovered state (epoch, live EDB tuples
//!    with support counts, IDB sets) equals a fresh in-memory engine
//!    replaying the same batch prefix.
//! 2. **Epoch discipline**: a batch whose WAL record tore never
//!    happened; a batch whose record landed always happened — there is
//!    no third state.
//! 3. **Carry on**: the recovered engine accepts the remaining batches,
//!    and the directory, recovered once more, equals the clean replay of
//!    the full stream.
//!
//! The matrix deals the kill points over the (case, config) pairs rather
//! than taking their full product; it checks that every case meets every
//! config and every kill point, and every config every kill point. A
//! second test kills a child of every case from the *outside*
//! ([`std::process::Child::kill`], SIGKILL on Unix) at a wall-clock
//! moment, covering kills that land anywhere, not just at protocol
//! seams. The in-process recovery times are written to
//! `target/recovery-times.json` for the CI artifact.
//!
//! Seeded via `KV_CHAOS_SEED` (CI runs a small matrix of seeds).

mod support;

use datalog_expressiveness::datalog::{EvalOptions, IdbId, RecoveryError};
use datalog_expressiveness::structures::Structure;
use datalog_expressiveness::{
    CrashPoint, DurabilityOptions, DurableEngine, Fact, IncrementalEngine,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use support::{batch_stream, configs, corpus, Case, SMALL};

/// The seeded kill points, with the epoch each recovers to: ≥8 distinct
/// seams, including mid-batch-commit (a torn WAL record of a committing
/// batch; a crash between its WAL append and its in-memory apply). With
/// [`BATCHES`] batches and a checkpoint every [`CHECKPOINT_EVERY`], the
/// checkpoint seams fire while committing epoch 3.
const KILL_POINTS: [(CrashPoint, u64); 9] = [
    (CrashPoint::WalTorn { epoch: 2, keep: 1 }, 1),
    (CrashPoint::WalTorn { epoch: 5, keep: 40 }, 4),
    (CrashPoint::AfterWal { epoch: 2 }, 2),
    (CrashPoint::AfterWal { epoch: 6 }, 6),
    (CrashPoint::AfterApply { epoch: 4 }, 4),
    (CrashPoint::CheckpointTorn { keep: 1 }, 3),
    (CrashPoint::CheckpointTorn { keep: 25 }, 3),
    (CrashPoint::BeforeManifest, 3),
    (CrashPoint::AfterManifest, 3),
];

const BATCHES: u64 = 8;
const CHECKPOINT_EVERY: u64 = 3;
/// The wall-clock runs checkpoint more often, so kills land near more
/// checkpoints, and sleep between batches, so they land mid-stream.
const SIGKILL_CHECKPOINT_EVERY: u64 = 2;
const SIGKILL_BATCH_SLEEP: Duration = Duration::from_millis(15);

const DIR_VAR: &str = "KV_RECOVERY_DIR";
const CASE_VAR: &str = "KV_RECOVERY_CASE";
const CONFIG_VAR: &str = "KV_RECOVERY_CONFIG";
/// An index into [`KILL_POINTS`]; unset for a wall-clock run.
const KILL_VAR: &str = "KV_RECOVERY_KILL";

fn seed() -> u64 {
    std::env::var("KV_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1263933840)
}

fn temp_dir(tag: &str) -> PathBuf {
    let tag: String = tag
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let dir = std::env::temp_dir().join(format!("kv-recovery-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The child: runs the batch stream into the durable directory from
/// whatever epoch it recovers, with the kill point armed, or else with a
/// sleep between batches for the parent's SIGKILL to land in. Spawned
/// only by [`spawn_child`]; without its environment it does nothing.
#[test]
#[ignore = "the crashing run of the tests below, which spawn it"]
fn crashing_run() {
    let Ok(dir) = std::env::var(DIR_VAR) else {
        return;
    };
    let case = support::case(&std::env::var(CASE_VAR).expect("case"));
    let config = std::env::var(CONFIG_VAR).expect("config");
    let (_, options) = configs()
        .into_iter()
        .find(|(name, _)| *name == config)
        .expect("a named config");
    let kill = std::env::var(KILL_VAR)
        .ok()
        .map(|i| KILL_POINTS[i.parse::<usize>().expect("kill point index")].0);
    let template = SMALL.draw(&case, seed());
    let batches = batch_stream(&case, &template, seed(), BATCHES as usize);
    let durability = DurabilityOptions {
        checkpoint_every: match kill {
            Some(_) => CHECKPOINT_EVERY,
            None => SIGKILL_CHECKPOINT_EVERY,
        },
        crash: kill,
        ..DurabilityOptions::default()
    };
    let mut engine = DurableEngine::open(
        &case.program,
        &template,
        options,
        Path::new(&dir),
        durability,
    )
    .expect("open");
    while engine.epoch() < BATCHES {
        let (inserts, retracts) = &batches[engine.epoch() as usize];
        if kill.is_none() {
            std::thread::sleep(SIGKILL_BATCH_SLEEP);
        }
        engine.apply_batch(inserts, retracts).expect("batch");
    }
}

/// Starts [`crashing_run`] on `case` under `config` in `dir`, armed with
/// the kill point at `kill` (an index into [`KILL_POINTS`]) if any.
fn spawn_child(case: &Case, config: &str, dir: &Path, kill: Option<usize>) -> Child {
    let mut child = Command::new(std::env::current_exe().expect("test binary"));
    child
        .args(["crashing_run", "--exact", "--ignored", "--nocapture"])
        .env(DIR_VAR, dir)
        .env(CASE_VAR, case.name)
        .env(CONFIG_VAR, config)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(i) = kill {
        child.env(KILL_VAR, i.to_string());
    }
    child.spawn().expect("spawn the crashing run")
}

/// An engine's observable state: its epoch, the live tuples of each EDB
/// relation with their support counts, and each IDB's live tuples.
#[derive(Debug, PartialEq, Eq)]
struct State {
    epoch: u64,
    edb: Vec<BTreeSet<(Vec<u32>, u32)>>,
    idb: Vec<BTreeSet<Vec<u32>>>,
}

fn state(engine: &IncrementalEngine, case: &Case) -> State {
    let vocab = case.program.vocabulary();
    let edb = vocab
        .relations()
        .map(|r| {
            let store = engine.edb_store(r);
            store
                .live_iter()
                .map(|t| {
                    let support = store.lookup(t).map_or(0, |id| store.support(id));
                    (t.to_vec(), support)
                })
                .collect()
        })
        .collect();
    let idb = (0..case.program.idb_count())
        .map(|i| {
            let store = engine.idb_store(IdbId(i));
            store.live_iter().map(<[u32]>::to_vec).collect()
        })
        .collect();
    State {
        epoch: engine.epoch(),
        edb,
        idb,
    }
}

/// Recovers `dir` in-process, timed.
fn recover(
    case: &Case,
    template: &Structure,
    options: EvalOptions,
    dir: &Path,
    checkpoint_every: u64,
    ctx: &str,
) -> (DurableEngine, u64) {
    let t0 = Instant::now();
    let durability = DurabilityOptions {
        checkpoint_every,
        ..DurabilityOptions::default()
    };
    let engine = DurableEngine::open(&case.program, template, options, dir, durability)
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    (engine, t0.elapsed().as_micros() as u64)
}

/// A fresh in-memory engine after the first `upto` batches.
fn clean_replay(
    case: &Case,
    template: &Structure,
    options: EvalOptions,
    batches: &[(Vec<Fact>, Vec<Fact>)],
    upto: u64,
) -> IncrementalEngine {
    let mut engine = IncrementalEngine::new(&case.program, template, options);
    for (inserts, retracts) in &batches[..upto as usize] {
        engine.apply_batch(inserts, retracts);
    }
    engine
}

struct Timing {
    label: String,
    us: u64,
}

fn write_timings(timings: &[Timing]) {
    // Best-effort artifact; concurrent test binaries may race on the
    // file, which is fine — CI uploads whatever the last writer left.
    let rows: Vec<String> = timings
        .iter()
        .map(|t| format!("  {{\"case\": \"{}\", \"recovery_us\": {}}}", t.label, t.us))
        .collect();
    std::fs::create_dir_all("target").ok();
    std::fs::write(
        "target/recovery-times.json",
        format!("[\n{}\n]\n", rows.join(",\n")),
    )
    .ok();
}

/// Crash at the seam, recover, and require the recovered state to equal
/// the clean replay — then carry on to the full stream and require the
/// directory, recovered again, to equal its clean replay too. Returns the
/// first recovery's timing.
fn crash_recover_and_verify(
    case: &Case,
    (config, options): (&str, EvalOptions),
    kill: usize,
) -> Timing {
    let (crash, expect_epoch) = KILL_POINTS[kill];
    let ctx = format!("{}/{config}/{crash:?}", case.name);
    let dir = temp_dir(&ctx);
    let template = SMALL.draw(case, seed());
    let batches = batch_stream(case, &template, seed(), BATCHES as usize);

    // 1. Run with the kill point armed: the child must die, not exit.
    let out = spawn_child(case, config, &dir, Some(kill))
        .wait_with_output()
        .expect("wait for the crashing run");
    assert!(
        !out.status.success(),
        "{ctx}: armed run must crash\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. Recover, and match the clean replay of the surviving prefix.
    let (mut recovered, us) = recover(case, &template, options, &dir, CHECKPOINT_EVERY, &ctx);
    assert_eq!(recovered.epoch(), expect_epoch, "{ctx}: recovered epoch");
    let mut clean = clean_replay(case, &template, options, &batches, expect_epoch);
    assert_eq!(
        state(recovered.engine(), case),
        state(&clean, case),
        "{ctx}: recovered state diverged from clean replay"
    );

    // 3. Carry on: the recovered engine finishes the stream, and the
    // directory recovers to the clean full-stream state.
    for (inserts, retracts) in &batches[expect_epoch as usize..] {
        recovered
            .apply_batch(inserts, retracts)
            .unwrap_or_else(|e| panic!("{ctx}: batch after recovery failed: {e}"));
        clean.apply_batch(inserts, retracts);
    }
    drop(recovered);
    let (reopened, _) = recover(case, &template, options, &dir, 0, &ctx);
    assert_eq!(
        state(reopened.engine(), case),
        state(&clean, case),
        "{ctx}: post-recovery continuation diverged"
    );

    std::fs::remove_dir_all(&dir).ok();
    Timing { label: ctx, us }
}

/// The seeded matrix: cycle `i` runs (case, config) pair `i mod P` at
/// kill point `i mod K`, for `3 · P` cycles. With `P` = 15 cases × 4
/// configs = 60 and `K` = 9, every pair meets the three kill points of
/// its residue mod 3, which the four configs of a case, and the fifteen
/// cases of a config, cover together.
#[test]
fn killed_mid_protocol_recovers_to_clean_state_everywhere() {
    let cases = corpus();
    let configs = configs();
    let pairs = cases.len() * configs.len();
    let plan: Vec<(usize, usize, usize)> = (0..3 * pairs)
        .map(|i| {
            let pair = i % pairs;
            (
                pair / configs.len(),
                pair % configs.len(),
                i % KILL_POINTS.len(),
            )
        })
        .collect();
    let met = |project: fn(&(usize, usize, usize)) -> (usize, usize)| -> usize {
        plan.iter().map(project).collect::<BTreeSet<_>>().len()
    };
    assert_eq!(met(|&(c, g, _)| (c, g)), pairs, "case × config");
    assert_eq!(
        met(|&(c, _, k)| (c, k)),
        cases.len() * KILL_POINTS.len(),
        "case × kill point"
    );
    assert_eq!(
        met(|&(_, g, k)| (g, k)),
        configs.len() * KILL_POINTS.len(),
        "config × kill point"
    );

    let timings: Vec<Timing> = plan
        .iter()
        .map(|&(c, g, k)| crash_recover_and_verify(&cases[c], configs[g], k))
        .collect();
    write_timings(&timings);
}

/// Wall-clock SIGKILL from the parent: no cooperation from the victim at
/// all. The recovered epoch is whatever it is — but the state must be
/// exactly the clean replay of that many batches.
#[test]
fn sigkilled_at_arbitrary_moments_recovers_to_clean_state() {
    let seed = seed();
    let configs = configs();
    for (i, case) in corpus().iter().enumerate() {
        let (config, options) = configs[i % configs.len()];
        let ctx = format!("{}/{config}/sigkill", case.name);
        let dir = temp_dir(&ctx);
        let mut child = spawn_child(case, config, &dir, None);
        // A seeded, per-case delay so the kill lands at varied points of
        // the batch stream (including possibly mid-batch).
        let delay = 20 + (seed.wrapping_add(i as u64 * 37) % 90);
        std::thread::sleep(Duration::from_millis(delay));
        child.kill().expect("kill the child");
        child.wait().expect("reap the child");

        let template = SMALL.draw(case, seed);
        let (recovered, _) = recover(case, &template, options, &dir, 0, &ctx);
        let epoch = recovered.epoch();
        assert!(epoch <= BATCHES, "{ctx}: impossible epoch {epoch}");
        let batches = batch_stream(case, &template, seed, BATCHES as usize);
        assert_eq!(
            state(recovered.engine(), case),
            state(
                &clean_replay(case, &template, options, &batches, epoch),
                case
            ),
            "{ctx}: recovered state diverged after SIGKILL at {delay}ms"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Corrupting durable files by hand must surface from recovery as a
/// typed [`RecoveryError`] naming the damage, or be tolerated; a panic
/// fails this test.
#[test]
fn corrupted_directories_fail_typed_not_panicked() {
    let case = support::case("transitive_closure");
    let (_, options) = configs()[0];
    let template = SMALL.draw(&case, seed());
    let dir = temp_dir("corrupt");
    // Build a healthy directory first.
    let (mut engine, _) = recover(&case, &template, options, &dir, CHECKPOINT_EVERY, "setup");
    for (inserts, retracts) in &batch_stream(&case, &template, seed(), 6) {
        engine.apply_batch(inserts, retracts).expect("setup batch");
    }
    drop(engine);
    // Flip a byte in the middle of every durable file (manifest, WAL,
    // checkpoint). Recovery must either succeed (the flip hit slack the
    // format tolerates, e.g. the truncatable WAL tail) or return the
    // typed error.
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("read file");
        if bytes.is_empty() {
            continue;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let durability = DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        };
        match DurableEngine::open(&case.program, &template, options, &dir, durability) {
            Ok(_) | Err(RecoveryError::Corrupt { .. } | RecoveryError::Mismatch { .. }) => {}
            Err(e) => panic!("corrupt {}: unexpected error {e}", path.display()),
        }
        // Restore for the next file's turn.
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("restore file");
    }
    std::fs::remove_dir_all(&dir).ok();
}
