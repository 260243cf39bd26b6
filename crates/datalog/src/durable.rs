//! Crash-recoverable incremental maintenance: a write-ahead log of
//! batches plus periodic checkpoint snapshots over
//! [`kv_structures::persist`].
//!
//! [`DurableEngine`] wraps an [`IncrementalEngine`] with a redo-logging
//! protocol whose single invariant is: **a batch is logged durably before
//! any of it is applied in memory**. Together with the engine's own
//! determinism (a batch is a pure function of the committed pre-state),
//! that makes recovery trivial to state and to test:
//!
//! - Crash mid-WAL-append → the record is torn, the loader truncates it,
//!   the batch never happened.
//! - Crash any time after the WAL append → replay applies the full batch
//!   deterministically, landing on the exact state — tuple ids, support
//!   counts, stage identity — a clean run would hold.
//!
//! Every `checkpoint_every` batches the engine state (EDB and IDB
//! [`kv_structures::MutableStore`]s, epoch, aggregate counters) is
//! snapshotted into a fresh *generation*: `ckpt-GGGG` is written first,
//! then the manifest atomically repoints to generation `G`, then a fresh
//! `wal-GGGG` log starts and stale generations are pruned. A crash
//! between any two of those steps recovers through whichever manifest is
//! current — both sides of the swap describe a complete, consistent
//! world.
//!
//! On-disk layout of a durable directory:
//!
//! ```text
//! MANIFEST                  root pointer: generation, checkpoint epoch,
//!                           world fingerprint (atomic tmp+rename swap)
//! ckpt-0002-000000.seg      generation 2's snapshot: a header record,
//!                           one record per store (EDB relations, then
//!                           IDB predicates), and a closing per-store
//!                           manifest record with tuple counts and
//!                           checksums
//! wal-0002-000000.seg       batches applied after that snapshot,
//! wal-0002-000001.seg       one framed record per batch, segments
//!                           rolled at a fixed size
//! ```
//!
//! Because every store (each EDB relation and IDB predicate) has its own
//! snapshot record, recovery can account for exactly which stores the
//! replayed WAL tail touched: the relations named by the replayed batches plus the IDB
//! predicates reachable from them through the program's rules. The rest
//! are recovered verbatim from their individually checksummed records —
//! see [`RecoveryReport::stores_skipped`].
//!
//! The [`CrashPoint`] hooks let the kill-and-restart chaos suite
//! (`tests/recovery.rs`) abort the process deterministically *inside*
//! the commit protocol — mid-WAL-record, between WAL and apply, mid
//! checkpoint write, on either side of the manifest swap — which is how
//! the recovery invariant is exercised at every seam.

use crate::eval::EvalOptions;
use crate::incremental::{BatchInterrupted, BatchSummary, Fact, IncrementalEngine};
use crate::program::Program;
use kv_structures::govern::Governor;
use kv_structures::persist::{self, put_u32, put_u64, ByteReader, RecoveryError, SegmentedLog};
use kv_structures::store::EvalStats;
use kv_structures::{RelId, Structure, Vocabulary};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How a [`DurableEngine`] flushes. The defaults favor test and bench
/// throughput: process-crash durability is unconditional (records are
/// handed to the OS before the engine mutates), while `fsync` — needed
/// only for whole-machine crashes — is opt-in.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Snapshot the engine and start a new generation after this many
    /// committed batches (0 = only on explicit
    /// [`checkpoint`](DurableEngine::checkpoint) calls).
    pub checkpoint_every: u64,
    /// Roll WAL segment files at this size.
    pub segment_bytes: u64,
    /// `fsync` WAL appends, snapshots, and manifest swaps.
    pub fsync: bool,
    /// Deterministic crash injection for the recovery chaos suite: abort
    /// the process at the named protocol seam.
    pub crash: Option<CrashPoint>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            checkpoint_every: 8,
            segment_bytes: 64 * 1024,
            fsync: false,
            crash: None,
        }
    }
}

/// A seeded kill point inside the durable commit protocol. The recovery
/// tests run the engine in a child process with one of these armed; the
/// child [`std::process::abort`]s at the seam, the parent recovers the
/// directory, and recovery must land on the clean-run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// While appending the WAL record of the batch producing `epoch`:
    /// only `keep` bytes of the frame reach the file — a torn write.
    WalTorn {
        /// The batch (by the epoch it would produce) whose record tears.
        epoch: u64,
        /// Frame bytes that survive.
        keep: usize,
    },
    /// After the batch's WAL record is durable, before any in-memory
    /// apply: recovery must replay the full batch.
    AfterWal {
        /// The batch (by the epoch it would produce) to crash after.
        epoch: u64,
    },
    /// After the batch applied in memory, before any checkpoint runs:
    /// durable state is WAL-ahead of nothing — replay is a no-op beyond
    /// this batch.
    AfterApply {
        /// The batch (by the epoch it produced) to crash after.
        epoch: u64,
    },
    /// Mid-checkpoint: only `keep` bytes of the snapshot record reach
    /// the new generation's file; the manifest still names the old one.
    CheckpointTorn {
        /// Snapshot frame bytes that survive.
        keep: usize,
    },
    /// Checkpoint written, manifest not yet swapped: recovery uses the
    /// previous generation and replays its WAL.
    BeforeManifest,
    /// Manifest swapped, stale generations not yet pruned: recovery uses
    /// the new snapshot and ignores the orphans.
    AfterManifest,
}

/// What recovery found and did while opening a durable directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether a manifest existed (false = the directory is fresh).
    pub manifest_found: bool,
    /// Epoch covered by the checkpoint snapshot that seeded the engine.
    pub checkpoint_epoch: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed_batches: u64,
    /// Whether a torn record was truncated from the WAL tail.
    pub torn_wal_truncated: bool,
    /// The engine epoch after recovery.
    pub recovered_epoch: u64,
    /// Per-store snapshot records the checkpoint contributed (one per EDB
    /// relation and per IDB predicate; 0 for a fresh directory).
    pub snapshot_stores: u64,
    /// Stores the replayed WAL tail touched: the EDB relations named by
    /// any replayed batch plus the IDB predicates transitively derivable
    /// from them through the program's rules. Only these stores' contents
    /// can differ from their snapshot records.
    pub stores_replayed: u64,
    /// Stores the WAL tail provably did not touch: recovered verbatim
    /// from their individually checksummed snapshot records, with no
    /// replay work applied to them.
    pub stores_skipped: u64,
}

/// Flush-side counters of a [`DurableEngine`] (the observability surface
/// the bench's flush-overhead column reads).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushStats {
    /// WAL records appended by this handle.
    pub wal_records: u64,
    /// Framed WAL bytes appended by this handle.
    pub wal_bytes: u64,
    /// Checkpoints taken by this handle.
    pub checkpoints: u64,
    /// Snapshot payload bytes written by checkpoints.
    pub checkpoint_bytes: u64,
}

/// A governed durable batch failed: either the governor interrupted the
/// evaluation (resumable, nothing lost) or the storage layer failed.
#[derive(Debug)]
pub enum DurableBatchError {
    /// The governor stopped the batch; it is pending inside the engine
    /// and [`DurableEngine::resume_batch`] continues it. Its WAL record
    /// is already durable, so a crash while pending replays the whole
    /// batch instead.
    Interrupted(BatchInterrupted),
    /// Reading or writing durable state failed.
    Storage(RecoveryError),
}

impl fmt::Display for DurableBatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableBatchError::Interrupted(e) => e.fmt(f),
            DurableBatchError::Storage(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DurableBatchError {}

impl From<RecoveryError> for DurableBatchError {
    fn from(e: RecoveryError) -> Self {
        DurableBatchError::Storage(e)
    }
}

fn ckpt_base(generation: u64) -> String {
    format!("ckpt-{generation:04}")
}

fn wal_base(generation: u64) -> String {
    format!("wal-{generation:04}")
}

/// A content fingerprint of the world a durable directory serves: the
/// program's rules, the vocabulary shape, the universe size, and the
/// constant interpretations. Recovery refuses (typed
/// [`RecoveryError::Mismatch`]) to load state written for a different
/// world instead of replaying nonsense into it.
pub fn world_fingerprint(program: &Program, template: &Structure) -> u64 {
    let vocab = program.vocabulary();
    let mut desc = Vec::new();
    put_u32(&mut desc, template.universe_size() as u32);
    put_u32(&mut desc, vocab.relation_count() as u32);
    for r in vocab.relations() {
        put_u32(&mut desc, vocab.arity(r) as u32);
    }
    put_u32(&mut desc, vocab.constant_count() as u32);
    for c in vocab.constants() {
        put_u32(&mut desc, template.constant(c));
    }
    put_u32(&mut desc, program.idb_count() as u32);
    for rule in program.rules() {
        desc.extend_from_slice(format!("{rule:?};").as_bytes());
    }
    persist::checksum64(&desc)
}

/// An [`IncrementalEngine`] whose batches survive the process: WAL-logged
/// before they apply, snapshotted every few batches, and replayed on
/// [`open`](DurableEngine::open) after a crash.
#[derive(Debug)]
pub struct DurableEngine {
    engine: IncrementalEngine,
    dir: PathBuf,
    opts: DurabilityOptions,
    wal: SegmentedLog,
    universe: u32,
    generation: u64,
    fingerprint: u64,
    batches_since_checkpoint: u64,
    /// Highest epoch with a durable WAL record; guards against double
    /// logging when an interrupted governed batch resumes.
    wal_logged_epoch: u64,
    report: RecoveryReport,
    stats: FlushStats,
}

impl DurableEngine {
    /// Opens (or initializes) a durable engine in `dir`.
    ///
    /// Fresh directory: writes a generation-0 manifest, starts an empty
    /// WAL, and returns an engine at epoch 0 — assert initial facts with
    /// the first [`apply_batch`](Self::apply_batch). Existing directory:
    /// validates the manifest fingerprint against `program`/`template`,
    /// loads the current generation's snapshot (if any), replays its WAL
    /// — truncating a torn tail record, erroring on corruption under
    /// committed data — and prunes files of stale generations.
    pub fn open(
        program: &Program,
        template: &Structure,
        options: EvalOptions,
        dir: &Path,
        durability: DurabilityOptions,
    ) -> Result<Self, RecoveryError> {
        std::fs::create_dir_all(dir).map_err(|e| RecoveryError::Io {
            path: dir.to_path_buf(),
            op: "create durable directory",
            source: e,
        })?;
        let fingerprint = world_fingerprint(program, template);
        let vocab = Arc::clone(program.vocabulary());
        let universe = template.universe_size() as u32;
        let mut report = RecoveryReport::default();

        let manifest = persist::read_manifest(dir)?;
        let (generation, checkpoint_epoch) = match &manifest {
            Some(m) => {
                if m.fingerprint != fingerprint {
                    return Err(RecoveryError::mismatch(
                        &dir.join(persist::MANIFEST_NAME),
                        format!(
                            "directory fingerprint {:#018x} does not match this \
                             program/structure ({fingerprint:#018x})",
                            m.fingerprint
                        ),
                    ));
                }
                report.manifest_found = true;
                (m.generation, m.checkpoint_epoch)
            }
            None => (0, 0),
        };
        report.checkpoint_epoch = checkpoint_epoch;

        // Engine seed: the generation's snapshot, or a fresh engine.
        let mut engine = if checkpoint_epoch > 0 {
            let base = ckpt_base(generation);
            let snap_path = persist::segment_path(dir, &base, 0);
            let loaded = SegmentedLog::load(dir, &base)?;
            if loaded.torn_tail || loaded.records.is_empty() {
                return Err(RecoveryError::corrupt_at(
                    &snap_path,
                    0,
                    format!(
                        "checkpoint snapshot is incomplete: {} record(s), torn: {}",
                        loaded.records.len(),
                        loaded.torn_tail
                    ),
                ));
            }
            let (engine, stores) = decode_snapshot_records(
                &loaded.records,
                &snap_path,
                program,
                template,
                options,
                fingerprint,
                checkpoint_epoch,
            )?;
            report.snapshot_stores = stores;
            engine
        } else {
            IncrementalEngine::new(program, template, options)
        };

        // Replay the WAL past the snapshot, recording which EDB
        // relations the tail touches so the report can say which stores'
        // snapshot records were final (`stores_skipped`).
        let mut touched_edb = vec![false; vocab.relation_count()];
        let wbase = wal_base(generation);
        let loaded = SegmentedLog::load(dir, &wbase)?;
        report.torn_wal_truncated = loaded.torn_tail;
        for (i, record) in loaded.records.iter().enumerate() {
            let path = persist::segment_path(dir, &wbase, 0);
            let (epoch, inserts, retracts) = decode_batch(record, &path, &vocab, universe)?;
            if epoch != engine.epoch() + 1 {
                return Err(RecoveryError::corrupt_at(
                    &path,
                    0,
                    format!(
                        "WAL record {i} carries epoch {epoch}, engine is at {} \
                         (gap or out-of-order log)",
                        engine.epoch()
                    ),
                ));
            }
            for (rel, _) in inserts.iter().chain(retracts.iter()) {
                touched_edb[rel.0] = true;
            }
            engine.apply_batch(&inserts, &retracts);
            report.replayed_batches += 1;
        }
        report.recovered_epoch = engine.epoch();
        let total_stores = (vocab.relation_count() + program.idb_count()) as u64;
        if report.replayed_batches > 0 {
            report.stores_replayed = touched_store_count(program, &touched_edb);
        }
        report.stores_skipped = total_stores - report.stores_replayed;

        // A fresh directory gets its root pointer immediately, so a crash
        // right after open still recovers through a manifest.
        if manifest.is_none() {
            persist::write_manifest(
                dir,
                &persist::Manifest {
                    generation,
                    checkpoint_epoch,
                    fingerprint,
                },
                durability.fsync,
            )?;
        }
        let wal = SegmentedLog::reopen(dir, &wbase, durability.segment_bytes)?;
        prune_stale_generations(dir, generation);
        let wal_logged_epoch = engine.epoch();
        Ok(DurableEngine {
            engine,
            dir: dir.to_path_buf(),
            opts: durability,
            wal,
            universe,
            generation,
            fingerprint,
            batches_since_checkpoint: report.replayed_batches,
            wal_logged_epoch,
            report,
            stats: FlushStats::default(),
        })
    }

    /// The wrapped engine (read-only: mutations must go through the
    /// durable batch API so they are logged).
    pub fn engine(&self) -> &IncrementalEngine {
        &self.engine
    }

    /// What recovery found and did when this handle opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// Flush-side counters for this handle.
    pub fn flush_stats(&self) -> FlushStats {
        self.stats
    }

    /// The batches committed so far (durably: every one of them has a
    /// WAL record or is covered by a snapshot).
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Whether an interrupted governed batch is pending.
    pub fn has_pending(&self) -> bool {
        self.engine.has_pending()
    }

    fn crash(&self) -> ! {
        // The chaos suite's seeded kill: no unwinding, no destructors —
        // the closest in-process stand-in for SIGKILL that still lets
        // the *parent* test control the timing deterministically.
        std::process::abort()
    }

    /// Applies a batch durably (ungoverned). See
    /// [`try_apply_batch_governed`](Self::try_apply_batch_governed).
    pub fn apply_batch(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
    ) -> Result<BatchSummary, RecoveryError> {
        match self.try_apply_batch_governed(inserts, retracts, &Governor::unlimited()) {
            Ok(summary) => Ok(summary),
            Err(DurableBatchError::Storage(e)) => Err(e),
            Err(DurableBatchError::Interrupted(e)) => {
                unreachable!("unlimited governor interrupted a batch: {e}")
            }
        }
    }

    /// Governed durable batch: logs the batch to the WAL (flushing before
    /// anything mutates), applies it through the engine, and checkpoints
    /// when the cadence is due and the governor still has headroom — a
    /// due checkpoint under an exhausted governor is deferred to a later
    /// batch, never skipped forever. Snapshot bytes are charged to the
    /// governor like any other engine I/O.
    ///
    /// # Panics
    /// Panics on an arity or universe violation, or if a batch is
    /// already pending (resume it first) — same contract as
    /// [`IncrementalEngine::try_apply_batch_governed`].
    pub fn try_apply_batch_governed(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
        gov: &Governor,
    ) -> Result<BatchSummary, DurableBatchError> {
        assert!(
            !self.engine.has_pending(),
            "a durable batch is pending; resume it before applying another"
        );
        self.engine.check_facts(inserts);
        self.engine.check_facts(retracts);
        let epoch = self.engine.epoch() + 1;
        if self.wal_logged_epoch < epoch {
            let payload = encode_batch(epoch, inserts, retracts);
            if let Some(CrashPoint::WalTorn { epoch: e, keep }) = self.opts.crash {
                if e == epoch {
                    let _ = self.wal.append_torn(&payload, keep);
                    self.crash();
                }
            }
            // Each checkpoint starts a fresh log, so this append's framed
            // bytes are the difference across it, not the log's total.
            let before = self.wal.appended_bytes();
            self.wal.append(&payload)?;
            if self.opts.fsync {
                self.wal.sync()?;
            }
            self.stats.wal_records += 1;
            self.stats.wal_bytes += self.wal.appended_bytes() - before;
            if let Some(CrashPoint::AfterWal { epoch: e }) = self.opts.crash {
                if e == epoch {
                    self.crash();
                }
            }
            self.wal_logged_epoch = epoch;
        }
        let summary = self
            .engine
            .try_apply_batch_governed(inserts, retracts, gov)
            .map_err(DurableBatchError::Interrupted)?;
        self.finish_batch(gov)?;
        Ok(summary)
    }

    /// Resumes a pending interrupted batch. Its WAL record was logged by
    /// the original attempt, so this only drives the in-memory engine —
    /// and checkpoints afterwards if the cadence came due.
    pub fn resume_batch(&mut self, gov: &Governor) -> Result<BatchSummary, DurableBatchError> {
        let summary = self
            .engine
            .resume_batch(gov)
            .map_err(DurableBatchError::Interrupted)?;
        self.finish_batch(gov)?;
        Ok(summary)
    }

    fn finish_batch(&mut self, gov: &Governor) -> Result<(), DurableBatchError> {
        if let Some(CrashPoint::AfterApply { epoch }) = self.opts.crash {
            if epoch == self.engine.epoch() {
                self.crash();
            }
        }
        self.batches_since_checkpoint += 1;
        if self.opts.checkpoint_every > 0
            && self.batches_since_checkpoint >= self.opts.checkpoint_every
            && gov.check().is_ok()
        {
            let bytes = self.checkpoint()?;
            // Charge the flush like any other engine I/O; the checkpoint
            // is already durable, so an interrupt here only tells the
            // *caller* the budget ran out — nothing needs undoing.
            let _ = gov.charge_bytes(bytes);
        }
        Ok(())
    }

    /// Takes a checkpoint now: snapshots the engine into a new
    /// generation, atomically repoints the manifest, starts a fresh WAL,
    /// and prunes stale generations. No-op while a batch is pending
    /// (snapshots only ever cover committed state). Returns the snapshot
    /// payload size in bytes.
    pub fn checkpoint(&mut self) -> Result<u64, RecoveryError> {
        if self.engine.has_pending() {
            return Ok(0);
        }
        let next_gen = self.generation + 1;
        let records = encode_snapshot_records(&self.engine, self.universe, self.fingerprint);
        let payload_bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
        let base = ckpt_base(next_gen);
        // A crashed earlier attempt at this generation may have left
        // orphans; recovery keeps only the manifest's generation, so
        // they are dead weight we can clobber.
        SegmentedLog::remove_all(&self.dir, &base);
        SegmentedLog::remove_all(&self.dir, &wal_base(next_gen));
        let mut snap = SegmentedLog::create(&self.dir, &base, u64::MAX / 2)?;
        if let Some(CrashPoint::CheckpointTorn { keep }) = self.opts.crash {
            // Crash partway through the snapshot write: the header
            // record tears and none of the store records follow.
            let _ = snap.append_torn(&records[0], keep);
            self.crash();
        }
        for record in &records {
            snap.append(record)?;
        }
        if self.opts.fsync {
            snap.sync()?;
        }
        drop(snap);
        if matches!(self.opts.crash, Some(CrashPoint::BeforeManifest)) {
            self.crash();
        }
        persist::write_manifest(
            &self.dir,
            &persist::Manifest {
                generation: next_gen,
                checkpoint_epoch: self.engine.epoch(),
                fingerprint: self.fingerprint,
            },
            self.opts.fsync,
        )?;
        if matches!(self.opts.crash, Some(CrashPoint::AfterManifest)) {
            self.crash();
        }
        self.wal = SegmentedLog::create(&self.dir, &wal_base(next_gen), self.opts.segment_bytes)?;
        let old_gen = self.generation;
        self.generation = next_gen;
        self.batches_since_checkpoint = 0;
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += payload_bytes;
        prune_stale_generations(&self.dir, next_gen);
        let _ = old_gen;
        Ok(payload_bytes)
    }
}

/// Removes checkpoint/WAL files of every generation except `keep`
/// (best-effort: the manifest no longer references them, so a leftover
/// orphan is harmless and will be retried next time).
fn prune_stale_generations(dir: &Path, keep: u64) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    let keep_ckpt = ckpt_base(keep);
    let keep_wal = wal_base(keep);
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = (name.starts_with("ckpt-") && !name.starts_with(keep_ckpt.as_str()))
            || (name.starts_with("wal-") && !name.starts_with(keep_wal.as_str()));
        if stale && name.ends_with(".seg") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

// ---------------------------------------------------------------------
// Payload encodings.
// ---------------------------------------------------------------------

/// WAL record: `[epoch][n_inserts][facts][n_retracts][facts]`, each fact
/// `[rel][elements × arity(rel)]`.
fn encode_batch(epoch: u64, inserts: &[Fact], retracts: &[Fact]) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, epoch);
    for list in [inserts, retracts] {
        put_u32(&mut p, list.len() as u32);
        for (rel, t) in list {
            put_u32(&mut p, rel.0 as u32);
            for &e in t {
                put_u32(&mut p, e);
            }
        }
    }
    p
}

fn decode_batch(
    payload: &[u8],
    path: &Path,
    vocab: &Vocabulary,
    universe: u32,
) -> Result<(u64, Vec<Fact>, Vec<Fact>), RecoveryError> {
    let fail = |d: String| RecoveryError::corrupt_at(path, 0, d);
    let mut r = ByteReader::new(payload);
    let epoch = r.get_u64("batch epoch").map_err(fail)?;
    let mut lists: [Vec<Fact>; 2] = [Vec::new(), Vec::new()];
    for list in &mut lists {
        let n = r.get_u32("fact count").map_err(fail)? as usize;
        if n > payload.len() {
            return Err(fail(format!("fact count {n} exceeds payload size")));
        }
        list.reserve(n);
        for _ in 0..n {
            let rel = r.get_u32("fact relation").map_err(fail)? as usize;
            if rel >= vocab.relation_count() {
                return Err(fail(format!(
                    "relation id {rel} out of range ({} relation(s))",
                    vocab.relation_count()
                )));
            }
            let rel = RelId(rel);
            let t = r
                .get_u32s(vocab.arity(rel), "fact elements")
                .map_err(fail)?;
            if t.iter().any(|&e| e >= universe) {
                return Err(fail(format!(
                    "fact element outside universe of size {universe}: {t:?}"
                )));
            }
            list.push((rel, t));
        }
    }
    if !r.is_exhausted() {
        return Err(fail("trailing bytes after batch record".to_string()));
    }
    let [inserts, retracts] = lists;
    Ok((epoch, inserts, retracts))
}

/// Snapshot encoding, one framed record per concern:
///
/// - header: `[universe][fingerprint][epoch][total_stats][edb_count][idb_count]`
/// - one record per store, EDB relations then IDB predicates in id
///   order: `[kind][index][mutable_store]` (kind 0 = EDB, 1 = IDB)
/// - per-store manifest: `[count]` then per store
///   `[kind][index][live_tuples][checksum64 of that store's record]`
///
/// The per-store records are the shard-granular recovery unit the
/// incremental WAL replays against; the closing manifest binds them
/// together so a substituted or reordered record is caught even though
/// each frame already carries its own checksum.
fn encode_snapshot_records(
    engine: &IncrementalEngine,
    universe: u32,
    fingerprint: u64,
) -> Vec<Vec<u8>> {
    let edb = engine.edb_stores();
    let idb = engine.idb_stores();
    let mut header = Vec::new();
    put_u32(&mut header, universe);
    put_u64(&mut header, fingerprint);
    put_u64(&mut header, engine.epoch());
    persist::encode_eval_stats(&mut header, &engine.total_stats());
    put_u32(&mut header, edb.len() as u32);
    put_u32(&mut header, idb.len() as u32);
    let mut records = vec![header];
    let mut manifest = Vec::new();
    put_u32(&mut manifest, (edb.len() + idb.len()) as u32);
    for (kind, stores) in [(0u32, edb), (1u32, idb)] {
        for (index, store) in stores.iter().enumerate() {
            let mut p = Vec::new();
            put_u32(&mut p, kind);
            put_u32(&mut p, index as u32);
            persist::encode_mutable_store(&mut p, store);
            put_u32(&mut manifest, kind);
            put_u32(&mut manifest, index as u32);
            put_u64(&mut manifest, store.live_len() as u64);
            put_u64(&mut manifest, persist::checksum64(&p));
            records.push(p);
        }
    }
    records.push(manifest);
    records
}

/// Decodes a multi-record snapshot (see [`encode_snapshot_records`]),
/// returning the restored engine and the number of per-store records
/// validated.
#[allow(clippy::too_many_arguments)]
fn decode_snapshot_records(
    records: &[Vec<u8>],
    path: &Path,
    program: &Program,
    template: &Structure,
    options: EvalOptions,
    fingerprint: u64,
    expect_epoch: u64,
) -> Result<(IncrementalEngine, u64), RecoveryError> {
    let fail = |d: String| RecoveryError::corrupt_at(path, 0, d);
    let mut r = ByteReader::new(&records[0]);
    let universe = r.get_u32("snapshot universe").map_err(fail)?;
    if universe as usize != template.universe_size() {
        return Err(RecoveryError::mismatch(
            path,
            format!(
                "snapshot universe {universe}, template has {}",
                template.universe_size()
            ),
        ));
    }
    let snap_fp = r.get_u64("snapshot fingerprint").map_err(fail)?;
    if snap_fp != fingerprint {
        return Err(RecoveryError::mismatch(
            path,
            format!("snapshot fingerprint {snap_fp:#018x}, expected {fingerprint:#018x}"),
        ));
    }
    let epoch = r.get_u64("snapshot epoch").map_err(fail)?;
    if epoch != expect_epoch {
        return Err(RecoveryError::mismatch(
            path,
            format!("snapshot covers epoch {epoch}, manifest says {expect_epoch}"),
        ));
    }
    let total_stats: EvalStats = persist::decode_eval_stats(&mut r, path)?;
    let n_edb = r.get_u32("EDB store count").map_err(fail)? as usize;
    let n_idb = r.get_u32("IDB store count").map_err(fail)? as usize;
    if !r.is_exhausted() {
        return Err(fail("trailing bytes after snapshot header".to_string()));
    }
    let n_stores = n_edb + n_idb;
    if n_stores > 10_000 {
        return Err(fail(format!("implausible store count {n_stores}")));
    }
    if records.len() != n_stores + 2 {
        return Err(fail(format!(
            "snapshot should hold {} records (header + {n_stores} stores + manifest), found {}",
            n_stores + 2,
            records.len()
        )));
    }
    // Per-store manifest: tuple counts and checksums, one entry per
    // store record in order.
    let manifest = &records[n_stores + 1];
    let mut m = ByteReader::new(manifest);
    let m_count = m.get_u32("manifest store count").map_err(fail)? as usize;
    if m_count != n_stores {
        return Err(fail(format!(
            "store manifest lists {m_count} store(s), header says {n_stores}"
        )));
    }
    let mut edb = Vec::with_capacity(n_edb);
    let mut idb = Vec::with_capacity(n_idb);
    for (slot, record) in records[1..=n_stores].iter().enumerate() {
        let (want_kind, want_index) = if slot < n_edb {
            (0u32, slot as u32)
        } else {
            (1u32, (slot - n_edb) as u32)
        };
        let m_kind = m.get_u32("manifest store kind").map_err(fail)?;
        let m_index = m.get_u32("manifest store index").map_err(fail)?;
        let m_tuples = m.get_u64("manifest store tuples").map_err(fail)?;
        let m_check = m.get_u64("manifest store checksum").map_err(fail)?;
        if (m_kind, m_index) != (want_kind, want_index) {
            return Err(fail(format!(
                "store manifest entry {slot} names (kind {m_kind}, index {m_index}), \
                 expected (kind {want_kind}, index {want_index})"
            )));
        }
        if persist::checksum64(record) != m_check {
            return Err(fail(format!(
                "store record {slot} (kind {m_kind}, index {m_index}) does not match \
                 its manifest checksum"
            )));
        }
        let mut sr = ByteReader::new(record);
        let r_kind = sr.get_u32("store record kind").map_err(fail)?;
        let r_index = sr.get_u32("store record index").map_err(fail)?;
        if (r_kind, r_index) != (want_kind, want_index) {
            return Err(fail(format!(
                "store record {slot} labels itself (kind {r_kind}, index {r_index}), \
                 expected (kind {want_kind}, index {want_index})"
            )));
        }
        let store = persist::decode_mutable_store(&mut sr, path)?;
        if !sr.is_exhausted() {
            return Err(fail(format!("trailing bytes after store record {slot}")));
        }
        if store.live_len() as u64 != m_tuples {
            return Err(fail(format!(
                "store record {slot} holds {} live tuple(s), manifest says {m_tuples}",
                store.live_len()
            )));
        }
        if slot < n_edb { &mut edb } else { &mut idb }.push(store);
    }
    if !m.is_exhausted() {
        return Err(fail("trailing bytes after store manifest".to_string()));
    }
    let engine =
        IncrementalEngine::restore(program, template, options, edb, idb, epoch, total_stats)
            .map_err(|d| RecoveryError::mismatch(path, d))?;
    Ok((engine, n_stores as u64))
}

/// How many stores a WAL tail touching `touched_edb` can have changed:
/// the touched EDB relations plus the IDB predicates transitively
/// derivable from them through the program's rules (a rule's head is
/// affected if any body atom is a touched relation or an affected
/// predicate; body-less fact rules are counted conservatively, since a
/// replayed seed batch re-fires them).
fn touched_store_count(program: &Program, touched_edb: &[bool]) -> u64 {
    use crate::ast::Pred;
    let mut touched_idb = vec![false; program.idb_count()];
    loop {
        let mut changed = false;
        for rule in program.rules() {
            if touched_idb[rule.head.0] {
                continue;
            }
            let mut affected = false;
            let mut has_atoms = false;
            for (pred, _) in rule.atoms() {
                has_atoms = true;
                affected |= match *pred {
                    Pred::Edb(rel) => touched_edb[rel.0],
                    Pred::Idb(i) => touched_idb[i.0],
                };
            }
            if affected || !has_atoms {
                touched_idb[rule.head.0] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let e = touched_edb.iter().filter(|&&t| t).count();
    let i = touched_idb.iter().filter(|&&t| t).count();
    (e + i) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{avoiding_path, transitive_closure};
    use kv_structures::generators::random_digraph;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("kv-durable-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).expect("create temp dir");
        d
    }

    fn edge_batches(seed: u64, n: u32, count: usize) -> Vec<(Vec<Fact>, Vec<Fact>)> {
        use kv_structures::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut batches = Vec::with_capacity(count);
        for _ in 0..count {
            let mut inserts = Vec::new();
            let mut retracts = Vec::new();
            for _ in 0..4 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if rng.gen_bool(0.3) && !live.is_empty() {
                    let i = rng.gen_range(0..live.len());
                    let (x, y) = live.swap_remove(i);
                    retracts.push((RelId(0), vec![x, y]));
                } else {
                    live.push((a, b));
                    inserts.push((RelId(0), vec![a, b]));
                }
            }
            batches.push((inserts, retracts));
        }
        batches
    }

    fn assert_same_state(a: &IncrementalEngine, b: &IncrementalEngine, label: &str) {
        assert_eq!(a.epoch(), b.epoch(), "{label}: epoch");
        let s_a = a.edb_structure();
        let s_b = b.edb_structure();
        for r in s_a.vocabulary().relations() {
            assert_eq!(
                s_a.relation(r).sorted(),
                s_b.relation(r).sorted(),
                "{label}: EDB relation {r:?}"
            );
        }
        for (i, (ma, mb)) in a.idb_stores().iter().zip(b.idb_stores()).enumerate() {
            assert_eq!(ma.live_len(), mb.live_len(), "{label}: IDB {i} live size");
            for t in ma.live_iter() {
                assert!(mb.contains_live(t), "{label}: IDB {i} missing {t:?}");
            }
        }
    }

    #[test]
    fn durable_engine_survives_reopen_at_every_batch_boundary() {
        let program = transitive_closure();
        let template = random_digraph(9, 0.2, 11).to_structure();
        let batches = edge_batches(42, 9, 10);
        for stop_after in [1usize, 3, 7, 10] {
            let dir = temp_dir("reopen");
            let opts = DurabilityOptions {
                checkpoint_every: 3,
                ..DurabilityOptions::default()
            };
            {
                let mut d = DurableEngine::open(
                    &program,
                    &template,
                    EvalOptions::default(),
                    &dir,
                    opts.clone(),
                )
                .expect("open fresh");
                assert!(!d.recovery().manifest_found);
                for (ins, ret) in &batches[..stop_after] {
                    d.apply_batch(ins, ret).expect("apply");
                }
                // Dropped without any shutdown hook: durability must not
                // depend on a clean close.
            }
            let recovered =
                DurableEngine::open(&program, &template, EvalOptions::default(), &dir, opts)
                    .expect("reopen");
            assert!(recovered.recovery().manifest_found);
            assert_eq!(recovered.epoch(), stop_after as u64);
            // Store accounting: transitive closure has one EDB relation
            // and one IDB predicate; any replayed batch touches the EDB
            // relation and (through the rules) the IDB predicate.
            let rep = recovered.recovery();
            assert_eq!(rep.stores_replayed + rep.stores_skipped, 2);
            if rep.checkpoint_epoch > 0 {
                assert_eq!(rep.snapshot_stores, 2, "one record per store");
            } else {
                assert_eq!(rep.snapshot_stores, 0);
            }
            if rep.replayed_batches > 0 {
                assert_eq!(rep.stores_replayed, 2);
            } else {
                assert_eq!(rep.stores_replayed, 0);
            }
            // Clean-run partner: the same batches through a volatile engine.
            let mut clean = IncrementalEngine::new(&program, &template, EvalOptions::default());
            for (ins, ret) in &batches[..stop_after] {
                clean.apply_batch(ins, ret);
            }
            assert_same_state(
                recovered.engine(),
                &clean,
                &format!("stop_after={stop_after}"),
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn wal_bytes_grow_monotonically_across_a_forced_checkpoint() {
        let program = transitive_closure();
        let template = random_digraph(9, 0.2, 3).to_structure();
        let dir = temp_dir("walbytes");
        let opts = DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        };
        let mut d = DurableEngine::open(&program, &template, EvalOptions::default(), &dir, opts)
            .expect("open");
        let mut last = d.flush_stats().wal_bytes;
        for (i, (ins, ret)) in edge_batches(17, 9, 6).iter().enumerate() {
            if i == 3 {
                d.checkpoint().expect("forced checkpoint");
                assert_eq!(
                    d.flush_stats().wal_bytes,
                    last,
                    "checkpoint appends no record"
                );
            }
            d.apply_batch(ins, ret).expect("apply");
            let now = d.flush_stats().wal_bytes;
            assert!(now > last, "batch {i}: wal_bytes went from {last} to {now}");
            last = now;
        }
        assert_eq!(d.flush_stats().checkpoints, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_prune_old_generations_and_replay_less() {
        let program = avoiding_path();
        let template = random_digraph(8, 0.25, 5).to_structure();
        let dir = temp_dir("prune");
        let opts = DurabilityOptions {
            checkpoint_every: 2,
            ..DurabilityOptions::default()
        };
        let mut d = DurableEngine::open(
            &program,
            &template,
            EvalOptions::default(),
            &dir,
            opts.clone(),
        )
        .expect("open");
        for (ins, ret) in edge_batches(7, 8, 9) {
            d.apply_batch(&ins, &ret).expect("apply");
        }
        assert!(d.flush_stats().checkpoints >= 4);
        drop(d);
        // Only the live generation's files remain.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        let gens: std::collections::HashSet<&str> = names
            .iter()
            .filter(|n| n.ends_with(".seg"))
            .filter_map(|n| n.split('-').nth(1))
            .collect();
        assert_eq!(gens.len(), 1, "stale generations must be pruned: {names:?}");
        // Reopen replays only the post-checkpoint suffix.
        let d = DurableEngine::open(&program, &template, EvalOptions::default(), &dir, opts)
            .expect("reopen");
        assert_eq!(d.epoch(), 9);
        assert!(d.recovery().checkpoint_epoch >= 8);
        assert!(d.recovery().replayed_batches <= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_skips_stores_the_wal_tail_never_touched() {
        use crate::programs::path_systems;
        // Path systems: EDB relations R/3 (rel 0) and A/1 (rel 1), one
        // IDB predicate Acc. Seed both relations before the checkpoint,
        // then let the WAL tail touch only A — recovery must report R's
        // store as skipped (its snapshot record was final) and A + Acc
        // as replayed.
        let program = path_systems();
        let template = Structure::new(Arc::clone(program.vocabulary()), 6);
        let dir = temp_dir("skip");
        let opts = DurabilityOptions {
            checkpoint_every: 0,
            ..DurabilityOptions::default()
        };
        let mut d = DurableEngine::open(
            &program,
            &template,
            EvalOptions::default(),
            &dir,
            opts.clone(),
        )
        .expect("open");
        d.apply_batch(
            &[
                (RelId(0), vec![0, 1, 2]),
                (RelId(0), vec![3, 1, 2]),
                (RelId(1), vec![1]),
            ],
            &[],
        )
        .expect("seed batch");
        d.apply_batch(&[(RelId(1), vec![2])], &[]).expect("batch 2");
        d.checkpoint().expect("checkpoint at epoch 2");
        // Checkpoint covered epochs 1-2; these two form the WAL tail.
        d.apply_batch(&[(RelId(1), vec![4])], &[]).expect("batch 3");
        d.apply_batch(&[], &[(RelId(1), vec![4])]).expect("batch 4");
        drop(d);
        let recovered = DurableEngine::open(
            &program,
            &template,
            EvalOptions::default(),
            &dir,
            opts.clone(),
        )
        .expect("reopen");
        let rep = recovered.recovery();
        assert_eq!(rep.checkpoint_epoch, 2);
        assert_eq!(rep.replayed_batches, 2);
        assert_eq!(rep.snapshot_stores, 3, "R, A, Acc each get a record");
        assert_eq!(rep.stores_replayed, 2, "A and the Acc closure");
        assert_eq!(rep.stores_skipped, 1, "R untouched by the tail");
        // The accounting is a report, not a shortcut that may diverge:
        // the recovered state still equals a clean run.
        let mut clean = IncrementalEngine::new(&program, &template, EvalOptions::default());
        clean.apply_batch(
            &[
                (RelId(0), vec![0, 1, 2]),
                (RelId(0), vec![3, 1, 2]),
                (RelId(1), vec![1]),
            ],
            &[],
        );
        clean.apply_batch(&[(RelId(1), vec![2])], &[]);
        clean.apply_batch(&[(RelId(1), vec![4])], &[]);
        clean.apply_batch(&[], &[(RelId(1), vec![4])]);
        assert_same_state(recovered.engine(), &clean, "skip accounting");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_world_is_a_typed_mismatch() {
        let program = transitive_closure();
        let template = random_digraph(8, 0.25, 5).to_structure();
        let dir = temp_dir("mismatch");
        drop(
            DurableEngine::open(
                &program,
                &template,
                EvalOptions::default(),
                &dir,
                DurabilityOptions::default(),
            )
            .expect("open"),
        );
        // Different universe size → different world.
        let other = random_digraph(9, 0.25, 5).to_structure();
        let err = DurableEngine::open(
            &program,
            &other,
            EvalOptions::default(),
            &dir,
            DurabilityOptions::default(),
        )
        .expect_err("fingerprint mismatch");
        assert!(matches!(err, RecoveryError::Mismatch { .. }), "got {err}");
        // A different program over the same vocabulary mismatches too.
        let err = DurableEngine::open(
            &avoiding_path(),
            &template,
            EvalOptions::default(),
            &dir,
            DurabilityOptions::default(),
        )
        .expect_err("program mismatch");
        assert!(matches!(err, RecoveryError::Mismatch { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn governed_interrupts_resume_durably() {
        use kv_structures::Budget;
        let program = transitive_closure();
        let template = random_digraph(10, 0.0, 1).to_structure();
        let dir = temp_dir("governed");
        let mut d = DurableEngine::open(
            &program,
            &template,
            EvalOptions::default(),
            &dir,
            DurabilityOptions::default(),
        )
        .expect("open");
        let chain: Vec<Fact> = (0..9).map(|i| (RelId(0), vec![i, i + 1])).collect();
        let mut budget = 20u64;
        let mut res =
            d.try_apply_batch_governed(&chain, &[], &Governor::with_budget(Budget::steps(budget)));
        let mut interrupts = 0;
        let summary = loop {
            match res {
                Ok(s) => break s,
                Err(DurableBatchError::Interrupted(_)) => {
                    interrupts += 1;
                    assert!(d.has_pending());
                    budget *= 2;
                    res = d.resume_batch(&Governor::with_budget(Budget::steps(budget)));
                }
                Err(DurableBatchError::Storage(e)) => panic!("storage error: {e}"),
            }
        };
        assert!(interrupts > 0, "tiny budget must interrupt");
        assert_eq!(summary.epoch, 1);
        // Exactly one WAL record despite the retries.
        assert_eq!(d.flush_stats().wal_records, 1);
        drop(d);
        let recovered = DurableEngine::open(
            &program,
            &template,
            EvalOptions::default(),
            &dir,
            DurabilityOptions::default(),
        )
        .expect("reopen");
        assert_eq!(recovered.epoch(), 1);
        let mut clean = IncrementalEngine::new(&program, &template, EvalOptions::default());
        clean.apply_batch(&chain, &[]);
        assert_same_state(recovered.engine(), &clean, "governed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
