//! Durable segmented storage: checksummed records, append-only segment
//! logs, and an atomically swapped manifest.
//!
//! This module is the on-disk substrate of crash recovery. It deliberately
//! knows nothing about Datalog — it persists byte payloads and
//! [`MutableStore`] snapshots; the WAL/checkpoint *protocol* lives in
//! `kv-datalog::durable`. The design mirrors the in-memory engine's
//! append-only discipline:
//!
//! - **Records are self-verifying.** Every payload is framed as
//!   `[magic][len][payload][checksum]` with an xxhash-style 64-bit digest
//!   (built from the same splitmix mixing the interner uses), so a reader
//!   can always tell a committed record from a torn or garbage tail.
//! - **Segments are fixed-size and append-only.** A [`SegmentedLog`]
//!   rolls to a fresh `-NNNNNN.seg` file once the current one exceeds its
//!   size target; files are never rewritten, so a crash can only damage
//!   the *tail* of the *last* segment.
//! - **Loading truncates, never panics.** [`SegmentedLog::load`] returns
//!   every record up to the first invalid frame. A bad frame at the tail
//!   of the final segment is the expected signature of a torn write and is
//!   silently truncated (reported in the [`LoadedLog`]); a bad frame
//!   *before* committed data — mid-file, or in a non-final segment — means
//!   real corruption and surfaces as a typed [`RecoveryError`].
//! - **The manifest swap is atomic.** [`write_manifest`] writes a
//!   temporary file and `rename`s it over `MANIFEST`, so the pointer from
//!   "current generation" to its checkpoint and WAL files flips all at
//!   once or not at all.
//!
//! [`MutableStore`] snapshots serialize arity-strided (the arena's own
//! layout) together with their support counts, epoch counter, and
//! epoch-mark generation, and deserialize by re-interning tuples in id
//! order — which reproduces the exact [`crate::TupleId`] assignment and
//! therefore preserves stage identity across a restart.

use crate::mutable::MutableStore;
use crate::store::TupleStore;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Frame marker opening every on-disk record (`"KVS1"` little-endian).
const RECORD_MAGIC: u32 = 0x3153_564B;

/// Frame overhead per record: magic + length + checksum.
const RECORD_OVERHEAD: usize = 4 + 4 + 8;

/// A typed failure while loading or writing durable state. The recovery
/// path never panics on bad bytes: every malformed input decodes to one
/// of these.
#[derive(Debug)]
pub enum RecoveryError {
    /// An operating-system I/O failure.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// What the operation was doing ("open", "read", "rename", …).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Bytes that committed durable state references failed validation —
    /// a checksum mismatch mid-log, an impossible length, a duplicate
    /// tuple in a snapshot.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the bad frame within the file.
        offset: u64,
        /// Human-readable diagnosis.
        detail: String,
    },
    /// The file decoded cleanly but describes a different world — wrong
    /// format version, wrong vocabulary fingerprint, inconsistent counts.
    Mismatch {
        /// The offending file.
        path: PathBuf,
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl RecoveryError {
    fn io(path: &Path, op: &'static str, source: std::io::Error) -> Self {
        RecoveryError::Io {
            path: path.to_path_buf(),
            op,
            source,
        }
    }

    fn corrupt(path: &Path, offset: u64, detail: impl Into<String>) -> Self {
        RecoveryError::Corrupt {
            path: path.to_path_buf(),
            offset,
            detail: detail.into(),
        }
    }

    /// A [`RecoveryError::Corrupt`] at `offset` of `path` (public so
    /// higher layers can report corruption inside decoded payloads with
    /// the same type the loaders use).
    pub fn corrupt_at(path: &Path, offset: u64, detail: impl Into<String>) -> Self {
        Self::corrupt(path, offset, detail)
    }

    /// A [`RecoveryError::Mismatch`] for `path` (public because the
    /// protocol layer in `kv-datalog` validates manifests against its
    /// own program fingerprint).
    pub fn mismatch(path: &Path, detail: impl Into<String>) -> Self {
        RecoveryError::Mismatch {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io { path, op, source } => {
                write!(f, "i/o failure during {op} on {}: {source}", path.display())
            }
            RecoveryError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "corrupt durable state in {} at byte {offset}: {detail}",
                path.display()
            ),
            RecoveryError::Mismatch { path, detail } => {
                write!(f, "durable state mismatch in {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An xxhash-style 64-bit digest over `bytes`: 8-byte lanes folded through
/// the engine's splitmix mixing constants, length-salted so a truncated
/// payload never collides with its prefix.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for lane in &mut chunks {
        let mut b = [0u8; 8];
        b.copy_from_slice(lane);
        h ^= u64::from_le_bytes(b).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    for &byte in chunks.remainder() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------
// Byte-level encoding helpers.
// ---------------------------------------------------------------------

/// Appends little-endian scalars to a byte buffer. All durable payloads in
/// the workspace are built with these two functions — there is exactly one
/// number format on disk.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to a byte buffer.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a decoded payload.
///
/// Every `get_*` returns `Err(description)` instead of panicking when the
/// payload is shorter than the schema expects; callers convert the
/// description into a [`RecoveryError::Corrupt`] with file context.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        match self.bytes.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(format!(
                "truncated payload: wanted {n} byte(s) of {what} at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )),
        }
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, what: &str) -> Result<u32, String> {
        let s = self.take(4, what)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, what: &str) -> Result<u64, String> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads `n` consecutive `u32`s.
    pub fn get_u32s(&mut self, n: usize, what: &str) -> Result<Vec<u32>, String> {
        let s = self.take(n.checked_mul(4).ok_or("u32 run length overflow")?, what)?;
        Ok(s.chunks_exact(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b.copy_from_slice(c);
                u32::from_le_bytes(b)
            })
            .collect())
    }
}

// ---------------------------------------------------------------------
// Record framing.
// ---------------------------------------------------------------------

/// Appends the framed encoding of `payload` to `buf`:
/// `[magic u32][len u32][payload][checksum64(payload) u64]`.
pub fn frame_record(buf: &mut Vec<u8>, payload: &[u8]) {
    put_u32(buf, RECORD_MAGIC);
    put_u32(buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    put_u64(buf, checksum64(payload));
}

/// The outcome of decoding one frame at an offset of a segment's bytes.
enum Frame<'a> {
    /// A valid record: its payload and the offset of the next frame.
    Ok { payload: &'a [u8], next: usize },
    /// Exactly at end-of-file: a cleanly closed segment.
    End,
    /// Anything else — torn write, garbage, checksum mismatch.
    Invalid { why: String },
}

fn read_frame(bytes: &[u8], at: usize) -> Frame<'_> {
    if at == bytes.len() {
        return Frame::End;
    }
    let header = match bytes.get(at..at + 8) {
        Some(h) => h,
        None => {
            return Frame::Invalid {
                why: format!("torn frame header: {} trailing byte(s)", bytes.len() - at),
            }
        }
    };
    let mut w = [0u8; 4];
    w.copy_from_slice(&header[..4]);
    let magic = u32::from_le_bytes(w);
    w.copy_from_slice(&header[4..]);
    let len = u32::from_le_bytes(w) as usize;
    if magic != RECORD_MAGIC {
        return Frame::Invalid {
            why: format!("bad record magic {magic:#010x}"),
        };
    }
    let body_at = at + 8;
    let payload = match bytes.get(body_at..body_at + len) {
        Some(p) => p,
        None => {
            return Frame::Invalid {
                why: format!(
                    "torn record body: length {len} but only {} byte(s) remain",
                    bytes.len() - body_at
                ),
            }
        }
    };
    let sum_at = body_at + len;
    let stored = match bytes.get(sum_at..sum_at + 8) {
        Some(s) => {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        }
        None => {
            return Frame::Invalid {
                why: "torn record checksum".to_string(),
            }
        }
    };
    if stored != checksum64(payload) {
        return Frame::Invalid {
            why: "record checksum mismatch".to_string(),
        };
    }
    Frame::Ok {
        payload,
        next: sum_at + 8,
    }
}

// ---------------------------------------------------------------------
// Segmented logs.
// ---------------------------------------------------------------------

/// A loaded segment log: every committed record, in append order, plus
/// what the loader had to tolerate at the tail.
#[derive(Debug)]
pub struct LoadedLog {
    /// Committed record payloads in append order.
    pub records: Vec<Vec<u8>>,
    /// Number of segment files found.
    pub segments: usize,
    /// Whether an invalid tail (torn write or trailing garbage) was
    /// truncated from the final segment.
    pub torn_tail: bool,
}

/// An append-only log of checksummed records split across fixed-size
/// segment files `{base}-NNNNNN.seg`.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    base: String,
    /// Roll to a new segment once the current file reaches this size.
    segment_bytes: u64,
    /// Index of the segment currently open for append.
    index: usize,
    /// Bytes already in the current segment.
    written: u64,
    /// Path of the segment currently open for append (kept so the hot
    /// append path never rebuilds it just for error context).
    path: PathBuf,
    file: File,
    /// Total record bytes appended through this handle (frame included).
    appended: u64,
}

/// The path of segment `index` of log `base` in `dir`.
pub fn segment_path(dir: &Path, base: &str, index: usize) -> PathBuf {
    dir.join(format!("{base}-{index:06}.seg"))
}

impl SegmentedLog {
    /// Creates a fresh log (segment 0, empty). Fails if segment 0 already
    /// exists — logs are never silently overwritten; recovery either
    /// [`load`](Self::load)s and [`reopen`](Self::reopen)s an existing log
    /// or the protocol layer starts a new generation under a new base.
    pub fn create(dir: &Path, base: &str, segment_bytes: u64) -> Result<Self, RecoveryError> {
        let path = segment_path(dir, base, 0);
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| RecoveryError::io(&path, "create segment", e))?;
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            base: base.to_string(),
            segment_bytes: segment_bytes.max(RECORD_OVERHEAD as u64),
            index: 0,
            written: 0,
            path,
            file,
            appended: 0,
        })
    }

    /// Loads every committed record of log `base` in `dir`. A missing
    /// segment 0 is an empty log. Invalid bytes at the tail of the final
    /// segment are tolerated (torn write); invalid bytes anywhere else are
    /// a [`RecoveryError::Corrupt`].
    pub fn load(dir: &Path, base: &str) -> Result<LoadedLog, RecoveryError> {
        let mut records = Vec::new();
        let mut segments = 0usize;
        let mut torn_tail = false;
        loop {
            let path = segment_path(dir, base, segments);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(RecoveryError::io(&path, "read segment", e)),
            };
            segments += 1;
            let last_segment = !segment_path(dir, base, segments).exists();
            let mut at = 0usize;
            loop {
                match read_frame(&bytes, at) {
                    Frame::Ok { payload, next } => {
                        records.push(payload.to_vec());
                        at = next;
                    }
                    Frame::End => break,
                    Frame::Invalid { why } => {
                        if last_segment {
                            // The torn tail of the final segment is the
                            // normal signature of a crash mid-append:
                            // truncate to the last valid record.
                            torn_tail = true;
                            break;
                        }
                        return Err(RecoveryError::corrupt(
                            &path,
                            at as u64,
                            format!("{why} (followed by committed segment(s))"),
                        ));
                    }
                }
            }
            if torn_tail {
                break;
            }
        }
        Ok(LoadedLog {
            records,
            segments,
            torn_tail,
        })
    }

    /// Reopens an existing log for append, truncating any invalid tail of
    /// the final segment first (so the next append lands right after the
    /// last committed record). A log with no segments starts at segment 0.
    pub fn reopen(dir: &Path, base: &str, segment_bytes: u64) -> Result<Self, RecoveryError> {
        // Find the last existing segment.
        let mut count = 0usize;
        while segment_path(dir, base, count).exists() {
            count += 1;
        }
        if count == 0 {
            return Self::create(dir, base, segment_bytes);
        }
        let index = count - 1;
        let path = segment_path(dir, base, index);
        let bytes = fs::read(&path).map_err(|e| RecoveryError::io(&path, "read segment", e))?;
        let mut at = 0usize;
        while let Frame::Ok { next, .. } = read_frame(&bytes, at) {
            at = next;
        }
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| RecoveryError::io(&path, "open segment", e))?;
        file.set_len(at as u64)
            .map_err(|e| RecoveryError::io(&path, "truncate torn tail", e))?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| RecoveryError::io(&path, "seek", e))?;
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            base: base.to_string(),
            segment_bytes: segment_bytes.max(RECORD_OVERHEAD as u64),
            index,
            written: at as u64,
            path,
            file,
            appended: 0,
        })
    }

    fn roll_if_full(&mut self, incoming: u64) -> Result<(), RecoveryError> {
        if self.written > 0 && self.written + incoming > self.segment_bytes {
            self.index += 1;
            let path = segment_path(&self.dir, &self.base, self.index);
            self.file = OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
                .map_err(|e| RecoveryError::io(&path, "create segment", e))?;
            self.path = path;
            self.written = 0;
        }
        Ok(())
    }

    /// Appends one framed record, rolling to a new segment when the
    /// current one is full. The bytes are handed to the OS in a single
    /// write; call [`sync`](Self::sync) to force them to stable storage.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), RecoveryError> {
        let mut buf = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
        frame_record(&mut buf, payload);
        self.roll_if_full(buf.len() as u64)?;
        self.file
            .write_all(&buf)
            .map_err(|e| RecoveryError::io(&self.path, "append record", e))?;
        self.written += buf.len() as u64;
        self.appended += buf.len() as u64;
        Ok(())
    }

    /// Crash simulation for the recovery chaos suite: appends only the
    /// first `keep` bytes of the framed record — exactly what a power cut
    /// mid-`write` leaves behind — without updating the append counters.
    /// The log handle must not be used afterwards; tests abort the
    /// process right after calling this.
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> Result<(), RecoveryError> {
        let mut buf = Vec::with_capacity(payload.len() + RECORD_OVERHEAD);
        frame_record(&mut buf, payload);
        buf.truncate(keep.max(1).min(buf.len().saturating_sub(1)));
        self.roll_if_full(buf.len() as u64)?;
        self.file
            .write_all(&buf)
            .map_err(|e| RecoveryError::io(&self.path, "append torn record", e))
    }

    /// Forces appended records to stable storage (`fsync`).
    pub fn sync(&mut self) -> Result<(), RecoveryError> {
        self.file
            .sync_data()
            .map_err(|e| RecoveryError::io(&self.path, "sync segment", e))
    }

    /// Total framed bytes appended through this handle.
    pub fn appended_bytes(&self) -> u64 {
        self.appended
    }

    /// Removes every segment file of log `base` in `dir` (best-effort:
    /// a file that vanishes concurrently is not an error).
    pub fn remove_all(dir: &Path, base: &str) {
        let mut i = 0usize;
        loop {
            let path = segment_path(dir, base, i);
            if fs::remove_file(&path).is_err() {
                break;
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------

/// The manifest file name within a durable directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";
const MANIFEST_VERSION: u32 = 1;

/// The root pointer of a durable directory: which generation is current,
/// what epoch its checkpoint snapshot covers, and a fingerprint of the
/// world it belongs to. Swapped atomically by [`write_manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint generation; names the live `ckpt-*/wal-*` files.
    pub generation: u64,
    /// Engine epoch covered by the generation's checkpoint snapshot
    /// (0 = no snapshot: replay starts from the empty engine).
    pub checkpoint_epoch: u64,
    /// Caller-defined fingerprint of the program/vocabulary/universe the
    /// directory serves; validated on open.
    pub fingerprint: u64,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(4 + 8 * 3);
        put_u32(&mut p, MANIFEST_VERSION);
        put_u64(&mut p, self.generation);
        put_u64(&mut p, self.checkpoint_epoch);
        put_u64(&mut p, self.fingerprint);
        p
    }

    fn decode(path: &Path, payload: &[u8]) -> Result<Self, RecoveryError> {
        let fail = |d: String| RecoveryError::corrupt(path, 0, d);
        let mut r = ByteReader::new(payload);
        let version = r.get_u32("manifest version").map_err(fail)?;
        if version != MANIFEST_VERSION {
            return Err(RecoveryError::mismatch(
                path,
                format!("manifest version {version}, expected {MANIFEST_VERSION}"),
            ));
        }
        let generation = r.get_u64("generation").map_err(fail)?;
        let checkpoint_epoch = r.get_u64("checkpoint epoch").map_err(fail)?;
        let fingerprint = r.get_u64("fingerprint").map_err(fail)?;
        Ok(Manifest {
            generation,
            checkpoint_epoch,
            fingerprint,
        })
    }
}

/// Writes `manifest` durably: framed into `MANIFEST.tmp`, synced, then
/// renamed over `MANIFEST` (atomic on POSIX filesystems), with a
/// directory sync when `fsync` is set so the rename itself is durable.
pub fn write_manifest(dir: &Path, manifest: &Manifest, fsync: bool) -> Result<(), RecoveryError> {
    let tmp = dir.join(MANIFEST_TMP_NAME);
    let dst = dir.join(MANIFEST_NAME);
    let mut buf = Vec::new();
    frame_record(&mut buf, &manifest.encode());
    let mut file =
        File::create(&tmp).map_err(|e| RecoveryError::io(&tmp, "create manifest tmp", e))?;
    file.write_all(&buf)
        .map_err(|e| RecoveryError::io(&tmp, "write manifest tmp", e))?;
    if fsync {
        file.sync_data()
            .map_err(|e| RecoveryError::io(&tmp, "sync manifest tmp", e))?;
    }
    drop(file);
    fs::rename(&tmp, &dst).map_err(|e| RecoveryError::io(&dst, "rename manifest", e))?;
    if fsync {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads and validates the manifest of a durable directory. `Ok(None)`
/// when no manifest exists (a fresh directory); torn or garbage bytes are
/// a [`RecoveryError::Corrupt`] — the manifest is one small record written
/// through an atomic rename, so unlike a log tail it is never expected to
/// be torn.
pub fn read_manifest(dir: &Path) -> Result<Option<Manifest>, RecoveryError> {
    let path = dir.join(MANIFEST_NAME);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(RecoveryError::io(&path, "read manifest", e)),
    };
    match read_frame(&bytes, 0) {
        Frame::Ok { payload, next } if next == bytes.len() => {
            Manifest::decode(&path, payload).map(Some)
        }
        Frame::Ok { next, .. } => Err(RecoveryError::corrupt(
            &path,
            next as u64,
            format!(
                "{} trailing byte(s) after the manifest record",
                bytes.len() - next
            ),
        )),
        Frame::End => Err(RecoveryError::corrupt(&path, 0, "empty manifest file")),
        Frame::Invalid { why } => Err(RecoveryError::corrupt(&path, 0, why)),
    }
}

// ---------------------------------------------------------------------
// Counter snapshots.
// ---------------------------------------------------------------------

/// Appends the encoding of an [`EvalStats`](crate::store::EvalStats) record (eight `u64` counters
/// in declaration order).
pub fn encode_eval_stats(buf: &mut Vec<u8>, s: &crate::store::EvalStats) {
    for v in [
        s.tuples_interned,
        s.duplicate_derivations,
        s.join_probes,
        s.magic_probes,
        s.block_probes,
        s.gallop_steps,
        s.wcoj_rules,
        s.stages,
    ] {
        put_u64(buf, v);
    }
}

/// Decodes an [`EvalStats`](crate::store::EvalStats) record written by [`encode_eval_stats`].
pub fn decode_eval_stats(
    r: &mut ByteReader<'_>,
    path: &Path,
) -> Result<crate::store::EvalStats, RecoveryError> {
    let at = r.pos() as u64;
    let mut get = |what| {
        r.get_u64(what)
            .map_err(|d| RecoveryError::corrupt(path, at, d))
    };
    Ok(crate::store::EvalStats {
        tuples_interned: get("tuples_interned")?,
        duplicate_derivations: get("duplicate_derivations")?,
        join_probes: get("join_probes")?,
        magic_probes: get("magic_probes")?,
        block_probes: get("block_probes")?,
        gallop_steps: get("gallop_steps")?,
        wcoj_rules: get("wcoj_rules")?,
        stages: get("stages")?,
    })
}

// ---------------------------------------------------------------------
// MutableStore snapshots.
// ---------------------------------------------------------------------

/// Appends the snapshot encoding of `store` to `buf`: arity, tuple count,
/// epoch counter, epoch marks, the arity-strided element data in id
/// order, and the per-tuple support counts.
pub fn encode_mutable_store(buf: &mut Vec<u8>, store: &MutableStore) {
    let n = store.len();
    put_u32(buf, store.arity() as u32);
    put_u32(buf, n as u32);
    put_u64(buf, store.epoch());
    let marks = store.epoch_marks();
    put_u32(buf, marks.len() as u32);
    for &m in marks {
        put_u32(buf, m);
    }
    for &e in store.store().range_slice(store.store().id_range()) {
        put_u32(buf, e);
    }
    for id in 0..n as u32 {
        put_u32(buf, store.support(crate::store::TupleId(id)));
    }
}

/// Decodes one [`MutableStore`] snapshot from `r`, re-interning tuples in
/// id order so the rebuilt arena assigns the exact ids the snapshot was
/// taken with. `path` contextualizes errors.
pub fn decode_mutable_store(
    r: &mut ByteReader<'_>,
    path: &Path,
) -> Result<MutableStore, RecoveryError> {
    let at = r.pos() as u64;
    let fail = |d: String| RecoveryError::corrupt(path, at, d);
    let arity = r.get_u32("store arity").map_err(&fail)? as usize;
    let n = r.get_u32("store tuple count").map_err(&fail)? as usize;
    if arity > 64 || n > (u32::MAX as usize) / arity.max(1) {
        return Err(fail(format!(
            "implausible store shape: arity {arity}, {n} tuple(s)"
        )));
    }
    let epoch = r.get_u64("store epoch").map_err(&fail)?;
    let marks_len = r.get_u32("epoch mark count").map_err(&fail)? as usize;
    if marks_len as u64 > epoch {
        return Err(fail(format!(
            "{marks_len} epoch mark(s) exceed epoch {epoch}"
        )));
    }
    let marks = r.get_u32s(marks_len, "epoch marks").map_err(&fail)?;
    let data = r.get_u32s(n * arity, "tuple data").map_err(&fail)?;
    let support = r.get_u32s(n, "support counts").map_err(&fail)?;
    let mut rebuilt = TupleStore::with_capacity(arity, n);
    for tuple in data.chunks_exact(arity.max(1)).take(n) {
        let (_, fresh) = rebuilt.intern(&tuple[..arity]);
        if !fresh {
            return Err(fail(format!("duplicate tuple {tuple:?} in store snapshot")));
        }
    }
    if arity == 0 && n > 1 {
        return Err(fail(format!("{n} distinct nullary tuples")));
    }
    if arity == 0 && n == 1 {
        rebuilt.intern(&[]);
    }
    MutableStore::from_parts(rebuilt, support, epoch, marks)
        .map_err(|d| RecoveryError::corrupt(path, at, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("kv-persist-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&d).expect("create temp dir");
        d
    }

    #[test]
    fn checksum_is_length_salted_and_sensitive() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefg"));
        let mut bytes = b"hello durable world, longer than one lane".to_vec();
        let base = checksum64(&bytes);
        for i in 0..bytes.len() {
            bytes[i] ^= 1;
            assert_ne!(base, checksum64(&bytes), "flip at {i} must change digest");
            bytes[i] ^= 1;
        }
        assert_eq!(base, checksum64(&bytes));
    }

    #[test]
    fn log_round_trips_records_across_segments() {
        let dir = temp_dir("roundtrip");
        let payloads: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 1 + i as usize]).collect();
        {
            let mut log = SegmentedLog::create(&dir, "wal-0000", 64).expect("create");
            for p in &payloads {
                log.append(p).expect("append");
            }
            log.sync().expect("sync");
            assert!(log.appended_bytes() > 0);
        }
        let loaded = SegmentedLog::load(&dir, "wal-0000").expect("load");
        assert_eq!(loaded.records, payloads);
        assert!(loaded.segments > 1, "64-byte segments must roll");
        assert!(!loaded.torn_tail);
        // Reopen + append lands after the committed records.
        let mut log = SegmentedLog::reopen(&dir, "wal-0000", 64).expect("reopen");
        log.append(b"tail").expect("append");
        let again = SegmentedLog::load(&dir, "wal-0000").expect("load");
        assert_eq!(again.records.len(), payloads.len() + 1);
        assert_eq!(again.records.last().map(Vec::as_slice), Some(&b"tail"[..]));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reopen_heals_it() {
        let dir = temp_dir("torn");
        {
            let mut log = SegmentedLog::create(&dir, "w", 1 << 16).expect("create");
            log.append(b"one").expect("append");
            log.append(b"two").expect("append");
            log.append_torn(b"three-never-committed", 7).expect("torn");
        }
        let loaded = SegmentedLog::load(&dir, "w").expect("load");
        assert_eq!(loaded.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(loaded.torn_tail);
        // Reopen truncates the torn bytes; the next append is then valid.
        let mut log = SegmentedLog::reopen(&dir, "w", 1 << 16).expect("reopen");
        log.append(b"three").expect("append");
        let healed = SegmentedLog::load(&dir, "w").expect("load");
        assert!(!healed.torn_tail);
        assert_eq!(
            healed.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trailing_garbage_is_tolerated_only_on_the_final_segment() {
        let dir = temp_dir("garbage");
        {
            let mut log = SegmentedLog::create(&dir, "w", 48).expect("create");
            for i in 0..12u8 {
                log.append(&[i; 9]).expect("append");
            }
        }
        let clean = SegmentedLog::load(&dir, "w").expect("load");
        assert!(clean.segments > 1);
        // Garbage at the tail of the *final* segment: truncated.
        let last = segment_path(&dir, "w", clean.segments - 1);
        let mut f = OpenOptions::new().append(true).open(&last).expect("open");
        f.write_all(b"\xde\xad\xbe\xef").expect("write");
        drop(f);
        let tolerated = SegmentedLog::load(&dir, "w").expect("load");
        assert_eq!(tolerated.records.len(), 12);
        assert!(tolerated.torn_tail);
        // The same garbage on an *earlier* segment is real corruption.
        let first = segment_path(&dir, "w", 0);
        let mut f = OpenOptions::new().append(true).open(&first).expect("open");
        f.write_all(b"\xde\xad").expect("write");
        drop(f);
        let err = SegmentedLog::load(&dir, "w").expect_err("mid-log corruption");
        assert!(matches!(err, RecoveryError::Corrupt { .. }), "got {err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_swap_is_atomic_and_validated() {
        let dir = temp_dir("manifest");
        assert!(read_manifest(&dir).expect("fresh dir").is_none());
        let m1 = Manifest {
            generation: 0,
            checkpoint_epoch: 0,
            fingerprint: 0xfeed,
        };
        write_manifest(&dir, &m1, true).expect("write");
        assert_eq!(read_manifest(&dir).expect("read"), Some(m1));
        let m2 = Manifest {
            generation: 3,
            checkpoint_epoch: 17,
            fingerprint: 0xfeed,
        };
        write_manifest(&dir, &m2, false).expect("write");
        assert_eq!(read_manifest(&dir).expect("read"), Some(m2.clone()));
        // No MANIFEST.tmp survives a successful swap.
        assert!(!dir.join(MANIFEST_TMP_NAME).exists());
        // A corrupted manifest is a typed error, not a panic.
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).expect("read bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).expect("write corrupt");
        assert!(matches!(
            read_manifest(&dir),
            Err(RecoveryError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutable_store_snapshot_round_trips_ids_supports_and_epochs() {
        let mut m = MutableStore::new(2);
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..50 {
            let t = [rng.gen_range(0u32..9), rng.gen_range(0u32..9)];
            if rng.gen_bool(0.3) {
                m.retract(&t);
            } else {
                m.insert(&t);
            }
            if rng.gen_bool(0.2) {
                m.commit_epoch();
            }
        }
        let mut buf = Vec::new();
        encode_mutable_store(&mut buf, &m);
        let mut r = ByteReader::new(&buf);
        let back = decode_mutable_store(&mut r, Path::new("mem")).expect("round trip");
        assert!(r.is_exhausted());
        assert_eq!(back.arity(), m.arity());
        assert_eq!(back.len(), m.len());
        assert_eq!(back.epoch(), m.epoch());
        assert_eq!(back.epoch_marks(), m.epoch_marks());
        for id in 0..m.len() as u32 {
            let id = crate::store::TupleId(id);
            // Identical ids, tuples, and supports: stage identity survives.
            assert_eq!(back.store().get(id), m.store().get(id));
            assert_eq!(back.support(id), m.support(id));
        }
    }

    #[test]
    fn corrupted_snapshots_decode_to_typed_errors() {
        let mut m = MutableStore::new(3);
        for i in 0..10u32 {
            m.insert(&[i, i + 1, i + 2]);
        }
        m.commit_epoch();
        let mut buf = Vec::new();
        encode_mutable_store(&mut buf, &m);
        // Truncation at every prefix length: typed error or clean success,
        // never a panic.
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(
                decode_mutable_store(&mut r, Path::new("mem")).is_err(),
                "truncation at {cut} must fail (snapshot is length-exact)"
            );
        }
        // A duplicated tuple row is caught by the re-interning pass.
        let mut dup = buf.clone();
        // Rows start after arity(4) + n(4) + epoch(8) + marks_len(4) + marks(4).
        let rows_at = 4 + 4 + 8 + 4 + 4;
        let row = dup[rows_at..rows_at + 12].to_vec();
        dup[rows_at + 12..rows_at + 24].copy_from_slice(&row);
        let mut r = ByteReader::new(&dup);
        let err = decode_mutable_store(&mut r, Path::new("mem")).expect_err("duplicate row");
        assert!(err.to_string().contains("duplicate tuple"), "got {err}");
    }
}
