//! Property and fuzz tests for the durable storage substrate: mutable
//! store compaction edge cases, serialization round-trips, and loader
//! robustness against arbitrary byte damage (bit flips, truncation,
//! trailing garbage). Driven by the in-tree [`SplitMix64`] generator —
//! seed-deterministic and offline, like `properties.rs`.

use kv_structures::persist::{
    self, checksum64, decode_mutable_store, encode_mutable_store, frame_record, ByteReader,
    Manifest, RecoveryError, SegmentedLog,
};
use kv_structures::rng::SplitMix64;
use kv_structures::{Element, MutableStore, PosIndex, TupleId, TupleStore};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kv-structures-durability-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A random mutable-store history: inserts, retracts and kills, leaving a
/// mix of live, decremented, and dead tuples.
fn random_store(seed: u64, arity: usize, ops: usize) -> MutableStore {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut m = MutableStore::new(arity);
    for _ in 0..ops {
        let roll = rng.next_u64() % 10;
        let tuple: Vec<Element> = (0..arity).map(|_| rng.gen_range(0u32..6)).collect();
        if roll < 5 {
            m.insert(&tuple);
        } else if roll < 8 {
            m.retract(&tuple);
        } else if roll < 9 {
            if let Some(id) = m.lookup(&tuple) {
                m.kill(id);
            }
        }
        // Roll 9 is an idle step: the history draws it but the store is
        // left as it is.
    }
    m
}

/// The live content of a store as a sorted multiset of (tuple, support).
fn live_content(m: &MutableStore) -> Vec<(Vec<Element>, u32)> {
    let mut rows: Vec<(Vec<Element>, u32)> = m
        .live_iter()
        .map(|t| {
            let sup = m.lookup(t).map(|id| m.support(id)).unwrap_or(0);
            (t.to_vec(), sup)
        })
        .collect();
    rows.sort();
    rows
}

// ---------------------------------------------------------------------
// Compaction properties.
// ---------------------------------------------------------------------

/// `compact_in_place` preserves exactly the live content (tuples and
/// support counts) and leaves a contiguous fully-live arena.
#[test]
fn compaction_strategies_preserve_live_content() {
    for seed in 0..48u64 {
        for arity in [1usize, 2, 3] {
            let base = random_store(seed * 31 + arity as u64, arity, 60);
            let expect = live_content(&base);
            let mut swapped = base.clone();
            swapped.compact_in_place(&mut []);
            assert_eq!(live_content(&swapped), expect, "in-place seed={seed}");
            assert_eq!(
                swapped.len(),
                swapped.live_len(),
                "in-place left tombstones"
            );
        }
    }
}

/// Position indexes kept across random appends, kills and in-place
/// compactions equal indexes built fresh over the final store, and every
/// posting stays strictly increasing.
#[test]
fn maintained_indexes_equal_fresh_ones_across_compactions() {
    for seed in 0..32u64 {
        let arity = 1 + (seed % 3) as usize;
        let universe = 12u32;
        let mut rng = SplitMix64::seed_from_u64(0x1dec5 + seed);
        let mut m = MutableStore::new(arity);
        let mut indexes: Vec<PosIndex> = (0..arity).map(PosIndex::new).collect();
        for _round in 0..6 {
            for _ in 0..rng.gen_range(0u32..40) {
                let t: Vec<Element> = (0..arity).map(|_| rng.gen_range(0..universe)).collect();
                m.insert(&t);
            }
            for ix in &mut indexes {
                ix.update(m.store());
            }
            for id in 0..m.len() as u32 {
                if rng.gen_bool(0.3) {
                    m.kill(TupleId(id));
                }
            }
            // Every other round leaves the last appends unindexed, which
            // compaction must pick up itself.
            if rng.gen_bool(0.5) {
                for _ in 0..rng.gen_range(0u32..5) {
                    let t: Vec<Element> = (0..arity).map(|_| rng.gen_range(0..universe)).collect();
                    m.insert(&t);
                }
            }
            m.compact_in_place(&mut indexes);
            assert_eq!(m.len(), m.live_len(), "seed {seed}: tombstones left");
            for ix in &indexes {
                let mut fresh = PosIndex::new(ix.pos());
                fresh.update(m.store());
                assert_eq!(ix, &fresh, "seed {seed}: index on {} drifted", ix.pos());
                for e in 0..universe {
                    let posting = ix.probe(e, m.store().id_range());
                    assert!(
                        posting.windows(2).all(|w| w[0] < w[1]),
                        "seed {seed}: unsorted posting for {e}"
                    );
                    for &id in posting {
                        assert_eq!(m.store().get(TupleId(id))[ix.pos()], e);
                    }
                }
            }
        }
    }
}

/// Edge case: compacting a store with zero live tuples (everything
/// retracted or killed) empties the arena without panicking.
#[test]
fn compacting_zero_live_tuples() {
    for kill_all in [false, true] {
        let mut m = MutableStore::new(2);
        for i in 0..10u32 {
            m.insert(&[i, i + 1]);
        }
        for i in 0..10u32 {
            if kill_all {
                let id = m.lookup(&[i, i + 1]).expect("interned");
                m.kill(id);
            } else {
                m.retract(&[i, i + 1]);
            }
        }
        assert_eq!(m.live_len(), 0);
        assert_eq!(m.len(), 10);
        m.compact_in_place(&mut []);
        assert_eq!(m.len(), 0);
        assert_eq!(m.live_len(), 0);
        // The emptied store is still usable.
        m.insert(&[3, 4]);
        assert!(m.contains_live(&[3, 4]));
    }
}

/// Edge case: an all-dead contiguous run in the middle of the arena
/// (the swap-fill path must walk through it without skipping holes).
#[test]
fn compacting_all_dead_middle_segment() {
    let mut m = MutableStore::new(1);
    for i in 0..30u32 {
        m.insert(&[i]);
    }
    // Kill a long middle run [5, 25).
    for i in 5..25u32 {
        m.retract(&[i]);
    }
    let expect = live_content(&m);
    m.compact_in_place(&mut []);
    assert_eq!(live_content(&m), expect);
    assert_eq!(m.len(), 10);
    // Every survivor is findable at its new id.
    for (t, sup) in expect {
        let id = m.lookup(&t).expect("survivor");
        assert_eq!(m.support(id), sup);
    }
}

/// `TupleStore::swap_remove` across every position of a store,
/// including the final-slot special case: the dense invariant holds
/// and lookups stay exact.
#[test]
fn swap_remove_every_position() {
    for remove_at in 0..6u32 {
        let mut s = TupleStore::new(2);
        for i in 0..6u32 {
            s.intern(&[i, 10 + i]);
        }
        s.swap_remove(kv_structures::TupleId(remove_at));
        assert_eq!(s.len(), 5);
        // The removed tuple is gone; everything else is findable.
        assert!(s.lookup(&[remove_at, 10 + remove_at]).is_none());
        for i in 0..6u32 {
            if i != remove_at {
                let id = s.lookup(&[i, 10 + i]).expect("survivor");
                assert_eq!(s.get(id), &[i, 10 + i][..]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serialization round-trips.
// ---------------------------------------------------------------------

/// `encode_mutable_store`/`decode_mutable_store` round-trip arbitrary
/// histories exactly: same arena order and supports.
#[test]
fn mutable_store_codec_roundtrip() {
    let path = PathBuf::from("roundtrip-test");
    for seed in 0..64u64 {
        for arity in [0usize, 1, 2, 3] {
            let m = random_store(seed * 7 + 1, arity.max(1), 50);
            // Nullary stores get their own tiny history (random_store
            // needs distinct tuples, a nullary store has only one).
            let m = if arity == 0 {
                let mut n = MutableStore::new(0);
                if seed % 2 == 0 {
                    n.insert(&[]);
                }
                n
            } else {
                m
            };
            let mut buf = Vec::new();
            encode_mutable_store(&mut buf, &m);
            let mut r = ByteReader::new(&buf);
            let back = decode_mutable_store(&mut r, &path).expect("round-trip decodes");
            assert!(r.is_exhausted(), "trailing bytes");
            assert_eq!(back.len(), m.len());
            assert_eq!(back.support_counts(), m.support_counts());
            assert_eq!(live_content(&back), live_content(&m));
            // Arena id order is reproduced exactly (stage identity).
            for (a, b) in m.store().iter().zip(back.store().iter()) {
                assert_eq!(a, b, "arena order diverged");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Loader fuzz: damage must decode to typed errors, never panics.
// ---------------------------------------------------------------------

/// A small healthy two-record log on disk, returned as (dir, bytes of
/// segment 0).
fn healthy_log(tag: &str) -> (PathBuf, PathBuf, Vec<u8>) {
    let dir = temp_dir(tag);
    let mut log = SegmentedLog::create(&dir, "fuzz", 1 << 20).expect("create log");
    log.append(&[1, 2, 3, 4, 5]).expect("append");
    log.append(&[0xAA; 33]).expect("append");
    log.sync().expect("sync");
    drop(log);
    let seg = persist::segment_path(&dir, "fuzz", 0);
    let bytes = std::fs::read(&seg).expect("read segment");
    (dir, seg, bytes)
}

/// Bit-flip every byte of a segment file (three masks each): the loader
/// either returns a typed error, or succeeds having truncated a torn
/// *tail* — it never panics and never invents records.
#[test]
fn segment_loader_survives_every_bitflip() {
    let (dir, seg, bytes) = healthy_log("bitflip");
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x10, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= mask;
            std::fs::write(&seg, &bad).expect("write damaged");
            match SegmentedLog::load(&dir, "fuzz") {
                Ok(loaded) => {
                    // Damage in the second record is tail-truncatable;
                    // damage in the first must fail the whole load (it
                    // is not the tail). Either way, no more records
                    // than were written, and surviving records intact.
                    assert!(loaded.records.len() <= 2, "invented records at byte {i}");
                    if let Some(first) = loaded.records.first() {
                        if loaded.records.len() == 2 || loaded.torn_tail || i >= 21 {
                            assert_eq!(first, &vec![1u8, 2, 3, 4, 5], "record 0 damaged at {i}");
                        }
                    }
                }
                Err(RecoveryError::Corrupt { .. }) | Err(RecoveryError::Mismatch { .. }) => {}
                Err(e) => panic!("unexpected error class at byte {i}: {e}"),
            }
        }
    }
    std::fs::write(&seg, &bytes).expect("restore");
    let loaded = SegmentedLog::load(&dir, "fuzz").expect("restored loads");
    assert_eq!(loaded.records.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncate the segment at every possible length: the loader keeps the
/// longest valid record prefix and flags (or errors on) the rest.
#[test]
fn segment_loader_survives_every_truncation() {
    let (dir, seg, bytes) = healthy_log("truncate");
    let rec0_end = 16 + 5; // frame overhead + payload of record 0
    for len in 0..bytes.len() {
        std::fs::write(&seg, &bytes[..len]).expect("write truncated");
        let loaded = SegmentedLog::load(&dir, "fuzz").expect("truncation is always tolerable");
        if len < rec0_end {
            assert_eq!(loaded.records.len(), 0, "len={len}");
            assert_eq!(loaded.torn_tail, len > 0, "len={len}");
        } else if len < bytes.len() {
            assert_eq!(loaded.records.len(), 1, "len={len}");
            assert_eq!(loaded.records[0], vec![1, 2, 3, 4, 5]);
            assert_eq!(loaded.torn_tail, len > rec0_end, "len={len}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Append garbage after the last valid record: tolerated (truncated) on
/// the final segment, rejected as corruption on a non-final one.
#[test]
fn trailing_garbage_tolerated_only_on_final_segment() {
    let (dir, seg, bytes) = healthy_log("garbage");
    let mut rng = SplitMix64::seed_from_u64(99);
    for glen in [1usize, 7, 16, 64] {
        let mut bad = bytes.clone();
        for _ in 0..glen {
            bad.push(rng.next_u64() as u8);
        }
        std::fs::write(&seg, &bad).expect("write garbage");
        let loaded = SegmentedLog::load(&dir, "fuzz").expect("final-segment garbage tolerated");
        assert_eq!(loaded.records.len(), 2, "glen={glen}");
        assert!(loaded.torn_tail, "glen={glen}");
        // Reopen truncates the garbage and appending works again.
        let mut log = SegmentedLog::reopen(&dir, "fuzz", 1 << 20).expect("reopen");
        log.append(&[9, 9]).expect("append after truncation");
        drop(log);
        let healed = SegmentedLog::load(&dir, "fuzz").expect("healed log");
        assert_eq!(healed.records.len(), 3);
        assert!(!healed.torn_tail);
        std::fs::write(&seg, &bytes).expect("restore");
    }
    // Same garbage on a NON-final segment is committed-data loss: typed
    // corruption, not silent truncation.
    let mut bad = bytes.clone();
    bad.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
    std::fs::write(&seg, &bad).expect("write garbage");
    let seg1 = persist::segment_path(&dir, "fuzz", 1);
    let mut frame = Vec::new();
    frame_record(&mut frame, &[7, 7, 7]);
    std::fs::write(&seg1, &frame).expect("write segment 1");
    match SegmentedLog::load(&dir, "fuzz") {
        Err(RecoveryError::Corrupt { .. }) => {}
        other => panic!("mid-log garbage must be Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest fuzz: bit-flip every byte, truncate at every length, append
/// garbage — a damaged manifest is always a typed error (the root
/// pointer is never guess-repaired), and the atomic rewrite heals it.
#[test]
fn manifest_fuzz_is_typed_and_atomic() {
    let dir = temp_dir("manifest");
    let manifest = Manifest {
        generation: 3,
        checkpoint_epoch: 17,
        fingerprint: 0xFEED_BEEF_CAFE_0001,
    };
    persist::write_manifest(&dir, &manifest, false).expect("write manifest");
    let path = dir.join(persist::MANIFEST_NAME);
    let bytes = std::fs::read(&path).expect("read manifest");
    let back = persist::read_manifest(&dir)
        .expect("read back")
        .expect("present");
    assert_eq!(back.generation, 3);
    assert_eq!(back.checkpoint_epoch, 17);

    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= mask;
            std::fs::write(&path, &bad).expect("write damaged");
            match persist::read_manifest(&dir) {
                Err(RecoveryError::Corrupt { .. }) | Err(RecoveryError::Mismatch { .. }) => {}
                other => panic!("flip at {i}: manifest damage must be typed, got {other:?}"),
            }
        }
    }
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).expect("write truncated");
        assert!(
            persist::read_manifest(&dir).is_err(),
            "truncated manifest at {len} must not decode"
        );
    }
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0x5A; 9]);
    std::fs::write(&path, &padded).expect("write padded");
    assert!(
        persist::read_manifest(&dir).is_err(),
        "manifest trailing garbage must not decode"
    );
    // The write-temp-then-rename path heals any damage atomically.
    persist::write_manifest(&dir, &manifest, true).expect("rewrite");
    let healed = persist::read_manifest(&dir)
        .expect("healed")
        .expect("present");
    assert_eq!(healed.fingerprint, manifest.fingerprint);
    std::fs::remove_dir_all(&dir).ok();
}

/// Damaged store payloads inside an intact frame: every bit flip of an
/// encoded `MutableStore` either round-trips (benign counter flip) or
/// fails typed — never panics, never violates `from_parts` invariants.
#[test]
fn mutable_store_decoder_survives_every_bitflip() {
    let path = PathBuf::from("decoder-fuzz");
    let m = random_store(5, 2, 40);
    let mut buf = Vec::new();
    encode_mutable_store(&mut buf, &m);
    for i in 0..buf.len() {
        for mask in [0x01u8, 0xFF] {
            let mut bad = buf.clone();
            bad[i] ^= mask;
            let mut r = ByteReader::new(&bad);
            if let Ok(decoded) = decode_mutable_store(&mut r, &path) {
                // Whatever decoded satisfies the structural invariants.
                assert_eq!(decoded.support_counts().len(), decoded.len());
            }
        }
    }
    for len in 0..buf.len() {
        let mut r = ByteReader::new(&buf[..len]);
        assert!(
            decode_mutable_store(&mut r, &path).is_err(),
            "truncated store at {len} must not decode"
        );
    }
    // Checksum sanity: the codec content hashes stably.
    assert_eq!(checksum64(&buf), checksum64(&buf));
    assert_ne!(checksum64(&buf), checksum64(&buf[..buf.len() - 1]));
}
