//! Immutable point-in-time views of the served EDB.
//!
//! The writer applies batches to per-relation [`MutableStore`]s (support
//! counts, tombstones) and, at each commit, *publishes* a [`Snapshot`]:
//! the committed epoch, one [`SnapshotMark`] per relation recording the
//! append-only arena length and live-tuple count at that instant — the
//! "store-length mark" that identifies a semi-naive stage — a
//! materialized [`Structure`] holding exactly the live tuples, and an
//! [`EdbIndexes`] set over that structure. Readers hold the snapshot
//! through an `Arc`, so a snapshot outlives its epoch for as long as any
//! in-flight request still evaluates against it.
//!
//! The index set starts empty. The first evaluation to probe a position
//! of a relation builds that position's index into the set; every later
//! evaluation against the snapshot, from any reader thread, reads the
//! same index. A snapshot's indexes are therefore built at most once, and
//! freed with the snapshot.
//!
//! [`MutableStore`]: kv_structures::MutableStore

use kv_datalog::EdbIndexes;
use kv_structures::{Element, MutableStore, Structure, Vocabulary};
use std::sync::Arc;

/// Per-relation store-length mark captured at a commit point.
///
/// Because the underlying [`TupleStore`](kv_structures::TupleStore) arena
/// is append-only, `arena_len` alone pins the set of tuple ids that
/// existed at the commit; `live` additionally records how many of them
/// carried positive support (retractions tombstone, they never shift ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMark {
    /// Length of the relation's append-only tuple arena at the commit.
    pub arena_len: u32,
    /// Number of live (positive-support) tuples at the commit.
    pub live: u32,
}

/// An immutable view of the EDB at one committed epoch, with the position
/// indexes its readers share.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    marks: Vec<SnapshotMark>,
    edb: Structure,
    indexes: EdbIndexes,
}

impl Snapshot {
    /// Captures the current state of the writer's stores as a snapshot at
    /// `epoch`. Materializes a fresh [`Structure`] from the live tuples;
    /// `O(live EDB)`, paid once per committed batch by the writer, never
    /// by readers.
    pub fn capture(
        vocabulary: &Arc<Vocabulary>,
        universe: usize,
        constants: &[Element],
        stores: &[MutableStore],
        epoch: u64,
    ) -> Self {
        let mut edb = Structure::new(Arc::clone(vocabulary), universe);
        for (c, &value) in vocabulary.constants().zip(constants) {
            edb.set_constant(c, value);
        }
        for rel in vocabulary.relations() {
            for tuple in stores[rel.0].live_iter() {
                edb.insert(rel, tuple);
            }
        }
        Self::adopt(edb, stores, epoch)
    }

    /// Publishes `edb` as the snapshot of `stores` at `epoch` without
    /// copying it. `edb` must be what [`capture`](Self::capture) would
    /// build: each relation holds its store's live tuples, interned in
    /// arena order — true of the structure a writer filled its stores from.
    ///
    /// # Panics
    /// Panics if a relation's size differs from its store's live count.
    pub(crate) fn adopt(edb: Structure, stores: &[MutableStore], epoch: u64) -> Self {
        let marks = edb
            .vocabulary()
            .relations()
            .map(|rel| {
                let store = &stores[rel.0];
                assert_eq!(
                    edb.relation(rel).len(),
                    store.live_len(),
                    "snapshot relation must hold its store's live tuples"
                );
                SnapshotMark {
                    arena_len: store.len() as u32,
                    live: store.live_len() as u32,
                }
            })
            .collect();
        let indexes = EdbIndexes::new(&edb);
        Snapshot {
            epoch,
            marks,
            edb,
            indexes,
        }
    }

    /// The committed epoch this snapshot reflects (0 = initial load).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-relation store-length marks, indexed by `RelId`.
    pub fn marks(&self) -> &[SnapshotMark] {
        &self.marks
    }

    /// The materialized EDB at this epoch. Readers evaluate queries
    /// against this structure; it never changes after capture.
    pub fn edb(&self) -> &Structure {
        &self.edb
    }

    /// The position indexes over [`edb`](Self::edb) that every reader of
    /// this snapshot shares, each built by the first evaluation that
    /// probes it.
    pub fn edb_indexes(&self) -> &EdbIndexes {
        &self.indexes
    }

    /// Total live tuples across all relations at this epoch.
    pub fn live_tuples(&self) -> usize {
        self.marks.iter().map(|m| m.live as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Arc<Vocabulary> {
        let mut v = Vocabulary::new();
        v.add_relation("e", 2);
        Arc::new(v)
    }

    #[test]
    fn capture_sees_only_live_tuples_and_records_marks() {
        let v = vocab();
        let mut store = MutableStore::new(2);
        store.insert(&[0, 1]);
        store.insert(&[1, 2]);
        store.retract(&[1, 2]);
        let snap = Snapshot::capture(&v, 4, &[], &[store], 3);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(
            snap.marks(),
            &[SnapshotMark {
                arena_len: 2,
                live: 1
            }]
        );
        assert_eq!(snap.live_tuples(), 1);
        let rel = v.relations().next().unwrap();
        assert!(snap.edb().relation(rel).contains(&[0, 1]));
        assert!(!snap.edb().relation(rel).contains(&[1, 2]));
    }

    #[test]
    fn adopting_the_source_structure_equals_capturing_it() {
        let v = vocab();
        let rel = v.relations().next().unwrap();
        let mut source = Structure::new(Arc::clone(&v), 5);
        for t in [[3, 1], [0, 4], [2, 2], [1, 0]] {
            source.insert(rel, &t);
        }
        let mut store = MutableStore::new(2);
        for t in source.relation(rel).iter() {
            store.insert(t);
        }
        let stores = [store];
        let captured = Snapshot::capture(&v, 5, &[], &stores, 0);
        let adopted = Snapshot::adopt(source, &stores, 0);
        assert_eq!(adopted.marks(), captured.marks());
        // Same tuples under the same ids, not just the same set.
        assert!(adopted
            .edb()
            .relation(rel)
            .iter()
            .eq(captured.edb().relation(rel).iter()));
        assert_eq!(
            adopted.edb().universe_size(),
            captured.edb().universe_size()
        );
    }
}
