//! Immutable point-in-time views of the served EDB, each with the answers
//! memoized against it.
//!
//! The writer applies batches to per-relation [`MutableStore`]s (support
//! counts, tombstones) and, at each commit, *publishes* a [`Snapshot`]:
//! the committed epoch, a materialized [`Structure`] holding exactly the
//! live tuples, an [`EdbIndexes`] set over that structure, and an empty
//! answer cache. Readers hold the snapshot through an `Arc`, so a
//! snapshot outlives its epoch for as long as any in-flight request still
//! evaluates against it.
//!
//! The index set starts empty. The first evaluation to probe a position
//! of a relation builds that position's index into the set; every later
//! evaluation against the snapshot, from any reader thread, reads the
//! same index. A snapshot's indexes are therefore built at most once, and
//! freed with the snapshot.
//!
//! The cache follows the same rule: a reader looks up and memoizes
//! answers in the cache of the snapshot it evaluated against, so every
//! entry answers for exactly that snapshot's EDB. A reader that finishes
//! after a commit memoizes into the retired snapshot, where no later
//! request looks, and the entries are freed with it.
//!
//! [`MutableStore`]: kv_structures::MutableStore

use crate::cache::ClockCache;
use kv_datalog::EdbIndexes;
use kv_structures::{Element, MutableStore, Structure, Vocabulary};
use std::sync::{Arc, Mutex, MutexGuard};

/// The answer cache's key: query id plus goal tuple.
pub(crate) type CacheKey = (u32, Box<[Element]>);

/// An immutable view of the EDB at one committed epoch, with the position
/// indexes and the answer cache its readers share.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    edb: Structure,
    indexes: EdbIndexes,
    cache: Mutex<ClockCache<CacheKey>>,
}

impl Snapshot {
    /// Captures the live tuples of the writer's stores as the snapshot at
    /// `epoch`, with an empty cache of `cache_capacity` entries
    /// (`None` = unbounded). Materializes a fresh [`Structure`];
    /// `O(live EDB)`, paid once per committed batch by the writer, never
    /// by readers.
    pub(crate) fn capture(
        vocabulary: &Arc<Vocabulary>,
        universe: usize,
        constants: &[Element],
        stores: &[MutableStore],
        epoch: u64,
        cache_capacity: Option<usize>,
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
        Self::adopt(edb, epoch, cache_capacity)
    }

    /// Publishes `edb` as the snapshot at `epoch` without copying it, with
    /// an empty cache of `cache_capacity` entries. `edb` must be what
    /// [`capture`](Self::capture) would build: each relation holds its
    /// store's live tuples, interned in arena order — true of the
    /// structure a writer filled its stores from.
    pub(crate) fn adopt(edb: Structure, epoch: u64, cache_capacity: Option<usize>) -> Self {
        Snapshot {
            epoch,
            indexes: EdbIndexes::new(&edb),
            edb,
            cache: Mutex::new(ClockCache::new(cache_capacity)),
        }
    }

    /// The committed epoch this snapshot reflects (0 = initial load).
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// The answers memoized against this snapshot's EDB.
    pub(crate) fn cache(&self) -> MutexGuard<'_, ClockCache<CacheKey>> {
        self.cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Total live tuples across all relations at this epoch.
    pub fn live_tuples(&self) -> usize {
        self.edb
            .vocabulary()
            .relations()
            .map(|rel| self.edb.relation(rel).len())
            .sum()
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
    fn capture_sees_only_live_tuples() {
        let v = vocab();
        let mut store = MutableStore::new(2);
        store.insert(&[0, 1]);
        store.insert(&[1, 2]);
        store.retract(&[1, 2]);
        let snap = Snapshot::capture(&v, 4, &[], &[store], 3, None);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.live_tuples(), 1);
        assert!(snap.cache().is_empty());
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
        let captured = Snapshot::capture(&v, 5, &[], &[store], 0, None);
        let adopted = Snapshot::adopt(source, 0, None);
        assert_eq!(adopted.live_tuples(), captured.live_tuples());
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
