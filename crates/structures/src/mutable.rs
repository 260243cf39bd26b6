//! Mutable relation state layered over the append-only [`TupleStore`]:
//! per-tuple support counts and compaction.
//!
//! The storage engine underneath every relation in the workspace is
//! append-only — that is what makes semi-naive deltas free id ranges and
//! stage snapshots free prefix views (see [`crate::store`]). A live
//! service, however, ingests *retractions* as well as assertions. A
//! [`MutableStore`] reconciles the two worlds:
//!
//! - **The arena stays append-only.** Tuples are interned exactly as
//!   before; retraction never removes a tuple from the arena, it drops the
//!   tuple's *support count* to zero. All id-range machinery (delta
//!   views, prefix snapshots, posting-list probes) keeps working on the
//!   arena underneath.
//! - **Support counts carry the maintenance semantics.** For an EDB
//!   relation the count is the assertion multiplicity (a fact inserted
//!   twice survives one retraction); an IDB relation of the incremental
//!   engine is a set, so each of its live tuples holds 1 (DRed deletion
//!   kills a tuple outright). A count of zero marks the tuple *dead*:
//!   still interned, no longer part of the relation.
//! - **Compaction restores the invariant the evaluator needs.** After a
//!   deletion batch commits,
//!   [`compact_in_place`](MutableStore::compact_in_place) fills each dead
//!   tuple's slot with a live tuple from the arena tail, patching any
//!   position indexes over the store as it goes. With no dead tuples left,
//!   every subsequent insertion appends — deltas are contiguous id ranges
//!   again, which is exactly what lets the incremental engine reuse the
//!   unmodified semi-naive join machinery.

use crate::store::{PosIndex, TupleId, TupleStore};
use crate::structure::Element;

/// What an [`insert`](MutableStore::insert) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The tuple was not interned before: appended with support 1.
    Fresh(TupleId),
    /// The tuple was interned but dead (support 0): revived in place.
    /// After a [`compact_in_place`](MutableStore::compact_in_place) this
    /// cannot occur.
    Revived(TupleId),
    /// The tuple was already live: its support count was incremented.
    Bumped(TupleId),
}

impl InsertOutcome {
    /// The id of the affected tuple.
    pub fn id(&self) -> TupleId {
        match *self {
            InsertOutcome::Fresh(id) | InsertOutcome::Revived(id) | InsertOutcome::Bumped(id) => id,
        }
    }

    /// Whether the insert changed the live tuple *set* (fresh or revived,
    /// as opposed to a pure multiplicity bump).
    pub fn is_new(&self) -> bool {
        !matches!(self, InsertOutcome::Bumped(_))
    }
}

/// What a [`retract`](MutableStore::retract) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetractOutcome {
    /// Support dropped to zero: the tuple left the live set.
    Died(TupleId),
    /// Support decremented but still positive.
    Decremented(TupleId),
    /// The tuple was not live (never interned, or already dead).
    Absent,
}

/// A [`TupleStore`] with per-tuple support counts and compaction — the
/// storage substrate of incremental view maintenance.
///
/// See the [module docs](self) for the design. The live relation is the
/// set of interned tuples whose support is positive; everything else in
/// the arena is a tombstone awaiting
/// [`compact_in_place`](MutableStore::compact_in_place).
#[derive(Debug, Clone)]
pub struct MutableStore {
    store: TupleStore,
    /// `support[id]` is the support count of tuple `id`; 0 = dead.
    support: Vec<u32>,
}

impl MutableStore {
    /// Creates an empty mutable store for tuples of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            store: TupleStore::new(arity),
            support: Vec::new(),
        }
    }

    /// The append-only arena underneath. Joins and indexes read this;
    /// callers must filter by liveness themselves when dead tuples may be
    /// present (there are none right after a
    /// [`compact_in_place`](Self::compact_in_place)).
    pub fn store(&self) -> &TupleStore {
        &self.store
    }

    /// The arity of the stored tuples.
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// Number of tuples in the arena, dead ones included.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the arena holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of *live* tuples (positive support).
    pub fn live_len(&self) -> usize {
        self.support.iter().filter(|&&c| c > 0).count()
    }

    /// The support count of tuple `id` (0 = dead).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn support(&self, id: TupleId) -> u32 {
        self.support[id.0 as usize]
    }

    /// Whether tuple `id` is live.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn is_live(&self, id: TupleId) -> bool {
        self.support[id.0 as usize] > 0
    }

    /// Whether `tuple` is interned *and* live.
    pub fn contains_live(&self, tuple: &[Element]) -> bool {
        matches!(self.store.lookup(tuple), Some(id) if self.is_live(id))
    }

    /// The id of `tuple` if it is interned (live or dead).
    pub fn lookup(&self, tuple: &[Element]) -> Option<TupleId> {
        self.store.lookup(tuple)
    }

    /// Iterates over the live tuples in id order.
    pub fn live_iter(&self) -> impl Iterator<Item = &[Element]> {
        self.store
            .iter()
            .zip(&self.support)
            .filter(|(_, &c)| c > 0)
            .map(|(t, _)| t)
    }

    /// Inserts `tuple` with one unit of support, reporting whether it was
    /// fresh, revived, or merely bumped.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, tuple: &[Element]) -> InsertOutcome {
        let (id, fresh) = self.store.intern(tuple);
        if fresh {
            self.support.push(1);
            InsertOutcome::Fresh(id)
        } else if self.support[id.0 as usize] == 0 {
            self.support[id.0 as usize] = 1;
            InsertOutcome::Revived(id)
        } else {
            self.support[id.0 as usize] += 1;
            InsertOutcome::Bumped(id)
        }
    }

    /// Drops tuple `id` dead (support 0) regardless of its count.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn kill(&mut self, id: TupleId) {
        self.support[id.0 as usize] = 0;
    }

    /// Retracts one unit of support from `tuple`.
    pub fn retract(&mut self, tuple: &[Element]) -> RetractOutcome {
        match self.store.lookup(tuple) {
            Some(id) if self.support[id.0 as usize] > 0 => {
                self.support[id.0 as usize] -= 1;
                if self.support[id.0 as usize] == 0 {
                    RetractOutcome::Died(id)
                } else {
                    RetractOutcome::Decremented(id)
                }
            }
            _ => RetractOutcome::Absent,
        }
    }

    /// The per-tuple support counts, indexed by [`TupleId`] (0 = dead).
    pub fn support_counts(&self) -> &[u32] {
        &self.support
    }

    /// Reassembles a store from snapshot parts, validating the invariant
    /// the accessors above rely on: one support count per arena tuple.
    /// Returns a description of the violation on bad input — this is the
    /// deserialization path, where malformed bytes must surface as errors,
    /// never panics.
    pub fn from_parts(store: TupleStore, support: Vec<u32>) -> Result<Self, String> {
        if support.len() != store.len() {
            return Err(format!(
                "{} support count(s) for {} arena tuple(s)",
                support.len(),
                store.len()
            ));
        }
        Ok(Self { store, support })
    }

    /// Drops every dead tuple in place by moving arena-tail tuples into
    /// their slots ([`TupleStore::swap_remove`]) — O(dead) table and data
    /// work instead of an O(live) re-interning rebuild, at the cost of not
    /// preserving survivor id order. The result has contiguous live ids.
    ///
    /// `indexes` (the built position indexes over this store, possibly
    /// none) are patched to match: each dead id leaves its posting and
    /// each moved tail id is renumbered to the hole it fills, postings
    /// staying sorted (see [`PosIndex::apply_moves`]).
    pub fn compact_in_place<'i>(&mut self, indexes: impl IntoIterator<Item = &'i mut PosIndex>) {
        let (moves, live) = self.compaction_moves();
        for ix in indexes {
            ix.update(&self.store);
            ix.apply_moves(&self.store, &moves, live);
        }
        // Each drop is a swap-remove: the tail tuple (and its support)
        // fills the hole, which is the move recorded right after it.
        for &(id, to) in &moves {
            if to.is_none() {
                self.store.swap_remove(TupleId(id));
                self.support.swap_remove(id as usize);
            }
        }
    }

    /// The id moves [`compact_in_place`](Self::compact_in_place) will
    /// make, computed before any of them happens: `(id, None)` drops a
    /// dead id, `(tail, Some(hole))` moves a live tail tuple into a hole.
    /// Also returns the live count (the compacted length).
    fn compaction_moves(&self) -> (Vec<(u32, Option<u32>)>, u32) {
        let mut moves = Vec::new();
        let mut id = 0usize;
        let mut len = self.support.len();
        while id < len {
            if self.support[id] > 0 {
                id += 1;
            } else if self.support[len - 1] == 0 {
                moves.push(((len - 1) as u32, None));
                len -= 1;
            } else {
                moves.push((id as u32, None));
                moves.push(((len - 1) as u32, Some(id as u32)));
                len -= 1;
                id += 1;
            }
        }
        (moves, len as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_retract_lifecycle() {
        let mut m = MutableStore::new(2);
        let f = m.insert(&[1, 2]);
        assert!(matches!(f, InsertOutcome::Fresh(TupleId(0))));
        assert!(f.is_new());
        let b = m.insert(&[1, 2]);
        assert!(matches!(b, InsertOutcome::Bumped(TupleId(0))));
        assert!(!b.is_new());
        assert_eq!(m.support(TupleId(0)), 2);
        assert_eq!(m.retract(&[1, 2]), RetractOutcome::Decremented(TupleId(0)));
        assert!(m.contains_live(&[1, 2]));
        assert_eq!(m.retract(&[1, 2]), RetractOutcome::Died(TupleId(0)));
        assert!(!m.contains_live(&[1, 2]));
        assert_eq!(m.retract(&[1, 2]), RetractOutcome::Absent);
        assert_eq!(m.retract(&[9, 9]), RetractOutcome::Absent);
        // The arena still holds the tombstone.
        assert_eq!(m.len(), 1);
        assert_eq!(m.live_len(), 0);
        // Re-inserting revives in place: same id, new support.
        let r = m.insert(&[1, 2]);
        assert!(matches!(r, InsertOutcome::Revived(TupleId(0))));
        assert!(r.is_new());
        assert_eq!(m.live_len(), 1);
    }

    #[test]
    fn compact_in_place_is_swap_fill() {
        let mut m = MutableStore::new(2);
        for e in 0..8u32 {
            m.insert(&[e, e + 100]);
        }
        m.retract(&[1, 101]);
        m.retract(&[6, 106]);
        m.retract(&[7, 107]);
        m.compact_in_place(&mut []);
        assert_eq!(m.len(), 5);
        assert_eq!(m.live_len(), 5);
        // Survivors are exactly the live pre-state tuples (ids permuted),
        // each still interned with its support intact.
        for e in [0u32, 2, 3, 4, 5] {
            let id = m.lookup(&[e, e + 100]).expect("survivor stays interned");
            assert!(m.is_live(id));
            assert_eq!(m.support(id), 1);
        }
        assert_eq!(m.lookup(&[1, 101]), None);
        assert_eq!(m.lookup(&[6, 106]), None);
        // Contiguous live ids: the next insert is Fresh at the end.
        assert!(matches!(
            m.insert(&[9, 109]),
            InsertOutcome::Fresh(TupleId(5))
        ));
    }

    #[test]
    fn compact_in_place_handles_all_dead_and_all_live() {
        let mut m = MutableStore::new(1);
        for e in 0..4u32 {
            m.insert(&[e]);
        }
        for e in 0..4u32 {
            m.retract(&[e]);
        }
        m.compact_in_place(&mut []);
        assert_eq!(m.len(), 0);
        for e in 10..13u32 {
            m.insert(&[e]);
        }
        m.compact_in_place(&mut []);
        assert_eq!(m.len(), 3);
        assert!(m.contains_live(&[11]));
    }

    #[test]
    fn support_arithmetic() {
        let mut m = MutableStore::new(2);
        let id = m.insert(&[4, 5]).id();
        for _ in 0..4 {
            m.insert(&[4, 5]);
        }
        assert_eq!(m.support(id), 5);
        assert_eq!(m.retract(&[4, 5]), RetractOutcome::Decremented(id));
        assert_eq!(m.support(id), 4);
        m.kill(id);
        assert_eq!(m.support(id), 0);
        assert_eq!(m.live_len(), 0);
    }
}
