//! The shared relational storage engine: interned tuples in append-only
//! arenas.
//!
//! Every layer of the reproduction — [`Structure`](crate::Structure)
//! relations, the Datalog(≠) bottom-up engine, and the `L^k` stage
//! evaluators — stores relations in one representation: a [`TupleStore`]
//! that interns tuples of a fixed arity into a flat, append-only arena and
//! hands out dense [`TupleId`]s. The design exploits append-only-ness
//! everywhere:
//!
//! - **Delta views are id ranges.** A semi-naive evaluator needs "the
//!   relation as of stage `n-1`", "only the tuples discovered at stage
//!   `n-1`", and "everything". Because ids are assigned in insertion order,
//!   these are the ranges `[0, old)`, `[old, prev)`, `[0, prev)` of a
//!   *single* store — no snapshot clones (see [`IdRange`] and
//!   [`StoreView`]).
//! - **Indexes extend instead of rebuilding.** A [`PosIndex`] (per-position
//!   hash index) appends posting ids monotonically, so range-restricted
//!   probes are `partition_point` sub-slices of sorted posting lists.
//! - **Stage identity is id-set equality.** Two evaluators that
//!   materialize into the *same* store can compare stages by comparing id
//!   sets — the Theorem 3.6 experiments check Datalog stages against
//!   `L^{l+r}` stage formulas this way, with no re-hashing of boxed
//!   tuples.
//!
//! The interner is a bare open-addressing table over the arena (splitmix-
//! style mixing, linear probing), so the store stays free of interior
//! mutability and is `Sync`: parallel evaluation workers read one shared
//! store at once, with no locks. Each table
//! entry is one `u32` that packs a hash tag above the id: the table length
//! is a power of two `2^b` and ids stay below three quarters of it, so the
//! low `b` bits hold the id and the free high bits hold the tuple hash's
//! high bits. A probe compares tags first and reads the arena only on a tag
//! match, with an inline element loop rather than a `memcmp` call.
//!
//! Element-keyed maps ([`PosIndex`] postings and the join kernels' probe
//! memos) hash with the same splitmix finalizer through [`ElementHasher`],
//! not std's SipHash: the keys are dense universe elements.
//!
//! [`EvalStats`] is the engine's observability surface: evaluators report
//! tuples interned, duplicate derivations, join probes and stage counts.
//! A join kernel fixes which probes are *counted*, not how a probe is
//! answered: the evaluator's written plans answer a fully bound probe with
//! one [`TupleStore::lookup`] when its posting list holds more than one
//! id, and count it as the one probe the list walk was. Budgets live in [`crate::govern`].

use crate::structure::Element;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A dense identifier of an interned tuple within one [`TupleStore`].
///
/// Ids are assigned in insertion order starting from `0`, so they double
/// as stage timestamps: a tuple with a smaller id was derived no later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// A half-open range `[start, end)` of [`TupleId`]s.
///
/// Because stores are append-only, every snapshot a fixpoint computation
/// needs (old / delta / full) is such a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdRange {
    /// First id in the range.
    pub start: u32,
    /// One past the last id in the range.
    pub end: u32,
}

impl IdRange {
    /// The empty range.
    pub const EMPTY: IdRange = IdRange { start: 0, end: 0 };

    /// Number of ids in the range.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether `id` falls inside the range.
    pub fn contains(&self, id: TupleId) -> bool {
        self.start <= id.0 && id.0 < self.end
    }

    /// Iterates over the ids of the range.
    pub fn iter(&self) -> impl Iterator<Item = TupleId> {
        (self.start..self.end).map(TupleId)
    }
}

/// The vacant table entry. Never a packed `id | tag` entry: a live id is
/// below three quarters of the table length, so its low `b` bits are never
/// all ones.
const EMPTY_SLOT: u32 = u32::MAX;

/// Splitmix-style mixing of one tuple into a table hash.
///
/// Public so callers that maintain auxiliary filters over a store (for
/// example [`TupleBloom`]) hash tuples exactly once and reuse the digest.
#[inline]
pub fn tuple_hash(tuple: &[Element]) -> u64 {
    hash_tuple(tuple)
}

#[inline]
fn hash_tuple(tuple: &[Element]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &e in tuple {
        h ^= u64::from(e).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// An interning tuple store: a flat append-only arena of fixed-arity
/// tuples plus an open-addressing hash table mapping tuple contents to
/// dense [`TupleId`]s.
///
/// See the [module docs](self) for the design rationale. The store has no
/// interior mutability: reads (`get`, `lookup`, `contains`, `iter`) take
/// `&self` and the type is `Sync`, which is what lets parallel evaluation
/// workers share one store per relation.
#[derive(Debug, Clone, Default)]
pub struct TupleStore {
    arity: usize,
    /// Tuple elements, arity-strided: tuple `i` is `data[i*arity..(i+1)*arity]`.
    data: Vec<Element>,
    /// Open-addressing table (`EMPTY_SLOT` = vacant). Each entry packs a
    /// tuple id in the low bits (`entry & mask`, `mask = table.len() - 1`)
    /// and a tag, the high bits of the tuple's hash, in the bits above.
    table: Vec<u32>,
    len: u32,
    /// Per-position distinct-value counters, maintained on intern of fresh
    /// tuples; snapshotted by [`card_stats`](Self::card_stats).
    pos_distinct: Vec<ElementSet>,
}

impl TupleStore {
    /// Creates an empty store for tuples of the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            data: Vec::new(),
            table: Vec::new(),
            len: 0,
            pos_distinct: vec![ElementSet::default(); arity],
        }
    }

    /// Creates an empty store with room for about `capacity` tuples.
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        let mut s = Self::new(arity);
        s.data.reserve(capacity * arity);
        s.grow_table((capacity * 2).next_power_of_two().max(16));
        s
    }

    /// The arity of the stored tuples.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct tuples interned.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuple with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn get(&self, id: TupleId) -> &[Element] {
        assert!(id.0 < self.len, "tuple id {} out of bounds", id.0);
        let a = self.arity;
        &self.data[id.0 as usize * a..(id.0 as usize + 1) * a]
    }

    /// Interns `tuple`, returning its id and whether it was newly added.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn intern(&mut self, tuple: &[Element]) -> (TupleId, bool) {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if self.table.len() * 3 < (self.len as usize + 1) * 4 {
            self.grow_table((self.table.len() * 2).max(16));
        }
        let mask = self.table.len() - 1;
        let h = hash_tuple(tuple);
        let tag = tag_of(h, mask);
        let mut slot = h as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY_SLOT => {
                    let id = self.len;
                    self.table[slot] = pack(id, tag);
                    self.data.extend_from_slice(tuple);
                    self.len += 1;
                    for (pos, &e) in tuple.iter().enumerate() {
                        self.pos_distinct[pos].insert(e);
                    }
                    return (TupleId(id), true);
                }
                entry if self.entry_holds(entry, mask, tag, tuple) => {
                    return (TupleId(entry & mask as u32), false)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Interns every arity-strided tuple in `block` (a flat
    /// `tuples × arity` slice) in order, returning how many were fresh.
    /// Identical per-tuple semantics to [`intern`](Self::intern) — ids are
    /// assigned in block order, duplicates are detected the same way — but
    /// one table-capacity check and one arena reservation cover the whole
    /// block, so batched emitters pay the growth bookkeeping once per
    /// block instead of once per tuple.
    ///
    /// # Panics
    /// Panics if the store is nullary or `block.len()` is not a multiple
    /// of the arity.
    pub fn extend_block(&mut self, block: &[Element]) -> usize {
        assert!(self.arity > 0, "extend_block on a nullary store");
        assert_eq!(
            block.len() % self.arity,
            0,
            "block length/arity misalignment"
        );
        let tuples = block.len() / self.arity;
        // Grow once for the worst case (every tuple fresh): the per-call
        // check inside `intern` then never fires for this block.
        let needed = ((self.len as usize + tuples + 1) * 4 / 3 + 1)
            .next_power_of_two()
            .max(16);
        if self.table.len() < needed {
            self.grow_table(needed);
        }
        self.data.reserve(block.len());
        let mut fresh = 0;
        for tuple in block.chunks_exact(self.arity) {
            if self.intern(tuple).1 {
                fresh += 1;
            }
        }
        fresh
    }

    /// Removes tuple `id`, moving the arena's last tuple into its slot
    /// (ids stay dense; the last tuple is renumbered to `id`).
    ///
    /// This is the O(1) building block of in-place compaction: one
    /// backward-shift table deletion plus one table repoint, instead of
    /// re-interning every survivor. Per-position distinct-value counters
    /// are *not* shrunk — after removals [`card_stats`](Self::card_stats)
    /// over-approximates, which only mellows planner estimates.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn swap_remove(&mut self, id: TupleId) {
        assert!(id.0 < self.len, "tuple id {} out of bounds", id.0);
        let last = self.len - 1;
        self.table_remove(id.0);
        if id.0 != last {
            // Repoint the moved tuple's table entry at its new id; the
            // tuple, and so its tag, is unchanged.
            let mask = self.table.len() - 1;
            let slot = self.slot_of(last, mask);
            self.table[slot] = pack(id.0, self.table[slot] & !(mask as u32));
            let a = self.arity;
            let (head, tail) = self.data.split_at_mut(last as usize * a);
            head[id.0 as usize * a..(id.0 as usize + 1) * a].copy_from_slice(&tail[..a]);
        }
        self.data.truncate(last as usize * self.arity);
        self.len = last;
    }

    /// Deletes `id`'s table entry by backward-shifting the probe chain
    /// behind it (linear probing has no tombstones: every displaced entry
    /// whose home slot lies at or before the hole moves back into it, so
    /// all remaining chains stay unbroken).
    fn table_remove(&mut self, id: u32) {
        let mask = self.table.len() - 1;
        let mut hole = self.slot_of(id, mask);
        loop {
            self.table[hole] = EMPTY_SLOT;
            let mut next = (hole + 1) & mask;
            loop {
                let entry = self.table[next];
                if entry == EMPTY_SLOT {
                    return;
                }
                let home = hash_tuple(self.slice_of(entry & mask as u32)) as usize & mask;
                // `entry` can fill the hole iff probing from its home slot
                // would pass through the hole — i.e. the hole is at least
                // as far along `entry`'s probe path as `next` is.
                if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                    self.table[hole] = entry;
                    hole = next;
                    break;
                }
                next = (next + 1) & mask;
            }
        }
    }

    /// The id of `tuple`, if interned.
    pub fn lookup(&self, tuple: &[Element]) -> Option<TupleId> {
        debug_assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let h = hash_tuple(tuple);
        let tag = tag_of(h, mask);
        let mut slot = h as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY_SLOT => return None,
                entry if self.entry_holds(entry, mask, tag, tuple) => {
                    return Some(TupleId(entry & mask as u32))
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Element]) -> bool {
        self.lookup(tuple).is_some()
    }

    /// Iterates over the tuples in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[Element]> {
        let a = self.arity;
        (0..self.len as usize).map(move |i| &self.data[i * a..(i + 1) * a])
    }

    /// The full id range `[0, len)`.
    pub fn id_range(&self) -> IdRange {
        IdRange {
            start: 0,
            end: self.len,
        }
    }

    /// A prefix view of the store covering ids `[0, upto)`.
    ///
    /// # Panics
    /// Panics if `upto > len`.
    pub fn view(&self, upto: u32) -> StoreView<'_> {
        assert!(upto <= self.len, "view beyond store length");
        StoreView { store: self, upto }
    }

    /// Set equality with another store (order-insensitive).
    pub fn set_eq(&self, other: &TupleStore) -> bool {
        self.arity == other.arity && self.len == other.len && self.iter().all(|t| other.contains(t))
    }

    /// The contiguous columnar slice backing the tuples of `range`:
    /// `arity * range.len()` elements, arity-strided. Because the arena is
    /// append-only, any id range is one contiguous block — batched kernels
    /// iterate it with `chunks_exact(arity)` instead of per-tuple `get`
    /// calls.
    ///
    /// # Panics
    /// Panics if the range extends past the store.
    pub fn range_slice(&self, range: IdRange) -> &[Element] {
        assert!(range.end <= self.len, "range beyond store length");
        let a = self.arity;
        &self.data[range.start as usize * a..range.end as usize * a]
    }

    /// Consumes the store, returning its arena: every tuple in id order,
    /// arity-strided — the whole-store [`range_slice`](Self::range_slice),
    /// moved out instead of copied.
    pub fn into_flat(self) -> Vec<Element> {
        self.data
    }

    /// A snapshot of the store's cardinality statistics.
    ///
    /// The per-position distinct counters are maintained incrementally on
    /// [`intern`](Self::intern), so this is O(arity) — cheap enough to call
    /// at every plan point.
    pub fn card_stats(&self) -> CardStats {
        CardStats {
            len: self.len as usize,
            distinct: self.pos_distinct.iter().map(ElementSet::len).collect(),
        }
    }

    fn slice_of(&self, id: u32) -> &[Element] {
        &self.data[id as usize * self.arity..(id as usize + 1) * self.arity]
    }

    /// Whether the occupied `entry` holds `tuple`: the tags agree and the
    /// arena row matches, compared element by element (no `memcmp` call
    /// for rows of a few elements).
    #[inline]
    fn entry_holds(&self, entry: u32, mask: usize, tag: u32, tuple: &[Element]) -> bool {
        entry & !(mask as u32) == tag
            && self
                .slice_of(entry & mask as u32)
                .iter()
                .zip(tuple)
                .all(|(a, b)| a == b)
    }

    /// The table slot whose entry holds id `id`.
    fn slot_of(&self, id: u32, mask: usize) -> usize {
        let mut slot = hash_tuple(self.slice_of(id)) as usize & mask;
        // `EMPTY_SLOT & mask` is all ones, never a live id.
        while self.table[slot] & mask as u32 != id {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn grow_table(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        self.table = vec![EMPTY_SLOT; new_len];
        let mask = new_len - 1;
        for id in 0..self.len {
            let h = hash_tuple(self.slice_of(id));
            let mut slot = h as usize & mask;
            while self.table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = pack(id, tag_of(h, mask));
        }
    }
}

/// The tag of a tuple hash in a table of `mask + 1` slots: the hash's high
/// 32 bits, less the low bits the id occupies.
#[inline]
fn tag_of(h: u64, mask: usize) -> u32 {
    (h >> 32) as u32 & !(mask as u32)
}

/// One table entry: `id` in the low bits, `tag` above them.
#[inline]
fn pack(id: u32, tag: u32) -> u32 {
    let entry = id | tag;
    debug_assert_ne!(
        entry, EMPTY_SLOT,
        "a packed entry collides with the vacancy sentinel"
    );
    entry
}

impl PartialEq for TupleStore {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for TupleStore {}

/// A compact open-addressing set of [`Element`]s used for the per-position
/// distinct-value counters of a [`TupleStore`].
///
/// Slots store `element + 1` so that `0` can act as the vacancy sentinel and
/// the full `u32` element space stays representable.
#[derive(Debug, Clone, Default)]
struct ElementSet {
    slots: Vec<u64>,
    len: usize,
}

impl ElementSet {
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, e: Element) -> bool {
        if self.slots.len() < (self.len + 1) * 2 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let key = u64::from(e) + 1;
        let mut slot = mix64(u64::from(e)) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => {
                    self.slots[slot] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        debug_assert!(new_len.is_power_of_two());
        let old = std::mem::replace(&mut self.slots, vec![0; new_len]);
        let mask = new_len - 1;
        for key in old.into_iter().filter(|&k| k != 0) {
            let mut slot = mix64(key - 1) as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = key;
        }
    }
}

/// Splitmix64 finalizer, used by [`ElementSet`], [`TupleBloom`] and
/// [`ElementHasher`].
#[inline]
pub(crate) fn mix64(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// A [`Hasher`] for [`Element`] keys: the store's splitmix64 finalizer
/// over the key, in place of std's SipHash. Element keys are dense small
/// integers; one finalizer round spreads them over both the bucket bits
/// and the control bits of std's table.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElementHasher(u64);

impl Hasher for ElementHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = mix64(self.0 ^ u64::from(n));
    }
}

/// A `HashMap` keyed by [`Element`] that hashes with [`ElementHasher`].
pub type ElementMap<V> = HashMap<Element, V, BuildHasherDefault<ElementHasher>>;

/// Cardinality statistics snapshot of one [`TupleStore`]: total tuple count
/// plus per-position distinct-value counts.
///
/// The cost-based planner scores candidate join orders with these numbers:
/// `len / distinct[pos]` estimates the matches of a single-position probe,
/// and the product over bound positions estimates a multi-position one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CardStats {
    /// Number of distinct tuples in the store.
    pub len: usize,
    /// Distinct values seen at each tuple position (`distinct.len()` =
    /// arity).
    pub distinct: Vec<usize>,
}

impl CardStats {
    /// Estimated number of tuples matching a probe that fixes the values at
    /// `bound` positions, assuming independent uniform positions: `len / Π
    /// distinct[pos]`, clamped below at `0`.
    pub fn estimate_matches(&self, bound: &[usize]) -> f64 {
        let mut est = self.len as f64;
        for &pos in bound {
            let d = self.distinct.get(pos).copied().unwrap_or(1).max(1);
            est /= d as f64;
        }
        est
    }
}

/// A Bloom-style existence pre-filter over tuple hashes.
///
/// Evaluators maintain one per result relation, keyed by
/// [`tuple_hash`]: a *negative* answer proves the tuple has not been
/// committed, letting hot join paths skip the interner probe that
/// re-derivations would otherwise pay. Two bit probes are derived from the
/// low and high halves of the 64-bit digest.
#[derive(Debug, Clone, Default)]
pub struct TupleBloom {
    bits: Vec<u64>,
    items: usize,
}

impl TupleBloom {
    /// Creates a filter sized for about `capacity` items (~8 bits each).
    pub fn with_capacity(capacity: usize) -> Self {
        let words = (capacity.max(8) * 8 / 64).next_power_of_two();
        Self {
            bits: vec![0; words],
            items: 0,
        }
    }

    /// Number of hashes inserted.
    pub fn items(&self) -> usize {
        self.items
    }

    /// Whether the filter is over-full and should be rebuilt at a larger
    /// capacity to keep its false-positive rate useful.
    pub fn should_grow(&self) -> bool {
        self.items * 8 > self.bits.len() * 64
    }

    /// Inserts a tuple hash.
    pub fn insert(&mut self, h: u64) {
        if self.bits.is_empty() {
            self.bits = vec![0; 8];
        }
        let mask = self.bits.len() * 64 - 1;
        let (a, b) = (h as usize & mask, (h >> 32) as usize & mask);
        self.bits[a / 64] |= 1 << (a % 64);
        self.bits[b / 64] |= 1 << (b % 64);
        self.items += 1;
    }

    /// Whether the hash *may* have been inserted. `false` is definitive.
    pub fn maybe_contains(&self, h: u64) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let mask = self.bits.len() * 64 - 1;
        let (a, b) = (h as usize & mask, (h >> 32) as usize & mask);
        (self.bits[a / 64] >> (a % 64)) & 1 == 1 && (self.bits[b / 64] >> (b % 64)) & 1 == 1
    }
}

/// A read-only prefix view of a [`TupleStore`]: the tuples with id `< upto`.
///
/// Since the store is append-only, such a prefix is exactly the store as it
/// was when it held `upto` tuples — stage `Θ^n` of an evaluation is the
/// view at the stage mark.
#[derive(Debug, Clone, Copy)]
pub struct StoreView<'a> {
    store: &'a TupleStore,
    upto: u32,
}

impl<'a> StoreView<'a> {
    /// The underlying store.
    pub fn store(&self) -> &'a TupleStore {
        self.store
    }

    /// Number of tuples in the view.
    pub fn len(&self) -> usize {
        self.upto as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.upto == 0
    }

    /// Membership: the tuple is interned *and* was among the first `upto`.
    pub fn contains(&self, tuple: &[Element]) -> bool {
        matches!(self.store.lookup(tuple), Some(id) if id.0 < self.upto)
    }

    /// The view's id range `[0, upto)`.
    pub fn id_range(&self) -> IdRange {
        IdRange {
            start: 0,
            end: self.upto,
        }
    }

    /// Iterates over the view's tuples in id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [Element]> {
        let store = self.store;
        (0..self.upto).map(move |i| store.get(TupleId(i)))
    }

    /// Set equality with another view.
    pub fn set_eq(&self, other: &StoreView<'_>) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(t))
    }
}

/// A single-position hash index over a [`TupleStore`].
///
/// Maps an element to the (sorted) ids of the tuples carrying that element
/// at position `pos`. Built and owned by evaluators — *outside* the store —
/// so the store itself stays lock-free and `Sync`. Because ids are appended
/// monotonically, [`update`](Self::update) extends the postings
/// incrementally and [`probe`](Self::probe) restricts to any [`IdRange`]
/// with two binary searches.
///
/// **Invariant:** every posting list is strictly increasing in tuple id.
/// The batched join kernels and the generic-join lowering depend on this —
/// a multi-position probe is the [`gallop_intersect`] of the per-position
/// posting lists, with no hashing or re-sorting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosIndex {
    pos: usize,
    upto: u32,
    postings: ElementMap<Vec<u32>>,
}

impl PosIndex {
    /// Creates an empty index on tuple position `pos`.
    pub fn new(pos: usize) -> Self {
        Self {
            pos,
            upto: 0,
            postings: ElementMap::default(),
        }
    }

    /// The indexed position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// How many tuples (ids `[0, upto)`) the index currently covers.
    pub fn covered(&self) -> u32 {
        self.upto
    }

    /// Number of distinct values seen at the indexed position — the posting
    /// count, maintained for free as the index extends.
    pub fn distinct(&self) -> usize {
        self.postings.len()
    }

    /// Extends the index to cover all tuples currently in `store`.
    pub fn update(&mut self, store: &TupleStore) {
        for id in self.upto..store.len() as u32 {
            let e = store.get(TupleId(id))[self.pos];
            self.postings.entry(e).or_default().push(id);
        }
        self.upto = store.len() as u32;
    }

    /// Applies an in-place compaction of `store` (see
    /// `MutableStore::compact_in_place`) before it happens: `moves` holds
    /// `(id, None)` for each dropped id and `(tail, Some(hole))` for each
    /// tuple moved from the tail into a hole, and `live` is the compacted
    /// length. Only the postings of touched elements change; each is
    /// filtered, given its new ids, and re-sorted.
    ///
    /// # Panics
    /// Panics if the index does not cover all of `store`.
    pub fn apply_moves(&mut self, store: &TupleStore, moves: &[(u32, Option<u32>)], live: u32) {
        assert_eq!(
            self.upto as usize,
            store.len(),
            "index must cover the store"
        );
        let mut touched: ElementMap<(Vec<u32>, Vec<u32>)> = ElementMap::default();
        for &(from, to) in moves {
            let entry = touched
                .entry(store.get(TupleId(from))[self.pos])
                .or_default();
            entry.0.push(from);
            entry.1.extend(to);
        }
        for (e, (mut gone, added)) in touched {
            gone.sort_unstable();
            let Some(list) = self.postings.get_mut(&e) else {
                continue;
            };
            list.retain(|id| gone.binary_search(id).is_err());
            if !added.is_empty() {
                list.extend(added);
                list.sort_unstable();
            }
            if list.is_empty() {
                self.postings.remove(&e);
            }
        }
        self.upto = live;
    }

    /// The ids in `range` whose tuple has `e` at the indexed position.
    ///
    /// `range` must lie within the covered prefix; postings are sorted, so
    /// the result is a sub-slice located by `partition_point`.
    pub fn probe(&self, e: Element, range: IdRange) -> &[u32] {
        debug_assert!(range.end <= self.upto, "probe beyond indexed prefix");
        match self.postings.get(&e) {
            None => &[],
            Some(ids) => {
                let lo = ids.partition_point(|&id| id < range.start);
                let hi = ids.partition_point(|&id| id < range.end);
                &ids[lo..hi]
            }
        }
    }
}

/// First index in the sorted list whose value is `>= target`, located by a
/// galloping (exponential-then-binary) search from the front.
///
/// Galloping is the right search for k-way sorted intersections: when the
/// cursor advances by `d` positions the search costs `O(log d)`, so a full
/// intersection pass costs `O(Σ log gaps)` — linear merge when the lists
/// interleave densely, logarithmic skips when one list is much sparser.
/// Each comparison is added to `steps` so batched kernels can report the
/// exact work done (see `EvalStats::gallop_steps`).
///
/// The exponential phase is unrolled 4-wide: each round issues up to four
/// successive stride probes (`size`, `2·size`, `4·size`, `8·size` from the
/// current cursor) before looping back, so short gallops — the common case
/// in densely interleaving intersections — resolve within one
/// branch-predictable round. The probe *sequence*, and therefore the
/// counted steps, is identical to the scalar doubling loop
/// (differential-tested against [`gallop_scalar`]).
#[inline]
pub fn gallop(list: &[u32], target: u32, steps: &mut u64) -> usize {
    let n = list.len();
    if n == 0 || list[0] >= target {
        *steps += 1;
        return 0;
    }
    // Exponential phase, 4-wide unrolled: invariant `list[lo] < target`.
    let mut taken = 1u64;
    let mut lo = 0usize;
    let mut size = 1usize;
    'expo: loop {
        for _ in 0..4 {
            if lo + size < n && list[lo + size] < target {
                taken += 1;
                lo += size;
                size <<= 1;
            } else {
                break 'expo;
            }
        }
    }
    // Binary phase over `(lo, hi]` with `list[lo] < target` and either
    // `hi == n` or `list[hi] >= target`.
    let mut hi = (lo + size).min(n);
    while hi - lo > 1 {
        taken += 1;
        let mid = lo + (hi - lo) / 2;
        if list[mid] < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    *steps += taken;
    hi
}

/// The scalar doubling gallop that [`gallop`] unrolls: kept as the
/// reference implementation the hot path is differential-tested against
/// (identical results *and* identical step counts on random inputs).
pub fn gallop_scalar(list: &[u32], target: u32, steps: &mut u64) -> usize {
    let n = list.len();
    if n == 0 || list[0] >= target {
        *steps += 1;
        return 0;
    }
    let mut taken = 1u64;
    let mut lo = 0usize;
    let mut size = 1usize;
    while lo + size < n && list[lo + size] < target {
        taken += 1;
        lo += size;
        size <<= 1;
    }
    let mut hi = (lo + size).min(n);
    while hi - lo > 1 {
        taken += 1;
        let mid = lo + (hi - lo) / 2;
        if list[mid] < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    *steps += taken;
    hi
}

/// Intersects `k` sorted, duplicate-free posting lists into `out` (cleared
/// first), driving from the smallest list and galloping the others forward
/// with resume cursors. Search comparisons are added to `steps`.
///
/// This is the batched replacement for per-tuple two-pointer merges: every
/// [`PosIndex`] posting list is id-sorted by construction, so the k-way
/// sorted intersection of per-position postings *is* the candidate set of a
/// multi-position probe. Returns early as soon as any list is exhausted.
pub fn gallop_intersect(lists: &[&[u32]], out: &mut Vec<u32>, steps: &mut u64) {
    out.clear();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return;
    }
    if let [a, b] = lists {
        // The two-list case dominates binary join plans; take the
        // block-compare fast path (identical output, cheaper steps).
        return gallop_intersect2(a, b, out, steps);
    }
    // Drive from the shortest list; the others keep monotone resume
    // cursors, so each is traversed at most once across the whole call.
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&i| lists[i].len());
    let driver = lists[order[0]];
    let others: Vec<&[u32]> = order[1..].iter().map(|&i| lists[i]).collect();
    let mut cursors = vec![0usize; others.len()];
    'driver: for &x in driver {
        for (cur, list) in cursors.iter_mut().zip(&others) {
            *cur += gallop(&list[*cur..], x, steps);
            if *cur >= list.len() {
                // This list has no values >= x: nothing further can match.
                break 'driver;
            }
            if list[*cur] != x {
                continue 'driver;
            }
        }
        out.push(x);
    }
}

/// Intersects exactly two sorted, duplicate-free posting lists into `out`
/// (cleared first) — the explicit fast path [`gallop_intersect`] takes for
/// binary joins, where two-list intersections dominate.
///
/// The inner loop replaces the gallop's data-dependent branch chain with an
/// **8-wide compare block**: for each driver element, count how many of the
/// next eight candidates are still below the target. The block is a fixed
///-width, branch-free reduction over a sorted slice — the partition point
/// within the block — which the compiler autovectorizes (one SIMD compare +
/// horizontal add on SSE2/NEON). Densely interleaving lists resolve almost
/// every advance inside one block; only a skip past the whole block falls
/// back to [`gallop`] for the logarithmic long jump.
///
/// Counter semantics match the other search kernels: every block compare
/// counts **one** step into `steps` (it is one vector operation of work),
/// and gallop fallbacks count their comparisons exactly as
/// [`gallop`] does. Output is differential-tested against the k-way
/// [`gallop_intersect`] driver and a `HashSet` oracle on random inputs.
pub fn gallop_intersect2(a: &[u32], b: &[u32], out: &mut Vec<u32>, steps: &mut u64) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    // Drive from the smaller list; the larger keeps one monotone cursor.
    let (driver, other) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut cur = 0usize;
    for &x in driver {
        if let Some(block) = other.get(cur..cur + 8) {
            // Partition point of `x` within the sorted block, as a
            // branch-free count of elements below the target.
            let below: usize = block.iter().map(|&v| usize::from(v < x)).sum();
            *steps += 1;
            cur += below;
            if below == 8 {
                // The whole block is below `x`: long jump.
                cur += gallop(&other[cur..], x, steps);
            }
        } else {
            cur += gallop(&other[cur..], x, steps);
        }
        if cur >= other.len() {
            // No candidate >= x remains: nothing further can match.
            return;
        }
        if other[cur] == x {
            out.push(x);
        }
    }
}

/// Counters reported by store-backed evaluators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Distinct tuples interned into result stores (first derivations).
    pub tuples_interned: u64,
    /// Derivations of tuples that were already present.
    pub duplicate_derivations: u64,
    /// Index probes (and full scans, counted once per scanned candidate
    /// source) performed while joining.
    pub join_probes: u64,
    /// Probes against magic (demand) predicates, counted separately from
    /// [`EvalStats::join_probes`] so the bookkeeping overhead of a
    /// magic-set rewrite stays visible.
    pub magic_probes: u64,
    /// Probes answered by batched kernels from a block-local memo (the
    /// previous delta tuple bound the same key) instead of a fresh index
    /// operation. Batching turns `join_probes` into `block_probes`; the sum
    /// of the two is comparable to the unbatched `join_probes`.
    pub block_probes: u64,
    /// Comparison steps taken by galloping sorted-intersection searches
    /// ([`gallop`] / [`gallop_intersect`]).
    pub gallop_steps: u64,
    /// Rule evaluations executed by the worst-case-optimal generic join
    /// lowering instead of the binary kernel pipeline.
    pub wcoj_rules: u64,
    /// Stages executed.
    pub stages: u64,
}

impl EvalStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        self.tuples_interned += other.tuples_interned;
        self.duplicate_derivations += other.duplicate_derivations;
        self.join_probes += other.join_probes;
        self.magic_probes += other.magic_probes;
        self.block_probes += other.block_probes;
        self.gallop_steps += other.gallop_steps;
        self.wcoj_rules += other.wcoj_rules;
        self.stages += other.stages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_remove_keeps_probe_chains_intact() {
        // Enough tuples to force several table growths and long collision
        // chains; remove half in a scattered order and verify every
        // survivor (old and relocated) still resolves by lookup.
        let mut s = TupleStore::new(2);
        let n: u32 = 500;
        for e in 0..n {
            s.intern(&[e % 17, e]);
        }
        let mut expect: Vec<Vec<Element>> = (0..n).map(|e| vec![e % 17, e]).collect();
        let mut k = 0u32;
        while s.len() > (n / 2) as usize {
            let id = TupleId((k * 7 + 3) % s.len() as u32);
            let gone = s.get(id).to_vec();
            s.swap_remove(id);
            expect.retain(|t| *t != gone);
            assert_eq!(s.lookup(&gone), None);
            k += 1;
        }
        assert_eq!(s.len(), expect.len());
        for t in &expect {
            let id = s.lookup(t).expect("survivor must stay interned");
            assert_eq!(s.get(id), &t[..]);
        }
    }

    /// Checks the packed table against the arena: one entry per id, each
    /// carrying its tuple's tag, and no entry equal to the vacancy
    /// sentinel except vacant slots. Returns how many entries sit before
    /// their home slot, i.e. on a probe chain that wrapped past the end.
    fn check_table(s: &TupleStore) -> usize {
        if s.table.is_empty() {
            assert_eq!(s.len(), 0);
            return 0;
        }
        let mask = s.table.len() - 1;
        assert!(s.len() * 4 <= s.table.len() * 3, "load factor exceeded");
        let mut seen = vec![false; s.len()];
        let mut wrapped = 0;
        for (slot, &entry) in s.table.iter().enumerate() {
            if entry == EMPTY_SLOT {
                continue;
            }
            let id = (entry & mask as u32) as usize;
            assert!(id < s.len(), "entry {entry:#x} points past the arena");
            assert!(!seen[id], "id {id} has two entries");
            seen[id] = true;
            let h = hash_tuple(s.slice_of(id as u32));
            assert_eq!(
                entry & !(mask as u32),
                tag_of(h, mask),
                "stale tag on id {id}"
            );
            wrapped += usize::from(h as usize & mask > slot);
        }
        assert!(seen.iter().all(|&b| b), "an id has no entry");
        wrapped
    }

    /// Random `intern` / `extend_block` / `swap_remove` / `lookup`
    /// sequences against a `HashMap` model, over arities 0–4, fresh and
    /// pre-sized stores, and enough growth to move the id/tag split
    /// several times.
    #[test]
    fn tagged_interner_matches_model() {
        use crate::rng::SplitMix64;
        let mut wrapped_removals = 0usize;
        let mut doublings = 0usize;
        for seed in 0..40u64 {
            let mut rng = SplitMix64::seed_from_u64(0x7A66_ED00 + seed);
            let arity = (seed % 5) as usize;
            // Small value ranges make duplicates and collisions common.
            let values = [1u32, 600, 30, 9, 6][arity];
            let mut s = if seed % 3 == 0 {
                TupleStore::with_capacity(arity, rng.gen_range(0usize..200))
            } else {
                TupleStore::new(arity)
            };
            let mut model: HashMap<Vec<Element>, u32> = HashMap::new();
            let mut by_id: Vec<Vec<Element>> = Vec::new();
            let random_tuple = |rng: &mut SplitMix64| -> Vec<Element> {
                (0..arity).map(|_| rng.gen_range(0..values)).collect()
            };
            let mut table_len = s.table.len();
            for _ in 0..1500 {
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let t = random_tuple(&mut rng);
                        let want = match model.get(&t) {
                            Some(&id) => (TupleId(id), false),
                            None => {
                                let id = by_id.len() as u32;
                                model.insert(t.clone(), id);
                                by_id.push(t.clone());
                                (TupleId(id), true)
                            }
                        };
                        assert_eq!(s.intern(&t), want, "seed {seed}: intern {t:?}");
                    }
                    4 if arity > 0 => {
                        let n = rng.gen_range(0usize..40);
                        let block: Vec<Element> =
                            (0..n).flat_map(|_| random_tuple(&mut rng)).collect();
                        let mut fresh = 0;
                        for t in block.chunks_exact(arity) {
                            if !model.contains_key(t) {
                                model.insert(t.to_vec(), by_id.len() as u32);
                                by_id.push(t.to_vec());
                                fresh += 1;
                            }
                        }
                        assert_eq!(s.extend_block(&block), fresh, "seed {seed}: block");
                    }
                    5..=6 if !by_id.is_empty() => {
                        let id = rng.gen_range(0..by_id.len() as u32);
                        wrapped_removals += usize::from(check_table(&s) > 0);
                        s.swap_remove(TupleId(id));
                        let gone = by_id.swap_remove(id as usize);
                        model.remove(&gone);
                        if let Some(moved) = by_id.get(id as usize) {
                            model.insert(moved.clone(), id);
                        }
                        assert_eq!(s.lookup(&gone), None, "seed {seed}: removed {gone:?}");
                    }
                    _ => {
                        let t = random_tuple(&mut rng);
                        let want = model.get(&t).map(|&id| TupleId(id));
                        assert_eq!(s.lookup(&t), want, "seed {seed}: lookup {t:?}");
                    }
                }
                if s.table.len() != table_len {
                    doublings += 1;
                    table_len = s.table.len();
                }
                assert_eq!(s.len(), by_id.len());
            }
            check_table(&s);
            for (id, t) in by_id.iter().enumerate() {
                assert_eq!(s.get(TupleId(id as u32)), &t[..], "seed {seed}: arena");
                assert_eq!(s.lookup(t), Some(TupleId(id as u32)), "seed {seed}: {t:?}");
            }
        }
        assert!(doublings >= 40, "only {doublings} table growths");
        assert!(wrapped_removals > 0, "no removal met a wrapped chain");
    }

    /// A probe chain that wraps past the table's last slot survives the
    /// backward-shift removal of its head, and the moved entries keep
    /// their tags.
    #[test]
    fn removal_repairs_a_wrapped_chain() {
        let mut s = TupleStore::new(1);
        // Three tuples whose home is the 16-slot table's last slot: they
        // occupy slots 15, 0 and 1.
        let homed: Vec<Element> = (0..)
            .filter(|&e| hash_tuple(&[e]) & 15 == 15)
            .take(3)
            .collect();
        for &e in &homed {
            s.intern(&[e]);
        }
        assert_eq!(s.table.len(), 16);
        assert_eq!(check_table(&s), 2);
        s.swap_remove(TupleId(0));
        assert_eq!(check_table(&s), 1);
        assert_eq!(s.lookup(&[homed[0]]), None);
        assert_eq!(s.lookup(&[homed[1]]), Some(TupleId(1)));
        assert_eq!(s.lookup(&[homed[2]]), Some(TupleId(0)));
    }

    #[test]
    fn intern_assigns_dense_ids() {
        let mut s = TupleStore::new(2);
        assert_eq!(s.intern(&[0, 1]), (TupleId(0), true));
        assert_eq!(s.intern(&[1, 2]), (TupleId(1), true));
        assert_eq!(s.intern(&[0, 1]), (TupleId(0), false));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(TupleId(1)), &[1, 2]);
        assert_eq!(s.lookup(&[1, 2]), Some(TupleId(1)));
        assert_eq!(s.lookup(&[2, 1]), None);
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut s = TupleStore::new(1);
        for e in [5u32, 3, 9, 3, 5, 0] {
            s.intern(&[e]);
        }
        let rows: Vec<Vec<Element>> = s.iter().map(<[Element]>::to_vec).collect();
        assert_eq!(rows, vec![vec![5], vec![3], vec![9], vec![0]]);
    }

    #[test]
    fn survives_table_growth() {
        let mut s = TupleStore::new(2);
        for i in 0..1000u32 {
            let (id, fresh) = s.intern(&[i, i.wrapping_mul(7)]);
            assert!(fresh);
            assert_eq!(id.0, i);
        }
        for i in 0..1000u32 {
            assert_eq!(s.lookup(&[i, i.wrapping_mul(7)]), Some(TupleId(i)));
        }
        assert!(!s.contains(&[1000, 1]));
    }

    #[test]
    fn nullary_tuples() {
        let mut s = TupleStore::new(0);
        assert!(!s.contains(&[]));
        assert_eq!(s.intern(&[]), (TupleId(0), true));
        assert_eq!(s.intern(&[]), (TupleId(0), false));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(TupleId(0)), &[] as &[Element]);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn views_are_prefixes() {
        let mut s = TupleStore::new(1);
        for e in 0..10u32 {
            s.intern(&[e]);
        }
        let v = s.view(4);
        assert_eq!(v.len(), 4);
        assert!(v.contains(&[3]));
        assert!(!v.contains(&[4])); // interned, but after the mark
        assert!(s.contains(&[4]));
        assert_eq!(v.iter().count(), 4);
    }

    #[test]
    fn set_eq_ignores_order() {
        let mut a = TupleStore::new(2);
        let mut b = TupleStore::new(2);
        a.intern(&[0, 1]);
        a.intern(&[2, 3]);
        b.intern(&[2, 3]);
        b.intern(&[0, 1]);
        assert!(a.set_eq(&b));
        assert_eq!(a, b);
        b.intern(&[4, 5]);
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn pos_index_incremental_and_ranged() {
        let mut s = TupleStore::new(2);
        s.intern(&[1, 10]);
        s.intern(&[2, 20]);
        s.intern(&[1, 30]);
        let mut ix = PosIndex::new(0);
        ix.update(&s);
        assert_eq!(ix.probe(1, s.id_range()), &[0, 2]);
        s.intern(&[1, 40]);
        s.intern(&[3, 50]);
        ix.update(&s);
        assert_eq!(ix.probe(1, s.id_range()), &[0, 2, 3]);
        // Range restriction: only the delta [3, 5).
        let delta = IdRange { start: 3, end: 5 };
        assert_eq!(ix.probe(1, delta), &[3]);
        assert_eq!(ix.probe(3, delta), &[4]);
        assert_eq!(ix.probe(2, delta), &[] as &[u32]);
    }

    #[test]
    fn id_range_basics() {
        let r = IdRange { start: 2, end: 5 };
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.contains(TupleId(2)));
        assert!(!r.contains(TupleId(5)));
        assert!(IdRange::EMPTY.is_empty());
        assert_eq!(r.iter().count(), 3);
    }

    #[test]
    fn card_stats_track_distinct_values_per_position() {
        let mut s = TupleStore::new(2);
        s.intern(&[1, 10]);
        s.intern(&[1, 20]);
        s.intern(&[2, 10]);
        s.intern(&[1, 10]); // duplicate: must not perturb the counters
        let stats = s.card_stats();
        assert_eq!(stats.len, 3);
        assert_eq!(stats.distinct, vec![2, 2]);
        // 3 tuples / 2 distinct values at position 0 => 1.5 expected matches.
        assert!((stats.estimate_matches(&[0]) - 1.5).abs() < 1e-9);
        assert!((stats.estimate_matches(&[0, 1]) - 0.75).abs() < 1e-9);
        assert!((stats.estimate_matches(&[]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn card_stats_survive_many_inserts() {
        let mut s = TupleStore::new(1);
        for i in 0..500u32 {
            s.intern(&[i % 37]);
        }
        assert_eq!(s.card_stats().distinct, vec![37]);
        assert_eq!(s.card_stats().len, 37);
    }

    #[test]
    fn pos_index_reports_distinct() {
        let mut s = TupleStore::new(2);
        s.intern(&[1, 10]);
        s.intern(&[2, 10]);
        s.intern(&[1, 30]);
        let mut ix = PosIndex::new(1);
        ix.update(&s);
        assert_eq!(ix.distinct(), 2);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bloom = TupleBloom::with_capacity(64);
        let hashes: Vec<u64> = (0..64u32).map(|i| tuple_hash(&[i, i + 1])).collect();
        for &h in &hashes {
            bloom.insert(h);
        }
        for &h in &hashes {
            assert!(bloom.maybe_contains(h));
        }
        // Not a soundness property, but on this tiny load the filter should
        // reject the bulk of absent probes.
        let misses = (1000..2000u32)
            .filter(|&i| !bloom.maybe_contains(tuple_hash(&[i, i])))
            .count();
        assert!(misses > 800, "bloom rejected only {misses}/1000 absentees");
    }

    #[test]
    fn empty_bloom_rejects_everything() {
        let bloom = TupleBloom::default();
        assert!(!bloom.maybe_contains(tuple_hash(&[1, 2])));
        assert_eq!(bloom.items(), 0);
        assert!(!bloom.should_grow());
    }

    #[test]
    fn stats_merge() {
        let mut a = EvalStats {
            tuples_interned: 1,
            duplicate_derivations: 2,
            join_probes: 3,
            magic_probes: 5,
            block_probes: 6,
            gallop_steps: 7,
            wcoj_rules: 8,
            stages: 4,
        };
        a.merge(&EvalStats {
            tuples_interned: 10,
            duplicate_derivations: 20,
            join_probes: 30,
            magic_probes: 50,
            block_probes: 60,
            gallop_steps: 70,
            wcoj_rules: 80,
            stages: 40,
        });
        assert_eq!(a.tuples_interned, 11);
        assert_eq!(a.join_probes, 33);
        assert_eq!(a.magic_probes, 55);
        assert_eq!(a.block_probes, 66);
        assert_eq!(a.gallop_steps, 77);
        assert_eq!(a.wcoj_rules, 88);
    }

    #[test]
    fn gallop_finds_first_geq() {
        let list: Vec<u32> = vec![2, 3, 5, 8, 13, 21, 34, 55];
        let mut steps = 0u64;
        for target in 0..60u32 {
            let expect = list.partition_point(|&x| x < target);
            assert_eq!(gallop(&list, target, &mut steps), expect, "target {target}");
        }
        assert!(steps > 0);
        // Degenerate inputs.
        assert_eq!(gallop(&[], 7, &mut steps), 0);
        assert_eq!(gallop(&[9], 7, &mut steps), 0);
        assert_eq!(gallop(&[9], 9, &mut steps), 0);
        assert_eq!(gallop(&[9], 10, &mut steps), 1);
    }

    #[test]
    fn gallop_unrolled_matches_scalar_differential() {
        use crate::rng::SplitMix64;
        for seed in 0..8u64 {
            let mut rng = SplitMix64::seed_from_u64(0x0BAD_C0DE + seed);
            for _ in 0..500 {
                let n = (rng.next_u64() % 256) as usize;
                let mut list: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 1024) as u32).collect();
                list.sort_unstable();
                list.dedup();
                let target = (rng.next_u64() % 1100) as u32;
                let (mut unrolled_steps, mut scalar_steps) = (0u64, 0u64);
                let got = gallop(&list, target, &mut unrolled_steps);
                let want = gallop_scalar(&list, target, &mut scalar_steps);
                assert_eq!(got, want, "result diverged on {list:?} / {target}");
                assert_eq!(
                    unrolled_steps, scalar_steps,
                    "step count diverged on {list:?} / {target}"
                );
                assert_eq!(got, list.partition_point(|&x| x < target));
            }
        }
    }

    #[test]
    fn extend_block_matches_per_tuple_intern() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0x1DEA);
        for arity in [1usize, 2, 3] {
            let mut blocked = TupleStore::new(arity);
            let mut scalar = TupleStore::new(arity);
            for _ in 0..20 {
                let tuples = (rng.next_u64() % 100) as usize;
                let block: Vec<Element> = (0..tuples * arity)
                    .map(|_| (rng.next_u64() % 12) as Element)
                    .collect();
                let mut want_fresh = 0usize;
                for t in block.chunks_exact(arity) {
                    if scalar.intern(t).1 {
                        want_fresh += 1;
                    }
                }
                assert_eq!(blocked.extend_block(&block), want_fresh);
                assert_eq!(blocked.len(), scalar.len());
            }
            // Identical id assignment, not just set equality.
            for id in 0..blocked.len() as u32 {
                assert_eq!(blocked.get(TupleId(id)), scalar.get(TupleId(id)));
            }
        }
    }

    /// Reference intersection via hashing, for differential testing.
    fn naive_intersect(lists: &[&[u32]]) -> Vec<u32> {
        use std::collections::HashSet;
        let Some((first, rest)) = lists.split_first() else {
            return Vec::new();
        };
        let mut acc: HashSet<u32> = first.iter().copied().collect();
        for list in rest {
            let next: HashSet<u32> = list.iter().copied().collect();
            acc.retain(|x| next.contains(x));
        }
        let mut out: Vec<u32> = acc.into_iter().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn gallop_intersect_edge_cases() {
        let mut out = Vec::new();
        let mut steps = 0u64;
        // No lists at all.
        gallop_intersect(&[], &mut out, &mut steps);
        assert!(out.is_empty());
        // Any empty list annihilates the intersection.
        gallop_intersect(&[&[1, 2, 3], &[]], &mut out, &mut steps);
        assert!(out.is_empty());
        // A single list intersects to itself.
        gallop_intersect(&[&[4, 7, 9]], &mut out, &mut steps);
        assert_eq!(out, vec![4, 7, 9]);
        // Singletons: hit and miss.
        gallop_intersect(&[&[5], &[1, 5, 9]], &mut out, &mut steps);
        assert_eq!(out, vec![5]);
        gallop_intersect(&[&[6], &[1, 5, 9]], &mut out, &mut steps);
        assert!(out.is_empty());
        // Fully disjoint (interleaved) lists.
        gallop_intersect(&[&[0, 2, 4, 6], &[1, 3, 5, 7]], &mut out, &mut steps);
        assert!(out.is_empty());
        // All-equal lists intersect to themselves, regardless of k.
        let same: &[u32] = &[3, 6, 9, 12];
        gallop_intersect(&[same, same, same, same], &mut out, &mut steps);
        assert_eq!(out, same);
        // `out` is cleared on every call, not accumulated into.
        gallop_intersect(&[&[1], &[2]], &mut out, &mut steps);
        assert!(out.is_empty());
    }

    #[test]
    fn gallop_intersect_differential_vs_hashset() {
        use crate::rng::SplitMix64;
        let mut out = Vec::new();
        for seed in 0..40u64 {
            let mut rng = SplitMix64::seed_from_u64(0xC0FFEE + seed);
            let k = rng.gen_range(1usize..5);
            let lists: Vec<Vec<u32>> = (0..k)
                .map(|_| {
                    let len = rng.gen_range(0usize..40);
                    let mut l: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..60)).collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let refs: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            let mut steps = 0u64;
            gallop_intersect(&refs, &mut out, &mut steps);
            assert_eq!(out, naive_intersect(&refs), "seed {seed}: lists {lists:?}");
            assert!(out.windows(2).all(|w| w[0] < w[1]), "seed {seed}: unsorted");
        }
    }

    #[test]
    fn gallop_intersect2_differential_vs_hashset_and_kway() {
        use crate::rng::SplitMix64;
        use std::collections::HashSet;
        let mut fast = Vec::new();
        let mut kway = Vec::new();
        for seed in 0..120u64 {
            let mut rng = SplitMix64::seed_from_u64(0x8B10C5 + seed);
            // Skewed lengths exercise both the block path (dense
            // interleave) and the gallop fallback (sparse driver).
            let la = rng.gen_range(0usize..120);
            let lb = rng.gen_range(0usize..120);
            let mut a: Vec<u32> = (0..la).map(|_| rng.gen_range(0u32..160)).collect();
            let mut b: Vec<u32> = (0..lb).map(|_| rng.gen_range(0u32..160)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut fast_steps = 0u64;
            gallop_intersect2(&a, &b, &mut fast, &mut fast_steps);
            // HashSet oracle.
            let sa: HashSet<u32> = a.iter().copied().collect();
            let mut oracle: Vec<u32> = b.iter().copied().filter(|v| sa.contains(v)).collect();
            oracle.sort_unstable();
            assert_eq!(fast, oracle, "seed {seed}: a {a:?} b {b:?}");
            assert!(fast.windows(2).all(|w| w[0] < w[1]), "seed {seed}: sorted");
            // The k-way driver routes 2-list calls here: byte-identical.
            let mut kway_steps = 0u64;
            gallop_intersect(&[&a, &b], &mut kway, &mut kway_steps);
            assert_eq!(fast, kway, "seed {seed}: routed path diverged");
            assert_eq!(fast_steps, kway_steps, "seed {seed}: step counts");
            // Work is bounded: one block compare per driver element plus
            // logarithmic long jumps can never exceed the scalar bound of
            // both lists' lengths combined (each comparison advances
            // either the driver or the cursor by at least one).
            if !a.is_empty() && !b.is_empty() {
                assert!(
                    fast_steps <= (a.len() + b.len() + 2) as u64 * 2,
                    "seed {seed}: {fast_steps} steps for |a|={} |b|={}",
                    a.len(),
                    b.len()
                );
            }
        }
    }

    #[test]
    fn gallop_intersect2_edge_cases() {
        let mut out = vec![99];
        let mut steps = 0u64;
        gallop_intersect2(&[], &[1, 2], &mut out, &mut steps);
        assert!(out.is_empty(), "cleared on empty input");
        gallop_intersect2(&[5], &[5], &mut out, &mut steps);
        assert_eq!(out, vec![5]);
        gallop_intersect2(&[3], &[1, 2, 3, 4, 5, 6, 7, 8, 9], &mut out, &mut steps);
        assert_eq!(out, vec![3]);
        // Driver far beyond the other list: the cursor exhausts and the
        // loop returns early.
        gallop_intersect2(&[100, 200], &[1, 2, 3], &mut out, &mut steps);
        assert!(out.is_empty());
        // Long dense identical lists resolve via whole blocks.
        let dense: Vec<u32> = (0..64).collect();
        gallop_intersect2(&dense, &dense, &mut out, &mut steps);
        assert_eq!(out, dense);
    }

    #[test]
    fn range_slice_is_columnar_prefix() {
        let mut s = TupleStore::new(2);
        for i in 0..5u32 {
            s.intern(&[i, 10 * i]);
        }
        assert_eq!(s.range_slice(IdRange { start: 1, end: 3 }), &[1, 10, 2, 20]);
        assert_eq!(s.range_slice(IdRange::EMPTY), &[] as &[Element]);
        assert_eq!(s.range_slice(s.id_range()).len(), 10);
        // Batched scans chunk the slice by arity.
        let rows: Vec<&[Element]> = s.range_slice(s.id_range()).chunks_exact(2).collect();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4], &[4, 40]);
    }
}
