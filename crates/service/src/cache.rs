//! The service's answer cache: boolean answers memoized under an
//! epoch stamp, with clock eviction at a capacity bound.

use std::collections::HashMap;

/// Hit/miss/eviction counters of a [`ClockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to be computed.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries dropped by capacity pressure (clock eviction). Stale
    /// entries aged out by an epoch bump are not counted here.
    pub evictions: u64,
}

/// One resident entry of a [`ClockCache`].
#[derive(Debug)]
struct ClockSlot<K> {
    key: K,
    answer: bool,
    /// Epoch the answer was computed against.
    stamp: u64,
    /// Second-chance bit: set on every hit, cleared by the sweeping hand.
    referenced: bool,
}

/// A capacity-bounded boolean-answer cache with **clock** (second-chance)
/// eviction over **epoch-stamped** entries, generic in the key.
///
/// This is the serving layer's shared result cache, keyed by
/// `(query, goal tuple)`:
///
/// - Every entry carries the epoch it was computed at. A
///   [`bump_epoch`](Self::bump_epoch) (the backing store mutated) makes
///   older entries stale; a stale entry can never be served — the check
///   happens inside [`get`](Self::get), before any answer is returned —
///   and is dropped lazily on lookup or swept by the clock hand.
/// - [`insert_if_epoch`](Self::insert_if_epoch) is the **race-free**
///   check-and-insert: the caller captures the epoch when it takes its
///   snapshot (at [`get`](Self::get) time, under the same lock) and the
///   insert is rejected if a writer bumped the epoch while the answer was
///   being computed. Without the check, a slow reader could publish an
///   answer computed against the pre-batch store stamped as post-batch.
/// - At capacity, insertion evicts by the classic clock sweep: the hand
///   clears second-chance bits until it lands on an unreferenced slot
///   (stale slots are immediate victims regardless of their bit).
#[derive(Debug)]
pub struct ClockCache<K> {
    index: HashMap<K, usize>,
    slots: Vec<ClockSlot<K>>,
    hand: usize,
    capacity: Option<usize>,
    epoch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K> Default for ClockCache<K> {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            capacity: None,
            epoch: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone> ClockCache<K> {
    /// An unbounded cache (entries only leave by going stale).
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache that holds at most `capacity` entries, evicting by clock
    /// sweep when full. A capacity of zero caches nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The current store epoch answers are stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marks every currently stored answer stale (the backing store
    /// mutated) and returns the new epoch. Stale entries are evicted
    /// lazily on lookup or by the clock sweep rather than eagerly
    /// dropped.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Drops the slot at `i`, keeping the ring dense (swap-remove) and the
    /// index and hand consistent.
    fn drop_slot(&mut self, i: usize) {
        let slot = self.slots.swap_remove(i);
        self.index.remove(&slot.key);
        if i < self.slots.len() {
            // The former tail moved into `i`: repoint its index entry.
            *self
                .index
                .get_mut(&self.slots[i].key)
                .unwrap_or_else(|| unreachable!("moved slot key is indexed")) = i;
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }

    /// Looks up the memoized answer for `key`, counting a hit or a miss.
    /// An entry stamped before the current epoch is stale: it is evicted
    /// and the lookup counts as a miss.
    pub fn get(&mut self, key: &K) -> Option<bool> {
        match self.index.get(key).copied() {
            Some(i) if self.slots[i].stamp == self.epoch => {
                self.slots[i].referenced = true;
                self.hits += 1;
                Some(self.slots[i].answer)
            }
            Some(i) => {
                self.drop_slot(i);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records `answer` for `key`, stamped with the current epoch,
    /// evicting by clock sweep if the cache is at capacity.
    pub fn insert(&mut self, key: K, answer: bool) {
        if self.capacity == Some(0) {
            return;
        }
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.answer = answer;
            slot.stamp = self.epoch;
            slot.referenced = true;
            return;
        }
        if let Some(cap) = self.capacity {
            while self.slots.len() >= cap {
                self.evict_one();
            }
        }
        self.index.insert(key.clone(), self.slots.len());
        self.slots.push(ClockSlot {
            key,
            answer,
            stamp: self.epoch,
            referenced: false,
        });
    }

    /// Race-free check-and-insert: records `answer` only if the cache is
    /// still at `observed_epoch` — the epoch the caller captured when it
    /// took the snapshot its answer was computed against. Returns whether
    /// the entry was stored. A writer that committed a batch (and bumped
    /// the epoch) between the caller's snapshot and this insert makes the
    /// answer stale-on-arrival; storing it would stamp a pre-batch answer
    /// as post-batch, exactly the staleness the epoch discipline exists
    /// to rule out.
    pub fn insert_if_epoch(&mut self, key: K, answer: bool, observed_epoch: u64) -> bool {
        if observed_epoch != self.epoch {
            return false;
        }
        self.insert(key, answer);
        true
    }

    /// One clock-sweep eviction. Stale slots are taken on sight;
    /// fresh referenced slots get their second chance (bit cleared, hand
    /// moves on). Terminates: after one full lap every bit is clear.
    fn evict_one(&mut self) {
        debug_assert!(!self.slots.is_empty(), "evict from a non-empty ring");
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.stamp == self.epoch && slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.slots.len();
            } else {
                let victim = self.hand;
                self.drop_slot(victim);
                self.evictions += 1;
                return;
            }
        }
    }

    /// Current hit/miss/entry/eviction counters. `entries` counts stored
    /// entries including stale ones not yet dropped.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.slots.len() as u64,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kv_structures::Element;

    /// The service's key: query id plus goal tuple.
    fn key(query: u32, tuple: &[Element]) -> (u32, Box<[Element]>) {
        (query, Box::from(tuple))
    }

    #[test]
    fn epoch_bump_makes_entries_stale() {
        let mut cache = ClockCache::new();
        cache.insert(key(0, &[0, 3]), true);
        assert_eq!(cache.get(&key(0, &[0, 3])), Some(true));
        assert_eq!(cache.epoch(), 0);
        // The store mutated: the old answer must not be served again.
        assert_eq!(cache.bump_epoch(), 1);
        assert_eq!(cache.get(&key(0, &[0, 3])), None);
        // The stale entry was evicted, not just skipped.
        assert_eq!(cache.stats().entries, 0);
        // An answer recomputed at the new epoch is served again.
        cache.insert(key(0, &[0, 3]), false);
        assert_eq!(cache.get(&key(0, &[0, 3])), Some(false));
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn capacity_bounds_entries() {
        let mut cache = ClockCache::with_capacity(2);
        for (i, query) in (3..7).enumerate() {
            cache.insert(key(query, &[0, 1]), i % 2 == 0);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = ClockCache::new();
        assert_eq!(cache.get(&key(0, &[0, 3])), None);
        cache.insert(key(0, &[0, 3]), true);
        assert_eq!(cache.get(&key(0, &[0, 3])), Some(true));
        // An equal key built separately: still a hit.
        let again: Vec<Element> = vec![0, 3];
        assert_eq!(cache.get(&key(0, &again)), Some(true));
        // Another query or another tuple is another entry.
        assert_eq!(cache.get(&key(1, &[0, 3])), None);
        assert_eq!(cache.get(&key(0, &[3, 0])), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn insert_if_epoch_rejects_racing_writers() {
        // The regression shape: a reader captures the epoch with its
        // snapshot, computes outside the lock, and a writer's batch
        // commits in between. The insert must be rejected — storing it
        // would stamp a pre-batch answer at the post-batch epoch.
        let mut cache = ClockCache::new();
        assert_eq!(cache.get(&key(0, &[0, 3])), None);
        let observed = cache.epoch();
        // Writer commits while the reader evaluates.
        cache.bump_epoch();
        assert!(!cache.insert_if_epoch(key(0, &[0, 3]), true, observed));
        assert_eq!(cache.get(&key(0, &[0, 3])), None, "stale answer not served");
        assert_eq!(cache.stats().entries, 0);
        // Without interference the insert lands.
        let observed = cache.epoch();
        assert!(cache.insert_if_epoch(key(0, &[0, 3]), false, observed));
        assert_eq!(cache.get(&key(0, &[0, 3])), Some(false));
    }

    #[test]
    fn clock_cache_evicts_at_capacity_with_second_chance() {
        let mut cache: ClockCache<u32> = ClockCache::with_capacity(3);
        assert_eq!(cache.capacity(), Some(3));
        cache.insert(1, true);
        cache.insert(2, false);
        cache.insert(3, true);
        // Touch 1 and 3 so they carry second-chance bits; 2 is the victim.
        assert_eq!(cache.get(&1), Some(true));
        assert_eq!(cache.get(&3), Some(true));
        cache.insert(4, true);
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&2), None, "unreferenced entry was evicted");
        assert_eq!(cache.get(&1), Some(true));
        assert_eq!(cache.get(&3), Some(true));
        assert_eq!(cache.get(&4), Some(true));
        // Re-inserting an existing key never evicts.
        cache.insert(4, false);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&4), Some(false));
    }

    #[test]
    fn clock_cache_prefers_stale_victims() {
        let mut cache: ClockCache<u32> = ClockCache::with_capacity(2);
        cache.insert(1, true);
        cache.bump_epoch();
        cache.insert(2, true);
        // 1 is stale, 2 fresh: the sweep takes 1 even though the hand
        // may pass a referenced fresh slot.
        assert_eq!(cache.get(&2), Some(true));
        cache.insert(3, true);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(true));
        assert_eq!(cache.get(&3), Some(true));
    }

    #[test]
    fn clock_cache_zero_capacity_stores_nothing() {
        let mut cache: ClockCache<u32> = ClockCache::with_capacity(0);
        cache.insert(1, true);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats().entries, 0);
    }
}
