//! The service's answer cache: boolean answers with clock eviction at a
//! capacity bound. Each published [`Snapshot`](crate::Snapshot) owns one,
//! so an entry is never older than the EDB it answers for.

use std::collections::HashMap;

/// One resident entry of a [`ClockCache`].
#[derive(Debug)]
struct ClockSlot<K> {
    key: K,
    answer: bool,
    /// Second-chance bit: set on every hit, cleared by the sweeping hand.
    referenced: bool,
}

/// A capacity-bounded boolean-answer cache with **clock** (second-chance)
/// eviction, generic in the key.
///
/// The service keys it by `(query, goal tuple)` and keeps one per
/// snapshot: a commit publishes a new snapshot with an empty cache, so no
/// entry needs an epoch and none can outlive the EDB it was computed
/// against. At capacity, insertion evicts by the classic clock sweep: the
/// hand clears second-chance bits until it lands on an unreferenced slot.
#[derive(Debug)]
pub struct ClockCache<K> {
    index: HashMap<K, usize>,
    slots: Vec<ClockSlot<K>>,
    hand: usize,
    capacity: Option<usize>,
}

impl<K: std::hash::Hash + Eq + Clone> ClockCache<K> {
    /// A cache that holds at most `capacity` entries (`None` = unbounded),
    /// evicting by clock sweep when full. A capacity of zero caches
    /// nothing.
    pub fn new(capacity: Option<usize>) -> Self {
        Self {
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            capacity,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up the memoized answer for `key`, giving its entry a second
    /// chance.
    pub fn get(&mut self, key: &K) -> Option<bool> {
        let slot = &mut self.slots[*self.index.get(key)?];
        slot.referenced = true;
        Some(slot.answer)
    }

    /// Records `answer` for `key`, evicting by clock sweep if the cache is
    /// at capacity. Returns whether an entry was evicted.
    pub fn insert(&mut self, key: K, answer: bool) -> bool {
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.answer = answer;
            slot.referenced = true;
            return false;
        }
        let evicted = match self.capacity {
            Some(0) => return false,
            Some(cap) if self.slots.len() >= cap => {
                self.evict_one();
                true
            }
            _ => false,
        };
        self.index.insert(key.clone(), self.slots.len());
        self.slots.push(ClockSlot {
            key,
            answer,
            referenced: false,
        });
        evicted
    }

    /// One clock-sweep eviction: referenced slots get their second chance
    /// (bit cleared, hand moves on), and the first unreferenced slot is
    /// dropped by swap-remove. Terminates: after one full lap every bit
    /// is clear.
    fn evict_one(&mut self) {
        debug_assert!(!self.slots.is_empty(), "evict from a non-empty ring");
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = self.slots.swap_remove(self.hand);
        self.index.remove(&victim.key);
        if let Some(moved) = self.slots.get(self.hand) {
            // The former tail moved into the hand's slot: repoint it.
            *self
                .index
                .get_mut(&moved.key)
                .unwrap_or_else(|| unreachable!("moved slot key is indexed")) = self.hand;
        } else {
            self.hand = 0;
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
    fn capacity_bounds_entries() {
        let mut cache = ClockCache::new(Some(2));
        let evicted: Vec<bool> = (3..7)
            .enumerate()
            .map(|(i, query)| cache.insert(key(query, &[0, 1]), i % 2 == 0))
            .collect();
        assert_eq!(evicted, [false, false, true, true]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lookups_match_keys_by_value() {
        let mut cache = ClockCache::new(None);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(0, &[0, 3])), None);
        cache.insert(key(0, &[0, 3]), true);
        assert_eq!(cache.get(&key(0, &[0, 3])), Some(true));
        // An equal key built separately: still a hit.
        let again: Vec<Element> = vec![0, 3];
        assert_eq!(cache.get(&key(0, &again)), Some(true));
        // Another query or another tuple is another entry.
        assert_eq!(cache.get(&key(1, &[0, 3])), None);
        assert_eq!(cache.get(&key(0, &[3, 0])), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clock_cache_evicts_at_capacity_with_second_chance() {
        let mut cache: ClockCache<u32> = ClockCache::new(Some(3));
        cache.insert(1, true);
        cache.insert(2, false);
        cache.insert(3, true);
        // Touch 1 and 3 so they carry second-chance bits; 2 is the victim.
        assert_eq!(cache.get(&1), Some(true));
        assert_eq!(cache.get(&3), Some(true));
        assert!(cache.insert(4, true));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&2), None, "unreferenced entry was evicted");
        assert_eq!(cache.get(&1), Some(true));
        assert_eq!(cache.get(&3), Some(true));
        assert_eq!(cache.get(&4), Some(true));
        // Re-inserting an existing key never evicts.
        assert!(!cache.insert(4, false));
        assert_eq!(cache.get(&4), Some(false));
    }

    #[test]
    fn clock_cache_zero_capacity_stores_nothing() {
        let mut cache: ClockCache<u32> = ClockCache::new(Some(0));
        assert!(!cache.insert(1, true));
        assert_eq!(cache.get(&1), None);
        assert!(cache.is_empty());
    }
}
