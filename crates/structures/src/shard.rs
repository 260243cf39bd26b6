//! Hash-partitioned relation shards and the inter-worker delta exchange.
//!
//! Sharded evaluation partitions *ownership* of tuples across `W` workers
//! by hashing one planner-chosen key position (the [`ShardKey`]): worker
//! [`shard_of`]`(tuple, key, W)` owns the tuple. Both primitives here are
//! deliberately small and synchronization-free:
//!
//! - [`shard_of`]: the total, deterministic owner function.
//! - [`DeltaExchange`]: the router for tuples a worker derived but does
//!   not own. Workers fill per-destination outboxes privately during a
//!   stage; at the stage barrier the outboxes are *sealed* into one
//!   exchange and each owner drains its inbox while merging. The barrier
//!   is the only synchronization point — no locks, no channels — which is
//!   exactly why the global stage loop (and with it the paper's Theorem
//!   3.6 stage semantics) survives sharding unchanged.

use crate::store::mix64;
use crate::structure::Element;

/// The shard key of one relation: the tuple position whose value is hashed
/// to pick the owning worker. Chosen per predicate by the planner (from
/// [`CardStats`](crate::CardStats) distinct counts) to maximize join
/// locality; [`ShardKey::FALLBACK`] pins nullary and out-of-range cases to
/// worker 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKey {
    /// The hashed tuple position.
    pub pos: usize,
}

impl ShardKey {
    /// The key used when a relation has no usable position (nullary
    /// relations): everything routes to worker 0.
    pub const FALLBACK: ShardKey = ShardKey { pos: 0 };

    /// A key over position `pos`.
    pub fn at(pos: usize) -> Self {
        ShardKey { pos }
    }
}

/// The worker that owns `tuple` under `key` with `shards` workers.
///
/// Total and deterministic: nullary tuples (or a key position beyond the
/// arity) land on worker 0, everything else on
/// `splitmix64(tuple[key.pos]) % shards`. With `shards <= 1` the answer is
/// always 0, so a one-shard run is bit-identical to an unsharded one.
#[inline]
pub fn shard_of(tuple: &[Element], key: ShardKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    match tuple.get(key.pos) {
        None => 0,
        Some(&e) => (mix64(u64::from(e)) % shards as u64) as usize,
    }
}

/// The sealed inter-worker delta exchange of one stage, for one relation.
///
/// During a stage each worker privately fills `W` per-destination outboxes
/// (flat, arity-strided tuple blocks — already interned in the sender's
/// scratch arena, so each tuple crosses at most once). At the stage
/// barrier the per-worker outboxes are *sealed* into a `DeltaExchange`;
/// owners then drain their inboxes in sender order, which makes the merged
/// delta deterministic for any worker interleaving. Sealing is a move, not
/// a copy, and there is no other synchronization.
#[derive(Debug)]
pub struct DeltaExchange {
    /// `sealed[sender][dest]`: flat tuples routed from `sender` to `dest`.
    sealed: Vec<Vec<Vec<Element>>>,
    arity: usize,
    exchanged: u64,
}

impl DeltaExchange {
    /// Seals per-worker outboxes (`outboxes[sender][dest]`, flat
    /// arity-strided tuples) into an exchange. Tuples a worker routed to
    /// itself are *not* counted as exchanged.
    ///
    /// # Panics
    /// Panics if the outbox matrix is not `W × W` or a block is not
    /// arity-aligned.
    pub fn seal(arity: usize, outboxes: Vec<Vec<Vec<Element>>>) -> Self {
        let workers = outboxes.len();
        let stride = arity.max(1);
        let mut exchanged = 0u64;
        for (sender, row) in outboxes.iter().enumerate() {
            assert_eq!(row.len(), workers, "outbox matrix must be W × W");
            for (dest, block) in row.iter().enumerate() {
                assert_eq!(block.len() % stride, 0, "outbox block misaligned");
                if dest != sender {
                    exchanged += (block.len() / stride) as u64;
                }
            }
        }
        DeltaExchange {
            sealed: outboxes,
            arity,
            exchanged,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.sealed.len()
    }

    /// Tuples that crossed worker boundaries (self-routed tuples excluded).
    pub fn exchanged(&self) -> u64 {
        self.exchanged
    }

    /// Drains worker `dest`'s inbox: the flat tuple blocks addressed to
    /// it, in sender order. Each block is arity-strided; iterate with
    /// `chunks_exact(arity)`.
    pub fn inbox(&self, dest: usize) -> impl Iterator<Item = &[Element]> {
        self.sealed.iter().map(move |row| row[dest].as_slice())
    }

    /// Tuple arity of the exchanged relation.
    pub fn arity(&self) -> usize {
        self.arity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_tuple(rng: &mut SplitMix64, arity: usize, universe: u64) -> Vec<Element> {
        (0..arity)
            .map(|_| (rng.next_u64() % universe) as Element)
            .collect()
    }

    #[test]
    fn every_tuple_has_exactly_one_owner() {
        let mut rng = SplitMix64::seed_from_u64(0x5A4D);
        for _ in 0..200 {
            let arity = (rng.next_u64() % 4 + 1) as usize;
            let shards = [1usize, 2, 3, 4, 7, 8][(rng.next_u64() % 6) as usize];
            let key = ShardKey::at((rng.next_u64() % (arity as u64 + 1)) as usize);
            let tuple = random_tuple(&mut rng, arity, 50);
            let owner = shard_of(&tuple, key, shards);
            assert!(owner < shards, "owner within range");
            // Deterministic: the same tuple always routes identically.
            assert_eq!(owner, shard_of(&tuple, key, shards));
        }
    }

    #[test]
    fn nullary_and_out_of_range_keys_route_to_worker_zero() {
        assert_eq!(shard_of(&[], ShardKey::FALLBACK, 8), 0);
        assert_eq!(shard_of(&[3], ShardKey::at(5), 8), 0);
        assert_eq!(shard_of(&[3, 4], ShardKey::at(1), 1), 0);
    }

    #[test]
    fn exchange_seals_and_counts_cross_worker_tuples() {
        let workers = 3usize;
        let arity = 2usize;
        // outboxes[sender][dest]
        let mut outboxes = vec![vec![Vec::new(); workers]; workers];
        outboxes[0][0].extend_from_slice(&[1, 2]); // self-routed: not exchanged
        outboxes[0][2].extend_from_slice(&[3, 4, 5, 6]); // two tuples cross
        outboxes[1][2].extend_from_slice(&[7, 8]);
        let exchange = DeltaExchange::seal(arity, outboxes);
        assert_eq!(exchange.workers(), workers);
        assert_eq!(exchange.exchanged(), 3);
        let inbox2: Vec<&[Element]> = exchange.inbox(2).collect();
        assert_eq!(inbox2, vec![&[3, 4, 5, 6][..], &[7, 8][..], &[][..]]);
        let inbox1: Vec<Element> = exchange.inbox(1).flatten().copied().collect();
        assert!(inbox1.is_empty());
    }
}
