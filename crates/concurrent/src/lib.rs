//! # concurrent
//!
//! Generic thread-scalability layer for the workspace's filters
//! (tutorial §1, feature 6).
//!
//! [`Sharded<F>`] lifts *any* single-threaded filter implementing the
//! `filter-core` traits into a thread-safe structure by partitioning
//! the key space into `2^shard_bits` independent shards, each its own
//! filter instance behind its own mutex. Threads operating on
//! different shards never contend; with shards ≳ 4× threads,
//! contention on any one lock is rare, which is the same recipe the
//! counting quotient filter uses internally (per-region locks over a
//! partitioned table).
//!
//! ## The shard-bit / fingerprint-bit disjointness invariant
//!
//! Sharding must not change per-shard false-positive behaviour. Every
//! fingerprint filter in this workspace consumes the **low** `q + r`
//! bits of a key hash produced under the filter's **own seed**
//! (`filter_core::quotienting`). Shard selection therefore uses the
//! **top** `shard_bits` of a hash produced under a **dedicated seed**
//! ([`SHARD_SEED`]) that no inner filter uses. Two independent
//! defences, either of which suffices:
//!
//! 1. different seeds → the shard-selection hash and the in-filter
//!    fingerprint hash are independent functions of the key, so
//!    conditioning on "key landed in shard i" does not bias the
//!    fingerprint distribution inside shard i;
//! 2. top-vs-low bit split → even under one shared seed the bits
//!    consumed would be disjoint (as long as `shard_bits + q + r ≤
//!    64`).
//!
//! [`Sharded::new`] additionally hands each shard its index so
//! builders can derive distinct per-shard filter seeds; the
//! constructors in `quotient`, `cuckoo`, and `lsm` all do.
//!
//! ## What sharding gives — and what it does not
//!
//! `Sharded<F>` preserves F's semantics exactly: a key's operations
//! always land on the same shard, so insert/contains/count/remove
//! sequences behave as if applied to a single filter sized
//! `capacity / shards` (see the model-based equivalence property in
//! `tests/proptest_invariants.rs`). Aggregate statistics (`len`,
//! `size_in_bytes`) sum over shards. Cross-shard operations are not
//! atomic: `len()` racing concurrent inserts is a snapshot, as for
//! any concurrent counter.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use filter_core::{
    BatchedFilter, CountingFilter, DynamicFilter, Filter, Hasher, InsertFilter, Result, PROBE_CHUNK,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use telemetry::StaticCounter;

/// Shard mutexes recovered after their holder panicked.
pub static POISON_RECOVERIES: StaticCounter = StaticCounter::new(
    "bb_sharded_lock_poison_recoveries_total",
    "Shard mutexes recovered after a holder thread panicked.",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    POISON_RECOVERIES.register();
}

/// One cache line per shard so op counters on neighbouring shards
/// never false-share (the whole point of sharding is that threads on
/// different shards do not touch the same lines).
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// Seed reserved for shard selection. No filter constructor in the
/// workspace uses this seed for fingerprinting, upholding defence (1)
/// of the disjointness invariant documented at the crate root.
pub const SHARD_SEED: u64 = 0xc0c0_5ea1_ed5e_ed00;

/// Maximum supported `shard_bits` (4096 shards).
pub const MAX_SHARD_BITS: u32 = 12;

/// A thread-safe filter built from `2^shard_bits` independent
/// single-threaded shards.
///
/// All operations take `&self`; share freely via `Arc` or
/// `std::thread::scope` borrows.
///
/// # Examples
///
/// ```
/// use concurrent::Sharded;
/// use bloom::BloomFilter;
///
/// // 16 shards, each a Bloom filter with a distinct derived seed.
/// let f = Sharded::new(4, |i| BloomFilter::with_seed(10_000, 0.01, i as u64));
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let f = &f;
///         s.spawn(move || {
///             for k in (t * 1000)..(t * 1000 + 1000) {
///                 f.insert(k).unwrap();
///             }
///         });
///     }
/// });
/// assert!((0..4000u64).all(|k| f.contains(k)));
/// ```
pub struct Sharded<F> {
    shards: Vec<Mutex<F>>,
    ops: Box<[PaddedCounter]>,
    hasher: Hasher,
    shard_bits: u32,
}

impl<F> Sharded<F> {
    /// Create with `2^shard_bits` shards; `build(i)` constructs shard
    /// `i`. Builders should derive a distinct filter seed from `i`.
    pub fn new(shard_bits: u32, build: impl FnMut(usize) -> F) -> Self {
        assert!(
            shard_bits <= MAX_SHARD_BITS,
            "shard_bits {shard_bits} > {MAX_SHARD_BITS}"
        );
        let shards: Vec<Mutex<F>> = (0..1usize << shard_bits)
            .map(build)
            .map(Mutex::new)
            .collect();
        let ops = (0..shards.len())
            .map(|_| PaddedCounter(AtomicU64::new(0)))
            .collect();
        Sharded {
            shards,
            ops,
            hasher: Hasher::with_seed(SHARD_SEED),
            shard_bits,
        }
    }

    /// Rebuild from previously constructed shards in index order —
    /// e.g. filters deserialized from per-shard blobs, or a single
    /// pre-built filter shipped over the service's CREATE frame
    /// (a one-element vector gives an unsharded wrapper).
    ///
    /// # Panics
    /// Panics unless `shards.len()` is a power of two between 1 and
    /// `2^MAX_SHARD_BITS`.
    pub fn from_shards(shards: Vec<F>) -> Self {
        assert!(
            shards.len().is_power_of_two() && shards.len() <= 1 << MAX_SHARD_BITS,
            "shard count {} not a power of two <= {}",
            shards.len(),
            1usize << MAX_SHARD_BITS
        );
        let shard_bits = shards.len().trailing_zeros();
        let ops = (0..shards.len())
            .map(|_| PaddedCounter(AtomicU64::new(0)))
            .collect();
        Sharded {
            shards: shards.into_iter().map(Mutex::new).collect(),
            ops,
            hasher: Hasher::with_seed(SHARD_SEED),
            shard_bits,
        }
    }

    /// Consume the wrapper, returning the per-shard filters in index
    /// order (serialization walks these to emit per-shard blobs).
    pub fn into_shards(self) -> Vec<F> {
        self.shards
            .into_iter()
            .map(|m| match m.into_inner() {
                Ok(f) => f,
                Err(poisoned) => {
                    POISON_RECOVERIES.inc();
                    poisoned.into_inner()
                }
            })
            .collect()
    }

    /// Number of shard-index bits (`shards() == 1 << shard_bits()`).
    #[inline]
    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// Shard index for `key`: the **top** `shard_bits` of the
    /// dedicated shard hash (disjoint from the low fingerprint bits
    /// any inner filter consumes — see the crate docs).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (self.hasher.hash(&key) >> (64 - self.shard_bits)) as usize
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Run `f` on the shard owning `key`.
    #[inline]
    pub fn with_shard<R>(&self, key: u64, f: impl FnOnce(&mut F) -> R) -> R {
        let mut guard = self.lock(self.shard_of(key));
        f(&mut guard)
    }

    /// Run `f` on every shard in index order (aggregate statistics,
    /// serialization). Locks one shard at a time.
    pub fn for_each_shard<R>(&self, mut f: impl FnMut(&F) -> R) -> Vec<R> {
        (0..self.shards.len()).map(|i| f(&self.lock(i))).collect()
    }

    /// Per-shard operation counts (one entry per shard, a racing
    /// snapshot): every `lock()` acquisition bumps the owning shard's
    /// counter while telemetry is enabled, so skewed key streams show
    /// up as skewed shard loads in the exposition.
    pub fn shard_ops(&self) -> Vec<u64> {
        self.ops
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect()
    }

    #[inline]
    fn lock(&self, i: usize) -> std::sync::MutexGuard<'_, F> {
        // A poisoned shard means another thread panicked mid-update;
        // filters hold no invariant that a completed panic unwinds, so
        // recover the guard rather than cascade the panic.
        let guard = match self.shards[i].lock() {
            Ok(g) => g,
            Err(poisoned) => {
                POISON_RECOVERIES.inc();
                poisoned.into_inner()
            }
        };
        if telemetry::enabled() {
            // Bumped while holding the shard mutex, so every writer to
            // ops[i] is serialized: a plain load+store cannot lose
            // increments, and costs no locked RMW on the probe path
            // (readers take a racing Relaxed snapshot).
            let c = &self.ops[i].0;
            c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        guard
    }

    /// Group `keys` by shard, each with its index in `keys`. A stable
    /// counting sort into one buffer: every shard's keys keep their
    /// input order, and a call makes three allocations however many
    /// shards the keys hit. Batch operations then lock every non-empty
    /// shard exactly once.
    fn group_by_shard(&self, keys: &[u64]) -> ShardGroups {
        let shard: Vec<usize> = keys.iter().map(|&k| self.shard_of(k)).collect();
        // ends[s] counts shard s's keys, then holds its first slot,
        // and after the scatter one past its last.
        let mut ends = vec![0usize; self.shards.len()];
        for &s in &shard {
            ends[s] += 1;
        }
        let mut start = 0;
        for e in ends.iter_mut() {
            let n = *e;
            *e = start;
            start += n;
        }
        let mut entries = vec![(0, 0); keys.len()];
        for (i, (&k, &s)) in keys.iter().zip(&shard).enumerate() {
            entries[ends[s]] = (i, k);
            ends[s] += 1;
        }
        ShardGroups { entries, ends }
    }
}

/// Keys grouped by shard ([`Sharded::group_by_shard`]).
struct ShardGroups {
    /// `(index in the input, key)`: shard 0's entries first, each
    /// shard's in input order.
    entries: Vec<(usize, u64)>,
    /// `ends[s]`: one past shard `s`'s last entry.
    ends: Vec<usize>,
}

impl ShardGroups {
    /// `(shard, entries)` for every non-empty shard, in shard order.
    fn iter(&self) -> impl Iterator<Item = (usize, &[(usize, u64)])> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .enumerate()
            .filter(|&(_, (b, &e))| b < e)
            .map(|(s, (b, &e))| (s, &self.entries[b..e]))
    }
}

impl<F: Filter> Sharded<F> {
    /// Membership query (never a false negative for inserted keys).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.with_shard(key, |f| f.contains(key))
    }

    /// Distinct keys represented, summed over shards (a racing
    /// snapshot under concurrent writes). Saturates: a shard restored
    /// from a forged blob may claim any count.
    pub fn len(&self) -> usize {
        self.for_each_shard(|f| f.len())
            .into_iter()
            .fold(0, usize::saturating_add)
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes summed over shards.
    pub fn size_in_bytes(&self) -> usize {
        self.for_each_shard(|f| f.size_in_bytes()).into_iter().sum()
    }
}

impl<F: BatchedFilter> Sharded<F> {
    /// Batched membership: `out[i]` answers `keys[i]`. Groups keys by
    /// shard (locking each shard once instead of once per key), runs
    /// each shard's keys through the inner filter's pipelined
    /// [`BatchedFilter`] kernel, and restitches results to input
    /// order.
    pub fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        self.contains_into(keys, &mut out);
        out
    }

    /// Core of the batched membership path: answers into `out`
    /// (shared by [`Sharded::contains_batch`] and the
    /// [`BatchedFilter`] impl).
    fn contains_into(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert_eq!(keys.len(), out.len());
        // Scratch buffers reused across shards: the kernel wants each
        // shard's keys contiguous, and results come back in that
        // gathered order before being scattered to input positions.
        let mut gathered: Vec<u64> = Vec::new();
        let mut answers: Vec<bool> = Vec::new();
        for (s, bucket) in self.group_by_shard(keys).iter() {
            gathered.clear();
            gathered.extend(bucket.iter().map(|&(_, k)| k));
            answers.clear();
            answers.resize(bucket.len(), false);
            let shard = self.lock(s);
            shard.contains_many(&gathered, &mut answers);
            drop(shard);
            for (&(i, _), &a) in bucket.iter().zip(&answers) {
                out[i] = a;
            }
        }
    }
}

impl<F: InsertFilter> Sharded<F> {
    /// Insert `key` (thread-safe, `&self`).
    #[inline]
    pub fn insert(&self, key: u64) -> Result<()> {
        self.with_shard(key, |f| f.insert(key))
    }

    /// Batched insert; locks each shard once. Under the lock, each
    /// [`PROBE_CHUNK`] of the shard's keys is prefetched
    /// ([`InsertFilter::prefetch_insert`]) and then inserted in input
    /// order — the order two-choice placement and cuckoo kicks depend
    /// on — so the result is bit-identical to calling
    /// [`Sharded::insert`] per key.
    ///
    /// On error the inserted prefix is by shard bucket, not by input
    /// order: buckets are visited in shard-index order, so every key
    /// of a lower-indexed shard stays inserted (even one that follows
    /// the failing key in `keys`), as do the failing bucket's keys
    /// before it; keys of higher-indexed shards are not inserted.
    pub fn insert_batch(&self, keys: &[u64]) -> Result<()> {
        for (s, bucket) in self.group_by_shard(keys).iter() {
            let mut shard = self.lock(s);
            for chunk in bucket.chunks(PROBE_CHUNK) {
                for &(_, k) in chunk {
                    shard.prefetch_insert(k);
                }
                for &(_, k) in chunk {
                    shard.insert(k)?;
                }
            }
        }
        Ok(())
    }
}

impl<F: DynamicFilter> Sharded<F> {
    /// Remove one occurrence of `key`.
    #[inline]
    pub fn remove(&self, key: u64) -> Result<bool> {
        self.with_shard(key, |f| f.remove(key))
    }

    /// Batched remove; `out[i]` reports whether `keys[i]` matched a
    /// stored fingerprint. Locks each shard once. On error, removals
    /// in earlier buckets remain applied (prefix semantics, as for
    /// [`Sharded::insert_batch`]).
    pub fn remove_batch(&self, keys: &[u64]) -> Result<Vec<bool>> {
        let mut out = vec![false; keys.len()];
        for (s, bucket) in self.group_by_shard(keys).iter() {
            let mut shard = self.lock(s);
            for &(i, k) in bucket {
                out[i] = shard.remove(k)?;
            }
        }
        Ok(out)
    }
}

impl<F: CountingFilter> Sharded<F> {
    /// Insert `count` occurrences of `key`.
    #[inline]
    pub fn insert_count(&self, key: u64, count: u64) -> Result<()> {
        self.with_shard(key, |f| f.insert_count(key, count))
    }

    /// Upper-bounding multiplicity estimate.
    #[inline]
    pub fn count(&self, key: u64) -> u64 {
        self.with_shard(key, |f| f.count(key))
    }

    /// Remove `count` occurrences of `key`.
    #[inline]
    pub fn remove_count(&self, key: u64, count: u64) -> Result<()> {
        self.with_shard(key, |f| f.remove_count(key, count))
    }

    /// Batched multiplicity estimate: `out[i]` answers `keys[i]`.
    /// Locks each shard once instead of once per key.
    pub fn count_batch(&self, keys: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; keys.len()];
        for (s, bucket) in self.group_by_shard(keys).iter() {
            let shard = self.lock(s);
            for &(i, k) in bucket {
                out[i] = shard.count(k);
            }
        }
        out
    }
}

impl<F: Filter> Filter for Sharded<F> {
    fn contains(&self, key: u64) -> bool {
        Sharded::contains(self, key)
    }

    fn len(&self) -> usize {
        Sharded::len(self)
    }

    fn size_in_bytes(&self) -> usize {
        Sharded::size_in_bytes(self)
    }
}

impl<F: BatchedFilter> BatchedFilter for Sharded<F> {
    /// Batched membership through shard grouping: one lock per
    /// non-empty shard, inner kernels per shard, input order
    /// preserved. Overrides the whole driver (not just the chunk
    /// hook) because grouping wants to see the full batch at once.
    fn contains_many(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(
            keys.len(),
            out.len(),
            "contains_many: keys and out lengths differ"
        );
        self.contains_into(keys, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom::BloomFilter;
    use std::sync::Arc;
    use workloads::{disjoint_keys, unique_keys};

    fn sharded_bloom(shard_bits: u32, capacity: usize) -> Sharded<BloomFilter> {
        let per_shard = (capacity >> shard_bits).max(64);
        Sharded::new(shard_bits, |i| {
            BloomFilter::with_seed(per_shard, 0.01, 0x0b10 ^ i as u64)
        })
    }

    #[test]
    fn single_thread_roundtrip_and_fpr() {
        let f = sharded_bloom(4, 40_000);
        let keys = unique_keys(500, 40_000);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        assert!(keys.iter().all(|&k| f.contains(k)));
        assert_eq!(f.len(), 40_000);
        let neg = disjoint_keys(501, 40_000, &keys);
        let fpr = neg.iter().filter(|&&k| f.contains(k)).count() as f64 / 40_000.0;
        // Sharding must not degrade FPR beyond sampling noise.
        assert!(fpr < 0.02, "fpr {fpr}");
    }

    #[test]
    fn zero_shard_bits_is_a_single_filter() {
        let f = sharded_bloom(0, 1_000);
        assert_eq!(f.shards(), 1);
        f.insert(42).unwrap();
        assert!(f.contains(42));
        assert_eq!(f.shard_of(u64::MAX), 0);
    }

    #[test]
    fn shard_assignment_is_stable_and_uniform() {
        let f = sharded_bloom(4, 10_000);
        let keys = unique_keys(502, 16_000);
        let mut counts = [0usize; 16];
        for &k in &keys {
            let s = f.shard_of(k);
            assert_eq!(s, f.shard_of(k));
            counts[s] += 1;
        }
        // Each shard should get ~1000 of 16k keys; allow wide noise.
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "shard {i} got {c} keys");
        }
    }

    #[test]
    fn batch_matches_pointwise() {
        let f = sharded_bloom(3, 5_000);
        let keys = unique_keys(503, 5_000);
        f.insert_batch(&keys).unwrap();
        let neg = disjoint_keys(504, 5_000, &keys);
        let mut probes = keys.clone();
        probes.extend_from_slice(&neg);
        let batch = f.contains_batch(&probes);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.contains(k), "probe {i}");
        }
        assert!(batch[..keys.len()].iter().all(|&b| b));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let f = Arc::new(sharded_bloom(4, 80_000));
        let keys = unique_keys(505, 80_000);
        std::thread::scope(|s| {
            for chunk in keys.chunks(20_000) {
                let f = Arc::clone(&f);
                s.spawn(move || f.insert_batch(chunk).unwrap());
            }
        });
        std::thread::scope(|s| {
            for chunk in keys.chunks(20_000) {
                let f = Arc::clone(&f);
                s.spawn(move || assert!(chunk.iter().all(|&k| f.contains(k))));
            }
        });
    }

    #[test]
    fn from_shards_round_trips_behaviour() {
        let f = sharded_bloom(3, 8_000);
        let keys = unique_keys(506, 8_000);
        f.insert_batch(&keys).unwrap();
        let g = Sharded::from_shards(f.into_shards());
        assert_eq!(g.shards(), 8);
        assert_eq!(g.shard_bits(), 3);
        assert!(g.contains_batch(&keys).iter().all(|&b| b));
        // Same shard hash seed: every key routes to the same shard.
        let h = sharded_bloom(3, 8_000);
        for &k in &keys[..500] {
            assert_eq!(g.shard_of(k), h.shard_of(k));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_shards_rejects_non_power_of_two() {
        let shards: Vec<BloomFilter> = (0..3).map(|i| BloomFilter::with_seed(64, 0.1, i)).collect();
        let _ = Sharded::from_shards(shards);
    }

    #[test]
    fn filter_trait_is_implemented() {
        let f = sharded_bloom(2, 1_000);
        f.insert(7).unwrap();
        let dynf: &dyn Filter = &f;
        assert!(dynf.contains(7));
        assert_eq!(dynf.len(), 1);
        assert!(dynf.size_in_bytes() > 0);
    }
}
