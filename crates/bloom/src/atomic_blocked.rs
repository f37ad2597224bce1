//! Wait-free concurrent blocked Bloom filter.
//!
//! A Bloom filter's state is a monotone set of bits: inserts only ever
//! set bits, and queries only read them. That makes it the textbook
//! candidate for lock-free sharing — `fetch_or` on atomic words gives
//! linearizable inserts with no locks, no retries, and no blocking
//! (every operation finishes in a bounded number of steps, i.e. the
//! structure is wait-free). The tutorial lists thread scalability as a
//! future-filter feature (§1, feature 6); this is its cheapest
//! realisation, complementing the lock-per-shard approach in the
//! `concurrent` crate which generalises to filters (CQF, cuckoo) whose
//! mutations are not monotone.
//!
//! [`AtomicBlockedBloomFilter`] shares its probe geometry with
//! [`BlockedBloomFilter`](crate::BlockedBloomFilter): same-seed
//! instances of the two types set and test exactly the same bits, so
//! the single-threaded filter doubles as a sequential model in tests.
//!
//! Memory ordering is `Relaxed` throughout, inherited from
//! [`AtomicBitVec`]: bit-sets are commutative and idempotent, so no
//! cross-bit ordering is needed for filter correctness. A reader is
//! guaranteed to see the bits of an insert that happened-before its
//! query (e.g. via `thread::scope` join or any other synchronisation
//! edge); concurrent in-flight inserts may be observed partially,
//! which for a Bloom filter can only delay a positive, never produce
//! a false negative after publication.

use filter_core::simd::{self, SimdLevel};
use filter_core::{AtomicBitVec, BatchedFilter, Filter, Hasher, InsertFilter, Result, PROBE_CHUNK};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::blocked::{locate_block, BLOCK_WORDS};

/// A cache-blocked Bloom filter with lock-free `&self` inserts.
///
/// ```
/// use bloom::AtomicBlockedBloomFilter;
/// use filter_core::Filter;
///
/// let f = AtomicBlockedBloomFilter::new(10_000, 0.01);
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let f = &f;
///         s.spawn(move || {
///             for k in (t * 1000)..(t * 1000 + 1000) {
///                 f.insert(k); // &self: no lock, no &mut
///             }
///         });
///     }
/// });
/// assert!((0..4000).all(|k| f.contains(k)));
/// ```
#[derive(Debug)]
pub struct AtomicBlockedBloomFilter {
    bits: AtomicBitVec,
    n_blocks: usize,
    k: u32,
    hasher: Hasher,
    items: AtomicUsize,
}

impl AtomicBlockedBloomFilter {
    /// Create for `capacity` keys at target FPR `eps`.
    ///
    /// Sizing matches [`BlockedBloomFilter`](crate::BlockedBloomFilter)
    /// exactly: the plain-Bloom optimum plus ~12% blocking slack.
    pub fn new(capacity: usize, eps: f64) -> Self {
        Self::with_seed(capacity, eps, 0)
    }

    /// As [`AtomicBlockedBloomFilter::new`] with an explicit seed.
    pub fn with_seed(capacity: usize, eps: f64, seed: u64) -> Self {
        assert!(capacity > 0);
        assert!(eps > 0.0 && eps < 1.0);
        let bits = (crate::plain::optimal_bits(capacity, eps) as f64 * 1.12) as usize;
        let n_blocks = bits.div_ceil(BLOCK_WORDS * 64).max(1);
        AtomicBlockedBloomFilter {
            bits: AtomicBitVec::new(n_blocks * BLOCK_WORDS * 64),
            n_blocks,
            k: crate::plain::optimal_k(eps),
            hasher: Hasher::with_seed(seed),
            items: AtomicUsize::new(0),
        }
    }

    /// The hash seed, for building a same-geometry sequential
    /// [`BlockedBloomFilter`](crate::BlockedBloomFilter) as a
    /// bit-identical oracle (see the service parity tests).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.hasher.seed()
    }

    /// Insert `key` without exclusive access: a one-key
    /// [`insert_batch`](Self::insert_batch).
    pub fn insert(&self, key: u64) {
        self.insert_batch(std::slice::from_ref(&key));
    }

    /// Insert every key in `keys` without exclusive access.
    ///
    /// Pipelined like the probe kernel: per [`PROBE_CHUNK`], locate
    /// every key's block and prefetch both of its ends, then build
    /// each mask and OR it in, so the chunk's misses overlap. Wait-free:
    /// at most `k` `fetch_or` operations per key (fewer when probes
    /// share a word — the per-block mask is accumulated first and each
    /// touched word is OR-ed exactly once), plus one `items` update per
    /// chunk. The bits set are exactly those of inserting key by key.
    pub fn insert_batch(&self, keys: &[u64]) {
        let mut located = [(0usize, 0u64, 0u64); PROBE_CHUNK];
        for chunk in keys.chunks(PROBE_CHUNK) {
            for (l, &key) in located.iter_mut().zip(chunk) {
                let (b, h1, h2) = locate_block(&self.hasher, self.n_blocks, key);
                let base = b * BLOCK_WORDS;
                self.bits.prefetch_word(base);
                self.bits.prefetch_word(base + BLOCK_WORDS - 1);
                *l = (b, h1, h2);
            }
            for &(b, h1, h2) in &located[..chunk.len()] {
                let mask = simd::block_mask_512(h1, h2, self.k);
                let base = b * BLOCK_WORDS;
                for (w, &m) in mask.iter().enumerate() {
                    if m != 0 {
                        self.bits.or_word(base + w, m);
                    }
                }
            }
            self.items.fetch_add(chunk.len(), Ordering::Relaxed);
        }
    }

    /// Membership query (never a false negative for published inserts).
    pub fn contains(&self, key: u64) -> bool {
        let (b, h1, h2) = locate_block(&self.hasher, self.n_blocks, key);
        let mask = simd::block_mask_512(h1, h2, self.k);
        self.contains_located(simd::active_level(), b, &mask)
    }

    /// Resolve phase: membership from an already-located block and a
    /// pre-built probe mask. The whole 512-bit block is snapshotted
    /// with relaxed word loads and tested against the mask in one
    /// vectorised compare; words the mask does not touch are
    /// trivially covered, so the result is identical to probing
    /// word-by-word (and each word is still read at most once,
    /// preserving the wait-free monotone-read argument in the module
    /// docs).
    #[inline]
    fn contains_located(&self, level: SimdLevel, b: usize, mask: &[u64; BLOCK_WORDS]) -> bool {
        let block: [u64; BLOCK_WORDS] = self.bits.load_block(b * BLOCK_WORDS);
        simd::covered_512_at(level, &block, mask)
    }

    /// Batched membership query; results align with `keys`. Thin
    /// delegation to the [`BatchedFilter`] pipelined kernel.
    pub fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        BatchedFilter::contains_batch(self, keys)
    }

    /// Serialize (magic-tagged, little-endian) for snapshot shipping.
    /// The word reads race concurrent inserts the same benign way
    /// `len` does: a snapshot taken while writers run is some valid
    /// filter containing every insert that happened-before the call.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = filter_core::ByteWriter::new();
        w.put_u32(ATOMIC_BLOOM_MAGIC);
        w.put_u64(self.n_blocks as u64);
        w.put_u32(self.k);
        w.put_u64(self.hasher.seed());
        w.put_u64(self.items.load(Ordering::Relaxed) as u64);
        w.put_u64(self.bits.word_len() as u64);
        for wi in 0..self.bits.word_len() {
            w.put_u64(self.bits.load_word(wi));
        }
        w.into_bytes()
    }

    /// Decode a [`AtomicBlockedBloomFilter::to_bytes`] image (checked:
    /// corrupt input is an error, never a panic or over-read).
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, filter_core::SerialError> {
        use filter_core::SerialError;
        let mut r = filter_core::ByteReader::new(bytes);
        if r.take_u32()? != ATOMIC_BLOOM_MAGIC {
            return Err(SerialError::Corrupt("atomic-bloom magic"));
        }
        let n_blocks = r.take_u64()? as usize;
        if n_blocks == 0 || n_blocks > (1 << 40) / (BLOCK_WORDS * 64) {
            return Err(SerialError::Corrupt("atomic-bloom block count"));
        }
        let k = r.take_u32()?;
        if !(1..=64).contains(&k) {
            return Err(SerialError::Corrupt("atomic-bloom probe count"));
        }
        let seed = r.take_u64()?;
        let items = r.take_u64()? as usize;
        let n_words = r.take_u64()? as usize;
        if n_words != n_blocks * BLOCK_WORDS {
            return Err(SerialError::Corrupt("atomic-bloom word count"));
        }
        if r.remaining() < n_words * 8 {
            return Err(SerialError::Truncated);
        }
        let bits = AtomicBitVec::new(n_words * 64);
        for wi in 0..n_words {
            let word = r.take_u64()?;
            if word != 0 {
                bits.or_word(wi, word);
            }
        }
        Ok(AtomicBlockedBloomFilter {
            bits,
            n_blocks,
            k,
            hasher: Hasher::with_seed(seed),
            items: AtomicUsize::new(items),
        })
    }
}

/// Serialization magic for [`AtomicBlockedBloomFilter`] images.
const ATOMIC_BLOOM_MAGIC: u32 = 0xAB10_0512;

impl BatchedFilter for AtomicBlockedBloomFilter {
    /// Pipelined probe over the atomic words: locate every key's
    /// block and prefetch both of its ends (a 512-bit block can
    /// straddle two lines — `Vec<AtomicU64>` is only 8-byte aligned),
    /// then resolve with a mask build + snapshot + compare per key.
    /// Unlike [`BlockedBloomFilter`](crate::BlockedBloomFilter)'s
    /// kernel, the mask is built in the *resolve* phase: the atomic
    /// snapshot is a serial word-copy the compiler may not vectorise,
    /// and interleaving the mask arithmetic gives the out-of-order
    /// core independent work to overlap with those loads. Prefetching
    /// has no memory-ordering effect.
    fn contains_chunk(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert!(keys.len() <= PROBE_CHUNK && keys.len() == out.len());
        let level = simd::active_level();
        let mut blocks = [0usize; PROBE_CHUNK];
        let mut bases = [(0u64, 0u64); PROBE_CHUNK];
        for ((b, hh), &key) in blocks.iter_mut().zip(bases.iter_mut()).zip(keys) {
            let (blk, h1, h2) = locate_block(&self.hasher, self.n_blocks, key);
            *b = blk;
            *hh = (h1, h2);
            let base = blk * BLOCK_WORDS;
            self.bits.prefetch_word(base);
            self.bits.prefetch_word(base + BLOCK_WORDS - 1);
        }
        let it = blocks[..keys.len()].iter().zip(&bases[..keys.len()]);
        for (o, (&b, &(h1, h2))) in out.iter_mut().zip(it) {
            let mask = simd::block_mask_512(h1, h2, self.k);
            *o = self.contains_located(level, b, &mask);
        }
    }
}

impl Filter for AtomicBlockedBloomFilter {
    fn contains(&self, key: u64) -> bool {
        AtomicBlockedBloomFilter::contains(self, key)
    }

    fn len(&self) -> usize {
        self.items.load(Ordering::Relaxed)
    }

    fn size_in_bytes(&self) -> usize {
        self.bits.size_in_bytes()
    }
}

impl InsertFilter for AtomicBlockedBloomFilter {
    fn insert(&mut self, key: u64) -> Result<()> {
        AtomicBlockedBloomFilter::insert(self, key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockedBloomFilter;
    use filter_core::InsertFilter;
    use workloads::{disjoint_keys, unique_keys};

    #[test]
    fn no_false_negatives_single_thread() {
        let f = AtomicBlockedBloomFilter::new(20_000, 0.01);
        let keys = unique_keys(40, 20_000);
        f.insert_batch(&keys);
        assert!(keys.iter().all(|&k| f.contains(k)));
        assert_eq!(Filter::len(&f), 20_000);
    }

    #[test]
    fn bit_identical_to_sequential_blocked_filter() {
        // Same seed, same keys: the atomic filter must agree with the
        // single-threaded BlockedBloomFilter on every query, positive
        // or negative — they share probe geometry by construction.
        let atomic = AtomicBlockedBloomFilter::with_seed(10_000, 0.01, 77);
        let mut seq = BlockedBloomFilter::with_seed(10_000, 0.01, 77);
        let keys = unique_keys(41, 10_000);
        for &k in &keys {
            atomic.insert(k);
            seq.insert(k).unwrap();
        }
        let probes = unique_keys(42, 30_000);
        for &k in &probes {
            assert_eq!(atomic.contains(k), seq.contains(k), "key {k}");
        }
        assert_eq!(atomic.size_in_bytes(), seq.size_in_bytes());
    }

    #[test]
    fn fpr_within_2x_of_target() {
        let f = AtomicBlockedBloomFilter::new(50_000, 0.01);
        let keys = unique_keys(43, 50_000);
        f.insert_batch(&keys);
        let probes = disjoint_keys(44, 50_000, &keys);
        let fpr = probes.iter().filter(|&&k| f.contains(k)).count() as f64 / 50_000.0;
        assert!(fpr < 0.025, "fpr {fpr}");
    }

    #[test]
    fn concurrent_inserts_all_visible_after_join() {
        let f = AtomicBlockedBloomFilter::new(40_000, 0.01);
        let keys = unique_keys(45, 40_000);
        std::thread::scope(|s| {
            for chunk in keys.chunks(10_000) {
                let f = &f;
                s.spawn(move || f.insert_batch(chunk));
            }
        });
        assert!(keys.iter().all(|&k| f.contains(k)));
        assert_eq!(Filter::len(&f), 40_000);
    }

    #[test]
    fn readers_interleaved_with_writers_see_no_false_negatives() {
        // Readers check only keys already published through the
        // per-chunk fence of a finished writer (join-free: writers
        // flag completion through an atomic counter).
        use std::sync::atomic::{AtomicUsize, Ordering};
        let f = AtomicBlockedBloomFilter::new(40_000, 0.01);
        let keys = unique_keys(46, 40_000);
        let published = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for chunk in keys.chunks(10_000) {
                let (f, published) = (&f, &published);
                s.spawn(move || {
                    f.insert_batch(chunk);
                    published.fetch_add(chunk.len(), Ordering::Release);
                });
            }
            for _ in 0..2 {
                let (f, published, keys) = (&f, &published, &keys);
                s.spawn(move || {
                    for _ in 0..50 {
                        let n = published.load(Ordering::Acquire);
                        // chunks finish in an arbitrary order, so only
                        // the count — not which chunks — is known; probe
                        // the first chunk once it is certainly complete.
                        if n >= 31_000 {
                            assert!(keys[..10_000].iter().all(|&k| f.contains(k)));
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
    }

    #[test]
    fn insert_filter_trait_object_usable() {
        let mut f = AtomicBlockedBloomFilter::new(1_000, 0.01);
        let keys = unique_keys(47, 1_000);
        {
            let dynf: &mut dyn InsertFilter = &mut f;
            for &k in &keys {
                dynf.insert(k).unwrap();
            }
        }
        let dynf: &dyn Filter = &f;
        assert!(keys.iter().all(|&k| dynf.contains(k)));
    }

    #[test]
    fn serialization_roundtrip_is_bit_identical() {
        let f = AtomicBlockedBloomFilter::with_seed(8_000, 0.01, 99);
        let keys = unique_keys(50, 8_000);
        f.insert_batch(&keys);
        let bytes = f.to_bytes();
        let back = AtomicBlockedBloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(Filter::len(&back), Filter::len(&f));
        assert_eq!(back.seed(), f.seed());
        let probes = unique_keys(51, 20_000);
        for &k in keys.iter().chain(&probes) {
            assert_eq!(back.contains(k), f.contains(k), "key {k}");
        }
        // Corrupt and truncated inputs are errors, not panics.
        for cut in 0..bytes.len().min(64) {
            assert!(AtomicBlockedBloomFilter::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(AtomicBlockedBloomFilter::from_bytes(&bad).is_err());
    }

    #[test]
    fn batch_matches_pointwise() {
        let f = AtomicBlockedBloomFilter::new(5_000, 0.01);
        let keys = unique_keys(48, 5_000);
        f.insert_batch(&keys);
        let probes = unique_keys(49, 10_000);
        let batch = f.contains_batch(&probes);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.contains(k));
        }
    }
}
