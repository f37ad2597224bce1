//! Register-blocked Bloom filter (Impala / RocksDB scheme).
//!
//! The cache-line-blocked filter ([`crate::BlockedBloomFilter`])
//! already reduces a query to one memory access, but its probe
//! arithmetic is still a `k`-iteration loop over double-hashed bit
//! positions. The register-blocked variant shrinks the block to 256
//! bits — one SIMD register — and fixes `k = 8` with one bit per
//! 32-bit lane, derived by an odd multiply-shift per lane
//! ([`filter_core::simd::BLOCK_SALT`]). Insert and query become:
//!
//! ```text
//! mask  = block_mask_256(h)        // 1 vector multiply + shift
//! query = covered_256(block, mask) // 1 load + 1 vptest
//! ```
//!
//! — no loop, no branches, and on AVX2 roughly three instructions of
//! arithmetic per key. The price is FPR: a 256-bit block and a fixed
//! `k` sit further from the plain-Bloom optimum than 512-bit
//! blocking, so sizing budgets ~25% extra bits (vs ~12% for the
//! cache-line variant). E21 measures the resulting throughput gap;
//! the filter matrix in the crate docs places the family.

use filter_core::simd::{self, SimdLevel};
use filter_core::{BatchedFilter, Filter, Hasher, InsertFilter, Result, PROBE_CHUNK};

/// Words per 256-bit block.
const BLOCK_WORDS: usize = 4;

/// A register-blocked Bloom filter: 256-bit blocks, fixed `k = 8`,
/// one odd-multiply-shift probe bit per 32-bit lane.
#[derive(Debug, Clone)]
pub struct RegisterBlockedBloomFilter {
    blocks: Vec<[u64; BLOCK_WORDS]>,
    hasher: Hasher,
    items: usize,
}

impl RegisterBlockedBloomFilter {
    /// Create for `capacity` keys at target FPR `eps`.
    ///
    /// Sizing adds ~25% over the plain-Bloom optimum: 256-bit blocks
    /// suffer more load variance than cache-line blocks, and the
    /// fixed `k = 8` is only optimal near 11.5 bits/key. The family
    /// is honest in the 0.002–0.02 FPR range; outside it the fixed
    /// `k` costs accuracy that no sizing slack recovers.
    pub fn new(capacity: usize, eps: f64) -> Self {
        Self::with_seed(capacity, eps, 0)
    }

    /// As [`RegisterBlockedBloomFilter::new`] with an explicit seed.
    pub fn with_seed(capacity: usize, eps: f64, seed: u64) -> Self {
        assert!(capacity > 0);
        assert!(eps > 0.0 && eps < 1.0);
        let bits = (crate::plain::optimal_bits(capacity, eps) as f64 * 1.25) as usize;
        let n_blocks = bits.div_ceil(BLOCK_WORDS * 64).max(1);
        RegisterBlockedBloomFilter {
            blocks: vec![[0u64; BLOCK_WORDS]; n_blocks],
            hasher: Hasher::with_seed(seed),
            items: 0,
        }
    }

    /// Derive (block index, mask hash) for a key. The block comes
    /// from the first hash, the 32-bit mask input from the second —
    /// independent streams, so block choice and in-block bits are
    /// uncorrelated even at non-power-of-two block counts.
    #[inline]
    fn locate(&self, key: u64) -> (usize, u32) {
        let (h1, h2) = self.hasher.hash_pair(&key);
        ((h1 % self.blocks.len() as u64) as usize, h2 as u32)
    }

    /// The filter's hash seed (serialization, sharded rebuilds).
    pub fn seed(&self) -> u64 {
        self.hasher.seed()
    }

    /// A thread-safe register-blocked filter: `2^shard_bits`
    /// independent shards behind per-shard locks, jointly sized for
    /// `capacity` keys. Batch ops hit the SIMD kernel per shard.
    pub fn sharded(
        capacity: usize,
        eps: f64,
        shard_bits: u32,
    ) -> concurrent::Sharded<RegisterBlockedBloomFilter> {
        let per_shard = (capacity >> shard_bits).max(64);
        concurrent::Sharded::new(shard_bits, |i| {
            RegisterBlockedBloomFilter::with_seed(per_shard, eps, 0x4b10 ^ i as u64)
        })
    }

    /// Serialize for persistence or for shipping a pre-built filter
    /// over the service's CREATE frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = filter_core::ByteWriter::new();
        w.put_u32(0x4b10_c256); // magic
        w.put_u64(self.blocks.len() as u64);
        w.put_u64(self.hasher.seed());
        w.put_u64(self.items as u64);
        w.put_u64((self.blocks.len() * BLOCK_WORDS) as u64);
        for block in &self.blocks {
            for &word in block {
                w.put_u64(word);
            }
        }
        w.into_bytes()
    }

    /// Deserialize a filter previously written by
    /// [`RegisterBlockedBloomFilter::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, filter_core::SerialError> {
        use filter_core::SerialError;
        let mut r = filter_core::ByteReader::new(bytes);
        if r.take_u32()? != 0x4b10_c256 {
            return Err(SerialError::Corrupt("register-bloom magic"));
        }
        let n_blocks = r.take_u64()? as usize;
        if n_blocks == 0 {
            return Err(SerialError::Corrupt("register-bloom block count"));
        }
        let seed = r.take_u64()?;
        let items = r.take_u64()? as usize;
        let n_words = r.take_u64()? as usize;
        if n_blocks.checked_mul(BLOCK_WORDS) != Some(n_words) {
            return Err(SerialError::Corrupt("register-bloom word count"));
        }
        if r.remaining() / 8 < n_words {
            return Err(SerialError::Truncated);
        }
        let mut blocks = vec![[0u64; BLOCK_WORDS]; n_blocks];
        for block in blocks.iter_mut() {
            for word in block.iter_mut() {
                *word = r.take_u64()?;
            }
        }
        Ok(RegisterBlockedBloomFilter {
            blocks,
            hasher: Hasher::with_seed(seed),
            items,
        })
    }
}

impl Filter for RegisterBlockedBloomFilter {
    fn contains(&self, key: u64) -> bool {
        let (b, h) = self.locate(key);
        simd::covered_256(&self.blocks[b], &simd::block_mask_256(h))
    }

    fn len(&self) -> usize {
        self.items
    }

    fn size_in_bytes(&self) -> usize {
        self.blocks.len() * BLOCK_WORDS * 8
    }
}

impl InsertFilter for RegisterBlockedBloomFilter {
    fn insert(&mut self, key: u64) -> Result<()> {
        let (b, h) = self.locate(key);
        simd::or_into_256(&mut self.blocks[b], &simd::block_mask_256(h));
        // Saturating: `items` may come from an untrusted snapshot.
        self.items = self.items.saturating_add(1);
        Ok(())
    }

    fn prefetch_insert(&self, key: u64) {
        filter_core::prefetch_read(&self.blocks, self.locate(key).0);
    }
}

impl BatchedFilter for RegisterBlockedBloomFilter {
    /// Pipelined probe: hash every key, prefetch its (half-line)
    /// block, then resolve each as one mask build + one covered test.
    /// The dispatch level is read once per chunk, not per key.
    fn contains_chunk(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert!(keys.len() <= PROBE_CHUNK && keys.len() == out.len());
        let level: SimdLevel = simd::active_level();
        let mut blocks = [0usize; PROBE_CHUNK];
        let mut masks = [[0u64; 4]; PROBE_CHUNK];
        for ((b, m), &key) in blocks.iter_mut().zip(masks.iter_mut()).zip(keys) {
            let (blk, h) = self.locate(key);
            *b = blk;
            filter_core::prefetch_read(&self.blocks, blk);
            *m = simd::block_mask_256_at(level, h);
        }
        let it = blocks[..keys.len()].iter().zip(&masks[..keys.len()]);
        for (o, (&b, m)) in out.iter_mut().zip(it) {
            *o = simd::covered_256_at(level, &self.blocks[b], m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{disjoint_keys, unique_keys};

    #[test]
    fn no_false_negatives() {
        let keys = unique_keys(30, 20_000);
        let mut f = RegisterBlockedBloomFilter::new(20_000, 0.01);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        assert!(keys.iter().all(|&k| f.contains(k)));
    }

    #[test]
    fn fpr_within_blocking_penalty() {
        // 256-bit blocks + fixed k=8 at ~12 bits/key land near
        // 4–7e-3 FPR for a 0.01 target; assert the same 2.5× head-
        // room bound the cache-line-blocked filter uses.
        let keys = unique_keys(31, 50_000);
        let mut f = RegisterBlockedBloomFilter::new(50_000, 0.01);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let probes = disjoint_keys(32, 50_000, &keys);
        let fpr = probes.iter().filter(|&&k| f.contains(k)).count() as f64 / 50_000.0;
        assert!(fpr < 0.025, "fpr {fpr}");
    }

    #[test]
    fn deterministic_across_instances_same_seed() {
        let mut a = RegisterBlockedBloomFilter::with_seed(5_000, 0.01, 9);
        let mut b = RegisterBlockedBloomFilter::with_seed(5_000, 0.01, 9);
        let keys = unique_keys(33, 5_000);
        for &k in &keys {
            a.insert(k).unwrap();
            b.insert(k).unwrap();
        }
        let probes = disjoint_keys(34, 10_000, &keys);
        for &k in &probes {
            assert_eq!(a.contains(k), b.contains(k));
        }
        let mut c = RegisterBlockedBloomFilter::with_seed(5_000, 0.01, 10);
        for &k in &keys {
            c.insert(k).unwrap();
        }
        assert!(probes.iter().any(|&k| a.contains(k) != c.contains(k)));
    }

    #[test]
    fn sized_with_register_blocking_slack() {
        let plain = crate::plain::BloomFilter::new(100_000, 0.01);
        let f = RegisterBlockedBloomFilter::new(100_000, 0.01);
        let ratio = f.size_in_bytes() as f64 / plain.size_in_bytes() as f64;
        assert!((1.15..1.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn batch_matches_pointwise() {
        let keys = unique_keys(35, 8_000);
        let mut f = RegisterBlockedBloomFilter::with_seed(8_000, 0.01, 4);
        for &k in &keys[..4_000] {
            f.insert(k).unwrap();
        }
        let batched = f.contains_batch(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batched[i], f.contains(k), "key {k}");
        }
    }

    #[test]
    fn serialization_round_trips() {
        let keys = unique_keys(36, 3_000);
        let mut f = RegisterBlockedBloomFilter::with_seed(3_000, 0.005, 77);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let g = RegisterBlockedBloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.len(), f.len());
        assert_eq!(g.seed(), f.seed());
        assert_eq!(g.size_in_bytes(), f.size_in_bytes());
        let probes = disjoint_keys(37, 6_000, &keys);
        for &k in keys.iter().chain(&probes) {
            assert_eq!(g.contains(k), f.contains(k));
        }
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let f = RegisterBlockedBloomFilter::new(1_000, 0.01);
        let bytes = f.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(RegisterBlockedBloomFilter::from_bytes(&bad).is_err());
        // Truncated payload.
        assert!(RegisterBlockedBloomFilter::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Word count disagreeing with block count.
        let mut mismatched = bytes.clone();
        mismatched[28] ^= 1; // low byte of the word-count field
        assert!(RegisterBlockedBloomFilter::from_bytes(&mismatched).is_err());
    }

    #[test]
    fn sharded_agrees_with_batch() {
        let f = RegisterBlockedBloomFilter::sharded(10_000, 0.01, 2);
        let keys = unique_keys(38, 5_000);
        f.insert_batch(&keys).unwrap();
        assert!(f.contains_batch(&keys).iter().all(|&b| b));
        let probes = disjoint_keys(39, 5_000, &keys);
        let batched = f.contains_batch(&probes);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(batched[i], f.contains(k));
        }
    }
}
