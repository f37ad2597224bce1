//! The cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher 2014).
//!
//! Stores `fp_bits`-bit fingerprints in a 4-way associative table
//! using partial-key cuckoo hashing: each key has two candidate
//! buckets, `i₁ = h(key)` and `i₂ = i₁ ⊕ h(fp)`, and inserts kick
//! resident fingerprints between their two homes to make space.
//! Space: `n·(lg(1/ε) + 3)` bits at 95% load (tutorial §2) — the
//! 3-bit overhead comes from the `b = 4` bucket structure
//! (`lg(2b) = 3`).

use filter_core::{
    BatchedFilter, DynamicFilter, Filter, FilterError, Hasher, InsertFilter, PackedArray, Result,
    PROBE_CHUNK,
};

/// Slots per bucket (the paper's recommended 4).
pub const BUCKET_SIZE: usize = 4;
/// Maximum kicks before an insert is declared failed.
pub const MAX_KICKS: usize = 500;

/// # Examples
///
/// ```
/// use cuckoo::CuckooFilter;
/// use filter_core::{DynamicFilter, Filter, InsertFilter};
///
/// let mut f = CuckooFilter::new(10_000, 12);
/// f.insert(1).unwrap();
/// assert!(f.contains(1));
/// f.remove(1).unwrap();
/// ```
///
/// A cuckoo filter with configurable bucket size and fingerprint
/// width.
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    /// Fingerprints, 0 = empty (stored fingerprints are forced ≥ 1).
    slots: PackedArray,
    n_buckets: usize,
    bucket_size: usize,
    fp_bits: u32,
    hasher: Hasher,
    items: usize,
    kicks_performed: u64,
}

impl CuckooFilter {
    /// Create with capacity for `capacity` keys at ~95% load and
    /// `fp_bits`-bit fingerprints (FPR ≈ `2b/2^fp_bits`).
    pub fn new(capacity: usize, fp_bits: u32) -> Self {
        Self::with_params(capacity, fp_bits, BUCKET_SIZE, 0)
    }

    /// Full-parameter constructor (bucket size ablation uses 2/4/8).
    pub fn with_params(capacity: usize, fp_bits: u32, bucket_size: usize, seed: u64) -> Self {
        assert!(capacity > 0);
        assert!((2..=32).contains(&fp_bits));
        assert!((1..=16).contains(&bucket_size));
        let n_buckets = ((capacity as f64 / 0.95 / bucket_size as f64).ceil() as usize)
            .next_power_of_two()
            .max(2);
        CuckooFilter {
            slots: PackedArray::new(n_buckets * bucket_size, fp_bits),
            n_buckets,
            bucket_size,
            fp_bits,
            hasher: Hasher::with_seed(seed),
            items: 0,
            kicks_performed: 0,
        }
    }

    /// Fingerprint width in bits.
    pub fn fp_bits(&self) -> u32 {
        self.fp_bits
    }

    /// Bucket size.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Load factor over all slots.
    pub fn load(&self) -> f64 {
        self.items as f64 / (self.n_buckets * self.bucket_size) as f64
    }

    /// Total evictions performed (diagnostic for the bucket-size
    /// ablation).
    pub fn kicks_performed(&self) -> u64 {
        self.kicks_performed
    }

    /// Expected FPR: `2·b·2^-fp_bits` scaled by load.
    pub fn expected_fpr(&self) -> f64 {
        2.0 * self.bucket_size as f64 * 2f64.powi(-(self.fp_bits as i32)) * self.load().min(1.0)
    }

    /// Serialize for persistence beside an immutable run or for
    /// shipping a pre-built filter over the service's CREATE frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = filter_core::ByteWriter::new();
        w.put_u32(0xcc4f_f117); // magic
        w.put_u64(self.n_buckets as u64);
        w.put_u32(self.bucket_size as u32);
        w.put_u32(self.fp_bits);
        w.put_u64(self.hasher.seed());
        w.put_u64(self.items as u64);
        w.put_u64(self.kicks_performed);
        self.slots.serialize(&mut w);
        w.into_bytes()
    }

    /// Deserialize a filter previously written by
    /// [`CuckooFilter::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, filter_core::SerialError> {
        use filter_core::SerialError;
        let mut r = filter_core::ByteReader::new(bytes);
        if r.take_u32()? != 0xcc4f_f117 {
            return Err(SerialError::Corrupt("cuckoo magic"));
        }
        let n_buckets = r.take_u64()? as usize;
        let bucket_size = r.take_u32()? as usize;
        let fp_bits = r.take_u32()?;
        if !n_buckets.is_power_of_two() || n_buckets < 2 {
            return Err(SerialError::Corrupt("cuckoo bucket count"));
        }
        if !(1..=16).contains(&bucket_size) || !(2..=32).contains(&fp_bits) {
            return Err(SerialError::Corrupt("cuckoo geometry"));
        }
        let seed = r.take_u64()?;
        let items = r.take_u64()? as usize;
        let kicks_performed = r.take_u64()?;
        let slots = filter_core::PackedArray::deserialize(&mut r)?;
        if n_buckets.checked_mul(bucket_size) != Some(slots.len()) || slots.width() != fp_bits {
            return Err(SerialError::Corrupt("cuckoo slot table"));
        }
        // `remove` decrements `items` per occupied slot it clears, so
        // a count below the occupancy would underflow.
        if items != (0..slots.len()).filter(|&i| slots.get(i) != 0).count() {
            return Err(SerialError::Corrupt("cuckoo item count"));
        }
        Ok(CuckooFilter {
            slots,
            n_buckets,
            bucket_size,
            fp_bits,
            hasher: Hasher::with_seed(seed),
            items,
            kicks_performed,
        })
    }

    /// Nonzero fingerprint and primary bucket of a key.
    #[inline]
    fn fp_and_bucket(&self, key: u64) -> (u64, usize) {
        let h = self.hasher.hash(&key);
        let fp = (h >> 32) & filter_core::rem_mask(self.fp_bits);
        let fp = if fp == 0 { 1 } else { fp };
        let i1 = (h as usize) & (self.n_buckets - 1);
        (fp, i1)
    }

    /// Alternate bucket: `i ⊕ h(fp)` (involutive because n_buckets is
    /// a power of two).
    #[inline]
    fn alt_bucket(&self, i: usize, fp: u64) -> usize {
        (i ^ self.hasher.derive(1).hash(&fp) as usize) & (self.n_buckets - 1)
    }

    #[inline]
    fn slot(&self, bucket: usize, s: usize) -> u64 {
        self.slots.get(bucket * self.bucket_size + s)
    }

    #[inline]
    fn set_slot(&mut self, bucket: usize, s: usize, v: u64) {
        self.slots.set(bucket * self.bucket_size + s, v)
    }

    fn bucket_contains(&self, bucket: usize, fp: u64) -> bool {
        (0..self.bucket_size).any(|s| self.slot(bucket, s) == fp)
    }

    fn try_place(&mut self, bucket: usize, fp: u64) -> bool {
        for s in 0..self.bucket_size {
            if self.slot(bucket, s) == 0 {
                self.set_slot(bucket, s, fp);
                return true;
            }
        }
        false
    }
}

impl Filter for CuckooFilter {
    fn contains(&self, key: u64) -> bool {
        let (fp, i1) = self.fp_and_bucket(key);
        if self.bucket_contains(i1, fp) {
            return true;
        }
        let i2 = self.alt_bucket(i1, fp);
        self.bucket_contains(i2, fp)
    }

    fn len(&self) -> usize {
        self.items
    }

    fn size_in_bytes(&self) -> usize {
        self.slots.size_in_bytes()
    }
}

impl BatchedFilter for CuckooFilter {
    /// Pipelined probe: derive every key's fingerprint and both
    /// candidate buckets up front (the alternate bucket is computed
    /// eagerly — the scalar path derives it lazily, but the answer is
    /// identical), prefetch both buckets' slot words, then resolve.
    fn contains_chunk(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert!(keys.len() <= PROBE_CHUNK && keys.len() == out.len());
        let mut probes = [(0u64, 0usize, 0usize); PROBE_CHUNK];
        for (p, &key) in probes.iter_mut().zip(keys) {
            let (fp, i1) = self.fp_and_bucket(key);
            let i2 = self.alt_bucket(i1, fp);
            *p = (fp, i1, i2);
        }
        for &(_, i1, i2) in &probes[..keys.len()] {
            self.slots.prefetch_field(i1 * self.bucket_size);
            self.slots.prefetch_field(i2 * self.bucket_size);
        }
        for (o, &(fp, i1, i2)) in out.iter_mut().zip(&probes[..keys.len()]) {
            *o = self.bucket_contains(i1, fp) || self.bucket_contains(i2, fp);
        }
    }
}

impl InsertFilter for CuckooFilter {
    fn insert(&mut self, key: u64) -> Result<()> {
        let (fp, i1) = self.fp_and_bucket(key);
        let i2 = self.alt_bucket(i1, fp);
        if self.try_place(i1, fp) || self.try_place(i2, fp) {
            self.items += 1;
            return Ok(());
        }
        // Kick: evict a pseudo-random resident and relocate it.
        let mut bucket = if (fp ^ i1 as u64) & 1 == 0 { i1 } else { i2 };
        let mut fp = fp;
        for kick in 0..MAX_KICKS {
            let victim_slot =
                (self.hasher.derive(2).hash(&(fp ^ kick as u64)) as usize) % self.bucket_size;
            let victim = self.slot(bucket, victim_slot);
            self.set_slot(bucket, victim_slot, fp);
            self.kicks_performed += 1;
            fp = victim;
            bucket = self.alt_bucket(bucket, fp);
            if self.try_place(bucket, fp) {
                self.items += 1;
                crate::KICK_CHAIN_LEN.observe(kick as u64 + 1);
                return Ok(());
            }
        }
        crate::INSERT_FAILURES.inc();
        // Undo is impossible without a stash; report failure. The
        // displaced chain still represents inserted keys, but the
        // final victim has lost a home — restore it by swapping back
        // is omitted (matches the reference implementation's
        // behaviour of declaring the filter full).
        Err(FilterError::EvictionLimit)
    }

    /// Both candidate buckets, as [`BatchedFilter::contains_chunk`]
    /// warms them: placement tries `i1` then `i2`. Kick chains walk
    /// further and still miss.
    fn prefetch_insert(&self, key: u64) {
        let (fp, i1) = self.fp_and_bucket(key);
        self.slots.prefetch_field(i1 * self.bucket_size);
        self.slots
            .prefetch_field(self.alt_bucket(i1, fp) * self.bucket_size);
    }
}

impl DynamicFilter for CuckooFilter {
    fn remove(&mut self, key: u64) -> Result<bool> {
        let (fp, i1) = self.fp_and_bucket(key);
        for bucket in [i1, self.alt_bucket(i1, fp)] {
            for s in 0..self.bucket_size {
                if self.slot(bucket, s) == fp {
                    self.set_slot(bucket, s, 0);
                    self.items -= 1;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{disjoint_keys, unique_keys};

    #[test]
    fn insert_query_roundtrip() {
        let keys = unique_keys(90, 50_000);
        let mut f = CuckooFilter::new(50_000, 12);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        assert!(keys.iter().all(|&k| f.contains(k)));
    }

    #[test]
    fn fpr_matches_2b_over_2_pow_f() {
        let keys = unique_keys(91, 50_000);
        let mut f = CuckooFilter::new(50_000, 12);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let neg = disjoint_keys(92, 100_000, &keys);
        let fpr = neg.iter().filter(|&&k| f.contains(k)).count() as f64 / 100_000.0;
        let expected = f.expected_fpr();
        assert!(fpr < 2.0 * expected, "fpr {fpr} vs expected {expected}");
        assert!(fpr > expected / 10.0, "fpr {fpr} suspiciously low");
    }

    #[test]
    fn achieves_95_percent_load() {
        let mut f = CuckooFilter::with_params(10_000, 16, 4, 0);
        for k in workloads::KeyStream::new(93) {
            if f.insert(k).is_err() {
                break;
            }
        }
        assert!(f.load() > 0.93, "stopped at load {}", f.load());
    }

    #[test]
    fn small_buckets_fail_earlier() {
        // Ablation claim: bucket size 2 sustains lower load than 4.
        let fill = |b: usize| {
            let mut f = CuckooFilter::with_params(10_000, 16, b, 0);
            for k in workloads::KeyStream::new(94) {
                if f.insert(k).is_err() {
                    break;
                }
            }
            f.load()
        };
        let l2 = fill(2);
        let l4 = fill(4);
        assert!(l4 > l2, "load b=4 {l4} <= b=2 {l2}");
        assert!(l2 < 0.93);
    }

    #[test]
    fn delete_works_and_respects_multiset() {
        let mut f = CuckooFilter::new(1000, 16);
        f.insert(7).unwrap();
        f.insert(7).unwrap();
        assert!(f.remove(7).unwrap());
        assert!(f.contains(7));
        assert!(f.remove(7).unwrap());
        assert!(!f.contains(7));
        assert!(!f.remove(7).unwrap());
    }

    #[test]
    fn delete_then_negatives() {
        let keys = unique_keys(95, 20_000);
        let mut f = CuckooFilter::new(25_000, 16);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys[..10_000] {
            assert!(f.remove(k).unwrap());
        }
        let still = keys[..10_000].iter().filter(|&&k| f.contains(k)).count();
        assert!(still < 30, "{still} deleted keys remain");
        assert!(keys[10_000..].iter().all(|&k| f.contains(k)));
    }

    #[test]
    fn space_near_fp_bits_plus_3() {
        let mut f = CuckooFilter::new(100_000, 13);
        for k in unique_keys(96, 100_000) {
            f.insert(k).unwrap();
        }
        let bpk = f.bits_per_key();
        // fp_bits / 0.95 ≈ 13.7, plus power-of-two rounding slack.
        assert!((13.0..18.0).contains(&bpk), "bits/key {bpk}");
    }

    #[test]
    fn serialization_roundtrip_preserves_behaviour() {
        let keys = unique_keys(98, 20_000);
        let mut f = CuckooFilter::with_params(20_000, 13, 4, 0xfeed);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys[..500] {
            assert!(f.remove(k).unwrap());
        }
        let g = CuckooFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.len(), f.len());
        assert_eq!(g.size_in_bytes(), f.size_in_bytes());
        assert_eq!(g.kicks_performed(), f.kicks_performed());
        let probes = disjoint_keys(99, 20_000, &keys);
        for &k in keys.iter().chain(&probes) {
            assert_eq!(f.contains(k), g.contains(k), "behaviour diverged at {k}");
        }
    }

    #[test]
    fn corrupt_bytes_rejected_not_panicking() {
        let mut f = CuckooFilter::new(1_000, 12);
        for k in 0..500u64 {
            f.insert(k).unwrap();
        }
        let bytes = f.to_bytes();
        for cut in 0..bytes.len().min(64) {
            assert!(CuckooFilter::from_bytes(&bytes[..cut]).is_err());
        }
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff; // magic
        assert!(CuckooFilter::from_bytes(&wrong).is_err());
        let mut wrong = bytes;
        wrong[4] = 0xff; // n_buckets no longer a power of two
        assert!(CuckooFilter::from_bytes(&wrong).is_err());
    }

    #[test]
    fn alt_bucket_is_involutive() {
        let f = CuckooFilter::new(1000, 12);
        for key in 0..500u64 {
            let (fp, i1) = f.fp_and_bucket(key);
            let i2 = f.alt_bucket(i1, fp);
            assert_eq!(f.alt_bucket(i2, fp), i1);
        }
    }

    #[test]
    fn sharded_concurrent_insert_query_delete() {
        let f = concurrent::Sharded::new(3, |i| {
            CuckooFilter::with_params(7_500, 13, BUCKET_SIZE, 0xcc00 ^ i as u64)
        });
        let keys = unique_keys(97, 60_000);
        std::thread::scope(|s| {
            for chunk in keys.chunks(15_000) {
                let f = &f;
                s.spawn(move || f.insert_batch(chunk).unwrap());
            }
        });
        assert!(f.contains_batch(&keys).iter().all(|&b| b));
        assert_eq!(f.len(), 60_000);
        for &k in &keys[..5_000] {
            assert!(f.remove(k).unwrap());
        }
        let still = keys[..5_000].iter().filter(|&&k| f.contains(k)).count();
        assert!(still < 30, "{still} deleted keys remain");
    }
}
