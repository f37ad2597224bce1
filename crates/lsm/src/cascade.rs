//! The cascade filter — "how to cache your hash on flash" (Bender et
//! al., VLDB 2012), the mechanism behind the tutorial's claim that
//! quotient filters "efficiently scale out of RAM" (§1, feature 1).
//!
//! A small in-RAM buffer absorbs insertions; when it fills, its
//! fingerprints are flushed as an immutable sorted *filter run* on
//! storage, and runs are merged LSM-style as they accumulate. Inserts
//! therefore cost amortized `O(1/B)` I/Os (pure sequential writes),
//! while lookups probe the buffer for free plus one block read per
//! overlapping run — versus a single big storage-resident filter
//! where *every* insert and lookup pays a random I/O.
//!
//! Substitution note (see DESIGN.md): the paper stores each level as
//! an on-flash quotient filter; here levels are sorted fingerprint
//! arrays with in-RAM fence pointers, which have the same I/O
//! geometry (1 block read per probed level, sequential merges) and
//! the same false-positive semantics (`p`-bit fingerprints).

use crate::io::IoCounter;
use filter_core::Hasher;
use std::collections::BTreeSet;

/// Fingerprints per storage block.
const BLOCK_FPS: usize = 512;

/// One immutable sorted fingerprint run on storage.
#[derive(Debug, Clone)]
struct FilterRun {
    fps: Vec<u64>,
    /// First fingerprint of each block (fence pointers, in RAM).
    fences: Vec<u64>,
}

impl FilterRun {
    fn build(fps: Vec<u64>, io: &IoCounter) -> Self {
        debug_assert!(fps.windows(2).all(|w| w[0] <= w[1]));
        io.write(fps.len().div_ceil(BLOCK_FPS) as u64);
        let fences = fps.chunks(BLOCK_FPS).map(|b| b[0]).collect();
        FilterRun { fps, fences }
    }

    /// One block read unless fences rule the fingerprint out.
    fn contains(&self, fp: u64, io: &IoCounter) -> bool {
        if self.fps.is_empty() || fp < self.fps[0] || fp > *self.fps.last().unwrap() {
            return false;
        }
        io.read(1);
        let block = self.fences.partition_point(|&f| f <= fp) - 1;
        let start = block * BLOCK_FPS;
        let end = (start + BLOCK_FPS).min(self.fps.len());
        self.fps[start..end].binary_search(&fp).is_ok()
    }

    /// Sequential scan for merging (block reads).
    fn drain(&self, io: &IoCounter) -> &[u64] {
        io.read(self.fps.len().div_ceil(BLOCK_FPS) as u64);
        &self.fps
    }
}

/// A storage-resident approximate-membership structure with an in-RAM
/// insert buffer.
#[derive(Debug)]
pub struct CascadeFilter {
    /// In-RAM buffer (exact fingerprint set; the paper uses a RAM QF).
    buffer: BTreeSet<u64>,
    buffer_capacity: usize,
    /// Storage runs, newest first, merged when `size_ratio` of equal
    /// rank accumulate.
    runs: Vec<FilterRun>,
    size_ratio: usize,
    fp_bits: u32,
    hasher: Hasher,
    io: IoCounter,
    items: usize,
}

impl CascadeFilter {
    /// Create with an in-RAM buffer of `buffer_capacity` fingerprints
    /// and `fp_bits`-bit fingerprints (FPR ≈ n·2^-fp_bits).
    pub fn new(buffer_capacity: usize, fp_bits: u32) -> Self {
        Self::with_seed(buffer_capacity, fp_bits, 0)
    }

    /// As [`CascadeFilter::new`] with an explicit fingerprint-hash
    /// seed (shards of a sharded cascade decorrelate through this).
    pub fn with_seed(buffer_capacity: usize, fp_bits: u32, seed: u64) -> Self {
        assert!(buffer_capacity >= 16);
        assert!((16..=62).contains(&fp_bits));
        CascadeFilter {
            buffer: BTreeSet::new(),
            buffer_capacity,
            runs: Vec::new(),
            size_ratio: 4,
            fp_bits,
            hasher: Hasher::with_seed(seed),
            io: IoCounter::new(),
            items: 0,
        }
    }

    /// The simulated-storage I/O counter.
    pub fn io(&self) -> &IoCounter {
        &self.io
    }

    #[inline]
    fn fingerprint(&self, key: u64) -> u64 {
        self.hasher.hash(&key) & filter_core::rem_mask(self.fp_bits)
    }

    /// Insert a key. Costs zero I/O until the buffer flushes.
    pub fn insert(&mut self, key: u64) {
        self.buffer.insert(self.fingerprint(key));
        self.items += 1;
        if self.buffer.len() >= self.buffer_capacity {
            self.flush();
        }
    }

    /// Flush the buffer to a new storage run and merge as needed.
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let fps: Vec<u64> = std::mem::take(&mut self.buffer).into_iter().collect();
        self.runs.insert(0, FilterRun::build(fps, &self.io));
        // Merge the newest `size_ratio` runs whenever runs of similar
        // size pile up (size-tiered).
        while self.runs.len() >= 2 {
            let smallest = self.runs.iter().map(|r| r.fps.len()).min().unwrap();
            let small_runs = self
                .runs
                .iter()
                .filter(|r| r.fps.len() < smallest * self.size_ratio)
                .count();
            if small_runs < self.size_ratio {
                break;
            }
            // Merge every run below the threshold into one.
            let (mut merge, keep): (Vec<FilterRun>, Vec<FilterRun>) =
                std::mem::take(&mut self.runs)
                    .into_iter()
                    .partition(|r| r.fps.len() < smallest * self.size_ratio);
            let mut merged: Vec<u64> = Vec::new();
            for r in merge.drain(..) {
                merged.extend_from_slice(r.drain(&self.io));
            }
            merged.sort_unstable();
            merged.dedup();
            self.runs = keep;
            self.runs.push(FilterRun::build(merged, &self.io));
            self.runs.sort_by_key(|r| std::cmp::Reverse(r.fps.len()));
            // Loop: the merged run may itself complete a cohort one
            // rank up (cascading merge).
        }
    }

    /// Membership query: buffer probe is free; each overlapping
    /// storage run costs at most one block read.
    pub fn contains(&self, key: u64) -> bool {
        let fp = self.fingerprint(key);
        if self.buffer.contains(&fp) {
            return true;
        }
        self.runs.iter().any(|r| r.contains(fp, &self.io))
    }

    /// Keys inserted.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Storage runs currently live.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// RAM bytes (buffer only; runs live on storage).
    pub fn ram_bytes(&self) -> usize {
        self.buffer.len() * 8 + self.runs.iter().map(|r| r.fences.len() * 8).sum::<usize>()
    }

    /// Storage bytes across all runs.
    pub fn storage_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.fps.len() * 8).sum()
    }
}

impl filter_core::Filter for CascadeFilter {
    fn contains(&self, key: u64) -> bool {
        CascadeFilter::contains(self, key)
    }

    fn len(&self) -> usize {
        CascadeFilter::len(self)
    }

    /// RAM plus simulated-storage bytes — the total footprint, unlike
    /// [`CascadeFilter::ram_bytes`] which reports the residency the
    /// cascade is designed to minimise.
    fn size_in_bytes(&self) -> usize {
        self.ram_bytes() + self.storage_bytes()
    }
}

impl filter_core::InsertFilter for CascadeFilter {
    fn insert(&mut self, key: u64) -> filter_core::Result<()> {
        CascadeFilter::insert(self, key);
        Ok(())
    }
}

/// Default (scalar) batch implementation: a cascade query's cost is
/// dominated by simulated-storage I/O, not cache misses, so there is
/// no prefetch kernel — but the impl lets `Sharded<CascadeFilter>`
/// use the one-lock-per-shard batched membership path.
impl filter_core::BatchedFilter for CascadeFilter {}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{disjoint_keys, unique_keys};

    #[test]
    fn no_false_negatives_across_flushes() {
        let keys = unique_keys(600, 50_000);
        let mut f = CascadeFilter::new(1_024, 40);
        for &k in &keys {
            f.insert(k);
        }
        assert!(keys.iter().all(|&k| f.contains(k)));
        assert!(f.run_count() >= 2, "{} runs", f.run_count());
    }

    #[test]
    fn fpr_is_tiny_with_40bit_fps() {
        let keys = unique_keys(601, 50_000);
        let mut f = CascadeFilter::new(1_024, 40);
        for &k in &keys {
            f.insert(k);
        }
        let neg = disjoint_keys(602, 50_000, &keys);
        let fps = neg.iter().filter(|&&k| f.contains(k)).count();
        assert!(fps <= 2, "{fps} false positives");
    }

    #[test]
    fn insert_io_is_amortized_sequential() {
        let keys = unique_keys(603, 100_000);
        let mut f = CascadeFilter::new(4_096, 40);
        for &k in &keys {
            f.insert(k);
        }
        f.flush();
        // Writes: each key is rewritten once per merge generation —
        // O(log_T n / B) per key, far below 1 I/O per insert.
        let per_insert = f.io().writes() as f64 / keys.len() as f64;
        assert!(per_insert < 0.1, "write I/O per insert {per_insert}");
    }

    #[test]
    fn query_io_bounded_by_runs() {
        let keys = unique_keys(604, 50_000);
        let mut f = CascadeFilter::new(1_024, 40);
        for &k in &keys {
            f.insert(k);
        }
        f.flush();
        f.io().reset();
        let neg = disjoint_keys(605, 10_000, &keys);
        for &k in &neg {
            f.contains(k);
        }
        let per_query = f.io().reads() as f64 / 10_000.0;
        assert!(
            per_query <= f.run_count() as f64,
            "{per_query} reads/query over {} runs",
            f.run_count()
        );
    }

    #[test]
    fn filter_traits_match_inherent_api() {
        use filter_core::{Filter, InsertFilter};
        let keys = unique_keys(607, 20_000);
        let mut f = CascadeFilter::new(1_024, 40);
        {
            let dynf: &mut dyn InsertFilter = &mut f;
            for &k in &keys {
                dynf.insert(k).unwrap();
            }
        }
        let dynf: &dyn Filter = &f;
        assert!(keys.iter().all(|&k| dynf.contains(k)));
        assert_eq!(dynf.len(), 20_000);
        assert!(dynf.size_in_bytes() >= f.ram_bytes());
    }

    #[test]
    fn sharded_cascade_concurrent_inserts() {
        let f = concurrent::Sharded::new(2, |i| {
            CascadeFilter::with_seed(1_024, 40, 0xca5c ^ i as u64)
        });
        let keys = unique_keys(608, 80_000);
        std::thread::scope(|s| {
            for chunk in keys.chunks(20_000) {
                let f = &f;
                s.spawn(move || f.insert_batch(chunk).unwrap());
            }
        });
        assert!(f.contains_batch(&keys).iter().all(|&b| b));
        assert_eq!(f.len(), 80_000);
        let neg = disjoint_keys(609, 20_000, &keys);
        let fps = neg.iter().filter(|&&k| f.contains(k)).count();
        assert!(fps <= 2, "{fps} false positives");
    }

    #[test]
    fn ram_footprint_stays_near_buffer() {
        let keys = unique_keys(606, 200_000);
        let mut f = CascadeFilter::new(2_048, 40);
        for &k in &keys {
            f.insert(k);
        }
        // Buffer + fences only: orders below 200k × 8 bytes.
        assert!(
            f.ram_bytes() < 64 * 1024,
            "RAM {} bytes for 200k keys",
            f.ram_bytes()
        );
    }
}
