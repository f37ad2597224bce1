//! # bloofi — a bit-sliced index over many named filters
//!
//! Bloofi (Crainiceanu & Lemire) answers the multi-tenant question
//! "which of my N filters contain key X?" without probing all N
//! filters. This crate builds the paper's Flat-Bloofi layout.
//!
//! Every indexed filter (a *tenant*) owns one fixed-geometry Bloom
//! summary: [`BLOCKS`] register-blocked 256-bit blocks, hashed with
//! the shared [`SEED`]. A key selects block `h1 % BLOCKS` and an
//! 8-bit mask from `h2` ([`filter_core::simd::block_mask_256`]),
//! which names exactly 8 of the summary's 16,384 bit positions. The
//! summaries are stored bit-sliced: each bit position is a *row*, a
//! bitmap over tenant slots, so one 64-bit word of a row holds that
//! position for 64 tenants. A key's candidate tenants are the AND of
//! its 8 rows, ORed with the bitmap of *saturated* tenants: filters
//! whose key set is unknown (restored from a snapshot blob), which
//! are candidates for every key.
//!
//! The invariant the probe path relies on: **a tenant's column covers
//! every key inserted into it since its slot was taken**, and a free
//! slot's column and saturated bit are zero. So a probe can miss no
//! tenant whose filter holds the key, and names only live tenants.
//! A probe reads `8 · ⌈N/64⌉` words per key.
//!
//! Each slot carries a payload `T` beside its name. A server stores
//! the filter itself there, so the index doubles as its filter table
//! and a candidate slot leads straight to the filter that confirms it.
//! See DESIGN.md, "Multi-tenant filter index".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use filter_core::{simd, Hasher};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::StaticHistogram;

/// Register-blocked 256-bit blocks per tenant summary (2 KiB).
pub const BLOCKS: usize = 64;

/// Hash seed shared by every tenant summary.
pub const SEED: u64 = 0x00b1_00f1;

/// Summary bit positions, one matrix row each.
const ROWS: usize = BLOCKS * 256;

/// Candidate tenants per multi-contains key, before the candidates'
/// own filters confirm them.
pub static CANDIDATES: StaticHistogram = StaticHistogram::new(
    "bb_bloofi_candidates",
    "Bloofi candidate tenants per multi-contains key (before filter confirmation).",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    CANDIDATES.register();
}

/// The bit-sliced tenant matrix, with a payload `T` per tenant. Slot
/// bookkeeping and every store that clears bits need `&mut self`; key
/// inserts and probes run concurrently under `&self` (the service
/// keeps the index behind one `RwLock`).
pub struct BloofiIndex<T = ()> {
    /// Words per row: slots `0..stride * 64` have a column.
    stride: usize,
    /// Row `r` is words `[r * stride, (r + 1) * stride)`; slot `t` is
    /// bit `t % 64` of the row's word `t / 64`.
    rows: Vec<AtomicU64>,
    /// Saturated slots, `stride` words.
    saturated: Vec<u64>,
    /// Filter name and payload per slot, `None` while the slot is free.
    tenants: Vec<Option<(String, T)>>,
    slots: BTreeMap<String, u32>,
    /// Free slots below `tenants.len()`, reused lowest first.
    free: BTreeSet<u32>,
}

impl<T> Default for BloofiIndex<T> {
    fn default() -> Self {
        BloofiIndex {
            stride: 0,
            rows: Vec::new(),
            saturated: Vec::new(),
            tenants: Vec::new(),
            slots: BTreeMap::new(),
            free: BTreeSet::new(),
        }
    }
}

/// The 8 rows (summary bit positions) a key maps to.
#[inline]
fn rows_for(key: u64) -> [usize; 8] {
    let (h1, h2) = Hasher::with_seed(SEED).hash_pair(&key);
    let base = (h1 % BLOCKS as u64) as usize * 256;
    // `block_mask_256` sets exactly one bit per 32-bit lane.
    let mask = simd::block_mask_256(h2 as u32);
    let mut rows = [0; 8];
    for (j, &m) in mask.iter().enumerate() {
        rows[2 * j] = base + 64 * j + (m as u32).trailing_zeros() as usize;
        rows[2 * j + 1] = base + 64 * j + 32 + ((m >> 32) as u32).trailing_zeros() as usize;
    }
    rows
}

/// A slot's word offset within a row and its bit in that word.
#[inline]
fn word_bit(slot: u32) -> (usize, u64) {
    (slot as usize / 64, 1 << (slot % 64))
}

impl<T> BloofiIndex<T> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a new filter, carrying `payload`, with an empty column in
    /// the lowest free slot (keys arrive via
    /// [`insert_keys`](Self::insert_keys)). Returns `false`, dropping
    /// `payload`, if the name is already indexed.
    pub fn add_filter(&mut self, name: &str, payload: T) -> bool {
        if self.slots.contains_key(name) {
            return false;
        }
        let slot = self.free.pop_first().unwrap_or_else(|| {
            self.tenants.push(None);
            u32::try_from(self.tenants.len() - 1).expect("slot id fits u32")
        });
        if slot as usize >= self.stride * 64 {
            // A quarter more words (at least one): geometric, so the
            // moves stay linear overall, with at most 25% idle columns.
            self.grow(self.stride + (self.stride / 4).max(1));
        }
        self.tenants[slot as usize] = Some((name.to_string(), payload));
        self.slots.insert(name.to_string(), slot);
        true
    }

    /// Widen every row to `stride` words in place, so the old and the
    /// new matrix are never both resident: extend the buffer, then
    /// move rows last to first (a row never moves down, and the words
    /// it lands on hold no row yet to move) and zero each row's new
    /// words.
    fn grow(&mut self, stride: usize) {
        let old = self.stride;
        self.rows.resize_with(ROWS * stride, || AtomicU64::new(0));
        for row in (0..ROWS).rev() {
            for w in (0..old).rev() {
                let v = *self.rows[row * old + w].get_mut();
                *self.rows[row * stride + w].get_mut() = v;
            }
            for w in old..stride {
                *self.rows[row * stride + w].get_mut() = 0;
            }
        }
        self.saturated.resize(stride, 0);
        self.stride = stride;
    }

    /// Drop a filter from the index: clear its column and saturated
    /// bit so the slot can be reused. Returns its payload, or `None`
    /// if the name was not indexed.
    pub fn remove_filter(&mut self, name: &str) -> Option<T> {
        let slot = self.slots.remove(name)?;
        let (w, bit) = word_bit(slot);
        for row in 0..ROWS {
            *self.rows[row * self.stride + w].get_mut() &= !bit;
        }
        self.saturated[w] &= !bit;
        self.free.insert(slot);
        self.tenants[slot as usize]
            .take()
            .map(|(_, payload)| payload)
    }

    /// Make the named filter a candidate for every key: used when its
    /// key set is unknown, e.g. after a snapshot-blob restore.
    /// Returns `false` if not indexed.
    pub fn saturate_filter(&mut self, name: &str) -> bool {
        let Some(&slot) = self.slots.get(name) else {
            return false;
        };
        let (w, bit) = word_bit(slot);
        self.saturated[w] |= bit;
        true
    }

    /// The named filter's payload, or `None` if it is not indexed.
    pub fn get(&self, name: &str) -> Option<&T> {
        self.slots.get(name).map(|&slot| self.tenant(slot).1)
    }

    /// Set each key's 8 row bits in the named filter's column, safe
    /// under a shared borrow concurrently with probes. Returns the
    /// filter's payload, or `None` if it is not indexed: one name
    /// lookup serves both the column and the filter insert.
    ///
    /// A word that already holds the bit is skipped, not `fetch_or`ed
    /// (on a busy index nearly all are). The skip is as good as the
    /// `fetch_or` for every reader ordered after this call:
    ///
    /// - Under a shared borrow a row word only gains bits: its only
    ///   writer is the `fetch_or` here. Every store that clears bits
    ///   (FORGET, growth) needs `&mut self`, i.e. the exclusive lock.
    /// - So every value after the one this load saw, in the word's
    ///   modification order, holds the bit too.
    /// - Read-read coherence: a load that happens after this load
    ///   reads that value or a later one.
    pub fn insert_keys(&self, name: &str, keys: &[u64]) -> Option<&T> {
        let slot = *self.slots.get(name)?;
        let (w, bit) = word_bit(slot);
        for &key in keys {
            for row in rows_for(key) {
                let word = &self.rows[row * self.stride + w];
                if word.load(Ordering::Relaxed) & bit == 0 {
                    word.fetch_or(bit, Ordering::Relaxed);
                }
            }
        }
        Some(self.tenant(slot).1)
    }

    /// Which slots might contain each key of a (≤ 32-key) chunk?
    /// `out` is reset to one `Vec` of candidate slot ids per key, in
    /// ascending order (resolve them with [`tenant`](Self::tenant)).
    pub fn multi_contains_chunk(&self, keys: &[u64], out: &mut Vec<Vec<u32>>) {
        let scan_sp = telemetry::trace::span("bloofi:scan");
        out.resize_with(keys.len(), Vec::new);
        for (&key, ids) in keys.iter().zip(out.iter_mut()) {
            ids.clear();
            let rows = rows_for(key).map(|r| &self.rows[r * self.stride..(r + 1) * self.stride]);
            for (w, &sat) in self.saturated.iter().enumerate() {
                let mut hits = rows
                    .iter()
                    .fold(!0u64, |acc, row| acc & row[w].load(Ordering::Relaxed))
                    | sat;
                while hits != 0 {
                    ids.push((w * 64) as u32 + hits.trailing_zeros());
                    hits &= hits - 1;
                }
            }
            CANDIDATES.observe(ids.len() as u64);
        }
        scan_sp.annotate(self.len() as u64, (keys.len() * 8 * self.stride) as u64);
    }

    /// The filter name and payload in a live slot (a candidate id).
    pub fn tenant(&self, slot: u32) -> (&str, &T) {
        let (name, payload) = self.tenants[slot as usize]
            .as_ref()
            .expect("candidate ids are live slots");
        (name, payload)
    }

    /// Every indexed filter's name and payload, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.slots.values().map(|&slot| self.tenant(slot))
    }

    /// Indexed filter count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no filters are indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Indexed filters that are candidates for every key.
    pub fn saturated_len(&self) -> usize {
        self.saturated.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap footprint of the matrix plus slot bookkeeping (a payload
    /// counts its inline size only).
    pub fn size_in_bytes(&self) -> usize {
        (self.rows.len() + self.saturated.len()) * 8
            + self.tenants.capacity() * std::mem::size_of::<Option<(String, T)>>()
            + self
                .slots
                .keys()
                .map(|k| 2 * k.len() + std::mem::size_of::<u32>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<T>(idx: &BloofiIndex<T>, key: u64) -> Vec<String> {
        let mut out = Vec::new();
        idx.multi_contains_chunk(&[key], &mut out);
        let mut v: Vec<String> = out[0].iter().map(|&i| idx.tenant(i).0.into()).collect();
        v.sort();
        v
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx: BloofiIndex = BloofiIndex::new();
        assert!(idx.is_empty());
        assert!(names(&idx, 42).is_empty());
    }

    #[test]
    fn inserted_keys_are_always_found_across_growth() {
        let mut idx = BloofiIndex::new();
        for i in 0..200u64 {
            assert!(idx.add_filter(&format!("f{i}"), i));
            assert_eq!(
                idx.insert_keys(&format!("f{i}"), &[i * 1000 + 1, i * 1000 + 2]),
                Some(&i)
            );
        }
        assert!(!idx.add_filter("f0", 999), "duplicate rejected");
        assert_eq!(idx.get("f0"), Some(&0), "first payload kept");
        assert_eq!(idx.stride, 4, "200 slots grow the rows to 4 words");
        for i in 0..200u64 {
            for key in [i * 1000 + 1, i * 1000 + 2] {
                assert!(names(&idx, key).contains(&format!("f{i}")), "f{i} {key}");
            }
        }
    }

    #[test]
    fn forget_clears_the_column_and_frees_the_lowest_slot() {
        let mut idx = BloofiIndex::new();
        for i in 0..70u64 {
            idx.add_filter(&format!("f{i}"), i);
            idx.insert_keys(&format!("f{i}"), &[i]);
        }
        assert_eq!(idx.remove_filter("f3"), Some(3));
        assert_eq!(idx.remove_filter("f65"), Some(65));
        assert_eq!(idx.remove_filter("f3"), None, "double forget rejected");
        assert!(names(&idx, 3).is_empty(), "column cleared");
        idx.add_filter("new", 100);
        assert_eq!(idx.slots["new"], 3, "lowest free slot reused");
        assert_eq!(
            idx.tenant(3),
            ("new", &100),
            "reused slot carries the new payload"
        );
        assert!(names(&idx, 3).is_empty(), "reused slot starts empty");
        assert_eq!(names(&idx, 64), vec!["f64".to_string()]);
    }

    #[test]
    fn saturated_slot_matches_everything_until_forgotten() {
        let mut idx = BloofiIndex::new();
        idx.add_filter("known", ());
        idx.add_filter("blob", ());
        idx.insert_keys("known", &[1]);
        assert!(idx.saturate_filter("blob"));
        assert_eq!(idx.saturated_len(), 1);
        for key in [1u64, 999, 123_456] {
            assert!(names(&idx, key).contains(&"blob".to_string()));
        }
        idx.remove_filter("blob");
        assert_eq!(idx.saturated_len(), 0);
        idx.add_filter("fresh", ());
        assert!(!names(&idx, 999).contains(&"fresh".to_string()));
    }

    #[test]
    fn chunked_lookup_matches_single() {
        let mut idx = BloofiIndex::new();
        for i in 0..200u64 {
            idx.add_filter(&format!("f{i}"), ());
            idx.insert_keys(&format!("f{i}"), &[i, i + 7000]);
        }
        let keys: Vec<u64> = (0..32).map(|i| i * 37).collect();
        let mut chunked = Vec::new();
        idx.multi_contains_chunk(&keys, &mut chunked);
        for (ids, &k) in chunked.iter().zip(&keys) {
            let mut got: Vec<String> = ids.iter().map(|&i| idx.tenant(i).0.into()).collect();
            got.sort();
            assert_eq!(got, names(&idx, k));
        }
    }
}
