//! The counting quotient filter (Pandey et al., SIGMOD 2017).
//!
//! Represents multisets with *variable-length counters*: a remainder
//! seen once costs one slot; higher multiplicities embed an escape
//! sequence of counter digits inside the run, so space grows with
//! `log(count)` rather than provisioning a maximal-width counter in
//! every slot (the CBF's weakness on skew, experiment E9).
//!
//! Counter encoding within a (sorted-ascending) run, for remainder
//! `x` with multiplicity `c`:
//!
//! - `x = 0`: `c` literal zeros at the run head (zero has no smaller
//!   value to signal an escape with; runs of zeros are unambiguous
//!   because every later remainder is > 0).
//! - `x > 0, c = 1`: `[x]`
//! - `x > 0, c = 2`: `[x, x]`
//! - `x > 0, c ≥ 3`: `[x, d₀, d₁, …, d_k, x]` where `d₀ < x` signals
//!   the escape and carries `(c−3) mod x`; subsequent digits encode
//!   `(c−3) / x` little-endian in base `2^r − 1` with values skipping
//!   `x` (so only the terminating `x` ends the sequence).
//!
//! Decoding is sequential and unambiguous because runs are sorted:
//! after a singleton `x` the next value is a *larger* remainder,
//! never a digit.

use crate::table::SlotTable;
use filter_core::{
    quotienting, BatchedFilter, CountingFilter, Expandable, Filter, FilterError, Hasher,
    InsertFilter, Result, PROBE_CHUNK,
};

/// Largest quotient width a snapshot may carry: the 2²⁹ home slots
/// the service builds for 2²⁸ keys, its default `max_capacity`.
/// Without a bound a forged header asks for up to 2⁵⁶ slots.
pub const MAX_SNAPSHOT_Q: u32 = 29;

/// Decode a run's payload slots into `(remainder, count)` pairs.
///
/// Panics on a malformed escape sequence; runs produced by
/// [`encode_counts`] are always well-formed. Untrusted inputs
/// (deserialization) go through [`try_decode_counts`] instead.
pub(crate) fn decode_counts(payloads: &[u64], r: u32) -> Vec<(u64, u64)> {
    try_decode_counts(payloads, r).expect("malformed counter run")
}

/// Bounds-checked [`decode_counts`]: returns `None` on a structurally
/// invalid run (e.g. an unterminated counter escape) instead of
/// panicking.
pub(crate) fn try_decode_counts(payloads: &[u64], r: u32) -> Option<Vec<(u64, u64)>> {
    let base = filter_core::rem_mask(r); // 2^r - 1
    let mut out = Vec::new();
    let mut i = 0usize;
    // Leading zeros encode the multiplicity of remainder 0.
    if !payloads.is_empty() && payloads[0] == 0 {
        let mut z = 0usize;
        while i < payloads.len() && payloads[i] == 0 {
            z += 1;
            i += 1;
        }
        out.push((0, z as u64));
    }
    while i < payloads.len() {
        let x = payloads[i];
        if x == 0 {
            return None; // zero remainder past the run head
        }
        if i + 1 < payloads.len() && payloads[i + 1] == x {
            out.push((x, 2));
            i += 2;
        } else if i + 1 < payloads.len() && payloads[i + 1] < x {
            // Escape: d0 then base-(2^r - 1) digits until the
            // terminating x.
            let d0 = payloads[i + 1];
            let mut j = i + 2;
            let mut m = 0u64;
            let mut scale = 1u64;
            while *payloads.get(j)? != x {
                let digit = if payloads[j] < x {
                    payloads[j]
                } else {
                    payloads[j] - 1
                };
                m = m.checked_add(digit.checked_mul(scale)?)?;
                // After the highest digit, scale is never multiplied
                // into anything in a valid run; it may legitimately
                // wrap there (the next payload is the terminator).
                scale = scale.wrapping_mul(base);
                j += 1;
            }
            out.push((x, 3u64.checked_add(d0)?.checked_add(x.checked_mul(m)?)?));
            i = j + 1;
        } else {
            out.push((x, 1));
            i += 1;
        }
    }
    Some(out)
}

/// Encode `(remainder, count)` pairs (sorted by remainder) into
/// payload slots.
pub(crate) fn encode_counts(counts: &[(u64, u64)], r: u32) -> Vec<u64> {
    let base = filter_core::rem_mask(r);
    let mut out = Vec::new();
    for &(x, c) in counts {
        debug_assert!(c > 0);
        if x == 0 {
            out.extend(std::iter::repeat_n(0, c as usize));
            continue;
        }
        match c {
            1 => out.push(x),
            2 => {
                out.push(x);
                out.push(x);
            }
            _ => {
                let n = c - 3;
                out.push(x);
                out.push(n % x);
                let mut m = n / x;
                while m > 0 {
                    let digit = m % base;
                    m /= base;
                    out.push(if digit < x { digit } else { digit + 1 });
                }
                out.push(x);
            }
        }
    }
    out
}

/// # Examples
///
/// ```
/// use quotient::CountingQuotientFilter;
/// use filter_core::CountingFilter;
///
/// let mut f = CountingQuotientFilter::for_capacity(1_000, 0.001);
/// f.insert_count(9, 1_000_000).unwrap(); // ~3 slots, not 20 bits/slot
/// assert_eq!(f.count(9), 1_000_000);
/// ```
///
/// A counting quotient filter.
#[derive(Debug, Clone)]
pub struct CountingQuotientFilter {
    table: SlotTable,
    hasher: Hasher,
    r: u32,
    distinct: usize,
    total: u64,
    max_load: f64,
    auto_expand: bool,
    expansions: u32,
}

impl CountingQuotientFilter {
    /// CQF with `2^q` slots and `r`-bit remainders (`r ≥ 2` so the
    /// counter escape has room).
    pub fn new(q: u32, r: u32) -> Self {
        Self::with_seed(q, r, 0)
    }

    /// As [`CountingQuotientFilter::new`] with an explicit seed.
    pub fn with_seed(q: u32, r: u32, seed: u64) -> Self {
        assert!(q + r <= 64);
        assert!(r >= 2, "CQF needs r >= 2 for counter escapes");
        CountingQuotientFilter {
            table: SlotTable::new(q, r),
            hasher: Hasher::with_seed(seed),
            r,
            distinct: 0,
            total: 0,
            max_load: crate::qf::DEFAULT_MAX_LOAD,
            auto_expand: false,
            expansions: 0,
        }
    }

    /// Size for `capacity` *distinct* keys at FPR `eps`.
    pub fn for_capacity(capacity: usize, eps: f64) -> Self {
        let slots = (capacity as f64 / crate::qf::DEFAULT_MAX_LOAD).ceil() as usize;
        let q = slots.next_power_of_two().trailing_zeros().max(4);
        let r = ((1.0 / eps).log2().ceil() as u32).clamp(2, 60.min(64 - q));
        Self::new(q, r)
    }

    /// Enable automatic doubling expansion at the load limit.
    pub fn set_auto_expand(&mut self, on: bool) {
        self.auto_expand = on;
    }

    /// Total multiplicity across all keys.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// Remainder width.
    pub fn remainder_bits(&self) -> u32 {
        self.r
    }

    /// Load factor over home slots.
    pub fn load(&self) -> f64 {
        self.table.load()
    }

    #[inline]
    fn fingerprint(&self, key: u64) -> (u64, u64) {
        quotienting(self.hasher.hash(&key), self.table.q(), self.r)
    }

    /// Multiplicity of an already-quotiented fingerprint (shared by
    /// [`CountingFilter::count`] and the batch kernel's resolve
    /// phase).
    #[inline]
    fn count_fp(&self, quot: u64, rem: u64) -> u64 {
        let payloads = self.table.run_payloads(quot);
        decode_counts(&payloads, self.r)
            .into_iter()
            .find(|&(x, _)| x == rem)
            .map(|(_, c)| c)
            .unwrap_or(0)
    }

    /// Merge another CQF's counts into this one. Both filters must
    /// share geometry and seed (fingerprints are only compatible
    /// then) — the primitive Squeakr and Mantis use to combine
    /// per-thread / per-sample counting passes.
    ///
    /// # Panics
    /// Panics on geometry or seed mismatch.
    pub fn merge_from(&mut self, other: &CountingQuotientFilter) -> Result<()> {
        assert_eq!(self.table.q(), other.table.q(), "geometry mismatch");
        assert_eq!(self.r, other.r, "remainder width mismatch");
        assert_eq!(self.hasher, other.hasher, "seed mismatch");
        for run in other.table.iter_runs() {
            for (rem, c) in decode_counts(&run.payloads, other.r) {
                self.update_fp(run.quotient, rem, c as i64)?;
            }
        }
        Ok(())
    }

    /// Serialize for persistence or for shipping a pre-built filter
    /// over the service's CREATE frame.
    ///
    /// The encoding is run-oriented — `(quotient, payload slots)` pairs
    /// — rather than a raw table dump, so it is independent of the
    /// table's physical padding and robin-hood shift state.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = filter_core::ByteWriter::new();
        w.put_u32(0xc0ff_1175); // magic
        w.put_u32(self.table.q());
        w.put_u32(self.r);
        w.put_u64(self.hasher.seed());
        w.put_f64(self.max_load);
        w.put_u32(u32::from(self.auto_expand));
        w.put_u32(self.expansions);
        let runs: Vec<crate::table::Run> = self.table.iter_runs().collect();
        w.put_u64(runs.len() as u64);
        for run in runs {
            w.put_u64(run.quotient);
            w.put_u64_slice(&run.payloads);
        }
        w.into_bytes()
    }

    /// Deserialize a filter previously written by
    /// [`CountingQuotientFilter::to_bytes`]. Distinct/total counts are
    /// recomputed from the decoded runs, so a forged header cannot
    /// desynchronise them.
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, filter_core::SerialError> {
        use filter_core::SerialError;
        let mut r = filter_core::ByteReader::new(bytes);
        if r.take_u32()? != 0xc0ff_1175 {
            return Err(SerialError::Corrupt("cqf magic"));
        }
        let q = r.take_u32()?;
        let rem_bits = r.take_u32()?;
        // The table's 2^q slots are allocated before any run is read,
        // so `q` is bounded by a constant, not by the blob's length.
        if !(1..=MAX_SNAPSHOT_Q).contains(&q) || !(2..=64).contains(&rem_bits) || q + rem_bits > 64
        {
            return Err(SerialError::Corrupt("cqf geometry"));
        }
        let seed = r.take_u64()?;
        let max_load = r.take_f64()?;
        if !(0.1..=1.0).contains(&max_load) {
            return Err(SerialError::Corrupt("cqf max load"));
        }
        let auto_expand = r.take_u32()? != 0;
        let expansions = r.take_u32()?;
        let n_runs = r.take_u64()? as usize;
        if n_runs > 1usize << q {
            return Err(SerialError::Corrupt("cqf run count"));
        }
        let mut table = SlotTable::new(q, rem_bits);
        let mut distinct = 0usize;
        let mut total = 0u64;
        let rem_max = filter_core::rem_mask(rem_bits);
        let mut prev_quot: Option<u64> = None;
        for _ in 0..n_runs {
            let quot = r.take_u64()?;
            if quot >= 1u64 << q {
                return Err(SerialError::Corrupt("cqf quotient out of range"));
            }
            // iter_runs emits quotients in strictly increasing order;
            // requiring it here rules out duplicate runs.
            if prev_quot.is_some_and(|p| quot <= p) {
                return Err(SerialError::Corrupt("cqf runs out of order"));
            }
            prev_quot = Some(quot);
            let payloads = r.take_u64_vec()?;
            if payloads.is_empty() || payloads.iter().any(|&p| p > rem_max) {
                return Err(SerialError::Corrupt("cqf run payload"));
            }
            // A decode/encode round-trip must reproduce the slots
            // exactly, otherwise the counter escape structure is
            // malformed (e.g. an unterminated escape, or a
            // non-canonical re-encoding).
            let counts = try_decode_counts(&payloads, rem_bits)
                .ok_or(SerialError::Corrupt("cqf counter encoding"))?;
            if encode_counts(&counts, rem_bits) != payloads {
                return Err(SerialError::Corrupt("cqf counter encoding"));
            }
            distinct += counts.len();
            total = counts.iter().fold(total, |t, &(_, c)| t.saturating_add(c));
            table
                .modify_run(quot, |p| *p = payloads)
                .map_err(|_| SerialError::Corrupt("cqf table overflow"))?;
        }
        Ok(CountingQuotientFilter {
            table,
            hasher: Hasher::with_seed(seed),
            r: rem_bits,
            distinct,
            total,
            max_load,
            auto_expand,
            expansions,
        })
    }

    /// Add `delta` (may be negative) to a remainder's count. Returns
    /// the previous count.
    fn update_fp(&mut self, quot: u64, rem: u64, delta: i64) -> Result<u64> {
        // Growth headroom check (an increment can add ≤ 2 slots).
        if delta > 0
            && self.table.used_slots() + 2 > (self.max_load * self.table.capacity() as f64) as usize
        {
            if self.auto_expand {
                self.expand()?;
                let old_q = self.table.q() - 1;
                let fp = quot | (rem << old_q);
                let nq = fp & filter_core::rem_mask(self.table.q());
                let nr = (fp >> self.table.q()) & filter_core::rem_mask(self.r);
                return self.update_fp(nq, nr, delta);
            }
            return Err(FilterError::CapacityExceeded);
        }
        let r = self.r;
        let mut prev = 0u64;
        let mut underflow = false;
        let edited = self.table.modify_run(quot, |p| {
            let mut counts = decode_counts(p, r);
            match counts.iter_mut().find(|(x, _)| *x == rem) {
                Some((_, c)) => {
                    prev = *c;
                    let next = *c as i64 + delta;
                    if next < 0 {
                        underflow = true;
                        return;
                    }
                    *c = next as u64;
                }
                None => {
                    if delta < 0 {
                        underflow = true;
                        return;
                    }
                    let i = counts.partition_point(|&(x, _)| x < rem);
                    counts.insert(i, (rem, delta as u64));
                }
            }
            counts.retain(|&(_, c)| c > 0);
            *p = encode_counts(&counts, r);
        });
        if let Err(e) = edited {
            // The average-load headroom check above can pass while a
            // single cluster still spills past the table's physical
            // padding (skewed multisets grow long variable-length
            // counter runs). The table rejects the edit *before*
            // writing anything, so expanding and retrying is safe.
            if matches!(e, FilterError::CapacityExceeded) {
                crate::CQF_CLUSTER_SPILLS.inc();
            }
            if matches!(e, FilterError::CapacityExceeded) && self.auto_expand {
                self.expand()?;
                let old_q = self.table.q() - 1;
                let fp = quot | (rem << old_q);
                let nq = fp & filter_core::rem_mask(self.table.q());
                let nr = (fp >> self.table.q()) & filter_core::rem_mask(self.r);
                return self.update_fp(nq, nr, delta);
            }
            return Err(e);
        }
        if underflow {
            return Err(FilterError::NotFound);
        }
        let now = (prev as i64 + delta) as u64;
        if prev == 0 && now > 0 {
            self.distinct += 1;
        }
        if prev > 0 && now == 0 {
            self.distinct -= 1;
        }
        self.total = (self.total as i64 + delta) as u64;
        Ok(prev)
    }
}

impl Filter for CountingQuotientFilter {
    fn contains(&self, key: u64) -> bool {
        self.count(key) > 0
    }

    fn len(&self) -> usize {
        self.distinct
    }

    fn size_in_bytes(&self) -> usize {
        self.table.size_in_bytes()
    }
}

impl BatchedFilter for CountingQuotientFilter {
    /// Pipelined probe: quotient every key up front, warm each home
    /// slot's metadata bitmaps and payload line, then decode runs
    /// from cache. Long clusters can still walk past the warmed
    /// words, but the common case (short runs near the home slot)
    /// resolves without a serialised miss.
    fn contains_chunk(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert!(keys.len() <= PROBE_CHUNK && keys.len() == out.len());
        let mut fps = [(0u64, 0u64); PROBE_CHUNK];
        for (p, &key) in fps.iter_mut().zip(keys) {
            *p = self.fingerprint(key);
        }
        for &(quot, _) in &fps[..keys.len()] {
            self.table.prefetch_home(quot);
        }
        for (o, &(quot, rem)) in out.iter_mut().zip(&fps[..keys.len()]) {
            *o = self.count_fp(quot, rem) > 0;
        }
    }
}

impl InsertFilter for CountingQuotientFilter {
    fn insert(&mut self, key: u64) -> Result<()> {
        self.insert_count(key, 1)
    }

    /// The home slot's metadata words and payload line, as the probe
    /// kernel warms them. Shifts that run past the home word, and an
    /// expansion between this hint and the insert, still miss.
    fn prefetch_insert(&self, key: u64) {
        self.table.prefetch_home(self.fingerprint(key).0);
    }
}

impl CountingFilter for CountingQuotientFilter {
    fn insert_count(&mut self, key: u64, count: u64) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        let (quot, rem) = self.fingerprint(key);
        self.update_fp(quot, rem, count as i64).map(|_| ())
    }

    fn count(&self, key: u64) -> u64 {
        let (quot, rem) = self.fingerprint(key);
        self.count_fp(quot, rem)
    }

    fn remove_count(&mut self, key: u64, count: u64) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        let (quot, rem) = self.fingerprint(key);
        self.update_fp(quot, rem, -(count as i64)).map(|_| ())
    }
}

impl Expandable for CountingQuotientFilter {
    fn expand(&mut self) -> Result<()> {
        if self.r <= 2 {
            return Err(FilterError::ExpansionExhausted);
        }
        let _span = crate::CQF_EXPAND_DURATION.span();
        let old_q = self.table.q();
        let old_r = self.r;
        let new_q = old_q + 1;
        let new_r = old_r - 1;
        let mut new_table = SlotTable::new(new_q, new_r);
        for run in self.table.iter_runs() {
            for (rem, c) in decode_counts(&run.payloads, old_r) {
                let fp = run.quotient | (rem << old_q);
                let quot = fp & filter_core::rem_mask(new_q);
                let new_rem = (fp >> new_q) & filter_core::rem_mask(new_r);
                new_table.modify_run(quot, |p| {
                    let mut counts = decode_counts(p, new_r);
                    match counts.iter_mut().find(|(x, _)| *x == new_rem) {
                        // Shrunken remainders can merge; counts add.
                        Some((_, c0)) => *c0 += c,
                        None => {
                            let i = counts.partition_point(|&(x, _)| x < new_rem);
                            counts.insert(i, (new_rem, c));
                        }
                    }
                    *p = encode_counts(&counts, new_r);
                })?;
            }
        }
        self.table = new_table;
        self.r = new_r;
        self.expansions += 1;
        crate::CQF_EXPANSIONS.inc();
        // Distinct count may shrink on merges; recompute lazily is
        // costly, so recount during the rebuild instead.
        let mut distinct = 0usize;
        for run in self.table.iter_runs() {
            distinct += decode_counts(&run.payloads, self.r).len();
        }
        self.distinct = distinct;
        Ok(())
    }

    fn expansions(&self) -> u32 {
        self.expansions
    }

    fn capacity(&self) -> usize {
        self.table.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::zipf::{rank_to_key, Zipf};
    use workloads::{disjoint_keys, unique_keys};

    #[test]
    fn codec_roundtrip_exhaustive_small() {
        for r in [2u32, 3, 8] {
            let max = filter_core::rem_mask(r).min(5);
            for x in 0..=max {
                for c in 1..=70u64 {
                    let enc = encode_counts(&[(x, c)], r);
                    let dec = decode_counts(&enc, r);
                    assert_eq!(dec, vec![(x, c)], "r={r} x={x} c={c}");
                }
            }
        }
    }

    #[test]
    fn codec_roundtrip_mixed_runs() {
        let r = 8u32;
        let counts = vec![(0u64, 3u64), (1, 1), (2, 500), (7, 2), (200, 1_000_000)];
        let enc = encode_counts(&counts, r);
        assert_eq!(decode_counts(&enc, r), counts);
    }

    #[test]
    fn codec_space_is_logarithmic() {
        let r = 8u32;
        // Count of 10^6 must use O(log(count)/r) slots, not O(count).
        let enc = encode_counts(&[(77, 1_000_000)], r);
        assert!(enc.len() <= 6, "encoding used {} slots", enc.len());
    }

    #[test]
    fn counts_are_exact_for_inserted_keys() {
        let mut f = CountingQuotientFilter::new(12, 10);
        let keys = unique_keys(80, 1_000);
        for (i, &k) in keys.iter().enumerate() {
            f.insert_count(k, (i % 7 + 1) as u64).unwrap();
        }
        let mut wrong = 0;
        for (i, &k) in keys.iter().enumerate() {
            let truth = (i % 7 + 1) as u64;
            let got = f.count(k);
            assert!(got >= truth, "undercount");
            if got != truth {
                wrong += 1;
            }
        }
        // Fingerprint collisions can inflate a few counts.
        assert!(wrong < 10, "{wrong} inflated counts");
    }

    #[test]
    fn zipfian_multiset_roundtrip() {
        let mut f = CountingQuotientFilter::new(14, 9);
        let z = Zipf::new(8_000, 1.3);
        let mut rng = workloads::rng(81);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..200_000 {
            let k = rank_to_key(z.sample(&mut rng), 3);
            *truth.entry(k).or_insert(0u64) += 1;
            f.insert(k).unwrap();
        }
        assert_eq!(f.total_count(), 200_000);
        for (&k, &t) in &truth {
            assert!(f.count(k) >= t, "undercount {} < {t}", f.count(k));
        }
        // Load stays modest despite 200k inserts of 8k keys: counters
        // are variable-length.
        assert!(f.load() < 0.95, "load {}", f.load());
    }

    #[test]
    fn remove_decrements() {
        let mut f = CountingQuotientFilter::new(10, 8);
        f.insert_count(9, 10).unwrap();
        f.remove_count(9, 4).unwrap();
        assert_eq!(f.count(9), 6);
        f.remove_count(9, 6).unwrap();
        assert_eq!(f.count(9), 0);
        assert!(!f.contains(9));
        assert_eq!(f.remove_count(9, 1), Err(FilterError::NotFound));
    }

    #[test]
    fn fpr_reasonable() {
        let keys = unique_keys(82, 20_000);
        let mut f = CountingQuotientFilter::for_capacity(20_000, 1.0 / 256.0);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let neg = disjoint_keys(83, 50_000, &keys);
        let fpr = neg.iter().filter(|&&k| f.contains(k)).count() as f64 / 50_000.0;
        assert!(fpr < 0.02, "fpr {fpr}");
    }

    #[test]
    fn expansion_preserves_counts() {
        // Counter escapes consume slots (c ≥ 3 needs ≥ 3 slots), so
        // size for ~2.7 slots/key.
        let mut f = CountingQuotientFilter::new(8, 10);
        let keys = unique_keys(84, 80);
        for (i, &k) in keys.iter().enumerate() {
            f.insert_count(k, (i % 9 + 1) as u64).unwrap();
        }
        let before: Vec<u64> = keys.iter().map(|&k| f.count(k)).collect();
        f.expand().unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert!(f.count(k) >= before[i], "count dropped across expansion");
        }
        assert_eq!(f.total_count(), before.iter().sum::<u64>());
    }

    #[test]
    fn merge_sums_counts() {
        // Counter escapes cost up to 3 slots per key; q=13 leaves
        // room for both sides plus the merged total.
        let mut a = CountingQuotientFilter::new(13, 10);
        let mut b = CountingQuotientFilter::new(13, 10);
        let keys = unique_keys(85, 2_000);
        for (i, &k) in keys.iter().enumerate() {
            a.insert_count(k, (i % 3 + 1) as u64).unwrap();
            b.insert_count(k, (i % 5 + 1) as u64).unwrap();
        }
        a.merge_from(&b).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let want = (i % 3 + 1) as u64 + (i % 5 + 1) as u64;
            assert!(a.count(k) >= want, "merged count {} < {want}", a.count(k));
        }
        assert_eq!(
            a.total_count(),
            keys.iter()
                .enumerate()
                .map(|(i, _)| (i % 3 + 1 + i % 5 + 1) as u64)
                .sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_different_seeds() {
        let mut a = CountingQuotientFilter::with_seed(8, 8, 1);
        let b = CountingQuotientFilter::with_seed(8, 8, 2);
        let _ = a.merge_from(&b);
    }

    #[test]
    fn serialization_roundtrip_preserves_counts() {
        let mut f = CountingQuotientFilter::with_seed(13, 9, 0xabcd);
        f.set_auto_expand(true);
        let z = Zipf::new(3_000, 1.2);
        let mut rng = workloads::rng(86);
        for _ in 0..50_000 {
            f.insert(rank_to_key(z.sample(&mut rng), 7)).unwrap();
        }
        let g = CountingQuotientFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.len(), f.len());
        assert_eq!(g.total_count(), f.total_count());
        assert_eq!(g.remainder_bits(), f.remainder_bits());
        for rank in 1..=3_000u64 {
            let k = rank_to_key(rank, 7);
            assert_eq!(f.count(k), g.count(k), "count diverged for rank {rank}");
        }
        let neg = unique_keys(87, 10_000);
        for &k in &neg {
            assert_eq!(f.contains(k), g.contains(k), "membership diverged at {k}");
        }
        // The reloaded filter stays fully functional, including
        // auto-expansion.
        let mut g = g;
        for k in neg {
            g.insert(k).unwrap();
        }
    }

    #[test]
    fn corrupt_bytes_rejected_not_panicking() {
        // Counter escapes cost up to 3 slots per key, so q = 10 gives
        // 1024 home slots for 150 keys with counts up to 11.
        let mut f = CountingQuotientFilter::new(10, 8);
        for (i, k) in unique_keys(88, 150).into_iter().enumerate() {
            f.insert_count(k, (i % 11 + 1) as u64).unwrap();
        }
        let bytes = f.to_bytes();
        for cut in 0..bytes.len().min(96) {
            assert!(CountingQuotientFilter::from_bytes(&bytes[..cut]).is_err());
        }
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff; // magic
        assert!(CountingQuotientFilter::from_bytes(&wrong).is_err());
        // Flipping bytes anywhere must never panic; it may still
        // round-trip to a valid filter or fail cleanly.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x55;
            let _ = CountingQuotientFilter::from_bytes(&mutated);
        }
    }

    #[test]
    fn malformed_escape_rejected() {
        // [2, 1] starts an escape (1 < 2) with no terminator: the
        // bounds-checked decoder must refuse it rather than read past
        // the run.
        assert_eq!(try_decode_counts(&[2, 1], 8), None);
        // Zero remainder after the run head is structurally invalid.
        assert_eq!(try_decode_counts(&[3, 0, 3], 8), Some(vec![(3, 3)]));
        assert_eq!(try_decode_counts(&[5, 3, 0], 8), None);
    }

    #[test]
    fn zero_remainder_counting() {
        // Force remainder 0 by direct fingerprint manipulation: find a
        // key whose remainder is 0 for this geometry.
        let mut f = CountingQuotientFilter::new(8, 4);
        let key = (0u64..100_000)
            .find(|&k| f.fingerprint(k).1 == 0)
            .expect("some key has remainder 0");
        f.insert_count(key, 17).unwrap();
        assert_eq!(f.count(key), 17);
        f.remove_count(key, 16).unwrap();
        assert_eq!(f.count(key), 1);
    }
}
