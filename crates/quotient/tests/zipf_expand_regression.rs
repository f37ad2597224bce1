//! Regression: skewed counting streams must not fail with
//! `CapacityExceeded` while auto-expansion is enabled.
//!
//! The CQF's growth check guards *average* load, but a Zipf-hot
//! cluster of variable-length counters can spill past the linear
//! table's physical padding well below `max_load`. The fix makes
//! `update_fp` expand and retry when the slot table rejects an edit
//! for physical overflow. The geometry is the one that first exposed
//! this (64 auto-expanding shards of q = 13, r = 8, seeded
//! `0x51ab ^ shard`, fed one occurrence at a time): draw 782 855 of
//! this stream used to panic.

use concurrent::Sharded;
use quotient::CountingQuotientFilter;
use workloads::rng;
use workloads::zipf::{rank_to_key, Zipf};

#[test]
fn zipf_stream_expands_instead_of_failing() {
    let zipf = Zipf::new(200_000, 1.1);
    let mut r = rng(1);
    let f = Sharded::new(6, |i| {
        let mut q = CountingQuotientFilter::with_seed(13, 8, 0x51ab ^ i as u64);
        q.set_auto_expand(true);
        q
    });
    let mut truth = std::collections::HashMap::new();
    for i in 0..2_000_000usize {
        let k = rank_to_key(zipf.sample(&mut r), 7);
        f.insert_count(k, 1)
            .unwrap_or_else(|e| panic!("insert failed at draw {i}: {e:?}"));
        *truth.entry(k).or_insert(0u64) += 1;
    }
    // A counting filter may overcount on fingerprint collisions but
    // must never undercount.
    let undercounts = truth.iter().filter(|(&k, &c)| f.count(k) < c).count();
    assert_eq!(undercounts, 0, "counts must never undercount");
    assert!(f.len() <= truth.len());
}
