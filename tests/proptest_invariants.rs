//! Property-based tests: core data structures and filters checked
//! against reference models under arbitrary operation sequences.

use beyond_bloom::core::{
    BitVec, CountingFilter, DynamicFilter, EliasFano, Filter, InsertFilter, Maplet, PackedArray,
    RangeFilter,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BitVec::set_bits/get_bits round-trips at arbitrary offsets and
    /// widths, without disturbing neighbours.
    #[test]
    fn bitvec_field_roundtrip(
        pos in 0usize..500,
        width in 1u32..=64,
        value: u64,
        canary in 0u64..2,
    ) {
        let mut bv = BitVec::new(600);
        // Plant canaries on both sides.
        if pos > 0 && canary == 1 {
            bv.set(pos - 1);
        }
        let end = pos + width as usize;
        if end < 599 && canary == 1 {
            bv.set(end);
        }
        bv.set_bits(pos, width, value);
        prop_assert_eq!(bv.get_bits(pos, width), value & beyond_bloom::core::rem_mask(width));
        if pos > 0 {
            prop_assert_eq!(bv.get(pos - 1), canary == 1);
        }
        if end < 599 {
            prop_assert_eq!(bv.get(end), canary == 1);
        }
    }

    /// PackedArray behaves like a Vec<u64> masked to its width.
    #[test]
    fn packed_array_matches_vec(
        width in 1u32..=63,
        ops in prop::collection::vec((0usize..128, any::<u64>()), 1..200),
    ) {
        let mut pa = PackedArray::new(128, width);
        let mut model = vec![0u64; 128];
        let mask = beyond_bloom::core::rem_mask(width);
        for (i, v) in ops {
            pa.set(i, v);
            model[i] = v & mask;
        }
        for (i, &want) in model.iter().enumerate() {
            prop_assert_eq!(pa.get(i), want);
        }
    }

    /// Elias–Fano reproduces any sorted sequence and its successor
    /// queries.
    #[test]
    fn elias_fano_matches_sorted_vec(
        mut values in prop::collection::vec(0u64..1_000_000, 0..300),
        probes in prop::collection::vec(0u64..1_100_000, 0..50),
    ) {
        values.sort_unstable();
        let universe = values.last().copied().unwrap_or(0);
        let ef = EliasFano::new(&values, universe);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(ef.get(i), v);
        }
        for p in probes {
            prop_assert_eq!(ef.successor_index(p), values.partition_point(|&v| v < p));
        }
    }

    /// The quotient filter over a multiset model: inserts/removes in
    /// arbitrary interleaving never produce a false negative.
    #[test]
    fn quotient_filter_multiset_model(
        ops in prop::collection::vec((any::<bool>(), 0u64..64), 1..400),
    ) {
        let mut f = beyond_bloom::quotient::QuotientFilter::new(10, 12);
        let mut model: HashMap<u64, usize> = HashMap::new();
        for (insert, key) in ops {
            if insert {
                if f.insert(key).is_ok() {
                    *model.entry(key).or_insert(0) += 1;
                }
            } else {
                let removed = f.remove(key).unwrap();
                let m = model.get(&key).copied().unwrap_or(0);
                // With 12-bit remainders over 64 keys collisions are
                // negligible: removal succeeds iff the model has it.
                prop_assert_eq!(removed, m > 0);
                if removed {
                    *model.get_mut(&key).unwrap() -= 1;
                }
            }
        }
        for (&k, &c) in &model {
            if c > 0 {
                prop_assert!(f.contains(k), "false negative for {}", k);
            }
        }
        prop_assert_eq!(f.len(), model.values().sum::<usize>());
    }

    /// CQF counts dominate the true multiset counts.
    #[test]
    fn cqf_counts_dominate_model(
        ops in prop::collection::vec((0u64..32, 1u64..20), 1..200),
    ) {
        let mut f = beyond_bloom::quotient::CountingQuotientFilter::new(10, 10);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (key, c) in ops {
            f.insert_count(key, c).unwrap();
            *model.entry(key).or_insert(0) += c;
        }
        for (&k, &c) in &model {
            prop_assert!(f.count(k) >= c);
        }
        prop_assert_eq!(f.total_count(), model.values().sum::<u64>());
    }

    /// Cuckoo filter delete-reinsert sequences keep live keys visible.
    #[test]
    fn cuckoo_delete_reinsert(
        keys in prop::collection::btree_set(any::<u64>(), 1..200),
        drop_every in 2usize..5,
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut f = beyond_bloom::cuckoo::CuckooFilter::new(512, 14);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let mut live: BTreeSet<u64> = keys.iter().copied().collect();
        for &k in keys.iter().step_by(drop_every) {
            prop_assert!(f.remove(k).unwrap());
            live.remove(&k);
        }
        for &k in &live {
            prop_assert!(f.contains(k));
        }
    }

    /// Maplet: the true value is always among the returned candidates.
    #[test]
    fn quotient_maplet_returns_truth(
        pairs in prop::collection::hash_map(any::<u64>(), 0u64..0xffff, 1..150),
    ) {
        let mut m = beyond_bloom::maplet::QuotientMaplet::new(9, 12, 16);
        for (&k, &v) in &pairs {
            m.insert(k, v).unwrap();
        }
        let mut out = Vec::new();
        for (&k, &v) in &pairs {
            out.clear();
            m.get(k, &mut out);
            prop_assert!(out.contains(&v));
        }
    }

    /// Range filters never report a truly non-empty range as empty.
    #[test]
    fn range_filters_never_false_negative(
        keys in prop::collection::btree_set(0u64..u64::MAX - 2, 2..100),
        widths in prop::collection::vec(0u64..10_000, 1..30),
    ) {
        let keys: Vec<u64> = keys.iter().copied().collect();
        let surf = beyond_bloom::rangefilter::Surf::build(&keys, 8);
        let grafite = beyond_bloom::rangefilter::Grafite::build(&keys, 14, 0.01);
        let snarf = beyond_bloom::rangefilter::Snarf::build(&keys, 10.0);
        for (i, w) in widths.iter().enumerate() {
            let k = keys[i % keys.len()];
            let lo = k.saturating_sub(w / 2);
            let hi = k.saturating_add(w / 2);
            prop_assert!(surf.may_contain_range(lo, hi), "surf FN");
            prop_assert!(grafite.may_contain_range(lo, hi), "grafite FN");
            prop_assert!(snarf.may_contain_range(lo, hi), "snarf FN");
        }
    }

    /// InfiniFilter expansion never loses a key.
    #[test]
    fn infini_expansion_preserves_members(
        keys in prop::collection::btree_set(any::<u64>(), 1..500),
    ) {
        let mut f = beyond_bloom::infini::InfiniFilter::new(4, 10);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// Counting Bloom: counts dominate and deletes restore the model.
    #[test]
    fn cbf_counts_dominate(
        ops in prop::collection::vec((0u64..64, 1u64..5), 1..100),
    ) {
        let mut f = beyond_bloom::bloom::CountingBloomFilter::new(1000, 0.001, 8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (k, c) in ops {
            f.insert_count(k, c).unwrap();
            *model.entry(k).or_insert(0) += c;
        }
        for (&k, &c) in &model {
            prop_assert!(f.count(k) >= c);
        }
    }

    /// Taffy cuckoo filter: no false negatives across any expansion
    /// sequence the inserts trigger.
    #[test]
    fn taffy_never_loses_keys(
        keys in prop::collection::btree_set(any::<u64>(), 1..600),
    ) {
        let mut f = beyond_bloom::infini::TaffyCuckooFilter::new(4, 14);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// Vector quotient filter against a multiset model (insert-only).
    #[test]
    fn vqf_multiset_no_false_negatives(
        keys in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        let mut f = beyond_bloom::quotient::VectorQuotientFilter::new(512);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
        prop_assert_eq!(f.len(), keys.len());
    }

    /// ARF: marking truly-empty ranges never hides real keys.
    #[test]
    fn arf_never_false_negative(
        keys in prop::collection::btree_set(0u64..u64::MAX - 1, 1..100),
        ranges in prop::collection::vec((any::<u64>(), 0u64..1 << 20), 0..40),
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut arf = beyond_bloom::rangefilter::Arf::new(20_000);
        for (lo, w) in ranges {
            let hi = lo.saturating_add(w);
            let i = keys.partition_point(|&k| k < lo);
            let empty = !(i < keys.len() && keys[i] <= hi);
            if empty {
                arf.mark_empty(lo, hi);
            }
        }
        use beyond_bloom::core::RangeFilter;
        for &k in &keys {
            prop_assert!(arf.may_contain(k), "ARF hid key {:#x}", k);
        }
    }

    /// Cascade filter: flushes and merges never lose fingerprints.
    #[test]
    fn cascade_never_loses_keys(
        keys in prop::collection::btree_set(any::<u64>(), 1..800),
        buffer in 16usize..64,
    ) {
        let mut f = beyond_bloom::lsm::CascadeFilter::new(buffer, 40);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// AtomicBitVec behaves exactly like BitVec under any sequence of
    /// single-threaded set operations (the concurrent semantics are
    /// this serial behaviour plus commutativity of fetch_or).
    #[test]
    fn atomic_bitvec_matches_bitvec(
        len in 1usize..700,
        ops in prop::collection::vec(0usize..700, 0..300),
    ) {
        use beyond_bloom::core::AtomicBitVec;
        let atomic = AtomicBitVec::new(len);
        let mut model = BitVec::new(len);
        for i in ops {
            let i = i % len;
            let was_set = model.get(i);
            model.set(i);
            // test_and_set reports the prior value exactly.
            prop_assert_eq!(atomic.test_and_set(i), was_set);
        }
        for i in 0..len {
            prop_assert_eq!(atomic.get(i), model.get(i));
        }
        prop_assert_eq!(atomic.count_ones(), model.count_ones());
        // Snapshot and round-trip conversions agree word-for-word.
        let snap = atomic.snapshot();
        for i in 0..len {
            prop_assert_eq!(snap.get(i), model.get(i));
        }
        let back = AtomicBitVec::from(&model);
        prop_assert_eq!(back.count_ones(), model.count_ones());
    }

    /// A one-shard Sharded<F> is observationally identical to its
    /// inner filter: same membership answers (including false
    /// positives), same len, under any op sequence.
    #[test]
    fn sharded_single_shard_matches_inner(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        probes in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        use beyond_bloom::concurrent::Sharded;
        let sharded: Sharded<beyond_bloom::bloom::BloomFilter> =
            Sharded::new(0, |_| beyond_bloom::bloom::BloomFilter::with_seed(512, 0.02, 99));
        let mut inner = beyond_bloom::bloom::BloomFilter::with_seed(512, 0.02, 99);
        for &k in &keys {
            sharded.insert(k).unwrap();
            inner.insert(k).unwrap();
        }
        prop_assert_eq!(sharded.len(), inner.len());
        for &p in keys.iter().chain(&probes) {
            prop_assert_eq!(sharded.contains(p), inner.contains(p));
        }
    }

    /// Sharded<CQF> applied serially matches a multiset model, and
    /// the batch API matches pointwise application key-for-key.
    #[test]
    fn sharded_cqf_serial_matches_model(
        ops in prop::collection::vec((0u64..128, 1u64..6), 1..200),
        probes in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        use beyond_bloom::concurrent::Sharded;
        use beyond_bloom::quotient::CountingQuotientFilter;
        let build = || -> Sharded<CountingQuotientFilter> {
            Sharded::new(2, |i| {
                let mut f = CountingQuotientFilter::with_seed(8, 10, 0x5eed ^ i as u64);
                f.set_auto_expand(true);
                f
            })
        };
        let pointwise = build();
        let batched = build();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut flat = Vec::new();
        for &(k, c) in &ops {
            pointwise.insert_count(k, c).unwrap();
            *model.entry(k).or_insert(0) += c;
            for _ in 0..c {
                flat.push(k);
            }
        }
        batched.insert_batch(&flat).unwrap();
        for (&k, &c) in &model {
            prop_assert!(pointwise.count(k) >= c, "undercount for {}", k);
            prop_assert_eq!(pointwise.count(k), batched.count(k));
        }
        for &p in &probes {
            prop_assert_eq!(pointwise.contains(p), batched.contains(p));
        }
    }

    /// Every filter overriding the batched probe kernel answers
    /// `contains_many` exactly as pointwise `contains`, across the
    /// chunk-boundary batch sizes (0, 1, 31, 32, 33, 65) where
    /// remainder-chunk handling could go wrong.
    #[test]
    fn batched_kernels_match_pointwise(
        keys in prop::collection::btree_set(any::<u64>(), 1..300),
        extra in prop::collection::vec(any::<u64>(), 65..66),
        n_idx in 0usize..BATCH_SIZES.len(),
    ) {
        let n = BATCH_SIZES[n_idx];
        let keys: Vec<u64> = keys.into_iter().collect();
        // Probe a mix of members and arbitrary keys, truncated to a
        // chunk-boundary length (members first so small batches still
        // exercise the positive path).
        let mut probes: Vec<u64> = keys.iter().copied().chain(extra).collect();
        probes.truncate(n);

        let cap = keys.len().max(8);
        let mut bloom = beyond_bloom::bloom::BloomFilter::with_seed(cap, 0.02, 7);
        let mut blocked = beyond_bloom::bloom::BlockedBloomFilter::with_seed(cap, 0.02, 7);
        let mut register = beyond_bloom::bloom::RegisterBlockedBloomFilter::with_seed(cap, 0.02, 7);
        let mut two_choice =
            beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::with_seed(cap, 0.02, 7);
        let atomic = beyond_bloom::bloom::AtomicBlockedBloomFilter::with_seed(cap, 0.02, 7);
        let mut counting = beyond_bloom::bloom::CountingBloomFilter::with_seed(cap, 0.02, 4, 7);
        let mut spectral = beyond_bloom::bloom::SpectralBloomFilter::with_seed(cap, 0.02, 3, 7);
        // Small initial stage so the chain actually grows mid-test.
        let mut scalable =
            beyond_bloom::bloom::ScalableBloomFilter::with_params(32, 0.02, 2, 0.5, 7);
        let mut cuckoo = beyond_bloom::cuckoo::CuckooFilter::new(2 * cap, 12);
        let mut cqf = beyond_bloom::quotient::CountingQuotientFilter::for_capacity(cap, 0.01);
        cqf.set_auto_expand(true);
        for &k in &keys {
            bloom.insert(k).unwrap();
            blocked.insert(k).unwrap();
            register.insert(k).unwrap();
            two_choice.insert(k).unwrap();
            atomic.insert(k);
            counting.insert(k).unwrap();
            spectral.insert(k).unwrap();
            scalable.insert(k).unwrap();
            cuckoo.insert(k).unwrap();
            cqf.insert(k).unwrap();
        }
        let xor = beyond_bloom::xorf::XorFilter::build(&keys, 8).unwrap();
        use beyond_bloom::xorf::{BinaryFuseFilter, FuseArity};
        let fuse3 = BinaryFuseFilter::build(&keys, FuseArity::Three, 8).unwrap();
        let fuse4 = BinaryFuseFilter::build(&keys, FuseArity::Four, 8).unwrap();

        batched_matches_pointwise("bloom", &bloom, &probes);
        batched_matches_pointwise("blocked", &blocked, &probes);
        batched_matches_pointwise("register-blocked", &register, &probes);
        batched_matches_pointwise("two-choice", &two_choice, &probes);
        batched_matches_pointwise("atomic-blocked", &atomic, &probes);
        batched_matches_pointwise("counting", &counting, &probes);
        batched_matches_pointwise("spectral", &spectral, &probes);
        batched_matches_pointwise("scalable", &scalable, &probes);
        batched_matches_pointwise("cuckoo", &cuckoo, &probes);
        batched_matches_pointwise("cqf", &cqf, &probes);
        batched_matches_pointwise("xor", &xor, &probes);
        batched_matches_pointwise("fuse3", &fuse3, &probes);
        batched_matches_pointwise("fuse4", &fuse4, &probes);
    }

    /// Binary fuse construction: every inserted key probes true, for
    /// both arities and both common fingerprint widths, on arbitrary
    /// key sets.
    #[test]
    fn fuse_members_always_probe_true(
        keys in prop::collection::btree_set(any::<u64>(), 0..600),
        arity4 in any::<bool>(),
        wide_fp in any::<bool>(),
    ) {
        use beyond_bloom::xorf::{BinaryFuseFilter, FuseArity};
        let keys: Vec<u64> = keys.into_iter().collect();
        let arity = if arity4 { FuseArity::Four } else { FuseArity::Three };
        let fp_bits = if wide_fp { 16 } else { 8 };
        let f = BinaryFuseFilter::build(&keys, arity, fp_bits)
            .expect("construction within seed budget");
        prop_assert_eq!(f.len(), keys.len());
        for &k in &keys {
            prop_assert!(f.contains(k), "fuse {:?}/{} lost {:#x}", arity, fp_bits, k);
        }
    }

    /// `Sharded` batch membership restitches per-shard answers into
    /// input order: position `i` of the result always answers key `i`,
    /// including duplicated keys and empty shards.
    #[test]
    fn sharded_batch_preserves_input_order(
        keys in prop::collection::vec(any::<u64>(), 0..300),
        probes in prop::collection::vec(any::<u64>(), 0..150),
        n_idx in 0usize..BATCH_SIZES.len(),
    ) {
        let n = BATCH_SIZES[n_idx];
        use beyond_bloom::concurrent::Sharded;
        let sharded: Sharded<beyond_bloom::bloom::BloomFilter> =
            Sharded::new(3, |i| beyond_bloom::bloom::BloomFilter::with_seed(512, 0.02, i as u64));
        for &k in &keys {
            sharded.insert(k).unwrap();
        }
        // Duplicates land in the same shard; interleave them anyway.
        let mut mixed: Vec<u64> = probes;
        mixed.extend(keys.iter().take(40));
        mixed.truncate(n);
        let got = sharded.contains_batch(&mixed);
        let want: Vec<bool> = mixed.iter().map(|&k| sharded.contains(k)).collect();
        prop_assert_eq!(got, want);
        batched_matches_pointwise("sharded-bloom", &sharded, &mixed);
    }

    /// Batched inserts leave every served backend exactly as pointwise
    /// inserts of the same keys in the same order would: one seed per
    /// `build_*` constructor, batches of every chunk-boundary size.
    /// The shards are small, so keys share cuckoo buckets and
    /// two-choice pairs, where the order a shard sees its keys decides
    /// slot order and placement.
    #[test]
    fn batched_inserts_match_pointwise(
        keys in prop::collection::btree_set(any::<u64>(), 0..300),
        probes in prop::collection::vec(any::<u64>(), 0..200),
        n_idx in 0usize..BATCH_SIZES.len(),
    ) {
        use beyond_bloom::service::{
            build_atomic_bloom, build_compacting, build_sharded_cqf, build_sharded_cuckoo,
            build_sharded_register_bloom, build_sharded_two_choice, ServedFilter,
        };
        const CAP: u64 = 512;
        const EPS: f64 = 0.01;
        const SHARD_BITS: u32 = 2;
        const SEED: u64 = 0x1b5e;
        let n = BATCH_SIZES[n_idx];
        let keys: Vec<u64> = keys.into_iter().collect();
        let batches = split_batches(&keys, n);

        // The five deterministic backends snapshot to the same bytes.
        same_snapshot_after_inserts(
            "atomic-bloom",
            || build_atomic_bloom(CAP, EPS, SEED),
            |f, k| f.insert(k),
            |f, b| f.insert_batch(b),
            |f| ServedFilter::Bloom(f).snapshot_bytes(),
            &batches,
        );
        same_snapshot_after_inserts(
            "sharded-cuckoo",
            || build_sharded_cuckoo(CAP, EPS, SHARD_BITS, SEED),
            |f, k| f.insert(k).unwrap(),
            |f, b| f.insert_batch(b).unwrap(),
            |f| ServedFilter::Cuckoo(f).snapshot_bytes(),
            &batches,
        );
        same_snapshot_after_inserts(
            "sharded-cqf",
            || build_sharded_cqf(CAP, EPS, SHARD_BITS, SEED),
            |f, k| f.insert(k).unwrap(),
            |f, b| f.insert_batch(b).unwrap(),
            |f| ServedFilter::Cqf(f).snapshot_bytes(),
            &batches,
        );
        same_snapshot_after_inserts(
            "register-bloom",
            || build_sharded_register_bloom(CAP, EPS, SHARD_BITS, SEED),
            |f, k| f.insert(k).unwrap(),
            |f, b| f.insert_batch(b).unwrap(),
            |f| ServedFilter::RegisterBloom(f).snapshot_bytes(),
            &batches,
        );
        same_snapshot_after_inserts(
            "two-choice-bloom",
            || build_sharded_two_choice(CAP, EPS, SHARD_BITS, SEED),
            |f, k| f.insert(k).unwrap(),
            |f, b| f.insert_batch(b).unwrap(),
            |f| ServedFilter::TwoChoice(f).snapshot_bytes(),
            &batches,
        );

        // Compacting: a key stream past two fronts (1024 keys each at
        // this capacity), so batches straddle `front_capacity`.
        let stream: Vec<u64> = keys
            .iter()
            .copied()
            .chain(beyond_bloom::workloads::unique_keys(0xc0a1, 2_200))
            .collect();
        let point = build_compacting(CAP, EPS, SEED);
        let batched = build_compacting(CAP, EPS, SEED);
        for &k in &stream {
            point.insert(k);
        }
        for b in split_batches(&stream, n) {
            batched.insert_batch(b);
        }
        // Fronts seal inline, so equal seal counts and equal keys left
        // in the live front mean the batched path sealed at the same
        // key counts.
        let (ps, bs) = (point.stats(), batched.stats());
        prop_assert_eq!((ps.seals, ps.front_keys), (bs.seals, bs.front_keys));
        point.compact_all();
        batched.compact_all();
        prop_assert_eq!(point.len(), batched.len());
        for &k in &stream {
            prop_assert!(point.contains(k) && batched.contains(k), "compacting lost {:#x}", k);
        }
        // Tier seeds follow an epoch that background compactions also
        // advance, at run-dependent times. When both filters went
        // through the same number of seals and compactions, their one
        // tier holds the same keys under the same seed, so even the
        // false positives must agree.
        if point.stats() == batched.stats() {
            for &p in &probes {
                prop_assert_eq!(point.contains(p), batched.contains(p), "probe {:#x}", p);
            }
        }
    }

    /// The dyadic-hierarchy range filters agree with ground truth on
    /// non-empty ranges under arbitrary key sets.
    #[test]
    fn rosetta_rencoder_no_false_negatives(
        keys in prop::collection::btree_set(any::<u64>(), 1..150),
        widths in prop::collection::vec(0u64..1 << 16, 1..20),
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut rosetta = beyond_bloom::rangefilter::Rosetta::new(keys.len(), 0.05, 17);
        let mut rencoder = beyond_bloom::rangefilter::REncoder::new(keys.len(), 17, 72.0);
        for &k in &keys {
            rosetta.insert(k);
            rencoder.insert(k);
        }
        use beyond_bloom::core::RangeFilter;
        for (i, w) in widths.iter().enumerate() {
            let k = keys[i % keys.len()];
            let lo = k.saturating_sub(w / 2);
            let hi = k.saturating_add(w / 2);
            prop_assert!(rosetta.may_contain_range(lo, hi));
            prop_assert!(rencoder.may_contain_range(lo, hi));
        }
    }
}

/// Batch sizes straddling the probe-chunk boundary (`PROBE_CHUNK` is
/// 32): empty, singleton, one-under, exact, one-over, two chunks + 1.
const BATCH_SIZES: [usize; 6] = [0, 1, 31, 32, 33, 65];

/// `keys` cut into batches of `n`; `n == 0` stands for an empty batch
/// followed by all of `keys` in one.
fn split_batches(keys: &[u64], n: usize) -> Vec<&[u64]> {
    if n == 0 {
        vec![&[], keys]
    } else {
        keys.chunks(n).collect()
    }
}

/// Build two instances, insert `batches` into one key by key and into
/// the other batch by batch, and check they serialize identically.
fn same_snapshot_after_inserts<F>(
    label: &str,
    build: impl Fn() -> F,
    insert: impl Fn(&F, u64),
    insert_batch: impl Fn(&F, &[u64]),
    snapshot: impl Fn(F) -> Vec<u8>,
    batches: &[&[u64]],
) {
    let (point, batched) = (build(), build());
    for &k in batches.iter().copied().flatten() {
        insert(&point, k);
    }
    for &b in batches {
        insert_batch(&batched, b);
    }
    assert!(
        snapshot(point) == snapshot(batched),
        "{label}: batched inserts left a different filter than pointwise inserts"
    );
}

/// Fuse construction succeeds within the seed budget at every awkward
/// size: degenerate (0/1/2) and the power-of-two ± 1 neighbourhood
/// where segment sizing is most brittle, for both arities.
#[test]
fn fuse_builds_at_degenerate_and_power_of_two_sizes() {
    use beyond_bloom::xorf::{BinaryFuseFilter, FuseArity};
    let mut sizes = vec![0usize, 1, 2];
    for log2 in [4u32, 8, 12, 16] {
        let p = 1usize << log2;
        sizes.extend([p - 1, p, p + 1]);
    }
    for &n in &sizes {
        let keys = beyond_bloom::workloads::unique_keys(0xf05e + n as u64, n);
        for arity in [FuseArity::Three, FuseArity::Four] {
            let f = BinaryFuseFilter::build(&keys, arity, 8)
                .unwrap_or_else(|e| panic!("n={n} {arity:?}: {e:?}"));
            assert_eq!(f.len(), n);
            assert!(keys.iter().all(|&k| f.contains(k)), "n={n} {arity:?}: FN");
        }
    }
}

/// Check that a filter's batched membership paths (`contains_many` and
/// the allocating `contains_batch`) agree bit-for-bit with pointwise
/// `contains` — false positives included.
fn batched_matches_pointwise<F: beyond_bloom::core::BatchedFilter>(
    label: &str,
    f: &F,
    probes: &[u64],
) {
    let mut got = vec![false; probes.len()];
    f.contains_many(probes, &mut got);
    let want: Vec<bool> = probes.iter().map(|&k| f.contains(k)).collect();
    assert_eq!(
        got, want,
        "{label}: contains_many diverges from scalar contains"
    );
    assert_eq!(
        f.contains_batch(probes),
        want,
        "{label}: contains_batch diverges from scalar contains"
    );
}

// ===============================================================
// Bloofi index vs flat-scan oracle (over the wire)
// ===============================================================

proptest! {
    // Each case boots a real server, so fewer cases than the
    // in-process suites above — the op interleavings inside a case do
    // the exploring.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random CREATE/INSERT/FORGET interleavings over mixed backends:
    /// MULTI_CONTAINS (Bloofi scan + filter confirmation) must name
    /// every filter that truly holds a key (zero false negatives),
    /// and may name a filter only when that filter itself answers
    /// positive (false positives only where a leaf false-positives).
    /// The compacting backend is excluded: its false-positive answers
    /// shift with background compaction timing, which would race the
    /// oracle re-probe.
    #[test]
    fn bloofi_matches_flat_scan(
        ops in prop::collection::vec(
            (0u8..8, 0usize..5, prop::collection::vec(any::<u64>(), 1..24)),
            1..40,
        ),
        probes in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        use beyond_bloom::service::{Backend, EventedFilterServer, FilterClient, ServerConfig};
        let backends = [
            Backend::AtomicBloom,
            Backend::ShardedCuckoo,
            Backend::ShardedCqf,
            Backend::RegisterBloom,
            Backend::TwoChoiceBloom,
        ];
        let server = EventedFilterServer::bind("127.0.0.1:0", ServerConfig::default())
            .expect("bind ephemeral");
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        let mut model: HashMap<String, BTreeSet<u64>> = HashMap::new();
        for (kind, slot, keys) in ops {
            let name = format!("pf-{slot}");
            let create = |c: &mut FilterClient| {
                c.create(&name, backends[slot], 4_096, 0.01, 2, slot as u64)
            };
            match kind {
                // FORGET when the filter exists (tree node removal).
                0 => {
                    if model.remove(&name).is_some() {
                        c.forget(&name).unwrap();
                    }
                }
                // Bare CREATE (empty tracked leaf).
                1 | 2 => {
                    if let std::collections::hash_map::Entry::Vacant(e) =
                        model.entry(name.clone())
                    {
                        create(&mut c).unwrap();
                        e.insert(BTreeSet::new());
                    }
                }
                // INSERT a batch, creating on demand so inserts
                // dominate the interleaving. Keys already present are
                // skipped: the model then matches the filter exactly,
                // and no backend sees pathological duplicate floods.
                _ => {
                    if !model.contains_key(&name) {
                        create(&mut c).unwrap();
                        model.insert(name.clone(), BTreeSet::new());
                    }
                    let inserted = model.get_mut(&name).unwrap();
                    let fresh: Vec<u64> =
                        keys.iter().copied().filter(|k| inserted.insert(*k)).collect();
                    if !fresh.is_empty() {
                        c.insert(&name, &fresh).unwrap();
                    }
                }
            }
        }
        // Probe every key ever inserted (the no-false-negative side)
        // plus random keys (the false-positive side).
        let mut all_probes: Vec<u64> = model.values().flatten().copied().collect();
        all_probes.extend(&probes);
        all_probes.sort_unstable();
        all_probes.dedup();
        let lists = c.multi_contains(&all_probes).unwrap();
        prop_assert_eq!(lists.len(), all_probes.len());
        // Flat-scan oracle: each surviving filter answers pointwise.
        let mut flat: HashMap<String, Vec<bool>> = HashMap::new();
        for name in model.keys() {
            flat.insert(name.clone(), c.contains(name, &all_probes).unwrap());
        }
        for (i, (&key, names)) in all_probes.iter().zip(&lists).enumerate() {
            for (name, inserted) in &model {
                if inserted.contains(&key) {
                    prop_assert!(
                        names.contains(name),
                        "false negative: {} holds {} but MULTI_CONTAINS omitted it",
                        name,
                        key
                    );
                }
            }
            for name in names {
                prop_assert_eq!(
                    flat.get(name).map(|b| b[i]),
                    Some(true),
                    "{} reported for {} without the filter confirming",
                    name,
                    key
                );
            }
        }
        drop(c);
        server.shutdown();
    }
}

// ===============================================================
// Bloofi candidates vs a per-tenant summary model (in-process)
// ===============================================================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Drive `BloofiIndex` directly with random CREATE, INSERT, FORGET
    /// and saturate calls: `base` CREATEs first grow the matrix past
    /// 64 (and often 128) tenants after `t0`'s column has been filled,
    /// so a growth that left stale words would surface in the new
    /// slots; then FORGETs free slots that later CREATEs reuse. For
    /// every key ever inserted (a sample of `t0`'s) plus random probes,
    /// the index's candidate set must *equal* the tenants whose naive
    /// 64-block summary covers the key (same seed, same
    /// `block_mask_256`), plus every saturated tenant.
    #[test]
    fn bloofi_candidates_equal_covering_tenants(
        base in 65usize..200,
        ops in prop::collection::vec(
            (0u8..8, 0usize..200, prop::collection::vec(any::<u64>(), 0..6)),
            1..300,
        ),
        probes in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        use beyond_bloom::bloofi::{BloofiIndex, BLOCKS, SEED};
        use beyond_bloom::core::{simd, Hasher};
        use std::collections::BTreeMap;

        struct Summary {
            blocks: Vec<[u64; 4]>,
            saturated: bool,
        }
        let locate = |key: u64| {
            let (h1, h2) = Hasher::with_seed(SEED).hash_pair(&key);
            ((h1 % BLOCKS as u64) as usize, simd::block_mask_256(h2 as u32))
        };
        let mut idx = BloofiIndex::new();
        let mut model: BTreeMap<String, Summary> = BTreeMap::new();
        let mut inserted: Vec<u64> = Vec::new();
        let create = |idx: &mut BloofiIndex, model: &mut BTreeMap<String, Summary>, name: &str| {
            if !model.contains_key(name) {
                assert!(idx.add_filter(name, ()));
                model.insert(name.to_string(), Summary {
                    blocks: vec![[0; 4]; BLOCKS],
                    saturated: false,
                });
            } else {
                assert!(!idx.add_filter(name, ()), "duplicate CREATE rejected");
            }
        };
        let insert = |idx: &BloofiIndex,
                      model: &mut BTreeMap<String, Summary>,
                      name: &str,
                      keys: &[u64]| {
            assert!(idx.insert_keys(name, keys).is_some());
            let summary = model.get_mut(name).unwrap();
            for &k in keys {
                let (b, mask) = locate(k);
                for (w, m) in summary.blocks[b].iter_mut().zip(mask) {
                    *w |= m;
                }
            }
        };
        create(&mut idx, &mut model, "t0");
        let dense: Vec<u64> =
            (0..20_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        insert(&idx, &mut model, "t0", &dense);
        inserted.extend(&dense[..64]);
        for t in 1..base {
            create(&mut idx, &mut model, &format!("t{t}"));
        }
        for (kind, t, keys) in ops {
            let name = format!("t{t}");
            match kind {
                0 | 1 => {
                    prop_assert_eq!(
                        idx.remove_filter(&name).is_some(),
                        model.remove(&name).is_some()
                    );
                }
                2 => {
                    let known = model.get_mut(&name).map(|s| s.saturated = true).is_some();
                    prop_assert_eq!(idx.saturate_filter(&name), known);
                }
                3 => create(&mut idx, &mut model, &name),
                _ => {
                    create(&mut idx, &mut model, &name);
                    insert(&idx, &mut model, &name, &keys);
                    inserted.extend(&keys);
                }
            }
        }
        prop_assert_eq!(idx.len(), model.len());
        prop_assert_eq!(
            idx.saturated_len(),
            model.values().filter(|s| s.saturated).count()
        );
        let mut all_probes = inserted;
        all_probes.extend(&probes);
        let mut candidates = Vec::new();
        for chunk in all_probes.chunks(32) {
            idx.multi_contains_chunk(chunk, &mut candidates);
            for (&key, ids) in chunk.iter().zip(&candidates) {
                let mut got: Vec<&str> = ids.iter().map(|&id| idx.tenant(id).0).collect();
                got.sort_unstable();
                let (b, mask) = locate(key);
                let want: Vec<&str> = model
                    .iter()
                    .filter(|(_, s)| {
                        s.saturated || s.blocks[b].iter().zip(&mask).all(|(w, m)| w & m == *m)
                    })
                    .map(|(name, _)| name.as_str())
                    .collect();
                prop_assert_eq!(got, want, "candidates for key {}", key);
            }
        }
    }
}
