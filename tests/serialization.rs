//! Persistence round-trips: filters written beside immutable runs
//! must reload with identical behaviour.

mod common;

use beyond_bloom::core::{Filter, InsertFilter};
use beyond_bloom::workloads::{disjoint_keys, unique_keys};

#[test]
fn bloom_roundtrip() {
    let keys = unique_keys(950, 20_000);
    let mut f = beyond_bloom::bloom::BloomFilter::new(20_000, 0.01);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    let bytes = f.to_bytes();
    let g = beyond_bloom::bloom::BloomFilter::from_bytes(&bytes).unwrap();
    assert_eq!(g.len(), f.len());
    let probes = disjoint_keys(951, 20_000, &keys);
    for &k in keys.iter().chain(&probes) {
        assert_eq!(f.contains(k), g.contains(k), "behaviour diverged at {k}");
    }
}

#[test]
fn two_choice_bloom_roundtrip_and_corruption() {
    let keys = unique_keys(967, 20_000);
    let mut f = beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::with_seed(20_000, 0.01, 5);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    let bytes = f.to_bytes();
    let g = beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::from_bytes(&bytes).unwrap();
    assert_eq!(g.len(), f.len());
    let probes = disjoint_keys(968, 20_000, &keys);
    for &k in keys.iter().chain(&probes) {
        assert_eq!(f.contains(k), g.contains(k), "behaviour diverged at {k}");
    }
    // Truncations and a flipped magic must error, never panic.
    for cut in 0..bytes.len().min(64) {
        assert!(
            beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::from_bytes(&bytes[..cut]).is_err()
        );
    }
    let mut wrong = bytes.clone();
    wrong[0] ^= 0xff;
    assert!(beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::from_bytes(&wrong).is_err());
    // Cross-family confusion: one-choice register blobs are not
    // two-choice blobs and vice versa (distinct magics).
    let mut rb = beyond_bloom::bloom::RegisterBlockedBloomFilter::with_seed(20_000, 0.01, 5);
    for &k in &keys {
        rb.insert(k).unwrap();
    }
    assert!(beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::from_bytes(&rb.to_bytes()).is_err());
    assert!(beyond_bloom::bloom::RegisterBlockedBloomFilter::from_bytes(&bytes).is_err());
    // A block count (u64 at offset 4) with bit 62 set still matches
    // the stored word count once `blocks * 4` wraps; it must be
    // refused, not sized into an allocation.
    let wrap = |mut b: Vec<u8>| {
        b[11] |= 0x40;
        b
    };
    assert!(beyond_bloom::bloom::TwoChoiceRegisterBloomFilter::from_bytes(&wrap(bytes)).is_err());
    assert!(
        beyond_bloom::bloom::RegisterBlockedBloomFilter::from_bytes(&wrap(rb.to_bytes())).is_err()
    );
}

#[test]
fn xor_roundtrip() {
    let keys = unique_keys(952, 50_000);
    let f = beyond_bloom::xorf::XorFilter::build(&keys, 12).unwrap();
    let g = beyond_bloom::xorf::XorFilter::from_bytes(&f.to_bytes()).unwrap();
    let probes = disjoint_keys(953, 20_000, &keys);
    for &k in keys.iter().chain(&probes) {
        assert_eq!(f.contains(k), g.contains(k));
    }
    assert_eq!(f.size_in_bytes(), g.size_in_bytes());
}

#[test]
fn ribbon_roundtrip() {
    let keys = unique_keys(954, 50_000);
    let f = beyond_bloom::ribbon::RibbonFilter::build(&keys, 10).unwrap();
    let g = beyond_bloom::ribbon::RibbonFilter::from_bytes(&f.to_bytes()).unwrap();
    assert_eq!(g.segments(), f.segments());
    let probes = disjoint_keys(955, 20_000, &keys);
    for &k in keys.iter().chain(&probes) {
        assert_eq!(f.contains(k), g.contains(k));
    }
}

#[test]
fn corrupted_inputs_rejected_not_panicking() {
    let keys = unique_keys(956, 1_000);
    let f = beyond_bloom::xorf::XorFilter::build(&keys, 8).unwrap();
    let bytes = f.to_bytes();
    // Truncations at every prefix length must error, never panic.
    for cut in 0..bytes.len().min(64) {
        assert!(beyond_bloom::xorf::XorFilter::from_bytes(&bytes[..cut]).is_err());
    }
    // Wrong magic.
    let mut wrong = bytes.clone();
    wrong[0] ^= 0xff;
    assert!(beyond_bloom::xorf::XorFilter::from_bytes(&wrong).is_err());
    // Cross-family confusion: ribbon bytes are not a bloom.
    let rf = beyond_bloom::ribbon::RibbonFilter::build(&keys, 8).unwrap();
    assert!(beyond_bloom::bloom::BloomFilter::from_bytes(&rf.to_bytes()).is_err());
}

#[test]
fn fuse_roundtrip_both_arities() {
    use beyond_bloom::xorf::{BinaryFuseFilter, FuseArity};
    let keys = unique_keys(962, 50_000);
    let probes = disjoint_keys(963, 20_000, &keys);
    for arity in [FuseArity::Three, FuseArity::Four] {
        let f = BinaryFuseFilter::build(&keys, arity, 8).unwrap();
        let g = BinaryFuseFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.len(), f.len());
        assert_eq!(g.arity(), f.arity());
        assert_eq!(g.size_in_bytes(), f.size_in_bytes());
        for &k in keys.iter().chain(&probes) {
            assert_eq!(f.contains(k), g.contains(k), "{arity:?} diverged at {k}");
        }
    }
}

#[test]
fn fuse_corrupt_bytes_rejected() {
    use beyond_bloom::xorf::{BinaryFuseFilter, FuseArity};
    let keys = unique_keys(964, 2_000);
    let f = BinaryFuseFilter::build(&keys, FuseArity::Four, 8).unwrap();
    let bytes = f.to_bytes();
    for cut in 0..bytes.len().min(80) {
        assert!(BinaryFuseFilter::from_bytes(&bytes[..cut]).is_err());
    }
    let mut wrong = bytes.clone();
    wrong[0] ^= 0xff;
    assert!(BinaryFuseFilter::from_bytes(&wrong).is_err());
    // Cross-family confusion: xor bytes are not a fuse and vice versa.
    let xf = beyond_bloom::xorf::XorFilter::build(&keys, 8).unwrap();
    assert!(BinaryFuseFilter::from_bytes(&xf.to_bytes()).is_err());
    assert!(beyond_bloom::xorf::XorFilter::from_bytes(&bytes).is_err());
}

#[test]
fn compacting_roundtrip_mid_lifecycle() {
    use beyond_bloom::compacting::{CompactingConfig, CompactingFilter};
    let keys = unique_keys(965, 30_000);
    // Small front: the snapshot captures tiers + sealed fronts + a
    // partially filled live front.
    let f = CompactingFilter::new(CompactingConfig::new(1024, 1.0 / 256.0, 9));
    for &k in &keys {
        f.insert(k);
    }
    let g = CompactingFilter::from_bytes(&f.to_bytes()).unwrap();
    assert_eq!(g.len(), f.len());
    for &k in &keys {
        assert!(g.contains(k), "snapshot lost {k}");
    }
    // A restored filter keeps compacting normally.
    g.compact_all();
    assert!(keys.iter().all(|&k| g.contains(k)));
    assert_eq!(g.stats().tier_keys, keys.len());
}

#[test]
fn compacting_corrupt_bytes_rejected() {
    use beyond_bloom::compacting::{CompactingConfig, CompactingFilter};
    let keys = unique_keys(966, 5_000);
    let f = CompactingFilter::new(CompactingConfig::new(1024, 1.0 / 256.0, 9));
    for &k in &keys {
        f.insert(k);
    }
    f.flush();
    let bytes = f.to_bytes();
    for cut in 0..bytes.len().min(100) {
        assert!(CompactingFilter::from_bytes(&bytes[..cut]).is_err());
    }
    let mut wrong = bytes.clone();
    wrong[0] ^= 0xff;
    assert!(CompactingFilter::from_bytes(&wrong).is_err());
    // Forged size fields must be refused before they size an
    // allocation: a 2^40-key front (offset 4) and a ~1.7e9 tier count
    // (offset 28).
    let forge = |at: usize, field: &[u8]| {
        let mut b = bytes.clone();
        b[at..at + field.len()].copy_from_slice(field);
        b
    };
    assert!(CompactingFilter::from_bytes(&forge(4, &(1u64 << 40).to_le_bytes())).is_err());
    assert!(CompactingFilter::from_bytes(&forge(28, &0x6800_0000u32.to_le_bytes())).is_err());
    // The earlier layout, which also stored arity, merge policy, tier
    // cap and FPR allocation, is refused rather than misread: here a
    // well-formed one with no tiers and three loose keys.
    let mut old = beyond_bloom::core::ByteWriter::new();
    old.put_u32(0xc0ab_ac71);
    old.put_u32(4);
    old.put_u64(1024);
    old.put_f64(1.0 / 256.0);
    old.put_u64(9);
    old.put_u32(2);
    old.put_u64(8);
    old.put_u32(0);
    old.put_f64(1.0 / 256.0);
    old.put_f64(0.0);
    old.put_u32(0);
    old.put_u64_slice(&keys[..3]);
    assert!(CompactingFilter::from_bytes(&old.into_bytes()).is_err());
    // Cross-family confusion: a raw fuse blob is not a snapshot.
    let fuse =
        beyond_bloom::xorf::BinaryFuseFilter::build(&keys, beyond_bloom::xorf::FuseArity::Four, 8)
            .unwrap();
    assert!(CompactingFilter::from_bytes(&fuse.to_bytes()).is_err());
}

#[test]
fn cuckoo_roundtrip() {
    let keys = unique_keys(957, 30_000);
    let mut f = beyond_bloom::cuckoo::CuckooFilter::new(30_000, 14);
    for &k in &keys {
        f.insert(k).unwrap();
    }
    for &k in &keys[..500] {
        beyond_bloom::core::DynamicFilter::remove(&mut f, k).unwrap();
    }
    let g = beyond_bloom::cuckoo::CuckooFilter::from_bytes(&f.to_bytes()).unwrap();
    assert_eq!(g.len(), f.len());
    let probes = disjoint_keys(958, 20_000, &keys);
    for &k in keys.iter().chain(&probes) {
        assert_eq!(f.contains(k), g.contains(k), "behaviour diverged at {k}");
    }
}

#[test]
fn cqf_roundtrip_preserves_counts() {
    use beyond_bloom::core::CountingFilter;
    let keys = unique_keys(959, 5_000);
    let mut f = beyond_bloom::quotient::CountingQuotientFilter::for_capacity(30_000, 0.01);
    for (i, &k) in keys.iter().enumerate() {
        f.insert_count(k, 1 + (i as u64 % 7)).unwrap();
    }
    let g = beyond_bloom::quotient::CountingQuotientFilter::from_bytes(&f.to_bytes()).unwrap();
    assert_eq!(g.len(), f.len());
    assert_eq!(g.total_count(), f.total_count());
    let probes = disjoint_keys(960, 5_000, &keys);
    for &k in keys.iter().chain(&probes) {
        assert_eq!(f.count(k), g.count(k), "count diverged at {k}");
    }
}

#[test]
fn cuckoo_and_cqf_corrupt_bytes_rejected() {
    let keys = unique_keys(961, 2_000);
    let mut cf = beyond_bloom::cuckoo::CuckooFilter::new(2_000, 12);
    let mut qf = beyond_bloom::quotient::CountingQuotientFilter::for_capacity(2_000, 0.01);
    for &k in &keys {
        cf.insert(k).unwrap();
        qf.insert(k).unwrap();
    }
    for bytes in [cf.to_bytes(), qf.to_bytes()] {
        for cut in 0..bytes.len().min(80) {
            assert!(beyond_bloom::cuckoo::CuckooFilter::from_bytes(&bytes[..cut]).is_err());
            assert!(
                beyond_bloom::quotient::CountingQuotientFilter::from_bytes(&bytes[..cut]).is_err()
            );
        }
    }
    // Cross-family confusion in both directions.
    assert!(beyond_bloom::quotient::CountingQuotientFilter::from_bytes(&cf.to_bytes()).is_err());
    assert!(beyond_bloom::cuckoo::CuckooFilter::from_bytes(&qf.to_bytes()).is_err());
    // Forged geometry: 2^58 buckets of 4 16-bit slots claim 2^64 bits,
    // which wraps to the zero bits shipped; a CQF header claiming 2^40
    // home slots (u32 q at offset 4) would allocate them up front.
    let mut w = beyond_bloom::core::ByteWriter::new();
    w.put_u32(0xcc4f_f117);
    w.put_u64(1 << 58);
    w.put_u32(4);
    w.put_u32(16);
    for seed_items_kicks in [0, 0, 0] {
        w.put_u64(seed_items_kicks);
    }
    w.put_u64(1 << 60);
    w.put_u32(16);
    w.put_u64(0);
    w.put_u64_slice(&[]);
    assert!(beyond_bloom::cuckoo::CuckooFilter::from_bytes(&w.into_bytes()).is_err());
    let mut forged = qf.to_bytes();
    forged[4..8].copy_from_slice(&40u32.to_le_bytes());
    assert!(beyond_bloom::quotient::CountingQuotientFilter::from_bytes(&forged).is_err());
}

/// Hostile SNAPSHOT blobs through the engine: [`common::mutants`] of every
/// backend's snapshot, sent as blob-CREATEs through
/// `engine::dispatch`. Each must be refused with a `Filter` error, or
/// yield a filter that can be probed, counted, deleted from, listed
/// by STATS and METRICS, inserted into and forgotten: never a panic,
/// never an abort.
#[test]
fn mutated_snapshot_blobs_never_panic_the_engine() {
    use beyond_bloom::service::engine::{dispatch, Engine};
    use beyond_bloom::service::{Backend, ErrorCode, Request, Response, ServerConfig};
    use rand::SeedableRng;

    let engine = Engine::new(ServerConfig::default());
    let call = |req: Request| dispatch(&engine, &req.encode()).0;
    let keys = unique_keys(968, 2_000);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_b10b);
    for (i, backend) in Backend::ALL.into_iter().enumerate() {
        let source = format!("src-{i}");
        let create = |name: &str, blob: Vec<u8>| Request::Create {
            name: name.to_string(),
            backend,
            capacity: 2_000,
            eps: 0.01,
            shard_bits: 2,
            seed: i as u64,
            blob,
        };
        assert_eq!(call(create(&source, Vec::new())), Response::Ok);
        let fill = Request::Insert {
            name: source.clone(),
            keys: keys[..1_500].to_vec(),
        };
        assert_eq!(call(fill), Response::Ok);
        let Response::Blob { bytes, .. } = call(Request::Snapshot { name: source }) else {
            panic!("{backend:?}: SNAPSHOT failed");
        };
        for (m, blob) in common::mutants(&bytes, 400, &mut rng)
            .into_iter()
            .enumerate()
        {
            let name = format!("m-{i}-{m}");
            match call(create(&name, blob)) {
                Response::Ok => {
                    let probe = keys[..64].to_vec();
                    let fresh = keys[1_500..1_564].to_vec();
                    let _ = call(Request::Contains {
                        name: name.clone(),
                        keys: probe.clone(),
                    });
                    let _ = call(Request::Count {
                        name: name.clone(),
                        keys: probe.clone(),
                    });
                    let _ = call(Request::Delete {
                        name: name.clone(),
                        keys: probe.clone(),
                    });
                    let _ = call(Request::Stats);
                    let _ = call(Request::Metrics);
                    let _ = call(Request::Insert {
                        name: name.clone(),
                        keys: fresh,
                    });
                    let _ = call(Request::MultiContains { keys: probe });
                    assert_eq!(call(Request::Forget { name }), Response::Ok);
                }
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Filter, "{backend:?} mutant {m}")
                }
                other => panic!("{backend:?} mutant {m}: unexpected {other:?}"),
            }
        }
    }
}
