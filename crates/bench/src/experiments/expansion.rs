//! E4 (plain QF doubling degrades), E5 (chained filters' query cost),
//! E6 (InfiniFilter expands with stable FPR and deletes).

use crate::harness::header;
use crate::measure_fpr;
use filter_core::{Expandable, Filter, InsertFilter};
use workloads::{disjoint_keys, unique_keys};

/// E4: doubling a quotient filter sacrifices a remainder bit per
/// expansion → FPR doubles each time, then expansion is exhausted.
pub fn e4_qf_expand() -> bool {
    header(
        "E4: plain quotient-filter doubling (start 2^12 slots, r=10)",
        "fingerprints shrink as the filter doubles; FPR doubles per \
         expansion; eventually the bits run out and expansion fails",
    );
    let mut f = quotient::QuotientFilter::new(12, 10);
    f.set_auto_expand(true);
    let keys = unique_keys(10, 600_000);
    let probes = disjoint_keys(11, 50_000, &keys);
    let mut inserted = 0usize;
    println!(
        "{:>10} {:>6} {:>4} {:>12} {:>12}",
        "inserted", "exp", "r", "measured fpr", "expected fpr"
    );
    let mut last_reported = 0u32;
    let report = |f: &quotient::QuotientFilter, inserted: usize| {
        let fpr = measure_fpr(&probes, |k| f.contains(k));
        println!(
            "{:>10} {:>6} {:>4} {:>12.6} {:>12.6}",
            inserted,
            f.expansions(),
            f.remainder_bits(),
            fpr,
            f.expected_fpr()
        );
    };
    for &k in &keys {
        match f.insert(k) {
            Ok(()) => inserted += 1,
            Err(e) => {
                println!("insert failed after {inserted} keys: {e}");
                break;
            }
        }
        if f.expansions() != last_reported {
            last_reported = f.expansions();
            report(&f, inserted);
        }
    }
    println!(
        "expansion exhausted at r = {} after {} expansions",
        f.remainder_bits(),
        f.expansions()
    );
    true
}

/// E5: chained (scalable Bloom) filters answer every negative query by
/// probing every stage.
pub fn e5_chain() -> bool {
    header(
        "E5: chained-filter expansion (scalable Bloom)",
        "query cost grows with chain length: all filters along the \
         chain are potentially searched",
    );
    let mut f = bloom::ScalableBloomFilter::new(4_096, 0.01);
    let keys = unique_keys(12, 500_000);
    let probes = disjoint_keys(13, 20_000, &keys);
    println!(
        "{:>10} {:>8} {:>16} {:>12}",
        "inserted", "stages", "neg probe cost", "fpr"
    );
    for (i, &k) in keys.iter().enumerate() {
        f.insert(k).unwrap();
        if (i + 1) % 100_000 == 0 {
            let fpr = measure_fpr(&probes, |k| f.contains(k));
            println!(
                "{:>10} {:>8} {:>16} {:>12.5}",
                i + 1,
                f.stages(),
                f.probe_cost(),
                fpr
            );
        }
    }
    true
}

/// E6: InfiniFilter keeps FPR and space stable across indefinite
/// expansion, with delete support.
pub fn e6_infini() -> bool {
    header(
        "E6: InfiniFilter expansion (start 2^10 slots, r=14)",
        "expands indefinitely with stable FPR (slow logarithmic drift) \
         and supports deletes — vs E4's doubling blow-up",
    );
    let mut f = infini::InfiniFilter::new(10, 14);
    let keys = unique_keys(14, 500_000);
    let probes = disjoint_keys(15, 50_000, &keys);
    println!(
        "{:>10} {:>6} {:>12} {:>12} {:>8}",
        "inserted", "exp", "fpr", "bits/key", "voids"
    );
    for (i, &k) in keys.iter().enumerate() {
        f.insert(k).unwrap();
        if (i + 1) % 100_000 == 0 {
            let fpr = measure_fpr(&probes, |k| f.contains(k));
            println!(
                "{:>10} {:>6} {:>12.6} {:>12.2} {:>8}",
                i + 1,
                f.expansions(),
                fpr,
                f.bits_per_key(),
                f.void_entries()
            );
        }
    }
    // Delete half and confirm the rest survive.
    use filter_core::DynamicFilter;
    for &k in &keys[..250_000] {
        f.remove(k).unwrap();
    }
    let survivors = keys[250_000..260_000]
        .iter()
        .filter(|&&k| f.contains(k))
        .count();
    println!("after deleting 250k: 10k sampled survivors present = {survivors}/10000");

    // Taffy cuckoo (the same variable-length-fingerprint idea, no
    // deletes, bounded universe).
    let mut t = infini::TaffyCuckooFilter::new(10, 14);
    println!("taffy cuckoo from 2^10 buckets:");
    println!(
        "{:>10} {:>6} {:>12} {:>12}",
        "inserted", "exp", "fpr", "bits/key"
    );
    for (i, &k) in keys.iter().enumerate() {
        t.insert(k).unwrap();
        if (i + 1) % 125_000 == 0 {
            let fpr = measure_fpr(&probes, |k| t.contains(k));
            println!(
                "{:>10} {:>6} {:>12.6} {:>12.2}",
                i + 1,
                t.expansions(),
                fpr,
                t.bits_per_key()
            );
        }
    }

    // Hash-ring elastic filter: smooth growth, logarithmic ops (the
    // §2.2 criticism, measured as query latency vs size).
    println!("hash-ring elastic filter (query latency grows with ring size):");
    let mut ring = infini::RingFilter::new(4, 24);
    let mut i = 0usize;
    for &k in &keys {
        ring.insert(k).unwrap();
        i += 1;
        if i.is_multiple_of(125_000) {
            let t0 = std::time::Instant::now();
            let mut acc = 0usize;
            for &p in probes.iter().take(10_000) {
                acc += ring.contains(p) as usize;
            }
            let ns = t0.elapsed().as_nanos() as f64 / 10_000.0;
            println!(
                "  {:>8} keys, {:>7} buckets: {:>7.0} ns/query (acc {acc})",
                i,
                ring.buckets(),
                ns
            );
        }
    }
    true
}
