//! E8: maplet PRS/NRS table (§2.4).

use crate::harness::header;
use filter_core::Maplet;
use workloads::{disjoint_keys, unique_keys};

/// Measure (PRS, NRS) of a maplet.
fn prs_nrs(m: &dyn Maplet, pairs: &[(u64, u64)], neg: &[u64]) -> (f64, f64, f64) {
    let mut out = Vec::new();
    let mut pos_total = 0usize;
    let mut correct = 0usize;
    for &(k, v) in pairs {
        out.clear();
        pos_total += m.get(k, &mut out);
        if out.contains(&v) {
            correct += 1;
        }
    }
    let mut neg_total = 0usize;
    for &k in neg {
        out.clear();
        neg_total += m.get(k, &mut out);
    }
    (
        pos_total as f64 / pairs.len() as f64,
        neg_total as f64 / neg.len() as f64,
        correct as f64 / pairs.len() as f64,
    )
}

/// E8: PRS/NRS across maplet designs.
pub fn e8_maplet() -> bool {
    header(
        "E8: maplet result sizes (1M pairs, eps = 2^-8)",
        "Bloomier: PRS=1, NRS<=1 (static); QF/cuckoo maplets: \
         PRS=1+eps, NRS=eps (dynamic); SlimDB-style collision-free: \
         PRS=1 exactly",
    );
    const N: usize = 1_000_000;
    let keys = unique_keys(30, N);
    let pairs: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, (i as u64) & 0xffff))
        .collect();
    let neg = disjoint_keys(31, 200_000, &keys);
    let eps = 2f64.powi(-8);

    println!(
        "{:<24} {:>8} {:>8} {:>10} {:>10}",
        "maplet", "PRS", "NRS", "true-val%", "bits/key"
    );

    {
        let mut m = maplet::QuotientMaplet::for_capacity(N, eps, 16);
        for &(k, v) in &pairs {
            m.insert(k, v).unwrap();
        }
        let (prs, nrs, tv) = prs_nrs(&m, &pairs, &neg);
        println!(
            "{:<24} {:>8.4} {:>8.4} {:>9.2}% {:>10.1}",
            "quotient",
            prs,
            nrs,
            tv * 100.0,
            m.size_in_bytes() as f64 * 8.0 / N as f64
        );
    }
    {
        let mut m = maplet::CuckooMaplet::new(N, 11, 16);
        for &(k, v) in &pairs {
            m.insert(k, v).unwrap();
        }
        let (prs, nrs, tv) = prs_nrs(&m, &pairs, &neg);
        println!(
            "{:<24} {:>8.4} {:>8.4} {:>9.2}% {:>10.1}",
            "cuckoo",
            prs,
            nrs,
            tv * 100.0,
            m.size_in_bytes() as f64 * 8.0 / N as f64
        );
    }
    {
        let mut m = maplet::CollisionFreeMaplet::for_capacity(N, eps, 16);
        for &(k, v) in &pairs {
            m.insert(k, v).unwrap();
        }
        let (prs, nrs, tv) = prs_nrs(&m, &pairs, &neg);
        println!(
            "{:<24} {:>8.4} {:>8.4} {:>9.2}% {:>10.1}",
            "collision-free (SlimDB)",
            prs,
            nrs,
            tv * 100.0,
            m.size_in_bytes() as f64 * 8.0 / N as f64
        );
    }
    {
        let m = maplet::BloomierFilter::build(&pairs, 8, 16).unwrap();
        let mut pos_total = 0usize;
        let mut correct = 0usize;
        for &(k, v) in &pairs {
            if let Some(got) = m.get(k) {
                pos_total += 1;
                if got == v {
                    correct += 1;
                }
            }
        }
        let neg_total = neg.iter().filter(|&&k| m.get(k).is_some()).count();
        println!(
            "{:<24} {:>8.4} {:>8.4} {:>9.2}% {:>10.1}",
            "bloomier (static)",
            pos_total as f64 / pairs.len() as f64,
            neg_total as f64 / neg.len() as f64,
            correct as f64 / pairs.len() as f64 * 100.0,
            m.size_in_bytes() as f64 * 8.0 / N as f64
        );
    }
    true
}
