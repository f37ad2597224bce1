//! E10: range-filter robustness comparison (§2.5).

use crate::harness::header;
use filter_core::RangeFilter;
use rangefilter::{Grafite, Proteus, REncoder, Rosetta, Snarf, Surf};
use workloads::CorrelatedRangeWorkload;

const N: usize = 200_000;

fn fpr(f: &dyn RangeFilter, qs: &[workloads::RangeQuery]) -> f64 {
    qs.iter()
        .filter(|q| f.may_contain_range(q.lo, q.hi))
        .count() as f64
        / qs.len() as f64
}

/// E10: SuRF / Rosetta / SNARF / Grafite / Proteus under range-length
/// and correlation sweeps.
pub fn e10_range() -> bool {
    header(
        "E10: range filters (n = 200k keys, 64-bit universe)",
        "SuRF breaks under correlated queries; Rosetta robust for \
         short ranges, FPR grows with range length, CPU-heavy; \
         SNARF accurate uncorrelated but degrades under correlation; \
         Grafite robust at every correlation within its L budget",
    );
    let w = CorrelatedRangeWorkload::uniform(50, N, u64::MAX - 1);
    let surf = Surf::build(&w.keys, 8);
    let mut rosetta = Rosetta::new(N, 0.02, 17);
    for &k in &w.keys {
        rosetta.insert(k);
    }
    let snarf = Snarf::build(&w.keys, 12.0);
    let grafite = Grafite::build(&w.keys, 16, 0.01);
    let proteus = Proteus::train(&w.keys, &[256; 64], 0.01);
    let mut rencoder = REncoder::new(N, 17, 72.0);
    for &k in &w.keys {
        rencoder.insert(k);
    }
    let filters: Vec<(&str, &dyn RangeFilter)> = vec![
        ("surf", &surf),
        ("rosetta", &rosetta),
        ("rencoder", &rencoder),
        ("snarf", &snarf),
        ("grafite", &grafite),
        ("proteus", &proteus),
    ];

    println!("space (bits/key):");
    for (name, f) in &filters {
        println!(
            "  {:<10} {:>8.2}",
            name,
            f.size_in_bytes() as f64 * 8.0 / N as f64
        );
    }

    println!("\nFPR by range length (uncorrelated empty queries):");
    print!("{:<10}", "filter");
    let widths = [1u64, 16, 256, 4096, 65_536];
    for wdt in widths {
        print!(" {wdt:>10}");
    }
    println!();
    for (name, f) in &filters {
        print!("{name:<10}");
        for (i, &wdt) in widths.iter().enumerate() {
            let qs = w.empty_queries(60 + i as u64, 500, wdt, 0.0);
            print!(" {:>10.4}", fpr(*f, &qs));
        }
        println!();
    }

    println!("\nFPR by correlation (width-256 empty queries):");
    print!("{:<10}", "filter");
    for c in [0.0, 0.5, 1.0] {
        print!(" {c:>10}");
    }
    println!();
    for (name, f) in &filters {
        print!("{name:<10}");
        for (i, &c) in [0.0, 0.5, 1.0].iter().enumerate() {
            let qs = w.empty_queries(70 + i as u64, 500, 256, c);
            print!(" {:>10.4}", fpr(*f, &qs));
        }
        println!();
    }

    println!("\nquery CPU (us/query, width-256 uncorrelated):");
    let qs = w.empty_queries(80, 2_000, 256, 0.0);
    for (name, f) in &filters {
        let t0 = std::time::Instant::now();
        let mut acc = 0usize;
        for q in &qs {
            acc += f.may_contain_range(q.lo, q.hi) as usize;
        }
        let dt = t0.elapsed().as_secs_f64() * 1e6 / qs.len() as f64;
        println!("  {name:<10} {dt:>8.2} us  (positives: {acc})");
    }

    // Sanity: zero false negatives everywhere.
    let pos = w.nonempty_queries(81, 1_000, 256);
    for (name, f) in &filters {
        let fneg = pos
            .iter()
            .filter(|q| !f.may_contain_range(q.lo, q.hi))
            .count();
        assert_eq!(fneg, 0, "{name} produced false negatives");
    }
    println!("\nno false negatives across 1k non-empty queries per filter [ok]");
    true
}
