//! E11 (LSM I/O savings), E13 (computational biology), E14 (URL
//! yes/no lists).

use crate::harness::header;
use lsm::{
    CompactionPolicy, FilterKind, FprAllocation, IndexMode, LsmConfig, LsmTree, RangeFilterKind,
};
use netsec::{
    AdaptiveBlocker, BloomierBlocker, CascadingBloomBlocker, FpFreeBlocker, PlainBloomBlocker,
    UrlBlocker,
};
use workloads::dna;
use workloads::urls::UrlWorkload;

/// E11: per-lookup I/O in an LSM-tree across filter configurations.
pub fn e11_lsm() -> bool {
    header(
        "E11: LSM-tree point/range I/O (500k writes, 100k lookups)",
        "filters skip runs (~eps extra I/Os per lookup); Monkey cuts \
         O(eps*lgN) to O(eps); a global maplet replaces per-run \
         probes; range filters avoid empty-range I/O",
    );
    const WRITES: u64 = 500_000;
    const LOOKUPS: u64 = 100_000;

    let build = |filter_kind, allocation, index_mode, range_filter| {
        let mut t = LsmTree::new(LsmConfig {
            memtable_capacity: 8_192,
            size_ratio: 4,
            filter_kind,
            allocation,
            range_filter,
            index_mode,
            compaction: CompactionPolicy::Tiered,
            ..Default::default()
        });
        for i in 0..WRITES {
            t.put(filter_core::hash::mix64(i), i);
        }
        t.flush();
        t
    };

    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>12}",
        "config", "neg I/O", "pos I/O", "filter MiB", "runs"
    );
    let configs: Vec<(&str, FilterKind, FprAllocation, IndexMode)> = vec![
        (
            "no filters",
            FilterKind::None,
            FprAllocation::Uniform(0.01),
            IndexMode::PerRunFilters,
        ),
        (
            "bloom uniform e=1%",
            FilterKind::Bloom,
            FprAllocation::Uniform(0.01),
            IndexMode::PerRunFilters,
        ),
        // Matched-memory pair: at ~the same filter budget, Monkey's
        // size-proportional allocation pays ~base_eps I/Os total while
        // the uniform allocation pays ~eps x #runs.
        (
            "bloom uniform e=10%",
            FilterKind::Bloom,
            FprAllocation::Uniform(0.10),
            IndexMode::PerRunFilters,
        ),
        (
            "bloom monkey base=10%",
            FilterKind::Bloom,
            FprAllocation::Monkey {
                base_eps: 0.10,
                ratio: 4.0,
            },
            IndexMode::PerRunFilters,
        ),
        (
            "xor uniform e=1%",
            FilterKind::Xor,
            FprAllocation::Uniform(0.01),
            IndexMode::PerRunFilters,
        ),
        (
            "ribbon uniform e=1%",
            FilterKind::Ribbon,
            FprAllocation::Uniform(0.01),
            IndexMode::PerRunFilters,
        ),
        (
            "global maplet",
            FilterKind::None,
            FprAllocation::Uniform(0.01),
            IndexMode::GlobalMaplet,
        ),
    ];
    for (name, fk, alloc, mode) in configs {
        let t = build(fk, alloc, mode, RangeFilterKind::None);
        t.io().reset();
        for i in WRITES..WRITES + LOOKUPS {
            let _ = t.get(filter_core::hash::mix64(i));
        }
        let neg = t.io().reads();
        t.io().reset();
        for i in 0..LOOKUPS {
            assert!(t.get(filter_core::hash::mix64(i)).is_some());
        }
        let pos = t.io().reads();
        println!(
            "{:<28} {:>10.4} {:>10.4} {:>12.2} {:>12}",
            name,
            neg as f64 / LOOKUPS as f64,
            pos as f64 / LOOKUPS as f64,
            t.filter_bytes() as f64 / (1 << 20) as f64,
            t.run_count()
        );
    }

    // Range-scan experiment: sparse keys, empty gaps.
    println!("\nempty-range scans (20k scans into gaps):");
    for (name, rf, global) in [
        ("no range filter", RangeFilterKind::None, None),
        (
            "grafite per run",
            RangeFilterKind::Grafite {
                l_bits: 8,
                eps: 0.01,
            },
            None,
        ),
        (
            "global grafite (GRF-style)",
            RangeFilterKind::None,
            Some(lsm::GlobalRangeConfig {
                l_bits: 8,
                eps: 0.01,
            }),
        ),
    ] {
        let mut t = LsmTree::new(LsmConfig {
            memtable_capacity: 8_192,
            range_filter: rf,
            global_range_filter: global,
            ..Default::default()
        });
        for i in 0..200_000u64 {
            t.put(i * 1_000, i);
        }
        t.flush();
        t.io().reset();
        for i in 0..20_000u64 {
            let lo = i * 1_000 + 1;
            assert!(t.scan(lo, lo + 50).is_empty());
        }
        println!(
            "  {:<28} {:>10.4} I/Os per empty scan",
            name,
            t.io().reads() as f64 / 20_000.0
        );
    }
    true
}

/// E15: compaction policy trade-offs (§3.1: Dostoevsky / lazy
/// leveling reduce write amplification without harming filtered
/// lookup cost).
pub fn e15_compaction() -> bool {
    header(
        "E15: compaction policies (500k writes, bloom e=1% per run)",
        "leveling: few runs, high write-amp; tiering: cheap writes, \
         many runs; lazy leveling (Dostoevsky): write cost near \
         tiering while filters keep lookup cost near leveling",
    );
    const WRITES: u64 = 500_000;
    const LOOKUPS: u64 = 50_000;
    println!(
        "{:<14} {:>10} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "policy", "write-amp", "runs", "levels", "neg I/O", "pos I/O", "filter MiB"
    );
    for (name, policy) in [
        ("tiered", CompactionPolicy::Tiered),
        ("leveled", CompactionPolicy::Leveled),
        ("lazy-leveled", CompactionPolicy::LazyLeveled),
    ] {
        let mut t = LsmTree::new(LsmConfig {
            memtable_capacity: 4_096,
            size_ratio: 4,
            compaction: policy,
            ..Default::default()
        });
        for i in 0..WRITES {
            t.put(filter_core::hash::mix64(i), i);
        }
        t.flush();
        let wa = t.write_amplification(WRITES);
        t.io().reset();
        for i in WRITES..WRITES + LOOKUPS {
            let _ = t.get(filter_core::hash::mix64(i));
        }
        let neg = t.io().reads() as f64 / LOOKUPS as f64;
        t.io().reset();
        for i in 0..LOOKUPS {
            assert!(t.get(filter_core::hash::mix64(i)).is_some());
        }
        let pos = t.io().reads() as f64 / LOOKUPS as f64;
        println!(
            "{:<14} {:>10.2} {:>8} {:>8} {:>10.4} {:>10.4} {:>12.2}",
            name,
            wa,
            t.run_count(),
            t.level_count(),
            neg,
            pos,
            t.filter_bytes() as f64 / (1 << 20) as f64
        );
    }
    true
}

/// E16: scaling a filter out of RAM (§1 quotient-filter feature 1 —
/// the cascade-filter / "don't thrash" design).
pub fn e16_cascade() -> bool {
    header(
        "E16: filters beyond RAM (1M inserts, 4k-fingerprint buffer)",
        "a buffered cascade of storage-resident filter runs makes \
         insertion I/O amortized sequential, vs 1 random read+write \
         per insert for a single storage-resident filter",
    );
    let keys = workloads::unique_keys(120, 1_000_000);
    let mut f = lsm::CascadeFilter::new(4_096, 40);
    for &k in &keys {
        f.insert(k);
    }
    f.flush();
    let insert_writes = f.io().writes();
    f.io().reset();
    let neg = workloads::disjoint_keys(121, 50_000, &keys);
    let mut fp = 0usize;
    for &k in &neg {
        fp += f.contains(k) as usize;
    }
    let neg_reads = f.io().reads();
    f.io().reset();
    for &k in keys.iter().take(50_000) {
        assert!(f.contains(k));
    }
    let pos_reads = f.io().reads();
    println!(
        "cascade filter: {:.4} write I/Os per insert (naive storage-resident: 2.0)",
        insert_writes as f64 / keys.len() as f64
    );
    println!(
        "  lookups: {:.3} reads/negative, {:.3} reads/positive over {} runs",
        neg_reads as f64 / 50_000.0,
        pos_reads as f64 / 50_000.0,
        f.run_count()
    );
    println!(
        "  RAM footprint: {:.1} KiB for 1M keys; false positives {fp}/50k",
        f.ram_bytes() as f64 / 1024.0
    );
    true
}

/// E17: filter-accelerated equality joins (§3.1).
pub fn e17_join() -> bool {
    header(
        "E17: selective join pushdown (10k-row build side, 2M probes)",
        "checking the large table's join keys against a filter over \
         the smaller table preemptively discards non-matching rows, \
         shrinking the join input",
    );
    use rand::Rng;
    let small: std::collections::HashMap<u64, u64> = workloads::unique_keys(122, 10_000)
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u64))
        .collect();
    let small_keys: Vec<u64> = small.keys().copied().collect();
    let mut rng = workloads::rng(123);
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "selectivity", "shipped", "matched", "discard%", "filter KiB"
    );
    for sel in [0.001, 0.01, 0.1, 0.5] {
        let probe: Vec<(u64, u64)> = (0..2_000_000u64)
            .map(|i| {
                if rng.gen::<f64>() < sel {
                    (small_keys[rng.gen_range(0..small_keys.len())], i)
                } else {
                    (rng.gen(), i)
                }
            })
            .collect();
        let (_, stats) = lsm::bloom_join(&small, &probe, 0.01);
        println!(
            "{:>12} {:>12} {:>12} {:>11.1}% {:>12.1}",
            sel,
            stats.shipped,
            stats.matched,
            stats.discard_rate() * 100.0,
            stats.filter_bytes as f64 / 1024.0
        );
    }
    true
}

/// E13: k-mer counting, SBT vs Mantis, de Bruijn graph correction.
pub fn e13_bio() -> bool {
    header(
        "E13: computational biology (synthetic genomes, k = 21)",
        "CQF counts skewed k-mer multisets; Mantis is smaller & exact \
         vs the approximate SBT; critical-FP correction makes the \
         Bloom de Bruijn graph exact for navigation",
    );
    // k-mer counting over multi-coverage reads.
    let genome = dna::random_sequence(90, 50_000);
    let reads = dna::reads_from(&genome, 91, 5_000, 150, 0.005);
    let mut counter = biofilter::KmerCounter::new(21, 100_000, 1.0 / 1024.0);
    counter.ingest_all(reads.iter().map(|r| r.as_slice()));
    println!(
        "squeakr: {} k-mer instances, {} distinct, {:.1} bits/distinct-kmer",
        counter.total_kmers(),
        counter.distinct_kmers(),
        counter.size_in_bytes() as f64 * 8.0 / counter.distinct_kmers() as f64
    );

    // Experiment discovery: SBT vs Mantis.
    let experiments: Vec<Vec<u8>> = (0..32)
        .map(|i| dna::random_sequence(100 + i, 20_000))
        .collect();
    let sbt = biofilter::SequenceBloomTree::from_sequences(&experiments, 21, 0.01);
    let mantis = biofilter::MantisIndex::build(&experiments, 21, 1.0 / 4096.0);
    let mut sbt_correct = 0usize;
    let mut mantis_correct = 0usize;
    let mut sbt_extra = 0usize;
    let mut mantis_extra = 0usize;
    for (i, e) in experiments.iter().enumerate() {
        let q = &e[5_000..5_300];
        let s = sbt.query_seq(q, 0.8);
        let m = mantis.query_seq(q, 0.8);
        sbt_correct += s.contains(&i) as usize;
        mantis_correct += m.contains(&i) as usize;
        sbt_extra += s.len().saturating_sub(1);
        mantis_extra += m.len().saturating_sub(1);
    }
    println!(
        "experiment discovery over 32 experiments: SBT {}/32 found (+{} spurious, {:.1} MiB); \
         Mantis {}/32 found (+{} spurious, {:.1} MiB, {} colour classes)",
        sbt_correct,
        sbt_extra,
        sbt.size_in_bytes() as f64 / (1 << 20) as f64,
        mantis_correct,
        mantis_extra,
        mantis.size_in_bytes() as f64 / (1 << 20) as f64,
        mantis.colour_classes()
    );

    // de Bruijn navigation exactness.
    let g_truth: std::collections::HashSet<u64> = dna::kmers(&genome, 21).into_iter().collect();
    let graph = biofilter::DeBruijnGraph::build(&g_truth, 21, 0.05);
    let mut spurious = 0usize;
    for &km in g_truth.iter().take(5_000) {
        for n in graph.neighbours(km) {
            if !g_truth.contains(&n) {
                spurious += 1;
            }
        }
    }
    println!(
        "de Bruijn: {} true k-mers, {} critical FPs recorded, spurious neighbours \
         after correction: {} (exact navigation)",
        g_truth.len(),
        graph.critical_false_positives(),
        spurious
    );
    true
}

/// E14: malicious-URL blocking verification cost.
pub fn e14_urls() -> bool {
    header(
        "E14: URL yes/no lists (20k malicious, hot benign traffic)",
        "hot benign URLs that false-positive pay the verification \
         penalty every visit under a plain Bloom; a static cascade \
         protects only trained negatives; an adaptive filter solves \
         both the static and dynamic cases",
    );
    let w = UrlWorkload::generate(110, 20_000, 1_000, 20_000);
    let stream = w.query_stream(111, 200_000, 0.7);
    let mal_queries = stream.iter().filter(|(_, m)| *m).count() as u64;

    let mut blockers: Vec<(&str, Box<dyn UrlBlocker>)> = vec![
        (
            "plain bloom e=2%",
            Box::new(PlainBloomBlocker::new(&w.malicious, 0.02)),
        ),
        (
            "cascading bloom (trained)",
            Box::new(CascadingBloomBlocker::new(
                &w.malicious,
                &w.hot_benign,
                0.02,
            )),
        ),
        (
            "bloomier yes/no (trained)",
            Box::new(BloomierBlocker::new(&w.malicious, &w.hot_benign)),
        ),
        (
            "fp-free set (trained)",
            Box::new(FpFreeBlocker::new(&w.malicious, &w.hot_benign)),
        ),
        (
            "adaptive qf r=6",
            Box::new(AdaptiveBlocker::new(&w.malicious, 6)),
        ),
    ];
    println!(
        "stream: 200k queries, {} malicious; benign-side verifications \
         (the expensive slow path):",
        mal_queries
    );
    println!(
        "{:<28} {:>14} {:>12}",
        "blocker", "benign verifs", "filter KiB"
    );
    for (name, b) in blockers.iter_mut() {
        for (url, _) in &stream {
            b.check(url);
        }
        println!(
            "{:<28} {:>14} {:>12.1}",
            name,
            b.verifications().saturating_sub(mal_queries),
            b.filter_bytes() as f64 / 1024.0
        );
    }

    // Workload shift: cold benign becomes hot.
    println!("after workload shift (new hot set, 100k queries):");
    let shifted = UrlWorkload {
        malicious: w.malicious.clone(),
        hot_benign: w.cold_benign[..1_000].to_vec(),
        cold_benign: w.cold_benign[1_000..].to_vec(),
    };
    let shift_stream = shifted.query_stream(112, 100_000, 0.7);
    let shift_mal = shift_stream.iter().filter(|(_, m)| *m).count() as u64;
    for (name, b) in blockers.iter_mut() {
        let before = b.verifications();
        for (url, _) in &shift_stream {
            b.check(url);
        }
        println!(
            "{:<28} {:>14}",
            name,
            (b.verifications() - before).saturating_sub(shift_mal)
        );
    }
    true
}
