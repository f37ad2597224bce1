//! Multi-thread stress suite for the concurrent filter layer.
//!
//! Each test runs writer and reader threads simultaneously over a
//! shared filter and asserts the safety properties that survive any
//! interleaving: published inserts are never false negatives, counts
//! never undercount, and every scope joins (no deadlock — per-shard
//! locks are only ever taken one at a time, and the atomic Bloom
//! takes none). The CI workflow runs this file in `--release` so the
//! compiled interleavings match production codegen.

use beyond_bloom::bloom::{AtomicBlockedBloomFilter, BloomFilter};
use beyond_bloom::concurrent::Sharded;
use beyond_bloom::core::Filter;
use beyond_bloom::quotient::CountingQuotientFilter;
use beyond_bloom::workloads::{disjoint_keys, unique_keys};
use std::sync::atomic::{AtomicBool, Ordering};

const WRITERS: usize = 4;
const READERS: usize = 3;

/// Run `WRITERS` insert threads over disjoint key chunks while
/// `READERS` threads hammer membership queries on the same keyspace;
/// return once every thread has joined.
fn write_read_storm<F: Sync>(
    filter: &F,
    keys: &[u64],
    negatives: &[u64],
    insert: impl Fn(&F, &[u64]) + Send + Sync + Copy,
    contains: impl Fn(&F, u64) -> bool + Send + Sync + Copy,
) {
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for chunk in keys.chunks(keys.len().div_ceil(WRITERS)) {
            s.spawn(move || insert(filter, chunk));
        }
        for r in 0..READERS {
            let (done, keys, negatives) = (&done, &keys, &negatives);
            s.spawn(move || {
                let mut spurious = 0usize;
                while !done.load(Ordering::Acquire) {
                    // Queries race the writers: any answer is legal
                    // for in-flight keys, so only count positives on
                    // never-inserted keys (possible false positives,
                    // bounded loosely below just to use the value).
                    for &k in negatives.iter().skip(r).step_by(READERS).take(4_096) {
                        spurious += contains(filter, k) as usize;
                    }
                    for &k in keys.iter().skip(r).step_by(READERS).take(4_096) {
                        std::hint::black_box(contains(filter, k));
                    }
                }
                assert!(spurious < negatives.len(), "reader saw only positives");
            });
        }
        // Writers are the first WRITERS spawned handles; scope joins
        // everything, so just flip the flag when inserts finish.
        // (Spawn order guarantees nothing about completion order; the
        // flag is flipped by a dedicated watcher thread.)
        let (done, keys) = (&done, &keys);
        s.spawn(move || {
            // Watcher: all writers work on disjoint chunks of `keys`;
            // completion is detected by polling the last key of each
            // chunk. Simpler: writers signal via the scope exiting —
            // but readers must stop for the scope to exit, so poll
            // membership of every chunk's final key instead.
            loop {
                let all_in = keys
                    .chunks(keys.len().div_ceil(WRITERS))
                    .all(|c| contains(filter, *c.last().unwrap()));
                if all_in {
                    done.store(true, Ordering::Release);
                    return;
                }
                std::thread::yield_now();
            }
        });
    });
}

#[test]
fn sharded_bloom_storm_no_false_negatives() {
    let f: Sharded<BloomFilter> = Sharded::new(4, |i| {
        BloomFilter::with_seed(60_000, 0.01, 0xb100 ^ i as u64)
    });
    let keys = unique_keys(900, 60_000);
    let negatives = disjoint_keys(901, 60_000, &keys);
    write_read_storm(
        &f,
        &keys,
        &negatives,
        |f, chunk| f.insert_batch(chunk).unwrap(),
        |f, k| f.contains(k),
    );
    assert!(keys.iter().all(|&k| f.contains(k)), "false negative");
    assert_eq!(f.len(), 60_000);
    let fpr = negatives.iter().filter(|&&k| f.contains(k)).count() as f64 / 60_000.0;
    assert!(fpr < 0.02, "fpr {fpr}");
}

#[test]
fn sharded_cqf_storm_counts_never_undercount() {
    const REPEATS: u64 = 3;
    let f: Sharded<CountingQuotientFilter> = Sharded::new(3, |i| {
        let mut q = CountingQuotientFilter::with_seed(13, 9, 0xcf90 ^ i as u64);
        q.set_auto_expand(true);
        q
    });
    let keys = unique_keys(902, 4_000);
    // Every writer inserts ALL keys REPEATS times (maximal cross-shard
    // contention), racing readers that check counts are monotone.
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let (f, keys) = (&f, &keys);
            s.spawn(move || {
                for _ in 0..REPEATS {
                    for &k in keys {
                        f.insert_count(k, 1).unwrap();
                    }
                }
            });
        }
        for r in 0..READERS {
            let (f, keys) = (&f, &keys);
            s.spawn(move || {
                for &k in keys.iter().skip(r).step_by(READERS) {
                    let c = f.count(k);
                    assert!(
                        c <= WRITERS as u64 * REPEATS + 64,
                        "count {c} exceeds any possible insert total"
                    );
                }
            });
        }
    });
    for &k in &keys {
        assert!(
            f.count(k) >= WRITERS as u64 * REPEATS,
            "undercount: {} < {}",
            f.count(k),
            WRITERS as u64 * REPEATS
        );
    }
}

#[test]
fn sharded_cqf_concurrent_removes_keep_the_count_floor() {
    // Each writer inserts the same keys REPEATS times and then removes
    // each once, so every key ends at WRITERS × (REPEATS − 1) at least.
    const REPEATS: u64 = 3;
    let f = beyond_bloom::service::build_sharded_cqf(10_000, 1.0 / 1024.0, 3, 0x51ab);
    let keys = unique_keys(313, 1_000);
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let (f, keys) = (&f, &keys);
            s.spawn(move || {
                for _ in 0..REPEATS {
                    for &k in keys {
                        f.insert_count(k, 1).unwrap();
                    }
                }
                for &k in keys {
                    f.remove_count(k, 1).unwrap();
                }
            });
        }
    });
    let floor = WRITERS as u64 * (REPEATS - 1);
    for &k in &keys {
        assert!(f.count(k) >= floor, "count {} below {floor}", f.count(k));
    }
}

#[test]
fn atomic_blocked_bloom_storm_no_false_negatives() {
    let f = AtomicBlockedBloomFilter::new(60_000, 0.01);
    let keys = unique_keys(903, 60_000);
    let negatives = disjoint_keys(904, 60_000, &keys);
    write_read_storm(
        &f,
        &keys,
        &negatives,
        |f, chunk| f.insert_batch(chunk),
        |f, k| f.contains(k),
    );
    assert!(keys.iter().all(|&k| f.contains(k)), "false negative");
    assert_eq!(Filter::len(&f), 60_000);
    let fpr = negatives.iter().filter(|&&k| f.contains(k)).count() as f64 / 60_000.0;
    assert!(fpr < 0.025, "fpr {fpr}");
}

#[test]
fn sharded_mixed_insert_remove_query_does_not_deadlock() {
    // Insert/remove/query threads over a sharded cuckoo filter: the
    // test passing at all demonstrates lock-freedom from deadlock
    // (each operation locks exactly one shard).
    // The served build: 16 shards of 2,500 keys with 14-bit
    // fingerprints (log2(1/ε) = 11, plus 3 for the 8 slots a lookup
    // compares).
    let f = beyond_bloom::service::build_sharded_cuckoo(40_000, 1.0 / 2048.0, 4, 0xcc00);
    let stable = unique_keys(905, 10_000);
    let churn = disjoint_keys(906, 10_000, &stable);
    f.insert_batch(&stable).unwrap();
    std::thread::scope(|s| {
        for chunk in churn.chunks(churn.len().div_ceil(2)) {
            let f = &f;
            s.spawn(move || {
                for &k in chunk {
                    f.insert(k).unwrap();
                    assert!(f.contains(k));
                    assert!(f.remove(k).unwrap());
                }
            });
        }
        for r in 0..READERS {
            let (f, stable) = (&f, &stable);
            s.spawn(move || {
                for &k in stable.iter().skip(r).step_by(READERS) {
                    assert!(f.contains(k), "stable key {k} vanished");
                }
            });
        }
    });
    assert!(stable.iter().all(|&k| f.contains(k)));
}

#[test]
fn batch_and_pointwise_agree_under_concurrency() {
    // Two filters built identically; one fed by concurrent batch
    // inserts, one serially pointwise. Final membership on every
    // probe must agree exactly (same shards, same seeds).
    let build = || -> Sharded<BloomFilter> {
        Sharded::new(3, |i| {
            BloomFilter::with_seed(30_000, 0.01, 0xabcd ^ i as u64)
        })
    };
    let concurrent_f = build();
    let serial_f = build();
    let keys = unique_keys(907, 30_000);
    std::thread::scope(|s| {
        for chunk in keys.chunks(7_500) {
            let f = &concurrent_f;
            s.spawn(move || f.insert_batch(chunk).unwrap());
        }
    });
    for &k in &keys {
        serial_f.insert(k).unwrap();
    }
    let probes = unique_keys(908, 60_000);
    for &k in &probes {
        assert_eq!(concurrent_f.contains(k), serial_f.contains(k), "key {k}");
    }
}

#[test]
fn multi_contains_never_misses_an_acknowledged_insert() {
    // The Bloofi index must stay a superset of every filter's contents
    // for any reader ordered after an INSERT's acknowledgement, also
    // when the index skips ORs into words that already cover a key.
    // Writers dispatch INSERT batches and publish the acknowledged
    // count (Release); readers load it (Acquire) and ask
    // MULTI_CONTAINS for published keys. Half the tenants start with
    // 8k keys, which nearly fills their leaf summaries (most ORs are
    // skipped), half start empty (most ORs land), and one is created
    // from a blob, which saturates its leaf.
    use beyond_bloom::service::engine::{dispatch, Engine};
    use beyond_bloom::service::{build_atomic_bloom, Backend, Request, Response, ServerConfig};
    use std::sync::atomic::AtomicUsize;

    const BATCH: usize = 64;
    const BATCHES: usize = 300;
    const WRITERS: usize = 2;
    let engine = Engine::new(ServerConfig::default());
    let call = |req: Request| dispatch(&engine, &req.encode()).0;
    let create = |name: &str, backend: Backend, blob: Vec<u8>| {
        let resp = call(Request::Create {
            name: name.to_string(),
            backend,
            capacity: 1 << 15,
            eps: 0.01,
            shard_bits: 2,
            seed: 7,
            blob,
        });
        assert_eq!(resp, Response::Ok, "CREATE {name}");
    };
    // tenants[w]: writer w's tenants, every backend once, big and small
    // alternating; writer 0 also owns the blob-created tenant.
    let mut tenants: Vec<Vec<String>> = vec![Vec::new(); WRITERS];
    for (i, &backend) in Backend::ALL
        .iter()
        .cycle()
        .take(2 * Backend::ALL.len())
        .enumerate()
    {
        let name = format!("t{i:02}");
        create(&name, backend, Vec::new());
        if i % 2 == 0 {
            let keys = unique_keys(910 + i as u64, 8_192);
            let resp = call(Request::Insert {
                name: name.clone(),
                keys,
            });
            assert_eq!(resp, Response::Ok, "preload {name}");
        }
        tenants[i / Backend::ALL.len()].push(name);
    }
    let blob = build_atomic_bloom(1 << 15, 0.01, 7);
    blob.insert_batch(&unique_keys(930, 1_000));
    create("blob", Backend::AtomicBloom, blob.to_bytes());
    tenants[0].push("blob".to_string());

    let keys: Vec<Vec<u64>> = (0..WRITERS)
        .map(|w| unique_keys(940 + w as u64, BATCHES * BATCH))
        .collect();
    let batch = |w: usize, i: usize| &keys[w][i * BATCH..(i + 1) * BATCH];
    let owner = |w: usize, i: usize| &tenants[w][i % tenants[w].len()];
    let acked: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
    // Writers that have returned or panicked; readers stop at WRITERS,
    // so a failing writer fails the test instead of hanging it.
    let finished = AtomicUsize::new(0);
    struct Finish<'a>(&'a AtomicUsize);
    impl Drop for Finish<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Release);
        }
    }
    let assert_listed = |w: usize, i: usize| {
        let lists = engine.multi_contains(batch(w, i));
        for (&k, names) in batch(w, i).iter().zip(&lists) {
            assert!(
                names.contains(owner(w, i)),
                "MULTI_CONTAINS missed acknowledged key {k:#x} of {}",
                owner(w, i)
            );
        }
    };
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (call, acked, finished) = (&call, &acked, &finished);
            s.spawn(move || {
                let _finish = Finish(finished);
                for i in 0..BATCHES {
                    let resp = call(Request::Insert {
                        name: owner(w, i).clone(),
                        keys: batch(w, i).to_vec(),
                    });
                    assert_eq!(resp, Response::Ok);
                    acked[w].store(i + 1, Ordering::Release);
                }
            });
        }
        for r in 0..READERS {
            let (acked, finished, assert_listed) = (&acked, &finished, &assert_listed);
            s.spawn(move || {
                let mut probe = r;
                loop {
                    let stop = finished.load(Ordering::Acquire) == WRITERS;
                    for (w, a) in acked.iter().enumerate() {
                        let n = a.load(Ordering::Acquire);
                        if n > 0 {
                            // The batch acknowledged last, while its
                            // writer moves on, and an older one.
                            assert_listed(w, n - 1);
                            assert_listed(w, probe % n);
                        }
                    }
                    if stop {
                        break;
                    }
                    probe = probe.wrapping_mul(31).wrapping_add(7);
                }
            });
        }
    });
    for w in 0..WRITERS {
        for i in 0..BATCHES {
            assert_listed(w, i);
        }
    }
}

#[test]
fn multi_contains_confirms_through_the_slot_owner_across_reuse() {
    // A MULTI_CONTAINS candidate is confirmed by the filter in its
    // Bloofi slot, and FORGET frees slots that CREATE reuses. A reader
    // probes while, round by round, a writer FORGETs one tracked tenant
    // and blob-CREATEs a tenant under a new name, which takes the freed
    // (lowest) slot. Blob tenants are saturated — candidates for every
    // key — so a slot that still confirmed through the forgotten filter
    // would report the newcomer for the old tenant's keys. Every name
    // reported must be confirmed by a bit-identical mirror of that
    // tenant's own filter, and the stable tenants never go missing.
    use beyond_bloom::bloom::AtomicBlockedBloomFilter;
    use beyond_bloom::service::engine::{dispatch, Engine};
    use beyond_bloom::service::{build_atomic_bloom, Backend, Request, Response, ServerConfig};
    use std::collections::HashMap;
    use std::sync::Barrier;

    const ROUNDS: u64 = 8;
    const STABLE: u64 = 3;
    const KEYS: usize = 64;
    const CAPACITY: u64 = 1 << 12;
    let engine = Engine::new(ServerConfig::default());
    let call = |req: Request| dispatch(&engine, &req.encode()).0;
    // Name → (seed, keys, mirror); seeds and key sets differ per name.
    let mut tenants: HashMap<String, (u64, Vec<u64>, AtomicBlockedBloomFilter)> = HashMap::new();
    let mut add = |name: String, seed: u64| {
        let keys = unique_keys(950 + seed, KEYS);
        let mirror = build_atomic_bloom(CAPACITY, 0.01, seed);
        mirror.insert_batch(&keys);
        tenants.insert(name, (seed, keys, mirror));
    };
    let stable: Vec<String> = (0..STABLE).map(|s| format!("stable-{s}")).collect();
    for (s, name) in stable.iter().enumerate() {
        add(name.clone(), s as u64);
    }
    for r in 0..ROUNDS {
        add(format!("old-{r}"), 100 + r);
        add(format!("new-{r}"), 200 + r);
    }
    // Stable tenants take slots 0..STABLE, old-r the ones after; both
    // get exact columns through wire INSERTs.
    for name in stable
        .iter()
        .cloned()
        .chain((0..ROUNDS).map(|r| format!("old-{r}")))
    {
        let (seed, keys, _) = &tenants[&name];
        let resp = call(Request::Create {
            name: name.clone(),
            backend: Backend::AtomicBloom,
            capacity: CAPACITY,
            eps: 0.01,
            shard_bits: 0,
            seed: *seed,
            blob: Vec::new(),
        });
        assert_eq!(resp, Response::Ok, "CREATE {name}");
        let resp = call(Request::Insert {
            name: name.clone(),
            keys: keys.clone(),
        });
        assert_eq!(resp, Response::Ok, "INSERT {name}");
    }
    let mut probes: Vec<u64> = tenants
        .values()
        .flat_map(|(_, keys, _)| keys.clone())
        .collect();
    probes.extend(unique_keys(999, 256));
    // Failures are recorded, not raised, inside the scope: a panic on
    // one side would leave the other blocked at the barrier.
    let check = |lists: Vec<Vec<String>>| -> Option<String> {
        for (&key, names) in probes.iter().zip(&lists) {
            for name in names {
                if !tenants[name].2.contains(key) {
                    return Some(format!(
                        "{name} reported for {key:#x} without its own filter confirming"
                    ));
                }
            }
        }
        for name in &stable {
            for &key in &tenants[name].1 {
                let i = probes.iter().position(|&p| p == key).unwrap();
                if !lists[i].contains(name) {
                    return Some(format!("{name} missed {key:#x}"));
                }
            }
        }
        None
    };
    let barrier = Barrier::new(2);
    let reused = AtomicBool::new(false);
    let (responses, violation) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut responses = Vec::new();
            for r in 0..ROUNDS {
                barrier.wait();
                responses.push(call(Request::Forget {
                    name: format!("old-{r}"),
                }));
                // The only free slot is old-r's, so new-r takes it.
                let name = format!("new-{r}");
                responses.push(call(Request::Create {
                    name: name.clone(),
                    backend: Backend::AtomicBloom,
                    capacity: 0,
                    eps: 0.0,
                    shard_bits: 0,
                    seed: 0,
                    blob: tenants[&name].2.to_bytes(),
                }));
                reused.store(true, Ordering::Release);
                barrier.wait();
            }
            responses
        });
        let mut violation = None;
        for _ in 0..ROUNDS {
            barrier.wait();
            // Race the FORGET and the CREATE that reuses its slot...
            loop {
                let done = reused.load(Ordering::Acquire);
                violation = violation.or_else(|| check(engine.multi_contains(&probes)));
                if done {
                    break;
                }
            }
            barrier.wait();
            reused.store(false, Ordering::Relaxed);
            // ...then probe the reused slot once it is settled.
            violation = violation.or_else(|| check(engine.multi_contains(&probes)));
        }
        (writer.join().expect("writer"), violation)
    });
    assert!(
        responses.iter().all(|r| *r == Response::Ok),
        "{responses:?}"
    );
    assert_eq!(violation, None);
}

#[test]
fn poisoned_shard_recovery_emits_telemetry() {
    // Satellite: a thread that panics while holding a shard lock
    // poisons the mutex; the recovery path must both hand out the
    // guard (no cascading panic) and record the recovery in the
    // telemetry layer's counter.
    let f: Sharded<BloomFilter> = Sharded::new(2, |i| {
        BloomFilter::with_seed(1_000, 0.01, 0x9909 ^ i as u64)
    });
    let before = beyond_bloom::concurrent::POISON_RECOVERIES.get();
    let victim = 42u64;
    // Poison the shard holding `victim` from a scoped thread whose
    // panic we swallow (and silence) at the join.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let joined = std::thread::scope(|s| {
        s.spawn(|| {
            f.with_shard(victim, |_| panic!("poison the shard"));
        })
        .join()
    });
    std::panic::set_hook(prev_hook);
    assert!(joined.is_err(), "the poisoning thread must have panicked");
    // The next operation on that shard recovers the poisoned lock.
    f.insert(victim).unwrap();
    assert!(f.contains(victim));
    let after = beyond_bloom::concurrent::POISON_RECOVERIES.get();
    assert!(
        after > before,
        "poison recovery counter did not move ({before} -> {after})"
    );
}

#[test]
fn metrics_are_consistent_across_threads() {
    // Satellite: N writer threads bump shared counters and
    // histograms; the totals must equal the sum of per-thread oracle
    // counts exactly — relaxed atomics lose no increments.
    use beyond_bloom::telemetry::{Counter, Histogram};
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    let counter = Counter::new();
    let hist = Histogram::new();
    let oracle_sums: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (counter, hist) = (&counter, &hist);
                s.spawn(move || {
                    let mut local_sum = 0u64;
                    for i in 0..PER_THREAD {
                        counter.add(1 + (i % 3));
                        let v = t * 1_000 + i % 7;
                        hist.observe(v);
                        local_sum += v;
                    }
                    local_sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Counter: each thread adds 1 + (i % 3) for i in 0..PER_THREAD.
    let per_thread_counter: u64 = (0..PER_THREAD).map(|i| 1 + (i % 3)).sum();
    assert_eq!(counter.get(), THREADS * per_thread_counter);
    // Histogram: total count and sum match the oracle exactly.
    let snap = hist.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD);
    assert_eq!(snap.sum(), oracle_sums.iter().sum::<u64>());
    // Per-shard op counters on a sharded filter agree with the total
    // number of pointwise operations issued.
    beyond_bloom::telemetry::set_enabled(true);
    let f: Sharded<BloomFilter> = Sharded::new(3, |i| {
        BloomFilter::with_seed(10_000, 0.01, 0x5eed ^ i as u64)
    });
    let keys = unique_keys(909, 8_000);
    std::thread::scope(|s| {
        for chunk in keys.chunks(2_000) {
            let f = &f;
            s.spawn(move || {
                for &k in chunk {
                    f.insert(k).unwrap();
                }
            });
        }
    });
    let ops = f.shard_ops();
    assert_eq!(ops.len(), 8);
    assert_eq!(ops.iter().sum::<u64>(), 8_000);
}
