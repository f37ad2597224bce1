//! The compacting filter: a mutable Bloom front, immutable fuse back
//! tiers, and the background thread that moves keys between them.
//!
//! ## Lifecycle
//!
//! ```text
//! insert ──▶ front (AtomicBlockedBloom + key log)
//!               │ full (or flush)
//!               ▼ seal: O(tiers) epoch swap
//!            sealed fronts ──▶ [compactor thread] ──▶ fuse tier
//!                                sort + dedup + build      │
//!                                (outside every lock)      ▼
//!            lookups fan across front ∪ sealed ∪ tiers (newest first)
//! ```
//!
//! ## Epoch-swap safety
//!
//! All structure lives in an immutable [`State`] behind
//! `RwLock<Arc<State>>`. Readers clone the `Arc` (one read-lock
//! acquisition, no allocation) and probe a frozen snapshot; writers
//! (seal, tier install) build the next `State` *outside* the lock and
//! publish it with a single store. The write critical sections copy
//! `O(tiers)` `Arc` pointers — they never hash a key or build a
//! filter — so lookups never block on compaction.
//!
//! No false negatives across rotations:
//!
//! - **insert vs. reader**: the key enters the front's Bloom *before*
//!   `insert` returns, so any lookup that begins after an insert
//!   completes sees it.
//! - **insert vs. seal**: inserts append to the front's key log under
//!   the log mutex; seal marks the log sealed under the same mutex.
//!   An insert therefore lands either wholly in the sealed front
//!   (bloom + log) or retries against the fresh front — a key can
//!   never hit the Bloom of one front and the log of another.
//! - **seal / install vs. reader**: both transitions replace the
//!   published `Arc<State>` in one store. Every key is present in the
//!   old snapshot (sealed front) and in the new one (sealed front or
//!   rebuilt tier); there is no intermediate state with the key in
//!   neither.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;

use bloom::AtomicBlockedBloomFilter;
use filter_core::hash::mix64;
use filter_core::{
    fp_bits_for, BatchedFilter, ByteReader, ByteWriter, Filter, SerialError, PROBE_CHUNK,
};
use xorf::{BinaryFuseFilter, FuseArity};

/// Snapshot-serialization magic. Bumped from `0xc0ab_ac71` when the
/// snapshot stopped storing arity, merge policy, tier cap and FPR
/// allocation, so a blob in that layout is refused, not misread.
const MAGIC: u32 = 0xc0ab_ac72;

/// Static tiers are 4-wise binary fuse filters: ~5% smaller than
/// 3-wise at the same FPR.
const TIER_ARITY: FuseArity = FuseArity::Four;

/// Lazy leveling's tier cap: a compaction that would leave more tiers
/// than this collapses them all into one.
const MAX_TIERS: usize = 8;

/// Largest `front_capacity` a snapshot may carry: the front a
/// service CREATE builds at its default `max_capacity` (2²⁸ / 16).
/// A front preallocates its key log and sizes its Bloom from this
/// field, so an unbounded value lets a forged blob exhaust memory.
pub const MAX_FRONT_CAPACITY: usize = 1 << 24;

/// Smallest FPR target a snapshot may carry. Filter size grows with
/// `log(1/eps)`, so without a floor a forged `eps` near zero asks for
/// thousands of bits per key.
pub const MIN_EPS: f64 = 1e-9;

/// Is `eps` a usable FPR target, in `[MIN_EPS, 0.5]`?
fn eps_in_range(eps: f64) -> bool {
    (MIN_EPS..=0.5).contains(&eps)
}

/// Configuration for a [`CompactingFilter`]. Every static tier is a
/// 4-wise binary fuse filter at `eps`, and tiers merge by lazy
/// leveling capped at 8 tiers.
#[derive(Debug, Clone, Copy)]
pub struct CompactingConfig {
    /// Keys the mutable front absorbs before it is sealed and handed
    /// to the background compactor.
    pub front_capacity: usize,
    /// Target FPR of the mutable front and of each static tier.
    pub eps: f64,
    /// Base hash seed (rotated per epoch for fronts and tiers).
    pub seed: u64,
}

impl CompactingConfig {
    /// `front_capacity` keys per memtable, every layer at `eps`.
    pub fn new(front_capacity: usize, eps: f64, seed: u64) -> Self {
        CompactingConfig {
            front_capacity,
            eps,
            seed,
        }
    }

    fn validate(&self) -> Result<(), SerialError> {
        if self.front_capacity == 0 {
            return Err(SerialError::Corrupt("compacting config zero"));
        }
        if self.front_capacity > MAX_FRONT_CAPACITY {
            return Err(SerialError::Corrupt("compacting front capacity"));
        }
        if !eps_in_range(self.eps) {
            return Err(SerialError::Corrupt("compacting eps"));
        }
        Ok(())
    }
}

/// The mutable memtable: a wait-free Bloom for lookups plus the exact
/// key log the compactor will drain (the log stands in for the WAL /
/// on-disk run an LSM would keep — see DESIGN.md's accounting note).
#[derive(Debug)]
struct Front {
    bloom: AtomicBlockedBloomFilter,
    log: Mutex<FrontLog>,
}

#[derive(Debug)]
struct FrontLog {
    keys: Vec<u64>,
    sealed: bool,
    /// Trace handoff captured at seal time on the sealing thread: if
    /// the seal happened inside a traced request, the background
    /// compaction that drains this front records a span linked back
    /// to that request's trace.
    handoff: Option<telemetry::trace::SpanHandoff>,
}

impl Front {
    fn new(cfg: &CompactingConfig, epoch: u64) -> Front {
        Front {
            bloom: AtomicBlockedBloomFilter::with_seed(
                cfg.front_capacity,
                cfg.eps,
                cfg.seed ^ mix64(epoch.wrapping_mul(2)),
            ),
            log: Mutex::new(FrontLog {
                keys: Vec::with_capacity(cfg.front_capacity),
                sealed: false,
                handoff: None,
            }),
        }
    }
}

/// One immutable back tier: a static fuse filter plus its sorted,
/// deduplicated key set (the stand-in for the run the filter guards).
#[derive(Debug)]
struct Tier {
    filter: BinaryFuseFilter,
    keys: Vec<u64>,
}

/// The published structure. Immutable once installed; transitions
/// build a successor and swap the `Arc`.
#[derive(Debug)]
struct State {
    front: Arc<Front>,
    /// Sealed fronts awaiting compaction, oldest first.
    sealed: Vec<Arc<Front>>,
    /// Static tiers, oldest (largest) first.
    tiers: Vec<Arc<Tier>>,
}

/// Worker-thread mailbox (guarded by `Inner::sync`, signalled through
/// `Inner::cv`; lock order is `sync` → `state` → front log).
#[derive(Debug)]
struct WorkerSync {
    /// Sealed fronts not yet drained into a tier.
    pending: usize,
    /// A full collapse (every tier into one) was requested.
    full_requested: bool,
    shutdown: bool,
}

#[derive(Debug)]
struct Inner {
    cfg: CompactingConfig,
    state: RwLock<Arc<State>>,
    epoch: AtomicU64,
    seals: AtomicU64,
    compactions: AtomicU64,
    failed_compactions: AtomicU64,
    sync: Mutex<WorkerSync>,
    cv: Condvar,
}

/// Observability snapshot (see [`CompactingFilter::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactingStats {
    /// Keys in the mutable front's log.
    pub front_keys: usize,
    /// Sealed fronts awaiting background compaction.
    pub sealed_fronts: usize,
    /// Live static fuse tiers.
    pub tiers: usize,
    /// Keys held across all static tiers.
    pub tier_keys: usize,
    /// Fronts sealed over the filter's lifetime.
    pub seals: u64,
    /// Background compactions completed.
    pub compactions: u64,
    /// Compactions abandoned by fuse-construction failure.
    pub failed_compactions: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// # Examples
///
/// ```
/// use compacting::{CompactingConfig, CompactingFilter};
/// use filter_core::Filter;
///
/// let f = CompactingFilter::new(CompactingConfig::new(1024, 1.0 / 256.0, 7));
/// for k in 0..5_000u64 {
///     f.insert(k);
/// }
/// f.flush(); // drain every sealed front into static tiers
/// assert!((0..5_000).all(|k| f.contains(k)));
/// ```
///
/// A filter LSM: wait-free inserts into a Bloom front, background
/// compaction into binary fuse tiers, lookups fanned across both.
#[derive(Debug)]
pub struct CompactingFilter {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

impl CompactingFilter {
    /// Create an empty filter and start its compaction thread.
    pub fn new(cfg: CompactingConfig) -> Self {
        assert!(cfg.front_capacity > 0, "front_capacity must be positive");
        assert!(cfg.eps > 0.0 && cfg.eps <= 0.5, "eps must be in (0, 0.5]");
        let inner = Arc::new(Inner {
            state: RwLock::new(Arc::new(State {
                front: Arc::new(Front::new(&cfg, 0)),
                sealed: Vec::new(),
                tiers: Vec::new(),
            })),
            cfg,
            epoch: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            failed_compactions: AtomicU64::new(0),
            sync: Mutex::new(WorkerSync {
                pending: 0,
                full_requested: false,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let w = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("bb-compactor".into())
            .spawn(move || worker_loop(&w))
            .expect("spawn compaction thread");
        CompactingFilter {
            inner,
            worker: Some(worker),
        }
    }

    /// Insert `key`: a one-key [`insert_batch`](Self::insert_batch).
    pub fn insert(&self, key: u64) {
        self.insert_batch(std::slice::from_ref(&key));
    }

    /// Insert every key in `keys`, in order. Wait-free against lookups
    /// and background compaction; seals the front (an `O(tiers)` swap)
    /// each time it reaches capacity.
    ///
    /// Takes one state snapshot and one front-log lock per front the
    /// batch lands in, not per key. The batch is split where the
    /// front fills, so fronts seal at exactly the key counts inserting
    /// key by key would seal them at.
    pub fn insert_batch(&self, keys: &[u64]) {
        let inner = &*self.inner;
        let mut rest = keys;
        while !rest.is_empty() {
            let front = Arc::clone(&inner.snapshot().front);
            let mut log = lock(&front.log);
            if log.sealed {
                // Raced with a seal: the published front has already
                // moved on; retry against the fresh snapshot.
                continue;
            }
            // No room left means another inserter filled this front
            // and has not sealed it yet; a one-key insert would still
            // land here, so take at least one key.
            let room = inner.cfg.front_capacity.saturating_sub(log.keys.len());
            let (now, later) = rest.split_at(room.clamp(1, rest.len()));
            // Bloom before log, both under the log lock: a concurrent
            // reader sees the keys as soon as we return, and a seal
            // (which takes this lock) can never split the pair.
            front.bloom.insert_batch(now);
            log.keys.extend_from_slice(now);
            let full = log.keys.len() >= inner.cfg.front_capacity;
            drop(log);
            if full {
                inner.seal();
            }
            rest = later;
        }
    }

    /// Seal the current front (if non-empty) and block until the
    /// background thread has drained every sealed front into tiers.
    pub fn flush(&self) {
        let inner = &*self.inner;
        inner.seal();
        let mut s = lock(&inner.sync);
        while s.pending > 0 {
            s = inner.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Seal the front and collapse *everything* — sealed fronts and
    /// all existing tiers — into a single fuse tier, blocking until
    /// done. This is the steady-state / snapshot shape E23 measures.
    pub fn compact_all(&self) {
        let inner = &*self.inner;
        inner.seal();
        let mut s = lock(&inner.sync);
        s.full_requested = true;
        inner.cv.notify_all();
        while s.pending > 0 || s.full_requested {
            s = inner.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Current structural counters.
    pub fn stats(&self) -> CompactingStats {
        let inner = &*self.inner;
        let state = inner.snapshot();
        let front_keys = lock(&state.front.log).keys.len();
        CompactingStats {
            front_keys,
            sealed_fronts: state.sealed.len(),
            tiers: state.tiers.len(),
            tier_keys: state.tiers.iter().map(|t| t.keys.len()).sum(),
            seals: inner.seals.load(Ordering::Relaxed),
            compactions: inner.compactions.load(Ordering::Relaxed),
            failed_compactions: inner.failed_compactions.load(Ordering::Relaxed),
        }
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> CompactingConfig {
        self.inner.cfg
    }

    /// Heap bytes held by retained key logs (front, sealed fronts and
    /// tier key sets) — the stand-in for the on-disk runs an LSM would
    /// keep, *excluded* from [`Filter::size_in_bytes`] (which accounts
    /// filter memory only; see DESIGN.md's bits/key accounting).
    pub fn retained_key_bytes(&self) -> usize {
        let state = self.inner.snapshot();
        let logs: usize = state
            .sealed
            .iter()
            .chain(std::iter::once(&state.front))
            .map(|f| lock(&f.log).keys.len())
            .sum();
        let tiers: usize = state.tiers.iter().map(|t| t.keys.len()).sum();
        (logs + tiers) * std::mem::size_of::<u64>()
    }

    /// Serialize a point-in-time snapshot: static tiers as
    /// `(keys, fuse bytes)` pairs, plus every not-yet-compacted key
    /// (front and sealed logs) as a loose tail replayed on load.
    pub fn to_bytes(&self) -> Vec<u8> {
        let state = self.inner.snapshot();
        let cfg = &self.inner.cfg;
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u64(cfg.front_capacity as u64);
        w.put_f64(cfg.eps);
        w.put_u64(cfg.seed);
        w.put_u32(state.tiers.len() as u32);
        for t in state.tiers.iter() {
            w.put_u64_slice(&t.keys);
            w.put_bytes(&t.filter.to_bytes());
        }
        let mut loose: Vec<u64> = Vec::new();
        for f in state.sealed.iter().chain(std::iter::once(&state.front)) {
            loose.extend_from_slice(&lock(&f.log).keys);
        }
        w.put_u64_slice(&loose);
        w.into_bytes()
    }

    /// Deserialize a snapshot written by [`CompactingFilter::to_bytes`].
    /// Tiers are installed verbatim; loose keys are replayed through
    /// the normal insert path (so a huge tail just seals and compacts
    /// as usual).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SerialError> {
        let mut r = ByteReader::new(bytes);
        if r.take_u32()? != MAGIC {
            return Err(SerialError::Corrupt("compacting magic"));
        }
        let cfg = CompactingConfig {
            front_capacity: r.take_u64()? as usize,
            eps: r.take_f64()?,
            seed: r.take_u64()?,
        };
        cfg.validate()?;
        // No preallocation: the count is untrusted, and every tier
        // must still be read from the blob.
        let n_tiers = r.take_u32()?;
        let mut tiers = Vec::new();
        for _ in 0..n_tiers {
            let keys = r.take_u64_vec()?;
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SerialError::Corrupt("compacting tier keys unsorted"));
            }
            let filter = BinaryFuseFilter::from_bytes(&r.take_bytes()?)?;
            if filter.len() != keys.len() || filter.arity() != TIER_ARITY {
                return Err(SerialError::Corrupt("compacting tier mismatch"));
            }
            // Cheap structural cross-check: the filter must accept its
            // own key set (a corrupt table would break the no-false-
            // negative contract silently).
            if keys.iter().any(|&k| !filter.contains(k)) {
                return Err(SerialError::Corrupt("compacting tier rejects own key"));
            }
            tiers.push(Arc::new(Tier { filter, keys }));
        }
        let loose = r.take_u64_vec()?;
        let filter = CompactingFilter::new(cfg);
        if !tiers.is_empty() {
            let delta = tiers.len() as i64;
            let mut guard = filter
                .inner
                .state
                .write()
                .unwrap_or_else(|p| p.into_inner());
            let cur = Arc::clone(&guard);
            *guard = Arc::new(State {
                front: Arc::clone(&cur.front),
                sealed: Vec::new(),
                tiers,
            });
            drop(guard);
            crate::TIERS.add(delta);
        }
        filter.insert_batch(&loose);
        Ok(filter)
    }
}

impl Inner {
    fn snapshot(&self) -> Arc<State> {
        Arc::clone(&self.state.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Seal the current front and publish it for the compactor.
    /// Returns `false` when the front is empty or already sealed (a
    /// concurrent sealer won the race).
    fn seal(&self) -> bool {
        let mut guard = self.state.write().unwrap_or_else(|p| p.into_inner());
        let cur = Arc::clone(&guard);
        {
            let mut log = lock(&cur.front.log);
            if log.sealed || log.keys.is_empty() {
                return false;
            }
            log.sealed = true;
            // The sealing thread is the request thread (seal runs
            // inline from insert/flush), so its thread-local trace —
            // if any — is the request this seal belongs to.
            log.handoff = telemetry::trace::handoff();
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sealed = cur.sealed.clone();
        sealed.push(Arc::clone(&cur.front));
        *guard = Arc::new(State {
            front: Arc::new(Front::new(&self.cfg, epoch)),
            sealed,
            tiers: cur.tiers.clone(),
        });
        // Count the seal while still holding the state write lock:
        // if the front became visible before `pending += 1` landed,
        // a compaction snapshotting in the window would drain it and
        // decrement `pending` by a seal that was never counted —
        // `saturating_sub` clamps at 0, the late increment then
        // strands `pending` at 1 with nothing sealed, and the worker
        // busy-loops while `flush`/`compact_all` wait forever.
        {
            let mut s = lock(&self.sync);
            s.pending += 1;
        }
        drop(guard);
        self.seals.fetch_add(1, Ordering::Relaxed);
        crate::SEALS.inc();
        self.cv.notify_all();
        true
    }
}

/// How many of the newest tiers the incoming batch absorbs (lazy
/// leveling): every newest tier no larger than the batch so far, or
/// all of them when keeping the rest would leave more than
/// [`MAX_TIERS`] tiers.
fn plan_merge(tiers: &[Arc<Tier>], incoming: usize) -> usize {
    let mut acc = incoming.max(1);
    let mut n = 0;
    for t in tiers.iter().rev() {
        if t.keys.len() > acc {
            break;
        }
        acc += t.keys.len();
        n += 1;
    }
    if tiers.len() - n + 1 > MAX_TIERS {
        tiers.len()
    } else {
        n
    }
}

/// One compaction round: drain every sealed front (and per policy,
/// the newest tiers) into one rebuilt fuse tier, then install it with
/// a single swap. Runs on the worker thread only, so tiers have
/// exactly one mutator. Returns the number of fronts drained.
fn compact_once(inner: &Inner, full: bool) -> usize {
    let _t = crate::COMPACTION_NS.span();
    let t0 = std::time::Instant::now();
    let state = inner.snapshot();
    let drained = state.sealed.clone();
    if drained.is_empty() && !(full && state.tiers.len() > 1) {
        return 0;
    }
    // Everything below — clone, sort, dedup, fuse build — happens
    // outside every lock; readers keep probing the old state.
    let mut keys: Vec<u64> = Vec::new();
    let mut handoffs: Vec<telemetry::trace::SpanHandoff> = Vec::new();
    for f in &drained {
        let mut log = lock(&f.log);
        keys.extend_from_slice(&log.keys);
        handoffs.extend(log.handoff.take());
    }
    let merged = if full {
        state.tiers.len()
    } else {
        plan_merge(&state.tiers, keys.len())
    };
    let keep = state.tiers.len() - merged;
    for t in &state.tiers[keep..] {
        keys.extend_from_slice(&t.keys);
    }
    keys.sort_unstable();
    keys.dedup();
    let fp_bits = fp_bits_for(inner.cfg.eps);
    let epoch = inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
    let seed = inner.cfg.seed ^ mix64(epoch.wrapping_mul(2) | 1);
    let filter = match BinaryFuseFilter::build_with_seed(&keys, TIER_ARITY, fp_bits, seed) {
        Ok(f) => f,
        Err(_) => {
            // Keys are deduplicated, so this needs a full-hash
            // collision to persist across the seed budget. Leave the
            // sealed fronts queryable; the next compaction retries
            // with a fresh epoch seed.
            inner.failed_compactions.fetch_add(1, Ordering::Relaxed);
            crate::FAILED_COMPACTIONS.inc();
            return drained.len();
        }
    };
    let tier_keys = keys.len();
    let tier = Arc::new(Tier { filter, keys });
    let mut guard = inner.state.write().unwrap_or_else(|p| p.into_inner());
    let cur = Arc::clone(&guard);
    // Fronts sealed while we were building stay queued; `cur.tiers`
    // equals our snapshot's tiers (single mutator).
    let sealed: Vec<Arc<Front>> = cur
        .sealed
        .iter()
        .filter(|f| !drained.iter().any(|d| Arc::ptr_eq(d, f)))
        .cloned()
        .collect();
    let mut tiers = cur.tiers[..keep].to_vec();
    tiers.push(tier);
    let n_tiers = tiers.len();
    *guard = Arc::new(State {
        front: Arc::clone(&cur.front),
        sealed,
        tiers,
    });
    drop(guard);
    inner.compactions.fetch_add(1, Ordering::Relaxed);
    crate::COMPACTIONS.inc();
    crate::TIERS.add(n_tiers as i64 - cur.tiers.len() as i64);
    // Link the compaction back to every traced request whose seal it
    // drained — the cross-thread half of the trace (rendered as a
    // flow arrow in the Chrome trace viewer).
    let dur = t0.elapsed();
    for h in handoffs {
        telemetry::trace::record_linked(
            h,
            "compacting:compact",
            dur,
            tier_keys as u64,
            n_tiers as u64,
        );
    }
    drained.len()
}

fn worker_loop(inner: &Inner) {
    loop {
        let full = {
            let mut s = lock(&inner.sync);
            loop {
                if s.shutdown {
                    return;
                }
                if s.pending > 0 || s.full_requested {
                    break s.full_requested;
                }
                s = inner.cv.wait(s).unwrap_or_else(|p| p.into_inner());
            }
        };
        let drained = compact_once(inner, full);
        let mut s = lock(&inner.sync);
        s.pending = s.pending.saturating_sub(drained);
        if full {
            s.full_requested = false;
        }
        inner.cv.notify_all();
    }
}

impl Drop for CompactingFilter {
    fn drop(&mut self) {
        {
            let mut s = lock(&self.inner.sync);
            s.shutdown = true;
            self.inner.cv.notify_all();
        }
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        let tiers = self.inner.snapshot().tiers.len();
        if tiers > 0 {
            crate::TIERS.add(-(tiers as i64));
        }
    }
}

impl Filter for CompactingFilter {
    fn contains(&self, key: u64) -> bool {
        let state = self.inner.snapshot();
        if state.front.bloom.contains(key) {
            return true;
        }
        if state.sealed.iter().any(|f| f.bloom.contains(key)) {
            return true;
        }
        state.tiers.iter().rev().any(|t| t.filter.contains(key))
    }

    /// Keys across every layer. Counts front/sealed log entries as-is
    /// (duplicates collapse only at compaction), so this is an upper
    /// bound on distinct keys that becomes exact after
    /// [`CompactingFilter::compact_all`].
    fn len(&self) -> usize {
        let state = self.inner.snapshot();
        let logs: usize = state
            .sealed
            .iter()
            .chain(std::iter::once(&state.front))
            .map(|f| lock(&f.log).keys.len())
            .sum();
        logs + state.tiers.iter().map(|t| t.keys.len()).sum::<usize>()
    }

    /// Filter memory only: front + sealed Blooms and fuse tier
    /// tables. Retained key logs are accounted separately
    /// ([`CompactingFilter::retained_key_bytes`]) — they model the
    /// on-disk runs an LSM already stores, not filter overhead.
    fn size_in_bytes(&self) -> usize {
        let state = self.inner.snapshot();
        let blooms: usize = state
            .sealed
            .iter()
            .chain(std::iter::once(&state.front))
            .map(|f| f.bloom.size_in_bytes())
            .sum();
        blooms
            + state
                .tiers
                .iter()
                .map(|t| t.filter.size_in_bytes())
                .sum::<usize>()
    }
}

impl BatchedFilter for CompactingFilter {
    /// Fan the chunk across every layer with each layer's own batched
    /// kernel, OR-accumulating — one snapshot, `layers` pipelined
    /// passes, no per-key re-dispatch.
    fn contains_chunk(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert!(keys.len() <= PROBE_CHUNK && keys.len() == out.len());
        let state = self.inner.snapshot();
        state.front.bloom.contains_chunk(keys, out);
        let mut tmp = [false; PROBE_CHUNK];
        let tmp = &mut tmp[..keys.len()];
        for f in state.sealed.iter() {
            if out.iter().all(|&o| o) {
                return;
            }
            f.bloom.contains_chunk(keys, tmp);
            for (o, &t) in out.iter_mut().zip(tmp.iter()) {
                *o |= t;
            }
        }
        for t in state.tiers.iter() {
            if out.iter().all(|&o| o) {
                return;
            }
            t.filter.contains_chunk(keys, tmp);
            for (o, &hit) in out.iter_mut().zip(tmp.iter()) {
                *o |= hit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{disjoint_keys, unique_keys};

    fn small_cfg(seed: u64) -> CompactingConfig {
        CompactingConfig::new(512, 1.0 / 256.0, seed)
    }

    #[test]
    fn no_false_negatives_through_compaction() {
        let f = CompactingFilter::new(small_cfg(1));
        let keys = unique_keys(21, 10_000);
        for &k in &keys {
            f.insert(k);
            assert!(f.contains(k), "key lost immediately after insert");
        }
        assert!(keys.iter().all(|&k| f.contains(k)));
        f.flush();
        assert!(keys.iter().all(|&k| f.contains(k)), "key lost by flush");
        f.compact_all();
        assert!(
            keys.iter().all(|&k| f.contains(k)),
            "key lost by compaction"
        );
        let st = f.stats();
        assert_eq!(st.tiers, 1, "compact_all must leave one tier");
        assert_eq!(st.sealed_fronts, 0);
        assert_eq!(st.tier_keys, keys.len());
    }

    #[test]
    fn compaction_reaches_static_space() {
        let f = CompactingFilter::new(CompactingConfig::new(4096, 1.0 / 256.0, 3));
        let keys = unique_keys(22, 60_000);
        for &k in &keys {
            f.insert(k);
        }
        f.compact_all();
        // One 4-wise fuse tier at 8-bit fingerprints plus one empty
        // front Bloom: comfortably below a mutable Bloom's ~12.9.
        let bpk = f.size_in_bytes() as f64 * 8.0 / keys.len() as f64;
        assert!(
            bpk < 10.5,
            "steady-state bits/key {bpk}, stats {:?}",
            f.stats()
        );
        let st = f.stats();
        assert_eq!(st.front_keys, 0);
        assert_eq!(st.tier_keys, keys.len());
    }

    #[test]
    fn fpr_stays_within_budget_after_compaction() {
        let f = CompactingFilter::new(CompactingConfig::new(4096, 1.0 / 256.0, 4));
        let keys = unique_keys(23, 50_000);
        for &k in &keys {
            f.insert(k);
        }
        f.compact_all();
        let neg = disjoint_keys(24, 200_000, &keys);
        let fpr = neg.iter().filter(|&&k| f.contains(k)).count() as f64 / neg.len() as f64;
        assert!(fpr <= 1.5 / 256.0, "fpr {fpr} exceeds 1.5ε");
    }

    #[test]
    fn duplicate_inserts_collapse() {
        let f = CompactingFilter::new(small_cfg(5));
        for round in 0..4 {
            for k in 0..2_000u64 {
                f.insert(k ^ (round & 1)); // half duplicates each round
            }
        }
        f.compact_all();
        let st = f.stats();
        assert_eq!(st.tiers, 1);
        assert!(st.tier_keys <= 2_001, "dedup failed: {}", st.tier_keys);
        assert!(f.contains(0) && f.contains(1) && f.contains(1_999));
    }

    #[test]
    fn lazy_leveling_absorbs_small_tiers_and_caps_the_count() {
        let tier = |n: u64| {
            let keys: Vec<u64> = (0..n).collect();
            let filter = BinaryFuseFilter::build(&keys, TIER_ARITY, 8).unwrap();
            Arc::new(Tier { filter, keys })
        };
        // Oldest first: the batch folds in the newest tiers no larger
        // than what it has gathered so far, and stops at a big one.
        let tiers = [tier(1_000), tier(10), tier(10)];
        assert_eq!(plan_merge(&tiers, 10), 2);
        assert_eq!(plan_merge(&tiers, 9), 0);
        // A batch that absorbs nothing adds a tier, unless that would
        // pass the cap: then every tier collapses into one.
        let big: Vec<_> = (0..MAX_TIERS).map(|_| tier(1_000)).collect();
        assert_eq!(plan_merge(&big[..MAX_TIERS - 1], 1), 0);
        assert_eq!(plan_merge(&big, 1), MAX_TIERS);
    }

    #[test]
    fn batched_matches_pointwise() {
        let f = CompactingFilter::new(small_cfg(7));
        let keys = unique_keys(26, 5_000);
        for &k in &keys {
            f.insert(k);
        }
        f.flush(); // leave tiers AND a part-full front
        for k in 0..100u64 {
            f.insert(k.wrapping_mul(0x9e37_79b9));
        }
        let probes: Vec<u64> = keys
            .iter()
            .copied()
            .take(500)
            .chain(disjoint_keys(27, 500, &keys))
            .collect();
        let got = f.contains_batch(&probes);
        for (&p, &g) in probes.iter().zip(&got) {
            assert_eq!(g, f.contains(p), "batched mismatch on {p}");
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let f = CompactingFilter::new(small_cfg(8));
        let keys = unique_keys(28, 8_000);
        for &k in &keys {
            f.insert(k);
        }
        // Collapse to one deterministic tier: after a mere flush() the
        // tier structure (and so the measured FPR below) depends on
        // how the background thread happened to group seals.
        f.compact_all();
        for k in 0..300u64 {
            f.insert(k | 1 << 63); // loose tail in the front
        }
        let bytes = f.to_bytes();
        let g = CompactingFilter::from_bytes(&bytes).unwrap();
        assert!(keys.iter().all(|&k| g.contains(k)));
        assert!((0..300u64).all(|k| g.contains(k | 1 << 63)));
        assert_eq!(g.stats().tiers, f.stats().tiers);
        // FPR carries over (same tiers, same seeds).
        let neg = disjoint_keys(29, 50_000, &keys);
        let fpr = neg.iter().filter(|&&k| g.contains(k)).count() as f64 / neg.len() as f64;
        assert!(fpr <= 3.0 / 256.0, "roundtripped fpr {fpr}");
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let f = CompactingFilter::new(small_cfg(9));
        for k in 0..3_000u64 {
            f.insert(k.wrapping_mul(0xdead_beef_cafe));
        }
        f.flush();
        let bytes = f.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CompactingFilter::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(CompactingFilter::from_bytes(&wrong).is_err());
    }

    #[test]
    fn stats_and_events_track_lifecycle() {
        let f = CompactingFilter::new(small_cfg(10));
        for k in 0..5_000u64 {
            f.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d));
        }
        f.flush();
        let st = f.stats();
        assert!(st.seals >= 1, "no seal recorded");
        assert!(st.compactions >= 1, "no compaction recorded");
        assert_eq!(st.failed_compactions, 0);
        assert_eq!(st.sealed_fronts, 0, "flush left sealed fronts");
    }

    #[test]
    fn empty_filter_is_well_behaved() {
        let f = CompactingFilter::new(small_cfg(11));
        assert!(f.is_empty());
        assert!(!f.contains(42));
        f.flush(); // empty seal is a no-op
        f.compact_all();
        assert_eq!(f.stats().tiers, 0);
        let g = CompactingFilter::from_bytes(&f.to_bytes()).unwrap();
        assert!(g.is_empty());
    }
}
