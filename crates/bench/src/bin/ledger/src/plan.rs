//! The four workloads: every input they use, derived from the seed
//! before any server starts, plus the request each connection sends
//! next and the answer that request must get.

use compacting::CompactingFilter;
use service::{build_compacting, Backend, Request};
use std::time::Duration;
use workloads::Zipf;

/// ε for every filter.
pub const EPS: f64 = 0.01;
/// Keys per INSERT frame while preloading.
const PRELOAD_BATCH: usize = 4096;
/// Zipf exponent of every skewed choice.
const ZIPF_S: f64 = 1.1;

pub const ALL_BACKENDS: [Backend; 6] = [
    Backend::AtomicBloom,
    Backend::ShardedCuckoo,
    Backend::ShardedCqf,
    Backend::RegisterBloom,
    Backend::Compacting,
    Backend::TwoChoiceBloom,
];

/// Workload sizes. The benchmark runs [`Scale::FULL`]; the smoke test
/// drives the same code at [`Scale::TINY`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// point-lookup: ranks preloaded per filter (Zipf over twice this).
    pub point_keys: u64,
    /// bulk-probe: keys per filter.
    pub bulk_keys: u64,
    /// ingest-mixed: CREATE capacity per tenant.
    pub ingest_capacity: u64,
    /// ingest-mixed: keys preloaded per tenant (also the Zipf domain of
    /// the held-key probes, newest first).
    pub ingest_preload: u64,
    /// tenant-fanout: number of tenants.
    pub tenants: u64,
    /// Absent keys probed per filter in the false-positive pass after
    /// the load (see [`Plan::fpr_probes_per_filter`]).
    pub fpr_probes: u64,
    /// Untimed traffic before the window (ingest-mixed instead sends
    /// the first 5% of its script untimed).
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        point_keys: 1 << 18,
        bulk_keys: 1 << 19,
        ingest_capacity: 1 << 21,
        ingest_preload: 1 << 16,
        tenants: 4096,
        fpr_probes: 1 << 20,
        warmup: Duration::from_secs(2),
        setup_reps: 5,
    };

    #[cfg(test)]
    pub const TINY: Scale = Scale {
        point_keys: 1 << 10,
        bulk_keys: 1 << 12,
        ingest_capacity: 1 << 15,
        ingest_preload: 1 << 10,
        tenants: 64,
        fpr_probes: 1 << 10,
        warmup: Duration::from_millis(50),
        setup_reps: 2,
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointLookup,
    BulkProbe,
    IngestMixed,
    TenantFanout,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointLookup,
        Workload::BulkProbe,
        Workload::IngestMixed,
        Workload::TenantFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point-lookup",
            Workload::BulkProbe => "bulk-probe",
            Workload::IngestMixed => "ingest-mixed",
            Workload::TenantFanout => "tenant-fanout",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: the salts and the traffic generators' random draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Key `i` of the key family `salt`. Families are disjoint in
/// practice (a collision needs a 64-bit hash match).
pub fn key(salt: u64, i: u64) -> u64 {
    filter_core::hash::mix64(salt ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` Zipf(`n`, 1.1) ranks in `1..=n`, drawn once before set-up
/// and replayed cyclically by the traffic generators.
fn zipf_table(seed: u64, n: u64, count: usize) -> Vec<u32> {
    let z = Zipf::new(n, ZIPF_S);
    let mut rng = workloads::rng(seed);
    (0..count).map(|_| z.sample(&mut rng) as u32).collect()
}

/// Keys `key(salt, i)` for `i` in `lo..hi`.
#[derive(Clone, Copy, Debug)]
pub struct KeyRange {
    pub salt: u64,
    pub lo: u64,
    pub hi: u64,
}

impl KeyRange {
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (self.lo..self.hi).map(|i| key(self.salt, i))
    }
}

/// One served filter: how it is created and what it is preloaded with.
pub struct FilterSpec {
    pub name: String,
    pub backend: Backend,
    pub capacity: u64,
    pub shard_bits: u32,
    pub seed: u64,
    pub preload: Vec<KeyRange>,
    /// Serialized prebuilt compacting filter (see
    /// [`FilterSpec::build_prebuilt`]) shipped by the CREATE instead of
    /// preloading over the wire; empty for every other filter.
    pub blob: Vec<u8>,
}

impl FilterSpec {
    /// Build this compacting filter in-process with its preload: one
    /// front at a time, each flushed into a tier before the next, then
    /// `compact_all()` — the same single tier on every run.
    pub fn build_prebuilt(&self) -> CompactingFilter {
        let f = build_compacting(self.capacity, EPS, self.seed);
        let keys: Vec<u64> = self.preload.iter().flat_map(|r| r.keys()).collect();
        for chunk in keys.chunks(f.config().front_capacity) {
            chunk.iter().for_each(|&k| f.insert(k));
            f.flush();
        }
        f.compact_all();
        f
    }

    /// The CREATE request this filter is set up with.
    pub fn create_request(&self) -> Request {
        Request::Create {
            name: self.name.clone(),
            backend: self.backend,
            capacity: self.capacity,
            eps: EPS,
            shard_bits: self.shard_bits,
            seed: self.seed,
            blob: self.blob.clone(),
        }
    }

    /// Every set-up request for this filter, in order: CREATE, then
    /// the preload INSERTs (none for a prebuilt filter).
    pub fn for_each_setup_request(&self, mut send: impl FnMut(Request)) {
        send(self.create_request());
        if !self.blob.is_empty() {
            return;
        }
        for r in &self.preload {
            let mut i = r.lo;
            while i < r.hi {
                let hi = (i + PRELOAD_BATCH as u64).min(r.hi);
                send(Request::Insert {
                    name: self.name.clone(),
                    keys: (i..hi).map(|j| key(r.salt, j)).collect(),
                });
                i = hi;
            }
        }
    }
}

/// Everything a run of one workload needs, fixed by the seed.
pub struct Plan {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub filters: Vec<FilterSpec>,
    /// Salt of the never-inserted key family (absent probes).
    pub absent_salt: u64,
    /// Per-connection traffic, one entry per connection.
    traffic_seeds: Vec<u64>,
    /// Zipf rank tables, shared read-only by the generators.
    ranks: Vec<Vec<u32>>,
    /// tenant-fanout: the shared hot-set key family and its tenants.
    pub hot_salt: u64,
    pub hot_tenants: Vec<usize>,
}

/// Keys in one tenant-fanout tenant, and in its shared hot set.
pub const TENANT_KEYS: u64 = 16;
/// Tenants holding the shared hot set.
const HOT_TENANTS: usize = 16;
/// Tenants per connection in ingest-mixed (4 per backend over 2
/// connections).
const INGEST_TENANTS_PER_CONN: usize = 12;
/// Share of a tenant's capacity the ingest-mixed script inserts per
/// second of `--seconds`: 20 s fill each tenant to 45% (48% with its
/// preload).
const INGEST_FILL_PER_S: f64 = 0.0225;
/// Share of the ingest-mixed script that runs before the measured
/// window opens.
const INGEST_WARMUP: f64 = 0.05;
/// Rank-table length per connection.
const RANK_TABLE: usize = 1 << 20;

impl Plan {
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let mut rng = Rng::new(seed ^ 0x1ed6_e700_0000_0000);
        let mut salt = || rng.next_u64();
        let absent_salt = salt();
        let hot_salt = salt();
        let mut filters = Vec::new();
        let mut hot_tenants = Vec::new();
        let conns = if workload == Workload::TenantFanout {
            1
        } else {
            2
        };
        let traffic_seeds: Vec<u64> = (0..conns).map(|_| salt()).collect();
        let mut ranks = Vec::new();
        match workload {
            Workload::PointLookup => {
                let shared = salt();
                for b in ALL_BACKENDS {
                    filters.push(FilterSpec {
                        name: format!("point-{}", b.name()),
                        backend: b,
                        capacity: scale.point_keys,
                        shard_bits: 0,
                        seed: salt(),
                        preload: vec![KeyRange {
                            salt: shared,
                            lo: 1,
                            hi: scale.point_keys + 1,
                        }],
                        blob: Vec::new(),
                    });
                }
                for &s in &traffic_seeds {
                    ranks.push(zipf_table(s, 2 * scale.point_keys, RANK_TABLE));
                }
            }
            Workload::BulkProbe => {
                for b in ALL_BACKENDS {
                    filters.push(FilterSpec {
                        name: format!("bulk-{}", b.name()),
                        backend: b,
                        capacity: scale.bulk_keys,
                        shard_bits: 4,
                        seed: salt(),
                        preload: vec![KeyRange {
                            salt: salt(),
                            lo: 0,
                            hi: scale.bulk_keys,
                        }],
                        blob: Vec::new(),
                    });
                }
            }
            Workload::IngestMixed => {
                // Tenant t belongs to connection t % 2 and has backend
                // ALL_BACKENDS[(t / 2) % 6]: each connection owns two
                // tenants of every backend.
                for t in 0..2 * INGEST_TENANTS_PER_CONN {
                    let b = ALL_BACKENDS[(t / 2) % ALL_BACKENDS.len()];
                    filters.push(FilterSpec {
                        name: format!("ingest-{t:02}-{}", b.name()),
                        backend: b,
                        capacity: scale.ingest_capacity,
                        shard_bits: 4,
                        seed: salt(),
                        preload: vec![KeyRange {
                            salt: salt(),
                            lo: 0,
                            hi: scale.ingest_preload,
                        }],
                        blob: Vec::new(),
                    });
                }
                for &s in &traffic_seeds {
                    ranks.push(zipf_table(s, scale.ingest_preload, RANK_TABLE));
                    ranks.push(zipf_table(s ^ 1, INGEST_TENANTS_PER_CONN as u64, 1 << 16));
                }
            }
            Workload::TenantFanout => {
                // Compacting is left out: each CompactingFilter owns a
                // compaction thread, and this workload has thousands.
                let backends: Vec<Backend> = ALL_BACKENDS
                    .into_iter()
                    .filter(|&b| b != Backend::Compacting)
                    .collect();
                let stride = (scale.tenants as usize / HOT_TENANTS).max(1);
                hot_tenants = (0..HOT_TENANTS.min(scale.tenants as usize))
                    .map(|i| i * stride)
                    .collect();
                for t in 0..scale.tenants as usize {
                    let mut preload = vec![KeyRange {
                        salt: salt(),
                        lo: 0,
                        hi: TENANT_KEYS,
                    }];
                    if hot_tenants.contains(&t) {
                        preload.push(KeyRange {
                            salt: hot_salt,
                            lo: 0,
                            hi: TENANT_KEYS,
                        });
                    }
                    filters.push(FilterSpec {
                        name: format!("t{t:05}"),
                        backend: backends[t % backends.len()],
                        capacity: 64,
                        shard_bits: 0,
                        seed: salt(),
                        preload,
                        blob: Vec::new(),
                    });
                }
            }
        }
        // The read-only workloads serve a compacting filter built
        // in-process: preloaded over the wire it would seal and compact
        // in the background at run-dependent times, changing its tiers,
        // its space and the CPU left for the window.
        if matches!(workload, Workload::PointLookup | Workload::BulkProbe) {
            for f in &mut filters {
                if f.backend == Backend::Compacting {
                    f.blob = f.build_prebuilt().to_bytes();
                }
            }
        }
        Plan {
            workload,
            scale,
            seed,
            filters,
            absent_salt,
            traffic_seeds,
            ranks,
            hot_salt,
            hot_tenants,
        }
    }

    pub fn connections(&self) -> usize {
        self.traffic_seeds.len()
    }

    /// Absent keys the false-positive pass probes each filter with:
    /// enough for tens of thousands of false positives per run, so the
    /// sampling error of `fpr` stays near 1%. tenant-fanout has
    /// thousands of filters, so each gets fewer.
    pub fn fpr_probes_per_filter(&self) -> u64 {
        match self.workload {
            Workload::TenantFanout => (self.scale.fpr_probes / 256).max(64),
            _ => self.scale.fpr_probes,
        }
    }

    /// ingest-mixed: the INSERTs in each connection's script for a
    /// `window`, sized so that the seed commit takes about that long to
    /// send it. The other workloads are not scripted.
    pub fn script_inserts(&self, window: Duration) -> Option<u64> {
        (self.workload == Workload::IngestMixed).then(|| {
            let keys = self.scale.ingest_capacity as f64 * INGEST_FILL_PER_S * window.as_secs_f64();
            let per_tenant = (keys / self.batch() as f64).ceil().max(1.0) as u64;
            per_tenant * INGEST_TENANTS_PER_CONN as u64
        })
    }

    /// Batch size of the workload's requests.
    pub fn batch(&self) -> usize {
        match self.workload {
            Workload::PointLookup => 1,
            Workload::BulkProbe => 256,
            Workload::IngestMixed => 64,
            Workload::TenantFanout => 32,
        }
    }

    /// The traffic generator of connection `c`: endless, or for
    /// ingest-mixed a script of `script` INSERTs (see
    /// [`Plan::script_inserts`]) with CONTAINS interleaved.
    pub fn traffic(&self, c: usize, script: Option<u64>) -> Traffic<'_> {
        let rng = Rng::new(self.traffic_seeds[c]);
        let kind = match self.workload {
            Workload::PointLookup => Kind::Point {
                ranks: &self.ranks[c],
                pos: 0,
                rot: c,
            },
            Workload::BulkProbe => Kind::Bulk { rot: c },
            Workload::IngestMixed => {
                let tenants: Vec<usize> = (0..self.filters.len()).filter(|t| t % 2 == c).collect();
                Kind::Ingest {
                    held: vec![self.scale.ingest_preload; tenants.len()],
                    tenants,
                    key_ranks: &self.ranks[2 * c],
                    tenant_ranks: &self.ranks[2 * c + 1],
                    pos: 0,
                    next_insert: 0,
                }
            }
            Workload::TenantFanout => Kind::Fanout,
        };
        Traffic {
            plan: self,
            rng,
            kind,
            script,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Contains,
    Insert,
    MultiContains,
}

/// A request plus the answer it must get.
pub struct Pending {
    pub req: Request,
    pub op: Op,
    /// Index into `Plan::filters` of the filter addressed (CONTAINS,
    /// INSERT); unused for MULTI_CONTAINS.
    pub target: usize,
    /// CONTAINS: whether key `i` is held (must answer true).
    pub held: Vec<bool>,
    /// MULTI_CONTAINS: tenants that must be listed for key `i` (empty
    /// for an absent key).
    pub owners: Vec<Vec<usize>>,
}

impl Pending {
    pub fn keys(&self) -> &[u64] {
        request_keys(&self.req)
    }
}

/// The keys a CONTAINS, INSERT or MULTI_CONTAINS carries.
pub fn request_keys(req: &Request) -> &[u64] {
    match req {
        Request::Contains { keys, .. }
        | Request::Insert { keys, .. }
        | Request::MultiContains { keys } => keys,
        _ => &[],
    }
}

enum Kind<'p> {
    Point {
        ranks: &'p [u32],
        pos: usize,
        rot: usize,
    },
    Bulk {
        rot: usize,
    },
    Ingest {
        /// Indices into `Plan::filters` this connection owns.
        tenants: Vec<usize>,
        /// Keys each owned tenant holds: `key(salt, 0..held)`.
        held: Vec<u64>,
        key_ranks: &'p [u32],
        tenant_ranks: &'p [u32],
        pos: usize,
        next_insert: usize,
    },
    Fanout,
}

/// One connection's request stream. Deterministic: the seed fixes the
/// sequence, and the window only decides how much of it is sent.
pub struct Traffic<'p> {
    plan: &'p Plan,
    rng: Rng,
    kind: Kind<'p>,
    /// INSERTs in the script, if there is one.
    script: Option<u64>,
}

impl Traffic<'_> {
    /// INSERTs committed so far (ingest-mixed).
    fn inserted(&self) -> u64 {
        match &self.kind {
            Kind::Ingest { next_insert, .. } => *next_insert as u64,
            _ => 0,
        }
    }

    /// Whether the script's untimed first part has been sent.
    pub fn warmed(&self) -> bool {
        self.script
            .is_none_or(|n| self.inserted() as f64 >= n as f64 * INGEST_WARMUP)
    }

    /// The next request, or `None` once the script is done.
    pub fn next(&mut self) -> Option<Pending> {
        if self.script.is_some_and(|n| self.inserted() >= n) {
            return None;
        }
        let plan = self.plan;
        let absent = |rng: &mut Rng| key(plan.absent_salt, rng.next_u64());
        Some(match &mut self.kind {
            Kind::Point { ranks, pos, rot } => {
                let f = *rot % plan.filters.len();
                *rot += 1;
                let rank = u64::from(ranks[*pos % ranks.len()]);
                *pos += 1;
                let r = plan.filters[f].preload[0];
                Pending {
                    req: Request::Contains {
                        name: plan.filters[f].name.clone(),
                        keys: vec![key(r.salt, rank)],
                    },
                    op: Op::Contains,
                    target: f,
                    held: vec![rank < r.hi],
                    owners: Vec::new(),
                }
            }
            Kind::Bulk { rot } => {
                let f = *rot % plan.filters.len();
                *rot += 1;
                let r = plan.filters[f].preload[0];
                let mut keys = Vec::with_capacity(plan.batch());
                let mut held = Vec::with_capacity(plan.batch());
                for _ in 0..plan.batch() {
                    let present = self.rng.next_u64() & 1 == 1;
                    keys.push(if present {
                        key(r.salt, self.rng.below(r.hi))
                    } else {
                        absent(&mut self.rng)
                    });
                    held.push(present);
                }
                Pending {
                    req: Request::Contains {
                        name: plan.filters[f].name.clone(),
                        keys,
                    },
                    op: Op::Contains,
                    target: f,
                    held,
                    owners: Vec::new(),
                }
            }
            Kind::Ingest {
                tenants,
                held,
                key_ranks,
                tenant_ranks,
                pos,
                next_insert,
            } => {
                let batch = plan.batch() as u64;
                if self.rng.next_u64() & 1 == 1 {
                    let slot = *next_insert % tenants.len();
                    let f = tenants[slot];
                    let salt = plan.filters[f].preload[0].salt;
                    let lo = held[slot];
                    Pending {
                        req: Request::Insert {
                            name: plan.filters[f].name.clone(),
                            keys: (lo..lo + batch).map(|i| key(salt, i)).collect(),
                        },
                        op: Op::Insert,
                        target: f,
                        held: Vec::new(),
                        owners: Vec::new(),
                    }
                } else {
                    let half = batch as usize / 2;
                    let slot = tenant_ranks[(*pos / half) % tenant_ranks.len()] as usize - 1;
                    let f = tenants[slot];
                    let salt = plan.filters[f].preload[0].salt;
                    let mut keys = Vec::with_capacity(batch as usize);
                    let mut want = Vec::with_capacity(batch as usize);
                    for j in 0..batch as usize {
                        if j < half {
                            // Rank 1 is the newest key the tenant holds.
                            let rank = u64::from(key_ranks[(*pos + j) % key_ranks.len()]);
                            keys.push(key(salt, held[slot] - rank));
                            want.push(true);
                        } else {
                            keys.push(absent(&mut self.rng));
                            want.push(false);
                        }
                    }
                    *pos += half;
                    Pending {
                        req: Request::Contains {
                            name: plan.filters[f].name.clone(),
                            keys,
                        },
                        op: Op::Contains,
                        target: f,
                        held: want,
                        owners: Vec::new(),
                    }
                }
            }
            Kind::Fanout => {
                let tenants = plan.filters.len() as u64;
                let mut keys = Vec::with_capacity(plan.batch());
                let mut owners = Vec::with_capacity(plan.batch());
                for _ in 0..plan.batch() {
                    match self.rng.below(3) {
                        0 => {
                            keys.push(absent(&mut self.rng));
                            owners.push(Vec::new());
                        }
                        1 => {
                            let t = self.rng.below(tenants) as usize;
                            let r = plan.filters[t].preload[0];
                            keys.push(key(r.salt, self.rng.below(TENANT_KEYS)));
                            owners.push(vec![t]);
                        }
                        _ => {
                            keys.push(key(plan.hot_salt, self.rng.below(TENANT_KEYS)));
                            owners.push(plan.hot_tenants.clone());
                        }
                    }
                }
                Pending {
                    req: Request::MultiContains { keys },
                    op: Op::MultiContains,
                    target: 0,
                    held: Vec::new(),
                    owners,
                }
            }
        })
    }

    /// Record that `p` was answered successfully: an INSERT's keys are
    /// now held and may be probed.
    pub fn committed(&mut self, p: &Pending) {
        if let Kind::Ingest {
            tenants,
            held,
            next_insert,
            ..
        } = &mut self.kind
        {
            if p.op == Op::Insert {
                let slot = *next_insert % tenants.len();
                held[slot] += p.keys().len() as u64;
                *next_insert += 1;
            }
        }
    }

    /// ingest-mixed: `(filter index, keys held)` for each owned tenant.
    pub fn held(&self) -> Vec<(usize, u64)> {
        match &self.kind {
            Kind::Ingest { tenants, held, .. } => {
                tenants.iter().copied().zip(held.iter().copied()).collect()
            }
            _ => Vec::new(),
        }
    }
}
