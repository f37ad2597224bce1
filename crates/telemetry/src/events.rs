//! Structured event vocabulary: what the event ring records.

/// What happened. Each variant carries two `u64` payload slots (`a`,
/// `b`) whose meaning is variant-specific and documented here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum EventKind {
    /// Unrecognised kind tag (torn ring read or future variant).
    Other = 0,
    /// A filter grew: scalable Bloom added a stage (`a` = stage
    /// index, `b` = new stage capacity) or a CQF doubled (`a` = new
    /// quotient bits, `b` = new slot capacity).
    Expansion = 1,
    /// A structure rehashed in place (reserved for future use).
    Rehash = 2,
    /// A cuckoo insert needed an unusually long eviction chain
    /// (`a` = chain length, `b` = items stored).
    CuckooKickChain = 3,
    /// A cuckoo insert hit the kick limit and failed
    /// (`a` = kick limit, `b` = items stored).
    CuckooInsertFailed = 4,
    /// A CQF cluster spilled past the table's physical padding
    /// (`a` = used slots, `b` = slot capacity).
    CqfClusterSpill = 5,
    /// A shard mutex was recovered after its holder panicked
    /// (`a` = shard index, `b` = 0).
    ShardPoisonRecovered = 6,
    /// A service request exceeded the slow-request threshold
    /// (`a` = latency ns, `b` = packed opcode/backend/batch context).
    SlowRequest = 7,
    /// A compacting filter sealed its memtable front for background
    /// compaction (`a` = keys sealed, `b` = epoch).
    TierSealed = 8,
    /// A background compaction installed a rebuilt static tier
    /// (`a` = keys in the new tier, `b` = live tier count after).
    TierCompacted = 9,
}

impl EventKind {
    /// Decode a stored tag (torn reads map to [`EventKind::Other`]).
    pub fn from_u64(v: u64) -> EventKind {
        match v {
            1 => EventKind::Expansion,
            2 => EventKind::Rehash,
            3 => EventKind::CuckooKickChain,
            4 => EventKind::CuckooInsertFailed,
            5 => EventKind::CqfClusterSpill,
            6 => EventKind::ShardPoisonRecovered,
            7 => EventKind::SlowRequest,
            8 => EventKind::TierSealed,
            9 => EventKind::TierCompacted,
            _ => EventKind::Other,
        }
    }

    /// Short stable name (log rendering).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Other => "other",
            EventKind::Expansion => "expansion",
            EventKind::Rehash => "rehash",
            EventKind::CuckooKickChain => "cuckoo-kick-chain",
            EventKind::CuckooInsertFailed => "cuckoo-insert-failed",
            EventKind::CqfClusterSpill => "cqf-cluster-spill",
            EventKind::ShardPoisonRecovered => "shard-poison-recovered",
            EventKind::SlowRequest => "slow-request",
            EventKind::TierSealed => "tier-sealed",
            EventKind::TierCompacted => "tier-compacted",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone publication ticket (global order across threads).
    pub seq: u64,
    /// Microseconds since process start.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload slot (see [`EventKind`]).
    pub a: u64,
    /// Second payload slot (see [`EventKind`]).
    pub b: u64,
}
