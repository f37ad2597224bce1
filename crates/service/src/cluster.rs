//! Consistent-hash cluster mode: one logical filter namespace routed
//! across N independent filter servers.
//!
//! Each server process stays exactly what it was — a single-node
//! engine with a private registry. The [`ClusterClient`] layers a
//! consistent-hash ring (virtual nodes, [`DEFAULT_VNODES`] per server)
//! over the set of server addresses and routes every named-filter
//! request to the name's owner. No server knows about any other: the
//! cluster is a pure client-side construct, which is how memcached
//! deployments scaled before servers grew gossip protocols.
//!
//! # Why consistent hashing
//!
//! With `hash(name) % N` routing, changing N remaps nearly every
//! name. On the ring, a node's arrival or departure only remaps the
//! ring arcs adjacent to its virtual points — an expected `K/N`
//! fraction of the K filters — so elastic membership changes ship
//! `K/N` snapshots, not K ([`ClusterClient::add_node`] asserts this
//! "only affected arcs move" property in tests).
//!
//! # Migration
//!
//! Moving a filter is three wire calls built from existing protocol
//! pieces: SNAPSHOT on the old owner (`to_bytes`/multi-shard
//! envelope), blob-CREATE on the new owner (`from_bytes`), FORGET on
//! the old owner. The blob preserves shard structure and per-shard
//! seeds, so a migrated filter answers every probe bit-identically to
//! the original.
//!
//! # Fan-out
//!
//! Requests that concern every node (MULTI_CONTAINS, STATS) are sent
//! on every node's connection before any reply is read, so the nodes
//! serve them at once and a fan-out costs about the slowest node's
//! round trip, not the sum. Each connection still carries one request
//! at a time. When a fan-out returns, Ok or Err, every connection that
//! carried the request has had its reply read or has been dropped, so
//! no stale reply is left for the next routed call to misread.
//!
//! # Tracing
//!
//! Every frame carries the calling thread's trace context, so any
//! cluster call made under a forced root (`begin_forced`) is traced on
//! every node it reaches: each node's `server:request` span parents
//! onto the caller's current span. [`ClusterClient::trace_route`] is
//! such a root around an ordinary [`ClusterClient::multi_contains`],
//! and [`ClusterClient::collect_trace`] gathers one trace's spans from
//! the local store and every node.

use crate::client::{ClientError, FilterClient};
use crate::metrics::StatsReport;
use crate::proto::{Backend, Request, Response};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;
use telemetry::trace::{SpanRecord, Trace};

/// Virtual points each node contributes to the ring. More points →
/// smoother load split and finer-grained remapping at membership
/// changes, at O(vnodes · nodes) ring-build cost.
pub const DEFAULT_VNODES: usize = 64;

/// FNV-1a over bytes, then a splitmix64-style finalizer. FNV alone
/// clusters nearby keys; the avalanche spreads ring points uniformly.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ h >> 31
}

/// A consistent-hash ring over node indices. Pure data structure —
/// no sockets — so routing properties are unit-testable in isolation.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, node index)`, sorted by position.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Build a ring with `vnodes` virtual points per node. Points are
    /// derived from each node's address string, so every client that
    /// knows the same membership builds the same ring.
    pub fn build(addrs: &[SocketAddr], vnodes: usize) -> HashRing {
        let mut points = Vec::with_capacity(addrs.len() * vnodes);
        for (i, addr) in addrs.iter().enumerate() {
            let base = addr.to_string();
            for v in 0..vnodes {
                points.push((ring_hash(format!("{base}#{v}").as_bytes()), i));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The node index owning `name`: the first ring point clockwise
    /// from the name's hash (wrapping at the top).
    pub fn owner(&self, name: &str) -> usize {
        let h = ring_hash(name.as_bytes());
        let at = self.points.partition_point(|&(p, _)| p < h);
        self.points
            .get(at)
            .or(self.points.first())
            .expect("ring has at least one point")
            .1
    }
}

/// Why a cluster call failed.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster has no nodes (or the last node was removed).
    NoNodes,
    /// The named node is not a cluster member.
    UnknownNode(SocketAddr),
    /// The node is already a member.
    DuplicateNode(SocketAddr),
    /// A wire call to a member failed.
    Client(ClientError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "cluster has no nodes"),
            ClusterError::UnknownNode(a) => write!(f, "no cluster node at {a}"),
            ClusterError::DuplicateNode(a) => write!(f, "node {a} already in cluster"),
            ClusterError::Client(e) => write!(f, "cluster member call failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> Self {
        ClusterError::Client(e)
    }
}

/// One filter moved by a membership change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Filter name.
    pub name: String,
    /// Backend family (from the snapshot).
    pub backend: Backend,
    /// Node it left.
    pub from: SocketAddr,
    /// Node it landed on.
    pub to: SocketAddr,
}

/// What a node add/remove actually shipped.
#[derive(Debug, Clone, Default)]
pub struct MigrationReport {
    /// Filters re-homed (snapshot → blob-CREATE → forget).
    pub moved: Vec<Migration>,
    /// Filters whose owner arc was untouched and stayed put.
    pub retained: usize,
}

struct Node {
    addr: SocketAddr,
    conn: Option<FilterClient>,
}

/// A client-side cluster: consistent-hash routing of named filters
/// across independent filter servers, with snapshot-shipping
/// migration on membership changes.
pub struct ClusterClient {
    nodes: Vec<Node>,
    ring: HashRing,
}

impl ClusterClient {
    /// Assemble a cluster over running servers (connections open
    /// lazily, on first use of each node).
    pub fn new(addrs: Vec<SocketAddr>) -> Result<ClusterClient, ClusterError> {
        if addrs.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let ring = HashRing::build(&addrs, DEFAULT_VNODES);
        Ok(ClusterClient {
            nodes: addrs
                .into_iter()
                .map(|addr| Node { addr, conn: None })
                .collect(),
            ring,
        })
    }

    /// Current member addresses, in join order.
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// The address that owns `name` under the current ring.
    pub fn owner_addr(&self, name: &str) -> SocketAddr {
        self.nodes[self.ring.owner(name)].addr
    }

    fn conn(&mut self, idx: usize) -> Result<&mut FilterClient, ClusterError> {
        let node = &mut self.nodes[idx];
        if node.conn.is_none() {
            node.conn = Some(FilterClient::connect(node.addr).map_err(ClientError::Io)?);
        }
        Ok(node.conn.as_mut().expect("just connected"))
    }

    fn conn_for(&mut self, name: &str) -> Result<&mut FilterClient, ClusterError> {
        let idx = self.ring.owner(name);
        self.conn(idx)
    }

    /// CREATE on the name's owner.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        name: &str,
        backend: Backend,
        capacity: u64,
        eps: f64,
        shard_bits: u32,
        seed: u64,
    ) -> Result<(), ClusterError> {
        Ok(self
            .conn_for(name)?
            .create(name, backend, capacity, eps, shard_bits, seed)?)
    }

    /// INSERT routed to the name's owner.
    pub fn insert(&mut self, name: &str, keys: &[u64]) -> Result<(), ClusterError> {
        Ok(self.conn_for(name)?.insert(name, keys)?)
    }

    /// CONTAINS routed to the name's owner.
    pub fn contains(&mut self, name: &str, keys: &[u64]) -> Result<Vec<bool>, ClusterError> {
        Ok(self.conn_for(name)?.contains(name, keys)?)
    }

    /// COUNT routed to the name's owner.
    pub fn count(&mut self, name: &str, keys: &[u64]) -> Result<Vec<u64>, ClusterError> {
        Ok(self.conn_for(name)?.count(name, keys)?)
    }

    /// DELETE routed to the name's owner.
    pub fn delete(&mut self, name: &str, keys: &[u64]) -> Result<Vec<bool>, ClusterError> {
        Ok(self.conn_for(name)?.delete(name, keys)?)
    }

    /// Send `req` to every node, then read every reply, in node order
    /// (see the module docs, "Fan-out"). A failed send stops sending;
    /// the replies to requests already sent are still read. A
    /// connection that failed to send or receive is dropped and
    /// reconnects lazily on next use. The first error wins.
    fn fan_out(&mut self, req: &Request) -> Result<Vec<Response>, ClusterError> {
        let mut first_err = None;
        let mut sent = 0;
        while sent < self.nodes.len() {
            match self.conn(sent).and_then(|c| Ok(c.send(req)?)) {
                Ok(()) => sent += 1,
                Err(e) => {
                    self.nodes[sent].conn = None;
                    first_err = Some(e);
                    break;
                }
            }
        }
        let mut replies = Vec::with_capacity(sent);
        for node in &mut self.nodes[..sent] {
            let conn = node.conn.as_mut().expect("the request went out on it");
            match conn.recv() {
                Ok(resp) => replies.push(resp),
                Err(e) => {
                    node.conn = None;
                    first_err.get_or_insert(e.into());
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    }

    /// STATS from every member, keyed by address (the union is the
    /// cluster's filter inventory). One fan-out: every node is asked
    /// before any reply is read.
    pub fn stats_all(&mut self) -> Result<BTreeMap<SocketAddr, StatsReport>, ClusterError> {
        let replies = self.fan_out(&Request::Stats)?;
        let mut out = BTreeMap::new();
        for (node, resp) in self.nodes.iter().zip(replies) {
            out.insert(node.addr, FilterClient::expect_stats(resp)?);
        }
        Ok(out)
    }

    /// MULTI_CONTAINS across the whole cluster: every node owns a
    /// disjoint slice of the name space, so the query fans out to
    /// each node's Bloofi index, all nodes at once, and the per-key
    /// name lists are merged (sorted, deduplicated — a name registered
    /// on several nodes still answers once). `out[i]` answers
    /// `keys[i]` over every filter registered anywhere in the
    /// cluster.
    pub fn multi_contains(&mut self, keys: &[u64]) -> Result<Vec<Vec<String>>, ClusterError> {
        let replies = self.fan_out(&Request::MultiContains {
            keys: keys.to_vec(),
        })?;
        let mut merged: Vec<Vec<String>> = vec![Vec::new(); keys.len()];
        for resp in replies {
            let lists = FilterClient::expect_name_lists(resp)?;
            for (m, names) in merged.iter_mut().zip(lists) {
                m.extend(names);
            }
        }
        for m in &mut merged {
            m.sort_unstable();
            m.dedup();
        }
        Ok(merged)
    }

    /// Trace one routed request across the whole cluster: open a
    /// forced root span, run an ordinary cluster-wide
    /// [`multi_contains`](Self::multi_contains) of `key` under it (so
    /// every node records its part under the root), then
    /// [`collect_trace`](Self::collect_trace). The root lasts the
    /// fan-out's wall time, which is what the caller waits. With the
    /// telemetry switch off, or under a trace already active on this
    /// thread, the root is inert and the trace comes back empty.
    pub fn trace_route(&mut self, key: u64) -> Result<Trace, ClusterError> {
        let root = telemetry::trace::begin_forced("cluster:trace_route");
        let trace_id = root.trace_id();
        let t0 = Instant::now();
        let probed = self.multi_contains(&[key]);
        // Close the root even on error so the thread's trace slot is
        // never left dangling.
        root.finish(t0.elapsed(), false, probed.is_err());
        probed?;
        self.collect_trace(trace_id)
    }

    /// Drain one trace from the local store (the client's own spans)
    /// and, through one fan-out, from every node, and merge its spans
    /// into one cross-process [`Trace`] ordered by start time. Other
    /// traces stay where they are. A node stores a request's trace
    /// before it answers, so every call that has returned has
    /// contributed; background spans linked to the trace arrive on
    /// their own schedule, so wait for those
    /// (`TraceStore::peek_spans`) before collecting. Trace id 0 (an
    /// inert root) drains nothing and returns an empty trace.
    pub fn collect_trace(&mut self, trace_id: u64) -> Result<Trace, ClusterError> {
        if trace_id == 0 {
            return Ok(Trace {
                trace_id,
                spans: Vec::new(),
            });
        }
        let mut traces = telemetry::trace::store().take(trace_id);
        for resp in self.fan_out(&Request::Traces { trace_id })? {
            traces.extend(FilterClient::expect_traces(resp)?);
        }
        let mut spans: Vec<SpanRecord> = traces.into_iter().flat_map(|t| t.spans).collect();
        spans.sort_by_key(|s| s.start_us);
        Ok(Trace { trace_id, spans })
    }

    /// Add a member: rebuild the ring, then migrate exactly the
    /// filters whose owner arc moved onto the new node (an expected
    /// `K/N` fraction — the consistent-hashing contract). Filters on
    /// unaffected arcs are not touched, not even re-read.
    pub fn add_node(&mut self, addr: SocketAddr) -> Result<MigrationReport, ClusterError> {
        if self.nodes.iter().any(|n| n.addr == addr) {
            return Err(ClusterError::DuplicateNode(addr));
        }
        self.nodes.push(Node { addr, conn: None });
        let new_ring = HashRing::build(&self.node_addrs(), DEFAULT_VNODES);
        let report = self.rebalance(&new_ring)?;
        self.ring = new_ring;
        Ok(report)
    }

    /// Remove a member: migrate everything it holds to the ring's
    /// remaining owners, then drop it. Other nodes' filters are
    /// untouched (their arcs only grow).
    pub fn remove_node(&mut self, addr: SocketAddr) -> Result<MigrationReport, ClusterError> {
        let Some(pos) = self.nodes.iter().position(|n| n.addr == addr) else {
            return Err(ClusterError::UnknownNode(addr));
        };
        if self.nodes.len() == 1 {
            return Err(ClusterError::NoNodes);
        }
        let remaining: Vec<SocketAddr> = self
            .nodes
            .iter()
            .filter(|n| n.addr != addr)
            .map(|n| n.addr)
            .collect();
        let new_ring = HashRing::build(&remaining, DEFAULT_VNODES);
        // Map new-ring indices to current-node indices before the
        // departing node is spliced out.
        let index_map: Vec<usize> = (0..self.nodes.len()).filter(|&i| i != pos).collect();
        let mut report = MigrationReport::default();
        let rows = self.conn(pos)?.stats()?.filters;
        for row in rows {
            let new_owner = index_map[new_ring.owner(&row.name)];
            report.moved.push(self.migrate(&row.name, pos, new_owner)?);
        }
        self.nodes.remove(pos);
        self.ring = new_ring;
        Ok(report)
    }

    /// Move every filter whose owner changes under `new_ring` (which
    /// must be built over the current `self.nodes` order).
    fn rebalance(&mut self, new_ring: &HashRing) -> Result<MigrationReport, ClusterError> {
        // Snapshot every node's inventory BEFORE any migration: a
        // filter that lands on a later-iterated node must not be
        // re-read and double-counted when that node's turn comes.
        let mut inventory: Vec<(usize, String)> = Vec::new();
        for (idx, resp) in self.fan_out(&Request::Stats)?.into_iter().enumerate() {
            for row in FilterClient::expect_stats(resp)?.filters {
                inventory.push((idx, row.name));
            }
        }
        let mut report = MigrationReport::default();
        for (idx, name) in inventory {
            let new_owner = new_ring.owner(&name);
            if new_owner == idx {
                report.retained += 1;
            } else {
                report.moved.push(self.migrate(&name, idx, new_owner)?);
            }
        }
        Ok(report)
    }

    /// snapshot → blob-CREATE → forget.
    fn migrate(&mut self, name: &str, from: usize, to: usize) -> Result<Migration, ClusterError> {
        let (backend, blob) = self.conn(from)?.snapshot(name)?;
        self.conn(to)?.create_prebuilt(name, backend, blob)?;
        self.conn(from)?.forget(name)?;
        Ok(Migration {
            name: name.to_string(),
            backend,
            from: self.nodes[from].addr,
            to: self.nodes[to].addr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| format!("10.0.0.{}:7000", i + 1).parse().unwrap())
            .collect()
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_nodes() {
        let a = HashRing::build(&addrs(4), 64);
        let b = HashRing::build(&addrs(4), 64);
        let mut seen = [false; 4];
        for i in 0..1_000 {
            let name = format!("filter-{i}");
            assert_eq!(a.owner(&name), b.owner(&name));
            seen[a.owner(&name)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some node owns nothing: {seen:?}");
    }

    #[test]
    fn ring_spreads_load_roughly_evenly() {
        let ring = HashRing::build(&addrs(4), 64);
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[ring.owner(&format!("filter-{i}"))] += 1;
        }
        // With 64 vnodes the per-node share should be within a factor
        // of ~2 of the 2500 ideal.
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (1_000..5_000).contains(&c),
                "node {i} owns {c} of 10000: {counts:?}"
            );
        }
    }

    #[test]
    fn adding_a_node_only_remaps_affected_arcs() {
        // The consistent-hashing contract: going 4 → 5 nodes moves
        // about K/5 of the keys, and every key that moves, moves TO
        // the new node (existing nodes never trade keys among
        // themselves on an add).
        let before = HashRing::build(&addrs(4), 64);
        let after = HashRing::build(&addrs(5), 64);
        let k = 10_000;
        let mut moved = 0;
        for i in 0..k {
            let name = format!("filter-{i}");
            let (b, a) = (before.owner(&name), after.owner(&name));
            if b != a {
                moved += 1;
                assert_eq!(a, 4, "'{name}' moved {b}→{a}, not to the new node");
            }
        }
        // Expected K/5 = 2000; allow generous slack for vnode
        // placement variance.
        assert!(
            (500..4_000).contains(&moved),
            "moved {moved} of {k} on a 4→5 add"
        );
    }

    #[test]
    fn empty_cluster_is_refused() {
        assert!(matches!(
            ClusterClient::new(vec![]),
            Err(ClusterError::NoNodes)
        ));
    }
}
