//! # bloofi — a hierarchical index over many named filters
//!
//! Bloofi (Crainiceanu & Lemire) answers the multi-tenant question
//! "which of my N filters contain key X?" in O(d·log N) probes
//! instead of the flat registry scan's N. The structure is a B-tree
//! whose leaves stand for individual filters and whose interior
//! nodes hold the bitwise OR of their children's Bloom summaries: if
//! a key's probe bits are not covered by an interior node, no filter
//! below it can contain the key, so the whole subtree is pruned.
//!
//! Every node — leaf or interior — carries the same fixed-geometry
//! summary: `node_blocks` register-blocked 256-bit Bloom blocks
//! (the PR 4 representation), hashed with one shared seed. A key
//! selects one block by `h1 % node_blocks` and an 8-bit-lane mask
//! from `h2` ([`filter_core::simd::block_mask_256`]), so an
//! interior-node probe is one mask build plus one `testc`
//! ([`filter_core::simd::covered_256`]) and the OR maintenance is at
//! most four `fetch_or`s, one per word the block does not already
//! cover. Identical geometry at every level is what makes the OR
//! well-defined.
//!
//! Maintenance is incremental: a key insert ORs its mask into the
//! leaf and every ancestor on the root path (no rebuild); filter
//! create/forget split and merge nodes B-tree-style, recomputing
//! summaries bottom-up only along the affected path. A leaf whose
//! key set is unknown (e.g. a filter restored from a snapshot blob)
//! is *saturated* — all summary bits set — which keeps the
//! no-false-negative invariant at the cost of always descending
//! through it.
//!
//! The invariant the probe path relies on: **every node's summary
//! covers the union of the summaries below it** (it may be a strict
//! superset after forgets, never a subset), so a descent can miss no
//! leaf whose filter holds the key. False positives are inherent —
//! an interior node at height h ORs fanout^h leaves' bits, so its
//! occupancy (and FPR) grows with depth until it saturates; the
//! fanout bounds how many such saturated levels exist, and the
//! useful pruning happens in the bottom `log_fanout(capacity/keys)`
//! levels. See DESIGN.md, "Hierarchical filter index".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use filter_core::{prefetch_read, simd, Hasher};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::{StaticGauge, StaticHistogram};

/// Height of the index tree (number of interior levels above the
/// leaves); 1 for an empty or single-level index.
pub static INDEX_DEPTH: StaticGauge = StaticGauge::new(
    "bb_bloofi_depth",
    "Height of the Bloofi index tree (interior levels above leaves).",
);

/// Live nodes (leaves + interiors) in the index tree.
pub static INDEX_NODES: StaticGauge = StaticGauge::new(
    "bb_bloofi_nodes",
    "Live nodes (leaves + interiors) in the Bloofi index tree.",
);

/// Summary probes performed per multi-contains key: the descent
/// width. Flat-scan equivalent would be N; this is the pruning win.
pub static DESCENT_WIDTH: StaticHistogram = StaticHistogram::new(
    "bb_bloofi_descent_width",
    "Bloofi summary probes per multi-contains key (descent width).",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    INDEX_DEPTH.register();
    INDEX_NODES.register();
    DESCENT_WIDTH.register();
}

/// Tree geometry. The defaults suit a service registry: fanout 8
/// keeps the first selective level within ~N/64 nodes, and 64 blocks
/// (2 KiB) per node summary keep grandparent occupancy useful up to
/// a few dozen keys per leaf. Size `node_blocks` so that
/// `fanout² · keys_per_leaf ≲ 32 · node_blocks` if you want two
/// selective interior levels (see crate docs).
#[derive(Clone, Copy, Debug)]
pub struct BloofiConfig {
    /// Maximum children per interior node (d in the paper), ≥ 2.
    pub fanout: usize,
    /// 256-bit Bloom blocks per node summary, ≥ 1.
    pub node_blocks: usize,
    /// Shared hash seed for every summary in the tree.
    pub seed: u64,
}

impl Default for BloofiConfig {
    fn default() -> Self {
        Self {
            fanout: 8,
            node_blocks: 64,
            seed: 0x00b1_00f1,
        }
    }
}

impl BloofiConfig {
    fn normalized(self) -> Self {
        Self {
            fanout: self.fanout.clamp(2, 256),
            node_blocks: self.node_blocks.clamp(1, 1 << 20),
            seed: self.seed,
        }
    }

    /// A detached leaf summary with this config's geometry, for bulk
    /// [`BloofiIndex::build_from`] loading.
    pub fn leaf_summary(&self) -> LeafSummary {
        let cfg = self.normalized();
        LeafSummary {
            blocks: vec![[0u64; 4]; cfg.node_blocks],
            hasher: Hasher::with_seed(cfg.seed),
            saturated: false,
        }
    }
}

/// A leaf's summary built outside the tree (same geometry and seed),
/// consumed by [`BloofiIndex::build_from`] or
/// [`BloofiIndex::add_filter_with`].
#[derive(Clone)]
pub struct LeafSummary {
    blocks: Vec<[u64; 4]>,
    hasher: Hasher,
    saturated: bool,
}

impl LeafSummary {
    /// Record `key` in the summary.
    pub fn insert(&mut self, key: u64) {
        let (h1, h2) = self.hasher.hash_pair(&key);
        let b = (h1 % self.blocks.len() as u64) as usize;
        let mask = simd::block_mask_256(h2 as u32);
        simd::or_into_256(&mut self.blocks[b], &mask);
    }

    /// Set every bit: the summary of a filter whose key set is
    /// unknown (e.g. restored from a snapshot blob). Never produces
    /// a false negative; always descended into.
    pub fn saturate(&mut self) {
        for blk in &mut self.blocks {
            *blk = [u64::MAX; 4];
        }
        self.saturated = true;
    }

    /// Whether [`saturate`](Self::saturate) has been called.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }
}

const NO_NODE: u32 = u32::MAX;

enum NodeKind {
    /// Interior node; `height` 1 means its children are leaves.
    Interior { children: Vec<u32>, height: u32 },
    /// Leaf node standing for one named filter.
    Leaf { name: String },
}

struct Node {
    parent: u32,
    /// Leaves in this subtree (1 for a leaf).
    leaves: u32,
    kind: NodeKind,
}

/// The Bloofi tree: structural data (`nodes`, parent/child links)
/// mutated only under an exclusive borrow, plus a flat summary arena
/// of `AtomicU64` words so key inserts and probes run concurrently
/// under a shared borrow (the service wraps the index in the same
/// `RwLock` discipline as its registry).
pub struct BloofiIndex {
    fanout: usize,
    node_blocks: usize,
    /// Arena words per node (`node_blocks * 4`).
    words: usize,
    hasher: Hasher,
    nodes: Vec<Option<Node>>,
    free: Vec<u32>,
    /// Node `i`'s summary occupies words `[i*words, (i+1)*words)`.
    summaries: Vec<AtomicU64>,
    root: u32,
    leaves: BTreeMap<String, u32>,
}

impl BloofiIndex {
    /// An empty index with the given geometry.
    pub fn new(cfg: BloofiConfig) -> Self {
        let mut idx = Self::shell(cfg);
        idx.root = idx.alloc(Node {
            parent: NO_NODE,
            leaves: 0,
            kind: NodeKind::Interior {
                children: Vec::new(),
                height: 1,
            },
        });
        idx
    }

    fn shell(cfg: BloofiConfig) -> Self {
        let cfg = cfg.normalized();
        Self {
            fanout: cfg.fanout,
            node_blocks: cfg.node_blocks,
            words: cfg.node_blocks * 4,
            hasher: Hasher::with_seed(cfg.seed),
            nodes: Vec::new(),
            free: Vec::new(),
            summaries: Vec::new(),
            root: NO_NODE,
            leaves: BTreeMap::new(),
        }
    }

    /// Bulk constructor: load an existing registry in one pass. The
    /// tree is built bottom-up in fanout-sized groups (every leaf at
    /// equal depth, each interior summary the exact OR of its
    /// children), which is O(N · node_blocks) — far cheaper than N
    /// incremental inserts and yields a balanced tree. Duplicate
    /// names keep the first occurrence.
    pub fn build_from<I>(cfg: BloofiConfig, entries: I) -> Self
    where
        I: IntoIterator<Item = (String, LeafSummary)>,
    {
        let mut idx = Self::shell(cfg);
        let mut level: Vec<u32> = Vec::new();
        for (name, summary) in entries {
            if idx.leaves.contains_key(&name) {
                continue;
            }
            let id = idx.alloc(Node {
                parent: NO_NODE,
                leaves: 1,
                kind: NodeKind::Leaf { name: name.clone() },
            });
            assert_eq!(
                summary.blocks.len(),
                idx.node_blocks,
                "LeafSummary geometry must match BloofiConfig::leaf_summary"
            );
            let base = idx.base(id);
            for (w, blk) in summary.blocks.iter().enumerate() {
                for (j, &v) in blk.iter().enumerate() {
                    idx.summaries[base + w * 4 + j].store(v, Ordering::Relaxed);
                }
            }
            idx.leaves.insert(name, id);
            level.push(id);
        }
        let mut height = 1u32;
        loop {
            let mut next = Vec::with_capacity(level.len().div_ceil(idx.fanout.max(1)));
            if level.is_empty() {
                let id = idx.alloc(Node {
                    parent: NO_NODE,
                    leaves: 0,
                    kind: NodeKind::Interior {
                        children: Vec::new(),
                        height,
                    },
                });
                next.push(id);
            }
            for chunk in level.chunks(idx.fanout) {
                let leaves = chunk.iter().map(|&c| idx.node(c).leaves).sum();
                let id = idx.alloc(Node {
                    parent: NO_NODE,
                    leaves,
                    kind: NodeKind::Interior {
                        children: chunk.to_vec(),
                        height,
                    },
                });
                for &c in chunk {
                    idx.node_mut(c).parent = id;
                }
                idx.recompute_summary(id);
                next.push(id);
            }
            if next.len() == 1 {
                idx.root = next[0];
                return idx;
            }
            level = next;
            height += 1;
        }
    }

    // ------------------------------------------------------- arena

    fn node(&self, id: u32) -> &Node {
        self.nodes[id as usize].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: u32) -> &mut Node {
        self.nodes[id as usize].as_mut().expect("live node")
    }

    #[inline]
    fn base(&self, id: u32) -> usize {
        id as usize * self.words
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(id) = self.free.pop() {
            let base = self.base(id);
            for w in 0..self.words {
                self.summaries[base + w].store(0, Ordering::Relaxed);
            }
            self.nodes[id as usize] = Some(node);
            id
        } else {
            let id = u32::try_from(self.nodes.len()).expect("node id fits u32");
            self.nodes.push(Some(node));
            self.summaries
                .extend(std::iter::repeat_with(|| AtomicU64::new(0)).take(self.words));
            id
        }
    }

    fn release(&mut self, id: u32) {
        self.nodes[id as usize] = None;
        self.free.push(id);
    }

    #[inline]
    fn load_block(&self, id: u32, b: usize) -> [u64; 4] {
        let at = self.base(id) + b * 4;
        [
            self.summaries[at].load(Ordering::Relaxed),
            self.summaries[at + 1].load(Ordering::Relaxed),
            self.summaries[at + 2].load(Ordering::Relaxed),
            self.summaries[at + 3].load(Ordering::Relaxed),
        ]
    }

    /// OR `mask` into block `b` of node `id`, skipping every word that
    /// already covers its part of the mask (on a busy index nearly all
    /// of them: upper levels saturate, and leaves fill up). A skipped
    /// word is as good as a `fetch_or` for every reader ordered after
    /// this call:
    ///
    /// - Under a shared borrow a summary word only gains bits: the
    ///   writers are `fetch_or` here and the all-ones stores of
    ///   [`saturate_filter`](Self::saturate_filter). Stores that can
    ///   clear bits (recompute, node reuse, bulk load) need `&mut
    ///   self`, i.e. the exclusive lock, and a recompute rewrites a
    ///   node as the OR of its children, which still covers the mask.
    /// - So every value after the one this load saw, in the word's
    ///   modification order, covers the mask too.
    /// - Read-read coherence: a load that happens after this load
    ///   reads that value or a later one.
    ///
    /// A reader ordered after the insert (its acknowledgement, any
    /// `Release`/`Acquire` edge) therefore sees the mask's bits, just
    /// as it would see the `fetch_or`'s.
    #[inline]
    fn or_block(&self, id: u32, b: usize, mask: &[u64; 4]) {
        let at = self.base(id) + b * 4;
        for (word, &m) in self.summaries[at..at + 4].iter().zip(mask) {
            if word.load(Ordering::Relaxed) & m != m {
                word.fetch_or(m, Ordering::Relaxed);
            }
        }
    }

    /// Exact OR of an interior node's children, replacing whatever
    /// the summary held (this is how stale bits from forgets are
    /// shed along the recompute path).
    fn recompute_summary(&mut self, id: u32) {
        let children = match &self.node(id).kind {
            NodeKind::Interior { children, .. } => children.clone(),
            NodeKind::Leaf { .. } => return,
        };
        let base = self.base(id);
        for w in 0..self.words {
            let mut acc = 0u64;
            for &c in &children {
                acc |= self.summaries[self.base(c) + w].load(Ordering::Relaxed);
            }
            self.summaries[base + w].store(acc, Ordering::Relaxed);
        }
    }

    #[inline]
    fn mask_for(&self, key: u64) -> (usize, [u64; 4]) {
        let (h1, h2) = self.hasher.hash_pair(&key);
        (
            (h1 % self.node_blocks as u64) as usize,
            simd::block_mask_256(h2 as u32),
        )
    }

    fn root_path(&self, leaf: u32) -> Vec<u32> {
        let mut path = Vec::with_capacity(8);
        let mut n = leaf;
        loop {
            path.push(n);
            let p = self.node(n).parent;
            if p == NO_NODE {
                return path;
            }
            n = p;
        }
    }

    // ------------------------------------------- incremental writes

    /// OR each key's mask into the named leaf and every ancestor on
    /// its root path — the no-rebuild maintenance step, safe under a
    /// shared borrow concurrently with probes. Returns `false` if
    /// the filter is not indexed.
    pub fn insert_keys(&self, name: &str, keys: &[u64]) -> bool {
        let Some(&leaf) = self.leaves.get(name) else {
            return false;
        };
        let path = self.root_path(leaf);
        for &key in keys {
            let (b, mask) = self.mask_for(key);
            for &id in &path {
                self.or_block(id, b, &mask);
            }
        }
        true
    }

    /// Saturate the named leaf (and, necessarily, its root path):
    /// used when a filter's key set is unknown, e.g. after a
    /// snapshot-blob restore. Returns `false` if not indexed.
    pub fn saturate_filter(&self, name: &str) -> bool {
        let Some(&leaf) = self.leaves.get(name) else {
            return false;
        };
        for &id in &self.root_path(leaf) {
            let base = self.base(id);
            for w in 0..self.words {
                self.summaries[base + w].store(u64::MAX, Ordering::Relaxed);
            }
        }
        true
    }

    // ------------------------------------------- structural writes

    /// Index a new filter with an empty summary (keys arrive via
    /// [`insert_keys`](Self::insert_keys)). Returns `false` if the
    /// name is already indexed.
    pub fn add_filter(&mut self, name: &str) -> bool {
        self.add_filter_with(name, None)
    }

    /// Index a new filter with a prebuilt summary (or empty when
    /// `None`). The new leaf goes under the least-loaded bottom
    /// interior node; overfull nodes split B-tree-style, halving
    /// their children into a sibling and growing the root when the
    /// split propagates all the way up — so all leaves stay at equal
    /// depth.
    pub fn add_filter_with(&mut self, name: &str, summary: Option<&LeafSummary>) -> bool {
        if self.leaves.contains_key(name) {
            return false;
        }
        // Descend to a height-1 interior, following the lightest
        // subtree to keep the tree balanced without global rebuilds.
        let mut n = self.root;
        loop {
            let NodeKind::Interior { children, height } = &self.node(n).kind else {
                unreachable!("descent visits interior nodes only")
            };
            if *height == 1 {
                break;
            }
            let next = children
                .iter()
                .copied()
                .min_by_key(|&c| self.node(c).leaves)
                .expect("interior nodes above height 1 have children");
            n = next;
        }
        let leaf = self.alloc(Node {
            parent: n,
            leaves: 1,
            kind: NodeKind::Leaf {
                name: name.to_string(),
            },
        });
        if let Some(s) = summary {
            assert_eq!(
                s.blocks.len(),
                self.node_blocks,
                "LeafSummary geometry must match BloofiConfig::leaf_summary"
            );
            let base = self.base(leaf);
            for (w, blk) in s.blocks.iter().enumerate() {
                for (j, &v) in blk.iter().enumerate() {
                    self.summaries[base + w * 4 + j].store(v, Ordering::Relaxed);
                }
            }
        }
        self.leaves.insert(name.to_string(), leaf);
        match &mut self.node_mut(n).kind {
            NodeKind::Interior { children, .. } => children.push(leaf),
            NodeKind::Leaf { .. } => unreachable!(),
        }
        // Bump subtree leaf counts and OR the (possibly non-empty)
        // new summary into every ancestor.
        let leaf_base = self.base(leaf);
        let path = self.root_path(n);
        for &id in &path {
            self.node_mut(id).leaves += 1;
            if summary.is_some() {
                let base = self.base(id);
                for w in 0..self.words {
                    let v = self.summaries[leaf_base + w].load(Ordering::Relaxed);
                    if v != 0 {
                        self.summaries[base + w].fetch_or(v, Ordering::Relaxed);
                    }
                }
            }
        }
        self.split_up(n);
        true
    }

    /// Split `n` if overfull, propagating upward; grows a new root
    /// when the old root itself splits.
    fn split_up(&mut self, mut n: u32) {
        loop {
            let (len, height) = match &self.node(n).kind {
                NodeKind::Interior { children, height } => (children.len(), *height),
                NodeKind::Leaf { .. } => return,
            };
            if len <= self.fanout {
                return;
            }
            // Halve: keep the first half in place, move the rest to
            // a fresh sibling under the same parent.
            let moved = match &mut self.node_mut(n).kind {
                NodeKind::Interior { children, .. } => children.split_off(len / 2),
                NodeKind::Leaf { .. } => unreachable!(),
            };
            let moved_leaves: u32 = moved.iter().map(|&c| self.node(c).leaves).sum();
            self.node_mut(n).leaves -= moved_leaves;
            let parent = self.node(n).parent;
            let sib = self.alloc(Node {
                parent,
                leaves: moved_leaves,
                kind: NodeKind::Interior {
                    children: moved.clone(),
                    height,
                },
            });
            for &c in &moved {
                self.node_mut(c).parent = sib;
            }
            // The parent's summary is unchanged (same union, split
            // differently); both halves need exact recomputes.
            self.recompute_summary(n);
            self.recompute_summary(sib);
            if parent == NO_NODE {
                let total = self.node(n).leaves + moved_leaves;
                let new_root = self.alloc(Node {
                    parent: NO_NODE,
                    leaves: total,
                    kind: NodeKind::Interior {
                        children: vec![n, sib],
                        height: height + 1,
                    },
                });
                self.node_mut(n).parent = new_root;
                self.node_mut(sib).parent = new_root;
                self.root = new_root;
                self.recompute_summary(new_root);
                return;
            }
            match &mut self.node_mut(parent).kind {
                NodeKind::Interior { children, .. } => children.push(sib),
                NodeKind::Leaf { .. } => unreachable!(),
            }
            n = parent;
        }
    }

    /// Drop a filter from the index. Emptied interior nodes are
    /// pruned, an underfull survivor donates its children to a
    /// sibling with room (the B-tree merge), a root left with a
    /// single interior child collapses into it (shrinking depth),
    /// and summaries are recomputed bottom-up along the affected
    /// path so the stale bits of the departed leaf are shed.
    /// Returns `false` if the name was not indexed.
    pub fn remove_filter(&mut self, name: &str) -> bool {
        let Some(leaf) = self.leaves.remove(name) else {
            return false;
        };
        let parent = self.node(leaf).parent;
        match &mut self.node_mut(parent).kind {
            NodeKind::Interior { children, .. } => children.retain(|&c| c != leaf),
            NodeKind::Leaf { .. } => unreachable!(),
        }
        self.release(leaf);
        for &id in &self.root_path(parent) {
            self.node_mut(id).leaves -= 1;
        }
        // Prune now-empty interiors upward.
        let mut fix = parent;
        while fix != self.root {
            let empty = matches!(&self.node(fix).kind,
                NodeKind::Interior { children, .. } if children.is_empty());
            if !empty {
                break;
            }
            let p = self.node(fix).parent;
            match &mut self.node_mut(p).kind {
                NodeKind::Interior { children, .. } => children.retain(|&c| c != fix),
                NodeKind::Leaf { .. } => unreachable!(),
            }
            self.release(fix);
            fix = p;
        }
        if fix == self.root {
            if let NodeKind::Interior { children, height } = &mut self.node_mut(self.root).kind {
                if children.is_empty() {
                    *height = 1;
                }
            }
        }
        let fix = self.merge_underfull(fix);
        // Collapse a chain-of-one root to shrink depth.
        loop {
            let child = match &self.node(self.root).kind {
                NodeKind::Interior { children, .. } if children.len() == 1 => children[0],
                _ => break,
            };
            if matches!(self.node(child).kind, NodeKind::Leaf { .. }) {
                break;
            }
            let old = self.root;
            self.release(old);
            self.node_mut(child).parent = NO_NODE;
            self.root = child;
        }
        // Shed the departed leaf's bits: exact recompute up the
        // surviving path.
        let mut m = if self.nodes[fix as usize].is_some() {
            fix
        } else {
            self.root
        };
        loop {
            self.recompute_summary(m);
            let p = self.node(m).parent;
            if p == NO_NODE {
                break;
            }
            m = p;
        }
        true
    }

    /// If `n` is a non-root interior holding fewer than
    /// `max(2, fanout/4)` children, move them all into a sibling
    /// with room and prune `n`. Returns the node the caller should
    /// recompute summaries up from: `n` if it survived, its parent
    /// if the merge freed it.
    fn merge_underfull(&mut self, n: u32) -> u32 {
        if n == self.root || self.nodes[n as usize].is_none() {
            return n;
        }
        let (len, parent) = match &self.node(n).kind {
            NodeKind::Interior { children, .. } => (children.len(), self.node(n).parent),
            NodeKind::Leaf { .. } => return n,
        };
        if len == 0 || len >= (self.fanout / 4).max(2) {
            return n;
        }
        let siblings = match &self.node(parent).kind {
            NodeKind::Interior { children, .. } => children.clone(),
            NodeKind::Leaf { .. } => unreachable!(),
        };
        let Some(target) = siblings.iter().copied().find(|&s| {
            s != n
                && matches!(&self.node(s).kind,
                    NodeKind::Interior { children, .. } if children.len() + len <= self.fanout)
        }) else {
            return n;
        };
        let moved = match &mut self.node_mut(n).kind {
            NodeKind::Interior { children, .. } => std::mem::take(children),
            NodeKind::Leaf { .. } => unreachable!(),
        };
        let moved_leaves: u32 = moved.iter().map(|&c| self.node(c).leaves).sum();
        for &c in &moved {
            self.node_mut(c).parent = target;
        }
        match &mut self.node_mut(target).kind {
            NodeKind::Interior { children, .. } => children.extend_from_slice(&moved),
            NodeKind::Leaf { .. } => unreachable!(),
        }
        self.node_mut(target).leaves += moved_leaves;
        match &mut self.node_mut(parent).kind {
            NodeKind::Interior { children, .. } => children.retain(|&c| c != n),
            NodeKind::Leaf { .. } => unreachable!(),
        }
        self.release(n);
        self.recompute_summary(target);
        parent
    }

    // ---------------------------------------------------- probing

    /// Which leaves might contain each key of a (≤ 32-key) chunk?
    /// Hash-hoists one `(block, mask)` per key up front, then walks
    /// the tree per key: descend from the root, testing each child's
    /// OR summary with a fused pair fast-reject
    /// ([`simd::covered_pair_256_at`]) over sibling pairs and
    /// prefetching passing children's next-level summaries one level
    /// ahead. `out` is reset to one `Vec` of candidate leaf ids per
    /// key (resolve names with [`leaf_name`](Self::leaf_name)); the
    /// descent-width histogram records probes per key.
    pub fn multi_contains_chunk(&self, keys: &[u64], out: &mut Vec<Vec<u32>>) {
        let descent_sp = telemetry::trace::span("bloofi:descent");
        let mut total_probes = 0u64;
        out.resize_with(keys.len(), Vec::new);
        for v in out.iter_mut() {
            v.clear();
        }
        let level = simd::active_level();
        let masks: Vec<(usize, [u64; 4])> = keys.iter().map(|&k| self.mask_for(k)).collect();
        let mut frontier: Vec<u32> = Vec::new();
        let mut next: Vec<u32> = Vec::new();
        for (ki, &(b, mask)) in masks.iter().enumerate() {
            let matches = &mut out[ki];
            frontier.clear();
            frontier.push(self.root);
            let mut probes = 0u64;
            while !frontier.is_empty() {
                next.clear();
                for &id in &frontier {
                    let NodeKind::Interior { children, .. } = &self.node(id).kind else {
                        unreachable!("frontier holds interior nodes only")
                    };
                    for &c in children {
                        prefetch_read(&self.summaries, self.base(c) + b * 4);
                    }
                    let mut visit = |c: u32| {
                        match &self.node(c).kind {
                            NodeKind::Leaf { .. } => matches.push(c),
                            NodeKind::Interior { children: gc, .. } => {
                                next.push(c);
                                // One level ahead: start pulling the
                                // grandchildren's lines now.
                                for &g in gc {
                                    prefetch_read(&self.summaries, self.base(g) + b * 4);
                                }
                            }
                        }
                    };
                    let mut it = children.chunks_exact(2);
                    for pair_ids in it.by_ref() {
                        let pair = [
                            self.load_block(pair_ids[0], b),
                            self.load_block(pair_ids[1], b),
                        ];
                        probes += 2;
                        // Fused reject: one 512-bit test covers both
                        // siblings; only a pass pays two exact tests.
                        if !simd::covered_pair_256_at(level, &pair, &mask) {
                            continue;
                        }
                        if simd::covered_256_at(level, &pair[0], &mask) {
                            visit(pair_ids[0]);
                        }
                        if simd::covered_256_at(level, &pair[1], &mask) {
                            visit(pair_ids[1]);
                        }
                    }
                    if let [c] = it.remainder() {
                        probes += 1;
                        let blk = self.load_block(*c, b);
                        if simd::covered_256_at(level, &blk, &mask) {
                            visit(*c);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
            }
            DESCENT_WIDTH.observe(probes);
            total_probes += probes;
        }
        descent_sp.annotate(u64::from(self.depth()), total_probes);
    }

    /// Candidate leaves for a single key (convenience wrapper over
    /// the chunk kernel).
    pub fn lookup(&self, key: u64) -> Vec<u32> {
        let mut out = Vec::new();
        self.multi_contains_chunk(&[key], &mut out);
        out.pop().unwrap_or_default()
    }

    // -------------------------------------------------- accessors

    /// The filter name a candidate leaf id stands for.
    pub fn leaf_name(&self, id: u32) -> &str {
        match &self.node(id).kind {
            NodeKind::Leaf { name } => name,
            NodeKind::Interior { .. } => unreachable!("candidate ids are leaves"),
        }
    }

    /// Is this filter indexed?
    pub fn contains_filter(&self, name: &str) -> bool {
        self.leaves.contains_key(name)
    }

    /// The geometry this index was built with (rebuild an equivalent
    /// index or mint compatible [`LeafSummary`] builders from it).
    pub fn config(&self) -> BloofiConfig {
        BloofiConfig {
            fanout: self.fanout,
            node_blocks: self.node_blocks,
            seed: self.hasher.seed(),
        }
    }

    /// Indexed filter count.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when no filters are indexed.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Tree height: interior levels above the leaves.
    pub fn depth(&self) -> u32 {
        match &self.node(self.root).kind {
            NodeKind::Interior { height, .. } => *height,
            NodeKind::Leaf { .. } => 0,
        }
    }

    /// Live nodes (leaves + interiors).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Heap footprint of the summary arena plus structural data.
    pub fn size_in_bytes(&self) -> usize {
        self.summaries.len() * 8
            + self.nodes.capacity() * std::mem::size_of::<Option<Node>>()
            + self
                .leaves
                .keys()
                .map(|k| k.len() + std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// Publish the depth/node-count gauges; the service calls this
    /// after every structural change.
    pub fn publish_gauges(&self) {
        INDEX_DEPTH.add(i64::from(self.depth()) - INDEX_DEPTH.get());
        INDEX_NODES.add(self.node_count() as i64 - INDEX_NODES.get());
    }

    /// Structural self-check for tests: parent links, subtree leaf
    /// counts, uniform leaf depth, bounded fanout, and the covering
    /// invariant (every parent summary is a superset of each child's
    /// — possibly strict after forgets, never smaller). Panics on
    /// violation.
    pub fn check_invariants(&self) {
        let mut seen_leaves = 0usize;
        let root_height = self.depth();
        assert!(root_height >= 1, "root must be interior");
        let mut stack = vec![(self.root, root_height)];
        while let Some((id, expect_height)) = stack.pop() {
            match &self.node(id).kind {
                NodeKind::Leaf { name } => {
                    assert_eq!(expect_height, 0, "all leaves at equal depth");
                    assert_eq!(self.leaves.get(name), Some(&id), "leaf map coherent");
                    assert_eq!(self.node(id).leaves, 1);
                    seen_leaves += 1;
                }
                NodeKind::Interior { children, height } => {
                    assert_eq!(*height, expect_height, "height field consistent");
                    assert!(children.len() <= self.fanout, "fanout bound");
                    if id != self.root {
                        assert!(!children.is_empty(), "no empty non-root interiors");
                    }
                    let mut leaves = 0;
                    for &c in children {
                        assert_eq!(self.node(c).parent, id, "parent link");
                        leaves += self.node(c).leaves;
                        let (cb, pb) = (self.base(c), self.base(id));
                        for w in 0..self.words {
                            let cv = self.summaries[cb + w].load(Ordering::Relaxed);
                            let pv = self.summaries[pb + w].load(Ordering::Relaxed);
                            assert_eq!(pv | cv, pv, "parent summary covers child");
                        }
                        stack.push((c, expect_height - 1));
                    }
                    assert_eq!(self.node(id).leaves, leaves, "subtree leaf count");
                }
            }
        }
        assert_eq!(seen_leaves, self.leaves.len(), "every leaf reachable");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BloofiConfig {
        BloofiConfig {
            fanout: 4,
            node_blocks: 8,
            seed: 7,
        }
    }

    fn names(idx: &BloofiIndex, ids: &[u32]) -> Vec<String> {
        let mut v: Vec<String> = ids.iter().map(|&i| idx.leaf_name(i).to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn empty_index_answers_nothing() {
        let idx = BloofiIndex::new(cfg());
        assert!(idx.is_empty());
        assert!(idx.lookup(42).is_empty());
        idx.check_invariants();
    }

    #[test]
    fn inserted_keys_are_always_found() {
        let mut idx = BloofiIndex::new(cfg());
        for i in 0..64 {
            assert!(idx.add_filter(&format!("f{i}")));
        }
        assert!(!idx.add_filter("f0"), "duplicate rejected");
        for i in 0..64u64 {
            assert!(idx.insert_keys(&format!("f{i}"), &[i * 1000 + 1, i * 1000 + 2]));
        }
        idx.check_invariants();
        assert!(idx.depth() >= 2, "64 filters at fanout 4 must split");
        for i in 0..64u64 {
            let name = format!("f{i}");
            for key in [i * 1000 + 1, i * 1000 + 2] {
                let got = names(&idx, &idx.lookup(key));
                assert!(got.contains(&name), "no false negatives: {name} {key}");
            }
        }
    }

    #[test]
    fn forget_sheds_bits_and_merges() {
        let mut idx = BloofiIndex::new(cfg());
        for i in 0..32 {
            idx.add_filter(&format!("f{i}"));
            idx.insert_keys(&format!("f{i}"), &[i]);
        }
        let deep = idx.depth();
        for i in 0..31 {
            assert!(idx.remove_filter(&format!("f{i}")));
            idx.check_invariants();
        }
        assert!(!idx.remove_filter("f0"), "double forget rejected");
        assert_eq!(idx.len(), 1);
        assert!(idx.depth() <= deep, "depth shrinks back");
        // The lone survivor is still found; bits of the forgotten
        // leaves were recomputed away, so most old keys now miss.
        assert_eq!(names(&idx, &idx.lookup(31)), vec!["f31".to_string()]);
        let stale = (0..31u64).filter(|&k| !idx.lookup(k).is_empty()).count();
        assert!(stale <= 8, "stale bits shed (got {stale} residual hits)");
    }

    #[test]
    fn saturated_leaf_matches_everything() {
        let mut idx = BloofiIndex::new(cfg());
        idx.add_filter("known");
        idx.add_filter("blob");
        idx.insert_keys("known", &[1]);
        assert!(idx.saturate_filter("blob"));
        for key in [1u64, 999, 123_456] {
            let got = names(&idx, &idx.lookup(key));
            assert!(
                got.contains(&"blob".to_string()),
                "saturated always matches"
            );
        }
        idx.check_invariants();
    }

    #[test]
    fn build_from_matches_incremental() {
        let base = cfg();
        let n = 100u64;
        let mut entries = Vec::new();
        let mut incremental = BloofiIndex::new(base);
        for i in 0..n {
            let name = format!("f{i}");
            let mut s = base.leaf_summary();
            s.insert(i);
            s.insert(i + 10_000);
            entries.push((name.clone(), s));
            incremental.add_filter(&name);
            incremental.insert_keys(&name, &[i, i + 10_000]);
        }
        let bulk = BloofiIndex::build_from(base, entries);
        bulk.check_invariants();
        assert_eq!(bulk.len(), n as usize);
        for i in 0..n {
            let name = format!("f{i}");
            for key in [i, i + 10_000] {
                assert!(names(&bulk, &bulk.lookup(key)).contains(&name));
                assert!(names(&incremental, &incremental.lookup(key)).contains(&name));
            }
        }
    }

    #[test]
    fn build_from_empty_and_single() {
        let empty = BloofiIndex::build_from(cfg(), Vec::new());
        empty.check_invariants();
        assert!(empty.lookup(1).is_empty());
        let mut s = cfg().leaf_summary();
        s.insert(5);
        let one = BloofiIndex::build_from(cfg(), vec![("only".to_string(), s)]);
        one.check_invariants();
        assert_eq!(names(&one, &one.lookup(5)), vec!["only".to_string()]);
    }

    #[test]
    fn chunked_lookup_matches_single() {
        let mut idx = BloofiIndex::new(BloofiConfig::default());
        for i in 0..200u64 {
            idx.add_filter(&format!("f{i}"));
            idx.insert_keys(&format!("f{i}"), &[i, i + 7000]);
        }
        let keys: Vec<u64> = (0..300).map(|i| i * 37).collect();
        let mut chunked = Vec::new();
        idx.multi_contains_chunk(&keys, &mut chunked);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(names(&idx, &chunked[i]), names(&idx, &idx.lookup(k)));
        }
    }

    #[test]
    fn pruning_beats_flat_probe_count() {
        // At 512 filters with a handful of keys each, the descent
        // width must be far below N — the whole point of the tree.
        let mut idx = BloofiIndex::new(BloofiConfig {
            fanout: 8,
            node_blocks: 64,
            seed: 3,
        });
        for i in 0..512u64 {
            idx.add_filter(&format!("f{i}"));
            let keys: Vec<u64> = (0..16).map(|j| i * 1_000 + j).collect();
            idx.insert_keys(&format!("f{i}"), &keys);
        }
        idx.check_invariants();
        let got = names(&idx, &idx.lookup(100_000 + 3));
        assert!(got.contains(&"f100".to_string()));
    }
}
