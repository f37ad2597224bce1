//! Scalable (chained) Bloom filter (Almeida et al., IPL 2007).
//!
//! The tutorial's §2.2 baseline for expansion: when a filter fills, a
//! new, geometrically larger filter with a geometrically *tighter* FPR
//! is appended to a chain. The compound FPR stays bounded by
//! `ε·1/(1-r)`, but **queries must probe every stage**, so query cost
//! grows with the chain length — the drawback experiment E5 measures.
//! [`ScalableBloomFilter::probe_cost`] exposes the stage count touched
//! per query for that experiment.

use crate::plain::BloomFilter;
use filter_core::{BatchedFilter, Filter, Hasher, InsertFilter, Result, PROBE_CHUNK};

/// A chain of Bloom filters with geometric growth.
#[derive(Debug, Clone)]
pub struct ScalableBloomFilter {
    stages: Vec<BloomFilter>,
    stage_capacity: Vec<usize>,
    stage_items: Vec<usize>,
    growth: usize,
    tightening: f64,
    base_eps: f64,
    hasher: Hasher,
    items: usize,
}

impl ScalableBloomFilter {
    /// Create with an initial stage for `initial_capacity` keys at
    /// compound FPR target `eps`. Each new stage is `growth`× larger
    /// (classically 2) with FPR tightened by `tightening` (0.5).
    pub fn new(initial_capacity: usize, eps: f64) -> Self {
        Self::with_params(initial_capacity, eps, 2, 0.5, 0)
    }

    /// Full-parameter constructor.
    pub fn with_params(
        initial_capacity: usize,
        eps: f64,
        growth: usize,
        tightening: f64,
        seed: u64,
    ) -> Self {
        assert!(growth >= 2);
        assert!(tightening > 0.0 && tightening < 1.0);
        // Stage 0 gets ε·(1−r) so the geometric series sums to ε.
        let stage0_eps = eps * (1.0 - tightening);
        let hasher = Hasher::with_seed(seed);
        ScalableBloomFilter {
            stages: vec![BloomFilter::with_seed(
                initial_capacity,
                stage0_eps,
                hasher.derive(0).seed(),
            )],
            stage_capacity: vec![initial_capacity],
            stage_items: vec![0],
            growth,
            tightening,
            base_eps: stage0_eps,
            hasher,
            items: 0,
        }
    }

    /// Number of chained stages (grows as data grows).
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of stages a (negative) query must probe — the E5 cost
    /// metric. Positive queries may stop early on a hit; negatives
    /// always touch every stage.
    pub fn probe_cost(&self) -> usize {
        self.stages.len()
    }

    fn add_stage(&mut self) {
        let i = self.stages.len();
        let cap = self.stage_capacity.last().unwrap() * self.growth;
        let eps = self.base_eps * self.tightening.powi(i as i32);
        self.stages.push(BloomFilter::with_seed(
            cap,
            eps,
            self.hasher.derive(i as u64).seed(),
        ));
        self.stage_capacity.push(cap);
        self.stage_items.push(0);
        crate::SCALABLE_EXPANSIONS.inc();
        crate::SCALABLE_STAGE_CAPACITY.observe(cap as u64);
    }
}

impl Filter for ScalableBloomFilter {
    fn contains(&self, key: u64) -> bool {
        // Newest stage first: recent keys live there.
        self.stages.iter().rev().any(|s| s.contains(key))
    }

    fn len(&self) -> usize {
        self.items
    }

    fn size_in_bytes(&self) -> usize {
        self.stages.iter().map(|s| s.size_in_bytes()).sum()
    }
}

impl BatchedFilter for ScalableBloomFilter {
    /// Per-stage delegation: each stage's pipelined kernel runs over
    /// the whole chunk (newest stage first, where recent keys live)
    /// and the per-stage verdicts are OR-folded — the batch shape of
    /// the scalar `any` over stages. Stops early once every key in
    /// the chunk has resolved positive; negative chunks touch every
    /// stage, exactly the E5 cost the scalar path pays.
    fn contains_chunk(&self, keys: &[u64], out: &mut [bool]) {
        debug_assert!(keys.len() <= PROBE_CHUNK && keys.len() == out.len());
        out.fill(false);
        let mut tmp = [false; PROBE_CHUNK];
        for stage in self.stages.iter().rev() {
            stage.contains_chunk(keys, &mut tmp[..keys.len()]);
            let mut all_hit = true;
            for (o, &t) in out.iter_mut().zip(&tmp[..keys.len()]) {
                *o |= t;
                all_hit &= *o;
            }
            if all_hit {
                return;
            }
        }
    }
}

impl InsertFilter for ScalableBloomFilter {
    fn insert(&mut self, key: u64) -> Result<()> {
        let last = self.stages.len() - 1;
        if self.stage_items[last] >= self.stage_capacity[last] {
            self.add_stage();
        }
        let last = self.stages.len() - 1;
        self.stages[last].insert(key)?;
        self.stage_items[last] += 1;
        self.items += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{disjoint_keys, unique_keys};

    #[test]
    fn grows_and_keeps_no_false_negatives() {
        let keys = unique_keys(50, 40_000);
        let mut f = ScalableBloomFilter::new(1_000, 0.01);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        assert!(f.stages() >= 5, "only {} stages", f.stages());
        assert!(keys.iter().all(|&k| f.contains(k)));
    }

    #[test]
    fn compound_fpr_stays_bounded() {
        let keys = unique_keys(51, 30_000);
        let mut f = ScalableBloomFilter::new(1_000, 0.01);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let neg = disjoint_keys(52, 30_000, &keys);
        let fpr = neg.iter().filter(|&&k| f.contains(k)).count() as f64 / 30_000.0;
        // Series bound: ε = 0.01 compound even after many stages.
        assert!(fpr < 0.02, "fpr {fpr}");
    }

    #[test]
    fn probe_cost_grows_with_data() {
        let mut f = ScalableBloomFilter::new(100, 0.01);
        assert_eq!(f.probe_cost(), 1);
        for k in 0..10_000u64 {
            f.insert(k).unwrap();
        }
        assert!(f.probe_cost() >= 5, "probe cost {}", f.probe_cost());
    }

    #[test]
    fn growth_is_geometric() {
        let mut f = ScalableBloomFilter::new(100, 0.01);
        for k in 0..100_000u64 {
            f.insert(k).unwrap();
        }
        // 100·2^s ≥ 100_000 → s ≈ 10, not 1000 (linear chains would
        // explode).
        assert!(f.stages() <= 12, "{} stages", f.stages());
    }
}
