//! # filter-core
//!
//! Shared kernel for the `beyond-bloom` workspace — a comprehensive
//! Rust implementation of the filter landscape surveyed in *Beyond
//! Bloom: A Tutorial on Future Feature-Rich Filters* (SIGMOD 2024).
//!
//! This crate provides the pieces every filter shares:
//!
//! - [`hash`] — seeded wyhash-style 64-bit hashing, fingerprint
//!   derivation, and the quotienting split used by all
//!   fingerprint-based filters (tutorial §2.1).
//! - [`bitvec`] — compact bit vectors and packed fixed-width arrays.
//! - [`atomic_bitvec`] — the lock-free variant backing the
//!   concurrent filters (tutorial §1, feature 6).
//! - [`rank_select`] — word-level rank/select and a sampled directory,
//!   the navigation machinery of the RSQF and succinct tries.
//! - [`ef`] — Elias–Fano monotone-sequence coding (Grafite, SNARF).
//! - [`traits`] — the filter trait hierarchy mirroring the tutorial's
//!   taxonomy: static / semi-dynamic / dynamic filters plus counting,
//!   maplet, range, expandable, and adaptive extensions.
//! - [`batch`] — the [`BatchedFilter`] extension trait: hash-hoisted,
//!   prefetch-pipelined batch lookups (the memory-level-parallelism
//!   technique behind the fastest published filters).
//! - [`prefetch`] — the safe software-prefetch wrapper the batch
//!   kernels use to overlap DRAM misses.
//! - [`simd`] — the runtime-dispatched vectorised probe engine:
//!   register-blocked mask compute, 512-bit block containment, and
//!   branchless in-word select (PDEP / Gog–Petri SWAR).
//!
//! Unsafe code policy: the crate denies `unsafe_code` everywhere
//! except two modules — [`prefetch`], whose single intrinsic call
//! performs no architecturally visible memory access, and [`simd`],
//! whose `#[target_feature]` kernels are reachable only after
//! `is_x86_feature_detected!` confirms the feature and whose loads
//! all derive from in-bounds array references (see each module's
//! safety argument).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod atomic_bitvec;
pub mod batch;
pub mod bitvec;
pub mod ef;
pub mod hash;
pub mod prefetch;
pub mod rank_select;
pub mod serial;
pub mod simd;
pub mod traits;

pub use atomic_bitvec::AtomicBitVec;
pub use batch::{BatchedFilter, PROBE_CHUNK};
pub use bitvec::{BitVec, PackedArray};
pub use ef::EliasFano;
pub use hash::{quotienting, rem_mask, FilterKey, Hasher};
pub use prefetch::prefetch_read;
pub use rank_select::{rank_word, select_word, RankSelectVec};
pub use serial::{ByteReader, ByteWriter, SerialError};
pub use simd::SimdLevel;
pub use traits::{
    AdaptiveFilter, CountingFilter, DynamicFilter, Expandable, Filter, FilterError, InsertFilter,
    Maplet, RangeFilter, Result,
};

/// Ideal information-theoretic space for a membership filter:
/// `n · log2(1/eps)` bits (tutorial §2).
pub fn info_lower_bound_bits(n: usize, eps: f64) -> f64 {
    n as f64 * (1.0 / eps).log2()
}

/// Fingerprint bits achieving FPR ≈ `eps` in a static fingerprint
/// filter (XOR, fuse, ribbon): `⌈log2(1/eps)⌉`, clamped to 2..=32.
pub fn fp_bits_for(eps: f64) -> u32 {
    ((1.0 / eps).log2().ceil() as u32).clamp(2, 32)
}

#[cfg(test)]
mod tests {
    #[test]
    fn lower_bound_formula() {
        // ε = 2⁻⁸ → exactly 8 bits/key.
        let b = super::info_lower_bound_bits(1000, 1.0 / 256.0);
        assert!((b - 8000.0).abs() < 1e-6);
    }
}
