//! # bloom
//!
//! The Bloom-filter family from the tutorial's taxonomy:
//!
//! | Type | Tutorial § | Role |
//! |------|-----------|------|
//! | [`BloomFilter`] | §1, §2 | the 1970 baseline, `1.44·n·lg(1/ε)` bits |
//! | [`BlockedBloomFilter`] | §2 | cache-local variant, one line per op |
//! | [`RegisterBlockedBloomFilter`] | §2 | 256-bit blocks, fixed k=8, one SIMD mask compare per op |
//! | [`TwoChoiceRegisterBloomFilter`] | §2 | two candidate blocks, emptier-block placement, OR of two probes |
//! | [`AtomicBlockedBloomFilter`] | §1 f.6 | wait-free concurrent variant |
//! | [`CountingBloomFilter`] | §2.6 | multiset counts, saturating counters |
//! | [`DLeftCountingFilter`] | §2.6 | d-left hashing, ~2× smaller than CBF |
//! | [`SpectralBloomFilter`] | §2.6 | variable counters for skewed input |
//! | [`ScalableBloomFilter`] | §2.2 | chained expansion baseline |
//! | [`PrefixBloomFilter`] | §2.5 | prefix index used by Proteus |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atomic_blocked;
pub mod blocked;
pub mod counting;
pub mod dleft;
pub mod plain;
pub mod prefix_bloom;
pub mod register_blocked;
pub mod scalable;
pub mod spectral;
pub mod two_choice;

use telemetry::{StaticCounter, StaticHistogram};

/// Stages added by scalable Bloom filters.
pub static SCALABLE_EXPANSIONS: StaticCounter = StaticCounter::new(
    "bb_bloom_scalable_expansions_total",
    "Stages added by scalable Bloom filters.",
);

/// Spectral-Bloom slots escalated to the escape-sentinel overflow
/// table (counter outgrew its inline width).
pub static SPECTRAL_ESCAPES: StaticCounter = StaticCounter::new(
    "bb_bloom_spectral_escapes_total",
    "Spectral Bloom slots escalated to the overflow table.",
);

/// Capacity of each stage added by scalable Bloom filters.
pub static SCALABLE_STAGE_CAPACITY: StaticHistogram = StaticHistogram::new(
    "bb_bloom_scalable_stage_capacity",
    "Capacity of each stage added by scalable Bloom filters.",
);

/// Eagerly register this crate's metric families so they render in
/// the exposition even before any traffic touches them.
pub fn register_metrics() {
    SCALABLE_EXPANSIONS.register();
    SPECTRAL_ESCAPES.register();
    SCALABLE_STAGE_CAPACITY.register();
}

pub use atomic_blocked::AtomicBlockedBloomFilter;
pub use blocked::BlockedBloomFilter;
pub use counting::CountingBloomFilter;
pub use dleft::DLeftCountingFilter;
pub use plain::{optimal_bits, optimal_k, BloomFilter};
pub use prefix_bloom::PrefixBloomFilter;
pub use register_blocked::RegisterBlockedBloomFilter;
pub use scalable::ScalableBloomFilter;
pub use spectral::SpectralBloomFilter;
pub use two_choice::TwoChoiceRegisterBloomFilter;
