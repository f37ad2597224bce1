//! # beyond-bloom
//!
//! A comprehensive Rust implementation of the modern filter landscape
//! surveyed in *Beyond Bloom: A Tutorial on Future Feature-Rich
//! Filters* (Pandey, Farach-Colton, Dayan, Zhang — SIGMOD 2024).
//!
//! This facade crate re-exports the whole workspace. Start with the
//! trait hierarchy in [`core`] ([`core::Filter`],
//! [`core::DynamicFilter`], [`core::CountingFilter`],
//! [`core::Maplet`], [`core::RangeFilter`], [`core::Expandable`],
//! [`core::AdaptiveFilter`]), then pick implementations:
//!
//! | need | reach for |
//! |---|---|
//! | static set, minimal space | [`ribbon::RibbonFilter`], [`xorf::XorFilter`] |
//! | inserts only | [`bloom::BloomFilter`], [`prefix_filter::PrefixFilter`] |
//! | inserts + deletes | [`quotient::QuotientFilter`], [`cuckoo::CuckooFilter`] |
//! | fast block-local inserts + deletes | [`quotient::VectorQuotientFilter`] |
//! | one cache line per lookup | [`cuckoo::MortonFilter`], [`bloom::BlockedBloomFilter`] |
//! | one SIMD compare per lookup | [`bloom::RegisterBlockedBloomFilter`] |
//! | multiset counts | [`quotient::CountingQuotientFilter`] |
//! | many threads | [`concurrent::Sharded`] (any filter; the served sharded CQF is [`service::build_sharded_cqf`]), [`bloom::AtomicBlockedBloomFilter`] |
//! | grows forever | [`infini::InfiniFilter`] (deletes) / [`infini::TaffyCuckooFilter`] |
//! | grows one bucket at a time | [`infini::RingFilter`] (ops go logarithmic) |
//! | adversarial queries | [`adaptive::AdaptiveQuotientFilter`], [`cuckoo::AdaptiveCuckooFilter`] |
//! | key → small value | [`maplet`] (quotient/cuckoo/Bloomier/collision-free) |
//! | range emptiness | [`rangefilter`] (Grafite, SuRF, Rosetta, REncoder, SNARF, ARF) |
//! | string-keyed ranges | [`rangefilter::SurfBytes`] |
//! | known hot negatives | [`stacked::StackedFilter`] |
//! | learnable key distribution | [`stacked::LearnedFilter`] |
//! | static set, minimal space + batch probes | [`xorf::BinaryFuseFilter`] |
//! | mutable writes, static-filter space | [`compacting::CompactingFilter`] |
//! | bigger than RAM | [`lsm::CascadeFilter`] |
//!
//! Application case studies live in [`lsm`] (storage engines),
//! [`biofilter`] (computational biology), and [`netsec`] (URL
//! blocking); deterministic workload generators in [`workloads`];
//! and [`service`] serves any of the concurrent backends over a
//! versioned binary wire protocol (`std::net`, no external deps).
//!
//! ```
//! use beyond_bloom::core::{Filter, InsertFilter};
//!
//! let mut f = beyond_bloom::bloom::BloomFilter::new(1_000, 0.01);
//! f.insert(42).unwrap();
//! assert!(f.contains(42));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use adaptive;
pub use biofilter;
pub use bloofi;
pub use bloom;
pub use compacting;
pub use concurrent;
pub use cuckoo;
pub use eventloop;
pub use filter_core as core;
pub use infini;
pub use lsm;
pub use maplet;
pub use netsec;
pub use prefix_filter;
pub use quotient;
pub use rangefilter;
pub use ribbon;
pub use service;
pub use stacked;
pub use telemetry;
pub use workloads;
pub use xorf;
