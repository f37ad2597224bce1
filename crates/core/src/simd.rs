//! Vectorised probe engine: runtime-dispatched mask-compute and
//! rank/select primitives.
//!
//! PR 3's batched kernels fixed the *memory* side of filter probes
//! (hash-hoisting + prefetch pipelining overlap the DRAM misses).
//! Once misses overlap, the mask arithmetic itself becomes the hot
//! path — the observation behind register-blocked Bloom filters
//! (Impala, RocksDB, "Blocked Bloom Filters with Choices") and the
//! SIMD-decoded vector quotient filter. This module is the
//! workspace-wide home for that arithmetic:
//!
//! - [`block_mask_256`] — all 8 probe bits of a register-blocked
//!   Bloom key materialised as one 256-bit mask (one odd multiply +
//!   shift per 32-bit lane, the Impala/RocksDB scheme);
//! - [`covered_256`] / [`or_into_256`] — the 256-bit combine/compare
//!   primitives (`vptest` on AVX2);
//! - [`block_mask_512`] / [`covered_512`] — the
//!   same idea for the 512-bit cache-line-blocked filters. The mask
//!   build is scalar up to AVX2 (a data-dependent 8-way word scatter
//!   has no narrow lane-parallel form) but goes native at AVX-512: a
//!   variable 64-bit shift turns each probe into a full-width one-hot
//!   OR, and the containment test folds through `vpternlogq`;
//! - [`select_word`] / [`select0_u128`] — branchless in-word select:
//!   `PDEP` + `TZCNT` when BMI2 is available, the Gog–Petri
//!   broadword (SWAR) routine otherwise.
//!
//! # Dispatch
//!
//! The instruction set is chosen **once at runtime** and cached
//! ([`active_level`]): on x86-64, `is_x86_feature_detected!` picks
//! AVX-512F, then AVX2, then SSE2; on little-endian AArch64 the NEON
//! tier is baseline; everything else falls back to a portable SWAR
//! path that compiles on every target, so the same binary runs on any
//! machine and the gains survive non-x86 CI. Compiling with
//! `target-cpu=native` instead would bake the ISA into the artifact —
//! wrong for a library that is serialized, shipped, and run on
//! heterogeneous fleets (see DESIGN.md, "SIMD dispatch").
//!
//! Every primitive also has a level-explicit `*_at` variant. The
//! equivalence suite (`tests/simd_dispatch.rs`) uses those to assert
//! all paths are **bit-identical** on random inputs without mutating
//! the process-global dispatch; the experiment harness (E21/E25) uses
//! [`force_level`] to measure each tier. Forcing a tier the current
//! architecture cannot execute (e.g. Neon on x86) is safe: its
//! dispatch arms don't exist there, so the call falls through to
//! SWAR. [`usable_levels`] names the tiers that genuinely run on this
//! machine.
//!
//! One environment pin, read before first use:
//! `BEYOND_BLOOM_FORCE_LEVEL=<swar|neon|sse2|avx2|avx512>` pins any
//! single tier (clamped to detection; unknown names are ignored).
//! `swar` (or its alias `scalar`) also disables the PDEP select, which
//! is tied to the SSE2 tier and up. CI runs the whole test suite under
//! forced SWAR and a forced sweep over every usable tier, so the
//! fallbacks are exercised deliberately, not only on exotic hardware.
//!
//! # Safety argument
//!
//! This module is one of the two `unsafe`-bearing modules in the
//! workspace (the other is [`crate::prefetch`]). Three invariants
//! keep it sound:
//!
//! 1. Every `#[target_feature]` function is called only after
//!    detection has confirmed the feature: `is_x86_feature_detected!`
//!    for the x86 tiers (Avx512 additionally requires AVX2 so its
//!    256-bit arms may delegate to the AVX2 kernels), and the
//!    aarch64 baseline guarantee for NEON. The cached level can only
//!    *lower* below detection via [`force_level`], never rise above
//!    it.
//! 2. All pointer-based loads (`_mm512_loadu_si512`,
//!    `_mm256_loadu_si256`, `_mm_loadu_si128`, `vld1q_*`) derive
//!    their pointers from `&[u64; N]` / `&[u32; N]` references, so
//!    the full width is in-bounds and valid by the borrow;
//!    unaligned-load forms are used, so alignment is irrelevant.
//! 3. Stores through pointers (`_mm*_storeu_*`, `vst1q_*`) target
//!    only function-local arrays that are returned by value; nothing
//!    writes through caller-provided pointers.

#![allow(unsafe_code)]

use core::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set tier the probe engine runs at.
///
/// Variant order is tier strength (`Ord` drives the clamp in
/// [`force_level`]): SWAR < NEON < SSE2 < AVX2 < AVX-512. The wire
/// byte ([`SimdLevel::code`]) is a separate, append-only mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable SWAR over `u64` — compiles and runs on every target.
    Swar,
    /// 128-bit NEON kernels (baseline on little-endian aarch64).
    Neon,
    /// 128-bit SSE2 kernels (baseline on all x86-64).
    Sse2,
    /// 256-bit AVX2 kernels (plus BMI2 `PDEP` select when present).
    Avx2,
    /// 512-bit AVX-512F kernels (`vpternlogq` folds, native 512-bit
    /// mask build); implies the AVX2 kernels for 256-bit work.
    Avx512,
}

impl SimdLevel {
    /// Stable lowercase name (experiment tables, logs, the
    /// `BEYOND_BLOOM_FORCE_LEVEL` values).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Swar => "swar",
            SimdLevel::Neon => "neon",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Stable numeric code (the cached dispatch byte and the
    /// `bb_simd_level` telemetry gauge). Append-only: codes are *not*
    /// ordered by tier strength — Neon joined the format after Avx512
    /// and took the next free byte.
    pub fn code(self) -> u8 {
        encode(self)
    }
}

// Cached dispatch state. 0 = undetected; otherwise LEVEL_* below.
static LEVEL: AtomicU8 = AtomicU8::new(0);
// 0 = undetected, 1 = absent, 2 = present.
static BMI2: AtomicU8 = AtomicU8::new(0);

const LEVEL_SWAR: u8 = 1;
const LEVEL_SSE2: u8 = 2;
const LEVEL_AVX2: u8 = 3;
const LEVEL_AVX512: u8 = 4;
const LEVEL_NEON: u8 = 5;

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Swar => LEVEL_SWAR,
        SimdLevel::Sse2 => LEVEL_SSE2,
        SimdLevel::Avx2 => LEVEL_AVX2,
        SimdLevel::Avx512 => LEVEL_AVX512,
        SimdLevel::Neon => LEVEL_NEON,
    }
}

/// Inverse of `encode`. Unknown bytes are **rejected** (`None`)
/// rather than silently mapped to SWAR: a byte this build doesn't
/// know can only come from a bug or a future tier, and guessing
/// "portable" would mask it — [`active_level`] re-detects instead.
fn decode(raw: u8) -> Option<SimdLevel> {
    match raw {
        LEVEL_SWAR => Some(SimdLevel::Swar),
        LEVEL_SSE2 => Some(SimdLevel::Sse2),
        LEVEL_AVX2 => Some(SimdLevel::Avx2),
        LEVEL_AVX512 => Some(SimdLevel::Avx512),
        LEVEL_NEON => Some(SimdLevel::Neon),
        _ => None,
    }
}

/// What the hardware supports (ignores any [`force_level`] override
/// and the environment pins).
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        // The Avx512 tier's 256-bit arms delegate to the AVX2
        // kernels, so it requires both features (every AVX-512F part
        // ships AVX2 in practice; the guard keeps the safety argument
        // local to this function).
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return SimdLevel::Sse2;
        }
    }
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    {
        // NEON is baseline on AArch64. The kernels store four u32
        // lanes over two u64 words, which matches the SWAR bit layout
        // only on little-endian targets — big-endian aarch64 stays on
        // SWAR.
        return SimdLevel::Neon;
    }
    #[allow(unreachable_code)]
    SimdLevel::Swar
}

/// Every tier whose kernels genuinely execute on this machine, in
/// ascending order — the sweep set for the cross-tier equivalence
/// suite and the forced-tier CI matrix. Forcing a tier outside this
/// set is still safe (dispatch falls through to SWAR), just not
/// interesting to measure.
pub fn usable_levels() -> Vec<SimdLevel> {
    let mut ls = vec![SimdLevel::Swar];
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    ls.push(SimdLevel::Neon);
    #[cfg(target_arch = "x86_64")]
    {
        let top = detected_level();
        if top >= SimdLevel::Sse2 {
            ls.push(SimdLevel::Sse2);
        }
        if top >= SimdLevel::Avx2 {
            ls.push(SimdLevel::Avx2);
        }
        if top >= SimdLevel::Avx512 {
            ls.push(SimdLevel::Avx512);
        }
    }
    ls
}

/// Is the BMI2 `PDEP` fast path for select usable at `level`?
///
/// Tied to the mask level so that forcing SWAR (env or
/// [`force_level`]) exercises the Gog–Petri fallback end to end.
/// `PDEP` is x86-only, so the non-x86 tiers (Swar, Neon) never take
/// it.
fn pdep_usable(level: SimdLevel) -> bool {
    if level < SimdLevel::Sse2 {
        return false;
    }
    match BMI2.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            #[cfg(target_arch = "x86_64")]
            let present = std::arch::is_x86_feature_detected!("bmi2");
            #[cfg(not(target_arch = "x86_64"))]
            let present = false;
            BMI2.store(if present { 2 } else { 1 }, Ordering::Relaxed);
            present
        }
    }
}

/// The tier the auto-dispatching primitives currently run at.
///
/// Detected once and cached; honours `BEYOND_BLOOM_FORCE_LEVEL`
/// (pins a named tier, clamped to detection) and any [`force_level`]
/// override.
pub fn active_level() -> SimdLevel {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw != 0 {
        if let Some(level) = decode(raw) {
            return level;
        }
        // Unknown cached byte — unreachable via this module's own
        // setters; fall through and re-detect rather than guess.
    }
    let level = env_pinned_level().unwrap_or_else(detected_level);
    LEVEL.store(encode(level), Ordering::Relaxed);
    level
}

/// The environment pin `BEYOND_BLOOM_FORCE_LEVEL=<name>` (one of
/// [`SimdLevel::name`], or `scalar` for SWAR), clamped to detection.
/// Unknown names are ignored so a typo degrades to auto-detection,
/// never to a crash in library code.
fn env_pinned_level() -> Option<SimdLevel> {
    let name = std::env::var("BEYOND_BLOOM_FORCE_LEVEL").ok()?;
    let level = match name.trim().to_ascii_lowercase().as_str() {
        "swar" | "scalar" => SimdLevel::Swar,
        "neon" => SimdLevel::Neon,
        "sse2" => SimdLevel::Sse2,
        "avx2" => SimdLevel::Avx2,
        "avx512" => SimdLevel::Avx512,
        _ => return None,
    };
    Some(level.min(detected_level()))
}

/// Override the dispatch tier (clamped to what the hardware
/// supports), or `None` to re-detect.
///
/// Every tier is bit-identical (the pinned invariant of this
/// module), so flipping the level at runtime only changes speed —
/// the experiment harness uses this to produce its per-tier columns
/// (SWAR/SSE2/AVX2/AVX-512). Prefer the level-explicit `*_at`
/// functions in tests: they don't mutate process-global state.
pub fn force_level(level: Option<SimdLevel>) {
    match level {
        Some(l) => LEVEL.store(encode(l.min(detected_level())), Ordering::Relaxed),
        None => {
            LEVEL.store(0, Ordering::Relaxed);
            active_level();
        }
    }
}

// ---------------------------------------------------------------------
// 256-bit register-blocked masks (Impala / RocksDB scheme)
// ---------------------------------------------------------------------

/// The eight odd multipliers of the Impala/RocksDB register-blocked
/// scheme: lane `j` of the mask gets bit `(h · SALT[j]) >> 27` of its
/// 32-bit word set. Odd constants make each multiply a permutation of
/// the 32-bit hash, and the top-5-bit extraction is the
/// multiply-shift universal-hash construction.
pub const BLOCK_SALT: [u32; 8] = [
    0x47b6_137b,
    0x4497_4d91,
    0x8824_ad5b,
    0xa2b7_289d,
    0x7054_95c7,
    0x2df1_424b,
    0x9efc_4947,
    0x5c6b_fb31,
];

/// All 8 probe bits of a register-blocked key as one 256-bit mask
/// (exactly one bit set per 32-bit lane), at the cached dispatch
/// tier.
#[inline]
pub fn block_mask_256(h: u32) -> [u64; 4] {
    block_mask_256_at(active_level(), h)
}

/// [`block_mask_256`] at an explicit tier (equivalence tests).
#[inline]
pub fn block_mask_256_at(level: SimdLevel, h: u32) -> [u64; 4] {
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        // SAFETY: Avx2 (and Avx512, which implies AVX2) is only
        // reachable when detection confirmed it (force_level clamps
        // to detected_level).
        return unsafe { avx2::block_mask_256(h) };
    }
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64 (see detected_level).
        return unsafe { neon::block_mask_256(h) };
    }
    let _ = level;
    block_mask_256_swar(h)
}

/// Portable mask build: one odd multiply + shift per lane. Lane `j`
/// occupies bits `[32j, 32j + 32)` of the little-endian 256-bit
/// value, i.e. half of word `j / 2`.
#[inline]
fn block_mask_256_swar(h: u32) -> [u64; 4] {
    let mut mask = [0u64; 4];
    for (j, &salt) in BLOCK_SALT.iter().enumerate() {
        let bit = h.wrapping_mul(salt) >> 27;
        mask[j >> 1] |= 1u64 << (((j & 1) as u32) * 32 + bit);
    }
    mask
}

/// Is every bit of `mask` set in `block` (`mask ⊆ block`)? The whole
/// register-blocked membership test, at the cached tier.
#[inline]
pub fn covered_256(block: &[u64; 4], mask: &[u64; 4]) -> bool {
    covered_256_at(active_level(), block, mask)
}

/// [`covered_256`] at an explicit tier.
#[inline]
pub fn covered_256_at(level: SimdLevel, block: &[u64; 4], mask: &[u64; 4]) -> bool {
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: Avx512 detection implies AVX2 (see detected_level);
        // a single 256-bit vptest is already optimal at this width.
        SimdLevel::Avx512 | SimdLevel::Avx2 => return unsafe { avx2::covered_256(block, mask) },
        // SAFETY: SSE2 is baseline on x86_64 and confirmed by detection.
        SimdLevel::Sse2 => return unsafe { sse2::covered_256(block, mask) },
        SimdLevel::Swar | SimdLevel::Neon => {}
    }
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { neon::covered_256(block, mask) };
    }
    let _ = level;
    covered_256_swar(block, mask)
}

/// Portable covered test: branch-free OR-fold of `mask & !block` —
/// any surviving bit is an uncovered probe. The fold beats the
/// early-exit `all` loop on the mostly-covered inputs filters see
/// (no branch mispredicts, and the compiler can keep all four words
/// in flight).
#[inline]
fn covered_256_swar(block: &[u64; 4], mask: &[u64; 4]) -> bool {
    block
        .iter()
        .zip(mask)
        .fold(0u64, |miss, (b, m)| miss | (m & !b))
        == 0
}

/// Is `mask` fully covered by either 256-bit half of a cache-line
/// pair of blocks (`covered(pair[0]) | covered(pair[1])`), at the
/// cached tier — the two-choice register Bloom lookup. Both halves
/// arrive on the single line the probe fetched, and AVX-512 folds
/// the whole test into one 512-bit load + ternlog + test-mask, so
/// the second choice costs almost nothing over a one-choice probe.
#[inline]
pub fn covered_pair_256(pair: &[[u64; 4]; 2], mask: &[u64; 4]) -> bool {
    covered_pair_256_at(active_level(), pair, mask)
}

/// [`covered_pair_256`] at an explicit tier.
#[inline]
pub fn covered_pair_256_at(level: SimdLevel, pair: &[[u64; 4]; 2], mask: &[u64; 4]) -> bool {
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: Avx512 is only reachable when detection confirmed
        // it (force_level clamps to detected_level).
        SimdLevel::Avx512 => return unsafe { avx512::covered_pair_256(pair, mask) },
        // SAFETY: AVX2 confirmed by detection.
        SimdLevel::Avx2 => return unsafe { avx2::covered_pair_256(pair, mask) },
        // SAFETY: SSE2 is baseline on x86_64.
        SimdLevel::Sse2 => {
            return unsafe { sse2::covered_256(&pair[0], mask) | sse2::covered_256(&pair[1], mask) }
        }
        SimdLevel::Swar | SimdLevel::Neon => {}
    }
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { neon::covered_256(&pair[0], mask) | neon::covered_256(&pair[1], mask) };
    }
    let _ = level;
    covered_256_swar(&pair[0], mask) | covered_256_swar(&pair[1], mask)
}

/// OR `mask` into `block` — the register-blocked insert. A plain
/// 4-word OR on every tier (the compiler vectorises it freely; the
/// function exists so insert and query share one mask definition).
#[inline]
pub fn or_into_256(block: &mut [u64; 4], mask: &[u64; 4]) {
    for (b, &m) in block.iter_mut().zip(mask) {
        *b |= m;
    }
}

// ---------------------------------------------------------------------
// 512-bit cache-line-blocked masks (legacy BlockedBloomFilter layout)
// ---------------------------------------------------------------------

/// All `k` double-hashed probe bits of a 512-bit-blocked key as one
/// 8-word mask, at the cached tier.
///
/// Bit-identical to folding the per-probe sequence
/// `pos_i = (h1 + i·h2) mod 512`: 512 divides 2⁶⁴, so the mod
/// distributes over the wrapping arithmetic and the position advances
/// by a masked add per probe. The build is scalar up to AVX2 — each
/// probe scatters into one of 8 words, and a data-dependent 8-way
/// word scatter has no narrow lane-parallel form — but AVX-512's
/// 64-bit variable shift turns each probe into a full-width one-hot
/// in one op (see `avx512::block_mask_512`).
#[inline]
pub fn block_mask_512(h1: u64, h2: u64, k: u32) -> [u64; 8] {
    block_mask_512_at(active_level(), h1, h2, k)
}

/// [`block_mask_512`] at an explicit tier.
#[inline]
pub fn block_mask_512_at(level: SimdLevel, h1: u64, h2: u64, k: u32) -> [u64; 8] {
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx512 {
        // SAFETY: tier confirmed by detection (force_level clamps).
        return unsafe { avx512::block_mask_512(h1, h2, k) };
    }
    let _ = level;
    block_mask_512_swar(h1, h2, k)
}

/// Portable 512-bit mask build: the per-probe word scatter.
#[inline]
fn block_mask_512_swar(h1: u64, h2: u64, k: u32) -> [u64; 8] {
    const MASK: u64 = 511;
    let step = h2 & MASK;
    let mut pos = h1 & MASK;
    let mut mask = [0u64; 8];
    for _ in 0..k {
        mask[(pos >> 6) as usize] |= 1u64 << (pos & 63);
        pos = (pos + step) & MASK;
    }
    mask
}

/// Is every bit of the 512-bit `mask` set in `block`, at the cached
/// tier?
#[inline]
pub fn covered_512(block: &[u64; 8], mask: &[u64; 8]) -> bool {
    covered_512_at(active_level(), block, mask)
}

/// [`covered_512`] at an explicit tier.
#[inline]
pub fn covered_512_at(level: SimdLevel, block: &[u64; 8], mask: &[u64; 8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    match level {
        // SAFETY: tier confirmed by detection.
        SimdLevel::Avx512 => return unsafe { avx512::covered_512(block, mask) },
        // SAFETY: tier confirmed by detection.
        SimdLevel::Avx2 => return unsafe { avx2::covered_512(block, mask) },
        // SAFETY: SSE2 is baseline on x86_64.
        SimdLevel::Sse2 => return unsafe { sse2::covered_512(block, mask) },
        SimdLevel::Swar | SimdLevel::Neon => {}
    }
    #[cfg(all(target_arch = "aarch64", target_endian = "little"))]
    if level == SimdLevel::Neon {
        // SAFETY: NEON is baseline on aarch64.
        return unsafe { neon::covered_512(block, mask) };
    }
    let _ = level;
    block
        .iter()
        .zip(mask)
        .fold(0u64, |miss, (b, m)| miss | (m & !b))
        == 0
}

// ---------------------------------------------------------------------
// Branchless in-word select
// ---------------------------------------------------------------------

/// Position of the `k`-th (0-based) set bit of `word`, or `None` if
/// fewer than `k + 1` bits are set.
///
/// `PDEP` + `TZCNT` when BMI2 is available (and the dispatch is not
/// pinned to SWAR); otherwise the branchless Gog–Petri broadword
/// routine. Replaces the clear-lowest-bit loop the RSQF/VQF lookup
/// paths used to run per metadata word.
#[inline]
pub fn select_word(word: u64, k: u32) -> Option<u32> {
    select_word_at(active_level(), word, k)
}

/// [`select_word`] at an explicit tier.
#[inline]
pub fn select_word_at(level: SimdLevel, word: u64, k: u32) -> Option<u32> {
    if word.count_ones() <= k {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    if pdep_usable(level) {
        // SAFETY: pdep_usable confirmed BMI2 via is_x86_feature_detected.
        return Some(unsafe { select_pdep(word, k) });
    }
    let _ = level;
    Some(select_swar(word, k))
}

/// Position of the `k`-th (0-based) **zero** bit of the 128-bit
/// word, or `None` if fewer than `k + 1` zeros — the VQF
/// metadata-decode primitive.
///
/// Total by construction: the all-ones half-word that made the old
/// open-coded version panic (`select_word(!u64::MAX, 0)` is
/// `select_word(0, 0)`, which is `None`) simply forwards the query
/// to the high half, and a genuinely out-of-range `k` reports `None`
/// instead of unwinding.
#[inline]
pub fn select0_u128(x: u128, k: u32) -> Option<u32> {
    select0_u128_at(active_level(), x, k)
}

/// [`select0_u128`] at an explicit tier.
#[inline]
pub fn select0_u128_at(level: SimdLevel, x: u128, k: u32) -> Option<u32> {
    let lo = !(x as u64);
    let lo_zeros = lo.count_ones();
    if k < lo_zeros {
        select_word_at(level, lo, k)
    } else {
        select_word_at(level, !((x >> 64) as u64), k - lo_zeros).map(|p| p + 64)
    }
}

/// `PDEP` select: deposit the single bit `1 << k` along the set bits
/// of `word`; its landing position is the answer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
#[inline]
unsafe fn select_pdep(word: u64, k: u32) -> u32 {
    core::arch::x86_64::_pdep_u64(1u64 << k, word).trailing_zeros()
}

/// Gog–Petri broadword select (the SWAR fallback): byte-granular
/// prefix popcounts via one multiply, a SWAR `≤` comparison to find
/// the target byte, then a 2 KiB table for the bit within the byte.
///
/// Caller guarantees `k < word.count_ones()`.
#[inline]
fn select_swar(word: u64, k: u32) -> u32 {
    const L8: u64 = 0x0101_0101_0101_0101; // low bit of each byte
    const H8: u64 = 0x8080_8080_8080_8080; // high bit of each byte

    // Byte-wise popcounts (the classic SWAR sideways addition)…
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // …prefix-summed so byte `i` holds popcount(bytes 0..=i).
    let prefix = s.wrapping_mul(L8);

    // SWAR byte-wise "strictly greater than k", i.e. "≥ k + 1": with
    // every minuend byte's high bit forced on and every subtrahend
    // byte ≤ 0x7f, per-byte subtraction never borrows across bytes,
    // so byte i of `gt` keeps its high bit iff prefix_byte(i) ≥ k+1.
    // (prefix bytes ≤ 64 and k+1 ≤ 64, both within range.)
    let k1 = (k as u64 + 1).wrapping_mul(L8);
    let gt = ((prefix | H8) - k1) & H8;
    // The target byte is the first with prefix > k; its high bit sits
    // at position 8·byte + 7, so trailing zeros name the byte.
    let byte = (gt.trailing_zeros() >> 3) as u64;
    debug_assert!(byte < 8);

    // Rank of the wanted bit inside that byte = k minus the ones in
    // the preceding bytes.
    let before = if byte == 0 {
        0
    } else {
        (prefix >> ((byte - 1) * 8)) & 0xff
    };
    let in_byte = (word >> (byte * 8)) & 0xff;
    let r = k as u64 - before;
    (byte * 8) as u32 + SELECT_IN_BYTE[((r << 8) | in_byte) as usize] as u32
}

/// `SELECT_IN_BYTE[r << 8 | b]` = position of the `r`-th (0-based)
/// set bit of byte `b` (8 when out of range; never read in range
/// thanks to the caller contract).
static SELECT_IN_BYTE: [u8; 2048] = build_select_in_byte();

const fn build_select_in_byte() -> [u8; 2048] {
    let mut t = [8u8; 2048];
    let mut r = 0usize;
    while r < 8 {
        let mut b = 0usize;
        while b < 256 {
            let mut seen = 0usize;
            let mut bit = 0usize;
            while bit < 8 {
                if b >> bit & 1 == 1 {
                    if seen == r {
                        t[(r << 8) | b] = bit as u8;
                        break;
                    }
                    seen += 1;
                }
                bit += 1;
            }
            b += 1;
        }
        r += 1;
    }
    t
}

// ---------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have confirmed AVX-512F via
    /// `is_x86_feature_detected!`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn covered_512(block: &[u64; 8], mask: &[u64; 8]) -> bool {
        let b = _mm512_loadu_si512(block.as_ptr() as *const _);
        let m = _mm512_loadu_si512(mask.as_ptr() as *const _);
        // vpternlogq imm 0x0c is ¬a ∧ b — the uncovered probe bits in
        // one fused op — and vptestmq supplies the zero check AVX-512
        // dropped along with vptest's carry flag.
        let miss = _mm512_ternarylogic_epi64::<0x0c>(b, m, m);
        _mm512_test_epi64_mask(miss, miss) == 0
    }

    /// Two-choice pair probe: both 256-bit candidate blocks load as
    /// one 512-bit line, the mask broadcasts into both halves, and a
    /// single ternlog + test-mask answers "does either half cover the
    /// mask" — lanes 0–3 are the first block, 4–7 the second.
    ///
    /// # Safety
    /// Caller must have confirmed AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn covered_pair_256(pair: &[[u64; 4]; 2], mask: &[u64; 4]) -> bool {
        let b = _mm512_loadu_si512(pair.as_ptr() as *const _);
        let m = _mm512_broadcast_i64x4(_mm256_loadu_si256(mask.as_ptr() as *const _));
        let miss = _mm512_ternarylogic_epi64::<0x0c>(b, m, m);
        let t = _mm512_test_epi64_mask(miss, miss);
        (t & 0x0f) == 0 || (t & 0xf0) == 0
    }

    /// Native 512-bit mask build: the word scatter the narrower tiers
    /// can't express becomes a full-width one-hot. Lane `j` computes
    /// `1 << (pos − 64j)`, and `vpsllvq` yields 0 for any shift count
    /// outside 0..64 — including the wrapped negatives — so exactly
    /// the target lane takes the bit and an OR accumulates the mask
    /// entirely in one register.
    ///
    /// # Safety
    /// Caller must have confirmed AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) unsafe fn block_mask_512(h1: u64, h2: u64, k: u32) -> [u64; 8] {
        const MASK: u64 = 511;
        let step = h2 & MASK;
        let mut pos = h1 & MASK;
        let lane_base = _mm512_setr_epi64(0, 64, 128, 192, 256, 320, 384, 448);
        let one = _mm512_set1_epi64(1);
        let mut acc = _mm512_setzero_si512();
        for _ in 0..k {
            let shift = _mm512_sub_epi64(_mm512_set1_epi64(pos as i64), lane_base);
            acc = _mm512_or_si512(acc, _mm512_sllv_epi64(one, shift));
            pos = (pos + step) & MASK;
        }
        let mut out = [0u64; 8];
        _mm512_storeu_si512(out.as_mut_ptr() as *mut _, acc);
        out
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK_SALT;
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have confirmed AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn block_mask_256(h: u32) -> [u64; 4] {
        // Lane j: ((h * SALT[j]) >> 27) names a bit in a 32-bit word;
        // exactly the SWAR arithmetic, eight lanes at once.
        let salts = _mm256_loadu_si256(BLOCK_SALT.as_ptr() as *const __m256i);
        let hashes = _mm256_mullo_epi32(_mm256_set1_epi32(h as i32), salts);
        let bits = _mm256_srli_epi32(hashes, 27);
        let mask = _mm256_sllv_epi32(_mm256_set1_epi32(1), bits);
        let mut out = [0u64; 4];
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, mask);
        out
    }

    /// Two-choice pair probe at 256-bit width: one shared mask load,
    /// two branch-free carry tests.
    ///
    /// # Safety
    /// Caller must have confirmed AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn covered_pair_256(pair: &[[u64; 4]; 2], mask: &[u64; 4]) -> bool {
        let m = _mm256_loadu_si256(mask.as_ptr() as *const __m256i);
        let b0 = _mm256_loadu_si256(pair[0].as_ptr() as *const __m256i);
        let b1 = _mm256_loadu_si256(pair[1].as_ptr() as *const __m256i);
        (_mm256_testc_si256(b0, m) | _mm256_testc_si256(b1, m)) == 1
    }

    /// # Safety
    /// Caller must have confirmed AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn covered_256(block: &[u64; 4], mask: &[u64; 4]) -> bool {
        let b = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
        let m = _mm256_loadu_si256(mask.as_ptr() as *const __m256i);
        // vptest CF: 1 iff m & !b == 0, i.e. mask ⊆ block.
        _mm256_testc_si256(b, m) == 1
    }

    /// # Safety
    /// Caller must have confirmed AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn covered_512(block: &[u64; 8], mask: &[u64; 8]) -> bool {
        let b0 = _mm256_loadu_si256(block.as_ptr() as *const __m256i);
        let m0 = _mm256_loadu_si256(mask.as_ptr() as *const __m256i);
        let b1 = _mm256_loadu_si256(block.as_ptr().add(4) as *const __m256i);
        let m1 = _mm256_loadu_si256(mask.as_ptr().add(4) as *const __m256i);
        (_mm256_testc_si256(b0, m0) & _mm256_testc_si256(b1, m1)) == 1
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::*;

    /// `mask ⊆ block` over one 128-bit half: SSE2 has no `ptest`, so
    /// compare `block & mask` against `mask` lane-wise and check all
    /// byte lanes agreed.
    ///
    /// # Safety
    /// Caller must have confirmed SSE2 (baseline on x86-64).
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn covered_128(block: *const u64, mask: *const u64) -> bool {
        let b = _mm_loadu_si128(block as *const __m128i);
        let m = _mm_loadu_si128(mask as *const __m128i);
        let eq = _mm_cmpeq_epi32(_mm_and_si128(b, m), m);
        _mm_movemask_epi8(eq) == 0xffff
    }

    /// # Safety
    /// Caller must have confirmed SSE2.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) unsafe fn covered_256(block: &[u64; 4], mask: &[u64; 4]) -> bool {
        covered_128(block.as_ptr(), mask.as_ptr())
            && covered_128(block.as_ptr().add(2), mask.as_ptr().add(2))
    }

    /// # Safety
    /// Caller must have confirmed SSE2.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) unsafe fn covered_512(block: &[u64; 8], mask: &[u64; 8]) -> bool {
        covered_128(block.as_ptr(), mask.as_ptr())
            && covered_128(block.as_ptr().add(2), mask.as_ptr().add(2))
            && covered_128(block.as_ptr().add(4), mask.as_ptr().add(4))
            && covered_128(block.as_ptr().add(6), mask.as_ptr().add(6))
    }
}

// ---------------------------------------------------------------------
// AArch64 kernels
// ---------------------------------------------------------------------

#[cfg(all(target_arch = "aarch64", target_endian = "little"))]
mod neon {
    use super::BLOCK_SALT;
    use core::arch::aarch64::*;

    /// One 128-bit half of the covered test: BIC (`and complement`)
    /// computes `mask & !block` in a single op.
    ///
    /// # Safety
    /// Caller must have confirmed NEON (baseline on aarch64, gated by
    /// `detected_level`).
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn miss_128(block: *const u64, mask: *const u64) -> uint64x2_t {
        vbicq_u64(vld1q_u64(mask), vld1q_u64(block))
    }

    /// Horizontal "is the whole vector zero": max-reduce over u32
    /// lanes.
    ///
    /// # Safety
    /// Caller must have confirmed NEON.
    #[target_feature(enable = "neon")]
    #[inline]
    unsafe fn all_zero(v: uint64x2_t) -> bool {
        vmaxvq_u32(vreinterpretq_u32_u64(v)) == 0
    }

    /// # Safety
    /// Caller must have confirmed NEON.
    #[target_feature(enable = "neon")]
    #[inline]
    pub(super) unsafe fn block_mask_256(h: u32) -> [u64; 4] {
        // The AVX2 mask build, two u32x4 halves at a time. Storing
        // four u32 lanes over two u64 words preserves the SWAR bit
        // layout because this module is little-endian-gated.
        let mut out = [0u64; 4];
        let hv = vdupq_n_u32(h);
        let one = vdupq_n_u32(1);
        for half in 0..2 {
            let salts = vld1q_u32(BLOCK_SALT.as_ptr().add(half * 4));
            let bits = vshrq_n_u32::<27>(vmulq_u32(hv, salts));
            let lanes = vshlq_u32(one, vreinterpretq_s32_u32(bits));
            vst1q_u32(out.as_mut_ptr().cast::<u32>().add(half * 4), lanes);
        }
        out
    }

    /// # Safety
    /// Caller must have confirmed NEON.
    #[target_feature(enable = "neon")]
    #[inline]
    pub(super) unsafe fn covered_256(block: &[u64; 4], mask: &[u64; 4]) -> bool {
        let miss = vorrq_u64(
            miss_128(block.as_ptr(), mask.as_ptr()),
            miss_128(block.as_ptr().add(2), mask.as_ptr().add(2)),
        );
        all_zero(miss)
    }

    /// # Safety
    /// Caller must have confirmed NEON.
    #[target_feature(enable = "neon")]
    #[inline]
    pub(super) unsafe fn covered_512(block: &[u64; 8], mask: &[u64; 8]) -> bool {
        let lo = vorrq_u64(
            miss_128(block.as_ptr(), mask.as_ptr()),
            miss_128(block.as_ptr().add(2), mask.as_ptr().add(2)),
        );
        let hi = vorrq_u64(
            miss_128(block.as_ptr().add(4), mask.as_ptr().add(4)),
            miss_128(block.as_ptr().add(6), mask.as_ptr().add(6)),
        );
        all_zero(vorrq_u64(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference select: the clear-lowest-bit loop the engine replaces.
    fn select_loop(mut word: u64, k: u32) -> Option<u32> {
        if word.count_ones() <= k {
            return None;
        }
        for _ in 0..k {
            word &= word - 1;
        }
        Some(word.trailing_zeros())
    }

    fn levels() -> Vec<SimdLevel> {
        usable_levels()
    }

    /// Deterministic splitmix-style stream for test inputs.
    fn stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut x = seed;
        std::iter::repeat_with(move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn level_codes_are_pinned_and_unknown_bytes_rejected() {
        // The wire mapping is load-bearing (cached dispatch byte,
        // bb_simd_level gauge): pin every byte and the rejection of
        // everything else. Historically unknown bytes decoded to Swar
        // — a footgun once new tiers land, hence Option.
        assert_eq!(SimdLevel::Swar.code(), 1);
        assert_eq!(SimdLevel::Sse2.code(), 2);
        assert_eq!(SimdLevel::Avx2.code(), 3);
        assert_eq!(SimdLevel::Avx512.code(), 4);
        assert_eq!(SimdLevel::Neon.code(), 5);
        for l in [
            SimdLevel::Swar,
            SimdLevel::Neon,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ] {
            assert_eq!(decode(l.code()), Some(l), "{l:?} roundtrip");
        }
        assert_eq!(decode(0), None);
        for raw in 6..=u8::MAX {
            assert_eq!(decode(raw), None, "byte {raw} must be rejected");
        }
    }

    #[test]
    fn usable_levels_ascending_and_contain_detection() {
        let ls = levels();
        assert_eq!(ls[0], SimdLevel::Swar);
        assert!(ls.windows(2).all(|w| w[0] < w[1]), "{ls:?} not ascending");
        assert!(
            ls.contains(&detected_level()),
            "detected {:?} missing from {ls:?}",
            detected_level()
        );
    }

    #[test]
    fn select_swar_matches_loop_exhaustively_on_bytespans() {
        // Every 16-bit word in the low and a high byte-pair, every rank.
        for w in 0..=u16::MAX as u64 {
            for shift in [0u32, 24, 48] {
                let word = w << shift;
                for k in 0..word.count_ones() {
                    assert_eq!(
                        select_swar(word, k),
                        select_loop(word, k).unwrap(),
                        "word {word:#x} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_word_all_levels_match_loop_random() {
        for (i, w) in stream(7).take(10_000).enumerate() {
            // Mix in sparse and dense words.
            let word = match i % 4 {
                0 => w,
                1 => w & stream(w).next().unwrap(),
                2 => w | stream(w).next().unwrap(),
                _ => !w,
            };
            for k in [0, 1, 7, 31, 62, 63] {
                let want = select_loop(word, k);
                for l in levels() {
                    assert_eq!(select_word_at(l, word, k), want, "{l:?} {word:#x} {k}");
                }
            }
        }
    }

    #[test]
    fn select_word_edge_words() {
        for l in levels() {
            assert_eq!(select_word_at(l, 0, 0), None);
            assert_eq!(select_word_at(l, 1, 0), Some(0));
            assert_eq!(select_word_at(l, 1 << 63, 0), Some(63));
            assert_eq!(select_word_at(l, u64::MAX, 63), Some(63));
            assert_eq!(select_word_at(l, u64::MAX, 64), None);
            assert_eq!(select_word_at(l, 0b1011, 2), Some(3));
        }
    }

    #[test]
    fn select0_u128_is_total_on_all_ones() {
        // The regression the VQF audit found: the old open-coded
        // version called `select_word(0, 0)` on an all-ones half and
        // unwound via `.expect`. The engine reports None instead.
        for l in levels() {
            assert_eq!(select0_u128_at(l, u128::MAX, 0), None);
            // All-ones low half: first zero is bit 64.
            assert_eq!(select0_u128_at(l, u64::MAX as u128, 0), Some(64));
            // All-ones high half: zeros exhaust at 64.
            let hi_ones = !(u64::MAX as u128);
            assert_eq!(select0_u128_at(l, hi_ones, 63), Some(63));
            assert_eq!(select0_u128_at(l, hi_ones, 64), None);
            assert_eq!(select0_u128_at(l, 0, 127), Some(127));
            assert_eq!(select0_u128_at(l, 0, 128), None);
        }
    }

    #[test]
    fn block_mask_256_has_one_bit_per_lane_and_levels_agree() {
        for w in stream(11).take(10_000) {
            let h = w as u32;
            let want = block_mask_256_swar(h);
            // Each 32-bit lane carries exactly one bit.
            for j in 0..8 {
                let lane = (want[j >> 1] >> ((j & 1) * 32)) as u32;
                assert_eq!(lane.count_ones(), 1, "h {h:#x} lane {j}");
            }
            for l in levels() {
                assert_eq!(block_mask_256_at(l, h), want, "{l:?} h {h:#x}");
            }
        }
    }

    #[test]
    fn covered_agrees_across_levels() {
        let mut it = stream(13);
        for _ in 0..10_000 {
            let mask = block_mask_256_swar(it.next().unwrap() as u32);
            let mut block = [0u64; 4];
            for b in block.iter_mut() {
                *b = it.next().unwrap();
            }
            let want_cov = (0..4).all(|w| block[w] & mask[w] == mask[w]);
            let mut unioned = block;
            or_into_256(&mut unioned, &mask);
            for l in levels() {
                assert_eq!(covered_256_at(l, &block, &mask), want_cov, "{l:?}");
                assert!(covered_256_at(l, &unioned, &mask), "{l:?} after or");
            }
        }
    }

    #[test]
    fn block_mask_512_matches_probe_walk_and_covered_agrees() {
        let mut it = stream(17);
        for _ in 0..10_000 {
            let (h1, h2) = (it.next().unwrap(), it.next().unwrap());
            for k in [1u32, 7, 8, 13] {
                let mask = block_mask_512_swar(h1, h2, k);
                // Reference: the original per-probe walk.
                let mut want = [0u64; 8];
                for i in 0..k as u64 {
                    let pos = h1.wrapping_add(i.wrapping_mul(h2)) % 512;
                    want[(pos >> 6) as usize] |= 1 << (pos & 63);
                }
                assert_eq!(mask, want, "h1 {h1:#x} h2 {h2:#x} k {k}");
                for l in levels() {
                    assert_eq!(
                        block_mask_512_at(l, h1, h2, k),
                        want,
                        "{l:?} h1 {h1:#x} h2 {h2:#x} k {k}"
                    );
                }

                let mut block = [0u64; 8];
                for b in block.iter_mut() {
                    *b = it.next().unwrap();
                }
                let cov = (0..8).all(|w| block[w] & mask[w] == mask[w]);
                let mut full = block;
                for (b, m) in full.iter_mut().zip(&mask) {
                    *b |= m;
                }
                for l in levels() {
                    assert_eq!(covered_512_at(l, &block, &mask), cov, "{l:?}");
                    assert!(covered_512_at(l, &full, &mask), "{l:?} after or");
                }
            }
        }
    }

    #[test]
    fn force_level_clamps_and_restores() {
        let native = detected_level();
        force_level(Some(SimdLevel::Swar));
        assert_eq!(active_level(), SimdLevel::Swar);
        force_level(Some(SimdLevel::Avx2));
        assert_eq!(active_level(), SimdLevel::Avx2.min(native));
        force_level(Some(SimdLevel::Avx512));
        assert_eq!(active_level(), SimdLevel::Avx512.min(native));
        force_level(None);
        assert!(active_level() <= native);
    }
}
