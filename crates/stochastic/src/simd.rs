//! Runtime-dispatched SIMD backend family for the lane-blocked hot
//! paths: one vector engine per stochastic number generator plus the
//! shared fold/assembly kernels they feed.
//!
//! The lane-blocked evaluation pipeline (see [`crate::resc`] and
//! `osc-core`'s lane kernel) stores every per-stream word array
//! *lane-interleaved*: block `w` of lane `l` lives at `w * L + l`, so the
//! `L` lanes of one 64-cycle block are contiguous in memory. Stream
//! *generation* is the transposed problem — `L` independent comparator
//! chains advancing in lock-step — so the engines here keep chain states
//! vertical in vector registers, collect one comparator mask per draw,
//! and hand 64-draw mask blocks to the BMI2 `pext` transpose that
//! produces the per-lane LSB-first words the scalar drains would have
//! packed.
//!
//! # Backend family
//!
//! | engine | serves | AVX-512 path | AVX2 path | extra gates |
//! |---|---|---|---|---|
//! | `xoshiro_drain_chains` | `XoshiroSng` | `vprolq` + `vpcmpuq` k-masks | shift-or rotates + sign-bias `vpcmpgtq` | `bmi2` |
//! | `splitmix_drain_chains` | `ChaoticLaserSng` | `vpmullq` mix (needs `avx512dq`) | `vpmuludq` split multiply | `bmi2` |
//! | `counter_drain_chains` | `CounterSng` (base-2 mode) | `vgf2p8affineqb` bit-reverse + `vpcmpuq` | GFNI VEX reverse or shared scalar reverse | — |
//! | [`popcount_lanes_accumulate`] | count-plane fold | `vpopcntq` | nibble-LUT `vpshufb` + `vpsadbw` | — |
//! | [`assemble_indices16`] | noisy-tier index assembly | `vpmovm2w` mask broadcast (needs `avx512bw`) | — (scalar fallback) | — |
//!
//! Dispatch rules, uniform across the family:
//!
//! - An engine runs only when [`active_tier`] admits it **and** every
//!   extra feature it names is detected at runtime; otherwise the entry
//!   point returns `false` without touching its outputs and the caller
//!   runs the portable scalar interleave.
//! - The chain engines accept `L ∈ {4, 8}`; `L = 8` uses one ZMM per
//!   state word on the AVX-512 tier and two YMM register groups on AVX2.
//!   The counter engine exploits that all lanes of one `drain_lanes`
//!   call walk the *same* counter sequence, so it bit-reverses each index
//!   once and compares it against every lane's threshold.
//! - **Bit-identity guarantee:** every tier of every engine produces
//!   exactly the words of the scalar reference interleave — same draws,
//!   same comparator semantics (widened 53-bit thresholds with the
//!   `always` saturation flag), same LSB-first packing, same final
//!   generator states. The in-module tests and the cross-crate
//!   `lane_equivalence.rs` matrix pin this word-for-word across tiers,
//!   so dispatch may change *speed* but never *results*.
//!
//! # Dispatch tier
//!
//! [`active_tier`] picks the widest implementation the CPU supports,
//! resolved once per process via `is_x86_feature_detected!`. Two override
//! channels exist so CI can pin every code path:
//!
//! - the `OSC_SIMD` environment variable (`scalar`, `avx2`, `avx512`)
//!   caps the tier; `OSC_FORCE_SCALAR=1` is shorthand for
//!   `OSC_SIMD=scalar`. Requests above what the hardware supports clamp
//!   down, so `OSC_SIMD=avx2` is safe on any machine. Unknown names are
//!   rejected by [`parse_tier`] and reported on stderr (never silently
//!   remapped to some other tier).
//! - [`set_tier_override`], the in-process API switch the equivalence
//!   tests use to run the same workload through each tier.
//!
//! The portable scalar path is **mandatory**: every entry point falls
//! back to it for lane counts the vector widths don't divide and on
//! non-x86 targets, and the property tests pin all tiers word-for-word
//! against it. Tier selection also feeds *lane-block shaping*:
//! `osc-core`'s `batch::lane_blocks` degrades to single-lane blocks on
//! the scalar tier, where the `[u64; L]` lock-step walk has no vector
//! engine behind it and loses to sequential per-lane runs.

use std::sync::atomic::{AtomicU8, Ordering};

/// One dispatchable implementation level, ordered by register width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable `u64::count_ones` loop — always available, the reference.
    Scalar,
    /// 256-bit AVX2 nibble-shuffle popcount (4 lanes per register).
    Avx2,
    /// 512-bit `vpopcntq` (8 lanes per register); requires the
    /// AVX512VPOPCNTDQ extension, not just AVX-512F.
    Avx512,
}

impl SimdTier {
    /// Short lowercase name (`scalar` / `avx2` / `avx512`), matching the
    /// `OSC_SIMD` spellings.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Avx2),
            3 => Some(SimdTier::Avx512),
            _ => None,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 2,
            SimdTier::Avx512 => 3,
        }
    }
}

/// A tier name that matched none of the `OSC_SIMD` spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierParseError {
    requested: String,
}

impl std::fmt::Display for TierParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown SIMD tier {:?} (valid tiers: scalar, avx2, avx512)",
            self.requested
        )
    }
}

impl std::error::Error for TierParseError {}

/// Parses a tier name (`scalar` / `avx2` / `avx512`, case-insensitive,
/// surrounding whitespace ignored). Unknown names return a
/// [`TierParseError`] listing the valid spellings — they are never
/// silently remapped to another tier.
pub fn parse_tier(name: &str) -> Result<SimdTier, TierParseError> {
    match name.trim().to_ascii_lowercase().as_str() {
        "scalar" => Ok(SimdTier::Scalar),
        "avx2" => Ok(SimdTier::Avx2),
        "avx512" => Ok(SimdTier::Avx512),
        _ => Err(TierParseError {
            requested: name.to_string(),
        }),
    }
}

/// The widest tier this CPU supports (cached after the first call).
pub fn detected_tier() -> SimdTier {
    static DETECTED: AtomicU8 = AtomicU8::new(0);
    if let Some(t) = SimdTier::from_u8(DETECTED.load(Ordering::Relaxed)) {
        return t;
    }
    let t = detect();
    DETECTED.store(t.to_u8(), Ordering::Relaxed);
    t
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdTier {
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
        SimdTier::Avx512
    } else if is_x86_feature_detected!("avx2") {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdTier {
    SimdTier::Scalar
}

/// `0` = no override; otherwise `SimdTier::to_u8` of the forced tier.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces (or, with `None`, releases) the dispatch tier process-wide —
/// the API form of the `OSC_SIMD` switch, for tests that must run the
/// same workload through several tiers in one process. Requests above
/// [`detected_tier`] clamp down, so forcing is always safe. Returns the
/// tier that will actually be active.
pub fn set_tier_override(tier: Option<SimdTier>) -> SimdTier {
    match tier {
        Some(t) => {
            let t = t.min(detected_tier());
            OVERRIDE.store(t.to_u8(), Ordering::Relaxed);
            t
        }
        None => {
            OVERRIDE.store(0, Ordering::Relaxed);
            active_tier()
        }
    }
}

/// Tier cap requested through the environment (`OSC_SIMD` /
/// `OSC_FORCE_SCALAR`), read once per process.
fn env_cap() -> Option<SimdTier> {
    static ENV: AtomicU8 = AtomicU8::new(0);
    match ENV.load(Ordering::Relaxed) {
        0 => {}
        0xFF => return None,
        v => return SimdTier::from_u8(v),
    }
    let cap = if std::env::var_os("OSC_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        Some(SimdTier::Scalar)
    } else {
        match std::env::var("OSC_SIMD") {
            Ok(v) if !v.trim().is_empty() => match parse_tier(&v) {
                Ok(t) => Some(t),
                Err(e) => {
                    // Report once (the result is cached below) and run
                    // uncapped rather than guessing at a tier.
                    eprintln!("[simd] ignoring OSC_SIMD: {e}");
                    None
                }
            },
            _ => None,
        }
    };
    ENV.store(cap.map_or(0xFF, SimdTier::to_u8), Ordering::Relaxed);
    cap
}

/// The tier the dispatched entry points use: the [`set_tier_override`]
/// value if set, else the environment cap, clamped to [`detected_tier`].
pub fn active_tier() -> SimdTier {
    if let Some(t) = SimdTier::from_u8(OVERRIDE.load(Ordering::Relaxed)) {
        return t;
    }
    let detected = detected_tier();
    env_cap().map_or(detected, |cap| cap.min(detected))
}

/// Adds, per lane, the population count of every block of a
/// lane-interleaved word array: `acc[l] += Σ_w popcount(words[w * L + l])`
/// where `L = acc.len()`. Dispatches on [`active_tier`].
///
/// # Panics
///
/// Panics if `words.len()` is not a multiple of `acc.len()` or `acc` is
/// empty.
pub fn popcount_lanes_accumulate(words: &[u64], acc: &mut [u64]) {
    popcount_lanes_accumulate_with(active_tier(), words, acc);
}

/// [`popcount_lanes_accumulate`] through an explicit tier (clamped to
/// [`detected_tier`], so any request is safe to make). The
/// word-for-word agreement of all tiers is pinned by this module's tests
/// and the cross-crate lane-equivalence suite.
///
/// # Panics
///
/// Panics if `words.len()` is not a multiple of `acc.len()` or `acc` is
/// empty.
pub fn popcount_lanes_accumulate_with(tier: SimdTier, words: &[u64], acc: &mut [u64]) {
    let lanes = acc.len();
    assert!(lanes > 0, "need at least one lane accumulator");
    assert_eq!(
        words.len() % lanes,
        0,
        "words must hold whole lane-interleaved blocks"
    );
    let tier = tier.min(detected_tier());
    #[cfg(target_arch = "x86_64")]
    {
        if tier == SimdTier::Avx512 && lanes.is_multiple_of(8) {
            // SAFETY: `tier` is clamped to `detected_tier()`, whose Avx512
            // arm required `is_x86_feature_detected!` of avx512f and
            // avx512vpopcntdq — the features this kernel enables.
            unsafe { popcount_lanes_avx512(words, lanes, acc) };
            return;
        }
        if tier >= SimdTier::Avx2 && lanes.is_multiple_of(4) {
            // SAFETY: `tier` is clamped to `detected_tier()`, which only
            // reaches Avx2 after `is_x86_feature_detected!("avx2")`.
            unsafe { popcount_lanes_avx2(words, lanes, acc) };
            return;
        }
    }
    let _ = tier;
    popcount_lanes_scalar(words, lanes, acc);
}

/// The portable reference implementation (and the fallback for lane
/// counts the vector paths do not divide).
fn popcount_lanes_scalar(words: &[u64], lanes: usize, acc: &mut [u64]) {
    for block in words.chunks_exact(lanes) {
        for (a, &w) in acc.iter_mut().zip(block) {
            *a += u64::from(w.count_ones());
        }
    }
}

/// Loads four words into one YMM register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn load4(src: &[u64; 4]) -> std::arch::x86_64::__m256i {
    // SAFETY: `src` is 32 readable bytes and the load is unaligned; avx
    // is enabled (implied by avx2) on this function.
    unsafe { std::arch::x86_64::_mm256_loadu_si256(src.as_ptr().cast()) }
}

/// Stores one YMM register as four words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn store4(v: std::arch::x86_64::__m256i) -> [u64; 4] {
    let mut out = [0u64; 4];
    // SAFETY: `out` is 32 writable bytes and the store is unaligned; avx
    // is enabled (implied by avx2) on this function.
    unsafe { std::arch::x86_64::_mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
    out
}

/// Loads eight words into one ZMM register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn load8(src: &[u64; 8]) -> std::arch::x86_64::__m512i {
    // SAFETY: `src` is 64 readable bytes and the load is unaligned;
    // avx512f is enabled on this function.
    unsafe { std::arch::x86_64::_mm512_loadu_si512(src.as_ptr().cast()) }
}

/// Stores one ZMM register as eight words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn store8(v: std::arch::x86_64::__m512i) -> [u64; 8] {
    let mut out = [0u64; 8];
    // SAFETY: `out` is 64 writable bytes and the store is unaligned;
    // avx512f is enabled on this function.
    unsafe { std::arch::x86_64::_mm512_storeu_si512(out.as_mut_ptr().cast(), v) };
    out
}

/// AVX2: nibble-LUT popcount (`vpshufb`) + `vpsadbw` horizontal fold,
/// one 256-bit register per 4 adjacent lanes, per-lane accumulators kept
/// vertical across all blocks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn popcount_lanes_avx2(words: &[u64], lanes: usize, acc: &mut [u64]) {
    use std::arch::x86_64::*;
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0F);
    let zero = _mm256_setzero_si256();
    // Lanes are a multiple of 4: each block is `groups` quads of words.
    let groups = lanes / 4;
    for group in 0..groups {
        let mut vacc = zero;
        for block in words.as_chunks::<4>().0.chunks_exact(groups) {
            let v = load4(&block[group]);
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
            let nib = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
            vacc = _mm256_add_epi64(vacc, _mm256_sad_epu8(nib, zero));
        }
        for (a, o) in acc[group * 4..group * 4 + 4].iter_mut().zip(store4(vacc)) {
            *a += o;
        }
    }
}

/// AVX-512: hardware `vpopcntq`, one 512-bit register per 8 adjacent
/// lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
fn popcount_lanes_avx512(words: &[u64], lanes: usize, acc: &mut [u64]) {
    use std::arch::x86_64::*;
    // Lanes are a multiple of 8: each block is `groups` octs of words.
    let groups = lanes / 8;
    for group in 0..groups {
        let mut vacc = _mm512_setzero_si512();
        for block in words.as_chunks::<8>().0.chunks_exact(groups) {
            let v = load8(&block[group]);
            vacc = _mm512_add_epi64(vacc, _mm512_popcnt_epi64(v));
        }
        for (a, o) in acc[group * 8..group * 8 + 8].iter_mut().zip(store8(vacc)) {
            *a += o;
        }
    }
}

/// Whether the vectorized xoshiro comparator-chain engine
/// ([`xoshiro_drain_chains`]) will run for `lanes` chains under the
/// current dispatch tier. `drain_lanes_two` uses this to decline pairing
/// when two separate vectorized passes beat one scalar paired pass.
pub(crate) fn xoshiro_vector_applicable(lanes: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        matches!(lanes, 4 | 8)
            && active_tier() >= SimdTier::Avx2
            && is_x86_feature_detected!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        false
    }
}

/// Draws `L` independent xoshiro256++ comparator chains in vector
/// lock-step: chain `l` starts at `states[l]`, each draw emits bit
/// `(next_u64() < wide[l]) | always[l]`, and 64 draws per chain pack
/// into one `emit(&block, nbits)` word per lane (LSB-first, exactly the
/// scalar drain's bit order). On success the states hold each chain's
/// post-`len`-draws value and the function returns `true`; it returns
/// `false` (touching nothing) when no vector path applies — callers
/// must then run the scalar interleave.
///
/// The engine holds state word `i` of all chains in one SIMD register
/// (AVX-512: 8 chains/register with `vpcmpuq` k-mask comparators;
/// AVX2: 4 chains/register, two register groups for `L = 8`), collects
/// one comparator mask per draw, and transposes each 64-draw mask block
/// into per-lane words with BMI2 `pext`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn xoshiro_drain_chains<const L: usize, F>(
    states: &mut [[u64; 4]; L],
    wide: &[u64; L],
    always: &[bool; L],
    len: usize,
    mut emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    if !xoshiro_vector_applicable(L) {
        return false;
    }
    let tier = active_tier();
    let mut always_mask = 0u8;
    for (l, &a) in always.iter().enumerate() {
        always_mask |= u8::from(a) << l;
    }
    let mut adapter = |words: &[u64], nbits: usize| {
        let mut block = [0u64; L];
        block.copy_from_slice(&words[..L]);
        emit(&block, nbits);
    };
    // SAFETY: `xoshiro_vector_applicable` checked
    // `is_x86_feature_detected!("bmi2")` and an `active_tier()` of at
    // least Avx2 (avx2 detected); `active_tier()` is clamped to
    // `detected_tier()`, so the Avx512 arm also has avx512f detected.
    unsafe {
        if L == 8 && tier == SimdTier::Avx512 {
            xoshiro_chains8_avx512(states.as_mut_slice(), wide, always_mask, len, &mut adapter);
        } else {
            xoshiro_chains_avx2(states.as_mut_slice(), wide, always_mask, len, &mut adapter);
        }
    }
    true
}

/// Non-x86 stub: no vector engine; callers use the scalar interleave.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn xoshiro_drain_chains<const L: usize, F>(
    _states: &mut [[u64; 4]; L],
    _wide: &[u64; L],
    _always: &[bool; L],
    _len: usize,
    _emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    false
}

/// Transposes one 64-draw mask block (`masks[t]` bit `l` = chain `l`'s
/// draw `t`) into per-lane LSB-first words via BMI2 `pext`, zeroing
/// draws at and above `nbits`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
fn transpose_masks(masks: &mut [u8; 64], lanes: usize, nbits: usize, words: &mut [u64; 8]) {
    use std::arch::x86_64::_pext_u64;
    if nbits < 64 {
        masks[nbits..].fill(0);
    }
    for (l, word) in words[..lanes].iter_mut().enumerate() {
        let sel = 0x0101_0101_0101_0101u64 << l;
        let mut w = 0u64;
        for c in 0..8 {
            let chunk = u64::from_le_bytes(masks[c * 8..c * 8 + 8].try_into().expect("8 bytes"));
            w |= _pext_u64(chunk, sel) << (c * 8);
        }
        *word = w;
    }
}

/// AVX-512 engine: 8 chains, state word `i` of all chains in one ZMM,
/// `vprolq` rotates, `vpcmpuq` comparator k-masks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,bmi2")]
fn xoshiro_chains8_avx512(
    states: &mut [[u64; 4]],
    wide: &[u64],
    always_mask: u8,
    len: usize,
    emit: &mut dyn FnMut(&[u64], usize),
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(states.len(), 8);
    let word = |i: usize| -> [u64; 8] { std::array::from_fn(|l| states[l][i]) };
    let (mut s0, mut s1, mut s2, mut s3) = (
        load8(&word(0)),
        load8(&word(1)),
        load8(&word(2)),
        load8(&word(3)),
    );
    let widev = load8(wide.first_chunk().expect("8 lane thresholds"));
    let mut masks = [0u8; 64];
    let mut words = [0u64; 8];
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        for m in masks[..nbits].iter_mut() {
            // result = rotl(s0 + s3, 23) + s0, compared below the
            // widened threshold (exact unsigned compare).
            let sum = _mm512_add_epi64(s0, s3);
            let res = _mm512_add_epi64(_mm512_rol_epi64::<23>(sum), s0);
            *m = _mm512_cmplt_epu64_mask(res, widev) | always_mask;
            // State transition (the linear xoshiro256++ update).
            let t17 = _mm512_slli_epi64::<17>(s1);
            s2 = _mm512_xor_si512(s2, s0);
            s3 = _mm512_xor_si512(s3, s1);
            s1 = _mm512_xor_si512(s1, s2);
            s0 = _mm512_xor_si512(s0, s3);
            s2 = _mm512_xor_si512(s2, t17);
            s3 = _mm512_rol_epi64::<45>(s3);
        }
        transpose_masks(&mut masks, 8, nbits, &mut words);
        emit(&words, nbits);
        remaining -= nbits;
    }
    let (o0, o1, o2, o3) = (store8(s0), store8(s1), store8(s2), store8(s3));
    for (l, st) in states.iter_mut().enumerate() {
        *st = [o0[l], o1[l], o2[l], o3[l]];
    }
}

/// AVX2 engine: 4 chains per YMM register group, one group for `L = 4`
/// and two for `L = 8`; rotates are shift-or pairs and the unsigned
/// comparator is the sign-bias `vpcmpgtq` trick + `vmovmskpd`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi2")]
fn xoshiro_chains_avx2(
    states: &mut [[u64; 4]],
    wide: &[u64],
    always_mask: u8,
    len: usize,
    emit: &mut dyn FnMut(&[u64], usize),
) {
    use std::arch::x86_64::*;
    let lanes = states.len();
    debug_assert!(lanes == 4 || lanes == 8);
    let groups = lanes / 4;
    let word = |i: usize, g: usize| -> [u64; 4] { std::array::from_fn(|l| states[g * 4 + l][i]) };
    let mut s0 = [_mm256_setzero_si256(); 2];
    let mut s1 = [_mm256_setzero_si256(); 2];
    let mut s2 = [_mm256_setzero_si256(); 2];
    let mut s3 = [_mm256_setzero_si256(); 2];
    let mut widev = [_mm256_setzero_si256(); 2];
    let bias = _mm256_set1_epi64x(i64::MIN);
    for g in 0..groups {
        s0[g] = load4(&word(0, g));
        s1[g] = load4(&word(1, g));
        s2[g] = load4(&word(2, g));
        s3[g] = load4(&word(3, g));
        widev[g] = _mm256_xor_si256(load4(&wide.as_chunks::<4>().0[g]), bias);
    }
    let mut masks = [0u8; 64];
    let mut words = [0u64; 8];
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        for m in masks[..nbits].iter_mut() {
            let mut bits = 0u32;
            for g in 0..groups {
                let sum = _mm256_add_epi64(s0[g], s3[g]);
                let rot =
                    _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
                let res = _mm256_add_epi64(rot, s0[g]);
                // Unsigned res < wide  ⇔  signed (wide ^ bias) > (res ^ bias).
                let lt = _mm256_cmpgt_epi64(widev[g], _mm256_xor_si256(res, bias));
                bits |= (_mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u32) << (g * 4);
                let t17 = _mm256_slli_epi64::<17>(s1[g]);
                s2[g] = _mm256_xor_si256(s2[g], s0[g]);
                s3[g] = _mm256_xor_si256(s3[g], s1[g]);
                s1[g] = _mm256_xor_si256(s1[g], s2[g]);
                s0[g] = _mm256_xor_si256(s0[g], s3[g]);
                s2[g] = _mm256_xor_si256(s2[g], t17);
                s3[g] = _mm256_or_si256(
                    _mm256_slli_epi64::<45>(s3[g]),
                    _mm256_srli_epi64::<19>(s3[g]),
                );
            }
            *m = bits as u8 | always_mask;
        }
        transpose_masks(&mut masks, lanes, nbits, &mut words);
        emit(&words[..lanes], nbits);
        remaining -= nbits;
    }
    for g in 0..groups {
        let (o0, o1, o2, o3) = (store4(s0[g]), store4(s1[g]), store4(s2[g]), store4(s3[g]));
        for l in 0..4 {
            states[g * 4 + l] = [o0[l], o1[l], o2[l], o3[l]];
        }
    }
}

/// Whether the vectorized SplitMix64 comparator-chain engine
/// ([`splitmix_drain_chains`]) will run for `lanes` chains under the
/// current dispatch tier. `ChaoticLaserSng::drain_lanes_two` uses this
/// to decline pairing when two vectorized passes beat one scalar paired
/// pass.
pub(crate) fn splitmix_vector_applicable(lanes: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        matches!(lanes, 4 | 8)
            && active_tier() >= SimdTier::Avx2
            && is_x86_feature_detected!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        false
    }
}

/// Draws `L` independent SplitMix64 comparator chains in vector
/// lock-step: chain `l` starts at state `states[l]`, each draw emits bit
/// `(next_u64() < wide[l]) | always[l]`, and 64 draws per chain pack
/// into one `emit(&block, nbits)` word per lane (LSB-first, exactly the
/// scalar drain's bit order). On success the states hold each chain's
/// post-`len`-draws value and the function returns `true`; it returns
/// `false` (touching nothing) when no vector path applies — callers
/// must then run the scalar interleave.
///
/// The SplitMix64 output mix is two 64-bit multiplies per draw: the
/// AVX-512 path uses `vpmullq` (gated on `avx512dq`), the AVX2 path
/// synthesizes the low-64 product from three `vpmuludq` 32×32 halves.
#[cfg(target_arch = "x86_64")]
pub(crate) fn splitmix_drain_chains<const L: usize, F>(
    states: &mut [u64; L],
    wide: &[u64; L],
    always: &[bool; L],
    len: usize,
    mut emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    if !splitmix_vector_applicable(L) {
        return false;
    }
    let tier = active_tier();
    let mut always_mask = 0u8;
    for (l, &a) in always.iter().enumerate() {
        always_mask |= u8::from(a) << l;
    }
    let mut adapter = |words: &[u64], nbits: usize| {
        let mut block = [0u64; L];
        block.copy_from_slice(&words[..L]);
        emit(&block, nbits);
    };
    // SAFETY: `splitmix_vector_applicable` checked
    // `is_x86_feature_detected!("bmi2")` and an `active_tier()` of at
    // least Avx2 (avx2 detected); the Avx512 arm has avx512f detected via
    // the clamped tier and checks `is_x86_feature_detected!("avx512dq")`
    // itself.
    unsafe {
        if L == 8 && tier == SimdTier::Avx512 && is_x86_feature_detected!("avx512dq") {
            splitmix_chains8_avx512(states.as_mut_slice(), wide, always_mask, len, &mut adapter);
        } else {
            splitmix_chains_avx2(states.as_mut_slice(), wide, always_mask, len, &mut adapter);
        }
    }
    true
}

/// Non-x86 stub: no vector engine; callers use the scalar interleave.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn splitmix_drain_chains<const L: usize, F>(
    _states: &mut [u64; L],
    _wide: &[u64; L],
    _always: &[bool; L],
    _len: usize,
    _emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    false
}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
const SPLITMIX_MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const SPLITMIX_MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// AVX-512 engine: 8 chains, all states in one ZMM, `vpmullq` mix
/// multiplies, `vpcmpuq` comparator k-masks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,bmi2")]
fn splitmix_chains8_avx512(
    states: &mut [u64],
    wide: &[u64],
    always_mask: u8,
    len: usize,
    emit: &mut dyn FnMut(&[u64], usize),
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(states.len(), 8);
    let mut s = load8(states.first_chunk().expect("8 lane states"));
    let widev = load8(wide.first_chunk().expect("8 lane thresholds"));
    let gamma = _mm512_set1_epi64(SPLITMIX_GAMMA as i64);
    let c1 = _mm512_set1_epi64(SPLITMIX_MIX1 as i64);
    let c2 = _mm512_set1_epi64(SPLITMIX_MIX2 as i64);
    let mut masks = [0u8; 64];
    let mut words = [0u64; 8];
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        for m in masks[..nbits].iter_mut() {
            s = _mm512_add_epi64(s, gamma);
            let mut z = _mm512_mullo_epi64(_mm512_xor_si512(s, _mm512_srli_epi64::<30>(s)), c1);
            z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), c2);
            z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
            *m = _mm512_cmplt_epu64_mask(z, widev) | always_mask;
        }
        transpose_masks(&mut masks, 8, nbits, &mut words);
        emit(&words, nbits);
        remaining -= nbits;
    }
    states[..8].copy_from_slice(&store8(s));
}

/// AVX2 engine: 4 chains per YMM register group; the 64-bit mix
/// multiplies are synthesized from `vpmuludq` 32×32→64 halves
/// (`lo·lo + ((lo·hi + hi·lo) << 32)`), the unsigned comparator is the
/// sign-bias `vpcmpgtq` trick + `vmovmskpd`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi2")]
fn splitmix_chains_avx2(
    states: &mut [u64],
    wide: &[u64],
    always_mask: u8,
    len: usize,
    emit: &mut dyn FnMut(&[u64], usize),
) {
    use std::arch::x86_64::*;
    let lanes = states.len();
    debug_assert!(lanes == 4 || lanes == 8);
    let groups = lanes / 4;
    let bias = _mm256_set1_epi64x(i64::MIN);
    let gamma = _mm256_set1_epi64x(SPLITMIX_GAMMA as i64);
    let c1 = _mm256_set1_epi64x(SPLITMIX_MIX1 as i64);
    let c2 = _mm256_set1_epi64x(SPLITMIX_MIX2 as i64);
    let mul64 = |a: __m256i, b: __m256i| {
        let lo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b)),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    };
    let mut s = [_mm256_setzero_si256(); 2];
    let mut widev = [_mm256_setzero_si256(); 2];
    for g in 0..groups {
        s[g] = load4(&states.as_chunks::<4>().0[g]);
        widev[g] = _mm256_xor_si256(load4(&wide.as_chunks::<4>().0[g]), bias);
    }
    let mut masks = [0u8; 64];
    let mut words = [0u64; 8];
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        for m in masks[..nbits].iter_mut() {
            let mut bits = 0u32;
            for g in 0..groups {
                s[g] = _mm256_add_epi64(s[g], gamma);
                let mut z = mul64(_mm256_xor_si256(s[g], _mm256_srli_epi64::<30>(s[g])), c1);
                z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), c2);
                z = _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z));
                // Unsigned z < wide  ⇔  signed (wide ^ bias) > (z ^ bias).
                let lt = _mm256_cmpgt_epi64(widev[g], _mm256_xor_si256(z, bias));
                bits |= (_mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u32) << (g * 4);
            }
            *m = bits as u8 | always_mask;
        }
        transpose_masks(&mut masks, lanes, nbits, &mut words);
        emit(&words[..lanes], nbits);
        remaining -= nbits;
    }
    for g in 0..groups {
        states[g * 4..g * 4 + 4].copy_from_slice(&store4(s[g]));
    }
}

/// Whether the base-2 counter (van der Corput) engine
/// ([`counter_drain_chains`]) will run for `lanes` chains under the
/// current dispatch tier.
pub(crate) fn counter_vector_applicable(lanes: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        matches!(lanes, 4 | 8) && active_tier() >= SimdTier::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = lanes;
        false
    }
}

/// Draws `L` base-2 van der Corput comparator chains that share one
/// counter walk: draw `t` (1-based) emits, for lane `l`, the bit
/// `reverse_bits(t) < wide[l]` (or `1` when `always[l]`, i.e. the u128
/// threshold saturated past 2^64). 64 draws pack into one
/// `emit(&block, nbits)` word per lane, LSB-first — exactly the scalar
/// `counter_bit` interleave. Returns `false` (touching nothing) when no
/// vector path applies.
///
/// Because every lane of one `drain_lanes` call advances the *same*
/// counter, the engine bit-reverses each index once — GFNI
/// `vgf2p8affineqb` (bit-reverse within bytes) + `vpshufb` (byte
/// reversal) where available, portable `u64::reverse_bits` otherwise —
/// and then runs one vector compare per lane per 64-draw block, whose
/// mask *is* the lane's output byte: no pext transpose needed.
#[cfg(target_arch = "x86_64")]
pub(crate) fn counter_drain_chains<const L: usize, F>(
    wide: &[u64; L],
    always: &[bool; L],
    len: usize,
    mut emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    if !counter_vector_applicable(L) {
        return false;
    }
    let tier = active_tier();
    let gfni = is_x86_feature_detected!("gfni");
    let avx512bw = is_x86_feature_detected!("avx512bw");
    let mut revbuf = [0u64; 64];
    let mut words = [0u64; L];
    let mut n = 0u64;
    let mut remaining = len;
    while remaining > 0 {
        let nbits = remaining.min(64);
        // Fill revbuf with reverse_bits(n + 1 ..= n + 64); slots at and
        // above nbits are never read back (masked out below).
        // SAFETY: `counter_vector_applicable` required an `active_tier()`
        // of at least Avx2, and `active_tier()` is clamped to
        // `detected_tier()` (avx2 detected; Avx512 means avx512f
        // detected); gfni and avx512bw come from the
        // `is_x86_feature_detected!` calls above.
        unsafe {
            if tier == SimdTier::Avx512 && gfni && avx512bw {
                reverse_indices_avx512(n, &mut revbuf);
            } else if gfni {
                reverse_indices_avx2_gfni(n, &mut revbuf);
            } else {
                for (t, r) in revbuf.iter_mut().enumerate() {
                    *r = (n + 1 + t as u64).reverse_bits();
                }
            }
            if tier == SimdTier::Avx512 {
                counter_compare_words_avx512(&revbuf, wide, &mut words);
            } else {
                counter_compare_words_avx2(&revbuf, wide, &mut words);
            }
        }
        for (w, &a) in words.iter_mut().zip(always.iter()) {
            if a {
                *w = u64::MAX;
            }
            if nbits < 64 {
                *w &= (1u64 << nbits) - 1;
            }
        }
        emit(&words, nbits);
        n += nbits as u64;
        remaining -= nbits;
    }
    true
}

/// Non-x86 stub: no vector engine; callers use the scalar interleave.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn counter_drain_chains<const L: usize, F>(
    _wide: &[u64; L],
    _always: &[bool; L],
    _len: usize,
    _emit: F,
) -> bool
where
    F: FnMut(&[u64; L], usize),
{
    false
}

/// GF(2) affine matrix that bit-reverses each byte under
/// `vgf2p8affineqb` (the identity matrix in this encoding is
/// `0x0102_0408_1020_4080`).
#[cfg(target_arch = "x86_64")]
const GFNI_BIT_REVERSE: i64 = 0x8040_2010_0804_0201u64 as i64;

/// Bit-reverses the 64 counter values `n + 1 ..= n + 64` into `out`,
/// eight per ZMM: GFNI reverses bits within each byte, `vpshufb`
/// reverses the bytes of each quadword.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,gfni")]
fn reverse_indices_avx512(n: u64, out: &mut [u64; 64]) {
    use std::arch::x86_64::*;
    let revmat = _mm512_set1_epi64(GFNI_BIT_REVERSE);
    let byte_swap = _mm512_broadcast_i32x4(_mm_set_epi8(
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
    ));
    let step = _mm512_set1_epi64(8);
    let mut idx = _mm512_add_epi64(
        _mm512_set1_epi64(n as i64),
        _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8),
    );
    for c in 0..8 {
        let br = _mm512_gf2p8affine_epi64_epi8::<0>(idx, revmat);
        let r = _mm512_shuffle_epi8(br, byte_swap);
        out[c * 8..c * 8 + 8].copy_from_slice(&store8(r));
        idx = _mm512_add_epi64(idx, step);
    }
}

/// [`reverse_indices_avx512`] with VEX-encoded 256-bit GFNI, four
/// counter values per YMM.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,gfni")]
fn reverse_indices_avx2_gfni(n: u64, out: &mut [u64; 64]) {
    use std::arch::x86_64::*;
    let revmat = _mm256_set1_epi64x(GFNI_BIT_REVERSE);
    let byte_swap = _mm256_broadcastsi128_si256(_mm_set_epi8(
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
    ));
    let step = _mm256_set1_epi64x(4);
    let mut idx = _mm256_add_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(1, 2, 3, 4));
    for c in 0..16 {
        let br = _mm256_gf2p8affine_epi64_epi8::<0>(idx, revmat);
        let r = _mm256_shuffle_epi8(br, byte_swap);
        out[c * 4..c * 4 + 4].copy_from_slice(&store4(r));
        idx = _mm256_add_epi64(idx, step);
    }
}

/// Compares the 64 shared reversed indices against each lane's widened
/// threshold; each 8-value `vpcmpuq` k-mask is directly 8 output bits of
/// that lane's word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn counter_compare_words_avx512(revbuf: &[u64; 64], wide: &[u64], words: &mut [u64]) {
    use std::arch::x86_64::*;
    for (l, word) in words.iter_mut().enumerate() {
        let tv = _mm512_set1_epi64(wide[l] as i64);
        let mut w = 0u64;
        for c in 0..8 {
            let v = load8(&revbuf.as_chunks::<8>().0[c]);
            w |= (_mm512_cmplt_epu64_mask(v, tv) as u64) << (c * 8);
        }
        *word = w;
    }
}

/// AVX2 variant of [`counter_compare_words_avx512`]: sign-bias
/// `vpcmpgtq` + `vmovmskpd`, 4 output bits per compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn counter_compare_words_avx2(revbuf: &[u64; 64], wide: &[u64], words: &mut [u64]) {
    use std::arch::x86_64::*;
    let bias = _mm256_set1_epi64x(i64::MIN);
    for (l, word) in words.iter_mut().enumerate() {
        let tv = _mm256_xor_si256(_mm256_set1_epi64x(wide[l] as i64), bias);
        let mut w = 0u64;
        for c in 0..16 {
            let v = load4(&revbuf.as_chunks::<4>().0[c]);
            let lt = _mm256_cmpgt_epi64(tv, _mm256_xor_si256(v, bias));
            w |= (_mm256_movemask_pd(_mm256_castsi256_pd(lt)) as u64) << (c * 4);
        }
        *word = w;
    }
}

/// Assembles the 64 per-cycle decision-table indices of one word × lane
/// slot: `idxs[t]` bit `j` = bit `t` of `src[j]` — a 64 × `src.len()`
/// bit transpose with `src.len() ≤ 16`. Returns `false` (touching
/// nothing) when no vector path applies; callers then run
/// [`assemble_indices16_scalar`] (or the equivalent nibble-spread
/// tables).
///
/// The AVX-512BW path broadcasts each source word's low/high 32 bits as
/// a `vpmovm2w` lane mask, ANDs with `1 << j`, and ORs into two ZMM
/// accumulators holding all 64 `u16` indices.
pub fn assemble_indices16(src: &[u64], idxs: &mut [u16; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if src.len() <= 16
            && active_tier() == SimdTier::Avx512
            && is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: `active_tier()` is clamped to `detected_tier()`, so
            // Avx512 means avx512f was detected; avx512bw is checked by
            // `is_x86_feature_detected!` just above.
            unsafe { assemble_indices16_avx512bw(src, idxs) };
            return true;
        }
    }
    let _ = (src, idxs);
    false
}

/// The portable reference for [`assemble_indices16`].
pub fn assemble_indices16_scalar(src: &[u64], idxs: &mut [u16; 64]) {
    debug_assert!(src.len() <= 16);
    for (t, slot) in idxs.iter_mut().enumerate() {
        let mut idx = 0u16;
        for (j, &w) in src.iter().enumerate() {
            idx |= (((w >> t) & 1) as u16) << j;
        }
        *slot = idx;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn assemble_indices16_avx512bw(src: &[u64], idxs: &mut [u16; 64]) {
    use std::arch::x86_64::*;
    let mut lo = _mm512_setzero_si512();
    let mut hi = _mm512_setzero_si512();
    for (j, &w) in src.iter().enumerate() {
        let bit = _mm512_set1_epi16((1u16 << j) as i16);
        lo = _mm512_or_si512(
            lo,
            _mm512_maskz_mov_epi16((w & 0xFFFF_FFFF) as __mmask32, bit),
        );
        hi = _mm512_or_si512(hi, _mm512_maskz_mov_epi16((w >> 32) as __mmask32, bit));
    }
    let (lo_half, hi_half) = idxs.split_at_mut(32);
    // SAFETY: each half is 32 `u16`s — exactly the 64 writable bytes one
    // unaligned 512-bit store covers; avx512f is enabled on this function.
    unsafe {
        _mm512_storeu_si512(lo_half.as_mut_ptr().cast(), lo);
        _mm512_storeu_si512(hi_half.as_mut_ptr().cast(), hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osc_math::rng::SplitMix64;

    fn reference(words: &[u64], lanes: usize) -> Vec<u64> {
        let mut acc = vec![0u64; lanes];
        for block in words.chunks_exact(lanes) {
            for (a, &w) in acc.iter_mut().zip(block) {
                *a += u64::from(w.count_ones());
            }
        }
        acc
    }

    #[test]
    fn tiers_are_ordered_by_width() {
        assert!(SimdTier::Scalar < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        assert_eq!(SimdTier::Avx512.name(), "avx512");
    }

    #[test]
    fn every_available_tier_matches_scalar_word_for_word() {
        // Random words across awkward block counts and every lane width
        // the kernels use: all tiers must agree exactly with the scalar
        // reference (the forced-scalar CI job pins the reverse direction).
        let mut rng = SplitMix64::new(0xD15_BA7C);
        for lanes in [1usize, 2, 3, 4, 5, 8] {
            for nblocks in [0usize, 1, 2, 7, 64, 129] {
                let words: Vec<u64> = (0..lanes * nblocks).map(|_| rng.next_u64()).collect();
                let want = reference(&words, lanes);
                for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
                    let mut acc = vec![0u64; lanes];
                    popcount_lanes_accumulate_with(tier, &words, &mut acc);
                    assert_eq!(
                        acc, want,
                        "tier {:?}, lanes {lanes}, blocks {nblocks}",
                        tier
                    );
                }
            }
        }
    }

    #[test]
    fn accumulation_adds_on_top_of_existing_counts() {
        let words = [u64::MAX, 0, 0xF0F0_F0F0_F0F0_F0F0, 1];
        let mut acc = [100u64, 200];
        popcount_lanes_accumulate(&words, &mut acc);
        assert_eq!(acc, [100 + 64 + 32, 200 + 1]);
    }

    #[test]
    fn detected_tier_is_stable_and_active_tier_clamped() {
        assert_eq!(detected_tier(), detected_tier());
        assert!(active_tier() <= detected_tier());
    }

    #[test]
    fn override_forces_and_releases() {
        // The override clamps to the hardware and always round-trips back
        // to the environment-resolved tier on release. Forcing Scalar is
        // exact on every machine. (No assertion on the global
        // `active_tier` itself: other tests in this binary toggle the
        // shared override concurrently, and every tier is bit-identical
        // anyway — value assertions below are the race-free check.)
        let forced = set_tier_override(Some(SimdTier::Scalar));
        assert_eq!(forced, SimdTier::Scalar);
        let words = [0xAAAAu64, 0x5555];
        let mut acc = [0u64; 2];
        popcount_lanes_accumulate(&words, &mut acc);
        assert_eq!(acc, [8, 8]);
        let released = set_tier_override(None);
        assert!(released <= detected_tier());
    }

    #[test]
    #[should_panic(expected = "whole lane-interleaved blocks")]
    fn ragged_word_count_rejected() {
        let mut acc = [0u64; 4];
        popcount_lanes_accumulate(&[0u64; 6], &mut acc);
    }

    #[test]
    fn parse_tier_accepts_every_spelling() {
        assert_eq!(parse_tier("scalar"), Ok(SimdTier::Scalar));
        assert_eq!(parse_tier("avx2"), Ok(SimdTier::Avx2));
        assert_eq!(parse_tier("avx512"), Ok(SimdTier::Avx512));
        // Case and whitespace are forgiven; the tier set is not.
        assert_eq!(parse_tier(" AVX512 "), Ok(SimdTier::Avx512));
        assert_eq!(parse_tier("Scalar"), Ok(SimdTier::Scalar));
    }

    #[test]
    fn parse_tier_rejects_garbage_with_the_valid_list() {
        for garbage in ["avx", "sse2", "avx1024", "0", "scalar,avx2", "née"] {
            let err = parse_tier(garbage).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(&format!("{garbage:?}")), "{msg}");
            assert!(
                msg.contains("scalar, avx2, avx512"),
                "error must list the valid tiers: {msg}"
            );
        }
    }

    /// Scalar reference for the SplitMix engine: the same draws the
    /// `ChaoticLaserSng` interleave makes.
    fn splitmix_reference(
        states: &mut [u64],
        wide: &[u64],
        always: &[bool],
        len: usize,
    ) -> Vec<(Vec<u64>, usize)> {
        let mut rngs: Vec<SplitMix64> = states.iter().map(|&s| SplitMix64::new(s)).collect();
        let mut out = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let nbits = remaining.min(64);
            let mut words = vec![0u64; states.len()];
            for b in 0..nbits {
                for (l, w) in words.iter_mut().enumerate() {
                    let bit = (rngs[l].next_u64() < wide[l]) | always[l];
                    *w |= u64::from(bit) << b;
                }
            }
            out.push((words, nbits));
            remaining -= nbits;
        }
        for (s, rng) in states.iter_mut().zip(&rngs) {
            *s = rng.state();
        }
        out
    }

    #[test]
    fn splitmix_engine_matches_scalar_reference_on_every_tier() {
        // The engine only runs when a vector tier is active; when another
        // test has raced the global override down to scalar it declines,
        // which is itself the correct (and asserted) behaviour.
        let mut seeder = SplitMix64::new(0x5EED_CAFE);
        for tier in [SimdTier::Avx2, SimdTier::Avx512] {
            for lanes in [4usize, 8] {
                for len in [1usize, 63, 64, 65, 257, 1000] {
                    let mut states: [u64; 8] = std::array::from_fn(|_| seeder.next_u64());
                    let mut wide = [0u64; 8];
                    for w in wide.iter_mut().take(lanes) {
                        *w = seeder.next_u64();
                    }
                    // Exercise the saturation flag on one lane.
                    let mut always = [false; 8];
                    always[lanes - 1] = true;
                    let mut want_states = states;
                    let want = splitmix_reference(
                        &mut want_states[..lanes],
                        &wide[..lanes],
                        &always[..lanes],
                        len,
                    );
                    let granted = set_tier_override(Some(tier));
                    let mut got = Vec::new();
                    let ran = if lanes == 4 {
                        let mut s4: [u64; 4] = states[..4].try_into().unwrap();
                        let w4: [u64; 4] = wide[..4].try_into().unwrap();
                        let a4: [bool; 4] = always[..4].try_into().unwrap();
                        let ran = splitmix_drain_chains::<4, _>(
                            &mut s4,
                            &w4,
                            &a4,
                            len,
                            |block, nbits| got.push((block.to_vec(), nbits)),
                        );
                        states[..4].copy_from_slice(&s4);
                        ran
                    } else {
                        splitmix_drain_chains::<8, _>(
                            &mut states,
                            &wide,
                            &always,
                            len,
                            |block, nbits| got.push((block.to_vec(), nbits)),
                        )
                    };
                    set_tier_override(None);
                    if !ran {
                        assert!(
                            granted < SimdTier::Avx2 || !splitmix_vector_applicable(lanes),
                            "engine declined although applicable"
                        );
                        continue;
                    }
                    assert_eq!(got, want, "tier {tier:?}, lanes {lanes}, len {len}");
                    assert_eq!(
                        &states[..lanes],
                        &want_states[..lanes],
                        "final states, tier {tier:?}, lanes {lanes}, len {len}"
                    );
                }
            }
        }
    }

    /// Scalar reference for the counter engine: shared counter walk,
    /// per-lane thresholds, `counter_bit` semantics.
    fn counter_reference(wide: &[u64], always: &[bool], len: usize) -> Vec<(Vec<u64>, usize)> {
        let mut out = Vec::new();
        let mut n = 0u64;
        let mut remaining = len;
        while remaining > 0 {
            let nbits = remaining.min(64);
            let mut words = vec![0u64; wide.len()];
            for b in 0..nbits {
                n += 1;
                let rev = n.reverse_bits();
                for (l, w) in words.iter_mut().enumerate() {
                    let bit = (rev < wide[l]) | always[l];
                    *w |= u64::from(bit) << b;
                }
            }
            out.push((words, nbits));
            remaining -= nbits;
        }
        out
    }

    #[test]
    fn counter_engine_matches_scalar_reference_on_every_tier() {
        let mut seeder = SplitMix64::new(0xC0_FFEE);
        for tier in [SimdTier::Avx2, SimdTier::Avx512] {
            for lanes in [4usize, 8] {
                for len in [1usize, 63, 64, 65, 257, 1000] {
                    let mut wide = [0u64; 8];
                    for w in wide.iter_mut().take(lanes) {
                        *w = seeder.next_u64();
                    }
                    wide[0] = 0; // p = 0: never fires
                    let mut always = [false; 8];
                    always[lanes - 1] = true; // saturated threshold
                    let want = counter_reference(&wide[..lanes], &always[..lanes], len);
                    let granted = set_tier_override(Some(tier));
                    let mut got = Vec::new();
                    let ran = if lanes == 4 {
                        let w4: [u64; 4] = wide[..4].try_into().unwrap();
                        let a4: [bool; 4] = always[..4].try_into().unwrap();
                        counter_drain_chains::<4, _>(&w4, &a4, len, |block, nbits| {
                            got.push((block.to_vec(), nbits))
                        })
                    } else {
                        let w8: [u64; 8] = wide;
                        let a8: [bool; 8] = always;
                        counter_drain_chains::<8, _>(&w8, &a8, len, |block, nbits| {
                            got.push((block.to_vec(), nbits))
                        })
                    };
                    set_tier_override(None);
                    if !ran {
                        assert!(
                            granted < SimdTier::Avx2 || !counter_vector_applicable(lanes),
                            "engine declined although applicable"
                        );
                        continue;
                    }
                    assert_eq!(got, want, "tier {tier:?}, lanes {lanes}, len {len}");
                }
            }
        }
    }

    #[test]
    fn assemble_indices16_matches_scalar_when_it_runs() {
        let mut rng = SplitMix64::new(0x1D_EA5);
        for nsrc in [1usize, 7, 10, 16] {
            let src: Vec<u64> = (0..nsrc).map(|_| rng.next_u64()).collect();
            let mut want = [0u16; 64];
            assemble_indices16_scalar(&src, &mut want);
            // Round-trip sanity on the reference itself.
            for (t, &idx) in want.iter().enumerate() {
                for (j, &w) in src.iter().enumerate() {
                    assert_eq!((idx >> j) & 1, ((w >> t) & 1) as u16);
                }
            }
            let mut got = [0xFFFFu16; 64];
            if assemble_indices16(&src, &mut got) {
                assert_eq!(got, want, "nsrc {nsrc}");
            }
        }
    }
}
