//! Runtime-dispatched wide batch lanes over the fast-path kernels.
//!
//! The PR 5 fast lanes in [`crate::fastpath`] deliberately keep the
//! baseline-x86-64 auto-vectorizer away from the add/sub datapath: without
//! AVX2 a per-lane variable shift or leading-zero count is a multi-
//! instruction emulation that loses to good scalar code. But AVX2 has
//! native per-lane 64-bit variable shifts (`vpsllvq`/`vpsrlvq`) and a cheap
//! byte-LUT popcount, which is everything the normal-path datapath needs.
//! This module adds that third lane:
//!
//! * **Branchless block kernels** (`add_block`, `mul_block`, `fma_block`)
//!   written in vector-value form over a [`LANES`]-wide word type, so the
//!   both-operands-normal datapath is explicit vector arithmetic with
//!   lane-mask selects instead of branches. The blocks are total over
//!   arbitrary encodings (special operands produce garbage that the
//!   partition pass discards — never a panic or UB) and bit-exact twins
//!   of the scalar fast lane on normal operands. The wide-format multiply
//!   and fma run on `(hi, lo)` u64 pairs (32-bit limb splits) instead of
//!   `u128`, so every operation maps to a vector instruction.
//! * **Classify-then-partition batch drivers**: each [`LANES`]-sized chunk
//!   is classified branchlessly (a normality bitmask), computed
//!   unconditionally by the wide kernel, and the rare special lanes are
//!   then overwritten in-place by a sparse fixup pass through the generic
//!   [`crate::ops`] path. Dense-compute + sparse-fixup beats literally
//!   splitting the batch into runs: all-normal runs shorter than a chunk
//!   would fragment the vector loop on exactly the workloads that have
//!   occasional specials.
//! * **A fused MAC column driver** behind [`fastpath::mac_column`]: the
//!   matmul PE's whole block product with each [`LANES`]-row chunk of the
//!   accumulator column held in one register across every `k` step, no
//!   per-element result records, and non-normal lanes (inputs, product or
//!   accumulator) redone for just that step through the scalar kernels.
//! * **Two explicit intrinsics engines** behind the `Words` trait: the
//!   block kernels are generic over a lane-word vocabulary (shifts,
//!   compares-to-mask, select, msb scan, 32×32 multiply), and each
//!   engine implements it with `#[target_feature]`-annotated methods —
//!   AVX-512 (`__m512i`, native `vplzcntq` and `__mmask8` compares) and
//!   AVX2 (`__m256i` pairs, `vpsllvq`/`vpsrlvq` and a vpshufb-popcount
//!   msb emulation), both x86-64 only; every other host runs the scalar
//!   fast lane. Explicit intrinsics, not autovectorization: LLVM refuses
//!   to vectorize the long select-chain bodies on its own (measured
//!   ~2.2× as scalarized code vs ≥5× with the intrinsics engines). The
//!   epilogue is vectorized too — packed flag words become [`Flags`]
//!   byte patterns via an in-register 8-entry LUT and are stored
//!   interleaved with the results, under compile-time layout checks.
//! * **Runtime dispatch**: a process-wide [`SimdPolicy`]
//!   (auto / force-scalar, `FPFPGA_SIMD` environment override) resolves
//!   to an engine once per batch, by positive feature detection; the
//!   `*_with` entry points pin any engine in [`available_engines`].
//!   Both engines are bit-exact on every lane the partition pass keeps.
//!
//! Each batch op (add, sub, mul, fma, MAC column) has one
//! implementation in [`crate::fastpath`] that takes the engine as a
//! parameter and runs this module's drivers for the intrinsics engines.
//! The policy entry points there ([`fastpath::add_pairs_batch`], …,
//! [`fastpath::mac_column`]) pass [`active_engine`], so every consumer
//! (the FPU pipeline's `run_batch`, the batched matmul kernels, the
//! serving eltwise path, the network front-end) picks up the wide engine
//! with zero call-site changes; the `*_with` twins here pass the
//! engine their caller pins.

// Off x86-64 no intrinsics engine exists, `available_engines()` is just
// the scalar lane, and the generic vector kernels below are never
// instantiated.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use crate::exceptions::Flags;
use crate::fastpath::{self, lane_of, Lane};
use crate::format::FpFormat;
use crate::ops;
use crate::ops::add::GRS_BITS;
use crate::ops::fma::FMA_GRS;
use crate::round::RoundMode;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lanes per chunk. Eight u64 lanes = one 512-bit register (AVX-512) or
/// two 256-bit registers (AVX2) per operand stream; wide enough to keep
/// the vector units busy through the long select chains, narrow enough
/// that the per-chunk classify mask and tail handling stay cheap.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// Policy and engine resolution
// ---------------------------------------------------------------------------

/// Process-wide SIMD dispatch policy.
///
/// The default (`Auto`) uses the best wide engine the host supports
/// (AVX-512, then AVX2) and the scalar fast lane otherwise.
/// `FPFPGA_SIMD=auto|scalar` overrides the default at startup;
/// [`set_simd_policy`] overrides both. Tests and benches that need one
/// particular engine pin it through the `*_with` entry points instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SimdPolicy {
    /// Best detected wide engine, scalar otherwise.
    Auto = 0,
    /// Always the scalar fast lane (the PR 5 behaviour).
    ForceScalar = 1,
}

/// The engine a batch actually runs on after policy resolution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdEngine {
    /// Per-element scalar fast lane.
    Scalar,
    /// Wide kernels compiled under `#[target_feature(enable = "avx2")]`.
    WideAvx2,
    /// Wide kernels compiled under the AVX-512 feature set
    /// (`avx512f/cd/vl/dq/bw`): one 512-bit register per chunk stream and
    /// native `vplzcntq` for the normalization scans.
    WideAvx512,
}

const POLICY_UNSET: u8 = 0xff;
static POLICY: AtomicU8 = AtomicU8::new(POLICY_UNSET);
static ENV_POLICY: OnceLock<SimdPolicy> = OnceLock::new();

/// Force the dispatch policy for the whole process (overrides the
/// `FPFPGA_SIMD` environment variable).
pub fn set_simd_policy(policy: SimdPolicy) {
    POLICY.store(policy as u8, Ordering::Relaxed);
}

/// The currently effective policy: an explicit [`set_simd_policy`] call
/// wins, then the `FPFPGA_SIMD` environment variable, then `Auto`.
/// Unrecognized environment values fall back to `Auto`.
pub fn simd_policy() -> SimdPolicy {
    match POLICY.load(Ordering::Relaxed) {
        0 => SimdPolicy::Auto,
        1 => SimdPolicy::ForceScalar,
        _ => *ENV_POLICY.get_or_init(|| match std::env::var("FPFPGA_SIMD").as_deref() {
            Ok("scalar") => SimdPolicy::ForceScalar,
            _ => SimdPolicy::Auto,
        }),
    }
}

/// Cached `is_x86_feature_detected!("avx2")`; always `false` off x86-64,
/// where no intrinsics engine is compiled.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Cached detection of the AVX-512 feature set the wide kernels compile
/// against (`avx512f/cd/vl/dq/bw`); always `false` off x86-64.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX512: OnceLock<bool> = OnceLock::new();
        *AVX512.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512cd")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512bw")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The engines this host can run: [`SimdEngine::Scalar`] first, then
/// each detected intrinsics engine (AVX2, then AVX-512). `Auto` runs the
/// last entry; the `*_with` entry points accept exactly these engines.
pub fn available_engines() -> &'static [SimdEngine] {
    static ENGINES: OnceLock<Vec<SimdEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let mut engines = vec![SimdEngine::Scalar];
        if avx2_available() {
            engines.push(SimdEngine::WideAvx2);
        }
        if avx512_available() {
            engines.push(SimdEngine::WideAvx512);
        }
        engines
    })
}

/// Resolve the policy to the engine batches will run on.
pub fn active_engine() -> SimdEngine {
    match simd_policy() {
        SimdPolicy::ForceScalar => SimdEngine::Scalar,
        SimdPolicy::Auto => available_engines()
            .last()
            .copied()
            .unwrap_or(SimdEngine::Scalar),
    }
}

/// Panic unless `eng` is in [`available_engines`]: the intrinsics
/// drivers behind the `*_with` entry points are only sound on a host
/// whose CPU has the engine's instructions.
#[track_caller]
fn assert_available(eng: SimdEngine) {
    assert!(
        available_engines().contains(&eng),
        "simd engine {eng:?} is not available on this host (available: {:?})",
        available_engines()
    );
}

// ---------------------------------------------------------------------------
// Branchless scalar building blocks
// ---------------------------------------------------------------------------

/// Select on u64 values with both arms pre-computed — compiles to a
/// conditional move scalarly and a blend in the vector loops.
#[inline(always)]
fn sel(c: bool, t: u64, f: u64) -> u64 {
    if c {
        t
    } else {
        f
    }
}

/// Select on i64 values.
#[inline(always)]
fn seli(c: bool, t: i64, f: i64) -> i64 {
    if c {
        t
    } else {
        f
    }
}

/// Index of the most significant set bit via bit-smear + popcount
/// (`-1` for zero). LLVM lowers the vector popcount with the `vpshufb`
/// nibble LUT under AVX2 — no scalar `lzcnt` emulation, no table gather.
#[inline(always)]
fn msb_index(x: u64) -> i64 {
    let mut s = x;
    s |= s >> 1;
    s |= s >> 2;
    s |= s >> 4;
    s |= s >> 8;
    s |= s >> 16;
    s |= s >> 32;
    s.count_ones() as i64 - 1
}

/// Full 64×64→128 multiply as `(hi, lo)` u64 words via 32-bit limb
/// splits. All four partial products are 32×32→64 (`vpmuludq` shape);
/// the carry chain is exact for every input pair.
#[inline(always)]
fn widening_mul(x: u64, y: u64) -> (u64, u64) {
    const M32: u64 = 0xffff_ffff;
    let (x0, x1) = (x & M32, x >> 32);
    let (y0, y1) = (y & M32, y >> 32);
    let m00 = x0.wrapping_mul(y0);
    let m01 = x0.wrapping_mul(y1);
    let m10 = x1.wrapping_mul(y0);
    let m11 = x1.wrapping_mul(y1);
    let mid = (m00 >> 32).wrapping_add(m01 & M32).wrapping_add(m10 & M32);
    let lo = (mid << 32) | (m00 & M32);
    let hi = m11
        .wrapping_add(m01 >> 32)
        .wrapping_add(m10 >> 32)
        .wrapping_add(mid >> 32);
    (hi, lo)
}

/// Sticky right shift of a `(hi, lo)` pair by `n` (any `n`; shifts of 128
/// or more are clamped to 127, which is exact for every value this module
/// builds — they all fit well under 127 bits). Returns the shifted pair
/// and a 0/1 sticky word. The `(x << (63 - m)) << 1` double shifts keep
/// every hardware shift amount strictly below 64.
#[inline(always)]
fn shr128_sticky(hi: u64, lo: u64, n: u64) -> (u64, u64, u64) {
    let n = sel(n > 127, 127, n);
    let ge64 = n >= 64;
    let m = (n & 63) as u32;
    // n < 64 frame.
    let a_hi = hi >> m;
    let a_lo = (lo >> m) | ((hi << (63 - m)) << 1);
    let a_lost = (lo << (63 - m)) << 1;
    // n >= 64 frame (shift the high word by n - 64).
    let b_lo = hi >> m;
    let b_lost = ((hi << (63 - m)) << 1) | (lo != 0) as u64;
    let r_hi = sel(ge64, 0, a_hi);
    let r_lo = sel(ge64, b_lo, a_lo);
    let lost = (sel(ge64, b_lost, a_lost) != 0) as u64;
    (r_hi, r_lo, lost)
}

const FL_OVERFLOW: u64 = 1;
const FL_UNDERFLOW: u64 = 2;
const FL_INEXACT: u64 = 4;

/// Expand a lane's packed flag word into [`Flags`]. The fast lane never
/// raises `invalid` or `div_by_zero` (those need a special operand, which
/// the partition pass routes to the generic path).
#[inline(always)]
pub(crate) fn unpack_flags(fl: u64) -> Flags {
    Flags {
        overflow: fl & FL_OVERFLOW != 0,
        underflow: fl & FL_UNDERFLOW != 0,
        invalid: false,
        inexact: fl & FL_INEXACT != 0,
        div_by_zero: false,
    }
}

/// Branchless round + range-checked pack: the select-based twin of
/// `fastpath::round_pack` + `finish_pack`. `kill` zeroes the result and
/// flags (exact cancellation, and a don't-care for special lanes).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn round_pack_lane(
    e: u32,
    f: u32,
    sign: u64,
    exp: i64,
    kept: u64,
    tail: u64,
    grs: u32,
    rtn: bool,
    kill: bool,
) -> (u64, u64) {
    let bias = (1i64 << (e - 1)) - 1;
    let max_exp = ((1i64 << e) - 2) - bias;
    let min_exp = 1 - bias;
    let inexact = tail != 0;
    let half = 1u64 << (grs - 1);
    let round_up = rtn & ((tail > half) | ((tail == half) & (kept & 1 == 1)));
    let rounded = kept.wrapping_add(round_up as u64);
    // Rounding carries out of the hidden position at most once on valid
    // lanes; `!= 0` instead of the raw high bits keeps the correction a
    // 0/1 shift even for the garbage a special lane produces.
    let carry = (rounded >> (f + 1) != 0) as u32;
    let rounded = rounded >> carry;
    let exp = exp + carry as i64;

    let over = exp > max_exp;
    let under = exp < min_exp;
    let over_mag = sel(
        rtn,
        ((1u64 << e) - 1) << f,
        (((1u64 << e) - 2) << f) | ((1u64 << f) - 1),
    );
    // Wraps when out of range; the selects only keep it in range.
    let norm_mag = (((exp + bias) as u64) << f) | (rounded & ((1u64 << f) - 1));
    let mag = sel(over, over_mag, sel(under, 0, norm_mag));
    let fl = ((over as u64) * FL_OVERFLOW)
        | ((under as u64) * FL_UNDERFLOW)
        | (((inexact | over | under) as u64) * FL_INEXACT);
    (sel(kill, 0, (sign << (e + f)) | mag), sel(kill, 0, fl))
}

// ---------------------------------------------------------------------------
// Scalar pair-datapath fma (the fast lane's wide-format kernel)
// ---------------------------------------------------------------------------
//
// The body is total: any bit pattern in, a defined (bits, flags) word
// pair out — no shift ever reaches the register width and no arithmetic
// garbage can overflow a checked operation. On operands that satisfy the
// fast-lane precondition (all normal) the result is bit-identical to the
// generic path; that is what the conformance sweeps and the
// `simd_vs_generic` proptests pin down. The vector block kernels below
// are lane-for-lane transcriptions of the same formulas.

/// `(hi, lo)`-pair fma datapath for formats whose aligned sum exceeds 64
/// bits (W48, DOUBLE, any dynamic format with `2f + FMA_GRS + 4 > 64`).
/// This is the limb-split replacement for the old `u128` wide path: the
/// exact product comes from [`widening_mul`], alignment from
/// [`shr128_sticky`], and the add/sub/compare chain runs on word pairs
/// with explicit carries — every step a native 64-bit (and AVX2-lane)
/// operation. Also used by the scalar fast lane via [`fma_wide_scalar`].
#[inline(always)]
fn fma_lane_wide(e: u32, f: u32, a: u64, b: u64, c: u64, rtn: bool) -> (u64, u64) {
    let sign_shift = e + f;
    let frac_mask = (1u64 << f) - 1;
    let hidden = 1u64 << f;
    let bias = (1i64 << (e - 1)) - 1;
    let em = (1u64 << e) - 1;

    let psign = (a ^ b) >> sign_shift & 1;
    let csign = c >> sign_shift & 1;
    let pexp = (((a >> f) & em) as i64 - bias) + (((b >> f) & em) as i64 - bias);
    let cexp = ((c >> f) & em) as i64 - bias;

    let (p_hi, p_lo) = widening_mul((a & frac_mask) | hidden, (b & frac_mask) | hidden);
    let pw_hi = (p_hi << FMA_GRS) | (p_lo >> (64 - FMA_GRS));
    let pw_lo = p_lo << FMA_GRS;
    let c_wide = ((c & frac_mask) | hidden) << FMA_GRS;

    let shift = cexp - pexp + f as i64;
    let cdom = shift > (f + 2) as i64;
    let cneg = shift < 0;
    let mid = !cdom & !cneg;

    // v: the operand that moves; u: the anchor.
    let v0_hi = sel(cdom, pw_hi, 0);
    let v0_lo = sel(cdom, pw_lo, c_wide);
    let ramt = sel(
        cdom,
        shift as u64,
        sel(cneg, shift.wrapping_neg() as u64, 0),
    );
    let (vr_hi, vr_lo, lost) = shr128_sticky(v0_hi, v0_lo, ramt);
    let lamt = sel(mid, shift as u64, 0) as u32; // mid: 0 <= shift <= f+2
    let v_hi = (vr_hi << lamt) | ((vr_lo >> 1) >> (63 - lamt));
    let v_lo = (vr_lo << lamt) | lost; // lost is 0 whenever lamt > 0

    let u_hi = sel(cdom, 0, pw_hi);
    let u_lo = sel(cdom, c_wide, pw_lo);
    let us = sel(cdom, csign, psign);
    let vs = sel(cdom, psign, csign);
    let e_lsb = seli(
        cdom,
        cexp - (f + FMA_GRS) as i64,
        pexp - (2 * f + FMA_GRS) as i64,
    );

    // Signed combine on pairs: add-with-carry / subtract-with-borrow via
    // wrapping ops and compares (the pair twin of `ops::fma::combine`).
    let ssame = us == vs;
    let s_lo = u_lo.wrapping_add(v_lo);
    let s_hi = u_hi.wrapping_add(v_hi).wrapping_add((s_lo < u_lo) as u64);
    let ubig = (u_hi > v_hi) | ((u_hi == v_hi) & (u_lo >= v_lo));
    let x_hi = sel(ubig, u_hi, v_hi);
    let x_lo = sel(ubig, u_lo, v_lo);
    let y_hi = sel(ubig, v_hi, u_hi);
    let y_lo = sel(ubig, v_lo, u_lo);
    let d_lo = x_lo.wrapping_sub(y_lo);
    let d_hi = x_hi.wrapping_sub(y_hi).wrapping_sub((x_lo < y_lo) as u64);
    let mag_hi = sel(ssame, s_hi, d_hi);
    let mut mag_lo = sel(ssame, s_lo, d_lo);
    let sign = sel(ssame, us, sel(ubig, us, vs));
    let kill = !ssame & (mag_hi == 0) & (mag_lo == 0);
    mag_lo |= kill as u64;

    // msb of the pair, then normalize exactly as the scalar path does.
    let hz = mag_hi == 0;
    let msb = msb_index(sel(hz, mag_lo, mag_hi)) + seli(hz, 0, 64);
    let exp0 = e_lsb + msb;
    let deep = msb <= f as i64;
    let lshift = sel(deep, (f as i64 + 1 - msb) as u64, 0) as u32; // <= f+1
    let m_hi = (mag_hi << lshift) | ((mag_lo >> 1) >> (63 - lshift));
    let m_lo = mag_lo << lshift;
    let grs_raw = seli(deep, 1, msb - f as i64) as u64;
    let grs = sel(grs_raw > 63, 63, grs_raw) as u32; // clamp only reachable on garbage lanes
    let kept = (m_lo >> grs) | ((m_hi << (63 - grs)) << 1);
    let tail = m_lo & ((1u64 << grs) - 1); // grs <= f+5 on valid lanes: tail is all in the low word
    round_pack_lane(e, f, sign, exp0, kept, tail, grs, rtn, kill)
}

/// The scalar fast lane's wide-format fma: the limb-split pair datapath
/// above, returning proper [`Flags`]. Replaces the old `u128` kernel.
#[inline(always)]
pub(crate) fn fma_wide_scalar(
    e: u32,
    f: u32,
    a: u64,
    b: u64,
    c: u64,
    mode: RoundMode,
) -> (u64, Flags) {
    let (bits, fl) = fma_lane_wide(e, f, a, b, c, mode == RoundMode::NearestEven);
    (bits, unpack_flags(fl))
}

// ---------------------------------------------------------------------------
// The SIMD word: one trait, two engines
// ---------------------------------------------------------------------------
//
// `Words` is a [`LANES`]-wide vector of u64 plus an engine-specific
// lane-mask type. The block kernels below are written once, generically,
// against this trait; the two impls pin the instruction selection:
//
// * `W2` — two `__m256i` halves under `#[target_feature(enable =
//   "avx2")]`: native `vpsllvq`/`vpsrlvq` variable shifts, `vpmuludq`
//   32×32→64 products, byte-LUT popcount for the msb scan.
// * `W5` — one `__m512i` under the AVX-512 feature set, with `__mmask8`
//   lane masks, native unsigned compares and `vplzcntq`.
//
// Every method is an `unsafe fn`: the impls must only be reached after
// positive runtime feature detection, which the dispatch layer
// guarantees. Explicit intrinsics — rather than autovectorized lane
// loops — are the point: LLVM scalarizes the long select chains of the
// fast-path datapath when left to vectorize them itself.
//
// Semantics contract (what the equivalence tests pin down): on lanes
// whose shift amounts stay below 64 and whose `vmul32` operands have
// clear high halves — true for every value the kernels build from
// normal operands — both engines are bit-identical to the scalar fast
// lane. Garbage lanes (special operands) carry whatever the vector
// arithmetic produced; the partition pass overwrites every such lane
// from the generic path, so it is never observable.

/// The engine-generic SIMD word: [`LANES`] u64 lanes.
trait Words: Copy {
    /// Lane-mask type (all-ones/all-zeros words, or a compact bitmask).
    type M: Copy;
    unsafe fn splat(x: u64) -> Self;
    unsafe fn load(src: &[u64; LANES]) -> Self;
    unsafe fn store(self, dst: &mut [u64; LANES]);
    unsafe fn vadd(self, o: Self) -> Self;
    unsafe fn vsub(self, o: Self) -> Self;
    /// Low-64 product; both operands must have clear high 32 bits
    /// (`vpmuludq` shape — every call site masks or shifts first).
    unsafe fn vmul32(self, o: Self) -> Self;
    unsafe fn vand(self, o: Self) -> Self;
    unsafe fn vor(self, o: Self) -> Self;
    unsafe fn vxor(self, o: Self) -> Self;
    /// Per-lane variable left shift; amounts are < 64 on every lane
    /// whose value is kept (see the semantics contract above).
    unsafe fn shl(self, n: Self) -> Self;
    /// Per-lane variable right shift (amounts < 64 on kept lanes).
    unsafe fn shr(self, n: Self) -> Self;
    /// Uniform left shift by a runtime-constant amount (< 64).
    unsafe fn shlc(self, n: u32) -> Self;
    /// Uniform right shift by a runtime-constant amount (< 64).
    unsafe fn shrc(self, n: u32) -> Self;
    /// Index of the most significant set bit (lanes must be nonzero).
    unsafe fn vmsb(self) -> Self;
    unsafe fn veq(self, o: Self) -> Self::M;
    unsafe fn vne(self, o: Self) -> Self::M;
    unsafe fn vgt_u(self, o: Self) -> Self::M;
    unsafe fn vge_u(self, o: Self) -> Self::M;
    unsafe fn vlt_u(self, o: Self) -> Self::M;
    /// Signed compare on lanes holding two's-complement i64 values.
    unsafe fn vgt_s(self, o: Self) -> Self::M;
    unsafe fn vlt_s(self, o: Self) -> Self::M;
    unsafe fn mand(a: Self::M, b: Self::M) -> Self::M;
    unsafe fn mor(a: Self::M, b: Self::M) -> Self::M;
    unsafe fn mnot(a: Self::M) -> Self::M;
    /// Uniform mask from a bool.
    unsafe fn mbool(b: bool) -> Self::M;
    /// Pick `t` where the mask is set, `f` elsewhere.
    unsafe fn sel(m: Self::M, t: Self, f: Self) -> Self;
    /// Mask → 0/1 word per lane.
    unsafe fn m01(m: Self::M) -> Self;
    /// True when every lane of the mask is set.
    unsafe fn mall(m: Self::M) -> bool;
    /// Lane bitmask (bit `l` = lane `l` set).
    unsafe fn mbits(m: Self::M) -> u32;
    /// Per-lane table lookup `lut[self]`; lanes must be < 8.
    unsafe fn lut8(self, lut: &[u64; 8]) -> Self;
    /// Store `(self, o)` as interleaved pairs: `dst[2l] = self[l]`,
    /// `dst[2l+1] = o[l]`. `dst` must be valid for `2 * LANES` words.
    unsafe fn store_interleaved(self, o: Self, dst: *mut u64);
}

/// The AVX2 and AVX-512 engines: explicit intrinsics, x86-64 only. The
/// structs never escape this module except through the generic drivers,
/// which the dispatch layer only instantiates after positive feature
/// detection.
#[cfg(target_arch = "x86_64")]
mod engines_x86 {
    use super::{Words, LANES};
    use std::arch::x86_64::*;

    /// AVX2 engine: two 256-bit halves, masks as all-ones/zeros lanes.
    #[derive(Clone, Copy)]
    pub(super) struct W2(__m256i, __m256i);

    /// Per-lane u64 popcount: nibble-LUT `vpshufb` plus `vpsadbw`
    /// horizontal byte sum.
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt64x4(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let nib = _mm256_set1_epi8(0x0f);
        let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nib));
        let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi64::<4>(v), nib));
        _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256())
    }

    impl Words for W2 {
        type M = W2;
        #[target_feature(enable = "avx2")]
        unsafe fn splat(x: u64) -> W2 {
            let v = _mm256_set1_epi64x(x as i64);
            W2(v, v)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn load(src: &[u64; LANES]) -> W2 {
            W2(
                _mm256_loadu_si256(src.as_ptr().cast()),
                _mm256_loadu_si256(src.as_ptr().add(4).cast()),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn store(self, dst: &mut [u64; LANES]) {
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4).cast(), self.1);
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vadd(self, o: W2) -> W2 {
            W2(_mm256_add_epi64(self.0, o.0), _mm256_add_epi64(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vsub(self, o: W2) -> W2 {
            W2(_mm256_sub_epi64(self.0, o.0), _mm256_sub_epi64(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vmul32(self, o: W2) -> W2 {
            W2(_mm256_mul_epu32(self.0, o.0), _mm256_mul_epu32(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vand(self, o: W2) -> W2 {
            W2(_mm256_and_si256(self.0, o.0), _mm256_and_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vor(self, o: W2) -> W2 {
            W2(_mm256_or_si256(self.0, o.0), _mm256_or_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vxor(self, o: W2) -> W2 {
            W2(_mm256_xor_si256(self.0, o.0), _mm256_xor_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shl(self, n: W2) -> W2 {
            W2(
                _mm256_sllv_epi64(self.0, n.0),
                _mm256_sllv_epi64(self.1, n.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shr(self, n: W2) -> W2 {
            W2(
                _mm256_srlv_epi64(self.0, n.0),
                _mm256_srlv_epi64(self.1, n.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shlc(self, n: u32) -> W2 {
            let c = _mm_cvtsi32_si128(n as i32);
            W2(_mm256_sll_epi64(self.0, c), _mm256_sll_epi64(self.1, c))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shrc(self, n: u32) -> W2 {
            let c = _mm_cvtsi32_si128(n as i32);
            W2(_mm256_srl_epi64(self.0, c), _mm256_srl_epi64(self.1, c))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vmsb(self) -> W2 {
            // Bit-smear to a mask of width msb+1, then popcount − 1.
            let mut s = self;
            s = s.vor(s.shrc(1));
            s = s.vor(s.shrc(2));
            s = s.vor(s.shrc(4));
            s = s.vor(s.shrc(8));
            s = s.vor(s.shrc(16));
            s = s.vor(s.shrc(32));
            let one = _mm256_set1_epi64x(1);
            W2(
                _mm256_sub_epi64(popcnt64x4(s.0), one),
                _mm256_sub_epi64(popcnt64x4(s.1), one),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn veq(self, o: W2) -> W2 {
            W2(
                _mm256_cmpeq_epi64(self.0, o.0),
                _mm256_cmpeq_epi64(self.1, o.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vne(self, o: W2) -> W2 {
            W2::mnot(self.veq(o))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vgt_u(self, o: W2) -> W2 {
            // Unsigned compare = signed compare with the sign bit flipped.
            let top = _mm256_set1_epi64x(i64::MIN);
            W2(
                _mm256_cmpgt_epi64(_mm256_xor_si256(self.0, top), _mm256_xor_si256(o.0, top)),
                _mm256_cmpgt_epi64(_mm256_xor_si256(self.1, top), _mm256_xor_si256(o.1, top)),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vge_u(self, o: W2) -> W2 {
            W2::mnot(o.vgt_u(self))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vlt_u(self, o: W2) -> W2 {
            o.vgt_u(self)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vgt_s(self, o: W2) -> W2 {
            W2(
                _mm256_cmpgt_epi64(self.0, o.0),
                _mm256_cmpgt_epi64(self.1, o.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vlt_s(self, o: W2) -> W2 {
            o.vgt_s(self)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mand(a: W2, b: W2) -> W2 {
            a.vand(b)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mor(a: W2, b: W2) -> W2 {
            a.vor(b)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mnot(a: W2) -> W2 {
            let ones = _mm256_set1_epi64x(-1);
            W2(_mm256_xor_si256(a.0, ones), _mm256_xor_si256(a.1, ones))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mbool(b: bool) -> W2 {
            let v = _mm256_set1_epi64x(-(b as i64));
            W2(v, v)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn sel(m: W2, t: W2, f: W2) -> W2 {
            W2(
                _mm256_blendv_epi8(f.0, t.0, m.0),
                _mm256_blendv_epi8(f.1, t.1, m.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn m01(m: W2) -> W2 {
            m.vand(W2::splat(1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mall(m: W2) -> bool {
            W2::mbits(m) == 0xff
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mbits(m: W2) -> u32 {
            let lo = _mm256_movemask_pd(_mm256_castsi256_pd(m.0)) as u32;
            let hi = _mm256_movemask_pd(_mm256_castsi256_pd(m.1)) as u32;
            lo | (hi << 4)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn lut8(self, lut: &[u64; 8]) -> W2 {
            W2(
                _mm256_i64gather_epi64::<8>(lut.as_ptr().cast(), self.0),
                _mm256_i64gather_epi64::<8>(lut.as_ptr().cast(), self.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn store_interleaved(self, o: W2, dst: *mut u64) {
            // unpack{lo,hi} interleave within 128-bit halves; the
            // permutes stitch them back into sequential pair order.
            let lo0 = _mm256_unpacklo_epi64(self.0, o.0);
            let hi0 = _mm256_unpackhi_epi64(self.0, o.0);
            _mm256_storeu_si256(dst.cast(), _mm256_permute2x128_si256::<0x20>(lo0, hi0));
            _mm256_storeu_si256(
                dst.add(4).cast(),
                _mm256_permute2x128_si256::<0x31>(lo0, hi0),
            );
            let lo1 = _mm256_unpacklo_epi64(self.1, o.1);
            let hi1 = _mm256_unpackhi_epi64(self.1, o.1);
            _mm256_storeu_si256(
                dst.add(8).cast(),
                _mm256_permute2x128_si256::<0x20>(lo1, hi1),
            );
            _mm256_storeu_si256(
                dst.add(12).cast(),
                _mm256_permute2x128_si256::<0x31>(lo1, hi1),
            );
        }
    }

    /// AVX-512 engine: one 512-bit register, compact `__mmask8` masks,
    /// native unsigned compares and `vplzcntq`.
    #[derive(Clone, Copy)]
    pub(super) struct W5(__m512i);

    impl Words for W5 {
        type M = __mmask8;
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn splat(x: u64) -> W5 {
            W5(_mm512_set1_epi64(x as i64))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn load(src: &[u64; LANES]) -> W5 {
            W5(_mm512_loadu_si512(src.as_ptr().cast()))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn store(self, dst: &mut [u64; LANES]) {
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), self.0);
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vadd(self, o: W5) -> W5 {
            W5(_mm512_add_epi64(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vsub(self, o: W5) -> W5 {
            W5(_mm512_sub_epi64(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vmul32(self, o: W5) -> W5 {
            W5(_mm512_mul_epu32(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vand(self, o: W5) -> W5 {
            W5(_mm512_and_si512(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vor(self, o: W5) -> W5 {
            W5(_mm512_or_si512(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vxor(self, o: W5) -> W5 {
            W5(_mm512_xor_si512(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shl(self, n: W5) -> W5 {
            W5(_mm512_sllv_epi64(self.0, n.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shr(self, n: W5) -> W5 {
            W5(_mm512_srlv_epi64(self.0, n.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shlc(self, n: u32) -> W5 {
            W5(_mm512_sll_epi64(self.0, _mm_cvtsi32_si128(n as i32)))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shrc(self, n: u32) -> W5 {
            W5(_mm512_srl_epi64(self.0, _mm_cvtsi32_si128(n as i32)))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vmsb(self) -> W5 {
            // 63 ^ clz (inputs are nonzero, so clz is in 0..=63 and the
            // xor is exactly 63 − clz).
            W5(_mm512_xor_si512(
                _mm512_lzcnt_epi64(self.0),
                _mm512_set1_epi64(63),
            ))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn veq(self, o: W5) -> __mmask8 {
            _mm512_cmpeq_epi64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vne(self, o: W5) -> __mmask8 {
            _mm512_cmpneq_epi64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vgt_u(self, o: W5) -> __mmask8 {
            _mm512_cmpgt_epu64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vge_u(self, o: W5) -> __mmask8 {
            _mm512_cmpge_epu64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vlt_u(self, o: W5) -> __mmask8 {
            _mm512_cmplt_epu64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vgt_s(self, o: W5) -> __mmask8 {
            _mm512_cmpgt_epi64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vlt_s(self, o: W5) -> __mmask8 {
            _mm512_cmplt_epi64_mask(self.0, o.0)
        }
        #[inline(always)]
        unsafe fn mand(a: __mmask8, b: __mmask8) -> __mmask8 {
            a & b
        }
        #[inline(always)]
        unsafe fn mor(a: __mmask8, b: __mmask8) -> __mmask8 {
            a | b
        }
        #[inline(always)]
        unsafe fn mnot(a: __mmask8) -> __mmask8 {
            !a
        }
        #[inline(always)]
        unsafe fn mbool(b: bool) -> __mmask8 {
            if b {
                0xff
            } else {
                0
            }
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn sel(m: __mmask8, t: W5, f: W5) -> W5 {
            W5(_mm512_mask_blend_epi64(m, f.0, t.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn m01(m: __mmask8) -> W5 {
            W5(_mm512_maskz_set1_epi64(m, 1))
        }
        #[inline(always)]
        unsafe fn mall(m: __mmask8) -> bool {
            m == 0xff
        }
        #[inline(always)]
        unsafe fn mbits(m: __mmask8) -> u32 {
            m as u32
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn lut8(self, lut: &[u64; 8]) -> W5 {
            let t = _mm512_loadu_si512(lut.as_ptr().cast());
            W5(_mm512_permutexvar_epi64(self.0, t))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn store_interleaved(self, o: W5, dst: *mut u64) {
            let idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
            let idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
            _mm512_storeu_si512(dst.cast(), _mm512_permutex2var_epi64(self.0, idx_lo, o.0));
            _mm512_storeu_si512(
                dst.add(8).cast(),
                _mm512_permutex2var_epi64(self.0, idx_hi, o.0),
            );
        }
    }
}
#[cfg(target_arch = "x86_64")]
use engines_x86::{W2, W5};

// ---------------------------------------------------------------------------
// Engine-generic block kernels
// ---------------------------------------------------------------------------
//
// Lane-for-lane transcriptions of the scalar fast-path formulas into the
// `Words` vocabulary: every branch becomes a mask select with both arms
// computed. The blocks are total over arbitrary encodings — variable
// shift amounts are clamped wherever a valid lane needs it, arithmetic
// wraps, and the `kill`/`|= 1` jams keep `vmsb` inputs nonzero — so a
// special lane's garbage can never fault; the partition pass discards it.

/// Vector twin of [`widening_mul`]: all four partial products are
/// 32×32→64 (`vmul32`), the carry chain exact for every input pair.
#[inline(always)]
unsafe fn vwidening_mul<W: Words>(x: W, y: W) -> (W, W) {
    let m32 = W::splat(0xffff_ffff);
    let x0 = x.vand(m32);
    let x1 = x.shrc(32);
    let y0 = y.vand(m32);
    let y1 = y.shrc(32);
    let m00 = x0.vmul32(y0);
    let m01 = x0.vmul32(y1);
    let m10 = x1.vmul32(y0);
    let m11 = x1.vmul32(y1);
    let mid = m00.shrc(32).vadd(m01.vand(m32)).vadd(m10.vand(m32));
    let lo = mid.shlc(32).vor(m00.vand(m32));
    let hi = m11.vadd(m01.shrc(32)).vadd(m10.shrc(32)).vadd(mid.shrc(32));
    (hi, lo)
}

/// Vector twin of [`shr128_sticky`].
#[inline(always)]
unsafe fn vshr128_sticky<W: Words>(hi: W, lo: W, n: W) -> (W, W, W) {
    let zero = W::splat(0);
    let c63 = W::splat(63);
    let n = W::sel(n.vgt_u(W::splat(127)), W::splat(127), n);
    let ge64 = n.vge_u(W::splat(64));
    let m = n.vand(c63);
    let inv = c63.vsub(m);
    let a_hi = hi.shr(m);
    let a_lo = lo.shr(m).vor(hi.shl(inv).shlc(1));
    let a_lost = lo.shl(inv).shlc(1);
    let b_lo = hi.shr(m);
    let b_lost = hi.shl(inv).shlc(1).vor(W::m01(lo.vne(zero)));
    let r_hi = W::sel(ge64, zero, a_hi);
    let r_lo = W::sel(ge64, b_lo, a_lo);
    let lost = W::m01(W::sel(ge64, b_lost, a_lost).vne(zero));
    (r_hi, r_lo, lost)
}

/// Lane mask of operands that take the fast lane (vector twin of
/// `fastpath::is_normal`: biased exponent in `1..=em-1`).
#[inline(always)]
unsafe fn vnormal<W: Words, const E: u32, const F: u32>(x: W) -> W::M {
    let em = (1u64 << E) - 1;
    x.shrc(F)
        .vand(W::splat(em))
        .vsub(W::splat(1))
        .vlt_u(W::splat(em - 1))
}

/// Vector twin of [`round_pack_lane`]; `kill` zeroes the result and
/// flags (exact cancellation, and a don't-care for special lanes).
#[inline(always)]
unsafe fn round_pack_block<W: Words, const E: u32, const F: u32>(
    sign: W,
    exp: W,
    kept: W,
    tail: W,
    grs: W,
    rtn: bool,
    kill: W::M,
) -> (W, W) {
    let bias = (1u64 << (E - 1)) - 1;
    let max_exp = ((1u64 << E) - 2).wrapping_sub(bias);
    let min_exp = 1u64.wrapping_sub(bias);
    let zero = W::splat(0);
    let one = W::splat(1);
    let frac_mask = W::splat((1u64 << F) - 1);

    let inexact = tail.vne(zero);
    let half = one.shl(grs.vsub(one));
    let round_up = W::m01(W::mand(
        W::mbool(rtn),
        W::mor(
            tail.vgt_u(half),
            W::mand(tail.veq(half), kept.vand(one).veq(one)),
        ),
    ));
    let rounded = kept.vadd(round_up);
    let carry = W::m01(rounded.shrc(F + 1).vne(zero));
    let rounded = rounded.shr(carry);
    let exp = exp.vadd(carry);

    let over = exp.vgt_s(W::splat(max_exp));
    let under = exp.vlt_s(W::splat(min_exp));
    let over_mag = W::splat(if rtn {
        ((1u64 << E) - 1) << F
    } else {
        (((1u64 << E) - 2) << F) | ((1u64 << F) - 1)
    });
    let norm_mag = exp
        .vadd(W::splat(bias))
        .shlc(F)
        .vor(rounded.vand(frac_mask));
    let mag = W::sel(over, over_mag, W::sel(under, zero, norm_mag));
    let fl = W::m01(over)
        .vor(W::m01(under).shlc(1))
        .vor(W::m01(W::mor(W::mor(inexact, over), under)).shlc(2));
    (
        W::sel(kill, zero, sign.shlc(E + F).vor(mag)),
        W::sel(kill, zero, fl),
    )
}

/// Vector add/sub block (`sub` is a sign flip at the call site): the
/// transcription of the scalar fast-path add datapath — compare/swap,
/// clamp-to-63 sticky align, conditional-negate effective subtract,
/// sticky carry jam, `vmsb` normalize, round/pack.
#[inline(always)]
unsafe fn add_block<W: Words, const E: u32, const F: u32>(a: W, b: W, rtn: bool) -> (W, W) {
    let sign_shift = E + F;
    let frac_mask = W::splat((1u64 << F) - 1);
    let mag_mask = W::splat((1u64 << sign_shift) - 1);
    let hidden = W::splat(1u64 << F);
    let bias = W::splat((1u64 << (E - 1)) - 1);
    let zero = W::splat(0);
    let one = W::splat(1);
    let c63 = W::splat(63);

    let ma = a.vand(mag_mask);
    let mb = b.vand(mag_mask);
    let a_hi = ma.vge_u(mb);
    let hi = W::sel(a_hi, ma, mb);
    let lo = W::sel(a_hi, mb, ma);
    let hi_sign = W::sel(a_hi, a, b).shrc(sign_shift).vand(one);

    // Align the smaller operand with a clamp-to-63 sticky shift.
    let diff = hi.shrc(F).vsub(lo.shrc(F));
    let sh = W::sel(diff.vgt_u(c63), c63, diff);
    let hi_sig = hi.vand(frac_mask).vor(hidden).shlc(GRS_BITS);
    let lo_raw = lo.vand(frac_mask).vor(hidden).shlc(GRS_BITS);
    let lo_lost = lo_raw.vand(one.shl(sh).vsub(one));
    let lo_full = lo_raw.shr(sh).vor(W::m01(lo_lost.vne(zero)));

    // Effective add or conditional-negate subtract.
    let esub = a.vxor(b).shrc(sign_shift).vand(one);
    let esub_m = zero.vsub(esub);
    let exp0 = hi.shrc(F).vsub(bias);
    let mag = hi_sig.vadd(lo_full.vxor(esub_m).vadd(esub));
    let kill = mag.veq(zero); // exact cancellation: +0 under both modes
    let mag = mag.vor(W::m01(kill)); // keep the msb scan defined

    // Sticky carry jam, then shift the leading one up to the hidden
    // position.
    let hidden_pos = F + GRS_BITS;
    let carry = mag.shrc(hidden_pos + 1);
    let mag = mag.shr(carry).vor(mag.vand(carry));
    let msb = mag.vmsb();
    let shift = W::splat(hidden_pos as u64).vsub(msb);
    let mag = mag.shl(shift);
    let exp = exp0.vadd(carry).vsub(shift);
    round_pack_block::<W, E, F>(
        hi_sign,
        exp,
        mag.shrc(GRS_BITS),
        mag.vand(W::splat((1u64 << GRS_BITS) - 1)),
        W::splat(GRS_BITS as u64),
        rtn,
        kill,
    )
}

/// Vector multiply block. `F <= 31` keeps the product in one word;
/// wider formats run the limb-split widening multiply.
#[inline(always)]
unsafe fn mul_block<W: Words, const E: u32, const F: u32>(a: W, b: W, rtn: bool) -> (W, W) {
    let sign_shift = E + F;
    let frac_mask = W::splat((1u64 << F) - 1);
    let hidden = W::splat(1u64 << F);
    let bias = W::splat((1u64 << (E - 1)) - 1);
    let em = W::splat((1u64 << E) - 1);
    let one = W::splat(1);

    let sign = a.vxor(b).shrc(sign_shift).vand(one);
    let mut exp = a
        .shrc(F)
        .vand(em)
        .vsub(bias)
        .vadd(b.shrc(F).vand(em).vsub(bias));
    let sa = a.vand(frac_mask).vor(hidden);
    let sb = b.vand(frac_mask).vor(hidden);

    let (kept, tail, grs);
    if F <= 31 {
        let p = sa.vmul32(sb);
        let top = p.shrc(2 * F + 1).vand(one);
        exp = exp.vadd(top);
        let p = p.shl(top.vxor(one));
        let g = F + 1;
        kept = p.shrc(g);
        tail = p.vand(W::splat((1u64 << g) - 1));
        grs = W::splat(g as u64);
    } else {
        let (p_hi, p_lo) = vwidening_mul(sa, sb);
        let top = p_hi.shrc((2 * F + 1).saturating_sub(64)).vand(one);
        exp = exp.vadd(top);
        let g = W::splat(F as u64).vadd(top); // 32 <= g <= 57
        kept = p_lo.shr(g).vor(p_hi.shl(W::splat(63).vsub(g)).shlc(1));
        tail = p_lo.vand(one.shl(g).vsub(one));
        grs = g;
    }
    round_pack_block::<W, E, F>(sign, exp, kept, tail, grs, rtn, W::mbool(false))
}

/// Vector fma block; picks the single-word or the `(hi, lo)`-pair
/// datapath by format width (constant-folded per monomorphization).
#[inline(always)]
unsafe fn fma_block<W: Words, const E: u32, const F: u32>(a: W, b: W, c: W, rtn: bool) -> (W, W) {
    if 2 * F + FMA_GRS + 4 <= 64 {
        fma_narrow_block::<W, E, F>(a, b, c, rtn)
    } else {
        fma_wide_block::<W, E, F>(a, b, c, rtn)
    }
}

/// Single-word vector fma (`2f + FMA_GRS + 4 <= 64`): the three
/// alignment frames folded into one select-driven shift network.
#[inline(always)]
unsafe fn fma_narrow_block<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    c: W,
    rtn: bool,
) -> (W, W) {
    let sign_shift = E + F;
    let frac_mask = W::splat((1u64 << F) - 1);
    let hidden = W::splat(1u64 << F);
    let bias = W::splat((1u64 << (E - 1)) - 1);
    let em = W::splat((1u64 << E) - 1);
    let zero = W::splat(0);
    let one = W::splat(1);
    let c63 = W::splat(63);

    let psign = a.vxor(b).shrc(sign_shift).vand(one);
    let csign = c.shrc(sign_shift).vand(one);
    let pexp = a
        .shrc(F)
        .vand(em)
        .vsub(bias)
        .vadd(b.shrc(F).vand(em).vsub(bias));
    let cexp = c.shrc(F).vand(em).vsub(bias);

    let product = a
        .vand(frac_mask)
        .vor(hidden)
        .vmul32(b.vand(frac_mask).vor(hidden));
    let shift = cexp.vsub(pexp).vadd(W::splat(F as u64));
    let c_wide = c.vand(frac_mask).vor(hidden).shlc(FMA_GRS);
    let prod_wide = product.shlc(FMA_GRS);

    let cdom = shift.vgt_s(W::splat((F + 2) as u64)); // c dominates
    let cneg = shift.vlt_s(zero); // c negligible
    let mid = W::mnot(W::mor(cdom, cneg)); // product anchored

    // One shift network: v is whichever operand moves, u the anchor.
    let v0 = W::sel(cdom, prod_wide, c_wide);
    let ramt = W::sel(cdom, shift, W::sel(cneg, zero.vsub(shift), zero));
    let rsh = W::sel(ramt.vgt_u(c63), c63, ramt);
    let lost = v0.vand(one.shl(rsh).vsub(one));
    let vr = v0.shr(rsh).vor(W::m01(lost.vne(zero)));
    let lamt = W::sel(mid, shift, zero); // mid: 0 <= shift <= f+2
    let v = vr.shl(lamt);

    let u = W::sel(cdom, c_wide, prod_wide);
    let us = W::sel(cdom, csign, psign);
    let vs = W::sel(cdom, psign, csign);
    let e_lsb = W::sel(
        cdom,
        cexp.vsub(W::splat((F + FMA_GRS) as u64)),
        pexp.vsub(W::splat((2 * F + FMA_GRS) as u64)),
    );

    // Signed combine (vector twin of `fastpath::combine_u64`).
    let ssame = us.veq(vs);
    let ubig = u.vge_u(v);
    let sum = u.vadd(v);
    let d = W::sel(ubig, u.vsub(v), v.vsub(u));
    let mag = W::sel(ssame, sum, d);
    let sign = W::sel(ssame, us, W::sel(ubig, us, vs));
    let kill = W::mand(W::mnot(ssame), mag.veq(zero));
    let mag = mag.vor(W::m01(kill));

    let msb = mag.vmsb();
    let exp0 = e_lsb.vadd(msb);
    // Deep cancellation (msb <= f) is necessarily exact: lift the hidden
    // bit and round with a single sticky position.
    let deep = W::mnot(msb.vgt_s(W::splat(F as u64)));
    let lshift = W::sel(deep, W::splat((F + 1) as u64).vsub(msb), zero);
    let m = mag.shl(lshift);
    let grs_raw = W::sel(deep, one, msb.vsub(W::splat(F as u64)));
    let grs = W::sel(grs_raw.vgt_u(c63), c63, grs_raw); // clamp only reachable on garbage lanes
    round_pack_block::<W, E, F>(
        sign,
        exp0,
        m.shr(grs),
        m.vand(one.shl(grs).vsub(one)),
        grs,
        rtn,
        kill,
    )
}

/// `(hi, lo)`-pair vector fma for formats whose aligned sum exceeds 64
/// bits: the vector transcription of [`fma_lane_wide`] — exact product
/// from [`vwidening_mul`], alignment via [`vshr128_sticky`], pair
/// add-with-carry / subtract-with-borrow combine.
#[inline(always)]
unsafe fn fma_wide_block<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    c: W,
    rtn: bool,
) -> (W, W) {
    let sign_shift = E + F;
    let frac_mask = W::splat((1u64 << F) - 1);
    let hidden = W::splat(1u64 << F);
    let bias = W::splat((1u64 << (E - 1)) - 1);
    let em = W::splat((1u64 << E) - 1);
    let zero = W::splat(0);
    let one = W::splat(1);
    let c63 = W::splat(63);

    let psign = a.vxor(b).shrc(sign_shift).vand(one);
    let csign = c.shrc(sign_shift).vand(one);
    let pexp = a
        .shrc(F)
        .vand(em)
        .vsub(bias)
        .vadd(b.shrc(F).vand(em).vsub(bias));
    let cexp = c.shrc(F).vand(em).vsub(bias);

    let (p_hi, p_lo) = vwidening_mul(a.vand(frac_mask).vor(hidden), b.vand(frac_mask).vor(hidden));
    let pw_hi = p_hi.shlc(FMA_GRS).vor(p_lo.shrc(64 - FMA_GRS));
    let pw_lo = p_lo.shlc(FMA_GRS);
    let c_wide = c.vand(frac_mask).vor(hidden).shlc(FMA_GRS);

    let shift = cexp.vsub(pexp).vadd(W::splat(F as u64));
    let cdom = shift.vgt_s(W::splat((F + 2) as u64));
    let cneg = shift.vlt_s(zero);
    let mid = W::mnot(W::mor(cdom, cneg));

    // v: the operand that moves; u: the anchor.
    let v0_hi = W::sel(cdom, pw_hi, zero);
    let v0_lo = W::sel(cdom, pw_lo, c_wide);
    let ramt = W::sel(cdom, shift, W::sel(cneg, zero.vsub(shift), zero));
    let (vr_hi, vr_lo, lost) = vshr128_sticky(v0_hi, v0_lo, ramt);
    let lamt = W::sel(mid, shift, zero); // mid: 0 <= shift <= f+2
    let v_hi = vr_hi.shl(lamt).vor(vr_lo.shrc(1).shr(c63.vsub(lamt)));
    let v_lo = vr_lo.shl(lamt).vor(lost); // lost is 0 whenever lamt > 0

    let u_hi = W::sel(cdom, zero, pw_hi);
    let u_lo = W::sel(cdom, c_wide, pw_lo);
    let us = W::sel(cdom, csign, psign);
    let vs = W::sel(cdom, psign, csign);
    let e_lsb = W::sel(
        cdom,
        cexp.vsub(W::splat((F + FMA_GRS) as u64)),
        pexp.vsub(W::splat((2 * F + FMA_GRS) as u64)),
    );

    // Signed combine on pairs: add-with-carry / subtract-with-borrow.
    let ssame = us.veq(vs);
    let s_lo = u_lo.vadd(v_lo);
    let s_hi = u_hi.vadd(v_hi).vadd(W::m01(s_lo.vlt_u(u_lo)));
    let ubig = W::mor(u_hi.vgt_u(v_hi), W::mand(u_hi.veq(v_hi), u_lo.vge_u(v_lo)));
    let x_hi = W::sel(ubig, u_hi, v_hi);
    let x_lo = W::sel(ubig, u_lo, v_lo);
    let y_hi = W::sel(ubig, v_hi, u_hi);
    let y_lo = W::sel(ubig, v_lo, u_lo);
    let d_lo = x_lo.vsub(y_lo);
    let d_hi = x_hi.vsub(y_hi).vsub(W::m01(x_lo.vlt_u(y_lo)));
    let mag_hi = W::sel(ssame, s_hi, d_hi);
    let mag_lo = W::sel(ssame, s_lo, d_lo);
    let sign = W::sel(ssame, us, W::sel(ubig, us, vs));
    let kill = W::mand(W::mand(W::mnot(ssame), mag_hi.veq(zero)), mag_lo.veq(zero));
    let mag_lo = mag_lo.vor(W::m01(kill));

    // msb of the pair, then normalize exactly as the scalar path does.
    let hz = mag_hi.veq(zero);
    let msb = W::sel(hz, mag_lo, mag_hi)
        .vmsb()
        .vadd(W::sel(hz, zero, W::splat(64)));
    let exp0 = e_lsb.vadd(msb);
    let deep = W::mnot(msb.vgt_s(W::splat(F as u64)));
    let lshift = W::sel(deep, W::splat((F + 1) as u64).vsub(msb), zero); // <= f+1
    let m_hi = mag_hi.shl(lshift).vor(mag_lo.shrc(1).shr(c63.vsub(lshift)));
    let m_lo = mag_lo.shl(lshift);
    let grs_raw = W::sel(deep, one, msb.vsub(W::splat(F as u64)));
    let grs = W::sel(grs_raw.vgt_u(c63), c63, grs_raw); // clamp only reachable on garbage lanes
    let kept = m_lo.shr(grs).vor(m_hi.shl(c63.vsub(grs)).shlc(1));
    let tail = m_lo.vand(one.shl(grs).vsub(one)); // grs <= f+5 on valid lanes
    round_pack_block::<W, E, F>(sign, exp0, kept, tail, grs, rtn, kill)
}

/// Precomputed [`Flags`] for every packed flag word the fast lane can
/// produce — one indexed load per element in the batch epilogue instead
/// of five bit tests.
const FLAG_LUT: [Flags; 8] = {
    let mut lut = [Flags {
        overflow: false,
        underflow: false,
        invalid: false,
        inexact: false,
        div_by_zero: false,
    }; 8];
    let mut i = 0;
    while i < 8 {
        lut[i] = Flags {
            overflow: i as u64 & FL_OVERFLOW != 0,
            underflow: i as u64 & FL_UNDERFLOW != 0,
            invalid: false,
            inexact: i as u64 & FL_INEXACT != 0,
            div_by_zero: false,
        };
        i += 1;
    }
    lut
};

/// The vectorized epilogue writes each `(u64, Flags)` pair as two raw
/// 64-bit words straight into the output Vec's spare capacity. That is
/// only sound when the pair is exactly `{ result word, flags word }`
/// with every `bool` field inside the second word — checked here at
/// compile time; any layout change falls back to the scalar epilogue.
const PAIR_LAYOUT_OK: bool = std::mem::size_of::<(u64, Flags)>() == 16
    && std::mem::align_of::<(u64, Flags)>() == 8
    && std::mem::offset_of!((u64, Flags), 0) == 0
    && std::mem::offset_of!((u64, Flags), 1) == 8
    && std::mem::size_of::<Flags>() <= 8;

/// [`FLAG_LUT`]`[i]` reinterpreted as the second word of a
/// `(u64, Flags)` pair: `true` is guaranteed to be the byte `1`, so
/// each set flag is a `0x01` byte at its field offset (padding zero).
const fn flag_word(i: u64) -> u64 {
    ((i & FL_OVERFLOW != 0) as u64) << (8 * std::mem::offset_of!(Flags, overflow) % 64)
        | ((i & FL_UNDERFLOW != 0) as u64) << (8 * std::mem::offset_of!(Flags, underflow) % 64)
        | ((i & FL_INEXACT != 0) as u64) << (8 * std::mem::offset_of!(Flags, inexact) % 64)
}

/// Word-form twin of [`FLAG_LUT`] for the in-register epilogue lookup.
const FLAG_WORDS: [u64; 8] = {
    let mut w = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        w[i] = flag_word(i as u64);
        i += 1;
    }
    w
};

// ---------------------------------------------------------------------------
// Chunked batch drivers (classify-then-partition)
// ---------------------------------------------------------------------------

/// Binary op selectors for the const-generic drivers and batches.
pub(crate) const OP_ADD: u8 = 0;
pub(crate) const OP_SUB: u8 = 1;
pub(crate) const OP_MUL: u8 = 2;

/// Binary-op batch driver: vector-compute every full chunk, record a
/// branchless normality bitmask per chunk, and push special indices for
/// the caller's fixup pass. The sub-chunk tail runs the scalar fast lane
/// (which handles its own specials).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn bin_driver<W: Words, const E: u32, const F: u32, const OP: u8>(
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
    specials: &mut Vec<u32>,
) {
    let rtn = mode == RoundMode::NearestEven;
    let n = pairs.len();
    let full = n - n % LANES;
    out.reserve(n);
    let mut i = 0;
    while i < full {
        let mut xs = [0u64; LANES];
        let mut ys = [0u64; LANES];
        for (l, &(x, y)) in pairs[i..i + LANES].iter().enumerate() {
            xs[l] = x;
            ys[l] = y;
        }
        // SAFETY: `W`'s engine was selected by positive runtime feature
        // detection (the dispatch layer's invariant). The interleaved
        // store targets capacity reserved above, under the compile-time
        // layout check.
        let (all, nbits) = unsafe {
            let va = W::load(&xs);
            let vb = W::load(&ys);
            let (r, f) = if OP == OP_ADD {
                add_block::<W, E, F>(va, vb, rtn)
            } else if OP == OP_SUB {
                add_block::<W, E, F>(va, vb.vxor(W::splat(1u64 << (E + F))), rtn)
            } else {
                mul_block::<W, E, F>(va, vb, rtn)
            };
            let normal = W::mand(vnormal::<W, E, F>(va), vnormal::<W, E, F>(vb));
            if PAIR_LAYOUT_OK {
                let dst = out.as_mut_ptr().add(out.len()).cast::<u64>();
                r.store_interleaved(f.vand(W::splat(7)).lut8(&FLAG_WORDS), dst);
                out.set_len(out.len() + LANES);
            } else {
                let mut res = [0u64; LANES];
                let mut fl = [0u64; LANES];
                r.store(&mut res);
                f.store(&mut fl);
                let mut chunk = [(0u64, FLAG_LUT[0]); LANES];
                for l in 0..LANES {
                    chunk[l] = (res[l], FLAG_LUT[(fl[l] & 7) as usize]);
                }
                out.extend_from_slice(&chunk);
            }
            (W::mall(normal), W::mbits(normal))
        };
        if !all {
            for l in 0..LANES {
                if nbits & (1 << l) == 0 {
                    specials.push((i + l) as u32);
                }
            }
        }
        i += LANES;
    }
    for &(x, y) in &pairs[full..] {
        out.push(if OP == OP_ADD {
            fastpath::add::<E, F>(x, y, mode)
        } else if OP == OP_SUB {
            fastpath::sub::<E, F>(x, y, mode)
        } else {
            fastpath::mul::<E, F>(x, y, mode)
        });
    }
}

/// Ternary (fma) batch driver; same structure as [`bin_driver`].
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn fma_driver<W: Words, const E: u32, const F: u32>(
    triples: &[(u64, u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
    specials: &mut Vec<u32>,
) {
    let rtn = mode == RoundMode::NearestEven;
    let n = triples.len();
    let full = n - n % LANES;
    out.reserve(n);
    let mut i = 0;
    while i < full {
        let mut xs = [0u64; LANES];
        let mut ys = [0u64; LANES];
        let mut zs = [0u64; LANES];
        for (l, &(x, y, z)) in triples[i..i + LANES].iter().enumerate() {
            xs[l] = x;
            ys[l] = y;
            zs[l] = z;
        }
        // SAFETY: as in `bin_driver` — the engine was runtime-detected
        // and the interleaved store targets reserved capacity.
        let (all, nbits) = unsafe {
            let va = W::load(&xs);
            let vb = W::load(&ys);
            let vc = W::load(&zs);
            let (r, f) = fma_block::<W, E, F>(va, vb, vc, rtn);
            let normal = W::mand(
                W::mand(vnormal::<W, E, F>(va), vnormal::<W, E, F>(vb)),
                vnormal::<W, E, F>(vc),
            );
            if PAIR_LAYOUT_OK {
                let dst = out.as_mut_ptr().add(out.len()).cast::<u64>();
                r.store_interleaved(f.vand(W::splat(7)).lut8(&FLAG_WORDS), dst);
                out.set_len(out.len() + LANES);
            } else {
                let mut res = [0u64; LANES];
                let mut fl = [0u64; LANES];
                r.store(&mut res);
                f.store(&mut fl);
                let mut chunk = [(0u64, FLAG_LUT[0]); LANES];
                for l in 0..LANES {
                    chunk[l] = (res[l], FLAG_LUT[(fl[l] & 7) as usize]);
                }
                out.extend_from_slice(&chunk);
            }
            (W::mall(normal), W::mbits(normal))
        };
        if !all {
            for l in 0..LANES {
                if nbits & (1 << l) == 0 {
                    specials.push((i + l) as u32);
                }
            }
        }
        i += LANES;
    }
    for &(x, y, z) in &triples[full..] {
        out.push(fastpath::fma::<E, F>(x, y, z, mode));
    }
}

/// Fused MAC column driver ([`fastpath::mac_column`]): each full
/// [`LANES`]-row chunk of `c` stays in one register across every `k`
/// step — one contiguous `a_t` load, one broadcast `b[k]`, `mul_block`
/// then `add_block` — and only the OR of the packed flag words is kept.
/// A lane whose inputs, product or accumulator are not normal is redone
/// for that step through the scalar kernels; the sub-chunk row tail
/// runs the scalar loop.
#[inline(always)]
fn mac_driver<W: Words, const E: u32, const F: u32>(
    a_t: &[u64],
    stride: usize,
    rows: usize,
    b: &[u64],
    c: &mut [u64],
    mode: RoundMode,
) -> Flags {
    let rtn = mode == RoundMode::NearestEven;
    let full = rows - rows % LANES;
    let mul = |x, y| fastpath::mul::<E, F>(x, y, mode);
    let add = |x, y| fastpath::add::<E, F>(x, y, mode);
    let mut flags = Flags::NONE;
    // SAFETY: `W`'s engine was selected by positive runtime feature
    // detection (the dispatch layer's invariant). Every access is a
    // bounds-checked slice.
    let packed = unsafe {
        let zero = W::splat(0);
        let mut fl = zero;
        for i in (0..full).step_by(LANES) {
            let chunk: &mut [u64; LANES] = (&mut c[i..i + LANES]).try_into().expect("chunk");
            let mut acc = W::load(chunk);
            for (k, &bk) in b.iter().enumerate() {
                let xs: &[u64; LANES] = a_t[k * stride + i..][..LANES].try_into().expect("chunk");
                let va = W::load(xs);
                let (p, pf) = mul_block::<W, E, F>(va, W::splat(bk), rtn);
                let (s, sf) = add_block::<W, E, F>(p, acc, rtn);
                let ok = W::mand(
                    W::mand(
                        vnormal::<W, E, F>(va),
                        W::mbool(fastpath::is_normal(E, F, bk)),
                    ),
                    W::mand(vnormal::<W, E, F>(p), vnormal::<W, E, F>(acc)),
                );
                if W::mall(ok) {
                    acc = s;
                    fl = fl.vor(pf).vor(sf);
                } else {
                    fl = fl.vor(W::sel(ok, pf.vor(sf), zero));
                    let mut lanes = [0u64; LANES];
                    W::sel(ok, s, acc).store(&mut lanes);
                    let kept = W::mbits(ok);
                    for (l, lane) in lanes.iter_mut().enumerate() {
                        if kept & (1 << l) == 0 {
                            let (p, pf) = mul(xs[l], bk);
                            let (s, sf) = add(p, *lane);
                            *lane = s;
                            flags |= pf | sf;
                        }
                    }
                    acc = W::load(&lanes);
                }
            }
            acc.store(chunk);
        }
        let mut words = [0u64; LANES];
        fl.store(&mut words);
        words.iter().fold(0, |a, &w| a | w)
    };
    flags | unpack_flags(packed) | fastpath::mac_rows(a_t, stride, full..rows, b, c, mul, add)
}

// The intrinsics engines need monomorphizations of the generic drivers
// whose call contexts carry the matching `#[target_feature]` set, so the
// engine methods (and through them the intrinsics) inline into the chunk
// loop. Each wrapper's only caller is `wide_dispatch!`.
#[cfg(target_arch = "x86_64")]
mod engine {
    use super::*;

    // SAFETY: callers pass `WideAvx2`, which is only in
    // `available_engines()` after `avx2_available()` detected AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bin_driver_tf<const E: u32, const F: u32, const OP: u8>(
        pairs: &[(u64, u64)],
        mode: RoundMode,
        out: &mut Vec<(u64, Flags)>,
        specials: &mut Vec<u32>,
    ) {
        super::bin_driver::<W2, E, F, OP>(pairs, mode, out, specials)
    }

    // SAFETY: callers pass `WideAvx2`, which is only in
    // `available_engines()` after `avx2_available()` detected AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fma_driver_tf<const E: u32, const F: u32>(
        triples: &[(u64, u64, u64)],
        mode: RoundMode,
        out: &mut Vec<(u64, Flags)>,
        specials: &mut Vec<u32>,
    ) {
        super::fma_driver::<W2, E, F>(triples, mode, out, specials)
    }

    // SAFETY: callers pass `WideAvx512`, which is only in
    // `available_engines()` after `avx512_available()` detected the
    // whole AVX-512 feature set enabled here.
    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn bin_driver_512<const E: u32, const F: u32, const OP: u8>(
        pairs: &[(u64, u64)],
        mode: RoundMode,
        out: &mut Vec<(u64, Flags)>,
        specials: &mut Vec<u32>,
    ) {
        super::bin_driver::<W5, E, F, OP>(pairs, mode, out, specials)
    }

    // SAFETY: callers pass `WideAvx512`, which is only in
    // `available_engines()` after `avx512_available()` detected the
    // whole AVX-512 feature set enabled here.
    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn fma_driver_512<const E: u32, const F: u32>(
        triples: &[(u64, u64, u64)],
        mode: RoundMode,
        out: &mut Vec<(u64, Flags)>,
        specials: &mut Vec<u32>,
    ) {
        super::fma_driver::<W5, E, F>(triples, mode, out, specials)
    }

    // SAFETY: callers pass `WideAvx2`, which is only in
    // `available_engines()` after `avx2_available()` detected AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mac_driver_tf<const E: u32, const F: u32>(
        a_t: &[u64],
        stride: usize,
        rows: usize,
        b: &[u64],
        c: &mut [u64],
        mode: RoundMode,
    ) -> Flags {
        super::mac_driver::<W2, E, F>(a_t, stride, rows, b, c, mode)
    }

    // SAFETY: callers pass `WideAvx512`, which is only in
    // `available_engines()` after `avx512_available()` detected the
    // whole AVX-512 feature set enabled here.
    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn mac_driver_512<const E: u32, const F: u32>(
        a_t: &[u64],
        stride: usize,
        rows: usize,
        b: &[u64],
        c: &mut [u64],
        mode: RoundMode,
    ) -> Flags {
        super::mac_driver::<W5, E, F>(a_t, stride, rows, b, c, mode)
    }
}

/// Dispatch a driver over (named lane × intrinsics engine). Every caller
/// passes an engine from [`available_engines`] — policy resolution or the
/// `*_with` assertion — and routes the scalar engine and dynamic lanes
/// to the scalar lane first. Off x86-64 there is no intrinsics arm.
macro_rules! wide_dispatch {
    (bin, $eng:expr, $lane:expr, $op:expr, $($arg:expr),*) => {
        wide_dispatch!(@lane bin_driver_512, bin_driver_tf, $eng, $lane, [$op], $($arg),*)
    };
    (fma, $eng:expr, $lane:expr, $($arg:expr),*) => {
        wide_dispatch!(@lane fma_driver_512, fma_driver_tf, $eng, $lane, [], $($arg),*)
    };
    (mac, $eng:expr, $lane:expr, $($arg:expr),*) => {
        wide_dispatch!(@lane mac_driver_512, mac_driver_tf, $eng, $lane, [], $($arg),*)
    };
    (@lane $d512:ident, $d2:ident, $eng:expr, $lane:expr, [$($op:tt)?], $($arg:expr),*) => {
        match $lane {
            Lane::Single => wide_dispatch!(@eng $d512, $d2, $eng, [8, 23 $(, $op)?], $($arg),*),
            Lane::W48 => wide_dispatch!(@eng $d512, $d2, $eng, [11, 36 $(, $op)?], $($arg),*),
            Lane::Double => wide_dispatch!(@eng $d512, $d2, $eng, [11, 52 $(, $op)?], $($arg),*),
            Lane::Dyn => unreachable!("wide dispatch requires a named lane"),
        }
    };
    (@eng $d512:ident, $d2:ident, $eng:expr, [$($g:tt),*], $($arg:expr),*) => {
        match $eng {
            // SAFETY: `WideAvx512` is only in `available_engines()` after
            // `avx512_available()` detected the AVX-512 feature set.
            #[cfg(target_arch = "x86_64")]
            SimdEngine::WideAvx512 => unsafe { engine::$d512::<$($g),*>($($arg),*) },
            // SAFETY: `WideAvx2` is only in `available_engines()` after
            // `avx2_available()` detected AVX2.
            #[cfg(target_arch = "x86_64")]
            SimdEngine::WideAvx2 => unsafe { engine::$d2::<$($g),*>($($arg),*) },
            _ => no_wide_engine(($(&$arg),*)),
        }
    };
}

/// The `wide_dispatch!` arm for an engine with no driver on this target
/// (or the scalar engine): unreachable, because every caller passes an
/// intrinsics engine from [`available_engines`]. Taking the driver's
/// arguments keeps them used where no intrinsics arm is compiled.
fn no_wide_engine<A, T>(_args: A) -> T {
    unreachable!("wide dispatch requires an available intrinsics engine")
}

/// The named lane `fmt` runs on under `eng`, or `None` when the batch
/// belongs on the scalar lane (the scalar engine or a dynamic format).
#[inline(always)]
pub(crate) fn wide_lane(eng: SimdEngine, fmt: FpFormat) -> Option<Lane> {
    let lane = lane_of(fmt);
    (eng != SimdEngine::Scalar && !matches!(lane, Lane::Dyn)).then_some(lane)
}

/// Run a binary batch on an intrinsics engine and fix up the special
/// lanes through the generic path, in index order.
#[inline(always)]
pub(crate) fn run_bin<const OP: u8>(
    eng: SimdEngine,
    lane: Lane,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    let base = out.len();
    let mut specials: Vec<u32> = Vec::new();
    wide_dispatch!(bin, eng, lane, OP, pairs, mode, out, &mut specials);
    for &j in &specials {
        let (x, y) = pairs[j as usize];
        out[base + j as usize] = if OP == OP_ADD {
            ops::add::add(fmt, x, y, mode)
        } else if OP == OP_SUB {
            ops::add::sub(fmt, x, y, mode)
        } else {
            ops::mul::mul(fmt, x, y, mode)
        };
    }
}

/// Run an fma batch on an intrinsics engine with the generic fixup pass.
#[inline(always)]
pub(crate) fn run_fma(
    eng: SimdEngine,
    lane: Lane,
    fmt: FpFormat,
    triples: &[(u64, u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    let base = out.len();
    let mut specials: Vec<u32> = Vec::new();
    wide_dispatch!(fma, eng, lane, triples, mode, out, &mut specials);
    for &j in &specials {
        let (x, y, z) = triples[j as usize];
        out[base + j as usize] = ops::fma::fma(fmt, x, y, z, mode);
    }
}

/// Run a MAC column pass on an intrinsics engine (shape already checked).
#[allow(clippy::too_many_arguments)] // the kernel's operands plus engine and lane
pub(crate) fn run_mac(
    eng: SimdEngine,
    lane: Lane,
    a_t: &[u64],
    stride: usize,
    rows: usize,
    b: &[u64],
    c: &mut [u64],
    mode: RoundMode,
) -> Flags {
    wide_dispatch!(mac, eng, lane, a_t, stride, rows, b, c, mode)
}

// ---------------------------------------------------------------------------
// Engine-explicit public batch API (benches, equivalence tests)
// ---------------------------------------------------------------------------
//
// Each entry runs the same engine-parameterized function as its policy
// twin in `fastpath`, on the engine the caller pins.

/// [`fastpath::add_pairs_batch`] on an explicit engine.
///
/// # Panics
/// When `eng` is not in [`available_engines`] (the same holds for every
/// `*_with` entry point).
pub fn add_pairs_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_available(eng);
    fastpath::pairs_batch_on::<OP_ADD>(eng, fmt, pairs, mode, out);
}

/// [`fastpath::sub_pairs_batch`] on an explicit engine.
pub fn sub_pairs_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_available(eng);
    fastpath::pairs_batch_on::<OP_SUB>(eng, fmt, pairs, mode, out);
}

/// [`fastpath::mul_pairs_batch`] on an explicit engine.
pub fn mul_pairs_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_available(eng);
    fastpath::pairs_batch_on::<OP_MUL>(eng, fmt, pairs, mode, out);
}

/// [`fastpath::fma_triples_batch`] on an explicit engine.
pub fn fma_triples_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    triples: &[(u64, u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_available(eng);
    fastpath::fma_triples_batch_on(eng, fmt, triples, mode, out);
}

/// [`fastpath::mac_column`] on an explicit engine.
///
/// # Panics
/// When `eng` is not in [`available_engines`], and as
/// [`fastpath::mac_column`].
#[allow(clippy::too_many_arguments)] // the kernel's seven operands plus the engine
pub fn mac_column_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a_t: &[u64],
    stride: usize,
    rows: usize,
    b: &[u64],
    c: &mut [u64],
    mode: RoundMode,
) -> Flags {
    assert_available(eng);
    fastpath::mac_column_on(eng, fmt, a_t, stride, rows, b, c, mode)
}

// ---------------------------------------------------------------------------
// Single-case dispatchers (the conformance harness's eval hooks)
// ---------------------------------------------------------------------------
//
// These run one case as a [`LANES`]-wide broadcast batch through the
// active engine's batch path: a wide engine runs its vector pass and
// classify fixup, the scalar engine its scalar batch loop. So a
// conformance sweep through them checks the code production batches
// execute, not a scalar stand-in.

thread_local! {
    static ONE_SHOT: std::cell::RefCell<Vec<(u64, Flags)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `batch` into this thread's reusable buffer; its first result.
fn one_shot(batch: impl FnOnce(&mut Vec<(u64, Flags)>)) -> (u64, Flags) {
    ONE_SHOT.with(|cell| {
        let mut out = cell.borrow_mut();
        out.clear();
        batch(&mut out);
        out[0]
    })
}

/// One `a + b` through the active engine's batch path.
pub fn add_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    one_shot(|out| {
        fastpath::pairs_batch_on::<OP_ADD>(active_engine(), fmt, &[(a, b); LANES], mode, out)
    })
}

/// One `a - b` through the active engine's batch path.
pub fn sub_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    one_shot(|out| {
        fastpath::pairs_batch_on::<OP_SUB>(active_engine(), fmt, &[(a, b); LANES], mode, out)
    })
}

/// One `a * b` through the active engine's batch path.
pub fn mul_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    one_shot(|out| {
        fastpath::pairs_batch_on::<OP_MUL>(active_engine(), fmt, &[(a, b); LANES], mode, out)
    })
}

/// One `a·b + c` through the active engine's batch path.
pub fn fma_bits(fmt: FpFormat, a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    one_shot(|out| {
        fastpath::fma_triples_batch_on(active_engine(), fmt, &[(a, b, c); LANES], mode, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [RoundMode; 2] = [RoundMode::NearestEven, RoundMode::Truncate];
    const FORMATS: [FpFormat; 3] = [FpFormat::SINGLE, FpFormat::FP48, FpFormat::DOUBLE];

    /// A mix of specials and normals for each format.
    fn probe_values(fmt: FpFormat) -> Vec<u64> {
        let sign = 1u64 << fmt.sign_shift();
        let mut v = vec![
            0,
            sign,
            fmt.pos_inf(),
            fmt.neg_inf(),
            fmt.min_positive(),
            fmt.min_positive() | sign,
            fmt.max_finite(),
            fmt.max_finite() | sign,
            fmt.pack(false, fmt.bias() as u64, 0),
            fmt.pack(true, fmt.bias() as u64, 1),
            fmt.pack(false, fmt.bias() as u64 + 1, fmt.frac_mask()),
            fmt.pack(false, 1, fmt.frac_mask()),
            fmt.pack(true, fmt.max_biased_exp(), fmt.frac_mask() >> 1),
            fmt.pack(false, 0, 7),
            fmt.pack(false, fmt.inf_biased_exp(), 1),
        ];
        let mut s = 0x0123_4567_89ab_cdefu64;
        for _ in 0..49 {
            s = s
                .wrapping_mul(0xd129_42e2_96fe_94e3)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            v.push(s & fmt.enc_mask());
        }
        v
    }

    #[test]
    fn every_engine_matches_generic_binary() {
        for fmt in FORMATS {
            let vals = probe_values(fmt);
            let n = vals.len();
            let pairs: Vec<(u64, u64)> = (0..n * n).map(|i| (vals[i / n], vals[i % n])).collect();
            for mode in MODES {
                let expect = |op: fn(FpFormat, u64, u64, RoundMode) -> (u64, Flags)| {
                    pairs
                        .iter()
                        .map(|&(x, y)| op(fmt, x, y, mode))
                        .collect::<Vec<_>>()
                };
                let expect_add = expect(ops::add::add);
                let expect_sub = expect(ops::add::sub);
                let expect_mul = expect(ops::mul::mul);
                for &eng in available_engines() {
                    let mut got = Vec::new();
                    add_pairs_batch_with(eng, fmt, &pairs, mode, &mut got);
                    assert_eq!(got, expect_add, "add {fmt:?} {mode:?} {eng:?}");
                    got.clear();
                    sub_pairs_batch_with(eng, fmt, &pairs, mode, &mut got);
                    assert_eq!(got, expect_sub, "sub {fmt:?} {mode:?} {eng:?}");
                    got.clear();
                    mul_pairs_batch_with(eng, fmt, &pairs, mode, &mut got);
                    assert_eq!(got, expect_mul, "mul {fmt:?} {mode:?} {eng:?}");
                }
            }
        }
    }

    #[test]
    fn every_engine_matches_generic_fma() {
        for fmt in FORMATS {
            let vals = probe_values(fmt);
            let thin: Vec<u64> = vals.iter().step_by(4).copied().collect();
            let mut triples = Vec::new();
            for &x in &thin {
                for &y in &thin {
                    for &z in &thin {
                        triples.push((x, y, z));
                    }
                }
            }
            for mode in MODES {
                let expect: Vec<_> = triples
                    .iter()
                    .map(|&(x, y, z)| ops::fma::fma(fmt, x, y, z, mode))
                    .collect();
                for &eng in available_engines() {
                    let mut got = Vec::new();
                    fma_triples_batch_with(eng, fmt, &triples, mode, &mut got);
                    assert_eq!(got, expect, "fma {fmt:?} {mode:?} {eng:?}");
                }
            }
        }
    }

    #[test]
    fn fma_wide_scalar_matches_generic_on_dyn_formats() {
        // The pair-datapath replacement for the u128 kernel serves every
        // format with 2f + FMA_GRS + 4 > 64, including dynamic ones.
        for fmt in [
            FpFormat::new(15, 48),
            FpFormat::new(4, 56),
            FpFormat::new(2, 30),
        ] {
            let vals = probe_values(fmt);
            let thin: Vec<u64> = vals.iter().step_by(5).copied().collect();
            for mode in MODES {
                for &a in &thin {
                    for &b in &thin {
                        for &c in &thin {
                            assert_eq!(
                                fastpath::fma_bits(fmt, a, b, c, mode),
                                ops::fma::fma(fmt, a, b, c, mode),
                                "fma {fmt:?} {a:#x} {b:#x} {c:#x} {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn widening_mul_is_exact() {
        let mut s = 1u64;
        for _ in 0..4096 {
            s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(11);
            let x = s;
            s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(11);
            let y = s;
            let (hi, lo) = widening_mul(x, y);
            let p = x as u128 * y as u128;
            assert_eq!(((p >> 64) as u64, p as u64), (hi, lo), "{x:#x} * {y:#x}");
        }
    }

    #[test]
    fn shr128_sticky_matches_u128() {
        let vals = [
            (0u64, 0u64),
            (0, 1),
            (1, 0),
            (0x8000_0000_0000_0000, 0x8000_0000_0000_0001),
            (0x0042_4242_1337_0000, 0xffff_ffff_ffff_ffff),
        ];
        for &(hi, lo) in &vals {
            let v = ((hi as u128) << 64) | lo as u128;
            for n in 0..200u64 {
                let (rh, rl, lost) = shr128_sticky(hi, lo, n);
                let nn = n.min(127) as u32;
                let want = v >> nn;
                let want_lost = (v & ((1u128 << nn) - 1) != 0) as u64;
                assert_eq!(
                    ((want >> 64) as u64, want as u64, want_lost),
                    (rh, rl, lost),
                    "({hi:#x},{lo:#x}) >> {n}"
                );
            }
        }
    }

    #[test]
    fn policy_round_trip_and_engine_resolution() {
        // Engine resolution is pure in the policy + detection result; the
        // global store/load round-trips every variant. (Leaves the policy
        // reset to Auto: other tests in this binary never set it.)
        let engines = available_engines();
        assert_eq!(engines[0], SimdEngine::Scalar);
        assert_eq!(engines.contains(&SimdEngine::WideAvx2), avx2_available());
        assert_eq!(
            engines.contains(&SimdEngine::WideAvx512),
            avx512_available()
        );
        for p in [SimdPolicy::ForceScalar, SimdPolicy::Auto] {
            set_simd_policy(p);
            assert_eq!(simd_policy(), p);
            let want = match p {
                SimdPolicy::ForceScalar => SimdEngine::Scalar,
                SimdPolicy::Auto => *engines.last().unwrap(),
            };
            assert_eq!(active_engine(), want);
        }
        set_simd_policy(SimdPolicy::Auto);
    }
}
