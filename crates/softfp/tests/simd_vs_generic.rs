//! Property tests: every SIMD batch engine must be bit-identical to the
//! generic `unpacked` dispatchers — result encodings *and* exception
//! flags — at special-operand densities of 0%, ~5% and 100%, on the
//! paper's three precisions. The suite pins the engine explicitly
//! through the `*_pairs_batch_with`/`fma_triples_batch_with` entry
//! points (no global-policy races between test threads) and checks
//! partition-order stability: the classify-then-partition driver must
//! scatter special-lane results back into their original batch
//! positions, after whatever `out` already held.
//!
//! The fused MAC column pass (`fastpath::mac_column`) gets the same
//! treatment against a reference loop of generic `mul_bits` then
//! `add_bits`: every engine, three densities, ragged row tails, strided
//! tiles, and the corner cases that leave the vector lane mid-column
//! (overflowing and flushing products, exact cancellation to +0).
//!
//! "Every engine" is `simd::available_engines()`, so an AVX-512 host
//! checks its AVX2 engine too. Engines the host lacks must make every
//! `*_with` entry point panic before any of their instructions run.

use fpfpga_softfp::simd::{self, SimdEngine};
use fpfpga_softfp::{add_bits, fastpath, fma_bits, mul_bits, sub_bits, Flags, FpFormat, RoundMode};
use proptest::prelude::*;

const FORMATS: [FpFormat; 3] = FpFormat::PAPER_PRECISIONS;

fn any_fmt() -> impl Strategy<Value = FpFormat> {
    prop_oneof![Just(FORMATS[0]), Just(FORMATS[1]), Just(FORMATS[2])]
}

fn any_mode() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

/// Turn a raw draw into an operand with the requested percentage of
/// special encodings (`sel` is an independent uniform draw). Specials
/// cycle through zero, denormal-pattern, and all-ones-exponent
/// encodings; normals fold the exponent into the normal range.
fn encode(fmt: FpFormat, raw: u64, sel: u16, density_pct: u16) -> u64 {
    if u64::from(sel % 100) < u64::from(density_pct) {
        let (sign, _, frac) = fmt.unpack_fields(raw);
        match sel / 100 % 3 {
            0 => fmt.pack(sign, 0, 0),                       // signed zero
            1 => fmt.pack(sign, 0, frac | 1),                // denormal pattern
            _ => fmt.pack(sign, fmt.inf_biased_exp(), frac), // inf/NaN pattern
        }
    } else {
        let (sign, exp, frac) = fmt.unpack_fields(raw);
        let norm = 1 + exp % fmt.max_biased_exp();
        fmt.pack(sign, norm, frac)
    }
}

type RawBatch = Vec<(u64, u64, u64, u16)>;

fn raw_batch() -> impl Strategy<Value = RawBatch> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>()),
        0..80,
    )
}

/// Check one (engine, density) cell for every binary op plus fma:
/// the batch output must equal the generic scalar dispatchers,
/// element for element, in original input order. Every batch appends
/// to a non-empty `out`, whose prefix must survive untouched (the
/// fixup pass writes at an offset from it).
fn check_density(fmt: FpFormat, mode: RoundMode, raw: &RawBatch, density_pct: u16) {
    let triples: Vec<(u64, u64, u64)> = raw
        .iter()
        .map(|&(x, y, z, s)| {
            (
                encode(fmt, x, s, density_pct),
                encode(fmt, y, s.wrapping_add(7), density_pct),
                encode(fmt, z, s.wrapping_add(31), density_pct),
            )
        })
        .collect();
    let pairs: Vec<(u64, u64)> = triples.iter().map(|&(x, y, _)| (x, y)).collect();
    let prefix = vec![(0xdead_beef, Flags::NONE); 1 + raw.len() % 9];

    let want = |f: fn(FpFormat, u64, u64, RoundMode) -> (u64, Flags)| {
        let mut want = prefix.clone();
        want.extend(pairs.iter().map(|&(x, y)| f(fmt, x, y, mode)));
        want
    };
    let (want_add, want_sub, want_mul) = (want(add_bits), want(sub_bits), want(mul_bits));
    let mut want_fma = prefix.clone();
    want_fma.extend(
        triples
            .iter()
            .map(|&(x, y, z)| fma_bits(fmt, x, y, z, mode)),
    );

    for &eng in simd::available_engines() {
        let mut out = prefix.clone();
        simd::add_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
        assert_eq!(out, want_add, "{eng:?} add {fmt:?} {density_pct}%");
        out.truncate(prefix.len());
        simd::sub_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
        assert_eq!(out, want_sub, "{eng:?} sub {fmt:?} {density_pct}%");
        out.truncate(prefix.len());
        simd::mul_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
        assert_eq!(out, want_mul, "{eng:?} mul {fmt:?} {density_pct}%");
        out.truncate(prefix.len());
        simd::fma_triples_batch_with(eng, fmt, &triples, mode, &mut out);
        assert_eq!(out, want_fma, "{eng:?} fma {fmt:?} {density_pct}%");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// 0% specials: the pure vector datapath, no partition fixup.
    #[test]
    fn all_normal_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                        raw in raw_batch()) {
        check_density(fmt, mode, &raw, 0);
    }

    /// ~5% specials: mostly-vector chunks with sparse scattered fixups —
    /// the partition pass must place each special result back in order.
    #[test]
    fn sparse_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                            raw in raw_batch()) {
        check_density(fmt, mode, &raw, 5);
    }

    /// 100% specials: every lane takes the generic path; the vector lane
    /// contributes nothing but must not corrupt order or flags.
    #[test]
    fn all_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                         raw in raw_batch()) {
        check_density(fmt, mode, &raw, 100);
    }

    /// Engines also agree on arbitrary *raw* encodings (whatever mix of
    /// normal/special that implies), and so do all four one-shot
    /// dispatchers under the active policy.
    #[test]
    fn raw_encodings_match_generic(fmt in any_fmt(), mode in any_mode(),
                                   raw in raw_batch()) {
        let m = fmt.enc_mask();
        let triples: Vec<(u64, u64, u64)> =
            raw.iter().map(|&(x, y, z, _)| (x & m, y & m, z & m)).collect();
        let pairs: Vec<(u64, u64)> = triples.iter().map(|&(x, y, _)| (x, y)).collect();
        for &eng in simd::available_engines() {
            let mut out = Vec::new();
            simd::add_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
            for (i, &(x, y)) in pairs.iter().enumerate() {
                prop_assert_eq!(out[i], add_bits(fmt, x, y, mode),
                                "{:?} add lane {}", eng, i);
            }
        }
        for &(x, y, z) in &triples {
            prop_assert_eq!(simd::add_bits(fmt, x, y, mode), add_bits(fmt, x, y, mode));
            prop_assert_eq!(simd::sub_bits(fmt, x, y, mode), sub_bits(fmt, x, y, mode));
            prop_assert_eq!(simd::mul_bits(fmt, x, y, mode), mul_bits(fmt, x, y, mode));
            prop_assert_eq!(simd::fma_bits(fmt, x, y, z, mode), fma_bits(fmt, x, y, z, mode));
        }
    }
}

/// The paper's three precisions plus one dynamic custom format (which
/// every engine routes to the scalar twin).
const MAC_FORMATS: [FpFormat; 4] = [
    FpFormat::SINGLE,
    FpFormat::W48,
    FpFormat::DOUBLE,
    FpFormat::new(9, 30),
];

/// One MAC column problem: `a_t` is k-major with row stride `stride`.
struct MacCase {
    fmt: FpFormat,
    mode: RoundMode,
    rows: usize,
    stride: usize,
    a_t: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
}

/// splitmix64 stream for the bulk operand draws.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An operand with `density_pct` specials. `wide` draws normals over the
/// whole exponent range (so about half of all products overflow or
/// flush); otherwise normals stay within a few binades of 1, keeping
/// long accumulations on the vector lane.
fn mac_operand(fmt: FpFormat, seed: &mut u64, density_pct: u16, wide: bool) -> u64 {
    let raw = splitmix(seed);
    let sel = splitmix(seed) as u16;
    let x = encode(fmt, raw, sel, density_pct);
    if wide || u64::from(sel % 100) < u64::from(density_pct) {
        return x;
    }
    let (sign, _, frac) = fmt.unpack_fields(x);
    fmt.pack(sign, fmt.bias() as u64 - 3 + raw % 7, frac)
}

impl MacCase {
    #[allow(clippy::too_many_arguments)]
    fn draw(
        fmt: FpFormat,
        mode: RoundMode,
        rows: usize,
        steps: usize,
        extra_stride: usize,
        density_pct: u16,
        wide: bool,
        mut seed: u64,
    ) -> MacCase {
        let stride = rows + extra_stride;
        let mut op = || mac_operand(fmt, &mut seed, density_pct, wide);
        let a_t = (0..(steps - 1) * stride + rows).map(|_| op()).collect();
        let b = (0..steps).map(|_| op()).collect();
        let c = (0..rows).map(|_| op()).collect();
        MacCase {
            fmt,
            mode,
            rows,
            stride,
            a_t,
            b,
            c,
        }
    }

    /// The reference: generic `mul_bits` then `add_bits(product, acc)`
    /// per MAC, `k` ascending.
    fn reference(&self) -> (Vec<u64>, Flags) {
        let mut c = self.c.clone();
        let mut flags = Flags::NONE;
        for (k, &bk) in self.b.iter().enumerate() {
            for (i, ci) in c.iter_mut().enumerate() {
                let (p, pf) = mul_bits(self.fmt, self.a_t[k * self.stride + i], bk, self.mode);
                let (s, sf) = add_bits(self.fmt, p, *ci, self.mode);
                *ci = s;
                flags |= pf | sf;
            }
        }
        (c, flags)
    }

    /// Every engine (scalar twin included) and the policy-resolved
    /// entry point must reproduce the reference `c` and flags.
    fn check(&self) -> Result<(), TestCaseError> {
        let want = self.reference();
        let run = |eng: Option<SimdEngine>| {
            let mut c = self.c.clone();
            let (fmt, rows, stride, mode) = (self.fmt, self.rows, self.stride, self.mode);
            let flags = match eng {
                Some(eng) => {
                    simd::mac_column_with(eng, fmt, &self.a_t, stride, rows, &self.b, &mut c, mode)
                }
                None => fastpath::mac_column(fmt, &self.a_t, stride, rows, &self.b, &mut c, mode),
            };
            (c, flags)
        };
        for &eng in simd::available_engines() {
            prop_assert_eq!(
                run(Some(eng)),
                want.clone(),
                "{:?} mac {:?} rows={} steps={} stride={}",
                eng,
                self.fmt,
                self.rows,
                self.b.len(),
                self.stride
            );
        }
        prop_assert_eq!(run(None), want, "policy-resolved mac {:?}", self.fmt);
        Ok(())
    }
}

fn any_mac_fmt() -> impl Strategy<Value = FpFormat> {
    prop_oneof![
        Just(MAC_FORMATS[0]),
        Just(MAC_FORMATS[1]),
        Just(MAC_FORMATS[2]),
        Just(MAC_FORMATS[3])
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 0% specials: well-scaled columns stay on the vector lane for
    /// every step; wide-exponent columns push products off it.
    #[test]
    fn mac_column_all_normal_matches_reference(
        fmt in any_mac_fmt(), mode in any_mode(), rows in 1usize..41, steps in 1usize..41,
        extra in 0usize..5, wide in any::<bool>(), seed in any::<u64>(),
    ) {
        MacCase::draw(fmt, mode, rows, steps, extra, 0, wide, seed).check()?;
    }

    /// ~5% specials: sparse lanes leave and re-enter the vector lane.
    #[test]
    fn mac_column_sparse_specials_match_reference(
        fmt in any_mac_fmt(), mode in any_mode(), rows in 1usize..41, steps in 1usize..41,
        extra in 0usize..5, wide in any::<bool>(), seed in any::<u64>(),
    ) {
        MacCase::draw(fmt, mode, rows, steps, extra, 5, wide, seed).check()?;
    }

    /// 100% specials: every lane of every step takes the scalar redo.
    #[test]
    fn mac_column_all_special_matches_reference(
        fmt in any_mac_fmt(), mode in any_mode(), rows in 1usize..41, steps in 1usize..41,
        extra in 0usize..5, seed in any::<u64>(),
    ) {
        MacCase::draw(fmt, mode, rows, steps, extra, 100, true, seed).check()?;
    }
}

/// Deterministic corner cases inside full 8-lane chunks and the row
/// tail: products that overflow and flush from normal×normal operands,
/// and products that cancel their accumulator exactly to +0 (whose next
/// step then runs from a zero accumulator).
#[test]
fn mac_column_overflow_flush_and_cancellation() {
    for fmt in MAC_FORMATS {
        for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
            let bias = fmt.bias() as u64;
            let x = fmt.pack(false, bias + 2, 5);
            let half_x = fmt.pack(false, bias + 1, 5);
            let rows = 19; // two full chunks and a 3-row tail
            let mut a_t = vec![x; 3 * rows];
            let mut c = vec![fmt.pack(false, bias, 0); rows];
            a_t[3] = fmt.max_finite(); // step 0: max·2 overflows
            a_t[rows + 5] = fmt.min_positive(); // step 1: min·½ flushes
            for i in [9, 17] {
                // step 0: (x/2)·2 − x = +0 exactly, in a chunk and the tail
                a_t[i] = half_x;
                c[i] = x | (1 << fmt.sign_shift());
            }
            let b = vec![
                fmt.pack(false, bias + 1, 0), // 2
                fmt.pack(false, bias - 1, 0), // ½
                fmt.pack(false, bias, 0),     // 1
            ];
            let first = MacCase {
                fmt,
                mode,
                rows,
                stride: rows,
                a_t: a_t[..rows].to_vec(),
                b: b[..1].to_vec(),
                c: c.clone(),
            };
            let (after_first, _) = first.reference();
            assert_eq!((after_first[9], after_first[17]), (0, 0), "{fmt:?} cancels");
            first.check().expect("first step");
            let case = MacCase {
                fmt,
                mode,
                rows,
                stride: rows,
                a_t,
                b,
                c,
            };
            let (_, flags) = case.reference();
            assert!(flags.overflow && flags.underflow, "{fmt:?} corner mix");
            case.check().expect("mac corner cases");
        }
    }
}

/// Every `SimdEngine` variant, whether this host has it or not. The
/// exhaustive match in `refusal_follows_available_engines` stops
/// compiling when a variant is added without extending this list.
const ALL_ENGINES: [SimdEngine; 3] = [
    SimdEngine::Scalar,
    SimdEngine::WideAvx2,
    SimdEngine::WideAvx512,
];

/// Signature shared by the binary `*_pairs_batch_with` entry points.
type BatchWith = fn(SimdEngine, FpFormat, &[(u64, u64)], RoundMode, &mut Vec<(u64, Flags)>);

/// The safe `*_with` entry points either run an engine and match the
/// generic path, or panic before running it; which one happens must
/// follow `simd::available_engines()` exactly. (A host that lacks an
/// engine must never execute its instructions from safe code.)
#[test]
fn refusal_follows_available_engines() {
    let fmt = FpFormat::SINGLE;
    let mode = RoundMode::NearestEven;
    let mut seed = 0x5eed_u64;
    let mut op = || mac_operand(fmt, &mut seed, 5, true);
    let triples: Vec<(u64, u64, u64)> = (0..37).map(|_| (op(), op(), op())).collect();
    let pairs: Vec<(u64, u64)> = triples.iter().map(|&(x, y, _)| (x, y)).collect();
    let generic = |f: fn(FpFormat, u64, u64, RoundMode) -> (u64, Flags)| -> Vec<(u64, Flags)> {
        pairs.iter().map(|&(x, y)| f(fmt, x, y, mode)).collect()
    };
    let (want_add, want_sub, want_mul) = (generic(add_bits), generic(sub_bits), generic(mul_bits));
    let want_fma: Vec<(u64, Flags)> = triples
        .iter()
        .map(|&(x, y, z)| fma_bits(fmt, x, y, z, mode))
        .collect();
    let mac = MacCase::draw(fmt, mode, 19, 6, 2, 5, false, 0xface);
    let want_mac = mac.reference();

    for eng in ALL_ENGINES {
        match eng {
            SimdEngine::Scalar | SimdEngine::WideAvx2 | SimdEngine::WideAvx512 => {}
        }
        let available = simd::available_engines().contains(&eng);
        let expect = |name: &str, run: &dyn Fn() -> bool| match std::panic::catch_unwind(
            std::panic::AssertUnwindSafe(run),
        ) {
            Ok(matched) => {
                assert!(available, "{eng:?} {name} ran on a host without it");
                assert!(matched, "{eng:?} {name} differs from the generic path");
            }
            Err(payload) => {
                let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    !available,
                    "{eng:?} {name} refused although available: {msg}"
                );
                assert!(msg.contains("not available"), "{eng:?} {name}: {msg}");
            }
        };
        let batch = |f: BatchWith, want: &Vec<(u64, Flags)>| {
            let mut out = Vec::new();
            f(eng, fmt, &pairs, mode, &mut out);
            out == *want
        };
        expect("add", &|| batch(simd::add_pairs_batch_with, &want_add));
        expect("sub", &|| batch(simd::sub_pairs_batch_with, &want_sub));
        expect("mul", &|| batch(simd::mul_pairs_batch_with, &want_mul));
        expect("fma", &|| {
            let mut out = Vec::new();
            simd::fma_triples_batch_with(eng, fmt, &triples, mode, &mut out);
            out == want_fma
        });
        expect("mac", &|| {
            let mut acc = mac.c.clone();
            let (stride, rows) = (mac.stride, mac.rows);
            let flags =
                simd::mac_column_with(eng, fmt, &mac.a_t, stride, rows, &mac.b, &mut acc, mode);
            (acc, flags) == want_mac
        });
    }
}
