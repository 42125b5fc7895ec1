//! Property tests: the monomorphized/runtime-width fast lane must be
//! bit-identical to the generic `unpacked` path — result encodings *and*
//! exception flags — on **random custom formats**, not just the three
//! named precisions. Operands are raw bit patterns, so zeros, denormal
//! encodings (which flush), infinities and NaN-pattern encodings all get
//! drawn alongside normals and exercise the fallback boundary.

use fpfpga_softfp::fastpath;
use fpfpga_softfp::{add_bits, fma_bits, mul_bits, sub_bits, FpFormat, RoundMode};
use proptest::prelude::*;

/// Any legal format: `exp_bits` 2..=15, `frac_bits` 2..=56, total <= 64.
fn any_format() -> impl Strategy<Value = FpFormat> {
    (2u32..=15, 2u32..=56)
        .prop_filter("fits in 64 bits", |&(e, f)| 1 + e + f <= 64)
        .prop_map(|(e, f)| FpFormat::new(e, f))
}

fn any_mode() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn fast_add_matches_generic(fmt in any_format(), a in any::<u64>(), b in any::<u64>(),
                                mode in any_mode()) {
        let (a, b) = (a & fmt.enc_mask(), b & fmt.enc_mask());
        prop_assert_eq!(
            fastpath::add_bits(fmt, a, b, mode),
            add_bits(fmt, a, b, mode),
            "{:?} {:#x} + {:#x} {:?}", fmt, a, b, mode
        );
    }

    #[test]
    fn fast_sub_matches_generic(fmt in any_format(), a in any::<u64>(), b in any::<u64>(),
                                mode in any_mode()) {
        let (a, b) = (a & fmt.enc_mask(), b & fmt.enc_mask());
        prop_assert_eq!(
            fastpath::sub_bits(fmt, a, b, mode),
            sub_bits(fmt, a, b, mode),
            "{:?} {:#x} - {:#x} {:?}", fmt, a, b, mode
        );
    }

    #[test]
    fn fast_mul_matches_generic(fmt in any_format(), a in any::<u64>(), b in any::<u64>(),
                                mode in any_mode()) {
        let (a, b) = (a & fmt.enc_mask(), b & fmt.enc_mask());
        prop_assert_eq!(
            fastpath::mul_bits(fmt, a, b, mode),
            mul_bits(fmt, a, b, mode),
            "{:?} {:#x} * {:#x} {:?}", fmt, a, b, mode
        );
    }

    #[test]
    fn fast_fma_matches_generic(fmt in any_format(), a in any::<u64>(), b in any::<u64>(),
                                c in any::<u64>(), mode in any_mode()) {
        let (a, b, c) = (a & fmt.enc_mask(), b & fmt.enc_mask(), c & fmt.enc_mask());
        prop_assert_eq!(
            fastpath::fma_bits(fmt, a, b, c, mode),
            fma_bits(fmt, a, b, c, mode),
            "{:?} {:#x}*{:#x}+{:#x} {:?}", fmt, a, b, c, mode
        );
    }

    /// Close-exponent operand pairs: stresses cancellation/normalization,
    /// the regime where the fast lane's inline shifter could diverge.
    #[test]
    fn fast_sub_cancellation_matches_generic(fmt in any_format(), frac_a in any::<u64>(),
                                             frac_b in any::<u64>(), e_off in 0u32..3,
                                             mode in any_mode()) {
        let mid = fmt.bias() as u64;
        let a = fmt.pack(false, mid, frac_a);
        let b = fmt.pack(false, mid + e_off as u64, frac_b);
        prop_assert_eq!(
            fastpath::sub_bits(fmt, a, b, mode),
            sub_bits(fmt, a, b, mode),
            "{:?} {:#x} - {:#x} {:?}", fmt, a, b, mode
        );
    }

    /// Products near the overflow/underflow cliffs: range-check parity.
    #[test]
    fn fast_mul_range_edges_match_generic(fmt in any_format(), frac_a in any::<u64>(),
                                          frac_b in any::<u64>(), hi in any::<bool>(),
                                          mode in any_mode()) {
        let exp = if hi { fmt.max_biased_exp() } else { 1 };
        let a = fmt.pack(false, exp, frac_a);
        let b = fmt.pack(true, exp, frac_b);
        prop_assert_eq!(
            fastpath::mul_bits(fmt, a, b, mode),
            mul_bits(fmt, a, b, mode),
            "{:?} {:#x} * {:#x} {:?}", fmt, a, b, mode
        );
    }

    /// Batch entry points agree element-wise with the scalar dispatchers
    /// on arbitrary formats.
    #[test]
    fn batch_matches_scalar(fmt in any_format(), raw in proptest::collection::vec(any::<u64>(), 0..64),
                            mode in any_mode()) {
        let vals: Vec<u64> = raw.iter().map(|&x| x & fmt.enc_mask()).collect();
        let pairs: Vec<(u64, u64)> = vals.iter().copied().zip(vals.iter().rev().copied()).collect();
        let mut out = Vec::new();
        fastpath::add_pairs_batch(fmt, &pairs, mode, &mut out);
        fastpath::mul_pairs_batch(fmt, &pairs, mode, &mut out);
        prop_assert_eq!(out.len(), 2 * pairs.len());
        for (i, &(a, b)) in pairs.iter().enumerate() {
            prop_assert_eq!(out[i], fastpath::add_bits(fmt, a, b, mode));
            prop_assert_eq!(out[pairs.len() + i], fastpath::mul_bits(fmt, a, b, mode));
        }
    }
}
