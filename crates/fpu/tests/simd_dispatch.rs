//! SIMD dispatch must be invisible to the pipeline simulators: for
//! every [`SimdPolicy`] the batched streaming path (`run_batch`, which
//! reaches the `softfp::simd` engines through the fastpath batch
//! dispatchers) returns bit-identical results — values AND flags — to
//! the generic scalar reference. One test function owns the
//! process-global policy so policy flips never race another test.

use fpfpga_fpu::prelude::*;
use fpfpga_fpu::sim::DelayOp;
use fpfpga_softfp::simd::{set_simd_policy, SimdPolicy};
use proptest::prelude::*;

fn formats() -> impl Strategy<Value = FpFormat> {
    prop_oneof![
        Just(FpFormat::SINGLE),
        Just(FpFormat::FP48),
        Just(FpFormat::DOUBLE)
    ]
}

fn modes() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

fn mask(fmt: FpFormat, raw: &[(u64, u64)]) -> Vec<(u64, u64)> {
    raw.iter()
        .map(|&(a, b)| (a & fmt.enc_mask(), b & fmt.enc_mask()))
        .collect()
}

const POLICIES: [SimdPolicy; 2] = [SimdPolicy::ForceScalar, SimdPolicy::Auto];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Adder, multiplier and delay-line batches are policy-invariant
    /// and equal to the generic scalar dispatchers element for element.
    #[test]
    fn pipeline_batches_are_policy_invariant(
        fmt in formats(),
        mode in modes(),
        stage_seed in any::<u32>(),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..48),
    ) {
        let inputs = mask(fmt, &raw);
        let want_add: Vec<(u64, Flags)> = inputs
            .iter()
            .map(|&(a, b)| fpfpga_softfp::add_bits(fmt, a, b, mode))
            .collect();
        let want_mul: Vec<(u64, Flags)> = inputs
            .iter()
            .map(|&(a, b)| fpfpga_softfp::mul_bits(fmt, a, b, mode))
            .collect();
        let want_sub: Vec<(u64, Flags)> = inputs
            .iter()
            .map(|&(a, b)| fpfpga_softfp::sub_bits(fmt, a, b, mode))
            .collect();

        let tech = Tech::virtex2pro();
        for policy in POLICIES {
            set_simd_policy(policy);

            let design = AdderDesign { format: fmt, round: mode, force_priority_encoder: false };
            let stages = 1 + stage_seed % design.netlist(&tech).max_stages();
            let got = design.simulator(stages).run_batch(&inputs);
            prop_assert_eq!(&got, &want_add, "adder {:?} {:?}", policy, fmt);

            let design = MultiplierDesign { format: fmt, round: mode };
            let stages = 1 + stage_seed % design.netlist(&tech).max_stages();
            let got = design.simulator(stages).run_batch(&inputs);
            prop_assert_eq!(&got, &want_mul, "multiplier {:?} {:?}", policy, fmt);

            let got = DelayLineUnit::new(fmt, mode, DelayOp::Sub, 1 + stage_seed % 32)
                .run_batch(&inputs);
            prop_assert_eq!(&got, &want_sub, "delay-line sub {:?} {:?}", policy, fmt);
        }
        set_simd_policy(SimdPolicy::Auto);
    }
}
