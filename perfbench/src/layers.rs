//! The `softfp` and `fpu` layers, timed at their public batch and
//! per-case entry points, plus the conformance host oracle per case.

use crate::matmul_sim::{ADD_STAGES, MULT_STAGES};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{self, Metric};
use fpfpga_conform::diff::{eval_ftz, eval_host, eval_ieee};
use fpfpga_conform::{Case, CaseGen, Op};
use fpfpga_fpu::sim::{DelayLineUnit, DelayOp, FpPipe};
use fpfpga_softfp::{add_pairs_batch, mul_pairs_batch, Flags, FpFormat, RoundMode};
use std::hint::black_box;
use std::time::Instant;

const MODE: RoundMode = RoundMode::NearestEven;
/// The formats `matmul_sim` streams through its PEs.
const FORMATS: [FpFormat; 2] = [FpFormat::SINGLE, FpFormat::DOUBLE];
/// Elements per timed sample, whatever the batch size.
const SAMPLE_ELEMS: usize = 1 << 18;
const SAMPLES: usize = 9;

type Out = Vec<(u64, Flags)>;

/// ns per element of `call(format index, batch, out)` on `n`-element
/// batches: median over samples per format, averaged over the formats.
fn batch_ns(
    inputs: &[Vec<(u64, u64)>],
    mut call: impl FnMut(usize, &[(u64, u64)], &mut Out),
) -> f64 {
    let n = inputs[0].len();
    let reps = (SAMPLE_ELEMS / n).max(1);
    let mut out = Vec::with_capacity(n);
    let per_fmt: Vec<f64> = (0..inputs.len())
        .map(|f| {
            let samples: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..reps {
                        out.clear();
                        call(f, black_box(&inputs[f]), &mut out);
                        black_box(&out);
                    }
                    t.elapsed().as_nanos() as f64 / (reps * n) as f64
                })
                .collect();
            stats::median(&samples)
        })
        .collect();
    per_fmt.iter().sum::<f64>() / per_fmt.len() as f64
}

/// softfp and fpu batch costs; also returns the fpu add + mul ns per
/// element at the PE call shape, for the matmul arithmetic estimate.
pub fn batches(seed: u64, report: &mut Report) -> (Vec<Metric>, f64) {
    let mut rng = Rng::new(seed, 2);
    let samples = (SAMPLES * FORMATS.len()) as u64;
    let mut m = Vec::new();
    let mut fpu_arith = 0.0;
    for (n, tag) in [(32usize, "b32"), (16 * 1024, "b16k")] {
        let inputs: Vec<Vec<(u64, u64)>> = FORMATS.iter().map(|&f| rng.pairs(f, n)).collect();
        let add = batch_ns(&inputs, |f, p, o| add_pairs_batch(FORMATS[f], p, MODE, o));
        let mul = batch_ns(&inputs, |f, p, o| mul_pairs_batch(FORMATS[f], p, MODE, o));
        m.push(Metric::new(
            format!("softfp.add_ns_{tag}"),
            add,
            "ns",
            samples,
        ));
        m.push(Metric::new(
            format!("softfp.mul_ns_{tag}"),
            mul,
            "ns",
            samples,
        ));
        if n != 32 {
            continue;
        }
        // The PE's pipes: delay-line units at the matmul depths, checked
        // bit-identical to the softfp batch they wrap.
        for (op, stages, name) in [
            (DelayOp::Add, ADD_STAGES, "fpu.add_ns_b32"),
            (DelayOp::Mul, MULT_STAGES, "fpu.mul_ns_b32"),
        ] {
            let mut units: Vec<DelayLineUnit> = FORMATS
                .iter()
                .map(|&f| DelayLineUnit::new(f, MODE, op, stages))
                .collect();
            for (f, unit) in units.iter_mut().enumerate() {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                unit.run_batch_into(&inputs[f], &mut got);
                match op {
                    DelayOp::Add => add_pairs_batch(FORMATS[f], &inputs[f], MODE, &mut want),
                    _ => mul_pairs_batch(FORMATS[f], &inputs[f], MODE, &mut want),
                }
                report.check(got == want, || {
                    format!("{name}: pipeline batch differs from the softfp batch")
                });
            }
            let ns = batch_ns(&inputs, |f, p, o| units[f].run_batch_into(p, o));
            fpu_arith += ns;
            m.push(Metric::new(name, ns, "ns", samples));
        }
    }
    (m, fpu_arith)
}

/// Per-case costs of the IEEE and flush-to-zero evaluators and the host
/// oracle, over a seeded corpus of every op in both native formats.
pub fn per_case(seed: u64) -> Vec<Metric> {
    let mut cases: Vec<Case> = Vec::new();
    for (k, op) in Op::ALL.into_iter().enumerate() {
        for fmt in FORMATS {
            let mut gen = CaseGen::new(fmt, seed ^ ((k as u64) << 32) ^ fmt.total_bits() as u64);
            for _ in 0..2000 {
                let (a, b, c) = match op.arity() {
                    1 => (gen.value(), 0, 0),
                    2 => {
                        let (a, b) = gen.pair();
                        (a, b, 0)
                    }
                    _ => gen.triple(),
                };
                cases.push(Case {
                    op,
                    fmt,
                    mode: MODE,
                    a,
                    b,
                    c,
                });
            }
        }
    }
    let n = cases.len() as u64;
    vec![
        Metric::new(
            "softfp.ieee_ns_per_case",
            stats::per_call(&cases, 5, |c| {
                black_box(eval_ieee(c));
            }),
            "ns",
            n,
        ),
        Metric::new(
            "softfp.ftz_ns_per_case",
            stats::per_call(&cases, 5, |c| {
                black_box(eval_ftz(c));
            }),
            "ns",
            n,
        ),
        Metric::new(
            "conform.host_ns_per_case",
            stats::per_call(&cases, 5, |c| {
                black_box(eval_host(c));
            }),
            "ns",
            n,
        ),
    ]
}
