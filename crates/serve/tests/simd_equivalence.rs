//! The serving layer on top of SIMD dispatch: replaying a trace through
//! a multi-worker [`ServePool`] must be bit-identical to the serial
//! oracle under every [`SimdPolicy`] — the worker threads reach the
//! `softfp::simd` engines through the coalesced eltwise batch path, and
//! no policy (scalar, auto) may change a result bit. One test function
//! owns the process-global policy.

use fpfpga_fabric::tech::Tech;
use fpfpga_serve::{
    run_serial, synth_trace, JobOutcome, JobResult, JobSpec, Priority, ServeConfig, ServePool,
    TraceConfig,
};
use fpfpga_softfp::simd::{set_simd_policy, SimdPolicy};
use proptest::prelude::*;

fn replay(config: ServeConfig, specs: &[JobSpec]) -> Vec<JobResult> {
    let pool = ServePool::new(config);
    pool.pause();
    let handles: Vec<_> = specs
        .iter()
        .map(|s| {
            let spec = JobSpec {
                priority: Priority::Normal,
                deadline: None,
                ..s.clone()
            };
            pool.submit(spec).expect("equivalence job accepted")
        })
        .collect();
    pool.resume();
    handles
        .into_iter()
        .map(|h| match h.wait() {
            JobOutcome::Completed(r) => r,
            other => panic!("equivalence job must complete, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial oracle under forced-scalar == pooled replay under every
    /// policy, including maximal coalescing (paused submission).
    #[test]
    fn pool_results_are_simd_policy_invariant(
        seed in any::<u64>(),
        jobs in 6usize..=16,
        workers in 1usize..=4,
    ) {
        let trace = synth_trace(&TraceConfig { seed, jobs, rate_hz: 1e6, ..TraceConfig::default() });
        let specs: Vec<JobSpec> = trace.into_iter().map(|ev| ev.spec).collect();
        let tech = Tech::virtex2pro();

        set_simd_policy(SimdPolicy::ForceScalar);
        let want = run_serial(&specs, &tech);

        for policy in [SimdPolicy::ForceScalar, SimdPolicy::Auto] {
            set_simd_policy(policy);
            let config = ServeConfig {
                workers,
                queue_capacity: specs.len().max(1),
                tech: tech.clone(),
                ..ServeConfig::default()
            };
            let got = replay(config, &specs);
            prop_assert_eq!(&got, &want, "seed={} workers={} {:?}", seed, workers, policy);
        }
        set_simd_policy(SimdPolicy::Auto);
    }
}
