//! `bench_pr5` — one-shot performance snapshot of the fast-lane work:
//! softfp batch kernel throughput, batched matmul GFLOP-equivalents at
//! 1 and 4 worker threads, and serving p50/p99 latency. Writes the
//! numbers as `BENCH_PR5.json` at the repository root (and echoes them
//! to stdout) so EXPERIMENTS.md has a machine-readable source.
//!
//! ```text
//! cargo run --release -p fpfpga-bench --bin bench_pr5
//! ```

use fpfpga::matmul::array::ArrayStats;
use fpfpga::prelude::*;
use fpfpga::softfp::{self, fastpath};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

const MODE: RoundMode = RoundMode::NearestEven;

fn operands(fmt: FpFormat, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) & fmt.enc_mask()
        })
        .collect()
}

fn best_of<F: FnMut() -> u64>(runs: usize, mut f: F) -> f64 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best-of timing for two contenders with the rounds interleaved
/// (a, b, a, b, …) rather than two back-to-back windows. On a shared
/// box a congestion burst then lands on both sides instead of poisoning
/// whichever side happened to own the window, which is what the
/// speedup *ratios* reported below actually need.
fn paired_best_of<A, B>(rounds: usize, mut a: A, mut b: B) -> (f64, f64)
where
    A: FnMut() -> u64,
    B: FnMut() -> u64,
{
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(a());
        ta = ta.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(b());
        tb = tb.min(t.elapsed().as_secs_f64());
    }
    (ta, tb)
}

/// Batch kernel + generic scalar throughput for one format, in Mop/s.
fn softfp_section(fmt: FpFormat, name: &str) -> Value {
    // 16k elements keeps the whole batch (two operand slices + the
    // 16-byte-per-element result buffer) inside L2, so the comparison
    // measures the kernels rather than the memory system.
    const N: usize = 1 << 14;
    let a = operands(fmt, N, 0x5eed ^ fmt.total_bits() as u64);
    let b = operands(fmt, N, 0xcafe ^ fmt.total_bits() as u64);
    let c = operands(fmt, N, 0xf00d ^ fmt.total_bits() as u64);
    let pairs: Vec<(u64, u64)> = a.iter().copied().zip(b.iter().copied()).collect();
    let triples: Vec<(u64, u64, u64)> = pairs
        .iter()
        .zip(&c)
        .map(|(&(x, y), &z)| (x, y, z))
        .collect();
    let mut out: Vec<(u64, Flags)> = Vec::with_capacity(N);
    let mops = |secs: f64| N as f64 / secs / 1e6;

    let (t_add_scalar, t_add_batch) = paired_best_of(
        7,
        || {
            let mut acc = 0u64;
            for i in 0..N {
                acc ^= softfp::add_bits(fmt, a[i], b[i], MODE).0;
            }
            acc
        },
        || {
            out.clear();
            fastpath::add_pairs_batch(fmt, &pairs, MODE, &mut out);
            out.len() as u64
        },
    );
    let (t_mul_scalar, t_mul_batch) = paired_best_of(
        7,
        || {
            let mut acc = 0u64;
            for i in 0..N {
                acc ^= softfp::mul_bits(fmt, a[i], b[i], MODE).0;
            }
            acc
        },
        || {
            out.clear();
            fastpath::mul_pairs_batch(fmt, &pairs, MODE, &mut out);
            out.len() as u64
        },
    );
    let t_fma_batch = best_of(5, || {
        out.clear();
        fastpath::fma_triples_batch(fmt, &triples, MODE, &mut out);
        out.len() as u64
    });

    println!(
        "softfp {name}: add {:.1} -> {:.1} Mop/s ({:.2}x), mul {:.1} -> {:.1} Mop/s ({:.2}x), \
         fma batch {:.1} Mop/s",
        mops(t_add_scalar),
        mops(t_add_batch),
        t_add_scalar / t_add_batch,
        mops(t_mul_scalar),
        mops(t_mul_batch),
        t_mul_scalar / t_mul_batch,
        mops(t_fma_batch),
    );
    json!({
        "format": name,
        "elements": N,
        "add_generic_scalar_mops": mops(t_add_scalar),
        "add_fastpath_batch_mops": mops(t_add_batch),
        "add_speedup": t_add_scalar / t_add_batch,
        "mul_generic_scalar_mops": mops(t_mul_scalar),
        "mul_fastpath_batch_mops": mops(t_mul_batch),
        "mul_speedup": t_mul_scalar / t_mul_batch,
        "fma_fastpath_batch_mops": mops(t_fma_batch),
    })
}

/// Batched matmul wall clock and GFLOP-equivalents at several worker
/// counts (2·n³ flop-equivalents per product).
fn matmul_section() -> Value {
    const N: usize = 96;
    let f = FpFormat::SINGLE;
    let a = Matrix::from_fn(f, N, N, |i, j| {
        ((i * N + j) as f64 * 0.37 + 1.0).sin() * 4.0
    });
    let b = Matrix::from_fn(f, N, N, |i, j| {
        ((i * N + j) as f64 * 0.37 + 2.0).sin() * 4.0
    });
    let flops = 2.0 * (N as f64).powi(3);

    let (c_seq, _): (Matrix, ArrayStats) =
        LinearArray::multiply_batched(f, MODE, 4, 5, &a, &b, UnitBackend::Fast);
    let mut rows = Vec::new();
    let mut secs_by_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let (c_par, _) = LinearArray::multiply_batched_parallel(
            f,
            MODE,
            4,
            5,
            &a,
            &b,
            UnitBackend::Fast,
            threads,
        );
        assert_eq!(c_par, c_seq, "{threads}-thread matmul diverged");
        let secs = best_of(3, || {
            LinearArray::multiply_batched_parallel(
                f,
                MODE,
                4,
                5,
                &a,
                &b,
                UnitBackend::Fast,
                threads,
            )
            .1
            .cycles
        });
        println!(
            "matmul n={N} threads={threads}: {:.1} ms, {:.3} GFLOP-equivalent/s",
            secs * 1e3,
            flops / secs / 1e9
        );
        secs_by_threads.push((threads, secs));
        rows.push(json!({
            "threads": threads,
            "seconds": secs,
            "gflop_equivalent_per_s": flops / secs / 1e9,
        }));
    }
    let t1 = secs_by_threads[0].1;
    let t4 = secs_by_threads.last().unwrap().1;
    json!({
        "n": N,
        "mult_stages": 4,
        "add_stages": 5,
        "flop_equivalents": flops,
        "runs": Value::Array(rows),
        "speedup_4_threads": t1 / t4,
    })
}

/// Serving latency percentiles from one mixed-trace replay.
fn serve_section() -> Value {
    let specs: Vec<JobSpec> = synth_trace(&TraceConfig {
        seed: 40,
        jobs: 96,
        rate_hz: 1e6,
        payload_scale: 6,
    })
    .into_iter()
    .map(|ev| ev.spec)
    .collect();
    let pool = ServePool::new(ServeConfig {
        workers: 4,
        queue_capacity: specs.len(),
        tech: Tech::virtex2pro(),
        ..ServeConfig::default()
    });
    let t = Instant::now();
    let handles: Vec<JobHandle> = specs
        .iter()
        .map(|s| pool.submit(s.clone()).expect("bench job accepted"))
        .collect();
    for h in handles {
        match h.wait() {
            JobOutcome::Completed(_) => {}
            other => panic!("bench job must complete: {other:?}"),
        }
    }
    let wall = t.elapsed().as_secs_f64();
    let snap = pool.join();
    let p50 = snap.latency_quantile_us(0.50);
    let p99 = snap.latency_quantile_us(0.99);
    println!(
        "serve: {} jobs, wall {:.1} ms, p50 {:?} us, p99 {:?} us",
        specs.len(),
        wall * 1e3,
        p50,
        p99
    );
    json!({
        "jobs": specs.len(),
        "workers": 4,
        "wall_seconds": wall,
        "p50_us": p50,
        "p99_us": p99,
    })
}

fn main() {
    let doc = json!({
        "bench": "pr5_fastpath",
        "softfp_batch": Value::Array(vec![
            softfp_section(FpFormat::SINGLE, "f32"),
            softfp_section(FpFormat::FP48, "f48"),
            softfp_section(FpFormat::DOUBLE, "f64"),
        ]),
        "matmul_batched": matmul_section(),
        "serve": serve_section(),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR5.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_PR5.json");
    println!("wrote {path}");
}
