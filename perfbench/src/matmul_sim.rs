//! `matmul_sim`: `MultiMatMul::run` on three seeded problems, each at
//! threads = 1 and threads = 2, plus the traced tile-loop replay that
//! splits its time into fetch / load-B / stream / drain / assemble.

use crate::calib::HostSpeed;
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{self, Metric};
use fpfpga_matmul::array::ArrayStats;
use fpfpga_matmul::pe::UnitBackend;
use fpfpga_matmul::reference::reference_matmul_flags;
use fpfpga_matmul::{LinearArray, Matrix, MatrixTiles, MultiMatMul, MultiStats, TileSource};
use fpfpga_softfp::{Flags, FpFormat, RoundMode};
use std::time::{Duration, Instant};

pub const MULT_STAGES: u32 = 4;
pub const ADD_STAGES: u32 = 5;
const MODE: RoundMode = RoundMode::NearestEven;

struct Problem {
    fmt: FpFormat,
    m: u32,
    k: u32,
    n: u32,
    b: u32,
    arrays: u32,
}

/// Two full 256³ problems (f32 and f64) and a ragged one whose edge
/// tiles put zero padding on the path.
const PROBLEMS: [Problem; 3] = [
    Problem {
        fmt: FpFormat::SINGLE,
        m: 256,
        k: 256,
        n: 256,
        b: 32,
        arrays: 8,
    },
    Problem {
        fmt: FpFormat::DOUBLE,
        m: 256,
        k: 256,
        n: 256,
        b: 32,
        arrays: 8,
    },
    Problem {
        fmt: FpFormat::SINGLE,
        m: 200,
        k: 136,
        n: 168,
        b: 16,
        arrays: 4,
    },
];

pub struct Instance {
    pub mm: MultiMatMul,
    pub a: Matrix,
    pub b: Matrix,
}

impl Instance {
    pub fn run(&self, threads: usize) -> (Matrix, MultiStats) {
        self.mm
            .run(
                MODE,
                MULT_STAGES,
                ADD_STAGES,
                &self.a,
                &self.b,
                UnitBackend::Fast,
                threads,
            )
            .expect("operands were generated for this plan")
    }

    pub fn useful_macs(&self) -> u64 {
        self.mm.plan.useful_macs()
    }
}

fn plans() -> Vec<MultiMatMul> {
    PROBLEMS
        .iter()
        .map(|p| {
            MultiMatMul::new(p.m, p.k, p.n, p.b, MULT_STAGES + ADD_STAGES, p.arrays)
                .expect("benchmark problems are valid plans")
        })
        .collect()
}

/// The plans with each array's tile assignment, everything a run
/// derives before its first PE step.
fn schedules() -> Vec<Vec<Vec<(usize, usize)>>> {
    plans()
        .iter()
        .map(|mm| (0..mm.arrays).map(|r| mm.tiles_of(r)).collect())
        .collect()
}

/// Set-up is planning (plans plus per-array tile schedules), timed by
/// [`stats::setup_samples`]. Operand generation is the benchmark's own
/// and not timed.
pub fn instances(seed: u64) -> (Vec<Instance>, Vec<f64>) {
    let setups = stats::setup_samples(50, schedules);
    let mut rng = Rng::new(seed, 1);
    let insts = plans()
        .into_iter()
        .zip(&PROBLEMS)
        .map(|(mm, p)| Instance {
            mm,
            a: rng.matrix(p.fmt, p.m as usize, p.k as usize),
            b: rng.matrix(p.fmt, p.k as usize, p.n as usize),
        })
        .collect();
    (insts, setups)
}

/// Everything of a run that must not depend on the thread count.
fn same_run(x: &(Matrix, MultiStats), y: &(Matrix, MultiStats)) -> bool {
    x.0 == y.0
        && x.1.per_array == y.1.per_array
        && x.1.total == y.1.total
        && x.1.flags == y.1.flags
        && x.1.tile_fetches == y.1.tile_fetches
}

/// The expected result of each problem: the 1-thread run, checked
/// against the sequential reference (values and flags) and against the
/// 2-thread run (values, flags, per-array stats, fetch count).
fn expected(insts: &[Instance], report: &mut Report) -> Vec<(Matrix, MultiStats)> {
    insts
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let one = inst.run(1);
            let (c_ref, f_ref) = reference_matmul_flags(&inst.a, &inst.b, MODE);
            report.check(one.0 == c_ref && one.1.flags == f_ref, || {
                format!("matmul problem {i}: 1-thread run differs from reference_matmul_flags")
            });
            report.check(same_run(&one, &inst.run(2)), || {
                format!("matmul problem {i}: 2-thread run differs from the 1-thread run")
            });
            one
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (insts, setups) = instances(seed);
    let want = expected(&insts, report);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    // [threads - 1][problem] → every timed call, raw and in reference-host
    // seconds (each call scaled by the host probe taken just before it).
    let mut raw = [vec![Vec::new(); insts.len()], vec![Vec::new(); insts.len()]];
    let mut refd = raw.clone();
    let mut lat2 = Vec::new();
    let mut host = HostSpeed::default();
    while lat2.is_empty() || Instant::now() < until {
        for (i, inst) in insts.iter().enumerate() {
            for threads in [1, 2] {
                let k = host.sample();
                let t = Instant::now();
                let got = inst.run(threads);
                let dt = t.elapsed().as_secs_f64();
                report.attempted += 1;
                report.check(same_run(&got, &want[i]), || {
                    format!("matmul problem {i} at {threads} threads: result changed between runs")
                });
                raw[threads - 1][i].push(dt);
                refd[threads - 1][i].push(dt * k);
                if threads == 2 {
                    lat2.push((dt * k * 1e9) as u64);
                }
            }
        }
    }
    // Simulated MACs per second of a pass at each problem's median call
    // time: robust to the odd call a neighbour on the host slows.
    let macs: u64 = insts.iter().map(Instance::useful_macs).sum();
    let rate = |per_problem: &[Vec<f64>]| {
        macs as f64 / per_problem.iter().map(|v| stats::median(v)).sum::<f64>()
    };
    let runs = lat2.len() as u64;
    report.metric(Metric::new("throughput_per_s", rate(&refd[0]), "1/s", runs));
    let [p50, p99] = stats::p50_p99("latency", "_us", "us", &lat2);
    report.metric(p50);
    report.info(p99);
    report.metric(Metric::new(
        "setup_s",
        stats::median(&setups),
        "s",
        setups.len() as u64,
    ));
    report.info(Metric::new(
        "host.probe_scale",
        host.scale(),
        "frac",
        host.samples(),
    ));
    report.info(Metric::new(
        "sim_macs_per_s_2t",
        rate(&refd[1]),
        "1/s",
        runs,
    ));
    report.info(Metric::new(
        "sim_macs_per_s.raw",
        rate(&raw[0]),
        "1/s",
        runs,
    ));
    report.info(Metric::new(
        "sim_macs_per_s_2t.raw",
        rate(&raw[1]),
        "1/s",
        runs,
    ));
}

/// What one replay of a plan produced, in `MultiStats` terms.
struct Replay {
    c: Matrix,
    per_array: Vec<ArrayStats>,
    flags: Flags,
    fetches: u64,
}

/// `MultiMatMul::run_streamed`'s tile loop at one thread, through the
/// public `TileSource` / `LinearArray` calls, with a span around each.
fn replay(inst: &Instance, sp: &mut Spans, req: u64) -> Replay {
    let (mm, plan) = (&inst.mm, inst.mm.plan);
    let fmt = inst.a.format();
    let bs = plan.b as usize;
    let (src_a, src_b) = (MatrixTiles(&inst.a), MatrixTiles(&inst.b));
    let mut out = Replay {
        c: Matrix::zero(fmt, plan.m as usize, plan.n as usize),
        per_array: Vec::new(),
        flags: Flags::NONE,
        fetches: 0,
    };
    let root = sp.open("matmul.run", 0, req);
    let mut a_buf = Matrix::zero(fmt, bs, bs);
    let mut b_buf = Matrix::zero(fmt, bs, bs);
    for r in 0..mm.arrays {
        let mut stats = ArrayStats::default();
        for (ti, tj) in mm.tiles_of(r) {
            let tile = sp.open("matmul.tile", root, req);
            let (rows, cols) = (plan.tile_rows(ti), plan.tile_cols(tj));
            let mut arr = LinearArray::new(
                fmt,
                MODE,
                MULT_STAGES,
                ADD_STAGES,
                cols,
                bs,
                UnitBackend::Fast,
            );
            for bk in 0..plan.tiles_k() as usize {
                let t = sp.start();
                src_a.read_tile(ti, bk, bs, &mut a_buf);
                sp.end(t, "matmul.fetch", tile, req);
                let t = sp.start();
                src_b.read_tile(bk, tj, bs, &mut b_buf);
                sp.end(t, "matmul.fetch", tile, req);
                out.fetches += 2;
                let bank = bk % 2 == 1;
                let t = sp.start();
                arr.load_b_tile(bank, &b_buf, cols);
                sp.end(t, "matmul.load_b", tile, req);
                let t = sp.start();
                arr.stream_a_tile_batched(&a_buf, rows, plan.tile_steps(bk), bank);
                sp.end(t, "matmul.stream", tile, req);
            }
            let t = sp.start();
            arr.drain_batched();
            sp.end(t, "matmul.drain", tile, req);
            let t = sp.start();
            let c_blk = arr.read_c();
            for i in 0..rows {
                for j in 0..cols {
                    out.c.set(ti * bs + i, tj * bs + j, c_blk.get(i, j));
                }
            }
            sp.end(t, "matmul.assemble", tile, req);
            stats.merge(arr.stats());
            out.flags |= arr.flags();
            sp.close(tile);
        }
        out.per_array.push(stats);
    }
    sp.close(root);
    out
}

/// The traced matmul layer: replay every problem, check the replay is
/// bit-identical to `MultiMatMul::run` (C, flags, per-array stats,
/// fetches), and split its time by layer call. `arith_ns_per_mac` is
/// the `fpu` add + mul cost per element at the PE call shape. With
/// `overhead` the untraced replay is timed too, for the workload's
/// tracing overhead.
pub fn layer(
    seed: u64,
    arith_ns_per_mac: f64,
    overhead: bool,
    sp: &mut Spans,
    report: &mut Report,
) -> Vec<Metric> {
    let (insts, _) = instances(seed);
    let (mut macs, mut pad_macs, mut cycles, mut fetches, mut tiles, mut blocks) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut run1_ns, mut run2_ns, mut traced_ns, mut untraced_ns) = (0u64, 0u64, 0u64, 0u64);
    for (i, inst) in insts.iter().enumerate() {
        let timed = |threads: usize, ns: &mut u64| {
            let t = Instant::now();
            let r = inst.run(threads);
            *ns += t.elapsed().as_nanos() as u64;
            r
        };
        // Two interleaved rounds per thread count damp a neighbour's
        // burst on the shared host.
        let one = timed(1, &mut run1_ns);
        let two = timed(2, &mut run2_ns);
        let two_again = timed(2, &mut run2_ns);
        let one_again = timed(1, &mut run1_ns);
        report.check(
            [&two, &two_again, &one_again]
                .iter()
                .all(|r| same_run(&one, r)),
            || format!("matmul problem {i}: traced-run results differ across thread counts"),
        );
        let t = Instant::now();
        let got = replay(inst, sp, i as u64);
        traced_ns += t.elapsed().as_nanos() as u64;
        report.check(
            got.c == one.0
                && got.flags == one.1.flags
                && got.per_array == one.1.per_array
                && got.fetches == one.1.tile_fetches,
            || {
                format!(
                    "matmul problem {i}: traced replay is not bit-identical to MultiMatMul::run"
                )
            },
        );
        if overhead {
            let mut off = Spans::off();
            let t = Instant::now();
            std::hint::black_box(replay(inst, &mut off, i as u64));
            untraced_ns += t.elapsed().as_nanos() as u64;
        }
        report.attempted += 1;
        let plan = inst.mm.plan;
        macs += one.1.total.useful_macs;
        pad_macs += one.1.total.pad_macs;
        cycles += one.1.total.cycles;
        fetches += one.1.tile_fetches;
        tiles += plan.output_tiles();
        blocks += plan.block_products();
    }
    let per = |name: &str, div: u64| {
        let (_, ns) = sp.total(name);
        ns as f64 / div as f64
    };
    let (_, stream_ns) = sp.total("matmul.stream");
    let n = insts.len() as u64;
    let mut m = vec![
        Metric::new(
            "matmul.fetch_ns_per_tile",
            per("matmul.fetch", fetches),
            "ns",
            fetches,
        ),
        Metric::new(
            "matmul.load_b_ns_per_tile",
            per("matmul.load_b", blocks),
            "ns",
            blocks,
        ),
        Metric::new(
            "matmul.stream_ns_per_mac",
            per("matmul.stream", macs),
            "ns",
            blocks,
        ),
        Metric::new(
            "matmul.drain_ns_per_tile",
            per("matmul.drain", tiles),
            "ns",
            tiles,
        ),
        Metric::new(
            "matmul.assemble_ns_per_tile",
            per("matmul.assemble", tiles),
            "ns",
            tiles,
        ),
        Metric::new(
            "matmul.run_ns_per_mac",
            run1_ns as f64 / (2 * macs) as f64,
            "ns",
            2 * n,
        ),
        Metric::new(
            "matmul.arith_share_est",
            macs as f64 * arith_ns_per_mac / stream_ns as f64,
            "frac",
            blocks,
        ),
        Metric::new(
            "matmul.thread_eff",
            run1_ns as f64 / run2_ns as f64 / 2.0,
            "frac",
            2 * n,
        ),
        Metric::new("matmul.useful_macs", macs as f64, "count", n),
        Metric::new("matmul.pad_macs", pad_macs as f64, "count", n),
        Metric::new(
            "matmul.pad_frac",
            pad_macs as f64 / (macs + pad_macs) as f64,
            "frac",
            n,
        ),
        Metric::new("matmul.sim_cycles", cycles as f64, "count", n),
        Metric::new("matmul.tile_fetches", fetches as f64, "count", n),
    ];
    if overhead {
        m.push(Metric::new(
            "trace_overhead_frac",
            traced_ns as f64 / untraced_ns as f64 - 1.0,
            "frac",
            n,
        ));
    }
    m
}
