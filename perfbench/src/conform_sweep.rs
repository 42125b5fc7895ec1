//! `conform_sweep`: the IEEE, flush-to-zero and staged-`fpu`
//! conformance sweeps over every op and f32/f48/f64 at a fixed sample
//! count, one thread. Each (sweep, op, format) call is one request.

use crate::calib::HostSpeed;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, Metric};
use fpfpga_conform::{run_fpu_sweep, run_ftz_sweep, run_ieee_sweep, Op, SweepConfig, SweepReport};
use fpfpga_softfp::FpFormat;
use std::time::{Duration, Instant};

pub const SAMPLES: u64 = 20_000;

#[derive(Clone, Copy)]
enum Sweep {
    Ieee,
    Ftz,
    Fpu,
}

impl Sweep {
    fn span(self) -> &'static str {
        match self {
            Sweep::Ieee => "conform.ieee",
            Sweep::Ftz => "conform.ftz",
            Sweep::Fpu => "conform.fpu",
        }
    }

    fn run(self, cfg: &SweepConfig) -> SweepReport {
        match self {
            Sweep::Ieee => run_ieee_sweep(cfg),
            Sweep::Ftz => run_ftz_sweep(cfg),
            Sweep::Fpu => run_fpu_sweep(cfg),
        }
    }
}

const PIPELINE_OPS: [Op; 5] = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Sqrt];

/// Every call of one pass. The host sweeps cover the native formats;
/// the `fpu` sweep covers its pipeline ops in all three formats.
fn calls(seed: u64) -> Vec<(Sweep, SweepConfig)> {
    let cfg = |op: Op, fmt: FpFormat| SweepConfig {
        ops: vec![op],
        formats: vec![fmt],
        samples: SAMPLES,
        seed,
        max_divergences: 8,
        threads: 1,
    };
    let native = [FpFormat::SINGLE, FpFormat::DOUBLE];
    let mut out = Vec::new();
    for sweep in [Sweep::Ieee, Sweep::Ftz] {
        for op in Op::ALL {
            out.extend(native.iter().map(|&f| (sweep, cfg(op, f))));
        }
    }
    for op in PIPELINE_OPS {
        out.extend(
            FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| (Sweep::Fpu, cfg(op, f))),
        );
    }
    out
}

/// Set-up is building the pass's sweep configurations, timed by
/// [`stats::setup_samples`].
fn setup(seed: u64) -> (Vec<(Sweep, SweepConfig)>, Vec<f64>) {
    (calls(seed), stats::setup_samples(1000, || calls(seed)))
}

struct Pass {
    cases: u64,
    secs: f64,
    call_ns: Vec<u64>,
}

fn pass(calls: &[(Sweep, SweepConfig)], sp: &mut Spans, report: &mut Report) -> Pass {
    let mut p = Pass {
        cases: 0,
        secs: 0.0,
        call_ns: Vec::with_capacity(calls.len()),
    };
    for (i, (sweep, cfg)) in calls.iter().enumerate() {
        let t = Instant::now();
        let r = sweep.run(cfg);
        let end = Instant::now();
        sp.push(sweep.span(), t, end, 0, i as u64);
        p.secs += (end - t).as_secs_f64();
        p.call_ns.push((end - t).as_nanos() as u64);
        p.cases += r.total_cases();
        report.attempted += r.total_cases();
        let div = r.total_divergences();
        if div > 0 {
            report.failed += div;
            for d in r.examples().take(3) {
                report.errors.push(format!("conform divergence: {d:?}"));
            }
        }
    }
    p
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (calls, setups) = setup(seed);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut off = Spans::off();
    let mut host = HostSpeed::default();
    // Every pass does identical work and is one sample, in
    // reference-host time by the probe taken just before it.
    let (mut cases, mut secs, mut rates, mut lat) = (0u64, 0f64, Vec::new(), Vec::new());
    while lat.is_empty() || Instant::now() < until {
        let k = host.sample();
        let p = pass(&calls, &mut off, report);
        cases += p.cases;
        secs += p.secs;
        rates.push(p.cases as f64 / (p.secs * k));
        lat.push(
            p.call_ns
                .iter()
                .map(|&ns| (ns as f64 * k) as u64)
                .collect::<Vec<_>>(),
        );
    }
    let passes = lat.len() as u64;
    report.metric(Metric::new(
        "throughput_per_s",
        stats::median(&rates),
        "1/s",
        passes,
    ));
    let [p50, p99] = stats::grouped_p50_p99("latency", "_us", "us", &lat, 1);
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
        "cases_per_s.raw",
        cases as f64 / secs,
        "1/s",
        passes,
    ));
}

/// The traced conform layer: one pass with a span per call, split by
/// sweep. With `overhead` an untraced pass is timed too.
pub fn layer(seed: u64, overhead: bool, sp: &mut Spans, report: &mut Report) -> Vec<Metric> {
    let calls = calls(seed);
    let before = report.failed;
    let traced = pass(&calls, sp, report);
    let secs = |name: &str| sp.total(name).1 as f64 / 1e9;
    let n = calls.len() as u64;
    let mut m = vec![
        Metric::new("conform.ieee_s", secs("conform.ieee"), "s", n),
        Metric::new("conform.ftz_s", secs("conform.ftz"), "s", n),
        Metric::new("conform.fpu_s", secs("conform.fpu"), "s", n),
        Metric::new("conform.cases", traced.cases as f64, "count", n),
        Metric::new(
            "conform.divergences",
            (report.failed - before) as f64,
            "count",
            traced.cases,
        ),
    ];
    if overhead {
        let plain = pass(&calls, &mut Spans::off(), report);
        m.push(Metric::new(
            "trace_overhead_frac",
            traced.secs / plain.secs - 1.0,
            "frac",
            2 * n,
        ));
    }
    m
}
