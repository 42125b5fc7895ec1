//! Percentiles from raw samples and the metric record every section
//! reports.

/// Nearest-rank percentile of an ascending slice (`q` in [0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Seconds per `build()` call: 25 samples, each the mean over `per`
/// back-to-back builds, so a set-up of tens of nanoseconds is still
/// resolved well above the clock's own cost.
pub fn setup_samples<T>(per: u32, mut build: impl FnMut() -> T) -> Vec<f64> {
    (0..25)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..per {
                std::hint::black_box(build());
            }
            t.elapsed().as_secs_f64() / per as f64
        })
        .collect()
}

/// Median ns per call of `f` over `reps` passes of `items`.
pub fn per_call<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            for it in items {
                f(std::hint::black_box(it));
            }
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// One named measurement with its unit and the number of raw samples
/// it was computed from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// p50 and p99 metrics, named `{stem}_p50{suffix}` and
/// `{stem}_p99{suffix}`, from raw per-request samples in ns, reported
/// in ns or µs; each carries the sample count.
pub fn p50_p99(stem: &str, suffix: &str, unit: &'static str, samples_ns: &[u64]) -> [Metric; 2] {
    let scale = match unit {
        "us" => 1e3,
        "ns" => 1.0,
        other => panic!("no latency scale for unit {other}"),
    };
    let v = sorted(samples_ns.iter().map(|&ns| ns as f64 / scale).collect());
    let n = v.len() as u64;
    [
        Metric::new(format!("{stem}_p50{suffix}"), percentile(&v, 0.50), unit, n),
        Metric::new(format!("{stem}_p99{suffix}"), percentile(&v, 0.99), unit, n),
    ]
}

/// [`p50_p99`] per group (a trace replay, a run segment), then the
/// median of each across groups: a host stall that lasts part of a run
/// moves a minority of groups, not the reported figure. Groups with
/// fewer than `min` samples (a partial last replay) are left out; the
/// sample count is the total kept.
pub fn grouped_p50_p99(
    stem: &str,
    suffix: &str,
    unit: &'static str,
    groups: &[Vec<u64>],
    min: usize,
) -> [Metric; 2] {
    let kept: Vec<&Vec<u64>> = groups.iter().filter(|g| g.len() >= min.max(1)).collect();
    let n: u64 = kept.iter().map(|g| g.len() as u64).sum();
    let per: Vec<[Metric; 2]> = kept
        .iter()
        .map(|g| p50_p99(stem, suffix, unit, g))
        .collect();
    let pick = |k: usize| median(&per.iter().map(|p| p[k].value).collect::<Vec<_>>());
    [
        Metric::new(format!("{stem}_p50{suffix}"), pick(0), unit, n),
        Metric::new(format!("{stem}_p99{suffix}"), pick(1), unit, n),
    ]
}
