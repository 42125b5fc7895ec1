//! Design-space analysis: the data behind the paper's Figure 2 and
//! Tables 1-2.
//!
//! For each precision the pipeline depth is swept from 1 to the
//! datapath's maximum; three named points are extracted per sweep:
//!
//! * **min** — the least-pipelined implementation (a single output
//!   register level);
//! * **max** — the deepest implementation evaluated;
//! * **opt** — "the implementation \[that\] reaches highest freq/area
//!   ratio", the paper's recommended operating point.

use crate::cache::SweepCache;
use crate::generator::{sweep_for, UnitOp};
use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fabric::timing;
use fpfpga_softfp::FpFormat;

/// Which core a sweep describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// The adder/subtractor.
    Adder,
    /// The multiplier.
    Multiplier,
    /// The digit-recurrence divider.
    Divider,
    /// The digit-recurrence square root.
    Sqrt,
}

impl CoreKind {
    /// The generator operation this core kind sweeps.
    pub fn unit_op(self) -> UnitOp {
        match self {
            CoreKind::Adder => UnitOp::Add,
            CoreKind::Multiplier => UnitOp::Mul,
            CoreKind::Divider => UnitOp::Div,
            CoreKind::Sqrt => UnitOp::Sqrt,
        }
    }
}

/// A full pipeline-depth sweep for one core and format.
#[derive(Clone, Debug)]
pub struct CoreSweep {
    /// Which core.
    pub kind: CoreKind,
    /// Operand format.
    pub format: FpFormat,
    /// One report per depth, ascending from 1 stage.
    pub reports: Vec<ImplementationReport>,
}

/// Staged configuration for a [`CoreSweep`]: pick the core and format,
/// optionally attach a [`SweepCache`], then [`run`](CoreSweepBuilder::run).
#[derive(Clone, Copy)]
pub struct CoreSweepBuilder<'a> {
    kind: CoreKind,
    format: FpFormat,
    cache: Option<&'a SweepCache>,
}

impl<'a> CoreSweepBuilder<'a> {
    /// Memoize the depth sweep through `cache`: a warm cache returns the
    /// stored reports without re-synthesizing.
    pub fn cached<'b>(self, cache: &'b SweepCache) -> CoreSweepBuilder<'b> {
        CoreSweepBuilder {
            kind: self.kind,
            format: self.format,
            cache: Some(cache),
        }
    }

    /// Run the sweep against a technology and synthesis flow.
    pub fn run(self, tech: &Tech, opts: SynthesisOptions) -> CoreSweep {
        let reports = match self.cache {
            Some(cache) => cache
                .sweep(self.kind.unit_op(), self.format, tech, opts)
                .to_vec(),
            None => sweep_for(self.kind.unit_op(), self.format, tech, opts),
        };
        CoreSweep {
            kind: self.kind,
            format: self.format,
            reports,
        }
    }
}

impl CoreSweep {
    /// Start configuring a sweep — the unified entry point for cached
    /// and uncached construction.
    ///
    /// ```
    /// use fpfpga_fpu::analysis::{CoreKind, CoreSweep};
    /// use fpfpga_fpu::prelude::*;
    ///
    /// let tech = Tech::virtex2pro();
    /// let sweep = CoreSweep::builder(CoreKind::Divider, FpFormat::SINGLE)
    ///     .run(&tech, SynthesisOptions::SPEED);
    /// assert!(sweep.opt().clock_mhz > 100.0);
    ///
    /// // Memoized through a cache:
    /// let cache = fpfpga_fpu::cache::SweepCache::new();
    /// let warmed = CoreSweep::builder(CoreKind::Divider, FpFormat::SINGLE)
    ///     .cached(&cache)
    ///     .run(&tech, SynthesisOptions::SPEED);
    /// assert_eq!(warmed.reports, sweep.reports);
    /// ```
    pub fn builder(kind: CoreKind, format: FpFormat) -> CoreSweepBuilder<'static> {
        CoreSweepBuilder {
            kind,
            format,
            cache: None,
        }
    }

    /// Sweep an adder (shorthand for [`CoreSweep::builder`]).
    pub fn adder(format: FpFormat, tech: &Tech, opts: SynthesisOptions) -> CoreSweep {
        CoreSweep::builder(CoreKind::Adder, format).run(tech, opts)
    }

    /// Sweep a multiplier (shorthand for [`CoreSweep::builder`]).
    pub fn multiplier(format: FpFormat, tech: &Tech, opts: SynthesisOptions) -> CoreSweep {
        CoreSweep::builder(CoreKind::Multiplier, format).run(tech, opts)
    }

    /// The least-pipelined implementation.
    pub fn min(&self) -> &ImplementationReport {
        self.reports.first().expect("non-empty sweep")
    }

    /// The deepest implementation.
    pub fn max(&self) -> &ImplementationReport {
        self.reports.last().expect("non-empty sweep")
    }

    /// The highest-freq/area implementation (the paper's "opt").
    pub fn opt(&self) -> &ImplementationReport {
        timing::optimal(&self.reports)
    }

    /// The fastest implementation regardless of area.
    pub fn fastest(&self) -> &ImplementationReport {
        timing::max_frequency(&self.reports)
    }

    /// The shallowest implementation reaching at least `mhz` — used when
    /// the kernel's operating frequency, not the unit's peak, is the
    /// binding constraint (Section 4.2: "if the overall architecture's
    /// operating frequency is less than the optimal frequency for the
    /// floating-point unit then floating-point units with the best
    /// frequency/area metric considering a lower frequency have to be
    /// chosen").
    pub fn cheapest_at(&self, mhz: f64) -> Option<&ImplementationReport> {
        self.reports
            .iter()
            .filter(|r| r.clock_mhz >= mhz)
            .min_by(|a, b| a.slices.cmp(&b.slices).then(a.stages.cmp(&b.stages)))
    }

    /// (stages, MHz/slice) series — one Figure 2 curve.
    pub fn freq_area_curve(&self) -> Vec<(u32, f64)> {
        self.reports
            .iter()
            .map(|r| (r.stages, r.freq_per_area()))
            .collect()
    }
}

/// The six sweeps (2 cores × 3 precisions) the paper's evaluation rests
/// on, computed once.
#[derive(Clone, Debug)]
pub struct PrecisionAnalysis {
    /// Adder sweeps for 32-, 48- and 64-bit.
    pub adders: Vec<CoreSweep>,
    /// Multiplier sweeps for 32-, 48- and 64-bit.
    pub multipliers: Vec<CoreSweep>,
}

impl PrecisionAnalysis {
    /// Run the full analysis with the paper's default flow.
    pub fn run(tech: &Tech, opts: SynthesisOptions) -> PrecisionAnalysis {
        PrecisionAnalysis {
            adders: FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| CoreSweep::adder(f, tech, opts))
                .collect(),
            multipliers: FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| CoreSweep::multiplier(f, tech, opts))
                .collect(),
        }
    }

    /// [`PrecisionAnalysis::run`] backed by a [`SweepCache`]: re-running
    /// the analysis against a warm cache performs zero synthesis.
    pub fn run_cached(
        tech: &Tech,
        opts: SynthesisOptions,
        cache: &SweepCache,
    ) -> PrecisionAnalysis {
        PrecisionAnalysis {
            adders: FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| {
                    CoreSweep::builder(CoreKind::Adder, f)
                        .cached(cache)
                        .run(tech, opts)
                })
                .collect(),
            multipliers: FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| {
                    CoreSweep::builder(CoreKind::Multiplier, f)
                        .cached(cache)
                        .run(tech, opts)
                })
                .collect(),
        }
    }

    /// [`PrecisionAnalysis::run`] with the six independent sweeps fanned
    /// out over scoped threads. Deterministic: results are identical to
    /// the sequential run (each sweep is a pure function of its inputs).
    pub fn run_parallel(tech: &Tech, opts: SynthesisOptions) -> PrecisionAnalysis {
        std::thread::scope(|scope| {
            let adder_handles: Vec<_> = FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| scope.spawn(move || CoreSweep::adder(f, tech, opts)))
                .collect();
            let mult_handles: Vec<_> = FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| scope.spawn(move || CoreSweep::multiplier(f, tech, opts)))
                .collect();
            PrecisionAnalysis {
                adders: adder_handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep panicked"))
                    .collect(),
                multipliers: mult_handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep panicked"))
                    .collect(),
            }
        })
    }

    /// [`PrecisionAnalysis::run_parallel`] through a shared
    /// [`SweepCache`]: cold, the six sweeps synthesize concurrently and
    /// populate the cache; warm, every thread returns memoized reports.
    pub fn run_parallel_cached(
        tech: &Tech,
        opts: SynthesisOptions,
        cache: &SweepCache,
    ) -> PrecisionAnalysis {
        std::thread::scope(|scope| {
            let adder_handles: Vec<_> = FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| {
                    let cache = cache.clone();
                    scope.spawn(move || {
                        CoreSweep::builder(CoreKind::Adder, f)
                            .cached(&cache)
                            .run(tech, opts)
                    })
                })
                .collect();
            let mult_handles: Vec<_> = FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| {
                    let cache = cache.clone();
                    scope.spawn(move || {
                        CoreSweep::builder(CoreKind::Multiplier, f)
                            .cached(&cache)
                            .run(tech, opts)
                    })
                })
                .collect();
            PrecisionAnalysis {
                adders: adder_handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep panicked"))
                    .collect(),
                multipliers: mult_handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep panicked"))
                    .collect(),
            }
        })
    }

    /// The sweep for a given core kind and format.
    pub fn sweep(&self, kind: CoreKind, format: FpFormat) -> &CoreSweep {
        let list = match kind {
            CoreKind::Adder => &self.adders,
            CoreKind::Multiplier => &self.multipliers,
            other => panic!(
                "PrecisionAnalysis covers the paper's adder/multiplier study; \
                 sweep {other:?} directly via CoreSweep::builder"
            ),
        };
        list.iter()
            .find(|s| s.format == format)
            .expect("format is one of the paper precisions")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis() -> PrecisionAnalysis {
        PrecisionAnalysis::run(&Tech::virtex2pro(), SynthesisOptions::SPEED)
    }

    #[test]
    fn opt_is_interior_point() {
        // "the curves flatten out towards the end and may dip for deep
        // pipelining" — the optimum is neither min nor max.
        for sweep in analysis().adders.iter().chain(&analysis().multipliers) {
            let opt = sweep.opt();
            assert!(
                opt.stages > sweep.min().stages,
                "{:?} {:?}",
                sweep.kind,
                sweep.format
            );
            assert!(
                opt.stages < sweep.max().stages,
                "{:?} {:?}",
                sweep.kind,
                sweep.format
            );
        }
    }

    #[test]
    fn wider_formats_are_bigger_and_slower() {
        let a = analysis();
        for sweeps in [&a.adders, &a.multipliers] {
            for w in sweeps.windows(2) {
                assert!(
                    w[1].opt().slices > w[0].opt().slices,
                    "{:?}: {} vs {}",
                    w[1].kind,
                    w[1].opt().slices,
                    w[0].opt().slices
                );
                assert!(w[1].fastest().clock_mhz <= w[0].fastest().clock_mhz + 1e-9);
            }
        }
    }

    #[test]
    fn paper_headline_rates() {
        // "We achieve throughput rates of more than 240 MHz (200 MHz) for
        // single (double) precision operations by deeply pipelining."
        let a = analysis();
        assert!(
            a.sweep(CoreKind::Adder, FpFormat::SINGLE)
                .fastest()
                .clock_mhz
                > 240.0
        );
        assert!(
            a.sweep(CoreKind::Multiplier, FpFormat::SINGLE)
                .fastest()
                .clock_mhz
                > 240.0
        );
        assert!(
            a.sweep(CoreKind::Adder, FpFormat::DOUBLE)
                .fastest()
                .clock_mhz
                > 200.0
        );
        assert!(
            a.sweep(CoreKind::Multiplier, FpFormat::DOUBLE)
                .fastest()
                .clock_mhz
                > 200.0
        );
    }

    #[test]
    fn cheapest_at_prefers_fewer_slices() {
        let a = analysis();
        let sweep = a.sweep(CoreKind::Adder, FpFormat::SINGLE);
        let cheap = sweep.cheapest_at(150.0).expect("150 MHz is reachable");
        assert!(cheap.clock_mhz >= 150.0);
        assert!(cheap.slices <= sweep.fastest().slices);
        assert!(sweep.cheapest_at(10_000.0).is_none());
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let tech = Tech::virtex2pro();
        let seq = PrecisionAnalysis::run(&tech, SynthesisOptions::SPEED);
        let par = PrecisionAnalysis::run_parallel(&tech, SynthesisOptions::SPEED);
        for (a, b) in seq.adders.iter().zip(&par.adders) {
            assert_eq!(a.reports, b.reports);
        }
        for (a, b) in seq.multipliers.iter().zip(&par.multipliers) {
            assert_eq!(a.reports, b.reports);
        }
    }

    #[test]
    fn unified_constructor_matches_wrappers_and_covers_new_kinds() {
        let tech = Tech::virtex2pro();
        let opts = SynthesisOptions::SPEED;
        let via_builder = CoreSweep::builder(CoreKind::Adder, FpFormat::SINGLE).run(&tech, opts);
        let via_wrapper = CoreSweep::adder(FpFormat::SINGLE, &tech, opts);
        assert_eq!(via_builder.reports, via_wrapper.reports);
        for kind in [CoreKind::Divider, CoreKind::Sqrt] {
            let sweep = CoreSweep::builder(kind, FpFormat::SINGLE).run(&tech, opts);
            assert_eq!(sweep.kind, kind);
            assert!(!sweep.reports.is_empty());
            assert!(sweep.opt().clock_mhz > 0.0);
        }
    }

    #[test]
    fn cached_runs_are_identical_and_warm_runs_skip_synthesis() {
        let tech = Tech::virtex2pro();
        let opts = SynthesisOptions::SPEED;
        let cache = crate::cache::SweepCache::new();
        let cold = PrecisionAnalysis::run_parallel_cached(&tech, opts, &cache);
        assert_eq!(cache.misses(), 6, "2 cores x 3 precisions");
        let warm = PrecisionAnalysis::run_cached(&tech, opts, &cache);
        assert_eq!(cache.misses(), 6, "warm run must not synthesize");
        assert_eq!(cache.hits(), 6);
        let plain = PrecisionAnalysis::run(&tech, opts);
        for runs in [&cold, &warm] {
            for (a, b) in plain.adders.iter().zip(&runs.adders) {
                assert_eq!(a.reports, b.reports);
            }
            for (a, b) in plain.multipliers.iter().zip(&runs.multipliers) {
                assert_eq!(a.reports, b.reports);
            }
        }
    }

    #[test]
    fn curves_have_one_point_per_depth() {
        let a = analysis();
        for s in a.adders.iter().chain(&a.multipliers) {
            let curve = s.freq_area_curve();
            assert_eq!(curve.len(), s.reports.len());
            assert_eq!(curve[0].0, 1);
            for w in curve.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1);
            }
        }
    }
}
