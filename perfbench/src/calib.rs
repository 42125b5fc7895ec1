//! Host-speed calibration.
//!
//! On a shared host the same binary runs 10–40% faster or slower from
//! one minute to the next (a 2-vCPU container next to other tenants:
//! the identical conformance pass took 0.59–0.96 s within one run).
//! Medians cannot remove a slowdown that lasts longer than a run, so
//! every end-to-end timing is also reported in *reference-host* units:
//! the raw time multiplied by `PROBE_REF_NS / probe`, where `probe` is
//! the median time of a fixed integer kernel owned by this benchmark,
//! run at quiet points of the same run. The kernel shares no code with
//! the program, so a change to the program cannot move it; a host that
//! is 20% slow runs it 20% slower and its figures are scaled back.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the host the benchmark was defined on. Frozen:
/// changing it rescales every reported end-to-end timing.
const PROBE_REF_NS: f64 = 1.5e6;

const PROBE_ITERS: u64 = 180_000;

/// One run of the probe kernel: xorshift draws updating an L1-resident
/// table with data-dependent indices and branches, the instruction mix
/// of the soft-float kernels without any of their code.
fn probe_ns() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x1234_5678_9abc_def0u64);
    let mut tab = [0u64; 2048];
    for k in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 2047) as usize;
        tab[j] = tab[j].wrapping_mul(x | 1).wrapping_add(k);
        if tab[j] & 1 == 0 {
            x = x.rotate_left(3);
        }
    }
    black_box(&tab);
    t.elapsed().as_nanos() as f64
}

/// Probe times collected over a run.
#[derive(Default)]
pub struct HostSpeed {
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Probe now; call only where the benchmark's own threads are idle.
    /// Returns this probe's own factor, for timings taken right after.
    pub fn sample(&mut self) -> f64 {
        let ns = probe_ns();
        self.probes.push(ns);
        PROBE_REF_NS / ns
    }

    /// Factor turning this run's raw seconds into reference-host
    /// seconds (< 1 on a host slower than the reference).
    pub fn scale(&self) -> f64 {
        PROBE_REF_NS / stats::median(&self.probes)
    }

    pub fn samples(&self) -> u64 {
        self.probes.len() as u64
    }
}
