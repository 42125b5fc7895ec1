//! Seeded input generation. Every input the benchmark feeds the
//! program is drawn from one of these streams, so `--seed` names the
//! inputs exactly.

use fpfpga_matmul::Matrix;
use fpfpga_softfp::{FpFormat, SoftFloat};

/// splitmix64: small, fast, and good enough for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so two inputs
    /// drawn from one seed do not share values.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A finite, normal operand in `fmt` with magnitude in [2⁻⁴, 8):
    /// products and sums of these stay far from overflow and underflow,
    /// so no benchmark operation fails on its inputs.
    pub fn finite(&mut self, fmt: FpFormat) -> u64 {
        let mag = 2f64.powf(self.unit() * 7.0 - 4.0);
        let v = if self.next_u64() & 1 == 1 { -mag } else { mag };
        SoftFloat::from_f64(fmt, v).bits()
    }

    pub fn matrix(&mut self, fmt: FpFormat, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols).map(|_| self.finite(fmt)).collect();
        Matrix::from_bits(fmt, rows, cols, data)
    }

    pub fn pairs(&mut self, fmt: FpFormat, n: usize) -> Vec<(u64, u64)> {
        (0..n)
            .map(|_| (self.finite(fmt), self.finite(fmt)))
            .collect()
    }
}
