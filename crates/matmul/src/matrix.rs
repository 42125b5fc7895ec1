//! Dense matrices of raw floating-point encodings.

use fpfpga_softfp::{FpFormat, SoftFloat};

/// A dense n×m matrix of raw encodings in one format, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    fmt: FpFormat,
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zero(fmt: FpFormat, rows: usize, cols: usize) -> Matrix {
        Matrix {
            fmt,
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(fmt: FpFormat, n: usize) -> Matrix {
        let mut m = Matrix::zero(fmt, n, n);
        let one = SoftFloat::one(fmt).bits();
        for i in 0..n {
            m.set(i, i, one);
        }
        m
    }

    /// Build from raw bit patterns already encoded in `fmt`,
    /// row-major. The lossless constructor wire decoders need: no
    /// `f64` round-trip, every payload bit preserved.
    pub fn from_bits(fmt: FpFormat, rows: usize, cols: usize, data: Vec<u64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "entry count mismatch");
        Matrix {
            fmt,
            rows,
            cols,
            data,
        }
    }

    /// Build from `f64` entries (rounded to nearest into `fmt`).
    pub fn from_f64(fmt: FpFormat, rows: usize, cols: usize, entries: &[f64]) -> Matrix {
        assert_eq!(entries.len(), rows * cols, "entry count mismatch");
        Matrix {
            fmt,
            rows,
            cols,
            data: entries
                .iter()
                .map(|&x| SoftFloat::from_f64(fmt, x).bits())
                .collect(),
        }
    }

    /// Build from a generator function over (row, col).
    pub fn from_fn(
        fmt: FpFormat,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(SoftFloat::from_f64(fmt, f(i, j)).bits());
            }
        }
        Matrix {
            fmt,
            rows,
            cols,
            data,
        }
    }

    /// Element access (raw bits).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element store (raw bits).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, bits: u64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = bits;
    }

    /// Element as `f64`.
    pub fn get_f64(&self, i: usize, j: usize) -> f64 {
        SoftFloat::from_bits(self.fmt, self.get(i, j)).to_f64()
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Format.
    pub fn format(&self) -> FpFormat {
        self.fmt
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Raw data, row-major, mutable.
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Row `i` (raw bits).
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i`, mutable (raw bits).
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Maximum absolute elementwise difference from `other`, in `f64`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                worst = worst.max((self.get_f64(i, j) - other.get_f64(i, j)).abs());
            }
        }
        worst
    }

    /// An n×n sub-block view copied out: rows `bi·b..`, cols `bj·b..`,
    /// size `b` (must divide evenly).
    pub fn block(&self, bi: usize, bj: usize, b: usize) -> Matrix {
        let mut m = Matrix::zero(self.fmt, b, b);
        for i in 0..b {
            for j in 0..b {
                m.set(i, j, self.get(bi * b + i, bj * b + j));
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::SINGLE;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_f64(F, 2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get_f64(0, 0), 1.0);
        assert_eq!(m.get_f64(1, 2), 6.0);
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(F, 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get_f64(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_indexing() {
        let m = Matrix::from_fn(F, 3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get_f64(2, 1), 21.0);
    }

    #[test]
    fn block_extraction() {
        let m = Matrix::from_fn(F, 4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1, 0, 2);
        assert_eq!(b.get_f64(0, 0), 8.0);
        assert_eq!(b.get_f64(1, 1), 13.0);
    }

    #[test]
    fn max_abs_diff_detects() {
        let a = Matrix::from_f64(F, 1, 2, &[1.0, 2.0]);
        let b = Matrix::from_f64(F, 1, 2, &[1.0, 2.5]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
