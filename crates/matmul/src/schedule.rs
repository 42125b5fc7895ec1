//! Scheduling: the control token and cycle accounting.
//!
//! The inner loop visits the n rows of a rank-1 update; a given `c[i][j]`
//! is touched once per inner period. To keep the accumulation
//! read-after-write hazard-free, the period must be at least the
//! combined multiplier + adder latency PL, so for `n < PL` the period is
//! padded with zero-operations to PL — the wasteful cycles the energy
//! study of Section 5 quantifies.

/// One control token travelling down the array with its `A` element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// The `A` element (raw bits); zero for padding tokens.
    pub a: u64,
    /// Row index `i` (valid when `pad` is false).
    pub i: u32,
    /// Rank-1 step `k`.
    pub k: u32,
    /// True for a zero-padding slot.
    pub pad: bool,
    /// `B`-buffer bank select: the PEs double-buffer their `B` columns
    /// so the next block's `B` can be loaded while tokens of the
    /// previous block are still in flight (the double buffering of \[5\]).
    pub bank: bool,
}

/// The schedule of one n×n multiplication on an n-PE array with
/// combined MAC latency `pl`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Problem (and array) size n.
    pub n: u32,
    /// Combined multiplier + adder pipeline latency.
    pub pl: u32,
}

impl Schedule {
    /// Create a schedule. Panics on zero parameters — use
    /// [`Schedule::try_new`] where the inputs are not already validated
    /// (the serving layer goes through a checked
    /// [`BlockMatMul`](crate::block::BlockMatMul) plan).
    pub fn new(n: u32, pl: u32) -> Schedule {
        Schedule::try_new(n, pl).expect("invalid schedule parameters")
    }

    /// Checked constructor: zero `n` or `pl` is a typed
    /// [`PlanError`](crate::block::PlanError), not a panic.
    pub fn try_new(n: u32, pl: u32) -> Result<Schedule, crate::block::PlanError> {
        if n == 0 {
            return Err(crate::block::PlanError::ZeroDim("n"));
        }
        if pl == 0 {
            return Err(crate::block::PlanError::ZeroLatency);
        }
        Ok(Schedule { n, pl })
    }

    /// The padded inner period: `max(n, PL)` — "for smaller problem
    /// sizes, zero padding has to be used, to satisfy the latency
    /// constraint".
    pub fn padded_period(&self) -> u32 {
        self.n.max(self.pl)
    }

    /// Tokens issued per rank-1 step (including padding slots).
    pub fn tokens_per_step(&self) -> u64 {
        self.padded_period() as u64
    }

    /// Total issue cycles for the full multiplication (n steps).
    pub fn issue_cycles(&self) -> u64 {
        self.n as u64 * self.tokens_per_step()
    }

    /// Zero-padding cycles among them (pure waste).
    pub fn pad_cycles(&self) -> u64 {
        (self.padded_period() - self.n) as u64 * self.n as u64
    }

    /// Useful MAC issue cycles.
    pub fn useful_cycles(&self) -> u64 {
        self.issue_cycles() - self.pad_cycles()
    }

    /// Total latency in cycles until the last PE has written its last
    /// result: issue + array skew (p−1 = n−1 hops) + pipeline drain.
    pub fn total_cycles(&self) -> u64 {
        self.issue_cycles() + (self.n as u64 - 1) + self.pl as u64
    }

    /// Fraction of issue slots wasted on padding.
    pub fn waste_fraction(&self) -> f64 {
        self.pad_cycles() as f64 / self.issue_cycles() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_padding_when_n_exceeds_pl() {
        let s = Schedule::new(32, 19);
        assert_eq!(s.padded_period(), 32);
        assert_eq!(s.pad_cycles(), 0);
        assert_eq!(s.issue_cycles(), 32 * 32);
        assert_eq!(s.waste_fraction(), 0.0);
    }

    #[test]
    fn padding_when_n_below_pl() {
        let s = Schedule::new(10, 25);
        assert_eq!(s.padded_period(), 25);
        assert_eq!(s.pad_cycles(), 15 * 10);
        assert_eq!(s.issue_cycles(), 10 * 25);
        assert!((s.waste_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn total_includes_skew_and_drain() {
        let s = Schedule::new(8, 10);
        assert_eq!(s.total_cycles(), 8 * 10 + 7 + 10);
    }

    #[test]
    fn zero_parameters_are_typed_errors() {
        use crate::block::PlanError;
        assert_eq!(Schedule::try_new(0, 9), Err(PlanError::ZeroDim("n")));
        assert_eq!(Schedule::try_new(4, 0), Err(PlanError::ZeroLatency));
        assert!(Schedule::try_new(1, 1).is_ok());
    }

    #[test]
    fn useful_cycles_count_real_macs() {
        let s = Schedule::new(4, 9);
        assert_eq!(s.useful_cycles(), 16); // n² real MAC issues
    }
}
