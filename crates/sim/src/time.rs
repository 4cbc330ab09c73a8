//! Simulation time in integer picoseconds.
//!
//! The GS1280's component clocks do not divide each other evenly (CPU core at
//! 1.15 GHz, links and memory controllers at 767 MHz data rate), so all
//! latencies are kept in picoseconds and only converted to cycles/nanoseconds
//! at the reporting boundary.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute simulation timestamp, in picoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ns(83.0);
/// assert_eq!(t.as_ps(), 83_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::SimDuration;
/// let d = SimDuration::from_ns(1.5) + SimDuration::from_ps(500);
/// assert_eq!(d.as_ps(), 2_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Timestamp from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// The timestamp as raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The timestamp as (floating-point) nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The timestamp as (floating-point) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Elapsed time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulation time is monotone.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Span from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Span from nanoseconds (rounded to the nearest picosecond).
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        assert!(ns >= 0.0, "duration must be non-negative");
        SimDuration((ns * 1_000.0).round() as u64)
    }

    /// Span from microseconds (rounded to the nearest picosecond).
    pub fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1_000.0)
    }

    /// The span as raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span as (floating-point) nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span as (floating-point) seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The time to move `bytes` across a resource of `bandwidth_gbps`
    /// (gigabytes per second, where 1 GB/s = 1e9 bytes/s).
    ///
    /// # Examples
    ///
    /// ```
    /// use alphasim_kernel::SimDuration;
    /// // 64-byte cache block over a 3.1 GB/s link ≈ 20.6 ns.
    /// let d = SimDuration::transfer_time(64, 3.1);
    /// assert!((d.as_ns() - 20.645).abs() < 0.01);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_gbps` is not strictly positive.
    #[inline]
    pub fn transfer_time(bytes: u64, bandwidth_gbps: f64) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        // bytes / (GB/s) = ns * bytes/GB… worked in ps: bytes * 1000 / gbps.
        SimDuration(((bytes as f64) * 1_000.0 / bandwidth_gbps).round() as u64)
    }

    /// Multiply the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> Self {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

/// A clock frequency, used to convert between cycles and time.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::Frequency;
/// let cpu = Frequency::from_ghz(1.15);
/// // The paper's 12-cycle L2 load-to-use = 10.4 ns.
/// assert!((cpu.cycles(12).as_ns() - 10.435).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Frequency {
    ghz: f64,
}

impl Frequency {
    /// A frequency in gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        Frequency { ghz }
    }

    /// The frequency in gigahertz.
    pub fn ghz(self) -> f64 {
        self.ghz
    }

    /// Duration of one clock period.
    pub fn period(self) -> SimDuration {
        self.cycles(1)
    }

    /// Duration of `n` clock cycles.
    pub fn cycles(self, n: u64) -> SimDuration {
        SimDuration(((n as f64) * 1_000.0 / self.ghz).round() as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}GHz", self.ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ps(1_500);
        let d = SimDuration::from_ps(500);
        assert_eq!((t + d).as_ps(), 2_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t - d).as_ps(), 1_000);
    }

    #[test]
    fn ns_conversion_is_exact_for_integral_ns() {
        assert_eq!(SimDuration::from_ns(83.0).as_ps(), 83_000);
        assert_eq!(SimDuration::from_ns(83.0).as_ns(), 83.0);
    }

    #[test]
    fn duration_ordering_and_sum() {
        let a = SimDuration::from_ns(1.0);
        let b = SimDuration::from_ns(2.0);
        assert!(a < b);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_ns(), 5.0);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 12.3 GB/s Zbox peak: 64 bytes in ~5.2 ns.
        let d = SimDuration::transfer_time(64, 12.3);
        assert!((d.as_ns() - 5.203).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_when_reversed() {
        let early = SimTime::from_ps(10);
        let late = SimTime::from_ps(20);
        let _ = early.since(late);
    }

    #[test]
    fn frequency_cycles() {
        let f = Frequency::from_ghz(1.0);
        assert_eq!(f.cycles(7).as_ns(), 7.0);
        let links = Frequency::from_ghz(0.767);
        assert!((links.period().as_ns() - 1.304).abs() < 0.01);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::ZERO).is_empty());
        assert!(!format!("{}", Frequency::from_ghz(1.15)).is_empty());
    }

    #[test]
    fn saturating_mul_saturates() {
        let d = SimDuration::from_ps(u64::MAX / 2);
        assert_eq!(d.saturating_mul(4).as_ps(), u64::MAX);
    }
}
