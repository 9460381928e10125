use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A point in virtual time, in ticks (interpreted as microseconds by
/// convention, but nothing in the simulator depends on the unit).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of virtual time, in the same ticks as [`SimTime`].
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point from raw ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(earlier.0).expect("time went backwards"))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw ticks.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ticks(10);
        let d = SimDuration::from_ticks(5);
        assert_eq!((t + d).ticks(), 15);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - t, d);
        assert_eq!((d + d).ticks(), 10);
        assert_eq!((d * 3).ticks(), 15);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_duration_panics() {
        let _ = SimTime::from_ticks(1).since(SimTime::from_ticks(2));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_ticks(1));
        assert!(SimDuration::ZERO < SimDuration::from_ticks(1));
    }
}
