use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};
use core::time::Duration;

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

/// The wall-clock length of `ticks` ticks of `tick` each — the one tick
/// clock of every real-time substrate (the runtime's schedules and
/// timers, the socket node's timers, the orchestrator's timeline).
///
/// Pure `u64`-nanosecond arithmetic, saturating at `u64::MAX` ns (≈ 584
/// years). The tick *count* is never narrowed: `Duration::saturating_mul`
/// takes a `u32`, and clamping the count to fit it lands every timestamp
/// beyond 2^32 ticks (≈ 60 h at a 50 µs tick) on one instant.
#[must_use]
pub fn ticks_to_wall(ticks: u64, tick: Duration) -> Duration {
    let tick_nanos = u64::try_from(tick.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(ticks.saturating_mul(tick_nanos))
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
    fn ticks_to_wall_is_exact_beyond_the_u32_clamp_and_saturates() {
        // 2^40 ticks is ≈ 64 days at 5 µs and ≈ 636 days at 50 µs: exact,
        // and far beyond where a tick count clamped to `u32` collapses
        // every larger timestamp onto one instant.
        let ticks = 1u64 << 40;
        for micros in [5, 20, 50] {
            let tick = Duration::from_micros(micros);
            assert_eq!(ticks_to_wall(ticks, tick), Duration::from_nanos(ticks * micros * 1_000));
            let old_clamp = tick.saturating_mul(u32::try_from(ticks).unwrap_or(u32::MAX));
            assert!(ticks_to_wall(ticks, tick) > old_clamp);
            assert_eq!(ticks_to_wall(7, tick), tick * 7);
        }
        // Saturation, not wraparound, at the u64 nanosecond ceiling —
        // whether the count, the tick or the tick's own nanoseconds
        // overflow.
        let ceiling = Duration::from_nanos(u64::MAX);
        assert_eq!(ticks_to_wall(u64::MAX, Duration::from_micros(20)), ceiling);
        assert_eq!(ticks_to_wall(2, ceiling), ceiling);
        assert_eq!(ticks_to_wall(1, Duration::MAX), ceiling);
        assert_eq!(ticks_to_wall(ticks, Duration::ZERO), Duration::ZERO);
        assert_eq!(ticks_to_wall(0, Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_ticks(1));
        assert!(SimDuration::ZERO < SimDuration::from_ticks(1));
    }
}
