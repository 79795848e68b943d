//! Trace time: a microsecond-resolution timestamp shared across the study's
//! crates. Experiment clocks are virtual (the emulator advances them
//! deterministically), so this is a plain integer type rather than
//! `std::time::SystemTime`.

/// A point in trace time, microseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The trace epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Timestamp {
        Timestamp(micros)
    }

    /// Construct from milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Timestamp {
        Timestamp(millis * 1_000)
    }

    /// Construct from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Timestamp {
        Timestamp(secs * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This timestamp advanced by `micros`.
    pub const fn plus_micros(self, micros: u64) -> Timestamp {
        Timestamp(self.0 + micros)
    }

    /// This timestamp advanced by `millis`.
    pub const fn plus_millis(self, millis: u64) -> Timestamp {
        Timestamp(self.0 + millis * 1_000)
    }

    /// This timestamp advanced by `secs`.
    pub const fn plus_secs(self, secs: u64) -> Timestamp {
        Timestamp(self.0 + secs * 1_000_000)
    }

    /// Saturating difference in microseconds (`self - earlier`).
    pub const fn micros_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl core::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

impl core::ops::Add<u64> for Timestamp {
    type Output = Timestamp;
    /// Add microseconds.
    fn add(self, micros: u64) -> Timestamp {
        Timestamp(self.0 + micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Timestamp::from_millis(1500).as_micros(), 1_500_000);
        assert_eq!(Timestamp::from_micros(2_500_000).as_secs_f64(), 2.5);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t.plus_millis(250).as_micros(), 10_250_000);
        assert_eq!(t.plus_secs(5), Timestamp::from_secs(15));
        assert_eq!(t.plus_secs(5).micros_since(t), 5_000_000);
        assert_eq!(t.micros_since(t.plus_secs(5)), 0); // saturating
        assert_eq!((t + 7).as_micros(), 10_000_007);
    }

    #[test]
    fn display() {
        assert_eq!(Timestamp::from_micros(1_000_042).to_string(), "1.000042s");
    }

    #[test]
    fn ordering() {
        assert!(Timestamp::from_secs(1) < Timestamp::from_secs(2));
        assert_eq!(Timestamp::ZERO, Timestamp::default());
    }
}
