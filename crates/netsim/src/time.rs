//! Virtual time.

use attain_openflow::write_decimal;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds since simulation
/// start.
///
/// The same type serves as instant and duration — the simulator's
/// arithmetic is simple enough that the distinction would add noise
/// without catching real bugs, and the paper's experiment scripts are all
/// phrased as absolute `t = …` offsets anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// From fractional seconds (rounds to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    pub(crate) fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As whole nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SimTime {
    /// Writes the `Display` text into `out`: what `{:.3}s` of
    /// [`SimTime::as_secs_f64`] prints, computed in integers.
    ///
    /// Below 2^53 ns the `f64` is within 2^-30 s of the exact quotient,
    /// less than the 1 ns between a time and the nearest half-millisecond
    /// it is not on, so both round to the same millisecond. On a
    /// half-millisecond exactly the float formatter rounds whichever
    /// binary neighbour it was handed; those ties (a 500 µs link delay
    /// makes them common) and times from 2^53 ns, where `as f64` itself
    /// rounds, go through the float.
    pub(crate) fn render<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        let ns = self.0;
        if ns % 1_000_000 == 500_000 || ns >= 1 << 53 {
            return write!(out, "{:.3}s", self.as_secs_f64());
        }
        let ms = (ns + 500_000) / 1_000_000;
        write_decimal(out, ms / 1_000)?;
        let digit = |n: u64| char::from(b'0' + (n % 10) as u8);
        ['.', digit(ms / 100), digit(ms / 10), digit(ms), 's']
            .into_iter()
            .try_for_each(|c| out.write_char(c))
    }
}

impl fmt::Display for SimTime {
    /// Formats as seconds with millisecond precision, e.g. `12.345s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).0, 3_000_000);
        assert_eq!(SimTime::from_micros(5).0, 5_000);
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime(1_500_000_000));
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_micros(1500).as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_secs(4));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_millis(12345).to_string(), "12.345s");
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn from_secs_f64_rejects_negative() {
        SimTime::from_secs_f64(-1.0);
    }
}
