//! Small exact fractions for soundness/completeness bounds.
//!
//! The paper's source descriptors carry lower bounds `c, s ∈ [0,1]`.
//! Checking `|φ(D) ∩ v| / |φ(D)| ≥ c` in floating point would make the
//! CONSISTENCY decision procedure unsound on boundary cases (and Example 5.1
//! sits *exactly* on the boundary with `c = s = 1/2`), so bounds are exact
//! `u64` fractions and every comparison cross-multiplies in `u128`.

use crate::gcd::gcd_u64;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// An exact non-negative fraction `num/den` with `den > 0`, kept reduced.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frac {
    num: u64,
    den: u64,
}

impl Frac {
    /// The value `0`.
    pub const ZERO: Frac = Frac { num: 0, den: 1 };
    /// The value `1`.
    pub const ONE: Frac = Frac { num: 1, den: 1 };
    /// The value `1/2`.
    pub const HALF: Frac = Frac { num: 1, den: 2 };

    /// Creates a reduced fraction.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: u64, den: u64) -> Self {
        assert_ne!(den, 0, "Frac denominator must be non-zero");
        if num == 0 {
            return Frac::ZERO;
        }
        let g = gcd_u64(num, den);
        Frac {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator of the reduced fraction.
    #[must_use]
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator of the reduced fraction.
    #[must_use]
    pub fn den(&self) -> u64 {
        self.den
    }

    /// `true` iff the value is `0`.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is `1`.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.num == self.den
    }

    /// `true` iff the value lies in `[0, 1]` (valid as a bound).
    #[must_use]
    pub fn is_probability(&self) -> bool {
        self.num <= self.den
    }

    /// Exact test of `a/b ≥ self`, i.e. `a·den ≥ num·b`, without overflow.
    ///
    /// This is the workhorse of every consistency check: "is the measured
    /// ratio at least the claimed bound?" `b` may be zero, in which case the
    /// ratio is treated as undefined-but-satisfied only when the bound is
    /// zero or `a` is also unconstrained — concretely the paper's measures
    /// always have `b > 0` when a claim is made; we define `a/0 ≥ bound` as
    /// `true` (an empty intended view is vacuously complete).
    #[must_use]
    pub fn leq_ratio(&self, a: u64, b: u64) -> bool {
        if b == 0 {
            return true;
        }
        u128::from(a) * u128::from(self.den) >= u128::from(self.num) * u128::from(b)
    }

    /// Smallest integer `t` with `t ≥ self · k` — the minimum number of
    /// sound tuples a source with bound `self` and extension size `k` must
    /// contribute (inequality (3) of the paper: `t_i ≥ s_i·k_i`).
    #[must_use]
    pub fn ceil_mul(&self, k: u64) -> u64 {
        let prod = u128::from(self.num) * u128::from(k);
        prod.div_ceil(u128::from(self.den)) as u64
    }

    /// Largest integer `w` with `self · w ≤ t`, i.e. `⌊t / self⌋` — the
    /// maximum size of `φ(D)` compatible with `t` sound tuples under
    /// completeness bound `self` (the paper's `m_i = ⌊t_i/c_i⌋`).
    ///
    /// Returns `None` when `self` is zero (no upper bound).
    #[must_use]
    pub fn floor_div(&self, t: u64) -> Option<u64> {
        if self.num == 0 {
            return None;
        }
        let prod = u128::from(t) * u128::from(self.den);
        Some((prod / u128::from(self.num)) as u64)
    }

    /// Nearest-fraction conversion from `f64` with denominator at most
    /// `max_den`, via the Stern–Brocot tree. Values are clamped to `[0, 1]`.
    #[must_use]
    pub fn from_f64_approx(value: f64, max_den: u64) -> Self {
        let v = value.clamp(0.0, 1.0);
        if v == 0.0 {
            return Frac::ZERO;
        }
        if v == 1.0 {
            return Frac::ONE;
        }
        // Stern–Brocot search between 0/1 and 1/1.
        let (mut ln, mut ld) = (0u64, 1u64); // left bound
        let (mut rn, mut rd) = (1u64, 1u64); // right bound
        let (mut best_n, mut best_d) = (0u64, 1u64);
        let mut best_err = v;
        loop {
            let mn = ln + rn;
            let md = ld + rd;
            if md > max_den {
                break;
            }
            let mv = mn as f64 / md as f64;
            let err = (mv - v).abs();
            if err < best_err {
                best_err = err;
                best_n = mn;
                best_d = md;
            }
            if mv < v {
                ln = mn;
                ld = md;
            } else if mv > v {
                rn = mn;
                rd = md;
            } else {
                return Frac::new(mn, md);
            }
        }
        // Also consider the bounds themselves.
        for (n, d) in [(ln, ld), (rn, rd)] {
            if d <= max_den && d > 0 {
                let err = (n as f64 / d as f64 - v).abs();
                if err < best_err {
                    best_err = err;
                    best_n = n;
                    best_d = d;
                }
            }
        }
        Frac::new(best_n, best_d)
    }

    /// Converts to `f64`.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Default for Frac {
    fn default() -> Self {
        Frac::ZERO
    }
}

/// Error returned when parsing a [`Frac`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFracError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseFracError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fraction: {}", self.message)
    }
}

impl std::error::Error for ParseFracError {}

/// How many characters of a malformed field an error message quotes.
const SNIPPET_CHARS: usize = 32;

/// `text` quoted for an error message, cut to [`SNIPPET_CHARS`]
/// characters.
fn snippet(text: &str) -> String {
    match text.char_indices().nth(SNIPPET_CHARS) {
        Some((cut, _)) => format!("{:?}…", &text[..cut]),
        None => format!("{text:?}"),
    }
}

impl std::str::FromStr for Frac {
    type Err = ParseFracError;

    /// Accepts `"n/d"`, plain integers (`"1"`), and decimals (`"0.25"`,
    /// converted exactly: `25/100`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseFracError {
                message: "empty input".into(),
            });
        }
        if let Some((num, den)) = s.split_once('/') {
            let num: u64 = num.trim().parse().map_err(|_| ParseFracError {
                message: format!("bad numerator {}", snippet(num)),
            })?;
            let den: u64 = den.trim().parse().map_err(|_| ParseFracError {
                message: format!("bad denominator {}", snippet(den)),
            })?;
            if den == 0 {
                return Err(ParseFracError {
                    message: "zero denominator".into(),
                });
            }
            return Ok(Frac::new(num, den));
        }
        if let Some((int, frac)) = s.split_once('.') {
            let int: u64 = if int.is_empty() {
                0
            } else {
                int.parse().map_err(|_| ParseFracError {
                    message: format!("bad integer part {}", snippet(int)),
                })?
            };
            if frac.len() > 18 {
                return Err(ParseFracError {
                    message: "more than 18 decimal places".into(),
                });
            }
            let scale = 10u64.pow(frac.len() as u32);
            let frac_digits: u64 = if frac.is_empty() {
                0
            } else {
                frac.parse().map_err(|_| ParseFracError {
                    message: format!("bad fractional part {}", snippet(frac)),
                })?
            };
            let num = int
                .checked_mul(scale)
                .and_then(|v| v.checked_add(frac_digits))
                .ok_or_else(|| ParseFracError {
                    message: "value too large".into(),
                })?;
            return Ok(Frac::new(num, scale));
        }
        let int: u64 = s.parse().map_err(|_| ParseFracError {
            message: format!("bad integer {}", snippet(s)),
        })?;
        Ok(Frac::from(int))
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Self) -> Ordering {
        (u128::from(self.num) * u128::from(other.den))
            .cmp(&(u128::from(other.num) * u128::from(self.den)))
    }
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frac({self})")
    }
}

impl From<u64> for Frac {
    fn from(v: u64) -> Self {
        Frac { num: v, den: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reduction() {
        assert_eq!(Frac::new(2, 4), Frac::new(1, 2));
        assert_eq!(Frac::new(0, 7), Frac::ZERO);
        assert_eq!(Frac::new(6, 3).num(), 2);
        assert_eq!(Frac::new(6, 3).den(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Frac::new(1, 0);
    }

    #[test]
    fn leq_ratio_boundary() {
        let half = Frac::HALF;
        assert!(half.leq_ratio(1, 2)); // exactly 1/2 >= 1/2
        assert!(half.leq_ratio(2, 3)); // 2/3 >= 1/2
        assert!(!half.leq_ratio(1, 3)); // 1/3 < 1/2
        assert!(half.leq_ratio(0, 0)); // vacuous
        assert!(Frac::ONE.leq_ratio(5, 5));
        assert!(!Frac::ONE.leq_ratio(4, 5));
        assert!(Frac::ZERO.leq_ratio(0, 10));
    }

    #[test]
    fn leq_ratio_no_overflow() {
        let f = Frac::new(u64::MAX - 1, u64::MAX);
        assert!(f.leq_ratio(u64::MAX, u64::MAX));
        assert!(!f.leq_ratio(1, u64::MAX));
    }

    #[test]
    fn ceil_mul_examples() {
        assert_eq!(Frac::HALF.ceil_mul(5), 3); // ceil(2.5)
        assert_eq!(Frac::HALF.ceil_mul(4), 2);
        assert_eq!(Frac::ZERO.ceil_mul(10), 0);
        assert_eq!(Frac::ONE.ceil_mul(7), 7);
        assert_eq!(Frac::new(2, 3).ceil_mul(7), 5); // ceil(14/3)
    }

    #[test]
    fn floor_div_examples() {
        assert_eq!(Frac::HALF.floor_div(3), Some(6));
        assert_eq!(Frac::new(2, 3).floor_div(3), Some(4)); // floor(4.5)
        assert_eq!(Frac::ZERO.floor_div(3), None);
        assert_eq!(Frac::ONE.floor_div(3), Some(3));
    }

    #[test]
    fn from_f64_exact_halves() {
        assert_eq!(Frac::from_f64_approx(0.5, 100), Frac::HALF);
        assert_eq!(Frac::from_f64_approx(0.0, 100), Frac::ZERO);
        assert_eq!(Frac::from_f64_approx(1.0, 100), Frac::ONE);
        assert_eq!(Frac::from_f64_approx(0.25, 100), Frac::new(1, 4));
        assert_eq!(Frac::from_f64_approx(2.5, 100), Frac::ONE); // clamped
        assert_eq!(Frac::from_f64_approx(-1.0, 100), Frac::ZERO); // clamped
    }

    #[test]
    fn from_f64_approximates() {
        let f = Frac::from_f64_approx(0.333, 1000);
        assert!((f.to_f64() - 0.333).abs() < 1e-3);
        let v = 0.317_420_9_f64; // an awkward, non-special constant
        let approx = Frac::from_f64_approx(v, 1000);
        assert!((approx.to_f64() - v).abs() < 1e-5);
    }

    #[test]
    fn ordering() {
        assert!(Frac::new(1, 3) < Frac::HALF);
        assert!(Frac::new(2, 3) > Frac::HALF);
        assert_eq!(Frac::new(3, 6).cmp(&Frac::HALF), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display() {
        assert_eq!(Frac::HALF.to_string(), "1/2");
        assert_eq!(Frac::ONE.to_string(), "1");
        assert_eq!(Frac::ZERO.to_string(), "0");
    }

    proptest! {
        #[test]
        fn prop_leq_ratio_matches_float(num in 0u64..1000, den in 1u64..1000, a in 0u64..1000, b in 1u64..1000) {
            let f = Frac::new(num, den);
            // Cross-multiplication in exact arithmetic must agree with the
            // rational comparison (floats only used on provably-exact ranges).
            let exact = u128::from(a) * u128::from(f.den()) >= u128::from(f.num()) * u128::from(b);
            prop_assert_eq!(f.leq_ratio(a, b), exact);
        }

        #[test]
        fn prop_ceil_mul_is_minimal(num in 0u64..100, den in 1u64..100, k in 0u64..1000) {
            let f = Frac::new(num, den);
            let t = f.ceil_mul(k);
            // t/k >= f  (t is sufficient)
            prop_assert!(f.leq_ratio(t, k));
            // t-1 is not sufficient (when t > 0 and k > 0)
            if t > 0 && k > 0 {
                prop_assert!(!f.leq_ratio(t - 1, k));
            }
        }

        #[test]
        fn prop_floor_div_is_maximal(num in 1u64..100, den in 1u64..100, t in 0u64..1000) {
            let f = Frac::new(num, den);
            let w = f.floor_div(t).unwrap();
            // t/w >= f (w is allowed) -- guard w == 0 (vacuous)
            if w > 0 {
                prop_assert!(f.leq_ratio(t, w));
            }
            // w+1 is not allowed
            prop_assert!(!f.leq_ratio(t, w + 1));
        }

        #[test]
        fn prop_from_f64_round_trip(num in 0u64..64, den in 1u64..64) {
            let f = Frac::new(num.min(den), den);
            let back = Frac::from_f64_approx(f.to_f64(), 10_000);
            prop_assert_eq!(back, f);
        }
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn parses_ratios() {
        assert_eq!("1/2".parse::<Frac>().unwrap(), Frac::HALF);
        assert_eq!(" 3 / 4 ".parse::<Frac>().unwrap(), Frac::new(3, 4));
        assert_eq!("2/4".parse::<Frac>().unwrap(), Frac::HALF);
    }

    #[test]
    fn parses_integers_and_decimals() {
        assert_eq!("1".parse::<Frac>().unwrap(), Frac::ONE);
        assert_eq!("0".parse::<Frac>().unwrap(), Frac::ZERO);
        assert_eq!("0.5".parse::<Frac>().unwrap(), Frac::HALF);
        assert_eq!("0.25".parse::<Frac>().unwrap(), Frac::new(1, 4));
        assert_eq!(".75".parse::<Frac>().unwrap(), Frac::new(3, 4));
        assert_eq!("1.".parse::<Frac>().unwrap(), Frac::ONE);
        assert_eq!("0.333".parse::<Frac>().unwrap(), Frac::new(333, 1000));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "a/b",
            "1/0",
            "-1/2",
            "1.2.3",
            "1/2/3",
            "0.1234567890123456789",
        ] {
            assert!(bad.parse::<Frac>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn display_parse_round_trip() {
        for f in [
            Frac::ZERO,
            Frac::HALF,
            Frac::ONE,
            Frac::new(7, 13),
            Frac::new(99, 100),
        ] {
            assert_eq!(f.to_string().parse::<Frac>().unwrap(), f);
        }
    }
}
