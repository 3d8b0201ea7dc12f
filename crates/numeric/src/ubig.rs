//! Arbitrary-precision unsigned integers.
//!
//! [`UBig`] stores little-endian `u64` limbs, normalized so that the most
//! significant limb is non-zero (zero is the empty limb vector). The
//! implementation favours clarity and exactness over asymptotic heroics:
//! schoolbook multiplication and shift-subtract division are ample for the
//! operand sizes that model counting produces (thousands of bits).

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct UBig {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

/// Error returned when parsing a decimal string into a [`UBig`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUBigError {
    /// The offending character, if any (empty input otherwise).
    pub bad_char: Option<char>,
}

impl fmt::Display for ParseUBigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bad_char {
            Some(c) => write!(f, "invalid digit {c:?} in UBig literal"),
            None => write!(f, "empty UBig literal"),
        }
    }
}

impl std::error::Error for ParseUBigError {}

impl UBig {
    /// The value `0`.
    #[must_use]
    pub const fn zero() -> Self {
        UBig { limbs: Vec::new() }
    }

    /// The value `1`.
    #[must_use]
    pub fn one() -> Self {
        UBig { limbs: vec![1] }
    }

    /// Builds from little-endian limbs, normalizing trailing zeros.
    #[must_use]
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        UBig { limbs }
    }

    /// Read-only view of the little-endian limbs.
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is `0`.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is `1`.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Number of significant bits (`0` for the value zero).
    #[must_use]
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                let full = (self.limbs.len() - 1) as u32 * 64;
                full + (64 - top.leading_zeros())
            }
        }
    }

    /// Number of trailing zero bits (`0` for the value zero).
    #[must_use]
    pub fn trailing_zeros(&self) -> u32 {
        for (i, &limb) in self.limbs.iter().enumerate() {
            if limb != 0 {
                return i as u32 * 64 + limb.trailing_zeros();
            }
        }
        0
    }

    /// Tests bit `i` (little-endian bit numbering).
    #[must_use]
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// In-place addition.
    pub fn add_assign(&mut self, rhs: &UBig) {
        if rhs.limbs.len() > self.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(r);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// Returns `self + rhs`.
    #[must_use]
    pub fn add(&self, rhs: &UBig) -> UBig {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// In-place subtraction; panics if `rhs > self`.
    pub fn sub_assign(&mut self, rhs: &UBig) {
        assert!(*self >= *rhs, "UBig subtraction underflow");
        let mut borrow = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = limb.overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Returns `self - rhs`, or `None` if `rhs > self`.
    #[must_use]
    pub fn checked_sub(&self, rhs: &UBig) -> Option<UBig> {
        if rhs > self {
            return None;
        }
        let mut out = self.clone();
        out.sub_assign(rhs);
        Some(out)
    }

    /// Returns `self * rhs` (schoolbook).
    #[must_use]
    pub fn mul(&self, rhs: &UBig) -> UBig {
        if self.is_zero() || rhs.is_zero() {
            return UBig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        UBig::from_limbs(out)
    }

    /// Overwrites `self` with the machine word `value`, reusing the limb
    /// allocation.
    pub fn set_u64(&mut self, value: u64) {
        self.limbs.clear();
        if value != 0 {
            self.limbs.push(value);
        }
    }

    /// Overwrites `self` with the little-endian `limbs`, reusing the limb
    /// allocation (the inverse of [`UBig::limbs`]).
    pub fn set_limbs(&mut self, limbs: &[u64]) {
        let len = limbs
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |i| i + 1);
        self.limbs.clear();
        self.limbs.extend_from_slice(&limbs[..len]);
    }

    /// Computes `self * rhs` into `out`, reusing `out`'s limb allocation.
    /// The borrow checker keeps `out` distinct from both operands, so the
    /// schoolbook accumulation never reads a partially written limb.
    pub fn mul_into(&self, rhs: &UBig, out: &mut UBig) {
        out.limbs.clear();
        if self.is_zero() || rhs.is_zero() {
            return;
        }
        out.limbs.resize(self.limbs.len() + rhs.limbs.len(), 0);
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = u128::from(out.limbs[i + j]) + u128::from(a) * u128::from(b) + carry;
                out.limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let cur = u128::from(out.limbs[k]) + carry;
                out.limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        while out.limbs.last() == Some(&0) {
            out.limbs.pop();
        }
    }

    /// Computes `self * rhs` into `out` for a machine-word multiplier,
    /// reusing `out`'s limb allocation.
    pub fn mul_u64_into(&self, rhs: u64, out: &mut UBig) {
        out.limbs.clear();
        if rhs == 0 || self.is_zero() {
            return;
        }
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = u128::from(a) * u128::from(rhs) + carry;
            out.limbs.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.limbs.push(carry as u64);
        }
    }

    /// Returns `self * rhs` for a machine-word multiplier.
    #[must_use]
    pub fn mul_u64(&self, rhs: u64) -> UBig {
        if rhs == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = u128::from(a) * u128::from(rhs) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }

    /// In-place left shift by `bits`.
    pub fn shl_assign(&mut self, bits: u32) {
        if self.is_zero() || bits == 0 {
            return;
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        if bit_shift == 0 {
            let mut new = vec![0u64; limb_shift];
            new.extend_from_slice(&self.limbs);
            self.limbs = new;
            return;
        }
        let mut new = vec![0u64; limb_shift + self.limbs.len() + 1];
        for (i, &limb) in self.limbs.iter().enumerate() {
            new[limb_shift + i] |= limb << bit_shift;
            new[limb_shift + i + 1] |= limb >> (64 - bit_shift);
        }
        *self = UBig::from_limbs(new);
    }

    /// Returns `self << bits`.
    #[must_use]
    pub fn shl(&self, bits: u32) -> UBig {
        let mut out = self.clone();
        out.shl_assign(bits);
        out
    }

    /// In-place logical right shift by `bits`.
    pub fn shr_assign(&mut self, bits: u32) {
        if self.is_zero() || bits == 0 {
            return;
        }
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            self.limbs.clear();
            return;
        }
        let bit_shift = bits % 64;
        let n = self.limbs.len() - limb_shift;
        let mut new = Vec::with_capacity(n);
        for i in 0..n {
            let lo = self.limbs[limb_shift + i] >> bit_shift;
            let hi = if bit_shift > 0 {
                self.limbs.get(limb_shift + i + 1).copied().unwrap_or(0) << (64 - bit_shift)
            } else {
                0
            };
            new.push(lo | hi);
        }
        *self = UBig::from_limbs(new);
    }

    /// Returns `self >> bits`.
    #[must_use]
    pub fn shr(&self, bits: u32) -> UBig {
        let mut out = self.clone();
        out.shr_assign(bits);
        out
    }

    /// Divides by a machine word, returning `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `rhs == 0`.
    #[must_use]
    pub fn divrem_u64(&self, rhs: u64) -> (UBig, u64) {
        assert_ne!(rhs, 0, "UBig division by zero");
        let mut quot = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | u128::from(self.limbs[i]);
            quot[i] = (cur / u128::from(rhs)) as u64;
            rem = cur % u128::from(rhs);
        }
        (UBig::from_limbs(quot), rem as u64)
    }

    /// Full division, returning `(quotient, remainder)`.
    ///
    /// Single-limb divisors take the fast `u128` path; larger divisors use
    /// shift-subtract long division (`O(bits(self) · limbs(rhs))`), which is
    /// plenty for the sizes that arise in this workspace (division is only
    /// needed for formatting and rational normalization).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    #[must_use]
    pub fn divrem(&self, rhs: &UBig) -> (UBig, UBig) {
        assert!(!rhs.is_zero(), "UBig division by zero");
        if rhs.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(rhs.limbs[0]);
            return (q, UBig::from(r));
        }
        if self < rhs {
            return (UBig::zero(), self.clone());
        }
        let shift = self.bit_len() - rhs.bit_len();
        let mut rem = self.clone();
        let mut div = rhs.shl(shift);
        let mut quot = UBig::zero();
        for i in (0..=shift).rev() {
            if rem >= div {
                rem.sub_assign(&div);
                // Set bit i of the quotient.
                let mut bit = UBig::one();
                bit.shl_assign(i);
                quot.add_assign(&bit);
            }
            div.shr_assign(1);
        }
        (quot, rem)
    }

    /// Raises `self` to the power `exp` by binary exponentiation.
    #[must_use]
    pub fn pow(&self, mut exp: u32) -> UBig {
        let mut base = self.clone();
        let mut acc = UBig::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Converts to `u64` if the value fits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    #[must_use]
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u128::from(self.limbs[0])),
            2 => Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)),
            _ => None,
        }
    }

    /// Best-effort conversion to `f64` (`inf` when the exponent overflows).
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        if bits <= 64 {
            return self.to_u64().unwrap_or(0) as f64;
        }
        // Take the top 64 bits as the mantissa and scale by the remainder.
        let shift = bits - 64;
        let top = self.shr(shift).to_u64().expect("top 64 bits fit");
        (top as f64) * (shift as f64).exp2()
    }
}

impl From<u64> for UBig {
    fn from(v: u64) -> Self {
        if v == 0 {
            UBig::zero()
        } else {
            UBig { limbs: vec![v] }
        }
    }
}

impl From<u32> for UBig {
    fn from(v: u32) -> Self {
        UBig::from(u64::from(v))
    }
}

impl From<usize> for UBig {
    fn from(v: usize) -> Self {
        UBig::from(v as u64)
    }
}

impl From<u128> for UBig {
    fn from(v: u128) -> Self {
        UBig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Peel 19 decimal digits at a time (10^19 fits in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks.pop().expect("non-zero value has chunks").to_string();
        for c in chunks.iter().rev() {
            s.push_str(&format!("{c:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig({self})")
    }
}

impl FromStr for UBig {
    type Err = ParseUBigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseUBigError { bad_char: None });
        }
        let mut acc = UBig::zero();
        for ch in s.chars() {
            let d = ch
                .to_digit(10)
                .ok_or(ParseUBigError { bad_char: Some(ch) })?;
            acc = acc.mul_u64(10);
            acc.add_assign(&UBig::from(u64::from(d)));
        }
        Ok(acc)
    }
}

impl std::iter::Sum for UBig {
    fn sum<I: Iterator<Item = UBig>>(iter: I) -> UBig {
        let mut acc = UBig::zero();
        for x in iter {
            acc.add_assign(&x);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(v: u128) -> UBig {
        UBig::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(UBig::zero().is_zero());
        assert!(UBig::one().is_one());
        assert_eq!(UBig::zero().bit_len(), 0);
        assert_eq!(UBig::one().bit_len(), 1);
        assert_eq!(UBig::from(0u64), UBig::zero());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "0",
            "1",
            "42",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999",
        ] {
            let v: UBig = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<UBig>().is_err());
        assert!("12a".parse::<UBig>().is_err());
        assert!("-5".parse::<UBig>().is_err());
    }

    #[test]
    fn add_sub_round_trip() {
        let a = big(u128::MAX - 3);
        let b = big(u128::MAX / 7);
        let mut s = a.clone();
        s.add_assign(&b);
        let mut back = s.clone();
        back.sub_assign(&b);
        assert_eq!(back, a);
    }

    #[test]
    fn checked_sub_underflow() {
        assert_eq!(big(3).checked_sub(&big(5)), None);
        assert_eq!(big(5).checked_sub(&big(3)), Some(big(2)));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_assign_panics_on_underflow() {
        let mut a = big(1);
        a.sub_assign(&big(2));
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(0).mul(&big(5)), big(0));
        assert_eq!(big(7).mul(&big(6)), big(42));
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let m = big(u128::from(u64::MAX));
        let sq = m.mul(&m);
        let expect = big(u128::MAX).checked_sub(&big((1u128 << 65) - 2)).unwrap();
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        let v = big(0b1011);
        assert_eq!(v.shl(3), big(0b1011000));
        assert_eq!(v.shl(64).shr(64), v);
        assert_eq!(v.shr(2), big(0b10));
        assert_eq!(v.shr(100), UBig::zero());
        assert_eq!(UBig::one().shl(200).bit_len(), 201);
    }

    #[test]
    fn divrem_small() {
        let (q, r) = big(100).divrem(&big(7));
        assert_eq!((q, r), (big(14), big(2)));
        let (q, r) = big(5).divrem(&big(100));
        assert_eq!((q, r), (UBig::zero(), big(5)));
    }

    #[test]
    fn divrem_multi_limb() {
        // (a * b + r) / b == a with remainder r, using 3-limb operands.
        let a = UBig::one().shl(130).add(&big(987654321));
        let b = UBig::one().shl(70).add(&big(12345));
        let r = big(424242);
        let n = a.mul(&b).add(&r);
        let (q, rem) = n.divrem(&b);
        assert_eq!(q, a);
        assert_eq!(rem, r);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divrem_by_zero_panics() {
        let _ = big(1).divrem(&UBig::zero());
    }

    #[test]
    fn pow_small() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(10).pow(0), UBig::one());
        assert_eq!(big(3).pow(5), big(243));
        assert_eq!(big(2).pow(100), UBig::one().shl(100));
    }

    #[test]
    fn conversions() {
        assert_eq!(big(42).to_u64(), Some(42));
        assert_eq!(UBig::one().shl(70).to_u64(), None);
        assert_eq!(UBig::one().shl(70).to_u128(), Some(1 << 70));
        assert_eq!(UBig::one().shl(130).to_u128(), None);
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(big(12345).to_f64(), 12345.0);
        let v = UBig::one().shl(100);
        let f = v.to_f64();
        assert!((f / (100f64).exp2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(big(3) < big(5));
        assert!(UBig::one().shl(64) > big(u128::from(u64::MAX)));
        assert_eq!(big(7).cmp(&big(7)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn sum_iterator() {
        let total: UBig = (1u64..=100).map(UBig::from).sum();
        assert_eq!(total, big(5050));
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
            prop_assert_eq!(big(a).add(&big(b)), big(a + b));
        }

        #[test]
        fn prop_sub_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            prop_assert_eq!(big(hi).checked_sub(&big(lo)), Some(big(hi - lo)));
        }

        #[test]
        fn prop_mul_matches_u128(a in 0u64.., b in 0u64..) {
            prop_assert_eq!(
                big(u128::from(a)).mul(&big(u128::from(b))),
                big(u128::from(a) * u128::from(b))
            );
        }

        #[test]
        fn prop_divrem_reconstructs(a in 0u128.., b in 1u128..) {
            let (q, r) = big(a).divrem(&big(b));
            prop_assert!(r < big(b));
            prop_assert_eq!(q.mul(&big(b)).add(&r), big(a));
        }

        #[test]
        fn prop_display_parse_round_trip(a in 0u128..) {
            let v = big(a);
            let parsed: UBig = v.to_string().parse().unwrap();
            prop_assert_eq!(parsed, v);
        }

        #[test]
        fn prop_shift_round_trip(a in 1u128.., s in 0u32..256) {
            prop_assert_eq!(big(a).shl(s).shr(s), big(a));
        }

        #[test]
        fn prop_mul_u64_matches_mul(a in 0u128.., b in 0u64..) {
            prop_assert_eq!(big(a).mul_u64(b), big(a).mul(&UBig::from(b)));
        }

        #[test]
        fn prop_mul_into_matches_mul(a in 0u128.., b in 0u128.., junk in 0u128..) {
            // The output buffer starts dirty to exercise allocation reuse.
            let mut out = big(junk);
            big(a).mul_into(&big(b), &mut out);
            prop_assert_eq!(out, big(a).mul(&big(b)));
        }

        #[test]
        fn prop_mul_u64_into_matches_mul_u64(a in 0u128.., b in 0u64.., junk in 0u128..) {
            let mut out = big(junk);
            big(a).mul_u64_into(b, &mut out);
            prop_assert_eq!(out, big(a).mul_u64(b));
        }

        #[test]
        fn prop_set_u64_overwrites(a in 0u128.., v in 0u64..) {
            let mut x = big(a);
            x.set_u64(v);
            prop_assert_eq!(x, UBig::from(v));
        }

        #[test]
        fn prop_set_limbs_inverts_limbs(a in 0u128.., v in 0u128.., pad in 0usize..3) {
            let mut x = big(a);
            let mut limbs = big(v).limbs().to_vec();
            limbs.resize(limbs.len() + pad, 0);
            x.set_limbs(&limbs);
            prop_assert_eq!(x, big(v));
        }
    }
}
