//! Arithmetic over `Z_Q` for odd prime moduli.
//!
//! The ring-LWE outer encryption scheme (paper §6.2, Appendix A) works
//! over an NTT-friendly prime `Q`. We keep `Q < 2^63` so products fit
//! in `u128` without overflow ([`crate::ntt`] narrows that to
//! `Q < 2^62` for its lazy butterflies); all reductions here are plain
//! `%`-based (the NTT hot loop uses precomputed Shoup constants
//! instead, so this module only needs to be correct, not fast). The
//! one exception is [`PrimeModulus::reduce_signed`], which ring
//! encryption calls once per noise coefficient: values of magnitude
//! below `Q` are folded by sign, without a division.

/// An odd prime modulus `Q < 2^63` with the basic field operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeModulus {
    q: u64,
}

impl PrimeModulus {
    /// Wraps a prime modulus.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not an odd prime below `2^63`. Primality is
    /// checked with a deterministic Miller-Rabin test.
    pub fn new(q: u64) -> Self {
        assert!((3..(1u64 << 63)).contains(&q), "modulus out of range: {q}");
        assert!(q % 2 == 1, "modulus must be odd: {q}");
        assert!(is_prime(q), "modulus must be prime: {q}");
        Self { q }
    }

    /// The modulus value.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Addition in `Z_Q`. Inputs must already be reduced.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Subtraction in `Z_Q`. Inputs must already be reduced.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Negation in `Z_Q`.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Multiplication in `Z_Q` via a 128-bit intermediate.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % self.q as u128) as u64
    }

    /// Reduces an arbitrary `u64` into `Z_Q`.
    #[inline(always)]
    pub fn reduce(&self, a: u64) -> u64 {
        a % self.q
    }

    /// Reduces a signed value into `Z_Q`.
    #[inline(always)]
    pub fn reduce_signed(&self, a: i64) -> u64 {
        if a.unsigned_abs() < self.q {
            // Noise and key coefficients always land here; `Q` is
            // added to negatives through the sign mask, so which of
            // them are negative does not show in the timing.
            (a + ((a >> 63) & self.q as i64)) as u64
        } else {
            (a as i128).rem_euclid(self.q as i128) as u64
        }
    }

    /// Centers `a` into the signed range `(-Q/2, Q/2]`.
    #[inline(always)]
    pub fn center(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            -((self.q - a) as i64)
        } else {
            a as i64
        }
    }

    /// Modular exponentiation `a^e mod Q`.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse of `a` in `Z_Q` (Fermat).
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` (zero has no inverse).
    pub fn inv(&self, a: u64) -> u64 {
        assert!(!a.is_multiple_of(self.q), "zero has no inverse");
        self.pow(a, self.q - 2)
    }
}

/// Deterministic Miller-Rabin primality test for `u64`.
///
/// Uses the standard base set that is exact for all 64-bit integers.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    let mul = |a: u64, b: u64| ((a as u128 * b as u128) % n as u128) as u64;
    let pow = |mut a: u64, mut e: u64| {
        let mut acc = 1u64;
        a %= n;
        while e > 0 {
            if e & 1 == 1 {
                acc = mul(acc, a);
            }
            a = mul(a, a);
            e >>= 1;
        }
        acc
    };
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the largest prime `Q < 2^bits` with `Q ≡ 1 (mod m)`.
///
/// Used to pick NTT-friendly ciphertext moduli (`m = 2N`).
///
/// # Panics
///
/// Panics if no such prime exists below `2^bits` (never happens for the
/// parameter ranges used in this workspace) or if `bits > 63`.
pub fn find_ntt_prime(bits: u32, m: u64) -> u64 {
    assert!((10..=63).contains(&bits), "bits out of range: {bits}");
    let top = 1u64 << bits;
    // Largest candidate of the form k*m + 1 below 2^bits.
    let mut k = (top - 2) / m;
    while k > 0 {
        let cand = k * m + 1;
        if is_prime(cand) {
            return cand;
        }
        k -= 1;
    }
    panic!("no NTT prime below 2^{bits} congruent to 1 mod {m}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miller_rabin_classifies_small_numbers() {
        let primes = [2u64, 3, 5, 7, 11, 13, 65537, 998244353];
        let composites = [1u64, 4, 6, 9, 15, 65535, 341, 561, 1105, 6601];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn find_ntt_prime_is_congruent_and_prime() {
        let q = find_ntt_prime(62, 4096);
        assert!(is_prime(q));
        assert_eq!(q % 4096, 1);
        assert!(q < 1 << 62);
        // A reasonable-size prime: within 1% of the top of the range.
        assert!(q > (1u64 << 62) - (1u64 << 55));
    }

    #[test]
    fn field_ops_are_consistent() {
        let q = PrimeModulus::new(998244353);
        let a = 123456789u64;
        let b = 987654321 % q.value();
        assert_eq!(q.add(a, q.neg(a)), 0);
        assert_eq!(q.sub(a, a), 0);
        assert_eq!(q.mul(a, q.inv(a)), 1);
        assert_eq!(q.mul(a, b), q.mul(b, a));
        assert_eq!(q.pow(a, 0), 1);
        assert_eq!(q.pow(a, 1), a);
        assert_eq!(q.pow(a, 2), q.mul(a, a));
    }

    #[test]
    fn center_and_reduce_signed_roundtrip() {
        let q = PrimeModulus::new(65537);
        for x in [0u64, 1, 2, 32768, 32769, 65536] {
            assert_eq!(q.reduce_signed(q.center(x)), x);
        }
    }

    #[test]
    fn reduce_signed_agrees_with_euclidean_remainder() {
        let q = PrimeModulus::new(65537);
        for a in [0i64, 1, -1, 37, -37, 65536, -65536, 65537, -65537, 65538, i64::MAX, i64::MIN] {
            assert_eq!(q.reduce_signed(a) as i128, (a as i128).rem_euclid(65537), "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn composite_modulus_rejected() {
        PrimeModulus::new(65535);
    }
}
