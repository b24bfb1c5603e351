//! Elements of the quotient ring `R_Q = Z_Q[x]/(x^N + 1)`.
//!
//! A [`Poly`] tracks whether its backing vector holds coefficients or
//! NTT-domain evaluations; mixing the two is a programming error and is
//! caught by assertions rather than silently producing garbage.

use std::sync::Arc;

use crate::ntt::NttTable;

/// Representation domain of a [`Poly`]'s backing storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Plain coefficients `a_0 + a_1 x + …`.
    Coefficient,
    /// ψ-twisted NTT evaluations.
    Ntt,
}

/// A polynomial in `R_Q`, tagged with its representation domain.
#[derive(Debug, Clone)]
pub struct Poly {
    table: Arc<NttTable>,
    domain: Domain,
    data: Vec<u64>,
}

impl Poly {
    /// The zero polynomial in coefficient domain.
    pub fn zero(table: Arc<NttTable>) -> Self {
        let n = table.degree();
        Self { table, domain: Domain::Coefficient, data: vec![0; n] }
    }

    /// Builds a polynomial from reduced coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree or any
    /// coefficient is not reduced modulo `Q`.
    pub fn from_coeffs(table: Arc<NttTable>, coeffs: Vec<u64>) -> Self {
        assert_eq!(coeffs.len(), table.degree(), "degree mismatch");
        let q = table.modulus().value();
        assert!(coeffs.iter().all(|&c| c < q), "coefficients must be reduced mod Q");
        Self { table, domain: Domain::Coefficient, data: coeffs }
    }

    /// Wraps raw *NTT-domain* data produced by low-level kernels (e.g.
    /// the unreduced multiply-accumulate of token generation).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the ring degree or any
    /// value is not reduced modulo `Q`.
    pub fn from_ntt_data(table: Arc<NttTable>, data: Vec<u64>) -> Self {
        assert_eq!(data.len(), table.degree(), "degree mismatch");
        let q = table.modulus().value();
        assert!(data.iter().all(|&c| c < q), "values must be reduced mod Q");
        Self { table, domain: Domain::Ntt, data }
    }

    /// Builds a polynomial from signed coefficients, reducing mod `Q`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree.
    pub fn from_signed(table: Arc<NttTable>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), table.degree(), "degree mismatch");
        let m = *table.modulus();
        let data = coeffs.iter().map(|&c| m.reduce_signed(c)).collect();
        Self { table, domain: Domain::Coefficient, data }
    }

    /// The constant polynomial `c`.
    pub fn constant(table: Arc<NttTable>, c: u64) -> Self {
        let mut p = Self::zero(table);
        p.data[0] = p.table.modulus().reduce(c);
        p
    }

    /// Representation domain of the backing data.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The shared NTT table.
    pub fn table(&self) -> &Arc<NttTable> {
        &self.table
    }

    /// Read access to the raw backing data (meaning depends on
    /// [`Self::domain`]).
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Coefficient access; the polynomial must be in coefficient
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if called on an NTT-domain polynomial.
    pub fn coeffs(&self) -> &[u64] {
        assert_eq!(self.domain, Domain::Coefficient, "polynomial is in NTT domain");
        &self.data
    }

    /// Converts to NTT domain in place (idempotent).
    pub fn to_ntt(&mut self) {
        if self.domain == Domain::Coefficient {
            self.table.forward(&mut self.data);
            self.domain = Domain::Ntt;
        }
    }

    /// Converts to coefficient domain in place (idempotent).
    pub fn to_coeff(&mut self) {
        if self.domain == Domain::Ntt {
            self.table.inverse(&mut self.data);
            self.domain = Domain::Coefficient;
        }
    }

    /// `self += rhs`. Both operands must be in the same domain.
    ///
    /// # Panics
    ///
    /// Panics on domain or table mismatch.
    pub fn add_assign(&mut self, rhs: &Poly) {
        assert_eq!(self.domain, rhs.domain, "domain mismatch");
        self.assert_same_ring(rhs);
        let m = *self.table.modulus();
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = m.add(*a, b);
        }
    }

    /// `self -= rhs`. Both operands must be in the same domain.
    ///
    /// # Panics
    ///
    /// Panics on domain or table mismatch.
    pub fn sub_assign(&mut self, rhs: &Poly) {
        assert_eq!(self.domain, rhs.domain, "domain mismatch");
        self.assert_same_ring(rhs);
        let m = *self.table.modulus();
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = m.sub(*a, b);
        }
    }

    /// Negates in place (domain-independent).
    pub fn neg_assign(&mut self) {
        let m = *self.table.modulus();
        for a in self.data.iter_mut() {
            *a = m.neg(*a);
        }
    }

    /// Multiplies by a scalar in place (domain-independent).
    pub fn scale_assign(&mut self, c: u64) {
        let m = *self.table.modulus();
        let c = m.reduce(c);
        for a in self.data.iter_mut() {
            *a = m.mul(*a, c);
        }
    }

    /// Full ring product `self * rhs`; both operands must already be in
    /// NTT domain. The result stays in NTT domain.
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient domain or on table
    /// mismatch.
    pub fn mul_ntt(&self, rhs: &Poly) -> Poly {
        assert_eq!(self.domain, Domain::Ntt, "lhs must be in NTT domain");
        assert_eq!(rhs.domain, Domain::Ntt, "rhs must be in NTT domain");
        self.assert_same_ring(rhs);
        let mut out = vec![0u64; self.data.len()];
        self.table.mul(&self.data, &rhs.data, &mut out);
        Poly { table: Arc::clone(&self.table), domain: Domain::Ntt, data: out }
    }

    /// `self += a * b` with all three polynomials in NTT domain.
    ///
    /// # Panics
    ///
    /// Panics on domain or table mismatch.
    pub fn mul_acc_ntt(&mut self, a: &Poly, b: &Poly) {
        assert_eq!(self.domain, Domain::Ntt, "accumulator must be in NTT domain");
        assert_eq!(a.domain, Domain::Ntt, "a must be in NTT domain");
        assert_eq!(b.domain, Domain::Ntt, "b must be in NTT domain");
        self.assert_same_ring(a);
        self.assert_same_ring(b);
        self.table.mul_acc(&a.data, &b.data, &mut self.data);
    }

    /// Centered (signed) coefficients; the polynomial must be in
    /// coefficient domain.
    ///
    /// # Panics
    ///
    /// Panics if called on an NTT-domain polynomial.
    pub fn centered_coeffs(&self) -> Vec<i64> {
        let m = self.table.modulus();
        self.coeffs().iter().map(|&c| m.center(c)).collect()
    }

    /// The infinity norm of the centered coefficient vector.
    ///
    /// # Panics
    ///
    /// Panics if called on an NTT-domain polynomial.
    pub fn inf_norm(&self) -> u64 {
        self.centered_coeffs().iter().map(|&c| c.unsigned_abs()).max().unwrap_or(0)
    }

    fn assert_same_ring(&self, other: &Poly) {
        assert!(
            Arc::ptr_eq(&self.table, &other.table)
                || (self.table.degree() == other.table.degree()
                    && self.table.modulus().value() == other.table.modulus().value()),
            "polynomials belong to different rings"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<NttTable> {
        Arc::new(NttTable::new(16, 30))
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = table();
        let a = Poly::from_signed(Arc::clone(&t), &[1i64; 16]);
        let b = Poly::from_signed(Arc::clone(&t), &(0..16).map(|i| i as i64).collect::<Vec<_>>());
        let mut c = a.clone();
        c.add_assign(&b);
        c.sub_assign(&b);
        assert_eq!(c.coeffs(), a.coeffs());
    }

    #[test]
    fn constant_times_poly_scales_coefficients() {
        let t = table();
        let mut a = Poly::from_signed(Arc::clone(&t), &(0..16).map(|i| i as i64).collect::<Vec<_>>());
        let mut c = Poly::constant(Arc::clone(&t), 3);
        a.to_ntt();
        c.to_ntt();
        let mut prod = a.mul_ntt(&c);
        prod.to_coeff();
        let expected: Vec<u64> = (0..16).map(|i| 3 * i as u64).collect();
        assert_eq!(prod.coeffs(), &expected[..]);
    }

    #[test]
    fn scale_matches_constant_mul() {
        let t = table();
        let base = Poly::from_signed(Arc::clone(&t), &(0..16).map(|i| 2 * i as i64).collect::<Vec<_>>());
        let mut scaled = base.clone();
        scaled.scale_assign(7);

        let mut a = base.clone();
        let mut c = Poly::constant(Arc::clone(&t), 7);
        a.to_ntt();
        c.to_ntt();
        let mut prod = a.mul_ntt(&c);
        prod.to_coeff();
        assert_eq!(prod.coeffs(), scaled.coeffs());
    }

    #[test]
    fn neg_then_add_gives_zero() {
        let t = table();
        let a = Poly::from_signed(Arc::clone(&t), &[5i64; 16]);
        let mut b = a.clone();
        b.neg_assign();
        b.add_assign(&a);
        assert!(b.coeffs().iter().all(|&c| c == 0));
        assert_eq!(b.inf_norm(), 0);
    }

    #[test]
    fn centered_coeffs_are_signed() {
        let t = table();
        let a = Poly::from_signed(Arc::clone(&t), &[-3i64; 16]);
        assert_eq!(a.centered_coeffs(), vec![-3i64; 16]);
        assert_eq!(a.inf_norm(), 3);
    }

    #[test]
    #[should_panic(expected = "NTT domain")]
    fn coeff_access_in_ntt_domain_panics() {
        let t = table();
        let mut a = Poly::zero(t);
        a.to_ntt();
        let _ = a.coeffs();
    }
}
