//! Boosted (regularized) Cholesky factorization — the retry layer that
//! turns `NotPositiveDefinite` from a fatal error into a classified,
//! recoverable event.
//!
//! Production sparse solvers (CHOLMOD's `beta` shift, PETSc's
//! `PCFactorSetShiftType`) recover from marginally indefinite or
//! near-singular matrices by adding a small multiple of the identity to
//! the diagonal and refactorizing. [`CholeskyFactor::factorize`] brings
//! that discipline here when its [`FactorOptions::boost`] is set: on a
//! pivot failure it climbs a geometric shift ladder ([`BoostSchedule`]) —
//! `σ₀·s, σ₀·g·s, σ₀·g²·s, …` where `s` is the mean absolute diagonal —
//! until a factorization succeeds, and records the applied shift on the
//! factor ([`CholeskyFactor::applied_shift`]) so callers can account for
//! the perturbation (e.g. by using the boosted factor as a
//! preconditioner rather than a direct solve).
//!
//! The boost is applied to the **input matrix** (one
//! [`CscMatrix::add_diagonal`] per rung), not smuggled into the numeric
//! kernel, so the bit-identity contract of [`CholeskyFactor::factorize`]
//! is untouched: serial and parallel factorizations of the same boosted
//! matrix agree bit for bit at every thread count.
//!
//! A cheap non-finite input scan ([`scan_non_finite`]) runs first: NaN or
//! infinite entries are input corruption, not conditioning, and no shift
//! recovers them — they surface immediately as the typed
//! [`SparseError::NonFiniteValue`].
//!
//! [`CholeskyFactor::factorize`]: crate::CholeskyFactor::factorize
//! [`CholeskyFactor::applied_shift`]: crate::CholeskyFactor::applied_shift
//! [`FactorOptions::boost`]: crate::FactorOptions::boost

#![warn(clippy::unwrap_used)]

use crate::csc::CscMatrix;
use crate::error::SparseError;

/// Geometric diagonal-boost ladder for [`crate::CholeskyFactor::factorize`]
/// (set as [`crate::FactorOptions::boost`]).
///
/// Rung `k` (0-based) shifts the diagonal by
/// `initial_relative · growthᵏ · scale`, where `scale` is the mean
/// absolute diagonal of the input (1.0 for an all-zero diagonal). The
/// defaults start ten orders of magnitude below the diagonal scale and
/// climb fast: eight rungs reach `10⁶ · scale`, far past the point where
/// any SDD-like matrix factors.
///
/// # Example
///
/// An unshifted graph Laplacian is singular — a plain factorization
/// fails, while the boosted one recovers with a tiny recorded shift:
///
/// ```
/// use tracered_sparse::order::Ordering;
/// use tracered_sparse::{BoostSchedule, CholeskyFactor, CooMatrix, FactorOptions};
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// // Path-graph Laplacian: positive *semi*-definite, singular.
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 0, 1.0)?;
/// coo.push(1, 1, 2.0)?;
/// coo.push(2, 2, 1.0)?;
/// coo.push_symmetric(0, 1, -1.0)?;
/// coo.push_symmetric(1, 2, -1.0)?;
/// let l = coo.to_csc();
///
/// assert!(CholeskyFactor::factorize(&l, Ordering::Natural).is_err());
/// let boost = Some(BoostSchedule::default());
/// let f = CholeskyFactor::factorize(&l, FactorOptions { boost, ..Ordering::Natural.into() })?;
/// assert!(f.applied_shift() > 0.0, "recovery must report its shift");
/// // The boosted factor solves the regularized system accurately.
/// let x = f.solve(&[1.0, 0.0, -1.0]);
/// assert!(x.iter().all(|v| v.is_finite()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostSchedule {
    /// First shift, relative to the diagonal scale (default `1e-10`).
    pub initial_relative: f64,
    /// Geometric growth factor between rungs (default `100.0`).
    pub growth: f64,
    /// Number of boosted retries after the unshifted attempt (default 8).
    pub max_boosts: usize,
}

impl Default for BoostSchedule {
    fn default() -> Self {
        BoostSchedule { initial_relative: 1e-10, growth: 100.0, max_boosts: 8 }
    }
}

impl BoostSchedule {
    /// Validates the ladder parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidValue`] when the initial shift is not
    /// finite and positive, the growth factor is not finite and > 1, or
    /// the ladder has no rungs.
    pub fn validate(&self) -> Result<(), SparseError> {
        if !self.initial_relative.is_finite() || self.initial_relative <= 0.0 {
            return Err(SparseError::InvalidValue {
                what: format!(
                    "boost initial_relative {} must be finite and > 0",
                    self.initial_relative
                ),
            });
        }
        if !self.growth.is_finite() || self.growth <= 1.0 {
            return Err(SparseError::InvalidValue {
                what: format!("boost growth {} must be finite and > 1", self.growth),
            });
        }
        if self.max_boosts == 0 {
            return Err(SparseError::InvalidValue {
                what: "boost max_boosts must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The absolute shift applied at rung `attempt` (0-based) for a
    /// matrix with diagonal scale `scale`.
    pub fn shift_at(&self, attempt: usize, scale: f64) -> f64 {
        self.initial_relative * self.growth.powi(attempt as i32) * scale
    }
}

/// Scans every stored entry for NaN or infinite values — the cheap input
/// hygiene check run before factorizations and robust solves, `O(nnz)`
/// with no allocation.
///
/// # Errors
///
/// Returns [`SparseError::NonFiniteValue`] locating the first offending
/// entry in column-major order.
pub fn scan_non_finite(a: &CscMatrix) -> Result<(), SparseError> {
    for (row, col, v) in a.iter() {
        if !v.is_finite() {
            return Err(SparseError::NonFiniteValue { row, col });
        }
    }
    Ok(())
}

/// Mean absolute diagonal — the natural scale for relative shifts.
pub(crate) fn diagonal_scale(a: &CscMatrix) -> f64 {
    let d = a.diagonal();
    if d.is_empty() {
        return 1.0;
    }
    let mean = d.iter().map(|v| v.abs()).sum::<f64>() / d.len() as f64;
    if mean.is_finite() && mean > 0.0 {
        mean
    } else {
        1.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::chol::{CholeskyFactor, FactorOptions};
    use crate::coo::CooMatrix;
    use crate::order::Ordering;

    fn spd() -> CscMatrix {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 3.0).unwrap();
        }
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        coo.push_symmetric(2, 3, -1.0).unwrap();
        coo.to_csc()
    }

    fn singular_laplacian() -> CscMatrix {
        let mut coo = CooMatrix::new(4, 4);
        let deg = [1.0, 2.0, 2.0, 1.0];
        for i in 0..4 {
            coo.push(i, i, deg[i]).unwrap();
        }
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        coo.push_symmetric(2, 3, -1.0).unwrap();
        coo.to_csc()
    }

    /// `a` factored through the boost ladder.
    fn boosted(
        a: &CscMatrix,
        ordering: Ordering,
        threads: usize,
        schedule: BoostSchedule,
    ) -> Result<CholeskyFactor, SparseError> {
        CholeskyFactor::factorize(a, FactorOptions { ordering, threads, boost: Some(schedule) })
    }

    #[test]
    fn spd_input_takes_one_attempt_and_no_shift() {
        let a = spd();
        let f = boosted(&a, Ordering::MinDegree, 1, BoostSchedule::default()).unwrap();
        assert_eq!(f.applied_shift(), 0.0);
        let plain = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        assert_eq!(f.l().values(), plain.l().values());
        let x = f.solve(&[1.0, 2.0, 3.0, 4.0]);
        assert!(a.residual_inf_norm(&x, &[1.0, 2.0, 3.0, 4.0]) < 1e-12);
    }

    #[test]
    fn singular_input_recovers_with_reported_shift() {
        let l = singular_laplacian();
        assert!(matches!(
            CholeskyFactor::factorize(&l, Ordering::Natural),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
        let f = boosted(&l, Ordering::Natural, 1, BoostSchedule::default()).unwrap();
        assert!(f.applied_shift() > 0.0);
        // The shift is part of the input: the factor solves L + σI exactly.
        let boosted = l.add_diagonal(&[f.applied_shift(); 4]).unwrap();
        let x = f.solve(&[1.0, -1.0, 1.0, -1.0]);
        assert!(boosted.residual_inf_norm(&x, &[1.0, -1.0, 1.0, -1.0]) < 1e-9);
    }

    #[test]
    fn boosted_factor_is_bit_identical_across_thread_counts() {
        let l = singular_laplacian();
        let serial = boosted(&l, Ordering::MinDegree, 1, BoostSchedule::default()).unwrap();
        for threads in [2usize, 4] {
            let par = boosted(&l, Ordering::MinDegree, threads, BoostSchedule::default()).unwrap();
            assert_eq!(par.applied_shift(), serial.applied_shift());
            assert_eq!(par.l().values(), serial.l().values());
        }
    }

    #[test]
    fn non_finite_entries_are_typed_errors() {
        let mut a = spd();
        a.values_mut()[2] = f64::NAN;
        assert!(matches!(scan_non_finite(&a), Err(SparseError::NonFiniteValue { .. })));
        let err = boosted(&a, Ordering::Natural, 1, BoostSchedule::default())
            .expect_err("NaN input must not factor");
        assert!(matches!(err, SparseError::NonFiniteValue { .. }));
        let mut b = spd();
        *b.values_mut().last_mut().unwrap() = f64::INFINITY;
        assert!(matches!(scan_non_finite(&b), Err(SparseError::NonFiniteValue { .. })));
        assert!(scan_non_finite(&spd()).is_ok());
    }

    #[test]
    fn hopeless_matrix_reports_last_pivot_failure() {
        // -I is indefinite at any positive shift the default ladder
        // reaches relative to its unit diagonal scale... unless the ladder
        // climbs past 1.0. Pin a short ladder so it genuinely fails.
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let short = BoostSchedule { initial_relative: 1e-10, growth: 10.0, max_boosts: 3 };
        let err =
            boosted(&a, Ordering::Natural, 1, short).expect_err("short ladder cannot rescue -I");
        assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
        // A ladder that climbs past |diag| does rescue it.
        let tall = BoostSchedule { initial_relative: 1e-2, growth: 100.0, max_boosts: 4 };
        let f = boosted(&a, Ordering::Natural, 1, tall).unwrap();
        assert!(f.applied_shift() > 1.0);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let a = spd();
        for bad in [
            BoostSchedule { initial_relative: 0.0, ..Default::default() },
            BoostSchedule { initial_relative: f64::NAN, ..Default::default() },
            BoostSchedule { growth: 1.0, ..Default::default() },
            BoostSchedule { growth: f64::INFINITY, ..Default::default() },
            BoostSchedule { max_boosts: 0, ..Default::default() },
        ] {
            assert!(matches!(
                boosted(&a, Ordering::Natural, 1, bad),
                Err(SparseError::InvalidValue { .. })
            ));
        }
    }

    #[test]
    fn shift_ladder_is_geometric() {
        let s = BoostSchedule::default();
        let scale = 2.0;
        assert!((s.shift_at(1, scale) / s.shift_at(0, scale) - s.growth).abs() < 1e-9);
        assert!((s.shift_at(3, scale) / s.shift_at(2, scale) - s.growth).abs() < 1e-9);
    }
}
