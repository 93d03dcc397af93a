//! Preconditioners for the conjugate-gradient solver.

use tracered_sparse::ichol::IncompleteCholesky;
use tracered_sparse::order::Ordering;
use tracered_sparse::{CholeskyFactor, CscMatrix, FactorOptions, MultiVec, SparseError};

/// Application of a symmetric positive definite preconditioner `M⁻¹`.
pub trait Preconditioner {
    /// Computes `z = M⁻¹ r`, overwriting `z`.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `r.len() != z.len()` or the lengths
    /// disagree with the preconditioner dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Computes `Z = M⁻¹ R` column by column, overwriting `z` — the
    /// multi-RHS form used by the block-PCG solver.
    ///
    /// The default delegates to [`Preconditioner::apply`] per column;
    /// implementations with a blocked kernel (notably
    /// [`CholPreconditioner`], whose batched triangular solves stream the
    /// factor once for all columns) override it. Overrides must keep the
    /// per-column arithmetic of `apply` (signed zeros excepted) so block
    /// PCG stays column-for-column equivalent to single-RHS PCG.
    ///
    /// # Panics
    ///
    /// Implementations may panic when the shapes of `r` and `z` disagree
    /// with each other or the preconditioner dimension.
    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        assert_eq!(r.ncols(), z.ncols(), "input and output widths must match");
        for (rc, zc) in r.cols().zip(z.cols_mut()) {
            self.apply(rc, zc);
        }
    }

    /// Estimated memory footprint of the preconditioner in bytes.
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from a matrix's diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidValue`] when a diagonal entry is not
    /// strictly positive.
    pub fn from_matrix(a: &CscMatrix) -> Result<Self, SparseError> {
        let diag = a.diagonal();
        let mut inv_diag = Vec::with_capacity(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::InvalidValue {
                    what: format!("non-positive diagonal {d} at {i}"),
                });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(JacobiPreconditioner { inv_diag })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r.iter()).zip(self.inv_diag.iter()) {
            *zi = ri * di;
        }
    }

    fn memory_bytes(&self) -> usize {
        self.inv_diag.len() * std::mem::size_of::<f64>()
    }
}

/// Cholesky preconditioner: `M = L_P` for a sparsifier Laplacian `L_P`,
/// applied through sparse triangular solves. This is the paper's
/// evaluation vehicle: factor the sparsifier once (with CHOLMOD in the
/// paper, with [`CholeskyFactor`] here) and reuse it across all PCG
/// solves.
#[derive(Debug, Clone)]
pub struct CholPreconditioner {
    factor: CholeskyFactor,
}

impl CholPreconditioner {
    /// Factorizes `m` (e.g. a shifted sparsifier Laplacian) with the
    /// min-degree ordering.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] when `m` is singular or
    /// indefinite.
    pub fn from_matrix(m: &CscMatrix) -> Result<Self, SparseError> {
        Self::from_matrix_threads(m, 1)
    }

    /// [`CholPreconditioner::from_matrix`] with the numeric factorization
    /// split across up to `threads` pool workers
    /// ([`CholeskyFactor::factorize`]). The factor — and hence every PCG
    /// iterate preconditioned by it — is bit-identical to the serial build
    /// at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] when `m` is singular or
    /// indefinite.
    pub fn from_matrix_threads(m: &CscMatrix, threads: usize) -> Result<Self, SparseError> {
        let opts = FactorOptions { threads, ..Ordering::MinDegree.into() };
        Ok(CholPreconditioner { factor: CholeskyFactor::factorize(m, opts)? })
    }

    /// Wraps an existing factorization.
    pub fn from_factor(factor: CholeskyFactor) -> Self {
        CholPreconditioner { factor }
    }

    /// The underlying factorization.
    pub fn factor(&self) -> &CholeskyFactor {
        &self.factor
    }
}

impl Preconditioner for CholPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.factor.solve_into(r, z);
    }

    fn apply_multi(&self, r: &MultiVec, z: &mut MultiVec) {
        self.factor.solve_multi_into(r, z);
    }

    fn memory_bytes(&self) -> usize {
        self.factor.memory_bytes()
    }
}

/// Zero-fill incomplete Cholesky preconditioner, the conventional
/// baseline the paper's sparsifier preconditioners are an alternative
/// to: same memory order as the matrix itself, but iteration counts that
/// grow with problem size where the sparsifier's stay nearly flat.
#[derive(Debug, Clone)]
pub struct IcPreconditioner {
    ic: IncompleteCholesky,
}

impl IcPreconditioner {
    /// Computes IC(0) of `m` (see
    /// [`tracered_sparse::ichol::IncompleteCholesky`]).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] for matrices where the
    /// restricted pivots break down.
    pub fn from_matrix(m: &CscMatrix) -> Result<Self, SparseError> {
        Ok(IcPreconditioner { ic: IncompleteCholesky::factorize(m)? })
    }
}

impl Preconditioner for IcPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.ic.apply_in_place(z);
    }

    fn memory_bytes(&self) -> usize {
        self.ic.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracered_sparse::CooMatrix;

    fn spd() -> CscMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        coo.push(2, 2, 6.0).unwrap();
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.to_csc()
    }

    #[test]
    fn identity_copies() {
        let mut z = vec![0.0; 3];
        IdentityPreconditioner.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn jacobi_scales_by_inverse_diagonal() {
        let p = JacobiPreconditioner::from_matrix(&spd()).unwrap();
        let mut z = vec![0.0; 3];
        p.apply(&[4.0, 10.0, 12.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 2.0]);
        assert!(p.memory_bytes() > 0);
    }

    #[test]
    fn jacobi_rejects_nonpositive_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        let a = coo.to_csc();
        assert!(JacobiPreconditioner::from_matrix(&a).is_err());
    }

    #[test]
    fn ic_preconditioner_applies_and_reports_memory() {
        let a = spd();
        let p = IcPreconditioner::from_matrix(&a).unwrap();
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        assert!(p.memory_bytes() > 0);
        // spd() has an arrow-free pattern (only (0,1) off-diagonal), so
        // IC(0) is exact here.
        assert!(a.residual_inf_norm(&z, &[1.0, 2.0, 3.0]) < 1e-12);
    }

    #[test]
    fn apply_multi_matches_apply_per_column() {
        let a = spd();
        let cols = [vec![1.0, 2.0, 3.0], vec![-4.0, 0.0, 2.5]];
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let r = MultiVec::from_columns(&refs).unwrap();
        let chol = CholPreconditioner::from_matrix(&a).unwrap();
        let jacobi = JacobiPreconditioner::from_matrix(&a).unwrap();
        let pres: [&dyn Preconditioner; 3] = [&chol, &jacobi, &IdentityPreconditioner];
        for pre in pres {
            let mut z = MultiVec::zeros(3, 2);
            pre.apply_multi(&r, &mut z);
            for (c, col) in cols.iter().enumerate() {
                let mut single = vec![0.0; 3];
                pre.apply(col, &mut single);
                for (s, m) in single.iter().zip(z.col(c).iter()) {
                    assert!((s - m).abs() == 0.0, "column {c}");
                }
            }
        }
    }

    #[test]
    fn cholesky_preconditioner_is_exact_solve() {
        let a = spd();
        let p = CholPreconditioner::from_matrix(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        p.apply(&b, &mut z);
        assert!(a.residual_inf_norm(&z, &b) < 1e-12);
        assert!(p.memory_bytes() > 0);
    }
}
