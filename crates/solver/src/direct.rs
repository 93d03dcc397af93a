//! Direct sparse solver — the "Direct" baseline of the paper's Tables 2–3.
//!
//! In the paper this role is played by CHOLMOD \[Chen et al. 2008\]: factor
//! the SDD matrix once, then answer every right-hand side with forward and
//! backward substitutions. The trade-off it represents is central to the
//! evaluation: factorization of the *full* matrix is expensive in time and
//! memory, but each subsequent solve is cheap — until the matrix changes
//! (e.g. a new transient time step size), which forces a refactorization.

use std::time::{Duration, Instant};

use tracered_sparse::order::Ordering;
use tracered_sparse::{CholeskyFactor, CscMatrix, FactorOptions, SparseError};

/// A factor-once / solve-many direct solver.
///
/// # Example
///
/// ```
/// use tracered_graph::gen::{grid2d, WeightProfile};
/// use tracered_graph::laplacian::laplacian_with_shifts;
/// use tracered_solver::DirectSolver;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let g = grid2d(8, 8, WeightProfile::Unit, 0);
/// let a = laplacian_with_shifts(&g, &vec![0.1; 64]);
/// let solver = DirectSolver::new_threads(&a, 1)?;
/// let x = solver.solve(&vec![1.0; 64]);
/// assert!(a.residual_inf_norm(&x, &vec![1.0; 64]) < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DirectSolver {
    factor: CholeskyFactor,
    factor_time: Duration,
}

impl DirectSolver {
    /// Factorizes `a`, keeping whichever of approximate minimum degree
    /// and nested dissection gives the smaller symbolic fill, as CHOLMOD
    /// does before committing to a factorization. AMD wins on power-grid
    /// conductance matrices, nested dissection on 3-D meshes.
    ///
    /// The symbolic analysis picks the numeric kernel, as
    /// [`CholeskyFactor::factorize`] does: supernodal panels on fat
    /// factors (3-D meshes, large nested-dissection systems), the scalar
    /// up-looking kernel on thin ones. The numeric factorization runs on
    /// up to `threads` workers of the global pool (`<= 1` is serial),
    /// bit-identical to the serial factor at every count — only
    /// `factor_time` changes.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotPositiveDefinite`] for singular or
    /// indefinite input.
    pub fn new_threads(a: &CscMatrix, threads: usize) -> Result<Self, SparseError> {
        let t = Instant::now();
        let (_, perm, _) = tracered_sparse::order::select_ordering(
            a,
            &[Ordering::MinDegree, Ordering::NestedDissection],
        )?;
        let factor = CholeskyFactor::factorize_with_perm_kernel(a, perm, None, threads)?;
        Ok(DirectSolver { factor, factor_time: t.elapsed() })
    }

    /// [`DirectSolver::new_threads`] with an explicit ordering choice; the
    /// kernel follows the factor's shape in the same way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DirectSolver::new_threads`].
    pub fn with_ordering_threads(
        a: &CscMatrix,
        ordering: Ordering,
        threads: usize,
    ) -> Result<Self, SparseError> {
        let t = Instant::now();
        let factor =
            CholeskyFactor::factorize(a, FactorOptions { ordering, threads, boost: None })?;
        Ok(DirectSolver { factor, factor_time: t.elapsed() })
    }

    /// Solves `A x = b` by substitutions.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.factor.solve(b)
    }

    /// Solves into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        self.factor.solve_into(b, x);
    }

    /// Wall-clock time of the factorization.
    pub fn factor_time(&self) -> Duration {
        self.factor_time
    }

    /// Nonzeros in the factor.
    pub fn factor_nnz(&self) -> usize {
        self.factor.nnz()
    }

    /// Estimated memory footprint of the factor in bytes (the paper's
    /// `Mem` columns).
    pub fn memory_bytes(&self) -> usize {
        self.factor.memory_bytes()
    }

    /// The underlying factorization.
    pub fn factor(&self) -> &CholeskyFactor {
        &self.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracered_graph::gen::{grid3d, tri_mesh, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;
    use tracered_sparse::KernelVariant;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `solver`'s factor values, refactored with its permutation by an
    /// explicit kernel.
    fn forced_kernel_values(
        a: &CscMatrix,
        solver: &DirectSolver,
        kernel: KernelVariant,
    ) -> Vec<u64> {
        let perm = solver.factor().perm().clone();
        bits(CholeskyFactor::factorize_with_perm_kernel(a, perm, kernel, 1).unwrap().l().values())
    }

    #[test]
    fn many_rhs_share_one_factorization() {
        let g = tri_mesh(9, 9, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 4);
        let a = laplacian_with_shifts(&g, &vec![0.02; 81]);
        let solver = DirectSolver::new_threads(&a, 1).unwrap();
        for k in 0..5 {
            let b: Vec<f64> = (0..81).map(|i| ((i + k) as f64).sin()).collect();
            let x = solver.solve(&b);
            assert!(a.residual_inf_norm(&x, &b) < 1e-9);
        }
        assert!(solver.factor_nnz() >= 81);
        assert!(solver.memory_bytes() > 0);
        // A thin 2-D factor stays on the scalar kernel.
        assert_eq!(
            bits(solver.factor().l().values()),
            forced_kernel_values(&a, &solver, KernelVariant::Scalar)
        );
    }

    #[test]
    fn fat_factor_runs_supernodal_bit_identical_across_threads() {
        let g = grid3d(12, 12, 12, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 9);
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.02; n]);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let serial = DirectSolver::new_threads(&a, 1).unwrap();
        let expected = bits(serial.factor().l().values());
        assert_eq!(expected, forced_kernel_values(&a, &serial, KernelVariant::Supernodal));
        for threads in [1usize, 2, 4] {
            let solver = DirectSolver::new_threads(&a, threads).unwrap();
            assert_eq!(bits(solver.factor().l().values()), expected, "threads {threads}");
            assert!(a.residual_inf_norm(&solver.solve(&b), &b) < 1e-9, "threads {threads}");
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let g = tri_mesh(4, 4, WeightProfile::Unit, 0);
        let a = laplacian_with_shifts(&g, &[0.0; 16]);
        assert!(matches!(
            DirectSolver::new_threads(&a, 1),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn orderings_agree() {
        let g = tri_mesh(7, 7, WeightProfile::Unit, 1);
        let a = laplacian_with_shifts(&g, &vec![0.5; 49]);
        let b: Vec<f64> = (0..49).map(|i| (i as f64) * 0.01).collect();
        let x1 = DirectSolver::with_ordering_threads(&a, Ordering::Natural, 1).unwrap().solve(&b);
        let x2 = DirectSolver::with_ordering_threads(&a, Ordering::MinDegree, 1).unwrap().solve(&b);
        for i in 0..49 {
            assert!((x1[i] - x2[i]).abs() < 1e-9);
        }
    }
}
