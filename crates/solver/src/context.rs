//! Shared, immutable solver contexts: the ownership layer under the
//! solver service.
//!
//! Historically every entry point in this workspace threaded matrices and
//! factors **by value or fresh reference** through free functions —
//! [`crate::robust::robust_solve`] refactorized the preconditioner matrix
//! on every call, and each batch engine rebuilt its own operators. That is
//! fine for one-shot batch programs and wrong for a long-running service,
//! where thousands of requests share one topology and the factorization
//! must be paid once.
//!
//! [`SolverContext`] bundles the immutable pieces of a solve — system
//! matrix, preconditioner matrix, and the factorized preconditioner —
//! behind `Arc`s, so concurrent request handlers share them at pointer
//! cost. The context is strictly read-only after construction (the lazily
//! built direct factor is memoized through a [`OnceLock`], preserving
//! `Sync`), and a compile-time assertion pins the `Send + Sync` audit.

use std::sync::{Arc, OnceLock};

use tracered_sparse::regularize::scan_non_finite;
use tracered_sparse::{CholeskyFactor, CscMatrix, FactorOptions, SparseError};

use crate::precond::{CholPreconditioner, Preconditioner};

/// An immutable, `Arc`-shared bundle of everything a solve needs besides
/// the right-hand side: the system matrix, the preconditioner matrix it
/// was built from, and the factorized preconditioner.
///
/// Cloning a `SolverContext` (or wrapping it in another `Arc`) is cheap:
/// all heavy state is behind shared pointers. Contexts are the unit the
/// service layer caches and publishes per epoch.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tracered_graph::gen::{grid2d, WeightProfile};
/// use tracered_graph::laplacian::laplacian_with_shifts;
/// use tracered_solver::context::SolverContext;
/// use tracered_solver::pcg::{pcg, PcgOptions};
/// use tracered_sparse::{BoostSchedule, FactorOptions};
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let g = grid2d(8, 8, WeightProfile::Unit, 3);
/// let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 64]));
/// let opts = FactorOptions { boost: Some(BoostSchedule::default()), ..Default::default() };
/// let ctx = SolverContext::build(Arc::clone(&a), a, opts)?;
/// // The factorization above is paid once; every request reuses it.
/// for seed in 0..3u64 {
///     let b: Vec<f64> = (0..64).map(|i| ((i as u64 * 7 + seed) % 5) as f64 - 2.0).collect();
///     let sol = pcg(ctx.system(), &b, ctx.preconditioner(), &PcgOptions::default());
///     assert!(sol.converged);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SolverContext {
    system: Arc<CscMatrix>,
    precond_matrix: Arc<CscMatrix>,
    preconditioner: Arc<CholPreconditioner>,
    /// Options of both factorizations: the preconditioner's and the
    /// lazy direct factor's.
    opts: FactorOptions,
    /// Direct factorization of the system matrix, built on first use by
    /// [`SolverContext::direct_factor`] and shared afterwards.
    direct: Arc<OnceLock<Result<Arc<CholeskyFactor>, SparseError>>>,
}

// Shared-handle audit: request handlers on arbitrary threads hold these.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolverContext>();
    assert_send_sync::<CholPreconditioner>();
};

impl SolverContext {
    /// Builds a context by factorizing `precond_matrix` with `opts` —
    /// with a boost ladder, the same factorization `robust_solve`'s
    /// stage 1 would perform per call, paid once here. The lazy
    /// [`SolverContext::direct_factor`] uses the same `opts`, so the
    /// caller's ordering reaches both factors. The diagonal shift a
    /// boost applied is `preconditioner().factor().applied_shift()`.
    ///
    /// # Errors
    ///
    /// - [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`]
    ///   on shape mismatches;
    /// - [`SparseError::NonFiniteValue`] for NaN/Inf matrix entries,
    ///   [`SparseError::InvalidValue`] for an invalid ladder;
    /// - the factorization error when the preconditioner matrix does not
    ///   factor (with a ladder: when every rung fails). Unlike
    ///   `robust_solve`, a context build is strict: a service must not
    ///   publish a context whose preconditioner does not exist.
    pub fn build(
        system: Arc<CscMatrix>,
        precond_matrix: Arc<CscMatrix>,
        opts: FactorOptions,
    ) -> Result<Self, SparseError> {
        let n = system.ncols();
        if system.nrows() != n {
            return Err(SparseError::NotSquare { nrows: system.nrows(), ncols: n });
        }
        if precond_matrix.nrows() != n || precond_matrix.ncols() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                found: precond_matrix.ncols(),
            });
        }
        scan_non_finite(&system)?;
        scan_non_finite(&precond_matrix)?;
        let factor = CholeskyFactor::factorize(&precond_matrix, opts)?;
        Ok(SolverContext {
            system,
            precond_matrix,
            preconditioner: Arc::new(CholPreconditioner::from_factor(factor)),
            opts,
            direct: Arc::new(OnceLock::new()),
        })
    }

    /// Problem dimension `n`.
    pub fn dimension(&self) -> usize {
        self.system.ncols()
    }

    /// The system matrix.
    pub fn system(&self) -> &CscMatrix {
        &self.system
    }

    /// The matrix the preconditioner was factorized from.
    pub fn precond_matrix(&self) -> &CscMatrix {
        &self.precond_matrix
    }

    /// The factorized preconditioner.
    pub fn preconditioner(&self) -> &CholPreconditioner {
        &self.preconditioner
    }

    /// A direct factorization of the *system* matrix with the context's
    /// [`FactorOptions`], built on first call and memoized — the
    /// multi-RHS direct engine of the service layer. Concurrent first calls may race to factorize; one
    /// result wins and the rest are dropped, so the cached factor is
    /// deterministic (the kernel is bit-identical at every thread count).
    ///
    /// # Errors
    ///
    /// The factorization error when the system matrix does not factor
    /// (with a ladder: when every rung fails); the failure is memoized
    /// like a success.
    pub fn direct_factor(&self) -> Result<Arc<CholeskyFactor>, SparseError> {
        self.direct
            .get_or_init(|| CholeskyFactor::factorize(&self.system, self.opts).map(Arc::new))
            .clone()
    }

    /// Estimated resident footprint: matrices plus preconditioner factor
    /// (the lazy direct factor is counted once built).
    pub fn memory_bytes(&self) -> usize {
        let direct = match self.direct.get() {
            Some(Ok(f)) => f.memory_bytes(),
            _ => 0,
        };
        self.system.memory_bytes()
            + self.precond_matrix.memory_bytes()
            + self.preconditioner.memory_bytes()
            + direct
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;
    use tracered_sparse::order::Ordering;
    use tracered_sparse::BoostSchedule;

    /// The options the service builds contexts with.
    fn boosted() -> FactorOptions {
        FactorOptions { boost: Some(BoostSchedule::default()), ..Default::default() }
    }

    fn system() -> (Arc<CscMatrix>, Arc<CscMatrix>, Vec<f64>) {
        let g = grid2d(10, 10, WeightProfile::Unit, 2);
        let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 100]));
        let m = Arc::clone(&a);
        let b: Vec<f64> = (0..100).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        (a, m, b)
    }

    #[test]
    fn direct_factor_is_memoized_and_solves() {
        let (a, m, b) = system();
        let ctx = SolverContext::build(Arc::clone(&a), m, boosted()).unwrap();
        let f1 = ctx.direct_factor().unwrap();
        let f2 = ctx.direct_factor().unwrap();
        assert_eq!(Arc::as_ptr(&f1), Arc::as_ptr(&f2), "second call must hit the memo");
        let x = f1.solve(&b);
        assert!(a.residual_inf_norm(&x, &b) < 1e-8);
    }

    #[test]
    fn build_rejects_malformed_inputs() {
        let (a, _, _) = system();
        let g = grid2d(3, 3, WeightProfile::Unit, 1);
        let small = Arc::new(laplacian_with_shifts(&g, &[0.1; 9]));
        assert!(matches!(
            SolverContext::build(Arc::clone(&a), small, boosted()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut bad = (*a).clone();
        bad.values_mut()[0] = f64::NAN;
        assert!(matches!(
            SolverContext::build(Arc::new(bad), a, boosted()),
            Err(SparseError::NonFiniteValue { .. })
        ));
    }

    /// The context's ordering must reach both of its factors: the
    /// preconditioner built here and the lazy direct factor.
    #[test]
    fn ordering_reaches_both_factors() {
        let (a, m, _) = system();
        for ordering in [Ordering::NestedDissection, Ordering::MinDegree] {
            let opts = FactorOptions { ordering, ..boosted() };
            let ctx = SolverContext::build(Arc::clone(&a), Arc::clone(&m), opts).unwrap();
            let expected = ordering.compute(&a).unwrap();
            assert_eq!(ctx.preconditioner().factor().perm(), &expected, "{ordering:?}");
            assert_eq!(ctx.direct_factor().unwrap().perm(), &expected, "{ordering:?}");
        }
        // The default options order with minimum degree, and the two
        // orderings differ on this grid, so the check above has teeth.
        let ctx = SolverContext::build(Arc::clone(&a), m, FactorOptions::default()).unwrap();
        let md = Ordering::MinDegree.compute(&a).unwrap();
        assert_eq!(ctx.preconditioner().factor().perm(), &md);
        assert_eq!(ctx.direct_factor().unwrap().perm(), &md);
        assert_ne!(Ordering::NestedDissection.compute(&a).unwrap(), md);
    }
}
