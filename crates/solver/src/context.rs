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

use tracered_sparse::order::Ordering;
use tracered_sparse::regularize::{factorize_regularized_kernel, scan_non_finite};
use tracered_sparse::{BoostSchedule, CholeskyFactor, CscMatrix, KernelVariant, SparseError};

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
/// use tracered_sparse::BoostSchedule;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let g = grid2d(8, 8, WeightProfile::Unit, 3);
/// let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 64]));
/// let ctx = SolverContext::build(Arc::clone(&a), a, &BoostSchedule::default(), 1)?;
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
    applied_shift: f64,
    boost: BoostSchedule,
    factor_threads: usize,
    ordering: Ordering,
    kernel: KernelVariant,
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
    /// Builds a context by factorizing `precond_matrix` through the
    /// boosted ladder of [`tracered_sparse::regularize`] — the same
    /// factorization `robust_solve`'s stage 1 would perform per call,
    /// paid once here.
    ///
    /// # Errors
    ///
    /// - [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`]
    ///   on shape mismatches;
    /// - [`SparseError::NonFiniteValue`] for NaN/Inf matrix entries,
    ///   [`SparseError::InvalidValue`] for an invalid ladder;
    /// - the factorization error when every rung of the ladder fails on
    ///   the preconditioner matrix (unlike `robust_solve`, a context
    ///   build is strict: a service must not publish a context whose
    ///   preconditioner does not exist).
    pub fn build(
        system: Arc<CscMatrix>,
        precond_matrix: Arc<CscMatrix>,
        boost: &BoostSchedule,
        factor_threads: usize,
    ) -> Result<Self, SparseError> {
        Self::build_with(
            system,
            precond_matrix,
            boost,
            factor_threads,
            Ordering::MinDegree,
            KernelVariant::Scalar,
        )
    }

    /// [`SolverContext::build`] with explicit factorization knobs: the
    /// fill-reducing `ordering` and numeric `kernel` are used for the
    /// preconditioner factorization here *and* remembered for the lazy
    /// [`SolverContext::direct_factor`] — earlier revisions hardcoded
    /// min-degree in both places, ignoring the caller's configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`SolverContext::build`].
    pub fn build_with(
        system: Arc<CscMatrix>,
        precond_matrix: Arc<CscMatrix>,
        boost: &BoostSchedule,
        factor_threads: usize,
        ordering: Ordering,
        kernel: KernelVariant,
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
        boost.validate()?;
        scan_non_finite(&system)?;
        scan_non_finite(&precond_matrix)?;
        let ft = factor_threads.max(1);
        let rf = factorize_regularized_kernel(&precond_matrix, ordering, kernel, ft, boost)?;
        Ok(SolverContext::from_parts(
            system,
            precond_matrix,
            Arc::new(CholPreconditioner::from_factor(rf.factor)),
            rf.applied_shift,
            *boost,
            ft,
        )
        .with_factor_opts(ordering, kernel))
    }

    /// Assembles a context from an already-factorized preconditioner —
    /// for callers that built one through another path (e.g. a
    /// sparsifier pipeline) and want to share it without refactorizing.
    /// `applied_shift` is the diagonal boost baked into the factor
    /// (`0.0` when none was needed); `boost` and `factor_threads` govern
    /// the escalation-stage factorizations.
    pub fn from_parts(
        system: Arc<CscMatrix>,
        precond_matrix: Arc<CscMatrix>,
        preconditioner: Arc<CholPreconditioner>,
        applied_shift: f64,
        boost: BoostSchedule,
        factor_threads: usize,
    ) -> Self {
        SolverContext {
            system,
            precond_matrix,
            preconditioner,
            applied_shift,
            boost,
            factor_threads: factor_threads.max(1),
            ordering: Ordering::MinDegree,
            kernel: KernelVariant::Scalar,
            direct: Arc::new(OnceLock::new()),
        }
    }

    /// Sets the ordering and kernel used by factorizations this context
    /// performs later (the lazy direct factor). Call before the first
    /// [`SolverContext::direct_factor`]; the memoized factor is not
    /// rebuilt.
    #[must_use]
    pub fn with_factor_opts(mut self, ordering: Ordering, kernel: KernelVariant) -> Self {
        self.ordering = ordering;
        self.kernel = kernel;
        self
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

    /// Diagonal shift the boost ladder applied to the preconditioner
    /// matrix (`0.0` when it factorized cleanly).
    pub fn applied_shift(&self) -> f64 {
        self.applied_shift
    }

    /// The boost ladder used for escalation-stage factorizations.
    pub fn boost(&self) -> &BoostSchedule {
        &self.boost
    }

    /// Worker threads for factorizations performed through this context.
    pub fn factor_threads(&self) -> usize {
        self.factor_threads
    }

    /// Fill-reducing ordering for factorizations through this context.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// Numeric Cholesky kernel for factorizations through this context.
    pub fn kernel(&self) -> KernelVariant {
        self.kernel
    }

    /// A direct (boosted) factorization of the *system* matrix, built on
    /// first call and memoized — the multi-RHS direct engine of the
    /// service layer. Concurrent first calls may race to factorize; one
    /// result wins and the rest are dropped, so the cached factor is
    /// deterministic (the kernel is bit-identical at every thread count).
    ///
    /// # Errors
    ///
    /// The factorization error when every rung of the ladder fails on the
    /// system matrix; the failure is memoized like a success.
    pub fn direct_factor(&self) -> Result<Arc<CholeskyFactor>, SparseError> {
        self.direct
            .get_or_init(|| {
                factorize_regularized_kernel(
                    &self.system,
                    self.ordering,
                    self.kernel,
                    self.factor_threads,
                    &self.boost,
                )
                .map(|rf| Arc::new(rf.factor))
            })
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
        let ctx = SolverContext::build(Arc::clone(&a), m, &BoostSchedule::default(), 1).unwrap();
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
            SolverContext::build(Arc::clone(&a), small, &BoostSchedule::default(), 1),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut bad = (*a).clone();
        bad.values_mut()[0] = f64::NAN;
        assert!(matches!(
            SolverContext::build(Arc::new(bad), a, &BoostSchedule::default(), 1),
            Err(SparseError::NonFiniteValue { .. })
        ));
    }
}
