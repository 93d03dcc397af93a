//! Escalating solve: PCG → refreshed/boosted preconditioner → direct
//! factorization, with per-attempt diagnostics.
//!
//! [`robust_solve`] is the resilience entry point the service layer sits
//! on: instead of handing the caller a bare `converged: false`, it
//! classifies the failure ([`TerminationReason`]), escalates through a
//! configurable chain ([`RobustSolveConfig`]), and reports every attempt
//! it made ([`SolveAttempt`]) so a failed solve is a diagnosis, not a
//! shrug. Inputs are validated up front (non-finite scan on matrix and
//! right-hand side) and preconditioner factorizations go through the
//! boosted ladder of [`tracered_sparse::regularize`], so a singular
//! sparsifier Laplacian degrades into a shifted preconditioner rather
//! than an error.

#![warn(clippy::unwrap_used)]

use tracered_sparse::order::Ordering;
use tracered_sparse::regularize::{scan_non_finite, BoostSchedule};
use tracered_sparse::{CholeskyFactor, CscMatrix, FactorOptions, SparseError};

use crate::pcg::{pcg_with_guess, PcgOptions, PcgSolution};
use crate::precond::CholPreconditioner;
use crate::termination::TerminationReason;

/// Configuration for [`robust_solve`]'s escalation chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustSolveConfig {
    /// Options for the iterative stages.
    pub pcg: PcgOptions,
    /// Shift ladder used whenever a factorization (preconditioner or
    /// direct) hits a non-positive pivot.
    pub boost: BoostSchedule,
    /// Worker threads for factorizations (independent of `pcg.threads`).
    pub factor_threads: usize,
    /// Fill-reducing ordering used by **every** factorization in the
    /// chain (stage-1/2 preconditioners and the stage-3 direct factor).
    /// Earlier revisions hardcoded [`Ordering::MinDegree`] here, silently
    /// ignoring the caller's configured ordering on escalation.
    pub ordering: Ordering,
    /// Enable stage 2: retry PCG with a harder-boosted preconditioner,
    /// warm-started from the best stage-1 iterate.
    pub refresh_preconditioner: bool,
    /// Enable stage 3: fall back to a (possibly boosted) direct
    /// factorization of the system matrix itself.
    pub allow_direct: bool,
}

impl Default for RobustSolveConfig {
    fn default() -> Self {
        RobustSolveConfig {
            pcg: PcgOptions::default(),
            boost: BoostSchedule::default(),
            factor_threads: 1,
            ordering: Ordering::MinDegree,
            refresh_preconditioner: true,
            allow_direct: true,
        }
    }
}

/// Which rung of the escalation chain produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStrategy {
    /// Plain PCG with the caller's preconditioner matrix.
    Pcg,
    /// PCG with a re-boosted (refreshed) preconditioner, warm-started.
    RefreshedPcg,
    /// Direct factorization of the system matrix.
    Direct,
}

/// Diagnostics for one rung of the chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveAttempt {
    /// The strategy this attempt used.
    pub strategy: SolveStrategy,
    /// Why it stopped.
    pub reason: TerminationReason,
    /// Iterations performed (0 for direct solves).
    pub iterations: usize,
    /// Relative residual it reached.
    pub rel_residual: f64,
    /// Diagonal shift applied to the factorized matrix (preconditioner
    /// matrix for the iterative stages, system matrix for the direct
    /// stage); `0.0` when no boost was needed.
    pub applied_shift: f64,
}

/// Result of [`robust_solve`]: the accepted solution plus the full
/// attempt trail.
#[derive(Debug, Clone)]
pub struct RobustSolution {
    /// The accepted solution (from the last attempt).
    pub x: Vec<f64>,
    /// Strategy that produced `x`.
    pub strategy: SolveStrategy,
    /// Relative residual of `x` against the *original* system.
    pub rel_residual: f64,
    /// Termination classification of the accepted attempt.
    pub reason: TerminationReason,
    /// Every attempt made, in escalation order.
    pub attempts: Vec<SolveAttempt>,
}

impl RobustSolution {
    /// `true` when the accepted solution met the tolerance.
    pub fn converged(&self) -> bool {
        self.reason == TerminationReason::Converged
    }
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Relative residual `‖b − Ax‖₂ / ‖b‖₂` against the original system.
fn true_rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return norm2(x);
    }
    let ax = a.matvec(x);
    let mut rr = 0.0;
    for (bi, axi) in b.iter().zip(ax.iter()) {
        rr += (bi - axi) * (bi - axi);
    }
    rr.sqrt() / bnorm
}

fn classify_residual(rel: f64, tol: f64) -> TerminationReason {
    if !rel.is_finite() {
        TerminationReason::NonFinite
    } else if rel <= tol {
        TerminationReason::Converged
    } else {
        TerminationReason::Stagnation
    }
}

fn attempt_of(strategy: SolveStrategy, sol: &PcgSolution, shift: f64) -> SolveAttempt {
    SolveAttempt {
        strategy,
        reason: sol.reason,
        iterations: sol.iterations,
        rel_residual: sol.rel_residual,
        applied_shift: shift,
    }
}

/// Solves `A x = b` with escalating robustness: PCG preconditioned by a
/// boosted factorization of `precond_matrix`, then (on failure) PCG with
/// a harder-boosted refreshed preconditioner warm-started from the best
/// iterate, then a boosted direct factorization of `A` itself.
///
/// Unlike [`crate::pcg::pcg`], a non-converged iterative stage is not the
/// end: it is classified, recorded in the attempt trail, and escalated.
/// Only structurally hopeless inputs (non-finite entries, dimension
/// mismatches, a system matrix the entire shift ladder cannot factor
/// with stage 3 enabled) surface as `Err`.
///
/// # Example
///
/// A singular preconditioner matrix (an unshifted Laplacian) would make
/// [`CholPreconditioner::from_matrix`] fail outright; `robust_solve`
/// boosts it and converges anyway, reporting the shift it applied:
///
/// ```
/// use tracered_solver::robust::{robust_solve, RobustSolveConfig};
/// use tracered_sparse::CooMatrix;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// // SPD system: shifted path Laplacian.
/// let mut sys = CooMatrix::new(3, 3);
/// sys.push(0, 0, 1.1)?; sys.push(1, 1, 2.1)?; sys.push(2, 2, 1.1)?;
/// sys.push_symmetric(0, 1, -1.0)?;
/// sys.push_symmetric(1, 2, -1.0)?;
/// let a = sys.to_csc();
/// // Preconditioner matrix: the *unshifted* (singular) Laplacian.
/// let mut pm = CooMatrix::new(3, 3);
/// pm.push(0, 0, 1.0)?; pm.push(1, 1, 2.0)?; pm.push(2, 2, 1.0)?;
/// pm.push_symmetric(0, 1, -1.0)?;
/// pm.push_symmetric(1, 2, -1.0)?;
/// let m = pm.to_csc();
///
/// let sol = robust_solve(&a, &[1.0, 0.0, -1.0], &m, &RobustSolveConfig::default())?;
/// assert!(sol.converged());
/// assert!(sol.attempts[0].applied_shift > 0.0, "the boost must be reported");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// - [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`] on
///   shape mismatches;
/// - [`SparseError::NonFiniteValue`] for NaN/Inf entries in `a` or
///   `precond_matrix`, [`SparseError::InvalidValue`] for a non-finite
///   right-hand side or an invalid [`BoostSchedule`];
/// - the direct stage's factorization error when every rung of the
///   ladder fails on the system matrix itself.
pub fn robust_solve(
    a: &CscMatrix,
    b: &[f64],
    precond_matrix: &CscMatrix,
    cfg: &RobustSolveConfig,
) -> Result<RobustSolution, SparseError> {
    let n = a.ncols();
    if a.nrows() != n {
        return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: n });
    }
    if b.len() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: b.len() });
    }
    if precond_matrix.nrows() != n || precond_matrix.ncols() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: precond_matrix.ncols() });
    }
    cfg.boost.validate()?;
    scan_non_finite(a)?;
    scan_non_finite(precond_matrix)?;
    if let Some(i) = b.iter().position(|v| !v.is_finite()) {
        return Err(SparseError::InvalidValue {
            what: format!("non-finite right-hand side entry at index {i}"),
        });
    }
    let factor_opts = FactorOptions {
        ordering: cfg.ordering,
        threads: cfg.factor_threads,
        boost: Some(cfg.boost),
    };
    let tol = cfg.pcg.rel_tolerance;
    let mut attempts: Vec<SolveAttempt> = Vec::new();

    // Stage 1: PCG with the (boosted if necessary) factorization of the
    // caller's preconditioner matrix. An unfactorizable preconditioner is
    // not fatal — the chain continues without it.
    let mut best_x: Option<Vec<f64>> = None;
    let mut stage1_shift = 0.0;
    if let Ok(factor) = CholeskyFactor::factorize(precond_matrix, factor_opts) {
        stage1_shift = factor.applied_shift();
        let pre = CholPreconditioner::from_factor(factor);
        let sol = pcg_with_guess(a, b, None, &pre, &cfg.pcg);
        attempts.push(attempt_of(SolveStrategy::Pcg, &sol, stage1_shift));
        if sol.converged {
            return Ok(RobustSolution {
                rel_residual: sol.rel_residual,
                reason: sol.reason,
                x: sol.x,
                strategy: SolveStrategy::Pcg,
                attempts,
            });
        }
        best_x = Some(sol.x);
    }

    // Stage 2: refresh the preconditioner one rung harder than whatever
    // stage 1 used and warm-start from its best iterate. Skipped when
    // stage 1 never produced a preconditioner — more of the same ladder
    // would fail identically.
    if cfg.refresh_preconditioner {
        if let Some(guess) = best_x.as_deref() {
            let bump = if stage1_shift > 0.0 {
                stage1_shift * cfg.boost.growth
            } else {
                cfg.boost.shift_at(0, diagonal_scale(precond_matrix))
            };
            let bumped = precond_matrix.add_diagonal(&vec![bump; n])?;
            if let Ok(factor) = CholeskyFactor::factorize(&bumped, factor_opts) {
                let total_shift = bump + factor.applied_shift();
                let pre = CholPreconditioner::from_factor(factor);
                let sol = pcg_with_guess(a, b, Some(guess), &pre, &cfg.pcg);
                attempts.push(attempt_of(SolveStrategy::RefreshedPcg, &sol, total_shift));
                if sol.converged {
                    return Ok(RobustSolution {
                        rel_residual: sol.rel_residual,
                        reason: sol.reason,
                        x: sol.x,
                        strategy: SolveStrategy::RefreshedPcg,
                        attempts,
                    });
                }
                best_x = Some(sol.x);
            }
        }
    }

    // Stage 3: boosted direct factorization of the system matrix. The
    // residual is measured against the *original* matrix, so a shifted
    // factorization of a genuinely singular system honestly reports the
    // perturbation error instead of claiming convergence.
    if cfg.allow_direct {
        let factor = CholeskyFactor::factorize(a, factor_opts)?;
        let x = factor.solve(b);
        let rel = true_rel_residual(a, &x, b);
        let reason = classify_residual(rel, tol);
        attempts.push(SolveAttempt {
            strategy: SolveStrategy::Direct,
            reason,
            iterations: 0,
            rel_residual: rel,
            applied_shift: factor.applied_shift(),
        });
        return Ok(RobustSolution {
            x,
            strategy: SolveStrategy::Direct,
            rel_residual: rel,
            reason,
            attempts,
        });
    }

    // Every enabled stage failed to converge: hand back the best iterate
    // with its classification rather than erroring — callers distinguish
    // "no answer" from "answer below tolerance" via `converged()`.
    let x = best_x.unwrap_or_else(|| vec![0.0; n]);
    let rel = true_rel_residual(a, &x, b);
    let (strategy, reason) = match attempts.last() {
        Some(last) => (last.strategy, last.reason),
        None => (SolveStrategy::Pcg, TerminationReason::Stagnation),
    };
    Ok(RobustSolution { x, strategy, rel_residual: rel, reason, attempts })
}

/// Mean absolute diagonal — mirrors the scale used by the boost ladder.
fn diagonal_scale(a: &CscMatrix) -> f64 {
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
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::{laplacian, laplacian_with_shifts, ShiftPolicy};

    fn system() -> (CscMatrix, CscMatrix, Vec<f64>) {
        let g = grid2d(10, 10, WeightProfile::Unit, 2);
        let a = laplacian_with_shifts(&g, &vec![0.05; 100]);
        let m = a.clone();
        let b: Vec<f64> = (0..100).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        (a, m, b)
    }

    /// The diagonal of `a` as a matrix — a Jacobi-grade preconditioner
    /// that cannot converge a grid Laplacian in one iteration.
    fn weak_precond(a: &CscMatrix) -> CscMatrix {
        let mut coo = tracered_sparse::CooMatrix::new(a.nrows(), a.ncols());
        for (i, &d) in a.diagonal().iter().enumerate() {
            coo.push(i, i, d).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn healthy_system_stops_at_stage_one() {
        let (a, m, b) = system();
        let sol = robust_solve(&a, &b, &m, &RobustSolveConfig::default()).unwrap();
        assert!(sol.converged());
        assert_eq!(sol.strategy, SolveStrategy::Pcg);
        assert_eq!(sol.attempts.len(), 1);
        assert_eq!(sol.attempts[0].applied_shift, 0.0);
        assert!(a.residual_inf_norm(&sol.x, &b) < 1e-2);
    }

    #[test]
    fn singular_preconditioner_matrix_is_boosted_not_fatal() {
        let g = grid2d(10, 10, WeightProfile::Unit, 2);
        let a = laplacian_with_shifts(&g, &vec![0.05; 100]);
        let m = laplacian(&g, ShiftPolicy::None).unwrap(); // unshifted: singular
        let b: Vec<f64> = (0..100).map(|i| ((i * 13 % 11) as f64) - 5.0).collect();
        let sol = robust_solve(&a, &b, &m, &RobustSolveConfig::default()).unwrap();
        assert!(sol.converged());
        assert!(sol.attempts[0].applied_shift > 0.0, "shift must be reported");
    }

    #[test]
    fn failed_pcg_escalates_to_direct() {
        let (a, _, b) = system();
        let m = weak_precond(&a);
        let cfg = RobustSolveConfig {
            pcg: PcgOptions { rel_tolerance: 1e-12, max_iterations: 1, ..Default::default() },
            ..Default::default()
        };
        let sol = robust_solve(&a, &b, &m, &cfg).unwrap();
        assert!(sol.converged());
        assert_eq!(sol.strategy, SolveStrategy::Direct);
        assert_eq!(sol.attempts.len(), 3, "all three rungs must be recorded");
        assert_eq!(sol.attempts[0].strategy, SolveStrategy::Pcg);
        assert_eq!(sol.attempts[0].reason, TerminationReason::MaxIterations);
        assert_eq!(sol.attempts[1].strategy, SolveStrategy::RefreshedPcg);
        assert_eq!(sol.attempts[2].strategy, SolveStrategy::Direct);
        assert!(sol.rel_residual <= 1e-12);
    }

    #[test]
    fn chain_without_direct_returns_best_iterate() {
        let (a, _, b) = system();
        let m = weak_precond(&a);
        let cfg = RobustSolveConfig {
            pcg: PcgOptions { rel_tolerance: 1e-12, max_iterations: 1, ..Default::default() },
            allow_direct: false,
            ..Default::default()
        };
        let sol = robust_solve(&a, &b, &m, &cfg).unwrap();
        assert!(!sol.converged());
        assert_eq!(sol.reason, TerminationReason::MaxIterations);
        assert_eq!(sol.attempts.len(), 2);
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_inputs_are_typed_errors() {
        let (a, m, b) = system();
        let mut bad_a = a.clone();
        bad_a.values_mut()[0] = f64::NAN;
        assert!(matches!(
            robust_solve(&bad_a, &b, &m, &RobustSolveConfig::default()),
            Err(SparseError::NonFiniteValue { .. })
        ));
        let mut bad_b = b.clone();
        bad_b[42] = f64::INFINITY;
        assert!(matches!(
            robust_solve(&a, &bad_b, &m, &RobustSolveConfig::default()),
            Err(SparseError::InvalidValue { .. })
        ));
        let mut bad_m = m.clone();
        bad_m.values_mut()[7] = f64::NEG_INFINITY;
        assert!(matches!(
            robust_solve(&a, &b, &bad_m, &RobustSolveConfig::default()),
            Err(SparseError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let (a, m, b) = system();
        assert!(matches!(
            robust_solve(&a, &b[..50], &m, &RobustSolveConfig::default()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let small = {
            let g = grid2d(3, 3, WeightProfile::Unit, 1);
            laplacian_with_shifts(&g, &[0.1; 9])
        };
        assert!(matches!(
            robust_solve(&a, &b, &small, &RobustSolveConfig::default()),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    /// A Jacobi-grade preconditioner and a 1-iteration cap force the
    /// chain all the way to the direct stage, which must factor with the
    /// caller's ordering (it used to hardcode min-degree): its answer is
    /// bit for bit the solve through a nested-dissection factor of `a`.
    #[test]
    fn escalation_honors_configured_ordering() {
        let g = tracered_graph::gen::tri_mesh(12, 12, WeightProfile::Unit, 3);
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.05; n]);
        let m = weak_precond(&a);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let cfg = RobustSolveConfig {
            pcg: PcgOptions { rel_tolerance: 1e-10, max_iterations: 1, ..Default::default() },
            ordering: Ordering::NestedDissection,
            ..Default::default()
        };
        let sol = robust_solve(&a, &b, &m, &cfg).unwrap();
        assert!(sol.converged());
        assert_eq!(sol.strategy, SolveStrategy::Direct);
        assert!(a.residual_inf_norm(&sol.x, &b) < 1e-6);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let solve = |ord: Ordering| CholeskyFactor::factorize(&a, ord).unwrap().solve(&b);
        assert_eq!(bits(&sol.x), bits(&solve(Ordering::NestedDissection)));
        assert_ne!(bits(&sol.x), bits(&solve(Ordering::MinDegree)));
    }
}
