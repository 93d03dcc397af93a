//! Preconditioned conjugate gradient for SPD systems.

use tracered_sparse::{par_dot, par_xpby, CscMatrix};

use crate::precond::Preconditioner;
use crate::termination::{TerminationReason, STAGNATION_WINDOW};

/// Options for [`pcg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgOptions {
    /// Convergence threshold on the relative residual `‖r‖₂ / ‖b‖₂`
    /// (the paper uses `1e-3` for sparsification experiments and `1e-6`
    /// for power-grid transient steps).
    pub rel_tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Worker threads for the SpMV and vector kernels of
    /// [`tracered_sparse`]: the symmetric row-gather matvec, the
    /// fixed-chunk dot product and the fused vector updates, which
    /// every count runs (`1`, the default, runs them with no workers).
    /// Each output entry and each reduction chunk is computed in an
    /// order the count never changes, so solutions and iteration counts
    /// are bit-identical at every thread count.
    pub threads: usize,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions { rel_tolerance: 1e-3, max_iterations: 10_000, threads: 1 }
    }
}

impl PcgOptions {
    /// Options with a given relative tolerance and the default iteration
    /// cap.
    pub fn with_tolerance(rel_tolerance: f64) -> Self {
        PcgOptions { rel_tolerance, ..Default::default() }
    }

    /// Sets the worker-thread count for SpMV and vector kernels.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Result of a PCG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PcgSolution {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Number of iterations performed (the paper's `N_i`).
    pub iterations: usize,
    /// Final relative residual.
    pub rel_residual: f64,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
    /// Why the iteration stopped — breakdowns that used to exit
    /// silently ([`TerminationReason::IndefiniteOperator`],
    /// [`TerminationReason::NonFinite`], …) are now classified here.
    pub reason: TerminationReason,
}

/// Solves `A x = b` by preconditioned conjugate gradient from a zero
/// initial guess.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn pcg<P: Preconditioner>(
    a: &CscMatrix,
    b: &[f64],
    preconditioner: &P,
    options: &PcgOptions,
) -> PcgSolution {
    pcg_with_guess(a, b, None, preconditioner, options)
}

/// Solves `A x = b` starting from an optional initial guess `x0` — warm
/// starts matter in transient simulation, where consecutive time steps
/// have nearby solutions.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn pcg_with_guess<P: Preconditioner>(
    a: &CscMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &P,
    options: &PcgOptions,
) -> PcgSolution {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must equal n");
    let mut span = tracered_obs::span!("pcg.solve", { n: n, tol: options.rel_tolerance });
    let t = options.threads.max(1);
    // The SpMV reads the matrix row-wise, which computes Aᵀx — wrong for
    // asymmetric input. PCG requires symmetry anyway, so this is a
    // debug-build aid, checked once per solve with a value tolerance
    // rather than bit equality (assembly order may differ across the two
    // triangles by an ulp).
    debug_assert!(a.is_symmetric_within(1e-9 * matrix_scale(a)), "PCG requires a symmetric matrix");
    let spmv = |v: &[f64], out: &mut [f64]| a.sym_matvec_into_threads(v, out, t);
    let dot_t = |u: &[f64], v: &[f64]| par_dot(u, v, t);
    let norm_t = |v: &[f64]| dot_t(v, v).sqrt();

    let bnorm = norm_t(b);
    if bnorm == 0.0 {
        return PcgSolution {
            x: vec![0.0; n],
            iterations: 0,
            rel_residual: 0.0,
            converged: true,
            reason: TerminationReason::Converged,
        };
    }
    let mut x = match x0 {
        Some(v) => {
            assert_eq!(v.len(), n, "guess length must equal n");
            v.to_vec()
        }
        None => vec![0.0; n],
    };
    // r = b − A x
    let mut r = vec![0.0; n];
    spmv(&x, &mut r);
    for (ri, &bi) in r.iter_mut().zip(b.iter()) {
        *ri = bi - *ri;
    }
    let mut z = vec![0.0; n];
    preconditioner.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz: f64 = dot_t(&r, &z);
    let mut ap = vec![0.0; n];
    let mut rel = norm_t(&r) / bnorm;
    let mut iterations = 0;
    let mut reason = TerminationReason::MaxIterations;
    // Stagnation detection: a breakdown that manifests as a residual
    // that never improves (e.g. a preconditioner that keeps cancelling
    // the step) rather than as a sign or NaN anomaly.
    let mut best_rel = rel;
    let mut since_improve = 0usize;
    while rel > options.rel_tolerance && iterations < options.max_iterations {
        spmv(&p, &mut ap);
        let pap = dot_t(&p, &ap);
        if !pap.is_finite() {
            reason = TerminationReason::NonFinite;
            break; // bail out with best iterate
        }
        if pap <= 0.0 {
            reason = TerminationReason::IndefiniteOperator;
            break; // matrix not SPD along p; bail out with best iterate
        }
        let alpha = rz / pap;
        step(&mut x, &mut r, alpha, &p, &ap, t);
        iterations += 1;
        rel = norm_t(&r) / bnorm;
        // Optional convergence trace: one instant event per iteration,
        // gated behind the separate high-volume flag so default traces
        // of long solves stay small.
        if tracered_obs::iter_events_enabled() {
            tracered_obs::event!("pcg.iter", { iter: iterations, rel: rel });
        }
        if !rel.is_finite() {
            reason = TerminationReason::NonFinite;
            break;
        }
        if rel <= options.rel_tolerance {
            break; // classified Converged below
        }
        if rel < best_rel {
            best_rel = rel;
            since_improve = 0;
        } else {
            since_improve += 1;
            if since_improve >= STAGNATION_WINDOW {
                reason = TerminationReason::Stagnation;
                break;
            }
        }
        preconditioner.apply(&r, &mut z);
        let rz_next = dot_t(&r, &z);
        if !rz_next.is_finite() {
            reason = TerminationReason::NonFinite;
            break;
        }
        if rz_next <= 0.0 {
            reason = TerminationReason::IndefinitePreconditioner;
            break;
        }
        let beta = rz_next / rz;
        rz = rz_next;
        par_xpby(&mut p, beta, &z, t);
    }
    let converged = rel <= options.rel_tolerance;
    if converged {
        // Covers both the in-loop tolerance break and a warm start that
        // was already converged at entry.
        reason = TerminationReason::Converged;
    } else if !rel.is_finite() {
        // A NaN rhs or guess poisons `rel` before the first iteration;
        // the NaN comparison then skips the loop entirely.
        reason = TerminationReason::NonFinite;
    }
    if let Some(g) = span.as_mut() {
        g.arg("iterations", iterations as f64);
        g.arg("rel_residual", rel);
        g.arg("reason", f64::from(reason.code()));
    }
    PcgSolution { x, iterations, rel_residual: rel, converged, reason }
}

/// The fused PCG step `x ← x + α p`, `r ← r − α Ap`: one parallel region
/// and one memory pass over both vectors instead of two axpy rounds.
/// Element-wise, so the result is bit-identical at every thread count.
pub(crate) fn step(x: &mut [f64], r: &mut [f64], alpha: f64, p: &[f64], ap: &[f64], t: usize) {
    let chunk = tracered_par::chunk_size(x.len(), t, 4096);
    tracered_par::par_chunks2_mut(x, r, chunk, t, |start, xs, rs| {
        let end = start + xs.len();
        let pairs = xs.iter_mut().zip(rs.iter_mut());
        for ((xi, ri), (&pi, &api)) in pairs.zip(p[start..end].iter().zip(&ap[start..end])) {
            *xi += alpha * pi;
            *ri -= alpha * api;
        }
    });
}

/// Largest absolute stored value — the natural scale for the relative
/// symmetry tolerance in the debug-build checks of [`pcg_with_guess`]
/// and [`crate::block::block_pcg_with_guess`].
pub(crate) fn matrix_scale(a: &CscMatrix) -> f64 {
    a.values().iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
fn norm2(v: &[f64]) -> f64 {
    par_dot(v, v, 1).sqrt()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::precond::{CholPreconditioner, IdentityPreconditioner, JacobiPreconditioner};
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;

    fn system() -> (CscMatrix, Vec<f64>) {
        let g = grid2d(10, 10, WeightProfile::Unit, 2);
        let a = laplacian_with_shifts(&g, &vec![0.05; 100]);
        let b: Vec<f64> = (0..100).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        (a, b)
    }

    #[test]
    fn cg_converges_on_spd_system() {
        let (a, b) = system();
        let sol = pcg(&a, &b, &IdentityPreconditioner, &PcgOptions::with_tolerance(1e-8));
        assert!(sol.converged);
        assert!(a.residual_inf_norm(&sol.x, &b) < 1e-5);
    }

    #[test]
    fn jacobi_never_worse_than_plain_cg_here() {
        let (a, b) = system();
        let opts = PcgOptions::with_tolerance(1e-8);
        let plain = pcg(&a, &b, &IdentityPreconditioner, &opts);
        let jacobi = pcg(&a, &b, &JacobiPreconditioner::from_matrix(&a).unwrap(), &opts);
        assert!(jacobi.converged);
        // Uniform diagonal ⇒ Jacobi ≈ identity; allow small slack.
        assert!(jacobi.iterations <= plain.iterations + 2);
    }

    #[test]
    fn exact_preconditioner_converges_immediately() {
        let (a, b) = system();
        let pre = CholPreconditioner::from_matrix(&a).unwrap();
        let sol = pcg(&a, &b, &pre, &PcgOptions::with_tolerance(1e-10));
        assert!(sol.converged);
        assert!(sol.iterations <= 2, "exact preconditioner took {}", sol.iterations);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (a, _) = system();
        let sol = pcg(&a, &vec![0.0; 100], &IdentityPreconditioner, &PcgOptions::default());
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (a, b) = system();
        let opts = PcgOptions::with_tolerance(1e-8);
        let cold = pcg(&a, &b, &IdentityPreconditioner, &opts);
        // Start from the (almost) exact solution.
        let warm = pcg_with_guess(&a, &b, Some(&cold.x), &IdentityPreconditioner, &opts);
        assert!(warm.iterations <= 2);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (a, b) = system();
        let opts = PcgOptions { rel_tolerance: 1e-14, max_iterations: 3, ..Default::default() };
        let sol = pcg(&a, &b, &IdentityPreconditioner, &opts);
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 3);
        assert_eq!(sol.reason, TerminationReason::MaxIterations);
    }

    #[test]
    fn converged_solves_report_converged() {
        let (a, b) = system();
        let sol = pcg(&a, &b, &IdentityPreconditioner, &PcgOptions::with_tolerance(1e-8));
        assert_eq!(sol.reason, TerminationReason::Converged);
        // A warm start from the solution converges at entry.
        let warm =
            pcg_with_guess(&a, &b, Some(&sol.x), &IdentityPreconditioner, &PcgOptions::default());
        assert_eq!(warm.reason, TerminationReason::Converged);
        assert!(warm.converged);
        // Zero rhs is trivially converged.
        let zero = pcg(&a, &vec![0.0; 100], &IdentityPreconditioner, &PcgOptions::default());
        assert_eq!(zero.reason, TerminationReason::Converged);
    }

    #[test]
    fn indefinite_operator_is_classified() {
        use tracered_sparse::CooMatrix;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let a = coo.to_csc();
        // p₀ = b = (1, 1): pᵀAp = 0 — breakdown on the first iteration.
        let sol = pcg(&a, &[1.0, 1.0], &IdentityPreconditioner, &PcgOptions::default());
        assert!(!sol.converged);
        assert_eq!(sol.reason, TerminationReason::IndefiniteOperator);
        assert!(sol.reason.is_breakdown());
    }

    #[test]
    fn non_finite_rhs_is_classified() {
        let (a, mut b) = system();
        b[7] = f64::NAN;
        let sol = pcg(&a, &b, &IdentityPreconditioner, &PcgOptions::default());
        assert!(!sol.converged);
        assert_eq!(sol.reason, TerminationReason::NonFinite);
    }

    #[test]
    fn reports_relative_residual() {
        let (a, b) = system();
        let sol = pcg(&a, &b, &IdentityPreconditioner, &PcgOptions::with_tolerance(1e-6));
        let r = {
            let ax = a.matvec(&sol.x);
            let diff: Vec<f64> = ax.iter().zip(b.iter()).map(|(x, y)| x - y).collect();
            norm2(&diff) / norm2(&b)
        };
        assert!((r - sol.rel_residual).abs() < 1e-10);
    }
}
