//! Inverse power iteration for the Fiedler vector.
//!
//! Spectral graph partitioning (paper §4.3) needs the eigenvector of the
//! smallest nonzero Laplacian eigenvalue. With a *uniform* diagonal shift
//! `s`, `L + sI` keeps the eigenvectors of `L` and moves the spectrum to
//! `{s, s+λ₂, …}`, so inverse power iteration on the shifted matrix —
//! with the all-ones eigenvector deflated — converges to the Fiedler
//! vector. Each step solves one linear system with the graph Laplacian,
//! which is where the sparsifier-preconditioned PCG (or the direct
//! solver) plugs in.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of [`fiedler_vector`].
#[derive(Debug, Clone)]
pub struct FiedlerResult {
    /// Unit-norm Fiedler vector estimate (orthogonal to the constant
    /// vector).
    pub vector: Vec<f64>,
    /// Rayleigh estimate of the *shifted* eigenvalue `s + λ₂`; subtract
    /// the uniform shift to recover `λ₂`.
    pub shifted_eigenvalue: f64,
    /// Number of inverse-power steps performed.
    pub steps: usize,
    /// Total inner iterations reported by the solver across all steps
    /// (0 for direct solvers; the paper's `N_e × steps` for PCG).
    pub total_inner_iterations: usize,
}

/// Runs `steps` inverse power iterations on a shifted Laplacian whose
/// solves are provided by `solve` (returning the solution and the inner
/// iteration count of that solve).
///
/// The iterate is re-orthogonalized against the constant vector and
/// normalized every step, making the procedure immune to the dominant
/// `s`-eigenpair `(s, 1)`.
///
/// The steps run under one `eigen.fiedler` span (args `n`, `steps`;
/// end-arg `inner_iterations`), which covers every caller: the direct
/// and PCG bisections and the recursive k-way partitioner.
///
/// # Panics
///
/// Panics if `n == 0` or `steps == 0`.
pub fn fiedler_vector<F>(n: usize, mut solve: F, steps: usize, seed: u64) -> FiedlerResult
where
    F: FnMut(&[f64]) -> (Vec<f64>, usize),
{
    assert!(n > 0, "graph must be non-empty");
    assert!(steps > 0, "at least one inverse-power step is required");
    let mut span = tracered_obs::span!("eigen.fiedler", { n: n, steps: steps });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    deflate_and_normalize(&mut x);
    let mut total_inner = 0usize;
    let mut shifted_eigenvalue = 0.0f64;
    for _ in 0..steps {
        let (y, inner) = solve(&x);
        total_inner += inner;
        // Rayleigh estimate of the shifted eigenvalue: x ≈ λ_shift · y
        // after the solve, so λ ≈ (xᵀx)/(xᵀy) with ‖x‖ = 1.
        let xy: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        if xy != 0.0 {
            shifted_eigenvalue = 1.0 / xy;
        }
        x = y;
        deflate_and_normalize(&mut x);
    }
    if let Some(g) = span.as_mut() {
        g.arg("inner_iterations", total_inner as f64);
    }
    FiedlerResult { vector: x, shifted_eigenvalue, steps, total_inner_iterations: total_inner }
}

/// Removes the component along the constant vector and normalizes.
fn deflate_and_normalize(x: &mut [f64]) {
    let n = x.len() as f64;
    let mean: f64 = x.iter().sum::<f64>() / n;
    for xi in x.iter_mut() {
        *xi -= mean;
    }
    let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for xi in x.iter_mut() {
            *xi /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectSolver;
    use crate::pcg::{pcg, PcgOptions};
    use crate::precond::CholPreconditioner;
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;
    use tracered_graph::Graph;

    #[test]
    fn path_graph_fiedler_is_monotone_cosine() {
        // The Fiedler vector of a path is cos(π k (i + 1/2) / n) with
        // k = 1: strictly monotone along the path, one sign change.
        let n = 20;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let shift = 0.01;
        let l = laplacian_with_shifts(&g, &vec![shift; n]);
        let solver = DirectSolver::new_threads(&l, 1).unwrap();
        let res = fiedler_vector(n, |b| (solver.solve(b), 0), 30, 1);
        let v = &res.vector;
        let increasing = v.windows(2).all(|w| w[1] >= w[0] - 1e-9);
        let decreasing = v.windows(2).all(|w| w[1] <= w[0] + 1e-9);
        assert!(increasing || decreasing, "path Fiedler vector must be monotone: {v:?}");
        // Eigenvalue: λ₂(path_n) = 2 − 2 cos(π/n) = 4 sin²(π/2n).
        let expect = 4.0 * (std::f64::consts::PI / (2.0 * n as f64)).sin().powi(2);
        let lam = res.shifted_eigenvalue - shift;
        assert!((lam - expect).abs() < 1e-6, "λ₂ {lam} vs expected {expect}");
    }

    #[test]
    fn two_cluster_graph_is_separated_by_sign() {
        // Two dense clusters joined by one weak edge.
        let mut edges = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                edges.push((a, b, 1.0));
                edges.push((a + 6, b + 6, 1.0));
            }
        }
        edges.push((0, 6, 0.01));
        let g = Graph::from_edges(12, &edges).unwrap();
        let l = laplacian_with_shifts(&g, &[0.005; 12]);
        let solver = DirectSolver::new_threads(&l, 1).unwrap();
        let res = fiedler_vector(12, |b| (solver.solve(b), 0), 40, 3);
        let v = &res.vector;
        let s0 = v[0].signum();
        assert!((0..6).all(|i| v[i].signum() == s0));
        assert!((6..12).all(|i| v[i].signum() == -s0));
    }

    #[test]
    fn pcg_and_direct_agree_on_fiedler_direction() {
        let g = grid2d(8, 8, WeightProfile::Unit, 3);
        let n = 64;
        let l = laplacian_with_shifts(&g, &vec![0.01; n]);
        let direct = DirectSolver::new_threads(&l, 1).unwrap();
        let rd = fiedler_vector(n, |b| (direct.solve(b), 0), 25, 5);
        let pre = CholPreconditioner::from_matrix(&l).unwrap();
        let opts = PcgOptions::with_tolerance(1e-10);
        let rp = fiedler_vector(
            n,
            |b| {
                let s = pcg(&l, b, &pre, &opts);
                (s.x, s.iterations)
            },
            25,
            5,
        );
        let dot: f64 =
            rd.vector.iter().zip(rp.vector.iter()).map(|(a, b)| a * b).sum::<f64>().abs();
        assert!(dot > 0.999, "directions disagree: |cos| = {dot}");
        assert!(rp.total_inner_iterations > 0);
        assert_eq!(rd.total_inner_iterations, 0);
    }

    #[test]
    fn vector_is_unit_norm_and_mean_free() {
        let g = grid2d(6, 6, WeightProfile::Unit, 9);
        let l = laplacian_with_shifts(&g, &vec![0.02; 36]);
        let solver = DirectSolver::new_threads(&l, 1).unwrap();
        let res = fiedler_vector(36, |b| (solver.solve(b), 0), 10, 2);
        let norm: f64 = res.vector.iter().map(|v| v * v).sum::<f64>();
        let mean: f64 = res.vector.iter().sum::<f64>() / 36.0;
        assert!((norm - 1.0).abs() < 1e-9);
        assert!(mean.abs() < 1e-9);
    }
}
