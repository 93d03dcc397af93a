//! Quality metrics for sparsifiers: the relative condition number
//! `κ(L_G, L_P)` and the trace proxy `Trace(L_P⁻¹ L_G)` it is bounded by.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tracered_sparse::{CholeskyFactor, CscMatrix};

/// Estimates `κ(L_G, L_P) = λ_max(L_P⁻¹ L_G)` by generalized power
/// iteration: `v ← L_P⁻¹ (L_G v)` with the generalized Rayleigh quotient
/// `(vᵀ L_G v) / (vᵀ L_P v)` as the eigenvalue estimate.
///
/// With both Laplacians sharing the same diagonal shift, all generalized
/// eigenvalues are ≥ 1 and this value *is* the relative condition number
/// (paper footnote 1). The estimate converges from below; `iters` around
/// 50–100 gives 2–3 significant digits on mesh problems.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn relative_condition_number(
    lg: &CscMatrix,
    lp_factor: &CholeskyFactor,
    iters: usize,
    seed: u64,
) -> f64 {
    let n = lg.ncols();
    assert_eq!(lp_factor.n(), n, "dimensions must agree");
    if n == 0 {
        return 1.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    let mut lgv = vec![0.0f64; n];
    let mut w = vec![0.0f64; n];
    let mut lambda = 1.0f64;
    for _ in 0..iters {
        lg.matvec_into(&v, &mut lgv);
        lp_factor.solve_into(&lgv, &mut w);
        // Generalized Rayleigh quotient at the new iterate w:
        // λ(w) = (wᵀ L_G w) / (wᵀ L_P w), where wᵀ L_P w = wᵀ (L_G v)
        // because L_P w = L_G v by construction.
        let wlpw: f64 = w.iter().zip(lgv.iter()).map(|(a, b)| a * b).sum();
        lg.matvec_into(&w, &mut lgv);
        let wlgw: f64 = w.iter().zip(lgv.iter()).map(|(a, b)| a * b).sum();
        if wlpw > 0.0 {
            lambda = wlgw / wlpw;
        }
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            break;
        }
        for (vi, wi) in v.iter_mut().zip(w.iter()) {
            *vi = wi / norm;
        }
    }
    lambda
}

/// Hutchinson stochastic estimate of `Trace(L_P⁻¹ L_G)` with Rademacher
/// probes: `mean_z zᵀ L_P⁻¹ L_G z`.
///
/// # Panics
///
/// Panics if dimensions disagree or `probes == 0`.
pub fn trace_proxy_hutchinson(
    lg: &CscMatrix,
    lp_factor: &CholeskyFactor,
    probes: usize,
    seed: u64,
) -> f64 {
    trace_proxy_hutchinson_threads(lg, lp_factor, probes, seed, 1)
}

/// [`trace_proxy_hutchinson`] with the probe evaluations fanned out over
/// `threads` workers.
///
/// Probes are drawn and evaluated in rounds of `threads`: each round
/// draws its probes serially (continuing the fixed RNG stream), runs
/// each probe's matvec-and-solve as one job on its own buffers, and adds
/// the quadratic forms in probe order. The estimate is therefore
/// bit-identical at every thread count, and one thread holds one probe
/// at a time.
///
/// # Panics
///
/// Same conditions as [`trace_proxy_hutchinson`].
pub fn trace_proxy_hutchinson_threads(
    lg: &CscMatrix,
    lp_factor: &CholeskyFactor,
    probes: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    let n = lg.ncols();
    assert_eq!(lp_factor.n(), n, "dimensions must agree");
    assert!(probes > 0, "at least one probe is required");
    let mut rng = StdRng::seed_from_u64(seed);
    // One (z, L_G z, L_P⁻¹ L_G z, zᵀ L_P⁻¹ L_G z) per job.
    let round = threads.clamp(1, probes);
    let mut jobs = vec![(vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n], 0.0f64); round];
    let mut acc = 0.0;
    let mut drawn = 0;
    while drawn < probes {
        let r = round.min(probes - drawn);
        drawn += r;
        for (z, _, _, _) in &mut jobs[..r] {
            for zi in z.iter_mut() {
                *zi = if rng.random::<bool>() { 1.0 } else { -1.0 };
            }
        }
        tracered_par::par_jobs(jobs[..r].iter_mut().collect(), threads, |(z, lgz, y, term)| {
            lg.matvec_into(z, lgz);
            lp_factor.solve_into(lgz, y);
            *term = z.iter().zip(y.iter()).map(|(a, b)| a * b).sum::<f64>();
        });
        for (_, _, _, term) in &jobs[..r] {
            acc += term;
        }
    }
    acc / probes as f64
}

/// Exact `Trace(L_P⁻¹ L_G)` via `n` solves — `O(n²)`-ish on sparse
/// factors, intended for validation and small problems.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn trace_proxy_exact(lg: &CscMatrix, lp_factor: &CholeskyFactor) -> f64 {
    let n = lg.ncols();
    assert_eq!(lp_factor.n(), n, "dimensions must agree");
    let mut e = vec![0.0f64; n];
    let mut col = vec![0.0f64; n];
    let mut acc = 0.0;
    for j in 0..n {
        // (L_P⁻¹ L_G)_{jj} = e_jᵀ L_P⁻¹ (L_G e_j).
        e.fill(0.0);
        e[j] = 1.0;
        let lg_ej = lg.matvec(&e);
        lp_factor.solve_into(&lg_ej, &mut col);
        acc += col[j];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
    use tracered_graph::mst::{spanning_tree, TreeKind};
    use tracered_sparse::order::Ordering;

    fn setup() -> (CscMatrix, CholeskyFactor, CholeskyFactor) {
        let g = grid2d(7, 7, WeightProfile::Unit, 5);
        let shifts = vec![1e-3; 49];
        let lg = laplacian_with_shifts(&g, &shifts);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let tree_factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let full_factor = CholeskyFactor::factorize(&lg, Ordering::MinDegree).unwrap();
        (lg, tree_factor, full_factor)
    }

    #[test]
    fn kappa_of_self_is_one() {
        let (lg, _, full) = setup();
        let k = relative_condition_number(&lg, &full, 40, 1);
        assert!((k - 1.0).abs() < 1e-6, "κ(L, L) = 1, got {k}");
    }

    #[test]
    fn kappa_of_tree_preconditioner_exceeds_one() {
        let (lg, tree, _) = setup();
        let k = relative_condition_number(&lg, &tree, 60, 1);
        assert!(k > 1.5, "tree preconditioner of a grid must be noticeably worse, got {k}");
    }

    #[test]
    fn kappa_matches_dense_eigenvalue() {
        let (lg, tree, _) = setup();
        let k = relative_condition_number(&lg, &tree, 200, 3);
        // Dense oracle: λ_max(L_P⁻¹ L_G) via dense power iteration on the
        // explicitly formed matrix.
        let n = lg.ncols();
        let mut m = tracered_sparse::DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e.fill(0.0);
            e[j] = 1.0;
            let lg_ej = lg.matvec(&e);
            let col = tree.solve(&lg_ej);
            for i in 0..n {
                m[(i, j)] = col[i];
            }
        }
        // Power iteration on the (non-symmetric but similar-to-symmetric)
        // dense matrix.
        let mut v = vec![1.0; n];
        for _ in 0..500 {
            let w = m.matvec(&v);
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            v = w.iter().map(|x| x / norm).collect();
        }
        let mv = m.matvec(&v);
        let lam: f64 = v.iter().zip(mv.iter()).map(|(a, b)| a * b).sum();
        assert!((k - lam).abs() < 0.05 * lam, "sparse estimate {k} vs dense {lam}");
    }

    #[test]
    fn hutchinson_approaches_exact_trace() {
        let (lg, tree, _) = setup();
        let exact = trace_proxy_exact(&lg, &tree);
        let est = trace_proxy_hutchinson(&lg, &tree, 200, 9);
        assert!((est - exact).abs() < 0.15 * exact, "hutchinson {est} vs exact {exact}");
    }

    #[test]
    fn trace_bounds_kappa() {
        let (lg, tree, _) = setup();
        let k = relative_condition_number(&lg, &tree, 100, 1);
        let t = trace_proxy_exact(&lg, &tree);
        assert!(t >= k - 1e-6, "trace {t} must dominate κ {k}");
    }
}
