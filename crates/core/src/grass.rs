//! GRASS-style spectral-perturbation criticality \[Feng, TCAD 2020\] —
//! the state-of-the-art baseline the paper compares against.
//!
//! GRASS ranks off-subgraph edges by the Laplacian quadratic form of a
//! dominant generalized eigenvector estimate (paper Eqs. 2–3): run a few
//! steps of the generalized power iteration `h_t = (L_S⁻¹ L_G)^t h_0`
//! from a random `h_0`, then score each candidate edge `(p, q)` by
//! `w_pq (h_tᵀ e_pq)² = w_pq (h_t[p] − h_t[q])²`. Larger scores mark
//! edges whose absence most damages spectral similarity. Averaging a few
//! independent probes de-noises the estimate.
//!
//! The implementation shares the spanning tree, the densification
//! schedule and the Cholesky machinery with the trace-reduction method,
//! so benchmark comparisons isolate the criticality metric itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tracered_graph::Graph;
use tracered_sparse::{CholeskyFactor, CscMatrix};

/// Scores `candidates` by GRASS spectral-perturbation criticality.
///
/// - `lg`: shifted Laplacian of the full graph;
/// - `factor`: Cholesky factorization of the current subgraph Laplacian;
/// - `power_steps`: `t` in `h_t = (L_S⁻¹ L_G)^t h_0` (≥ 1);
/// - `num_vectors`: number of independent probes to average;
/// - `rng`: probe source (seeded by the caller for determinism).
///
/// Returns one score per candidate, aligned with the input order.
///
/// # Panics
///
/// Panics if dimensions disagree or `power_steps == 0`.
pub fn grass_scores(
    g: &Graph,
    lg: &CscMatrix,
    factor: &CholeskyFactor,
    candidates: &[usize],
    power_steps: usize,
    num_vectors: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    grass_scores_threads(g, lg, factor, candidates, power_steps, num_vectors, rng, 1)
}

/// [`grass_scores`] with the probe evaluations fanned out over
/// `threads` workers.
///
/// Probes are drawn and evaluated in rounds of `threads`: each round
/// draws its probes serially (continuing the RNG stream), runs each
/// probe's power iteration and candidate scoring as one job on its own
/// `h`/`tmp`/terms buffers, and adds the terms to the scores in probe
/// order. The scores are therefore bit-identical at every thread count,
/// and one thread holds one probe at a time.
///
/// # Panics
///
/// Same conditions as [`grass_scores`].
#[allow(clippy::too_many_arguments)]
pub fn grass_scores_threads(
    g: &Graph,
    lg: &CscMatrix,
    factor: &CholeskyFactor,
    candidates: &[usize],
    power_steps: usize,
    num_vectors: usize,
    rng: &mut StdRng,
    threads: usize,
) -> Vec<f64> {
    let n = g.num_nodes();
    assert_eq!(lg.ncols(), n, "Laplacian dimension must match the graph");
    assert_eq!(factor.n(), n, "factor dimension must match the graph");
    assert!(power_steps > 0, "at least one power step is required");
    let k = candidates.len();
    let mut scores = vec![0.0f64; k];
    // One (probe, power-iteration temp, per-candidate terms) per job.
    let round = threads.clamp(1, num_vectors.max(1));
    let mut jobs = vec![(vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; k]); round];
    let mut drawn = 0;
    while drawn < num_vectors {
        let r = round.min(num_vectors - drawn);
        drawn += r;
        for (h, _, _) in &mut jobs[..r] {
            draw_probe(h, rng);
        }
        tracered_par::par_jobs(jobs[..r].iter_mut().collect(), threads, |(h, tmp, terms)| {
            power_iterate(lg, factor, power_steps, h, tmp);
            for (slot, &eid) in terms.iter_mut().zip(candidates.iter()) {
                let e = g.edge(eid);
                let d = h[e.u] - h[e.v];
                *slot = e.weight * d * d;
            }
        });
        for (_, _, terms) in &jobs[..r] {
            for (s, &c) in scores.iter_mut().zip(terms) {
                *s += c;
            }
        }
    }
    scores
}

/// Fills `h` with a random ±1 probe, de-meaned so it is not dominated by
/// the near-nullspace constant vector.
fn draw_probe(h: &mut [f64], rng: &mut StdRng) {
    let n = h.len();
    for hi in h.iter_mut() {
        *hi = if rng.random::<bool>() { 1.0 } else { -1.0 };
    }
    let mean: f64 = h.iter().sum::<f64>() / n as f64;
    for hi in h.iter_mut() {
        *hi -= mean;
    }
}

/// `power_steps` rounds of `h ← L_S⁻¹ (L_G h)`, normalised each step to
/// keep magnitudes stable.
fn power_iterate(
    lg: &CscMatrix,
    factor: &CholeskyFactor,
    power_steps: usize,
    h: &mut [f64],
    tmp: &mut [f64],
) {
    for _ in 0..power_steps {
        lg.matvec_into(h, tmp);
        factor.solve_into(tmp, h);
        let norm = h.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for hi in h.iter_mut() {
                *hi /= norm;
            }
        }
    }
}

/// Deterministic RNG used by the GRASS pipeline.
pub fn probe_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracered_graph::gen::{random_connected, WeightProfile};
    use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
    use tracered_graph::mst::{spanning_tree, TreeKind};
    use tracered_sparse::order::Ordering;

    fn setup() -> (Graph, CscMatrix, CholeskyFactor, Vec<usize>) {
        let g = random_connected(30, 40, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 11);
        let shifts = vec![1e-4; 30];
        let lg = laplacian_with_shifts(&g, &shifts);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        (g, lg, factor, st.off_tree_edges)
    }

    #[test]
    fn scores_are_finite_and_nonnegative() {
        let (g, lg, factor, off) = setup();
        let mut rng = probe_rng(1);
        let s = grass_scores(&g, &lg, &factor, &off, 2, 3, &mut rng);
        assert_eq!(s.len(), off.len());
        for &v in &s {
            assert!(v.is_finite() && v >= 0.0);
        }
        assert!(s.iter().any(|&v| v > 0.0), "some edge must matter");
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, lg, factor, off) = setup();
        let a = grass_scores(&g, &lg, &factor, &off, 2, 3, &mut probe_rng(5));
        let b = grass_scores(&g, &lg, &factor, &off, 2, 3, &mut probe_rng(5));
        assert_eq!(a, b);
        let c = grass_scores(&g, &lg, &factor, &off, 2, 3, &mut probe_rng(6));
        assert_ne!(a, c);
    }

    #[test]
    fn subgraph_edges_score_zero_against_their_own_subgraph() {
        // After enough power iterations, h is smooth over well-connected
        // regions; an edge already in the subgraph gets a *small* score
        // compared to the single worst off-subgraph edge. Use a ring +
        // chord construction where the chord is clearly critical.
        let mut edges: Vec<(usize, usize, f64)> = (0..19).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((0, 19, 1.0)); // close the ring
        edges.push((5, 15, 1.0)); // chord
        let g = Graph::from_edges(20, &edges).unwrap();
        let shifts = vec![1e-4; 20];
        let lg = laplacian_with_shifts(&g, &shifts);
        // Subgraph: the path 0..19 (drop the closing edge and chord).
        let sub: Vec<usize> = (0..19).collect();
        let ls = subgraph_laplacian(&g, &sub, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let candidates = vec![19usize, 20usize];
        let s = grass_scores(&g, &lg, &factor, &candidates, 3, 5, &mut probe_rng(2));
        // The ring-closing edge (0,19) spans the full path: it must beat
        // the chord (5,15) which spans half.
        assert!(s[0] > s[1], "ring edge {} should beat chord {}", s[0], s[1]);
    }
}
