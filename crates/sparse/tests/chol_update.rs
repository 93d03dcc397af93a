//! Property tests for the sparse rank-1 update/downdate: the
//! update-vs-refactor equivalence contract of the incremental-update
//! subsystem.
//!
//! On random SPD grid/tridiagonal matrices × random sparse rank-1
//! vectors:
//!
//! (a) `update` then `downdate` with the same vector reproduces the
//!     original factor's solves **bit-identically** (the undo journal);
//! (b) an updated factor matches a from-scratch `factorize` of
//!     `A ± v vᵀ` within `1e-10` relative residual;
//! (c) a rank-deficient downdate yields the typed
//!     `NotPositiveDefinite` error and leaves the factor untouched;
//! (d) everything is invariant under `TRACERED_THREADS={1,4}`: the
//!     numeric walk is serial and base factorizations are bit-identical
//!     at every thread count, so factors built at different parallelism
//!     update to bit-identical results.

use proptest::prelude::*;
use tracered_sparse::order::Ordering;
use tracered_sparse::{CholeskyFactor, CooMatrix, CscMatrix, FactorOptions, SparseError};

/// Deterministic weight stream (a tiny LCG, not a statistical RNG).
fn weight(seed: u64, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(i as u64)
        .wrapping_mul(2862933555777941757);
    0.1 + (x >> 40) as f64 / (1u64 << 24) as f64 * 4.9
}

/// A shifted grid Laplacian with pseudo-random positive edge weights.
fn grid_spd(rows: usize, cols: usize, shift: f64, seed: u64) -> CscMatrix {
    let n = rows * cols;
    let mut coo = CooMatrix::new(n, n);
    let mut deg = vec![0.0; n];
    let id = |r: usize, c: usize| r * cols + c;
    let mut e = 0usize;
    for r in 0..rows {
        for c in 0..cols {
            for (nr, nc) in [(r, c + 1), (r + 1, c)] {
                if nr < rows && nc < cols {
                    let w = weight(seed, e);
                    e += 1;
                    coo.push_symmetric(id(r, c), id(nr, nc), -w).unwrap();
                    deg[id(r, c)] += w;
                    deg[id(nr, nc)] += w;
                }
            }
        }
    }
    for (i, &d) in deg.iter().enumerate() {
        coo.push(i, i, d + shift).unwrap();
    }
    coo.to_csc()
}

/// A shifted tridiagonal SPD matrix with pseudo-random couplings.
fn tridiag_spd(n: usize, shift: f64, seed: u64) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut deg = vec![0.0; n];
    for i in 0..n - 1 {
        let w = weight(seed, i);
        coo.push_symmetric(i, i + 1, -w).unwrap();
        deg[i] += w;
        deg[i + 1] += w;
    }
    for (i, &d) in deg.iter().enumerate() {
        coo.push(i, i, d + shift).unwrap();
    }
    coo.to_csc()
}

/// The matrix family under test. Tridiagonals under the natural
/// ordering are the pattern-growth stress case: their factor is
/// bidiagonal, so a rank-1 vector spanning distant nodes forces fill
/// along the whole elimination-tree path.
fn arb_case() -> impl Strategy<Value = (CscMatrix, Ordering)> {
    (0usize..3, 4usize..9, 4usize..9, 0.05f64..2.0, 0u64..1 << 32).prop_map(
        |(kind, a, b, shift, seed)| match kind {
            0 => (grid_spd(a, b, shift, seed), Ordering::MinDegree),
            1 => (tridiag_spd(a * b, shift, seed), Ordering::Natural),
            _ => (grid_spd(a, b, shift, seed), Ordering::Natural),
        },
    )
}

/// A sparse rank-1 vector shaped like a Laplacian edge perturbation
/// (`√w (e_u − e_v)`), scaled below the PD-loss threshold so downdates
/// of `A − v vᵀ` stay definite (the shift keeps slack).
fn edge_vector(n: usize, u: usize, v: usize, w: f64) -> Vec<f64> {
    let s = w.sqrt();
    let mut x = vec![0.0; n];
    x[u % n] = s;
    let vv = v % n;
    if vv != u % n {
        x[vv] = -s;
    }
    x
}

fn solve_bits(f: &CholeskyFactor, b: &[f64]) -> Vec<u64> {
    f.solve(b).iter().map(|x| x.to_bits()).collect()
}

/// `A + sigma · v vᵀ` assembled from triplets.
fn perturbed(a: &CscMatrix, v: &[f64], sigma: f64) -> CscMatrix {
    let n = a.ncols();
    let mut coo = CooMatrix::new(n, n);
    for (r, c, x) in a.iter() {
        coo.push(r, c, x).unwrap();
    }
    for (i, &vi) in v.iter().enumerate() {
        if vi == 0.0 {
            continue;
        }
        for (k, &vk) in v.iter().enumerate() {
            if vk != 0.0 {
                coo.push(i, k, sigma * vi * vk).unwrap();
            }
        }
    }
    coo.to_csc()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) update ∘ downdate (and downdate ∘ update) is the bit-exact
    /// identity on solves, and (d) the property holds identically for
    /// factors built at 1 and 4 threads.
    #[test]
    fn update_then_downdate_is_bit_exact(
        (a, ord) in arb_case(),
        u in 0usize..64,
        v in 0usize..64,
        w in 0.01f64..0.9,
    ) {
        let n = a.ncols();
        let vec = edge_vector(n, u, v, w);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).cos()).collect();
        for threads in [1usize, 4] {
            let opts = FactorOptions { threads, ..ord.into() };
            let mut f = CholeskyFactor::factorize(&a, opts).unwrap();
            let baseline = solve_bits(&f, &b);
            f.update(&vec).unwrap();
            let restored = f.downdate(&vec).unwrap();
            prop_assert!(restored.journaled_restore);
            prop_assert_eq!(solve_bits(&f, &b), baseline.clone());

            // The mirrored order: downdate first (stays PD because the
            // vector is scaled below the edge weight plus shift slack),
            // then update back.
            if f.downdate(&vec).is_ok() {
                let back = f.update(&vec).unwrap();
                prop_assert!(back.journaled_restore);
                prop_assert_eq!(solve_bits(&f, &b), baseline);
            }
        }
    }

    /// (b) an updated/downdated factor solves the perturbed system as
    /// well as a from-scratch factorization: relative residual ≤ 1e-10
    /// against the assembled `A ± v vᵀ`.
    #[test]
    fn update_matches_refactorize(
        (a, ord) in arb_case(),
        u in 0usize..64,
        v in 0usize..64,
        w in 0.01f64..0.9,
        sign_sel in 0usize..2,
    ) {
        let n = a.ncols();
        let sign = sign_sel == 1;
        let vec = edge_vector(n, u, v, w);
        let sigma = if sign { 1.0 } else { -1.0 };
        let mut f = CholeskyFactor::factorize(&a, ord).unwrap();
        let applied = if sign { f.update(&vec) } else { f.downdate(&vec) };
        if applied.is_err() {
            // A downdate may legitimately lose definiteness for an
            // unlucky draw; property (c) covers that branch.
            return Ok(());
        }
        let ap = perturbed(&a, &vec, sigma);
        let b: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let bnorm = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));

        let x_inc = f.solve(&b);
        prop_assert!(ap.residual_inf_norm(&x_inc, &b) <= 1e-10 * bnorm);

        let scratch = CholeskyFactor::factorize(&ap, ord).unwrap();
        let x_ref = scratch.solve(&b);
        prop_assert!(ap.residual_inf_norm(&x_ref, &b) <= 1e-10 * bnorm);
    }

    /// (c) a rank-deficient downdate fails with the typed error and the
    /// factor is restored bit-for-bit — at both thread counts.
    #[test]
    fn rank_deficient_downdate_fails_typed(
        (a, ord) in arb_case(),
        u in 0usize..64,
    ) {
        let n = a.ncols();
        let node = u % n;
        // Overshooting the diagonal makes `A − v vᵀ` indefinite:
        // (A − vvᵀ)[node, node] = a_nn (1 − 9) < 0.
        let mut vec = vec![0.0; n];
        vec[node] = (9.0 * a.get(node, node)).sqrt();
        for threads in [1usize, 4] {
            let opts = FactorOptions { threads, ..ord.into() };
            let mut f = CholeskyFactor::factorize(&a, opts).unwrap();
            let lbits: Vec<u64> = f.l().values().iter().map(|x| x.to_bits()).collect();
            let err = f.downdate(&vec).unwrap_err();
            prop_assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
            let after: Vec<u64> = f.l().values().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(after, lbits);
            prop_assert_eq!(f.pending_updates(), 0);
        }
    }

    /// (d) factors built at different thread counts update to
    /// bit-identical factors (the update walk is serial, the base
    /// factorization bit-identical at every count).
    #[test]
    fn update_invariant_across_build_threads(
        (a, ord) in arb_case(),
        u in 0usize..64,
        v in 0usize..64,
        w in 0.01f64..0.9,
    ) {
        let n = a.ncols();
        let vec = edge_vector(n, u, v, w);
        let mut f1 = CholeskyFactor::factorize(&a, ord).unwrap();
        let mut f4 = CholeskyFactor::factorize(&a, FactorOptions { threads: 4, ..ord.into() }).unwrap();
        f1.update(&vec).unwrap();
        f4.update(&vec).unwrap();
        prop_assert_eq!(f1.l().colptr(), f4.l().colptr());
        prop_assert_eq!(f1.l().rowidx(), f4.l().rowidx());
        let b1: Vec<u64> = f1.l().values().iter().map(|x| x.to_bits()).collect();
        let b4: Vec<u64> = f4.l().values().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(b1, b4);
    }
}

/// Deterministic (non-property) composition check: a downdate that
/// kills positive definiteness escalates cleanly through the
/// boost ladder of `CholeskyFactor::factorize` on the re-assembled matrix —
/// the fallback route the contingency sweep takes.
#[test]
fn failed_downdate_composes_with_regularized_refactorization() {
    use tracered_sparse::BoostSchedule;

    let a = grid_spd(6, 6, 1e-9, 7);
    let n = a.ncols();
    let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
    // Remove (nearly) all of the diagonal slack at one node and more:
    // the incremental path must refuse…
    let mut vec = vec![0.0; n];
    vec[10] = (4.0 * a.get(10, 10)).sqrt();
    let err = f.downdate(&vec).unwrap_err();
    assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));

    // …and the caller re-assembles A − v vᵀ and climbs the ladder; the
    // boosted factor is still usable as a (degraded) preconditioner.
    let ap = perturbed(&a, &vec, -1.0);
    let boost = Some(BoostSchedule::default());
    let reg = CholeskyFactor::factorize(&ap, FactorOptions { boost, ..Default::default() });
    assert!(reg.unwrap().applied_shift() > 0.0);
}
