//! Property-based tests for the sparse linear-algebra substrate.

use proptest::prelude::*;
use tracered_sparse::ichol::IncompleteCholesky;
use tracered_sparse::order::{nested_dissection, Ordering};
use tracered_sparse::sparsevec::{dot, dot_dense};
use tracered_sparse::{
    ApproxInverse, CholeskyFactor, CooMatrix, CscMatrix, KernelVariant, MultiVec, Permutation,
    SpaiOptions,
};

/// Strategy: a connected weighted graph on `n` nodes given as a random
/// spanning tree plus extra random edges, returned as (n, edges).
fn arb_connected_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..14).prop_flat_map(|n| {
        let tree = proptest::collection::vec(0.05f64..5.0, n - 1);
        let extras = proptest::collection::vec((0..n * n, 0.05f64..5.0), 0..(2 * n));
        (tree, extras).prop_map(move |(tree_w, extras)| {
            let mut edges = Vec::new();
            for (i, w) in tree_w.into_iter().enumerate() {
                // Chain tree keeps things connected.
                edges.push((i, i + 1, w));
            }
            for (code, w) in extras {
                let (u, v) = (code / n, code % n);
                if u != v {
                    edges.push((u.min(v), u.max(v), w));
                }
            }
            (n, edges)
        })
    })
}

/// Strategy: a random symmetric pattern on `n` nodes, often disconnected
/// and sometimes with rows above AMD's dense threshold, returned as
/// (n, off-diagonal pairs).
fn arb_symmetric_pattern() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(8 * n))
            .prop_map(move |pairs| (n, pairs.into_iter().filter(|&(u, v)| u != v).collect()))
    })
}

/// Builds a shifted Laplacian CSC matrix from an edge list.
fn laplacian(n: usize, edges: &[(usize, usize, f64)], shift: f64) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(u, v, w) in edges {
        coo.push_symmetric(u, v, -w).unwrap();
        coo.push(u, u, w).unwrap();
        coo.push(v, v, w).unwrap();
    }
    for i in 0..n {
        coo.push(i, i, shift).unwrap();
    }
    coo.to_csc()
}

proptest! {
    #[test]
    fn cholesky_solve_has_small_residual((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.1);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let f = CholeskyFactor::factorize(&a, ord).unwrap();
            let x = f.solve(&b);
            prop_assert!(a.residual_inf_norm(&x, &b) < 1e-8, "ordering {ord:?}");
        }
    }

    #[test]
    fn factor_orderings_agree_on_solution((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.05);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x1 = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap().solve(&b);
        let x2 = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap().solve(&b);
        for (a1, a2) in x1.iter().zip(x2.iter()) {
            prop_assert!((a1 - a2).abs() < 1e-7);
        }
    }

    #[test]
    fn solve_multi_columns_match_single_solves((n, edges) in arb_connected_graph(), k in 1usize..6) {
        let a = laplacian(n, &edges, 0.15);
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n).map(|i| ((i * 11 + c * 5) % 9) as f64 - 4.0).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let b = MultiVec::from_columns(&refs).unwrap();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let f = CholeskyFactor::factorize(&a, ord).unwrap();
            let x = f.solve_multi(&b);
            for (c, col) in cols.iter().enumerate() {
                let single = f.solve(col);
                for (s, m) in single.iter().zip(x.col(c).iter()) {
                    // Bit-identical up to signed zeros (documented bound:
                    // the blocked kernel applies, rather than skips,
                    // exactly-zero updates).
                    prop_assert!((s - m).abs() == 0.0, "ordering {ord:?} column {c}");
                }
            }
        }
    }

    #[test]
    fn spmm_columns_match_matvec_across_thread_counts((n, edges) in arb_connected_graph(), k in 1usize..5) {
        let a = laplacian(n, &edges, 0.1);
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|c| (0..n).map(|i| ((i * 3 + c) % 7) as f64 - 3.0).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let x = MultiVec::from_columns(&refs).unwrap();
        for threads in [1usize, 2, 4] {
            let mut yp = MultiVec::zeros(n, k);
            a.sym_mul_multi_into_threads(&x, &mut yp, threads);
            for (c, col) in cols.iter().enumerate() {
                let mut single = vec![0.0; n];
                a.sym_matvec_into_threads(col.as_slice(), &mut single, 1);
                for (s, m) in single.iter().zip(yp.col(c).iter()) {
                    prop_assert_eq!(s.to_bits(), m.to_bits(), "{} threads column {}", threads, c);
                }
            }
        }
    }

    #[test]
    fn transpose_roundtrip((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.2);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_csc_equals_dense((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.2);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let y1 = a.matvec(&x);
        let y2 = a.to_dense().matvec(&x);
        for (a1, a2) in y1.iter().zip(y2.iter()) {
            prop_assert!((a1 - a2).abs() < 1e-12);
        }
    }

    #[test]
    fn spai_zero_threshold_is_exact_inverse((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.3);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let prod = f.l().to_dense().matmul(&z.to_csc().to_dense());
        for r in 0..n {
            for c in 0..n {
                let expect = if r == c { 1.0 } else { 0.0 };
                prop_assert!((prod[(r, c)] - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn spai_columns_nonnegative((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.2);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::default()).unwrap();
        for j in 0..n {
            let (rows, values) = z.column(j);
            for (&i, &v) in rows.iter().zip(values) {
                prop_assert!(i as usize >= j);
                prop_assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn permutation_apply_roundtrip(perm in proptest::collection::vec(0usize..1000, 1..30)) {
        // Turn an arbitrary vector into a permutation by ranking.
        let n = perm.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (perm[i], i));
        let p = Permutation::from_vec(idx).unwrap();
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(p.apply_inverse(&p.apply(&v)), v);
    }

    #[test]
    fn sparsevec_dot_matches_dense(
        a in proptest::collection::vec((0usize..30, -5.0f64..5.0), 0..20),
        b in proptest::collection::vec((0usize..30, -5.0f64..5.0), 0..20),
    ) {
        // Accumulate duplicates densely, then keep the nonzeros in index
        // order: the sorted (indices, values) layout the kernels expect.
        let densify = |entries: &[(usize, f64)]| {
            let mut dense = vec![0.0f64; 30];
            for &(i, v) in entries {
                dense[i] += v;
            }
            dense
        };
        let sparsify = |dense: &[f64]| -> (Vec<u32>, Vec<f64>) {
            (0..30).filter(|&i| dense[i] != 0.0).map(|i| (i as u32, dense[i])).unzip()
        };
        let (da, db) = (densify(&a), densify(&b));
        let (sa, sb) = (sparsify(&da), sparsify(&db));
        let dense_dot: f64 = da.iter().zip(db.iter()).map(|(x, y)| x * y).sum();
        let (ra, rb) = ((&sa.0[..], &sa.1[..]), (&sb.0[..], &sb.1[..]));
        prop_assert!((dot(ra, rb) - dense_dot).abs() < 1e-9);
        prop_assert!((dot_dense(ra, &db) - dense_dot).abs() < 1e-9);
    }

    #[test]
    fn ic0_exists_and_matches_pattern_for_sdd((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.1);
        let ic = IncompleteCholesky::factorize(&a).unwrap();
        // Pattern preserved.
        let lower = a.lower_triangle();
        prop_assert_eq!(ic.l().colptr(), lower.colptr());
        prop_assert_eq!(ic.l().rowidx(), lower.rowidx());
        // L·Lᵀ equals A on A's pattern (the IC(0) defining property).
        let llt = ic.l().to_dense().matmul(&ic.l().to_dense().transpose());
        for (r, c, v) in a.iter() {
            prop_assert!((llt[(r, c)] - v).abs() < 1e-8 * (1.0 + v.abs()),
                "pattern entry ({r},{c})");
        }
    }

    #[test]
    fn nested_dissection_factorizes_correctly((n, edges) in arb_connected_graph()) {
        let a = laplacian(n, &edges, 0.2);
        let p = nested_dissection(&a);
        prop_assert_eq!(p.len(), n);
        let f =
            CholeskyFactor::factorize_with_perm_kernel(&a, p, KernelVariant::Scalar, 1).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let x = f.solve(&b);
        prop_assert!(a.residual_inf_norm(&x, &b) < 1e-8);
    }

    #[test]
    fn ordering_selection_picks_minimum_fill((n, edges) in arb_connected_graph()) {
        use tracered_sparse::order::select_ordering;
        let a = laplacian(n, &edges, 0.2);
        let candidates = [Ordering::Natural, Ordering::MinDegree, Ordering::NestedDissection];
        let (_, _, best_fill) = select_ordering(&a, &candidates).unwrap();
        for ord in candidates {
            let f = CholeskyFactor::factorize(&a, ord).unwrap();
            prop_assert!(best_fill <= f.nnz(), "selection missed a better ordering");
        }
    }

    #[test]
    fn add_scaled_matches_dense((n, edges) in arb_connected_graph(), s in -2.0f64..2.0) {
        let a = laplacian(n, &edges, 0.2);
        let i = CscMatrix::identity(n);
        let sum = a.add_scaled(&i, s).unwrap();
        let ad = a.to_dense();
        for r in 0..n {
            for c in 0..n {
                let expect = ad[(r, c)] + if r == c { s } else { 0.0 };
                prop_assert!((sum.get(r, c) - expect).abs() < 1e-12);
            }
        }
    }
}

// AMD is cheap on these sizes, so its invariants get more cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn min_degree_is_a_postordered_bijection((n, pairs) in arb_symmetric_pattern()) {
        use tracered_sparse::etree;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
        }
        for &(u, v) in &pairs {
            coo.push_symmetric(u, v, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let p = Ordering::MinDegree.compute(&a).unwrap();
        let mut seen = vec![false; n];
        for k in 0..n {
            let v = p.new_to_old(k);
            prop_assert!(!seen[v], "node {v} ordered twice");
            seen[v] = true;
        }
        let upper = a.symmetric_perm_upper(&p).unwrap();
        let post = etree::postorder(&etree::elimination_tree(&upper));
        prop_assert!(post.iter().enumerate().all(|(k, &v)| k == v), "etree not postordered");
    }
}
