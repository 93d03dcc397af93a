//! Property tests for the supernodal blocked Cholesky kernel: partition
//! invariants (contiguous cover, exact union patterns, chain structure),
//! scalar-vs-supernodal agreement within tolerance across random SPD
//! grids × orderings × shifts, bit-identity of the supernodal factor at
//! every thread count, and serial-equivalent failure reporting.

use proptest::prelude::*;
use tracered_sparse::chol::SymbolicCholesky;
use tracered_sparse::etree::NO_PARENT;
use tracered_sparse::order::Ordering;
use tracered_sparse::{
    CholeskyFactor, CooMatrix, CscMatrix, KernelVariant, SparseError, SupernodePartition,
};

/// Deterministic weight stream (tiny LCG) so proptest only explores
/// shapes, shifts and seeds.
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

/// A shifted tridiagonal SPD matrix — the etree-is-a-path adversarial
/// case, where every column is one chain and amalgamation does all the
/// work.
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

fn arb_spd() -> impl Strategy<Value = CscMatrix> {
    (0usize..3, 6usize..14, 6usize..14, 0.05f64..2.0, 0u64..1 << 32).prop_map(
        |(kind, a, b, shift, seed)| match kind {
            0 => grid_spd(a, b, shift, seed),
            1 => tridiag_spd(a * b * 2, shift, seed),
            _ => grid_spd(a * 2, b, shift, seed),
        },
    )
}

fn assert_csc_bit_identical(a: &CscMatrix, b: &CscMatrix, what: &str) {
    assert_eq!(a.colptr(), b.colptr(), "{what}: colptr");
    assert_eq!(a.rowidx(), b.rowidx(), "{what}: rowidx");
    for (i, (x, y)) in a.values().iter().zip(b.values().iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: value {i} diverged ({x} vs {y})");
    }
}

/// `a` ordered with `ord` and factored by `kernel` on `threads` workers.
fn factor(
    a: &CscMatrix,
    ord: Ordering,
    kernel: KernelVariant,
    threads: usize,
) -> Result<CholeskyFactor, SparseError> {
    CholeskyFactor::factorize_with_perm_kernel(a, ord.compute(a)?, kernel, threads)
}

const ORDERINGS: [Ordering; 3] =
    [Ordering::Natural, Ordering::MinDegree, Ordering::NestedDissection];

proptest! {
    /// Partition invariants: supernode column ranges are contiguous and
    /// cover every column exactly once; each supernode's columns form an
    /// etree chain; the union row pattern is exactly the union of its
    /// columns' factor patterns (sorted, starting with the columns
    /// themselves); and the panel-cell accounting closes (trapezoid
    /// cells = factor nonzeros + padded cells).
    #[test]
    fn partition_invariants(a in arb_spd()) {
        for ord in ORDERINGS {
            let perm = ord.compute(&a).unwrap();
            let c = a.symmetric_perm_upper(&perm).unwrap();
            let symbolic = SymbolicCholesky::analyze(&c).unwrap();
            let part = SupernodePartition::from_symbolic(&c, &symbolic);
            let f = CholeskyFactor::factorize(&a, ord).unwrap();
            let l = f.l();
            let n = symbolic.n();
            let parent = symbolic.parent();

            let mut covered = 0usize;
            let mut trapezoid_cells = 0usize;
            for s in 0..part.num_supernodes() {
                let cols = part.cols(s);
                prop_assert_eq!(cols.start, covered, "ranges must be contiguous");
                prop_assert!(!cols.is_empty(), "supernodes are non-empty");
                covered = cols.end;
                let rows = part.rows(s);
                let w = cols.len();
                prop_assert!(
                    rows.windows(2).all(|p| p[0] < p[1]),
                    "union rows strictly ascending"
                );
                // The first w rows are the supernode's own columns.
                for (i, j) in cols.clone().enumerate() {
                    prop_assert_eq!(rows[i], j, "panel rows start with the columns");
                    prop_assert_eq!(part.supernode_of(j), s);
                }
                // Columns form an etree chain.
                for (j, &p) in parent.iter().enumerate().take(cols.end - 1).skip(cols.start) {
                    prop_assert_eq!(p, j + 1, "columns of a supernode chain in the etree");
                }
                // Union pattern == union of the factor columns' patterns.
                let mut union: Vec<usize> = Vec::new();
                for j in cols.clone() {
                    let (rj, _) = l.col(j);
                    union.extend_from_slice(rj);
                }
                union.sort_unstable();
                union.dedup();
                prop_assert_eq!(&union[..], rows, "union rows must match the factor patterns");
                trapezoid_cells += w * rows.len() - w * (w - 1) / 2;
            }
            prop_assert_eq!(covered, n, "every column exactly once");
            prop_assert_eq!(
                trapezoid_cells,
                l.nnz() + part.padded_cells(),
                "panel-cell accounting must close"
            );
        }
    }

    /// Scalar vs supernodal: identical factor pattern, values within
    /// rounding tolerance, for every ordering.
    #[test]
    fn supernodal_matches_scalar_within_tolerance(a in arb_spd()) {
        for ord in ORDERINGS {
            let scalar = factor(&a, ord, KernelVariant::Scalar, 1).unwrap();
            let blocked = factor(&a, ord, KernelVariant::Supernodal, 1).unwrap();
            prop_assert_eq!(scalar.l().colptr(), blocked.l().colptr(), "{:?}: colptr", ord);
            prop_assert_eq!(scalar.l().rowidx(), blocked.l().rowidx(), "{:?}: rowidx", ord);
            for (i, (x, y)) in
                scalar.l().values().iter().zip(blocked.l().values().iter()).enumerate()
            {
                prop_assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + x.abs()),
                    "{:?}: entry {} diverged beyond tolerance ({} vs {})", ord, i, x, y
                );
            }
        }
    }

    /// The supernodal determinism contract: bit-identical factors at
    /// threads 1, 2, and 4.
    #[test]
    fn supernodal_bit_identical_across_threads(a in arb_spd()) {
        for ord in [Ordering::MinDegree, Ordering::NestedDissection, Ordering::Natural] {
            let serial = factor(&a, ord, KernelVariant::Supernodal, 1).unwrap();
            for threads in [2usize, 4] {
                let par = factor(&a, ord, KernelVariant::Supernodal, threads).unwrap();
                assert_csc_bit_identical(
                    par.l(),
                    serial.l(),
                    &format!("supernodal {ord:?} t={threads}"),
                );
            }
        }
    }

    /// Solves through the supernodal factor actually solve the system.
    #[test]
    fn supernodal_solve_residual(a in arb_spd()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let f = factor(&a, Ordering::MinDegree, KernelVariant::Supernodal, 4).unwrap();
        let x = f.solve(&b);
        prop_assert!(a.residual_inf_norm(&x, &b) < 1e-8);
    }

    /// The partition exists for every matrix in the family and its
    /// supernode count is consistent with the mean width accessor.
    #[test]
    fn partition_stats_consistent(a in arb_spd()) {
        let perm = Ordering::MinDegree.compute(&a).unwrap();
        let c = a.symmetric_perm_upper(&perm).unwrap();
        let symbolic = SymbolicCholesky::analyze(&c).unwrap();
        let part = SupernodePartition::from_symbolic(&c, &symbolic);
        prop_assert!(part.num_supernodes() >= 1);
        prop_assert!(part.num_supernodes() <= symbolic.n());
        let mean = part.mean_width();
        prop_assert!(mean >= 1.0 && mean <= part.max_width() as f64);
        prop_assert!((mean * part.num_supernodes() as f64 - symbolic.n() as f64).abs() < 1e-9);
    }
}

/// A 14x14 grid with one diagonal entry poisoned to be strongly negative:
/// both kernels must report the same failing pivot column — the serial
/// sweep's first — at every thread count.
#[test]
fn supernodal_first_failure_matches_scalar() {
    let k = 14usize;
    let n = k * k;
    for poison in [3usize, n / 2, n - 2] {
        let base = grid_spd(k, k, 0.4, 7);
        let mut coo = CooMatrix::new(n, n);
        for j in 0..n {
            let (rows, vals) = base.col(j);
            for (&r, &v) in rows.iter().zip(vals.iter()) {
                let v = if r == j && r == poison { -100.0 } else { v };
                coo.push(r, j, v).unwrap();
            }
        }
        let a = coo.to_csc();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let scalar_err = factor(&a, ord, KernelVariant::Scalar, 1).unwrap_err();
            for threads in [1usize, 2, 4] {
                let err = factor(&a, ord, KernelVariant::Supernodal, threads).unwrap_err();
                assert_eq!(
                    format!("{scalar_err:?}"),
                    format!("{err:?}"),
                    "kernels must agree on the first failing column (ord {ord:?}, t={threads})"
                );
            }
        }
    }
}

/// Tiny matrices take the serial supernodal path (below the parallel
/// cutoff) and still match scalar.
#[test]
fn supernodal_small_matrices() {
    for n in [1usize, 2, 5, 16] {
        let a = tridiag_spd(n.max(2), 0.7, 11);
        let scalar = factor(&a, Ordering::Natural, KernelVariant::Scalar, 1).unwrap();
        let blocked = factor(&a, Ordering::Natural, KernelVariant::Supernodal, 4).unwrap();
        assert_eq!(scalar.l().colptr(), blocked.l().colptr());
        assert_eq!(scalar.l().rowidx(), blocked.l().rowidx());
        for (x, y) in scalar.l().values().iter().zip(blocked.l().values()) {
            assert!((x - y).abs() <= 1e-10 * (1.0 + x.abs()));
        }
    }
}

/// An etree chain's supernodes may straddle a job/tail boundary only —
/// encoded indirectly: the partition is schedule-independent, so two
/// different thread counts must see identical partitions (the partition
/// is derived purely from the symbolic analysis).
#[test]
fn partition_is_thread_independent_by_construction() {
    let a = grid_spd(13, 13, 0.3, 5);
    let perm = Ordering::MinDegree.compute(&a).unwrap();
    let c = a.symmetric_perm_upper(&perm).unwrap();
    let symbolic = SymbolicCholesky::analyze(&c).unwrap();
    let p1 = SupernodePartition::from_symbolic(&c, &symbolic);
    let p2 = SupernodePartition::from_symbolic(&c, &symbolic);
    assert_eq!(p1.num_supernodes(), p2.num_supernodes());
    for s in 0..p1.num_supernodes() {
        assert_eq!(p1.cols(s), p2.cols(s));
        assert_eq!(p1.rows(s), p2.rows(s));
    }
    assert_eq!(p1.padded_cells(), p2.padded_cells());
}

/// `NO_PARENT` roots terminate chains: the last column of the matrix is
/// always the last column of the last supernode, and its etree parent is
/// `NO_PARENT`.
#[test]
fn last_supernode_ends_at_root() {
    let a = grid_spd(10, 11, 0.2, 3);
    let perm = Ordering::MinDegree.compute(&a).unwrap();
    let c = a.symmetric_perm_upper(&perm).unwrap();
    let symbolic = SymbolicCholesky::analyze(&c).unwrap();
    let part = SupernodePartition::from_symbolic(&c, &symbolic);
    let n = symbolic.n();
    let last = part.num_supernodes() - 1;
    assert_eq!(part.cols(last).end, n);
    assert_eq!(symbolic.parent()[n - 1], NO_PARENT);
}
