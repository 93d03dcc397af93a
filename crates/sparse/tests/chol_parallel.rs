//! Property tests for the parallel numeric Cholesky: the subtree
//! schedule's structural invariants, and bit-identity of the parallel
//! factorization with the serial up-looking kernel at every thread
//! count, across random SPD grid/tridiagonal matrices, shifts, and
//! orderings (natural, approximate minimum degree and nested dissection).

use proptest::prelude::*;
use tracered_sparse::chol::{etree_consistent_with_factor, SymbolicCholesky};
use tracered_sparse::etree::NO_PARENT;
use tracered_sparse::order::Ordering;
use tracered_sparse::{CholeskyFactor, CooMatrix, CscMatrix, FactorOptions, KernelVariant};

/// Deterministic weight stream so proptest only has to explore shapes,
/// shifts and seeds (a tiny LCG, not a statistical RNG).
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

/// The matrix family under test: grids large enough to cross the
/// parallel kernel's fallback threshold (128 columns) and small enough
/// to keep the suite quick, plus tridiagonals (whose etree is a path —
/// the adversarial no-parallelism case).
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

const ORDERINGS: [Ordering; 3] =
    [Ordering::Natural, Ordering::MinDegree, Ordering::NestedDissection];

proptest! {
    /// The headline contract: the parallel factor equals the serial one
    /// bit for bit at threads 1, 2, and 4, for every ordering.
    #[test]
    fn parallel_factor_bit_identical_to_serial(a in arb_spd()) {
        for ord in ORDERINGS {
            let serial = CholeskyFactor::factorize(&a, ord).unwrap();
            for threads in [1usize, 2, 4] {
                let opts = FactorOptions { threads, ..ord.into() };
                let par = CholeskyFactor::factorize(&a, opts).unwrap();
                assert_csc_bit_identical(par.l(), serial.l(), &format!("{ord:?} t={threads}"));
            }
        }
    }

    /// The subtree schedule partitions the columns, and jobs are closed
    /// under the etree: a job column's parent is in the same job or the
    /// serial tail, never in another job.
    #[test]
    fn schedule_is_a_partition_of_closed_subtrees(a in arb_spd()) {
        for ord in ORDERINGS {
            let perm = ord.compute(&a).unwrap();
            let c = a.symmetric_perm_upper(&perm).unwrap();
            let symbolic = SymbolicCholesky::analyze(&c).unwrap();
            let parent = symbolic.parent();
            let n = symbolic.n();
            for threads in [1usize, 2, 4] {
                let s = symbolic.schedule(threads);
                const TAIL: usize = usize::MAX;
                let mut owner = vec![TAIL - 1; n]; // sentinel: unseen
                for (job, cols) in s.jobs().iter().enumerate() {
                    for &j in cols {
                        prop_assert_eq!(owner[j], TAIL - 1, "column scheduled twice");
                        owner[j] = job;
                    }
                }
                for &j in s.serial_tail() {
                    prop_assert_eq!(owner[j], TAIL - 1, "column scheduled twice");
                    owner[j] = TAIL;
                }
                prop_assert!(owner.iter().all(|&o| o != TAIL - 1), "column never scheduled");
                for j in 0..n {
                    let p = parent[j];
                    if owner[j] != TAIL && p != NO_PARENT {
                        prop_assert!(
                            owner[p] == owner[j] || owner[p] == TAIL,
                            "parent of a job column leaked into another job"
                        );
                    }
                }
            }
        }
    }

    /// Promoted from the single-size unit test in `chol.rs`: the factor's
    /// structure is consistent with the elimination tree **after** the
    /// fill-reducing permutation, for every ordering, on serial and
    /// parallel factors alike.
    #[test]
    fn etree_consistent_with_factor_post_permutation(a in arb_spd()) {
        for ord in ORDERINGS {
            let perm = ord.compute(&a).unwrap();
            let c = a.symmetric_perm_upper(&perm).unwrap();
            let symbolic = SymbolicCholesky::analyze(&c).unwrap();
            for threads in [1usize, 4] {
                let scalar = KernelVariant::Scalar;
                let f = CholeskyFactor::factorize_with_perm_kernel(&a, perm.clone(), scalar, threads)
                    .unwrap();
                prop_assert!(
                    etree_consistent_with_factor(f.l(), symbolic.parent()),
                    "{ord:?} at {threads} threads: factor structure disagrees with the etree"
                );
            }
        }
    }

    /// The solve path through a parallel factor is exactly the serial
    /// solve (same factor bits in, same solution bits out).
    #[test]
    fn solves_through_parallel_factor_match(a in arb_spd()) {
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let serial = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let xs = serial.solve(&b);
        for threads in [2usize, 4] {
            let opts = FactorOptions { threads, ..Default::default() };
            let par = CholeskyFactor::factorize(&a, opts).unwrap();
            let xp = par.solve(&b);
            for (s, p) in xs.iter().zip(xp.iter()) {
                prop_assert_eq!(s.to_bits(), p.to_bits());
            }
        }
        prop_assert!(a.residual_inf_norm(&xs, &b) < 1e-8);
    }
}
