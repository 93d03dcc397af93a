//! PCG and block PCG run the same SpMV, reduction and vector kernels at
//! every thread count, one thread included, so iteration counts and
//! solution bits must not depend on `PcgOptions::threads`. Every system
//! here has more than 4,096 nodes: the dot products reduce in
//! 4,096-entry chunks, and a shorter vector reduces in one chunk, which
//! could not tell a one-thread fold from the chunked one.

use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};
use tracered_graph::laplacian::laplacian_with_shifts;
use tracered_solver::pcg::{pcg, PcgOptions, PcgSolution};
use tracered_solver::precond::{CholPreconditioner, JacobiPreconditioner};
use tracered_sparse::CscMatrix;

/// Thread counts compared against the one-thread solve.
const THREADS: [usize; 3] = [2, 4, 8];

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect()
}

/// Shifted Laplacian of a 120 × 120 grid with log-uniform weights:
/// 14,400 nodes, four dot-product chunks.
fn log_grid() -> CscMatrix {
    let g = grid2d(120, 120, WeightProfile::LogUniform { lo: 0.1, hi: 10.0 }, 3);
    laplacian_with_shifts(&g, &vec![0.05; g.num_nodes()])
}

fn assert_same_bits(reference: &PcgSolution, other: &PcgSolution, threads: usize) {
    assert_eq!(
        reference.iterations, other.iterations,
        "iteration count at {threads} threads differs from one thread"
    );
    assert_eq!(reference.rel_residual.to_bits(), other.rel_residual.to_bits());
    assert!(
        reference.x.iter().zip(other.x.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
        "solution bits at {threads} threads differ from one thread"
    );
}

#[test]
fn parallel_pcg_converges_with_jacobi() {
    let a = log_grid();
    let b = rhs(a.ncols());
    let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
    let opts = PcgOptions::with_tolerance(1e-8);
    let one = pcg(&a, &b, &pre, &opts.threads(1));
    assert!(one.converged);
    assert!(a.residual_inf_norm(&one.x, &b) < 1e-5);
    for threads in THREADS {
        let sol = pcg(&a, &b, &pre, &opts.threads(threads));
        assert_same_bits(&one, &sol, threads);
    }
}

#[test]
fn parallel_pcg_with_sparsifier_preconditioner_matches_serial_iterations() {
    // The paper's end use: sparsifier-preconditioned PCG on a mesh.
    let g = tri_mesh(66, 66, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 7);
    assert!(g.num_nodes() > 4096);
    let sp = sparsify(&g, &SparsifyConfig::new(Method::TraceReduction)).unwrap();
    let lg = sp.graph_laplacian(&g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
    let b = rhs(g.num_nodes());
    let opts = PcgOptions::with_tolerance(1e-6);
    let one = pcg(&lg, &b, &pre, &opts);
    assert!(one.converged && one.iterations > 0);
    assert!(lg.residual_inf_norm(&one.x, &b) < 1e-4);
    for threads in THREADS {
        let sol = pcg(&lg, &b, &pre, &opts.threads(threads));
        assert_same_bits(&one, &sol, threads);
    }
}

#[test]
fn threads_builder_floors_at_one() {
    let opts = PcgOptions::default().threads(0);
    assert_eq!(opts.threads, 1);
    // threads = 1 through the builder is the default thread count.
    let g = grid2d(10, 10, WeightProfile::Unit, 1);
    let a = laplacian_with_shifts(&g, &vec![0.05; 100]);
    let b = rhs(100);
    let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
    let s1 = pcg(&a, &b, &pre, &PcgOptions::with_tolerance(1e-9));
    let s2 = pcg(&a, &b, &pre, &PcgOptions::with_tolerance(1e-9).threads(1));
    assert_eq!(s1.iterations, s2.iterations);
    assert!(s1.x.iter().zip(s2.x.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn block_pcg_is_bit_identical_across_thread_counts() {
    use tracered_solver::block::block_pcg;
    use tracered_sparse::MultiVec;

    let a = log_grid();
    let n = a.ncols();
    let cols: Vec<Vec<f64>> =
        (0..2).map(|c| (0..n).map(|i| ((i * 17 + c * 29) % 31) as f64 - 15.0).collect()).collect();
    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    let b = MultiVec::from_columns(&refs).unwrap();
    let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
    let opts = PcgOptions::with_tolerance(1e-8);
    let one = block_pcg(&a, &b, &pre, &opts.threads(1));
    assert!(one.all_converged());
    for threads in THREADS {
        let sol = block_pcg(&a, &b, &pre, &opts.threads(threads));
        assert_eq!(one.iterations, sol.iterations, "iteration counts at {threads} threads");
        assert_eq!(one.sweeps, sol.sweeps);
        for c in 0..b.ncols() {
            assert!(
                one.x.col(c).iter().zip(sol.x.col(c)).all(|(p, q)| p.to_bits() == q.to_bits()),
                "column {c} bits at {threads} threads differ from one thread"
            );
        }
    }
}

#[test]
fn block_pcg_columns_match_single_rhs_across_thread_counts() {
    // The batched subsystem's equivalence contract at integration scale:
    // a width-k block solve is column-for-column identical to k
    // independent single-RHS solves, at every thread count.
    use tracered_solver::block::block_pcg;
    use tracered_sparse::MultiVec;

    let g = tri_mesh(20, 20, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 9);
    let sp = sparsify(&g, &SparsifyConfig::new(Method::TraceReduction)).unwrap();
    let lg = sp.graph_laplacian(&g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
    let n = g.num_nodes();
    let cols: Vec<Vec<f64>> =
        (0..6).map(|c| (0..n).map(|i| ((i * 17 + c * 29) % 31) as f64 - 15.0).collect()).collect();
    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    let b = MultiVec::from_columns(&refs).unwrap();
    for threads in [1usize, 2, 4] {
        let opts = PcgOptions::with_tolerance(1e-8).threads(threads);
        let block = block_pcg(&lg, &b, &pre, &opts);
        assert!(block.all_converged(), "{threads}-thread block PCG failed to converge");
        for (c, col) in cols.iter().enumerate() {
            let single = pcg(&lg, col, &pre, &opts);
            assert_eq!(
                single.iterations, block.iterations[c],
                "column {c} iteration count at {threads} threads"
            );
            for (s, m) in single.x.iter().zip(block.x.col(c).iter()) {
                assert!(
                    (s - m).abs() == 0.0,
                    "column {c} diverged from single-RHS PCG at {threads} threads"
                );
            }
        }
    }
}
