//! Quickstart: sparsify a mesh and use the sparsifier as a PCG
//! preconditioner.
//!
//! ```sh
//! cargo run --release -p tracered-integration --example quickstart
//! ```

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{tri_mesh, WeightProfile};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::{CholPreconditioner, IcPreconditioner, JacobiPreconditioner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A graph: a 60×60 triangulated FEM-style mesh with log-uniform
    //    conductances (the paper's kind of test case).
    let g = tri_mesh(60, 60, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 42);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // 2. Sparsify with the paper's approximate-trace-reduction algorithm:
    //    spanning tree + 10% |V| spectrally-critical off-tree edges.
    //    `threads(None)` runs the scoring engine on all available cores;
    //    the selected edges are bit-identical to the serial path.
    let sp = sparsify(&g, &SparsifyConfig::new(Method::TraceReduction).threads(None))?;
    println!(
        "sparsifier: {} edges ({:.1}% of the graph), built in {:.3}s on {} thread(s)",
        sp.edge_ids().len(),
        100.0 * sp.edge_ids().len() as f64 / g.num_edges() as f64,
        sp.report().total_time.as_secs_f64(),
        sp.report().iterations.first().map_or(1, |it| it.threads)
    );

    // 3. Quality: the relative condition number κ(L_G, L_P).
    let lg = sp.graph_laplacian(&g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g))?;
    let kappa = relative_condition_number(&lg, pre.factor(), 60, 7);
    println!("relative condition number κ(L_G, L_P) ≈ {kappa:.1}");

    // 4. Use it: PCG on L_G x = b with the sparsifier preconditioner
    //    versus a Jacobi baseline.
    let b: Vec<f64> = (0..g.num_nodes()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let opts = PcgOptions::with_tolerance(1e-6);
    let fast = pcg(&lg, &b, &pre, &opts);
    let ic = pcg(&lg, &b, &IcPreconditioner::from_matrix(&lg)?, &opts);
    let slow = pcg(&lg, &b, &JacobiPreconditioner::from_matrix(&lg)?, &opts);
    println!(
        "PCG to 1e-6: sparsifier {} iterations, IC(0) {} iterations, Jacobi {} iterations",
        fast.iterations, ic.iterations, slow.iterations
    );
    assert!(fast.converged && ic.converged && slow.converged);
    assert!(lg.residual_inf_norm(&fast.x, &b) < 1e-3);
    Ok(())
}
