//! Spectral graph partitioning with sparsifier-accelerated Fiedler
//! vector computation (paper §4.3).
//!
//! ```sh
//! cargo run --release -p tracered-integration --example graph_partitioning
//! ```

use std::time::Instant;

use tracered_core::{sparsify, sparsify_partitioned, Method, PartitionedConfig, SparsifyConfig};
use tracered_graph::gen::{tri_mesh, WeightProfile};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_partition::{bisect_direct, bisect_pcg, partition_shift, relative_error};
use tracered_solver::precond::CholPreconditioner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A rectangular FEM-style mesh (rectangular so the Fiedler value is
    // simple and the optimal cut is across the short side).
    let g = tri_mesh(80, 50, WeightProfile::Unit, 3);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());
    let steps = 5;

    // Direct solver path.
    let t0 = Instant::now();
    let direct = bisect_direct(&g, steps, 17)?;
    let t_direct = t0.elapsed();
    println!(
        "direct   : {:.3}s, cut weight {:.0}, balance {:.3}",
        t_direct.as_secs_f64(),
        direct.cut_weight,
        direct.balance
    );

    // Sparsifier-preconditioned PCG path: build the sparsifier under the
    // same uniform shift the partitioner uses.
    let t1 = Instant::now();
    let s = partition_shift(&g);
    let sp =
        sparsify(&g, &SparsifyConfig::new(Method::TraceReduction).shift(ShiftPolicy::Uniform(s)))?;
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g))?;
    let iterative = bisect_pcg(&g, &pre, steps, 17, 1e-3)?;
    let t_iter = t1.elapsed();
    println!(
        "iterative: {:.3}s (incl. sparsification), cut weight {:.0}, balance {:.3}, avg {:.1} PCG its/step",
        t_iter.as_secs_f64(),
        iterative.cut_weight,
        iterative.balance,
        iterative.inner_iterations as f64 / steps as f64
    );

    // Partition agreement (the paper's RelErr, ~1e-3).
    let err = relative_error(&direct.side, &iterative.side);
    println!("RelErr vs direct partition: {err:.2e}");
    assert!(err < 0.05, "partitions must agree closely");

    // The decomposition also feeds the partition-parallel sparsifier:
    // densify four domains concurrently and stitch them back together.
    let t2 = Instant::now();
    let psp = sparsify_partitioned(&g, &PartitionedConfig::new(4).threads(None))?;
    let pr = psp.partition_report();
    println!(
        "partitioned sparsify (k=4, {} threads): {:.3}s — cut {} edges \
         (connectors {}, boundary recovered {}), balance {:.3}",
        pr.threads,
        t2.elapsed().as_secs_f64(),
        pr.cut.count,
        pr.connector_edges,
        pr.boundary_recovered,
        pr.balance_ratio,
    );
    assert!(psp.sparsifier().as_graph(&g).is_connected());
    Ok(())
}
