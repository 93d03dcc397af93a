//! Sparsify a user-supplied SDD matrix in Matrix Market format — the
//! path for running this reproduction on the paper's actual SuiteSparse
//! matrices (`ecology2.mtx`, `thermal2.mtx`, …).
//!
//! ```sh
//! cargo run --release -p tracered-integration --example custom_matrix -- path/to/matrix.mtx
//! ```
//!
//! Without an argument, writes a small demo matrix to a temp file first
//! so the example is runnable out of the box.

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_graph::mmio::{read_graph_path, write_laplacian};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // Self-demo: generate a mesh, write it as .mtx, read it back.
            let g = tracered_graph::gen::tri_mesh(
                40,
                40,
                tracered_graph::gen::WeightProfile::LogUniform { lo: 0.2, hi: 5.0 },
                1,
            );
            let slack: Vec<f64> =
                (0..g.num_nodes()).map(|i| if i % 64 == 0 { 1.0 } else { 0.0 }).collect();
            let path = std::env::temp_dir().join("tracered_demo.mtx");
            let f = std::fs::File::create(&path)?;
            write_laplacian(f, &g, &slack)?;
            println!("no path given; wrote demo matrix to {}", path.display());
            path
        }
    };

    let mm = read_graph_path(&path)?;
    println!(
        "read {}: {} nodes, {} edges, {} grounded nodes",
        path.display(),
        mm.graph.num_nodes(),
        mm.graph.num_edges(),
        mm.diag_slack.iter().filter(|&&s| s > 0.0).count()
    );
    if !mm.graph.is_connected() {
        println!(
            "matrix graph has {} components; sparsifying the largest is left to the caller",
            mm.graph.num_components()
        );
        return Ok(());
    }

    // Grounding: the file's own diagonal slack plus a small algorithmic
    // floor for nodes with none.
    let n = mm.graph.num_nodes();
    let floor = 1e-3 * 2.0 * mm.graph.total_weight() / n as f64;
    let shifts: Vec<f64> = mm.diag_slack.iter().map(|&s| s + floor).collect();
    let sp = sparsify(
        &mm.graph,
        &SparsifyConfig::new(Method::TraceReduction).shift(ShiftPolicy::PerNode(shifts)),
    )?;
    println!(
        "sparsifier: {} of {} edges in {:.3}s",
        sp.edge_ids().len(),
        mm.graph.num_edges(),
        sp.report().total_time.as_secs_f64()
    );

    let lg = sp.graph_laplacian(&mm.graph);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&mm.graph))?;
    let kappa = relative_condition_number(&lg, pre.factor(), 60, 1);
    let b: Vec<f64> = (0..n).map(|i| ((i % 29) as f64) - 14.0).collect();
    let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-6));
    println!("κ(L_G, L_P) ≈ {kappa:.1}; PCG to 1e-6 in {} iterations", sol.iterations);
    Ok(())
}
