//! Compares the three criticality metrics — approximate trace reduction
//! (the paper), GRASS spectral perturbation, and feGRASS-style effective
//! resistance — under identical edge budgets, reproducing the paper's
//! core claim in miniature.
//!
//! ```sh
//! cargo run --release -p tracered-integration --example compare_baselines
//! ```

use tracered_core::metrics::{relative_condition_number, trace_proxy_hutchinson};
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};
use tracered_graph::Graph;
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;

fn report(name: &str, g: &Graph) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== {name}: {} nodes, {} edges ==", g.num_nodes(), g.num_edges());
    println!("{:<22} {:>8} {:>10} {:>8} {:>8}", "method", "kappa", "trace", "PCG its", "T_s (s)");
    let b: Vec<f64> = (0..g.num_nodes()).map(|i| ((i % 17) as f64) - 8.0).collect();
    for (label, method) in [
        ("trace reduction", Method::TraceReduction),
        ("GRASS", Method::Grass),
        ("effective resistance", Method::EffectiveResistance),
        ("JL resistance", Method::JlResistance),
    ] {
        let sp = sparsify(g, &SparsifyConfig::new(method))?;
        let lg = sp.graph_laplacian(g);
        let pre = CholPreconditioner::from_matrix(&sp.laplacian(g))?;
        let kappa = relative_condition_number(&lg, pre.factor(), 60, 3);
        let trace = trace_proxy_hutchinson(&lg, pre.factor(), 30, 5);
        let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-3));
        println!(
            "{:<22} {:>8.1} {:>10.1} {:>8} {:>8.3}",
            label,
            kappa,
            trace,
            sol.iterations,
            sp.report().total_time.as_secs_f64()
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    report(
        "triangular FEM mesh",
        &tri_mesh(50, 50, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 7),
    )?;
    report("2-D grid", &grid2d(60, 60, WeightProfile::Unit, 11))?;
    report(
        "wide-weight grid",
        &grid2d(55, 55, WeightProfile::LogUniform { lo: 0.01, hi: 100.0 }, 15),
    )?;
    Ok(())
}
