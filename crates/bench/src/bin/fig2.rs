//! **Figure 2** — trade-off between sparsifier density and power-grid
//! transient runtime, GRASS vs the proposed method.
//!
//! Sweeps the proportion of recovered off-tree edges over
//! {0.05, 0.075, …, 0.20} on one PG case and records the transient
//! solve time of each method's preconditioned PCG. Writes
//! `fig2_tradeoff.csv` and prints the series; the paper's shape:
//! runtime decreases with density (diminishing returns) and the proposed
//! method keeps a persistent advantage that grows with density.
//!
//! Usage: `fig2 [--scale f]`

use tracered_bench::parse_args;
use tracered_core::{Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{probe_pair, simulate_pcg, TransientConfig};
use tracered_solver::precond::CholPreconditioner;

fn main() {
    let (scale, _) = parse_args(std::env::args().skip(1));
    let mesh = ((116.0 * scale.sqrt()).round() as usize).max(8);
    let pg = synthesize(&SynthConfig { mesh, seed: 32, ..Default::default() });
    let probes = {
        let (a, b) = probe_pair(&pg);
        vec![a, b]
    };
    let fractions = [0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20];
    println!("# Figure 2: sparsity vs transient runtime (mesh {mesh}, |V| = {})", pg.num_nodes());
    println!(
        "{:>9} {:>12} {:>12} {:>8} {:>8}",
        "fraction", "GRASS (s)", "Proposed (s)", "GR Ne", "TR Ne"
    );
    let mut csv = String::from("fraction,grass_seconds,proposed_seconds,grass_ne,proposed_ne\n");
    for &f in &fractions {
        let mut row = (0.0, 0.0, 0.0, 0.0);
        for method in [Method::Grass, Method::TraceReduction] {
            let cfg = SparsifyConfig::new(method)
                .edge_fraction(f)
                .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
            let sp = tracered_core::sparsify(pg.graph(), &cfg).expect("PG mesh is connected");
            let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph())).expect("SPD");
            let out = simulate_pcg(&pg, &TransientConfig::default(), &pre, &probes)
                .expect("grid is grounded");
            let secs = out.stats.solve_time.as_secs_f64();
            match method {
                Method::Grass => {
                    row.0 = secs;
                    row.2 = out.stats.avg_pcg_iterations;
                }
                _ => {
                    row.1 = secs;
                    row.3 = out.stats.avg_pcg_iterations;
                }
            }
        }
        println!("{:>9.3} {:>12.4} {:>12.4} {:>8.1} {:>8.1}", f, row.0, row.1, row.2, row.3);
        csv.push_str(&format!("{},{:.6},{:.6},{:.2},{:.2}\n", f, row.0, row.1, row.2, row.3));
    }
    std::fs::write("fig2_tradeoff.csv", csv).expect("write csv");
    println!("wrote fig2_tradeoff.csv");
}
