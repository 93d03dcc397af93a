//! Scaling study: how the trace-reduction advantage over GRASS grows
//! with problem size.
//!
//! The κ-reduction measured on the ~10k-node Table 1 analogs trails the
//! paper's 2.6× (reported at 0.5M–4M nodes), and scale is the suspected
//! cause. This binary makes that claim checkable: it sweeps one Table-1
//! case over `--scale`-multiplied sizes and prints the reduction factors
//! per size.
//!
//! Usage: `scaling [--scale f] [--case name]` (the sweep is multiplied
//! by `--scale`; default covers ~500 → ~50k nodes).

use tracered_bench::{evaluate_sparsifier, parse_args, table1_cases};
use tracered_core::Method;

fn main() {
    let (scale, case_name) = parse_args();
    let cases = table1_cases();
    let case = match &case_name {
        Some(name) => cases
            .iter()
            .find(|c| c.name == *name)
            .unwrap_or_else(|| panic!("unknown case '{name}'")),
        None => &cases[5], // trimesh-unit: the NACA0015 analog
    };
    println!("# Scaling study on {} (analog of {})", case.name, case.analog_of);
    println!(
        "{:>8} {:>9} | {:>9} {:>9} | {:>6} {:>6} | {:>7} {:>7}",
        "|V|", "|E|", "GRASS k", "TR k", "k red", "Ni red", "GR T_s", "TR T_s"
    );
    for mult in [0.05, 0.15, 0.5, 1.0, 2.0, 5.0] {
        let g = case.graph(scale * mult);
        let grass = evaluate_sparsifier(&g, Method::Grass);
        let tr = evaluate_sparsifier(&g, Method::TraceReduction);
        println!(
            "{:>8} {:>9} | {:>9.1} {:>9.1} | {:>5.2}X {:>5.2}X | {:>7.3} {:>7.3}",
            g.num_nodes(),
            g.num_edges(),
            grass.kappa,
            tr.kappa,
            grass.kappa / tr.kappa,
            grass.pcg_iterations as f64 / tr.pcg_iterations.max(1) as f64,
            grass.sparsify_time.as_secs_f64(),
            tr.sparsify_time.as_secs_f64(),
        );
    }
}
