//! **Table 1** — results for spectral graph sparsification.
//!
//! For every case, runs GRASS and the proposed trace-reduction method
//! under the identical budget (10 %·|V| off-tree edges, 5 iterations) and
//! reports `T_s` (sparsification time), κ (relative condition number),
//! `N_i` (PCG iterations to 1e-3 with a random RHS) and `T_i` (PCG time),
//! plus the κ and `T_i` reduction factors the paper headlines (2.6× and
//! 1.7× on average).
//!
//! Usage: `table1 [--scale f] [--case name]`

use tracered_bench::{evaluate_sparsifier, geomean, parse_args, secs, table1_cases};
use tracered_core::Method;

fn main() {
    let (scale, only) = parse_args(std::env::args().skip(1));
    println!("# Table 1: spectral graph sparsification (scale {scale})");
    println!(
        "{:<14} {:>8} {:>9} | {:>8} {:>8} {:>5} {:>8} | {:>8} {:>8} {:>5} {:>8} | {:>6} {:>6}",
        "case",
        "|V|",
        "|E|",
        "GR T_s",
        "GR k",
        "GR Ni",
        "GR T_i",
        "TR T_s",
        "TR k",
        "TR Ni",
        "TR T_i",
        "k red",
        "Ti red"
    );
    let mut kappa_ratios = Vec::new();
    let mut ti_ratios = Vec::new();
    for case in table1_cases() {
        if let Some(ref name) = only {
            if name != case.name {
                continue;
            }
        }
        let g = case.graph(scale);
        let grass = evaluate_sparsifier(&g, Method::Grass);
        let proposed = evaluate_sparsifier(&g, Method::TraceReduction);
        assert_eq!(grass.edges, proposed.edges, "methods must use equal budgets");
        let k_red = grass.kappa / proposed.kappa;
        let ti_red = grass.pcg_time.as_secs_f64() / proposed.pcg_time.as_secs_f64().max(1e-9);
        kappa_ratios.push(k_red);
        ti_ratios.push(ti_red);
        println!(
            "{:<14} {:>8} {:>9} | {:>8} {:>8.1} {:>5} {:>8} | {:>8} {:>8.1} {:>5} {:>8} | {:>5.1}X {:>5.1}X",
            case.name,
            g.num_nodes(),
            g.num_edges(),
            secs(grass.sparsify_time),
            grass.kappa,
            grass.pcg_iterations,
            secs(grass.pcg_time),
            secs(proposed.sparsify_time),
            proposed.kappa,
            proposed.pcg_iterations,
            secs(proposed.pcg_time),
            k_red,
            ti_red,
        );
    }
    if kappa_ratios.len() > 1 {
        println!(
            "{:<14} average reductions: kappa {:.1}X, PCG time {:.1}X (paper: 2.6X, 1.7X)",
            "-",
            geomean(&kappa_ratios),
            geomean(&ti_ratios)
        );
    }
}
