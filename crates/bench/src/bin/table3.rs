//! **Table 3** — computing the approximate Fiedler vector for spectral
//! graph partitioning.
//!
//! Five mesh cases; five steps of inverse power iteration per solver.
//! Reports the direct solver's time and factor memory, and for each
//! sparsifier-preconditioned PCG solver its time, memory, average PCG
//! iterations per step (`N_e`) and the partition disagreement vs the
//! direct result (`RelErr`), plus `Sp1 = T_D / T_I(proposed)` and
//! `Sp2 = T_I(GRASS) / T_I(proposed)` (paper averages: 3.3 and 1.4).
//!
//! Usage: `table3 [--scale f] [--case name]`

use std::time::Instant;

use tracered_bench::{geomean, mib, parse_args, table1_cases};
use tracered_core::{Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_graph::Graph;
use tracered_partition::{bisect_direct, bisect_pcg, partition_shift, relative_error, Bisection};
use tracered_solver::precond::{CholPreconditioner, Preconditioner};

const STEPS: usize = 5;
const SEED: u64 = 404;

fn iterative(g: &Graph, method: Method) -> (Bisection, f64, usize) {
    let s = partition_shift(g);
    let cfg = SparsifyConfig::new(method).shift(ShiftPolicy::Uniform(s));
    // Sparsifier construction is the amortized `T_s` of Table 1; the
    // paper's Table 3 `T_I` covers "matrix factorization and inverse
    // power iteration" only.
    let sp = tracered_core::sparsify(g, &cfg).expect("bench cases are connected");
    let t0 = Instant::now();
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(g)).expect("SPD");
    let bis = bisect_pcg(g, &pre, STEPS, SEED, 1e-3).expect("bisection");
    (bis, t0.elapsed().as_secs_f64(), pre.memory_bytes())
}

fn main() {
    let (scale, only) = parse_args(std::env::args().skip(1));
    println!("# Table 3: approximate Fiedler vector / spectral partitioning (scale {scale})");
    println!(
        "{:<14} {:>8} | {:>8} {:>8} | {:>8} {:>6} {:>9} | {:>8} {:>8} {:>6} {:>9} | {:>5} {:>5}",
        "case",
        "|V|",
        "T_D",
        "D Mem",
        "GR T_I",
        "GR Ne",
        "GR RelErr",
        "TR T_I",
        "TR Mem",
        "TR Ne",
        "TR RelErr",
        "Sp1",
        "Sp2"
    );
    let mut sp1s = Vec::new();
    let mut sp2s = Vec::new();
    // The paper's Table 3 uses the first five (SuiteSparse) cases.
    for case in table1_cases().into_iter().take(5) {
        if let Some(ref name) = only {
            if name != case.name {
                continue;
            }
        }
        let g = case.graph(scale);
        // Factor memory of the direct path, measured outside the timing.
        let direct_mem = {
            let s = partition_shift(&g);
            let l = tracered_graph::laplacian::laplacian_with_shifts(&g, &vec![s; g.num_nodes()]);
            tracered_solver::DirectSolver::new_threads(&l, 1).expect("SPD").memory_bytes()
        };
        let t0 = Instant::now();
        let direct_bis = bisect_direct(&g, STEPS, SEED).expect("bisection");
        let direct = (direct_bis, t0.elapsed().as_secs_f64(), direct_mem);
        let (gr_bis, gr_time, _gr_mem) = iterative(&g, Method::Grass);
        let (tr_bis, tr_time, tr_mem) = iterative(&g, Method::TraceReduction);
        let gr_err = relative_error(&direct.0.side, &gr_bis.side);
        let tr_err = relative_error(&direct.0.side, &tr_bis.side);
        let sp1 = direct.1 / tr_time.max(1e-9);
        let sp2 = gr_time / tr_time.max(1e-9);
        sp1s.push(sp1);
        sp2s.push(sp2);
        println!(
            "{:<14} {:>8} | {:>8.3} {:>7}M | {:>8.3} {:>6.1} {:>9.1e} | {:>8.3} {:>7}M {:>6.1} {:>9.1e} | {:>5.1} {:>5.1}",
            case.name,
            g.num_nodes(),
            direct.1,
            mib(direct.2),
            gr_time,
            gr_bis.inner_iterations as f64 / STEPS as f64,
            gr_err,
            tr_time,
            mib(tr_mem),
            tr_bis.inner_iterations as f64 / STEPS as f64,
            tr_err,
            sp1,
            sp2,
        );
    }
    if sp1s.len() > 1 {
        println!(
            "{:<14} average speedups: Sp1 {:.1} (paper 3.3), Sp2 {:.1} (paper 1.4)",
            "-",
            geomean(&sp1s),
            geomean(&sp2s)
        );
    }
}
