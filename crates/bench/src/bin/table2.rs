//! **Table 2** — power-grid transient simulation.
//!
//! Six synthetic PG cases (analogs of ibmpg3t…thupg2t). For each:
//!
//! - **Direct**: fixed 10 ps steps, one factorization of `G + C/h`,
//!   substitutions per step (`T_tr`, `Mem`);
//! - **GRASS / Proposed**: variable breakpoint-driven steps (≤ 200 ps),
//!   PCG (tol 1e-6) preconditioned by the Cholesky factor of each
//!   method's sparsifier built in DC analysis (`T_s`, `T_tr`, `N_e`,
//!   `Mem`);
//! - speedups `Sp1 = T_direct / T_proposed`, `Sp2 = T_grass / T_proposed`
//!   (paper averages: 3.4 and 1.4).
//!
//! Usage: `table2 [--scale f] [--case name]`

use std::time::{Duration, Instant};
use tracered_bench::{geomean, mib, parse_args, secs};
use tracered_core::{Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{probe_pair, simulate_direct, simulate_pcg, TransientConfig};
use tracered_powergrid::PowerGrid;
use tracered_solver::precond::{CholPreconditioner, Preconditioner};

struct PgCase {
    name: &'static str,
    analog_of: &'static str,
    mesh: usize,
    seed: u64,
}

fn pg_cases() -> Vec<PgCase> {
    // Default sizes sit at 10k–50k nodes: large enough that the direct
    // solver's factor cost and fill dominate (the regime of the paper's
    // 0.85M–9M-node benchmarks), small enough to run in minutes.
    vec![
        PgCase { name: "pg-a", analog_of: "ibmpg3t", mesh: 104, seed: 31 },
        PgCase { name: "pg-b", analog_of: "ibmpg4t", mesh: 116, seed: 32 },
        PgCase { name: "pg-c", analog_of: "ibmpg5t", mesh: 128, seed: 33 },
        PgCase { name: "pg-d", analog_of: "ibmpg6t", mesh: 152, seed: 34 },
        PgCase { name: "pg-e", analog_of: "thupg1t", mesh: 176, seed: 35 },
        PgCase { name: "pg-f", analog_of: "thupg2t", mesh: 216, seed: 36 },
    ]
}

fn build_grid(case: &PgCase, scale: f64) -> PowerGrid {
    let mesh = ((case.mesh as f64 * scale.sqrt()).round() as usize).max(8);
    synthesize(&SynthConfig { mesh, seed: case.seed, ..Default::default() })
}

/// Builds a sparsifier preconditioner for the PG conductance matrix,
/// grounding the sparsifier's Laplacian with the *physical* pad
/// conductances.
fn pg_preconditioner(pg: &PowerGrid, method: Method) -> (CholPreconditioner, Duration) {
    let t0 = Instant::now();
    let cfg =
        SparsifyConfig::new(method).shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = tracered_core::sparsify(pg.graph(), &cfg).expect("PG mesh is connected");
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph()))
        .expect("padded sparsifier Laplacian is SPD");
    (pre, t0.elapsed())
}

fn main() {
    let (scale, only) = parse_args(std::env::args().skip(1));
    println!("# Table 2: power grid transient simulation (scale {scale}, 5 ns horizon)");
    println!(
        "{:<6} {:>7} | {:>8} {:>8} | {:>7} {:>8} {:>6} | {:>7} {:>8} {:>6} {:>8} | {:>5} {:>5}",
        "case",
        "|V|",
        "Dir Ttr",
        "Dir Mem",
        "GR T_s",
        "GR Ttr",
        "GR Ne",
        "TR T_s",
        "TR Ttr",
        "TR Ne",
        "TR Mem",
        "Sp1",
        "Sp2"
    );
    let mut sp1s = Vec::new();
    let mut sp2s = Vec::new();
    for case in pg_cases() {
        if let Some(ref name) = only {
            if name != case.name {
                continue;
            }
        }
        let pg = build_grid(&case, scale);
        let probes = {
            let (a, b) = probe_pair(&pg);
            vec![a, b]
        };
        let cfg = TransientConfig { fixed_step: Some(1e-11), ..Default::default() };
        let direct = simulate_direct(&pg, &cfg, &probes).expect("grid is grounded");
        let vcfg = TransientConfig { fixed_step: None, ..Default::default() };
        let (grass_pre, grass_ts) = pg_preconditioner(&pg, Method::Grass);
        let grass = simulate_pcg(&pg, &vcfg, &grass_pre, &probes).expect("grid is grounded");
        let (tr_pre, tr_ts) = pg_preconditioner(&pg, Method::TraceReduction);
        let proposed = simulate_pcg(&pg, &vcfg, &tr_pre, &probes).expect("grid is grounded");
        // Accuracy guard mirroring the paper's < 16 mV check.
        for idx in 0..probes.len() {
            let d = direct.max_probe_difference(&proposed, idx, 500);
            assert!(d < 0.016, "probe {idx} deviates {d} V from direct");
        }
        let t_dir = direct.stats.factor_time + direct.stats.solve_time;
        let t_gr = grass.stats.solve_time;
        let t_tr = proposed.stats.solve_time;
        let sp1 = t_dir.as_secs_f64() / t_tr.as_secs_f64().max(1e-9);
        let sp2 = t_gr.as_secs_f64() / t_tr.as_secs_f64().max(1e-9);
        sp1s.push(sp1);
        sp2s.push(sp2);
        println!(
            "{:<6} {:>7} | {:>8} {:>7}M | {:>7} {:>8} {:>6.1} | {:>7} {:>8} {:>6.1} {:>7}M | {:>5.1} {:>5.1}",
            case.name,
            pg.num_nodes(),
            secs(t_dir),
            mib(direct.stats.memory_bytes),
            secs(grass_ts),
            secs(t_gr),
            grass.stats.avg_pcg_iterations,
            secs(tr_ts),
            secs(t_tr),
            proposed.stats.avg_pcg_iterations,
            mib(tr_pre.memory_bytes()),
            sp1,
            sp2,
        );
        let _ = case.analog_of;
    }
    if sp1s.len() > 1 {
        println!(
            "{:<6} average speedups: Sp1 {:.1} (paper 3.4), Sp2 {:.1} (paper 1.4)",
            "-",
            geomean(&sp1s),
            geomean(&sp2s)
        );
    }
}
