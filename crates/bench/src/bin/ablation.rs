//! Ablation studies for the reproduction's design choices:
//!
//! - truncation radius β (paper default 5);
//! - SPAI pruning threshold δ (paper default 0.1);
//! - diagonal grounding scale (a vanishing shift defeats Algorithm 1's
//!   max-relative pruning, hence `SparsifyConfig`'s 1e-3 default);
//! - densification iteration count `N_r` (paper default 5);
//! - spanning-tree flavour (MEWST vs plain max-weight);
//! - similar-edge exclusion on/off.
//!
//! Each sweep reports κ(L_G, L_P) and sparsification time on one mesh
//! case.
//!
//! Usage: `ablation [--scale f]`

use std::time::Instant;

use tracered_bench::parse_args;
use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{tri_mesh, WeightProfile};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_graph::mst::TreeKind;
use tracered_graph::Graph;
use tracered_solver::precond::CholPreconditioner;

fn eval(g: &Graph, cfg: &SparsifyConfig) -> (f64, f64) {
    let t0 = Instant::now();
    let sp = sparsify(g, cfg).expect("mesh is connected");
    let ts = t0.elapsed().as_secs_f64();
    let lg = sp.graph_laplacian(g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(g)).expect("SPD");
    (relative_condition_number(&lg, pre.factor(), 60, 11), ts)
}

fn main() {
    let (scale, _) = parse_args(std::env::args().skip(1));
    let d = ((60.0 * scale.sqrt()).round() as usize).max(10);
    let g = tri_mesh(d, d, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 7);
    println!("# Ablations on trimesh {d}x{d} (|V| = {}, |E| = {})", g.num_nodes(), g.num_edges());

    println!("\n## β sweep (truncation radius; paper default 5)");
    for beta in [1usize, 2, 3, 5, 8, 12] {
        let (k, ts) = eval(&g, &SparsifyConfig::new(Method::TraceReduction).beta(beta));
        println!("beta {beta:>3}: kappa {k:>8.2}, T_s {ts:>7.3}s");
    }

    println!("\n## δ sweep (SPAI pruning threshold; paper default 0.1)");
    for delta in [0.0, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let (k, ts) = eval(&g, &SparsifyConfig::new(Method::TraceReduction).spai_threshold(delta));
        println!("delta {delta:>5.2}: kappa {k:>8.2}, T_s {ts:>7.3}s");
    }

    println!("\n## grounding sweep (diagonal shift as fraction of mean weighted degree)");
    for s in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
        let (k, ts) = eval(
            &g,
            &SparsifyConfig::new(Method::TraceReduction).shift(ShiftPolicy::RelativeMeanDegree(s)),
        );
        println!("shift {s:>8.0e}: kappa {k:>8.2}, T_s {ts:>7.3}s");
    }

    println!("\n## N_r sweep (densification iterations; paper default 5)");
    for nr in [1usize, 2, 3, 5, 8] {
        let (k, ts) = eval(&g, &SparsifyConfig::new(Method::TraceReduction).iterations(nr));
        println!("N_r {nr:>2}: kappa {k:>8.2}, T_s {ts:>7.3}s");
    }

    println!("\n## spanning tree flavour (stretch = Σ w·R_T over all edges)");
    for (name, kind) in
        [("MEWST", TreeKind::MaxEffectiveWeight), ("max-weight", TreeKind::MaxWeight)]
    {
        let st = tracered_graph::mst::spanning_tree(&g, kind).expect("mesh is connected");
        let tree = tracered_graph::RootedTree::build(&g, &st.tree_edges, 0).expect("tree");
        let stretch = tracered_graph::lca::total_stretch(&g, &tree);
        let (k, ts) = eval(&g, &SparsifyConfig::new(Method::TraceReduction).tree_kind(kind));
        println!("{name:>10}: kappa {k:>8.2}, T_s {ts:>7.3}s, stretch {stretch:>10.0}");
    }

    println!("\n## similar-edge exclusion");
    for (name, on) in [("enabled", true), ("disabled", false)] {
        let (k, ts) =
            eval(&g, &SparsifyConfig::new(Method::TraceReduction).similarity_exclusion(on));
        println!("{name:>10}: kappa {k:>8.2}, T_s {ts:>7.3}s");
    }

    println!("\n## method comparison at matched budget");
    for (name, m) in [
        ("trace-red", Method::TraceReduction),
        ("grass", Method::Grass),
        ("eff-res", Method::EffectiveResistance),
        ("jl-res", Method::JlResistance),
    ] {
        let (k, ts) = eval(&g, &SparsifyConfig::new(m));
        println!("{name:>10}: kappa {k:>8.2}, T_s {ts:>7.3}s");
    }

    transient_solver_ablation(scale);
}

/// The paper's §4.2 argument, made concrete: with *varied* time steps a
/// direct solver refactorizes at every step-size change, while the
/// sparsifier-preconditioned PCG reuses one preconditioner throughout.
fn transient_solver_ablation(scale: f64) {
    use tracered_powergrid::synth::{synthesize, SynthConfig};
    use tracered_powergrid::transient::{
        probe_pair, simulate_direct, simulate_direct_varied, simulate_pcg, TransientConfig,
    };
    use tracered_solver::precond::CholPreconditioner;

    let mesh = ((72.0 * scale.sqrt()).round() as usize).max(8);
    let pg = synthesize(&SynthConfig { mesh, seed: 5, ..Default::default() });
    let probes = {
        let (a, b) = probe_pair(&pg);
        vec![a, b]
    };
    println!("\n## transient solver strategies (PG mesh {mesh}, |V| = {})", pg.num_nodes());
    let fixed = simulate_direct(
        &pg,
        &TransientConfig { fixed_step: Some(1e-11), ..Default::default() },
        &probes,
    )
    .expect("grid is grounded");
    println!(
        "direct fixed 10ps : {:>7.3}s ({} steps, 1 factorization)",
        (fixed.stats.factor_time + fixed.stats.solve_time).as_secs_f64(),
        fixed.stats.steps
    );
    let varied = simulate_direct_varied(&pg, &TransientConfig::default(), &probes)
        .expect("grid is grounded");
    println!(
        "direct varied step: {:>7.3}s ({} steps, {} factorizations)",
        (varied.stats.factor_time + varied.stats.solve_time).as_secs_f64(),
        varied.stats.steps,
        varied.stats.factorizations
    );
    let cfg = SparsifyConfig::new(Method::TraceReduction)
        .shift(tracered_graph::laplacian::ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = tracered_core::sparsify(pg.graph(), &cfg).expect("PG mesh is connected");
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph())).expect("SPD");
    let pcg_run =
        simulate_pcg(&pg, &TransientConfig::default(), &pre, &probes).expect("grid is grounded");
    println!(
        "sparsifier PCG    : {:>7.3}s ({} steps, 0 factorizations, avg {:.1} its/step)",
        pcg_run.stats.solve_time.as_secs_f64(),
        pcg_run.stats.steps,
        pcg_run.stats.avg_pcg_iterations
    );
}
