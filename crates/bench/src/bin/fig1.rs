//! **Figure 1** — transient waveforms of a stiff (pad-adjacent) node and
//! a worst-droop node, direct solver vs the proposed iterative solver.
//!
//! Writes `fig1_waveforms.csv` with columns
//! `t_ns, near_direct, near_iterative, far_direct, far_iterative`
//! and prints the maximum deviation (the paper reports < 16 mV).
//!
//! Usage: `fig1 [--scale f]`

use tracered_bench::parse_args;
use tracered_core::{Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{probe_pair, simulate_direct, simulate_pcg, TransientConfig};
use tracered_solver::precond::CholPreconditioner;

fn main() {
    let (scale, _) = parse_args(std::env::args().skip(1));
    let mesh = ((116.0 * scale.sqrt()).round() as usize).max(8);
    let pg = synthesize(&SynthConfig { mesh, seed: 32, ..Default::default() });
    let (near, far) = probe_pair(&pg);
    let probes = vec![near, far];

    let direct = simulate_direct(
        &pg,
        &TransientConfig { fixed_step: Some(1e-11), ..Default::default() },
        &probes,
    )
    .expect("grid is grounded");

    let cfg = SparsifyConfig::new(Method::TraceReduction)
        .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = tracered_core::sparsify(pg.graph(), &cfg).expect("PG mesh is connected");
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph())).expect("SPD");
    let iter =
        simulate_pcg(&pg, &TransientConfig::default(), &pre, &probes).expect("grid is grounded");

    let samples = 500;
    let t_end = *direct.times.last().unwrap();
    let mut csv = String::from("t_ns,near_direct,near_iterative,far_direct,far_iterative\n");
    for k in 0..=samples {
        let t = t_end * k as f64 / samples as f64;
        csv.push_str(&format!(
            "{:.4},{:.6},{:.6},{:.6},{:.6}\n",
            t * 1e9,
            direct.sample(0, t),
            iter.sample(0, t),
            direct.sample(1, t),
            iter.sample(1, t),
        ));
    }
    std::fs::write("fig1_waveforms.csv", csv).expect("write csv");
    let d_near = direct.max_probe_difference(&iter, 0, samples);
    let d_far = direct.max_probe_difference(&iter, 1, samples);
    println!("# Figure 1: transient waveforms (mesh {mesh}, |V| = {})", pg.num_nodes());
    println!("wrote fig1_waveforms.csv ({} samples)", samples + 1);
    println!(
        "max |direct - iterative|: pad-adjacent node {:.2} mV, worst-droop node {:.2} mV (paper: < 16 mV)",
        d_near * 1e3,
        d_far * 1e3
    );
    assert!(d_near < 0.016 && d_far < 0.016, "accuracy check failed");
}
