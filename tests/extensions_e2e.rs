//! End-to-end tests for extensions beyond the paper: trapezoidal
//! integration, sparsifier vs IC(0) iteration scaling, the JL method,
//! k-way partitioning, the tracked trace bound and the stretch identity.

use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};
use tracered_graph::laplacian::laplacian_with_shifts;
use tracered_partition::recursive_bisection;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{
    probe_pair, simulate_direct, IntegrationScheme, TransientConfig,
};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::{CholPreconditioner, IcPreconditioner};

#[test]
fn trapezoidal_converges_faster_than_backward_euler() {
    // Halving the step should cut backward Euler's error ~2× (first
    // order) and the trapezoidal rule's ~4× (second order). Reference:
    // a very fine backward-Euler run.
    let pg =
        synthesize(&SynthConfig { mesh: 6, source_fraction: 0.4, seed: 3, ..Default::default() });
    let (_, far) = probe_pair(&pg);
    let t_end = 4e-10;
    let run = |scheme: IntegrationScheme, h: f64| {
        simulate_direct(
            &pg,
            &TransientConfig { t_end, fixed_step: Some(h), scheme, ..Default::default() },
            &[far],
        )
        .unwrap()
    };
    let reference = run(IntegrationScheme::BackwardEuler, 1.25e-13);
    let err = |scheme: IntegrationScheme, h: f64| -> f64 {
        run(scheme, h).max_probe_difference(&reference, 0, 64)
    };
    let (h1, h2) = (2e-11, 1e-11);
    let be_ratio = err(IntegrationScheme::BackwardEuler, h1)
        / err(IntegrationScheme::BackwardEuler, h2).max(1e-18);
    let tr_ratio = err(IntegrationScheme::Trapezoidal, h1)
        / err(IntegrationScheme::Trapezoidal, h2).max(1e-18);
    // First vs second order, with slack for the non-smooth source kinks.
    assert!((1.4..3.0).contains(&be_ratio), "backward Euler halving ratio {be_ratio} should be ~2");
    assert!(tr_ratio > 2.8, "trapezoidal halving ratio {tr_ratio} should be ~4");
    assert!(
        err(IntegrationScheme::Trapezoidal, h1) < err(IntegrationScheme::BackwardEuler, h1),
        "trapezoidal must be more accurate at equal step"
    );
}

#[test]
fn sparsifier_iterations_scale_flatter_than_ic0() {
    // The reason sparsifier preconditioners exist: IC(0)'s PCG iteration
    // count grows with the mesh, a sparsifier's stays nearly flat.
    let counts = |k: usize| -> (usize, usize) {
        let g = grid2d(k, k, WeightProfile::Unit, 7);
        let n = g.num_nodes();
        let sp = sparsify(&g, &SparsifyConfig::default()).unwrap();
        let lg = sp.graph_laplacian(&g);
        let b: Vec<f64> = (0..n).map(|i| ((i % 23) as f64) - 11.0).collect();
        let opts = PcgOptions::with_tolerance(1e-6);
        let ic = pcg(&lg, &b, &IcPreconditioner::from_matrix(&lg).unwrap(), &opts);
        let spp = pcg(&lg, &b, &CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap(), &opts);
        assert!(ic.converged && spp.converged);
        (ic.iterations, spp.iterations)
    };
    let (ic_small, sp_small) = counts(12);
    let (ic_big, sp_big) = counts(36);
    let ic_growth = ic_big as f64 / ic_small as f64;
    let sp_growth = sp_big as f64 / sp_small as f64;
    assert!(
        ic_growth > sp_growth,
        "IC(0) growth {ic_growth:.2} must exceed sparsifier growth {sp_growth:.2} \
         (IC {ic_small}→{ic_big}, sparsifier {sp_small}→{sp_big})"
    );
}

#[test]
fn jl_method_end_to_end_on_mesh() {
    let g = tri_mesh(16, 16, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 5);
    let sp = sparsify(&g, &SparsifyConfig::new(Method::JlResistance).jl_probes(32)).unwrap();
    assert!(sp.as_graph(&g).is_connected());
    let lg = sp.graph_laplacian(&g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
    let b: Vec<f64> = (0..g.num_nodes()).map(|i| ((i % 9) as f64) - 4.0).collect();
    let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-6));
    assert!(sol.converged);
}

#[test]
fn kway_partition_cut_grows_sublinearly_in_parts() {
    // Doubling the part count on a grid should add roughly one more
    // separator's worth of cut, not double it: cut(4) < 3·cut(2).
    let g = grid2d(16, 16, WeightProfile::Unit, 9);
    let c2 = recursive_bisection(&g, 2, 8, 1).unwrap().cut_weight;
    let c4 = recursive_bisection(&g, 4, 8, 1).unwrap().cut_weight;
    let c8 = recursive_bisection(&g, 8, 8, 1).unwrap().cut_weight;
    assert!(c2 < c4 && c4 < c8, "cut must grow with parts: {c2} {c4} {c8}");
    assert!(c4 < 3.0 * c2, "4-way cut {c4} should be < 3x bisection cut {c2}");
}

#[test]
fn tracked_trace_upper_bounds_measured_kappa() {
    let g = tri_mesh(12, 12, WeightProfile::Unit, 2);
    let sp = sparsify(&g, &SparsifyConfig::default().track_trace(true)).unwrap();
    let last_trace =
        sp.report().iterations.last().and_then(|it| it.trace_estimate).expect("tracking enabled");
    let lg = sp.graph_laplacian(&g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
    let kappa = tracered_core::metrics::relative_condition_number(&lg, pre.factor(), 60, 4);
    // The last tracked trace is measured *before* the final recovery, so
    // with Hutchinson slack it must still dominate the final κ.
    assert!(last_trace * 1.2 > kappa, "trace estimate {last_trace} should bound κ {kappa}");
}

#[test]
fn stretch_identity_links_tree_trace_and_stretch() {
    // For an (unshifted) spanning-tree preconditioner,
    // Tr(L_T⁺ L_G) = total stretch (on the orthogonal complement of 1).
    // With a tiny shift the shifted trace approaches stretch + 1.
    use tracered_graph::lca::total_stretch;
    use tracered_graph::mst::{spanning_tree, TreeKind};
    let g = tri_mesh(7, 7, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 8);
    let n = g.num_nodes();
    let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
    let tree = tracered_graph::RootedTree::build(&g, &st.tree_edges, 0).unwrap();
    let stretch = total_stretch(&g, &tree);
    let shifts = vec![1e-9 * 2.0 * g.total_weight() / n as f64; n];
    let lg = laplacian_with_shifts(&g, &shifts);
    let lt = tracered_graph::laplacian::subgraph_laplacian(&g, &st.tree_edges, &shifts);
    let f = tracered_sparse::CholeskyFactor::factorize(
        &lt,
        tracered_sparse::order::Ordering::MinDegree,
    )
    .unwrap();
    let trace = tracered_core::metrics::trace_proxy_exact(&lg, &f);
    // trace ≈ stretch + 1 (the shift eigenpair contributes exactly 1).
    assert!(
        (trace - stretch - 1.0).abs() < 1e-3 * (stretch + 1.0),
        "trace {trace} vs stretch + 1 = {}",
        stretch + 1.0
    );
}
