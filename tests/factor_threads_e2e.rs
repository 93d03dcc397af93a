//! End-to-end sweep of the `factor_threads` knob: the parallel numeric
//! Cholesky must be invisible everywhere except `factor_time` — same
//! sparsifier edge sets, same PCG iteration counts and residual
//! histories, same stitched partitioned results, same transient
//! waveforms, at every thread count.

use tracered_core::{sparsify, sparsify_partitioned, Method, PartitionedConfig, SparsifyConfig};
use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{
    probe_pair, simulate_direct, simulate_direct_varied, TransientConfig, TransientResult,
};
use tracered_powergrid::PowerGrid;
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;
use tracered_sparse::{CscMatrix, SparseError};

const SWEEP: [usize; 3] = [1, 2, 4];

/// Per-iteration relative residuals of a PCG run: solve with the
/// iteration cap stepped from 1 to `len`, recording the final relative
/// residual each time. Equal histories mean the whole convergence
/// trajectory — not just the end state — is unchanged.
fn residual_history(a: &CscMatrix, b: &[f64], pre: &CholPreconditioner, len: usize) -> Vec<u64> {
    (1..=len)
        .map(|cap| {
            let opts = PcgOptions { rel_tolerance: 1e-30, max_iterations: cap, threads: 1 };
            pcg(a, b, pre, &opts).rel_residual.to_bits()
        })
        .collect()
}

#[test]
fn sparsify_then_pcg_is_invariant_under_factor_threads() {
    let g = tri_mesh(16, 14, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 9);
    let n = g.num_nodes();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();

    let mut baseline: Option<(Vec<usize>, usize, Vec<u64>)> = None;
    for threads in SWEEP {
        let cfg = SparsifyConfig::new(Method::TraceReduction).factor_threads(Some(threads));
        let sp = sparsify(&g, &cfg).unwrap();
        // The knob is recorded in every iteration's stats.
        assert!(sp.report().iterations.iter().all(|it| it.factor_threads == threads));

        let lg = sp.graph_laplacian(&g);
        let pre = CholPreconditioner::from_matrix_threads(&sp.laplacian(&g), threads).unwrap();
        let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-6));
        assert!(sol.converged);
        let history = residual_history(&lg, &b, &pre, 12);

        match &baseline {
            None => baseline = Some((sp.edge_ids().to_vec(), sol.iterations, history)),
            Some((edges, iters, hist)) => {
                assert_eq!(sp.edge_ids(), &edges[..], "edge set changed at {threads} threads");
                assert_eq!(sol.iterations, *iters, "PCG iterations changed at {threads} threads");
                assert_eq!(&history, hist, "residual history changed at {threads} threads");
            }
        }
    }
}

#[test]
fn partitioned_sparsify_is_invariant_under_factor_threads() {
    let g = grid2d(22, 18, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 5);
    let mut baseline: Option<(Vec<usize>, Vec<usize>)> = None;
    for threads in SWEEP {
        let cfg = PartitionedConfig::new(4).factor_threads(Some(threads));
        let psp = sparsify_partitioned(&g, &cfg).unwrap();
        match &baseline {
            None => {
                baseline = Some((psp.sparsifier().edge_ids().to_vec(), psp.assignment().to_vec()));
            }
            Some((edges, assignment)) => {
                assert_eq!(
                    psp.sparsifier().edge_ids(),
                    &edges[..],
                    "stitched edge set changed at {threads} threads"
                );
                assert_eq!(
                    psp.assignment(),
                    &assignment[..],
                    "spectral partition changed at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn partitioned_inner_and_outer_parallelism_compose() {
    // Outer partition jobs and inner factor threads active at once: the
    // nested regions must still produce the serial-reference edge set.
    let g = grid2d(20, 16, WeightProfile::Unit, 3);
    let serial = sparsify_partitioned(&g, &PartitionedConfig::new(4)).unwrap();
    let nested = sparsify_partitioned(
        &g,
        &PartitionedConfig::new(4).threads(Some(2)).factor_threads(Some(2)),
    )
    .unwrap();
    assert_eq!(serial.sparsifier().edge_ids(), nested.sparsifier().edge_ids());
}

/// A direct transient engine: fixed-step or breakpoint-driven.
type DirectEngine =
    fn(&PowerGrid, &TransientConfig, &[usize]) -> Result<TransientResult, SparseError>;

#[test]
fn transient_waveforms_are_invariant_under_factor_threads() {
    // 144 nodes, above the parallel factor's 128-column serial fallback,
    // so the runs at 2 and 4 threads really factor in subtree jobs.
    let pg = synthesize(&SynthConfig { mesh: 12, source_fraction: 0.2, ..Default::default() });
    let (near, far) = probe_pair(&pg);
    let base_cfg =
        TransientConfig { t_end: 5e-10, fixed_step: Some(2.5e-11), ..Default::default() };
    let engines: [DirectEngine; 2] = [simulate_direct, simulate_direct_varied];
    for engine in engines {
        let baseline = engine(&pg, &base_cfg, &[near, far]).unwrap();
        for threads in [2usize, 4] {
            let cfg = TransientConfig { factor_threads: threads, ..base_cfg };
            let run = engine(&pg, &cfg, &[near, far]).unwrap();
            assert_eq!(run.times, baseline.times);
            assert_eq!(run.stats.factorizations, baseline.stats.factorizations);
            for (a, b) in run.probes.iter().flatten().zip(baseline.probes.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "waveform changed at {threads} threads");
            }
        }
    }
}
