//! Tracing transparency gate: enabling the recorder must not change a
//! single bit of any numeric result. Span guards read clocks and append
//! to thread-local buffers — they must never reorder arithmetic, change
//! iteration counts, or perturb scheduling-sensitive results (all
//! kernels are deterministic at a fixed thread count regardless).
//!
//! The recorder's enabled flag is process-global, so every test takes a
//! shared lock, flips tracing around the traced run, and restores the
//! disabled default before releasing it. CI runs this suite under
//! `TRACERED_THREADS=1` and `=4`.

use std::sync::Mutex;

use tracered_core::{sparsify, sparsify_partitioned, Method, PartitionedConfig, SparsifyConfig};
use tracered_graph::gen::{grid2d, WeightProfile};
use tracered_graph::laplacian::{laplacian_with_shifts, ShiftPolicy};
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{
    probe_pair, simulate_pcg_batch, SourceScenario, TransientConfig,
};
use tracered_service::{ContextSpec, ServiceConfig, ServiceRequest, SolverService};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;
use tracered_solver::DirectSolver;
use tracered_sparse::order::Ordering;
use tracered_sparse::{CholeskyFactor, FactorOptions, KernelVariant};

/// Serializes tests that flip the process-global tracing flag.
static TRACING_FLAG: Mutex<()> = Mutex::new(());

/// Runs `f` twice — tracing off, then on (with per-iteration events) —
/// restores the disabled default, clears the recorder, and returns both
/// results for bit comparison.
fn plain_and_traced<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = TRACING_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    tracered_obs::set_enabled(false);
    let plain = f();
    tracered_obs::set_enabled(true);
    tracered_obs::set_iter_events(true);
    let traced = f();
    tracered_obs::set_iter_events(false);
    tracered_obs::set_enabled(false);
    tracered_obs::recorder().reset();
    (plain, traced)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length changed under tracing");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i} changed under tracing");
    }
}

#[test]
fn sparsify_is_bit_identical_under_tracing() {
    let g = grid2d(24, 24, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 9);
    let cfg = SparsifyConfig::new(Method::TraceReduction);
    let (plain, traced) = plain_and_traced(|| sparsify(&g, &cfg).expect("grid is connected"));
    assert_eq!(plain.edge_ids(), traced.edge_ids(), "kept edge set changed under tracing");
    let (lp, lt) = (plain.laplacian(&g), traced.laplacian(&g));
    assert_bits_eq(lp.values(), lt.values(), "sparsifier Laplacian");
}

#[test]
fn partitioned_sparsify_is_bit_identical_under_tracing() {
    let g = grid2d(30, 30, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 11);
    let cfg = PartitionedConfig::new(4).base(SparsifyConfig::new(Method::TraceReduction));
    let (plain, traced) = plain_and_traced(|| {
        sparsify_partitioned(&g, &cfg).expect("grid is connected").into_sparsifier()
    });
    assert_eq!(plain.edge_ids(), traced.edge_ids(), "kept edge set changed under tracing");
    let (lp, lt) = (plain.laplacian(&g), traced.laplacian(&g));
    assert_bits_eq(lp.values(), lt.values(), "partitioned sparsifier Laplacian");
}

#[test]
fn parallel_factorization_is_bit_identical_under_tracing() {
    let g = grid2d(40, 40, WeightProfile::Unit, 3);
    let n = g.num_nodes();
    let l = laplacian_with_shifts(&g, &vec![1e-3; n]);
    let perm = Ordering::MinDegree.compute(&l).expect("valid ordering");
    let scalar = plain_and_traced(|| {
        let opts = FactorOptions { threads: 4, ..Ordering::MinDegree.into() };
        CholeskyFactor::factorize(&l, opts).expect("SPD")
    });
    let supernodal = plain_and_traced(|| {
        CholeskyFactor::factorize_with_perm_kernel(&l, perm.clone(), KernelVariant::Supernodal, 4)
            .expect("SPD")
    });
    for (kernel, (plain, traced)) in [("scalar", scalar), ("supernodal", supernodal)] {
        assert_eq!(
            plain.l().colptr(),
            traced.l().colptr(),
            "{kernel} factor pattern changed under tracing"
        );
        assert_bits_eq(plain.l().values(), traced.l().values(), &format!("{kernel} factor"));
    }
}

#[test]
fn direct_solver_is_bit_identical_under_tracing() {
    let g = grid2d(30, 30, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 13);
    let n = g.num_nodes();
    let l = laplacian_with_shifts(&g, &vec![1e-3; n]);
    let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let (plain, traced) = plain_and_traced(|| {
        let x = DirectSolver::new_threads(&l, 1).expect("SPD").solve(&b);
        (x, tracered_obs::recorder().trace().has_span("chol.select"))
    });
    assert_bits_eq(&plain.0, &traced.0, "direct solution");
    assert!(traced.1, "the traced run must record the ordering choice");
}

#[test]
fn pcg_is_bit_identical_under_tracing() {
    let g = grid2d(32, 32, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 5);
    let n = g.num_nodes();
    let l = laplacian_with_shifts(&g, &vec![1e-3; n]);
    let pre = CholPreconditioner::from_matrix(&l).expect("SPD");
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let (plain, traced) =
        plain_and_traced(|| pcg(&l, &b, &pre, &PcgOptions::with_tolerance(1e-10)));
    assert_eq!(plain.iterations, traced.iterations, "iteration count changed under tracing");
    assert_bits_eq(&plain.x, &traced.x, "PCG solution");
}

#[test]
fn service_responses_are_bit_identical_under_tracing() {
    let pg = synthesize(&SynthConfig { mesh: 12, seed: 7, ..Default::default() });
    let n = pg.num_nodes();
    let sp_cfg = SparsifyConfig::new(Method::TraceReduction)
        .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = sparsify(pg.graph(), &sp_cfg).expect("power grid is connected");
    let system = pg.conductance_shared();
    let precond = std::sync::Arc::new(sp.laplacian(pg.graph()));
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) / 10.0 - 0.5).collect();

    let (plain, traced) = plain_and_traced(|| {
        let svc = SolverService::start(ServiceConfig::default());
        svc.publish(
            ContextSpec::new(std::sync::Arc::clone(&system), std::sync::Arc::clone(&precond))
                .with_tag(sp_cfg.fingerprint()),
        )
        .expect("publish");
        let out = svc
            .client()
            .solve(ServiceRequest::pcg(rhs.clone(), 1e-8))
            .expect("healthy request")
            .into_solve()
            .expect("solve response");
        svc.shutdown();
        out
    });
    assert_eq!(plain.iterations, traced.iterations, "iteration count changed under tracing");
    assert_bits_eq(&plain.x, &traced.x, "service solve");
}

#[test]
fn batch_transient_is_bit_identical_under_tracing() {
    let pg = synthesize(&SynthConfig { mesh: 12, seed: 7, ..Default::default() });
    let (near, far) = probe_pair(&pg);
    let probes = vec![near, far];
    let cfg = TransientConfig { t_end: 4e-10, ..Default::default() };
    let sp_cfg = SparsifyConfig::new(Method::TraceReduction)
        .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = sparsify(pg.graph(), &sp_cfg).expect("power grid is connected");
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph())).expect("SPD");
    let m = pg.sources().len();
    let scenarios = vec![
        SourceScenario::nominal(),
        SourceScenario::per_source((0..m).map(|j| 0.4 + (j % 5) as f64 * 0.3).collect()),
    ];

    let (plain, traced) = plain_and_traced(|| {
        simulate_pcg_batch(&pg, &cfg, &pre, &probes, &scenarios).expect("transient runs")
    });
    assert_eq!(plain.len(), traced.len());
    for (s, (p, t)) in plain.iter().zip(&traced).enumerate() {
        assert_bits_eq(&p.times, &t.times, "time grid");
        assert_eq!(
            p.stats.total_pcg_iterations, t.stats.total_pcg_iterations,
            "scenario {s}: PCG work changed under tracing"
        );
        for (idx, (pp, tp)) in p.probes.iter().zip(&t.probes).enumerate() {
            assert_bits_eq(pp, tp, &format!("scenario {s} probe {idx} waveform"));
        }
    }
}
