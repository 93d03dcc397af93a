//! Contingency-screening equivalence suite: the incremental batch path
//! (`simulate_contingency_batch`, rank-1 factor updates) must agree
//! with the naive refactor-everything reference
//! (`simulate_contingency_refactor`) **outage for outage** — solves
//! within tolerance, failure classifications bitwise identical — and
//! a mid-batch failure must be quarantined without perturbing the
//! survivors.
//!
//! CI runs this suite under `TRACERED_THREADS=1` and
//! `TRACERED_THREADS=4`.

use std::cell::Cell;
use tracered_graph::Graph;
use tracered_powergrid::synth::{synthesize, SynthConfig};

use tracered_powergrid::{
    simulate_contingency_batch, simulate_contingency_refactor, ContingencyConfig,
    ContingencyMethod, ContingencySweep, CurrentSource, EpochHook, Outage, OutageEvent,
    OutageFailureKind, OutageOutcome, PowerGrid, PulseWaveform,
};
use tracered_sparse::{BoostSchedule, SparseError};

/// Asserts outage-for-outage equivalence of two sweeps: completed
/// solves within `tol` (relative), failures bitwise identical.
fn assert_equivalent(batch: &ContingencySweep, naive: &ContingencySweep, tol: f64) {
    assert_eq!(batch.outcomes.len(), naive.outcomes.len());
    for (i, (b, r)) in batch.outcomes.iter().zip(&naive.outcomes).enumerate() {
        match (b, r) {
            (OutageOutcome::Completed(bs), OutageOutcome::Completed(rs)) => {
                assert_eq!(bs.outage, rs.outage);
                for (x, y) in bs.probes.iter().zip(&rs.probes) {
                    assert!(
                        (x - y).abs() <= tol * y.abs().max(1.0),
                        "outage {i}: probe {x} vs reference {y}"
                    );
                }
                let mtol = tol * rs.min_voltage.abs().max(1.0);
                assert!((bs.min_voltage - rs.min_voltage).abs() <= mtol, "outage {i}: min");
                assert!((bs.max_voltage - rs.max_voltage).abs() <= mtol, "outage {i}: max");
            }
            (OutageOutcome::Failed(bf), OutageOutcome::Failed(rf)) => {
                // `OutageFailure` is integer-only `Eq` by design: the
                // classification must agree *bitwise*, not merely in kind.
                assert_eq!(bf, rf, "outage {i}: classification must be identical");
            }
            other => panic!("outage {i}: outcome class mismatch: {other:?}"),
        }
    }
    assert_eq!(batch.report.completed, naive.report.completed);
    assert_eq!(batch.report.failures, naive.report.failures);
}

fn mixed_outages(pg: &PowerGrid) -> Vec<Outage> {
    let num_edges = pg.graph().num_edges();
    vec![
        Outage::LineOutage { edge: 0 },
        Outage::Reweight { edge: 2 % num_edges, new_weight: 4.0 },
        Outage::LoadStep { node: pg.num_nodes() / 2, extra_current: 0.01 },
        Outage::LineOutage { edge: 7 % num_edges },
        Outage::Reweight { edge: 5 % num_edges, new_weight: 0.25 },
        Outage::LoadStep { node: 1, extra_current: 0.002 },
        // An invalid outage: classification must match bitwise too.
        Outage::LineOutage { edge: num_edges },
    ]
}

#[test]
fn batch_matches_refactor_reference_direct() {
    let pg = synthesize(&SynthConfig { mesh: 10, ..Default::default() });
    let outages = mixed_outages(&pg);
    let probes = [0, pg.num_nodes() / 3, pg.num_nodes() - 1];
    let cfg = ContingencyConfig::default();

    let batch = simulate_contingency_batch(&pg, &outages, &probes, &cfg, None).unwrap();
    let naive = simulate_contingency_refactor(&pg, &outages, &probes, &cfg).unwrap();

    assert_equivalent(&batch, &naive, 1e-6);
    // The batch path realized the matrix perturbations incrementally;
    // the reference refactorized every one of them.
    assert_eq!(batch.report.applied_updates, 4);
    assert_eq!(batch.report.update_fallbacks, 0);
    assert!(naive.report.refactorizations > batch.report.refactorizations);
    // The invalid outage is a typed rejection in both.
    let f = batch.outcomes[6].failure().expect("out-of-bounds edge must fail");
    assert!(matches!(f.kind, OutageFailureKind::Invalid(_)));
}

#[test]
fn batch_matches_refactor_reference_pcg() {
    let pg = synthesize(&SynthConfig { mesh: 10, ..Default::default() });
    let outages = mixed_outages(&pg);
    let probes = [3, pg.num_nodes() - 2];
    let cfg = ContingencyConfig {
        method: ContingencyMethod::Pcg { rel_tolerance: 1e-10, max_iterations: 500 },
        ..ContingencyConfig::default()
    };

    let batch = simulate_contingency_batch(&pg, &outages, &probes, &cfg, None).unwrap();
    let naive = simulate_contingency_refactor(&pg, &outages, &probes, &cfg).unwrap();
    assert_equivalent(&batch, &naive, 1e-6);

    // Load steps went through the batched PCG group in the batch path.
    assert_eq!(batch.report.rhs_only, 2);
    for idx in [2usize, 5] {
        let s = batch.outcomes[idx].result().expect("load step completes");
        assert!(s.iterations > 0, "PCG load step must report its iterations");
    }
}

/// A grid whose bridge edge, once removed, strands a pad-free island:
/// nodes 0–3 are a padded chain, nodes 4–5 hang off node 3 through the
/// bridge 3–4 with no pads of their own. `G` is PD (the island drains
/// through the bridge); `G` minus the bridge is exactly singular, and a
/// source mid-pulse at `t = 0` keeps drawing current on the island, so
/// the post-outage system is genuinely inconsistent — the outage must
/// classify as a failure, not solve to an arbitrary floating island.
fn bridged_grid() -> (PowerGrid, usize) {
    let edges =
        [(0usize, 1usize, 1.0f64), (1, 2, 1.0), (2, 3, 1.0), (0, 2, 0.5), (3, 4, 2.0), (4, 5, 1.0)];
    let g = Graph::from_edges(6, &edges).expect("valid edge list");
    let bridge =
        (0..g.num_edges()).find(|&i| g.edge(i).u == 3 && g.edge(i).v == 4).expect("bridge edge");
    let pads = vec![1.0, 1.0, 1.0, 1.0, 0.0, 0.0];
    let island_draw = CurrentSource {
        node: 5,
        // Negative delay: the pulse is on its plateau at t = 0, so the
        // DC operating point sees a nonzero island draw.
        waveform: PulseWaveform {
            delay: -0.5,
            rise: 0.1,
            width: 0.8,
            fall: 0.1,
            period: 2.0,
            amplitude: 0.05,
        },
    };
    let pg = PowerGrid::new(g, pads, vec![1e-12; 6], vec![island_draw], 1.8);
    (pg, bridge)
}

#[test]
fn disconnecting_outage_is_classified_identically_in_both_paths() {
    let (pg, bridge) = bridged_grid();
    let outages = [
        Outage::Reweight { edge: 0, new_weight: 2.0 },
        Outage::LineOutage { edge: bridge },
        Outage::LoadStep { node: 2, extra_current: 0.05 },
    ];
    let probes = [0, 4, 5];
    let cfg = ContingencyConfig::default();

    let batch = simulate_contingency_batch(&pg, &outages, &probes, &cfg, None).unwrap();
    let naive = simulate_contingency_refactor(&pg, &outages, &probes, &cfg).unwrap();
    assert_equivalent(&batch, &naive, 1e-6);

    // The bridge removal disconnects the pad-free island {4, 5}: the
    // perturbed matrix is singular, and both paths must say so.
    for sweep in [&batch, &naive] {
        let f = sweep.outcomes[1].failure().expect("disconnecting outage must fail");
        assert_eq!(f.kind, OutageFailureKind::SingularPerturbation);
    }
    // The downdate refused the rank-deficient perturbation, so the
    // batch path took (and counted) the refactorization fallback.
    assert_eq!(batch.report.update_fallbacks, 1);
    assert!(!batch.outcomes[0].result().unwrap().used_fallback);
}

/// Counts the matrix perturbations a sweep applied and reverted.
#[derive(Default)]
struct CountingHook(Cell<usize>);

impl EpochHook for CountingHook {
    fn outage_applied(&self, _: &OutageEvent) {
        self.0.set(self.0.get() + 1);
    }
    fn outage_reverted(&self, _: &OutageEvent) {
        self.0.set(self.0.get() + 1);
    }
}

/// A bad config is a typed error before any work starts, in both
/// sweeps: an invalid boost ladder even when no outage would reach the
/// fallback, and with one that would — before the healthy outage ahead
/// of it is applied — and a NaN residual tolerance, which would
/// otherwise switch the residual gate off and pass the bridge outage's
/// boosted garbage as `Completed`.
#[test]
fn invalid_config_is_rejected_before_any_work() {
    let (pg, bridge) = bridged_grid();
    let healthy = [
        Outage::Reweight { edge: 0, new_weight: 2.0 },
        Outage::LoadStep { node: 2, extra_current: 0.05 },
    ];
    let with_bridge = [healthy[0], Outage::LineOutage { edge: bridge }];
    let probes = [0, 4, 5];
    let bad_growth = ContingencyConfig {
        boost: BoostSchedule { growth: 0.5, ..Default::default() },
        ..Default::default()
    };
    let nan_tol = ContingencyConfig { residual_tol: f64::NAN, ..Default::default() };
    for (cfg, outages) in
        [(&bad_growth, &healthy[..]), (&bad_growth, &with_bridge[..]), (&nan_tol, &with_bridge[..])]
    {
        let hook = CountingHook::default();
        let batch = simulate_contingency_batch(&pg, outages, &probes, cfg, Some(&hook));
        assert!(
            matches!(batch, Err(SparseError::InvalidValue { .. })),
            "batch sweep accepted a bad config: {:?}",
            batch.map(|s| s.report)
        );
        assert_eq!(hook.0.get(), 0, "the batch sweep perturbed the factor before failing");
        let naive = simulate_contingency_refactor(&pg, outages, &probes, cfg);
        assert!(
            matches!(naive, Err(SparseError::InvalidValue { .. })),
            "refactor sweep accepted a bad config: {:?}",
            naive.map(|s| s.report)
        );
    }
}

#[test]
fn mid_batch_failure_leaves_survivors_bitwise_unaffected() {
    let (pg, bridge) = bridged_grid();
    let survivors_only = [
        Outage::Reweight { edge: 0, new_weight: 2.0 },
        Outage::LineOutage { edge: 1 },
        Outage::LoadStep { node: 1, extra_current: 0.01 },
    ];
    let mut with_failure = survivors_only.to_vec();
    with_failure.insert(1, Outage::LineOutage { edge: bridge });
    let probes = [0, 3, 5];
    let cfg = ContingencyConfig::default();

    let full = simulate_contingency_batch(&pg, &with_failure, &probes, &cfg, None).unwrap();
    let clean = simulate_contingency_batch(&pg, &survivors_only, &probes, &cfg, None).unwrap();

    assert_eq!(full.report.failures, 1);
    assert!(matches!(
        full.outcomes[1].failure().unwrap().kind,
        OutageFailureKind::SingularPerturbation
    ));
    // Every survivor matches the failure-free sweep bit for bit: the
    // failed outage's fallback was quarantined and the factor restored.
    let survivors: Vec<&OutageOutcome> =
        full.outcomes.iter().enumerate().filter(|&(i, _)| i != 1).map(|(_, o)| o).collect();
    for (sv, cl) in survivors.iter().zip(&clean.outcomes) {
        let (sv, cl) = (sv.result().expect("survivor"), cl.result().expect("clean"));
        let sb: Vec<u64> = sv.probes.iter().map(|p| p.to_bits()).collect();
        let cb: Vec<u64> = cl.probes.iter().map(|p| p.to_bits()).collect();
        assert_eq!(sb, cb, "survivor probes must be bitwise identical");
        assert_eq!(sv.rel_residual.to_bits(), cl.rel_residual.to_bits());
    }
}

#[test]
fn sweeps_are_thread_invariant() {
    let pg = synthesize(&SynthConfig { mesh: 8, ..Default::default() });
    let outages = mixed_outages(&pg);
    let probes = [0, pg.num_nodes() - 1];
    for method in [
        ContingencyMethod::Direct,
        ContingencyMethod::Pcg { rel_tolerance: 1e-10, max_iterations: 500 },
    ] {
        let serial = ContingencyConfig { method, ..ContingencyConfig::default() };
        let parallel = ContingencyConfig {
            method,
            factor_threads: 4,
            solver_threads: 4,
            ..ContingencyConfig::default()
        };
        let s = simulate_contingency_batch(&pg, &outages, &probes, &serial, None).unwrap();
        let p = simulate_contingency_batch(&pg, &outages, &probes, &parallel, None).unwrap();
        assert_eq!(s.report.completed, p.report.completed);
        for (i, (a, b)) in s.outcomes.iter().zip(&p.outcomes).enumerate() {
            match (a, b) {
                (OutageOutcome::Completed(x), OutageOutcome::Completed(y)) => {
                    let xb: Vec<u64> = x.probes.iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u64> = y.probes.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb, "outage {i}: thread count changed the answer");
                }
                (OutageOutcome::Failed(x), OutageOutcome::Failed(y)) => assert_eq!(x, y),
                other => panic!("outage {i}: outcome class mismatch: {other:?}"),
            }
        }
    }
}
