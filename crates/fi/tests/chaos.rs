//! The chaos suite: every fault a [`FaultPlan`] can inject, driven
//! through the public APIs of the stack. The contract under test is the
//! resilience layer's promise — **a typed error or a recorded recovery,
//! never a panic, never a silently wrong answer**.
//!
//! Runs are deterministic: all faults derive from fixed seeds, so any
//! failure replays exactly. CI exercises this suite under
//! `TRACERED_THREADS=1` and `TRACERED_THREADS=4`.

use std::sync::Arc;
use tracered_core::{sparsify, sparsify_partitioned, Method, PartitionedConfig, SparsifyConfig};

use tracered_fi::{FaultPlan, RequestFault};
use tracered_graph::gen::{grid2d, WeightProfile};
use tracered_graph::laplacian::{laplacian, ShiftPolicy};
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{
    simulate_pcg_batch, simulate_pcg_batch_outcomes, ScenarioFailureKind, SourceScenario,
    TransientConfig,
};
use tracered_service::{ContextSpec, ServiceConfig, ServiceError, ServiceRequest, SolverService};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;
use tracered_solver::{robust_solve, RobustSolveConfig, TerminationReason};
use tracered_sparse::order::Ordering;
use tracered_sparse::{
    scan_non_finite, BoostSchedule, CholeskyFactor, CscMatrix, FactorOptions, SparseError,
};

/// Minimum-degree factorization through the default boost ladder.
fn boosted(a: &CscMatrix) -> Result<CholeskyFactor, SparseError> {
    CholeskyFactor::factorize(
        a,
        FactorOptions { boost: Some(BoostSchedule::default()), ..Ordering::MinDegree.into() },
    )
}

/// A well-conditioned SPD test matrix: shifted 2-D grid Laplacian.
fn healthy_matrix(side: usize) -> CscMatrix {
    let g = grid2d(side, side, WeightProfile::Unit, 5);
    laplacian(&g, ShiftPolicy::Uniform(0.5)).expect("valid shift")
}

#[test]
fn non_finite_matrix_yields_typed_error_not_panic() {
    let a = healthy_matrix(8);
    let mut plan = FaultPlan::new(101);
    let (bad, faults) = plan.corrupt_matrix_entries(&a, 4);
    assert!(!faults.is_empty());
    // The cheap scan names a corrupted coordinate...
    let err = scan_non_finite(&bad).expect_err("corruption must be detected");
    match err {
        SparseError::NonFiniteValue { row, col } => {
            assert!(!bad.get(row, col).is_finite());
        }
        other => panic!("expected NonFiniteValue, got {other:?}"),
    }
    // ...and every resilient entry point refuses the matrix up front.
    assert!(matches!(boosted(&bad), Err(SparseError::NonFiniteValue { .. })));
    let b = vec![1.0; bad.ncols()];
    assert!(matches!(
        robust_solve(&bad, &b, &a, &RobustSolveConfig::default()),
        Err(SparseError::NonFiniteValue { .. })
    ));
}

#[test]
fn poisoned_pivot_recovers_through_the_boost_ladder() {
    let a = healthy_matrix(8);
    let (bad, col) = FaultPlan::new(202).poison_pivot(&a);
    // The plain factorization breaks down...
    assert!(matches!(
        CholeskyFactor::factorize(&bad, Ordering::MinDegree),
        Err(SparseError::NotPositiveDefinite { .. })
    ));
    // ...the regularized one recovers and reports the shift it needed.
    let f = boosted(&bad).expect("ladder must rescue a finite indefinite matrix");
    assert!(f.applied_shift() > 0.0, "recovery must report its shift");
    // The factor solves the boosted system accurately.
    let shifted = bad.add_diagonal(&vec![f.applied_shift(); bad.ncols()]).expect("square matrix");
    let b = vec![1.0; bad.ncols()];
    let x = f.solve(&b);
    assert!(shifted.residual_inf_norm(&x, &b) < 1e-8, "poisoned column {col}");
}

#[test]
fn robust_solve_with_poisoned_preconditioner_matches_fault_free_accuracy() {
    let a = healthy_matrix(8);
    let b: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
    let cfg = RobustSolveConfig::default();
    let clean = robust_solve(&a, &b, &a, &cfg).expect("fault-free solve");
    assert_eq!(clean.reason, TerminationReason::Converged);
    // Poison the preconditioner matrix: the chain must still converge,
    // with the recovery visible in the attempt log.
    let (bad_pre, _) = FaultPlan::new(303).poison_pivot(&a);
    let sol = robust_solve(&a, &b, &bad_pre, &cfg).expect("escalation must absorb the fault");
    assert_eq!(sol.reason, TerminationReason::Converged);
    assert!(
        sol.attempts.iter().any(|at| at.applied_shift > 0.0),
        "the boost that rescued the preconditioner must be recorded"
    );
    // Recovered accuracy within an order of magnitude of fault-free.
    assert!(sol.rel_residual <= clean.rel_residual.max(cfg.pcg.rel_tolerance) * 10.0);
}

#[test]
fn nan_rhs_is_classified_not_propagated() {
    let a = healthy_matrix(6);
    let b = vec![1.0; a.ncols()];
    let (bad_b, idx) = FaultPlan::new(404).nan_rhs_entry(&b);
    assert!(bad_b[idx].is_nan());
    // The raw iterative kernel classifies the breakdown...
    let pre = CholPreconditioner::from_matrix(&a).expect("SPD matrix");
    let sol = pcg(&a, &bad_b, &pre, &PcgOptions::default());
    assert!(!sol.converged);
    assert_eq!(sol.reason, TerminationReason::NonFinite);
    // ...and the robust entry point rejects the input with a typed error
    // naming the bad entry.
    match robust_solve(&a, &bad_b, &a, &RobustSolveConfig::default()) {
        Err(SparseError::InvalidValue { what }) => {
            assert!(what.contains(&format!("index {idx}")), "got: {what}");
        }
        other => panic!("expected InvalidValue, got {other:?}"),
    }
}

#[test]
fn panicking_pool_jobs_do_not_poison_the_pool() {
    let mask = FaultPlan::new(505).panic_jobs(12);
    let jobs: Vec<(usize, bool)> = mask.iter().copied().enumerate().collect();
    let result = std::panic::catch_unwind(|| {
        tracered_par::par_jobs(jobs, 4, |(i, poisoned)| {
            if poisoned {
                panic!("injected fault in job {i}");
            }
        });
    });
    assert!(result.is_err(), "the injected panic must propagate to the caller");
    // The pool survives: later regions run to completion with correct
    // results.
    let mut outputs = vec![0usize; 64];
    let jobs: Vec<(usize, &mut usize)> = outputs.iter_mut().enumerate().collect();
    tracered_par::par_jobs(jobs, 4, |(i, out)| *out = i * i);
    for (i, &o) in outputs.iter().enumerate() {
        assert_eq!(o, i * i);
    }
}

#[test]
fn sparsifier_boost_recovery_is_visible_in_iteration_stats() {
    // Acceptance criterion: a forced-indefinite factorization inside the
    // sparsifier recovers via the configured ladder and surfaces the
    // applied shift in IterationStats.
    let g = grid2d(10, 10, WeightProfile::Unit, 3);
    let fragile = SparsifyConfig::new(Method::JlResistance).shift(ShiftPolicy::None);
    assert!(sparsify(&g, &fragile).is_err(), "the fault lever must fire");
    let boosted = fragile.clone().pivot_boost(Some(BoostSchedule::default()));
    let sp = sparsify(&g, &boosted).expect("boost ladder must rescue the run");
    assert!(sp.report().iterations.iter().any(|it| it.applied_shift > 0.0));
    assert!(sp.as_graph(&g).is_connected());
}

#[test]
fn partitioned_runs_degrade_gracefully_instead_of_aborting() {
    let g = grid2d(12, 10, WeightProfile::Unit, 2);
    let cfg = PartitionedConfig::new(4)
        .base(SparsifyConfig::new(Method::JlResistance).shift(ShiftPolicy::None));
    let psp = sparsify_partitioned(&g, &cfg).expect("degraded run must still complete");
    assert!(psp.partition_report().degraded_partitions > 0);
    assert!(psp.sparsifier().report().degraded_fallbacks > 0);
    assert!(psp.sparsifier().as_graph(&g).is_connected());
}

#[test]
fn transient_batch_quarantines_corrupted_scenarios() {
    let pg = synthesize(&SynthConfig { mesh: 8, source_fraction: 0.2, ..Default::default() });
    let cfg = TransientConfig { t_end: 5e-10, pcg_tol: 1e-8, ..Default::default() };
    let pre =
        CholPreconditioner::from_matrix(&pg.conductance_matrix()).expect("grounded grid is SPD");
    let m = pg.sources().len();
    let mut scenarios = vec![
        SourceScenario::nominal(),
        SourceScenario::uniform(0.5, m),
        SourceScenario::uniform(1.5, m),
    ];
    // Corrupt the middle scenario's scales deterministically.
    let scales = vec![0.5; m];
    let (bad, _) = FaultPlan::new(606).corrupt_scales(&scales);
    scenarios[1] = SourceScenario::per_source(bad);

    let outcomes = simulate_pcg_batch_outcomes(&pg, &cfg, &pre, &[0], &scenarios)
        .expect("shared machinery is healthy");
    let fail = outcomes[1].failure().expect("corrupted scenario must fail");
    assert_eq!(fail.scenario, 1);
    assert!(matches!(fail.kind, ScenarioFailureKind::InvalidScale { .. }));
    // Survivors are bit-identical to a batch that never saw the fault.
    let clean =
        simulate_pcg_batch(&pg, &cfg, &pre, &[0], &[scenarios[0].clone(), scenarios[2].clone()])
            .expect("clean batch");
    for (out, reference) in [&outcomes[0], &outcomes[2]].iter().zip(clean.iter()) {
        let r = out.result().expect("healthy scenario must complete");
        assert_eq!(r.times, reference.times);
        for (ta, tb) in r.probes.iter().zip(reference.probes.iter()) {
            assert_eq!(ta, tb, "survivor waveforms must match the fault-free run");
        }
    }
}

#[test]
fn fault_campaign_sweep_never_panics() {
    // A broad deterministic sweep: many seeds, every injector, every
    // resilient entry point. Success is the absence of panics plus a
    // classified outcome for every run.
    let a = healthy_matrix(6);
    let b = vec![1.0; a.ncols()];
    for seed in 0..12u64 {
        let mut plan = FaultPlan::new(seed);
        let (bad, _) = plan.corrupt_matrix_entries(&a, 1 + (seed as usize % 3));
        match robust_solve(&bad, &b, &a, &RobustSolveConfig::default()) {
            Ok(sol) => assert!(sol.rel_residual.is_finite()),
            Err(SparseError::NonFiniteValue { .. }) => {}
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
        // A poisoned PRECONDITIONER on a healthy system must be absorbed
        // outright...
        let (bad_pre, _) = plan.poison_pivot(&a);
        let sol = robust_solve(&a, &b, &bad_pre, &RobustSolveConfig::default())
            .expect("healthy system with a broken preconditioner must solve");
        assert_eq!(sol.reason, TerminationReason::Converged, "seed {seed}");
        // ...while a genuinely indefinite SYSTEM ends in a classified,
        // finite-diagnostics outcome — never a panic, never a fake
        // convergence claim.
        let sol = robust_solve(&bad_pre, &b, &bad_pre, &RobustSolveConfig::default())
            .expect("classified outcome, not an abort");
        assert!(sol.rel_residual.is_finite(), "seed {seed}");
        assert!(!sol.attempts.is_empty());
        if sol.reason == TerminationReason::Converged {
            let tol = RobustSolveConfig::default().pcg.rel_tolerance;
            assert!(sol.rel_residual <= tol * 10.0, "seed {seed}: fake convergence");
        }
    }
}

/// Deterministic healthy right-hand side for the service chaos runs.
fn service_rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
            ((h % 1000) as f64) / 500.0 - 1.0
        })
        .collect()
}

#[test]
fn service_request_chaos_fails_only_the_faulted_requests() {
    // Request-level chaos against the aggregation service: every
    // injected fault must come back as a typed per-request error, every
    // healthy batch-mate must complete, and the aggregator must keep
    // serving afterwards — it never wedges, it never dies.
    let g = grid2d(10, 10, WeightProfile::Unit, 4);
    let a = Arc::new(laplacian(&g, ShiftPolicy::Uniform(0.05)).expect("valid shift"));
    let a2 = Arc::new(laplacian(&g, ShiftPolicy::Uniform(0.25)).expect("valid shift"));
    let n = a.ncols();

    let svc = SolverService::start(ServiceConfig { max_batch_width: 4, ..Default::default() });
    let stale_epoch = svc.publish(ContextSpec::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
    let current = svc.publish(ContextSpec::new(Arc::clone(&a2), Arc::clone(&a2))).unwrap();
    let client = svc.client();

    let mut plan = FaultPlan::new(4242);
    let faults = plan.request_faults(24);
    assert!(faults.iter().any(Option::is_some), "the campaign must inject something");
    let reqs: Vec<ServiceRequest> = faults
        .iter()
        .enumerate()
        .map(|(i, fault)| {
            let b = service_rhs(n, i as u64);
            match fault {
                None => ServiceRequest::pcg(b, 1e-8),
                Some(RequestFault::NanRhs) => {
                    let (bad, _) = plan.nan_rhs_entry(&b);
                    ServiceRequest::pcg(bad, 1e-8)
                }
                Some(RequestFault::WrongLength) => ServiceRequest::pcg(b[..n - 1].to_vec(), 1e-8),
                Some(RequestFault::StaleEpoch) => ServiceRequest::pcg(b, 1e-8).pinned(stale_epoch),
                Some(RequestFault::PanicClosure) => ServiceRequest::pcg_deferred(
                    move || panic!("injected request fault in request {i}"),
                    1e-8,
                ),
                Some(other) => panic!("unknown fault kind {other:?}"),
            }
        })
        .collect();

    let results: Vec<_> = client.submit_many(reqs).into_iter().map(|t| t.wait()).collect();
    let mut healthy = 0u64;
    let mut isolated = 0u64;
    let mut stale = 0u64;
    for (i, (result, fault)) in results.iter().zip(&faults).enumerate() {
        match fault {
            None => {
                let out = result.as_ref().unwrap_or_else(|e| {
                    panic!("healthy request {i} failed alongside injected faults: {e}")
                });
                let out = out.clone().into_solve().expect("solve response");
                assert!(out.converged, "request {i}");
                assert_eq!(out.epoch, current, "request {i} must run on the current epoch");
                healthy += 1;
            }
            Some(RequestFault::NanRhs) => {
                assert!(
                    matches!(result, Err(ServiceError::NonFiniteRhs { .. })),
                    "request {i}: {result:?}"
                );
                isolated += 1;
            }
            Some(RequestFault::WrongLength) => {
                assert!(
                    matches!(result, Err(ServiceError::WrongLength { expected, found })
                        if *expected == n && *found == n - 1),
                    "request {i}: {result:?}"
                );
                isolated += 1;
            }
            Some(RequestFault::StaleEpoch) => {
                assert!(
                    matches!(result, Err(ServiceError::StaleEpoch { pinned, current: c })
                        if *pinned == stale_epoch && *c == current),
                    "request {i}: {result:?}"
                );
                stale += 1;
            }
            Some(RequestFault::PanicClosure) => {
                assert!(
                    matches!(result, Err(ServiceError::RequestPanicked)),
                    "request {i}: {result:?}"
                );
                isolated += 1;
            }
            Some(other) => panic!("unknown fault kind {other:?}"),
        }
    }

    // The aggregator survived the whole campaign and still serves.
    let after = client
        .solve(ServiceRequest::pcg(service_rhs(n, 999), 1e-8))
        .expect("service must keep serving after the chaos campaign")
        .into_solve()
        .expect("solve response");
    assert!(after.converged);

    let m = svc.metrics();
    assert_eq!(m.completed, healthy + 1);
    assert_eq!(m.failed, isolated + stale);
    assert_eq!(m.faults_isolated, isolated);
    assert_eq!(m.stale_rejections, stale);
}

#[test]
fn service_chaos_campaign_sweep_is_deterministic_and_panic_free() {
    // Many seeds, the same contract: typed errors for the injected
    // faults, completions for everything else, and a live aggregator at
    // the end of every campaign.
    let g = grid2d(8, 8, WeightProfile::Unit, 4);
    let a = Arc::new(laplacian(&g, ShiftPolicy::Uniform(0.1)).expect("valid shift"));
    let n = a.ncols();
    for seed in 0..6u64 {
        let svc = SolverService::start(ServiceConfig { max_batch_width: 3, ..Default::default() });
        let old = svc.publish(ContextSpec::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        let cur = svc.publish(ContextSpec::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        assert_ne!(old, cur, "re-publishing must advance the epoch");
        let client = svc.client();
        let mut plan = FaultPlan::new(seed);
        let faults = plan.request_faults(9);
        let reqs: Vec<ServiceRequest> = faults
            .iter()
            .enumerate()
            .map(|(i, fault)| {
                let b = service_rhs(n, seed * 100 + i as u64);
                match fault {
                    None => ServiceRequest::pcg(b, 1e-8),
                    Some(RequestFault::NanRhs) => {
                        let (bad, _) = plan.nan_rhs_entry(&b);
                        ServiceRequest::pcg(bad, 1e-8)
                    }
                    Some(RequestFault::WrongLength) => {
                        ServiceRequest::pcg(b[..n / 2].to_vec(), 1e-8)
                    }
                    Some(RequestFault::StaleEpoch) => ServiceRequest::pcg(b, 1e-8).pinned(old),
                    Some(RequestFault::PanicClosure) => ServiceRequest::pcg_deferred(
                        move || panic!("chaos sweep fault, seed {seed}, request {i}"),
                        1e-8,
                    ),
                    Some(other) => panic!("unknown fault kind {other:?}"),
                }
            })
            .collect();
        for (i, (t, fault)) in client.submit_many(reqs).into_iter().zip(&faults).enumerate() {
            match t.wait() {
                Ok(resp) => {
                    assert!(fault.is_none(), "seed {seed}: faulted request {i} succeeded");
                    assert!(resp.into_solve().expect("solve response").converged);
                }
                Err(e) => {
                    assert!(fault.is_some(), "seed {seed}: healthy request {i} failed: {e}");
                }
            }
        }
        assert!(
            client.solve(ServiceRequest::pcg(service_rhs(n, 7), 1e-8)).is_ok(),
            "seed {seed}: aggregator wedged"
        );
    }
}

/// Bitwise-comparable solve of a factor against a fixed probe RHS.
fn solve_bits(factor: &CholeskyFactor, n: usize) -> Vec<u64> {
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    factor.solve(&b).iter().map(|x| x.to_bits()).collect()
}

#[test]
fn corrupted_update_vector_is_rejected_and_the_factor_survives() {
    let a = healthy_matrix(8);
    let n = a.ncols();
    let mut factor = CholeskyFactor::factorize(&a, Ordering::MinDegree).expect("healthy matrix");
    let before = solve_bits(&factor, n);

    // A healthy edge-shaped rank-1 vector, then the fault campaign
    // corrupts one entry to a non-finite value.
    let mut w = vec![0.0; n];
    w[3] = 0.5;
    w[12] = -0.5;
    let mut plan = FaultPlan::new(303);
    let (bad_w, idx) = plan.corrupt_update_vector(&w);
    assert!(!bad_w[idx].is_finite());

    // Both directions reject typed, before touching the factor.
    assert!(matches!(factor.update(&bad_w), Err(SparseError::InvalidValue { .. })));
    assert!(matches!(factor.downdate(&bad_w), Err(SparseError::InvalidValue { .. })));
    assert_eq!(factor.pending_updates(), 0, "a rejected vector must not be journaled");
    assert_eq!(solve_bits(&factor, n), before, "the factor must be bit-identical");

    // Recovery: the healthy vector still applies and reverts cleanly.
    factor.update(&w).expect("healthy update applies after the fault");
    factor.downdate(&w).expect("journaled revert");
    assert_eq!(solve_bits(&factor, n), before);
}

#[test]
fn poisoned_downdate_mid_sweep_is_quarantined_without_panic() {
    // Factor-level contract first: the poisoned pivot surfaces as a
    // typed breakdown and the factor is restored bit-exactly.
    let a = healthy_matrix(8);
    let n = a.ncols();
    let mut factor = CholeskyFactor::factorize(&a, Ordering::MinDegree).expect("healthy matrix");
    let before = solve_bits(&factor, n);
    let mut plan = FaultPlan::new(404);
    let (w, col) = plan.poison_downdate(&a);
    match factor.downdate(&w) {
        Err(SparseError::NotPositiveDefinite { .. }) => {}
        other => panic!("poisoned pivot at column {col} must break down typed, got {other:?}"),
    }
    assert_eq!(factor.pending_updates(), 0);
    assert_eq!(solve_bits(&factor, n), before, "failed downdate must restore the factor");

    // Sweep-level contract: one poisoned outage mid-batch is
    // quarantined as a classified failure and the survivors' answers
    // are bitwise identical to a sweep without it.
    use tracered_powergrid::{
        simulate_contingency_batch, ContingencyConfig, Outage, OutageFailureKind, OutageOutcome,
    };
    let pg = synthesize(&SynthConfig { mesh: 8, ..Default::default() });
    let healthy: Vec<Outage> = (0..4).map(|e| Outage::LineOutage { edge: e * 3 }).collect();
    let slot = plan.pick_slot(healthy.len() + 1);
    let mut outages = healthy.clone();
    outages.insert(slot, Outage::Reweight { edge: 1, new_weight: f64::NAN });

    let cfg = ContingencyConfig::default();
    let poisoned = simulate_contingency_batch(&pg, &outages, &[0, 5], &cfg, None)
        .expect("a poisoned outage must not abort the sweep");
    let clean = simulate_contingency_batch(&pg, &healthy, &[0, 5], &cfg, None).expect("clean");

    match &poisoned.outcomes[slot] {
        OutageOutcome::Failed(f) => {
            assert!(matches!(f.kind, OutageFailureKind::Invalid(_)), "got {:?}", f.kind);
        }
        other => panic!("slot {slot} must be quarantined, got {other:?}"),
    }
    let survivors: Vec<_> =
        poisoned.outcomes.iter().enumerate().filter(|&(i, _)| i != slot).map(|(_, o)| o).collect();
    for (sv, cl) in survivors.iter().zip(clean.outcomes.iter()) {
        let (sv, cl) = match (sv, cl) {
            (OutageOutcome::Completed(s), OutageOutcome::Completed(c)) => (s, c),
            other => panic!("survivor/clean outcome mismatch: {other:?}"),
        };
        let sb: Vec<u64> = sv.probes.iter().map(|p| p.to_bits()).collect();
        let cb: Vec<u64> = cl.probes.iter().map(|p| p.to_bits()).collect();
        assert_eq!(sb, cb, "survivors must be bitwise unaffected by the quarantined outage");
    }
    assert_eq!(poisoned.report.failures, 1);
    assert_eq!(poisoned.report.completed, clean.report.completed);
}
