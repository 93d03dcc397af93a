//! Batching-equivalence suite: the service's micro-batched responses
//! must be **bit-identical** to one-at-a-time responses at the same
//! thread count, mixed-compatibility queues must split into multiple
//! batches, and epoch/fault handling must be typed and per-request.
//!
//! CI runs this suite under `TRACERED_THREADS=1` and
//! `TRACERED_THREADS=4`; the service's `solver_threads` follows the
//! global pool size, so the kernels run both without and with pool
//! workers.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use tracered_graph::gen::{grid2d, WeightProfile};
use tracered_graph::laplacian::laplacian_with_shifts;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{probe_pair, TransientConfig};
use tracered_service::{
    ContextSpec, GridContext, ServiceConfig, ServiceError, ServiceRequest, SolverService,
};
use tracered_sparse::CscMatrix;

fn threads() -> usize {
    tracered_par::global_pool_size()
}

fn system(side: usize, shift: f64) -> Arc<CscMatrix> {
    let g = grid2d(side, side, WeightProfile::Unit, 9);
    Arc::new(laplacian_with_shifts(&g, &vec![shift; side * side]))
}

/// Deterministic, seed-dependent right-hand side.
fn rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed * 0x85eb_ca6b);
            ((h % 2000) as f64) / 1000.0 - 1.0
        })
        .collect()
}

fn cfg_with_width(width: usize) -> ServiceConfig {
    ServiceConfig {
        max_batch_width: width,
        max_linger: Duration::from_millis(2),
        solver_threads: threads(),
        ..Default::default()
    }
}

fn start_published(width: usize, a: &Arc<CscMatrix>) -> SolverService {
    let svc = SolverService::start(cfg_with_width(width));
    svc.publish(ContextSpec::new(Arc::clone(a), Arc::clone(a))).unwrap();
    svc
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() == 0.0)
}

#[test]
fn micro_batched_pcg_is_bit_identical_to_one_at_a_time() {
    let a = system(12, 0.05);
    let n = a.ncols();
    // One-at-a-time baseline: width-1 batches by construction.
    let solo_svc = start_published(1, &a);
    let solo_client = solo_svc.client();
    for width in [1usize, 3, 8] {
        let svc = start_published(width, &a);
        let client = svc.client();
        let reqs: Vec<ServiceRequest> =
            (0..width).map(|j| ServiceRequest::pcg(rhs(n, j as u64), 1e-8)).collect();
        let tickets = client.submit_many(reqs);
        for (j, t) in tickets.into_iter().enumerate() {
            let batched = t.wait().unwrap().into_solve().unwrap();
            assert_eq!(batched.batch_width, width, "all {width} requests must share one batch");
            let solo = solo_client
                .solve(ServiceRequest::pcg(rhs(n, j as u64), 1e-8))
                .unwrap()
                .into_solve()
                .unwrap();
            assert_eq!(solo.batch_width, 1);
            assert_eq!(batched.iterations, solo.iterations, "width {width}, request {j}");
            assert_eq!(batched.converged, solo.converged);
            assert_eq!(batched.reason, solo.reason);
            assert!(
                (batched.rel_residual - solo.rel_residual).abs() == 0.0,
                "width {width}, request {j}: residual drifted"
            );
            assert!(
                bits_equal(&batched.x, &solo.x),
                "width {width}, request {j}: batched solution is not bit-identical"
            );
        }
        let m = svc.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.max_batch_width, width as u64);
    }
}

#[test]
fn micro_batched_direct_is_bit_identical_to_one_at_a_time() {
    let a = system(10, 0.1);
    let n = a.ncols();
    let solo_svc = start_published(1, &a);
    let solo_client = solo_svc.client();
    let svc = start_published(5, &a);
    let client = svc.client();
    let tickets =
        client.submit_many((0..5).map(|j| ServiceRequest::direct(rhs(n, 40 + j))).collect());
    for (j, t) in tickets.into_iter().enumerate() {
        let batched = t.wait().unwrap().into_solve().unwrap();
        assert_eq!(batched.batch_width, 5);
        assert!(batched.converged);
        let solo = solo_client
            .solve(ServiceRequest::direct(rhs(n, 40 + j as u64)))
            .unwrap()
            .into_solve()
            .unwrap();
        assert!(bits_equal(&batched.x, &solo.x), "direct request {j} drifted under batching");
    }
}

#[test]
fn mixed_compatibility_queue_splits_into_multiple_batches() {
    let a = system(12, 0.05);
    let n = a.ncols();
    let svc = start_published(8, &a);
    let client = svc.client();
    // Interleaved submission order; compatibility, not arrival order,
    // decides grouping: 4 × (pcg, 1e-8), 3 × (pcg, 1e-10), 2 × direct.
    let tol_a = 1e-8;
    let tol_b = 1e-10;
    let reqs = vec![
        ServiceRequest::pcg(rhs(n, 0), tol_a),
        ServiceRequest::pcg(rhs(n, 1), tol_b),
        ServiceRequest::pcg(rhs(n, 2), tol_a),
        ServiceRequest::direct(rhs(n, 3)),
        ServiceRequest::pcg(rhs(n, 4), tol_b),
        ServiceRequest::pcg(rhs(n, 5), tol_a),
        ServiceRequest::direct(rhs(n, 6)),
        ServiceRequest::pcg(rhs(n, 7), tol_b),
        ServiceRequest::pcg(rhs(n, 8), tol_a),
    ];
    let tickets = client.submit_many(reqs);
    let outcomes: Vec<_> =
        tickets.into_iter().map(|t| t.wait().unwrap().into_solve().unwrap()).collect();
    let widths: Vec<usize> = outcomes.iter().map(|o| o.batch_width).collect();
    assert_eq!(widths, vec![4, 3, 4, 2, 3, 4, 2, 3, 4], "groups must batch by compatibility key");
    for o in &outcomes {
        assert!(o.converged);
    }
    let m = svc.metrics();
    assert_eq!(m.batches, 3, "three compatibility classes → three batches");
    assert_eq!(m.batched_requests, 9);
    assert!((m.mean_batch_width() - 3.0).abs() < 1e-12);
}

#[test]
fn live_latency_histogram_sits_between_linger_and_client_latency() {
    // One request at a time, so each is the head of its own width-1
    // batch. The service stamps enqueue and reply inside the client's
    // call, and the batch's linger (the full `max_linger` wait) starts
    // after that enqueue and ends before that reply. Per request,
    // linger <= live latency <= client latency, so the means and order
    // statistics nest; the histogram quantiles move each by at most one
    // bucket ratio.
    let a = system(12, 0.05);
    let n = a.ncols();
    let svc = start_published(8, &a);
    let client = svc.client();
    let mut client_s: Vec<f64> = (0..16u64)
        .map(|j| {
            let t0 = Instant::now();
            client.solve(ServiceRequest::pcg(rhs(n, j), 1e-8)).unwrap().into_solve().unwrap();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    client_s.sort_by(f64::total_cmp);
    let m = svc.metrics();
    let (latency, linger) = (m.latency, m.linger);
    assert_eq!(latency.count, 16);
    assert_eq!(linger.count, 16, "every request is its own batch");
    let client_mean = client_s.iter().sum::<f64>() / client_s.len() as f64;
    assert!(
        linger.mean_s <= latency.mean_s && latency.mean_s <= client_mean,
        "mean latency {} outside [linger {}, client {client_mean}]",
        latency.mean_s,
        linger.mean_s
    );
    let client_max = client_s[client_s.len() - 1];
    assert!(latency.max_s <= client_max, "max latency {} > client {client_max}", latency.max_s);
    let ratio = tracered_obs::Histogram::bucket_ratio();
    let quantiles = [(0.50, latency.p50_s, linger.p50_s), (0.99, latency.p99_s, linger.p99_s)];
    for (q, live, lo) in quantiles {
        // Nearest rank, as the histogram computes it.
        let hi = client_s[(q * client_s.len() as f64).ceil() as usize - 1];
        assert!(
            lo / ratio <= live && live <= hi * ratio,
            "p{q} latency {live} outside [linger {lo}, client {hi}] by more than a bucket"
        );
    }
}

#[test]
fn simulate_requests_batch_and_stay_bit_identical() {
    let pg = Arc::new(synthesize(&SynthConfig {
        mesh: 10,
        source_fraction: 0.2,
        seed: 33,
        ..Default::default()
    }));
    let (near, far) = probe_pair(&pg);
    let g = pg.conductance_shared();
    let tcfg = TransientConfig { t_end: 1e-9, threads: threads(), ..Default::default() };
    let spec = || {
        ContextSpec::new(Arc::clone(&g), Arc::clone(&g)).with_grid(GridContext {
            grid: Arc::clone(&pg),
            transient: tcfg,
            probes: vec![near, far],
        })
    };
    let scenarios = [1.0, 0.5, 1.5]
        .map(|s| tracered_powergrid::transient::SourceScenario::uniform(s, pg.sources().len()));

    let solo_svc = SolverService::start(cfg_with_width(1));
    solo_svc.publish(spec()).unwrap();
    let solo_client = solo_svc.client();

    let svc = SolverService::start(cfg_with_width(3));
    svc.publish(spec()).unwrap();
    let tickets =
        svc.client().submit_many(scenarios.iter().cloned().map(ServiceRequest::simulate).collect());
    for (t, sc) in tickets.into_iter().zip(scenarios.iter()) {
        let batched = t.wait().unwrap().into_simulate().unwrap();
        assert_eq!(batched.batch_width, 3);
        let solo = solo_client
            .solve(ServiceRequest::simulate(sc.clone()))
            .unwrap()
            .into_simulate()
            .unwrap();
        assert_eq!(solo.batch_width, 1);
        let br = batched.outcome.result().expect("scenario must complete");
        let sr = solo.outcome.result().expect("scenario must complete");
        for idx in 0..2 {
            assert!(
                br.max_probe_difference(sr, idx, 200) == 0.0,
                "probe {idx}: batched transient drifted from one-at-a-time"
            );
        }
    }
}

#[test]
fn epoch_swap_rejects_stale_pins_and_reuses_cached_factors() {
    let a = system(10, 0.05);
    let b = system(10, 0.25); // different topology epoch
    let n = a.ncols();
    let svc = SolverService::start(cfg_with_width(4));
    let client = svc.client();

    let e1 = svc.publish(ContextSpec::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
    let ok = client.solve(ServiceRequest::pcg(rhs(n, 1), 1e-8).pinned(e1)).unwrap();
    assert_eq!(ok.into_solve().unwrap().epoch, e1);

    let e2 = svc.publish(ContextSpec::new(Arc::clone(&b), Arc::clone(&b))).unwrap();
    assert_ne!(e1, e2);
    match client.solve(ServiceRequest::pcg(rhs(n, 2), 1e-8).pinned(e1)) {
        Err(ServiceError::StaleEpoch { pinned, current }) => {
            assert_eq!(pinned, e1);
            assert_eq!(current, e2);
        }
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    // Unpinned requests ride the current epoch.
    let fresh = client.solve(ServiceRequest::pcg(rhs(n, 3), 1e-8)).unwrap();
    assert_eq!(fresh.into_solve().unwrap().epoch, e2);

    // Flipping back to the first topology hits the factor cache.
    let before = svc.metrics();
    let e3 = svc.publish(ContextSpec::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
    let after = svc.metrics();
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.cache_misses, before.cache_misses);
    assert!(client.solve(ServiceRequest::pcg(rhs(n, 4), 1e-8).pinned(e3)).is_ok());
    assert_eq!(after.stale_rejections, 1);
}

/// Regression for the fingerprint-collision bug: wildcard match arms in
/// `SparsifyConfig::fingerprint` used to map every ordering to the same
/// tag bits, so two configs differing only in that knob would share a
/// cache slot and one would be served the other's factor. Publishing
/// specs whose tags differ only by ordering or pivot boost must each miss
/// the cache.
#[test]
fn cache_misses_when_only_ordering_or_boost_differs() {
    use tracered_core::SparsifyConfig;
    use tracered_sparse::order::Ordering;
    use tracered_sparse::BoostSchedule;

    let a = system(10, 0.05);
    let svc = SolverService::start(cfg_with_width(4));

    let base = SparsifyConfig::default();
    let nd = SparsifyConfig::default().ordering(Ordering::NestedDissection);
    let boosted = SparsifyConfig::default().pivot_boost(Some(BoostSchedule::default()));
    assert_ne!(base.fingerprint(), nd.fingerprint());
    assert_ne!(base.fingerprint(), boosted.fingerprint());
    assert_ne!(nd.fingerprint(), boosted.fingerprint());

    for cfg in [&base, &nd, &boosted] {
        let before = svc.metrics();
        let spec = ContextSpec::new(Arc::clone(&a), Arc::clone(&a)).with_tag(cfg.fingerprint());
        svc.publish(spec).unwrap();
        let after = svc.metrics();
        assert_eq!(after.cache_misses, before.cache_misses + 1);
        assert_eq!(after.cache_hits, before.cache_hits);
    }
    // Same tag again: now it is a hit.
    let before = svc.metrics();
    let spec = ContextSpec::new(Arc::clone(&a), Arc::clone(&a)).with_tag(boosted.fingerprint());
    svc.publish(spec).unwrap();
    let after = svc.metrics();
    assert_eq!(after.cache_hits, before.cache_hits + 1);
    assert_eq!(after.cache_misses, before.cache_misses);
}

#[test]
fn missing_context_and_missing_grid_are_typed_errors() {
    let svc = SolverService::start(cfg_with_width(4));
    let client = svc.client();
    assert!(matches!(
        client.solve(ServiceRequest::pcg(vec![1.0; 16], 1e-8)),
        Err(ServiceError::NoContext)
    ));
    let a = system(4, 0.1);
    svc.publish(ContextSpec::new(Arc::clone(&a), a)).unwrap();
    assert!(matches!(
        client.solve(ServiceRequest::simulate(
            tracered_powergrid::transient::SourceScenario::nominal()
        )),
        Err(ServiceError::NoGridContext)
    ));
}

#[test]
fn faulted_request_fails_alone_and_batch_mates_complete() {
    let a = system(12, 0.05);
    let n = a.ncols();
    let solo_svc = start_published(1, &a);
    let solo_client = solo_svc.client();
    let svc = start_published(4, &a);
    let client = svc.client();
    let mut bad = rhs(n, 9);
    bad[n / 2] = f64::NAN;
    let tickets = client.submit_many(vec![
        ServiceRequest::pcg(rhs(n, 10), 1e-8),
        ServiceRequest::pcg(bad, 1e-8),
        ServiceRequest::pcg(rhs(n, 11), 1e-8),
        ServiceRequest::pcg(rhs(n, 12)[..n - 3].to_vec(), 1e-8),
    ]);
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    assert!(matches!(
        &results[1],
        Err(ServiceError::NonFiniteRhs { index }) if *index == n / 2
    ));
    assert!(matches!(
        &results[3],
        Err(ServiceError::WrongLength { expected, found }) if *expected == n && *found == n - 3
    ));
    for (j, seed) in [(0usize, 10u64), (2, 11)] {
        let got = results[j].as_ref().unwrap().clone().into_solve().unwrap();
        assert_eq!(got.batch_width, 2, "only the two healthy requests enter the kernel");
        let solo = solo_client
            .solve(ServiceRequest::pcg(rhs(n, seed), 1e-8))
            .unwrap()
            .into_solve()
            .unwrap();
        assert!(bits_equal(&got.x, &solo.x), "batch-mate {j} was disturbed by the faulted request");
    }
    let m = svc.metrics();
    assert_eq!(m.faults_isolated, 2);
    assert_eq!(m.completed, 2);
    assert_eq!(m.failed, 2);
}

#[test]
fn concurrent_clients_all_complete() {
    let a = system(10, 0.05);
    let n = a.ncols();
    let svc = start_published(8, &a);
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let client = svc.client();
            std::thread::spawn(move || {
                for k in 0..5u64 {
                    let out = client
                        .solve(ServiceRequest::pcg(rhs(n, t * 100 + k), 1e-8))
                        .unwrap()
                        .into_solve()
                        .unwrap();
                    assert!(out.converged);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let m = svc.metrics();
    assert_eq!(m.submitted, 20);
    assert_eq!(m.completed, 20);
    assert_eq!(m.failed, 0);
}

#[test]
fn shutdown_answers_queued_requests() {
    let a = system(8, 0.1);
    let n = a.ncols();
    let svc = start_published(4, &a);
    let client = svc.client();
    let tickets =
        client.submit_many((0..6).map(|j| ServiceRequest::pcg(rhs(n, j), 1e-8)).collect());
    svc.shutdown();
    // Everything queued before shutdown is answered, not dropped.
    for t in tickets {
        assert!(t.wait().unwrap().into_solve().unwrap().converged);
    }
    // Submissions after shutdown resolve to a typed stop.
    assert!(matches!(
        client.solve(ServiceRequest::pcg(rhs(n, 99), 1e-8)),
        Err(ServiceError::ServiceStopped)
    ));
}

#[test]
fn contingency_hook_stales_pins_and_counts_outages() {
    let a = system(8, 0.05);
    let n = a.ncols();
    let svc = start_published(4, &a);
    let client = svc.client();
    let epoch = svc.current_epoch().unwrap();

    // Drive the hook from a real sweep: each matrix perturbation bumps
    // the epoch twice (apply + revert) and the outage counter once.
    let pg = synthesize(&SynthConfig { mesh: 8, ..Default::default() });
    let outages = [
        tracered_powergrid::Outage::LineOutage { edge: 0 },
        tracered_powergrid::Outage::Reweight { edge: 3, new_weight: 2.5 },
    ];
    let hook = svc.contingency_hook();
    let sweep = tracered_powergrid::simulate_contingency_batch(
        &pg,
        &outages,
        &[0],
        &tracered_powergrid::ContingencyConfig::default(),
        Some(&hook),
    )
    .unwrap();
    assert_eq!(sweep.report.completed, 2);
    assert_eq!(sweep.report.applied_updates + sweep.report.update_fallbacks, 2);

    let m = svc.metrics();
    assert_eq!(m.outages_applied, 2);
    assert_eq!(m.update_fallbacks, sweep.report.update_fallbacks as u64);

    // Pins taken before the sweep are stale now.
    match client.solve(ServiceRequest::pcg(rhs(n, 5), 1e-8).pinned(epoch)) {
        Err(ServiceError::StaleEpoch { pinned, current }) => {
            assert_eq!(pinned, epoch);
            assert_eq!(current, epoch + 4);
        }
        other => panic!("expected StaleEpoch, got {other:?}"),
    }
    // Unpinned requests still ride the (restored) topology.
    assert!(client.solve(ServiceRequest::pcg(rhs(n, 6), 1e-8)).unwrap().into_solve().is_some());
}
