//! Observability end-to-end: run the paper pipeline — sparsify a power
//! grid, publish the context, serve 100 PCG requests — with tracing
//! enabled, then print the hierarchical span report and the service's
//! live latency histogram, and export a `chrome://tracing` trace.
//!
//! The exported JSON loads directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>: spans nest by thread (the aggregator's
//! linger/batch/kernel phases on one track, parallel workers on
//! others), and per-iteration PCG convergence events show up as
//! instants inside each kernel span.
//!
//! ```sh
//! cargo run --release -p tracered-integration --example tracing_demo [TRACE.json]
//! ```
//!
//! The trace path defaults to `tracered_trace.json` in the system temp
//! directory. The example doubles as the CI smoke test for the tracing
//! layer: it asserts the trace is well-formed JSON and contains every
//! expected pipeline phase.

use std::sync::Arc;
use std::time::Duration;

use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_service::{ContextSpec, ServiceConfig, ServiceRequest, SolverService};

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed.wrapping_mul(0x85eb_ca6b));
            ((h % 2000) as f64) / 1000.0 - 1.0
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("tracered_trace.json"));

    // Flip the recorder on for the whole run; per-iteration convergence
    // events are opt-in separately because they are high-volume.
    let recorder = tracered_obs::recorder();
    recorder.reset();
    tracered_obs::set_enabled(true);
    tracered_obs::set_iter_events(true);

    // Phase 1: the paper pipeline's offline half — sparsify the grid.
    let pg = synthesize(&SynthConfig { mesh: 24, seed: 7, ..Default::default() });
    let n = pg.num_nodes();
    let sp_cfg = SparsifyConfig::new(Method::TraceReduction)
        .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = sparsify(pg.graph(), &sp_cfg)?;

    // Phase 2: publish (factorizes the preconditioner once) and serve a
    // burst of 100 compatible requests through the aggregator.
    let svc = SolverService::start(ServiceConfig {
        max_batch_width: 8,
        max_linger: Duration::from_millis(1),
        ..Default::default()
    });
    svc.publish(
        ContextSpec::new(pg.conductance_shared(), Arc::new(sp.laplacian(pg.graph())))
            .with_tag(sp_cfg.fingerprint()),
    )?;
    let client = svc.client();
    let tickets =
        client.submit_many((0..100).map(|j| ServiceRequest::pcg(rhs(n, j), 1e-8)).collect());
    for t in tickets {
        let out = t.wait()?.into_solve().expect("solve response");
        assert!(out.converged, "demo requests converge");
    }
    let m = svc.metrics();
    svc.shutdown();
    tracered_obs::set_iter_events(false);
    tracered_obs::set_enabled(false);

    // The hierarchical report aggregates spans by path; the service's
    // own histograms were live the whole time.
    print!("{}", recorder.report());
    println!(
        "service: {} requests in {} batches (mean width {:.2}); \
         live latency p50 {:.1}µs p90 {:.1}µs p99 {:.1}µs",
        m.completed,
        m.batches,
        m.mean_batch_width(),
        m.latency.p50_s * 1e6,
        m.latency.p90_s * 1e6,
        m.latency.p99_s * 1e6,
    );

    // Smoke gate: every pipeline phase must have left spans behind.
    let trace = recorder.trace();
    for name in [
        "sparsify",
        "sparsify.tree",
        "sparsify.iter",
        "sparsify.spai",
        "sparsify.factor",
        "sparsify.laplacian",
        "sparsify.score.tree",
        "sparsify.score.subgraph",
        "chol.order",
        "chol.factorize",
        "chol.numeric",
        "service.linger",
        "service.batch",
        "service.kernel",
        "block_pcg.solve",
    ] {
        assert!(trace.has_span(name), "expected span '{name}' missing from the trace");
    }

    // Export for chrome://tracing / Perfetto, and prove well-formedness
    // the hard way (the validator is the same RFC 8259 checker the obs
    // tests use).
    let json = recorder.chrome_trace_json();
    tracered_obs::validate_json(&json).expect("chrome trace must be valid JSON");
    std::fs::write(&out_path, &json)?;
    let iter_events = trace.events.iter().filter(|e| e.name == "block_pcg.iter").count();
    assert!(iter_events > 0, "per-iteration convergence events were enabled");
    println!(
        "chrome trace: {} spans, {iter_events} convergence events -> {}",
        trace.spans.len(),
        out_path.display()
    );
    recorder.reset();
    Ok(())
}
