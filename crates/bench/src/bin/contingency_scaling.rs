//! Contingency-screening benchmark: incremental rank-1 factor updates
//! (`simulate_contingency_batch`) against the naive
//! refactorize-per-outage reference (`simulate_contingency_refactor`)
//! on synthetic power grids.
//!
//! Per mesh size the sweep prints both paths' wall time, the
//! outages/second rate, the update/fallback accounting, and the
//! speedup. `--check` asserts the subsystem's contracts: every outage
//! classifies identically on both paths (completed solves within the
//! residual gate, failures bitwise), and the incremental path screens
//! strictly more outages per second than the naive reference.
//!
//! Usage: `cargo run --release -p tracered-bench --bin
//! contingency_scaling -- [--mesh 16,24] [--outages 64] [--check]`

use std::time::Instant;

use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::{
    simulate_contingency_batch, simulate_contingency_refactor, ContingencyConfig, ContingencySweep,
    Outage, OutageOutcome, PowerGrid,
};

/// Completed-solve agreement gate between the two paths: both passed a
/// 1e-8 residual gate against the true perturbed system, so their
/// probes agree to far better than this.
const PROBE_TOLERANCE: f64 = 1e-6;

struct Args {
    mesh: Vec<usize>,
    outages: usize,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args { mesh: vec![16, 24], outages: 64, check: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mesh" => {
                args.mesh = it
                    .next()
                    .expect("--mesh requires a list")
                    .split(',')
                    .map(|t| t.trim().parse().expect("mesh entries must be positive integers"))
                    .collect();
            }
            "--outages" => {
                args.outages = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--outages requires a positive integer");
            }
            "--check" => args.check = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    assert!(!args.mesh.is_empty() && args.mesh.iter().all(|&m| m >= 4));
    assert!(args.outages > 0, "--outages must be positive");
    args
}

/// A deterministic mixed outage list: line outages, up/down reweights
/// and load steps, spread over the mesh by coprime strides.
fn outage_list(pg: &PowerGrid, count: usize) -> Vec<Outage> {
    let edges = pg.graph().num_edges();
    let nodes = pg.num_nodes();
    (0..count)
        .map(|i| match i % 4 {
            0 => Outage::LineOutage { edge: (i * 37 + 1) % edges },
            1 => Outage::Reweight { edge: (i * 53 + 5) % edges, new_weight: 2.0 },
            2 => Outage::Reweight { edge: (i * 101 + 11) % edges, new_weight: 0.5 },
            _ => Outage::LoadStep { node: (i * 71 + 3) % nodes, extra_current: 2e-3 },
        })
        .collect()
}

/// Outage-for-outage agreement: completed solves within
/// [`PROBE_TOLERANCE`], failures bitwise identical.
fn equivalence_failures(batch: &ContingencySweep, naive: &ContingencySweep) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, (b, r)) in batch.outcomes.iter().zip(&naive.outcomes).enumerate() {
        match (b, r) {
            (OutageOutcome::Completed(bs), OutageOutcome::Completed(rs)) => {
                for (x, y) in bs.probes.iter().zip(&rs.probes) {
                    if (x - y).abs() > PROBE_TOLERANCE * y.abs().max(1.0) {
                        problems.push(format!("outage {i}: probe {x} vs reference {y}"));
                    }
                }
            }
            (OutageOutcome::Failed(bf), OutageOutcome::Failed(rf)) => {
                if bf != rf {
                    problems.push(format!("outage {i}: classification {bf:?} vs {rf:?}"));
                }
            }
            _ => problems.push(format!("outage {i}: outcome class mismatch")),
        }
    }
    problems
}

fn main() {
    let args = parse_args();
    let mut check_failures: Vec<String> = Vec::new();

    for &mesh in &args.mesh {
        let pg = synthesize(&SynthConfig { mesh, ..Default::default() });
        let n = pg.num_nodes();
        let m = pg.graph().num_edges();
        let outages = outage_list(&pg, args.outages);
        let cfg = ContingencyConfig::default();
        let probes = [0, n / 2, n - 1];

        let t0 = Instant::now();
        let batch = simulate_contingency_batch(&pg, &outages, &probes, &cfg, None)
            .expect("synthetic grid factors");
        let batch_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let naive = simulate_contingency_refactor(&pg, &outages, &probes, &cfg)
            .expect("synthetic grid factors");
        let naive_s = t0.elapsed().as_secs_f64();

        let batch_rate = outages.len() as f64 / batch_s;
        let naive_rate = outages.len() as f64 / naive_s;
        let speedup = naive_s / batch_s;
        let rb = batch.report;
        println!(
            "mesh {mesh} ({n} nodes, {m} edges), {} outages: batch {batch_s:.3}s \
             ({batch_rate:.0}/s, {} updates, {} fallbacks), naive {naive_s:.3}s \
             ({naive_rate:.0}/s, {} refactorizations), speedup {speedup:.2}x",
            outages.len(),
            rb.applied_updates,
            rb.update_fallbacks,
            naive.report.refactorizations,
        );

        let problems = equivalence_failures(&batch, &naive);
        for p in &problems {
            if args.check {
                check_failures.push(format!("mesh {mesh}: {p}"));
            } else {
                eprintln!("warning: mesh {mesh}: {p}");
            }
        }
        if args.check && speedup <= 1.0 {
            check_failures.push(format!(
                "mesh {mesh}: incremental updates must beat the naive refactor path \
                 (speedup {speedup:.2}x)"
            ));
        }
    }

    if !check_failures.is_empty() {
        panic!("contingency checks failed: {}", check_failures.join("; "));
    }
}
