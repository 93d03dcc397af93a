//! Batched multi-RHS solve benchmark: batch width × thread count sweep
//! over the blocked kernels and the batch power-grid transient engine.
//!
//! Three benches per (width, threads) cell, written to `BENCH_pr2.json`:
//!
//! - `solve_multi` — blocked Cholesky substitutions for a `k`-column
//!   block vs `k` single solves sharing the factor;
//! - `spmm` — symmetric SpMM vs `k` symmetric SpMVs;
//! - `transient_pcg_batch` — [`simulate_pcg_batch`] over a `k`-scenario
//!   ensemble (nominal + per-source activity corners), reporting the
//!   amortized per-RHS stepping time and per-scenario iteration counts.
//!
//! Every record carries `available_parallelism` so single-core containers
//! (where thread sweeps cannot show real speedups) are machine-detectable
//! on re-runs; `--check` asserts the batching win — amortized per-RHS
//! time at the largest width below the batch-of-1 baseline.
//!
//! Usage: `cargo run --release -p tracered-bench --bin multi_rhs --
//! [--mesh 40] [--widths 1,2,4,8] [--threads 1] [--t-end 2e-9]
//! [--out BENCH_pr2.json] [--check]`

use std::time::Instant;

use tracered_bench::{available_parallelism, pool_size, write_bench_json, BenchRecord};
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{
    probe_pair, simulate_pcg_batch, SourceScenario, TransientConfig,
};
use tracered_powergrid::PowerGrid;
use tracered_solver::precond::{CholPreconditioner, Preconditioner};
use tracered_sparse::MultiVec;

struct Args {
    mesh: usize,
    widths: Vec<usize>,
    threads: Vec<usize>,
    t_end: f64,
    out: String,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        mesh: 40,
        widths: vec![1, 2, 4, 8],
        threads: vec![1],
        t_end: 2e-9,
        out: "BENCH_pr2.json".to_string(),
        check: false,
    };
    let parse_list = |spec: String| -> Vec<usize> {
        spec.split(',')
            .map(|t| t.trim().parse().expect("list entries must be positive integers"))
            .collect()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mesh" => {
                args.mesh = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--mesh requires a positive integer");
            }
            "--widths" => {
                args.widths = parse_list(it.next().expect("--widths requires a list"));
            }
            "--threads" => {
                args.threads = parse_list(it.next().expect("--threads requires a list"));
            }
            "--t-end" => {
                args.t_end = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--t-end requires a positive duration in seconds");
            }
            "--out" => args.out = it.next().expect("--out requires a path"),
            "--check" => args.check = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    assert!(args.mesh >= 4, "--mesh must be at least 4");
    assert!(!args.widths.is_empty() && args.widths.iter().all(|&k| k > 0));
    assert!(!args.threads.is_empty() && args.threads.iter().all(|&t| t > 0));
    assert!(args.t_end > 0.0, "--t-end must be positive");
    if args.check {
        assert!(
            args.widths[0] == 1 && args.widths.len() > 1,
            "--check compares the largest width against a batch-of-1 baseline, \
             so --widths must start at 1 and include a larger width"
        );
    }
    args
}

/// Deterministic ensemble: nominal corner plus per-source activity
/// patterns (mirrors the unit-test ensemble so numbers are comparable).
fn scenario_ensemble(pg: &PowerGrid, k: usize) -> Vec<SourceScenario> {
    let m = pg.sources().len();
    (0..k)
        .map(|i| {
            if i == 0 {
                SourceScenario::nominal()
            } else {
                SourceScenario::per_source(
                    (0..m).map(|j| 0.25 + ((i * 7 + j * 3) % 10) as f64 * 0.15).collect(),
                )
            }
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let pg = synthesize(&SynthConfig { mesh: args.mesh, seed: 7, ..Default::default() });
    let n = pg.num_nodes();
    println!(
        "power grid: {n} nodes, {} resistors, {} sources; available parallelism {}",
        pg.graph().num_edges(),
        pg.sources().len(),
        available_parallelism()
    );

    // Sparsifier-preconditioner built once from DC analysis (the paper's
    // workflow), shared by every batch configuration.
    let t0 = Instant::now();
    let sp_cfg = SparsifyConfig::new(Method::TraceReduction)
        .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
    let sp = sparsify(pg.graph(), &sp_cfg).expect("power grid is connected");
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph()))
        .expect("sparsifier Laplacian is SPD");
    println!(
        "sparsifier preconditioner: {:.3}s, {:.1} MiB",
        t0.elapsed().as_secs_f64(),
        pre.memory_bytes() as f64 / 1048576.0
    );
    let (near, far) = probe_pair(&pg);
    let probes = [near, far];

    // Factor of the fixed-step system for the kernel-level rows.
    let h = 1e-11;
    let factor = tracered_solver::DirectSolver::new_threads(&pg.transient_matrix(h), 1)
        .expect("transient matrix is SPD");
    let g = pg.conductance_matrix();

    let mut records: Vec<BenchRecord> = Vec::new();
    let base = |bench: &str, k: usize, threads: usize| {
        BenchRecord::new()
            .str("bench", bench)
            .str("case", "synth-grid")
            .int("mesh", args.mesh as i64)
            .int("nodes", n as i64)
            .int("batch", k as i64)
            .int("threads", threads as i64)
            .int("available_parallelism", available_parallelism() as i64)
            .int("pool_size", pool_size() as i64)
    };

    // Amortized per-RHS stepping time at the first swept width (width 1
    // whenever --check is on), per thread count — the baseline the
    // speedup field and the acceptance check compare against.
    let baseline_width = args.widths[0];
    let mut transient_base: std::collections::HashMap<usize, f64> =
        std::collections::HashMap::new();
    let mut check_failures: Vec<String> = Vec::new();

    for &t in &args.threads {
        for &k in &args.widths {
            // Kernel row 1: blocked factor substitutions vs k single solves.
            let cols: Vec<Vec<f64>> = (0..k)
                .map(|c| (0..n).map(|i| ((i * 13 + c * 5) % 29) as f64 - 14.0).collect())
                .collect();
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let b_blk = MultiVec::from_columns(&refs).expect("columns share a length");
            let reps = (200 / k).max(1);
            let mut x_blk = MultiVec::zeros(n, k);
            let t0 = Instant::now();
            for _ in 0..reps {
                factor.factor().solve_multi_into(&b_blk, &mut x_blk);
            }
            let blocked_s = t0.elapsed().as_secs_f64() / reps as f64;
            let mut x1 = vec![0.0; n];
            let t0 = Instant::now();
            for _ in 0..reps {
                for col in &cols {
                    factor.factor().solve_into(col, &mut x1);
                }
            }
            let loop_s = t0.elapsed().as_secs_f64() / reps as f64;
            records.push(
                base("solve_multi", k, t)
                    .num("seconds", blocked_s)
                    .num("per_rhs_seconds", blocked_s / k as f64)
                    .num("speedup_vs_k_single_solves", loop_s / blocked_s),
            );

            // Kernel row 2: symmetric SpMM vs k symmetric SpMVs.
            let mut y_blk = MultiVec::zeros(n, k);
            let reps = (400 / k).max(1);
            let t0 = Instant::now();
            for _ in 0..reps {
                if t <= 1 {
                    g.mul_multi_into(&b_blk, &mut y_blk);
                } else {
                    g.sym_mul_multi_into_threads(&b_blk, &mut y_blk, t);
                }
            }
            let spmm_s = t0.elapsed().as_secs_f64() / reps as f64;
            let mut y1 = vec![0.0; n];
            let t0 = Instant::now();
            for _ in 0..reps {
                for col in &cols {
                    if t <= 1 {
                        g.matvec_into(col, &mut y1);
                    } else {
                        g.sym_matvec_into_threads(col, &mut y1, t);
                    }
                }
            }
            let spmv_s = t0.elapsed().as_secs_f64() / reps as f64;
            records.push(
                base("spmm", k, t)
                    .num("seconds", spmm_s)
                    .num("per_rhs_seconds", spmm_s / k as f64)
                    .num("speedup_vs_k_spmv", spmv_s / spmm_s),
            );

            // Transient row: the batch engine end to end.
            let scenarios = scenario_ensemble(&pg, k);
            let cfg = TransientConfig { t_end: args.t_end, threads: t, ..Default::default() };
            let t0 = Instant::now();
            let results = simulate_pcg_batch(&pg, &cfg, &pre, &probes, &scenarios)
                .expect("batch transient must run");
            let wall = t0.elapsed().as_secs_f64();
            let per_rhs = wall / k as f64;
            let iters: usize = results.iter().map(|r| r.stats.total_pcg_iterations).sum();
            let steps = results[0].stats.steps;
            let baseline = *transient_base.entry(t).or_insert(per_rhs);
            records.push(
                base("transient_pcg_batch", k, t)
                    .num("seconds", wall)
                    .num("per_rhs_seconds", per_rhs)
                    .int("baseline_width", baseline_width as i64)
                    .num("per_rhs_speedup_vs_baseline", baseline / per_rhs)
                    .int("steps", steps as i64)
                    .int("total_pcg_iterations", iters as i64)
                    .num("avg_pcg_iterations_per_step_per_rhs", iters as f64 / (steps * k) as f64),
            );
            println!(
                "threads {t} width {k}: solve_multi {blocked_s:.5}s (vs {loop_s:.5}s), \
                 spmm {spmm_s:.5}s (vs {spmv_s:.5}s), transient {wall:.3}s \
                 ({per_rhs:.3}s/RHS, {steps} steps, {iters} iters)"
            );
            let max_width = *args.widths.iter().max().unwrap();
            if args.check && k == max_width && k != baseline_width && per_rhs >= baseline {
                check_failures.push(format!(
                    "threads {t}: per-RHS {per_rhs:.4}s at width {k} not below \
                     batch-of-1 baseline {baseline:.4}s"
                ));
            }
        }
    }

    write_bench_json(&args.out, &records).expect("writing the bench JSON must succeed");
    println!("wrote {} records to {}", records.len(), args.out);
    if !check_failures.is_empty() {
        panic!("batching check failed: {}", check_failures.join("; "));
    }
}
