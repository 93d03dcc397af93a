//! `tracered` — command-line front end for the sparsification library.
//!
//! ```text
//! tracered info      <matrix.mtx>
//! tracered sparsify  <matrix.mtx> [--method tr|grass|er|jl] [--fraction F]
//!                    [--iterations N] [--out sparsifier.mtx]
//! tracered kappa     <matrix.mtx> [--method ...] [--fraction F]
//! tracered partition <matrix.mtx> [--parts K]
//! ```
//!
//! Matrices are Matrix Market SDD files (e.g. the paper's SuiteSparse
//! cases); the diagonal slack above the weighted degree is used as the
//! physical grounding.

use std::process::ExitCode;

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_graph::mmio::{read_graph_path, write_laplacian, MmGraph};
use tracered_graph::Graph;
use tracered_partition::recursive_bisection;
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tracered info      <matrix.mtx>\n  tracered sparsify  <matrix.mtx> \
         [--method tr|grass|er|jl] [--fraction F] [--iterations N] [--out file.mtx]\n  \
         tracered kappa     <matrix.mtx> [--method tr|grass|er|jl] [--fraction F]\n  \
         tracered partition <matrix.mtx> [--parts K]"
    );
    ExitCode::from(2)
}

struct Options {
    path: String,
    /// The validated sparsifier configuration, without the grounding.
    cfg: SparsifyConfig,
    out: Option<String>,
    parts: usize,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Options), String> {
    let cmd = args.next().ok_or("missing command")?;
    let path = args.next().ok_or("missing matrix path")?;
    let (mut method, mut fraction, mut iterations) = (Method::TraceReduction, None, None);
    let (mut out, mut parts) = (None, 2);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--method" => {
                method = match value()?.as_str() {
                    "tr" | "trace" => Method::TraceReduction,
                    "grass" => Method::Grass,
                    "er" => Method::EffectiveResistance,
                    "jl" => Method::JlResistance,
                    other => return Err(format!("unknown method '{other}'")),
                };
            }
            "--fraction" => {
                fraction = Some(value()?.parse().map_err(|_| "invalid --fraction".to_string())?);
            }
            "--iterations" => {
                iterations =
                    Some(value()?.parse().map_err(|_| "invalid --iterations".to_string())?);
            }
            "--out" => out = Some(value()?),
            "--parts" => {
                parts = match value()?.parse() {
                    Ok(k) if k > 0 => k,
                    _ => return Err("--parts requires a positive integer".to_string()),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let mut cfg = SparsifyConfig::new(method);
    if let Some(f) = fraction {
        cfg = cfg.edge_fraction(f);
    }
    if let Some(it) = iterations {
        cfg = cfg.iterations(it);
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok((cmd, Options { path, cfg, out, parts }))
}

fn load(path: &str) -> Result<MmGraph, String> {
    read_graph_path(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Grounding: file slack plus a floor of 1e-3 of the mean weighted
/// degree, the default shift of `SparsifyConfig` (a vanishing shift
/// defeats Algorithm 1's max-relative pruning).
fn grounding(mm: &MmGraph) -> Vec<f64> {
    let n = mm.graph.num_nodes().max(1);
    let floor = 1e-3 * 2.0 * mm.graph.total_weight() / n as f64;
    mm.diag_slack.iter().map(|&s| s + floor).collect()
}

fn build(g: &Graph, shifts: Vec<f64>, opt: &Options) -> Result<tracered_core::Sparsifier, String> {
    let cfg = opt.cfg.clone().shift(ShiftPolicy::PerNode(shifts));
    sparsify(g, &cfg).map_err(|e| format!("sparsification failed: {e}"))
}

fn cmd_info(opt: &Options) -> Result<(), String> {
    let mm = load(&opt.path)?;
    let g = &mm.graph;
    println!("nodes        : {}", g.num_nodes());
    println!("edges        : {}", g.num_edges());
    println!("components   : {}", g.num_components());
    println!("total weight : {:.6e}", g.total_weight());
    let grounded = mm.diag_slack.iter().filter(|&&s| s > 0.0).count();
    println!("grounded     : {grounded} nodes carry diagonal slack");
    let wmin = g.edges().iter().map(|e| e.weight).fold(f64::INFINITY, f64::min);
    let wmax = g.edges().iter().map(|e| e.weight).fold(0.0f64, f64::max);
    println!("weight range : [{wmin:.3e}, {wmax:.3e}]");
    Ok(())
}

fn cmd_sparsify(opt: &Options) -> Result<(), String> {
    let mm = load(&opt.path)?;
    if !mm.graph.is_connected() {
        return Err("matrix graph is disconnected; sparsify components separately".into());
    }
    let shifts = grounding(&mm);
    let sp = build(&mm.graph, shifts.clone(), opt)?;
    println!(
        "sparsifier: {} of {} edges ({} tree + {} recovered) in {:.3}s",
        sp.edge_ids().len(),
        mm.graph.num_edges(),
        sp.tree_edge_count(),
        sp.num_recovered(),
        sp.report().total_time.as_secs_f64()
    );
    if let Some(out) = &opt.out {
        let sub = sp.as_graph(&mm.graph);
        let f = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        write_laplacian(f, &sub, &mm.diag_slack).map_err(|e| format!("write failed: {e}"))?;
        println!("wrote sparsifier Laplacian to {out}");
    }
    Ok(())
}

fn cmd_kappa(opt: &Options) -> Result<(), String> {
    let mm = load(&opt.path)?;
    if !mm.graph.is_connected() {
        return Err("matrix graph is disconnected".into());
    }
    let shifts = grounding(&mm);
    let sp = build(&mm.graph, shifts, opt)?;
    let lg = sp.graph_laplacian(&mm.graph);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&mm.graph))
        .map_err(|e| format!("factorization failed: {e}"))?;
    let kappa = relative_condition_number(&lg, pre.factor(), 80, 1);
    let n = mm.graph.num_nodes();
    let b: Vec<f64> = (0..n).map(|i| ((i % 31) as f64) - 15.0).collect();
    let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-6));
    println!("method      : {:?}", opt.cfg.method());
    println!("kappa       : {kappa:.2}");
    println!("pcg (1e-6)  : {} iterations, converged = {}", sol.iterations, sol.converged);
    println!("factor nnz  : {}", pre.factor().nnz());
    Ok(())
}

fn cmd_partition(opt: &Options) -> Result<(), String> {
    let mm = load(&opt.path)?;
    if !mm.graph.is_connected() {
        return Err("matrix graph is disconnected".into());
    }
    let p = recursive_bisection(&mm.graph, opt.parts, 8, 1)
        .map_err(|e| format!("partitioning failed: {e}"))?;
    println!("parts       : {}", p.parts);
    println!("cut weight  : {:.6e}", p.cut_weight);
    println!("part sizes  : {:?}", p.part_sizes());
    Ok(())
}

fn main() -> ExitCode {
    let (cmd, opt) = match parse(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(&opt),
        "sparsify" => cmd_sparsify(&opt),
        "kappa" => cmd_kappa(&opt),
        "partition" => cmd_partition(&opt),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_error(args: &[&str]) -> Option<String> {
        parse(args.iter().map(|s| s.to_string())).err()
    }

    #[test]
    fn zero_parts_is_an_argument_error() {
        let err = parse_error(&["partition", "m.mtx", "--parts", "0"]);
        assert_eq!(err.as_deref(), Some("--parts requires a positive integer"));
    }

    #[test]
    fn nan_fraction_is_an_argument_error() {
        let err = parse_error(&["sparsify", "m.mtx", "--fraction", "nan"]).unwrap();
        assert!(err.contains("edge_fraction NaN must be finite"), "{err}");
    }

    #[test]
    fn zero_iterations_is_an_argument_error() {
        let err = parse_error(&["sparsify", "m.mtx", "--iterations", "0", "--method", "er"]);
        assert_eq!(err.as_deref(), Some("invalid configuration: iterations must be at least 1"));
    }
}
