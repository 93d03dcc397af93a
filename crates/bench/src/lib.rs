//! Shared harness for the table/figure reproduction binaries.
//!
//! Each paper table has a binary (`table1`, `table2`, `table3`, `fig1`,
//! `fig2`, `ablation`) that prints the same rows the paper reports, over
//! synthetic analogs of its test cases. All binaries accept
//! `--scale <f64>` (default 1.0) to grow or shrink the cases, and
//! `--case <name>` to restrict to one case. `table1 --case <name>` at a
//! series of scales is the size sweep of one case.
//!
//! None of the binaries enable the resilience layer (pivot boosting,
//! robust-solve escalation) — it defaults off everywhere — so their
//! timed hot paths are the plain factor-and-solve code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{grid2d, grid3d, tri_mesh, WeightProfile};
use tracered_graph::Graph;
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;

/// A named benchmark case: a generator producing a synthetic analog of
/// one of the paper's test matrices at a given scale.
pub struct Case {
    /// Case name (mirrors the paper's matrix it stands in for).
    pub name: &'static str,
    /// Which paper matrix this is the analog of.
    pub analog_of: &'static str,
    /// Builds the graph at `scale` (1.0 = default size).
    pub build: fn(f64) -> Graph,
}

impl Case {
    /// Builds the case's graph.
    pub fn graph(&self, scale: f64) -> Graph {
        (self.build)(scale)
    }
}

fn dim(base: usize, scale: f64) -> usize {
    ((base as f64 * scale.sqrt()).round() as usize).max(4)
}

fn dim3(base: usize, scale: f64) -> usize {
    ((base as f64 * scale.cbrt()).round() as usize).max(3)
}

/// The ten sparsification cases of Table 1, as synthetic analogs: the
/// paper's SuiteSparse matrices are not shipped with the workspace, so
/// each case generates a graph of the same family and names the matrix
/// it stands in for in [`Case::analog_of`].
pub fn table1_cases() -> Vec<Case> {
    vec![
        Case {
            name: "grid2d-unit",
            analog_of: "ecology2",
            build: |s| grid2d(dim(100, s), dim(100, s), WeightProfile::Unit, 11),
        },
        Case {
            name: "grid3d-log",
            analog_of: "thermal2",
            build: |s| {
                grid3d(
                    dim3(22, s),
                    dim3(22, s),
                    dim3(22, s),
                    WeightProfile::LogUniform { lo: 0.1, hi: 10.0 },
                    12,
                )
            },
        },
        Case {
            name: "grid3d-uniform",
            analog_of: "parabolic_fem",
            build: |s| {
                grid3d(
                    dim3(20, s),
                    dim3(20, s),
                    dim3(20, s),
                    WeightProfile::Uniform { lo: 0.5, hi: 2.0 },
                    13,
                )
            },
        },
        Case {
            name: "grid2d-log",
            analog_of: "tmt_sym",
            build: |s| {
                grid2d(dim(90, s), dim(90, s), WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 14)
            },
        },
        Case {
            name: "grid2d-wide",
            analog_of: "G3_circuit",
            build: |s| {
                grid2d(
                    dim(110, s),
                    dim(110, s),
                    WeightProfile::LogUniform { lo: 0.01, hi: 100.0 },
                    15,
                )
            },
        },
        Case {
            name: "trimesh-unit",
            analog_of: "NACA0015",
            build: |s| tri_mesh(dim(85, s), dim(85, s), WeightProfile::Unit, 16),
        },
        Case {
            name: "trimesh-log",
            analog_of: "M6",
            build: |s| {
                tri_mesh(dim(90, s), dim(90, s), WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 17)
            },
        },
        Case {
            name: "trimesh-wide",
            analog_of: "333SP",
            build: |s| {
                tri_mesh(
                    dim(95, s),
                    dim(95, s),
                    WeightProfile::LogUniform { lo: 0.05, hi: 20.0 },
                    18,
                )
            },
        },
        Case {
            name: "trimesh-rect",
            analog_of: "AS365",
            build: |s| tri_mesh(dim(120, s), dim(70, s), WeightProfile::Unit, 19),
        },
        Case {
            name: "trimesh-aniso",
            analog_of: "NLR",
            build: |s| {
                tri_mesh(dim(130, s), dim(65, s), WeightProfile::Uniform { lo: 0.2, hi: 2.0 }, 20)
            },
        },
    ]
}

/// One method's measurements for a Table-1 row.
#[derive(Debug, Clone)]
pub struct SparsifyEval {
    /// Sparsification time `T_s`.
    pub sparsify_time: Duration,
    /// Relative condition number κ(L_G, L_P).
    pub kappa: f64,
    /// PCG iterations to 1e-3 (`N_i`).
    pub pcg_iterations: usize,
    /// PCG time `T_i`.
    pub pcg_time: Duration,
    /// Edges in the sparsifier.
    pub edges: usize,
}

/// Runs one sparsification method on a graph and evaluates it the way
/// Table 1 does: κ by generalized power iteration, then one PCG solve
/// with a random right-hand side to tolerance 1e-3.
///
/// # Panics
///
/// Panics when sparsification fails (the bench cases are always
/// connected and well-formed).
pub fn evaluate_sparsifier(g: &Graph, method: Method) -> SparsifyEval {
    let t0 = Instant::now();
    let sp = sparsify(g, &SparsifyConfig::new(method)).expect("bench cases are connected");
    let sparsify_time = t0.elapsed();
    let lg = sp.graph_laplacian(g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(g))
        .expect("sparsifier Laplacian is SPD under the shared shift");
    let kappa = relative_condition_number(&lg, pre.factor(), 60, 2024);
    let b = random_rhs(g.num_nodes(), 77);
    let t1 = Instant::now();
    let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-3));
    let pcg_time = t1.elapsed();
    assert!(sol.converged, "PCG must converge with a sparsifier preconditioner");
    SparsifyEval {
        sparsify_time,
        kappa,
        pcg_iterations: sol.iterations,
        pcg_time,
        edges: sp.edge_ids().len(),
    }
}

/// Deterministic pseudo-random right-hand side (the paper uses random
/// RHS vectors).
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<f64>() - 0.5).collect()
}

/// Parses `--scale <f64>` and `--case <name>`; binaries pass
/// `std::env::args().skip(1)`.
///
/// # Panics
///
/// Panics on an unknown flag, a missing value, or a scale that is not a
/// positive finite number.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> (f64, Option<String>) {
    let mut scale: f64 = 1.0;
    let mut case = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale requires a positive number");
            }
            "--case" => {
                case = Some(args.next().expect("--case requires a name"));
            }
            other => panic!("unknown argument '{other}' (expected --scale or --case)"),
        }
    }
    assert!(scale.is_finite() && scale > 0.0, "--scale must be a positive finite number");
    (scale, case)
}

/// Formats a duration as seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count as mebibytes with one decimal.
pub fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Geometric mean of a nonempty slice of ratios.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive entry.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty slice");
    assert!(values.iter().all(|&v| v > 0.0), "geomean requires positive values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_build_connected_graphs_at_tiny_scale() {
        for case in table1_cases() {
            let g = case.graph(0.01);
            assert!(g.is_connected(), "case {}", case.name);
            assert!(g.num_nodes() >= 9);
        }
    }

    #[test]
    fn case_names_are_unique() {
        let cases = table1_cases();
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len());
        assert_eq!(cases.len(), 10, "Table 1 has ten cases");
    }

    #[test]
    fn evaluate_runs_end_to_end_on_small_case() {
        let g = table1_cases()[0].graph(0.02);
        let eval = evaluate_sparsifier(&g, Method::TraceReduction);
        assert!(eval.kappa >= 1.0);
        assert!(eval.pcg_iterations > 0);
        assert!(eval.edges >= g.num_nodes() - 1);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "--scale must be a positive finite number")]
    fn parse_args_rejects_infinite_scale() {
        parse_args(["--scale", "inf"].into_iter().map(String::from));
    }

    #[test]
    fn scaling_grows_node_count() {
        let case = &table1_cases()[0];
        let small = case.graph(0.01).num_nodes();
        let big = case.graph(0.05).num_nodes();
        assert!(big > small);
    }
}
