//! Shared harness for the table/figure reproduction binaries.
//!
//! Each paper table has a binary (`table1`, `table2`, `table3`, `fig1`,
//! `fig2`, `ablation`) that prints the same rows the paper reports, over
//! synthetic analogs of its test cases. All binaries accept
//! `--scale <f64>` (default 1.0) to grow or shrink the cases, and
//! `--case <name>` to restrict to one case.
//!
//! None of the binaries enable the resilience layer (pivot boosting,
//! robust-solve escalation) — it defaults off everywhere — so the
//! `--check` determinism gates double as its zero-overhead-when-unused
//! gate: the timed hot paths must stay bit-identical to the
//! pre-resilience code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, Sparsifier, SparsifyConfig};
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
    evaluate_with_config(g, &SparsifyConfig::new(method))
}

/// [`evaluate_sparsifier`] with a caller-supplied configuration —
/// scaling benches use this to sweep the `threads` knob.
///
/// # Panics
///
/// Panics when sparsification fails.
pub fn evaluate_with_config(g: &Graph, cfg: &SparsifyConfig) -> SparsifyEval {
    let t0 = Instant::now();
    let sp = sparsify(g, cfg).expect("bench cases are connected");
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

/// Builds a sparsifier and its Cholesky preconditioner, timed.
///
/// # Panics
///
/// Panics when sparsification fails.
pub fn build_preconditioner(
    g: &Graph,
    cfg: &SparsifyConfig,
) -> (Sparsifier, CholPreconditioner, Duration) {
    let t0 = Instant::now();
    let sp = sparsify(g, cfg).expect("bench cases are connected");
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(g))
        .expect("sparsifier Laplacian is SPD under the shared shift");
    (sp, pre, t0.elapsed())
}

/// Deterministic pseudo-random right-hand side (the paper uses random
/// RHS vectors).
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<f64>() - 0.5).collect()
}

/// One machine-readable measurement row for the `BENCH_*.json` files
/// later PRs diff against. Values are flat key → JSON scalar.
#[derive(Debug, Clone, Default)]
pub struct BenchRecord {
    fields: Vec<(String, JsonValue)>,
}

/// A JSON scalar value.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// A string field.
    Str(String),
    /// An integer field.
    Int(i64),
    /// A float field (serialized with full precision; non-finite → null).
    Num(f64),
    /// A pre-serialized JSON document embedded verbatim (used to nest an
    /// observability snapshot inside a record). The caller is
    /// responsible for its well-formedness.
    Raw(String),
}

impl BenchRecord {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), JsonValue::Str(value.into())));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i64) -> Self {
        self.fields.push((key.to_string(), JsonValue::Int(value)));
        self
    }

    /// Adds a float field.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), JsonValue::Num(value)));
        self
    }

    /// Adds a duration field, in seconds.
    pub fn secs_field(self, key: &str, d: Duration) -> Self {
        self.num(key, d.as_secs_f64())
    }

    /// Embeds an already-serialized JSON document (object or array)
    /// verbatim under `key` — the hook the scaling benches use to nest
    /// a [`tracered_obs`] snapshot inside their record. The value must
    /// be well-formed JSON; it is not escaped or validated here.
    pub fn raw_json(mut self, key: &str, json: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), JsonValue::Raw(json.into())));
        self
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&json_escape(k));
            out.push_str("\": ");
            match v {
                JsonValue::Str(s) => {
                    out.push('"');
                    out.push_str(&json_escape(s));
                    out.push('"');
                }
                JsonValue::Int(n) => out.push_str(&n.to_string()),
                JsonValue::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
                JsonValue::Num(_) => out.push_str("null"),
                JsonValue::Raw(j) => out.push_str(j),
            }
        }
        out.push('}');
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes records as a JSON array (one object per line for easy
/// diffing) and writes them to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, rec) in records.iter().enumerate() {
        out.push_str("  ");
        rec.write_json(&mut out);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// CPU parallelism the OS reports for this process, `1` when unknown —
/// recorded in every bench JSON so that single-core containers (which
/// cannot show real thread speedups) are machine-detectable when later
/// runs diff the numbers.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Resolved size of the process-global worker pool — the thread budget
/// parallel regions actually ran on (`TRACERED_THREADS` override or the
/// OS-reported parallelism). Recorded next to
/// [`available_parallelism`] in every bench JSON: the two differ
/// exactly when the environment pinned the pool, which makes BENCH
/// files self-describing on multi-core hardware.
pub fn pool_size() -> usize {
    tracered_par::global_pool_size()
}

/// Parses `--scale <f64>` and `--case <name>` from `std::env::args`.
pub fn parse_args() -> (f64, Option<String>) {
    let mut scale = 1.0;
    let mut case = None;
    let mut args = std::env::args().skip(1);
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
    assert!(scale > 0.0, "--scale must be positive");
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
    fn bench_records_serialize_to_valid_json() {
        let rec = BenchRecord::new()
            .str("bench", "tree_phase_scores")
            .str("quoted", "a\"b\\c")
            .int("threads", 4)
            .num("seconds", 0.125)
            .num("bad", f64::NAN);
        let mut s = String::new();
        rec.write_json(&mut s);
        assert_eq!(
            s,
            "{\"bench\": \"tree_phase_scores\", \"quoted\": \"a\\\"b\\\\c\", \
             \"threads\": 4, \"seconds\": 0.125, \"bad\": null}"
        );
        let path = std::env::temp_dir().join("tracered_bench_json_test.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, &[rec.clone(), rec]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.starts_with("[\n") && body.ends_with("]\n"));
        assert_eq!(body.matches("tree_phase_scores").count(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scaling_grows_node_count() {
        let case = &table1_cases()[0];
        let small = case.graph(0.01).num_nodes();
        let big = case.graph(0.05).num_nodes();
        assert!(big > small);
    }
}
