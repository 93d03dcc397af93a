//! The three workloads: their inputs, their timed phases and the checks
//! on every output.
//!
//! # Why these workloads
//!
//! Each workload is one of the paper's tables, run end to end on a
//! synthetic analog of one of its matrices.
//!
//! - `table1-grid2d` — `grid2d-log` (tmt_sym analog), 335×335,
//!   n = 112,225: TraceReduction and GRASS sparsify, then the
//!   preconditioner factor, κ and PCG at 1e-3 over seeded right-hand
//!   sides. Sparsify dominates and the factors are thin, so criticality
//!   scoring (two thirds of T_s in the subgraph phase) shows here and in
//!   no direct or contingency metric.
//! - `table2-pg` — `pg-e` (thupg1t analog), mesh 176, n = 30,976:
//!   sparsify under the pad shift, the variable-step PCG transient, the
//!   fixed 10 ps direct transient and a seeded N-1 contingency sweep.
//!   Triangular solves and SpMV dominate the transient; every full-grid
//!   factor pays greedy min-degree ordering; the sweep writes to a
//!   factor (rank-1 update and downdate) as well as reading it.
//! - `table3-grid3d` — `grid3d-log` (thermal2 analog), 28×28×28,
//!   n = 21,952: sparsify under the partition shift, then spectral
//!   bisection by PCG and by a direct solver. The 3-D full factor is
//!   fat (nnz(L) in the millions), the opposite shape to table1's thin
//!   sparsifier factors.
//!
//! Every end-to-end metric is reported on every workload. Where the
//! paper's table has no such phase, the workload runs the closest real
//! one: GRASS sparsify at the same budget and shift (tables 2 and 3),
//! a direct solve of table1's right-hand sides from a nested-dissection
//! factor of `L_G` (table1), and the contingency sweep over the
//! workload's own sparsifier network, grounded by its sparsify shift
//! (tables 1 and 3) — the thin-factor counterpart of table2's
//! full-grid sweep.
//!
//! # Which layer moves which end-to-end metric
//!
//! | layer metrics | moves |
//! |---|---|
//! | `graph.mmio_read_s`, `graph.laplacian_s` | `setup_s` |
//! | `graph.tree_s`, `graph.lca_s`, `graph.subgraph_s` | `sparsify_s` |
//! | `core.tree_score_s`, `core.subgraph_score_s`, `core.scored`, `core.recovered_per_scored`, `core.excluded_skips` | `sparsify_s` only |
//! | `sparse.order_s`, `sparse.symbolic_s`, `sparse.numeric_s`, `sparse.factor_nnz` | `sparsify_s`, `solve_s`, `factor_mib` |
//! | `sparse.spai_s`, `sparse.spai_nnz` | `sparsify_s` |
//! | `sparse.direct_order_s`, `sparse.direct_order_kept`, `sparse.direct_numeric_s`, `sparse.direct_nnz` | `direct_s`, `solve_s` (table2's DC point), `contingency_s`, `direct_mib` |
//! | `sparse.trisolve_us`, `sparse.trisolve_calls`, `sparse.spmv_us` | `solve_s` |
//! | `sparse.direct_trisolve_us` | `direct_s` |
//! | `sparse.update_us`, `sparse.update_fallbacks` | `contingency_s` |
//! | `solver.pcg_s` | `solve_s` |
//! | `powergrid.dc_s`, `powergrid.stepping_s`, `powergrid.steps`, `powergrid.assemble_us` | `solve_s` (table2) |
//! | `powergrid.contingency_base_s`, `powergrid.contingency_sweep_s` | `contingency_s` |
//! | `partition.inverse_power_s`, `partition.inner_iters` | `solve_s` (table3) |

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::calls::{
    self, Bisection, CholPreconditioner, ContingencySweep, CscMatrix, CurrentSource, Graph, Method,
    Ordering, Outage, PcgSolution, PowerGrid, ShiftPolicy, Sparsifier, TransientResult,
};

/// PCG tolerance of table1's solves and table3's inverse-power steps.
pub const PCG_TOL: f64 = 1e-3;
/// PCG tolerance of the power-grid transient steps (paper: 1e-6).
pub const TRANSIENT_TOL: f64 = 1e-6;
/// Inverse-power steps of both bisection paths (paper Table 3).
pub const BISECT_STEPS: usize = 5;
/// The paper's waveform check: PCG probes within 16 mV of direct.
const PROBE_LIMIT_V: f64 = 0.016;
/// Largest fraction of nodes the PCG and direct partitions may place on
/// different sides: 22 of table3's 21,952 nodes. The two partitions of
/// the case agree on every node at one thread.
const PARTITION_DISAGREEMENT_MAX: f64 = 1e-3;
/// Relative residual a direct solve must reach.
const DIRECT_RESIDUAL_MAX: f64 = 1e-8;
/// Generator seeds of the three cases, as the paper-table binaries
/// define them (`grid2d-log`, `pg-e`, `grid3d-log`). The matrices stay
/// fixed, like the paper's; the workload seed drives the workflow's own
/// random inputs: right-hand sides, outage lists and start vectors.
const CASE_SEEDS: [u64; 3] = [14, 35, 12];
/// Samples of the set-up phase per repetition.
pub const SETUPS_PER_REP: usize = 3;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Table 1 on `grid2d-log`.
    Table1,
    /// Paper Table 2 on `pg-e`.
    Table2,
    /// Paper Table 3 on `grid3d-log`.
    Table3,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Table2, Workload::Table3];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1-grid2d",
            Workload::Table2 => "table2-pg",
            Workload::Table3 => "table3-grid3d",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes; [`FULL`] is the benchmark, [`SMOKE`] the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Side of table1's 2-D grid.
    pub grid2d_side: usize,
    /// Side of table2's power-grid mesh.
    pub pg_mesh: usize,
    /// Side of table3's 3-D grid.
    pub grid3d_side: usize,
    /// Right-hand sides of table1's PCG and direct solves.
    pub rhs_count: usize,
    /// Outages of every contingency sweep.
    pub outages: usize,
}

/// The benchmark's sizes.
pub const FULL: Sizes =
    Sizes { grid2d_side: 335, pg_mesh: 176, grid3d_side: 28, rhs_count: 8, outages: 256 };

/// Self-test sizes: every phase and check, in seconds.
#[cfg(test)]
pub const SMOKE: Sizes =
    Sizes { grid2d_side: 40, pg_mesh: 24, grid3d_side: 8, rhs_count: 3, outages: 16 };

/// The generated inputs of one run. Made before any timer starts.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The Matrix Market file the program reads.
    pub mtx: PathBuf,
    /// The input graph as generated (canonical edge order).
    pub graph: Graph,
    /// Table2: node capacitances, passed in memory.
    pub capacitance: Vec<f64>,
    /// Table2: switching current sources, passed in memory.
    pub sources: Vec<CurrentSource>,
    /// Table2: supply voltage.
    pub vdd: f64,
    /// Table2: probe nodes. Tables 1 and 3: chosen with the network.
    pub probes: Vec<usize>,
    /// Table1: the right-hand sides.
    pub rhs: Vec<Vec<f64>>,
    /// Table2: the outage list. Tables 1 and 3: chosen with the network.
    pub outages: Vec<Outage>,
    /// Sizes the inputs were made at.
    pub sizes: Sizes,
}

/// SplitMix64: the benchmark's own seeded stream for right-hand sides
/// and outage lists.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded mixed outage list over `edges` (candidate edge ids of
/// `g`): line outages, reweights up and down, and load steps.
fn outage_list(
    g: &Graph,
    edges: &[usize],
    count: usize,
    load: f64,
    rng: &mut SplitMix,
) -> Vec<Outage> {
    (0..count)
        .map(|i| {
            let edge = edges[rng.below(edges.len())];
            let w = g.edge(edge).weight;
            match i % 4 {
                0 => Outage::LineOutage { edge },
                1 => Outage::Reweight { edge, new_weight: 2.0 * w },
                2 => Outage::Reweight { edge, new_weight: 0.5 * w },
                _ => Outage::LoadStep { node: rng.below(g.num_nodes()), extra_current: load },
            }
        })
        .collect()
}

/// Generates the inputs of `workload` for `seed` and writes the Matrix
/// Market file into `dir`.
pub fn prepare(workload: Workload, seed: u64, sizes: Sizes, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut rhs = Vec::new();
    let mut grid = None;
    let (graph, slack) = match workload {
        Workload::Table1 => {
            let side = sizes.grid2d_side;
            let g = calls::canonical_graph(&calls::grid2d_log(side, side, CASE_SEEDS[0]))?;
            let n = g.num_nodes();
            let mut rng = SplitMix::new(seed, 1);
            rhs =
                (0..sizes.rhs_count).map(|_| (0..n).map(|_| rng.unit() - 0.5).collect()).collect();
            (g, vec![0.0; n])
        }
        Workload::Table2 => {
            let pg = calls::synth_power_grid(sizes.pg_mesh, CASE_SEEDS[1]);
            let pads = pg.pad_conductance().to_vec();
            let g = calls::canonical_graph(pg.graph())?;
            grid = Some(pg);
            (g, pads)
        }
        Workload::Table3 => {
            let g = calls::canonical_graph(&calls::grid3d_log(sizes.grid3d_side, CASE_SEEDS[2]))?;
            let n = g.num_nodes();
            (g, vec![0.0; n])
        }
    };
    let mtx = dir.join(format!("{}-{seed}-{}.mtx", workload.name(), std::process::id()));
    calls::write_matrix_market(&mtx, &graph, &slack)?;
    let mut inputs = Inputs {
        workload,
        seed,
        mtx,
        graph,
        capacitance: Vec::new(),
        sources: Vec::new(),
        vdd: 0.0,
        probes: Vec::new(),
        rhs,
        outages: Vec::new(),
        sizes,
    };
    if let Some(synth) = grid {
        inputs.capacitance = synth.capacitance().to_vec();
        inputs.sources = synth.sources().to_vec();
        inputs.vdd = synth.vdd();
        // Probes and outages refer to the grid the program reads back,
        // whose pads must sit exactly where the synthesized ones do.
        let (sys, _, _) = setup(&inputs)?;
        let pg = sys.grid.as_ref().expect("table2 builds a power grid");
        let pads_moved = pg
            .pad_conductance()
            .iter()
            .zip(synth.pad_conductance())
            .any(|(&read, &made)| (read > 0.0) != (made > 0.0));
        if pads_moved {
            return Err("pads read back from the Matrix Market file moved".into());
        }
        let (near, far) = calls::probe_pair(pg);
        inputs.probes = vec![near, far];
        let all: Vec<usize> = (0..pg.graph().num_edges()).collect();
        let mut rng = SplitMix::new(seed, 2);
        inputs.outages = outage_list(pg.graph(), &all, sizes.outages, 2e-3, &mut rng);
    }
    Ok(inputs)
}

/// The system one set-up produces.
pub struct System {
    /// Tables 1 and 3: the input graph as read.
    plain: Option<Graph>,
    /// Table2: the power grid, built on the input graph as read.
    pub grid: Option<PowerGrid>,
    /// The system matrix: shifted `L_G`, or the grid's `G`.
    pub matrix: Arc<CscMatrix>,
    /// The shift sparsify runs under.
    pub shift: ShiftPolicy,
}

impl System {
    /// The input graph as read.
    pub fn graph(&self) -> &Graph {
        match (&self.grid, &self.plain) {
            (Some(pg), _) => pg.graph(),
            (None, Some(g)) => g,
            (None, None) => unreachable!("a system holds a graph or a grid"),
        }
    }
}

/// One set-up: reads the Matrix Market input, then assembles the system
/// matrix. Returns the system and the seconds spent reading and
/// assembling.
pub fn setup(inputs: &Inputs) -> Result<(System, f64, f64), String> {
    let t = Instant::now();
    let (g, slack) = calls::read_matrix_market(&inputs.mtx)?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sys = match inputs.workload {
        Workload::Table1 => {
            let shift = calls::default_shift();
            let shifts = calls::shifts(&shift, &g)?;
            let matrix = Arc::new(calls::laplacian(&g, &shifts));
            System { plain: Some(g), grid: None, matrix, shift }
        }
        Workload::Table2 => {
            let pg = calls::power_grid(
                g,
                slack,
                inputs.capacitance.clone(),
                inputs.sources.clone(),
                inputs.vdd,
            );
            let shift = ShiftPolicy::PerNode(pg.pad_conductance().to_vec());
            let matrix = calls::conductance(&pg);
            System { plain: None, grid: Some(pg), matrix, shift }
        }
        Workload::Table3 => {
            let s = calls::partition_shift(&g);
            let matrix = Arc::new(calls::laplacian(&g, &vec![s; g.num_nodes()]));
            System { plain: Some(g), grid: None, matrix, shift: ShiftPolicy::Uniform(s) }
        }
    };
    Ok((sys, read_s, t.elapsed().as_secs_f64()))
}

/// Wall seconds of every timed call of one repetition, by phase.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Set-ups: read the Matrix Market input, assemble the system.
    pub setup: Vec<f64>,
    /// TraceReduction sparsify calls.
    pub sparsify: Vec<f64>,
    /// GRASS sparsify calls at the same budget.
    pub grass: Vec<f64>,
    /// Iterative solve phases.
    pub solve: Vec<f64>,
    /// Direct baseline phases.
    pub direct: Vec<f64>,
    /// Contingency sweeps.
    pub contingency: Vec<f64>,
}

impl Phases {
    /// The sum over phases, set-up excluded, of each phase's median call.
    pub fn median_sum(&self) -> f64 {
        [&self.sparsify, &self.grass, &self.solve, &self.direct, &self.contingency]
            .iter()
            .map(|v| crate::replay::median(v))
            .sum()
    }
}

/// Calls per repetition of the phases short or noisy enough to need
/// more samples: `(grass, solve, contingency)`. Each call takes about
/// 0.25 s or more; every other phase runs once per repetition.
fn repeats(workload: Workload) -> (usize, usize, usize) {
    match workload {
        Workload::Table1 => (1, 2, 1),
        Workload::Table2 => (3, 1, 1),
        Workload::Table3 => (3, 3, 2),
    }
}

/// The network a contingency sweep screens, with its outages.
pub struct Network {
    /// The grounded network.
    pub grid: PowerGrid,
    /// The seeded outage list.
    pub outages: Vec<Outage>,
    /// Probe nodes reported per outage.
    pub probes: Vec<usize>,
}

/// Everything one repetition produced.
pub struct Rep {
    /// Phase times.
    pub times: Phases,
    /// The last set-up's system.
    pub sys: System,
    /// The TraceReduction sparsifier.
    pub tr: Sparsifier,
    /// The GRASS sparsifiers, one per call.
    pub grass: Vec<Sparsifier>,
    /// The sparsifier preconditioner.
    pub pre: CholPreconditioner,
    /// Table1: the PCG solutions, one set per solve call.
    pub solutions: Vec<Vec<PcgSolution>>,
    /// Table1: the direct solutions.
    pub direct_solutions: Vec<Vec<f64>>,
    /// Table1: the direct factor's (nnz, bytes).
    pub direct_factor: (usize, usize),
    /// Table2: the PCG transient.
    pub pcg_run: Option<TransientResult>,
    /// Table2: the direct transient.
    pub direct_run: Option<TransientResult>,
    /// Table3: the PCG bisections and their seconds, one per call.
    pub bisect_pcg: Vec<(Bisection, f64)>,
    /// Table3: the direct bisection.
    pub bisect_direct: Option<Bisection>,
    /// The contingency sweeps, one per call.
    pub sweeps: Vec<ContingencySweep>,
}

/// Runs `f` and returns its result and wall seconds, inside a benchmark
/// span named `span`.
pub fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = calls::span(span);
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// The sparsifier network of tables 1 and 3: the TraceReduction
/// sparsifier, grounded by its construction shift, with seeded
/// outages over its recovered edges and load steps.
pub fn sparsifier_network(
    inputs: &Inputs,
    sys: &System,
    tr: &Sparsifier,
) -> Result<Network, String> {
    let g = calls::sparsifier_graph(tr, sys.graph());
    let n = g.num_nodes();
    let mean_shift = tr.shifts().iter().sum::<f64>() / n as f64;
    let recovered: Vec<usize> = (tr.tree_edge_count()..g.num_edges()).collect();
    if recovered.is_empty() {
        return Err("sparsifier recovered no edges to screen".into());
    }
    let mut rng = SplitMix::new(inputs.seed, 3);
    let outages = outage_list(&g, &recovered, inputs.sizes.outages, mean_shift, &mut rng);
    let probes = vec![0, n - 1];
    let grid = calls::power_grid(g, tr.shifts().to_vec(), vec![0.0; n], Vec::new(), 1.0);
    Ok(Network { grid, outages, probes })
}

/// One repetition of `inputs.workload`: [`SETUPS_PER_REP`] set-ups,
/// then every phase, each call inside its own timer. `net` is the
/// screened sparsifier network of tables 1 and 3, built on first use.
pub fn run_rep(inputs: &Inputs, net: &mut Option<Network>) -> Result<Rep, String> {
    let (grass_calls, solve_calls, contingency_calls) = repeats(inputs.workload);
    let mut times = Phases::default();
    let mut sys = None;
    for _ in 0..SETUPS_PER_REP {
        let (s, read, assemble) = {
            let _span = calls::span("bench.setup");
            setup(inputs)?
        };
        times.setup.push(read + assemble);
        sys = Some(s);
    }
    let sys = sys.expect("at least one set-up ran");
    let g = sys.graph();
    let tr_cfg = calls::sparsify_config(Method::TraceReduction, &sys.shift);
    let grass_cfg = calls::sparsify_config(Method::Grass, &sys.shift);
    let (tr, t) = timed("bench.sparsify", || calls::sparsify(g, &tr_cfg));
    let tr = tr?;
    times.sparsify.push(t);
    let mut grass = Vec::with_capacity(grass_calls);
    for _ in 0..grass_calls {
        let (sp, t) = timed("bench.grass", || calls::sparsify(g, &grass_cfg));
        grass.push(sp?);
        times.grass.push(t);
    }

    let mut pre = None;
    let mut solutions = Vec::new();
    let mut direct_solutions = Vec::new();
    let mut direct_factor = (0, 0);
    let mut pcg_run = None;
    let mut direct_run = None;
    let mut bisect_pcg = Vec::with_capacity(solve_calls);
    let mut bisect_direct = None;
    match inputs.workload {
        Workload::Table1 => {
            let lg = &*sys.matrix;
            for _ in 0..solve_calls {
                let (out, t) = timed("bench.solve", || -> Result<_, String> {
                    let p = calls::chol_preconditioner(&calls::sparsifier_laplacian(&tr, g))?;
                    let sols: Vec<PcgSolution> = inputs
                        .rhs
                        .iter()
                        .map(|b| {
                            let _span = calls::span("bench.pcg");
                            calls::pcg(lg, b, &p, PCG_TOL)
                        })
                        .collect();
                    Ok((p, sols))
                });
                let (p, sols) = out?;
                times.solve.push(t);
                solutions.push(sols);
                pre = Some(p);
            }
            let (out, t) = timed("bench.direct", || -> Result<_, String> {
                let ds = calls::direct_solver_with(lg, Ordering::NestedDissection)?;
                let xs: Vec<Vec<f64>> =
                    inputs.rhs.iter().map(|b| calls::direct_solve(&ds, b)).collect();
                Ok((xs, ds.factor_nnz(), ds.memory_bytes()))
            });
            let (xs, nnz, bytes) = out?;
            times.direct.push(t);
            direct_solutions = xs;
            direct_factor = (nnz, bytes);
        }
        Workload::Table2 => {
            let pg = sys.grid.as_ref().expect("table2 builds a power grid");
            let p = calls::chol_preconditioner(&calls::sparsifier_laplacian(&tr, g))?;
            let (run, t) = timed("bench.solve", || calls::simulate_pcg(pg, &p, &inputs.probes));
            pcg_run = Some(run?);
            times.solve.push(t);
            pre = Some(p);
            let (run, t) = timed("bench.direct", || calls::simulate_direct(pg, &inputs.probes));
            direct_run = Some(run?);
            times.direct.push(t);
        }
        Workload::Table3 => {
            for _ in 0..solve_calls {
                let (out, t) = timed("bench.solve", || -> Result<_, String> {
                    let p = calls::chol_preconditioner(&calls::sparsifier_laplacian(&tr, g))?;
                    let (bis, t) = timed("bench.bisect_pcg", || {
                        calls::bisect_pcg(g, &p, BISECT_STEPS, inputs.seed, PCG_TOL)
                    });
                    Ok((p, bis?, t))
                });
                let (p, bis, bis_s) = out?;
                times.solve.push(t);
                bisect_pcg.push((bis, bis_s));
                pre = Some(p);
            }
            let (bis, t) =
                timed("bench.direct", || calls::bisect_direct(g, BISECT_STEPS, inputs.seed));
            bisect_direct = Some(bis?);
            times.direct.push(t);
        }
    }

    if inputs.workload != Workload::Table2 && net.is_none() {
        *net = Some(sparsifier_network(inputs, &sys, &tr)?);
    }
    let (grid, outages, probes) = match (&sys.grid, net.as_ref()) {
        (Some(pg), _) => (pg, &inputs.outages, &inputs.probes),
        (None, Some(net)) => (&net.grid, &net.outages, &net.probes),
        (None, None) => unreachable!("tables 1 and 3 built their network above"),
    };
    let mut sweeps = Vec::with_capacity(contingency_calls);
    for _ in 0..contingency_calls {
        let (sweep, t) =
            timed("bench.contingency", || calls::contingency_sweep(grid, outages, probes));
        sweeps.push(sweep?);
        times.contingency.push(t);
    }
    Ok(Rep {
        times,
        sys,
        tr,
        grass,
        pre: pre.expect("every workload builds a preconditioner"),
        solutions,
        direct_solutions,
        direct_factor,
        pcg_run,
        direct_run,
        bisect_pcg,
        bisect_direct,
        sweeps,
    })
}

/// Problems with a sparsifier: it must hold exactly the spanning tree
/// plus the recovery budget, without repeats.
fn check_sparsifier(g: &Graph, sp: &Sparsifier) -> Vec<String> {
    let mut problems = Vec::new();
    let (n, m) = (g.num_nodes(), g.num_edges());
    let budget = ((0.10 * n as f64).round() as usize).min(m - (n - 1));
    if sp.tree_edge_count() != n - 1 {
        problems.push(format!("{} tree edges, expected {}", sp.tree_edge_count(), n - 1));
    }
    if sp.report().budget != budget || sp.num_recovered() != budget {
        problems.push(format!(
            "recovered {} edges under budget {}, expected {budget}",
            sp.num_recovered(),
            sp.report().budget
        ));
    }
    let distinct: HashSet<usize> = sp.edge_ids().iter().copied().collect();
    if distinct.len() != sp.edge_ids().len() || sp.edge_ids().iter().any(|&id| id >= m) {
        problems.push("edge ids repeat or fall outside the graph".into());
    }
    problems
}

/// Whether a checked figure is at most its limit; `false` for NaN.
fn within(value: f64, limit: f64) -> bool {
    value <= limit
}

/// `‖b − A x‖₂ / ‖b‖₂`.
pub fn rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    calls::matvec(a, x, &mut ax);
    let r: f64 = ax.iter().zip(b).map(|(p, q)| (q - p) * (q - p)).sum::<f64>().sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    r / bn
}

/// Problems with a contingency sweep: every outage must complete within
/// the residual gate.
fn check_sweep(sweep: &ContingencySweep) -> Vec<String> {
    let failed = sweep.outcomes.iter().filter(|o| !o.is_completed()).count();
    if failed == 0 {
        Vec::new()
    } else {
        vec![format!("{failed} of {} outages failed", sweep.outcomes.len())]
    }
}

/// Checks every output of a repetition and books each phase call as one
/// operation (a failed check fails its operation).
pub fn check_rep(inputs: &Inputs, rep: &Rep, ledger: &mut crate::Ledger) {
    let g = rep.sys.graph();
    let same = *g == inputs.graph;
    ledger.op("setup", if same { vec![] } else { vec!["graph read back differs".into()] });
    ledger.op("sparsify", check_sparsifier(g, &rep.tr));
    for grass in &rep.grass {
        ledger.op("grass", check_sparsifier(g, grass));
    }
    let mut solve = Vec::new();
    let mut direct = Vec::new();
    match inputs.workload {
        Workload::Table1 => {
            for (b, sol) in inputs.rhs.iter().cycle().zip(rep.solutions.iter().flatten()) {
                let rel = rel_residual(&rep.sys.matrix, &sol.x, b);
                if !sol.converged || !within(rel, PCG_TOL) {
                    solve.push(format!("PCG converged={} true residual {rel:.3e}", sol.converged));
                }
            }
            for (b, x) in inputs.rhs.iter().zip(&rep.direct_solutions) {
                let rel = rel_residual(&rep.sys.matrix, x, b);
                if !within(rel, DIRECT_RESIDUAL_MAX) {
                    direct.push(format!("direct residual {rel:.3e}"));
                }
            }
        }
        Workload::Table2 => {
            let (pcg_run, direct_run) = (
                rep.pcg_run.as_ref().expect("table2 runs PCG"),
                rep.direct_run.as_ref().expect("table2 runs direct"),
            );
            for idx in 0..inputs.probes.len() {
                let d = calls::probe_difference(direct_run, pcg_run, idx);
                if !within(d, PROBE_LIMIT_V) {
                    solve.push(format!("probe {idx} deviates {:.1} mV from direct", d * 1e3));
                }
            }
        }
        Workload::Table3 => {
            let direct_bis = rep.bisect_direct.as_ref().expect("table3 bisects directly");
            for (pcg_bis, _) in &rep.bisect_pcg {
                let err = calls::partition_disagreement(&direct_bis.side, &pcg_bis.side);
                if !within(err, PARTITION_DISAGREEMENT_MAX) {
                    solve.push(format!("partitions disagree on {err:.2e} of nodes"));
                }
            }
        }
    }
    ledger.op("solve", solve);
    ledger.op("direct", direct);
    for sweep in &rep.sweeps {
        ledger.op("contingency", check_sweep(sweep));
    }
}

/// Deterministic quality figures and fingerprints of a run.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// κ(L_G, L_P).
    pub kappa: f64,
    /// Mean PCG iterations per solve.
    pub pcg_iters: f64,
    /// Bytes of the sparsifier preconditioner's factor.
    pub factor_bytes: usize,
    /// Bytes of the direct solver's factor.
    pub direct_bytes: usize,
    /// FNV-1a digest of the TraceReduction edge ids, in order.
    pub edge_digest: u64,
    /// nnz(L) of the preconditioner factor.
    pub factor_nnz: usize,
    /// nnz(L) of the direct factor.
    pub direct_nnz: usize,
    /// Total PCG iterations of the solve phase.
    pub pcg_total: usize,
    /// Transient steps (table2's PCG engine; 0 elsewhere).
    pub steps: usize,
}

/// 64-bit FNV-1a over a list of ids.
pub fn digest(ids: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &id in ids {
        for byte in (id as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Quality figures of a repetition, with the one-off checks that need
/// extra solves: the per-step PCG convergence of the transient (table2)
/// and of the inverse-power steps (table3). These run outside every
/// timer, once per run.
pub fn quality(inputs: &Inputs, rep: &Rep, ledger: &mut crate::Ledger) -> Result<Quality, String> {
    let g = rep.sys.graph();
    let factor = rep.pre.factor();
    let mut q = Quality {
        kappa: calls::kappa(&rep.sys.matrix, factor),
        factor_bytes: factor.memory_bytes(),
        factor_nnz: factor.nnz(),
        edge_digest: digest(rep.tr.edge_ids()),
        ..Default::default()
    };
    match inputs.workload {
        Workload::Table1 => {
            let sols = rep.solutions.last().expect("table1 solves");
            q.pcg_total = sols.iter().map(|s| s.iterations).sum();
            q.pcg_iters = q.pcg_total as f64 / sols.len() as f64;
            (q.direct_nnz, q.direct_bytes) = rep.direct_factor;
        }
        Workload::Table2 => {
            let pg = rep.sys.grid.as_ref().expect("table2 builds a power grid");
            let run = rep.pcg_run.as_ref().expect("table2 runs PCG");
            let direct_run = rep.direct_run.as_ref().expect("table2 runs direct");
            q.pcg_total = run.stats.total_pcg_iterations;
            q.pcg_iters = run.stats.avg_pcg_iterations;
            q.steps = run.stats.steps;
            let h = calls::transient_direct_config().fixed_step.expect("fixed step");
            let ds = calls::direct_solver(&calls::transient_matrix(pg, h))?;
            q.direct_nnz = ds.factor_nnz();
            q.direct_bytes = direct_run.stats.memory_bytes;
            let mut problems = Vec::new();
            if ds.memory_bytes() != q.direct_bytes {
                problems.push("direct factor size differs from the transient's".to_string());
            }
            let steps = crate::replay::transient_steps(pg, &rep.pre)?;
            let worst = steps.iter().map(|s| s.rel_residual).fold(0.0, f64::max);
            if steps.iter().any(|s| !s.converged) || !within(worst, TRANSIENT_TOL) {
                problems.push(format!("a transient PCG step missed 1e-6 (worst {worst:.3e})"));
            }
            let iters: usize = steps.iter().map(|s| s.iterations).sum();
            if steps.len() != q.steps || iters != q.pcg_total {
                problems.push(format!(
                    "step replay: {} steps / {iters} iterations vs {} / {}",
                    steps.len(),
                    q.steps,
                    q.pcg_total
                ));
            }
            ledger.op("transient step check", problems);
        }
        Workload::Table3 => {
            let (bis, _) = rep.bisect_pcg.last().expect("table3 bisects by PCG");
            q.pcg_total = bis.inner_iterations;
            q.pcg_iters = q.pcg_total as f64 / BISECT_STEPS as f64;
            let ds = calls::direct_solver(&rep.sys.matrix)?;
            q.direct_nnz = ds.factor_nnz();
            q.direct_bytes = ds.memory_bytes();
            let steps = crate::replay::inverse_power_steps(inputs, g, &rep.sys.matrix, &rep.pre);
            let worst = steps.iter().map(|s| s.rel_residual).fold(0.0, f64::max);
            let iters: usize = steps.iter().map(|s| s.iterations).sum();
            let mut problems = Vec::new();
            if steps.iter().any(|s| !s.converged) || !within(worst, PCG_TOL) {
                problems.push(format!("an inverse-power PCG step missed 1e-3 (worst {worst:.3e})"));
            }
            if iters != q.pcg_total {
                problems.push(format!("step replay: {iters} iterations vs {}", q.pcg_total));
            }
            ledger.op("inverse-power step check", problems);
        }
    }
    Ok(q)
}
