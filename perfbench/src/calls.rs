//! Every call the benchmark makes into the `tracered` crates.
//!
//! The workloads and the layer replay reach the program only through
//! this module, so a renamed or re-shaped entry point — the factor
//! constructors in particular — is fixed here and nowhere else. Every
//! `threads` and `factor_threads` knob passed below is 1.

use std::path::Path;
use std::sync::Arc;

pub use tracered_core::{Method, Sparsifier, SparsifyConfig};
pub use tracered_graph::laplacian::ShiftPolicy;
pub use tracered_graph::{Graph, RootedTree};
pub use tracered_partition::Bisection;
pub use tracered_powergrid::transient::{TransientConfig, TransientResult};
pub use tracered_powergrid::{ContingencySweep, CurrentSource, Outage, PowerGrid};
pub use tracered_solver::pcg::PcgSolution;
pub use tracered_solver::precond::CholPreconditioner;
pub use tracered_solver::DirectSolver;
pub use tracered_sparse::order::Ordering;
pub use tracered_sparse::{ApproxInverse, CholeskyFactor, CscMatrix, KernelVariant, Permutation};

use tracered_graph::gen::WeightProfile;

/// Seed of the generalized power iteration behind κ.
const KAPPA_SEED: u64 = 2024;
/// Generalized power iterations behind κ.
const KAPPA_ITERS: usize = 60;

// ---------------------------------------------------------------- process

/// Pins the global worker pool to one thread. Must run before anything
/// touches the pool: its size is read once, on first use.
pub fn pin_pool_to_one_thread() {
    std::env::set_var(tracered_par::THREADS_ENV, "1");
}

/// The resolved size of the global worker pool.
pub fn pool_size() -> usize {
    tracered_par::global_pool_size()
}

/// Turns the program's span recorder on or off.
pub fn set_tracing(on: bool) {
    tracered_obs::set_enabled(on);
}

/// Opens a benchmark span around a call into a layer (a no-op while
/// tracing is off). The span closes when the guard drops.
pub fn span(name: &'static str) -> Option<tracered_obs::SpanGuard> {
    tracered_obs::enabled().then(|| tracered_obs::SpanGuard::enter(name))
}

/// The recorded span tree as JSON.
pub fn span_tree_json() -> String {
    tracered_obs::recorder().snapshot_json()
}

// ----------------------------------------------------------------- inputs

/// The `grid2d-log` case (tmt_sym analog) at `rows × cols`.
pub fn grid2d_log(rows: usize, cols: usize, seed: u64) -> Graph {
    tracered_graph::gen::grid2d(rows, cols, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, seed)
}

/// The `grid3d-log` case (thermal2 analog) at `k × k × k`.
pub fn grid3d_log(k: usize, seed: u64) -> Graph {
    tracered_graph::gen::grid3d(k, k, k, WeightProfile::LogUniform { lo: 0.1, hi: 10.0 }, seed)
}

/// The synthetic power grid (`pg-*` cases) on a `mesh × mesh` mesh.
pub fn synth_power_grid(mesh: usize, seed: u64) -> PowerGrid {
    use tracered_powergrid::synth::{synthesize, SynthConfig};
    synthesize(&SynthConfig { mesh, seed, ..Default::default() })
}

/// `g` with its edges in the order the Matrix Market reader produces
/// (sorted by endpoint pair), so edge ids and weighted-degree sums
/// survive a write/read round trip unchanged.
pub fn canonical_graph(g: &Graph) -> Result<Graph, String> {
    let mut edges: Vec<(usize, usize, f64)> =
        g.edges().iter().map(|e| (e.u.min(e.v), e.u.max(e.v), e.weight)).collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    Graph::from_edges(g.num_nodes(), &edges).map_err(|e| e.to_string())
}

/// Writes `L_G + diag(slack)` as a Matrix Market file.
pub fn write_matrix_market(path: &Path, g: &Graph, slack: &[f64]) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    tracered_graph::mmio::write_laplacian(&mut w, g, slack).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut w).map_err(|e| e.to_string())
}

/// Reads a Matrix Market file as a graph plus its diagonal slack.
pub fn read_matrix_market(path: &Path) -> Result<(Graph, Vec<f64>), String> {
    let mm = tracered_graph::mmio::read_graph_path(path).map_err(|e| e.to_string())?;
    Ok((mm.graph, mm.diag_slack))
}

/// The shifted Laplacian `L_G + diag(shifts)`.
pub fn laplacian(g: &Graph, shifts: &[f64]) -> CscMatrix {
    tracered_graph::laplacian::laplacian_with_shifts(g, shifts)
}

/// Materializes a shift policy for `g`.
pub fn shifts(policy: &ShiftPolicy, g: &Graph) -> Result<Vec<f64>, String> {
    policy.shifts(g).map_err(|e| e.to_string())
}

/// Assembles a power grid and its conductance matrix `G`.
pub fn power_grid(
    g: Graph,
    pads: Vec<f64>,
    capacitance: Vec<f64>,
    sources: Vec<CurrentSource>,
    vdd: f64,
) -> PowerGrid {
    let pg = PowerGrid::new(g, pads, capacitance, sources, vdd);
    pg.conductance_shared();
    pg
}

/// The power grid's memoized conductance matrix `G`.
pub fn conductance(pg: &PowerGrid) -> Arc<CscMatrix> {
    pg.conductance_shared()
}

/// The near-pad and far-from-pad probe nodes the paper's check compares.
pub fn probe_pair(pg: &PowerGrid) -> (usize, usize) {
    tracered_powergrid::transient::probe_pair(pg)
}

// ------------------------------------------------------------------- core

/// The paper-default configuration of `method` under `shift`, serial.
pub fn sparsify_config(method: Method, shift: &ShiftPolicy) -> SparsifyConfig {
    SparsifyConfig::new(method).shift(shift.clone()).threads(Some(1)).factor_threads(Some(1))
}

/// The sparsify shift every workload without physical grounding uses.
pub fn default_shift() -> ShiftPolicy {
    SparsifyConfig::new(Method::TraceReduction).shift_value().clone()
}

/// One `tracered_core::sparsify` call.
pub fn sparsify(g: &Graph, cfg: &SparsifyConfig) -> Result<Sparsifier, String> {
    tracered_core::sparsify(g, cfg).map_err(|e| e.to_string())
}

/// κ(L_G, L_P) from [`KAPPA_ITERS`] generalized power iterations.
pub fn kappa(lg: &CscMatrix, lp_factor: &CholeskyFactor) -> f64 {
    tracered_core::metrics::relative_condition_number(lg, lp_factor, KAPPA_ITERS, KAPPA_SEED)
}

/// Tree-phase criticality scores (paper Eqs. 13–15).
pub fn tree_phase_scores(
    g: &Graph,
    tree: &RootedTree,
    candidates: &[usize],
    resistances: &[f64],
    beta: usize,
) -> Vec<f64> {
    tracered_core::criticality::tree_phase_scores_threads(g, tree, candidates, resistances, beta, 1)
}

/// Subgraph-phase criticality scores (paper Eq. 20).
pub fn subgraph_phase_scores(
    g: &Graph,
    subgraph: &Graph,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    candidates: &[usize],
    beta: usize,
) -> Vec<f64> {
    tracered_core::criticality::subgraph_phase_scores_threads(
        g, subgraph, factor, zinv, candidates, beta, 1,
    )
}

// ------------------------------------------------------------------ graph

/// Spanning-tree extraction: `(tree edges, off-tree edges)`.
pub fn spanning_tree(g: &Graph, cfg: &SparsifyConfig) -> Result<(Vec<usize>, Vec<usize>), String> {
    let st =
        tracered_graph::mst::spanning_tree(g, cfg.tree_kind_value()).map_err(|e| e.to_string())?;
    Ok((st.tree_edges, st.off_tree_edges))
}

/// Roots a spanning tree at `root`.
pub fn rooted_tree(g: &Graph, tree_edges: &[usize], root: usize) -> Result<RootedTree, String> {
    RootedTree::build(g, tree_edges, root).map_err(|e| e.to_string())
}

/// Tree resistances of node pairs by batched LCA.
pub fn tree_resistances(tree: &RootedTree, pairs: &[(usize, usize)]) -> Vec<f64> {
    tracered_graph::lca::tree_resistances_threads(tree, pairs, 1)
}

/// The shifted Laplacian of the subgraph on `edge_ids`.
pub fn subgraph_laplacian(g: &Graph, edge_ids: &[usize], shifts: &[f64]) -> CscMatrix {
    tracered_graph::laplacian::subgraph_laplacian(g, edge_ids, shifts)
}

/// The subgraph on `edge_ids` as a graph over the same nodes.
pub fn edge_subgraph(g: &Graph, edge_ids: &[usize]) -> Graph {
    g.edge_subgraph(edge_ids)
}

// ----------------------------------------------------------------- sparse

/// The orderings `DirectSolver::new` selects among, in its order.
pub const DIRECT_CANDIDATES: [Ordering; 2] = [Ordering::MinDegree, Ordering::NestedDissection];

/// A fill-reducing permutation.
pub fn order(ordering: Ordering, a: &CscMatrix) -> Result<Permutation, String> {
    ordering.compute(a).map_err(|e| e.to_string())
}

/// Symbolic analysis of `a` under `perm`: the factor's nnz(L).
pub fn symbolic_nnz(a: &CscMatrix, perm: &Permutation) -> Result<usize, String> {
    let upper = a.symmetric_perm_upper(perm).map_err(|e| e.to_string())?;
    let symbolic = tracered_sparse::chol::SymbolicCholesky::analyze(&upper);
    Ok(symbolic.map_err(|e| e.to_string())?.factor_nnz())
}

/// Symbolic plus numeric factorization under a given permutation.
pub fn factor_with_perm(
    a: &CscMatrix,
    perm: Permutation,
    kernel: KernelVariant,
) -> Result<CholeskyFactor, String> {
    CholeskyFactor::factorize_with_perm_kernel(a, perm, kernel, 1).map_err(|e| e.to_string())
}

/// Algorithm 1's sparse approximate inverse of `L`.
pub fn approx_inverse(l: &CscMatrix, threshold: f64) -> Result<ApproxInverse, String> {
    ApproxInverse::build(l, tracered_sparse::SpaiOptions::with_threshold(threshold))
        .map_err(|e| e.to_string())
}

/// One forward plus backward substitution.
pub fn factor_solve(f: &CholeskyFactor, b: &[f64], x: &mut [f64]) {
    f.solve_into(b, x);
}

/// One sparse matrix-vector product.
pub fn matvec(a: &CscMatrix, x: &[f64], y: &mut [f64]) {
    a.matvec_into(x, y);
}

/// `a + diag(shift)`, the per-step matrix assembly of the transient.
pub fn add_diagonal(a: &CscMatrix, shift: &[f64]) -> Result<CscMatrix, String> {
    a.add_diagonal(shift).map_err(|e| e.to_string())
}

/// Rank-1 update `L Lᵀ + w wᵀ`.
pub fn rank1_update(f: &mut CholeskyFactor, w: &[f64]) -> Result<(), String> {
    f.update(w).map(|_| ()).map_err(|e| e.to_string())
}

/// Rank-1 downdate `L Lᵀ − w wᵀ`.
pub fn rank1_downdate(f: &mut CholeskyFactor, w: &[f64]) -> Result<(), String> {
    f.downdate(w).map(|_| ()).map_err(|e| e.to_string())
}

// ----------------------------------------------------------------- solver

/// The sparsifier preconditioner: factor of `L_P` (min-degree ordering).
pub fn chol_preconditioner(lp: &CscMatrix) -> Result<CholPreconditioner, String> {
    CholPreconditioner::from_matrix_threads(lp, 1).map_err(|e| e.to_string())
}

/// The direct solver the paper's Tables 2–3 compare against.
pub fn direct_solver(a: &CscMatrix) -> Result<DirectSolver, String> {
    DirectSolver::new_threads(a, 1).map_err(|e| e.to_string())
}

/// A direct solver on a caller-chosen ordering.
pub fn direct_solver_with(a: &CscMatrix, ordering: Ordering) -> Result<DirectSolver, String> {
    DirectSolver::with_ordering_threads(a, ordering, 1).map_err(|e| e.to_string())
}

/// One PCG solve from a zero guess.
pub fn pcg(a: &CscMatrix, b: &[f64], pre: &CholPreconditioner, tol: f64) -> PcgSolution {
    let opts = tracered_solver::PcgOptions::with_tolerance(tol).threads(1);
    tracered_solver::pcg(a, b, pre, &opts)
}

/// One PCG solve from a warm start.
pub fn pcg_with_guess(
    a: &CscMatrix,
    b: &[f64],
    guess: &[f64],
    pre: &CholPreconditioner,
    tol: f64,
) -> PcgSolution {
    let opts = tracered_solver::PcgOptions::with_tolerance(tol).threads(1);
    tracered_solver::pcg::pcg_with_guess(a, b, Some(guess), pre, &opts)
}

/// Inverse power iteration for the Fiedler vector; `solve` answers one
/// step and returns its inner iterations.
pub fn fiedler_vector<F>(n: usize, solve: F, steps: usize, seed: u64) -> (Vec<f64>, usize)
where
    F: FnMut(&[f64]) -> (Vec<f64>, usize),
{
    let res = tracered_solver::eigen::fiedler_vector(n, solve, steps, seed);
    (res.vector, res.total_inner_iterations)
}

// -------------------------------------------------------------- powergrid

/// The variable-step PCG transient configuration (paper: tol 1e-6).
pub fn transient_pcg_config() -> TransientConfig {
    TransientConfig { fixed_step: None, threads: 1, factor_threads: 1, ..Default::default() }
}

/// The fixed 10 ps direct transient configuration.
pub fn transient_direct_config() -> TransientConfig {
    TransientConfig { fixed_step: Some(1e-11), threads: 1, factor_threads: 1, ..Default::default() }
}

/// DC operating point by a direct factor of `G`.
pub fn dc_operating_point(pg: &PowerGrid) -> Result<Vec<f64>, String> {
    tracered_powergrid::transient::dc_operating_point(pg).map_err(|e| e.to_string())
}

/// The variable-step, sparsifier-preconditioned PCG transient.
pub fn simulate_pcg(
    pg: &PowerGrid,
    pre: &CholPreconditioner,
    probes: &[usize],
) -> Result<TransientResult, String> {
    tracered_powergrid::transient::simulate_pcg(pg, &transient_pcg_config(), pre, probes)
        .map_err(|e| e.to_string())
}

/// The fixed-step direct transient.
pub fn simulate_direct(pg: &PowerGrid, probes: &[usize]) -> Result<TransientResult, String> {
    tracered_powergrid::transient::simulate_direct(pg, &transient_direct_config(), probes)
        .map_err(|e| e.to_string())
}

/// The step times of the variable-step transient.
pub fn transient_time_grid(pg: &PowerGrid) -> Vec<f64> {
    let cfg = transient_pcg_config();
    let waveforms: Vec<_> = pg.sources().iter().map(|s| s.waveform).collect();
    tracered_powergrid::waveform::merged_time_grid(&waveforms, cfg.t_end, cfg.max_step)
}

/// The backward-Euler right-hand side of one transient step.
pub fn transient_rhs(pg: &PowerGrid, t_next: f64, h: f64, v_prev: &[f64], out: &mut [f64]) {
    pg.transient_rhs(t_next, h, v_prev, out);
}

/// The N-1 contingency sweep by rank-1 factor updates.
pub fn contingency_sweep(
    pg: &PowerGrid,
    outages: &[Outage],
    probes: &[usize],
) -> Result<ContingencySweep, String> {
    let cfg = tracered_powergrid::ContingencyConfig {
        factor_threads: 1,
        solver_threads: 1,
        ..Default::default()
    };
    tracered_powergrid::simulate_contingency_batch(pg, outages, probes, &cfg, None)
        .map_err(|e| e.to_string())
}

/// The ordering the contingency sweep's base factor uses.
pub const CONTINGENCY_BASE_ORDERING: Ordering = Ordering::MinDegree;

// -------------------------------------------------------------- partition

/// The uniform shift both bisection paths use.
pub fn partition_shift(g: &Graph) -> f64 {
    tracered_partition::partition_shift(g)
}

/// Spectral bisection by sparsifier-preconditioned inverse power steps.
pub fn bisect_pcg(
    g: &Graph,
    pre: &CholPreconditioner,
    steps: usize,
    seed: u64,
    tol: f64,
) -> Result<Bisection, String> {
    tracered_partition::bisect_pcg(g, pre, steps, seed, tol).map_err(|e| e.to_string())
}

/// Spectral bisection by direct inverse power steps.
pub fn bisect_direct(g: &Graph, steps: usize, seed: u64) -> Result<Bisection, String> {
    tracered_partition::bisect_direct_threads(g, steps, seed, 1).map_err(|e| e.to_string())
}

/// Fraction of nodes two bisections disagree on (up to relabeling).
pub fn partition_disagreement(a: &[bool], b: &[bool]) -> f64 {
    tracered_partition::relative_error(a, b)
}

// ------------------------------------------------------------- accessors

/// The sparsifier Laplacian `L_P` under its construction shift.
pub fn sparsifier_laplacian(sp: &Sparsifier, g: &Graph) -> CscMatrix {
    sp.laplacian(g)
}

/// The sparsifier as a graph over `g`'s nodes (tree edges first).
pub fn sparsifier_graph(sp: &Sparsifier, g: &Graph) -> Graph {
    sp.as_graph(g)
}

/// One direct solve.
pub fn direct_solve(ds: &DirectSolver, b: &[f64]) -> Vec<f64> {
    ds.solve(b)
}

/// The backward-Euler step matrix `G + C/h`.
pub fn transient_matrix(pg: &PowerGrid, h: f64) -> CscMatrix {
    pg.transient_matrix(h)
}

/// Largest probe-voltage difference between two transients, over 500
/// samples (the paper's accuracy check).
pub fn probe_difference(a: &TransientResult, b: &TransientResult, probe: usize) -> f64 {
    a.max_probe_difference(b, probe, 500)
}

/// The grid's DC right-hand side `G_pad·VDD − I(0)`.
pub fn dc_rhs(pg: &PowerGrid) -> Vec<f64> {
    pg.dc_rhs()
}
