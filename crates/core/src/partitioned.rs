//! Partition-parallel sparsification: k-way domain decomposition with
//! concurrent per-partition densification.
//!
//! [`sparsify`] iterates score → recover → refactor on one global
//! subgraph, so on large meshes the serial subgraph factorization
//! dominates wall time even with the parallel scoring engine. This module
//! breaks that bottleneck by decomposing the problem:
//!
//! 1. k-way partition the graph by recursive spectral bisection
//!    ([`tracered_partition::recursive_bisection`]);
//! 2. extract each part's induced subgraph with local↔global index maps
//!    ([`tracered_partition::KWayPartition::extract_subgraphs`]);
//! 3. run the **full densification loop** — spanning tree, criticality
//!    scoring, recovery, local Cholesky refactorization — on every
//!    partition concurrently ([`tracered_par::par_jobs`]), each under the
//!    global shift vector restricted to its nodes; with
//!    [`SparsifyConfig::factor_threads`] > 1 the local factorizations
//!    additionally split their elimination trees across pool workers
//!    *inside* each partition job (nested parallel regions);
//! 4. stitch the per-partition sparsifiers back together: partition
//!    spanning forests are joined into one global spanning tree by
//!    maximum-weight boundary connectors, and the remaining boundary
//!    edges are handled by a [`BoundaryPolicy`] — kept wholesale, or
//!    criticality-scored against the stitched tree with the same
//!    β-truncated trace-reduction metric the main driver uses.
//!
//! Results are deterministic for a fixed seed at every thread count: the
//! per-partition runs are independent jobs with disjoint outputs, and
//! every scoring kernel is bit-identical across thread counts.

use std::time::Duration;

use tracered_obs::Timer;

use tracered_graph::laplacian::ShiftPolicy;
use tracered_graph::lca::tree_resistances_threads;
use tracered_graph::mst::spanning_tree;
use tracered_graph::{Graph, GraphError, RootedTree, UnionFind};
use tracered_partition::{recursive_bisection_threads, EdgeCut, PartitionPiece};

use crate::config::SparsifyConfig;
use crate::criticality::tree_phase_scores_threads;
use crate::error::CoreError;
use crate::sparsify::{sparsify, IterationStats, Sparsifier, SparsifyReport};

/// What happens to the boundary (cut) edges when the per-partition
/// sparsifiers are stitched together.
///
/// Edges needed to connect the partition spanning forests into one global
/// spanning tree ("connectors", chosen greedily by descending weight) are
/// always kept; the policy governs the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum BoundaryPolicy {
    /// Keep every boundary edge. Guarantees the stitched sparsifier
    /// contains the full separator structure, at the cost of
    /// `O(edge cut)` extra edges.
    KeepAll,
    /// Score the **separator zone** — the non-connector boundary edges
    /// plus every unselected edge incident to a separator node (the
    /// region where the local scorers were blind to cross-partition
    /// coupling) — against the stitched global tree with the β-truncated
    /// trace-reduction metric, and keep the top
    /// `fraction · |separator nodes|` of them: the analog of the main
    /// driver's `α·|V|` budget, applied to the separator.
    Scored {
        /// Recovery budget as a fraction of the separator node count.
        fraction: f64,
    },
}

impl Default for BoundaryPolicy {
    fn default() -> Self {
        // One recovered edge per separator node. The separator is where
        // the local scorers were blind, so it needs a far denser budget
        // than the interior's α = 0.10: at 1.0 the stitched κ tracks the
        // global driver within a few percent on 27k-node grids (and often
        // beats it on small meshes) for ~1-2% more edges, while 0.5
        // already drifts to 2× and 0.10 past 3× by k = 8 — see the
        // fraction sweep in the PR 3 notes.
        BoundaryPolicy::Scored { fraction: 1.0 }
    }
}

/// Configuration for [`sparsify_partitioned`].
///
/// Wraps a [`SparsifyConfig`] (applied to every partition) with the
/// decomposition knobs. The base config's `threads` knob controls the
/// **outer** parallelism — how many partitions densify concurrently —
/// while the per-partition runs stay on the exact serial scoring path,
/// so nested parallel regions never oversubscribe the machine. The
/// `factor_threads` knob is the exception: it parallelizes the local
/// Cholesky factorizations *within* each partition job (bit-identical
/// to serial, so stitched edge sets are unchanged), which composes
/// safely because pool regions work-steal rather than spawn.
///
/// # Example
///
/// ```
/// use tracered_core::{sparsify_partitioned, PartitionedConfig};
/// use tracered_graph::gen::{grid2d, WeightProfile};
///
/// # fn main() -> Result<(), tracered_core::CoreError> {
/// let g = grid2d(12, 10, WeightProfile::Unit, 1);
/// let cfg = PartitionedConfig::new(4).threads(Some(2));
/// let psp = sparsify_partitioned(&g, &cfg)?;
/// assert!(psp.sparsifier().edge_ids().len() >= g.num_nodes() - 1);
/// assert_eq!(psp.partition_report().parts, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    base: SparsifyConfig,
    parts: usize,
    fiedler_steps: usize,
    boundary: BoundaryPolicy,
}

impl PartitionedConfig {
    /// Creates a configuration densifying `parts` partitions with the
    /// paper-default [`SparsifyConfig`] in each.
    pub fn new(parts: usize) -> Self {
        PartitionedConfig {
            base: SparsifyConfig::default(),
            parts,
            fiedler_steps: 8,
            boundary: BoundaryPolicy::default(),
        }
    }

    /// Replaces the per-partition sparsification configuration.
    pub fn base(mut self, base: SparsifyConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets the boundary-edge policy (default: scored, fraction 1.0).
    pub fn boundary(mut self, policy: BoundaryPolicy) -> Self {
        self.boundary = policy;
        self
    }

    /// Inverse-power steps per spectral bisection level (default 8).
    pub fn fiedler_steps(mut self, steps: usize) -> Self {
        self.fiedler_steps = steps;
        self
    }

    /// Outer worker threads — forwarded to the base config's `threads`
    /// knob (`Some(1)` serial, `None` auto-detect).
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.base = self.base.threads(threads);
        self
    }

    /// Factorization worker threads — forwarded to the base config's
    /// [`SparsifyConfig::factor_threads`] knob. Unlike the scoring
    /// `threads` knob (which the per-partition runs pin to 1 so the
    /// outer fan-out is the only chunk-parallel region), this one
    /// reaches **inside** each partition job: the per-iteration local
    /// Cholesky factorizations split their elimination trees across
    /// pool workers, composing with the outer `par_jobs` region through
    /// the pool's nested-region work stealing. Also used by the spectral
    /// partitioner's own full-size `DirectSolver` factorization.
    pub fn factor_threads(mut self, threads: Option<usize>) -> Self {
        self.base = self.base.factor_threads(threads);
        self
    }

    /// Validates parameter ranges (including the wrapped base config).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a value is out of range.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.parts == 0 {
            return Err(CoreError::InvalidConfig { what: "parts must be at least 1".into() });
        }
        if self.fiedler_steps == 0 {
            return Err(CoreError::InvalidConfig {
                what: "fiedler_steps must be at least 1".into(),
            });
        }
        if let BoundaryPolicy::Scored { fraction } = self.boundary {
            if !fraction.is_finite() || fraction < 0.0 {
                return Err(CoreError::InvalidConfig {
                    what: format!("boundary fraction {fraction} must be finite and >= 0"),
                });
            }
        }
        self.base.validate()
    }
}

/// One partition's densification diagnostics.
#[derive(Debug, Clone)]
pub struct PartitionStats {
    /// Part index (`0..k`).
    pub part: usize,
    /// Nodes in the partition.
    pub nodes: usize,
    /// Internal (non-boundary) edges of the partition.
    pub internal_edges: usize,
    /// Connected components the local densification ran on (pieces of a
    /// partition disconnected by the cut are sparsified independently).
    pub components: usize,
    /// Components whose densification loop failed numerically and were
    /// re-solved exactly (all local edges kept) instead of aborting the
    /// whole run.
    pub degraded_components: usize,
    /// The partition's own sparsification report (per-component reports
    /// merged by iteration index).
    pub report: SparsifyReport,
}

/// Diagnostics of a partitioned sparsification run, alongside the merged
/// [`SparsifyReport`] embedded in the stitched [`Sparsifier`].
#[derive(Debug, Clone)]
pub struct PartitionedReport {
    /// Parts the graph was decomposed into (may be fewer than requested
    /// on tiny graphs).
    pub parts: usize,
    /// Resolved outer worker-thread count.
    pub threads: usize,
    /// Edge-cut quality of the decomposition.
    pub cut: EdgeCut,
    /// Load-balance ratio (1.0 = perfectly balanced parts).
    pub balance_ratio: f64,
    /// Time spent in recursive spectral bisection + subgraph extraction.
    pub partition_time: Duration,
    /// Wall-clock time of the concurrent per-partition densification.
    pub densify_time: Duration,
    /// Time spent stitching: connector selection plus boundary scoring.
    pub stitch_time: Duration,
    /// Boundary edges promoted into the stitched spanning tree.
    pub connector_edges: usize,
    /// Candidates considered by the boundary policy: the non-connector
    /// cut edges under [`BoundaryPolicy::KeepAll`]; the whole separator
    /// zone (those cut edges **plus** unselected edges incident to a
    /// separator node) under [`BoundaryPolicy::Scored`].
    pub boundary_candidates: usize,
    /// Candidates recovered by the policy (excluding connectors; under
    /// the scored policy this may include non-cut separator-zone edges).
    pub boundary_recovered: usize,
    /// Partitions containing at least one degraded component (see
    /// [`PartitionStats::degraded_components`]) — 0 on healthy runs.
    pub degraded_partitions: usize,
    /// Per-partition diagnostics, in part order.
    pub per_partition: Vec<PartitionStats>,
}

/// A sparsifier produced by [`sparsify_partitioned`]: the stitched global
/// [`Sparsifier`] plus the decomposition diagnostics.
#[derive(Debug, Clone)]
pub struct PartitionedSparsifier {
    sparsifier: Sparsifier,
    partition_report: PartitionedReport,
    assignment: Vec<usize>,
}

impl PartitionedSparsifier {
    /// The stitched global sparsifier (its [`Sparsifier::report`] merges
    /// the per-partition iteration stats plus a final boundary phase).
    pub fn sparsifier(&self) -> &Sparsifier {
        &self.sparsifier
    }

    /// Unwraps the stitched sparsifier.
    pub fn into_sparsifier(self) -> Sparsifier {
        self.sparsifier
    }

    /// Decomposition and stitching diagnostics.
    pub fn partition_report(&self) -> &PartitionedReport {
        &self.partition_report
    }

    /// Part index per node.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }
}

/// Outcome of one partition's local densification, in global edge ids.
struct PartResult {
    tree_edges: Vec<usize>,
    recovered: Vec<usize>,
    components: usize,
    degraded: usize,
    report: SparsifyReport,
}

/// Runs partition-parallel sparsification (see the module docs).
///
/// The stitched sparsifier targets the same quality envelope as the
/// global [`sparsify`] on the same graph: with the default scored
/// boundary policy, its relative condition number stays within a small
/// constant factor (documented tolerance **2×**, observed ≤ ~1.3× on
/// the mesh test suite — see `crates/core/tests/partitioned_quality.rs`)
/// of the unpartitioned result, while the factorization work splits into
/// k independent local problems.
///
/// ```
/// use tracered_core::{sparsify_partitioned, PartitionedConfig};
/// use tracered_graph::gen::{grid2d, WeightProfile};
///
/// let g = grid2d(24, 16, WeightProfile::Unit, 7);
/// // 4 partitions, densified concurrently on up to 2 pool threads; the
/// // stitched edge set is identical at every thread count.
/// let cfg = PartitionedConfig::new(4).threads(Some(2));
/// let psp = sparsify_partitioned(&g, &cfg)?;
/// let sp = psp.sparsifier();
/// assert!(sp.edge_ids().len() >= g.num_nodes() - 1);
/// assert!(psp.partition_report().cut.count > 0);
/// # Ok::<(), tracered_core::CoreError>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for out-of-range parameters,
/// [`CoreError::Graph`] for empty or disconnected inputs, and
/// [`CoreError::Sparse`] if a partition-level factorization or the
/// spectral bisection fails.
pub fn sparsify_partitioned(
    g: &Graph,
    cfg: &PartitionedConfig,
) -> Result<PartitionedSparsifier, CoreError> {
    cfg.validate()?;
    let n = g.num_nodes();
    if n == 0 {
        return Err(GraphError::EmptyGraph.into());
    }
    if !g.is_connected() {
        return Err(GraphError::Disconnected { components: g.num_components() }.into());
    }
    let threads = tracered_par::effective_threads(cfg.base.threads_value());
    let factor_threads = tracered_par::effective_threads(cfg.base.factor_threads_value());
    // Timers feed the report fields below and double as spans when
    // tracing is on — the report and the trace share one measurement.
    let t_start = Timer::start_with(
        "partitioned.sparsify",
        &[("n", n as f64), ("parts", cfg.parts.min(n) as f64)],
    );

    // --- Decompose. ---
    let t0 = Timer::start("partitioned.partition");
    let k = cfg.parts.min(n);
    let kw =
        recursive_bisection_threads(g, k, cfg.fiedler_steps, cfg.base.seed_value(), factor_threads)
            .map_err(CoreError::Sparse)?;
    let subs = kw.extract_subgraphs(g);
    let cut = kw.edge_cut(g);
    let balance_ratio = kw.balance_ratio();
    let partition_time = t0.stop();

    let shifts = cfg.base.shift_value().shifts(g)?;

    // --- Densify every partition concurrently. ---
    // Each job owns one output slot; the local runs use the exact serial
    // scoring path (threads = 1), so the outer fan-out is the only
    // parallel region and results are thread-count invariant.
    let t0 = Timer::start("partitioned.densify");
    let mut slots: Vec<Option<Result<PartResult, CoreError>>> = Vec::new();
    slots.resize_with(subs.pieces.len(), || None);
    let jobs: Vec<(&PartitionPiece, &mut Option<Result<PartResult, CoreError>>)> =
        subs.pieces.iter().zip(slots.iter_mut()).collect();
    tracered_par::par_jobs(jobs, threads, |(piece, slot)| {
        *slot = Some(densify_piece(piece, &shifts, cfg));
    });
    let mut part_results = Vec::with_capacity(subs.pieces.len());
    for slot in slots {
        part_results.push(slot.expect("every partition job ran")?);
    }
    let densify_time = t0.stop();

    // --- Stitch. ---
    let t0 = Timer::start("partitioned.stitch");
    let mut tree_edges: Vec<usize> = Vec::with_capacity(n.saturating_sub(1));
    for pr in &part_results {
        tree_edges.extend_from_slice(&pr.tree_edges);
    }
    let mut uf = UnionFind::new(n);
    for &id in &tree_edges {
        let e = g.edge(id);
        uf.union(e.u, e.v);
    }
    // Connectors: maximum-weight greedy join of the partition forests
    // into one global spanning tree (ties broken by edge id).
    let mut by_weight = subs.boundary_edges.clone();
    by_weight
        .sort_by(|&a, &b| g.edge(b).weight.total_cmp(&g.edge(a).weight).then_with(|| a.cmp(&b)));
    let mut is_connector = vec![false; g.num_edges()];
    let mut connectors = Vec::new();
    for &id in &by_weight {
        let e = g.edge(id);
        if uf.union(e.u, e.v) {
            is_connector[id] = true;
            connectors.push(id);
        }
    }
    tree_edges.extend_from_slice(&connectors);
    debug_assert_eq!(tree_edges.len(), n - 1, "stitched forest must span a connected graph");
    let tree_edge_count = tree_edges.len();

    // Boundary policy for the remaining cut edges. The scored policy
    // widens the candidate pool to the whole separator zone: edges the
    // per-partition runs did not select whose endpoint touches the
    // separator — exactly where the local scorers could not see the
    // cross-partition coupling.
    let candidates: Vec<usize> = match cfg.boundary {
        BoundaryPolicy::KeepAll => {
            subs.boundary_edges.iter().copied().filter(|&id| !is_connector[id]).collect()
        }
        BoundaryPolicy::Scored { .. } => {
            let mut selected = is_connector.clone();
            for pr in &part_results {
                for &id in pr.tree_edges.iter().chain(pr.recovered.iter()) {
                    selected[id] = true;
                }
            }
            let mut on_separator = vec![false; n];
            for &v in &subs.separator_nodes {
                on_separator[v] = true;
            }
            (0..g.num_edges())
                .filter(|&id| {
                    let e = g.edge(id);
                    !selected[id] && (on_separator[e.u] || on_separator[e.v])
                })
                .collect()
        }
    };
    let t_boundary = Timer::start("partitioned.boundary");
    let (boundary_recovered, boundary_scored) = match cfg.boundary {
        BoundaryPolicy::KeepAll => (candidates.clone(), 0),
        BoundaryPolicy::Scored { fraction } => {
            let quota = ((fraction * subs.separator_nodes.len() as f64).round() as usize)
                .min(candidates.len());
            if quota == 0 || candidates.is_empty() {
                // No scoring ran, so none of the candidates count as
                // scored in the boundary pseudo-iteration.
                (Vec::new(), 0)
            } else {
                let tree = RootedTree::build(g, &tree_edges, crate::sparsify::heaviest_node(g))?;
                let pairs: Vec<(usize, usize)> =
                    candidates.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
                let rs = tree_resistances_threads(&tree, &pairs, threads);
                let scores = tree_phase_scores_threads(
                    g,
                    &tree,
                    &candidates,
                    &rs,
                    cfg.base.beta_value(),
                    threads,
                );
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                order.sort_unstable_by(|&a, &b| {
                    scores[b].total_cmp(&scores[a]).then_with(|| candidates[a].cmp(&candidates[b]))
                });
                let picked: Vec<usize> = order[..quota].iter().map(|&ci| candidates[ci]).collect();
                (picked, candidates.len())
            }
        }
    };
    let boundary_time = t_boundary.stop();
    let stitch_time = t0.stop();

    // --- Assemble the stitched sparsifier + merged report. ---
    let mut edge_ids = tree_edges;
    for pr in &part_results {
        edge_ids.extend_from_slice(&pr.recovered);
    }
    edge_ids.extend_from_slice(&boundary_recovered);

    let mut iterations =
        merge_iterations(part_results.iter().map(|pr| &pr.report), threads, factor_threads);
    // The boundary phase is reported as one final pseudo-iteration so the
    // merged report still accounts for every recovered edge.
    if boundary_scored > 0 || !boundary_recovered.is_empty() {
        iterations.push(IterationStats {
            iteration: iterations.len() + 1,
            scored: boundary_scored,
            recovered: boundary_recovered.len(),
            excluded_skips: 0,
            factor_time: Duration::ZERO,
            score_time: boundary_time,
            spai_nnz: 0,
            trace_estimate: None,
            threads,
            factor_threads,
            pool_size: tracered_par::global_pool_size(),
            applied_shift: 0.0,
        });
    }
    let budget: usize =
        part_results.iter().map(|pr| pr.report.budget).sum::<usize>() + boundary_recovered.len();
    let report = SparsifyReport {
        method: cfg.base.method(),
        total_time: t_start.stop(),
        tree_time: part_results.iter().map(|pr| pr.report.tree_time).sum(),
        budget,
        degraded_fallbacks: part_results.iter().map(|pr| pr.degraded).sum(),
        iterations,
    };
    let per_partition = subs
        .pieces
        .iter()
        .zip(part_results.iter())
        .map(|(piece, pr)| PartitionStats {
            part: piece.part,
            nodes: piece.graph.num_nodes(),
            internal_edges: piece.graph.num_edges(),
            components: pr.components,
            degraded_components: pr.degraded,
            report: pr.report.clone(),
        })
        .collect();
    let partition_report = PartitionedReport {
        parts: kw.parts,
        threads,
        cut,
        balance_ratio,
        partition_time,
        densify_time,
        stitch_time,
        connector_edges: connectors.len(),
        boundary_candidates: candidates.len(),
        boundary_recovered: boundary_recovered.len(),
        degraded_partitions: part_results.iter().filter(|pr| pr.degraded > 0).count(),
        per_partition,
    };
    Ok(PartitionedSparsifier {
        sparsifier: Sparsifier::from_parts(edge_ids, tree_edge_count, shifts, report),
        partition_report,
        assignment: kw.assignment,
    })
}

/// Densifies one partition piece: every connected component of the piece
/// (the cut may disconnect a part internally) runs the full serial
/// [`sparsify`] loop under the global shift restricted to its nodes, and
/// the selected local edges are mapped back to global ids.
fn densify_piece(
    piece: &PartitionPiece,
    global_shifts: &[f64],
    cfg: &PartitionedConfig,
) -> Result<PartResult, CoreError> {
    let _span = tracered_obs::span!("partitioned.part", {
        part: piece.part,
        nodes: piece.graph.num_nodes(),
    });
    // Per-partition seed: decorrelates stochastic scoring probes across
    // partitions while staying deterministic.
    let seed = cfg.base.seed_value() ^ (piece.part as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut components = piece.graph.components();
    // components() orders by size; re-sort by smallest node id so the
    // output edge order is independent of internal traversal order.
    for comp in &mut components {
        comp.sort_unstable();
    }
    components.sort_by_key(|c| c[0]);
    let mut tree_edges = Vec::new();
    let mut recovered = Vec::new();
    let mut reports = Vec::new();
    let mut degraded = 0usize;
    let whole_piece = components.len() == 1;
    for comp in &components {
        if comp.len() < 2 {
            continue; // isolated within the piece; connectors reattach it
        }
        // Connected piece (the common case): densify it in place; only a
        // cut-disconnected piece pays for component extraction.
        let extracted =
            if whole_piece { None } else { Some(piece.graph.induced_subgraph_with_edges(comp)) };
        let (local_graph, local_shifts): (&Graph, Vec<f64>) = match &extracted {
            None => (&piece.graph, piece.nodes.iter().map(|&gv| global_shifts[gv]).collect()),
            Some((sub, nodes, _)) => {
                (sub, nodes.iter().map(|&v| global_shifts[piece.nodes[v]]).collect())
            }
        };
        let local_cfg =
            cfg.base.clone().shift(ShiftPolicy::PerNode(local_shifts)).threads(Some(1)).seed(seed);
        let to_global = |local: usize| -> usize {
            let piece_local = match &extracted {
                Some((_, _, map)) => map[local],
                None => local,
            };
            piece.edges[piece_local]
        };
        match sparsify(local_graph, &local_cfg) {
            Ok(sp) => {
                let ids = sp.edge_ids();
                tree_edges.extend(ids[..sp.tree_edge_count()].iter().map(|&e| to_global(e)));
                recovered.extend(ids[sp.tree_edge_count()..].iter().map(|&e| to_global(e)));
                reports.push(sp.report().clone());
            }
            Err(CoreError::Sparse(_)) => {
                // Numerical failure in this component's densification
                // loop (e.g. a factorization the shift ladder could not
                // rescue): degrade to the exact local subgraph — a
                // spanning tree plus *every* off-tree edge — instead of
                // killing the whole partitioned run. Denser than
                // requested, but spectrally exact, and recorded in the
                // degradation counters.
                let t_fallback = Timer::start("partitioned.fallback");
                let t_tree = Timer::start("sparsify.tree");
                let st = spanning_tree(local_graph, cfg.base.tree_kind_value())?;
                // The tree phase is timed separately: the fallback's
                // total also covers mapping every kept edge back to
                // global ids, so the two fields are distinct measurements
                // (previously both were assigned the full elapsed time).
                let tree_time = t_tree.stop();
                let kept = st.off_tree_edges.len();
                tree_edges.extend(st.tree_edges.iter().map(|&e| to_global(e)));
                recovered.extend(st.off_tree_edges.iter().map(|&e| to_global(e)));
                degraded += 1;
                reports.push(SparsifyReport {
                    method: cfg.base.method(),
                    total_time: t_fallback.stop(),
                    tree_time,
                    budget: kept,
                    degraded_fallbacks: 1,
                    // One pseudo-iteration keeps the merged report's
                    // recovered-edge accounting exact.
                    iterations: vec![IterationStats {
                        iteration: 1,
                        scored: kept,
                        recovered: kept,
                        excluded_skips: 0,
                        factor_time: Duration::ZERO,
                        score_time: Duration::ZERO,
                        spai_nnz: 0,
                        trace_estimate: None,
                        threads: 1,
                        factor_threads: 1,
                        pool_size: tracered_par::global_pool_size(),
                        applied_shift: 0.0,
                    }],
                });
            }
            Err(e) => return Err(e),
        }
    }
    // Local scoring is pinned serial; factorizations inside the job may
    // still fan out through the nested-region pool support.
    let threads = 1;
    let factor_threads = tracered_par::effective_threads(cfg.base.factor_threads_value());
    let merged = SparsifyReport {
        method: cfg.base.method(),
        total_time: reports.iter().map(|r| r.total_time).sum(),
        tree_time: reports.iter().map(|r| r.tree_time).sum(),
        budget: reports.iter().map(|r| r.budget).sum(),
        degraded_fallbacks: degraded,
        iterations: merge_iterations(reports.iter(), threads, factor_threads),
    };
    Ok(PartResult { tree_edges, recovered, components: components.len(), degraded, report: merged })
}

/// Merges per-source iteration stats by iteration index: counts and
/// times are summed (times are aggregate CPU time — the sources ran
/// concurrently), trace estimates sum when present anywhere (the trace
/// of a block decomposition is additive over blocks).
fn merge_iterations<'a>(
    reports: impl Iterator<Item = &'a SparsifyReport>,
    threads: usize,
    factor_threads: usize,
) -> Vec<IterationStats> {
    let reports: Vec<&SparsifyReport> = reports.collect();
    let mut merged: Vec<IterationStats> = Vec::new();
    // Trace estimates contributed per iteration index: a block sum is
    // only meaningful when *every* source reported one at that index
    // (a source that converged early would otherwise make the partial
    // sum read as a spurious trace drop).
    let mut trace_sources: Vec<usize> = Vec::new();
    for report in &reports {
        for (i, it) in report.iterations.iter().enumerate() {
            if merged.len() <= i {
                merged.push(IterationStats {
                    iteration: i + 1,
                    scored: 0,
                    recovered: 0,
                    excluded_skips: 0,
                    factor_time: Duration::ZERO,
                    score_time: Duration::ZERO,
                    spai_nnz: 0,
                    trace_estimate: None,
                    threads,
                    factor_threads,
                    pool_size: tracered_par::global_pool_size(),
                    applied_shift: 0.0,
                });
                trace_sources.push(0);
            }
            let m = &mut merged[i];
            m.scored += it.scored;
            m.recovered += it.recovered;
            m.excluded_skips += it.excluded_skips;
            m.factor_time += it.factor_time;
            m.score_time += it.score_time;
            m.spai_nnz += it.spai_nnz;
            // The merged shift is the worst (largest) boost any source
            // needed at this iteration index.
            if it.applied_shift > m.applied_shift {
                m.applied_shift = it.applied_shift;
            }
            if let Some(t) = it.trace_estimate {
                *m.trace_estimate.get_or_insert(0.0) += t;
                trace_sources[i] += 1;
            }
        }
    }
    for (m, &sources) in merged.iter_mut().zip(trace_sources.iter()) {
        if sources != reports.len() {
            m.trace_estimate = None;
        }
    }
    merged
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::Method;
    use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};

    #[test]
    fn stitched_sparsifier_is_a_connected_spanning_subgraph() {
        let g = tri_mesh(14, 10, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 3);
        let psp = sparsify_partitioned(&g, &PartitionedConfig::new(4)).unwrap();
        let sp = psp.sparsifier();
        assert_eq!(sp.tree_edge_count(), g.num_nodes() - 1);
        assert!(sp.as_graph(&g).is_connected());
        let mut ids = sp.edge_ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sp.edge_ids().len(), "stitched edges must be unique");
    }

    #[test]
    fn partition_report_is_consistent() {
        let g = grid2d(14, 12, WeightProfile::Unit, 5);
        let psp = sparsify_partitioned(&g, &PartitionedConfig::new(4)).unwrap();
        let pr = psp.partition_report();
        assert_eq!(pr.parts, 4);
        assert!(pr.cut.count > 0 && pr.cut.weight > 0.0);
        assert!(pr.balance_ratio >= 1.0 && pr.balance_ratio < 1.5);
        assert_eq!(pr.per_partition.len(), 4);
        let part_nodes: usize = pr.per_partition.iter().map(|p| p.nodes).sum();
        assert_eq!(part_nodes, g.num_nodes());
        // Connectors join k forests into one tree: at least k-1 of them.
        assert!(pr.connector_edges >= pr.parts - 1);
        assert_eq!(psp.assignment().len(), g.num_nodes());
        // The merged report accounts for every recovered edge.
        let sp = psp.sparsifier();
        let recovered: usize = sp.report().iterations.iter().map(|i| i.recovered).sum();
        assert_eq!(recovered, sp.num_recovered());
    }

    #[test]
    fn keep_all_boundary_retains_every_cut_edge() {
        let g = grid2d(12, 10, WeightProfile::Unit, 2);
        let cfg = PartitionedConfig::new(4).boundary(BoundaryPolicy::KeepAll);
        let psp = sparsify_partitioned(&g, &cfg).unwrap();
        let pr = psp.partition_report();
        assert_eq!(pr.boundary_recovered, pr.boundary_candidates);
        assert_eq!(pr.boundary_recovered + pr.connector_edges, pr.cut.count);
        // Every boundary edge is present in the sparsifier.
        let ids: std::collections::HashSet<usize> =
            psp.sparsifier().edge_ids().iter().copied().collect();
        for (id, e) in g.edges().iter().enumerate() {
            if psp.assignment()[e.u] != psp.assignment()[e.v] {
                assert!(ids.contains(&id), "boundary edge {id} missing");
            }
        }
    }

    #[test]
    fn single_part_delegates_to_plain_shape() {
        let g = grid2d(10, 8, WeightProfile::Unit, 7);
        let psp = sparsify_partitioned(&g, &PartitionedConfig::new(1)).unwrap();
        let pr = psp.partition_report();
        assert_eq!(pr.parts, 1);
        assert_eq!(pr.cut.count, 0);
        assert_eq!(pr.connector_edges, 0);
        // One part, no cut: identical edge set to the global driver.
        let global = sparsify(&g, &SparsifyConfig::default()).unwrap();
        let mut a = psp.sparsifier().edge_ids().to_vec();
        let mut b = global.edge_ids().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_configs_and_graphs() {
        let g = grid2d(6, 5, WeightProfile::Unit, 1);
        assert!(matches!(
            sparsify_partitioned(&g, &PartitionedConfig::new(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sparsify_partitioned(&g, &PartitionedConfig::new(2).fiedler_steps(0)),
            Err(CoreError::InvalidConfig { .. })
        ));
        let bad = PartitionedConfig::new(2).boundary(BoundaryPolicy::Scored { fraction: -1.0 });
        assert!(matches!(sparsify_partitioned(&g, &bad), Err(CoreError::InvalidConfig { .. })));
        let disconnected = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(matches!(
            sparsify_partitioned(&disconnected, &PartitionedConfig::new(2)),
            Err(CoreError::Graph(GraphError::Disconnected { .. }))
        ));
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(matches!(
            sparsify_partitioned(&empty, &PartitionedConfig::new(2)),
            Err(CoreError::Graph(GraphError::EmptyGraph))
        ));
    }

    #[test]
    fn parts_exceeding_nodes_degrade_gracefully() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let psp = sparsify_partitioned(&g, &PartitionedConfig::new(8)).unwrap();
        assert!(psp.partition_report().parts <= 3);
        assert!(psp.sparsifier().as_graph(&g).is_connected());
    }

    #[test]
    fn numerical_failure_degrades_to_exact_partitions() {
        let g = grid2d(12, 10, WeightProfile::Unit, 2);
        // A zero shift makes every partition's local Laplacian exactly
        // singular, and JL-resistance scoring factorizes that full local
        // Laplacian up front: before the resilience layer this aborted
        // the whole run with CoreError::Sparse.
        let cfg = PartitionedConfig::new(4)
            .base(SparsifyConfig::new(Method::JlResistance).shift(ShiftPolicy::None));
        let psp = sparsify_partitioned(&g, &cfg).unwrap();
        let pr = psp.partition_report();
        assert!(pr.degraded_partitions > 0, "degradation must be recorded");
        assert!(pr.per_partition.iter().any(|p| p.degraded_components > 0));
        let sp = psp.sparsifier();
        assert!(sp.report().degraded_fallbacks > 0);
        assert!(sp.report().to_string().contains("degraded"));
        // The degraded result is still a valid connected sparsifier with
        // exact recovered-edge accounting.
        assert!(sp.as_graph(&g).is_connected());
        let recovered: usize = sp.report().iterations.iter().map(|i| i.recovered).sum();
        assert_eq!(recovered, sp.num_recovered());
    }

    #[test]
    fn pivot_boost_avoids_degradation() {
        use tracered_sparse::BoostSchedule;
        let g = grid2d(12, 10, WeightProfile::Unit, 2);
        let cfg = PartitionedConfig::new(4).base(
            SparsifyConfig::new(Method::JlResistance)
                .shift(ShiftPolicy::None)
                .pivot_boost(Some(BoostSchedule::default())),
        );
        let psp = sparsify_partitioned(&g, &cfg).unwrap();
        let pr = psp.partition_report();
        assert_eq!(pr.degraded_partitions, 0, "the boost ladder should rescue every component");
        assert_eq!(psp.sparsifier().report().degraded_fallbacks, 0);
        // ...and the recovery is visible in the merged iteration stats.
        assert!(psp.sparsifier().report().iterations.iter().any(|it| it.applied_shift > 0.0));
        assert!(psp.sparsifier().as_graph(&g).is_connected());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = tri_mesh(10, 9, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 11);
        let cfg = PartitionedConfig::new(3);
        let a = sparsify_partitioned(&g, &cfg).unwrap();
        let b = sparsify_partitioned(&g, &cfg).unwrap();
        assert_eq!(a.sparsifier().edge_ids(), b.sparsifier().edge_ids());
        assert_eq!(a.assignment(), b.assignment());
    }
}
