//! The overall sparsification driver — **Algorithm 2** of the paper.
//!
//! Pipeline (shared by all three methods so comparisons isolate the
//! criticality metric):
//!
//! 1. extract a low-stretch spanning tree (feGRASS's MEWST by default);
//! 2. score all off-tree edges against the tree — trace reduction uses
//!    the exact BFS voltage propagation of Eqs. 13–15;
//! 3. recover the top `α·|V| / N_r` edges, skipping spectrally similar
//!    ones;
//! 4. for each remaining densification iteration: factorize the current
//!    subgraph Laplacian, rebuild the criticality scores against it
//!    (trace reduction scores through Algorithm 1's approximate factor
//!    inverse, Eq. 20), and recover the next batch.

use std::time::Duration;

use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
use tracered_graph::lca::tree_resistances_threads;
use tracered_graph::mst::spanning_tree;
use tracered_graph::{Graph, GraphError, RootedTree};
use tracered_obs::Timer;
use tracered_sparse::{
    ApproxInverse, CholeskyFactor, CscMatrix, FactorOptions, SpaiOptions, SparseError,
};

use crate::config::{Method, SparsifyConfig};
use crate::criticality::{subgraph_phase_scores_threads, tree_phase_scores_threads};
use crate::error::CoreError;
use crate::grass::{grass_scores_threads, probe_rng};
use crate::similarity::SimilarityExclusion;

/// Per-iteration diagnostics collected by the driver.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// 1-based densification iteration number.
    pub iteration: usize,
    /// Candidates scored this iteration.
    pub scored: usize,
    /// Edges recovered this iteration.
    pub recovered: usize,
    /// Candidates skipped by similarity exclusion.
    pub excluded_skips: usize,
    /// Time spent factorizing the subgraph Laplacian.
    pub factor_time: Duration,
    /// Time spent computing criticality scores.
    pub score_time: Duration,
    /// Nonzeros of the approximate inverse factor (0 when unused).
    pub spai_nnz: usize,
    /// Hutchinson estimate of `Trace(L_S⁻¹ L_G)` *before* this
    /// iteration's recovery (only when
    /// [`SparsifyConfig::track_trace`] is enabled).
    pub trace_estimate: Option<f64>,
    /// Worker threads the scoring engine ran on (resolved from
    /// [`SparsifyConfig::threads`]; 1 = exact serial path). Comparing
    /// `score_time` across runs at different thread counts gives the
    /// score-phase speedup — scores themselves are bit-identical.
    pub threads: usize,
    /// Worker threads the subgraph Cholesky factorizations ran on
    /// (resolved from [`SparsifyConfig::factor_threads`]; 1 = serial
    /// numeric kernel). The parallel factorization is bit-identical
    /// to serial, so comparing `factor_time` across runs at different
    /// settings gives the factor-phase speedup directly.
    pub factor_threads: usize,
    /// Size of the process-global worker pool when this iteration ran
    /// ([`tracered_par::global_pool_size`]): the `TRACERED_THREADS`
    /// override or the OS-reported parallelism. `threads` above is the
    /// *requested* cap; this is the hardware/runtime budget it was
    /// served from, so recorded stats are self-describing on any
    /// machine.
    pub pool_size: usize,
    /// Largest diagonal boost the resilience ladder applied to a
    /// factorization this iteration — `0.0` unless
    /// [`SparsifyConfig::pivot_boost`] is set *and* a retry was needed.
    /// A nonzero value means the iteration recovered from a pivot
    /// failure instead of erroring out.
    pub applied_shift: f64,
}

/// Summary of a sparsification run.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifyReport {
    /// The criticality metric used.
    pub method: Method,
    /// Wall-clock time of the whole run (the paper's `T_s`).
    pub total_time: Duration,
    /// Time spent building the spanning tree.
    pub tree_time: Duration,
    /// The edge-recovery budget `α·|V|` (clamped to the off-tree count).
    pub budget: usize,
    /// Components the partitioned driver re-solved exactly after their
    /// densification loop hit an unrecoverable factorization failure —
    /// always 0 for the plain [`sparsify`] driver, which fails fast
    /// instead. A nonzero count means the result is valid but denser
    /// than requested in the degraded regions.
    pub degraded_fallbacks: usize,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
}

impl std::fmt::Display for SparsifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:?}: budget {} edges, tree {:.3}s, total {:.3}s",
            self.method,
            self.budget,
            self.tree_time.as_secs_f64(),
            self.total_time.as_secs_f64()
        )?;
        if self.degraded_fallbacks > 0 {
            writeln!(f, "  degraded: {} component(s) re-solved exactly", self.degraded_fallbacks)?;
        }
        for it in &self.iterations {
            writeln!(
                f,
                "  iter {}: scored {}, recovered {}, skipped {}, factor {:.3}s, score {:.3}s",
                it.iteration,
                it.scored,
                it.recovered,
                it.excluded_skips,
                it.factor_time.as_secs_f64(),
                it.score_time.as_secs_f64()
            )?;
        }
        Ok(())
    }
}

/// A spectral sparsifier: a subset of the input graph's edges plus the
/// diagonal shift under which it was constructed.
#[derive(Debug, Clone)]
pub struct Sparsifier {
    edge_ids: Vec<usize>,
    tree_edge_count: usize,
    shifts: Vec<f64>,
    report: SparsifyReport,
}

impl Sparsifier {
    /// Assembles a sparsifier from already-selected parts — used by the
    /// partitioned driver to stitch per-partition results into one global
    /// sparsifier. `edge_ids` must hold the spanning-tree edges first.
    pub(crate) fn from_parts(
        edge_ids: Vec<usize>,
        tree_edge_count: usize,
        shifts: Vec<f64>,
        report: SparsifyReport,
    ) -> Self {
        Sparsifier { edge_ids, tree_edge_count, shifts, report }
    }

    /// Edge ids (into the original graph) forming the sparsifier, spanning
    /// tree first.
    pub fn edge_ids(&self) -> &[usize] {
        &self.edge_ids
    }

    /// Number of spanning-tree edges at the front of
    /// [`Sparsifier::edge_ids`].
    pub fn tree_edge_count(&self) -> usize {
        self.tree_edge_count
    }

    /// Number of recovered off-tree edges.
    pub fn num_recovered(&self) -> usize {
        self.edge_ids.len() - self.tree_edge_count
    }

    /// The diagonal shift vector shared by `L_G` and `L_P`.
    pub fn shifts(&self) -> &[f64] {
        &self.shifts
    }

    /// Run diagnostics.
    pub fn report(&self) -> &SparsifyReport {
        &self.report
    }

    /// The sparsifier Laplacian `L_P` (with the construction shift).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the graph this sparsifier was built from.
    pub fn laplacian(&self, g: &Graph) -> CscMatrix {
        subgraph_laplacian(g, &self.edge_ids, &self.shifts)
    }

    /// The full-graph Laplacian `L_G` under the same shift, suitable for
    /// computing `κ(L_G, L_P)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the graph this sparsifier was built from.
    pub fn graph_laplacian(&self, g: &Graph) -> CscMatrix {
        laplacian_with_shifts(g, &self.shifts)
    }

    /// The sparsifier as a standalone graph over the same node set.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not the graph this sparsifier was built from.
    pub fn as_graph(&self, g: &Graph) -> Graph {
        g.edge_subgraph(&self.edge_ids)
    }
}

/// The node with the largest weighted degree — the root the drivers hang
/// their scoring trees from (keeps BFS trees shallow on meshes). Shared
/// by [`sparsify`] and the partitioned driver's boundary-scoring path so
/// both score against identically-rooted trees.
pub(crate) fn heaviest_node(g: &Graph) -> usize {
    (0..g.num_nodes())
        .max_by(|&a, &b| g.weighted_degree(a).total_cmp(&g.weighted_degree(b)))
        .unwrap_or(0)
}

/// Factorizes a (subgraph) Laplacian with the run's options: fail-fast
/// without a [`SparsifyConfig::pivot_boost`] ladder, boosted retries with
/// one. A boost that fires records its shift in `stats.applied_shift`
/// (the max over the iteration's factorizations).
fn factorize_resilient(
    m: &CscMatrix,
    opts: FactorOptions,
    stats: &mut IterationStats,
) -> Result<CholeskyFactor, SparseError> {
    let factor = CholeskyFactor::factorize(m, opts)?;
    stats.applied_shift = stats.applied_shift.max(factor.applied_shift());
    Ok(factor)
}

/// Runs graph spectral sparsification (paper Algorithm 2, or one of the
/// baselines selected by [`SparsifyConfig::new`]).
///
/// ```
/// use tracered_core::{sparsify, Method, SparsifyConfig};
/// use tracered_graph::gen::{grid2d, WeightProfile};
///
/// let g = grid2d(16, 16, WeightProfile::Unit, 7);
/// let sp = sparsify(&g, &SparsifyConfig::new(Method::TraceReduction))?;
/// // A spanning tree plus ~`edge_fraction · |V|` recovered edges.
/// assert!(sp.edge_ids().len() >= g.num_nodes() - 1);
/// assert!(sp.edge_ids().len() < g.num_edges());
/// // Per-iteration diagnostics, including the resolved thread budget.
/// assert!(sp.report().iterations[0].pool_size >= 1);
/// # Ok::<(), tracered_core::CoreError>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for out-of-range parameters,
/// [`CoreError::Graph`] for empty or disconnected inputs, and
/// [`CoreError::Sparse`] if a subgraph factorization fails (e.g. a zero
/// shift made the Laplacian singular). Configuring
/// [`SparsifyConfig::pivot_boost`] retries failed factorizations with a
/// geometric diagonal-boost ladder instead, recording the applied shift
/// in [`IterationStats::applied_shift`].
pub fn sparsify(g: &Graph, cfg: &SparsifyConfig) -> Result<Sparsifier, CoreError> {
    cfg.validate()?;
    let n = g.num_nodes();
    if n == 0 {
        return Err(GraphError::EmptyGraph.into());
    }
    if !g.is_connected() {
        return Err(GraphError::Disconnected { components: g.num_components() }.into());
    }
    let shifts = cfg.shift_value().shifts(g)?;
    // Timers measure wall time unconditionally (the report fields below
    // depend on them) and double as spans when tracing is enabled, so the
    // report and the trace always describe the same measurement.
    let t_start =
        Timer::start_with("sparsify", &[("n", n as f64), ("edges", g.num_edges() as f64)]);

    // Step 1: low-stretch spanning tree.
    let t_tree = Timer::start("sparsify.tree");
    let st = spanning_tree(g, cfg.tree_kind_value())?;
    let tree = RootedTree::build(g, &st.tree_edges, heaviest_node(g))?;
    let tree_time = t_tree.stop();

    let budget =
        ((cfg.edge_fraction_value() * n as f64).round() as usize).min(st.off_tree_edges.len());
    let nr = cfg.num_iterations();
    let lg = laplacian_with_shifts(g, &shifts);
    let threads = tracered_par::effective_threads(cfg.threads_value());
    let factor_opts = FactorOptions {
        ordering: cfg.ordering_value(),
        threads: tracered_par::effective_threads(cfg.factor_threads_value()),
        boost: cfg.pivot_boost_value(),
    };
    let mut rng = probe_rng(cfg.seed_value());

    let mut selected = st.tree_edges.clone();
    let tree_edge_count = selected.len();
    let mut candidates = st.off_tree_edges;
    let mut excl = SimilarityExclusion::new(n, cfg.similarity_layers_value());
    let mut iterations = Vec::new();
    let mut remaining = budget;

    for iter_idx in 0..nr {
        if remaining == 0 || candidates.is_empty() {
            break;
        }
        let mut iter_span = tracered_obs::span!("sparsify.iter", {
            iter: iter_idx + 1,
            candidates: candidates.len(),
        });
        let quota = remaining.div_ceil(nr - iter_idx).min(remaining);
        let mut stats = IterationStats {
            iteration: iter_idx + 1,
            scored: candidates.len(),
            recovered: 0,
            excluded_skips: 0,
            factor_time: Duration::ZERO,
            score_time: Duration::ZERO,
            spai_nnz: 0,
            trace_estimate: None,
            threads,
            factor_threads: factor_opts.threads,
            pool_size: tracered_par::global_pool_size(),
            applied_shift: 0.0,
        };
        if cfg.track_trace_enabled() {
            let ls = subgraph_laplacian(g, &selected, &shifts);
            if let Ok(factor) = factorize_resilient(&ls, factor_opts, &mut stats) {
                stats.trace_estimate = Some(crate::metrics::trace_proxy_hutchinson_threads(
                    &lg,
                    &factor,
                    24,
                    cfg.seed_value() ^ iter_idx as u64,
                    threads,
                ));
            }
        }

        // --- Score candidates against the current subgraph. ---
        let t_score = Timer::start("sparsify.score");
        // Refactorize the current subgraph only for the methods that
        // score against it; the tree-resistance rankings never read it.
        let subgraph_factor = |stats: &mut IterationStats| {
            let t_factor = Timer::start("sparsify.factor");
            let ls = subgraph_laplacian(g, &selected, &shifts);
            let factor = factorize_resilient(&ls, factor_opts, stats);
            stats.factor_time = t_factor.stop();
            factor
        };
        let tree_resistances = || {
            let pairs: Vec<(usize, usize)> =
                candidates.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
            tree_resistances_threads(&tree, &pairs, threads)
        };
        let scores: Vec<f64> = match cfg.method() {
            Method::TraceReduction if iter_idx == 0 => tree_phase_scores_threads(
                g,
                &tree,
                &candidates,
                &tree_resistances(),
                cfg.beta_value(),
                threads,
            ),
            Method::TraceReduction => {
                let factor = subgraph_factor(&mut stats)?;
                let zinv = ApproxInverse::build(
                    factor.l(),
                    SpaiOptions::with_threshold(cfg.spai_threshold_value()),
                )?;
                stats.spai_nnz = zinv.nnz();
                let subgraph = g.edge_subgraph(&selected);
                subgraph_phase_scores_threads(
                    g,
                    &subgraph,
                    &factor,
                    &zinv,
                    &candidates,
                    cfg.beta_value(),
                    threads,
                )
            }
            // Single-pass method; if the user forces more iterations,
            // keep re-ranking by tree resistance.
            Method::EffectiveResistance => candidates
                .iter()
                .zip(tree_resistances())
                .map(|(&id, r)| g.edge(id).weight * r)
                .collect(),
            Method::Grass => {
                let factor = subgraph_factor(&mut stats)?;
                grass_scores_threads(
                    g,
                    &lg,
                    &factor,
                    &candidates,
                    cfg.grass_power_steps_value(),
                    cfg.grass_num_vectors_value(),
                    &mut rng,
                    threads,
                )
            }
            Method::JlResistance => {
                // Spielman–Srivastava: resistances in the *full* graph,
                // which costs a full-graph factorization — exactly the
                // expense the paper's introduction calls out. Single-pass
                // method: later iterations keep the full-graph ranking.
                let t_factor = Timer::start("sparsify.factor");
                let full_factor = factorize_resilient(&lg, factor_opts, &mut stats)?;
                stats.factor_time = t_factor.stop();
                crate::jl::jl_scores(
                    g,
                    &full_factor,
                    &candidates,
                    cfg.jl_probes_value(),
                    cfg.seed_value(),
                )
            }
        };
        stats.score_time = t_score.stop();

        // --- Rank and recover the iteration quota. ---
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            scores[b].total_cmp(&scores[a]).then_with(|| candidates[a].cmp(&candidates[b]))
        });
        let mut picked_flags = vec![false; candidates.len()];
        let mut picked = 0usize;
        if cfg.similarity_exclusion_enabled() {
            excl.begin_iteration();
            let mark_graph = g.edge_subgraph(&selected);
            for &ci in &order {
                if picked == quota {
                    break;
                }
                let e = g.edge(candidates[ci]);
                if excl.is_excluded(e.u, e.v) {
                    stats.excluded_skips += 1;
                    continue;
                }
                picked_flags[ci] = true;
                picked += 1;
                excl.mark_recovered(&mark_graph, e.u, e.v);
            }
        }
        // Honour the budget even when exclusion filtered too aggressively
        // (keeps edge counts identical across methods for fair κ
        // comparisons).
        if picked < quota {
            for &ci in &order {
                if picked == quota {
                    break;
                }
                if !picked_flags[ci] {
                    picked_flags[ci] = true;
                    picked += 1;
                }
            }
        }
        let mut next_candidates = Vec::with_capacity(candidates.len() - picked);
        for (ci, &id) in candidates.iter().enumerate() {
            if picked_flags[ci] {
                selected.push(id);
            } else {
                next_candidates.push(id);
            }
        }
        candidates = next_candidates;
        remaining -= picked;
        stats.recovered = picked;
        if let Some(g) = iter_span.as_mut() {
            g.arg("recovered", picked as f64);
        }
        iterations.push(stats);
    }

    let report = SparsifyReport {
        method: cfg.method(),
        total_time: t_start.stop(),
        tree_time,
        budget,
        degraded_fallbacks: 0,
        iterations,
    };
    Ok(Sparsifier { edge_ids: selected, tree_edge_count, shifts, report })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::relative_condition_number;
    use tracered_graph::gen::{grid2d, random_connected, tri_mesh, WeightProfile};
    use tracered_sparse::order::Ordering;

    fn kappa(g: &Graph, sp: &Sparsifier) -> f64 {
        let lg = sp.graph_laplacian(g);
        let lp = sp.laplacian(g);
        let f = CholeskyFactor::factorize(&lp, Ordering::MinDegree).unwrap();
        relative_condition_number(&lg, &f, 60, 42)
    }

    #[test]
    fn sparsifier_has_tree_plus_budget_edges() {
        let g = grid2d(15, 15, WeightProfile::Unit, 1);
        let cfg = SparsifyConfig::new(Method::TraceReduction);
        let sp = sparsify(&g, &cfg).unwrap();
        let n = g.num_nodes();
        assert_eq!(sp.tree_edge_count(), n - 1);
        assert_eq!(sp.num_recovered(), (0.10f64 * n as f64).round() as usize);
        assert_eq!(sp.edge_ids().len(), sp.tree_edge_count() + sp.num_recovered());
    }

    #[test]
    fn sparsifier_is_connected_subgraph() {
        let g = tri_mesh(12, 12, WeightProfile::LogUniform { lo: 0.1, hi: 10.0 }, 2);
        let sp = sparsify(&g, &SparsifyConfig::default()).unwrap();
        assert!(sp.as_graph(&g).is_connected());
        // No duplicate edge ids.
        let mut ids = sp.edge_ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sp.edge_ids().len());
    }

    #[test]
    fn recovering_edges_improves_kappa_over_tree() {
        let g = grid2d(14, 14, WeightProfile::Unit, 3);
        let tree_only = sparsify(&g, &SparsifyConfig::default().edge_fraction(0.0)).unwrap();
        let sparsified = sparsify(&g, &SparsifyConfig::default()).unwrap();
        let k_tree = kappa(&g, &tree_only);
        let k_sp = kappa(&g, &sparsified);
        assert!(
            k_sp < k_tree,
            "recovered edges must improve conditioning: tree {k_tree} vs sparsifier {k_sp}"
        );
    }

    #[test]
    fn trace_reduction_beats_effective_resistance_on_meshes() {
        // The paper's headline: trace reduction produces better sparsifiers
        // than effective-resistance ranking at the same edge count.
        let g = tri_mesh(14, 14, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 7);
        let k_tr = kappa(&g, &sparsify(&g, &SparsifyConfig::new(Method::TraceReduction)).unwrap());
        let k_er =
            kappa(&g, &sparsify(&g, &SparsifyConfig::new(Method::EffectiveResistance)).unwrap());
        assert!(
            k_tr < k_er * 1.05,
            "trace reduction ({k_tr}) should not lose to effective resistance ({k_er})"
        );
    }

    #[test]
    fn all_methods_produce_equal_edge_counts() {
        let g = grid2d(12, 12, WeightProfile::Unit, 5);
        let counts: Vec<usize> = [
            Method::TraceReduction,
            Method::Grass,
            Method::EffectiveResistance,
            Method::JlResistance,
        ]
        .into_iter()
        .map(|m| sparsify(&g, &SparsifyConfig::new(m)).unwrap().edge_ids().len())
        .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn jl_resistance_produces_competitive_sparsifier() {
        // JL sampling weights w·R_G are the theoretically-grounded
        // criticalities; the sparsifier they produce must be in the same
        // quality league as tree-resistance ranking.
        let g = tri_mesh(12, 12, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 11);
        let k_jl = kappa(&g, &sparsify(&g, &SparsifyConfig::new(Method::JlResistance)).unwrap());
        let k_er =
            kappa(&g, &sparsify(&g, &SparsifyConfig::new(Method::EffectiveResistance)).unwrap());
        assert!(k_jl >= 1.0 && k_er >= 1.0);
        assert!(k_jl < k_er * 3.0, "JL κ {k_jl} should be comparable to tree-ER κ {k_er}");
        // And the full-graph factorization cost is recorded.
        let sp = sparsify(&g, &SparsifyConfig::new(Method::JlResistance)).unwrap();
        assert!(sp.report().iterations[0].factor_time > Duration::ZERO);
    }

    #[test]
    fn zero_fraction_returns_spanning_tree() {
        let g = random_connected(40, 60, WeightProfile::Unit, 9);
        let sp = sparsify(&g, &SparsifyConfig::default().edge_fraction(0.0)).unwrap();
        assert_eq!(sp.edge_ids().len(), 39);
        assert_eq!(sp.num_recovered(), 0);
    }

    #[test]
    fn huge_fraction_recovers_everything() {
        let g = random_connected(30, 50, WeightProfile::Unit, 4);
        let sp = sparsify(&g, &SparsifyConfig::default().edge_fraction(10.0)).unwrap();
        assert_eq!(sp.edge_ids().len(), g.num_edges());
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(matches!(
            sparsify(&g, &SparsifyConfig::default()),
            Err(CoreError::Graph(GraphError::Disconnected { .. }))
        ));
        let e = Graph::from_edges(0, &[]).unwrap();
        assert!(matches!(
            sparsify(&e, &SparsifyConfig::default()),
            Err(CoreError::Graph(GraphError::EmptyGraph))
        ));
    }

    #[test]
    fn report_accounts_for_all_recovered_edges() {
        let g = grid2d(12, 12, WeightProfile::Unit, 8);
        let sp = sparsify(&g, &SparsifyConfig::default().iterations(3)).unwrap();
        let recovered: usize = sp.report().iterations.iter().map(|i| i.recovered).sum();
        assert_eq!(recovered, sp.num_recovered());
        assert_eq!(sp.report().iterations.len(), 3);
        assert!(sp.report().iterations.iter().skip(1).all(|i| i.spai_nnz > 0));
        let text = sp.report().to_string();
        assert!(text.contains("iter 1"));
    }

    #[test]
    fn tracked_trace_decreases_across_iterations() {
        let g = tri_mesh(12, 12, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 4);
        let sp = sparsify(&g, &SparsifyConfig::default().iterations(4).track_trace(true)).unwrap();
        let traces: Vec<f64> = sp
            .report()
            .iterations
            .iter()
            .map(|it| it.trace_estimate.expect("tracking enabled"))
            .collect();
        assert_eq!(traces.len(), 4);
        // Each iteration's recoveries must lower the trace seen by the
        // next one (Hutchinson noise allowed: 5% slack).
        for w in traces.windows(2) {
            assert!(w[1] < w[0] * 1.05, "trace must trend down across iterations: {traces:?}");
        }
        assert!(traces.last().unwrap() * 1.5 < traces[0], "overall drop expected: {traces:?}");
    }

    #[test]
    fn trace_tracking_off_by_default() {
        let g = grid2d(8, 8, WeightProfile::Unit, 2);
        let sp = sparsify(&g, &SparsifyConfig::default()).unwrap();
        assert!(sp.report().iterations.iter().all(|it| it.trace_estimate.is_none()));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = tri_mesh(10, 10, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 6);
        let a = sparsify(&g, &SparsifyConfig::default()).unwrap();
        let b = sparsify(&g, &SparsifyConfig::default()).unwrap();
        assert_eq!(a.edge_ids(), b.edge_ids());
    }

    #[test]
    fn pivot_boost_recovers_singular_full_laplacian_factorization() {
        use tracered_graph::laplacian::ShiftPolicy;
        use tracered_sparse::BoostSchedule;
        let g = grid2d(10, 10, WeightProfile::Unit, 3);
        // An unshifted Laplacian is exactly singular, and JL-resistance
        // scoring factorizes the full graph Laplacian up front: without
        // the resilience ladder the run fails fast...
        let cfg = SparsifyConfig::new(Method::JlResistance).shift(ShiftPolicy::None);
        assert!(matches!(sparsify(&g, &cfg), Err(CoreError::Sparse(_))));
        // ...and recovers with it, reporting the applied shift.
        let boosted = SparsifyConfig::new(Method::JlResistance)
            .shift(ShiftPolicy::None)
            .pivot_boost(Some(BoostSchedule::default()));
        let sp = sparsify(&g, &boosted).unwrap();
        assert!(
            sp.report().iterations.iter().any(|it| it.applied_shift > 0.0),
            "recovery must be visible in IterationStats"
        );
        assert!(sp.as_graph(&g).is_connected());
    }

    #[test]
    fn applied_shift_is_zero_on_healthy_runs() {
        use tracered_sparse::BoostSchedule;
        let g = grid2d(10, 10, WeightProfile::Unit, 3);
        let sp =
            sparsify(&g, &SparsifyConfig::default().pivot_boost(Some(BoostSchedule::default())))
                .unwrap();
        assert!(sp.report().iterations.iter().all(|it| it.applied_shift == 0.0));
    }

    #[test]
    fn single_node_graph_yields_empty_sparsifier() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let sp = sparsify(&g, &SparsifyConfig::default()).unwrap();
        assert!(sp.edge_ids().is_empty());
    }
}
