//! The traced run's layer replay: re-runs each phase's layers from
//! outside the program, on the same inputs, and times every call.
//!
//! - Sparsify: each densification iteration's inputs are rebuilt from
//!   the returned sparsifier (the off-tree order of the spanning tree,
//!   the edge ids in recovery order and each iteration's `recovered`
//!   count), then every layer call of the iteration is timed.
//! - Full-system factors: every ordering candidate the solver tries is
//!   timed, then the numeric factorization on the one it keeps.
//! - Solves and updates: the median call of each kernel is timed and
//!   multiplied by the call count the run reported.
//!
//! Every replay checks that it timed the same work as the real run.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use crate::calls::{
    self, CholPreconditioner, CholeskyFactor, CscMatrix, Graph, KernelVariant, Method, Ordering,
    Outage, PowerGrid, Sparsifier, SparsifyConfig,
};
use crate::workloads::{
    rel_residual, timed, Inputs, Network, Phases, Rep, Workload, BISECT_STEPS, PCG_TOL,
    TRANSIENT_TOL,
};

/// Every per-layer metric with its unit, in output order.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("graph.mmio_read_s", "s"),
    ("graph.laplacian_s", "s"),
    ("graph.tree_s", "s"),
    ("graph.lca_s", "s"),
    ("graph.subgraph_s", "s"),
    ("core.tree_score_s", "s"),
    ("core.subgraph_score_s", "s"),
    ("core.scored", "count"),
    ("core.recovered_per_scored", "1"),
    ("core.excluded_skips", "count"),
    ("sparse.order_s", "s"),
    ("sparse.symbolic_s", "s"),
    ("sparse.numeric_s", "s"),
    ("sparse.factor_nnz", "count"),
    ("sparse.spai_s", "s"),
    ("sparse.spai_nnz", "count"),
    ("sparse.direct_order_s", "s"),
    ("sparse.direct_order_kept", "1"),
    ("sparse.direct_numeric_s", "s"),
    ("sparse.direct_nnz", "count"),
    ("sparse.trisolve_us", "us"),
    ("sparse.trisolve_calls", "count"),
    ("sparse.spmv_us", "us"),
    ("sparse.direct_trisolve_us", "us"),
    ("sparse.update_us", "us"),
    ("sparse.update_fallbacks", "count"),
    ("solver.pcg_s", "s"),
    ("powergrid.dc_s", "s"),
    ("powergrid.stepping_s", "s"),
    ("powergrid.steps", "count"),
    ("powergrid.assemble_us", "us"),
    ("powergrid.contingency_base_s", "s"),
    ("powergrid.contingency_sweep_s", "s"),
    ("partition.inverse_power_s", "s"),
    ("partition.inner_iters", "count"),
    ("obs.coverage.sparsify", "1"),
    ("obs.coverage.solve", "1"),
    ("obs.coverage.direct", "1"),
    ("obs.coverage.contingency", "1"),
    ("obs.overhead", "1"),
];

/// Sparsify calls the traced run pairs with a replay each.
const SPARSIFY_PAIRS: usize = 3;
/// Calls per kernel median.
const KERNEL_SAMPLES: usize = 21;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median seconds of [`KERNEL_SAMPLES`] calls of `f`.
fn median_call(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..KERNEL_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// One replayed PCG solve.
pub struct StepRecord {
    /// Seconds assembling the step matrix (transient only).
    pub assemble_s: f64,
    /// Seconds in the PCG call.
    pub pcg_s: f64,
    /// PCG iterations.
    pub iterations: usize,
    /// Whether PCG reported convergence.
    pub converged: bool,
    /// True relative residual of the returned solution.
    pub rel_residual: f64,
}

/// Replays the variable-step PCG transient's stepping loop step by step
/// from the DC operating point: one `G + C/h` assembly, one right-hand
/// side and one warm-started PCG solve per step.
pub fn transient_steps(
    pg: &PowerGrid,
    pre: &CholPreconditioner,
) -> Result<Vec<StepRecord>, String> {
    let g = calls::conductance(pg);
    let mut v = calls::dc_operating_point(pg)?;
    let grid = calls::transient_time_grid(pg);
    let mut rhs = vec![0.0; v.len()];
    let mut records = Vec::with_capacity(grid.len());
    for w in grid.windows(2) {
        let h = w[1] - w[0];
        let t = Instant::now();
        let shifts: Vec<f64> = pg.capacitance().iter().map(|&c| c / h).collect();
        let a = calls::add_diagonal(&g, &shifts)?;
        let assemble_s = t.elapsed().as_secs_f64();
        calls::transient_rhs(pg, w[1], h, &v, &mut rhs);
        let (sol, pcg_s) =
            timed("replay.pcg", || calls::pcg_with_guess(&a, &rhs, &v, pre, TRANSIENT_TOL));
        records.push(StepRecord {
            assemble_s,
            pcg_s,
            iterations: sol.iterations,
            converged: sol.converged,
            rel_residual: rel_residual(&a, &sol.x, &rhs),
        });
        v = sol.x;
    }
    Ok(records)
}

/// Replays the PCG bisection's inverse-power steps one solve at a time.
pub fn inverse_power_steps(
    inputs: &Inputs,
    g: &Graph,
    l: &CscMatrix,
    pre: &CholPreconditioner,
) -> Vec<StepRecord> {
    let mut records = Vec::with_capacity(BISECT_STEPS);
    calls::fiedler_vector(
        g.num_nodes(),
        |b| {
            let (sol, pcg_s) = timed("replay.pcg", || calls::pcg(l, b, pre, PCG_TOL));
            records.push(StepRecord {
                assemble_s: 0.0,
                pcg_s,
                iterations: sol.iterations,
                converged: sol.converged,
                rel_residual: rel_residual(l, &sol.x, b),
            });
            (sol.x, sol.iterations)
        },
        BISECT_STEPS,
        inputs.seed,
    );
    records
}

/// Per-layer metric values, with the replay-consistency problems found.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Replay-consistency problems (each fails the traced run).
    pub problems: Vec<String>,
}

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown layer {name}");
        *self.values.entry(name).or_insert(0.0) += v;
    }

    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "unknown layer {name}");
        self.values.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Every per-layer metric as `(name, value, unit)`; layers a workload
    /// does not run read 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS.iter().map(|&(name, unit)| (name, self.get(name), unit)).collect()
    }
}

/// Replays TraceReduction sparsify iteration by iteration and records
/// its layers. Returns the summed layer seconds.
fn replay_sparsify(
    g: &Graph,
    cfg: &SparsifyConfig,
    sp: &Sparsifier,
    layers: &mut Layers,
) -> Result<f64, String> {
    let mut total = 0.0;
    let shifts = sp.shifts();
    let (st, t1) = timed("replay.tree", || calls::spanning_tree(g, cfg));
    let (tree_edges, off_tree) = st?;
    // Sparsify roots the tree at the heaviest node (the last maximum).
    let root = (0..g.num_nodes())
        .max_by(|&a, &b| g.weighted_degree(a).total_cmp(&g.weighted_degree(b)))
        .unwrap_or(0);
    let (tree, t2) = timed("replay.tree", || calls::rooted_tree(g, &tree_edges, root));
    let tree = tree?;
    layers.add("graph.tree_s", t1 + t2);
    total += t1 + t2;
    let ids = sp.edge_ids();
    layers.check(ids[..sp.tree_edge_count()] == tree_edges[..], || {
        "sparsify replay: spanning tree differs from the sparsifier's".into()
    });

    let mut selected = tree_edges;
    let mut candidates = off_tree;
    let (mut scored, mut recovered) = (0usize, 0usize);
    for (k, it) in sp.report().iterations.iter().enumerate() {
        layers.check(candidates.len() == it.scored, || {
            format!(
                "sparsify iteration {}: {} candidates, scored {}",
                k + 1,
                candidates.len(),
                it.scored
            )
        });
        scored += candidates.len();
        recovered += it.recovered;
        layers.add("core.excluded_skips", it.excluded_skips as f64);
        if k == 0 {
            let pairs: Vec<(usize, usize)> =
                candidates.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
            let (rs, t) = timed("replay.lca", || calls::tree_resistances(&tree, &pairs));
            layers.add("graph.lca_s", t);
            let (_, s) = timed("replay.tree_score", || {
                calls::tree_phase_scores(g, &tree, &candidates, &rs, cfg.beta_value())
            });
            layers.add("core.tree_score_s", s);
            total += t + s;
        } else {
            let (ls, t) =
                timed("replay.subgraph", || calls::subgraph_laplacian(g, &selected, shifts));
            layers.add("graph.subgraph_s", t);
            let ft = factor(&ls, &[cfg.ordering_value()], cfg.kernel_value())?;
            ft.record_sparsifier(layers);
            let factor = &ft.factor;
            let (zinv, s) = timed("replay.spai", || {
                calls::approx_inverse(factor.l(), cfg.spai_threshold_value())
            });
            let zinv = zinv?;
            layers.add("sparse.spai_s", s);
            layers.add("sparse.spai_nnz", zinv.nnz() as f64);
            layers.check(zinv.nnz() == it.spai_nnz, || {
                format!("sparsify iteration {}: SPAI nnz {} vs {}", k + 1, zinv.nnz(), it.spai_nnz)
            });
            let (sub, u) = timed("replay.subgraph", || calls::edge_subgraph(g, &selected));
            layers.add("graph.subgraph_s", u);
            let (_, c) = timed("replay.subgraph_score", || {
                calls::subgraph_phase_scores(g, &sub, factor, &zinv, &candidates, cfg.beta_value())
            });
            layers.add("core.subgraph_score_s", c);
            total += t + ft.total() + s + u + c;
        }
        if cfg.similarity_exclusion_enabled() {
            // Sparsify marks similarity exclusions on the current subgraph.
            let (_, t) = timed("replay.subgraph", || calls::edge_subgraph(g, &selected));
            layers.add("graph.subgraph_s", t);
            total += t;
        }
        let start = selected.len();
        let picked: HashSet<usize> = ids[start..start + it.recovered].iter().copied().collect();
        selected.extend_from_slice(&ids[start..start + it.recovered]);
        candidates.retain(|id| !picked.contains(id));
    }
    layers.check(selected.len() == ids.len(), || "sparsify replay: edge count differs".into());
    layers.add("core.scored", scored as f64);
    layers.set("core.recovered_per_scored", recovered as f64 / scored.max(1) as f64);
    Ok(total)
}

/// One replayed factorization, by layer.
struct Factored {
    factor: CholeskyFactor,
    /// `Ordering::compute` over every candidate.
    order_s: f64,
    /// Symbolic analysis (nnz(L)) of every candidate.
    symbolic_s: f64,
    /// Ordering plus analysis of the candidate kept.
    kept_order_s: f64,
    /// The numeric factorization on the kept ordering.
    numeric_s: f64,
}

impl Factored {
    fn total(&self) -> f64 {
        self.order_s + self.symbolic_s + self.numeric_s
    }

    /// Adds this factorization to the sparsifier-factor layers.
    fn record_sparsifier(&self, layers: &mut Layers) {
        layers.add("sparse.order_s", self.order_s);
        layers.add("sparse.symbolic_s", self.symbolic_s);
        layers.add("sparse.numeric_s", self.numeric_s);
    }

    /// Adds this factorization, as run `times` times, to the
    /// full-system layers; choosing among candidates is ordering work.
    fn record_direct(&self, layers: &mut Layers, times: usize) {
        let k = times as f64;
        layers.add("sparse.direct_order_s", k * (self.order_s + self.symbolic_s));
        layers.add("sparse.direct_numeric_s", k * self.numeric_s);
        // Seconds for now; [`replay`] divides by the total at the end.
        layers.add("sparse.direct_order_kept", k * self.kept_order_s);
    }
}

/// Replays a factorization: orders and analyzes `a` under every
/// candidate ordering, keeps the smallest nnz(L) (first wins ties, as
/// the solver does) and factors on it. The numeric time is the factor
/// call minus the symbolic analysis it repeats.
fn factor(
    a: &CscMatrix,
    candidates: &[Ordering],
    kernel: KernelVariant,
) -> Result<Factored, String> {
    let (mut order_s, mut symbolic_s) = (0.0, 0.0);
    let mut best = None;
    for &ordering in candidates {
        let (perm, t) = timed("replay.order", || calls::order(ordering, a));
        let perm = perm?;
        let (nnz, s) = timed("replay.symbolic", || calls::symbolic_nnz(a, &perm));
        let nnz = nnz?;
        (order_s, symbolic_s) = (order_s + t, symbolic_s + s);
        if best.as_ref().is_none_or(|&(_, best_nnz, _, _)| nnz < best_nnz) {
            best = Some((perm, nnz, t + s, s));
        }
    }
    let (perm, nnz, kept_order_s, kept_symbolic_s) = best.ok_or("no ordering candidates")?;
    let (f, t) = timed("replay.numeric", || calls::factor_with_perm(a, perm, kernel));
    let f = f?;
    if f.nnz() != nnz {
        return Err(format!("symbolic nnz {nnz} differs from factor nnz {}", f.nnz()));
    }
    let numeric_s = (t - kept_symbolic_s).max(0.0);
    Ok(Factored { factor: f, order_s, symbolic_s, kept_order_s, numeric_s })
}

/// Replays a contingency sweep: its base factor, then one timed
/// update/solve/downdate per matrix outage and one solve per load step.
/// Returns the summed layer seconds.
fn replay_contingency(
    grid: &PowerGrid,
    outages: &[Outage],
    rep: &Rep,
    layers: &mut Layers,
) -> Result<f64, String> {
    let g = calls::conductance(grid);
    let base = factor(&g, &[calls::CONTINGENCY_BASE_ORDERING], KernelVariant::Scalar)?;
    base.record_direct(layers, 1);
    let mut f = base.factor.clone();
    let rhs = calls::dc_rhs(grid);
    let n = rhs.len();
    let (mut x, mut y) = (vec![0.0; n], vec![0.0; n]);
    let (mut pairs, mut solves, mut applied) = (Vec::new(), 0.0, 0usize);
    for outage in outages {
        let (u, v, dw) = match *outage {
            Outage::LineOutage { edge } => {
                let e = grid.graph().edge(edge);
                (e.u, e.v, -e.weight)
            }
            Outage::Reweight { edge, new_weight } => {
                let e = grid.graph().edge(edge);
                (e.u, e.v, new_weight - e.weight)
            }
            Outage::LoadStep { .. } => {
                let (_, t) = timed("replay.solve", || calls::factor_solve(&f, &rhs, &mut x));
                solves += t;
                continue;
            }
        };
        let s = dw.abs().sqrt();
        let mut w = vec![0.0; n];
        (w[u], w[v]) = (s, -s);
        let t = Instant::now();
        let ok = if dw > 0.0 {
            calls::rank1_update(&mut f, &w)
        } else {
            calls::rank1_downdate(&mut f, &w)
        };
        let apply_s = t.elapsed().as_secs_f64();
        if ok.is_err() {
            continue;
        }
        applied += 1;
        let (_, solve_s) = timed("replay.solve", || calls::factor_solve(&f, &rhs, &mut x));
        // The sweep gates every solve on its residual: one SpMV.
        let (_, spmv_s) = timed("replay.spmv", || calls::matvec(&g, &x, &mut y));
        let t = Instant::now();
        if dw > 0.0 {
            calls::rank1_downdate(&mut f, &w)?;
        } else {
            calls::rank1_update(&mut f, &w)?;
        }
        pairs.push(apply_s + t.elapsed().as_secs_f64());
        solves += solve_s + spmv_s;
    }
    let report = &rep.sweeps.last().expect("every repetition sweeps").report;
    layers.check(applied == report.applied_updates, || {
        format!(
            "contingency replay applied {applied} updates, the sweep {}",
            report.applied_updates
        )
    });
    if !pairs.is_empty() {
        layers.set("sparse.update_us", 1e6 * median(&pairs));
    }
    layers.add("sparse.update_fallbacks", report.update_fallbacks as f64);
    layers.set("powergrid.contingency_base_s", report.base_factor_seconds);
    layers.set("powergrid.contingency_sweep_s", report.sweep_seconds);
    Ok(base.total() + pairs.iter().sum::<f64>() + solves)
}

/// Median seconds of one triangular solve pair on `f` and one SpMV on
/// `a`.
fn kernel_medians(f: &CholeskyFactor, a: &CscMatrix) -> (f64, f64) {
    let n = a.ncols();
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
    let mut x = vec![0.0; n];
    let solve = median_call(|| calls::factor_solve(f, &b, &mut x));
    let spmv = median_call(|| calls::matvec(a, &b, &mut x));
    (solve, spmv)
}

/// The last call's seconds: the one whose outputs the replay re-runs.
fn last(samples: &[f64]) -> f64 {
    *samples.last().expect("every phase ran at least once")
}

/// Preconditioner applies of one PCG call that ran `iterations`.
fn applies(iterations: usize) -> usize {
    iterations.max(1)
}

/// Replays every phase of a traced repetition layer by layer; sparsify
/// is called afresh and replayed [`SPARSIFY_PAIRS`] times.
/// `setup` holds the traced run's `(read, assemble)` seconds per set-up;
/// `untraced` the same repetition's phases with tracing off;
/// `direct_nnz` the direct solver's nnz(L) the run reported.
pub fn replay(
    inputs: &Inputs,
    rep: &Rep,
    net: Option<&Network>,
    setup: &[(f64, f64)],
    untraced: &Phases,
    direct_nnz: usize,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let g = rep.sys.graph();
    let reads: Vec<f64> = setup.iter().map(|s| s.0).collect();
    let assembles: Vec<f64> = setup.iter().map(|s| s.1).collect();
    layers.set("graph.mmio_read_s", median(&reads));
    layers.set("graph.laplacian_s", median(&assembles));

    // Each sparsify call is replayed right after it runs, so host speed
    // drifts little within a pair; the pair with the median coverage
    // supplies the layer metrics.
    let cfg = calls::sparsify_config(Method::TraceReduction, &rep.sys.shift);
    let mut pairs = Vec::with_capacity(SPARSIFY_PAIRS);
    for _ in 0..SPARSIFY_PAIRS {
        let (sp, t) = timed("bench.sparsify", || calls::sparsify(g, &cfg));
        let sp = sp?;
        let mut l = Layers::default();
        l.check(sp.edge_ids() == rep.tr.edge_ids(), || "sparsify calls disagree".into());
        let total = replay_sparsify(g, &cfg, &sp, &mut l)?;
        layers.problems.append(&mut l.problems);
        pairs.push((total / t, l));
    }
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (coverage, sparsify_layers) = pairs.swap_remove(pairs.len() / 2);
    layers.values.extend(sparsify_layers.values);
    layers.set("obs.coverage.sparsify", coverage);

    // Solve phase.
    let pre_factor = rep.pre.factor();
    let mut solve_layers = 0.0;
    if inputs.workload != Workload::Table2 {
        let (lp, t) = timed("replay.subgraph", || calls::sparsifier_laplacian(&rep.tr, g));
        layers.add("graph.subgraph_s", t);
        let ft = factor(&lp, &[Ordering::MinDegree], KernelVariant::Scalar)?;
        layers.check(ft.factor.nnz() == pre_factor.nnz(), || {
            format!("preconditioner replay nnz {} vs {}", ft.factor.nnz(), pre_factor.nnz())
        });
        ft.record_sparsifier(&mut layers);
        solve_layers += t + ft.total();
    }
    layers.set("sparse.factor_nnz", pre_factor.nnz() as f64);
    let (trisolve_s, spmv_s) = kernel_medians(pre_factor, &rep.sys.matrix);
    layers.set("sparse.trisolve_us", 1e6 * trisolve_s);
    layers.set("sparse.spmv_us", 1e6 * spmv_s);
    let mut pcg_times = Vec::new();
    let mut trisolve_calls = 0usize;
    match inputs.workload {
        Workload::Table1 => {
            let sols = rep.solutions.last().expect("table1 solves");
            for (b, sol) in inputs.rhs.iter().zip(sols) {
                let (again, t) =
                    timed("replay.pcg", || calls::pcg(&rep.sys.matrix, b, &rep.pre, PCG_TOL));
                layers.check(again.iterations == sol.iterations, || {
                    format!(
                        "PCG replay took {} iterations, the run {}",
                        again.iterations, sol.iterations
                    )
                });
                pcg_times.push(t);
                trisolve_calls += applies(sol.iterations);
            }
        }
        Workload::Table2 => {
            let pg = rep.sys.grid.as_ref().expect("table2 builds a power grid");
            let run = rep.pcg_run.as_ref().expect("table2 runs PCG");
            let (dc, dc_s) = timed("replay.dc", || calls::dc_operating_point(pg));
            dc?;
            layers.set("powergrid.dc_s", dc_s);
            layers.set("powergrid.stepping_s", (last(&rep.times.solve) - dc_s).max(0.0));
            let steps = transient_steps(pg, &rep.pre)?;
            let iters: usize = steps.iter().map(|s| s.iterations).sum();
            layers.check(steps.len() == run.stats.steps, || {
                format!("transient replay: {} steps, the run {}", steps.len(), run.stats.steps)
            });
            layers.check(iters == run.stats.total_pcg_iterations, || {
                format!(
                    "transient replay: {iters} iterations, the run {}",
                    run.stats.total_pcg_iterations
                )
            });
            layers.set("powergrid.steps", run.stats.steps as f64);
            let assemble: Vec<f64> = steps.iter().map(|s| s.assemble_s).collect();
            layers.set("powergrid.assemble_us", 1e6 * median(&assemble));
            pcg_times = steps.iter().map(|s| s.pcg_s).collect();
            trisolve_calls = steps.iter().map(|s| applies(s.iterations)).sum();
            solve_layers += dc_s + assemble.iter().sum::<f64>();
        }
        Workload::Table3 => {
            let (bis, bis_s) = rep.bisect_pcg.last().expect("table3 bisects by PCG");
            let steps = inverse_power_steps(inputs, g, &rep.sys.matrix, &rep.pre);
            let iters: usize = steps.iter().map(|s| s.iterations).sum();
            layers.check(iters == bis.inner_iterations, || {
                format!(
                    "inverse-power replay: {iters} iterations, the run {}",
                    bis.inner_iterations
                )
            });
            layers.set("partition.inverse_power_s", *bis_s);
            layers.set("partition.inner_iters", bis.inner_iterations as f64);
            pcg_times = steps.iter().map(|s| s.pcg_s).collect();
            trisolve_calls = steps.iter().map(|s| applies(s.iterations)).sum();
        }
    }
    layers.set("solver.pcg_s", median(&pcg_times));
    layers.set("sparse.trisolve_calls", trisolve_calls as f64);
    solve_layers += pcg_times.iter().sum::<f64>();
    layers.set("obs.coverage.solve", solve_layers / last(&rep.times.solve));

    // Direct phase.
    let (full, direct_layers) = match inputs.workload {
        Workload::Table1 => {
            let full =
                factor(&rep.sys.matrix, &[Ordering::NestedDissection], KernelVariant::Scalar)?;
            let (solve_s, _) = kernel_medians(&full.factor, &rep.sys.matrix);
            layers.set("sparse.direct_trisolve_us", 1e6 * solve_s);
            let total = full.total() + solve_s * inputs.rhs.len() as f64;
            (full, total)
        }
        Workload::Table2 => {
            let pg = rep.sys.grid.as_ref().expect("table2 builds a power grid");
            let run = rep.direct_run.as_ref().expect("table2 runs direct");
            let h = calls::transient_direct_config().fixed_step.expect("fixed step");
            let a = calls::transient_matrix(pg, h);
            let full = factor(&a, &calls::DIRECT_CANDIDATES, KernelVariant::Scalar)?;
            // Both transients take a DC operating point from a factor of G.
            let dc =
                factor(&calls::conductance(pg), &calls::DIRECT_CANDIDATES, KernelVariant::Scalar)?;
            dc.record_direct(&mut layers, 2);
            let (solve_s, _) = kernel_medians(&full.factor, &a);
            layers.set("sparse.direct_trisolve_us", 1e6 * solve_s);
            let total = full.total() + dc.total() + solve_s * (run.stats.steps + 1) as f64;
            (full, total)
        }
        Workload::Table3 => {
            let (l, t) = timed("replay.laplacian", || {
                let s = calls::partition_shift(g);
                calls::laplacian(g, &vec![s; g.num_nodes()])
            });
            let full = factor(&l, &calls::DIRECT_CANDIDATES, KernelVariant::Scalar)?;
            let (solve_s, _) = kernel_medians(&full.factor, &l);
            layers.set("sparse.direct_trisolve_us", 1e6 * solve_s);
            let total = t + full.total() + solve_s * BISECT_STEPS as f64;
            (full, total)
        }
    };
    full.record_direct(&mut layers, 1);
    let nnz = full.factor.nnz();
    layers.check(nnz == direct_nnz, || {
        format!("direct replay kept nnz(L) {nnz}, the direct solver's {direct_nnz}")
    });
    layers.set("sparse.direct_nnz", nnz as f64);
    layers.set("obs.coverage.direct", direct_layers / last(&rep.times.direct));

    // Contingency phase.
    let contingency_layers = match (inputs.workload, net) {
        (Workload::Table2, _) => {
            let pg = rep.sys.grid.as_ref().expect("table2 builds a power grid");
            replay_contingency(pg, &inputs.outages, rep, &mut layers)?
        }
        (_, Some(net)) => replay_contingency(&net.grid, &net.outages, rep, &mut layers)?,
        (_, None) => return Err("no network was screened".into()),
    };
    layers.set("obs.coverage.contingency", contingency_layers / last(&rep.times.contingency));

    let kept = layers.get("sparse.direct_order_kept");
    let order = layers.get("sparse.direct_order_s");
    layers.set("sparse.direct_order_kept", if order > 0.0 { kept / order } else { 0.0 });
    layers.set("obs.overhead", rep.times.median_sum() / untraced.median_sum() - 1.0);
    Ok(layers)
}
