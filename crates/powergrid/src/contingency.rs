//! N-1/N-k contingency screening over incremental factor updates.
//!
//! The canonical production workload of the paper's solver: given a DC
//! operating grid, sweep a list of [`Outage`] perturbations — line
//! removals, conductance reweights, load steps — and report the
//! post-contingency voltage profile of each. Every line outage or
//! reweight is a *rank-1* perturbation of the conductance Laplacian
//! (`G' = G + Δw (e_u − e_v)(e_u − e_v)ᵀ`), so
//! [`simulate_contingency_batch`] screens it by updating one shared
//! Cholesky factor in place ([`tracered_sparse::update`]) instead of
//! refactorizing per outage, and reverts bit-exactly through the
//! factor's undo journal before moving to the next outage. Load steps
//! leave `G` untouched and are batched through the blocked multi-RHS
//! machinery (direct substitution or `block_pcg`, per
//! [`ContingencyMethod`]).
//!
//! Failure is data, not control flow: a disconnecting outage (removing
//! a bridge into a pad-free region makes `G'` singular) is classified
//! as [`OutageFailureKind::SingularPerturbation`] — detected either by
//! the downdate's typed loss-of-positive-definiteness error or by the
//! post-solve residual gate after the regularized-refactorization
//! fallback — and the sweep continues; survivors are solved against the
//! bit-identical base factor. [`simulate_contingency_refactor`] is the
//! naive refactor-per-outage reference loop that the equivalence suite
//! (and the `contingency_scaling --check` bench gate) holds the batch
//! path to, outage for outage.
//!
//! An optional [`EpochHook`] observes every applied/reverted
//! matrix-level perturbation so the service layer can bump its epoch
//! and invalidate cached factors while a perturbation is in force.

use std::time::Instant;

use tracered_solver::precond::CholPreconditioner;
use tracered_solver::{block_pcg, PcgOptions, TerminationReason};
use tracered_sparse::order::Ordering;
use tracered_sparse::{
    BoostSchedule, CholeskyFactor, CscMatrix, FactorOptions, MultiVec, SparseError,
};

use crate::netlist::PowerGrid;

/// One contingency to screen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outage {
    /// Remove mesh edge `edge` entirely (the N-1 line outage).
    LineOutage {
        /// Mesh edge id in [`crate::PowerGrid::graph`].
        edge: usize,
    },
    /// Change mesh edge `edge`'s conductance to `new_weight` siemens.
    Reweight {
        /// Mesh edge id.
        edge: usize,
        /// The new conductance (must be finite and non-negative).
        new_weight: f64,
    },
    /// Additional current draw at `node` (amps, positive = more load).
    /// Perturbs only the right-hand side, not the matrix.
    LoadStep {
        /// Grid node index.
        node: usize,
        /// Extra drawn current (must be finite).
        extra_current: f64,
    },
}

/// Why an outage was rejected before any numeric work.
///
/// Deliberately integer-only (no float payloads): failure
/// classifications compare bitwise between the batch and the
/// refactor-reference paths, and a NaN payload would break `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum InvalidOutageKind {
    /// Edge id past the mesh edge count.
    EdgeOutOfBounds {
        /// The offending edge id.
        edge: usize,
        /// Edges in the mesh.
        num_edges: usize,
    },
    /// Reweight target is NaN or infinite.
    NonFiniteWeight {
        /// The offending edge id.
        edge: usize,
    },
    /// Reweight target is negative (a negative conductance).
    NegativeWeight {
        /// The offending edge id.
        edge: usize,
    },
    /// Node id past the grid node count.
    NodeOutOfBounds {
        /// The offending node id.
        node: usize,
        /// Nodes in the grid.
        num_nodes: usize,
    },
    /// Load-step current is NaN or infinite.
    NonFiniteCurrent {
        /// The offending node id.
        node: usize,
    },
}

/// Why one outage failed. The downdate-refused, refactorization-refused
/// and residual-rejected routes to a singular perturbation all collapse
/// into [`OutageFailureKind::SingularPerturbation`]: *which mechanism*
/// detected it depends on rounding, *that the outage disconnects the
/// grid* does not, and only the latter is part of the classification
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OutageFailureKind {
    /// Rejected by validation before any numerics.
    Invalid(InvalidOutageKind),
    /// The perturbed conductance matrix is not positive definite (e.g.
    /// the outage disconnects a pad-free region), or its solves fail
    /// the residual gate.
    SingularPerturbation,
    /// The iterative solver for a load-step column broke down.
    SolverBreakdown {
        /// The solver's termination classification.
        reason: TerminationReason,
    },
    /// A non-finite voltage appeared in an otherwise successful solve.
    NonFiniteState,
}

/// One failed outage: which, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageFailure {
    /// Index into the sweep's outage list.
    pub outage: usize,
    /// The classification.
    pub kind: OutageFailureKind,
}

/// The post-contingency solve of one surviving outage.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSolve {
    /// Index into the sweep's outage list.
    pub outage: usize,
    /// Post-contingency voltages at the requested probe nodes.
    pub probes: Vec<f64>,
    /// Smallest post-contingency node voltage (droop worst case).
    pub min_voltage: f64,
    /// Largest post-contingency node voltage.
    pub max_voltage: f64,
    /// Relative residual of the solve against the *true* perturbed
    /// system (the classification gate this solve passed).
    pub rel_residual: f64,
    /// PCG iterations (0 for direct substitution).
    pub iterations: usize,
    /// Whether the batch path had to fall back from an incremental
    /// update to a regularized refactorization for this outage.
    pub used_fallback: bool,
    /// Diagonal boost the fallback factorization applied (0 when
    /// unboosted or no fallback was taken).
    pub applied_shift: f64,
}

/// Per-outage verdict: a solve or a classified failure — never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum OutageOutcome {
    /// The outage was screened successfully.
    Completed(OutageSolve),
    /// The outage failed with a typed classification.
    Failed(OutageFailure),
}

impl OutageOutcome {
    /// `true` for [`OutageOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, OutageOutcome::Completed(_))
    }

    /// The solve, if completed.
    pub fn result(&self) -> Option<&OutageSolve> {
        match self {
            OutageOutcome::Completed(s) => Some(s),
            OutageOutcome::Failed(_) => None,
        }
    }

    /// The failure, if failed.
    pub fn failure(&self) -> Option<&OutageFailure> {
        match self {
            OutageOutcome::Completed(_) => None,
            OutageOutcome::Failed(f) => Some(f),
        }
    }
}

/// One applied or reverted matrix-level perturbation, as seen by an
/// [`EpochHook`].
#[derive(Debug, Clone, Copy)]
pub struct OutageEvent {
    /// Index into the sweep's outage list.
    pub outage: usize,
    /// The sweep-local epoch after this transition (monotonically
    /// increasing from [`ContingencyConfig::epoch_base`]).
    pub epoch: u64,
    /// Whether the perturbation was realized by a refactorization
    /// fallback instead of an in-place factor update.
    pub used_fallback: bool,
}

/// Observer of the sweep's epoch transitions. The service layer
/// implements this to bump its published epoch whenever a perturbation
/// is in force, so requests pinned to the pre-outage topology are
/// rejected as stale instead of silently answered from an invalidated
/// factor. Load steps never fire it — they do not touch the matrix.
pub trait EpochHook {
    /// A matrix-level perturbation took effect.
    fn outage_applied(&self, event: &OutageEvent);
    /// The perturbation was reverted; the base topology is current
    /// again (bit-identical to before the outage).
    fn outage_reverted(&self, event: &OutageEvent);
}

/// How load-step (RHS-only) outages are solved. Matrix-perturbing
/// outages always solve directly through the updated factor — it *is*
/// an exact factorization of the perturbed system — so the method
/// choice only steers the batched load-step group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContingencyMethod {
    /// Blocked triangular substitution against the base factor.
    Direct,
    /// Blocked PCG ([`tracered_solver::block_pcg`]) preconditioned by
    /// the base factor.
    Pcg {
        /// Relative residual target per column.
        rel_tolerance: f64,
        /// Iteration cap per column.
        max_iterations: usize,
    },
}

/// Tuning knobs of a contingency sweep.
#[derive(Debug, Clone)]
pub struct ContingencyConfig {
    /// Solver for the load-step group (see [`ContingencyMethod`]).
    pub method: ContingencyMethod,
    /// Worker threads for factorizations (base and fallback). The
    /// factor kernels are bit-identical at every count.
    pub factor_threads: usize,
    /// Worker threads for the PCG kernels of the load-step group.
    pub solver_threads: usize,
    /// Boost ladder for the refactorization fallback.
    pub boost: BoostSchedule,
    /// Relative-residual gate separating a usable post-contingency
    /// solve from the garbage a boosted factorization of a singular
    /// perturbation produces.
    pub residual_tol: f64,
    /// Starting epoch reported through the [`EpochHook`].
    pub epoch_base: u64,
}

impl Default for ContingencyConfig {
    fn default() -> Self {
        ContingencyConfig {
            method: ContingencyMethod::Direct,
            factor_threads: 1,
            solver_threads: 1,
            boost: BoostSchedule::default(),
            residual_tol: 1e-8,
            epoch_base: 0,
        }
    }
}

impl ContingencyConfig {
    /// Checks the knobs a sweep cannot run without — the boost ladder
    /// and the residual gate — and returns the options of the base
    /// factorization and of the boosted refactorization fallback. Both
    /// sweeps call this before any work, so a bad config is an error
    /// even when no outage would reach the fallback.
    fn checked_factor_options(&self) -> Result<(FactorOptions, FactorOptions), SparseError> {
        self.boost.validate()?;
        if !self.residual_tol.is_finite() || self.residual_tol <= 0.0 {
            return Err(SparseError::InvalidValue {
                what: format!("residual_tol {} must be finite and > 0", self.residual_tol),
            });
        }
        let base = FactorOptions {
            ordering: Ordering::MinDegree,
            threads: self.factor_threads,
            boost: None,
        };
        Ok((base, FactorOptions { boost: Some(self.boost), ..base }))
    }
}

/// Bookkeeping of one sweep, mirroring the PR 6 `degraded_fallbacks`
/// convention: every degradation is counted, none is silent.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContingencyReport {
    /// Outages requested.
    pub outages: usize,
    /// Matrix perturbations realized by an in-place rank-1
    /// update/downdate.
    pub applied_updates: usize,
    /// Matrix perturbations that fell back from an update to a
    /// regularized refactorization (update refused the perturbation).
    pub update_fallbacks: usize,
    /// Full factorizations performed after the base factor (fallbacks
    /// here; every matrix outage in the refactor reference).
    pub refactorizations: usize,
    /// RHS-only outages (load steps) served by the blocked group solve.
    pub rhs_only: usize,
    /// Outages screened successfully.
    pub completed: usize,
    /// Outages that failed with a typed classification.
    pub failures: usize,
    /// Epoch counter after the sweep (== `epoch_base` iff no matrix
    /// perturbation was applied).
    pub final_epoch: u64,
    /// Seconds spent factorizing the base conductance matrix.
    pub base_factor_seconds: f64,
    /// Seconds spent sweeping (everything after the base factor).
    pub sweep_seconds: f64,
}

/// Result of a contingency sweep: one [`OutageOutcome`] per requested
/// outage, in request order, plus the sweep accounting.
#[derive(Debug, Clone)]
pub struct ContingencySweep {
    /// Per-outage verdicts, index-aligned with the request list.
    pub outcomes: Vec<OutageOutcome>,
    /// Sweep accounting.
    pub report: ContingencyReport,
}

/// A validated outage, reduced to its numeric effect.
enum Perturb {
    /// `G' = G + dw (e_u − e_v)(e_u − e_v)ᵀ`.
    Matrix { u: usize, v: usize, dw: f64 },
    /// `b' = b − extra · e_node` (more drawn current lowers the RHS).
    Rhs { node: usize, extra: f64 },
}

fn validate(pg: &PowerGrid, outage: &Outage) -> Result<Perturb, InvalidOutageKind> {
    let g = pg.graph();
    match *outage {
        Outage::LineOutage { edge } => {
            if edge >= g.num_edges() {
                return Err(InvalidOutageKind::EdgeOutOfBounds { edge, num_edges: g.num_edges() });
            }
            let e = g.edge(edge);
            Ok(Perturb::Matrix { u: e.u, v: e.v, dw: -e.weight })
        }
        Outage::Reweight { edge, new_weight } => {
            if edge >= g.num_edges() {
                return Err(InvalidOutageKind::EdgeOutOfBounds { edge, num_edges: g.num_edges() });
            }
            if !new_weight.is_finite() {
                return Err(InvalidOutageKind::NonFiniteWeight { edge });
            }
            if new_weight < 0.0 {
                return Err(InvalidOutageKind::NegativeWeight { edge });
            }
            let e = g.edge(edge);
            Ok(Perturb::Matrix { u: e.u, v: e.v, dw: new_weight - e.weight })
        }
        Outage::LoadStep { node, extra_current } => {
            if node >= pg.num_nodes() {
                return Err(InvalidOutageKind::NodeOutOfBounds { node, num_nodes: pg.num_nodes() });
            }
            if !extra_current.is_finite() {
                return Err(InvalidOutageKind::NonFiniteCurrent { node });
            }
            Ok(Perturb::Rhs { node, extra: extra_current })
        }
    }
}

/// `G + dw (e_u − e_v)(e_u − e_v)ᵀ` assembled by adjusting the four
/// affected entries (all present in a mesh Laplacian's pattern).
fn perturbed_matrix(g: &CscMatrix, u: usize, v: usize, dw: f64) -> CscMatrix {
    let mut gp = g.clone();
    for (r, c, delta) in [(u, u, dw), (v, v, dw), (u, v, -dw), (v, u, -dw)] {
        let idx = {
            let (rows, _) = gp.col(c);
            gp.colptr()[c] + rows.binary_search(&r).expect("mesh edge entry present in G")
        };
        gp.values_mut()[idx] += delta;
    }
    gp
}

/// Relative residual of `x` against the rank-1-perturbed system
/// `(G + dw b bᵀ) x = rhs` without assembling the perturbed matrix: one
/// base SpMV plus an `O(1)` correction.
fn perturbed_rel_residual(
    g: &CscMatrix,
    u: usize,
    v: usize,
    dw: f64,
    x: &[f64],
    rhs: &[f64],
    rhs_inf: f64,
) -> f64 {
    let mut r = g.matvec(x);
    let flow = dw * (x[u] - x[v]);
    r[u] += flow;
    r[v] -= flow;
    let mut worst = 0.0f64;
    for (ri, bi) in r.iter().zip(rhs) {
        worst = worst.max((ri - bi).abs());
    }
    worst / rhs_inf
}

/// Classifies a completed direct solve: non-finite state, then the
/// residual gate, then success. Shared verbatim by the batch and
/// refactor-reference paths so their classifications agree bitwise.
#[allow(clippy::too_many_arguments)]
fn classify_solve(
    outage: usize,
    x: Vec<f64>,
    rel_residual: f64,
    residual_tol: f64,
    probes: &[usize],
    iterations: usize,
    used_fallback: bool,
    applied_shift: f64,
) -> OutageOutcome {
    if x.iter().any(|v| !v.is_finite()) {
        return OutageOutcome::Failed(OutageFailure {
            outage,
            kind: OutageFailureKind::NonFiniteState,
        });
    }
    // NaN residuals fail the gate too.
    if rel_residual.is_nan() || rel_residual > residual_tol {
        return OutageOutcome::Failed(OutageFailure {
            outage,
            kind: OutageFailureKind::SingularPerturbation,
        });
    }
    let mut min_v = f64::INFINITY;
    let mut max_v = f64::NEG_INFINITY;
    for &vi in &x {
        min_v = min_v.min(vi);
        max_v = max_v.max(vi);
    }
    OutageOutcome::Completed(OutageSolve {
        outage,
        probes: probes.iter().map(|&p| x[p]).collect(),
        min_voltage: min_v,
        max_voltage: max_v,
        rel_residual,
        iterations,
        used_fallback,
        applied_shift,
    })
}

/// The regularized-refactorization route for one matrix outage: used as
/// the batch path's fallback when the incremental update refuses the
/// perturbation, and for every matrix outage of the refactor reference.
#[allow(clippy::too_many_arguments)]
fn solve_by_refactor(
    i: usize,
    g: &CscMatrix,
    u: usize,
    v: usize,
    dw: f64,
    rhs: &[f64],
    rhs_inf: f64,
    probes: &[usize],
    fallback: FactorOptions,
    residual_tol: f64,
    used_fallback: bool,
    report: &mut ContingencyReport,
) -> Result<OutageOutcome, SparseError> {
    let gp = perturbed_matrix(g, u, v, dw);
    report.refactorizations += 1;
    match CholeskyFactor::factorize(&gp, fallback) {
        Ok(factor) => {
            let x = factor.solve(rhs);
            let rel = gp.residual_inf_norm(&x, rhs) / rhs_inf;
            Ok(classify_solve(
                i,
                x,
                rel,
                residual_tol,
                probes,
                0,
                used_fallback,
                factor.applied_shift(),
            ))
        }
        Err(SparseError::NotPositiveDefinite { .. }) => Ok(OutageOutcome::Failed(OutageFailure {
            outage: i,
            kind: OutageFailureKind::SingularPerturbation,
        })),
        Err(e) => Err(e),
    }
}

/// Screens `outages` against `pg`'s DC operating point by incremental
/// factor update/downdate, reverting each matrix perturbation bit-
/// exactly before the next. Load steps are batched through one blocked
/// multi-RHS solve. `probes` selects the nodes whose post-contingency
/// voltages each [`OutageSolve`] carries.
///
/// Individual outages never abort the sweep: a disconnecting outage, a
/// breakdown, or an out-of-bounds request is a classified
/// [`OutageOutcome::Failed`] and the remaining outages are screened
/// against the unperturbed base factor, bit-identical to a sweep
/// without the failure.
///
/// # Errors
///
/// [`SparseError`] only for sweep-level failures, all raised before any
/// outage is screened:
/// - [`SparseError::InvalidValue`] for an invalid
///   [`ContingencyConfig::boost`] ladder, or a
///   [`ContingencyConfig::residual_tol`] that is not finite and positive;
/// - the factorization error when the *base* conductance matrix does not
///   factorize (the grid itself is broken).
///
/// # Panics
///
/// Panics if a probe node is out of bounds (caller contract, as in the
/// transient engines).
///
/// # Example
///
/// ```
/// use tracered_powergrid::contingency::{
///     simulate_contingency_batch, ContingencyConfig, Outage,
/// };
/// use tracered_powergrid::synth::{synthesize, SynthConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pg = synthesize(&SynthConfig { mesh: 8, ..Default::default() });
/// let outages = vec![
///     Outage::LineOutage { edge: 0 },
///     Outage::Reweight { edge: 3, new_weight: 0.5 },
///     Outage::LoadStep { node: 10, extra_current: 1e-3 },
/// ];
/// let sweep = simulate_contingency_batch(
///     &pg,
///     &outages,
///     &[0],
///     &ContingencyConfig::default(),
///     None,
/// )?;
/// assert_eq!(sweep.outcomes.len(), 3);
/// assert!(sweep.outcomes.iter().all(|o| o.is_completed()));
/// # Ok(())
/// # }
/// ```
pub fn simulate_contingency_batch(
    pg: &PowerGrid,
    outages: &[Outage],
    probes: &[usize],
    cfg: &ContingencyConfig,
    hook: Option<&dyn EpochHook>,
) -> Result<ContingencySweep, SparseError> {
    let n = pg.num_nodes();
    for &p in probes {
        assert!(p < n, "probe node {p} out of bounds for {n} nodes");
    }
    let (base_opts, fallback) = cfg.checked_factor_options()?;
    let mut span = tracered_obs::span!("contingency.sweep", { n: n, outages: outages.len() });
    let g = pg.conductance_shared();
    let rhs = pg.dc_rhs();
    let rhs_inf = rhs.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(f64::MIN_POSITIVE);

    let mut report = ContingencyReport {
        outages: outages.len(),
        final_epoch: cfg.epoch_base,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut factor = CholeskyFactor::factorize(&g, base_opts)?;
    report.base_factor_seconds = t0.elapsed().as_secs_f64();

    let sweep_t = Instant::now();
    let mut outcomes: Vec<Option<OutageOutcome>> = vec![None; outages.len()];
    let mut matrix_group: Vec<(usize, usize, usize, f64)> = Vec::new();
    let mut rhs_group: Vec<(usize, usize, f64)> = Vec::new();
    for (i, outage) in outages.iter().enumerate() {
        match validate(pg, outage) {
            Ok(Perturb::Matrix { u, v, dw }) => matrix_group.push((i, u, v, dw)),
            Ok(Perturb::Rhs { node, extra }) => rhs_group.push((i, node, extra)),
            Err(kind) => {
                outcomes[i] = Some(OutageOutcome::Failed(OutageFailure {
                    outage: i,
                    kind: OutageFailureKind::Invalid(kind),
                }));
            }
        }
    }

    // Load-step group: one blocked solve against the (pristine) base
    // factor — the matrix is untouched, so every column shares it.
    if !rhs_group.is_empty() {
        report.rhs_only = rhs_group.len();
        let _rhs_span = tracered_obs::span!("contingency.rhs_batch", { width: rhs_group.len() });
        let mut b = MultiVec::zeros(n, rhs_group.len());
        for (j, &(_, node, extra)) in rhs_group.iter().enumerate() {
            let col = b.col_mut(j);
            col.copy_from_slice(&rhs);
            col[node] -= extra;
        }
        match cfg.method {
            ContingencyMethod::Direct => {
                let x = factor.solve_multi(&b);
                for (j, &(i, _, _)) in rhs_group.iter().enumerate() {
                    let xj = x.col(j).to_vec();
                    let rel = g.residual_inf_norm(&xj, b.col(j)) / rhs_inf;
                    outcomes[i] =
                        Some(classify_solve(i, xj, rel, cfg.residual_tol, probes, 0, false, 0.0));
                }
            }
            ContingencyMethod::Pcg { rel_tolerance, max_iterations } => {
                let pre = CholPreconditioner::from_factor(factor.clone());
                let opts = PcgOptions {
                    rel_tolerance,
                    max_iterations,
                    threads: cfg.solver_threads.max(1),
                };
                let sol = block_pcg(&g, &b, &pre, &opts);
                for (j, &(i, _, _)) in rhs_group.iter().enumerate() {
                    if !sol.converged[j] {
                        outcomes[i] = Some(OutageOutcome::Failed(OutageFailure {
                            outage: i,
                            kind: OutageFailureKind::SolverBreakdown { reason: sol.reasons[j] },
                        }));
                        continue;
                    }
                    let xj = sol.x.col(j).to_vec();
                    let rel = g.residual_inf_norm(&xj, b.col(j)) / rhs_inf;
                    outcomes[i] = Some(classify_solve(
                        i,
                        xj,
                        rel,
                        cfg.residual_tol,
                        probes,
                        sol.iterations[j],
                        false,
                        0.0,
                    ));
                }
            }
        }
    }

    // Matrix-perturbing outages: apply → solve → classify → revert,
    // sequentially against the one shared factor.
    let mut epoch = cfg.epoch_base;
    for &(i, u, v, dw) in &matrix_group {
        let _outage_span = tracered_obs::span!("contingency.outage", { outage: i });
        if dw == 0.0 {
            // A no-op reweight: the base operating point is the answer.
            let x = factor.solve(&rhs);
            let rel = g.residual_inf_norm(&x, &rhs) / rhs_inf;
            outcomes[i] = Some(classify_solve(i, x, rel, cfg.residual_tol, probes, 0, false, 0.0));
            continue;
        }
        let s = dw.abs().sqrt();
        let mut w = vec![0.0; n];
        w[u] = s;
        w[v] = -s;
        let applied = if dw > 0.0 { factor.update(&w) } else { factor.downdate(&w) };
        match applied {
            Ok(_) => {
                report.applied_updates += 1;
                epoch += 1;
                let event = OutageEvent { outage: i, epoch, used_fallback: false };
                if let Some(h) = hook {
                    h.outage_applied(&event);
                }
                let x = {
                    let _span = tracered_obs::span!("contingency.solve");
                    factor.solve(&rhs)
                };
                let rel = {
                    let _span = tracered_obs::span!("contingency.residual");
                    perturbed_rel_residual(&g, u, v, dw, &x, &rhs, rhs_inf)
                };
                outcomes[i] =
                    Some(classify_solve(i, x, rel, cfg.residual_tol, probes, 0, false, 0.0));
                // Bit-exact revert through the factor's undo journal.
                let reverted = if dw > 0.0 { factor.downdate(&w) } else { factor.update(&w) };
                if reverted.is_err() {
                    // Defensive only — the journal guarantees the
                    // inverse of the op just applied. Rebuild rather
                    // than continue on a perturbed factor.
                    factor = CholeskyFactor::factorize(&g, base_opts)?;
                }
                epoch += 1;
                let event = OutageEvent { outage: i, epoch, used_fallback: false };
                if let Some(h) = hook {
                    h.outage_reverted(&event);
                }
            }
            Err(SparseError::NotPositiveDefinite { .. }) => {
                // The incremental path refused the perturbation (factor
                // left bit-identical). Escalate through the regularized
                // refactorization ladder on the assembled G'.
                report.update_fallbacks += 1;
                epoch += 1;
                let event = OutageEvent { outage: i, epoch, used_fallback: true };
                if let Some(h) = hook {
                    h.outage_applied(&event);
                }
                outcomes[i] = Some(solve_by_refactor(
                    i,
                    &g,
                    u,
                    v,
                    dw,
                    &rhs,
                    rhs_inf,
                    probes,
                    fallback,
                    cfg.residual_tol,
                    true,
                    &mut report,
                )?);
                epoch += 1;
                let event = OutageEvent { outage: i, epoch, used_fallback: true };
                if let Some(h) = hook {
                    h.outage_reverted(&event);
                }
            }
            Err(e) => return Err(e),
        }
    }
    report.final_epoch = epoch;

    for (i, slot) in outcomes.iter().enumerate() {
        debug_assert!(slot.is_some(), "outage {i} left unclassified");
    }
    let outcomes: Vec<OutageOutcome> =
        outcomes.into_iter().map(|o| o.expect("classified")).collect();
    report.completed = outcomes.iter().filter(|o| o.is_completed()).count();
    report.failures = outcomes.len() - report.completed;
    report.sweep_seconds = sweep_t.elapsed().as_secs_f64();
    if let Some(s) = span.as_mut() {
        s.arg("failures", report.failures as f64);
        s.arg("fallbacks", report.update_fallbacks as f64);
    }
    Ok(ContingencySweep { outcomes, report })
}

/// The naive reference: every matrix outage re-assembles the perturbed
/// conductance matrix and refactorizes from scratch (through the same
/// regularization ladder and residual gate as the batch fallback);
/// every load step refactorizes the base matrix and solves alone. Same
/// classification code as [`simulate_contingency_batch`], outage for
/// outage — the equivalence oracle for the update path, and the cost
/// baseline the `contingency_scaling` bench beats.
///
/// # Errors
///
/// As for [`simulate_contingency_batch`], raised before any outage is
/// screened: [`SparseError::InvalidValue`] for an invalid boost ladder or
/// residual tolerance, and the factorization error when the base
/// conductance matrix does not factorize.
///
/// # Panics
///
/// As for [`simulate_contingency_batch`].
pub fn simulate_contingency_refactor(
    pg: &PowerGrid,
    outages: &[Outage],
    probes: &[usize],
    cfg: &ContingencyConfig,
) -> Result<ContingencySweep, SparseError> {
    let n = pg.num_nodes();
    for &p in probes {
        assert!(p < n, "probe node {p} out of bounds for {n} nodes");
    }
    let (base_opts, fallback) = cfg.checked_factor_options()?;
    let g = pg.conductance_shared();
    let rhs = pg.dc_rhs();
    let rhs_inf = rhs.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(f64::MIN_POSITIVE);

    let mut report = ContingencyReport {
        outages: outages.len(),
        final_epoch: cfg.epoch_base,
        ..Default::default()
    };
    let t0 = Instant::now();
    // The reference still needs one base factor for dw == 0 no-ops.
    let base = CholeskyFactor::factorize(&g, base_opts)?;
    report.base_factor_seconds = t0.elapsed().as_secs_f64();

    let sweep_t = Instant::now();
    let mut outcomes = Vec::with_capacity(outages.len());
    for (i, outage) in outages.iter().enumerate() {
        let outcome = match validate(pg, outage) {
            Err(kind) => OutageOutcome::Failed(OutageFailure {
                outage: i,
                kind: OutageFailureKind::Invalid(kind),
            }),
            Ok(Perturb::Matrix { u, v, dw }) => {
                if dw == 0.0 {
                    let x = base.solve(&rhs);
                    let rel = g.residual_inf_norm(&x, &rhs) / rhs_inf;
                    classify_solve(i, x, rel, cfg.residual_tol, probes, 0, false, 0.0)
                } else {
                    solve_by_refactor(
                        i,
                        &g,
                        u,
                        v,
                        dw,
                        &rhs,
                        rhs_inf,
                        probes,
                        fallback,
                        cfg.residual_tol,
                        false,
                        &mut report,
                    )?
                }
            }
            Ok(Perturb::Rhs { node, extra }) => {
                report.rhs_only += 1;
                // Refactor-per-outage: the reference pays a fresh
                // factorization even for an unchanged matrix.
                report.refactorizations += 1;
                let f = CholeskyFactor::factorize(&g, base_opts)?;
                let mut b = rhs.clone();
                b[node] -= extra;
                let x = f.solve(&b);
                let rel = g.residual_inf_norm(&x, &b) / rhs_inf;
                classify_solve(i, x, rel, cfg.residual_tol, probes, 0, false, 0.0)
            }
        };
        outcomes.push(outcome);
    }
    report.completed = outcomes.iter().filter(|o| o.is_completed()).count();
    report.failures = outcomes.len() - report.completed;
    report.sweep_seconds = sweep_t.elapsed().as_secs_f64();
    Ok(ContingencySweep { outcomes, report })
}
