//! Backward-Euler transient engines (paper §4.2).
//!
//! Two solver strategies reproduce the paper's comparison:
//!
//! - **Direct, fixed step**: factorize `G + C/h` once and advance with
//!   substitutions. The step `h` must resolve the smallest breakpoint
//!   spacing of the current sources (the paper uses 10 ps), so this path
//!   takes many steps — its strength is the ultra-cheap per-step cost,
//!   its weakness the big factorization and memory footprint. The
//!   variable-step direct run shares its one stepping loop and pays a
//!   refactorization at every step-size change.
//! - **Iterative, variable step**: place time points only at source
//!   breakpoints (capped at `max_step`, paper: 200 ps) and solve each
//!   step with PCG, preconditioned once by the Cholesky factor of the
//!   *sparsified* conductance matrix from DC analysis, warm-started from
//!   the previous voltage vector.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tracered_solver::block::block_pcg_with_guess;
use tracered_solver::pcg::PcgOptions;
use tracered_solver::precond::{CholPreconditioner, Preconditioner};
use tracered_solver::{DirectSolver, TerminationReason};
use tracered_sparse::{MultiVec, SparseError};

use crate::netlist::PowerGrid;
use crate::waveform::merged_time_grid;

/// Time-integration scheme for the DAE `C dv/dt + G v = u(t)`.
///
/// The paper (§4.2) mentions both: "with time integration schemes like
/// backward Euler scheme or trapezoidal scheme, the DAEs are converted to
/// a set of linear equation systems".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum IntegrationScheme {
    /// Backward Euler: `(G + C/h) v₁ = (C/h) v₀ + u(t₁)`. First order,
    /// L-stable (damps numerical ringing) — the paper's choice.
    #[default]
    BackwardEuler,
    /// Trapezoidal: `(G/2 + C/h) v₁ = (C/h − G/2) v₀ + (u₀ + u₁)/2`.
    /// Second order, A-stable.
    Trapezoidal,
}

/// Transient-analysis options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Simulation horizon in seconds (paper: 5 ns).
    pub t_end: f64,
    /// Maximum variable step (paper: 200 ps).
    pub max_step: f64,
    /// Fixed step for the direct engine; `None` derives it from the
    /// smallest source breakpoint gap (the paper's constraint).
    pub fixed_step: Option<f64>,
    /// PCG relative tolerance (paper: 1e-6).
    pub pcg_tol: f64,
    /// Time-integration scheme (paper default: backward Euler).
    pub scheme: IntegrationScheme,
    /// Worker threads for the PCG kernels (SpMV/SpMM, reductions, fused
    /// vector updates of `tracered_sparse`). Every count runs the same
    /// kernels, `1` with no workers, so waveforms and iteration counts
    /// are bit-identical at every count.
    pub threads: usize,
    /// Worker threads for the direct engine's matrix factorizations
    /// (`G + C/h` and the DC operating point): independent
    /// elimination-tree subtrees factor concurrently
    /// ([`tracered_sparse::FactorOptions::threads`]). The factor is
    /// bit-identical to serial at every count, so waveforms are
    /// unchanged — only `factor_time` shrinks. This is the knob that
    /// attacks the varied-step direct engine's dominant cost (one
    /// refactorization per step-size change).
    pub factor_threads: usize,
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig {
            t_end: 5e-9,
            max_step: 2e-10,
            fixed_step: None,
            pcg_tol: 1e-6,
            scheme: IntegrationScheme::BackwardEuler,
            threads: 1,
            factor_threads: 1,
        }
    }
}

/// One member of a batch transient ensemble: a per-source modulation of
/// the switching-current amplitudes. Scenarios share the grid, the
/// matrices and the time grid — only the right-hand sides differ, which
/// is exactly the shape the blocked multi-RHS kernels amortize.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceScenario {
    /// Per-source amplitude multipliers (`len == pg.sources().len()`), or
    /// `None` for the nominal ensemble (every scale `1.0`).
    pub source_scale: Option<Vec<f64>>,
}

impl SourceScenario {
    /// The nominal ensemble: every source at its configured amplitude.
    pub fn nominal() -> Self {
        SourceScenario { source_scale: None }
    }

    /// Scales every source by the same factor (a global activity corner).
    pub fn uniform(scale: f64, num_sources: usize) -> Self {
        SourceScenario { source_scale: Some(vec![scale; num_sources]) }
    }

    /// Per-source scale factors (per-block activity patterns).
    pub fn per_source(scales: Vec<f64>) -> Self {
        SourceScenario { source_scale: Some(scales) }
    }

    fn scales(&self) -> Option<&[f64]> {
        self.source_scale.as_deref()
    }
}

/// Cost accounting for a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientStats {
    /// Number of time steps taken.
    pub steps: usize,
    /// Time spent in factorization (direct) or preconditioner reuse
    /// (iterative; zero — the preconditioner is built by the caller
    /// during DC analysis).
    pub factor_time: Duration,
    /// Time spent advancing time steps (substitutions or PCG).
    pub solve_time: Duration,
    /// Total PCG iterations across all steps (0 for the direct engine).
    pub total_pcg_iterations: usize,
    /// Average PCG iterations per step (the paper's `N_e`).
    pub avg_pcg_iterations: f64,
    /// Memory footprint of the factor used (bytes) — the paper's `Mem`.
    pub memory_bytes: usize,
    /// Number of matrix factorizations performed (1 for fixed-step direct;
    /// one per step-size change for varied-step direct; 0 for PCG).
    pub factorizations: usize,
}

/// Result of a transient run: probe waveforms over the time grid.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Time points (seconds), strictly increasing, starting at 0.
    pub times: Vec<f64>,
    /// One voltage trace per requested probe node.
    pub probes: Vec<Vec<f64>>,
    /// Cost accounting.
    pub stats: TransientStats,
}

impl TransientResult {
    /// Linearly interpolates probe `idx` at time `t` (clamped to the
    /// simulated range).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn sample(&self, idx: usize, t: f64) -> f64 {
        let trace = &self.probes[idx];
        let times = &self.times;
        if t <= times[0] {
            return trace[0];
        }
        let t_last = *times.last().expect("a transient result has at least the initial time");
        if t >= t_last {
            return *trace.last().expect("probe traces track the time grid");
        }
        let k = times.partition_point(|&x| x <= t) - 1;
        let (t0, t1) = (times[k], times[k + 1]);
        let w = (t - t0) / (t1 - t0);
        trace[k] * (1.0 - w) + trace[k + 1] * w
    }

    /// Maximum absolute difference between probe `idx` of two runs,
    /// sampled at `samples` uniform points (the paper reports < 16 mV
    /// between direct and iterative solutions).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for either run or `samples == 0`.
    pub fn max_probe_difference(&self, other: &TransientResult, idx: usize, samples: usize) -> f64 {
        assert!(samples > 0, "at least one sample is required");
        let t_end =
            self.times.last().expect("a transient result has at least the initial time").min(
                *other.times.last().expect("a transient result has at least the initial time"),
            );
        (0..=samples)
            .map(|k| {
                let t = t_end * k as f64 / samples as f64;
                (self.sample(idx, t) - other.sample(idx, t)).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Solves the DC operating point `G v = b_dc` directly.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] if the grid has no pads
/// (floating network).
pub fn dc_operating_point(pg: &PowerGrid) -> Result<Vec<f64>, SparseError> {
    let g = pg.conductance_shared();
    let solver = DirectSolver::new_threads(&g, 1)?;
    Ok(solver.solve(&pg.dc_rhs()))
}

/// Solves the DC operating points of a whole scenario ensemble with one
/// factorization of `G`, split across up to `threads` pool workers, and
/// one blocked multi-column substitution. The engines take their initial
/// conditions from here with [`TransientConfig::factor_threads`].
fn dc_points_batch_threads(
    pg: &PowerGrid,
    scenarios: &[SourceScenario],
    threads: usize,
) -> Result<MultiVec, SparseError> {
    let n = pg.num_nodes();
    let g = pg.conductance_shared();
    let solver = DirectSolver::new_threads(&g, threads)?;
    let mut b = MultiVec::zeros(n, scenarios.len());
    for (col, sc) in b.cols_mut().zip(scenarios.iter()) {
        col.copy_from_slice(&pg.dc_rhs_scaled(sc.scales()));
    }
    Ok(solver.factor().solve_multi(&b))
}

/// Builds the step system matrix for a scheme:
/// `G + C/h` (backward Euler) or `G/2 + C/h` (trapezoidal).
fn system_matrix(pg: &PowerGrid, h: f64, scheme: IntegrationScheme) -> tracered_sparse::CscMatrix {
    match scheme {
        IntegrationScheme::BackwardEuler => pg.transient_matrix(h),
        IntegrationScheme::Trapezoidal => {
            let mut half_g = pg.conductance_matrix();
            for v in half_g.values_mut() {
                *v *= 0.5;
            }
            let shifts: Vec<f64> = pg.capacitance().iter().map(|&c| c / h).collect();
            half_g.add_diagonal(&shifts).expect("conductance matrix is square")
        }
    }
}

/// Builds the step right-hand side for a scheme and one scenario. For the
/// trapezoidal rule `g_matrix` must be the full conductance matrix (used
/// for `G v₀`); `gv_buf` is scratch of length n. `source_scale` of `None`
/// is the nominal ensemble.
#[allow(clippy::too_many_arguments)]
fn step_rhs(
    pg: &PowerGrid,
    scheme: IntegrationScheme,
    t0: f64,
    t1: f64,
    h: f64,
    v_prev: &[f64],
    source_scale: Option<&[f64]>,
    g_matrix: &tracered_sparse::CscMatrix,
    gv_buf: &mut [f64],
    out: &mut [f64],
) {
    match scheme {
        IntegrationScheme::BackwardEuler => {
            pg.transient_rhs_scaled(t1, h, v_prev, source_scale, out);
        }
        IntegrationScheme::Trapezoidal => {
            // b = (C/h) v₀ − ½ G v₀ + ½ (u(t₀) + u(t₁)),
            // u(t) = G_pad·VDD − I(t).
            g_matrix.matvec_into(v_prev, gv_buf);
            let cap = pg.capacitance();
            let pad = pg.pad_conductance();
            let vdd = pg.vdd();
            for i in 0..out.len() {
                out[i] = cap[i] / h * v_prev[i] - 0.5 * gv_buf[i] + pad[i] * vdd;
            }
            for (k, s) in pg.sources().iter().enumerate() {
                let scale = source_scale.map_or(1.0, |sc| sc[k]);
                out[s.node] -= scale * (0.5 * (s.waveform.value(t0) + s.waveform.value(t1)));
            }
        }
    }
}

/// Fixed-step transient with a direct solver (factor once, substitute per
/// step). Batch-of-1 wrapper over [`simulate_direct_batch`].
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] when `G + C/h` cannot be
/// factorized (floating grid).
///
/// # Panics
///
/// Panics if a probe node is out of bounds.
pub fn simulate_direct(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    probe_nodes: &[usize],
) -> Result<TransientResult, SparseError> {
    let mut out = simulate_direct_batch(pg, cfg, probe_nodes, &[SourceScenario::nominal()])?;
    Ok(out.pop().expect("batch of one yields one result"))
}

/// Fixed-step transient of a whole scenario ensemble with one shared
/// direct solver: `G + C/h` is factorized once and every step advances
/// all `k` scenarios through one blocked multi-column substitution
/// (`solve_multi`), streaming the factor once per step instead of once
/// per scenario.
///
/// Returns one [`TransientResult`] per scenario, in order. Shared-cost
/// accounting: `factor_time`, `memory_bytes` and `factorizations` report
/// the shared factorization in every result (the work exists once, not
/// `k` times); `solve_time` is the batch stepping time divided by `k` —
/// the amortized per-scenario cost that the multi-RHS batching buys.
///
/// Every step but the last spans the fixed `h`. When `t_end` is not a
/// multiple of `h`, the last step is cut short to end at `t_end`, and it
/// is integrated over its own length `t_end − t₀`: the step matrix is
/// refactorized once for it (`factorizations` is then 2).
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] when `G + C/h` cannot be
/// factorized (floating grid), and [`SparseError::InvalidValue`] — naming
/// the scenario and the reason ([`ScenarioFailure`]) — for the first
/// scenario whose scale vector disagrees with the source count or holds
/// a non-finite entry. Scales are checked before any factorization.
///
/// # Panics
///
/// Panics if a probe node is out of bounds or `scenarios` is empty.
pub fn simulate_direct_batch(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    probe_nodes: &[usize],
    scenarios: &[SourceScenario],
) -> Result<Vec<TransientResult>, SparseError> {
    let h = cfg.fixed_step.unwrap_or_else(|| {
        pg.sources().iter().map(|s| s.waveform.min_breakpoint_gap()).fold(cfg.max_step, f64::min)
    });
    // A full step carries the configured `h` itself, since `t₁ − t₀`
    // would round differently and refactorize. Only a last step that
    // `t_end` cuts short by more than rounding carries its own length.
    let mut t = 0.0;
    let grid = std::iter::from_fn(|| {
        (t < cfg.t_end - 1e-18).then(|| {
            let t0 = t;
            t = (t + h).min(cfg.t_end);
            let left = cfg.t_end - t0;
            (t0, t, if left < h * (1.0 - 1e-9) { left } else { h })
        })
    });
    direct_stepping(pg, cfg, probe_nodes, scenarios, grid)
}

/// Variable-step transient with a **direct** solver: the configuration
/// the paper argues against ("the direct solver can be extremely
/// time-consuming due to the expensive matrix factorizations performed
/// whenever the time step changes"). Walks the same breakpoint-driven
/// grid as [`simulate_pcg`] but must refactorize `G + C/h` at every
/// step-size change.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] when a step matrix cannot
/// be factorized.
///
/// # Panics
///
/// Panics if a probe node is out of bounds.
pub fn simulate_direct_varied(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    probe_nodes: &[usize],
) -> Result<TransientResult, SparseError> {
    let waveforms: Vec<_> = pg.sources().iter().map(|s| s.waveform).collect();
    let grid = merged_time_grid(&waveforms, cfg.t_end, cfg.max_step);
    let steps = grid.windows(2).map(|w| (w[0], w[1], w[1] - w[0]));
    let mut out = direct_stepping(pg, cfg, probe_nodes, &[SourceScenario::nominal()], steps)?;
    Ok(out.pop().expect("batch of one yields one result"))
}

/// The direct stepping loop behind [`simulate_direct_batch`] and
/// [`simulate_direct_varied`]: advances every scenario from its DC
/// operating point over the `(t₀, t₁, h)` steps, one blocked
/// substitution per step. The factor of the step matrix is cached and
/// rebuilt only when `h` moves by more than `1e-12·h`, so a fixed grid
/// factorizes once and a breakpoint grid once per step-size change.
/// `factor_time` sums the step-matrix assemblies and factorizations,
/// `memory_bytes` is the largest factor, and `solve_time` is the rest of
/// the stepping time divided by the scenario count.
fn direct_stepping(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    probe_nodes: &[usize],
    scenarios: &[SourceScenario],
    grid: impl IntoIterator<Item = (f64, f64, f64)>,
) -> Result<Vec<TransientResult>, SparseError> {
    let n = pg.num_nodes();
    let k = scenarios.len();
    assert!(probe_nodes.iter().all(|&p| p < n), "probe nodes must be in bounds");
    assert!(k > 0, "at least one scenario is required");
    for (s, sc) in scenarios.iter().enumerate() {
        if let Some(kind) = validate_scenario(sc, pg.sources().len()) {
            let fail = ScenarioFailure { scenario: s, step: 0, kind };
            return Err(SparseError::InvalidValue { what: fail.to_string() });
        }
    }
    let mut span = tracered_obs::span!("transient.run", { n: n, scenarios: k });
    let threads = cfg.factor_threads.max(1);
    let g_matrix = pg.conductance_shared();
    let mut v = dc_points_batch_threads(pg, scenarios, threads)?;
    let mut rhs = MultiVec::zeros(n, k);
    let mut vnext = MultiVec::zeros(n, k);
    let mut gv = vec![0.0; n];
    let mut times = vec![0.0];
    let mut probes: Vec<Vec<Vec<f64>>> =
        (0..k).map(|s| probe_nodes.iter().map(|&p| vec![v.col(s)[p]]).collect()).collect();
    let mut factor_time = Duration::ZERO;
    let mut factorizations = 0usize;
    let mut memory = 0usize;
    let mut cached: Option<(f64, DirectSolver)> = None;
    let t_solve = Instant::now();
    let mut steps = 0usize;
    for (t0, t1, h) in grid {
        let stale = match &cached {
            Some((hc, _)) => (hc - h).abs() > 1e-12 * h,
            None => true,
        };
        if stale {
            let tf = Instant::now();
            let solver = DirectSolver::new_threads(&system_matrix(pg, h, cfg.scheme), threads)?;
            factor_time += tf.elapsed();
            factorizations += 1;
            memory = memory.max(solver.memory_bytes());
            cached = Some((h, solver));
        }
        let solver = &cached.as_ref().expect("the step factor was just built").1;
        let _step = tracered_obs::span!("transient.step", { step: steps, width: k });
        for (s, sc) in scenarios.iter().enumerate() {
            step_rhs(
                pg,
                cfg.scheme,
                t0,
                t1,
                h,
                v.col(s),
                sc.scales(),
                &g_matrix,
                &mut gv,
                rhs.col_mut(s),
            );
        }
        solver.factor().solve_multi_into(&rhs, &mut vnext);
        std::mem::swap(&mut v, &mut vnext);
        steps += 1;
        times.push(t1);
        for (s, scenario_probes) in probes.iter_mut().enumerate() {
            for (trace, &p) in scenario_probes.iter_mut().zip(probe_nodes.iter()) {
                trace.push(v.col(s)[p]);
            }
        }
    }
    let solve_time = t_solve.elapsed().saturating_sub(factor_time) / k as u32;
    if let Some(g) = span.as_mut() {
        g.arg("steps", steps as f64);
    }
    Ok(probes
        .into_iter()
        .map(|scenario_probes| TransientResult {
            times: times.clone(),
            probes: scenario_probes,
            stats: TransientStats {
                steps,
                factor_time,
                solve_time,
                total_pcg_iterations: 0,
                avg_pcg_iterations: 0.0,
                memory_bytes: memory,
                factorizations,
            },
        })
        .collect())
}

/// Variable-step transient with sparsifier-preconditioned PCG.
/// Batch-of-1 wrapper over [`simulate_pcg_batch`].
///
/// `preconditioner` should be the Cholesky factor of the *sparsified*
/// conductance matrix (built once during DC analysis, per the paper); it
/// is reused unchanged for every step and every step size.
/// `cfg.threads` selects the parallel PCG kernels.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] if the DC system cannot be
/// factorized for the initial condition, and
/// [`SparseError::InvalidValue`] if a step's PCG solve breaks down or the
/// voltage state goes non-finite.
///
/// # Panics
///
/// Panics if a probe node is out of bounds.
pub fn simulate_pcg(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    preconditioner: &CholPreconditioner,
    probe_nodes: &[usize],
) -> Result<TransientResult, SparseError> {
    let mut out =
        simulate_pcg_batch(pg, cfg, preconditioner, probe_nodes, &[SourceScenario::nominal()])?;
    Ok(out.pop().expect("batch of one yields one result"))
}

/// Variable-step transient of a whole scenario ensemble with blocked
/// sparsifier-preconditioned PCG: every timestep assembles one
/// right-hand-side block (one column per scenario) and advances all of
/// them through a single [`block_pcg_with_guess`] solve — one SpMM and
/// one multi-column preconditioner apply per iteration, warm-started
/// from each scenario's previous voltages, with converged scenarios
/// deflating out of the iteration.
///
/// Column `j` of the batch performs exactly the arithmetic of a
/// standalone [`simulate_pcg`] run on scenario `j` (see
/// [`tracered_solver::block`] for the equivalence contract), so batch
/// results match independent runs to the sign of exact zeros.
///
/// Returns one [`TransientResult`] per scenario, in order; all share the
/// breakpoint-driven time grid (source scaling moves no breakpoints).
/// `solve_time` is the batch stepping time divided by `k` (amortized
/// per-scenario cost); `total_pcg_iterations` is per scenario.
///
/// The stepping loop is [`simulate_pcg_batch_outcomes`]'s; this entry
/// point turns its first abandoned scenario into an error.
///
/// ```
/// use tracered_core::{Method, SparsifyConfig};
/// use tracered_graph::laplacian::ShiftPolicy;
/// use tracered_powergrid::synth::{synthesize, SynthConfig};
/// use tracered_powergrid::transient::{simulate_pcg_batch, SourceScenario, TransientConfig};
/// use tracered_solver::precond::CholPreconditioner;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pg = synthesize(&SynthConfig { mesh: 8, ..Default::default() });
/// // Sparsify the conductance graph once (grounded by the pad
/// // conductances), precondition every scenario and timestep with it.
/// let cfg = SparsifyConfig::new(Method::TraceReduction)
///     .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
/// let sp = tracered_core::sparsify(pg.graph(), &cfg)?;
/// let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph()))?;
/// let scenarios =
///     vec![SourceScenario::nominal(), SourceScenario::uniform(0.5, pg.sources().len())];
/// let tcfg = TransientConfig { t_end: 1e-9, ..Default::default() };
/// let results = simulate_pcg_batch(&pg, &tcfg, &pre, &[0], &scenarios)?;
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].times, results[1].times); // shared time grid
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] if the DC system cannot be
/// factorized for the initial conditions, and
/// [`SparseError::InvalidValue`] — naming the scenario, the step and the
/// reason ([`ScenarioFailure`]) — for the first scenario that the
/// outcomes loop abandons: a scale vector whose length disagrees with the
/// source count or that holds a non-finite entry, a non-finite voltage
/// state, or a PCG breakdown.
///
/// # Panics
///
/// Panics if a probe node is out of bounds or `scenarios` is empty.
pub fn simulate_pcg_batch(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    preconditioner: &CholPreconditioner,
    probe_nodes: &[usize],
    scenarios: &[SourceScenario],
) -> Result<Vec<TransientResult>, SparseError> {
    simulate_pcg_batch_outcomes(pg, cfg, preconditioner, probe_nodes, scenarios)?
        .into_iter()
        .map(|outcome| match outcome {
            ScenarioOutcome::Completed(result) => Ok(result),
            ScenarioOutcome::Failed(fail) => {
                Err(SparseError::InvalidValue { what: fail.to_string() })
            }
        })
        .collect()
}

/// Why one scenario of a batch transient run was abandoned while the rest
/// of the ensemble kept integrating.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ScenarioFailureKind {
    /// A source-scale multiplier was non-finite.
    InvalidScale {
        /// Index of the offending multiplier within the scale vector.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The scale vector length disagrees with the grid's source count.
    ScaleLength {
        /// Number of sources in the grid.
        expected: usize,
        /// Length of the scenario's scale vector.
        found: usize,
    },
    /// The blocked PCG solve classified this scenario's column as a
    /// breakdown (see [`TerminationReason::is_breakdown`]).
    SolverBreakdown {
        /// The classified termination reason.
        reason: TerminationReason,
    },
    /// The advanced voltage state contained a non-finite value.
    NonFiniteState,
}

impl std::fmt::Display for ScenarioFailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioFailureKind::InvalidScale { index, value } => {
                write!(f, "non-finite source scale {value} at index {index}")
            }
            ScenarioFailureKind::ScaleLength { expected, found } => {
                write!(f, "scale vector has {found} entries, grid has {expected} sources")
            }
            ScenarioFailureKind::SolverBreakdown { reason } => {
                write!(f, "solver breakdown: {reason}")
            }
            ScenarioFailureKind::NonFiniteState => write!(f, "non-finite voltage state"),
        }
    }
}

/// A recorded per-scenario failure: which ensemble member, at which time
/// step (`0` = input validation / initial condition), and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioFailure {
    /// Index of the scenario within the submitted ensemble.
    pub scenario: usize,
    /// Time-step index at which the scenario was abandoned (`0` before
    /// the first step: scale validation or a bad DC operating point).
    pub step: usize,
    /// What went wrong.
    pub kind: ScenarioFailureKind,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {} failed at step {}: {}", self.scenario, self.step, self.kind)
    }
}

/// Per-scenario outcome of a fault-tolerant batch transient run.
#[derive(Debug, Clone)]
pub enum ScenarioOutcome {
    /// The scenario integrated to `t_end`; its full result.
    Completed(TransientResult),
    /// The scenario was abandoned; the rest of the batch continued.
    Failed(ScenarioFailure),
}

impl ScenarioOutcome {
    /// The completed result, if the scenario survived.
    pub fn result(&self) -> Option<&TransientResult> {
        match self {
            ScenarioOutcome::Completed(r) => Some(r),
            ScenarioOutcome::Failed(_) => None,
        }
    }

    /// The recorded failure, if the scenario was abandoned.
    pub fn failure(&self) -> Option<&ScenarioFailure> {
        match self {
            ScenarioOutcome::Completed(_) => None,
            ScenarioOutcome::Failed(fail) => Some(fail),
        }
    }

    /// Whether the scenario completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, ScenarioOutcome::Completed(_))
    }
}

/// Checks one scenario's scale vector before any arithmetic runs.
fn validate_scenario(sc: &SourceScenario, num_sources: usize) -> Option<ScenarioFailureKind> {
    let scales = sc.scales()?;
    if scales.len() != num_sources {
        return Some(ScenarioFailureKind::ScaleLength {
            expected: num_sources,
            found: scales.len(),
        });
    }
    scales
        .iter()
        .position(|s| !s.is_finite())
        .map(|index| ScenarioFailureKind::InvalidScale { index, value: scales[index] })
}

/// Copies the selected columns of `src` into a fresh, narrower block.
fn keep_columns(src: &MultiVec, keep: &[usize]) -> MultiVec {
    let mut out = MultiVec::zeros(src.nrows(), keep.len());
    for (dst, &j) in keep.iter().enumerate() {
        out.col_mut(dst).copy_from_slice(src.col(j));
    }
    out
}

/// The variable-step PCG stepping loop behind [`simulate_pcg_batch`] and
/// [`simulate_pcg`]. Instead of aborting the whole ensemble on the first
/// bad scenario, it returns one [`ScenarioOutcome`] per input, in order.
///
/// A scenario is abandoned (and the batch narrowed) when
///
/// - its scale vector is malformed (wrong length or non-finite entries —
///   caught before any arithmetic runs, `step == 0`),
/// - its DC operating point or advanced voltage state goes non-finite, or
/// - the blocked PCG classifies its column as a breakdown
///   ([`TerminationReason::is_breakdown`]; plain `MaxIterations` is *not*
///   a breakdown, so an unconverged step is tolerated).
///
/// The block-PCG column recurrences are independent (see
/// [`tracered_solver::block`]), so dropping a failed column leaves every
/// surviving scenario's arithmetic — and therefore its waveforms —
/// bit-identical to a run that never contained the bad scenario.
/// `solve_time` in surviving results is the batch stepping time amortized
/// over the survivors.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] only for *shared* failures
/// that doom every scenario alike (the DC factorization of `G`).
///
/// # Panics
///
/// Panics if a probe node is out of bounds or `scenarios` is empty.
pub fn simulate_pcg_batch_outcomes(
    pg: &PowerGrid,
    cfg: &TransientConfig,
    preconditioner: &CholPreconditioner,
    probe_nodes: &[usize],
    scenarios: &[SourceScenario],
) -> Result<Vec<ScenarioOutcome>, SparseError> {
    let n = pg.num_nodes();
    assert!(probe_nodes.iter().all(|&p| p < n), "probe nodes must be in bounds");
    assert!(!scenarios.is_empty(), "at least one scenario is required");
    let mut span = tracered_obs::span!("transient.run", { n: n, scenarios: scenarios.len() });
    let num_sources = pg.sources().len();

    let mut failures: Vec<Option<ScenarioFailure>> = vec![None; scenarios.len()];
    // `active[i]` is the original scenario index behind batch column `i`.
    let mut active: Vec<usize> = Vec::new();
    for (s, sc) in scenarios.iter().enumerate() {
        match validate_scenario(sc, num_sources) {
            Some(kind) => failures[s] = Some(ScenarioFailure { scenario: s, step: 0, kind }),
            None => active.push(s),
        }
    }

    let waveforms: Vec<_> = pg.sources().iter().map(|s| s.waveform).collect();
    let grid = merged_time_grid(&waveforms, cfg.t_end, cfg.max_step);
    let mut times = vec![grid[0]];
    let mut v = MultiVec::zeros(n, active.len());
    let mut probes: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut total_iters: Vec<usize> = vec![0; active.len()];

    if !active.is_empty() {
        let active_scenarios: Vec<SourceScenario> =
            active.iter().map(|&s| scenarios[s].clone()).collect();
        v = dc_points_batch_threads(pg, &active_scenarios, cfg.factor_threads.max(1))?;
        // A bad DC column (from a pathological but finite scale) fails
        // just that scenario.
        let keep: Vec<usize> = (0..active.len())
            .filter(|&i| {
                let ok = v.col(i).iter().all(|x| x.is_finite());
                if !ok {
                    failures[active[i]] = Some(ScenarioFailure {
                        scenario: active[i],
                        step: 0,
                        kind: ScenarioFailureKind::NonFiniteState,
                    });
                }
                ok
            })
            .collect();
        if keep.len() != active.len() {
            v = keep_columns(&v, &keep);
            active = keep.iter().map(|&i| active[i]).collect();
            total_iters.truncate(active.len());
        }
        probes = active
            .iter()
            .enumerate()
            .map(|(i, _)| probe_nodes.iter().map(|&p| vec![v.col(i)[p]]).collect())
            .collect();
    }

    let opts = PcgOptions {
        rel_tolerance: cfg.pcg_tol,
        max_iterations: 10_000,
        threads: cfg.threads.max(1),
    };
    let g_matrix = pg.conductance_shared();
    // For the trapezoidal rule the step matrix is G/2 + C/h; backward
    // Euler shares the memoized G outright instead of deep-cloning it.
    let g_for_system = match cfg.scheme {
        IntegrationScheme::BackwardEuler => Arc::clone(&g_matrix),
        IntegrationScheme::Trapezoidal => {
            let mut half = (*g_matrix).clone();
            for val in half.values_mut() {
                *val *= 0.5;
            }
            Arc::new(half)
        }
    };
    let cap = pg.capacitance();
    let mut gv = vec![0.0; n];
    let mut rhs = MultiVec::zeros(n, active.len());
    let t_solve = Instant::now();
    let mut steps = 0usize;
    for w in grid.windows(2) {
        if active.is_empty() {
            break;
        }
        let _step = tracered_obs::span!("transient.step", { step: steps, width: active.len() });
        let (t0, t1) = (w[0], w[1]);
        let h = t1 - t0;
        // A = G + C/h (or G/2 + C/h), a diagonal update of the cached G.
        let shifts: Vec<f64> = cap.iter().map(|&c| c / h).collect();
        let a = g_for_system
            .add_diagonal(&shifts)
            .expect("conductance matrix is square by construction");
        for (i, &s) in active.iter().enumerate() {
            step_rhs(
                pg,
                cfg.scheme,
                t0,
                t1,
                h,
                v.col(i),
                scenarios[s].scales(),
                &g_matrix,
                &mut gv,
                rhs.col_mut(i),
            );
        }
        let sol = block_pcg_with_guess(&a, &rhs, Some(&v), preconditioner, &opts);
        v = sol.x;
        steps += 1;
        times.push(t1);
        for (total, its) in total_iters.iter_mut().zip(sol.iterations.iter()) {
            *total += its;
        }
        // Classify this step's columns; survivors keep their slots, failed
        // columns drop out of the recurrence entirely.
        let mut keep: Vec<usize> = Vec::with_capacity(active.len());
        for i in 0..active.len() {
            let kind = if sol.reasons[i].is_breakdown() {
                Some(ScenarioFailureKind::SolverBreakdown { reason: sol.reasons[i] })
            } else if v.col(i).iter().any(|x| !x.is_finite()) {
                Some(ScenarioFailureKind::NonFiniteState)
            } else {
                None
            };
            match kind {
                Some(kind) => {
                    failures[active[i]] =
                        Some(ScenarioFailure { scenario: active[i], step: steps, kind });
                }
                None => keep.push(i),
            }
        }
        if keep.len() != active.len() {
            v = keep_columns(&v, &keep);
            total_iters = keep.iter().map(|&i| total_iters[i]).collect();
            probes = keep.iter().map(|&i| std::mem::take(&mut probes[i])).collect();
            active = keep.iter().map(|&i| active[i]).collect();
            rhs = MultiVec::zeros(n, active.len());
        }
        for (i, scenario_probes) in probes.iter_mut().enumerate() {
            for (trace, &p) in scenario_probes.iter_mut().zip(probe_nodes.iter()) {
                trace.push(v.col(i)[p]);
            }
        }
    }

    let survivors = active.len();
    let solve_time =
        if survivors > 0 { t_solve.elapsed() / survivors as u32 } else { Duration::ZERO };
    if let Some(g) = span.as_mut() {
        g.arg("steps", steps as f64);
        g.arg("pcg_iterations", total_iters.iter().sum::<usize>() as f64);
        g.arg("survivors", survivors as f64);
    }
    let mut results: Vec<Option<TransientResult>> = vec![None; scenarios.len()];
    for ((s, scenario_probes), iters) in active.iter().zip(probes).zip(total_iters) {
        results[*s] = Some(TransientResult {
            times: times.clone(),
            probes: scenario_probes,
            stats: TransientStats {
                steps,
                factor_time: Duration::ZERO,
                solve_time,
                total_pcg_iterations: iters,
                avg_pcg_iterations: if steps > 0 { iters as f64 / steps as f64 } else { 0.0 },
                memory_bytes: preconditioner.memory_bytes(),
                factorizations: 0,
            },
        });
    }

    Ok(scenarios
        .iter()
        .enumerate()
        .map(|(s, _)| match failures[s].take() {
            Some(fail) => ScenarioOutcome::Failed(fail),
            None => ScenarioOutcome::Completed(
                results[s].take().expect("non-failed scenario has a result"),
            ),
        })
        .collect())
}

/// Picks two interesting probe nodes: one next to a pad (stiff, near-VDD)
/// and one at maximum BFS distance from every pad (worst droop). These
/// play the role of the paper's Fig. 1 "VDD node" and worst-case node.
pub fn probe_pair(pg: &PowerGrid) -> (usize, usize) {
    let n = pg.num_nodes();
    // Multi-source BFS from all pads.
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    let mut near_pad = 0;
    for (i, &g) in pg.pad_conductance().iter().enumerate() {
        if g > 0.0 {
            dist[i] = 0;
            queue.push_back(i);
            near_pad = i;
        }
    }
    let mut far = near_pad;
    while let Some(x) = queue.pop_front() {
        if dist[x] > dist[far] {
            far = x;
        }
        for &(nbr, _) in pg.graph().neighbors(x) {
            if dist[nbr] == usize::MAX {
                dist[nbr] = dist[x] + 1;
                queue.push_back(nbr);
            }
        }
    }
    (near_pad, far)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthConfig};

    fn small_grid() -> PowerGrid {
        synthesize(&SynthConfig { mesh: 10, source_fraction: 0.2, ..Default::default() })
    }

    fn quick_cfg() -> TransientConfig {
        TransientConfig {
            t_end: 1e-9,
            fixed_step: Some(2.5e-11),
            pcg_tol: 1e-8,
            ..Default::default()
        }
    }

    #[test]
    fn direct_transient_stays_physical() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let out = simulate_direct(&pg, &quick_cfg(), &[near, far]).unwrap();
        assert_eq!(out.times.len(), out.probes[0].len());
        for trace in &out.probes {
            for &v in trace {
                assert!(v > 0.0 && v <= pg.vdd() + 1e-9, "voltage {v} out of range");
            }
        }
        assert!(out.stats.steps >= 40);
        assert!(out.stats.memory_bytes > 0);
    }

    #[test]
    fn pcg_transient_matches_direct() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let cfg = quick_cfg();
        let direct = simulate_direct(&pg, &cfg, &[near, far]).unwrap();
        // Exact (unsparsified) preconditioner → every step converges fast
        // and the two engines must agree closely despite different grids.
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let iter = simulate_pcg(&pg, &cfg, &pre, &[near, far]).unwrap();
        for idx in 0..2 {
            let d = direct.max_probe_difference(&iter, idx, 200);
            assert!(d < 0.016, "probe {idx} differs by {d} V (> 16 mV)");
        }
        assert!(iter.stats.steps < direct.stats.steps, "variable stepping must take fewer steps");
        assert!(iter.stats.total_pcg_iterations > 0);
    }

    #[test]
    fn sparsifier_preconditioner_converges_with_more_iterations() {
        let pg = small_grid();
        let cfg = quick_cfg();
        let (near, _) = probe_pair(&pg);
        let exact = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let run_exact = simulate_pcg(&pg, &cfg, &exact, &[near]).unwrap();
        // Sparsified preconditioner from DC analysis.
        let sp = tracered_core::sparsify(
            pg.graph(),
            &tracered_core::SparsifyConfig::default().shift(
                tracered_graph::laplacian::ShiftPolicy::PerNode(pg.pad_conductance().to_vec()),
            ),
        )
        .unwrap();
        let pre = CholPreconditioner::from_matrix(&sp.laplacian(pg.graph())).unwrap();
        let run_sp = simulate_pcg(&pg, &cfg, &pre, &[near]).unwrap();
        assert!(run_sp.stats.avg_pcg_iterations >= run_exact.stats.avg_pcg_iterations);
        let d = run_exact.max_probe_difference(&run_sp, 0, 200);
        assert!(d < 1e-3, "solutions must agree regardless of preconditioner, diff {d}");
        assert!(
            run_sp.stats.memory_bytes < run_exact.stats.memory_bytes,
            "sparsifier factor must be smaller"
        );
    }

    #[test]
    fn dc_point_is_fixed_point_without_sources() {
        let mut cfg = SynthConfig { mesh: 6, source_fraction: 0.0, ..Default::default() };
        cfg.peak_current = 0.0;
        let pg = synthesize(&cfg);
        let (near, far) = probe_pair(&pg);
        let out = simulate_direct(
            &pg,
            &TransientConfig { t_end: 5e-10, fixed_step: Some(5e-11), ..Default::default() },
            &[near, far],
        )
        .unwrap();
        // With zero draw everything stays at VDD.
        for trace in &out.probes {
            for &v in trace {
                assert!((v - pg.vdd()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn trapezoidal_matches_backward_euler_closely() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let probes = [near, far];
        let be = simulate_direct(&pg, &quick_cfg(), &probes).unwrap();
        let trap = simulate_direct(
            &pg,
            &TransientConfig { scheme: IntegrationScheme::Trapezoidal, ..quick_cfg() },
            &probes,
        )
        .unwrap();
        // Both schemes are consistent discretizations of the same DAE, so
        // at these small steps they must agree to within a few mV.
        for idx in 0..2 {
            let d = be.max_probe_difference(&trap, idx, 200);
            assert!(d < 5e-3, "probe {idx}: BE vs trapezoidal differ by {d} V");
        }
    }

    #[test]
    fn trapezoidal_pcg_agrees_with_trapezoidal_direct() {
        let pg = small_grid();
        let (near, _) = probe_pair(&pg);
        let cfg = TransientConfig {
            t_end: 1e-9,
            scheme: IntegrationScheme::Trapezoidal,
            pcg_tol: 1e-9,
            ..Default::default()
        };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let direct = simulate_direct_varied(&pg, &cfg, &[near]).unwrap();
        let iter = simulate_pcg(&pg, &cfg, &pre, &[near]).unwrap();
        // Same scheme on the same time grid: agreement to solver tolerance.
        assert_eq!(direct.times.len(), iter.times.len());
        let d = direct.max_probe_difference(&iter, 0, 300);
        assert!(d < 1e-5, "trapezoidal direct vs PCG differ by {d} V");
    }

    #[test]
    fn clamped_last_fixed_step_integrates_its_own_length() {
        let pg = small_grid();
        let (_, far) = probe_pair(&pg);
        let run = |h: f64| {
            let cfg = TransientConfig { t_end: 1e-9, fixed_step: Some(h), ..Default::default() };
            simulate_direct(&pg, &cfg, &[far]).unwrap()
        };
        // 3e-11 s does not divide 1 ns: 33 full steps and one of 1e-11 s,
        // which needs its own factor of G + C/h.
        let clamped = run(3e-11);
        assert_eq!(clamped.stats.steps, 34);
        assert_eq!(clamped.stats.factorizations, 2);
        let fine = run(1e-11);
        assert_eq!(fine.stats.steps, 100);
        assert_eq!(fine.stats.factorizations, 1);
        let gap = (clamped.probes[0].last().unwrap() - fine.probes[0].last().unwrap()).abs();
        assert!(gap < 1e-4, "far probe at t_end differs by {gap} V");
    }

    #[test]
    fn varied_direct_matches_pcg_and_counts_factorizations() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let probes = [near, far];
        let cfg = TransientConfig { t_end: 2e-9, pcg_tol: 1e-9, ..Default::default() };
        let varied = simulate_direct_varied(&pg, &cfg, &probes).unwrap();
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let iter = simulate_pcg(&pg, &cfg, &pre, &probes).unwrap();
        // Identical time grid and scheme: solutions agree to PCG tolerance.
        assert_eq!(varied.times, iter.times);
        for idx in 0..2 {
            let d = varied.max_probe_difference(&iter, idx, 300);
            assert!(d < 1e-5, "probe {idx} differs by {d} V");
        }
        // The paper's complaint: varied steps force refactorizations
        // (several even on this small lattice-aligned case), while PCG
        // never refactorizes.
        assert!(
            varied.stats.factorizations > 1,
            "breakpoint-driven stepping must change h, got {}",
            varied.stats.factorizations
        );
        assert_eq!(iter.stats.factorizations, 0);
    }

    /// Deterministic scenario ensemble: the nominal corner plus per-source
    /// activity patterns.
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

    /// Largest pointwise gap between two runs' probe traces (same grid).
    fn max_trace_gap(a: &TransientResult, b: &TransientResult) -> f64 {
        assert_eq!(a.times, b.times);
        a.probes
            .iter()
            .zip(b.probes.iter())
            .flat_map(|(ta, tb)| ta.iter().zip(tb.iter()).map(|(x, y)| (x - y).abs()))
            .fold(0.0, f64::max)
    }

    #[test]
    fn pcg_batch_matches_independent_runs_per_scenario() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let probes = [near, far];
        let cfg = TransientConfig { t_end: 1e-9, pcg_tol: 1e-8, ..Default::default() };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let scenarios = scenario_ensemble(&pg, 8);
        let batch = simulate_pcg_batch(&pg, &cfg, &pre, &probes, &scenarios).unwrap();
        assert_eq!(batch.len(), 8);
        for (s, sc) in scenarios.iter().enumerate() {
            let single = simulate_pcg_batch(&pg, &cfg, &pre, &probes, std::slice::from_ref(sc))
                .unwrap()
                .pop()
                .unwrap();
            // Column recurrences are independent, so the batch must match
            // an isolated run essentially exactly (signed zeros aside).
            let gap = max_trace_gap(&batch[s], &single);
            assert!(gap < 1e-12, "scenario {s} diverged by {gap} V");
            assert_eq!(
                batch[s].stats.total_pcg_iterations, single.stats.total_pcg_iterations,
                "scenario {s} iteration accounting changed under batching"
            );
        }
        // The nominal scenario must also match the public single-RHS API.
        let nominal = simulate_pcg(&pg, &cfg, &pre, &probes).unwrap();
        assert!(max_trace_gap(&batch[0], &nominal) == 0.0);
        // Scaled scenarios genuinely differ from nominal.
        assert!(max_trace_gap(&batch[0], &batch[3]) > 1e-6);
    }

    #[test]
    fn direct_batch_matches_independent_runs_per_scenario() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let probes = [near, far];
        let cfg = quick_cfg();
        let scenarios = scenario_ensemble(&pg, 3);
        let batch = simulate_direct_batch(&pg, &cfg, &probes, &scenarios).unwrap();
        for (s, sc) in scenarios.iter().enumerate() {
            let single = simulate_direct_batch(&pg, &cfg, &probes, std::slice::from_ref(sc))
                .unwrap()
                .pop()
                .unwrap();
            let gap = max_trace_gap(&batch[s], &single);
            assert!(gap < 1e-12, "scenario {s} diverged by {gap} V");
        }
        let nominal = simulate_direct(&pg, &cfg, &probes).unwrap();
        assert!(max_trace_gap(&batch[0], &nominal) == 0.0);
        assert_eq!(batch[0].stats.factorizations, 1);
    }

    #[test]
    fn batch_dc_points_match_single_dc_solves() {
        let pg = small_grid();
        let scenarios = scenario_ensemble(&pg, 4);
        let v = dc_points_batch_threads(&pg, &scenarios, 1).unwrap();
        let g = pg.conductance_matrix();
        for (s, sc) in scenarios.iter().enumerate() {
            let b = pg.dc_rhs_scaled(sc.source_scale.as_deref());
            assert!(g.residual_inf_norm(v.col(s), &b) < 1e-8, "scenario {s}");
        }
        // Nominal column agrees with the single-RHS entry point.
        let single = dc_operating_point(&pg).unwrap();
        for (a, b) in v.col(0).iter().zip(single.iter()) {
            assert!((a - b).abs() == 0.0);
        }
    }

    #[test]
    fn threads_knob_reaches_parallel_kernels_and_preserves_solutions() {
        let pg = small_grid();
        let (near, _) = probe_pair(&pg);
        let cfg = TransientConfig { t_end: 5e-10, pcg_tol: 1e-9, ..Default::default() };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let serial = simulate_pcg(&pg, &cfg, &pre, &[near]).unwrap();
        for threads in [2usize, 4] {
            let par =
                simulate_pcg(&pg, &TransientConfig { threads, ..cfg }, &pre, &[near]).unwrap();
            // Chunked reductions only change rounding: solutions agree to
            // solver tolerance and iteration counts stay close.
            let gap = serial.max_probe_difference(&par, 0, 200);
            assert!(gap < 1e-6, "threads {threads}: waveforms diverged by {gap} V");
            let (a, b) = (serial.stats.total_pcg_iterations, par.stats.total_pcg_iterations);
            assert!(
                a.abs_diff(b) <= serial.stats.steps * 2 + 4,
                "threads {threads}: iterations moved from {a} to {b}"
            );
        }
    }

    /// The nominal backward-Euler PCG transient rebuilt one step at a time
    /// from public calls: probe traces and total PCG iterations.
    fn per_step_reference(
        pg: &PowerGrid,
        cfg: &TransientConfig,
        pre: &CholPreconditioner,
        probe_nodes: &[usize],
    ) -> (Vec<Vec<f64>>, usize) {
        let waveforms: Vec<_> = pg.sources().iter().map(|s| s.waveform).collect();
        let grid = merged_time_grid(&waveforms, cfg.t_end, cfg.max_step);
        let g = pg.conductance_shared();
        let opts = PcgOptions { rel_tolerance: cfg.pcg_tol, max_iterations: 10_000, threads: 1 };
        let mut v = dc_operating_point(pg).unwrap();
        let mut traces: Vec<Vec<f64>> = probe_nodes.iter().map(|&p| vec![v[p]]).collect();
        let mut rhs = vec![0.0; v.len()];
        let mut iterations = 0;
        for w in grid.windows(2) {
            let h = w[1] - w[0];
            let shifts: Vec<f64> = pg.capacitance().iter().map(|&c| c / h).collect();
            let a = g.add_diagonal(&shifts).unwrap();
            pg.transient_rhs(w[1], h, &v, &mut rhs);
            let sol = tracered_solver::pcg::pcg_with_guess(&a, &rhs, Some(&v[..]), pre, &opts);
            iterations += sol.iterations;
            v = sol.x;
            for (trace, &p) in traces.iter_mut().zip(probe_nodes) {
                trace.push(v[p]);
            }
        }
        (traces, iterations)
    }

    #[test]
    fn pcg_outcomes_match_a_per_step_reference_when_healthy() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let probes = [near, far];
        let cfg = TransientConfig { t_end: 1e-9, pcg_tol: 1e-8, ..Default::default() };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let scenarios = scenario_ensemble(&pg, 4);
        let outcomes = simulate_pcg_batch_outcomes(&pg, &cfg, &pre, &probes, &scenarios).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(ScenarioOutcome::is_completed), "healthy scenarios complete");
        // Block PCG repeats single-RHS PCG column for column, so the
        // nominal column equals the reference under `==` (which also
        // equates the signed zeros the block contract lets differ).
        let nominal = outcomes[0].result().unwrap();
        let (traces, iterations) = per_step_reference(&pg, &cfg, &pre, &probes);
        assert_eq!(nominal.probes, traces);
        assert_eq!(nominal.stats.total_pcg_iterations, iterations);
    }

    /// The `InvalidValue` text `simulate_pcg_batch` returns for `scenarios`.
    fn pcg_batch_error(pg: &PowerGrid, scenarios: &[SourceScenario]) -> String {
        let cfg = TransientConfig { t_end: 2e-10, ..Default::default() };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        match simulate_pcg_batch(pg, &cfg, &pre, &[0], scenarios) {
            Err(SparseError::InvalidValue { what }) => what,
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn pcg_batch_reports_a_nan_scale_as_a_typed_error() {
        let pg = small_grid();
        let mut scales = vec![1.0; pg.sources().len()];
        scales[3] = f64::NAN;
        let what =
            pcg_batch_error(&pg, &[SourceScenario::nominal(), SourceScenario::per_source(scales)]);
        assert!(what.contains("scenario 1 failed at step 0"), "{what}");
        assert!(what.contains("non-finite source scale NaN at index 3"), "{what}");
    }

    #[test]
    fn pcg_batch_reports_a_wrong_scale_length_as_a_typed_error() {
        let pg = small_grid();
        let what = pcg_batch_error(
            &pg,
            &[SourceScenario::nominal(), SourceScenario::per_source(vec![1.0, 2.0])],
        );
        assert!(what.contains("scenario 1 failed at step 0"), "{what}");
        assert!(what.contains("scale vector has 2 entries"), "{what}");
    }

    #[test]
    fn pcg_outcomes_isolate_a_poisoned_scenario() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        let probes = [near, far];
        let cfg = TransientConfig { t_end: 1e-9, pcg_tol: 1e-8, ..Default::default() };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let mut scenarios = scenario_ensemble(&pg, 4);
        // Poison scenario 2 with a NaN scale; the rest must be unaffected.
        let m = pg.sources().len();
        let mut bad = vec![1.0; m];
        bad[0] = f64::NAN;
        scenarios[2] = SourceScenario::per_source(bad);
        let clean: Vec<SourceScenario> =
            [0usize, 1, 3].iter().map(|&s| scenarios[s].clone()).collect();
        let reference = simulate_pcg_batch(&pg, &cfg, &pre, &probes, &clean).unwrap();
        let outcomes = simulate_pcg_batch_outcomes(&pg, &cfg, &pre, &probes, &scenarios).unwrap();
        let fail = outcomes[2].failure().expect("poisoned scenario must fail");
        assert_eq!(fail.scenario, 2);
        assert_eq!(fail.step, 0);
        assert!(matches!(fail.kind, ScenarioFailureKind::InvalidScale { index: 0, .. }));
        assert!(fail.to_string().contains("scenario 2"));
        for (r, &s) in reference.iter().zip([0usize, 1, 3].iter()) {
            let out = outcomes[s].result().expect("clean scenario must survive");
            // Column independence: survivors are bit-identical to a batch
            // that never contained the poisoned member.
            assert_eq!(max_trace_gap(out, r), 0.0, "scenario {s}");
        }
    }

    #[test]
    fn pcg_outcomes_flag_wrong_scale_length() {
        let pg = small_grid();
        let cfg = TransientConfig { t_end: 2e-10, ..Default::default() };
        let pre = CholPreconditioner::from_matrix(&pg.conductance_matrix()).unwrap();
        let scenarios = vec![SourceScenario::nominal(), SourceScenario::per_source(vec![1.0, 2.0])];
        let outcomes = simulate_pcg_batch_outcomes(&pg, &cfg, &pre, &[0], &scenarios).unwrap();
        assert!(outcomes[0].is_completed());
        assert!(matches!(
            outcomes[1].failure().unwrap().kind,
            ScenarioFailureKind::ScaleLength { found: 2, .. }
        ));
    }

    #[test]
    fn direct_batch_reports_malformed_scales_as_typed_errors() {
        let pg = small_grid();
        let m = pg.sources().len();
        let mut infinite = vec![1.0; m];
        infinite[1] = f64::INFINITY;
        for (bad, reason) in [(infinite, "scale inf at index 1"), (vec![1.0, 2.0], "has 2 entries")]
        {
            let scenarios = [SourceScenario::nominal(), SourceScenario::per_source(bad)];
            match simulate_direct_batch(&pg, &quick_cfg(), &[0], &scenarios) {
                Err(SparseError::InvalidValue { what }) => {
                    let named = what.contains("scenario 1 failed at step 0: ");
                    assert!(named && what.contains(reason), "{what}");
                }
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn probe_pair_separates_pad_and_droop_nodes() {
        let pg = small_grid();
        let (near, far) = probe_pair(&pg);
        assert!(pg.pad_conductance()[near] > 0.0);
        assert_eq!(pg.pad_conductance()[far], 0.0);
        assert_ne!(near, far);
    }

    #[test]
    fn sample_interpolates_linearly() {
        let r = TransientResult {
            times: vec![0.0, 1.0, 2.0],
            probes: vec![vec![0.0, 10.0, 0.0]],
            stats: TransientStats {
                steps: 2,
                factor_time: Duration::ZERO,
                solve_time: Duration::ZERO,
                total_pcg_iterations: 0,
                avg_pcg_iterations: 0.0,
                memory_bytes: 0,
                factorizations: 0,
            },
        };
        assert_eq!(r.sample(0, 0.5), 5.0);
        assert_eq!(r.sample(0, 1.5), 5.0);
        assert_eq!(r.sample(0, -1.0), 0.0);
        assert_eq!(r.sample(0, 99.0), 0.0);
    }
}
