//! Blocked preconditioned conjugate gradient for batches of right-hand
//! sides sharing one SPD matrix.
//!
//! Power-grid transient analysis solves `A x = b` against many right-hand
//! sides per timestep (one per source scenario). [`block_pcg`] advances
//! all of them together: every iteration performs **one** SpMM
//! ([`CscMatrix::sym_mul_multi_into_threads`], whose (column, row-range)
//! tiles read `A` once per column) and **one** multi-column
//! preconditioner apply ([`Preconditioner::apply_multi`]), which streams
//! the preconditioner's factor once per batch instead of once per
//! column.
//!
//! # Equivalence contract
//!
//! Columns do **not** share Krylov information: each carries its own
//! `α`/`β`/residual recurrence, so column `j` of a batch solve performs
//! exactly the arithmetic of [`crate::pcg::pcg_with_guess`] on
//! `b.col(j)` — results match column for column (up to the sign of exact
//! zeros, inherited from the blocked triangular solves), and both solvers
//! are bit-identical at every thread count. The win is kernel fusion and
//! factor-stream amortization, not a different Krylov method; a true
//! shared-subspace block-Krylov variant is future work (see ROADMAP).
//!
//! # Deflation
//!
//! Converged (or broken-down) columns are *deflated*: swapped to the back
//! of the working blocks and truncated away in `O(1)`, so late iterations
//! only pay for the columns still converging. Deflation never changes the
//! arithmetic of surviving columns — per-column recurrences are
//! independent by construction.

use tracered_sparse::{par_dot, par_xpby, CscMatrix, MultiVec};

use crate::pcg::{matrix_scale, step, PcgOptions};
use crate::precond::Preconditioner;
use crate::termination::{TerminationReason, STAGNATION_WINDOW};

/// Result of a [`block_pcg`] solve. Per-column diagnostics are indexed by
/// the original right-hand-side column, regardless of deflation order.
#[derive(Debug, Clone)]
pub struct BlockPcgSolution {
    /// Solution block: column `j` solves `A x = b.col(j)`.
    pub x: MultiVec,
    /// Iterations each column performed before converging (or stopping).
    pub iterations: Vec<usize>,
    /// Final relative residual per column.
    pub rel_residual: Vec<f64>,
    /// Whether each column met the tolerance.
    pub converged: Vec<bool>,
    /// Why each column stopped — the same classification as the
    /// single-RHS [`crate::PcgSolution`], per column.
    pub reasons: Vec<TerminationReason>,
    /// Block iterations executed (the maximum over column iterations).
    pub sweeps: usize,
}

impl BlockPcgSolution {
    /// `true` when every column converged.
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|&c| c)
    }

    /// Total PCG iterations summed over columns (the batch analog of the
    /// paper's `N_i` accounting).
    pub fn total_iterations(&self) -> usize {
        self.iterations.iter().sum()
    }

    /// Original column indices that stopped on a numerical breakdown
    /// (not converged, not merely capped).
    pub fn breakdown_columns(&self) -> Vec<usize> {
        self.reasons.iter().enumerate().filter(|(_, r)| r.is_breakdown()).map(|(c, _)| c).collect()
    }
}

/// Solves `A X = B` by blocked preconditioned conjugate gradient from
/// zero initial guesses.
///
/// ```
/// use tracered_core::{sparsify, SparsifyConfig};
/// use tracered_graph::gen::{grid2d, WeightProfile};
/// use tracered_solver::pcg::PcgOptions;
/// use tracered_solver::precond::CholPreconditioner;
/// use tracered_solver::block_pcg;
/// use tracered_sparse::MultiVec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = grid2d(12, 12, WeightProfile::Unit, 1);
/// let sp = sparsify(&g, &SparsifyConfig::default())?;
/// let lg = sp.graph_laplacian(&g);
/// let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g))?;
/// // Four right-hand sides advance together: one SpMM and one blocked
/// // preconditioner apply per iteration instead of four of each.
/// let b = MultiVec::broadcast(&vec![1.0; g.num_nodes()], 4);
/// let sol = block_pcg(&lg, &b, &pre, &PcgOptions::default());
/// assert!(sol.all_converged());
/// assert_eq!(sol.x.ncols(), 4);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn block_pcg<P: Preconditioner>(
    a: &CscMatrix,
    b: &MultiVec,
    preconditioner: &P,
    options: &PcgOptions,
) -> BlockPcgSolution {
    block_pcg_with_guess(a, b, None, preconditioner, options)
}

/// Solves `A X = B` starting from an optional block of initial guesses —
/// the batch transient engine warm-starts every column from the
/// scenario's previous voltage vector.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn block_pcg_with_guess<P: Preconditioner>(
    a: &CscMatrix,
    b: &MultiVec,
    x0: Option<&MultiVec>,
    preconditioner: &P,
    options: &PcgOptions,
) -> BlockPcgSolution {
    let n = a.ncols();
    assert_eq!(a.nrows(), n, "matrix must be square");
    assert_eq!(b.nrows(), n, "rhs rows must equal n");
    let k = b.ncols();
    let mut span = tracered_obs::span!("block_pcg.solve", { n: n, width: k });
    let t = options.threads.max(1);
    debug_assert!(
        a.is_symmetric_within(1e-9 * matrix_scale(a)),
        "block PCG requires a symmetric matrix"
    );
    let dot_t = |u: &[f64], v: &[f64]| par_dot(u, v, t);
    let norm_t = |v: &[f64]| dot_t(v, v).sqrt();

    let mut x = match x0 {
        Some(g) => {
            assert_eq!(g.nrows(), n, "guess rows must equal n");
            assert_eq!(g.ncols(), k, "guess width must match rhs width");
            g.clone()
        }
        None => MultiVec::zeros(n, k),
    };
    let mut iterations = vec![0usize; k];
    let mut rel_residual = vec![0.0f64; k];
    let mut converged = vec![false; k];
    let mut reasons = vec![TerminationReason::MaxIterations; k];
    // Per-column stagnation trackers, indexed by original column like the
    // other diagnostics (deflation reorders slots, not columns).
    let mut best_rel = vec![f64::INFINITY; k];
    let mut since_improve = vec![0usize; k];

    // Zero right-hand sides are answered with zero columns immediately,
    // like the single-RHS path; everything else enters the active set.
    let mut slot2col: Vec<usize> = Vec::with_capacity(k);
    let mut bnorms: Vec<f64> = Vec::with_capacity(k);
    for (col, conv) in converged.iter_mut().enumerate() {
        let bnorm = norm_t(b.col(col));
        if bnorm == 0.0 {
            x.col_mut(col).fill(0.0);
            *conv = true;
            reasons[col] = TerminationReason::Converged;
        } else {
            slot2col.push(col);
            bnorms.push(bnorm);
        }
    }
    let m0 = slot2col.len();

    // Working blocks hold only active columns; `slot2col` maps their
    // slots back to original column indices.
    let mut p_blk = MultiVec::zeros(n, m0);
    for (s, &col) in slot2col.iter().enumerate() {
        p_blk.col_mut(s).copy_from_slice(x.col(col));
    }
    let mut ap_blk = MultiVec::zeros(n, m0);
    let spmm = |v: &MultiVec, out: &mut MultiVec| a.sym_mul_multi_into_threads(v, out, t);
    spmm(&p_blk, &mut ap_blk);
    let mut r_blk = MultiVec::zeros(n, m0);
    for (s, &col) in slot2col.iter().enumerate() {
        let bc = b.col(col);
        let axc = ap_blk.col(s);
        for (i, ri) in r_blk.col_mut(s).iter_mut().enumerate() {
            *ri = bc[i] - axc[i];
        }
    }
    let mut z_blk = MultiVec::zeros(n, m0);
    preconditioner.apply_multi(&r_blk, &mut z_blk);
    let mut rzs: Vec<f64> = Vec::with_capacity(m0);
    for s in 0..m0 {
        p_blk.col_mut(s).copy_from_slice(z_blk.col(s));
        rzs.push(dot_t(r_blk.col(s), z_blk.col(s)));
        let rel = norm_t(r_blk.col(s)) / bnorms[s];
        rel_residual[slot2col[s]] = rel;
        best_rel[slot2col[s]] = rel;
    }

    #[allow(clippy::too_many_arguments)]
    fn deflate(
        s: usize,
        r: &mut MultiVec,
        z: &mut MultiVec,
        p: &mut MultiVec,
        ap: &mut MultiVec,
        rzs: &mut Vec<f64>,
        bnorms: &mut Vec<f64>,
        slot2col: &mut Vec<usize>,
    ) {
        let last = slot2col.len() - 1;
        for blk in [r, z, p, ap] {
            blk.swap_cols(s, last);
            blk.truncate_cols(last);
        }
        rzs.swap_remove(s);
        bnorms.swap_remove(s);
        slot2col.swap_remove(s);
    }

    // Columns already at tolerance converge with zero iterations; a NaN
    // rhs or guess poisons the entry residual and is classified before
    // any work, like the single-RHS path's skipped loop.
    for s in (0..slot2col.len()).rev() {
        let rel = rel_residual[slot2col[s]];
        let done = if rel <= options.rel_tolerance {
            converged[slot2col[s]] = true;
            reasons[slot2col[s]] = TerminationReason::Converged;
            true
        } else if !rel.is_finite() {
            reasons[slot2col[s]] = TerminationReason::NonFinite;
            true
        } else {
            false
        };
        if done {
            deflate(
                s,
                &mut r_blk,
                &mut z_blk,
                &mut p_blk,
                &mut ap_blk,
                &mut rzs,
                &mut bnorms,
                &mut slot2col,
            );
        }
    }

    let mut sweeps = 0usize;
    while !slot2col.is_empty() && sweeps < options.max_iterations {
        spmm(&p_blk, &mut ap_blk);
        // Per-column curvature check; broken-down columns deflate before
        // the solution update, keeping their best iterate (as the
        // single-RHS path's `break` does).
        let mut paps: Vec<f64> = Vec::with_capacity(slot2col.len());
        for s in 0..slot2col.len() {
            paps.push(dot_t(p_blk.col(s), ap_blk.col(s)));
        }
        for s in (0..slot2col.len()).rev() {
            if paps[s] <= 0.0 || !paps[s].is_finite() {
                reasons[slot2col[s]] = if !paps[s].is_finite() {
                    TerminationReason::NonFinite
                } else {
                    TerminationReason::IndefiniteOperator
                };
                paps.swap_remove(s);
                deflate(
                    s,
                    &mut r_blk,
                    &mut z_blk,
                    &mut p_blk,
                    &mut ap_blk,
                    &mut rzs,
                    &mut bnorms,
                    &mut slot2col,
                );
            }
        }
        if slot2col.is_empty() {
            break;
        }
        // x ← x + α p, r ← r − α Ap, fused per column.
        for s in 0..slot2col.len() {
            let alpha = rzs[s] / paps[s];
            step(x.col_mut(slot2col[s]), r_blk.col_mut(s), alpha, p_blk.col(s), ap_blk.col(s), t);
        }
        sweeps += 1;
        for s in (0..slot2col.len()).rev() {
            let col = slot2col[s];
            iterations[col] += 1;
            let rel = norm_t(r_blk.col(s)) / bnorms[s];
            rel_residual[col] = rel;
            // Same classification order as the single-RHS loop: a
            // non-finite residual, then the tolerance, then stagnation.
            let done = if !rel.is_finite() {
                reasons[col] = TerminationReason::NonFinite;
                true
            } else if rel <= options.rel_tolerance {
                converged[col] = true;
                reasons[col] = TerminationReason::Converged;
                true
            } else if rel < best_rel[col] {
                best_rel[col] = rel;
                since_improve[col] = 0;
                false
            } else {
                since_improve[col] += 1;
                if since_improve[col] >= STAGNATION_WINDOW {
                    reasons[col] = TerminationReason::Stagnation;
                    true
                } else {
                    false
                }
            };
            if done {
                deflate(
                    s,
                    &mut r_blk,
                    &mut z_blk,
                    &mut p_blk,
                    &mut ap_blk,
                    &mut rzs,
                    &mut bnorms,
                    &mut slot2col,
                );
            }
        }
        if tracered_obs::iter_events_enabled() {
            tracered_obs::event!("block_pcg.iter", { iter: sweeps, active: slot2col.len() });
        }
        if slot2col.is_empty() || sweeps >= options.max_iterations {
            break;
        }
        preconditioner.apply_multi(&r_blk, &mut z_blk);
        // Preconditioner curvature check mirrors the single-RHS path:
        // compute every rᵀz first, deflate broken columns (keeping their
        // best iterate), then advance the survivors' recurrences — the
        // survivor arithmetic is untouched by the deflations.
        let mut rz_nexts: Vec<f64> = Vec::with_capacity(slot2col.len());
        for s in 0..slot2col.len() {
            rz_nexts.push(dot_t(r_blk.col(s), z_blk.col(s)));
        }
        for s in (0..slot2col.len()).rev() {
            if rz_nexts[s] <= 0.0 || !rz_nexts[s].is_finite() {
                reasons[slot2col[s]] = if !rz_nexts[s].is_finite() {
                    TerminationReason::NonFinite
                } else {
                    TerminationReason::IndefinitePreconditioner
                };
                rz_nexts.swap_remove(s);
                deflate(
                    s,
                    &mut r_blk,
                    &mut z_blk,
                    &mut p_blk,
                    &mut ap_blk,
                    &mut rzs,
                    &mut bnorms,
                    &mut slot2col,
                );
            }
        }
        for (s, rz) in rzs.iter_mut().enumerate() {
            let rz_next = rz_nexts[s];
            let beta = rz_next / *rz;
            *rz = rz_next;
            par_xpby(p_blk.col_mut(s), beta, z_blk.col(s), t);
        }
    }
    if let Some(g) = span.as_mut() {
        g.arg("sweeps", sweeps as f64);
        g.arg("total_iterations", iterations.iter().sum::<usize>() as f64);
        g.arg("converged_cols", converged.iter().filter(|&&c| c).count() as f64);
    }
    BlockPcgSolution { x, iterations, rel_residual, converged, reasons, sweeps }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pcg::{pcg, pcg_with_guess};
    use crate::precond::{CholPreconditioner, IdentityPreconditioner, JacobiPreconditioner};
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;

    fn system() -> (CscMatrix, MultiVec) {
        let g = grid2d(9, 11, WeightProfile::LogUniform { lo: 0.4, hi: 3.0 }, 5);
        let n = g.num_nodes();
        let a = laplacian_with_shifts(&g, &vec![0.05; n]);
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|c| (0..n).map(|i| ((i * 29 + c * 7) % 23) as f64 - 11.0).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        (a, MultiVec::from_columns(&refs).unwrap())
    }

    #[test]
    fn block_solve_matches_independent_single_solves() {
        let (a, b) = system();
        let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
        let opts = PcgOptions::with_tolerance(1e-9);
        let block = block_pcg(&a, &b, &pre, &opts);
        assert!(block.all_converged());
        for c in 0..b.ncols() {
            let single = pcg(&a, b.col(c), &pre, &opts);
            assert_eq!(single.iterations, block.iterations[c], "column {c} iteration count");
            assert_eq!(single.converged, block.converged[c]);
            for (s, m) in single.x.iter().zip(block.x.col(c).iter()) {
                assert!((s - m).abs() == 0.0, "column {c} solutions diverged");
            }
        }
        assert_eq!(block.sweeps, *block.iterations.iter().max().unwrap());
        assert!(block.total_iterations() >= block.sweeps);
    }

    #[test]
    fn warm_started_block_matches_warm_started_singles() {
        let (a, b) = system();
        let pre = CholPreconditioner::from_matrix(&a).unwrap();
        let opts = PcgOptions::with_tolerance(1e-10);
        let cold = block_pcg(&a, &b, &pre, &opts);
        let warm = block_pcg_with_guess(&a, &b, Some(&cold.x), &pre, &opts);
        for c in 0..b.ncols() {
            let single = pcg_with_guess(&a, b.col(c), Some(cold.x.col(c)), &pre, &opts);
            assert_eq!(single.iterations, warm.iterations[c]);
            assert!(warm.iterations[c] <= 2, "warm start must converge fast");
        }
    }

    #[test]
    fn zero_columns_deflate_immediately() {
        let (a, b) = system();
        let n = a.ncols();
        let zero = vec![0.0; n];
        let cols = [b.col(0), &zero[..], b.col(1)];
        let mixed = MultiVec::from_columns(&cols).unwrap();
        let sol = block_pcg(&a, &mixed, &IdentityPreconditioner, &PcgOptions::with_tolerance(1e-8));
        assert!(sol.converged[1]);
        assert_eq!(sol.iterations[1], 0);
        assert!(sol.x.col(1).iter().all(|&v| v == 0.0));
        assert!(sol.converged[0] && sol.converged[2]);
        assert!(a.residual_inf_norm(sol.x.col(0), b.col(0)) < 1e-4);
    }

    #[test]
    fn iteration_cap_applies_per_column() {
        let (a, b) = system();
        let opts = PcgOptions { rel_tolerance: 1e-14, max_iterations: 3, ..Default::default() };
        let sol = block_pcg(&a, &b, &IdentityPreconditioner, &opts);
        assert_eq!(sol.sweeps, 3);
        for c in 0..b.ncols() {
            assert!(!sol.converged[c]);
            assert_eq!(sol.iterations[c], 3);
        }
    }

    #[test]
    fn deflation_keeps_survivor_columns_exact() {
        // Mix a trivially easy column (preconditioned exactly) with hard
        // ones: the easy column deflates after the first sweeps and the
        // others must still match their single-RHS runs bit for bit.
        let (a, b) = system();
        let pre = CholPreconditioner::from_matrix(&a).unwrap();
        let opts = PcgOptions::with_tolerance(1e-12);
        let block = block_pcg(&a, &b, &pre, &opts);
        for c in 0..b.ncols() {
            let single = pcg(&a, b.col(c), &pre, &opts);
            assert_eq!(single.iterations, block.iterations[c]);
            for (s, m) in single.x.iter().zip(block.x.col(c).iter()) {
                assert!((s - m).abs() == 0.0, "column {c} diverged after deflation");
            }
        }
    }

    #[test]
    fn parallel_block_matches_parallel_singles() {
        let (a, b) = system();
        let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
        for threads in [2usize, 4] {
            let opts = PcgOptions::with_tolerance(1e-9).threads(threads);
            let block = block_pcg(&a, &b, &pre, &opts);
            assert!(block.all_converged());
            for c in 0..b.ncols() {
                let single = pcg(&a, b.col(c), &pre, &opts);
                assert_eq!(
                    single.iterations, block.iterations[c],
                    "column {c} at {threads} threads"
                );
                for (s, m) in single.x.iter().zip(block.x.col(c).iter()) {
                    assert!((s - m).abs() == 0.0, "column {c} diverged at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (a, _) = system();
        let b = MultiVec::zeros(a.ncols(), 0);
        let sol = block_pcg(&a, &b, &IdentityPreconditioner, &PcgOptions::default());
        assert_eq!(sol.x.ncols(), 0);
        assert!(sol.iterations.is_empty());
        assert!(sol.reasons.is_empty());
        assert_eq!(sol.sweeps, 0);
    }

    #[test]
    fn reasons_match_single_rhs_classification() {
        use crate::termination::TerminationReason;
        let (a, b) = system();
        let pre = JacobiPreconditioner::from_matrix(&a).unwrap();
        for opts in [
            PcgOptions::with_tolerance(1e-9),
            PcgOptions { rel_tolerance: 1e-14, max_iterations: 3, ..Default::default() },
        ] {
            let block = block_pcg(&a, &b, &pre, &opts);
            for c in 0..b.ncols() {
                let single = pcg(&a, b.col(c), &pre, &opts);
                assert_eq!(single.reason, block.reasons[c], "column {c}");
            }
        }
        // Zero columns are classified converged.
        let zero = MultiVec::zeros(a.ncols(), 2);
        let sol = block_pcg(&a, &zero, &pre, &PcgOptions::default());
        assert!(sol.reasons.iter().all(|&r| r == TerminationReason::Converged));
        assert!(sol.breakdown_columns().is_empty());
    }

    #[test]
    fn per_column_breakdowns_leave_survivors_untouched() {
        use crate::termination::TerminationReason;
        use tracered_sparse::CooMatrix;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let a = coo.to_csc();
        // Column 0 hits pᵀAp = 0 immediately; column 1 never touches the
        // indefinite coordinate and converges exactly.
        let cols = [&[1.0, 1.0][..], &[1.0, 0.0][..]];
        let b = MultiVec::from_columns(&cols).unwrap();
        let sol = block_pcg(&a, &b, &IdentityPreconditioner, &PcgOptions::default());
        assert_eq!(sol.reasons[0], TerminationReason::IndefiniteOperator);
        assert!(!sol.converged[0]);
        assert_eq!(sol.reasons[1], TerminationReason::Converged);
        assert!(sol.converged[1]);
        assert_eq!(sol.breakdown_columns(), vec![0]);
        // The survivor matches its single-RHS run bit for bit.
        let single = pcg(&a, b.col(1), &IdentityPreconditioner, &PcgOptions::default());
        assert_eq!(single.iterations, sol.iterations[1]);
        for (s, m) in single.x.iter().zip(sol.x.col(1).iter()) {
            assert!((s - m).abs() == 0.0);
        }
    }

    #[test]
    fn non_finite_column_is_classified_without_poisoning_batch() {
        use crate::termination::TerminationReason;
        let (a, b) = system();
        let n = a.ncols();
        let mut bad = vec![1.0; n];
        bad[3] = f64::NAN;
        let cols = [b.col(0), &bad[..]];
        let mixed = MultiVec::from_columns(&cols).unwrap();
        let sol = block_pcg(&a, &mixed, &IdentityPreconditioner, &PcgOptions::with_tolerance(1e-8));
        assert_eq!(sol.reasons[1], TerminationReason::NonFinite);
        assert!(!sol.converged[1]);
        assert_eq!(sol.iterations[1], 0, "poisoned column must be dropped before any work");
        assert!(sol.converged[0]);
        assert!(a.residual_inf_norm(sol.x.col(0), b.col(0)) < 1e-4);
    }
}
