//! Sparse rank-1 Cholesky update and downdate.
//!
//! Given a factor `P A Pᵀ = L Lᵀ`, [`CholeskyFactor::update`] rewrites
//! `L` in place so that it factors `A + w wᵀ`, and
//! [`CholeskyFactor::downdate`] does the same for `A − w wᵀ` — without
//! refactorizing. This is the CHOLMOD `updown` / CSparse `cs_updown`
//! scheme the paper's production workload (N-1/N-2 contingency
//! screening, a sweep of rank-1 Laplacian perturbations) depends on:
//! the numeric work is one hyperbolic-rotation walk along the
//! elimination-tree path of the update vector, `O(path column sizes)`
//! instead of a full numeric factorization.
//!
//! Three properties the rest of the workspace leans on:
//!
//! - **Pattern growth is handled, not assumed away.** An update vector
//!   whose support is not already "cliqued" in the factor pattern can
//!   introduce fill along its elimination-tree path. Before the numeric
//!   walk, the pattern is re-analysed from `pattern(L) ∪
//!   clique(supp(w̃))` — a superset of the exact new pattern — and old
//!   values are carried over (filled patterns are closed under symbolic
//!   factorization, so the refreshed pattern always contains the old
//!   one).
//! - **Downdates fail typed, never panic.** Subtracting `w wᵀ` can push
//!   the matrix out of positive definiteness; the walk detects the lost
//!   pivot (including the NaN/overflow routes) and returns
//!   [`SparseError::NotPositiveDefinite`] with the factor restored
//!   bit-for-bit to its pre-call state. Callers escalate exactly like a
//!   failed factorization — e.g. re-assemble and retry through the
//!   [`crate::regularize`] boost ladder of [`CholeskyFactor::factorize`].
//! - **Revert is bit-exact.** Hyperbolic rotations are not exact
//!   inverses in floating point, so "update then downdate with the same
//!   vector" replayed numerically would drift in the last ulps. Each
//!   applied operation therefore journals an undo record (the
//!   pre-operation values of every column it touched); reverting the
//!   most recent operation with the bitwise-identical vector pops the
//!   journal and restores the factor exactly. This is what lets a
//!   contingency sweep apply/revert hundreds of outages against one
//!   factor and leave it bit-identical to the start.
//!
//! # Example
//!
//! ```
//! use tracered_sparse::{CholeskyFactor, CooMatrix, order::Ordering};
//!
//! # fn main() -> Result<(), tracered_sparse::SparseError> {
//! // A shifted path-graph Laplacian (SPD).
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0)?;
//! coo.push(1, 1, 3.0)?;
//! coo.push(2, 2, 2.0)?;
//! coo.push_symmetric(0, 1, -1.0)?;
//! coo.push_symmetric(1, 2, -1.0)?;
//! let a = coo.to_csc();
//!
//! let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree)?;
//! let baseline = f.solve(&[1.0, 0.0, 1.0]);
//!
//! // Strengthen edge (0, 1) by 0.5: A + w wᵀ with w = √0.5 (e₀ − e₁).
//! let s = 0.5f64.sqrt();
//! let w = vec![s, -s, 0.0];
//! f.update(&w)?;
//!
//! // Revert: bit-identical to the original factor's solves.
//! f.downdate(&w)?;
//! assert_eq!(f.solve(&[1.0, 0.0, 1.0]), baseline);
//! # Ok(())
//! # }
//! ```

use crate::chol::{CholeskyFactor, SymbolicCholesky};
use crate::csc::CscMatrix;
use crate::error::SparseError;

/// Cap on remembered operations: a sweep that applies and reverts in
/// LIFO order (the contingency pattern) never holds more than one live
/// entry, but a caller stacking updates without reverting must not grow
/// the factor's footprint without bound.
const JOURNAL_CAP: usize = 32;

/// Undo record of one applied rank-1 operation. Stored newest-last in
/// the factor's journal; popping it restores the factor bit-for-bit.
#[derive(Debug, Clone)]
pub(crate) struct UndoEntry {
    /// `+1` if the journalled operation was an update, `-1` a downdate.
    sigma: i8,
    /// Nonzeros of the original-index-space vector, bit-exact, sorted by
    /// index — the match key for revert detection.
    support: Vec<(usize, u64)>,
    /// Pre-operation values of every column the numeric walk touched.
    saved: Vec<(usize, Vec<f64>)>,
    /// The entire pre-operation factor matrix when the operation grew
    /// the pattern (column slices alone cannot undo a structure change).
    old_l: Option<CscMatrix>,
}

/// What a successful [`CholeskyFactor::update`] / `downdate` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// Factor columns the numeric walk rewrote (zero-mass path columns
    /// are skipped; a journalled restore reports the columns restored).
    pub touched_columns: usize,
    /// Whether the factor pattern had to grow along the update path.
    pub grew_pattern: bool,
    /// Whether the operation was recognised as the exact inverse of the
    /// most recent journalled operation and satisfied by a bit-exact
    /// restore instead of a numeric walk.
    pub journaled_restore: bool,
}

impl CholeskyFactor {
    /// Rewrites the factor of `A` into a factor of `A + w wᵀ` in place.
    ///
    /// `w` is in **original** (unpermuted) index space. Cost is
    /// proportional to the factor columns on the elimination-tree path
    /// of `w`'s support, not to a full refactorization.
    ///
    /// # Errors
    ///
    /// - [`SparseError::DimensionMismatch`] if `w.len() != self.n()`;
    /// - [`SparseError::InvalidValue`] if `w` has a NaN/infinite entry;
    /// - [`SparseError::NotPositiveDefinite`] if the rotation walk loses
    ///   a pivot (possible for updates only through overflow).
    ///
    /// On error the factor is unchanged, bit-for-bit.
    pub fn update(&mut self, w: &[f64]) -> Result<UpdateReport, SparseError> {
        self.rank_one(w, 1)
    }

    /// Rewrites the factor of `A` into a factor of `A − w wᵀ` in place.
    ///
    /// Same contract as [`CholeskyFactor::update`]; additionally, a
    /// downdate that would make the matrix lose positive definiteness
    /// (e.g. removing a bridge edge from a Laplacian-plus-shifts system)
    /// returns [`SparseError::NotPositiveDefinite`] naming the permuted
    /// column where the pivot died, with the factor restored. Callers
    /// fall back exactly as for a failed factorization — re-assemble the
    /// perturbed matrix and escalate through the [`crate::regularize`]
    /// boost ladder of [`CholeskyFactor::factorize`].
    pub fn downdate(&mut self, w: &[f64]) -> Result<UpdateReport, SparseError> {
        self.rank_one(w, -1)
    }

    /// Number of applied-but-unreverted rank-1 operations this factor
    /// remembers (the undo-journal depth, capped at an internal bound).
    pub fn pending_updates(&self) -> usize {
        self.journal().len()
    }

    fn rank_one(&mut self, w: &[f64], sigma: i8) -> Result<UpdateReport, SparseError> {
        let n = self.n();
        if w.len() != n {
            return Err(SparseError::DimensionMismatch { expected: n, found: w.len() });
        }
        if let Some((i, &v)) = w.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(SparseError::InvalidValue {
                what: format!("non-finite rank-1 vector entry {v} at index {i}"),
            });
        }
        let support: Vec<(usize, u64)> = w
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v.to_bits()))
            .collect();
        let mut span = tracered_obs::span!("chol.update", {
            n: n,
            support: support.len(),
            sigma: sigma
        });
        if support.is_empty() {
            return Ok(UpdateReport {
                touched_columns: 0,
                grew_pattern: false,
                journaled_restore: false,
            });
        }

        // Bit-exact revert fast path: the inverse of the most recent
        // journalled operation.
        if let Some(report) = self.try_journal_restore(&support, sigma) {
            if let Some(s) = span.as_mut() {
                s.arg("journaled", 1.0);
            }
            return Ok(report);
        }

        // Permute the vector to factor index space.
        let wt = self.perm().apply(w);
        let mut supp: Vec<usize> =
            wt.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(i, _)| i).collect();
        supp.sort_unstable();

        // Grow the pattern if the support clique is not already present:
        // fill from the update can only appear along paths the clique
        // makes symbolic analysis aware of.
        let grew = !clique_in_pattern(self.l(), &supp);
        let old_l = if grew {
            let snapshot = self.l().clone();
            let refreshed = refreshed_pattern(self.l(), &supp)?;
            self.set_l(refreshed);
            Some(snapshot)
        } else {
            None
        };

        match updown_in_place(self.l_mut(), wt, supp[0], sigma) {
            Ok(saved) => {
                let touched = saved.len();
                let journal = self.journal_mut();
                if journal.len() == JOURNAL_CAP {
                    journal.remove(0);
                }
                journal.push(UndoEntry { sigma, support, saved, old_l });
                Ok(UpdateReport {
                    touched_columns: touched,
                    grew_pattern: grew,
                    journaled_restore: false,
                })
            }
            Err(e) => {
                // updown_in_place already restored the touched column
                // values; a grown pattern is rolled back wholesale so
                // the caller sees the exact pre-call factor.
                if let Some(old) = old_l {
                    self.set_l(old);
                }
                Err(e)
            }
        }
    }

    /// Pops and applies the top journal entry iff `(support, sigma)` is
    /// its exact inverse.
    fn try_journal_restore(&mut self, support: &[(usize, u64)], sigma: i8) -> Option<UpdateReport> {
        let matches =
            self.journal().last().is_some_and(|top| top.sigma == -sigma && top.support == support);
        if !matches {
            return None;
        }
        let entry = self.journal_mut().pop().expect("matched entry present");
        let touched = entry.saved.len();
        match entry.old_l {
            Some(old) => self.set_l(old),
            None => {
                let (colptr, _, values) = self.l_mut().parts_mut();
                for (j, vals) in &entry.saved {
                    let p0 = colptr[*j];
                    values[p0..p0 + vals.len()].copy_from_slice(vals);
                }
            }
        }
        Some(UpdateReport {
            touched_columns: touched,
            grew_pattern: false,
            journaled_restore: true,
        })
    }
}

/// Whether every pair of support indices is already connected in the
/// factor pattern (`L[b, a] ≠ 0` for all `a < b` in `supp`). When true,
/// symbolic analysis would reproduce the current pattern and the
/// refresh is skipped. Support sizes here are tiny (a Laplacian edge
/// perturbation has two), so the pairwise scan is cheap.
fn clique_in_pattern(l: &CscMatrix, supp: &[usize]) -> bool {
    for (i, &a) in supp.iter().enumerate() {
        let (rows, _) = l.col(a);
        for &b in &supp[i + 1..] {
            if rows.binary_search(&b).is_err() {
                return false;
            }
        }
    }
    true
}

/// Re-runs symbolic analysis on `pattern(L + Lᵀ) ∪ clique(supp)` and
/// returns a factor matrix with the (weakly larger) refreshed pattern,
/// old values carried over and fill entries zeroed.
fn refreshed_pattern(l: &CscMatrix, supp: &[usize]) -> Result<CscMatrix, SparseError> {
    let n = l.ncols();
    // Upper-triangular pattern: entry L(r, j) with j ≤ r becomes row j of
    // column r. Iterating columns of L in order appends rows ascending.
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let (rows, _) = l.col(j);
        for &r in rows {
            cols[r].push(j);
        }
    }
    for (i, &a) in supp.iter().enumerate() {
        for &b in &supp[i + 1..] {
            cols[b].push(a);
        }
    }
    let mut colptr = vec![0usize; n + 1];
    let mut rowidx = Vec::new();
    for (c, col) in cols.iter_mut().enumerate() {
        col.sort_unstable();
        col.dedup();
        rowidx.extend_from_slice(col);
        colptr[c + 1] = rowidx.len();
    }
    let nnz = rowidx.len();
    let upper = CscMatrix::from_raw_parts(n, n, colptr, rowidx, vec![1.0; nnz])?;
    let symbolic = SymbolicCholesky::analyze(&upper)?;
    let lcolptr = symbolic.lcolptr().to_vec();
    let lrowidx = symbolic.factor_structure(&upper);

    // Two-pointer merge of old values into the superset pattern.
    let mut lvalues = vec![0.0f64; lrowidx.len()];
    for j in 0..n {
        let (old_rows, old_vals) = l.col(j);
        let new_rows = &lrowidx[lcolptr[j]..lcolptr[j + 1]];
        let new_vals = &mut lvalues[lcolptr[j]..lcolptr[j + 1]];
        let mut src = 0;
        for (dst, &r) in new_rows.iter().enumerate() {
            if src < old_rows.len() && old_rows[src] == r {
                new_vals[dst] = old_vals[src];
                src += 1;
            }
        }
        debug_assert_eq!(src, old_rows.len(), "refreshed pattern must contain the old one");
    }
    CscMatrix::from_raw_parts(n, n, lcolptr, lrowidx, lvalues)
}

/// The CSparse `cs_updown` hyperbolic-rotation walk, specialised to
/// `L Lᵀ` storage. `x` is the permuted update vector (consumed), `f`
/// the first column of its elimination-tree path, `sigma` `+1`/`-1` for
/// update/downdate. Returns the pre-operation values of every rewritten
/// column; on pivot loss those values are restored before returning the
/// typed error, leaving `l` untouched.
fn updown_in_place(
    l: &mut CscMatrix,
    mut x: Vec<f64>,
    f: usize,
    sigma: i8,
) -> Result<Vec<(usize, Vec<f64>)>, SparseError> {
    let (colptr, rowidx, values) = l.parts_mut();
    let sig = f64::from(sigma);
    let mut saved: Vec<(usize, Vec<f64>)> = Vec::new();
    let mut beta = 1.0f64;
    let mut j = f;
    loop {
        let p0 = colptr[j];
        let p1 = colptr[j + 1];
        if x[j] != 0.0 {
            saved.push((j, values[p0..p1].to_vec()));
            let alpha = x[j] / values[p0];
            let beta2sq = beta * beta + sig * alpha * alpha;
            // A lost pivot reads `beta2sq <= 0`; NaN (downdating a
            // column whose diagonal already collapsed) and overflow fail
            // the same gate.
            if !beta2sq.is_finite() || beta2sq <= 0.0 {
                saved.pop(); // column `j` was not modified yet
                for (jj, vals) in &saved {
                    let q0 = colptr[*jj];
                    values[q0..q0 + vals.len()].copy_from_slice(vals);
                }
                return Err(SparseError::NotPositiveDefinite { column: j });
            }
            let beta2 = beta2sq.sqrt();
            let delta = if sigma > 0 { beta / beta2 } else { beta2 / beta };
            let gamma = sig * alpha / (beta2 * beta);
            values[p0] = delta * values[p0] + if sigma > 0 { gamma * x[j] } else { 0.0 };
            beta = beta2;
            for p in p0 + 1..p1 {
                let w1 = x[rowidx[p]];
                let w2 = w1 - alpha * values[p];
                x[rowidx[p]] = w2;
                values[p] = delta * values[p] + gamma * if sigma > 0 { w1 } else { w2 };
            }
        }
        // Next path column: the elimination-tree parent is the first
        // off-diagonal row (zero-mass columns pass through untouched —
        // their rotation is exactly the identity).
        if p1 - p0 >= 2 {
            j = rowidx[p0 + 1];
        } else {
            break;
        }
    }
    Ok(saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::order::Ordering;

    /// A k×k grid Laplacian with a uniform diagonal shift (SPD).
    fn grid_laplacian_shifted(k: usize, shift: f64) -> CscMatrix {
        let n = k * k;
        let mut coo = CooMatrix::new(n, n);
        let id = |r: usize, c: usize| r * k + c;
        let mut deg = vec![0.0; n];
        let push_edge = |coo: &mut CooMatrix, a: usize, b: usize, deg: &mut [f64]| {
            coo.push_symmetric(a, b, -1.0).unwrap();
            deg[a] += 1.0;
            deg[b] += 1.0;
        };
        for r in 0..k {
            for c in 0..k {
                if c + 1 < k {
                    push_edge(&mut coo, id(r, c), id(r, c + 1), &mut deg);
                }
                if r + 1 < k {
                    push_edge(&mut coo, id(r, c), id(r + 1, c), &mut deg);
                }
            }
        }
        for (i, &d) in deg.iter().enumerate() {
            coo.push(i, i, d + shift).unwrap();
        }
        coo.to_csc()
    }

    fn edge_vector(n: usize, u: usize, v: usize, weight: f64) -> Vec<f64> {
        let s = weight.sqrt();
        let mut w = vec![0.0; n];
        w[u] = s;
        w[v] = -s;
        w
    }

    #[test]
    fn update_matches_refactorized_solves() {
        let a = grid_laplacian_shifted(6, 0.3);
        let n = a.ncols();
        let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let w = edge_vector(n, 3, 29, 0.75);
        let report = f.update(&w).unwrap();
        assert!(!report.journaled_restore);

        // A + w wᵀ assembled densely through the CSC helper.
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for (r, c, v) in a.iter() {
            coo.push(r, c, v).unwrap();
        }
        for i in 0..n {
            for k in 0..n {
                if w[i] != 0.0 && w[k] != 0.0 {
                    coo.push(i, k, w[i] * w[k]).unwrap();
                }
            }
        }
        let ap = coo.to_csc();
        let b = vec![1.0; n];
        let x = f.solve(&b);
        assert!(ap.residual_inf_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn downdate_then_update_is_bit_exact() {
        let a = grid_laplacian_shifted(5, 0.4);
        let n = a.ncols();
        let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let baseline = f.solve(&b);
        let w = edge_vector(n, 0, 1, 0.25);
        f.downdate(&w).unwrap();
        let restored = f.update(&w).unwrap();
        assert!(restored.journaled_restore);
        let after = f.solve(&b);
        let same_bits = baseline.iter().zip(&after).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same_bits, "journalled restore must reproduce solves bit-for-bit");
    }

    #[test]
    fn zero_vector_is_a_noop() {
        let a = grid_laplacian_shifted(4, 0.5);
        let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let before = f.l().values().to_vec();
        let report = f.update(&vec![0.0; a.ncols()]).unwrap();
        assert_eq!(report.touched_columns, 0);
        assert_eq!(f.l().values(), &before[..]);
        assert_eq!(f.pending_updates(), 0);
    }

    #[test]
    fn non_finite_vector_is_rejected_typed() {
        let a = grid_laplacian_shifted(4, 0.5);
        let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let before = f.l().values().to_vec();
        let mut w = vec![0.0; a.ncols()];
        w[2] = f64::NAN;
        let err = f.update(&w).unwrap_err();
        assert!(matches!(err, SparseError::InvalidValue { .. }));
        assert_eq!(f.l().values(), &before[..]);
    }

    #[test]
    fn wrong_length_is_rejected_typed() {
        let a = grid_laplacian_shifted(4, 0.5);
        let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let err = f.downdate(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch { .. }));
    }

    #[test]
    fn excessive_downdate_fails_typed_and_restores() {
        let a = grid_laplacian_shifted(5, 0.2);
        let n = a.ncols();
        let mut f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let before = f.l().values().to_vec();
        // Subtracting far more than the edge weight makes A − w wᵀ
        // indefinite.
        let w = edge_vector(n, 0, 1, 50.0);
        let err = f.downdate(&w).unwrap_err();
        assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
        assert_eq!(f.l().values(), &before[..], "failed downdate must leave the factor intact");
        assert_eq!(f.pending_updates(), 0);
    }

    #[test]
    fn pattern_growth_handles_distant_support() {
        // Natural ordering on a path graph keeps the factor bidiagonal;
        // an update touching the two endpoints forces fill along the
        // whole elimination-tree path.
        let n = 12;
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.5).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let mut f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let w = edge_vector(n, 0, n - 1, 0.5);
        let report = f.update(&w).unwrap();
        assert!(report.grew_pattern);

        let mut coo2 = crate::coo::CooMatrix::new(n, n);
        for (r, c, v) in a.iter() {
            coo2.push(r, c, v).unwrap();
        }
        coo2.push(0, 0, 0.5).unwrap();
        coo2.push(n - 1, n - 1, 0.5).unwrap();
        coo2.push_symmetric(0, n - 1, -0.5).unwrap();
        let ap = coo2.to_csc();
        let b = vec![1.0; n];
        assert!(ap.residual_inf_norm(&f.solve(&b), &b) < 1e-10);

        // Reverting the growth restores the original pattern and bits.
        let before = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        f.downdate(&w).unwrap();
        assert_eq!(f.l().colptr(), before.l().colptr());
        assert_eq!(f.l().rowidx(), before.l().rowidx());
        let bits_equal =
            f.l().values().iter().zip(before.l().values()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(bits_equal);
    }
}
