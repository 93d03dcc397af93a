//! Sparse approximate inverse of a Cholesky factor — **Algorithm 1** of
//! Liu & Yu, DAC 2022.
//!
//! Let `Z = L⁻¹ = [z₁ … zₙ]`. The paper's two structural observations
//! (Propositions 1–2) are:
//!
//! 1. for an SDD matrix, `L` has positive diagonal and non-positive
//!    off-diagonal entries, hence `Z` is lower triangular with
//!    **non-negative** entries;
//! 2. the columns obey the recurrence
//!    `z_j = (1/L_jj)·e_j + Σ_{i>j, L_ij≠0} (−L_ij/L_jj)·z_i`.
//!
//! Processing columns back to front and *pruning* each computed column to
//! its dominant entries yields a sparse `Z̃ ≈ L⁻¹` with `O(n log n)`
//! nonzeros in practice (δ = 0.1), while the recurrence keeps the error
//! bounded: `‖z̃_j − z_j‖ ≤ ε` propagates because the coefficient sum
//! `Σ −L_ij/L_jj ≤ 1` for SDD matrices (paper Eq. 19).

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::sparsevec::Workspace;

/// Options for the approximate-inverse construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaiOptions {
    /// Relative pruning threshold δ: entries below `δ · max(z*_j)` are
    /// dropped. The paper uses `0.1`.
    pub threshold: f64,
    /// Columns with at most this many nonzeros are kept unpruned. The
    /// paper uses `log n`; `None` selects that default.
    pub keep_small: Option<usize>,
}

impl Default for SpaiOptions {
    fn default() -> Self {
        SpaiOptions { threshold: 0.1, keep_small: None }
    }
}

impl SpaiOptions {
    /// Creates options with the given pruning threshold and the paper's
    /// `log n` small-column exemption.
    pub fn with_threshold(threshold: f64) -> Self {
        SpaiOptions { threshold, ..Default::default() }
    }
}

/// A sparse approximation `Z̃ ≈ L⁻¹` to the inverse of a lower-triangular
/// Cholesky factor, stored column-wise.
///
/// All columns share one store: `u32` row indices and `f64` values in
/// two flat arrays, plus one offset per column. Algorithm 1 finishes
/// the columns from `n − 1` down to 0 and appends each one as it is
/// finished, so column `j` occupies
/// `offsets[n − 1 − j]..offsets[n − j]`; rows within a column are
/// increasing. The `u32` row indices halve the index traffic of the
/// scoring kernels and bound the dimension: [`ApproxInverse::build`]
/// rejects `n > u32::MAX`.
///
/// Indices live in the same (permuted) space as the factor itself; callers
/// that work with original node ids must map through the factor's
/// permutation.
///
/// # Example
///
/// ```
/// use tracered_sparse::{CooMatrix, CholeskyFactor, ApproxInverse, SpaiOptions};
/// use tracered_sparse::order::Ordering;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0)?; coo.push(1, 1, 2.0)?;
/// coo.push_symmetric(0, 1, -1.0)?;
/// let a = coo.to_csc().add_diagonal(&[0.1, 0.1])?;
/// let f = CholeskyFactor::factorize(&a, Ordering::Natural)?;
/// let z = ApproxInverse::build(f.l(), SpaiOptions::default())?;
/// assert_eq!(z.n(), 2);
/// assert!(z.nnz() >= 2);
/// let (rows, values) = z.column(0);
/// assert_eq!(rows[0], 0);
/// assert!(values.iter().all(|&v| v > 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApproxInverse {
    rows: Vec<u32>,
    values: Vec<f64>,
    /// `offsets[k]..offsets[k + 1]` holds column `n − 1 − k`.
    offsets: Vec<usize>,
}

impl ApproxInverse {
    /// Runs Algorithm 1 on a lower-triangular factor `l` whose diagonal is
    /// the first entry of every column (the layout produced by
    /// [`crate::CholeskyFactor`]).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] if `l` is rectangular, and
    /// [`SparseError::InvalidValue`] if the threshold is negative or not
    /// finite, a diagonal entry is not positive, or `n` exceeds
    /// `u32::MAX`.
    pub fn build(l: &CscMatrix, options: SpaiOptions) -> Result<Self, SparseError> {
        if l.nrows() != l.ncols() {
            return Err(SparseError::NotSquare { nrows: l.nrows(), ncols: l.ncols() });
        }
        if !options.threshold.is_finite() || options.threshold < 0.0 {
            return Err(SparseError::InvalidValue {
                what: format!("pruning threshold {} must be finite and >= 0", options.threshold),
            });
        }
        let n = l.ncols();
        if u32::try_from(n).is_err() {
            return Err(SparseError::InvalidValue {
                what: format!("dimension {n} exceeds the u32 row-index range"),
            });
        }
        let ln_n = (n.max(2) as f64).ln().ceil() as usize;
        let keep_small = options.keep_small.unwrap_or(ln_n);
        // Reserve the store up front for the `O(n log n)` nonzeros Z̃ has
        // in practice, at `2 · n · ⌈ln n⌉`: growing it by doubling made the
        // sweep slower than one allocation per column, while capacity that
        // is never written is never faulted in. Z̃ held 0.9–1.5 · n · ⌈ln n⌉
        // entries on the benchmark's sparsifiers.
        let capacity = 2 * n * ln_n;
        let mut rows: Vec<u32> = Vec::with_capacity(capacity);
        let mut values: Vec<f64> = Vec::with_capacity(capacity);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut work = Workspace::new(n);
        for j in (0..n).rev() {
            let (lrows, lvals) = l.col(j);
            if lrows.is_empty() || lrows[0] != j {
                return Err(SparseError::InvalidFormat {
                    what: format!("column {j} of L does not start with its diagonal"),
                });
            }
            let ljj = lvals[0];
            if ljj <= 0.0 || !ljj.is_finite() {
                return Err(SparseError::InvalidValue {
                    what: format!("non-positive diagonal {ljj} in column {j}"),
                });
            }
            // z*_j = (1/L_jj) e_j + Σ_{i>j} (−L_ij/L_jj) z̃_i
            work.add(j, 1.0 / ljj);
            for (&i, &lij) in lrows.iter().zip(lvals.iter()).skip(1) {
                let coef = -lij / ljj;
                if coef == 0.0 {
                    continue;
                }
                let (lo, hi) = (offsets[n - 1 - i], offsets[n - i]);
                for (&r, &v) in rows[lo..hi].iter().zip(&values[lo..hi]) {
                    work.add(r as usize, coef * v);
                }
            }
            // Prune: keep everything when the column is small, otherwise
            // drop entries below δ·max.
            let cutoff = if work.touched_len() <= keep_small {
                0.0
            } else {
                options.threshold * work.max_value()
            };
            work.gather_into(cutoff, &mut rows, &mut values);
            offsets.push(rows.len());
        }
        Ok(ApproxInverse { rows, values, offsets })
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored nonzeros across all columns.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Column `j` of `Z̃` (an approximation to `L⁻¹ e_j`) as borrowed
    /// `(rows, values)` slices, rows increasing.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.n()`.
    pub fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let k = self.n().checked_sub(j + 1).expect("column index out of bounds");
        let (lo, hi) = (self.offsets[k], self.offsets[k + 1]);
        (&self.rows[lo..hi], &self.values[lo..hi])
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Converts to a CSC matrix (mainly for inspection and tests).
    pub fn to_csc(&self) -> CscMatrix {
        let n = self.n();
        let mut colptr = vec![0usize; n + 1];
        let mut rowidx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for j in 0..n {
            let (rows, vals) = self.column(j);
            rowidx.extend(rows.iter().map(|&i| i as usize));
            values.extend_from_slice(vals);
            colptr[j + 1] = rowidx.len();
        }
        CscMatrix::from_raw_parts(n, n, colptr, rowidx, values)
            .expect("sparse columns with sorted indices form a valid CSC matrix")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::CholeskyFactor;
    use crate::coo::CooMatrix;
    use crate::order::Ordering;

    /// Shifted Laplacian of a path graph: the canonical SDD test matrix.
    fn path_sdd(n: usize, shift: f64) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
            coo.push(i, i, 1.0).unwrap();
            coo.push(i + 1, i + 1, 1.0).unwrap();
        }
        let base = coo.to_csc();
        base.add_diagonal(&vec![shift; n]).unwrap()
    }

    #[test]
    fn zero_threshold_reproduces_exact_inverse() {
        let a = path_sdd(8, 0.5);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let ld = f.l().to_dense();
        let zinv = ld.matmul(&z.to_csc().to_dense());
        // L · Z must be the identity.
        for r in 0..8 {
            for c in 0..8 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!(
                    (zinv[(r, c)] - expect).abs() < 1e-10,
                    "L·Z mismatch at ({r},{c}): {}",
                    zinv[(r, c)]
                );
            }
        }
    }

    #[test]
    fn entries_are_nonnegative_and_lower_triangular() {
        let a = path_sdd(12, 0.3);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::default()).unwrap();
        for j in 0..z.n() {
            let (rows, values) = z.column(j);
            for (&i, &v) in rows.iter().zip(values) {
                assert!(i as usize >= j, "Z must be lower triangular");
                assert!(v >= 0.0, "Z entries must be non-negative (Proposition 1)");
            }
        }
    }

    #[test]
    fn pruning_reduces_nnz_monotonically() {
        let a = path_sdd(40, 0.05);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let exact = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let coarse = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.3)).unwrap();
        let fine = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.05)).unwrap();
        assert!(coarse.nnz() <= fine.nnz());
        assert!(fine.nnz() <= exact.nnz());
    }

    #[test]
    fn column_error_is_small_for_moderate_threshold() {
        let a = path_sdd(30, 0.5);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let exact = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let approx = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.1)).unwrap();
        let (e, a) = (exact.to_csc().to_dense(), approx.to_csc().to_dense());
        for j in 0..30 {
            let diff: f64 = (0..30).map(|i| (e[(i, j)] - a[(i, j)]).powi(2)).sum();
            let norm: f64 = (0..30).map(|i| e[(i, j)].powi(2)).sum();
            let rel = (diff / norm).sqrt();
            assert!(rel < 0.3, "column {j} relative error {rel}");
        }
    }

    #[test]
    fn rejects_bad_threshold() {
        let a = path_sdd(4, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        assert!(ApproxInverse::build(f.l(), SpaiOptions::with_threshold(-1.0)).is_err());
        assert!(ApproxInverse::build(f.l(), SpaiOptions::with_threshold(f64::NAN)).is_err());
    }

    #[test]
    fn rejects_rectangular() {
        let l = CscMatrix::zeros(2, 3);
        assert!(ApproxInverse::build(&l, SpaiOptions::default()).is_err());
    }

    #[test]
    fn keep_small_override_keeps_columns_dense() {
        let a = path_sdd(16, 0.01);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let opts = SpaiOptions { threshold: 0.9, keep_small: Some(16) };
        let z = ApproxInverse::build(f.l(), opts).unwrap();
        // With keep_small = n no pruning ever happens: Z̃ is exact.
        let exact = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        assert_eq!(z.nnz(), exact.nnz());
    }
}
