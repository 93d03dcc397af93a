//! Column-major dense multi-vectors: the right-hand-side blocks of the
//! batched multi-RHS solve subsystem.
//!
//! Power-grid transient analysis solves the same conductance matrix
//! against many right-hand sides (one per timestep × source scenario).
//! A [`MultiVec`] packs `k` length-`n` vectors column-major so that
//!
//! - each column is a contiguous `&[f64]` — every existing single-vector
//!   kernel (dots, axpys, preconditioner applies) works on a column
//!   unchanged, with unchanged arithmetic;
//! - the blocked substitutions ([`crate::chol::lsolve_multi_in_place`],
//!   [`crate::chol::ltsolve_multi_in_place`]) stream the factor **once**
//!   for all `k` columns, amortizing the dominant memory traffic of the
//!   triangular solves.

use crate::error::SparseError;

/// A dense `n × k` block of column vectors, stored column-major.
///
/// Column `j` occupies `data[j * n .. (j + 1) * n]`, so column access is
/// contiguous-slice cheap and appending or dropping trailing columns is
/// `O(1)` bookkeeping — which is how the block-PCG solver deflates
/// converged columns without copying the survivors.
///
/// # Example
///
/// ```
/// use tracered_sparse::MultiVec;
///
/// let mut x = MultiVec::zeros(3, 2);
/// x.col_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(x.col(0), &[0.0, 0.0, 0.0]);
/// assert_eq!(x.col(1), &[1.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVec {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl MultiVec {
    /// An `n × k` block of zero columns.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        MultiVec { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Builds a block from column slices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when columns have
    /// unequal lengths.
    pub fn from_columns(columns: &[&[f64]]) -> Result<Self, SparseError> {
        let nrows = columns.first().map_or(0, |c| c.len());
        let mut data = Vec::with_capacity(nrows * columns.len());
        for col in columns {
            if col.len() != nrows {
                return Err(SparseError::DimensionMismatch { expected: nrows, found: col.len() });
            }
            data.extend_from_slice(col);
        }
        Ok(MultiVec { nrows, ncols: columns.len(), data })
    }

    /// Builds a block whose every column is a copy of `column`.
    pub fn broadcast(column: &[f64], ncols: usize) -> Self {
        let mut data = Vec::with_capacity(column.len() * ncols);
        for _ in 0..ncols {
            data.extend_from_slice(column);
        }
        MultiVec { nrows: column.len(), ncols, data }
    }

    /// Number of rows (the system dimension `n`).
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (the batch width `k`).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Column `j` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.ncols()`.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.ncols, "column {j} out of bounds (k = {})", self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.ncols()`.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.ncols, "column {j} out of bounds (k = {})", self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Iterates over columns as slices. Always yields exactly
    /// [`MultiVec::ncols`] items, even for a zero-height block.
    pub fn cols(&self) -> impl Iterator<Item = &[f64]> {
        let n = self.nrows;
        (0..self.ncols).map(move |j| &self.data[j * n..(j + 1) * n])
    }

    /// Iterates over columns as mutable slices. Always yields exactly
    /// [`MultiVec::ncols`] items, even for a zero-height block.
    pub fn cols_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let n = self.nrows;
        let mut rest: &mut [f64] = &mut self.data;
        (0..self.ncols).map(move |_| {
            if n == 0 {
                &mut []
            } else {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
                rest = tail;
                head
            }
        })
    }

    /// Copies the columns out into owned vectors.
    pub fn to_columns(&self) -> Vec<Vec<f64>> {
        self.cols().map(<[f64]>::to_vec).collect()
    }

    /// Swaps columns `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        assert!(a < self.ncols && b < self.ncols, "column out of bounds");
        if a == b {
            return;
        }
        let n = self.nrows;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * n);
        head[lo * n..(lo + 1) * n].swap_with_slice(&mut tail[..n]);
    }

    /// Drops trailing columns so `k` becomes `ncols` — `O(1)` apart from
    /// freeing nothing (capacity is kept for reuse).
    ///
    /// # Panics
    ///
    /// Panics if `ncols > self.ncols()`.
    pub fn truncate_cols(&mut self, ncols: usize) {
        assert!(ncols <= self.ncols, "cannot grow via truncate_cols");
        self.ncols = ncols;
        self.data.truncate(ncols * self.nrows);
    }

    /// The whole block as one flat column-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_are_contiguous_and_independent() {
        let mut m = MultiVec::zeros(4, 3);
        for j in 0..3 {
            for (i, v) in m.col_mut(j).iter_mut().enumerate() {
                *v = (j * 10 + i) as f64;
            }
        }
        assert_eq!(m.col(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(m.to_columns().len(), 3);
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn from_columns_validates_lengths() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let m = MultiVec::from_columns(&[&a, &b]).unwrap();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.col(1), &[3.0, 4.0]);
        let short = [1.0];
        assert!(MultiVec::from_columns(&[&a, &short]).is_err());
    }

    #[test]
    fn broadcast_replicates_the_column() {
        let m = MultiVec::broadcast(&[7.0, 8.0], 3);
        for j in 0..3 {
            assert_eq!(m.col(j), &[7.0, 8.0]);
        }
    }

    #[test]
    fn swap_and_truncate_deflate_like_block_pcg() {
        let mut m = MultiVec::from_columns(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        m.swap_cols(0, 2);
        assert_eq!(m.col(0), &[3.0, 3.0]);
        assert_eq!(m.col(2), &[1.0, 1.0]);
        m.truncate_cols(2);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.col(1), &[2.0, 2.0]);
        m.swap_cols(1, 1); // self-swap is a no-op
        assert_eq!(m.col(1), &[2.0, 2.0]);
    }

    #[test]
    fn zero_width_and_zero_height_are_fine() {
        let mut m = MultiVec::zeros(0, 4);
        assert_eq!(m.col(3), &[] as &[f64]);
        assert_eq!(m.cols().count(), 4, "zero-height blocks still have ncols columns");
        assert_eq!(m.cols_mut().count(), 4);
        assert_eq!(m.to_columns(), vec![Vec::<f64>::new(); 4]);
        assert_eq!(m.memory_bytes(), 0);
        let m = MultiVec::zeros(5, 0);
        assert_eq!(m.cols().count(), 0);
        assert_eq!(m.memory_bytes(), 0);
    }
}
