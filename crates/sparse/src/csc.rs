//! Compressed sparse column storage, the format used by the Cholesky stack.

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::multivec::MultiVec;
use crate::perm::Permutation;

/// A sparse matrix in compressed sparse column (CSC) form.
///
/// Invariants maintained by every constructor:
///
/// - `colptr` has length `ncols + 1`, is non-decreasing, starts at `0` and
///   ends at `nnz`;
/// - row indices within each column are strictly increasing (sorted, no
///   duplicates) and smaller than `nrows`;
/// - all stored values are finite.
///
/// # Example
///
/// ```
/// use tracered_sparse::{CooMatrix, CscMatrix};
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0)?;
/// coo.push(1, 0, -1.0)?;
/// coo.push(1, 1, 2.0)?;
/// let a: CscMatrix = coo.to_csc();
/// let y = a.matvec(&[1.0, 1.0]);
/// assert_eq!(y, vec![2.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from raw parts, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidFormat`] if the column pointer is
    /// malformed or row indices are unsorted/duplicated, and
    /// [`SparseError::InvalidValue`] if any value is non-finite.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if colptr.len() != ncols + 1 {
            return Err(SparseError::InvalidFormat {
                what: format!("colptr length {} != ncols + 1 = {}", colptr.len(), ncols + 1),
            });
        }
        if colptr[0] != 0 || *colptr.last().unwrap() != rowidx.len() {
            return Err(SparseError::InvalidFormat {
                what: "colptr must start at 0 and end at nnz".into(),
            });
        }
        if rowidx.len() != values.len() {
            return Err(SparseError::InvalidFormat {
                what: "rowidx and values must have equal length".into(),
            });
        }
        for c in 0..ncols {
            if colptr[c] > colptr[c + 1] {
                return Err(SparseError::InvalidFormat {
                    what: format!("colptr decreases at column {c}"),
                });
            }
            for k in colptr[c]..colptr[c + 1] {
                if rowidx[k] >= nrows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: rowidx[k],
                        col: c,
                        nrows,
                        ncols,
                    });
                }
                if k > colptr[c] && rowidx[k - 1] >= rowidx[k] {
                    return Err(SparseError::InvalidFormat {
                        what: format!("row indices not strictly increasing in column {c}"),
                    });
                }
                if !values[k].is_finite() {
                    return Err(SparseError::InvalidValue {
                        what: format!("non-finite entry at ({}, {c})", rowidx[k]),
                    });
                }
            }
        }
        Ok(CscMatrix { nrows, ncols, colptr, rowidx, values })
    }

    /// An `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowidx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// An `nrows` × `ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column pointer array (`ncols + 1` entries).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// The row-index array (`nnz` entries, sorted within each column).
    pub fn rowidx(&self) -> &[usize] {
        &self.rowidx
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (the pattern stays fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Structure views plus mutable values, borrowed simultaneously —
    /// for in-place numeric kernels (the rank-1 update walk) that read
    /// the pattern while editing values.
    pub(crate) fn parts_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.colptr, &self.rowidx, &mut self.values)
    }

    /// Row indices and values of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.ncols()`.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let range = self.colptr[c]..self.colptr[c + 1];
        (&self.rowidx[range.clone()], &self.values[range])
    }

    /// Value at `(row, col)`, `0.0` when the entry is not stored.
    ///
    /// Runs a binary search within the column.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let (rows, vals) = self.col(col);
        match rows.binary_search(&row) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)` in
    /// column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter().zip(vals.iter()).map(move |(&r, &v)| (r, c, v))
        })
    }

    /// Dense matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer (`y` is
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        assert_eq!(y.len(), self.nrows, "output length must equal nrows");
        y.fill(0.0);
        for c in 0..self.ncols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for k in self.colptr[c]..self.colptr[c + 1] {
                y[self.rowidx[k]] += self.values[k] * xc;
            }
        }
    }

    /// Matrix–vector product of a **symmetric** matrix on `threads`
    /// workers (`y` is overwritten).
    ///
    /// Symmetry lets a CSC matrix be read row-wise: row `i` of `A` is
    /// column `i`, so `y[i]` becomes an independent gather
    /// `Σ_k values[k] · x[rowidx[k]]` over column `i` — embarrassingly
    /// parallel with no scattered writes. Rows are chunked onto a
    /// work-stealing queue; the gather accumulates partner contributions
    /// in the same (increasing-index) order for every thread count, so
    /// results are deterministic and agree with [`CscMatrix::matvec_into`]
    /// up to the `x[j] == 0` terms that the serial scatter skips (exact
    /// numeric equality, possible `±0.0` sign differences only).
    ///
    /// Callers are responsible for symmetry (Laplacians and SPD systems
    /// in this workspace); the matrix is **not** validated per call —
    /// check once at the call boundary (as `pcg_with_guess` does) when
    /// the matrix origin is uncertain.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or dimensions disagree.
    pub fn sym_matvec_into_threads(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(self.nrows, self.ncols, "symmetric matvec requires a square matrix");
        assert_eq!(x.len(), self.ncols, "vector length must equal ncols");
        assert_eq!(y.len(), self.nrows, "output length must equal nrows");
        let chunk = tracered_par::chunk_size(self.nrows, threads, 512);
        tracered_par::par_chunks_mut(y, chunk, threads, |start, out| {
            for (off, yi) in out.iter_mut().enumerate() {
                *yi = self.row_dot(start + off, x);
            }
        });
    }

    /// SpMM of a **symmetric** matrix on `threads` workers (`y` is
    /// overwritten) — the blocked counterpart of
    /// [`CscMatrix::sym_matvec_into_threads`], sharing its row-gather
    /// formulation and caller-checks-symmetry contract.
    ///
    /// Work is tiled as (column, row-range) jobs on the work-stealing
    /// queue of [`tracered_par`], so batch width and thread count compose:
    /// a width-2 batch on 8 threads still occupies every worker. Each
    /// output element is an independent gather in fixed index order, so
    /// results are bit-identical for every thread count and match
    /// [`CscMatrix::sym_matvec_into_threads`] column for column.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or shapes disagree.
    pub fn sym_mul_multi_into_threads(&self, x: &MultiVec, y: &mut MultiVec, threads: usize) {
        assert_eq!(self.nrows, self.ncols, "symmetric SpMM requires a square matrix");
        assert_eq!(x.nrows(), self.ncols, "block rows must equal ncols");
        assert_eq!(y.nrows(), self.nrows, "output rows must equal nrows");
        assert_eq!(y.ncols(), x.ncols(), "output width must match input width");
        let chunk = tracered_par::chunk_size(self.nrows, threads, 512).max(1);
        let mut jobs: Vec<(usize, usize, &mut [f64])> = Vec::new();
        for (c, ycol) in y.cols_mut().enumerate() {
            let mut start = 0;
            for piece in ycol.chunks_mut(chunk) {
                let len = piece.len();
                jobs.push((c, start, piece));
                start += len;
            }
        }
        tracered_par::par_jobs(jobs, threads, |(c, start, out)| {
            let xc = x.col(c);
            for (off, yi) in out.iter_mut().enumerate() {
                *yi = self.row_dot(start + off, xc);
            }
        });
    }

    /// Row `i` of a symmetric matrix times `x`, gathered from column `i`
    /// in increasing row order — the one summation order both symmetric
    /// products use.
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.colptr[i], self.colptr[i + 1]);
        let mut acc = 0.0;
        for (&v, &r) in self.values[lo..hi].iter().zip(&self.rowidx[lo..hi]) {
            acc += v * x[r];
        }
        acc
    }

    /// Infinity norm of the residual `A x − b`, a convenience for tests and
    /// solver verification.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn residual_inf_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.nrows, "rhs length must equal nrows");
        let ax = self.matvec(x);
        ax.iter().zip(b.iter()).map(|(a, bb)| (a - bb).abs()).fold(0.0, f64::max)
    }

    /// Transpose.
    pub fn transpose(&self) -> CscMatrix {
        let mut colptr = vec![0usize; self.nrows + 1];
        for &r in &self.rowidx {
            colptr[r + 1] += 1;
        }
        for r in 0..self.nrows {
            colptr[r + 1] += colptr[r];
        }
        let mut next = colptr.clone();
        let mut rowidx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for c in 0..self.ncols {
            for k in self.colptr[c]..self.colptr[c + 1] {
                let r = self.rowidx[k];
                let slot = next[r];
                next[r] += 1;
                rowidx[slot] = c;
                values[slot] = self.values[k];
            }
        }
        // Row indices within each output column are automatically sorted
        // because we sweep source columns in increasing order.
        CscMatrix { nrows: self.ncols, ncols: self.nrows, colptr, rowidx, values }
    }

    /// Converts to a dense matrix (intended for small test problems).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Returns `true` if the matrix is square and exactly symmetric
    /// (pattern and values).
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.colptr == t.colptr && self.rowidx == t.rowidx && {
            self.values.iter().zip(t.values.iter()).all(|(a, b)| a == b)
        }
    }

    /// Returns `true` if the matrix is symmetric up to absolute tolerance
    /// `tol` on the values (pattern must still match).
    pub fn is_symmetric_within(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.colptr == t.colptr
            && self.rowidx == t.rowidx
            && self.values.iter().zip(t.values.iter()).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Extracts the upper triangle (including the diagonal) as a CSC matrix.
    pub fn upper_triangle(&self) -> CscMatrix {
        self.filter(|r, c, _| r <= c)
    }

    /// Extracts the lower triangle (including the diagonal) as a CSC matrix.
    pub fn lower_triangle(&self) -> CscMatrix {
        self.filter(|r, c, _| r >= c)
    }

    /// Keeps only entries for which the predicate returns `true`.
    pub fn filter(&self, mut keep: impl FnMut(usize, usize, f64) -> bool) -> CscMatrix {
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        for c in 0..self.ncols {
            for k in self.colptr[c]..self.colptr[c + 1] {
                let (r, v) = (self.rowidx[k], self.values[k]);
                if keep(r, c, v) {
                    rowidx.push(r);
                    values.push(v);
                }
            }
            colptr[c + 1] = rowidx.len();
        }
        CscMatrix { nrows: self.nrows, ncols: self.ncols, colptr, rowidx, values }
    }

    /// Adds `shift[i]` to each diagonal entry `(i, i)`, inserting the
    /// diagonal entry when absent.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular matrices and
    /// [`SparseError::DimensionMismatch`] if `shift.len() != n`.
    pub fn add_diagonal(&self, shift: &[f64]) -> Result<CscMatrix, SparseError> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare { nrows: self.nrows, ncols: self.ncols });
        }
        if shift.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                found: shift.len(),
            });
        }
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::with_capacity(self.nnz() + self.ncols);
        let mut values = Vec::with_capacity(self.nnz() + self.ncols);
        for c in 0..self.ncols {
            let mut placed = false;
            for k in self.colptr[c]..self.colptr[c + 1] {
                let r = self.rowidx[k];
                if !placed && r > c && shift[c] != 0.0 {
                    rowidx.push(c);
                    values.push(shift[c]);
                    placed = true;
                }
                let v = if r == c {
                    placed = true;
                    self.values[k] + shift[c]
                } else {
                    self.values[k]
                };
                rowidx.push(r);
                values.push(v);
            }
            if !placed && shift[c] != 0.0 {
                rowidx.push(c);
                values.push(shift[c]);
            }
            colptr[c + 1] = rowidx.len();
        }
        Ok(CscMatrix { nrows: self.nrows, ncols: self.ncols, colptr, rowidx, values })
    }

    /// The diagonal of the matrix as a dense vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        let mut d = vec![0.0; n];
        for (i, item) in d.iter_mut().enumerate() {
            *item = self.get(i, i);
        }
        d
    }

    /// Symmetric permutation `C = P A Pᵀ` returning the **upper triangle**
    /// of the result, as required by the symbolic Cholesky analysis.
    ///
    /// The input must be square and symmetric; only its upper triangle is
    /// read. `perm` maps new indices to old ones.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular inputs and
    /// [`SparseError::DimensionMismatch`] if the permutation size differs
    /// from `n`.
    pub fn symmetric_perm_upper(&self, perm: &Permutation) -> Result<CscMatrix, SparseError> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare { nrows: self.nrows, ncols: self.ncols });
        }
        let n = self.ncols;
        if perm.len() != n {
            return Err(SparseError::DimensionMismatch { expected: n, found: perm.len() });
        }
        let old_to_new = perm.as_old_to_new();
        // Count entries per new column.
        let mut colptr = vec![0usize; n + 1];
        for c in 0..n {
            for k in self.colptr[c]..self.colptr[c + 1] {
                let r = self.rowidx[k];
                if r > c {
                    continue; // read upper triangle only (r <= c)
                }
                let (nr, nc) = (old_to_new[r], old_to_new[c]);
                let newcol = nr.max(nc);
                colptr[newcol + 1] += 1;
            }
        }
        for c in 0..n {
            colptr[c + 1] += colptr[c];
        }
        let nnz = colptr[n];
        let mut next = colptr.clone();
        let mut rowidx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for c in 0..n {
            for k in self.colptr[c]..self.colptr[c + 1] {
                let r = self.rowidx[k];
                if r > c {
                    continue;
                }
                let (nr, nc) = (old_to_new[r], old_to_new[c]);
                let (newrow, newcol) = (nr.min(nc), nr.max(nc));
                let slot = next[newcol];
                next[newcol] += 1;
                rowidx[slot] = newrow;
                values[slot] = self.values[k];
            }
        }
        // Sort rows within each column.
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for c in 0..n {
            let range = colptr[c]..colptr[c + 1];
            scratch.clear();
            scratch.extend(
                rowidx[range.clone()].iter().copied().zip(values[range.clone()].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for (off, &(r, v)) in scratch.iter().enumerate() {
                rowidx[colptr[c] + off] = r;
                values[colptr[c] + off] = v;
            }
        }
        Ok(CscMatrix { nrows: n, ncols: n, colptr, rowidx, values })
    }

    /// Computes `A + s·B` for matrices with identical dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if shapes differ.
    pub fn add_scaled(&self, other: &CscMatrix, s: f64) -> Result<CscMatrix, SparseError> {
        if self.nrows != other.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: other.nrows,
            });
        }
        if self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                found: other.ncols,
            });
        }
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        for c in 0..self.ncols {
            let (ra, va) = self.col(c);
            let (rb, vb) = other.col(c);
            let (mut i, mut j) = (0, 0);
            while i < ra.len() || j < rb.len() {
                let (r, v) = if j >= rb.len() || (i < ra.len() && ra[i] < rb[j]) {
                    let out = (ra[i], va[i]);
                    i += 1;
                    out
                } else if i >= ra.len() || rb[j] < ra[i] {
                    let out = (rb[j], s * vb[j]);
                    j += 1;
                    out
                } else {
                    let out = (ra[i], va[i] + s * vb[j]);
                    i += 1;
                    j += 1;
                    out
                };
                if v != 0.0 {
                    rowidx.push(r);
                    values.push(v);
                }
            }
            colptr[c + 1] = rowidx.len();
        }
        Ok(CscMatrix { nrows: self.nrows, ncols: self.ncols, colptr, rowidx, values })
    }

    /// Estimated memory footprint of the stored matrix in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.colptr.len() * std::mem::size_of::<usize>()
            + self.rowidx.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// A 64-bit content fingerprint: FNV-1a over the shape, the sparsity
    /// structure, and the exact bit patterns of the stored values.
    ///
    /// Two matrices fingerprint equal iff they have identical dimensions,
    /// `colptr`/`rowidx` arrays, and bit-identical values (`0.0` and
    /// `-0.0` hash differently, as do distinct NaN payloads). Used by the
    /// service layer's factor cache to key factorizations by matrix
    /// content without retaining the matrix itself.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.nrows as u64);
        mix(self.ncols as u64);
        for &p in &self.colptr {
            mix(p as u64);
        }
        for &r in &self.rowidx {
            mix(r as u64);
        }
        for &v in &self.values {
            mix(v.to_bits());
        }
        h
    }
}

impl From<&CooMatrix> for CscMatrix {
    fn from(coo: &CooMatrix) -> Self {
        coo.to_csc()
    }
}

/// Minimum slice length per chunk for the dense vector kernels below —
/// per-element work is a couple of flops, so chunks must be long enough
/// to amortise scheduling.
const VEC_MIN_CHUNK: usize = 4096;

/// `y ← y + α x` on `threads` workers.
///
/// Element-wise independent, so results are bit-identical for every
/// thread count.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn par_axpy(y: &mut [f64], alpha: f64, x: &[f64], threads: usize) {
    assert_eq!(y.len(), x.len(), "axpy operands must have equal length");
    let chunk = tracered_par::chunk_size(y.len(), threads, VEC_MIN_CHUNK);
    tracered_par::par_chunks_mut(y, chunk, threads, |start, out| {
        for (off, yi) in out.iter_mut().enumerate() {
            *yi += alpha * x[start + off];
        }
    });
}

/// `p ← z + β p` on `threads` workers (the PCG direction update).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn par_xpby(p: &mut [f64], beta: f64, z: &[f64], threads: usize) {
    assert_eq!(p.len(), z.len(), "xpby operands must have equal length");
    let chunk = tracered_par::chunk_size(p.len(), threads, VEC_MIN_CHUNK);
    tracered_par::par_chunks_mut(p, chunk, threads, |start, out| {
        let zs = &z[start..start + out.len()];
        for (pi, &zi) in out.iter_mut().zip(zs) {
            *pi = zi + beta * *pi;
        }
    });
}

/// Chunked dot product `aᵀ b` on `threads` workers.
///
/// The chunk decomposition is fixed by the input length (never by the
/// thread count) and partial sums combine in chunk order, so the result
/// is bit-identical at every thread count, one included — though not to
/// a single unchunked fold.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn par_dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    // Fixed chunk (independent of `threads`) keeps the reduction order —
    // and therefore the result — invariant across thread counts.
    tracered_par::par_reduce_f64(a.len(), VEC_MIN_CHUNK, threads, |lo, hi| {
        a[lo..hi].iter().zip(b[lo..hi].iter()).map(|(x, y)| x * y).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CscMatrix {
        // [ 2 -1  0 ]
        // [-1  3 -1 ]
        // [ 0 -1  2 ]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CscMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_raw_parts(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
        assert!(
            CscMatrix::from_raw_parts(2, 2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]).is_err(),
            "unsorted rows must be rejected"
        );
        assert!(
            CscMatrix::from_raw_parts(2, 2, vec![0, 2, 2], vec![0, 0], vec![1.0, 1.0]).is_err(),
            "duplicate rows must be rejected"
        );
        assert!(
            CscMatrix::from_raw_parts(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err(),
            "row out of bounds must be rejected"
        );
        assert!(
            CscMatrix::from_raw_parts(2, 2, vec![0, 1, 1], vec![0], vec![f64::NAN]).is_err(),
            "NaN must be rejected"
        );
    }

    #[test]
    fn get_and_nnz() {
        let a = small();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 1), -1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn sym_matvec_matches_serial_scatter_for_all_thread_counts() {
        // A larger symmetric matrix: path Laplacian + diagonal shift.
        let n = 300;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            let w = 0.5 + (i % 7) as f64;
            coo.push(i, i + 1, -w).unwrap();
            coo.push(i + 1, i, -w).unwrap();
            coo.push(i, i, w).unwrap();
            coo.push(i + 1, i + 1, w).unwrap();
        }
        for i in 0..n {
            coo.push(i, i, 0.25).unwrap();
        }
        let a = coo.to_csc();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 11) as f64) - 5.0).collect();
        let serial = a.matvec(&x);
        for threads in [1usize, 2, 4, 8] {
            let mut y = vec![0.0; n];
            a.sym_matvec_into_threads(&x, &mut y, threads);
            for (i, (s, p)) in serial.iter().zip(y.iter()).enumerate() {
                assert!(
                    (s - p).abs() == 0.0,
                    "row {i}: serial {s} vs par {p} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sym_mul_multi_matches_sym_matvec_for_all_thread_counts() {
        // Path Laplacian + shift, as in the single-vector test.
        let n = 257;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            let w = 0.5 + (i % 5) as f64;
            coo.push_symmetric(i, i + 1, -w).unwrap();
            coo.push(i, i, w).unwrap();
            coo.push(i + 1, i + 1, w).unwrap();
        }
        for i in 0..n {
            coo.push(i, i, 0.3).unwrap();
        }
        let a = coo.to_csc();
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..n).map(|i| ((i * 11 + c * 3) % 13) as f64 - 6.0).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let x = MultiVec::from_columns(&refs).unwrap();
        let mut singles = Vec::new();
        for col in &cols {
            let mut y = vec![0.0; n];
            a.sym_matvec_into_threads(col, &mut y, 1);
            singles.push(y);
        }
        for threads in [1usize, 2, 4, 8] {
            let mut y = MultiVec::zeros(n, 3);
            a.sym_mul_multi_into_threads(&x, &mut y, threads);
            for (c, single) in singles.iter().enumerate() {
                for (i, (s, m)) in single.iter().zip(y.col(c).iter()).enumerate() {
                    assert_eq!(s.to_bits(), m.to_bits(), "column {c} row {i} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn vector_kernels_match_serial_for_all_thread_counts() {
        let n = 10_000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let base: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut serial = base.clone();
        par_axpy(&mut serial, 0.37, &x, 1);
        let dot1 = par_dot(&serial, &x, 1);
        for threads in [2usize, 4, 8] {
            let mut y = base.clone();
            par_axpy(&mut y, 0.37, &x, threads);
            assert!(serial.iter().zip(y.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(dot1.to_bits(), par_dot(&y, &x, threads).to_bits());
            let mut p = base.clone();
            let mut p1 = base.clone();
            par_xpby(&mut p, -0.8, &x, threads);
            par_xpby(&mut p1, -0.8, &x, 1);
            assert!(p.iter().zip(p1.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetry_checks() {
        let a = small();
        assert!(a.is_symmetric());
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        assert!(!coo.to_csc().is_symmetric());
    }

    #[test]
    fn triangles_partition_entries() {
        let a = small();
        let u = a.upper_triangle();
        let l = a.lower_triangle();
        // Diagonal is in both.
        assert_eq!(u.nnz() + l.nnz(), a.nnz() + 3);
        assert_eq!(u.get(0, 1), -1.0);
        assert_eq!(u.get(1, 0), 0.0);
        assert_eq!(l.get(1, 0), -1.0);
        assert_eq!(l.get(0, 1), 0.0);
    }

    #[test]
    fn add_diagonal_inserts_and_updates() {
        let a = small();
        let b = a.add_diagonal(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(b.get(0, 0), 2.5);
        // Insertion into a matrix missing a diagonal entry:
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, -1.0).unwrap();
        coo.push(0, 1, -1.0).unwrap();
        let c = coo.to_csc().add_diagonal(&[3.0, 4.0]).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(1, 1), 4.0);
        assert_eq!(c.get(1, 0), -1.0);
        assert!(c.is_symmetric_within(0.0) || c.is_symmetric());
    }

    #[test]
    fn symmetric_perm_preserves_values() {
        let a = small();
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let c = a.symmetric_perm_upper(&p).unwrap();
        // c is the upper triangle of P A P^T. Check against dense.
        let ad = a.to_dense();
        for newc in 0..3 {
            for newr in 0..=newc {
                let (oldr, oldc) = (p.new_to_old(newr), p.new_to_old(newc));
                assert_eq!(c.get(newr, newc), ad[(oldr, oldc)], "entry ({newr},{newc})");
            }
        }
        // Strictly lower part must be empty.
        for (r, cc, _) in c.iter() {
            assert!(r <= cc);
        }
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let a = small();
        let i = CscMatrix::identity(3);
        let b = a.add_scaled(&i, 2.0).unwrap();
        assert_eq!(b.get(0, 0), 4.0);
        assert_eq!(b.get(1, 1), 5.0);
        assert_eq!(b.get(0, 1), -1.0);
        // Cancellation drops entries.
        let z = a.add_scaled(&a, -1.0).unwrap();
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn diagonal_extraction() {
        let a = small();
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 2.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let a = small();
        let d = a.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[(r, c)], a.get(r, c));
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let a = small();
        assert_eq!(a.fingerprint(), small().fingerprint(), "deterministic");
        // A value change, a structure change, and a shape change all move
        // the fingerprint.
        let mut bumped = a.clone();
        bumped.values_mut()[0] = f64::from_bits(bumped.values()[0].to_bits() + 1);
        assert_ne!(a.fingerprint(), bumped.fingerprint());
        assert_ne!(a.fingerprint(), CscMatrix::identity(3).fingerprint());
        assert_ne!(CscMatrix::zeros(3, 3).fingerprint(), CscMatrix::zeros(4, 4).fingerprint());
        // Signed zeros are distinct bit patterns on purpose.
        let mut pos = a.clone();
        pos.values_mut()[0] = 0.0;
        let mut neg = a;
        neg.values_mut()[0] = -0.0;
        assert_ne!(pos.fingerprint(), neg.fingerprint());
    }
}
