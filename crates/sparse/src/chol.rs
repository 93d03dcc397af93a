//! Sparse Cholesky factorization `P A Pᵀ = L Lᵀ` for symmetric positive
//! definite matrices, with an up-looking numeric kernel driven by
//! elimination-tree row subtrees (the CSparse `cs_chol` scheme) for thin
//! factors and the supernodal kernel of [`crate::supernode`] for fat
//! ones, chosen by the symbolic analysis as CHOLMOD chooses.
//!
//! This module is the workspace's substitute for CHOLMOD [Chen et al. 2008],
//! which the paper uses both inside the sparsification loop (Step 12 of
//! Algorithm 2) and as the "Direct" baseline solver of its Tables 2–3.

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::etree::{self, NO_PARENT};
use crate::multivec::MultiVec;
use crate::order::Ordering;
use crate::perm::Permutation;
use crate::regularize::{diagonal_scale, scan_non_finite, BoostSchedule};
use crate::supernode::KernelVariant;

/// Symbolic analysis of a (permuted) symmetric matrix: elimination tree and
/// factor column pointers.
///
/// Reusable across numeric factorizations with the same pattern, which is
/// how the iterative densification loop avoids re-analysing when only edge
/// weights change.
#[derive(Debug, Clone)]
pub struct SymbolicCholesky {
    /// Elimination tree (parent array) of the permuted matrix.
    parent: Vec<usize>,
    /// Column pointers of `L` (length `n + 1`).
    lcolptr: Vec<usize>,
}

impl SymbolicCholesky {
    /// Analyses the **upper triangle** of an already-permuted symmetric
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular inputs.
    pub fn analyze(upper: &CscMatrix) -> Result<Self, SparseError> {
        if upper.nrows() != upper.ncols() {
            return Err(SparseError::NotSquare { nrows: upper.nrows(), ncols: upper.ncols() });
        }
        let n = upper.ncols();
        let parent = etree::elimination_tree(upper);
        let counts = etree::column_counts(upper, &parent);
        let mut lcolptr = vec![0usize; n + 1];
        for j in 0..n {
            lcolptr[j + 1] = lcolptr[j] + counts[j];
        }
        Ok(SymbolicCholesky { parent, lcolptr })
    }

    /// Dimension of the analysed matrix.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Number of nonzeros the factor will have.
    pub fn factor_nnz(&self) -> usize {
        *self.lcolptr.last().unwrap_or(&0)
    }

    /// The elimination tree parent array.
    pub fn parent(&self) -> &[usize] {
        &self.parent
    }

    /// The factor column pointers (length `n + 1`).
    pub(crate) fn lcolptr(&self) -> &[usize] {
        &self.lcolptr
    }

    /// The exact row-index array of `L` for the analysed upper triangle
    /// `upper` (the full symbolic pattern, sorted ascending per column
    /// with the diagonal first), by replaying the up-looking kernel's
    /// `ereach` sweep without arithmetic. `O(nnz(L))`. The supernodal
    /// kernel and the rank-1 update's pattern refresh both build their
    /// factor structure here.
    pub(crate) fn factor_structure(&self, upper: &CscMatrix) -> Vec<usize> {
        let n = self.n();
        let mut lrowidx = vec![0usize; self.factor_nnz()];
        let mut next: Vec<usize> = self.lcolptr.to_vec();
        let mut stack = vec![0usize; n];
        let mut wmark = vec![usize::MAX; n];
        for k in 0..n {
            let top = etree::ereach(upper, k, &self.parent, &mut stack, &mut wmark);
            for &j in &stack[top..n] {
                lrowidx[next[j]] = k;
                next[j] += 1;
            }
            lrowidx[next[k]] = k;
            next[k] += 1;
        }
        debug_assert!(
            (0..n).all(|j| next[j] == self.lcolptr[j + 1]),
            "structure sweep must fill the symbolic counts exactly"
        );
        lrowidx
    }

    /// Nonzeros per factor column (including the diagonal), from the
    /// symbolic column pointers.
    pub fn column_counts(&self) -> Vec<usize> {
        self.lcolptr.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Per-column cost model for [`crate::etree::EtreeSchedule`]: the
    /// square of the factor column count, the standard flop proxy for the
    /// up-looking kernel (row `k`'s triangular solve streams every
    /// descendant column once per nonzero it contributes).
    pub fn column_costs(&self) -> Vec<u64> {
        self.column_counts().into_iter().map(|c| (c as u64).pow(2)).collect()
    }

    /// Builds the elimination-tree schedule the numeric kernels run on:
    /// balanced subtree jobs under the [`SymbolicCholesky::column_costs`]
    /// model plus the serial top-of-tree tail. See
    /// [`etree::EtreeSchedule`].
    pub fn schedule(&self, threads: usize) -> etree::EtreeSchedule {
        etree::EtreeSchedule::build(&self.parent, &self.column_costs(), threads)
    }

    /// The schedule both numeric kernels run on `threads` workers, or
    /// `None` when the factorization is one ascending sweep with no
    /// jobs: one thread, fewer than [`PARALLEL_MIN_COLS`] columns, or a
    /// tree that yields a single job. The first two tests come before
    /// any work, so the one-thread path builds no cost model, level
    /// array or tail list.
    pub(crate) fn parallel_schedule(&self, threads: usize) -> Option<etree::EtreeSchedule> {
        if threads <= 1 || self.n() < PARALLEL_MIN_COLS {
            return None;
        }
        let _sched = tracered_obs::span!("chol.schedule", { threads: threads });
        Some(self.schedule(threads)).filter(|s| s.jobs().len() > 1)
    }

    /// The numeric kernel for this pattern, by CHOLMOD's rule: the
    /// supernodal kernel when the flop proxy Σ c_j² (c_j the factor
    /// column counts) reaches [`SUPERNODAL_SWITCH`] per factor nonzero,
    /// the scalar kernel otherwise. It reads the pattern only, so a
    /// factor gets the same kernel at every thread count.
    fn kernel(&self) -> KernelVariant {
        let flops: u64 = self.column_costs().iter().sum();
        if flops as f64 >= SUPERNODAL_SWITCH * self.factor_nnz() as f64 {
            KernelVariant::Supernodal
        } else {
            KernelVariant::Scalar
        }
    }
}

/// Flops per factor nonzero at and above which the symbolic analysis
/// picks the supernodal kernel. CHOLMOD switches at 40, a value that
/// assumes BLAS panels; this kernel has none. On 2-D and 3-D grids and
/// triangle meshes under AMD and nested dissection (one thread of a
/// 2-vCPU x86-64 host, min of 3), the supernodal kernel took 1.38–1.65×
/// the scalar time at 24–27 flops/nnz(L), 1.01–1.22× at 35–50,
/// 0.91–0.98× at 51–59 and 0.40–0.78× from 70 up.
const SUPERNODAL_SWITCH: f64 = 60.0;

/// How [`CholeskyFactor::factorize`] orders and factors a matrix: the one
/// options struct every factorization in the workspace goes through, as
/// CHOLMOD's `cholmod_common` steers its analyze/factorize pair.
///
/// The default — approximate minimum degree, one thread, no boost —
/// matches the defaults of the sparsifier configuration. `From<Ordering>`
/// fills the rest from the default, so `factorize(&a, Ordering::Natural)`
/// needs no struct literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorOptions {
    /// Fill-reducing ordering, computed once per factorization.
    pub ordering: Ordering,
    /// Worker threads for the numeric phase; `<= 1` runs the kernel as
    /// one ascending sweep with no subtree jobs. The factor is
    /// bit-identical at every count.
    pub threads: usize,
    /// Diagonal-boost ladder climbed on a non-positive pivot
    /// ([`crate::regularize`]); `None` returns the pivot failure.
    pub boost: Option<BoostSchedule>,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions { ordering: Ordering::MinDegree, threads: 1, boost: None }
    }
}

impl From<Ordering> for FactorOptions {
    fn from(ordering: Ordering) -> Self {
        FactorOptions { ordering, ..Default::default() }
    }
}

/// A sparse Cholesky factorization `P A Pᵀ = L Lᵀ`.
///
/// `L` is lower triangular with sorted row indices, so the diagonal entry
/// is the first entry of every column — a property the sparse approximate
/// inverse (Algorithm 1 of the paper) relies on.
///
/// # Example
///
/// ```
/// use tracered_sparse::{CooMatrix, CholeskyFactor, order::Ordering};
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0)?;
/// coo.push(1, 1, 9.0)?;
/// let a = coo.to_csc();
/// let f = CholeskyFactor::factorize(&a, Ordering::Natural)?;
/// assert_eq!(f.solve(&[8.0, 18.0]), vec![2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    perm: Permutation,
    l: CscMatrix,
    /// Diagonal shift the boost ladder applied (see
    /// [`CholeskyFactor::applied_shift`]).
    applied_shift: f64,
    /// LIFO undo journal of applied rank-1 updates/downdates (see
    /// [`crate::update`]): reverting the most recent operation with the
    /// same vector restores the factor bit-for-bit instead of replaying
    /// inexact hyperbolic rotations.
    journal: Vec<crate::update::UndoEntry>,
}

impl CholeskyFactor {
    /// Orders and factorizes a symmetric positive definite matrix as
    /// `opts` says: the fill-reducing [`FactorOptions::ordering`], the
    /// numeric phase on up to [`FactorOptions::threads`] workers, and,
    /// when [`FactorOptions::boost`] is set, the diagonal-boost ladder of
    /// [`crate::regularize`] on a pivot failure. An [`Ordering`] alone
    /// converts into default options.
    ///
    /// Only the upper triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (use [`CscMatrix::is_symmetric_within`] to
    /// check when in doubt).
    ///
    /// The symbolic analysis picks the numeric kernel from the factor's
    /// shape: the supernodal kernel of [`crate::supernode`] when the flop
    /// count per factor nonzero reaches a fixed switch of 60 (fat
    /// factors such as 3-D meshes or large nested-dissection systems),
    /// the scalar up-looking kernel otherwise. No option sets it.
    ///
    /// The factor is **bit-identical** at every thread count: the kernel
    /// depends only on the pattern, and within a kernel each column's
    /// summation order is fixed by the elimination tree (a column's
    /// updates come from its ancestors, which form a chain), so the
    /// subtree schedule of [`crate::etree::EtreeSchedule`] changes only
    /// wall-clock time. `threads <= 1` runs the same driver with no
    /// subtree jobs: one ascending sweep.
    ///
    /// ```
    /// use tracered_sparse::{CholeskyFactor, CooMatrix, FactorOptions, order::Ordering};
    ///
    /// # fn main() -> Result<(), tracered_sparse::SparseError> {
    /// let mut coo = CooMatrix::new(3, 3);
    /// for i in 0..3 { coo.push(i, i, 2.0)?; }
    /// coo.push_symmetric(0, 1, -1.0)?;
    /// coo.push_symmetric(1, 2, -1.0)?;
    /// let a = coo.to_csc();
    /// let serial = CholeskyFactor::factorize(&a, Ordering::Natural)?;
    /// let opts = FactorOptions { ordering: Ordering::Natural, threads: 4, boost: None };
    /// let parallel = CholeskyFactor::factorize(&a, opts)?;
    /// assert_eq!(serial.l().values(), parallel.l().values());
    /// assert_eq!(parallel.applied_shift(), 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// - [`SparseError::NotSquare`] for rectangular inputs;
    /// - [`SparseError::NotPositiveDefinite`] when a pivot fails — with a
    ///   boost ladder, when even its top rung fails (the last pivot
    ///   failure is reported);
    /// - with a boost ladder, [`SparseError::InvalidValue`] for an invalid
    ///   [`BoostSchedule`] and [`SparseError::NonFiniteValue`] for NaN or
    ///   infinite entries.
    pub fn factorize(a: &CscMatrix, opts: impl Into<FactorOptions>) -> Result<Self, SparseError> {
        let FactorOptions { ordering, threads, boost } = opts.into();
        match boost {
            None => {
                let perm = ordering.compute(a)?;
                Self::factorize_with_perm_kernel(a, perm, None, threads)
            }
            Some(schedule) => Self::factorize_boosted(a, ordering, threads, &schedule),
        }
    }

    /// The boost ladder of [`CholeskyFactor::factorize`]: the permutation
    /// is computed once (a diagonal shift never changes the pattern) and
    /// each rung factors an explicitly boosted copy of `a`, so the
    /// bit-identity across thread counts carries over.
    fn factorize_boosted(
        a: &CscMatrix,
        ordering: Ordering,
        threads: usize,
        schedule: &BoostSchedule,
    ) -> Result<Self, SparseError> {
        schedule.validate()?;
        scan_non_finite(a)?;
        let perm = ordering.compute(a)?;
        let factor =
            |m: &CscMatrix| Self::factorize_with_perm_kernel(m, perm.clone(), None, threads);
        let mut last = match factor(a) {
            Err(e @ SparseError::NotPositiveDefinite { .. }) => e,
            done => return done,
        };
        let scale = diagonal_scale(a);
        for attempt in 0..schedule.max_boosts {
            let shift = schedule.shift_at(attempt, scale);
            match factor(&a.add_diagonal(&vec![shift; a.ncols()])?) {
                Ok(mut f) => {
                    f.applied_shift = shift;
                    return Ok(f);
                }
                Err(e @ SparseError::NotPositiveDefinite { .. }) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Factorizes with a caller-provided permutation on up to `threads`
    /// workers. `kernel` is `None` to let the symbolic analysis pick the
    /// numeric kernel, as [`CholeskyFactor::factorize`] does (it funnels
    /// into this), or a [`KernelVariant`] to force the scalar up-looking
    /// row kernel or the supernodal blocked-panel kernel (see
    /// [`crate::supernode`]).
    ///
    /// Each variant is bit-identical to itself at every thread count; the
    /// two variants agree only up to rounding (different summation
    /// orders), so cross-variant comparisons need a tolerance.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CholeskyFactor::factorize`] without a boost,
    /// plus [`SparseError::DimensionMismatch`] if the permutation size
    /// differs.
    pub fn factorize_with_perm_kernel(
        a: &CscMatrix,
        perm: Permutation,
        kernel: impl Into<Option<KernelVariant>>,
        threads: usize,
    ) -> Result<Self, SparseError> {
        let mut span =
            tracered_obs::span!("chol.factorize", { n: a.ncols(), nnz: a.nnz(), threads: threads });
        let (c, symbolic) = {
            let _sym = tracered_obs::span!("chol.symbolic");
            let c = a.symmetric_perm_upper(&perm)?;
            let symbolic = SymbolicCholesky::analyze(&c)?;
            (c, symbolic)
        };
        let kernel = kernel.into().unwrap_or_else(|| symbolic.kernel());
        if let Some(g) = span.as_mut() {
            g.arg("kernel", f64::from(u8::from(kernel == KernelVariant::Supernodal)));
        }
        let l = match kernel {
            KernelVariant::Scalar => numeric_up_looking(&c, &symbolic, threads)?,
            KernelVariant::Supernodal => {
                crate::supernode::numeric_supernodal(&c, &symbolic, threads)?
            }
        };
        Ok(CholeskyFactor { perm, l, applied_shift: 0.0, journal: Vec::new() })
    }

    /// The diagonal shift the boost ladder added before the successful
    /// attempt: this is a factor of `A + applied_shift · I`. `0.0` when
    /// the matrix factored as given.
    pub fn applied_shift(&self) -> f64 {
        self.applied_shift
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.l.ncols()
    }

    /// The lower-triangular factor `L` (in permuted index space).
    pub fn l(&self) -> &CscMatrix {
        &self.l
    }

    /// The fill-reducing permutation (new-to-old convention).
    pub fn perm(&self) -> &Permutation {
        &self.perm
    }

    /// Mutable access to `L` for the rank-1 update kernel.
    pub(crate) fn l_mut(&mut self) -> &mut CscMatrix {
        &mut self.l
    }

    /// Replaces `L` wholesale (pattern growth / journalled restore).
    pub(crate) fn set_l(&mut self, l: CscMatrix) {
        self.l = l;
    }

    /// The rank-1 undo journal (see [`crate::update`]).
    pub(crate) fn journal(&self) -> &[crate::update::UndoEntry] {
        &self.journal
    }

    /// Mutable access to the rank-1 undo journal.
    pub(crate) fn journal_mut(&mut self) -> &mut Vec<crate::update::UndoEntry> {
        &mut self.journal
    }

    /// Number of nonzeros in `L`.
    pub fn nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Estimated memory footprint of the factor in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.l.memory_bytes()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.n()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = self.perm.apply(b); // b in permuted space
        lsolve_in_place(&self.l, &mut x);
        ltsolve_in_place(&self.l, &mut x);
        self.perm.apply_inverse(&x)
    }

    /// Solves `A x = b` writing through a reusable buffer, avoiding the
    /// allocation in [`CholeskyFactor::solve`]. `x` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `self.n()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n();
        assert_eq!(b.len(), n, "rhs length must equal n");
        assert_eq!(x.len(), n, "output length must equal n");
        // Permute into x.
        for k in 0..n {
            x[k] = b[self.perm.new_to_old(k)];
        }
        lsolve_in_place(&self.l, x);
        ltsolve_in_place(&self.l, x);
        // Un-permute in place via a rotation-free copy.
        let tmp = x.to_vec();
        for k in 0..n {
            x[self.perm.new_to_old(k)] = tmp[k];
        }
    }

    /// Solves `A X = B` for a whole block of right-hand sides through the
    /// blocked substitutions [`lsolve_multi_in_place`] /
    /// [`ltsolve_multi_in_place`]: the factor is streamed **once** for all
    /// `k` columns instead of once per column, which is where the batched
    /// transient engine's per-RHS amortization comes from. Column `j` of
    /// the result equals `self.solve(b.col(j))` exactly, except that
    /// signed zeros may differ (see the substitution kernels).
    ///
    /// # Panics
    ///
    /// Panics if `b.nrows() != self.n()`.
    pub fn solve_multi(&self, b: &MultiVec) -> MultiVec {
        let mut x = MultiVec::zeros(self.n(), b.ncols());
        self.solve_multi_into(b, &mut x);
        x
    }

    /// [`CholeskyFactor::solve_multi`] writing through a reusable block,
    /// avoiding the allocation. `x` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `b` and `x` disagree with the factor.
    pub fn solve_multi_into(&self, b: &MultiVec, x: &mut MultiVec) {
        let n = self.n();
        assert_eq!(b.nrows(), n, "rhs rows must equal n");
        assert_eq!(x.nrows(), n, "output rows must equal n");
        assert_eq!(x.ncols(), b.ncols(), "output width must match rhs width");
        for (bc, xc) in b.cols().zip(x.cols_mut()) {
            for k in 0..n {
                xc[k] = bc[self.perm.new_to_old(k)];
            }
        }
        lsolve_multi_in_place(&self.l, x);
        ltsolve_multi_in_place(&self.l, x);
        let mut tmp = vec![0.0; n];
        for xc in x.cols_mut() {
            tmp.copy_from_slice(xc);
            for k in 0..n {
                xc[self.perm.new_to_old(k)] = tmp[k];
            }
        }
    }
}

/// One up-looking row step: computes row `k` of `L` — ereach pattern,
/// scatter of column `k` of `C`, the triangular solve against the
/// completed descendant columns, and the pivot — appending `L(k, j)`
/// through the `next` cursors. `slot(j)` is factor column `j`'s index
/// into `colptr` and `next`: the identity on the shared factor arrays
/// (the top-of-tree tail of [`numeric_up_looking`]), the job's local
/// column map in [`factor_subtree_job`]. Every numeric
/// factorization runs this one body, which is what keeps the
/// bit-identity contract in one place.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] when the pivot fails.
#[allow(clippy::too_many_arguments)]
fn factor_row(
    c: &CscMatrix,
    parent: &[usize],
    k: usize,
    slot: impl Fn(usize) -> usize,
    colptr: &[usize],
    rowidx: &mut [usize],
    values: &mut [f64],
    next: &mut [usize],
    stack: &mut [usize],
    wmark: &mut [usize],
    x: &mut [f64],
) -> Result<(), SparseError> {
    let n = c.ncols();
    // Pattern of row k of L, in topological order.
    let top = etree::ereach(c, k, parent, stack, wmark);
    // Scatter the upper-triangle column k of C (rows <= k) into x.
    let (rows, vals) = c.col(k);
    let mut d = 0.0;
    for (&r, &v) in rows.iter().zip(vals.iter()) {
        if r < k {
            x[r] = v;
        } else if r == k {
            d = v;
        }
    }
    // Solve the triangular system for row k.
    for &j in &stack[top..n] {
        let sj = slot(j);
        let pj = colptr[sj];
        let ljj = values[pj]; // diagonal is first entry of column j
        let lkj = x[j] / ljj;
        x[j] = 0.0;
        for p in (pj + 1)..next[sj] {
            x[rowidx[p]] -= values[p] * lkj;
        }
        d -= lkj * lkj;
        let dst = next[sj];
        next[sj] += 1;
        rowidx[dst] = k;
        values[dst] = lkj;
    }
    if d <= 0.0 || !d.is_finite() {
        return Err(SparseError::NotPositiveDefinite { column: k });
    }
    let sk = slot(k);
    let dst = next[sk];
    next[sk] += 1;
    rowidx[dst] = k;
    values[dst] = d.sqrt();
    Ok(())
}

/// Matrices below this dimension never amortize the schedule build and
/// job scratch, so both kernels factor them in one sweep at every thread
/// count.
const PARALLEL_MIN_COLS: usize = 128;

/// One subtree job's private slice of the factor: columns owned by the
/// job, stored contiguously in job-local order.
#[derive(Default)]
struct SubtreeFactor {
    /// Local column pointers (length `cols.len() + 1`).
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
    /// Entries actually written per local column (a prefix of the
    /// symbolic count: the rest comes from serial-tail rows later).
    filled: Vec<usize>,
    /// First non-positive pivot the job hit, if any.
    failed_column: Option<usize>,
}

/// Up-looking factorization of one job's subtree union: the job's rows in
/// ascending order, reading and writing only the job's own columns.
///
/// Each row runs [`factor_row`] addressed through the job's local column
/// map, so every column it produces is bit-identical to the one-sweep
/// kernel's. The first failing pivot is recorded and ends the job.
fn factor_subtree_job(c: &CscMatrix, symbolic: &SymbolicCholesky, cols: &[usize]) -> SubtreeFactor {
    let n = c.ncols();
    let mut local_of = vec![usize::MAX; n];
    let mut colptr = Vec::with_capacity(cols.len() + 1);
    colptr.push(0usize);
    for (li, &j) in cols.iter().enumerate() {
        local_of[j] = li;
        colptr.push(colptr[li] + (symbolic.lcolptr[j + 1] - symbolic.lcolptr[j]));
    }
    let nnz = *colptr.last().expect("colptr starts with a 0 entry");
    let mut rowidx = vec![0usize; nnz];
    let mut values = vec![0.0f64; nnz];
    let mut next: Vec<usize> = colptr[..cols.len()].to_vec();
    let mut stack = vec![0usize; n];
    let mut wmark = vec![usize::MAX; n];
    let mut x = vec![0.0f64; n];
    let mut failed_column = None;
    for &k in cols {
        // Row k's pattern is a pruned subtree below k, so every column it
        // touches is an etree descendant of k and lives in this job; a
        // stray column maps to `usize::MAX` and fails the bounds check.
        let row = factor_row(
            c,
            &symbolic.parent,
            k,
            |j| local_of[j],
            &colptr,
            &mut rowidx,
            &mut values,
            &mut next,
            &mut stack,
            &mut wmark,
            &mut x,
        );
        if row.is_err() {
            failed_column = Some(k);
            break;
        }
    }
    let filled = (0..cols.len()).map(|li| next[li] - colptr[li]).collect();
    SubtreeFactor { colptr, rowidx, values, filled, failed_column }
}

/// Up-looking numeric factorization of the upper triangle `c` of the
/// permuted matrix on up to `threads` workers: the independent etree
/// subtrees of [`SymbolicCholesky::parallel_schedule`] factor
/// concurrently as [`tracered_par::par_jobs`], then the top-of-tree tail
/// rows run in ascending order. Without a schedule there are no jobs and
/// the tail is every row, the plain ascending sweep.
///
/// Bit-identical to that sweep at every thread count. Both phases run
/// every row through the one row step [`factor_row`]; the writers of
/// factor column `j` are `j`'s etree ancestors, which form a chain with
/// strictly increasing indices, so "append in ascending row order within
/// each owner" — what the subtree phase and the ascending tail both do —
/// reproduces the sweep's per-column summation order exactly; and every
/// value feeding a row's triangular solve comes from completed
/// descendant columns, computed identically. The same chain argument
/// makes error reporting sweep-equivalent: the smallest failing pivot
/// across jobs and the tail prefix below it is exactly the pivot the
/// sweep hits first.
fn numeric_up_looking(
    c: &CscMatrix,
    symbolic: &SymbolicCholesky,
    threads: usize,
) -> Result<CscMatrix, SparseError> {
    let n = c.ncols();
    let schedule = symbolic.parallel_schedule(threads);
    let (jobs, listed_tail) = match &schedule {
        Some(s) => (s.jobs(), s.serial_tail()),
        None => (&[][..], &[][..]),
    };
    // Without a schedule every row is a tail row, taken from a range so
    // the one-thread path allocates no row list.
    let every_row = if schedule.is_some() { 0..0 } else { 0..n };
    let tail_rows = listed_tail.len() + every_row.len();
    let _span = tracered_obs::span!("chol.numeric", {
        n: n,
        nnz: symbolic.factor_nnz(),
        jobs: jobs.len(),
        tail_rows: tail_rows
    });
    let lcolptr = symbolic.lcolptr.clone();
    let nnz = symbolic.factor_nnz();
    let mut lrowidx = vec![0usize; nnz];
    let mut lvalues = vec![0.0f64; nnz];
    let mut next = lcolptr.clone();

    // --- Phase 1: factor the independent subtree jobs concurrently. ---
    let mut outs: Vec<SubtreeFactor> = Vec::new();
    outs.resize_with(jobs.len(), SubtreeFactor::default);
    let work: Vec<(&Vec<usize>, &mut SubtreeFactor)> = jobs.iter().zip(outs.iter_mut()).collect();
    tracered_par::par_jobs(work, threads, |(cols, out)| {
        let _job = tracered_obs::span!("chol.numeric.job", { cols: cols.len() });
        *out = factor_subtree_job(c, symbolic, cols);
    });

    // Merge the job prefixes into the shared factor. Jobs own disjoint
    // column sets, so this is a straight copy plus cursor bump; partial
    // fills of a failed job are kept so the tail prefix below the
    // failure still sees exactly the sweep's state.
    let mut first_failure: Option<usize> = None;
    for (cols, out) in jobs.iter().zip(outs.iter()) {
        if let Some(col) = out.failed_column {
            first_failure = Some(first_failure.map_or(col, |c0| c0.min(col)));
        }
        for (li, &j) in cols.iter().enumerate() {
            let len = out.filled[li];
            let src = out.colptr[li]..out.colptr[li] + len;
            lrowidx[lcolptr[j]..lcolptr[j] + len].copy_from_slice(&out.rowidx[src.clone()]);
            lvalues[lcolptr[j]..lcolptr[j] + len].copy_from_slice(&out.values[src]);
            next[j] = lcolptr[j] + len;
        }
    }

    // --- Phase 2: serial tail over the top-of-tree rows, ascending. ---
    // On a job failure only the tail rows *below* the failing pivot run:
    // they are the tail rows the sweep would still have reached, and a
    // failure among them preempts the job's (it is smaller).
    let stop = first_failure.unwrap_or(usize::MAX);
    // The serial-tail span is the direct lens on the scalability ceiling:
    // its fraction of `chol.numeric` is the part no thread count removes.
    let _tail = tracered_obs::span!("chol.numeric.tail", { rows: tail_rows });
    let mut stack = vec![0usize; n];
    let mut wmark = vec![usize::MAX; n];
    let mut x = vec![0.0f64; n];
    for k in listed_tail.iter().copied().chain(every_row) {
        if k >= stop {
            break;
        }
        factor_row(
            c,
            &symbolic.parent,
            k,
            |j| j,
            &lcolptr,
            &mut lrowidx,
            &mut lvalues,
            &mut next,
            &mut stack,
            &mut wmark,
            &mut x,
        )?;
    }
    if let Some(column) = first_failure {
        return Err(SparseError::NotPositiveDefinite { column });
    }
    debug_assert!(
        (0..n).all(|j| next[j] == lcolptr[j + 1]),
        "numeric fill must match symbolic counts"
    );
    CscMatrix::from_raw_parts(n, n, lcolptr, lrowidx, lvalues)
}

/// In-place forward substitution `x ← L⁻¹ x` for a lower-triangular CSC
/// matrix whose diagonal entry is the first entry of every column.
pub fn lsolve_in_place(l: &CscMatrix, x: &mut [f64]) {
    let n = l.ncols();
    assert_eq!(x.len(), n, "vector length must equal n");
    let colptr = l.colptr();
    let rowidx = l.rowidx();
    let values = l.values();
    for j in 0..n {
        let xj = x[j] / values[colptr[j]];
        x[j] = xj;
        if xj != 0.0 {
            for p in (colptr[j] + 1)..colptr[j + 1] {
                x[rowidx[p]] -= values[p] * xj;
            }
        }
    }
}

/// In-place backward substitution `x ← L⁻ᵀ x`.
pub fn ltsolve_in_place(l: &CscMatrix, x: &mut [f64]) {
    let n = l.ncols();
    assert_eq!(x.len(), n, "vector length must equal n");
    let colptr = l.colptr();
    let rowidx = l.rowidx();
    let values = l.values();
    for j in (0..n).rev() {
        let mut xj = x[j];
        for p in (colptr[j] + 1)..colptr[j + 1] {
            xj -= values[p] * x[rowidx[p]];
        }
        x[j] = xj / values[colptr[j]];
    }
}

/// Blocked in-place forward substitution `X ← L⁻¹ X` over every column
/// of a multi-vector.
///
/// Each column of `L` is applied to all `k` right-hand sides before
/// moving on, so the factor — the dominant memory traffic of a sparse
/// triangular solve — is streamed once for the whole batch instead of
/// once per column. Per column the arithmetic (division and update
/// order) is identical to [`lsolve_in_place`]; the only permitted
/// difference is the sign of zeros, because the single-vector kernel
/// skips updates for exactly-zero solution entries while the blocked
/// kernel applies them.
///
/// # Panics
///
/// Panics if `x.nrows() != l.ncols()`.
pub fn lsolve_multi_in_place(l: &CscMatrix, x: &mut MultiVec) {
    let n = l.ncols();
    assert_eq!(x.nrows(), n, "multi-vector rows must equal n");
    let colptr = l.colptr();
    let rowidx = l.rowidx();
    let values = l.values();
    for j in 0..n {
        let d = values[colptr[j]];
        for xc in x.cols_mut() {
            let xj = xc[j] / d;
            xc[j] = xj;
            for p in (colptr[j] + 1)..colptr[j + 1] {
                xc[rowidx[p]] -= values[p] * xj;
            }
        }
    }
}

/// Blocked in-place backward substitution `X ← L⁻ᵀ X` over every column
/// of a multi-vector; the blocked counterpart of [`ltsolve_in_place`]
/// with the same once-per-batch factor streaming as
/// [`lsolve_multi_in_place`], and bit-identical per-column arithmetic.
///
/// # Panics
///
/// Panics if `x.nrows() != l.ncols()`.
pub fn ltsolve_multi_in_place(l: &CscMatrix, x: &mut MultiVec) {
    let n = l.ncols();
    assert_eq!(x.nrows(), n, "multi-vector rows must equal n");
    let colptr = l.colptr();
    let rowidx = l.rowidx();
    let values = l.values();
    for j in (0..n).rev() {
        let d = values[colptr[j]];
        for xc in x.cols_mut() {
            let mut xj = xc[j];
            for p in (colptr[j] + 1)..colptr[j + 1] {
                xj -= values[p] * xc[rowidx[p]];
            }
            xc[j] = xj / d;
        }
    }
}

/// Checks that every node's elimination-tree parent is its smallest
/// strictly-above neighbour in `L` — a structural invariant used in tests.
#[doc(hidden)]
pub fn etree_consistent_with_factor(l: &CscMatrix, parent: &[usize]) -> bool {
    let n = l.ncols();
    for j in 0..n {
        let (rows, _) = l.col(j);
        let first_below = rows.iter().copied().find(|&r| r > j);
        match (first_below, parent[j]) {
            (None, p) => {
                if p != NO_PARENT {
                    return false;
                }
            }
            (Some(r), p) => {
                if r != p {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Unit-weight Laplacian of the graph on `n` nodes with these edges,
    /// plus `shift` on the diagonal.
    fn laplacian_shifted(n: usize, edges: &[(usize, usize)], shift: f64) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut deg = vec![0.0; n];
        for &(a, b) in edges {
            coo.push_symmetric(a, b, -1.0).unwrap();
            deg[a] += 1.0;
            deg[b] += 1.0;
        }
        for (i, &d) in deg.iter().enumerate() {
            coo.push(i, i, d + shift).unwrap();
        }
        coo.to_csc()
    }

    /// Shifted Laplacian of the `dims[0] × dims[1] × …` grid.
    fn grid_shifted(dims: &[usize], shift: f64) -> CscMatrix {
        let n: usize = dims.iter().product();
        let mut edges = Vec::new();
        for v in 0..n {
            let mut stride = 1;
            for &d in dims {
                if (v / stride) % d + 1 < d {
                    edges.push((v, v + stride));
                }
                stride *= d;
            }
        }
        laplacian_shifted(n, &edges, shift)
    }

    fn grid_laplacian_shifted(k: usize, shift: f64) -> CscMatrix {
        grid_shifted(&[k, k], shift)
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = grid_laplacian_shifted(4, 0.3);
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let f = CholeskyFactor::factorize(&a, ord).unwrap();
            // Check P A Pᵀ = L Lᵀ densely.
            let ld = f.l().to_dense();
            let llt = ld.matmul(&ld.transpose());
            let ad = a.to_dense();
            let n = a.ncols();
            for newr in 0..n {
                for newc in 0..n {
                    let (or, oc) = (f.perm().new_to_old(newr), f.perm().new_to_old(newc));
                    assert!(
                        (llt[(newr, newc)] - ad[(or, oc)]).abs() < 1e-10,
                        "mismatch at ({newr},{newc}) under {ord:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_matches_dense_oracle() {
        let a = grid_laplacian_shifted(5, 0.7);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let dense = a.to_dense().cholesky().unwrap();
        let b: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        let x_sparse = f.solve(&b);
        let x_dense = dense.solve(&b);
        for (s, d) in x_sparse.iter().zip(x_dense.iter()) {
            assert!((s - d).abs() < 1e-9);
        }
        assert!(a.residual_inf_norm(&x_sparse, &b) < 1e-9);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = grid_laplacian_shifted(4, 0.5);
        let f = CholeskyFactor::factorize(&a, Ordering::NestedDissection).unwrap();
        let b: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 + 1.0).cos()).collect();
        let x1 = f.solve(&b);
        let mut x2 = vec![0.0; a.ncols()];
        f.solve_into(&b, &mut x2);
        assert_eq!(x1, x2);
    }

    #[test]
    fn diagonal_is_first_entry_of_each_column() {
        let a = grid_laplacian_shifted(4, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        for j in 0..f.n() {
            let (rows, vals) = f.l().col(j);
            assert_eq!(rows[0], j, "column {j} must start with its diagonal");
            assert!(vals[0] > 0.0);
        }
    }

    #[test]
    fn etree_structure_matches_factor() {
        let a = grid_laplacian_shifted(5, 0.2);
        let perm = Ordering::MinDegree.compute(&a).unwrap();
        let c = a.symmetric_perm_upper(&perm).unwrap();
        let symbolic = SymbolicCholesky::analyze(&c).unwrap();
        let l = numeric_up_looking(&c, &symbolic, 1).unwrap();
        assert!(etree_consistent_with_factor(&l, symbolic.parent()));
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, -1.0).unwrap();
        let a = coo.to_csc();
        assert!(matches!(
            CholeskyFactor::factorize(&a, Ordering::Natural),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // Unshifted Laplacian of an edge: singular.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push_symmetric(0, 1, -1.0).unwrap();
        let a = coo.to_csc();
        assert!(matches!(
            CholeskyFactor::factorize(&a, Ordering::Natural),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rectangular_is_rejected() {
        let a = CscMatrix::zeros(2, 3);
        assert!(matches!(
            CholeskyFactor::factorize(&a, Ordering::Natural),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn triangular_solves_are_inverses() {
        let a = grid_laplacian_shifted(4, 1.0);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let n = f.n();
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1 - 0.7).collect();
        let orig = x.clone();
        // L (L⁻¹ x) = x
        lsolve_in_place(f.l(), &mut x);
        let ld = f.l().to_dense();
        let y = ld.matvec(&x);
        for (a, b) in y.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_multi_matches_column_solves_exactly() {
        let a = grid_laplacian_shifted(5, 0.6);
        let n = a.ncols();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let f = CholeskyFactor::factorize(&a, ord).unwrap();
            let cols: Vec<Vec<f64>> =
                (0..4).map(|c| (0..n).map(|i| ((i * 7 + c * 13) as f64).sin()).collect()).collect();
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let b = MultiVec::from_columns(&refs).unwrap();
            let x = f.solve_multi(&b);
            assert_eq!(x.ncols(), 4);
            for (c, col) in cols.iter().enumerate() {
                let single = f.solve(col);
                for (i, (s, m)) in single.iter().zip(x.col(c).iter()).enumerate() {
                    assert!(
                        (s - m).abs() == 0.0,
                        "column {c} row {i} under {ord:?}: single {s} vs multi {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_multi_into_reuses_buffer() {
        let a = grid_laplacian_shifted(4, 0.9);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let b = MultiVec::broadcast(&vec![1.0; a.ncols()], 3);
        let mut x = MultiVec::zeros(a.ncols(), 3);
        f.solve_multi_into(&b, &mut x);
        for c in 0..3 {
            assert!(a.residual_inf_norm(x.col(c), b.col(c)) < 1e-9);
        }
    }

    #[test]
    fn blocked_substitutions_match_serial_per_column() {
        let a = grid_laplacian_shifted(5, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::NestedDissection).unwrap();
        let n = f.n();
        let cols: Vec<Vec<f64>> =
            (0..3).map(|c| (0..n).map(|i| ((i + c * 17) as f64) * 0.1 - 2.0).collect()).collect();
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let mut block = MultiVec::from_columns(&refs).unwrap();
        lsolve_multi_in_place(f.l(), &mut block);
        ltsolve_multi_in_place(f.l(), &mut block);
        for (c, col) in cols.iter().enumerate() {
            let mut single = col.clone();
            lsolve_in_place(f.l(), &mut single);
            ltsolve_in_place(f.l(), &mut single);
            for (s, m) in single.iter().zip(block.col(c).iter()) {
                assert!((s - m).abs() == 0.0, "column {c} diverged");
            }
        }
    }

    #[test]
    fn factor_nnz_reported() {
        let a = grid_laplacian_shifted(4, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        assert_eq!(f.nnz(), f.l().nnz());
        assert!(f.memory_bytes() > 0);
    }

    fn assert_factors_bit_identical(a: &CscMatrix, b: &CscMatrix) {
        assert_eq!(a.colptr(), b.colptr());
        assert_eq!(a.rowidx(), b.rowidx());
        assert!(
            a.values().iter().zip(b.values().iter()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "factor values diverged"
        );
    }

    #[test]
    fn parallel_factor_is_bit_identical_to_serial() {
        // 13×13 grid: 169 columns, above the parallel fallback threshold.
        let a = grid_laplacian_shifted(13, 0.3);
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let serial = CholeskyFactor::factorize(&a, ord).unwrap();
            for threads in [2usize, 4] {
                let par =
                    CholeskyFactor::factorize(&a, FactorOptions { threads, ..ord.into() }).unwrap();
                let n = serial.n();
                assert!((0..n).all(|k| par.perm().new_to_old(k) == serial.perm().new_to_old(k)));
                assert_factors_bit_identical(par.l(), serial.l());
            }
        }
    }

    #[test]
    fn kernel_rule_picks_supernodal_only_for_fat_factors() {
        let cases = [
            // A path: every column has two nonzeros, about 2 flops/nnz(L).
            (grid_shifted(&[400], 0.1), Ordering::Natural, KernelVariant::Scalar),
            (grid_laplacian_shifted(12, 0.1), Ordering::MinDegree, KernelVariant::Scalar),
            // About 104 flops/nnz(L).
            (
                grid_shifted(&[12, 12, 12], 0.1),
                Ordering::NestedDissection,
                KernelVariant::Supernodal,
            ),
        ];
        for (a, ord, expected) in cases {
            let perm = ord.compute(&a).unwrap();
            let c = a.symmetric_perm_upper(&perm).unwrap();
            let kernel = SymbolicCholesky::analyze(&c).unwrap().kernel();
            assert_eq!(kernel, expected, "n = {} under {ord:?}", a.ncols());
            let by_rule = CholeskyFactor::factorize(&a, ord).unwrap();
            let forced = CholeskyFactor::factorize_with_perm_kernel(&a, perm, kernel, 1).unwrap();
            assert_factors_bit_identical(by_rule.l(), forced.l());
        }
    }

    #[test]
    fn parallel_factor_small_matrix_falls_back_to_serial() {
        let a = grid_laplacian_shifted(4, 0.5);
        let serial = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let opts = FactorOptions { threads: 8, ..Default::default() };
        let par = CholeskyFactor::factorize(&a, opts).unwrap();
        assert_factors_bit_identical(par.l(), serial.l());
    }

    #[test]
    fn parallel_factor_reports_serial_first_failure() {
        // A big SPD grid with one diagonal entry poisoned: every thread
        // count must report the same (serial-first) failing column.
        let a = grid_laplacian_shifted(13, 0.3);
        let n = a.ncols();
        let poison = |col: usize| {
            let mut coo = CooMatrix::new(n, n);
            for (r, c, v) in a.iter() {
                let v = if r == col && c == col { -1.0 } else { v };
                coo.push(r, c, v).unwrap();
            }
            coo.to_csc()
        };
        for bad in [3usize, n / 2, n - 2] {
            let m = poison(bad);
            let serial = CholeskyFactor::factorize(&m, Ordering::Natural);
            let serial_col = match serial {
                Err(SparseError::NotPositiveDefinite { column }) => column,
                other => panic!("expected a pivot failure, got {other:?}"),
            };
            for threads in [2usize, 4] {
                let opts = FactorOptions { threads, ..Ordering::Natural.into() };
                match CholeskyFactor::factorize(&m, opts) {
                    Err(SparseError::NotPositiveDefinite { column }) => {
                        assert_eq!(column, serial_col, "threads {threads}, poisoned {bad}");
                    }
                    other => panic!("expected a pivot failure, got {other:?}"),
                }
            }
        }
    }
}
