//! Supernodal (blocked) numeric Cholesky kernel.
//!
//! The scalar up-looking kernel in [`crate::chol`] touches the factor one
//! row at a time through indexed gather/scatter loops — fine for very
//! sparse columns, but the dense top-of-tree block that dominates grid
//! Laplacians (the serial tail measured 68% of numeric time when this
//! kernel was added) pays the full indirection cost on what is
//! effectively dense arithmetic. This module implements the classic supernodal alternative:
//!
//! 1. **Detection** ([`SupernodePartition`]): adjacent factor columns with
//!    identical below-diagonal structure (the *fundamental supernode*
//!    condition `parent[j] == j + 1 && count[j] == count[j + 1] + 1`) are
//!    merged into panels, with *relaxed amalgamation* additionally merging
//!    neighbouring chains when the explicit zeros this introduces stay
//!    under a small budget (`RELAX_MAX_WIDTH`, `RELAX_PAD_DENOM`).
//! 2. **Panels**: each supernode's columns are stored as one dense
//!    column-major block over the union row pattern, so the update and
//!    factor loops are plain strided `f64` loops the compiler can
//!    autovectorize — no BLAS dependency.
//! 3. **Left-looking blocked factorization**: every supernode first
//!    receives the rank-`w` updates of its descendant supernodes (tiled
//!    microkernels accumulating through a scratch block), then runs a
//!    dense in-panel Cholesky.
//!
//! # Determinism contract
//!
//! Within the [`KernelVariant::Supernodal`] variant the factor is
//! **bit-identical at every thread count**: updates are applied in
//! ascending descendant-supernode order from precomputed (and therefore
//! schedule-independent) update lists, so the serial sweep and the
//! [`crate::etree::EtreeSchedule`]-driven parallel path execute literally
//! the same floating-point operations in the same order. Across variants
//! (`Scalar` vs `Supernodal`) the summation order differs, so results are
//! equal only up to rounding — compare with a tolerance, never bitwise.

use crate::chol::SymbolicCholesky;
use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::etree;

/// Which numeric kernel
/// [`CholeskyFactor::factorize_with_perm_kernel`](crate::CholeskyFactor::factorize_with_perm_kernel)
/// runs. [`CholeskyFactor::factorize`](crate::CholeskyFactor::factorize)
/// always runs `Scalar`, and no configuration selects the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelVariant {
    /// The scalar up-looking row kernel — the historical default.
    #[default]
    Scalar,
    /// Supernodal blocked panels with tiled rank-k updates.
    Supernodal,
}

/// Widest panel relaxed amalgamation may produce. Wide panels amortize
/// the per-update scatter better but pad more; 32 columns keeps a panel
/// column comfortably inside L1 for the grids the bench family generates.
const RELAX_MAX_WIDTH: usize = 32;

/// Pad budget denominator: a merge is accepted only while the explicit
/// zeros stay at or below `1/RELAX_PAD_DENOM` of the merged panel's lower
/// trapezoid.
const RELAX_PAD_DENOM: usize = 8;

/// A partition of the factor's columns into supernodes: maximal runs of
/// columns with (near-)identical below-diagonal structure, stored with
/// the union row pattern of each panel.
///
/// Invariants (checked by the `chol_supernodal` property suite):
/// - supernode column ranges are contiguous and cover `0..n` exactly once;
/// - `rows(s)` is strictly ascending and starts with `cols(s)` itself;
/// - every factor column's pattern is a subset of its supernode's rows.
#[derive(Debug, Clone)]
pub struct SupernodePartition {
    /// First column of each supernode (length `num_supernodes + 1`,
    /// terminated by `n`).
    first_col: Vec<usize>,
    /// Supernode index owning each column (length `n`).
    sup_of: Vec<usize>,
    /// Offsets into `rows` (length `num_supernodes + 1`).
    rowptr: Vec<usize>,
    /// Concatenated union row patterns; each supernode's slice is sorted
    /// ascending and begins with the supernode's own columns.
    rows: Vec<usize>,
    /// Explicit-zero cells introduced by relaxed amalgamation, summed
    /// over all panels' lower trapezoids.
    padded: usize,
}

impl SupernodePartition {
    /// Detects the supernode partition for the upper triangle `c` of an
    /// already-permuted matrix with its symbolic analysis.
    pub fn from_symbolic(c: &CscMatrix, symbolic: &SymbolicCholesky) -> Self {
        let structure = factor_structure(c, symbolic);
        Self::from_structure(symbolic, &structure)
    }

    /// Detection from a precomputed factor row-index array (the exact
    /// per-column pattern of `L`, as built by [`factor_structure`]).
    pub(crate) fn from_structure(symbolic: &SymbolicCholesky, lrowidx: &[usize]) -> Self {
        let n = symbolic.n();
        let parent = symbolic.parent();
        let lcolptr = symbolic.lcolptr();
        let counts = symbolic.column_counts();

        // Fundamental supernode heads: column j + 1 extends column j's
        // supernode iff j's first below-diagonal row is j + 1 (etree
        // parent) and the patterns are nested with equal cardinality.
        let mut heads: Vec<usize> = Vec::new();
        if n > 0 {
            heads.push(0);
        }
        for j in 1..n {
            if !(parent[j - 1] == j && counts[j - 1] == counts[j] + 1) {
                heads.push(j);
            }
        }

        let nb = heads.len();
        let mut first_col = Vec::new();
        let mut rowptr = vec![0usize];
        let mut rows_all: Vec<usize> = Vec::new();
        let mut padded = 0usize;

        let mut bi = 0;
        while bi < nb {
            let a = heads[bi];
            let mut e = if bi + 1 < nb { heads[bi + 1] } else { n };
            // A fundamental block's union pattern is its first column's
            // pattern (the later columns are nested suffixes of it).
            let mut union_rows: Vec<usize> = lrowidx[lcolptr[a]..lcolptr[a + 1]].to_vec();
            let mut nnz_sum: usize = (a..e).map(|j| counts[j]).sum();
            let mut bj = bi + 1;
            while bj < nb {
                let c0 = heads[bj];
                let e2 = if bj + 1 < nb { heads[bj + 1] } else { n };
                // Relaxed amalgamation: the chain must continue (so the
                // merged range still forms one etree path) and the merge
                // must respect the width and zero-pad budgets.
                if parent[e - 1] != c0 || e2 - a > RELAX_MAX_WIDTH {
                    break;
                }
                let merged = merge_sorted(&union_rows, &lrowidx[lcolptr[c0]..lcolptr[c0 + 1]]);
                let nnz_new = nnz_sum + (c0..e2).map(|j| counts[j]).sum::<usize>();
                let w = e2 - a;
                let trapezoid = w * merged.len() - w * (w - 1) / 2;
                let pad = trapezoid - nnz_new;
                if pad * RELAX_PAD_DENOM > trapezoid {
                    break;
                }
                union_rows = merged;
                nnz_sum = nnz_new;
                e = e2;
                bj += 1;
            }
            let w = e - a;
            padded += w * union_rows.len() - w * (w - 1) / 2 - nnz_sum;
            first_col.push(a);
            rows_all.extend_from_slice(&union_rows);
            rowptr.push(rows_all.len());
            bi = bj;
        }
        first_col.push(n);

        let mut sup_of = vec![0usize; n];
        for s in 0..first_col.len() - 1 {
            for j in first_col[s]..first_col[s + 1] {
                sup_of[j] = s;
            }
        }
        SupernodePartition { first_col, sup_of, rowptr, rows: rows_all, padded }
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> usize {
        self.first_col.len() - 1
    }

    /// Dimension of the partitioned factor.
    pub fn n(&self) -> usize {
        *self.first_col.last().expect("first_col is never empty")
    }

    /// Column range of supernode `s`.
    pub fn cols(&self, s: usize) -> std::ops::Range<usize> {
        self.first_col[s]..self.first_col[s + 1]
    }

    /// Number of columns in supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.first_col[s + 1] - self.first_col[s]
    }

    /// Union row pattern of supernode `s`: ascending, beginning with the
    /// supernode's own columns, then the below-diagonal union.
    pub fn rows(&self, s: usize) -> &[usize] {
        &self.rows[self.rowptr[s]..self.rowptr[s + 1]]
    }

    /// The supernode owning column `col`.
    pub fn supernode_of(&self, col: usize) -> usize {
        self.sup_of[col]
    }

    /// Explicit-zero panel cells introduced by relaxed amalgamation.
    pub fn padded_cells(&self) -> usize {
        self.padded
    }

    /// Mean supernode width (columns per panel).
    pub fn mean_width(&self) -> f64 {
        if self.num_supernodes() == 0 {
            return 0.0;
        }
        self.n() as f64 / self.num_supernodes() as f64
    }

    /// Widest supernode.
    pub fn max_width(&self) -> usize {
        (0..self.num_supernodes()).map(|s| self.width(s)).max().unwrap_or(0)
    }

    /// Tallest panel (longest union row pattern).
    fn max_rows(&self) -> usize {
        (0..self.num_supernodes()).map(|s| self.rowptr[s + 1] - self.rowptr[s]).max().unwrap_or(0)
    }
}

/// Two-pointer merge of sorted, duplicate-free index slices.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Builds the exact row-index array of `L` (the full symbolic pattern,
/// sorted ascending per column with the diagonal first) by replaying the
/// up-looking kernel's `ereach` sweep without arithmetic. `O(nnz(L))`.
pub(crate) fn factor_structure(c: &CscMatrix, symbolic: &SymbolicCholesky) -> Vec<usize> {
    let n = c.ncols();
    let lcolptr = symbolic.lcolptr();
    let mut lrowidx = vec![0usize; symbolic.factor_nnz()];
    let mut next: Vec<usize> = lcolptr.to_vec();
    let mut stack = vec![0usize; n];
    let mut wmark = vec![usize::MAX; n];
    for k in 0..n {
        let top = etree::ereach(c, k, symbolic.parent(), &mut stack, &mut wmark);
        for &j in &stack[top..n] {
            lrowidx[next[j]] = k;
            next[j] += 1;
        }
        lrowidx[next[k]] = k;
        next[k] += 1;
    }
    debug_assert!(
        (0..n).all(|j| next[j] == lcolptr[j + 1]),
        "structure sweep must fill the symbolic counts exactly"
    );
    lrowidx
}

/// Per-target update lists: `updates[s]` holds `(d, off)` pairs meaning
/// descendant supernode `d` updates supernode `s`, with `off` the index
/// into `rows(d)` of the first row landing in `cols(s)`.
///
/// The outer loop ascends over `d`, so each `updates[s]` list is sorted
/// ascending by descendant — the canonical application order the
/// determinism contract fixes. The lists depend only on the partition
/// (never on the schedule), so every thread count applies identical
/// updates in identical order.
fn build_updates(part: &SupernodePartition) -> Vec<Vec<(usize, usize)>> {
    let nsup = part.num_supernodes();
    let mut updates: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nsup];
    for d in 0..nsup {
        let rows = part.rows(d);
        let w = part.width(d);
        let mut i = w;
        while i < rows.len() {
            let s = part.sup_of[rows[i]];
            updates[s].push((d, i));
            let end = part.first_col[s + 1];
            while i < rows.len() && rows[i] < end {
                i += 1;
            }
        }
    }
    updates
}

/// Read access to completed descendant panels — indexed globally by the
/// serial sweep and the tail, and through a job-local sorted list inside
/// subtree jobs.
trait PanelLookup {
    /// The completed dense panel of supernode `s`.
    fn panel(&self, s: usize) -> &[f64];
}

impl PanelLookup for [Vec<f64>] {
    fn panel(&self, s: usize) -> &[f64] {
        &self[s]
    }
}

impl PanelLookup for [(usize, &mut Vec<f64>)] {
    fn panel(&self, s: usize) -> &[f64] {
        let i = self
            .binary_search_by_key(&s, |e| e.0)
            .expect("descendant supernode panels stay within the owning subtree job");
        self[i].1.as_slice()
    }
}

/// Factors one supernode panel left-looking: scatter of the lower
/// triangle of `A`, descendant rank-k updates in ascending-descendant
/// order through the `wbuf` scratch block, then a dense in-panel
/// Cholesky. Columns with global index `>= limit` are skipped (the
/// parallel tail uses this to stop at an earlier job failure exactly
/// where the serial sweep would have stopped).
///
/// Returns the global index of the first failing pivot column, if any.
/// `relmap` must be `usize::MAX`-filled on entry and is restored on exit.
#[allow(clippy::too_many_arguments)]
fn factor_supernode_into<L: PanelLookup + ?Sized>(
    s: usize,
    lower: &CscMatrix,
    part: &SupernodePartition,
    updates: &[(usize, usize)],
    deps: &L,
    panel: &mut Vec<f64>,
    relmap: &mut [usize],
    wbuf: &mut [f64],
    limit: usize,
) -> Option<usize> {
    let s1 = part.first_col[s];
    let s2 = part.first_col[s + 1];
    let w = s2 - s1;
    let rows = part.rows(s);
    let r = rows.len();
    panel.clear();
    panel.resize(r * w, 0.0);
    for (i, &row) in rows.iter().enumerate() {
        relmap[row] = i;
    }

    // Scatter the lower-triangle columns of A. Every stored entry of A
    // is in L's pattern, so the row map always hits.
    for (jc, jj) in (s1..s2).enumerate() {
        let (ri, rv) = lower.col(jj);
        let base = jc * r;
        for (&i, &v) in ri.iter().zip(rv.iter()) {
            debug_assert!(relmap[i] != usize::MAX, "A's pattern must be inside L's");
            panel[base + relmap[i]] = v;
        }
    }

    // Descendant updates, ascending by descendant supernode index.
    for &(d, off) in updates {
        let drows = part.rows(d);
        let dw = part.width(d);
        let rd = drows.len();
        let dpanel = deps.panel(d);
        debug_assert_eq!(dpanel.len(), rd * dw, "descendant panel must be complete");
        let r2 = rd - off;
        // Rows of d that land inside this supernode's column range
        // become update target columns.
        let mut r1 = 0;
        while r1 < r2 && drows[off + r1] < s2 {
            r1 += 1;
        }

        // Fused path: when the descendant's landing rows occupy one
        // consecutive run of this panel's row pattern (always true in
        // the dense top-of-tree region the serial tail factors), the
        // rank-k update subtracts straight into the panel columns —
        // no scratch `W`, no scatter pass. Whether an update takes
        // this path depends only on the partition, never on the
        // schedule, so the bit-identity contract across thread counts
        // is untouched.
        let t0 = relmap[drows[off]];
        let contiguous = t0 != usize::MAX && (0..r2).all(|i| relmap[drows[off + i]] == t0 + i);
        if contiguous {
            let mut j = 0;
            while j + 2 <= r1 {
                // The panel's rows begin with its own columns, so in the
                // contiguous case target columns are adjacent: t0 + j
                // and t0 + j + 1.
                let tc = drows[off + j] - s1;
                let (pa, pb) = panel[tc * r..(tc + 2) * r].split_at_mut(r);
                let col0 = &mut pa[t0 + j..t0 + r2];
                let col1 = &mut pb[t0 + j + 1..t0 + r2];
                let mut k = 0;
                while k + 4 <= dw {
                    let c0 = &dpanel[k * rd + off..(k + 1) * rd];
                    let c1 = &dpanel[(k + 1) * rd + off..(k + 2) * rd];
                    let c2 = &dpanel[(k + 2) * rd + off..(k + 3) * rd];
                    let c3 = &dpanel[(k + 3) * rd + off..(k + 4) * rd];
                    let (a0, a1, a2, a3) = (c0[j], c1[j], c2[j], c3[j]);
                    let (b0, b1, b2, b3) = (c0[j + 1], c1[j + 1], c2[j + 1], c3[j + 1]);
                    col0[0] -= a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3;
                    let (d0, d1, d2, d3) = (&c0[j + 1..], &c1[j + 1..], &c2[j + 1..], &c3[j + 1..]);
                    for t in 0..col1.len() {
                        let (x0, x1, x2, x3) = (d0[t], d1[t], d2[t], d3[t]);
                        col0[t + 1] -= x0 * a0 + x1 * a1 + x2 * a2 + x3 * a3;
                        col1[t] -= x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3;
                    }
                    k += 4;
                }
                while k < dw {
                    let c0 = &dpanel[k * rd + off..(k + 1) * rd];
                    let a0 = c0[j];
                    let b0 = c0[j + 1];
                    col0[0] -= a0 * a0;
                    let d0 = &c0[j + 1..];
                    for t in 0..col1.len() {
                        col0[t + 1] -= d0[t] * a0;
                        col1[t] -= d0[t] * b0;
                    }
                    k += 1;
                }
                j += 2;
            }
            if j < r1 {
                let tc = drows[off + j] - s1;
                let col = &mut panel[tc * r + t0 + j..tc * r + t0 + r2];
                let mut k = 0;
                while k + 4 <= dw {
                    let c0 = &dpanel[k * rd + off + j..k * rd + rd];
                    let c1 = &dpanel[(k + 1) * rd + off + j..(k + 1) * rd + rd];
                    let c2 = &dpanel[(k + 2) * rd + off + j..(k + 2) * rd + rd];
                    let c3 = &dpanel[(k + 3) * rd + off + j..(k + 3) * rd + rd];
                    let (b0, b1, b2, b3) = (c0[0], c1[0], c2[0], c3[0]);
                    for (i, x) in col.iter_mut().enumerate() {
                        *x -= c0[i] * b0 + c1[i] * b1 + c2[i] * b2 + c3[i] * b3;
                    }
                    k += 4;
                }
                while k < dw {
                    let c0 = &dpanel[k * rd + off + j..k * rd + rd];
                    let b0 = c0[0];
                    for (i, x) in col.iter_mut().enumerate() {
                        *x -= c0[i] * b0;
                    }
                    k += 1;
                }
            }
            continue;
        }

        // W[j*r2 + i] = sum_k Ld[off+i, k] * Ld[off+j, k] for the lower
        // trapezoid i >= j: a rank-dw outer-product accumulation, tiled
        // 2 (target columns) × 4 (descendant columns) so every loaded
        // panel element feeds two accumulators — on the tall dense panels
        // at the top of the tree this kernel is memory-bound, and the
        // pairing halves the stream traffic. The inner loops are plain
        // fused multiply-add streams the compiler autovectorizes.
        let mut j = 0;
        while j + 2 <= r1 {
            // Two adjacent W columns; wbuf is r2-strided, so the pair's
            // live parts (rows j.. and j+1..) never overlap.
            let (wa, wb) = wbuf[j * r2..(j + 2) * r2].split_at_mut(r2);
            let wcol0 = &mut wa[j..];
            let wcol1 = &mut wb[j + 1..];
            wcol0.fill(0.0);
            wcol1.fill(0.0);
            let mut k = 0;
            while k + 4 <= dw {
                let c0 = &dpanel[k * rd + off..(k + 1) * rd];
                let c1 = &dpanel[(k + 1) * rd + off..(k + 2) * rd];
                let c2 = &dpanel[(k + 2) * rd + off..(k + 3) * rd];
                let c3 = &dpanel[(k + 3) * rd + off..(k + 4) * rd];
                let (a0, a1, a2, a3) = (c0[j], c1[j], c2[j], c3[j]);
                let (b0, b1, b2, b3) = (c0[j + 1], c1[j + 1], c2[j + 1], c3[j + 1]);
                // Row i = j contributes to column j only.
                wcol0[0] += a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3;
                let (d0, d1, d2, d3) = (&c0[j + 1..], &c1[j + 1..], &c2[j + 1..], &c3[j + 1..]);
                for t in 0..wcol1.len() {
                    let (x0, x1, x2, x3) = (d0[t], d1[t], d2[t], d3[t]);
                    wcol0[t + 1] += x0 * a0 + x1 * a1 + x2 * a2 + x3 * a3;
                    wcol1[t] += x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3;
                }
                k += 4;
            }
            while k < dw {
                let c0 = &dpanel[k * rd + off..(k + 1) * rd];
                let a0 = c0[j];
                let b0 = c0[j + 1];
                wcol0[0] += a0 * a0;
                let d0 = &c0[j + 1..];
                for t in 0..wcol1.len() {
                    wcol0[t + 1] += d0[t] * a0;
                    wcol1[t] += d0[t] * b0;
                }
                k += 1;
            }
            j += 2;
        }
        if j < r1 {
            let wcol = &mut wbuf[j * r2 + j..j * r2 + r2];
            wcol.fill(0.0);
            let mut k = 0;
            while k + 4 <= dw {
                let c0 = &dpanel[k * rd + off + j..k * rd + rd];
                let c1 = &dpanel[(k + 1) * rd + off + j..(k + 1) * rd + rd];
                let c2 = &dpanel[(k + 2) * rd + off + j..(k + 2) * rd + rd];
                let c3 = &dpanel[(k + 3) * rd + off + j..(k + 3) * rd + rd];
                let (b0, b1, b2, b3) = (c0[0], c1[0], c2[0], c3[0]);
                for (i, x) in wcol.iter_mut().enumerate() {
                    *x += c0[i] * b0 + c1[i] * b1 + c2[i] * b2 + c3[i] * b3;
                }
                k += 4;
            }
            while k < dw {
                let c0 = &dpanel[k * rd + off + j..k * rd + rd];
                let b0 = c0[0];
                for (i, x) in wcol.iter_mut().enumerate() {
                    *x += c0[i] * b0;
                }
                k += 1;
            }
        }
        // Scatter-subtract W into the panel. Rows of d absent from this
        // panel's union pattern (possible only through relaxed padding)
        // carry exactly-zero contributions and are skipped — a decision
        // made purely from the partition, never from the schedule.
        for j in 0..r1 {
            let tc = drows[off + j] - s1;
            let base = tc * r;
            for i in j..r2 {
                let t = relmap[drows[off + i]];
                if t != usize::MAX {
                    panel[base + t] -= wbuf[j * r2 + i];
                }
            }
        }
    }

    // Dense in-panel Cholesky: per column, subtract the rank-1
    // contributions of the completed panel columns (tiled in fours),
    // pivot, then scale the below-diagonal rows.
    let mut failed = None;
    for jc in 0..w {
        if s1 + jc >= limit {
            break;
        }
        let (before, current) = panel.split_at_mut(jc * r);
        let col = &mut current[..r];
        let mut kc = 0;
        while kc + 4 <= jc {
            let p0 = &before[kc * r..kc * r + r];
            let p1 = &before[(kc + 1) * r..(kc + 1) * r + r];
            let p2 = &before[(kc + 2) * r..(kc + 2) * r + r];
            let p3 = &before[(kc + 3) * r..(kc + 3) * r + r];
            let (l0, l1, l2, l3) = (p0[jc], p1[jc], p2[jc], p3[jc]);
            for i in jc..r {
                col[i] -= p0[i] * l0 + p1[i] * l1 + p2[i] * l2 + p3[i] * l3;
            }
            kc += 4;
        }
        while kc < jc {
            let p0 = &before[kc * r..kc * r + r];
            let l0 = p0[jc];
            for i in jc..r {
                col[i] -= p0[i] * l0;
            }
            kc += 1;
        }
        let pivot = col[jc];
        if pivot <= 0.0 || !pivot.is_finite() {
            failed = Some(s1 + jc);
            break;
        }
        let sq = pivot.sqrt();
        col[jc] = sq;
        for x in col[jc + 1..].iter_mut() {
            *x /= sq;
        }
    }

    for &row in rows {
        relmap[row] = usize::MAX;
    }
    failed
}

/// Gathers the completed panels into the CSC factor along the exact
/// symbolic pattern. Padded cells are exactly `±0.0` throughout the
/// factorization (every product feeding one has an exactly-zero factor),
/// so dropping them here loses nothing.
fn panels_to_csc(
    n: usize,
    lcolptr: Vec<usize>,
    lrowidx: Vec<usize>,
    part: &SupernodePartition,
    panels: &[Vec<f64>],
) -> Result<CscMatrix, SparseError> {
    let mut lvalues = vec![0.0f64; lrowidx.len()];
    let mut relmap = vec![usize::MAX; n];
    for s in 0..part.num_supernodes() {
        let rows = part.rows(s);
        let r = rows.len();
        let panel = &panels[s];
        debug_assert_eq!(panel.len(), r * part.width(s));
        for (i, &row) in rows.iter().enumerate() {
            relmap[row] = i;
        }
        for (jc, j) in part.cols(s).enumerate() {
            let base = jc * r;
            for p in lcolptr[j]..lcolptr[j + 1] {
                lvalues[p] = panel[base + relmap[lrowidx[p]]];
            }
        }
        for &row in rows {
            relmap[row] = usize::MAX;
        }
    }
    CscMatrix::from_raw_parts(n, n, lcolptr, lrowidx, lvalues)
}

/// Supernodal numeric factorization of the upper triangle `c` of the
/// permuted matrix, with precomputed symbolic structure. Serial when
/// `threads <= 1` (or below the parallel cutoff), otherwise subtree jobs
/// from the [`SymbolicCholesky::schedule`] run whole supernodes
/// concurrently and the serial tail finishes the top of the tree —
/// bit-identical to the serial supernodal sweep at every thread count.
pub(crate) fn numeric_supernodal(
    c: &CscMatrix,
    symbolic: &SymbolicCholesky,
    threads: usize,
) -> Result<CscMatrix, SparseError> {
    let n = c.ncols();
    let lcolptr: Vec<usize> = symbolic.lcolptr().to_vec();
    let lrowidx = factor_structure(c, symbolic);
    let part = SupernodePartition::from_structure(symbolic, &lrowidx);
    let lower = c.transpose();
    let updates = build_updates(&part);
    if threads > 1 && n >= crate::chol::PARALLEL_MIN_COLS {
        numeric_supernodal_parallel(symbolic, &lower, lcolptr, lrowidx, &part, &updates, threads)
    } else {
        let _span = tracered_obs::span!("chol.numeric", {
            n: n,
            nnz: symbolic.factor_nnz(),
            supernodes: part.num_supernodes()
        });
        let panels = supernodal_serial(n, &lower, &part, &updates)?;
        panels_to_csc(n, lcolptr, lrowidx, &part, &panels)
    }
}

/// Serial left-looking sweep over all supernodes, ascending.
fn supernodal_serial(
    n: usize,
    lower: &CscMatrix,
    part: &SupernodePartition,
    updates: &[Vec<(usize, usize)>],
) -> Result<Vec<Vec<f64>>, SparseError> {
    let nsup = part.num_supernodes();
    let mut panels: Vec<Vec<f64>> = vec![Vec::new(); nsup];
    let mut relmap = vec![usize::MAX; n];
    let mut wbuf = vec![0.0f64; part.max_rows() * part.max_width()];
    for s in 0..nsup {
        let (done, rest) = panels.split_at_mut(s);
        if let Some(column) = factor_supernode_into(
            s,
            lower,
            part,
            &updates[s],
            &done[..],
            &mut rest[0],
            &mut relmap,
            &mut wbuf,
            usize::MAX,
        ) {
            return Err(SparseError::NotPositiveDefinite { column });
        }
    }
    Ok(panels)
}

/// Parallel supernodal factorization over the elimination-tree schedule.
///
/// A supernode is assigned to a subtree job iff **all** its columns
/// belong to that job; chain supernodes can straddle only a job/tail
/// boundary (jobs are descendant-closed), and every descendant supernode
/// updating a job-owned supernode lives in the same job (each union row
/// is real in some descendant column, and that column's etree path runs
/// through the descendant's top column), so the job phase is
/// self-contained. Straddlers and top-of-tree supernodes run in the
/// serial tail, which sees every completed panel. Failure semantics
/// mirror the scalar parallel path: jobs record their first failing
/// pivot, the tail runs only columns below the minimum, and the smallest
/// failing column — exactly the serial sweep's — is reported.
#[allow(clippy::too_many_arguments)]
fn numeric_supernodal_parallel(
    symbolic: &SymbolicCholesky,
    lower: &CscMatrix,
    lcolptr: Vec<usize>,
    lrowidx: Vec<usize>,
    part: &SupernodePartition,
    updates: &[Vec<(usize, usize)>],
    threads: usize,
) -> Result<CscMatrix, SparseError> {
    let n = symbolic.n();
    let schedule = {
        let _sched = tracered_obs::span!("chol.schedule", { threads: threads });
        symbolic.schedule(threads)
    };
    if schedule.jobs().len() <= 1 {
        let _span = tracered_obs::span!("chol.numeric", {
            n: n,
            nnz: symbolic.factor_nnz(),
            supernodes: part.num_supernodes()
        });
        let panels = supernodal_serial(n, lower, part, updates)?;
        return panels_to_csc(n, lcolptr, lrowidx, part, &panels);
    }

    let njobs = schedule.jobs().len();
    let mut owner = vec![usize::MAX; n];
    for (ji, job) in schedule.jobs().iter().enumerate() {
        for &j in job {
            owner[j] = ji;
        }
    }
    let nsup = part.num_supernodes();
    // assign[s]: owning job, or usize::MAX for the serial tail.
    let mut assign = vec![usize::MAX; nsup];
    for (s, slot) in assign.iter_mut().enumerate() {
        let o = owner[part.first_col[s]];
        if o != usize::MAX && part.cols(s).all(|j| owner[j] == o) {
            *slot = o;
        }
    }

    let mut tail_cols = 0usize;
    let mut tail_snodes: Vec<usize> = Vec::new();
    let mut panels: Vec<Vec<f64>> = vec![Vec::new(); nsup];
    let mut job_items: Vec<Vec<(usize, &mut Vec<f64>)>> = (0..njobs).map(|_| Vec::new()).collect();
    for (s, p) in panels.iter_mut().enumerate() {
        if assign[s] == usize::MAX {
            tail_snodes.push(s);
            tail_cols += part.width(s);
        } else {
            job_items[assign[s]].push((s, p));
        }
    }

    let _span = tracered_obs::span!("chol.numeric", {
        n: n,
        nnz: symbolic.factor_nnz(),
        jobs: njobs,
        tail_rows: tail_cols,
        supernodes: nsup
    });

    // --- Phase 1: subtree jobs factor their whole supernodes. ---
    // One unit of work: a job's (supernode, panel) list plus the slot
    // its first failing pivot (if any) is reported through.
    type JobWork<'a> = (Vec<(usize, &'a mut Vec<f64>)>, &'a mut Option<usize>);
    let mut job_fail: Vec<Option<usize>> = vec![None; njobs];
    let work: Vec<JobWork<'_>> = job_items.into_iter().zip(job_fail.iter_mut()).collect();
    let max_rows = part.max_rows();
    let max_width = part.max_width();
    tracered_par::par_jobs(work, threads, |(mut items, fail)| {
        let cols: usize = items.iter().map(|&(s, _)| part.width(s)).sum();
        let _job = tracered_obs::span!("chol.numeric.job", { cols: cols });
        let mut relmap = vec![usize::MAX; n];
        let mut wbuf = vec![0.0f64; max_rows * max_width];
        for i in 0..items.len() {
            let (done, rest) = items.split_at_mut(i);
            let s = rest[0].0;
            if let Some(column) = factor_supernode_into(
                s,
                lower,
                part,
                &updates[s],
                &*done,
                rest[0].1,
                &mut relmap,
                &mut wbuf,
                usize::MAX,
            ) {
                *fail = Some(column);
                break;
            }
        }
    });
    let mut first_failure: Option<usize> = job_fail.iter().flatten().copied().min();

    // --- Phase 2: serial tail over the remaining supernodes, ascending.
    // Only columns below the earliest job failure run; a tail failure is
    // necessarily smaller and preempts it.
    let _tail = tracered_obs::span!("chol.numeric.tail", { rows: tail_cols });
    let mut relmap = vec![usize::MAX; n];
    let mut wbuf = vec![0.0f64; max_rows * max_width];
    for &s in &tail_snodes {
        let stop = first_failure.unwrap_or(usize::MAX);
        if part.first_col[s] >= stop {
            break;
        }
        let (done, rest) = panels.split_at_mut(s);
        if let Some(column) = factor_supernode_into(
            s,
            lower,
            part,
            &updates[s],
            &done[..],
            &mut rest[0],
            &mut relmap,
            &mut wbuf,
            stop,
        ) {
            debug_assert!(column < stop);
            first_failure = Some(column);
        }
    }
    if let Some(column) = first_failure {
        return Err(SparseError::NotPositiveDefinite { column });
    }
    panels_to_csc(n, lcolptr, lrowidx, part, &panels)
}
