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
//! 2. **Panels**: each supernode's columns are stored as one packed
//!    lower trapezoid over the union row pattern — column `jc` holds
//!    rows `jc..r` — so the update and factor loops are plain `f64`
//!    loops the compiler can autovectorize, with no BLAS dependency. The
//!    panels lie end to end, in supernode order, in the one array that
//!    becomes the factor's CSC values: an unpadded panel already is the
//!    CSC slice of its columns, and one ascending in-place pass at the
//!    end moves the entries of padded panels down to their CSC slots.
//! 3. **Left-looking blocked factorization**: every supernode first
//!    receives the rank-`w` updates of its descendant supernodes (tiled
//!    microkernels, subtracting straight into the panel or through a
//!    two-column scratch strip), then runs a dense in-panel Cholesky.
//!
//! # Determinism contract
//!
//! Within the [`KernelVariant::Supernodal`] variant the factor is
//! **bit-identical at every thread count**: updates are applied in
//! ascending descendant-supernode order from precomputed (and therefore
//! schedule-independent) update lists, so the one sweep runs literally
//! the same floating-point operations in the same order whether its
//! [`crate::etree::EtreeSchedule`] has subtree jobs or none. Across variants
//! (`Scalar` vs `Supernodal`) the summation order differs, so results are
//! equal only up to rounding — compare with a tolerance, never bitwise.

use crate::chol::SymbolicCholesky;
use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::etree;

/// Which numeric kernel a factorization runs. The symbolic analysis
/// picks it from the factor's shape — `Supernodal` when the flop count
/// per factor nonzero reaches a fixed switch, as CHOLMOD decides — so
/// [`CholeskyFactor::factorize`](crate::CholeskyFactor::factorize) and
/// the direct solver never name it, and no configuration selects it.
/// [`CholeskyFactor::factorize_with_perm_kernel`](crate::CholeskyFactor::factorize_with_perm_kernel)
/// takes an explicit variant to force one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelVariant {
    /// The scalar up-looking row kernel, for thin factors.
    #[default]
    Scalar,
    /// Supernodal blocked panels with tiled rank-k updates, for fat
    /// factors.
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
        Self::from_structure(symbolic, &symbolic.factor_structure(c))
    }

    /// Detection from a precomputed factor row-index array (the exact
    /// per-column pattern of `L`, as built by
    /// [`SymbolicCholesky::factor_structure`]).
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

    /// Cells of supernode `s`'s packed trapezoid: its factor nonzeros
    /// plus its padded cells.
    fn panel_len(&self, s: usize) -> usize {
        let w = self.width(s);
        col_base(w, self.rowptr[s + 1] - self.rowptr[s]) + w
    }
}

/// Offset of row 0 of column `jc` in a packed trapezoid panel of `r`
/// rows. Column `jc` stores only rows `jc..r`, so the cell of row
/// `i >= jc` sits at `col_base(jc, r) + i`, and column `jc + 1` starts
/// where column `jc` ends.
fn col_base(jc: usize, r: usize) -> usize {
    jc * r - jc * (jc + 1) / 2
}

/// Rows `from..r` of column `jc` of a packed panel of `r` rows.
fn panel_col(panel: &[f64], jc: usize, r: usize, from: usize) -> &[f64] {
    let base = col_base(jc, r);
    &panel[base + from..base + r]
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
/// tail, and through a job-local sorted list inside subtree jobs.
trait PanelLookup {
    /// The completed packed panel of supernode `s`.
    fn panel(&self, s: usize) -> &[f64];
}

impl PanelLookup for [&mut [f64]] {
    fn panel(&self, s: usize) -> &[f64] {
        self[s]
    }
}

impl PanelLookup for [(usize, &mut [f64])] {
    fn panel(&self, s: usize) -> &[f64] {
        let i = self
            .binary_search_by_key(&s, |e| e.0)
            .expect("descendant supernode panels stay within the owning subtree job");
        self[i].1
    }
}

/// Factors one supernode panel left-looking: descendant rank-k updates
/// in ascending-descendant order, then a dense in-panel Cholesky.
/// Columns with global index `>= limit` are skipped (the tail uses this
/// to stop at an earlier job failure exactly where the one sweep would
/// have stopped).
///
/// `panel` is the supernode's packed trapezoid holding `A`'s entries
/// (see [`scatter_matrix`]) and zeros. Returns the global index of the
/// first failing pivot column, if any. `relmap` must be
/// `usize::MAX`-filled on entry and is restored on exit; `wbuf` holds at
/// least two columns of the tallest panel.
#[allow(clippy::too_many_arguments)]
fn factor_supernode_into<L: PanelLookup + ?Sized>(
    s: usize,
    part: &SupernodePartition,
    updates: &[(usize, usize)],
    deps: &L,
    panel: &mut [f64],
    relmap: &mut [usize],
    wbuf: &mut [f64],
    limit: usize,
) -> Option<usize> {
    let s1 = part.first_col[s];
    let s2 = part.first_col[s + 1];
    let w = s2 - s1;
    let rows = part.rows(s);
    let r = rows.len();
    debug_assert_eq!(panel.len(), part.panel_len(s), "panel must be the packed trapezoid");
    for (i, &row) in rows.iter().enumerate() {
        relmap[row] = i;
    }

    // Descendant updates, ascending by descendant supernode index.
    for &(d, off) in updates {
        let drows = part.rows(d);
        let dw = part.width(d);
        let rd = drows.len();
        let dpanel = deps.panel(d);
        debug_assert_eq!(dpanel.len(), part.panel_len(d), "descendant panel must be complete");
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
                // contiguous case the target columns are adjacent, tc
                // and tc + 1, and landing row j is panel row tc. Packed
                // column tc + 1 starts at its row tc + 1, where column
                // tc ends, so `pb` begins at landing row j + 1.
                let tc = drows[off + j] - s1;
                debug_assert_eq!(t0 + j, tc, "landing row j must be the target column's row");
                let cb = col_base(tc, r);
                let (pa, pb) = panel.split_at_mut(cb + r);
                let col0 = &mut pa[cb + t0 + j..cb + t0 + r2];
                let col1 = &mut pb[..r2 - j - 1];
                let mut k = 0;
                while k + 4 <= dw {
                    let c0 = panel_col(dpanel, k, rd, off);
                    let c1 = panel_col(dpanel, k + 1, rd, off);
                    let c2 = panel_col(dpanel, k + 2, rd, off);
                    let c3 = panel_col(dpanel, k + 3, rd, off);
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
                    let c0 = panel_col(dpanel, k, rd, off);
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
                let cb = col_base(drows[off + j] - s1, r);
                let col = &mut panel[cb + t0 + j..cb + t0 + r2];
                let mut k = 0;
                while k + 4 <= dw {
                    let c0 = panel_col(dpanel, k, rd, off + j);
                    let c1 = panel_col(dpanel, k + 1, rd, off + j);
                    let c2 = panel_col(dpanel, k + 2, rd, off + j);
                    let c3 = panel_col(dpanel, k + 3, rd, off + j);
                    let (b0, b1, b2, b3) = (c0[0], c1[0], c2[0], c3[0]);
                    for (i, x) in col.iter_mut().enumerate() {
                        *x -= c0[i] * b0 + c1[i] * b1 + c2[i] * b2 + c3[i] * b3;
                    }
                    k += 4;
                }
                while k < dw {
                    let c0 = panel_col(dpanel, k, rd, off + j);
                    let b0 = c0[0];
                    for (i, x) in col.iter_mut().enumerate() {
                        *x -= c0[i] * b0;
                    }
                    k += 1;
                }
            }
            continue;
        }

        // W[i, j] = sum_k Ld[off+i, k] * Ld[off+j, k] for the lower
        // trapezoid i >= j: a rank-dw outer-product accumulation, tiled
        // 2 (target columns) × 4 (descendant columns) so every loaded
        // panel element feeds two accumulators — on the tall dense panels
        // at the top of the tree this kernel is memory-bound, and the
        // pairing halves the stream traffic. The inner loops are plain
        // fused multiply-add streams the compiler autovectorizes. `W` is
        // computed one two-column strip at a time, `wa` and `wb` indexed
        // by landing row, and each strip is scatter-subtracted into the
        // panel before the next: every panel cell takes one subtraction
        // per update, so the strip order changes no value. Rows of d
        // absent from this panel's union pattern (possible only through
        // relaxed padding) carry exactly-zero contributions and are
        // skipped — a decision made purely from the partition, never
        // from the schedule.
        let landing = &drows[off..];
        let scatter = |panel: &mut [f64], j: usize, wcol: &[f64]| {
            let base = col_base(landing[j] - s1, r);
            for (&row, &x) in landing[j..].iter().zip(&wcol[j..]) {
                let t = relmap[row];
                if t != usize::MAX {
                    panel[base + t] -= x;
                }
            }
        };
        let (wa, wb) = wbuf[..2 * r2].split_at_mut(r2);
        let mut j = 0;
        while j + 2 <= r1 {
            let wcol0 = &mut wa[j..];
            let wcol1 = &mut wb[j + 1..];
            wcol0.fill(0.0);
            wcol1.fill(0.0);
            let mut k = 0;
            while k + 4 <= dw {
                let c0 = panel_col(dpanel, k, rd, off);
                let c1 = panel_col(dpanel, k + 1, rd, off);
                let c2 = panel_col(dpanel, k + 2, rd, off);
                let c3 = panel_col(dpanel, k + 3, rd, off);
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
                let c0 = panel_col(dpanel, k, rd, off);
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
            scatter(panel, j, wa);
            scatter(panel, j + 1, wb);
            j += 2;
        }
        if j < r1 {
            let wcol = &mut wa[j..];
            wcol.fill(0.0);
            let mut k = 0;
            while k + 4 <= dw {
                let c0 = panel_col(dpanel, k, rd, off + j);
                let c1 = panel_col(dpanel, k + 1, rd, off + j);
                let c2 = panel_col(dpanel, k + 2, rd, off + j);
                let c3 = panel_col(dpanel, k + 3, rd, off + j);
                let (b0, b1, b2, b3) = (c0[0], c1[0], c2[0], c3[0]);
                for (i, x) in wcol.iter_mut().enumerate() {
                    *x += c0[i] * b0 + c1[i] * b1 + c2[i] * b2 + c3[i] * b3;
                }
                k += 4;
            }
            while k < dw {
                let c0 = panel_col(dpanel, k, rd, off + j);
                let b0 = c0[0];
                for (i, x) in wcol.iter_mut().enumerate() {
                    *x += c0[i] * b0;
                }
                k += 1;
            }
            scatter(panel, j, wa);
        }
    }

    // Dense in-panel Cholesky: per column, subtract the rank-1
    // contributions of the completed panel columns (tiled in fours),
    // pivot, then scale the below-diagonal rows. `col` and each `p*`
    // hold rows jc.. of their columns.
    let mut failed = None;
    for jc in 0..w {
        if s1 + jc >= limit {
            break;
        }
        let cb = col_base(jc, r);
        let (before, current) = panel.split_at_mut(cb + jc);
        let col = &mut current[..r - jc];
        let mut kc = 0;
        while kc + 4 <= jc {
            let p0 = panel_col(before, kc, r, jc);
            let p1 = panel_col(before, kc + 1, r, jc);
            let p2 = panel_col(before, kc + 2, r, jc);
            let p3 = panel_col(before, kc + 3, r, jc);
            let (l0, l1, l2, l3) = (p0[0], p1[0], p2[0], p3[0]);
            for i in 0..col.len() {
                col[i] -= p0[i] * l0 + p1[i] * l1 + p2[i] * l2 + p3[i] * l3;
            }
            kc += 4;
        }
        while kc < jc {
            let p0 = panel_col(before, kc, r, jc);
            let l0 = p0[0];
            for i in 0..col.len() {
                col[i] -= p0[i] * l0;
            }
            kc += 1;
        }
        let pivot = col[0];
        if pivot <= 0.0 || !pivot.is_finite() {
            failed = Some(s1 + jc);
            break;
        }
        let sq = pivot.sqrt();
        col[0] = sq;
        for x in col[1..].iter_mut() {
            *x /= sq;
        }
    }

    for &row in rows {
        relmap[row] = usize::MAX;
    }
    failed
}

/// Splits the packed value array into the supernodes' panels, end to
/// end in supernode order.
fn split_panels<'a>(part: &SupernodePartition, mut values: &'a mut [f64]) -> Vec<&'a mut [f64]> {
    let mut panels = Vec::with_capacity(part.num_supernodes());
    for s in 0..part.num_supernodes() {
        let (panel, rest) = std::mem::take(&mut values).split_at_mut(part.panel_len(s));
        panels.push(panel);
        values = rest;
    }
    panels
}

/// Writes the lower triangle of `A` into the zeroed panels: entry
/// `(j, k)` of the upper triangle `c` (`j <= k`) is `L`'s row `k` of
/// column `j`. Every stored entry of `A` is in `L`'s pattern, so the
/// search in the column's union rows always hits. Each panel then holds
/// what the left-looking sweep expects before its first update.
fn scatter_matrix(c: &CscMatrix, part: &SupernodePartition, panels: &mut [&mut [f64]]) {
    for k in 0..c.ncols() {
        let (ri, rv) = c.col(k);
        for (&j, &v) in ri.iter().zip(rv.iter()) {
            let s = part.sup_of[j];
            let rows = part.rows(s);
            let i = rows.binary_search(&k).expect("A's pattern must be inside L's");
            panels[s][col_base(j - part.first_col[s], rows.len()) + i] = v;
        }
    }
}

/// Turns the packed panels into the CSC values of `L`, in place: one
/// ascending pass moves every factor entry from its panel cell to its
/// slot along the exact symbolic pattern, then the array is cut to
/// nnz(L). Padded cells are exactly `±0.0` throughout the factorization
/// (every product feeding one has an exactly-zero factor), so dropping
/// them loses nothing.
///
/// No entry moves up. A panel starts at or after its first column's CSC
/// offset (only earlier padding separates them), a packed column is at
/// least as long as the column's pattern, and the pattern is a subset of
/// the column's panel rows in the same order. So every source cell is at
/// or above its destination, and the ascending pass never reads a cell
/// it has already overwritten.
fn compact_panels(
    part: &SupernodePartition,
    lcolptr: &[usize],
    lrowidx: &[usize],
    values: &mut Vec<f64>,
) {
    let mut panel_start = 0;
    for s in 0..part.num_supernodes() {
        let rows = part.rows(s);
        let r = rows.len();
        for (jc, j) in part.cols(s).enumerate() {
            let src = panel_start + col_base(jc, r);
            let mut i = jc;
            for p in lcolptr[j]..lcolptr[j + 1] {
                while rows[i] < lrowidx[p] {
                    i += 1;
                }
                debug_assert!(src + i >= p, "compaction must never read an overwritten cell");
                values[p] = values[src + i];
            }
        }
        panel_start += part.panel_len(s);
    }
    values.truncate(lrowidx.len());
    values.shrink_to_fit();
}

/// Supernodal numeric factorization of the upper triangle `c` of the
/// permuted matrix, with precomputed symbolic structure, on up to
/// `threads` workers. Subtree jobs from
/// [`SymbolicCholesky::parallel_schedule`] run whole supernodes
/// concurrently and the tail finishes the top of the tree; without a
/// schedule the tail is every supernode, one ascending sweep. The factor
/// is bit-identical at every thread count.
///
/// The panels are factored straight into the array that becomes the
/// factor's CSC values (nnz(L) plus the padded cells), which
/// [`compact_panels`] then compacts in place.
pub(crate) fn numeric_supernodal(
    c: &CscMatrix,
    symbolic: &SymbolicCholesky,
    threads: usize,
) -> Result<CscMatrix, SparseError> {
    let n = c.ncols();
    let schedule = symbolic.parallel_schedule(threads);
    let jobs = schedule.as_ref().map_or(&[][..], etree::EtreeSchedule::jobs);
    // The row structure is part of the numeric phase, as the scalar
    // kernel's per-row `ereach` is.
    let mut span = tracered_obs::span!("chol.numeric", { n: n, nnz: symbolic.factor_nnz() });
    let lrowidx = symbolic.factor_structure(c);
    let part = SupernodePartition::from_structure(symbolic, &lrowidx);
    let updates = build_updates(&part);
    if let Some(g) = span.as_mut() {
        g.arg("supernodes", part.num_supernodes() as f64);
        g.arg("jobs", jobs.len() as f64);
    }
    let mut values = vec![0.0f64; symbolic.factor_nnz() + part.padded_cells()];
    let mut panels = split_panels(&part, &mut values);
    scatter_matrix(c, &part, &mut panels);
    supernodal_sweep(jobs, &part, &updates, &mut panels, threads)?;
    compact_panels(&part, symbolic.lcolptr(), &lrowidx, &mut values);
    CscMatrix::from_raw_parts(n, n, symbolic.lcolptr().to_vec(), lrowidx, values)
}

/// The left-looking sweep over every supernode, on the subtree `jobs` of
/// an elimination-tree schedule (none for one ascending sweep).
///
/// A supernode is assigned to a subtree job iff **all** its columns
/// belong to that job; chain supernodes can straddle only a job/tail
/// boundary (jobs are descendant-closed), and every descendant supernode
/// updating a job-owned supernode lives in the same job (each union row
/// is real in some descendant column, and that column's etree path runs
/// through the descendant's top column), so the job phase is
/// self-contained. Straddlers and top-of-tree supernodes run in the
/// tail, ascending, which sees every completed panel. Failure semantics
/// mirror the scalar kernel: jobs record their first failing pivot, the
/// tail runs only columns below the minimum, and the smallest failing
/// column — exactly the one-sweep order's — is reported.
fn supernodal_sweep(
    jobs: &[Vec<usize>],
    part: &SupernodePartition,
    updates: &[Vec<(usize, usize)>],
    panels: &mut [&mut [f64]],
    threads: usize,
) -> Result<(), SparseError> {
    let n = part.n();
    let nsup = part.num_supernodes();
    // job_of[s]: the job owning every column of supernode s, or
    // usize::MAX for the tail. Left empty, every supernode in the tail,
    // when there are no jobs.
    let mut job_of: Vec<usize> = Vec::new();
    if !jobs.is_empty() {
        let mut owner = vec![usize::MAX; n];
        for (ji, job) in jobs.iter().enumerate() {
            for &j in job {
                owner[j] = ji;
            }
        }
        job_of = (0..nsup)
            .map(|s| {
                let o = owner[part.first_col[s]];
                if part.cols(s).all(|j| owner[j] == o) {
                    o
                } else {
                    usize::MAX
                }
            })
            .collect();
    }
    let in_tail = |s: usize| job_of.get(s).is_none_or(|&o| o == usize::MAX);

    let mut tail_cols = 0usize;
    let mut job_items: Vec<Vec<(usize, &mut [f64])>> =
        (0..jobs.len()).map(|_| Vec::new()).collect();
    for (s, p) in panels.iter_mut().enumerate() {
        if in_tail(s) {
            tail_cols += part.width(s);
        } else {
            job_items[job_of[s]].push((s, &mut **p));
        }
    }

    // --- Phase 1: subtree jobs factor their whole supernodes. ---
    // One unit of work: a job's (supernode, panel) list plus the slot
    // its first failing pivot (if any) is reported through.
    type JobWork<'a> = (Vec<(usize, &'a mut [f64])>, &'a mut Option<usize>);
    let mut job_fail: Vec<Option<usize>> = vec![None; jobs.len()];
    let work: Vec<JobWork<'_>> = job_items.into_iter().zip(job_fail.iter_mut()).collect();
    let wbuf_len = 2 * part.max_rows();
    tracered_par::par_jobs(work, threads, |(mut items, fail)| {
        let cols: usize = items.iter().map(|&(s, _)| part.width(s)).sum();
        let _job = tracered_obs::span!("chol.numeric.job", { cols: cols });
        let mut relmap = vec![usize::MAX; n];
        let mut wbuf = vec![0.0f64; wbuf_len];
        for i in 0..items.len() {
            let (done, rest) = items.split_at_mut(i);
            let s = rest[0].0;
            if let Some(column) = factor_supernode_into(
                s,
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

    // --- Phase 2: the tail over the remaining supernodes, ascending.
    // Only columns below the earliest job failure run; a tail failure is
    // necessarily smaller and preempts it.
    let _tail = tracered_obs::span!("chol.numeric.tail", { rows: tail_cols });
    let mut relmap = vec![usize::MAX; n];
    let mut wbuf = vec![0.0f64; wbuf_len];
    for s in (0..nsup).filter(|&s| in_tail(s)) {
        let stop = first_failure.unwrap_or(usize::MAX);
        if part.first_col[s] >= stop {
            break;
        }
        let (done, rest) = panels.split_at_mut(s);
        if let Some(column) = factor_supernode_into(
            s,
            part,
            &updates[s],
            &*done,
            rest[0],
            &mut relmap,
            &mut wbuf,
            stop,
        ) {
            debug_assert!(column < stop);
            first_failure = Some(column);
        }
    }
    match first_failure {
        Some(column) => Err(SparseError::NotPositiveDefinite { column }),
        None => Ok(()),
    }
}
