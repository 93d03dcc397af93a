//! Elimination trees and row-subtree traversal (the symbolic backbone of
//! sparse Cholesky), in the style of CSparse — plus the subtree schedule
//! ([`EtreeSchedule`]) that drives the parallel numeric factorization.

use crate::csc::CscMatrix;

/// Sentinel meaning "no parent" (tree root).
pub const NO_PARENT: usize = usize::MAX;

/// Computes the elimination tree of a symmetric matrix given its **upper
/// triangle** in CSC form.
///
/// Returns the parent array: `parent[i]` is the parent of node `i`, or
/// [`NO_PARENT`] for roots. Uses Liu's algorithm with path compression.
///
/// # Panics
///
/// Panics if the matrix is rectangular.
pub fn elimination_tree(upper: &CscMatrix) -> Vec<usize> {
    assert_eq!(upper.nrows(), upper.ncols(), "matrix must be square");
    let n = upper.ncols();
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    for k in 0..n {
        let (rows, _) = upper.col(k);
        for &entry_row in rows {
            let mut i = entry_row;
            // Traverse from i up to the root of its current subtree, path
            // compressing the ancestor pointers to k.
            while i != NO_PARENT && i < k {
                let inext = ancestor[i];
                ancestor[i] = k;
                if inext == NO_PARENT {
                    parent[i] = k;
                }
                i = inext;
            }
        }
    }
    parent
}

/// Depth-first postordering of a forest given by a parent array.
///
/// Returns a permutation vector `post` such that `post[k]` is the node
/// visited `k`-th in postorder. Children of each node are visited in
/// increasing node order.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Build child lists (head/next linked lists, children pushed in reverse
    // so they pop in increasing order).
    let mut head = vec![NO_PARENT; n];
    let mut next = vec![NO_PARENT; n];
    for i in (0..n).rev() {
        let p = parent[i];
        if p != NO_PARENT {
            next[i] = head[p];
            head[p] = i;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in 0..n {
        if parent[root] != NO_PARENT {
            continue;
        }
        stack.push(root);
        while let Some(&node) = stack.last() {
            let child = head[node];
            if child == NO_PARENT {
                // All children done; emit node.
                stack.pop();
                post.push(node);
            } else {
                head[node] = next[child];
                stack.push(child);
            }
        }
    }
    post
}

/// Computes the pattern of row `k` of the Cholesky factor `L` (the "ereach"
/// of node `k`): the set of columns `j < k` with `L(k, j) ≠ 0`.
///
/// `upper` is the upper triangle of the (permuted) matrix, `parent` its
/// elimination tree. The pattern is written into `stack[top..n]` in
/// topological order (suitable for the up-looking numeric step) and `top`
/// is returned. `wmark` is a scratch array of length `n` whose entries must
/// never equal `k`'s marker before the call; marking uses the value `k`
/// itself, so a fresh array of `usize::MAX` works for all `k`.
pub fn ereach(
    upper: &CscMatrix,
    k: usize,
    parent: &[usize],
    stack: &mut [usize],
    wmark: &mut [usize],
) -> usize {
    let n = upper.ncols();
    let mut top = n;
    wmark[k] = k; // mark k itself
    let (rows, _) = upper.col(k);
    for &row in rows {
        if row > k {
            continue; // use upper triangle only
        }
        let mut i = row;
        let mut len = 0;
        // Walk up the etree until hitting a marked node.
        while wmark[i] != k {
            stack[len] = i;
            len += 1;
            wmark[i] = k;
            i = parent[i];
            debug_assert!(i != NO_PARENT, "etree path from a column entry must reach k");
        }
        // Push the path (deepest last) onto the output section.
        while len > 0 {
            len -= 1;
            top -= 1;
            stack[top] = stack[len];
        }
    }
    top
}

/// Number of nonzeros per column of `L` (including the diagonal), computed
/// by sweeping [`ereach`] over all rows. `O(nnz(L))` time.
pub fn column_counts(upper: &CscMatrix, parent: &[usize]) -> Vec<usize> {
    let n = upper.ncols();
    let mut counts = vec![1usize; n]; // the diagonal
    let mut stack = vec![0usize; n];
    let mut wmark = vec![usize::MAX; n];
    for k in 0..n {
        let top = ereach(upper, k, parent, &mut stack, &mut wmark);
        for &j in &stack[top..n] {
            counts[j] += 1;
        }
    }
    counts
}

/// A parallel factorization schedule over an elimination forest:
/// independent subtree jobs plus a serial tail of top-of-tree columns.
///
/// Built by splitting the forest's heaviest subtrees (by a caller-chosen
/// per-column cost model, e.g. the up-looking flop proxy
/// [`crate::chol::SymbolicCholesky::column_costs`]) until the frontier
/// holds enough comparably-sized pieces for `threads` workers. The split
/// nodes — the dense top levels of the tree, where columns are few and
/// long — become the `serial_tail`; everything below is grouped into
/// `jobs`, each a union of complete subtrees balanced by total cost.
///
/// Invariants (property-tested in `tests/chol_parallel.rs`):
///
/// - `jobs` and `serial_tail` together cover every column exactly once;
/// - each job is closed under etree descendants: a job column's parent
///   is either in the same job or in the serial tail, never in another
///   job — so jobs touch disjoint factor columns and can run
///   concurrently;
/// - every serial-tail column's children outside the tail have all their
///   descendants in jobs, so the tail can run after the jobs finish, in
///   ascending column order, exactly like the serial kernel.
///
/// ```
/// use tracered_sparse::etree::{elimination_tree, EtreeSchedule};
/// use tracered_sparse::CooMatrix;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let n = 64;
/// let mut coo = CooMatrix::new(n, n);
/// for i in 0..n { coo.push(i, i, 2.0)?; }
/// for i in 0..n - 1 { coo.push(i, i + 1, -1.0)?; }
/// let parent = elimination_tree(&coo.to_csc());
/// let sched = EtreeSchedule::build(&parent, &vec![1; n], 4);
/// let covered: usize =
///     sched.jobs().iter().map(Vec::len).sum::<usize>() + sched.serial_tail().len();
/// assert_eq!(covered, n);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EtreeSchedule {
    jobs: Vec<Vec<usize>>,
    serial_tail: Vec<usize>,
    num_levels: usize,
}

impl EtreeSchedule {
    /// Builds a schedule for up to `threads` workers from a parent array
    /// and a per-column cost model (`cost[j]` ~ work attributable to
    /// column `j`; any nonnegative proxy works, zero columns are fine).
    ///
    /// `threads <= 1` produces the degenerate schedule (no jobs, every
    /// column in the serial tail). The numeric Cholesky kernels never
    /// build it: at one thread, below 128 columns, or when a schedule
    /// has a single job, they run with no schedule at all, every column
    /// in their ascending tail, which factors the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `cost.len() != parent.len()`.
    pub fn build(parent: &[usize], cost: &[u64], threads: usize) -> Self {
        let n = parent.len();
        assert_eq!(cost.len(), n, "cost model must cover every column");
        // Forest height: level 0 holds the leaves and every node sits one
        // level above its deepest child. Parents always have larger
        // indices than their children, so one ascending pass sees every
        // child before its parent.
        let mut level = vec![0usize; n];
        for j in 0..n {
            let p = parent[j];
            if p != NO_PARENT {
                level[p] = level[p].max(level[j] + 1);
            }
        }
        let num_levels = level.iter().max().map_or(0, |&h| h + 1);
        if threads <= 1 || n == 0 {
            return EtreeSchedule { jobs: Vec::new(), serial_tail: (0..n).collect(), num_levels };
        }

        // Subtree costs: children precede parents in index order.
        let mut subtree_cost: Vec<u64> = cost.to_vec();
        for j in 0..n {
            let p = parent[j];
            if p != NO_PARENT {
                subtree_cost[p] = subtree_cost[p].saturating_add(subtree_cost[j]);
            }
        }
        // Child lists (same head/next layout as `postorder`).
        let mut head = vec![NO_PARENT; n];
        let mut next = vec![NO_PARENT; n];
        for i in (0..n).rev() {
            let p = parent[i];
            if p != NO_PARENT {
                next[i] = head[p];
                head[p] = i;
            }
        }

        // Split the heaviest frontier subtrees until the pieces are fine
        // enough: several tasks per worker, none dominating the total.
        let mut frontier: std::collections::BinaryHeap<(u64, usize)> =
            (0..n).filter(|&j| parent[j] == NO_PARENT).map(|r| (subtree_cost[r], r)).collect();
        let total: u64 = frontier.iter().map(|&(c, _)| c).sum();
        let grain = (total / (threads as u64 * 4)).max(1);
        let max_tasks = threads * 8;
        let mut is_serial = vec![false; n];
        let mut atomic: Vec<usize> = Vec::new(); // heavy but childless roots
        while atomic.len() + frontier.len() < max_tasks {
            match frontier.peek() {
                Some(&(c, _)) if c > grain => {}
                _ => break,
            }
            let (_, r) = frontier.pop().expect("peeked entry");
            if head[r] == NO_PARENT {
                // A single expensive column cannot be split further.
                atomic.push(r);
                continue;
            }
            is_serial[r] = true;
            let mut child = head[r];
            while child != NO_PARENT {
                frontier.push((subtree_cost[child], child));
                child = next[child];
            }
        }
        let mut roots: Vec<usize> = atomic;
        roots.extend(frontier.into_iter().map(|(_, r)| r));

        // Label every column with its owning frontier subtree. Parents
        // have larger indices, so a descending pass sees each node's
        // parent first and subtree membership flows downward.
        const SERIAL: usize = usize::MAX;
        let mut task_of = vec![SERIAL; n];
        let mut task_id = vec![SERIAL; n];
        for (t, &r) in roots.iter().enumerate() {
            task_id[r] = t;
        }
        for j in (0..n).rev() {
            if is_serial[j] {
                continue;
            }
            if task_id[j] != SERIAL {
                task_of[j] = task_id[j];
            } else {
                let p = parent[j];
                debug_assert!(p != NO_PARENT, "non-root below no frontier subtree");
                debug_assert!(!is_serial[p], "child of a split node must be a frontier root");
                task_of[j] = task_of[p];
            }
        }

        // Bin the subtree tasks into at most 2·threads jobs, heaviest
        // first onto the currently lightest bin (LPT), so one O(n)
        // scratch allocation per job amortizes over many subtrees.
        let num_tasks = roots.len();
        let mut task_cost = vec![0u64; num_tasks];
        for j in 0..n {
            if task_of[j] != SERIAL {
                task_cost[task_of[j]] = task_cost[task_of[j]].saturating_add(cost[j]);
            }
        }
        let num_jobs = num_tasks.min(threads * 2).max(1);
        let mut order: Vec<usize> = (0..num_tasks).collect();
        order.sort_by(|&a, &b| {
            task_cost[b].cmp(&task_cost[a]).then_with(|| roots[a].cmp(&roots[b]))
        });
        let mut bin_of_task = vec![0usize; num_tasks];
        let mut bin_load = vec![0u64; num_jobs];
        for &t in &order {
            let bin = (0..num_jobs).min_by_key(|&b| (bin_load[b], b)).expect("at least one bin");
            bin_of_task[t] = bin;
            bin_load[bin] = bin_load[bin].saturating_add(task_cost[t]);
        }

        let mut jobs = vec![Vec::new(); num_jobs];
        let mut serial_tail = Vec::new();
        for j in 0..n {
            if task_of[j] == SERIAL {
                serial_tail.push(j);
            } else {
                jobs[bin_of_task[task_of[j]]].push(j);
            }
        }
        jobs.retain(|cols| !cols.is_empty());
        EtreeSchedule { jobs, serial_tail, num_levels }
    }

    /// The concurrent jobs: disjoint unions of complete etree subtrees,
    /// each listed in ascending column order.
    pub fn jobs(&self) -> &[Vec<usize>] {
        &self.jobs
    }

    /// Top-of-tree columns factored serially after the jobs, ascending.
    pub fn serial_tail(&self) -> &[usize] {
        &self.serial_tail
    }

    /// Height of the elimination forest: the number of bottom-up levels
    /// (leaves at level 0, every node one above its deepest child).
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Columns covered by concurrent jobs (the rest are in the tail).
    pub fn parallel_columns(&self) -> usize {
        self.jobs.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// Arrow matrix: dense last row/column, diagonal otherwise.
    fn arrow(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_symmetric(i, n - 1, -1.0).unwrap();
        }
        coo.to_csc()
    }

    /// Tridiagonal matrix.
    fn tridiag(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = tridiag(6).upper_triangle();
        let parent = elimination_tree(&a);
        for i in 0..5 {
            assert_eq!(parent[i], i + 1);
        }
        assert_eq!(parent[5], NO_PARENT);
    }

    #[test]
    fn etree_of_arrow_points_to_last() {
        let a = arrow(5).upper_triangle();
        let parent = elimination_tree(&a);
        for i in 0..4 {
            assert_eq!(parent[i], 4, "node {i}");
        }
        assert_eq!(parent[4], NO_PARENT);
    }

    #[test]
    fn etree_of_diagonal_is_forest_of_roots() {
        let a = CscMatrix::identity(4);
        let parent = elimination_tree(&a.upper_triangle());
        assert!(parent.iter().all(|&p| p == NO_PARENT));
    }

    #[test]
    fn postorder_is_permutation_and_respects_children() {
        let a = tridiag(7).upper_triangle();
        let parent = elimination_tree(&a);
        let post = postorder(&parent);
        let mut seen = [false; 7];
        for &v in &post {
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Every node must appear after all of its children.
        let mut position = [0usize; 7];
        for (idx, &v) in post.iter().enumerate() {
            position[v] = idx;
        }
        for i in 0..7 {
            if parent[i] != NO_PARENT {
                assert!(position[i] < position[parent[i]]);
            }
        }
    }

    #[test]
    fn ereach_matches_factor_pattern_for_tridiagonal() {
        let a = tridiag(5).upper_triangle();
        let parent = elimination_tree(&a);
        let mut stack = vec![0usize; 5];
        let mut wmark = vec![usize::MAX; 5];
        // Row k of L for a tridiagonal matrix touches only column k-1.
        for k in 1..5 {
            let top = ereach(&a, k, &parent, &mut stack, &mut wmark);
            assert_eq!(&stack[top..5], &[k - 1], "row {k}");
        }
    }

    #[test]
    fn column_counts_of_arrow() {
        // L of the arrow matrix (dense last row) has 2 entries per column
        // (diagonal + last row), except the last column with 1.
        let a = arrow(6).upper_triangle();
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        for (i, &cnt) in counts.iter().enumerate().take(5) {
            assert_eq!(cnt, 2, "column {i}");
        }
        assert_eq!(counts[5], 1);
    }

    #[test]
    fn column_counts_total_equals_dense_fill_for_tridiag() {
        let a = tridiag(8).upper_triangle();
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        // Tridiagonal L: bidiagonal, 2 per column except last.
        assert_eq!(counts.iter().sum::<usize>(), 2 * 8 - 1);
    }

    #[test]
    fn schedule_partitions_columns_and_respects_subtrees() {
        let a = tridiag(100).upper_triangle();
        let parent = elimination_tree(&a);
        let cost = vec![1u64; 100];
        for threads in [1usize, 2, 4] {
            let s = EtreeSchedule::build(&parent, &cost, threads);
            let mut seen = vec![0usize; 100];
            for job in s.jobs() {
                assert!(job.windows(2).all(|w| w[0] < w[1]), "jobs must be ascending");
                for &j in job {
                    seen[j] += 1;
                }
            }
            assert!(s.serial_tail().windows(2).all(|w| w[0] < w[1]));
            for &j in s.serial_tail() {
                seen[j] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "every column exactly once");
            assert_eq!(s.num_levels(), 100);
        }
        // Serial schedule degenerates to the tail.
        let s = EtreeSchedule::build(&parent, &cost, 1);
        assert!(s.jobs().is_empty());
        assert_eq!(s.serial_tail().len(), 100);
        assert_eq!(s.parallel_columns(), 0);
        // An arrow's etree is a star: the leaves split across several
        // jobs, the apex lands in the serial tail.
        let parent = elimination_tree(&arrow(64).upper_triangle());
        let s = EtreeSchedule::build(&parent, &[1u64; 64], 4);
        assert!(s.jobs().len() > 1, "star subtrees must split across jobs");
        assert_eq!(s.serial_tail(), &[63]);
    }

    #[test]
    fn schedule_handles_forests_and_empty_input() {
        let parent = elimination_tree(&CscMatrix::identity(16).upper_triangle());
        let s = EtreeSchedule::build(&parent, &[1u64; 16], 4);
        let covered: usize = s.parallel_columns() + s.serial_tail().len();
        assert_eq!(covered, 16);
        let s = EtreeSchedule::build(&[], &[], 4);
        assert!(s.jobs().is_empty() && s.serial_tail().is_empty());
    }
}
