//! Fill-reducing orderings for sparse Cholesky factorization.
//!
//! Two orderings are implemented from scratch:
//!
//! - **Approximate minimum degree** ([`Ordering::MinDegree`]): the
//!   quotient-graph AMD of Amestoy, Davis & Duff after the `cs_amd` design,
//!   the ordering CHOLMOD uses by default. Best fill on the sparsifier
//!   Laplacians and power-grid conductance matrices this workspace
//!   factorizes.
//! - **Nested dissection** ([`nested_dissection`]): recursive level-set
//!   bisection, ahead of AMD on 3-D meshes.
//!
//! Every ordering reads only the pattern of the upper triangle (diagonal
//! included or not) and orders the symmetric pattern it mirrors, as
//! [`CholeskyFactor::factorize`](crate::CholeskyFactor::factorize) reads
//! only the upper triangle's values.

mod amd;

use crate::chol::SymbolicCholesky;
use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::perm::Permutation;

/// Choice of fill-reducing ordering used before factorization.
///
/// Deliberately **not** `#[non_exhaustive]`: downstream config
/// fingerprints match on this exhaustively so that adding an ordering is
/// a compile error at every tag site instead of a silent cache collision.
/// The discriminants are those fingerprint tags, and the `ordering`
/// argument of the `chol.order` span. Tag 1 belonged to a deleted
/// ordering and stays unused, so existing configs keep their
/// fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// Keep the natural (input) order.
    Natural = 0,
    /// Approximate minimum degree (default): quotient-graph AMD with
    /// element and aggressive absorption, approximate external degrees,
    /// mass elimination, indistinguishable-node merging and dense-row
    /// deferral. Best fill on sparsifier Laplacians and power grids.
    #[default]
    MinDegree = 2,
    /// Level-set nested dissection — asymptotically optimal fill on 2-D/3-D
    /// meshes, where minimum degree can fall behind (3-D meshes such as the
    /// paper's Table 3 matrix).
    NestedDissection = 3,
}

impl Ordering {
    /// Computes the permutation for a square symmetric matrix `a`. Only
    /// the pattern of the upper triangle is read, so `a` may be the full
    /// matrix or its upper triangle with the same result.
    ///
    /// Every fill-reducing ordering is refined by
    /// [`etree_postorder_refine`] before being returned — the composition
    /// CHOLMOD applies after AMD. [`Ordering::Natural`] is exempt: its
    /// contract is "keep the input order" verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular inputs.
    pub fn compute(self, a: &CscMatrix) -> Result<Permutation, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let _span = tracered_obs::span!("chol.order", {
            n: a.ncols(),
            nnz: a.nnz(),
            ordering: self as u8
        });
        let base = match self {
            Ordering::Natural => return Ok(Permutation::identity(a.ncols())),
            Ordering::MinDegree => Permutation::from_vec(amd::amd(&Adjacency::of_upper(a)).0)
                .expect("AMD orders every vertex exactly once"),
            Ordering::NestedDissection => nested_dissection(a),
        };
        etree_postorder_refine(a, base)
    }
}

/// Refines a fill-reducing permutation by composing the depth-first
/// postorder of the permuted matrix's elimination tree into it — the
/// AMD-then-postorder composition CHOLMOD performs during analysis.
///
/// Relabeling the columns along any topological order of the elimination
/// tree leaves the factor's fill and flop counts exactly unchanged (Liu's
/// equivalent-reordering result); what it buys is *contiguity*: after the
/// postorder, every single-child chain of the etree occupies consecutive
/// column numbers. That contiguity is what the supernodal kernel's
/// fundamental-supernode detection (`parent[j-1] == j` with nested
/// patterns) keys on. Without it, chain columns can lie scattered (nested
/// dissection sorts its leaves by degree, and AMD's assembly tree is not
/// the elimination tree) and the partition degenerates to width-1 panels.
///
/// Returns the input permutation unchanged when the etree is already in
/// postorder (always the case for a second application, so the refinement
/// is idempotent).
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular inputs.
pub fn etree_postorder_refine(
    a: &CscMatrix,
    perm: Permutation,
) -> Result<Permutation, SparseError> {
    let upper = a.symmetric_perm_upper(&perm)?;
    let parent = crate::etree::elimination_tree(&upper);
    let post = crate::etree::postorder(&parent);
    if post.iter().enumerate().all(|(k, &v)| k == v) {
        return Ok(perm);
    }
    let post_perm = Permutation::from_vec(post).expect("postorder is a bijection");
    // Final position k takes permuted column post[k], i.e. original column
    // perm.new_to_old(post[k]).
    Ok(post_perm.compose(&perm))
}

/// The off-diagonal pattern of `triu(A) + triu(A)ᵀ`, the symmetric
/// pattern both fill-reducing orderings work on: the neighbours of `v` are
/// `idx[ptr[v]..ptr[v + 1]]`, sorted ascending.
struct Adjacency {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl Adjacency {
    /// Mirrors the strict upper triangle of the square matrix `a`; its
    /// lower triangle and diagonal are not read.
    fn of_upper(a: &CscMatrix) -> Self {
        let n = a.ncols();
        let strict_upper = |c: usize| a.col(c).0.iter().copied().take_while(move |&r| r < c);
        let mut ptr = vec![0usize; n + 1];
        for c in 0..n {
            for r in strict_upper(c) {
                ptr[r + 1] += 1;
                ptr[c + 1] += 1;
            }
        }
        for v in 0..n {
            ptr[v + 1] += ptr[v];
        }
        // Column c receives its rows r < c at step c and every larger
        // neighbour at a later step, in increasing order: lists come out
        // sorted.
        let mut next = ptr[..n].to_vec();
        let mut idx = vec![0usize; ptr[n]];
        for c in 0..n {
            for r in strict_upper(c) {
                idx[next[c]] = r;
                next[c] += 1;
                idx[next[r]] = c;
                next[r] += 1;
            }
        }
        Adjacency { ptr, idx }
    }

    fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    fn neighbors(&self, v: usize) -> &[usize] {
        &self.idx[self.ptr[v]..self.ptr[v + 1]]
    }
}

/// Picks the candidate ordering with the smallest *symbolic* factor fill
/// (nonzeros of `L`), the cheap analysis CHOLMOD performs when choosing
/// between AMD and nested dissection. Returns the winning ordering, its
/// permutation and the predicted `nnz(L)`.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular inputs.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn select_ordering(
    a: &CscMatrix,
    candidates: &[Ordering],
) -> Result<(Ordering, Permutation, usize), SparseError> {
    assert!(!candidates.is_empty(), "at least one candidate ordering is required");
    let mut span =
        tracered_obs::span!("chol.select", { n: a.ncols(), candidates: candidates.len() });
    let mut best: Option<(Ordering, Permutation, usize)> = None;
    for &ord in candidates {
        let perm = ord.compute(a)?;
        let fill = SymbolicCholesky::analyze(&a.symmetric_perm_upper(&perm)?)?.factor_nnz();
        if best.as_ref().map(|b| fill < b.2).unwrap_or(true) {
            best = Some((ord, perm, fill));
        }
    }
    let best = best.expect("candidates is non-empty");
    if let Some(s) = span.as_mut() {
        s.arg("kept", best.0 as u8 as f64);
        s.arg("fill", best.2 as f64);
    }
    Ok(best)
}

/// Level-set nested dissection.
///
/// Recursively bisects each connected piece through a BFS level-set
/// separator: run BFS from the piece's first vertex, pick the level that
/// splits the piece into halves, order both halves recursively and number
/// the separator *last*. Leaves (≤ 48 vertices) are ordered by degree.
/// `O(n log n)` time on bounded-degree graphs. Reads only the pattern of
/// the upper triangle of the square matrix `a`.
pub fn nested_dissection(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let adj = Adjacency::of_upper(a);
    let degree = |v: usize| adj.neighbors(v).len();
    let mut order = Vec::with_capacity(n);
    let mut level = vec![usize::MAX; n];
    let mut stamp = vec![0u64; n];
    let mut round = 0u64;
    // Work stack: subsets still to dissect, plus separators to emit after
    // both of their halves have been ordered.
    enum Item {
        Dissect(Vec<usize>),
        Emit(Vec<usize>),
    }
    let mut stack: Vec<Item> = vec![Item::Dissect((0..n).collect())];
    while let Some(item) = stack.pop() {
        let nodes = match item {
            Item::Emit(sep) => {
                order.extend(sep);
                continue;
            }
            Item::Dissect(nodes) => nodes,
        };
        if nodes.is_empty() {
            continue;
        }
        if nodes.len() <= 48 {
            let mut leaf = nodes;
            leaf.sort_unstable_by_key(|&v| (degree(v), v));
            order.extend(leaf);
            continue;
        }
        // BFS within the subset from the first node; splits off one
        // connected component at a time.
        round += 1;
        for &v in &nodes {
            stamp[v] = round;
        }
        let start = nodes[0];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        level[start] = 0;
        let mut component = vec![start];
        let mut max_level = 0usize;
        // Mark visited by bumping stamp to round + <big offset>? Use a
        // second marker value: level != MAX within this round. Reset below.
        while let Some(v) = queue.pop_front() {
            for &u in adj.neighbors(v) {
                if stamp[u] == round && level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    max_level = max_level.max(level[u]);
                    component.push(u);
                    queue.push_back(u);
                }
            }
        }
        if component.len() < nodes.len() {
            // Disconnected subset: handle this component, requeue the rest.
            let rest: Vec<usize> =
                nodes.iter().copied().filter(|&v| level[v] == usize::MAX).collect();
            stack.push(Item::Dissect(rest));
        }
        if max_level < 2 {
            // Too shallow to split usefully; emit by degree.
            let mut leaf = component.clone();
            leaf.sort_unstable_by_key(|&v| (degree(v), v));
            order.extend(leaf);
            for v in component {
                level[v] = usize::MAX;
            }
            continue;
        }
        // Choose the separator level whose below-count is closest to half.
        let mut counts = vec![0usize; max_level + 1];
        for &v in &component {
            counts[level[v]] += 1;
        }
        let half = component.len() as i64 / 2;
        let mut below = 0i64;
        let mut best = (i64::MAX, 1usize);
        for l in 1..max_level {
            below += counts[l - 1] as i64;
            let imbalance = (below - half).abs();
            if imbalance < best.0 {
                best = (imbalance, l);
            }
        }
        let sep_level = best.1;
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut sep = Vec::new();
        for &v in &component {
            match level[v].cmp(&sep_level) {
                std::cmp::Ordering::Less => left.push(v),
                std::cmp::Ordering::Equal => sep.push(v),
                std::cmp::Ordering::Greater => right.push(v),
            }
            // Reset for future rounds.
        }
        for &v in &component {
            level[v] = usize::MAX;
        }
        if left.is_empty() || right.is_empty() {
            let mut leaf = component;
            leaf.sort_unstable_by_key(|&v| (degree(v), v));
            order.extend(leaf);
            continue;
        }
        // Separator is numbered last: push Emit first (LIFO).
        stack.push(Item::Emit(sep));
        stack.push(Item::Dissect(right));
        stack.push(Item::Dissect(left));
    }
    Permutation::from_vec(order).expect("nested dissection orders every vertex exactly once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn path_laplacian(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        coo.to_csc()
    }

    fn star(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, n as f64).unwrap();
        for i in 1..n {
            coo.push(i, i, 4.0).unwrap();
            coo.push_symmetric(0, i, -1.0).unwrap();
        }
        coo.to_csc()
    }

    fn grid2d(k: usize) -> CscMatrix {
        let n = k * k;
        let mut coo = CooMatrix::new(n, n);
        let id = |r: usize, c: usize| r * k + c;
        for r in 0..k {
            for c in 0..k {
                coo.push(id(r, c), id(r, c), 4.0).unwrap();
                if c + 1 < k {
                    coo.push_symmetric(id(r, c), id(r, c + 1), -1.0).unwrap();
                }
                if r + 1 < k {
                    coo.push_symmetric(id(r, c), id(r + 1, c), -1.0).unwrap();
                }
            }
        }
        coo.to_csc()
    }

    /// The shifted Laplacian of a `k³` grid: 7-point stencil.
    fn grid3d(k: usize) -> CscMatrix {
        let n = k * k * k;
        let mut coo = CooMatrix::new(n, n);
        let id = |x: usize, y: usize, z: usize| (x * k + y) * k + z;
        for x in 0..k {
            for y in 0..k {
                for z in 0..k {
                    let v = id(x, y, z);
                    coo.push(v, v, 6.5).unwrap();
                    for (dx, dy, dz) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
                        let (x2, y2, z2) = (x + dx, y + dy, z + dz);
                        if x2 < k && y2 < k && z2 < k {
                            coo.push_symmetric(v, id(x2, y2, z2), -1.0).unwrap();
                        }
                    }
                }
            }
        }
        coo.to_csc()
    }

    /// Deterministic xorshift stream for the random-tree tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random recursive tree on `n` nodes with shuffled labels, as a
    /// shifted Laplacian.
    fn random_tree(n: usize, seed: u64) -> CscMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, xorshift(&mut state) as usize % (i + 1));
        }
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 0.1).unwrap();
        }
        for i in 1..n {
            let (u, v) = (label[i], label[xorshift(&mut state) as usize % i]);
            coo.push_symmetric(u, v, -0.5).unwrap();
            coo.push(u, u, 0.5).unwrap();
            coo.push(v, v, 0.5).unwrap();
        }
        coo.to_csc()
    }

    fn fill_of(a: &CscMatrix, perm: &Permutation) -> usize {
        let upper = a.symmetric_perm_upper(perm).unwrap();
        let parent = crate::etree::elimination_tree(&upper);
        crate::etree::column_counts(&upper, &parent).iter().sum()
    }

    fn amd_order(a: &CscMatrix) -> Permutation {
        Permutation::from_vec(amd::amd(&Adjacency::of_upper(a)).0).unwrap()
    }

    #[test]
    fn orderings_are_permutations() {
        for a in [path_laplacian(10), star(10), grid2d(5)] {
            for ord in [Ordering::Natural, Ordering::MinDegree, Ordering::NestedDissection] {
                let p = ord.compute(&a).unwrap();
                assert_eq!(p.len(), a.ncols());
            }
        }
    }

    #[test]
    fn adjacency_mirrors_the_strict_upper_triangle_sorted() {
        let a = grid2d(4);
        for src in [a.clone(), a.upper_triangle()] {
            let adj = Adjacency::of_upper(&src);
            for v in 0..a.ncols() {
                let expected: Vec<usize> = a.col(v).0.iter().copied().filter(|&r| r != v).collect();
                assert_eq!(adj.neighbors(v), &expected[..], "neighbours of {v}");
            }
        }
    }

    #[test]
    fn orderings_read_only_the_upper_triangle() {
        for a in [grid2d(9), star(30), random_tree(200, 7)] {
            let upper = a.upper_triangle();
            for ord in [Ordering::Natural, Ordering::MinDegree, Ordering::NestedDissection] {
                assert_eq!(ord.compute(&a).unwrap(), ord.compute(&upper).unwrap(), "{ord:?}");
            }
            let full = crate::CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
            let half = crate::CholeskyFactor::factorize(&upper, Ordering::MinDegree).unwrap();
            assert_eq!(full.l().colptr(), half.l().colptr());
            assert_eq!(full.l().rowidx(), half.l().rowidx());
            assert!(full.l().values().iter().zip(half.l().values()).all(|(x, y)| x == y));
        }
    }

    #[test]
    fn amd_orders_star_hubs_last() {
        // Natural order on a star with the hub first gives dense fill; AMD
        // must eliminate the leaves first, for zero fill.
        for n in [20, 400] {
            let a = star(n);
            let p = Ordering::MinDegree.compute(&a).unwrap();
            assert_eq!(fill_of(&a, &p), 2 * n - 1, "star of {n} has zero fill-in under AMD");
            if n == 20 {
                // Degree 19 is below the dense threshold: the hub is mass
                // eliminated with the last leaf.
                assert!(p.new_to_old(n - 1) == 0 || p.new_to_old(n - 2) == 0);
            } else {
                // Degree 399 is above max(16, 10√400): a dense row, last.
                assert_eq!(p.new_to_old(n - 1), 0, "dense hub must be ordered last");
            }
        }
    }

    #[test]
    fn amd_path_zero_fill() {
        let a = path_laplacian(16);
        let p = Ordering::MinDegree.compute(&a).unwrap();
        assert_eq!(fill_of(&a, &p), 2 * 16 - 1, "paths factor with zero fill under AMD");
    }

    #[test]
    fn amd_random_trees_zero_fill() {
        for seed in 0..60u64 {
            let n = 2 + (seed as usize * 37) % 1500;
            let a = random_tree(n, seed);
            let p = Ordering::MinDegree.compute(&a).unwrap();
            assert_eq!(fill_of(&a, &p), 2 * n - 1, "tree {seed} on {n} nodes filled in");
        }
    }

    #[test]
    fn amd_is_a_permutation_on_degenerate_inputs() {
        let diagonal = |n: usize| CscMatrix::identity(n);
        // Two paths, a triangle and two isolated nodes.
        let mut coo = CooMatrix::new(12, 12);
        for i in 0..12 {
            coo.push(i, i, 3.0).unwrap();
        }
        for (u, v) in [(0, 1), (1, 2), (4, 5), (5, 6), (6, 7), (8, 9), (9, 10), (8, 10)] {
            coo.push_symmetric(u, v, -1.0).unwrap();
        }
        let pieces = coo.to_csc();
        let mut cases = vec![CscMatrix::zeros(0, 0), diagonal(1), diagonal(7), pieces];
        cases.extend((2..=3).map(path_laplacian));
        for a in cases {
            let n = a.ncols();
            let p = Ordering::MinDegree.compute(&a).unwrap();
            let mut seen: Vec<usize> = (0..n).map(|k| p.new_to_old(k)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n = {n}");
            assert_eq!(fill_of(&a, &p), a.upper_triangle().nnz(), "no fill on forests");
        }
    }

    #[test]
    fn amd_compacts_its_workspace_on_a_3d_grid() {
        let a = grid3d(6);
        let (order, compactions) = amd::amd(&Adjacency::of_upper(&a));
        assert!(compactions >= 1, "a 6³ grid must exhaust the elbow room");
        let p = Permutation::from_vec(order).unwrap();
        let natural = fill_of(&a, &Permutation::identity(a.ncols()));
        let amd = fill_of(&a, &p);
        assert!(amd < natural, "AMD fill {amd} must beat natural {natural}");
    }

    #[test]
    fn amd_beats_natural_on_grid() {
        let a = grid2d(8);
        let natural = fill_of(&a, &Permutation::identity(64));
        let md = fill_of(&a, &Ordering::MinDegree.compute(&a).unwrap());
        assert!(md <= natural, "AMD fill {md} must not exceed natural {natural}");
    }

    #[test]
    fn nested_dissection_is_a_permutation() {
        for a in [path_laplacian(200), star(50), grid2d(13)] {
            let p = nested_dissection(&a);
            assert_eq!(p.len(), a.ncols());
        }
    }

    #[test]
    fn nested_dissection_beats_natural_on_grids() {
        let a = grid2d(20);
        let natural = fill_of(&a, &Permutation::identity(400));
        let nd = fill_of(&a, &nested_dissection(&a));
        assert!(nd < natural, "ND fill {nd} must beat natural {natural}");
    }

    #[test]
    fn nested_dissection_competitive_with_min_degree_on_grids() {
        let a = grid2d(24);
        let md = fill_of(&a, &amd_order(&a));
        let nd = fill_of(&a, &nested_dissection(&a));
        // On regular 2-D grids the two should be within a small factor.
        assert!(nd <= 2 * md, "ND fill {nd} vs AMD {md}");
    }

    #[test]
    fn nested_dissection_handles_disconnected_graphs() {
        let mut coo = CooMatrix::new(120, 120);
        for i in 0..120 {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..59 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        for i in 60..119 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let p = nested_dissection(&a);
        assert_eq!(p.len(), 120);
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint paths.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        coo.push_symmetric(3, 4, -1.0).unwrap();
        coo.push_symmetric(4, 5, -1.0).unwrap();
        let a = coo.to_csc();
        for ord in [Ordering::MinDegree, Ordering::NestedDissection] {
            let p = ord.compute(&a).unwrap();
            assert_eq!(p.len(), 6);
        }
    }

    #[test]
    fn rejects_rectangular() {
        let a = CscMatrix::zeros(2, 3);
        assert!(matches!(Ordering::MinDegree.compute(&a), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn compute_postorders_the_elimination_tree() {
        use crate::etree;
        for a in [grid2d(12), grid3d(6)] {
            for ord in [Ordering::MinDegree, Ordering::NestedDissection] {
                let p = ord.compute(&a).unwrap();
                let upper = a.symmetric_perm_upper(&p).unwrap();
                let parent = etree::elimination_tree(&upper);
                let post = etree::postorder(&parent);
                assert!(
                    post.iter().enumerate().all(|(k, &v)| k == v),
                    "{ord:?}: etree of the computed ordering must already be postordered"
                );
            }
        }
    }

    #[test]
    fn postorder_refinement_is_fill_neutral_and_idempotent() {
        let a = grid2d(12);
        let raw = amd_order(&a);
        let refined = etree_postorder_refine(&a, raw.clone()).unwrap();
        assert_eq!(fill_of(&a, &raw), fill_of(&a, &refined), "relabeling must not change fill");
        let twice = etree_postorder_refine(&a, refined.clone()).unwrap();
        assert_eq!(twice, refined, "second application must be the identity");
    }
}
