//! Tarjan's offline lowest-common-ancestor algorithm.
//!
//! The paper (§3.2) runs "Tarjan's offline LCA algorithm \[9\]" once over all
//! off-tree edges to obtain every tree effective resistance
//! `R_T(p, q) = r(p) + r(q) − 2·r(lca(p, q))` in near-linear time. This
//! module implements the classic union-find formulation **iteratively**
//! (explicit DFS stack), so million-node path-shaped trees cannot overflow
//! the call stack.

use crate::tree::{RootedTree, NO_NODE};
use crate::unionfind::UnionFind;

/// Answers a batch of LCA queries on a rooted tree.
///
/// Returns one LCA per query, in query order.
///
/// # Panics
///
/// Panics if a query references a node outside the tree.
///
/// # Example
///
/// ```
/// use tracered_graph::{Graph, RootedTree};
/// use tracered_graph::lca::offline_lca;
///
/// # fn main() -> Result<(), tracered_graph::GraphError> {
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)])?;
/// let t = RootedTree::build(&g, &[0, 1, 2], 0)?;
/// let lcas = offline_lca(&t, &[(1, 3), (2, 3), (1, 1)]);
/// assert_eq!(lcas, vec![0, 2, 1]);
/// # Ok(())
/// # }
/// ```
pub fn offline_lca(tree: &RootedTree, queries: &[(usize, usize)]) -> Vec<usize> {
    let n = tree.num_nodes();
    // Bucket queries by endpoint.
    let mut qheads = vec![usize::MAX; n];
    // (other endpoint, query index, next pointer)
    let mut qlist: Vec<(usize, usize, usize)> = Vec::with_capacity(2 * queries.len());
    for (qi, &(a, b)) in queries.iter().enumerate() {
        assert!(a < n && b < n, "query ({a}, {b}) out of bounds");
        qlist.push((b, qi, qheads[a]));
        qheads[a] = qlist.len() - 1;
        qlist.push((a, qi, qheads[b]));
        qheads[b] = qlist.len() - 1;
    }
    let mut answers = vec![usize::MAX; queries.len()];
    let mut uf = UnionFind::new(n);
    let mut black = vec![false; n];
    // Iterative DFS: (node, next child index).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    stack.push((tree.root(), 0));
    uf.set_label(tree.root(), tree.root());
    while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
        let kids = tree.children(v);
        if *ci < kids.len() {
            let child = kids[*ci];
            *ci += 1;
            uf.set_label(child, child);
            stack.push((child, 0));
            continue;
        }
        // Post-order processing of v: answer queries against black nodes.
        let mut qp = qheads[v];
        while qp != usize::MAX {
            let (other, qi, next) = qlist[qp];
            if other == v {
                answers[qi] = v;
            } else if black[other] {
                answers[qi] = uf.label_of(other);
            }
            qp = next;
        }
        black[v] = true;
        stack.pop();
        // Merge v into its parent's set, keeping the parent as the label.
        let p = tree.parent(v);
        if p != NO_NODE {
            uf.union(p, v);
            uf.set_label(p, p);
        }
    }
    answers
}

/// Computes tree effective resistances for a batch of node pairs using
/// [`offline_lca`]: `R_T(p, q) = r(p) + r(q) − 2 r(lca)`.
pub fn tree_resistances(tree: &RootedTree, pairs: &[(usize, usize)]) -> Vec<f64> {
    let lcas = offline_lca(tree, pairs);
    pairs.iter().zip(lcas.iter()).map(|(&(p, q), &l)| tree.resistance_between(p, q, l)).collect()
}

/// [`tree_resistances`] with the query batch chunked over `threads`
/// workers.
///
/// Each chunk runs its own [`offline_lca`] pass (private union-find and
/// DFS stack) over the whole tree; per-query answers are independent of
/// how the batch is split, so results are bit-identical to the serial
/// path. Chunks are kept large — an LCA pass costs `O(n)` regardless of
/// batch size, so splitting only pays off when the batch dwarfs the
/// per-pass overhead.
pub fn tree_resistances_threads(
    tree: &RootedTree,
    pairs: &[(usize, usize)],
    threads: usize,
) -> Vec<f64> {
    // Below this many queries per worker, the O(n) tree sweep per chunk
    // dominates; fall back to one serial pass.
    let min_chunk = (tree.num_nodes() / 4).max(1024);
    if threads <= 1 || pairs.len() <= min_chunk {
        return tree_resistances(tree, pairs);
    }
    let mut out = vec![0.0f64; pairs.len()];
    let chunk = tracered_par::chunk_size(pairs.len(), threads, min_chunk);
    tracered_par::par_chunks_mut(&mut out, chunk, threads, |start, slice| {
        let sub = &pairs[start..start + slice.len()];
        let lcas = offline_lca(tree, sub);
        for ((slot, &(p, q)), &l) in slice.iter_mut().zip(sub.iter()).zip(lcas.iter()) {
            *slot = tree.resistance_between(p, q, l);
        }
    });
    out
}

/// Total *stretch* of a spanning tree of `g`: `Σ_e w_e · R_T(e)` over all
/// graph edges. The classical quality measure of low-stretch spanning
/// trees — the trace `Tr(L_T⁻¹ L_G)` of an (unshifted) tree preconditioner
/// equals `stretch + (n − m_tree terms)`, so lower stretch means a better
/// starting point for edge recovery.
///
/// Tree edges contribute exactly 1 each (their tree path is themselves).
pub fn total_stretch(g: &crate::graph::Graph, tree: &RootedTree) -> f64 {
    let pairs: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let rs = tree_resistances(tree, &pairs);
    g.edges().iter().zip(rs.iter()).map(|(e, &r)| e.weight * r).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// A balanced-ish tree:
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     / \   \
    ///    3   4   5
    ///   /
    ///  6
    /// ```
    fn sample() -> (Graph, RootedTree) {
        let g = Graph::from_edges(
            7,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 5, 1.0), (3, 6, 1.0)],
        )
        .unwrap();
        let t = RootedTree::build(&g, &[0, 1, 2, 3, 4, 5], 0).unwrap();
        (g, t)
    }

    #[test]
    fn matches_climbing_lca_on_all_pairs() {
        let (_, t) = sample();
        let mut queries = Vec::new();
        for a in 0..7 {
            for b in 0..7 {
                queries.push((a, b));
            }
        }
        let fast = offline_lca(&t, &queries);
        for (qi, &(a, b)) in queries.iter().enumerate() {
            assert_eq!(fast[qi], t.lca_by_climbing(a, b), "lca({a},{b})");
        }
    }

    #[test]
    fn handles_empty_query_set() {
        let (_, t) = sample();
        assert!(offline_lca(&t, &[]).is_empty());
    }

    #[test]
    fn self_queries_return_self() {
        let (_, t) = sample();
        let ans = offline_lca(&t, &[(4, 4), (0, 0)]);
        assert_eq!(ans, vec![4, 0]);
    }

    #[test]
    fn resistances_match_path_sums() {
        let (g, t) = sample();
        let pairs = [(6, 5), (3, 4), (6, 4)];
        let rs = tree_resistances(&t, &pairs);
        for (k, &(p, q)) in pairs.iter().enumerate() {
            // Climb both endpoints to their LCA, summing 1/w on the way.
            let lca = t.lca_by_climbing(p, q);
            let mut manual = 0.0;
            for mut v in [p, q] {
                while v != lca {
                    manual += 1.0 / g.edge(t.parent_edge(v)).weight;
                    v = t.parent(v);
                }
            }
            assert!((rs[k] - manual).abs() < 1e-12, "pair ({p},{q})");
        }
    }

    #[test]
    fn deep_path_tree_does_not_overflow() {
        // A 200k-node path exercises the iterative DFS.
        let n = 200_000;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let ids: Vec<usize> = (0..n - 1).collect();
        let t = RootedTree::build(&g, &ids, 0).unwrap();
        let ans = offline_lca(&t, &[(0, n - 1), (n / 2, n - 1)]);
        assert_eq!(ans, vec![0, n / 2]);
    }

    #[test]
    fn stretch_of_tree_itself_is_edge_count() {
        // Restricting a graph to its own spanning tree, every edge has
        // stretch w · (1/w) = 1.
        let (g, t) = sample();
        let tree_graph = g.edge_subgraph(&[0, 1, 2, 3, 4, 5]);
        let s = total_stretch(&tree_graph, &t);
        assert!((s - 6.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_counts_off_tree_paths() {
        // Cycle 0-1-2-0 with unit weights, tree = {(0,1), (1,2)}:
        // stretch = 1 + 1 + 1·(R_T(0,2) = 2) = 4.
        let g =
            crate::graph::Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        let t = RootedTree::build(&g, &[0, 1], 0).unwrap();
        assert!((total_stretch(&g, &t) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_queries_answered_independently() {
        let (_, t) = sample();
        let ans = offline_lca(&t, &[(6, 5), (6, 5), (6, 5)]);
        assert_eq!(ans, vec![0, 0, 0]);
    }

    #[test]
    fn chunked_resistances_match_serial_for_all_thread_counts() {
        // Tree big enough to clear the chunking threshold, queries
        // spanning distant subtrees.
        let n = 5_000;
        let edges: Vec<(usize, usize, f64)> =
            (1..n).map(|i| (i / 2, i, 1.0 + (i % 9) as f64 * 0.3)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let ids: Vec<usize> = (0..n - 1).collect();
        let t = RootedTree::build(&g, &ids, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            (0..20_000).map(|k| ((k * 37) % n, (k * 101 + 13) % n)).collect();
        let serial = tree_resistances(&t, &pairs);
        for threads in [1usize, 2, 4, 8] {
            let par = tree_resistances_threads(&t, &pairs, threads);
            assert_eq!(serial.len(), par.len());
            assert!(
                serial.iter().zip(par.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "thread count {threads} changed resistances"
            );
        }
    }
}
