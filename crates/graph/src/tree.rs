//! Rooted spanning trees with electrical path utilities.
//!
//! The tree phase of the paper's algorithm treats the spanning tree as a
//! resistor network: the effective resistance between `p` and `q` is the
//! sum of `1/w` along the unique tree path, and the BFS voltage
//! propagation of its Eqs. 13–14 needs to test whether an edge lies on
//! that path. [`RootedTree`] precomputes parent pointers, depths,
//! resistance-to-root prefix sums and preorder intervals: the first
//! answers resistances in `O(path length)`, the last answers the on-path
//! test in `O(1)` (see [`RootedTree::is_ancestor`]).

use crate::error::GraphError;
use crate::graph::Graph;

/// Sentinel for "no parent" (the root) and "no edge".
pub const NO_NODE: usize = usize::MAX;

/// A spanning tree of a graph, rooted and preprocessed for path queries.
///
/// Besides parents, depths and resistances, the tree records each node's
/// preorder interval `[tin, tout)`: `tin` numbers the nodes in a
/// depth-first preorder that visits children in [`RootedTree::children`]
/// order, and `tout = tin + subtree size`. A node's subtree is exactly the
/// nodes whose `tin` falls in its interval, so
/// [`RootedTree::is_ancestor`] is two comparisons. The tree edge above a
/// child `c` lies on the `p`–`q` path exactly when one of `p`, `q` is in
/// `c`'s subtree and the other is not.
///
/// # Example
///
/// ```
/// use tracered_graph::{Graph, RootedTree};
///
/// # fn main() -> Result<(), tracered_graph::GraphError> {
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.0), (0, 3, 2.0)])?;
/// let tree = RootedTree::build(&g, &[0, 1, 2], 0)?;
/// // Path resistance 0→2 is 1/1 + 1/0.5 = 3.
/// let lca = tree.lca_by_climbing(0, 2);
/// assert!((tree.resistance_between(0, 2, lca) - 3.0).abs() < 1e-12);
/// // The edge above node 1 is on the 0–2 path: 2 is below 1, 0 is not.
/// assert!(tree.is_ancestor(1, 2) != tree.is_ancestor(1, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RootedTree {
    root: usize,
    parent: Vec<usize>,
    parent_edge: Vec<usize>,
    depth: Vec<usize>,
    /// Σ 1/w along the path to the root.
    resistance_to_root: Vec<f64>,
    /// Nodes in BFS order from the root (parents precede children).
    order: Vec<usize>,
    /// Children lists, needed by iterative DFS consumers (Tarjan LCA).
    child_offsets: Vec<usize>,
    children: Vec<usize>,
    /// Preorder entry number of each node.
    tin: Vec<usize>,
    /// `tin` plus the subtree size: the subtree of `v` is the nodes with
    /// `tin` in `tin[v]..tout[v]`.
    tout: Vec<usize>,
}

impl RootedTree {
    /// Builds a rooted tree from `n − 1` edge ids of `g` that must form a
    /// spanning tree.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotATree`] if the edge count is wrong or the
    /// edges do not span all nodes, and [`GraphError::NodeOutOfBounds`]
    /// for an invalid root.
    pub fn build(g: &Graph, tree_edges: &[usize], root: usize) -> Result<Self, GraphError> {
        let n = g.num_nodes();
        if root >= n {
            return Err(GraphError::NodeOutOfBounds { node: root, num_nodes: n });
        }
        if tree_edges.len() + 1 != n {
            return Err(GraphError::NotATree {
                what: format!("{} edges for {} nodes", tree_edges.len(), n),
            });
        }
        // Adjacency restricted to the tree edges.
        let mut offsets = vec![0usize; n + 1];
        for &id in tree_edges {
            let e = g.edge(id);
            offsets[e.u + 1] += 1;
            offsets[e.v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut adj = vec![(0usize, 0usize); 2 * tree_edges.len()];
        for &id in tree_edges {
            let e = g.edge(id);
            adj[next[e.u]] = (e.v, id);
            next[e.u] += 1;
            adj[next[e.v]] = (e.u, id);
            next[e.v] += 1;
        }
        // BFS from the root.
        let mut parent = vec![NO_NODE; n];
        let mut parent_edge = vec![NO_NODE; n];
        let mut depth = vec![0usize; n];
        let mut resistance_to_root = vec![0.0f64; n];
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(u, id) in &adj[offsets[v]..offsets[v + 1]] {
                if !visited[u] {
                    visited[u] = true;
                    parent[u] = v;
                    parent_edge[u] = id;
                    depth[u] = depth[v] + 1;
                    resistance_to_root[u] = resistance_to_root[v] + 1.0 / g.edge(id).weight;
                    queue.push_back(u);
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::NotATree {
                what: format!("edges span only {} of {} nodes", order.len(), n),
            });
        }
        // Children lists.
        let mut child_offsets = vec![0usize; n + 1];
        for v in 0..n {
            if parent[v] != NO_NODE {
                child_offsets[parent[v] + 1] += 1;
            }
        }
        for i in 0..n {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut cnext = child_offsets.clone();
        let mut children = vec![0usize; n - 1];
        for v in 0..n {
            if parent[v] != NO_NODE {
                children[cnext[parent[v]]] = v;
                cnext[parent[v]] += 1;
            }
        }
        // Preorder intervals: subtree sizes bottom-up, then entry numbers
        // top-down, each child block placed after its earlier siblings'.
        let mut tout = vec![1usize; n];
        for &v in order.iter().rev() {
            if parent[v] != NO_NODE {
                tout[parent[v]] += tout[v];
            }
        }
        let mut tin = vec![0usize; n];
        for &v in &order {
            let mut next = tin[v] + 1;
            for &c in &children[child_offsets[v]..child_offsets[v + 1]] {
                tin[c] = next;
                next += tout[c];
            }
            tout[v] += tin[v];
        }
        Ok(RootedTree {
            root,
            parent,
            parent_edge,
            depth,
            resistance_to_root,
            order,
            child_offsets,
            children,
            tin,
            tout,
        })
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v` ([`NO_NODE`] for the root).
    pub fn parent(&self, v: usize) -> usize {
        self.parent[v]
    }

    /// Id (into the parent graph) of the edge between `v` and its parent
    /// ([`NO_NODE`] for the root).
    pub fn parent_edge(&self, v: usize) -> usize {
        self.parent_edge[v]
    }

    /// Depth of `v` (0 for the root).
    pub fn depth(&self, v: usize) -> usize {
        self.depth[v]
    }

    /// Resistance (Σ 1/w) of the path from `v` to the root.
    pub fn resistance_to_root(&self, v: usize) -> f64 {
        self.resistance_to_root[v]
    }

    /// Nodes in BFS order (parents before children).
    pub fn bfs_order(&self) -> &[usize] {
        &self.order
    }

    /// Children of `v`.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[self.child_offsets[v]..self.child_offsets[v + 1]]
    }

    /// Lowest common ancestor by depth climbing, `O(depth)`.
    ///
    /// For batch queries prefer [`crate::lca::offline_lca`].
    ///
    /// # Panics
    ///
    /// Panics if a node is out of bounds.
    pub fn lca_by_climbing(&self, mut a: usize, mut b: usize) -> usize {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a];
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b];
        }
        while a != b {
            a = self.parent[a];
            b = self.parent[b];
        }
        a
    }

    /// Tree effective resistance between `p` and `q` given their LCA:
    /// `R(p, q) = r(p) + r(q) − 2 r(lca)`.
    pub fn resistance_between(&self, p: usize, q: usize, lca: usize) -> f64 {
        self.resistance_to_root[p] + self.resistance_to_root[q] - 2.0 * self.resistance_to_root[lca]
    }

    /// Whether `a` is an ancestor of `v` (every node is its own
    /// ancestor), by the preorder intervals in `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of bounds.
    #[inline]
    pub fn is_ancestor(&self, a: usize, v: usize) -> bool {
        let t = self.tin[v];
        self.tin[a] <= t && t < self.tout[a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2-3 path plus a 1-4 branch; extra non-tree edge (0, 3).
    fn sample() -> (Graph, RootedTree) {
        let g = Graph::from_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25), (1, 4, 2.0), (0, 3, 1.0)],
        )
        .unwrap();
        let t = RootedTree::build(&g, &[0, 1, 2, 3], 0).unwrap();
        (g, t)
    }

    #[test]
    fn structure_is_correct() {
        let (_, t) = sample();
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(0), NO_NODE);
        assert_eq!(t.parent(1), 0);
        assert_eq!(t.parent(2), 1);
        assert_eq!(t.parent(4), 1);
        assert_eq!(t.depth(3), 3);
        let mut kids: Vec<usize> = t.children(1).to_vec();
        kids.sort_unstable();
        assert_eq!(kids, vec![2, 4]);
    }

    #[test]
    fn resistances_accumulate() {
        let (_, t) = sample();
        assert!((t.resistance_to_root(1) - 1.0).abs() < 1e-12);
        assert!((t.resistance_to_root(2) - 3.0).abs() < 1e-12);
        assert!((t.resistance_to_root(3) - 7.0).abs() < 1e-12);
        assert!((t.resistance_to_root(4) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn lca_and_between_resistance() {
        let (_, t) = sample();
        assert_eq!(t.lca_by_climbing(3, 4), 1);
        assert_eq!(t.lca_by_climbing(0, 3), 0);
        assert_eq!(t.lca_by_climbing(2, 2), 2);
        // R(3,4) = r3 + r4 - 2 r1 = 7 + 1.5 - 2 = 6.5
        assert!((t.resistance_between(3, 4, 1) - 6.5).abs() < 1e-12);
    }

    /// Parent edges of the children whose subtree holds exactly one of
    /// `p`, `q`: the tree path's edges, by the preorder-interval test.
    fn on_path_edges(t: &RootedTree, p: usize, q: usize) -> Vec<usize> {
        (0..t.num_nodes())
            .filter(|&c| t.parent(c) != NO_NODE && t.is_ancestor(c, p) != t.is_ancestor(c, q))
            .map(|c| t.parent_edge(c))
            .collect()
    }

    #[test]
    fn path_edges_connect_endpoints() {
        let (g, t) = sample();
        let mut path = on_path_edges(&t, 3, 4);
        assert_eq!(path.len(), 3); // 3→2, 2→1, 1→4
                                   // Walk the path and confirm it leads from 3 to 4.
        let mut cur = 3usize;
        while let Some(k) =
            path.iter().position(|&eid| g.edge(eid).u == cur || g.edge(eid).v == cur)
        {
            cur = g.edge(path.swap_remove(k)).other(cur);
        }
        assert!(path.is_empty());
        assert_eq!(cur, 4);
    }

    #[test]
    fn path_to_self_is_empty() {
        let (_, t) = sample();
        assert!(on_path_edges(&t, 2, 2).is_empty());
    }

    #[test]
    fn is_ancestor_agrees_with_parent_climbing() {
        use crate::gen::{random_connected, WeightProfile};
        use crate::mst::{spanning_tree, TreeKind};
        let g = random_connected(60, 90, WeightProfile::Unit, 21);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let t = RootedTree::build(&g, &st.tree_edges, 17).unwrap();
        let n = t.num_nodes();
        let ancestors = |mut v: usize| {
            let mut out = vec![v];
            while t.parent(v) != NO_NODE {
                v = t.parent(v);
                out.push(v);
            }
            out
        };
        for v in 0..n {
            let up = ancestors(v);
            for a in 0..n {
                assert_eq!(t.is_ancestor(a, v), up.contains(&a), "is_ancestor({a}, {v})");
            }
        }
        // The interval test marks exactly the edges met climbing from
        // both endpoints to their LCA.
        for p in 0..n {
            for q in 0..n {
                let lca = t.lca_by_climbing(p, q);
                let mut climbed = Vec::new();
                for mut v in [p, q] {
                    while v != lca {
                        climbed.push(t.parent_edge(v));
                        v = t.parent(v);
                    }
                }
                let mut marked = on_path_edges(&t, p, q);
                climbed.sort_unstable();
                marked.sort_unstable();
                assert_eq!(marked, climbed, "path {p}–{q}");
            }
        }
    }

    #[test]
    fn bfs_order_parents_first() {
        let (_, t) = sample();
        let pos: Vec<usize> = {
            let mut pos = vec![0; 5];
            for (i, &v) in t.bfs_order().iter().enumerate() {
                pos[v] = i;
            }
            pos
        };
        for v in 0..5 {
            if t.parent(v) != NO_NODE {
                assert!(pos[t.parent(v)] < pos[v]);
            }
        }
    }

    #[test]
    fn wrong_edge_count_rejected() {
        let (g, _) = sample();
        assert!(matches!(RootedTree::build(&g, &[0, 1], 0), Err(GraphError::NotATree { .. })));
    }

    #[test]
    fn non_spanning_edges_rejected() {
        // A cycle among nodes 0-1-2 leaves 3, 4 unreached.
        let g =
            Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)]).unwrap();
        assert!(matches!(
            RootedTree::build(&g, &[0, 1, 2, 3], 0),
            Err(GraphError::NotATree { .. })
        ));
    }

    #[test]
    fn invalid_root_rejected() {
        let (g, _) = sample();
        assert!(matches!(
            RootedTree::build(&g, &[0, 1, 2, 3], 99),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }
}
