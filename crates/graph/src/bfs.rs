//! Bounded breadth-first search: the one BFS the trace-reduction
//! sparsifier runs over a graph.
//!
//! The paper's truncated trace reduction (its Eq. 12) restricts the
//! summation to graph edges running between `Nbr(p, β)` and `Nbr(q, β)`,
//! the node sets found by β-layer BFS from the candidate edge's endpoints.
//! The BFS is performed **in the current subgraph** (where the electrical
//! model lives), while the edges that get summed come from the full graph.
//! [`bfs`] serves three callers in `tracered-core`: the subgraph phase's
//! table of every node's β-ball, the evaluators' locality order (one
//! unbounded sweep per unvisited root), and the γ-layer marking of
//! similarity exclusion.

use crate::error::GraphError;
use crate::graph::Graph;

/// Appends `start` and every node within `layers` hops of it in `g` to
/// `out`, in FIFO-BFS order (neighbours in adjacency order), by a
/// level-synchronous sweep that uses `out` itself as the queue.
///
/// Each appended node gets `visited[node] = stamp`. A node already
/// carrying `stamp` — `start` included — is neither appended nor
/// expanded, so a fresh stamp per call gives a fresh search, and one
/// stamp across calls continues a search over several roots. Entries
/// already in `out` are left alone.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if `start` is not a node of
/// `g`, or if a node id does not fit in `u32` (`out` holds `u32` ids).
/// `out` may then hold part of the search.
///
/// # Panics
///
/// Panics if `visited` is shorter than `g.num_nodes()`.
///
/// # Example
///
/// ```
/// use tracered_graph::bfs::bfs;
/// use tracered_graph::Graph;
///
/// # fn main() -> Result<(), tracered_graph::GraphError> {
/// let g = Graph::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])?;
/// let mut visited = vec![0u64; 5];
/// let mut ball = Vec::new();
/// bfs(&g, 2, 1, 1, &mut visited, &mut ball)?;
/// assert_eq!(ball, [2, 1, 3]);
/// # Ok(())
/// # }
/// ```
pub fn bfs(
    g: &Graph,
    start: usize,
    layers: usize,
    stamp: u64,
    visited: &mut [u64],
    out: &mut Vec<u32>,
) -> Result<(), GraphError> {
    let n = g.num_nodes();
    let id = |node: usize| match u32::try_from(node) {
        Ok(id) if node < n => Ok(id),
        _ => Err(GraphError::NodeOutOfBounds { node, num_nodes: n }),
    };
    let first = id(start)?;
    if visited[start] == stamp {
        return Ok(());
    }
    visited[start] = stamp;
    let mut level = out.len()..out.len() + 1;
    out.push(first);
    for _ in 0..layers {
        for at in level.clone() {
            for &(nbr, _) in g.neighbors(out[at] as usize) {
                if visited[nbr] != stamp {
                    visited[nbr] = stamp;
                    out.push(id(nbr)?);
                }
            }
        }
        level = level.end..out.len();
        if level.is_empty() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    fn ball(g: &Graph, start: usize, layers: usize) -> Vec<u32> {
        let mut visited = vec![0u64; g.num_nodes()];
        let mut out = Vec::new();
        bfs(g, start, layers, 1, &mut visited, &mut out).unwrap();
        out
    }

    #[test]
    fn fifo_order_follows_adjacency_order() {
        // A star 0–{3, 1, 4} with tails 1–2 and 3–5. The first layer
        // comes in adjacency (edge) order, 3 before 1; the second in the
        // order its parents were queued, so 3's 5 before 1's 2.
        let edges = [(0, 3, 1.0), (0, 1, 1.0), (0, 4, 1.0), (1, 2, 1.0), (3, 5, 1.0)];
        let g = Graph::from_edges(6, &edges).unwrap();
        assert_eq!(ball(&g, 0, 1), [0, 3, 1, 4]);
        assert_eq!(ball(&g, 0, 2), [0, 3, 1, 4, 5, 2]);
    }

    #[test]
    fn zero_layers_is_just_start() {
        assert_eq!(ball(&path(5), 2, 0), [2]);
    }

    #[test]
    fn layers_grow_along_path() {
        let g = path(7);
        assert_eq!(ball(&g, 3, 1), [3, 2, 4]);
        assert_eq!(ball(&g, 3, 2), [3, 2, 4, 1, 5]);
    }

    #[test]
    fn whole_graph_reached_with_large_layer_count() {
        // A bound past the diameter reaches the whole component, and
        // only it.
        assert_eq!(ball(&path(6), 0, 100), [0, 1, 2, 3, 4, 5]);
        let mut edges: Vec<(usize, usize, f64)> = (0..5).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((6, 7, 1.0));
        let two = Graph::from_edges(8, &edges).unwrap();
        assert_eq!(ball(&two, 0, usize::MAX), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        // One `visited` array serves many searches, a fresh stamp each,
        // and every search appends after what `out` already holds.
        let g = path(5);
        let mut visited = vec![0u64; 5];
        let mut out = vec![9, 9];
        bfs(&g, 4, 1, 1, &mut visited, &mut out).unwrap();
        assert_eq!(out, [9, 9, 4, 3]);
        bfs(&g, 3, 1, 2, &mut visited, &mut out).unwrap();
        assert_eq!(out, [9, 9, 4, 3, 3, 2, 4]);
    }

    #[test]
    fn stamped_nodes_are_neither_appended_nor_expanded() {
        // Node 2 carries the stamp, so the search from 0 stops there and
        // never reaches 3, although 3 is within its layers.
        let g = path(5);
        let mut visited = vec![0u64; 5];
        visited[2] = 7;
        let mut out = Vec::new();
        bfs(&g, 0, 4, 7, &mut visited, &mut out).unwrap();
        assert_eq!(out, [0, 1]);
        assert_eq!(visited, [7, 7, 7, 0, 0]);
        // A stamped start appends nothing; a new root under the same
        // stamp continues the search without revisiting a node.
        bfs(&g, 1, 4, 7, &mut visited, &mut out).unwrap();
        assert_eq!(out, [0, 1]);
        bfs(&g, 3, 4, 7, &mut visited, &mut out).unwrap();
        assert_eq!(out, [0, 1, 3, 4]);
    }

    #[test]
    fn ids_beyond_u32_are_errors() {
        let g = path(3);
        let mut visited = vec![0u64; 3];
        let mut out = vec![5];
        let big = u32::MAX as usize + 1;
        assert_eq!(
            bfs(&g, big, 1, 1, &mut visited, &mut out),
            Err(GraphError::NodeOutOfBounds { node: big, num_nodes: 3 })
        );
        assert_eq!(
            bfs(&g, 3, 1, 1, &mut visited, &mut out),
            Err(GraphError::NodeOutOfBounds { node: 3, num_nodes: 3 })
        );
        assert_eq!(out, [5]);
        assert_eq!(visited, [0, 0, 0]);
    }
}
