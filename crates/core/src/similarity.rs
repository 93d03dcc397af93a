//! Exclusion of spectrally similar off-subgraph edges (paper Step 8/20 of
//! Algorithm 2, technique from feGRASS \[Liu, Yu, Feng 2021\]).
//!
//! When an edge `(p, q)` is recovered, nearby off-subgraph edges fix
//! almost the same spectral deficiency — recovering several of them wastes
//! the edge budget. feGRASS suppresses them through *spectral edge
//! similarity*; we realise the same idea geometrically: recovering
//! `(p, q)` marks the γ-layer subgraph neighbourhoods of `p` and `q`, and
//! a candidate whose **both** endpoints are already marked in the current
//! densification iteration is skipped. Marks reset each iteration, when
//! criticalities are re-computed against the enlarged subgraph.
//!
//! Each neighbourhood is a fresh γ-layer BFS ([`bfs`]) under its own
//! visit stamp, kept apart from the iteration's marks: every node within
//! γ hops of `p` or `q` is marked, whichever nodes earlier recoveries
//! marked and in whichever order the endpoints come.

use tracered_graph::bfs::bfs;
use tracered_graph::Graph;

/// Tracks which nodes have been "covered" by edges recovered in the
/// current densification iteration.
///
/// # Example
///
/// ```
/// use tracered_core::similarity::SimilarityExclusion;
/// use tracered_graph::Graph;
///
/// # fn main() -> Result<(), tracered_graph::GraphError> {
/// let g = Graph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)])?;
/// let mut excl = SimilarityExclusion::new(6, 1);
/// excl.begin_iteration();
/// excl.mark_recovered(&g, 0, 1);
/// // Radius-1 neighbourhoods of 0 and 1 cover {0, 1, 2}.
/// assert!(excl.is_excluded(0, 2));
/// assert!(!excl.is_excluded(0, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimilarityExclusion {
    /// Coverage marks: node `v` is covered this iteration when
    /// `marks[v] == stamp`.
    marks: Vec<u64>,
    stamp: u64,
    layers: usize,
    /// Per-search BFS visit stamps, `searches` the latest.
    visited: Vec<u64>,
    searches: u64,
    ball: Vec<u32>,
}

impl SimilarityExclusion {
    /// Creates an exclusion tracker for `n` nodes with BFS radius
    /// `layers`.
    pub fn new(n: usize, layers: usize) -> Self {
        SimilarityExclusion {
            marks: vec![0; n],
            stamp: 0,
            layers,
            visited: vec![0; n],
            searches: 0,
            ball: Vec::new(),
        }
    }

    /// Starts a new densification iteration (clears all marks in O(1)).
    pub fn begin_iteration(&mut self) {
        self.stamp += 1;
    }

    /// Marks the γ-layer neighbourhoods of a recovered edge's endpoints.
    /// The BFS runs in `subgraph` (the current sparsifier), where
    /// spectral proximity lives.
    ///
    /// # Panics
    ///
    /// Panics if the subgraph has a different node count or an endpoint
    /// is not one of its nodes.
    pub fn mark_recovered(&mut self, subgraph: &Graph, p: usize, q: usize) {
        assert_eq!(subgraph.num_nodes(), self.marks.len(), "subgraph has a different node count");
        for start in [p, q] {
            self.searches += 1;
            self.ball.clear();
            bfs(subgraph, start, self.layers, self.searches, &mut self.visited, &mut self.ball)
                .expect("recovered edge endpoints are subgraph nodes");
            for &v in &self.ball {
                self.marks[v as usize] = self.stamp;
            }
        }
    }

    /// Returns `true` when the candidate edge `(u, v)` should be skipped:
    /// both endpoints already covered this iteration.
    pub fn is_excluded(&self, u: usize, v: usize) -> bool {
        self.marks[u] == self.stamp && self.marks[v] == self.stamp
    }

    /// Number of nodes currently marked (linear scan; for diagnostics).
    pub fn marked_count(&self) -> usize {
        self.marks.iter().filter(|&&m| m == self.stamp).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn fresh_tracker_excludes_nothing() {
        let mut excl = SimilarityExclusion::new(5, 1);
        excl.begin_iteration();
        for u in 0..5 {
            for v in 0..5 {
                assert!(!excl.is_excluded(u, v));
            }
        }
    }

    #[test]
    fn marks_cover_neighborhoods() {
        let g = path(9);
        let mut excl = SimilarityExclusion::new(9, 2);
        excl.begin_iteration();
        excl.mark_recovered(&g, 4, 4);
        // Radius-2 around node 4: {2..=6}.
        assert_eq!(excl.marked_count(), 5);
        assert!(excl.is_excluded(2, 6));
        assert!(!excl.is_excluded(1, 6));
        assert!(!excl.is_excluded(2, 7));
    }

    #[test]
    fn begin_iteration_resets_marks() {
        let g = path(5);
        let mut excl = SimilarityExclusion::new(5, 1);
        excl.begin_iteration();
        excl.mark_recovered(&g, 2, 3);
        assert!(excl.is_excluded(2, 3));
        excl.begin_iteration();
        assert!(!excl.is_excluded(2, 3));
        assert_eq!(excl.marked_count(), 0);
    }

    #[test]
    fn marks_reach_gamma_layers_in_either_endpoint_order() {
        // γ = 2 on the path 0–5: the balls of 0 and 1 are {0, 1, 2} and
        // {0, 1, 2, 3}, so node 3 is covered whichever endpoint comes
        // first, although the first ball already marked 1 and 2.
        let g = path(6);
        for (p, q) in [(0, 1), (1, 0)] {
            let mut excl = SimilarityExclusion::new(6, 2);
            excl.begin_iteration();
            excl.mark_recovered(&g, p, q);
            assert_eq!(excl.marked_count(), 4, "endpoints ({p}, {q})");
            assert!(excl.is_excluded(2, 3), "endpoints ({p}, {q})");
            assert!(!excl.is_excluded(3, 4), "endpoints ({p}, {q})");
        }
    }

    #[test]
    fn earlier_marks_do_not_stop_a_later_neighbourhood() {
        // γ = 2 on the path 0–5: recovering at 3 covers {1, ..., 5}.
        // Recovering at 2 then walks through the covered node 1 to
        // reach 0.
        let g = path(6);
        let mut excl = SimilarityExclusion::new(6, 2);
        excl.begin_iteration();
        excl.mark_recovered(&g, 3, 3);
        assert_eq!(excl.marked_count(), 5);
        assert!(!excl.is_excluded(0, 1));
        excl.mark_recovered(&g, 2, 2);
        assert_eq!(excl.marked_count(), 6);
        assert!(excl.is_excluded(0, 1));
    }

    #[test]
    fn zero_layers_marks_only_endpoints() {
        let g = path(5);
        let mut excl = SimilarityExclusion::new(5, 0);
        excl.begin_iteration();
        excl.mark_recovered(&g, 1, 3);
        assert_eq!(excl.marked_count(), 2);
        assert!(excl.is_excluded(1, 3));
        assert!(!excl.is_excluded(1, 2));
    }
}
