//! Graph Laplacian assembly.
//!
//! The paper works with Laplacians made invertible by adding "small values
//! to the diagonal" (its §2), chosen identically for the graph `G` and any
//! subgraph `S` so that `L_G ⪰ L_S` and the smallest generalized eigenvalue
//! of `(L_G, L_S)` is 1. [`ShiftPolicy`] captures the choices used across
//! the workspace.

use tracered_sparse::{CooMatrix, CscMatrix};

use crate::error::GraphError;
use crate::graph::{Edge, Graph};

/// How the positive diagonal shift is chosen.
///
/// Deliberately **not** `#[non_exhaustive]`: downstream config
/// fingerprints match on this exhaustively so that adding a policy is a
/// compile error at every tag site instead of a silent cache collision.
#[derive(Debug, Clone, PartialEq)]
pub enum ShiftPolicy {
    /// No shift: the exact (singular) Laplacian. Useful for assembling
    /// `L_G` when the caller adds physical ground conductances later.
    None,
    /// The same constant added to every diagonal entry.
    Uniform(f64),
    /// `factor · (mean weighted degree)` added to every diagonal entry —
    /// a scale-free default (`factor = 1e-6` reproduces the paper's
    /// "small values" at any weight scale).
    RelativeMeanDegree(f64),
    /// An explicit per-node shift, e.g. pad or capacitor conductances in a
    /// power grid.
    PerNode(Vec<f64>),
}

impl ShiftPolicy {
    /// Materialises the per-node shift vector for graph `g`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if a [`ShiftPolicy::PerNode`]
    /// vector has the wrong length, and [`GraphError::InvalidWeight`] if any
    /// shift is negative or non-finite.
    pub fn shifts(&self, g: &Graph) -> Result<Vec<f64>, GraphError> {
        let n = g.num_nodes();
        let v = match self {
            ShiftPolicy::None => vec![0.0; n],
            ShiftPolicy::Uniform(s) => vec![*s; n],
            ShiftPolicy::RelativeMeanDegree(factor) => {
                let mean = if n == 0 { 0.0 } else { 2.0 * g.total_weight() / n as f64 };
                vec![factor * mean; n]
            }
            ShiftPolicy::PerNode(v) => {
                if v.len() != n {
                    return Err(GraphError::NodeOutOfBounds { node: v.len(), num_nodes: n });
                }
                v.clone()
            }
        };
        for (i, &s) in v.iter().enumerate() {
            if !s.is_finite() || s < 0.0 {
                return Err(GraphError::InvalidWeight { edge: i, weight: s });
            }
        }
        Ok(v)
    }
}

/// Assembles the (shifted) Laplacian `L_G + diag(shift)` of a graph as a
/// symmetric CSC matrix.
///
/// # Errors
///
/// Propagates shift-policy validation errors; see [`ShiftPolicy::shifts`].
pub fn laplacian(g: &Graph, shift: ShiftPolicy) -> Result<CscMatrix, GraphError> {
    let shifts = shift.shifts(g)?;
    Ok(laplacian_with_shifts(g, &shifts))
}

/// Assembles `L_G + diag(shifts)` with an explicit, already-validated
/// shift vector.
///
/// # Panics
///
/// Panics if `shifts.len() != g.num_nodes()`.
pub fn laplacian_with_shifts(g: &Graph, shifts: &[f64]) -> CscMatrix {
    assemble(g.num_nodes(), g.edges().iter().copied(), shifts)
}

/// Assembles the Laplacian of the subgraph given by `edge_ids`, using the
/// **same** shift vector as the parent graph — the construction that keeps
/// `L_G ⪰ L_S`.
///
/// # Panics
///
/// Panics if `shifts.len() != g.num_nodes()` or an edge id is out of
/// bounds.
pub fn subgraph_laplacian(g: &Graph, edge_ids: &[usize], shifts: &[f64]) -> CscMatrix {
    assemble(g.num_nodes(), edge_ids.iter().map(|&id| g.edge(id)), shifts)
}

/// `Σ_e w_e (e_u − e_v)(e_u − e_v)ᵀ + diag(shifts)` over `edges`, on `n`
/// nodes. Each diagonal entry is its shift plus its edge weights summed
/// in `edges` order, so the caller's edge order fixes the diagonal's
/// bits.
fn assemble(n: usize, edges: impl ExactSizeIterator<Item = Edge>, shifts: &[f64]) -> CscMatrix {
    assert_eq!(shifts.len(), n, "shift vector length must equal node count");
    let mut coo = CooMatrix::with_capacity(n, n, 2 * edges.len() + n);
    let mut diag = shifts.to_vec();
    for e in edges {
        coo.push_symmetric(e.u, e.v, -e.weight)
            .expect("graph invariants guarantee valid Laplacian entries");
        diag[e.u] += e.weight;
        diag[e.v] += e.weight;
    }
    for (i, &d) in diag.iter().enumerate() {
        if d != 0.0 {
            coo.push(i, i, d).expect("diagonal entry in bounds");
        }
    }
    coo.to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    #[test]
    fn unshifted_laplacian_rows_sum_to_zero() {
        let l = laplacian(&triangle(), ShiftPolicy::None).unwrap();
        let ones = vec![1.0; 3];
        let y = l.matvec(&ones);
        for v in y {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_entries() {
        let l = laplacian(&triangle(), ShiftPolicy::None).unwrap();
        assert_eq!(l.get(0, 0), 4.0);
        assert_eq!(l.get(1, 1), 3.0);
        assert_eq!(l.get(2, 2), 5.0);
        assert_eq!(l.get(0, 1), -1.0);
        assert_eq!(l.get(1, 2), -2.0);
        assert_eq!(l.get(0, 2), -3.0);
        assert!(l.is_symmetric());
    }

    #[test]
    fn uniform_shift_adds_to_diagonal() {
        let l = laplacian(&triangle(), ShiftPolicy::Uniform(0.5)).unwrap();
        assert_eq!(l.get(0, 0), 4.5);
        assert_eq!(l.get(0, 1), -1.0);
    }

    #[test]
    fn relative_shift_scales_with_weights() {
        let g = triangle();
        let mean_deg = 2.0 * g.total_weight() / 3.0;
        let l = laplacian(&g, ShiftPolicy::RelativeMeanDegree(0.1)).unwrap();
        assert!((l.get(0, 0) - (4.0 + 0.1 * mean_deg)).abs() < 1e-12);
    }

    #[test]
    fn per_node_shift_validates_length_and_sign() {
        let g = triangle();
        assert!(laplacian(&g, ShiftPolicy::PerNode(vec![0.1, 0.2])).is_err());
        assert!(laplacian(&g, ShiftPolicy::PerNode(vec![0.1, -0.2, 0.3])).is_err());
        let l = laplacian(&g, ShiftPolicy::PerNode(vec![0.1, 0.0, 0.3])).unwrap();
        assert!((l.get(0, 0) - 4.1).abs() < 1e-12);
        assert_eq!(l.get(1, 1), 3.0);
    }

    #[test]
    fn subgraph_laplacian_is_dominated_by_graph_laplacian() {
        // x^T (L_G - L_S) x >= 0 for a sample of vectors.
        let g = triangle();
        let shifts = vec![0.01; 3];
        let lg = laplacian_with_shifts(&g, &shifts);
        let ls = subgraph_laplacian(&g, &[0, 1], &shifts);
        for x in [[1.0, -1.0, 0.5], [0.3, 0.3, -0.9], [1.0, 0.0, 0.0]] {
            let gx = lg.matvec(&x);
            let sx = ls.matvec(&x);
            let qg: f64 = x.iter().zip(gx.iter()).map(|(a, b)| a * b).sum();
            let qs: f64 = x.iter().zip(sx.iter()).map(|(a, b)| a * b).sum();
            assert!(qg + 1e-12 >= qs, "quadratic forms must be ordered");
        }
    }

    #[test]
    fn laplacian_of_edgeless_graph_is_shift_only() {
        let g = Graph::from_edges(2, &[]).unwrap();
        let l = laplacian(&g, ShiftPolicy::Uniform(2.0)).unwrap();
        assert_eq!(l.get(0, 0), 2.0);
        assert_eq!(l.nnz(), 2);
    }
}
