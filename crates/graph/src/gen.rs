//! Synthetic graph generators.
//!
//! The paper evaluates on SuiteSparse matrices (2-D/3-D meshes and
//! triangular FEM meshes: `ecology2`, `thermal2`, `parabolic_fem`,
//! `tmt_sym`, `G3_circuit`, `NACA0015`, `M6`, `333SP`, `AS365`, `NLR`).
//! Those files are not redistributable inside this workspace, so the
//! generators below produce structurally equivalent families at arbitrary
//! scale — 5-point 2-D grids, 7-point 3-D grids and 6-point triangulated
//! meshes — with configurable weight distributions. Real `.mtx` files can
//! still be used through [`crate::mmio`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::Graph;

/// Node count `Π dims` and edge capacity `per_node · Π dims` of a
/// generator's lattice; panics, naming the generator, if either
/// overflows `usize`.
fn lattice_size(generator: &str, dims: &[usize], per_node: usize) -> (usize, usize) {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .and_then(|nodes| Some((nodes, nodes.checked_mul(per_node)?)))
        .unwrap_or_else(|| panic!("{generator}: a {dims:?} lattice overflows usize"))
}

/// Distribution of edge weights used by the generators.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WeightProfile {
    /// All weights 1 (pure topology).
    Unit,
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Lower bound (must be > 0).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Log-uniform in `[lo, hi)` — heavy-tailed conductances as seen in
    /// circuit matrices.
    LogUniform {
        /// Lower bound (must be > 0).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl WeightProfile {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            WeightProfile::Unit => 1.0,
            WeightProfile::Uniform { lo, hi } => rng.random_range(lo..hi),
            WeightProfile::LogUniform { lo, hi } => {
                let (a, b) = (lo.ln(), hi.ln());
                rng.random_range(a..b).exp()
            }
        }
    }
}

/// 2-D grid graph (5-point stencil), `rows × cols` nodes.
///
/// Structural analog of `ecology2` / `tmt_sym` / `G3_circuit`.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`, or if the node or edge count
/// overflows `usize`.
pub fn grid2d(rows: usize, cols: usize, profile: WeightProfile, seed: u64) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |r: usize, c: usize| r * cols + c;
    let (nodes, capacity) = lattice_size("grid2d", &[rows, cols], 2);
    let mut edges = Vec::with_capacity(capacity);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), profile.sample(&mut rng)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), profile.sample(&mut rng)));
            }
        }
    }
    Graph::from_edges(nodes, &edges).expect("generator produces valid edges")
}

/// 3-D grid graph (7-point stencil), `nx × ny × nz` nodes.
///
/// Structural analog of `thermal2` / `parabolic_fem`.
///
/// # Panics
///
/// Panics if any dimension is zero, or if the node or edge count
/// overflows `usize`.
pub fn grid3d(nx: usize, ny: usize, nz: usize, profile: WeightProfile, seed: u64) -> Graph {
    assert!(nx > 0 && ny > 0 && nz > 0, "grid dimensions must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let (nodes, capacity) = lattice_size("grid3d", &[nx, ny, nz], 3);
    let mut edges = Vec::with_capacity(capacity);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y, z), id(x + 1, y, z), profile.sample(&mut rng)));
                }
                if y + 1 < ny {
                    edges.push((id(x, y, z), id(x, y + 1, z), profile.sample(&mut rng)));
                }
                if z + 1 < nz {
                    edges.push((id(x, y, z), id(x, y, z + 1), profile.sample(&mut rng)));
                }
            }
        }
    }
    Graph::from_edges(nodes, &edges).expect("generator produces valid edges")
}

/// Triangulated 2-D mesh (grid plus one diagonal per cell, 6-point interior
/// stencil) — the structural analog of the paper's 2-D finite-element
/// triangular meshes (`NACA0015`, `M6`, `AS365`, `NLR`, `333SP`).
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`, or if the node or edge count
/// overflows `usize`.
pub fn tri_mesh(rows: usize, cols: usize, profile: WeightProfile, seed: u64) -> Graph {
    assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |r: usize, c: usize| r * cols + c;
    let (nodes, capacity) = lattice_size("tri_mesh", &[rows, cols], 3);
    let mut edges = Vec::with_capacity(capacity);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), profile.sample(&mut rng)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), profile.sample(&mut rng)));
            }
            if r + 1 < rows && c + 1 < cols {
                edges.push((id(r, c), id(r + 1, c + 1), profile.sample(&mut rng)));
            }
        }
    }
    Graph::from_edges(nodes, &edges).expect("generator produces valid edges")
}

/// Random connected graph: a random spanning tree plus `extra_edges`
/// uniform random chords. Used heavily by tests.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected(n: usize, extra_edges: usize, profile: WeightProfile, seed: u64) -> Graph {
    assert!(n > 0, "graph must have at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n - 1 + extra_edges);
    // Random attachment tree.
    for v in 1..n {
        let u = rng.random_range(0..v);
        edges.push((u, v, profile.sample(&mut rng)));
    }
    let mut added = 0;
    let mut guard = 0;
    while added < extra_edges && guard < 100 * extra_edges + 100 {
        guard += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            edges.push((u, v, profile.sample(&mut rng)));
            added += 1;
        }
    }
    Graph::from_edges(n, &edges).expect("generator produces valid edges")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_counts() {
        let g = grid2d(3, 4, WeightProfile::Unit, 0);
        assert_eq!(g.num_nodes(), 12);
        // Horizontal: 3*3, vertical: 2*4.
        assert_eq!(g.num_edges(), 9 + 8);
        assert!(g.is_connected());
    }

    #[test]
    fn grid3d_counts() {
        let g = grid3d(2, 3, 4, WeightProfile::Unit, 0);
        assert_eq!(g.num_nodes(), 24);
        #[allow(clippy::identity_op)] // 1·3·4 mirrors the (dims−1)·… structure
        let expected = 1 * 3 * 4 + 2 * 2 * 4 + 2 * 3 * 3;
        assert_eq!(g.num_edges(), expected);
        assert!(g.is_connected());
    }

    #[test]
    fn tri_mesh_counts_and_interior_degree() {
        let g = tri_mesh(4, 4, WeightProfile::Unit, 0);
        assert_eq!(g.num_nodes(), 16);
        assert_eq!(g.num_edges(), 12 + 12 + 9);
        // An interior node of a triangulated grid has degree 6.
        assert_eq!(g.degree(5), 6);
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "grid2d: a [8589934592, 8589934592] lattice overflows usize")]
    fn grid2d_rejects_an_overflowing_size() {
        grid2d(1 << 33, 1 << 33, WeightProfile::Unit, 0);
    }

    #[test]
    #[should_panic(expected = "grid3d: a [4194304, 4194304, 4194304] lattice overflows usize")]
    fn grid3d_rejects_an_overflowing_size() {
        grid3d(1 << 22, 1 << 22, 1 << 22, WeightProfile::Unit, 0);
    }

    #[test]
    #[should_panic(expected = "tri_mesh: a [8589934592, 8589934592] lattice overflows usize")]
    fn tri_mesh_rejects_an_overflowing_size() {
        tri_mesh(1 << 33, 1 << 33, WeightProfile::Unit, 0);
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected(50, 30, WeightProfile::LogUniform { lo: 0.1, hi: 10.0 }, seed);
            assert!(g.is_connected());
            assert_eq!(g.num_edges(), 49 + 30);
        }
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        let a = grid2d(5, 5, WeightProfile::Uniform { lo: 0.5, hi: 2.0 }, 42);
        let b = grid2d(5, 5, WeightProfile::Uniform { lo: 0.5, hi: 2.0 }, 42);
        assert_eq!(a, b);
        let c = grid2d(5, 5, WeightProfile::Uniform { lo: 0.5, hi: 2.0 }, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn weight_profiles_respect_bounds() {
        let g = grid2d(6, 6, WeightProfile::LogUniform { lo: 0.01, hi: 100.0 }, 7);
        for e in g.edges() {
            assert!(e.weight >= 0.01 && e.weight < 100.0);
        }
        let u = grid2d(6, 6, WeightProfile::Uniform { lo: 1.0, hi: 2.0 }, 7);
        for e in u.edges() {
            assert!(e.weight >= 1.0 && e.weight < 2.0);
        }
    }

    #[test]
    fn unit_profile_gives_unit_weights() {
        let g = tri_mesh(3, 3, WeightProfile::Unit, 0);
        assert!(g.edges().iter().all(|e| e.weight == 1.0));
    }
}
