//! Graph substrate for the `tracered` workspace.
//!
//! Provides the weighted undirected [`Graph`] type and everything the
//! trace-reduction sparsifier needs around it:
//!
//! - Laplacian assembly with configurable diagonal shifts ([`laplacian`]);
//! - synthetic mesh generators standing in for the paper's SuiteSparse
//!   test matrices ([`gen`]);
//! - Matrix Market import/export ([`mmio`]);
//! - union-find ([`unionfind`]) and maximum effective-weight spanning
//!   trees ([`mst`], feGRASS's MEWST);
//! - rooted-tree utilities with effective resistances and preorder
//!   intervals ([`tree`]), plus Tarjan's offline LCA ([`lca`]);
//! - one bounded BFS ([`bfs`]) serving the subgraph phase's β-ball
//!   table (the paper's truncated trace reduction), the scoring
//!   evaluators' locality order and similarity exclusion's γ-layer
//!   marking.
//!
//! # Example
//!
//! ```
//! use tracered_graph::gen::{grid2d, WeightProfile};
//! use tracered_graph::laplacian::{laplacian, ShiftPolicy};
//!
//! let g = grid2d(4, 4, WeightProfile::Unit, 1);
//! assert_eq!(g.num_nodes(), 16);
//! assert_eq!(g.num_edges(), 24);
//! let l = laplacian(&g, ShiftPolicy::Uniform(1e-6)).unwrap();
//! assert_eq!(l.ncols(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod error;
pub mod gen;
pub mod graph;
pub mod laplacian;
pub mod lca;
pub mod mmio;
pub mod mst;
pub mod tree;
pub mod unionfind;

pub use error::GraphError;
pub use graph::{Edge, Graph};
pub use tree::RootedTree;
pub use unionfind::UnionFind;
