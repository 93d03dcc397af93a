//! Graph spectral sparsification via **approximate trace reduction** —
//! a from-scratch reproduction of Liu & Yu, *"Pursuing More Effective
//! Graph Spectral Sparsifiers via Approximate Trace Reduction"*, DAC 2022.
//!
//! # The algorithm in one paragraph
//!
//! A spectral sparsifier `P` of a graph `G` is an ultra-sparse subgraph
//! whose Laplacian preconditions `L_G` well — i.e. the relative condition
//! number `κ(L_G, L_P)` is small. Since
//! `κ(L_G, L_P) = λ_max(L_P⁻¹ L_G) ≤ Trace(L_P⁻¹ L_G)` (all generalized
//! eigenvalues are ≥ 1 once both Laplacians share a small diagonal shift),
//! the paper proposes ranking each off-subgraph edge by how much its
//! recovery *reduces that trace* — an exact Sherman–Morrison quantity
//! (its Eq. 11) — and makes the metric affordable with two tricks:
//! a physics-inspired **β-layer truncation** of the inner summation
//! (Eq. 12), and a structure-aware **sparse approximate inverse of the
//! Cholesky factor** (Algorithm 1) for scoring against general subgraphs.
//! The sparsifier is grown from a low-stretch spanning tree by iterative
//! densification with feGRASS-style exclusion of spectrally similar edges
//! (Algorithm 2).
//!
//! # Quick start
//!
//! ```
//! use tracered_core::{sparsify, Method, SparsifyConfig};
//! use tracered_graph::gen::{grid2d, WeightProfile};
//!
//! # fn main() -> Result<(), tracered_core::CoreError> {
//! let g = grid2d(20, 20, WeightProfile::Unit, 7);
//! let cfg = SparsifyConfig::new(Method::TraceReduction);
//! let sp = sparsify(&g, &cfg)?;
//! // Tree plus ~10% |V| recovered off-tree edges.
//! assert!(sp.edge_ids().len() >= g.num_nodes() - 1);
//! # Ok(())
//! # }
//! ```
//!
//! The [`metrics`] module estimates `κ(L_G, L_P)` and the trace proxy, and
//! the [`exact`] module provides dense oracles used by the test suite to
//! validate every approximation in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[warn(clippy::unwrap_used)]
pub mod config;
pub mod criticality;
pub mod error;
pub mod exact;
pub mod grass;
pub mod jl;
pub mod metrics;
#[warn(clippy::unwrap_used)]
pub mod partitioned;
pub mod similarity;
#[warn(clippy::unwrap_used)]
pub mod sparsify;

pub use config::{Method, SparsifyConfig};
pub use error::CoreError;
pub use partitioned::{
    sparsify_partitioned, BoundaryPolicy, PartitionStats, PartitionedConfig, PartitionedReport,
    PartitionedSparsifier,
};
pub use sparsify::{sparsify, IterationStats, Sparsifier, SparsifyReport};

// Shared-handle audit: the service layer keeps `Arc<Sparsifier>` handles
// alive across epochs and hands them to concurrent request handlers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sparsifier>();
    assert_send_sync::<SparsifyConfig>();
};
