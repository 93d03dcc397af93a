//! Iterative and direct solvers for SDD systems, built around the
//! `tracered` sparsifiers.
//!
//! - [`mod@pcg`]: preconditioned conjugate gradient with pluggable
//!   preconditioners — the paper evaluates its sparsifiers by the PCG
//!   iteration counts and runtimes they produce;
//! - [`block`]: blocked PCG over batches of right-hand sides — one SpMM
//!   and one multi-column preconditioner apply per iteration, with
//!   per-column convergence tracking and deflation of converged columns;
//! - [`precond`]: identity / Jacobi / Cholesky-of-sparsifier
//!   preconditioners;
//! - [`direct`]: a convenience direct solver (ordering + factorization +
//!   substitutions), the "Direct" baseline of the paper's Tables 2–3;
//! - [`eigen`]: inverse power iteration for the Fiedler vector (spectral
//!   partitioning, Table 3);
//! - [`termination`]: the classified [`TerminationReason`] taxonomy every
//!   iterative solve reports instead of silently breaking down;
//! - [`robust`]: the [`robust_solve`] escalation chain — PCG → refreshed
//!   boosted preconditioner → direct solve, with per-attempt diagnostics;
//! - [`context`]: `Arc`-shared immutable solver contexts
//!   ([`SolverContext`]) — factorize once, serve many; the ownership
//!   layer under `tracered-service`.
//!
//! # Example
//!
//! ```
//! use tracered_core::{sparsify, SparsifyConfig};
//! use tracered_graph::gen::{grid2d, WeightProfile};
//! use tracered_solver::pcg::{pcg, PcgOptions};
//! use tracered_solver::precond::CholPreconditioner;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = grid2d(12, 12, WeightProfile::Unit, 1);
//! let sp = sparsify(&g, &SparsifyConfig::default())?;
//! let lg = sp.graph_laplacian(&g);
//! let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g))?;
//! let b = vec![1.0; g.num_nodes()];
//! let sol = pcg(&lg, &b, &pre, &PcgOptions::default());
//! assert!(sol.converged);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[warn(clippy::unwrap_used)]
pub mod block;
#[warn(clippy::unwrap_used)]
pub mod context;
pub mod direct;
pub mod eigen;
#[warn(clippy::unwrap_used)]
pub mod pcg;
pub mod precond;
pub mod robust;
#[warn(clippy::unwrap_used)]
pub mod termination;

pub use block::{block_pcg, block_pcg_with_guess, BlockPcgSolution};
pub use context::SolverContext;
pub use direct::DirectSolver;
pub use pcg::{pcg, PcgOptions, PcgSolution};
pub use precond::{
    CholPreconditioner, IcPreconditioner, IdentityPreconditioner, JacobiPreconditioner,
    Preconditioner,
};
pub use robust::{robust_solve, RobustSolution, RobustSolveConfig, SolveAttempt, SolveStrategy};
pub use termination::TerminationReason;
