//! Sparse linear-algebra substrate for the `tracered` workspace.
//!
//! This crate implements, from scratch, everything the trace-reduction
//! sparsifier of Liu & Yu (DAC 2022) needs from a sparse direct solver:
//!
//! - triplet ([`CooMatrix`]) and compressed-column ([`CscMatrix`])
//!   storage with conversions;
//! - fill-reducing orderings (approximate minimum degree and nested
//!   dissection) in [`order`];
//! - an elimination-tree based symbolic analysis ([`etree`]) and a
//!   numeric sparse Cholesky factorization ([`chol`]) in the style of
//!   CSparse/CHOLMOD — up-looking on thin factors, supernodal panels
//!   ([`supernode`]) on fat ones — steered by one [`FactorOptions`] (ordering,
//!   threads, diagonal-boost ladder) through
//!   [`CholeskyFactor::factorize`]; its subtree-scheduled parallel
//!   numeric path factors independent elimination-tree subtrees
//!   concurrently and is bit-identical to the serial kernel at every
//!   thread count;
//! - sparse triangular solves and a convenience SDD solver;
//! - CHOLMOD-style sparse rank-1 update/downdate of a factor in place
//!   ([`update`]), with elimination-tree pattern growth, typed
//!   loss-of-positive-definiteness errors, and a bit-exact undo journal
//!   for apply/revert sweeps (contingency screening);
//! - the paper's **Algorithm 1**: a structure-aware sparse approximate
//!   inverse of the Cholesky factor ([`spai`]);
//! - a small dense-matrix module ([`dense`]) used as a test oracle;
//! - a column-major multi-vector ([`multivec`]) with blocked multi-RHS
//!   kernels: batched triangular solves ([`CholeskyFactor::solve_multi`])
//!   and symmetric SpMM ([`CscMatrix::mul_multi`],
//!   [`CscMatrix::sym_mul_multi_into_threads`]) that stream the sparse
//!   operand once per batch.
//!
//! # Example
//!
//! ```
//! use tracered_sparse::{CooMatrix, CholeskyFactor, order::Ordering};
//!
//! # fn main() -> Result<(), tracered_sparse::SparseError> {
//! // A tiny SPD matrix (a shifted path-graph Laplacian).
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0)?; coo.push(1, 1, 3.0)?; coo.push(2, 2, 2.0)?;
//! coo.push(0, 1, -1.0)?; coo.push(1, 0, -1.0)?;
//! coo.push(1, 2, -1.0)?; coo.push(2, 1, -1.0)?;
//! let a = coo.to_csc();
//!
//! let factor = CholeskyFactor::factorize(&a, Ordering::MinDegree)?;
//! let x = factor.solve(&[1.0, 2.0, 3.0]);
//! let r = a.residual_inf_norm(&x, &[1.0, 2.0, 3.0]);
//! assert!(r < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Numeric kernels walk several parallel arrays (colptr/rowidx/values) by
// position; index loops are the clearer idiom there.
#![allow(clippy::needless_range_loop)]

pub mod chol;
pub mod coo;
pub mod csc;
pub mod dense;
pub mod error;
pub mod etree;
pub mod ichol;
pub mod multivec;
pub mod order;
pub mod perm;
pub mod regularize;
pub mod spai;
pub mod sparsevec;
pub mod supernode;
pub mod update;

pub use chol::{CholeskyFactor, FactorOptions};
pub use coo::CooMatrix;
pub use csc::{par_axpy, par_dot, par_xpby, CscMatrix};
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use multivec::MultiVec;
pub use perm::Permutation;
pub use regularize::{scan_non_finite, BoostSchedule};
pub use spai::{ApproxInverse, SpaiOptions};
pub use supernode::{KernelVariant, SupernodePartition};
pub use update::UpdateReport;

// Shared-handle audit: the service layer hands `Arc`'d matrices and
// factors to concurrent request handlers, so the core storage types must
// stay `Send + Sync`. A field of interior mutability or a raw pointer
// added later breaks the build here, not in production.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CscMatrix>();
    assert_send_sync::<CholeskyFactor>();
    assert_send_sync::<MultiVec>();
    assert_send_sync::<BoostSchedule>();
};
