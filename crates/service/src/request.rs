//! Request and response types of the solver service.
//!
//! A [`ServiceRequest`] describes one unit of work — a linear solve
//! against the published system matrix or a transient simulation of the
//! published grid — and travels through the channel front-end to the
//! aggregator. Responses come back through a per-request [`Ticket`] as a
//! [`ServiceResult`]: a typed [`ServiceResponse`] on success, a typed
//! [`ServiceError`] otherwise. A faulted request fails *alone*; its
//! batch-mates complete unaffected (the per-column independence of
//! [`tracered_solver::block_pcg`] makes that free at the solver layer).

use std::sync::mpsc;

use tracered_powergrid::transient::{ScenarioOutcome, SourceScenario};
use tracered_solver::TerminationReason;
use tracered_sparse::SparseError;

/// Which solve engine a request targets. Requests only share a batch
/// when their engines match (see [`crate::SolverService`] docs for the
/// full compatibility key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Blocked preconditioned conjugate gradient against the published
    /// context's preconditioner.
    Pcg,
    /// Multi-RHS substitutions against a direct factorization of the
    /// published system matrix (built lazily, shared afterwards).
    Direct,
}

/// The right-hand side of a solve request: materialized up front, or
/// deferred to a closure the aggregator evaluates at batch-assembly time
/// (under `catch_unwind`, so a panicking closure fails only its own
/// request).
pub(crate) enum RhsSource {
    Ready(Vec<f64>),
    Deferred(Box<dyn FnOnce() -> Vec<f64> + Send>),
}

/// What a request asks for.
pub(crate) enum RequestKind {
    Solve { rhs: RhsSource, engine: EngineKind, tol_bits: u64 },
    Simulate { scenario: SourceScenario },
}

/// One unit of work submitted through a [`crate::ServiceClient`].
pub struct ServiceRequest {
    pub(crate) kind: RequestKind,
    pub(crate) pinned_epoch: Option<u64>,
}

impl ServiceRequest {
    /// A PCG solve of `A x = b` at the given relative tolerance. The
    /// tolerance is part of the compatibility key: only requests with
    /// bit-identical tolerances share a batch, so batching can never
    /// change what "converged" means for a request.
    pub fn pcg(rhs: Vec<f64>, rel_tolerance: f64) -> Self {
        ServiceRequest {
            kind: RequestKind::Solve {
                rhs: RhsSource::Ready(rhs),
                engine: EngineKind::Pcg,
                tol_bits: rel_tolerance.to_bits(),
            },
            pinned_epoch: None,
        }
    }

    /// [`ServiceRequest::pcg`] with the right-hand side produced by a
    /// closure on the aggregator thread. A panic in the closure becomes
    /// [`ServiceError::RequestPanicked`] for this request only.
    pub fn pcg_deferred(
        rhs: impl FnOnce() -> Vec<f64> + Send + 'static,
        rel_tolerance: f64,
    ) -> Self {
        ServiceRequest {
            kind: RequestKind::Solve {
                rhs: RhsSource::Deferred(Box::new(rhs)),
                engine: EngineKind::Pcg,
                tol_bits: rel_tolerance.to_bits(),
            },
            pinned_epoch: None,
        }
    }

    /// A direct solve through the published context's (lazily built,
    /// then shared) Cholesky factorization of the system matrix.
    pub fn direct(rhs: Vec<f64>) -> Self {
        ServiceRequest {
            kind: RequestKind::Solve {
                rhs: RhsSource::Ready(rhs),
                engine: EngineKind::Direct,
                tol_bits: 0,
            },
            pinned_epoch: None,
        }
    }

    /// A transient simulation of one [`SourceScenario`] against the
    /// published grid context. Compatible simulate requests are grouped
    /// into one [`tracered_powergrid::transient::simulate_pcg_batch_outcomes`]
    /// call — the PR 2/PR 6 machinery this service was built to feed.
    pub fn simulate(scenario: SourceScenario) -> Self {
        ServiceRequest { kind: RequestKind::Simulate { scenario }, pinned_epoch: None }
    }

    /// Pins the request to a context epoch: if the published epoch has
    /// moved on by the time the request would be batched, it fails with
    /// [`ServiceError::StaleEpoch`] instead of silently running against
    /// a topology it was not written for.
    pub fn pinned(mut self, epoch: u64) -> Self {
        self.pinned_epoch = Some(epoch);
        self
    }
}

/// Per-request outcome of a batched linear solve. `x` is bit-identical
/// to what a one-request batch would have produced (per-column
/// recurrences are independent); `batch_width` records how many
/// batch-mates actually shared the blocked solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The computed solution.
    pub x: Vec<f64>,
    /// PCG iterations this request's column performed (0 for direct).
    pub iterations: usize,
    /// Final relative residual of the column.
    pub rel_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Why the column stopped — the PR 6 classification, per request.
    pub reason: TerminationReason,
    /// Context epoch the solve ran against.
    pub epoch: u64,
    /// Number of requests that shared the blocked solve.
    pub batch_width: usize,
}

/// Per-request outcome of a batched transient simulation.
#[derive(Debug, Clone)]
pub struct SimulateOutcome {
    /// The scenario's outcome — [`ScenarioOutcome::Failed`] carries the
    /// typed per-scenario failure of PR 6, and never aborts batch-mates.
    pub outcome: ScenarioOutcome,
    /// Context epoch the simulation ran against.
    pub epoch: u64,
    /// Number of scenarios that shared the batch.
    pub batch_width: usize,
}

/// A successful service response.
#[derive(Debug, Clone)]
pub enum ServiceResponse {
    /// Response to a [`ServiceRequest::pcg`] / [`ServiceRequest::direct`].
    Solve(SolveOutcome),
    /// Response to a [`ServiceRequest::simulate`].
    Simulate(SimulateOutcome),
}

impl ServiceResponse {
    /// The solve outcome, if this was a solve request.
    pub fn into_solve(self) -> Option<SolveOutcome> {
        match self {
            ServiceResponse::Solve(s) => Some(s),
            ServiceResponse::Simulate(_) => None,
        }
    }

    /// The simulate outcome, if this was a simulate request.
    pub fn into_simulate(self) -> Option<SimulateOutcome> {
        match self {
            ServiceResponse::Solve(_) => None,
            ServiceResponse::Simulate(s) => Some(s),
        }
    }
}

/// Typed per-request failures. Every variant fails exactly one request;
/// the aggregator itself never panics and keeps serving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// No context has been published yet.
    NoContext,
    /// The request needs a grid context, but the published context has
    /// no grid attached.
    NoGridContext,
    /// The request was pinned to an epoch the service has moved past
    /// (or has not reached).
    StaleEpoch {
        /// The epoch the request was pinned to.
        pinned: u64,
        /// The epoch that was current when the request was batched.
        current: u64,
    },
    /// The right-hand side length disagrees with the published system.
    WrongLength {
        /// Published system dimension.
        expected: usize,
        /// Submitted right-hand-side length.
        found: usize,
    },
    /// The right-hand side contained a NaN/Inf entry.
    NonFiniteRhs {
        /// Index of the first non-finite entry.
        index: usize,
    },
    /// A deferred right-hand-side closure panicked; only this request
    /// fails, and the aggregator keeps serving.
    RequestPanicked,
    /// The solve kernel itself panicked; every request of the batch
    /// fails typed, and the aggregator keeps serving.
    BatchPanicked,
    /// A shared solver failure (e.g. the direct factorization of the
    /// system matrix failed on every rung of the boost ladder).
    Solver(SparseError),
    /// The service shut down before answering.
    ServiceStopped,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NoContext => write!(f, "no solver context has been published"),
            ServiceError::NoGridContext => {
                write!(f, "the published context has no grid attached")
            }
            ServiceError::StaleEpoch { pinned, current } => {
                write!(f, "request pinned to epoch {pinned}, but epoch {current} is current")
            }
            ServiceError::WrongLength { expected, found } => {
                write!(f, "right-hand side has {found} entries, system has {expected}")
            }
            ServiceError::NonFiniteRhs { index } => {
                write!(f, "non-finite right-hand-side entry at index {index}")
            }
            ServiceError::RequestPanicked => {
                write!(f, "the request's right-hand-side closure panicked")
            }
            ServiceError::BatchPanicked => write!(f, "the batch solve kernel panicked"),
            ServiceError::Solver(e) => write!(f, "solver failure: {e}"),
            ServiceError::ServiceStopped => write!(f, "the service stopped before answering"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

/// What a [`Ticket`] resolves to.
pub type ServiceResult = Result<ServiceResponse, ServiceError>;

/// A handle to one in-flight request. Dropping the ticket abandons the
/// response (the solve still runs with its batch).
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<ServiceResult>,
}

impl Ticket {
    /// Blocks until the request is answered. Resolves to
    /// [`ServiceError::ServiceStopped`] if the service shut down first.
    pub fn wait(self) -> ServiceResult {
        self.rx.recv().unwrap_or(Err(ServiceError::ServiceStopped))
    }
}
