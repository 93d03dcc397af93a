//! The service handle and its clients.
//!
//! [`SolverService::start`] spawns the aggregator thread and returns the
//! owning handle; [`SolverService::client`] mints cheap, cloneable
//! [`ServiceClient`]s that any thread can submit through. Publishing a
//! context ([`SolverService::publish`]) factorizes outside the state
//! lock, consults the factor cache, and atomically bumps the epoch —
//! requests already being solved finish on the epoch snapshot they
//! started with.

use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tracered_solver::SolverContext;
use tracered_sparse::order::Ordering;
use tracered_sparse::{BoostSchedule, FactorOptions, SparseError};

use crate::aggregator;
use crate::context::{CacheKey, ContextSpec, EpochState, PublishedContext};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::request::{RequestKind, ServiceError, ServiceRequest, ServiceResult, Ticket};

/// Tuning knobs of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most requests one blocked kernel invocation may serve (also the
    /// column count cap of the underlying multi-RHS solves).
    pub max_batch_width: usize,
    /// How long the aggregator lingers for batch-mates once a request is
    /// at the head of the queue. Zero disables lingering: batches only
    /// form from requests that are already queued together.
    pub max_linger: Duration,
    /// Worker threads for the PCG kernels. The kernels are bit-identical
    /// at every thread count, so this changes only wall-clock time,
    /// never a response.
    pub solver_threads: usize,
    /// Worker threads for factorizations (context builds and the lazy
    /// direct factor). Factorization is bit-identical at every count.
    pub factor_threads: usize,
    /// Iteration cap for PCG requests.
    pub max_iterations: usize,
    /// Diagonal-boost ladder for factorizations performed by the
    /// service.
    pub boost: BoostSchedule,
    /// Fill-reducing ordering for factorizations performed by the
    /// service (context builds and lazy direct factors).
    pub ordering: Ordering,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch_width: 8,
            max_linger: Duration::from_micros(200),
            solver_threads: 1,
            factor_threads: 1,
            max_iterations: 10_000,
            boost: BoostSchedule::default(),
            ordering: Ordering::MinDegree,
        }
    }
}

/// One queued request: what to do, the epoch pin, where to answer, and
/// when it was accepted (feeds the end-to-end latency histogram).
pub(crate) struct Pending {
    pub kind: RequestKind,
    pub pinned: Option<u64>,
    pub reply: Sender<ServiceResult>,
    pub enqueued: Instant,
}

/// Front-end channel protocol.
pub(crate) enum Msg {
    /// One request.
    One(Pending),
    /// An atomic group: all members enter the queue back-to-back, so
    /// compatible members deterministically share batches (up to the
    /// width cap) regardless of client/aggregator interleaving.
    Many(Vec<Pending>),
    /// Stop after answering everything already queued.
    Shutdown,
}

/// State shared between the service handle, its clients, and the
/// aggregator thread.
pub(crate) struct Shared {
    pub state: Mutex<EpochState>,
    pub metrics: ServiceMetrics,
}

/// A long-running solver service: immutable `Arc`'d factors underneath,
/// a channel front-end on top, and a dedicated aggregator thread
/// micro-batching compatible requests in between.
///
/// Dropping the handle shuts the service down gracefully: queued
/// requests are answered first, then the aggregator thread exits and is
/// joined.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tracered_graph::gen::{grid2d, WeightProfile};
/// use tracered_graph::laplacian::laplacian_with_shifts;
/// use tracered_service::{ContextSpec, ServiceConfig, ServiceRequest, SolverService};
///
/// let g = grid2d(8, 8, WeightProfile::Unit, 3);
/// let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 64]));
/// let svc = SolverService::start(ServiceConfig::default());
/// svc.publish(ContextSpec::new(Arc::clone(&a), a)).unwrap();
/// let client = svc.client();
/// let ticket = client.submit(ServiceRequest::pcg(vec![1.0; 64], 1e-8));
/// let outcome = ticket.wait().unwrap().into_solve().unwrap();
/// assert!(outcome.converged);
/// ```
pub struct SolverService {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
    cfg: ServiceConfig,
    worker: Option<thread::JoinHandle<()>>,
}

impl SolverService {
    /// Starts the aggregator thread and returns the owning handle.
    pub fn start(cfg: ServiceConfig) -> Self {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            state: Mutex::new(EpochState::default()),
            metrics: ServiceMetrics::default(),
        });
        let shared_for_worker = Arc::clone(&shared);
        let cfg_for_worker = cfg.clone();
        let worker = thread::Builder::new()
            .name("tracered-aggregator".into())
            .spawn(move || aggregator::run(rx, shared_for_worker, cfg_for_worker))
            .expect("spawning the aggregator thread failed");
        SolverService { tx, shared, cfg, worker: Some(worker) }
    }

    /// A cheap, cloneable submission handle for this service.
    pub fn client(&self) -> ServiceClient {
        ServiceClient { tx: self.tx.clone(), shared: Arc::clone(&self.shared) }
    }

    /// Builds (or retrieves from the factor cache) a solver context for
    /// `spec` and atomically installs it as the new current epoch.
    /// Returns the new epoch number — hand it to
    /// [`ServiceRequest::pinned`] to make requests topology-safe.
    ///
    /// The factorization runs *outside* the state lock; requests keep
    /// being served against the previous epoch until the swap, and
    /// batches in flight at the swap finish on their snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Solver`] wrapping the underlying
    /// [`SparseError`] when the spec is malformed (shape mismatch, bad
    /// probes, non-finite entries) or the preconditioner factorization
    /// fails on every boost rung.
    pub fn publish(&self, spec: ContextSpec) -> Result<u64, ServiceError> {
        let n = spec.system.ncols();
        if let Some(grid) = &spec.grid {
            if grid.grid.num_nodes() != n {
                return Err(ServiceError::Solver(SparseError::DimensionMismatch {
                    expected: n,
                    found: grid.grid.num_nodes(),
                }));
            }
            if let Some(&bad) = grid.probes.iter().find(|&&p| p >= n) {
                return Err(ServiceError::Solver(SparseError::InvalidValue {
                    what: format!("probe node {bad} out of bounds for {n} nodes"),
                }));
            }
        }
        let key = CacheKey {
            system_fp: spec.system.fingerprint(),
            precond_fp: spec.precond_matrix.fingerprint(),
            config_tag: spec.config_tag,
        };
        let cached = {
            let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.cache.get(&key).cloned()
        };
        let ctx = match cached {
            Some(ctx) => {
                self.shared.metrics.cache_hits.inc();
                ctx
            }
            None => {
                self.shared.metrics.cache_misses.inc();
                // Factorize outside the lock: publishing a big topology
                // must not stall request service on the old epoch.
                let opts = FactorOptions {
                    ordering: self.cfg.ordering,
                    threads: self.cfg.factor_threads,
                    boost: Some(self.cfg.boost),
                };
                let built = SolverContext::build(
                    Arc::clone(&spec.system),
                    Arc::clone(&spec.precond_matrix),
                    opts,
                )
                .map(Arc::new)
                .map_err(ServiceError::Solver)?;
                let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
                state.cache.entry(key).or_insert(built).clone()
            }
        };
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.epoch += 1;
        let epoch = state.epoch;
        state.current = Some(PublishedContext { ctx, grid: spec.grid.map(Arc::new), epoch });
        self.shared.metrics.publishes.inc();
        Ok(epoch)
    }

    /// An [`crate::ContingencyInvalidator`] bound to this service: hand
    /// it to [`tracered_powergrid::simulate_contingency_batch`] so every
    /// applied/reverted outage bumps the service epoch and stales
    /// pinned requests instead of answering them from a factor built
    /// for the unperturbed topology.
    pub fn contingency_hook(&self) -> crate::ContingencyInvalidator {
        crate::ContingencyInvalidator::new(Arc::clone(&self.shared))
    }

    /// The current epoch number, or `None` before the first publish.
    pub fn current_epoch(&self) -> Option<u64> {
        let state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.current.as_ref().map(|p| p.epoch)
    }

    /// A point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Graceful shutdown: answers everything queued, then joins the
    /// aggregator thread. Equivalent to dropping the handle, but
    /// explicit at call sites that care about ordering.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A cloneable submission handle. Clients are `Send + Sync`; any number
/// of threads may submit concurrently, and each submission gets its own
/// [`Ticket`].
#[derive(Clone)]
pub struct ServiceClient {
    tx: Sender<Msg>,
    shared: Arc<Shared>,
}

impl ServiceClient {
    fn pending(&self, req: ServiceRequest) -> (Pending, Ticket) {
        self.shared.metrics.submitted.inc();
        self.shared.metrics.queue_depth.inc();
        let (reply, rx) = mpsc::channel();
        let pending =
            Pending { kind: req.kind, pinned: req.pinned_epoch, reply, enqueued: Instant::now() };
        (pending, Ticket { rx })
    }

    /// Submits one request. The returned [`Ticket`] resolves to
    /// [`ServiceError::ServiceStopped`] if the service shuts down before
    /// answering.
    pub fn submit(&self, req: ServiceRequest) -> Ticket {
        let (pending, ticket) = self.pending(req);
        let _ = self.tx.send(Msg::One(pending));
        ticket
    }

    /// Submits a group of requests that enter the queue back-to-back
    /// (one channel message), making batch composition deterministic:
    /// compatible neighbours share batches up to the width cap no matter
    /// how the aggregator's draining interleaves with other clients.
    pub fn submit_many(&self, reqs: Vec<ServiceRequest>) -> Vec<Ticket> {
        let mut pendings = Vec::with_capacity(reqs.len());
        let mut tickets = Vec::with_capacity(reqs.len());
        for req in reqs {
            let (pending, ticket) = self.pending(req);
            pendings.push(pending);
            tickets.push(ticket);
        }
        let _ = self.tx.send(Msg::Many(pendings));
        tickets
    }

    /// Submit-and-wait convenience for callers without concurrency.
    pub fn solve(&self, req: ServiceRequest) -> ServiceResult {
        self.submit(req).wait()
    }

    /// A point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}
