//! Lock-free service instrumentation.
//!
//! Every interesting event in the service — a submission, a batch, a
//! cache hit, an isolated fault — bumps a typed [`tracered_obs`]
//! instrument here: relaxed-atomic counters for totals, a gauge for the
//! live queue depth, and log-scale histograms for end-to-end latency and
//! per-batch linger. The aggregator publishes through these instruments
//! and never blocks on them; [`MetricsSnapshot`] is the
//! consistent-enough view handed to callers.

use tracered_obs::{Counter, Gauge, Histogram, HistogramSummary, Watermark};

/// Internal instruments (one instance lives in the service's shared
/// state; all threads bump it with relaxed ordering). Instruments are
/// per-service, not process-global: two services in one process keep
/// independent books.
#[derive(Debug, Default)]
pub(crate) struct ServiceMetrics {
    pub submitted: Counter,
    pub completed: Counter,
    pub failed: Counter,
    pub batches: Counter,
    pub batched_requests: Counter,
    pub max_batch_width: Watermark,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub stale_rejections: Counter,
    pub faults_isolated: Counter,
    pub publishes: Counter,
    pub outages_applied: Counter,
    pub update_fallbacks: Counter,
    /// Requests accepted but not yet answered (incremented at submit,
    /// decremented when the reply is sent — on every exit path).
    pub queue_depth: Gauge,
    /// End-to-end request latency, submit to reply, over all outcomes.
    pub latency: Histogram,
    /// Time each batch spent assembling (head pop to kernel dispatch),
    /// bounded above by the configured `max_linger` plus drain time.
    pub linger: Histogram,
}

impl ServiceMetrics {
    pub(crate) fn record_batch(&self, executed_width: usize) {
        self.batches.inc();
        self.batched_requests.add(executed_width as u64);
        self.max_batch_width.observe(executed_width as u64);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            batches: self.batches.get(),
            batched_requests: self.batched_requests.get(),
            max_batch_width: self.max_batch_width.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            stale_rejections: self.stale_rejections.get(),
            faults_isolated: self.faults_isolated.get(),
            publishes: self.publishes.get(),
            outages_applied: self.outages_applied.get(),
            update_fallbacks: self.update_fallbacks.get(),
            queue_depth: self.queue_depth.get().max(0) as u64,
            max_queue_depth: self.queue_depth.max_seen().max(0) as u64,
            latency: self.latency.summary(),
            linger: self.linger.summary(),
        }
    }
}

/// A point-in-time copy of the service instruments. Counters are bumped
/// with relaxed atomics; a snapshot taken while requests are in flight
/// is approximate, one taken after the relevant tickets resolved is
/// exact for those requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSnapshot {
    /// Requests accepted by a [`crate::ServiceClient`].
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a typed [`crate::ServiceError`].
    pub failed: u64,
    /// Batched kernel invocations (width ≥ 1 each).
    pub batches: u64,
    /// Requests that went through a batched kernel (faulted requests
    /// rejected before the kernel are not counted).
    pub batched_requests: u64,
    /// Widest batch executed so far.
    pub max_batch_width: u64,
    /// Context publishes that reused a cached factorization.
    pub cache_hits: u64,
    /// Context publishes that had to factorize.
    pub cache_misses: u64,
    /// Requests rejected because their pinned epoch was no longer
    /// current.
    pub stale_rejections: u64,
    /// Per-request faults (bad RHS, panicking closure, stale pin)
    /// isolated without disturbing batch-mates.
    pub faults_isolated: u64,
    /// Contexts published over the service lifetime.
    pub publishes: u64,
    /// Contingency outages applied against the service's topology (each
    /// bumps the epoch twice — apply and revert — via the
    /// [`crate::ContingencyInvalidator`] hook).
    pub outages_applied: u64,
    /// Contingency perturbations that fell back from an incremental
    /// factor update to a regularized refactorization — the degradation
    /// counter mirroring the solver's `degraded_fallbacks` convention.
    pub update_fallbacks: u64,
    /// Requests in flight (submitted, not yet answered) at snapshot
    /// time.
    pub queue_depth: u64,
    /// Deepest the in-flight queue has ever been.
    pub max_queue_depth: u64,
    /// Live end-to-end latency distribution (submit → reply), with
    /// log-bucket p50/p90/p99.
    pub latency: HistogramSummary,
    /// Live batch-assembly (linger) distribution.
    pub linger: HistogramSummary,
}

impl MetricsSnapshot {
    /// Mean executed batch width — the aggregation payoff (`> 1` means
    /// requests actually shared kernels).
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}
