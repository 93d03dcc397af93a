//! Structured tracing and metrics for the tracered workspace.
//!
//! Three pieces, all dependency-free:
//!
//! 1. **Spans** — [`span!`] opens a guard that records wall time,
//!    thread id, nesting, and numeric arguments into per-thread
//!    buffers owned by the global [`Recorder`]. Tracing is off by
//!    default; while off, a `span!` site costs one relaxed atomic
//!    load and records nothing, so instrumented hot paths stay
//!    bit-identical and effectively free (the same zero-overhead
//!    contract as the resilience knobs).
//! 2. **Instruments** — [`Counter`], [`Gauge`], [`Watermark`], and
//!    log-scale [`Histogram`]s (live p50/p99 at ~9% bucket
//!    resolution). Instruments are always on: plain relaxed atomics,
//!    owned by their subsystem or registered globally by name
//!    ([`counter`]/[`gauge`]/[`histogram`]).
//! 3. **Exporters** — [`Recorder::chrome_trace_json`] (opens directly
//!    in `chrome://tracing` / Perfetto), [`Recorder::report`] (plain
//!    text hierarchy), and [`Recorder::snapshot_json`]
//!    (machine-readable aggregate; perfbench's `--trace 1` run writes
//!    it as its span tree, through `span_tree_json` in
//!    `perfbench/src/calls.rs`).
//!
//! # Capturing a trace
//!
//! ```
//! tracered_obs::set_enabled(true);
//! {
//!     let _outer = tracered_obs::span!("demo.outer", { n: 64 });
//!     let _inner = tracered_obs::span!("demo.inner");
//!     tracered_obs::event!("demo.tick", { step: 1 });
//! }
//! tracered_obs::set_enabled(false);
//!
//! let trace = tracered_obs::recorder().trace();
//! assert!(trace.has_span("demo.outer"));
//! let json = trace.chrome_trace_json();
//! tracered_obs::validate_json(&json).unwrap();
//! // std::fs::write("trace.json", json) — then load it in a viewer.
//! tracered_obs::recorder().reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod instrument;
mod json;
mod record;
mod registry;
mod trace;

pub use instrument::{Counter, Gauge, Histogram, HistogramSummary, Watermark};
pub use json::validate_json;
pub use record::{
    enabled, instant_event, iter_events_enabled, recorder, set_enabled, set_iter_events, Recorder,
    SpanGuard, Timer,
};
pub use registry::{counter, gauge, histogram};
pub use trace::{InstantEvent, SpanAgg, SpanEvent, Trace};

/// Opens a span when tracing is enabled; expands to `Option<SpanGuard>`.
///
/// Bind the result to a named variable (`let _span = ...`) — binding to
/// `_` drops the guard immediately and records an empty span.
///
/// Arguments come in two forms: bare identifiers captured by name
/// (`span!("chol.factorize", {n, nnz})`) or explicit key/value pairs
/// (`span!("pcg.solve", {n: a.ncols(), tol: 1e-8})`). Values are
/// converted with `as f64` and are **not evaluated at all** while
/// tracing is disabled.
///
/// # Example
///
/// ```
/// tracered_obs::set_enabled(true);
/// let (n, nnz) = (100, 460);
/// {
///     let _span = tracered_obs::span!("factor.numeric", { n, nnz });
/// }
/// tracered_obs::set_enabled(false);
/// assert!(tracered_obs::recorder().trace().has_span("factor.numeric"));
/// tracered_obs::recorder().reset();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            Some($crate::SpanGuard::enter($name))
        } else {
            None
        }
    };
    ($name:expr, { $($key:ident : $value:expr),+ $(,)? }) => {
        if $crate::enabled() {
            Some($crate::SpanGuard::with_args(
                $name,
                &[$((stringify!($key), $value as f64)),+],
            ))
        } else {
            None
        }
    };
    ($name:expr, { $($key:ident),+ $(,)? }) => {
        if $crate::enabled() {
            Some($crate::SpanGuard::with_args(
                $name,
                &[$((stringify!($key), $key as f64)),+],
            ))
        } else {
            None
        }
    };
}

/// Records a zero-duration instant event when tracing is enabled.
/// Argument forms match [`span!`] (all bare identifiers, or all
/// key/value pairs); arguments are not evaluated while tracing is
/// disabled. High-volume sites (per-iteration traces) should
/// additionally gate on [`iter_events_enabled`].
///
/// # Example
///
/// ```
/// tracered_obs::set_enabled(true);
/// let residual = 1e-9_f64;
/// tracered_obs::event!("pcg.iter", { iter: 3.0, residual: residual });
/// tracered_obs::set_enabled(false);
/// assert!(!tracered_obs::recorder().trace().events.is_empty());
/// tracered_obs::recorder().reset();
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::instant_event($name, &[]);
        }
    };
    ($name:expr, { $($key:ident : $value:expr),+ $(,)? }) => {
        if $crate::enabled() {
            $crate::instant_event($name, &[$((stringify!($key), $value as f64)),+]);
        }
    };
    ($name:expr, { $($key:ident),+ $(,)? }) => {
        if $crate::enabled() {
            $crate::instant_event($name, &[$((stringify!($key), $key as f64)),+]);
        }
    };
}
