//! The global recorder: span guards, instant events, and per-thread
//! buffers.
//!
//! Mirrors the `tracered_par` per-worker scratch pattern: every thread
//! that records owns an `Arc`'d buffer registered once with the global
//! [`Recorder`]; the hot path pushes into its own buffer (one
//! uncontended mutex that only the owning thread and a draining
//! [`Recorder::trace`] ever touch), so recording never serializes
//! workers against each other.
//!
//! When tracing is disabled (the default) the entire span machinery
//! collapses to one relaxed `bool` load — no `Instant::now()`, no
//! allocation, no buffer touch — which is what keeps instrumented hot
//! paths bit-identical and effectively free.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::trace::{InstantEvent, SpanEvent, Trace};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ITER_EVENTS: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. One relaxed load — this is the entire
/// cost of an instrumented code path while tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off. Spans already entered keep recording
/// to completion; new [`crate::span!`] sites become no-ops immediately.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether high-volume per-iteration events (solver convergence traces)
/// should be emitted. Requires [`enabled`] too, so the default trace of
/// a long solve stays small.
#[inline]
pub fn iter_events_enabled() -> bool {
    ITER_EVENTS.load(Ordering::Relaxed) && enabled()
}

/// Turns per-iteration convergence events on or off (only observable
/// while tracing is enabled).
pub fn set_iter_events(on: bool) {
    ITER_EVENTS.store(on, Ordering::Relaxed);
}

/// Process-wide time origin for trace timestamps. Fixed at first use and
/// never reset, so timestamps from before and after a
/// [`Recorder::reset`] stay on one monotonic axis.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One thread's event storage. Only the owning thread pushes; only
/// [`Recorder::trace`] / [`Recorder::reset`] read or clear, so the
/// mutexes are uncontended in steady state.
struct ThreadBuf {
    thread: u32,
    spans: Mutex<Vec<SpanEvent>>,
    events: Mutex<Vec<InstantEvent>>,
}

/// The process-global span/event sink. Obtain it with [`recorder`].
pub struct Recorder {
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    next_span: AtomicU64,
    next_thread: AtomicU32,
}

/// The process-global [`Recorder`].
///
/// # Example
///
/// ```
/// tracered_obs::set_enabled(true);
/// {
///     let _root = tracered_obs::span!("doc.work", { items: 3 });
/// }
/// tracered_obs::set_enabled(false);
/// let report = tracered_obs::recorder().report();
/// assert!(report.contains("doc.work"));
/// tracered_obs::recorder().reset();
/// ```
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        buffers: Mutex::new(Vec::new()),
        next_span: AtomicU64::new(1),
        next_thread: AtomicU32::new(1),
    })
}

struct Local {
    buf: Arc<ThreadBuf>,
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let rec = recorder();
            let buf = Arc::new(ThreadBuf {
                thread: rec.next_thread.fetch_add(1, Ordering::Relaxed),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
            });
            rec.buffers.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&buf));
            Local { buf, stack: Vec::new() }
        });
        f(local)
    })
}

impl Recorder {
    /// Drains nothing: clones every thread's buffered events into one
    /// [`Trace`], sorted by start time. Buffers keep accumulating.
    pub fn trace(&self) -> Trace {
        let buffers = self.buffers.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans = Vec::new();
        let mut events = Vec::new();
        for buf in buffers.iter() {
            spans.extend(buf.spans.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
            events.extend(buf.events.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        events.sort_by_key(|e| e.ts_ns);
        Trace { spans, events }
    }

    /// Clears every thread's buffered events. Thread registrations (and
    /// the time origin) survive, so recording can resume immediately.
    pub fn reset(&self) {
        let buffers = self.buffers.lock().unwrap_or_else(|e| e.into_inner());
        for buf in buffers.iter() {
            buf.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
            buf.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// A plain-text hierarchical summary of everything recorded so far:
    /// one row per distinct span path with call count, total and self
    /// time. See [`Trace::report`].
    pub fn report(&self) -> String {
        self.trace().report()
    }

    /// Everything recorded so far as a chrome://tracing `trace_event`
    /// JSON array — write it to a file and load it in a trace viewer
    /// (`chrome://tracing` or <https://ui.perfetto.dev>). See
    /// [`Trace::chrome_trace_json`].
    pub fn chrome_trace_json(&self) -> String {
        self.trace().chrome_trace_json()
    }

    /// A machine-readable JSON object: per-path span aggregates plus
    /// every globally registered instrument. perfbench writes it to
    /// `.perfbench/` as a traced run's span tree.
    pub fn snapshot_json(&self) -> String {
        crate::export::snapshot_json(&self.trace())
    }
}

/// An open span: created by [`crate::span!`] (or [`SpanGuard::enter`])
/// only when tracing is enabled, recorded into the current thread's
/// buffer on drop. Guards are `!Send` — a span measures one thread's
/// time slice; cross-thread work gets its own spans on the worker
/// threads.
pub struct SpanGuard {
    name: &'static str,
    begin: Instant,
    start_ns: u64,
    id: u64,
    parent: u64,
    args: Vec<(&'static str, f64)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span unconditionally (callers normally go through
    /// [`crate::span!`], which checks [`enabled`] first).
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard::with_args(name, &[])
    }

    /// Opens a span with key/value arguments attached.
    pub fn with_args(name: &'static str, args: &[(&'static str, f64)]) -> SpanGuard {
        let begin = Instant::now();
        let start_ns = begin.duration_since(epoch()).as_nanos() as u64;
        let id = recorder().next_span.fetch_add(1, Ordering::Relaxed);
        let parent = with_local(|l| {
            let parent = l.stack.last().copied().unwrap_or(0);
            l.stack.push(id);
            parent
        });
        SpanGuard { name, begin, start_ns, id, parent, args: args.to_vec(), _not_send: PhantomData }
    }

    /// Attaches one more argument (useful for values only known at the
    /// end of the span, like a termination reason).
    pub fn arg(&mut self, key: &'static str, value: f64) {
        self.args.push((key, value));
    }

    /// Time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.begin.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = self.begin.elapsed().as_nanos() as u64;
        let args = std::mem::take(&mut self.args);
        with_local(|l| {
            if let Some(pos) = l.stack.iter().rposition(|&id| id == self.id) {
                l.stack.truncate(pos);
            }
            l.buf.spans.lock().unwrap_or_else(|e| e.into_inner()).push(SpanEvent {
                name: self.name,
                start_ns: self.start_ns,
                dur_ns,
                thread: l.buf.thread,
                id: self.id,
                parent: self.parent,
                args,
            });
        });
    }
}

/// Records a zero-duration instant event (chrome trace `ph:"i"`) when
/// tracing is enabled — the vehicle for per-iteration convergence
/// traces. High-volume call sites should additionally gate on
/// [`iter_events_enabled`].
pub fn instant_event(name: &'static str, args: &[(&'static str, f64)]) {
    if !enabled() {
        return;
    }
    let ts_ns = epoch().elapsed().as_nanos() as u64;
    with_local(|l| {
        l.buf.events.lock().unwrap_or_else(|e| e.into_inner()).push(InstantEvent {
            name,
            ts_ns,
            thread: l.buf.thread,
            args: args.to_vec(),
        });
    });
}

/// A timer that *always* measures wall time (so report structs keep
/// their fields regardless of tracing) and *additionally* records a
/// span when tracing is enabled — one measurement feeding both views.
///
/// # Example
///
/// ```
/// let t = tracered_obs::Timer::start("doc.phase");
/// let answer = 6 * 7;
/// let took = t.stop();
/// assert_eq!(answer, 42);
/// assert!(took.as_nanos() > 0 || took.is_zero());
/// ```
pub struct Timer {
    begin: Instant,
    guard: Option<SpanGuard>,
}

impl Timer {
    /// Starts a timer; opens a span of the same name when tracing is on.
    pub fn start(name: &'static str) -> Timer {
        let guard = if enabled() { Some(SpanGuard::enter(name)) } else { None };
        Timer { begin: Instant::now(), guard }
    }

    /// Starts a timer with span arguments.
    pub fn start_with(name: &'static str, args: &[(&'static str, f64)]) -> Timer {
        let guard = if enabled() { Some(SpanGuard::with_args(name, args)) } else { None };
        Timer { begin: Instant::now(), guard }
    }

    /// Attaches an argument to the underlying span (no-op when tracing
    /// is off).
    pub fn arg(&mut self, key: &'static str, value: f64) {
        if let Some(g) = &mut self.guard {
            g.arg(key, value);
        }
    }

    /// Stops the timer, closing the span if one is open, and returns
    /// the elapsed wall time.
    pub fn stop(self) -> Duration {
        let d = self.begin.elapsed();
        drop(self.guard);
        d
    }
}
