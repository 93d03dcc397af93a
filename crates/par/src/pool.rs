//! The persistent worker pool: parked workers, the shared injector
//! queue, and the region protocol that lets borrowed (non-`'static`)
//! parallel regions run on long-lived threads.
//!
//! # Why a pool
//!
//! Through PR 3 every parallel region spawned fresh OS threads via
//! `std::thread::scope` and joined them on exit. A PCG iteration enters
//! ~5 parallel regions (SpMV, two fused vector updates, two dots), so at
//! `threads > 1` the solver paid ~5 spawn/join rounds *per iteration* —
//! often more than the kernel work itself on mid-sized systems. The pool
//! spawns `size − 1` workers **once** (lazily for the global pool, see
//! [`crate::global`]) and parks them on a condvar between regions; a
//! region entry is now an `Arc` allocation, a queue push, and a few
//! wakeups.
//!
//! # Region protocol
//!
//! A *region* is one parallel call ([`Pool::chunks_mut`],
//! [`Pool::jobs`], …). The calling thread (the region's **owner**):
//!
//! 1. builds a [`Region`] — a type-erased descriptor holding a pointer
//!    to the stack-allocated runner (closures + output pointers), the
//!    job count, and the claim/completion counters;
//! 2. publishes it on the pool's **injector queue** and wakes up to
//!    `min(worker_count, threads − 1, njobs − 1)` parked workers;
//! 3. participates: it claims and runs jobs exactly like a worker
//!    (work-stealing from within the region), so a pool of size 1 — or
//!    a region that drains before any worker arrives — degenerates to
//!    the serial loop;
//! 4. retires the region from the injector (under the queue lock, so no
//!    new worker can attach afterwards) and waits for **quiescence**:
//!    `pending == 0 && workers_in == 0`;
//! 5. resumes the first captured panic, if any job panicked.
//!
//! Workers park on the pool condvar, wake when a region is published,
//! *attach* (increment `workers_in` under the injector lock), run the
//! region's claim loop until no jobs remain, *detach*, and go back to
//! the queue — claiming work from whatever region is waiting next, which
//! is what makes nested regions (a `par_jobs` job that itself calls
//! `par_chunks_mut`) compose: the inner region's owner is a worker, it
//! claims inner jobs itself, and any idle worker can steal them too.
//!
//! # Why the `unsafe` is sound
//!
//! This module contains the crate's only `unsafe` code, all of it in
//! service of one fact: region runners live on the owner's stack and
//! borrow caller data, while workers are `'static` threads. Soundness
//! hangs on three invariants:
//!
//! - **Attach before deref, under the lock.** A worker only learns about
//!   a region by finding it on the injector queue, and it increments
//!   `workers_in` *while holding the queue lock*. The owner removes the
//!   region from the queue under that same lock before it starts
//!   waiting, so after retirement the attach count can only fall.
//! - **Quiescence before return.** The owner does not return (or unwind
//!   — panics from its own claim loop are captured and re-raised *after*
//!   the wait) until `pending == 0 && workers_in == 0`, so every worker
//!   that could ever dereference the runner has finished doing so while
//!   the owner's frame was still alive.
//! - **Disjoint claims.** Job indices are handed out by an atomic
//!   fetch-add style claim, so each index — and therefore each disjoint
//!   output chunk carved from the raw base pointer — is visited exactly
//!   once.
//!
//! Completion uses `AcqRel` read-modify-writes on `pending`/`workers_in`
//! and a mutex-protected condvar, so all job writes happen-before the
//! owner observes quiescence.
//!
//! # Panic containment
//!
//! Job bodies run under `catch_unwind`. The first panic is recorded, the
//! region is cancelled (remaining jobs are claimed and discarded without
//! running the body), and the payload is re-raised on the owner thread
//! once the region is quiescent. Workers never die: the pool is **not
//! poisoned** by a panicking job and keeps serving later regions.

#![allow(unsafe_code)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::scratch;

/// State shared between a pool handle and its workers.
struct Shared {
    /// Published regions with unclaimed jobs, oldest first. Workers scan
    /// front-to-back and attach to the first region that still has work
    /// and a free slot under its thread cap.
    injector: Mutex<VecDeque<Arc<Region>>>,
    /// Parked workers wait here; region publication notifies it.
    work_cv: Condvar,
    /// Set (under the injector lock) by `Pool::drop`; workers exit their
    /// loop when they observe it.
    shutdown: AtomicBool,
    /// Total worker threads ever created — the O(1)-per-process
    /// instrumentation counter checked by the lifecycle tests.
    spawned: AtomicUsize,
}

/// A persistent work-stealing thread pool.
///
/// A `Pool` of size `n` owns `n − 1` parked worker threads; the thread
/// that enters a parallel region is always the n-th participant. Most
/// code uses the process-global pool through the free functions of this
/// crate ([`crate::par_chunks_mut`], …); an explicit `Pool` is the
/// handle for tests and for callers that want isolated sizing:
///
/// ```
/// let pool = tracered_par::Pool::new(4); // spawns 3 workers immediately
/// let mut out = vec![0usize; 1000];
/// pool.chunks_mut(&mut out, 64, 4, |start, piece| {
///     for (off, v) in piece.iter_mut().enumerate() {
///         *v = start + off;
///     }
/// });
/// assert!(out.iter().enumerate().all(|(i, &v)| v == i));
/// assert_eq!(pool.threads_spawned(), 3); // never grows afterwards
/// ```
///
/// Dropping an explicit pool joins its workers. The global pool lives
/// for the process.
pub struct Pool {
    shared: Arc<Shared>,
    size: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("size", &self.size)
            .field("threads_spawned", &self.threads_spawned())
            .finish()
    }
}

impl Pool {
    /// Creates a pool that can run regions on up to `threads` threads
    /// (the caller plus `threads − 1` eagerly spawned, parked workers).
    ///
    /// `threads` is clamped to at least 1; a size-1 pool spawns no
    /// workers and runs every region serially on the calling thread.
    pub fn new(threads: usize) -> Pool {
        let size = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            spawned: AtomicUsize::new(0),
        });
        let mut workers = Vec::with_capacity(size - 1);
        for i in 0..size - 1 {
            let sh = Arc::clone(&shared);
            sh.spawned.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("tracered-par-{i}"))
                .spawn(move || worker_loop(&sh))
                .expect("failed to spawn pool worker thread");
            workers.push(handle);
        }
        Pool { shared, size, workers }
    }

    /// Total threads a region may run on: the owner plus
    /// [`Pool::worker_count`] parked workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of persistent worker threads owned by this pool
    /// (`size − 1`).
    pub fn worker_count(&self) -> usize {
        self.size - 1
    }

    /// Total worker threads this pool has ever created.
    ///
    /// Workers are spawned once in [`Pool::new`] and parked between
    /// regions, so this counter is **O(1) per process** — it equals
    /// [`Pool::worker_count`] no matter how many regions have run. The
    /// lifecycle tests pin this down; it is the observable difference
    /// between the pool and the per-region `std::thread::scope` runtime
    /// it replaced.
    pub fn threads_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Runs `body` over disjoint chunks of `out`, capped at `threads`
    /// threads. See [`crate::par_chunks_mut`] for the contract.
    pub fn chunks_mut<T, F>(&self, out: &mut [T], chunk: usize, threads: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.chunks_mut_scratch(
            out,
            chunk,
            threads,
            |_: Option<()>| (),
            move |(), start, piece| body(start, piece),
        );
    }

    /// [`Pool::chunks_mut`] with a per-worker scratch value recycled
    /// through the thread-local cache. See
    /// [`crate::par_chunks_mut_scratch`] for the factory contract.
    pub fn chunks_mut_scratch<T, S, B, F>(
        &self,
        out: &mut [T],
        chunk: usize,
        threads: usize,
        factory: B,
        body: F,
    ) where
        T: Send,
        S: 'static,
        B: Fn(Option<S>) -> S + Sync,
        F: Fn(&mut S, usize, &mut [T]) + Sync,
    {
        if out.is_empty() {
            return;
        }
        let chunk = chunk.max(1);
        let threads = threads.max(1);
        let njobs = out.len().div_ceil(chunk);
        if threads <= 1 || njobs <= 1 || self.worker_count() == 0 {
            let mut s = factory(scratch::take::<S>());
            let mut start = 0;
            for piece in out.chunks_mut(chunk) {
                let len = piece.len();
                body(&mut s, start, piece);
                start += len;
            }
            scratch::store(s);
            return;
        }
        let runner = ChunksRunner {
            base: out.as_mut_ptr(),
            len: out.len(),
            chunk,
            factory: &factory,
            body: &body,
            _scratch: PhantomData::<fn() -> S>,
        };
        execute(self, &runner, njobs, threads);
    }

    /// Runs `body` over paired disjoint chunks of two equally long
    /// slices. See [`crate::par_chunks2_mut`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn chunks2_mut<A, B, F>(
        &self,
        a: &mut [A],
        b: &mut [B],
        chunk: usize,
        threads: usize,
        body: F,
    ) where
        A: Send,
        B: Send,
        F: Fn(usize, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "paired slices must have equal length");
        if a.is_empty() {
            return;
        }
        let chunk = chunk.max(1);
        let threads = threads.max(1);
        let njobs = a.len().div_ceil(chunk);
        if threads <= 1 || njobs <= 1 || self.worker_count() == 0 {
            let mut start = 0;
            for (pa, pb) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)) {
                let len = pa.len();
                body(start, pa, pb);
                start += len;
            }
            return;
        }
        let runner = Chunks2Runner {
            base_a: a.as_mut_ptr(),
            base_b: b.as_mut_ptr(),
            len: a.len(),
            chunk,
            body: &body,
        };
        execute(self, &runner, njobs, threads);
    }

    /// Runs an explicit job list through the pool. See
    /// [`crate::par_jobs`] for the contract.
    pub fn jobs<T, F>(&self, jobs: Vec<T>, threads: usize, body: F)
    where
        T: Send,
        F: Fn(T) + Sync,
    {
        let njobs = jobs.len();
        if njobs == 0 {
            return;
        }
        let threads = threads.max(1);
        if threads <= 1 || njobs <= 1 || self.worker_count() == 0 {
            for job in jobs {
                body(job);
            }
            return;
        }
        let runner = JobsRunner { queue: Mutex::new(jobs.into_iter()), body: &body };
        execute(self, &runner, njobs, threads);
    }

    /// Chunked deterministic sum reduction. See
    /// [`crate::par_reduce_f64`] for the contract.
    pub fn reduce_f64<F>(&self, len: usize, chunk: usize, threads: usize, body: F) -> f64
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let chunk = chunk.max(1);
        if len == 0 {
            return 0.0;
        }
        let threads = threads.max(1);
        let nchunks = len.div_ceil(chunk);
        if threads <= 1 || nchunks <= 1 || self.worker_count() == 0 {
            // Same chunk decomposition and left-to-right combination as
            // the parallel path, so the two are bit-identical.
            let mut acc = 0.0;
            let mut lo = 0;
            while lo < len {
                let hi = (lo + chunk).min(len);
                acc += body(lo, hi);
                lo = hi;
            }
            return acc;
        }
        // The partials buffer is recycled through the scratch cache so a
        // PCG iteration's dot products stop allocating.
        let mut partials = scratch::take::<ReducePartials>().unwrap_or_default().0;
        partials.clear();
        partials.resize(nchunks, 0.0);
        self.chunks_mut(&mut partials, 1, threads, |ci, slot| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(len);
            slot[0] = body(lo, hi);
        });
        // Fold from +0.0 like the serial path: `Iterator::sum` starts from
        // −0.0, which would flip the sign of an all-(−0.0) total.
        let total = partials.iter().fold(0.0, |acc, &p| acc + p);
        scratch::store(ReducePartials(partials));
        total
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let _guard = self.shared.injector.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Newtype for the cached [`Pool::reduce_f64`] partials buffer, so it
/// cannot collide with a caller's `Vec<f64>` scratch in the cache.
#[derive(Default)]
struct ReducePartials(Vec<f64>);

/// Type-erased descriptor of one parallel region.
///
/// `body` points at a runner on the owner's stack; `run` is the
/// monomorphized claim loop that knows the runner's concrete type. The
/// soundness argument for sharing these raw pointers with worker
/// threads is in the module docs.
struct Region {
    /// Monomorphized worker entry: casts `body` back to the concrete
    /// runner and runs its claim loop.
    run: unsafe fn(*const (), &Region),
    /// The runner, erased. Valid until the owner observes quiescence.
    body: *const (),
    /// Total jobs in the region.
    njobs: usize,
    /// Region thread cap (owner included): at most `max_threads − 1`
    /// workers attach concurrently.
    max_threads: usize,
    /// Next unclaimed job index. `next >= njobs` means drained; workers
    /// use it to skip (and garbage-collect) exhausted regions.
    next: AtomicUsize,
    /// Jobs not yet finished. Quiescence requires it to reach 0.
    pending: AtomicUsize,
    /// Workers currently attached (owner excluded). Quiescence requires
    /// it to reach 0 after retirement.
    workers_in: AtomicUsize,
    /// Set on first panic: remaining jobs are claimed and discarded.
    cancelled: AtomicBool,
    /// First captured panic payload, re-raised on the owner thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Guards the quiescence condvar below.
    done_mx: Mutex<()>,
    /// Signalled when `pending` or `workers_in` drops to zero.
    done_cv: Condvar,
}

// SAFETY: `body` is dereferenced only between a worker's attach (under
// the injector lock, while the region is still queued) and its detach,
// and the owner blocks until `workers_in == 0` after unpublishing the
// region — so the pointee outlives every dereference. All other fields
// are ordinary sync primitives.
unsafe impl Send for Region {}
// SAFETY: as above; shared access to `body` is `&`-only and the runner
// types are `Sync`.
unsafe impl Sync for Region {}

impl Region {
    /// Claims the next job index, or `None` when the region is drained.
    fn claim(&self) -> Option<usize> {
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            if cur >= self.njobs {
                return None;
            }
            match self.next.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(cur),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Marks one claimed job finished; wakes the owner when it was the
    /// last. The `AcqRel` read-modify-write chains every job's writes
    /// into the owner's quiescence observation.
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_mx.lock().unwrap_or_else(|e| e.into_inner());
            self.done_cv.notify_all();
        }
    }

    /// Whether a panic has cancelled the region (bodies are skipped).
    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Records the first panic payload and cancels the region.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.cancelled.store(true, Ordering::Relaxed);
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Worker-side detach; wakes the owner when the last worker leaves.
    fn detach(&self) {
        if self.workers_in.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_mx.lock().unwrap_or_else(|e| e.into_inner());
            self.done_cv.notify_all();
        }
    }

    /// Owner-side wait for `pending == 0 && workers_in == 0`. Must be
    /// called only after the region is retired from the injector.
    fn wait_quiescent(&self) {
        if self.pending.load(Ordering::Acquire) == 0 && self.workers_in.load(Ordering::Acquire) == 0
        {
            return;
        }
        let mut guard = self.done_mx.lock().unwrap_or_else(|e| e.into_inner());
        while self.pending.load(Ordering::Acquire) != 0
            || self.workers_in.load(Ordering::Acquire) != 0
        {
            guard = self.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The monomorphized region entry point: one instantiation per runner
/// type, stored as the region's `run` pointer.
///
/// # Safety
///
/// `ptr` must point at a live `R`; guaranteed by the attach/quiescence
/// protocol (module docs).
unsafe fn worker_shim<R: WorkerRun>(ptr: *const (), region: &Region) {
    // SAFETY: see the protocol invariants in the module docs.
    let runner = unsafe { &*(ptr.cast::<R>()) };
    runner.run_worker(region);
}

/// A region runner: owns the claim loop for one region shape.
trait WorkerRun {
    /// Claims and executes jobs until the region is drained. Must never
    /// unwind — panics from user code are captured into the region.
    fn run_worker(&self, region: &Region);
}

/// Publishes `runner` as a region, participates, and blocks until the
/// region is quiescent; then re-raises any captured panic.
/// RAII update of the pool occupancy gauge (`par.pool.active_regions`).
///
/// The gauge is only touched while tracing is enabled — parallel
/// regions are entered ~5× per PCG iteration, and the zero-overhead
/// contract demands that an idle recorder costs the hot path nothing
/// beyond one relaxed load. The guard remembers whether it incremented
/// so a mid-region toggle can never unbalance the gauge.
struct RegionOccupancy {
    counted: bool,
}

impl RegionOccupancy {
    fn enter() -> RegionOccupancy {
        let counted = tracered_obs::enabled();
        if counted {
            tracered_obs::gauge("par.pool.active_regions").inc();
        }
        RegionOccupancy { counted }
    }
}

impl Drop for RegionOccupancy {
    fn drop(&mut self) {
        if self.counted {
            tracered_obs::gauge("par.pool.active_regions").dec();
        }
    }
}

fn execute<R: WorkerRun + Sync>(pool: &Pool, runner: &R, njobs: usize, threads: usize) {
    // Region entry/exit span: publish → claim loop → quiescence. One
    // relaxed load when tracing is off.
    let _span = tracered_obs::span!("par.region", { jobs: njobs, threads: threads });
    let _occupancy = RegionOccupancy::enter();
    let region = Arc::new(Region {
        run: worker_shim::<R>,
        body: (runner as *const R).cast::<()>(),
        njobs,
        max_threads: threads,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(njobs),
        workers_in: AtomicUsize::new(0),
        cancelled: AtomicBool::new(false),
        panic: Mutex::new(None),
        done_mx: Mutex::new(()),
        done_cv: Condvar::new(),
    });
    let wake = pool.worker_count().min(threads.saturating_sub(1)).min(njobs.saturating_sub(1));
    {
        let mut queue = pool.shared.injector.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(Arc::clone(&region));
    }
    if wake >= pool.worker_count() {
        pool.shared.work_cv.notify_all();
    } else {
        for _ in 0..wake {
            pool.shared.work_cv.notify_one();
        }
    }
    // The owner is a full participant: it steals jobs from its own
    // region like any worker, so small regions finish without waiting
    // for a wakeup.
    runner.run_worker(&region);
    // Unpublish under the lock: afterwards no new worker can attach, so
    // the quiescence wait below is a strictly decreasing race.
    {
        let mut queue = pool.shared.injector.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = queue.iter().position(|r| Arc::ptr_eq(r, &region)) {
            queue.remove(pos);
        }
    }
    region.wait_quiescent();
    let payload = region.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Main loop of a parked worker thread.
fn worker_loop(shared: &Shared) {
    loop {
        let region: Arc<Region> = {
            let mut queue = shared.injector.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(r) = attach_one(&mut queue) {
                    break r;
                }
                queue = shared.work_cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: we attached under the injector lock while the region
        // was queued; the owner waits for our detach before freeing the
        // runner (module docs).
        unsafe { (region.run)(region.body, &region) };
        region.detach();
    }
}

/// Scans the injector for a region with unclaimed jobs and a free slot
/// under its thread cap, attaching to the first match. Exhausted regions
/// encountered on the way are dropped from the queue (the owner's retire
/// step tolerates the region already being gone).
fn attach_one(queue: &mut VecDeque<Arc<Region>>) -> Option<Arc<Region>> {
    let mut i = 0;
    while i < queue.len() {
        let region = &queue[i];
        if region.next.load(Ordering::Relaxed) >= region.njobs {
            queue.remove(i);
            continue;
        }
        if region.workers_in.load(Ordering::Relaxed) + 1 < region.max_threads {
            region.workers_in.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(region));
        }
        i += 1;
    }
    None
}

/// Runner for [`Pool::chunks_mut_scratch`]: jobs are disjoint
/// `chunk`-sized ranges of a single output slice, carved from the raw
/// base pointer by claimed index.
struct ChunksRunner<'a, T, S, B, F> {
    base: *mut T,
    len: usize,
    chunk: usize,
    factory: &'a B,
    body: &'a F,
    _scratch: PhantomData<fn() -> S>,
}

// SAFETY: concurrent `run_worker` calls write only to the disjoint
// `[i*chunk, (i+1)*chunk)` ranges handed out by the atomic claim, so
// sharing the raw base pointer is a manual `chunks_mut` split.
unsafe impl<T: Send, S, B: Sync, F: Sync> Sync for ChunksRunner<'_, T, S, B, F> {}

impl<T, S, B, F> WorkerRun for ChunksRunner<'_, T, S, B, F>
where
    T: Send,
    S: 'static,
    B: Fn(Option<S>) -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    fn run_worker(&self, region: &Region) {
        // Scratch is built lazily on the first claim (workers that
        // arrive after the queue drained pay nothing) and recycled
        // through the thread-local cache on exit.
        let mut scratch_val: Option<S> = None;
        while let Some(i) = region.claim() {
            if region.is_cancelled() {
                region.finish_one();
                continue;
            }
            if scratch_val.is_none() {
                match catch_unwind(AssertUnwindSafe(|| (self.factory)(scratch::take::<S>()))) {
                    Ok(s) => scratch_val = Some(s),
                    Err(payload) => {
                        region.record_panic(payload);
                        region.finish_one();
                        continue;
                    }
                }
            }
            let lo = i * self.chunk;
            let hi = (lo + self.chunk).min(self.len);
            // SAFETY: `claim` yields each index at most once and
            // `lo < len` holds for every valid index, so this range is
            // in bounds and disjoint from every other claim.
            let piece = unsafe { std::slice::from_raw_parts_mut(self.base.add(lo), hi - lo) };
            let s = scratch_val.as_mut().expect("scratch initialized above");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(s, lo, piece))) {
                region.record_panic(payload);
            }
            region.finish_one();
        }
        // A cancelled region aborted some body mid-update; this thread's
        // scratch may hold broken invariants (e.g. a scatter buffer that
        // was never rezeroed), so drop it instead of letting a later
        // region recycle it.
        if let Some(s) = scratch_val {
            if !region.is_cancelled() {
                scratch::store(s);
            }
        }
    }
}

/// Runner for [`Pool::chunks2_mut`]: paired disjoint ranges of two
/// equally long slices.
struct Chunks2Runner<'a, A, B, F> {
    base_a: *mut A,
    base_b: *mut B,
    len: usize,
    chunk: usize,
    body: &'a F,
}

// SAFETY: same disjoint-claimed-ranges argument as `ChunksRunner`,
// applied to both slices.
unsafe impl<A: Send, B: Send, F: Sync> Sync for Chunks2Runner<'_, A, B, F> {}

impl<A, B, F> WorkerRun for Chunks2Runner<'_, A, B, F>
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    fn run_worker(&self, region: &Region) {
        while let Some(i) = region.claim() {
            if region.is_cancelled() {
                region.finish_one();
                continue;
            }
            let lo = i * self.chunk;
            let hi = (lo + self.chunk).min(self.len);
            // SAFETY: in-bounds disjoint ranges per unique claim, on
            // both equally long slices.
            let (pa, pb) = unsafe {
                (
                    std::slice::from_raw_parts_mut(self.base_a.add(lo), hi - lo),
                    std::slice::from_raw_parts_mut(self.base_b.add(lo), hi - lo),
                )
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(lo, pa, pb))) {
                region.record_panic(payload);
            }
            region.finish_one();
        }
    }
}

/// Runner for [`Pool::jobs`]: claimed indices reserve one pop each from
/// a mutex-guarded job iterator, so jobs are consumed in claim order and
/// dropped (not run) once the region is cancelled.
struct JobsRunner<'a, T, F> {
    queue: Mutex<std::vec::IntoIter<T>>,
    body: &'a F,
}

impl<T, F> WorkerRun for JobsRunner<'_, T, F>
where
    T: Send,
    F: Fn(T) + Sync,
{
    fn run_worker(&self, region: &Region) {
        while region.claim().is_some() {
            let job = self
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .next()
                .expect("one queued job per claimed index");
            if region.is_cancelled() {
                region.finish_one();
                continue; // job dropped without running
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(job))) {
                region.record_panic(payload);
            }
            region.finish_one();
        }
    }
}
