//! Dependency-free parallel runtime for the sparsification hot paths,
//! built around a **persistent work-stealing worker pool**.
//!
//! The container builds fully offline, so instead of `rayon` this crate
//! provides its own runtime: a process-global [`Pool`] (lazily created
//! on first use, sized by the `TRACERED_THREADS` environment variable or
//! the OS-reported parallelism) parks `size − 1` worker threads and
//! feeds them parallel *regions* through a shared injector queue. A
//! region splits its index space into chunks (several per worker),
//! workers and the calling thread repeatedly steal the next unclaimed
//! chunk until the queue drains, and the call returns once every chunk
//! has finished. Dynamic stealing keeps workers busy even when per-item
//! cost is wildly skewed (β-layer BFS neighbourhoods vary by orders of
//! magnitude across candidate edges); the persistent pool means entering
//! a region costs a queue push and a few wakeups instead of spawning and
//! joining OS threads — the difference between parallelism paying off at
//! `n ≈ 10⁴` or only at `n ≈ 10⁶` for the PCG vector kernels (measured
//! when the pool replaced per-region `std::thread::scope` spawning).
//!
//! Entry points: [`par_chunks_mut`] (disjoint chunks of one slice),
//! [`par_chunks_mut_scratch`] (same, with a recycled per-worker
//! workspace), [`par_chunks2_mut`] (paired chunks of two slices — fused
//! PCG vector updates), [`par_jobs`] (an explicit job list), and
//! [`par_reduce_f64`] (chunk-ordered sum reduction). Each takes a
//! `threads` cap so callers' `threads: Option<usize>` knobs keep
//! working: `Some(1)` routes to the exact serial path, larger values cap
//! how many pool threads the region may occupy.
//!
//! # Determinism contract
//!
//! Every entry point partitions its **output** into disjoint jobs fixed
//! by the chunk size — never by the thread count — and computes each
//! element from read-only shared inputs, so results are bit-identical
//! for every thread count, including the serial path, which runs the
//! exact same per-chunk closure in chunk order on the calling thread.
//! Reductions ([`par_reduce_f64`]) fold per-chunk partial sums from
//! `+0.0` in chunk order on every path, so they are bit-identical for a
//! given chunk size, down to the sign of a zero total (though not to an
//! unchunked serial fold). The property tests in `tracered-core`
//! (`parallel_equivalence`), `tracered-solver` (PCG and block PCG), and
//! `tracered-partition` (partitioned determinism) pin this contract down
//! at thread counts {1, 2, 4}.
//!
//! # Scratch reuse
//!
//! Per-worker scratch state (BFS stamps, voltage arrays, probe buffers,
//! …) is created by a caller-supplied *recycling factory*
//! `Fn(Option<S>) -> S`: the factory receives this thread's cached
//! scratch of the same type from the previous region (if any) and may
//! reuse its allocations after validating dimensions, or build fresh.
//! Because pool workers are persistent, the cache survives across
//! regions — scoring sweeps and PCG iterations stop re-allocating their
//! arenas every region. See [`par_chunks_mut_scratch`].
//!
//! # Nesting
//!
//! Regions compose: a [`par_jobs`] job may itself call
//! [`par_chunks_mut`] (partition-parallel densification scores each
//! partition in parallel *inside* a partition job). The inner region's
//! owner claims inner jobs itself — work-stealing from within a job —
//! and idle workers help, so nesting cannot deadlock: a thread waiting
//! on a region is only ever waiting on jobs that some live thread is
//! actively executing.
//!
//! # Panics
//!
//! A panic in a job body cancels its region (remaining jobs are
//! discarded), propagates to the region's caller once the region is
//! quiescent, and leaves the pool healthy — workers survive and later
//! regions run normally. The `tracered-fi` chaos suite exercises this
//! contract under deterministic fault injection: seed-chosen jobs panic
//! mid-region, the caller catches the propagated panic, and a full
//! follow-up region must complete on the same pool.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

mod pool;
mod scratch;

pub use pool::Pool;

/// Environment variable overriding the global pool size (total threads,
/// calling thread included). Read once, when the global pool is first
/// used; values that do not parse as a positive integer are ignored in
/// favour of the OS-reported parallelism.
pub const THREADS_ENV: &str = "TRACERED_THREADS";

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-global pool used by the free functions of this crate.
///
/// Created lazily on first use: `size = TRACERED_THREADS` if set and
/// valid, else [`std::thread::available_parallelism`]; `size − 1` worker
/// threads are spawned once and parked between regions. Explicit
/// [`Pool`] handles (tests, isolation) are independent of this one.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_pool_size()))
}

/// Size of the global pool — the resolved thread budget that `None`
/// thread knobs map to. Initializes the pool if needed.
///
/// Benchmarks and [`IterationStats`-style](fn@global_pool_size) reports
/// record this value so result files are self-describing on any
/// hardware.
pub fn global_pool_size() -> usize {
    global().size()
}

/// Worker threads the global pool has ever created: `size − 1` after
/// first use, `0` before — and **never more**, regardless of how many
/// parallel regions have run. This is the instrumentation hook proving
/// worker-thread creation is O(1) per process.
pub fn global_threads_spawned() -> usize {
    GLOBAL.get().map(Pool::threads_spawned).unwrap_or(0)
}

fn default_pool_size() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// Resolves a requested thread count: `Some(t)` is honoured (min 1),
/// `None` resolves to the global pool size (the `TRACERED_THREADS`
/// override or the OS-reported parallelism).
///
/// ```
/// assert_eq!(tracered_par::effective_threads(Some(4)), 4);
/// assert_eq!(tracered_par::effective_threads(Some(0)), 1);
/// assert!(tracered_par::effective_threads(None) >= 1);
/// ```
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(t) => t.max(1),
        None => global_pool_size(),
    }
}

/// Picks a chunk size giving each worker several chunks to steal while
/// keeping chunks at least `min_chunk` long (amortises scratch setup and
/// queue traffic for cheap per-item work).
///
/// The result depends only on `len`, `threads`, and `min_chunk` — pass a
/// fixed `threads` when thread-count-invariant chunking is required (as
/// [`par_reduce_f64`] callers do).
pub fn chunk_size(len: usize, threads: usize, min_chunk: usize) -> usize {
    if len == 0 {
        return min_chunk.max(1);
    }
    let target = len.div_ceil(threads.max(1) * 4);
    target.max(min_chunk.max(1)).min(len)
}

/// Runs `body` over disjoint chunks of `out` on up to `threads` threads
/// of the [global pool](global).
///
/// `body(start, chunk)` must fill `chunk` (which aliases
/// `out[start..start + chunk.len()]`) from read-only captured state; the
/// scheduler guarantees every element of `out` is visited exactly once.
/// With `threads <= 1` the chunks run sequentially on the calling thread
/// — the same code path in the same order, so parallel and serial
/// results are bit-identical.
///
/// ```
/// let mut squares = vec![0u64; 1000];
/// tracered_par::par_chunks_mut(&mut squares, 128, 4, |start, chunk| {
///     for (off, v) in chunk.iter_mut().enumerate() {
///         let i = (start + off) as u64;
///         *v = i * i;
///     }
/// });
/// assert_eq!(squares[31], 31 * 31);
/// ```
pub fn par_chunks_mut<T, F>(out: &mut [T], chunk: usize, threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global().chunks_mut(out, chunk, threads, body);
}

/// [`par_chunks_mut`] with a per-worker scratch workspace, recycled
/// across regions through a per-thread cache.
///
/// Each participating thread obtains one scratch value by calling
/// `factory(cached)`, where `cached` is that thread's scratch of type
/// `S` left over from a previous region (or `None`). The factory owns
/// validation: the cached value is a **capacity donor only** — reuse its
/// allocations when the dimensions still fit, rebuild otherwise, and
/// return a value satisfying the body's preconditions either way.
/// Scratch must hold workspace, never results: outputs go through the
/// `out` chunks, so scratch reuse cannot affect values and the
/// determinism contract holds.
///
/// ```
/// struct Arena { marks: Vec<u32> }
/// let n = 500;
/// let mut out = vec![0u32; n];
/// tracered_par::par_chunks_mut_scratch(
///     &mut out,
///     64,
///     4,
///     |cached: Option<Arena>| match cached {
///         // Reuse the allocation when it still fits this region.
///         Some(a) if a.marks.len() == n => a,
///         _ => Arena { marks: vec![0; n] },
///     },
///     |arena, start, chunk| {
///         for (off, v) in chunk.iter_mut().enumerate() {
///             arena.marks[start + off] += 1; // workspace, not output
///             *v = (start + off) as u32;
///         }
///     },
/// );
/// assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
/// ```
pub fn par_chunks_mut_scratch<T, S, B, F>(
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
    global().chunks_mut_scratch(out, chunk, threads, factory, body);
}

/// Runs `body` over paired disjoint chunks of two equally long slices —
/// the shape of fused vector updates (`x += α p`, `r -= α Ap`) — on up
/// to `threads` threads of the [global pool](global).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn par_chunks2_mut<A, B, F>(a: &mut [A], b: &mut [B], chunk: usize, threads: usize, body: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    global().chunks2_mut(a, b, chunk, threads, body);
}

/// Runs an explicit job list on up to `threads` threads of the
/// [global pool](global), through the same work-stealing queue as the
/// chunk entry points.
///
/// This is the escape hatch for parallel regions whose output cannot be
/// expressed as chunks of a single slice — e.g. the multi-RHS SpMM,
/// whose jobs are (column, row-range) tiles of a column-major block, or
/// partition-parallel densification, whose jobs own one partition each.
/// Jobs carry their own disjoint `&mut` state; with `threads <= 1` they
/// run in order on the calling thread, and because each job writes only
/// its own state the results are bit-identical for every thread count.
/// Jobs may themselves enter nested parallel regions.
pub fn par_jobs<T, F>(jobs: Vec<T>, threads: usize, body: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    global().jobs(jobs, threads, body);
}

/// Chunked deterministic sum reduction: `Σ body(lo, hi)` over
/// consecutive `chunk`-sized ranges of `0..len`, partial sums combined
/// in chunk order on up to `threads` threads of the
/// [global pool](global).
///
/// The chunk decomposition depends only on `chunk`, never on `threads`,
/// so the result is bit-identical for every thread count.
///
/// ```
/// let dot = tracered_par::par_reduce_f64(10_000, 1024, 4, |lo, hi| {
///     (lo..hi).map(|i| ((i + 1) as f64).recip().powi(2)).sum()
/// });
/// assert!((dot - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-3);
/// ```
pub fn par_reduce_f64<F>(len: usize, chunk: usize, threads: usize, body: F) -> f64
where
    F: Fn(usize, usize) -> f64 + Sync,
{
    global().reduce_f64(len, chunk, threads, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(Some(4)), 4);
        assert_eq!(effective_threads(Some(0)), 1);
        assert!(effective_threads(None) >= 1);
        assert_eq!(effective_threads(None), global_pool_size());
    }

    #[test]
    fn chunk_size_bounds() {
        assert_eq!(chunk_size(0, 4, 8), 8);
        let c = chunk_size(1000, 4, 1);
        assert!((1..=1000).contains(&c));
        assert!(chunk_size(10, 4, 64) == 10);
        // Degenerate knobs fall back to sane minima.
        assert_eq!(chunk_size(0, 0, 0), 1);
        assert!(chunk_size(100, 0, 1) >= 1);
    }

    #[test]
    fn parallel_fill_matches_serial_exactly() {
        let pool = Pool::new(4);
        let f = |s: &mut u64, start: usize, out: &mut [f64]| {
            for (off, v) in out.iter_mut().enumerate() {
                *s += 1; // scratch is per-worker; value independence matters
                let i = start + off;
                *v = (i as f64).sin() * (i as f64 + 0.5).sqrt();
            }
        };
        let mut serial = vec![0.0; 1023];
        pool.chunks_mut_scratch(&mut serial, 64, 1, |_| 0u64, f);
        for threads in [2, 3, 8] {
            let mut par = vec![0.0; 1023];
            pool.chunks_mut_scratch(&mut par, 64, threads, |_| 0u64, f);
            assert!(
                serial.iter().zip(par.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "thread count {threads} changed results"
            );
        }
    }

    #[test]
    fn every_element_visited_exactly_once() {
        let pool = Pool::new(5);
        let mut counts = vec![0u32; 509];
        pool.chunks_mut(&mut counts, 7, 5, |_, out| {
            for v in out.iter_mut() {
                *v += 1;
            }
        });
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn paired_chunks_stay_aligned() {
        let pool = Pool::new(4);
        let n = 777;
        let p: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut x = vec![0.0f64; n];
        let mut r = vec![100.0f64; n];
        pool.chunks2_mut(&mut x, &mut r, 32, 4, |start, xs, rs| {
            for off in 0..xs.len() {
                xs[off] += 2.0 * p[start + off];
                rs[off] -= p[start + off];
            }
        });
        for i in 0..n {
            assert_eq!(x[i], 2.0 * i as f64);
            assert_eq!(r[i], 100.0 - i as f64);
        }
    }

    #[test]
    fn jobs_all_run_exactly_once_for_every_thread_count() {
        let pool = Pool::new(5);
        for threads in [1usize, 2, 5] {
            let mut out = vec![0u32; 100];
            let jobs: Vec<(usize, &mut u32)> = out.iter_mut().enumerate().collect();
            pool.jobs(jobs, threads, |(i, slot)| {
                *slot += 1 + i as u32;
            });
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 1 + i as u32, "job {i} at {threads} threads");
            }
        }
        pool.jobs(Vec::<usize>::new(), 4, |_| panic!("no jobs expected"));
    }

    #[test]
    fn reduction_is_thread_count_invariant() {
        let pool = Pool::new(7);
        let body = |lo: usize, hi: usize| (lo..hi).map(|i| 1.0 / (1.0 + i as f64)).sum::<f64>();
        let base = pool.reduce_f64(10_000, 128, 1, body);
        for threads in [2, 4, 7] {
            let v = pool.reduce_f64(10_000, 128, threads, body);
            assert_eq!(base.to_bits(), v.to_bits());
        }
        // The global-pool free function agrees with the explicit pool.
        assert_eq!(base.to_bits(), par_reduce_f64(10_000, 128, 2, body).to_bits());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = Pool::new(4);
        let mut empty: Vec<f64> = vec![];
        pool.chunks_mut(&mut empty, 16, 4, |_, _| panic!("no chunks expected"));
        assert_eq!(pool.reduce_f64(0, 16, 4, |_, _| 1.0), 0.0);
        let mut one = vec![0.0f64];
        pool.chunks_mut(&mut one, 16, 4, |start, out| {
            assert_eq!(start, 0);
            out[0] = 42.0;
        });
        assert_eq!(one[0], 42.0);
    }

    #[test]
    fn free_functions_route_through_global_pool() {
        let mut out = vec![0usize; 300];
        par_chunks_mut(&mut out, 16, 4, |start, piece| {
            for (off, v) in piece.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        // The global pool exists now and never spawned more than size-1.
        assert!(global_threads_spawned() <= global_pool_size().saturating_sub(1));
    }
}
