//! Lifecycle tests for the persistent pool: worker-thread creation is
//! O(1) per process, regions nest without deadlock, panics propagate
//! without poisoning the pool, and the sizing helpers handle degenerate
//! knobs.

use std::sync::atomic::{AtomicUsize, Ordering};

use tracered_par::Pool;

/// The acceptance-criterion counter: hundreds of regions reuse the same
/// parked workers, so the spawn count equals `size − 1` forever — with
/// `std::thread::scope` it would have been `regions × (threads − 1)`.
#[test]
fn worker_creation_is_o1_per_process() {
    let pool = Pool::new(4);
    assert_eq!(pool.threads_spawned(), 3, "workers spawn eagerly at construction");
    for round in 0..200 {
        let mut out = vec![0usize; 2048];
        pool.chunks_mut(&mut out, 64, 4, |start, piece| {
            for (off, v) in piece.iter_mut().enumerate() {
                *v = start + off + round;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + round));
        assert_eq!(
            pool.threads_spawned(),
            3,
            "region {round} must not create threads — the pool is persistent"
        );
    }
}

#[test]
fn pool_reuse_across_region_shapes() {
    // One pool serves every region shape back to back.
    let pool = Pool::new(3);
    let mut a = vec![0.0f64; 1000];
    let mut b = vec![1.0f64; 1000];
    pool.chunks_mut(&mut a, 128, 3, |start, piece| {
        for (off, v) in piece.iter_mut().enumerate() {
            *v = (start + off) as f64;
        }
    });
    pool.chunks2_mut(&mut a, &mut b, 128, 3, |start, xs, ys| {
        for off in 0..xs.len() {
            ys[off] += xs[off];
            xs[off] *= 2.0;
            let _ = start;
        }
    });
    let total = pool.reduce_f64(1000, 64, 3, |lo, hi| {
        a[lo..hi].iter().sum::<f64>() + b[lo..hi].iter().sum::<f64>()
    });
    // a[i] = 2i, b[i] = 1 + i ⇒ Σ = 2·Σi + 1000 + Σi = 3·499500 + 1000.
    assert_eq!(total, 3.0 * 499_500.0 + 1000.0);
    assert_eq!(pool.threads_spawned(), 2);
}

/// The sign of a zero total is part of the bit-identity contract: four
/// chunks that each sum to −0.0 combine to the same bits on one thread
/// and on a pool with workers.
#[test]
fn reduce_of_negative_zeros_is_bit_identical_across_threads() {
    let pool = Pool::new(4);
    let serial = pool.reduce_f64(4, 1, 1, |_, _| -0.0);
    let parallel = pool.reduce_f64(4, 1, 4, |_, _| -0.0);
    assert_eq!(serial.to_bits(), 0.0f64.to_bits());
    assert_eq!(parallel.to_bits(), serial.to_bits());
}

/// Nested regions: `par_chunks_mut` inside a `par_jobs` job — the shape
/// of partition-parallel densification calling parallel scoring. Must
/// complete (no deadlock) and stay bit-identical at every thread count.
#[test]
fn nested_chunks_inside_jobs() {
    let pool = Pool::new(4);
    let run = |threads: usize| -> Vec<Vec<f64>> {
        let mut blocks: Vec<Vec<f64>> = (0..6).map(|_| vec![0.0; 513]).collect();
        let jobs: Vec<(usize, &mut Vec<f64>)> = blocks.iter_mut().enumerate().collect();
        pool.jobs(jobs, threads, |(j, block)| {
            // Inner region runs on the same pool, from inside a job.
            pool.chunks_mut(block, 64, threads, |start, piece| {
                for (off, v) in piece.iter_mut().enumerate() {
                    let i = start + off;
                    *v = ((i * 31 + j * 7) as f64).sin();
                }
            });
        });
        blocks
    };
    let serial = run(1);
    for threads in [2, 4] {
        let par = run(threads);
        for (s, p) in serial.iter().zip(par.iter()) {
            assert!(
                s.iter().zip(p.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "nested region changed results at {threads} threads"
            );
        }
    }
    assert_eq!(pool.threads_spawned(), 3, "nesting must not spawn extra threads");
}

/// The reverse nesting: `par_jobs` from inside a `par_chunks_mut` body.
#[test]
fn nested_jobs_inside_chunks() {
    let pool = Pool::new(4);
    let hits = AtomicUsize::new(0);
    let mut out = vec![0u32; 16];
    pool.chunks_mut(&mut out, 4, 4, |_, piece| {
        let jobs: Vec<&mut u32> = piece.iter_mut().collect();
        pool.jobs(jobs, 2, |slot| {
            *slot += 1;
            hits.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(out.iter().all(|&v| v == 1));
    assert_eq!(hits.load(Ordering::Relaxed), 16);
}

/// A panicking job propagates its payload to the region's caller, and
/// the pool stays healthy for later regions (no poisoning, no thread
/// churn).
#[test]
fn panic_propagates_without_poisoning_the_pool() {
    let pool = Pool::new(4);
    let spawned_before = pool.threads_spawned();
    for round in 0..3 {
        let mut out = vec![0u32; 256];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.chunks_mut(&mut out, 8, 4, |start, piece| {
                if start == 64 {
                    panic!("deliberate job failure (round {round})");
                }
                for v in piece.iter_mut() {
                    *v = 1;
                }
            });
        }));
        let payload = result.expect_err("the job panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("deliberate job failure"), "unexpected payload: {msg}");
        // The same pool immediately serves a clean region.
        let mut ok = vec![0u32; 256];
        pool.chunks_mut(&mut ok, 8, 4, |_, piece| {
            for v in piece.iter_mut() {
                *v = 7;
            }
        });
        assert!(ok.iter().all(|&v| v == 7), "pool poisoned after panic in round {round}");
    }
    assert_eq!(pool.threads_spawned(), spawned_before, "panic recovery must not respawn");
}

/// Panic inside a `par_jobs` job: later jobs are discarded (their `Drop`
/// still runs), the first payload wins, and the pool survives.
#[test]
fn panic_in_jobs_region_drops_remaining_jobs() {
    let pool = Pool::new(2);
    let ran = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let jobs: Vec<usize> = (0..100).collect();
        pool.jobs(jobs, 2, |j| {
            if j == 0 {
                panic!("first job fails");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }));
    assert!(result.is_err(), "panic must propagate");
    assert!(
        ran.load(Ordering::Relaxed) < 100,
        "cancellation should discard at least the tail of the job list"
    );
    // Pool still works.
    let mut out = vec![0u8; 64];
    pool.chunks_mut(&mut out, 4, 2, |_, piece| piece.fill(1));
    assert!(out.iter().all(|&v| v == 1));
}

/// A panicking serial region (threads = 1) takes the plain unwinding
/// path and equally leaves the pool reusable.
#[test]
fn serial_region_panic_is_transparent() {
    let pool = Pool::new(2);
    let mut out = vec![0u32; 8];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.chunks_mut(&mut out, 2, 1, |start, _| {
            if start == 4 {
                panic!("serial failure");
            }
        });
    }));
    assert!(result.is_err());
    pool.chunks_mut(&mut out, 2, 2, |_, piece| piece.fill(3));
    assert!(out.iter().all(|&v| v == 3));
}

/// Scratch recycling: the factory sees the cached workspace from the
/// previous region (serial path, so the cache lives on this thread) and
/// may reuse its allocation.
#[test]
fn scratch_is_recycled_across_regions() {
    struct Arena {
        generation: u32,
        buf: Vec<f64>,
    }
    let pool = Pool::new(1);
    let reused = AtomicUsize::new(0);
    for _ in 0..5 {
        let mut out = vec![0.0f64; 64];
        pool.chunks_mut_scratch(
            &mut out,
            8,
            1,
            |cached: Option<Arena>| match cached {
                Some(mut a) if a.buf.len() == 16 => {
                    reused.fetch_add(1, Ordering::Relaxed);
                    a.generation += 1;
                    a
                }
                _ => Arena { generation: 0, buf: vec![0.0; 16] },
            },
            |arena, _, piece| {
                arena.buf[0] += 1.0; // workspace only
                piece.fill(f64::from(arena.generation));
            },
        );
    }
    assert_eq!(reused.load(Ordering::Relaxed), 4, "regions 2..=5 must see the cached arena");
}

/// Scratch dirtied by a panicking body must NOT be recycled: the body
/// aborted mid-update, so its workspace invariants may be broken, and a
/// later region's factory must never be handed it as a capacity donor.
#[test]
fn panicked_region_scratch_is_not_recycled() {
    struct Probe(Vec<f64>);
    let pool = Pool::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut out = vec![0u8; 64];
        pool.chunks_mut_scratch(
            &mut out,
            4,
            2,
            |cached: Option<Probe>| cached.unwrap_or_else(|| Probe(vec![0.0; 8])),
            |probe, _, _| {
                probe.0[0] += 1.0; // dirty the workspace…
                panic!("abort mid-update"); // …and die before cleanup
            },
        );
    }));
    assert!(result.is_err(), "the body panic must reach the caller");
    // The next region of the same scratch type must start from scratch.
    let saw_cached = AtomicUsize::new(0);
    let mut out = vec![0u8; 64];
    pool.chunks_mut_scratch(
        &mut out,
        4,
        2,
        |cached: Option<Probe>| {
            if cached.is_some() {
                saw_cached.fetch_add(1, Ordering::Relaxed);
            }
            Probe(vec![0.0; 8])
        },
        |_, _, piece| piece.fill(1),
    );
    assert!(out.iter().all(|&v| v == 1));
    assert_eq!(
        saw_cached.load(Ordering::Relaxed),
        0,
        "scratch from the panicked region leaked into the cache"
    );
}

#[test]
fn degenerate_thread_and_chunk_knobs() {
    // threads = 0 is clamped to 1 everywhere.
    assert_eq!(tracered_par::effective_threads(Some(0)), 1);
    let pool = Pool::new(0);
    assert_eq!(pool.size(), 1);
    assert_eq!(pool.worker_count(), 0);
    assert_eq!(pool.threads_spawned(), 0);
    let mut out = vec![0u8; 10];
    pool.chunks_mut(&mut out, 0, 0, |_, piece| piece.fill(1)); // chunk 0 → 1
    assert!(out.iter().all(|&v| v == 1));
    // 0-length inputs never invoke the body.
    let mut empty: Vec<u8> = Vec::new();
    pool.chunks_mut(&mut empty, 4, 4, |_, _| unreachable!("empty input"));
    pool.jobs(Vec::<u8>::new(), 4, |_| unreachable!("no jobs"));
    assert_eq!(pool.reduce_f64(0, 4, 4, |_, _| unreachable!("empty reduction")), 0.0);
    // len < chunk runs as one serial chunk.
    let mut small = vec![0u8; 3];
    pool.chunks_mut(&mut small, 64, 4, |start, piece| {
        assert_eq!(start, 0);
        assert_eq!(piece.len(), 3);
        piece.fill(9);
    });
    assert!(small.iter().all(|&v| v == 9));
    // chunk_size edge cases.
    assert_eq!(tracered_par::chunk_size(0, 4, 8), 8);
    assert_eq!(tracered_par::chunk_size(0, 0, 0), 1);
    assert_eq!(tracered_par::chunk_size(10, 4, 64), 10);
    assert!(tracered_par::chunk_size(1_000_000, 0, 1) >= 1);
}

/// Explicit pools are independent: dropping one does not disturb the
/// global pool or other pools.
#[test]
fn dropping_a_pool_joins_its_workers() {
    for _ in 0..10 {
        let pool = Pool::new(3);
        let mut out = vec![0u16; 128];
        pool.chunks_mut(&mut out, 8, 3, |_, piece| piece.fill(5));
        assert!(out.iter().all(|&v| v == 5));
        drop(pool); // joins the two workers; must not hang or leak
    }
    // The global pool still functions afterwards.
    let mut out = vec![0u16; 128];
    tracered_par::par_chunks_mut(&mut out, 8, 4, |_, piece| piece.fill(6));
    assert!(out.iter().all(|&v| v == 6));
}
