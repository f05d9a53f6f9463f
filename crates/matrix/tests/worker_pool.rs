//! Lifecycle and equivalence suite for the persistent [`WorkerPool`].
//!
//! Every multi-threaded `LaneExecutor` routes its large stages through
//! the pool, so the executor-level tests here run the genuinely threaded
//! path; CI repeats the suite in release mode with
//! `PRIVELET_STRESS_ITERS=64`.
//!
//! Covered contracts:
//! - pooled dispatch is **bit-identical** to the serial lane walk, at
//!   every thread count (proptested over random shapes/axes);
//! - dropping the pool joins every worker thread (observed through
//!   thread-local exit guards, which only fire when a worker thread has
//!   genuinely terminated — so a leak fails the test rather than merely
//!   outliving it, and concurrently running tests can't perturb the
//!   count the way a process-wide thread census could);
//! - a kernel panic on a worker surfaces as
//!   [`MatrixError::WorkerPanicked`] — not a hang, not a process abort —
//!   and the pool stays usable afterwards.

mod support;

use privelet_matrix::{LaneExecutor, LaneKernel, MatrixError, NdMatrix, WorkerPool};
use proptest::prelude::*;
use support::{bits, map_lanes};

/// Stress iterations: `PRIVELET_STRESS_ITERS` when set (CI), else
/// `default` — kept small so debug runs on few-core machines stay fast.
fn stress_iters(default: usize) -> usize {
    std::env::var("PRIVELET_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A float-mixing kernel: unequal in/out lengths and real FP arithmetic,
/// so bit-identity assertions test summation, not just data movement.
struct Mix {
    in_len: usize,
    out_len: usize,
}

impl LaneKernel for Mix {
    fn input_len(&self) -> usize {
        self.in_len
    }
    fn output_len(&self) -> usize {
        self.out_len
    }
    fn scratch_len(&self) -> usize {
        self.in_len
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        let mut acc = 0.0;
        for (slot, &v) in scratch.iter_mut().zip(src) {
            acc += v * 1.0625;
            *slot = acc;
        }
        for (j, slot) in dst.iter_mut().enumerate() {
            *slot = scratch[(j * 5 + 1) % self.in_len] - 0.5 * src[j % self.in_len];
        }
    }
}

/// A kernel that panics on any lane whose first element is the marker.
struct PanicOnMarker {
    len: usize,
    marker: f64,
}

impl LaneKernel for PanicOnMarker {
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
        assert!(src[0] != self.marker, "marker lane");
        dst.copy_from_slice(src);
    }
}

/// Serial reference for `Mix` through `map_lanes` on an `[outer, len,
/// inner]` layout folded into a matrix.
fn serial_reference(src: &[f64], outer: usize, in_len: usize, inner: usize, k: &Mix) -> Vec<f64> {
    let m = NdMatrix::from_vec(&[outer, in_len, inner], src.to_vec()).unwrap();
    let want = map_lanes(&m, 1, k.out_len, |s, d| {
        let mut scratch = vec![0.0; k.in_len];
        k.apply(s, d, &mut scratch);
    })
    .unwrap();
    want.as_slice().to_vec()
}

fn lane_data(cells: usize) -> Vec<f64> {
    (0..cells)
        .map(|i| (((i * 2654435761) % 977) as f64) / 13.0 - 35.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pooled dispatch is bit-identical to the serial lane walk for
    /// every `[outer, len, inner]` decomposition, thread count, and tile
    /// width — including counts exceeding the pool size / lane count and
    /// tiles wider than `inner` (which leave ragged boundary tiles).
    #[test]
    fn dispatch_is_bit_identical_to_serial(
        outer in 1usize..=6,
        in_len in 1usize..=8,
        inner in 1usize..=6,
        out_delta in 0usize..=4,
        threads in 1usize..=9,
        workers in 0usize..=4,
        tile in 1usize..=8,
    ) {
        let k = Mix { in_len, out_len: in_len + out_delta };
        let src = lane_data(outer * in_len * inner);
        let want = serial_reference(&src, outer, in_len, inner, &k);

        let pool = WorkerPool::new(workers);
        prop_assert_eq!(pool.workers(), workers);
        let mut dst = vec![f64::NAN; outer * k.out_len * inner];
        pool.dispatch(&src, &mut dst, &k, in_len, k.out_len, inner, tile, threads).unwrap();
        // Bitwise: identical per-lane arithmetic regardless of which
        // thread ran which chunk.
        for (a, b) in dst.iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn dispatch_validates_layout() {
    let pool = WorkerPool::new(1);
    let k = Mix {
        in_len: 4,
        out_len: 4,
    };
    let src = lane_data(8);
    // Destination not sized [outer, out_len, inner].
    let mut short = vec![0.0; 7];
    assert!(matches!(
        pool.dispatch(&src, &mut short, &k, 4, 4, 1, 1, 2)
            .unwrap_err(),
        MatrixError::DataLenMismatch { .. }
    ));
    // Source not a whole number of [in_len, inner] blocks.
    let mut dst = [0.0; 8];
    assert!(matches!(
        pool.dispatch(&src[..7], &mut dst[..7], &k, 4, 4, 1, 1, 2)
            .unwrap_err(),
        MatrixError::DataLenMismatch { .. }
    ));
}

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Increments its counter when the owning thread *exits* (thread-local
/// destructors run during thread termination, and `join` returns only
/// after that) — the observable that proves a worker was reaped.
struct ExitGuard(Arc<AtomicUsize>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static EXIT_GUARD: RefCell<Option<ExitGuard>> = const { RefCell::new(None) };
}

/// Copies lanes through while arming the calling thread's exit guard
/// with `exits` — so every distinct thread that ran this kernel bumps
/// the counter exactly once, when (and only when) it terminates.
struct GuardKernel {
    len: usize,
    exits: Arc<AtomicUsize>,
}

impl LaneKernel for GuardKernel {
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
        EXIT_GUARD.with(|g| {
            let mut g = g.borrow_mut();
            if g.is_none() {
                *g = Some(ExitGuard(self.exits.clone()));
            }
        });
        dst.copy_from_slice(src);
    }
}

#[test]
fn drop_joins_every_worker() {
    let iters = stress_iters(4);
    for round in 0..iters {
        let exits = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(3);
        let k = GuardKernel {
            len: 16,
            exits: exits.clone(),
        };
        // 64 lanes split 4 ways: every worker gets a chunk and arms its
        // guard (the dispatching thread arms one too, but it does not
        // exit, so it never counts).
        let src = lane_data(16 * 64);
        let mut dst = vec![0.0; 16 * 64];
        pool.dispatch(&src, &mut dst, &k, 16, 16, 1, 1, 4).unwrap();
        assert_eq!(exits.load(Ordering::SeqCst), 0, "round {round}: alive");
        drop(pool);
        // Join is synchronous and runs thread-local destructors before
        // returning: all three workers must have terminated by now.
        assert_eq!(exits.load(Ordering::SeqCst), 3, "round {round}: joined");
    }
}

#[test]
fn worker_panic_is_an_error_not_a_hang_and_pool_survives() {
    // 8 contiguous lanes of length 4 split 4 ways: chunks are lane
    // pairs {0,1}, {2,3}, {4,5}, {6,7}. The marker sits in lane 6, so
    // only the last pool worker's chunk panics — the dispatching
    // thread's own chunk succeeds and the error genuinely crosses the
    // completion channel.
    let pool = WorkerPool::new(3);
    let k = PanicOnMarker {
        len: 4,
        marker: -1.0,
    };
    let mut src = lane_data(8 * 4);
    src[6 * 4] = -1.0;
    let mut dst = vec![0.0; 8 * 4];
    assert_eq!(
        pool.dispatch(&src, &mut dst, &k, 4, 4, 1, 1, 4)
            .unwrap_err(),
        MatrixError::WorkerPanicked
    );

    // A panic on the dispatching thread's own chunk (lane 0) reports
    // the same way instead of unwinding while workers hold borrows.
    src[0] = -1.0;
    assert_eq!(
        pool.dispatch(&src, &mut dst, &k, 4, 4, 1, 1, 4)
            .unwrap_err(),
        MatrixError::WorkerPanicked
    );

    // The panics were contained per job: the same pool still computes,
    // bit-identically to the serial reference.
    let good = Mix {
        in_len: 4,
        out_len: 6,
    };
    let src = lane_data(8 * 4);
    let mut dst = vec![f64::NAN; 8 * 6];
    pool.dispatch(&src, &mut dst, &good, 4, 6, 1, 1, 4).unwrap();
    let want = serial_reference(&src, 8, 4, 1, &good);
    assert_eq!(dst, want);
}

/// Executor-level: a kernel panic inside a fanned-out stage comes back
/// as `Err(WorkerPanicked)` from `run`, and the executor (pool included)
/// remains usable.
#[test]
fn executor_surfaces_worker_panic_as_error() {
    let mut exec = LaneExecutor::with_threads(4).with_parallel_threshold(0);
    let k = PanicOnMarker {
        len: 8,
        marker: -2.0,
    };
    // The marker lane lands in the *last* chunk of 32 lanes split 4
    // ways, i.e. on a pool worker.
    let mut data = lane_data(32 * 8);
    data[30 * 8] = -2.0;
    let m = NdMatrix::from_vec(&[32, 8], data).unwrap();
    assert_eq!(
        exec.map_axis(&m, 1, &k).unwrap_err(),
        MatrixError::WorkerPanicked
    );
    // Same executor, clean input: works, and matches serial bitwise.
    let clean = NdMatrix::from_vec(&[32, 8], lane_data(32 * 8)).unwrap();
    let got = exec.map_axis(&clean, 1, &k).unwrap();
    let want = LaneExecutor::serial().map_axis(&clean, 1, &k).unwrap();
    assert_eq!(bits(&got), bits(&want));
}

/// The executor spawns its pool lazily and keeps it across runs: no
/// worker thread exits between runs (a respawn-per-run implementation
/// would churn guards on every call), and dropping the executor joins
/// exactly the `threads − 1` workers it spawned once.
#[test]
fn executor_pool_is_spawned_once_and_joined_on_drop() {
    let iters = stress_iters(8);
    let exits = Arc::new(AtomicUsize::new(0));
    let mut exec = LaneExecutor::with_threads(3).with_parallel_threshold(0);
    let k = GuardKernel {
        len: 16,
        exits: exits.clone(),
    };
    // 64 lanes across 3 threads: both pool workers get a chunk per run.
    let m = NdMatrix::from_vec(&[64, 16], lane_data(64 * 16)).unwrap();
    let first = exec.map_axis(&m, 1, &k).unwrap();
    for _ in 0..iters {
        let again = exec.map_axis(&m, 1, &k).unwrap();
        assert_eq!(bits(&again), bits(&first));
        assert_eq!(
            exits.load(Ordering::SeqCst),
            0,
            "a worker exited mid-lifetime: the pool is not persistent"
        );
    }
    drop(exec);
    assert_eq!(
        exits.load(Ordering::SeqCst),
        2,
        "drop must join the two spawned-once workers"
    );
}
