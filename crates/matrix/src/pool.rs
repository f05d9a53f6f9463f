//! A persistent worker pool for lane-stage execution.
//!
//! Spawning fresh `std::thread::scope` threads for **every stage** of
//! every pipeline would make a d-stage transform on a d-dimensional
//! matrix pay d spawn/join rounds per call, and a publish runs several
//! such pipelines. A [`WorkerPool`] spawns its threads once and feeds
//! them stage chunks through per-worker channels, so the steady-state
//! cost of fanning a stage out is a handful of channel sends, not thread
//! creation. [`LaneExecutor`](crate::LaneExecutor) owns one, spawned on
//! its first stage that crosses the parallel cut-over.
//!
//! Determinism contract: a stage's lane range is split into contiguous
//! chunks — `chunk = n_lanes.div_ceil(workers)`, rounded up to a
//! multiple of the stage's tile width so the cache-blocked tile is the
//! pool's chunk unit (no worker starts mid-tile), worker `w` owning
//! `[w·chunk, min((w+1)·chunk, n_lanes))` — and each chunk is processed
//! by exactly one thread with its own scratch buffers. Lanes write
//! disjoint outputs and per-lane arithmetic is identical to the serial
//! path, so pooled output is **bit-identical** to serial regardless of
//! which thread runs which chunk or how wide the tiles are (the
//! equivalence suite asserts this).
//!
//! Chunk 0 always runs on the dispatching thread: a pool of `N` workers
//! therefore serves stages of up to `N + 1`-way parallelism, and a
//! 1-thread executor never touches the pool at all. Construction never
//! fails: a worker the OS refuses to spawn (e.g. `EAGAIN` under a
//! process limit) is simply absent, and dispatch spreads the stage over
//! the workers that exist — down to the calling thread alone.
//!
//! Lifecycle: jobs carry lifetime-erased pointers into the dispatcher's
//! borrows, which is sound because [`dispatch`](WorkerPool::dispatch)
//! blocks until every chunk completion has been collected before
//! returning. A kernel panic inside a worker is caught
//! ([`std::panic::catch_unwind`]), reported through the completion
//! channel, and surfaces as [`MatrixError::WorkerPanicked`] — never a
//! hang, and the pool stays usable. Dropping the pool closes the job
//! channels and joins every worker.

use crate::executor::{process_lanes, LaneKernel, WorkerBufs};
use crate::{MatrixError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One stage chunk, lifetime-erased for the trip through a channel.
///
/// The raw pointers alias the dispatcher's `src`/`dst`/`kernel` borrows;
/// they are valid for the whole job because `dispatch` does not return
/// (and so the borrows cannot end) until the worker has reported
/// completion.
struct Task {
    src: *const f64,
    src_len: usize,
    dst: *mut f64,
    kernel: *const dyn LaneKernel,
    in_len: usize,
    out_len: usize,
    inner: usize,
    tile: usize,
    lane_lo: usize,
    lane_hi: usize,
}

// SAFETY: the pointers are only dereferenced while the dispatcher blocks
// on the matching completion, keeping the underlying borrows alive; lane
// ranges across concurrent tasks are disjoint (see `dispatch`).
unsafe impl Send for Task {}

struct Job {
    task: Task,
    /// `true` = the kernel panicked while running this chunk.
    done: mpsc::Sender<bool>,
}

#[derive(Debug)]
struct Worker {
    jobs: mpsc::Sender<Job>,
    handle: JoinHandle<()>,
}

/// A fixed set of persistent worker threads executing lane-stage chunks.
/// See the [module docs](self) for the determinism and lifecycle
/// contracts.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawns a pool of up to `workers` persistent threads (0 is a
    /// valid, empty pool: every dispatch then runs entirely on the
    /// caller). Threads the OS refuses to create are left out, so the
    /// pool may hold fewer workers than requested; [`workers`] reports
    /// how many it got.
    ///
    /// [`workers`]: Self::workers
    pub fn new(workers: usize) -> WorkerPool {
        let workers = (0..workers)
            .filter_map(|i| {
                let (jobs, rx) = mpsc::channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("privelet-pool-{i}"))
                    .spawn(move || worker_loop(rx))
                    .ok()?;
                Some(Worker { jobs, handle })
            })
            .collect();
        WorkerPool { workers }
    }

    /// Number of worker threads (the dispatching thread comes on top:
    /// a stage dispatched at `workers() + 1`-way parallelism saturates
    /// the pool).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs one lane stage across the pool: `src` is `[outer, in_len,
    /// inner]` row-major, `dst` is `[outer, out_len, inner]`, and the
    /// flat lane range is split into `threads.min(n_lanes)` contiguous
    /// chunks (capped at `workers() + 1`); chunk 0 runs on the calling
    /// thread, the rest on the pool.
    ///
    /// Returns [`MatrixError::WorkerPanicked`] if the kernel panicked on
    /// any chunk — including chunk 0, whose panic is caught so the
    /// already-dispatched workers are never left writing through
    /// pointers into unwound stack frames. The pool remains usable
    /// afterwards.
    ///
    /// Errors with [`MatrixError::DataLenMismatch`] when the slice
    /// lengths are inconsistent with the `[outer, len, inner]` layout.
    #[allow(clippy::too_many_arguments)] // mirrors the lane-stage signature 1:1
    pub fn dispatch(
        &self,
        src: &[f64],
        dst: &mut [f64],
        kernel: &dyn LaneKernel,
        in_len: usize,
        out_len: usize,
        inner: usize,
        tile: usize,
        threads: usize,
    ) -> Result<()> {
        let lane_cells = in_len.checked_mul(inner).ok_or(MatrixError::TooLarge)?;
        if lane_cells == 0 || !src.len().is_multiple_of(lane_cells) {
            return Err(MatrixError::DataLenMismatch {
                expected: lane_cells,
                got: src.len(),
            });
        }
        let outer = src.len() / lane_cells;
        let n_lanes = outer * inner;
        if dst.len() != outer * out_len * inner {
            return Err(MatrixError::DataLenMismatch {
                expected: outer * out_len * inner,
                got: dst.len(),
            });
        }
        if n_lanes == 0 {
            return Ok(());
        }

        // The scoped implementation's split, capped by pool size, with
        // the chunk rounded up to a whole number of tiles so the
        // cache-blocked tile is the chunk unit: no worker starts
        // mid-tile, so the tiling inside each chunk is exactly the
        // serial tiling of that lane range.
        let tile = tile.max(1);
        let workers = threads.clamp(1, n_lanes).min(self.workers.len() + 1);
        let chunk = n_lanes
            .div_ceil(workers)
            .checked_next_multiple_of(tile)
            .unwrap_or(n_lanes);
        let dst_ptr = dst.as_mut_ptr();

        let (done_tx, done_rx) = mpsc::channel::<bool>();
        let mut sent = 0usize;
        let mut send_failed = false;
        for w in 1..workers {
            let lane_lo = w * chunk;
            let lane_hi = ((w + 1) * chunk).min(n_lanes);
            if lane_lo >= lane_hi {
                continue;
            }
            let job = Job {
                task: Task {
                    src: src.as_ptr(),
                    src_len: src.len(),
                    dst: dst_ptr,
                    // Erase the kernel borrow's lifetime for the channel
                    // trip; the completion collection below keeps the
                    // borrow alive for the job's whole execution.
                    // SAFETY: the transmute only changes the trait-object
                    // lifetime bound; the pointer is dereferenced
                    // exclusively while `dispatch` blocks on completions.
                    kernel: unsafe {
                        std::mem::transmute::<
                            *const (dyn LaneKernel + '_),
                            *const (dyn LaneKernel + 'static),
                        >(kernel as *const dyn LaneKernel)
                    },
                    in_len,
                    out_len,
                    inner,
                    tile,
                    lane_lo,
                    lane_hi,
                },
                done: done_tx.clone(),
            };
            match self.workers[w - 1].jobs.send(job) {
                Ok(()) => sent += 1,
                // The worker is gone (it can only have died outside
                // `catch_unwind`, which is effectively unreachable);
                // dispatch the remaining chunks nowhere and report.
                Err(_) => {
                    send_failed = true;
                    break;
                }
            }
        }
        drop(done_tx);

        // Chunk 0 on the calling thread, panic-guarded: unwinding past
        // this frame while workers still hold pointers into `src`/`dst`
        // would be unsound, so collect every completion first and only
        // then report the panic as an error.
        let local = catch_unwind(AssertUnwindSafe(|| {
            let mut bufs = WorkerBufs::new(kernel, in_len, out_len, tile);
            // SAFETY: chunk 0's lane range is disjoint from every
            // dispatched chunk, and `dst` is sized above.
            unsafe {
                process_lanes(
                    src,
                    dst_ptr,
                    kernel,
                    in_len,
                    out_len,
                    inner,
                    0,
                    chunk.min(n_lanes),
                    &mut bufs,
                );
            }
        }));
        let mut panicked = local.is_err();
        for _ in 0..sent {
            match done_rx.recv() {
                Ok(worker_panicked) => panicked |= worker_panicked,
                // A sender dropped without reporting: the worker died
                // mid-job. Nothing more will arrive.
                Err(_) => {
                    panicked = true;
                    break;
                }
            }
        }
        if panicked || send_failed {
            return Err(MatrixError::WorkerPanicked);
        }
        Ok(())
    }
}

impl Drop for WorkerPool {
    /// Closes every job channel and joins every worker, so no pool
    /// thread outlives the pool. A worker that panicked outside
    /// `catch_unwind` (unreachable in practice) is reaped, not
    /// re-panicked.
    fn drop(&mut self) {
        // Close every channel before the first join, so all workers wind
        // down concurrently instead of one join at a time.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut self.workers)
            .into_iter()
            .map(|w| w.handle)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The worker body: drain jobs until the pool drops the channel. Kernel
/// panics are contained per job and reported through the completion
/// channel; a completion is sent for **every** received job, which is
/// what lets `dispatch` block on exactly `sent` receives without
/// risking a hang.
fn worker_loop(rx: mpsc::Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let t = &job.task;
            // SAFETY: the dispatcher keeps the `src`/`dst`/`kernel`
            // borrows alive until this job's completion is received, the
            // task's lane range is disjoint from all concurrent tasks,
            // and `dst` covers every lane's output range.
            unsafe {
                let src = std::slice::from_raw_parts(t.src, t.src_len);
                let kernel = &*t.kernel;
                let mut bufs = WorkerBufs::new(kernel, t.in_len, t.out_len, t.tile);
                process_lanes(
                    src, t.dst, kernel, t.in_len, t.out_len, t.inner, t.lane_lo, t.lane_hi,
                    &mut bufs,
                );
            }
        }))
        .is_err();
        let _ = job.done.send(panicked);
    }
}
