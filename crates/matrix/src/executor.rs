//! The lane-execution engine: multi-stage axis transforms over reusable
//! ping-pong buffers, each stage fanned out across scoped threads.
//!
//! A lane map that allocates a fresh matrix per axis makes a
//! d-dimensional wavelet transform cost d matrix-sized allocations per
//! direction. The [`LaneExecutor`] instead owns two
//! buffers sized to the largest intermediate and runs an arbitrary
//! pipeline of [`AxisStage`]s front→back, swapping after each stage, so a
//! full multi-axis transform performs **no matrix-sized** allocation
//! beyond the final result matrix (and the two executor buffers, which
//! amortize across calls) — only O(d · workers) lane-length scratch
//! buffers per call, a few KB against multi-MB matrices.
//!
//! Lanes are walked in the row-major `[outer, axis, inner]` decomposition:
//! for the last axis (`inner == 1`) lanes are contiguous in memory and are
//! fed to the kernel directly without a gather; for other axes lanes are
//! processed in **cache-blocked tiles** of up to
//! [`tile_lanes`](LaneExecutor::tile_lanes) adjacent inner-index lanes. A
//! per-element strided gather wastes up to 7/8 of every fetched cache
//! line (stride ≥ 8 f64s ⇒ one useful f64 per 64-byte line, and the line
//! is usually evicted before the adjacent lane wants its neighbour);
//! the tile instead performs a blocked transpose — each axis position
//! `j` contributes one *contiguous* `T`-wide read serving all `T` lanes
//! of the tile at once — into a reused `lane_len × T` scratch block,
//! applies the kernel lane-by-lane inside the tile, and scatters back
//! through the same contiguous rows. Per-lane arithmetic (the kernel
//! call and its operand order) is untouched, so tiled output is
//! **bitwise identical** to the per-lane walk. Tiles never cross an
//! outer-block boundary, and their width is capped so the tile scratch
//! stays cache-sized ([`TILE_CELL_BUDGET`]).
//!
//! Stages of at least [`parallel_threshold`](LaneExecutor::parallel_threshold)
//! cells on a multi-threaded executor split their lane range into
//! contiguous chunks, one per thread: chunk 0 runs on the calling thread,
//! the others on threads spawned for that stage with
//! [`std::thread::scope`] and joined before the stage returns, each with
//! its own gather/scatter/scratch buffers. The executor holds no thread
//! between stages: a scoped spawn+join costs tens of microseconds, against
//! hundreds of microseconds for a stage at the cut-over. Every lane writes
//! a disjoint set of output indices and the per-lane arithmetic is
//! identical to the serial path, so the parallel output is
//! **bit-identical** to the serial output — a property the equivalence
//! test suite asserts. A kernel panic on any chunk surfaces as
//! [`MatrixError::WorkerPanicked`] and leaves the executor usable.

use crate::ndmatrix::NdMatrix;
use crate::{MatrixError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// A 1-D kernel applied to every lane of one axis.
///
/// Implementations **must write every element of `dst`**: its contents on
/// entry are unspecified (the engine reuses buffers across stages and
/// calls, so it may hold stale data, which the engine deliberately does
/// not spend a clearing pass on). `scratch` (at least [`scratch_len`]
/// elements, contents likewise unspecified) may be used freely. `Sync` is
/// required so kernels can be shared across worker threads.
///
/// [`scratch_len`]: LaneKernel::scratch_len
pub trait LaneKernel: Sync {
    /// Lane length consumed along the axis.
    fn input_len(&self) -> usize;
    /// Lane length produced along the axis.
    fn output_len(&self) -> usize;
    /// Scratch slots the kernel needs per worker.
    fn scratch_len(&self) -> usize {
        self.output_len()
    }
    /// Transforms one gathered lane.
    fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]);
}

/// One step of a lane pipeline: apply `kernel` to every lane along `axis`.
pub struct AxisStage<'a> {
    /// The axis whose lanes are transformed.
    pub axis: usize,
    /// The 1-D kernel.
    pub kernel: &'a dyn LaneKernel,
}

/// Reusable engine state: ping-pong buffers plus the worker count.
///
/// Construct once, call [`run`](Self::run) many times; the buffers grow to
/// the largest pipeline seen and are then reused allocation-free.
#[derive(Debug)]
pub struct LaneExecutor {
    front: Vec<f64>,
    back: Vec<f64>,
    threads: usize,
    parallel_min_cells: usize,
    tile_lanes: usize,
}

impl Default for LaneExecutor {
    /// Same as [`LaneExecutor::new`] (a derived default would set a
    /// worker count of 0, bypassing the `with_threads` clamp).
    fn default() -> Self {
        Self::new()
    }
}

/// Default parallel cut-over: stages below this many cells are not worth
/// fanning out. On a 2-vCPU VM a two-thread Haar stage lost to the
/// serial walk at 2^14–2^16 cells and won from 2^17 up (sweep recorded in
/// docs/architecture.md). Overridable per executor with
/// [`LaneExecutor::with_parallel_threshold`].
pub const MIN_PARALLEL_CELLS: usize = 1 << 17;

/// Default tile width for the strided-lane path: how many adjacent
/// inner-index lanes are gathered, transformed and scattered per tile.
/// 8 f64s fill one 64-byte cache line, so every fetched line in the
/// gather is fully consumed; the PR-8 calibration sweep (recorded in
/// docs/architecture.md) showed the publish throughput plateau starts
/// here and wider tiles only grow the scratch footprint. Overridable per
/// executor with [`LaneExecutor::with_tile_lanes`].
pub const DEFAULT_TILE_LANES: usize = 8;

/// Upper bound on one tile buffer's size in f64 cells (`lane_len × T ≤`
/// this, for both the input and the output tile). 2^16 cells = 512 KiB —
/// small enough that a tile pair plus the source rows it streams stay
/// inside a typical L2, large enough never to constrain the tile width
/// on the lane lengths where tiling matters (the width degrades
/// gracefully toward the per-lane walk for extremely long lanes).
pub const TILE_CELL_BUDGET: usize = 1 << 16;

/// The tile width actually used by one stage: the requested width,
/// clamped so (a) contiguous stages (`inner == 1`) never gather at all,
/// (b) a tile never exceeds the `inner` extent (tiles cannot cross an
/// outer-block boundary), and (c) neither tile buffer exceeds
/// [`TILE_CELL_BUDGET`] cells — extremely long lanes degrade gracefully
/// toward the per-lane walk instead of blowing up per-worker scratch.
pub(crate) fn effective_tile(
    requested: usize,
    in_len: usize,
    out_len: usize,
    inner: usize,
) -> usize {
    if inner == 1 {
        return 1;
    }
    let widest_lane = in_len.max(out_len).max(1);
    let budget_cap = (TILE_CELL_BUDGET / widest_lane).max(1);
    requested.clamp(1, budget_cap).min(inner)
}

impl LaneExecutor {
    /// An executor with one worker per available CPU
    /// ([`default_threads`]), the [`MIN_PARALLEL_CELLS`] cut-over and
    /// [`DEFAULT_TILE_LANES`]-wide tiles. Stages at or above the cut-over
    /// fan out across scoped threads; output is bitwise identical to
    /// [`serial`](Self::serial) either way.
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// An executor pinned to `threads` workers (`0` is treated as 1). With
    /// `threads == 1` every stage runs on the calling thread and no thread
    /// is ever spawned.
    pub fn with_threads(threads: usize) -> Self {
        LaneExecutor {
            front: Vec::new(),
            back: Vec::new(),
            threads: threads.max(1),
            parallel_min_cells: MIN_PARALLEL_CELLS,
            tile_lanes: DEFAULT_TILE_LANES,
        }
    }

    /// A single-threaded executor (the reference path).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Sets the parallel cut-over: stages with fewer than `min_cells`
    /// total cells run on the calling thread regardless of the worker
    /// count (`0` = always fan out). Builder-style so executors can be
    /// tuned inline; the default is [`MIN_PARALLEL_CELLS`].
    pub fn with_parallel_threshold(mut self, min_cells: usize) -> Self {
        self.parallel_min_cells = min_cells;
        self
    }

    /// Sets the tile width for strided stages: up to `lanes` adjacent
    /// inner-index lanes are gathered, transformed and scattered per
    /// cache-blocked tile (`0` is treated as 1, i.e. the per-lane walk).
    /// Tiling only changes the memory access pattern — output is bitwise
    /// identical for every width. Builder-style; the default is
    /// [`DEFAULT_TILE_LANES`].
    pub fn with_tile_lanes(mut self, lanes: usize) -> Self {
        self.tile_lanes = lanes.max(1);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured parallel cut-over in cells per stage.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_min_cells
    }

    /// The configured tile width (adjacent lanes per cache-blocked tile)
    /// for strided stages.
    pub fn tile_lanes(&self) -> usize {
        self.tile_lanes
    }

    /// Runs a single-stage pipeline (convenience wrapper over [`run`]).
    ///
    /// [`run`]: Self::run
    pub fn map_axis(
        &mut self,
        src: &NdMatrix,
        axis: usize,
        kernel: &dyn LaneKernel,
    ) -> Result<NdMatrix> {
        self.run(src, &[AxisStage { axis, kernel }])
    }

    /// Applies `stages` to `src` in order and returns the final matrix.
    ///
    /// Each stage must consume the axis length the previous stages left
    /// (`kernel.input_len() == dims[axis]` at that point in the pipeline).
    /// The only matrix-sized allocation on a warmed-up executor is the
    /// returned matrix; each stage additionally allocates lane-length
    /// gather/scratch buffers per worker (a few KB).
    pub fn run(&mut self, src: &NdMatrix, stages: &[AxisStage<'_>]) -> Result<NdMatrix> {
        // Validate the whole pipeline and size the buffers up front. Only
        // the intermediate results (outputs of all but the last stage)
        // live in the ping-pong buffers: the first stage reads straight
        // from `src` and the last stage writes straight into the result
        // vector, so neither endpoint costs a staging copy.
        let mut dims = src.dims().to_vec();
        let mut capacity = 0usize;
        for (idx, stage) in stages.iter().enumerate() {
            let ndim = dims.len();
            if stage.axis >= ndim {
                return Err(MatrixError::BadAxis {
                    axis: stage.axis,
                    ndim,
                });
            }
            if stage.kernel.input_len() != dims[stage.axis] {
                return Err(MatrixError::KernelLenMismatch {
                    axis: stage.axis,
                    axis_len: dims[stage.axis],
                    kernel_len: stage.kernel.input_len(),
                });
            }
            if stage.kernel.output_len() == 0 {
                return Err(MatrixError::ZeroDim { axis: stage.axis });
            }
            dims[stage.axis] = stage.kernel.output_len();
            let mut cells = 1usize;
            for &d in &dims {
                cells = cells.checked_mul(d).ok_or(MatrixError::TooLarge)?;
            }
            if idx + 1 < stages.len() {
                capacity = capacity.max(cells);
            }
        }

        if self.front.len() < capacity {
            self.front.resize(capacity, 0.0);
        }
        if self.back.len() < capacity {
            self.back.resize(capacity, 0.0);
        }

        if stages.is_empty() {
            return Ok(src.clone());
        }

        let mut dims = src.dims().to_vec();
        let mut first = true;
        for (idx, stage) in stages.iter().enumerate() {
            let in_len = dims[stage.axis];
            let out_len = stage.kernel.output_len();
            let inner: usize = dims[stage.axis + 1..].iter().product();
            let outer: usize = dims[..stage.axis].iter().product();
            let src_cells = outer * in_len * inner;
            let dst_cells = outer * out_len * inner;
            let workers = self.effective_threads(src_cells.max(dst_cells));
            let tile = effective_tile(self.tile_lanes, in_len, out_len, inner);
            let input: &[f64] = if first {
                src.as_slice()
            } else {
                &self.front[..src_cells]
            };
            dims[stage.axis] = out_len;
            if idx + 1 == stages.len() {
                // Final stage: write directly into the result vector (the
                // run's one matrix-sized allocation).
                let mut result = vec![0.0f64; dst_cells];
                run_stage(
                    input,
                    &mut result,
                    stage.kernel,
                    in_len,
                    out_len,
                    inner,
                    tile,
                    workers,
                )?;
                return NdMatrix::from_vec(&dims, result);
            }
            run_stage(
                input,
                &mut self.back[..dst_cells],
                stage.kernel,
                in_len,
                out_len,
                inner,
                tile,
                workers,
            )?;
            first = false;
            std::mem::swap(&mut self.front, &mut self.back);
        }
        unreachable!("non-empty pipelines return from the final stage")
    }

    /// Workers to use for a stage of `cells` total work.
    fn effective_threads(&self, cells: usize) -> usize {
        if cells < self.parallel_min_cells {
            1
        } else {
            self.threads
        }
    }
}

/// Default worker count for [`LaneExecutor::new`]: the available
/// parallelism, or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-worker tile gather / output / scratch buffers. `tile_in` holds up
/// to `tile` gathered lanes of `in_len` each (lane `t` at
/// `[t*in_len, (t+1)*in_len)`), `tile_out` the corresponding outputs.
/// With `tile == 1` these collapse to the single-lane gather buffers the
/// pre-tiling engine used.
struct WorkerBufs {
    tile_in: Vec<f64>,
    tile_out: Vec<f64>,
    scratch: Vec<f64>,
    tile: usize,
}

impl WorkerBufs {
    fn new(kernel: &dyn LaneKernel, in_len: usize, out_len: usize, tile: usize) -> Self {
        let tile = tile.max(1);
        WorkerBufs {
            tile_in: vec![0.0; in_len * tile],
            tile_out: vec![0.0; out_len * tile],
            scratch: vec![0.0; kernel.scratch_len()],
            tile,
        }
    }
}

/// Processes the flat lane range `[lane_lo, lane_hi)` serially. A lane
/// index `L` decomposes as `(o, i) = (L / inner, L % inner)`; its source
/// elements live at `o*in_len*inner + j*inner + i` and its destination
/// elements at `o*out_len*inner + j*inner + i`.
///
/// `dst` writes go through a raw pointer so the parallel path can hand
/// every chunk the same destination buffer; the ranges written by
/// distinct lanes are disjoint by construction.
///
/// # Safety
/// Callers must guarantee `dst` points to at least `outer*out_len*inner`
/// elements and that no two concurrent calls receive overlapping lane
/// ranges.
#[allow(clippy::too_many_arguments)]
unsafe fn process_lanes(
    src: &[f64],
    dst: *mut f64,
    kernel: &dyn LaneKernel,
    in_len: usize,
    out_len: usize,
    inner: usize,
    lane_lo: usize,
    lane_hi: usize,
    bufs: &mut WorkerBufs,
) {
    if inner == 1 {
        // Contiguous lanes: no gather needed (lane L == outer index o),
        // and each lane's destination range is itself contiguous and
        // disjoint, so the kernel writes it directly — no staging copy.
        for o in lane_lo..lane_hi {
            let lane_src = &src[o * in_len..(o + 1) * in_len];
            // SAFETY: `[o*out_len, (o+1)*out_len)` is in bounds per the
            // caller contract and disjoint from every other lane's range.
            let lane_dst = unsafe { std::slice::from_raw_parts_mut(dst.add(o * out_len), out_len) };
            kernel.apply(lane_src, lane_dst, &mut bufs.scratch);
        }
        return;
    }
    // Strided lanes: cache-blocked tiles of up to `bufs.tile` adjacent
    // inner-index lanes. Each axis position `j` is one contiguous
    // `width`-wide read serving every lane of the tile (blocked
    // transpose in), the kernel runs lane-by-lane inside the tile with
    // exactly the per-lane operand order of the untiled walk, and the
    // outputs scatter back through contiguous `width`-wide writes
    // (blocked transpose out). A tile never crosses an outer-block
    // boundary (`width ≤ inner − i`) nor the caller's lane range
    // (`width ≤ lane_hi − lane`), so chunk splits of any alignment stay
    // bitwise-correct.
    let tile = bufs.tile.max(1);
    let mut lane = lane_lo;
    while lane < lane_hi {
        let (o, i) = (lane / inner, lane % inner);
        let width = tile.min(inner - i).min(lane_hi - lane);
        let src_base = o * in_len * inner + i;
        let dst_base = o * out_len * inner + i;
        for j in 0..in_len {
            let row = &src[src_base + j * inner..src_base + j * inner + width];
            for (t, &v) in row.iter().enumerate() {
                bufs.tile_in[t * in_len + j] = v;
            }
        }
        for t in 0..width {
            kernel.apply(
                &bufs.tile_in[t * in_len..(t + 1) * in_len],
                &mut bufs.tile_out[t * out_len..(t + 1) * out_len],
                &mut bufs.scratch,
            );
        }
        for j in 0..out_len {
            let row_base = dst_base + j * inner;
            for t in 0..width {
                // SAFETY: `row_base + t < outer*out_len*inner` for every
                // lane of the tile (the tile stays inside one outer
                // block), in bounds per the caller contract, and strided
                // lanes never alias across workers.
                unsafe { *dst.add(row_base + t) = bufs.tile_out[t * out_len + j] };
            }
        }
        lane += width;
    }
}

/// The stage's destination pointer, shared by every chunk of a fanned
/// stage.
struct SharedOut(*mut f64);

// SAFETY: chunks write through the pointer only inside `run_stage`, each
// to its own disjoint lane range, and the scope joins every chunk thread
// before `run_stage` returns and its `dst` borrow ends.
unsafe impl Sync for SharedOut {}

impl SharedOut {
    /// Going through `&self` makes a closure capture the whole (`Sync`)
    /// wrapper rather than just its raw-pointer field.
    fn ptr(&self) -> *mut f64 {
        self.0
    }
}

/// Runs one stage over `threads` contiguous lane chunks: `chunk =
/// n_lanes.div_ceil(threads)`, rounded up to whole tiles so no chunk
/// starts mid-tile. Chunk 0 runs on the calling thread and the others on
/// scoped threads; a chunk whose thread cannot be spawned runs on the
/// calling thread instead. Every chunk runs the serial lane walk over its
/// own range, so the output is bitwise identical to the one-thread walk.
///
/// A kernel panic on a fanned stage — on any chunk, the caller's
/// included — is caught once every chunk has finished and returned as
/// [`MatrixError::WorkerPanicked`]; a one-thread stage runs unguarded.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    src: &[f64],
    dst: &mut [f64],
    kernel: &dyn LaneKernel,
    in_len: usize,
    out_len: usize,
    inner: usize,
    tile: usize,
    threads: usize,
) -> Result<()> {
    let n_lanes = src.len() / in_len;
    debug_assert_eq!(dst.len(), n_lanes * out_len);
    let out = SharedOut(dst.as_mut_ptr());
    let run_chunk = |lane_lo: usize, lane_hi: usize| {
        let mut bufs = WorkerBufs::new(kernel, in_len, out_len, tile);
        // SAFETY: `out` points at `dst`, sized `n_lanes * out_len` and
        // mutably borrowed for this whole call, and no two chunks below
        // share a lane.
        unsafe {
            process_lanes(
                src,
                out.ptr(),
                kernel,
                in_len,
                out_len,
                inner,
                lane_lo,
                lane_hi,
                &mut bufs,
            );
        }
    };

    let threads = threads.min(n_lanes).max(1);
    if threads == 1 {
        run_chunk(0, n_lanes);
        return Ok(());
    }
    let chunk = n_lanes
        .div_ceil(threads)
        .checked_next_multiple_of(tile.max(1))
        .unwrap_or(n_lanes);
    let run_chunk = &run_chunk;
    let caught =
        |lane_lo, lane_hi| catch_unwind(AssertUnwindSafe(|| run_chunk(lane_lo, lane_hi))).is_err();
    let panicked = thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads - 1);
        let mut panicked = false;
        for w in 1..threads {
            let lane_lo = w * chunk;
            let lane_hi = ((w + 1) * chunk).min(n_lanes);
            if lane_lo >= lane_hi {
                break;
            }
            match thread::Builder::new().spawn_scoped(s, move || run_chunk(lane_lo, lane_hi)) {
                Ok(handle) => handles.push(handle),
                Err(_) => panicked |= caught(lane_lo, lane_hi),
            }
        }
        panicked |= caught(0, chunk.min(n_lanes));
        // Join every handle: an unjoined panicked thread would re-panic
        // when the scope ends.
        for handle in handles {
            panicked |= handle.join().is_err();
        }
        panicked
    });
    if panicked {
        return Err(MatrixError::WorkerPanicked);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane_oracle::{bits, map_lanes};

    /// Reverses a lane.
    struct Reverse(usize);

    impl LaneKernel for Reverse {
        fn input_len(&self) -> usize {
            self.0
        }
        fn output_len(&self) -> usize {
            self.0
        }
        fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
            for (i, &v) in src.iter().enumerate() {
                dst[src.len() - 1 - i] = v;
            }
        }
    }

    /// Sums a lane into a single cell (axis shrink).
    struct SumTo1(usize);

    impl LaneKernel for SumTo1 {
        fn input_len(&self) -> usize {
            self.0
        }
        fn output_len(&self) -> usize {
            1
        }
        fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
            dst[0] = src.iter().sum();
        }
    }

    /// Repeats the lane twice (axis growth) using scratch.
    struct Duplicate(usize);

    impl LaneKernel for Duplicate {
        fn input_len(&self) -> usize {
            self.0
        }
        fn output_len(&self) -> usize {
            self.0 * 2
        }
        fn scratch_len(&self) -> usize {
            self.0
        }
        fn apply(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
            scratch[..src.len()].copy_from_slice(src);
            dst[..src.len()].copy_from_slice(&scratch[..src.len()]);
            dst[src.len()..].copy_from_slice(&scratch[..src.len()]);
        }
    }

    fn sample(dims: &[usize]) -> NdMatrix {
        let n: usize = dims.iter().product();
        NdMatrix::from_vec(
            dims,
            (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_stage_matches_map_lanes() {
        let m = sample(&[4, 3, 5]);
        let mut exec = LaneExecutor::serial();
        for axis in 0..3 {
            let k = Reverse(m.dims()[axis]);
            let got = exec.map_axis(&m, axis, &k).unwrap();
            let want = map_lanes(&m, axis, m.dims()[axis], |s, d| {
                for (i, &v) in s.iter().enumerate() {
                    d[s.len() - 1 - i] = v;
                }
            })
            .unwrap();
            assert_eq!(got, want, "axis {axis}");
        }
    }

    #[test]
    fn pipeline_matches_chained_map_lanes() {
        let m = sample(&[3, 4, 2]);
        let k0 = Duplicate(3);
        let k1 = SumTo1(4);
        let k2 = Reverse(2);
        let mut exec = LaneExecutor::serial();
        let got = exec
            .run(
                &m,
                &[
                    AxisStage {
                        axis: 0,
                        kernel: &k0,
                    },
                    AxisStage {
                        axis: 1,
                        kernel: &k1,
                    },
                    AxisStage {
                        axis: 2,
                        kernel: &k2,
                    },
                ],
            )
            .unwrap();
        let s0 = map_lanes(&m, 0, 6, |s, d| {
            d[..3].copy_from_slice(s);
            d[3..].copy_from_slice(s);
        })
        .unwrap();
        let s1 = map_lanes(&s0, 1, 1, |s, d| d[0] = s.iter().sum()).unwrap();
        let want = map_lanes(&s1, 2, 2, |s, d| {
            d[0] = s[1];
            d[1] = s[0];
        })
        .unwrap();
        assert_eq!(got.dims(), &[6, 1, 2]);
        assert_eq!(got, want);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(
            LaneExecutor::default().threads(),
            LaneExecutor::new().threads()
        );
        assert!(LaneExecutor::default().threads() >= 1);
    }

    #[test]
    fn new_uses_every_available_cpu_with_the_compiled_defaults() {
        let exec = LaneExecutor::new();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(exec.threads(), cpus);
        assert_eq!(exec.parallel_threshold(), MIN_PARALLEL_CELLS);
        assert_eq!(exec.tile_lanes(), DEFAULT_TILE_LANES);
    }

    #[test]
    fn executor_is_reusable_across_shapes() {
        let mut exec = LaneExecutor::serial();
        for dims in [vec![8usize], vec![2, 9], vec![3, 3, 3], vec![2, 2]] {
            let m = sample(&dims);
            let k = Reverse(dims[0]);
            let once = exec.map_axis(&m, 0, &k).unwrap();
            let twice = exec.map_axis(&once, 0, &k).unwrap();
            assert_eq!(twice, m, "{dims:?}");
        }
    }

    #[test]
    fn stage_validation_errors() {
        let m = sample(&[2, 3]);
        let mut exec = LaneExecutor::serial();
        let bad_axis = Reverse(2);
        assert!(matches!(
            exec.map_axis(&m, 2, &bad_axis).unwrap_err(),
            MatrixError::BadAxis { .. }
        ));
        let wrong_len = Reverse(5);
        assert_eq!(
            exec.map_axis(&m, 0, &wrong_len).unwrap_err(),
            MatrixError::KernelLenMismatch {
                axis: 0,
                axis_len: 2,
                kernel_len: 5
            }
        );
        // The message names the axis, not a whole-matrix cell count.
        let msg = exec.map_axis(&m, 0, &wrong_len).unwrap_err().to_string();
        assert!(msg.contains("axis 0"), "message was: {msg}");
        // A stage after an axis change must match the *new* length.
        let k0 = Duplicate(2);
        let stale = Reverse(3);
        let refreshed = Reverse(3);
        assert!(exec
            .run(
                &m,
                &[
                    AxisStage {
                        axis: 0,
                        kernel: &k0
                    },
                    AxisStage {
                        axis: 0,
                        kernel: &stale
                    }
                ]
            )
            .is_err());
        let ok = exec.run(
            &m,
            &[
                AxisStage {
                    axis: 0,
                    kernel: &k0,
                },
                AxisStage {
                    axis: 1,
                    kernel: &refreshed,
                },
            ],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn zero_output_len_is_rejected() {
        struct Empty;
        impl LaneKernel for Empty {
            fn input_len(&self) -> usize {
                2
            }
            fn output_len(&self) -> usize {
                0
            }
            fn apply(&self, _: &[f64], _: &mut [f64], _: &mut [f64]) {}
        }
        let m = sample(&[2, 2]);
        assert!(matches!(
            LaneExecutor::serial().map_axis(&m, 0, &Empty).unwrap_err(),
            MatrixError::ZeroDim { .. }
        ));
    }

    #[test]
    fn parallel_threshold_is_configurable() {
        // Builder override wins over the built-in default.
        let exec = LaneExecutor::with_threads(4).with_parallel_threshold(64);
        assert_eq!(exec.parallel_threshold(), 64);
        assert_eq!(exec.effective_threads(63), 1);
        assert_eq!(exec.effective_threads(64), 4);
        // 0 = always fan out.
        let eager = LaneExecutor::with_threads(4).with_parallel_threshold(0);
        assert_eq!(eager.effective_threads(1), 4);
    }

    #[test]
    fn tile_width_is_configurable_and_clamped() {
        let exec = LaneExecutor::serial().with_tile_lanes(64);
        assert_eq!(exec.tile_lanes(), 64);
        // 0 collapses to the per-lane walk, never a zero-width tile.
        assert_eq!(LaneExecutor::serial().with_tile_lanes(0).tile_lanes(), 1);
    }

    #[test]
    fn effective_tile_respects_inner_and_budget() {
        // Contiguous stages never gather, so they never tile.
        assert_eq!(effective_tile(16, 1024, 1024, 1), 1);
        // A tile cannot cross an outer-block boundary.
        assert_eq!(effective_tile(16, 8, 8, 5), 5);
        // The cap keeps lane_len × tile within TILE_CELL_BUDGET…
        let long = TILE_CELL_BUDGET / 4;
        assert_eq!(effective_tile(16, long, long, 1 << 20), 4);
        // …degrading to the per-lane walk for absurdly long lanes rather
        // than refusing to run.
        assert_eq!(effective_tile(16, TILE_CELL_BUDGET * 2, 8, 1 << 20), 1);
        // Ordinary shapes pass the request through.
        assert_eq!(effective_tile(16, 1024, 1024, 1024), 16);
    }

    #[test]
    fn tile_widths_are_bitwise_identical() {
        // The whole tiling contract: every width (including widths larger
        // than the lane count and widths that leave ragged boundary
        // tiles) produces bitwise-identical output to the per-lane walk.
        let m = sample(&[7, 9, 5]);
        let mut reference = LaneExecutor::serial().with_tile_lanes(1);
        for axis in 0..3 {
            let k = Reverse(m.dims()[axis]);
            let want = reference.map_axis(&m, axis, &k).unwrap();
            for tile in [2, 3, 8, 64, 1 << 20] {
                let mut tiled = LaneExecutor::serial().with_tile_lanes(tile);
                let got = tiled.map_axis(&m, axis, &k).unwrap();
                assert_eq!(bits(&got), bits(&want), "axis {axis} tile {tile}");
            }
        }
    }

    #[test]
    fn threshold_does_not_change_results() {
        // Crossing the cut-over only changes scheduling, never output.
        let m = sample(&[64, 32]);
        let k = Reverse(64);
        let mut eager = LaneExecutor::with_threads(8).with_parallel_threshold(0);
        let mut lazy = LaneExecutor::with_threads(8).with_parallel_threshold(usize::MAX);
        let a = eager.map_axis(&m, 0, &k).unwrap();
        let b = lazy.map_axis(&m, 0, &k).unwrap();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn multi_threaded_output_is_bit_identical() {
        // The matrix reaches MIN_PARALLEL_CELLS, so the wide executor
        // genuinely fans every stage out across scoped threads.
        let m = sample(&[32, 32, 16, 8]);
        assert!(m.len() >= MIN_PARALLEL_CELLS);
        let mut serial = LaneExecutor::serial();
        let mut wide = LaneExecutor::with_threads(8);
        for axis in 0..4 {
            let k = Reverse(m.dims()[axis]);
            let a = serial.map_axis(&m, axis, &k).unwrap();
            let b = wide.map_axis(&m, axis, &k).unwrap();
            assert_eq!(bits(&a), bits(&b), "axis {axis}");
        }
    }
}
