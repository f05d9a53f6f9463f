//! Equivalence and fan-out suite for the lane-execution engine.
//!
//! The engine guarantees that (a) a `LaneExecutor` pipeline computes
//! exactly what chained [`map_lanes`] calls compute, (b) the parallel
//! path is **bit-identical** to the serial path, (c) the cache-blocked
//! tiled walk is **bit-identical** to the per-lane walk at every tile
//! width, (d) a kernel panic on any chunk of a fanned-out stage returns
//! [`MatrixError::WorkerPanicked`] — never a hang, never a process abort
//! — and leaves the executor usable, and (e) no helper thread outlives
//! the `run` that spawned it. Matrices here are larger than the engine's
//! parallel cut-over threshold (or the threshold is set to 0), so
//! multi-threaded executors really fan their stages out. CI repeats the
//! suite in release mode with `PRIVELET_STRESS_ITERS=64`.

mod support;

use privelet_matrix::executor::MIN_PARALLEL_CELLS;
use privelet_matrix::{AxisStage, LaneExecutor, LaneKernel, MatrixError, NdMatrix};
use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use support::{bits, map_lanes};

/// Stress iterations: `PRIVELET_STRESS_ITERS` when set (CI), else
/// `default` — kept small so debug runs on few-core machines stay fast.
fn stress_iters(default: usize) -> usize {
    std::env::var("PRIVELET_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A deliberately asymmetric kernel: output length differs from input,
/// every output mixes several inputs, and scratch is exercised.
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
        // Prefix sums into scratch, then strided reads with sign flips.
        let mut acc = 0.0;
        for (slot, &v) in scratch.iter_mut().zip(src) {
            acc += v;
            *slot = acc;
        }
        for (j, slot) in dst.iter_mut().enumerate() {
            let k = (j * 7 + 3) % self.in_len;
            *slot = scratch[k] - 0.25 * src[j % self.in_len];
        }
    }
}

fn mix_reference(src: &[f64], dst: &mut [f64]) {
    let n = src.len();
    let mut prefix = vec![0.0; n];
    let mut acc = 0.0;
    for (slot, &v) in prefix.iter_mut().zip(src) {
        acc += v;
        *slot = acc;
    }
    for (j, slot) in dst.iter_mut().enumerate() {
        let k = (j * 7 + 3) % n;
        *slot = prefix[k] - 0.25 * src[j % n];
    }
}

fn lane_data(cells: usize) -> Vec<f64> {
    (0..cells)
        .map(|i| (((i * 2654435761) % 977) as f64) / 13.0 - 35.0)
        .collect()
}

fn big_matrix(dims: &[usize]) -> NdMatrix {
    NdMatrix::from_vec(dims, lane_data(dims.iter().product())).unwrap()
}

/// Shapes whose per-stage work reaches the engine's parallel threshold
/// (`MIN_PARALLEL_CELLS` = 2^17 cells).
fn shapes() -> Vec<Vec<usize>> {
    vec![
        vec![1 << 17],       // 1-D, contiguous-lane fast path only
        vec![512, 256],      // axis 0 strided, axis 1 contiguous
        vec![32, 64, 64],    // middle-axis gather
        vec![8, 16, 32, 32], // 4-D
        vec![65536, 2],      // extreme outer count, tiny lanes
        vec![2, 65536],      // two huge contiguous lanes
    ]
}

#[test]
fn serial_executor_matches_map_lanes_on_every_axis() {
    let mut exec = LaneExecutor::serial();
    for dims in shapes() {
        let m = big_matrix(&dims);
        for axis in 0..dims.len() {
            let kernel = Mix {
                in_len: dims[axis],
                out_len: dims[axis] + 5,
            };
            let got = exec.map_axis(&m, axis, &kernel).unwrap();
            let want = map_lanes(&m, axis, dims[axis] + 5, mix_reference).unwrap();
            assert_eq!(got.dims(), want.dims());
            assert_eq!(bits(&got), bits(&want), "dims {dims:?} axis {axis}");
        }
    }
}

#[test]
fn parallel_executor_is_bit_identical_to_serial() {
    let mut serial = LaneExecutor::serial();
    for threads in [2usize, 3, 8, 64] {
        let mut wide = LaneExecutor::with_threads(threads);
        for dims in shapes() {
            let m = big_matrix(&dims);
            assert!(m.len() >= MIN_PARALLEL_CELLS, "{dims:?} would not fan out");
            for axis in 0..dims.len() {
                let kernel = Mix {
                    in_len: dims[axis],
                    out_len: dims[axis] + 3,
                };
                let a = serial.map_axis(&m, axis, &kernel).unwrap();
                let b = wide.map_axis(&m, axis, &kernel).unwrap();
                // Bit-identical, not approximately equal.
                assert_eq!(
                    bits(&a),
                    bits(&b),
                    "dims {dims:?} axis {axis} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn parallel_pipeline_is_bit_identical_to_serial_pipeline() {
    // Every stage's input and output reach MIN_PARALLEL_CELLS (the
    // smallest is 62 × 34 × 80), so each one fans out at the default
    // cut-over.
    const _: () = assert!(62 * 34 * 80 >= MIN_PARALLEL_CELLS);
    let dims = vec![48usize, 64, 80];
    let m = big_matrix(&dims);
    let k0 = Mix {
        in_len: 48,
        out_len: 62,
    };
    let k1 = Mix {
        in_len: 64,
        out_len: 34,
    };
    let k2 = Mix {
        in_len: 80,
        out_len: 128,
    };
    fn stages<'a>(s0: &'a Mix, s1: &'a Mix, s2: &'a Mix) -> Vec<AxisStage<'a>> {
        vec![
            AxisStage {
                axis: 0,
                kernel: s0 as &dyn LaneKernel,
            },
            AxisStage {
                axis: 1,
                kernel: s1,
            },
            AxisStage {
                axis: 2,
                kernel: s2,
            },
        ]
    }
    let a = LaneExecutor::serial()
        .run(&m, &stages(&k0, &k1, &k2))
        .unwrap();
    let b = LaneExecutor::with_threads(16)
        .run(&m, &stages(&k0, &k1, &k2))
        .unwrap();
    assert_eq!(a.dims(), &[62, 34, 128]);
    assert_eq!(bits(&a), bits(&b));
}

/// The fixed tile-width grid every randomized shape is checked against:
/// the per-lane walk (1), an odd width that never divides power-of-two
/// extents (3), one cache line of f64s (8, the default), a wide tile
/// (64), and a width guaranteed to exceed any shape's lane count here
/// (every tile then clips to `inner` / the chunk end — the boundary
/// path runs on every single tile).
const TILE_GRID: [usize; 5] = [1, 3, 8, 64, 1 << 24];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled == per-lane == fanned, bitwise, over random 1–4-dim shapes
    /// with non-power-of-two extents, on every axis, across the tile
    /// grid, at 1–9 threads (including more threads than lanes). The
    /// per-lane serial walk (`tile = 1`) is the reference; a
    /// multi-threaded executor at the same width covers the fanned path.
    #[test]
    fn tiled_walk_is_bit_identical_across_shapes_and_widths(
        dims in prop::collection::vec(1usize..=13, 1..=4),
        out_delta in 0usize..=5,
        threads in 1usize..=9,
    ) {
        let m = big_matrix(&dims);
        for axis in 0..dims.len() {
            let kernel = Mix { in_len: dims[axis], out_len: dims[axis] + out_delta };
            let mut reference = LaneExecutor::serial().with_tile_lanes(1);
            // Fan out unconditionally so small random shapes still cross
            // the fanned path.
            let want = reference.map_axis(&m, axis, &kernel).unwrap();
            for tile in TILE_GRID {
                let mut serial = LaneExecutor::serial().with_tile_lanes(tile);
                let mut fanned = LaneExecutor::with_threads(threads)
                    .with_parallel_threshold(0)
                    .with_tile_lanes(tile);
                let a = serial.map_axis(&m, axis, &kernel).unwrap();
                let b = fanned.map_axis(&m, axis, &kernel).unwrap();
                prop_assert_eq!(
                    bits(&a), bits(&want),
                    "serial dims {:?} axis {} tile {}", dims, axis, tile
                );
                prop_assert_eq!(
                    bits(&b), bits(&want),
                    "fanned dims {:?} axis {} tile {} threads {}", dims, axis, tile, threads
                );
            }
        }
    }
}

#[test]
fn tile_boundary_edges_are_bit_identical() {
    // Deterministic boundary cases on top of the proptest: extents that
    // leave a ragged final tile for every grid width (inner = 65 against
    // widths 3/8/64), a stride exactly one tile wide, and a stride one
    // element narrower/wider than the default tile.
    let mut reference = LaneExecutor::serial().with_tile_lanes(1);
    for dims in [
        vec![33usize, 65],
        vec![17, 8],
        vec![17, 7],
        vec![17, 9],
        vec![5, 64, 3],
        vec![128, 1],
    ] {
        let m = big_matrix(&dims);
        for axis in 0..dims.len() {
            let kernel = Mix {
                in_len: dims[axis],
                out_len: dims[axis] + 2,
            };
            let want = reference.map_axis(&m, axis, &kernel).unwrap();
            for tile in TILE_GRID {
                let mut tiled = LaneExecutor::serial().with_tile_lanes(tile);
                let got = tiled.map_axis(&m, axis, &kernel).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "dims {dims:?} axis {axis} tile {tile}"
                );
            }
        }
    }
}

#[test]
fn warm_executor_never_leaks_previous_results() {
    // Run a big pipeline, then a small one whose output region is a strict
    // subset of the dirty buffer; every cell must still be freshly written.
    let mut exec = LaneExecutor::with_threads(4);
    let big = big_matrix(&[64, 64, 32]);
    let kernel_big = Mix {
        in_len: 64,
        out_len: 64,
    };
    exec.map_axis(&big, 0, &kernel_big).unwrap();

    let small = big_matrix(&[6, 5]);
    let kernel_small = Mix {
        in_len: 6,
        out_len: 4,
    };
    let got = exec.map_axis(&small, 0, &kernel_small).unwrap();
    let want = map_lanes(&small, 0, 4, mix_reference).unwrap();
    assert_eq!(got.dims(), want.dims());
    assert_eq!(bits(&got), bits(&want));
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

/// A kernel panic inside a fanned-out stage comes back as
/// `Err(WorkerPanicked)` from `run` — whether it hits a spawned chunk or
/// chunk 0 on the calling thread — and the executor remains usable.
#[test]
fn executor_surfaces_worker_panic_as_error() {
    let mut exec = LaneExecutor::with_threads(4).with_parallel_threshold(0);
    let k = PanicOnMarker {
        len: 8,
        marker: -2.0,
    };
    // 32 contiguous lanes split 4 ways: lanes 0..8 are chunk 0 on the
    // calling thread, lane 30 sits in the last chunk on a spawned thread.
    for marker_lane in [30, 0] {
        let mut data = lane_data(32 * 8);
        data[marker_lane * 8] = -2.0;
        let m = NdMatrix::from_vec(&[32, 8], data).unwrap();
        assert_eq!(
            exec.map_axis(&m, 1, &k).unwrap_err(),
            MatrixError::WorkerPanicked,
            "marker lane {marker_lane}"
        );
    }
    // Same executor, clean input: works, and matches serial bitwise.
    let clean = NdMatrix::from_vec(&[32, 8], lane_data(32 * 8)).unwrap();
    let got = exec.map_axis(&clean, 1, &k).unwrap();
    let want = LaneExecutor::serial().map_axis(&clean, 1, &k).unwrap();
    assert_eq!(bits(&got), bits(&want));
}

/// Increments its counter when the owning thread *exits* (thread-local
/// destructors run during thread termination, and `join` returns only
/// after that) — the observable that proves a helper thread was reaped.
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

/// Every helper thread a fanned stage spawns has terminated by the time
/// `run` returns: per-thread exit guards count exactly `threads − 1`
/// exits per run (the calling thread arms a guard too, but it does not
/// exit, so it never counts). A leaked thread fails the count rather
/// than merely outliving the test, and concurrently running tests cannot
/// perturb it the way a process-wide thread census could.
#[test]
fn helper_threads_exit_before_run_returns() {
    let iters = stress_iters(8);
    let exits = Arc::new(AtomicUsize::new(0));
    let mut exec = LaneExecutor::with_threads(3).with_parallel_threshold(0);
    let k = GuardKernel {
        len: 16,
        exits: exits.clone(),
    };
    // 64 lanes across 3 threads: both helper threads get a chunk per run.
    let m = NdMatrix::from_vec(&[64, 16], lane_data(64 * 16)).unwrap();
    let want = LaneExecutor::serial().map_axis(&m, 1, &k).unwrap();
    for run in 1..=iters {
        let got = exec.map_axis(&m, 1, &k).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(exits.load(Ordering::SeqCst), 2 * run, "run {run}");
    }
}

// The oracle itself: `map_lanes` visits lanes in row-major order, sees
// the right cells, and reshapes the mapped axis.

fn sample_2x3() -> NdMatrix {
    NdMatrix::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
}

#[test]
fn oracle_identity_preserves_matrix() {
    let m = sample_2x3();
    for axis in 0..2 {
        let out = map_lanes(&m, axis, m.dims()[axis], |src, dst| {
            dst.copy_from_slice(src);
        })
        .unwrap();
        assert_eq!(out, m);
    }
}

#[test]
fn oracle_sees_columns_along_axis0_and_rows_along_axis1() {
    let m = sample_2x3();
    let mut seen = Vec::new();
    map_lanes(&m, 0, 2, |src, dst| {
        seen.push(src.to_vec());
        dst.copy_from_slice(src);
    })
    .unwrap();
    assert_eq!(seen, vec![vec![1.0, 4.0], vec![2.0, 5.0], vec![3.0, 6.0]]);
    seen.clear();
    map_lanes(&m, 1, 3, |src, dst| {
        seen.push(src.to_vec());
        dst.copy_from_slice(src);
    })
    .unwrap();
    assert_eq!(seen, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
}

#[test]
fn oracle_can_grow_and_shrink_the_axis() {
    let m = sample_2x3();
    // Broadcast each lane's sum into a length-4 vector.
    let grown = map_lanes(&m, 0, 4, |src, dst| {
        let s: f64 = src.iter().sum();
        dst.fill(s);
    })
    .unwrap();
    assert_eq!(grown.dims(), &[4, 3]);
    assert_eq!(grown.get(&[0, 0]).unwrap(), 5.0);
    assert_eq!(grown.get(&[3, 2]).unwrap(), 9.0);
    let shrunk = map_lanes(&m, 1, 1, |src, dst| {
        dst[0] = src.iter().sum();
    })
    .unwrap();
    assert_eq!(shrunk.dims(), &[2, 1]);
    assert_eq!(shrunk.get(&[0, 0]).unwrap(), 6.0);
    assert_eq!(shrunk.get(&[1, 0]).unwrap(), 15.0);
}

#[test]
fn oracle_maps_the_middle_axis_of_a_cube() {
    let m = NdMatrix::from_vec(&[2, 2, 2], (0..8).map(|v| v as f64).collect()).unwrap();
    let out = map_lanes(&m, 1, 2, |src, dst| {
        dst[0] = src[1];
        dst[1] = src[0];
    })
    .unwrap();
    for a in 0..2 {
        for b in 0..2 {
            for c in 0..2 {
                assert_eq!(out.get(&[a, b, c]).unwrap(), m.get(&[a, 1 - b, c]).unwrap());
            }
        }
    }
}

#[test]
fn oracle_rejects_bad_axis_and_zero_out_len() {
    let m = sample_2x3();
    assert!(map_lanes(&m, 2, 3, |_, _| {}).is_err());
    assert!(map_lanes(&m, 0, 0, |_, _| {}).is_err());
}
