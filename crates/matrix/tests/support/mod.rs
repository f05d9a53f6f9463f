//! The per-lane oracle the lane engine is checked against.
//!
//! The paper's multi-dimensional Haar–nominal wavelet transform (§VI-A,
//! "standard decomposition") repeatedly divides a matrix into
//! one-dimensional vectors along a given dimension, transforms each
//! vector, and reassembles a matrix whose size on that dimension may
//! differ. [`map_lanes`] is that reassembly written the obvious way — one
//! gather, one closure call and one scatter per lane, a fresh matrix per
//! call — so `LaneExecutor` (tiles, ping-pong buffers, the worker pool)
//! must reproduce it bit for bit.
//!
//! Shared by the crate's unit tests (through a `#[path]` module in
//! `lib.rs`) and its integration suites (`mod support;`).

use privelet_matrix::{MatrixError, NdMatrix};

/// Applies `f` to every lane of `src` along `axis`, producing a matrix whose
/// size along `axis` is `out_len`.
///
/// A *lane* is the 1-D vector of cells whose coordinates agree on every axis
/// except `axis`. `f` receives the gathered input lane and a zero-initialized
/// output slice of length `out_len` to fill. All other axes keep their sizes
/// and ordering, so a coefficient inherits the coordinates of its source
/// vector on the non-transformed axes — matching the coefficient coordinate
/// assignment of §VI-A.
pub fn map_lanes(
    src: &NdMatrix,
    axis: usize,
    out_len: usize,
    mut f: impl FnMut(&[f64], &mut [f64]),
) -> Result<NdMatrix, MatrixError> {
    let ndim = src.ndim();
    if axis >= ndim {
        return Err(MatrixError::BadAxis { axis, ndim });
    }
    if out_len == 0 {
        return Err(MatrixError::ZeroDim { axis });
    }
    let dims = src.dims();
    let in_len = dims[axis];
    // Row-major [outer, axis, inner] decomposition.
    let inner: usize = dims[axis + 1..].iter().product();
    let outer: usize = dims[..axis].iter().product();

    let out_shape = src.shape().with_dim(axis, out_len)?;
    let mut out = vec![0.0f64; out_shape.len()];
    let src_data = src.as_slice();

    let mut in_lane = vec![0.0f64; in_len];
    let mut out_lane = vec![0.0f64; out_len];

    for o in 0..outer {
        let src_base = o * in_len * inner;
        let dst_base = o * out_len * inner;
        for i in 0..inner {
            // Gather.
            for (j, slot) in in_lane.iter_mut().enumerate() {
                *slot = src_data[src_base + j * inner + i];
            }
            out_lane.fill(0.0);
            f(&in_lane, &mut out_lane);
            // Scatter.
            for (j, &v) in out_lane.iter().enumerate() {
                out[dst_base + j * inner + i] = v;
            }
        }
    }
    NdMatrix::from_shape_vec(out_shape, out)
}

/// The matrix's cells as raw bit patterns, for bit-for-bit assertions
/// (`==` on `f64` would equate `0.0` with `-0.0` and reject equal NaNs).
pub fn bits(m: &NdMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}
