//! Property tests for the matrix substrate.

use privelet_matrix::{rect_sum_naive, LaneExecutor, LaneKernel, NdMatrix, PrefixSums, Shape};
use proptest::prelude::*;

/// A length-preserving lane kernel defined by a per-lane function.
struct LaneFn {
    len: usize,
    f: fn(&[f64], &mut [f64]),
}

impl LaneKernel for LaneFn {
    fn input_len(&self) -> usize {
        self.len
    }
    fn output_len(&self) -> usize {
        self.len
    }
    fn apply(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
        (self.f)(src, dst)
    }
}

fn copy(s: &[f64], d: &mut [f64]) {
    d.copy_from_slice(s);
}

fn reverse(s: &[f64], d: &mut [f64]) {
    for (i, &v) in s.iter().enumerate() {
        d[s.len() - 1 - i] = v;
    }
}

fn scale2(s: &[f64], d: &mut [f64]) {
    for (o, &v) in d.iter_mut().zip(s) {
        *o = v * 2.0;
    }
}

/// Applies `f` to every lane of `m` along `axis` through the executor.
fn map_axis(
    exec: &mut LaneExecutor,
    m: &NdMatrix,
    axis: usize,
    f: fn(&[f64], &mut [f64]),
) -> NdMatrix {
    let kernel = LaneFn {
        len: m.dims()[axis],
        f,
    };
    exec.map_axis(m, axis, &kernel).unwrap()
}

/// Strategy: a random shape with 1..=4 dims, each of size 1..=6.
fn shape_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=6, 1..=4)
}

/// Strategy: a shape plus matching random cell data.
fn matrix_strategy() -> impl Strategy<Value = NdMatrix> {
    shape_strategy().prop_flat_map(|dims| {
        let n: usize = dims.iter().product();
        prop::collection::vec(-100.0f64..100.0, n)
            .prop_map(move |data| NdMatrix::from_vec(&dims, data).unwrap())
    })
}

/// Strategy: a matrix plus a valid inclusive rectangle inside it.
fn matrix_and_rect() -> impl Strategy<Value = (NdMatrix, Vec<usize>, Vec<usize>)> {
    matrix_strategy().prop_flat_map(|m| {
        let dims = m.dims().to_vec();
        let bounds: Vec<_> = dims
            .iter()
            .map(|&d| (0..d).prop_flat_map(move |lo| (Just(lo), lo..d)))
            .collect();
        (Just(m), bounds).prop_map(|(m, pairs)| {
            let lo: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
            let hi: Vec<usize> = pairs.iter().map(|&(_, h)| h).collect();
            (m, lo, hi)
        })
    })
}

proptest! {
    /// Prefix-sum rectangle sums agree with naive summation.
    #[test]
    fn prefix_matches_naive((m, lo, hi) in matrix_and_rect()) {
        let p = PrefixSums::build(&m);
        let fast = p.rect_sum(&lo, &hi).unwrap();
        let slow = rect_sum_naive(&m, &lo, &hi).unwrap();
        prop_assert!((fast - slow).abs() <= 1e-6 * (1.0 + slow.abs()),
            "fast={fast} slow={slow}");
    }

    /// The total over the full rectangle equals the matrix total.
    #[test]
    fn prefix_total_matches(m in matrix_strategy()) {
        let p = PrefixSums::build(&m);
        let full_lo = vec![0; m.ndim()];
        let full_hi: Vec<usize> = m.dims().iter().map(|&d| d - 1).collect();
        let total = p.rect_sum(&full_lo, &full_hi).unwrap();
        prop_assert!((total - m.total()).abs() <= 1e-6 * (1.0 + m.total().abs()));
        prop_assert!((p.total() - m.total()).abs() <= 1e-6 * (1.0 + m.total().abs()));
    }

    /// Identity lane maps preserve the matrix on every axis.
    #[test]
    fn identity_lane_map_roundtrip(m in matrix_strategy(), axis_seed in 0usize..4) {
        let axis = axis_seed % m.ndim();
        let out = map_axis(&mut LaneExecutor::new(), &m, axis, copy);
        prop_assert_eq!(out, m);
    }

    /// Reversing a lane twice preserves the matrix.
    #[test]
    fn double_reverse_roundtrip(m in matrix_strategy(), axis_seed in 0usize..4) {
        let axis = axis_seed % m.ndim();
        let mut exec = LaneExecutor::new();
        let once = map_axis(&mut exec, &m, axis, reverse);
        let twice = map_axis(&mut exec, &once, axis, reverse);
        prop_assert_eq!(twice, m);
    }

    /// Linear/coords conversions roundtrip for every cell.
    #[test]
    fn shape_roundtrip(dims in shape_strategy()) {
        let s = Shape::new(&dims).unwrap();
        let mut coords = vec![0usize; s.ndim()];
        for lin in 0..s.len() {
            s.coords(lin, &mut coords).unwrap();
            prop_assert_eq!(s.linear(&coords).unwrap(), lin);
        }
    }

    /// Lane maps that scale by a constant commute across axes.
    #[test]
    fn lane_maps_commute(m in matrix_strategy()) {
        if m.ndim() < 2 {
            return Ok(());
        }
        let mut exec = LaneExecutor::new();
        let a0 = map_axis(&mut exec, &m, 0, scale2);
        let a = map_axis(&mut exec, &a0, 1, scale2);
        let b1 = map_axis(&mut exec, &m, 1, scale2);
        let b = map_axis(&mut exec, &b1, 0, scale2);
        prop_assert_eq!(a, b);
    }
}
