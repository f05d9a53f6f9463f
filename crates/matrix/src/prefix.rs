//! d-dimensional prefix sums and O(2^d) hyper-rectangle sums.
//!
//! Every range-count query in the paper reduces to summing a
//! hyper-rectangle of the (noisy) frequency matrix: ordinal predicates are
//! intervals, and nominal predicates select a hierarchy node whose leaves
//! occupy a contiguous index range (§V-A). A summed-area table makes each of
//! the 40 000 workload queries O(2^d) instead of O(covered cells).

use crate::ndmatrix::NdMatrix;
use crate::shape::Shape;
use crate::{MatrixError, Result};

/// Inclusive d-dimensional prefix sums over an [`NdMatrix`].
///
/// `P[c] = Σ_{x ≤ c} M[x]` (component-wise ≤). Built in `d` passes over the
/// data (one per axis), each pass accumulating along that axis.
#[derive(Debug, Clone)]
pub struct PrefixSums {
    shape: Shape,
    data: Vec<f64>,
}

impl PrefixSums {
    /// Builds prefix sums for `m`: one [`accumulate_axis`] pass per axis.
    pub fn build(m: &NdMatrix) -> Self {
        let mut acc = m.clone();
        // After the pass over axis k, `acc` holds prefix sums over axes
        // 0..=k.
        for axis in 0..acc.ndim() {
            accumulate_axis(&mut acc, axis);
        }
        PrefixSums {
            shape: acc.shape().clone(),
            data: acc.into_vec(),
        }
    }

    /// The underlying shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Sum of the cells in the inclusive hyper-rectangle `[lo, hi]`
    /// (component-wise), via inclusion–exclusion over the 2^d corners.
    ///
    /// Errors with [`MatrixError::TooLarge`] at 32 or more dimensions,
    /// where the corners no longer fit a `u32` mask.
    pub fn rect_sum(&self, lo: &[usize], hi: &[usize]) -> Result<f64> {
        let d = self.shape.ndim();
        if lo.len() != d || hi.len() != d {
            return Err(MatrixError::WrongArity {
                expected: d,
                got: lo.len().min(hi.len()),
            });
        }
        for axis in 0..d {
            if hi[axis] >= self.shape.dim(axis) {
                return Err(MatrixError::OutOfBounds {
                    axis,
                    coord: hi[axis],
                    dim: self.shape.dim(axis),
                });
            }
            if lo[axis] > hi[axis] {
                return Err(MatrixError::EmptyRect { axis });
            }
        }
        if d >= u32::BITS as usize {
            return Err(MatrixError::TooLarge);
        }
        let mut total = 0.0f64;
        let mut corner = vec![0usize; d];
        // Enumerate the 2^d corners; bit k chooses hi[k] (+) or lo[k]-1 (−).
        'corners: for mask in 0u32..(1u32 << d) {
            let mut sign = 1.0f64;
            for (axis, c) in corner.iter_mut().enumerate() {
                if mask & (1 << axis) != 0 {
                    *c = hi[axis];
                } else {
                    if lo[axis] == 0 {
                        continue 'corners; // that term is zero
                    }
                    *c = lo[axis] - 1;
                    sign = -sign;
                }
            }
            total += sign * self.data[self.shape.linear_unchecked(&corner)];
        }
        Ok(total)
    }

    /// Sum of the whole matrix (the prefix value at the far corner; a
    /// shape always has at least one cell, so there always is one).
    pub fn total(&self) -> f64 {
        self.data.last().copied().unwrap_or(0.0)
    }
}

/// Accumulates `m` in place into inclusive prefix sums along `axis`:
/// afterwards `m[…, j, …] = Σ_{i ≤ j} m_old[…, i, …]` on that axis, every
/// other axis untouched. Row-major `[outer, axis, inner]` walk: each
/// position adds the whole contiguous `inner`-wide row before it, so the
/// loop streams forward through memory. An `axis` out of range leaves
/// `m` untouched.
///
/// This is the one accumulate loop of the workspace: [`PrefixSums::build`]
/// runs it once per axis, and answer-ready release storage runs it on
/// the axes it stores as prefix sums.
pub fn accumulate_axis(m: &mut NdMatrix, axis: usize) {
    let dims = m.dims();
    let Some(&len) = dims.get(axis) else {
        return;
    };
    let inner: usize = dims[axis + 1..].iter().product();
    let data = m.as_mut_slice();
    for block in data.chunks_exact_mut(len * inner) {
        for j in 1..len {
            let (prev, cur) = block[(j - 1) * inner..(j + 1) * inner].split_at_mut(inner);
            for (c, p) in cur.iter_mut().zip(prev.iter()) {
                *c += *p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::rect_sum_naive;

    fn iota(dims: &[usize]) -> NdMatrix {
        let n: usize = dims.iter().product();
        NdMatrix::from_vec(dims, (0..n).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn one_dim_prefix_sums() {
        let m = NdMatrix::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = PrefixSums::build(&m);
        assert_eq!(p.rect_sum(&[0], &[3]).unwrap(), 10.0);
        assert_eq!(p.rect_sum(&[1], &[2]).unwrap(), 5.0);
        assert_eq!(p.rect_sum(&[3], &[3]).unwrap(), 4.0);
        assert_eq!(p.total(), 10.0);
    }

    #[test]
    fn two_dim_matches_naive() {
        let m = iota(&[3, 4]);
        let p = PrefixSums::build(&m);
        for lo0 in 0..3 {
            for hi0 in lo0..3 {
                for lo1 in 0..4 {
                    for hi1 in lo1..4 {
                        let expected = rect_sum_naive(&m, &[lo0, lo1], &[hi0, hi1]).unwrap();
                        let got = p.rect_sum(&[lo0, lo1], &[hi0, hi1]).unwrap();
                        assert_eq!(got, expected, "rect [{lo0},{lo1}]..[{hi0},{hi1}]");
                    }
                }
            }
        }
    }

    #[test]
    fn four_dim_matches_naive_spot_checks() {
        let m = iota(&[2, 3, 2, 3]);
        let p = PrefixSums::build(&m);
        let rects: &[(&[usize], &[usize])] = &[
            (&[0, 0, 0, 0], &[1, 2, 1, 2]),
            (&[1, 1, 0, 1], &[1, 2, 1, 2]),
            (&[0, 2, 1, 0], &[1, 2, 1, 0]),
            (&[1, 0, 1, 2], &[1, 0, 1, 2]),
        ];
        for (lo, hi) in rects {
            assert_eq!(
                p.rect_sum(lo, hi).unwrap(),
                rect_sum_naive(&m, lo, hi).unwrap()
            );
        }
    }

    #[test]
    fn rejects_inverted_and_out_of_bounds_rects() {
        let m = iota(&[3, 3]);
        let p = PrefixSums::build(&m);
        assert!(matches!(
            p.rect_sum(&[2, 0], &[1, 2]).unwrap_err(),
            MatrixError::EmptyRect { axis: 0 }
        ));
        assert!(matches!(
            p.rect_sum(&[0, 0], &[0, 3]).unwrap_err(),
            MatrixError::OutOfBounds { axis: 1, .. }
        ));
        assert!(p.rect_sum(&[0], &[1, 1]).is_err());
    }

    #[test]
    fn rect_sum_refuses_32_or_more_dimensions() {
        // One cell holding 5.0; the 2^d corner mask no longer fits a u32.
        for d in [32usize, 33] {
            let m = NdMatrix::from_vec(&vec![1; d], vec![5.0]).unwrap();
            let p = PrefixSums::build(&m);
            let origin = vec![0usize; d];
            assert_eq!(
                p.rect_sum(&origin, &origin).unwrap_err(),
                MatrixError::TooLarge,
                "d = {d}"
            );
            assert_eq!(p.total(), 5.0);
        }
    }

    #[test]
    fn accumulate_axis_sums_along_one_axis_only() {
        let mut m = iota(&[2, 3]); // [[0, 1, 2], [3, 4, 5]]
        accumulate_axis(&mut m, 1);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 3.0, 3.0, 7.0, 12.0]);
        let mut m = iota(&[2, 3]);
        accumulate_axis(&mut m, 0);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 5.0, 7.0]);
        // An axis out of range leaves the matrix untouched.
        accumulate_axis(&mut m, 2);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn singleton_dims_are_handled() {
        let m = iota(&[1, 5, 1]);
        let p = PrefixSums::build(&m);
        assert_eq!(p.rect_sum(&[0, 1, 0], &[0, 3, 0]).unwrap(), 1.0 + 2.0 + 3.0);
        assert_eq!(p.total(), 10.0);
    }
}
