//! The identity "transform" used by Privelet⁺ for attributes in `SA`.
//!
//! Privelet⁺ (§VI-D) splits the frequency matrix along the dimensions in
//! `SA` and applies the HN wavelet transform only to the remaining
//! dimensions. Algebraically this is the HN transform in which every `SA`
//! dimension uses the identity map with unit weights: the per-sub-matrix
//! processing of Figure 5 and the identity-dimension formulation touch the
//! same cells with the same weights (asserted by `tests/equivalence.rs` at
//! the workspace root). The identity transform has generalized sensitivity
//! `P(A) = 1` and per-query variance factor `H(A) = |A|` (Corollary 1).

use super::transform1d::Transform1d;

/// Identity transform over a domain of `len` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityTransform {
    len: usize,
}

impl IdentityTransform {
    /// Builds the identity transform for a domain of `len ≥ 1` values.
    pub fn new(len: usize) -> Self {
        assert!(len >= 1, "identity transform needs a non-empty domain");
        IdentityTransform { len }
    }
}

impl Transform1d for IdentityTransform {
    /// Domain size |A|.
    #[inline]
    fn input_len(&self) -> usize {
        self.len
    }

    /// Output length (= input length).
    #[inline]
    fn output_len(&self) -> usize {
        self.len
    }

    /// The state is a copy of the lane.
    fn state_len(&self) -> usize {
        self.len
    }

    /// Forward: copy, into `dst` and into the state.
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]) {
        debug_assert_eq!(src.len(), self.len);
        debug_assert_eq!(dst.len(), self.len);
        dst.copy_from_slice(src);
        scratch[..self.len].copy_from_slice(src);
    }

    /// Inverse: copy.
    fn inverse(&self, src: &[f64], dst: &mut [f64], _scratch: &mut [f64]) {
        debug_assert_eq!(src.len(), self.len);
        debug_assert_eq!(dst.len(), self.len);
        dst.copy_from_slice(src);
    }

    /// Unit weights.
    fn weights(&self) -> Vec<f64> {
        vec![1.0; self.len]
    }

    /// Interval-sum support: the covered cells themselves, weight 1 each
    /// (coefficients *are* cells for the identity transform).
    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        assert!(
            lo <= hi && hi < self.len,
            "interval [{lo}, {hi}] out of range for domain of {}",
            self.len
        );
        (lo..=hi).map(|i| (i, 1.0)).collect()
    }

    fn leaf_slot(&self, pos: usize) -> usize {
        pos
    }

    /// Each dirty leaf is its own coefficient.
    fn repair(&self, state: &mut [f64], dirty: &mut Vec<usize>, out: &mut Vec<(usize, f64)>) {
        for &slot in dirty.iter() {
            out.push((slot, state[slot]));
        }
    }

    /// An increment touches exactly one coefficient.
    fn max_update_support(&self) -> usize {
        1
    }

    /// Sparse variance factor: unit weights and no refinement, so the
    /// factor is the plain sum of squared support weights — the covered
    /// cell count for an interval support (Basic's per-query formula).
    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64 {
        support.iter().map(|&(_, v)| v * v).sum()
    }

    /// Generalized sensitivity factor `P(A) = 1`.
    fn p_value(&self) -> f64 {
        1.0
    }

    /// Variance factor `H(A) = |A|`.
    fn h_value(&self) -> f64 {
        self.len as f64
    }

    /// No refinement step for pass-through dimensions.
    fn has_refinement(&self) -> bool {
        false
    }

    fn kind(&self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform1d::oracle::{check_repair, lane_and_updates};
    use proptest::prelude::*;

    proptest! {
        /// Repair re-emits exactly the overwritten cells.
        #[test]
        fn repair_matches_dense_forward(
            (n, (old, updates)) in (1usize..=20).prop_flat_map(|n| (Just(n), lane_and_updates(n)))
        ) {
            let t = IdentityTransform::new(n);
            let positions = check_repair(&t, &old, &updates)?;
            let mut cells: Vec<usize> = updates.iter().map(|&(pos, _)| pos).collect();
            cells.sort_unstable();
            cells.dedup();
            prop_assert_eq!(positions, cells);
            prop_assert_eq!(check_repair(&t, &old, &updates[..1])?.len(), 1);
        }
    }

    #[test]
    fn copies_both_ways() {
        let t = IdentityTransform::new(4);
        let src = [1.0, -2.0, 3.0, 4.5];
        let mut c = [0.0; 4];
        t.forward_alloc(&src, &mut c);
        assert_eq!(c, src);
        let mut back = [0.0; 4];
        t.inverse_alloc(&c, &mut back);
        assert_eq!(back, src);
        assert_eq!(t.state_len(), 4);
    }

    #[test]
    fn query_weights_are_the_covered_cells() {
        let t = IdentityTransform::new(5);
        assert_eq!(t.query_weights(1, 3), vec![(1, 1.0), (2, 1.0), (3, 1.0)]);
        assert_eq!(t.query_weights(4, 4), vec![(4, 1.0)]);
    }

    #[test]
    fn factors_match_corollary_1() {
        let t = IdentityTransform::new(16);
        assert_eq!(t.p_value(), 1.0);
        assert_eq!(t.h_value(), 16.0);
        assert_eq!(t.max_update_support(), 1);
        assert_eq!(t.weights(), vec![1.0; 16]);
        assert_eq!(t.output_len(), 16);
    }
}
