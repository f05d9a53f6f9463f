//! Boundary coverage for `Transform1d::query_weights`: single-cell
//! intervals (`lo == hi`), the full range `[0, m-1]`, and degenerate
//! `m == 1` domains, for all three transform kinds. Every support is
//! checked against the adjoint identity
//! `Σ_k w_k·c_k == Σ_{x∈[lo,hi]} inverse(c)[x]` on an arbitrary
//! coefficient vector, and Haar supports are checked against the
//! documented `2·log₂(m) + 1` size bound (m = the padded power of two).
//! Storage-domain supports (`Transform1d::storage_support`) get the same
//! pins against the storage `HnTransform::build_storage` builds, on every
//! interval.

use privelet::transform::{
    DimTransform, HaarTransform, HnTransform, IdentityTransform, NominalTransform, Transform1d,
};
use privelet_hierarchy::builder::{flat, random, three_level};
use privelet_matrix::NdMatrix;
use std::sync::Arc;

/// A deterministic "noisy-looking" coefficient vector.
fn coeff_vector(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 73 + 11) % 19) as f64 * 0.37 - 3.0)
        .collect()
}

/// Asserts the adjoint identity for one interval and returns the
/// support's size.
fn check_support(t: &impl Transform1d, lo: usize, hi: usize) -> usize {
    let c = coeff_vector(t.output_len());
    let mut back = vec![0.0; t.input_len()];
    t.inverse_alloc(&c, &mut back);
    let support = t.query_weights(lo, hi);
    // Strictly nonzero weights, strictly increasing indices in range.
    for window in support.windows(2) {
        assert!(window[0].0 < window[1].0, "indices must be ascending");
    }
    for &(k, w) in &support {
        assert!(k < t.output_len(), "index {k} out of coefficient range");
        assert!(w != 0.0, "zero weights must be dropped");
    }
    let direct: f64 = back[lo..=hi].iter().sum();
    let sparse: f64 = support.iter().map(|&(k, w)| w * c[k]).sum();
    assert!(
        (direct - sparse).abs() < 1e-9,
        "{} [{lo},{hi}]: {direct} vs {sparse}",
        t.kind()
    );
    support.len()
}

#[test]
fn haar_boundaries_respect_the_documented_bound() {
    for m in [1usize, 2, 3, 5, 8, 13, 16, 100] {
        let t = HaarTransform::new(m);
        // The §IV bound: base coefficient + the two boundary
        // root-to-leaf paths of the padded 2^k-leaf decomposition tree.
        let bound = 2 * t.levels() as usize + 1;
        // Single-cell intervals: one boundary path.
        for x in 0..m {
            let size = check_support(&t, x, x);
            assert!(size <= bound, "m={m} [{x},{x}]: {size} > {bound}");
            assert!(
                size <= t.levels() as usize + 1,
                "a single cell reads one root-to-leaf path"
            );
        }
        // Full range: when m is itself a power of two every detail node
        // covers equal halves and cancels, leaving just the base
        // coefficient scaled by m.
        let size = check_support(&t, 0, m - 1);
        assert!(size <= bound, "m={m} full range: {size} > {bound}");
        if m.is_power_of_two() {
            assert_eq!(
                t.query_weights(0, m - 1),
                vec![(0, m as f64)],
                "full range over a power-of-two domain is the base only"
            );
        }
    }
}

#[test]
fn haar_single_cell_domain_is_the_base_coefficient() {
    let t = HaarTransform::new(1);
    assert_eq!(t.output_len(), 1);
    assert_eq!(t.query_weights(0, 0), vec![(0, 1.0)]);
    assert_eq!(check_support(&t, 0, 0), 1);
}

#[test]
fn identity_boundaries_are_the_covered_cells() {
    for m in [1usize, 2, 7, 16] {
        let t = IdentityTransform::new(m);
        for x in 0..m {
            assert_eq!(t.query_weights(x, x), vec![(x, 1.0)]);
            check_support(&t, x, x);
        }
        let full = t.query_weights(0, m - 1);
        assert_eq!(full.len(), m, "full range covers every cell");
        assert!(full.iter().all(|&(_, w)| w == 1.0));
        check_support(&t, 0, m - 1);
    }
}

#[test]
fn nominal_boundaries_cover_leaf_and_ancestors() {
    // Root → 4 groups → 12 leaves, plus the flat shape.
    for h in [three_level(12, 4).unwrap(), flat(6).unwrap()] {
        let height = h.height();
        let nodes = h.node_count();
        let leaves = h.leaf_count();
        let t = NominalTransform::new(Arc::new(h));
        // Single-leaf intervals: the leaf plus its ancestor chain.
        for x in 0..leaves {
            let size = check_support(&t, x, x);
            assert!(
                size <= height,
                "leaf {x}: support {size} exceeds height {height}"
            );
        }
        // Full range: bounded by the node count; the sum of all leaves
        // accumulates weight on every ancestor.
        let size = check_support(&t, 0, leaves - 1);
        assert!(size <= nodes, "full range: {size} > {nodes} nodes");
    }
}

#[test]
fn nominal_single_leaf_domain_is_the_root() {
    // flat(1) degenerates to a hierarchy whose root is the only leaf.
    let h = flat(1).unwrap();
    assert_eq!(h.leaf_count(), 1);
    assert_eq!(h.node_count(), 1);
    let t = NominalTransform::new(Arc::new(h));
    assert_eq!(t.input_len(), 1);
    assert_eq!(t.output_len(), 1);
    assert_eq!(t.query_weights(0, 0), vec![(0, 1.0)]);
    assert_eq!(check_support(&t, 0, 0), 1);
}

/// Asserts, for every interval of a one-dimensional release, that the
/// storage support has strictly ascending in-range indices and nonzero
/// weights, and that its dot with the storage equals the interval sum of
/// `inverse_refined` (to 1e-9). Returns the largest support.
fn check_storage_supports(t: DimTransform) -> usize {
    let n = t.input_len();
    let hn = HnTransform::new(vec![t.clone()]).unwrap();
    let c = NdMatrix::from_vec(&[t.output_len()], coeff_vector(t.output_len())).unwrap();
    let storage = hn.build_storage(&c).unwrap();
    let dense = hn.inverse_refined(&c).unwrap();
    let mut widest = 0;
    for lo in 0..n {
        for hi in lo..n {
            let support = t.storage_support(lo, hi);
            for window in support.windows(2) {
                assert!(window[0].0 < window[1].0, "storage indices must ascend");
            }
            for &(k, w) in &support {
                assert!(k < t.output_len(), "index {k} out of storage range");
                assert!(w != 0.0, "zero weights must be dropped");
            }
            let direct: f64 = dense.as_slice()[lo..=hi].iter().sum();
            let sparse: f64 = support
                .iter()
                .map(|&(k, w)| w * storage.as_slice()[k])
                .sum();
            assert!(
                (direct - sparse).abs() < 1e-9,
                "{} [{lo},{hi}]: {direct} vs {sparse}",
                t.kind()
            );
            widest = widest.max(support.len());
        }
    }
    widest
}

#[test]
fn storage_supports_ascend_and_sum_every_interval() {
    for m in [1usize, 2, 3, 5, 8, 13] {
        let haar = HaarTransform::new(m);
        let bound = 2 * haar.levels() as usize + 1;
        assert!(check_storage_supports(DimTransform::Haar(haar)) <= bound);
    }
    for m in [1usize, 2, 7, 16] {
        let widest = check_storage_supports(DimTransform::Identity(IdentityTransform::new(m)));
        assert!(widest <= 2, "identity reads at most two prefix sums");
    }
    for h in [
        three_level(12, 4).unwrap(),
        flat(6).unwrap(),
        flat(1).unwrap(),
        random(11, 4, 7).unwrap(),
    ] {
        let h = Arc::new(h);
        let t = NominalTransform::new(h.clone());
        for id in h.node_ids() {
            let (lo, hi) = h.leaf_range(id);
            assert_eq!(
                t.storage_support(lo, hi),
                vec![(h.level_order_pos(id), 1.0)],
                "a subtree is one read: its own subtree sum"
            );
        }
        check_storage_supports(DimTransform::Nominal(t));
    }
}

#[test]
fn identity_storage_support_is_two_prefix_sums() {
    let t = IdentityTransform::new(5);
    assert_eq!(t.storage_support(0, 3), vec![(3, 1.0)]);
    assert_eq!(t.storage_support(2, 4), vec![(1, -1.0), (4, 1.0)]);
    assert_eq!(t.storage_support(4, 4), vec![(3, -1.0), (4, 1.0)]);
}
