//! The answer-ready storage pinned to a dense oracle. On random 1–4-dim
//! mixed schemas (Haar, nominal and identity axes; exact and noisy
//! releases), every interval of every dimension is answered by
//! `derive_support` + `dot` over the release core's storage and compared
//! with a `PrefixSums` rectangle sum over `inverse_refined` of the same
//! coefficients. Alongside, each support's variance factor is pinned
//! bitwise to the transform's own coefficient-support fold, and each
//! support's length to what the storage promises: at most 2 reads on an
//! identity axis, exactly 1 on a nominal axis when (and only when) the
//! interval is one subtree.

mod common;

use common::{build, data_matrix, dim_spec};
use privelet_repro::core::mechanism::{publish_coefficients, PriveletConfig};
use privelet_repro::core::transform::{DimTransform, HnTransform, Transform1d};
use privelet_repro::data::schema::Schema;
use privelet_repro::matrix::{NdMatrix, PrefixSums};
use privelet_repro::query::ReleaseCore;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Every inclusive interval of a domain of `n` values.
fn intervals(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|lo| (lo..n).map(move |hi| (lo, hi)))
        .collect()
}

/// A background interval per dimension, drawn from `seed`.
fn background(dims: &[usize], seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut state = seed;
    let mut next = |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    dims.iter()
        .map(|&n| {
            let lo = next(n);
            (lo, lo + next(n - lo))
        })
        .unzip()
}

/// Checks one core whose storage was built from `coefficients`: each
/// dimension sweeps all of its intervals while the others hold their
/// background interval.
fn check_core(core: &ReleaseCore, coefficients: &NdMatrix, seed: u64) -> Result<(), TestCaseError> {
    let hn: &HnTransform = core.transform();
    let oracle = PrefixSums::build(&hn.inverse_refined(coefficients).unwrap());
    let tol = 1e-9 * core.total().abs().max(1.0);
    let dims = hn.input_dims();
    let (bg_lo, bg_hi) = background(&dims, seed);
    for (dim, t) in hn.transforms().iter().enumerate() {
        let subtrees: Option<BTreeSet<(usize, usize)>> = match t {
            DimTransform::Nominal(n) => {
                let h = n.hierarchy();
                Some(h.node_ids().map(|id| h.leaf_range(id)).collect())
            }
            _ => None,
        };
        let mut non_subtree_intervals = 0usize;
        for (lo_d, hi_d) in intervals(dims[dim]) {
            let (mut lo, mut hi) = (bg_lo.clone(), bg_hi.clone());
            lo[dim] = lo_d;
            hi[dim] = hi_d;
            let supports = (0..dims.len())
                .map(|k| core.derive_support(k, lo[k], hi[k]))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            let got = core.dot(&supports);
            let want = oracle.rect_sum(&lo, &hi).unwrap();
            prop_assert!(
                (got - want).abs() <= tol,
                "{} axis {dim}, rect {lo:?}..{hi:?}: storage {got} vs dense {want}",
                t.kind()
            );

            let support = &supports[dim];
            let factor = t.support_variance_factor(&t.query_weights(lo_d, hi_d));
            prop_assert_eq!(support.variance_factor.to_bits(), factor.to_bits());
            match &subtrees {
                Some(ranges) => {
                    let is_subtree = ranges.contains(&(lo_d, hi_d));
                    non_subtree_intervals += usize::from(!is_subtree);
                    prop_assert_eq!(
                        support.len() == 1,
                        is_subtree,
                        "nominal [{}, {}]: {} reads",
                        lo_d,
                        hi_d,
                        support.len()
                    );
                }
                None if t.kind() == "identity" => prop_assert!(support.len() <= 2),
                None => {}
            }
        }
        // Three or more leaves always leave some interval that is not a
        // subtree (more intervals than nodes), and the sweep visits it.
        if subtrees.is_some() && dims[dim] >= 3 {
            prop_assert!(non_subtree_intervals > 0);
        }
    }
    Ok(())
}

fn schema_strategy() -> impl Strategy<Value = (Schema, BTreeSet<usize>)> {
    prop::collection::vec(dim_spec(), 1..=4).prop_map(|specs| build(&specs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact coefficients: the storage answers are the table's own
    /// rectangle sums.
    #[test]
    fn exact_storage_matches_the_dense_oracle(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        bg_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let core = ReleaseCore::new(schema, hn, &coeffs).unwrap();
        check_core(&core, &coeffs, bg_seed)?;
    }

    /// Noisy releases: nominal sibling groups no longer sum to zero, so
    /// the storage must refine them; the oracle refines by inverting
    /// with `inverse_refined`.
    #[test]
    fn noisy_storage_matches_the_dense_oracle(
        (schema, sa) in schema_strategy(),
        data_seed in any::<u64>(),
        noise_seed in any::<u64>(),
        bg_seed in any::<u64>(),
    ) {
        let fm = data_matrix(&schema, data_seed);
        let out = publish_coefficients(&fm, &PriveletConfig::plus(1.0, sa, noise_seed)).unwrap();
        let core = ReleaseCore::from_output(&out).unwrap();
        check_core(&core, &out.coefficients, bg_seed)?;
    }
}
