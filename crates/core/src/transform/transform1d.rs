//! The [`Transform1d`] trait: the common interface of the paper's three
//! 1-D building blocks (Haar §IV, nominal §V, identity §VI-D).
//!
//! Every 1-D transform here is an invertible linear map from a frequency
//! vector of [`input_len`] entries to a coefficient vector of
//! [`output_len`] entries, equipped with a weight function and the two
//! §VI-C accounting factors. The multi-dimensional HN transform and the
//! [`LaneExecutor`](privelet_matrix::LaneExecutor) engine dispatch through
//! this trait, so the enum wrapper [`DimTransform`](super::DimTransform)
//! is only needed where object-safe *storage* is (one heterogeneous
//! transform per dimension), not for behavior.
//!
//! The hot-path entry points take caller-provided scratch so the engine
//! can reuse one buffer set across millions of lanes; the `*_alloc`
//! convenience wrappers allocate scratch per call and exist for tests and
//! one-shot use.
//!
//! Each transform's arithmetic is written once. [`forward`] leaves the
//! lane's intermediate *state* in its scratch, and [`repair`] brings that
//! state and the affected coefficients up to date after some leaves
//! change, with the same float expressions — so the publish path and the
//! streaming ingest path
//! ([`IncrementalRelease`](crate::incremental::IncrementalRelease)) run
//! the same per-transform code, bit for bit.
//!
//! [`forward`]: Transform1d::forward
//! [`repair`]: Transform1d::repair
//! [`input_len`]: Transform1d::input_len
//! [`output_len`]: Transform1d::output_len

/// A 1-D wavelet (or pass-through) transform along one dimension.
///
/// Implementations must be pure: two calls with the same inputs write the
/// same outputs, bit for bit. The engine relies on this for the
/// serial/parallel equivalence guarantee.
pub trait Transform1d: Sync {
    /// Domain size |A| (the frequency-vector length).
    fn input_len(&self) -> usize;

    /// Number of coefficients produced (≥ `input_len` for over-complete
    /// transforms, the padded power of two for Haar).
    fn output_len(&self) -> usize;

    /// Per-lane kernel state length: the intermediate values `forward`
    /// leaves in its scratch — the Haar averaging pyramid in heap layout
    /// (`2·m` slots, leaves at `m + x`, slot 0 unused), the nominal
    /// leaf-sums by hierarchy node id (`node_count`), the identity lane
    /// itself (`|A|`). [`repair`](Self::repair) works on this state.
    /// It is also the scratch length `forward` / `inverse` need.
    fn state_len(&self) -> usize;

    /// Forward transform of one lane: `src.len() == input_len()`,
    /// `dst.len() == output_len()`, `scratch.len() >= state_len()`.
    /// Every element of `dst` is written, and on return
    /// `scratch[..state_len()]` holds the lane's state: input position
    /// `x` sits at [`leaf_slot(x)`](Self::leaf_slot), every other slot is
    /// the kernel's intermediate value computed from those leaves.
    fn forward(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]);

    /// Inverse transform of one lane: `src.len() == output_len()`,
    /// `dst.len() == input_len()`, `scratch.len() >= state_len()`.
    /// Every element of `dst` is written.
    fn inverse(&self, src: &[f64], dst: &mut [f64], scratch: &mut [f64]);

    /// Refinement of one noisy coefficient lane before inversion: the
    /// mean-subtraction step for nominal dimensions (§V-B), a no-op
    /// otherwise. Must be a no-op on exact coefficients.
    fn refine(&self, _coeffs: &mut [f64]) {}

    /// Whether [`refine`](Self::refine) does anything; lets callers skip
    /// the copy-refine step on axes where it is a no-op.
    ///
    /// Deliberately **not** defaulted: an implementation overriding
    /// `refine` but inheriting a `false` here would have its refinement
    /// silently skipped by the engine, so every transform must state it.
    fn has_refinement(&self) -> bool;

    /// The weight vector over the coefficient layout (`output_len()`
    /// entries, all strictly positive).
    fn weights(&self) -> Vec<f64>;

    /// Sparse coefficient support of the interval-sum functional
    /// `c ↦ Σ_{x ∈ [lo, hi]} inverse(c)[x]` (inclusive bounds over the
    /// *domain*, `lo ≤ hi < input_len()`).
    ///
    /// Returns `(coefficient index, weight)` pairs with strictly nonzero
    /// weights such that the identity above holds for **every** coefficient
    /// vector — noisy or exact — because it is the adjoint of the (linear)
    /// inverse transform applied to the interval's indicator vector. This
    /// is the paper's §IV/§V observation that a range-count query touches
    /// only a few coefficients: O(log m) entries for Haar (the two
    /// boundary root-to-leaf paths), O(cells + height) for nominal, and
    /// exactly the covered cells for identity. Coefficient-domain query
    /// answering rests on this method.
    ///
    /// For transforms with a refinement step ([`refine`](Self::refine)),
    /// the identity is stated against the plain `inverse`; callers serving
    /// noisy coefficients must refine them once beforehand (the
    /// refinement is idempotent, so refining already-refined or exact
    /// coefficients is harmless).
    fn query_weights(&self, lo: usize, hi: usize) -> Vec<(usize, f64)>;

    /// The state slot holding input position `pos` (`pos < input_len()`)
    /// after [`forward`](Self::forward): `m + pos` for Haar, the leaf's
    /// node id for nominal, `pos` for identity.
    fn leaf_slot(&self, pos: usize) -> usize;

    /// Dirty-path repair of one lane's state — the incremental form of
    /// [`forward`](Self::forward), sharing its float expressions.
    ///
    /// `state` is a lane state as `forward` left it, except that the leaf
    /// slots listed in `dirty` (distinct, any order) hold new values.
    /// `repair` recomputes every internal node depending on a dirty leaf
    /// exactly once, children first, and appends `(pos, value)` to `out`
    /// for every output coefficient depending on a dirty leaf: the heap path
    /// plus the base for Haar, the root plus every child of a dirty node
    /// for nominal, the leaf itself for identity. Afterwards `state` and
    /// the emitted values equal, bit for bit, what `forward` computes from
    /// the new leaves; no other coefficient changed. `dirty` is a reusable
    /// work list whose contents on return are unspecified.
    ///
    /// A single-leaf repair emits at most
    /// [`max_update_support`](Self::max_update_support) values — the
    /// paper's O(log m) update path per dimension.
    fn repair(&self, state: &mut [f64], dirty: &mut Vec<usize>, out: &mut Vec<(usize, f64)>);

    /// Upper bound on the coefficients a single-leaf
    /// [`repair`](Self::repair) emits, over every leaf — the
    /// per-dimension factor in the streaming touch-count contract
    /// (`⌈log₂ m⌉ + 1` for Haar, the root plus one sibling group per
    /// internal node on the widest root path for nominal, 1 for identity).
    fn max_update_support(&self) -> usize;

    /// The per-dimension noise-variance factor `Σ_j u(j)²/W(j)²` of an
    /// already-derived interval-sum support (as returned by
    /// [`query_weights`](Self::query_weights)), where `u` is the image of
    /// the support under the adjoint of [`refine`](Self::refine).
    ///
    /// With independent `Lap(λ/W(c))` noise on every coefficient and the
    /// refinement applied before serving, the noise in a range-count
    /// answer along this dimension contributes exactly this factor to the
    /// tensor-product variance `2λ²·∏ᵢ factorᵢ` (see
    /// [`variance`](crate::variance)). For transforms without a
    /// refinement the adjoint is the identity and the factor is the plain
    /// fold `Σ (entry/weight)²`; the nominal transform's mean subtraction
    /// couples sibling coefficients, so its implementation folds per
    /// sibling group.
    ///
    /// Deliberately **not** defaulted (like
    /// [`has_refinement`](Self::has_refinement)): a default fold ignoring
    /// the refinement adjoint would silently mispredict the variance of
    /// every refining transform.
    ///
    /// Cost: O(support) — the caller already paid the derivation, so
    /// computing the factor alongside a freshly derived support is free of
    /// additional derivations.
    fn support_variance_factor(&self, support: &[(usize, f64)]) -> f64;

    /// [`support_variance_factor`](Self::support_variance_factor) of the
    /// interval `[lo, hi]`, deriving the support internally — the one-shot
    /// entry point (O(polylog m) for Haar/nominal). Serving tiers that
    /// already hold the support should call `support_variance_factor`
    /// directly to avoid the second derivation.
    fn query_variance_factor(&self, lo: usize, hi: usize) -> f64 {
        self.support_variance_factor(&self.query_weights(lo, hi))
    }

    /// Generalized-sensitivity factor `P(A)` (§VI-C).
    fn p_value(&self) -> f64;

    /// Variance factor `H(A)` (§VI-C; `|A|` for identity per Corollary 1).
    fn h_value(&self) -> f64;

    /// Short kind label for diagnostics ("haar", "nominal", "identity").
    fn kind(&self) -> &'static str;

    /// Forward transform allocating its own scratch (tests / one-shot).
    fn forward_alloc(&self, src: &[f64], dst: &mut [f64])
    where
        Self: Sized,
    {
        let mut scratch = vec![0.0f64; self.state_len()];
        self.forward(src, dst, &mut scratch);
    }

    /// Inverse transform allocating its own scratch (tests / one-shot).
    fn inverse_alloc(&self, src: &[f64], dst: &mut [f64])
    where
        Self: Sized,
    {
        let mut scratch = vec![0.0f64; self.state_len()];
        self.inverse(src, dst, &mut scratch);
    }
}

/// The repair oracle shared by every transform's proptest: the dense
/// [`forward`](Transform1d::forward) of the old and the new lane.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Transform1d;
    use proptest::prelude::*;

    /// Runs `forward(old)`, overwrites the leaves named in `updates`
    /// (`(pos, value)`, later entries win), repairs, and checks the result
    /// against `forward(new)`: the repaired state equals the new state
    /// bitwise, every emitted value equals the new coefficient at its
    /// position bitwise (each position emitted once), every coefficient
    /// that changed is emitted, and a one-leaf repair emits at most
    /// `max_update_support()` values. Returns the emitted positions,
    /// ascending.
    pub(crate) fn check_repair(
        t: &dyn Transform1d,
        old: &[f64],
        updates: &[(usize, f64)],
    ) -> Result<Vec<usize>, TestCaseError> {
        let (n, out_n, s_n) = (t.input_len(), t.output_len(), t.state_len());
        let mut state = vec![f64::NAN; s_n];
        let mut old_c = vec![0.0f64; out_n];
        t.forward(old, &mut old_c, &mut state);

        let mut new = old.to_vec();
        let mut dirty = Vec::new();
        for &(pos, v) in updates {
            new[pos] = v;
            let slot = t.leaf_slot(pos);
            state[slot] = v;
            if !dirty.contains(&slot) {
                dirty.push(slot);
            }
        }
        let single = dirty.len() == 1;
        let mut emitted = Vec::new();
        t.repair(&mut state, &mut dirty, &mut emitted);

        let mut want_state = vec![f64::NAN; s_n];
        let mut new_c = vec![0.0f64; out_n];
        t.forward(&new, &mut new_c, &mut want_state);
        for k in 0..s_n {
            prop_assert_eq!(
                state[k].to_bits(),
                want_state[k].to_bits(),
                "state slot {}",
                k
            );
        }
        emitted.sort_by_key(|&(q, _)| q);
        for w in emitted.windows(2) {
            prop_assert!(w[0].0 != w[1].0, "position {} emitted twice", w[0].0);
        }
        for &(q, v) in &emitted {
            prop_assert_eq!(v.to_bits(), new_c[q].to_bits(), "emitted coefficient {}", q);
        }
        let positions: Vec<usize> = emitted.iter().map(|&(q, _)| q).collect();
        for q in 0..out_n {
            if new_c[q].to_bits() != old_c[q].to_bits() {
                prop_assert!(
                    positions.binary_search(&q).is_ok(),
                    "changed coefficient {} not emitted",
                    q
                );
            }
        }
        if single {
            prop_assert!(
                positions.len() <= t.max_update_support(),
                "one-leaf repair emitted {} > {}",
                positions.len(),
                t.max_update_support()
            );
        }
        prop_assert!(n == old.len());
        Ok(positions)
    }

    /// A lane of `n` values and one to six leaf overwrites (positions may
    /// repeat).
    pub(crate) fn lane_and_updates(
        n: usize,
    ) -> impl Strategy<Value = (Vec<f64>, Vec<(usize, f64)>)> {
        (
            prop::collection::vec(-1e3f64..1e3, n),
            prop::collection::vec((0..n, -1e3f64..1e3), 1..=6),
        )
    }
}
