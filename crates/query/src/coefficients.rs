//! Coefficient-domain query answering: a handful of reads per dimension,
//! no reconstruction, from any number of threads.
//!
//! The paper's central structural fact (§IV–§V) is that a range-count
//! query intersects only O(log m) Haar coefficients per dimension — the
//! two boundary root-to-leaf paths — so a query can be answered *directly
//! from the noisy coefficients* as a sparse tensor-product dot, without
//! ever inverting the transform. [`ConcurrentEngine`] is that serving
//! path: an [`Arc`]-shared immutable [`ReleaseCore`] (its answer-ready
//! storage built once at construction, O(m'): Haar coefficients,
//! identity prefix sums, nominal subtree sums) plus an `Arc`-shared
//! [`ShardedSupportCache`] memoizing the online path. Each `answer`
//! reads `∏ᵢ |supportᵢ|` stored values.
//!
//! A release is write-once, read-many, so no lock guards the
//! storage (nothing mutates it), and online lookups of different
//! supports hash to different cache shards and rarely contend. Cloning
//! the engine is two `Arc` bumps, so the natural deployment is one clone
//! per serving thread over one core.
//!
//! **One configuration.** The engine has no settings: the cache holds
//! [`DEFAULT_SUPPORT_CACHE_CAPACITY`] supports over a fixed shard count,
//! and an epoch advance keeps it, because [`ReleaseCore::advance_epoch`]
//! only accepts epochs published under the same transform — the one
//! input a cached support depends on besides its `(dim, lo, hi)` key.
//!
//! **Bitwise-equality guarantee.** There is one support derivation and
//! one sparse tensor-product walk, both pure and shared by the online
//! path and plan execution, so any thread's answer is bit-identical to
//! the core's uncached oracle — [`ReleaseCore::answer_uncached`],
//! [`ReleaseCore::answer_with_error_uncached`],
//! [`ReleaseCore::execute_plan`] — and an online answer is
//! bit-identical to the same query's answer in a compiled [`QueryPlan`],
//! value and std-dev. `tests/concurrent_serving.rs` asserts this from
//! scoped threads on random mixed schemas, along with the cache's
//! counter conservation under contention and compile-time
//! `Send + Sync` for the plan, the core and the engine.
//!
//! Compare [`Answerer`](crate::Answerer): O(m) prefix-sum build, O(2^d)
//! per query. The coefficient path wins when queries arrive online, when
//! m is large relative to the query volume, or when the reconstructed
//! matrix would not fit the serving tier; the prefix path wins for
//! huge offline workloads over small m. Both return the same answers to
//! floating-point rounding (property-tested at the workspace root).

use crate::annotated::AnnotatedAnswer;
use crate::cache::{CacheStats, ShardedSupportCache, SharedSupport};
use crate::plan::QueryPlan;
use crate::range_query::RangeQuery;
use crate::release::ReleaseCore;
use crate::{QueryError, Result};
use privelet::mechanism::CoefficientOutput;
use privelet_data::schema::Schema;
use std::sync::Arc;

/// Default bound on the online support cache: each entry holds one
/// dimension's storage offsets and weights (O(log m) on Haar, at most 2
/// on identity, one per covered subtree on nominal), so the default
/// footprint is a few hundred kilobytes at most.
pub const DEFAULT_SUPPORT_CACHE_CAPACITY: usize = 1024;

/// The coefficient-domain answering engine: an `Arc`-shared immutable
/// [`ReleaseCore`] plus an `Arc`-shared [`ShardedSupportCache`].
///
/// All methods take `&self`; the engine is `Send + Sync` and `Clone`
/// (two pointer bumps — clones serve the same release through the same
/// cache). See the [module docs](self) for the design and guarantees.
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    core: Arc<ReleaseCore>,
    cache: Arc<ShardedSupportCache>,
}

impl ConcurrentEngine {
    /// Wraps a (possibly already shared) release core with a fresh cache
    /// of [`DEFAULT_SUPPORT_CACHE_CAPACITY`] supports. The core's
    /// one-time work (validation, storage build, total) is not repeated.
    pub fn new(core: Arc<ReleaseCore>) -> Self {
        ConcurrentEngine {
            core,
            cache: Arc::new(ShardedSupportCache::new(DEFAULT_SUPPORT_CACHE_CAPACITY)),
        }
    }

    /// Builds core and engine straight from a [`publish_coefficients`]
    /// release.
    ///
    /// [`publish_coefficients`]: privelet::mechanism::publish_coefficients
    pub fn from_output(out: &CoefficientOutput) -> Result<Self> {
        Ok(Self::new(Arc::new(ReleaseCore::from_output(out)?)))
    }

    /// Rolls the engine to a new epoch of the same release series.
    /// Errors with [`QueryError::ShapeMismatch`] unless the epoch was
    /// published under this engine's transform (see
    /// [`ReleaseCore::advance_epoch`]). The returned engine shares this
    /// engine's cache `Arc`: supports are pure functions of
    /// `(dim, lo, hi)` and the transform, so every warm entry stays valid
    /// across epochs; only the storage rolls with the core. `self`
    /// keeps serving the old epoch, so a serving tier can drain in-flight
    /// traffic on the old engine while new traffic routes to the new one.
    pub fn advance_epoch(&self, out: &CoefficientOutput) -> Result<Self> {
        Ok(ConcurrentEngine {
            core: Arc::new(self.core.advance_epoch(out)?),
            cache: Arc::clone(&self.cache),
        })
    }

    /// The shared release core. Clone the `Arc` to hand the same release
    /// to further engines.
    pub fn core(&self) -> &Arc<ReleaseCore> {
        &self.core
    }

    /// The schema queries are validated against.
    pub fn schema(&self) -> &Schema {
        self.core.schema()
    }

    /// The (noisy) total count — the unconstrained query's answer.
    pub fn total(&self) -> f64 {
        self.core.total()
    }

    /// Answers one range-count query as a sparse tensor-product dot
    /// against the storage: `Σ ∏ᵢ wᵢ[kᵢ] · S[k₁,…,k_d]` over the
    /// per-dimension supports, `∏ᵢ |supportᵢ|` reads — O(log mᵢ) on a
    /// Haar dimension, at most 2 on an identity one, one per covered
    /// subtree on a nominal one — versus the O(m) reconstruction the
    /// prefix-sum path must pay before its first answer.
    ///
    /// Safe and lock-cheap to call from many threads at once: each
    /// dimension's lookup locks only the shard its `(dim, lo, hi)` key
    /// hashes to, and a concurrent miss on the same key derives exactly
    /// once per shard residency. Bit-identical to
    /// [`ReleaseCore::answer_uncached`].
    pub fn answer(&self, q: &RangeQuery) -> Result<f64> {
        Ok(self.answer_with_support(q)?.0)
    }

    /// [`answer`](Self::answer) plus the number of stored values the dot
    /// product read (`∏ᵢ |supportᵢ|`) — one support derivation for both,
    /// for callers that report the per-query cost alongside the value.
    pub fn answer_with_support(&self, q: &RangeQuery) -> Result<(f64, usize)> {
        let supports = self.supports(q)?;
        let value = self.core.dot(&supports);
        Ok((value, supports.iter().map(|s| s.len()).product()))
    }

    /// [`answer`](Self::answer) with its exact noise std-dev: the same
    /// cached supports and the same dot (bit-identical value), annotated
    /// from the supports' precomputed variance factors — on a warm cache
    /// this adds zero derivations and no lock traffic beyond the lookups
    /// `answer` already performs.
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when the release
    /// carries no privacy accounting.
    pub fn answer_with_error(&self, q: &RangeQuery) -> Result<AnnotatedAnswer> {
        let supports = self.supports(q)?;
        self.core.annotate(self.core.dot(&supports), &supports)
    }

    /// Answers a whole workload by compiling a [`QueryPlan`] (one
    /// support derivation per distinct `(dim, lo, hi)` triple across the
    /// batch) and executing it against the shared core — no cache, and
    /// so no lock, involved. For a workload served repeatedly, compile
    /// once with [`plan`](Self::plan) and let every thread call
    /// [`answer_plan`](Self::answer_plan) on the shared plan.
    pub fn answer_all(&self, queries: &[RangeQuery]) -> Result<Vec<f64>> {
        self.answer_plan(&self.plan(queries)?)
    }

    /// Compiles a workload against the shared release. The plan is
    /// immutable and `Send + Sync`: compile once, share by reference (or
    /// `Arc`), execute from any number of threads.
    pub fn plan(&self, queries: &[RangeQuery]) -> Result<QueryPlan> {
        self.core.plan(queries)
    }

    /// Executes a compiled plan against the shared storage.
    /// Allocates only the output vector; any number of threads may
    /// execute the same plan concurrently, each getting a bit-identical
    /// result.
    pub fn answer_plan(&self, plan: &QueryPlan) -> Result<Vec<f64>> {
        self.core.execute_plan(plan)
    }

    /// [`answer_plan`](Self::answer_plan) with error accounting from the
    /// plan's compile-time-interned variance factors: same dots, zero
    /// derivations, no locks.
    pub fn answer_plan_with_error(&self, plan: &QueryPlan) -> Result<Vec<AnnotatedAnswer>> {
        self.core.execute_plan_with_error(plan)
    }

    /// Hit/miss/eviction counters and occupancy of the support cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Selectivity of a query relative to a tuple count `n`.
    ///
    /// Errors with [`QueryError::ZeroPopulation`] when `n == 0`: the
    /// ratio is undefined, and both serving paths reject it identically
    /// rather than silently reporting 0.
    pub fn selectivity(&self, q: &RangeQuery, n: usize) -> Result<f64> {
        if n == 0 {
            return Err(QueryError::ZeroPopulation);
        }
        Ok(self.answer(q)? / n as f64)
    }

    /// Resolves a query to its per-dimension sparse supports through the
    /// cache: repeated `(dim, lo, hi)` predicates across requests reuse
    /// the memoized support instead of re-deriving it.
    fn supports(&self, q: &RangeQuery) -> Result<Vec<SharedSupport>> {
        let (lo, hi) = q.bounds(self.core.schema())?;
        (0..self.core.schema().arity())
            .map(|dim| {
                let key = (dim, lo[dim], hi[dim]);
                self.cache
                    .get_or_derive(key, || self.core.derive_support(dim, lo[dim], hi[dim]))
            })
            .collect()
    }
}

// The whole point of this engine: provable shareability. A regression
// here (e.g. an `Rc` or `RefCell` slipping into the core) must fail to
// compile, not fail in a stress test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentEngine>();
    assert_send_sync::<ReleaseCore>();
    assert_send_sync::<ShardedSupportCache>();
    assert_send_sync::<QueryPlan>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answerer::Answerer;
    use crate::predicate::Predicate;
    use privelet::mechanism::{publish_coefficients, PriveletConfig};
    use privelet::transform::{HnTransform, Transform1d};
    use privelet_data::medical::medical_example;
    use privelet_data::FrequencyMatrix;
    use privelet_matrix::NdMatrix;
    use std::collections::BTreeSet;

    fn exact(fm: &FrequencyMatrix, q: &RangeQuery) -> f64 {
        let (lo, hi) = q.bounds(fm.schema()).unwrap();
        privelet_matrix::rect_sum_naive(fm.matrix(), &lo, &hi).unwrap()
    }

    fn medical_release(seed: u64) -> (FrequencyMatrix, CoefficientOutput) {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, seed)).unwrap();
        (fm, out)
    }

    fn medical_queries(fm: &FrequencyMatrix) -> Vec<RangeQuery> {
        let h = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
        vec![
            RangeQuery::all(2),
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
            RangeQuery::new(vec![
                Predicate::Range { lo: 1, hi: 4 },
                Predicate::Node {
                    node: h.leaf_node(1),
                },
            ]),
            RangeQuery::new(vec![Predicate::All, Predicate::Node { node: h.root() }]),
            // Repeats query 2: both dims hit the cache.
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
        ]
    }

    /// An engine over the exact (noise-free) coefficients of `fm`: no
    /// publisher, so no privacy accounting.
    fn exact_engine(fm: &FrequencyMatrix) -> ConcurrentEngine {
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let core = ReleaseCore::new(fm.schema().clone(), hn, &coeffs).unwrap();
        ConcurrentEngine::new(Arc::new(core))
    }

    #[test]
    fn matches_reconstruct_then_prefix_sum_on_noisy_release() {
        for seed in [1u64, 5, 42] {
            let (fm, out) = medical_release(seed);
            let coeff = ConcurrentEngine::from_output(&out).unwrap();
            let rec = out.to_matrix().unwrap();
            let dense = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
            let queries = medical_queries(&fm);
            for q in &queries {
                let a = coeff.answer(q).unwrap();
                let b = dense.answer(q).unwrap();
                assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
            }
            let batch = coeff.answer_all(&queries).unwrap();
            for (a, b) in batch.iter().zip(&dense.answer_all(&queries).unwrap()) {
                assert!((a - b).abs() < 1e-9, "seed {seed}: batch {a} vs {b}");
            }
            assert!((coeff.total() - dense.total()).abs() < 1e-9);
            assert_eq!(coeff.schema().arity(), 2);
            // The repeated query hit the cache on both dimensions.
            assert!(coeff.cache_stats().hits >= 2);
        }
    }

    #[test]
    fn annotated_answers_agree_with_the_prefix_path() {
        let (_, out) = medical_release(33);
        let coeff = ConcurrentEngine::from_output(&out).unwrap();
        // The prefix path needs the error model attached explicitly —
        // the reconstructed matrix alone cannot know λ.
        let rec = out.to_matrix().unwrap();
        let prefix = Answerer::new(rec.schema().clone(), rec.matrix())
            .unwrap()
            .with_error_model(out.transform.clone(), out.meta)
            .unwrap();
        let q = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let a = prefix.answer_with_error(&q).unwrap();
        let b = coeff.answer_with_error(&q).unwrap();
        // Same release, same formula: the std-devs agree to rounding and
        // each path's annotated value equals its plain answer bitwise.
        assert!((a.std_dev - b.std_dev).abs() < 1e-9);
        assert!(b.std_dev > 0.0);
        assert_eq!(a.value, prefix.answer(&q).unwrap());
        assert_eq!(b.value, coeff.answer(&q).unwrap());
    }

    #[test]
    fn exact_coefficients_answer_exactly() {
        // Forward-transform the exact matrix (no noise): answers equal the
        // exact evaluation.
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let ans = exact_engine(&fm);
        for q in medical_queries(&fm) {
            let got = ans.answer(&q).unwrap();
            let want = exact(&fm, &q);
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert!((ans.total() - 8.0).abs() < 1e-9);
        assert!((ans.selectivity(&RangeQuery::all(2), 8).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(
            ans.selectivity(&RangeQuery::all(2), 0).unwrap_err(),
            QueryError::ZeroPopulation
        );
    }

    #[test]
    fn answer_all_matches_per_query_loop() {
        let (fm, out) = medical_release(31);
        let ans = ConcurrentEngine::from_output(&out).unwrap();
        let queries = medical_queries(&fm);
        let batch = ans.answer_all(&queries).unwrap();
        for (q, got) in queries.iter().zip(&batch) {
            // Same supports, same walk: plan == online bitwise.
            assert_eq!(got.to_bits(), ans.answer(q).unwrap().to_bits());
        }
        // Compile once, execute twice: identical results.
        let plan = ans.plan(&queries).unwrap();
        assert_eq!(ans.answer_plan(&plan).unwrap(), batch);
        assert_eq!(plan.len(), queries.len());
        assert!(plan.distinct_supports() <= plan.support_requests());
    }

    #[test]
    fn matches_the_uncached_core_bitwise() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let core = engine.core();
        let qs = medical_queries(&fm);
        // Plan path vs plan path on the shared core: bitwise.
        let batch = core.execute_plan(&core.plan(&qs).unwrap()).unwrap();
        assert_eq!(engine.answer_all(&qs).unwrap(), batch);
        for (q, &want) in qs.iter().zip(&batch) {
            // Online cached dot vs online uncached dot: bitwise.
            let got = engine.answer(q).unwrap();
            assert_eq!(got.to_bits(), core.answer_uncached(q).unwrap().to_bits());
            // Online dot vs plan execution: one walk, bitwise.
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(engine.total(), core.total());
        assert_eq!(
            engine.selectivity(&qs[0], 0).unwrap_err(),
            QueryError::ZeroPopulation
        );
    }

    #[test]
    fn annotated_answers_match_the_uncached_core() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let qs = medical_queries(&fm);
        let plan = engine.plan(&qs).unwrap();
        let annotated_plan = engine.answer_plan_with_error(&plan).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let via_engine = engine.answer_with_error(q).unwrap();
            let via_core = engine.core().answer_with_error_uncached(q).unwrap();
            // Shared core, shared arithmetic: bit-identical annotations.
            assert_eq!(via_engine.value.to_bits(), via_core.value.to_bits());
            assert_eq!(via_engine.std_dev.to_bits(), via_core.std_dev.to_bits());
            // Plan vs online: bitwise, value and std-dev.
            assert_eq!(
                annotated_plan[i].value.to_bits(),
                via_engine.value.to_bits()
            );
            assert_eq!(
                annotated_plan[i].std_dev.to_bits(),
                via_engine.std_dev.to_bits()
            );
        }
        // The annotations cost cache lookups only — one per (query, dim),
        // exactly like plain answering.
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, (qs.len() * 2) as u64);
    }

    #[test]
    fn online_cache_amortizes_repeated_predicates() {
        let (fm, out) = medical_release(19);
        let core = Arc::new(ReleaseCore::from_output(&out).unwrap());
        let ans = ConcurrentEngine::new(Arc::clone(&core));
        assert_eq!(ans.cache_stats().hits, 0);
        let q = &medical_queries(&fm)[1];
        let first = ans.answer(q).unwrap();
        let after_first = ans.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 2, "both dims derived once");
        // Same predicates again: served entirely from the cache, same
        // answer bit for bit.
        assert_eq!(ans.answer(q).unwrap(), first);
        let after_second = ans.cache_stats();
        assert_eq!(after_second.hits, 2);
        assert_eq!(after_second.misses, 2);
        // A second engine over the same core starts with a cold cache
        // of its own and answers identically.
        let cold = ConcurrentEngine::new(core);
        assert_eq!(cold.answer(q).unwrap().to_bits(), first.to_bits());
        assert_eq!(cold.cache_stats().hits, 0);
    }

    #[test]
    fn answer_with_error_rides_the_cache_for_free() {
        let (fm, out) = medical_release(41);
        let ans = ConcurrentEngine::from_output(&out).unwrap();
        let queries = medical_queries(&fm);

        // Warm the cache with the plain answers.
        let plain: Vec<f64> = queries.iter().map(|q| ans.answer(q).unwrap()).collect();
        let warm = ans.cache_stats();

        for (q, &v) in queries.iter().zip(&plain) {
            let annotated = ans.answer_with_error(q).unwrap();
            // Same cached supports, same dot: bit-identical value.
            assert_eq!(annotated.value, v);
            assert!(annotated.std_dev > 0.0);
            // Never louder than the analytic worst case.
            assert!(annotated.variance() <= out.meta.variance_bound * (1.0 + 1e-9));
        }
        let after = ans.cache_stats();
        // Error accounting derived nothing: every lookup hit.
        assert_eq!(after.misses, warm.misses);
        assert_eq!(
            after.hits - warm.hits,
            (queries.len() * fm.schema().arity()) as u64
        );

        // The plan path annotates from compile-time factors and agrees.
        let plan = ans.plan(&queries).unwrap();
        let annotated_batch = ans.answer_plan_with_error(&plan).unwrap();
        for (q, a) in queries.iter().zip(&annotated_batch) {
            let online = ans.answer_with_error(q).unwrap();
            // Plan vs online: bitwise, value and std-dev.
            assert_eq!(a.value.to_bits(), online.value.to_bits());
            assert_eq!(a.std_dev.to_bits(), online.std_dev.to_bits());
        }
    }

    #[test]
    fn exact_releases_refuse_error_annotation() {
        // Built from bare coefficients: no λ, no error model.
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let ans = exact_engine(&fm);
        assert_eq!(
            ans.answer_with_error(&RangeQuery::all(2)).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );
    }

    #[test]
    fn answer_with_support_matches_separate_calls() {
        let (fm, out) = medical_release(13);
        let ans = ConcurrentEngine::from_output(&out).unwrap();
        for q in medical_queries(&fm) {
            let (value, support) = ans.answer_with_support(&q).unwrap();
            assert_eq!(value, ans.answer(&q).unwrap());
            let uncached = ans.core().supports_uncached(&q).unwrap();
            assert_eq!(support, uncached.iter().map(|s| s.len()).product());
            assert!(support >= 1);
        }
    }

    #[test]
    fn support_size_is_logarithmic_for_haar() {
        use privelet_data::schema::{Attribute, Schema};
        let schema = Schema::new(vec![Attribute::ordinal("v", 1 << 12)]).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let coeffs = NdMatrix::zeros(&hn.output_dims()).unwrap();
        let ans = ConcurrentEngine::new(Arc::new(ReleaseCore::new(schema, hn, &coeffs).unwrap()));
        let q = RangeQuery::new(vec![Predicate::Range { lo: 37, hi: 3901 }]);
        let support = ans.answer_with_support(&q).unwrap().1;
        assert!(support <= 2 * 12 + 1, "support {support}");
        // The prefix path would have scanned 2^12 cells to build first.
        assert!(support < 1 << 12);
    }

    #[test]
    fn rejects_mismatched_metadata_and_bad_queries() {
        let (fm, out) = medical_release(9);
        // Coefficient matrix with the wrong dims.
        let wrong = NdMatrix::zeros(&[4, 3]).unwrap();
        assert_eq!(
            ReleaseCore::new(fm.schema().clone(), out.transform.clone(), &wrong).unwrap_err(),
            QueryError::ShapeMismatch
        );
        // Transform not matching the schema.
        use privelet_data::schema::{Attribute, Schema};
        let other = Schema::new(vec![Attribute::ordinal("x", 3)]).unwrap();
        let other_hn = HnTransform::for_schema(&other, &BTreeSet::new()).unwrap();
        assert_eq!(
            ReleaseCore::new(fm.schema().clone(), other_hn, &out.coefficients).unwrap_err(),
            QueryError::ShapeMismatch
        );
        // Query errors propagate.
        let ans = ConcurrentEngine::from_output(&out).unwrap();
        let bad = RangeQuery::new(vec![Predicate::Range { lo: 9, hi: 9 }, Predicate::All]);
        assert!(ans.answer(&bad).is_err());
        assert!(ans.answer_all(&[bad]).is_err());
    }

    #[test]
    fn rejects_nominal_transform_over_a_different_hierarchy() {
        use privelet::transform::{DimTransform, NominalTransform};
        use privelet_data::schema::{Attribute, Schema};
        use privelet_hierarchy::Spec;

        // Schema hierarchy: 6 leaves in two groups of 3 (9 nodes).
        let schema_h = privelet_hierarchy::builder::three_level(6, 2).unwrap();
        let schema = Schema::new(vec![Attribute::nominal("n", schema_h)]).unwrap();
        // Transform hierarchy: same 6 leaves and 9 nodes, grouped (2, 4).
        let other_h = Arc::new(
            Spec::internal(
                "r",
                vec![
                    Spec::internal("g1", vec![Spec::leaf("a"), Spec::leaf("b")]),
                    Spec::internal(
                        "g2",
                        vec![
                            Spec::leaf("c"),
                            Spec::leaf("d"),
                            Spec::leaf("e"),
                            Spec::leaf("f"),
                        ],
                    ),
                ],
            )
            .build()
            .unwrap(),
        );
        let hn =
            HnTransform::new(vec![DimTransform::Nominal(NominalTransform::new(other_h))]).unwrap();
        // Dims line up (6 in, 9 out) — only the structural check can
        // reject this.
        assert_eq!(hn.input_dims(), schema.dims());
        let coeffs = NdMatrix::zeros(&hn.output_dims()).unwrap();
        assert_eq!(
            ReleaseCore::new(schema, hn, &coeffs).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    #[test]
    fn refinement_at_build_matters_for_nominal_dims() {
        // Without the build-time refinement, nominal noisy coefficients
        // would disagree with the inverse_refined matrix; the engine's
        // construction must absorb it.
        let (fm, out) = medical_release(77);
        let t = &out.transform.transforms()[1];
        assert!(t.has_refinement(), "dim 1 is nominal");
        let ans = ConcurrentEngine::from_output(&out).unwrap();
        let rec = out.to_matrix().unwrap();
        let dense = Answerer::new(rec.schema().clone(), rec.matrix()).unwrap();
        let h = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
        let q = RangeQuery::new(vec![
            Predicate::All,
            Predicate::Node {
                node: h.leaf_node(0),
            },
        ]);
        let a = ans.answer(&q).unwrap();
        let b = dense.answer(&q).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn shared_plan_executes_identically_from_clones() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::from_output(&out).unwrap();
        let queries = medical_queries(&fm);
        let plan = engine.plan(&queries).unwrap();
        let want = engine.answer_plan(&plan).unwrap();
        let clone = engine.clone();
        assert_eq!(clone.answer_plan(&plan).unwrap(), want);
        // Clones share the cache, so online traffic on the clone shows
        // up in the original's counters.
        clone.answer(&queries[1]).unwrap();
        assert!(engine.cache_stats().misses > 0);
    }

    #[test]
    fn cache_counters_conserve_lookups() {
        let (fm, out) = medical_release(37);
        let engine = ConcurrentEngine::new(Arc::new(ReleaseCore::from_output(&out).unwrap()));
        assert_eq!(engine.core().storage().len(), out.coefficient_count());
        let qs = medical_queries(&fm);
        for q in &qs {
            engine.answer(q).unwrap();
        }
        let stats = engine.cache_stats();
        // The last query repeats query 2: both dims hit; counters conserve.
        assert!(stats.hits >= 2);
        assert_eq!(stats.hits + stats.misses, (qs.len() * 2) as u64);
        assert_eq!(stats.len as u64, stats.misses, "nothing evicted");
    }
}
