//! The immutable core of a coefficient-domain release: everything a
//! serving thread needs to answer queries, and nothing that mutates.
//!
//! [`ReleaseCore`] holds the schema, the transform and the
//! **answer-ready storage** of one published release: the noisy
//! coefficients with each axis mapped into the domain its queries read
//! ([`HnTransform::build_storage`]). Haar axes keep their coefficients
//! (O(log m) reads per range); identity axes hold inclusive prefix sums
//! (at most 2 reads); nominal axes hold per-node subtree sums of the
//! §V-B-refined coefficients (1 read per maximal covered subtree, so 1
//! for a `Node` predicate or `All`). Construction performs the one-time
//! work (metadata validation, the storage build, the total-count query);
//! after that every method takes `&self` and touches only immutable
//! state, so the core is `Send + Sync` by construction and is meant to
//! live inside an [`Arc`] shared across serving threads.
//!
//! Storage is a pure function of the coefficients and the transform, so
//! a support derived for one epoch is valid for every epoch of the same
//! transform. The storage is the only copy: it replaces the coefficient
//! matrix rather than sitting next to it, and plans execute against it
//! only through [`ReleaseCore::execute_plan`].
//!
//! The serving engine layers on top: [`ConcurrentEngine`] pairs one
//! `Arc`'d core with a hash-sharded support cache. Its answers are
//! bit-identical to this core's uncached paths
//! ([`answer_uncached`](ReleaseCore::answer_uncached),
//! [`answer_with_error_uncached`](ReleaseCore::answer_with_error_uncached),
//! [`execute_plan`](ReleaseCore::execute_plan)), and online answers are
//! bit-identical to plan answers: support derivation (`cache::derive`)
//! and the sparse tensor-product dot (`kernel::tensor_dot`) each exist
//! once, are pure, and are shared by every path.
//!
//! [`ConcurrentEngine`]: crate::ConcurrentEngine

use crate::annotated::AnnotatedAnswer;
use crate::cache::{self, SharedSupport};
use crate::plan::QueryPlan;
use crate::range_query::RangeQuery;
use crate::{QueryError, Result};
use privelet::mechanism::CoefficientOutput;
use privelet::transform::HnTransform;
use privelet::PrivacyMeta;
use privelet_data::schema::Schema;
use privelet_matrix::NdMatrix;
use std::sync::Arc;

/// The immutable, shareable core of one coefficient-domain release:
/// schema + transform + answer-ready storage (+ cached strides, the
/// noisy total, and the release's [`PrivacyMeta`] when it came from a
/// publisher). See the [module docs](self) for the storage layout and
/// how the serving engine layers on top.
#[derive(Debug, Clone)]
pub struct ReleaseCore {
    schema: Schema,
    transform: HnTransform,
    /// The answer-ready storage ([`HnTransform::build_storage`]), so
    /// every answer is a sparse dot of a few reads per dimension.
    storage: NdMatrix,
    /// Row-major strides of `storage`, cached for support derivation.
    strides: Vec<usize>,
    /// The (noisy) total count — the unconstrained query's answer,
    /// computed once at construction.
    total: f64,
    /// The privacy accounting of the release, when known — `λ` is what
    /// error accounting needs (`Var = 2λ²·∏ᵢ factorᵢ`). `None` for cores
    /// built from bare coefficient matrices (e.g. exact-coefficient test
    /// fixtures), whose noise scale is unknowable; those cores answer
    /// queries but refuse to annotate them.
    meta: Option<PrivacyMeta>,
}

impl ReleaseCore {
    /// Builds the core from a published coefficient matrix and its
    /// metadata, without privacy accounting (error-annotated answering
    /// will return [`QueryError::MissingPrivacyMeta`]; use
    /// [`with_meta`](Self::with_meta) or
    /// [`from_output`](Self::from_output) to carry it). Builds the
    /// answer-ready storage once (O(m'), from exact or noisy
    /// coefficients — never from a storage matrix) and answers the
    /// unconstrained query once for [`total`](Self::total).
    ///
    /// Errors with [`QueryError::ShapeMismatch`] when the schema, the
    /// transform and the coefficient matrix do not describe the same
    /// release (including a nominal transform whose hierarchy differs
    /// structurally from the schema's).
    pub fn new(schema: Schema, transform: HnTransform, noisy: &NdMatrix) -> Result<Self> {
        Self::build(schema, transform, noisy, None)
    }

    /// [`new`](Self::new) carrying the release's privacy accounting, so
    /// every answer can be annotated with its exact noise std-dev.
    pub fn with_meta(
        schema: Schema,
        transform: HnTransform,
        noisy: &NdMatrix,
        meta: PrivacyMeta,
    ) -> Result<Self> {
        Self::build(schema, transform, noisy, Some(meta))
    }

    fn build(
        schema: Schema,
        transform: HnTransform,
        noisy: &NdMatrix,
        meta: Option<PrivacyMeta>,
    ) -> Result<Self> {
        crate::plan::check_release_metadata(&schema, &transform)?;
        if noisy.dims() != transform.output_dims() {
            return Err(QueryError::ShapeMismatch);
        }
        let storage = transform.build_storage(noisy).map_err(QueryError::from)?;
        let strides = storage.shape().strides().to_vec();
        let mut core = ReleaseCore {
            schema,
            transform,
            storage,
            strides,
            total: 0.0,
            meta,
        };
        core.total = core.answer_uncached(&RangeQuery::all(core.schema.arity()))?;
        Ok(core)
    }

    /// Builds the core straight from a [`publish_coefficients`] release,
    /// carrying its [`PrivacyMeta`].
    ///
    /// [`publish_coefficients`]: privelet::mechanism::publish_coefficients
    pub fn from_output(out: &CoefficientOutput) -> Result<Self> {
        let (schema, transform, coefficients) = out.release_parts();
        Self::with_meta(schema.clone(), transform.clone(), coefficients, out.meta)
    }

    /// Rolls this core to a new epoch of the *same* release series: a
    /// fresh [`CoefficientOutput`] (e.g. from
    /// `IncrementalRelease::advance_epoch` in `privelet`) published under
    /// this core's transform, rebuilt (storage + total) into a new
    /// immutable core.
    ///
    /// The lineage rule is "same transform": errors with
    /// [`QueryError::ShapeMismatch`] unless `out.transform` equals this
    /// core's transform. Shape alone is not enough — on a power-of-two
    /// ordinal axis Privelet⁺'s identity transform has the same
    /// coefficient shape as Haar, yet reads different coefficients. The
    /// rebuild re-validates the coefficient dims. Serving tiers advance
    /// by swapping the returned core in; the old core stays valid for
    /// threads still holding it (epoch advance is never destructive to
    /// in-flight reads).
    ///
    /// Cache note: per-dimension supports are pure functions of
    /// `(dim, lo, hi)` and the transform (the storage layout is too),
    /// and the transform is pinned by the lineage rule — so support
    /// caches and compiled plans **survive** an epoch advance untouched.
    /// Only this core's storage and noisy total roll.
    pub fn advance_epoch(&self, out: &CoefficientOutput) -> Result<Self> {
        if out.transform != self.transform {
            return Err(QueryError::ShapeMismatch);
        }
        Self::with_meta(
            self.schema.clone(),
            out.transform.clone(),
            &out.coefficients,
            out.meta,
        )
    }

    /// The schema queries are validated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The transform the release was published under.
    pub fn transform(&self) -> &HnTransform {
        &self.transform
    }

    /// The answer-ready storage answers are dotted against: the
    /// coefficient matrix's shape, each axis in its storage domain —
    /// coefficients on Haar axes, inclusive prefix sums on identity axes,
    /// level-order subtree sums of the refined coefficients on nominal
    /// axes (see the [module docs](self)). It is not a coefficient
    /// matrix: inverting it reconstructs nothing.
    pub fn storage(&self) -> &NdMatrix {
        &self.storage
    }

    /// The (noisy) total count — the unconstrained query's answer.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The release's privacy accounting, when it carries one.
    pub fn meta(&self) -> Option<&PrivacyMeta> {
        self.meta.as_ref()
    }

    /// Derives one dimension's sparse support, uncached: the
    /// stride-premultiplied storage offsets and weights of the
    /// interval-sum functional over `[lo, hi]` on dimension `dim`, plus
    /// the per-dimension variance factor (folded over the transform's
    /// coefficient support at derivation time, so cached supports carry
    /// their error accounting for free). This is the derivation every
    /// cache memoizes and every plan interns; it is pure, so two threads
    /// deriving the same triple produce identical supports.
    pub fn derive_support(&self, dim: usize, lo: usize, hi: usize) -> Result<SharedSupport> {
        cache::derive(&self.transform, &self.strides, dim, lo, hi).map(Arc::new)
    }

    /// Resolves a query to its per-dimension bounds and derives every
    /// support uncached — the cache-free answering path, and the
    /// reference the cached engine must equal bitwise.
    pub fn supports_uncached(&self, q: &RangeQuery) -> Result<Vec<SharedSupport>> {
        let (lo, hi) = q.bounds(&self.schema)?;
        (0..self.schema.arity())
            .map(|dim| self.derive_support(dim, lo[dim], hi[dim]))
            .collect()
    }

    /// Answers one query with no cache involved: derive supports, sparse
    /// dot. The cached paths reuse [`dot`](Self::dot), so they equal this
    /// bit for bit.
    pub fn answer_uncached(&self, q: &RangeQuery) -> Result<f64> {
        Ok(self.dot(&self.supports_uncached(q)?))
    }

    /// [`answer_uncached`](Self::answer_uncached) with error accounting:
    /// the same derive-supports-then-dot, annotated via
    /// [`annotate`](Self::annotate).
    pub fn answer_with_error_uncached(&self, q: &RangeQuery) -> Result<AnnotatedAnswer> {
        let supports = self.supports_uncached(q)?;
        self.annotate(self.dot(&supports), &supports)
    }

    /// The sparse tensor-product dot of already-derived per-dimension
    /// supports against the storage: `Σ ∏ᵢ wᵢ[kᵢ] · S[k₁,…,k_d]`,
    /// reading `∏ᵢ |supportᵢ|` stored values. The same walk plan
    /// execution runs (`kernel::tensor_dot`).
    pub fn dot(&self, supports: &[SharedSupport]) -> f64 {
        crate::kernel::tensor_dot(self.storage.as_slice(), supports.len(), &|d| {
            (&supports[d].offsets[..], &supports[d].weights[..])
        })
    }

    /// Annotates an already-computed answer with its exact noise std-dev,
    /// read off the supports' precomputed per-dimension variance factors:
    /// `Var = 2λ²·∏ᵢ factorᵢ` (see `privelet::variance`). Pure arithmetic
    /// over d floats — no derivation, no coefficient reads.
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when the core was
    /// built without accounting ([`new`](Self::new)).
    pub fn annotate(&self, value: f64, supports: &[SharedSupport]) -> Result<AnnotatedAnswer> {
        let meta = self.meta.as_ref().ok_or(QueryError::MissingPrivacyMeta)?;
        let product: f64 = supports.iter().map(|s| s.variance_factor).product();
        Ok(AnnotatedAnswer {
            value,
            std_dev: meta.query_variance(product).sqrt(),
        })
    }

    /// Compiles a workload against this release's schema and transform.
    /// The returned plan is immutable and `Send + Sync`; it stays valid
    /// for the core's lifetime, so one compiled plan can be executed from
    /// many threads against one shared core.
    pub fn plan(&self, queries: &[RangeQuery]) -> Result<QueryPlan> {
        QueryPlan::compile(&self.schema, &self.transform, queries)
    }

    /// Executes a compiled plan against the storage — the one way to
    /// run a plan. Takes `&self` and allocates only the output vector,
    /// so any number of threads can execute the same plan against the
    /// same core concurrently.
    ///
    /// Errors with [`QueryError::ShapeMismatch`] when the plan was
    /// compiled under another transform (and so for other storage, even
    /// at the same shape).
    pub fn execute_plan(&self, plan: &QueryPlan) -> Result<Vec<f64>> {
        plan.execute(&self.transform, &self.storage)
    }

    /// [`execute_plan`](Self::execute_plan) with error accounting: one
    /// [`AnnotatedAnswer`] per compiled query. The variance factors were
    /// interned into the plan at compile time (one per distinct
    /// `(dim, lo, hi)` support), so annotation performs **zero**
    /// additional support derivations — it is the same sparse dots plus
    /// one multiply-and-sqrt per distinct query.
    ///
    /// Errors with [`QueryError::MissingPrivacyMeta`] when the core was
    /// built without accounting.
    pub fn execute_plan_with_error(&self, plan: &QueryPlan) -> Result<Vec<AnnotatedAnswer>> {
        let meta = self.meta.as_ref().ok_or(QueryError::MissingPrivacyMeta)?;
        plan.execute_annotated(&self.transform, &self.storage, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privelet::mechanism::{publish_coefficients, PriveletConfig};
    use privelet_data::medical::medical_example;
    use privelet_data::FrequencyMatrix;

    fn medical_core() -> ReleaseCore {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 23)).unwrap();
        ReleaseCore::from_output(&out).unwrap()
    }

    #[test]
    fn core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReleaseCore>();
        assert_send_sync::<Arc<ReleaseCore>>();
    }

    #[test]
    fn uncached_path_matches_plan_execution() {
        let core = medical_core();
        let queries = vec![RangeQuery::all(2)];
        let plan = core.plan(&queries).unwrap();
        let batch = core.execute_plan(&plan).unwrap();
        // Plan and uncached online dot run the same walk: bitwise.
        let online = core.answer_uncached(&queries[0]).unwrap();
        assert_eq!(batch[0].to_bits(), online.to_bits());
        assert_eq!(batch[0].to_bits(), core.total().to_bits());
    }

    #[test]
    fn rejects_mismatched_release_metadata() {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 7)).unwrap();
        let wrong = NdMatrix::zeros(&[4, 3]).unwrap();
        assert_eq!(
            ReleaseCore::new(out.schema.clone(), out.transform.clone(), &wrong).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    #[test]
    fn advance_epoch_refuses_a_different_transform_of_the_same_shape() {
        use crate::predicate::Predicate;
        use crate::ConcurrentEngine;
        use privelet_data::schema::Attribute;
        use std::collections::BTreeSet;

        // One power-of-two ordinal axis: Haar and Privelet⁺'s identity
        // transform both emit 8 coefficients, so only the transform
        // itself tells the two releases apart.
        let schema = Schema::new(vec![Attribute::ordinal("v", 8)]).unwrap();
        let cells = vec![5.0, 10.0, 3.0, 7.0, 8.0, 2.0, 9.0, 6.0];
        let matrix = NdMatrix::from_vec(&[8], cells).unwrap();
        let fm = FrequencyMatrix::from_parts(schema, matrix).unwrap();
        let haar = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 3)).unwrap();
        let sa = BTreeSet::from([0]);
        let identity = publish_coefficients(&fm, &PriveletConfig::plus(1.0, sa, 4)).unwrap();
        assert_eq!(haar.coefficients.dims(), identity.coefficients.dims());
        assert_ne!(haar.transform, identity.transform);

        let core = ReleaseCore::from_output(&haar).unwrap();
        assert_eq!(
            core.advance_epoch(&identity).unwrap_err(),
            QueryError::ShapeMismatch
        );

        let engine = ConcurrentEngine::from_output(&haar).unwrap();
        let queries: Vec<RangeQuery> = (0..8)
            .flat_map(|lo| {
                (lo..8).map(move |hi| RangeQuery::new(vec![Predicate::Range { lo, hi }]))
            })
            .collect();
        let answer_bits = |e: &ConcurrentEngine| -> Vec<u64> {
            queries
                .iter()
                .map(|q| e.answer(q).unwrap().to_bits())
                .collect()
        };
        let before = answer_bits(&engine);
        assert_eq!(
            engine.advance_epoch(&identity).unwrap_err(),
            QueryError::ShapeMismatch
        );
        assert_eq!(answer_bits(&engine), before);

        // A later epoch under the same transform still advances, keeps the
        // warm cache, and answers like a cold engine on that epoch.
        let next = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
        let advanced = engine.advance_epoch(&next).unwrap();
        let cold = ConcurrentEngine::from_output(&next).unwrap();
        assert_eq!(answer_bits(&advanced), answer_bits(&cold));
        assert_eq!(advanced.cache_stats().misses, queries.len() as u64);
    }

    #[test]
    fn meta_gates_error_accounting() {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 5)).unwrap();
        let q = RangeQuery::all(2);

        // A bare core answers but refuses to annotate.
        let bare =
            ReleaseCore::new(out.schema.clone(), out.transform.clone(), &out.coefficients).unwrap();
        assert!(bare.meta().is_none());
        assert_eq!(
            bare.answer_with_error_uncached(&q).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );
        let plan = bare.plan(std::slice::from_ref(&q)).unwrap();
        assert_eq!(
            bare.execute_plan_with_error(&plan).unwrap_err(),
            QueryError::MissingPrivacyMeta
        );

        // The publisher-built core annotates; the value is the identical
        // dot and the std-dev matches the variance module.
        let core = ReleaseCore::from_output(&out).unwrap();
        assert_eq!(core.meta(), Some(&out.meta));
        let annotated = core.answer_with_error_uncached(&q).unwrap();
        assert_eq!(annotated.value, core.answer_uncached(&q).unwrap());
        let want = privelet::variance::exact_query_variance(
            core.transform(),
            out.meta.lambda,
            &[0, 0],
            &[4, 1],
        )
        .unwrap();
        assert!((annotated.variance() - want).abs() <= 1e-9 * want);
        // Plan-path annotation equals the uncached path bitwise: same
        // derivation, same walk, same variance factors.
        let batch = core.execute_plan_with_error(&plan).unwrap();
        assert_eq!(batch[0].value.to_bits(), annotated.value.to_bits());
        assert_eq!(batch[0].std_dev.to_bits(), annotated.std_dev.to_bits());
    }
}
