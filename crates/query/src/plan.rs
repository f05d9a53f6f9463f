//! Compiled batch plans: intern supports once, answer as sparse dots
//! over one contiguous arena.
//!
//! A plan holds storage-domain supports (see
//! [`ReleaseCore`](crate::ReleaseCore)): at most 2 entries per identity
//! dimension, one per maximal covered subtree on a nominal dimension,
//! O(log m) on a Haar dimension. It is compiled from the schema and the
//! transform alone, so one plan serves every epoch of a release series,
//! and it runs only through
//! [`ReleaseCore::execute_plan`](crate::ReleaseCore::execute_plan) — the
//! supports mean nothing against a plain coefficient matrix.
//!
//! `answer`ing a workload query by query re-derives each dimension's
//! sparse support even when a thousand-query OLAP batch repeats the same
//! predicate intervals. [`QueryPlan::compile`] walks the batch once and
//! interns at two levels: repeated **whole queries** (a dashboard
//! refreshed every tick) collapse onto one term list and one sparse dot
//! per execution, and across distinct queries each distinct
//! `(dim, lo, hi)` support is derived exactly once into a shared pool —
//! by the same derivation the online path caches, so the pool holds the
//! same stride-premultiplied offsets and weights as a
//! [`DimSupport`](crate::DimSupport), concatenated into one contiguous
//! arena of two parallel arrays. Executing the plan runs the online
//! path's sparse tensor-product walk once per distinct query, reading
//! each depth's support from its arena span — no per-query allocation,
//! hashing, or bounds re-validation, and answers bitwise equal to
//! [`ReleaseCore::dot`](crate::ReleaseCore::dot) on the same supports.
//!
//! The plan is also the dedup ledger: [`support_requests`] counts the
//! `(query, dim)` pairs the batch asked for, [`distinct_supports`] the
//! derivations actually performed, and [`dedup_ratio`] the fraction
//! avoided. The acceptance contract — at most one derivation per
//! distinct triple — is asserted against these counters in
//! `tests/serving_engine.rs`.
//!
//! [`support_requests`]: QueryPlan::support_requests
//! [`distinct_supports`]: QueryPlan::distinct_supports
//! [`dedup_ratio`]: QueryPlan::dedup_ratio

use crate::annotated::AnnotatedAnswer;
use crate::cache;
use crate::range_query::RangeQuery;
use crate::{QueryError, Result};
use privelet::transform::{DimTransform, HnTransform};
use privelet::PrivacyMeta;
use privelet_data::schema::{Domain, Schema};
use privelet_matrix::{NdMatrix, Shape};
use std::collections::HashMap;

/// Validates that `transform` and `schema` describe the same release:
/// matching dimension sizes, and structurally equal hierarchies on
/// nominal axes. Dimension sizes alone would let a nominal transform
/// built over a *different* hierarchy with the same leaf count slip
/// through; node predicates would then resolve through the schema's
/// hierarchy while weights come from the transform's, silently producing
/// wrong answers. (Haar/identity transforms carry no structure beyond
/// their lengths — Haar over a nominal attribute's imposed leaf order is
/// a legitimate §V-D ablation pairing.)
pub(crate) fn check_release_metadata(schema: &Schema, transform: &HnTransform) -> Result<()> {
    if transform.input_dims() != schema.dims() {
        return Err(QueryError::ShapeMismatch);
    }
    for (attr, dim) in schema.attrs().iter().zip(transform.transforms()) {
        if let DimTransform::Nominal(t) = dim {
            match attr.domain() {
                Domain::Nominal { hierarchy } if hierarchy.as_ref() == t.hierarchy().as_ref() => {}
                _ => return Err(QueryError::ShapeMismatch),
            }
        }
    }
    Ok(())
}

/// A batch of range-count queries compiled against one release's schema
/// and transform, ready to execute against the storage of any release
/// core built under that transform.
///
/// Interning happens at two levels: repeated *whole queries* share one
/// term list and are evaluated once per execution (their answer fans
/// out), and distinct queries that repeat a per-dimension predicate
/// share the interned support.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The per-axis transforms the plan was compiled for: its supports
    /// index their storage, so execution refuses any other release —
    /// shape alone would let a Haar plan read a Privelet⁺ identity
    /// release of the same shape.
    transforms: Vec<DimTransform>,
    /// Arena of pooled supports: every support's stride-premultiplied
    /// offsets, concatenated exactly as derived ([`DimSupport::offsets`]).
    ///
    /// [`DimSupport::offsets`]: crate::DimSupport::offsets
    offsets: Vec<usize>,
    /// The matching weights ([`DimSupport::weights`]), parallel to
    /// `offsets`.
    ///
    /// [`DimSupport::weights`]: crate::DimSupport::weights
    weights: Vec<f64>,
    /// Per pool entry: `(start, len)` of its slice of the arena.
    spans: Vec<(usize, usize)>,
    /// Per pool entry: the per-dimension variance factor
    /// `Σ_j u(j)²/W(j)²` of that support, folded once at compile time
    /// (one extra f64 per distinct `(dim, lo, hi)` — this is what makes
    /// error-annotated execution derivation-free).
    span_factors: Vec<f64>,
    /// Fixed-width term lists: `ndim` pool ids per **distinct** query.
    terms: Vec<u32>,
    /// Per input query: the distinct-query id it resolves to.
    query_ids: Vec<u32>,
    /// Execution order over distinct queries, sorted by the deepest
    /// (largest) arena offset of each query's leading span. Supports are
    /// root-to-leaf coefficient paths whose shallow entries cluster near
    /// the front of the coefficient slice; the deepest entry is the most
    /// dispersed address, so walking distinct queries in this order
    /// makes consecutive dots gather from neighbouring cache lines.
    /// Results are stored by distinct-query id, so the order changes no
    /// float — it is pure memory locality.
    exec_order: Vec<u32>,
    ndim: usize,
    /// Storage reads per distinct query (`∏ᵢ |supportᵢ|`), for the
    /// cost accounting below.
    distinct_reads: Vec<usize>,
    /// Per distinct query: the product of its dimensions' variance
    /// factors, so `Var = 2λ²·product` needs no walk at execution time.
    distinct_factors: Vec<f64>,
    /// Sum over **all** input queries of their read cost (the per-query
    /// cost model, before whole-query dedup).
    support_sum: usize,
}

impl QueryPlan {
    /// Compiles a batch: validates every query against `schema`, derives
    /// each distinct `(dim, lo, hi)` support exactly once (the
    /// derivation behind [`ReleaseCore::derive_support`]), and flattens
    /// the batch into pool references.
    ///
    /// [`ReleaseCore::derive_support`]: crate::ReleaseCore::derive_support
    ///
    /// Errors if `transform` does not fit `schema`
    /// ([`QueryError::ShapeMismatch`], including a nominal transform
    /// whose hierarchy differs structurally from the schema's) or any
    /// query fails validation (the per-query error, naming the
    /// offending attribute and bounds).
    pub fn compile(
        schema: &Schema,
        transform: &HnTransform,
        queries: &[RangeQuery],
    ) -> Result<QueryPlan> {
        check_release_metadata(schema, transform)?;
        let ndim = schema.arity();
        let strides = Shape::new(&transform.output_dims())
            .map_err(|_| QueryError::ShapeMismatch)?
            .strides()
            .to_vec();

        let mut pool: HashMap<(usize, usize, usize), u32> = HashMap::new();
        let mut query_pool: HashMap<&RangeQuery, u32> = HashMap::new();
        let mut offsets = Vec::new();
        let mut weights = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        let mut span_factors: Vec<f64> = Vec::new();
        let mut terms = Vec::new();
        let mut query_ids = Vec::with_capacity(queries.len());
        let mut distinct_reads: Vec<usize> = Vec::new();
        let mut distinct_factors: Vec<f64> = Vec::new();
        let mut support_sum = 0usize;

        for q in queries {
            // First interning level: a repeated whole query maps to the
            // already-compiled term list without touching bounds again.
            if let Some(&qid) = query_pool.get(q) {
                query_ids.push(qid);
                support_sum += distinct_reads[qid as usize];
                continue;
            }
            let (lo, hi) = q.bounds(schema)?;
            let mut reads = 1usize;
            let mut factor_product = 1.0f64;
            for dim in 0..ndim {
                // Second interning level: a repeated per-dimension
                // predicate reuses the pooled support across queries.
                let key = (dim, lo[dim], hi[dim]);
                let id = match pool.get(&key) {
                    Some(&id) => id,
                    None => {
                        let support = cache::derive(transform, &strides, dim, lo[dim], hi[dim])?;
                        let id = spans.len() as u32;
                        spans.push((offsets.len(), support.len()));
                        span_factors.push(support.variance_factor);
                        offsets.extend_from_slice(&support.offsets);
                        weights.extend_from_slice(&support.weights);
                        pool.insert(key, id);
                        id
                    }
                };
                reads *= spans[id as usize].1;
                factor_product *= span_factors[id as usize];
                terms.push(id);
            }
            let qid = distinct_reads.len() as u32;
            distinct_reads.push(reads);
            distinct_factors.push(factor_product);
            support_sum += reads;
            query_pool.insert(q, qid);
            query_ids.push(qid);
        }

        // Locality schedule: run distinct queries in order of their
        // leading span's arena position, tie-broken by id for
        // determinism. The arena is the largest structure an execution
        // streams, so the schedule must keep its walk forward-sequential
        // — span-start order does, and it additionally groups queries
        // that share a leading support so their deep coefficient lines
        // are still hot when the next dot gathers them. (Sorting by *coefficient* address instead was
        // measured to lose ~20%: it randomizes the arena walk, which
        // costs more than the gather locality it buys.) Answers land in
        // a by-id scratch vector, so this permutes only the memory
        // access pattern, never any summation.
        let mut exec_order: Vec<u32> = (0..distinct_reads.len() as u32).collect();
        exec_order.sort_by_key(|&qid| (spans[terms[qid as usize * ndim] as usize].0, qid));

        Ok(QueryPlan {
            transforms: transform.transforms().to_vec(),
            offsets,
            weights,
            spans,
            span_factors,
            terms,
            query_ids,
            exec_order,
            ndim,
            distinct_reads,
            distinct_factors,
            support_sum,
        })
    }

    /// Executes the plan against the answer-ready storage a release
    /// core built under `transform`
    /// ([`ReleaseCore::execute_plan`](crate::ReleaseCore::execute_plan)),
    /// returning one answer per compiled query. Each **distinct**
    /// query's sparse dot runs once; repeated queries fan the memoized
    /// answer out in input order. Allocates the returned vector and one
    /// `O(distinct queries)` scratch vector.
    ///
    /// Errors with [`QueryError::ShapeMismatch`] unless `transform` is
    /// the one the plan was compiled for.
    pub(crate) fn execute(&self, transform: &HnTransform, storage: &NdMatrix) -> Result<Vec<f64>> {
        if transform.transforms() != self.transforms.as_slice() {
            return Err(QueryError::ShapeMismatch);
        }
        debug_assert_eq!(storage.dims(), transform.output_dims());
        let data = storage.as_slice();
        // Distinct dots run in the locality schedule computed at compile
        // time and land by id, so the fan-out below (and every float)
        // is independent of the schedule.
        let mut distinct = vec![0.0f64; self.distinct_reads.len()];
        for &qid in &self.exec_order {
            let q = qid as usize;
            let term = &self.terms[q * self.ndim..(q + 1) * self.ndim];
            distinct[q] = crate::kernel::tensor_dot(data, self.ndim, &|d| {
                let (start, len) = self.spans[term[d] as usize];
                let span = start..start + len;
                (&self.offsets[span.clone()], &self.weights[span])
            });
        }
        Ok(self
            .query_ids
            .iter()
            .map(|&qid| distinct[qid as usize])
            .collect())
    }

    /// [`execute`](Self::execute) with error accounting: one
    /// [`AnnotatedAnswer`] per compiled query, its std-dev read off the
    /// variance factors interned at compile time
    /// (`Var = 2λ²·∏ᵢ factorᵢ` with `λ` from `meta`). Performs the same
    /// sparse dots as `execute` (bit-identical values) plus one
    /// multiply-and-sqrt per **distinct** query — zero additional support
    /// derivations, by construction.
    pub(crate) fn execute_annotated(
        &self,
        transform: &HnTransform,
        storage: &NdMatrix,
        meta: &PrivacyMeta,
    ) -> Result<Vec<AnnotatedAnswer>> {
        let values = self.execute(transform, storage)?;
        let distinct_stds: Vec<f64> = self
            .distinct_factors
            .iter()
            .map(|&product| meta.query_variance(product).sqrt())
            .collect();
        Ok(values
            .into_iter()
            .zip(&self.query_ids)
            .map(|(value, &qid)| AnnotatedAnswer {
                value,
                std_dev: distinct_stds[qid as usize],
            })
            .collect())
    }

    /// Number of compiled queries.
    pub fn len(&self) -> usize {
        self.query_ids.len()
    }

    /// Whether the plan holds no queries.
    pub fn is_empty(&self) -> bool {
        self.query_ids.is_empty()
    }

    /// Number of dimensions per query.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Number of **distinct** queries after whole-query interning; each
    /// executes one sparse dot per batch, repeats fan out the result.
    pub fn distinct_queries(&self) -> usize {
        self.distinct_reads.len()
    }

    /// `(query, dim)` support requests the batch made (= `len · ndim`).
    pub fn support_requests(&self) -> usize {
        self.query_ids.len() * self.ndim
    }

    /// Distinct `(dim, lo, hi)` supports actually derived — the pool
    /// size, and by construction the exact number of
    /// `query_weights` derivations compilation performed.
    pub fn distinct_supports(&self) -> usize {
        self.spans.len()
    }

    /// Fraction of support derivations the pool avoided:
    /// `1 − distinct/requests` (0.0 for an empty plan — nothing was
    /// deduplicated because nothing was requested).
    pub fn dedup_ratio(&self) -> f64 {
        let requests = self.support_requests();
        if requests == 0 {
            0.0
        } else {
            1.0 - self.distinct_supports() as f64 / requests as f64
        }
    }

    /// Total storage reads one execution performs: `Σ ∏ᵢ |supportᵢ|`
    /// over the **distinct** queries (repeats reuse the memoized dot).
    pub fn total_reads(&self) -> usize {
        self.distinct_reads.iter().sum()
    }

    /// Mean storage reads per query under the per-query cost model
    /// (`∏ᵢ |supportᵢ|` averaged over **all** input queries, before
    /// whole-query dedup; 0.0 for an empty plan).
    pub fn mean_support(&self) -> f64 {
        if self.query_ids.is_empty() {
            0.0
        } else {
            self.support_sum as f64 / self.query_ids.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::ReleaseCore;
    use privelet_data::medical::medical_example;
    use privelet_data::schema::{Attribute, Schema};
    use privelet_data::FrequencyMatrix;
    use std::collections::BTreeSet;

    fn medical() -> (FrequencyMatrix, HnTransform) {
        let fm = FrequencyMatrix::from_table(&medical_example()).unwrap();
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        (fm, hn)
    }

    fn exact(fm: &FrequencyMatrix, q: &RangeQuery) -> f64 {
        let (lo, hi) = q.bounds(fm.schema()).unwrap();
        privelet_matrix::rect_sum_naive(fm.matrix(), &lo, &hi).unwrap()
    }

    #[test]
    fn interns_each_distinct_triple_once() {
        let (fm, hn) = medical();
        let q1 = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let q2 = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let q3 = RangeQuery::new(vec![Predicate::Range { lo: 1, hi: 4 }, Predicate::All]);
        let plan = QueryPlan::compile(fm.schema(), &hn, &[q1.clone(), q2, q3, q1.clone()]).unwrap();
        assert_eq!(plan.len(), 4);
        // q1, q2 and the trailing q1 are the same query: one term list,
        // one dot per execution.
        assert_eq!(plan.distinct_queries(), 2);
        assert_eq!(plan.support_requests(), 8);
        // Distinct triples: (0,0,2), (0,1,4), (1,0,1) — two age intervals
        // and the shared unconstrained diabetes interval.
        assert_eq!(plan.distinct_supports(), 3);
        assert!((plan.dedup_ratio() - (1.0 - 3.0 / 8.0)).abs() < 1e-12);
        // Execution reads per distinct query; the cost model averages
        // over all of them.
        assert!(plan.total_reads() >= plan.distinct_queries());
        assert!(plan.mean_support() >= 1.0);
    }

    /// A release core over the exact coefficients of `fm`.
    fn exact_core(fm: &FrequencyMatrix, hn: &HnTransform) -> ReleaseCore {
        let coeffs = hn.forward(fm.matrix()).unwrap();
        ReleaseCore::new(fm.schema().clone(), hn.clone(), &coeffs).unwrap()
    }

    /// A release core of another shape than the medical one (one
    /// ordinal axis of 3, padded to 4 coefficients).
    fn other_shaped_core() -> ReleaseCore {
        let other = Schema::new(vec![Attribute::ordinal("x", 3)]).unwrap();
        let other_hn = HnTransform::for_schema(&other, &BTreeSet::new()).unwrap();
        ReleaseCore::new(other, other_hn, &NdMatrix::zeros(&[4]).unwrap()).unwrap()
    }

    #[test]
    fn executes_to_exact_answers() {
        let (fm, hn) = medical();
        let core = exact_core(&fm, &hn);
        let h = fm.schema().attr(1).domain().hierarchy().unwrap().clone();
        let queries = vec![
            RangeQuery::all(2),
            RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]),
            RangeQuery::new(vec![
                Predicate::Range { lo: 1, hi: 4 },
                Predicate::Node {
                    node: h.leaf_node(1),
                },
            ]),
        ];
        let plan = QueryPlan::compile(fm.schema(), &hn, &queries).unwrap();
        let got = core.execute_plan(&plan).unwrap();
        for (q, a) in queries.iter().zip(&got) {
            let want = exact(&fm, q);
            assert!((a - want).abs() < 1e-9, "{a} vs {want}");
        }
    }

    #[test]
    fn annotated_execution_matches_plain_execution_bitwise() {
        use privelet::variance::exact_query_variance;

        let (fm, hn) = medical();
        let coeffs = hn.forward(fm.matrix()).unwrap();
        let meta = PrivacyMeta::for_transform(&hn, 1.0).unwrap();
        let core = ReleaseCore::with_meta(fm.schema().clone(), hn.clone(), &coeffs, meta).unwrap();
        let q1 = RangeQuery::new(vec![Predicate::Range { lo: 0, hi: 2 }, Predicate::All]);
        let queries = vec![RangeQuery::all(2), q1.clone(), q1.clone()];
        let plan = QueryPlan::compile(fm.schema(), &hn, &queries).unwrap();

        let plain = core.execute_plan(&plan).unwrap();
        let annotated = core.execute_plan_with_error(&plan).unwrap();
        assert_eq!(annotated.len(), plain.len());
        for (i, (a, &v)) in annotated.iter().zip(&plain).enumerate() {
            // Identical dots: the annotation never perturbs the value.
            assert_eq!(a.value, v);
            assert!(a.std_dev > 0.0);
            // The interned factors reproduce the variance module.
            let (lo, hi) = queries[i].bounds(fm.schema()).unwrap();
            let want = exact_query_variance(&hn, meta.lambda, &lo, &hi).unwrap();
            assert!(
                (a.std_dev - want.sqrt()).abs() <= 1e-9 * want.sqrt(),
                "query {i}: std-dev {} vs {}",
                a.std_dev,
                want.sqrt()
            );
        }
        // Repeated whole queries share one interned std-dev.
        assert_eq!(annotated[1], annotated[2]);

        // Empty plans annotate to an empty batch.
        let empty = QueryPlan::compile(fm.schema(), &hn, &[]).unwrap();
        assert_eq!(core.execute_plan_with_error(&empty).unwrap(), vec![]);
    }

    #[test]
    fn rejects_nominal_transform_over_a_different_hierarchy() {
        use privelet::transform::NominalTransform;
        use privelet_hierarchy::Spec;
        use std::sync::Arc;

        // Schema hierarchy: 6 leaves in two groups of 3 (9 nodes);
        // transform hierarchy: same leaf and node counts, grouped (2, 4).
        let schema_h = privelet_hierarchy::builder::three_level(6, 2).unwrap();
        let schema = Schema::new(vec![Attribute::nominal("n", schema_h)]).unwrap();
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
        // reject this; without it the plan would silently mix the two
        // hierarchies and return wrong answers.
        assert_eq!(hn.input_dims(), schema.dims());
        assert_eq!(
            QueryPlan::compile(&schema, &hn, &[RangeQuery::all(1)]).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    #[test]
    fn refuses_a_release_of_another_transform_with_the_same_shape() {
        // One power-of-two ordinal axis: Haar and Privelet⁺'s identity
        // both store 8 values, but a Haar support read against identity
        // prefix sums answers something else entirely.
        let schema = Schema::new(vec![Attribute::ordinal("v", 8)]).unwrap();
        let haar = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let identity = HnTransform::for_schema(&schema, &BTreeSet::from([0])).unwrap();
        let coeffs = NdMatrix::from_vec(&[8], (0..8).map(f64::from).collect()).unwrap();
        let core = ReleaseCore::new(schema.clone(), identity, &coeffs).unwrap();
        let q = [RangeQuery::new(vec![Predicate::Range { lo: 2, hi: 5 }])];
        let plan = QueryPlan::compile(&schema, &haar, &q).unwrap();
        assert_eq!(
            core.execute_plan(&plan).unwrap_err(),
            QueryError::ShapeMismatch
        );
        assert_eq!(
            core.execute_plan(&core.plan(&q).unwrap()).unwrap(),
            vec![14.0]
        );
    }

    #[test]
    fn empty_plan_is_well_defined() {
        // Regression: every diagnostic that divides by the query or
        // request count must return a well-defined 0-value on an empty
        // workload instead of NaN/∞ — serving tiers feed these straight
        // into reports.
        let (fm, hn) = medical();
        let core = exact_core(&fm, &hn);
        let plan = QueryPlan::compile(fm.schema(), &hn, &[]).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(core.execute_plan(&plan).unwrap(), Vec::<f64>::new());
        assert_eq!(plan.support_requests(), 0);
        assert_eq!(plan.distinct_supports(), 0);
        assert_eq!(plan.distinct_queries(), 0);
        assert_eq!(plan.total_reads(), 0);
        // The two ratio diagnostics are the division hazards.
        assert_eq!(plan.dedup_ratio(), 0.0);
        assert!(plan.dedup_ratio().is_finite());
        assert_eq!(plan.mean_support(), 0.0);
        assert!(plan.mean_support().is_finite());
        // An empty plan still validates the storage shape.
        assert_eq!(
            other_shaped_core().execute_plan(&plan).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }

    #[test]
    fn rejects_bad_queries_and_shapes() {
        let (fm, hn) = medical();
        // Invalid interval: the error names the attribute and bounds.
        let bad = RangeQuery::new(vec![Predicate::Range { lo: 9, hi: 9 }, Predicate::All]);
        assert_eq!(
            QueryPlan::compile(fm.schema(), &hn, &[bad]).unwrap_err(),
            QueryError::BadInterval {
                attr: 0,
                lo: 9,
                hi: 9,
                size: 5
            }
        );
        // Transform over a different schema.
        let other = Schema::new(vec![Attribute::ordinal("x", 3)]).unwrap();
        let other_hn = HnTransform::for_schema(&other, &BTreeSet::new()).unwrap();
        assert_eq!(
            QueryPlan::compile(fm.schema(), &other_hn, &[]).unwrap_err(),
            QueryError::ShapeMismatch
        );
        // Executing against a release of another shape.
        let plan = QueryPlan::compile(fm.schema(), &hn, &[RangeQuery::all(2)]).unwrap();
        assert_eq!(
            other_shaped_core().execute_plan(&plan).unwrap_err(),
            QueryError::ShapeMismatch
        );
    }
}
