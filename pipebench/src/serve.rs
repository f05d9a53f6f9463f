//! `serve`: open-loop online answering with error bars.
//!
//! The census-shaped table is published once during set-up (Privelet⁺,
//! SA = {Age, Gender}). Then `answer_with_error` queries arrive as a
//! Poisson process at one fixed rate, drawn Zipf-skewed from a pool of
//! paper §VII-A queries whose distinct supports outnumber the support
//! cache. One thread both generates and serves: it waits for each
//! query's due time (unless it is already late) and answers it through
//! the `ConcurrentEngine`. Latency is timed from the due time, so a
//! slow query counts against every query queued behind it.
//!
//! The run is cut into segments of equal length; a dense-floor pass
//! follows each. Latency percentiles are taken per segment and reported
//! as their median, so a burst of interference from outside the process
//! moves one segment, not the result.

use crate::fixtures::{self, census_sa};
use crate::stats::{median, percentile, Ctx, Report, SplitMix, Zipf};
use crate::trace::{durations_ms, Tracer};
use crate::{Run, Split};
use privelet::mechanism::publish_coefficients_with;
use privelet::PriveletConfig;
use privelet_data::FrequencyMatrix;
use privelet_eval::ExactEvaluate;
use privelet_matrix::LaneExecutor;
use privelet_query::metrics::{relative_error, sanity_bound, PAPER_SANITY_FRACTION};
use privelet_query::{AnnotatedAnswer, CacheStats, ConcurrentEngine, QueryPlan};
use std::time::{Duration, Instant};

pub const EPSILON: f64 = 1.0;
pub const POOL: usize = 4096;
/// The query pool is one fixed traffic mix: its seed does not vary with
/// `--seed`, so runs differ in arrivals, draws, table and noise, not in
/// which queries the Zipf head lands on.
const POOL_SEED: u64 = 0x9001;
pub const ZIPF_S: f64 = 1.0;
/// Offered load, queries per second: about 8% of what one thread
/// sustains on this pool (see `GLOSSARY.md` for why not more).
pub const RATE_PER_S: f64 = 500.0;
const SEGMENTS: usize = 5;
/// p99 needs 1000 queries in a segment for ten to lie beyond it.
const MIN_PER_SEGMENT: usize = 1000;
/// Pool queries the plan and floor gates use and the error score is
/// taken over.
const SAMPLE: usize = 2048;
/// Served answers checked bit for bit against the uncached path.
const BITWISE_CHECKS: usize = 512;
const SETUP_REPEATS: usize = 5;
/// Unmeasured answers before each segment.
const WARMUP_QUERIES: usize = 1000;
/// In the traced run, every `SHADOW_EVERY`-th query is also split into
/// its derive / dot / annotate calls.
const SHADOW_EVERY: usize = 8;

struct Served {
    pick: usize,
    latency_ms: f64,
    wait_us: f64,
    service_us: f64,
    answer: Option<AnnotatedAnswer>,
}

pub fn run(args: &Run, rep: &mut Report) -> Result<(), String> {
    let table = fixtures::census_table(args.seed)?;
    let schema = table.schema().clone();
    let pool = fixtures::paper_queries(&schema, POOL, POOL_SEED)?;
    let sample = &pool[..SAMPLE];
    let cfg = PriveletConfig::plus(EPSILON, census_sa(), args.seed ^ 0x5E7E);
    eprintln!(
        "[pipebench] serve: {} cells, pool of {POOL} queries with {} distinct supports \
         (cache holds {}), {RATE_PER_S} queries/s",
        schema.cell_count(),
        fixtures::distinct_supports(&schema, &pool)?,
        privelet_query::coefficients::DEFAULT_SUPPORT_CACHE_CAPACITY,
    );

    let mut exec = LaneExecutor::new();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built: Option<(FrequencyMatrix, ConcurrentEngine, QueryPlan)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let fm = FrequencyMatrix::from_table(&table).ctx("FrequencyMatrix::from_table")?;
        let out =
            publish_coefficients_with(&mut exec, &fm, &cfg).ctx("publish_coefficients_with")?;
        let engine = ConcurrentEngine::from_output(&out).ctx("ConcurrentEngine::from_output")?;
        let plan = engine.plan(sample).ctx("ConcurrentEngine::plan")?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((fm, engine, plan));
    }
    let (fm, engine, plan) = built.ok_or("no set-up ran")?;
    rep.set("setup_s", median(&setups));
    let t = Instant::now();
    engine.plan(sample).ctx("ConcurrentEngine::plan")?;
    rep.set("query.plan.compile_ms", t.elapsed().as_secs_f64() * 1e3);
    rep.set(
        "query.plan.distinct_supports",
        plan.distinct_supports() as f64,
    );
    rep.set("query.plan.dedup_ratio", plan.dedup_ratio());
    rep.set("query.plan.coeff_reads", plan.total_reads() as f64);

    // Reference answers for the gates and the error score.
    let planned = engine
        .answer_plan_with_error(&plan)
        .ctx("answer_plan_with_error")?;
    let s_bound = sanity_bound(table.len(), PAPER_SANITY_FRACTION);
    let mut rel = Vec::with_capacity(SAMPLE);
    for (q, a) in sample.iter().zip(&planned) {
        let exact = q.evaluate(&fm).ctx("ExactEvaluate::evaluate")?;
        rel.push(relative_error(a.value, exact, s_bound));
    }

    let per_segment =
        ((RATE_PER_S * args.seconds / SEGMENTS as f64).ceil() as usize).max(MIN_PER_SEGMENT);
    let mut rng = SplitMix::new(args.seed, 0xA221);
    let zipf = Zipf::new(POOL, ZIPF_S);
    let tracer = Tracer::new(args.trace, Instant::now());
    let untraced = Tracer::new(false, Instant::now());
    let mut split = Split::default();
    let mut floor = crate::FloorStats::default();
    let mut floor_ms = Vec::with_capacity(SEGMENTS);
    let mut served = Vec::with_capacity(per_segment * SEGMENTS);
    let (mut seg_p50, mut seg_p99, mut seg_rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut lag_ns = 0u64;
    let mut cache = CacheStats::default();
    for _ in 0..SEGMENTS {
        // Warm the support cache, and the CPU caches the floor pass
        // evicted, with the same draw distribution before timing.
        for _ in 0..WARMUP_QUERIES {
            engine
                .answer_with_error(&pool[zipf.sample(&mut rng)])
                .ctx("ConcurrentEngine::answer_with_error (warm-up)")?;
        }
        let before = engine.cache_stats();
        let first = served.len();
        let (window_s, lag) = serve_segment(
            &engine,
            &pool,
            &schedule(&mut rng, &zipf, per_segment),
            &tracer,
            &mut split,
            &mut served,
        );
        let after = engine.cache_stats();
        cache.hits += after.hits - before.hits;
        cache.misses += after.misses - before.misses;
        cache.evictions += after.evictions - before.evictions;
        lag_ns = lag_ns.max(lag);
        let latency: Vec<f64> = served[first..].iter().map(|s| s.latency_ms).collect();
        seg_p50.push(median(&latency));
        seg_p99.push(percentile(&latency, 99.0));
        seg_rate.push(latency.len() as f64 / window_s);

        // The dense floor: the same release published whole, prefix
        // sums built, the sample answered from them. One unmeasured pass
        // first: after a serving segment the floor's matrices come back
        // from freed memory and fault in again, which passes run back to
        // back (as on stream and refresh) do not pay.
        crate::dense_floor(&untraced, &mut exec, &fm, &cfg, sample)?;
        let t = Instant::now();
        let dense = tracer.span("bench.dense_floor", || {
            crate::dense_floor(&tracer, &mut exec, &fm, &cfg, sample)
        })?;
        floor_ms.push(t.elapsed().as_secs_f64() * 1e3);
        floor.add(&dense);
        rep.gate(
            "serve: dense floor == plan answers (1e-9)",
            crate::answers_close(&dense.answers, &planned, 1e-9, engine.total()),
        );
    }
    for s in &served {
        rep.op(s.answer.is_some());
    }

    // Gate: served answers equal the uncached core path, bit for bit.
    let core = engine.core();
    let mut bitwise = true;
    for s in served
        .iter()
        .step_by((served.len() / BITWISE_CHECKS).max(1))
    {
        let want = core
            .answer_with_error_uncached(&pool[s.pick])
            .ctx("ReleaseCore::answer_with_error_uncached")?;
        bitwise &= s.answer.is_some_and(|a| {
            a.value.to_bits() == want.value.to_bits()
                && a.std_dev.to_bits() == want.std_dev.to_bits()
        });
    }
    rep.gate(
        "serve: served answers == answer_with_error_uncached (bitwise)",
        bitwise,
    );
    // Gate: the compiled plan agrees with online answering.
    let online: Vec<AnnotatedAnswer> = sample
        .iter()
        .map(|q| engine.answer_with_error(q))
        .collect::<Result<_, _>>()
        .ctx("ConcurrentEngine::answer_with_error")?;
    rep.gate(
        "serve: plan answers == online answers (1e-12)",
        crate::answers_close(&planned, &online, 1e-12, 1.0),
    );

    rep.set("op_ms_p50", median(&seg_p50));
    rep.set("op_ms_tail", median(&seg_p99));
    rep.set("work_per_s", median(&seg_rate));
    rep.set("floor_ms_p50", median(&floor_ms));
    rep.set("rel_error_p50", median(&rel));
    rep.set("bench.ops", served.len() as f64);

    let service_us: Vec<f64> = served.iter().map(|s| s.service_us).collect();
    let wait_us: Vec<f64> = served.iter().map(|s| s.wait_us).collect();
    rep.set("query.concurrent.service_us_p50", median(&service_us));
    rep.set(
        "query.concurrent.service_us_p99",
        percentile(&service_us, 99.0),
    );
    rep.set("query.concurrent.wait_us_p99", percentile(&wait_us, 99.0));
    crate::cache_metrics(rep, &CacheStats::default(), &cache);
    rep.set("serve.generator_lag_ms_max", lag_ns as f64 / 1e6);
    floor.report(rep);
    if tracer.enabled() {
        split.report(rep);
        let spans = tracer.into_spans();
        let served_p50 = median(&durations_ms(&spans, "query.concurrent.answer_with_error"));
        rep.set("query.concurrent.service_us_p50", served_p50 * 1e3);
        rep.spans = spans;
    }
    Ok(())
}

/// Poisson arrivals at `RATE_PER_S` (due times in ns from the segment's
/// start), each with a Zipf-drawn pool index.
fn schedule(rng: &mut SplitMix, zipf: &Zipf, n: usize) -> Vec<(u64, usize)> {
    let mut t_s = 0.0f64;
    (0..n)
        .map(|_| {
            t_s += -(1.0 - rng.unit()).ln() / RATE_PER_S;
            ((t_s * 1e9) as u64, zipf.sample(rng))
        })
        .collect()
}

/// Serves one segment's arrivals in order, each no earlier than its due
/// time. Returns the segment's length in seconds (first due time to last
/// answer) and the worst lateness of a query that found the server idle.
fn serve_segment(
    engine: &ConcurrentEngine,
    pool: &[privelet_query::RangeQuery],
    arrivals: &[(u64, usize)],
    tracer: &Tracer,
    split: &mut Split,
    served: &mut Vec<Served>,
) -> (f64, u64) {
    let mut lag_ns = 0u64;
    let origin = Instant::now();
    let mut last_done = Duration::ZERO;
    for &(due_ns, pick) in arrivals {
        // Busy-wait for the due time. Sleeping would let the host
        // deschedule the idle CPU, and every query would then pay its
        // wake-up and cold caches — a property of the host, not of the
        // library.
        let due = origin + Duration::from_nanos(due_ns);
        let idle = Instant::now() < due;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        tracer.set_op(served.len() as u64);
        let q = &pool[pick];
        let start = Instant::now();
        let r = tracer.span("query.concurrent.answer_with_error", || {
            engine.answer_with_error(q)
        });
        let done = Instant::now();
        let start_ns = (start - origin).as_nanos() as u64;
        last_done = done - origin;
        if idle {
            // Arrived to an idle server: any delay is the generator's.
            lag_ns = lag_ns.max(start_ns.saturating_sub(due_ns));
        }
        served.push(Served {
            pick,
            latency_ms: (last_done.as_nanos() as u64).saturating_sub(due_ns) as f64 / 1e6,
            wait_us: start_ns.saturating_sub(due_ns) as f64 / 1e3,
            service_us: (done - start).as_secs_f64() * 1e6,
            answer: r.ok(),
        });
        if tracer.enabled() && served.len().is_multiple_of(SHADOW_EVERY) {
            split.measure(engine.core(), q);
        }
    }
    let first_due = arrivals.first().map_or(0, |a| a.0);
    (last_done.as_secs_f64() - first_due as f64 / 1e9, lag_ns)
}
