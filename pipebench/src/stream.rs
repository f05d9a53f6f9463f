//! `stream`: windowed streaming ingest with per-epoch dashboard refresh.
//!
//! Closed loop over a `SlidingWindowRelease` on the m = 2^18 mixed
//! fixture (pure Privelet, window of 4 epochs). Each epoch ingests four
//! seeded row batches through `apply_rows` (two clustered in a 64×64
//! tile, two uniform), then crosses the epoch boundary:
//! `advance_epoch` (negated replay of the expired epoch + noise),
//! `ConcurrentEngine::advance_epoch`, and the compiled dashboard plan
//! with error bars. A few online drill-down queries follow through the
//! engine's support cache, which survives epochs.

use crate::fixtures::{self, frequency_matrix, row_batch};
use crate::stats::{median, percentile, Ctx, Report, SplitMix, Zipf};
use crate::trace::{durations_ms, Tracer};
use crate::Run;
use privelet::mechanism::{publish_coefficients, CoefficientOutput};
use privelet::{CoreError, PriveletConfig, SlidingWindowRelease};
use privelet_data::schema::Schema;
use privelet_eval::ExactEvaluate;
use privelet_matrix::LaneExecutor;
use privelet_noise::{derive_rng, Laplace};
use privelet_query::metrics::{relative_error, sanity_bound, PAPER_SANITY_FRACTION};
use privelet_query::{ConcurrentEngine, QueryPlan, RangeQuery};
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

pub const WINDOW: usize = 4;
pub const BATCHES_PER_EPOCH: usize = 4;
pub const BATCH_ROWS: usize = 1024;
pub const EPOCH_EPSILON: f64 = 1.0;
/// Lifetime budget: enough for every epoch a run can reach, so the only
/// refusal is the deliberate over-budget epoch at the end.
const TOTAL_EPSILON: f64 = 1.0e6;
pub const DASHBOARD_QUERIES: usize = 256;
/// The dashboard and the drill-down pool are fixed query sets: their
/// seed does not vary with `--seed` (the table, the row batches and the
/// noise do).
const DASHBOARD_SEED: u64 = 0xDA5B;
const DRILL_POOL: usize = 128;
pub const DRILLS_PER_EPOCH: usize = 16;
/// The dense floor runs on every `FLOOR_EVERY`-th epoch.
const FLOOR_EVERY: u64 = 4;
/// Epochs whose dashboard answers are scored against the exact window
/// table: the first sixteen with a full window, so the score is the same
/// for every run with one seed.
const REL_EPOCHS: std::ops::Range<u64> = (WINDOW as u64 - 1)..(WINDOW as u64 + 15);
const SETUP_REPEATS: usize = 11;
/// Latency percentiles are taken over this many equal segments of the
/// run and reported as their median.
const SEGMENTS: usize = 5;
/// p95 needs 200 epochs in a segment for ten to lie beyond it.
const MIN_EPOCHS: usize = 200 * SEGMENTS;

fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    SplitMix::new(seed, 0xE90C + epoch).next_u64()
}

/// Everything set-up builds: the windowed release with its first
/// (empty) epoch published, the serving engine over it, and the
/// compiled dashboard.
struct Pipeline {
    window: SlidingWindowRelease,
    engine: ConcurrentEngine,
    dashboard: QueryPlan,
    latest: CoefficientOutput,
}

fn set_up(
    schema: &Schema,
    background: &[f64],
    dash: &[RangeQuery],
    seed: u64,
) -> Result<Pipeline, String> {
    let fm = frequency_matrix(schema, background.to_vec())?;
    let mut window = SlidingWindowRelease::new(&fm, &BTreeSet::new(), TOTAL_EPSILON, WINDOW)
        .ctx("SlidingWindowRelease::new")?;
    let latest = window
        .advance_epoch(EPOCH_EPSILON, epoch_seed(seed, u64::MAX))
        .ctx("SlidingWindowRelease::advance_epoch (set-up)")?;
    let engine = ConcurrentEngine::from_output(&latest).ctx("ConcurrentEngine::from_output")?;
    let dashboard = engine.plan(dash).ctx("ConcurrentEngine::plan")?;
    Ok(Pipeline {
        window,
        engine,
        dashboard,
        latest,
    })
}

/// The windowed exact table the benchmark keeps beside the release:
/// background plus every retained epoch's rows.
struct WindowTable {
    dims: Vec<usize>,
    cells: Vec<f64>,
    /// Row logs of the epochs inside the window (the set-up epoch's is
    /// empty), oldest first, and the epoch filling now.
    sealed: VecDeque<Vec<Vec<usize>>>,
    current: Vec<Vec<usize>>,
}

impl WindowTable {
    fn lin(&self, row: &[usize]) -> usize {
        row.iter()
            .zip(&self.dims)
            .fold(0, |acc, (&c, &m)| acc * m + c)
    }

    fn add(&mut self, rows: &[Vec<usize>]) {
        for r in rows {
            let i = self.lin(r);
            self.cells[i] += 1.0;
        }
        self.current.extend(rows.iter().cloned());
    }

    /// Mirrors the release's epoch boundary: seals the filling epoch
    /// and returns the log that slid out of the window, if any.
    fn seal(&mut self) -> Option<Vec<Vec<usize>>> {
        self.sealed.push_back(std::mem::take(&mut self.current));
        if self.sealed.len() <= WINDOW {
            return None;
        }
        let old = self.sealed.pop_front()?;
        for r in &old {
            let i = self.lin(r);
            self.cells[i] -= 1.0;
        }
        Some(old)
    }

    /// The window table rebuilt from scratch out of the logs.
    fn rebuild(&self, background: &[f64]) -> Vec<f64> {
        let mut cells = background.to_vec();
        for r in self.sealed.iter().flatten() {
            cells[self.lin(r)] += 1.0;
        }
        cells
    }
}

fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn run(args: &Run, rep: &mut Report) -> Result<(), String> {
    let schema = fixtures::stream_schema()?;
    let dims = schema.dims();
    let background = fixtures::stream_background(&schema, args.seed);
    let dash_queries = fixtures::paper_queries(&schema, DASHBOARD_QUERIES, DASHBOARD_SEED)?;
    let drill_pool = fixtures::paper_queries(&schema, DRILL_POOL, DASHBOARD_SEED + 1)?;
    let drill_zipf = Zipf::new(DRILL_POOL, 1.0);

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut pipe = None;
    for _ in 0..SETUP_REPEATS {
        drop(pipe.take()); // the previous pipeline goes before timing the next
        let t = Instant::now();
        let p = set_up(&schema, &background, &dash_queries, args.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        pipe = Some(p);
    }
    let Pipeline {
        mut window,
        mut engine,
        dashboard,
        mut latest,
    } = pipe.ok_or("no set-up ran")?;
    rep.set("setup_s", median(&setups));
    let t = Instant::now();
    engine.plan(&dash_queries).ctx("ConcurrentEngine::plan")?;
    rep.set("query.plan.compile_ms", t.elapsed().as_secs_f64() * 1e3);
    rep.set(
        "query.plan.distinct_supports",
        dashboard.distinct_supports() as f64,
    );
    rep.set("query.plan.dedup_ratio", dashboard.dedup_ratio());
    rep.set("query.plan.coeff_reads", dashboard.total_reads() as f64);

    let mut table = WindowTable {
        dims: dims.clone(),
        cells: background.clone(),
        sealed: VecDeque::from([Vec::new()]),
        current: Vec::new(),
    };
    let mut exec = LaneExecutor::new();
    let tracer = Tracer::new(args.trace, Instant::now());
    let unit_laplace = Laplace::new(1.0).ctx("Laplace::new")?;
    let mut noise_buf = vec![0.0f64; latest.coefficient_count()];

    let mut rows_total = 0usize;
    // Per measured epoch: boundary-to-dashboard time, and loop time
    // (ingest + boundary + drill-downs).
    let mut epoch_ms = Vec::new();
    let mut loop_s = Vec::new();
    let mut floor_ms = Vec::new();
    let mut floor = crate::FloorStats::default();
    let mut rel_errors = Vec::new();
    let (mut written, mut coalesced, mut bound, mut batches) = (0usize, 0usize, 0usize, 0usize);
    let mut drill_us = Vec::new();
    let mut expire_ms = Vec::new();
    let mut noise_ms = Vec::new();
    let mut split = crate::Split::default();
    let mut last_seed = epoch_seed(args.seed, u64::MAX);
    let cache_before = engine.cache_stats();

    let started = Instant::now();
    let mut epoch = 0u64;
    while crate::keep_going(started, args.seconds, epoch_ms.len(), MIN_EPOCHS) {
        tracer.set_op(epoch);
        let mut rng = SplitMix::new(args.seed, 0x5EED_0000 + epoch);
        let mut ok = true;
        let mut spent_s = 0.0f64;

        // Ingest.
        for b in 0..BATCHES_PER_EPOCH {
            let rows = row_batch(&dims, &mut rng, BATCH_ROWS, b % 2 == 0);
            let t = Instant::now();
            let r = tracer.span("core.incremental.apply_rows", || window.apply_rows(&rows));
            spent_s += t.elapsed().as_secs_f64();
            match r {
                Ok(report) => {
                    written += report.coefficients_written;
                    coalesced += report.coalesced_cells;
                    bound += report.touch_bound;
                    batches += 1;
                }
                Err(e) => {
                    eprintln!("[pipebench] apply_rows failed: {e:?}");
                    ok = false;
                }
            }
            rows_total += rows.len();
            table.add(&rows);
        }

        // Epoch boundary → dashboard ready.
        let seed_e = epoch_seed(args.seed, epoch);
        let t = Instant::now();
        let refreshed = tracer.span("bench.epoch", || -> Result<_, String> {
            let out = tracer
                .span("core.streaming.advance_epoch", || {
                    window.advance_epoch(EPOCH_EPSILON, seed_e)
                })
                .ctx("SlidingWindowRelease::advance_epoch")?;
            let next = tracer
                .span("query.concurrent.advance_epoch", || {
                    engine.advance_epoch(&out)
                })
                .ctx("ConcurrentEngine::advance_epoch")?;
            let answers = tracer
                .span("query.concurrent.answer_plan_with_error", || {
                    next.answer_plan_with_error(&dashboard)
                })
                .ctx("ConcurrentEngine::answer_plan_with_error")?;
            Ok((out, next, answers))
        });
        let dt = t.elapsed().as_secs_f64();
        spent_s += dt;
        let expired = table.seal();
        let answers = match refreshed {
            Ok((out, next, answers)) => {
                epoch_ms.push(dt * 1e3);
                latest = out;
                engine = next;
                last_seed = seed_e;
                answers
            }
            Err(e) => {
                eprintln!("[pipebench] {e}");
                rep.op(false);
                epoch += 1;
                continue;
            }
        };

        // Online drill-downs through the (epoch-surviving) cache.
        for _ in 0..DRILLS_PER_EPOCH {
            let q = &drill_pool[drill_zipf.sample(&mut rng)];
            let t = Instant::now();
            let r = tracer.span("query.concurrent.answer_with_error", || {
                engine.answer_with_error(q)
            });
            let dt = t.elapsed().as_secs_f64();
            spent_s += dt;
            drill_us.push(dt * 1e6);
            rep.op(r.is_ok());
        }

        loop_s.push(spent_s);

        // Outside the timed loop from here on.
        if REL_EPOCHS.contains(&epoch) {
            let fm = frequency_matrix(&schema, table.cells.clone())?;
            let s = sanity_bound(fm.total() as usize, PAPER_SANITY_FRACTION);
            for (q, a) in dash_queries.iter().zip(&answers) {
                let exact = q.evaluate(&fm).ctx("ExactEvaluate::evaluate")?;
                rel_errors.push(relative_error(a.value, exact, s));
            }
        }
        if epoch.is_multiple_of(FLOOR_EVERY) {
            let fm = frequency_matrix(&schema, table.cells.clone())?;
            let t = Instant::now();
            let cfg = PriveletConfig::pure(EPOCH_EPSILON, seed_e);
            let dense = tracer.span("bench.dense_floor", || {
                crate::dense_floor(&tracer, &mut exec, &fm, &cfg, &dash_queries)
            });
            let dt = t.elapsed().as_secs_f64();
            match dense {
                Ok(dense) => {
                    floor_ms.push(dt * 1e3);
                    floor.add(&dense);
                    rep.gate(
                        "stream: dense floor == coefficient dashboard (1e-9)",
                        crate::answers_close(&dense.answers, &answers, 1e-9, engine.total()),
                    );
                }
                Err(e) => {
                    eprintln!("[pipebench] {e}");
                    ok = false;
                }
            }
        }
        if tracer.enabled() {
            // The advance_epoch split, on a clone of the inner release:
            // the expiry replay and the noise draw it performs.
            if let Some(expired) = &expired {
                let negated: Vec<(Vec<usize>, f64)> =
                    expired.iter().map(|r| (r.clone(), -1.0)).collect();
                let mut inner = window.release().clone();
                let t = Instant::now();
                let r = inner.apply_increments(&negated);
                expire_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ok &= r.is_ok();
            }
            let mut noise_rng = derive_rng(seed_e, 0);
            let t = Instant::now();
            unit_laplace.sample_into(&mut noise_rng, &mut noise_buf);
            noise_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // The online answer's split: derive, dot, annotate.
            let q = &drill_pool[drill_zipf.sample(&mut rng)];
            split.measure(engine.core(), q);
        }
        rep.op(ok);
        epoch += 1;
    }
    let cache = engine.cache_stats();

    // Gate: the last epoch equals a from-scratch publish of the window
    // table rebuilt from the benchmark's own log, bit for bit.
    let rebuilt = frequency_matrix(&schema, table.rebuild(&background))?;
    let scratch = publish_coefficients(&rebuilt, &PriveletConfig::pure(EPOCH_EPSILON, last_seed))
        .ctx("publish_coefficients")?;
    rep.gate(
        "stream: last epoch == publish_coefficients from scratch (bitwise)",
        bitwise_equal(
            latest.coefficients.as_slice(),
            scratch.coefficients.as_slice(),
        ),
    );
    // Gate: one over-budget epoch must be refused before any noise.
    let over = window.ledger().remaining() + 1.0;
    let refused = matches!(
        window.advance_epoch(over, 1),
        Err(CoreError::BudgetExhausted { .. })
    );
    rep.gate(
        "stream: over-budget epoch refused with BudgetExhausted",
        refused,
    );
    rep.set("core.privacy.refusals", refused as u8 as f64);

    // Per-segment statistics (equal runs of consecutive epochs), then
    // their median: a burst of outside interference moves one segment.
    let seg = epoch_ms.len().div_ceil(SEGMENTS).max(1);
    let seg_p50: Vec<f64> = epoch_ms.chunks(seg).map(median).collect();
    let seg_p95: Vec<f64> = epoch_ms.chunks(seg).map(|c| percentile(c, 95.0)).collect();
    let rows_per_epoch = (BATCHES_PER_EPOCH * BATCH_ROWS) as f64;
    let seg_rate: Vec<f64> = loop_s
        .chunks(seg)
        .map(|c| rows_per_epoch * c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    rep.set("op_ms_p50", median(&seg_p50));
    rep.set("op_ms_tail", median(&seg_p95));
    rep.set("work_per_s", median(&seg_rate));
    rep.set("floor_ms_p50", median(&floor_ms));
    rep.set("rel_error_p50", median(&rel_errors));
    rep.set("bench.ops", epoch_ms.len() as f64);

    rep.set(
        "core.incremental.coeffs_written",
        written as f64 / batches.max(1) as f64,
    );
    rep.set(
        "core.incremental.coalesced_cells",
        coalesced as f64 / batches.max(1) as f64,
    );
    rep.set(
        "core.incremental.write_ratio",
        written as f64 / bound.max(1) as f64,
    );
    rep.set("query.concurrent.service_us_p50", median(&drill_us));
    rep.set(
        "query.concurrent.service_us_p99",
        percentile(&drill_us, 99.0),
    );
    crate::cache_metrics(rep, &cache_before, &cache);
    floor.report(rep);
    if tracer.enabled() {
        let spans = tracer.into_spans();
        let busy: f64 = durations_ms(&spans, "core.incremental.apply_rows")
            .iter()
            .sum();
        rep.set("core.incremental.busy_ms", busy);
        rep.set(
            "core.incremental.us_per_row",
            busy * 1e3 / rows_total as f64,
        );
        rep.set(
            "core.streaming.advance_epoch_ms_p50",
            median(&durations_ms(&spans, "core.streaming.advance_epoch")),
        );
        rep.set("core.streaming.expire_ms", median(&expire_ms));
        rep.set("noise.sample_ms", median(&noise_ms));
        rep.set(
            "query.release.build_ms_p50",
            median(&durations_ms(&spans, "query.concurrent.advance_epoch")),
        );
        rep.set(
            "query.plan.execute_ms_p50",
            median(&durations_ms(
                &spans,
                "query.concurrent.answer_plan_with_error",
            )),
        );
        split.report(rep);
        rep.spans = spans;
    }
    Ok(())
}
