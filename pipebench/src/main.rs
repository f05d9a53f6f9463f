//! `pipebench`: the release pipeline benchmarked the way it is used.
//!
//! ```text
//! pipebench --workload <stream|serve|refresh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` on one generator thread; the
//! library receives only the generated inputs. Each run sets up, measures
//! for `--seconds`, checks the outputs with the workload's correctness
//! gates, and prints one JSON object as its last line of output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from spans recorded around
//! every call into a layer (written to `pipebench/out/`). `GLOSSARY.md`
//! defines every metric.

mod fixtures;
mod refresh;
mod serve;
mod stats;
mod stream;
mod trace;

use privelet::transform::HnTransform;
use privelet::PriveletConfig;
use privelet_data::FrequencyMatrix;
use privelet_matrix::LaneExecutor;
use privelet_query::{AnnotatedAnswer, Answerer, CacheStats, RangeQuery, ReleaseCore};
use stats::{median, Ctx, Report};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("work_per_s", "1/s"),
    ("floor_ms_p50", "ms"),
    ("rel_error_p50", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Self time is reported for each of these layers (span-name prefixes).
const SELF_TIME_LAYERS: &[(&str, &str)] = &[
    ("bench", "bench.self_ms_per_op"),
    ("core.incremental", "core.incremental.self_ms_per_op"),
    ("core.streaming", "core.streaming.self_ms_per_op"),
    ("core.mechanism", "core.mechanism.self_ms_per_op"),
    ("query.concurrent", "query.concurrent.self_ms_per_op"),
    ("query.release", "query.release.self_ms_per_op"),
    ("query.answerer", "query.answerer.self_ms_per_op"),
];

/// Per-layer metrics: every workload reports each of them; a layer the
/// workload leaves idle reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.incremental.busy_ms", "ms"),
    ("core.incremental.us_per_row", "us"),
    ("core.incremental.coeffs_written", "count"),
    ("core.incremental.coalesced_cells", "count"),
    ("core.incremental.write_ratio", "ratio"),
    ("core.streaming.advance_epoch_ms_p50", "ms"),
    ("core.streaming.expire_ms", "ms"),
    ("noise.sample_ms", "ms"),
    ("core.mechanism.publish_ms_p50", "ms"),
    ("core.mechanism.dense_publish_ms_p50", "ms"),
    ("core.transform.forward_ms", "ms"),
    ("core.transform.bytes_computed", "bytes"),
    ("query.release.build_ms_p50", "ms"),
    ("query.plan.compile_ms", "ms"),
    ("query.plan.distinct_supports", "count"),
    ("query.plan.dedup_ratio", "ratio"),
    ("query.plan.execute_ms_p50", "ms"),
    ("query.plan.coeff_reads", "count"),
    ("query.concurrent.service_us_p50", "us"),
    ("query.concurrent.service_us_p99", "us"),
    ("query.concurrent.wait_us_p99", "us"),
    ("query.cache.hit_rate", "ratio"),
    ("query.cache.misses", "count"),
    ("query.cache.evictions", "count"),
    ("query.release.derive_us", "us"),
    ("query.release.dot_us", "us"),
    ("query.release.annotate_us", "us"),
    ("query.answerer.build_ms", "ms"),
    ("query.answerer.answer_ms", "ms"),
    ("serve.generator_lag_ms_max", "ms"),
    ("core.privacy.refusals", "count"),
    ("failed_frac", "ratio"),
    ("bench.ops", "count"),
    ("bench.exec_threads", "count"),
    ("bench.nproc", "count"),
    ("trace.spans_per_op", "count"),
    ("trace.record_ns_per_span", "ns"),
    ("trace.overhead_us_per_op", "us"),
    ("trace.op_ms_p50", "ms"),
    ("bench.self_ms_per_op", "ms"),
    ("core.incremental.self_ms_per_op", "ms"),
    ("core.streaming.self_ms_per_op", "ms"),
    ("core.mechanism.self_ms_per_op", "ms"),
    ("query.concurrent.self_ms_per_op", "ms"),
    ("query.release.self_ms_per_op", "ms"),
    ("query.answerer.self_ms_per_op", "ms"),
];

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["stream", "serve", "refresh"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (stream, serve, refresh)"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Whether a measuring loop runs another operation: until `seconds`
/// have passed, and then on until `min_ops` are done (for the tail
/// percentile), but never past three times the budget.
pub fn keep_going(started: Instant, seconds: f64, ops: usize, min_ops: usize) -> bool {
    let t = started.elapsed().as_secs_f64();
    t < seconds || (ops < min_ops && t < 3.0 * seconds)
}

/// One pass of the dense floor — the paper's own path, in the spirit of
/// the ~30-line dense Privelet: publish the whole noisy matrix
/// (`publish_privelet_with`), build prefix sums (`Answerer::new`), and
/// answer each query from them with its error bar.
pub struct DenseFloor {
    pub answers: Vec<AnnotatedAnswer>,
    pub publish_ms: f64,
    pub build_ms: f64,
    /// Per-query answer times.
    pub answer_ms: Vec<f64>,
}

pub fn dense_floor(
    tracer: &Tracer,
    exec: &mut LaneExecutor,
    fm: &FrequencyMatrix,
    cfg: &PriveletConfig,
    queries: &[RangeQuery],
) -> Result<DenseFloor, String> {
    let t = Instant::now();
    let out = tracer
        .span("core.mechanism.publish_privelet_with", || {
            privelet::mechanism::publish_privelet_with(exec, fm, cfg)
        })
        .ctx("publish_privelet_with")?;
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let answerer = tracer.span("query.answerer.new", || -> Result<Answerer, String> {
        let hn = HnTransform::for_schema(fm.schema(), &cfg.sa).ctx("HnTransform::for_schema")?;
        Answerer::new(fm.schema().clone(), out.matrix.matrix())
            .ctx("Answerer::new")?
            .with_error_model(hn, out.meta)
            .ctx("Answerer::with_error_model")
    })?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut answers = Vec::with_capacity(queries.len());
    let mut answer_ms = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let a = tracer
            .span("query.answerer.answer_with_error", || {
                answerer.answer_with_error(q)
            })
            .ctx("Answerer::answer_with_error")?;
        answer_ms.push(t.elapsed().as_secs_f64() * 1e3);
        answers.push(a);
    }
    Ok(DenseFloor {
        answers,
        publish_ms,
        build_ms,
        answer_ms,
    })
}

/// The dense floor's per-layer timings, accumulated over passes.
#[derive(Debug, Default)]
pub struct FloorStats {
    publish_ms: Vec<f64>,
    build_ms: Vec<f64>,
    answer_ms: Vec<f64>,
}

impl FloorStats {
    pub fn add(&mut self, f: &DenseFloor) {
        self.publish_ms.push(f.publish_ms);
        self.build_ms.push(f.build_ms);
        self.answer_ms.extend_from_slice(&f.answer_ms);
    }

    pub fn report(&self, rep: &mut Report) {
        rep.set(
            "core.mechanism.dense_publish_ms_p50",
            median(&self.publish_ms),
        );
        rep.set("query.answerer.build_ms", median(&self.build_ms));
        rep.set("query.answerer.answer_ms", median(&self.answer_ms));
    }
}

/// One online answer split into its three public steps on the shared
/// core — uncached support derivation, the sparse dot, the annotation —
/// each timed on its own (a shadow of the served call, outside its
/// latency).
#[derive(Debug, Default)]
pub struct Split {
    derive_us: Vec<f64>,
    dot_us: Vec<f64>,
    annotate_us: Vec<f64>,
}

impl Split {
    pub fn measure(&mut self, core: &ReleaseCore, q: &RangeQuery) {
        let Ok((lo, hi)) = q.bounds(core.schema()) else {
            return;
        };
        let t = Instant::now();
        let supports: Result<Vec<_>, _> = (0..lo.len())
            .map(|d| core.derive_support(d, lo[d], hi[d]))
            .collect();
        self.derive_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(supports) = supports else {
            return;
        };
        let t = Instant::now();
        let v = std::hint::black_box(core.dot(&supports));
        self.dot_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = std::hint::black_box(core.annotate(v, &supports));
        self.annotate_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    pub fn report(&self, rep: &mut Report) {
        rep.set("query.release.derive_us", median(&self.derive_us));
        rep.set("query.release.dot_us", median(&self.dot_us));
        rep.set("query.release.annotate_us", median(&self.annotate_us));
    }
}

/// Support-cache activity between two snapshots.
pub fn cache_metrics(rep: &mut Report, before: &CacheStats, after: &CacheStats) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    rep.set(
        "query.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rep.set("query.cache.misses", misses as f64);
    rep.set(
        "query.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
}

/// Gate helper: two answer lists agree value-by-value and on their
/// error bars within `tol`, relative to each value or to `scale`,
/// whichever is larger. A prefix-sum answer is a difference of partial
/// sums as large as the table total, so its rounding is relative to the
/// total: comparisons against the dense path pass the release's total.
pub fn answers_close(a: &[AnnotatedAnswer], b: &[AnnotatedAnswer], tol: f64, scale: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            stats::close(x.value, y.value, tol, scale)
                && stats::close(x.std_dev, y.std_dev, tol, 1.0)
        })
}

/// The traced run's span-derived metrics shared by every workload.
fn trace_metrics(rep: &mut Report) {
    let ops = rep
        .metrics
        .get("bench.ops")
        .copied()
        .unwrap_or(0.0)
        .max(1.0);
    let by_layer = trace::self_ms_by_layer(&rep.spans);
    for (layer, name) in SELF_TIME_LAYERS {
        rep.set(name, by_layer.get(*layer).copied().unwrap_or(0.0) / ops);
    }
    let per_span_ns = trace::record_cost_ns();
    let spans_per_op = rep.spans.len() as f64 / ops;
    rep.set("trace.spans_per_op", spans_per_op);
    rep.set("trace.record_ns_per_span", per_span_ns);
    rep.set("trace.overhead_us_per_op", spans_per_op * per_span_ns / 1e3);
    if let Some(&v) = rep.metrics.get("op_ms_p50") {
        rep.set("trace.op_ms_p50", v);
    }
}

fn render(rep: &Report, catalogue: &[(&str, &str)], correct: bool) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = rep.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.attempted.max(1),
        rep.failed
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    let ran = match args.workload.as_str() {
        "stream" => stream::run(&args, &mut rep),
        "serve" => serve::run(&args, &mut rep),
        _ => refresh::run(&args, &mut rep),
    };
    if let Err(e) = ran {
        // A workload that cannot finish has no result to print.
        eprintln!("pipebench: {} aborted: {e}", args.workload);
        std::process::exit(1);
    }
    rep.set("peak_rss_mb", stats::peak_rss_mb());
    rep.set("bench.exec_threads", LaneExecutor::new().threads() as f64);
    rep.set(
        "bench.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    // An end-to-end metric the run could not measure is a failure.
    for (name, _) in END_TO_END {
        let v = rep.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !(v.is_finite() && v > 0.0) {
            rep.gate(&format!("end-to-end metric {name} measured ({v})"), false);
        }
    }
    rep.set(
        "failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    let correct = rep.failures.is_empty() && rep.failed == 0;

    let catalogue = if args.trace {
        trace_metrics(&mut rep);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_spans(&path, &rep.spans) {
            eprintln!("pipebench: cannot write {}: {e}", path.display());
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    eprintln!(
        "[pipebench] {} seed {}: {} ops measured, op_ms_p50 {:.4}",
        args.workload,
        args.seed,
        rep.metrics.get("bench.ops").copied().unwrap_or(0.0),
        rep.metrics.get("op_ms_p50").copied().unwrap_or(f64::NAN)
    );
    println!("{}", render(&rep, catalogue, correct));
}
