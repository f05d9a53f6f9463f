//! `refresh`: republish from scratch every epoch, against the dense floor.
//!
//! Closed loop on the census-shaped table. Each epoch republishes the
//! release (`publish_coefficients_with` on one reused `LaneExecutor`),
//! builds a `ReleaseCore` from it (refinement + total), and executes a
//! plan of paper queries — compiled once during set-up — with error
//! bars. The same epoch then runs the dense floor on the same table and
//! seed: `publish_privelet_with`, prefix-sum `Answerer`, the same
//! queries. The online support cache is never touched.

use crate::fixtures::{self, census_sa};
use crate::stats::{median, percentile, Ctx, Report, SplitMix};
use crate::trace::{durations_ms, Tracer};
use crate::Run;
use privelet::mechanism::publish_coefficients_with;
use privelet::PriveletConfig;
use privelet_data::FrequencyMatrix;
use privelet_eval::ExactEvaluate;
use privelet_matrix::LaneExecutor;
use privelet_noise::{derive_rng, Laplace};
use privelet_query::metrics::{relative_error, sanity_bound, PAPER_SANITY_FRACTION};
use privelet_query::{QueryPlan, ReleaseCore};
use std::time::Instant;

pub const EPSILON: f64 = 1.0;
pub const PLAN_QUERIES: usize = 1024;
/// The plan's queries are one fixed set: their seed does not vary with
/// `--seed` (the table and the noise do).
const PLAN_SEED: u64 = 0x7E57;
/// Epochs whose answers are scored against the exact table.
const REL_EPOCHS: u64 = 4;
const SETUP_REPEATS: usize = 5;
/// The dense floor runs on every `FLOOR_EVERY`-th epoch.
const FLOOR_EVERY: u64 = 2;
/// The tail percentile (p75) needs 40 epochs for ten to lie beyond it.
const MIN_EPOCHS: usize = 40;

fn cfg_for(seed: u64, epoch: u64) -> PriveletConfig {
    PriveletConfig::plus(
        EPSILON,
        census_sa(),
        SplitMix::new(seed, 0xF1E5 + epoch).next_u64(),
    )
}

pub fn run(args: &Run, rep: &mut Report) -> Result<(), String> {
    let table = fixtures::census_table(args.seed)?;
    let schema = table.schema().clone();
    let queries = fixtures::paper_queries(&schema, PLAN_QUERIES, PLAN_SEED)?;

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built: Option<(FrequencyMatrix, LaneExecutor, QueryPlan)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let fm = FrequencyMatrix::from_table(&table).ctx("FrequencyMatrix::from_table")?;
        let mut exec = LaneExecutor::new();
        let out = publish_coefficients_with(&mut exec, &fm, &cfg_for(args.seed, u64::MAX))
            .ctx("publish_coefficients_with")?;
        let core = ReleaseCore::from_output(&out).ctx("ReleaseCore::from_output")?;
        let plan = core.plan(&queries).ctx("ReleaseCore::plan")?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((fm, exec, plan));
    }
    let (fm, mut exec, plan) = built.ok_or("no set-up ran")?;
    rep.set("setup_s", median(&setups));
    let hn =
        privelet::HnTransform::for_schema(&schema, &census_sa()).ctx("HnTransform::for_schema")?;
    let t = Instant::now();
    QueryPlan::compile(&schema, &hn, &queries).ctx("QueryPlan::compile")?;
    rep.set("query.plan.compile_ms", t.elapsed().as_secs_f64() * 1e3);
    rep.set(
        "query.plan.distinct_supports",
        plan.distinct_supports() as f64,
    );
    rep.set("query.plan.dedup_ratio", plan.dedup_ratio());
    rep.set("query.plan.coeff_reads", plan.total_reads() as f64);

    let s_bound = sanity_bound(table.len(), PAPER_SANITY_FRACTION);
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.evaluate(&fm))
        .collect::<Result<_, _>>()
        .ctx("ExactEvaluate::evaluate")?;

    let tracer = Tracer::new(args.trace, Instant::now());
    let unit_laplace = Laplace::new(1.0).ctx("Laplace::new")?;
    let mut noise_buf = vec![0.0f64; hn.output_cells()];
    let mut refresh_ms = Vec::new();
    let mut floor_ms = Vec::new();
    let mut floor = crate::FloorStats::default();
    let mut rel = Vec::new();
    let (mut forward_ms, mut noise_ms) = (Vec::new(), Vec::new());

    let started = Instant::now();
    let mut epoch = 0u64;
    while crate::keep_going(started, args.seconds, refresh_ms.len(), MIN_EPOCHS) {
        tracer.set_op(epoch);
        let cfg = cfg_for(args.seed, epoch);
        let t = Instant::now();
        let refreshed = tracer.span("bench.refresh", || -> Result<_, String> {
            let out = tracer
                .span("core.mechanism.publish_coefficients_with", || {
                    publish_coefficients_with(&mut exec, &fm, &cfg)
                })
                .ctx("publish_coefficients_with")?;
            let core = tracer
                .span("query.release.from_output", || {
                    ReleaseCore::from_output(&out)
                })
                .ctx("ReleaseCore::from_output")?;
            let answers = tracer
                .span("query.release.execute_plan_with_error", || {
                    core.execute_plan_with_error(&plan)
                })
                .ctx("ReleaseCore::execute_plan_with_error")?;
            Ok((answers, core.total()))
        });
        let dt = t.elapsed().as_secs_f64();
        let (answers, total) = match refreshed {
            Ok(a) => a,
            Err(e) => {
                eprintln!("[pipebench] {e}");
                rep.op(false);
                epoch += 1;
                continue;
            }
        };
        refresh_ms.push(dt * 1e3);
        rep.op(true);

        if epoch.is_multiple_of(FLOOR_EVERY) {
            let t = Instant::now();
            let dense = tracer.span("bench.dense_floor", || {
                crate::dense_floor(&tracer, &mut exec, &fm, &cfg, &queries)
            });
            let dt = t.elapsed().as_secs_f64();
            match dense {
                Ok(dense) => {
                    floor_ms.push(dt * 1e3);
                    floor.add(&dense);
                    rep.gate(
                        "refresh: coefficient path == dense prefix path (1e-9)",
                        crate::answers_close(&answers, &dense.answers, 1e-9, total),
                    );
                }
                Err(e) => {
                    eprintln!("[pipebench] {e}");
                    rep.op(false);
                }
            }
        }
        if epoch < REL_EPOCHS {
            for (a, &x) in answers.iter().zip(&exact) {
                rel.push(relative_error(a.value, x, s_bound));
            }
        }
        if tracer.enabled() {
            // The publish split: the forward transform and the noise
            // draw, as separate public calls on the same inputs.
            let t = Instant::now();
            let fwd = hn.forward_with(&mut exec, fm.matrix());
            forward_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rep.gate("refresh: HnTransform::forward_with", fwd.is_ok());
            let mut rng = derive_rng(cfg.seed, 0);
            let t = Instant::now();
            unit_laplace.sample_into(&mut rng, &mut noise_buf);
            noise_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        epoch += 1;
    }

    let refresh_s: f64 = refresh_ms.iter().sum::<f64>() / 1e3;
    rep.set("op_ms_p50", median(&refresh_ms));
    rep.set("op_ms_tail", percentile(&refresh_ms, 75.0));
    rep.set(
        "work_per_s",
        (PLAN_QUERIES * refresh_ms.len()) as f64 / refresh_s,
    );
    rep.set("floor_ms_p50", median(&floor_ms));
    rep.set("rel_error_p50", median(&rel));
    rep.set("bench.ops", refresh_ms.len() as f64);
    floor.report(rep);
    if tracer.enabled() {
        let spans = tracer.into_spans();
        rep.set(
            "core.mechanism.publish_ms_p50",
            median(&durations_ms(
                &spans,
                "core.mechanism.publish_coefficients_with",
            )),
        );
        rep.set("core.transform.forward_ms", median(&forward_ms));
        rep.set(
            "core.transform.bytes_computed",
            ((schema.cell_count() + hn.output_cells()) * std::mem::size_of::<f64>()) as f64,
        );
        rep.set("noise.sample_ms", median(&noise_ms));
        rep.set(
            "query.release.build_ms_p50",
            median(&durations_ms(&spans, "query.release.from_output")),
        );
        rep.set(
            "query.plan.execute_ms_p50",
            median(&durations_ms(
                &spans,
                "query.release.execute_plan_with_error",
            )),
        );
        rep.spans = spans;
    }
    Ok(())
}
