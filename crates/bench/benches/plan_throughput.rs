//! `plan_throughput`: queries/sec through the compiled-plan hot path.
//!
//! Plan execution (interned supports in one arena + the shared 4-wide
//! unrolled sparse dot + locality-ordered distinct evaluation) is judged
//! by this single number: how many queries per second `answer_plan` sustains at
//! m = 2^18 with a 1024-query workload (the ISSUE-6 acceptance point).
//! Criterion's offline stub ignores CLI arguments, so this bench is a
//! hand-written harness:
//!
//! - `cargo bench --bench plan_throughput` — full run, prints a table of
//!   queries/sec per (m, workload) point plus the acceptance point.
//! - `... -- --test` — smoke mode: one tiny point (m = 2^10, 64
//!   queries), correctness assertions only; seconds, not minutes. CI
//!   runs this on every push.
//!
//! Every run, smoke or full, first checks one tiny Privelet⁺ release
//! (identity × nominal × Haar, 384 cells), the schema shape where every
//! storage domain is read: plan answers must equal online answers bit
//! for bit (value and std-dev), and each must lie within
//! `1e-9·max(1, |total|)` of a dense `PrefixSums` oracle over the
//! release's `inverse_refined` reconstruction.
//! - `... -- --record <path>` — additionally writes the measured points
//!   as JSON (the `BENCH_plan_throughput.json` before/after ledger is
//!   assembled from two such runs).
//!
//! Methodology: per point, `answer_plan` is repeated until ≥0.5 s of
//! wall time has accumulated (minimum 10 iterations) and the *best*
//! iteration is reported — best-of is the right statistic for a
//! single-threaded CPU-bound kernel on a noisy shared box, since all
//! perturbation is additive.

use privelet::mechanism::{publish_coefficients, PriveletConfig};
use privelet_bench::json::Json;
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_hierarchy::builder::three_level;
use privelet_matrix::{NdMatrix, PrefixSums};
use privelet_query::{generate_workload, ConcurrentEngine, RangeQuery, WorkloadConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// One measured sweep point.
struct Point {
    exp: u32,
    n_queries: usize,
    compile_secs: f64,
    execute_secs: f64,
    queries_per_sec: f64,
}

fn release_for(exp: u32) -> (Schema, privelet::mechanism::CoefficientOutput) {
    let m = 1usize << exp;
    let schema = Schema::new(vec![Attribute::ordinal("v", m)]).unwrap();
    let data: Vec<f64> = (0..m).map(|i| ((i * 31) % 101) as f64).collect();
    let fm = FrequencyMatrix::from_parts(schema.clone(), NdMatrix::from_vec(&[m], data).unwrap())
        .unwrap();
    let out = publish_coefficients(&fm, &PriveletConfig::pure(1.0, 7)).unwrap();
    (schema, out)
}

fn workload_for(schema: &Schema, n_queries: usize) -> Vec<RangeQuery> {
    // Unlike `query_answering_batched`'s 64-query dashboard catalog,
    // every query here is independently drawn: the plan keeps ~n_queries
    // distinct supports, so the arena is large enough (≈30k entries at
    // the acceptance point) that execution is genuinely bound by the
    // dot-product kernel, not by the per-query fan-out loop.
    generate_workload(
        schema,
        &WorkloadConfig {
            n_queries,
            min_predicates: 1,
            max_predicates: 1,
            seed: 42,
        },
    )
    .unwrap()
}

/// The mixed Privelet⁺ gate: an identity axis (age, 6 values in SA), a
/// nominal axis (8 leaves in 2 groups) and a Haar axis (8 values) — 384
/// cells, so every storage domain is read. Asserts plan == online bitwise
/// and every answer within `1e-9·max(1, |total|)` of the dense oracle.
fn check_mixed_release() -> usize {
    let schema = Schema::new(vec![
        Attribute::ordinal("age", 6),
        Attribute::nominal("occupation", three_level(8, 2).unwrap()),
        Attribute::ordinal("income", 8),
    ])
    .unwrap();
    let n = schema.cell_count();
    let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64).collect();
    let fm = FrequencyMatrix::from_parts(
        schema.clone(),
        NdMatrix::from_vec(&schema.dims(), data).unwrap(),
    )
    .unwrap();
    let cfg = PriveletConfig::plus(1.0, BTreeSet::from([0]), 11);
    let out = publish_coefficients(&fm, &cfg).unwrap();
    let engine = ConcurrentEngine::from_output(&out).unwrap();
    let queries = generate_workload(
        &schema,
        &WorkloadConfig {
            n_queries: 256,
            min_predicates: 1,
            max_predicates: 3,
            seed: 5,
        },
    )
    .unwrap();
    let oracle = PrefixSums::build(&out.transform.inverse_refined(&out.coefficients).unwrap());
    let tol = 1e-9 * engine.total().abs().max(1.0);
    let plan = engine.plan(&queries).unwrap();
    let batch = engine.answer_plan_with_error(&plan).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, got) in queries.iter().zip(&batch) {
        let want = engine.answer_with_error(q).unwrap();
        assert_eq!(
            (got.value.to_bits(), got.std_dev.to_bits()),
            (want.value.to_bits(), want.std_dev.to_bits()),
            "mixed release, plan vs online: {got:?} vs {want:?}"
        );
        let (lo, hi) = q.bounds(&schema).unwrap();
        let dense = oracle.rect_sum(&lo, &hi).unwrap();
        assert!(
            (got.value - dense).abs() <= tol,
            "mixed release, plan {} vs dense {dense} on {q:?}",
            got.value
        );
    }
    queries.len()
}

/// Best-of timing: repeat `f` until ≥`budget_secs` of wall time has
/// accumulated (min 10 iters) and return the fastest single iteration.
fn best_of<R>(budget_secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0u32;
    while spent < budget_secs || iters < 10 {
        let t = Instant::now();
        black_box(f());
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

fn measure(exp: u32, n_queries: usize, budget_secs: f64) -> Point {
    let (schema, out) = release_for(exp);
    let coeff = ConcurrentEngine::from_output(&out).unwrap();
    let queries = workload_for(&schema, n_queries);

    let plan = coeff.plan(&queries).unwrap();
    // Correctness gate before timing: the plan path runs the online
    // path's derivation and walk, so it must equal the online per-query
    // loop bit for bit — value and std-dev.
    let batch = coeff.answer_plan_with_error(&plan).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, got) in queries.iter().zip(&batch) {
        let want = coeff.answer_with_error(q).unwrap();
        assert_eq!(
            (got.value.to_bits(), got.std_dev.to_bits()),
            (want.value.to_bits(), want.std_dev.to_bits()),
            "plan vs online at 2^{exp}: {got:?} vs {want:?}"
        );
    }

    let compile_secs = best_of(budget_secs, || coeff.plan(&queries).unwrap());
    let execute_secs = best_of(budget_secs, || coeff.answer_plan(&plan).unwrap());
    Point {
        exp,
        n_queries,
        compile_secs,
        execute_secs,
        queries_per_sec: n_queries as f64 / execute_secs,
    }
}

fn to_json(points: &[Point]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                let mut obj = BTreeMap::new();
                obj.insert("m_exp".into(), Json::Num(p.exp as f64));
                obj.insert("workload".into(), Json::Num(p.n_queries as f64));
                obj.insert("compile_secs".into(), Json::Num(p.compile_secs));
                obj.insert("execute_secs".into(), Json::Num(p.execute_secs));
                obj.insert("queries_per_sec".into(), Json::Num(p.queries_per_sec));
                Json::Obj(obj)
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--test");
    let record = args
        .iter()
        .position(|a| a == "--record")
        .map(|i| args.get(i + 1).expect("--record needs a path").clone());

    let sweep: &[(u32, usize)] = if smoke {
        &[(10, 64)]
    } else {
        // The acceptance point (2^18, 1024) plus flanking points so a
        // regression at one size can't hide behind a win at another.
        &[(14, 1024), (18, 64), (18, 1024), (20, 1024)]
    };
    let budget = if smoke { 0.02 } else { 0.5 };

    let checked = check_mixed_release();
    println!("mixed Privelet+ release: {checked} queries, plan == online == dense");

    let mut points = Vec::new();
    println!(
        "{:>6} {:>9} {:>13} {:>13} {:>13}",
        "m", "queries", "compile_s", "execute_s", "queries/s"
    );
    for &(exp, n_queries) in sweep {
        let p = measure(exp, n_queries, budget);
        println!(
            "  2^{:<3} {:>9} {:>13.6} {:>13.6} {:>13.0}",
            p.exp, p.n_queries, p.compile_secs, p.execute_secs, p.queries_per_sec
        );
        points.push(p);
    }

    if let Some(path) = record {
        std::fs::write(&path, to_json(&points).to_string())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("[bench] recorded {} points to {path}", points.len());
    }
    if smoke {
        println!("plan_throughput smoke OK");
    }
}
