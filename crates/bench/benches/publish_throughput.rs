//! `publish_throughput`: cells/sec through the full publish pipeline.
//!
//! The cache-blocked lane-tile + fused-noise optimisation (ISSUE 8) is
//! judged by this number: how many cells per second `publish_privelet_with`
//! sustains — forward HN transform, weighted Laplace noise, refinement,
//! inverse transform — at the acceptance point m = 2^20 on a 2-dim schema
//! (the largest strided-axis configuration: axis 0 gathers with inner
//! stride 2^10). Criterion's offline stub ignores CLI arguments, so this
//! bench is a hand-written harness, same shape as `plan_throughput`:
//!
//! - `cargo bench --bench publish_throughput` — full run: a table of
//!   cells/sec per (m, ndim) point, m = 2^14..2^22 across 1–3-dim
//!   schemas, plus the acceptance point.
//! - `... -- --test` — smoke mode: tiny points, correctness assertions
//!   only (tiled == per-lane == fanned-out publish, bitwise); seconds, not
//!   minutes. CI runs this on every push.
//! - `... -- --record <path>` — additionally writes the measured points
//!   as JSON (the `BENCH_publish_throughput.json` before/after ledger is
//!   assembled from two such runs).
//! - `... -- --tiles` — tile-size calibration sweep at the acceptance
//!   point (the data behind the `DEFAULT_TILE_LANES` choice, recorded in
//!   docs/architecture.md).
//!
//! Methodology: per point, the publish is repeated until ≥0.5 s of wall
//! time has accumulated (minimum 5 iterations) and the *best* iteration
//! is reported — best-of is the right statistic for a single-threaded
//! CPU-bound kernel on a noisy shared box, since all perturbation is
//! additive. The executor is serial — the configuration the committed
//! `BENCH_publish_throughput.json` was recorded in; `pool_scaling` covers
//! thread counts — and is constructed once per point so its ping-pong
//! buffers and tile scratch amortize exactly as they do in a serving
//! loop.

use privelet::mechanism::{publish_privelet_with, PriveletConfig};
use privelet_bench::json::Json;
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_matrix::{LaneExecutor, NdMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One measured sweep point.
struct Point {
    exp: u32,
    ndim: usize,
    dims: Vec<usize>,
    publish_secs: f64,
    cells_per_sec: f64,
}

/// Splits `2^exp` cells across `ndim` ordinal dimensions as evenly as
/// powers of two allow (larger axes first: 2^20 over 3 dims is
/// `[128, 64, 64]`-style, keeping every axis a power of two).
fn dims_for(exp: u32, ndim: usize) -> Vec<usize> {
    let base = exp / ndim as u32;
    let extra = (exp % ndim as u32) as usize;
    (0..ndim)
        .map(|i| 1usize << (base + u32::from(i < extra)))
        .collect()
}

fn fm_for(dims: &[usize]) -> FrequencyMatrix {
    let m: usize = dims.iter().product();
    let attrs = dims
        .iter()
        .enumerate()
        .map(|(i, &d)| Attribute::ordinal(format!("a{i}"), d))
        .collect();
    let schema = Schema::new(attrs).unwrap();
    let data: Vec<f64> = (0..m).map(|i| ((i * 31) % 101) as f64).collect();
    FrequencyMatrix::from_parts(schema, NdMatrix::from_vec(dims, data).unwrap()).unwrap()
}

/// Best-of timing: repeat `f` until ≥`budget_secs` of wall time has
/// accumulated (min 5 iters) and return the fastest single iteration.
fn best_of<R>(budget_secs: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0u32;
    while spent < budget_secs || iters < 5 {
        let t = Instant::now();
        black_box(f());
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

fn measure(exp: u32, ndim: usize, budget_secs: f64) -> Point {
    let dims = dims_for(exp, ndim);
    let fm = fm_for(&dims);
    let cfg = PriveletConfig::pure(1.0, 7);
    let mut exec = LaneExecutor::serial();
    // Warm the executor's buffers before timing.
    publish_privelet_with(&mut exec, &fm, &cfg).unwrap();
    let publish_secs = best_of(budget_secs, || {
        publish_privelet_with(&mut exec, &fm, &cfg).unwrap()
    });
    let m: usize = dims.iter().product();
    Point {
        exp,
        ndim,
        dims,
        publish_secs,
        cells_per_sec: m as f64 / publish_secs,
    }
}

/// Smoke gate: the publish must be identical no matter how the engine
/// schedules lanes — per-lane (tile width 1), tiled (default width),
/// wide tiles, and the fanned-out parallel path must all produce the same
/// bits for the same seed.
fn assert_paths_agree() {
    for dims in [vec![1 << 10], vec![64, 32], vec![16, 8, 8]] {
        let fm = fm_for(&dims);
        let cfg = PriveletConfig::pure(1.0, 11);
        let mut reference = LaneExecutor::serial().with_tile_lanes(1);
        let want = publish_privelet_with(&mut reference, &fm, &cfg).unwrap();
        let mut variants: Vec<(&str, LaneExecutor)> = vec![
            ("default-tile", LaneExecutor::serial()),
            ("tile-64", LaneExecutor::serial().with_tile_lanes(64)),
            (
                "fanned",
                LaneExecutor::with_threads(4).with_parallel_threshold(0),
            ),
        ];
        for (name, exec) in &mut variants {
            let got = publish_privelet_with(exec, &fm, &cfg).unwrap();
            let bits = |m: &NdMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.matrix.matrix()),
                bits(want.matrix.matrix()),
                "{name} publish diverged from per-lane at dims {dims:?}"
            );
        }
    }
}

fn to_json(points: &[Point]) -> Json {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                let mut obj = BTreeMap::new();
                obj.insert("m_exp".into(), Json::Num(p.exp as f64));
                obj.insert("ndim".into(), Json::Num(p.ndim as f64));
                obj.insert(
                    "dims".into(),
                    Json::Arr(p.dims.iter().map(|&d| Json::Num(d as f64)).collect()),
                );
                obj.insert("publish_secs".into(), Json::Num(p.publish_secs));
                obj.insert("cells_per_sec".into(), Json::Num(p.cells_per_sec));
                Json::Obj(obj)
            })
            .collect(),
    )
}

/// Tile-size calibration: cells/sec at the acceptance point for a sweep
/// of `with_tile_lanes` values (1 = the per-lane path).
fn tile_sweep() {
    let dims = dims_for(20, 2);
    let fm = fm_for(&dims);
    let cfg = PriveletConfig::pure(1.0, 7);
    println!("{:>6} {:>13} {:>15}", "tile", "publish_s", "cells/s");
    for tile in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let mut exec = LaneExecutor::serial().with_tile_lanes(tile);
        publish_privelet_with(&mut exec, &fm, &cfg).unwrap();
        let secs = best_of(0.5, || publish_privelet_with(&mut exec, &fm, &cfg).unwrap());
        let m: usize = dims.iter().product();
        println!("{:>6} {:>13.6} {:>15.0}", tile, secs, m as f64 / secs);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--test");
    let tiles = args.iter().any(|a| a == "--tiles");
    let record = args
        .iter()
        .position(|a| a == "--record")
        .map(|i| args.get(i + 1).expect("--record needs a path").clone());

    if tiles {
        tile_sweep();
        return;
    }

    let sweep: &[(u32, usize)] = if smoke {
        &[(12, 1), (12, 2), (12, 3)]
    } else {
        // The acceptance point (2^20, 2-dim) plus the full m × ndim grid
        // so a regression at one shape can't hide behind a win at
        // another.
        &[
            (14, 1),
            (14, 2),
            (14, 3),
            (16, 1),
            (16, 2),
            (16, 3),
            (18, 1),
            (18, 2),
            (18, 3),
            (20, 1),
            (20, 2),
            (20, 3),
            (22, 1),
            (22, 2),
            (22, 3),
        ]
    };
    let budget = if smoke { 0.02 } else { 0.5 };

    let mut points = Vec::new();
    println!(
        "{:>6} {:>5} {:>18} {:>13} {:>15}",
        "m", "ndim", "dims", "publish_s", "cells/s"
    );
    for &(exp, ndim) in sweep {
        let p = measure(exp, ndim, budget);
        println!(
            "  2^{:<3} {:>5} {:>18} {:>13.6} {:>15.0}",
            p.exp,
            p.ndim,
            format!("{:?}", p.dims),
            p.publish_secs,
            p.cells_per_sec
        );
        points.push(p);
    }

    if let Some(path) = record {
        std::fs::write(&path, to_json(&points).to_string())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("[bench] recorded {} points to {path}", points.len());
    }
    if smoke {
        assert_paths_agree();
        println!("publish_throughput smoke OK");
    }
}
