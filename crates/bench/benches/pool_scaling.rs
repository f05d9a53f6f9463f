//! `pool_scaling`: publish wall time vs worker-pool width.
//!
//! The persistent [`WorkerPool`](privelet_matrix::WorkerPool) exists to
//! amortize thread spawn/join across the many lane stages of a publish;
//! this harness shows how a full `publish_coefficients_with` call scales
//! as the executor's thread count grows. Hand-written for the same
//! reason as `plan_throughput` (the offline criterion stub ignores CLI
//! args):
//!
//! - `cargo bench --bench pool_scaling` — full run:
//!   2-D publish (2^12 × 2^6 cells) at 1, 2, 4, … threads up to the
//!   core count, each on a reused executor so the pool is warm.
//! - `... -- --test` — smoke mode: tiny matrix, correctness assertion
//!   (threaded output bit-identical to serial) only.
//!
//! **Auto-skip**: scaling numbers from a box with one hardware thread
//! are noise — more workers than cores just adds scheduling overhead to
//! a fixed amount of work. On such machines the full run prints the
//! skip reason and exits cleanly, so
//! CI and scripts can invoke it unconditionally. Smoke mode always
//! runs: correctness does not need cores.

use privelet::mechanism::{publish_coefficients_with, PriveletConfig};
use privelet_data::schema::{Attribute, Schema};
use privelet_data::FrequencyMatrix;
use privelet_matrix::{LaneExecutor, NdMatrix};
use std::hint::black_box;
use std::time::Instant;

fn fixture(rows: usize, cols: usize) -> FrequencyMatrix {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", rows),
        Attribute::ordinal("b", cols),
    ])
    .unwrap();
    let n = rows * cols;
    let data: Vec<f64> = (0..n).map(|i| ((i * 37) % 251) as f64).collect();
    FrequencyMatrix::from_parts(
        schema.clone(),
        NdMatrix::from_vec(&[rows, cols], data).unwrap(),
    )
    .unwrap()
}

/// Best-of publish time on a reused (warm-pool) executor.
fn best_publish(exec: &mut LaneExecutor, fm: &FrequencyMatrix, budget_secs: f64) -> f64 {
    let cfg = PriveletConfig::pure(1.0, 7);
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0u32;
    while spent < budget_secs || iters < 5 {
        let t = Instant::now();
        black_box(publish_coefficients_with(exec, fm, &cfg).unwrap());
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

fn smoke() {
    // Correctness, not speed: a many-thread executor (forced past the
    // cut-over) must publish bit-identically to the serial one.
    let fm = fixture(1 << 6, 1 << 3);
    let cfg = PriveletConfig::pure(1.0, 11);
    let mut wide = LaneExecutor::with_threads(4).with_parallel_threshold(0);
    let threaded = publish_coefficients_with(&mut wide, &fm, &cfg).unwrap();
    let serial = publish_coefficients_with(&mut LaneExecutor::serial(), &fm, &cfg).unwrap();
    for (a, b) in threaded
        .coefficients
        .as_slice()
        .iter()
        .zip(serial.coefficients.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "threaded vs serial publish");
    }
    println!("pool_scaling smoke OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--test") {
        smoke();
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores <= 1 {
        println!("pool_scaling: skipped (1 hardware thread — scaling numbers would be noise)");
        return;
    }

    let fm = fixture(1 << 12, 1 << 6);
    println!("{:>8} {:>13} {:>9}", "threads", "publish_s", "speedup");
    let mut serial_secs = None;
    let mut t = 1;
    while t <= cores {
        let mut exec = LaneExecutor::with_threads(t);
        let secs = best_publish(&mut exec, &fm, 0.5);
        let base = *serial_secs.get_or_insert(secs);
        println!("{t:>8} {secs:>13.6} {:>8.2}x", base / secs);
        t *= 2;
    }
}
