//! Worker-pool persistence across whole publishes: one `LaneExecutor`
//! reused for a sequence of publishes (the pool spawns once on the
//! first fanned-out stage and serves every later pipeline) must produce
//! bit-identical releases to a fresh executor per publish — and to the
//! serial reference executor. The reused executor genuinely routes every
//! stage through its pool.

mod common;

use common::{data_matrix, stress_iters};
use privelet_repro::core::mechanism::{publish_coefficients_with, PriveletConfig};
use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::matrix::LaneExecutor;
use std::collections::BTreeSet;

/// A fanned-out executor: more threads than the box has cores and a
/// zero cut-over, so every stage routes through the worker pool even on
/// a single-CPU machine.
fn fanned_out() -> LaneExecutor {
    LaneExecutor::with_threads(4).with_parallel_threshold(0)
}

#[test]
fn reused_executor_publishes_bit_identically_to_fresh_executors() {
    let schema = Schema::new(vec![
        Attribute::ordinal("a", 1 << 8),
        Attribute::ordinal("b", 1 << 4),
    ])
    .unwrap();
    let mut sa = BTreeSet::new();
    sa.insert(1usize);

    let publishes = stress_iters(3).max(3);
    let mut reused = fanned_out();
    for round in 0..publishes {
        let fm = data_matrix(&schema, 1000 + round as u64);
        // Alternate Privelet and Privelet⁺ configs so the reused pool
        // serves different pipeline shapes back to back.
        let cfg = if round % 2 == 0 {
            PriveletConfig::pure(1.0, round as u64)
        } else {
            PriveletConfig::plus(0.5, sa.clone(), round as u64)
        };

        let via_reused = publish_coefficients_with(&mut reused, &fm, &cfg).unwrap();
        let via_fresh = publish_coefficients_with(&mut fanned_out(), &fm, &cfg).unwrap();
        let via_serial = publish_coefficients_with(&mut LaneExecutor::serial(), &fm, &cfg).unwrap();

        let a = via_reused.coefficients.as_slice();
        let b = via_fresh.coefficients.as_slice();
        let c = via_serial.coefficients.as_slice();
        assert_eq!(a.len(), b.len());
        for (i, ((x, y), z)) in a.iter().zip(b).zip(c).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "round {round}, coeff {i}: reused vs fresh"
            );
            assert_eq!(
                x.to_bits(),
                z.to_bits(),
                "round {round}, coeff {i}: reused vs serial"
            );
        }
        assert_eq!(via_reused.meta, via_fresh.meta, "round {round}");
    }
}
