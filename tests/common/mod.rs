//! Shared fixtures for the workspace-root serving tests: random mixed
//! schemas, deterministic data matrices, repeat-heavy workloads, the
//! ground-truth triple count, and the stress-iteration knob.
//!
//! Each integration-test binary compiles this module independently
//! (`mod common;`), so helpers unused by one binary are expected —
//! hence the file-level `allow(dead_code)`.

#![allow(dead_code)]

use privelet_repro::data::schema::{Attribute, Schema};
use privelet_repro::data::FrequencyMatrix;
use privelet_repro::hierarchy::builder::random as random_hierarchy;
use privelet_repro::matrix::NdMatrix;
use privelet_repro::query::{generate_workload, RangeQuery, WorkloadConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One random dimension: ordinal, nominal (random hierarchy), or SA.
#[derive(Debug, Clone)]
pub enum DimSpec {
    Ordinal(usize),
    Nominal { leaves: usize, seed: u64 },
    Sa(usize),
}

pub fn dim_spec() -> impl Strategy<Value = DimSpec> {
    prop_oneof![
        (1usize..=12).prop_map(DimSpec::Ordinal),
        ((1usize..=12), any::<u64>()).prop_map(|(leaves, seed)| DimSpec::Nominal { leaves, seed }),
        (1usize..=12).prop_map(DimSpec::Sa),
    ]
}

pub fn build(specs: &[DimSpec]) -> (Schema, BTreeSet<usize>) {
    let mut sa = BTreeSet::new();
    let attrs = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| match spec {
            DimSpec::Ordinal(n) => Attribute::ordinal(format!("o{i}"), *n),
            DimSpec::Nominal { leaves, seed } => Attribute::nominal(
                format!("n{i}"),
                random_hierarchy(*leaves, 4, *seed).expect("random hierarchy is valid"),
            ),
            DimSpec::Sa(n) => {
                sa.insert(i);
                Attribute::ordinal(format!("s{i}"), *n)
            }
        })
        .collect();
    (Schema::new(attrs).expect("generated schema is valid"), sa)
}

/// 1–3 dimensions, as the equivalence contracts state.
pub fn schema_strategy() -> impl Strategy<Value = (Schema, BTreeSet<usize>)> {
    prop::collection::vec(dim_spec(), 1..=3).prop_map(|specs| build(&specs))
}

/// A deterministic pseudo-random frequency matrix over `schema`.
pub fn data_matrix(schema: &Schema, seed: u64) -> FrequencyMatrix {
    let n = schema.cell_count();
    let data: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 40) & 0xFF) as f64)
        .collect();
    FrequencyMatrix::from_parts(
        schema.clone(),
        NdMatrix::from_vec(&schema.dims(), data).unwrap(),
    )
    .unwrap()
}

/// A small workload guaranteed to contain a repeated whole query and the
/// unconstrained query, so dedup pools and caches always have work.
pub fn workload(schema: &Schema, seed: u64) -> Vec<RangeQuery> {
    let mut queries = generate_workload(
        schema,
        &WorkloadConfig {
            n_queries: 24,
            min_predicates: 1,
            max_predicates: schema.arity().min(3),
            seed,
        },
    )
    .unwrap();
    // Repeats and the unconstrained query exercise the dedup pool.
    let repeat = queries[0].clone();
    queries.push(repeat);
    queries.push(RangeQuery::all(schema.arity()));
    queries
}

/// Distinct `(dim, lo, hi)` triples a workload resolves to — the ground
/// truth plan/cache dedup counters are checked against.
pub fn distinct_triples(schema: &Schema, queries: &[RangeQuery]) -> usize {
    let mut triples = BTreeSet::new();
    for q in queries {
        let (lo, hi) = q.bounds(schema).unwrap();
        for dim in 0..schema.arity() {
            triples.insert((dim, lo[dim], hi[dim]));
        }
    }
    triples.len()
}

/// Iteration count for thread-stress loops: the `PRIVELET_STRESS_ITERS`
/// environment variable when set (CI runs the concurrent suite under
/// `--release` with a higher value), otherwise `default` — kept small
/// so debug runs on few-core machines stay fast.
pub fn stress_iters(default: usize) -> usize {
    std::env::var("PRIVELET_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Compile-time `Send + Sync` witness, usable from test bodies:
/// `assert_send_sync::<QueryPlan>();`.
pub fn assert_send_sync<T: Send + Sync>() {}
