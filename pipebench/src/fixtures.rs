//! The fixtures the workloads run on, all built from the CLI seed.

use crate::stats::{Ctx, SplitMix};
use privelet_data::census::{self, CensusConfig};
use privelet_data::schema::{Attribute, Schema};
use privelet_data::{FrequencyMatrix, Table};
use privelet_hierarchy::builder::three_level;
use privelet_matrix::NdMatrix;
use privelet_query::{generate_workload, RangeQuery, WorkloadConfig};
use std::collections::BTreeSet;

/// The 2-dim mixed streaming schema: ordinal 512 × nominal
/// `three_level(512, 8)`, m = 2^18 cells, 512 × 521 = 266,752
/// coefficients under pure Privelet.
pub fn stream_schema() -> Result<Schema, String> {
    let h = three_level(512, 8).ctx("three_level(512, 8)")?;
    Schema::new(vec![
        Attribute::ordinal("o", 512),
        Attribute::nominal("n", h),
    ])
    .ctx("stream schema")
}

/// Background counts of the streaming table (history that never
/// expires): independent small integers in `0..17`.
pub fn stream_background(schema: &Schema, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed, 0xBAC6);
    (0..schema.cell_count())
        .map(|_| rng.below(17) as f64)
        .collect()
}

pub fn frequency_matrix(schema: &Schema, cells: Vec<f64>) -> Result<FrequencyMatrix, String> {
    let m = NdMatrix::from_vec(&schema.dims(), cells).ctx("NdMatrix::from_vec")?;
    FrequencyMatrix::from_parts(schema.clone(), m).ctx("FrequencyMatrix::from_parts")
}

/// One batch of row arrivals: `clustered` rows land in one 64×64 tile
/// at a random origin (their coefficient paths overlap heavily),
/// uniform rows anywhere in the domain.
pub fn row_batch(dims: &[usize], rng: &mut SplitMix, n: usize, clustered: bool) -> Vec<Vec<usize>> {
    let tile: Vec<usize> = dims.iter().map(|&m| m.min(64)).collect();
    let origin: Vec<usize> = dims
        .iter()
        .zip(&tile)
        .map(|(&m, &t)| rng.below(m - t + 1))
        .collect();
    (0..n)
        .map(|_| {
            (0..dims.len())
                .map(|d| {
                    if clustered {
                        origin[d] + rng.below(tile[d])
                    } else {
                        rng.below(dims[d])
                    }
                })
                .collect()
        })
        .collect()
}

/// The census-shaped table of `serve` and `refresh`: Age 101 × Gender 2
/// × Occupation `three_level(64, 8)` × Income 256 (3,309,568 cells),
/// 1,000,000 tuples.
pub fn census_config(seed: u64) -> CensusConfig {
    CensusConfig {
        name: "pipebench".into(),
        age_size: 101,
        occupation_size: 64,
        occupation_groups: 8,
        income_size: 256,
        n_tuples: 1_000_000,
        seed,
    }
}

pub fn census_table(seed: u64) -> Result<Table, String> {
    census::generate(&census_config(seed)).ctx("census::generate")
}

/// Privelet⁺ with SA = {Age, Gender}, passed explicitly (the §VII-A
/// rule would also exclude Income at this size).
pub fn census_sa() -> BTreeSet<usize> {
    BTreeSet::from([census::AGE, census::GENDER])
}

/// `n` random range-count queries of the paper's §VII-A workload.
pub fn paper_queries(schema: &Schema, n: usize, seed: u64) -> Result<Vec<RangeQuery>, String> {
    let cfg = WorkloadConfig {
        n_queries: n,
        min_predicates: 1,
        max_predicates: 4,
        seed,
    };
    generate_workload(schema, &cfg).ctx("generate_workload")
}

/// Distinct per-dimension `(dim, lo, hi)` supports a query set needs —
/// the keys the online support cache holds.
pub fn distinct_supports(schema: &Schema, queries: &[RangeQuery]) -> Result<usize, String> {
    let mut keys = BTreeSet::new();
    for q in queries {
        let (lo, hi) = q.bounds(schema).ctx("RangeQuery::bounds")?;
        for d in 0..lo.len() {
            keys.insert((d, lo[d], hi[d]));
        }
    }
    Ok(keys.len())
}
