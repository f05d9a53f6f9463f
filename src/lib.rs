//! Umbrella crate for the Privelet reproduction workspace.
//!
//! Re-exports every workspace crate under a stable module name so that the
//! repository-level integration tests (`tests/`) and runnable examples
//! (`examples/`) depend on a single crate.
//!
//! The individual crates are:
//!
//! - [`matrix`] — dense d-dimensional `f64` arrays, lane maps, prefix sums.
//! - [`hierarchy`] — attribute hierarchies for nominal domains.
//! - [`noise`] — the Laplace distribution and seedable RNG helpers.
//! - [`data`] — schemas, columnar tables, frequency matrices, generators.
//! - [`query`] — range-count queries, workloads, error metrics.
//! - [`core`] — the paper's contribution: wavelet transforms + mechanisms.
//! - [`eval`] — the experiment harness regenerating the paper's figures.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). The only workspace crate
// with unsafe code is privelet-matrix (the lane executor).
#![forbid(unsafe_code)]

pub use privelet as core;
pub use privelet_data as data;
pub use privelet_eval as eval;
pub use privelet_hierarchy as hierarchy;
pub use privelet_matrix as matrix;
pub use privelet_noise as noise;
pub use privelet_query as query;
