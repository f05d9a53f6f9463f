//! Laplace noise and statistics utilities.
//!
//! Both mechanisms in the paper inject independent Laplace noise: Basic adds
//! `Lap(λ)` to every frequency-matrix cell (§II-B), Privelet adds
//! `Lap(λ/W(c))` to every wavelet coefficient (§III-B). This crate provides
//! the [`Laplace`] distribution (sampling via inverse CDF, plus pdf / cdf /
//! variance used by tests), its discrete analogue
//! ([`TwoSidedGeometric`]), the [`NoiseDistribution`] trait the
//! mechanisms inject noise through, deterministic RNG plumbing ([`rng`]),
//! and streaming statistics ([`stats`]) used by the statistical tests and
//! the experiment harness.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). The only workspace crate
// with unsafe code is privelet-matrix (the lane executor).
#![forbid(unsafe_code)]

pub mod distribution;
pub mod geometric;
pub mod laplace;
pub mod rng;
pub mod stats;

pub use distribution::NoiseDistribution;
pub use geometric::TwoSidedGeometric;
pub use laplace::Laplace;
pub use rng::{derive_rng, seeded_rng};
pub use stats::RunningStats;

/// Errors produced by distribution construction.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// The Laplace scale must be finite and strictly positive.
    BadScale(f64),
}

impl std::fmt::Display for NoiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoiseError::BadScale(s) => {
                write!(f, "Laplace scale must be finite and > 0, got {s}")
            }
        }
    }
}

impl std::error::Error for NoiseError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, NoiseError>;
