//! Schemas, tables, frequency matrices and synthetic dataset generators.
//!
//! This crate is the data substrate of the reproduction:
//!
//! - [`schema`] — attribute definitions: ordinal domains (discrete, ordered)
//!   and nominal domains (discrete, unordered, with an associated
//!   [`privelet_hierarchy::Hierarchy`]), exactly the data model of §II-A.
//! - [`table`] — a columnar relational table `T` storing one `u32` value per
//!   attribute per tuple.
//! - [`freq`] — the frequency matrix `M` of `T` (the lowest level of the
//!   data cube), built in O(n + m).
//! - [`distributions`] — discrete samplers (Zipf, discretized log-normal,
//!   piecewise-uniform) used by the generators.
//! - [`census`] — synthetic census-like datasets with the attribute domains
//!   of Table III (Brazil / US). **Substitution note:** the paper evaluates
//!   on IPUMS-International extracts which are not redistributable; these
//!   generators reproduce the published schema (domain sizes, hierarchy
//!   heights, tuple counts) and realistic heavy-tailed marginals, which are
//!   the properties the evaluation's error profiles depend on (see
//!   DESIGN.md §2).
//! - [`uniform`] — the uniform synthetic datasets of §VII-B used for the
//!   computation-time experiments (Figures 10 and 11).
//! - [`medical`] — the 8-tuple medical-records example of Tables I and II.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). The only workspace crate
// with unsafe code is privelet-matrix (the lane executor).
#![forbid(unsafe_code)]

pub mod census;
pub mod distributions;
pub mod freq;
pub mod medical;
pub mod schema;
pub mod table;
pub mod uniform;

pub use freq::FrequencyMatrix;
pub use schema::{Attribute, Domain, Schema};
pub use table::Table;

/// Errors produced by schema/table/matrix construction.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A schema needs at least one attribute.
    EmptySchema,
    /// Attribute names must be unique.
    DuplicateAttribute(String),
    /// An ordinal attribute must have a non-empty domain.
    EmptyDomain(String),
    /// Total cell count overflows usize.
    TooManyCells,
    /// A row has the wrong number of values.
    WrongArity { expected: usize, got: usize },
    /// A value is outside its attribute's domain.
    ValueOutOfDomain {
        attr: String,
        value: u32,
        size: usize,
    },
    /// A matrix's dimensions do not match the schema.
    ShapeMismatch,
    /// A generator was given an invalid configuration.
    BadConfig(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::EmptySchema => write!(f, "schema needs at least one attribute"),
            DataError::DuplicateAttribute(name) => write!(f, "duplicate attribute '{name}'"),
            DataError::EmptyDomain(name) => write!(f, "attribute '{name}' has an empty domain"),
            DataError::TooManyCells => write!(f, "frequency matrix cell count overflows usize"),
            DataError::WrongArity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} attributes")
            }
            DataError::ValueOutOfDomain { attr, value, size } => {
                write!(f, "value {value} out of domain for '{attr}' (size {size})")
            }
            DataError::ShapeMismatch => write!(f, "matrix dimensions do not match schema"),
            DataError::BadConfig(msg) => write!(f, "bad generator config: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, DataError>;
