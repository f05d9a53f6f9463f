//! Attribute hierarchies for nominal domains.
//!
//! The paper (§II-A) assumes every nominal attribute has an associated
//! hierarchy: a tree whose leaves are the domain values and whose internal
//! nodes summarize the leaves below them (Figure 1's country hierarchy).
//! Hierarchies drive three things in this reproduction:
//!
//! 1. **Query semantics** — a nominal range-count predicate selects either a
//!    leaf or all leaves under an internal node (§II-A). We order each
//!    nominal domain by a left-to-right traversal so that every node's
//!    leaves occupy a *contiguous* range of positions (§V-A's imposed total
//!    order), letting the query engine treat nominal predicates as
//!    intervals.
//! 2. **The nominal wavelet transform** (§V) — one coefficient per hierarchy
//!    node, with weights determined by sibling-group sizes.
//! 3. **Privacy accounting** — the generalized sensitivity of the nominal
//!    transform is the hierarchy height `h` (Lemma 4).
//!
//! Invariants enforced by the builders: every internal node has at least two
//! children (the paper's assumption guaranteeing `h ≤ log₂ m`; it also keeps
//! the weight `f/(2f−2)` finite), and leaves are indexed `0..leaf_count` in
//! traversal order.

// No unsafe anywhere in this crate — enforced at compile time (and
// pinned by privelet-analysis lint US002). The only workspace crate
// with unsafe code is privelet-matrix (the lane executor).
#![forbid(unsafe_code)]

pub mod builder;
pub mod tree;

pub use builder::Spec;
pub use tree::Hierarchy;

/// Errors produced by hierarchy construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// An internal node has fewer than two children.
    UndersizedInternal { label: String, children: usize },
    /// A balanced builder was asked for zero leaves or zero fanout.
    ZeroSize,
    /// A three-level builder cannot distribute leaves so that every group
    /// has at least two leaves.
    InfeasibleGrouping { leaves: usize, groups: usize },
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::UndersizedInternal { label, children } => write!(
                f,
                "internal node '{label}' has {children} child(ren); every internal node needs >= 2"
            ),
            HierarchyError::ZeroSize => write!(f, "hierarchy must have at least one leaf"),
            HierarchyError::InfeasibleGrouping { leaves, groups } => write!(
                f,
                "cannot split {leaves} leaves into {groups} groups of >= 2 leaves each"
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, HierarchyError>;
