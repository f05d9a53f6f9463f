//! Hierarchy builders: nested specs, balanced shapes, and a deterministic
//! random generator for tests.

use crate::tree::Hierarchy;
use crate::{HierarchyError, Result};

/// A nested hierarchy specification.
///
/// ```
/// use privelet_hierarchy::Spec;
/// let h = Spec::internal(
///     "Any",
///     vec![
///         Spec::internal("North America", vec![Spec::leaf("USA"), Spec::leaf("Canada")]),
///         Spec::internal("South America", vec![Spec::leaf("Brazil"), Spec::leaf("Argentina")]),
///     ],
/// )
/// .build()
/// .unwrap();
/// assert_eq!(h.leaf_count(), 4);
/// assert_eq!(h.height(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// A domain value.
    Leaf(String),
    /// An internal node with a label and at least two children.
    Internal(String, Vec<Spec>),
}

impl Spec {
    /// Leaf spec from any string-like label.
    pub fn leaf(label: impl Into<String>) -> Spec {
        Spec::Leaf(label.into())
    }

    /// Internal-node spec from a label and children.
    pub fn internal(label: impl Into<String>, children: Vec<Spec>) -> Spec {
        Spec::Internal(label.into(), children)
    }

    /// Builds a validated [`Hierarchy`].
    pub fn build(&self) -> Result<Hierarchy> {
        let mut parent: Vec<Option<usize>> = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        let mut labels: Vec<String> = Vec::new();

        // Iterative pre-order construction so deep hierarchies can't blow
        // the stack.
        struct Frame<'a> {
            spec: &'a Spec,
            parent: Option<usize>,
        }
        let mut stack = vec![Frame {
            spec: self,
            parent: None,
        }];
        while let Some(Frame { spec, parent: p }) = stack.pop() {
            let id = parent.len();
            parent.push(p);
            children.push(Vec::new());
            if let Some(pid) = p {
                children[pid].push(id);
            }
            match spec {
                Spec::Leaf(label) => labels.push(label.clone()),
                Spec::Internal(label, kids) => {
                    if kids.len() < 2 {
                        return Err(HierarchyError::UndersizedInternal {
                            label: label.clone(),
                            children: kids.len(),
                        });
                    }
                    labels.push(label.clone());
                    for kid in kids.iter().rev() {
                        stack.push(Frame {
                            spec: kid,
                            parent: Some(id),
                        });
                    }
                }
            }
        }

        // The pre-order stack pushes children reversed, so each parent's
        // children list was appended in left-to-right order only if we fix
        // the order here: popping reversed pushes yields left-to-right, and
        // children were recorded at pop time, so they are already ordered.
        Ok(Hierarchy::from_parts(parent, children, labels))
    }
}

/// A flat hierarchy: a root with `leaves` leaf children (height 2). The
/// Gender attribute in Table III is `flat(2)`.
pub fn flat(leaves: usize) -> Result<Hierarchy> {
    match leaves {
        0 => Err(HierarchyError::ZeroSize),
        1 => Spec::leaf("v0").build(),
        _ => Spec::internal(
            "root",
            (0..leaves).map(|i| Spec::leaf(format!("v{i}"))).collect(),
        )
        .build(),
    }
}

/// A three-level hierarchy: root → `groups` mid-level nodes → `leaves`
/// leaves distributed as evenly as possible (group sizes differ by at most
/// one). Used for the census Occupation attribute (512 leaves, height 3)
/// and the timing datasets (√|A| mid nodes, §VII-B).
pub fn three_level(leaves: usize, groups: usize) -> Result<Hierarchy> {
    if leaves == 0 || groups == 0 {
        return Err(HierarchyError::ZeroSize);
    }
    if groups < 2 || leaves < 2 * groups {
        return Err(HierarchyError::InfeasibleGrouping { leaves, groups });
    }
    let base = leaves / groups;
    let extra = leaves % groups;
    let mut next_leaf = 0usize;
    let mut mid = Vec::with_capacity(groups);
    for g in 0..groups {
        let size = base + usize::from(g < extra);
        let kids: Vec<Spec> = (0..size)
            .map(|_| {
                let s = Spec::leaf(format!("v{next_leaf}"));
                next_leaf += 1;
                s
            })
            .collect();
        mid.push(Spec::internal(format!("g{g}"), kids));
    }
    Spec::internal("root", mid).build()
}

/// A perfectly balanced hierarchy with the given fanout at each internal
/// level. `balanced(&[2, 3])` is the Figure-3 shape: a root with 2
/// children, each with 3 leaves; height = `fanouts.len() + 1`.
pub fn balanced(fanouts: &[usize]) -> Result<Hierarchy> {
    if fanouts.iter().any(|&f| f < 2) {
        return Err(HierarchyError::UndersizedInternal {
            label: "balanced".into(),
            children: *fanouts.iter().find(|&&f| f < 2).unwrap_or(&0),
        });
    }
    fn grow(fanouts: &[usize], counter: &mut usize) -> Spec {
        match fanouts.split_first() {
            None => {
                let s = Spec::leaf(format!("v{counter}"));
                *counter += 1;
                s
            }
            Some((&f, rest)) => {
                let kids = (0..f).map(|_| grow(rest, counter)).collect();
                Spec::internal("n", kids)
            }
        }
    }
    let mut counter = 0usize;
    grow(fanouts, &mut counter).build()
}

/// Deterministic pseudo-random hierarchy generator for tests: grows a tree
/// with `leaves` leaves whose internal fanouts vary in `[2, max_fanout]`.
/// Uses a tiny xorshift so the crate needs no RNG dependency.
pub fn random(leaves: usize, max_fanout: usize, seed: u64) -> Result<Hierarchy> {
    if leaves == 0 {
        return Err(HierarchyError::ZeroSize);
    }
    let max_fanout = max_fanout.max(2);
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut counter = 0usize;
    fn grow(
        remaining: usize,
        max_fanout: usize,
        next: &mut impl FnMut() -> u64,
        counter: &mut usize,
    ) -> Spec {
        if remaining == 1 {
            let s = Spec::leaf(format!("v{counter}"));
            *counter += 1;
            return s;
        }
        // Pick a fanout f in [2, min(max_fanout, remaining)], then split
        // `remaining` leaves into f parts of >= 1 leaf each.
        let cap = max_fanout.min(remaining);
        let f = 2 + (next() as usize) % (cap - 1);
        let mut parts = vec![1usize; f];
        for _ in 0..remaining - f {
            let i = (next() as usize) % f;
            parts[i] += 1;
        }
        let kids = parts
            .into_iter()
            .map(|p| grow(p, max_fanout, next, counter))
            .collect();
        Spec::internal("n", kids)
    }
    grow(leaves, max_fanout, &mut next, &mut counter).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_rejects_undersized_internal() {
        let bad = Spec::internal("x", vec![Spec::leaf("a")]);
        assert_eq!(
            bad.build().unwrap_err(),
            HierarchyError::UndersizedInternal {
                label: "x".into(),
                children: 1
            }
        );
        let empty = Spec::internal("y", vec![]);
        assert!(empty.build().is_err());
    }

    #[test]
    fn flat_builds_height_two() {
        let h = flat(5).unwrap();
        assert_eq!(h.leaf_count(), 5);
        assert_eq!(h.height(), 2);
        assert_eq!(h.node_count(), 6);
        assert!(flat(0).is_err());
        assert_eq!(flat(1).unwrap().height(), 1);
    }

    #[test]
    fn three_level_distributes_evenly() {
        let h = three_level(10, 3).unwrap();
        assert_eq!(h.leaf_count(), 10);
        assert_eq!(h.height(), 3);
        let mids = h.nodes_at_level(2);
        assert_eq!(mids.len(), 3);
        let sizes: Vec<usize> = mids.iter().map(|&id| h.fanout(id)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
        // Leaf ranges must partition [0, 10).
        assert_eq!(h.leaf_range(mids[0]).0, 0);
        assert_eq!(h.leaf_range(*mids.last().unwrap()).1, 9);
    }

    #[test]
    fn three_level_rejects_infeasible() {
        assert!(three_level(3, 2).is_err()); // can't give both groups 2 leaves
        assert!(three_level(8, 1).is_err()); // single group -> not 3 levels
        assert!(three_level(0, 2).is_err());
    }

    #[test]
    fn three_level_occupation_shape() {
        // Census Occupation: 512 leaves, height 3 (Table III).
        let h = three_level(512, 22).unwrap();
        assert_eq!(h.leaf_count(), 512);
        assert_eq!(h.height(), 3);
        assert_eq!(h.node_count(), 512 + 22 + 1);
    }

    #[test]
    fn balanced_matches_figure3_shape() {
        let h = balanced(&[2, 3]).unwrap();
        assert_eq!(h.leaf_count(), 6);
        assert_eq!(h.height(), 3);
        assert_eq!(h.node_count(), 9);
        assert!(balanced(&[1, 3]).is_err());
    }

    #[test]
    fn balanced_deep() {
        let h = balanced(&[2, 2, 2, 2]).unwrap();
        assert_eq!(h.leaf_count(), 16);
        assert_eq!(h.height(), 5);
    }

    #[test]
    fn random_is_deterministic_and_valid() {
        for leaves in [1usize, 2, 3, 7, 20, 63] {
            for seed in [1u64, 42, 12345] {
                let a = random(leaves, 5, seed).unwrap();
                let b = random(leaves, 5, seed).unwrap();
                assert_eq!(a, b, "determinism for leaves={leaves} seed={seed}");
                assert_eq!(a.leaf_count(), leaves);
                for g in a.sibling_groups() {
                    assert!(g.len() >= 2);
                }
                // Leaf positions must be 0..leaves in order.
                for pos in 0..leaves {
                    assert_eq!(a.leaf_range(a.leaf_node(pos)), (pos, pos));
                }
            }
        }
    }

    #[test]
    fn random_varies_with_seed() {
        let a = random(30, 6, 1).unwrap();
        let b = random(30, 6, 2).unwrap();
        assert_ne!(a, b);
    }
}
