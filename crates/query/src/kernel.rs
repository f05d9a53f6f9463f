//! The one sparse-dot arithmetic every answering path runs.
//!
//! A range-count answer is the sparse tensor-product dot
//! `Σ ∏ᵢ wᵢ[kᵢ] · S[k₁,…,k_d]` over each dimension's support, against
//! the release's answer-ready storage `S` (see
//! [`ReleaseCore`](crate::ReleaseCore)). Both the
//! online per-query path ([`ReleaseCore::dot`]) and compiled-plan
//! execution ([`QueryPlan`]) compute it with [`tensor_dot`]: the same
//! walk over the same layout — parallel slices of stride-premultiplied
//! offsets and their weights (a [`DimSupport`]'s `offsets`/`weights`, or
//! a plan arena span holding a copy of them) — bottoming out in the same
//! [`gather_dot4`]. The two paths differ only in where a depth's support
//! slices live, so their answers are bitwise equal.
//!
//! The innermost loop is a gather-multiply-accumulate over one
//! dimension's support against the flat storage slice. Naively that
//! loop is a single dependency chain of floating-point adds — each
//! `acc += w·s[k]` waits ~4 cycles on the previous one, which dominates
//! a Haar support of ≲40 entries whose gather loads mostly hit cache.
//! (Identity and nominal supports are mostly 1–2 entries, so their
//! dots are the tail loop.)
//! [`gather_dot4`] breaks the chain with four independent accumulators
//! over 4-wide chunks and a deterministic final reduction
//! `((a0+a1)+(a2+a3)) + tail`.
//!
//! Determinism contract: the walk and the kernel are pure functions of
//! their inputs with a fixed summation order, so serial/parallel,
//! cached/uncached and plan/online answers are all bitwise equal.
//!
//! [`ReleaseCore::dot`]: crate::ReleaseCore::dot
//! [`QueryPlan`]: crate::QueryPlan
//! [`DimSupport`]: crate::DimSupport

/// `Σ_j w[j] · data[base + idx[j]]` with four independent accumulators.
///
/// `idx` holds stride-premultiplied linear offsets and `w` their
/// weights, as parallel slices (one `(offset, weight)` pair slice
/// measured ~10% slower on `plan_throughput`; see the summation-order
/// policy in `docs/architecture.md`). The caller guarantees
/// `base + idx[j]` is in bounds (support derivation validates against
/// the storage shape, so the slice indexing below never faults —
/// and stays checked anyway). The reduction order is fixed:
/// `((a0+a1)+(a2+a3)) + tail`, identical for every call with the same
/// inputs.
///
/// Always inlined: with two walk instantiations calling it, LLVM
/// otherwise keeps it out of line, and the call costs a measurable share
/// of a ~25 ns single-dimension plan query.
#[inline(always)]
pub(crate) fn gather_dot4(data: &[f64], base: usize, idx: &[usize], w: &[f64]) -> f64 {
    debug_assert_eq!(idx.len(), w.len());
    let n4 = idx.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (ks, ws) in idx[..n4].chunks_exact(4).zip(w[..n4].chunks_exact(4)) {
        a0 += ws[0] * data[base + ks[0]];
        a1 += ws[1] * data[base + ks[1]];
        a2 += ws[2] * data[base + ks[2]];
        a3 += ws[3] * data[base + ks[3]];
    }
    let mut tail = 0.0f64;
    for (&k, &wk) in idx[n4..].iter().zip(&w[n4..]) {
        tail += wk * data[base + k];
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// The sparse tensor-product dot of `ndim` per-dimension supports
/// against the flat storage data. `support(d)` returns dimension
/// `d`'s stride-premultiplied offsets and their weights.
///
/// Depth-first over dimensions, accumulating the linear offset and the
/// weight product; the innermost dimension runs through [`gather_dot4`]
/// with the accumulated weight applied once to its sum. `ndim` must be
/// at least 1 (every schema has an attribute).
#[inline]
pub(crate) fn tensor_dot<'s>(
    data: &[f64],
    ndim: usize,
    support: &impl Fn(usize) -> (&'s [usize], &'s [f64]),
) -> f64 {
    walk(data, ndim, support, 0, 0, 1.0)
}

fn walk<'s>(
    data: &[f64],
    ndim: usize,
    support: &impl Fn(usize) -> (&'s [usize], &'s [f64]),
    depth: usize,
    base: usize,
    weight: f64,
) -> f64 {
    let (k, w) = support(depth);
    if depth + 1 == ndim {
        return weight * gather_dot4(data, base, k, w);
    }
    k.iter()
        .zip(w)
        .map(|(&kj, &wj)| walk(data, ndim, support, depth + 1, base + kj, weight * wj))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-accumulator fold in the kernel's summation
    /// order: partials a0..a3 then `((a0+a1)+(a2+a3)) + tail`.
    fn reference(data: &[f64], base: usize, idx: &[usize], w: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        let mut tail = 0.0;
        for (j, (&k, &wk)) in idx.iter().zip(w).enumerate() {
            if j < (idx.len() & !3) {
                acc[j % 4] += wk * data[base + k];
            } else {
                tail += wk * data[base + k];
            }
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
    }

    #[test]
    fn matches_reference_at_every_length() {
        // Lengths 0..=9 cover empty, tail-only, exactly-one-chunk and
        // chunk+tail shapes.
        let data: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 1e3).collect();
        for len in 0..=9usize {
            let idx: Vec<usize> = (0..len).map(|j| (j * 7) % 60).collect();
            let w: Vec<f64> = (0..len).map(|j| 0.5 + j as f64).collect();
            let got = gather_dot4(&data, 3, &idx, &w);
            assert_eq!(got.to_bits(), reference(&data, 3, &idx, &w).to_bits());
        }
    }
}
