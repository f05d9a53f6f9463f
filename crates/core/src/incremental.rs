//! Streaming releases: incremental exact-coefficient maintenance with
//! epoch-budgeted re-noising.
//!
//! A publish-once release freezes its table; real deployments ingest
//! continuously. The wavelet structure makes re-publishing unnecessary:
//! a single-cell increment changes only the leaf-to-root coefficient path
//! of each dimension (the dual of
//! [`query_weights`](crate::transform::Transform1d::query_weights)), so
//! the *exact* (pre-noise) coefficients can absorb row arrivals as sparse
//! updates — `∏ᵢ O(log mᵢ)` touched coefficients per increment instead of
//! an O(m) forward transform.
//!
//! **Bit-identity.** The acceptance contract for streaming is strict: after
//! any number of increments, publishing an epoch must be bit-identical to
//! [`publish_coefficients`](crate::mechanism::publish_coefficients) run
//! from scratch on the updated table with the same seed. Naively *adding*
//! `δ·(forward column)` to the stored coefficients breaks this — float
//! addition is not associative, so `(a + δ/f)` generally differs in the
//! last ulp from recomputing the coefficient from updated sums. Instead,
//! [`IncrementalRelease`] keeps every lane's kernel *state* — what
//! [`Transform1d::forward`] leaves in its scratch (the Haar averaging
//! pyramid, the nominal leaf-sums, the identity lane) — and hands dirty
//! lanes to [`Transform1d::repair`], which recomputes the dependent nodes
//! with the forward kernel's own expressions. The publish path and the
//! ingest path run the same per-transform code; this module never looks
//! at which transform an axis uses.
//!
//! **Coalesced ingest.** Every ingest entry point — a single increment,
//! a batch, a batch of rows — runs one propagation at a cost proportional
//! to the *distinct dirty coefficients*: B arrivals into one hot region
//! dirty far fewer than `B·∏ log mᵢ` coefficients. The batch is validated
//! up front, duplicate cells coalesce, and the change propagates axis by
//! axis over a **dirty set**: pending changes are grouped by lane, each
//! dirty lane's leaves are written (duplicate cells' `+=` deltas replayed
//! in arrival order, the only order-sensitive step) and the lane is
//! repaired once. Because each recomputed value is a pure function of the
//! final leaves, the exact tensor afterwards equals the dense forward
//! transform of the updated table bit for bit, however the increments
//! were split into batches (proptested in `tests/streaming_release.rs`).
//! The propagation works on flat linear indices in a reusable internal
//! workspace: no per-touch coordinate vectors, and no allocation once the
//! buffers reach the batch's working-set size.
//!
//! **Epoch budgets.** Re-noising the same statistics k times is k releases
//! of one mechanism: sequential composition sums the epsilons. A
//! [`BudgetLedger`] tracks the lifetime budget;
//! [`advance_epoch`](IncrementalRelease::advance_epoch) debits the epoch's
//! ε *before* any noise is drawn and refuses with
//! [`CoreError::BudgetExhausted`](crate::CoreError) —
//! never a silent over-spend. Exact coefficients that overflowed to ±∞ or
//! NaN are refused the same way, before the debit. Noise injection reuses
//! the publishers' chunked weighted-Laplace seam, so an epoch's output
//! coefficients are bit-identical to a from-scratch publish at the
//! epoch's seed.
//!
//! The sliding-window and exponentially-decayed-sum streaming variants
//! are thin layers over the bulk primitive — see [`crate::streaming`].

use crate::mechanism::privelet::add_weighted_noise;
use crate::mechanism::CoefficientOutput;
use crate::privacy::{BudgetLedger, PrivacyMeta};
use crate::transform::{DimTransform, HnTransform, Transform1d};
use crate::{CoreError, Result};
use privelet_data::schema::Schema;
use privelet_data::FrequencyMatrix;
use privelet_matrix::NdMatrix;
use std::collections::BTreeSet;

/// Per-axis kernel state of the staged forward transform: every lane's
/// [`Transform1d::state_len`] slots, one contiguous block per lane.
///
/// Axis `i`'s lanes live in the mixed space
/// `(out₀, …, outᵢ₋₁, ·, inᵢ₊₁, …, in_d)` — axes before `i` already in
/// the coefficient domain, axes after it still in the data domain — and
/// are numbered `outer · stride + inner`, where `stride` is the product
/// of the trailing input dims. Lane `l`'s state is
/// `data[l · state_len .. (l + 1) · state_len]`.
#[derive(Debug, Clone)]
struct AxisState {
    /// Element stride along the axis, shared by its input, output and
    /// lane numbering (no axis step changes the trailing dims).
    stride: usize,
    state_len: usize,
    data: Vec<f64>,
}

impl AxisState {
    fn lane(&self, lane: usize) -> &[f64] {
        &self.data[lane * self.state_len..(lane + 1) * self.state_len]
    }

    fn lane_mut(&mut self, lane: usize) -> &mut [f64] {
        &mut self.data[lane * self.state_len..(lane + 1) * self.state_len]
    }
}

/// Runs the staged forward pipeline over `table` (row-major over the
/// transform's input dims), keeping every axis's per-lane kernel state,
/// and returns the states with the final coefficients and their dims.
/// Each lane goes through [`Transform1d::forward`] itself, so the
/// coefficients are bit-identical to `transform.forward` on the table.
fn staged_forward(
    transform: &HnTransform,
    table: Vec<f64>,
) -> (Vec<AxisState>, Vec<f64>, Vec<usize>) {
    let mut dims = transform.input_dims();
    let mut cur = table;
    let mut states = Vec::with_capacity(dims.len());
    for (axis, t) in transform.transforms().iter().enumerate() {
        let (n, out_n, state_len) = (t.input_len(), t.output_len(), t.state_len());
        let stride: usize = dims[axis + 1..].iter().product();
        let lanes = cur.len() / n;
        let mut state = AxisState {
            stride,
            state_len,
            data: vec![0.0f64; lanes * state_len],
        };
        let mut out = vec![0.0f64; lanes * out_n];
        let mut src = vec![0.0f64; n];
        let mut dst = vec![0.0f64; out_n];
        for lane in 0..lanes {
            let (outer, inner) = (lane / stride, lane % stride);
            let in_base = outer * n * stride + inner;
            for (k, v) in src.iter_mut().enumerate() {
                *v = cur[in_base + k * stride];
            }
            t.forward(&src, &mut dst, state.lane_mut(lane));
            let out_base = outer * out_n * stride + inner;
            for (k, &v) in dst.iter().enumerate() {
                out[out_base + k * stride] = v;
            }
        }
        states.push(state);
        dims[axis] = out_n;
        cur = out;
    }
    (states, cur, dims)
}

/// Saturating `∏ᵢ max_update_support(i)`: a 5-dim schema of wide nominal
/// fanouts can push the plain `product()` fold past `usize::MAX`, and a
/// wrapped bound is worse than a useless one — it *under*-reports.
fn saturating_touch_bound(transforms: &[DimTransform]) -> usize {
    transforms
        .iter()
        .map(Transform1d::max_update_support)
        .fold(1usize, usize::saturating_mul)
}

/// The first non-finite value, if any — the overflow guard shared by
/// [`IncrementalRelease::decay`] and [`IncrementalRelease::advance_epoch`].
fn first_non_finite<'a>(values: impl IntoIterator<Item = &'a f64>) -> Option<f64> {
    values.into_iter().copied().find(|v| !v.is_finite())
}

/// Diagnostics of one bulk batch: how much duplicate-cell coalescing and
/// dirty-path sharing actually saved, observable by callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Increments in the batch as submitted (duplicates included).
    pub increments: usize,
    /// Duplicate-cell arrivals merged onto an already-dirty cell —
    /// `increments` minus the distinct cells the batch touched.
    pub coalesced_cells: usize,
    /// Distinct coefficients written — the dirty-set size, which a loop
    /// of single [`apply_increment`](IncrementalRelease::apply_increment)
    /// calls would have written at least this many times.
    pub coefficients_written: usize,
    /// Tightened per-batch bound: `distinct cells × per-increment touch
    /// bound`, saturating, capped at the coefficient-tensor size.
    /// `coefficients_written ≤ touch_bound` always holds.
    pub touch_bound: usize,
}

/// One pending change, lane-decomposed: `lane` keys the grouping,
/// `pos` is the coordinate along the axis being processed, `seq`
/// preserves arrival order so duplicate-cell `+=` replays follow the
/// order the increments were submitted in.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lane: usize,
    pos: usize,
    seq: usize,
    value: f64,
}

/// Dirty-set workspace reused across batches — the bulk-ingest analogue
/// of `LaneExecutor`'s ping-pong buffers. Changes travel as flat linear
/// indices in the mixed space (coefficient coordinates on processed
/// axes, data coordinates on the rest); nothing allocates once the
/// buffers have grown to the batch's working-set size.
#[derive(Debug, Clone, Default)]
struct BatchWorkspace {
    /// Changes entering the current axis: `(linear index, value)` where
    /// the value is a delta on axis 0 and an absolute recompute after.
    pending: Vec<(usize, f64)>,
    /// Lane-decomposed, `(lane, pos, seq)`-sorted view of `pending`.
    entries: Vec<Entry>,
    /// Changes emitted for the next axis.
    next: Vec<(usize, f64)>,
    /// The dirty leaf slots of the lane in hand — the work list
    /// [`Transform1d::repair`] consumes.
    dirty: Vec<usize>,
}

/// A rebuilt kernel state and exact tensor, validated but not yet
/// installed — lets a decay be checked before the epoch that precedes it
/// spends any budget.
#[derive(Debug)]
pub(crate) struct Rebuild {
    states: Vec<AxisState>,
    exact: NdMatrix,
}

/// A streaming release: the exact (pre-noise) HN coefficients of a live
/// table, maintained under single-cell / coalesced-batch increments, re-
/// noised only at explicit epoch boundaries under a lifetime privacy
/// budget.
///
/// See the [module docs](self) for the bit-identity design. Each
/// [`advance_epoch`](Self::advance_epoch) returns the published epoch;
/// serving tiers roll to it via `ReleaseCore::advance_epoch` in
/// `privelet-query`.
#[derive(Debug, Clone)]
pub struct IncrementalRelease {
    schema: Schema,
    transform: HnTransform,
    /// Exact coefficients, bit-identical at all times to
    /// `transform.forward(current table)`.
    exact: NdMatrix,
    states: Vec<AxisState>,
    ledger: BudgetLedger,
    workspace: BatchWorkspace,
}

impl IncrementalRelease {
    /// Opens a streaming release over `fm`'s current contents with the
    /// Privelet / Privelet⁺ transform for `sa` and a lifetime privacy
    /// budget of `total_epsilon`. No noise is drawn and nothing is
    /// published until the first [`advance_epoch`](Self::advance_epoch).
    pub fn new(fm: &FrequencyMatrix, sa: &BTreeSet<usize>, total_epsilon: f64) -> Result<Self> {
        let transform = HnTransform::for_schema(fm.schema(), sa)?;
        let ledger = BudgetLedger::new(total_epsilon)?;
        let (states, data, dims) = staged_forward(&transform, fm.matrix().as_slice().to_vec());
        let exact = NdMatrix::from_vec(&dims, data)?;
        Ok(IncrementalRelease {
            schema: fm.schema().clone(),
            transform,
            exact,
            states,
            ledger,
            workspace: BatchWorkspace::default(),
        })
    }

    /// The schema of the underlying table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The HN transform maintained in the coefficient domain.
    pub fn transform(&self) -> &HnTransform {
        &self.transform
    }

    /// The maintained exact (pre-noise) coefficient matrix — bit-identical
    /// to the forward transform of the current table. Never publish this
    /// directly: it carries no noise.
    pub fn exact_coefficients(&self) -> &NdMatrix {
        &self.exact
    }

    /// The sequential-composition budget ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Epochs published so far.
    pub fn epoch(&self) -> u32 {
        self.ledger.epochs()
    }

    /// Upper bound on coefficients touched by one increment:
    /// `∏ᵢ max_update_support(i)` (for all-ordinal schemas this is the
    /// `∏ᵢ (⌈log₂ mᵢ⌉ + 1)` of the paper's Haar path analysis). The
    /// product saturates instead of wrapping on very wide schemas.
    pub fn touch_bound(&self) -> usize {
        saturating_touch_bound(self.transform.transforms())
    }

    /// Validation shared by every ingest entry point — wrong arity, an
    /// out-of-domain coordinate or a non-finite delta is an `Err`, never
    /// a panic or a poisoned coefficient.
    fn validate_increment(&self, cell: &[usize], delta: f64) -> Result<()> {
        let d = self.transform.ndim();
        if cell.len() != d {
            return Err(CoreError::BadQueryArity {
                expected: d,
                got: cell.len(),
            });
        }
        for (axis, (&c, t)) in cell.iter().zip(self.transform.transforms()).enumerate() {
            if c >= t.input_len() {
                return Err(CoreError::BadQueryBounds {
                    axis,
                    lo: c,
                    hi: c,
                    len: t.input_len(),
                });
            }
        }
        if !delta.is_finite() {
            return Err(CoreError::NonFiniteDelta(delta));
        }
        Ok(())
    }

    /// Absorbs `delta` added to table cell `cell` — a batch of one through
    /// [`apply_increments`](Self::apply_increments). Returns the number
    /// of coefficients written (≤ [`touch_bound`](Self::touch_bound)).
    ///
    /// Errors (changing nothing) on a cell of the wrong arity or outside
    /// the domain, and with [`CoreError::NonFiniteDelta`] on a NaN or
    /// infinite `delta`.
    pub fn apply_increment(&mut self, cell: &[usize], delta: f64) -> Result<usize> {
        let report = self.ingest(std::iter::once((cell, delta)))?;
        Ok(report.coefficients_written)
    }

    /// Absorbs a whole batch of `(cell, delta)` increments at a cost
    /// proportional to the **distinct dirty coefficients** instead of
    /// `batch × ∏ log mᵢ`: the batch is validated up front (a bad cell
    /// or a non-finite delta rejects it before *any* state changes),
    /// duplicate cells coalesce onto one dirty path (their `+=` deltas
    /// replay in arrival order), and each axis repairs every dirty lane
    /// once, recomputing each dirty coefficient exactly once.
    ///
    /// The exact coefficient tensor afterwards is **bit-identical** to the
    /// dense forward transform of the updated table — and so to any split
    /// of the same increments into smaller batches, single increments
    /// included. The returned [`IngestReport`] shows what coalescing
    /// saved.
    pub fn apply_increments(&mut self, increments: &[(Vec<usize>, f64)]) -> Result<IngestReport> {
        self.ingest(
            increments
                .iter()
                .map(|(cell, delta)| (cell.as_slice(), *delta)),
        )
    }

    /// Absorbs a batch of row arrivals (each row is `+1` at its cell)
    /// through the coalesced bulk path — rows hitting the same cell share
    /// one dirty walk.
    pub fn apply_rows(&mut self, rows: &[Vec<usize>]) -> Result<IngestReport> {
        self.ingest(rows.iter().map(|row| (row.as_slice(), 1.0)))
    }

    /// The one ingest path: validates the whole batch, linearizes it into
    /// the workspace, and propagates it.
    fn ingest<'a, I>(&mut self, batch: I) -> Result<IngestReport>
    where
        I: Iterator<Item = (&'a [usize], f64)> + Clone,
    {
        for (cell, delta) in batch.clone() {
            self.validate_increment(cell, delta)?;
        }
        // Axis i's stride is the product of the trailing input dims — the
        // row-major input stride of coordinate i.
        let states = &self.states;
        self.workspace.pending.clear();
        self.workspace.pending.extend(batch.map(|(cell, delta)| {
            let lin = cell.iter().zip(states).map(|(&c, s)| c * s.stride).sum();
            (lin, delta)
        }));
        Ok(self.propagate_pending())
    }

    /// The dirty-set propagation over `workspace.pending` (already
    /// validated and linearized). See the module docs for the design.
    fn propagate_pending(&mut self) -> IngestReport {
        let increments = self.workspace.pending.len();
        let mut distinct_cells = 0usize;
        let Self {
            transform,
            states,
            workspace,
            exact,
            ..
        } = self;
        let BatchWorkspace {
            pending,
            entries,
            next,
            dirty,
        } = workspace;
        for (axis, (t, state)) in transform.transforms().iter().zip(states).enumerate() {
            let t = t.as_transform();
            let stride = state.stride;
            let out_n = t.output_len();
            let chunk = t.input_len() * stride;
            entries.clear();
            entries.extend(pending.iter().enumerate().map(|(seq, &(lin, value))| {
                let (outer, rem) = (lin / chunk, lin % chunk);
                Entry {
                    lane: outer * stride + rem % stride,
                    pos: rem / stride,
                    seq,
                    value,
                }
            }));
            // Total order (seq is unique), so the unstable sort is
            // deterministic and allocation-free.
            entries.sort_unstable_by_key(|e| (e.lane, e.pos, e.seq));
            next.clear();
            // Only axis 0 sees deltas; later axes receive recomputed
            // absolute values.
            let is_delta = axis == 0;
            for group in entries.chunk_by(|a, b| a.lane == b.lane) {
                let lane = group[0].lane;
                let lane_state = state.lane_mut(lane);
                dirty.clear();
                for e in group {
                    let slot = t.leaf_slot(e.pos);
                    if dirty.last() != Some(&slot) {
                        dirty.push(slot);
                    }
                    if is_delta {
                        lane_state[slot] += e.value;
                    } else {
                        lane_state[slot] = e.value;
                    }
                }
                if is_delta {
                    distinct_cells += dirty.len();
                }
                // Repair appends lane-local positions; rebase them onto
                // the next axis's linear index space.
                let emitted = next.len();
                t.repair(lane_state, dirty, next);
                let out_base = (lane / stride) * out_n * stride + lane % stride;
                for change in &mut next[emitted..] {
                    change.0 = out_base + change.0 * stride;
                }
            }
            std::mem::swap(pending, next);
        }
        // The surviving pending set is the distinct dirty coefficients,
        // as linear indices into the (row-major) exact tensor.
        let slab = exact.as_mut_slice();
        for &(lin, v) in pending.iter() {
            slab[lin] = v;
        }
        let written = pending.len();
        let per_increment = saturating_touch_bound(transform.transforms());
        let bound = distinct_cells.saturating_mul(per_increment).min(slab.len());
        debug_assert!(written <= bound || increments == 0);
        IngestReport {
            increments,
            coalesced_cells: increments - distinct_cells,
            coefficients_written: written,
            touch_bound: bound,
        }
    }

    /// Exponential decay: scales the maintained table by `alpha` and
    /// rebuilds every kernel state and the exact tensor with one linear
    /// staged-forward pass over the scaled leaves.
    ///
    /// Why rebuild instead of just multiplying every stored state and
    /// coefficient by `alpha`? Floating-point multiplication does not
    /// distribute over the kernels' additions — `α·(a + b)` and
    /// `α·a + α·b` can differ in the last ulp — so a scaled pyramid would
    /// drift off the "forward of the scaled table" contract. Rebuilding
    /// from the scaled leaves keeps [`advance_epoch`](Self::advance_epoch)
    /// bit-identical to a from-scratch publish on a table whose cells
    /// were scaled by the same `α · x` expression (pinned in
    /// `tests/streaming_release.rs`). Cost is one forward, the same
    /// linear pass [`new`](Self::new) runs.
    ///
    /// Errors with [`CoreError::BadDecayFactor`] on a non-finite or
    /// non-positive `alpha`, and with [`CoreError::NonFiniteExact`] when
    /// the scaled table overflows (a rebuilt state or coefficient is ±∞
    /// or NaN); either way the release is left unchanged.
    pub fn decay(&mut self, alpha: f64) -> Result<()> {
        let rebuild = self.decayed(alpha)?;
        self.install(rebuild);
        Ok(())
    }

    /// The validated [`decay`](Self::decay) rebuild, without installing
    /// it.
    pub(crate) fn decayed(&self, alpha: f64) -> Result<Rebuild> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(CoreError::BadDecayFactor(alpha));
        }
        let mut table = self.current_table();
        for v in &mut table {
            *v *= alpha;
        }
        let (states, data, dims) = staged_forward(&self.transform, table);
        let all_state = states.iter().flat_map(|s| &s.data);
        if let Some(v) = first_non_finite(all_state.chain(&data)) {
            return Err(CoreError::NonFiniteExact(v));
        }
        let exact = NdMatrix::from_vec(&dims, data)?;
        Ok(Rebuild { states, exact })
    }

    /// Installs a rebuild from [`decayed`](Self::decayed).
    pub(crate) fn install(&mut self, rebuild: Rebuild) {
        self.states = rebuild.states;
        self.exact = rebuild.exact;
    }

    /// The current (pre-noise) data-domain table, read back from axis 0's
    /// kernel-state leaves, row-major over the input dims.
    fn current_table(&self) -> Vec<f64> {
        let t0 = &self.transform.transforms()[0];
        let state = &self.states[0];
        // Axis 0 is outermost, so lin = pos·stride + lane.
        (0..t0.input_len() * state.stride)
            .map(|lin| state.lane(lin % state.stride)[t0.leaf_slot(lin / state.stride)])
            .collect()
    }

    /// Publishes one epoch: refuses with [`CoreError::NonFiniteExact`] if
    /// any exact coefficient overflowed to ±∞ or NaN, then debits
    /// `epoch_epsilon` from the lifetime budget (refusing with
    /// [`CoreError::BudgetExhausted`](crate::CoreError)) — both **before
    /// any noise is drawn** — then draws fresh weighted Laplace noise at
    /// `seed` over a copy of the exact coefficients through the
    /// publishers' shared injection seam, so the output is bit-identical
    /// to `publish_coefficients` run from scratch on the current table
    /// with the same seed and ε.
    pub fn advance_epoch(&mut self, epoch_epsilon: f64, seed: u64) -> Result<CoefficientOutput> {
        let meta = PrivacyMeta::for_transform(&self.transform, epoch_epsilon)?;
        if let Some(v) = first_non_finite(self.exact.as_slice()) {
            return Err(CoreError::NonFiniteExact(v));
        }
        self.ledger.try_spend(epoch_epsilon)?;
        let mut coefficients = self.exact.clone();
        add_weighted_noise(
            &self.transform,
            coefficients.as_mut_slice(),
            meta.lambda,
            seed,
        )?;
        Ok(CoefficientOutput {
            schema: self.schema.clone(),
            transform: self.transform.clone(),
            coefficients,
            meta,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{publish_coefficients, PriveletConfig};
    use privelet_data::schema::Attribute;
    use privelet_hierarchy::builder::{flat, three_level};

    fn fm_for(schema: Schema, seed: u64) -> FrequencyMatrix {
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

    fn mixed_schema() -> Schema {
        Schema::new(vec![
            Attribute::ordinal("age", 5), // pads to 8
            Attribute::nominal("occ", three_level(6, 2).unwrap()),
            Attribute::ordinal("income", 4),
        ])
        .unwrap()
    }

    #[test]
    fn initial_exact_coefficients_match_forward_bitwise() {
        let fm = fm_for(mixed_schema(), 11);
        let rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn.forward(fm.matrix()).unwrap();
        for (i, (a, b)) in rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "coeff {i}");
        }
    }

    #[test]
    fn increments_track_forward_bitwise() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 7);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let bound = rel.touch_bound();

        let mut table = fm.matrix().as_slice().to_vec();
        let dims = schema.dims();
        let cells = [[0usize, 0, 0], [4, 5, 3], [2, 3, 1], [4, 0, 0], [2, 3, 1]];
        for (k, cell) in cells.iter().enumerate() {
            let delta = (k as f64) * 1.5 - 2.0;
            let written = rel.apply_increment(cell, delta).unwrap();
            assert!(written <= bound, "wrote {written} > bound {bound}");
            let lin = cell[0] * dims[1] * dims[2] + cell[1] * dims[2] + cell[2];
            table[lin] += delta;
            let updated = NdMatrix::from_vec(&dims, table.clone()).unwrap();
            let dense = hn.forward(&updated).unwrap();
            for (i, (a, b)) in rel
                .exact_coefficients()
                .as_slice()
                .iter()
                .zip(dense.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "step {k} coeff {i}");
            }
        }
    }

    /// A bulk batch must equal a loop of single increments bit for bit —
    /// same cells, same order, duplicates included — and both must equal
    /// the dense forward transform of the updated table.
    #[test]
    fn bulk_batch_matches_sequential_loop_bitwise() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 13);
        let batch: Vec<(Vec<usize>, f64)> = vec![
            (vec![0, 0, 0], 2.0),
            (vec![4, 5, 3], -1.5),
            (vec![0, 0, 0], 0.25), // duplicate cell: += replay order matters
            (vec![2, 3, 1], 7.0),
            (vec![0, 0, 0], -3.0),
            (vec![2, 3, 2], 1.0),
        ];
        let mut seq = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let mut seq_written = 0usize;
        let mut table = fm.matrix().clone();
        for (cell, delta) in &batch {
            seq_written += seq.apply_increment(cell, *delta).unwrap();
            table.set(cell, table.get(cell).unwrap() + delta).unwrap();
        }
        let mut bulk = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let report = bulk.apply_increments(&batch).unwrap();
        assert_eq!(report.increments, 6);
        assert_eq!(report.coalesced_cells, 2, "three arrivals at one cell");
        assert!(report.coefficients_written <= seq_written);
        assert!(report.coefficients_written <= report.touch_bound);
        let dense = HnTransform::for_schema(&schema, &BTreeSet::new())
            .unwrap()
            .forward(&table)
            .unwrap();
        for (i, ((a, b), c)) in bulk
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(seq.exact_coefficients().as_slice())
            .zip(dense.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "bulk vs loop, coeff {i}");
            assert_eq!(a.to_bits(), c.to_bits(), "bulk vs dense forward, coeff {i}");
        }
    }

    #[test]
    fn empty_batch_is_a_well_defined_no_op() {
        let fm = fm_for(mixed_schema(), 3);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let before: Vec<u64> = rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let report = rel.apply_increments(&[]).unwrap();
        assert_eq!(
            report,
            IngestReport {
                increments: 0,
                coalesced_cells: 0,
                coefficients_written: 0,
                touch_bound: 0,
            }
        );
        let after: Vec<u64> = rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn bulk_rejects_bad_cells_before_any_state_change() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        // A good increment ahead of the bad one must not be applied.
        let batch = vec![(vec![0usize, 0, 0], 5.0), (vec![5, 0, 0], 1.0)];
        assert!(matches!(
            rel.apply_increments(&batch).unwrap_err(),
            CoreError::BadQueryBounds { axis: 0, lo: 5, .. }
        ));
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn.forward(fm.matrix()).unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());

        // Non-finite deltas: rejected in the same up-front pass, so the
        // exact tensor and the ledger stay bit-unchanged.
        rel.advance_epoch(0.25, 1).unwrap();
        let bits = |rel: &IncrementalRelease| -> Vec<u64> {
            rel.exact_coefficients()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let (before, ledger) = (bits(&rel), *rel.ledger());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let batch = vec![(vec![0usize, 0, 0], 5.0), (vec![1, 2, 3], bad)];
            match rel.apply_increments(&batch).unwrap_err() {
                CoreError::NonFiniteDelta(d) => assert_eq!(d.to_bits(), bad.to_bits()),
                other => panic!("wrong error for {bad}: {other:?}"),
            }
            assert_eq!(bits(&rel), before, "batch with {bad}");
            assert_eq!(*rel.ledger(), ledger);
        }
    }

    /// Satellite: the touch-bound product saturates instead of wrapping.
    /// Five flat nominal dimensions of 2^17 leaves put the true product
    /// near 2^85 — a plain `product()` fold wraps to a small lie.
    #[test]
    fn touch_bound_saturates_on_wide_schemas() {
        let wide = std::sync::Arc::new(flat(1 << 17).unwrap());
        let transforms: Vec<DimTransform> = (0..5)
            .map(|_| DimTransform::Nominal(crate::transform::NominalTransform::new(wide.clone())))
            .collect();
        let per_dim = transforms[0].max_update_support();
        assert_eq!(per_dim, (1 << 17) + 1);
        assert_eq!(saturating_touch_bound(&transforms), usize::MAX);
        // Sanity: the same fold on a small schema is exact.
        let small = vec![
            DimTransform::Haar(crate::transform::HaarTransform::new(8)),
            DimTransform::Identity(crate::transform::IdentityTransform::new(3)),
        ];
        assert_eq!(saturating_touch_bound(&small), 4);
    }

    /// `decay` must be bit-identical to a forward transform of the
    /// elementwise-scaled table — including for an α whose scaling does
    /// *not* distribute over float addition.
    #[test]
    fn decay_matches_forward_of_scaled_table_bitwise() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 17);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        rel.apply_increment(&[1, 2, 3], 0.371).unwrap();

        let mut table = fm.matrix().as_slice().to_vec();
        let dims = schema.dims();
        table[dims[1] * dims[2] + 2 * dims[2] + 3] += 0.371;
        for alpha in [0.5f64, 0.3, 0.875] {
            rel.decay(alpha).unwrap();
            for v in &mut table {
                *v *= alpha;
            }
            let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
            let dense = hn
                .forward(&NdMatrix::from_vec(&dims, table.clone()).unwrap())
                .unwrap();
            for (i, (a, b)) in rel
                .exact_coefficients()
                .as_slice()
                .iter()
                .zip(dense.as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "alpha {alpha} coeff {i}");
            }
        }
        // And the decayed state keeps absorbing increments bit-exactly.
        rel.apply_increment(&[4, 1, 0], 2.0).unwrap();
        table[4 * dims[1] * dims[2] + dims[2]] += 2.0;
        let hn = HnTransform::for_schema(&schema, &BTreeSet::new()).unwrap();
        let dense = hn
            .forward(&NdMatrix::from_vec(&dims, table).unwrap())
            .unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
    }

    /// The 1-dim ordinal-4 table `[3, 5, 0, 1]` the overflow cases start
    /// from, with the bits of its exact tensor.
    fn overflow_fixture() -> IncrementalRelease {
        let schema = Schema::new(vec![Attribute::ordinal("a", 4)]).unwrap();
        let fm = FrequencyMatrix::from_parts(
            schema,
            NdMatrix::from_vec(&[4], vec![3.0, 5.0, 0.0, 1.0]).unwrap(),
        )
        .unwrap();
        IncrementalRelease::new(&fm, &BTreeSet::new(), 4.0).unwrap()
    }

    fn exact_bits(rel: &IncrementalRelease) -> Vec<u64> {
        rel.exact_coefficients()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// A decay whose scaled table overflows is refused and leaves the
    /// release unchanged; the next epoch still publishes finite values.
    #[test]
    fn overflowing_decay_is_refused_without_side_effects() {
        let mut rel = overflow_fixture();
        let (before, ledger) = (exact_bits(&rel), *rel.ledger());
        assert!(matches!(
            rel.decay(f64::MAX / 2.0).unwrap_err(),
            CoreError::NonFiniteExact(_)
        ));
        assert_eq!(exact_bits(&rel), before);
        assert_eq!(*rel.ledger(), ledger);
        // The kernel state is untouched too: increments still track the
        // dense forward of the undecayed table.
        rel.apply_increment(&[2], 1.0).unwrap();
        let dense = HnTransform::for_schema(rel.schema(), &BTreeSet::new())
            .unwrap()
            .forward(&NdMatrix::from_vec(&[4], vec![3.0, 5.0, 1.0, 1.0]).unwrap())
            .unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
        let out = rel.advance_epoch(1.0, 7).unwrap();
        assert!(out.coefficients.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Finite deltas that sum past `f64::MAX` are absorbed (rejecting them
    /// up front is still open), but the epoch refuses to publish the
    /// overflowed coefficients before it debits or draws anything.
    #[test]
    fn overflowed_exact_coefficients_are_never_published() {
        let mut rel = overflow_fixture();
        rel.apply_increments(&[(vec![1], f64::MAX), (vec![1], f64::MAX)])
            .unwrap();
        assert!(rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .any(|v| !v.is_finite()));
        let (before, ledger) = (exact_bits(&rel), *rel.ledger());
        assert!(matches!(
            rel.advance_epoch(1.0, 7).unwrap_err(),
            CoreError::NonFiniteExact(_)
        ));
        assert_eq!(exact_bits(&rel), before);
        assert_eq!(*rel.ledger(), ledger);
        assert_eq!(rel.ledger().spent(), 0.0);
        assert_eq!(rel.epoch(), 0);
    }

    #[test]
    fn decay_rejects_non_positive_factors() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                rel.decay(bad).unwrap_err(),
                CoreError::BadDecayFactor(_)
            ));
        }
    }

    #[test]
    fn epoch_output_is_bit_identical_to_from_scratch_publish() {
        let schema = mixed_schema();
        let fm = fm_for(schema.clone(), 3);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let mut table = fm.matrix().as_slice().to_vec();
        let dims = schema.dims();
        rel.apply_increment(&[1, 2, 3], 4.0).unwrap();
        table[(dims[1] * dims[2]) + 2 * dims[2] + 3] += 4.0;

        let updated =
            FrequencyMatrix::from_parts(schema.clone(), NdMatrix::from_vec(&dims, table).unwrap())
                .unwrap();
        let scratch = publish_coefficients(&updated, &PriveletConfig::pure(0.25, 99)).unwrap();
        let epoch = rel.advance_epoch(0.25, 99).unwrap();
        assert_eq!(epoch.meta, scratch.meta);
        for (i, (a, b)) in epoch
            .coefficients
            .as_slice()
            .iter()
            .zip(scratch.coefficients.as_slice())
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "coeff {i}");
        }
        assert_eq!(epoch.transform, scratch.transform);
        assert_eq!(rel.epoch(), 1);
    }

    #[test]
    fn over_spend_is_refused_without_side_effects() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 0.5).unwrap();
        rel.advance_epoch(0.25, 1).unwrap();
        let err = rel.advance_epoch(0.5, 2).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExhausted { .. }));
        // The refusal spent nothing and drew nothing: the remaining budget
        // still publishes bit-identically to a from-scratch run.
        assert_eq!(rel.ledger().epochs(), 1);
        assert_eq!(rel.ledger().spent(), 0.25);
        let scratch = publish_coefficients(&fm, &PriveletConfig::pure(0.25, 3)).unwrap();
        let epoch = rel.advance_epoch(0.25, 3).unwrap();
        for (a, b) in epoch
            .coefficients
            .as_slice()
            .iter()
            .zip(scratch.coefficients.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_cells_are_rejected_not_panicked() {
        let fm = fm_for(mixed_schema(), 5);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        assert!(matches!(
            rel.apply_increment(&[0, 0], 1.0).unwrap_err(),
            CoreError::BadQueryArity {
                expected: 3,
                got: 2
            }
        ));
        assert!(matches!(
            rel.apply_increment(&[5, 0, 0], 1.0).unwrap_err(),
            CoreError::BadQueryBounds {
                axis: 0,
                lo: 5,
                len: 5,
                ..
            }
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match rel.apply_increment(&[1, 2, 3], bad).unwrap_err() {
                CoreError::NonFiniteDelta(d) => assert_eq!(d.to_bits(), bad.to_bits()),
                other => panic!("wrong error for {bad}: {other:?}"),
            }
        }
        // A rejected increment changed nothing, bit for bit, and spent
        // no budget.
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn.forward(fm.matrix()).unwrap();
        for (a, b) in rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(rel.ledger().spent(), 0.0);
        assert_eq!(rel.ledger().epochs(), 0);
    }

    #[test]
    fn privelet_plus_identity_axes_stream_too() {
        let schema = Schema::new(vec![
            Attribute::ordinal("small", 3),
            Attribute::ordinal("large", 9),
        ])
        .unwrap();
        let sa = BTreeSet::from([0usize]);
        let fm = fm_for(schema.clone(), 21);
        let mut rel = IncrementalRelease::new(&fm, &sa, 1.0).unwrap();
        // Identity axis: one touch; Haar axis (9 → 16): ⌈log₂ 9⌉ + 1.
        assert_eq!(rel.touch_bound(), 4 + 1);
        let written = rel.apply_increment(&[2, 8], -3.0).unwrap();
        assert_eq!(written, 5);

        let mut table = fm.matrix().as_slice().to_vec();
        table[2 * 9 + 8] -= 3.0;
        let hn = HnTransform::for_schema(&schema, &sa).unwrap();
        let dense = hn
            .forward(&NdMatrix::from_vec(&schema.dims(), table).unwrap())
            .unwrap();
        for (a, b) in rel
            .exact_coefficients()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn apply_rows_is_a_plus_one_batch() {
        let fm = fm_for(mixed_schema(), 9);
        let mut rel = IncrementalRelease::new(&fm, &BTreeSet::new(), 1.0).unwrap();
        let rows = vec![vec![0, 0, 0], vec![4, 5, 3], vec![0, 0, 0]];
        let report = rel.apply_rows(&rows).unwrap();
        assert_eq!(report.increments, 3);
        assert_eq!(report.coalesced_cells, 1, "one repeated row coalesces");
        assert!(report.coefficients_written <= report.touch_bound);
        assert!(report.touch_bound <= 2 * rel.touch_bound());

        let mut table = fm.matrix().as_slice().to_vec();
        let dims = fm.schema().dims();
        for row in &rows {
            table[row[0] * dims[1] * dims[2] + row[1] * dims[2] + row[2]] += 1.0;
        }
        let hn = HnTransform::for_schema(fm.schema(), &BTreeSet::new()).unwrap();
        let dense = hn
            .forward(&NdMatrix::from_vec(&dims, table).unwrap())
            .unwrap();
        assert_eq!(rel.exact_coefficients().as_slice(), dense.as_slice());
    }
}
