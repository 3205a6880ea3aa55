//! The Irregular-Grid evaluation engine, incremental by construction.
//!
//! A simulated-annealing move perturbs one or two modules, yet a rebuild
//! re-scores every range. The expensive part of a rebuild is not the
//! bookkeeping — cut merging and totals accumulation are microseconds —
//! it is the per-range *scoring*. [`IrDeltaEvaluator`] makes scoring
//! incremental, and a fresh session's `rebase` is also the model's
//! one-shot [`evaluate`](crate::CongestionModel::evaluate):
//!
//! * **Relative-signature block memo.** A range's scored block (its
//!   per-cell probabilities over the snapped span) depends only on the
//!   span's *shape*: the net type and the cut offsets relative to the
//!   span origin. Translating a range — the common case under repacking,
//!   where whole subtrees shift — reuses its block verbatim. Blocks are
//!   memoized in a `BTreeMap` (deterministic iteration; `HashMap` is
//!   banned by lint rule D1) keyed by that signature, as `Arc<[i64]>` of
//!   **Q32-quantized** probabilities.
//! * **Committed-block reuse.** Before any memo key is built, a range
//!   that equals the committed range at the same index, over cut
//!   positions unchanged inside its snapped span, takes the committed
//!   span and block for one `Arc` clone (when the whole cut vectors are
//!   unchanged, not even the span is re-snapped). A move that repacks a
//!   10k-module floorplan leaves about 99 % of ranges that way. Ranges
//!   that shifted index — a re-decomposed net gained or lost a segment —
//!   take the memo path. [`WorkCounters`] says how each range of the
//!   last build got its block.
//! * **Integer totals.** Per-cell totals are `i64` sums of quantized
//!   blocks (see [`crate::num::quantize_probability`]). Integer addition
//!   commutes, so incremental subtract/add updates are bit-identical to
//!   a from-scratch rebuild — the exactness the delta API demands.
//! * **Double-buffered commit/undo.** The session keeps a *committed*
//!   and a *proposed* snapshot. `commit` is a pointer swap; `undo` drops
//!   the proposal in O(1). No journal, no replay.
//! * **Cheap re-merge.** Cutlines are global state — one moved range can
//!   cascade merges arbitrarily far — so each proposal re-derives the
//!   merged cut set (O(R log R) over ~1400 raw cuts, microseconds).
//!   When the merged cuts come out unchanged, old contributions are
//!   subtracted and new ones added only for the ranges that actually
//!   moved; when the cut set shifts, all (mostly memo-hit) blocks are
//!   re-accumulated — still integer adds, still exact.
//!
//! * **Closed-form exit integrals.** Block and memo keys change
//!   whenever the cut pattern does — which under annealing is *every
//!   move* — so the block memo alone would degenerate to full Simpson
//!   scoring per proposal (and the cut patterns a real run produces
//!   never recur, so no cache keyed on them can help). Instead the
//!   Theorem-1 exit integrals are evaluated in closed form: the
//!   variable-variance normal-CDF antiderivative
//!   [`ExitCdf`](super::approx::ExitCdf) turns every cell of every cut
//!   pattern into two `erf` evaluations, O(cells) per block with no
//!   quadrature loop at all.
//!
//! Scoring structure: corridors score 1 per IR cell; ranges with
//! `g1 + g2` at or below the exact threshold (and every range under
//! [`Evaluator::Exact`]) use Formula 3; the rest sweep Theorem-1 exit
//! rows and columns, then apply the pin override and clamp. Cell values
//! follow per-cell Simpson ([`block_probability_approx`]) to within
//! 0.02 — `ExitCdf` and Simpson are two quadratures of the same Theorem-1
//! density — and are *pure functions of the floorplan*, so a fresh
//! session reproduces a warm session's map bit for bit, which is the
//! exactness the delta API contracts.
//!
//! [`block_probability_approx`]: super::block_probability_approx

use std::collections::BTreeMap;
use std::sync::Arc;

use irgrid_geom::{Point, Rect};

use crate::num::{dequantize_total, quantize_probability, LnFactorials};
use crate::routing::{NetType, RoutingRange};
use crate::score::{top_area_fraction_mean_in_place, TOP_FRACTION};
use crate::UnitGrid;

use super::approx::{ExitCdf, ExitKind, ExitProfile};
use super::cutlines::{merged_cuts_into, snap_span};
use super::exact::block_probability_exact;
use super::{Evaluator, IrCongestionMap, IrregularGridModel};

/// Signature tag for corridor ranges (all-ones block; only the span's
/// cell dimensions matter).
const KIND_CORRIDOR: i64 = 2;

/// Default cap on memoized blocks. At ~50 cells × 16 B per block plus
/// key overhead this bounds the memo near 100 MB worst case; in practice
/// an ami49 run stabilizes around a few thousand entries.
const DEFAULT_MEMO_CAPACITY: usize = 65_536;

fn span_len(lo: usize, hi: usize) -> i64 {
    (hi - lo) as i64 // irgrid-lint: allow(C1): IR spans hold < 2^32 cut intervals, far inside i64
}

/// FNV-1a over a snapshot's exact cut vectors, Q32 totals, and cost
/// bit pattern — the bit-identity contract collapsed to 64 bits.
fn snapshot_fingerprint(snap: &Snapshot) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(snap.valid).to_le_bytes());
    eat(snap.cost.to_bits().to_le_bytes());
    for slice in [&snap.x_cuts, &snap.y_cuts, &snap.totals] {
        eat(u64::try_from(slice.len()).unwrap_or(u64::MAX).to_le_bytes());
        for &value in slice {
            eat(value.to_le_bytes());
        }
    }
    hash
}

/// One fully evaluated floorplan: merged cuts, per-range snapped spans
/// and scored blocks, integer per-cell totals, and the resulting cost.
#[derive(Debug, Default)]
struct Snapshot {
    x_cuts: Vec<i64>,
    y_cuts: Vec<i64>,
    /// Row-major Q32 totals, `(x_cuts.len() - 1) × (y_cuts.len() - 1)`.
    totals: Vec<i64>,
    ranges: Vec<RoutingRange>,
    /// Per-range snapped span `(ix1, ix2, iy1, iy2)` into the cut vectors.
    spans: Vec<(usize, usize, usize, usize)>,
    /// Per-range scored block over its span (shared with the memo).
    blocks: Vec<Arc<[i64]>>,
    cost: f64,
    valid: bool,
}

/// The Irregular-Grid evaluation session — the
/// [`DeltaCongestionSession`](crate::DeltaCongestionSession)
/// implementation minted by
/// [`IrregularGridModel::delta_session`](crate::DeltaCongestion::delta_session),
/// and, freshly built, the model's one-shot scorer.
///
/// # Examples
///
/// ```
/// use irgrid_core::{DeltaCongestion, DeltaCongestionSession, IrregularGridModel};
/// use irgrid_geom::{Point, Rect, Um};
///
/// let chip = Rect::from_origin_size(Point::ORIGIN, Um(600), Um(600));
/// let a = vec![(Point::new(Um(90), Um(90)), Point::new(Um(510), Um(510)))];
/// let b = vec![(Point::new(Um(90), Um(510)), Point::new(Um(510), Um(90)))];
/// let model = IrregularGridModel::new(Um(30));
///
/// let mut session = model.delta_session();
/// let base = session.rebase(&chip, &a);
/// let proposed = session.propose(&chip, &b);
/// assert_eq!(session.undo(), base); // rejected: committed state kept
/// assert_eq!(session.propose(&chip, &b), proposed);
/// session.commit();
/// // Bit-identical to a from-scratch build of the same floorplan.
/// assert_eq!(model.delta_session().rebase(&chip, &b), proposed);
/// ```
#[derive(Debug)]
pub struct IrDeltaEvaluator {
    model: IrregularGridModel,
    lf: LnFactorials,
    memo: BTreeMap<Vec<i64>, Arc<[i64]>>,
    memo_capacity: usize,
    committed: Snapshot,
    proposed: Snapshot,
    pending: bool,
    // Reusable scratch (steady-state proposals allocate only on memo miss).
    raw_cuts: Vec<i64>,
    key: Vec<i64>,
    xs: Vec<i64>,
    ys: Vec<i64>,
    fblock: Vec<f64>,
    pairs: Vec<(f64, f64)>,
    counters: WorkCounters,
}

/// What the last build of an [`IrDeltaEvaluator`] (a `rebase` or a
/// `propose`) did, as plain counts — no clock, so equal inputs give
/// equal counts and tests can assert them.
///
/// Every range takes its block one way: `reused + memo_hits +
/// memo_misses == ranges`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Routing ranges in the scored floorplan.
    pub ranges: usize,
    /// Ranges whose block came from the committed snapshot: the same
    /// range at the same index over unchanged cuts inside its span.
    pub reused: usize,
    /// Ranges whose block came from the relative-signature memo.
    pub memo_hits: usize,
    /// Ranges whose block was scored afresh.
    pub memo_misses: usize,
    /// IR cells in the blocks scored afresh.
    pub cells_scored: usize,
}

impl IrDeltaEvaluator {
    /// Creates a session with no committed state; the first
    /// [`rebase`](Self::rebase) (or `propose`) performs a full build.
    #[must_use]
    pub fn new(model: IrregularGridModel) -> IrDeltaEvaluator {
        IrDeltaEvaluator {
            model,
            lf: LnFactorials::up_to(0),
            memo: BTreeMap::new(),
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            committed: Snapshot::default(),
            proposed: Snapshot::default(),
            pending: false,
            raw_cuts: Vec::new(),
            key: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            fblock: Vec::new(),
            pairs: Vec::new(),
            counters: WorkCounters::default(),
        }
    }

    /// The work counts of the last `rebase` or `propose`.
    #[must_use]
    pub fn work_counters(&self) -> WorkCounters {
        self.counters
    }

    /// The committed floorplan's cost (0 before the first rebase).
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.committed.cost
    }

    /// The committed Q32 per-cell totals (row-major), with their cut
    /// vectors — the exact integers the bit-identity contract is stated
    /// over.
    #[must_use]
    pub fn quantized(&self) -> (&[i64], &[i64], &[i64]) {
        (
            &self.committed.x_cuts,
            &self.committed.y_cuts,
            &self.committed.totals,
        )
    }

    /// Materializes the committed state as an [`IrCongestionMap`]
    /// (dequantized totals; exact, since Q32 totals stay below 2⁵³).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been committed yet.
    #[must_use]
    pub fn congestion_map(&self) -> IrCongestionMap {
        assert!(
            self.committed.valid,
            "congestion_map before the first rebase/commit"
        );
        IrCongestionMap {
            pitch: self.model.pitch,
            x_cuts: self.committed.x_cuts.clone(),
            y_cuts: self.committed.y_cuts.clone(),
            totals: self
                .committed
                .totals
                .iter()
                .map(|&t| dequantize_total(t))
                .collect(),
        }
    }

    /// An FNV-1a fingerprint of the committed snapshot: the exact cut
    /// vectors, Q32 totals, and the cost's bit pattern. Two sessions
    /// with equal fingerprints committed bit-identical maps — this is
    /// the hook a checkpointing layer uses to verify that a restored
    /// session replayed to the same state it persisted.
    #[must_use]
    pub fn committed_fingerprint(&self) -> u64 {
        snapshot_fingerprint(&self.committed)
    }

    /// The fingerprint [`committed_fingerprint`](Self::committed_fingerprint)
    /// would report after a [`commit`](crate::DeltaCongestionSession::commit)
    /// of the current proposal. Meaningful only while a proposal is
    /// pending; otherwise it covers whatever the last proposal built.
    /// A checkpointing layer persists this *before* committing so a
    /// restored session can be verified against it.
    #[must_use]
    pub fn proposed_fingerprint(&self) -> u64 {
        snapshot_fingerprint(&self.proposed)
    }

    /// Builds `self.proposed` from the given floorplan and returns its
    /// cost. Uses the committed snapshot only as a source of unchanged
    /// blocks and, when the merged cut sets coincide, as a subtract/add
    /// base — the result is independent of it either way.
    fn build_proposal(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        let grid = UnitGrid::new(chip, self.model.pitch);
        let min_gap = if self.model.merge_lines { 2 } else { 1 };

        self.proposed.ranges.clear();
        self.proposed.ranges.extend(
            segments
                .iter()
                .map(|&(a, b)| RoutingRange::from_segment(&grid, a, b)),
        );

        self.raw_cuts.clear();
        for range in &self.proposed.ranges {
            self.raw_cuts.push(range.x0());
            self.raw_cuts.push(range.x0() + range.g1());
        }
        merged_cuts_into(
            grid.cols(),
            &mut self.raw_cuts,
            min_gap,
            &mut self.proposed.x_cuts,
        );
        self.raw_cuts.clear();
        for range in &self.proposed.ranges {
            self.raw_cuts.push(range.y0());
            self.raw_cuts.push(range.y0() + range.g2());
        }
        merged_cuts_into(
            grid.rows(),
            &mut self.raw_cuts,
            min_gap,
            &mut self.proposed.y_cuts,
        );

        let lf_bound = grid.cols() + grid.rows() + 2;
        // irgrid-lint: allow(C1): cols + rows + 2 is positive and far below usize::MAX
        self.lf.ensure_up_to(lf_bound as usize);

        // Per-range snapped spans and scored blocks. A range unchanged at
        // its index, over cuts unchanged inside its span, takes its
        // committed block with no memo key and no lookup: a block is a
        // pure function of the net type and the relative cut offsets, so
        // this equals the memo path bit for bit. When the whole cut
        // vectors are unchanged, so is its snapped span.
        let same_cuts = self.committed.valid
            && self.proposed.x_cuts == self.committed.x_cuts
            && self.proposed.y_cuts == self.committed.y_cuts;
        self.counters = WorkCounters {
            ranges: self.proposed.ranges.len(),
            ..WorkCounters::default()
        };
        self.proposed.spans.clear();
        self.proposed.blocks.clear();
        for i in 0..self.proposed.ranges.len() {
            let range = self.proposed.ranges[i];
            let unchanged = self.committed.valid && self.committed.ranges.get(i) == Some(&range);
            let span = if unchanged && same_cuts {
                self.committed.spans[i]
            } else {
                let (ix1, ix2) =
                    snap_span(&self.proposed.x_cuts, range.x0(), range.x0() + range.g1());
                let (iy1, iy2) =
                    snap_span(&self.proposed.y_cuts, range.y0(), range.y0() + range.g2());
                (ix1, ix2, iy1, iy2)
            };
            self.proposed.spans.push(span);
            let reuse = unchanged
                && (same_cuts || {
                    let (ix1, ix2, iy1, iy2) = span;
                    let (cx1, cx2, cy1, cy2) = self.committed.spans[i];
                    self.proposed.x_cuts[ix1..=ix2] == self.committed.x_cuts[cx1..=cx2]
                        && self.proposed.y_cuts[iy1..=iy2] == self.committed.y_cuts[cy1..=cy2]
                });
            let block = if reuse {
                self.counters.reused += 1;
                Arc::clone(&self.committed.blocks[i])
            } else {
                self.memo_block(range, span)
            };
            self.proposed.blocks.push(block);
        }

        // Accumulate integer totals. When the merged cut sets (and the
        // range count) are unchanged, diff against the committed totals:
        // subtract the old block and add the new one for exactly the
        // ranges that moved. Integer adds commute, so this equals the
        // full re-accumulation bit for bit.
        let ir_cols = self.proposed.x_cuts.len() - 1;
        let ir_rows = self.proposed.y_cuts.len() - 1;
        let same_grid = self.committed.valid
            && self.proposed.x_cuts == self.committed.x_cuts
            && self.proposed.y_cuts == self.committed.y_cuts
            && self.proposed.ranges.len() == self.committed.ranges.len();
        self.proposed.totals.clear();
        if same_grid {
            self.proposed
                .totals
                .extend_from_slice(&self.committed.totals);
            for i in 0..self.proposed.ranges.len() {
                if self.proposed.ranges[i] == self.committed.ranges[i] {
                    continue;
                }
                apply_block(
                    &mut self.proposed.totals,
                    ir_cols,
                    self.committed.spans[i],
                    &self.committed.blocks[i],
                    -1,
                );
                apply_block(
                    &mut self.proposed.totals,
                    ir_cols,
                    self.proposed.spans[i],
                    &self.proposed.blocks[i],
                    1,
                );
            }
        } else {
            self.proposed.totals.resize(ir_cols * ir_rows, 0);
            for i in 0..self.proposed.ranges.len() {
                apply_block(
                    &mut self.proposed.totals,
                    ir_cols,
                    self.proposed.spans[i],
                    &self.proposed.blocks[i],
                    1,
                );
            }
        }

        // Cost: identical arithmetic to `IrCongestionMap::cost` over the
        // dequantized densities (dequantization is exact).
        self.pairs.clear();
        for j in 0..ir_rows {
            for i in 0..ir_cols {
                let dx = self.proposed.x_cuts[i + 1] - self.proposed.x_cuts[i];
                let dy = self.proposed.y_cuts[j + 1] - self.proposed.y_cuts[j];
                // irgrid-lint: allow(C1): cell areas are below 2^53, exact in f64
                let area = (dx * dy) as f64;
                self.pairs.push((
                    dequantize_total(self.proposed.totals[j * ir_cols + i]) / area,
                    area,
                ));
            }
        }
        let cost = top_area_fraction_mean_in_place(&mut self.pairs, TOP_FRACTION);
        self.proposed.cost = cost;
        self.proposed.valid = true;
        cost
    }

    /// The scored block of `range` over its snapped proposed `span`, from
    /// the relative-signature memo or, on a miss, freshly scored and
    /// memoized.
    fn memo_block(
        &mut self,
        range: RoutingRange,
        span: (usize, usize, usize, usize),
    ) -> Arc<[i64]> {
        let (ix1, ix2, iy1, iy2) = span;
        let corridor = range.g1() == 1 || range.g2() == 1;
        self.key.clear();
        if corridor {
            self.key.push(KIND_CORRIDOR);
            self.key.push(span_len(ix1, ix2));
            self.key.push(span_len(iy1, iy2));
        } else {
            self.key.push(match range.net_type() {
                NetType::TypeI => 0,
                NetType::TypeII => 1,
            });
            self.key.push(span_len(ix1, ix2));
            let x0 = self.proposed.x_cuts[ix1];
            for j in ix1 + 1..=ix2 {
                self.key.push(self.proposed.x_cuts[j] - x0);
            }
            let y0 = self.proposed.y_cuts[iy1];
            for j in iy1 + 1..=iy2 {
                self.key.push(self.proposed.y_cuts[j] - y0);
            }
        }

        if let Some(hit) = self.memo.get(&self.key) {
            self.counters.memo_hits += 1;
            return Arc::clone(hit);
        }
        self.counters.memo_misses += 1;
        let scored: Arc<[i64]> = if corridor {
            let cells = (ix2 - ix1) * (iy2 - iy1);
            std::iter::repeat(quantize_probability(1.0))
                .take(cells)
                .collect()
        } else {
            self.xs.clear();
            self.xs.push(0);
            let x0 = self.proposed.x_cuts[ix1];
            for j in ix1 + 1..=ix2 {
                self.xs.push(self.proposed.x_cuts[j] - x0);
            }
            self.ys.clear();
            self.ys.push(0);
            let y0 = self.proposed.y_cuts[iy1];
            for j in iy1 + 1..=iy2 {
                self.ys.push(self.proposed.y_cuts[j] - y0);
            }
            score_block(
                &self.model,
                range.net_type(),
                &self.xs,
                &self.ys,
                &self.lf,
                &mut self.fblock,
            );
            self.fblock
                .iter()
                .map(|&p| quantize_probability(p))
                .collect()
        };
        self.counters.cells_scored += scored.len();
        // Deterministic overflow policy: clear and restart. Blocks are
        // pure functions of their key, so dropping the memo never changes
        // a result, only re-scores it.
        if self.memo.len() >= self.memo_capacity {
            self.memo.clear();
        }
        self.memo.insert(self.key.clone(), Arc::clone(&scored));
        scored
    }
}

impl crate::DeltaCongestionSession for IrDeltaEvaluator {
    fn rebase(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        let cost = self.build_proposal(chip, segments);
        std::mem::swap(&mut self.committed, &mut self.proposed);
        self.pending = false;
        cost
    }

    fn propose(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        let cost = self.build_proposal(chip, segments);
        self.pending = true;
        cost
    }

    fn commit(&mut self) {
        if self.pending {
            std::mem::swap(&mut self.committed, &mut self.proposed);
            self.pending = false;
        }
    }

    fn undo(&mut self) -> f64 {
        self.pending = false;
        self.committed.cost
    }
}

/// Adds (`sign = 1`) or removes (`sign = -1`) one scored block into the
/// row-major totals grid at its snapped span.
fn apply_block(
    totals: &mut [i64],
    ir_cols: usize,
    span: (usize, usize, usize, usize),
    block: &[i64],
    sign: i64,
) {
    let (ix1, ix2, iy1, iy2) = span;
    let ncols = ix2 - ix1;
    for (jy, row) in (iy1..iy2).enumerate() {
        let base = row * ir_cols + ix1;
        let brow = jy * ncols;
        for jx in 0..ncols {
            totals[base + jx] += sign * block[brow + jx];
        }
    }
}

/// Scores one snapped range in span-local coordinates: `xs`/`ys` are the
/// cumulative cut offsets (`xs[0] = 0`, `xs.last() = g1`), `out` receives
/// the per-cell probabilities row-major. Pins map to the span's corner
/// cells (pins sit at the snapped range's corners by construction). Each
/// approximate cell's exit terms are the per-cell terms of
/// [`block_probability_approx`](super::block_probability_approx), except
/// that every integral is the closed-form [`ExitCdf`] mass (two `erf`
/// evaluations) instead of a Simpson pass. The closed form depends on nothing but `(g1, g2, exit)`
/// and the cell bounds, so scoring a brand-new cut pattern — which under
/// annealing is every move — costs O(cells) with no quadrature and no
/// caching, and a fresh session reproduces a warm session's values
/// bit for bit by construction.
fn score_block(
    model: &IrregularGridModel,
    net_type: NetType,
    xs: &[i64],
    ys: &[i64],
    lf: &LnFactorials,
    out: &mut Vec<f64>,
) {
    let ncols = xs.len() - 1;
    let nrows = ys.len() - 1;
    let g1 = xs[ncols];
    let g2 = ys[nrows];
    let snapped = RoutingRange::from_cells(0, 0, g1, g2, net_type);
    out.clear();
    out.resize(ncols * nrows, 0.0);

    // Pin IR cells: local pin coordinates 0 and g1-1 (resp. g2-1) fall in
    // the first and last cut interval of the span.
    let pins = match net_type {
        NetType::TypeI => [(0usize, 0usize), (ncols - 1, nrows - 1)],
        NetType::TypeII => [(0, nrows - 1), (ncols - 1, 0)],
    };
    let is_pin = |jx: usize, jy: usize| pins.contains(&(jx, jy));

    let use_exact = model.evaluator == Evaluator::Exact || g1 + g2 <= model.exact_threshold;
    if use_exact {
        for jy in 0..nrows {
            let y1 = ys[jy];
            let y2 = ys[jy + 1] - 1;
            for jx in 0..ncols {
                let x1 = xs[jx];
                let x2 = xs[jx + 1] - 1;
                out[jy * ncols + jx] = if is_pin(jx, jy) {
                    1.0
                } else {
                    block_probability_exact(&snapped, lf, x1, x2, y1, y2)
                };
            }
        }
        return;
    }

    fn unitf(v: i64) -> f64 {
        v as f64 // irgrid-lint: allow(C1): unit-grid offsets are small integers, exact in f64
    }

    let correction = if model.approx.continuity_correction {
        0.5
    } else {
        0.0
    };
    let mirrored = |y1: i64, y2: i64| match net_type {
        NetType::TypeI => (y1, y2),
        NetType::TypeII => (g2 - 1 - y2, g2 - 1 - y1),
    };

    let base_intervals = model.approx.simpson_intervals;
    // Row sweep: exits upward through each row's top edge. A cell over
    // unit cells `x1..=x2` integrates `[x1 - c, x2 + c]`; with the
    // continuity correction adjacent cells share their half-integer
    // boundary, so the sweep costs one CDF evaluation per cut. Rows on
    // which the closed form degenerates (extreme exits) fall back to the
    // adaptive Simpson pass of `block_probability_approx` — still a pure
    // function of the floorplan, just slower, and rare (one unit row per
    // span edge).
    for jy in 0..nrows {
        let y1 = ys[jy];
        let y2 = ys[jy + 1] - 1;
        let (_, my2) = mirrored(y1, y2);
        if my2 >= g2 - 1 {
            continue; // touches the top boundary: no routes leave upward
        }
        let cdf = ExitCdf::new(g1, g2, my2);
        if cdf.kind() == ExitKind::Zero {
            continue;
        }
        let row = jy * ncols;
        if cdf.kind() == ExitKind::Quad {
            let profile = ExitProfile::new(g1, g2, my2);
            for jx in 0..ncols {
                let a = unitf(xs[jx]) - correction;
                let b = unitf(xs[jx + 1] - 1) + correction;
                out[row + jx] = profile.integral(a, b, base_intervals);
            }
        } else if correction > 0.0 {
            let mut lo = cdf.below(unitf(xs[0]) - correction);
            for jx in 0..ncols {
                let hi = cdf.below(unitf(xs[jx + 1] - 1) + correction);
                out[row + jx] = (hi - lo).max(0.0);
                lo = hi;
            }
        } else {
            for jx in 0..ncols {
                out[row + jx] = cdf.mass(unitf(xs[jx]), unitf(xs[jx + 1] - 1));
            }
        }
    }
    // Column sweep: exits rightward through each column's right edge
    // (the axes swap). Type II mirroring reverses the row order, so the
    // shared-boundary chain walks `jy` downward there — either way each
    // cut is evaluated once.
    for jx in 0..ncols {
        let x2 = xs[jx + 1] - 1;
        if x2 >= g1 - 1 {
            continue; // touches the right boundary
        }
        let cdf = ExitCdf::new(g2, g1, x2);
        if cdf.kind() == ExitKind::Zero {
            continue;
        }
        if cdf.kind() == ExitKind::Quad {
            let profile = ExitProfile::new(g2, g1, x2);
            for jy in 0..nrows {
                let (my1, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                out[jy * ncols + jx] += profile.integral(
                    unitf(my1) - correction,
                    unitf(my2) + correction,
                    base_intervals,
                );
            }
        } else if correction > 0.0 {
            // `mirrored` is monotone in the mirrored coordinate: walk
            // cells in ascending `my` order so adjacent cells share
            // their half-integer boundary.
            let jys: &mut dyn Iterator<Item = usize> = match net_type {
                NetType::TypeI => &mut (0..nrows),
                NetType::TypeII => &mut (0..nrows).rev(),
            };
            let mut lo = cdf.below(-correction);
            for jy in jys {
                let (_, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                let hi = cdf.below(unitf(my2) + correction);
                out[jy * ncols + jx] += (hi - lo).max(0.0);
                lo = hi;
            }
        } else {
            for jy in 0..nrows {
                let (my1, my2) = mirrored(ys[jy], ys[jy + 1] - 1);
                out[jy * ncols + jx] += cdf.mass(unitf(my1) - correction, unitf(my2) + correction);
            }
        }
    }
    // Pin override and clamp, as `block_probability_approx` does per cell.
    for jy in 0..nrows {
        for jx in 0..ncols {
            let cell = &mut out[jy * ncols + jx];
            *cell = if is_pin(jx, jy) {
                1.0
            } else {
                cell.clamp(0.0, 1.0)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::approx::{block_probability_approx, ApproxConfig};
    use crate::irregular::cutlines::merged_cuts;
    use crate::DeltaCongestionSession;
    use irgrid_geom::Um;

    fn chip(w: i64, h: i64) -> Rect {
        Rect::from_origin_size(Point::ORIGIN, Um(w), Um(h))
    }

    fn pt(x: i64, y: i64) -> Point {
        Point::new(Um(x), Um(y))
    }

    /// Corridor + type II + exact-threshold mix (the evaluator tests'
    /// fixture).
    fn crossing_segments() -> Vec<(Point, Point)> {
        vec![
            (pt(30, 30), pt(840, 600)),
            (pt(60, 750), pt(780, 90)),   // type II
            (pt(240, 30), pt(300, 870)),  // near-vertical
            (pt(15, 450), pt(885, 450)),  // corridor
            (pt(90, 90), pt(150, 150)),   // small: exact-threshold path
            (pt(200, 200), pt(200, 200)), // degenerate: zero-length
        ]
    }

    fn fresh_rebase(
        model: IrregularGridModel,
        chip: &Rect,
        segments: &[(Point, Point)],
    ) -> IrDeltaEvaluator {
        let mut session = IrDeltaEvaluator::new(model);
        session.rebase(chip, segments);
        session
    }

    fn assert_bit_identical(a: &IrDeltaEvaluator, b: &IrDeltaEvaluator, context: &str) {
        assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "cost ({context})");
        assert_eq!(a.quantized(), b.quantized(), "map ({context})");
    }

    #[test]
    fn warm_session_matches_fresh_rebase_through_move_churn() {
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&the_chip, &segments);

        for step in 0..30 {
            // Move one endpoint deterministically; every 7th move is
            // re-proposed after an undo (reject/undo chains).
            let k = step % segments.len();
            let old = segments[k];
            segments[k].0 = pt(
                (old.0.x.0 + 90 * (1 + step as i64)) % 870,
                (old.0.y.0 + 150) % 870,
            );
            let proposed = warm.propose(&the_chip, &segments);
            if step % 7 == 3 {
                assert_eq!(warm.undo(), warm.cost());
                let again = warm.propose(&the_chip, &segments);
                assert_eq!(proposed.to_bits(), again.to_bits(), "re-propose after undo");
            }
            if step % 3 == 0 {
                // Reject: restore the segment list too.
                warm.undo();
                segments[k] = old;
            } else {
                warm.commit();
            }
            let reference = fresh_rebase(model, &the_chip, &segments);
            assert_bit_identical(&warm, &reference, &format!("step {step}"));
        }
    }

    #[test]
    fn fast_path_on_unchanged_cuts_is_exact() {
        // Moving a segment entirely inside its IR cell structure keeps
        // the merged cuts identical, exercising the subtract/add path.
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&the_chip, &segments);
        // Swap the two endpoints of the type II segment: same range
        // boundaries, same cuts, different nothing — then genuinely move it.
        segments[1] = (segments[1].1, segments[1].0);
        warm.propose(&the_chip, &segments);
        warm.commit();
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &the_chip, &segments),
            "endpoint swap",
        );
        segments[1].0 = pt(75, 735);
        warm.propose(&the_chip, &segments);
        warm.commit();
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &the_chip, &segments),
            "small move",
        );
    }

    #[test]
    fn unchanged_ranges_reuse_committed_blocks() {
        // Widening the small exact-threshold range by four cells moves
        // its right edge to a cut that merges away: the merged cuts stay
        // as they were, so every other range takes its committed block
        // and leaves the memo alone.
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = fresh_rebase(model, &the_chip, &segments);
        let rebuilt = warm.work_counters();
        assert_eq!((rebuilt.ranges, rebuilt.reused), (6, 0));
        assert_eq!(rebuilt.memo_hits + rebuilt.memo_misses, 6);
        let (x_cuts, y_cuts) = (warm.quantized().0.to_vec(), warm.quantized().1.to_vec());
        let memo_len = warm.memo.len();

        segments[4].1 = pt(210, 150);
        warm.propose(&the_chip, &segments);
        let moved = warm.work_counters();
        warm.commit();
        assert_eq!(warm.quantized().0, &x_cuts[..], "x cuts unchanged");
        assert_eq!(warm.quantized().1, &y_cuts[..], "y cuts unchanged");
        assert_eq!((moved.ranges, moved.reused), (6, 5), "{moved:?}");
        assert_eq!(moved.memo_hits + moved.memo_misses, 1, "{moved:?}");
        assert!(warm.memo.len() <= memo_len + 1);
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &the_chip, &segments),
            "one range moved",
        );
    }

    #[test]
    fn a_cut_shifted_inside_a_span_rescores_that_range() {
        // Nudging the type II segment's upper pin down half a cell moves
        // the y cut at 26 to 25. That cut lies inside the near-vertical
        // range's span, so that range is scored again although it did not
        // move; the other four unchanged ranges are reused.
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut segments = crossing_segments();
        let mut warm = fresh_rebase(model, &the_chip, &segments);
        let y_cuts = warm.quantized().1.to_vec();

        segments[1].0 = pt(75, 735);
        warm.propose(&the_chip, &segments);
        let moved = warm.work_counters();
        warm.commit();
        assert_ne!(warm.quantized().1, &y_cuts[..], "a y cut moved");
        assert_eq!((moved.ranges, moved.reused), (6, 4), "{moved:?}");
        assert_eq!(moved.memo_hits + moved.memo_misses, 2, "{moved:?}");
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &the_chip, &segments),
            "cut shifted under an unchanged range",
        );
    }

    #[test]
    fn memo_overflow_clears_deterministically() {
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(900, 900);
        let mut tiny = IrDeltaEvaluator::new(model);
        tiny.memo_capacity = 2;
        let mut segments = crossing_segments();
        tiny.rebase(&the_chip, &segments);
        for step in 0..10 {
            segments[0].1 = pt(840 - 30 * step, 600 - 45 * step);
            tiny.propose(&the_chip, &segments);
            tiny.commit();
            assert!(tiny.memo.len() <= 3, "memo grew past its cap + 1 insert");
            assert_bit_identical(
                &tiny,
                &fresh_rebase(model, &the_chip, &segments),
                &format!("capped step {step}"),
            );
        }
    }

    /// The per-cell oracle: the model's cuts, then every range scored
    /// IR cell by IR cell with `block_probability_exact` or
    /// `block_probability_approx` and a per-cell pin scan. Returns the
    /// cuts and each cell's float sum and Q32 sum.
    fn reference_totals(
        model: &IrregularGridModel,
        chip: &Rect,
        segments: &[(Point, Point)],
    ) -> (Vec<i64>, Vec<i64>, Vec<f64>, Vec<i64>) {
        let grid = UnitGrid::new(chip, model.pitch);
        let ranges: Vec<RoutingRange> = segments
            .iter()
            .map(|&(a, b)| RoutingRange::from_segment(&grid, a, b))
            .collect();
        let min_gap = if model.merge_lines { 2 } else { 1 };
        let x_cuts = merged_cuts(
            grid.cols(),
            ranges.iter().flat_map(|r| [r.x0(), r.x0() + r.g1()]),
            min_gap,
        );
        let y_cuts = merged_cuts(
            grid.rows(),
            ranges.iter().flat_map(|r| [r.y0(), r.y0() + r.g2()]),
            min_gap,
        );
        let ir_cols = x_cuts.len() - 1;
        let cells = ir_cols * (y_cuts.len() - 1);
        let (mut float, mut q32) = (vec![0.0f64; cells], vec![0i64; cells]);
        let lf = LnFactorials::up_to((grid.cols() + grid.rows() + 2) as usize);
        for range in &ranges {
            let (ix1, ix2) = snap_span(&x_cuts, range.x0(), range.x0() + range.g1());
            let (iy1, iy2) = snap_span(&y_cuts, range.y0(), range.y0() + range.g2());
            let corridor = range.g1() == 1 || range.g2() == 1;
            let x0 = x_cuts[ix1];
            let y0 = y_cuts[iy1];
            let g1 = x_cuts[ix2] - x0;
            let g2 = y_cuts[iy2] - y0;
            let snapped = RoutingRange::from_cells(x0, y0, g1, g2, range.net_type());
            let use_exact = model.evaluator == Evaluator::Exact || g1 + g2 <= model.exact_threshold;
            for jy in iy1..iy2 {
                let y1 = y_cuts[jy] - y0;
                let y2 = y_cuts[jy + 1] - 1 - y0;
                for jx in ix1..ix2 {
                    let x1 = x_cuts[jx] - x0;
                    let x2 = x_cuts[jx + 1] - 1 - x0;
                    let pin = snapped
                        .pin_cells()
                        .iter()
                        .any(|&(px, py)| (x1..=x2).contains(&px) && (y1..=y2).contains(&py));
                    let p = if corridor || pin {
                        1.0
                    } else if use_exact {
                        block_probability_exact(&snapped, &lf, x1, x2, y1, y2)
                    } else {
                        block_probability_approx(&snapped, x1, x2, y1, y2, &model.approx)
                    };
                    float[jy * ir_cols + jx] += p;
                    q32[jy * ir_cols + jx] += quantize_probability(p);
                }
            }
        }
        (x_cuts, y_cuts, float, q32)
    }

    #[test]
    fn formula3_paths_equal_quantized_per_cell_sums() {
        // Formula 3 is scored by the same per-cell function on both
        // sides, so the Q32 totals agree bit for bit: every range under
        // `Evaluator::Exact`, and in approximate mode every range at or
        // below the exact threshold (the small nets) plus corridors.
        let small = vec![
            (pt(90, 90), pt(150, 150)),
            (pt(300, 60), pt(180, 150)),
            (pt(400, 400), pt(490, 430)),
            (pt(15, 450), pt(885, 450)),
            (pt(200, 200), pt(200, 200)),
        ];
        for (model, segments) in [
            (
                IrregularGridModel::new(Um(30)).with_evaluator(Evaluator::Exact),
                crossing_segments(),
            ),
            (
                IrregularGridModel::new(Um(30))
                    .with_evaluator(Evaluator::Exact)
                    .without_line_merging(),
                crossing_segments(),
            ),
            (IrregularGridModel::new(Um(30)), small),
        ] {
            let (x_cuts, y_cuts, _, q32) = reference_totals(&model, &chip(900, 900), &segments);
            let session = fresh_rebase(model, &chip(900, 900), &segments);
            assert_eq!(session.quantized(), (&x_cuts[..], &y_cuts[..], &q32[..]));
        }
    }

    #[test]
    fn map_and_cost_track_per_cell_simpson() {
        // The closed-form exit integrals against the per-cell Simpson
        // oracle on the corridor + type II + exact-threshold fixture:
        // every IR cell within 2e-3 (3e-3 with unmerged lines, whose
        // thinner cells sum more exit terms) and the cost within 1e-4.
        for (model, bound) in [
            (IrregularGridModel::new(Um(30)), 2e-3),
            (IrregularGridModel::new(Um(30)).without_line_merging(), 3e-3),
        ] {
            let segments = crossing_segments();
            let (x_cuts, y_cuts, float, _) = reference_totals(&model, &chip(900, 900), &segments);
            let session = fresh_rebase(model, &chip(900, 900), &segments);
            let map = session.congestion_map();
            assert_eq!((map.x_cuts(), map.y_cuts()), (&x_cuts[..], &y_cuts[..]));
            let mut pairs = Vec::new();
            for j in 0..map.ir_rows() {
                for i in 0..map.ir_cols() {
                    let (got, want) = (map.total(i, j), float[j * map.ir_cols() + i]);
                    assert!(
                        (got - want).abs() <= bound,
                        "cell ({i},{j}): engine {got} vs per-cell Simpson {want}"
                    );
                    pairs.push((want / map.area_cells(i, j), map.area_cells(i, j)));
                }
            }
            let want = crate::score::top_area_fraction_mean(&pairs, TOP_FRACTION);
            assert!(
                (session.cost() - want).abs() <= 1e-4,
                "cost {} vs per-cell Simpson {want}",
                session.cost()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every block shape, cell by cell: the engine's scored block
        /// against `block_probability_approx` (per-cell Simpson), with
        /// the same pin override and exact-threshold dispatch, both at a
        /// converged 512 Simpson intervals. Extreme exit rows
        /// (`ExitKind::Quad`) run the same Simpson pass; closed-form
        /// cells stay within 0.02 once both sides span 7 unit cells,
        /// within 0.04 on thinner ranges.
        #[test]
        fn blocks_track_per_cell_simpson(
            (g1, g2) in (2i64..64, 2i64..64),
            type_ii in 0u8..2,
            x_picks in proptest::collection::vec(1i64..64, 0..8),
            y_picks in proptest::collection::vec(1i64..64, 0..8),
        ) {
            let cuts = |g: i64, picks: &[i64]| {
                let mut cuts: Vec<i64> = picks.iter().map(|&c| c % g).filter(|&c| c > 0).collect();
                cuts.extend([0, g]);
                cuts.sort_unstable();
                cuts.dedup();
                cuts
            };
            let (xs, ys) = (cuts(g1, &x_picks), cuts(g2, &y_picks));
            let net_type = if type_ii == 1 { NetType::TypeII } else { NetType::TypeI };
            let model = IrregularGridModel::new(Um(30)).with_approx_config(ApproxConfig {
                simpson_intervals: 512,
                ..ApproxConfig::default()
            });
            let lf = LnFactorials::up_to((g1 + g2 + 2) as usize);
            let mut block = Vec::new();
            score_block(&model, net_type, &xs, &ys, &lf, &mut block);

            let range = RoutingRange::from_cells(0, 0, g1, g2, net_type);
            let ncols = xs.len() - 1;
            for jy in 0..ys.len() - 1 {
                for jx in 0..ncols {
                    let (x1, x2, y1, y2) = (xs[jx], xs[jx + 1] - 1, ys[jy], ys[jy + 1] - 1);
                    let pin = range
                        .pin_cells()
                        .iter()
                        .any(|&(px, py)| (x1..=x2).contains(&px) && (y1..=y2).contains(&py));
                    let got = block[jy * ncols + jx];
                    // Each closed-form exit term deviates by up to 0.02;
                    // ranges 4 to 6 cells thin add two such terms.
                    let bound = if g1.min(g2) >= 7 { 0.02 } else { 0.04 };
                    if pin || g1 + g2 <= model.exact_threshold {
                        let want = if pin {
                            1.0
                        } else {
                            block_probability_exact(&range, &lf, x1, x2, y1, y2)
                        };
                        proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
                    } else {
                        let want = block_probability_approx(&range, x1, x2, y1, y2, &model.approx);
                        proptest::prop_assert!(
                            (got - want).abs() <= bound,
                            "{}x{} {:?} cell [{},{}]x[{},{}]: engine {} vs Simpson {}",
                            g1, g2, net_type, x1, x2, y1, y2, got, want
                        );
                    }
                }
            }
        }
    }

    /// The `ExitKind` of every row and column exit `score_block` sweeps
    /// (both net types) over 512 seeded spans: random axis extents and
    /// raw cuts, merged at `min_gap`, and a span between two kept cuts.
    fn merged_span_exit_kinds(min_gap: i64) -> Vec<ExitKind> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9a7);
        let mut span = || {
            let extent = rng.gen_range(1i64..=64);
            let raw: Vec<i64> = (0..rng.gen_range(0..16))
                .map(|_| rng.gen_range(0..=extent))
                .collect();
            let kept = merged_cuts(extent, raw, min_gap);
            let lo = rng.gen_range(0..kept.len() - 1);
            let hi = rng.gen_range(lo + 1..kept.len());
            kept[lo..=hi]
                .iter()
                .map(|c| c - kept[lo])
                .collect::<Vec<i64>>()
        };
        let mut kinds = Vec::new();
        for _ in 0..512 {
            let (xs, ys) = (span(), span());
            let (g1, g2) = (xs[xs.len() - 1], ys[ys.len() - 1]);
            for jy in 0..ys.len() - 1 {
                // Type I exits through a row's top edge, type II through
                // its mirrored bottom edge.
                for my2 in [ys[jy + 1] - 1, g2 - 1 - ys[jy]] {
                    if my2 < g2 - 1 {
                        kinds.push(ExitCdf::new(g1, g2, my2).kind());
                    }
                }
            }
            for x2 in xs[1..].iter().map(|x| x - 1).filter(|&x2| x2 < g1 - 1) {
                kinds.push(ExitCdf::new(g2, g1, x2).kind());
            }
        }
        kinds
    }

    #[test]
    fn merged_lines_never_produce_quad_exits() {
        // Merged intervals are at least 2 unit cells wide, so no exit
        // falls on a span's edge unit row: the `ExitProfile` fallback
        // serves only `without_line_merging`.
        let merged = merged_span_exit_kinds(2);
        assert!(merged.contains(&ExitKind::Closed));
        assert!(!merged.contains(&ExitKind::Quad));
        // One-cell intervals do, so the assertion above can fail.
        assert!(merged_span_exit_kinds(1).contains(&ExitKind::Quad));
    }

    #[test]
    fn empty_and_degenerate_floorplans() {
        let model = IrregularGridModel::new(Um(30));
        let mut session = IrDeltaEvaluator::new(model);
        assert_eq!(session.rebase(&chip(300, 300), &[]), 0.0);
        // A floorplan of only coincident-pin (zero-length) segments.
        let degenerate = vec![(pt(50, 50), pt(50, 50)); 4];
        let cost = session.propose(&chip(300, 300), &degenerate);
        session.commit();
        assert_bit_identical(
            &session,
            &fresh_rebase(model, &chip(300, 300), &degenerate),
            "degenerate",
        );
        assert!(cost.is_finite());
    }

    #[test]
    fn undo_without_proposal_is_a_noop() {
        let model = IrregularGridModel::new(Um(30));
        let mut session = IrDeltaEvaluator::new(model);
        assert_eq!(session.undo(), 0.0);
        let base = session.rebase(&chip(900, 900), &crossing_segments());
        assert_eq!(session.undo(), base);
        session.commit(); // also a no-op
        assert_eq!(session.cost(), base);
    }

    #[test]
    fn chip_resize_between_proposals() {
        // Chip growth changes the grid extent (different boundary cut),
        // forcing the full re-accumulation path.
        let model = IrregularGridModel::new(Um(30));
        let segments = crossing_segments();
        let mut warm = IrDeltaEvaluator::new(model);
        warm.rebase(&chip(900, 900), &segments);
        warm.propose(&chip(990, 930), &segments);
        warm.commit();
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &chip(990, 930), &segments),
            "resized chip",
        );
    }
}
