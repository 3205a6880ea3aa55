//! The Irregular-Grid evaluation engine, incremental by construction.
//!
//! A simulated-annealing move perturbs one or two modules, yet a rebuild
//! re-scores every range. [`IrDeltaEvaluator`] is told what a move
//! changed, as [`Splice`]s against the committed segment list, and
//! makes every stage cost what the move changed whenever it can. A
//! `rebase` is a proposal from nothing, built as a fresh session builds
//! it, and is also the model's one-shot
//! [`evaluate`](crate::CongestionModel::evaluate):
//!
//! * **Relative-signature block memo.** A range's scored block (its
//!   per-cell probabilities over the snapped span) depends only on the
//!   span's *shape*: the net type and the cut offsets relative to the
//!   span origin. Translating a range — the common case under repacking,
//!   where whole subtrees shift — reuses its block verbatim. Blocks are
//!   memoized in a `BTreeMap` (deterministic iteration; `HashMap` is
//!   banned by lint rule D1) keyed by that signature, as `Arc<[i64]>` of
//!   **Q32-quantized** probabilities.
//! * **Integer totals.** Per-cell totals are `i64` sums of quantized
//!   blocks (see [`crate::num::quantize_probability`]). Integer addition
//!   commutes, so a proposal's totals are a function of the multiset of
//!   its ranges, and incremental subtract/add updates are bit-identical
//!   to a from-scratch rebuild — the exactness the delta API demands.
//! * **Boundary counts instead of sorts.** Each axis keeps, for every
//!   unit-grid cut position, the number of range boundaries there. The
//!   merged cuts (Algorithm step 2) depend only on which positions hold
//!   a boundary, so a proposal updates the counts of the ranges that
//!   leave and enter and merges in one walk over `cols + 1` counts, with
//!   no sort of the raw cuts (about 50 700 of them on a 10k-module
//!   floorplan). A table of each position's nearest cut then snaps a
//!   span in two lookups.
//! * **Unchanged cuts: visit only the edits.** Cutlines are global state
//!   — one moved range can cascade merges arbitrarily far. When the
//!   merged cuts and the unit grid's extent come out unchanged, every
//!   other range keeps its span and block, so the proposal subtracts
//!   the blocks of the ranges that leave, adds the blocks of the ranges
//!   that enter (through the memo), and visits nothing else. A
//!   count-keeping splice pairs its segments by position: a segment
//!   equal to the committed one keeps that range for a comparison, and
//!   one whose range comes out equal keeps it too. A 10k-module move
//!   edits about 12 000 segments of 6 800 nets but changes a few hundred
//!   ranges.
//! * **Changed cuts: re-accumulate, reusing committed blocks.** When the
//!   cuts or the extent change, every range is derived again from its
//!   segment and snapped, and the totals are re-accumulated. A range
//!   equal to its committed counterpart — found through the splices, so
//!   a range behind a change of count is found too — over cut positions
//!   unchanged inside its span takes the committed block for one `Arc`
//!   clone, with no memo key and no lookup. [`WorkCounters`] says how
//!   each range of the last build got its block, how many it visited,
//!   and whether the cuts changed.
//! * **Double-buffered commit/undo.** `commit` writes the overlay's
//!   segments and changed ranges into the committed lists in place (a
//!   count-changing splice moves the tail), or swaps in the rebuilt
//!   ranges, spans and blocks, and swaps the maps; `undo` drops the
//!   proposal in O(1). No journal, no replay.
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
use std::ops::Range;
use std::sync::Arc;

use irgrid_geom::{Point, Rect};

use crate::edit::{self, Splice};
use crate::num::{dequantize_total, quantize_probability, LnFactorials};
use crate::routing::{NetType, RoutingRange};
use crate::score::{top_area_fraction_mean_with, TOP_FRACTION};
use crate::UnitGrid;

use super::approx::{ExitCdf, ExitKind, ExitProfile};
use super::cutlines::{merged_cuts_from_counts, nearest_cut_table, snap_span_in};
use super::exact::block_probability_exact;
use super::{Evaluator, IrCongestionMap, IrregularGridModel};

/// Signature tag for corridor ranges (all-ones block; only the span's
/// cell dimensions matter).
const KIND_CORRIDOR: i64 = 2;

/// Default cap on memoized blocks. At ~50 cells × 16 B per block plus
/// key overhead this bounds the memo near 100 MB worst case; in practice
/// an ami49 run stabilizes around a few thousand entries.
const DEFAULT_MEMO_CAPACITY: usize = 65_536;

/// No index: a change that only removes or only inserts, or a rebuilt
/// range with no committed counterpart.
const NONE: usize = usize::MAX;

fn span_len(lo: usize, hi: usize) -> i64 {
    (hi - lo) as i64 // irgrid-lint: allow(C1): IR spans hold < 2^32 cut intervals, far inside i64
}

/// The index of cut position `c` in a boundary-count vector. Range
/// boundaries lie in `0..=cols` by construction; anything else indexes
/// out of bounds and panics rather than miscounting.
fn slot(c: i64) -> usize {
    usize::try_from(c).unwrap_or(usize::MAX)
}

/// A range's snapped span `(ix1, ix2, iy1, iy2)` into the cut vectors.
type Span = (usize, usize, usize, usize);

/// FNV-1a over a map's exact cut vectors, Q32 totals, and cost bit
/// pattern — the bit-identity contract collapsed to 64 bits.
fn map_fingerprint(map: &Map) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(map.valid).to_le_bytes());
    eat(map.cost.to_bits().to_le_bytes());
    for slice in [&map.x_cuts, &map.y_cuts, &map.totals] {
        eat(u64::try_from(slice.len()).unwrap_or(u64::MAX).to_le_bytes());
        for &value in slice {
            eat(value.to_le_bytes());
        }
    }
    hash
}

/// A segment list, range by range: per segment its routing range,
/// snapped span and scored block.
#[derive(Debug, Default)]
struct Lists {
    segments: Vec<(Point, Point)>,
    ranges: Vec<RoutingRange>,
    spans: Vec<Span>,
    /// Scored blocks over their spans (shared with the memo).
    blocks: Vec<Arc<[i64]>>,
}

impl Lists {
    fn clear(&mut self) {
        self.segments.clear();
        self.ranges.clear();
        self.spans.clear();
        self.blocks.clear();
    }
}

/// One evaluated map: the unit grid's extent, the boundary counts and
/// merged cuts of both axes, integer per-cell totals, and the cost.
#[derive(Debug, Default)]
struct Map {
    /// Unit-grid `(cols, rows)`.
    extent: (i64, i64),
    /// Range boundaries at each cut position `0..=cols`.
    x_counts: Vec<usize>,
    /// Range boundaries at each cut position `0..=rows`.
    y_counts: Vec<usize>,
    x_cuts: Vec<i64>,
    y_cuts: Vec<i64>,
    /// The nearest x cut of every unit position `0..=cols`.
    x_nearest: Vec<usize>,
    /// The nearest y cut of every unit position `0..=rows`.
    y_nearest: Vec<usize>,
    /// Row-major Q32 totals, `(x_cuts.len() - 1) × (y_cuts.len() - 1)`.
    totals: Vec<i64>,
    cost: f64,
    valid: bool,
}

impl Map {
    /// Merges both axes' boundary counts into cuts, and tabulates the
    /// nearest cut of every unit position.
    fn merge(&mut self, min_gap: i64) {
        merged_cuts_from_counts(&self.x_counts, min_gap, &mut self.x_cuts);
        merged_cuts_from_counts(&self.y_counts, min_gap, &mut self.y_cuts);
        nearest_cut_table(&self.x_cuts, &mut self.x_nearest);
        nearest_cut_table(&self.y_cuts, &mut self.y_nearest);
    }

    /// `range`'s span snapped to the cuts.
    fn snap(&self, range: &RoutingRange) -> Span {
        let (ix1, ix2) = snap_span_in(&self.x_nearest, range.x0(), range.x0() + range.g1());
        let (iy1, iy2) = snap_span_in(&self.y_nearest, range.y0(), range.y0() + range.g2());
        (ix1, ix2, iy1, iy2)
    }

    /// Counts `range`'s four boundaries in (`add`) or out.
    fn count(&mut self, range: &RoutingRange, add: bool) {
        for (counts, lo, len) in [
            (&mut self.x_counts, range.x0(), range.g1()),
            (&mut self.y_counts, range.y0(), range.g2()),
        ] {
            for c in [lo, lo + len] {
                let count = &mut counts[slot(c)];
                if add {
                    *count += 1;
                } else {
                    *count -= 1;
                }
            }
        }
    }
}

/// A proposal as edits of the committed lists: every inserted segment,
/// and, on an unchanged extent, the ranges that leave and enter.
#[derive(Debug, Default)]
struct Overlay {
    /// The inserted segments of every edit, in order.
    segments: Vec<(Point, Point)>,
    edits: Vec<Edit>,
    /// The range changes, edit by edit: `(leaving, entering)`, a
    /// committed range (its index) that leaves and an entering range
    /// (index into `ranges`), either [`NONE`]. A count-keeping edit
    /// lists the positions whose range changed; a count-changing edit
    /// lists every range it removes and inserts.
    changes: Vec<(usize, usize)>,
    /// The entering ranges.
    ranges: Vec<RoutingRange>,
    /// The span and block of each entering range, when the overlay is
    /// the whole proposal.
    scored: Vec<(Span, Arc<[i64]>)>,
}

impl Overlay {
    fn clear(&mut self) {
        self.segments.clear();
        self.edits.clear();
        self.changes.clear();
        self.ranges.clear();
        self.scored.clear();
    }
}

/// One splice of an overlay proposal.
#[derive(Debug, Clone)]
struct Edit {
    /// The committed items `start..start + remove` give way to the
    /// overlay's segments at `insert`.
    start: usize,
    remove: usize,
    insert: Range<usize>,
    /// This edit's entries in the overlay's `changes`.
    changes: Range<usize>,
    /// This edit's entering ranges: every inserted one of a
    /// count-changing edit.
    entering: Range<usize>,
}

impl Edit {
    fn keeps_count(&self) -> bool {
        self.remove == self.insert.len()
    }
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
/// use irgrid_core::edit::Splice;
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
/// // The same move as an edit of the committed list.
/// let edit = Splice { start: 0, remove: 1, insert: &b[..] };
/// assert_eq!(session.propose_edits(&chip, &[edit]), proposed);
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
    /// The committed segment list, range by range.
    committed: Lists,
    committed_map: Map,
    /// A proposal's edits; the whole proposal when `overlaid`.
    overlay: Overlay,
    /// A rebuilt proposal's ranges, spans and blocks; its segments are
    /// the committed ones edited.
    rebuilt: Lists,
    /// Per range of `rebuilt`, the committed range it replaces or keeps,
    /// whose block it may reuse, or [`NONE`].
    origin: Vec<usize>,
    proposed_map: Map,
    /// Whether the pending proposal is the overlay rather than the
    /// rebuilt lists.
    overlaid: bool,
    pending: bool,
    // Reusable scratch (steady-state proposals allocate only on memo miss).
    key: Vec<i64>,
    xs: Vec<i64>,
    ys: Vec<i64>,
    fblock: Vec<f64>,
    pairs: Vec<(f64, f64)>,
    order: Vec<usize>,
    counters: WorkCounters,
}

/// What the last build of an [`IrDeltaEvaluator`] (a `rebase` or a
/// proposal) did, as plain counts — no clock, so equal inputs give
/// equal counts and tests can assert them.
///
/// Every range takes its block one way: `reused + memo_hits +
/// memo_misses == ranges`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Routing ranges in the scored floorplan.
    pub ranges: usize,
    /// Ranges whose block came from the committed state: a range the
    /// build did not visit, or one equal to its committed counterpart
    /// over unchanged cuts inside its span.
    pub reused: usize,
    /// Ranges whose block came from the relative-signature memo.
    pub memo_hits: usize,
    /// Ranges whose block was scored afresh.
    pub memo_misses: usize,
    /// IR cells in the blocks scored afresh.
    pub cells_scored: usize,
    /// Ranges whose block the build looked up, added or subtracted: on
    /// unchanged cuts the removed and the inserted ranges of the edits,
    /// otherwise every range.
    pub visited: usize,
    /// Whether the merged cuts or the unit grid's extent differed from
    /// the committed ones (always on a first build), so every range was
    /// snapped and accumulated again.
    pub cuts_changed: bool,
}

impl IrDeltaEvaluator {
    /// Creates a session with no committed state; the first
    /// [`rebase`](crate::DeltaCongestionSession::rebase) (or proposal)
    /// performs a full build.
    #[must_use]
    pub fn new(model: IrregularGridModel) -> IrDeltaEvaluator {
        IrDeltaEvaluator {
            model,
            lf: LnFactorials::up_to(0),
            memo: BTreeMap::new(),
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            committed: Lists::default(),
            committed_map: Map::default(),
            overlay: Overlay::default(),
            rebuilt: Lists::default(),
            origin: Vec::new(),
            proposed_map: Map::default(),
            overlaid: false,
            pending: false,
            key: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            fblock: Vec::new(),
            pairs: Vec::new(),
            order: Vec::new(),
            counters: WorkCounters::default(),
        }
    }

    /// The work counts of the last `rebase` or proposal.
    #[must_use]
    pub fn work_counters(&self) -> WorkCounters {
        self.counters
    }

    /// The committed floorplan's cost (0 before the first rebase).
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.committed_map.cost
    }

    /// The committed Q32 per-cell totals (row-major), with their cut
    /// vectors — the exact integers the bit-identity contract is stated
    /// over.
    #[must_use]
    pub fn quantized(&self) -> (&[i64], &[i64], &[i64]) {
        (
            &self.committed_map.x_cuts,
            &self.committed_map.y_cuts,
            &self.committed_map.totals,
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
            self.committed_map.valid,
            "congestion_map before the first rebase/commit"
        );
        IrCongestionMap {
            pitch: self.model.pitch,
            x_cuts: self.committed_map.x_cuts.clone(),
            y_cuts: self.committed_map.y_cuts.clone(),
            totals: self
                .committed_map
                .totals
                .iter()
                .map(|&t| dequantize_total(t))
                .collect(),
        }
    }

    /// An FNV-1a fingerprint of the committed map: the exact cut
    /// vectors, Q32 totals, and the cost's bit pattern. Two sessions
    /// with equal fingerprints committed bit-identical maps — this is
    /// the hook a checkpointing layer uses to verify that a restored
    /// session replayed to the same state it persisted.
    #[must_use]
    pub fn committed_fingerprint(&self) -> u64 {
        map_fingerprint(&self.committed_map)
    }

    /// The fingerprint [`committed_fingerprint`](Self::committed_fingerprint)
    /// would report after a [`commit`](crate::DeltaCongestionSession::commit)
    /// of the current proposal. Meaningful only while a proposal is
    /// pending; otherwise it covers whatever the last proposal built.
    /// A checkpointing layer persists this *before* committing so a
    /// restored session can be verified against it.
    #[must_use]
    pub fn proposed_fingerprint(&self) -> u64 {
        map_fingerprint(&self.proposed_map)
    }

    /// Builds the proposal of the committed list with `edits` applied,
    /// on `chip`, and returns its cost. With unchanged merged cuts and
    /// extent the proposal is an overlay that visits only the edits;
    /// otherwise the whole list is rebuilt, reusing committed blocks.
    /// The result is independent of the committed state either way.
    fn build(&mut self, chip: &Rect, edits: &[Splice<'_>]) -> f64 {
        let fit = edit::check(self.committed.segments.len(), edits);
        assert!(
            fit.is_ok(),
            "proposed edits do not fit the committed list: {fit:?}"
        );
        let grid = UnitGrid::new(chip, self.model.pitch);
        let extent = (grid.cols(), grid.rows());
        let min_gap = if self.model.merge_lines { 2 } else { 1 };
        let lf_bound = extent.0 + extent.1 + 2;
        // irgrid-lint: allow(C1): cols + rows + 2 is positive and far below usize::MAX
        self.lf.ensure_up_to(lf_bound as usize);

        self.overlay.clear();
        self.counters = WorkCounters::default();
        let map = &mut self.proposed_map;
        map.extent = extent;
        let same_extent = self.committed_map.valid && self.committed_map.extent == extent;
        self.overlaid = false;
        if same_extent {
            map.x_counts.clone_from(&self.committed_map.x_counts);
            map.y_counts.clone_from(&self.committed_map.y_counts);
        }
        // Record the edits; on an unchanged extent, also the range
        // changes and the boundary counts they leave: O(edited segments
        // + cols + rows). An inserted segment equal to the committed one
        // at its place keeps that range and costs a comparison.
        let (committed, overlay) = (&self.committed, &mut self.overlay);
        for splice in edits {
            let (at, first_change, entering) = (
                overlay.segments.len(),
                overlay.changes.len(),
                overlay.ranges.len(),
            );
            overlay.segments.extend_from_slice(splice.insert);
            if same_extent && splice.remove == splice.insert.len() {
                for (j, &new) in (splice.start..).zip(splice.insert) {
                    let (old, leaving) = (committed.segments[j], &committed.ranges[j]);
                    if old == new {
                        continue;
                    }
                    let range = RoutingRange::from_segment(&grid, new.0, new.1);
                    if range != *leaving {
                        map.count(leaving, false);
                        map.count(&range, true);
                        overlay.changes.push((j, overlay.ranges.len()));
                        overlay.ranges.push(range);
                    }
                }
            } else if same_extent {
                for j in splice.start..splice.start + splice.remove {
                    map.count(&committed.ranges[j], false);
                    overlay.changes.push((j, NONE));
                }
                for &(a, b) in splice.insert {
                    let range = RoutingRange::from_segment(&grid, a, b);
                    map.count(&range, true);
                    overlay.changes.push((NONE, overlay.ranges.len()));
                    overlay.ranges.push(range);
                }
            }
            overlay.edits.push(Edit {
                start: splice.start,
                remove: splice.remove,
                insert: at..overlay.segments.len(),
                changes: first_change..overlay.changes.len(),
                entering: entering..overlay.ranges.len(),
            });
        }
        if same_extent {
            map.merge(min_gap);
            if map.x_cuts == self.committed_map.x_cuts && map.y_cuts == self.committed_map.y_cuts {
                self.overlaid = true;
                self.overlay_totals();
                return self.finish_cost();
            }
        }
        self.counters.cuts_changed = true;
        self.rebuild(&grid, edits, !same_extent);
        self.finish_cost()
    }

    /// The overlay proposal's totals: the committed totals less the
    /// blocks of the ranges that leave plus the blocks of the ranges
    /// that enter. The merged cuts are the committed ones, so every
    /// other range keeps its span and block and is not visited.
    fn overlay_totals(&mut self) {
        let ir_cols = self.proposed_map.x_cuts.len() - 1;
        self.proposed_map
            .totals
            .clone_from(&self.committed_map.totals);
        for c in 0..self.overlay.changes.len() {
            let (leaving, entering) = self.overlay.changes[c];
            if leaving != NONE {
                apply_block(
                    &mut self.proposed_map.totals,
                    ir_cols,
                    self.committed.spans[leaving],
                    &self.committed.blocks[leaving],
                    -1,
                );
                self.counters.visited += 1;
            }
            if entering != NONE {
                let range = self.overlay.ranges[entering];
                let span = self.proposed_map.snap(&range);
                let block = self.memo_block(range, span);
                apply_block(&mut self.proposed_map.totals, ir_cols, span, &block, 1);
                self.overlay.scored.push((span, block));
                self.counters.visited += 1;
            }
        }
        let removed: usize = self.overlay.edits.iter().map(|edit| edit.remove).sum();
        self.counters.ranges = self.committed.ranges.len() + self.overlay.segments.len() - removed;
        self.counters.reused =
            self.counters.ranges - self.counters.memo_hits - self.counters.memo_misses;
    }

    /// Rebuilds the proposal's ranges, spans, blocks and totals: every
    /// range derived from its segment, snapped to the proposal's cuts
    /// and accumulated afresh. A range the splices map to an equal
    /// committed range, over cut positions unchanged inside its span,
    /// takes the committed block. On a changed extent (`recount`) the
    /// boundary counts are taken again and merged too.
    fn rebuild(&mut self, grid: &UnitGrid, edits: &[Splice<'_>], recount: bool) {
        let committed = &self.committed;
        self.rebuilt.clear();
        self.origin.clear();
        let mut proposed = std::mem::take(&mut self.rebuilt.ranges);
        let tail = Splice {
            start: committed.segments.len(),
            remove: 0,
            insert: &[],
        };
        let mut floor = 0;
        for splice in edits.iter().chain([&tail]) {
            // The committed items between the previous splice and this
            // one, then the splice's own.
            let kept = floor..splice.start;
            proposed.extend(
                committed.segments[kept.clone()]
                    .iter()
                    .chain(splice.insert)
                    .map(|&(a, b)| RoutingRange::from_segment(grid, a, b)),
            );
            self.origin.extend(kept);
            self.origin.extend((0..splice.insert.len()).map(|k| {
                if k < splice.remove {
                    splice.start + k
                } else {
                    NONE
                }
            }));
            floor = splice.start + splice.remove;
        }
        let map = &mut self.proposed_map;
        if recount {
            let (cols, rows) = map.extent;
            map.x_counts.clear();
            map.x_counts.resize(slot(cols) + 1, 0);
            map.y_counts.clear();
            map.y_counts.resize(slot(rows) + 1, 0);
            for range in &proposed {
                map.count(range, true);
            }
            map.merge(if self.model.merge_lines { 2 } else { 1 });
        }
        let ir_cols = map.x_cuts.len() - 1;
        let ir_rows = map.y_cuts.len() - 1;
        map.totals.clear();
        map.totals.resize(ir_cols * ir_rows, 0);

        let n = proposed.len();
        self.counters.ranges = n;
        self.counters.visited = n;
        for (i, &range) in proposed.iter().enumerate() {
            let span = self.proposed_map.snap(&range);
            let j = self.origin[i];
            let reuse = j != NONE && self.committed.ranges[j] == range && {
                let (ix1, ix2, iy1, iy2) = span;
                let (cx1, cx2, cy1, cy2) = self.committed.spans[j];
                self.proposed_map.x_cuts[ix1..=ix2] == self.committed_map.x_cuts[cx1..=cx2]
                    && self.proposed_map.y_cuts[iy1..=iy2] == self.committed_map.y_cuts[cy1..=cy2]
            };
            let block = if reuse {
                self.counters.reused += 1;
                Arc::clone(&self.committed.blocks[j])
            } else {
                self.memo_block(range, span)
            };
            apply_block(&mut self.proposed_map.totals, ir_cols, span, &block, 1);
            self.rebuilt.spans.push(span);
            self.rebuilt.blocks.push(block);
        }
        self.rebuilt.ranges = proposed;
    }

    /// Scores the proposal's totals and marks it valid. Identical
    /// arithmetic to `IrCongestionMap::cost` over the dequantized
    /// densities (dequantization is exact).
    fn finish_cost(&mut self) -> f64 {
        let map = &mut self.proposed_map;
        let ir_cols = map.x_cuts.len() - 1;
        let ir_rows = map.y_cuts.len() - 1;
        self.pairs.clear();
        for j in 0..ir_rows {
            for i in 0..ir_cols {
                let dx = map.x_cuts[i + 1] - map.x_cuts[i];
                let dy = map.y_cuts[j + 1] - map.y_cuts[j];
                // irgrid-lint: allow(C1): cell areas are below 2^53, exact in f64
                let area = (dx * dy) as f64;
                self.pairs
                    .push((dequantize_total(map.totals[j * ir_cols + i]) / area, area));
            }
        }
        let cost = top_area_fraction_mean_with(&self.pairs, TOP_FRACTION, &mut self.order);
        map.cost = cost;
        map.valid = true;
        cost
    }

    /// The scored block of `range` over its snapped proposed `span`, from
    /// the relative-signature memo or, on a miss, freshly scored and
    /// memoized.
    fn memo_block(&mut self, range: RoutingRange, span: Span) -> Arc<[i64]> {
        let (ix1, ix2, iy1, iy2) = span;
        let (x_cuts, y_cuts) = (&self.proposed_map.x_cuts, &self.proposed_map.y_cuts);
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
            let x0 = x_cuts[ix1];
            self.key
                .extend(x_cuts[ix1 + 1..=ix2].iter().map(|&cut| cut - x0));
            let y0 = y_cuts[iy1];
            self.key
                .extend(y_cuts[iy1 + 1..=iy2].iter().map(|&cut| cut - y0));
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
            let x0 = x_cuts[ix1];
            self.xs
                .extend(x_cuts[ix1..=ix2].iter().map(|&cut| cut - x0));
            self.ys.clear();
            let y0 = y_cuts[iy1];
            self.ys
                .extend(y_cuts[iy1..=iy2].iter().map(|&cut| cut - y0));
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
    /// A proposal from nothing: with the committed state cleared and its
    /// map invalid, the splice inserting every segment builds as on a
    /// fresh session.
    fn rebase(&mut self, chip: &Rect, segments: &[(Point, Point)]) -> f64 {
        self.committed.clear();
        self.committed_map.valid = false;
        let all = Splice {
            start: 0,
            remove: 0,
            insert: segments,
        };
        let cost = self.propose_edits(chip, &[all]);
        self.commit();
        cost
    }

    fn committed_segments(&self) -> &[(Point, Point)] {
        &self.committed.segments
    }

    fn propose_edits(&mut self, chip: &Rect, edits: &[Splice<'_>]) -> f64 {
        let cost = self.build(chip, edits);
        self.pending = true;
        cost
    }

    fn commit(&mut self) {
        if !self.pending {
            return;
        }
        let (committed, overlay) = (&mut self.committed, &self.overlay);
        // Count-keeping edits first, in place: no index moves.
        for edit in overlay.edits.iter().filter(|edit| edit.keeps_count()) {
            committed.segments[edit.start..edit.start + edit.remove]
                .copy_from_slice(&overlay.segments[edit.insert.clone()]);
            if self.overlaid {
                for &(j, i) in &overlay.changes[edit.changes.clone()] {
                    let (span, block) = &overlay.scored[i];
                    committed.ranges[j] = overlay.ranges[i];
                    committed.spans[j] = *span;
                    committed.blocks[j] = Arc::clone(block);
                }
            }
        }
        // Count-changing edits last first, so every start still indexes
        // the committed list.
        for edit in overlay
            .edits
            .iter()
            .rev()
            .filter(|edit| !edit.keeps_count())
        {
            let removed = edit.start..edit.start + edit.remove;
            committed.segments.splice(
                removed.clone(),
                overlay.segments[edit.insert.clone()].iter().copied(),
            );
            if self.overlaid {
                let entering = edit.entering.clone();
                committed.ranges.splice(
                    removed.clone(),
                    overlay.ranges[entering.clone()].iter().copied(),
                );
                let scored = &overlay.scored[entering];
                committed
                    .spans
                    .splice(removed.clone(), scored.iter().map(|(span, _)| *span));
                committed
                    .blocks
                    .splice(removed, scored.iter().map(|(_, block)| Arc::clone(block)));
            }
        }
        if !self.overlaid {
            std::mem::swap(&mut committed.ranges, &mut self.rebuilt.ranges);
            std::mem::swap(&mut committed.spans, &mut self.rebuilt.spans);
            std::mem::swap(&mut committed.blocks, &mut self.rebuilt.blocks);
        }
        std::mem::swap(&mut self.committed_map, &mut self.proposed_map);
        self.pending = false;
    }

    fn undo(&mut self) -> f64 {
        self.pending = false;
        self.committed_map.cost
    }
}

/// Adds (`sign = 1`) or removes (`sign = -1`) one scored block into the
/// row-major totals grid at its snapped span.
fn apply_block(totals: &mut [i64], ir_cols: usize, span: Span, block: &[i64], sign: i64) {
    let (ix1, ix2, iy1, iy2) = span;
    let ncols = ix2 - ix1;
    for (row, cells) in (iy1..iy2).zip(block.chunks_exact(ncols)) {
        let base = row * ir_cols + ix1;
        let totals = totals[base..base + ncols].iter_mut().zip(cells);
        if sign > 0 {
            totals.for_each(|(total, &cell)| *total += cell);
        } else {
            totals.for_each(|(total, &cell)| *total -= cell);
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
    use crate::irregular::cutlines::{merged_cuts, snap_span};
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

    /// A 4×4-cell chip whose every cut position holds two range
    /// boundaries on both axes, so no range change can move a merged
    /// cut, plus `extra` seeded segments.
    fn saturated(extra: usize) -> Vec<(Point, Point)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0c4a);
        let mut segments: Vec<(Point, Point)> = (0..4)
            .flat_map(|c| {
                let p = pt(30 * c + 15, 30 * c + 15);
                [(p, p), (p, p)]
            })
            .collect();
        segments.extend((0..extra).map(|_| {
            let mut end = || pt(rng.gen_range(0..=120), rng.gen_range(0..=120));
            (end(), end())
        }));
        segments
    }

    #[test]
    fn a_move_that_keeps_the_cuts_visits_what_it_changed_whatever_the_list_length() {
        // One endpoint moved on a 10-segment and a 10 000-segment list:
        // the cuts stay, and the build subtracts the old range's block and
        // adds the new one's, nothing else. No clock: the counts alone
        // show the work does not grow with the list.
        let model = IrregularGridModel::new(Um(30));
        let the_chip = chip(120, 120);
        let mut visits = Vec::new();
        for extra in [2, 9_992] {
            let mut segments = saturated(extra);
            segments[8] = (pt(15, 15), pt(45, 45));
            let mut warm = fresh_rebase(model, &the_chip, &segments);
            let cuts = (warm.quantized().0.to_vec(), warm.quantized().1.to_vec());
            segments[8].1 = pt(105, 75);
            let edit = Splice {
                start: 8,
                remove: 1,
                insert: &segments[8..9],
            };
            let cost = warm.propose_edits(&the_chip, &[edit]);
            let work = warm.work_counters();
            warm.commit();
            assert_eq!(
                (warm.quantized().0, warm.quantized().1),
                (&cuts.0[..], &cuts.1[..]),
                "the cuts stay"
            );
            assert!(!work.cuts_changed, "{work:?}");
            assert_eq!(work.ranges, segments.len(), "{work:?}");
            assert_eq!(
                work.reused + work.memo_hits + work.memo_misses,
                work.ranges,
                "{work:?}"
            );
            assert_eq!(
                cost.to_bits(),
                fresh_rebase(model, &the_chip, &segments).cost().to_bits()
            );
            assert_bit_identical(
                &warm,
                &fresh_rebase(model, &the_chip, &segments),
                &format!("{} segments", segments.len()),
            );
            visits.push(work.visited);
        }
        assert_eq!(visits, [2, 2]);
    }

    #[test]
    fn a_whole_list_build_visits_every_range() {
        let model = IrregularGridModel::new(Um(30));
        let segments = crossing_segments();
        let mut warm = fresh_rebase(model, &chip(900, 900), &segments);
        let rebuilt = warm.work_counters();
        assert!(rebuilt.cuts_changed, "a first build has no cuts to keep");
        assert_eq!(rebuilt.visited, 6);
        // A resized chip changes the extent: every range again.
        warm.propose(&chip(990, 930), &segments);
        let resized = warm.work_counters();
        assert!(resized.cuts_changed);
        assert_eq!((resized.visited, resized.ranges), (6, 6));
        assert_eq!(resized.reused + resized.memo_hits + resized.memo_misses, 6);
        // A warm rebase builds from nothing too: it takes no block from
        // the state it replaces, even one it would leave unchanged.
        warm.commit();
        warm.rebase(&chip(990, 930), &segments);
        let rebased = warm.work_counters();
        assert!(rebased.cuts_changed);
        assert_eq!((rebased.visited, rebased.reused), (6, 0));
        assert_bit_identical(
            &warm,
            &fresh_rebase(model, &chip(990, 930), &segments),
            "warm rebase",
        );
    }
}
