//! Property-based equivalence of the incremental congestion evaluator.
//!
//! The [`IrDeltaEvaluator`] contract is that a warm session — any history
//! of proposals, commits, undos, and re-proposals — scores every segment
//! list **bit-identically** to a freshly constructed session rebased on
//! the same list. These properties drive randomized move sequences
//! (including rejected-move undo chains, repeated edits of the same
//! segment, zero-length segments, fully overlapping ranges, and mid-list
//! insertions and removals that shift every later range's index) and
//! check both the returned cost and the committed quantized congestion
//! state against a from-scratch evaluation after every move.

use irgrid_core::edit::Splice;
use irgrid_core::{
    CongestionModel, DeltaCongestion, DeltaCongestionSession, FixedGridModel, IrDeltaEvaluator,
    IrregularGridModel,
};
use irgrid_geom::{Point, Rect, Um};
use proptest::prelude::*;

const PITCH: Um = Um(25);

fn arb_point(w: i64, h: i64) -> impl Strategy<Value = Point> {
    (0..=w, 0..=h).prop_map(|(x, y)| Point::new(Um(x), Um(y)))
}

fn arb_segment(w: i64, h: i64) -> impl Strategy<Value = (Point, Point)> {
    (arb_point(w, h), arb_point(w, h))
}

/// One edit of the segment list plus the accept/reject decision and
/// whether to exercise an undo → re-propose chain first.
#[derive(Debug, Clone)]
struct MoveSpec {
    /// Selects the edited segment (taken modulo the list length).
    slot: usize,
    segment: (Point, Point),
    /// 0 = push, 1 = pop, 2 = insert at the slot, 3 = remove at the
    /// slot, otherwise replace in place. Inserts and removals shift every
    /// later range off its committed index.
    op: u8,
    accept: bool,
    double_propose: bool,
}

fn arb_move(w: i64, h: i64) -> impl Strategy<Value = MoveSpec> {
    (0usize..64, arb_segment(w, h), 0u8..8, 0u8..2, 0u8..2).prop_map(
        |(slot, segment, op, accept, double_propose)| MoveSpec {
            slot,
            segment,
            op,
            accept: accept == 1,
            double_propose: double_propose == 1,
        },
    )
}

/// Applies a move to a plain `Vec` — the reference model of what the
/// committed segment list should be if the move is accepted.
fn apply_move(segments: &mut Vec<(Point, Point)>, spec: &MoveSpec) {
    match spec.op {
        0 => segments.push(spec.segment),
        1 => {
            segments.pop();
        }
        2 => {
            let slot = spec.slot % (segments.len() + 1);
            segments.insert(slot, spec.segment);
        }
        3 if !segments.is_empty() => {
            let slot = spec.slot % segments.len();
            segments.remove(slot);
        }
        _ => {
            if segments.is_empty() {
                segments.push(spec.segment);
            } else {
                let slot = spec.slot % segments.len();
                segments[slot] = spec.segment;
            }
        }
    }
}

fn fresh_cost(chip: &Rect, segments: &[(Point, Point)]) -> f64 {
    let mut fresh = IrregularGridModel::new(PITCH).delta_session();
    fresh.rebase(chip, segments)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core tentpole property: a warm session driven through an
    /// arbitrary accept/reject history never drifts from from-scratch
    /// evaluation — not in the cost bits, not in the quantized map.
    #[test]
    fn warm_session_is_bit_identical_to_scratch(
        (chip_w, chip_h, initial, moves) in (60i64..400, 60i64..400).prop_flat_map(|(w, h)| {
            (
                Just(w),
                Just(h),
                proptest::collection::vec(arb_segment(w, h), 0..12),
                proptest::collection::vec(arb_move(w, h), 1..20),
            )
        })
    ) {
        let chip = Rect::new(Point::new(Um(0), Um(0)), Point::new(Um(chip_w), Um(chip_h)));
        let mut committed = initial;
        let mut warm = IrregularGridModel::new(PITCH).delta_session();
        let warm_cost = warm.rebase(&chip, &committed);
        prop_assert_eq!(warm_cost.to_bits(), fresh_cost(&chip, &committed).to_bits());

        for (step, spec) in moves.iter().enumerate() {
            let mut proposed_segments = committed.clone();
            apply_move(&mut proposed_segments, spec);

            if spec.double_propose {
                // Propose, retract, and re-propose: the second proposal
                // must be unaffected by the first.
                let first = warm.propose(&chip, &proposed_segments);
                let restored = warm.undo();
                prop_assert_eq!(restored.to_bits(), fresh_cost(&chip, &committed).to_bits());
                let second = warm.propose(&chip, &proposed_segments);
                prop_assert_eq!(first.to_bits(), second.to_bits(), "step {}", step);
            }

            let proposed = warm.propose(&chip, &proposed_segments);
            let scratch = fresh_cost(&chip, &proposed_segments);
            prop_assert_eq!(
                proposed.to_bits(), scratch.to_bits(),
                "step {}: warm {} vs scratch {}", step, proposed, scratch
            );

            if spec.accept {
                warm.commit();
                committed = proposed_segments;
            } else {
                let restored = warm.undo();
                prop_assert_eq!(restored.to_bits(), fresh_cost(&chip, &committed).to_bits());
            }

            // The committed quantized state must equal a fresh rebase of
            // the committed list, whatever mix of commits and undos ran.
            let mut reference = IrregularGridModel::new(PITCH).delta_session();
            let _ = reference.rebase(&chip, &committed);
            let (wx, wy, wt) = warm.quantized();
            let (rx, ry, rt) = reference.quantized();
            prop_assert_eq!(wx, rx, "step {}: x cuts diverged", step);
            prop_assert_eq!(wy, ry, "step {}: y cuts diverged", step);
            prop_assert_eq!(wt, rt, "step {}: quantized totals diverged", step);
        }
    }

    /// Degenerate inputs — every segment zero-length or all segments
    /// identical (fully overlapping ranges) — keep the session exact.
    #[test]
    fn degenerate_nets_stay_exact(
        (point, copies, accept_mask) in
            (arb_point(200, 200), 1usize..6, 0u8..4)
    ) {
        let chip = Rect::new(Point::new(Um(0), Um(0)), Point::new(Um(200), Um(200)));
        let zero_length = vec![(point, point); copies];
        let overlapping = vec![(Point::new(Um(10), Um(10)), point); copies];

        let mut warm: IrDeltaEvaluator = IrregularGridModel::new(PITCH).delta_session();
        let mut committed: Vec<(Point, Point)> = Vec::new();
        let _ = warm.rebase(&chip, &committed);
        for (step, list) in [zero_length, overlapping].into_iter().enumerate() {
            let proposed = warm.propose(&chip, &list);
            prop_assert_eq!(proposed.to_bits(), fresh_cost(&chip, &list).to_bits());
            if accept_mask & (1 << step) != 0 {
                warm.commit();
                committed = list;
            } else {
                let restored = warm.undo();
                prop_assert_eq!(restored.to_bits(), fresh_cost(&chip, &committed).to_bits());
            }
        }
    }
}

/// Net slots of the edit-sequence property: `None` is an absent net. The
/// scored list holds the present nets' segments back to back in slot
/// order, as the floorplanner lays them out.
type Nets = Vec<Option<Vec<(Point, Point)>>>;

fn flatten(nets: &Nets) -> Vec<(Point, Point)> {
    nets.iter().flatten().flatten().copied().collect()
}

/// One net edit of the edit-sequence property.
#[derive(Debug, Clone)]
struct NetEdit {
    slot: usize,
    /// 0 adds or replaces the net with `segments`, 1 removes it, 2
    /// empties it, 3 splits it into its old segments plus `segments`
    /// (more segments), 4 keeps its first segment only (fewer),
    /// otherwise nudges every endpoint by `nudge`.
    kind: u8,
    segments: Vec<(Point, Point)>,
    nudge: (i64, i64),
}

/// One step of the edit-sequence property: up to three net edits and a
/// chip resize, then the accept decision and whether to run an undo →
/// re-propose chain first.
#[derive(Debug, Clone)]
struct NetStep {
    edits: Vec<NetEdit>,
    /// Chip growth (or shrink) in µm; crosses a unit-grid boundary when
    /// it moves `ceil(side / pitch)`.
    resize: (i64, i64),
    /// Also send a splice for an unchanged net.
    idle_splice: bool,
    accept: bool,
    double_propose: bool,
}

fn arb_net_step(w: i64, h: i64) -> impl Strategy<Value = NetStep> {
    let edit = (
        0usize..8,
        0u8..8,
        proptest::collection::vec(arb_segment(w, h), 0..4),
        (-20i64..20, -20i64..20),
    )
        .prop_map(|(slot, kind, segments, nudge)| NetEdit {
            slot,
            kind,
            segments,
            nudge,
        });
    (
        proptest::collection::vec(edit, 1..4),
        prop_oneof![Just((0, 0)), (-40i64..40, -40i64..40)],
        0u8..4,
        0u8..2,
        0u8..2,
    )
        .prop_map(|(edits, resize, idle, accept, double_propose)| NetStep {
            edits,
            resize,
            idle_splice: idle == 0,
            accept: accept == 1,
            double_propose: double_propose == 1,
        })
}

/// Applies a step's net edits to a copy of `nets`.
fn edit_nets(nets: &Nets, step: &NetStep) -> Nets {
    let mut next = nets.clone();
    for NetEdit {
        slot,
        kind,
        segments,
        nudge: (dx, dy),
    } in &step.edits
    {
        let net = &mut next[*slot];
        let nudge = |p: Point| Point::new(Um(p.x.0 + dx).max(Um(0)), Um(p.y.0 + dy).max(Um(0)));
        *net = match (*kind, net.take()) {
            (0, _) => Some(segments.clone()),
            (1, _) => None,
            (2, _) => Some(Vec::new()),
            (3, old) => Some(
                old.unwrap_or_default()
                    .into_iter()
                    .chain(segments.iter().copied())
                    .collect(),
            ),
            (4, old) => Some(old.unwrap_or_default().into_iter().take(1).collect()),
            (_, old) => old.map(|old| old.into_iter().map(|(a, b)| (nudge(a), nudge(b))).collect()),
        };
    }
    next
}

/// One splice per net whose segments changed, at the net's place in the
/// committed list (and, with `idle`, one for the first unchanged net).
fn net_splices<'a>(from: &Nets, to: &'a Nets, idle: bool) -> Vec<Splice<'a>> {
    let mut splices = Vec::new();
    let (mut start, mut idle) = (0, idle);
    for (old, new) in from.iter().zip(to) {
        let old = old.as_deref().unwrap_or_default();
        let new = new.as_deref().unwrap_or_default();
        if old != new || std::mem::take(&mut idle) {
            splices.push(Splice {
                start,
                remove: old.len(),
                insert: new,
            });
        }
        start += old.len();
    }
    splices
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edit sequences over nets — added, removed, emptied, split into
    /// more or fewer segments, nudged, on a chip resized across
    /// unit-grid boundaries — under accept, undo and double-propose
    /// chains: the edit form, the whole-list wrapper and a fresh rebase
    /// agree in cost bits and in the committed map after every step, and
    /// the same edits through the stateless session equal `evaluate`.
    #[test]
    fn net_edit_sequences_agree_with_the_wrapper_and_a_fresh_rebase(
        (w, h, initial, steps) in (60i64..300, 60i64..300).prop_flat_map(|(w, h)| {
            (
                Just(w),
                Just(h),
                proptest::collection::vec(
                    prop_oneof![
                        Just(None),
                        proptest::collection::vec(arb_segment(w, h), 0..4).prop_map(Some),
                    ],
                    8,
                ),
                proptest::collection::vec(arb_net_step(w, h), 1..16),
            )
        })
    ) {
        let mut nets: Nets = initial;
        let mut chip = Rect::new(Point::ORIGIN, Point::new(Um(w), Um(h)));
        let model = IrregularGridModel::new(PITCH);
        let fixed = FixedGridModel::new(PITCH);
        let mut edited = model.delta_session();
        let mut whole = model.delta_session();
        let mut stateless = fixed.delta_session();
        let start = flatten(&nets);
        edited.rebase(&chip, &start);
        whole.rebase(&chip, &start);
        stateless.rebase(&chip, &start);

        for (index, step) in steps.iter().enumerate() {
            let next = edit_nets(&nets, step);
            let flat = flatten(&next);
            let next_chip = Rect::new(
                Point::ORIGIN,
                Point::new(
                    (chip.width() + Um(step.resize.0)).max(Um(30)),
                    (chip.height() + Um(step.resize.1)).max(Um(30)),
                ),
            );
            let splices = net_splices(&nets, &next, step.idle_splice);
            let scratch = fresh_cost(&next_chip, &flat);
            if step.double_propose {
                let first = edited.propose_edits(&next_chip, &splices);
                prop_assert_eq!(edited.undo().to_bits(), fresh_cost(&chip, &flatten(&nets)).to_bits());
                prop_assert_eq!(first.to_bits(), scratch.to_bits(), "step {}: first proposal", index);
            }
            let by_edits = edited.propose_edits(&next_chip, &splices);
            let by_list = whole.propose(&next_chip, &flat);
            prop_assert_eq!(by_edits.to_bits(), scratch.to_bits(), "step {}: edits vs scratch", index);
            prop_assert_eq!(by_list.to_bits(), scratch.to_bits(), "step {}: list vs scratch", index);
            let stateless_cost = stateless.propose_edits(&next_chip, &splices);
            prop_assert_eq!(
                stateless_cost.to_bits(),
                fixed.evaluate(&next_chip, &flat).to_bits(),
                "step {}: stateless vs evaluate", index
            );

            if step.accept {
                edited.commit();
                whole.commit();
                stateless.commit();
                nets = next;
                chip = next_chip;
            } else {
                let committed = fresh_cost(&chip, &flatten(&nets));
                prop_assert_eq!(edited.undo().to_bits(), committed.to_bits());
                prop_assert_eq!(whole.undo().to_bits(), committed.to_bits());
                prop_assert_eq!(
                    stateless.undo().to_bits(),
                    fixed.evaluate(&chip, &flatten(&nets)).to_bits()
                );
            }
            let committed = flatten(&nets);
            prop_assert_eq!(edited.committed_segments(), &committed[..]);
            prop_assert_eq!(stateless.committed_segments(), &committed[..]);
            let mut reference = model.delta_session();
            reference.rebase(&chip, &committed);
            prop_assert_eq!(edited.quantized(), reference.quantized(), "step {}: edits map", index);
            prop_assert_eq!(whole.quantized(), reference.quantized(), "step {}: list map", index);
            prop_assert_eq!(
                edited.committed_fingerprint(),
                reference.committed_fingerprint(),
                "step {}: fingerprint", index
            );
        }
    }
}
