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

use irgrid_core::{DeltaCongestion, DeltaCongestionSession, IrDeltaEvaluator, IrregularGridModel};
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
