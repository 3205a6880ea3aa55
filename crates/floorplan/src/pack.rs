//! Slicing-tree packing with shape lists.
//!
//! Each leaf (module) offers a list of candidate shapes; internal nodes
//! combine child shape lists and prune dominated shapes (Stockmeyer's
//! optimal-orientation algorithm). The root shape of minimum area is
//! selected and positions are assigned top-down.
//!
//! Every node's pruned list lives in one flat arena, in postfix order.
//! A node's unpruned list — a leaf's candidates, or an operator's
//! Cartesian product of its children's lists — is built in one reused
//! scratch buffer, stably sorted, and pruned onto the arena's end, so a
//! repack allocates a few buffers rather than three per node. The lists
//! are short — along perturbation walks on ami49 and a 10k-module
//! synthetic a pruned list holds at most 6 shapes and a product at most
//! 30 — so the product-and-prune needs no linear-merge variant.
//!
//! Two entry points:
//!
//! * [`pack`] — hard modules: each leaf offers its two 90°-rotations
//!   (what the paper's benchmarks use);
//! * [`pack_with_shapes`] — arbitrary per-module shape candidates,
//!   enabling *soft* modules via [`soft_shapes`] (the Wong–Liu
//!   shape-curve extension).

use irgrid_geom::{Point, Rect, Um, UmArea};
use irgrid_netlist::{Circuit, ModuleId};

use crate::{Cut, Element, Placement, PolishExpr};

/// One realizable shape of a subtree, with back-pointers to the child
/// shapes that realize it.
#[derive(Debug, Clone, Copy)]
struct Shape {
    w: Um,
    h: Um,
    /// Chosen shape index in the left child (leaves: index into the
    /// candidate list).
    left_choice: u32,
    /// Chosen shape index in the right child (unused for leaves).
    right_choice: u32,
}

impl Shape {
    fn leaf(choice: usize, w: Um, h: Um) -> Shape {
        Shape {
            w,
            h,
            left_choice: choice as u32,
            right_choice: 0,
        }
    }
}

#[derive(Debug)]
enum Node {
    Leaf(ModuleId),
    Internal { cut: Cut, left: usize, right: usize },
}

/// Every node's pruned shape list, concatenated in postfix order.
#[derive(Debug, Default)]
struct ShapeLists {
    shapes: Vec<Shape>,
    /// Node `i`'s list is `shapes[bounds[i].0..bounds[i].1]`.
    bounds: Vec<(usize, usize)>,
}

impl ShapeLists {
    fn list(&self, node: usize) -> &[Shape] {
        let (start, end) = self.bounds[node];
        &self.shapes[start..end]
    }

    /// Stably sorts `unpruned` by width, then height, and appends its
    /// non-dominated shapes as the next node's list: increasing width,
    /// strictly decreasing height.
    fn push_pruned(&mut self, unpruned: &mut [Shape]) {
        unpruned.sort_by_key(|s| (s.w, s.h));
        let start = self.shapes.len();
        for &s in unpruned.iter() {
            if let Some(last) = self.shapes[start..].last() {
                // Same width: the earlier (smaller-height) entry
                // dominates. Wider and at least as tall: dominated.
                if last.w == s.w || last.h <= s.h {
                    continue;
                }
            }
            self.shapes.push(s);
        }
        self.bounds.push((start, self.shapes.len()));
    }
}

/// Packs a Polish expression into a [`Placement`] of minimum chip area,
/// allowing each hard module its two 90° orientations.
///
/// Among root shapes the minimum-area one is chosen (ties broken toward
/// the squarer shape, which keeps aspect ratios reasonable for
/// congestion estimation).
///
/// # Panics
///
/// Panics if the expression's operand count differs from the circuit's
/// module count (the two always travel together in the annealer).
#[must_use]
pub fn pack(expr: &PolishExpr, circuit: &Circuit) -> Placement {
    assert_eq!(
        expr.operand_count(),
        circuit.modules().len(),
        "expression and circuit disagree on module count"
    );
    let modules = circuit.modules();
    let (rects, chip) = pack_impl(expr, modules.len(), |id, shapes| {
        let m = &modules[id.index()];
        shapes.push(Shape::leaf(0, m.width(), m.height()));
        if m.width() != m.height() {
            shapes.push(Shape::leaf(1, m.height(), m.width()));
        }
    });
    let rotated = circuit
        .modules_with_ids()
        .map(|(id, m)| rects[id.index()].width() != m.width())
        .collect();
    Placement::from_parts(rects, rotated, chip)
}

/// Packs with arbitrary per-module shape candidates.
///
/// `candidates[i]` lists the `(width, height)` shapes module `i` may
/// take; use [`soft_shapes`] to generate candidates for soft modules.
/// The returned placement reports no rotations (shape choice subsumes
/// orientation); the chosen dimensions are in the module rectangles.
///
/// # Panics
///
/// Panics if the candidate-list count differs from the expression's
/// operand count, any list is empty, or any dimension is not positive.
#[must_use]
pub fn pack_with_shapes(expr: &PolishExpr, candidates: &[Vec<(Um, Um)>]) -> Placement {
    assert_eq!(
        expr.operand_count(),
        candidates.len(),
        "expression and shape lists disagree on module count"
    );
    let (rects, chip) = pack_impl(expr, candidates.len(), |id, shapes| {
        let list = &candidates[id.index()];
        assert!(!list.is_empty(), "module {id} has no shape candidates");
        for (i, &(w, h)) in list.iter().enumerate() {
            assert!(
                w > Um::ZERO && h > Um::ZERO,
                "module {id} candidate {i} has non-positive dims {w} x {h}"
            );
            shapes.push(Shape::leaf(i, w, h));
        }
    });
    let rotated = vec![false; candidates.len()];
    Placement::from_parts(rects, rotated, chip)
}

/// Generates `count` discrete shape candidates for a soft module of the
/// given area, with aspect ratios (width/height) log-spaced over
/// `[ar_min, ar_max]`.
///
/// Dimensions are rounded to integer micrometers (minimum 1), so the
/// realized areas differ from `area` by at most one row/column of
/// micrometers.
///
/// # Panics
///
/// Panics if `area` is not positive, the ratio range is invalid, or
/// `count` is zero.
///
/// # Examples
///
/// ```
/// use irgrid_floorplan::soft_shapes;
/// use irgrid_geom::UmArea;
///
/// let shapes = soft_shapes(UmArea(10_000), 0.5, 2.0, 5);
/// assert_eq!(shapes.len(), 5);
/// // The middle candidate is square-ish.
/// assert_eq!(shapes[2], (irgrid_geom::Um(100), irgrid_geom::Um(100)));
/// ```
#[must_use]
pub fn soft_shapes(area: UmArea, ar_min: f64, ar_max: f64, count: usize) -> Vec<(Um, Um)> {
    assert!(
        area > UmArea::ZERO,
        "soft module area must be positive, got {area}"
    );
    assert!(
        ar_min > 0.0 && ar_min <= ar_max,
        "invalid aspect-ratio range [{ar_min}, {ar_max}]"
    );
    assert!(count > 0, "need at least one shape candidate");
    let area = area.0 as f64;
    (0..count)
        .map(|i| {
            let t = if count == 1 {
                0.5
            } else {
                i as f64 / (count - 1) as f64
            };
            let ar = (ar_min.ln() + t * (ar_max.ln() - ar_min.ln())).exp();
            let w = (area * ar).sqrt().round().max(1.0) as i64;
            let h = (area / w as f64).round().max(1.0) as i64;
            (Um(w), Um(h))
        })
        .collect()
}

/// Shared packing core: `leaf` pushes a module's candidate shapes.
fn pack_impl(
    expr: &PolishExpr,
    module_count: usize,
    mut leaf: impl FnMut(ModuleId, &mut Vec<Shape>),
) -> (Vec<Rect>, Rect) {
    // Build the slicing tree from the postfix expression.
    let mut nodes: Vec<Node> = Vec::with_capacity(expr.elements().len());
    let mut lists = ShapeLists::default();
    let mut unpruned: Vec<Shape> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();

    for element in expr.elements() {
        unpruned.clear();
        match *element {
            Element::Operand(id) => {
                leaf(id, &mut unpruned);
                nodes.push(Node::Leaf(id));
            }
            Element::Operator(cut) => {
                // irgrid-lint: allow(P1): the balloting property of a normalized Polish expression guarantees two operands per operator
                let right = stack.pop().expect("balloting guarantees a right child");
                // irgrid-lint: allow(P1): the balloting property of a normalized Polish expression guarantees two operands per operator
                let left = stack.pop().expect("balloting guarantees a left child");
                for (li, ls) in lists.list(left).iter().enumerate() {
                    for (ri, rs) in lists.list(right).iter().enumerate() {
                        let (w, h) = match cut {
                            Cut::V => (ls.w + rs.w, ls.h.max(rs.h)),
                            Cut::H => (ls.w.max(rs.w), ls.h + rs.h),
                        };
                        unpruned.push(Shape {
                            w,
                            h,
                            left_choice: li as u32,
                            right_choice: ri as u32,
                        });
                    }
                }
                nodes.push(Node::Internal { cut, left, right });
            }
        }
        lists.push_pruned(&mut unpruned);
        stack.push(nodes.len() - 1);
    }

    // irgrid-lint: allow(P1): PolishExpr construction rejects empty expressions
    let root = stack.pop().expect("non-empty expression has a root");
    debug_assert!(stack.is_empty(), "valid expression leaves exactly one root");

    // Pick the minimum-area root shape (ties: most square).
    let best = lists
        .list(root)
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| (s.w * s.h, (s.w - s.h).abs()))
        .map(|(i, _)| i)
        // irgrid-lint: allow(P1): a pruned list keeps at least one shape
        .expect("shape lists are never empty");

    // Assign positions top-down. A leaf's pruned shape carries its
    // chosen dimensions itself.
    let mut rects = vec![Rect::from_origin_size(Point::ORIGIN, Um(1), Um(1)); module_count];
    let root_shape = lists.list(root)[best];
    assign(&nodes, &lists, root, best, Point::ORIGIN, &mut rects);
    let chip = Rect::from_origin_size(Point::ORIGIN, root_shape.w, root_shape.h);
    (rects, chip)
}

fn assign(
    nodes: &[Node],
    lists: &ShapeLists,
    node: usize,
    shape_idx: usize,
    origin: Point,
    rects: &mut [Rect],
) {
    let shape = lists.list(node)[shape_idx];
    match nodes[node] {
        Node::Leaf(id) => {
            rects[id.index()] = Rect::from_origin_size(origin, shape.w, shape.h);
        }
        Node::Internal { cut, left, right } => {
            let ls = lists.list(left)[shape.left_choice as usize];
            assign(
                nodes,
                lists,
                left,
                shape.left_choice as usize,
                origin,
                rects,
            );
            let right_origin = match cut {
                Cut::V => Point::new(origin.x + ls.w, origin.y),
                Cut::H => Point::new(origin.x, origin.y + ls.h),
            };
            assign(
                nodes,
                lists,
                right,
                shape.right_choice as usize,
                right_origin,
                rects,
            );
        }
    }
}

/// The packer as it was before the shape arena — one `Vec` per module
/// for the candidates and per node for the product and the pruned list —
/// kept as the oracle the arena packer must match exactly.
#[cfg(test)]
mod reference {
    use super::*;

    /// Packs over explicit leaf candidates; returns the module
    /// rectangles and the chip.
    pub(super) fn pack(expr: &PolishExpr, candidates: &[Vec<(Um, Um)>]) -> (Vec<Rect>, Rect) {
        let mut nodes: Vec<Node> = Vec::with_capacity(expr.elements().len());
        let mut shapes: Vec<Vec<Shape>> = Vec::with_capacity(expr.elements().len());
        let mut stack: Vec<usize> = Vec::new();
        for element in expr.elements() {
            match *element {
                Element::Operand(id) => {
                    let leaf_shapes: Vec<Shape> = candidates[id.index()]
                        .iter()
                        .enumerate()
                        .map(|(i, &(w, h))| Shape::leaf(i, w, h))
                        .collect();
                    nodes.push(Node::Leaf(id));
                    shapes.push(prune(leaf_shapes));
                }
                Element::Operator(cut) => {
                    let right = stack.pop().expect("right child");
                    let left = stack.pop().expect("left child");
                    let mut combined = Vec::with_capacity(shapes[left].len() * shapes[right].len());
                    for (li, ls) in shapes[left].iter().enumerate() {
                        for (ri, rs) in shapes[right].iter().enumerate() {
                            let (w, h) = match cut {
                                Cut::V => (ls.w + rs.w, ls.h.max(rs.h)),
                                Cut::H => (ls.w.max(rs.w), ls.h + rs.h),
                            };
                            combined.push(Shape {
                                w,
                                h,
                                left_choice: li as u32,
                                right_choice: ri as u32,
                            });
                        }
                    }
                    nodes.push(Node::Internal { cut, left, right });
                    shapes.push(prune(combined));
                }
            }
            stack.push(nodes.len() - 1);
        }
        let root = stack.pop().expect("root");
        let best = shapes[root]
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.w * s.h, (s.w - s.h).abs()))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut rects = vec![Rect::from_origin_size(Point::ORIGIN, Um(1), Um(1)); candidates.len()];
        let root_shape = shapes[root][best];
        assign(&nodes, &shapes, root, best, Point::ORIGIN, &mut rects);
        (
            rects,
            Rect::from_origin_size(Point::ORIGIN, root_shape.w, root_shape.h),
        )
    }

    fn prune(mut list: Vec<Shape>) -> Vec<Shape> {
        list.sort_by_key(|s| (s.w, s.h));
        let mut pruned: Vec<Shape> = Vec::with_capacity(list.len());
        for s in list {
            if let Some(last) = pruned.last() {
                if last.w == s.w || last.h <= s.h {
                    continue;
                }
            }
            pruned.push(s);
        }
        pruned
    }

    fn assign(
        nodes: &[Node],
        shapes: &[Vec<Shape>],
        node: usize,
        shape_idx: usize,
        origin: Point,
        rects: &mut [Rect],
    ) {
        let shape = shapes[node][shape_idx];
        match nodes[node] {
            Node::Leaf(id) => rects[id.index()] = Rect::from_origin_size(origin, shape.w, shape.h),
            Node::Internal { cut, left, right } => {
                let ls = shapes[left][shape.left_choice as usize];
                assign(
                    nodes,
                    shapes,
                    left,
                    shape.left_choice as usize,
                    origin,
                    rects,
                );
                let right_origin = match cut {
                    Cut::V => Point::new(origin.x + ls.w, origin.y),
                    Cut::H => Point::new(origin.x, origin.y + ls.h),
                };
                let right_choice = shape.right_choice as usize;
                assign(nodes, shapes, right, right_choice, right_origin, rects);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_netlist::Module;

    fn circuit(dims: &[(i64, i64)]) -> Circuit {
        let modules = dims
            .iter()
            .enumerate()
            .map(|(i, &(w, h))| Module::new(format!("m{i}"), Um(w), Um(h)).expect("valid"))
            .collect();
        Circuit::new("t", modules, vec![]).expect("valid circuit")
    }

    #[test]
    fn single_module_fills_chip() {
        let c = circuit(&[(30, 20)]);
        let p = pack(&PolishExpr::initial(1), &c);
        // Either orientation is optimal; chip must exactly wrap the module.
        assert_eq!(p.area().0, 600);
        assert_eq!(p.module_rect(ModuleId(0)), p.chip());
        assert!(p.check_consistency().is_none());
    }

    #[test]
    fn two_modules_rotation_minimizes_area() {
        // 10x20 and 20x10 side by side: with rotation both become 10x20
        // (or 20x10) and pack perfectly into 20x20 = 400.
        let c = circuit(&[(10, 20), (20, 10)]);
        let p = pack(&PolishExpr::initial(2), &c);
        assert_eq!(p.area().0, 400, "rotation should give a perfect packing");
        assert!(p.check_consistency().is_none());
    }

    #[test]
    fn vertical_cut_places_side_by_side() {
        use crate::Element::*;
        let c = circuit(&[(10, 10), (10, 10)]);
        let expr = PolishExpr::from_elements(vec![
            Operand(ModuleId(0)),
            Operand(ModuleId(1)),
            Operator(Cut::V),
        ])
        .expect("valid");
        let p = pack(&expr, &c);
        assert_eq!(p.chip().width(), Um(20));
        assert_eq!(p.chip().height(), Um(10));
        let r0 = p.module_rect(ModuleId(0));
        let r1 = p.module_rect(ModuleId(1));
        assert_eq!(r0.ll().x, Um(0));
        assert_eq!(r1.ll().x, Um(10), "second operand goes to the right");
    }

    #[test]
    fn horizontal_cut_stacks() {
        use crate::Element::*;
        let c = circuit(&[(10, 10), (10, 10)]);
        let expr = PolishExpr::from_elements(vec![
            Operand(ModuleId(0)),
            Operand(ModuleId(1)),
            Operator(Cut::H),
        ])
        .expect("valid");
        let p = pack(&expr, &c);
        assert_eq!(p.chip().width(), Um(10));
        assert_eq!(p.chip().height(), Um(20));
        assert_eq!(
            p.module_rect(ModuleId(1)).ll().y,
            Um(10),
            "second operand on top"
        );
    }

    #[test]
    fn packing_is_consistent_for_benchmarks() {
        use irgrid_netlist::mcnc::McncCircuit;
        for bench in McncCircuit::ALL {
            let c = bench.circuit();
            let p = pack(&PolishExpr::initial(c.modules().len()), &c);
            assert!(p.check_consistency().is_none(), "{bench}");
            assert!(p.area() >= c.total_module_area(), "{bench}");
        }
    }

    #[test]
    fn area_lower_bound_holds_under_perturbation() {
        use rand::SeedableRng;
        let c = circuit(&[(10, 30), (25, 15), (40, 5), (12, 12), (7, 21)]);
        let mut expr = PolishExpr::initial(5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        for _ in 0..200 {
            expr.perturb_random(&mut rng);
            let p = pack(&expr, &c);
            assert!(p.check_consistency().is_none(), "expr {expr}");
            assert!(p.area() >= c.total_module_area());
        }
    }

    #[test]
    #[should_panic(expected = "disagree on module count")]
    fn pack_rejects_mismatched_sizes() {
        let c = circuit(&[(10, 10)]);
        let _ = pack(&PolishExpr::initial(2), &c);
    }

    #[test]
    fn prune_removes_dominated() {
        let mut raw = vec![
            Shape {
                w: Um(10),
                h: Um(10),
                left_choice: 0,
                right_choice: 0,
            },
            Shape {
                w: Um(12),
                h: Um(10),
                left_choice: 1,
                right_choice: 0,
            }, // dominated
            Shape {
                w: Um(12),
                h: Um(8),
                left_choice: 2,
                right_choice: 0,
            },
            Shape {
                w: Um(12),
                h: Um(9),
                left_choice: 3,
                right_choice: 0,
            }, // same w, taller
        ];
        let mut lists = ShapeLists::default();
        lists.push_pruned(&mut raw);
        let pruned = lists.list(0);
        assert_eq!(pruned.len(), 2);
        assert_eq!(pruned[0].w, Um(10));
        assert_eq!(pruned[1].h, Um(8));
    }

    #[test]
    fn soft_shapes_span_the_ratio_range() {
        let shapes = soft_shapes(UmArea(40_000), 0.25, 4.0, 7);
        assert_eq!(shapes.len(), 7);
        // Ratios ascend from ~0.25 to ~4.
        let first = shapes[0].0.as_f64() / shapes[0].1.as_f64();
        let last = shapes[6].0.as_f64() / shapes[6].1.as_f64();
        assert!((first - 0.25).abs() < 0.05, "first ratio {first}");
        assert!((last - 4.0).abs() < 0.5, "last ratio {last}");
        // Areas stay close to the target.
        for &(w, h) in &shapes {
            let area = (w * h).0 as f64;
            assert!((area - 40_000.0).abs() / 40_000.0 < 0.02, "{w} x {h}");
        }
    }

    #[test]
    fn soft_packing_beats_hard_packing() {
        // Three soft modules of equal area pack (near-)perfectly, while
        // fixed square shapes leave dead space in a 3-module slicing
        // floorplan of uneven structure.
        let areas = [UmArea(10_000), UmArea(20_000), UmArea(30_000)];
        let soft: Vec<Vec<(Um, Um)>> = areas.iter().map(|&a| soft_shapes(a, 0.2, 5.0, 9)).collect();
        let hard: Vec<Vec<(Um, Um)>> = areas
            .iter()
            .map(|&a| {
                let side = ((a.0 as f64).sqrt().round()) as i64;
                vec![(Um(side), Um(side))]
            })
            .collect();
        let expr = PolishExpr::initial(3);
        let soft_area = pack_with_shapes(&expr, &soft).area();
        let hard_area = pack_with_shapes(&expr, &hard).area();
        assert!(
            soft_area < hard_area,
            "soft {soft_area} should beat hard {hard_area}"
        );
        // And soft packing approaches the lower bound.
        let lower: i128 = 60_000;
        assert!(
            soft_area.0 < lower * 11 / 10,
            "soft packing {soft_area} more than 10% above the bound"
        );
    }

    #[test]
    fn pack_with_shapes_consistency() {
        let candidates = vec![
            vec![(Um(30), Um(20)), (Um(20), Um(30))],
            vec![(Um(10), Um(60)), (Um(60), Um(10)), (Um(25), Um(24))],
        ];
        let p = pack_with_shapes(&PolishExpr::initial(2), &candidates);
        assert!(p.check_consistency().is_none());
        // Chosen shapes come from the candidate lists.
        let r0 = p.module_rect(ModuleId(0));
        assert!(candidates[0].contains(&(r0.width(), r0.height())));
        let r1 = p.module_rect(ModuleId(1));
        assert!(candidates[1].contains(&(r1.width(), r1.height())));
    }

    #[test]
    #[should_panic(expected = "no shape candidates")]
    fn empty_candidate_list_rejected() {
        let _ = pack_with_shapes(&PolishExpr::initial(1), &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "non-positive dims")]
    fn bad_candidate_dims_rejected() {
        let _ = pack_with_shapes(&PolishExpr::initial(1), &[vec![(Um(0), Um(5))]]);
    }

    /// Side lengths rich in ties: 1 µm sides, squares when both sides
    /// pick one entry, and a repeated entry.
    const SIDES: [i64; 6] = [1, 2, 4, 4, 7, 12];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Along a random perturbation walk of normalized Polish
        /// expressions, `pack` and `pack_with_shapes` place every module
        /// exactly where the one-`Vec`-per-node reference does, with the
        /// same rotations and chip.
        #[test]
        fn arena_packer_matches_the_reference(
            picks in proptest::collection::vec((0usize..6, 0usize..6), 2..24),
            steps in 0usize..40,
            seed in 0u64..1_000,
        ) {
            use rand::SeedableRng;
            let dims: Vec<(i64, i64)> = picks.iter().map(|&(w, h)| (SIDES[w], SIDES[h])).collect();
            let c = circuit(&dims);
            let rotations: Vec<Vec<(Um, Um)>> = c
                .modules()
                .iter()
                .map(|m| {
                    let mut list = vec![(m.width(), m.height())];
                    if m.width() != m.height() {
                        list.push((m.height(), m.width()));
                    }
                    list
                })
                .collect();
            let soft: Vec<Vec<(Um, Um)>> = c
                .modules()
                .iter()
                .enumerate()
                .map(|(i, m)| soft_shapes(m.area(), 0.25, 4.0, 1 + i % 5))
                .collect();
            let mut expr = PolishExpr::initial(dims.len());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..=steps {
                let placement = pack(&expr, &c);
                let (rects, chip) = reference::pack(&expr, &rotations);
                proptest::prop_assert_eq!(placement.module_rects(), &rects[..], "{}", expr);
                proptest::prop_assert_eq!(placement.chip(), chip);
                for (id, m) in c.modules_with_ids() {
                    proptest::prop_assert_eq!(
                        placement.is_rotated(id),
                        rects[id.index()].width() != m.width()
                    );
                }
                for candidates in [&rotations, &soft] {
                    let placement = pack_with_shapes(&expr, candidates);
                    let (rects, chip) = reference::pack(&expr, candidates);
                    proptest::prop_assert_eq!(placement.module_rects(), &rects[..], "{}", expr);
                    proptest::prop_assert_eq!(placement.chip(), chip);
                    proptest::prop_assert!(c.modules_with_ids().all(|(id, _)| !placement.is_rotated(id)));
                }
                expr.perturb_random(&mut rng);
            }
        }
    }
}
