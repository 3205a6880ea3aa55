//! Wirelength and 2-pin decomposition of a placed circuit.
//!
//! Per §5 of the paper, multi-pin nets are decomposed into 2-pin nets by a
//! minimum spanning tree; the wirelength objective is the total Manhattan
//! length of those trees, and the congestion models consume the individual
//! 2-pin segments (each segment's bounding box is a routing range).

use irgrid_geom::{Point, Rect, Um};
use irgrid_netlist::mst::{self, MstScratch};
use irgrid_netlist::Circuit;

use crate::{PinPlacer, Placement};

/// Computes the pins of every net: `result[net.index()]` holds one point
/// per net member, in member order.
#[must_use]
pub fn net_pins(circuit: &Circuit, placement: &Placement, placer: &PinPlacer) -> Vec<Vec<Point>> {
    circuit
        .nets()
        .iter()
        .map(|net| {
            let members: Vec<Rect> = net
                .pins()
                .iter()
                .map(|&m| placement.module_rect(m))
                .collect();
            placer.place_net(&members)
        })
        .collect()
}

/// Total wirelength: the sum over nets of the Manhattan MST length of the
/// net's pins. This is the paper's wire-length objective.
#[must_use]
pub fn total_wirelength(circuit: &Circuit, placement: &Placement, placer: &PinPlacer) -> Um {
    net_pins(circuit, placement, placer)
        .iter()
        .map(|pins| mst::mst_length(pins))
        .sum::<Um>()
}

/// How multi-pin nets are broken into 2-pin segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Decomposition {
    /// Minimum spanning tree (the paper's choice, §5).
    #[default]
    Mst,
    /// Star from the centroid-nearest pin (cheaper, longer wire; for the
    /// decomposition ablation).
    Star,
}

/// All 2-pin segments of the MST decomposition, across all nets.
///
/// Segments whose endpoints coincide are dropped: a zero-length segment has
/// no routing range and cannot congest anything.
#[must_use]
pub fn two_pin_segments(
    circuit: &Circuit,
    placement: &Placement,
    placer: &PinPlacer,
) -> Vec<(Point, Point)> {
    two_pin_segments_with(circuit, placement, placer, Decomposition::Mst)
}

/// All 2-pin segments under the chosen [`Decomposition`], net by net
/// through one [`NetScratch`].
#[must_use]
pub fn two_pin_segments_with(
    circuit: &Circuit,
    placement: &Placement,
    placer: &PinPlacer,
    decomposition: Decomposition,
) -> Vec<(Point, Point)> {
    let mut scratch = NetScratch::default();
    let mut segments = Vec::new();
    for net in circuit.nets() {
        let members = net.pins().iter().map(|&m| placement.module_rect(m));
        scratch.decompose(members, placer, decomposition, &mut segments);
    }
    segments
}

/// The 2-pin segments of a single net's pins under the chosen
/// [`Decomposition`], with zero-length segments dropped — the per-net
/// building block of [`two_pin_segments_with`]. The allocating form of
/// [`NetScratch::decompose`]'s decomposition step.
#[must_use]
pub fn net_segments(pins: &[Point], decomposition: Decomposition) -> Vec<(Point, Point)> {
    let mut segments = Vec::new();
    net_segments_into(
        pins,
        decomposition,
        &mut MstScratch::default(),
        &mut segments,
    );
    segments
}

/// Appends the non-zero-length 2-pin segments of `pins` to `out`.
fn net_segments_into(
    pins: &[Point],
    decomposition: Decomposition,
    scratch: &mut MstScratch,
    out: &mut Vec<(Point, Point)>,
) {
    match decomposition {
        Decomposition::Mst => mst::manhattan_mst_with(pins, scratch, |a, b| {
            if pins[a] != pins[b] {
                out.push((pins[a], pins[b]));
            }
        }),
        Decomposition::Star => {
            out.extend(
                mst::star_decompose(pins)
                    .into_iter()
                    .filter(|(a, b)| a != b),
            );
        }
    }
}

/// Reusable buffers for decomposing nets one at a time: the member
/// rectangles, the placed pins and Prim's arrays. One scratch serves any
/// number of nets in turn, so incremental evaluators can re-decompose
/// only the nets a move touched without allocating per net; what it held
/// before never changes a result.
#[derive(Debug, Clone, Default)]
pub struct NetScratch {
    members: Vec<Rect>,
    pins: Vec<Point>,
    mst: MstScratch,
}

impl NetScratch {
    /// Places the pins of a net whose member modules occupy `members`,
    /// in member order, and appends the net's 2-pin segments under
    /// `decomposition` to `out`, zero-length segments dropped. Returns
    /// the appended segments' total Manhattan length. The result equals
    /// [`net_segments`] over [`PinPlacer::place_net`].
    pub fn decompose(
        &mut self,
        members: impl IntoIterator<Item = Rect>,
        placer: &PinPlacer,
        decomposition: Decomposition,
        out: &mut Vec<(Point, Point)>,
    ) -> Um {
        self.members.clear();
        self.members.extend(members);
        placer.place_net_into(&self.members, &mut self.pins);
        let start = out.len();
        net_segments_into(&self.pins, decomposition, &mut self.mst, out);
        segments_wirelength(&out[start..])
    }
}

/// Total Manhattan length of a segment list. With [`net_segments`]'s
/// output this equals the net's contribution to [`total_wirelength`]
/// exactly (dropped zero-length segments contribute nothing).
#[must_use]
pub fn segments_wirelength(segments: &[(Point, Point)]) -> Um {
    segments
        .iter()
        .map(|(a, b)| a.manhattan_distance(*b))
        .sum::<Um>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack, PolishExpr};
    use irgrid_geom::Um;
    use irgrid_netlist::{mcnc::McncCircuit, Module, ModuleId, Net};

    fn two_module_circuit() -> Circuit {
        Circuit::new(
            "t",
            vec![
                Module::new("a", Um(100), Um(100)).expect("valid"),
                Module::new("b", Um(50), Um(50)).expect("valid"),
            ],
            vec![Net::new("ab", vec![ModuleId(0), ModuleId(1)]).expect("valid")],
        )
        .expect("valid circuit")
    }

    #[test]
    fn wirelength_positive_for_offset_modules() {
        let c = two_module_circuit();
        let p = pack(&PolishExpr::initial(2), &c);
        let placer = PinPlacer::new(Um(10));
        let wl = total_wirelength(&c, &p, &placer);
        // The modules differ in size, so their facing pins cannot
        // coincide exactly (y-centers differ).
        assert!(wl > Um::ZERO, "offset modules must have wire, got {wl}");
        assert!(wl <= p.chip().width() + p.chip().height());
    }

    #[test]
    fn abutting_equal_modules_may_have_zero_wire() {
        // Two identical abutting modules: the facing pins coincide and the
        // MST collapses — a documented, expected degenerate case.
        let c = Circuit::new(
            "t",
            vec![
                Module::new("a", Um(100), Um(100)).expect("valid"),
                Module::new("b", Um(100), Um(100)).expect("valid"),
            ],
            vec![Net::new("ab", vec![ModuleId(0), ModuleId(1)]).expect("valid")],
        )
        .expect("valid circuit");
        let p = pack(&PolishExpr::initial(2), &c);
        let placer = PinPlacer::new(Um(10));
        assert_eq!(total_wirelength(&c, &p, &placer), Um::ZERO);
        assert!(two_pin_segments(&c, &p, &placer).is_empty());
    }

    #[test]
    fn segments_match_pin_count() {
        let c = McncCircuit::Apte.circuit();
        let p = pack(&PolishExpr::initial(c.modules().len()), &c);
        let placer = PinPlacer::new(Um(60));
        let segments = two_pin_segments(&c, &p, &placer);
        // An n-pin net yields at most n-1 segments (fewer if pins coincide).
        let max_segments: usize = c.nets().iter().map(|n| n.degree() - 1).sum();
        assert!(segments.len() <= max_segments);
        assert!(!segments.is_empty());
        // No degenerate segments survive.
        assert!(segments.iter().all(|(a, b)| a != b));
    }

    #[test]
    fn wirelength_equals_segment_sum() {
        let c = McncCircuit::Hp.circuit();
        let p = pack(&PolishExpr::initial(c.modules().len()), &c);
        let placer = PinPlacer::new(Um(30));
        let wl = total_wirelength(&c, &p, &placer);
        let seg_sum: Um = two_pin_segments(&c, &p, &placer)
            .iter()
            .map(|(a, b)| a.manhattan_distance(*b))
            .sum();
        assert_eq!(wl, seg_sum);
    }

    #[test]
    fn star_decomposition_gives_more_or_equal_wire() {
        let c = McncCircuit::Ami33.circuit();
        let p = pack(&PolishExpr::initial(c.modules().len()), &c);
        let placer = PinPlacer::new(Um(30));
        let wire_of = |d: Decomposition| -> i64 {
            two_pin_segments_with(&c, &p, &placer, d)
                .iter()
                .map(|(a, b)| a.manhattan_distance(*b).0)
                .sum()
        };
        assert!(wire_of(Decomposition::Star) >= wire_of(Decomposition::Mst));
    }

    #[test]
    fn per_net_segments_compose_to_the_global_list() {
        let c = McncCircuit::Apte.circuit();
        let p = pack(&PolishExpr::initial(c.modules().len()), &c);
        let placer = PinPlacer::new(Um(60));
        for d in [Decomposition::Mst, Decomposition::Star] {
            let global = two_pin_segments_with(&c, &p, &placer, d);
            let composed: Vec<(Point, Point)> = net_pins(&c, &p, &placer)
                .iter()
                .flat_map(|pins| net_segments(pins, d))
                .collect();
            assert_eq!(global, composed);
        }
    }

    #[test]
    fn per_net_wirelength_sums_to_total() {
        let c = McncCircuit::Hp.circuit();
        let p = pack(&PolishExpr::initial(c.modules().len()), &c);
        let placer = PinPlacer::new(Um(30));
        let total = total_wirelength(&c, &p, &placer);
        let per_net: Um = net_pins(&c, &p, &placer)
            .iter()
            .map(|pins| segments_wirelength(&net_segments(pins, Decomposition::Mst)))
            .sum();
        assert_eq!(total, per_net);
    }

    #[test]
    fn one_scratch_serves_nets_of_every_size() {
        // The largest net first, so a buffer left long by it would show
        // in the smaller nets after it.
        let placer = PinPlacer::new(Um(10));
        let module = |i: i64| {
            Rect::from_origin_size(
                Point::new(Um(37 * i % 400), Um(53 * i % 300)),
                Um(20 + i),
                Um(15),
            )
        };
        let nets: Vec<Vec<Rect>> = vec![
            (0..20).map(module).collect(),
            vec![],
            vec![module(3)],
            vec![module(1), module(7)],
            vec![module(4), module(4), module(9)],
        ];
        let mut scratch = NetScratch::default();
        for decomposition in [Decomposition::Mst, Decomposition::Star] {
            for members in &nets {
                let want = net_segments(&placer.place_net(members), decomposition);
                let mut got = vec![(Point::ORIGIN, Point::ORIGIN)];
                let wire =
                    scratch.decompose(members.iter().copied(), &placer, decomposition, &mut got);
                assert_eq!(got[1..], want[..], "{} members", members.len());
                assert_eq!(
                    wire,
                    segments_wirelength(&want),
                    "{} members",
                    members.len()
                );
            }
        }
    }

    #[test]
    fn net_segments_drops_degenerates() {
        let pins = vec![Point::new(Um(5), Um(5)), Point::new(Um(5), Um(5))];
        assert!(net_segments(&pins, Decomposition::Mst).is_empty());
        assert_eq!(segments_wirelength(&[]), Um::ZERO);
    }

    #[test]
    fn pins_lie_on_their_modules() {
        let c = McncCircuit::Ami33.circuit();
        let p = pack(&PolishExpr::initial(c.modules().len()), &c);
        let placer = PinPlacer::new(Um(30));
        for (net, pins) in c.nets().iter().zip(net_pins(&c, &p, &placer)) {
            assert_eq!(net.degree(), pins.len());
            for (&module, &pin) in net.pins().iter().zip(&pins) {
                assert!(
                    p.module_rect(module).contains(pin),
                    "pin {pin} off module {module}"
                );
            }
        }
    }
}
