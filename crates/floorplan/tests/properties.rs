//! Property-based tests for the floorplanning substrate.

use irgrid_floorplan::{
    pack, two_pin_segments, FloorplanRepr, PinPlacer, PolishExpr, SequencePair,
};
use irgrid_geom::{Rect, Um, UmArea};
use irgrid_netlist::{Circuit, Module, ModuleId, Net};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random circuit with 2..=12 modules and a few random nets.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..=12).prop_flat_map(|n| {
        let modules = prop::collection::vec((5i64..400, 5i64..400), n..=n);
        let nets = prop::collection::vec(prop::collection::vec(0..n as u32, 2..=4.min(n)), 0..8);
        (modules, nets).prop_map(move |(dims, net_members)| {
            let modules: Vec<Module> = dims
                .iter()
                .enumerate()
                .map(|(i, &(w, h))| Module::new(format!("m{i}"), Um(w), Um(h)).expect("positive"))
                .collect();
            let nets: Vec<Net> = net_members
                .into_iter()
                .enumerate()
                .filter_map(|(i, members)| {
                    Net::new(format!("n{i}"), members.into_iter().map(ModuleId).collect()).ok()
                })
                .collect();
            Circuit::new("prop", modules, nets).expect("validated parts")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn perturbed_expressions_stay_valid(circuit in arb_circuit(), seed in 0u64..1000, steps in 1usize..60) {
        let mut expr = PolishExpr::initial(circuit.modules().len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..steps {
            expr.perturb_random(&mut rng);
            prop_assert!(expr.is_valid(), "invalid after perturbation: {expr}");
        }
    }

    #[test]
    fn packing_invariants(circuit in arb_circuit(), seed in 0u64..1000) {
        let mut expr = PolishExpr::initial(circuit.modules().len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..10 {
            expr.perturb_random(&mut rng);
        }
        let placement = pack(&expr, &circuit);
        // No overlap, everything inside the chip.
        prop_assert!(placement.check_consistency().is_none());
        // Chip area bounded below by module area and above by the
        // degenerate single-row packing.
        prop_assert!(placement.area() >= circuit.total_module_area());
        let (mut wsum, mut hmax) = (Um::ZERO, Um::ZERO);
        for m in circuit.modules() {
            let (w, h) = (m.width().max(m.height()), m.width().min(m.height()));
            wsum += w;
            hmax = hmax.max(h);
        }
        prop_assert!(placement.area() <= wsum * hmax.max(wsum), "area unreasonably large");
        // Every module keeps its area through rotation.
        let placed: UmArea = circuit
            .modules_with_ids()
            .map(|(id, _)| placement.module_rect(id).area())
            .sum();
        prop_assert_eq!(placed, circuit.total_module_area());
    }

    #[test]
    fn packing_is_deterministic(circuit in arb_circuit()) {
        let expr = PolishExpr::initial(circuit.modules().len());
        prop_assert_eq!(pack(&expr, &circuit), pack(&expr, &circuit));
    }

    #[test]
    fn pins_and_segments_consistent(circuit in arb_circuit(), pitch in 5i64..60) {
        let expr = PolishExpr::initial(circuit.modules().len());
        let placement = pack(&expr, &circuit);
        let placer = PinPlacer::new(Um(pitch));
        let chip = placement.chip();
        let segments = two_pin_segments(&circuit, &placement, &placer);
        let max_segments: usize = circuit.nets().iter().map(|n| n.degree() - 1).sum();
        prop_assert!(segments.len() <= max_segments);
        for (a, b) in segments {
            prop_assert!(chip.contains(a), "segment endpoint {a} outside chip");
            prop_assert!(chip.contains(b), "segment endpoint {b} outside chip");
            prop_assert!(a != b, "degenerate segment survived filtering");
        }
    }

    #[test]
    fn sequence_pairs_stay_valid_and_overlap_free(
        circuit in arb_circuit(),
        seed in 0u64..1000,
        steps in 1usize..50,
    ) {
        let mut sp = <SequencePair as FloorplanRepr>::initial(circuit.modules().len());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..steps {
            FloorplanRepr::perturb(&mut sp, &mut rng);
            prop_assert!(sp.is_valid());
        }
        let placement = sp.place(&circuit);
        prop_assert!(placement.check_consistency().is_none());
        prop_assert!(placement.area() >= circuit.total_module_area());
        // Placed module areas are preserved through orientation choices.
        let placed: UmArea = circuit
            .modules_with_ids()
            .map(|(id, _)| placement.module_rect(id).area())
            .sum();
        prop_assert_eq!(placed, circuit.total_module_area());
    }

    #[test]
    fn pin_placer_stays_on_module(
        (x0, y0, w, h) in (0i64..500, 0i64..500, 1i64..300, 1i64..300),
        (tx, ty) in (-200i64..900, -200i64..900),
        pitch in 1i64..100,
    ) {
        let module = Rect::from_origin_size(
            irgrid_geom::Point::new(Um(x0), Um(y0)),
            Um(w),
            Um(h),
        );
        let pin = PinPlacer::new(Um(pitch)).pin(&module, irgrid_geom::Point::new(Um(tx), Um(ty)));
        prop_assert!(module.contains(pin), "pin {pin} escaped module {module}");
    }
}
