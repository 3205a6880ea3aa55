//! SVG rendering of floorplans and congestion maps.
//!
//! Dependency-free string generation: the output is plain SVG 1.1 that
//! any browser renders. Intended for debugging floorplans, illustrating
//! results (the paper's figures 3–5 are exactly these pictures), and
//! embedding in reports.
//!
//! # Examples
//!
//! ```
//! use irgrid::floorplan::{pack, PolishExpr};
//! use irgrid::netlist::mcnc::McncCircuit;
//! use irgrid::viz;
//!
//! let circuit = McncCircuit::Hp.circuit();
//! let placement = pack(&PolishExpr::initial(circuit.modules().len()), &circuit);
//! let svg = viz::placement_svg(&circuit, &placement);
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("</svg>"));
//! ```

use irgrid_core::{IrCongestionMap, UnitGridMap};
use irgrid_floorplan::Placement;
use irgrid_geom::Rect;
use irgrid_netlist::Circuit;

/// Maps a normalized intensity `t ∈ [0, 1]` to a white→yellow→red heat
/// color.
fn heat_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0);
    // white (1,1,1) -> yellow (1,0.85,0.2) -> red (0.85,0.1,0.1)
    let (r, g, b) = if t < 0.5 {
        let u = t * 2.0;
        (1.0, 1.0 - 0.15 * u, 1.0 - 0.8 * u)
    } else {
        let u = (t - 0.5) * 2.0;
        (1.0 - 0.15 * u, 0.85 - 0.75 * u, 0.2 - 0.1 * u)
    };
    format!(
        "#{:02x}{:02x}{:02x}",
        (r * 255.0) as u8,
        (g * 255.0) as u8,
        (b * 255.0) as u8
    )
}

fn svg_open(chip: &Rect, extra_height_frac: f64) -> String {
    let w = chip.width().as_f64();
    let h = chip.height().as_f64() * (1.0 + extra_height_frac);
    // SVG's y axis points down; flip so the chip's lower-left is at the
    // bottom-left of the image.
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {w:.0} {h:.0}\" \
         width=\"800\" height=\"{:.0}\">\n\
         <g transform=\"translate(0 {:.0}) scale(1 -1)\">\n",
        800.0 * h / w,
        chip.height().as_f64(),
    )
}

const SVG_CLOSE: &str = "</g>\n</svg>\n";

fn rect_elem(r: &Rect, fill: &str, stroke: &str, stroke_width: f64) -> String {
    format!(
        "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{fill}\" \
         stroke=\"{stroke}\" stroke-width=\"{stroke_width}\"/>\n",
        r.ll().x.0,
        r.ll().y.0,
        r.width().0,
        r.height().0,
    )
}

/// Renders module outlines and names over the chip.
#[must_use]
pub fn placement_svg(circuit: &Circuit, placement: &Placement) -> String {
    let chip = placement.chip();
    let mut svg = svg_open(&chip, 0.0);
    svg.push_str(&rect_elem(
        &chip,
        "#f8f8f8",
        "#333333",
        chip.width().as_f64() / 400.0,
    ));
    let label_size = chip.width().as_f64() / 40.0;
    for (id, module) in circuit.modules_with_ids() {
        let r = placement.module_rect(id);
        svg.push_str(&rect_elem(
            &r,
            "#dce8f5",
            "#3a6ea5",
            chip.width().as_f64() / 800.0,
        ));
        let c = r.center();
        // Text is drawn un-flipped (scale(1 -1) again) so it reads
        // upright.
        svg.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" transform=\"scale(1 -1)\" font-size=\"{label_size:.0}\" \
             text-anchor=\"middle\" fill=\"#20405c\">{}</text>\n",
            c.x.0,
            -c.y.0,
            module.name(),
        ));
    }
    svg.push_str(SVG_CLOSE);
    svg
}

/// Renders the Irregular-Grid congestion map as a heat overlay with the
/// cutting lines, over the module outlines.
#[must_use]
pub fn ir_congestion_svg(
    circuit: &Circuit,
    placement: &Placement,
    map: &IrCongestionMap,
) -> String {
    let chip = placement.chip();
    let mut svg = svg_open(&chip, 0.0);
    svg.push_str(&rect_elem(
        &chip,
        "#ffffff",
        "#333333",
        chip.width().as_f64() / 400.0,
    ));
    let peak = map.peak_density().max(f64::MIN_POSITIVE);
    for j in 0..map.ir_rows() {
        for i in 0..map.ir_cols() {
            let cell = map.cell_rect(i, j);
            let color = heat_color(map.density(i, j) / peak);
            svg.push_str(&rect_elem(
                &cell,
                &color,
                "#bbbbbb",
                chip.width().as_f64() / 2000.0,
            ));
        }
    }
    for (id, _) in circuit.modules_with_ids() {
        let r = placement.module_rect(id);
        svg.push_str(&rect_elem(
            &r,
            "none",
            "#3a6ea5",
            chip.width().as_f64() / 1000.0,
        ));
    }
    svg.push_str(SVG_CLOSE);
    svg
}

/// Renders a fixed-grid congestion map as a heat overlay.
#[must_use]
pub fn fixed_congestion_svg(circuit: &Circuit, placement: &Placement, map: &UnitGridMap) -> String {
    let chip = placement.chip();
    let mut svg = svg_open(&chip, 0.0);
    svg.push_str(&rect_elem(
        &chip,
        "#ffffff",
        "#333333",
        chip.width().as_f64() / 400.0,
    ));
    let peak = map.peak().max(f64::MIN_POSITIVE);
    let grid = map.grid();
    for y in 0..grid.rows() {
        for x in 0..grid.cols() {
            let v = map.value(x, y);
            if v <= 0.0 {
                continue; // keep empty cells white and the file small
            }
            let cell = grid.cell_rect(x, y);
            svg.push_str(&rect_elem(&cell, &heat_color(v / peak), "none", 0.0));
        }
    }
    for (id, _) in circuit.modules_with_ids() {
        let r = placement.module_rect(id);
        svg.push_str(&rect_elem(
            &r,
            "none",
            "#3a6ea5",
            chip.width().as_f64() / 1000.0,
        ));
    }
    svg.push_str(SVG_CLOSE);
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid_core::{FixedGridModel, IrregularGridModel};
    use irgrid_floorplan::{pack, two_pin_segments, PinPlacer, PolishExpr};
    use irgrid_geom::Um;
    use irgrid_netlist::mcnc::McncCircuit;

    fn setup() -> (
        Circuit,
        Placement,
        Vec<(irgrid_geom::Point, irgrid_geom::Point)>,
    ) {
        let circuit = McncCircuit::Hp.circuit();
        let placement = pack(&PolishExpr::initial(circuit.modules().len()), &circuit);
        let segments = two_pin_segments(&circuit, &placement, &PinPlacer::new(Um(30)));
        (circuit, placement, segments)
    }

    #[test]
    fn placement_svg_is_wellformed() {
        let (circuit, placement, _) = setup();
        let svg = placement_svg(&circuit, &placement);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // One rect per module plus the chip frame.
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, circuit.modules().len() + 1);
        // Every module name appears as a label.
        for m in circuit.modules() {
            assert!(svg.contains(m.name()), "missing label {}", m.name());
        }
        // Tags balance.
        assert_eq!(svg.matches("<g").count(), svg.matches("</g>").count());
    }

    #[test]
    fn ir_congestion_svg_covers_all_cells() {
        let (circuit, placement, segments) = setup();
        let map = IrregularGridModel::new(Um(30)).congestion_map(&placement.chip(), &segments);
        let svg = ir_congestion_svg(&circuit, &placement, &map);
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, 1 + map.ir_cell_count() + circuit.modules().len());
    }

    #[test]
    fn fixed_congestion_svg_skips_empty_cells() {
        let (circuit, placement, segments) = setup();
        let map = FixedGridModel::new(Um(30)).congestion_map(&placement.chip(), &segments);
        let svg = fixed_congestion_svg(&circuit, &placement, &map);
        let nonzero = map.values().iter().filter(|&&v| v > 0.0).count();
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, 1 + nonzero + circuit.modules().len());
    }

    #[test]
    fn heat_colors_are_valid_hex() {
        for t in [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0] {
            let c = heat_color(t);
            assert_eq!(c.len(), 7);
            assert!(c.starts_with('#'));
            assert!(i64::from_str_radix(&c[1..], 16).is_ok(), "{c}");
        }
        // Cool is lighter than hot.
        assert_eq!(heat_color(0.0), "#ffffff");
        assert_ne!(heat_color(1.0), heat_color(0.0));
    }
}
