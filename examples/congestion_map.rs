//! Congestion heat map: anneal a benchmark briefly, then render the
//! Irregular-Grid congestion map as ASCII art next to the fixed-grid
//! map at the same pitch, and dump both as JSON.
//!
//! Run with: `cargo run --release --example congestion_map [circuit]`
//! where `circuit` is one of apte, xerox, hp, ami33 (default), ami49.

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{FixedGridModel, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

const SHADES: [char; 7] = [' ', '.', ':', '+', '*', '#', '@'];

fn shade(value: f64, peak: f64) -> char {
    if peak <= 0.0 {
        return SHADES[0];
    }
    let idx = ((value / peak) * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx.min(SHADES.len() - 1)]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ami33".into());
    let bench = McncCircuit::from_name(&name)
        .ok_or_else(|| format!("unknown circuit `{name}` (try apte/xerox/hp/ami33/ami49)"))?;
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());
    println!("annealing {circuit} at pitch {pitch}...");

    let problem = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::balanced(),
        Some(IrregularGridModel::new(pitch)),
    );
    let result = Annealer::new(Schedule::quick()).run(&problem, 1, RunOptions::default())?;
    let eval = problem.evaluate(&result.best);
    println!(
        "best floorplan: {:.2} mm^2, wirelength {:.0} um, IR cost {:.4}",
        eval.area_um2 / 1e6,
        eval.wirelength_um,
        eval.congestion
    );

    // Irregular-Grid map, width-proportional ASCII rendering.
    let ir_map =
        IrregularGridModel::new(pitch).congestion_map(&eval.placement.chip(), &eval.segments);
    let peak = ir_map.peak_density();
    println!(
        "\nIrregular-Grid map ({} x {} IR-grids, peak density {:.3}):",
        ir_map.ir_cols(),
        ir_map.ir_rows(),
        peak
    );
    for j in (0..ir_map.ir_rows()).rev() {
        let mut line = String::new();
        for i in 0..ir_map.ir_cols() {
            // Repeat the shade proportionally to the IR-grid's width so
            // the picture keeps the chip's geometry.
            let width_cells = (ir_map.x_cuts()[i + 1] - ir_map.x_cuts()[i]).max(1) as usize;
            let c = shade(ir_map.density(i, j), peak);
            line.extend(std::iter::repeat(c).take(width_cells.min(60)));
        }
        println!("  |{line}|");
    }

    // Fixed-grid map at the same pitch for comparison (coarser than the
    // 10 um judging model so it fits a terminal).
    let fixed_map =
        FixedGridModel::new(pitch).congestion_map(&eval.placement.chip(), &eval.segments);
    let grid = *fixed_map.grid();
    let peak = fixed_map.peak();
    println!(
        "\nfixed-grid map ({} x {} grids, peak {:.3}):",
        grid.cols(),
        grid.rows(),
        peak
    );
    for y in (0..grid.rows()).rev() {
        let mut line = String::new();
        for x in 0..grid.cols() {
            line.push(shade(fixed_map.value(x, y), peak));
        }
        println!("  |{line}|");
    }

    // Machine-readable dump.
    let dump = serde_json::json!({
        "circuit": bench.name(),
        "chip_um": [eval.placement.chip().width().0, eval.placement.chip().height().0],
        "ir_cost": ir_map.cost(),
        "fixed_cost": fixed_map.cost(),
        "ir_cells": ir_map.ir_cell_count(),
        "fixed_cells": fixed_map.cell_count(),
        "x_cuts": ir_map.x_cuts(),
        "y_cuts": ir_map.y_cuts(),
    });
    let path = std::env::temp_dir().join(format!("irgrid_map_{}.json", bench.name()));
    std::fs::write(&path, serde_json::to_string_pretty(&dump)?)?;
    println!("\nwrote {}", path.display());
    Ok(())
}
