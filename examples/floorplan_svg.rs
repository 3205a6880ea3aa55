//! Render a benchmark floorplan and its congestion maps to SVG files —
//! the pictures of the paper's figures 3–5, generated from live data.
//!
//! Run with: `cargo run --release --example floorplan_svg [circuit] [outdir]`

use irgrid::anneal::{Annealer, RunOptions, Schedule};
use irgrid::congestion::{FixedGridModel, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;
use irgrid::viz;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ami33".into());
    let outdir = std::env::args()
        .nth(2)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let bench = McncCircuit::from_name(&name)
        .ok_or_else(|| format!("unknown circuit `{name}` (try apte/xerox/hp/ami33/ami49)"))?;
    let circuit = bench.circuit();
    let pitch = Um(bench.paper_grid_pitch_um());

    println!("annealing {circuit}...");
    let problem = FloorplanProblem::new(
        &circuit,
        pitch,
        Weights::routability(),
        Some(IrregularGridModel::new(pitch)),
    );
    let result = Annealer::new(Schedule::quick()).run(&problem, 3, RunOptions::default())?;
    let eval = problem.evaluate(&result.best);

    let placement_path = outdir.join(format!("{}_floorplan.svg", bench.name()));
    std::fs::write(
        &placement_path,
        viz::placement_svg(&circuit, &eval.placement),
    )?;
    println!("wrote {}", placement_path.display());

    let ir_map =
        IrregularGridModel::new(pitch).congestion_map(&eval.placement.chip(), &eval.segments);
    let ir_path = outdir.join(format!("{}_ir_congestion.svg", bench.name()));
    std::fs::write(
        &ir_path,
        viz::ir_congestion_svg(&circuit, &eval.placement, &ir_map),
    )?;
    println!(
        "wrote {} ({} IR-grids, cost {:.4})",
        ir_path.display(),
        ir_map.ir_cell_count(),
        ir_map.cost()
    );

    let fixed_map =
        FixedGridModel::new(pitch).congestion_map(&eval.placement.chip(), &eval.segments);
    let fixed_path = outdir.join(format!("{}_fixed_congestion.svg", bench.name()));
    std::fs::write(
        &fixed_path,
        viz::fixed_congestion_svg(&circuit, &eval.placement, &fixed_map),
    )?;
    println!(
        "wrote {} ({} grids, cost {:.4})",
        fixed_path.display(),
        fixed_map.cell_count(),
        fixed_map.cost()
    );
    Ok(())
}
