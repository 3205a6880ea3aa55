//! Experiment 3 (Tables 4–5): congestion-only floorplanning with the
//! Irregular-Grid model vs the fixed-size-grid model at 100 µm and 50 µm.

use irgrid::congestion::{CellArithmetic, FixedGridModel, IrregularGridModel};
use irgrid::floorplanner::Weights;
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

use crate::common::{aggregate, header, improvement_pct, run_batch, Mode, Row, RunOutcome};

/// One model's row of Table 4 or 5.
pub struct Config {
    pub label: String,
    pub pitch_um: i64,
    pub avg: Row,
    pub best: Row,
    pub avg_cells: f64,
    pub best_cells: usize,
}

fn cell_counts(outcomes: &[RunOutcome], count: impl Fn(&RunOutcome) -> usize) -> (f64, usize) {
    let avg = outcomes.iter().map(|o| count(o) as f64).sum::<f64>() / outcomes.len() as f64;
    let best = outcomes
        .iter()
        .min_by(|a, b| a.anneal_cost.total_cmp(&b.anneal_cost))
        .map(count)
        .expect("non-empty");
    (avg, best)
}

/// Runs the whole experiment on `bench` (the paper uses ami33): Table 4
/// (the Irregular-Grid row) and Table 5 (the fixed-grid rows).
pub fn compute(mode: &Mode, bench: McncCircuit) -> (Config, Vec<Config>) {
    let circuit = bench.circuit();

    // --- Table 4: Irregular-Grid model, congestion-only cost.
    let pitch = Um(bench.paper_grid_pitch_um());
    eprintln!("[exp3] {bench}: IR-grid congestion-only floorplanner...");
    let ir_model = IrregularGridModel::new(pitch);
    let ir_runs = run_batch(
        &circuit,
        pitch,
        Weights::congestion_only(),
        Some(ir_model),
        mode,
    );
    let (ir_avg, ir_best) = aggregate(&ir_runs);
    let (ir_avg_cells, ir_best_cells) = cell_counts(&ir_runs, |o| {
        IrregularGridModel::new(pitch)
            .congestion_map(&o.eval.placement.chip(), &o.eval.segments)
            .ir_cell_count()
    });
    let table4 = Config {
        label: format!("IR-grid {pitch}"),
        pitch_um: pitch.0,
        avg: ir_avg,
        best: ir_best,
        avg_cells: ir_avg_cells,
        best_cells: ir_best_cells,
    };

    // --- Table 5: fixed-size-grid model at 100 and 50 µm. The paper's
    // baseline computed every binomial per cell (2002-era arithmetic);
    // we run that faithful mode here and report the amortized-table time
    // separately in the ablation bench.
    let mut table5 = Vec::new();
    for p in [100i64, 50] {
        eprintln!("[exp3] {bench}: fixed-grid {p}x{p} congestion-only floorplanner...");
        let model = FixedGridModel::new(Um(p)).with_arithmetic(CellArithmetic::PerCellGamma);
        let runs = run_batch(
            &circuit,
            Um(p),
            Weights::congestion_only(),
            Some(model),
            mode,
        );
        let (avg, best) = aggregate(&runs);
        let (avg_cells, best_cells) = cell_counts(&runs, |o| {
            FixedGridModel::new(Um(p))
                .congestion_map(&o.eval.placement.chip(), &o.eval.segments)
                .cell_count()
        });
        table5.push(Config {
            label: format!("fixed {p}x{p}um"),
            pitch_um: p,
            avg,
            best,
            avg_cells,
            best_cells,
        });
    }
    (table4, table5)
}

/// Runs and prints Tables 4 and 5.
pub fn run(mode: &Mode, bench: McncCircuit) {
    let (table4, table5) = compute(mode, bench);
    header(
        &format!("Table 4: Irregular-Grid model, congestion-only optimization ({bench})"),
        mode,
    );
    print_rows(std::slice::from_ref(&table4));

    header(
        &format!("Table 5: fixed-size-grid model, congestion-only optimization ({bench})"),
        mode,
    );
    print_rows(&table5);

    println!("\ncomparison (paper: IR-grid ~2.3x faster than fixed 100um with 8.79% better");
    println!("judging cost; ~3.5x faster than fixed 50um with 4.59% better judging cost):");
    for cfg in &table5 {
        let speedup = cfg.avg.time_s / table4.avg.time_s.max(f64::MIN_POSITIVE);
        let cgt = improvement_pct(cfg.avg.judging_cost, table4.avg.judging_cost);
        println!(
            "  vs {:<16} run-time ratio {speedup:>5.2}x, judging cgt improvement {cgt:>6.2}%, cell ratio {:>5.2}x",
            cfg.label,
            cfg.avg_cells / table4.avg_cells.max(1.0),
        );
    }
}

fn print_rows(configs: &[Config]) {
    println!(
        "{:<16} {:>6} | {:>9} {:>10} {:>8} {:>12} | {:>9} {:>10} {:>8} {:>12}",
        "model",
        "pitch",
        "avg cells",
        "avg cgt",
        "avg t",
        "avg judging",
        "best cells",
        "best cgt",
        "best t",
        "best judging"
    );
    for c in configs {
        println!(
            "{:<16} {:>6} | {:>9.0} {:>10.4} {:>8.1} {:>12.6} | {:>9} {:>10.4} {:>8.1} {:>12.6}",
            c.label,
            c.pitch_um,
            c.avg_cells,
            c.avg.model_cost,
            c.avg.time_s,
            c.avg.judging_cost,
            c.best_cells,
            c.best.model_cost,
            c.best.time_s,
            c.best.judging_cost,
        );
    }
}
