//! End-to-end integration: circuit generation → annealing floorplanner
//! with the Irregular-Grid model in the loop → judging with the
//! fixed-grid reference.

use irgrid::anneal::{AnnealResult, Annealer, DeltaProblem, Problem, RunOptions, Schedule};
use irgrid::congestion::{CongestionModel, FixedGridModel, IrregularGridModel};
use irgrid::floorplanner::{FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::generator::CircuitGenerator;
use irgrid::netlist::mcnc::McncCircuit;

fn anneal<P: DeltaProblem>(schedule: Schedule, problem: &P, seed: u64) -> AnnealResult<P::State> {
    Annealer::new(schedule)
        .run(problem, seed, RunOptions::default())
        .expect("finite costs")
}

fn quick<P: DeltaProblem>(problem: &P, seed: u64) -> AnnealResult<P::State> {
    anneal(Schedule::quick(), problem, seed)
}

#[test]
fn congestion_driven_annealing_improves_all_the_way_down() {
    let circuit = CircuitGenerator::new("e2e", 10, 25)
        .total_area_um2(2.0e6)
        .seed(7)
        .generate()
        .expect("valid circuit");
    let problem = FloorplanProblem::new(
        &circuit,
        Um(30),
        Weights::balanced(),
        Some(IrregularGridModel::new(Um(30))),
    );
    let initial = problem.cost(&problem.initial_state());
    let result = quick(&problem, 3);
    assert!(result.best_cost <= initial);
    let eval = problem.evaluate(&result.best);
    assert!(eval.placement.check_consistency().is_none());
    assert!(eval.area_um2 >= circuit.total_module_area().as_f64());
}

#[test]
fn judging_model_scores_any_floorplanner_output() {
    let circuit = McncCircuit::Hp.circuit();
    let problem = FloorplanProblem::new(
        &circuit,
        Um(30),
        Weights::area_wire(),
        None::<IrregularGridModel>,
    );
    let result = quick(&problem, 1);
    let eval = problem.evaluate(&result.best);
    let judged = FixedGridModel::judging().evaluate(&eval.placement.chip(), &eval.segments);
    assert!(judged.is_finite());
    assert!(
        judged > 0.0,
        "a packed hp floorplan always has some congestion"
    );
}

#[test]
fn per_temperature_snapshots_flow_through_the_stack() {
    // Experiment 2's extraction path: snapshot states at every
    // temperature and re-evaluate each with a different model afterwards.
    let circuit = CircuitGenerator::new("snap", 8, 18)
        .seed(9)
        .generate()
        .expect("valid circuit");
    let problem = FloorplanProblem::new(
        &circuit,
        Um(30),
        Weights::congestion_only(),
        Some(IrregularGridModel::new(Um(30))),
    );
    let schedule = Schedule {
        snapshot_per_temperature: true,
        ..Schedule::quick()
    };
    let result = anneal(schedule, &problem, 5);
    assert!(!result.snapshots.is_empty());
    let judging = FixedGridModel::new(Um(10));
    for snapshot in &result.snapshots {
        let eval = problem.evaluate(&snapshot.best_state);
        let judged = judging.evaluate(&eval.placement.chip(), &eval.segments);
        assert!(judged.is_finite() && judged >= 0.0);
    }
}

#[test]
fn same_seed_same_floorplan_different_seed_usually_differs() {
    let circuit = CircuitGenerator::new("seeds", 9, 20)
        .seed(11)
        .generate()
        .expect("valid circuit");
    let problem = FloorplanProblem::new(
        &circuit,
        Um(30),
        Weights::balanced(),
        Some(IrregularGridModel::new(Um(30))),
    );
    let a = quick(&problem, 100);
    let b = quick(&problem, 100);
    assert_eq!(a.best, b.best, "same seed must reproduce exactly");
    let c = quick(&problem, 101);
    // Different seeds explore differently (costs may coincide, full
    // stats rarely do).
    assert!(
        a.best != c.best || a.stats.accepted != c.stats.accepted,
        "different seeds produced identical runs"
    );
}

#[test]
fn all_benchmarks_run_one_evaluation() {
    for bench in McncCircuit::ALL {
        let circuit = bench.circuit();
        let pitch = Um(bench.paper_grid_pitch_um());
        let problem = FloorplanProblem::new(
            &circuit,
            pitch,
            Weights::balanced(),
            Some(IrregularGridModel::new(pitch)),
        );
        let eval = problem.evaluate(&problem.initial_state());
        assert!(eval.placement.check_consistency().is_none(), "{bench}");
        assert!(eval.cost.is_finite(), "{bench}");
        assert!(eval.congestion > 0.0, "{bench}");
    }
}
