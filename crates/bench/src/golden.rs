//! Golden quick-scale reproduction of the paper's tables and figures.
//!
//! Every experiment runs at [`golden`] scale: two seeds and a short
//! schedule, small enough for the debug test build.
//!
//! * Table 1, Table 5 and Figure 8 never score the Irregular-Grid model
//!   inside an annealing cost, so they are pinned bit for bit.
//! * Tables 2–4 and Figure 9 anneal over the Irregular-Grid cost, where
//!   any last-bit change of a score can flip one Metropolis decision and
//!   re-route the chain. Each of their values must instead lie inside
//!   the range the float-Simpson engine (irgrid 0.10) produced over
//!   [`RANGE_SEEDS`], widened by [`SLACK`] for the documented ≤ 1e-4
//!   movement of Irregular-Grid scores between engines.
//!
//! Time columns are wall clock and never asserted. The ranges are
//! recorded by the ignored `record_ranges` test:
//! `cargo test --release -p irgrid-bench golden -- --ignored --nocapture`.

use irgrid::anneal::Schedule;
use irgrid::congestion::IrregularGridModel;
use irgrid::floorplanner::Weights;
use irgrid::geom::Um;
use irgrid::netlist::mcnc::McncCircuit;

use crate::common::{improvement_pct, run_batch, FaultOptions, Mode, Row};
use crate::exp1::{self, Exp1Results};
use crate::exp3::{self, Config};
use crate::{figure8, figure9};

/// The golden scale: two seeds (0 and 1) and 16 × 16 moves.
fn golden() -> Mode {
    Mode {
        seeds: 2,
        schedule: Schedule {
            moves_per_temperature: 16,
            cooling: 0.8,
            max_temperatures: 16,
            ..Schedule::default()
        },
        label: "golden",
        jobs: 1,
        fault: FaultOptions::default(),
    }
}

/// The annealing seeds the ranges are taken over: `0..RANGE_SEEDS` for
/// the tables, `SEED..SEED + RANGE_SEEDS` for Figure 9. Both contain the
/// seeds the golden runs use.
const RANGE_SEEDS: u64 = 8;

/// Relative widening of every recorded range.
const SLACK: f64 = 1e-3;

/// `(area mm², wire µm, judging cost)` of a row.
type Judged = [f64; 3];

/// `(area mm², wire µm, IR cost, judging cost)` of a row.
type Scored = [f64; 4];

/// `(cells, model cost, judging cost)` of a Table 4/5 row.
type Cells = [f64; 3];

/// An inclusive `[lo, hi]` range.
type Span = [f64; 2];

fn judged(row: &Row) -> Judged {
    [row.area_mm2, row.wire_um, row.judging_cost]
}

fn scored(row: &Row) -> Scored {
    [row.area_mm2, row.wire_um, row.model_cost, row.judging_cost]
}

fn cells(config: &Config) -> [Cells; 2] {
    [
        [
            config.avg_cells,
            config.avg.model_cost,
            config.avg.judging_cost,
        ],
        [
            config.best_cells as f64,
            config.best.model_cost,
            config.best.judging_cost,
        ],
    ]
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g:?} vs {w:?}");
    }
}

/// `span` widened by [`SLACK`] on both sides.
fn widened([lo, hi]: Span) -> Span {
    [lo - SLACK * lo.abs(), hi + SLACK * hi.abs()]
}

fn assert_within(what: &str, got: &[f64], spans: &[Span]) {
    assert_eq!(got.len(), spans.len(), "{what}: length");
    for (k, (&g, &span)) in got.iter().zip(spans).enumerate() {
        let [lo, hi] = widened(span);
        assert!(
            (lo..=hi).contains(&g),
            "{what}[{k}]: {g:?} outside {span:?} widened to [{lo:?}, {hi:?}]"
        );
    }
}

/// The recorded numbers of one Experiment 1 circuit.
struct Exp1Golden {
    circuit: McncCircuit,
    /// Table 1 average and best rows, bit for bit.
    table1: [Judged; 2],
    /// Per-metric range of Table 2's per-seed runs.
    table2: [Span; 4],
}

const APTE: Exp1Golden = Exp1Golden {
    circuit: McncCircuit::Apte,
    table1: [
        [56.449334, 210540.0, 0.3776166463912426],
        [57.8899, 175740.0, 0.30668416417729955],
    ],
    table2: [
        [54.628728, 66.643327],
        [164280.0, 243180.0],
        [0.4358965698335303, 0.8056272460122826],
        [0.2617643603221342, 0.4325805616361665],
    ],
};

const XEROX: Exp1Golden = Exp1Golden {
    circuit: McncCircuit::Xerox,
    table1: [
        [25.883454999999998, 312570.0, 1.1465519996203546],
        [26.059827, 256500.0, 0.9883107530509283],
    ],
    table2: [
        [23.939496, 28.294196],
        [240570.0, 522720.0],
        [0.8340577912820424, 1.247846915953672],
        [0.8978893954993309, 1.984512346034062],
    ],
};

const HP: Exp1Golden = Exp1Golden {
    circuit: McncCircuit::Hp,
    table1: [
        [11.0950335, 80790.0, 0.7368403127041994],
        [10.187443, 84930.0, 0.8255686647229958],
    ],
    table2: [
        [10.7725, 15.309587],
        [55320.0, 91320.0],
        [0.3180558897852997, 0.560253382597085],
        [0.44283163859337954, 0.7671890829259002],
    ],
};

/// Table 4 (ami33): per-metric range of the per-seed runs.
const TABLE4: [Span; 3] = [
    [589.0, 891.0],
    [1.4007312957293199, 1.5435602938796507],
    [1.4300352244995507, 1.5833165500383992],
];

/// Table 5 (ami33, fixed 100 µm then 50 µm): average and best rows.
const TABLE5: [[Cells; 2]; 2] = [
    [
        [561.0, 12.002444337167578, 1.6788863294688432],
        [528.0, 11.950898574772166, 1.6237316659114225],
    ],
    [
        [1850.5, 5.911943152769219, 1.5162053605875938],
        [2021.0, 5.844735176303106, 1.4586902074061918],
    ],
];

/// Figure 8: `(exact, approx)` of panels (b) and (d), then the sweep's
/// p99 and max deviation.
const FIGURE8: [f64; 38] = [
    0.0007369918168842617,
    0.000806383502827661,
    0.0014516505484083984,
    0.0015540151071096364,
    0.002698176562802529,
    0.0028298622974668765,
    0.004754828628155503,
    0.004893402993382555,
    0.007973233039730089,
    0.008067379766258076,
    0.01275717286356827,
    0.012720694102493636,
    0.01951343875512898,
    0.019230506921910043,
    0.028568694648032043,
    0.027918216603535325,
    0.040052189555574734,
    0.03895616168455064,
    0.05375425440353473,
    0.05224638729706876,
    0.06898462648453596,
    0.06728069260121665,
    0.016984634237177866,
    0.016940693246598405,
    0.029892956257433045,
    0.02719524485753291,
    0.05173780890709622,
    0.04379585159690061,
    0.08814589665653508,
    0.07167897340511668,
    0.14795918367347044,
    0.12256882822747972,
    0.24489795918367635,
    0.23861740776220652,
    0.39999999999999963,
    0.0,
    0.010592060264894426,
    0.027812872010010148,
];

/// Figure 9 (ami33): per-step range of curves A, B and C; the golden
/// schedule cools through 16 temperature steps.
const FIGURE9: [[Span; 16]; 3] = [
    [
        [1.6391204215952797, 1.9784894452640434],
        [1.6765911730510796, 2.197369405577545],
        [1.715689281143671, 2.1046954494621484],
        [1.6593448156887782, 2.0441997870535187],
        [1.7583046883466305, 2.0575774801589413],
        [1.6647089781985092, 2.1848780253989584],
        [1.6103959818725115, 2.0635392555060155],
        [1.682742478696277, 2.094137300121113],
        [1.6370874532296988, 2.2267293053992154],
        [1.6252036845353672, 2.018088830021971],
        [1.620947669913351, 1.8941930925750239],
        [1.5682351430976706, 1.8749090542376416],
        [1.4849443444974304, 1.8860884270184197],
        [1.5094602037831835, 1.8392830861133609],
        [1.417082141846724, 1.8141087389918915],
        [1.423659069269639, 1.90707802362307],
    ],
    [
        [1.5140243229911254, 1.8292314939291048],
        [1.5828584292508303, 2.0135464729025463],
        [1.5959277515858084, 2.0713912859873322],
        [1.6233894266322915, 2.170829251585662],
        [1.6754694838796003, 2.0793733599439923],
        [1.533810236458042, 2.252750687370823],
        [1.619174976548619, 2.3007543892328646],
        [1.5824117161705646, 2.1927045794899302],
        [1.5078115168094004, 1.9174007877797932],
        [1.505832384913956, 1.8431084640281823],
        [1.512609042927419, 1.8054082250567447],
        [1.5006064430278032, 1.8268311039711325],
        [1.5120473953479987, 1.8076164466666476],
        [1.5521094807613618, 1.837861478023909],
        [1.4284964369779094, 1.8008403915472362],
        [1.4824026915259785, 1.8090919761867088],
    ],
    [
        [6.178659240202887, 7.048997483917231],
        [6.36374852605321, 7.8003360306095635],
        [6.330608444592429, 8.27543453267902],
        [6.358371703178652, 8.043504478838475],
        [6.823628075399592, 7.894005004823498],
        [6.319785992413042, 8.248083813472427],
        [6.372289926114711, 8.341647256372534],
        [6.7185263062591, 8.29885754398206],
        [6.175325083940999, 8.033626733827742],
        [6.159435443912443, 7.636239121601369],
        [6.140296076395981, 7.273655459227698],
        [6.021406674910616, 7.293381531078415],
        [6.1050663506935905, 7.082521316435711],
        [6.179692098798704, 7.220815883005199],
        [5.791468281237277, 7.258780782949776],
        [6.059278892800139, 7.262413395040448],
    ],
];

fn check_exp1(golden_row: &Exp1Golden) {
    let results = exp1::run(&golden(), &[golden_row.circuit]);
    let Exp1Results {
        baseline_avg,
        baseline_best,
        congestion_avg,
        congestion_best,
        ..
    } = &results[0];
    let name = golden_row.circuit.name();

    let table1 = [judged(baseline_avg), judged(baseline_best)];
    for (row, (got, want)) in ["avg", "best"]
        .iter()
        .zip(table1.iter().zip(&golden_row.table1))
    {
        assert_bits(&format!("{name} Table 1 {row}"), got, want);
    }

    let table2 = [scored(congestion_avg), scored(congestion_best)];
    for (row, got) in ["avg", "best"].iter().zip(&table2) {
        assert_within(&format!("{name} Table 2 {row}"), got, &golden_row.table2);
    }

    // Table 3 is Table 2's improvement over Table 1: decreasing in the
    // Table 2 value, so its range follows from Table 2's.
    for (row, (old, new)) in ["avg", "best"].iter().zip(table1.iter().zip(&table2)) {
        for (k, metric) in [(0, 0), (1, 1), (2, 3)] {
            let [lo, hi] = widened(golden_row.table2[metric]);
            let got = improvement_pct(old[k], new[metric]);
            let (low, high) = (improvement_pct(old[k], hi), improvement_pct(old[k], lo));
            assert!(
                (low..=high).contains(&got),
                "{name} Table 3 {row}[{k}]: {got:?} outside [{low:?}, {high:?}]"
            );
        }
    }
}

#[test]
fn tables_1_to_3_apte() {
    check_exp1(&APTE);
}

#[test]
fn tables_1_to_3_xerox() {
    check_exp1(&XEROX);
}

#[test]
fn tables_1_to_3_hp() {
    check_exp1(&HP);
}

#[test]
fn tables_4_and_5_ami33() {
    let (table4, table5) = exp3::compute(&golden(), McncCircuit::Ami33);
    for (row, got) in ["avg", "best"].iter().zip(cells(&table4)) {
        assert_within(&format!("Table 4 {row}"), &got, &TABLE4);
    }
    assert_eq!(table5.len(), TABLE5.len());
    for (config, want) in table5.iter().zip(&TABLE5) {
        for (row, (got, want)) in ["avg", "best"].iter().zip(cells(config).iter().zip(want)) {
            assert_bits(&format!("Table 5 {} {row}", config.label), got, want);
        }
    }
}

fn figure8_values() -> Vec<f64> {
    let figure = figure8::compute();
    let mut values: Vec<f64> = figure
        .interior
        .iter()
        .chain(&figure.pin_adjacent)
        .flat_map(|&(_, exact, approx)| [exact, approx])
        .collect();
    values.extend([figure.sweep_p99, figure.sweep_max]);
    values
}

#[test]
fn figure_8() {
    assert_bits("Figure 8", &figure8_values(), &FIGURE8);
}

#[test]
fn figure_9_ami33() {
    let curves = figure9::curves(&golden(), McncCircuit::Ami33, figure9::SEED);
    for (name, (got, spans)) in ["A", "B", "C"].iter().zip(curves.iter().zip(&FIGURE9)) {
        assert_within(&format!("Figure 9 curve {name}"), got, spans);
    }
}

/// Per-metric `[min, max]` over `values`.
fn spans<const N: usize>(values: impl Iterator<Item = [f64; N]>) -> [Span; N] {
    let mut spans = [[f64::INFINITY, f64::NEG_INFINITY]; N];
    for value in values {
        for (span, v) in spans.iter_mut().zip(value) {
            *span = [span[0].min(v), span[1].max(v)];
        }
    }
    spans
}

/// Prints the constants above, computed with the current engine.
#[test]
#[ignore = "records the golden constants; run in release with --nocapture"]
fn record_ranges() {
    let wide = Mode {
        seeds: RANGE_SEEDS,
        ..golden()
    };
    for circuit in [McncCircuit::Apte, McncCircuit::Xerox, McncCircuit::Hp] {
        let results = exp1::run(&golden(), &[circuit]);
        let table1 = [
            judged(&results[0].baseline_avg),
            judged(&results[0].baseline_best),
        ];
        let pitch = Um(circuit.paper_grid_pitch_um());
        let runs = run_batch(
            &circuit.circuit(),
            pitch,
            Weights::routability(),
            Some(IrregularGridModel::new(pitch)),
            &wide,
        );
        let table2 = spans(
            runs.iter()
                .map(|o| [o.area_mm2, o.wire_um, o.model_cost, o.judging_cost]),
        );
        println!("{circuit}: table1: {table1:?},\n    table2: {table2:?},");
    }

    let ami33 = McncCircuit::Ami33;
    let pitch = Um(ami33.paper_grid_pitch_um());
    let runs = run_batch(
        &ami33.circuit(),
        pitch,
        Weights::congestion_only(),
        Some(IrregularGridModel::new(pitch)),
        &wide,
    );
    let table4 = spans(runs.iter().map(|o| {
        let map = IrregularGridModel::new(pitch)
            .congestion_map(&o.eval.placement.chip(), &o.eval.segments);
        [map.ir_cell_count() as f64, o.model_cost, o.judging_cost]
    }));
    println!("TABLE4: {table4:?}");
    let (_, table5) = exp3::compute(&golden(), McncCircuit::Ami33);
    let table5: Vec<[Cells; 2]> = table5.iter().map(cells).collect();
    println!("TABLE5: {table5:?}");
    println!("FIGURE8: {:?}", figure8_values());

    let runs: Vec<[Vec<f64>; 3]> = (0..RANGE_SEEDS)
        .map(|k| figure9::curves(&golden(), McncCircuit::Ami33, figure9::SEED + k))
        .collect();
    let figure9: Vec<Vec<Span>> = (0..3)
        .map(|curve| {
            (0..runs[0][curve].len())
                .map(|step| spans(runs.iter().map(|run| [run[curve][step]]))[0])
                .collect()
        })
        .collect();
    println!("FIGURE9: {figure9:?}");
}
