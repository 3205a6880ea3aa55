//! Golden quick-scale reproduction of the paper's tables and figures.
//!
//! Every experiment runs at [`golden`] scale: two seeds and a short
//! schedule, small enough for the debug test build. Every table and
//! figure value is pinned bit for bit: Table 1, Table 5 and Figure 8
//! never score the Irregular-Grid model inside an annealing cost, and
//! Tables 2–4 and Figure 9 anneal over it. The full and incremental
//! Irregular-Grid costs are the same bits, so any change that moves one
//! of these numbers changed what the floorplanner computes.
//!
//! Time columns are wall clock and never asserted. The constants are
//! printed, at full `Debug` precision, by the ignored `record_constants`
//! test:
//! `cargo test --release -p irgrid-bench golden -- --ignored --nocapture`.

use irgrid::anneal::Schedule;
use irgrid::netlist::mcnc::McncCircuit;

use crate::common::{improvement_pct, FaultOptions, Mode, Row};
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

/// `(area mm², wire µm, judging cost)` of a row.
type Judged = [f64; 3];

/// `(area mm², wire µm, IR cost, judging cost)` of a row.
type Scored = [f64; 4];

/// `(cells, model cost, judging cost)` of a Table 4/5 row.
type Cells = [f64; 3];

fn judged(row: &Row) -> Judged {
    [row.area_mm2, row.wire_um, row.judging_cost]
}

fn scored(row: &Row) -> Scored {
    [row.area_mm2, row.wire_um, row.model_cost, row.judging_cost]
}

/// Table 3: Table 2's improvement over Table 1 in area, wire and
/// judging cost.
fn improvement(old: &Judged, new: &Scored) -> Judged {
    [
        improvement_pct(old[0], new[0]),
        improvement_pct(old[1], new[1]),
        improvement_pct(old[2], new[3]),
    ]
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

/// The recorded numbers of one Experiment 1 circuit.
struct Exp1Golden {
    circuit: McncCircuit,
    /// Table 1 average and best rows.
    table1: [Judged; 2],
    /// Table 2 average and best rows.
    table2: [Scored; 2],
    /// Table 3 average and best rows.
    table3: [Judged; 2],
}

const APTE: Exp1Golden = Exp1Golden {
    circuit: McncCircuit::Apte,
    table1: [
        [56.449334, 210540.0, 0.3776166463912426],
        [57.8899, 175740.0, 0.30668416417729955],
    ],
    table2: [
        [60.778228, 214620.0, 0.603428789584393, 0.3540774211280846],
        [55.779864, 186060.0, 0.5475084110387872, 0.3363227896818775],
    ],
    table3: [
        [-7.668636090551569, -1.937874038187518, 6.233630187682292],
        [3.6449121522061603, -5.872311369067941, -9.664217774036533],
    ],
};

const XEROX: Exp1Golden = Exp1Golden {
    circuit: McncCircuit::Xerox,
    table1: [
        [25.883454999999998, 312570.0, 1.1465519996203546],
        [26.059827, 256500.0, 0.9883107530509283],
    ],
    table2: [
        [26.439267, 420270.0, 0.9353421695884558, 1.572288556892481],
        [27.178704, 317820.0, 0.9136728598204588, 1.1600647677509002],
    ],
    table3: [
        [-2.147364020761537, -34.45628179287839, -37.13190133662458],
        [-4.293493583054106, -23.906432748538013, -17.378543557253117],
    ],
};

const HP: Exp1Golden = Exp1Golden {
    circuit: McncCircuit::Hp,
    table1: [
        [11.0950335, 80790.0, 0.7368403127041994],
        [10.187443, 84930.0, 0.8255686647229958],
    ],
    table2: [
        [13.239537, 72615.0, 0.41540828783686556, 0.5639222770746567],
        [14.326824, 65340.0, 0.3882936265528213, 0.46100966467042875],
    ],
    table3: [
        [-19.3284995489198, 10.118826587448941, 23.46750478335456],
        [-40.63218807702777, 23.066054397739315, 44.15853164374741],
    ],
};

/// Table 4 (ami33): average and best rows.
const TABLE4: [Cells; 2] = [
    [796.5, 1.534424327541279, 1.512407381610008],
    [702.0, 1.525640429965394, 1.5072929651773141],
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

/// Figure 9 (ami33): curves A, B and C; the golden schedule cools
/// through 16 temperature steps.
const FIGURE9: [[f64; 16]; 3] = [
    [
        1.6840904681787123,
        1.676350450008141,
        1.8988519781984363,
        2.043141717094137,
        1.7576072806491594,
        1.9112052529318884,
        1.9837690525554932,
        2.0932563778783675,
        2.22531773663827,
        2.017230746576775,
        1.770789598185532,
        1.6135879017837529,
        1.6016357760790183,
        1.8388209099468202,
        1.7370664988259221,
        1.906702568403025,
    ],
    [
        1.5140243229911254,
        1.6938397605208095,
        1.7733082459067913,
        1.7731200580985405,
        1.6754694838796003,
        1.6749661486506886,
        1.7553102752309744,
        1.8543097983931969,
        1.899315360082069,
        1.8431084640281823,
        1.7991519913013234,
        1.7229090162615257,
        1.7211874309223703,
        1.729904038066822,
        1.63157970440816,
        1.7167770351801008,
    ],
    [
        6.372889911853786,
        6.758456877573294,
        7.165874363594331,
        7.485784841689089,
        6.823628075399592,
        6.896787205540646,
        7.352433117310062,
        7.7281589366359915,
        8.033626733827742,
        7.636239121601369,
        7.273655459227698,
        6.779824482570084,
        6.97374144181337,
        7.034899576470323,
        6.687438576148929,
        7.128185039503168,
    ],
];

/// Tables 1–3 of one Experiment 1 circuit at the golden scale.
fn exp1_tables(circuit: McncCircuit) -> ([Judged; 2], [Scored; 2], [Judged; 2]) {
    let results = exp1::run(&golden(), &[circuit]);
    let Exp1Results {
        baseline_avg,
        baseline_best,
        congestion_avg,
        congestion_best,
        ..
    } = &results[0];
    let table1 = [judged(baseline_avg), judged(baseline_best)];
    let table2 = [scored(congestion_avg), scored(congestion_best)];
    let table3 = [
        improvement(&table1[0], &table2[0]),
        improvement(&table1[1], &table2[1]),
    ];
    (table1, table2, table3)
}

fn check_exp1(golden_row: &Exp1Golden) {
    let name = golden_row.circuit.name();
    let (table1, table2, table3) = exp1_tables(golden_row.circuit);
    for (k, row) in ["avg", "best"].iter().enumerate() {
        assert_bits(
            &format!("{name} Table 1 {row}"),
            &table1[k],
            &golden_row.table1[k],
        );
        assert_bits(
            &format!("{name} Table 2 {row}"),
            &table2[k],
            &golden_row.table2[k],
        );
        assert_bits(
            &format!("{name} Table 3 {row}"),
            &table3[k],
            &golden_row.table3[k],
        );
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
    for (row, (got, want)) in ["avg", "best"]
        .iter()
        .zip(cells(&table4).iter().zip(&TABLE4))
    {
        assert_bits(&format!("Table 4 {row}"), got, want);
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
    for (name, (got, want)) in ["A", "B", "C"].iter().zip(curves.iter().zip(&FIGURE9)) {
        assert_bits(&format!("Figure 9 curve {name}"), got, want);
    }
}

/// Prints the constants above, computed with the current engine.
#[test]
#[ignore = "records the golden constants; run in release with --nocapture"]
fn record_constants() {
    for circuit in [McncCircuit::Apte, McncCircuit::Xerox, McncCircuit::Hp] {
        let (table1, table2, table3) = exp1_tables(circuit);
        println!(
            "{circuit}: table1: {table1:?},\n    table2: {table2:?},\n    table3: {table3:?},"
        );
    }
    let (table4, table5) = exp3::compute(&golden(), McncCircuit::Ami33);
    println!("TABLE4: {:?}", cells(&table4));
    let table5: Vec<[Cells; 2]> = table5.iter().map(cells).collect();
    println!("TABLE5: {table5:?}");
    println!("FIGURE8: {:?}", figure8_values());
    let figure9 = figure9::curves(&golden(), McncCircuit::Ami33, figure9::SEED);
    println!("FIGURE9: {figure9:?}");
}
