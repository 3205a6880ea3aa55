//! Figure 8 (§4.5): accuracy of the Theorem 1 approximation.
//!
//! The paper takes a type I net divided into 31×21 grids and plots the
//! real values of Function (1) against the approximating values for
//! x = 10..20 at y₂ = 15 (figure 8(a)/(b)), then shows the degenerate
//! grid (30, 19) where the approximation is undefined (figure 8(c)/(d)),
//! concluding "the deviation of approximation is generally less than
//! 0.05".

use irgrid::congestion::irregular::{function1_approx, function1_exact};
use irgrid::congestion::num::LnFactorials;
use irgrid::congestion::{NetType, RoutingRange};

/// Figure 8's numbers: `(x, exact, approx)` rows of panels (b) and (d),
/// and the deviation statistics of the full-range sweep.
pub struct Figure8 {
    pub interior: Vec<(i64, f64, f64)>,
    pub pin_adjacent: Vec<(i64, f64, f64)>,
    pub sweep_points: usize,
    pub sweep_p99: f64,
    pub sweep_max: f64,
}

/// Computes Figure 8 (no annealing, no congestion engine).
pub fn compute() -> Figure8 {
    let range = RoutingRange::from_cells(0, 0, 31, 21, NetType::TypeI);
    let lf = LnFactorials::up_to(128);
    let row = |x: i64, y2: i64| {
        (
            x,
            function1_exact(&range, &lf, x, y2),
            function1_approx(&range, x as f64, y2),
        )
    };
    // Broader sweep: deviation statistics over every valid (x, y2) of
    // the same range, skipping the four §4.5 error cells.
    let mut devs = Vec::new();
    for y2 in 1..20i64 {
        for x in 1..30i64 {
            let (_, exact, approx) = row(x, y2);
            devs.push((exact - approx).abs());
        }
    }
    devs.sort_by(f64::total_cmp);
    Figure8 {
        // Figure 8(a)/(b): interior IR-grid with top edge y2 = 15.
        interior: (10..=20).map(|x| row(x, 15)).collect(),
        // Figure 8(c)/(d): IR-grid touching the top-right pin; grid
        // (30, 19) is an error-making cell (q >= 1), guarded to 0.
        pin_adjacent: (24..=30).map(|x| row(x, 19)).collect(),
        sweep_points: devs.len(),
        sweep_p99: devs[(devs.len() as f64 * 0.99) as usize],
        sweep_max: devs[devs.len() - 1],
    }
}

pub fn run() {
    let figure = compute();
    println!("\n=== Figure 8: exact vs approximated Function (1), 31x21 type I net ===");
    println!("\n(b) x = 10..=20, y2 = 15:");
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "x", "exact", "approx", "deviation"
    );
    let mut max_dev: f64 = 0.0;
    for &(x, exact, approx) in &figure.interior {
        let dev = (exact - approx).abs();
        max_dev = max_dev.max(dev);
        println!("{x:>4} {exact:>12.6} {approx:>12.6} {dev:>12.6}");
    }
    println!("max deviation: {max_dev:.6} (paper: generally < 0.05)");

    // The paper's curve "shows no value when x = 30".
    println!("\n(d) x = 24..=30, y2 = 19 (pin-adjacent; x = 30 is the error cell):");
    println!("{:>4} {:>12} {:>12}", "x", "exact", "approx");
    for &(x, exact, approx) in &figure.pin_adjacent {
        let marker = if approx == 0.0 && exact > 0.0 {
            "  <- guarded (no value)"
        } else {
            ""
        };
        println!("{x:>4} {exact:>12.6} {approx:>12.6}{marker}");
    }

    println!(
        "\nfull-range sweep ({} points, error cells excluded): p99 deviation {:.4}, max {:.4}",
        figure.sweep_points, figure.sweep_p99, figure.sweep_max
    );
}
