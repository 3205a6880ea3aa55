//! Shared experiment machinery: run modes, seeded floorplanner runs, and
//! aggregate statistics in the paper's "average / best of N seeds" form.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use irgrid::anneal::{Annealer, Checkpoint, RunControl, RunOptions, Schedule, StopReason};
use irgrid::congestion::{CongestionModel, DeltaCongestion, FixedGridModel};
use irgrid::fleet::pool;
use irgrid::floorplanner::{FloorplanEval, FloorplanProblem, Weights};
use irgrid::geom::Um;
use irgrid::netlist::Circuit;

/// Fault-tolerance options shared by every batch in an invocation:
/// a wall-clock deadline and checkpoint/resume directories.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultOptions {
    /// Stop all annealing at this instant; remaining seeds are skipped.
    pub deadline: Option<Instant>,
    /// Write a checkpoint per `(circuit, weights, pitch, seed)` run into
    /// this directory every [`FaultOptions::CHECKPOINT_EVERY`] steps.
    pub checkpoint_dir: Option<&'static str>,
    /// Before each seed run, look for a matching checkpoint in this
    /// directory and resume from it instead of starting fresh.
    pub resume_dir: Option<&'static str>,
}

impl FaultOptions {
    /// Checkpoint cadence in temperature steps.
    pub const CHECKPOINT_EVERY: usize = 10;

    /// The checkpoint file for one seeded run, unique per
    /// `(circuit, weights, pitch, seed)` so concurrent batches over the
    /// same circuit (e.g. Table 1 baseline vs Table 2) never collide.
    pub fn checkpoint_file(
        dir: &str,
        circuit: &Circuit,
        pitch: Um,
        weights: Weights,
        seed: u64,
    ) -> PathBuf {
        let tag = format!(
            "{}_a{}w{}c{}_p{}_s{seed}.ckpt.json",
            circuit.name(),
            weights.area,
            weights.wire,
            weights.congestion,
            pitch.0,
        );
        PathBuf::from(dir).join(tag)
    }

    /// The [`RunControl`] these options induce.
    pub fn control(&self) -> RunControl {
        let mut control = RunControl::unlimited();
        if let Some(deadline) = self.deadline {
            control = control.with_deadline(deadline);
        }
        if self.checkpoint_dir.is_some() {
            control = control.with_checkpoint_every(Self::CHECKPOINT_EVERY);
        }
        control
    }
}

/// How much compute an experiment run spends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mode {
    /// Number of annealing seeds per configuration (the paper uses 20).
    pub seeds: u64,
    /// The annealing schedule.
    pub schedule: Schedule,
    /// Label printed in headers.
    pub label: &'static str,
    /// Worker threads for per-seed batches (`--jobs N`); 1 keeps the
    /// original single-threaded execution byte for byte.
    pub jobs: usize,
    /// Deadline / checkpoint / resume options.
    pub fault: FaultOptions,
}

impl Mode {
    /// Smoke-test mode: 2 seeds, short schedule.
    pub fn quick() -> Mode {
        Mode {
            seeds: 2,
            schedule: Schedule::quick(),
            label: "quick (2 seeds, short schedule)",
            jobs: 1,
            fault: FaultOptions::default(),
        }
    }

    /// Default mode: 3 seeds, medium schedule — minutes, not hours.
    pub fn standard() -> Mode {
        Mode {
            seeds: 3,
            schedule: Schedule {
                moves_per_temperature: 120,
                cooling: 0.88,
                max_temperatures: 100,
                ..Schedule::default()
            },
            label: "standard (3 seeds, medium schedule)",
            jobs: 1,
            fault: FaultOptions::default(),
        }
    }

    /// Paper-protocol mode: 20 seeds, classic schedule.
    pub fn full() -> Mode {
        Mode {
            seeds: 20,
            schedule: Schedule::default(),
            label: "full (20 seeds, classic schedule)",
            jobs: 1,
            fault: FaultOptions::default(),
        }
    }

    /// Reads `--quick` / `--full` (default standard) plus `--jobs <n>`
    /// and the fault-tolerance flags `--time-limit <seconds>`,
    /// `--checkpoint <dir>`, and `--resume <dir>`.
    pub fn from_args(args: &Args) -> Mode {
        let mut mode = if args.has("--quick") {
            Mode::quick()
        } else if args.has("--full") {
            Mode::full()
        } else {
            Mode::standard()
        };
        if let Some(text) = args.value("--jobs") {
            let jobs: usize = text
                .parse()
                .unwrap_or_else(|_| die(&format!("--jobs `{text}` is not a count")));
            if jobs == 0 {
                die("--jobs must be at least 1");
            }
            mode.jobs = jobs;
        }
        mode.fault = FaultOptions {
            deadline: args.value("--time-limit").map(|text| {
                let seconds: f64 = text
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--time-limit `{text}` is not a number")));
                if !(seconds.is_finite() && seconds >= 0.0) {
                    die(&format!("--time-limit must be non-negative, got {seconds}"));
                }
                Instant::now() + Duration::from_secs_f64(seconds)
            }),
            checkpoint_dir: args.value("--checkpoint").map(leak),
            resume_dir: args.value("--resume").map(leak),
        };
        mode
    }
}

/// Every flag `repro` accepts, as the help text in `main.rs` lists it,
/// and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--full", false),
    ("--circuit", true),
    ("--jobs", true),
    ("--time-limit", true),
    ("--checkpoint", true),
    ("--resume", true),
    ("--out", true),
    ("--replicas", true),
    ("--sync-every", true),
    ("--seed0", true),
    ("--independent", false),
    ("--run-dir", true),
];

/// The command line, parsed once against [`FLAGS`].
#[derive(Debug)]
pub struct Args {
    /// The command; `all` when none is given.
    pub command: String,
    /// The flags given, with their values. A repeated flag keeps its
    /// first value.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses the arguments after the program name. A flag missing from
    /// [`FLAGS`], a value-taking flag without a value and a second
    /// command are errors; a flag's value is never the command.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut command: Option<&String> = None;
        let mut flags: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut rest = raw.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if let Some(first) = command {
                    return Err(format!(
                        "unexpected argument `{arg}` after the command `{first}`"
                    ));
                }
                command = Some(arg);
                continue;
            }
            let Some(&(name, takes_value)) = FLAGS.iter().find(|(name, _)| name == arg) else {
                return Err(format!(
                    "unknown flag `{arg}`; see the help text in the source header"
                ));
            };
            let value = if takes_value {
                match rest.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => return Err(format!("{name} needs a value")),
                }
            } else {
                None
            };
            if !flags.iter().any(|(seen, _)| *seen == name) {
                flags.push((name, value));
            }
        }
        Ok(Args {
            command: command.map_or_else(|| "all".to_owned(), Clone::clone),
            flags,
        })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The value given with `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_deref())
    }
}

/// Leaks a flag value so it can live in the `Copy` [`Mode`]; bounded by
/// the argument list, fine for a CLI process.
fn leak(text: &str) -> &'static str {
    Box::leak(text.to_owned().into_boxed_str())
}

/// Prints a usage error and exits (exit code 2, like the unknown-command
/// path in `main`).
pub fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// One seeded floorplanner run's reported fields.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The annealing seed.
    pub seed: u64,
    /// The annealer's internal (normalized) best cost — used to pick the
    /// "best" run of a batch, like the paper's cost function.
    pub anneal_cost: f64,
    pub area_mm2: f64,
    pub wire_um: f64,
    pub time_s: f64,
    /// The optimizing model's own congestion score (0 if none attached).
    pub model_cost: f64,
    /// The 10 µm judging model's score of the final floorplan.
    pub judging_cost: f64,
    /// Final evaluation (placement + segments) for follow-up scoring.
    pub eval: FloorplanEval,
}

/// The per-batch fixtures shared by every seeded run: the annealer, its
/// run control, the fault options, the judging model, and the batch's
/// `(pitch, weights)` identity for checkpoint-file naming.
struct SeedRunner {
    annealer: Annealer,
    control: RunControl,
    fault: FaultOptions,
    judging: FixedGridModel,
    pitch: Um,
    weights: Weights,
}

impl SeedRunner {
    /// One per-seed annealing run: checkpoint sink, optional resume,
    /// anneal, judge. Returns `None` (after a stderr warning) on a typed
    /// [`AnnealError`]; otherwise the outcome and the stop reason.
    ///
    /// [`AnnealError`]: irgrid::anneal::AnnealError
    fn run_seed<M: DeltaCongestion>(
        &self,
        problem: &FloorplanProblem<'_, M>,
        seed: u64,
    ) -> Option<(RunOutcome, StopReason)> {
        let circuit = problem.circuit();
        let start = Instant::now();
        let checkpoint_path = self.fault.checkpoint_dir.map(|dir| {
            let path = FaultOptions::checkpoint_file(dir, circuit, self.pitch, self.weights, seed);
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            path
        });
        let mut sink = |checkpoint: &Checkpoint<irgrid::floorplan::PolishExpr>| {
            if let Some(path) = &checkpoint_path {
                if let Err(err) = checkpoint.write_file(path) {
                    eprintln!("warning: {err}");
                }
            }
        };

        let resumed_from = self
            .fault
            .resume_dir
            .map(|dir| FaultOptions::checkpoint_file(dir, circuit, self.pitch, self.weights, seed));
        let resume =
            resumed_from
                .filter(|path| path.exists())
                .and_then(|path| match Checkpoint::read_file(&path) {
                    Ok(checkpoint) => Some(checkpoint),
                    Err(err) => {
                        eprintln!("warning: ignoring checkpoint {}: {err}", path.display());
                        None
                    }
                });
        let run = self.annealer.run(
            problem,
            seed,
            RunOptions {
                control: self.control.clone(),
                checkpoints: Some(&mut sink),
                resume,
            },
        );
        let result = match run {
            Ok(result) => result,
            Err(err) => {
                eprintln!("warning: seed {seed} on {}: {err}", circuit.name());
                return None;
            }
        };

        let time_s = start.elapsed().as_secs_f64();
        let eval = problem.evaluate(&result.best);
        let judging_cost = self
            .judging
            .evaluate(&eval.placement.chip(), &eval.segments);
        let outcome = RunOutcome {
            seed,
            anneal_cost: result.best_cost,
            area_mm2: eval.area_um2 / 1e6,
            wire_um: eval.wirelength_um,
            time_s,
            model_cost: eval.congestion,
            judging_cost,
            eval,
        };
        Some((outcome, result.stop_reason))
    }
}

/// Runs the annealing floorplanner once per seed and judges every final
/// floorplan with the 10 µm fixed-grid judging model.
///
/// The seeds run on a deterministic worker pool
/// ([`irgrid::fleet::pool`]) of `mode.jobs` workers, which runs a single
/// worker inline; each worker builds its own problem instance from the
/// same inputs, so per-seed results are bit-identical for any
/// worker count (each seeded run is self-contained) apart from
/// wall-clock `time_s`.
///
/// Honors the mode's [`FaultOptions`]: runs stop at the shared deadline
/// (outcomes after the first stopped seed are dropped), write checkpoints
/// on a cadence when a checkpoint directory is set, and resume from
/// matching checkpoint files when a resume directory is set. A failed
/// run (typed [`AnnealError`]) is reported on stderr and skipped, never
/// a panic.
///
/// [`AnnealError`]: irgrid::anneal::AnnealError
pub fn run_batch<M>(
    circuit: &Circuit,
    pitch: Um,
    weights: Weights,
    model: Option<M>,
    mode: &Mode,
) -> Vec<RunOutcome>
where
    M: DeltaCongestion + Clone + Sync,
{
    let runner = SeedRunner {
        annealer: Annealer::new(mode.schedule),
        control: mode.fault.control(),
        fault: mode.fault,
        judging: FixedGridModel::judging(),
        pitch,
        weights,
    };

    if let Err(err) = FloorplanProblem::try_new(circuit, pitch, weights, model.clone()) {
        die(&format!(
            "invalid floorplan configuration for {}: {err}",
            circuit.name()
        ));
    }
    let results = pool::run_ordered(
        mode.jobs,
        (0..mode.seeds).collect(),
        |_| FloorplanProblem::new(circuit, pitch, weights, model.clone()),
        |problem, _, seed| runner.run_seed(problem, seed),
    );
    // Every worker count keeps the seeds in order up to and including
    // the first one the deadline stopped.
    let mut outcomes = Vec::new();
    for (outcome, stop) in results.into_iter().flatten() {
        let seed = outcome.seed;
        outcomes.push(outcome);
        if stop == StopReason::Deadline {
            eprintln!(
                "time limit reached during seed {seed} on {}; skipping remaining seeds",
                circuit.name()
            );
            break;
        }
    }
    outcomes
}

/// The paper's "average results" row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub area_mm2: f64,
    pub wire_um: f64,
    pub time_s: f64,
    pub model_cost: f64,
    pub judging_cost: f64,
}

/// Average and best (by annealing cost) rows of a batch.
pub fn aggregate(outcomes: &[RunOutcome]) -> (Row, Row) {
    assert!(!outcomes.is_empty(), "need at least one run");
    let n = outcomes.len() as f64;
    let avg = Row {
        area_mm2: outcomes.iter().map(|o| o.area_mm2).sum::<f64>() / n,
        wire_um: outcomes.iter().map(|o| o.wire_um).sum::<f64>() / n,
        time_s: outcomes.iter().map(|o| o.time_s).sum::<f64>() / n,
        model_cost: outcomes.iter().map(|o| o.model_cost).sum::<f64>() / n,
        judging_cost: outcomes.iter().map(|o| o.judging_cost).sum::<f64>() / n,
    };
    let best_run = outcomes
        .iter()
        .min_by(|a, b| a.anneal_cost.total_cmp(&b.anneal_cost))
        .expect("non-empty");
    let best = Row {
        area_mm2: best_run.area_mm2,
        wire_um: best_run.wire_um,
        time_s: best_run.time_s,
        model_cost: best_run.model_cost,
        judging_cost: best_run.judging_cost,
    };
    (avg, best)
}

/// Percentage improvement of `new` over `old` (positive = better/lower).
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    100.0 * (old - new) / old
}

/// Prints a section header.
pub fn header(title: &str, mode: &Mode) {
    println!("\n=== {title} ===");
    println!("mode: {}", mode.label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use irgrid::congestion::IrregularGridModel;
    use irgrid::netlist::generator::CircuitGenerator;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn mode_flag_parsing() {
        let args = |v: &[&str]| parse(v).expect("known flags");
        assert_eq!(
            Mode::from_args(&args(&["--quick"])).seeds,
            Mode::quick().seeds
        );
        assert_eq!(Mode::from_args(&args(&["--full"])).seeds, 20);
        assert_eq!(
            Mode::from_args(&args(&["table1"])).seeds,
            Mode::standard().seeds
        );
        assert_eq!(Mode::from_args(&args(&["table1"])).jobs, 1);
        assert_eq!(Mode::from_args(&args(&["--quick", "--jobs", "4"])).jobs, 4);
    }

    #[test]
    fn an_unknown_flag_is_refused() {
        let err = parse(&["figure8", "--no-such-flag"]).unwrap_err();
        assert!(err.contains("unknown flag `--no-such-flag`"), "{err}");
    }

    #[test]
    fn a_removed_flag_is_refused() {
        // The flags of the removed daemon smoke command.
        for removed in ["--clients", "--steps", "--chaos"] {
            let err = parse(&["fleet", "--quick", removed]).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{removed}`")), "{err}");
        }
    }

    #[test]
    fn a_flag_value_is_never_the_command() {
        let args = parse(&["--jobs", "2", "figure8"]).expect("known flags");
        assert_eq!(args.command, "figure8");
        assert_eq!(args.value("--jobs"), Some("2"));
        assert_eq!(parse(&["--out", "figure8"]).expect("parses").command, "all");
        assert!(parse(&["table1", "--quick", "figure8"]).is_err());
        assert!(parse(&["table1", "--jobs"]).is_err());
    }

    #[test]
    fn parallel_batch_matches_sequential_results() {
        let circuit = CircuitGenerator::new("par", 6, 10)
            .seed(2)
            .generate()
            .expect("valid");
        let sequential = Mode {
            seeds: 3,
            schedule: irgrid::anneal::Schedule::quick(),
            label: "test",
            jobs: 1,
            fault: FaultOptions::default(),
        };
        let parallel = Mode {
            jobs: 3,
            ..sequential
        };
        let a = run_batch(
            &circuit,
            Um(30),
            Weights::area_wire(),
            None::<IrregularGridModel>,
            &sequential,
        );
        let b = run_batch(
            &circuit,
            Um(30),
            Weights::area_wire(),
            None::<IrregularGridModel>,
            &parallel,
        );
        assert_eq!(a.len(), b.len());
        for (s, p) in a.iter().zip(&b) {
            assert_eq!(s.seed, p.seed);
            assert_eq!(s.anneal_cost.to_bits(), p.anneal_cost.to_bits());
            assert_eq!(s.judging_cost.to_bits(), p.judging_cost.to_bits());
            assert_eq!(s.area_mm2.to_bits(), p.area_mm2.to_bits());
            assert_eq!(s.wire_um.to_bits(), p.wire_um.to_bits());
        }
    }

    #[test]
    fn an_expired_deadline_keeps_seed_zero_for_any_worker_count() {
        // Every seed stops at once; each worker count keeps the seeds in
        // order up to and including the first stopped one.
        let circuit = CircuitGenerator::new("late", 6, 10)
            .seed(4)
            .generate()
            .expect("valid");
        for jobs in [1, 3] {
            let mode = Mode {
                seeds: 3,
                schedule: irgrid::anneal::Schedule::quick(),
                label: "test",
                jobs,
                fault: FaultOptions {
                    deadline: Some(Instant::now()),
                    ..FaultOptions::default()
                },
            };
            let outcomes = run_batch(
                &circuit,
                Um(30),
                Weights::area_wire(),
                None::<IrregularGridModel>,
                &mode,
            );
            let seeds: Vec<u64> = outcomes.iter().map(|o| o.seed).collect();
            assert_eq!(seeds, [0], "jobs {jobs}");
        }
    }

    #[test]
    fn improvement_pct_signs() {
        assert!((improvement_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
        assert!((improvement_pct(2.0, 3.0) + 50.0).abs() < 1e-12);
        assert_eq!(improvement_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn aggregate_averages_and_picks_best() {
        let circuit = CircuitGenerator::new("agg", 6, 10)
            .seed(1)
            .generate()
            .expect("valid");
        let mode = Mode {
            seeds: 3,
            schedule: irgrid::anneal::Schedule::quick(),
            label: "test",
            jobs: 1,
            fault: FaultOptions::default(),
        };
        let outcomes = run_batch(
            &circuit,
            Um(30),
            Weights::area_wire(),
            None::<IrregularGridModel>,
            &mode,
        );
        assert_eq!(outcomes.len(), 3);
        let (avg, best) = aggregate(&outcomes);
        let min_cost = outcomes
            .iter()
            .map(|o| o.anneal_cost)
            .fold(f64::MAX, f64::min);
        let best_run = outcomes
            .iter()
            .find(|o| o.anneal_cost == min_cost)
            .expect("non-empty");
        assert_eq!(best.area_mm2, best_run.area_mm2);
        let manual_avg: f64 =
            outcomes.iter().map(|o| o.area_mm2).sum::<f64>() / outcomes.len() as f64;
        assert!((avg.area_mm2 - manual_avg).abs() < 1e-12);
        // Every outcome carries a judged cost.
        assert!(outcomes.iter().all(|o| o.judging_cost >= 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn aggregate_rejects_empty() {
        let _ = aggregate(&[]);
    }
}
