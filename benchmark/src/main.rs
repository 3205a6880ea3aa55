//! `irgrid-benchmark`: the repository's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload ami49|syn10k] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out FILE]
//! ```
//!
//! Each workload runs in a child process of its own, so its peak RSS is
//! its own. A run prints every metric by name with its unit, appends one
//! JSON record per workload to `--out`, and ends with a one-line JSON
//! result. It exits 2, printing no metric, if any correctness gate
//! fails. See `benchmark/README.md` for the workloads and metrics.

mod anneal;
mod compare;
mod gates;
mod inputs;
mod maps;
mod report;
mod serve;
mod stats;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;

use crate::anneal::Anneal;
use crate::gates::GateError;
use crate::inputs::{Input, Workload, REFERENCE_SECONDS};
use crate::maps::Maps;
use crate::report::{number, Ops, Record};
use crate::serve::{ServeTrace, Served};
use crate::trace::Tracer;

const USAGE: &str = "usage:
  irgrid-benchmark run [--workload ami49|syn10k] [--seed S] [--seconds N] [--trace [0|1]] [--quick] [--out FILE]
  irgrid-benchmark compare PARENT.jsonl CHANGE.jsonl
  irgrid-benchmark summary RUNS.jsonl";

/// Where runs write their records, traces and scratch directories.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        quick: false,
        out: results_dir().join("runs.jsonl"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |what: &str| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a {what}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value("workload name")?;
                let workload = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                options.workloads = vec![workload];
                i += 2;
            }
            "--seed" => {
                let text = value("seed")?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed `{text}` is not a whole number"))?;
                i += 2;
            }
            "--seconds" => {
                let text = value("duration")?;
                options.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{text}` is not a positive number"))?;
                i += 2;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some(flag @ ("0" | "1")) => {
                    options.trace = flag == "1";
                    i += 2;
                }
                _ => {
                    options.trace = true;
                    i += 1;
                }
            },
            "--quick" => {
                options.quick = true;
                i += 1;
            }
            "--out" => {
                options.out = PathBuf::from(value("file")?);
                i += 2;
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    let result = match command {
        "run" => parse_options(rest).and_then(|options| run(&options)),
        "child" => parse_options(rest).and_then(|options| child(&options)),
        "compare" => compare::compare(rest),
        "summary" => compare::summary(rest),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("irgrid-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, GateError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| GateError(format!("cannot read /proc/self/status: {err}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| GateError("no VmHWM line in /proc/self/status".into()))
}

/// Runs every phase of one workload in this process and returns its
/// run record.
///
/// After one untimed warm-up pass of each phase, the run times
/// `sizes.rounds` rounds; each round times one pass of every phase (and,
/// traced, replays one pass of each stage by stage), and the extra
/// set-ups for `setup_s` fall in rounds spread over the run. Every item
/// is reported from its fastest pass (see `stats`).
fn measure(workload: Workload, options: &Options) -> Result<Value, GateError> {
    let name = workload.name();
    let sizes = workload.sizes(options.quick, options.seconds);
    let seed = options.seed;
    let mut record = Record::default();
    let started = Instant::now();
    let progress = |what: &str| {
        eprintln!("[{name} {:6.1} s] {what}", started.elapsed().as_secs_f64());
    };

    progress("generating inputs");
    let input = Input::generate(workload)?;
    let input_gen_s = started.elapsed().as_secs_f64();

    progress(&format!("preparing every phase (seed {seed})"));
    let (problem, anneal_setup) = anneal::set_up(&input);
    let mut anneal_setup_s = vec![anneal_setup];
    let mut anneal = Anneal::prepare(&problem, &input, sizes, seed, &mut record)?;
    let (mut served, serve_setup) = Served::start(&input, sizes.served_moves, seed, &mut record)?;
    let mut serve_setup_s = vec![serve_setup];
    let maps = Maps::prepare(&input, &mut record)?;
    let mut traced = if options.trace {
        Some((Tracer::new(), ServeTrace::open(&input, &mut record)?))
    } else {
        None
    };

    let (mut delta_passes, mut full_passes) = (Vec::new(), Vec::new());
    let (mut suite_passes, mut irregular_passes) = (Vec::new(), Vec::new());
    for round in 0..sizes.rounds {
        progress(&format!("round {} of {}", round + 1, sizes.rounds));
        delta_passes.push(anneal.delta_pass(&mut record)?);
        full_passes.push(anneal.full_pass(&mut record)?);
        for _ in 0..sizes.maps_per_round {
            suite_passes.push(maps.suite_pass(&mut record)?);
            irregular_passes.push(vec![maps.irregular_pass(&mut record)?]);
        }
        served.pass(&mut record)?;
        if let Some((tracer, serve_trace)) = &mut traced {
            anneal.trace_pass(round, tracer, &mut record)?;
            serve_trace.pass(&input, seed, sizes.served_moves, tracer, &mut record)?;
            maps.trace_pass(tracer, &mut record);
        }
        // Set-ups 2..=n land after rounds spread evenly over the run.
        if anneal_setup_s.len() < sizes.setups
            && (round + 1) * sizes.setups >= anneal_setup_s.len() * sizes.rounds
        {
            anneal_setup_s.push(anneal::set_up(&input).1);
            serve_setup_s.push(served.time_setup(serve_setup_s.len(), &mut record)?);
        }
    }
    let delta_move_s = stats::fastest(&delta_passes);
    let full_move_s = stats::fastest(&full_passes);
    anneal.record(&delta_move_s, &full_move_s, &mut record);
    let served = served.finish(&mut record)?;
    let ms = |passes: &[Vec<f64>]| stats::fastest(passes).iter().sum::<f64>() * 1e3;
    record.e2e.put("map_suite_ms", ms(&suite_passes), "ms");
    record
        .e2e
        .put("irregular_map_ms", ms(&irregular_passes), "ms");
    record.e2e.put(
        "setup_s",
        stats::median(&anneal_setup_s) + stats::median(&serve_setup_s),
        "s",
    );
    record.e2e.put("peak_rss_mb", peak_rss_mb()?, "MiB");

    if let Some((tracer, serve_trace)) = traced {
        anneal.record_trace(&delta_move_s, &full_move_s, &tracer, &mut record);
        serve_trace.record(&served, &tracer, &mut record);
        maps.record_trace(&tracer, &mut record);
        let path = results_dir().join(format!("trace-{name}-s{seed}.json"));
        tracer
            .write(&path)
            .map_err(|err| GateError(format!("cannot write {}: {err}", path.display())))?;
        progress(&format!("spans written to {}", path.display()));
    }

    let ops = record.ops;
    let metrics = if options.trace {
        record.layers.to_value()
    } else {
        record.e2e.to_value()
    };
    Ok(Value::Map(vec![
        ("workload".into(), Value::Str(name.into())),
        ("seed".into(), Value::UInt(seed)),
        ("trace".into(), Value::Bool(options.trace)),
        ("quick".into(), Value::Bool(options.quick)),
        ("seconds".into(), Value::Float(options.seconds)),
        (
            "cpu_count".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("attempted".into(), Value::UInt(ops.attempted)),
        ("failed".into(), Value::UInt(0)),
        ("input_gen_s".into(), Value::Float(input_gen_s)),
        ("info".into(), Value::Map(record.info)),
        ("metrics".into(), metrics),
    ]))
}

/// The child process of one workload: measures it and prints its record
/// as the last line of standard output.
fn child(options: &Options) -> Result<(), String> {
    let [workload] = options.workloads[..] else {
        return Err("a child runs exactly one workload".into());
    };
    let record = measure(workload, options).map_err(|err| err.to_string())?;
    println!(
        "{}",
        serde_json::to_string(&record).map_err(|err| err.to_string())?
    );
    Ok(())
}

/// Runs each selected workload in its own child process, then reports.
fn run(options: &Options) -> Result<(), String> {
    let results = results_dir();
    std::fs::create_dir_all(&results)
        .map_err(|err| format!("cannot create {}: {err}", results.display()))?;
    let exe = std::env::current_exe().map_err(|err| format!("cannot find this binary: {err}"))?;
    let mut records = Vec::with_capacity(options.workloads.len());
    for workload in &options.workloads {
        // The child works in a scratch directory of its own: the daemon's
        // socket and state directories are relative to it.
        let scratch = results.join(format!("run-{}-{}", std::process::id(), workload.name()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch)
            .map_err(|err| format!("cannot create {}: {err}", scratch.display()))?;
        let mut command = Command::new(&exe);
        command
            .arg("child")
            .args(["--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }]);
        if options.quick {
            command.arg("--quick");
        }
        let output = command
            .current_dir(&scratch)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let _ = std::fs::remove_dir_all(&scratch);
        let output =
            output.map_err(|err| format!("cannot start the {} child: {err}", workload.name()))?;
        if !output.status.success() {
            return Err(format!(
                "workload {} failed ({}); no metrics reported",
                workload.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let record: Value = serde_json::from_str(line)
            .map_err(|err| format!("{} child printed no record: {err}", workload.name()))?;
        records.push(record);
    }

    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&options.out)
        .map_err(|err| format!("cannot open {}: {err}", options.out.display()))?;
    for record in &records {
        let line = serde_json::to_string(record).map_err(|err| err.to_string())?;
        writeln!(out, "{line}").map_err(|err| format!("{}: {err}", options.out.display()))?;
    }
    out.flush()
        .map_err(|err| format!("{}: {err}", options.out.display()))?;

    let mut ops = Ops::default();
    let mut merged = Vec::new();
    for record in &records {
        print_record(record);
        let workload = record.get("workload").and_then(string).unwrap_or_default();
        ops.attempted += record.get("attempted").and_then(number).unwrap_or(0.0) as u64;
        if let Some(Value::Map(metrics)) = record.get("metrics") {
            for (name, metric) in metrics {
                let key = if records.len() == 1 {
                    name.clone()
                } else {
                    format!("{workload}/{name}")
                };
                merged.push((key, metric.clone()));
            }
        }
    }
    println!("records appended to {}", options.out.display());
    let line = report::result_line(ops, Value::Map(merged));
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|err| err.to_string())?
    );
    Ok(())
}

fn string(value: &Value) -> Option<&str> {
    match value {
        Value::Str(text) => Some(text),
        _ => None,
    }
}

fn print_record(record: &Value) {
    let text = |key: &str| {
        serde_json::to_string(&record.get(key).cloned().unwrap_or(Value::Null)).unwrap_or_default()
    };
    println!(
        "== {} (seed {}, {} s, {}{}) ==",
        record.get("workload").and_then(string).unwrap_or("?"),
        text("seed"),
        text("seconds"),
        if record.get("trace") == Some(&Value::Bool(true)) {
            "traced"
        } else {
            "untraced"
        },
        if record.get("quick") == Some(&Value::Bool(true)) {
            ", quick"
        } else {
            ""
        },
    );
    if let Some(Value::Map(metrics)) = record.get("metrics") {
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(number).unwrap_or(f64::NAN);
            let unit = metric.get("unit").and_then(string).unwrap_or("");
            println!("  {name:<36} {value:>16.6} {unit}");
        }
    }
    println!(
        "  ops: {} attempted, {} failed; input_gen_s {}; cpu_count {}",
        text("attempted"),
        text("failed"),
        text("input_gen_s"),
        text("cpu_count"),
    );
    if let Some(Value::Map(info)) = record.get("info") {
        let fields: Vec<String> = info
            .iter()
            .map(|(key, value)| {
                format!("{key} {}", serde_json::to_string(value).unwrap_or_default())
            })
            .collect();
        println!("  info: {}", fields.join(", "));
    }
}
