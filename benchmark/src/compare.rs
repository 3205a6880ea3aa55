//! `compare` and `summary`: judging two sets of runs against the bounds
//! in `BENCHMARK.json`, and summarising one set as a baseline.
//!
//! Run files are JSON Lines, one run record per line, as `run --out`
//! appends them. Runs pair up in file order: the i-th run of A with the
//! i-th run of B, which is what alternating parent/change runs produce.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::report::number;
use crate::stats;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

fn string(value: &Value, key: &str) -> Result<String, String> {
    match value.get(key) {
        Some(Value::Str(text)) => Ok(text.clone()),
        other => Err(format!("`{key}` is {other:?}, expected a string")),
    }
}

/// The end-to-end metrics `BENCHMARK.json` declares.
///
/// # Errors
///
/// The file is missing or malformed.
pub fn declared(path: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|err| format!("{}: {err}", path.display()))?;
    let Some(Value::Seq(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{} has no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|metric| {
            Ok(Declared {
                name: string(metric, "name")?,
                unit: string(metric, "unit")?,
                lower_is_better: string(metric, "better")? == "lower",
                bound: metric
                    .get("bound")
                    .and_then(number)
                    .ok_or("a metric has no numeric bound")?,
            })
        })
        .collect()
}

fn benchmark_json() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// Run records of one file, grouped by workload (traced runs apart),
/// in file order.
fn load(path: &str) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let mut runs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (line_no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value =
            serde_json::from_str(line).map_err(|err| format!("{path}:{}: {err}", line_no + 1))?;
        let workload = string(&record, "workload")?;
        let key = match record.get("trace") {
            Some(Value::Bool(true)) => format!("{workload} (traced)"),
            _ => workload,
        };
        runs.entry(key).or_default().push(record);
    }
    Ok(runs)
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("metrics")?
                .get(metric)?
                .get("value")
                .and_then(number)
        })
        .collect()
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs and the medians differ by
    /// more than the parent's own interquartile distance — or the spread
    /// exceeds the bound but every change run beats every parent run.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the parent's median by more than the bound (or, with
    /// spread over the bound, every change run is worse than every
    /// parent run).
    Worse,
    /// The spread exceeds the bound and neither side dominates every run.
    Unresolved,
}

/// Judges change runs `b` against parent runs `a` (paired by index).
#[must_use]
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&pa, &pb)| better(pb, pa)).count();
    let [a1, a_median, a3] = stats::quartiles(a);
    let [b1, b_median, b3] = stats::quartiles(b);
    if pairs > 0
        && wins * 10 >= pairs * 9
        && better(b_median, a_median)
        && (b_median - a_median).abs() > a3 - a1
    {
        return Verdict::Improved;
    }
    let spread = ((a3 - a1) / a_median.abs()).max((b3 - b1) / b_median.abs());
    if spread > bound {
        return if b.iter().all(|&x| a.iter().all(|&y| better(x, y))) {
            Verdict::Improved
        } else if b.iter().all(|&x| a.iter().all(|&y| better(y, x))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if lower_is_better {
        (b_median - a_median) / a_median.abs()
    } else {
        (a_median - b_median) / a_median.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// `compare A B`: per workload and end-to-end metric, both sides'
/// median and quartiles, the ratio B/A with its base, pairs won, and the
/// verdict under the declared bound. Fails when any metric is worse.
///
/// # Errors
///
/// Unreadable inputs, or at least one metric judged worse.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.jsonl B.jsonl (parent runs, change runs)".into());
    };
    let metrics = declared(&benchmark_json())?;
    let a_runs = load(a_path)?;
    let b_runs = load(b_path)?;
    let mut worse = 0;
    for (workload, a) in a_runs.iter().filter(|(w, _)| !w.ends_with("(traced)")) {
        let Some(b) = b_runs.get(workload) else {
            println!("== {workload}: no runs in {b_path}");
            continue;
        };
        println!(
            "== {workload}: A = {a_path} ({} runs), B = {b_path} ({} runs), {} pairs",
            a.len(),
            b.len(),
            a.len().min(b.len())
        );
        println!(
            "  {:<22} {:>30} {:>30} {:>24} {:>6}  verdict (bound)",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base: A median)", "B wins"
        );
        for metric in &metrics {
            let (va, vb) = (values(a, &metric.name), values(b, &metric.name));
            if va.is_empty() || vb.is_empty() {
                println!("  {:<22} missing from a side", metric.name);
                continue;
            }
            let verdict = judge(&va, &vb, metric.lower_is_better, metric.bound);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            let [a1, am, a3] = stats::quartiles(&va);
            let [b1, bm, b3] = stats::quartiles(&vb);
            let better = |x: f64, y: f64| if metric.lower_is_better { x < y } else { x > y };
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|&(&pa, &pb)| better(pb, pa))
                .count();
            println!(
                "  {:<22} {:>30} {:>30} {:>24} {:>3}/{:<2}  {verdict:?} ({}%, {} is better)",
                metric.name,
                format!("{am:.4} [{a1:.4}, {a3:.4}]"),
                format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
                format!("{:.4} ({am:.4} {})", bm / am, metric.unit),
                wins,
                va.len().min(vb.len()),
                metric.bound * 100.0,
                if metric.lower_is_better {
                    "lower"
                } else {
                    "higher"
                },
            );
        }
    }
    if worse > 0 {
        return Err(format!(
            "{worse} metric(s) worse than the parent beyond their bound"
        ));
    }
    Ok(())
}

fn stats_of(values: &[f64], unit: &str) -> Value {
    let [q1, median, q3] = stats::quartiles(values);
    Value::Map(vec![
        ("median".into(), Value::Float(median)),
        ("q1".into(), Value::Float(q1)),
        ("q3".into(), Value::Float(q3)),
        ("n".into(), Value::UInt(values.len() as u64)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// `summary RUNS`: median and quartiles of every metric per workload,
/// with the runs' seeds and CPU count — the shape of
/// `benchmark/baseline.json`.
///
/// # Errors
///
/// Unreadable input.
pub fn summary(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: summary RUNS.jsonl".into());
    };
    let runs = load(path)?;
    let mut workloads = Vec::new();
    let mut cpu_count = None;
    for (workload, records) in &runs {
        let mut names: Vec<(String, String)> = Vec::new();
        for record in records {
            cpu_count = cpu_count.or_else(|| record.get("cpu_count").cloned());
            if let Some(Value::Map(metrics)) = record.get("metrics") {
                for (name, metric) in metrics {
                    if names.iter().all(|(n, _)| n != name) {
                        let unit = string(metric, "unit").unwrap_or_default();
                        names.push((name.clone(), unit));
                    }
                }
            }
        }
        let seeds: Vec<Value> = records
            .iter()
            .filter_map(|record| record.get("seed").cloned())
            .collect();
        let metrics = names
            .iter()
            .map(|(name, unit)| (name.clone(), stats_of(&values(records, name), unit)))
            .collect();
        workloads.push((
            workload.clone(),
            Value::Map(vec![
                ("runs".into(), Value::UInt(records.len() as u64)),
                ("seeds".into(), Value::Seq(seeds)),
                ("metrics".into(), Value::Map(metrics)),
            ]),
        ));
    }
    let summary = Value::Map(vec![
        ("cpu_count".into(), cpu_count.unwrap_or(Value::Null)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|err| err.to_string())?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];

    #[test]
    fn identical_sides_are_unchanged() {
        assert_eq!(judge(&TEN, &TEN, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_win_is_improved_in_either_direction() {
        let faster: Vec<f64> = TEN.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&TEN, &faster, true, 0.1), Verdict::Improved);
        assert_eq!(judge(&faster, &TEN, false, 0.1), Verdict::Improved);
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let slower: Vec<f64> = TEN.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&TEN, &slower, true, 0.1), Verdict::Worse);
        // Within the bound, a consistent small loss is still unchanged.
        let slightly: Vec<f64> = TEN.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&TEN, &slightly, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn noisy_sides_without_dominance_are_unresolved() {
        let a = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let b = [2.0, 1.0, 2.0, 1.0, 2.0, 1.0];
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::Unresolved);
        // Spread over the bound, but every change run beats every parent run.
        let a = [10.0, 14.0, 12.0, 10.0];
        let b = [5.0, 7.0, 6.0, 9.0];
        assert_eq!(judge(&a, &b, true, 0.1), Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Nine ties and one win: 1/10 pairs won, no gain to claim.
        let mut b = TEN;
        b[0] = 9.0;
        assert_eq!(judge(&TEN, &b, true, 0.1), Verdict::Unchanged);
    }
}
