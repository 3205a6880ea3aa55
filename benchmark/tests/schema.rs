//! Runs every declared workload in `--quick` mode, untraced and traced,
//! and checks that each prints exactly the metrics `BENCHMARK.json`
//! declares, with the declared units — so the schema and the binary
//! cannot drift apart.

use std::path::Path;
use std::process::Command;

use serde::Value;

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    match value.get(key) {
        Some(Value::Str(text)) => text,
        other => panic!("`{key}` is {other:?}"),
    }
}

fn list<'v>(value: &'v Value, key: &str) -> &'v [Value] {
    match value.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("`{key}` is {other:?}"),
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(spec: &Value, kind: &str) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = list(spec, kind)
        .iter()
        .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
        .collect();
    metrics.sort();
    metrics
}

/// The last stdout line of a quick run: the result object.
fn quick_run(workload: &str, trace: bool) -> Value {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("schema-{workload}.jsonl"));
    let output = Command::new(env!("CARGO_BIN_EXE_irgrid-benchmark"))
        .args(["run", "--quick", "--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("the run prints a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

#[test]
fn quick_runs_print_exactly_the_declared_metrics() {
    let spec = spec();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for workload in list(&spec, "workloads") {
        let workload = text(workload, "name");
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let result = quick_run(workload, trace);
            let Value::Map(fields) = &result else {
                panic!("result is {result:?}");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(matches!(
                result.get("failed"),
                Some(Value::Int(0) | Value::UInt(0))
            ));
            assert!(matches!(result.get("attempted"), Some(Value::Int(n)) if *n >= 1));
            let Some(Value::Map(metrics)) = result.get("metrics") else {
                panic!("no metrics in {result:?}");
            };
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(m, "unit").to_owned()))
                .collect();
            printed.sort();
            assert_eq!(
                &printed, expected,
                "{workload} (trace {trace}) metrics differ from BENCHMARK.json"
            );
            for (name, metric) in metrics {
                // End-to-end metrics are ratios' denominators: never 0.
                assert!(
                    matches!(metric.get("value"),
                        Some(Value::Float(v)) if v.is_finite() && (trace || *v != 0.0)),
                    "{workload} {name} = {metric:?}"
                );
            }
        }
    }
}

#[test]
fn end_to_end_bounds_are_within_the_allowed_range() {
    for metric in list(&spec(), "end_to_end") {
        let bound = match metric.get("bound") {
            Some(Value::Float(bound)) => *bound,
            other => panic!("bound is {other:?}"),
        };
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
    }
}
