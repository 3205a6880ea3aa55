//! Named metrics with units, and the JSON shapes a run emits.

use serde::Value;

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or a non-finite value — both bugs in the
    /// benchmark, never in the program measured.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("value".into(), Value::Float(*value)),
                            ("unit".into(), Value::Str((*unit).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Operations attempted: SA moves, served requests and map builds. None
/// is counted as failed: a failed operation fails a gate, which ends the
/// run before any metric is printed, so a reported run failed none.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
}

impl Ops {
    /// Counts `count` successful operations.
    pub fn ok(&mut self, count: usize) {
        self.attempted += count as u64;
    }
}

/// Everything one workload run measures: op tallies, the end-to-end
/// metrics, the layer metrics (traced runs only) and informational
/// fields that are not metrics.
#[derive(Debug, Default)]
pub struct Record {
    /// Operation tallies.
    pub ops: Ops,
    /// End-to-end metrics, measured untraced.
    pub e2e: Metrics,
    /// Per-layer metrics, from the traced replays.
    pub layers: Metrics,
    /// Context a reader needs but no comparison uses.
    pub info: Vec<(String, Value)>,
}

impl Record {
    /// Records an informational field.
    pub fn info(&mut self, key: impl Into<String>, value: Value) {
        self.info.push((key.into(), value));
    }
}

/// The object a run prints as its last line: `correct`, `attempted`,
/// `failed` and `metrics`, nothing else.
#[must_use]
pub fn result_line(ops: Ops, metrics: Value) -> Value {
    Value::Map(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::UInt(ops.attempted)),
        ("failed".into(), Value::UInt(0)),
        ("metrics".into(), metrics),
    ])
}

/// A parsed JSON number as `f64`.
#[must_use]
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(v) => Some(*v),
        Value::Int(v) => Some(*v as f64),
        Value::UInt(v) => Some(*v as f64),
        _ => None,
    }
}
