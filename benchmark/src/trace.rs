//! In-memory span recording for the traced (`--trace 1`) run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. A layer's self time is its span's duration minus the
//! time its direct child spans cover. The spans are kept in memory and
//! written out once, when the run ends.
//!
//! A traced pass replays the same items as every other pass, with the
//! same `move_id`s, so each item's split is read from its fastest pass,
//! as the untraced timings are (see `stats`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use serde::Value;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer boundary this span wraps, e.g. `floorplan.place`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The move (or request) the span belongs to; spans of one move
    /// share it.
    pub move_id: u64,
}

/// The split of one kind of item (one root span name) over its items,
/// each read from its fastest pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Distinct items (`move_id`s) under the root name.
    pub items: usize,
    /// Summed duration of each item's fastest root span, nanoseconds.
    pub total_ns: u64,
    /// Summed self time per span name within those fastest roots, the
    /// root's own included, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an open span, closed by [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(usize);

impl Tracer {
    /// Starts an empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, move_id: u64) -> Open {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            move_id,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the caller.
    pub fn end(&mut self, span: Open) {
        assert_eq!(self.open.pop(), Some(span.0), "spans closed out of order");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Runs `body` inside a span.
    pub fn span<T>(&mut self, name: &'static str, move_id: u64, body: impl FnOnce() -> T) -> T {
        let open = self.begin(name, move_id);
        let out = body();
        self.end(open);
        out
    }

    /// The split of the items under outermost spans named `root`: for
    /// each `move_id`, the root span that took least time, and the self
    /// time of every span nested in it.
    #[must_use]
    pub fn fastest(&self, root: &str) -> Breakdown {
        let duration = |span: &Span| span.end_ns - span.start_ns;
        let mut child_ns = vec![0_u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += duration(span);
            }
        }
        let mut best: BTreeMap<u64, usize> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() && span.name == root {
                let slot = best.entry(span.move_id).or_insert(index);
                if duration(span) < duration(&self.spans[*slot]) {
                    *slot = index;
                }
            }
        }
        let mut out = Breakdown {
            items: best.len(),
            ..Breakdown::default()
        };
        for &first in best.values() {
            out.total_ns += duration(&self.spans[first]);
            // Spans nest, so a root's descendants follow it up to the
            // next outermost span.
            let end = self.spans[first + 1..]
                .iter()
                .position(|span| span.parent.is_none())
                .map_or(self.spans.len(), |offset| first + 1 + offset);
            for (span, children) in self.spans[first..end].iter().zip(&child_ns[first..end]) {
                *out.self_ns.entry(span.name).or_default() +=
                    duration(span).saturating_sub(*children);
            }
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    ///
    /// # Errors
    ///
    /// The I/O error from writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|span| {
                Value::Map(vec![
                    ("name".into(), Value::Str(span.name.into())),
                    ("start_ns".into(), Value::UInt(span.start_ns)),
                    ("end_ns".into(), Value::UInt(span.end_ns)),
                    (
                        "parent".into(),
                        span.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("move_id".into(), Value::UInt(span.move_id)),
                ])
            })
            .collect();
        let text = serde_json::to_string(&Value::Seq(spans)).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

impl Breakdown {
    /// Mean self time of span `name` per item, microseconds; 0 when no
    /// such span ran.
    #[must_use]
    pub fn per_item_us(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / self.items.max(1) as f64
    }

    /// Mean root duration per item, microseconds.
    #[must_use]
    pub fn total_per_item_us(&self) -> f64 {
        self.total_ns as f64 / 1e3 / self.items.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn self_time_excludes_children_and_groups_by_root() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("move", 0);
        tracer.span("stage", 0, || sleep_ms(2));
        tracer.end(root);
        tracer.span("other", 1, || ());

        let split = tracer.fastest("move");
        assert_eq!(split.items, 1);
        assert_eq!(split.self_ns.len(), 2, "`other` has a different root");
        assert!(split.self_ns["stage"] >= 2_000_000);
        let whole = &tracer.spans[0];
        assert_eq!(split.total_ns, whole.end_ns - whole.start_ns);
        assert_eq!(
            split.self_ns["move"] + split.self_ns["stage"],
            split.total_ns,
            "self times of a tree add up to the root's duration"
        );
    }

    #[test]
    fn each_item_is_read_from_its_fastest_pass() {
        let mut tracer = Tracer::new();
        // Two passes over items 0 and 1; item 0 is slow in the first
        // pass, item 1 in the second.
        for (pass, slow) in [(0, 0), (1, 1)] {
            for item in 0..2_u64 {
                let root = tracer.begin("move", item);
                tracer.span("stage", item, || {
                    sleep_ms(if item == slow { 12 } else { 1 })
                });
                tracer.end(root);
            }
            tracer.span("between", pass, || ());
        }
        let split = tracer.fastest("move");
        assert_eq!(split.items, 2);
        assert!(split.self_ns["stage"] >= 2_000_000);
        assert!(
            split.self_ns["stage"] < 12_000_000,
            "a slow pass of an item is never chosen: {split:?}"
        );
        assert!(split.per_item_us("stage") >= 1_000.0);
        assert_eq!(split.per_item_us("absent"), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn closing_an_outer_span_first_is_a_bug() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer", 0);
        let _inner = tracer.begin("inner", 0);
        tracer.end(outer);
    }
}
