//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public entry points; nothing inside the program is
//! instrumented. A span has a name of the form `layer.call`, a start and
//! an end (nanoseconds since the tracer's epoch), a parent (the span that
//! was open when it began) and the id of the unit it belongs to. Spans
//! stay in memory and are written out once, when the run ends.
//!
//! With tracing off, [`Tracer::begin`] and [`Tracer::end`] only test a
//! flag, so the untraced run measures the program, not the recorder.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `kernels.forward_2d`.
    pub name: &'static str,
    /// Unit the span belongs to (frame, block, job or round).
    pub unit: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the epoch.
    pub start: u64,
    /// End, nanoseconds since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer prefix of the name (`kernels` for `kernels.forward_2d`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (an index, or nothing when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    unit: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder sharing `epoch` with its sibling tracers; records
    /// nothing unless `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            unit: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the unit id stamped on spans begun from now on.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let now = self.now();
            self.spans[index].end = now;
            if let Some(pos) = self.open.iter().rposition(|&i| i == index) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Busy time, self time and call count of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Time inside the layer's outermost spans.
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans of other layers.
    pub self_ns: u64,
}

/// Per-layer busy/self time over one tracer's spans.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let row = out.entry(span.layer()).or_default();
        row.calls += 1;
        row.self_ns += span.ns().saturating_sub(child_ns[i]);
        let nested_in_same_layer = span
            .parent
            .is_some_and(|p| spans[p].layer() == span.layer());
        if !nested_in_same_layer {
            row.busy_ns += span.ns();
        }
    }
    out
}

/// Total duration of the top-level spans (those without a parent).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ns)
        .sum()
}

/// Sum of the durations of spans named exactly `name`, and their count.
pub fn named(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

/// Writes spans as JSON lines, one object per span, tagged with the
/// recording thread's index.
pub fn write_jsonl(out: &mut impl Write, threads: &[Vec<Span>]) -> std::io::Result<()> {
    for (thread, spans) in threads.iter().enumerate() {
        for span in spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.unit, span.start, span.end
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            unit: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_of_other_layers() {
        let spans = vec![
            span("harness.job_build", None, 0, 100),
            span("lint.lint", Some(0), 10, 40),
            span("bench.check", None, 100, 130),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["harness"].busy_ns, 100);
        assert_eq!(t["harness"].self_ns, 70);
        assert_eq!(t["lint"].self_ns, 30);
        assert_eq!(t["bench"].calls, 1);
        assert_eq!(root_ns(&spans), 130);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let v = tr.span("kernels.x", || 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(true, Instant::now());
        let outer = tr.begin("bench.round");
        tr.span("asm.assemble_source", || ());
        tr.end(outer);
        tr.span("bench.check", || ());
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
