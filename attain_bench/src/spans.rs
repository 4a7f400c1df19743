//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: every span here is taken
//! from outside, by timing a public call. Spans are kept in memory and
//! written out once, when the traced run ends.

use crate::shims::CallStats;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. A span that stands for many short calls (every
/// `Interposer::on_message` of a run) is recorded once, with `count`
/// calls and their summed time in `busy_ns`; its `start_ns..end_ns` then
/// brackets the first and last call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub busy_ns: u64,
}

/// The in-memory span store of one workload run.
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (the process start).
    pub fn new(workload: &'static str, origin: Instant) -> Recorder {
        Recorder {
            workload,
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that starts now.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        self.open_at(name, parent, Instant::now())
    }

    /// Opens a span that started at `start` (for a span whose beginning
    /// predates the recorder, such as `setup`).
    pub fn open_at(&mut self, name: &str, parent: Option<SpanId>, start: Instant) -> SpanId {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
            count: 1,
            busy_ns: 0,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
        span.busy_ns
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        self.time_ms(name, parent, f).0
    }

    /// As [`Recorder::time`], also returning the span's milliseconds.
    pub fn time_ms<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id) as f64 / 1e6)
    }

    /// Records the calls a timing shim observed inside `parent` as one
    /// span: their count, their summed time, and the first and last
    /// call's bracket.
    pub fn aggregate(&mut self, name: &str, parent: SpanId, calls: &CallStats) {
        let at = |t: Option<Instant>, fallback: u64| {
            t.map_or(fallback, |t| {
                t.saturating_duration_since(self.origin).as_nanos() as u64
            })
        };
        let p = &self.spans[parent.0];
        let (start_ns, end_ns) = (at(calls.first, p.start_ns), at(calls.last, p.end_ns));
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns,
            end_ns,
            count: calls.count,
            busy_ns: calls.busy_ns,
        });
    }

    /// Self time: the span's own time minus what its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self_time(&self.spans, id.0)
    }

    /// Every span as a JSON document, self times included.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"workload\": \"{}\", \"spans\": [\n", self.workload);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.0.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"count\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.count,
                span.busy_ns,
                self_time(&self.spans, i)
            );
            s.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("]}\n");
        s
    }
}

fn self_time(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(SpanId(id)))
        .map(|s| s.busy_ns)
        .sum();
    spans[id].busy_ns.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64, busy_ns: u64) -> Span {
        Span {
            name: "s".into(),
            parent: parent.map(SpanId),
            start_ns,
            end_ns,
            count: 1,
            busy_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(None, 0, 1000, 1000),
            span(Some(0), 100, 400, 300),
            // An aggregate child: many calls spread over 500..900 that
            // were busy for 250 ns in total.
            span(Some(0), 500, 900, 250),
            span(Some(1), 150, 200, 50),
        ];
        assert_eq!(self_time(&spans, 0), 450);
        assert_eq!(self_time(&spans, 1), 250);
        assert_eq!(self_time(&spans, 2), 250);
        assert_eq!(self_time(&spans, 3), 50);
    }

    #[test]
    fn self_time_never_underflows() {
        let spans = vec![span(None, 0, 10, 10), span(Some(0), 0, 20, 20)];
        assert_eq!(self_time(&spans, 0), 0);
    }

    #[test]
    fn recorder_nests_and_renders() {
        let mut rec = Recorder::new("unit", Instant::now());
        let outer = rec.open("setup", None);
        rec.time("build", Some(outer), || std::hint::black_box(1 + 1));
        let calls = CallStats {
            count: 3,
            ..CallStats::default()
        };
        rec.aggregate("calls", outer, &calls);
        assert!(rec.close(outer) >= rec.self_ns(outer));
        let json = rec.to_json();
        assert!(json.contains("\"workload\": \"unit\""));
        assert!(json.contains("\"name\": \"build\", \"parent\": 0"));
        assert!(json.contains("\"count\": 3"));
    }
}
