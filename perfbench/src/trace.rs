//! In-memory spans, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: spans of one chunk (or one compile, one load) share
/// an `id`; `parent` names the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Groups the spans of one chunk, session, compile or load.
    pub id: u64,
    /// Layer boundary, e.g. `chunk.engine`.
    pub name: &'static str,
    /// Enclosing span's name (`None` for a root).
    pub parent: Option<&'static str>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans against one origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` and returns its duration in seconds.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) -> f64 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        let secs = span.secs();
        self.spans.push(span);
        secs
    }

    /// Runs `f` as span `name` and returns its result.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, start, Instant::now());
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Appends another tracer's spans (same origin).
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
