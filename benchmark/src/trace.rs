//! In-memory spans around the calls the harness makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (nothing inside
//! the program under test is instrumented), kept in memory, and written out
//! once when the run ends. Spans of one publication unit share a `request`
//! identifier and name the span that caused them as `parent`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, request, parent, start_ns, end_ns });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, request: u64, start: Instant) -> u32 {
        self.record(name, request, None, start, start)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end_ns = self.ns(end);
    }

    /// A position to pass to [`total_ns_since`](Self::total_ns_since).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans called `name` recorded since `mark`.
    pub fn total_ns_since(&self, mark: usize, name: &str) -> u64 {
        self.spans[mark..].iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON array (`[name, request, parent, start,
    /// end]` rows under a header object, to keep a million spans small).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"columns\": [\"name\", \"request\", \"parent\", \"start_ns\", \"end_ns\"], \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{}",
                s.name, s.request, parent, s.start_ns, s.end_ns, comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn child_spans_sum_by_name_and_point_at_their_parent() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let unit = tracer.open("unit", 7, t0);
        let mark = tracer.mark();
        tracer.record("publish", 7, Some(unit), t0, t0 + Duration::from_nanos(300));
        tracer.record("publish", 7, Some(unit), t0, t0 + Duration::from_nanos(200));
        tracer.record("drain", 7, Some(unit), t0, t0 + Duration::from_nanos(1_000));
        tracer.close(unit, t0 + Duration::from_nanos(1_500));
        assert_eq!(tracer.total_ns_since(mark, "publish"), 500);
        assert_eq!(tracer.total_ns_since(mark, "drain"), 1_000);
        assert_eq!(tracer.total_ns_since(0, "unit"), 1_500);
        assert_eq!(tracer.len(), 4);
    }
}
