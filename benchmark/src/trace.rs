//! The traced run's span recorder. Spans are taken from outside the
//! program — around calls into each module's public functions — kept in
//! memory, and written out once when the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// In-memory spans plus the per-layer metrics read off them.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Open a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        eprintln!("[{:8.3}s] {name}", self.now_s());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_s: self.now_s(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); returns its length in
    /// seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_s = self.t0.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Time `f` as a span named `name`. Returns `f`'s result and the
    /// span's length in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f(self);
        (out, self.end(id))
    }

    /// Record a span measured elsewhere (a stage timing the library
    /// reports itself, like the SGNS sub-stages) under the open span.
    pub fn record(&mut self, name: &str, start_s: f64, seconds: f64) {
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s + seconds,
        });
    }

    /// Seconds since the tracer started (for [`Tracer::record`]).
    pub fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// Share of the traced wall time covered by top-level spans.
    pub fn coverage(&self) -> f64 {
        let total = self.now_s();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_s - s.start_s)
            .sum();
        covered / total
    }

    /// Every span as JSON (`name`, `parent`, `start_s`, `end_s`, and the
    /// self time not covered by child spans).
    pub fn spans_json(&self) -> String {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end_s - s.start_s;
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    (s.end_s - s.start_s) - child_time[i]
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}
