//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, recorded by the benchmark around a
//! public API call: name, start and end (ns since the tracer was made),
//! the span that caused it, and the request it belongs to. Spans stay in
//! memory and are written out once, when the run ends. A disabled tracer
//! records nothing, so untraced runs pay one branch per call site.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.order`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`None` when disabled). The
    /// index is valid at once, so nested calls can name it as parent.
    pub fn start(&self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn finish(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("tracer lock")[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, request);
        let out = f();
        self.finish(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// Durations (ms) of every span called `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The spans as JSON lines (one object per span).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.lock().expect("tracer lock").iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert_eq!(t.start("y", None, 0), None);
        assert!(t.spans().is_empty());
        assert!(t.render().is_empty());
    }

    #[test]
    fn enabled_tracer_records_parent_links() {
        let t = Tracer::new(true);
        let outer = t.start("outer", None, 3);
        t.span("inner", outer, 3, || std::thread::sleep(std::time::Duration::from_millis(1)));
        t.finish(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, outer);
        // The parent encloses its child.
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans[1].ms() >= 1.0);
        assert_eq!(t.durations_ms("inner").len(), 1);
        assert!(t.render().lines().all(|l| l.starts_with(r#"{"id":"#)));
    }
}
