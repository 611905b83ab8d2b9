//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, id, parent, op, start, end)`; spans of one operation
//! (one request, one world run) share `op`. Recording is off in untraced
//! runs: [`Tracer::span`] then only calls the closure. Spans are written
//! out once, when the run ends, and the per-layer metrics are computed
//! from them.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer boundary, e.g. `lab.runner.execute`.
    pub name: String,
    /// Unique span id (1-based).
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to (request or world-run index).
    pub op: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id so
    /// nested calls can name it as their parent.
    pub fn span<R>(&self, name: &str, parent: u64, op: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span log poisoned").push(Span {
            name: name.to_string(),
            id,
            parent,
            op,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    /// Wall seconds that recording one span costs: the median over
    /// batches of spans around an empty closure on a fresh tracer.
    pub fn cost_per_span_s() -> f64 {
        const BATCH: u64 = 1000;
        let t = Tracer::new(true);
        let batches: Vec<f64> = (0..20)
            .map(|b| {
                let start = Instant::now();
                for i in 0..BATCH {
                    t.span("bench.calibrate", 0, b * BATCH + i, |_| ());
                }
                start.elapsed().as_secs_f64() / BATCH as f64
            })
            .collect();
        crate::median(&batches)
    }

    /// Durations (seconds) of every span named `name`, in record order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(&*spans).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }
}
