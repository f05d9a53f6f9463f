//! In-memory span recording around calls into the library's layers.
//!
//! A span is one call into a layer's public function, named
//! `<layer>.<function>` (e.g. `core.streaming.advance_epoch`), with its
//! start, end, the span that caused it and the operation (epoch, query
//! or refresh) it belongs to. Spans are kept in memory while the
//! workload runs and written out once at the end, so recording costs a
//! clock read and a `Vec` push per boundary. With tracing off,
//! [`Tracer::span`] only calls the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<u32>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
            op: Cell::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id later spans are tagged with.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = self.current.get();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            (spans.len() - 1) as u32
        };
        self.current.set(Some(id));
        let out = f();
        self.spans.borrow_mut()[id as usize].end_ns = self.now_ns();
        self.current.set(parent);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Durations (ms) of every span called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// The layer a span belongs to: its name without the function suffix.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Total self time per layer, in ms: each span's duration minus the
/// part its children cover (children of one span never overlap — each
/// workload thread records sequentially).
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        *out.entry(layer_of(s.name).to_string()).or_insert(0.0) +=
            s.dur_ns().saturating_sub(*c) as f64 / 1e6;
    }
    out
}

/// Nanoseconds one span costs to record, measured on a scratch tracer
/// with empty spans (the clock reads, the push and the end update).
pub fn record_cost_ns() -> f64 {
    const N: usize = 200_000;
    let t = Tracer::new(true, Instant::now());
    t.spans.borrow_mut().reserve(N);
    let start = Instant::now();
    for _ in 0..N {
        t.span("bench.calibrate", || std::hint::black_box(0u64));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Writes spans as JSON lines (one object per span).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
