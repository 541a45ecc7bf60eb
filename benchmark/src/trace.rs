//! In-memory spans recorded from *outside* the product: one around
//! each public call the harness makes, kept per thread while the run is
//! in flight and written out as JSONL when it ends. Spans inside the
//! product are a later change.

use serde::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run; children name it as `parent`.
    pub id: u64,
    /// The call the span wraps (`server.submit`, `core.execute_on`, …).
    pub name: &'static str,
    /// The layer the wrapped call belongs to.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request (job) identifier shared by all spans of one request.
    pub req: Option<u64>,
}

/// A span that has started but not ended.
pub struct Open {
    /// The id the closed span will carry — pass it to children.
    pub id: u64,
    /// The request it belongs to — children carry the same.
    pub req: Option<u64>,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    parent: Option<u64>,
}

/// The run-wide span sink.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    closed: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            closed: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A buffer for the calling thread; its spans join the sink when it
    /// drops, so the hot path never takes the lock.
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            buf: Vec::new(),
        }
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .closed
            .lock()
            .expect("a tracing thread panicked")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// One thread's span buffer.
pub struct Local<'a> {
    tracer: &'a Tracer,
    buf: Vec<Span>,
}

impl Local<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64
    }

    /// Starts a span now.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
    ) -> Open {
        Open {
            // Relaxed: the id only has to be unique.
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            layer,
            start_ns: self.ns(Instant::now()),
            parent,
            req,
        }
    }

    /// Ends `open` now.
    pub fn close(&mut self, open: Open) {
        let end_ns = self.ns(Instant::now());
        self.buf.push(Span {
            id: open.id,
            name: open.name,
            layer: open.layer,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            req: open.req,
        });
    }

    /// Ends `open` at `end` and moves its start back to `start`: an
    /// open-loop request runs from its *scheduled* arrival, which is
    /// before the generator got round to opening it. Any thread's buffer
    /// may close a span another thread opened.
    pub fn close_between(&mut self, open: Open, start: Instant, end: Instant) {
        self.buf.push(Span {
            id: open.id,
            name: open.name,
            layer: open.layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: open.parent,
            req: open.req,
        });
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if let Ok(mut closed) = self.tracer.closed.lock() {
            closed.append(&mut self.buf);
        }
    }
}

/// Runs `f` inside a span when tracing is on, bare when it is off — an
/// untraced run takes no timestamps it does not need.
pub fn in_span<T>(
    local: &mut Option<Local<'_>>,
    name: &'static str,
    layer: &'static str,
    parent: Option<u64>,
    req: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match local {
        None => f(),
        Some(l) => {
            let open = l.open(name, layer, parent, req);
            let out = f();
            l.close(open);
            out
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per-layer roll-up of a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans recorded for the layer.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Rolls spans up by layer.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.layer).or_default();
        t.spans += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own[&s.id];
    }
    out
}

/// Sum of the durations of every span called `name`, nanoseconds.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
    for s in spans {
        let line = Value::Object(vec![
            ("id".into(), Value::U64(s.id)),
            ("name".into(), Value::Str(s.name.into())),
            ("layer".into(), Value::Str(s.layer.into())),
            ("start_ns".into(), Value::U64(s.start_ns)),
            ("end_ns".into(), Value::U64(s.end_ns)),
            ("parent".into(), opt(s.parent)),
            ("req".into(), opt(s.req)),
        ]);
        writeln!(out, "{}", crate::report::json_text(&line))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, layer: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(1, "harness", 0, 100, None),
            // Two overlapping children cover 10..50 once, a third 60..70;
            // a fourth pokes past the parent's end and is clipped.
            span(2, "server", 10, 40, Some(1)),
            span(3, "server", 30, 50, Some(1)),
            span(4, "runtime", 60, 70, Some(1)),
            span(5, "runtime", 95, 120, Some(1)),
            // A grandchild takes nothing from the root.
            span(6, "core", 12, 20, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10 - 5);
        assert_eq!(own[&2], 30 - 8);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&6], 8);

        let layers = layer_totals(&spans);
        assert_eq!(layers["server"].spans, 2);
        assert_eq!(layers["server"].total_ns, 50);
        assert_eq!(layers["server"].self_ns, 22 + 20);
        assert_eq!(layers["harness"].self_ns, 45);
    }

    #[test]
    fn spans_from_every_thread_reach_the_sink_with_their_parents() {
        let tracer = Tracer::default();
        let mut main = Some(tracer.local());
        let root = main.as_mut().unwrap().open("round", "harness", None, None);
        let root_id = root.id;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let tracer = &tracer;
                s.spawn(move || {
                    let mut local = Some(tracer.local());
                    let got = in_span(&mut local, "job", "server", Some(root_id), Some(t), || t);
                    assert_eq!(got, t);
                });
            }
        });
        main.as_mut().unwrap().close(root);
        drop(main);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().filter(|s| s.parent == Some(root_id)).count(),
            2
        );
        // Tracing off: the closure still runs, nothing is recorded.
        assert_eq!(in_span(&mut None, "x", "y", None, None, || 5), 5);
        assert_eq!(tracer.spans().len(), 3);
    }
}
