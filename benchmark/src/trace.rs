//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A disabled [`Tracer`] records nothing, so untraced runs — the ones
//! end-to-end metrics come from — pay only a branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span's id (0: a root span).
    pub parent: u64,
    /// The layer call, e.g. `decode` or `client.push`.
    pub name: &'static str,
    /// Which benchmark thread made the call (0: the main thread).
    pub thread: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans from every benchmark thread of one workload run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A per-thread recorder; its spans join the tracer when it drops.
    #[must_use]
    pub fn log(&self, thread: u32) -> SpanLog<'_> {
        SpanLog {
            tracer: self,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"workload\": \"{workload}\", \"name\": \"{}\", \
                 \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        }
        out.flush()
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

/// One thread's span recorder. Spans nest by call structure: a span
/// opened inside another's closure becomes its child.
pub struct SpanLog<'t> {
    tracer: &'t Tracer,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl SpanLog<'_> {
    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.tracer.enabled {
            return f(self);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.tracer.now_ns();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.tracer.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            thread: self.thread,
            start_ns,
            end_ns,
        });
        out
    }
}

impl Drop for SpanLog<'_> {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once, and a
/// child sticking out of its parent counts only inside it).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.clamp(cursor, s.end_ns);
                    let end = end.clamp(start, s.end_ns);
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per span name: (total self time in ns, number of spans).
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let by_id: BTreeMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (id, self_ns) in self_times(spans) {
        if let Some(&name) = by_id.get(&id) {
            let slot = out.entry(name).or_default();
            slot.0 += self_ns;
            slot.1 += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, 0, 100),
            // Two children overlapping on [30, 40): covered = [10, 50).
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A grandchild counts against its own parent only.
            span(4, 2, 15, 25),
            // A child sticking out past the parent's end counts to 100.
            span(5, 1, 90, 120),
            span(6, 0, 200, 210),
        ];
        let st: BTreeMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 30);
        assert_eq!(st[&6], 10);
    }

    #[test]
    fn logs_nest_and_aggregate_by_name() {
        let tracer = Tracer::new(true);
        {
            let mut log = tracer.log(3);
            log.span("outer", |log| {
                log.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                log.span("inner", |_| ());
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == outer.id && s.thread == 3));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["inner"].1, 2);
        assert!(by_name["inner"].0 >= 2_000_000);
        let total = outer.end_ns - outer.start_ns;
        assert_eq!(by_name["outer"].0 + by_name["inner"].0, total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let value = tracer.log(0).span("x", |_| 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
