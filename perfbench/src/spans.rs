//! In-memory span recorder for the traced run.
//!
//! A span is a named `[start, end)` interval in nanoseconds since the
//! recorder's epoch, with the id of the span that was open on the same
//! thread when it began (its parent) and the program counts read at its
//! boundary. Spans are kept in memory and written out once, when the
//! benchmark ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 at top level.
    pub parent: u64,
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Program counts read at this span's boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// The named count, if recorded.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
}

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that closes when the returned guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        Guard {
            rec: self,
            id,
            parent,
            name,
            start: self.now(),
            counts: Vec::new(),
        }
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
                s.id,
                s.parent,
                s.name,
                s.start,
                s.end,
                counts.join(",")
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    counts: Vec<(&'static str, u64)>,
}

impl Guard<'_> {
    /// Attach a program count to this span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start: self.start,
            end,
            counts: std::mem::take(&mut self.counts),
        };
        // A poisoned recorder only loses trace data; never panic in drop.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_counts() {
        let rec = Recorder::default();
        {
            let _outer = rec.span("core.eval");
            let mut inner = rec.span("sim.run");
            inner.count("sim.cycles", 42);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "sim.run");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.count("sim.cycles"), Some(42));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
    }

    #[test]
    fn spans_on_another_thread_have_no_parent_from_this_one() {
        let rec = Recorder::default();
        let _outer = rec.span("gp.evolution");
        std::thread::scope(|s| {
            s.spawn(|| drop(rec.span("core.eval")));
        });
        assert_eq!(rec.spans()[0].parent, 0);
    }
}
