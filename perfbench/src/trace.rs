//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer's origin), its
//! parent span and the op it belongs to. A layer's self time is its
//! span's duration minus the time its child spans cover. Spans stay in
//! memory and are written out as JSONL once the run is over.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

/// Collects spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    ops: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            ops: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as op `op`, inside a root span named `name`.
    pub fn op<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op = op;
        self.ops += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Ops traced so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time per span name, in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        w.flush()
    }
}

/// Cost of one empty span in ns, measured on a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    t.op(0, "calibrate", |t| {
        for _ in 0..N {
            t.span("empty", |_| ());
        }
    });
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.op(1, "op", |t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(3))
                });
            });
        });
        let selfs = t.self_times();
        assert!(selfs["inner"] >= 3_000_000);
        assert!(selfs["outer"] < selfs["inner"]);
        assert_eq!(t.ops(), 1);
        assert_eq!(t.len(), 3);
    }
}
