//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's calls into each
//! crate's public functions; nothing is recorded inside the library.
//! A span's self time is its duration minus the durations of its
//! direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
struct Span {
    name: &'static str,
    /// Index of the workload item the span belongs to.
    item: usize,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    item: usize,
    open: Vec<(usize, Instant)>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            item: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, start: Instant, dur: Duration) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: nanos(start.duration_since(self.epoch)),
            dur_ns: nanos(dur),
        });
        id
    }

    /// Opens a span under the innermost open one; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = Instant::now();
        let id = self.push(name, start, Duration::ZERO);
        self.open.push((id, start));
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let (top, start) = self.open.pop().expect("close matches an open span");
        assert_eq!(top, id, "spans close innermost first");
        let dur = nanos(start.elapsed());
        self.spans[id].dur_ns = dur;
        dur
    }

    /// Opens a root span for item `item`.
    pub fn open_item(&mut self, item: usize) -> usize {
        assert!(self.open.is_empty(), "items do not nest");
        self.item = item;
        self.open(ROOT)
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Records an already measured duration (the summed observer
    /// callbacks of one engine run) as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        self.push(name, start, dur);
    }

    /// Self time per span name, in nanoseconds, and the summed
    /// duration of the item roots.
    pub fn self_times(&self) -> (BTreeMap<&'static str, u64>, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        let mut root_ns = 0;
        for (s, child) in self.spans.iter().zip(child_ns) {
            if s.name == ROOT {
                root_ns += s.dur_ns;
            }
            *by_name.entry(s.name).or_insert(0) += s.dur_ns.saturating_sub(child);
        }
        (by_name, root_ns)
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","item":{},"parent":{parent},"start_ns":{},"dur_ns":{}}}"#,
                s.name, s.item, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// Name of the span that covers one whole item; its self time is the
/// part of the item no layer span covers.
pub const ROOT: &str = "item";

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
