//! The benchmark's own span recorder (the program's tracing stays off).
//!
//! One [`SpanLog`] per thread, kept in memory and written at exit as
//! Chrome-trace JSON. A span's parent is the span open on the same log
//! when it starts; spans of one operation share an `op` number.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u32,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct SpanLog {
    epoch: Instant,
    thread: usize,
    op: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// `epoch` is shared by every log of a run so their timestamps line up.
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Self {
            epoch,
            thread,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next operation: spans opened from now on carry its number.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        idx
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Self time of span `idx`: its duration minus its children's.
    pub fn self_us(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::us)
            .sum();
        self.spans[idx].us() - children
    }
}

/// Microseconds spent in spans called `name`, one value per operation
/// (an operation that enters the span twice counts both).
pub fn per_op_us(logs: &[SpanLog], name: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for log in logs {
        let mut current: Option<(u32, f64)> = None;
        for s in log.spans.iter().filter(|s| s.name == name) {
            match &mut current {
                Some((op, sum)) if *op == s.op => *sum += s.us(),
                _ => {
                    out.extend(current.map(|(_, sum)| sum));
                    current = Some((s.op, s.us()));
                }
            }
        }
        out.extend(current.map(|(_, sum)| sum));
    }
    out
}

/// Self times of every span called `name`.
pub fn self_us(logs: &[SpanLog], name: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for log in logs {
        for (idx, s) in log.spans.iter().enumerate() {
            if s.name == name {
                out.push(log.self_us(idx));
            }
        }
    }
    out
}

/// The logs as Chrome `trace_event` JSON (complete events, µs).
pub fn chrome_trace(logs: &[SpanLog]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for log in logs {
        for s in &log.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                log.thread,
                s.start_ns as f64 / 1e3,
                s.us(),
                s.op,
                parent
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
