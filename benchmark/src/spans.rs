//! The benchmark's own span recorder: one span around every call into a
//! layer, made from the benchmark's code (no timer is added inside any
//! crate). Spans stay in memory until the run ends; then they give each
//! layer's self time (duration minus what its children cover) and a Chrome
//! trace, validated and serialized by `parsweep-trace`.

use std::collections::BTreeMap;
use std::time::Instant;

use parsweep_trace::{ArgValue, Phase, TraceEvent};

struct Span {
    name: &'static str,
    /// The operation (pair or job) the span belongs to; spans of one
    /// operation share it.
    op: u64,
    start_us: u64,
    end_us: u64,
    /// Microseconds of this span covered by its direct children.
    children_us: u64,
    /// Where the latest direct child ended (the span's start before any).
    cursor_us: u64,
    parent: Option<usize>,
}

pub struct Recorder {
    /// Off: `span` only runs its closure.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op: self.op,
            start_us,
            end_us: start_us,
            children_us: 0,
            cursor_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.close(index, end_us);
        out
    }

    /// [`span`](Self::span), also returning how many seconds `f` took
    /// (measured whether or not spans are recorded).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let start = Instant::now();
        let out = self.span(name, f);
        (out, start.elapsed().as_secs_f64())
    }

    /// Records a span from a duration the callee itself returned (an
    /// engine phase, the SAT fallback): it cannot be timed from outside,
    /// so it is laid out inside the open span, after its latest child.
    pub fn reported(&mut self, name: &'static str, seconds: f64) {
        let Some(&parent) = self.open.last().filter(|_| self.enabled) else {
            return;
        };
        let start_us = self.spans[parent].cursor_us;
        // Never past the present: the parent is still open.
        let end_us = (start_us + (seconds * 1e6) as u64).min(self.now_us());
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            start_us,
            end_us: start_us,
            children_us: 0,
            cursor_us: start_us,
            parent: Some(parent),
        });
        self.close(index, end_us.max(start_us));
    }

    fn close(&mut self, index: usize, end_us: u64) {
        self.spans[index].end_us = end_us;
        if let Some(parent) = self.spans[index].parent {
            self.spans[parent].children_us += end_us - self.spans[index].start_us;
            self.spans[parent].cursor_us = end_us;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = (s.end_us - s.start_us) as f64 * 1e-6;
            let covered = (s.children_us as f64 * 1e-6).min(total);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        out
    }

    /// The spans as Chrome-trace events: begin/end pairs on one thread,
    /// nested, timestamps never going backwards.
    pub fn events(&self) -> Vec<TraceEvent> {
        // Spans were pushed in start order; closing an earlier span before
        // a later one begins is what keeps the stream nested.
        let mut events = Vec::with_capacity(self.spans.len() * 2);
        let mut open: Vec<usize> = Vec::new();
        let event = |s: &Span, ph: Phase| TraceEvent {
            name: s.name.to_owned(),
            cat: "benchmark",
            ph,
            ts_us: if ph == Phase::B { s.start_us } else { s.end_us },
            tid: 1,
            args: if ph == Phase::E {
                vec![("op", ArgValue::U64(s.op))]
            } else {
                Vec::new()
            },
        };
        for (i, s) in self.spans.iter().enumerate() {
            while open.last().is_some_and(|&top| Some(top) != s.parent) {
                let top = open.pop().expect("checked non-empty");
                events.push(event(&self.spans[top], Phase::E));
            }
            events.push(event(s, Phase::B));
            open.push(i);
        }
        while let Some(top) = open.pop() {
            events.push(event(&self.spans[top], Phase::E));
        }
        events
    }
}
