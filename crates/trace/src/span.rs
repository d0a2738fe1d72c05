//! The span collector: enter/exit events with nesting, thread labels and
//! typed arguments.
//!
//! Compiled in only under the `enabled` feature; the other half of this
//! file is the zero-cost stub surface with identical signatures, so call
//! sites never mention the feature.

/// Chrome-trace event phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span begin.
    B,
    /// Span end.
    E,
    /// Instant event.
    I,
    /// Metadata (thread labels).
    M,
}

impl Phase {
    /// The single-letter Chrome-trace `ph` value.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::B => "B",
            Phase::E => "E",
            Phase::I => "I",
            Phase::M => "M",
        }
    }
}

/// A typed span/event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counters, modeled time units, widths).
    U64(u64),
    /// Floating point (seconds, rates).
    F64(f64),
    /// Free-form text (labels, verdicts).
    Str(String),
}

/// One recorded trace event. `ts_us` is microseconds since the collector's
/// process-wide epoch; `tid` is a dense per-thread id assigned at first
/// use.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event (span) name.
    pub name: String,
    /// Category, e.g. `"engine"`, `"kernel"`, `"svc"`.
    pub cat: &'static str,
    /// Begin / end / instant / metadata.
    pub ph: Phase,
    /// Microseconds since the collector epoch (monotone per thread).
    pub ts_us: u64,
    /// Dense thread id.
    pub tid: u64,
    /// Typed arguments (attached to `E` events for spans, so begin stays
    /// cheap and arguments can be computed during the span).
    pub args: Vec<(&'static str, ArgValue)>,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{ArgValue, Phase, TraceEvent};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::time::Instant;

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        static LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    fn now_us() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    }

    fn tid() -> u64 {
        TID.with(|t| *t)
    }

    fn push(event: TraceEvent) {
        EVENTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// True when recording is switched on at runtime.
    #[inline]
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Switches recording on (the collector epoch starts at the first
    /// recorded event).
    pub fn enable() {
        ACTIVE.store(true, Ordering::Relaxed);
    }

    /// Switches recording off; already-open spans still record their end
    /// events so the stream stays balanced.
    pub fn disable() {
        ACTIVE.store(false, Ordering::Relaxed);
    }

    /// Labels the current thread in the exported trace (worker and
    /// connection names). Repeat calls with the same label are free.
    pub fn set_thread_label(label: &str) {
        if !active() {
            return;
        }
        let changed = LABEL.with(|l| {
            let mut l = l.borrow_mut();
            if l.as_deref() == Some(label) {
                false
            } else {
                *l = Some(label.to_string());
                true
            }
        });
        if changed {
            push(TraceEvent {
                name: "thread_name".into(),
                cat: "__metadata",
                ph: Phase::M,
                ts_us: now_us(),
                tid: tid(),
                args: vec![("name", ArgValue::Str(label.to_string()))],
            });
        }
    }

    /// An RAII span: records a begin event at creation and an end event —
    /// carrying any arguments added during its lifetime — when dropped.
    #[must_use = "a span measures its guard's lifetime"]
    pub struct SpanGuard {
        live: bool,
        name: String,
        cat: &'static str,
        tid: u64,
        args: Vec<(&'static str, ArgValue)>,
    }

    /// Opens a span on the current thread. Inert (one atomic load) while
    /// recording is off.
    pub fn span(cat: &'static str, name: &str) -> SpanGuard {
        if !active() {
            return SpanGuard {
                live: false,
                name: String::new(),
                cat,
                tid: 0,
                args: Vec::new(),
            };
        }
        let tid = tid();
        let name = name.to_string();
        push(TraceEvent {
            name: name.clone(),
            cat,
            ph: Phase::B,
            ts_us: now_us(),
            tid,
            args: Vec::new(),
        });
        SpanGuard {
            live: true,
            name,
            cat,
            tid,
            args: Vec::new(),
        }
    }

    /// A span for one kernel launch, tagged with its width.
    pub fn kernel_span(label: &str, width: usize) -> SpanGuard {
        let mut sp = span("kernel", label);
        sp.arg_u64("width", width as u64);
        sp
    }

    impl SpanGuard {
        /// Attaches an integer argument to the span's end event.
        pub fn arg_u64(&mut self, key: &'static str, value: u64) {
            if self.live {
                self.args.push((key, ArgValue::U64(value)));
            }
        }

        /// Attaches a float argument to the span's end event.
        pub fn arg_f64(&mut self, key: &'static str, value: f64) {
            if self.live {
                self.args.push((key, ArgValue::F64(value)));
            }
        }

        /// Attaches a text argument to the span's end event.
        pub fn arg_str(&mut self, key: &'static str, value: &str) {
            if self.live {
                self.args.push((key, ArgValue::Str(value.to_string())));
            }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if !self.live {
                return;
            }
            // The end event is recorded even if tracing was disabled
            // mid-span, keeping every B matched by an E.
            push(TraceEvent {
                name: std::mem::take(&mut self.name),
                cat: self.cat,
                ph: Phase::E,
                ts_us: now_us(),
                tid: self.tid,
                args: std::mem::take(&mut self.args),
            });
        }
    }

    /// Records a zero-duration instant event with arguments.
    pub fn instant(cat: &'static str, name: &str, args: Vec<(&'static str, ArgValue)>) {
        if !active() {
            return;
        }
        push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: Phase::I,
            ts_us: now_us(),
            tid: tid(),
            args,
        });
    }

    /// Drains all recorded events (they are removed from the collector).
    pub fn take_events() -> Vec<TraceEvent> {
        std::mem::take(&mut *EVENTS.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Copies all recorded events without draining.
    pub fn snapshot_events() -> Vec<TraceEvent> {
        EVENTS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    #![allow(clippy::missing_const_for_fn)]
    use super::{ArgValue, TraceEvent};

    /// Always false: the collector is not compiled in.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn enable() {}

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn disable() {}

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn set_thread_label(_label: &str) {}

    /// Zero-sized stand-in for the real guard; all methods compile away.
    #[must_use = "a span measures its guard's lifetime"]
    pub struct SpanGuard;

    /// Returns a zero-sized guard; compiles to nothing.
    #[inline(always)]
    pub fn span(_cat: &'static str, _name: &str) -> SpanGuard {
        SpanGuard
    }

    /// Returns a zero-sized guard; compiles to nothing.
    #[inline(always)]
    pub fn kernel_span(_label: &str, _width: usize) -> SpanGuard {
        SpanGuard
    }

    impl SpanGuard {
        /// No-op without the `enabled` feature.
        #[inline(always)]
        pub fn arg_u64(&mut self, _key: &'static str, _value: u64) {}

        /// No-op without the `enabled` feature.
        #[inline(always)]
        pub fn arg_f64(&mut self, _key: &'static str, _value: f64) {}

        /// No-op without the `enabled` feature.
        #[inline(always)]
        pub fn arg_str(&mut self, _key: &'static str, _value: &str) {}
    }

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn instant(_cat: &'static str, _name: &str, _args: Vec<(&'static str, ArgValue)>) {}

    /// Always empty without the `enabled` feature.
    #[inline(always)]
    pub fn take_events() -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Always empty without the `enabled` feature.
    #[inline(always)]
    pub fn snapshot_events() -> Vec<TraceEvent> {
        Vec::new()
    }
}

pub use imp::{
    active, disable, enable, instant, kernel_span, set_thread_label, snapshot_events, span,
    take_events, SpanGuard,
};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    // The collector is process-global, so everything that records runs in
    // this one test (cargo may run tests concurrently in one process).
    #[test]
    fn spans_nest_and_balance() {
        enable();
        {
            let mut outer = span("test", "outer");
            outer.arg_u64("n", 7);
            set_thread_label("span-test-thread");
            {
                let _inner = span("test", "inner");
                instant("test", "tick", vec![("k", ArgValue::Str("v".into()))]);
            }
        }
        disable();
        let events = take_events();
        let b: Vec<_> = events.iter().filter(|e| e.ph == Phase::B).collect();
        let e: Vec<_> = events.iter().filter(|e| e.ph == Phase::E).collect();
        assert_eq!(b.len(), 2);
        assert_eq!(e.len(), 2);
        // Nesting: inner closes before outer on the same thread.
        assert_eq!(b[0].name, "outer");
        assert_eq!(b[1].name, "inner");
        assert_eq!(e[0].name, "inner");
        assert_eq!(e[1].name, "outer");
        assert_eq!(b[0].tid, e[1].tid);
        // Args ride on the end event.
        assert_eq!(e[1].args, vec![("n", ArgValue::U64(7))]);
        assert!(events.iter().any(|ev| ev.ph == Phase::I));
        assert!(events
            .iter()
            .any(|ev| ev.ph == Phase::M && ev.name == "thread_name"));
        // Timestamps are monotone per thread.
        let mut last = 0;
        for ev in events.iter().filter(|ev| ev.tid == b[0].tid) {
            assert!(ev.ts_us >= last);
            last = ev.ts_us;
        }
        // Inactive spans record nothing.
        let _ = span("test", "after-disable");
        assert!(take_events().is_empty());
    }
}
