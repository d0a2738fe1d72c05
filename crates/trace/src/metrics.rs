//! Prometheus-style text metrics: atomic histograms plus exposition-format
//! rendering helpers.
//!
//! These are always compiled (no feature gate): metric updates sit on
//! per-job paths, not per-kernel paths, and the service's `metrics` op
//! must answer even in builds without the span collector.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-bucket latency histogram, safe to observe from many threads.
///
/// Values are in seconds; the running sum is kept in integer microseconds
/// so concurrent observes need no compare-and-swap loop.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// A point-in-time copy of a [`Histogram`], with *cumulative* bucket
/// counts as the Prometheus exposition format expects.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds (seconds) of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Cumulative count of observations `<=` each bound.
    pub cumulative: Vec<u64>,
    /// Total observations (the implicit `+Inf` bucket).
    pub count: u64,
    /// Sum of all observed values, in seconds.
    pub sum_seconds: f64,
}

impl Histogram {
    /// A histogram with the given ascending finite bucket bounds (in
    /// seconds). An implicit `+Inf` bucket catches the tail.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Default bounds for service latencies: 100µs to 10s, roughly
    /// logarithmic.
    pub fn latency_default() -> Self {
        Self::new(&[
            0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
            2.5, 5.0, 10.0,
        ])
    }

    /// Records one observation (in seconds; negative values clamp to 0).
    pub fn observe(&self, seconds: f64) {
        let v = seconds.max(0.0);
        // Non-cumulative per-bucket counts internally; snapshot cumulates.
        if let Some(i) = self.bounds.iter().position(|&b| v <= b) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((v * 1e6).round() as u64, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state with cumulative bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        let mut running = 0u64;
        for b in &self.buckets {
            running += b.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            cumulative,
            count: self.count.load(Ordering::Relaxed),
            sum_seconds: self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// Process-global counters for the incremental-resimulation machinery:
/// support-pruned rounds, dirty-cone resim, and in-place class refinement.
///
/// The engine increments these on per-round paths (never per kernel), and
/// the service's `metrics` op renders them next to the launch profile, so
/// a fleet exposes how much simulation work incrementality is saving.
#[derive(Debug, Default)]
pub struct SimCounters {
    /// Support-pruned simulation rounds (G refinement rounds and L phases
    /// that simulated only live cones instead of the whole miter).
    pub pruned_rounds: AtomicU64,
    /// Nodes outside the live cone that pruned rounds never launched
    /// (the saving relative to full resimulation).
    pub pruned_nodes_skipped: AtomicU64,
    /// Nodes whose signature words were memoized across a miter rewrite
    /// by the dirty-cone resimulator (one copy launch, no re-evaluation).
    pub resim_clean_nodes: AtomicU64,
    /// Nodes re-launched as the dirty frontier (TFO of merged nodes).
    pub resim_dirty_nodes: AtomicU64,
    /// Equivalence classes split in place by fresh-pattern refinement,
    /// instead of rebucketing every node from scratch.
    pub classes_refined: AtomicU64,
    /// Signature-column levels retired from device residency to host
    /// staging because the table exceeded its memory budget.
    pub window_spills: AtomicU64,
    /// Signature words those retirements moved out of device residency.
    pub window_spilled_words: AtomicU64,
}

impl SimCounters {
    /// Relaxed add on one counter field.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed load of one counter field.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// Number of proof-engine slots in [`ProveCounters`]. The `trace` crate
/// cannot name the engines (they live above it in the crate graph), so the
/// prover maps each engine kind to a fixed slot and the service renders
/// the slot back to its label.
pub const PROVE_ENGINE_SLOTS: usize = 8;

/// Process-global per-engine counters for the adaptive proving dispatcher:
/// which engine won each class, which attempts lost or were cancelled by a
/// faster rival, and the wall time each engine consumed (winners *and*
/// losers — the difficulty model charges both).
///
/// Indexed by engine slot (see [`PROVE_ENGINE_SLOTS`]); the service's
/// `metrics` op renders these as `parsweep_prove_engine_*` with an
/// `engine` label.
#[derive(Debug)]
pub struct ProveCounters {
    /// Attempts that produced the winning verdict, per engine slot.
    pub wins: [AtomicU64; PROVE_ENGINE_SLOTS],
    /// Attempts that ran to completion without deciding (lost), per slot.
    pub losses: [AtomicU64; PROVE_ENGINE_SLOTS],
    /// Attempts cancelled at a poll point (a rival decided first, or the
    /// budget tripped), per slot.
    pub cancelled: [AtomicU64; PROVE_ENGINE_SLOTS],
    /// Attempts skipped by admissibility or routing, per slot.
    pub skipped: [AtomicU64; PROVE_ENGINE_SLOTS],
    /// Total wall time charged to each engine, in integer microseconds.
    pub elapsed_micros: [AtomicU64; PROVE_ENGINE_SLOTS],
}

/// The process-global [`ProveCounters`] instance.
pub fn prove_counters() -> &'static ProveCounters {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static COUNTERS: ProveCounters = ProveCounters {
        wins: [ZERO; PROVE_ENGINE_SLOTS],
        losses: [ZERO; PROVE_ENGINE_SLOTS],
        cancelled: [ZERO; PROVE_ENGINE_SLOTS],
        skipped: [ZERO; PROVE_ENGINE_SLOTS],
        elapsed_micros: [ZERO; PROVE_ENGINE_SLOTS],
    };
    &COUNTERS
}

/// The process-global [`SimCounters`] instance.
pub fn sim_counters() -> &'static SimCounters {
    static COUNTERS: SimCounters = SimCounters {
        pruned_rounds: AtomicU64::new(0),
        pruned_nodes_skipped: AtomicU64::new(0),
        resim_clean_nodes: AtomicU64::new(0),
        resim_dirty_nodes: AtomicU64::new(0),
        classes_refined: AtomicU64::new(0),
        window_spills: AtomicU64::new(0),
        window_spilled_words: AtomicU64::new(0),
    };
    &COUNTERS
}

/// Formats a number the way Prometheus expects: integral values without a
/// trailing `.0`, everything else in plain decimal.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Appends a `counter` metric in exposition format.
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Appends a labeled `counter` family in exposition format: one `# HELP` /
/// `# TYPE` header, then one `name{labels} value` series per entry.
/// Entries whose value is zero are still rendered, so scrapes see a stable
/// series set. Label values must not contain `"` or `\`.
pub fn render_labeled_counter(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: &[(&str, u64)],
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
    for (value, count) in series {
        out.push_str(&format!("{name}{{{label}=\"{value}\"}} {count}\n"));
    }
}

/// Appends a `gauge` metric in exposition format.
pub fn render_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
        fmt_value(value)
    ));
}

/// Appends a `histogram` metric (cumulative `_bucket` series plus `_sum`
/// and `_count`) in exposition format.
pub fn render_histogram(out: &mut String, name: &str, help: &str, snap: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (bound, cum) in snap.bounds.iter().zip(&snap.cumulative) {
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cum}\n",
            fmt_value(*bound)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        snap.count,
        fmt_value(snap.sum_seconds),
        snap.count
    ));
}

/// Appends a labeled `gauge` family in exposition format: one `# HELP` /
/// `# TYPE` header, then one `name{labels} value` series per entry.
/// Label values must not contain `"` or `\`.
pub fn render_labeled_gauge(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: &[(&str, f64)],
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    for (value, v) in series {
        out.push_str(&format!(
            "{name}{{{label}=\"{value}\"}} {}\n",
            fmt_value(*v)
        ));
    }
}

/// Appends a labeled `histogram` family in exposition format: one
/// `# HELP` / `# TYPE` header, then each snapshot's `_bucket`/`_sum`/
/// `_count` series tagged with its label value (e.g. per-lane latency).
/// Label values must not contain `"` or `\`.
pub fn render_labeled_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: &[(&str, HistogramSnapshot)],
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    for (value, snap) in series {
        for (bound, cum) in snap.bounds.iter().zip(&snap.cumulative) {
            out.push_str(&format!(
                "{name}_bucket{{{label}=\"{value}\",le=\"{}\"}} {cum}\n",
                fmt_value(*bound)
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {}\n\
             {name}_sum{{{label}=\"{value}\"}} {}\n\
             {name}_count{{{label}=\"{value}\"}} {}\n",
            snap.count,
            fmt_value(snap.sum_seconds),
            snap.count
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cumulate() {
        let h = Histogram::new(&[0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.005);
        h.observe(0.005);
        h.observe(5.0); // tail: +Inf only
        let s = h.snapshot();
        assert_eq!(s.cumulative, vec![1, 3, 3]);
        assert_eq!(s.count, 4);
        assert!((s.sum_seconds - 5.0105).abs() < 1e-6);
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = Histogram::latency_default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        h.observe(0.002);
                    }
                });
            }
        });
        assert_eq!(h.count(), 400);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[0.1, 0.01]);
    }

    #[test]
    fn labeled_counter_renders_every_series() {
        let mut out = String::new();
        render_labeled_counter(
            &mut out,
            "parsweep_prove_engine_wins_total",
            "Wins per engine.",
            "engine",
            &[("structural", 2), ("sat_sweep", 0)],
        );
        assert!(out.contains("# TYPE parsweep_prove_engine_wins_total counter"));
        assert!(out.contains("parsweep_prove_engine_wins_total{engine=\"structural\"} 2"));
        assert!(
            out.contains("parsweep_prove_engine_wins_total{engine=\"sat_sweep\"} 0"),
            "zero series still rendered"
        );
        for line in out.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn labeled_histogram_renders_per_label_series() {
        let fast = Histogram::new(&[0.01, 0.1]);
        fast.observe(0.005);
        let slow = Histogram::new(&[0.01, 0.1]);
        slow.observe(0.5);
        let mut out = String::new();
        render_labeled_histogram(
            &mut out,
            "parsweep_net_latency_seconds",
            "Per-lane job latency.",
            "lane",
            &[("interactive", fast.snapshot()), ("batch", slow.snapshot())],
        );
        assert_eq!(
            out.matches("# TYPE parsweep_net_latency_seconds histogram")
                .count(),
            1,
            "one family header"
        );
        assert!(
            out.contains("parsweep_net_latency_seconds_bucket{lane=\"interactive\",le=\"0.01\"} 1")
        );
        assert!(out.contains("parsweep_net_latency_seconds_bucket{lane=\"batch\",le=\"+Inf\"} 1"));
        assert!(out.contains("parsweep_net_latency_seconds_count{lane=\"batch\"} 1"));
        for line in out.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn prove_counters_slots_are_independent() {
        let c = prove_counters();
        let before = SimCounters::get(&c.wins[7]);
        SimCounters::add(&c.wins[7], 3);
        assert_eq!(SimCounters::get(&c.wins[7]), before + 3);
        // Other arrays and slots are untouched by the add above.
        let _ = SimCounters::get(&c.losses[7]);
    }

    #[test]
    fn exposition_format_shape() {
        let mut out = String::new();
        render_counter(&mut out, "parsweep_jobs", "Jobs.", 3);
        render_gauge(&mut out, "parsweep_util", "Busy fraction.", 0.5);
        let h = Histogram::new(&[0.01, 0.1]);
        h.observe(0.05);
        render_histogram(&mut out, "parsweep_wait_seconds", "Wait.", &h.snapshot());
        assert!(out.contains("# TYPE parsweep_jobs counter"));
        assert!(out.contains("parsweep_jobs 3"));
        assert!(out.contains("parsweep_util 0.5"));
        assert!(out.contains("parsweep_wait_seconds_bucket{le=\"0.01\"} 0"));
        assert!(out.contains("parsweep_wait_seconds_bucket{le=\"0.1\"} 1"));
        assert!(out.contains("parsweep_wait_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("parsweep_wait_seconds_count 1"));
        // Every line is either a comment or `name{labels} value`.
        for line in out.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }
}
