//! Engine statistics and phase timing (feeds the Fig. 6 breakdown).

use std::fmt;

/// Wall-clock seconds spent in each phase type of the engine flow.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// PO checking phase (P).
    pub po: f64,
    /// Global function checking phase (G), including EC initialization.
    pub global: f64,
    /// Local function checking phases (L): cut generation + checking.
    pub local: f64,
    /// Everything else (simulation for refinement, reduction, bookkeeping),
    /// recorded as the *signed* residual `seconds - (po + global + local)`.
    /// A small negative value means the per-phase timers over-covered the
    /// total (timer skew) — it is reported rather than clamped to zero so
    /// the breakdown always sums to the measured wall time.
    pub other: f64,
}

impl PhaseTimes {
    /// Total time across phases.
    pub fn total(&self) -> f64 {
        self.po + self.global + self.local + self.other
    }

    /// Percentages `(po, global, local, other)` of the total.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            100.0 * self.po / t,
            100.0 * self.global / t,
            100.0 * self.local / t,
            100.0 * self.other / t,
        )
    }
}

/// Renders seconds as signed milliseconds (`12.3ms`, `-0.4ms`).
///
/// `other` is a *signed* residual: formatting must go through the float
/// formatter (which carries the sign), never through an unsigned integer
/// conversion — `(x * 1000.0) as u64` silently saturates a negative
/// residual to `0` and `as i64`-then-`u64` round trips wrap it into
/// astronomical garbage in the breakdown table.
fn fmt_ms(seconds: f64) -> String {
    format!("{:.1}ms", seconds * 1000.0)
}

impl fmt::Display for PhaseTimes {
    /// The phase breakdown as a one-line table in milliseconds. A
    /// negative `other` residual (phase timers over-covering the total)
    /// renders with an explicit minus sign, e.g. `other -0.3ms`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P {} | G {} | L {} | other {}",
            fmt_ms(self.po),
            fmt_ms(self.global),
            fmt_ms(self.local),
            fmt_ms(self.other)
        )
    }
}

/// Counters and timings of one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// AND gates in the input miter.
    pub initial_ands: usize,
    /// AND gates in the reduced miter.
    pub final_ands: usize,
    /// POs proved constant zero by the P phase.
    pub pos_proved: usize,
    /// Candidate pairs proved equivalent (global + local).
    pub proved_pairs: u64,
    /// Candidate pairs disproved with counter-examples (global checking).
    pub disproved_pairs: u64,
    /// (pair, cut) checks that were inconclusive in local checking.
    pub inconclusive_checks: u64,
    /// Local checking phases executed.
    pub local_phases: u32,
    /// Total node-words simulated by the exhaustive simulator.
    pub sim_words: u64,
    /// Support-pruned partial-simulation rounds: G refinement rounds and
    /// L phases that simulated only the live cones instead of every node.
    pub pruned_sim_rounds: u32,
    /// Equivalence classes split in place by fresh-pattern refinement
    /// (instead of rebucketing every node from scratch each round).
    pub classes_refined: u64,
    /// Nodes whose signature words were carried across a miter rewrite by
    /// the dirty-cone resimulator (memoized in one copy launch).
    pub resim_clean_nodes: u64,
    /// Nodes re-launched by the dirty-cone resimulator (the TFO of merged
    /// nodes).
    pub resim_dirty_nodes: u64,
    /// Common cuts generated for local checking.
    pub common_cuts: u64,
    /// Per-phase wall-clock breakdown.
    pub phase_times: PhaseTimes,
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// True if the run was cut short by a
    /// [`CancelToken`](parsweep_par::CancelToken) (deadline or explicit
    /// cancellation); the verdict is then partial: `Undecided` unless the
    /// work finished before the trip was observed.
    pub cancelled: bool,
}

impl EngineStats {
    /// Percentage reduction in miter size (the paper's "Reduced (%)").
    pub fn reduction_pct(&self) -> f64 {
        if self.initial_ands == 0 {
            100.0
        } else {
            100.0 * (self.initial_ands - self.final_ands) as f64 / self.initial_ands as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_percentage() {
        let s = EngineStats {
            initial_ands: 200,
            final_ands: 50,
            ..Default::default()
        };
        assert!((s.reduction_pct() - 75.0).abs() < 1e-9);
        let full = EngineStats {
            initial_ands: 10,
            final_ands: 0,
            ..Default::default()
        };
        assert_eq!(full.reduction_pct(), 100.0);
    }

    #[test]
    fn negative_residual_renders_signed_ms() {
        let t = PhaseTimes {
            po: 0.0012,
            global: 0.0100,
            local: 0.0024,
            other: -0.0003,
        };
        let text = t.to_string();
        assert_eq!(text, "P 1.2ms | G 10.0ms | L 2.4ms | other -0.3ms");
        // The failure mode this guards against: unsigned conversion of a
        // negative residual wrapping into garbage.
        assert!(!text.contains("18446744"), "wrapped u64 leaked: {text}");
    }

    #[test]
    fn phase_percentages_sum_to_100() {
        let t = PhaseTimes {
            po: 1.0,
            global: 2.0,
            local: 5.0,
            other: 2.0,
        };
        let (a, b, c, d) = t.percentages();
        assert!((a + b + c + d - 100.0).abs() < 1e-9);
        assert_eq!(PhaseTimes::default().percentages(), (0.0, 0.0, 0.0, 0.0));
    }
}
