//! Cut selection criteria (paper Table I) and the cut similarity metric.
//!
//! Three metrics are traded off: average fanout of the cut nodes (large is
//! good — classic cutpoint heuristic), cut size (small is good) and average
//! level of cut nodes (small includes more logic / fewer SDCs, but large
//! can capture local restructurings). Three passes prioritize them
//! differently to diversify the generated cuts.

use std::cmp::Ordering;

use crate::Cut;

/// Which cut generation and checking pass is running (Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Pass 1: fanout (max), then cut size (min), then level (min).
    Fanout,
    /// Pass 2: level (min), then cut size (min), then fanout (max).
    SmallLevel,
    /// Pass 3: level (max), then cut size (min), then fanout (max).
    LargeLevel,
}

impl Pass {
    /// All passes in paper order.
    pub const ALL: [Pass; 3] = [Pass::Fanout, Pass::SmallLevel, Pass::LargeLevel];
}

/// Precomputed per-node data needed to score cuts.
#[derive(Clone, Debug)]
pub struct CutScorer<'a> {
    fanouts: &'a [u32],
    levels: &'a [u32],
}

/// The metrics of one cut, used for selection ordering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutMetrics {
    /// Average fanout count over the cut leaves.
    pub avg_fanout: f64,
    /// Number of leaves.
    pub size: usize,
    /// Average level over the cut leaves.
    pub avg_level: f64,
}

impl<'a> CutScorer<'a> {
    /// Creates a scorer from the network's fanout counts and levels
    /// (indexed by variable).
    pub fn new(fanouts: &'a [u32], levels: &'a [u32]) -> Self {
        CutScorer { fanouts, levels }
    }

    /// Computes the metrics of a cut.
    pub fn metrics(&self, cut: &Cut) -> CutMetrics {
        let n = cut.len().max(1) as f64;
        let mut fanout = 0.0;
        let mut level = 0.0;
        for v in cut.iter() {
            fanout += self.fanouts[v.index()] as f64;
            level += self.levels[v.index()] as f64;
        }
        CutMetrics {
            avg_fanout: fanout / n,
            size: cut.len(),
            avg_level: level / n,
        }
    }

    /// Compares two cuts under a pass's criteria; `Ordering::Less` means
    /// `a` is *better* than `b` (sort ascending, best first).
    ///
    /// This is the reference order: it recomputes both cuts' metrics on
    /// every call. Selection ([`crate::select_priority_cuts`]) scores each
    /// candidate once and compares the stored keys in the same order.
    pub fn compare(&self, a: &Cut, b: &Cut, pass: Pass) -> Ordering {
        pass.order(&self.metrics(a), &self.metrics(b))
            // Final deterministic tie-breaker: leaf lists.
            .then_with(|| a.leaves().cmp(b.leaves()))
    }

    /// The selection key of a cut: its similarity to `repr_cuts` (0 when
    /// there are none) and its metrics.
    pub(crate) fn key(&self, cut: &Cut, repr_cuts: Option<&[Cut]>) -> CutKey {
        CutKey {
            similarity: repr_cuts.map_or(0.0, |rc| similarity(cut, rc)),
            metrics: self.metrics(cut),
        }
    }
}

impl Pass {
    /// The pass criteria of Table I over precomputed metrics, without the
    /// leaf tie-breaker.
    fn order(self, ma: &CutMetrics, mb: &CutMetrics) -> Ordering {
        match self {
            Pass::Fanout => cmp_desc(ma.avg_fanout, mb.avg_fanout)
                .then(ma.size.cmp(&mb.size))
                .then(cmp_asc(ma.avg_level, mb.avg_level)),
            Pass::SmallLevel => cmp_asc(ma.avg_level, mb.avg_level)
                .then(ma.size.cmp(&mb.size))
                .then(cmp_desc(ma.avg_fanout, mb.avg_fanout)),
            Pass::LargeLevel => cmp_desc(ma.avg_level, mb.avg_level)
                .then(ma.size.cmp(&mb.size))
                .then(cmp_desc(ma.avg_fanout, mb.avg_fanout)),
        }
    }
}

/// A cut's selection key, computed once per candidate.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CutKey {
    similarity: f64,
    metrics: CutMetrics,
}

impl CutKey {
    /// The order of [`compare_with_similarity`] (and, with every
    /// similarity 0, of [`CutScorer::compare`]) without the leaf
    /// tie-breaker, which the caller applies.
    pub(crate) fn order(&self, other: &CutKey, pass: Pass) -> Ordering {
        cmp_desc(self.similarity, other.similarity)
            .then_with(|| pass.order(&self.metrics, &other.metrics))
    }
}

fn cmp_asc(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

fn cmp_desc(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a).unwrap_or(Ordering::Equal)
}

/// The similarity of a cut to a set of priority cuts (paper §III-C1):
/// `s(c, P) = Σ_{c' ∈ P} |c ∩ c'| / |c ∪ c'|`.
pub fn similarity(cut: &Cut, priority: &[Cut]) -> f64 {
    priority.iter().map(|p| cut.jaccard(p)).sum()
}

/// Compares two cuts for a *non-representative* node: higher similarity to
/// the representative's priority cuts wins; ties fall back to the pass
/// criteria.
pub fn compare_with_similarity(
    scorer: &CutScorer<'_>,
    a: &Cut,
    b: &Cut,
    pass: Pass,
    repr_cuts: &[Cut],
) -> Ordering {
    cmp_desc(similarity(a, repr_cuts), similarity(b, repr_cuts))
        .then_with(|| scorer.compare(a, b, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsweep_aig::Var;

    fn cut(ids: &[u32]) -> Cut {
        Cut::new(&ids.iter().map(|&i| Var::new(i)).collect::<Vec<_>>())
    }

    #[test]
    fn pass1_prefers_high_fanout() {
        let fanouts = [0, 10, 1, 1];
        let levels = [0, 1, 1, 1];
        let s = CutScorer::new(&fanouts, &levels);
        let hi = cut(&[1]);
        let lo = cut(&[2]);
        assert_eq!(s.compare(&hi, &lo, Pass::Fanout), Ordering::Less);
    }

    #[test]
    fn pass1_ties_break_on_size_then_level() {
        let fanouts = [0, 2, 2, 2, 2];
        let levels = [0, 1, 1, 5, 5];
        let s = CutScorer::new(&fanouts, &levels);
        // Same avg fanout; smaller cut wins.
        let small = cut(&[1]);
        let big = cut(&[1, 2]);
        assert_eq!(s.compare(&small, &big, Pass::Fanout), Ordering::Less);
        // Same fanout and size; smaller level wins in pass 1.
        let low = cut(&[1, 2]);
        let high = cut(&[3, 4]);
        assert_eq!(s.compare(&low, &high, Pass::Fanout), Ordering::Less);
    }

    #[test]
    fn pass2_and_pass3_are_level_opposites() {
        let fanouts = [0, 1, 1];
        let levels = [0, 1, 9];
        let s = CutScorer::new(&fanouts, &levels);
        let low = cut(&[1]);
        let high = cut(&[2]);
        assert_eq!(s.compare(&low, &high, Pass::SmallLevel), Ordering::Less);
        assert_eq!(s.compare(&high, &low, Pass::LargeLevel), Ordering::Less);
    }

    #[test]
    fn similarity_sums_jaccard() {
        let p = vec![cut(&[1, 2]), cut(&[2, 3])];
        let c = cut(&[2, 3]);
        // j({2,3},{1,2}) = 1/3, j({2,3},{2,3}) = 1.
        assert!((similarity(&c, &p) - (1.0 / 3.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn similarity_dominates_pass_criteria() {
        let fanouts = [0, 100, 1, 1, 1];
        let levels = [0, 0, 0, 0, 0];
        let s = CutScorer::new(&fanouts, &levels);
        let repr = vec![cut(&[3, 4])];
        let similar = cut(&[3, 4]);
        let good_metrics = cut(&[1]);
        assert_eq!(
            compare_with_similarity(&s, &similar, &good_metrics, Pass::Fanout, &repr),
            Ordering::Less
        );
    }

    #[test]
    fn ordering_is_deterministic_total() {
        let fanouts = [0, 1, 1, 1];
        let levels = [0, 2, 2, 2];
        let s = CutScorer::new(&fanouts, &levels);
        let a = cut(&[1, 2]);
        let b = cut(&[1, 3]);
        // Identical metrics: leaf order decides.
        assert_eq!(s.compare(&a, &b, Pass::Fanout), Ordering::Less);
        assert_eq!(s.compare(&b, &a, Pass::Fanout), Ordering::Greater);
        assert_eq!(s.compare(&a, &a, Pass::Fanout), Ordering::Equal);
    }
}
