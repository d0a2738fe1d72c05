//! Engine configuration (the paper's §IV parameter set).

use parsweep_cut::{CutParams, Pass};

/// Window merging strategy for PO and global function checking (§III-B3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeStrategy {
    /// No merging: one window per candidate pair.
    None,
    /// Lexicographic sort + consecutive merging (the paper's heuristic).
    #[default]
    Lexicographic,
    /// Greedy similarity clustering (the paper's "more dedicated
    /// approach"; quadratic overhead).
    Clustered,
}

/// Configuration of the simulation-based CEC engine.
///
/// Field names follow the paper: `k_po_all` is `k_P` (one-shot PO
/// checking bound), `k_po` is `k_p`, `k_g` bounds global function
/// checking, `cut.k_l`/`cut.c` bound local function checking and `k_s`
/// (window merging) equals the active phase's support threshold.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// `k_P`: if every PO's support fits, all POs are checked one-shot.
    pub k_po_all: usize,
    /// `k_p`: otherwise only POs with support up to this are simulatable.
    pub k_po: usize,
    /// `k_g`: support bound for global function checking of node pairs.
    pub k_g: usize,
    /// Cut enumeration parameters (`k_l`, `C`).
    pub cut: CutParams,
    /// Simulation-table memory budget in 64-bit words (the paper's `M`):
    /// bounds each exhaustive-simulation batch and the device residency
    /// of every partial-simulation table (a table that does not fit
    /// streams through a window of levels into host staging).
    pub memory_words: usize,
    /// Random-pattern words for partial simulation (64 patterns each).
    pub sim_words: usize,
    /// Maximum check/refine rounds inside the global checking phase.
    pub max_global_rounds: usize,
    /// Maximum repeated local function checking phases.
    pub max_local_phases: usize,
    /// Cut generation passes (Table I), in order.
    pub passes: Vec<Pass>,
    /// Similarity-driven cut selection for non-representatives (§III-C1).
    pub similarity_selection: bool,
    /// Window merging strategy in global/PO checking (§III-B3).
    pub window_merging: MergeStrategy,
    /// Common-cut buffer capacity of Algorithm 2.
    pub cut_buffer_capacity: usize,
    /// Maximum simulation-table entries per exhaustive-simulation batch;
    /// larger batches are split so the table fits in `memory_words`.
    pub batch_entries: usize,
    /// Seed for random pattern generation.
    pub seed: u64,
    /// Distance-1 amplification of counter-example patterns (§V, third
    /// tweak): every CEX is resimulated together with 63 single-bit-flip
    /// neighbours.
    pub distance1_cex: bool,
    /// Adaptive pass disabling (§V, second tweak): a Table-I pass that
    /// proves nothing during a local phase is dropped from later phases.
    pub adaptive_passes: bool,
    /// Reverse simulation (§V, citing Zhang et al. DAC'21): backward
    /// value justification generates directed patterns that knock
    /// wide-support candidates out of the constant class.
    pub reverse_sim: bool,
}

impl EngineConfig {
    /// The paper's experimental parameters (`k_P = 32`, `k_p = k_g = 16`,
    /// `k_l = 8`, `C = 8`), sized for a 48 GB GPU. Use [`EngineConfig::scaled`]
    /// on laptop-class hardware.
    pub fn paper() -> Self {
        EngineConfig {
            k_po_all: 32,
            k_po: 16,
            k_g: 16,
            cut: CutParams { k_l: 8, c: 8 },
            memory_words: 1 << 28, // 2 GiB of 64-bit words
            sim_words: 16,
            max_global_rounds: 4,
            max_local_phases: 256,
            passes: Pass::ALL.to_vec(),
            similarity_selection: true,
            window_merging: MergeStrategy::Lexicographic,
            cut_buffer_capacity: 1 << 14,
            batch_entries: 1 << 20,
            seed: 0x70_5eed,
            distance1_cex: false,
            adaptive_passes: false,
            reverse_sim: false,
        }
    }

    /// Laptop-scale parameters: the same structure with smaller support
    /// bounds so truth tables stay tractable on a CPU.
    pub fn scaled() -> Self {
        EngineConfig {
            k_po_all: 18,
            k_po: 14,
            k_g: 16,
            cut: CutParams { k_l: 8, c: 8 },
            memory_words: 1 << 22, // 32 MiB
            sim_words: 8,
            max_global_rounds: 4,
            max_local_phases: 64,
            passes: Pass::ALL.to_vec(),
            similarity_selection: true,
            window_merging: MergeStrategy::Lexicographic,
            cut_buffer_capacity: 1 << 12,
            batch_entries: 1 << 16,
            seed: 0x70_5eed,
            distance1_cex: false,
            adaptive_passes: false,
            reverse_sim: false,
        }
    }
}

impl EngineConfig {
    /// Returns this configuration with new support bounds (`k_P`, `k_p`,
    /// `k_g`), clamped pairwise so `k_p <= k_P`.
    pub fn with_support_bounds(mut self, k_po_all: usize, k_po: usize, k_g: usize) -> Self {
        self.k_po_all = k_po_all;
        self.k_po = k_po.min(k_po_all);
        self.k_g = k_g;
        self
    }

    /// Returns this configuration with new cut parameters (`k_l`, `C`).
    pub fn with_cut_params(mut self, k_l: usize, c: usize) -> Self {
        self.cut = CutParams { k_l, c };
        self
    }

    /// Returns this configuration with all §V extension features enabled
    /// (EC transfer is on [`CombinedConfig`](crate::CombinedConfig)).
    pub fn with_extensions(mut self) -> Self {
        self.distance1_cex = true;
        self.adaptive_passes = true;
        self.reverse_sim = true;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section_iv() {
        let c = EngineConfig::paper();
        assert_eq!(c.k_po_all, 32);
        assert_eq!(c.k_po, 16);
        assert_eq!(c.k_g, 16);
        assert_eq!(c.cut.k_l, 8);
        assert_eq!(c.cut.c, 8);
        assert_eq!(c.passes.len(), 3);
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::scaled()
            .with_support_bounds(20, 22, 10)
            .with_cut_params(6, 4)
            .with_extensions();
        assert_eq!(c.k_po_all, 20);
        assert_eq!(c.k_po, 20, "k_p is clamped to k_P");
        assert_eq!(c.k_g, 10);
        assert_eq!(c.cut.k_l, 6);
        assert!(c.distance1_cex && c.adaptive_passes && c.reverse_sim);
    }

    #[test]
    fn default_is_scaled() {
        let d = EngineConfig::default();
        assert!(d.k_po_all <= 20, "default must be laptop-safe");
        assert_eq!(d.window_merging, MergeStrategy::Lexicographic);
        assert!(d.similarity_selection);
    }
}
