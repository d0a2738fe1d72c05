//! Engine configuration (the paper's §IV parameter set).

use parsweep_cut::{CutParams, Pass};

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
    /// streams through a window of levels into host staging). An
    /// exhaustive batch sizes its rows so that its live slots fit the
    /// smaller of this and 2^19 words (4 MiB), so budgets past that
    /// change the partial-simulation tables only.
    pub memory_words: usize,
    /// Random-pattern words for partial simulation (64 patterns each).
    pub sim_words: usize,
    /// Maximum check/refine rounds inside the global checking phase.
    pub max_global_rounds: usize,
    /// Maximum repeated local function checking phases.
    pub max_local_phases: usize,
    /// Cut generation passes (Table I), in order.
    pub passes: Vec<Pass>,
    /// Common-cut buffer capacity of Algorithm 2.
    pub cut_buffer_capacity: usize,
    /// Maximum simulation-table entries per exhaustive-simulation batch;
    /// larger batches are split so the table fits in `memory_words`.
    pub batch_entries: usize,
    /// Seed for random pattern generation.
    pub seed: u64,
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
            cut_buffer_capacity: 1 << 14,
            batch_entries: 1 << 20,
            seed: 0x70_5eed,
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
            cut_buffer_capacity: 1 << 12,
            batch_entries: 1 << 16,
            seed: 0x70_5eed,
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
        let c = EngineConfig::scaled().with_support_bounds(20, 22, 10);
        assert_eq!(c.k_po_all, 20);
        assert_eq!(c.k_po, 20, "k_p is clamped to k_P");
        assert_eq!(c.k_g, 10);
    }

    #[test]
    fn default_is_scaled() {
        let d = EngineConfig::default();
        assert!(d.k_po_all <= 20, "default must be laptop-safe");
        assert_eq!(d.passes, Pass::ALL, "every Table-I pass runs by default");
    }
}
