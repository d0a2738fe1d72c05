//! Network statistics: size, depth, structural histograms — the numbers
//! reported in benchmark tables (the paper's Table II statistics columns).

use std::fmt;

use crate::{Aig, Node};

/// Aggregate structural statistics of an [`Aig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkStats {
    /// Primary inputs.
    pub num_pis: usize,
    /// Primary outputs.
    pub num_pos: usize,
    /// AND gates.
    pub num_ands: usize,
    /// Network depth (maximum PO level).
    pub depth: u32,
    /// Number of nodes per level (index = level).
    pub level_histogram: Vec<usize>,
    /// Edges with an inverter (complemented fanins, POs included).
    pub complemented_edges: usize,
    /// Nodes with more than one fanout.
    pub multi_fanout_nodes: usize,
    /// Dangling AND nodes (no path to any PO).
    pub dangling_nodes: usize,
}

impl NetworkStats {
    /// Computes the statistics of a network.
    pub fn of(aig: &Aig) -> NetworkStats {
        let levels = aig.levels();
        let depth = aig.depth();
        let mut level_histogram = vec![0usize; depth as usize + 1];
        let mut complemented_edges = 0usize;
        for (i, node) in aig.nodes().iter().enumerate() {
            if let Node::And(a, b) = node {
                if (levels[i] as usize) < level_histogram.len() {
                    level_histogram[levels[i] as usize] += 1;
                }
                complemented_edges += a.is_complemented() as usize + b.is_complemented() as usize;
            }
        }
        complemented_edges += aig.pos().iter().filter(|po| po.is_complemented()).count();
        let fanouts = aig.fanout_counts();
        let multi_fanout_nodes = aig.and_vars().filter(|v| fanouts[v.index()] > 1).count();
        let dangling_nodes = aig.num_ands() - aig.clean().num_ands().min(aig.num_ands());
        NetworkStats {
            num_pis: aig.num_pis(),
            num_pos: aig.num_pos(),
            num_ands: aig.num_ands(),
            depth,
            level_histogram,
            complemented_edges,
            multi_fanout_nodes,
            dangling_nodes,
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pis={} pos={} ands={} depth={} inv-edges={} multi-fanout={} dangling={}",
            self.num_pis,
            self.num_pos,
            self.num_ands,
            self.depth,
            self.complemented_edges,
            self.multi_fanout_nodes,
            self.dangling_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_network() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let f = aig.and(xs[0], xs[1]);
        let g = aig.and(f, !xs[0]);
        aig.add_po(!g);
        let s = NetworkStats::of(&aig);
        assert_eq!(s.num_pis, 2);
        assert_eq!(s.num_ands, 2);
        assert_eq!(s.depth, 2);
        assert_eq!(s.level_histogram, vec![0, 1, 1]);
        // One inverter on g's fanin, one on the PO.
        assert_eq!(s.complemented_edges, 2);
        assert_eq!(s.dangling_nodes, 0);
        assert!(s.to_string().contains("ands=2"));
    }

    #[test]
    fn dangling_nodes_counted() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let used = aig.and(xs[0], xs[1]);
        let _dead = aig.or(xs[0], xs[1]);
        aig.add_po(used);
        let s = NetworkStats::of(&aig);
        assert_eq!(s.dangling_nodes, 1);
    }

    #[test]
    fn multi_fanout_detection() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(2);
        let shared = aig.and(xs[0], xs[1]);
        let a = aig.and(shared, xs[0]);
        let b = aig.and(shared, xs[1]);
        aig.add_po(a);
        aig.add_po(b);
        let s = NetworkStats::of(&aig);
        assert_eq!(s.multi_fanout_nodes, 1);
    }
}
