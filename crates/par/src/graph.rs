//! Typed kernel graphs: record a launch DAG once, replay it with new
//! bindings — the executor-model analogue of CUDA graphs
//! (`cudaGraphInstantiate` / `cudaGraphLaunch`).
//!
//! Iterative engines relaunch the same kernel topology every round (the
//! paper's Fig. 5 multi-round exhaustive-simulation loop is the canonical
//! case: per-window input projection → per-level AND evaluation → output
//! comparison, once per pattern round). A [`KernelGraph`] records that
//! topology once; [`KernelGraph::replay`] then executes it for a concrete
//! *bindings* value `B` (the round index, active sets, bound buffers…),
//! with node widths themselves functions of the bindings so a replay can
//! shrink or skip nodes (width 0) as work drains.
//!
//! Replay schedules the DAG in *waves* (antichains of equal depth): all
//! nodes of a wave run as one [`Executor::join`] epoch on separate
//! streams, so independent branches genuinely interleave on the worker
//! pool and the cost model charges the wave at the width of its heaviest
//! branch only.
//!
//! Every node declares its [`Effect`]s over the builder's
//! [`EffectTable`] and the widest it will ever run;
//! [`KernelGraphBuilder::build`] proves each node race-free and in bounds
//! at that width and every same-wave pair disjoint, once, so replays
//! re-check nothing.
//!
//! ```
//! use parsweep_par::{DeviceSlice, Effect, EffectTable, Executor, KernelGraphBuilder, Pattern};
//!
//! struct Round<'a> {
//!     scale: u64,
//!     cells: &'a DeviceSlice<'a, u64>,
//! }
//! let exec = Executor::with_threads(2);
//! let table = EffectTable::new();
//! let buf = table.buffer("acc", 8);
//! let own = Pattern::Affine { base: 0, stride: 1, span: 1 };
//! let mut acc = vec![0u64; 8];
//! {
//!     let cells = exec.bind_table(&table, buf, &mut acc);
//!     let mut g = KernelGraphBuilder::<Round>::new(&table);
//!     let a = g.kernel_declared("a", &[], |_| 8, 8, vec![Effect::write(buf, own)],
//!         // SAFETY: each tid writes its own slot, as declared.
//!         |tid, r: &Round| unsafe { r.cells.write(tid, tid, r.scale * tid as u64) });
//!     let rw = vec![Effect::read(buf, own), Effect::write(buf, own)];
//!     let _b = g.kernel_declared("b", &[a], |_| 4, 4, rw,
//!         // SAFETY: each tid reads and writes only its own slot.
//!         |tid, r: &Round| unsafe { r.cells.write(tid, tid, r.cells.read(tid, tid) + 1) });
//!     let graph = g.build();
//!     graph.replay(&exec, &Round { scale: 0, cells: &cells });
//!     graph.replay(&exec, &Round { scale: 2, cells: &cells });
//! }
//! assert_eq!(acc, [1, 3, 5, 7, 8, 10, 12, 14]);
//! assert_eq!(exec.stats().total_launches(), 4);
//! ```

use crate::effects::{self, BufferDecl, DeclaredLaunch, DeclaredPeer, Effect, StaticHazard};
use crate::stream::Pending;
use crate::{BufId, EffectTable, Executor, Stream};
use parsweep_trace as trace;
use std::sync::Arc;

/// Handle to a node of a [`KernelGraphBuilder`] / [`KernelGraph`], used to
/// declare dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// A recorded kernel body: `(tid, bindings)`.
type NodeKernel<'env, B> = Box<dyn Fn(usize, &B) + Send + Sync + 'env>;

struct Node<'env, B> {
    label: String,
    width: Box<dyn Fn(&B) -> usize + Send + Sync + 'env>,
    kernel: NodeKernel<'env, B>,
    depth: usize,
    /// Declared static effects.
    effects: Arc<Vec<Effect>>,
    /// The widest the node may replay: the width it is verified at.
    max_width: usize,
}

impl<B> Node<'_, B> {
    fn peer<'a>(&'a self, buffers: &'a [BufferDecl]) -> DeclaredPeer<'a> {
        DeclaredPeer {
            label: &self.label,
            width: self.max_width,
            buffers,
            effects: &self.effects,
        }
    }
}

/// Builder recording the nodes and edges of a [`KernelGraph`].
///
/// Dependencies can only point at already-created nodes, so the recorded
/// structure is a DAG by construction.
pub struct KernelGraphBuilder<'env, B> {
    nodes: Vec<Node<'env, B>>,
    table: EffectTable,
    /// `(buffer, depth)`: the buffer's storage is released (arena lease
    /// returned, slice dropped) once every node of depth `< depth` has
    /// run; any declared use at depth `>= depth` is a use-after-release.
    releases: Vec<(BufId, usize)>,
}

impl<'env, B> KernelGraphBuilder<'env, B> {
    /// Creates an empty builder whose nodes declare their effects over
    /// `table`.
    pub fn new(table: &EffectTable) -> Self {
        KernelGraphBuilder {
            nodes: Vec::new(),
            table: table.clone(),
            releases: Vec::new(),
        }
    }

    /// Records a kernel node that runs after every node in `deps`, with
    /// its declared static [`Effect`]s.
    ///
    /// `width` maps the replay bindings to the launch width (0 skips the
    /// node for that replay); `kernel(tid, bindings)` is the kernel body.
    /// `max_width` is the largest width `width` may return for any
    /// binding; the static checker verifies the effects at this width,
    /// and [`KernelGraph::replay`] asserts every runtime width stays
    /// within it.
    ///
    /// **Replay invariant**: all nodes of equal depth run as *one
    /// unordered join epoch* (one stream each), for every replay. They
    /// are proven disjoint at their maximum widths, which covers every
    /// narrower replay (footprints only shrink as widths shrink).
    #[allow(clippy::too_many_arguments)]
    pub fn kernel_declared<W, K>(
        &mut self,
        label: &str,
        deps: &[NodeId],
        width: W,
        max_width: usize,
        effects: Vec<Effect>,
        kernel: K,
    ) -> NodeId
    where
        W: Fn(&B) -> usize + Send + Sync + 'env,
        K: Fn(usize, &B) + Send + Sync + 'env,
    {
        let depth = self.depth_after(deps);
        self.nodes.push(Node {
            label: label.to_string(),
            width: Box::new(width),
            kernel: Box::new(kernel),
            depth,
            effects: Arc::new(effects),
            max_width,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Declares that `buf`'s storage is released once every node in
    /// `deps` has run: any declared use of it by a node scheduled at or
    /// after that point is flagged as a use-after-release at build time.
    pub fn release(&mut self, buf: BufId, deps: &[NodeId]) {
        let depth = self.depth_after(deps);
        self.releases.push((buf, depth));
    }

    fn depth_after(&self, deps: &[NodeId]) -> usize {
        deps.iter()
            .map(|d| self.nodes[d.0].depth + 1)
            .max()
            .unwrap_or(0)
    }

    /// Finalizes the recording into a replayable graph, panicking if
    /// the static effect checker finds a hazard. See
    /// [`KernelGraphBuilder::try_build`].
    pub fn build(self) -> KernelGraph<'env, B> {
        self.try_build().unwrap_or_else(|hazards| {
            panic!(
                "static effect check failed at graph build:\n{}",
                effects::hazard_report(&hazards)
            )
        })
    }

    /// Finalizes the recording into a replayable graph, running the
    /// static effect checker over all nodes:
    ///
    /// * every node is checked in isolation at its declared maximum
    ///   width (bounds, thread disjointness);
    /// * every *same-depth* pair of nodes — which replay as one
    ///   unordered epoch — is checked for footprint disjointness at
    ///   their maximum widths;
    /// * declared uses of a buffer at or past its
    ///   [`release`](KernelGraphBuilder::release) depth are flagged.
    pub fn try_build(self) -> Result<KernelGraph<'env, B>, Vec<StaticHazard>> {
        let buffers = self.table.snapshot();
        let mut hazards = Vec::new();
        for node in &self.nodes {
            hazards.extend(effects::check_launch(
                &node.label,
                node.max_width,
                &node.effects,
                &buffers,
            ));
            for &(buf, depth) in &self.releases {
                if node.depth >= depth && node.effects.iter().any(|e| e.buf == buf) {
                    hazards.push(StaticHazard::UseAfterRelease {
                        kernel: node.label.clone(),
                        buffer: buffers[buf.0 as usize].label.clone(),
                    });
                }
            }
        }
        // Same-depth nodes replay as one unordered epoch, so every pair
        // must have disjoint footprints. Wide graphs (one node per
        // window, thousands of windows per wave) make the naive
        // all-pairs check quadratic, so candidate pairs are found with
        // an interval sweep first: only nodes whose coarse per-buffer
        // envelopes overlap (write-vs-anything) get the full
        // `check_unordered` treatment. Envelope-disjoint pairs cannot
        // conflict — the precise overlap test refines the envelope,
        // never widens it.
        let max_depth = self.nodes.iter().map(|n| n.depth).max();
        let mut waves = vec![Vec::new(); max_depth.map_or(0, |d| d + 1)];
        for (i, node) in self.nodes.iter().enumerate() {
            waves[node.depth].push(i);
        }
        for wave in &waves {
            // (lo, hi, node, is_write) envelopes, bucketed by buffer
            // label — `check_unordered` matches buffers by label.
            let mut by_label: std::collections::HashMap<&str, Vec<(usize, usize, usize, bool)>> =
                std::collections::HashMap::new();
            for &i in wave {
                let node = &self.nodes[i];
                for e in node.effects.iter() {
                    let decl = &buffers[e.buf.0 as usize];
                    if let Some((lo, hi)) = e.pattern.footprint(node.max_width, decl.len) {
                        by_label.entry(decl.label.as_str()).or_default().push((
                            lo,
                            hi,
                            i,
                            e.is_write(),
                        ));
                    }
                }
            }
            let mut candidates = std::collections::BTreeSet::new();
            for entries in by_label.values_mut() {
                entries.sort_unstable();
                for (k, &(_, hi_a, na, wr_a)) in entries.iter().enumerate() {
                    for &(lo_b, _, nb, wr_b) in &entries[k + 1..] {
                        if lo_b >= hi_a {
                            break;
                        }
                        if na != nb && (wr_a || wr_b) {
                            candidates.insert((na.min(nb), na.max(nb)));
                        }
                    }
                }
            }
            for (i, j) in candidates {
                hazards.extend(effects::check_unordered(
                    &self.nodes[i].peer(&buffers),
                    &self.nodes[j].peer(&buffers),
                ));
            }
        }
        if !hazards.is_empty() {
            return Err(hazards);
        }
        Ok(KernelGraph {
            nodes: self.nodes,
            waves,
            buffers,
        })
    }
}

/// A recorded, statically verified launch DAG, replayable against fresh
/// bindings — the executor-model analogue of an instantiated CUDA graph.
pub struct KernelGraph<'env, B> {
    nodes: Vec<Node<'env, B>>,
    waves: Vec<Vec<usize>>,
    /// Snapshot of the builder's effect table.
    buffers: Arc<Vec<BufferDecl>>,
}

impl<B: Sync> KernelGraph<'_, B> {
    /// Number of recorded kernel nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of scheduling waves (the graph's depth).
    pub fn num_waves(&self) -> usize {
        self.waves.len()
    }

    /// Executes the graph for one bindings value.
    ///
    /// Each wave of dependency-free nodes becomes one [`Executor::join`]
    /// epoch — one stream per node — so independent nodes interleave and
    /// only the heaviest node of each wave lands on the modeled critical
    /// path. Nodes whose width evaluates to 0 are skipped entirely (no
    /// launch is recorded). A replay on a raw executor is counted in
    /// [`LaunchStats::static_verified_replays`](crate::LaunchStats::static_verified_replays).
    ///
    /// # Panics
    ///
    /// Panics when a node's width exceeds the maximum it was verified
    /// at.
    pub fn replay(&self, exec: &Executor, bindings: &B) {
        let mut span = trace::span("graph", "graph.replay");
        span.arg_u64("nodes", self.num_nodes() as u64);
        span.arg_u64("waves", self.num_waves() as u64);
        for wave in &self.waves {
            let mut streams: Vec<Stream<'_, '_>> = Vec::with_capacity(wave.len());
            for &id in wave {
                let node = &self.nodes[id];
                let width = (node.width)(bindings);
                if width == 0 {
                    continue;
                }
                assert!(
                    width <= node.max_width,
                    "graph node `{}` replayed at width {width}, beyond its \
                     statically verified maximum {}",
                    node.label,
                    node.max_width
                );
                let kernel = &node.kernel;
                let mut stream = exec.stream();
                // Already checked at build time at max_width, which
                // dominates this width — queue without re-checking.
                stream.queue.push(Pending {
                    label: node.label.clone(),
                    n: width,
                    declared: DeclaredLaunch {
                        buffers: Arc::clone(&self.buffers),
                        effects: Arc::clone(&node.effects),
                    },
                    // Same-depth disjointness was proven at build time
                    // at max widths; the epoch drain must not re-check
                    // O(wave²) pairs on every replay.
                    preverified: true,
                    kernel: Box::new(move |tid| kernel(tid, bindings)),
                });
                streams.push(stream);
            }
            if !streams.is_empty() {
                let mut refs: Vec<&mut Stream<'_, '_>> = streams.iter_mut().collect();
                exec.join(&mut refs);
            }
        }
        if !exec.sanitizing() {
            exec.note_verified_replay();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A node that touches no device buffer (empty declaration).
    fn node<'env, B>(
        g: &mut KernelGraphBuilder<'env, B>,
        label: &str,
        deps: &[NodeId],
        width: impl Fn(&B) -> usize + Send + Sync + 'env,
        kernel: impl Fn(usize, &B) + Send + Sync + 'env,
    ) -> NodeId {
        g.kernel_declared(label, deps, width, usize::MAX, Vec::new(), kernel)
    }

    #[test]
    fn waves_follow_dependency_depth() {
        let mut g = KernelGraphBuilder::<()>::new(&EffectTable::new());
        let a = node(&mut g, "a", &[], |_| 1, |_, _| {});
        let b = node(&mut g, "b", &[], |_| 1, |_, _| {});
        let c = node(&mut g, "c", &[a, b], |_| 1, |_, _| {});
        let _d = node(&mut g, "d", &[c], |_| 1, |_, _| {});
        let graph = g.build();
        assert_eq!(graph.num_nodes(), 4);
        assert_eq!(graph.num_waves(), 3);
    }

    #[test]
    fn replay_respects_ordering_edges() {
        // b depends on a: every replay must observe a's writes.
        let mut g = KernelGraphBuilder::<Vec<AtomicUsize>>::new(&EffectTable::new());
        let a = node(
            &mut g,
            "a",
            &[],
            |cells: &Vec<AtomicUsize>| cells.len(),
            |tid, cells| cells[tid].store(tid + 1, Ordering::SeqCst),
        );
        node(
            &mut g,
            "b",
            &[a],
            |cells: &Vec<AtomicUsize>| cells.len(),
            |tid, cells| {
                let seen = cells[tid].load(Ordering::SeqCst);
                assert_eq!(seen, tid + 1, "b ran before its dependency a");
                cells[tid].store(seen * 10, Ordering::SeqCst);
            },
        );
        let graph = g.build();
        let exec = Executor::with_threads(4);
        for _ in 0..3 {
            let cells: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
            graph.replay(&exec, &cells);
            assert!(cells
                .iter()
                .enumerate()
                .all(|(i, c)| c.load(Ordering::SeqCst) == (i + 1) * 10));
        }
    }

    #[test]
    fn zero_width_nodes_are_skipped() {
        let mut g = KernelGraphBuilder::<usize>::new(&EffectTable::new());
        node(&mut g, "gated", &[], |&active| active, |_, _| {});
        let graph = g.build();
        let exec = Executor::with_threads(2);
        graph.replay(&exec, &0);
        assert_eq!(exec.stats().total_launches(), 0);
        graph.replay(&exec, &5);
        assert_eq!(exec.stats().total_launches(), 1);
        assert_eq!(exec.stats().total_threads, 5);
    }
}
