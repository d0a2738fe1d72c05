//! Streams: queued kernel launches with explicit synchronization points —
//! the executor-model analogue of CUDA streams.
//!
//! A [`Stream`] queues launches instead of running them eagerly; nothing
//! executes until [`Stream::sync`] or an [`Executor::join`] barrier.
//! Launches queued on *one* stream are ordered (each sees the writes of
//! its predecessors, like kernels on one CUDA stream); launches on
//! *different* streams joined together are unordered and may interleave
//! on the worker pool — so their declared footprints must be disjoint,
//! which the static checker proves when the epoch drains (and a
//! sanitizing executor audits: unordered conflicting accesses are
//! reported as stream races).
//!
//! Joining streams is also what teaches the cost model about overlap:
//! within one join epoch only the heaviest stream's launches are charged
//! to the modeled critical path (see
//! [`LaunchStats::modeled_time`](crate::LaunchStats::modeled_time)), while
//! [`LaunchStats::serialized_time`](crate::LaunchStats::serialized_time)
//! keeps charging every launch.
//!
//! ```
//! use parsweep_par::{Effect, EffectTable, Executor, Pattern};
//! let exec = Executor::with_threads(2);
//! let table = EffectTable::new();
//! let (ia, ib) = (table.buffer("a", 64), table.buffer("b", 64));
//! let mut a = vec![0u32; 64];
//! let mut b = vec![0u32; 64];
//! {
//!     let ca = exec.bind_table(&table, ia, &mut a);
//!     let cb = exec.bind_table(&table, ib, &mut b);
//!     let own = Pattern::Affine { base: 0, stride: 1, span: 1 };
//!     let mut s1 = exec.stream();
//!     let mut s2 = exec.stream();
//!     // SAFETY: each tid writes its own slot; the two streams touch
//!     // disjoint buffers, so their launches may interleave freely.
//!     s1.launch_declared(&table, "fill-a", 64, &[Effect::write(ia, own)], |tid| unsafe {
//!         ca.write(tid, tid, 1)
//!     });
//!     // SAFETY: as above, on the other buffer.
//!     s2.launch_declared(&table, "fill-b", 64, &[Effect::write(ib, own)], |tid| unsafe {
//!         cb.write(tid, tid, 2)
//!     });
//!     exec.join(&mut [&mut s1, &mut s2]);
//! }
//! assert_eq!((a[7], b[7]), (1, 2));
//! ```

use crate::effects::{self, DeclaredLaunch, DeclaredPeer, Effect, EffectTable};
use crate::{Executor, DEFAULT_INLINE_THRESHOLD};
use parsweep_trace as trace;

/// One queued (not yet executed) kernel launch.
struct Pending<'env> {
    label: String,
    n: usize,
    /// The launch's static effect declarations, already checked in
    /// isolation at queue time; cross-stream disjointness is checked
    /// when the join epoch drains.
    declared: DeclaredLaunch,
    kernel: Box<dyn Fn(usize) + Send + Sync + 'env>,
}

impl Pending<'_> {
    fn peer(&self) -> DeclaredPeer<'_> {
        DeclaredPeer {
            label: &self.label,
            width: self.n,
            buffers: &self.declared.buffers,
            effects: &self.declared.effects,
        }
    }

    /// Runs the launch on the calling thread.
    fn run_inline(&self) {
        let _span = trace::kernel_span(&self.label, self.n);
        for tid in 0..self.n {
            (self.kernel)(tid);
        }
    }
}

/// An ordered queue of kernel launches, executed lazily at explicit
/// synchronization points — the analogue of a CUDA stream.
///
/// Created with [`Executor::stream`]. Launches queue until [`Stream::sync`]
/// (or an [`Executor::join`] with other streams) drains them; a stream
/// dropped with work still queued syncs itself, mirroring how destroying a
/// CUDA stream completes its work — unless it is dropped by a panic
/// unwinding through its owner, which abandons the queue.
pub struct Stream<'exec, 'env> {
    exec: &'exec Executor,
    id: u64,
    queue: Vec<Pending<'env>>,
}

impl<'exec, 'env> Stream<'exec, 'env> {
    pub(crate) fn new(exec: &'exec Executor, id: u64) -> Self {
        Stream {
            exec,
            id,
            queue: Vec::new(),
        }
    }

    /// Queues a kernel over thread ids `0..n` whose buffer accesses are
    /// declared as static [`Effect`]s over `table` (see
    /// [`Executor::launch_declared`]). Nothing runs until the next
    /// synchronization point.
    ///
    /// The intra-launch checks (bounds, thread disjointness) run *now*,
    /// at the exact width `n`; cross-stream disjointness against the
    /// other streams of the join epoch is checked when the epoch drains.
    /// Launches on this stream are ordered and may see each other's
    /// writes.
    ///
    /// # Panics
    ///
    /// Panics with the [`StaticHazard`](crate::StaticHazard) report
    /// when the declared effects conflict or exceed a buffer's declared
    /// length.
    pub fn launch_declared<F>(
        &mut self,
        table: &EffectTable,
        label: &str,
        n: usize,
        effects_list: &[Effect],
        kernel: F,
    ) where
        F: Fn(usize) + Send + Sync + 'env,
    {
        if n == 0 {
            return; // zero-width launches are not recorded, as with eager launches
        }
        let buffers = table.snapshot();
        let hazards = effects::check_launch(label, n, effects_list, &buffers);
        assert!(
            hazards.is_empty(),
            "static effect check failed for `{label}`:\n{}",
            effects::hazard_report(&hazards)
        );
        self.queue.push(Pending {
            label: label.to_string(),
            n,
            declared: DeclaredLaunch {
                buffers,
                effects: std::sync::Arc::new(effects_list.to_vec()),
            },
            kernel: Box::new(kernel),
        });
    }

    /// Executes all queued launches in order and waits for completion.
    /// A lone stream gets the executor's full worker pool per launch.
    pub fn sync(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let queue = std::mem::take(&mut self.queue);
        self.exec.drain_streams(vec![(self.id, queue)]);
    }
}

impl Drop for Stream<'_, '_> {
    fn drop(&mut self) {
        // Launching kernels while a panic unwinds would run them on state
        // the panic may have left half-built, and a kernel that panics
        // there aborts the process.
        if !self.queue.is_empty() && !std::thread::panicking() {
            self.sync();
        }
    }
}

impl Executor {
    /// Executes the queued launches of one or more streams as one *join
    /// epoch* and waits for all of them.
    ///
    /// Within the epoch each stream's launches run in queue order, but
    /// launches of different streams are unordered and may interleave on
    /// the worker pool, so their declared footprints must be disjoint.
    /// The barrier at the end orders the whole epoch before everything
    /// that follows.
    ///
    /// Cost-model effect: every launch is charged to the serialized
    /// profile, but only the heaviest joined stream is charged to the
    /// critical path, so `modeled_time` reflects the overlap.
    ///
    /// # Panics
    ///
    /// Panics if a stream belongs to a different executor, or with the
    /// [`StaticHazard`](crate::StaticHazard) report when launches of two
    /// different streams have conflicting footprints.
    pub fn join(&self, streams: &mut [&mut Stream<'_, '_>]) {
        let batches: Vec<(u64, Vec<Pending<'_>>)> = streams
            .iter_mut()
            .map(|s| {
                assert!(
                    std::ptr::eq(s.exec, self),
                    "stream joined on a foreign executor"
                );
                (s.id, std::mem::take(&mut s.queue))
            })
            .collect();
        self.drain_streams(batches);
    }

    /// Runs stream batches: the execution engine behind [`Stream::sync`]
    /// and [`Executor::join`].
    fn drain_streams(&self, mut batches: Vec<(u64, Vec<Pending<'_>>)>) {
        batches.retain(|(_, queue)| !queue.is_empty());
        if batches.is_empty() {
            return;
        }
        let launches: u64 = batches.iter().map(|(_, q)| q.len() as u64).sum();
        let mut epoch = trace::span("stream", "stream.epoch");
        epoch.arg_u64("streams", batches.len() as u64);
        epoch.arg_u64("launches", launches);
        // Accounting is deterministic and up front — widths are known
        // before anything runs. Every launch lands in the serialized
        // profile; only the heaviest stream of this epoch lands on the
        // critical path (the others overlap it).
        let ordinals: Vec<Vec<u64>> = batches
            .iter()
            .map(|(_, queue)| queue.iter().map(|p| self.record(p.n, false)).collect())
            .collect();
        let heaviest = batches
            .iter()
            .enumerate()
            .max_by_key(|(i, entry)| {
                let width: u64 = entry.1.iter().map(|p| p.n as u64).sum();
                (width, std::cmp::Reverse(*i))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.record_critical_widths(batches[heaviest].1.iter().map(|p| p.n));

        // Static cross-stream check: any two launches on different
        // streams of this epoch are unordered, so their footprints must
        // be disjoint (write-vs-anything). This runs at the *exact*
        // runtime widths on every executor — raw included, where a
        // hazard cannot be demoted to a report because the launches are
        // about to race on real threads.
        for (i, (_, qa)) in batches.iter().enumerate() {
            for (_, qb) in batches.iter().skip(i + 1) {
                for pa in qa {
                    for pb in qb {
                        let hazards = effects::check_unordered(&pa.peer(), &pb.peer());
                        assert!(
                            hazards.is_empty(),
                            "static effect check failed for join epoch:\n{}",
                            effects::hazard_report(&hazards)
                        );
                    }
                }
            }
        }

        if let Some(san) = &self.sanitizer {
            // Audited epochs run serialized, stream by stream in join
            // order, logging the stream id of every launch so the
            // cross-launch analysis can tell ordered (same-stream) from
            // unordered (cross-stream) access pairs.
            let audit = san.begin_epoch();
            for ((stream, queue), ords) in batches.iter().zip(&ordinals) {
                for (pending, &ordinal) in queue.iter().zip(ords) {
                    let _span = trace::kernel_span(&pending.label, pending.n);
                    audit.run(
                        &pending.label,
                        ordinal,
                        *stream,
                        &pending.declared,
                        pending.n,
                        pending.kernel.as_ref(),
                    );
                }
            }
            return;
        }
        self.note_verified_launches(launches);
        if batches.len() == 1 {
            // A lone stream is an ordered chain: run each launch over the
            // full worker pool, exactly like eager launches.
            for pending in &batches[0].1 {
                let _span = trace::kernel_span(&pending.label, pending.n);
                self.run_chunked(pending.n, pending.kernel.as_ref());
            }
            return;
        }
        // Multiple streams: one driver per stream (capped at the pool
        // width), each draining its streams' launches in order. Streams
        // genuinely interleave; launches within a stream stay ordered.
        // When every launch is below the inline threshold the whole
        // epoch runs on the calling thread instead: any serial order that
        // respects per-stream queue order is a valid epoch schedule, and
        // spawning driver threads for sub-threshold launches is pure
        // overhead — the epoch-level face of the small-launch fast path.
        let all_inline = batches
            .iter()
            .all(|(_, queue)| queue.iter().all(|p| p.n < DEFAULT_INLINE_THRESHOLD));
        let drivers = if all_inline {
            1
        } else {
            self.num_threads.min(batches.len())
        };
        if drivers == 1 {
            for (_, queue) in &batches {
                queue.iter().for_each(Pending::run_inline);
            }
            return;
        }
        std::thread::scope(|scope| {
            for d in 0..drivers {
                let mine: Vec<&(u64, Vec<Pending<'_>>)> =
                    batches.iter().skip(d).step_by(drivers).collect();
                scope.spawn(move || {
                    // Spans recorded here land on the driver thread's own
                    // trace lane, so overlapped streams show up as
                    // genuinely parallel tracks in the viewer.
                    trace::set_thread_label(&format!("stream-driver-{d}"));
                    for (_, queue) in mine {
                        queue.iter().for_each(Pending::run_inline);
                    }
                });
            }
        });
    }
}
