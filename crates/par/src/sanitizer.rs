//! The kernel sanitizer: a `compute-sanitizer --tool racecheck` analogue
//! for the executor's kernel-launch model.
//!
//! Real CUDA development leans on `compute-sanitizer` to find kernel data
//! races; our substitution preserves the same failure mode — kernels
//! writing [`DeviceSlice`](crate::DeviceSlice) buffers under an *unchecked*
//! "each tid owns its slot" discipline — so it needs the same tooling.
//! Every launch carries a static effect proof, but the proof is about the
//! *declaration*; a sanitizing [`Executor`](crate::Executor) audits the
//! kernel against it. Every buffer access is logged as
//! `(buffer, index, virtual tid, kind)`; an access no declared footprint
//! covers is reported as it happens (**undeclared access**), and a
//! post-launch analysis of the log — which never looks at the
//! declaration, and is therefore the reference the static checker is
//! tested against — detects, per launch:
//!
//! * **write–write hazards** — two distinct tids wrote one slot;
//! * **read–write hazards** — one tid read a slot another tid wrote in the
//!   same launch (inter-launch reads are ordered by the launch barrier and
//!   are fine, exactly as on a GPU stream);
//! * **out-of-bounds accesses** — index past the bound buffer's length.
//!
//! The sanitizer also understands *ordering edges*: launches queued on
//! one [`Stream`](crate::Stream) are ordered by program order, and
//! synchronization points (`sync`, `join`, eager launches) are barriers
//! ordering everything before against everything after. Launches of
//! *different* streams inside one join epoch have no ordering edge, so
//! the analysis additionally reports
//!
//! * **stream races** — two unordered launches touched one slot and at
//!   least one wrote it.
//!
//! Sanitized launches execute *serialized* in tid order: hazards are
//! detected from the virtual-tid access log rather than by racing real
//! threads, so a detected race is never physically exercised as UB —
//! the same trade (speed for determinism) racecheck makes. Epochs of
//! different host threads sharing one executor take turns.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

use crate::effects::{DeclaredLaunch, EffectKind, Pattern};

/// The kind of a logged buffer access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A read of one slot.
    Read,
    /// A write of one slot.
    Write,
}

/// The kind of hazard a [`RaceReport`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two distinct tids wrote the same slot within one launch.
    WriteWrite {
        /// The two conflicting virtual thread ids.
        tids: (usize, usize),
    },
    /// A tid read a slot that a different tid wrote within the same
    /// launch, so the observed value depends on the schedule.
    ReadWrite {
        /// The reading and the writing virtual thread ids.
        tids: (usize, usize),
    },
    /// An access outside the bound buffer's length.
    OutOfBounds {
        /// The offending virtual thread id.
        tid: usize,
    },
    /// Two launches on *different streams* with no ordering edge between
    /// them (same join epoch) accessed one slot, at least one writing —
    /// a race even if each launch is internally disciplined. The earlier
    /// launch (in sanitizer serialization order) comes first in each pair.
    StreamRace {
        /// Access kinds of the (earlier, later) launch at this slot.
        kinds: (AccessKind, AccessKind),
        /// Stream ids of the (earlier, later) launch.
        streams: (u64, u64),
        /// Virtual thread ids of the (earlier, later) access.
        tids: (usize, usize),
    },
    /// A launch performed an access its declared footprints do not
    /// cover — the declaration under-approximates the kernel's real
    /// behavior, so the static checker's verdict for this launch is
    /// unsound.
    UndeclaredAccess {
        /// The offending virtual thread id.
        tid: usize,
        /// Whether the uncovered access was a read or a write.
        access: AccessKind,
    },
}

/// One hazard found by the sanitizer's post-launch analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Label of the kernel launch the hazard occurred in.
    pub kernel: String,
    /// Launch ordinal (1-based, counting all launches of the executor).
    pub launch: u64,
    /// Label of the buffer the hazard occurred on.
    pub buffer: String,
    /// Slot index of the hazard.
    pub index: usize,
    /// What went wrong, including the conflicting virtual thread ids.
    pub kind: ConflictKind,
    /// For stream races: label of the unordered peer launch (the earlier
    /// one in serialization order). `None` for intra-launch hazards.
    pub other_kernel: Option<String>,
}

impl RaceReport {
    /// The pair of conflicting virtual thread ids, when the hazard
    /// involves two threads.
    pub fn conflicting_tids(&self) -> Option<(usize, usize)> {
        match self.kind {
            ConflictKind::WriteWrite { tids }
            | ConflictKind::ReadWrite { tids }
            | ConflictKind::StreamRace { tids, .. } => Some(tids),
            ConflictKind::OutOfBounds { .. } | ConflictKind::UndeclaredAccess { .. } => None,
        }
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RaceReport {
            kernel,
            launch,
            buffer,
            index,
            kind,
            other_kernel,
        } = self;
        match kind {
            ConflictKind::WriteWrite { tids: (a, b) } => write!(
                f,
                "racecheck: write-write hazard on `{buffer}`[{index}] in kernel \
                 `{kernel}` (launch #{launch}): tids {a} and {b}"
            ),
            ConflictKind::ReadWrite { tids: (r, w) } => write!(
                f,
                "racecheck: read-write hazard on `{buffer}`[{index}] in kernel \
                 `{kernel}` (launch #{launch}): tid {r} read, tid {w} wrote"
            ),
            ConflictKind::OutOfBounds { tid } => write!(
                f,
                "racecheck: out-of-bounds access to `{buffer}`[{index}] in kernel \
                 `{kernel}` (launch #{launch}) by tid {tid}"
            ),
            ConflictKind::StreamRace {
                kinds: (a, b),
                streams: (sa, sb),
                tids: (ta, tb),
            } => {
                let peer = other_kernel.as_deref().unwrap_or("?");
                let verb = |k: &AccessKind| match k {
                    AccessKind::Read => "read",
                    AccessKind::Write => "wrote",
                };
                write!(
                    f,
                    "racecheck: stream race on `{buffer}`[{index}]: kernel `{peer}` \
                     (stream {sa}, tid {ta}) {} it and unordered kernel `{kernel}` \
                     (launch #{launch}, stream {sb}, tid {tb}) {} it — no ordering \
                     edge between the launches",
                    verb(a),
                    verb(b)
                )
            }
            ConflictKind::UndeclaredAccess { tid, access } => {
                let verb = match access {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                };
                write!(
                    f,
                    "racecheck: undeclared {verb} of `{buffer}`[{index}] in kernel \
                     `{kernel}` (launch #{launch}) by tid {tid}: the launch's declared \
                     effects do not cover this access"
                )
            }
        }
    }
}

/// Configuration of a sanitizing executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SanitizerConfig {
    /// Panic at the end of the first launch that produced hazard reports
    /// (like `compute-sanitizer --error-exitcode`). When `false`, reports
    /// accumulate for inspection via
    /// [`Executor::take_reports`](crate::Executor::take_reports).
    pub fail_fast: bool,
    /// Hard cap on retained reports, to bound memory on very racy kernels.
    pub max_reports: usize,
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig {
            fail_fast: true,
            max_reports: 64,
        }
    }
}

/// One logged access of one slot.
#[derive(Clone, Copy, Debug)]
struct AccessRecord {
    buffer: u32,
    index: usize,
    tid: usize,
    kind: AccessKind,
}

/// The launch currently executing under the sanitizer.
#[derive(Debug)]
struct LaunchCtx {
    label: String,
    ordinal: u64,
    /// Stream the launch was queued on (0 for eager launches).
    stream: u64,
    /// The launch's declared effects, resolved to the executor's dynamic
    /// buffer ids. Every logged access must be covered by some effect
    /// here.
    declared: HashMap<u32, Vec<(EffectKind, Pattern)>>,
}

/// First accesses of one slot accumulated across the launches of one
/// ordering epoch, for cross-stream (unordered-launch) race detection.
#[derive(Clone, Copy, Debug, Default)]
struct EpochSlot {
    /// `(epoch launch index, tid)` of the first write, if any.
    writer: Option<(usize, usize)>,
    /// `(epoch launch index, tid)` of the first read, if any.
    reader: Option<(usize, usize)>,
    /// One stream-race report per slot per epoch.
    reported: bool,
}

#[derive(Debug, Default)]
struct SanState {
    buffers: Vec<(String, usize)>,
    /// Host thread whose epoch is open (it holds the gate).
    epoch_owner: Option<ThreadId>,
    current: Option<LaunchCtx>,
    log: Vec<AccessRecord>,
    reports: Vec<RaceReport>,
    /// `(label, stream)` of every launch completed in the current epoch.
    epoch_launches: Vec<(String, u64)>,
    /// Per-slot first accesses across the current epoch's launches.
    epoch_slots: HashMap<(u32, usize), EpochSlot>,
}

/// Shared sanitizer state of one executor. All mutation goes through the
/// `state` mutex. An executor may be driven from several host threads at
/// once, but there is one access log and one open launch: the `gate` is
/// held from [`Sanitizer::begin_epoch`] to the end of the epoch's last
/// launch, so concurrent epochs run one after the other.
#[derive(Debug)]
pub(crate) struct Sanitizer {
    cfg: SanitizerConfig,
    state: Mutex<SanState>,
    gate: Mutex<()>,
}

/// One open ordering epoch of a [`Sanitizer`]; holds its gate.
pub(crate) struct Epoch<'a> {
    san: &'a Sanitizer,
    _gate: MutexGuard<'a, ()>,
}

impl Epoch<'_> {
    /// Runs one launch of the epoch serialized in tid order, logging its
    /// accesses, then analyzes the log. `stream` is the id of the stream
    /// the launch was queued on (0 for eager launches); launches of one
    /// epoch are mutually ordered only when they share a stream.
    pub(crate) fn run(
        &self,
        label: &str,
        ordinal: u64,
        stream: u64,
        declared: &DeclaredLaunch,
        n: usize,
        kernel: &(impl Fn(usize) + ?Sized),
    ) {
        self.san.begin_launch(label, ordinal, stream, declared);
        for tid in 0..n {
            kernel(tid);
        }
        self.san.end_launch();
    }
}

impl Drop for Epoch<'_> {
    fn drop(&mut self) {
        // Also on unwinding: a launch a panicking kernel left open is
        // discarded with its epoch. Runs before the gate is released.
        let mut s = self.san.lock();
        s.epoch_owner = None;
        s.current = None;
    }
}

impl Sanitizer {
    pub(crate) fn new(cfg: SanitizerConfig) -> Self {
        Sanitizer {
            cfg,
            state: Mutex::new(SanState::default()),
            gate: Mutex::new(()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SanState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a buffer binding and returns its id.
    pub(crate) fn register_buffer(&self, label: &str, len: usize) -> u32 {
        let mut s = self.lock();
        s.buffers.push((label.to_string(), len));
        (s.buffers.len() - 1) as u32
    }

    /// Opens a new ordering epoch: everything before is ordered against
    /// everything after (a synchronization barrier), so cross-launch
    /// state from the previous epoch is discarded. Called at every eager
    /// launch and at the start of every stream `sync`/`join`; blocks
    /// while another host thread's epoch is open.
    ///
    /// # Panics
    ///
    /// Panics when the calling thread already has an epoch open — a
    /// kernel launching a kernel.
    pub(crate) fn begin_epoch(&self) -> Epoch<'_> {
        let me = std::thread::current().id();
        let nested = self.lock().epoch_owner == Some(me);
        assert!(!nested, "sanitizer: nested kernel launch");
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let mut s = self.lock();
        s.epoch_owner = Some(me);
        s.epoch_launches.clear();
        s.epoch_slots.clear();
        Epoch {
            san: self,
            _gate: gate,
        }
    }

    /// Opens the per-launch access log and resolves the launch's static
    /// effect declarations for coverage auditing.
    fn begin_launch(&self, label: &str, ordinal: u64, stream: u64, declared: &DeclaredLaunch) {
        let mut s = self.lock();
        // Map each effect's declared buffer label to the *latest*
        // dynamic buffer registered under that label (re-binding a
        // label shadows earlier epochs, so the newest id is the live
        // one).
        let mut per_buffer: HashMap<u32, Vec<(EffectKind, Pattern)>> = HashMap::new();
        for e in declared.effects.iter() {
            let want = &declared.buffers[e.buf.0 as usize].label;
            let dynamic = s
                .buffers
                .iter()
                .rposition(|(label, _)| label == want)
                .unwrap_or_else(|| panic!("sanitizer: declared buffer '{want}' was never bound"))
                as u32;
            per_buffer
                .entry(dynamic)
                .or_default()
                .push((e.kind, e.pattern));
        }
        s.current = Some(LaunchCtx {
            label: label.to_string(),
            ordinal,
            stream,
            declared: per_buffer,
        });
        s.log.clear();
    }

    /// Logs a write. Returns `false` when the write is out of bounds and
    /// must not be performed (the hazard is reported instead; in
    /// `fail_fast` mode it panics).
    pub(crate) fn record_write(&self, buffer: u32, index: usize, tid: usize) -> bool {
        match self.record(buffer, index, tid, AccessKind::Write) {
            None => true,
            Some(report) => {
                if self.cfg.fail_fast {
                    panic!("{report}");
                }
                false
            }
        }
    }

    /// Logs a read.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds read regardless of `fail_fast`: unlike a
    /// skipped write, there is no value the read could return.
    pub(crate) fn record_read(&self, buffer: u32, index: usize, tid: usize) {
        if let Some(report) = self.record(buffer, index, tid, AccessKind::Read) {
            panic!("{report}");
        }
    }

    /// Logs one access; returns the report when it was out of bounds.
    fn record(
        &self,
        buffer: u32,
        index: usize,
        tid: usize,
        kind: AccessKind,
    ) -> Option<RaceReport> {
        let mut s = self.lock();
        let len = s.buffers[buffer as usize].1;
        if index >= len {
            let report = RaceReport {
                kernel: s
                    .current
                    .as_ref()
                    .map_or_else(String::new, |c| c.label.clone()),
                launch: s.current.as_ref().map_or(0, |c| c.ordinal),
                buffer: s.buffers[buffer as usize].0.clone(),
                index,
                kind: ConflictKind::OutOfBounds { tid },
                other_kernel: None,
            };
            if s.reports.len() < self.cfg.max_reports {
                s.reports.push(report.clone());
            }
            return Some(report);
        }
        // Accesses outside any launch (host-side pokes between epochs)
        // are ordered by the launch barriers and need no logging.
        let ctx = s.current.as_ref()?;
        // The launch's declaration must cover every access it performs.
        // An uncovered access is reported (and panics under fail_fast)
        // but is still *performed* — unlike OOB there is nothing unsafe
        // about it, only the declaration is wrong.
        let covered = ctx.declared.get(&buffer).is_some_and(|effects| {
            effects.iter().any(|(k, pattern)| {
                let kind_ok = match kind {
                    AccessKind::Read => matches!(k, EffectKind::Read | EffectKind::Atomic),
                    AccessKind::Write => matches!(k, EffectKind::Write | EffectKind::Atomic),
                };
                kind_ok && pattern.covers(tid, index)
            })
        });
        if !covered {
            let report = RaceReport {
                kernel: ctx.label.clone(),
                launch: ctx.ordinal,
                buffer: s.buffers[buffer as usize].0.clone(),
                index,
                kind: ConflictKind::UndeclaredAccess { tid, access: kind },
                other_kernel: None,
            };
            if s.reports.len() < self.cfg.max_reports {
                s.reports.push(report.clone());
            }
            if self.cfg.fail_fast {
                panic!("{report}");
            }
        }
        s.log.push(AccessRecord {
            buffer,
            index,
            tid,
            kind,
        });
        None
    }

    /// Closes the launch, runs the intra-launch hazard analysis over the
    /// access log and the cross-launch (stream-ordering) analysis against
    /// the epoch state, and (in `fail_fast` mode) panics on the first
    /// hazard found.
    fn end_launch(&self) {
        let mut s = self.lock();
        let ctx = s.current.take().expect("end_launch without begin_launch");
        let log = std::mem::take(&mut s.log);
        let mut new_reports = analyze(&ctx, &log, &s.buffers);
        new_reports.extend(epoch_analyze(&ctx, &log, &mut s));
        let first = new_reports.first().cloned();
        let room = self.cfg.max_reports.saturating_sub(s.reports.len());
        s.reports.extend(new_reports.into_iter().take(room));
        drop(s);
        if self.cfg.fail_fast {
            if let Some(report) = first {
                panic!("{report}");
            }
        }
    }

    /// Drains all accumulated reports.
    pub(crate) fn take_reports(&self) -> Vec<RaceReport> {
        std::mem::take(&mut self.lock().reports)
    }
}

/// Per-slot state accumulated while scanning a launch's access log.
#[derive(Clone, Copy, Debug, Default)]
struct SlotState {
    writer: Option<usize>,
    reader: Option<usize>,
    reported_ww: bool,
    reported_rw: bool,
}

/// Scans one launch's access log for hazards (at most one report of each
/// kind per slot, to keep racy kernels from flooding the report list).
fn analyze(ctx: &LaunchCtx, log: &[AccessRecord], buffers: &[(String, usize)]) -> Vec<RaceReport> {
    let mut slots: HashMap<(u32, usize), SlotState> = HashMap::new();
    let mut reports = Vec::new();
    let mut report = |buffer: u32, index: usize, kind: ConflictKind| {
        reports.push(RaceReport {
            kernel: ctx.label.clone(),
            launch: ctx.ordinal,
            buffer: buffers[buffer as usize].0.clone(),
            index,
            kind,
            other_kernel: None,
        });
    };
    for rec in log {
        let slot = slots.entry((rec.buffer, rec.index)).or_default();
        match rec.kind {
            AccessKind::Write => {
                match slot.writer {
                    Some(w) if w != rec.tid && !slot.reported_ww => {
                        slot.reported_ww = true;
                        report(
                            rec.buffer,
                            rec.index,
                            ConflictKind::WriteWrite { tids: (w, rec.tid) },
                        );
                    }
                    Some(_) => {}
                    None => slot.writer = Some(rec.tid),
                }
                if let Some(r) = slot.reader {
                    if r != rec.tid && !slot.reported_rw {
                        slot.reported_rw = true;
                        report(
                            rec.buffer,
                            rec.index,
                            ConflictKind::ReadWrite { tids: (r, rec.tid) },
                        );
                    }
                }
            }
            AccessKind::Read => {
                if let Some(w) = slot.writer {
                    if w != rec.tid && !slot.reported_rw {
                        slot.reported_rw = true;
                        report(
                            rec.buffer,
                            rec.index,
                            ConflictKind::ReadWrite { tids: (rec.tid, w) },
                        );
                    }
                }
                if slot.reader.is_none() {
                    slot.reader = Some(rec.tid);
                }
            }
        }
    }
    reports
}

/// Folds one finished launch into the epoch's cross-launch state and
/// reports conflicts with *unordered* earlier launches: launches of the
/// same epoch are ordered only when they share a stream (program order);
/// an access pair on different streams with at least one write is a
/// stream race. Epoch boundaries (eager launches, `sync`, `join`) clear
/// the state, encoding the barrier's happens-before edge.
fn epoch_analyze(ctx: &LaunchCtx, log: &[AccessRecord], s: &mut SanState) -> Vec<RaceReport> {
    // Summarize this launch: first writer / first reader per slot
    // (ordered map so report order is deterministic).
    let mut summary: BTreeMap<(u32, usize), (Option<usize>, Option<usize>)> = BTreeMap::new();
    for rec in log {
        let slot = summary.entry((rec.buffer, rec.index)).or_default();
        match rec.kind {
            AccessKind::Write => {
                if slot.0.is_none() {
                    slot.0 = Some(rec.tid);
                }
            }
            AccessKind::Read => {
                if slot.1.is_none() {
                    slot.1 = Some(rec.tid);
                }
            }
        }
    }
    let SanState {
        buffers,
        epoch_launches,
        epoch_slots,
        ..
    } = s;
    let launch_idx = epoch_launches.len();
    epoch_launches.push((ctx.label.clone(), ctx.stream));
    let mut reports = Vec::new();
    for (&(buffer, index), &(wrote, read)) in &summary {
        let slot = epoch_slots.entry((buffer, index)).or_default();
        // A conflict needs an earlier access from a *different stream*
        // with a write on at least one side. Prefer reporting against the
        // earlier writer, else the earlier reader.
        let peer = match (wrote, slot.writer, slot.reader) {
            (Some(_), Some(w), _) => Some((w, AccessKind::Write)),
            (Some(_), None, Some(r)) => Some((r, AccessKind::Read)),
            (None, Some(w), _) if read.is_some() => Some((w, AccessKind::Write)),
            _ => None,
        };
        if let Some(((peer_idx, peer_tid), peer_kind)) = peer {
            let (peer_label, peer_stream) = &epoch_launches[peer_idx];
            if *peer_stream != ctx.stream && !slot.reported {
                slot.reported = true;
                let this_kind = if wrote.is_some() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let this_tid = wrote.or(read).unwrap_or(0);
                reports.push(RaceReport {
                    kernel: ctx.label.clone(),
                    launch: ctx.ordinal,
                    buffer: buffers[buffer as usize].0.clone(),
                    index,
                    kind: ConflictKind::StreamRace {
                        kinds: (peer_kind, this_kind),
                        streams: (*peer_stream, ctx.stream),
                        tids: (peer_tid, this_tid),
                    },
                    other_kernel: Some(peer_label.clone()),
                });
            }
        }
        // Merge this launch's accesses (first access of the epoch wins).
        if let Some(tid) = wrote {
            if slot.writer.is_none() {
                slot.writer = Some((launch_idx, tid));
            }
        }
        if let Some(tid) = read {
            if slot.reader.is_none() {
                slot.reader = Some((launch_idx, tid));
            }
        }
    }
    reports
}
