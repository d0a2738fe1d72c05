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
//!   same launch;
//! * **out-of-bounds accesses** — index past the bound buffer's length.
//!
//! Every launch is a barrier, so accesses of two different launches are
//! always ordered and never a hazard; the analysis looks at one launch
//! at a time.
//!
//! Sanitized launches execute *serialized* in tid order: hazards are
//! detected from the virtual-tid access log rather than by racing real
//! threads, so a detected race is never physically exercised as UB —
//! the same trade (speed for determinism) racecheck makes. Launches of
//! different host threads sharing one executor take turns.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

use crate::effects::{BufferDecl, Effect, EffectKind, Pattern};

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
}

impl RaceReport {
    /// The pair of conflicting virtual thread ids, when the hazard
    /// involves two threads.
    pub fn conflicting_tids(&self) -> Option<(usize, usize)> {
        match self.kind {
            ConflictKind::WriteWrite { tids } | ConflictKind::ReadWrite { tids } => Some(tids),
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
    /// The launch's declared effects, resolved to the executor's dynamic
    /// buffer ids. Every logged access must be covered by some effect
    /// here.
    declared: HashMap<u32, Vec<(EffectKind, Pattern)>>,
}

#[derive(Debug, Default)]
struct SanState {
    buffers: Vec<(String, usize)>,
    /// Host thread whose launch is open (it holds the gate).
    owner: Option<ThreadId>,
    current: Option<LaunchCtx>,
    log: Vec<AccessRecord>,
    reports: Vec<RaceReport>,
}

/// Shared sanitizer state of one executor. All mutation goes through the
/// `state` mutex. An executor may be driven from several host threads at
/// once, but there is one access log and one open launch: the `gate` is
/// held for the whole of [`Sanitizer::run`], so concurrent launches run
/// one after the other.
#[derive(Debug)]
pub(crate) struct Sanitizer {
    cfg: SanitizerConfig,
    state: Mutex<SanState>,
    gate: Mutex<()>,
}

/// The open launch of a [`Sanitizer`]; holds its gate.
struct OpenLaunch<'a> {
    san: &'a Sanitizer,
    _gate: MutexGuard<'a, ()>,
}

impl Drop for OpenLaunch<'_> {
    fn drop(&mut self) {
        // Also on unwinding: a launch a panicking kernel left open is
        // discarded. Runs before the gate is released.
        let mut s = self.san.lock();
        s.owner = None;
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

    /// Runs one launch serialized in tid order, logging its accesses and
    /// auditing them against the declared `effects` over `buffers`, then
    /// analyzes the log. Blocks while another host thread's launch is
    /// open.
    ///
    /// # Panics
    ///
    /// Panics when the calling thread already has a launch open — a
    /// kernel launching a kernel.
    pub(crate) fn run(
        &self,
        label: &str,
        ordinal: u64,
        buffers: &[BufferDecl],
        effects: &[Effect],
        n: usize,
        kernel: &impl Fn(usize),
    ) {
        let me = std::thread::current().id();
        let nested = self.lock().owner == Some(me);
        assert!(!nested, "sanitizer: nested kernel launch");
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.lock().owner = Some(me);
        let _open = OpenLaunch {
            san: self,
            _gate: gate,
        };
        self.begin_launch(label, ordinal, buffers, effects);
        for tid in 0..n {
            kernel(tid);
        }
        self.end_launch();
    }

    /// Opens the per-launch access log and resolves the launch's static
    /// effect declarations for coverage auditing.
    fn begin_launch(&self, label: &str, ordinal: u64, buffers: &[BufferDecl], effects: &[Effect]) {
        let mut s = self.lock();
        // Map each effect's declared buffer label to the *latest*
        // dynamic buffer registered under that label (re-binding a
        // label shadows earlier bindings, so the newest id is the live
        // one).
        let mut per_buffer: HashMap<u32, Vec<(EffectKind, Pattern)>> = HashMap::new();
        for e in effects {
            let want = &buffers[e.buf.0 as usize].label;
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
            };
            if s.reports.len() < self.cfg.max_reports {
                s.reports.push(report.clone());
            }
            return Some(report);
        }
        // Accesses outside any launch (host-side pokes between launches)
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

    /// Closes the launch, runs the hazard analysis over its access log
    /// and (in `fail_fast` mode) panics on the first hazard found.
    fn end_launch(&self) {
        let mut s = self.lock();
        let ctx = s.current.take().expect("end_launch without begin_launch");
        let log = std::mem::take(&mut s.log);
        let new_reports = analyze(&ctx, &log, &s.buffers);
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
