//! Static effect analysis for kernel launches.
//!
//! Kernels declare their read/write footprints over labeled device
//! buffers as small symbolic summaries (per-tid affine patterns, index
//! ranges, whole-buffer). A static checker then proves, before a launch
//! runs, the same properties the dynamic sanitizer would re-validate
//! access by access: write-write and read-write disjointness between
//! threads and between unordered launches, and in-bounds access. A
//! launch runs in parallel only with that proof; a sanitizing executor
//! re-checks it dynamically instead.
//!
//! The declaration grammar is deliberately tiny. Every footprint is one
//! of:
//!
//! * [`Pattern::Affine`] — thread `t` touches `base + t*stride ..
//!   base + t*stride + span`. This covers the common "each thread owns
//!   a fixed-size cell" layout exactly, and disjointness between two
//!   affine patterns is decided with closed-form integer arithmetic
//!   (no enumeration) when strides match, or a bounded scan otherwise.
//! * [`Pattern::Range`] — every thread may touch `lo..hi`. Used for
//!   broadcast reads and for footprints that depend on data, bounded
//!   by a statically known window.
//! * [`Pattern::All`] — the whole buffer. The coarsest summary.
//! * [`Pattern::Indexed`] — a data-dependent *disjoint-chunks*
//!   contract: threads touch disjoint sub-ranges of `lo..hi` chosen by
//!   runtime data (e.g. "thread `t` writes the slot of node
//!   `group[t]`"). The static checker trusts the intra-launch
//!   disjointness (it cannot see the index data) but still uses the
//!   `lo..hi` envelope against *other* launches and for bounds checks.
//!   A sanitizing executor exists precisely so this trust is audited:
//!   every access a kernel actually performs must fall inside a declared
//!   pattern.
//!
//! Buffers live in an [`EffectTable`]: a per-epoch registry mapping a
//! stable label and length to a [`BufId`]. Bind real storage to a
//! declaration with [`Executor::bind_table`](crate::Executor::bind_table)
//! and launch with declared effects via
//! [`Executor::launch_declared`](crate::Executor::launch_declared) or
//! [`Stream::launch_declared`](crate::Stream::launch_declared);
//! [`EffectTable::check`] runs the per-launch checks without launching.

use std::fmt;
use std::sync::{Arc, Mutex};

/// Handle to a buffer declared in an [`EffectTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufId(pub(crate) u32);

/// One declared buffer: a stable label plus its element length.
#[derive(Clone, Debug)]
pub(crate) struct BufferDecl {
    pub(crate) label: String,
    pub(crate) len: usize,
}

/// Registry of declared buffers for one epoch.
///
/// Cheap to clone (shared interior). Labels should be unique within a
/// table; cross-launch conflict checks identify buffers by label so two
/// tables naming the same storage agree.
#[derive(Clone, Default)]
pub struct EffectTable {
    buffers: Arc<Mutex<Vec<BufferDecl>>>,
}

impl EffectTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a buffer with a stable `label` and element `len`,
    /// returning its handle for use in [`Effect`]s.
    pub fn buffer(&self, label: &str, len: usize) -> BufId {
        let mut bufs = self.buffers.lock().unwrap();
        let id = BufId(bufs.len() as u32);
        bufs.push(BufferDecl {
            label: label.to_string(),
            len,
        });
        id
    }

    /// The declared element length of `buf`.
    pub fn len_of(&self, buf: BufId) -> usize {
        self.buffers.lock().unwrap()[buf.0 as usize].len
    }

    /// The declared label of `buf`.
    pub fn label_of(&self, buf: BufId) -> String {
        self.buffers.lock().unwrap()[buf.0 as usize].label.clone()
    }

    /// The static checker's findings for one launch of `label` at
    /// `width` with `effects` over this table's buffers: out-of-bounds
    /// footprints and write-write / read-write overlap between threads.
    /// Empty when the declaration is clean — exactly when
    /// [`Executor::launch_declared`](crate::Executor::launch_declared)
    /// would run it instead of panicking.
    pub fn check(&self, label: &str, width: usize, effects: &[Effect]) -> Vec<StaticHazard> {
        check_launch(label, width, effects, &self.snapshot())
    }

    /// A point-in-time copy of all declarations.
    pub(crate) fn snapshot(&self) -> Arc<Vec<BufferDecl>> {
        Arc::new(self.buffers.lock().unwrap().clone())
    }
}

impl fmt::Debug for EffectTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bufs = self.buffers.lock().unwrap();
        f.debug_struct("EffectTable")
            .field("buffers", &bufs.len())
            .finish()
    }
}

/// Symbolic per-launch access footprint over one buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Thread `t` accesses `base + t*stride .. base + t*stride + span`.
    Affine {
        /// First index touched by thread 0.
        base: usize,
        /// Index distance between consecutive threads' footprints.
        stride: usize,
        /// Contiguous elements each thread touches (0 = nothing).
        span: usize,
    },
    /// Every thread may access any index in `lo..hi`.
    Range {
        /// Inclusive lower bound.
        lo: usize,
        /// Exclusive upper bound.
        hi: usize,
    },
    /// Every thread may access the whole buffer.
    All,
    /// Data-dependent disjoint chunks inside `lo..hi`: threads touch
    /// runtime-chosen, pairwise-disjoint sub-ranges. Intra-launch
    /// disjointness is a *trusted contract* (audited by a sanitizing
    /// executor); the envelope is still used for bounds and cross-launch
    /// conflict checks.
    Indexed {
        /// Inclusive lower bound of the envelope.
        lo: usize,
        /// Exclusive upper bound of the envelope.
        hi: usize,
    },
}

impl Pattern {
    /// Whether thread `tid`'s declared footprint includes `index`.
    pub(crate) fn covers(&self, tid: usize, index: usize) -> bool {
        match *self {
            Pattern::Affine { base, stride, span } => {
                let lo = base.saturating_add(tid.saturating_mul(stride));
                index >= lo && index < lo.saturating_add(span)
            }
            Pattern::Range { lo, hi } | Pattern::Indexed { lo, hi } => index >= lo && index < hi,
            Pattern::All => true,
        }
    }

    /// `Some(end)` = one past the highest index any of `width` threads
    /// may touch; `None` = empty or whole-buffer (no static bound).
    fn max_end(&self, width: usize) -> Option<usize> {
        match *self {
            Pattern::Affine { base, stride, span } => {
                if span == 0 || width == 0 {
                    None
                } else {
                    Some(
                        base.saturating_add((width - 1).saturating_mul(stride))
                            .saturating_add(span),
                    )
                }
            }
            Pattern::Range { lo, hi } | Pattern::Indexed { lo, hi } => (hi > lo).then_some(hi),
            Pattern::All => None,
        }
    }

    /// The inclusive-exclusive index interval `[lo, hi)` this pattern
    /// may touch with `width` threads over a buffer of `len` elements,
    /// or `None` if it touches nothing.
    fn footprint(&self, width: usize, len: usize) -> Option<(usize, usize)> {
        match *self {
            Pattern::Affine { base, stride, span } => {
                if span == 0 || width == 0 {
                    None
                } else {
                    Some((
                        base,
                        base.saturating_add((width - 1).saturating_mul(stride))
                            .saturating_add(span),
                    ))
                }
            }
            Pattern::Range { lo, hi } | Pattern::Indexed { lo, hi } => {
                (hi > lo).then_some((lo, hi))
            }
            Pattern::All => (len > 0).then_some((0, len)),
        }
    }
}

/// How a declared effect touches its buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EffectKind {
    /// Reads only.
    Read,
    /// Plain (non-atomic) writes; conflicts with everything overlapping.
    Write,
    /// Atomic read-modify-write (reduction); two atomics to the same
    /// slot commute, but an atomic still conflicts with plain reads
    /// and writes.
    Atomic,
}

/// One declared access: a buffer, a kind, and a footprint pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Effect {
    /// The buffer touched.
    pub buf: BufId,
    /// Read, write, or atomic.
    pub kind: EffectKind,
    /// The symbolic footprint.
    pub pattern: Pattern,
}

impl Effect {
    /// A read effect.
    pub fn read(buf: BufId, pattern: Pattern) -> Self {
        Effect {
            buf,
            kind: EffectKind::Read,
            pattern,
        }
    }

    /// A plain-write effect.
    pub fn write(buf: BufId, pattern: Pattern) -> Self {
        Effect {
            buf,
            kind: EffectKind::Write,
            pattern,
        }
    }

    /// An atomic (reduction) effect.
    pub fn atomic(buf: BufId, pattern: Pattern) -> Self {
        Effect {
            buf,
            kind: EffectKind::Atomic,
            pattern,
        }
    }

    pub(crate) fn is_write(&self) -> bool {
        matches!(self.kind, EffectKind::Write | EffectKind::Atomic)
    }
}

/// A hazard found by the static checker — the static analogue of a
/// dynamic [`ConflictKind`](crate::ConflictKind).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaticHazard {
    /// Two threads of one launch may write the same index.
    WriteWrite {
        /// Label of the offending kernel.
        kernel: String,
        /// Label of the buffer.
        buffer: String,
    },
    /// A read and a write of one launch may touch the same index from
    /// different threads.
    ReadWrite {
        /// Label of the offending kernel.
        kernel: String,
        /// Label of the buffer.
        buffer: String,
    },
    /// A declared footprint extends past the buffer's declared length.
    OutOfBounds {
        /// Label of the offending kernel.
        kernel: String,
        /// Label of the buffer.
        buffer: String,
        /// One past the highest index the footprint may touch.
        needed: usize,
        /// The buffer's declared length.
        len: usize,
    },
    /// Two launches on different streams of one join epoch (not ordered
    /// by stream program order) have conflicting footprints — the static
    /// analogue of [`ConflictKind::StreamRace`](crate::ConflictKind::StreamRace).
    UnorderedConflict {
        /// Labels of the two unordered kernels.
        kernels: (String, String),
        /// Label of the buffer.
        buffer: String,
    },
}

impl fmt::Display for StaticHazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticHazard::WriteWrite { kernel, buffer } => write!(
                f,
                "static-check: possible write-write overlap between threads of kernel '{kernel}' on buffer '{buffer}'"
            ),
            StaticHazard::ReadWrite { kernel, buffer } => write!(
                f,
                "static-check: possible read-write overlap between threads of kernel '{kernel}' on buffer '{buffer}'"
            ),
            StaticHazard::OutOfBounds {
                kernel,
                buffer,
                needed,
                len,
            } => write!(
                f,
                "static-check: kernel '{kernel}' may access index {} of buffer '{buffer}' (len {len})",
                needed - 1
            ),
            StaticHazard::UnorderedConflict { kernels, buffer } => write!(
                f,
                "static-check: unordered kernels '{}' and '{}' have conflicting footprints on buffer '{}'",
                kernels.0, kernels.1, buffer
            ),
        }
    }
}

/// Renders the static checker's findings for a panic message, one per
/// line.
pub(crate) fn hazard_report(hazards: &[StaticHazard]) -> String {
    hazards
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Declarations carried by one pending launch: a snapshot of the table
/// plus the launch's effects. Used by the cross-stream check at epoch
/// drain and by the dynamic sanitizer to audit coverage.
#[derive(Clone)]
pub(crate) struct DeclaredLaunch {
    pub(crate) buffers: Arc<Vec<BufferDecl>>,
    pub(crate) effects: Arc<Vec<Effect>>,
}

/// One side of a cross-launch conflict check.
pub(crate) struct DeclaredPeer<'a> {
    pub(crate) label: &'a str,
    pub(crate) width: usize,
    pub(crate) buffers: &'a [BufferDecl],
    pub(crate) effects: &'a [Effect],
}

/// Checks one launch's declared effects in isolation: static bounds
/// plus intra-launch (thread-vs-thread) write-write / read-write
/// disjointness at the given `width`.
pub(crate) fn check_launch(
    label: &str,
    width: usize,
    effects: &[Effect],
    buffers: &[BufferDecl],
) -> Vec<StaticHazard> {
    let mut hazards = Vec::new();
    if width == 0 {
        return hazards;
    }
    for e in effects {
        let decl = &buffers[e.buf.0 as usize];
        if let Some(needed) = e.pattern.max_end(width) {
            if needed > decl.len {
                hazards.push(StaticHazard::OutOfBounds {
                    kernel: label.to_string(),
                    buffer: decl.label.clone(),
                    needed,
                    len: decl.len,
                });
            }
        }
    }
    for (i, a) in effects.iter().enumerate() {
        for b in &effects[i..] {
            if a.buf != b.buf || (!a.is_write() && !b.is_write()) {
                continue;
            }
            // Two atomics to the same slot commute.
            if a.kind == EffectKind::Atomic && b.kind == EffectKind::Atomic {
                continue;
            }
            // Indexed patterns carry a trusted intra-launch
            // disjointness contract — skip thread-vs-thread checks.
            if matches!(a.pattern, Pattern::Indexed { .. })
                || matches!(b.pattern, Pattern::Indexed { .. })
            {
                continue;
            }
            let decl = &buffers[a.buf.0 as usize];
            // Self-pair (a vs a) and distinct writes both use the
            // diagonal-excluded check: thread t racing with itself is
            // not a race.
            let same = std::ptr::eq(a, b);
            let overlap = pair_overlaps(&a.pattern, &b.pattern, width, width, true, decl.len);
            if !overlap {
                continue;
            }
            if a.is_write() && b.is_write() {
                hazards.push(StaticHazard::WriteWrite {
                    kernel: label.to_string(),
                    buffer: decl.label.clone(),
                });
            } else if !same {
                hazards.push(StaticHazard::ReadWrite {
                    kernel: label.to_string(),
                    buffer: decl.label.clone(),
                });
            }
        }
    }
    hazards
}

/// Checks two *unordered* launches against each other: any overlap
/// between a write of one and any access of the other is a hazard.
/// Buffers are matched by label so the two peers may use different
/// tables. At most one hazard is reported per pair.
pub(crate) fn check_unordered(a: &DeclaredPeer<'_>, b: &DeclaredPeer<'_>) -> Vec<StaticHazard> {
    if a.width == 0 || b.width == 0 {
        return Vec::new();
    }
    for ea in a.effects {
        let da = &a.buffers[ea.buf.0 as usize];
        for eb in b.effects {
            let db = &b.buffers[eb.buf.0 as usize];
            if da.label != db.label {
                continue;
            }
            if !ea.is_write() && !eb.is_write() {
                continue;
            }
            if ea.kind == EffectKind::Atomic && eb.kind == EffectKind::Atomic {
                continue;
            }
            // Cross-launch checks never exclude the diagonal (thread t
            // of launch A vs thread t of launch B are distinct
            // threads), and Indexed contracts only promise
            // disjointness *within* a launch, so only the envelope is
            // usable here — which `pair_overlaps` already does via
            // `footprint` for non-affine patterns.
            if pair_overlaps(&ea.pattern, &eb.pattern, a.width, b.width, false, da.len) {
                return vec![StaticHazard::UnorderedConflict {
                    kernels: (a.label.to_string(), b.label.to_string()),
                    buffer: da.label.clone(),
                }];
            }
        }
    }
    Vec::new()
}

/// Whether two patterns over the same buffer may touch a common index.
/// `exclude_diag` restricts to *distinct* thread pairs (intra-launch
/// checks, where thread t cannot race itself).
fn pair_overlaps(
    pa: &Pattern,
    pb: &Pattern,
    wa: usize,
    wb: usize,
    exclude_diag: bool,
    buf_len: usize,
) -> bool {
    if let (
        &Pattern::Affine {
            base: ba,
            stride: sa,
            span: spa,
        },
        &Pattern::Affine {
            base: bb,
            stride: sb,
            span: spb,
        },
    ) = (pa, pb)
    {
        return affine_overlap(
            ba as i128,
            sa as i128,
            spa as i128,
            wa as i128,
            bb as i128,
            sb as i128,
            spb as i128,
            wb as i128,
            exclude_diag,
        );
    }
    let fa = match pa.footprint(wa, buf_len) {
        Some(f) => f,
        None => return false,
    };
    let fb = match pb.footprint(wb, buf_len) {
        Some(f) => f,
        None => return false,
    };
    let intersects = fa.0 < fb.1 && fb.0 < fa.1;
    // With interval-level precision we can't tell same-thread overlap
    // from cross-thread overlap; a single-thread launch touching a
    // shared range only via the diagonal is the one case we can clear.
    intersects && (!exclude_diag || wa > 1 || wb > 1)
}

/// Exact (or conservatively bounded) overlap test between two affine
/// footprints: does there exist `t in 0..wa`, `u in 0..wb` (with `t !=
/// u` when `exclude_diag`) such that `[ba+t*sa, +spa)` and `[bb+u*sb,
/// +spb)` intersect?
///
/// Intersection condition: `-spb < (ba - bb) + t*sa - u*sb < spa`.
#[allow(clippy::too_many_arguments)]
fn affine_overlap(
    ba: i128,
    sa: i128,
    spa: i128,
    wa: i128,
    bb: i128,
    sb: i128,
    spb: i128,
    wb: i128,
    exclude_diag: bool,
) -> bool {
    if spa == 0 || spb == 0 || wa == 0 || wb == 0 {
        return false;
    }
    let d = ba - bb;
    if sa == sb {
        // Equal strides s: let k = t - u, k in [-(wb-1), wa-1].
        // Overlap of [ba+s*t, +spa) and [bb+s*u, +spb) needs
        // start_a < end_b and start_b < end_a: -spa < d + k*s < spb.
        let s = sa;
        let (klo, khi) = (-(wb - 1), wa - 1);
        if s == 0 {
            let hit = -spa < d && d < spb;
            // Every (t, u) pair gives the same condition; an
            // off-diagonal pair exists iff some launch has width > 1.
            return hit && (!exclude_diag || wa > 1 || wb > 1);
        }
        // k in ((-spa - d)/s, (spb - d)/s) intersected with [klo, khi];
        // a negative s flips the interval: (d - spb, d + spa) over |s|.
        let (lo_num, hi_num) = if s > 0 {
            (-spa - d, spb - d)
        } else {
            (d - spb, d + spa)
        };
        let s_abs = s.abs();
        // Open interval (lo_num/s_abs, hi_num/s_abs): smallest integer
        // strictly above, largest strictly below.
        let lo = lo_num.div_euclid(s_abs) + 1;
        let hi = if hi_num.rem_euclid(s_abs) == 0 {
            hi_num / s_abs - 1
        } else {
            hi_num.div_euclid(s_abs)
        };
        let lo = lo.max(klo);
        let hi = hi.min(khi);
        if lo > hi {
            return false;
        }
        // exclude_diag removes only k == 0.
        !(exclude_diag && lo == 0 && hi == 0)
    } else {
        // Unequal strides: bounded scan of the narrower launch.
        const CAP: i128 = 1 << 16;
        let (ba, sa, spa, wa, bb, sb, spb, wb) = if wa <= wb {
            (ba, sa, spa, wa, bb, sb, spb, wb)
        } else {
            (bb, sb, spb, wb, ba, sa, spa, wa)
        };
        if wa > CAP {
            return true; // conservative: too wide to scan
        }
        let d = ba - bb;
        for t in 0..wa {
            // Need u with u*sb in (c - spb, c + spa), u in [0, wb-1]
            // (start_a < end_b and start_b < end_a for the two slabs).
            let c = d + t * sa;
            let (ulo, uhi) = if sb == 0 {
                if -spa < c && c < spb {
                    (0, wb - 1)
                } else {
                    continue;
                }
            } else {
                let (lo_num, hi_num) = if sb > 0 {
                    (c - spb, c + spa)
                } else {
                    (-c - spa, spb - c)
                };
                let sb_abs = sb.abs();
                let ulo = lo_num.div_euclid(sb_abs) + 1;
                let uhi = if hi_num.rem_euclid(sb_abs) == 0 {
                    hi_num / sb_abs - 1
                } else {
                    hi_num.div_euclid(sb_abs)
                };
                (ulo.max(0), uhi.min(wb - 1))
            };
            if ulo > uhi {
                continue;
            }
            if exclude_diag && ulo == t && uhi == t {
                continue; // only the diagonal pair overlaps
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aff(base: usize, stride: usize, span: usize) -> Pattern {
        Pattern::Affine { base, stride, span }
    }

    fn overlaps(pa: Pattern, pb: Pattern, wa: usize, wb: usize, exclude_diag: bool) -> bool {
        pair_overlaps(&pa, &pb, wa, wb, exclude_diag, usize::MAX)
    }

    /// Brute-force oracle for the affine math.
    fn brute(pa: Pattern, pb: Pattern, wa: usize, wb: usize, exclude_diag: bool) -> bool {
        let idx = |p: &Pattern, t: usize| -> (usize, usize) {
            match *p {
                Pattern::Affine { base, stride, span } => (base + t * stride, span),
                _ => unreachable!(),
            }
        };
        for t in 0..wa {
            for u in 0..wb {
                if exclude_diag && t == u {
                    continue;
                }
                let (la, spa) = idx(&pa, t);
                let (lb, spb) = idx(&pb, u);
                if la < lb + spb && lb < la + spa {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn affine_self_disjoint_when_stride_covers_span() {
        // stride == span: each thread owns its own cell.
        assert!(!overlaps(aff(0, 4, 4), aff(0, 4, 4), 16, 16, true));
        // stride > span: gaps between cells.
        assert!(!overlaps(aff(0, 8, 4), aff(0, 8, 4), 16, 16, true));
        // stride < span: neighbors collide.
        assert!(overlaps(aff(0, 2, 4), aff(0, 2, 4), 16, 16, true));
    }

    #[test]
    fn affine_offset_copies_collide_cross_thread() {
        // read at t, write at t+1 (same stride, shifted base).
        assert!(overlaps(aff(0, 1, 1), aff(1, 1, 1), 8, 8, true));
        // but a shift of a full window stays disjoint.
        assert!(!overlaps(aff(0, 1, 1), aff(100, 1, 1), 8, 8, true));
    }

    #[test]
    fn diagonal_exclusion_clears_same_slot_read_write() {
        // Each thread reads and writes its own cell: overlap only on
        // the diagonal, which is not a race.
        assert!(!overlaps(aff(0, 4, 4), aff(0, 4, 4), 16, 16, true));
        assert!(overlaps(aff(0, 4, 4), aff(0, 4, 4), 16, 16, false));
    }

    #[test]
    fn zero_span_and_zero_width_never_overlap() {
        assert!(!overlaps(aff(0, 1, 0), aff(0, 1, 1), 8, 8, false));
        assert!(!overlaps(aff(0, 1, 1), aff(0, 1, 1), 0, 8, false));
    }

    #[test]
    fn zero_stride_broadcast() {
        // All threads hit the same cell: WW hazard if width > 1.
        assert!(overlaps(aff(5, 0, 1), aff(5, 0, 1), 4, 4, true));
        assert!(!overlaps(aff(5, 0, 1), aff(5, 0, 1), 1, 1, true));
        assert!(!overlaps(aff(5, 0, 1), aff(6, 0, 1), 4, 4, false));
    }

    #[test]
    fn unequal_strides_scan_matches_brute_force() {
        let cases = [
            (aff(0, 3, 1), aff(0, 5, 1), 10, 10),
            (aff(1, 3, 2), aff(0, 7, 1), 12, 6),
            (aff(0, 2, 2), aff(1, 3, 1), 9, 9),
            (aff(4, 6, 2), aff(0, 4, 3), 7, 11),
            (aff(0, 10, 1), aff(5, 7, 1), 8, 8),
        ];
        for (pa, pb, wa, wb) in cases {
            for ed in [false, true] {
                assert_eq!(
                    overlaps(pa, pb, wa, wb, ed),
                    brute(pa, pb, wa, wb, ed),
                    "{pa:?} vs {pb:?} w=({wa},{wb}) ed={ed}"
                );
            }
        }
    }

    #[test]
    fn equal_strides_closed_form_matches_brute_force() {
        let cases = [
            (aff(0, 4, 4), aff(2, 4, 4), 8, 8),
            (aff(0, 4, 2), aff(2, 4, 2), 8, 8),
            (aff(3, 5, 5), aff(0, 5, 3), 6, 10),
            (aff(0, 1, 1), aff(3, 1, 1), 4, 4),
            (aff(0, 1, 1), aff(3, 1, 1), 8, 4),
        ];
        for (pa, pb, wa, wb) in cases {
            for ed in [false, true] {
                assert_eq!(
                    overlaps(pa, pb, wa, wb, ed),
                    brute(pa, pb, wa, wb, ed),
                    "{pa:?} vs {pb:?} w=({wa},{wb}) ed={ed}"
                );
            }
        }
    }

    #[test]
    fn range_and_all_use_interval_footprints() {
        let r = Pattern::Range { lo: 10, hi: 20 };
        assert!(overlaps(r, aff(15, 1, 1), 4, 4, false));
        assert!(!overlaps(r, aff(20, 1, 1), 4, 4, false));
        assert!(pair_overlaps(&Pattern::All, &r, 2, 2, false, 100));
        // Empty buffer: All touches nothing.
        assert!(!pair_overlaps(&Pattern::All, &r, 2, 2, false, 0));
    }

    #[test]
    fn check_launch_flags_each_class() {
        let table = EffectTable::new();
        let buf = table.buffer("b", 16);
        let bufs = table.snapshot();
        // OOB: 8 threads x stride 4 needs 32 > 16.
        let h = check_launch("k", 8, &[Effect::write(buf, aff(0, 4, 4))], &bufs);
        assert!(
            matches!(
                h[0],
                StaticHazard::OutOfBounds {
                    needed: 32,
                    len: 16,
                    ..
                }
            ),
            "{h:?}"
        );
        // WW: overlapping strided writes.
        let h = check_launch("k", 4, &[Effect::write(buf, aff(0, 2, 4))], &bufs);
        assert!(
            h.iter()
                .any(|h| matches!(h, StaticHazard::WriteWrite { .. })),
            "{h:?}"
        );
        // RW: read shifted against write.
        let h = check_launch(
            "k",
            4,
            &[
                Effect::read(buf, aff(0, 1, 1)),
                Effect::write(buf, aff(1, 1, 1)),
            ],
            &bufs,
        );
        assert!(
            h.iter()
                .any(|h| matches!(h, StaticHazard::ReadWrite { .. })),
            "{h:?}"
        );
        // Clean: own-cell read+write.
        let h = check_launch(
            "k",
            4,
            &[
                Effect::read(buf, aff(0, 4, 4)),
                Effect::write(buf, aff(0, 4, 4)),
            ],
            &bufs,
        );
        assert!(h.is_empty(), "{h:?}");
        // Atomics commute.
        let h = check_launch("k", 4, &[Effect::atomic(buf, aff(0, 0, 1))], &bufs);
        assert!(h.is_empty(), "{h:?}");
        // Indexed is trusted intra-launch.
        let h = check_launch(
            "k",
            4,
            &[Effect::write(buf, Pattern::Indexed { lo: 0, hi: 16 })],
            &bufs,
        );
        assert!(h.is_empty(), "{h:?}");
        // Width 0 launches nothing.
        let h = check_launch("k", 0, &[Effect::write(buf, aff(0, 0, 1))], &bufs);
        assert!(h.is_empty(), "{h:?}");
    }

    #[test]
    fn check_unordered_matches_by_label_and_reports_once() {
        let ta = EffectTable::new();
        let a = ta.buffer("shared", 64);
        let tb = EffectTable::new();
        let b = tb.buffer("shared", 64);
        let other = tb.buffer("other", 64);
        let sa = ta.snapshot();
        let sb = tb.snapshot();
        let pa = DeclaredPeer {
            label: "a",
            width: 8,
            buffers: &sa,
            effects: &[Effect::write(a, aff(0, 1, 1))],
        };
        let pb = DeclaredPeer {
            label: "b",
            width: 8,
            buffers: &sb,
            effects: &[
                Effect::read(b, aff(0, 1, 1)),
                Effect::write(b, aff(0, 1, 1)),
                Effect::write(other, aff(0, 1, 1)),
            ],
        };
        let h = check_unordered(&pa, &pb);
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(
            matches!(&h[0], StaticHazard::UnorderedConflict { buffer, .. } if buffer == "shared")
        );
        // Disjoint halves of one buffer: clean.
        let pc = DeclaredPeer {
            label: "c",
            width: 8,
            buffers: &sb,
            effects: &[Effect::write(b, aff(32, 1, 1))],
        };
        assert!(check_unordered(&pa, &pc).is_empty());
        // Read-read never conflicts.
        let pr1 = DeclaredPeer {
            label: "r1",
            width: 8,
            buffers: &sa,
            effects: &[Effect::read(a, Pattern::All)],
        };
        let pr2 = DeclaredPeer {
            label: "r2",
            width: 8,
            buffers: &sb,
            effects: &[Effect::read(b, Pattern::All)],
        };
        assert!(check_unordered(&pr1, &pr2).is_empty());
        // Indexed envelopes do conflict across launches.
        let pi = DeclaredPeer {
            label: "i",
            width: 8,
            buffers: &sb,
            effects: &[Effect::write(b, Pattern::Indexed { lo: 0, hi: 64 })],
        };
        assert_eq!(check_unordered(&pa, &pi).len(), 1);
    }

    #[test]
    fn covers_matches_pattern_semantics() {
        let p = aff(2, 4, 2);
        assert!(p.covers(0, 2) && p.covers(0, 3) && !p.covers(0, 4));
        assert!(p.covers(1, 6) && !p.covers(1, 2));
        let r = Pattern::Indexed { lo: 5, hi: 9 };
        assert!(r.covers(3, 5) && r.covers(0, 8) && !r.covers(0, 9));
        assert!(Pattern::All.covers(7, 123456));
    }
}
