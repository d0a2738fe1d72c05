//! Static effect analysis for kernel launches.
//!
//! Kernels declare their read/write footprints over labeled device
//! buffers as small symbolic summaries (per-tid affine patterns, index
//! ranges, whole-buffer). A static checker then proves, before a launch
//! runs, the same properties the dynamic sanitizer would re-validate
//! access by access: write-write and read-write disjointness between the
//! threads of one launch, and in-bounds access. Two launches never need
//! a check against each other: every launch is a barrier. A launch runs
//! in parallel only with that proof; a sanitizing executor re-checks it
//! dynamically instead.
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
//!   `lo..hi` envelope for bounds checks.
//!   A sanitizing executor exists precisely so this trust is audited:
//!   every access a kernel actually performs must fall inside a declared
//!   pattern.
//!
//! Buffers live in an [`EffectTable`]: a registry mapping a stable label
//! and length to a [`BufId`]. Bind real storage to a declaration with
//! [`Executor::bind_table`](crate::Executor::bind_table) and launch with
//! declared effects via
//! [`Executor::launch_declared`](crate::Executor::launch_declared);
//! [`EffectTable::check`] runs the same checks without launching.

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

/// Registry of declared buffers.
///
/// Cheap to clone (shared interior). Labels should be unique within a
/// table: a sanitizing executor matches declared effects to bound
/// storage by label.
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
    pub(crate) fn snapshot(&self) -> Vec<BufferDecl> {
        self.buffers.lock().unwrap().clone()
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
    /// executor); the envelope is still used for bounds checks.
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
            // Self-pair (a vs a) and distinct writes alike: only distinct
            // threads can race, thread t never races itself.
            let same = std::ptr::eq(a, b);
            if !pair_overlaps(&a.pattern, &b.pattern, width, decl.len) {
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

/// Whether two patterns over the same buffer, in one launch of `width`
/// threads, may touch a common index from two *distinct* threads (thread
/// t cannot race itself).
fn pair_overlaps(pa: &Pattern, pb: &Pattern, width: usize, buf_len: usize) -> bool {
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
            bb as i128,
            sb as i128,
            spb as i128,
            width as i128,
        );
    }
    let fa = match pa.footprint(width, buf_len) {
        Some(f) => f,
        None => return false,
    };
    let fb = match pb.footprint(width, buf_len) {
        Some(f) => f,
        None => return false,
    };
    // With interval-level precision we can't tell same-thread overlap
    // from cross-thread overlap; a single-thread launch touching a
    // shared range only via the diagonal is the one case we can clear.
    fa.0 < fb.1 && fb.0 < fa.1 && width > 1
}

/// Exact (or conservatively bounded) overlap test between two affine
/// footprints: does there exist `t != u` in `0..w` such that
/// `[ba+t*sa, +spa)` and `[bb+u*sb, +spb)` intersect?
///
/// Intersection condition: `-spb < (ba - bb) + t*sa - u*sb < spa`.
fn affine_overlap(ba: i128, sa: i128, spa: i128, bb: i128, sb: i128, spb: i128, w: i128) -> bool {
    if spa == 0 || spb == 0 || w == 0 {
        return false;
    }
    let d = ba - bb;
    if sa == sb {
        // Equal strides s: let k = t - u, k in [-(w-1), w-1].
        // Overlap of [ba+s*t, +spa) and [bb+s*u, +spb) needs
        // start_a < end_b and start_b < end_a: -spa < d + k*s < spb.
        let s = sa;
        let (klo, khi) = (-(w - 1), w - 1);
        if s == 0 {
            // Every (t, u) pair gives the same condition; an
            // off-diagonal pair exists iff the launch has width > 1.
            return -spa < d && d < spb && w > 1;
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
        // Excluding the diagonal removes only k == 0.
        !(lo == 0 && hi == 0)
    } else {
        // Unequal strides: bounded scan over the threads of pattern a.
        const CAP: i128 = 1 << 16;
        if w > CAP {
            return true; // conservative: too wide to scan
        }
        for t in 0..w {
            // Need u with u*sb in (c - spb, c + spa), u in [0, w-1]
            // (start_a < end_b and start_b < end_a for the two slabs).
            let c = d + t * sa;
            let (ulo, uhi) = if sb == 0 {
                if -spa < c && c < spb {
                    (0, w - 1)
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
                (ulo.max(0), uhi.min(w - 1))
            };
            if ulo > uhi {
                continue;
            }
            if ulo == t && uhi == t {
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

    fn overlaps(pa: Pattern, pb: Pattern, w: usize) -> bool {
        pair_overlaps(&pa, &pb, w, usize::MAX)
    }

    /// Brute-force oracle for the affine math: some pair of distinct
    /// threads of a `w`-thread launch touches a common index.
    fn brute(pa: Pattern, pb: Pattern, w: usize) -> bool {
        let idx = |p: &Pattern, t: usize| -> (usize, usize) {
            match *p {
                Pattern::Affine { base, stride, span } => (base + t * stride, span),
                _ => unreachable!(),
            }
        };
        for t in 0..w {
            for u in 0..w {
                if t == u {
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
        assert!(!overlaps(aff(0, 4, 4), aff(0, 4, 4), 16));
        // stride > span: gaps between cells.
        assert!(!overlaps(aff(0, 8, 4), aff(0, 8, 4), 16));
        // stride < span: neighbors collide.
        assert!(overlaps(aff(0, 2, 4), aff(0, 2, 4), 16));
    }

    #[test]
    fn affine_offset_copies_collide_cross_thread() {
        // read at t, write at t+1 (same stride, shifted base).
        assert!(overlaps(aff(0, 1, 1), aff(1, 1, 1), 8));
        // but a shift of a full window stays disjoint.
        assert!(!overlaps(aff(0, 1, 1), aff(100, 1, 1), 8));
    }

    #[test]
    fn diagonal_exclusion_clears_same_slot_read_write() {
        // Each thread reads and writes its own cell: overlap only on
        // the diagonal, which is not a race.
        assert!(!overlaps(aff(0, 4, 4), aff(0, 4, 4), 16));
        assert!(brute(aff(0, 4, 4), aff(4, 4, 4), 16));
        assert!(overlaps(aff(0, 4, 4), aff(4, 4, 4), 16));
    }

    #[test]
    fn zero_span_and_zero_width_never_overlap() {
        assert!(!overlaps(aff(0, 1, 0), aff(0, 1, 1), 8));
        assert!(!overlaps(aff(0, 0, 1), aff(0, 0, 1), 0));
    }

    #[test]
    fn zero_stride_broadcast() {
        // All threads hit the same cell: WW hazard if width > 1.
        assert!(overlaps(aff(5, 0, 1), aff(5, 0, 1), 4));
        assert!(!overlaps(aff(5, 0, 1), aff(5, 0, 1), 1));
        assert!(!overlaps(aff(5, 0, 1), aff(6, 0, 1), 4));
    }

    #[test]
    fn unequal_strides_scan_matches_brute_force() {
        let cases = [
            (aff(0, 3, 1), aff(0, 5, 1)),
            (aff(1, 3, 2), aff(0, 7, 1)),
            (aff(0, 2, 2), aff(1, 3, 1)),
            (aff(4, 6, 2), aff(0, 4, 3)),
            (aff(0, 10, 1), aff(5, 7, 1)),
            (aff(0, 0, 1), aff(3, 2, 1)),
        ];
        for (pa, pb) in cases {
            for w in [1, 2, 6, 7, 9, 12] {
                assert_eq!(
                    overlaps(pa, pb, w),
                    brute(pa, pb, w),
                    "{pa:?} vs {pb:?} w={w}"
                );
                assert_eq!(
                    overlaps(pb, pa, w),
                    brute(pb, pa, w),
                    "{pb:?} vs {pa:?} w={w}"
                );
            }
        }
    }

    #[test]
    fn equal_strides_closed_form_matches_brute_force() {
        let cases = [
            (aff(0, 4, 4), aff(2, 4, 4)),
            (aff(0, 4, 2), aff(2, 4, 2)),
            (aff(3, 5, 5), aff(0, 5, 3)),
            (aff(0, 1, 1), aff(3, 1, 1)),
            (aff(0, 4, 4), aff(0, 4, 4)),
            (aff(5, 0, 2), aff(6, 0, 1)),
        ];
        for (pa, pb) in cases {
            for w in [1, 2, 4, 6, 8, 10] {
                assert_eq!(
                    overlaps(pa, pb, w),
                    brute(pa, pb, w),
                    "{pa:?} vs {pb:?} w={w}"
                );
                assert_eq!(
                    overlaps(pb, pa, w),
                    brute(pb, pa, w),
                    "{pb:?} vs {pa:?} w={w}"
                );
            }
        }
    }

    #[test]
    fn range_and_all_use_interval_footprints() {
        let r = Pattern::Range { lo: 10, hi: 20 };
        assert!(overlaps(r, aff(15, 1, 1), 4));
        assert!(!overlaps(r, aff(20, 1, 1), 4));
        assert!(pair_overlaps(&Pattern::All, &r, 2, 100));
        // Empty buffer: All touches nothing.
        assert!(!pair_overlaps(&Pattern::All, &r, 2, 0));
        // One thread cannot race itself, even on a shared range.
        assert!(!overlaps(r, r, 1));
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
    fn covers_matches_pattern_semantics() {
        let p = aff(2, 4, 2);
        assert!(p.covers(0, 2) && p.covers(0, 3) && !p.covers(0, 4));
        assert!(p.covers(1, 6) && !p.covers(1, 2));
        let r = Pattern::Indexed { lo: 5, hi: 9 };
        assert!(r.covers(3, 5) && r.covers(0, 8) && !r.covers(0, 9));
        assert!(Pattern::All.covers(7, 123456));
    }
}
