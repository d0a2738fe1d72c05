//! Tests for the kernel sanitizer's access-log analysis: deliberately
//! racy kernels are always flagged, disciplined kernels never are.

mod common;

use common::{inspecting_executor, loose};
use parsweep_par::{ConflictKind, DeviceSlice, Executor};
use proptest::prelude::*;

/// Runs `kernel` at width `n` over a zeroed `len`-slot buffer `buf`
/// under the loosest legal declaration and returns the buffer.
fn run_loose(
    exec: &Executor,
    label: &str,
    n: usize,
    len: usize,
    kernel: impl Fn(usize, &DeviceSlice<'_, u32>) + Sync,
) -> Vec<u32> {
    let (table, id, effects) = loose("buf", len);
    let mut buf = vec![0u32; len];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        exec.launch_declared(&table, label, n, &effects, |tid| kernel(tid, &cells));
    }
    buf
}

#[test]
fn write_write_race_report_names_kernel_buffer_slot_and_tids() {
    let exec = inspecting_executor();
    run_loose(&exec, "racy.kernel", 6, 8, |tid, cells| {
        // SAFETY: intentionally racy (all tids write slot 3) to exercise
        // detection; sanitized launches are serialized.
        unsafe { cells.write(tid, 3, tid as u32) };
    });
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    let r = &reports[0];
    assert_eq!(r.kernel, "racy.kernel");
    assert_eq!(r.buffer, "buf");
    assert_eq!(r.index, 3);
    assert_eq!(r.launch, 1);
    let (a, b) = r.conflicting_tids().expect("write-write carries tids");
    assert_ne!(a, b);
    assert!(matches!(r.kind, ConflictKind::WriteWrite { .. }));
}

#[test]
fn read_of_a_slot_another_tid_writes_is_flagged() {
    let exec = inspecting_executor();
    run_loose(&exec, "rw.kernel", 4, 8, |tid, cells| {
        // SAFETY: intentionally hazardous (tid 0 writes slot 0, others
        // read it in the same launch); serialized.
        unsafe {
            if tid == 0 {
                cells.write(tid, 0, 7);
            } else {
                let _ = cells.read(tid, 0);
            }
        }
    });
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert!(matches!(reports[0].kind, ConflictKind::ReadWrite { .. }));
}

#[test]
fn out_of_bounds_write_is_reported_and_not_performed() {
    let exec = inspecting_executor();
    let buf = run_loose(&exec, "oob", 1, 4, |tid, cells| {
        // SAFETY: deliberately out of bounds; the sanitizer reports and
        // suppresses the physical write.
        unsafe { cells.write(tid, 9, 1) };
    });
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1);
    assert!(matches!(
        reports[0].kind,
        ConflictKind::OutOfBounds { tid: 0 }
    ));
    assert_eq!(buf, vec![0u32; 4], "OOB write must not be performed");
}

#[test]
#[should_panic(expected = "write-write hazard")]
fn fail_fast_panics_on_race() {
    let exec = Executor::with_sanitizer(2);
    run_loose(&exec, "racy", 2, 2, |tid, cells| {
        // SAFETY: intentionally racy; serialized under the sanitizer.
        unsafe { cells.write(tid, 0, 1) };
    });
}

proptest! {
    /// Every kernel where two (or more) tids write the same slot is
    /// reported as a write-write hazard naming the kernel and two
    /// distinct tids.
    #[test]
    fn racy_kernel_is_flagged(n in 2usize..40, slot in 0usize..8) {
        let exec = inspecting_executor();
        let (table, id, effects) = loose("shared", 8);
        let mut buf = vec![0usize; 8];
        {
            let cells = exec.bind_table(&table, id, &mut buf);
            exec.launch_declared(&table, "all-write-one-slot", n, &effects, |tid| {
                // SAFETY: intentionally racy (every tid writes `slot`);
                // sanitized launches are serialized, so the hazard is
                // logged rather than physically exercised.
                unsafe { cells.write(tid, slot, tid) };
            });
        }
        let reports = exec.take_reports();
        prop_assert_eq!(reports.len(), 1);
        let r = &reports[0];
        prop_assert_eq!(r.kernel.as_str(), "all-write-one-slot");
        prop_assert_eq!(r.buffer.as_str(), "shared");
        prop_assert_eq!(r.index, slot);
        prop_assert!(matches!(r.kind, ConflictKind::WriteWrite { .. }));
        let (a, b) = r.conflicting_tids().expect("write-write hazards carry tids");
        prop_assert_ne!(a, b);
        prop_assert!(a < n && b < n);
    }

    /// A kernel whose tids write disjoint slots (any offset permutation)
    /// is never flagged, and the data lands where it was written.
    #[test]
    fn disjoint_kernel_is_clean(n in 1usize..64, offset in 0usize..64) {
        let exec = inspecting_executor();
        let (table, id, effects) = loose("shared", n);
        let mut buf = vec![0usize; n];
        {
            let cells = exec.bind_table(&table, id, &mut buf);
            exec.launch_declared(&table, "rotate-write", n, &effects, |tid| {
                // SAFETY: (tid + offset) % n is a bijection on 0..n, so
                // every tid writes its own distinct slot.
                unsafe { cells.write(tid, (tid + offset) % n, tid) };
            });
        }
        prop_assert!(exec.take_reports().is_empty());
        for (i, &v) in buf.iter().enumerate() {
            prop_assert_eq!((v + offset) % n, i);
        }
    }

    /// Reading a slot written by a different tid in the same launch is a
    /// read-write hazard; reading data from a *previous* launch is not.
    #[test]
    fn same_launch_read_write_is_flagged(n in 2usize..32) {
        let exec = inspecting_executor();
        let (table, id, effects) = loose("shared", n);
        let mut buf = vec![0usize; n];
        {
            let cells = exec.bind_table(&table, id, &mut buf);
            exec.launch_declared(&table, "produce", n, &effects, |tid| {
                // SAFETY: disjoint per-tid writes.
                unsafe { cells.write(tid, tid, tid * 2) };
            });
            // Cross-launch reads are ordered by the launch barrier: clean.
            exec.launch_declared(&table, "consume-prior", n, &effects, |tid| {
                // SAFETY: slot written in a previous launch, read-only now.
                let v = unsafe { cells.read(tid, (tid + 1) % n) };
                assert_eq!(v, ((tid + 1) % n) * 2);
            });
        }
        assert!(exec.take_reports().is_empty());

        // Same-launch cross-tid read of a written slot: flagged.
        let (table, id, effects) = loose("shared2", n);
        let mut buf2 = vec![0usize; n];
        {
            let cells = exec.bind_table(&table, id, &mut buf2);
            exec.launch_declared(&table, "read-your-neighbour", n, &effects, |tid| {
                // SAFETY: intentionally hazardous; serialized under the
                // sanitizer.
                unsafe {
                    cells.write(tid, tid, tid);
                    let _ = cells.read(tid, (tid + 1) % n);
                }
            });
        }
        let reports = exec.take_reports();
        prop_assert!(!reports.is_empty());
        prop_assert!(reports
            .iter()
            .all(|r| matches!(r.kind, ConflictKind::ReadWrite { .. })));
    }
}
