//! Tests for the kernel sanitizer's access-log analysis: deliberately
//! racy kernels are always flagged, disciplined kernels never are.

mod common;

use common::{inspecting_executor, loose};
use parsweep_par::{AccessKind, ConflictKind, DeviceSlice, Effect, EffectTable, Executor, Pattern};
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
fn overlapping_rows_are_a_write_write_hazard_naming_both_tids() {
    let exec = inspecting_executor();
    let buf = run_loose(&exec, "rows.overlap", 2, 8, |tid, cells| {
        // SAFETY: intentionally racy (tid 0 writes 0..4, tid 1 writes
        // 3..7, sharing slot 3); sanitized launches are serialized, so no
        // two rows are live at once.
        let row = unsafe { cells.row_mut(tid, 3 * tid, 4) };
        row.fill(tid as u32 + 1);
    });
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    let r = &reports[0];
    assert_eq!(r.kernel, "rows.overlap");
    assert_eq!(r.buffer, "buf");
    assert_eq!(r.index, 3);
    assert_eq!(r.kind, ConflictKind::WriteWrite { tids: (0, 1) });
    assert_eq!(buf, vec![1, 1, 1, 2, 2, 2, 2, 0]);
}

#[test]
fn out_of_bounds_row_is_reported_and_not_performed() {
    let exec = inspecting_executor();
    let buf = run_loose(&exec, "rows.oob", 2, 6, |tid, cells| {
        // SAFETY: tid 1's rows run past the end: the sanitizer reports
        // them and hands out empty rows instead.
        unsafe {
            let read = cells.row(tid, 4 * tid, 4);
            assert_eq!(read.len(), if tid == 0 { 4 } else { 0 });
            cells.row_mut(tid, 4 * tid, 4).fill(9);
        }
    });
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 2, "{reports:?}");
    for r in &reports {
        assert_eq!(r.kernel, "rows.oob");
        // The first slot past the end.
        assert_eq!(r.index, 6);
        assert_eq!(r.kind, ConflictKind::OutOfBounds { tid: 1 });
    }
    assert_eq!(
        buf,
        vec![9, 9, 9, 9, 0, 0],
        "no slot of the OOB row is written"
    );
}

#[test]
fn every_slot_of_a_row_is_audited_against_the_declaration() {
    // Each tid declares two slots but takes a row of three: the third
    // slot is an undeclared access, found by the audit.
    let exec = inspecting_executor();
    let table = EffectTable::new();
    let id = table.buffer("rows", 8);
    let own = Pattern::Affine {
        base: 0,
        stride: 2,
        span: 2,
    };
    let mut buf = vec![0u32; 8];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        exec.launch_declared(
            &table,
            "rows.undeclared",
            1,
            &[Effect::write(id, own)],
            |tid| {
                // SAFETY: in bounds and a single tid; only the declaration
                // is too narrow.
                unsafe { cells.row_mut(tid, 0, 3) }.fill(5);
            },
        );
    }
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].index, 2);
    assert_eq!(
        reports[0].kind,
        ConflictKind::UndeclaredAccess {
            tid: 0,
            access: AccessKind::Write
        }
    );
    assert_eq!(
        &buf[..4],
        &[5, 5, 5, 0],
        "an undeclared row is still performed"
    );
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
