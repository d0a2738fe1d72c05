//! Adversarial suite for the static effect checker: every hazard class
//! the dynamic sanitizer detects must be flagged statically from
//! declarations alone, clean declarations must verify with zero false
//! positives and run in parallel on a raw executor, and a sanitizing
//! executor must catch declarations that under-approximate the kernel's
//! real accesses.

mod common;

use common::{inspecting_executor, loose, OWN};
use parsweep_par::{BufId, ConflictKind, Effect, EffectTable, Executor, Pattern, StaticHazard};

/// Joins two one-launch streams declared over `buf` with empty kernels
/// and returns the join's panic message, if any. The cross-stream check
/// runs before anything launches, on every executor.
fn join_panic(
    table: &EffectTable,
    buf: BufId,
    left: &[Effect],
    right: &[Effect],
) -> Option<String> {
    let exec = Executor::with_threads(2);
    let mut data = vec![0u64; table.len_of(buf)];
    let _cells = exec.bind_table(table, buf, &mut data);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut s1 = exec.stream();
        let mut s2 = exec.stream();
        s1.launch_declared(table, "left", 8, left, |_| {});
        s2.launch_declared(table, "right", 8, right, |_| {});
        exec.join(&mut [&mut s1, &mut s2]);
    }))
    .err()
    .map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    })
}

/// Write-write: stride 2, span 4 — neighbors collide. The static
/// checker flags it from the declaration; the dynamic sanitizer flags
/// the same class when a twin with the same accesses actually runs
/// (under the loosest legal declaration, so only the access log judges).
#[test]
fn write_write_flagged_statically_and_dynamically() {
    let table = EffectTable::new();
    let buf = table.buffer("ww.buf", 64);
    let hazards = table.check(
        "ww",
        8,
        &[Effect::write(
            buf,
            Pattern::Affine {
                base: 0,
                stride: 2,
                span: 4,
            },
        )],
    );
    assert!(
        hazards
            .iter()
            .any(|h| matches!(h, StaticHazard::WriteWrite { .. })),
        "{hazards:?}"
    );

    // Dynamic twin: same access pattern, judged by the access log.
    let exec = inspecting_executor();
    let (table, buf, effects) = loose("ww.buf", 64);
    let mut data = vec![0u32; 64];
    {
        let cells = exec.bind_table(&table, buf, &mut data);
        exec.launch_declared(&table, "ww", 8, &effects, |tid| {
            for k in 0..4 {
                // SAFETY: intentionally racy (stride < span); sanitized
                // launches are serialized, so the race is only logged.
                unsafe { cells.write(tid, tid * 2 + k, 1) };
            }
        });
    }
    assert!(
        exec.take_reports()
            .iter()
            .any(|r| matches!(r.kind, ConflictKind::WriteWrite { .. })),
        "dynamic sanitizer must agree with the static verdict"
    );
}

/// Read-write: thread t reads slot t while thread t+1 writes it.
#[test]
fn read_write_flagged_statically_and_dynamically() {
    let table = EffectTable::new();
    let buf = table.buffer("rw.buf", 64);
    let hazards = table.check(
        "rw",
        8,
        &[
            Effect::read(
                buf,
                Pattern::Affine {
                    base: 0,
                    stride: 1,
                    span: 1,
                },
            ),
            Effect::write(
                buf,
                Pattern::Affine {
                    base: 1,
                    stride: 1,
                    span: 1,
                },
            ),
        ],
    );
    assert!(
        hazards
            .iter()
            .any(|h| matches!(h, StaticHazard::ReadWrite { .. })),
        "{hazards:?}"
    );

    let exec = inspecting_executor();
    let (table, buf, effects) = loose("rw.buf", 64);
    let mut data = vec![0u32; 64];
    {
        let cells = exec.bind_table(&table, buf, &mut data);
        exec.launch_declared(&table, "rw", 8, &effects, |tid| {
            // SAFETY: intentionally hazardous (read of a slot another
            // tid writes in the same launch); serialized when sanitized.
            unsafe {
                let _ = cells.read(tid, tid);
                cells.write(tid, tid + 1, 1);
            }
        });
    }
    assert!(
        exec.take_reports()
            .iter()
            .any(|r| matches!(r.kind, ConflictKind::ReadWrite { .. })),
        "dynamic sanitizer must agree with the static verdict"
    );
}

/// Static OOB: the declared footprint's tail extends past the buffer.
#[test]
fn out_of_bounds_flagged_statically_and_dynamically() {
    let table = EffectTable::new();
    let buf = table.buffer("oob.buf", 10);
    let hazards = table.check(
        "oob",
        4,
        // Thread 3 needs slots 9..12: past len 10.
        &[Effect::write(
            buf,
            Pattern::Affine {
                base: 0,
                stride: 3,
                span: 3,
            },
        )],
    );
    assert!(
        hazards.iter().any(|h| matches!(
            h,
            StaticHazard::OutOfBounds {
                needed: 12,
                len: 10,
                ..
            }
        )),
        "{hazards:?}"
    );

    let exec = inspecting_executor();
    let (table, buf, effects) = loose("oob.buf", 10);
    let mut data = vec![0u32; 10];
    {
        let cells = exec.bind_table(&table, buf, &mut data);
        exec.launch_declared(&table, "oob", 4, &effects, |tid| {
            for k in 0..3 {
                // SAFETY: deliberately runs past the buffer for tid 3;
                // the sanitizer reports and suppresses the OOB writes.
                unsafe { cells.write(tid, tid * 3 + k, 1) };
            }
        });
    }
    assert!(
        exec.take_reports()
            .iter()
            .any(|r| matches!(r.kind, ConflictKind::OutOfBounds { .. })),
        "dynamic sanitizer must agree with the static verdict"
    );
}

/// Stream race: launches on two joined streams (one unordered epoch)
/// with overlapping write footprints. Statically an UnorderedConflict,
/// which panics the join before anything runs; the dynamic analogue is
/// a StreamRace.
#[test]
fn unordered_conflict_flagged_statically_and_dynamically() {
    let table = EffectTable::new();
    let buf = table.buffer("race.buf", 64);
    let own = [Effect::write(buf, OWN)];
    let message = join_panic(&table, buf, &own, &own).expect("the join must refuse the epoch");
    let hazard = StaticHazard::UnorderedConflict {
        kernels: ("left".to_string(), "right".to_string()),
        buffer: "race.buf".to_string(),
    };
    assert!(message.contains(&hazard.to_string()), "{message}");

    let exec = inspecting_executor();
    let (table, buf, effects) = loose("race.buf", 64);
    let mut data = vec![0u32; 64];
    {
        let cells = exec.bind_table(&table, buf, &mut data);
        let mut s1 = exec.stream();
        let mut s2 = exec.stream();
        s1.launch_declared(&table, "left", 8, &effects, |tid| {
            // SAFETY: the two unordered streams write the same slots on
            // purpose; sanitized epochs serialize, so the race is logged.
            unsafe { cells.write(tid, tid, 1) };
        });
        s2.launch_declared(&table, "right", 8, &effects, |tid| {
            // SAFETY: intentionally racing `left` (same slots, no edge).
            unsafe { cells.write(tid, tid, 2) };
        });
        exec.join(&mut [&mut s1, &mut s2]);
    }
    assert!(
        exec.take_reports()
            .iter()
            .any(|r| matches!(r.kind, ConflictKind::StreamRace { .. })),
        "dynamic sanitizer must agree with the static verdict"
    );
}

/// The audit catches a declaration that under-approximates: the kernel
/// touches an in-bounds slot its effects never declared. The static
/// checker cannot see this (it proves the declaration, not the kernel),
/// and a raw executor runs it unobserved — exactly the hole a sanitizing
/// executor exists to close.
#[test]
fn audit_flags_undeclared_access() {
    let table = EffectTable::new();
    let buf = table.buffer("sneaky.buf", 64);
    let run = |exec: Executor| {
        let mut data = vec![0u64; 64];
        {
            let cells = exec.bind_table(&table, buf, &mut data);
            let cells = &cells;
            exec.launch_declared(
                &table,
                "sneaky",
                4,
                // Declares only slots 0..4, but also pokes slot 60.
                &[Effect::write(
                    buf,
                    Pattern::Affine {
                        base: 0,
                        stride: 1,
                        span: 1,
                    },
                )],
                move |tid| {
                    // SAFETY: in-bounds; disjoint per tid (tid and 60+tid).
                    unsafe {
                        cells.write(tid, tid, 1);
                        cells.write(tid, 60 - tid, 2);
                    }
                },
            );
        }
        exec.take_reports()
    };
    let audited = run(inspecting_executor());
    assert_eq!(audited.len(), 4, "one per tid: {audited:?}");
    assert!(audited.iter().all(|r| matches!(
        r.kind,
        ConflictKind::UndeclaredAccess {
            access: parsweep_par::AccessKind::Write,
            ..
        }
    ) && r.kernel == "sneaky"
        && r.buffer == "sneaky.buf"));
}

/// Stream-level static checking: queue-time intra-launch hazards panic
/// immediately; drain-time cross-stream conflicts panic at the join.
#[test]
#[should_panic(expected = "static effect check failed")]
fn stream_launch_declared_panics_on_intra_launch_hazard() {
    let table = EffectTable::new();
    let buf = table.buffer("s.buf", 8);
    let exec = Executor::with_threads(2);
    let mut s = exec.stream();
    s.launch_declared(
        &table,
        "bad",
        4,
        &[Effect::write(
            buf,
            Pattern::Affine {
                base: 0,
                stride: 0,
                span: 1,
            },
        )],
        |_| {},
    );
}

#[test]
#[should_panic(expected = "static effect check failed for join epoch")]
fn join_panics_on_cross_stream_declared_conflict() {
    let table = EffectTable::new();
    let buf = table.buffer("j.buf", 32);
    let exec = Executor::with_threads(2);
    let mut data = vec![0u64; 32];
    let cells = exec.bind_table(&table, buf, &mut data);
    let cells = &cells;
    let mut s1 = exec.stream();
    let mut s2 = exec.stream();
    s1.launch_declared(&table, "a", 8, &[Effect::write(buf, OWN)], move |tid| {
        // SAFETY: never runs — the drain-time static check fires first.
        unsafe { cells.write(tid, tid, 1) };
    });
    s2.launch_declared(&table, "b", 8, &[Effect::write(buf, OWN)], move |tid| {
        // SAFETY: never runs — the drain-time static check fires first.
        unsafe { cells.write(tid, tid, 2) };
    });
    exec.join(&mut [&mut s1, &mut s2]);
}

/// A clean multi-stream epoch is silent under the sanitizer and counted
/// as parallel on a raw executor.
#[test]
fn clean_declared_epoch_is_silent_audited_and_counted_raw() {
    let table = EffectTable::new();
    let a = table.buffer("epoch.a", 128);
    let b = table.buffer("epoch.b", 128);
    let run = |exec: &Executor| {
        let mut da = vec![0u64; 128];
        let mut db = vec![0u64; 128];
        {
            let ca = exec.bind_table(&table, a, &mut da);
            let ca = &ca;
            let cb = exec.bind_table(&table, b, &mut db);
            let cb = &cb;
            let mut s1 = exec.stream();
            let mut s2 = exec.stream();
            // SAFETY: each tid writes its own slot of its own buffer.
            s1.launch_declared(
                &table,
                "fill-a",
                128,
                &[Effect::write(a, OWN)],
                move |tid| unsafe { ca.write(tid, tid, 1) },
            );
            // SAFETY: as above, on the other buffer.
            s2.launch_declared(
                &table,
                "fill-b",
                128,
                &[Effect::write(b, OWN)],
                move |tid| unsafe { cb.write(tid, tid, 2) },
            );
            exec.join(&mut [&mut s1, &mut s2]);
        }
        assert!(da.iter().all(|&v| v == 1) && db.iter().all(|&v| v == 2));
    };
    let san = Executor::with_sanitizer(2);
    run(&san);
    assert!(san.take_reports().is_empty());
    assert_eq!(san.stats().static_verified_launches, 0);
    let raw = Executor::with_threads(2);
    run(&raw);
    // Ambient PARSWEEP_SANITIZE makes this executor a sanitizing one.
    if !raw.sanitizing() {
        assert_eq!(raw.stats().static_verified_launches, 2);
    }
}

/// Atomics commute with each other but conflict with plain accesses.
#[test]
fn atomic_reductions_are_clean_but_conflict_with_plain_writes() {
    let table = EffectTable::new();
    let buf = table.buffer("acc.buf", 4);
    let all_one = Pattern::Affine {
        base: 0,
        stride: 0,
        span: 1,
    };
    let atomic = [Effect::atomic(buf, all_one)];
    assert_eq!(
        join_panic(&table, buf, &atomic, &atomic),
        None,
        "atomic-atomic must commute"
    );
    let plain = [Effect::write(buf, all_one)];
    assert!(
        join_panic(&table, buf, &atomic, &plain).is_some(),
        "atomic vs plain write must conflict"
    );
}
