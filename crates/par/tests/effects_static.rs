//! Adversarial suite for the static effect checker: every hazard class
//! the dynamic sanitizer detects must be flagged statically from
//! declarations alone, clean graphs must verify with zero false
//! positives and replay in parallel on a raw executor, and a sanitizing
//! executor must catch declarations that under-approximate the kernel's
//! real accesses.

mod common;

use common::{inspecting_executor, loose, OWN};
use parsweep_par::{
    ConflictKind, Effect, EffectTable, Executor, KernelGraphBuilder, Pattern, StaticHazard,
};

/// Write-write: stride 2, span 4 — neighbors collide. The static
/// checker flags it from the declaration; the dynamic sanitizer flags
/// the same class when a twin with the same accesses actually runs
/// (under the loosest legal declaration, so only the access log judges).
#[test]
fn write_write_flagged_statically_and_dynamically() {
    let table = EffectTable::new();
    let buf = table.buffer("ww.buf", 64);
    let mut g = KernelGraphBuilder::<()>::new(&table);
    g.kernel_declared(
        "ww",
        &[],
        |_| 8,
        8,
        vec![Effect::write(
            buf,
            Pattern::Affine {
                base: 0,
                stride: 2,
                span: 4,
            },
        )],
        |_, _| {},
    );
    let hazards = g.try_build().map(|_| ()).unwrap_err();
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
    let mut g = KernelGraphBuilder::<()>::new(&table);
    g.kernel_declared(
        "rw",
        &[],
        |_| 8,
        8,
        vec![
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
        |_, _| {},
    );
    let hazards = g.try_build().map(|_| ()).unwrap_err();
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
    let mut g = KernelGraphBuilder::<()>::new(&table);
    g.kernel_declared(
        "oob",
        &[],
        |_| 4,
        4,
        // Thread 3 needs slots 9..12: past len 10.
        vec![Effect::write(
            buf,
            Pattern::Affine {
                base: 0,
                stride: 3,
                span: 3,
            },
        )],
        |_, _| {},
    );
    let hazards = g.try_build().map(|_| ()).unwrap_err();
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

/// Stream race: two same-depth graph nodes (one unordered epoch) with
/// overlapping write footprints. Statically an UnorderedConflict; the
/// dynamic analogue on two joined streams is a StreamRace.
#[test]
fn unordered_conflict_flagged_statically_and_dynamically() {
    let table = EffectTable::new();
    let buf = table.buffer("race.buf", 64);
    let mut g = KernelGraphBuilder::<()>::new(&table);
    g.kernel_declared(
        "left",
        &[],
        |_| 8,
        8,
        vec![Effect::write(buf, OWN)],
        |_, _| {},
    );
    g.kernel_declared(
        "right",
        &[],
        |_| 8,
        8,
        vec![Effect::write(buf, OWN)],
        |_, _| {},
    );
    let hazards = g.try_build().map(|_| ()).unwrap_err();
    assert!(
        hazards
            .iter()
            .any(|h| matches!(h, StaticHazard::UnorderedConflict { .. })),
        "{hazards:?}"
    );

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

/// Use-after-release is static-only: the dynamic sanitizer has no lease
/// model, but the builder flags a declared use at or past the buffer's
/// declared release depth.
#[test]
fn use_after_release_flagged_at_build() {
    let table = EffectTable::new();
    let buf = table.buffer("leased.buf", 16);
    let mut g = KernelGraphBuilder::<()>::new(&table);
    let producer = g.kernel_declared(
        "produce",
        &[],
        |_| 16,
        16,
        vec![Effect::write(buf, OWN)],
        |_, _| {},
    );
    g.release(buf, &[producer]);
    g.kernel_declared(
        "late-read",
        &[producer],
        |_| 16,
        16,
        vec![Effect::read(buf, OWN)],
        |_, _| {},
    );
    let hazards = g.try_build().map(|_| ()).unwrap_err();
    assert!(
        hazards.iter().any(
            |h| matches!(h, StaticHazard::UseAfterRelease { kernel, .. } if kernel == "late-read")
        ),
        "{hazards:?}"
    );

    // Releasing after the reader instead is clean.
    let table = EffectTable::new();
    let buf = table.buffer("leased.buf", 16);
    let mut g = KernelGraphBuilder::<()>::new(&table);
    let producer = g.kernel_declared(
        "produce",
        &[],
        |_| 16,
        16,
        vec![Effect::write(buf, OWN)],
        |_, _| {},
    );
    let reader = g.kernel_declared(
        "read",
        &[producer],
        |_| 16,
        16,
        vec![Effect::read(buf, OWN)],
        |_, _| {},
    );
    g.release(buf, &[reader]);
    assert!(g.try_build().is_ok());
}

/// A clean graph verifies and produces correct results in both modes:
/// a raw executor counts its replays and launches as having run on the
/// parallel path, a sanitizing one audits every access against the
/// declarations, stays silent, and counts none.
#[test]
fn clean_graph_replays_correctly_raw_and_audited() {
    const N: usize = 512;
    struct Round<'a> {
        cells: &'a parsweep_par::DeviceSlice<'a, u64>,
    }
    // The graph's context type borrows the bound cells, so the graph is
    // built (and dropped) inside the binding scope, once per executor.
    fn run(exec: &Executor, replays: usize) -> Vec<u64> {
        let table = EffectTable::new();
        let buf = table.buffer("pipeline.buf", N);
        let mut data = vec![0u64; N];
        {
            let cells = exec.bind_table(&table, buf, &mut data);
            let mut g = KernelGraphBuilder::<Round>::new(&table);
            let fill = g.kernel_declared(
                "fill",
                &[],
                |_: &Round| N,
                N,
                vec![Effect::write(buf, OWN)],
                |tid, r: &Round| {
                    // SAFETY: each tid writes its own slot (statically proven).
                    unsafe { r.cells.write(tid, tid, tid as u64) };
                },
            );
            g.kernel_declared(
                "double",
                &[fill],
                |_: &Round| N,
                N,
                vec![Effect::read(buf, OWN), Effect::write(buf, OWN)],
                |tid, r: &Round| {
                    // SAFETY: each tid reads and writes only its own slot.
                    unsafe {
                        let v = r.cells.read(tid, tid);
                        r.cells.write(tid, tid, v * 2);
                    }
                },
            );
            let graph = g.build();
            for _ in 0..replays {
                graph.replay(exec, &Round { cells: &cells });
            }
        }
        data
    }

    let exec = Executor::with_threads(2);
    let data = run(&exec, 2);
    assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    // Ambient PARSWEEP_SANITIZE makes this executor a sanitizing one.
    if !exec.sanitizing() {
        let stats = exec.stats();
        assert_eq!(stats.static_verified_replays, 2);
        assert_eq!(stats.static_verified_launches, 4);
    }

    // Same graph under the dynamic sanitizer (fail-fast): declarations
    // cover every access, so it stays clean — and nothing counts as
    // having run on the parallel path.
    let exec = Executor::with_sanitizer(2);
    let data = run(&exec, 1);
    assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    assert!(
        exec.take_reports().is_empty(),
        "declarations must cover all accesses"
    );
    assert_eq!(exec.stats().total_launches(), 2);
    assert_eq!(exec.stats().static_verified_replays, 0);
    assert_eq!(exec.stats().static_verified_launches, 0);
}

/// Replaying a declared node wider than its verified maximum is a
/// contract violation and must fail loudly, not race silently.
#[test]
#[should_panic(expected = "beyond its statically verified maximum")]
fn replay_wider_than_max_width_panics() {
    let table = EffectTable::new();
    let buf = table.buffer("narrow.buf", 64);
    let mut g = KernelGraphBuilder::<usize>::new(&table);
    g.kernel_declared(
        "grower",
        &[],
        |&n: &usize| n,
        8,
        vec![Effect::write(
            buf,
            Pattern::Affine {
                base: 0,
                stride: 1,
                span: 1,
            },
        )],
        |_, _| {},
    );
    let graph = g.build();
    let exec = Executor::with_threads(2);
    graph.replay(&exec, &16); // width 16 > verified max 8
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
    let mut g = KernelGraphBuilder::<()>::new(&table);
    g.kernel_declared(
        "acc1",
        &[],
        |_| 8,
        8,
        vec![Effect::atomic(buf, all_one)],
        |_, _| {},
    );
    g.kernel_declared(
        "acc2",
        &[],
        |_| 8,
        8,
        vec![Effect::atomic(buf, all_one)],
        |_, _| {},
    );
    assert!(g.try_build().is_ok(), "atomic-atomic must commute");

    let mut g = KernelGraphBuilder::<()>::new(&table);
    g.kernel_declared(
        "acc",
        &[],
        |_| 8,
        8,
        vec![Effect::atomic(buf, all_one)],
        |_, _| {},
    );
    g.kernel_declared(
        "plain",
        &[],
        |_| 8,
        8,
        vec![Effect::write(buf, all_one)],
        |_, _| {},
    );
    assert!(
        g.try_build().is_err(),
        "atomic vs plain write must conflict"
    );
}
