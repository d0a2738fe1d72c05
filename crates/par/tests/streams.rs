//! Behavior of the device runtime: stream overlap in the cost model,
//! stream-ordering awareness in the sanitizer, and arena-backed buffers
//! feeding kernels.

mod common;

use common::{inspecting_executor, loose, OWN};
use parsweep_par::{AccessKind, ConflictKind, Effect, EffectTable, Executor, Pattern};

#[test]
fn joined_streams_model_cheaper_than_serialized() {
    let exec = Executor::with_threads(2);
    let table = EffectTable::new();
    let mut s1 = exec.stream();
    let mut s2 = exec.stream();
    s1.launch_declared(&table, "left", 1000, &[], |_| {});
    s2.launch_declared(&table, "right", 1000, &[], |_| {});
    exec.join(&mut [&mut s1, &mut s2]);
    let s = exec.stats();
    assert_eq!(s.launches, 2);
    assert_eq!(s.total_threads, 2000);
    // Serialized: ceil(1000/64) * 2 = 32. Overlapped: only the heavier
    // stream is on the critical path = 16.
    assert_eq!(s.serialized_time(64), 32);
    assert_eq!(s.modeled_time(64), 16);
    assert!(
        s.modeled_time(64) < s.serialized_time(64),
        "two-stream workload must model strictly cheaper than its serialized sum"
    );
}

#[test]
fn single_stream_sync_is_fully_critical() {
    let exec = Executor::with_threads(4);
    let table = EffectTable::new();
    let mut s = exec.stream();
    s.launch_declared(&table, "a", 100, &[], |_| {});
    s.launch_declared(&table, "b", 100, &[], |_| {});
    s.sync();
    let stats = exec.stats();
    assert_eq!(stats.total_launches(), 2);
    // One stream is an ordered chain: nothing overlaps.
    assert_eq!(stats.modeled_time(64), stats.serialized_time(64));
}

#[test]
fn stream_launches_run_in_queue_order_and_see_prior_writes() {
    let exec = Executor::with_threads(4);
    let table = EffectTable::new();
    let id = table.buffer("buf", 256);
    let mut buf = vec![0u64; 256];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        let mut s = exec.stream();
        let cref = &cells;
        // SAFETY: each tid writes its own slot.
        s.launch_declared(
            &table,
            "produce",
            256,
            &[Effect::write(id, OWN)],
            move |tid| unsafe { cref.write(tid, tid, tid as u64) },
        );
        // SAFETY: reads slots written by the previous launch on the same
        // stream (ordered), then writes its own slot.
        s.launch_declared(
            &table,
            "double",
            256,
            &[Effect::read(id, OWN), Effect::write(id, OWN)],
            move |tid| unsafe {
                let v = cref.read(tid, tid);
                cref.write(tid, tid, v * 2);
            },
        );
        s.sync();
    }
    assert!(buf.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
}

#[test]
fn dropped_stream_syncs_its_queue() {
    let exec = Executor::with_threads(2);
    let table = EffectTable::new();
    let id = table.buffer("buf", 16);
    let mut buf = vec![0u32; 16];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        let mut s = exec.stream();
        let cref = &cells;
        // SAFETY: each tid writes its own slot.
        s.launch_declared(
            &table,
            "fill",
            16,
            &[Effect::write(id, OWN)],
            move |tid| unsafe { cref.write(tid, tid, 7) },
        );
        // No explicit sync: dropping the stream completes its work.
    }
    assert!(buf.iter().all(|&v| v == 7));
    assert_eq!(exec.stats().total_launches(), 1);
}

/// A stream dropped because a panic is unwinding through its owner must
/// abandon its queue: launching kernels mid-unwind runs them on whatever
/// the panic left behind, and a kernel that panics there is a double
/// panic — a process abort no `catch_unwind` contains.
#[test]
fn stream_dropped_during_unwind_does_not_launch() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let exec = Executor::with_threads(2);
    let table = EffectTable::new();
    let id = table.buffer("buf", 8);
    let ran = AtomicUsize::new(0);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut s = exec.stream();
        s.launch_declared(&table, "clean", 4, &[Effect::write(id, OWN)], |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        // Every tid writes slot 0: a static write-write hazard, which
        // panics at queue time — with "clean" still queued.
        let same_slot = Pattern::Affine {
            base: 0,
            stride: 0,
            span: 1,
        };
        s.launch_declared(&table, "bad", 4, &[Effect::write(id, same_slot)], |_| {});
    }));
    assert!(unwound.is_err(), "the hazardous declaration must panic");
    assert_eq!(
        ran.load(Ordering::Relaxed),
        0,
        "a queued kernel ran while the panic unwound"
    );
    assert_eq!(exec.stats().total_launches(), 0);
}

#[test]
fn unordered_same_slot_writes_are_flagged_as_stream_race() {
    let exec = inspecting_executor();
    let (table, id, effects) = loose("shared", 4);
    let mut buf = vec![0u32; 4];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        let c = &cells;
        let mut s1 = exec.stream();
        let mut s2 = exec.stream();
        // SAFETY: intentionally racy across streams (both write slot 0);
        // sanitized epochs are serialized, so the race is logged, not
        // physically exercised.
        s1.launch_declared(&table, "w1", 1, &effects, move |tid| unsafe {
            c.write(tid, 0, 1)
        });
        // SAFETY: as above — the conflicting half of the intentional race.
        s2.launch_declared(&table, "w2", 1, &effects, move |tid| unsafe {
            c.write(tid, 0, 2)
        });
        exec.join(&mut [&mut s1, &mut s2]);
    }
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    let r = &reports[0];
    assert_eq!(r.kernel, "w2");
    assert_eq!(r.other_kernel.as_deref(), Some("w1"));
    assert_eq!(r.buffer, "shared");
    assert_eq!(r.index, 0);
    assert!(matches!(
        r.kind,
        ConflictKind::StreamRace {
            kinds: (AccessKind::Write, AccessKind::Write),
            ..
        }
    ));
}

#[test]
fn stream_ordered_same_slot_writes_are_clean() {
    let exec = inspecting_executor();
    let (table, id, effects) = loose("shared", 4);
    let mut buf = vec![0u32; 4];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        let c = &cells;
        let mut s = exec.stream();
        // SAFETY: both launches write slot 0, but they sit on one stream:
        // program order is an ordering edge, so this is not a race.
        s.launch_declared(&table, "w1", 1, &effects, move |tid| unsafe {
            c.write(tid, 0, 1)
        });
        // SAFETY: as above — ordered after w1 by the stream's program
        // order.
        s.launch_declared(&table, "w2", 1, &effects, move |tid| unsafe {
            c.write(tid, 0, 2)
        });
        s.sync();
    }
    assert!(exec.take_reports().is_empty());
    assert_eq!(buf[0], 2);
}

#[test]
fn sync_barrier_between_streams_is_an_ordering_edge() {
    let exec = inspecting_executor();
    let (table, id, effects) = loose("shared", 4);
    let mut buf = vec![0u32; 4];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        let c = &cells;
        let mut s1 = exec.stream();
        // SAFETY: slot 0 is written by s1, synced, then written by s2:
        // the sync barrier orders the two accesses.
        s1.launch_declared(&table, "w1", 1, &effects, move |tid| unsafe {
            c.write(tid, 0, 1)
        });
        s1.sync();
        let mut s2 = exec.stream();
        // SAFETY: as above — s1's write completed at the sync barrier.
        s2.launch_declared(&table, "w2", 1, &effects, move |tid| unsafe {
            c.write(tid, 0, 2)
        });
        s2.sync();
    }
    assert!(exec.take_reports().is_empty());
    assert_eq!(buf[0], 2);
}

#[test]
fn cross_stream_read_of_unordered_write_is_flagged() {
    let exec = inspecting_executor();
    let (table, id, effects) = loose("shared", 4);
    let mut buf = vec![0u32; 4];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        let c = &cells;
        let mut s1 = exec.stream();
        let mut s2 = exec.stream();
        // SAFETY: intentionally hazardous: s2 reads what s1 writes with
        // no ordering edge; serialized under the sanitizer.
        s1.launch_declared(&table, "producer", 1, &effects, move |tid| unsafe {
            c.write(tid, 2, 9)
        });
        // SAFETY: as above — the reading half of the intentional hazard.
        s2.launch_declared(&table, "consumer", 1, &effects, move |tid| unsafe {
            let _ = c.read(tid, 2);
        });
        exec.join(&mut [&mut s1, &mut s2]);
    }
    let reports = exec.take_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert!(matches!(
        reports[0].kind,
        ConflictKind::StreamRace {
            kinds: (AccessKind::Write, AccessKind::Read),
            ..
        }
    ));
}

#[test]
fn disjoint_streams_are_clean_and_results_land() {
    let exec = inspecting_executor();
    let table = EffectTable::new();
    let (ia, ib) = (table.buffer("a", 64), table.buffer("b", 64));
    let mut a = vec![0u32; 64];
    let mut b = vec![0u32; 64];
    {
        let ca = exec.bind_table(&table, ia, &mut a);
        let cb = exec.bind_table(&table, ib, &mut b);
        let (ra, rb) = (&ca, &cb);
        let mut s1 = exec.stream();
        let mut s2 = exec.stream();
        // SAFETY: each tid writes its own slot; streams touch disjoint
        // buffers.
        s1.launch_declared(
            &table,
            "fill-a",
            64,
            &[Effect::write(ia, OWN)],
            move |tid| unsafe { ra.write(tid, tid, 1) },
        );
        // SAFETY: as above, on the other buffer.
        s2.launch_declared(
            &table,
            "fill-b",
            64,
            &[Effect::write(ib, OWN)],
            move |tid| unsafe { rb.write(tid, tid, 2) },
        );
        exec.join(&mut [&mut s1, &mut s2]);
    }
    assert!(exec.take_reports().is_empty());
    assert!(a.iter().all(|&v| v == 1));
    assert!(b.iter().all(|&v| v == 2));
}

/// Two streams over disjoint halves of one buffer: identical data and
/// identical launch accounting on a raw and on a sanitizing executor, no
/// reports, and the counter that tells the two modes apart.
#[test]
fn raw_and_sanitized_streams_record_identical_stats() {
    let run = |exec: &Executor| {
        let table = EffectTable::new();
        let id = table.buffer("buf", 128);
        let upper = Pattern::Affine {
            base: 64,
            stride: 1,
            span: 1,
        };
        let mut buf = vec![0u64; 128];
        {
            let cells = exec.bind_table(&table, id, &mut buf);
            let c = &cells;
            let mut s1 = exec.stream();
            let mut s2 = exec.stream();
            // SAFETY: disjoint halves: s1 writes 0..64, s2 writes 64..128.
            s1.launch_declared(
                &table,
                "lower",
                64,
                &[Effect::write(id, OWN)],
                move |tid| unsafe { c.write(tid, tid, 1) },
            );
            // SAFETY: as above, upper half.
            s2.launch_declared(
                &table,
                "upper",
                64,
                &[Effect::write(id, upper)],
                move |tid| unsafe { c.write(tid, tid + 64, 2) },
            );
            exec.join(&mut [&mut s1, &mut s2]);
        }
        buf
    };
    let raw = Executor::with_threads(3);
    let san = Executor::with_sanitizer(3);
    let data = run(&raw);
    assert!(data[..64].iter().all(|&v| v == 1) && data[64..].iter().all(|&v| v == 2));
    assert_eq!(data, run(&san));
    assert!(san.take_reports().is_empty());
    assert_eq!(raw.stats().total_launches(), san.stats().total_launches());
    assert_eq!(raw.stats().total_threads, san.stats().total_threads);
    assert_eq!(raw.stats().modeled_time(64), san.stats().modeled_time(64));
    assert_eq!(san.stats().static_verified_launches, 0);
    if !raw.sanitizing() {
        assert_eq!(raw.stats().static_verified_launches, 2);
    }
}

#[test]
fn arena_buffers_feed_kernels_and_recycle() {
    let exec = Executor::with_threads(2);
    let table = EffectTable::new();
    let id = table.buffer("table", 300);
    for round in 0..4 {
        let mut data = exec.arena().take::<u64>(300);
        {
            let cells = exec.bind_table(&table, id, &mut data);
            let c = &cells;
            let mut s = exec.stream();
            // SAFETY: each tid writes its own slot.
            s.launch_declared(
                &table,
                "fill",
                300,
                &[Effect::write(id, OWN)],
                move |tid| unsafe { c.write(tid, tid, round as u64) },
            );
            s.sync();
        }
        assert!(data.iter().all(|&v| v == round as u64));
    }
    let s = exec.stats();
    assert_eq!(s.arena_misses, 1, "one allocation serves all rounds");
    assert_eq!(s.arena_hits, 3);
    assert_eq!(s.arena_peak_bytes, 512 * 8);
}
