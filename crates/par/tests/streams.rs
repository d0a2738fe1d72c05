//! Behavior of the device runtime: chains of eager launches (each one a
//! barrier ordering it after every earlier launch), on raw and sanitizing
//! executors, and arena-backed buffers feeding kernels.

mod common;

use common::{inspecting_executor, loose, OWN};
use parsweep_par::{Effect, EffectTable, Executor, Pattern};

#[test]
fn stream_launches_run_in_queue_order_and_see_prior_writes() {
    let exec = Executor::with_threads(4);
    let table = EffectTable::new();
    let id = table.buffer("buf", 256);
    let mut buf = vec![0u64; 256];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        // SAFETY: each tid writes its own slot.
        exec.launch_declared(
            &table,
            "produce",
            256,
            &[Effect::write(id, OWN)],
            |tid| unsafe { cells.write(tid, tid, tid as u64) },
        );
        // SAFETY: reads slots written by the previous launch (ordered by
        // its barrier), then writes its own slot.
        exec.launch_declared(
            &table,
            "double",
            256,
            &[Effect::read(id, OWN), Effect::write(id, OWN)],
            |tid| unsafe {
                let v = cells.read(tid, tid);
                cells.write(tid, tid, v * 2);
            },
        );
    }
    assert!(buf.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
}

#[test]
fn stream_ordered_same_slot_writes_are_clean() {
    let exec = inspecting_executor();
    let (table, id, effects) = loose("shared", 4);
    let mut buf = vec![0u32; 4];
    {
        let cells = exec.bind_table(&table, id, &mut buf);
        // SAFETY: both launches write slot 0, but the first launch's
        // barrier orders it before the second: this is not a race.
        exec.launch_declared(&table, "w1", 1, &effects, |tid| unsafe {
            cells.write(tid, 0, 1)
        });
        // SAFETY: as above — ordered after w1.
        exec.launch_declared(&table, "w2", 1, &effects, |tid| unsafe {
            cells.write(tid, 0, 2)
        });
    }
    assert!(exec.take_reports().is_empty());
    assert_eq!(buf[0], 2);
}

/// Two launches over disjoint halves of one buffer: identical data and
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
            // SAFETY: disjoint halves: "lower" writes 0..64.
            exec.launch_declared(
                &table,
                "lower",
                64,
                &[Effect::write(id, OWN)],
                |tid| unsafe { cells.write(tid, tid, 1) },
            );
            // SAFETY: as above, upper half 64..128.
            exec.launch_declared(
                &table,
                "upper",
                64,
                &[Effect::write(id, upper)],
                |tid| unsafe { cells.write(tid, tid + 64, 2) },
            );
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
            // SAFETY: each tid writes its own slot.
            exec.launch_declared(
                &table,
                "fill",
                300,
                &[Effect::write(id, OWN)],
                |tid| unsafe { cells.write(tid, tid, round as u64) },
            );
        }
        assert!(data.iter().all(|&v| v == round as u64));
    }
    let s = exec.stats();
    assert_eq!(s.arena_misses, 1, "one allocation serves all rounds");
    assert_eq!(s.arena_hits, 3);
    assert_eq!(s.arena_peak_bytes, 512 * 8);
}
