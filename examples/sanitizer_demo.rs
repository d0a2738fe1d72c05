//! Kernel-checking demo: the static effect proof every launch needs, and
//! the sanitizer that audits a kernel against it — the executor-model
//! analogue of running under `compute-sanitizer --tool racecheck`.
//!
//! Shows a declaration the static checker rejects before anything runs,
//! then two seeded bugs it cannot see because the *declaration* is clean
//! and the *kernel* is not: one that strays outside its declared
//! footprint, one that races inside it.
//!
//! Run with: `cargo run --example sanitizer_demo`

use parsweep::par::{Effect, EffectTable, Executor, Pattern, SanitizerConfig};

/// Thread `t` touches the one slot `t * stride`.
fn slot(stride: usize) -> Pattern {
    let (base, span) = (0, 1);
    Pattern::Affine { base, stride, span }
}

fn main() {
    let table = EffectTable::new();
    let acc = table.buffer("accumulator", 8);

    // Bug 1, caught statically: every tid declares a write of slot 0.
    // `launch_declared` would panic with this report before running
    // anything; `EffectTable::check` returns it instead.
    let every_tid_slot0 = [Effect::write(acc, slot(0))];
    println!("static checker, before launch:");
    for hazard in table.check("racy-sum", 8, &every_tid_slot0) {
        println!("  {hazard}");
    }

    // A sanitizing executor; accumulate reports instead of panicking on
    // the first one.
    let config = SanitizerConfig {
        fail_fast: false,
        ..SanitizerConfig::default()
    };
    let exec = Executor::with_sanitizer_config(4, config);
    let mut buf = vec![0u64; 8];
    let cells = exec.bind_table(&table, acc, &mut buf);

    // Bug 2: declared as "each tid its own slot", but tid 0 pokes slot 7.
    let own_slot = [Effect::write(acc, slot(1))];
    exec.launch_declared(&table, "stray", 4, &own_slot, |tid| {
        // SAFETY: in bounds, and no other tid of this launch touches 7.
        unsafe { cells.write(tid, if tid == 0 { 7 } else { tid }, 1) };
    });

    // Bug 3: declared as an atomic reduction over the whole buffer —
    // statically clean, atomics commute — but the kernel uses plain
    // writes: a write-write race on a real GPU.
    let reduction = [Effect::atomic(acc, Pattern::All)];
    exec.launch_declared(&table, "racy-sum", 8, &reduction, |tid| {
        // SAFETY: intentionally racy for the demo; sanitized launches
        // are serialized, so the race is logged, never exercised.
        unsafe { cells.write(tid, 0, tid as u64) };
    });

    println!("\nsanitizer, seeded-bug reports:");
    for r in exec.take_reports() {
        println!("  {r}");
    }
}
