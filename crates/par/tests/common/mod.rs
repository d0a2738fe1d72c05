//! Shared by the integration suites: how a test drives a deliberately
//! hazardous kernel through the dynamic analysis now that every launch
//! is declared.
#![allow(dead_code)]

use parsweep_par::{BufId, Effect, EffectTable, Executor, Pattern, SanitizerConfig};

/// Each tid owns the slot with its own index.
pub const OWN: Pattern = Pattern::Affine {
    base: 0,
    stride: 1,
    span: 1,
};

/// A sanitizing executor that accumulates reports instead of panicking
/// on the first one.
pub fn inspecting_executor() -> Executor {
    Executor::with_sanitizer_config(
        2,
        SanitizerConfig {
            fail_fast: false,
            max_reports: 4096,
        },
    )
}

/// Declares one `len`-slot buffer together with the loosest legal
/// declaration over it. `atomic` over `All` is statically clean (atomics
/// commute) and covers every access, so a kernel launched under it is
/// judged by the sanitizer's access-log analysis alone — which never
/// looks at the declaration. This is how the dynamic analysis serves as
/// the reference the static checker is compared against.
pub fn loose(label: &str, len: usize) -> (EffectTable, BufId, [Effect; 1]) {
    let table = EffectTable::new();
    let buf = table.buffer(label, len);
    (table, buf, [Effect::atomic(buf, Pattern::All)])
}
