//! Property tests relating the static effect checker to the dynamic
//! sanitizer.
//!
//! For randomly generated affine launch declarations, a mirror kernel
//! performs exactly the declared accesses on a sanitizing executor —
//! launched under the loosest legal declaration (`common::loose`), so the
//! dynamic verdict comes from the access log alone. The static hazard
//! classes must then be a superset of the dynamic ones (the static
//! checker never clips footprints to the buffer, so it sees at least
//! everything the run exhibits), with exact class-set equality whenever
//! the declaration has no static out-of-bounds (then every declared
//! access really executes). Statically clean declarations must
//! additionally survive the audit under their *own* declaration with
//! zero reports: the declared footprints cover every access the kernel
//! performs.

mod common;

use common::{inspecting_executor, loose};
use proptest::prelude::*;

use parsweep_par::{BufId, ConflictKind, Effect, EffectTable, Executor, Pattern, StaticHazard};

/// One randomly generated effect: kind + affine per-tid footprint.
#[derive(Clone, Copy, Debug)]
struct GenEffect {
    write: bool,
    base: usize,
    stride: usize,
    span: usize,
}

#[derive(Clone, Debug)]
struct GenLaunch {
    len: usize,
    width: usize,
    effects: Vec<GenEffect>,
}

fn arb_effect() -> impl Strategy<Value = GenEffect> {
    (any::<bool>(), 0usize..6, 0usize..4, 1usize..4).prop_map(|(write, base, stride, span)| {
        GenEffect {
            write,
            base,
            stride,
            span,
        }
    })
}

fn arb_launch() -> impl Strategy<Value = GenLaunch> {
    (
        4usize..32,
        1usize..6,
        proptest::collection::vec(arb_effect(), 1..4),
    )
        .prop_map(|(len, width, effects)| GenLaunch {
            len,
            width,
            effects,
        })
}

/// Normalized hazard classes shared by the two checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Ww,
    Rw,
    Oob,
}

/// The generated declaration as effects over `buf`.
fn declared_effects(spec: &GenLaunch, buf: BufId) -> Vec<Effect> {
    spec.effects
        .iter()
        .map(|e| {
            let p = Pattern::Affine {
                base: e.base,
                stride: e.stride,
                span: e.span,
            };
            if e.write {
                Effect::write(buf, p)
            } else {
                Effect::read(buf, p)
            }
        })
        .collect()
}

fn static_classes(spec: &GenLaunch) -> (Vec<StaticHazard>, Vec<Class>) {
    let table = EffectTable::new();
    let buf = table.buffer("prop.buf", spec.len);
    let effects = declared_effects(spec, buf);
    let hazards = table.check("prop", spec.width, &effects);
    let mut classes: Vec<Class> = hazards
        .iter()
        .map(|h| match h {
            StaticHazard::WriteWrite { .. } => Class::Ww,
            StaticHazard::ReadWrite { .. } => Class::Rw,
            StaticHazard::OutOfBounds { .. } => Class::Oob,
        })
        .collect();
    classes.sort();
    classes.dedup();
    (hazards, classes)
}

/// Runs the mirror kernel — it performs exactly the generated accesses —
/// under the dynamic sanitizer and collects hazard classes. Reads are
/// clamped to the buffer (`record_read` panics on OOB); writes run
/// unclamped because the sanitizer reports and suppresses them.
fn dynamic_classes(spec: &GenLaunch) -> Vec<Class> {
    let exec = inspecting_executor();
    let (table, buf, loosest) = loose("prop.buf", spec.len);
    let mut data = vec![0u64; spec.len];
    {
        let cells = exec.bind_table(&table, buf, &mut data);
        let cells = &cells;
        let effects = &spec.effects;
        let len = spec.len;
        exec.launch_declared(&table, "prop", spec.width, &loosest, move |tid| {
            for e in effects {
                for k in 0..e.span {
                    let index = e.base + tid * e.stride + k;
                    // SAFETY: the whole point — replays the declared
                    // (possibly hazardous) accesses under the sanitizer,
                    // which serializes tids and suppresses OOB writes.
                    unsafe {
                        if e.write {
                            cells.write(tid, index, 1);
                        } else if index < len {
                            let _ = cells.read(tid, index);
                        }
                    }
                }
            }
        });
    }
    let mut classes: Vec<Class> = exec
        .take_reports()
        .iter()
        .filter_map(|r| match r.kind {
            ConflictKind::WriteWrite { .. } => Some(Class::Ww),
            ConflictKind::ReadWrite { .. } => Some(Class::Rw),
            ConflictKind::OutOfBounds { .. } => Some(Class::Oob),
            _ => None,
        })
        .collect();
    classes.sort();
    classes.dedup();
    classes
}

/// Replays the mirror kernel under its own (statically clean)
/// declaration on a sanitizing executor: every access must be covered,
/// so zero reports.
fn audit_reports(spec: &GenLaunch) -> usize {
    let exec = inspecting_executor();
    let table = EffectTable::new();
    let buf = table.buffer("prop.buf", spec.len);
    let effects = declared_effects(spec, buf);
    let mut data = vec![0u64; spec.len];
    {
        let cells = exec.bind_table(&table, buf, &mut data);
        let cells = &cells;
        let specs = &spec.effects;
        exec.launch_declared(&table, "prop", spec.width, &effects, move |tid| {
            for e in specs {
                for k in 0..e.span {
                    let index = e.base + tid * e.stride + k;
                    // SAFETY: statically verified clean and in-bounds.
                    unsafe {
                        if e.write {
                            cells.write(tid, index, 1);
                        } else {
                            let _ = cells.read(tid, index);
                        }
                    }
                }
            }
        });
    }
    exec.take_reports().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Static hazard classes ⊇ dynamic hazard classes, with equality
    /// when the declaration is statically in-bounds.
    #[test]
    fn static_checker_covers_dynamic_sanitizer(spec in arb_launch()) {
        let (hazards, s) = static_classes(&spec);
        let d = dynamic_classes(&spec);
        for c in &d {
            prop_assert!(
                s.contains(c),
                "dynamic {c:?} missing statically; spec {spec:?}, static {hazards:?}"
            );
        }
        let static_oob = s.contains(&Class::Oob);
        if !static_oob {
            prop_assert_eq!(
                &s, &d,
                "in-bounds declaration must agree exactly; spec {:?}, static {:?}",
                spec, hazards
            );
        }
        // Statically clean ⇒ the declared footprints cover every access
        // the mirror performs: the audit stays silent.
        if hazards.is_empty() {
            prop_assert_eq!(audit_reports(&spec), 0);
        }
    }

    /// Disjoint-by-construction launches never produce a report from
    /// either checker: zero false positives.
    #[test]
    fn clean_launches_have_no_false_positives(
        base in 0usize..8,
        span in 1usize..4,
        extra in 0usize..3,
        width in 1usize..6,
        with_read in any::<bool>(),
    ) {
        let stride = span + extra; // stride ≥ span ⇒ tids are disjoint
        let len = base + stride * width + span;
        let table = EffectTable::new();
        let buf = table.buffer("clean.buf", len);
        let p = Pattern::Affine { base, stride, span };
        let mut effects = vec![Effect::write(buf, p)];
        if with_read {
            // Reading your own slots is clean (diagonal excluded).
            effects.push(Effect::read(buf, p));
        }
        let exec = Executor::with_sanitizer(2);
        let mut data = vec![0u64; len];
        {
            let cells = exec.bind_table(&table, buf, &mut data);
            let cells = &cells;
            // Panics on any static hazard (false positive) and, the
            // sanitizer being fail-fast, on any dynamic report.
            exec.launch_declared(&table, "clean", width, &effects, move |tid| {
                for k in 0..span {
                    // SAFETY: stride ≥ span makes per-tid slots disjoint.
                    unsafe {
                        if with_read {
                            let _ = cells.read(tid, base + tid * stride + k);
                        }
                        cells.write(tid, base + tid * stride + k, 1);
                    }
                }
            });
        }
        prop_assert_eq!(exec.take_reports().len(), 0);
    }
}
