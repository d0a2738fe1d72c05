//! Micro-bench: exhaustive-simulation throughput of the window checker
//! (Algorithm 1), including the effect of window merging (§III-B3).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use parsweep_aig::Var;
use parsweep_bench::gen::gen_multiplier;
use parsweep_core::EcManager;
use parsweep_par::Executor;
use parsweep_sim::{
    check_windows, merge_windows, PairCheck, Patterns, Window, DEFAULT_MEMORY_WORDS,
};

fn build_windows() -> (parsweep_aig::Aig, Vec<Window>) {
    let aig = gen_multiplier(8);
    let exec = Executor::with_threads(1);
    let patterns = Patterns::random(aig.num_pis(), 8, 42);
    let ec = EcManager::from_patterns(&aig, &exec, &patterns, DEFAULT_MEMORY_WORDS);
    let supports = aig.bounded_supports(12);
    let mut windows = Vec::new();
    for pair in ec.pairs(&aig) {
        let (Some(sa), Some(sb)) = (
            supports[pair.a.index()].vars(),
            supports[pair.b.index()].vars(),
        ) else {
            continue;
        };
        let mut union: Vec<Var> = sa.iter().chain(sb).copied().collect();
        union.sort_unstable();
        union.dedup();
        if union.len() > 12 {
            continue;
        }
        if let Some(w) = Window::for_pair(&aig, pair, union) {
            windows.push(w);
        }
    }
    // Add per-PO constant-checking windows for volume.
    for &po in aig.pos() {
        if po.var().is_const() {
            continue;
        }
        if let Some(sup) = supports[po.var().index()].vars() {
            let pair = PairCheck {
                a: Var::FALSE,
                b: po.var(),
                complement: po.is_complemented(),
            };
            if let Some(w) = Window::for_pair(&aig, pair, sup.to_vec()) {
                windows.push(w);
            }
        }
    }
    (aig, windows)
}

fn bench_exhaustive(c: &mut Criterion) {
    let exec = Executor::with_threads(1);
    let (aig, windows) = build_windows();
    let mut group = c.benchmark_group("exhaustive_sim");
    group.sample_size(10);

    group.bench_function("unmerged", |b| {
        b.iter_batched(
            || windows.clone(),
            |w| check_windows(&aig, &exec, &w, 1 << 20),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("merged_ks12", |b| {
        b.iter_batched(
            || merge_windows(windows.clone(), 12),
            |w| check_windows(&aig, &exec, &w, 1 << 20),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("tight_memory_multi_round", |b| {
        b.iter_batched(
            || windows.clone(),
            |w| {
                let entries: usize = w.iter().map(|x| x.num_entries()).sum();
                check_windows(&aig, &exec, &w, entries.max(1))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_exhaustive);
criterion_main!(benches);
