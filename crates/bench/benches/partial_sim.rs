//! Micro-bench: partial (sampled) simulation throughput — the EC
//! initialization cost of every sweeping round.

use criterion::{criterion_group, criterion_main, Criterion};
use parsweep_aig::Var;
use parsweep_bench::gen::{gen_multiplier, gen_voter};
use parsweep_par::Executor;
use parsweep_sim::{signature_classes, simulate, simulate_cone, Patterns, DEFAULT_MEMORY_WORDS};

fn bench_partial(c: &mut Criterion) {
    let exec = Executor::with_threads(1);
    let mult = gen_multiplier(10);
    let voter = gen_voter(101);
    let mut group = c.benchmark_group("partial_sim");
    group.sample_size(20);

    for (name, aig) in [("multiplier10", &mult), ("voter101", &voter)] {
        let patterns = Patterns::random(aig.num_pis(), 8, 7);
        group.bench_function(format!("{name}_simulate_512p"), |b| {
            b.iter(|| simulate(aig, &exec, &patterns))
        });
        // The general entry point on a live cone: the first half of the
        // POs, as a refinement round would prune to.
        let live: Vec<Var> = aig.pos()[..aig.num_pos().div_ceil(2)]
            .iter()
            .map(|po| po.var())
            .collect();
        group.bench_function(format!("{name}_simulate_cone_512p"), |b| {
            b.iter(|| simulate_cone(aig, &exec, &patterns, Some(&live), DEFAULT_MEMORY_WORDS))
        });
        let sigs = simulate(aig, &exec, &patterns);
        group.bench_function(format!("{name}_classes"), |b| {
            b.iter(|| signature_classes(aig, &sigs))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partial);
criterion_main!(benches);
