//! The full sweeping engine runs clean under the kernel sanitizer — every
//! access of every launch audited against its declared effects — and a
//! sanitized run produces exactly the results of an uninstrumented run.

use parsweep::aig::miter;
use parsweep::engine::{fraig, sim_sweep, EngineConfig, Verdict};
use parsweep::par::Executor;
use parsweep::synth::resyn2;
use parsweep_bench::gen::gen_multiplier;

#[test]
fn engine_is_race_free_and_deterministic_under_sanitizer() {
    let base = gen_multiplier(3);
    let optimized = resyn2(&base);
    let miter = miter(&base, &optimized).unwrap();
    let cfg = EngineConfig::default();

    let raw_exec = Executor::with_threads(2);
    let raw = sim_sweep(&miter, &raw_exec, &cfg);

    let san_exec = Executor::with_sanitizer(2);
    let san = sim_sweep(&miter, &san_exec, &cfg);

    // Fail-fast is on: any hazard inside the engine kernels, or any
    // access outside a kernel's declared effects, would have panicked
    // the sanitized run. Double-check no reports accumulated.
    assert!(san_exec.take_reports().is_empty());
    // "Ran under the sanitizer" means every launch was audited: none ran
    // on the parallel path, while the raw run sent all of them there
    // (ambient PARSWEEP_SANITIZE makes `with_threads` sanitize too).
    assert!(san_exec.stats().total_launches() > 0);
    assert_eq!(san_exec.stats().static_verified_launches, 0);
    if !raw_exec.sanitizing() {
        assert_eq!(
            raw_exec.stats().static_verified_launches,
            raw_exec.stats().total_launches()
        );
    }

    assert_eq!(raw.verdict, Verdict::Equivalent);
    assert_eq!(raw.verdict, san.verdict);
    assert_eq!(raw.stats.proved_pairs, san.stats.proved_pairs);
    assert_eq!(raw.stats.common_cuts, san.stats.common_cuts);
    // Identical launch structure: the sanitizer only serializes, it never
    // changes what is launched.
    assert_eq!(raw_exec.stats().launches, san_exec.stats().launches);
    assert_eq!(
        raw_exec.stats().total_threads,
        san_exec.stats().total_threads
    );
}

#[test]
fn inequivalent_miter_verdicts_agree_under_sanitizer() {
    // Perturb one PO of a multiplier so the designs differ.
    let mut left = gen_multiplier(2);
    let right = gen_multiplier(2);
    let po = left.pos()[0];
    left.set_po(0, !po);
    let miter = miter(&left, &right).unwrap();

    let cfg = EngineConfig::default();
    let raw = sim_sweep(&miter, &Executor::with_threads(2), &cfg);
    let san_exec = Executor::with_sanitizer(2);
    let san = sim_sweep(&miter, &san_exec, &cfg);

    assert!(san_exec.take_reports().is_empty());
    assert!(matches!(raw.verdict, Verdict::NotEquivalent(_)));
    match (&raw.verdict, &san.verdict) {
        (Verdict::NotEquivalent(a), Verdict::NotEquivalent(b)) => assert_eq!(a, b),
        other => panic!("verdicts diverged under sanitizer: {other:?}"),
    }
}

#[test]
fn fraig_result_is_identical_under_sanitizer() {
    // One width above the miter of the first test: at width 3 the G phase
    // settles every class, so neither refinement nor dirty-cone
    // resimulation would run.
    let base = gen_multiplier(4);
    let optimized = resyn2(&base);
    let miter = miter(&base, &optimized).unwrap();
    // A tight global support bound and few random words: wide pairs fall
    // through to later G rounds and the local phases, and coarse initial
    // classes need refinement.
    let mut cfg = EngineConfig::scaled().with_support_bounds(18, 14, 7);
    cfg.sim_words = 2;
    cfg.max_local_phases = 2;

    let san_exec = Executor::with_sanitizer(2);
    let san = fraig(&miter, &san_exec, &cfg);
    let raw = fraig(&miter, &Executor::with_threads(2), &cfg);

    assert!(san_exec.take_reports().is_empty());
    assert_eq!(san_exec.stats().static_verified_launches, 0);
    assert_eq!(raw.stats.final_ands, san.stats.final_ands);
    assert_eq!(raw.stats.proved_pairs, san.stats.proved_pairs);
    // The audit covered the incremental G/L machinery, not just one pass.
    assert!(san.stats.pruned_sim_rounds > 0);
    assert!(san.stats.classes_refined > 0);
    assert!(san.stats.resim_dirty_nodes > 0);
}
