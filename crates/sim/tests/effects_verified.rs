//! The simulation engines declare their kernel effects. On a raw executor
//! every one of their launches therefore runs in parallel on the strength
//! of its static proof; on a sanitizing executor the same engines run
//! serialized with every access audited against those declarations —
//! identical results, not a single uncovered access or hazard (the
//! sanitizer is fail-fast), and no launch counted as parallel.

use parsweep_aig::{Lit, Var};
use parsweep_par::Executor;
use parsweep_sim::{
    check_windows, simulate, simulate_cone, PairCheck, Patterns, ResimPlan, Window,
    DEFAULT_MEMORY_WORDS,
};

fn sanitizing() -> Executor {
    Executor::with_sanitizer(2)
}

/// The assertion that separates the two executor modes: an audited run
/// is clean and ran nothing on the parallel path.
fn assert_audited(exec: &Executor) {
    assert!(exec.take_reports().is_empty());
    let stats = exec.stats();
    assert!(stats.total_launches() > 0);
    assert_eq!(stats.static_verified_launches, 0);
}

/// A raw run ran everything on the parallel path. Ambient
/// `PARSWEEP_SANITIZE` turns `Executor::with_threads` into a sanitizing
/// executor, where [`assert_audited`] applies instead.
fn assert_raw(exec: &Executor) {
    if exec.sanitizing() {
        assert_audited(exec);
    } else {
        let stats = exec.stats();
        assert!(stats.total_launches() > 0);
        assert_eq!(stats.static_verified_launches, stats.total_launches());
    }
}

#[test]
fn exhaustive_checker_is_verified_on_sanitizing_executor() {
    let aig = parsweep_aig::random::random_aig(6, 50, 2, 7);
    let pair = PairCheck {
        a: aig.po(0).var(),
        b: aig.po(1).var(),
        complement: false,
    };
    let windows = [Window::global(&aig, pair)];

    let raw = Executor::with_threads(2);
    let (expected, _) = check_windows(&aig, &raw, &windows, 1 << 14);
    assert_raw(&raw);

    let exec = sanitizing();
    let (out, _) = check_windows(&aig, &exec, &windows, 1 << 14);
    assert_eq!(out, expected, "the audit must not change verdicts");
    assert_audited(&exec);
}

#[test]
fn partial_simulation_is_verified_on_sanitizing_executor() {
    let aig = parsweep_aig::random::random_aig(5, 40, 2, 11);
    let patterns = Patterns::random(5, 2, 99);

    let raw = Executor::with_threads(2);
    let expected = simulate(&aig, &raw, &patterns);
    assert_raw(&raw);

    let exec = sanitizing();
    let sigs = simulate(&aig, &exec, &patterns);
    for v in (0..aig.num_nodes()).map(|i| Var::new(i as u32)) {
        assert_eq!(sigs.sig(v), expected.sig(v));
        assert_eq!(sigs.canonical_hash(v), expected.canonical_hash(v));
    }
    assert_audited(&exec);

    // Over budget, the `sim.window.spill` launches are declared too:
    // every level and spill launch is covered by its declaration.
    let exec = sanitizing();
    let (sigs, _) = simulate_cone(&aig, &exec, &patterns, None, 1);
    assert_eq!(sigs.sig(Var::new(1)), expected.sig(Var::new(1)));
    assert!(exec.stats().window_spills > 0);
    assert_audited(&exec);

    let raw = Executor::with_threads(2);
    let (sigs, _) = simulate_cone(&aig, &raw, &patterns, None, 1);
    assert_eq!(sigs.sig(Var::new(1)), expected.sig(Var::new(1)));
    assert!(raw.stats().window_spills > 0);
    assert_raw(&raw);
}

#[test]
fn resimulation_is_verified_on_sanitizing_executor() {
    let old = parsweep_aig::random::random_aig(5, 40, 2, 23);
    let patterns = Patterns::random(5, 2, 5);
    // Merge one AND node into a smaller literal and rebuild.
    let mut subst: Vec<Lit> = (0..old.num_nodes())
        .map(|i| Var::new(i as u32).lit())
        .collect();
    let victim = old.and_vars().last().expect("network has AND nodes");
    subst[victim.index()] = Var::new(victim.index() as u32 / 2).lit();
    let (new, map) = old.rebuild_with_substitution(&subst);
    let plan = ResimPlan::new(&old, &new, &map, &subst);

    let raw = Executor::with_threads(2);
    let old_sigs = simulate(&old, &raw, &patterns);
    let expected = plan.resimulate(&new, &raw, &patterns, &old_sigs, DEFAULT_MEMORY_WORDS);
    assert_raw(&raw);

    let exec = sanitizing();
    let old_sigs2 = simulate(&old, &exec, &patterns);
    let sigs = plan.resimulate(&new, &exec, &patterns, &old_sigs2, DEFAULT_MEMORY_WORDS);
    for v in (0..new.num_nodes()).map(|i| Var::new(i as u32)) {
        assert_eq!(sigs.sig(v), expected.sig(v));
    }
    assert_audited(&exec);

    // Over budget as well.
    let exec = sanitizing();
    let old_sigs3 = simulate(&old, &exec, &patterns);
    let sigs = plan.resimulate(&new, &exec, &patterns, &old_sigs3, 1);
    assert_eq!(sigs.sig(Var::new(1)), expected.sig(Var::new(1)));
    assert_audited(&exec);
}
