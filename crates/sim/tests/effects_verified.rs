//! The simulation engines declare their kernel effects, so on a
//! sanitizing executor they must take the statically-verified fast path:
//! identical results, zero dynamic reports, and the verified-launch
//! counters ticking. Under cross-check mode (`check_declared`, what
//! `PARSWEEP_SANITIZE=all` forces) the same engines run fully sanitized
//! against their declarations without a single uncovered access.

use parsweep_aig::{Lit, Var};
use parsweep_par::{Executor, SanitizerConfig};
use parsweep_sim::{
    check_windows, simulate, simulate_cone, PairCheck, Patterns, ResimPlan, Window,
    DEFAULT_MEMORY_WORDS,
};

fn sanitizing() -> Executor {
    Executor::with_sanitizer(2)
}

fn cross_checking() -> Executor {
    Executor::with_sanitizer_config(
        2,
        SanitizerConfig {
            fail_fast: true,
            check_declared: true,
            ..SanitizerConfig::default()
        },
    )
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

    let exec = sanitizing();
    let (out, _) = check_windows(&aig, &exec, &windows, 1 << 14);
    assert_eq!(out, expected, "verified fast path must not change verdicts");
    assert!(exec.take_reports().is_empty());
    // Ambient PARSWEEP_SANITIZE=all forces cross-check mode, where
    // declared launches deliberately run sanitized instead.
    if !exec.cross_checking() {
        assert!(
            exec.stats().static_verified_launches > 0,
            "declared launches must skip dynamic sanitization"
        );
    }

    // Cross-check: fail_fast panics on any access outside a declaration.
    let exec = cross_checking();
    let (out, _) = check_windows(&aig, &exec, &windows, 1 << 14);
    assert_eq!(out, expected);
    assert_eq!(exec.stats().static_verified_launches, 0);
}

#[test]
fn partial_simulation_is_verified_on_sanitizing_executor() {
    let aig = parsweep_aig::random::random_aig(5, 40, 2, 11);
    let patterns = Patterns::random(5, 2, 99);

    let raw = Executor::with_threads(2);
    let expected = simulate(&aig, &raw, &patterns);

    let exec = sanitizing();
    let sigs = simulate(&aig, &exec, &patterns);
    for v in (0..aig.num_nodes()).map(|i| Var::new(i as u32)) {
        assert_eq!(sigs.sig(v), expected.sig(v));
        assert_eq!(sigs.canonical_hash(v), expected.canonical_hash(v));
    }
    assert!(exec.take_reports().is_empty());
    if !exec.cross_checking() {
        assert!(exec.stats().static_verified_launches > 0);
    }

    // Over budget, the `sim.window.spill` launches are declared too:
    // every level and spill launch is statically verified.
    let exec = sanitizing();
    let (sigs, _) = simulate_cone(&aig, &exec, &patterns, None, 1);
    assert_eq!(sigs.sig(Var::new(1)), expected.sig(Var::new(1)));
    assert!(exec.take_reports().is_empty());
    let stats = exec.stats();
    assert!(stats.window_spills > 0);
    if !exec.cross_checking() {
        assert_eq!(stats.static_verified_launches, stats.total_launches());
    }

    let exec = cross_checking();
    let (sigs, _) = simulate_cone(&aig, &exec, &patterns, None, 1);
    assert_eq!(sigs.sig(Var::new(1)), expected.sig(Var::new(1)));
    assert_eq!(exec.stats().static_verified_launches, 0);
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
    let plan = ResimPlan::new(&old, &new, &map, &subst, &[]);

    let raw = Executor::with_threads(2);
    let old_sigs = simulate(&old, &raw, &patterns);
    let expected = plan.resimulate(&new, &raw, &patterns, &old_sigs, DEFAULT_MEMORY_WORDS);

    let exec = sanitizing();
    let old_sigs2 = simulate(&old, &exec, &patterns);
    let sigs = plan.resimulate(&new, &exec, &patterns, &old_sigs2, DEFAULT_MEMORY_WORDS);
    for v in (0..new.num_nodes()).map(|i| Var::new(i as u32)) {
        assert_eq!(sigs.sig(v), expected.sig(v));
    }
    assert!(exec.take_reports().is_empty());
    if !exec.cross_checking() {
        assert!(exec.stats().static_verified_launches > 0);
    }

    let exec = cross_checking();
    let old_sigs3 = simulate(&old, &exec, &patterns);
    let sigs = plan.resimulate(&new, &exec, &patterns, &old_sigs3, 1);
    assert_eq!(sigs.sig(Var::new(1)), expected.sig(Var::new(1)));
    assert_eq!(exec.stats().static_verified_launches, 0);
}
