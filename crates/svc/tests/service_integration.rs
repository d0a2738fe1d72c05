//! End-to-end acceptance tests for the CEC job service.
//!
//! Covers the two service-level guarantees:
//!
//! * a batch containing a duplicated miter settles the duplicate from the
//!   cone result cache while returning verdicts identical to solo engine
//!   runs;
//! * a deadline-bounded job on a miter too big to finish in time returns
//!   within twice its deadline with a *partial* — never incorrect —
//!   verdict.

use std::time::{Duration, Instant};

use parsweep_aig::{miter, Aig, Lit};
use parsweep_core::sim_sweep;
use parsweep_par::Executor;
use parsweep_sat::Verdict;
use parsweep_svc::{CecService, SubmitOpts, SvcConfig};

/// `m` with its POs in reverse order: the same output cones under a
/// different whole-miter hash, so a resubmission walks the cone cache
/// instead of settling from the job memo.
fn reversed_pos(m: &Aig) -> Aig {
    let mut r = m.clone();
    let n = r.num_pos();
    for i in 0..n {
        r.set_po(i, m.po(n - 1 - i));
    }
    r
}

/// Ripple-carry adder: `w`-bit operands plus carry-in, `w + 1` outputs.
fn ripple_adder(w: usize) -> Aig {
    let mut aig = Aig::new();
    let pis = aig.add_inputs(2 * w + 1);
    let (a, rest) = pis.split_at(w);
    let (b, cin) = rest.split_at(w);
    let mut carry = cin[0];
    for i in 0..w {
        let axb = aig.xor(a[i], b[i]);
        let sum = aig.xor(axb, carry);
        let c1 = aig.and(a[i], b[i]);
        let c2 = aig.and(axb, carry);
        carry = aig.or(c1, c2);
        aig.add_po(sum);
    }
    aig.add_po(carry);
    aig
}

/// Flattened carry-lookahead adder over the same PI layout as
/// [`ripple_adder`]: each carry is a sum-of-products over all lower
/// generate/propagate pairs, so the structure shares nothing with the
/// ripple chain and the miter cannot strash to constants.
fn cla_adder(w: usize) -> Aig {
    let mut aig = Aig::new();
    let pis = aig.add_inputs(2 * w + 1);
    let (a, rest) = pis.split_at(w);
    let (b, cin) = rest.split_at(w);
    let g: Vec<Lit> = (0..w).map(|i| aig.and(a[i], b[i])).collect();
    let p: Vec<Lit> = (0..w).map(|i| aig.xor(a[i], b[i])).collect();
    let mut carries: Vec<Lit> = vec![cin[0]];
    for i in 0..w {
        // c[i+1] = g[i] | p[i]g[i-1] | ... | p[i]..p[0]c0, built as a
        // flat OR of AND-chains (not the recursive g | p&c form, which
        // would strash into the ripple carry).
        let mut c = g[i];
        for j in (0..=i).rev() {
            let mut term = if j == 0 { cin[0] } else { g[j - 1] };
            for &pk in &p[j..=i] {
                term = aig.and(term, pk);
            }
            c = aig.or(c, term);
        }
        carries.push(c);
    }
    for i in 0..w {
        let sum = aig.xor(p[i], carries[i]);
        aig.add_po(sum);
    }
    aig.add_po(carries[w]);
    aig
}

/// A CLA adder with one output corrupted (top sum bit inverted).
fn corrupt_cla_adder(w: usize) -> Aig {
    let mut aig = cla_adder(w);
    let po = aig.po(w - 1);
    aig.set_po(w - 1, !po);
    aig
}

/// Ripple-sums two equal-width vectors, dropping the final carry.
fn add_vec(aig: &mut Aig, x: &[Lit], y: &[Lit]) -> Vec<Lit> {
    let mut carry = Lit::FALSE;
    let mut out = Vec::with_capacity(x.len());
    for (&xi, &yi) in x.iter().zip(y) {
        let axb = aig.xor(xi, yi);
        let sum = aig.xor(axb, carry);
        let c1 = aig.and(xi, yi);
        let c2 = aig.and(axb, carry);
        carry = aig.or(c1, c2);
        out.push(sum);
    }
    out
}

/// Array multiplier (`w`-bit operands, `2w`-bit product) accumulating
/// partial-product rows in ascending or descending order. Addition is
/// associative and commutative, so the two orders are functionally
/// identical — but structurally disjoint, which makes the miter a
/// classically hard CEC instance with no internal equivalences to sweep.
fn multiplier(w: usize, descending: bool) -> Aig {
    let mut aig = Aig::new();
    let pis = aig.add_inputs(2 * w);
    let (a, b) = pis.split_at(w);
    let row = |aig: &mut Aig, i: usize| -> Vec<Lit> {
        // Row i = (a & b[i]) << i, padded to 2w bits.
        let mut bits = vec![Lit::FALSE; 2 * w];
        for j in 0..w {
            bits[i + j] = aig.and(a[j], b[i]);
        }
        bits
    };
    let order: Vec<usize> = if descending {
        (0..w).rev().collect()
    } else {
        (0..w).collect()
    };
    let mut acc = row(&mut aig, order[0]);
    for &i in &order[1..] {
        let r = row(&mut aig, i);
        acc = add_vec(&mut aig, &acc, &r);
    }
    for bit in acc {
        aig.add_po(bit);
    }
    aig
}

#[test]
fn duplicated_batch_hits_cache_and_matches_solo_runs() {
    let cfg = SvcConfig {
        workers: 2,
        ..SvcConfig::default()
    };
    let engine_cfg = cfg.engine.clone();
    let svc = CecService::new(cfg);

    // One equivalent pair, one inequivalent pair, and the equivalent pair
    // again: the duplicate must settle entirely from the cache. It is
    // submitted only once the first copy has settled (in-flight
    // duplicates prove fresh by design), and with its POs reversed so the
    // whole-job memo does not settle it before any shard probes the cone
    // cache.
    let eq = miter(&ripple_adder(8), &cla_adder(8)).unwrap();
    let ne = miter(&ripple_adder(8), &corrupt_cla_adder(8)).unwrap();
    assert!(eq.num_pos() > 0 && eq.pos().iter().any(|&po| po != Lit::FALSE));
    let first = svc.submit(eq.clone());
    let jobs = [first, svc.submit(ne.clone())];
    let mut results: Vec<_> = jobs.iter().map(|&j| svc.wait(j).unwrap()).collect();
    let dup = reversed_pos(&eq);
    results.push(svc.wait(svc.submit(dup.clone())).unwrap());

    // Verdicts are identical to solo engine runs on the same miters.
    let exec = Executor::new();
    let solo_eq = sim_sweep(&eq, &exec, &engine_cfg).verdict;
    let solo_ne = sim_sweep(&ne, &exec, &engine_cfg).verdict;
    assert_eq!(solo_eq, Verdict::Equivalent);
    assert!(matches!(solo_ne, Verdict::NotEquivalent(_)));

    assert_eq!(results[0].verdict, Verdict::Equivalent);
    assert_eq!(results[2].verdict, Verdict::Equivalent);
    match &results[1].verdict {
        Verdict::NotEquivalent(cex) => {
            // Counter-examples need not be bit-identical to the solo run's,
            // but both must actually fire the submitted miter.
            assert!(cex.fires(&ne));
            match &solo_ne {
                Verdict::NotEquivalent(solo_cex) => assert!(solo_cex.fires(&ne)),
                other => panic!("solo run returned {other:?}"),
            }
        }
        other => panic!("service returned {other:?} for the corrupt miter"),
    }

    // The duplicated submission hit the cache on every shard too wide to
    // settle from its truth table.
    assert!(!dup.same_structure(&eq));
    let dup = &results[2];
    assert!(!dup.stats.memo_hit);
    assert!(dup.stats.cache_hits > 0);
    assert_eq!(
        dup.stats.cache_hits + dup.stats.table_decided,
        dup.stats.shards as u64
    );
    assert_eq!(dup.stats.cache_misses, 0);
    let stats = svc.stats();
    assert!(stats.cache_hit_rate() > 0.0, "stats: {stats}");
    assert_eq!(stats.jobs_completed, 3);
}

#[test]
fn deadline_job_returns_promptly_with_partial_verdict() {
    // Reversed-accumulation multiplier miter: functionally equivalent,
    // structurally disjoint — far too hard to finish inside the deadline.
    // The kernel sanitizer serializes and logs every launch (an order of
    // magnitude slower), so it gets a smaller instance — engine stages
    // between cancellation polls must stay short relative to the
    // deadline — and the deadline matching headroom.
    let sanitizing = Executor::with_threads(1).sanitizing();
    let width = if sanitizing { 12 } else { 16 };
    let eq = miter(&multiplier(width, false), &multiplier(width, true)).unwrap();

    // The engine polls the token between simulation batches and between
    // the rounds within a batch, so the 2x promptness bound needs the
    // deadline to dominate one *round*. A round simulates up to
    // `memory_words` of truth-table segments; shrinking it forces the
    // multi-round path (the paper's bounded-memory mode) and keeps the
    // poll interval tight even under the kernel sanitizer, which
    // serializes and logs every launch.
    let mut cfg = SvcConfig {
        workers: 1,
        ..SvcConfig::default()
    };
    cfg.engine.batch_entries = 1 << 12;
    cfg.engine.memory_words = 1 << 15;
    let svc = CecService::new(cfg);
    let deadline = Duration::from_millis(if sanitizing { 1500 } else { 300 });
    let start = Instant::now();
    let job = svc.submit_with_opts(
        eq.clone(),
        SubmitOpts {
            deadline: Some(deadline),
            ..SubmitOpts::default()
        },
    );
    let result = svc.wait(job).unwrap();
    let elapsed = start.elapsed();

    // Prompt: the job settles within twice its deadline.
    assert!(
        elapsed <= 2 * deadline,
        "job took {elapsed:?} against a {deadline:?} deadline"
    );
    assert!(result.stats.cancelled, "deadline never tripped");

    // Partial, never wrong: the construction is equivalent, so any
    // decided answer other than Equivalent would be unsound. A cancelled
    // run may still have proved every cone it reached.
    match result.verdict {
        Verdict::Undecided | Verdict::Equivalent => {}
        Verdict::NotEquivalent(_) => panic!("cancelled job fabricated a disproof"),
    }
}

#[test]
fn tiny_memory_budget_reaches_the_windowed_regime_with_identical_verdicts() {
    // `engine.memory_words` is the only residency control and it flows
    // from `SvcConfig` to every worker: a budget the partial-simulation
    // tables cannot fit must stream them through host staging
    // (`window_spills > 0`) and still answer exactly like the default.
    // PO support bounds below the operand width keep the P phase from
    // settling the product bits, so G rounds (full, live-cone and
    // dirty-cone simulation) do the proving.
    let width = 6;
    let eq = miter(&multiplier(width, false), &multiplier(width, true)).unwrap();
    let mut bad = multiplier(width, true);
    let po = bad.po(width);
    bad.set_po(width, !po);
    let ne = miter(&multiplier(width, false), &bad).unwrap();

    let run = |memory_words: Option<usize>| {
        let mut cfg = SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        };
        cfg.engine = cfg.engine.with_support_bounds(8, 8, 12);
        if let Some(words) = memory_words {
            cfg.engine.memory_words = words;
        }
        let svc = CecService::new(cfg);
        let (j_eq, j_ne) = (svc.submit(eq.clone()), svc.submit(ne.clone()));
        let verdicts = (
            svc.wait(j_eq).unwrap().verdict,
            svc.wait(j_ne).unwrap().verdict,
        );
        (verdicts, svc.launch_stats())
    };
    let ((eq_default, ne_default), default_stats) = run(None);
    let ((eq_tiny, ne_tiny), tiny_stats) = run(Some(1 << 10));

    assert_eq!(default_stats.window_spills, 0, "the default budget fits");
    assert!(tiny_stats.window_spills > 0, "tiny budget never spilled");
    assert_eq!(eq_default, Verdict::Equivalent);
    assert_eq!(eq_tiny, Verdict::Equivalent);
    for verdict in [ne_default, ne_tiny] {
        match verdict {
            Verdict::NotEquivalent(cex) => assert!(cex.fires(&ne), "cex must fire"),
            other => panic!("corrupted multiplier must be disproved, got {other:?}"),
        }
    }
}

#[test]
fn cache_shared_across_jobs_with_common_cones() {
    // Two separately built miters of the same equivalent pair:
    // structurally identical cones settle from the cache across job
    // boundaries. Jobs run back to back so every shard of the second job
    // finds the first job's inserts. The second miter's POs are reversed:
    // the two would otherwise hash identically, and a whole-job memo hit
    // would bypass the cone cache this test is about.
    let svc = CecService::new(SvcConfig::default());
    let m1 = miter(&ripple_adder(6), &cla_adder(6)).unwrap();
    let m2 = reversed_pos(&miter(&ripple_adder(6), &cla_adder(6)).unwrap());
    let j1 = svc.submit(m1);
    let r1 = svc.wait(j1).unwrap();
    let j2 = svc.submit(m2);
    let r2 = svc.wait(j2).unwrap();
    assert_eq!(r1.verdict, Verdict::Equivalent);
    assert_eq!(r2.verdict, Verdict::Equivalent);
    assert!(r1.stats.shards > 0);
    assert!(!r2.stats.memo_hit);
    assert!(r2.stats.cache_hits > 0);
    assert_eq!(
        r2.stats.cache_hits + r2.stats.table_decided,
        r2.stats.shards as u64
    );
    assert_eq!(r2.stats.cache_misses, 0);
}

/// `PO = a & b` built directly, or through a redundant decomposition
/// (`a & (a & b)`) that is functionally identical but adds a gate, so
/// the two versions share no structural cache key.
fn and_net(redundant: bool) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs(2);
    let t = aig.and(xs[0], xs[1]);
    let f = if redundant { aig.and(xs[0], t) } else { t };
    aig.add_po(f);
    aig
}

/// `PO = a | b`, optionally through the same kind of redundancy.
fn or_net(redundant: bool) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs(2);
    let t = aig.or(xs[0], xs[1]);
    let f = if redundant { aig.or(xs[0], t) } else { t };
    aig.add_po(f);
    aig
}

#[test]
fn semantic_tier_serves_cex_for_structurally_new_cone() {
    // Two inequivalent miters of the same *function* (AND vs OR) whose
    // cones differ structurally: both settle from their own truth tables,
    // never from the cache — each with a counter-example that must fire
    // its own miter.
    let m1 = miter(&and_net(false), &or_net(false)).unwrap();
    let m2 = miter(&and_net(true), &or_net(true)).unwrap();
    let c1 = m1.extract_cone(&[0]).cone;
    let c2 = m2.extract_cone(&[0]).cone;
    assert!(
        !c1.same_structure(&c2),
        "the cones must differ structurally for the test to mean anything"
    );

    let svc = CecService::new(SvcConfig::default());
    let r1 = svc.wait(svc.submit(m1.clone())).unwrap();
    let r2 = svc.wait(svc.submit(m2.clone())).unwrap();
    match &r1.verdict {
        Verdict::NotEquivalent(cex) => assert!(cex.fires(&m1)),
        other => panic!("AND vs OR settled {other:?}"),
    }
    match &r2.verdict {
        Verdict::NotEquivalent(cex) => assert!(cex.fires(&m2), "served cex must fire its miter"),
        other => panic!("structurally-new AND vs OR settled {other:?}"),
    }
    assert_eq!(r2.stats.table_decided, 1, "second cone settled by table");
    assert_eq!((r2.stats.cache_hits, r2.stats.cache_misses), (0, 0));
    let stats = svc.stats();
    assert_eq!(stats.shards_table_decided, 2, "stats: {stats:?}");
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
}
