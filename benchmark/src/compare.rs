//! `benchmark compare A.json B.json`: holds two result files of
//! `run.sh --repeats K --out` against each other. Per workload and
//! end-to-end metric, the change of the median from A to B is set against
//! the metric's bound: `ok`, `regressed`, or `unresolved` when the runs
//! cannot tell, because a side has fewer than `MIN_RUNS` runs or its own
//! run-to-run spread is wider than the bound. Runs that the time limit cut
//! short of the workload's fixed number of passes are not comparable.
//! Counts made by the program must be identical.

use crate::json::Json;
use crate::run::is_service;
use crate::spec;
use crate::stats::{median, quartile_spread};

/// Runs per side below which a median and its spread say nothing: the
/// box's own drift between two single runs is most of a bound.
const MIN_RUNS: usize = 5;

fn values(results: &Json, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Passes of each untraced run of `workload`.
fn passes(results: &Json, workload: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .map(|runs| {
            runs.iter()
                .filter_map(|r| r.get("passes").and_then(Json::as_f64))
                .collect()
        })
        .unwrap_or_default()
}

/// Prints the comparison; returns whether B is acceptable against A.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut acceptable = true;
    println!(
        "{:<11} {:<16} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A spread", "B spread"
    );
    for w in spec::WORKLOADS {
        let short = |side: &Json| passes(side, w.name).iter().any(|&p| p != w.passes as f64);
        if short(a) || short(b) {
            println!(
                "{:<11} runs cut short of {} passes: {:?} vs {:?}, not comparable",
                w.name,
                w.passes,
                passes(a, w.name),
                passes(b, w.name)
            );
            acceptable = false;
            continue;
        }
        for m in spec::END_TO_END {
            let (va, vb) = (
                values(a, w.name, "end_to_end", m.name),
                values(b, w.name, "end_to_end", m.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{:<11} {:<16} missing in one file", w.name, m.name);
                acceptable = false;
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = worse, whichever way the metric points.
            let worse = if m.better == "lower" {
                mb - ma
            } else {
                ma - mb
            } / ma;
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            // An engine workload's latency percentiles are two of its
            // pairs' times, which `verdict_s` already sums.
            let verdict = if m.name.starts_with("latency_") && !is_service(w.name) {
                "per-pair"
            } else if va.len().min(vb.len()) < MIN_RUNS || sa > bound || sb > bound {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else {
                "ok"
            };
            acceptable &= verdict != "regressed";
            println!(
                "{:<11} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}% {:>7.1}% {:>7.1}%  {verdict} ({} vs {} runs)",
                w.name,
                m.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * bound,
                100.0 * sa,
                100.0 * sb,
                va.len(),
                vb.len()
            );
        }
        let counts: Vec<_> = spec::PER_LAYER
            .iter()
            .filter(|m| spec::is_exact_count(m.name))
            .map(|m| {
                (
                    m.name,
                    values(a, w.name, "per_layer", m.name),
                    values(b, w.name, "per_layer", m.name),
                )
            })
            .collect();
        if counts
            .iter()
            .all(|(_, va, vb)| va.is_empty() && vb.is_empty())
        {
            println!(
                "{:<11} exact counts      missing: neither file has a traced run",
                w.name
            );
        }
        for (name, va, vb) in counts {
            if va != vb {
                println!("{:<11} {name:<16} count differs: {va:?} vs {vb:?}", w.name);
                acceptable = false;
            }
        }
    }
    acceptable
}
