#!/usr/bin/env python3
"""Print per-field deltas between two benchmark JSON files.

Usage: bench_delta.py [--max-regress PCT] PREV.json CURR.json

Walks both objects recursively; for every numeric leaf present in both,
prints ``path: prev -> curr (delta, pct)``. Fields present in only one
file are listed as added/removed.

Without ``--max-regress`` the delta is a report, not a gate: exits 0.
With ``--max-regress PCT`` it also gates:

* pool-dispatched kernel launch counts (leaves whose last path segment
  is ``launches`` or ``total_launches`` — ``inline_launches`` is
  deliberately not gated, since moving work from the pool to the inline
  fast path grows it by design);
* prover-dispatch wall times (leaves named ``sequential_seconds`` or
  ``adaptive_seconds``), with a 10 ms absolute noise floor so timer
  jitter on millisecond-sized rows cannot fail a run;
* per-case peak arena memory (leaves named ``arena_peak_bytes_per_node``
  — normalized per miter node, so suite-composition changes do not mask
  a residency regression). Byte counts are deterministic, so no noise
  floor applies.

Any gated leaf that regresses by more than PCT percent (and, for wall
times, by more than the noise floor) fails the run with exit 1.
"""

import json
import sys


def flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}{i}."))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = obj
    return out


def parse_args(argv):
    max_regress = None
    paths = []
    it = iter(argv)
    for arg in it:
        if arg == "--max-regress":
            val = next(it, None)
            if val is None:
                return None, None
            max_regress = float(val)
        elif arg.startswith("--max-regress="):
            max_regress = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        return None, None
    return max_regress, paths


def summarize_sanitizer_overhead(curr_raw):
    """Report the dynamic-sanitizer-on vs verified-replay wall times the
    runtime bench records for its resim-heavy rows (``sanitizer_overhead``
    entries): how much wall time static effect verification saves."""
    rows = curr_raw.get("sanitizer_overhead") if isinstance(curr_raw, dict) else None
    if not rows:
        return
    print("sanitizer overhead (dynamic audit vs statically verified parallel run):")
    for row in rows:
        try:
            name = row["name"]
            dyn, ver, pct = row["dynamic_seconds"], row["verified_seconds"], row["overhead_pct"]
        except (KeyError, TypeError):
            continue
        print(f"  {name}: dynamic {dyn:.3f}s vs verified {ver:.3f}s (+{pct:.1f}% sanitizer overhead)")


def summarize_prover_dispatch(curr_raw):
    """Report the plain-``sat_sweep`` (``sequential_*`` keys) vs
    dispatcher (``adaptive_*`` keys) wall times the runtime bench records
    for its hard-cone rows (``prover_dispatch`` entries): which engine
    decided each side and what the concurrent race with early-cancel
    bought."""
    rows = curr_raw.get("prover_dispatch") if isinstance(curr_raw, dict) else None
    if not rows:
        return
    print("prover dispatch (plain sat_sweep vs the dispatcher):")
    for row in rows:
        try:
            name = row["name"]
            seq, ada = row["sequential_seconds"], row["adaptive_seconds"]
            seq_eng, ada_eng = row["sequential_engine"], row["adaptive_engine"]
            raced, speedup = row["raced"], row["speedup"]
        except (KeyError, TypeError):
            continue
        mode = "raced" if raced else "solo"
        print(
            f"  {name}: sequential {seq:.3f}s ({seq_eng}) vs "
            f"adaptive {ada:.3f}s ({ada_eng}, {mode}) — {speedup:.2f}x"
        )


def summarize_window_streaming(curr_raw):
    """Report the runtime bench's residency comparison
    (``window_streaming`` entries): peak live arena bytes for the same
    sweep at the default memory budget vs one the signature tables
    cannot fit, and how many signature levels were retired to host
    staging."""
    rows = curr_raw.get("window_streaming") if isinstance(curr_raw, dict) else None
    if not rows:
        return
    print("window streaming (default memory budget vs over-budget tables):")
    for row in rows:
        try:
            name = row["name"]
            res, win = row["resident_peak_live_bytes"], row["windowed_peak_live_bytes"]
            spill, spills = row["spill_peak_bytes"], row["window_spills"]
            reduction = row["peak_reduction"]
        except (KeyError, TypeError):
            continue
        print(
            f"  {name}: resident {res}B vs windowed {win}B "
            f"(+{spill}B spill tier, {spills} level spills) — "
            f"{reduction:.2f}x peak reduction"
        )


# Wall-clock leaves are gated with an absolute floor on top of the
# percentage: a millisecond-sized row can double from scheduler jitter
# alone, and that is not a regression worth failing CI over.
WALL_NOISE_FLOOR_SECONDS = 0.010


def main():
    max_regress, paths = parse_args(sys.argv[1:])
    if paths is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(paths[0]) as f:
            prev = flatten(json.load(f))
        with open(paths[1]) as f:
            curr_raw = json.load(f)
        curr = flatten(curr_raw)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_delta: {e}", file=sys.stderr)
        return 0  # missing/corrupt previous run is not an error
    keys = sorted(set(prev) | set(curr))
    for key in keys:
        if key not in prev:
            print(f"  {key}: (new) {curr[key]}")
        elif key not in curr:
            print(f"  {key}: {prev[key]} (removed)")
        elif prev[key] != curr[key]:
            delta = curr[key] - prev[key]
            pct = f" ({delta / prev[key] * +100.0:+.1f}%)" if prev[key] else ""
            print(f"  {key}: {prev[key]} -> {curr[key]} ({delta:+g}){pct}")
    if prev == curr:
        print("  no numeric changes")
    summarize_window_streaming(curr_raw)
    summarize_sanitizer_overhead(curr_raw)
    summarize_prover_dispatch(curr_raw)
    if max_regress is None:
        return 0
    regressions = []
    for key in keys:
        leaf = key.rsplit(".", 1)[-1]
        if key not in prev or key not in curr:
            continue
        allowed = prev[key] * (1.0 + max_regress / 100.0)
        if leaf in ("launches", "total_launches"):
            if curr[key] > allowed:
                regressions.append((key, prev[key], curr[key]))
        elif leaf in ("sequential_seconds", "adaptive_seconds"):
            if curr[key] > allowed and curr[key] - prev[key] > WALL_NOISE_FLOOR_SECONDS:
                regressions.append((key, prev[key], curr[key]))
        elif leaf == "arena_peak_bytes_per_node":
            if curr[key] > allowed:
                regressions.append((key, prev[key], curr[key]))
    if regressions:
        print(f"gated-leaf regressions beyond {max_regress:g}%:", file=sys.stderr)
        for key, p, c in regressions:
            print(f"  {key}: {p} -> {c}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
