#!/usr/bin/env python3
"""Diff two aiwc BENCH_report.json files and flag perf regressions.

Usage:
    scripts/bench_compare.py [options] BASELINE CANDIDATE

A timed bench writes a report with `--json[=path]` (see bench/
bench_common.hh); CI's perf-gate job compares each fresh report against
its checked-in bench/baseline*.json.

Comparison rules:
  * Wall times are compared per entry name. An entry regresses when
    candidate/baseline exceeds --threshold (default 1.5, i.e. 50%
    slower) AND at least one side is --min-ms or more (default 5 ms) —
    entries that are tiny on both sides are too noisy to gate on, but
    a tiny entry blowing up past the floor still counts.
  * An entry present only in the candidate is a NEW verdict: listed in
    the table, never gated (even under --strict), so a PR that adds a
    bench does not have to record its baseline in the same change. An
    entry present only in the baseline is a STALE verdict: the baseline
    still gates on a bench the candidate no longer runs, so the gate is
    partly fiction. STALE is warn-only by default (a bench removal can
    soft-land) but exits 2 under --strict — CI must not let a dropped
    bench keep its frozen baseline entry forever.
  * Deterministic work counters from the metrics snapshot (names ending
    in `.rows`, plus sim.events_fired / workload.jobs_generated) must
    match exactly when both reports used the same scale+seed: a
    mismatch means the tree now does *different work*, which a timing
    threshold would hide. Counter drift is reported as a warning.
  * Reports from different benches or configurations (bench name,
    scale, seed) are not comparable; the script says so and exits 0,
    or 2 under --strict — a renamed bench or a changed CI environment
    must not switch the gate off silently.
  * A missing baseline file is reported as a distinct MISSING-BASELINE
    warning (it is *not* a passing comparison — nothing was compared).
    By default that exits 0 so a freshly added bench can soft-launch
    before its baseline is recorded; under --strict it exits 2 so CI
    can refuse to silently skip the gate forever.

Exit status: 1 when any wall-time regression was found and --warn-only
was not given; 2 when --strict was given and the baseline file is
missing, the reports are not comparable, or a STALE entry was found;
0 otherwise.
"""

import argparse
import json
import os
import sys

# Metrics-snapshot counters that are a pure function of (scale, seed):
# exact-match material, unlike anything timing- or thread-derived.
DETERMINISTIC_COUNTER_SUFFIXES = (".rows", ".runs")
DETERMINISTIC_COUNTERS = {
    "aiwc.sim.events_fired",
    "aiwc.workload.jobs_generated",
    "aiwc.workload.synthesis_runs",
    "aiwc.sched.jobs_started",
    "aiwc.sched.jobs_finished",
    "aiwc.sched.backfill_hits",
    # Streaming pipeline: ingest volume, shard merges, and sketch
    # compactions are pure functions of (scale, seed) — the shard
    # geometry is fixed by the record count, not the thread count, and
    # bench_stream_ingest pins its timing iteration counts.
    "aiwc.stream.rows_ingested",
    "aiwc.stream.merges",
    "aiwc.stream.snapshots",
    "aiwc.sketch.compactions",
    # Binary trace format: encode/decode/reject totals are exact-match
    # material for any fixed input set (the round-trip CI job runs a
    # fixed synth seed through the converter).
    "aiwc.fmt.traces_encoded",
    "aiwc.fmt.traces_decoded",
    "aiwc.fmt.decode_rejects",
    # Scenario sweeps: cell count and every per-cell tally are a pure
    # function of (spec, scale, seed) — the engine is serial per cell
    # and the runner's parallelism only reorders disjoint writes.
    "aiwc.scenario.cells",
    "aiwc.scenario.tasks",
    "aiwc.scenario.migrations",
    "aiwc.scenario.wakes",
    "aiwc.scenario.sla_violations",
    "aiwc.scenario.consolidation_visits",
    "aiwc.scenario.drain_skips",
    "aiwc.scenario.sweeps",
    "aiwc.scenario.scn_parses",
    "aiwc.scenario.scn_diagnostics",
}

SCHEMA = "aiwc-bench-report-v1"


def load_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")
    if report.get("schema") != SCHEMA:
        sys.exit(
            f"bench_compare: {path} is not a {SCHEMA} report "
            f"(schema={report.get('schema')!r})"
        )
    return report


def is_deterministic_counter(name):
    return name in DETERMINISTIC_COUNTERS or name.endswith(
        DETERMINISTIC_COUNTER_SUFFIXES
    )


def compare_counters(base, cand):
    """Yield (name, base_value, cand_value) for drifted counters."""
    base_counters = base.get("metrics", {}).get("counters", {})
    cand_counters = cand.get("metrics", {}).get("counters", {})
    for name in sorted(set(base_counters) & set(cand_counters)):
        if not is_deterministic_counter(name):
            continue
        if base_counters[name] != cand_counters[name]:
            yield name, base_counters[name], cand_counters[name]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="baseline BENCH_report.json")
    parser.add_argument("candidate", help="candidate BENCH_report.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="regression ratio: candidate/baseline above this fails "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--min-ms",
        type=float,
        default=5.0,
        help="ignore entries below this wall time on both sides "
        "(default %(default)s ms; they are noise)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI soft-launch)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 on a missing baseline file, reports that are not "
        "comparable, or a STALE entry instead of warning (a skipped or "
        "partly-fictional comparison must not look like a pass)",
    )
    args = parser.parse_args()
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")

    if not os.path.exists(args.baseline):
        # Distinct from both a pass and an unreadable report: nothing
        # was compared at all. Record a baseline by copying a trusted
        # candidate report into place.
        print(
            f"MISSING-BASELINE: {args.baseline} does not exist; "
            "no comparison was performed"
        )
        print(
            "record one with: cp <trusted BENCH_report.json> "
            f"{args.baseline}"
        )
        if args.strict:
            return 2
        return 0

    base = load_report(args.baseline)
    cand = load_report(args.candidate)

    print(
        f"baseline:  {args.baseline} "
        f"(git {base.get('git_sha', '?')}, scale {base.get('scale')}, "
        f"seed {base.get('seed')})"
    )
    print(
        f"candidate: {args.candidate} "
        f"(git {cand.get('git_sha', '?')}, scale {cand.get('scale')}, "
        f"seed {cand.get('seed')})"
    )

    for key in ("bench", "scale", "seed"):
        if base.get(key) != cand.get(key):
            print(
                f"reports are not comparable: {key} differs "
                f"({base.get(key)!r} vs {cand.get(key)!r}); nothing to do"
            )
            if args.strict:
                print("strict mode: exiting 2 for a skipped comparison")
                return 2
            return 0

    base_entries = {e["name"]: e for e in base.get("entries", [])}
    cand_entries = {e["name"]: e for e in cand.get("entries", [])}

    regressions, improvements, new_entries, stale_entries, warnings = (
        [],
        [],
        [],
        [],
        [],
    )
    all_names = sorted(set(base_entries) | set(cand_entries))
    width = max((len(n) for n in all_names), default=10)
    print(f"\n{'entry':<{width}}  {'base ms':>10}  {'cand ms':>10}  ratio")
    for name in all_names:
        if name not in cand_entries:
            # STALE: the baseline timed it but the candidate did not. A
            # silently dropped bench would freeze its baseline entry
            # forever, so this warns by default and gates under
            # --strict; prune the entry from the baseline to clear it.
            b = base_entries[name]["wall_ms"]
            print(f"{name:<{width}}  {b:>10.2f}  {'-':>10}      -  STALE")
            stale_entries.append(name)
            warnings.append(
                f"entry '{name}' is STALE: present only in the "
                "baseline; the candidate no longer runs it"
            )
            continue
        if name not in base_entries:
            # NEW: the candidate timed it but the baseline predates it.
            # Distinct verdict from MISSING-BASELINE, and never a gate
            # (even under --strict): a PR that adds a bench must not be
            # forced to record its own baseline in the same change. The
            # next baseline refresh picks the entry up.
            c = cand_entries[name]["wall_ms"]
            print(f"{name:<{width}}  {'-':>10}  {c:>10.2f}      -  NEW")
            new_entries.append(name)
            continue
        b = base_entries[name]["wall_ms"]
        c = cand_entries[name]["wall_ms"]
        ratio = c / b if b > 0 else float("inf")
        significant = max(b, c) >= args.min_ms
        verdict = ""
        if significant and ratio > args.threshold:
            verdict = "  REGRESSION"
            regressions.append(name)
        elif significant and ratio < 1.0 / args.threshold:
            verdict = "  improved"
            improvements.append(name)
        print(f"{name:<{width}}  {b:>10.2f}  {c:>10.2f}  {ratio:>5.2f}{verdict}")
    if new_entries:
        print(
            f"note: {len(new_entries)} new entr"
            f"{'y' if len(new_entries) == 1 else 'ies'} without a "
            "baseline (not gated); refresh the baseline to start "
            "tracking them"
        )
    if stale_entries:
        print(
            f"note: {len(stale_entries)} stale entr"
            f"{'y' if len(stale_entries) == 1 else 'ies'} only in the "
            "baseline; prune the baseline (or restore the bench) to "
            "clear the verdict"
        )

    for name, b, c in compare_counters(base, cand):
        warnings.append(
            f"deterministic counter '{name}' drifted: {b} -> {c} "
            "(the tree now does different work)"
        )

    print()
    for message in warnings:
        print(f"warning: {message}")
    print(
        f"{len(regressions)} regression(s), {len(improvements)} "
        f"improvement(s), {len(new_entries)} new, "
        f"{len(stale_entries)} stale, {len(warnings)} "
        f"warning(s) [threshold {args.threshold}x, min {args.min_ms} ms]"
    )
    if regressions and not args.warn_only:
        return 1
    if regressions:
        print("warn-only mode: exiting 0 despite regressions")
    if stale_entries and args.strict:
        print("strict mode: exiting 2 for stale baseline entries")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
