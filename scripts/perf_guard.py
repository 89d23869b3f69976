#!/usr/bin/env python3
"""Perf guard: fail when a fresh BENCH_pipeline.json (or BENCH_scale.json)
regresses more than the allowed factor against the committed baseline.

Usage: perf_guard.py BASELINE.json FRESH.json [MAX_REGRESSION]

MAX_REGRESSION defaults to 0.25 (25%): total_seconds may grow at most
1.25x and pairs_per_sec may shrink at most to 1/1.25x. Every stage row
whose baseline is at least 5% of the baseline total_seconds is held to
the same margin, so one stage can not double unnoticed behind a steady
total; a guarded stage missing from the fresh file is a failure. The
margin can also come from the IUAD_PERF_GUARD_MARGIN environment
variable.

Caveat: the committed baseline is an absolute wall-clock record from the
machine that last ran `make bench-json`. Comparing it on a *different*
machine class (e.g. a hosted CI runner vs a dev box) gates machine speed
as much as code speed — if the guard flaps without a code change, widen
the margin via IUAD_PERF_GUARD_MARGIN, or refresh the baseline from the
machine class that enforces it.
"""

import json
import os
import sys

# Stages below this share of the baseline total are too short to time
# reliably, so only the total guards them.
STAGE_FLOOR = 0.05


def stage_seconds(doc):
    """Stage id -> seconds; the first row wins if an id repeats."""
    out = {}
    for row in doc.get("stages", []):
        out.setdefault(row["stage"], row["seconds"])
    return out


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        base = json.load(f)
    with open(sys.argv[2], encoding="utf-8") as f:
        fresh = json.load(f)
    if len(sys.argv) > 3:
        margin = float(sys.argv[3])
    else:
        margin = float(os.environ.get("IUAD_PERF_GUARD_MARGIN", "0.25"))

    failures = []
    limit = base["total_seconds"] * (1.0 + margin)
    if fresh["total_seconds"] > limit:
        failures.append(
            f"total_seconds {fresh['total_seconds']:.3f} > {limit:.3f} "
            f"(baseline {base['total_seconds']:.3f} +{margin:.0%})"
        )
    floor = base["pairs_per_sec"] / (1.0 + margin)
    if fresh["pairs_per_sec"] < floor:
        failures.append(
            f"pairs_per_sec {fresh['pairs_per_sec']:.0f} < {floor:.0f} "
            f"(baseline {base['pairs_per_sec']:.0f} -{margin:.0%})"
        )

    fresh_stages = stage_seconds(fresh)
    guarded = 0
    for stage, seconds in stage_seconds(base).items():
        if seconds < STAGE_FLOOR * base["total_seconds"]:
            continue
        guarded += 1
        if stage not in fresh_stages:
            failures.append(f"stage {stage} is in the baseline but missing from the fresh run")
            continue
        limit = seconds * (1.0 + margin)
        if fresh_stages[stage] > limit:
            failures.append(
                f"stage {stage} {fresh_stages[stage]:.3f}s > {limit:.3f}s "
                f"(baseline {seconds:.3f}s +{margin:.0%})"
            )

    print(
        f"perf guard: total {base['total_seconds']:.3f}s -> "
        f"{fresh['total_seconds']:.3f}s, pairs/s "
        f"{base['pairs_per_sec']:.0f} -> {fresh['pairs_per_sec']:.0f}, "
        f"{guarded} stage(s) guarded (margin {margin:.0%})"
    )
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
