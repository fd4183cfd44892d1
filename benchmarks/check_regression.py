"""CI perf-regression gate: diff fresh ``BENCH_*.json`` against baselines.

The bench-smoke job measures the benchmark suite on whatever runner it got,
writes fresh ``BENCH_*.json`` trajectories, and then runs this script
against the baselines committed under ``benchmarks/baselines/``.  Absolute
wall times are machine-dependent, so the gate compares **ratios** — e.g.
dynamic batching vs batch-1 — which are measured within one run on one
machine and therefore travel across runners.  A fresh ratio dropping more
than its per-key floor below the committed baseline (20-50% depending on
the ratio's observed variance; ``--threshold`` overrides all of them)
fails the job.

Baselined ratios missing from the fresh results WARN instead of failing
for the ``OPTIONAL_FRESH`` files (benchmarks that legitimately skip on
some runners — e.g. ``bench_pipeline`` needs real cores — or are newly
added), so a new benchmark never breaks the gate; the always-run core
files still fail loudly when unmeasured, and ``--strict`` makes even the
optional ones fail.

Refresh the baselines intentionally (and commit the diff) after a change
that legitimately moves them::

    BENCH_SMOKE=1 BENCH_OUTPUT_DIR=benchmarks/baselines PYTHONPATH=src \
        python -m pytest benchmarks/bench_exec_backends.py benchmarks/bench_serve.py -q

Usage::

    python benchmarks/check_regression.py --fresh bench-results \
        [--baselines benchmarks/baselines] [--threshold 0.2]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: file stem -> {ratio key: allowed fractional drop below baseline}.  The
#: per-key floors reflect each ratio's observed cross-run variance: the
#: dynamic-batching ratios time whole asyncio serving runs whose batch-1
#: side is hundreds of tiny forwards — run-to-run variance of 25%+ on one
#: machine is normal, so their floor is widest.  Every guarded ratio
#: also carries a hard absolute assert inside its benchmark, so widening a
#: floor here never lets an outright failure through.
GUARDED_RATIOS: Dict[str, Dict[str, float]] = {
    "BENCH_serve.json": {"modes.thread.speedup": 0.5,
                         "modes.process.speedup": 0.5},
    # The committed pipeline baseline starts at the 1.5x contract floor the
    # benchmark hard-asserts (refresh it with a measured multi-core run);
    # bench_pipeline skips itself on runners without enough cores, which
    # the warn-don't-fail missing-fresh handling below tolerates.
    "BENCH_pipeline.json": {"pipeline_speedup": 0.35},
    # The recovery ratios are success *fractions*, not speedups: the
    # benchmark hard-asserts them all at 1.0 (zero client failures, full
    # respawn — for the worker-exit storm, the injected-hang and the
    # corrupt-slot drives alike), so any drop at all is a regression —
    # the floor exists only to keep the gate's arithmetic uniform.
    "BENCH_recovery.json": {"client_success_ratio": 0.0,
                            "recovered_fraction": 0.0,
                            "hang_success_ratio": 0.0,
                            "hang_recovered_fraction": 0.0,
                            "corrupt_success_ratio": 0.0,
                            "corrupt_recovered_fraction": 0.0},
    # The observability overheads: the committed baseline holds measured
    # medians.  The CPU ratio's floor sits at about the 0.95 contract the
    # benchmark hard-asserts (1% sampling costs at most 5% more CPU per
    # request); the disabled-hook headroom read 24.8-59.0 around its
    # 36 median on one host, so its floor catches a hook that got 2.5x
    # costlier, not host noise.
    "BENCH_obs.json": {"sampled_cpu_ratio": 0.05,
                       "disabled_headroom": 0.6},
    # Characterization spec-line margins: normalised headroom to the
    # datasheet acceptance limits, measured at fixed seed by elementwise-
    # deterministic math (no BLAS in any guarded scalar), so they are
    # nearly bit-stable across runners — a 5% erosion means the substrate
    # model itself moved, not the machine.  bench_characterize.py also
    # hard-asserts every spec line passes outright.
    "BENCH_characterize.json": {
        "margins.e2m5.dac_inl_max_lsb": 0.05,
        "margins.e2m5.noise_floor_mv": 0.05,
        "margins.e2m5.drift_margin": 0.05,
        "margins.e2m5.programming_sigma_rel": 0.05,
        "margins.e3m4.dac_inl_max_lsb": 0.05,
        "margins.e3m4.noise_floor_mv": 0.05,
    },
}

#: Guarded files whose *absence* from a fresh run is expected on some
#: runners (benchmarks that skip themselves, newly-added benchmarks whose
#: baseline is still the contract floor).  Missing fresh results for these
#: warn; for every other guarded file they FAIL — a filtered run or a
#: renamed key must not silently stop guarding the core ratios.
OPTIONAL_FRESH = {"BENCH_pipeline.json", "BENCH_recovery.json"}


def _lookup(document: dict, dotted: str):
    value = document
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def compare(fresh_dir: str, baseline_dir: str,
            threshold: Optional[float] = None,
            strict: bool = False) -> Tuple[List[str], List[str]]:
    """Return (report lines, failure lines) for all guarded ratios.

    A baselined ratio missing from the fresh results **warns** for the
    :data:`OPTIONAL_FRESH` files (benchmarks that legitimately skip on
    some runners, e.g. the pipeline benchmark needs real cores) and
    **fails** for every other guarded file — a filtered bench run or a
    renamed key must not silently unguard the core ratios.
    ``strict=True`` makes even the optional files fail when missing.
    """
    lines: List[str] = []
    failures: List[str] = []
    compared = 0
    for filename, keys in GUARDED_RATIOS.items():
        fresh_path = os.path.join(fresh_dir, filename)
        baseline_path = os.path.join(baseline_dir, filename)
        optional = filename in OPTIONAL_FRESH and not strict
        if not os.path.exists(baseline_path):
            lines.append(f"{filename}: no committed baseline, skipping")
            continue
        if not os.path.exists(fresh_path):
            message = (f"{filename}: fresh trajectory missing from "
                       f"{fresh_dir} (benchmark skipped or did not run)")
            if optional:
                lines.append(f"WARNING: {message}")
            else:
                failures.append(message)
            continue
        with open(fresh_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for key, key_threshold in keys.items():
            fresh_value = _lookup(fresh, key)
            base_value = _lookup(baseline, key)
            if base_value is None or base_value <= 0:
                lines.append(f"{filename}:{key}: not in the baseline, skipping")
                continue
            if fresh_value is None:
                message = (
                    f"{filename}:{key} is baselined but missing from the "
                    f"fresh trajectory (benchmark skipped or renamed?)")
                if optional:
                    lines.append(f"WARNING: {message}")
                else:
                    failures.append(message)
                continue
            compared += 1
            drop = key_threshold if threshold is None else threshold
            floor = base_value * (1.0 - drop)
            verdict = "ok" if fresh_value >= floor else "REGRESSION"
            lines.append(
                f"{filename}:{key}: fresh {fresh_value:.2f}x vs baseline "
                f"{base_value:.2f}x (floor {floor:.2f}x) {verdict}"
            )
            if fresh_value < floor:
                failures.append(
                    f"{filename}:{key} regressed: {fresh_value:.2f}x < "
                    f"{floor:.2f}x ({(1 - fresh_value / base_value) * 100:.0f}% "
                    f"below the committed baseline)"
                )
    if compared == 0:
        failures.append("no ratios compared — baselines or fresh results missing")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="directory holding the freshly measured BENCH_*.json")
    parser.add_argument("--baselines", default="benchmarks/baselines",
                        help="directory holding the committed baselines")
    parser.add_argument("--threshold", type=float, default=None,
                        help="override the allowed fractional drop below "
                             "baseline for every ratio (e.g. 0.05 = strict "
                             "5%%); default: each ratio's own floor")
    parser.add_argument("--strict", action="store_true",
                        help="fail on missing fresh measurements even for "
                             "the OPTIONAL_FRESH benchmarks that may "
                             "legitimately skip")
    args = parser.parse_args(argv)
    lines, failures = compare(args.fresh, args.baselines, args.threshold,
                              strict=args.strict)
    for line in lines:
        print(line)
    if failures:
        print("\nPERF REGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
