"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload offline-resnet-analog --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced pass;
``--trace 1`` adds a traced pass and reports the per-layer metrics.
Metric names and units are declared once, in ``BENCHMARK.json``.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when a correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline-resnet-analog", "serve-ideal-thread", "serve-analog-process")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time of the run (split in half between "
                             "the untraced and traced passes with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the traced pass as a Chrome trace (JSON)")
    parser.add_argument("--record", default=None,
                        help="append the run (fingerprint and all metrics) "
                             "as one JSON line, for perfbench/compare.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    return args


def _declared():
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def _select(measured, declared, absent):
    """The declared metrics of this pass, failing on any left unmeasured.

    A metric under an ``absent`` prefix belongs to a layer this workload
    does not run (no serving layer offline, no mapped layers on the ideal
    backend); it did no work, so it reads 0.
    """
    selected = {}
    for name, unit in declared.items():
        if name in measured:
            value = measured[name]
        elif name.startswith(absent):
            value = 0.0
        else:
            raise RuntimeError(f"workload did not measure {name!r}")
        selected[name] = {"value": float(value), "unit": unit}
    return selected


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import host
    import offline
    import serving

    declared = _declared()
    env = host.fingerprint()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.workload == "offline-resnet-analog":
            result = offline.run(args.seed, args.seconds, bool(args.trace))
        else:
            result = serving.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    finally:
        stray = host.stop_children()
    if stray:
        result["failures"].append(f"child processes {stray} were still running "
                                  f"after the workload and had to be stopped")

    for note in result["notes"]:
        print(note)
    units = {**declared["end_to_end"], **declared["per_layer"]}
    for name in sorted(result["metrics"]):
        print(f"  {name:34s} {result['metrics'][name]:14.6g} {units[name]}")
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    group = "per_layer" if args.trace else "end_to_end"
    metrics = _select(result["metrics"], declared[group], result["absent"])
    if args.trace_out:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(args.trace_out, result["spans"],
                           process_name=f"perfbench {args.workload}")
    correct = not result["failures"]
    line = {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    if args.record:
        measured = {name: {"value": float(value), "unit": units[name]}
                    for name, value in result["metrics"].items()}
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "env": env, **line,
                "metrics": {**measured, **metrics}}) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
