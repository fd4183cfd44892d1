"""Summarise recorded benchmark runs and compare two sets of them.

Record runs with ``run.py --record FILE`` (one JSON line per run), then::

    python3 perfbench/compare.py new.jsonl              # medians and spreads
    python3 perfbench/compare.py new.jsonl old.jsonl    # ... and regressions

For every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints the median of the untraced runs and their inter-quartile spread as a
share of the median; with a second file it also prints the change of the
median against the old one.  A spread or a worsening beyond the metric's
bound is flagged and makes the exit code 1.
Runs whose environment fingerprints differ are still compared, under a
warning: the difference may come from the host, not the code.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

from measure import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """``{workload: [record, ...]}`` of the untraced runs in a record file."""
    runs = collections.defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def _fingerprints(records):
    return {json.dumps(r["env"], sort_keys=True) for r in records}


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    new = load(argv[0])
    old = load(argv[1]) if len(argv) == 2 else {}
    flagged = False
    for workload, records in sorted(new.items()):
        print(f"{workload}: {len(records)} runs")
        envs = _fingerprints(records) | _fingerprints(old.get(workload, []))
        if len(envs) > 1:
            print("  WARNING: environment fingerprints differ between runs:")
            for env in sorted(envs):
                print(f"    {env}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in records]
            mid = median(values)
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            line = (f"  {name:32s} median {mid:12.6g} {metric['unit']:6s} "
                    f"spread {spread:6.1%} (bound {bound:.0%})")
            if spread > bound:
                line += "  NOISY"
                flagged = True
            base = [r["metrics"][name]["value"] for r in old.get(workload, [])]
            if base:
                change = mid / median(base) - 1.0
                worse = -change if metric["better"] == "higher" else change
                line += f"  change {change:+6.1%}"
                if worse > bound:
                    line += "  REGRESSED"
                    flagged = True
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
