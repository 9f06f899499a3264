"""Compare two result sets of the benchmark (parent vs change).

Usage::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``perfbench/run.py --out FILE`` appends, any
number of seeds per workload.  For every workload (its own rows) and every
metric the view prints each side's median and quartiles and a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``within bound`` — the change's median is no worse than the parent's by
  more than the bound;
* ``worse`` — it is worse by more than the bound;
* ``better`` — every run of the change beats every run of the parent;
* ``unresolved`` — a side's quartile spread exceeds the bound, so the runs
  cannot tell a change from noise.

Per-layer metrics (traced records) and the metrics a run reports but
``BENCHMARK.json`` does not gate have no bound and print ``-``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import summary

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values``, one value per record."""
    grouped: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            for name, value in record["metrics"].items():
                grouped[key][name].append(value["value"])
    return grouped


def verdict(
    parent: Sequence[float], change: Sequence[float], bound: Optional[float], better: str
) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * c < sign * p for c in change for p in parent):
        return "better"
    before, after = summary(parent), summary(change)
    for side in (before, after):
        if side["median"] == 0 or (side["q3"] - side["q1"]) / abs(side["median"]) > bound:
            return "unresolved"
    worsening = sign * (after["median"] - before["median"]) / abs(before["median"])
    return "worse" if worsening > bound else "within bound"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    header = f"{'workload':<15s} {'metric':<34s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} {'Δ median':>9s}  verdict"
    print(header)
    print("-" * len(header))
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, _trace = key
        common = set(parent[key]) & set(change[key])
        for name in [n for n in entries if n in common] + sorted(common - set(entries)):
            entry = entries.get(name, {"better": "lower"})
            before, after = summary(parent[key][name]), summary(change[key][name])
            delta = (
                (after["median"] - before["median"]) / abs(before["median"])
                if before["median"]
                else 0.0
            )
            outcome = verdict(
                parent[key][name], change[key][name], entry.get("bound"), entry["better"]
            )
            worse += outcome == "worse"
            cells = [
                f"{s['q1']:.4g}/{s['median']:.4g}/{s['q3']:.4g} n={s['n']}" for s in (before, after)
            ]
            print(
                f"{workload:<15s} {name:<34s} {cells[0]:>32s} {cells[1]:>32s} {delta:>+9.1%}  {outcome}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
