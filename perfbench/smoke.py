"""Smoke check of the benchmark itself, a few seconds per workload.

Usage: ``python3 perfbench/smoke.py``

Runs every workload ``run.py`` knows (the ones in ``BENCHMARK.json`` and
``serve-downtown``) at smoke size (``run.py --smoke``), untraced and traced,
and asserts that the run exits cleanly, that every metric ``BENCHMARK.json``
names is present with its unit, and that the answer checks pass.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke(workload: str, trace: int, spec: dict) -> None:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = {entry["name"]: entry["unit"] for entry in expected}
    reported = result["metrics"]
    if set(reported) != set(names):
        raise SystemExit(f"{workload} trace={trace}: metrics {sorted(set(reported) ^ set(names))} differ")
    for name, unit in names.items():
        if reported[name]["unit"] != unit:
            raise SystemExit(f"{workload}: {name} has unit {reported[name]['unit']}, not {unit}")
    if not result["correct"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: answer check failed: {result}")
    print(f"smoke ok: {workload} trace={trace} ({result['attempted']} operations)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
