"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-city --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve-uniform --seed 1 --trace 1 --out runs.jsonl

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` makes a separate traced run and reports the
per-layer metrics plus the tracing overhead.  Every metric is printed by name
with its unit and sample count, then one ``RECORD`` line with provenance
(source revision, ``nproc``, Python and numpy versions, seed, workload
parameters, sample counts), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--out`` appends the
record to a JSON-lines file for ``perfbench/compare.py``.

The program is built from source: ``src/`` of the checkout goes on the
import path and the served workloads start ``python -m repro serve`` from
it.  Without ``src/repro`` the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("sim-city", "serve-uniform", "serve-downtown")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def source_revision() -> Dict[str, str]:
    """The git sha when the checkout is a repository, and always a digest of
    the package source (the benchmark's checkout need not be one)."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def provenance(seed: int, nproc: int) -> Dict[str, Any]:
    import numpy

    return {
        **source_revision(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def check_metrics(
    reported: Dict[str, Dict[str, Any]], expected: Sequence[Dict[str, Any]]
) -> List[str]:
    """Every named metric present, with the unit ``BENCHMARK.json`` gives it."""
    problems = []
    for entry in expected:
        got = reported.get(entry["name"])
        if got is None:
            problems.append(f"missing metric {entry['name']}")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got['unit']} != {entry['unit']}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """Run one workload; traces and server logs go to ``.perfbench/``."""
    work_dir = ROOT / ".perfbench"
    if name == "sim-city":
        import simcity

        return simcity.run(seed, seconds, trace, smoke, work_dir)
    import serve

    return serve.run(name, seed, seconds, trace, smoke, work_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="open-loop measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the smoke check")
    parser.add_argument("--out", type=Path, default=None, help="append the record (JSON lines)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a served workload stops its server.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program source {SOURCE / 'repro'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    # Taken before the workload pins itself to fewer CPUs.
    nproc = len(os.sched_getaffinity(0))

    outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(outcome["metrics"], expected)
    if problems:
        raise SystemExit("benchmark defect: " + "; ".join(problems))

    names = [entry["name"] for entry in expected]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name in names + sorted(set(outcome["metrics"]) - set(names)):
        value = outcome["metrics"][name]
        gate = "" if name in names else "  (reported, not in BENCHMARK.json)"
        print(f"  {name:<34s} {value['value']:>16.6g} {value['unit']:<6s} n={value['n']}{gate}")
    print(
        f"  attempted {outcome['attempted']} failed {outcome['failed']} "
        f"correct {outcome['correct']}"
    )
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": provenance(args.seed, nproc),
        **outcome,
    }
    print("RECORD " + json.dumps(record, sort_keys=True))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": outcome["metrics"][name]["value"], "unit": outcome["metrics"][name]["unit"]}
            for name in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
