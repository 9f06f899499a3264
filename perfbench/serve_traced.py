"""Traced launcher for the served workloads.

Usage: ``python3 perfbench/serve_traced.py OUT serve --port 0 [...]``

Installs the benchmark's class-level wrappers, then calls
``repro.cli.main(["serve", ...])`` so the served code path is the one
``python -m repro serve`` runs.  When the server shuts down (SIGINT), the
spans go to ``OUT.spans.json`` and the per-layer metrics to
``OUT.metrics.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, coordinator_metrics, install, serving_metrics  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(f"{out}.spans.json")
        metrics = {**coordinator_metrics(tracer), **serving_metrics(tracer)}
        with open(f"{out}.metrics.json", "w", encoding="utf-8") as handle:
            json.dump(metrics, handle)


if __name__ == "__main__":
    sys.exit(main())
