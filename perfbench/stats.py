"""Small statistics helpers shared by the benchmark, the tracer and the
compare view."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Percentile interpolated between the two closest ranks (0.0 for an
    empty sample).

    On the few samples of a small set, such as the four steady-state epochs
    of ``sim-city``, the p50 is the mean of the middle two, not one of them
    alone."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    values = list(samples)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"q1": only, "median": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def metric(value: float, unit: str, samples: int = 1) -> Dict[str, float]:
    """One reported metric: its value, unit and the sample count behind it."""
    return {"value": value, "unit": unit, "n": samples}
