"""Class-level span tracer installed from the benchmark, around the program's
public entry points.

Nothing here edits the package: :func:`install` swaps methods on the
package's classes for timing wrappers and :meth:`Tracer.uninstall` puts the
originals back.  Two kinds of wrapper exist:

* a **span** records name, start, end, parent and request id; its self time
  is its duration minus the time covered by its children;
* a **counter** is for very frequent leaf calls (``observe``, ``step``,
  ``offer`` ...): it adds one call and its busy time to a per-epoch
  aggregate and to its parent span's child time, and records no span.

Spans stay in memory; :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import metric, percentile

#: Span fields: name, start, end, parent index (-1 = root), request id,
#: child time (seconds covered by child spans and counters).
NAME, START, END, PARENT, REQUEST, CHILD = range(6)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[list] = []
        #: ``(name, epoch) -> [calls, busy_s]`` for counter wrappers.
        self.counters: Dict[Tuple[str, int], List[float]] = {}
        self.epoch = 0
        self._next_request = 0
        self._originals: List[Tuple[type, str, Any]] = []
        #: Facts the hooks gather from return values (states, pool counters).
        self.facts: Dict[str, Any] = {}

    # -- installation ----------------------------------------------------------

    def _replace(self, cls: type, attr: str, wrapper: Callable) -> None:
        original = cls.__dict__[attr]
        self._originals.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def span(
        self,
        cls: type,
        attr: str,
        name: str,
        *,
        new_request: bool = False,
        name_of: Optional[Callable[[Sequence[Any]], str]] = None,
        on_enter: Optional[Callable[[Sequence[Any]], None]] = None,
        on_exit: Optional[Callable[[Sequence[Any], Any], None]] = None,
        ends_epoch: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` so every call records one span."""
        function = cls.__dict__[attr]
        stack, spans, clock = self._stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if new_request or parent is None:
                self._next_request += 1
                request = self._next_request
            else:
                request = parent[REQUEST]
            record = [
                name_of(args) if name_of else name,
                0.0,
                0.0,
                parent[-1] if parent is not None else -1,
                request,
                0.0,
                len(spans),
            ]
            spans.append(record)
            stack.append(record)
            if on_enter is not None:
                on_enter(args)
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                record[START], record[END] = start, end
                if stack:
                    stack[-1][CHILD] += end - start
                if on_exit is not None:
                    on_exit(args, result)
                if ends_epoch:
                    self.epoch += 1

        self._replace(cls, attr, wrapper)

    def counter(self, cls: type, attr: str, name: str) -> None:
        """Wrap a frequent leaf call as a per-epoch call/busy aggregate."""
        function = cls.__dict__[attr]
        stack, counters, clock = self._stack, self.counters, self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                busy = clock() - start
                key = (name, self.epoch)
                slot = counters.get(key)
                if slot is None:
                    counters[key] = [1, busy]
                else:
                    slot[0] += 1
                    slot[1] += busy
                if stack:
                    stack[-1][CHILD] += busy

        self._replace(cls, attr, wrapper)

    def tap(self, cls: type, attr: str, callback: Callable[[Sequence[Any]], None]) -> None:
        """Wrap ``cls.attr`` so every call first hands its arguments to
        ``callback``; nothing is timed."""
        function = cls.__dict__[attr]

        def wrapper(*args, **kwargs):
            callback(args)
            return function(*args, **kwargs)

        self._replace(cls, attr, wrapper)

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._originals):
            setattr(cls, attr, original)
        self._originals.clear()

    # -- reading ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        total = sum(slot[0] for (n, _e), slot in self.counters.items() if n == name)
        return int(total) + sum(1 for s in self.spans if s[NAME] == name)

    def busy(self, *names: str) -> float:
        """Busy seconds of a group of names, counting nested members once."""
        group = set(names)
        total = sum(slot[1] for (n, _e), slot in self.counters.items() if n in group)
        for record in self.spans:
            if record[NAME] in group:
                parent = record[PARENT]
                if parent < 0 or self.spans[parent][NAME] not in group:
                    total += record[END] - record[START]
        return total

    def self_time(self, name: str) -> float:
        return sum(
            (s[END] - s[START]) - s[CHILD] for s in self.spans if s[NAME] == name
        )

    def durations_ms(self, name: str) -> List[float]:
        return [(s[END] - s[START]) * 1000.0 for s in self.spans if s[NAME] == name]

    def dump(self, path: str) -> None:
        """Write spans and per-epoch counters as one JSON document."""
        document = {
            "fields": ["name", "start", "end", "parent", "request", "child_s"],
            "spans": [record[:6] for record in self.spans],
            "counters": [
                {"name": name, "epoch": epoch, "calls": int(slot[0]), "busy_s": slot[1]}
                for (name, epoch), slot in sorted(self.counters.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# ---------------------------------------------------------------------------
# The layer map: which entry points are wrapped, under which names
# ---------------------------------------------------------------------------

QUERY_SPANS = ("query.top_k", "query.top_k_score", "query.top_k_corridors", "query.hot_corridors")


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of every layer (see ``metric_map.json``)."""
    from repro.baselines.dp_hot import DPHotSegmentTracker
    from repro.baselines.naive import NaiveClient
    from repro.client.raytrace import RayTraceFilter
    from repro.coordinator.coordinator import Coordinator
    from repro.coordinator.hotness import HotnessTracker
    from repro.coordinator.overlaps import FsaOverlapStructure
    from repro.coordinator.sharding import ShardedHotnessTracker, ShardedSinglePath, ShardRouter
    from repro.coordinator.single_path import SinglePathStrategy
    from repro.network.generator import SyntheticRoadNetworkGenerator
    from repro.serving.batcher import EpochBatcher
    from repro.serving.server import IngestionServer
    from repro.simulation.engine import HotPathSimulation
    from repro.workload.moving_objects import MovingObjectWorkload

    facts = tracer.facts
    facts.update(states=0, pools_total=0, pools_hit=0, backlog_max=0)

    def epoch_done(args, outcome) -> None:
        facts["coordinator"] = args[0]
        if outcome is None:
            return
        facts["states"] += outcome.states_processed
        delta = outcome.delta
        if delta is not None:
            facts["pools_total"] += delta.pools_total
            facts["pools_hit"] += delta.pools_reused + delta.pools_prefix_reused

    def commit_begins(args) -> None:
        batcher = args[0]
        facts["batcher"] = batcher
        facts["backlog_max"] = max(facts["backlog_max"], batcher.pending_updates)

    def request_name(args) -> str:
        return "serving.tick" if b'"tick"' in args[1] else "serving.request"

    tracer.span(SyntheticRoadNetworkGenerator, "generate", "network.generate")
    tracer.span(HotPathSimulation, "run", "simulation.run", new_request=True)
    tracer.counter(MovingObjectWorkload, "step", "workload.step")
    tracer.counter(RayTraceFilter, "observe", "client.observe")
    tracer.counter(RayTraceFilter, "receive_response", "client.respond")
    tracer.counter(DPHotSegmentTracker, "observe", "baselines.dp.observe")
    tracer.span(DPHotSegmentTracker, "advance_time", "baselines.dp.advance_time")
    tracer.span(DPHotSegmentTracker, "top_k_score", "baselines.dp.top_k_score")
    tracer.counter(NaiveClient, "observe", "baselines.naive.observe")

    tracer.span(Coordinator, "run_epoch", "coordinator.epoch", on_exit=epoch_done, ends_epoch=True)
    tracer.span(HotnessTracker, "advance_time", "coordinator.expire")
    tracer.span(ShardedHotnessTracker, "advance_time", "coordinator.expire")
    tracer.span(SinglePathStrategy, "process_epoch", "coordinator.decide")
    tracer.span(ShardedSinglePath, "process_epoch", "coordinator.decide")
    tracer.counter(FsaOverlapStructure, "add", "coordinator.overlap_build")
    tracer.span(ShardRouter, "maybe_rebalance", "coordinator.rebalance")
    for span_name in QUERY_SPANS:
        tracer.span(Coordinator, span_name.split(".", 1)[1], span_name)

    tracer.span(IngestionServer, "handle_line", "serving.request", new_request=True, name_of=request_name)
    tracer.counter(EpochBatcher, "offer", "serving.offer")
    tracer.span(EpochBatcher, "close_epoch", "serving.commit", on_enter=commit_begins)


def coordinator_metrics(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """The ``coordinator.*`` per-layer metrics from one traced process."""
    facts = tracer.facts
    epoch_ms = tracer.durations_ms("coordinator.epoch")
    coordinator = facts.get("coordinator")
    statistics = coordinator.shard_statistics() if coordinator is not None else {}
    outer_queries = [
        s
        for s in tracer.spans
        if s[NAME] in QUERY_SPANS
        and (s[PARENT] < 0 or tracer.spans[s[PARENT]][NAME] not in QUERY_SPANS)
    ]
    pools_total = facts["pools_total"]
    return {
        "coordinator.epoch.calls": metric(len(epoch_ms), "count"),
        "coordinator.epoch.busy_s": metric(tracer.busy("coordinator.epoch"), "s"),
        "coordinator.epoch_ms.p50": metric(percentile(epoch_ms, 0.50), "ms", len(epoch_ms)),
        "coordinator.epoch_ms.p90": metric(percentile(epoch_ms, 0.90), "ms", len(epoch_ms)),
        "coordinator.epoch.self_s": metric(tracer.self_time("coordinator.epoch"), "s"),
        "coordinator.expire.busy_s": metric(tracer.busy("coordinator.expire"), "s"),
        "coordinator.decide.busy_s": metric(tracer.busy("coordinator.decide"), "s"),
        "coordinator.overlap_build.calls": metric(tracer.calls("coordinator.overlap_build"), "count"),
        "coordinator.overlap_build.busy_s": metric(tracer.busy("coordinator.overlap_build"), "s"),
        "coordinator.rebalance.busy_s": metric(tracer.busy("coordinator.rebalance"), "s"),
        "coordinator.query.calls": metric(len(outer_queries), "count"),
        "coordinator.query.busy_s": metric(tracer.busy(*QUERY_SPANS), "s"),
        "coordinator.states": metric(facts["states"], "count"),
        "coordinator.pool_hit_ratio": metric(
            facts["pools_hit"] / pools_total if pools_total else 0.0, "ratio", pools_total
        ),
        "coordinator.index_size": metric(
            coordinator.index_size() if coordinator is not None else 0, "count"
        ),
        "coordinator.shard_imbalance": metric(float(statistics.get("imbalance", 0.0)), "ratio"),
    }


def serving_metrics(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """The ``serving.*`` per-layer metrics from one traced server process."""
    batcher = tracer.facts.get("batcher")
    return {
        "serving.request.calls": metric(tracer.calls("serving.request"), "count"),
        "serving.request.busy_s": metric(tracer.busy("serving.request"), "s"),
        "serving.offer.busy_s": metric(tracer.busy("serving.offer"), "s"),
        "serving.commit.busy_s": metric(tracer.busy("serving.commit"), "s"),
        "serving.commit.self_s": metric(tracer.self_time("serving.commit"), "s"),
        "serving.rejected": metric(batcher.rejected_batches if batcher is not None else 0, "count"),
        "serving.backlog.max": metric(tracer.facts["backlog_max"], "count"),
    }
