"""Workload ``sim-city``: the paper's central coordinator end to end.

Closed loop, one process, as fast as it runs: ``HotPathSimulation.run()`` at
N = 10,000 objects (the smallest of ``PAPER_OBJECT_COUNTS``) over the default
Athens-scale ``NetworkConfig``, Table-2 parameters and one shard.  The run
lasts 141 timestamps (0 to 140): the first ten epochs fill the
100-timestamp window and the four after it (t = 110, 120, 130 and 140) are
full steady-state epochs that expire crossings.  ``commit_ms.p50`` and
``commit_ms.p90`` are taken over those four of each repeat (below), and
``commit_ms.mean`` over every epoch.  The seed drives the moving objects; the
network keeps its own default seed.

Every sim-city time is process CPU time (``time.process_time``): the loop is
single-threaded and does no I/O, so CPU time is its cost, while wall time
on a shared machine also counts the time other tenants held the CPU.  The
workload runs a fixed amount of work; ``seconds`` is recorded but does not
change it.

CPU time on a shared host still moves with what the other tenants run: the
same seed's run has taken 22.6 s and 28.6 s of CPU a minute and a half
apart.  So the run is made ``run_repeats`` times, each on a freshly built
simulation and pinned to the next CPU in turn (once under ``--trace 1``,
whose metrics are per layer), and the metrics pool the repeats:
``throughput_per_s`` divides the object-steps of all repeats by their CPU
seconds, and the percentiles and means are over the samples of all
repeats.  The repeats do the same
deterministic work; their answers are checked equal.

The answer check runs after the timed section.  The timed run records what
its coordinator was given and answered: the states submitted before each
epoch boundary and the responses of that epoch.  The same states are then
replayed, epoch by epoch, into a coordinator of the seed oracle shape
(``kernel="object"``, ``epoch_mode="full"``, one shard); every epoch's
responses and the final fingerprint (top-k paths under both rankings, top-k
corridors, index size) must equal the run's.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from stats import metric, percentile
from tracer import END, NAME, START, Tracer, coordinator_metrics, install, serving_metrics

PARAMS: Dict[str, Any] = {
    "num_objects": 10000,
    "duration": 141,
    "num_shards": 1,
    "network": "NetworkConfig() defaults: 33x33 nodes over 16 km",
    "setup_repeats": 10,
    "run_repeats": 2,
    "query_reads": 10,
    "top_k": 10,
}

#: A few-second shape for the benchmark's own smoke check.
SMOKE_PARAMS: Dict[str, Any] = dict(PARAMS, num_objects=300, setup_repeats=2, query_reads=5)


def simulation_config(seed: int, params: Dict[str, Any]):
    from repro.simulation.engine import SimulationConfig

    return SimulationConfig(
        num_objects=params["num_objects"],
        duration=params["duration"],
        num_shards=params["num_shards"],
        top_k=params["top_k"],
        seed=seed,
    )


def set_up(config, repeats: int):
    """Generate the network and build the simulation ``repeats`` times.

    Each set-up starts from a collected heap, so it pays for its own garbage
    and not for a collection its predecessors made due.  Returns the last
    simulation and the set-up and network-generation samples in CPU seconds.
    """
    from repro.network.generator import SyntheticRoadNetworkGenerator
    from repro.simulation.engine import HotPathSimulation

    setup_s: List[float] = []
    network_s: List[float] = []
    simulation = None
    for _ in range(repeats):
        simulation = None
        gc.collect()
        start = time.process_time()
        network = SyntheticRoadNetworkGenerator(config.network_config).generate()
        generated = time.process_time()
        simulation = HotPathSimulation(config, network=network)
        setup_s.append(time.process_time() - start)
        network_s.append(generated - start)
    return simulation, setup_s, network_s


def split_spans(tracer: Tracer) -> Tuple[List[float], List[float]]:
    """Ingest samples (from each ``step`` to the next ``step`` or
    ``run_epoch``) and commit samples (each ``run_epoch``), in CPU
    seconds."""
    spans = tracer.spans
    ingest = [
        later[START] - span[START]
        for span, later in zip(spans, spans[1:])
        if span[NAME] == "workload.step"
    ]
    commit = [span[END] - span[START] for span in spans if span[NAME] == "coordinator.epoch"]
    return ingest, commit


def fingerprint(coordinator, k: int) -> Dict[str, Any]:
    from repro.serving.protocol import encode_corridor, encode_scored_path

    return {
        "top_k": [encode_scored_path(s) for s in coordinator.top_k(k)],
        "top_k_by_score": [encode_scored_path(s) for s in coordinator.top_k(k, by_score=True)],
        "corridors": [encode_corridor(c) for c in coordinator.top_k_corridors(k)],
        "index_size": coordinator.index_size(),
    }


def oracle_replay(config, network, epochs: List[list]) -> Tuple[Dict[str, Any], int]:
    """Replay the run's coordinator inputs on the seed oracle shape
    (``kernel="object"``, ``epoch_mode="full"``, one shard): the states the
    run submitted before each epoch boundary, then the boundary.

    Returns the oracle's fingerprint and the number of epochs whose
    responses differ from the run's.  While the responses agree, the
    clients (deterministic) would have sent an oracle simulation the same
    states, so this checks what a full oracle run would, without stepping
    the workload and the clients a second time."""
    from repro.simulation.engine import HotPathSimulation

    oracle = dataclasses.replace(
        config,
        kernel="object",
        epoch_mode="full",
        num_shards=1,
        run_dp_baseline=False,
        run_naive_baseline=False,
    )
    coordinator = HotPathSimulation(oracle, network=network).coordinator
    differing = 0
    try:
        for now, states, responses in epochs:
            for state in states:
                coordinator.submit_state(state)
            if coordinator.run_epoch(now).responses != responses:
                differing += 1
    finally:
        coordinator.close()
    return fingerprint(coordinator, config.top_k), differing


def timed_run(simulation):
    """One untraced ``run()``: CPU seconds, result, the coordinator's inputs
    and outputs as ``[boundary, states submitted since the last boundary,
    responses]`` per epoch, and the samples of :func:`split_spans`.

    Only ``step`` and ``run_epoch`` are wrapped, on the CPU clock: two clock
    reads per timestamp or epoch, the boundaries of each ingest and commit.
    ``submit_state`` is tapped, untimed."""
    from repro.coordinator.coordinator import Coordinator
    from repro.workload.moving_objects import MovingObjectWorkload

    tracer = Tracer(clock=time.process_time)
    pending: List[Any] = []
    epochs: List[list] = []

    def epoch_begins(args) -> None:
        epochs.append([args[1], list(pending), None])
        pending.clear()

    def epoch_ends(args, outcome) -> None:
        epochs[-1][2] = outcome.responses

    tracer.span(MovingObjectWorkload, "step", "workload.step")
    tracer.span(Coordinator, "run_epoch", "coordinator.epoch", on_enter=epoch_begins, on_exit=epoch_ends)
    tracer.tap(Coordinator, "submit_state", lambda args: pending.append(args[1]))
    try:
        start = time.process_time()
        result = simulation.run()
        cpu = time.process_time() - start
    finally:
        tracer.uninstall()
    return (cpu, result, epochs, *split_spans(tracer))


def read_samples(result, reads: int) -> List[float]:
    """``top_k`` plus ``top_k_corridors`` on the final state, CPU seconds.

    The reads start from a collected heap, so they pay for their own garbage
    and not for the run's."""
    coordinator, k = result.coordinator, result.config.top_k
    samples = []
    gc.collect()
    for _ in range(reads):
        start = time.process_time()
        coordinator.top_k(k)
        coordinator.top_k_corridors(k)
        samples.append(time.process_time() - start)
    return samples


def run(seed: int, seconds: float, trace: bool, smoke: bool, work_dir: Path) -> Dict[str, Any]:
    params = SMOKE_PARAMS if smoke else PARAMS
    cpus_available = sorted(os.sched_getaffinity(0))
    config = simulation_config(seed, params)
    objsteps = config.num_objects * config.duration
    k = config.top_k

    started = time.perf_counter()
    setup_s: List[float] = []
    network_s: List[float] = []
    cpus: List[float] = []
    ingest: List[float] = []
    commit: List[float] = []
    steady: List[float] = []
    answers: List[Tuple[Any, ...]] = []
    epochs: List[list] = []
    # A traced run compares with one untraced repeat; its metrics are per layer.
    for repeat in range(1 if trace else params["run_repeats"]):
        # One CPU per repeat, so the loop never migrates, and the repeats take
        # turns over the CPUs: each CPU's share of the host slows it at
        # different times, and the pooled metrics average over them.
        os.sched_setaffinity(0, {cpus_available[repeat % len(cpus_available)]})
        # The previous repeat's heap goes before the next simulation is built.
        simulation = result = None
        # Set-up samples before every repeat spread them over the run's time.
        simulation, setups, networks = set_up(config, params["setup_repeats"])
        setup_s += setups
        network_s += networks
        cpu, result, run_epochs, run_ingest, run_commit = timed_run(simulation)
        cpus.append(cpu)
        ingest += run_ingest
        commit += run_commit
        steady += [sample for sample, epoch in zip(run_commit, run_epochs) if epoch[0] > config.window]
        responses = [epoch[2] for epoch in run_epochs]
        answers.append((fingerprint(result.coordinator, k), result.metrics.uplink.messages, responses))
        epochs = epochs or run_epochs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reads = read_samples(result, params["query_reads"])
    network = simulation.network
    simulation = result = None

    commit_ms = [sample * 1000.0 for sample in commit]
    steady_ms = [sample * 1000.0 for sample in steady]
    ingest_ms = [sample * 1000.0 for sample in ingest]
    read_ms = [sample * 1000.0 for sample in reads]
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "rss_peak_mb": metric(rss_mb, "MB"),
        "throughput_per_s": metric(objsteps * len(cpus) / sum(cpus), "1/s", len(cpus)),
        "ingest_ms.p50": metric(percentile(ingest_ms, 0.50), "ms", len(ingest_ms)),
        "ingest_ms.p99": metric(percentile(ingest_ms, 0.99), "ms", len(ingest_ms)),
        "commit_ms.mean": metric(statistics.fmean(commit_ms), "ms", len(commit_ms)),
        "commit_ms.p50": metric(percentile(steady_ms, 0.50), "ms", len(steady_ms)),
        "commit_ms.p90": metric(percentile(steady_ms, 0.90), "ms", len(steady_ms)),
        "query_ms.p50": metric(percentile(read_ms, 0.50), "ms", len(read_ms)),
        "query_ms.p90": metric(percentile(read_ms, 0.90), "ms", len(read_ms)),
    }
    measured, uplink = answers[0][:2]
    details: Dict[str, Any] = {
        "run_cpu_s": cpus,
        "objsteps": objsteps,
        "commit_ms": commit_ms,
        "repeats_equal": all(answer == answers[0] for answer in answers),
    }

    if trace:
        work_dir.mkdir(exist_ok=True)
        spans = work_dir / f"sim-city-{seed}-{os.getpid()}-trace.spans.json"
        metrics, traced_details, traced_result = traced_metrics(config, cpus[0], network_s, spans)
        details.update(traced_details)
        details["traced_equal_to_untraced"] = (
            fingerprint(traced_result.coordinator, k) == measured
            and traced_result.metrics.uplink.messages == uplink
        )
        traced_result = None

    checked = time.perf_counter()
    reference, differing = oracle_replay(config, network, epochs)
    correct = measured == reference and differing == 0 and details["repeats_equal"]
    correct = correct and details.get("traced_equal_to_untraced", True)
    details["fingerprint"] = {
        "index_size": measured["index_size"],
        "uplink_messages": uplink,
        "equal_to_oracle": measured == reference,
        "epochs_differing_from_oracle": differing,
    }
    details["wall_s"] = {
        "until_oracle": checked - started,
        "oracle": time.perf_counter() - checked,
    }
    return {
        "params": dict(params, seed=seed, seconds=seconds),
        "metrics": metrics,
        "attempted": len(commit_ms) + len(reads),
        "failed": 0,
        "correct": correct,
        "details": details,
    }


#: The layers ``run()`` calls directly; with ``simulation.self_s`` their busy
#: times account for the traced ``run()`` wall time.
RUN_LAYERS = (
    "workload.step.busy_s",
    "client.observe.busy_s",
    "client.respond.busy_s",
    "baselines.dp.busy_s",
    "baselines.naive.busy_s",
    "coordinator.epoch.busy_s",
    "coordinator.query.busy_s",
)


def traced_metrics(config, untraced_cpu: float, network_s: List[float], spans: Path):
    """A second, traced run on a fresh simulation: the per-layer metrics.

    The spans are written to ``spans`` when the run ends."""
    simulation, _setup, _network = set_up(config, 1)
    tracer = Tracer()
    install(tracer)
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        result = simulation.run()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    finally:
        tracer.uninstall()
    tracer.dump(str(spans))
    observe_calls = tracer.calls("client.observe")
    layers = {
        "network.generate_s": metric(statistics.median(network_s), "s", len(network_s)),
        "workload.step.calls": metric(tracer.calls("workload.step"), "count"),
        "workload.step.busy_s": metric(tracer.busy("workload.step"), "s"),
        "client.observe.calls": metric(observe_calls, "count"),
        "client.observe.busy_s": metric(tracer.busy("client.observe"), "s"),
        "client.respond.busy_s": metric(tracer.busy("client.respond"), "s"),
        "client.report_ratio": metric(
            result.metrics.uplink.messages / observe_calls if observe_calls else 0.0,
            "ratio",
            observe_calls,
        ),
        "baselines.dp.busy_s": metric(
            tracer.busy(
                "baselines.dp.observe", "baselines.dp.advance_time", "baselines.dp.top_k_score"
            ),
            "s",
        ),
        "baselines.naive.busy_s": metric(tracer.busy("baselines.naive.observe"), "s"),
        "simulation.self_s": metric(tracer.self_time("simulation.run"), "s"),
        **coordinator_metrics(tracer),
        **serving_metrics(tracer),
        "loadgen.late_ms.p99": metric(0.0, "ms", 0),
        "loadgen.ops": metric(0, "count"),
        "trace.overhead_s": metric(cpu - untraced_cpu, "s"),
    }
    accounted = sum(layers[name]["value"] for name in RUN_LAYERS) + layers["simulation.self_s"]["value"]
    details = {"traced_run_wall_s": wall, "layers_plus_self_s": accounted}
    return layers, details, result
