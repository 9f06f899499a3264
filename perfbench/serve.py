"""Workloads ``serve-uniform`` and ``serve-downtown``: open-loop load against
a real ``python -m repro serve`` process over TCP.

The load generator (``loadgen``) is one asyncio thread with two connections:
a data connection carrying location-update batches from many logical
clients, and a control connection carrying epoch ticks and reads.  Every
operation has a due time fixed before the run starts; the sender writes it
when due whatever the acks are doing, and one reader task per connection
matches responses in order (the server answers each connection's lines in
order; batch acks are also checked by ``seq``).  Every latency is timed from
the operation's due time, so a stall counts against every later request.

Schedule, per 0.5 s epoch ``e``: the epoch's batches spread evenly over the
epoch, a ``tick`` closing boundary ``10 (e + 1)`` at the epoch's end, and
four ``topk`` + ``corridors`` reads at 50, 60, 70 and 80 % of the epoch.  The
first ten epochs fill the 100-timestamp window and are not measured.

The answer check runs after the timed section: a final tick drains the
queue, the accepted log is rebuilt from the per-tick ``states_processed``
counts (batches in data-connection order, each epoch then put in canonical
``(client, seq)`` order), and the server's ``snapshot`` must equal
``replay_accepted_log`` of that log on the seed oracle shape (one shard,
serial, ``kernel="object"``, ``epoch_mode="full"``), which shares neither the
columnar kernel nor the delta pipeline with the server under test.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

from stats import metric, percentile

HOST = "127.0.0.1"
EPOCH_SECONDS = 0.5
#: Timestamps per epoch boundary and the window in epochs (server defaults:
#: ``--epoch 10``, ``--window 100``).
EPOCH_LENGTH = 10
WINDOW_EPOCHS = 10
READ_OFFSETS = (0.5, 0.6, 0.7, 0.8)
#: A run whose generator sent any operation later than this (p99) is invalid.
LATE_LIMIT_MS = 100.0
#: Seconds an operation may stay unanswered after the last one was due.
ANSWER_TIMEOUT = 30.0
#: One data and one control connection, one thread.
CONNECTIONS = 2
READ_LIMIT = 1 << 26

SHAPES: Dict[str, Dict[str, Any]] = {
    "serve-uniform": {
        "scenario": "uniform_trickle",
        "groups": 30,
        "num_clients": 1,
        "load_factor": 2.5,
        "server_args": [],
        "nominal_updates_per_s": 300,
    },
    "serve-downtown": {
        "scenario": "bursty_downtown",
        "groups": 1,
        "num_clients": 10,
        "load_factor": 2.7,
        "server_args": ["--shards", "4", "--partition", "uniform", "--backend", "serial"],
        "nominal_updates_per_s": 151,
    },
}


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` process: boot, probe, measure and stop."""

    def __init__(self, argv: List[str], stderr_path: Path, cpu: int) -> None:
        self.argv = argv
        self.cpu = cpu
        self.stderr_path = stderr_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> Tuple[float, float]:
        """Boot; returns the server's CPU seconds and the wall seconds from
        spawn to the first answered connection.

        CPU time is the gated boot cost: it is the work the server did, while
        the wall time also counts the time other tenants held the CPU."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        started = time.perf_counter()
        with open(self.stderr_path, "ab") as stderr:
            self.process = subprocess.Popen(
                self.argv,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
                preexec_fn=self._in_child,
            )
        banner = self.process.stdout.readline().decode()
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r} (see {self.stderr_path})")
        self.port = int(banner.split()[2].rsplit(":", 1)[1])
        with socket.create_connection((HOST, self.port), timeout=30) as probe:
            probe.sendall(b'{"op":"hello"}\n')
            if not probe.makefile("rb").readline():
                raise RuntimeError("server closed the probe connection")
            cpu = self.cpu_seconds()
        return cpu, time.perf_counter() - started

    def _in_child(self) -> None:
        """Before the server's exec: pin it to its CPU, and give SIGINT (its
        clean shutdown) the default action even where the benchmark was
        started with SIGINT ignored, as a shell's background jobs are."""
        os.sched_setaffinity(0, {self.cpu})
        signal.signal(signal.SIGINT, signal.SIG_DFL)

    def _proc(self, name: str) -> str:
        with open(f"/proc/{self.process.pid}/{name}", encoding="ascii") as handle:
            return handle.read()

    def cpu_seconds(self) -> float:
        """CPU time the server has run, from the scheduler's ns counter."""
        return int(self._proc("schedstat").split()[0]) / 1e9

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None


# ---------------------------------------------------------------------------
# The open-loop schedule
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One scheduled operation and what became of it."""

    due: float
    kind: str  # "batch" | "tick" | "read"
    epoch: int
    lines: List[bytes]
    client: int = -1
    seq: int = -1
    rows: List[List[Any]] = field(default_factory=list)
    sent: float = 0.0
    done: float = 0.0
    responses: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.done) and all(r.get("ok") for r in self.responses)


def build_schedule(shape: Dict[str, Any], seed: int, epochs: int) -> Tuple[List[Op], List[Op]]:
    """The run's data and control operations, a pure function of the seed.

    The traffic is ``groups`` independent plans of the scenario, plan ``g``
    drawn from seed ``1000 seed + g``, with client ids (and the object ids
    made from them) offset per group.  One plan draws its start points from
    a pool of 16 points, so its cost swings with its seed; many plans keep
    the offered work of every seed alike.
    """
    from repro.serving.protocol import encode_message, encode_update
    from repro.serving.scenarios import get_scenario

    clients = shape["num_clients"]
    scenario = get_scenario(
        shape["scenario"], num_clients=clients, epochs=epochs, load_factor=shape["load_factor"]
    )
    plans = [scenario.plan(1000 * seed + group, EPOCH_LENGTH) for group in range(shape["groups"])]
    data: List[Op] = []
    control: List[Op] = []
    for epoch in range(epochs):
        begin = epoch * EPOCH_SECONDS
        batches = []
        for group, plan in enumerate(plans):
            for client, seq, states in plan[epoch]:
                wire_client = group * clients + client
                rows = [encode_update(state) for state in states]
                for row in rows:
                    row[0] = wire_client * 1000 + row[0] % 1000
                batches.append((wire_client, seq, rows))
        batches.sort(key=lambda batch: batch[:2])
        for slot, (client, seq, rows) in enumerate(batches):
            line = encode_message({"op": "batch", "client": client, "seq": seq, "updates": rows})
            due = begin + (slot + 0.5) / len(batches) * EPOCH_SECONDS
            data.append(Op(due, "batch", epoch, [line], client, seq, rows))
        for offset in READ_OFFSETS:
            reads = [encode_message({"op": "topk", "k": 10}), encode_message({"op": "corridors", "k": 10})]
            control.append(Op(begin + offset * EPOCH_SECONDS, "read", epoch, reads))
        tick = encode_message({"op": "tick", "now": (epoch + 1) * EPOCH_LENGTH})
        control.append(Op(begin + EPOCH_SECONDS, "tick", epoch, [tick]))
    control.sort(key=lambda op: op.due)
    return data, control


async def _send(ops: List[Op], writer: asyncio.StreamWriter, pending: Deque[Op], t0: float) -> None:
    loop = asyncio.get_running_loop()
    for op in ops:
        delay = t0 + op.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        op.sent = loop.time()
        for line in op.lines:
            pending.append(op)
            writer.write(line)
        await writer.drain()


async def _receive(reader: asyncio.StreamReader, pending: Deque[Op], expected: int, on_done) -> None:
    from repro.serving.protocol import decode_message

    loop = asyncio.get_running_loop()
    for _ in range(expected):
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        op = pending.popleft()
        response = decode_message(line)
        if op.kind == "batch" and response.get("seq") != op.seq:
            raise RuntimeError(f"ack for seq {response.get('seq')} where {op.seq} was due")
        op.responses.append(response)
        if len(op.responses) == len(op.lines):
            op.done = loop.time()
            on_done(op)


async def _request(reader, writer, payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serving.protocol import decode_message, encode_message

    writer.write(encode_message(payload))
    await writer.drain()
    return decode_message(await reader.readline())


@dataclass
class Session:
    """What one open-loop session measured."""

    data: List[Op]
    control: List[Op]
    t0: float
    #: Per answered tick: ``(epoch, server CPU seconds)``.
    tick_samples: List[Tuple[int, float]]
    drain_tick: Dict[str, Any]
    snapshot: Dict[str, Any]
    peak_rss_mb: float
    timed_out: bool


async def _drive(server: ServerProcess, data: List[Op], control: List[Op], warmup: int) -> Session:
    loop = asyncio.get_running_loop()
    data_reader, data_writer = await asyncio.open_connection(HOST, server.port, limit=READ_LIMIT)
    ctl_reader, ctl_writer = await asyncio.open_connection(HOST, server.port, limit=READ_LIMIT)
    tick_samples: List[Tuple[int, float]] = []
    last_epoch = max(op.epoch for op in control)

    def control_done(op: Op) -> None:
        if op.kind == "tick":
            tick_samples.append((op.epoch, server.cpu_seconds()))

    try:
        t0 = loop.time() + 0.2
        data_pending: Deque[Op] = collections.deque()
        ctl_pending: Deque[Op] = collections.deque()
        tasks = [
            asyncio.create_task(_send(data, data_writer, data_pending, t0)),
            asyncio.create_task(_send(control, ctl_writer, ctl_pending, t0)),
            asyncio.create_task(_receive(data_reader, data_pending, len(data), lambda op: None)),
            asyncio.create_task(
                _receive(ctl_reader, ctl_pending, sum(len(op.lines) for op in control), control_done)
            ),
        ]
        deadline = t0 + max(op.due for op in control) + ANSWER_TIMEOUT - loop.time()
        finished, unfinished = await asyncio.wait(tasks, timeout=deadline)
        for task in unfinished:
            task.cancel()
        await asyncio.gather(*unfinished, return_exceptions=True)
        for task in finished:
            task.result()
        timed_out = bool(unfinished)
        drain_tick: Dict[str, Any] = {}
        snapshot: Dict[str, Any] = {"ok": False}
        if not timed_out:
            # Untimed: commit whatever is still queued, then fetch the answer.
            drain_tick = await _request(
                ctl_reader, ctl_writer, {"op": "tick", "now": (last_epoch + 2) * EPOCH_LENGTH}
            )
            snapshot = await _request(ctl_reader, ctl_writer, {"op": "snapshot"})
        peak_rss = server.peak_rss_mb()
    finally:
        for writer in (data_writer, ctl_writer):
            writer.close()
        for writer in (data_writer, ctl_writer):
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
    return Session(data, control, t0, tick_samples, drain_tick, snapshot, peak_rss, timed_out)


# ---------------------------------------------------------------------------
# The answer check
# ---------------------------------------------------------------------------


def rebuild_accepted_log(session: Session) -> Optional[List[Tuple[int, List[List[Any]]]]]:
    """The server's accepted log, from the client's side of the wire.

    Accepted batches reached the server in data-connection order; each tick
    committed the next ``states_processed`` updates of that sequence.
    Returns ``None`` when a tick's count does not fall on a batch boundary.
    """
    accepted = [op for op in session.data if op.ok]
    ticks = [op for op in session.control if op.kind == "tick" and op.ok]
    epochs = [(tick.responses[0]["epoch"]) for tick in ticks]
    epochs.append(session.drain_tick["epoch"])
    log: List[Tuple[int, List[List[Any]]]] = []
    position = 0
    for epoch in epochs:
        remaining = epoch["states_processed"]
        batches = []
        while remaining > 0 and position < len(accepted):
            batches.append(accepted[position])
            remaining -= len(accepted[position].rows)
            position += 1
        if remaining != 0:
            return None
        batches.sort(key=lambda op: (op.client, op.seq))
        log.append((epoch["timestamp"], [row for op in batches for row in op.rows]))
    return log if position == len(accepted) else None


def check_answers(session: Session) -> Dict[str, Any]:
    from repro.serving.scenarios import replay_accepted_log

    if not (session.snapshot.get("ok") and session.drain_tick.get("ok")):
        return {"log_rebuilt": False, "equal_to_replay": False}
    log = rebuild_accepted_log(session)
    if log is None:
        return {"log_rebuilt": False, "equal_to_replay": False}
    reference = replay_accepted_log(
        log, window=100, cells_per_axis=64, kernel="object", epoch_mode="full"
    )
    return {
        "log_rebuilt": True,
        "epochs": len(log),
        "equal_to_replay": session.snapshot["snapshot"] == reference,
    }


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def server_argv(shape: Dict[str, Any], traced: bool, trace_out: Path) -> List[str]:
    serve_args = ["serve", "--port", "0", *shape["server_args"]]
    if traced:
        launcher = Path(__file__).resolve().parent / "serve_traced.py"
        return [sys.executable, str(launcher), str(trace_out), *serve_args]
    return [sys.executable, "-m", "repro", *serve_args]


def one_session(
    shape: Dict[str, Any],
    seed: int,
    epochs: int,
    warmup: int,
    boots: int,
    traced: bool,
    work_dir: Path,
    tag: str,
    cpu: int,
) -> Tuple[Session, List[Tuple[float, float]], Dict[str, Any]]:
    """Boot ``boots`` servers (keeping the last), drive one session, check it.

    Returns the session, each boot's ``(cpu_s, wall_s)`` and, when traced,
    the server's per-layer metrics."""
    data, control = build_schedule(shape, seed, epochs)
    trace_out = work_dir / f"{tag}-trace"
    boot_s: List[Tuple[float, float]] = []
    server = None
    try:
        for _ in range(boots):
            if server is not None:
                server.stop()
            server = ServerProcess(
                server_argv(shape, traced, trace_out), work_dir / f"{tag}.stderr", cpu
            )
            boot_s.append(server.start())
        session = asyncio.run(_drive(server, data, control, warmup))
    finally:
        if server is not None:
            server.stop()
    layers: Dict[str, Any] = {}
    if traced:
        with open(f"{trace_out}.metrics.json", encoding="utf-8") as handle:
            layers = json.load(handle)
    return session, boot_s, layers


def _ms(samples: List[float]) -> List[float]:
    return [sample * 1000.0 for sample in samples]


def summarize(session: Session, warmup: int) -> Dict[str, Any]:
    """Latency samples, failures and throughput of the measured epochs."""

    def measured(op: Op) -> bool:
        return op.epoch >= warmup and op.ok

    ingest = _ms([op.done - (session.t0 + op.due) for op in session.data if measured(op)])
    commit = _ms(
        [op.done - (session.t0 + op.due) for op in session.control if op.kind == "tick" and measured(op)]
    )
    query = _ms(
        [op.done - (session.t0 + op.due) for op in session.control if op.kind == "read" and measured(op)]
    )
    ops = session.data + session.control
    late = _ms([op.sent - (session.t0 + op.due) for op in ops if op.sent])
    # Updates the measured ticks committed, over the server CPU spent from
    # the last warm-up commit to the last measured one (batches, reads and
    # commits alike).
    cpu_at = dict(session.tick_samples)
    measured_ticks = [op for op in session.control if op.kind == "tick" and measured(op)]
    updates = sum(op.responses[0]["epoch"]["states_processed"] for op in measured_ticks)
    last = max((op.epoch for op in measured_ticks), default=None)
    cpu = cpu_at[last] - cpu_at[warmup - 1] if last in cpu_at and warmup - 1 in cpu_at else 0.0
    return {
        "ingest": ingest,
        "commit": commit,
        "query": query,
        "late": late,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "rejected": sum(1 for op in session.data if op.done and not op.ok),
        "updates": updates,
        "server_cpu_s": cpu,
        "throughput": updates / cpu if cpu > 0 else 0.0,
    }


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    work_dir: Path,
) -> Dict[str, Any]:
    cpus = sorted(os.sched_getaffinity(0))
    if CONNECTIONS > len(cpus):
        raise SystemExit(
            f"traffic shape needs {CONNECTIONS} connections on one thread; nproc is {len(cpus)}"
        )
    # The generator and the server each get a CPU of their own, so neither
    # migrates or waits behind the other.
    os.sched_setaffinity(0, {cpus[0]})
    server_cpu = cpus[-1]
    shape = SHAPES[workload]
    warmup = 2 if smoke else WINDOW_EPOCHS
    epochs = warmup + max(1, round(seconds / EPOCH_SECONDS))
    boots = 1 if (smoke or trace) else 5
    work_dir.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}-{os.getpid()}"
    params = dict(
        shape,
        seed=seed,
        seconds=seconds,
        epoch_seconds=EPOCH_SECONDS,
        warmup_epochs=warmup,
        measured_epochs=epochs - warmup,
        read_offsets=READ_OFFSETS,
        boots=boots,
    )

    session, boot_s, _ = one_session(
        shape, seed, epochs, warmup, boots, False, work_dir, tag, server_cpu
    )
    numbers = summarize(session, warmup)
    checks = check_answers(session)
    late_p99 = percentile(numbers["late"], 0.99)
    details: Dict[str, Any] = {
        "checks": checks,
        "server_cpu_s": numbers["server_cpu_s"],
        "loadgen_late_ms_p99": late_p99,
        "timed_out": session.timed_out,
        "rejected_batches": numbers["rejected"],
        "updates_measured": numbers["updates"],
        "boot_wall_s": [wall for _cpu, wall in boot_s],
    }
    valid = late_p99 <= LATE_LIMIT_MS and not session.timed_out
    correct = checks["equal_to_replay"] and valid
    attempted, failed = numbers["attempted"], numbers["failed"]

    if not trace:
        metrics = {
            "setup_s": metric(statistics.median(cpu for cpu, _wall in boot_s), "s", len(boot_s)),
            "rss_peak_mb": metric(session.peak_rss_mb, "MB"),
            "throughput_per_s": metric(numbers["throughput"], "1/s"),
        }
        for name, key, fractions in (
            ("ingest_ms", "ingest", (0.50, 0.99)),
            ("commit_ms", "commit", (0.50, 0.90)),
            ("query_ms", "query", (0.50, 0.90)),
        ):
            samples = numbers[key]
            if name == "commit_ms":
                metrics["commit_ms.mean"] = metric(
                    statistics.fmean(samples) if samples else 0.0, "ms", len(samples)
                )
            for fraction in fractions:
                metrics[f"{name}.p{round(fraction * 100)}"] = metric(
                    percentile(samples, fraction), "ms", len(samples)
                )
    else:
        traced, _boot, layers = one_session(
            shape, seed, epochs, warmup, 1, True, work_dir, tag + "-traced", server_cpu
        )
        traced_numbers = summarize(traced, warmup)
        traced_checks = check_answers(traced)
        details["traced_checks"] = traced_checks
        correct = correct and traced_checks["equal_to_replay"]
        attempted += traced_numbers["attempted"]
        failed += traced_numbers["failed"]
        metrics = zero_sim_layers()
        metrics.update(layers)
        metrics["loadgen.late_ms.p99"] = metric(
            percentile(traced_numbers["late"], 0.99), "ms", len(traced_numbers["late"])
        )
        metrics["loadgen.ops"] = metric(traced_numbers["attempted"], "count")
        metrics["trace.overhead_s"] = metric(
            traced_numbers["server_cpu_s"] - numbers["server_cpu_s"], "s"
        )
    return {
        "params": params,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "details": details,
    }


def zero_sim_layers() -> Dict[str, Any]:
    """The layers a served run never calls: ``network``, ``workload``,
    ``client``, ``baselines`` and ``simulation`` (zero calls, zero busy)."""
    names = {
        "network.generate_s": "s",
        "workload.step.calls": "count",
        "workload.step.busy_s": "s",
        "client.observe.calls": "count",
        "client.observe.busy_s": "s",
        "client.respond.busy_s": "s",
        "client.report_ratio": "ratio",
        "baselines.dp.busy_s": "s",
        "baselines.naive.busy_s": "s",
        "simulation.self_s": "s",
    }
    return {name: metric(0, unit, 0) for name, unit in names.items()}
