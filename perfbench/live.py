"""The live workload: a 5-node cluster and its load in one process.

Load comes from 2 closed-loop lanes on the same asyncio loop as the
cluster, each lane on its own ``ServiceClient`` and drawing its ops
from its own ``OpStream`` (so the ops, their targets and the agent ids
depend only on the seed). A session is: boot the cluster on a fresh
data directory and register the shared population. Set-up time is
the time to enter a session. A run then measures one window, lets the
in-flight ops finish, and checks the outputs: every agent a lane moved
or registered is located and compared with the lane's own record, and
the primary's hash tree must pass ``check_invariants``.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from array import array
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import AsyncIterator, Dict, Iterator, List, Optional, Set, Tuple

import layers
from spans import SpanRecorder

from repro.core.config import HashMechanismConfig
from repro.platform.naming import AgentId
from repro.service.client import ClientConfig, ServiceClient, ServiceError
from repro.service.cluster import ClusterConfig, booted_cluster
from repro.service.loadgen import OP_LOCATE, OP_MOVE, OP_REGISTER, Op, OpMix, OpStream
from repro.service.server import ServiceConfig

__all__ = ["LIVE_WORKLOADS", "LiveWorkload", "WindowResult", "live_session", "measure"]

NODES = 5
LANES = 2
#: Seconds of load before the window opens: stale LHAgent copies left
#: by set-up are refreshed here, not inside the window.
WARMUP_S = 1.0
#: Agents per ``locate_batch`` call of the output check.
CHECK_CHUNK = 512
#: Op deadline of the output check's client (s).
CHECK_DEADLINE_S = 5.0


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    mix: OpMix
    #: Shared agents registered at set-up (the read population).
    population: int
    mechanism: HashMechanismConfig


LIVE_WORKLOADS: Dict[str, LiveWorkload] = {
    "rehash-writes": LiveWorkload(
        name="rehash-writes",
        mix=OpMix(locate=0.3, move=0.5, register=0.2, batch=0.0),
        population=2000,
        mechanism=ServiceConfig().mechanism,
    ),
}


@dataclass
class Lane:
    stream: OpStream
    client: ServiceClient
    #: Agents whose last mutation failed: the server's record is
    #: unknown, so the output check skips them (the op is counted as
    #: failed instead).
    failed_agents: Set[AgentId] = field(default_factory=set)


@dataclass
class Session:
    cluster: object
    lanes: List[Lane]


@asynccontextmanager
async def live_session(
    workload: LiveWorkload, seed: int, data_dir: Path
) -> AsyncIterator[Session]:
    """A booted, populated cluster journaling to ``data_dir``, with its two lanes."""
    service = ServiceConfig(
        mechanism=workload.mechanism, data_dir=str(data_dir), fsync="interval"
    )
    config = ClusterConfig(nodes=NODES, shards=1, seed=seed, ops=0, service=service)
    async with booted_cluster(config) as cluster:
        names = [node.name for node in cluster.nodes]
        lanes = [
            Lane(
                OpStream(seed, lane, workload.mix, names),
                ServiceClient(
                    names[lane],
                    cluster.nodes[lane].addr,
                    config=ClientConfig(rng=random.Random(f"perfbench-{seed}-{lane}")),
                ),
            )
            for lane in range(LANES)
        ]
        try:
            await _populate(workload, lanes)
            yield Session(cluster, lanes)
        finally:
            for lane in lanes:
                await lane.client.close()


async def _populate(workload: LiveWorkload, lanes: List[Lane]) -> None:
    spawned: List[List[Op]] = [[] for _ in lanes]
    for index in range(workload.population):
        lane = index % len(lanes)
        spawned[lane].append(lanes[lane].stream.spawn())
    await asyncio.gather(
        *(
            lane.client.register_batch([(op.agent, op.node, op.seq) for op in ops])
            for lane, ops in zip(lanes, spawned)
        )
    )
    shared = [op.agent for ops in spawned for op in ops]
    for lane in lanes:
        lane.stream.bind_shared(shared)


# ----------------------------------------------------------------------
# The measured window
# ----------------------------------------------------------------------


#: The op kinds of the live workload, indexed by ``Samples``.
KINDS = (OP_LOCATE, OP_MOVE, OP_REGISTER)


class Samples:
    """One ``(issued, kind, latency)`` per measured op: seconds since
    the window opened, the op kind, and the latency in seconds, or None
    when the op failed.

    Kept in arrays: a window holds tens of thousands of ops, and as
    tuples they would add megabytes of the benchmark's own to the peak
    memory the run reports.
    """

    def __init__(self) -> None:
        self._issued = array("d")
        self._kinds = array("B")
        self._latencies = array("d")

    def append(self, issued: float, kind: str, latency: Optional[float]) -> None:
        self._issued.append(issued)
        self._kinds.append(KINDS.index(kind))
        self._latencies.append(math.nan if latency is None else latency)

    def __len__(self) -> int:
        return len(self._issued)

    def __iter__(self) -> Iterator[Tuple[float, str, Optional[float]]]:
        for issued, kind, latency in zip(self._issued, self._kinds, self._latencies):
            yield issued, KINDS[kind], None if math.isnan(latency) else latency


@dataclass
class WindowResult:
    seconds: float
    samples: Samples
    #: The client's op deadline: what a failed op counts as, so that
    #: it misses every latency limit.
    deadline_s: float
    errors: List[str]
    splits: int
    merges: int
    mismatches: int
    checked: int
    invariant_error: Optional[str]
    #: Peak resident set of the process when the window was checked (MB).
    peak_rss_mb: float
    counts: Optional[layers.WindowCounts] = None
    recorder: Optional[SpanRecorder] = None

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, latency in self.samples if latency is None)

    @property
    def ok_ops(self) -> int:
        return self.attempted - self.failed


async def _execute(client: ServiceClient, op: Op) -> None:
    if op.kind == OP_LOCATE:
        await client.locate(op.agent)
    elif op.kind == OP_MOVE:
        await client.update(op.agent, op.node, op.seq)
    elif op.kind == OP_REGISTER:
        await client.register(op.agent, op.node, op.seq)
    else:
        raise ValueError(f"op kind {op.kind!r} is not part of a live workload")


def _client_counters(lanes: List[Lane]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for lane in lanes:
        for key, value in lane.client.counters.as_dict().items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _lhagent_refreshes(cluster) -> tuple:
    return (
        sum(node.lhagent.refreshes for node in cluster.nodes),
        sum(node.lhagent.delta_refreshes for node in cluster.nodes),
    )


async def _loop_lag(samples: List[float], period: float = 0.01) -> None:
    """Lateness of a periodic ``period``-second callback."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + period
        await asyncio.sleep(period)
        samples.append(loop.time() - due)


async def measure(session: Session, seconds: float, trace: bool) -> WindowResult:
    """Run the lanes for warmup + ``seconds``, then check the outputs."""
    lanes = session.lanes
    cluster = session.cluster
    hagent = cluster.primary(0)
    samples = Samples()
    errors: List[str] = []
    clock = time.perf_counter
    window_start = clock() + WARMUP_S
    window_end = window_start + seconds

    async def lane_loop(lane: Lane) -> None:
        while clock() < window_end:
            op = lane.stream.draw()
            issued = clock()
            try:
                await _execute(lane.client, op)
                failed = False
            except ServiceError as error:
                failed = True
                lane.failed_agents.add(op.agent)
                if len(errors) < 5:
                    errors.append(f"{op.kind} {op.agent}: {error}")
            if issued >= window_start:
                latency = None if failed else clock() - issued
                samples.append(issued - window_start, op.kind, latency)

    recorder = SpanRecorder() if trace else None
    marks: Dict[str, object] = {}

    def counters() -> tuple:
        return (
            hagent.splits,
            hagent.merges,
            _client_counters(lanes),
            _lhagent_refreshes(cluster),
            time.process_time(),
        )

    async def window_marks() -> None:
        await asyncio.sleep(max(0.0, window_start - clock()))
        marks["start"] = counters()
        lag: List[float] = []
        probe = None
        if recorder is not None:
            layers.install(recorder)
            probe = asyncio.ensure_future(_loop_lag(lag))
        try:
            await asyncio.sleep(max(0.0, window_end - clock()))
        finally:
            if recorder is not None:
                recorder.unwrap_all()
            if probe is not None:
                probe.cancel()
                await asyncio.gather(probe, return_exceptions=True)
        marks["end"] = counters()
        marks["lag"] = lag

    await asyncio.gather(window_marks(), *(lane_loop(lane) for lane in lanes))
    splits0, merges0, client0, lh0, cpu0 = marks["start"]
    splits1, merges1, client1, lh1, cpu1 = marks["end"]

    mismatches, checked, invariant_error = await _check_outputs(session)
    result = WindowResult(
        seconds=seconds,
        samples=samples,
        deadline_s=lanes[0].client.config.op_deadline,
        errors=errors,
        splits=splits1 - splits0,
        merges=merges1 - merges0,
        mismatches=mismatches,
        checked=checked,
        invariant_error=invariant_error,
        peak_rss_mb=layers.peak_rss_mb(),
        recorder=recorder,
    )
    if recorder is not None:
        result.counts = layers.WindowCounts(
            seconds=seconds,
            ops=result.attempted,
            client={key: client1[key] - client0.get(key, 0) for key in client1},
            lhagent_refreshes=lh1[0] - lh0[0],
            lhagent_delta_refreshes=lh1[1] - lh0[1],
            splits=result.splits,
            merges=result.merges,
            loop_lag_s=marks["lag"],
            cpu_s=cpu1 - cpu0,
            throughput_ops_s=result.ok_ops / seconds,
        )
    return result


async def _check_outputs(session: Session) -> tuple:
    """Locate every agent the lanes own and compare with their record.

    Returns ``(mismatches, checked, invariant_error)``; an agent the
    service cannot locate at all counts as a mismatch. The check runs
    on its own client with a short op deadline and stops after the
    first chunk that has a mismatch, so a broken run fails in seconds
    instead of waiting out one deadline per lost agent.
    """
    expected: Dict[AgentId, str] = {}
    for lane in session.lanes:
        for agent, (node, _seq) in lane.stream.state.items():
            if agent not in lane.failed_agents:
                expected[agent] = node
    agents = list(expected)
    node = session.cluster.nodes[0]
    checker = ServiceClient(
        node.name,
        node.addr,
        config=ClientConfig(op_deadline=CHECK_DEADLINE_S, rng=random.Random(0)),
    )
    mismatches = checked = 0
    try:
        for start in range(0, len(agents), CHECK_CHUNK):
            chunk = agents[start : start + CHECK_CHUNK]
            try:
                found = await checker.locate_batch(chunk)
            except ServiceError:
                answers = await asyncio.gather(
                    *(checker.locate(agent) for agent in chunk), return_exceptions=True
                )
                found = {a: answer for a, answer in zip(chunk, answers) if isinstance(answer, str)}
            checked += len(chunk)
            mismatches += sum(1 for agent in chunk if found.get(agent) != expected[agent])
            if mismatches:
                break
    finally:
        await checker.close()
    invariant_error = None
    tree = session.cluster.primary(0).tree
    try:
        if tree is None:
            raise ValueError("the primary HAgent has no hash tree")
        tree.check_invariants()
    except Exception as error:  # any violation fails the run; report it
        invariant_error = f"{type(error).__name__}: {error}"
    return mismatches, checked, invariant_error
