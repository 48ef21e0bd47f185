"""The ``sim-scale`` workload: Experiment I through the simulator.

The paper's Experiment I scenario (``exp1_scenario``) with the hash
mechanism at 1,000 TAgents and 1,000 queries, everything else at the
paper's defaults. The seed is the scenario seed, so it picks the
population, the itineraries and the query targets. One simulation is
deterministic for its seed, so the simulated figures (location times,
events, splits) repeat exactly; only the wall time varies. Set-up is
everything ``run_experiment`` does before simulated time starts to
advance (runtime, nodes, mechanism, population, query clients); the
run is the rest.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.harness.experiment import RunResult, run_experiment
from repro.workloads.scenarios import exp1_scenario

__all__ = [
    "AGENTS",
    "QUERIES",
    "Figures",
    "SimRun",
    "check_run",
    "run_once",
    "setup_only",
    "signature",
]

AGENTS = 1000
QUERIES = 1000
#: Share of the queries that must be answered for the run to count.
MIN_ANSWERED = 0.99


@dataclass
class SimRun:
    setup_s: float
    run_s: float
    result: RunResult

    @property
    def location_s(self) -> List[float]:
        return list(self.result.metrics.location_times)

    @property
    def update_s(self) -> List[float]:
        return list(self.result.metrics.update_times)

    @property
    def answered(self) -> int:
        return len(self.result.metrics.location_times)

    @property
    def failed(self) -> int:
        """Queries that finished without an answer."""
        return self.result.metrics.failed_locates

    @property
    def ops(self) -> int:
        """Answered queries plus completed location updates."""
        return self.answered + len(self.result.metrics.update_times)


@dataclass(frozen=True)
class Figures:
    """What the end-to-end metrics need of one simulation, without the
    rest of its result, which would stay alive with it (kept in arrays,
    so that holding them adds little to the run's peak memory)."""

    location_s: array
    update_s: array
    failed: int
    ops: int
    max_sim_time: float

    @classmethod
    def of(cls, run: SimRun) -> "Figures":
        return cls(
            array("d", run.location_s),
            array("d", run.update_s),
            run.failed,
            run.ops,
            run.result.scenario.max_sim_time,
        )


def run_once(seed: int, agents: int = AGENTS, queries: int = QUERIES) -> SimRun:
    """One simulation, timed as set-up then run."""
    scenario = exp1_scenario(agents, seed=seed, total_queries=queries)
    marks: Dict[str, float] = {}

    def setup_done(runtime) -> None:
        marks["setup"] = time.perf_counter()

    started = time.perf_counter()
    result = run_experiment(scenario, "hash", before_run=setup_done)
    finished = time.perf_counter()
    return SimRun(
        setup_s=marks["setup"] - started,
        run_s=finished - marks["setup"],
        result=result,
    )


class _SetupDone(Exception):
    pass


def setup_only(seed: int, agents: int = AGENTS, queries: int = QUERIES) -> float:
    """Seconds of one simulation's set-up; simulated time never starts."""
    scenario = exp1_scenario(agents, seed=seed, total_queries=queries)

    def stop(runtime) -> None:
        raise _SetupDone

    started = time.perf_counter()
    try:
        run_experiment(scenario, "hash", before_run=stop)
    except _SetupDone:
        return time.perf_counter() - started
    raise RuntimeError("run_experiment never called its before_run hook")


def signature(run: SimRun) -> Dict[str, object]:
    """The figures a same-seed rerun must reproduce exactly."""
    metrics = run.result.metrics
    summary = metrics.location_summary()
    return {
        "events": metrics.sim_events,
        "messages": metrics.messages_sent,
        "splits": metrics.splits,
        "merges": metrics.merges,
        "final_iagents": metrics.final_iagents,
        "answered": run.answered,
        "failed": run.failed,
        "location": (summary.count, summary.mean, summary.median, summary.p95),
        "updates": len(metrics.update_times),
    }


def check_run(run: SimRun, queries: int = QUERIES) -> Optional[str]:
    """Why the run's outputs are wrong, or None when they pass."""
    finished = run.answered + run.failed
    if finished != queries:
        return f"{finished} of {queries} queries finished"
    if run.answered < MIN_ANSWERED * queries:
        return f"only {run.answered} of {queries} queries answered"
    if not run.result.metrics.splits:
        return "the hash tree never adapted (no splits)"
    return None
