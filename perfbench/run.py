#!/usr/bin/env python3
"""Run one workload of the location-service benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rehash-writes --seed 1 --seconds 50 --trace 0

Workloads: ``rehash-writes`` (a live 5-node cluster on localhost,
driven by 2 closed-loop lanes in the same process) and ``sim-scale``
(Experiment I in the simulator). See ``perfbench/README.md`` for what
each one stresses.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` measures
the per-layer metrics instead: it runs a short untraced window as the
overhead baseline, then a window of ``--seconds`` with span wrappers
installed at each layer boundary (removed again when it closes).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every output and guard check passed, 1 when one failed, and 2 when the
program under test is not there to run.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working space (durable data dirs) inside the checkout; removed on exit.
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("rehash-writes", "sim-scale")
#: Wall budget of a live run's asyncio part (s). Past it the run's task
#: stacks are printed and the run fails; the faulthandler backstop
#: ends the process outright if even the teardown hangs.
LIVE_BUDGET_S = 160.0
HARD_LIMIT_S = 175.0

#: ``setup_s`` is a median of set-ups. One takes a fraction of a second
#: and the host's speed drifts over seconds, so they are spread over
#: the run: an untraced live run sets up SETUPS sessions, half before
#: its window and half after it; sim-scale adds SIM_SETUPS_PER_RUN
#: set-ups after each simulation to the simulation's own.
SETUPS = 15
SIM_SETUPS_PER_RUN = 7
#: Distinct simulations (scenario seeds) per sim-scale run.
SIM_SCENARIOS = 4
#: Longest untraced baseline window of a traced live run (s).
BASELINE_S = 10.0
#: Slice length of the live p50s (s): see :func:`_sliced_p50`.
SLICE_S = 1.0

#: ``name -> unit`` of every end-to-end metric, in report order.
END_TO_END: Dict[str, str] = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "locate_p50_ms": "ms",
    "locate_p99_ms": "ms",
    "location_mean_ms": "ms",
    "write_p99_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------


def _live_checks(workload, window) -> List[str]:
    problems = []
    if window.attempted < 1:
        problems.append("no op was measured")
    if window.mismatches:
        problems.append(
            f"{window.mismatches} of {window.checked} agents located somewhere "
            "other than where their lane put them"
        )
    if window.invariant_error:
        problems.append(f"hash tree invariant broken: {window.invariant_error}")
    if not window.splits:
        problems.append(f"{workload.name} recorded no split inside its window")
    problems.extend(f"failed op: {error}" for error in window.errors)
    return problems


def _sliced_p50(samples: List[Tuple[float, float]]) -> float:
    """Median latency of each ``SLICE_S`` of the window, averaged.

    ``samples`` are ``(issued, latency)``. The host's speed drifts over
    seconds; a median pooled over the whole window jumps between the
    fast and the slow latency mode as their shares cross one half,
    while this average moves in proportion to the share of time spent
    in each.
    """
    from layers import quantile

    slices: Dict[int, List[float]] = {}
    for issued, latency in samples:
        slices.setdefault(int(issued // SLICE_S), []).append(latency)
    return statistics.fmean(quantile(values, 0.50) for values in slices.values())


def _live_end_to_end(window, setups: List[float]) -> Dict[str, float]:
    from layers import quantile

    from repro.service.loadgen import OP_LOCATE, OP_MOVE, OP_REGISTER

    def timed(*kinds: str) -> List[Tuple[float, float]]:
        # A failed op enters the percentiles at the op deadline.
        return [
            (issued, window.deadline_s if latency is None else latency)
            for issued, kind, latency in window.samples
            if kind in kinds
        ]

    every = timed(OP_LOCATE, OP_MOVE, OP_REGISTER)
    locates = timed(OP_LOCATE)
    writes = [latency for _, latency in timed(OP_MOVE, OP_REGISTER)]
    answered = [
        latency for _, kind, latency in window.samples if kind == OP_LOCATE and latency is not None
    ]
    return {
        "throughput_ops_s": window.ok_ops / window.seconds,
        "op_p50_ms": _sliced_p50(every) * 1e3,
        "op_p99_ms": quantile([latency for _, latency in every], 0.99) * 1e3,
        "locate_p50_ms": _sliced_p50(locates) * 1e3,
        "locate_p99_ms": quantile([latency for _, latency in locates], 0.99) * 1e3,
        "location_mean_ms": statistics.fmean(answered) * 1e3,
        "write_p99_ms": quantile(writes, 0.99) * 1e3,
        "success_rate": window.ok_ops / window.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": window.peak_rss_mb,
    }


async def _live(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Tuple:
    import layers
    from live import LIVE_WORKLOADS, live_session, measure

    workload = LIVE_WORKLOADS[name]
    setups: List[float] = []
    windows = []
    # Untraced: the middle one of SETUPS sessions is measured. Traced: a
    # short untraced window (the overhead baseline), then the traced one.
    if trace:
        plan = [(min(seconds, BASELINE_S), False), (seconds, True)]
    else:
        plan = [None] * (SETUPS // 2) + [(seconds, False)] + [None] * (SETUPS // 2)
    for index, window_plan in enumerate(plan):
        started = time.perf_counter()
        async with live_session(workload, seed, work / f"session-{index}") as session:
            setups.append(time.perf_counter() - started)
            if window_plan is not None:
                windows.append(await measure(session, *window_plan))
        # A closed cluster leaves reference cycles behind; collected
        # now, they neither pause the next window nor raise its memory.
        gc.collect()
    problems = [problem for window in windows for problem in _live_checks(workload, window)]
    window = windows[-1]
    if trace:
        window.counts.untraced_throughput_ops_s = windows[0].ok_ops / windows[0].seconds
        metrics = layers.per_layer_metrics(window.recorder.spans, window.counts)
    else:
        metrics = _live_end_to_end(window, setups)
    return metrics, window.attempted, window.failed, problems


async def _bounded(coro, budget_s: float):
    """Await ``coro``; past ``budget_s`` dump every task's stack and fail.

    Either way, every task the run left behind is ended before this
    returns (see :func:`_end_leftover_tasks`).
    """
    task = asyncio.ensure_future(coro)
    try:
        done, _ = await asyncio.wait({task}, timeout=budget_s)
        if not done:
            for other in asyncio.all_tasks():
                other.print_stack(limit=10, file=sys.stderr)
            task.cancel()
            await asyncio.wait({task}, timeout=10.0)
            raise TimeoutError(f"live run exceeded its {budget_s:.0f} s budget")
        return task.result()
    finally:
        await _end_leftover_tasks()


async def _end_leftover_tasks(budget_s: float = 10.0) -> None:
    """Cancel tasks still alive after the cluster's teardown until they end.

    ``asyncio.run`` cancels leftovers only once, and a task can survive
    one cancellation (``asyncio.wait_for`` may swallow a cancel that
    races its inner call's completion, before Python 3.12), so a
    single survivor in a retry loop would keep the process alive.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + budget_s
    rounds = 0
    while True:
        tasks = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        if not tasks:
            return
        if rounds:
            print(f"perfbench: {len(tasks)} task(s) outlived {rounds} cancel(s)", file=sys.stderr)
            for task in tasks:
                task.print_stack(limit=5, file=sys.stderr)
        if loop.time() > deadline:
            raise TimeoutError(f"{len(tasks)} task(s) would not end")
        for task in tasks:
            task.cancel()
        await asyncio.wait(tasks, timeout=0.5)
        rounds += 1


# ----------------------------------------------------------------------
# sim-scale
# ----------------------------------------------------------------------


def _sim_end_to_end(
    firsts: List, ops: int, run_s: List[float], setups: List[float]
) -> Dict[str, float]:
    from layers import peak_rss_mb, quantile

    # Before the pooled lists below are built: they are the benchmark's.
    peak = peak_rss_mb()
    # A query the simulator never answered misses every latency limit.
    answered = [t for run in firsts for t in run.location_s]
    locates = answered + [run.max_sim_time for run in firsts for _ in range(run.failed)]
    updates = [t for run in firsts for t in run.update_s]
    failed = sum(run.failed for run in firsts)
    return {
        "throughput_ops_s": ops / sum(run_s),
        "op_p50_ms": quantile(locates + updates, 0.50) * 1e3,
        "op_p99_ms": quantile(locates + updates, 0.99) * 1e3,
        "locate_p50_ms": quantile(locates, 0.50) * 1e3,
        "locate_p99_ms": quantile(locates, 0.99) * 1e3,
        "location_mean_ms": statistics.fmean(answered) * 1e3,
        "write_p99_ms": quantile(updates, 0.99) * 1e3,
        "success_rate": len(answered) / (len(answered) + failed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }


def _sim(seed: int, seconds: float, trace: bool) -> Tuple:
    import layers
    import sim
    from spans import SpanRecorder

    started = time.perf_counter()
    # SIM_SCENARIOS distinct scenarios, so that the simulated figures
    # (deterministic per scenario) vary less from seed to seed.
    seeds = [seed * SIM_SCENARIOS + index for index in range(SIM_SCENARIOS)]
    firsts: List = []
    references: List[Dict[str, object]] = []
    run_s: List[float] = []
    setups: List[float] = []
    problems: List[str] = []
    ops = 0

    def account(index: int, run) -> None:
        # A repetition of a scenario must match its first run's figures
        # exactly; only its times are kept. Collecting its garbage keeps
        # the next one's peak memory that of one run.
        nonlocal ops
        problem = sim.check_run(run)
        if problem:
            problems.append(problem)
        if index == len(references):
            firsts.append(sim.Figures.of(run))
            references.append(sim.signature(run))
        elif sim.signature(run) != references[index]:
            problems.append(
                f"same-seed simulations disagree: {sim.signature(run)} vs {references[index]}"
            )
        ops += run.ops
        run_s.append(run.run_s)
        setups.append(run.setup_s)
        gc.collect()

    if not trace:
        # Every scenario once, then repetitions in turn until the time is
        # up, at least one of them so that determinism is checked.
        runs = 0
        while runs <= SIM_SCENARIOS or time.perf_counter() - started < seconds:
            scenario = runs % SIM_SCENARIOS
            account(scenario, sim.run_once(seeds[scenario]))
            for _ in range(SIM_SETUPS_PER_RUN):
                setups.append(sim.setup_only(seeds[scenario]))
                gc.collect()
            runs += 1
        attempted = sum(run.ops + run.failed for run in firsts)
        failed = sum(run.failed for run in firsts)
        return _sim_end_to_end(firsts, ops, run_s, setups), attempted, failed, problems
    first = sim.run_once(seeds[0])
    account(0, first)
    recorder = SpanRecorder()
    cpu = time.process_time()
    layers.install(recorder)
    try:
        traced = sim.run_once(seeds[0])
    finally:
        recorder.unwrap_all()
    cpu = time.process_time() - cpu
    account(0, traced)
    attempted, failed = first.ops + first.failed, first.failed
    metrics = traced.result.metrics
    counts = layers.WindowCounts(
        seconds=traced.setup_s + traced.run_s,
        ops=traced.ops,
        sim_events=metrics.sim_events,
        sim_messages=metrics.messages_sent,
        sim_located=metrics.counters.get("locates", 0),
        sim_splits=metrics.splits,
        sim_final_iagents=int(metrics.final_iagents or 0),
        cpu_s=cpu,
        throughput_ops_s=traced.ops / traced.run_s,
        untraced_throughput_ops_s=first.ops / first.run_s,
    )
    return layers.per_layer_metrics(recorder.spans, counts), attempted, failed, problems


# ----------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER

    trace = bool(args.trace)
    work = WORK / str(os.getpid())
    faulthandler.dump_traceback_later(HARD_LIMIT_S, exit=True)
    try:
        if args.workload == "sim-scale":
            metrics, attempted, failed, problems = _sim(args.seed, args.seconds, trace)
        else:
            metrics, attempted, failed, problems = asyncio.run(
                _bounded(
                    _live(args.workload, args.seed, args.seconds, trace, work),
                    LIVE_BUDGET_S,
                )
            )
    except TimeoutError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        faulthandler.cancel_dump_traceback_later()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if trace else END_TO_END
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:16.6f} {unit}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
