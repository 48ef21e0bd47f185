"""The live workload on a reduced population and a short window."""

import asyncio
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import layers
import live
import run as bench

BENCH = Path(__file__).resolve().parents[1]
WRITES = replace(live.LIVE_WORKLOADS["rehash-writes"], population=200)


async def _window(workload, data_dir, seconds=1.5, trace=False, corrupt=False):
    async with live.live_session(workload, 5, data_dir) as session:
        window = await live.measure(session, seconds, trace=trace)
        if corrupt:
            lane = session.lanes[0]
            agent = next(iter(lane.stream.state))
            lane.stream.state[agent][0] = "nowhere"
            window.mismatches, window.checked, _ = await live._check_outputs(session)
        return window


def test_window_passes_its_checks_and_guard(tmp_path):
    window = asyncio.run(_window(WRITES, tmp_path))
    assert bench._live_checks(WRITES, window) == []
    assert window.splits > 0
    assert window.checked >= WRITES.population
    metrics = bench._live_end_to_end(window, [1.0])
    assert set(metrics) == set(bench.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def test_output_check_catches_a_wrong_answer(tmp_path):
    window = asyncio.run(_window(WRITES, tmp_path, corrupt=True))
    assert window.mismatches == 1
    assert any("located somewhere" in p for p in bench._live_checks(WRITES, window))


def test_guard_fails_a_window_without_a_split(tmp_path):
    window = asyncio.run(_window(WRITES, tmp_path))
    window.splits = 0
    assert any("no split" in p for p in bench._live_checks(WRITES, window))


def test_sliced_p50_averages_the_median_of_each_slice():
    # Slice 0 holds 1, 2, 9 (median 2); slice 1 holds 4, 5, 6 (median 5).
    samples = [(0.1, 1.0), (0.5, 9.0), (0.9, 2.0), (1.0, 5.0), (1.2, 4.0), (1.9, 6.0)]
    assert bench._sliced_p50(samples) == 3.5


def test_traced_window_reports_every_layer_and_unwraps(tmp_path):
    dispatch = live.layers.server_module.NodeServer.dispatch
    window = asyncio.run(_window(WRITES, tmp_path, trace=True))
    assert live.layers.server_module.NodeServer.dispatch is dispatch
    assert bench._live_checks(WRITES, window) == []
    window.counts.untraced_throughput_ops_s = window.counts.throughput_ops_s * 1.25
    metrics = layers.per_layer_metrics(window.recorder.spans, window.counts)
    assert set(metrics) == set(layers.PER_LAYER)
    assert abs(metrics["trace.overhead_share"] - 0.2) < 1e-9
    assert metrics["rehash.splits_per_s"] > 0
    assert metrics["storage.appends_per_op"] > 0
    assert metrics["client.rpcs_per_op"] > 1.9
    assert metrics["sim.events"] == 0


def test_command_fails_without_the_program(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", copy / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sim-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")
