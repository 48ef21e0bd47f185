"""The sim-scale workload on a reduced scenario."""

import functools

import layers
import run as bench
import sim
from spans import SpanRecorder

AGENTS = 100
QUERIES = 100


def test_same_seed_simulations_are_identical_and_pass_the_output_check():
    first = sim.run_once(3, agents=AGENTS, queries=QUERIES)
    second = sim.run_once(3, agents=AGENTS, queries=QUERIES)
    assert sim.signature(first) == sim.signature(second)
    assert sim.check_run(first, queries=QUERIES) is None
    assert first.result.metrics.splits > 0


def test_another_seed_gives_another_run():
    assert sim.signature(sim.run_once(3, agents=AGENTS, queries=QUERIES)) != sim.signature(
        sim.run_once(4, agents=AGENTS, queries=QUERIES)
    )


def test_output_check_rejects_a_short_count():
    run = sim.run_once(3, agents=AGENTS, queries=QUERIES)
    assert "queries finished" in sim.check_run(run, queries=QUERIES + 1)


def test_tracing_leaves_the_simulation_unchanged_and_measures_core():
    untraced = sim.run_once(3, agents=AGENTS, queries=QUERIES)
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        traced = sim.run_once(3, agents=AGENTS, queries=QUERIES)
    finally:
        recorder.unwrap_all()
    assert sim.signature(traced) == sim.signature(untraced)
    metrics = layers.per_layer_metrics(
        recorder.spans,
        layers.WindowCounts(seconds=traced.setup_s + traced.run_s, ops=traced.ops),
    )
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["core.resolves_per_op"] > 0
    assert 0 < metrics["core.busy_share"] < 1
    assert metrics["wire.frames_per_op"] == 0  # no sockets in the simulator


def test_setup_only_stops_before_simulated_time_starts():
    assert 0 < sim.setup_only(3, agents=AGENTS, queries=QUERIES) < 5


def test_a_run_pools_its_scenarios_and_repeats_one(monkeypatch):
    seen = []
    run_once = sim.run_once

    def small_run(seed):
        seen.append(seed)
        return run_once(seed, agents=AGENTS, queries=QUERIES)

    monkeypatch.setattr(sim, "run_once", small_run)
    monkeypatch.setattr(sim, "check_run", functools.partial(sim.check_run, queries=QUERIES))
    monkeypatch.setattr(
        sim, "setup_only", functools.partial(sim.setup_only, agents=AGENTS, queries=QUERIES)
    )
    metrics, attempted, failed, problems = bench._sim(3, 0.0, trace=False)
    assert problems == []
    assert seen == [12, 13, 14, 15, 12]  # 4 scenarios of seed 3, then a repetition
    assert set(metrics) == set(bench.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert attempted >= bench.SIM_SCENARIOS * QUERIES
