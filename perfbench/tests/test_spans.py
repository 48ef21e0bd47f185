"""Span recording and the self-time arithmetic."""

import asyncio

import layers
from spans import SpanRecorder, interval_union, self_times


def test_interval_union_merges_overlaps_and_keeps_gaps():
    assert interval_union([]) == 0
    assert interval_union([(0, 10)]) == 10
    assert interval_union([(0, 10), (5, 20)]) == 20
    assert interval_union([(0, 10), (2, 3)]) == 10
    assert interval_union([(30, 40), (0, 10)]) == 20
    assert interval_union([(0, 10), (10, 20), (15, 16)]) == 20


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("op", 0, 100, None, None),
        ("rpc", 10, 30, 0, None),
        ("rpc", 20, 50, 0, None),  # overlaps the first: counted once
        ("rpc", 90, 150, 0, None),  # outlives the parent: only 90..100 counts
        ("encode", 12, 14, 1, None),  # a grandchild is not the op's child
    ]
    selfs = self_times(spans)
    assert selfs[0] == 100 - (40 + 10)
    assert selfs[1] == 20 - 2
    assert selfs[3] == 60
    assert selfs[4] == 2


def test_self_time_skips_unfinished_spans():
    spans = [("op", 0, 100, None, None), None, ("rpc", 10, 20, 1, None)]
    selfs = self_times(spans)
    assert selfs == {0: 100, 2: 10}


class Base:
    def inherited(self, x):
        return x + 1


class Layer(Base):
    def outer(self, x):
        return self.inner(x) * 2

    def inner(self, x):
        return x + 1


def test_sync_wrappers_nest_and_unwrap_restores_the_originals():
    outer, inner = Layer.__dict__["outer"], Layer.__dict__["inner"]
    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "outer", note=lambda args, kwargs, result: result)
    recorder.wrap(Layer, "inner", "inner")
    recorder.wrap(Layer, "inherited", "inherited")
    assert Layer().outer(1) == 4
    assert Layer().inherited(1) == 2
    recorder.unwrap_all()
    assert Layer.__dict__["outer"] is outer and Layer.__dict__["inner"] is inner
    assert "inherited" not in Layer.__dict__  # un-shadowed, not copied down
    names = [span[0] for span in recorder.spans]
    assert names == ["outer", "inner", "inherited"]
    assert recorder.spans[1][3] == 0  # inner's parent is outer
    assert recorder.spans[0][4] == 4  # the note saw the result
    assert recorder.spans[2][3] is None
    Layer().outer(1)
    assert len(recorder.spans) == 3  # nothing records once unwrapped


class AsyncLayer:
    async def op(self):
        await asyncio.sleep(0.02)  # the op's own time, across an await
        await asyncio.gather(self.rpc(0.05), self.rpc(0.05))

    async def rpc(self, delay):
        await asyncio.sleep(delay)


def test_async_self_time_spans_awaits_and_counts_overlapping_children_once():
    recorder = SpanRecorder()
    recorder.wrap(AsyncLayer, "op", "op")
    recorder.wrap(AsyncLayer, "rpc", "rpc")
    try:
        asyncio.run(AsyncLayer().op())
    finally:
        recorder.unwrap_all()
    spans = recorder.spans
    op = [i for i, span in enumerate(spans) if span[0] == "op"][0]
    rpcs = [i for i, span in enumerate(spans) if span[0] == "rpc"]
    # gather runs each child in its own task; the context copy keeps
    # the op as their parent.
    assert len(rpcs) == 2 and all(spans[i][3] == op for i in rpcs)
    self_ms = self_times(spans)[op] / 1e6
    # Two overlapping 50 ms children leave ~20 ms of self time; summing
    # them instead of taking their union would leave about -30 ms.
    assert 15 <= self_ms < 45


def test_a_span_in_an_unrelated_task_is_a_root():
    recorder = SpanRecorder()
    recorder.wrap(AsyncLayer, "rpc", "rpc")

    async def main():
        # Created before any span is open: no parent to inherit.
        background = asyncio.ensure_future(AsyncLayer().rpc(0.01))
        await AsyncLayer().rpc(0.01)
        await background

    try:
        asyncio.run(main())
    finally:
        recorder.unwrap_all()
    assert [span[3] for span in recorder.spans] == [None, None]


def test_layer_install_is_fully_undone():
    def snapshot():
        owners = [
            layers.ServiceClient,
            layers.RpcChannel,
            layers.wire,
            layers.server_module.NodeServer,
            layers.server_module.HAgentServer,
            layers.server_module.IAgentEndpoint,
            layers.server_module.LHAgentEndpoint,
            layers.server_module.HostEndpoint,
            layers.DurableStore,
            layers.wal_module.WriteAheadLog,
            layers.HashFunctionCopy,
            layers.HashTree,
        ]
        return [dict(vars(owner)) for owner in owners]

    before = snapshot()
    recorder = SpanRecorder()
    layers.install(recorder)
    assert layers.wire.encode_frame is not before[2]["encode_frame"]
    recorder.unwrap_all()
    assert snapshot() == before
